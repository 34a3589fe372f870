//! The route table, which decides paths, methods, body limits, `404`
//! and `405`, and the handlers answered at once from shared state.

use std::time::Duration;

use lixto_obs::SpanRecord;
use lixto_server::{parse_provenance_key, DeployError, WatchSpec, WrapperSpec, XmlDesign};

use crate::http::{Request, Response};
use crate::json::{obj, Json};
use crate::metrics::{watch_status_json, MetricInputs};

use super::conn::{contains_ignore_ascii_case, Conn, ConnCtx};
use super::extract::{dispatch_batch, dispatch_extract};
use super::stream::{start_stream, start_watch_stream, webhook_target};
use super::{GatewayConfig, SharedGateway};

/// What answers a route.
#[derive(Clone, Copy)]
enum Handler {
    /// `POST /extract`: submitted to the pool, parking the connection
    /// unless the hot tier answers.
    Extract,
    /// `POST /extract/batch`: the same per item, under the batch body
    /// allowance.
    Batch,
    /// `GET /debug/live`: the monitor's NDJSON stream.
    Live,
    /// `GET /watches/{id}/events`: one watch's NDJSON stream.
    WatchEvents,
    /// Answered at once: `(param, request, gateway) → response`.
    Now(fn(&str, &Request, &SharedGateway) -> Response),
}

/// One row of [`ROUTES`]: a method, a path pattern with at most one
/// `{param}`, and what answers them.
struct Row {
    method: &'static str,
    path: &'static str,
    handler: Handler,
}

const fn row(method: &'static str, path: &'static str, handler: Handler) -> Row {
    Row {
        method,
        path,
        handler,
    }
}

/// Every route the gateway serves; the endpoint table of the module doc
/// lists exactly these. The first pattern that matches a path decides
/// it, so `/watches/{id}/events` precedes `/watches/{id}`. `/extract`
/// comes first: it is the route almost every request takes.
#[rustfmt::skip]
static ROUTES: &[Row] = &[
    row("POST", "/extract", Handler::Extract),
    row("POST", "/extract/batch", Handler::Batch),
    row("PUT", "/wrappers/{name}", Handler::Now(put_wrapper)),
    row("GET", "/wrappers", Handler::Now(|_, _, shared| get_wrappers(shared))),
    row("GET", "/provenance/{key}", Handler::Now(|key, _, shared| get_provenance(key, shared))),
    row("GET", "/metrics", Handler::Now(|_, request, shared| get_metrics(request, shared))),
    row("GET", "/metrics/history", Handler::Now(|_, request, shared| get_metrics_history(request, shared))),
    row("GET", "/debug/health", Handler::Now(|_, _, shared| Response::json(200, &shared.monitor.health_json()))),
    row("GET", "/debug/live", Handler::Live),
    row("GET", "/watches/{id}/events", Handler::WatchEvents),
    row("PUT", "/watches/{id}", Handler::Now(put_watch)),
    row("GET", "/watches/{id}", Handler::Now(|id, _, shared| get_watch(id, shared))),
    row("DELETE", "/watches/{id}", Handler::Now(|id, _, shared| delete_watch(id, shared))),
    row("GET", "/watches", Handler::Now(|_, _, shared| get_watches(shared))),
    row("GET", "/debug/wrappers/{name}", Handler::Now(|name, _, shared| get_debug_wrapper(name, shared))),
    row("GET", "/debug/slow", Handler::Now(|_, _, shared| get_debug_slow(shared))),
    row("GET", "/debug/requests/{id}", Handler::Now(|id, _, shared| get_debug_request(id, shared))),
    row("GET", "/healthz", Handler::Now(|_, _, _| Response::json(200, &obj([("status", "ok".into())])))),
    row("POST", "/admin/shutdown", Handler::Now(|_, _, shared| admin_shutdown(shared))),
];

/// A request resolved against [`ROUTES`]: the row that serves it and
/// its `{param}` (`""` for a pattern without one).
struct Route<'a> {
    row: &'static Row,
    param: &'a str,
}

/// Why a request resolved to no route.
#[derive(Debug, PartialEq, Eq)]
enum Miss {
    /// No pattern matches the path: `404`.
    NotFound,
    /// This pattern matches the path but has no row for the method:
    /// `405`, allowing the methods of the pattern's rows.
    Method(&'static str),
}

impl Miss {
    fn response(&self) -> Response {
        match self {
            Miss::NotFound => Response::error(404, "not_found", "no such endpoint"),
            Miss::Method(pattern) => {
                let allow: Vec<&str> = ROUTES
                    .iter()
                    .filter(|row| row.path == *pattern)
                    .map(|row| row.method)
                    .collect();
                Response::error(405, "method_not_allowed", "wrong method for this path")
                    .with_header("allow", allow.join(", "))
            }
        }
    }
}

/// Resolve `method path` against [`ROUTES`]. Allocation-free: it runs
/// twice per request, for the body limit and for dispatch.
fn resolve<'a>(method: &str, path: &'a str) -> Result<Route<'a>, Miss> {
    let mut matched: Option<&'static str> = None;
    for row in ROUTES {
        if matched.is_some_and(|pattern| pattern != row.path) {
            continue;
        }
        let Some(param) = capture(row.path, path) else {
            continue;
        };
        if row.method == method {
            return Ok(Route { row, param });
        }
        matched = Some(row.path);
    }
    Err(matched.map_or(Miss::NotFound, Miss::Method))
}

/// The `{param}` of `path` under `pattern` (`""` when the pattern has
/// none), or `None` when the path does not match. A parameter is
/// everything between the pattern's prefix and suffix, `/` included
/// (client request ids may hold one), and never empty.
fn capture<'a>(pattern: &str, path: &'a str) -> Option<&'a str> {
    let Some((prefix, rest)) = pattern.split_once('{') else {
        return (pattern == path).then_some("");
    };
    let (_, suffix) = rest.split_once('}')?;
    path.strip_prefix(prefix)?
        .strip_suffix(suffix)
        .filter(|param| !param.is_empty())
}

/// The largest body `method path` may carry: the batch allowance for
/// `POST /extract/batch`, the single-request limit for everything else.
pub(super) fn body_limit(config: &GatewayConfig, method: &str, path: &str) -> usize {
    let single = config.limits.max_body_bytes;
    let route = resolve(method, path);
    if route.is_ok_and(|route| matches!(route.row.handler, Handler::Batch)) {
        config.max_batch_body_bytes.max(single)
    } else {
        single
    }
}

/// Serve one parsed request by its route: extraction endpoints park the
/// connection on the pool, stream endpoints make it a subscriber, and
/// everything else is answered at once.
pub(super) fn serve(conn: &mut Conn, ctx: &ConnCtx, request: &Request) {
    let response = match resolve(&request.method, &request.path) {
        Ok(Route { row, param }) => match row.handler {
            Handler::Extract => return dispatch_extract(conn, ctx, request),
            Handler::Batch => return dispatch_batch(conn, ctx, request),
            Handler::Live => {
                let hello = ctx.shared.monitor.hello_event();
                return start_stream(conn, ctx, request, None, &hello);
            }
            Handler::WatchEvents => return start_watch_stream(conn, ctx, request, param),
            Handler::Now(handle) => handle(param, request, ctx.shared),
        },
        Err(miss) => miss.response(),
    };
    conn.respond(ctx, &response, request.keep_alive());
}

/// The request body as JSON, or the message of the `400 bad_request`
/// that answers it.
pub(super) fn json_body(request: &Request) -> Result<Json, String> {
    let body = request.body_utf8().ok_or("body is not UTF-8")?;
    Json::parse(body).map_err(|e| e.to_string())
}

/// First value of `name` in the request's query string.
pub(super) fn query_param<'a>(request: &'a Request, name: &str) -> Option<&'a str> {
    let query = request.query.as_deref()?;
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        (key == name).then_some(value)
    })
}

/// `value` as JSON, or `null` when it is absent.
fn nullable(value: Option<impl Into<Json>>) -> Json {
    value.map_or(Json::Null, Into::into)
}

fn bad_request(message: &str) -> Response {
    Response::error(400, "bad_request", message)
}

/// Whether `name` is a wrapper name or watch id: `[A-Za-z0-9_-]+`, so
/// it never reaches the registries (or their spool formats) otherwise.
fn valid_name(name: &str) -> bool {
    name.bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// `POST /admin/shutdown`: raise the stop flag and wake the caller of
/// [`HttpGateway::wait_shutdown_requested`](super::HttpGateway::wait_shutdown_requested).
fn admin_shutdown(shared: &SharedGateway) -> Response {
    shared.begin_stop();
    *shared
        .shutdown_requested
        .lock()
        .expect("shutdown flag poisoned") = true;
    shared.shutdown_cv.notify_all();
    Response::json(200, &obj([("shutting_down", true.into())]))
}

/// `GET /provenance/{key}`: the derivation record persisted beside a
/// cached extraction — wrapper version, plan fingerprint, source page
/// hash, and the producing rule per instance. 404 when the key is not
/// in either store tier (never expired, never cached, or evicted).
fn get_provenance(key: &str, shared: &SharedGateway) -> Response {
    let Some(cache_key) = parse_provenance_key(key) else {
        return bad_request(
            "malformed provenance key; expected {wrapper}@{plan:016x}@{content:016x}",
        );
    };
    let Some(entry) = shared.server.provenance(&cache_key) else {
        return Response::error(404, "not_found", "no cached result under this key");
    };
    let p = &entry.provenance;
    let instances: Vec<Json> = p
        .instances
        .iter()
        .map(|inst| {
            obj([
                ("pattern", inst.pattern.as_str().into()),
                ("parent", nullable(inst.parent)),
                ("rule", nullable(inst.rule)),
                ("text", inst.text.as_str().into()),
            ])
        })
        .collect();
    let crawl: Vec<Json> = entry
        .crawl
        .iter()
        .map(|record| {
            obj([
                ("url", record.url.as_str().into()),
                (
                    "hash",
                    nullable(record.content.map(|h| format!("{h:016x}"))),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        &obj([
            ("key", key.into()),
            ("wrapper", p.wrapper.as_str().into()),
            ("version", p.version.into()),
            ("plan", format!("{:016x}", p.plan).into()),
            ("source_url", p.source_url.as_str().into()),
            ("source_hash", format!("{:016x}", p.source_hash).into()),
            ("instances", instances.into()),
            ("crawl", crawl.into()),
        ]),
    )
}

fn get_wrappers(shared: &SharedGateway) -> Response {
    let wrappers: Vec<Json> = shared
        .server
        .registry()
        .catalog()
        .into_iter()
        .map(|(name, latest)| obj([("name", name.into()), ("latest", latest.into())]))
        .collect();
    Response::json(200, &obj([("wrappers", wrappers.into())]))
}

fn put_wrapper(name: &str, request: &Request, shared: &SharedGateway) -> Response {
    if !valid_name(name) {
        return bad_request("wrapper names are [A-Za-z0-9_-]+");
    }
    let parsed = match json_body(request) {
        Ok(v) => v,
        Err(message) => return bad_request(&message),
    };
    let Some(program) = parsed.get("program").and_then(Json::as_str) else {
        return bad_request("missing string field \"program\"");
    };
    let mut design = XmlDesign::new();
    if let Some(root) = parsed.get("root") {
        match root.as_str() {
            Some(root) => design = design.root(root),
            None => return bad_request("\"root\" must be a string"),
        }
    }
    if let Some(auxiliary) = parsed.get("auxiliary") {
        let Some(items) = auxiliary.as_array() else {
            return bad_request("\"auxiliary\" must be an array of strings");
        };
        for item in items {
            match item.as_str() {
                Some(pattern) => design = design.auxiliary(pattern),
                None => return bad_request("\"auxiliary\" must be an array of strings"),
            }
        }
    }
    match WrapperSpec::from_source(program, design) {
        Ok(spec) => {
            let version = shared.server.registry().register(name, spec);
            Response::json(
                201,
                &obj([("name", name.into()), ("version", version.into())]),
            )
        }
        Err(e) => deploy_error_response(&e),
    }
}

/// `GET /watches`: every registered subscription, id-sorted.
fn get_watches(shared: &SharedGateway) -> Response {
    let watches: Vec<Json> = shared
        .watches
        .list()
        .iter()
        .map(watch_status_json)
        .collect();
    Response::json(200, &obj([("watches", watches.into())]))
}

/// `PUT /watches/{id}`: register (201) or replace (200) a subscription.
/// The wrapper must already be deployed — a watch on a ghost wrapper
/// would tick straight into errors forever.
fn put_watch(id: &str, request: &Request, shared: &SharedGateway) -> Response {
    let registry = &shared.watches;
    if !valid_name(id) {
        return bad_request("watch ids are [A-Za-z0-9_-]+");
    }
    let parsed = match json_body(request) {
        Ok(v) => v,
        Err(message) => return bad_request(&message),
    };
    let Some(wrapper) = parsed.get("wrapper").and_then(Json::as_str) else {
        return bad_request("missing string field \"wrapper\"");
    };
    let Some(url) = parsed.get("url").and_then(Json::as_str) else {
        return bad_request("missing string field \"url\"");
    };
    let interval_ms = match parsed.get("interval_ms") {
        None | Some(Json::Null) => 1_000,
        Some(v) => match v.as_u64() {
            Some(n) if n > 0 => n,
            _ => return bad_request("\"interval_ms\" must be a positive integer"),
        },
    };
    let webhook = match parsed.get("webhook") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_str() {
            Some(url) if webhook_target(url).is_some() => Some(url.to_string()),
            Some(_) => return bad_request("\"webhook\" must be an http://host[:port][/path] URL"),
            None => return bad_request("\"webhook\" must be a string"),
        },
    };
    if shared.server.registry().latest(wrapper).is_none() {
        return Response::error(
            404,
            "unknown_wrapper",
            "no wrapper by that name is deployed",
        );
    }
    let created = registry.put(
        id,
        WatchSpec {
            wrapper: wrapper.to_string(),
            url: url.to_string(),
            interval: Duration::from_millis(interval_ms),
            webhook,
        },
    );
    let status = registry.get(id).expect("just registered");
    Response::json(if created { 201 } else { 200 }, &watch_status_json(&status))
}

/// `GET /watches/{id}`: one subscription's spec and counters.
fn get_watch(id: &str, shared: &SharedGateway) -> Response {
    match shared.watches.get(id) {
        Some(status) => Response::json(200, &watch_status_json(&status)),
        None => Response::error(404, "unknown_watch", "no such watch"),
    }
}

/// `DELETE /watches/{id}`: unregister; an in-flight recheck of the id is
/// dropped when it resolves.
fn delete_watch(id: &str, shared: &SharedGateway) -> Response {
    if shared.watches.remove(id) {
        Response::json(200, &obj([("deleted", id.into())]))
    } else {
        Response::error(404, "unknown_watch", "no such watch")
    }
}

/// Deploy-time rejection: the wrapper was compiled once, here, and the
/// structured parse/compile error goes back as the 400 body — the
/// client learns which rule, pattern and identifier is at fault instead
/// of every later `/extract` silently returning nothing.
fn deploy_error_response(error: &DeployError) -> Response {
    let detail = match error {
        DeployError::Parse(parse) => obj([
            ("kind", "parse".into()),
            ("at", (parse.at as u64).into()),
            ("message", parse.message.as_str().into()),
        ]),
        DeployError::Compile(compile) => obj([
            ("kind", "compile".into()),
            ("code", compile.code().into()),
            ("rule", (compile.rule() as u64).into()),
            ("pattern", compile.pattern().into()),
            ("subject", nullable(compile.subject())),
        ]),
    };
    Response::json(
        400,
        &obj([
            ("error", "bad_program".into()),
            (
                "message",
                format!("wrapper does not compile: {error}").into(),
            ),
            ("detail", detail),
        ]),
    )
}

/// One span record as JSON (shared by `/debug/slow` and
/// `/debug/requests/{id}`). Stage times are microseconds; untouched
/// stages are omitted.
fn span_json(span: &SpanRecord) -> Json {
    let stages: Vec<Json> = span
        .stages
        .iter()
        .map(|(stage, ns)| obj([("stage", stage.name().into()), ("us", (ns / 1_000).into())]))
        .collect();
    obj([
        ("id", span.id.as_str().into()),
        ("wrapper", span.wrapper.as_str().into()),
        ("version", span.version.into()),
        ("status", u64::from(span.status).into()),
        ("cache_hit", span.cache_hit.into()),
        ("total_us", (span.total_ns / 1_000).into()),
        ("unix_ms", span.unix_ms.into()),
        ("stages", stages.into()),
    ])
}

/// `GET /debug/slow`: the retained slowest and most recent request
/// spans.
fn get_debug_slow(shared: &SharedGateway) -> Response {
    let slowest: Vec<Json> = shared
        .spans
        .slowest()
        .iter()
        .map(|s| span_json(s))
        .collect();
    let recent: Vec<Json> = shared.spans.recent().iter().map(|s| span_json(s)).collect();
    Response::json(
        200,
        &obj([("slowest", slowest.into()), ("recent", recent.into())]),
    )
}

/// `GET /debug/requests/{id}`: one request's span while it is still
/// retained (spans age out of both the recent ring and the slowest
/// list). 404 when unknown or aged out.
fn get_debug_request(id: &str, shared: &SharedGateway) -> Response {
    match shared.spans.find(id) {
        Some(span) => Response::json(200, &span_json(&span)),
        None => Response::error(
            404,
            "unknown_request",
            "no retained span under this id (it may have aged out)",
        ),
    }
}

/// `GET /debug/wrappers/{name}`: per-rule execution telemetry of the
/// wrapper's latest version — invocations, matches produced, and
/// cumulative evaluation time per compiled rule — plus the optimizer's
/// report for the deployed plan (schedule, stratification, path fusion
/// and hoisting statistics).
fn get_debug_wrapper(name: &str, shared: &SharedGateway) -> Response {
    let Some(wrapper) = shared.server.registry().latest(name) else {
        return Response::error(
            404,
            "unknown_wrapper",
            "no wrapper registered under this name",
        );
    };
    let rules: Vec<Json> = wrapper
        .telemetry
        .snapshot()
        .into_iter()
        .map(|r| {
            obj([
                ("rule", r.rule.into()),
                ("label", r.label.into()),
                ("invocations", r.invocations.into()),
                ("matches", r.matches.into()),
                ("total_ns", r.total_ns.into()),
            ])
        })
        .collect();
    let report = wrapper.spec.optimized.report();
    let optimizer = obj([
        ("schedule", report.schedule.as_str().into()),
        ("rules", (report.rules as u64).into()),
        ("strata", (report.strata as u64).into()),
        ("fused_paths", (report.fused_paths as u64).into()),
        ("fallback_paths", (report.fallback_paths as u64).into()),
        ("hoist_groups", (report.hoist_groups as u64).into()),
        ("hoisted_sites", (report.hoisted_sites as u64).into()),
    ]);
    Response::json(
        200,
        &obj([
            ("name", name.into()),
            ("version", wrapper.version.into()),
            ("optimizer", optimizer),
            ("rules", rules.into()),
        ]),
    )
}

fn get_metrics(request: &Request, shared: &SharedGateway) -> Response {
    let inputs = MetricInputs {
        snapshot: shared.server.metrics(),
        stats: shared.stats(),
        observations: shared.observations(),
        alerts: shared.monitor.alerts_snapshot(),
        watches: shared.streams.watch_sample(&shared.watches),
    };
    // Media types are case-insensitive (RFC 9110 §8.3.1).
    let wants_json = request
        .header("accept")
        .is_some_and(|accept| contains_ignore_ascii_case(accept.as_bytes(), b"application/json"));
    if wants_json {
        Response::json(200, &inputs.json())
    } else {
        Response::text(200, inputs.prometheus())
    }
}

/// `GET /metrics/history?window=SECS&step=SECS`: windowed rates and
/// quantiles over the monitor's history ring — a whole-window summary
/// plus per-step tiles. Defaults: the last 5 minutes in 1-minute steps.
/// The parameters are untrusted; [`Monitor::history_json`](crate::monitor::Monitor::history_json)
/// clamps the window to the retained span and bounds the tile count, so
/// a hostile `window`/`step` pair cannot pin the event loop.
fn get_metrics_history(request: &Request, shared: &SharedGateway) -> Response {
    let parse_secs = |name: &str, default: u64| {
        query_param(request, name)
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(default)
    };
    let window_ms = parse_secs("window", 300).saturating_mul(1000);
    let step_ms = parse_secs("step", 60).saturating_mul(1000);
    Response::json(200, &shared.monitor.history_json(window_ms, step_ms))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use lixto_server::{ExtractionServer, ServerConfig, WrapperRegistry};

    use super::*;
    use crate::client::HttpClient;
    use crate::gateway::HttpGateway;

    /// `pattern` with its `{param}` replaced by `value`.
    fn instantiate(pattern: &str, value: &str) -> String {
        match pattern.split_once('{') {
            Some((prefix, rest)) => {
                let (_, suffix) = rest.split_once('}').expect("a closed {param}");
                format!("{prefix}{value}{suffix}")
            }
            None => pattern.to_string(),
        }
    }

    /// The methods of the rows of `pattern`, joined as `Allow` lists
    /// them.
    fn allowed(pattern: &str) -> String {
        let methods: Vec<&str> = ROUTES
            .iter()
            .filter(|row| row.path == pattern)
            .map(|row| row.method)
            .collect();
        methods.join(", ")
    }

    const METHODS: [&str; 5] = ["GET", "PUT", "POST", "DELETE", "PATCH"];

    /// Paths no route serves, including every `{param}` left empty.
    const UNKNOWN: [&str; 11] = [
        "/",
        "/nope",
        "/extract/",
        "/extracts",
        "/wrappers/",
        "/provenance/",
        "/debug/wrappers/",
        "/debug/requests/",
        "/watches/",
        "/debug",
        "/metrics/",
    ];

    #[test]
    fn every_route_resolves_and_every_miss_is_a_404_or_a_405_with_allow() {
        for row in ROUTES {
            let path = instantiate(row.path, "x-1");
            let route = resolve(row.method, &path).unwrap_or_else(|miss| {
                panic!("{} {path} missed: {miss:?}", row.method);
            });
            assert!(std::ptr::eq(route.row, row), "{} {path}", row.method);
            let param = if row.path.contains('{') { "x-1" } else { "" };
            assert_eq!(route.param, param, "{} {path}", row.method);
            for method in METHODS {
                if ROUTES
                    .iter()
                    .any(|r| r.path == row.path && r.method == method)
                {
                    continue;
                }
                let miss = resolve(method, &path).err();
                assert_eq!(miss, Some(Miss::Method(row.path)), "{method} {path}");
                let response = miss.expect("a miss").response();
                assert_eq!(response.status, 405);
                let allow = response.extra_headers.iter().find(|(n, _)| *n == "allow");
                assert_eq!(
                    allow.map(|(_, v)| v.as_str()),
                    Some(allowed(row.path).as_str())
                );
            }
        }
        for path in UNKNOWN {
            for method in METHODS {
                assert_eq!(resolve(method, path).err(), Some(Miss::NotFound), "{path}");
            }
        }
        assert_eq!(allowed("/watches/{id}"), "PUT, GET, DELETE");
        // The batch allowance goes to the batch route alone.
        let config = GatewayConfig::default();
        for row in ROUTES {
            let limit = body_limit(&config, row.method, &instantiate(row.path, "x"));
            let batch = row.path == "/extract/batch";
            let expected = if batch {
                config.max_batch_body_bytes
            } else {
                config.limits.max_body_bytes
            };
            assert_eq!(limit, expected, "{} {}", row.method, row.path);
        }
    }

    #[test]
    fn a_live_gateway_answers_misses_by_the_table() {
        let registry = Arc::new(WrapperRegistry::new());
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(lixto_elog::StaticWeb::new()),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 1,
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        for row in ROUTES {
            let path = instantiate(row.path, "x");
            let response = client.request("PATCH", &path, &[], None).unwrap();
            assert_eq!(response.status, 405, "PATCH {path}");
            assert_eq!(
                response.header("allow"),
                Some(allowed(row.path).as_str()),
                "PATCH {path}"
            );
        }
        for path in UNKNOWN {
            let response = client.request("PUT", path, &[], None).unwrap();
            assert_eq!(response.status, 404, "PUT {path}");
            assert!(response.text().contains("\"not_found\""), "PUT {path}");
            assert_eq!(response.header("allow"), None, "PUT {path}");
        }
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn the_module_doc_lists_exactly_the_routes() {
        const DOC: &str = include_str!("mod.rs");
        let documented: BTreeSet<String> = DOC
            .lines()
            .filter_map(|line| line.strip_prefix("//! | `"))
            .filter_map(|rest| rest.split_once('`'))
            .map(|(route, _)| route.to_string())
            .collect();
        let routed: BTreeSet<String> = ROUTES
            .iter()
            .map(|row| format!("{} {}", row.method, row.path))
            .collect();
        assert_eq!(routed.len(), ROUTES.len(), "a route is listed twice");
        let missing: Vec<_> = routed.difference(&documented).collect();
        let stale: Vec<_> = documented.difference(&routed).collect();
        assert!(
            missing.is_empty(),
            "routes missing from the doc: {missing:?}"
        );
        assert!(stale.is_empty(), "doc rows no route serves: {stale:?}");
    }
}
