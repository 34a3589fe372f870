//! `POST /extract` and `POST /extract/batch`: submit each item to the
//! pool, park until every queued item's outcome is back, then stream the
//! body and record the span.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lixto_obs::{unix_millis, SpanRecord, Stage, TraceId};
use lixto_server::{
    provenance_key, CacheKey, CachedExtraction, ExtractionRequest, ExtractionResponse,
    RequestSource, Served, ServerError,
};

use crate::http::{Request, RequestError, Response};
use crate::json::{obj, write_escaped, write_number, Json};

use super::conn::{Conn, ConnCtx, ConnState};
use super::routes::json_body;
use super::Completion;

/// One extraction item of a dispatched request: its answer so far.
enum DispatchItem {
    /// Rejected before reaching the pool (bad shape, oversized item):
    /// the status and JSON body to answer with.
    Ready(u16, Json),
    /// Answered: from the pool's hot tier on this loop thread, or by a
    /// worker through its [`Completion`].
    Answered(ExtractionResponse),
    /// Refused by the pool at submission, or failed in it.
    Failed(ServerError),
}

/// What a queued item holds until its [`Completion`] fills it in: the
/// answer of a job destroyed unprocessed.
const QUEUED: DispatchItem = DispatchItem::Failed(ServerError::Canceled);

/// A connection parked on extraction work.
pub(super) struct Dispatch {
    items: Vec<DispatchItem>,
    /// Queued items whose outcome has not come back yet.
    outstanding: usize,
    /// `POST /extract/batch` (per-item envelope) vs `POST /extract`
    /// (the single item's body *is* the response body).
    batch: bool,
    /// Connection persistence the request asked for (re-checked against
    /// the stop flag when the response is queued).
    keep_alive: bool,
    /// Minted or client-supplied (`X-Request-Id`) trace id; batch items
    /// get a `#i` suffix.
    id: TraceId,
    /// When the gateway started dispatching the parsed request — the
    /// span's end-to-end clock.
    started: Instant,
    /// Worst completion wake latency observed for this request (ns);
    /// `None` until a completion arrives (synchronously answered
    /// requests never wake).
    wake_ns: Option<u64>,
}

impl Dispatch {
    /// A dispatch of `request` with room for `capacity` items. Its trace
    /// id is the client's `X-Request-Id` when that passes validation, a
    /// minted id otherwise.
    fn new(request: &Request, batch: bool, capacity: usize) -> Dispatch {
        Dispatch {
            items: Vec::with_capacity(capacity),
            outstanding: 0,
            batch,
            keep_alive: request.keep_alive(),
            id: request
                .header("x-request-id")
                .and_then(TraceId::from_client)
                .unwrap_or_else(TraceId::mint),
            started: Instant::now(),
            wake_ns: None,
        }
    }

    /// Parse and submit the next item. Hot-tier hits and synchronous
    /// failures (bad shape, unknown wrapper, backpressure, shutdown) are
    /// answered at once, on this loop thread; anything else is queued
    /// and holds [`QUEUED`] until its [`Completion`] arrives. The item's
    /// trace id rides into the pool on [`ExtractionRequest::trace`] so
    /// worker-side log events name the request.
    fn submit(&mut self, parsed: Json, ctx: &ConnCtx, generation: u64) {
        let index = self.items.len();
        let item = match extraction_request_from_json(parsed) {
            Err((status, body)) => DispatchItem::Ready(status, body),
            Ok(request) => {
                let trace = if self.batch {
                    format!("{}#{index}", self.id)
                } else {
                    self.id.to_string()
                };
                let request = ExtractionRequest {
                    trace: Some(trace),
                    ..request
                };
                // The pool runs this on a worker thread (or wherever an
                // unprocessed job is destroyed), so it only hands the
                // outcome to this loop. A hot-tier hit drops it unrun.
                let (ls, slot) = (ctx.ls.clone(), ctx.slot);
                let reply = move |outcome| {
                    let completion = Completion {
                        slot,
                        generation,
                        index,
                        outcome,
                        finished_at: Instant::now(),
                    };
                    ls.wake_with(|inbox| inbox.completions.push(completion));
                };
                match ctx.shared.server.try_serve(request, reply) {
                    Ok(Served::Hit(response)) => DispatchItem::Answered(response),
                    Ok(Served::Queued) => {
                        self.outstanding += 1;
                        QUEUED
                    }
                    Err(error) => DispatchItem::Failed(error),
                }
            }
        };
        self.items.push(item);
    }

    /// Answer the next item with an error, without submitting it.
    fn refuse(&mut self, status: u16, code: &str, message: &str) {
        self.items
            .push(DispatchItem::Ready(status, error_body(code, message)));
    }

    /// Fill in the item `completion` answers, `wake_ns` after the worker
    /// sent it. True once no item is outstanding.
    pub(super) fn answer(&mut self, completion: Completion, wake_ns: u64) -> bool {
        self.items[completion.index] = match completion.outcome {
            Ok(response) => DispatchItem::Answered(response),
            Err(error) => DispatchItem::Failed(error),
        };
        self.wake_ns = Some(self.wake_ns.map_or(wake_ns, |w| w.max(wake_ns)));
        self.outstanding = self.outstanding.saturating_sub(1);
        self.outstanding == 0
    }

    /// Park the connection on this dispatch, or answer at once when no
    /// item is queued.
    fn park(self, conn: &mut Conn, ctx: &ConnCtx) {
        let answered = self.outstanding == 0;
        conn.state = ConnState::Dispatched(self);
        if answered {
            assemble_response(conn, ctx);
        }
    }

    /// Nanoseconds since the gateway started dispatching the request.
    fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// The uniform error body (identical to [`Response::error`]'s).
fn error_body(code: &str, message: &str) -> Json {
    obj([("error", code.into()), ("message", message.into())])
}

/// Map a pool-side failure onto a status + body.
fn server_error_parts(error: &ServerError) -> (u16, Json) {
    let (status, code) = match error {
        ServerError::UnknownWrapper(_) => (404, "unknown_wrapper"),
        ServerError::UnknownVersion { .. } => (404, "unknown_version"),
        ServerError::FetchFailed(_) => (502, "fetch_failed"),
        ServerError::Backpressure => (429, "backpressure"),
        ServerError::ShuttingDown => (503, "shutting_down"),
        ServerError::Canceled => (503, "canceled"),
        ServerError::Internal(_) => (500, "internal"),
    };
    (status, error_body(code, &error.to_string()))
}

/// Parse one `/extract` body (or one batch item) into a pool request,
/// moving the strings out of the parsed document rather than copying
/// them. Errors come back as the 400 status + body the old synchronous
/// handler produced, byte for byte (a repeated key counts at its first
/// occurrence, as [`Json::get`] reads it).
fn extraction_request_from_json(parsed: Json) -> Result<ExtractionRequest, (u16, Json)> {
    let bad = |message: &str| (400, error_body("bad_request", message));
    let mut fields = match parsed {
        Json::Obj(fields) => fields,
        _ => Vec::new(),
    };
    let mut take = |key: &str| {
        fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Json::Null))
    };
    let Some(Json::Str(wrapper)) = take("wrapper") else {
        return Err(bad("missing string field \"wrapper\""));
    };
    let version = match take("version") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_u64().and_then(|n| u32::try_from(n).ok()) {
            Some(n) => Some(n),
            None => return Err(bad("\"version\" must be an unsigned integer")),
        },
    };
    let Some(Json::Str(url)) = take("url") else {
        return Err(bad("missing string field \"url\""));
    };
    let source = match take("html") {
        None | Some(Json::Null) => RequestSource::Web { url },
        Some(Json::Str(html)) => RequestSource::Inline { url, html },
        Some(_) => return Err(bad("\"html\" must be a string")),
    };
    Ok(ExtractionRequest {
        trace: None,
        wrapper,
        version,
        source,
    })
}

pub(super) fn dispatch_extract(conn: &mut Conn, ctx: &ConnCtx, request: &Request) {
    let mut dispatch = Dispatch::new(request, false, 1);
    match json_body(request) {
        Ok(parsed) => dispatch.submit(parsed, ctx, conn.generation),
        Err(message) => dispatch.refuse(400, "bad_request", &message),
    }
    dispatch.park(conn, ctx);
}

pub(super) fn dispatch_batch(conn: &mut Conn, ctx: &ConnCtx, request: &Request) {
    let reject = |conn: &mut Conn, status: u16, code: &str, message: &str| {
        let response = Response::error(status, code, message);
        conn.respond(ctx, &response, request.keep_alive());
    };
    let parsed = match json_body(request) {
        Ok(v) => v,
        Err(message) => return reject(conn, 400, "bad_request", &message),
    };
    let Json::Arr(items) = parsed else {
        return reject(
            conn,
            400,
            "bad_request",
            "batch body must be a JSON array of /extract bodies",
        );
    };
    if items.is_empty() {
        return reject(conn, 400, "empty_batch", "batch contains no items");
    }
    let max_items = ctx.shared.config.max_batch_items;
    if items.len() > max_items {
        return reject(
            conn,
            413,
            "batch_too_large",
            &format!(
                "batch of {} items exceeds the limit of {max_items}",
                items.len()
            ),
        );
    }
    let mut dispatch = Dispatch::new(request, true, items.len());
    let single_limit = ctx.shared.config.limits.max_body_bytes;
    let mut scratch = String::new(); // one reusable buffer for all size checks
    for item in items {
        // An item bigger than a single request may carry is answered
        // exactly as the framing layer would have answered the
        // equivalent individual POST (its serialized form *is* that
        // request's body).
        scratch.clear();
        item.dump_into(&mut scratch);
        let declared = scratch.len();
        if declared > single_limit {
            let message = RequestError::BodyTooLarge {
                declared,
                body_start: 0,
            }
            .message();
            dispatch.refuse(413, "body_too_large", &message);
            continue;
        }
        dispatch.submit(item, ctx, conn.generation);
    }
    dispatch.park(conn, ctx);
}

/// Append one answered item's JSON response body to `body` and return
/// its status, plus the response its span record reads (`None` for an
/// error or a rejection).
fn resolve_item(item: DispatchItem, body: &mut String) -> (u16, Option<ExtractionResponse>) {
    let (status, json) = match item {
        DispatchItem::Answered(response) => {
            write_extraction_json(&response, body);
            return (200, Some(response));
        }
        DispatchItem::Ready(status, json) => (status, json),
        DispatchItem::Failed(error) => server_error_parts(&error),
    };
    json.dump_into(body);
    (status, None)
}

/// Finish one item's span record, `total_ns` long, and admit it to the
/// span buffer. An item without a response records no wrapper and no
/// stages.
fn record_span(
    ctx: &ConnCtx,
    id: String,
    status: u16,
    response: Option<ExtractionResponse>,
    total_ns: u64,
    wake_ns: Option<u64>,
) {
    let (wrapper, version, cache_hit, mut stages) = match response {
        Some(r) => (r.wrapper, r.version, r.cache_hit, r.stages),
        None => Default::default(),
    };
    if let Some(ns) = wake_ns {
        stages.add_ns(Stage::Wake, ns);
    }
    ctx.shared.spans.record(Arc::new(SpanRecord {
        id,
        wrapper,
        version,
        status,
        cache_hit,
        total_ns,
        stages,
        unix_ms: unix_millis(),
    }));
}

/// Every item of the parked request is answered: build the response,
/// record span(s), echo the trace id, and switch the connection to
/// writing.
pub(super) fn assemble_response(conn: &mut Conn, ctx: &ConnCtx) {
    let state = std::mem::replace(&mut conn.state, ConnState::Reading);
    let ConnState::Dispatched(mut dispatch) = state else {
        conn.state = state;
        return;
    };
    let wake_ns = dispatch.wake_ns;
    // Bodies are streamed into one buffer, byte-identical to building
    // the equivalent `Json` tree and dumping it.
    let mut body = String::new();
    let (response, single) = if dispatch.batch {
        // `{"count":N,"items":[{"status":S,"body":B,"request_id":I},…]}`
        body.push_str("{\"count\":");
        write_number(dispatch.items.len() as f64, &mut body);
        body.push_str(",\"items\":[");
        let mut item_body = String::new();
        for (index, item) in std::mem::take(&mut dispatch.items).into_iter().enumerate() {
            item_body.clear();
            let (status, served) = resolve_item(item, &mut item_body);
            if index > 0 {
                body.push(',');
            }
            body.push_str("{\"status\":");
            write_number(f64::from(status), &mut body);
            body.push_str(",\"body\":");
            body.push_str(&item_body);
            // Batch items share the batch's wall clock and worst wake:
            // items are answered independently but the response leaves
            // as one.
            let id = format!("{}#{index}", dispatch.id);
            body.push_str(",\"request_id\":");
            write_escaped(&id, &mut body);
            record_span(ctx, id, status, served, dispatch.elapsed_ns(), wake_ns);
            body.push('}');
        }
        body.push_str("]}");
        (Response::json_encoded(200, body), None)
    } else {
        let item = dispatch
            .items
            .pop()
            .expect("a single dispatch holds one item");
        let (status, served) = resolve_item(item, &mut body);
        let response = Response::json_encoded(status, body);
        let response = if status == 429 {
            response.with_header("retry-after", "1")
        } else {
            response
        };
        (response, Some((status, served)))
    };
    // The header borrows the id; a single request's span record then
    // takes it, its clock stopped before the response is written, as a
    // batch item's is.
    let total_ns = dispatch.elapsed_ns();
    let echo = [("x-request-id", dispatch.id.as_str())];
    conn.respond_with(
        ctx,
        response.status,
        dispatch.keep_alive,
        |out, keep_alive| response.write_with_headers(out, keep_alive, &echo),
    );
    if let Some((status, served)) = single {
        record_span(
            ctx,
            dispatch.id.into_string(),
            status,
            served,
            total_ns,
            wake_ns,
        );
    }
}

/// Append the `/extract` response body — execution metadata, the
/// designed XML document, and the extracted pattern instances — to
/// `out`, streamed without a `Json` tree:
///
/// ```text
/// {"wrapper":…,"version":…,"cache_hit":…,"latency_us":…,
///  "provenance_key":…,"xml":…,"patterns":[{"name":…,"instances":[…]},…]}
/// ```
///
/// (shown wrapped). The fields up to `latency_us` vary per response
/// and are written fresh. The rest — `,"provenance_key":…,"xml":…,
/// "patterns":[…]}` — depends on the cache key and the stored result
/// alone: a cache hit copies it from the hot-tier entry's
/// [`ResponseMemo`](lixto_server::ResponseMemo), encoding it into the
/// memo first if this is the entry's first served hit; a miss encodes
/// it directly.
pub(super) fn write_extraction_json(response: &ExtractionResponse, out: &mut String) {
    let tail = response.memo.as_ref().map(|memo| {
        memo.get_or_init(|| {
            let mut tail = String::new();
            write_extraction_tail(&response.key, &response.result, &mut tail);
            tail
        })
    });
    // One reservation for the whole body: the prefix's fixed text and
    // numbers take under 128 bytes besides the wrapper name; a miss's
    // tail is mostly its XML.
    out.reserve(128 + response.wrapper.len() + tail.map_or(response.xml().len(), str::len));
    out.push_str("{\"wrapper\":");
    write_escaped(&response.wrapper, out);
    out.push_str(",\"version\":");
    write_number(f64::from(response.version), out);
    out.push_str(",\"cache_hit\":");
    out.push_str(if response.cache_hit { "true" } else { "false" });
    out.push_str(",\"latency_us\":");
    write_number(response.latency.as_micros() as u64 as f64, out);
    match tail {
        Some(tail) => out.push_str(tail),
        None => write_extraction_tail(&response.key, &response.result, out),
    }
}

/// Append the entry-invariant tail of the `/extract` body,
/// `,"provenance_key":…,"xml":…,"patterns":[…]}`. Instance texts come
/// from the stored provenance record, which holds each instance's text
/// index-parallel to the base; a result without one is rendered from
/// its document trees instead.
pub(super) fn write_extraction_tail(key: &CacheKey, cached: &CachedExtraction, out: &mut String) {
    let extraction = &cached.result;
    out.push_str(",\"provenance_key\":");
    write_escaped(&provenance_key(key), out);
    out.push_str(",\"xml\":");
    write_escaped(&cached.xml, out);
    out.push_str(",\"patterns\":[");
    let base = &extraction.base.instances;
    let recorded = &cached.provenance.instances;
    let recorded = (recorded.len() == base.len()).then_some(recorded);
    // Each pattern's instance indices in base order, in one pass.
    let mut of_pattern: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, instance) in base.iter().enumerate() {
        of_pattern.entry(&instance.pattern).or_default().push(i);
    }
    for (p, name) in extraction.patterns().iter().enumerate() {
        if p > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(name, out);
        out.push_str(",\"instances\":[");
        let indices = of_pattern.get(name.as_str()).map_or(&[][..], Vec::as_slice);
        for (n, &i) in indices.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            match recorded {
                Some(recorded) => write_escaped(&recorded[i].text, out),
                None => write_escaped(&extraction.base.text_of(i, &extraction.docs), out),
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}
