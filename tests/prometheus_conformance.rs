//! Prometheus text exposition conformance for `GET /metrics`: the
//! rendered text must parse under the format's grammar (`# HELP` then
//! `# TYPE` before a family's samples, valid metric and label names,
//! escaped label values), and every sample must agree with the JSON
//! rendering of the same snapshot — the two formats are one
//! measurement, twice serialized. `docs/OBSERVABILITY.md` must list
//! exactly the families the gateway emits.

use std::collections::HashMap;
use std::sync::Arc;

use lixto::core::XmlDesign;
use lixto::http::{
    AlertsSnapshot, GatewayObservations, Json, LoopGauges, MetricInputs, WatchSample,
};
use lixto::obs::{RuleSnapshot, RuleStat, Severity};
use lixto::server::{
    ExtractionRequest, ExtractionServer, RequestSource, ServerConfig, WatchStatus, WrapperRegistry,
};

const WRAPPER: &str = r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#;

// ---------------------------------------------------------------------
// A small parser for the Prometheus text exposition format
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Sample {
    name: String,
    /// Label pairs with their values unescaped, in appearance order.
    labels: Vec<(String, String)>,
    value: f64,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

/// Unescape a Prometheus label value (the text between the quotes).
/// Only `\\`, `\"` and `\n` are legal escapes.
fn unescape_label_value(raw: &str) -> Result<String, String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            assert_ne!(c, '"', "unescaped quote inside label value: {raw}");
            assert_ne!(c, '\n', "raw newline inside label value: {raw}");
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape \\{other:?} in label value {raw}")),
        }
    }
    Ok(out)
}

/// Parse one sample line: `name{label="value",...} value`.
fn parse_sample(line: &str) -> Sample {
    let (name_and_labels, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("bad value: {line}"));
    let (name, labels) = match name_and_labels.split_once('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').expect("label block closes");
            let mut labels = Vec::new();
            // Split on `",` boundaries that end a label value; values
            // themselves never end with a lone backslash before the
            // quote because `\` is always escaped.
            let mut remaining = body;
            while !remaining.is_empty() {
                let (label, rest) = remaining.split_once("=\"").expect("label=\"value\"");
                assert!(
                    valid_label_name(label),
                    "bad label name {label:?} in {line}"
                );
                // Find the closing unescaped quote.
                let mut end = None;
                let bytes = rest.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            end = Some(i);
                            break;
                        }
                        _ => i += 1,
                    }
                }
                let end = end.expect("label value closes");
                let raw = &rest[..end];
                labels.push((label.to_string(), unescape_label_value(raw).unwrap()));
                remaining = rest[end + 1..]
                    .strip_prefix(',')
                    .unwrap_or(&rest[end + 1..]);
            }
            (name.to_string(), labels)
        }
    };
    assert!(valid_metric_name(&name), "bad metric name {name:?}");
    Sample {
        name,
        labels,
        value,
    }
}

/// Parse a full exposition, enforcing HELP-before-TYPE-before-samples
/// and that every sample belongs to a declared family.
fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut helped: Vec<String> = Vec::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            assert!(valid_metric_name(name), "HELP for bad name {name:?}");
            assert!(!help.is_empty(), "empty HELP for {name}");
            assert!(
                !helped.contains(&name.to_string()),
                "duplicate HELP for {name}"
            );
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                helped.last().map(String::as_str) == Some(name),
                "TYPE for {name} must directly follow its HELP"
            );
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "bad TYPE {kind:?} for {name}"
            );
            assert!(!typed.contains_key(name), "duplicate TYPE for {name}");
            typed.insert(name.to_string(), kind.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        let sample = parse_sample(line);
        assert!(
            typed.contains_key(&sample.name),
            "sample for undeclared family: {line}"
        );
        samples.push(sample);
    }
    assert_eq!(
        helped.len(),
        typed.len(),
        "every HELP is paired with a TYPE"
    );
    samples
}

// ---------------------------------------------------------------------
// Building the expected sample set from the JSON rendering
// ---------------------------------------------------------------------

fn u(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key}")) as f64
}

/// Flatten the JSON metrics document into the same keyed sample set the
/// Prometheus text is expected to contain.
fn expected_samples(json: &Json) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    let mut put = |name: &str, labels: &[(&str, &str)], value: f64| {
        let mut key = name.to_string();
        for (k, v) in labels {
            key.push_str(&format!("|{k}={v}"));
        }
        assert!(out.insert(key, value).is_none(), "duplicate sample {name}");
    };

    put("lixto_requests_submitted_total", &[], u(json, "submitted"));
    put("lixto_requests_completed_total", &[], u(json, "completed"));
    put("lixto_requests_errored_total", &[], u(json, "errors"));
    put("lixto_requests_rejected_total", &[], u(json, "rejected"));
    let throughput = json
        .get("throughput_per_sec")
        .and_then(Json::as_f64)
        .unwrap();
    // The text format prints it with three decimals.
    put(
        "lixto_throughput_per_second",
        &[],
        format!("{throughput:.3}").parse().unwrap(),
    );
    put("lixto_latency_p50_microseconds", &[], u(json, "p50_us"));
    put("lixto_latency_p99_microseconds", &[], u(json, "p99_us"));
    put("lixto_workers", &[], u(json, "workers"));

    for (shard, depth) in json
        .get("queue_depths")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .enumerate()
    {
        put(
            "lixto_queue_depth",
            &[("shard", &shard.to_string())],
            depth.as_u64().unwrap() as f64,
        );
    }
    for stage in json.get("stages").and_then(Json::as_array).unwrap() {
        let name = stage.get("stage").and_then(Json::as_str).unwrap();
        put(
            "lixto_stage_observations_total",
            &[("stage", name)],
            u(stage, "count"),
        );
        put(
            "lixto_stage_latency_p50_microseconds",
            &[("stage", name)],
            u(stage, "p50_us"),
        );
        put(
            "lixto_stage_latency_p99_microseconds",
            &[("stage", name)],
            u(stage, "p99_us"),
        );
    }
    for entry in json.get("rules").and_then(Json::as_array).unwrap() {
        let wrapper = entry.get("wrapper").and_then(Json::as_str).unwrap();
        for rule in entry.get("rules").and_then(Json::as_array).unwrap() {
            let id = rule.get("rule").and_then(Json::as_u64).unwrap().to_string();
            let pattern = rule.get("label").and_then(Json::as_str).unwrap();
            let labels = [
                ("wrapper", wrapper),
                ("rule", id.as_str()),
                ("pattern", pattern),
            ];
            put(
                "lixto_rule_invocations_total",
                &labels,
                u(rule, "invocations"),
            );
            put("lixto_rule_matches_total", &labels, u(rule, "matches"));
            put("lixto_rule_nanoseconds_total", &labels, u(rule, "total_ns"));
        }
    }

    let cache = json.get("cache").unwrap();
    put("lixto_cache_hits_total", &[], u(cache, "hits"));
    put("lixto_cache_misses_total", &[], u(cache, "misses"));
    put("lixto_cache_evictions_total", &[], u(cache, "evictions"));
    put(
        "lixto_cache_invalidations_total",
        &[],
        u(cache, "invalidations"),
    );
    put("lixto_cache_entries", &[], u(cache, "len"));

    let store = json.get("store").unwrap();
    put("lixto_store_persisted_total", &[], u(store, "persisted"));
    put("lixto_store_recovered_total", &[], u(store, "recovered"));
    put("lixto_store_disk_hits_total", &[], u(store, "disk_hits"));
    put("lixto_store_entries", &[], u(store, "disk_len"));
    put("lixto_store_bytes", &[], u(store, "disk_bytes"));
    put(
        "lixto_store_corrupt_records_total",
        &[],
        u(store, "corrupt_records"),
    );
    put(
        "lixto_store_compactions_total",
        &[],
        u(store, "compactions"),
    );
    put("lixto_store_expired_total", &[], u(store, "expired"));
    put(
        "lixto_store_evictions_total",
        &[],
        u(store, "disk_evictions"),
    );
    put(
        "lixto_store_write_errors_total",
        &[],
        u(store, "write_errors"),
    );

    let gateway = json.get("gateway").unwrap();
    put(
        "lixto_http_connections_total",
        &[],
        u(gateway, "connections"),
    );
    put("lixto_http_requests_total", &[], u(gateway, "requests"));
    put(
        "lixto_http_responses_4xx_total",
        &[],
        u(gateway, "responses_4xx"),
    );
    put(
        "lixto_http_responses_5xx_total",
        &[],
        u(gateway, "responses_5xx"),
    );
    for (i, event_loop) in gateway
        .get("event_loops")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .enumerate()
    {
        let index = i.to_string();
        put(
            "lixto_http_loop_connections",
            &[("loop", &index)],
            u(event_loop, "connections"),
        );
        put(
            "lixto_http_loop_parked",
            &[("loop", &index)],
            u(event_loop, "parked"),
        );
    }
    let wake = gateway.get("wake").unwrap();
    put("lixto_http_wake_observations_total", &[], u(wake, "count"));
    put("lixto_http_wake_p50_microseconds", &[], u(wake, "p50_us"));
    put("lixto_http_wake_p99_microseconds", &[], u(wake, "p99_us"));

    // The watch and alert surfaces are always rendered.
    let watches = json.get("watches").expect("watches surface");
    put("lixto_watch_registered", &[], u(watches, "registered"));
    put("lixto_watch_subscribers", &[], u(watches, "subscribers"));
    put(
        "lixto_watch_webhook_deliveries_total",
        &[],
        u(watches, "webhook_deliveries"),
    );
    put(
        "lixto_watch_webhook_failures_total",
        &[],
        u(watches, "webhook_failures"),
    );
    for watch in watches.get("watches").and_then(Json::as_array).unwrap() {
        let id = watch.get("id").and_then(Json::as_str).unwrap();
        put(
            "lixto_watch_ticks_total",
            &[("watch", id)],
            u(watch, "ticks"),
        );
        put(
            "lixto_watch_events_total",
            &[("watch", id)],
            u(watch, "seq"),
        );
        put(
            "lixto_watch_suppressed_total",
            &[("watch", id)],
            u(watch, "suppressed"),
        );
        put(
            "lixto_watch_errors_total",
            &[("watch", id)],
            u(watch, "errors"),
        );
    }

    let alerts = json.get("alerts").expect("alerts surface");
    let rank = |severity: &str| match severity {
        "ok" => 0.0,
        "degraded" => 1.0,
        "critical" => 2.0,
        other => panic!("unknown severity {other:?}"),
    };
    let verdict = alerts.get("verdict").and_then(Json::as_str).unwrap();
    put("lixto_alert_verdict", &[], rank(verdict));
    for rule in alerts.get("rules").and_then(Json::as_array).unwrap() {
        let name = rule.get("rule").and_then(Json::as_str).unwrap();
        let severity = rule.get("severity").and_then(Json::as_str).unwrap();
        put("lixto_alert_severity", &[("rule", name)], rank(severity));
        put(
            "lixto_alert_fired_total",
            &[("rule", name)],
            u(rule, "fired_total"),
        );
        put(
            "lixto_alert_resolved_total",
            &[("rule", name)],
            u(rule, "resolved_total"),
        );
    }

    out
}

fn sample_key(sample: &Sample) -> String {
    let mut key = sample.name.clone();
    for (k, v) in &sample.labels {
        key.push_str(&format!("|{k}={v}"));
    }
    key
}

/// Three alert rules, one per severity.
fn alerts_fixture() -> AlertsSnapshot {
    let rule = |name: &'static str, severity: Severity, fired: u64, resolved: u64| RuleSnapshot {
        rule: name,
        metric: name,
        severity,
        value: 0.5,
        degraded: 0.75,
        critical: 2.0,
        clear: 0.3,
        since_ms: 1_234,
        fired_total: fired,
        resolved_total: resolved,
    };
    AlertsSnapshot {
        verdict: Severity::Critical,
        rules: vec![
            rule("error_rate", Severity::Critical, 3, 2),
            rule("queue_saturation", Severity::Degraded, 1, 0),
            rule("wake_latency", Severity::Ok, 0, 0),
        ],
    }
}

/// Two watches, one with an id hostile to the text format.
fn watches_fixture() -> WatchSample {
    WatchSample {
        subscribers: 1,
        webhook_deliveries: 7,
        webhook_failures: 2,
        watches: vec![
            WatchStatus {
                id: "offers-hourly".into(),
                wrapper: "shop".into(),
                url: "http://shop/".into(),
                interval_ms: 1_000,
                webhook: None,
                ticks: 12,
                seq: 3,
                suppressed: 8,
                errors: 1,
            },
            WatchStatus {
                id: "we\"ird\\watch".into(),
                wrapper: "shop".into(),
                url: "http://shop/b".into(),
                interval_ms: 250,
                webhook: Some("http://sink:1/hook".into()),
                ticks: 4,
                seq: 4,
                suppressed: 0,
                errors: 0,
            },
        ],
    }
}

// ---------------------------------------------------------------------
// The round trip
// ---------------------------------------------------------------------

#[test]
fn prometheus_text_round_trips_against_the_json_snapshot() {
    // A live pool with some traffic, so stage histograms and pool
    // counters are non-trivial.
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
        .unwrap();
    let server = ExtractionServer::start(
        ServerConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 32,
            cache_capacity: 16,
            store: None,
        },
        registry,
        Arc::new(lixto::elog::StaticWeb::new()),
    );
    for i in 0..4 {
        let response = server
            .execute(ExtractionRequest {
                trace: None,
                wrapper: "shop".into(),
                version: None,
                source: RequestSource::Inline {
                    url: "http://shop/".into(),
                    html: format!("<ul><li>item {}</li></ul>", i / 2),
                },
            })
            .unwrap();
        assert_eq!(response.wrapper, "shop");
    }
    let snapshot = server.metrics();
    assert!(snapshot.completed >= 4);

    // Gateway-side observations are hand-built: label values are chosen
    // to be actively hostile to the text format (backslashes, quotes,
    // newlines) — the registry's HTTP deploy path would refuse such
    // names, but the renderer must survive anything the API can hold.
    let stats = lixto::http::GatewayStats {
        connections: 3,
        requests: 17,
        responses_4xx: 2,
        responses_5xx: 1,
    };
    let observations = GatewayObservations {
        event_loops: vec![
            LoopGauges {
                connections: 2,
                parked: 1,
            },
            LoopGauges {
                connections: 0,
                parked: 0,
            },
        ],
        wake_count: 9,
        wake_p50_us: 40,
        wake_p99_us: 900,
        rules: vec![
            (
                "shop".to_string(),
                vec![RuleStat {
                    rule: 0,
                    label: "offer".to_string(),
                    invocations: 8,
                    matches: 4,
                    total_ns: 123_456,
                }],
            ),
            (
                "we\"ird\\name\nwrapped".to_string(),
                vec![RuleStat {
                    rule: 1,
                    label: "pat\"tern\\with\nnoise".to_string(),
                    invocations: 1,
                    matches: 0,
                    total_ns: 7,
                }],
            ),
        ],
    };

    let inputs = MetricInputs {
        snapshot,
        stats,
        observations,
        ..MetricInputs::default()
    };
    let json = inputs.json();
    let text = inputs.prometheus();

    // The text parses under the exposition grammar (this alone checks
    // HELP/TYPE ordering, name validity and label escaping).
    let samples = parse_exposition(&text);

    // Every text sample matches the JSON value, and nothing is missing
    // in either direction.
    let mut expected = expected_samples(&json);
    for sample in &samples {
        let key = sample_key(sample);
        let want = expected
            .remove(&key)
            .unwrap_or_else(|| panic!("text sample {key} absent from the JSON rendering"));
        assert!(
            (sample.value - want).abs() < 1e-9,
            "{key}: text says {} but JSON says {want}",
            sample.value
        );
    }
    assert!(
        expected.is_empty(),
        "JSON values missing from the text rendering: {:?}",
        expected.keys().collect::<Vec<_>>()
    );

    // The hostile labels survived the round trip intact (parser
    // unescaped what the renderer escaped).
    assert!(samples.iter().any(|s| {
        s.name == "lixto_rule_invocations_total"
            && s.labels
                .iter()
                .any(|(k, v)| k == "wrapper" && v == "we\"ird\\name\nwrapped")
    }));

    server.initiate_shutdown();
}

#[test]
fn alert_and_watch_series_round_trip() {
    // The alert families obey the exposition grammar and agree with the
    // JSON rendering, sample for sample. The per-watch families
    // round-trip too, hostile watch ids escaped on the way out and
    // unescaped by the parser.
    let inputs = MetricInputs {
        alerts: alerts_fixture(),
        watches: watches_fixture(),
        ..MetricInputs::default()
    };
    let json = inputs.json();
    let text = inputs.prometheus();
    let samples = parse_exposition(&text);
    let mut expected = expected_samples(&json);
    for sample in &samples {
        let key = sample_key(sample);
        let want = expected
            .remove(&key)
            .unwrap_or_else(|| panic!("text sample {key} absent from the JSON rendering"));
        assert!(
            (sample.value - want).abs() < 1e-9,
            "{key}: text says {} but JSON says {want}",
            sample.value
        );
    }
    assert!(
        expected.is_empty(),
        "JSON values missing from the text rendering: {:?}",
        expected.keys().collect::<Vec<_>>()
    );
    assert!(text.contains("lixto_alert_verdict 2"));
    assert!(text.contains("lixto_watch_registered 2"));
    assert!(samples.iter().any(|s| {
        s.name == "lixto_watch_ticks_total"
            && s.labels
                .iter()
                .any(|(k, v)| k == "watch" && v == "we\"ird\\watch")
    }));
}

#[test]
fn escaping_is_reversible_for_every_special_character() {
    // One rule per special character, plus combinations.
    let hostile = [
        "back\\slash",
        "quo\"te",
        "new\nline",
        "\\\"\n",
        "\\n is two chars",
        "trailing backslash \\",
    ];
    let rules: Vec<(String, Vec<RuleStat>)> = hostile
        .iter()
        .enumerate()
        .map(|(i, name)| {
            (
                (*name).to_string(),
                vec![RuleStat {
                    rule: i,
                    label: format!("label {name}"),
                    invocations: i as u64 + 1,
                    matches: 0,
                    total_ns: 0,
                }],
            )
        })
        .collect();
    let observations = GatewayObservations {
        rules,
        ..GatewayObservations::default()
    };
    let text = MetricInputs {
        observations,
        ..MetricInputs::default()
    }
    .prometheus();
    let samples = parse_exposition(&text);
    for name in hostile {
        assert!(
            samples
                .iter()
                .any(|s| s.name == "lixto_rule_invocations_total"
                    && s.labels.iter().any(|(k, v)| k == "wrapper" && v == name)),
            "wrapper name {name:?} did not survive the escape round trip"
        );
    }
}

// ---------------------------------------------------------------------
// The documented families
// ---------------------------------------------------------------------

/// One row of the *Metrics* table in `docs/OBSERVABILITY.md`.
#[derive(Debug, PartialEq)]
struct DocumentedFamily {
    kind: String,
    labels: Vec<String>,
    json_key: String,
}

/// The doc's family table, keyed by family name: rows of the form
/// ``| `name` | type | `label`, ... (or —) | `json.key` |``.
fn documented_families() -> HashMap<String, DocumentedFamily> {
    const DOC: &str = include_str!("../docs/OBSERVABILITY.md");
    let unquote = |cell: &str| cell.trim().trim_matches('`').to_string();
    let mut out = HashMap::new();
    for line in DOC.lines().filter(|l| l.starts_with("| `lixto_")) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        assert_eq!(cells.len(), 4, "family row needs four cells: {line}");
        let labels = match cells[2].trim() {
            "—" => Vec::new(),
            list => list.split(',').map(unquote).collect(),
        };
        let family = DocumentedFamily {
            kind: cells[1].trim().to_string(),
            labels,
            json_key: unquote(cells[3]),
        };
        let name = unquote(cells[0]);
        assert!(
            out.insert(name.clone(), family).is_none(),
            "{name} documented twice"
        );
    }
    out
}

/// Every value a documented JSON key names: `a.b` steps into an object,
/// `a[]` into each element of an array.
fn json_values<'a>(json: &'a Json, key: &str) -> Vec<&'a Json> {
    let mut at = vec![json];
    for step in key.split('.') {
        let (name, each) = match step.strip_suffix("[]") {
            Some(name) => (name, true),
            None => (step, false),
        };
        at = at.into_iter().filter_map(|j| j.get(name)).collect();
        if each {
            at = at
                .into_iter()
                .flat_map(|j| j.as_array().unwrap_or(&[]))
                .collect();
        }
    }
    at
}

#[test]
fn observability_doc_lists_exactly_the_emitted_families() {
    // Every surface on, and every labelled table non-empty, so each
    // family shows its labels.
    let inputs = MetricInputs {
        snapshot: lixto::server::MetricsSnapshot {
            stages: vec![lixto::server::StageSummary {
                stage: "exec",
                count: 2,
                p50_us: 8,
                p99_us: 64,
            }],
            queue_depths: vec![1, 0],
            ..Default::default()
        },
        stats: lixto::http::GatewayStats::default(),
        observations: GatewayObservations {
            event_loops: vec![LoopGauges {
                connections: 1,
                parked: 0,
            }],
            rules: vec![(
                "shop".to_string(),
                vec![RuleStat {
                    rule: 0,
                    label: "offer".to_string(),
                    invocations: 1,
                    matches: 1,
                    total_ns: 10,
                }],
            )],
            ..GatewayObservations::default()
        },
        alerts: alerts_fixture(),
        watches: watches_fixture(),
    };
    let text = inputs.prometheus();
    let json = inputs.json();
    parse_exposition(&text);

    // What the text emits: each family's type, label names and samples.
    let mut emitted: HashMap<String, (String, Option<Vec<String>>, usize)> = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap();
            emitted.insert(name.to_string(), (kind.to_string(), None, 0));
        } else if !line.starts_with('#') {
            let sample = parse_sample(line);
            let labels: Vec<String> = sample.labels.into_iter().map(|(k, _)| k).collect();
            let (_, family_labels, count) = emitted.get_mut(&sample.name).unwrap();
            let first = family_labels.get_or_insert_with(|| labels.clone());
            assert_eq!(*first, labels, "{} mixes label sets", sample.name);
            *count += 1;
        }
    }

    let documented = documented_families();
    let undocumented: Vec<&String> = emitted
        .keys()
        .filter(|name| !documented.contains_key(*name))
        .collect();
    assert!(
        undocumented.is_empty(),
        "emitted but missing from docs/OBSERVABILITY.md: {undocumented:?}"
    );
    let unemitted: Vec<&String> = documented
        .keys()
        .filter(|name| !emitted.contains_key(*name))
        .collect();
    assert!(
        unemitted.is_empty(),
        "documented in docs/OBSERVABILITY.md but never emitted: {unemitted:?}"
    );
    for (name, (kind, labels, samples)) in &emitted {
        let doc = &documented[name];
        assert_eq!(&doc.kind, kind, "{name}: documented type");
        assert_eq!(
            &doc.labels,
            labels.as_ref().unwrap(),
            "{name}: documented labels"
        );
        let values = json_values(&json, &doc.json_key);
        assert_eq!(
            values.len(),
            *samples,
            "{name}: JSON key {} names one value per sample",
            doc.json_key
        );
        assert!(
            values
                .iter()
                .all(|v| v.as_f64().is_some() || v.as_str().is_some()),
            "{name}: JSON key {} holds scalars",
            doc.json_key
        );
    }
}
