//! The `GET /metrics` schema: every metric the gateway exposes, listed
//! once, and the two walkers that render it — as a JSON document and in
//! the Prometheus text exposition format.
//!
//! An [`Entry`] names a value's JSON key, what the text format makes of
//! it (a sample in a family, a label on the row's samples, or nothing)
//! and the one accessor that reads it. Labelled families live in a
//! [`Table`]: a row is one JSON array element and one labelled sample in
//! each of the table's families. A table of [`Rows::One`] has exactly
//! one row and renders as a JSON object; that is how the groups
//! (`cache`, `store`, `gateway`, `alerts`, `watches`) are written.
//!
//! The text format groups samples by family (`# HELP`, `# TYPE`, then
//! every sample of the family), so an array table prints family by
//! family, and row by row within a family, while JSON prints row by row.

use std::fmt::Write;

use lixto_obs::{RuleSnapshot, RuleStat, Severity};
use lixto_server::{CacheStats, MetricsSnapshot, StageSummary, StoreStats, WatchStatus};

use crate::gateway::{GatewayObservations, GatewayStats, LoopGauges};
use crate::json::Json;
use crate::monitor::AlertsSnapshot;

/// Everything one `GET /metrics` answer shows, gathered at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricInputs {
    /// The extraction pool's counters.
    pub snapshot: MetricsSnapshot,
    /// The gateway's connection, request and response counters.
    pub stats: GatewayStats,
    /// Event-loop gauges, wake latency and per-rule telemetry.
    pub observations: GatewayObservations,
    /// The SLO watchdog's state (`alerts`, `lixto_alert_*`).
    pub alerts: AlertsSnapshot,
    /// The subscription layer's counters (`watches`, `lixto_watch_*`).
    pub watches: WatchSample,
}

/// The `watches` group: the registry's watches next to the gateway's
/// own stream-subscriber and webhook counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WatchSample {
    /// Connections subscribed to watch event streams.
    pub subscribers: usize,
    /// Webhook POSTs delivered successfully.
    pub webhook_deliveries: u64,
    /// Webhook POSTs that exhausted their retries.
    pub webhook_failures: u64,
    /// Per-watch counters, one per registered watch.
    pub watches: Vec<WatchStatus>,
}

impl MetricInputs {
    /// The JSON document served for `Accept: application/json`.
    pub fn json(&self) -> Json {
        row_json(ROOT, self)
    }

    /// The Prometheus text exposition.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        object_text(ROOT, self, &mut out);
        out
    }
}

/// One watch's spec and counters as JSON: its row of the `watches`
/// table, also served by `GET /watches` and `GET /watches/{id}`.
pub(crate) fn watch_status_json(status: &WatchStatus) -> Json {
    row_json(WATCH, status)
}

/// A Prometheus family: name, type and help text.
struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
}

/// How an entry reads its value, and so how each format prints it.
enum Read<T> {
    /// An integer, printed alike by both formats.
    Int(fn(&T) -> u64),
    /// A float: JSON prints it in full, the text with three decimals.
    Float(fn(&T) -> f64),
    /// A severity: its name in JSON, its rank in the text.
    Severity(fn(&T) -> Severity),
    /// A string.
    Str(fn(&T) -> &str),
    /// A string, or JSON `null`.
    OptStr(fn(&T) -> Option<&str>),
}

impl<T> Read<T> {
    fn json(&self, row: &T) -> Json {
        match self {
            Read::Int(read) => read(row).into(),
            Read::Float(read) => read(row).into(),
            Read::Severity(read) => read(row).name().into(),
            Read::Str(read) => read(row).into(),
            Read::OptStr(read) => read(row).map_or(Json::Null, Json::from),
        }
    }

    fn text(&self, row: &T, out: &mut String) {
        let _ = match self {
            Read::Int(read) => write!(out, "{}", read(row)),
            Read::Float(read) => write!(out, "{:.3}", read(row)),
            Read::Severity(read) => write!(out, "{}", read(row).rank()),
            Read::Str(read) => write!(out, "{}", read(row)),
            Read::OptStr(read) => write!(out, "{}", read(row).unwrap_or_default()),
        };
    }
}

/// What the text format makes of an entry.
enum Show {
    /// Nothing: the value is JSON-only.
    Json,
    /// A label, with this name, on every sample of the row.
    Label(&'static str),
    /// A sample in this family.
    Sample(Family),
}

/// One schema entry over a row of type `T`.
enum Entry<T: 'static> {
    /// A value under its JSON key. The empty key stands for the whole
    /// row, which JSON then prints as a bare array element.
    Value {
        key: &'static str,
        read: Read<T>,
        show: Show,
    },
    /// A table whose rows hang off this row.
    Nested(&'static dyn Nest<T>),
}

const fn sample<T>(
    key: &'static str,
    kind: &'static str,
    name: &'static str,
    read: Read<T>,
    help: &'static str,
) -> Entry<T> {
    let show = Show::Sample(Family { name, kind, help });
    Entry::Value { key, read, show }
}

const fn counter<T>(
    key: &'static str,
    name: &'static str,
    read: fn(&T) -> u64,
    help: &'static str,
) -> Entry<T> {
    sample(key, "counter", name, Read::Int(read), help)
}

const fn gauge<T>(
    key: &'static str,
    name: &'static str,
    read: fn(&T) -> u64,
    help: &'static str,
) -> Entry<T> {
    sample(key, "gauge", name, Read::Int(read), help)
}

const fn label<T>(key: &'static str, label: &'static str, read: Read<T>) -> Entry<T> {
    let show = Show::Label(label);
    Entry::Value { key, read, show }
}

const fn json_only<T>(key: &'static str, read: Read<T>) -> Entry<T> {
    let show = Show::Json;
    Entry::Value { key, read, show }
}

/// A [`Table`] entry: `table!(key, rows, entries)`.
macro_rules! table {
    ($key:expr, $rows:expr, $entries:expr) => {
        Entry::Nested(&Table {
            key: $key,
            rows: $rows,
            entries: $entries,
        })
    };
}

/// How a table reads its rows `R` from its parent row `T`, and so how
/// it prints.
enum Rows<T, R> {
    /// One row, printed as a JSON object. Its samples carry no labels
    /// of their own.
    One(fn(&T) -> &R),
    /// A JSON array, one element per row, and the name of the label
    /// that carries the row's position, if any.
    Many(fn(&T) -> &[R], Option<&'static str>),
}

/// A table of rows `R` read from a parent row `T`.
struct Table<T: 'static, R: 'static> {
    key: &'static str,
    rows: Rows<T, R>,
    entries: &'static [Entry<R>],
}

/// A [`Table`] as its parent's entries see it, with the row type erased.
trait Nest<T> {
    /// The table's JSON key.
    fn key(&self) -> &'static str;
    /// The table under `parent` as JSON.
    fn json(&self, parent: &T) -> Json;
    /// Write every family of the table under `parent`, `# HELP` and
    /// `# TYPE` first.
    fn text(&self, parent: &T, out: &mut String);
    /// The table's families, nested tables included, in schema order.
    fn families(&self, out: &mut Vec<&'static Family>);
    /// Write the table's samples of `family` under `parent`, each row's
    /// labels appended to `labels`.
    fn samples(&self, parent: &T, family: &Family, labels: &str, out: &mut String);
}

impl<T, R> Nest<T> for Table<T, R> {
    fn key(&self) -> &'static str {
        self.key
    }

    fn json(&self, parent: &T) -> Json {
        match self.rows {
            Rows::One(row) => row_json(self.entries, row(parent)),
            Rows::Many(rows, _) => Json::Arr(
                rows(parent)
                    .iter()
                    .map(|row| row_json(self.entries, row))
                    .collect(),
            ),
        }
    }

    fn text(&self, parent: &T, out: &mut String) {
        match self.rows {
            Rows::One(row) => object_text(self.entries, row(parent), out),
            Rows::Many(..) => {
                let mut families = Vec::new();
                self.families(&mut families);
                for family in families {
                    header(family, out);
                    self.samples(parent, family, "", out);
                }
            }
        }
    }

    fn families(&self, out: &mut Vec<&'static Family>) {
        for entry in self.entries {
            match entry {
                Entry::Value {
                    show: Show::Sample(family),
                    ..
                } => out.push(family),
                Entry::Value { .. } => {}
                Entry::Nested(table) => table.families(out),
            }
        }
    }

    fn samples(&self, parent: &T, family: &Family, labels: &str, out: &mut String) {
        let mut row_labels = String::new();
        let mut value = String::new();
        let (rows, index) = match self.rows {
            Rows::One(row) => (std::slice::from_ref(row(parent)), None),
            Rows::Many(rows, index) => (rows(parent), index),
        };
        for (i, row) in rows.iter().enumerate() {
            row_labels.clear();
            row_labels.push_str(labels);
            if let Some(name) = index {
                push_label(&mut row_labels, name, &i.to_string());
            }
            for entry in self.entries {
                if let Entry::Value {
                    read,
                    show: Show::Label(name),
                    ..
                } = entry
                {
                    value.clear();
                    read.text(row, &mut value);
                    push_label(&mut row_labels, name, &value);
                }
            }
            for entry in self.entries {
                match entry {
                    Entry::Value {
                        read,
                        show: Show::Sample(f),
                        ..
                    } if f.name == family.name => {
                        out.push_str(f.name);
                        if !row_labels.is_empty() {
                            out.push('{');
                            out.push_str(&row_labels);
                            out.push('}');
                        }
                        out.push(' ');
                        read.text(row, out);
                        out.push('\n');
                    }
                    Entry::Value { .. } => {}
                    Entry::Nested(table) => table.samples(row, family, &row_labels, out),
                }
            }
        }
    }
}

/// One row as JSON: an object of its entries, or the bare value of its
/// only, keyless entry.
fn row_json<T>(entries: &[Entry<T>], row: &T) -> Json {
    if let [Entry::Value { key: "", read, .. }] = entries {
        return read.json(row);
    }
    Json::Obj(
        entries
            .iter()
            .map(|entry| match entry {
                Entry::Value { key, read, .. } => (key.to_string(), read.json(row)),
                Entry::Nested(table) => (table.key().to_string(), table.json(row)),
            })
            .collect(),
    )
}

/// The text of one unlabelled row: each family in entry order.
fn object_text<T>(entries: &[Entry<T>], row: &T, out: &mut String) {
    for entry in entries {
        match entry {
            Entry::Value {
                read,
                show: Show::Sample(family),
                ..
            } => {
                header(family, out);
                out.push_str(family.name);
                out.push(' ');
                read.text(row, out);
                out.push('\n');
            }
            Entry::Value { .. } => {}
            Entry::Nested(table) => table.text(row, out),
        }
    }
}

fn header(family: &Family, out: &mut String) {
    let Family { name, kind, help } = family;
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// Append `name="value"` to a label list, the value escaped per the
/// text exposition format: backslash, double quote and newline.
fn push_label(labels: &mut String, name: &str, value: &str) {
    if !labels.is_empty() {
        labels.push(',');
    }
    labels.push_str(name);
    labels.push_str("=\"");
    for c in value.chars() {
        match c {
            '\\' => labels.push_str("\\\\"),
            '"' => labels.push_str("\\\""),
            '\n' => labels.push_str("\\n"),
            c => labels.push(c),
        }
    }
    labels.push('"');
}

// ---------------------------------------------------------------------
// The schema: one line per metric — JSON key, family, accessor, help.
// ---------------------------------------------------------------------

#[rustfmt::skip]
const ROOT: &[Entry<MetricInputs>] = &[
    counter("submitted", "lixto_requests_submitted_total", |m| m.snapshot.submitted, "Requests accepted: queued, or answered from the hot tier"),
    counter("completed", "lixto_requests_completed_total", |m| m.snapshot.completed, "Requests completed successfully"),
    counter("errors", "lixto_requests_errored_total", |m| m.snapshot.errors, "Requests completed with an error"),
    counter("rejected", "lixto_requests_rejected_total", |m| m.snapshot.rejected, "Requests rejected by backpressure"),
    sample("throughput_per_sec", "gauge", "lixto_throughput_per_second", Read::Float(|m| m.snapshot.throughput_per_sec), "Completions per second since start"),
    gauge("p50_us", "lixto_latency_p50_microseconds", |m| m.snapshot.p50_us, "Median end-to-end latency"),
    gauge("p99_us", "lixto_latency_p99_microseconds", |m| m.snapshot.p99_us, "99th-percentile end-to-end latency"),
    table!("stages", Rows::Many(|m: &MetricInputs| &m.snapshot.stages, None), STAGE),
    table!("queue_depths", Rows::Many(|m: &MetricInputs| &m.snapshot.queue_depths, Some("shard")), QUEUE_DEPTH),
    gauge("workers", "lixto_workers", |m| m.snapshot.workers as u64, "Worker thread count"),
    table!("rules", Rows::Many(|m: &MetricInputs| &m.observations.rules, None), WRAPPER_RULES),
    table!("cache", Rows::One(|m: &MetricInputs| &m.snapshot.cache), CACHE),
    table!("store", Rows::One(|m: &MetricInputs| &m.snapshot.store), STORE),
    table!("gateway", Rows::One(|m: &MetricInputs| m), GATEWAY),
    table!("alerts", Rows::One(|m: &MetricInputs| &m.alerts), ALERTS),
    table!("watches", Rows::One(|m: &MetricInputs| &m.watches), WATCHES),
];

#[rustfmt::skip]
const STAGE: &[Entry<StageSummary>] = &[
    label("stage", "stage", Read::Str(|s| s.stage)),
    counter("count", "lixto_stage_observations_total", |s| s.count, "Requests that executed each pipeline stage"),
    gauge("p50_us", "lixto_stage_latency_p50_microseconds", |s| s.p50_us, "Median per-stage latency"),
    gauge("p99_us", "lixto_stage_latency_p99_microseconds", |s| s.p99_us, "99th-percentile per-stage latency"),
];

#[rustfmt::skip]
const QUEUE_DEPTH: &[Entry<usize>] = &[
    gauge("", "lixto_queue_depth", |depth| *depth as u64, "Jobs currently queued per shard"),
];

/// One wrapper's per-rule counters, as [`GatewayObservations::rules`]
/// holds them.
type WrapperRules = (String, Vec<RuleStat>);

#[rustfmt::skip]
const WRAPPER_RULES: &[Entry<WrapperRules>] = &[
    label("wrapper", "wrapper", Read::Str(|(wrapper, _)| wrapper)),
    table!("rules", Rows::Many(|(_, rules): &WrapperRules| rules, None), RULE),
];

#[rustfmt::skip]
const RULE: &[Entry<RuleStat>] = &[
    label("rule", "rule", Read::Int(|r| r.rule as u64)),
    label("label", "pattern", Read::Str(|r| &r.label)),
    counter("invocations", "lixto_rule_invocations_total", |r| r.invocations, "Rule body evaluations per compiled wrapper rule"),
    counter("matches", "lixto_rule_matches_total", |r| r.matches, "New pattern instances produced per rule"),
    counter("total_ns", "lixto_rule_nanoseconds_total", |r| r.total_ns, "Cumulative rule evaluation wall time"),
];

#[rustfmt::skip]
const CACHE: &[Entry<CacheStats>] = &[
    counter("hits", "lixto_cache_hits_total", |c| c.hits, "Cache lookups answered from the cache"),
    counter("misses", "lixto_cache_misses_total", |c| c.misses, "Cache lookups that required a fresh extraction"),
    counter("evictions", "lixto_cache_evictions_total", |c| c.evictions, "Cache entries evicted by the LRU policy"),
    counter("invalidations", "lixto_cache_invalidations_total", |c| c.invalidations, "Cache entries dropped by change detection or crawl revalidation"),
    gauge("len", "lixto_cache_entries", |c| c.len as u64, "Cache entries currently held"),
    json_only("capacity", Read::Int(|c| c.capacity as u64)),
    json_only("hit_rate", Read::Float(CacheStats::hit_rate)),
];

#[rustfmt::skip]
const STORE: &[Entry<StoreStats>] = &[
    counter("persisted", "lixto_store_persisted_total", |s| s.persisted, "Results appended to the durable store's write-ahead log"),
    counter("recovered", "lixto_store_recovered_total", |s| s.recovered, "Results recovered from disk at the last store open"),
    counter("disk_hits", "lixto_store_disk_hits_total", |s| s.disk_hits, "Lookups served from the disk tier (hot-tier misses)"),
    gauge("disk_len", "lixto_store_entries", |s| s.disk_len as u64, "Entries currently live in the disk tier"),
    gauge("disk_bytes", "lixto_store_bytes", |s| s.disk_bytes, "Encoded bytes of live entries in the disk tier"),
    counter("corrupt_records", "lixto_store_corrupt_records_total", |s| s.corrupt_records, "Undecodable records skipped during recovery"),
    counter("compactions", "lixto_store_compactions_total", |s| s.compactions, "Snapshot rewrites (TTL sweep + budget eviction + WAL truncation)"),
    counter("expired", "lixto_store_expired_total", |s| s.expired, "Entries dropped because their TTL elapsed"),
    counter("disk_evictions", "lixto_store_evictions_total", |s| s.disk_evictions, "Entries evicted from disk to meet the size budget"),
    counter("write_errors", "lixto_store_write_errors_total", |s| s.write_errors, "Failed WAL appends (result still served from memory)"),
];

#[rustfmt::skip]
const GATEWAY: &[Entry<MetricInputs>] = &[
    counter("connections", "lixto_http_connections_total", |m| m.stats.connections, "Connections accepted and assigned to an event loop (refusals count as 5xx responses)"),
    counter("requests", "lixto_http_requests_total", |m| m.stats.requests, "HTTP requests answered by the gateway"),
    counter("responses_4xx", "lixto_http_responses_4xx_total", |m| m.stats.responses_4xx, "HTTP responses with a 4xx status"),
    counter("responses_5xx", "lixto_http_responses_5xx_total", |m| m.stats.responses_5xx, "HTTP responses with a 5xx status"),
    table!("event_loops", Rows::Many(|m: &MetricInputs| &m.observations.event_loops, Some("loop")), EVENT_LOOP),
    table!("wake", Rows::One(|m: &MetricInputs| &m.observations), WAKE),
];

#[rustfmt::skip]
const EVENT_LOOP: &[Entry<LoopGauges>] = &[
    gauge("connections", "lixto_http_loop_connections", |l| l.connections as u64, "Connections currently assigned to each event loop"),
    gauge("parked", "lixto_http_loop_parked", |l| l.parked as u64, "Connections parked on a queued extraction per event loop"),
];

#[rustfmt::skip]
const WAKE: &[Entry<GatewayObservations>] = &[
    counter("count", "lixto_http_wake_observations_total", |o| o.wake_count, "Queued extraction outcomes whose wake latency was measured"),
    gauge("p50_us", "lixto_http_wake_p50_microseconds", |o| o.wake_p50_us, "Median latency from the worker's callback to the event loop's dispatch"),
    gauge("p99_us", "lixto_http_wake_p99_microseconds", |o| o.wake_p99_us, "99th-percentile latency from the worker's callback to the event loop's dispatch"),
];

#[rustfmt::skip]
const ALERTS: &[Entry<AlertsSnapshot>] = &[
    sample("verdict", "gauge", "lixto_alert_verdict", Read::Severity(|a| a.verdict), "Worst current alert severity (0 ok, 1 degraded, 2 critical)"),
    table!("rules", Rows::Many(|a: &AlertsSnapshot| &a.rules, None), ALERT_RULE),
];

#[rustfmt::skip]
const ALERT_RULE: &[Entry<RuleSnapshot>] = &[
    label("rule", "rule", Read::Str(|r| r.rule)),
    json_only("metric", Read::Str(|r| r.metric)),
    sample("severity", "gauge", "lixto_alert_severity", Read::Severity(|r| r.severity), "Current severity per SLO rule (0 ok, 1 degraded, 2 critical)"),
    json_only("value", Read::Float(|r| r.value)),
    json_only("since_ms", Read::Int(|r| r.since_ms)),
    counter("fired_total", "lixto_alert_fired_total", |r| r.fired_total, "Times each SLO rule started firing or escalated"),
    counter("resolved_total", "lixto_alert_resolved_total", |r| r.resolved_total, "Times each SLO rule cleared back to ok"),
];

#[rustfmt::skip]
const WATCHES: &[Entry<WatchSample>] = &[
    gauge("registered", "lixto_watch_registered", |w| w.watches.len() as u64, "Registered continuous-extraction watches"),
    gauge("subscribers", "lixto_watch_subscribers", |w| w.subscribers as u64, "Long-poll subscribers parked on watch event streams"),
    counter("webhook_deliveries", "lixto_watch_webhook_deliveries_total", |w| w.webhook_deliveries, "Watch diff events delivered to webhooks"),
    counter("webhook_failures", "lixto_watch_webhook_failures_total", |w| w.webhook_failures, "Watch webhook deliveries that exhausted their retries"),
    table!("watches", Rows::Many(|w: &WatchSample| &w.watches, None), WATCH),
];

#[rustfmt::skip]
const WATCH: &[Entry<WatchStatus>] = &[
    label("id", "watch", Read::Str(|w| &w.id)),
    json_only("wrapper", Read::Str(|w| &w.wrapper)),
    json_only("url", Read::Str(|w| &w.url)),
    json_only("interval_ms", Read::Int(|w| w.interval_ms)),
    json_only("webhook", Read::OptStr(|w| w.webhook.as_deref())),
    counter("ticks", "lixto_watch_ticks_total", |w| w.ticks, "Completed re-extractions per watch"),
    counter("seq", "lixto_watch_events_total", |w| w.seq, "Instance-level diff events delivered per watch"),
    counter("suppressed", "lixto_watch_suppressed_total", |w| w.suppressed, "Unchanged ticks suppressed per watch"),
    counter("errors", "lixto_watch_errors_total", |w| w.errors, "Failed ticks per watch"),
];
