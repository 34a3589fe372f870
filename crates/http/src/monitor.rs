//! Continuous monitoring: the gateway's sampler, metrics history, SLO
//! watchdog and live ops stream glue.
//!
//! `HttpGateway::bind` spawns one `lixto-http-monitor` thread that calls
//! [`Monitor::tick`] every
//! [`monitor_interval`](crate::GatewayConfig::monitor_interval):
//!
//! 1. a [`TickSample`] — pool counters from
//!    [`ExtractionServer::sample`](lixto_server::ExtractionServer::sample)
//!    plus the gateway's own connection/request/wake gauges — is recorded
//!    into a bounded [`TimeSeries`] (served by `GET /metrics/history`);
//! 2. derived SLO metrics (error rate, queue saturation, cache hit rate,
//!    latency and wake quantiles, store write failures) are computed
//!    over the trailing evaluation window and fed to the [`Watchdog`],
//!    whose transitions become `alert_fired` / `alert_resolved` log
//!    events (served by `GET /debug/health` and the `lixto_alert_*`
//!    metric series);
//! 3. a tick event — and one event per alert transition — is broadcast
//!    to every `GET /debug/live` subscriber through the event loops.
//!
//! Everything here is plain derivation over [`lixto_obs`] primitives.
//! The monitor keeps no stream state: the gateway's `stream` module
//! counts the live stream's subscribers and broadcasts the tick events
//! to them, and the rest of the socket plumbing (chunked streaming,
//! subscriber lifecycle) lives in [`gateway`](crate::gateway) too.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use lixto_obs::{
    info_event, unix_millis, warn_event, AlertRule, AlertTransition, Direction, FieldKind,
    FieldSpec, FieldStats, RuleSnapshot, Severity, TimeSeries, Watchdog, WindowStats,
};
use lixto_server::{bucket_quantile_us, PoolSample, LATENCY_BUCKETS};

use crate::json::{obj, Json};

/// Minimum extraction attempts in the evaluation window before the
/// error-rate rule gets a value (an idle window has no error rate).
const MIN_ATTEMPTS_FOR_ERROR_RATE: u64 = 1;
/// Minimum cache lookups in the window before the hit-rate rule gets a
/// value (a handful of misses is not a collapse).
const MIN_LOOKUPS_FOR_HIT_RATE: u64 = 10;

/// One sampler tick's raw inputs, gathered by the gateway.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TickSample {
    /// Pool counters and gauges.
    pub pool: PoolSample,
    /// Gateway requests answered (any status).
    pub requests: u64,
    /// Gateway 4xx responses.
    pub responses_4xx: u64,
    /// Gateway 5xx responses.
    pub responses_5xx: u64,
    /// Connections currently assigned across event loops.
    pub connections: u64,
    /// Connections parked on queued extractions.
    pub parked: u64,
    /// Wake-latency observations recorded so far.
    pub wake_count: u64,
    /// 99th-percentile wake latency in µs.
    pub wake_p99_us: u64,
    /// Raw wake-latency histogram bucket counters (cumulative); the
    /// watchdog diffs consecutive ticks' buckets for windowed wake
    /// quantiles (see [`Monitor::windowed_latency`]).
    pub wake_buckets: [u64; LATENCY_BUCKETS],
}

type ReadTick = fn(&TickSample) -> u64;

/// The sampled series, in column order: each field's name, kind and
/// how a tick reads it.
#[rustfmt::skip]
const FIELDS: &[(&str, FieldKind, ReadTick)] = &[
    ("http_requests", FieldKind::Counter, |s| s.requests),
    ("http_responses_4xx", FieldKind::Counter, |s| s.responses_4xx),
    ("http_responses_5xx", FieldKind::Counter, |s| s.responses_5xx),
    ("pool_submitted", FieldKind::Counter, |s| s.pool.submitted),
    ("pool_completed", FieldKind::Counter, |s| s.pool.completed),
    ("pool_errors", FieldKind::Counter, |s| s.pool.errors),
    ("pool_rejected", FieldKind::Counter, |s| s.pool.rejected),
    ("cache_hits", FieldKind::Counter, |s| s.pool.cache_hits),
    ("cache_misses", FieldKind::Counter, |s| s.pool.cache_misses),
    ("store_write_errors", FieldKind::Counter, |s| s.pool.store_write_errors),
    ("wake_observations", FieldKind::Counter, |s| s.wake_count),
    ("connections", FieldKind::Gauge, |s| s.connections),
    ("parked", FieldKind::Gauge, |s| s.parked),
    ("queue_depth", FieldKind::Gauge, |s| s.pool.queue_depth),
    ("latency_p99_us", FieldKind::Gauge, |s| s.pool.latency_p99_us),
    ("exec_p99_us", FieldKind::Gauge, |s| s.pool.exec_p99_us),
    ("wake_p99_us", FieldKind::Gauge, |s| s.wake_p99_us),
];

fn schema() -> Vec<FieldSpec> {
    FIELDS
        .iter()
        .map(|&(name, kind, _)| FieldSpec { name, kind })
        .collect()
}

impl TickSample {
    fn values(&self) -> Vec<u64> {
        FIELDS.iter().map(|(_, _, read)| read(self)).collect()
    }
}

/// The default SLO rule set. Queue saturation deliberately tops out at
/// `degraded`: a full queue means backpressure (429s), which degrades
/// service but is the designed overload response — `critical` is
/// reserved for failures (error rate, store writes, pathological
/// latency).
fn rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "error_rate",
            metric: "error_rate",
            direction: Direction::AboveIsBad,
            degraded: 0.05,
            critical: 0.25,
            clear: 0.02,
            for_ticks: 1,
            clear_ticks: 2,
        },
        AlertRule {
            name: "exec_latency",
            metric: "exec_p99_us",
            direction: Direction::AboveIsBad,
            degraded: 250_000.0,
            critical: 1_000_000.0,
            clear: 200_000.0,
            for_ticks: 1,
            clear_ticks: 2,
        },
        AlertRule {
            name: "queue_saturation",
            metric: "queue_saturation",
            direction: Direction::AboveIsBad,
            degraded: 0.75,
            critical: 2.0, // unreachable: the ratio caps at 1.0 (see above)
            clear: 0.30,
            for_ticks: 1,
            clear_ticks: 2,
        },
        AlertRule {
            name: "cache_collapse",
            metric: "cache_hit_rate",
            direction: Direction::BelowIsBad,
            degraded: 0.05,
            critical: -1.0, // unreachable: rates cannot go negative
            clear: 0.15,
            for_ticks: 2,
            clear_ticks: 2,
        },
        AlertRule {
            name: "store_write_failures",
            metric: "store_write_errors_delta",
            direction: Direction::AboveIsBad,
            degraded: 1.0,
            critical: 20.0,
            clear: 0.5,
            for_ticks: 1,
            clear_ticks: 2,
        },
        AlertRule {
            name: "wake_latency",
            metric: "wake_p99_us",
            direction: Direction::AboveIsBad,
            degraded: 50_000.0,
            critical: 500_000.0,
            clear: 25_000.0,
            for_ticks: 2,
            clear_ticks: 2,
        },
    ]
}

/// Alert-state surface of the `/metrics` renderings: the scored verdict
/// plus every rule's firing state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlertsSnapshot {
    /// The worst current severity across all rules.
    pub verdict: Severity,
    /// Per-rule state, in rule order.
    pub rules: Vec<RuleSnapshot>,
}

/// The monitoring subsystem one gateway owns: the history series, the
/// watchdog, and the sampler thread's shutdown latch.
pub(crate) struct Monitor {
    pub series: TimeSeries,
    pub watchdog: Watchdog,
    interval_ms: u64,
    eval_window_ms: u64,
    eval_ticks: usize,
    /// Cumulative latency-histogram bucket snapshots, one per tick,
    /// newest last, at most `eval_ticks + 1` retained. Diffing the
    /// newest against the oldest yields the evaluation window's *own*
    /// latency distribution — unlike the since-start p99 gauges, these
    /// decay completely once an incident leaves the window, so the
    /// latency rules' hysteresis actually resolves.
    latency_window: Mutex<VecDeque<LatencySnap>>,
    /// Sampler shutdown latch: `shutdown` raises it and notifies so the
    /// thread exits without waiting out its interval.
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

/// One tick's cumulative latency bucket counters (exec stage + wake).
#[derive(Clone, Copy)]
struct LatencySnap {
    exec: [u64; LATENCY_BUCKETS],
    wake: [u64; LATENCY_BUCKETS],
}

/// Reset-aware bucket diff, mirroring the series' counter semantics: a
/// decrease in any bucket means the histogram restarted, so the new
/// counts are the whole delta.
fn delta_counts(
    oldest: &[u64; LATENCY_BUCKETS],
    newest: &[u64; LATENCY_BUCKETS],
) -> [u64; LATENCY_BUCKETS] {
    let reset = newest.iter().zip(oldest).any(|(n, o)| n < o);
    let mut out = [0u64; LATENCY_BUCKETS];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = if reset {
            newest[i]
        } else {
            newest[i] - oldest[i]
        };
    }
    out
}

impl Monitor {
    pub fn new(interval: Duration, retention: usize, eval_ticks: u32) -> Monitor {
        let interval_ms = interval.as_millis().clamp(1, u128::from(u64::MAX)) as u64;
        let eval_ticks = eval_ticks.max(1) as usize;
        let eval_window_ms = interval_ms.saturating_mul(eval_ticks as u64);
        Monitor {
            series: TimeSeries::new(schema(), interval_ms, retention),
            watchdog: Watchdog::new(rules()),
            interval_ms,
            eval_window_ms,
            eval_ticks,
            latency_window: Mutex::new(VecDeque::new()),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
        }
    }

    /// Block the sampler thread until the next tick is due or shutdown
    /// is requested; returns `false` on shutdown.
    pub fn sleep_until_next_tick(&self) -> bool {
        let interval = Duration::from_millis(self.interval_ms);
        let stopped = self.stop.lock().expect("monitor stop poisoned");
        let (stopped, _) = self
            .stop_cv
            .wait_timeout_while(stopped, interval, |stopped| !*stopped)
            .expect("monitor stop poisoned");
        !*stopped
    }

    /// Raise the shutdown latch and wake the sampler.
    pub fn stop(&self) {
        *self.stop.lock().expect("monitor stop poisoned") = true;
        self.stop_cv.notify_all();
    }

    /// Record one sample, run the watchdog over the trailing window, log
    /// transitions, and return the pre-serialized live events to
    /// broadcast (one tick event, plus one per transition).
    pub fn tick(&self, sample: &TickSample) -> Vec<String> {
        let now_ms = unix_millis();
        self.series.record(now_ms, &sample.values());
        let window = self
            .series
            .window(now_ms.saturating_sub(self.eval_window_ms), now_ms);
        let (exec_p99_us, wake_p99_us) = self.windowed_latency(sample);
        let metrics = derived_metrics(&window, sample, exec_p99_us, wake_p99_us);
        let named: Vec<(&str, f64)> = metrics.iter().map(|(n, v)| (*n, *v)).collect();
        let transitions = self.watchdog.evaluate(now_ms, &named);
        let mut events = Vec::with_capacity(1 + transitions.len());
        events.push(self.tick_event(now_ms, sample, &window));
        for transition in &transitions {
            events.push(transition_event(now_ms, transition));
            match transition {
                AlertTransition::Fired {
                    rule,
                    severity,
                    value,
                } => warn_event!(
                    "alert_fired",
                    "rule" => *rule,
                    "severity" => severity.name(),
                    "value" => *value,
                ),
                AlertTransition::Resolved { rule, value } => info_event!(
                    "alert_resolved",
                    "rule" => *rule,
                    "value" => *value,
                ),
            }
        }
        events
    }

    /// Windowed latency p99s for the watchdog: append this tick's
    /// bucket snapshot, trim to the evaluation window, and diff the
    /// newest against the oldest retained snapshot. `None` when the
    /// window saw no observations, which freezes the rule (like the
    /// denominator-guarded rates) instead of feeding it a fake zero.
    /// Called once per tick, by the sampler thread only.
    fn windowed_latency(&self, sample: &TickSample) -> (Option<u64>, Option<u64>) {
        let mut ring = self.latency_window.lock().expect("latency window poisoned");
        ring.push_back(LatencySnap {
            exec: sample.pool.exec_buckets,
            wake: sample.wake_buckets,
        });
        while ring.len() > self.eval_ticks + 1 {
            ring.pop_front();
        }
        let oldest = ring.front().expect("just pushed");
        let newest = ring.back().expect("just pushed");
        (
            bucket_quantile_us(&delta_counts(&oldest.exec, &newest.exec), 0.99),
            bucket_quantile_us(&delta_counts(&oldest.wake, &newest.wake), 0.99),
        )
    }

    /// The greeting event a new `/debug/live` subscriber receives
    /// immediately: current verdict and sampler shape.
    pub fn hello_event(&self) -> String {
        obj([
            ("type", "subscribed".into()),
            ("unix_ms", unix_millis().into()),
            ("verdict", self.watchdog.verdict().name().into()),
            ("interval_ms", self.interval_ms.into()),
            ("samples", self.series.len().into()),
        ])
        .to_string()
    }

    fn tick_event(&self, now_ms: u64, sample: &TickSample, window: &WindowStats) -> String {
        let request_rate = match field_stats(window, "http_requests") {
            Some(FieldStats::Counter { rate_per_sec, .. }) => *rate_per_sec,
            _ => 0.0,
        };
        obj([
            ("type", "tick".into()),
            ("unix_ms", now_ms.into()),
            ("verdict", self.watchdog.verdict().name().into()),
            ("samples", self.series.len().into()),
            ("request_rate_per_sec", request_rate.into()),
            ("queue_depth", sample.pool.queue_depth.into()),
            ("connections", sample.connections.into()),
            ("latency_p99_us", sample.pool.latency_p99_us.into()),
        ])
        .to_string()
    }

    /// The current alert surface for the `/metrics` renderings.
    pub fn alerts_snapshot(&self) -> AlertsSnapshot {
        AlertsSnapshot {
            verdict: self.watchdog.verdict(),
            rules: self.watchdog.snapshot(),
        }
    }

    /// The `GET /debug/health` body: scored verdict, per-rule state, and
    /// the evidence window the rules were last judged over, inline.
    pub fn health_json(&self) -> Json {
        let now_ms = unix_millis();
        let window = self
            .series
            .window(now_ms.saturating_sub(self.eval_window_ms), now_ms);
        let rules: Vec<Json> = self
            .watchdog
            .snapshot()
            .into_iter()
            .map(|r| {
                obj([
                    ("rule", r.rule.into()),
                    ("metric", r.metric.into()),
                    ("severity", r.severity.name().into()),
                    ("value", r.value.into()),
                    ("degraded", r.degraded.into()),
                    ("critical", r.critical.into()),
                    ("clear", r.clear.into()),
                    ("since_ms", r.since_ms.into()),
                    ("fired_total", r.fired_total.into()),
                    ("resolved_total", r.resolved_total.into()),
                ])
            })
            .collect();
        obj([
            ("verdict", self.watchdog.verdict().name().into()),
            (
                "sampler",
                obj([
                    ("interval_ms", self.interval_ms.into()),
                    ("retention", self.series.capacity().into()),
                    ("samples", self.series.len().into()),
                ]),
            ),
            ("rules", rules.into()),
            ("evidence", window_json(&window)),
        ])
    }

    /// The `GET /metrics/history` body: a whole-window summary plus
    /// per-step tiles over `(now - window_ms, now]`.
    ///
    /// The request is clamped to what the ring can answer — callers
    /// (the gateway) pass query parameters through unvalidated, and an
    /// unbounded window/step pair would otherwise tile billions of
    /// windows on the serving thread. `window_ms` is capped at the
    /// retained span (`interval × retention`); `step_ms` is raised so
    /// at most `retention` tiles are produced (a finer step than one
    /// tile per retained sample only yields empty tiles). The clamped
    /// values are echoed in the body.
    pub fn history_json(&self, window_ms: u64, step_ms: u64) -> Json {
        let now_ms = unix_millis();
        let retention = self.series.capacity() as u64;
        let retained_ms = self.interval_ms.saturating_mul(retention);
        let window_ms = window_ms.clamp(self.interval_ms, retained_ms);
        let step_ms = step_ms.max(window_ms.div_ceil(retention)).max(1);
        let from_ms = now_ms.saturating_sub(window_ms);
        let summary = self.series.window(from_ms, now_ms);
        let steps: Vec<Json> = self
            .series
            .steps(from_ms, now_ms, step_ms)
            .iter()
            .map(window_json)
            .collect();
        obj([
            ("interval_ms", self.interval_ms.into()),
            ("retention", self.series.capacity().into()),
            ("samples", self.series.len().into()),
            ("window_ms", window_ms.into()),
            ("step_ms", step_ms.into()),
            ("summary", window_json(&summary)),
            ("steps", steps.into()),
        ])
    }
}

/// Compute the derived SLO metrics the watchdog rules consume. Rates
/// that would divide by (near) zero are omitted, freezing their rules —
/// see [`Watchdog::evaluate`]. The latency p99s are *windowed* values
/// from [`Monitor::windowed_latency`] (bucket diffs over the evaluation
/// window), not the series' since-start gauges: a cumulative p99 decays
/// only asymptotically after an incident, so rules fed from it could
/// stay fired long after recovery (or mask a fresh regression behind a
/// long healthy history).
fn derived_metrics(
    window: &WindowStats,
    sample: &TickSample,
    exec_p99_us: Option<u64>,
    wake_p99_us: Option<u64>,
) -> Vec<(&'static str, f64)> {
    let delta = |name| match field_stats(window, name) {
        Some(FieldStats::Counter { delta, .. }) => *delta,
        _ => 0,
    };
    let gauge_max = |name| match field_stats(window, name) {
        Some(FieldStats::Gauge { max, .. }) => *max,
        _ => 0,
    };
    let mut metrics: Vec<(&'static str, f64)> = Vec::with_capacity(6);
    let errors = delta("pool_errors");
    let attempts = delta("pool_completed") + errors;
    if attempts >= MIN_ATTEMPTS_FOR_ERROR_RATE {
        metrics.push(("error_rate", errors as f64 / attempts as f64));
    }
    if let Some(p99) = exec_p99_us {
        metrics.push(("exec_p99_us", p99 as f64));
    }
    if sample.pool.queue_capacity > 0 {
        metrics.push((
            "queue_saturation",
            gauge_max("queue_depth") as f64 / sample.pool.queue_capacity as f64,
        ));
    }
    let hits = delta("cache_hits");
    let lookups = hits + delta("cache_misses");
    if lookups >= MIN_LOOKUPS_FOR_HIT_RATE {
        metrics.push(("cache_hit_rate", hits as f64 / lookups as f64));
    }
    metrics.push((
        "store_write_errors_delta",
        delta("store_write_errors") as f64,
    ));
    if let Some(p99) = wake_p99_us {
        metrics.push(("wake_p99_us", p99 as f64));
    }
    metrics
}

/// The stats of the field `name` in `window`.
fn field_stats<'a>(window: &'a WindowStats, name: &str) -> Option<&'a FieldStats> {
    window
        .fields
        .iter()
        .find(|f| f.name == name)
        .map(|f| &f.stats)
}

fn transition_event(now_ms: u64, transition: &AlertTransition) -> String {
    let (rule, state, severity, value) = match transition {
        AlertTransition::Fired {
            rule,
            severity,
            value,
        } => (rule, "fired", *severity, value),
        AlertTransition::Resolved { rule, value } => (rule, "resolved", Severity::Ok, value),
    };
    obj([
        ("type", "alert".into()),
        ("unix_ms", now_ms.into()),
        ("rule", (*rule).into()),
        ("state", state.into()),
        ("severity", severity.name().into()),
        ("value", (*value).into()),
    ])
    .to_string()
}

/// One [`WindowStats`] as JSON, with per-field stats keyed by kind.
fn window_json(window: &WindowStats) -> Json {
    let fields: Vec<Json> = window
        .fields
        .iter()
        .map(|field| match &field.stats {
            FieldStats::Counter {
                delta,
                rate_per_sec,
            } => obj([
                ("name", field.name.into()),
                ("kind", "counter".into()),
                ("delta", (*delta).into()),
                ("rate_per_sec", (*rate_per_sec).into()),
            ]),
            FieldStats::Gauge {
                last,
                min,
                max,
                mean,
                p50,
                p99,
            } => obj([
                ("name", field.name.into()),
                ("kind", "gauge".into()),
                ("last", (*last).into()),
                ("min", (*min).into()),
                ("max", (*max).into()),
                ("mean", (*mean).into()),
                ("p50", (*p50).into()),
                ("p99", (*p99).into()),
            ]),
        })
        .collect();
    obj([
        ("from_ms", window.from_ms.into()),
        ("to_ms", window.to_ms.into()),
        ("samples", window.samples.into()),
        ("fields", fields.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(completed: u64, errors: u64, queue_depth: u64) -> TickSample {
        TickSample {
            pool: PoolSample {
                completed,
                errors,
                queue_depth,
                queue_capacity: 64,
                ..PoolSample::default()
            },
            ..TickSample::default()
        }
    }

    #[test]
    fn schema_and_sample_values_stay_in_lockstep() {
        assert_eq!(schema().len(), TickSample::default().values().len());
    }

    #[test]
    fn overload_fires_queue_saturation_within_two_ticks() {
        let monitor = Monitor::new(Duration::from_millis(10), 16, 4);
        monitor.tick(&sample(10, 0, 0));
        assert_eq!(monitor.watchdog.verdict(), Severity::Ok);
        // The queue jams full: the very next tick must flip the verdict.
        let events = monitor.tick(&sample(10, 0, 64));
        assert_eq!(monitor.watchdog.verdict(), Severity::Degraded);
        assert!(
            events
                .iter()
                .any(|e| e.contains("\"rule\":\"queue_saturation\"")
                    && e.contains("\"state\":\"fired\"")),
            "events: {events:?}"
        );
        // Health report carries the verdict and the firing rule.
        let health = monitor.health_json().to_string();
        assert!(health.contains("\"verdict\":\"degraded\""), "{health}");
    }

    #[test]
    fn error_rate_is_skipped_on_idle_windows() {
        let monitor = Monitor::new(Duration::from_millis(10), 16, 4);
        // No completions, no errors: the error-rate rule must not fire
        // (or even receive a value) on an idle gateway.
        for _ in 0..3 {
            monitor.tick(&sample(0, 0, 0));
        }
        assert_eq!(monitor.watchdog.verdict(), Severity::Ok);
    }

    #[test]
    fn exec_latency_alert_clears_once_the_incident_leaves_the_window() {
        let monitor = Monitor::new(Duration::from_millis(10), 16, 2);
        let mut buckets = [0u64; LATENCY_BUCKETS];
        let mut s = sample(10, 0, 0);
        monitor.tick(&s); // baseline snapshot
                          // A burst of ~500 ms executions: bucket 19 = [262144, 524288) µs.
        buckets[19] = 50;
        s.pool.exec_buckets = buckets;
        monitor.tick(&s);
        assert_eq!(monitor.watchdog.verdict(), Severity::Degraded);
        // The burst stops; only ~200 µs executions afterwards. The
        // *cumulative* p99 stays pinned at the burst bucket forever
        // (50 slow of 550 total is still past the 99th rank), so rules
        // fed from it would never cross the 200 ms clear threshold —
        // the windowed bucket diff must resolve the alert instead.
        for _ in 0..5 {
            buckets[8] += 100;
            s.pool.exec_buckets = buckets;
            monitor.tick(&s);
        }
        assert_eq!(monitor.watchdog.verdict(), Severity::Ok);
    }

    #[test]
    fn wake_latency_uses_windowed_bucket_diffs() {
        let monitor = Monitor::new(Duration::from_millis(10), 16, 2);
        let mut buckets = [0u64; LATENCY_BUCKETS];
        let mut s = sample(10, 0, 0);
        monitor.tick(&s);
        // ~60 ms wakes (bucket 16) for two ticks: fires after
        // `for_ticks = 2`.
        for add in [20, 20] {
            buckets[16] += add;
            s.wake_buckets = buckets;
            monitor.tick(&s);
        }
        assert_eq!(monitor.watchdog.verdict(), Severity::Degraded);
        // Healthy ~1 ms wakes afterwards: clears once the slow window
        // ages out.
        for _ in 0..5 {
            buckets[10] += 100;
            s.wake_buckets = buckets;
            monitor.tick(&s);
        }
        assert_eq!(monitor.watchdog.verdict(), Severity::Ok);
    }

    #[test]
    fn idle_latency_windows_freeze_instead_of_feeding_zero() {
        // No observations at all: the latency rules must receive no
        // value (frozen), not a fake 0 that would count as "cleared".
        let window = WindowStats {
            from_ms: 0,
            to_ms: 1000,
            samples: 0,
            fields: Vec::new(),
        };
        let metrics = derived_metrics(&window, &sample(0, 0, 0), None, None);
        assert!(!metrics.iter().any(|(n, _)| *n == "exec_p99_us"));
        assert!(!metrics.iter().any(|(n, _)| *n == "wake_p99_us"));
    }

    #[test]
    fn history_json_clamps_hostile_window_and_step() {
        let monitor = Monitor::new(Duration::from_millis(10), 16, 4);
        monitor.tick(&sample(1, 0, 0));
        // The DoS shape: a u64::MAX window with a 1 ms step would tile
        // ~1.8e16 windows unclamped. Clamped, the window caps at the
        // retained span (10 ms × 16) and the step is raised so at most
        // `retention` tiles come back.
        let history = monitor.history_json(u64::MAX, 1);
        assert_eq!(history.get("window_ms").and_then(Json::as_u64), Some(160));
        assert_eq!(history.get("step_ms").and_then(Json::as_u64), Some(10));
        let steps = history.get("steps").and_then(Json::as_array).unwrap().len();
        assert_eq!(steps, 16);
    }

    #[test]
    fn history_json_reports_summary_and_steps() {
        let monitor = Monitor::new(Duration::from_millis(10), 16, 4);
        monitor.tick(&sample(5, 0, 1));
        monitor.tick(&sample(9, 0, 2));
        let history = monitor.history_json(60_000, 10_000).to_string();
        assert!(history.contains("\"samples\":2"), "{history}");
        assert!(history.contains("\"name\":\"pool_completed\""));
        assert!(history.contains("\"steps\":["));
    }
}
