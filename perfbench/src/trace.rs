//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (nanoseconds since a shared
//! epoch), the span that caused it and the request it belongs to. The
//! benchmark opens spans around its own calls into each layer's public
//! functions; where a layer only reports its time through the program's
//! stage clocks (`ExtractionResponse::stages`, `GET /debug/requests/{id}`)
//! the benchmark adds a *derived* child span of that duration inside the
//! span it measured. Spans stay in memory and are written out as JSON
//! lines when the run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover. The layer of a span is its name up to the
//! first `.` (`html.parse` → `html`); a root span named `request` has no
//! layer, so its self time is the unattributed remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lixto_obs::Stage;

/// A process-unique request id for the spans of one traced request.
pub fn next_request() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same log, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// True when the duration came from the program's own stage clock
    /// rather than from a clock the benchmark read around a call.
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread (or of a whole run, after [`SpanLog::merge`]).
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span the caller timed itself.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.push(name, start_ns, end_ns, parent, request, false)
    }

    /// Record a child of `parent` whose duration a program stage clock
    /// reported, placed at `offset` from the parent's start.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: usize,
        offset: Duration,
        duration: Duration,
    ) -> usize {
        let p = &self.spans[parent];
        let (request, start) = (p.request, p.start_ns + offset.as_nanos() as u64);
        let end = start + duration.as_nanos() as u64;
        self.push(name, start, end, Some(parent), request, true)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
        derived: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            derived,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append `other`'s spans, re-basing their parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{},"derived":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request, s.derived
            );
        }
        out
    }
}

/// Pool stages in pipeline order, with the span name each becomes.
pub const POOL_STAGES: [(Stage, &str); 6] = [
    (Stage::QueueWait, "server.queue_wait"),
    (Stage::Fetch, "server.fetch"),
    (Stage::CacheLookup, "server.cache"),
    (Stage::PlanExec, "elog.exec"),
    (Stage::Parse, "html.parse"),
    (Stage::Serialize, "xml.serialize"),
];

/// Lay the pool's stage times out as derived children of `parent`, in
/// pipeline order; `html.parse` nests inside `elog.exec`, where the
/// executor spends it. Returns where the last stage ended.
pub fn stage_spans(log: &mut SpanLog, parent: usize, stages: &[(Stage, Duration)]) -> Duration {
    let mut offset = Duration::ZERO;
    let mut exec = None;
    for (stage, name) in POOL_STAGES {
        let Some(&(_, d)) = stages.iter().find(|(s, _)| *s == stage) else {
            continue;
        };
        if stage == Stage::Parse {
            if let Some(exec) = exec {
                log.derived(name, exec, Duration::ZERO, d);
                continue;
            }
        }
        let span = log.derived(name, parent, offset, d);
        if stage == Stage::PlanExec {
            exec = Some(span);
        }
        offset += d;
    }
    offset
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The layer a span belongs to, or `None` for a root `request` span.
pub fn layer_of(name: &str) -> Option<&str> {
    name.split_once('.').map(|(layer, _)| layer)
}

/// Per-layer attribution of a run's spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Total self time per layer, in nanoseconds.
    pub layers: BTreeMap<String, u64>,
    /// Total duration of the root spans (the request spans).
    pub request_ns: u64,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Attribution {
        let selfs = self_times(spans);
        let mut layers = BTreeMap::new();
        let mut request_ns = 0;
        for (s, own) in spans.iter().zip(selfs) {
            if s.parent.is_none() {
                request_ns += s.duration_ns();
            }
            if let Some(layer) = layer_of(s.name) {
                *layers.entry(layer.to_string()).or_insert(0) += own;
            }
        }
        Attribution { layers, request_ns }
    }

    /// Sum of the layer self times as a share of the request spans.
    pub fn coverage(&self) -> f64 {
        if self.request_ns == 0 {
            return 0.0;
        }
        self.layers.values().sum::<u64>() as f64 / self.request_ns as f64
    }

    /// One layer's share of the request spans.
    pub fn share(&self, layer: &str) -> f64 {
        if self.request_ns == 0 {
            return 0.0;
        }
        self.layers.get(layer).copied().unwrap_or(0) as f64 / self.request_ns as f64
    }

    /// The layer with the largest self time.
    pub fn dominant(&self) -> Option<&str> {
        self.layers
            .iter()
            .max_by_key(|(_, ns)| **ns)
            .map(|(l, _)| l.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request [0,100)
        //   http.gateway [5,95)
        //     server.queue_wait [10,30)   overlaps the next child
        //     server.cache      [20,40)
        //     elog.exec         [50,90)
        //       html.parse      [55,70)
        //       html.parse      [65,75)   overlaps its sibling
        //     xml.serialize     [90,120)  runs past its parent: clipped
        let spans = vec![
            span("request", 0, 100, None),
            span("http.gateway", 5, 95, Some(0)),
            span("server.queue_wait", 10, 30, Some(1)),
            span("server.cache", 20, 40, Some(1)),
            span("elog.exec", 50, 90, Some(1)),
            span("html.parse", 55, 70, Some(4)),
            span("html.parse", 65, 75, Some(4)),
            span("xml.serialize", 90, 120, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 10, "request minus gateway");
        // gateway 90, children cover [10,40) + [50,90) + [90,95) = 75.
        assert_eq!(selfs[1], 15);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 20);
        // exec 40, parses cover [55,75) = 20.
        assert_eq!(selfs[4], 20);
        assert_eq!(selfs[5], 15);
        assert_eq!(selfs[6], 10);
        assert_eq!(selfs[7], 30);

        let a = Attribution::of(&spans);
        assert_eq!(a.request_ns, 100);
        assert_eq!(a.layers["http"], 15);
        assert_eq!(a.layers["server"], 40);
        assert_eq!(a.layers["elog"], 20);
        assert_eq!(a.layers["html"], 25);
        assert_eq!(a.layers["xml"], 30);
        assert_eq!(a.dominant(), Some("server"));
        // The clipped serialize overhang is double counted by the child's
        // own self time: the sum is 130 of a 100 ns request.
        assert!((a.coverage() - 1.3).abs() < 1e-12);
        assert!((a.share("html") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn derived_children_sit_inside_their_parent_and_merge_rebases() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        let root = a.record("request", 1_000, 2_000, None, 7);
        let child = a.derived(
            "server.cache",
            root,
            Duration::from_nanos(100),
            Duration::from_nanos(300),
        );
        assert_eq!(a.spans()[child].start_ns, 1_100);
        assert_eq!(a.spans()[child].end_ns, 1_400);
        assert_eq!(a.spans()[child].request, 7);
        assert!(a.spans()[child].derived);

        let mut b = SpanLog::new(epoch);
        let r = b.record("request", 0, 10, None, 8);
        b.record("elog.exec", 2, 8, Some(r), 8);
        a.merge(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(self_times(a.spans()), vec![700, 300, 4, 6]);
        assert_eq!(a.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn layers_come_from_the_name_prefix() {
        assert_eq!(layer_of("html.parse"), Some("html"));
        assert_eq!(layer_of("watch.recheck"), Some("watch"));
        assert_eq!(layer_of("request"), None);
    }
}
