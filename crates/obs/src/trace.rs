//! Trace identifiers, pipeline stages, and per-request span records.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch (span timestamps).
pub fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// A request trace identifier: either minted by the gateway or accepted
/// from a client-supplied `X-Request-Id` header after validation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceId(String);

/// Longest client-supplied id accepted before we mint our own.
const MAX_CLIENT_ID: usize = 64;

impl TraceId {
    /// Mint a fresh process-unique id: 16 lowercase hex digits mixing
    /// wall-clock time, the process id, and a monotone counter through a
    /// 64-bit finalizer, so concurrent gateways produce distinct ids
    /// without coordination.
    pub fn mint() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mixed =
            splitmix64(now ^ seq.rotate_left(32) ^ u64::from(std::process::id()).rotate_left(48));
        let mut id = String::with_capacity(16);
        let _ = write!(id, "{mixed:016x}"); // writing into a String cannot fail
        TraceId(id)
    }

    /// Accept a client-supplied id if it is 1–64 visible ASCII
    /// characters (no spaces or control bytes); `None` otherwise, in
    /// which case the caller mints one instead.
    pub fn from_client(raw: &str) -> Option<TraceId> {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.len() > MAX_CLIENT_ID {
            return None;
        }
        if !trimmed.bytes().all(|b| (0x21..=0x7e).contains(&b)) {
            return None;
        }
        Some(TraceId(trimmed.to_string()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The id as an owned string, without copying it.
    pub fn into_string(self) -> String {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// SplitMix64 finalizer: a cheap bijective bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of traced pipeline stages.
pub const STAGE_COUNT: usize = 7;

/// One stage of the request pipeline, in execution order. Stage wall
/// times are measured independently and may overlap: `Parse` time is
/// spent *inside* `PlanExec` (the executor parses fetched documents),
/// so the end-to-end total is not the sum of all stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Enqueue → worker pickup.
    QueueWait,
    /// Entry-document fetch from the web source.
    Fetch,
    /// HTML parsing (inside plan execution).
    Parse,
    /// Cache lookup plus change-detection revalidation.
    CacheLookup,
    /// Compiled wrapper plan execution (fixpoint over rules).
    PlanExec,
    /// Result → XML serialization.
    Serialize,
    /// A worker's answer → event-loop dispatch (wake latency).
    Wake,
}

impl Stage {
    /// All stages in declaration order; indexes agree with
    /// [`StageTimes`] slots.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::QueueWait,
        Stage::Fetch,
        Stage::Parse,
        Stage::CacheLookup,
        Stage::PlanExec,
        Stage::Serialize,
        Stage::Wake,
    ];

    /// Stable snake_case name used in JSON, Prometheus labels and docs.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Fetch => "fetch",
            Stage::Parse => "parse",
            Stage::CacheLookup => "cache",
            Stage::PlanExec => "exec",
            Stage::Serialize => "serialize",
            Stage::Wake => "wake",
        }
    }

    /// Dense index into [`StageTimes`]-shaped arrays (declaration
    /// order; `Stage::ALL[s.index()] == s`).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Fixed per-stage wall times for one request: a plain array of
/// nanosecond counters plus a touched bitmask, so stages that never ran
/// (e.g. `PlanExec` on a cache hit) are distinguishable from stages
/// that ran in under a nanosecond.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTimes {
    ns: [u64; STAGE_COUNT],
    touched: u8,
}

impl StageTimes {
    /// All stages untouched.
    pub fn new() -> StageTimes {
        StageTimes::default()
    }

    /// Add `elapsed` to a stage and mark it touched.
    pub fn add(&mut self, stage: Stage, elapsed: Duration) {
        self.add_ns(stage, elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Add raw nanoseconds to a stage and mark it touched.
    pub fn add_ns(&mut self, stage: Stage, ns: u64) {
        self.ns[stage.index()] = self.ns[stage.index()].saturating_add(ns);
        self.touched |= 1 << stage.index();
    }

    /// Nanoseconds recorded for a stage (0 if untouched).
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Whether the stage ran at all this request.
    pub fn touched(&self, stage: Stage) -> bool {
        self.touched & (1 << stage.index()) != 0
    }

    /// `(stage, nanoseconds)` for every touched stage, in pipeline
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL
            .into_iter()
            .filter(|s| self.touched(*s))
            .map(|s| (s, self.ns(s)))
    }
}

/// The completed-request record kept in the [`crate::SpanBuffer`] and
/// served by `/debug/requests/{id}` and `/debug/slow`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace id; batch items are suffixed `#i`.
    pub id: String,
    /// Wrapper name ("" when the request never resolved one).
    pub wrapper: String,
    /// Wrapper version (0 when unresolved).
    pub version: u32,
    /// HTTP status the gateway answered with.
    pub status: u16,
    /// Whether the result came from the cache tier.
    pub cache_hit: bool,
    /// End-to-end gateway wall time in nanoseconds.
    pub total_ns: u64,
    /// Per-stage wall times.
    pub stages: StageTimes,
    /// Completion timestamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_distinct_hex() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_eq!(a.as_str().len(), 16);
        assert!(a.as_str().bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn client_ids_are_validated() {
        assert_eq!(
            TraceId::from_client("  abc-123  ").map(|t| t.to_string()),
            Some("abc-123".to_string())
        );
        assert!(TraceId::from_client("").is_none());
        assert!(TraceId::from_client("   ").is_none());
        assert!(TraceId::from_client("has space").is_none());
        assert!(TraceId::from_client("ctl\x07byte").is_none());
        assert!(TraceId::from_client("exotic\u{e9}").is_none());
        assert!(TraceId::from_client(&"x".repeat(65)).is_none());
        assert!(TraceId::from_client(&"x".repeat(64)).is_some());
    }

    #[test]
    fn stage_times_track_touched() {
        let mut t = StageTimes::new();
        assert!(!t.touched(Stage::PlanExec));
        t.add(Stage::PlanExec, Duration::ZERO);
        t.add_ns(Stage::QueueWait, 250);
        assert!(t.touched(Stage::PlanExec));
        assert_eq!(t.ns(Stage::PlanExec), 0);
        assert_eq!(t.ns(Stage::QueueWait), 250);
        assert!(!t.touched(Stage::Fetch));
        let seen: Vec<(Stage, u64)> = t.iter().collect();
        assert_eq!(seen, vec![(Stage::QueueWait, 250), (Stage::PlanExec, 0)]);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }
}
