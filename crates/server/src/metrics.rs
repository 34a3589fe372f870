//! Service metrics: a fixed-bucket latency histogram and a coherent
//! snapshot API.
//!
//! The histogram uses power-of-two microsecond buckets (bucket *i* counts
//! latencies in `[2^(i-1), 2^i)` µs, bucket 0 counts sub-microsecond
//! completions), so recording is one atomic increment and quantiles are
//! a cumulative walk — no allocation or locking on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lixto_obs::{Stage, StageTimes, STAGE_COUNT};

use crate::cache::CacheStats;
use crate::store::StoreStats;

/// Number of histogram buckets; 2^30 µs ≈ 18 minutes caps the top one.
/// Public so consumers can carry raw bucket snapshots (see
/// [`LatencyHistogram::buckets`]) in fixed-size arrays.
pub const LATENCY_BUCKETS: usize = 31;
const BUCKETS: usize = LATENCY_BUCKETS;

/// Lock-free fixed-bucket latency histogram.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    /// A histogram with every bucket at zero.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one latency observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A snapshot of the raw bucket counters, in bucket order. Counters
    /// are cumulative since construction; diffing two snapshots yields
    /// the distribution of the observations recorded between them
    /// (see [`bucket_quantile_us`]).
    pub fn buckets(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// The upper bound (µs) of the bucket containing quantile `q` in
    /// \[0,1\]; `None` with no observations. Resolution is the bucket
    /// width, i.e. a factor of two.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        bucket_quantile_us(&self.buckets(), q)
    }
}

/// The quantile walk over a bucket-count slice laid out like
/// [`LatencyHistogram`] (power-of-two µs buckets): the upper bound (µs)
/// of the bucket containing quantile `q` in \[0,1\]; `None` with no
/// observations. Shared by live histograms and *windowed* queries that
/// diff two [`LatencyHistogram::buckets`] snapshots — the counts need
/// not be a whole histogram's, only bucket-aligned.
pub fn bucket_quantile_us(counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return Some(if i == 0 { 1 } else { 1u64 << i });
        }
    }
    Some(1u64 << (counts.len() - 1))
}

/// One latency histogram per pipeline [`Stage`], recorded only for
/// stages a request actually executed (a cache hit contributes no
/// `exec` observation), so each stage's quantiles describe real work.
#[derive(Default)]
pub struct StageHistograms {
    histograms: [LatencyHistogram; STAGE_COUNT],
}

impl StageHistograms {
    /// All stages empty.
    pub fn new() -> StageHistograms {
        StageHistograms::default()
    }

    /// Record every touched stage of one request.
    pub fn record(&self, times: &StageTimes) {
        for (stage, ns) in times.iter() {
            self.histograms[stage.index()].record(Duration::from_nanos(ns));
        }
    }

    /// Record a single stage observation (the gateway uses this for
    /// wake latency, which never flows through a [`StageTimes`]).
    pub fn record_one(&self, stage: Stage, latency: Duration) {
        self.histograms[stage.index()].record(latency);
    }

    /// The histogram backing one stage.
    pub fn get(&self, stage: Stage) -> &LatencyHistogram {
        &self.histograms[stage.index()]
    }

    /// Copy out `(name, count, p50, p99)` per stage, in pipeline order.
    pub fn summaries(&self) -> Vec<StageSummary> {
        Stage::ALL
            .iter()
            .map(|&stage| {
                let h = self.get(stage);
                StageSummary {
                    stage: stage.name(),
                    count: h.count(),
                    p50_us: h.quantile_us(0.50).unwrap_or(0),
                    p99_us: h.quantile_us(0.99).unwrap_or(0),
                }
            })
            .collect()
    }
}

/// One stage's latency distribution, copied into a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Stable stage name ([`Stage::name`]).
    pub stage: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Median latency in µs (bucket upper bound); 0 if never observed.
    pub p50_us: u64,
    /// 99th-percentile latency in µs; 0 if never observed.
    pub p99_us: u64,
}

/// Shared mutable counters the server and its workers write into.
pub struct ServerMetrics {
    /// Requests accepted: queued, or answered from the hot tier on
    /// submission.
    pub submitted: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests completed with an error.
    pub errors: AtomicU64,
    /// Requests rejected by backpressure (a non-blocking submission on a full queue).
    pub rejected: AtomicU64,
    /// End-to-end latency (enqueue → response) histogram.
    pub latency: LatencyHistogram,
    /// Per-stage latency histograms (queue wait, fetch, parse, cache,
    /// exec, serialize), fed per completed request — by the workers, or
    /// by the submitting thread for a hot-tier hit.
    pub stages: StageHistograms,
    /// When the server started (throughput denominator).
    pub started_at: Instant,
}

impl ServerMetrics {
    /// Fresh counters starting now.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            stages: StageHistograms::new(),
            started_at: Instant::now(),
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

/// A point-in-time, copyable view of the service's health.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Requests accepted: queued, or answered from the hot tier on
    /// submission.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error.
    pub errors: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Completions per second since the server started.
    pub throughput_per_sec: f64,
    /// Median end-to-end latency in µs (bucket upper bound); 0 if idle.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency in µs; 0 if idle.
    pub p99_us: u64,
    /// Per-stage latency summaries, in pipeline order (the `wake` slot
    /// stays empty here — the gateway owns that measurement).
    pub stages: Vec<StageSummary>,
    /// Jobs currently queued, per shard.
    pub queue_depths: Vec<usize>,
    /// Worker thread count.
    pub workers: usize,
    /// Hot-tier (result cache) counters.
    pub cache: CacheStats,
    /// Disk-tier (durable store) counters; all zero when the server runs
    /// memory-only.
    pub store: StoreStats,
}

impl MetricsSnapshot {
    /// Assemble a snapshot from live counters.
    pub fn collect(
        metrics: &ServerMetrics,
        queue_depths: Vec<usize>,
        workers: usize,
        cache: CacheStats,
        store: StoreStats,
    ) -> MetricsSnapshot {
        let completed = metrics.completed.load(Ordering::Relaxed);
        let elapsed = metrics.started_at.elapsed().as_secs_f64().max(1e-9);
        MetricsSnapshot {
            submitted: metrics.submitted.load(Ordering::Relaxed),
            completed,
            errors: metrics.errors.load(Ordering::Relaxed),
            rejected: metrics.rejected.load(Ordering::Relaxed),
            throughput_per_sec: completed as f64 / elapsed,
            p50_us: metrics.latency.quantile_us(0.50).unwrap_or(0),
            p99_us: metrics.latency.quantile_us(0.99).unwrap_or(0),
            stages: metrics.stages.summaries(),
            queue_depths,
            workers,
            cache,
            store,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), None);
        for _ in 0..98 {
            h.record(Duration::from_micros(100)); // bucket [64,128) → 128
        }
        h.record(Duration::from_micros(3)); // [2,4) → 4
        h.record(Duration::from_millis(20)); // [16384,32768) → 32768
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.0), Some(4));
        assert_eq!(h.quantile_us(0.5), Some(128));
        assert_eq!(h.quantile_us(0.99), Some(128));
        assert_eq!(h.quantile_us(1.0), Some(32768));
    }

    #[test]
    fn bucket_diff_quantiles_cover_only_the_window() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Duration::from_millis(500)); // a slow burst
        }
        let before = h.buckets();
        for _ in 0..100 {
            h.record(Duration::from_micros(100)); // recovery traffic
        }
        let after = h.buckets();
        // The cumulative p99 stays pinned at the burst's bucket...
        assert_eq!(h.quantile_us(0.99), Some(524_288));
        // ...while the snapshot diff sees only the fast window.
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(bucket_quantile_us(&delta, 0.99), Some(128));
        assert_eq!(bucket_quantile_us(&[0; LATENCY_BUCKETS], 0.99), None);
    }

    #[test]
    fn zero_latency_lands_in_first_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.quantile_us(0.5), Some(1));
    }

    #[test]
    fn snapshot_collects_counters() {
        let m = ServerMetrics::new();
        m.submitted.store(10, Ordering::Relaxed);
        m.completed.store(8, Ordering::Relaxed);
        m.errors.store(2, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(50));
        let snap = MetricsSnapshot::collect(
            &m,
            vec![1, 2],
            4,
            CacheStats::default(),
            StoreStats::default(),
        );
        assert_eq!((snap.submitted, snap.completed, snap.errors), (10, 8, 2));
        assert_eq!(snap.queue_depths, vec![1, 2]);
        assert_eq!(snap.workers, 4);
        assert!(snap.throughput_per_sec > 0.0);
        assert_eq!(snap.p50_us, 64);
    }

    #[test]
    fn stage_histograms_record_only_touched_stages() {
        let m = ServerMetrics::new();
        let mut times = StageTimes::new();
        times.add(Stage::QueueWait, Duration::from_micros(3));
        times.add(Stage::PlanExec, Duration::from_micros(100));
        m.stages.record(&times);
        m.stages.record_one(Stage::Wake, Duration::from_micros(3));
        let summaries = m.stages.summaries();
        assert_eq!(summaries.len(), STAGE_COUNT);
        let by_name = |n: &str| summaries.iter().find(|s| s.stage == n).unwrap().clone();
        assert_eq!(by_name("queue_wait").count, 1);
        assert_eq!(by_name("exec").p50_us, 128);
        assert_eq!(by_name("wake").count, 1);
        assert_eq!(by_name("fetch").count, 0);
        assert_eq!(by_name("fetch").p50_us, 0);
    }
}
