//! The extraction server: a sharded worker pool executing registered
//! wrappers against submitted documents.
//!
//! Requests are hashed to one of N shards (by wrapper name plus source
//! identity, so identical work lands on the same queue), each shard owns
//! a bounded job queue drained by one or more worker threads, and every
//! completed extraction is stored in the shared content-addressed
//! [`ResultCache`](crate::ResultCache). Bounded queues give
//! backpressure two ways: `submit`
//! blocks the producer when its shard is full,
//! [`ExtractionServer::try_serve`] returns
//! [`ServerError::Backpressure`] instead.
//!
//! Every queued job answers the same way: it owns its submitter's
//! callback (a `Reply`) and calls it exactly once with the outcome —
//! on the worker that ran it, or with [`ServerError::Canceled`] wherever
//! the job is destroyed unprocessed. A submission that fails hands its
//! error back instead, and the callback never runs.
//!
//! Event-driven frontends submit through [`ExtractionServer::try_serve`],
//! which answers an inline request whose result sits in the hot tier on
//! the calling thread — no queue, no worker, and the callback dropped
//! unrun — and queues everything else. The disk tier is only ever read
//! by workers. Blocking callers use [`ExtractionServer::submit`], whose
//! callback fills the one-slot [`JobTicket`] they wait on.
//!
//! The watch scheduler queues a second job kind on the same shards, a
//! *recheck* (`ExtractionServer::try_recheck`): fetch, content
//! address, change tracking and plan execution as for an extraction,
//! then an instance snapshot instead of XML, provenance and a store
//! entry, answered through the same kind of callback.
//!
//! Shutdown is drain-ordered and callable through a shared handle
//! ([`ExtractionServer::initiate_shutdown`], which `shutdown` wraps):
//! intake stops first, the workers finish every queued job — answering
//! every outstanding callback — and only then are the threads joined.
//! A job that can no longer be executed (its worker died or its queue
//! was torn down) answers [`ServerError::Canceled`] rather than never,
//! so frontend threads blocked in [`JobTicket::wait`] always come back.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Receiver, SendError, Sender, TrySendError};
use lixto_core::to_xml;
use lixto_elog::eval::ExtractionResult;
use lixto_elog::{ExecProbe, Extractor, WebSource};
use lixto_obs::{debug_event, error_event, warn_event, Stage, StageTimes};
use lixto_transform::ExtractionSnapshot;

use crate::cache::{
    content_address, fxhash64, CacheKey, CachedExtraction, CrawlRecord, ResponseMemo,
};
use crate::metrics::{MetricsSnapshot, ServerMetrics, LATENCY_BUCKETS};
use crate::registry::{RegisteredWrapper, WrapperRegistry};
use crate::store::{InstanceProvenance, Provenance, StoreConfig, TieredStore};

/// Where the document to wrap comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestSource {
    /// The client ships the page itself, served to the wrapper at `url`
    /// (the entry URL its `document(...)` atom fetches).
    Inline {
        /// Entry URL the page answers to.
        url: String,
        /// The page bytes.
        html: String,
    },
    /// The server fetches `url` from its configured [`WebSource`].
    Web {
        /// URL to fetch.
        url: String,
    },
}

impl RequestSource {
    fn url(&self) -> &str {
        match self {
            RequestSource::Inline { url, .. } | RequestSource::Web { url } => url,
        }
    }

    /// The content address of an `Inline` document; `Web` documents are
    /// addressed after the fetch, in the worker.
    fn inline_address(&self) -> Option<u64> {
        match self {
            RequestSource::Inline { url, html } => Some(content_address(url, html)),
            RequestSource::Web { .. } => None,
        }
    }
}

/// One extraction request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractionRequest {
    /// Registered wrapper name.
    pub wrapper: String,
    /// Specific version, or `None` for the latest.
    pub version: Option<u32>,
    /// The document to wrap.
    pub source: RequestSource,
    /// Request trace id propagated from the gateway (batch items carry
    /// a `#i` suffix). `None` when tracing is disabled or the request
    /// was submitted in-process without a trace. Workers thread it into
    /// their structured log events, so a `worker_panic` line names the
    /// exact request to look up under `GET /debug/requests/{id}`.
    pub trace: Option<String>,
}

/// A completed extraction.
#[derive(Debug, Clone)]
pub struct ExtractionResponse {
    /// Wrapper name.
    pub wrapper: String,
    /// Version that executed.
    pub version: u32,
    /// The store key the result lives under — render it with
    /// [`provenance_key`](crate::store::provenance_key) to query
    /// `GET /provenance/{key}` later.
    pub key: CacheKey,
    /// The extraction result (shared with the cache).
    pub result: Arc<CachedExtraction>,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// End-to-end latency, enqueue to completion.
    pub latency: Duration,
    /// Per-stage wall times the worker measured for this request
    /// (queue wait, fetch, parse, cache lookup, plan execution, XML
    /// serialization). Stages that did not run — e.g. `exec` on a cache
    /// hit — are untouched. The gateway folds these into its span
    /// records and the pool records them into the per-stage histograms.
    pub stages: StageTimes,
    /// On a cache hit, the hot-tier entry's encoding memo, shared by
    /// every hit of that entry (see [`ResponseMemo`]); `None` on a miss.
    /// The pool never fills it: only a frontend that encodes the
    /// response does.
    pub memo: Option<ResponseMemo>,
}

impl ExtractionResponse {
    /// The serialized output XML document.
    pub fn xml(&self) -> &str {
        &self.result.xml
    }

    /// The underlying extraction result.
    pub fn extraction(&self) -> &ExtractionResult {
        &self.result.result
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// No wrapper registered under this name.
    UnknownWrapper(String),
    /// The name exists but not this version.
    UnknownVersion {
        /// Wrapper name.
        wrapper: String,
        /// Requested version.
        version: u32,
    },
    /// A `Web` source URL the server's [`WebSource`] cannot fetch.
    FetchFailed(String),
    /// A non-blocking submission found the target shard queue full.
    Backpressure,
    /// The server is shutting down; no new work is accepted.
    ShuttingDown,
    /// The job was destroyed before a worker ran it.
    Canceled,
    /// The job panicked inside the worker; the panic was contained and
    /// the worker keeps serving.
    Internal(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownWrapper(name) => write!(f, "unknown wrapper {name:?}"),
            ServerError::UnknownVersion { wrapper, version } => {
                write!(f, "wrapper {wrapper:?} has no version {version}")
            }
            ServerError::FetchFailed(url) => write!(f, "failed to fetch {url:?}"),
            ServerError::Backpressure => f.write_str("shard queue full"),
            ServerError::ShuttingDown => f.write_str("server is shutting down"),
            ServerError::Canceled => f.write_str("job canceled"),
            ServerError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

/// Sizing knobs for [`ExtractionServer::start`].
///
/// Every field has a working default ([`ServerConfig::default`]); zero
/// values are clamped up to 1 at start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Number of shard queues. Requests hash to a shard by wrapper name
    /// plus source identity, so repeated work for the same (wrapper,
    /// document) lands on the same queue. Default 4.
    pub shards: usize,
    /// Worker threads per shard (sharing the shard's queue). Total
    /// worker count is `shards * workers_per_shard`. Default 1.
    pub workers_per_shard: usize,
    /// Bounded capacity of each shard queue — the backpressure limit:
    /// `submit` blocks and
    /// [`try_serve`](ExtractionServer::try_serve) rejects past it. Default 64.
    pub queue_capacity: usize,
    /// Hot-tier (in-memory result cache) capacity in entries. Default
    /// 256.
    pub cache_capacity: usize,
    /// Durable result store configuration. `None` (the default) runs
    /// memory-only — exactly the pre-persistence behavior. `Some`
    /// backs the hot tier with the append-only disk tier at
    /// [`StoreConfig::dir`], so a restarted server serves
    /// previously-cached extractions without re-executing any plan. If
    /// the directory cannot be opened the server logs the error to
    /// stderr and falls back to memory-only rather than refusing to
    /// start.
    pub store: Option<StoreConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            workers_per_shard: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            store: None,
        }
    }
}

/// Handle on a job queued by [`ExtractionServer::submit`]; redeem with
/// [`JobTicket::wait`].
pub struct JobTicket {
    reply: Receiver<Result<ExtractionResponse, ServerError>>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobTicket")
    }
}

impl JobTicket {
    /// Block until the job answers: its outcome, or
    /// [`ServerError::Canceled`] if it was destroyed unprocessed. Never
    /// hangs past the job's fate.
    pub fn wait(self) -> Result<ExtractionResponse, ServerError> {
        self.reply.recv().unwrap_or(Err(ServerError::Canceled))
    }
}

/// What [`ExtractionServer::try_serve`] did with a request.
#[derive(Debug)]
pub enum Served {
    /// Answered from the hot tier on the calling thread; the callback
    /// was dropped without running.
    Hit(ExtractionResponse),
    /// Queued on the pool; the callback will answer it.
    Queued,
}

/// What a watch recheck compares the page against: the store key and
/// crawl manifest of the last extraction it ran.
pub(crate) struct Seen {
    pub(crate) key: CacheKey,
    pub(crate) crawl: Vec<CrawlRecord>,
}

/// What a watch recheck found.
pub(crate) enum Recheck {
    /// The page and every crawled page hash as they did at the [`Seen`]
    /// extraction, under the same plan; nothing was executed.
    Unchanged,
    /// The plan ran: what it saw, and its `(pattern, text)` instances.
    Extracted {
        seen: Seen,
        snapshot: ExtractionSnapshot,
    },
}

/// A submitter's callback for one job's outcome. The [`Job`] that owns
/// it calls it exactly once.
type Reply<T> = Box<dyn FnOnce(Result<T, ServerError>) + Send>;

/// What a job does, and whom it answers.
enum JobKind {
    /// An extraction.
    Extract(Reply<ExtractionResponse>),
    /// A watch recheck against what the watch last saw.
    Recheck {
        seen: Option<Arc<Seen>>,
        reply: Reply<Recheck>,
    },
}

struct Job {
    request: ExtractionRequest,
    wrapper: Arc<RegisteredWrapper>,
    /// Content address of an `Inline` document, computed once at submit
    /// (it doubles as the shard key, and as the hot-tier key of
    /// [`ExtractionServer::try_serve`]); `Web` documents are addressed
    /// after the fetch, in the worker.
    content: Option<u64>,
    submitted_at: Instant,
    /// `Some` until the job answers: the worker takes it out to run the
    /// job, a failed submission clears it unrun, and a job dropped with
    /// it still in place answers [`ServerError::Canceled`].
    kind: Option<JobKind>,
}

impl Drop for Job {
    fn drop(&mut self) {
        match self.kind.take() {
            Some(JobKind::Extract(reply)) => reply(Err(ServerError::Canceled)),
            Some(JobKind::Recheck { reply, .. }) => reply(Err(ServerError::Canceled)),
            None => {}
        }
    }
}

impl Job {
    fn new(
        request: ExtractionRequest,
        wrapper: Arc<RegisteredWrapper>,
        content: Option<u64>,
        kind: JobKind,
    ) -> Job {
        Job {
            request,
            wrapper,
            content,
            submitted_at: Instant::now(),
            kind: Some(kind),
        }
    }

    /// Drop a job whose submission failed without answering it: the
    /// caller gets the error instead, so the callback must never run.
    fn disarm(mut self) {
        self.kind = None;
    }

    /// Shard by wrapper name + source identity, so repeated work for the
    /// same (wrapper, document) lands on the same queue. For inline
    /// documents the source key *is* the content address, which the
    /// worker then reuses as the cache key — the document is hashed
    /// exactly once.
    fn shard(&self, shards: usize) -> usize {
        let source_key = self
            .content
            .unwrap_or_else(|| fxhash64(self.request.source.url().as_bytes()));
        ((fxhash64(self.request.wrapper.as_bytes()).rotate_left(1) ^ source_key) % shards as u64)
            as usize
    }
}

/// Joint fate of a shutdown: how the pool wound down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Worker threads joined by *this* call (a second, idempotent call
    /// finds none left).
    pub workers_joined: usize,
    /// Jobs completed over the server's lifetime (including drained
    /// queue remainders).
    pub jobs_completed: u64,
}

/// A cheap, copyable sample of the pool's live counters for periodic
/// monitoring — see [`ExtractionServer::sample`]. Counters are
/// cumulative since server start; `queue_depth` and the quantiles are
/// instantaneous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSample {
    /// Requests accepted: queued, or answered from the hot tier on
    /// submission.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error.
    pub errors: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Jobs currently queued, summed over shards.
    pub queue_depth: u64,
    /// Total queue slots (shards × per-shard capacity).
    pub queue_capacity: u64,
    /// 99th-percentile end-to-end latency in µs (cumulative histogram).
    pub latency_p99_us: u64,
    /// 99th-percentile plan-execution latency in µs (cumulative).
    pub exec_p99_us: u64,
    /// Raw `exec`-stage histogram bucket counters (cumulative).
    /// Diffing two samples' buckets gives the latency distribution of
    /// just the executions between them — the gateway's watchdog uses
    /// this for *windowed* p99s with working hysteresis, which the
    /// since-start `exec_p99_us` cannot provide.
    pub exec_buckets: [u64; LATENCY_BUCKETS],
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Durable-store writes that failed.
    pub store_write_errors: u64,
}

/// Per-(wrapper, url) change detection for `Web`-sourced requests: when
/// the fetched body differs from the last one seen, the previous cache
/// entry is proactively invalidated. The tracker compares word-sized
/// content addresses rather than bodies, so it costs a few dozen bytes,
/// not a page.
struct SourceTracker {
    last_key: Option<CacheKey>,
    /// Whether a job stored its result under `last_key`. Only such a key
    /// is reported stale when the page changes: a key only watch
    /// rechecks saw was never inserted, and invalidating it would take
    /// the store's disk lock to find nothing.
    stored: bool,
    /// Segment-clock value of the last touch, for oldest-first eviction.
    last_used: u64,
}

impl SourceTracker {
    /// Fold in one observation of `key` (see [`SourceTrackers::observe`]).
    fn observe(&mut self, key: &CacheKey, stored: bool, clock: u64) -> Option<CacheKey> {
        self.last_used = clock;
        if self.last_key.as_ref() == Some(key) {
            self.stored |= stored;
            return None;
        }
        let old = self.last_key.replace(key.clone());
        let old_stored = std::mem::replace(&mut self.stored, stored);
        old.filter(|old| old_stored && old.content != key.content)
    }
}

/// A `(wrapper, url)` pair, owned or borrowed: lets a segment map keyed
/// by owned pairs be searched with borrowed strs, so observing a source
/// already tracked allocates nothing.
trait SourcePair {
    fn parts(&self) -> (&str, &str);
}

impl SourcePair for (String, String) {
    fn parts(&self) -> (&str, &str) {
        (&self.0, &self.1)
    }
}

impl SourcePair for (&str, &str) {
    fn parts(&self) -> (&str, &str) {
        *self
    }
}

impl<'a> std::borrow::Borrow<dyn SourcePair + 'a> for (String, String) {
    fn borrow(&self) -> &(dyn SourcePair + 'a) {
        self
    }
}

/// Hashes as the owned `(String, String)` key does: both strs in order.
impl std::hash::Hash for dyn SourcePair + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn SourcePair + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn SourcePair + '_ {}

/// Cap on tracked (wrapper, url) pairs, split evenly across segments.
/// Past a segment's share, its coldest tracker is evicted — losing only
/// the *proactive* invalidation of that one stale entry (content
/// addressing keeps results correct regardless), never growing without
/// bound under per-query URLs.
const MAX_TRACKED_SOURCES: usize = 4096;

/// Segment count for [`SourceTrackers`]. Like the result cache's
/// segments, this bounds lock contention: `Web`-sourced requests for
/// different (wrapper, url) pairs take different locks.
const SOURCE_SEGMENTS: usize = 8;

/// Change trackers for `Web` sources, sharded into fxhash-picked
/// segments so concurrent workers touching different sources never
/// serialize on one global lock (the result cache plays the same trick).
struct SourceTrackers {
    segments: Vec<Mutex<TrackerSegment>>,
    /// Per-segment tracker cap; the coldest entry is evicted past it.
    segment_capacity: usize,
}

#[derive(Default)]
struct TrackerSegment {
    map: HashMap<(String, String), SourceTracker>,
    /// Recency counter: bumped per touch, stamped into `last_used`.
    clock: u64,
}

impl SourceTrackers {
    fn new() -> SourceTrackers {
        SourceTrackers::with_limits(SOURCE_SEGMENTS, MAX_TRACKED_SOURCES / SOURCE_SEGMENTS)
    }

    /// Test constructor: explicit segment count and per-segment cap.
    fn with_limits(segments: usize, segment_capacity: usize) -> SourceTrackers {
        SourceTrackers {
            segments: (0..segments.max(1))
                .map(|_| Mutex::new(TrackerSegment::default()))
                .collect(),
            segment_capacity: segment_capacity.max(1),
        }
    }

    /// Which segment a (wrapper, url) pair lives in.
    fn segment_index(&self, wrapper: &str, url: &str) -> usize {
        let mut h = fxhash64(wrapper.as_bytes()).rotate_left(1) ^ fxhash64(url.as_bytes());
        // Murmur finalizer: spread the hash across the high bits so the
        // modulo below sees all of them.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h as usize) % self.segments.len()
    }

    /// Record an observation of `key` for (wrapper, url); `stored` says
    /// whether the caller's job keeps its result in the store under
    /// `key` (an interactive job does: a hit found it there, a miss
    /// inserts it; a watch recheck never does). Returns the previous
    /// key iff the content address changed and a job stored under it —
    /// the stale entry the caller should invalidate. One segment lock,
    /// one map lookup by borrowed strs; a source seen for the first time
    /// allocates its owned key, and a changed key is cloned once.
    fn observe(&self, wrapper: &str, url: &str, key: &CacheKey, stored: bool) -> Option<CacheKey> {
        let capacity = self.segment_capacity;
        let mut seg = self.segments[self.segment_index(wrapper, url)]
            .lock()
            .expect("sources poisoned");
        seg.clock += 1;
        let clock = seg.clock;
        if let Some(tracker) = seg.map.get_mut(&(wrapper, url) as &dyn SourcePair) {
            return tracker.observe(key, stored, clock);
        }
        let mut tracker = SourceTracker {
            last_key: None,
            stored: false,
            last_used: 0,
        };
        tracker.observe(key, stored, clock);
        seg.map
            .insert((wrapper.to_string(), url.to_string()), tracker);
        if seg.map.len() > capacity {
            // Oldest-first eviction, skipping the entry just touched:
            // one cold tracker goes, the hot set survives.
            if let Some(oldest) = seg
                .map
                .iter()
                .filter(|(_, t)| t.last_used != clock)
                .min_by_key(|(_, t)| t.last_used)
                .map(|(k, _)| k.clone())
            {
                seg.map.remove(&oldest);
            }
        }
        None
    }

    /// Hold a segment's lock for the duration of `f` — lets tests prove
    /// a jammed segment cannot block observations landing elsewhere.
    #[cfg(test)]
    fn with_segment_locked<R>(&self, wrapper: &str, url: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.segments[self.segment_index(wrapper, url)]
            .lock()
            .expect("sources poisoned");
        f()
    }

    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.lock().expect("sources poisoned").map.len())
            .sum()
    }
}

struct Shared {
    registry: Arc<WrapperRegistry>,
    store: TieredStore,
    metrics: ServerMetrics,
    web: Arc<dyn WebSource + Send + Sync>,
    sources: SourceTrackers,
}

impl Shared {
    /// Count a cache hit and build its response — the one place a hit
    /// is answered, whether a worker or the submitting thread found it.
    fn hit_response(
        &self,
        wrapper: &RegisteredWrapper,
        key: CacheKey,
        (cached, memo): (Arc<CachedExtraction>, ResponseMemo),
        submitted_at: Instant,
        cache_started: Instant,
        mut stages: StageTimes,
    ) -> ExtractionResponse {
        self.store.record_hit();
        stages.add(Stage::CacheLookup, cache_started.elapsed());
        ExtractionResponse {
            wrapper: wrapper.name.clone(),
            version: wrapper.version,
            key,
            result: cached,
            cache_hit: true,
            latency: submitted_at.elapsed(),
            stages,
            memo: Some(memo),
        }
    }

    /// Count one finished job — completion or error, stage times,
    /// end-to-end latency — wherever it was answered. `done` carries the
    /// stage times and whether the answer was a cache hit; `None` is an
    /// error.
    fn record_outcome(
        &self,
        request: &ExtractionRequest,
        version: u32,
        done: Option<(&StageTimes, bool)>,
        submitted_at: Instant,
    ) {
        match done {
            Some((stages, cache_hit)) => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                self.metrics.stages.record(stages);
                debug_event!(
                    "job_done",
                    "request_id" => request.trace.as_deref().unwrap_or(""),
                    "wrapper" => &request.wrapper,
                    "version" => version,
                    "cache_hit" => cache_hit,
                    "latency_us" => submitted_at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                );
            }
            None => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
        };
        self.metrics.latency.record(submitted_at.elapsed());
    }
}

/// The wrapper-execution service.
///
/// The pool is safe to share behind an `Arc` (the HTTP gateway does):
/// submission takes `&self`, and
/// [`initiate_shutdown`](ExtractionServer::initiate_shutdown) drains and joins
/// the pool through a shared reference. The by-value
/// [`shutdown`](ExtractionServer::shutdown) remains for exclusive owners.
pub struct ExtractionServer {
    shared: Arc<Shared>,
    config: ServerConfig,
    /// Shard queue senders; emptied (dropping every sender, which
    /// disconnects the workers once drained) when shutdown begins.
    queues: RwLock<Vec<Sender<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A `Web` entry page pinned to the body the server fetched (and
/// hashed), with every other URL — crawl targets — falling through to
/// the live web.
struct PinnedPage<'a> {
    url: &'a str,
    html: &'a str,
    rest: Option<&'a (dyn WebSource + Send + Sync)>,
}

impl WebSource for PinnedPage<'_> {
    fn fetch(&self, url: &str) -> Option<String> {
        if url == self.url {
            Some(self.html.to_string())
        } else {
            self.rest.and_then(|w| w.fetch(url))
        }
    }
}

/// Wraps the page source handed to the Extractor and records every fetch
/// beyond the entry URL as a [`CrawlRecord`] — the crawl manifest the
/// cache revalidates before serving this result again.
struct RecordingWeb<'a> {
    inner: &'a dyn WebSource,
    entry: &'a str,
    fetched: RefCell<Vec<CrawlRecord>>,
}

impl WebSource for RecordingWeb<'_> {
    fn fetch(&self, url: &str) -> Option<String> {
        let body = self.inner.fetch(url);
        if url != self.entry {
            let mut fetched = self.fetched.borrow_mut();
            if !fetched.iter().any(|r| r.url == url) {
                fetched.push(CrawlRecord {
                    url: url.to_string(),
                    content: body.as_deref().map(|b| fxhash64(b.as_bytes())),
                });
            }
        }
        body
    }
}

/// True when every page in the crawl manifest still fetches to the body
/// hash (or the same 404) recorded at extraction time.
fn crawl_current(crawl: &[CrawlRecord], web: Option<&(dyn WebSource + Send + Sync)>) -> bool {
    crawl.iter().all(|record| {
        let now = web
            .and_then(|w| w.fetch(&record.url))
            .map(|body| fxhash64(body.as_bytes()));
        now == record.content
    })
}

impl ExtractionServer {
    /// Spawn the worker pool and start serving.
    pub fn start(
        config: ServerConfig,
        registry: Arc<WrapperRegistry>,
        web: Arc<dyn WebSource + Send + Sync>,
    ) -> ExtractionServer {
        let config = ServerConfig {
            shards: config.shards.max(1),
            workers_per_shard: config.workers_per_shard.max(1),
            queue_capacity: config.queue_capacity.max(1),
            cache_capacity: config.cache_capacity.max(1),
            store: config.store,
        };
        let store = match &config.store {
            Some(store_config) => TieredStore::open(config.cache_capacity, store_config)
                .unwrap_or_else(|e| {
                    warn_event!(
                        "store_open_failed",
                        "dir" => store_config.dir.display().to_string(),
                        "error" => e.to_string(),
                        "fallback" => "memory-only",
                    );
                    TieredStore::memory(config.cache_capacity)
                }),
            None => TieredStore::memory(config.cache_capacity),
        };
        let shared = Arc::new(Shared {
            registry,
            store,
            metrics: ServerMetrics::new(),
            web,
            sources: SourceTrackers::new(),
        });
        let mut queues = Vec::with_capacity(config.shards);
        let mut workers = Vec::new();
        for shard in 0..config.shards {
            let (tx, rx) = bounded::<Job>(config.queue_capacity);
            queues.push(tx);
            for worker in 0..config.workers_per_shard {
                let rx = rx.clone();
                let shared = shared.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("lixto-worker-{shard}.{worker}"))
                        .spawn(move || worker_loop(rx, shared))
                        .expect("spawn worker"),
                );
            }
        }
        ExtractionServer {
            shared,
            config,
            queues: RwLock::new(queues),
            workers: Mutex::new(workers),
        }
    }

    /// The registry this server executes from (register new wrappers or
    /// versions at any time — running jobs are unaffected).
    pub fn registry(&self) -> &Arc<WrapperRegistry> {
        &self.shared.registry
    }

    /// The effective (clamped) configuration the pool was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    fn resolve(&self, request: &ExtractionRequest) -> Result<Arc<RegisteredWrapper>, ServerError> {
        match request.version {
            None => self
                .shared
                .registry
                .latest(&request.wrapper)
                .ok_or_else(|| ServerError::UnknownWrapper(request.wrapper.clone())),
            Some(v) => self
                .shared
                .registry
                .version(&request.wrapper, v)
                .ok_or_else(|| {
                    if self.shared.registry.latest(&request.wrapper).is_none() {
                        ServerError::UnknownWrapper(request.wrapper.clone())
                    } else {
                        ServerError::UnknownVersion {
                            wrapper: request.wrapper.clone(),
                            version: v,
                        }
                    }
                }),
        }
    }

    /// The shard senders, or [`ServerError::ShuttingDown`] once intake
    /// has stopped. Holding the guard orders the caller's enqueue before
    /// any shutdown (see [`initiate_shutdown`](Self::initiate_shutdown)).
    fn intake(&self) -> Result<RwLockReadGuard<'_, Vec<Sender<Job>>>, ServerError> {
        let queues = self.queues.read().expect("queues poisoned");
        if queues.is_empty() {
            return Err(ServerError::ShuttingDown);
        }
        Ok(queues)
    }

    /// Enqueue a request, blocking while the target shard queue is full
    /// (producer-side backpressure).
    pub fn submit(&self, request: ExtractionRequest) -> Result<JobTicket, ServerError> {
        let wrapper = self.resolve(&request)?;
        let queues = self.intake()?;
        let content = request.source.inline_address();
        let (tx, rx) = bounded(1);
        let reply: Reply<ExtractionResponse> = Box::new(move |outcome| {
            // The client may have dropped its ticket; that is its
            // business.
            let _ = tx.send(outcome);
        });
        let job = Job::new(request, wrapper, content, JobKind::Extract(reply));
        queues[job.shard(queues.len())]
            .send(job)
            .map_err(|SendError(job)| {
                job.disarm();
                ServerError::ShuttingDown
            })?;
        self.shared
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        Ok(JobTicket { reply: rx })
    }

    /// The event-loop entry point, for frontends that cannot block in
    /// [`JobTicket::wait`]. An `Inline` request whose result is in the
    /// **hot tier** is answered right here, on the calling thread, and
    /// `done` is dropped without running (nor boxed). Such a hit never
    /// enters a shard queue or wakes a worker, and is counted exactly as
    /// a worker counts one (submitted, completed, cache hit, latency and
    /// `cache`-stage histograms); its stage times hold only the `cache`
    /// stage.
    ///
    /// Everything else is queued without blocking: `Web` sources,
    /// hot-tier misses (the disk tier is never read on the calling
    /// thread) and entries with a crawl manifest, which a worker must
    /// revalidate. A queued inline request carries its content address
    /// along, so the document is still hashed once. For a queued
    /// request `done` runs exactly once with the outcome: on the worker
    /// thread after the job completes, or with [`ServerError::Canceled`]
    /// wherever the job is destroyed unprocessed, so keep it small and
    /// non-blocking — typically "push the outcome and wake an event
    /// loop". When the call fails (backpressure, shutdown, unknown
    /// wrapper) `done` never runs; after shutdown began it fails with
    /// [`ServerError::ShuttingDown`], hit or not.
    pub fn try_serve(
        &self,
        request: ExtractionRequest,
        done: impl FnOnce(Result<ExtractionResponse, ServerError>) + Send + 'static,
    ) -> Result<Served, ServerError> {
        let submitted_at = Instant::now();
        let wrapper = self.resolve(&request)?;
        let queues = self.intake()?;
        let content = request.source.inline_address();
        if let Some(content) = content {
            let key = CacheKey {
                wrapper: wrapper.name.clone(),
                plan: wrapper.plan_id,
                content,
            };
            let cache_started = Instant::now();
            let cached = self.shared.store.peek_hot(&key);
            if let Some(cached) = cached.filter(|(c, _)| c.crawl.is_empty()) {
                let shared = &self.shared;
                shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
                let hit = shared.hit_response(
                    &wrapper,
                    key,
                    cached,
                    submitted_at,
                    cache_started,
                    StageTimes::new(),
                );
                shared.record_outcome(
                    &request,
                    wrapper.version,
                    Some((&hit.stages, true)),
                    submitted_at,
                );
                return Ok(Served::Hit(hit));
            }
        }
        let kind = JobKind::Extract(Box::new(done));
        self.try_enqueue(&queues, Job::new(request, wrapper, content, kind))?;
        Ok(Served::Queued)
    }

    /// Queue a watch recheck of `request` (a `Web` source) without
    /// blocking, as [`try_serve`](Self::try_serve) would queue the
    /// request. The worker fetches the page, addresses it and
    /// feeds the change tracker (a changed page still drops a stale
    /// entry of interactive traffic). If the key and every crawled page match
    /// `seen`, it answers [`Recheck::Unchanged`] without executing;
    /// otherwise it runs the plan and answers the instance snapshot. It
    /// renders no XML, builds no provenance and never reads or writes
    /// the store. The job counts as submitted, completed or failed, in
    /// the latency and stage histograms, never as a cache hit or miss.
    ///
    /// `done` is answered as [`try_serve`](Self::try_serve)'s is: exactly
    /// once on the worker with the outcome, or with
    /// [`ServerError::Canceled`] wherever the job is destroyed
    /// unprocessed. When the call itself fails, `done` never runs.
    pub(crate) fn try_recheck(
        &self,
        request: ExtractionRequest,
        seen: Option<Arc<Seen>>,
        done: impl FnOnce(Result<Recheck, ServerError>) + Send + 'static,
    ) -> Result<(), ServerError> {
        let wrapper = self.resolve(&request)?;
        let queues = self.intake()?;
        let kind = JobKind::Recheck {
            seen,
            reply: Box::new(done),
        };
        self.try_enqueue(&queues, Job::new(request, wrapper, None, kind))
    }

    fn try_enqueue(&self, queues: &[Sender<Job>], job: Job) -> Result<(), ServerError> {
        match queues[job.shard(queues.len())].try_send(job) {
            Ok(()) => {
                self.shared
                    .metrics
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(job)) => {
                job.disarm();
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Backpressure)
            }
            Err(TrySendError::Disconnected(job)) => {
                job.disarm();
                Err(ServerError::ShuttingDown)
            }
        }
    }

    /// Submit and wait: the synchronous client call.
    pub fn execute(&self, request: ExtractionRequest) -> Result<ExtractionResponse, ServerError> {
        self.submit(request)?.wait()
    }

    /// A point-in-time view of throughput, latency, queues and cache.
    pub fn metrics(&self) -> MetricsSnapshot {
        let queue_depths = {
            let queues = self.queues.read().expect("queues poisoned");
            if queues.is_empty() {
                vec![0; self.config.shards]
            } else {
                queues.iter().map(|q| q.len()).collect()
            }
        };
        MetricsSnapshot::collect(
            &self.shared.metrics,
            queue_depths,
            self.workers.lock().expect("workers poisoned").len(),
            self.shared.store.cache_stats(),
            self.shared.store.store_stats(),
        )
    }

    /// A cheap point-in-time sample of the pool's counters for periodic
    /// monitoring: raw totals, queue occupancy and two latency
    /// quantiles, with none of the per-stage summary allocation
    /// [`metrics`](ExtractionServer::metrics) performs. This is the
    /// sampler hook the gateway's metrics-history thread calls once per
    /// tick.
    pub fn sample(&self) -> PoolSample {
        let queue_depth = {
            let queues = self.queues.read().expect("queues poisoned");
            queues.iter().map(|q| q.len() as u64).sum()
        };
        let metrics = &self.shared.metrics;
        let cache = self.shared.store.cache_stats();
        let store = self.shared.store.store_stats();
        PoolSample {
            submitted: metrics.submitted.load(Ordering::Relaxed),
            completed: metrics.completed.load(Ordering::Relaxed),
            errors: metrics.errors.load(Ordering::Relaxed),
            rejected: metrics.rejected.load(Ordering::Relaxed),
            queue_depth,
            queue_capacity: (self.config.shards * self.config.queue_capacity) as u64,
            latency_p99_us: metrics.latency.quantile_us(0.99).unwrap_or(0),
            exec_p99_us: metrics
                .stages
                .get(Stage::PlanExec)
                .quantile_us(0.99)
                .unwrap_or(0),
            exec_buckets: metrics.stages.get(Stage::PlanExec).buckets(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            store_write_errors: store.write_errors,
        }
    }

    /// The stored entry — result, XML and provenance — for `key`, from
    /// either tier of the result store, without counting a hit or miss.
    /// This backs the gateway's `GET /provenance/{key}` endpoint.
    pub fn provenance(&self, key: &CacheKey) -> Option<Arc<CachedExtraction>> {
        self.shared.store.peek(key)
    }

    /// Graceful shutdown through a shared handle (e.g. an
    /// `Arc<ExtractionServer>` a frontend also holds), in strict drain
    /// order:
    ///
    /// 1. intake stops — the shard senders are dropped, so `submit` /
    ///    [`try_serve`](Self::try_serve) return
    ///    [`ServerError::ShuttingDown`] from now on;
    /// 2. workers drain everything already queued, answering every
    ///    outstanding callback;
    /// 3. the worker threads are joined.
    ///
    /// Every queued job therefore answers: drained jobs with their real
    /// result, and a job destroyed unprocessed with
    /// [`ServerError::Canceled`] — so a thread blocked in
    /// [`JobTicket::wait`] never hangs. The call is idempotent; a
    /// concurrent or repeated call joins whatever threads remain.
    pub fn initiate_shutdown(&self) -> ShutdownReport {
        // Step 1: stop intake. Blocking `submit` calls hold the read
        // lock while waiting for queue room, so this write acquisition
        // also orders shutdown after any in-progress enqueue — those
        // jobs are part of the drain, not lost.
        self.queues.write().expect("queues poisoned").clear();
        // Steps 2+3: workers drain their disconnected queues, then exit.
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        let workers_joined = workers.len();
        for handle in workers {
            let _ = handle.join();
        }
        ShutdownReport {
            workers_joined,
            jobs_completed: self.shared.metrics.completed.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown for an exclusive owner: consumes the server so
    /// further use is a compile error. Equivalent to
    /// [`initiate_shutdown`](ExtractionServer::initiate_shutdown).
    pub fn shutdown(self) -> ShutdownReport {
        self.initiate_shutdown()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

fn worker_loop(rx: Receiver<Job>, shared: Arc<Shared>) {
    while let Ok(mut job) = rx.recv() {
        match job.kind.take() {
            Some(JobKind::Extract(reply)) => {
                let outcome = contained(&job, || process(&job, &shared));
                shared.record_outcome(
                    &job.request,
                    job.wrapper.version,
                    outcome.as_ref().ok().map(|r| (&r.stages, r.cache_hit)),
                    job.submitted_at,
                );
                reply(outcome);
            }
            Some(JobKind::Recheck { seen, reply }) => {
                let outcome = contained(&job, || recheck(&job, seen.as_deref(), &shared));
                shared.record_outcome(
                    &job.request,
                    job.wrapper.version,
                    outcome.as_ref().ok().map(|(_, stages)| (stages, false)),
                    job.submitted_at,
                );
                reply(outcome.map(|(found, _)| found));
            }
            // Only a failed submission empties a job, and it is never
            // queued.
            None => {}
        }
    }
}

/// Run one job's work with a panicking wrapper (or web source)
/// contained: a dead worker would strand every job queued behind it, so
/// the panic becomes an error answer instead.
fn contained<T>(
    job: &Job,
    work: impl FnOnce() -> Result<T, ServerError>,
) -> Result<T, ServerError> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        let message = panic_message(payload);
        error_event!(
            "worker_panic",
            "request_id" => job.request.trace.as_deref().unwrap_or(""),
            "wrapper" => &job.request.wrapper,
            "url" => job.request.source.url(),
            "error" => &message,
        );
        Err(ServerError::Internal(message))
    })
}

/// A job's entry page, fetched for `Web` sources.
struct Page<'a> {
    url: &'a str,
    html: Cow<'a, str>,
    /// Fetched from the live web: crawl targets resolve against it too.
    from_web: bool,
}

impl Page<'_> {
    /// Where crawl targets resolve: the live web for a `Web` request;
    /// nowhere for an `Inline` one (the client shipped one page).
    fn crawl_web<'s>(&self, shared: &'s Shared) -> Option<&'s (dyn WebSource + Send + Sync)> {
        self.from_web.then_some(shared.web.as_ref())
    }
}

/// The prologue every job kind shares: fetch a `Web` page, compute its
/// store key, and feed the change tracker — a changed body drops the
/// stale entry instead of leaving it to age out of the LRU. `stores`
/// says whether the job keeps its result under the key (see
/// [`SourceTrackers::observe`]).
fn fetch_page<'a>(
    job: &'a Job,
    shared: &Shared,
    stores: bool,
    stages: &mut StageTimes,
) -> Result<(Page<'a>, CacheKey), ServerError> {
    stages.add(Stage::QueueWait, job.submitted_at.elapsed());
    let url = job.request.source.url();
    let (html, from_web) = match &job.request.source {
        RequestSource::Inline { html, .. } => (Cow::Borrowed(html.as_str()), false),
        RequestSource::Web { url } => {
            let fetch_started = Instant::now();
            let body = shared.web.fetch(url);
            stages.add(Stage::Fetch, fetch_started.elapsed());
            (
                Cow::Owned(body.ok_or_else(|| ServerError::FetchFailed(url.clone()))?),
                true,
            )
        }
    };
    let key = CacheKey {
        wrapper: job.wrapper.name.clone(),
        plan: job.wrapper.plan_id,
        content: job.content.unwrap_or_else(|| content_address(url, &html)),
    };
    if from_web {
        if let Some(stale) = shared.sources.observe(&job.wrapper.name, url, &key, stores) {
            shared.store.invalidate(&stale);
        }
    }
    Ok((
        Page {
            url,
            html,
            from_web,
        },
        key,
    ))
}

/// Execute the job's optimized plan over `page`: the compile-once fast
/// path shared by every job of this wrapper version — no AST clone, no
/// per-request regex compilation (concepts are baked into the plan),
/// rule schedule / fused path automata / hoist memo applied. The probe
/// feeds this version's per-rule counters and splits out the
/// fetch/parse time spent inside the run. Returns the result and the
/// crawl manifest of every page fetched beyond the entry page.
fn run_plan(
    job: &Job,
    shared: &Shared,
    page: &Page<'_>,
    stages: &mut StageTimes,
) -> (ExtractionResult, Vec<CrawlRecord>) {
    let spec = &job.wrapper.spec;
    let pinned = PinnedPage {
        url: page.url,
        html: &page.html,
        rest: page.crawl_web(shared),
    };
    let recorder = RecordingWeb {
        inner: &pinned,
        entry: page.url,
        fetched: RefCell::new(Vec::new()),
    };
    let probe = ExecProbe::new(Some(job.wrapper.telemetry.clone()));
    let exec_started = Instant::now();
    let result = Extractor::from_optimized(spec.optimized.clone(), &recorder)
        .with_options(spec.options.clone())
        .with_probe(&probe)
        .run();
    stages.add(Stage::PlanExec, exec_started.elapsed());
    stages.add_ns(Stage::Parse, probe.parse_ns());
    stages.add_ns(Stage::Fetch, probe.fetch_ns());
    (result, recorder.fetched.into_inner())
}

fn process(job: &Job, shared: &Shared) -> Result<ExtractionResponse, ServerError> {
    let mut stages = StageTimes::new();
    let (page, key) = fetch_page(job, shared, true, &mut stages)?;
    // A candidate only counts as a hit once its crawl manifest
    // revalidates — the entry page being unchanged is not enough for a
    // wrapper that crawled beyond it. A manifest recorded with the
    // other fetch capability (live vs. self-contained) cannot be judged
    // here: recompute, but leave the entry alone — it is still valid
    // for requests of its own kind.
    let cache_started = Instant::now();
    if let Some((cached, memo)) = shared.store.peek_entry(&key) {
        if cached.crawl.is_empty() || cached.crawl_live == page.from_web {
            if crawl_current(&cached.crawl, page.crawl_web(shared)) {
                return Ok(shared.hit_response(
                    &job.wrapper,
                    key,
                    (cached, memo),
                    job.submitted_at,
                    cache_started,
                    stages,
                ));
            }
            shared.store.invalidate(&key);
        }
        shared.store.record_miss();
    } else {
        shared.store.record_miss();
    }
    stages.add(Stage::CacheLookup, cache_started.elapsed());
    let (result, crawl) = run_plan(job, shared, &page, &mut stages);
    let spec = &job.wrapper.spec;
    let serialize_started = Instant::now();
    let xml = lixto_xml::to_string(&to_xml(&result, &spec.design));
    stages.add(Stage::Serialize, serialize_started.elapsed());
    // Record the derivation beside the result: which rule produced each
    // instance (index-parallel to the base), from which page.
    let instances = result
        .base
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| InstanceProvenance {
            pattern: inst.pattern.to_string(),
            parent: inst.parent,
            rule: result.producing_rule(i),
            text: result.base.text_of(i, &result.docs),
        })
        .collect();
    let provenance = Provenance {
        wrapper: job.wrapper.name.clone(),
        version: job.wrapper.version,
        plan: job.wrapper.plan_id,
        source_url: page.url.to_string(),
        source_hash: fxhash64(page.html.as_bytes()),
        instances,
    };
    let value = Arc::new(CachedExtraction {
        result,
        xml,
        crawl,
        crawl_live: page.from_web,
        provenance,
    });
    shared.store.insert(key.clone(), value.clone());
    Ok(ExtractionResponse {
        wrapper: job.wrapper.name.clone(),
        version: job.wrapper.version,
        key,
        result: value,
        cache_hit: false,
        latency: job.submitted_at.elapsed(),
        stages,
        memo: None,
    })
}

/// A watch recheck (see [`ExtractionServer::try_recheck`]): the shared
/// prologue, then either [`Recheck::Unchanged`] or the plan's instance
/// snapshot. Returns the stage times beside the outcome.
fn recheck(
    job: &Job,
    seen: Option<&Seen>,
    shared: &Shared,
) -> Result<(Recheck, StageTimes), ServerError> {
    let mut stages = StageTimes::new();
    let (page, key) = fetch_page(job, shared, false, &mut stages)?;
    if let Some(seen) = seen.filter(|seen| seen.key == key) {
        if crawl_current(&seen.crawl, page.crawl_web(shared)) {
            return Ok((Recheck::Unchanged, stages));
        }
    }
    let (result, crawl) = run_plan(job, shared, &page, &mut stages);
    let base = &result.base;
    let snapshot = ExtractionSnapshot::from_pairs(
        base.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (&*inst.pattern, base.text_of(i, &result.docs))),
    );
    let seen = Seen { key, crawl };
    Ok((Recheck::Extracted { seen, snapshot }, stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lixto_core::XmlDesign;
    use lixto_elog::StaticWeb;

    const WRAPPER: &str = r#"
        offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X).
        name(S, X)  :- offer(_, S), subelem(S, (.b, []), X).
    "#;

    fn page(items: &[&str]) -> String {
        let mut h = String::from("<html><body><ul>");
        for it in items {
            h.push_str(&format!("<li><b>{it}</b></li>"));
        }
        h.push_str("</ul></body></html>");
        h
    }

    fn server_with(web: Arc<dyn WebSource + Send + Sync>) -> ExtractionServer {
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        ExtractionServer::start(ServerConfig::default(), registry, web)
    }

    fn inline_req(items: &[&str]) -> ExtractionRequest {
        ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version: None,
            source: RequestSource::Inline {
                url: "http://shop/".into(),
                html: page(items),
            },
        }
    }

    #[test]
    fn executes_inline_request_and_caches_repeats() {
        let server = server_with(Arc::new(StaticWeb::new()));
        let first = server
            .execute(inline_req(&["espresso", "grinder"]))
            .unwrap();
        assert!(!first.cache_hit);
        assert!(first.xml().contains("espresso"));
        assert_eq!(first.version, 1);
        let second = server
            .execute(inline_req(&["espresso", "grinder"]))
            .unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.xml(), second.xml());
        assert_eq!(first.extraction(), second.extraction());
        let snap = server.metrics();
        assert_eq!(snap.completed, 2);
        assert!(snap.cache.hits >= 1);
        let report = server.shutdown();
        assert_eq!(report.workers_joined, 4);
        assert_eq!(report.jobs_completed, 2);
    }

    #[test]
    fn same_bytes_at_different_url_do_not_share_cache_entries() {
        let server = server_with(Arc::new(StaticWeb::new()));
        let html = page(&["only-offer"]);
        let at_entry = server
            .execute(ExtractionRequest {
                trace: None,
                wrapper: "shop".into(),
                version: None,
                source: RequestSource::Inline {
                    url: "http://shop/".into(),
                    html: html.clone(),
                },
            })
            .unwrap();
        assert!(at_entry.xml().contains("only-offer"));
        // Same bytes served at a URL the wrapper's entry atom does not
        // match: a different document, so no cache hit and an empty
        // extraction — not the first request's result.
        let elsewhere = server
            .execute(ExtractionRequest {
                trace: None,
                wrapper: "shop".into(),
                version: None,
                source: RequestSource::Inline {
                    url: "http://elsewhere/".into(),
                    html,
                },
            })
            .unwrap();
        assert!(!elsewhere.cache_hit);
        assert!(!elsewhere.xml().contains("only-offer"));
        server.shutdown();
    }

    #[test]
    fn unknown_wrapper_and_version_error_fast() {
        let server = server_with(Arc::new(StaticWeb::new()));
        assert_eq!(
            server
                .execute(ExtractionRequest {
                    trace: None,
                    wrapper: "nope".into(),
                    version: None,
                    source: RequestSource::Web { url: "u".into() },
                })
                .unwrap_err(),
            ServerError::UnknownWrapper("nope".into())
        );
        assert_eq!(
            server
                .execute(ExtractionRequest {
                    trace: None,
                    wrapper: "shop".into(),
                    version: Some(9),
                    source: RequestSource::Web { url: "u".into() },
                })
                .unwrap_err(),
            ServerError::UnknownVersion {
                wrapper: "shop".into(),
                version: 9
            }
        );
        server.shutdown();
    }

    #[test]
    fn web_source_fetches_and_change_invalidates() {
        // A mutable web page: first two requests see body A (one miss,
        // one hit), then the page changes and the stale entry must be
        // invalidated, not merely missed.
        struct MutableWeb {
            body: Mutex<String>,
        }
        impl WebSource for MutableWeb {
            fn fetch(&self, url: &str) -> Option<String> {
                (url == "http://shop/").then(|| self.body.lock().unwrap().clone())
            }
        }
        let web = Arc::new(MutableWeb {
            body: Mutex::new(page(&["first"])),
        });
        let server = server_with(web.clone());
        let req = ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version: None,
            source: RequestSource::Web {
                url: "http://shop/".into(),
            },
        };
        let a1 = server.execute(req.clone()).unwrap();
        let a2 = server.execute(req.clone()).unwrap();
        assert!(!a1.cache_hit && a2.cache_hit);
        *web.body.lock().unwrap() = page(&["second"]);
        let b = server.execute(req.clone()).unwrap();
        assert!(!b.cache_hit);
        assert!(b.xml().contains("second"));
        let snap = server.metrics();
        assert_eq!(snap.cache.invalidations, 1);
        // 404s surface as FetchFailed.
        assert_eq!(
            server
                .execute(ExtractionRequest {
                    trace: None,
                    wrapper: "shop".into(),
                    version: None,
                    source: RequestSource::Web {
                        url: "http://gone/".into()
                    },
                })
                .unwrap_err(),
            ServerError::FetchFailed("http://gone/".into())
        );
        server.shutdown();
    }

    #[test]
    fn versions_execute_independently() {
        let server = server_with(Arc::new(StaticWeb::new()));
        server
            .registry()
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers_v2"))
            .unwrap();
        let latest = server.execute(inline_req(&["x"])).unwrap();
        assert_eq!(latest.version, 2);
        assert!(latest.xml().starts_with("<offers_v2"));
        let mut pinned = inline_req(&["x"]);
        pinned.version = Some(1);
        let v1 = server.execute(pinned).unwrap();
        assert_eq!(v1.version, 1);
        assert!(v1.xml().starts_with("<offers"));
        assert!(!v1.cache_hit, "different versions must not share entries");
        server.shutdown();
    }

    #[test]
    fn submit_after_shutdown_not_possible_and_tickets_resolve() {
        let server = server_with(Arc::new(StaticWeb::new()));
        // In-flight tickets resolve before shutdown returns.
        let tickets: Vec<JobTicket> = (0..8)
            .map(|i| {
                server
                    .submit(inline_req(&["item", &format!("v{}", i % 2)]))
                    .unwrap()
            })
            .collect();
        let report = server.shutdown();
        assert_eq!(report.workers_joined, 4);
        assert_eq!(report.jobs_completed, 8);
        for t in tickets {
            assert!(t.wait().is_ok(), "queued jobs drain during shutdown");
        }
    }

    /// A wrapper that crawls from its entry page to a subpage via
    /// `attrbind` + `document(U)`.
    const CRAWLER: &str = r#"
        link(S, X)  :- document("http://start/", S), subelem(S, (?.a, []), X).
        page(S, X)  :- link(_, S), attrbind(S, href, U), document(U, X).
        para(S, X)  :- page(_, S), subelem(S, (?.p, []), X).
    "#;

    #[test]
    fn crawl_aware_cache_rejects_stale_subpages() {
        // Entry page unchanged, subpage mutated: the entry content
        // address still matches, so only crawl-manifest revalidation can
        // stop the stale result from being served.
        struct TwoPageWeb {
            sub_body: Mutex<String>,
        }
        impl WebSource for TwoPageWeb {
            fn fetch(&self, url: &str) -> Option<String> {
                match url {
                    "http://start/" => {
                        Some("<body><a href='http://sub/'>next</a></body>".to_string())
                    }
                    "http://sub/" => Some(self.sub_body.lock().unwrap().clone()),
                    _ => None,
                }
            }
        }
        let web = Arc::new(TwoPageWeb {
            sub_body: Mutex::new("<body><p>alpha</p></body>".to_string()),
        });
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("crawler", CRAWLER, XmlDesign::new().root("pages"))
            .unwrap();
        let server = ExtractionServer::start(ServerConfig::default(), registry, web.clone());
        let req = ExtractionRequest {
            trace: None,
            wrapper: "crawler".into(),
            version: None,
            source: RequestSource::Web {
                url: "http://start/".into(),
            },
        };
        let first = server.execute(req.clone()).unwrap();
        assert!(!first.cache_hit);
        assert!(first.xml().contains("alpha"));
        assert_eq!(
            first.result.crawl.len(),
            1,
            "the subpage fetch must be recorded in the crawl manifest"
        );
        // Unchanged: a revalidated hit.
        let second = server.execute(req.clone()).unwrap();
        assert!(second.cache_hit);
        // Mutate only the subpage; the entry page (and so the cache key)
        // is untouched.
        *web.sub_body.lock().unwrap() = "<body><p>beta</p></body>".to_string();
        let third = server.execute(req.clone()).unwrap();
        assert!(!third.cache_hit, "stale subpage must not be served");
        assert!(third.xml().contains("beta"));
        let snap = server.metrics();
        assert!(snap.cache.invalidations >= 1);
        server.shutdown();
    }

    #[test]
    fn inline_requests_have_empty_crawl_manifest_for_single_page_wrappers() {
        let server = server_with(Arc::new(StaticWeb::new()));
        let response = server.execute(inline_req(&["x"])).unwrap();
        assert!(response.result.crawl.is_empty());
        server.shutdown();
    }

    #[test]
    fn single_page_wrappers_share_cache_across_inline_and_web_sources() {
        // For a non-crawling wrapper the manifest is empty, so an Inline
        // request and a Web fetch of the same document must share one
        // entry — and never invalidate each other.
        let html = page(&["shared"]);
        let mut web = StaticWeb::new();
        web.put("http://shop/", html.clone());
        let server = server_with(Arc::new(web));
        let web_req = ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version: None,
            source: RequestSource::Web {
                url: "http://shop/".into(),
            },
        };
        let inline = ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version: None,
            source: RequestSource::Inline {
                url: "http://shop/".into(),
                html,
            },
        };
        assert!(!server.execute(web_req.clone()).unwrap().cache_hit);
        assert!(server.execute(inline.clone()).unwrap().cache_hit);
        assert!(server.execute(web_req).unwrap().cache_hit);
        assert!(server.execute(inline).unwrap().cache_hit);
        let snap = server.metrics();
        assert_eq!(snap.cache.invalidations, 0);
        assert_eq!(snap.cache.misses, 1);
        server.shutdown();
    }

    #[test]
    fn shared_handle_shutdown_resolves_outstanding_tickets() {
        // The gateway scenario: the pool lives in an Arc, handler threads
        // hold JobTickets, and shutdown comes in through a *shared*
        // reference. Every wait() must resolve — Ok for drained jobs,
        // Canceled for destroyed ones — and never hang.
        let server = Arc::new(server_with(Arc::new(StaticWeb::new())));
        let mut holders = Vec::new();
        for i in 0..12 {
            let ticket = server
                .submit(inline_req(&["held", &format!("{i}")]))
                .unwrap();
            holders.push(std::thread::spawn(move || ticket.wait()));
        }
        let report = server.initiate_shutdown();
        assert_eq!(report.workers_joined, 4);
        for h in holders {
            let outcome = h.join().expect("holder thread panicked");
            assert!(
                matches!(outcome, Ok(_) | Err(ServerError::Canceled)),
                "ticket resolved to {outcome:?}, not a hang"
            );
        }
        // Intake is closed and the call is idempotent.
        assert_eq!(
            server.submit(inline_req(&["late"])).unwrap_err(),
            ServerError::ShuttingDown
        );
        assert!(matches!(
            server.try_serve(inline_req(&["late"]), |_| {}),
            Err(ServerError::ShuttingDown)
        ));
        let again = server.initiate_shutdown();
        assert_eq!(again.workers_joined, 0);
        // Metrics remain queryable after shutdown.
        let snap = server.metrics();
        assert_eq!(snap.queue_depths.len(), 4);
        assert_eq!(snap.workers, 0);
    }

    #[test]
    fn worker_contains_panics_as_internal_errors() {
        struct PanickyWeb;
        impl WebSource for PanickyWeb {
            fn fetch(&self, _url: &str) -> Option<String> {
                panic!("fetch exploded");
            }
        }
        let server = server_with(Arc::new(PanickyWeb));
        let err = server
            .execute(ExtractionRequest {
                trace: None,
                wrapper: "shop".into(),
                version: None,
                source: RequestSource::Web {
                    url: "http://shop/".into(),
                },
            })
            .unwrap_err();
        assert!(
            matches!(&err, ServerError::Internal(msg) if msg.contains("fetch exploded")),
            "got {err:?}"
        );
        // The worker survived the panic and keeps serving.
        let ok = server.execute(inline_req(&["still-alive"])).unwrap();
        assert!(ok.xml().contains("still-alive"));
        let snap = server.metrics();
        assert_eq!(snap.errors, 1);
        server.shutdown();
    }

    #[test]
    fn reply_runs_exactly_once_with_the_outcome() {
        let server = server_with(Arc::new(StaticWeb::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        let served = server
            .try_serve(inline_req(&["answered"]), move |outcome| {
                tx.send(outcome).unwrap()
            })
            .unwrap();
        assert!(
            matches!(served, Served::Queued),
            "an empty cache cannot answer on the calling thread"
        );
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the callback ran");
        assert!(outcome.unwrap().xml().contains("answered"));
        server.shutdown();
        // The callback, and the sender it owned, went with its one run:
        // no second answer, not even a `Canceled` through shutdown.
        assert!(rx.recv().is_err(), "exactly one answer");
    }

    /// A callback that counts its runs in `fired`.
    fn counting<T: 'static>(
        fired: &Arc<std::sync::atomic::AtomicUsize>,
    ) -> impl FnOnce(Result<T, ServerError>) + Send + 'static {
        let fired = fired.clone();
        move |_| {
            fired.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn reply_answers_errored_jobs_and_never_runs_on_failed_submission() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        // A worker-side error (panic containment) is answered like any
        // outcome — the frontend's parked connection must always be
        // woken.
        struct PanickyWeb;
        impl WebSource for PanickyWeb {
            fn fetch(&self, _url: &str) -> Option<String> {
                panic!("fetch exploded");
            }
        }
        let web_req = || ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version: None,
            source: RequestSource::Web {
                url: "http://shop/".into(),
            },
        };
        let server = server_with(Arc::new(PanickyWeb));
        let (tx, rx) = mpsc::channel();
        let served = server
            .try_serve(web_req(), move |outcome| tx.send(outcome).unwrap())
            .unwrap();
        assert!(
            matches!(served, Served::Queued),
            "a web source is always queued"
        );
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10))
                .expect("errored job answered"),
            Err(ServerError::Internal(_))
        ));
        server.shutdown();

        // A submission that fails outright hands back an error instead,
        // so its callback must never run.
        struct BlockingWeb(Mutex<bool>, std::sync::Condvar);
        impl WebSource for BlockingWeb {
            fn fetch(&self, _url: &str) -> Option<String> {
                let mut open = self.0.lock().unwrap();
                while !*open {
                    open = self.1.wait(open).unwrap();
                }
                None
            }
        }
        let gate = Arc::new(BlockingWeb(Mutex::new(false), std::sync::Condvar::new()));
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let server = ExtractionServer::start(
            ServerConfig {
                shards: 1,
                workers_per_shard: 1,
                queue_capacity: 1,
                cache_capacity: 4,
                store: None,
            },
            registry,
            gate.clone(),
        );
        // Wedge the worker and fill the one-slot queue; every rejected
        // attempt's callback shares `queued_tx`, so a stray run would
        // show up as a second answer below.
        let occupant = server.submit(web_req()).unwrap();
        let (queued_tx, queued) = mpsc::channel();
        loop {
            let tx = queued_tx.clone();
            match server.try_serve(web_req(), move |outcome| tx.send(outcome).unwrap()) {
                Ok(Served::Queued) => break,
                Ok(Served::Hit(_)) => panic!("a web source is always queued"),
                Err(ServerError::Backpressure) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        // ...so these submissions are rejected, of both job kinds.
        let fired = Arc::new(AtomicUsize::new(0));
        assert_eq!(
            server.try_serve(web_req(), counting(&fired)).unwrap_err(),
            ServerError::Backpressure
        );
        assert_eq!(
            server
                .try_recheck(web_req(), None, counting(&fired))
                .unwrap_err(),
            ServerError::Backpressure
        );
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let _ = occupant.wait();
        assert!(matches!(
            queued.recv_timeout(Duration::from_secs(10)),
            Ok(Err(ServerError::FetchFailed(_)))
        ));
        server.initiate_shutdown();
        // After shutdown began, submissions fail with `ShuttingDown`.
        assert_eq!(
            server.try_serve(web_req(), counting(&fired)).unwrap_err(),
            ServerError::ShuttingDown
        );
        assert_eq!(
            server
                .try_recheck(web_req(), None, counting(&fired))
                .unwrap_err(),
            ServerError::ShuttingDown
        );
        assert!(queued.try_recv().is_err(), "one answer for the queued job");
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "a failed submission's callback never runs, even through drop and shutdown"
        );
    }

    #[test]
    fn recheck_jobs_destroyed_unprocessed_answer_canceled() {
        // Extraction jobs alike: a job dropped before any worker ran it
        // answers `Canceled`, once.
        let server = server_with(Arc::new(StaticWeb::new()));
        let wrapper = server.registry().latest("shop").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let recheck_tx = tx.clone();
        let kinds = [
            JobKind::Recheck {
                seen: None,
                reply: Box::new(move |outcome: Result<Recheck, ServerError>| {
                    recheck_tx.send(outcome.err()).unwrap()
                }),
            },
            JobKind::Extract(Box::new(move |outcome| tx.send(outcome.err()).unwrap())),
        ];
        for kind in kinds {
            drop(Job::new(
                inline_req(&["never"]),
                wrapper.clone(),
                None,
                kind,
            ));
            assert_eq!(rx.try_recv(), Ok(Some(ServerError::Canceled)));
        }
        assert!(rx.try_recv().is_err(), "exactly one answer per job");
        server.shutdown();
    }

    /// `try_serve`, expecting the request to be queued; waits for the
    /// answer.
    fn serve_queued(server: &ExtractionServer, request: ExtractionRequest) -> ExtractionResponse {
        let (tx, rx) = std::sync::mpsc::channel();
        match server.try_serve(request, move |outcome| tx.send(outcome).unwrap()) {
            Ok(Served::Queued) => rx
                .recv_timeout(Duration::from_secs(10))
                .expect("answered")
                .unwrap(),
            other => panic!("expected the pool to answer, got {other:?}"),
        }
    }

    #[test]
    fn hot_hits_are_served_on_the_calling_thread_and_counted_like_worker_hits() {
        use std::sync::atomic::AtomicBool;

        let server = server_with(Arc::new(StaticWeb::new()));
        let first = serve_queued(&server, inline_req(&["espresso"]));
        assert!(!first.cache_hit);
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let served = server
            .try_serve(inline_req(&["espresso"]), move |_| {
                flag.store(true, Ordering::SeqCst)
            })
            .unwrap();
        let Served::Hit(hit) = served else {
            panic!("a hot-tier entry must be answered inline");
        };
        assert!(hit.cache_hit);
        assert_eq!(hit.xml(), first.xml());
        assert_eq!(hit.key, first.key);
        assert!(
            !fired.load(Ordering::SeqCst),
            "a hit never runs its callback"
        );
        assert_eq!(Arc::strong_count(&fired), 1, "a hit drops its callback");
        let touched: Vec<Stage> = hit.stages.iter().map(|(s, _)| s).collect();
        assert_eq!(touched, vec![Stage::CacheLookup]);
        let snap = server.metrics();
        assert_eq!((snap.submitted, snap.completed), (2, 2));
        assert_eq!((snap.cache.hits, snap.cache.misses), (1, 1));
        let count = |name: &str| snap.stages.iter().find(|s| s.stage == name).unwrap().count;
        assert_eq!(count("cache"), 2);
        assert_eq!(count("queue_wait"), 1, "only the miss waited in a queue");
        assert_eq!(server.shared.metrics.latency.count(), 2);
        // Shutdown refuses hits too.
        server.initiate_shutdown();
        assert_eq!(
            server
                .try_serve(inline_req(&["espresso"]), |_| {})
                .unwrap_err(),
            ServerError::ShuttingDown
        );
    }

    #[test]
    fn web_sources_and_crawl_manifests_fall_through_to_the_pool() {
        let mut web = StaticWeb::new();
        web.put("http://shop/", page(&["web"]));
        let server = server_with(Arc::new(web));
        let web_req = ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version: None,
            source: RequestSource::Web {
                url: "http://shop/".into(),
            },
        };
        assert!(!serve_queued(&server, web_req.clone()).cache_hit);
        assert!(serve_queued(&server, web_req).cache_hit, "hit via the pool");
        server.shutdown();

        // An inline request whose wrapper crawled beyond its entry page:
        // the manifest needs a worker's revalidation.
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("crawler", CRAWLER, XmlDesign::new().root("pages"))
            .unwrap();
        let server = ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(StaticWeb::new()),
        );
        let crawl_req = ExtractionRequest {
            trace: None,
            wrapper: "crawler".into(),
            version: None,
            source: RequestSource::Inline {
                url: "http://start/".into(),
                html: "<body><a href='http://sub/'>next</a></body>".into(),
            },
        };
        let first = serve_queued(&server, crawl_req.clone());
        assert_eq!(first.result.crawl.len(), 1);
        let second = serve_queued(&server, crawl_req);
        assert!(second.cache_hit);
        assert!(second.stages.touched(Stage::QueueWait));
        server.shutdown();
    }

    #[test]
    fn disk_only_entries_are_answered_by_a_worker() {
        let dir = std::env::temp_dir().join(format!(
            "lixto-server-disk-only-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let start = || {
            let registry = Arc::new(WrapperRegistry::new());
            registry
                .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
                .unwrap();
            ExtractionServer::start(
                ServerConfig {
                    store: Some(StoreConfig::new(&dir)),
                    ..ServerConfig::default()
                },
                registry,
                Arc::new(StaticWeb::new()),
            )
        };
        let server = start();
        let first = serve_queued(&server, inline_req(&["durable"]));
        server.shutdown();
        // Warm restart: the entry is on disk only, so a worker reads it.
        let server = start();
        let warm = serve_queued(&server, inline_req(&["durable"]));
        assert!(warm.cache_hit);
        assert_eq!(warm.xml(), first.xml());
        assert_eq!(server.metrics().store.disk_hits, 1);
        // Promoted: now the calling thread answers.
        assert!(matches!(
            server.try_serve(inline_req(&["durable"]), |_| {}),
            Ok(Served::Hit(_))
        ));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn key_for(content: u64) -> CacheKey {
        CacheKey {
            wrapper: "w".into(),
            plan: 1,
            content,
        }
    }

    #[test]
    fn source_trackers_report_stale_key_only_on_change() {
        let trackers = SourceTrackers::new();
        // First sighting: a change, but nothing stale to invalidate.
        assert_eq!(trackers.observe("w", "http://a/", &key_for(10), true), None);
        // Unchanged content: no change, nothing stale.
        assert_eq!(trackers.observe("w", "http://a/", &key_for(10), true), None);
        // Changed content: the previous key comes back for invalidation.
        assert_eq!(
            trackers.observe("w", "http://a/", &key_for(11), true),
            Some(key_for(10))
        );
        assert_eq!(trackers.observe("w", "http://a/", &key_for(11), true), None);
        // An unrelated source does not disturb the first one's state.
        assert_eq!(trackers.observe("w", "http://b/", &key_for(11), true), None);
        assert_eq!(
            trackers.observe("w", "http://a/", &key_for(12), true),
            Some(key_for(11))
        );
    }

    #[test]
    fn source_trackers_report_only_stale_keys_that_were_stored() {
        let trackers = SourceTrackers::new();
        // Rechecks alone: the page changes, but nothing was stored, so
        // nothing is reported and the store is never consulted.
        assert_eq!(trackers.observe("w", "http://a/", &key_for(1), false), None);
        assert_eq!(trackers.observe("w", "http://a/", &key_for(2), false), None);
        // An interactive job stores the key a recheck saw last; a later
        // recheck of the same content keeps it marked stored, and the
        // next change reports it.
        assert_eq!(trackers.observe("w", "http://a/", &key_for(2), true), None);
        assert_eq!(trackers.observe("w", "http://a/", &key_for(2), false), None);
        assert_eq!(
            trackers.observe("w", "http://a/", &key_for(3), false),
            Some(key_for(2))
        );
        // Key 3 was only rechecked: the next change reports nothing.
        assert_eq!(trackers.observe("w", "http://a/", &key_for(4), false), None);
    }

    #[test]
    fn source_trackers_evict_coldest_entry_not_everything() {
        // One segment, room for two trackers.
        let trackers = SourceTrackers::with_limits(1, 2);
        assert_eq!(
            trackers.observe("w", "http://cold/", &key_for(1), true),
            None
        );
        assert_eq!(
            trackers.observe("w", "http://hot/", &key_for(2), true),
            None
        );
        // Keep "hot" fresh, then overflow: "cold" must be the casualty.
        assert_eq!(
            trackers.observe("w", "http://hot/", &key_for(2), true),
            None
        );
        assert_eq!(
            trackers.observe("w", "http://new/", &key_for(3), true),
            None
        );
        assert_eq!(trackers.tracked(), 2);
        // "hot" survived with its detector state intact: re-observing
        // the same content is still not a change.
        assert_eq!(
            trackers.observe("w", "http://hot/", &key_for(2), true),
            None
        );
        // "cold" was forgotten: it re-registers as a first sighting
        // rather than reporting key 1 as stale.
        assert_eq!(
            trackers.observe("w", "http://cold/", &key_for(9), true),
            None
        );
    }

    #[test]
    fn source_trackers_jammed_segment_does_not_block_other_segments() {
        let trackers = Arc::new(SourceTrackers::with_limits(8, 64));
        // Find a URL that hashes to a different segment than the jammed
        // one — with 8 segments one exists within a handful of tries.
        let jammed_url = "http://jammed/";
        let jammed_seg = trackers.segment_index("w", jammed_url);
        let other_url = (0..64)
            .map(|i| format!("http://other-{i}/"))
            .find(|u| trackers.segment_index("w", u) != jammed_seg)
            .expect("some url lands in another segment");
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        trackers.with_segment_locked("w", jammed_url, || {
            let trackers = trackers.clone();
            let other = other_url.clone();
            let worker = std::thread::spawn(move || {
                trackers.observe("w", &other, &key_for(5), true);
                let _ = done_tx.send(());
            });
            // The observation on the other segment must complete while
            // this segment's lock is held.
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("observe on a different segment completed despite the jammed one");
            worker.join().unwrap();
        });
    }
}
