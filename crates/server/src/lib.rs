//! # lixto-server
//!
//! The serving layer over the Lixto engines: an embeddable, concurrent
//! wrapper-execution service in the spirit of the paper's §6
//! Transformation Server deployments, where "wrappers run continuously
//! against changing web sources" and feed pipelines of postprocessors.
//! Where `lixto_transform` wires components into *pipes*, this crate
//! serves ad-hoc extraction *requests* at scale:
//!
//! * [`registry`] — named, versioned, compiled wrappers
//!   ([`WrapperRegistry`]); deploy a new version while the pool keeps
//!   executing the old one;
//! * [`server`] — the [`ExtractionServer`]: requests hash to one of N
//!   shards, each a bounded queue drained by worker threads (backpressure
//!   via blocking [`submit`](ExtractionServer::submit) or non-blocking
//!   [`try_serve`](ExtractionServer::try_serve), which event loops use
//!   and which answers hot-tier hits on the calling thread; every queued
//!   job answers its submitter's callback exactly once), with graceful
//!   [`shutdown`](ExtractionServer::shutdown) that drains queues and
//!   joins every thread;
//! * [`cache`] — content addressing: a [`CacheKey`] is the wrapper's
//!   plan fingerprint plus the FxHash of the document's URL and bytes,
//!   and it addresses a [`CachedExtraction`] with a crawl manifest (stale
//!   subpages are revalidated before a hit is served). The key is the
//!   store's staleness rule: a changed page has a new key, so its old
//!   entry is never served and only ages out. The module also holds the
//!   store's hot tier, a sharded LRU with exact hit/miss/eviction/
//!   invalidation counters ([`CacheStats`]);
//! * [`store`] — the durable [`TieredStore`]: the sharded LRU as hot
//!   tier over an append-only, log-structured disk tier with snapshot +
//!   WAL recovery, TTL and size-budget compaction, and a persisted
//!   [`Provenance`] record per entry (wrapper version, plan
//!   fingerprint, producing rule index, source page hash), so a
//!   restarted gateway serves previously-cached extractions — and can
//!   explain them — without recompute;
//! * [`metrics`] — a lock-free fixed-bucket latency histogram and the
//!   [`MetricsSnapshot`] API (throughput, p50/p99, queue depths, cache
//!   and store stats);
//! * [`watch`] — continuous extraction: a [`WatchRegistry`] of
//!   (wrapper, url, interval) subscriptions and a [`WatchScheduler`]
//!   that re-submits them through the pool and delivers instance-level
//!   diffs "only if the status changed between consecutive requests".
//!
//! # Durability directory convention
//!
//! The durable substrates live under one data directory (see
//! [`durability_layout`]): `<root>/wrappers` is the registry spool,
//! `<root>/store` the result store, `<root>/watches` the watch
//! subscription spool. One crate-private module, `linelog`, owns their
//! framing: the header line, field escaping, replay that skips and
//! counts corrupt records, torn-tail cut, append and atomic rewrite.

#![forbid(unsafe_code)]

pub mod cache;
mod linelog;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod store;
pub mod watch;

pub use lixto_core::XmlDesign;

pub use cache::{
    content_address, fxhash64, CacheKey, CacheStats, CachedExtraction, CrawlRecord, ResponseMemo,
};
pub use lixto_elog::{CompileError, ParseError, WrapperPlan};
pub use lixto_transform::{ChangedEntry, DiffEntry, InstanceDiff};
pub use metrics::{
    bucket_quantile_us, LatencyHistogram, MetricsSnapshot, ServerMetrics, StageHistograms,
    StageSummary, LATENCY_BUCKETS,
};
pub use registry::{DeployError, RegisteredWrapper, WrapperRegistry, WrapperSpec};
pub use server::{
    ExtractionRequest, ExtractionResponse, ExtractionServer, JobTicket, PoolSample, RequestSource,
    Served, ServerConfig, ServerError, ShutdownReport,
};
pub use store::{
    durability_layout, parse_provenance_key, provenance_key, DurabilityLayout, InstanceProvenance,
    Provenance, StoreConfig, StoreStats, TieredStore,
};
pub use watch::{WatchEvent, WatchRegistry, WatchScheduler, WatchSpec, WatchStatus};
