//! The HTTP gateway: an event-driven M:N connection multiplexer serving
//! the [`ExtractionServer`] over the wire.
//!
//! ## Architecture
//!
//! A small fixed set of **event-loop threads** (see
//! [`GatewayConfig::event_loops`]) each owns many non-blocking sockets,
//! driven by the dependency-free readiness module in
//! [`poll`](crate::poll). One acceptor thread assigns each accepted
//! connection to the least-loaded loop (bounded by
//! [`GatewayConfig::max_connections_per_loop`]; past every cap the
//! socket is refused with `503`) and wakes that loop through its
//! self-pipe. An idle keep-alive session therefore costs a few hundred
//! bytes of state, not a parked thread — thousands of mostly-idle
//! portal clients fit in a handful of threads.
//!
//! Each connection is a little state machine layered on the incremental
//! request parser in [`http`](crate::http):
//!
//! ```text
//!             bytes in                 complete request
//!   reading ───────────► (parse) ───────────────────────┐
//!      ▲  ▲                │ /extract, /extract/batch    │ other routes
//!      │  │                ▼                             ▼
//!      │  │            dispatched ──────────────────► writing
//!      │  │            (parked on pool tickets;          │
//!      │  │             completion via self-pipe;        │
//!      │  │             hot-tier hits skip it)           │ flushed
//!      │  └──────────────────────────────────────────────┘ keep-alive
//!      └── idle (empty buffer; evicted after `idle_timeout`)
//! ```
//!
//! Extraction dispatch is **asynchronous**: the loop submits through the
//! pool's [`try_serve_with_notify`](ExtractionServer::try_serve_with_notify)
//! and parks the connection; when the job resolves, the worker's
//! completion callback pushes a token into the loop's inbox and wakes
//! its self-pipe. A slow extraction therefore never stalls unrelated
//! connections sharing the loop, and a full shard queue surfaces as
//! `429 Too Many Requests` immediately. The exception is the common
//! case: an inline document whose result is in the pool's hot tier is
//! answered by that same call, on the loop, with no queue, worker or
//! wake — so cache hits keep answering even while every worker is busy.
//! A hit's body is a freshly written prefix plus the entry's memoised
//! `provenance_key`/`xml`/`patterns` tail, encoded once per hot-tier
//! entry (see `write_extraction_json`).
//!
//! Timeouts are threaded per state: `idle_timeout` evicts quiet
//! keep-alive sessions, `read_timeout` bounds how long one request may
//! take to arrive (a slow-loris client trickling bytes is answered
//! `408` and closed, without ever pinning the loop), and
//! `write_timeout` bounds a peer that stops reading its response.
//!
//! Graceful shutdown stops the acceptor, closes idle connections,
//! flushes in-flight responses (switched to `Connection: close`), waits
//! for parked extractions to resolve — the pool's own drain guarantees
//! every ticket answers — and joins all threads.
//!
//! ## Endpoints
//!
//! | Method & path           | Body → response |
//! |-------------------------|-----------------|
//! | `POST /extract`         | `{"wrapper", "version"?, "url", "html"?}` → XML + pattern instances |
//! | `POST /extract/batch`   | JSON array of `/extract` bodies → `{"count", "items": [{"status", "body"}]}`, partial failure preserved |
//! | `PUT /wrappers/{name}`  | `{"program", "root"?, "auxiliary"?}` → registered version |
//! | `GET /wrappers`         | the deployed catalog |
//! | `GET /provenance/{key}` | derivation of a stored result: wrapper version, plan fingerprint, source page hash, producing rule per instance |
//! | `GET /metrics`          | Prometheus text (cache, store, gateway, per-stage, per-rule, `lixto_alert_*` and `lixto_watch_*` series), or JSON with `Accept: application/json` |
//! | `GET /metrics/history`  | windowed rates/quantiles over the sampler's history ring (`?window=SECS&step=SECS`) |
//! | `GET /debug/health`     | SLO watchdog verdict (ok/degraded/critical), per-rule firing state, evidence window |
//! | `GET /debug/live`       | chunked ndjson stream of sampler ticks and alert transitions (`?events=N` bounds it) |
//! | `PUT /watches/{id}`     | `{"wrapper", "url", "interval_ms"?, "webhook"?}` → register (201) or replace (200) a continuous-extraction subscription |
//! | `GET /watches`          | every registered watch with its tick/event/error counters |
//! | `GET /watches/{id}`     | one watch's spec and counters |
//! | `DELETE /watches/{id}`  | unregister a watch |
//! | `GET /watches/{id}/events` | chunked ndjson stream of the watch's instance-level diff events (`?events=N` bounds it) |
//! | `GET /debug/wrappers/{name}` | per-rule execution telemetry of the wrapper's latest version |
//! | `GET /debug/slow`       | the slowest and most recent request spans |
//! | `GET /debug/requests/{id}` | one request's span by its `X-Request-Id` |
//! | `GET /healthz`          | liveness probe |
//! | `POST /admin/shutdown`  | request graceful shutdown |
//!
//! ## Request tracing
//!
//! Every `/extract` and `/extract/batch` request gets a trace id — the client's
//! `X-Request-Id` header when it passes validation (1–64 visible ASCII
//! characters), a minted one otherwise — echoed back in the response's
//! `x-request-id` header (batch item envelopes additionally carry a
//! per-item `request_id` suffixed `#i`). The id rides into the worker
//! pool on [`ExtractionRequest::trace`], so worker log events name the
//! request, and a span record (status, per-stage wall times, wake
//! latency) is retained for `GET /debug/requests/{id}` and
//! `GET /debug/slow`.
//!
//! Every `/extract` response carries a `provenance_key` — the stable
//! store key of the result (wrapper percent-encoded, then plan
//! fingerprint and content address as hex, `@`-separated). Feed it back
//! to `GET /provenance/{key}` — including after a gateway restart, when
//! the durable result store (see `lixto_server::store`) recovered the
//! entry from disk — to learn which wrapper version and rule produced
//! each extracted instance, from which page.
//!
//! `POST /extract/batch` amortizes HTTP framing over tiny documents:
//! one request carries many extraction items, each answered with the
//! exact status and JSON body the equivalent individual `POST /extract`
//! would have produced (so hits, misses, unknown wrappers and oversized
//! items coexist in one response).
//!
//! ```text
//! curl -X POST http://127.0.0.1:7878/extract/batch -d '[
//!   {"wrapper":"news","url":"http://press/finance"},
//!   {"wrapper":"ghost","url":"http://nowhere/"}
//! ]'
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lixto_obs::{
    unix_millis, warn_event, RuleStat, SpanBuffer, SpanRecord, Stage, StageTimes, TraceId,
};
use lixto_server::{
    parse_provenance_key, provenance_key, CacheKey, CachedExtraction, ChangedEntry, DeployError,
    DiffEntry, ExtractionRequest, ExtractionResponse, ExtractionServer, JobTicket,
    LatencyHistogram, RequestSource, Served, ServerError, WatchEvent, WatchRegistry,
    WatchScheduler, WatchSpec, WrapperSpec, XmlDesign,
};

use crate::client::{HttpClient, RetryPolicy};
use crate::http::{parse_request_with_body_limit, Limits, Request, RequestError, Response};
use crate::json::{obj, write_escaped, write_number, Json};
use crate::metrics::{watch_status_json, MetricInputs};
use crate::monitor::{Monitor, TickSample};
use crate::poll::{poll, PollFd, SelfPipe, POLLIN, POLLOUT};

/// Sizing and protocol knobs for [`HttpGateway::bind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Parser size limits (headers, single-request bodies). The batch
    /// endpoint's body allowance is
    /// [`max_batch_body_bytes`](GatewayConfig::max_batch_body_bytes).
    pub limits: Limits,
    /// How long an idle keep-alive connection (no partial request
    /// buffered) may sit between requests before the loop closes it.
    pub idle_timeout: Duration,
    /// Event-loop threads (at least one). Each owns many connections.
    pub event_loops: usize,
    /// Per-loop connection cap. With every loop at its cap, new
    /// connections are refused with `503 server_busy` + close.
    pub max_connections_per_loop: usize,
    /// How long one request may take to arrive in full once its first
    /// byte is in. A connection trickling bytes slower (slow loris) is
    /// evicted with `408` and closed.
    pub read_timeout: Duration,
    /// How long a response flush may stay blocked on a peer that is not
    /// reading before the connection is dropped.
    pub write_timeout: Duration,
    /// Maximum items in one `POST /extract/batch` request.
    pub max_batch_items: usize,
    /// Body-size allowance for `POST /extract/batch` (the batch carries
    /// many documents, so the single-request
    /// [`Limits::max_body_bytes`] would be too tight; individual items
    /// are still checked against the single-request limit).
    pub max_batch_body_bytes: usize,
    /// Sampling period of the monitor thread, which records a metrics
    /// snapshot into the history ring (`GET /metrics/history`), runs
    /// the SLO watchdog over it (`GET /debug/health`) and feeds
    /// `GET /debug/live`. A setting only so that tests can shorten the
    /// gateway's time scale; it belongs to an injectable clock once the
    /// gateway has one.
    pub monitor_interval: Duration,
    /// How many trailing samples the watchdog judges each tick (its
    /// evidence window is `monitor_interval × monitor_eval_ticks`). A
    /// test time-scale setting, like
    /// [`monitor_interval`](GatewayConfig::monitor_interval).
    pub monitor_eval_ticks: u32,
    /// The longest the watch scheduler sleeps in one go. It also wakes
    /// when the next watch falls due, a recheck resolved a diff or a
    /// watch is registered, so this is only a backstop. A test
    /// time-scale setting, like
    /// [`monitor_interval`](GatewayConfig::monitor_interval).
    pub watch_tick: Duration,
    /// Durability directory for watch subscriptions (see
    /// [`lixto_server::durability_layout`]'s `watches` path). `None`
    /// keeps them in memory; set, registered watches survive restarts.
    pub watch_spool: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(5),
            event_loops: 4,
            max_connections_per_loop: 4096,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_batch_items: 64,
            max_batch_body_bytes: 8 * 1024 * 1024,
            monitor_interval: Duration::from_secs(1),
            monitor_eval_ticks: 5,
            watch_tick: Duration::from_millis(250),
            watch_spool: None,
        }
    }
}

/// Bounded, reset-on-success exponential backoff for `accept(2)`
/// failures (`ECONNABORTED` mid-handshake, momentary `EMFILE`): the
/// acceptor must survive transient errors without spinning a core, yet
/// return to full accept rate the moment the condition clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptBackoff {
    initial: Duration,
    max: Duration,
    current: Option<Duration>,
}

impl AcceptBackoff {
    /// A backoff sleeping `initial` after the first failure, doubling
    /// per consecutive failure, never exceeding `max` (which is raised
    /// to `initial` if misconfigured below it).
    pub fn new(initial: Duration, max: Duration) -> AcceptBackoff {
        let initial = initial.max(Duration::from_micros(100));
        AcceptBackoff {
            initial,
            max: max.max(initial),
            current: None,
        }
    }

    /// A successful accept clears the streak: the next failure starts
    /// back at the initial sleep.
    pub fn on_success(&mut self) {
        self.current = None;
    }

    /// Record a failure and return how long to sleep before retrying.
    pub fn on_error(&mut self) -> Duration {
        let next = match self.current {
            None => self.initial,
            Some(cur) => cur.saturating_mul(2).min(self.max),
        };
        self.current = Some(next);
        next
    }

    /// Whether the last event was a failure (a sleep is in effect).
    pub fn is_backing_off(&self) -> bool {
        self.current.is_some()
    }
}

/// Counters the gateway keeps about itself (the pool's own metrics come
/// from [`ExtractionServer::metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewayStats {
    /// Connections accepted and served.
    pub connections: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Responses with a 4xx status.
    pub responses_4xx: u64,
    /// Responses with a 5xx status.
    pub responses_5xx: u64,
}

/// A completion token: which connection slot (and which incarnation of
/// it) a resolved extraction ticket belongs to, and when the worker
/// fired it — the loop measures its own wake-to-dispatch latency from
/// `finished_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Completion {
    slot: usize,
    generation: u64,
    finished_at: Instant,
}

/// Cross-thread mailbox of one event loop: the acceptor pushes adopted
/// sockets, pool workers push completion tokens, shutdown raises
/// `stop` — each followed by a self-pipe wake.
#[derive(Default)]
struct Inbox {
    accepted: Vec<TcpStream>,
    completions: Vec<Completion>,
    /// Lines to fan out to this loop's NDJSON subscribers.
    lines: Vec<StreamLine>,
    stop: bool,
}

/// One line of an NDJSON stream: its topic (`None` for the monitor's
/// `GET /debug/live`, `Some(watch id)` for `GET /watches/{id}/events`)
/// and the event, serialized once and shared across loops.
type StreamLine = (Option<Arc<String>>, Arc<String>);

/// The shared half of one event loop (the loop thread owns the
/// connections themselves).
struct LoopShared {
    pipe: SelfPipe,
    inbox: Mutex<Inbox>,
    /// Connections currently assigned (incremented by the acceptor at
    /// assignment, decremented by the loop on close) — the
    /// least-loaded-loop placement key and the per-loop cap gauge.
    load: AtomicUsize,
    /// Connections currently parked on extraction tickets, published by
    /// the loop each poll round — an event-loop health gauge (a loop
    /// whose parked count tracks its load is saturated on the pool, not
    /// on sockets).
    parked: AtomicUsize,
}

impl LoopShared {
    fn wake_with(&self, f: impl FnOnce(&mut Inbox)) {
        f(&mut self.inbox.lock().expect("loop inbox poisoned"));
        self.pipe.wake();
    }
}

struct SharedGateway {
    server: Arc<ExtractionServer>,
    config: GatewayConfig,
    loops: Vec<Arc<LoopShared>>,
    stop: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    connections: AtomicU64,
    requests: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// Completed request spans (recent ring + slowest list), served by
    /// `GET /debug/slow` and `GET /debug/requests/{id}`.
    spans: SpanBuffer,
    /// Completion-notify → event-loop dispatch latency (the `wake`
    /// stage), recorded for every completion token.
    wake: LatencyHistogram,
    /// The continuous-monitoring subsystem (history ring, SLO
    /// watchdog, live-stream subscriber count).
    monitor: Arc<Monitor>,
    /// The continuous-extraction subscriptions.
    watches: Arc<WatchRegistry>,
}

/// One event loop's gauges, copied into [`GatewayObservations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopGauges {
    /// Connections currently assigned to the loop.
    pub connections: usize,
    /// Of those, connections parked on extraction tickets.
    pub parked: usize,
}

/// Gateway-side observability gauges shown on `GET /metrics` (see
/// [`MetricInputs`]) next to the pool's counters: event-loop health,
/// wake latency, and per-rule execution telemetry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GatewayObservations {
    /// Per-event-loop connection gauges, in loop order.
    pub event_loops: Vec<LoopGauges>,
    /// Wake-latency observations recorded.
    pub wake_count: u64,
    /// Median wake latency in µs (0 if never observed).
    pub wake_p50_us: u64,
    /// 99th-percentile wake latency in µs (0 if never observed).
    pub wake_p99_us: u64,
    /// Per-rule counters of every registered wrapper's latest version,
    /// `(wrapper name, rule snapshots)` sorted by name.
    pub rules: Vec<(String, Vec<RuleStat>)>,
}

impl SharedGateway {
    fn stats(&self) -> GatewayStats {
        GatewayStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
        }
    }

    fn observations(&self) -> GatewayObservations {
        let event_loops = self
            .loops
            .iter()
            .map(|l| LoopGauges {
                connections: l.load.load(Ordering::Relaxed),
                parked: l.parked.load(Ordering::Relaxed),
            })
            .collect();
        let registry = self.server.registry();
        let rules = registry
            .catalog()
            .into_iter()
            .filter_map(|(name, _)| {
                let wrapper = registry.latest(&name)?;
                Some((name, wrapper.telemetry.snapshot()))
            })
            .collect();
        GatewayObservations {
            event_loops,
            wake_count: self.wake.count(),
            wake_p50_us: self.wake.quantile_us(0.50).unwrap_or(0),
            wake_p99_us: self.wake.quantile_us(0.99).unwrap_or(0),
            rules,
        }
    }

    /// Raise the stop flag and wake every loop so the drain begins.
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::Release);
        for event_loop in &self.loops {
            event_loop.wake_with(|inbox| inbox.stop = true);
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// The running HTTP front-end. Dropping it without calling
/// [`shutdown`](HttpGateway::shutdown) leaves the threads serving until
/// the process exits (like a detached server).
pub struct HttpGateway {
    addr: SocketAddr,
    shared: Arc<SharedGateway>,
    acceptor: std::thread::JoinHandle<()>,
    sampler: std::thread::JoinHandle<()>,
    watch_scheduler: WatchScheduler,
    loops: Vec<std::thread::JoinHandle<()>>,
}

/// How many of the most recent request spans the debug endpoints keep.
const RECENT_SPANS: usize = 256;
/// How many of the slowest request spans `GET /debug/slow` keeps.
const SLOW_SPANS: usize = 32;
/// How long (ms) a span may stay on the `GET /debug/slow` slowest list
/// before newer traffic ages it out, so the list reflects the recent
/// past, not all-time records.
const SLOW_SPAN_WINDOW_MS: u64 = 300_000;
/// How many samples the monitor's history ring keeps (600 × the default
/// 1 s interval ≈ 10 minutes).
const MONITOR_RETENTION: usize = 600;

impl HttpGateway {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the acceptor, event loops, monitor sampler and watch
    /// scheduler serving `server`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: GatewayConfig,
        server: Arc<ExtractionServer>,
    ) -> std::io::Result<HttpGateway> {
        let config = GatewayConfig {
            max_connections_per_loop: config.max_connections_per_loop.max(1),
            max_batch_items: config.max_batch_items.max(1),
            ..config
        };
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let loop_count = config.event_loops.max(1);
        let loop_shared: Vec<Arc<LoopShared>> = (0..loop_count)
            .map(|_| {
                Ok(Arc::new(LoopShared {
                    pipe: SelfPipe::new()?,
                    inbox: Mutex::new(Inbox::default()),
                    load: AtomicUsize::new(0),
                    parked: AtomicUsize::new(0),
                }))
            })
            .collect::<std::io::Result<_>>()?;
        let spans =
            SpanBuffer::new(RECENT_SPANS, SLOW_SPANS).with_slow_window_ms(SLOW_SPAN_WINDOW_MS);
        let monitor = Arc::new(Monitor::new(
            config.monitor_interval,
            MONITOR_RETENTION,
            config.monitor_eval_ticks,
        ));
        let watches = match &config.watch_spool {
            Some(dir) => WatchRegistry::with_spool(dir).unwrap_or_else(|e| {
                // A broken spool directory must not keep the gateway
                // from serving: fall back to an in-memory registry
                // (subscriptions won't survive restarts).
                warn_event!(
                    "watch_spool_unavailable",
                    "dir" => dir.display().to_string(),
                    "error" => e.to_string(),
                );
                WatchRegistry::new()
            }),
            None => WatchRegistry::new(),
        };
        let shared = Arc::new(SharedGateway {
            server,
            config,
            loops: loop_shared,
            stop: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            spans,
            wake: LatencyHistogram::new(),
            monitor,
            watches: Arc::new(watches),
        });
        let loops = (0..loop_count)
            .map(|i| {
                let ls = shared.loops[i].clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lixto-http-loop-{i}"))
                    .spawn(move || EventLoop::new(ls, shared).run())
                    .expect("spawn event loop")
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("lixto-http-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, shared))
                .expect("spawn acceptor")
        };
        let sampler = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("lixto-http-monitor".to_string())
                .spawn(move || sampler_loop(shared))
                .expect("spawn monitor sampler")
        };
        let watch_scheduler = {
            let sink_shared = shared.clone();
            let webhook_clients: Mutex<HashMap<String, HttpClient>> = Mutex::new(HashMap::new());
            WatchScheduler::start(
                shared.server.clone(),
                shared.watches.clone(),
                shared.config.watch_tick,
                Box::new(move |event| deliver_watch_event(&sink_shared, &webhook_clients, event)),
            )
        };
        Ok(HttpGateway {
            addr: local_addr,
            shared,
            acceptor,
            sampler,
            watch_scheduler,
            loops,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway's own counters.
    pub fn stats(&self) -> GatewayStats {
        self.shared.stats()
    }

    /// Block until a client asks for shutdown via `POST /admin/shutdown`
    /// (returns immediately if it already happened). The caller then
    /// runs [`shutdown`](HttpGateway::shutdown).
    pub fn wait_shutdown_requested(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .expect("shutdown flag poisoned");
        }
    }

    /// Graceful shutdown: stop accepting, close idle connections, flush
    /// what is in flight (responses switch to `Connection: close`), let
    /// parked extractions resolve, join every thread, and return the
    /// final counters. The extraction pool is *not* shut down — it may
    /// be shared; call [`ExtractionServer::initiate_shutdown`]
    /// separately (before or after this call — parked tickets resolve
    /// either way).
    pub fn shutdown(self) -> GatewayStats {
        let HttpGateway {
            addr,
            shared,
            acceptor,
            sampler,
            watch_scheduler,
            loops,
        } = self;
        shared.begin_stop();
        // Stop the sampler first: it must not broadcast into event
        // loops that are draining their last subscribers.
        shared.monitor.stop();
        let _ = sampler.join();
        // Same for the watch scheduler: it delivers the diffs already
        // resolved, then no new watch ticks or deliveries once the loops
        // start finishing their streams.
        watch_scheduler.stop();
        // Wake the acceptor out of its blocking accept(). A wildcard
        // bind address (0.0.0.0 / ::) is not connectable everywhere, so
        // aim the wake-up at loopback on the bound port.
        let wake_addr = if addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            SocketAddr::new(loopback, addr.port())
        } else {
            addr
        };
        let _ = TcpStream::connect(wake_addr);
        let _ = acceptor.join();
        for event_loop in loops {
            let _ = event_loop.join();
        }
        // Close the shutdown race: the acceptor may have assigned a
        // socket to a loop after that loop drained its inbox for the
        // last time. Nobody will poll those inboxes again — refuse any
        // stranded socket with a 503 instead of leaving its client to
        // hang.
        for event_loop in &shared.loops {
            let stranded = std::mem::take(
                &mut event_loop
                    .inbox
                    .lock()
                    .expect("loop inbox poisoned")
                    .accepted,
            );
            for stream in stranded {
                refuse_busy(stream, &shared);
            }
        }
        shared.stats()
    }
}

/// First sleep after a failed `accept(2)`; doubles per consecutive
/// failure (see [`AcceptBackoff`]).
const ACCEPT_BACKOFF_INITIAL: Duration = Duration::from_millis(1);
/// Upper bound for the accept-error backoff sleep.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

fn acceptor_loop(listener: TcpListener, shared: Arc<SharedGateway>) {
    let mut backoff = AcceptBackoff::new(ACCEPT_BACKOFF_INITIAL, ACCEPT_BACKOFF_MAX);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff.on_success();
                if shared.stopping() {
                    // Usually this stream is shutdown's own wake-up
                    // connect — but it may be a real client that raced
                    // the stop flag. Answer 503 either way (the wake-up
                    // connect never reads it) instead of a bare reset;
                    // uncounted, so every normal shutdown does not
                    // register a phantom request.
                    write_busy(stream);
                    break;
                }
                assign_connection(stream, &shared);
            }
            Err(e) => {
                // Transient (ECONNABORTED mid-handshake, momentary
                // EMFILE): intake must survive, but a persistent error
                // must not spin a core — sleep the bounded, doubling,
                // reset-on-success backoff.
                if shared.stopping() {
                    break;
                }
                let sleep = backoff.on_error();
                warn_event!(
                    "accept_backoff",
                    "error" => e.to_string(),
                    "sleep_ms" => sleep.as_millis().min(u128::from(u64::MAX)) as u64,
                );
                std::thread::sleep(sleep);
            }
        }
    }
}

/// The monitor sampler thread: one [`Monitor::tick`] per interval until
/// shutdown. Broadcasting to `GET /debug/live` subscribers reuses the
/// completion plumbing — events land in every loop's inbox followed by
/// a self-pipe wake — and is skipped entirely while nobody listens.
fn sampler_loop(shared: Arc<SharedGateway>) {
    let monitor = &shared.monitor;
    while monitor.sleep_until_next_tick() {
        let events = monitor.tick(&monitor_tick_sample(&shared));
        if monitor.live_subscribers.load(Ordering::Relaxed) == 0 {
            continue;
        }
        let lines: Vec<StreamLine> = events.into_iter().map(|e| (None, Arc::new(e))).collect();
        for event_loop in &shared.loops {
            let lines = lines.clone();
            event_loop.wake_with(|inbox| inbox.lines.extend(lines));
        }
    }
}

/// Gather one sampler tick's raw inputs: the pool's counters plus the
/// gateway's own request/connection/wake gauges. Everything read here
/// is an atomic or a lock-free histogram — the tick never contends
/// with the serving path.
fn monitor_tick_sample(shared: &SharedGateway) -> TickSample {
    let stats = shared.stats();
    let mut connections = 0u64;
    let mut parked = 0u64;
    for event_loop in &shared.loops {
        connections += event_loop.load.load(Ordering::Relaxed) as u64;
        parked += event_loop.parked.load(Ordering::Relaxed) as u64;
    }
    TickSample {
        pool: shared.server.sample(),
        requests: stats.requests,
        responses_4xx: stats.responses_4xx,
        responses_5xx: stats.responses_5xx,
        connections,
        parked,
        wake_count: shared.wake.count(),
        wake_p99_us: shared.wake.quantile_us(0.99).unwrap_or(0),
        wake_buckets: shared.wake.buckets(),
    }
}

/// The watch scheduler's delivery sink: serialize the diff event once,
/// fan it out to every loop's `GET /watches/{id}/events` subscribers
/// (skipped entirely while nobody long-polls), and POST it to the
/// watch's webhook through a cached keep-alive client with the default
/// retry policy. Runs on the scheduler thread, never on an event loop.
fn deliver_watch_event(
    shared: &SharedGateway,
    webhook_clients: &Mutex<HashMap<String, HttpClient>>,
    event: WatchEvent,
) {
    let registry = &shared.watches;
    let json = watch_event_json(&event).dump();
    if registry.subscribers() > 0 {
        let line: StreamLine = (Some(Arc::new(event.watch.clone())), Arc::new(json.clone()));
        for event_loop in &shared.loops {
            let line = line.clone();
            event_loop.wake_with(|inbox| inbox.lines.push(line));
        }
    }
    if let Some(webhook) = &event.webhook {
        let ok = post_webhook(webhook_clients, webhook, &json);
        registry.record_webhook(ok);
        if !ok {
            warn_event!(
                "watch_webhook_failed",
                "watch" => event.watch.clone(),
                "webhook" => webhook.clone(),
            );
        }
    }
}

/// Serialize one [`WatchEvent`] to the wire shape shared by the
/// long-poll stream and webhook POST bodies.
fn watch_event_json(event: &WatchEvent) -> Json {
    fn entries(list: &[DiffEntry]) -> Json {
        Json::Arr(
            list.iter()
                .map(|e| {
                    obj([
                        ("pattern", e.pattern.as_str().into()),
                        ("text", e.text.as_str().into()),
                    ])
                })
                .collect(),
        )
    }
    fn changed(list: &[ChangedEntry]) -> Json {
        Json::Arr(
            list.iter()
                .map(|e| {
                    obj([
                        ("pattern", e.pattern.as_str().into()),
                        ("before", e.before.as_str().into()),
                        ("after", e.after.as_str().into()),
                    ])
                })
                .collect(),
        )
    }
    obj([
        ("type", "watch_event".into()),
        ("watch", event.watch.as_str().into()),
        ("seq", event.seq.into()),
        ("wrapper", event.wrapper.as_str().into()),
        ("url", event.url.as_str().into()),
        ("added", entries(&event.diff.added)),
        ("removed", entries(&event.diff.removed)),
        ("changed", changed(&event.diff.changed)),
    ])
}

/// POST `body` to a webhook URL (`http://host:port/path`), reusing a
/// cached keep-alive client per URL. The client is taken out of the
/// cache during I/O so a slow sink never holds the map lock; a client
/// whose POST failed is dropped rather than returned (its connection
/// state is suspect — the next delivery reconnects).
fn post_webhook(clients: &Mutex<HashMap<String, HttpClient>>, url: &str, body: &str) -> bool {
    let (authority, path) = match url.strip_prefix("http://") {
        Some(rest) if !rest.is_empty() => match rest.split_once('/') {
            Some((authority, path)) => (authority.to_string(), format!("/{path}")),
            None => (rest.to_string(), "/".to_string()),
        },
        _ => {
            warn_event!("watch_webhook_bad_url", "webhook" => url.to_string());
            return false;
        }
    };
    let cached = clients
        .lock()
        .expect("webhook client cache poisoned")
        .remove(url);
    let mut client = match cached {
        Some(client) => client,
        None => match HttpClient::connect(&authority) {
            Ok(client) => client,
            Err(_) => return false,
        },
    };
    let ok = client
        .post_json_with_retry(&path, body, RetryPolicy::default())
        .map(|response| (200..300).contains(&response.status))
        .unwrap_or(false);
    if ok {
        clients
            .lock()
            .expect("webhook client cache poisoned")
            .insert(url.to_string(), client);
    }
    ok
}

/// Hand `stream` to the least-loaded event loop, or refuse it with a
/// `503` when every loop is at its connection cap. Only assigned
/// connections count toward [`GatewayStats::connections`] — refusals
/// surface in the request/5xx counters instead.
fn assign_connection(stream: TcpStream, shared: &SharedGateway) {
    let cap = shared.config.max_connections_per_loop;
    let target = shared
        .loops
        .iter()
        .map(|l| (l.load.load(Ordering::Relaxed), l))
        .filter(|(load, _)| *load < cap)
        .min_by_key(|(load, _)| *load);
    match target {
        Some((_, event_loop)) => {
            shared.connections.fetch_add(1, Ordering::Relaxed);
            event_loop.load.fetch_add(1, Ordering::Relaxed);
            event_loop.wake_with(|inbox| inbox.accepted.push(stream));
        }
        None => refuse_busy(stream, shared),
    }
}

/// Answer `503` inline (short blocking write with a timeout so a dead
/// peer cannot stall the caller) and close, counting the response.
fn refuse_busy(stream: TcpStream, shared: &SharedGateway) {
    count_response(shared, 503);
    write_busy(stream);
}

/// The `503` wire write of [`refuse_busy`], without counter updates —
/// for shutdown paths where the peer may be the gateway's own wake-up
/// connect.
fn write_busy(mut stream: TcpStream) {
    let response = Response::error(
        503,
        "server_busy",
        "connection limit reached; retry shortly",
    )
    .with_header("retry-after", "1");
    let mut out = Vec::with_capacity(256);
    response.write_to(&mut out, false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(&out);
}

fn count_response(shared: &SharedGateway, status: u16) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    if (400..500).contains(&status) {
        shared.responses_4xx.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        shared.responses_5xx.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------

/// One parked extraction item of a dispatched request.
enum DispatchItem {
    /// Resolved synchronously (parse error, submission error, oversized
    /// item): the status and JSON body to answer with.
    Ready(u16, Json),
    /// Answered from the pool's hot tier on this loop thread.
    Answered(ExtractionResponse),
    /// Parked on a pool ticket; redeemed when its completion arrives.
    Pending(JobTicket),
}

/// Trace context of one dispatched extraction request.
struct RequestTrace {
    /// Minted or client-supplied (`X-Request-Id`) id; batch items get a
    /// `#i` suffix.
    id: TraceId,
    /// When the gateway started dispatching the parsed request — the
    /// span's end-to-end clock.
    started: Instant,
}

/// A connection parked on extraction work.
struct Dispatch {
    /// Tickets whose completion callback has not fired yet.
    outstanding: usize,
    items: Vec<DispatchItem>,
    /// `POST /extract/batch` (per-item envelope) vs `POST /extract`
    /// (the single item's body *is* the response body).
    batch: bool,
    /// Connection persistence decided from the request at dispatch time
    /// (re-checked against the stop flag when the response is built).
    keep_alive: bool,
    /// The single-item 429 carries a `retry-after` header; remembered
    /// here because synchronous rejections also park briefly as
    /// `Ready` items.
    retry_after: bool,
    /// Trace id + start instant.
    trace: RequestTrace,
    /// Worst completion wake latency observed for this request (ns);
    /// `None` until a completion token arrives (synchronously resolved
    /// requests never wake).
    wake_ns: Option<u64>,
}

enum ConnState {
    /// Waiting for (more of) a request; an empty buffer means idle
    /// keep-alive.
    Reading,
    /// A complete request is parked on the extraction pool.
    Dispatched(Dispatch),
    /// A response is being flushed; parsing resumes once it is out.
    Writing,
    /// A `GET /debug/live` or `GET /watches/{id}/events` subscriber:
    /// the headers went out chunked, and the connection now receives
    /// events as they happen. The stream ends — with a terminal chunk —
    /// after `remaining` more events (`None` streams until shutdown or
    /// disconnect).
    Streaming {
        remaining: Option<u64>,
        /// The terminal chunk is queued: close once it flushes.
        done: bool,
        /// The [`StreamLine`] topic this stream receives.
        topic: Option<Arc<String>>,
    },
}

struct Conn {
    stream: TcpStream,
    generation: u64,
    state: ConnState,
    /// Bytes received but not yet consumed by the parser.
    buf: Vec<u8>,
    /// Bytes to send; `written` of them already went out.
    out: Vec<u8>,
    written: usize,
    close_after_write: bool,
    /// Whether the current (incomplete) request already got its interim
    /// `100 Continue`.
    continued: bool,
    /// Bytes of an oversized-but-drainable body still to swallow.
    discard: usize,
    /// The peer half-closed its write side: whatever is buffered is all
    /// there will ever be. Buffered complete requests are still served
    /// (the peer may be reading); the connection closes once the parser
    /// needs bytes that cannot come.
    peer_eof: bool,
    /// When the first byte of the current partial request arrived —
    /// the slow-loris clock ([`GatewayConfig::read_timeout`]).
    read_started: Option<Instant>,
    /// Last moment the connection went idle (empty buffer, nothing in
    /// flight) — the keep-alive clock ([`GatewayConfig::idle_timeout`]).
    idle_since: Instant,
    /// When the bytes currently in `out` started flushing.
    write_started: Instant,
}

impl Conn {
    fn adopt(stream: TcpStream, generation: u64) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            generation,
            state: ConnState::Reading,
            buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            close_after_write: false,
            continued: false,
            discard: 0,
            peer_eof: false,
            read_started: None,
            idle_since: Instant::now(),
            write_started: Instant::now(),
        })
    }

    /// Poll interest for the current state: readable while parsing,
    /// writable while anything is queued to send (including an interim
    /// `100 Continue` racing a body), nothing while purely parked.
    fn interest(&self) -> i16 {
        let mut events = 0i16;
        if matches!(self.state, ConnState::Reading) {
            events |= POLLIN;
        }
        if matches!(self.state, ConnState::Streaming { .. }) {
            // A subscriber sends nothing more, but its EOF is the only
            // disconnect signal an idle stream gets.
            events |= POLLIN;
        }
        if self.written < self.out.len() {
            events |= POLLOUT;
        }
        events
    }

    /// The instant at which this connection times out in its current
    /// state, if any (a parked connection with nothing to flush waits
    /// on the pool alone).
    fn deadline(&self, config: &GatewayConfig) -> Option<Instant> {
        if self.written < self.out.len() {
            return Some(self.write_started + config.write_timeout);
        }
        match self.state {
            ConnState::Reading => {
                if self.buf.is_empty() && self.discard == 0 {
                    Some(self.idle_since + config.idle_timeout)
                } else {
                    Some(self.read_started.unwrap_or(self.idle_since) + config.read_timeout)
                }
            }
            // A parked connection waits on the pool alone; an idle
            // subscriber waits on the sampler alone (a stalled one is
            // covered by the pending-write branch above).
            ConnState::Dispatched(_) | ConnState::Writing | ConnState::Streaming { .. } => None,
        }
    }

    /// Queue `response` (appending after any pending interim bytes) and
    /// enter the writing state.
    fn queue_response(&mut self, response: &Response, keep_alive: bool) {
        self.queue_response_with(response, keep_alive, &[]);
    }

    /// [`queue_response`](Conn::queue_response) with `more` headers
    /// borrowed from the caller (see [`Response::write_with_headers`]).
    fn queue_response_with(
        &mut self,
        response: &Response,
        keep_alive: bool,
        more: &[(&str, &str)],
    ) {
        if self.out.is_empty() {
            self.write_started = Instant::now();
        }
        response.write_with_headers(&mut self.out, keep_alive, more);
        self.close_after_write = !keep_alive;
        self.state = ConnState::Writing;
    }
}

/// Capacity a connection may keep across requests; a buffer that grew
/// past this for one large request/response is shrunk back once empty,
/// so long-lived keep-alive sessions do not pin their peak allocation
/// forever (idle connections must stay cheap).
const RETAINED_BUF_BYTES: usize = 64 * 1024;

fn shrink_if_bloated(buf: &mut Vec<u8>) {
    if buf.is_empty() && buf.capacity() > RETAINED_BUF_BYTES {
        buf.shrink_to(RETAINED_BUF_BYTES);
    }
}

/// What to do with a connection after an event was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Keep,
    Close,
}

enum FlushResult {
    Done,
    Partial,
    Closed,
}

struct EventLoop {
    ls: Arc<LoopShared>,
    shared: Arc<SharedGateway>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_generation: u64,
    stopping: bool,
}

impl EventLoop {
    fn new(ls: Arc<LoopShared>, shared: Arc<SharedGateway>) -> EventLoop {
        EventLoop {
            ls,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_generation: 0,
            stopping: false,
        }
    }

    fn run(mut self) {
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::new();
        loop {
            self.drain_inbox();
            if self.stopping {
                self.sweep_for_stop();
                if self.live == 0 {
                    return;
                }
            }
            // Build the interest set: the self-pipe first, then every
            // connection that wants events in its current state.
            pollfds.clear();
            slot_of.clear();
            pollfds.push(PollFd::new(self.ls.pipe.read_fd(), POLLIN));
            let mut deadline: Option<Instant> = None;
            let mut parked = 0usize;
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                if matches!(conn.state, ConnState::Dispatched(_)) {
                    parked += 1;
                }
                let events = conn.interest();
                if events != 0 {
                    pollfds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    slot_of.push(slot);
                }
                if let Some(d) = conn.deadline(&self.shared.config) {
                    deadline = Some(deadline.map_or(d, |cur: Instant| cur.min(d)));
                }
            }
            self.ls.parked.store(parked, Ordering::Relaxed);
            let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if poll(&mut pollfds, timeout).is_err() {
                // poll(2) only fails for EINVAL-class reasons here; back
                // off rather than spin.
                std::thread::sleep(Duration::from_millis(1));
            }
            if pollfds[0].readable() {
                self.ls.pipe.drain();
            }
            for (i, slot) in slot_of.iter().enumerate() {
                let pfd = &pollfds[i + 1];
                if pfd.revents() == 0 {
                    continue;
                }
                self.handle_ready(*slot, pfd.readable(), pfd.writable());
            }
            self.expire_deadlines();
        }
    }

    fn drain_inbox(&mut self) {
        let (accepted, completions, lines, stop) = {
            let mut inbox = self.ls.inbox.lock().expect("loop inbox poisoned");
            (
                std::mem::take(&mut inbox.accepted),
                std::mem::take(&mut inbox.completions),
                std::mem::take(&mut inbox.lines),
                inbox.stop,
            )
        };
        if stop {
            self.stopping = true;
        }
        for stream in accepted {
            self.adopt(stream);
        }
        for completion in completions {
            self.handle_completion(completion);
        }
        if !lines.is_empty() {
            self.deliver(&lines);
        }
    }

    /// Fan stream lines out to this loop's NDJSON subscribers: a line
    /// reaches every unfinished stream of its topic as one chunk, and a
    /// bounded stream ends once it used up its `?events=N` budget.
    fn deliver(&mut self, lines: &[StreamLine]) {
        for slot in 0..self.conns.len() {
            let streaming = self.conns[slot]
                .as_ref()
                .is_some_and(|c| matches!(c.state, ConnState::Streaming { done: false, .. }));
            if !streaming {
                continue;
            }
            self.with_conn(slot, |conn, ctx| {
                for (topic, line) in lines {
                    let ConnState::Streaming {
                        remaining,
                        done: false,
                        topic: subscribed,
                    } = &mut conn.state
                    else {
                        break;
                    };
                    if *subscribed != *topic {
                        continue;
                    }
                    if conn.out.is_empty() {
                        conn.write_started = Instant::now();
                    }
                    append_chunk(&mut conn.out, line);
                    if let Some(budget) = remaining {
                        *budget = budget.saturating_sub(1);
                        if *budget == 0 {
                            finish_stream(conn);
                        }
                    }
                }
                pump(conn, ctx)
            });
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if self.stopping {
            // Raced shutdown: the acceptor assigned it before observing
            // stop. Refuse rather than strand it unserved.
            self.ls.load.fetch_sub(1, Ordering::Relaxed);
            refuse_busy(stream, &self.shared);
            return;
        }
        self.next_generation += 1;
        let conn = match Conn::adopt(stream, self.next_generation) {
            Ok(conn) => conn,
            Err(_) => {
                self.ls.load.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.live += 1;
        // The first request's bytes are usually already in flight;
        // serving them now saves a poll round trip.
        self.handle_ready(slot, true, false);
    }

    fn release(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if let ConnState::Streaming { topic, .. } = &conn.state {
                count_subscriber(&self.shared, topic, false);
            }
            self.free.push(slot);
            self.live -= 1;
            self.ls.load.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Run a connection's event handler with the connection temporarily
    /// taken out of the slot (so handlers can borrow the loop's shared
    /// context freely), then apply the resulting action.
    fn with_conn(&mut self, slot: usize, f: impl FnOnce(&mut Conn, &ConnCtx) -> Action) {
        let Some(mut conn) = self.conns[slot].take() else {
            return;
        };
        let ctx = ConnCtx {
            shared: &self.shared,
            ls: &self.ls,
            slot,
        };
        match f(&mut conn, &ctx) {
            Action::Keep => self.conns[slot] = Some(conn),
            Action::Close => {
                self.conns[slot] = Some(conn);
                self.release(slot);
            }
        }
    }

    fn handle_ready(&mut self, slot: usize, readable: bool, writable: bool) {
        self.with_conn(slot, |conn, ctx| {
            if readable && matches!(conn.state, ConnState::Reading) {
                on_readable(conn, ctx)
            } else if readable && matches!(conn.state, ConnState::Streaming { .. }) {
                on_streaming_readable(conn, ctx, writable)
            } else if writable {
                pump(conn, ctx)
            } else {
                Action::Keep
            }
        });
    }

    fn handle_completion(&mut self, completion: Completion) {
        let Completion {
            slot,
            generation,
            finished_at,
        } = completion;
        // Wake latency: worker's notify → this dispatch. Recorded for
        // every token (stale ones measured a real wake too).
        let wake = finished_at.elapsed();
        self.shared.wake.record(wake);
        if slot >= self.conns.len() {
            return;
        }
        let matches_conn = self.conns[slot]
            .as_ref()
            .is_some_and(|c| c.generation == generation);
        if !matches_conn {
            return; // stale token: the connection died while parked
        }
        self.with_conn(slot, |conn, ctx| {
            let ConnState::Dispatched(dispatch) = &mut conn.state else {
                return Action::Keep; // defensive: token raced a state change
            };
            let wake_ns = wake.as_nanos().min(u128::from(u64::MAX)) as u64;
            dispatch.wake_ns = Some(dispatch.wake_ns.map_or(wake_ns, |w| w.max(wake_ns)));
            dispatch.outstanding = dispatch.outstanding.saturating_sub(1);
            if dispatch.outstanding > 0 {
                return Action::Keep;
            }
            assemble_response(conn, ctx);
            pump(conn, ctx)
        });
    }

    /// Under shutdown: close idle and mid-request connections (serving
    /// a fully buffered request first, with `Connection: close`), end
    /// live streams with their terminal chunk, keep flushing and parked
    /// connections until they resolve.
    fn sweep_for_stop(&mut self) {
        for slot in 0..self.conns.len() {
            let streaming = self.conns[slot]
                .as_ref()
                .is_some_and(|c| matches!(c.state, ConnState::Streaming { .. }));
            if streaming {
                self.with_conn(slot, |conn, ctx| {
                    finish_stream(conn);
                    pump(conn, ctx)
                });
                continue;
            }
            let quiescent = self.conns[slot]
                .as_ref()
                .is_some_and(|c| matches!(c.state, ConnState::Reading) && c.out.is_empty());
            if !quiescent {
                continue;
            }
            self.with_conn(slot, |conn, ctx| {
                if pump(conn, ctx) == Action::Close {
                    return Action::Close;
                }
                // Still reading with nothing to send: no complete
                // request is pending — close rather than wait out the
                // idle timeout.
                if matches!(conn.state, ConnState::Reading) && conn.out.is_empty() {
                    return Action::Close;
                }
                Action::Keep
            });
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let Some(deadline) = conn.deadline(&self.shared.config) else {
                continue;
            };
            if now < deadline {
                continue;
            }
            self.with_conn(slot, |conn, ctx| {
                if conn.written < conn.out.len() {
                    return Action::Close; // peer stopped reading its response
                }
                if conn.buf.is_empty() && conn.discard == 0 {
                    return Action::Close; // idle keep-alive: quiet close
                }
                if conn.discard > 0 {
                    // Stalled mid-drain of an oversized body: that
                    // request was already answered (the early 413), so
                    // give up on the connection without a second
                    // response.
                    return Action::Close;
                }
                // Mid-request stall (slow loris): evict loudly so the
                // client knows, then close.
                let response =
                    Response::error(408, "request_timeout", "request did not arrive in time");
                count_response(ctx.shared, response.status);
                conn.queue_response(&response, false);
                pump(conn, ctx)
            });
        }
    }
}

/// Everything a connection handler needs besides the connection itself.
struct ConnCtx<'a> {
    shared: &'a SharedGateway,
    ls: &'a Arc<LoopShared>,
    slot: usize,
}

fn on_readable(conn: &mut Conn, ctx: &ConnCtx) -> Action {
    let mut chunk = [0u8; 16 * 1024];
    // Cap the bytes consumed per wakeup: a peer streaming at line rate
    // must not keep this loop spinning (starving every co-located
    // connection and growing the buffer unparsed) — after the cap we
    // fall through to parsing, and level-triggered poll re-reports the
    // remainder on the next iteration, fairly interleaved.
    let mut budget = 8;
    loop {
        if budget == 0 {
            break;
        }
        budget -= 1;
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // Half-close: complete requests already buffered are
                // still served below (a `printf reqs | nc`-style client
                // shuts its write side and reads the answers); pump()
                // closes once the parser would need more bytes.
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                let mut bytes = &chunk[..n];
                if conn.discard > 0 {
                    let swallowed = conn.discard.min(bytes.len());
                    conn.discard -= swallowed;
                    bytes = &bytes[swallowed..];
                }
                if !bytes.is_empty() {
                    if conn.buf.is_empty() && conn.read_started.is_none() {
                        conn.read_started = Some(Instant::now());
                    }
                    conn.buf.extend_from_slice(bytes);
                }
                if n < chunk.len() {
                    break; // drained the socket (level-triggered poll re-reports otherwise)
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close,
        }
    }
    pump(conn, ctx)
}

/// An NDJSON subscriber's socket turned readable: either the
/// peer hung up (the stream's only disconnect signal) or it sent bytes
/// a streaming response cannot use — drain and discard them.
fn on_streaming_readable(conn: &mut Conn, ctx: &ConnCtx, writable: bool) -> Action {
    let mut chunk = [0u8; 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Action::Close,
            Ok(n) if n < chunk.len() => break,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close,
        }
    }
    if writable {
        pump(conn, ctx)
    } else {
        Action::Keep
    }
}

/// Frame one stream event as an HTTP chunk: the JSON line plus a
/// trailing newline, so the stream reads as newline-delimited JSON once
/// de-chunked.
fn append_chunk(out: &mut Vec<u8>, event: &str) {
    out.extend_from_slice(format!("{:x}\r\n", event.len() + 1).as_bytes());
    out.extend_from_slice(event.as_bytes());
    out.extend_from_slice(b"\n\r\n");
}

/// Queue the terminal chunk and mark the stream finished (idempotent).
fn finish_stream(conn: &mut Conn) {
    if let ConnState::Streaming { done, .. } = &mut conn.state {
        if !*done {
            if conn.out.is_empty() {
                conn.write_started = Instant::now();
            }
            conn.out.extend_from_slice(b"0\r\n\r\n");
            *done = true;
        }
    }
}

/// The watch id of a `/watches/{id}/events` path, if that is one.
fn watch_stream_id(path: &str) -> Option<&str> {
    path.strip_suffix("/events").and_then(watch_id)
}

/// `GET /watches/{id}/events`: subscribe this connection to one watch's
/// instance-level diff events. The greeting echoes the watch id and
/// current sequence number. An unknown watch id answers a normal `404`.
fn start_watch_stream(conn: &mut Conn, ctx: &ConnCtx, request: &Request, id: &str) {
    let status = match ctx.shared.watches.get(id) {
        Some(status) => status,
        None => {
            let response = Response::error(404, "unknown_watch", "no such watch");
            count_response(ctx.shared, response.status);
            conn.queue_response(&response, !ctx.shared.stopping());
            return;
        }
    };
    let hello = obj([
        ("type", "watch_hello".into()),
        ("watch", id.into()),
        ("wrapper", status.wrapper.as_str().into()),
        ("url", status.url.as_str().into()),
        ("seq", status.seq.into()),
    ]);
    let topic = Some(Arc::new(id.to_string()));
    start_stream(conn, ctx, request, topic, &hello.dump());
}

/// Turn this connection into a chunked `application/x-ndjson` stream of
/// `topic`'s [`StreamLine`]s, opened by `greeting`. `?events=N` bounds
/// the stream to N lines after the greeting (it then ends cleanly);
/// unbounded streams run until the client disconnects or the gateway
/// shuts down.
fn start_stream(
    conn: &mut Conn,
    ctx: &ConnCtx,
    request: &Request,
    topic: Option<Arc<String>>,
    greeting: &str,
) {
    let remaining = query_param(request, "events").and_then(|v| v.parse::<u64>().ok());
    count_response(ctx.shared, 200);
    if conn.out.is_empty() {
        conn.write_started = Instant::now();
    }
    conn.out.extend_from_slice(
        b"HTTP/1.1 200 OK\r\nconnection: close\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    append_chunk(&mut conn.out, greeting);
    conn.close_after_write = true;
    count_subscriber(ctx.shared, &topic, true);
    conn.state = ConnState::Streaming {
        remaining,
        done: false,
        topic,
    };
    if remaining == Some(0) {
        finish_stream(conn);
    }
}

/// Count a subscriber of `topic` in (`joined`) or out: the monitor's
/// live-stream gauge, or the watch registry's.
fn count_subscriber(shared: &SharedGateway, topic: &Option<Arc<String>>, joined: bool) {
    let live = &shared.monitor.live_subscribers;
    match (topic, joined) {
        (None, true) => {
            live.fetch_add(1, Ordering::Relaxed);
        }
        (None, false) => {
            live.fetch_sub(1, Ordering::Relaxed);
        }
        (Some(_), true) => shared.watches.subscriber_started(),
        (Some(_), false) => shared.watches.subscriber_finished(),
    }
}

/// First value of `name` in the request's query string.
fn query_param<'a>(request: &'a Request, name: &str) -> Option<&'a str> {
    let query = request.query.as_deref()?;
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        (key == name).then_some(value)
    })
}

/// Drive the connection's state machine as far as it can go without
/// more events: flush pending output, complete written responses, and
/// parse/serve requests one at a time (pipelined requests are served
/// strictly in order, each response flushed before the next parse).
fn pump(conn: &mut Conn, ctx: &ConnCtx) -> Action {
    loop {
        match flush(conn) {
            FlushResult::Closed => return Action::Close,
            FlushResult::Partial => return Action::Keep, // POLLOUT re-arms via interest()
            FlushResult::Done => {}
        }
        match conn.state {
            ConnState::Writing => {
                if conn.close_after_write || ctx.shared.stopping() {
                    return Action::Close;
                }
                conn.state = ConnState::Reading;
                conn.idle_since = Instant::now();
            }
            ConnState::Dispatched(_) => return Action::Keep,
            ConnState::Streaming { done, .. } => {
                // Everything queued (including the terminal chunk, when
                // `done`) is out; an unfinished stream waits for the
                // next stream line.
                return if done { Action::Close } else { Action::Keep };
            }
            ConnState::Reading => {}
        }
        if !advance_one(conn, ctx) {
            // More bytes are needed — which can never arrive after a
            // half-close, so give up then instead of idling out.
            return if conn.peer_eof {
                Action::Close
            } else {
                Action::Keep
            };
        }
    }
}

fn flush(conn: &mut Conn) -> FlushResult {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return FlushResult::Closed,
            Ok(n) => {
                conn.written += n;
                // The write clock measures *stall* time, not total
                // transfer time: a slow-but-reading peer making steady
                // progress must not be cut off mid-response.
                conn.write_started = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return FlushResult::Partial,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushResult::Closed,
        }
    }
    conn.out.clear();
    conn.written = 0;
    shrink_if_bloated(&mut conn.out);
    FlushResult::Done
}

/// Try to consume one request from the connection buffer. Returns
/// whether progress was made (a response queued, a dispatch parked, or
/// an interim `100 Continue` queued); `false` means more bytes are
/// needed.
fn advance_one(conn: &mut Conn, ctx: &ConnCtx) -> bool {
    let limits = &ctx.shared.config.limits;
    let single_limit = limits.max_body_bytes;
    let batch_limit = ctx.shared.config.max_batch_body_bytes.max(single_limit);
    let body_limit = move |method: &str, path: &str| {
        if method == "POST" && path == "/extract/batch" {
            batch_limit
        } else {
            single_limit
        }
    };
    match parse_request_with_body_limit(&conn.buf, limits, &body_limit) {
        Ok(Some((request, consumed))) => {
            conn.buf.drain(..consumed);
            shrink_if_bloated(&mut conn.buf);
            conn.continued = false;
            conn.read_started = None;
            serve(conn, ctx, &request);
            true
        }
        Ok(None) => {
            // Headers complete but body pending: honor
            // `Expect: 100-continue` so clients (curl with a body over
            // 1 KiB, for one) send the body immediately instead of
            // waiting out their expect timeout. Skip the same stray
            // leading CRLFs the parser tolerates, or they would read as
            // an (empty) header section ending at offset zero.
            if !conn.continued {
                let mut skipped = 0;
                while skipped < 4 && conn.buf[skipped..].starts_with(b"\r\n") {
                    skipped += 2;
                }
                let head = &conn.buf[skipped..];
                if let Some(end) = head.windows(4).position(|w| w == b"\r\n\r\n") {
                    conn.continued = true; // scan the header section once
                    if contains_ignore_ascii_case(&head[..end], b"100-continue") {
                        if conn.out.is_empty() {
                            conn.write_started = Instant::now();
                        }
                        conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                        return true;
                    }
                }
            }
            false
        }
        Err(error) => {
            // Answer before draining: an `Expect: 100-continue` client
            // is holding its body back waiting for us, and the 413 is
            // what tells it to stop.
            let plan = drain_plan(&error, conn.buf.len());
            let keep_alive = plan.is_some() && !ctx.shared.stopping();
            let response = Response::error(error.status(), error_code(&error), &error.message());
            count_response(ctx.shared, response.status);
            match plan.filter(|_| keep_alive) {
                Some(plan) => {
                    // Drop only the oversized request's bytes: anything
                    // after them is the next pipelined request and must
                    // survive. What has not arrived yet is swallowed as
                    // it comes (`discard`).
                    conn.buf.drain(..plan.from_buffer);
                    conn.discard = plan.from_stream;
                    conn.continued = false;
                    conn.read_started =
                        (conn.discard > 0 || !conn.buf.is_empty()).then(Instant::now);
                    conn.queue_response(&response, true);
                }
                None => {
                    conn.buf.clear();
                    conn.queue_response(&response, false);
                }
            }
            true
        }
    }
}

/// Serve one parsed request: dispatch extraction endpoints to the pool
/// (parking the connection), answer everything else synchronously.
fn serve(conn: &mut Conn, ctx: &ConnCtx, request: &Request) {
    let keep_alive = request.keep_alive() && !ctx.shared.stopping();
    if request.method == "GET" {
        if let Some(id) = watch_stream_id(&request.path) {
            return start_watch_stream(conn, ctx, request, id);
        }
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/extract") => dispatch_extract(conn, ctx, request, keep_alive),
        ("POST", "/extract/batch") => dispatch_batch(conn, ctx, request, keep_alive),
        ("GET", "/debug/live") => {
            start_stream(conn, ctx, request, None, &ctx.shared.monitor.hello_event())
        }
        _ => {
            let response = route(request, ctx.shared);
            // Re-check stop *after* routing: /admin/shutdown flips it
            // and its own response must already say close.
            let keep_alive = keep_alive && !ctx.shared.stopping();
            count_response(ctx.shared, response.status);
            conn.queue_response(&response, keep_alive);
        }
    }
}

// ---------------------------------------------------------------------
// Extraction dispatch (async, completion-driven)
// ---------------------------------------------------------------------

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

/// The completion callback handed to the pool: push a token and wake
/// the owning loop. Runs on a worker thread (or wherever an unprocessed
/// job is destroyed), so it does nothing but that. A request answered
/// from the hot tier drops it unrun.
fn completion_notify(ctx: &ConnCtx, generation: u64) -> impl FnOnce() + Send + 'static {
    let ls = ctx.ls.clone();
    let slot = ctx.slot;
    move || {
        let completion = Completion {
            slot,
            generation,
            finished_at: Instant::now(),
        };
        ls.wake_with(|inbox| inbox.completions.push(completion));
    }
}

/// The request's trace context: the client's `X-Request-Id` when it
/// passes validation, a minted id otherwise.
fn request_trace(request: &Request) -> RequestTrace {
    let id = request
        .header("x-request-id")
        .and_then(TraceId::from_client)
        .unwrap_or_else(TraceId::mint);
    RequestTrace {
        id,
        started: Instant::now(),
    }
}

fn dispatch_extract(conn: &mut Conn, ctx: &ConnCtx, request: &Request, keep_alive: bool) {
    let trace = request_trace(request);
    let item = match request.body_utf8() {
        None => DispatchItem::Ready(400, error_body("bad_request", "body is not UTF-8")),
        Some(body) => match Json::parse(body) {
            Err(e) => DispatchItem::Ready(400, error_body("bad_request", &e.to_string())),
            Ok(parsed) => submit_item(parsed, ctx, conn.generation, trace.id.to_string()),
        },
    };
    let outstanding = usize::from(matches!(item, DispatchItem::Pending(_)));
    conn.state = ConnState::Dispatched(Dispatch {
        outstanding,
        items: vec![item],
        batch: false,
        keep_alive,
        retry_after: true,
        trace,
        wake_ns: None,
    });
    if outstanding == 0 {
        assemble_response(conn, ctx);
    }
}

fn dispatch_batch(conn: &mut Conn, ctx: &ConnCtx, request: &Request, keep_alive: bool) {
    let reject = |conn: &mut Conn, status: u16, code: &str, message: &str| {
        let response = Response::error(status, code, message);
        count_response(ctx.shared, response.status);
        conn.queue_response(&response, keep_alive && !ctx.shared.stopping());
    };
    let Some(body) = request.body_utf8() else {
        return reject(conn, 400, "bad_request", "body is not UTF-8");
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return reject(conn, 400, "bad_request", &e.to_string()),
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
    let trace = request_trace(request);
    let single_limit = ctx.shared.config.limits.max_body_bytes;
    let mut dispatch_items = Vec::with_capacity(items.len());
    let mut outstanding = 0usize;
    let mut scratch = String::new(); // one reusable buffer for all size checks
    for (index, item) in items.into_iter().enumerate() {
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
            dispatch_items.push(DispatchItem::Ready(
                413,
                error_body("body_too_large", &message),
            ));
            continue;
        }
        let item_trace = format!("{}#{index}", trace.id);
        let item = submit_item(item, ctx, conn.generation, item_trace);
        outstanding += usize::from(matches!(item, DispatchItem::Pending(_)));
        dispatch_items.push(item);
    }
    conn.state = ConnState::Dispatched(Dispatch {
        outstanding,
        items: dispatch_items,
        batch: true,
        keep_alive,
        retry_after: false,
        trace,
        wake_ns: None,
    });
    if outstanding == 0 {
        assemble_response(conn, ctx);
    }
}

/// Parse and submit one extraction item. Hot-tier hits and synchronous
/// failures (bad shape, unknown wrapper, backpressure, shutdown) resolve
/// immediately, on this loop thread; everything else parks on a pool
/// ticket. `trace` rides into the pool on [`ExtractionRequest::trace`]
/// so worker-side log events name the request.
fn submit_item(parsed: Json, ctx: &ConnCtx, generation: u64, trace: String) -> DispatchItem {
    match extraction_request_from_json(parsed) {
        Err((status, body)) => DispatchItem::Ready(status, body),
        Ok(request) => {
            let request = ExtractionRequest {
                trace: Some(trace),
                ..request
            };
            match ctx
                .shared
                .server
                .try_serve_with_notify(request, completion_notify(ctx, generation))
            {
                Ok(Served::Hit(response)) => DispatchItem::Answered(response),
                Ok(Served::Queued(ticket)) => DispatchItem::Pending(ticket),
                Err(e) => {
                    let (status, body) = server_error_parts(&e);
                    DispatchItem::Ready(status, body)
                }
            }
        }
    }
}

/// What a resolved item contributes to its span record besides the
/// status code. Errors and synchronous rejections leave the defaults
/// (no wrapper, no stages).
#[derive(Default)]
struct ItemOutcome {
    wrapper: String,
    version: u32,
    cache_hit: bool,
    stages: StageTimes,
}

/// Redeem one dispatched item: append its JSON response body to `body`
/// and return its status, plus the telemetry its span record needs.
fn resolve_item(item: DispatchItem, body: &mut String) -> (u16, ItemOutcome) {
    let outcome = match item {
        DispatchItem::Ready(status, json) => Err((status, json)),
        DispatchItem::Answered(response) => Ok(response),
        DispatchItem::Pending(mut ticket) => match ticket.try_take() {
            Some(Ok(response)) => Ok(response),
            Some(Err(error)) => Err(server_error_parts(&error)),
            // Unreachable per the notify contract; fail soft if it ever
            // is.
            None => Err(server_error_parts(&ServerError::Canceled)),
        },
    };
    match outcome {
        Ok(response) => {
            write_extraction_json(&response, body);
            let outcome = ItemOutcome {
                wrapper: response.wrapper,
                version: response.version,
                cache_hit: response.cache_hit,
                stages: response.stages,
            };
            (200, outcome)
        }
        Err((status, json)) => {
            json.dump_into(body);
            (status, ItemOutcome::default())
        }
    }
}

impl RequestTrace {
    /// Nanoseconds since the gateway started dispatching the request.
    fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// Finish one item's span record, `total_ns` long, and admit it to the
/// span buffer.
fn record_span(
    ctx: &ConnCtx,
    id: String,
    status: u16,
    outcome: ItemOutcome,
    total_ns: u64,
    wake_ns: Option<u64>,
) {
    let mut stages = outcome.stages;
    if let Some(ns) = wake_ns {
        stages.add_ns(Stage::Wake, ns);
    }
    ctx.shared.spans.record(Arc::new(SpanRecord {
        id,
        wrapper: outcome.wrapper,
        version: outcome.version,
        status,
        cache_hit: outcome.cache_hit,
        total_ns,
        stages,
        unix_ms: unix_millis(),
    }));
}

/// All tickets of the parked request resolved: build the response,
/// record span(s), echo the trace id, and switch the connection to
/// writing.
fn assemble_response(conn: &mut Conn, ctx: &ConnCtx) {
    let state = std::mem::replace(&mut conn.state, ConnState::Reading);
    let ConnState::Dispatched(dispatch) = state else {
        conn.state = state;
        return;
    };
    let keep_alive = dispatch.keep_alive && !ctx.shared.stopping();
    let retry_after = dispatch.retry_after;
    let trace = dispatch.trace;
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
        for (index, item) in dispatch.items.into_iter().enumerate() {
            item_body.clear();
            let (status, outcome) = resolve_item(item, &mut item_body);
            if index > 0 {
                body.push(',');
            }
            body.push_str("{\"status\":");
            write_number(f64::from(status), &mut body);
            body.push_str(",\"body\":");
            body.push_str(&item_body);
            // Batch items share the batch's wall clock and worst wake:
            // tickets resolve independently but the response leaves as
            // one.
            let id = format!("{}#{index}", trace.id);
            body.push_str(",\"request_id\":");
            write_escaped(&id, &mut body);
            record_span(ctx, id, status, outcome, trace.elapsed_ns(), wake_ns);
            body.push('}');
        }
        body.push_str("]}");
        (Response::json_encoded(200, body), None)
    } else {
        let item = dispatch
            .items
            .into_iter()
            .next()
            .expect("single dispatch holds one item");
        let (status, outcome) = resolve_item(item, &mut body);
        let response = Response::json_encoded(status, body);
        let response = if status == 429 && retry_after {
            response.with_header("retry-after", "1")
        } else {
            response
        };
        (response, Some((status, outcome)))
    };
    count_response(ctx.shared, response.status);
    // The header borrows the id; a single request's span record then
    // takes it, its clock stopped before the response is written, as a
    // batch item's is.
    let total_ns = trace.elapsed_ns();
    let echo = [("x-request-id", trace.id.as_str())];
    conn.queue_response_with(&response, keep_alive, &echo);
    if let Some((status, outcome)) = single {
        record_span(
            ctx,
            trace.id.into_string(),
            status,
            outcome,
            total_ns,
            wake_ns,
        );
    }
}

// ---------------------------------------------------------------------
// Synchronous routes
// ---------------------------------------------------------------------

/// How to dispose of an over-long request whose framing is still
/// intact: drop `from_buffer` bytes of the connection buffer and
/// swallow `from_stream` bytes still in flight, after which the
/// connection can keep serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DrainPlan {
    from_buffer: usize,
    from_stream: usize,
}

fn drain_plan(error: &RequestError, buffered: usize) -> Option<DrainPlan> {
    let RequestError::BodyTooLarge {
        declared,
        body_start,
    } = error
    else {
        return None; // other parse errors poison the framing: close
    };
    /// Refuse to sponge up absurd declarations; just close instead.
    const MAX_DRAIN: usize = 8 * 1024 * 1024;
    if *declared > MAX_DRAIN {
        return None;
    }
    let total = body_start + declared;
    Some(DrainPlan {
        from_buffer: total.min(buffered),
        from_stream: total.saturating_sub(buffered),
    })
}

/// Case-insensitive substring search over raw header bytes.
fn contains_ignore_ascii_case(haystack: &[u8], needle: &[u8]) -> bool {
    haystack
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle))
}

fn error_code(error: &RequestError) -> &'static str {
    match error {
        RequestError::Malformed(_) => "malformed_request",
        RequestError::HeadersTooLarge => "headers_too_large",
        RequestError::BodyTooLarge { .. } => "body_too_large",
        RequestError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
    }
}

/// Route one synchronously-served request (everything except the
/// extraction endpoints, which park the connection instead).
fn route(request: &Request, shared: &SharedGateway) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/wrappers") => get_wrappers(shared),
        ("PUT", path)
            if path
                .strip_prefix("/wrappers/")
                .is_some_and(|n| !n.is_empty()) =>
        {
            put_wrapper(
                path.strip_prefix("/wrappers/").expect("checked"),
                request,
                shared,
            )
        }
        ("GET", path)
            if path
                .strip_prefix("/provenance/")
                .is_some_and(|k| !k.is_empty()) =>
        {
            get_provenance(path.strip_prefix("/provenance/").expect("checked"), shared)
        }
        ("GET", "/metrics") => get_metrics(request, shared),
        ("GET", "/metrics/history") => get_metrics_history(request, shared),
        ("GET", "/debug/health") => Response::json(200, &shared.monitor.health_json()),
        ("GET", "/debug/slow") => get_debug_slow(shared),
        ("GET", path)
            if path
                .strip_prefix("/debug/wrappers/")
                .is_some_and(|n| !n.is_empty()) =>
        {
            get_debug_wrapper(
                path.strip_prefix("/debug/wrappers/").expect("checked"),
                shared,
            )
        }
        ("GET", path)
            if path
                .strip_prefix("/debug/requests/")
                .is_some_and(|id| !id.is_empty()) =>
        {
            get_debug_request(
                path.strip_prefix("/debug/requests/").expect("checked"),
                shared,
            )
        }
        ("GET", "/watches") => get_watches(shared),
        (method, path) if path.starts_with("/watches/") => {
            watch_route(method, path, request, shared)
        }
        ("GET", "/healthz") => Response::json(200, &obj([("status", "ok".into())])),
        ("POST", "/admin/shutdown") => {
            shared.begin_stop();
            *shared
                .shutdown_requested
                .lock()
                .expect("shutdown flag poisoned") = true;
            shared.shutdown_cv.notify_all();
            Response::json(200, &obj([("shutting_down", true.into())]))
        }
        (
            _,
            "/extract" | "/extract/batch" | "/wrappers" | "/metrics" | "/healthz"
            | "/admin/shutdown" | "/debug/slow" | "/metrics/history" | "/debug/health"
            | "/debug/live" | "/watches",
        ) => Response::error(405, "method_not_allowed", "wrong method for this path"),
        (_, path)
            if path.starts_with("/wrappers/")
                || path.starts_with("/provenance/")
                || path.starts_with("/debug/wrappers/")
                || path.starts_with("/debug/requests/") =>
        {
            Response::error(405, "method_not_allowed", "wrong method for this path")
        }
        _ => Response::error(404, "not_found", "no such endpoint"),
    }
}

fn bad_request(message: &str) -> Response {
    Response::error(400, "bad_request", message)
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
fn write_extraction_json(response: &ExtractionResponse, out: &mut String) {
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
fn write_extraction_tail(key: &CacheKey, cached: &CachedExtraction, out: &mut String) {
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
                (
                    "parent",
                    inst.parent
                        .map(|i| Json::from(i as u64))
                        .unwrap_or(Json::Null),
                ),
                (
                    "rule",
                    inst.rule
                        .map(|r| Json::from(u64::from(r)))
                        .unwrap_or(Json::Null),
                ),
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
                    record
                        .content
                        .map(|h| Json::from(format!("{h:016x}")))
                        .unwrap_or(Json::Null),
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
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return bad_request("wrapper names are [A-Za-z0-9_-]+");
    }
    let Some(body) = request.body_utf8() else {
        return bad_request("body is not UTF-8");
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return bad_request(&e.to_string()),
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

/// The watch id of a `/watches/{id}` path, if that is one.
fn watch_id(path: &str) -> Option<&str> {
    path.strip_prefix("/watches/")
        .filter(|id| !id.is_empty() && !id.contains('/'))
}

/// Route `/watches/{id}`: `PUT`, `GET` and `DELETE` with a valid id,
/// `405` for anything else.
fn watch_route(method: &str, path: &str, request: &Request, shared: &SharedGateway) -> Response {
    match (method, watch_id(path)) {
        ("PUT", Some(id)) => put_watch(id, request, shared),
        ("GET", Some(id)) => get_watch(id, shared),
        ("DELETE", Some(id)) => delete_watch(id, shared),
        _ => Response::error(405, "method_not_allowed", "wrong method for this path"),
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
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return bad_request("watch ids are [A-Za-z0-9_-]+");
    }
    let Some(body) = request.body_utf8() else {
        return bad_request("body is not UTF-8");
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return bad_request(&e.to_string()),
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
            Some(url) => Some(url.to_string()),
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
            (
                "subject",
                compile.subject().map(Json::from).unwrap_or(Json::Null),
            ),
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
        watches: shared.watches.sample(),
    };
    // Media types are case-insensitive (RFC 9110 §8.3.1).
    let wants_json = request.header("accept").is_some_and(|accept| {
        accept
            .as_bytes()
            .windows(b"application/json".len())
            .any(|w| w.eq_ignore_ascii_case(b"application/json"))
    });
    if wants_json {
        Response::json(200, &inputs.json())
    } else {
        Response::text(200, inputs.prometheus())
    }
}

/// `GET /metrics/history?window=SECS&step=SECS`: windowed rates and
/// quantiles over the monitor's history ring — a whole-window summary
/// plus per-step tiles. Defaults: the last 5 minutes in 1-minute steps.
/// The parameters are untrusted; [`Monitor::history_json`] clamps the
/// window to the retained span and bounds the tile count, so a hostile
/// `window`/`step` pair cannot pin the event loop.
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
    use super::*;
    use crate::client::HttpClient;
    use lixto_server::{ServerConfig, WrapperRegistry};

    const WRAPPER: &str = r#"
        offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X).
    "#;

    fn gateway() -> (HttpGateway, Arc<ExtractionServer>) {
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(lixto_elog::StaticWeb::new()),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 2,
                // Generous: under full-workspace test parallelism a
                // loaded box can pause a client thread long enough for
                // a tight idle timeout to evict its keep-alive session
                // mid-test. Shutdown does not wait out idle sessions,
                // so this costs nothing.
                idle_timeout: Duration::from_secs(10),
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        (gateway, server)
    }

    /// The `/extract` body as a `Json` tree — the encoder
    /// [`write_extraction_json`] replaced, kept as its byte-identity
    /// reference.
    fn extraction_json(response: &ExtractionResponse) -> Json {
        let extraction = response.extraction();
        let patterns: Vec<Json> = extraction
            .patterns()
            .iter()
            .map(|name| {
                let texts: Vec<Json> = extraction
                    .texts_of(name)
                    .into_iter()
                    .map(Json::from)
                    .collect();
                obj([("name", name.as_str().into()), ("instances", texts.into())])
            })
            .collect();
        obj([
            ("wrapper", response.wrapper.as_str().into()),
            ("version", response.version.into()),
            ("cache_hit", response.cache_hit.into()),
            ("latency_us", (response.latency.as_micros() as u64).into()),
            ("provenance_key", provenance_key(&response.key).into()),
            ("xml", response.xml().into()),
            ("patterns", patterns.into()),
        ])
    }

    #[test]
    fn streamed_extract_body_is_byte_identical_to_the_json_tree() {
        use lixto_server::{CachedExtraction, Provenance, Served};
        use lixto_workloads::traffic;

        let registry = Arc::new(WrapperRegistry::new());
        for p in traffic::profiles() {
            let design = p
                .auxiliary
                .iter()
                .fold(XmlDesign::new().root(p.root), |d, a| d.auxiliary(a));
            registry.register_source(p.name, p.program, design).unwrap();
        }
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let server = ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(lixto_elog::StaticWeb::new()),
        );
        let mut requests: Vec<(String, String, String)> = Vec::new();
        for p in traffic::profiles() {
            for seed in [1, 7] {
                for variant in 0..traffic::VARIANTS_PER_WRAPPER {
                    let html = traffic::page_for(p.name, seed, variant);
                    requests.push((p.name.into(), p.entry_url.into(), html));
                }
            }
        }
        // Quotes, backslashes, control characters, entities and
        // multi-byte UTF-8 in the extracted texts and the XML.
        let nasty = "<ul><li>Zürich \"quoted\" back\\slash\ttab</li>\
                     <li>€ &amp; &lt;tag&gt; \u{1}\u{1f} \u{1F600}\r\nline</li></ul>";
        requests.push(("shop".into(), "http://shop/".into(), nasty.into()));
        let mut checked = 0;
        let mut bodies = String::new();
        for (wrapper, url, html) in requests {
            let request = ExtractionRequest {
                trace: None,
                wrapper,
                version: None,
                source: RequestSource::Inline { url, html },
            };
            let miss = server.execute(request.clone()).unwrap();
            let Served::Hit(hit) = server.try_serve_with_notify(request, || {}).unwrap() else {
                panic!("second request must hit the hot tier");
            };
            // A result without per-instance provenance renders its texts
            // from the document trees.
            let bare = ExtractionResponse {
                result: Arc::new(CachedExtraction {
                    provenance: Provenance::default(),
                    ..(*miss.result).clone()
                }),
                ..miss.clone()
            };
            for response in [&miss, &hit, &bare] {
                let mut streamed = String::new();
                write_extraction_json(response, &mut streamed);
                assert_eq!(streamed, extraction_json(response).dump());
                bodies.push_str(&streamed);
                checked += 1;
            }
        }
        assert_eq!(checked, 3 * (5 * 2 * 3 + 1));
        // The escape-heavy page really reached the escaper, as instance
        // text and not only inside the XML.
        assert!(bodies.contains(r#"["Zürich \"quoted\" back\\slash\ttab","€ & "#));
        assert!(bodies.contains(r#"\u0001\u001f 😀\r\nline"]"#));
        server.shutdown();
    }

    #[test]
    fn many_pattern_tails_match_the_per_pattern_rescan() {
        // The tail as written before instances were bucketed by pattern:
        // one scan of the whole base per pattern.
        fn rescanned_tail(response: &ExtractionResponse) -> String {
            let cached = &*response.result;
            let extraction = &cached.result;
            let base = &extraction.base.instances;
            let mut out = String::from(",\"provenance_key\":");
            write_escaped(&provenance_key(&response.key), &mut out);
            out.push_str(",\"xml\":");
            write_escaped(&cached.xml, &mut out);
            out.push_str(",\"patterns\":[");
            for (p, name) in extraction.patterns().iter().enumerate() {
                if p > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                write_escaped(name, &mut out);
                out.push_str(",\"instances\":[");
                let of_pattern = (0..base.len()).filter(|&i| *base[i].pattern == **name);
                for (n, i) in of_pattern.enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    write_escaped(&cached.provenance.instances[i].text, &mut out);
                }
                out.push_str("]}");
            }
            out.push_str("]}");
            out
        }

        const FIELDS: usize = 24;
        const RECORDS: usize = 40;
        let mut program = String::from(
            "rec(S, X) :- document(\"http://many/\", S), subelem(S, (?.li, []), X).\n",
        );
        for k in 0..FIELDS {
            program.push_str(&format!(
                "f{k}(S, X) :- rec(_, S), subelem(S, (.span, [(class, c{k}, exact)]), X).\n"
            ));
        }
        let mut html = String::from("<ul>");
        for r in 0..RECORDS {
            html.push_str("<li>");
            // Fields in a different order per record, some missing.
            for k in (0..FIELDS)
                .map(|k| (k + r) % FIELDS)
                .filter(|k| (k + r) % 5 != 0)
            {
                html.push_str(&format!("<span class=\"c{k}\">\"{r}.{k}\"</span>"));
            }
            html.push_str("</li>");
        }
        html.push_str("</ul>");
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("many", &program, XmlDesign::new().root("records"))
            .unwrap();
        let server = ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(lixto_elog::StaticWeb::new()),
        );
        let response = server
            .execute(ExtractionRequest {
                trace: None,
                wrapper: "many".into(),
                version: None,
                source: RequestSource::Inline {
                    url: "http://many/".into(),
                    html,
                },
            })
            .unwrap();
        assert_eq!(response.extraction().patterns().len(), FIELDS + 1);
        let mut tail = String::new();
        write_extraction_tail(&response.key, &response.result, &mut tail);
        assert_eq!(tail, rescanned_tail(&response));
        assert!(
            tail.contains(r#"["\"0.1\"","\"1.1\"","\"2.1\"","#),
            "{tail}"
        );
        assert_streams_like_the_tree(&response);
        server.shutdown();
    }

    /// Stream `response` and check it byte for byte against the
    /// `Json`-tree reference; returns the streamed body.
    fn assert_streams_like_the_tree(response: &ExtractionResponse) -> String {
        let mut streamed = String::new();
        write_extraction_json(response, &mut streamed);
        assert_eq!(streamed, extraction_json(response).dump());
        streamed
    }

    /// The text memoised for `response`'s hot-tier entry, if any yet.
    fn memo_of(response: &ExtractionResponse) -> Option<String> {
        let memo = response.memo.as_ref().expect("a hit carries its memo");
        memo.get().map(str::to_string)
    }

    #[test]
    fn memoised_tails_stay_byte_identical_to_the_json_tree() {
        use lixto_elog::SharedWeb;
        use lixto_server::{Served, StoreConfig};

        let dir = std::env::temp_dir().join(format!("lixto-gateway-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let url = "http://shop/";
        let page = "<ul><li>Zürich \"quoted\" back\\slash</li><li>€ \u{1}\u{1F600}</li></ul>";
        let web = Arc::new(SharedWeb::new());
        web.put(url, page);
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
                web.clone(),
            )
        };
        let request = |version: Option<u32>, inline: bool| ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version,
            source: if inline {
                RequestSource::Inline {
                    url: url.into(),
                    html: page.into(),
                }
            } else {
                RequestSource::Web { url: url.into() }
            },
        };
        let loop_hit = |server: &ExtractionServer, version: Option<u32>| match server
            .try_serve_with_notify(request(version, true), || {})
        {
            Ok(Served::Hit(hit)) => hit,
            other => panic!("expected a loop-served hit, got {other:?}"),
        };

        // A miss encodes its body directly and carries no memo.
        let server = start();
        let miss = server.execute(request(None, true)).unwrap();
        assert!(miss.memo.is_none());
        let miss_body = assert_streams_like_the_tree(&miss);
        // The pool hands a hit its entry's memo but never fills it.
        let executed = server.execute(request(None, true)).unwrap();
        assert!(executed.cache_hit);
        assert_eq!(memo_of(&executed), None);
        // The first served hit fills the memo; later hits copy it.
        let first = loop_hit(&server, None);
        assert_eq!(memo_of(&first), None);
        assert_streams_like_the_tree(&first);
        let tail = memo_of(&first).expect("filled by the first serve");
        assert!(tail.starts_with(",\"provenance_key\":") && miss_body.ends_with(&tail));
        let again = loop_hit(&server, None);
        assert_eq!(memo_of(&again).as_ref(), Some(&tail));
        assert_streams_like_the_tree(&again);
        assert_eq!(memo_of(&executed).as_ref(), Some(&tail), "one slot");

        // A plan-sharing redeploy: both versions hit the one entry and
        // its tail; only the prefix tells them apart.
        let redeployed = server
            .registry()
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        assert_eq!(redeployed, 2);
        for (version, expected) in [(None, 2), (Some(1), 1)] {
            let hit = loop_hit(&server, version);
            assert_eq!(hit.version, expected);
            assert_eq!(memo_of(&hit).as_ref(), Some(&tail));
            let body = assert_streams_like_the_tree(&hit);
            assert!(body.contains(&format!(",\"version\":{expected},")));
        }
        server.shutdown();

        // Restart: the entry is on disk only, so a worker serves it and
        // promotes it with an empty memo — memos are never persisted.
        let server = start();
        let Served::Queued(ticket) = server
            .try_serve_with_notify(request(None, true), || {})
            .unwrap()
        else {
            panic!("a disk-only entry must be served by the pool");
        };
        let promoted = ticket.wait().unwrap();
        assert!(promoted.cache_hit);
        assert_eq!(memo_of(&promoted), None);
        assert_streams_like_the_tree(&promoted);
        assert_eq!(memo_of(&promoted).as_ref(), Some(&tail));
        assert_eq!(memo_of(&loop_hit(&server, None)).as_ref(), Some(&tail));

        // Invalidation, then re-insert: the page changes (the live
        // source's change detection drops the entry) and changes back
        // (the result is recomputed under the same key). The new entry
        // starts with an empty memo.
        let web_hit = server.execute(request(None, false)).unwrap();
        assert!(web_hit.cache_hit, "same URL and bytes, same entry");
        web.put(url, "<ul><li>changed</li></ul>");
        assert!(!server.execute(request(None, false)).unwrap().cache_hit);
        web.put(url, page);
        let recomputed = server.execute(request(None, false)).unwrap();
        assert!(!recomputed.cache_hit);
        let fresh = loop_hit(&server, None);
        assert_eq!(memo_of(&fresh), None);
        assert_streams_like_the_tree(&fresh);
        assert_eq!(memo_of(&fresh).as_ref(), Some(&tail));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_result_recomputed_in_place_never_serves_the_replaced_tail() {
        use lixto_elog::SharedWeb;

        // A crawling wrapper: a result computed with live-web access and
        // one computed self-contained differ, yet share one cache key.
        const CRAWLER: &str = r#"
            link(S, X) :- document("http://start/", S), subelem(S, (?.a, []), X).
            page(S, X) :- link(_, S), attrbind(S, href, U), document(U, X).
        "#;
        let start_page = "<body><a href='http://sub/'>next</a></body>";
        let web = Arc::new(SharedWeb::new());
        web.put("http://start/", start_page);
        web.put("http://sub/", "<p>only reachable live</p>");
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("crawler", CRAWLER, XmlDesign::new().root("pages"))
            .unwrap();
        let server = ExtractionServer::start(ServerConfig::default(), registry, web);
        let request = |inline: bool| ExtractionRequest {
            trace: None,
            wrapper: "crawler".into(),
            version: None,
            source: if inline {
                RequestSource::Inline {
                    url: "http://start/".into(),
                    html: start_page.into(),
                }
            } else {
                RequestSource::Web {
                    url: "http://start/".into(),
                }
            },
        };

        assert!(!server.execute(request(false)).unwrap().cache_hit);
        let live = server.execute(request(false)).unwrap();
        assert!(live.cache_hit);
        assert_streams_like_the_tree(&live);
        let live_tail = memo_of(&live).expect("filled");
        // The self-contained request cannot judge the live manifest, so
        // it recomputes and replaces the entry under the same key.
        let replaced = server.execute(request(true)).unwrap();
        assert!(!replaced.cache_hit);
        assert_eq!(replaced.key, live.key);
        let offline = server.execute(request(true)).unwrap();
        assert!(offline.cache_hit);
        assert_eq!(memo_of(&offline), None, "a replaced entry's memo died");
        assert_streams_like_the_tree(&offline);
        assert_ne!(memo_of(&offline), Some(live_tail));
        server.shutdown();
    }

    #[test]
    fn serves_extract_wrappers_metrics_and_health_over_keep_alive() {
        let (gateway, server) = gateway();
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        // Health.
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        // Extract (inline document).
        let body = r#"{"wrapper":"shop","url":"http://shop/","html":"<ul><li>beans</li></ul>"}"#;
        let extract = client.post_json("/extract", body).unwrap();
        assert_eq!(extract.status, 200, "{}", extract.text());
        let parsed = extract.json().unwrap();
        assert!(parsed
            .get("xml")
            .and_then(Json::as_str)
            .unwrap()
            .contains("beans"));
        assert_eq!(parsed.get("cache_hit").and_then(Json::as_bool), Some(false));
        // Same connection (keep-alive): a repeat hits the cache.
        let repeat = client.post_json("/extract", body).unwrap();
        assert_eq!(
            repeat
                .json()
                .unwrap()
                .get("cache_hit")
                .and_then(Json::as_bool),
            Some(true)
        );
        // Wrapper deployment and listing.
        let put = client
            .put_json("/wrappers/shop", r#"{"program":"offer(S, X) :- document(\"http://shop/\", S), subelem(S, (?.li, []), X).","root":"offers_v2"}"#)
            .unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
        let listing = client.get("/wrappers").unwrap();
        assert!(listing.text().contains(r#"{"name":"shop","latest":2}"#));
        // Metrics: JSON numbers agree with the in-process snapshot.
        let metrics = client.get_accept("/metrics", "application/json").unwrap();
        let snapshot = server.metrics();
        let parsed = metrics.json().unwrap();
        assert_eq!(
            parsed.get("completed").and_then(Json::as_u64),
            Some(snapshot.completed)
        );
        // Prometheus rendering carries the same counters.
        let text = client.get("/metrics").unwrap();
        assert!(text.text().contains(&format!(
            "lixto_requests_completed_total {}",
            snapshot.completed
        )));
        // Errors map to 4xx.
        assert_eq!(client.post_json("/extract", "{oops").unwrap().status, 400);
        assert_eq!(
            client
                .post_json("/extract", r#"{"wrapper":"ghost","url":"u"}"#)
                .unwrap()
                .status,
            404
        );
        assert_eq!(client.get("/no/such/path").unwrap().status, 404);
        assert_eq!(
            client
                .request("DELETE", "/wrappers", &[], None)
                .unwrap()
                .status,
            405
        );
        drop(client);
        let stats = gateway.shutdown();
        assert_eq!(stats.connections, 1, "one keep-alive connection");
        assert!(stats.requests >= 9);
        server.initiate_shutdown();
    }

    #[test]
    fn metrics_content_negotiation_ignores_media_type_case() {
        let (gateway, server) = gateway();
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let content_type = |response: &crate::client::HttpResponse| {
            response
                .header("content-type")
                .unwrap_or_default()
                .to_string()
        };
        for accept in [
            "application/json",
            "Application/JSON",
            "text/html, APPLICATION/JSON",
        ] {
            let response = client.get_accept("/metrics", accept).unwrap();
            assert!(
                content_type(&response).starts_with("application/json"),
                "{accept}"
            );
            assert!(
                response.json().unwrap().get("completed").is_some(),
                "{accept}"
            );
        }
        let text = [
            client.get("/metrics").unwrap(),
            client.get_accept("/metrics", "text/plain").unwrap(),
        ];
        for response in text {
            assert!(content_type(&response).starts_with("text/plain"));
            assert!(response.text().starts_with("# HELP lixto_"));
        }
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn request_pipelined_behind_oversized_body_still_answered() {
        use std::io::{Read, Write};

        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(lixto_elog::StaticWeb::new()),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 1,
                limits: crate::http::Limits {
                    max_header_bytes: 2048,
                    max_body_bytes: 64,
                },
                idle_timeout: Duration::from_millis(500),
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        // One write carrying an oversized POST *and* a pipelined GET:
        // the 413 must drain only the oversized request's bytes, leaving
        // the GET to be answered on the same connection.
        let oversized_body = "x".repeat(100);
        let mut raw = std::net::TcpStream::connect(gateway.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(
            format!(
                "POST /extract HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
                oversized_body.len(),
                oversized_body
            )
            .as_bytes(),
        )
        .unwrap();
        let mut received = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => received.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        let text = String::from_utf8_lossy(&received);
        assert!(text.contains("HTTP/1.1 413"), "first response: {text}");
        assert!(
            text.contains("HTTP/1.1 200") && text.contains(r#"{"status":"ok"}"#),
            "the pipelined GET must still be answered: {text}"
        );
        drop(raw);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn admin_shutdown_unblocks_the_waiter_and_closes() {
        let (gateway, server) = gateway();
        let addr = gateway.addr();
        let trigger = std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            let response = client.post_json("/admin/shutdown", "{}").unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.header("connection"), Some("close"));
        });
        gateway.wait_shutdown_requested();
        trigger.join().unwrap();
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn hundreds_of_idle_keep_alive_connections_fit_in_two_loops() {
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(lixto_elog::StaticWeb::new()),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 2,
                // Long enough that no client of the sequential sweep
                // below is evicted as idle mid-test.
                idle_timeout: Duration::from_secs(30),
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        let addr = gateway.addr();
        // Far more concurrent keep-alive sessions than the old
        // thread-per-connection model, with two handler threads, could
        // hold open at once.
        let mut clients: Vec<HttpClient> = (0..300)
            .map(|_| HttpClient::connect(addr).expect("connect"))
            .collect();
        // Every one of them is live: a request on each still answers.
        for client in clients.iter_mut() {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
        // And interleaved extraction on a few while the rest stay idle.
        let body = r#"{"wrapper":"shop","url":"http://shop/","html":"<ul><li>idle</li></ul>"}"#;
        for client in clients.iter_mut().step_by(37) {
            let response = client.post_json("/extract", body).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
        }
        drop(clients);
        let stats = gateway.shutdown();
        assert_eq!(stats.connections, 300);
        server.initiate_shutdown();
    }

    #[test]
    fn accept_backoff_doubles_caps_and_resets() {
        let mut backoff = AcceptBackoff::new(Duration::from_millis(1), Duration::from_millis(8));
        assert!(!backoff.is_backing_off());
        assert_eq!(backoff.on_error(), Duration::from_millis(1));
        assert_eq!(backoff.on_error(), Duration::from_millis(2));
        assert_eq!(backoff.on_error(), Duration::from_millis(4));
        assert_eq!(backoff.on_error(), Duration::from_millis(8));
        assert_eq!(backoff.on_error(), Duration::from_millis(8), "capped");
        assert!(backoff.is_backing_off());
        backoff.on_success();
        assert!(!backoff.is_backing_off());
        assert_eq!(
            backoff.on_error(),
            Duration::from_millis(1),
            "reset on success"
        );
        // Degenerate configuration: max below initial is raised, zero
        // initial is floored (the sleep must never be zero, or a
        // persistent error spins).
        let mut degenerate = AcceptBackoff::new(Duration::ZERO, Duration::ZERO);
        let first = degenerate.on_error();
        assert!(first > Duration::ZERO);
        assert_eq!(degenerate.on_error(), first, "max == initial");
    }

    #[test]
    fn batch_endpoint_preserves_partial_failure() {
        let (gateway, server) = gateway();
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let batch = r#"[
            {"wrapper":"shop","url":"http://shop/","html":"<ul><li>one</li></ul>"},
            {"wrapper":"ghost","url":"http://nowhere/"},
            {"wrapper":"shop","url":"http://shop/","html":"<ul><li>one</li></ul>"}
        ]"#;
        let response = client.post_json("/extract/batch", batch).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let parsed = response.json().unwrap();
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(3));
        let items = parsed.get("items").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(items[1].get("status").and_then(Json::as_u64), Some(404));
        assert_eq!(items[2].get("status").and_then(Json::as_u64), Some(200));
        assert!(items[0]
            .get("body")
            .and_then(|b| b.get("xml"))
            .and_then(Json::as_str)
            .unwrap()
            .contains("one"));
        // The connection survives a batch (keep-alive).
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    fn monitored_gateway(interval: Duration) -> (HttpGateway, Arc<ExtractionServer>) {
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(lixto_elog::StaticWeb::new()),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 2,
                idle_timeout: Duration::from_secs(10),
                monitor_interval: interval,
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        (gateway, server)
    }

    #[test]
    fn history_and_health_report_a_healthy_gateway() {
        let (gateway, server) = monitored_gateway(Duration::from_millis(20));
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        // Wait out at least two sampler ticks.
        let deadline = Instant::now() + Duration::from_secs(10);
        let history = loop {
            let history = client.get("/metrics/history?window=60&step=10").unwrap();
            assert_eq!(history.status, 200, "{}", history.text());
            let parsed = history.json().unwrap();
            let samples = parsed.get("samples").and_then(Json::as_u64).unwrap();
            if samples >= 2 {
                break parsed;
            }
            assert!(
                Instant::now() < deadline,
                "sampler never produced 2 samples"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let summary = history.get("summary").unwrap();
        assert!(summary.get("fields").and_then(Json::as_array).is_some());
        // A healthy, idle gateway scores ok, with every rule listed.
        let health = client.get("/debug/health").unwrap().json().unwrap();
        assert_eq!(health.get("verdict").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            health
                .get("rules")
                .and_then(Json::as_array)
                .map(|r| r.len()),
            Some(6)
        );
        // The metrics surface grows the alert series.
        let text = client.get("/metrics").unwrap();
        assert!(text.text().contains("lixto_alert_verdict 0"));
        assert!(text
            .text()
            .contains("lixto_alert_severity{rule=\"queue_saturation\"} 0"));
        let json = client.get_accept("/metrics", "application/json").unwrap();
        assert_eq!(
            json.json()
                .unwrap()
                .get("alerts")
                .and_then(|a| a.get("verdict"))
                .and_then(Json::as_str),
            Some("ok")
        );
        // Wrong method on a monitoring path is 405, not 404.
        assert_eq!(
            client
                .request("POST", "/debug/health", &[], None)
                .unwrap()
                .status,
            405
        );
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn live_stream_delivers_bounded_events_and_terminates() {
        use std::io::{Read, Write};

        let (gateway, server) = monitored_gateway(Duration::from_millis(20));
        // HttpClient cannot read chunked bodies; speak wire-level.
        let mut stream = TcpStream::connect(gateway.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /debug/live?events=2 HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        // The terminal chunk ends the body; read until the peer closes.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("stream read failed: {e}"),
            }
        }
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("transfer-encoding: chunked"), "{text}");
        assert!(text.contains("\"type\":\"subscribed\""), "{text}");
        assert_eq!(
            text.matches("\"type\":\"tick\"").count(),
            2,
            "exactly the requested events: {text}"
        );
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn live_stream_is_cut_loose_cleanly_by_shutdown() {
        use std::io::{Read, Write};

        // A long interval: shutdown must not wait for the next tick.
        let (gateway, server) = monitored_gateway(Duration::from_secs(60));
        let mut stream = TcpStream::connect(gateway.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /debug/live HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        // Wait for the greeting so the subscription is live first.
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        while !String::from_utf8_lossy(&raw).contains("subscribed") {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "stream closed before the greeting");
            raw.extend_from_slice(&chunk[..n]);
        }
        let shutdown = std::thread::spawn(move || gateway.shutdown());
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("stream read failed: {e}"),
            }
        }
        let text = String::from_utf8(raw).unwrap();
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");
        shutdown.join().unwrap();
        server.initiate_shutdown();
    }

    // -----------------------------------------------------------------
    // Continuous extraction: the /watches subscription layer
    // -----------------------------------------------------------------

    const WATCH_WRAPPER: &str = r#"
        offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X).
        name(S, X)  :- offer(_, S), subelem(S, (.b, []), X).
    "#;

    fn watch_page(items: &[&str]) -> String {
        let mut html = String::from("<html><body><ul>");
        for item in items {
            html.push_str(&format!("<li><b>{item}</b></li>"));
        }
        html.push_str("</ul></body></html>");
        html
    }

    /// A gateway over a mutable web, with the watch scheduler ticking
    /// at `tick` — the substrate for the subscription tests.
    fn watch_gateway(
        tick: Duration,
    ) -> (
        HttpGateway,
        Arc<ExtractionServer>,
        Arc<lixto_elog::SharedWeb>,
    ) {
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WATCH_WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let web = Arc::new(lixto_elog::SharedWeb::new());
        web.put("http://shop/", watch_page(&["espresso", "grinder"]));
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            web.clone(),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 2,
                idle_timeout: Duration::from_secs(10),
                watch_tick: tick,
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        (gateway, server, web)
    }

    #[test]
    fn watch_routes_register_inspect_and_delete() {
        let (gateway, server, _web) = watch_gateway(Duration::from_millis(200));
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        // A watch on an undeployed wrapper is refused up front.
        let ghost = client
            .put_json("/watches/w1", r#"{"wrapper":"ghost","url":"http://shop/"}"#)
            .unwrap();
        assert_eq!(ghost.status, 404, "{}", ghost.text());
        // Hostile ids never reach the registry (or its spool format).
        let bad = client
            .put_json(
                "/watches/sp.ace",
                r#"{"wrapper":"shop","url":"http://shop/"}"#,
            )
            .unwrap();
        assert_eq!(bad.status, 400, "{}", bad.text());
        // Register, then replace: 201 then 200, spec echoed back.
        let body = r#"{"wrapper":"shop","url":"http://shop/","interval_ms":60000}"#;
        let created = client.put_json("/watches/offers", body).unwrap();
        assert_eq!(created.status, 201, "{}", created.text());
        assert_eq!(
            created
                .json()
                .unwrap()
                .get("interval_ms")
                .and_then(Json::as_u64),
            Some(60_000)
        );
        let replaced = client.put_json("/watches/offers", body).unwrap();
        assert_eq!(replaced.status, 200, "{}", replaced.text());
        // Listing and single-watch inspection agree.
        let listing = client.get("/watches").unwrap().json().unwrap();
        assert_eq!(
            listing
                .get("watches")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        let one = client.get("/watches/offers").unwrap().json().unwrap();
        assert_eq!(one.get("wrapper").and_then(Json::as_str), Some("shop"));
        // The metrics surface grows the watch families, both renderings.
        let text = client.get("/metrics").unwrap();
        assert!(text.text().contains("lixto_watch_registered 1"));
        assert!(text
            .text()
            .contains("lixto_watch_ticks_total{watch=\"offers\"}"));
        let json = client.get_accept("/metrics", "application/json").unwrap();
        assert_eq!(
            json.json()
                .unwrap()
                .get("watches")
                .and_then(|w| w.get("registered"))
                .and_then(Json::as_u64),
            Some(1)
        );
        // A stream on an unknown id answers a plain 404, not a stream.
        assert_eq!(client.get("/watches/ghost/events").unwrap().status, 404);
        // Wrong method is 405, not 404, while the layer runs.
        assert_eq!(
            client
                .request("POST", "/watches/offers", &[], None)
                .unwrap()
                .status,
            405
        );
        // Delete; the id is gone from every surface.
        assert_eq!(
            client
                .request("DELETE", "/watches/offers", &[], None)
                .unwrap()
                .status,
            200
        );
        assert_eq!(client.get("/watches/offers").unwrap().status, 404);
        assert_eq!(
            client
                .request("DELETE", "/watches/offers", &[], None)
                .unwrap()
                .status,
            404
        );
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    /// The acceptance scenario end to end: a registered watch over a
    /// page that mutates once delivers exactly one instance-level diff
    /// event to a long-poll subscriber *and* a webhook sink — and
    /// nothing at all on the unchanged ticks before and after.
    #[test]
    fn watch_stream_and_webhook_deliver_exactly_one_diff_for_one_change() {
        use std::io::{Read, Write};

        let (gateway, server, web) = watch_gateway(Duration::from_millis(10));

        // A scripted webhook sink: answers every POST with 200 and
        // forwards each body. Keep-alive, like the delivery client.
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let (body_tx, body_rx) = std::sync::mpsc::channel::<String>();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = sink.accept() {
                let tx = body_tx.clone();
                std::thread::spawn(move || {
                    let mut buf: Vec<u8> = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        let header_end = loop {
                            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                                break pos + 4;
                            }
                            match stream.read(&mut chunk) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            }
                        };
                        let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
                        let length: usize = head
                            .lines()
                            .find_map(|line| {
                                let (name, value) = line.split_once(':')?;
                                name.eq_ignore_ascii_case("content-length")
                                    .then(|| value.trim().parse().ok())
                                    .flatten()
                            })
                            .unwrap_or(0);
                        while buf.len() < header_end + length {
                            match stream.read(&mut chunk) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            }
                        }
                        let body = String::from_utf8_lossy(&buf[header_end..header_end + length])
                            .to_string();
                        buf.drain(..header_end + length);
                        let _ = tx.send(body);
                        if stream
                            .write_all(
                                b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}",
                            )
                            .is_err()
                        {
                            return;
                        }
                    }
                });
            }
        });

        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let put = client
            .put_json(
                "/watches/offers",
                &format!(
                    r#"{{"wrapper":"shop","url":"http://shop/","interval_ms":10,"webhook":"http://{sink_addr}/hook"}}"#
                ),
            )
            .unwrap();
        assert_eq!(put.status, 201, "{}", put.text());

        // Wait for the baseline tick (the first extraction only sets
        // the reference snapshot — never an event).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = client.get("/watches/offers").unwrap().json().unwrap();
            if status.get("ticks").and_then(Json::as_u64).unwrap_or(0) >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "baseline tick never ran");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Subscribe, bounded to one diff event. HttpClient cannot read
        // chunked bodies; speak wire-level.
        let mut stream = TcpStream::connect(gateway.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /watches/offers/events?events=1 HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        while !String::from_utf8_lossy(&raw).contains("watch_hello") {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "stream closed before the greeting");
            raw.extend_from_slice(&chunk[..n]);
        }

        // Several unchanged ticks pass: nothing is delivered anywhere.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            body_rx.try_recv().is_err(),
            "webhook fired on an unchanged page"
        );

        // One mutation: grinder becomes kettle, mug appears.
        web.put("http://shop/", watch_page(&["espresso", "kettle", "mug"]));

        // The subscriber gets exactly one event, then the terminal
        // chunk (its ?events=1 budget is used up).
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("stream read failed: {e}"),
            }
        }
        let text = String::from_utf8(raw).unwrap();
        assert_eq!(
            text.matches("\"type\":\"watch_event\"").count(),
            1,
            "exactly one diff event: {text}"
        );
        assert!(text.contains("\"seq\":1"), "{text}");
        assert!(
            text.contains(r#"{"pattern":"name","before":"grinder","after":"kettle"}"#),
            "in-place mutation pairs as changed: {text}"
        );
        assert!(
            text.contains(r#"{"pattern":"name","text":"mug"}"#),
            "surplus instance reports as added: {text}"
        );
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");

        // The webhook got the same event, exactly once.
        let webhook_body = body_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("webhook delivery");
        assert!(webhook_body.contains("\"type\":\"watch_event\""));
        assert!(webhook_body.contains("\"watch\":\"offers\""));
        assert!(webhook_body.contains(r#"{"pattern":"name","text":"mug"}"#));
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            body_rx.try_recv().is_err(),
            "webhook fired twice for one change"
        );

        // Counters agree: one event, suppressed ticks counted, one
        // webhook delivery, no failures.
        let status = client.get("/watches/offers").unwrap().json().unwrap();
        assert_eq!(status.get("seq").and_then(Json::as_u64), Some(1));
        assert!(status.get("suppressed").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(status.get("errors").and_then(Json::as_u64), Some(0));
        let metrics = client
            .get_accept("/metrics", "application/json")
            .unwrap()
            .json()
            .unwrap();
        let watches = metrics.get("watches").unwrap();
        assert_eq!(
            watches.get("webhook_deliveries").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            watches.get("webhook_failures").and_then(Json::as_u64),
            Some(0)
        );

        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn watch_stream_is_cut_loose_cleanly_by_shutdown() {
        use std::io::{Read, Write};

        // A long interval: shutdown must not wait for the next tick.
        let (gateway, server, _web) = watch_gateway(Duration::from_millis(10));
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let put = client
            .put_json(
                "/watches/offers",
                r#"{"wrapper":"shop","url":"http://shop/","interval_ms":60000}"#,
            )
            .unwrap();
        assert_eq!(put.status, 201);
        drop(client);
        let mut stream = TcpStream::connect(gateway.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /watches/offers/events HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        while !String::from_utf8_lossy(&raw).contains("watch_hello") {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "stream closed before the greeting");
            raw.extend_from_slice(&chunk[..n]);
        }
        let shutdown = std::thread::spawn(move || gateway.shutdown());
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("stream read failed: {e}"),
            }
        }
        let text = String::from_utf8(raw).unwrap();
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");
        shutdown.join().unwrap();
        server.initiate_shutdown();
    }
}
