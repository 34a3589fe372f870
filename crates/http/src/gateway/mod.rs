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
//!      │  │            (parked on queued items;          │
//!      │  │             outcomes via inbox + self-pipe;  │
//!      │  │             hot-tier hits skip it)           │ flushed
//!      │  └──────────────────────────────────────────────┘ keep-alive
//!      └── idle (empty buffer; evicted after `idle_timeout`)
//! ```
//!
//! Extraction dispatch is **asynchronous**: the loop submits each item
//! through the pool's [`try_serve`](ExtractionServer::try_serve) and
//! parks the connection. The pool answers the item's callback exactly
//! once; it pushes the outcome into the loop's inbox and wakes its
//! self-pipe, and an outcome whose connection has gone is dropped. A
//! slow extraction therefore never stalls unrelated
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
//! every queued item answers — and joins all threads.
//!
//! ## Endpoints
//!
//! The route table in `routes` serves exactly these. A listed path with
//! another method answers `405` with `Allow`; any other path `404`.
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
//! pool on
//! [`ExtractionRequest::trace`](lixto_server::ExtractionRequest::trace),
//! so worker log events name the request, and a span record (status,
//! per-stage wall times, wake latency) is retained for
//! `GET /debug/requests/{id}` and `GET /debug/slow`.
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

mod conn;
mod extract;
mod routes;
mod stream;

use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lixto_obs::{warn_event, RuleStat, SpanBuffer};
use lixto_server::{ExtractionServer, LatencyHistogram, WatchRegistry, WatchScheduler};

use crate::http::{Limits, Response};
use crate::monitor::{Monitor, TickSample};
use crate::poll::SelfPipe;

use conn::EventLoop;
use stream::{broadcast, watch_sink, StreamLine, Streams};

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
    /// the SLO watchdog over it (`GET /debug/health`, judged over the
    /// last `MONITOR_EVAL_TICKS` samples) and feeds `GET /debug/live`.
    /// The gateway's only time-scale setting, so that tests can shorten
    /// time; it belongs to an injectable clock once the gateway has one.
    pub monitor_interval: Duration,
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
            watch_spool: None,
        }
    }
}

/// Bounded, reset-on-success exponential backoff for `accept(2)`
/// failures (`ECONNABORTED` mid-handshake, momentary `EMFILE`): the
/// acceptor must survive transient errors without spinning a core, yet
/// return to full accept rate the moment the condition clears. It
/// sleeps [`ACCEPT_BACKOFF_INITIAL`] after the first failure, doubling
/// per consecutive failure up to [`ACCEPT_BACKOFF_MAX`].
#[derive(Debug, Default)]
struct AcceptBackoff {
    current: Option<Duration>,
}

impl AcceptBackoff {
    /// A successful accept clears the streak: the next failure starts
    /// back at the initial sleep.
    fn on_success(&mut self) {
        self.current = None;
    }

    /// Record a failure and return how long to sleep before retrying.
    fn on_error(&mut self) -> Duration {
        let next = match self.current {
            None => ACCEPT_BACKOFF_INITIAL,
            Some(cur) => cur.saturating_mul(2).min(ACCEPT_BACKOFF_MAX),
        };
        self.current = Some(next);
        next
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

/// A queued item's outcome on its way back to its loop: which item of
/// which connection slot (and incarnation of it) it answers, and when
/// the worker sent it — the loop measures its wake latency from that.
struct Completion {
    slot: usize,
    generation: u64,
    index: usize,
    outcome: Result<lixto_server::ExtractionResponse, lixto_server::ServerError>,
    finished_at: Instant,
}

/// Cross-thread mailbox of one event loop: the acceptor pushes adopted
/// sockets, pool workers push completions carrying their outcomes,
/// shutdown raises `stop` — each followed by a self-pipe wake.
#[derive(Default)]
struct Inbox {
    accepted: Vec<TcpStream>,
    completions: Vec<Completion>,
    /// Lines to fan out to this loop's NDJSON subscribers.
    lines: Vec<StreamLine>,
    stop: bool,
}

/// The shared half of one event loop (the loop thread owns the
/// connections themselves).
struct LoopShared {
    pipe: SelfPipe,
    inbox: Mutex<Inbox>,
    /// Connections currently assigned (incremented by the acceptor at
    /// assignment, decremented by the loop on close) — the
    /// least-loaded-loop placement key and the per-loop cap gauge.
    load: AtomicUsize,
    /// Connections currently parked on queued extractions, published by
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

    /// Everything queued so far, leaving the inbox empty.
    fn take_inbox(&self) -> Inbox {
        std::mem::take(&mut *self.inbox.lock().expect("loop inbox poisoned"))
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
    /// Worker's send → event-loop dispatch latency (the `wake` stage),
    /// recorded for every completion.
    wake: LatencyHistogram,
    /// The continuous-monitoring subsystem (history ring, SLO watchdog).
    monitor: Arc<Monitor>,
    /// The continuous-extraction subscriptions.
    watches: Arc<WatchRegistry>,
    /// Stream subscriber and webhook counters.
    streams: Streams,
}

/// One event loop's gauges, copied into [`GatewayObservations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopGauges {
    /// Connections currently assigned to the loop.
    pub connections: usize,
    /// Of those, connections parked on queued extractions.
    pub parked: usize,
}

/// Gateway-side observability gauges shown on `GET /metrics` (see
/// [`MetricInputs`](crate::MetricInputs)) next to the pool's counters:
/// event-loop health, wake latency, and per-rule execution telemetry.
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
    webhooks: std::thread::JoinHandle<()>,
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
/// How many trailing samples the SLO watchdog judges each tick: its
/// evidence window is `monitor_interval × MONITOR_EVAL_TICKS`.
const MONITOR_EVAL_TICKS: u32 = 5;
/// The longest the watch scheduler sleeps in one go. It also wakes when
/// the next watch falls due or a watch is registered, so this is only a
/// backstop.
const WATCH_TICK: Duration = Duration::from_millis(250);

impl HttpGateway {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the acceptor, event loops, monitor sampler, watch
    /// scheduler and webhook thread serving `server`.
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
            MONITOR_EVAL_TICKS,
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
            streams: Streams::default(),
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
        let (sink, webhooks) = watch_sink(&shared);
        let watch_scheduler = WatchScheduler::start(
            shared.server.clone(),
            shared.watches.clone(),
            WATCH_TICK,
            sink,
        );
        Ok(HttpGateway {
            addr: local_addr,
            shared,
            acceptor,
            sampler,
            watch_scheduler,
            webhooks,
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
        let shared = &self.shared;
        let requested = shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        let wait = shared
            .shutdown_cv
            .wait_while(requested, |requested| !*requested);
        drop(wait.expect("shutdown flag poisoned"));
    }

    /// Graceful shutdown: stop accepting, close idle connections, flush
    /// what is in flight (responses switch to `Connection: close`), let
    /// parked extractions resolve, join every thread, and return the
    /// final counters. The extraction pool is *not* shut down — it may
    /// be shared; call [`ExtractionServer::initiate_shutdown`]
    /// separately (before or after this call — parked extractions
    /// resolve either way).
    pub fn shutdown(self) -> GatewayStats {
        let HttpGateway {
            addr,
            shared,
            acceptor,
            sampler,
            watch_scheduler,
            webhooks,
            loops,
        } = self;
        shared.begin_stop();
        // Stop the sampler first: it must not broadcast into event
        // loops that are draining their last subscribers.
        shared.monitor.stop();
        let _ = sampler.join();
        // Same for the watch scheduler: once it returns, no worker
        // delivers a diff, and the loops can finish their streams. It
        // drops the sink, so the webhook thread POSTs what is queued and
        // exits; it is joined last, so a slow webhook does not hold up
        // the loops' drain.
        watch_scheduler.stop();
        // Wake the acceptor out of its blocking accept(). A wildcard
        // bind address (0.0.0.0 / ::) is not connectable everywhere, so
        // aim the wake-up at loopback on the bound port.
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
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
            for stream in event_loop.take_inbox().accepted {
                refuse_busy(stream, &shared);
            }
        }
        let _ = webhooks.join();
        shared.stats()
    }
}

/// First sleep after a failed `accept(2)`; doubles per consecutive
/// failure (see [`AcceptBackoff`]).
const ACCEPT_BACKOFF_INITIAL: Duration = Duration::from_millis(1);
/// Upper bound for the accept-error backoff sleep.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

fn acceptor_loop(listener: TcpListener, shared: Arc<SharedGateway>) {
    let mut backoff = AcceptBackoff::default();
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
/// shutdown, its events [`broadcast`] to `GET /debug/live` subscribers.
fn sampler_loop(shared: Arc<SharedGateway>) {
    let monitor = &shared.monitor;
    while monitor.sleep_until_next_tick() {
        broadcast(&shared, None, &monitor.tick(&monitor_tick_sample(&shared)));
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

#[cfg(test)]
mod tests {
    use super::extract::{write_extraction_json, write_extraction_tail};
    use super::*;
    use crate::client::HttpClient;
    use crate::json::{obj, write_escaped, Json};
    use lixto_server::{
        provenance_key, ExtractionRequest, ExtractionResponse, RequestSource, ServerConfig,
        WrapperRegistry, XmlDesign,
    };

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
            let Served::Hit(hit) = server.try_serve(request, |_| {}).unwrap() else {
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
            .try_serve(request(version, true), |_| {})
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
        let (tx, rx) = std::sync::mpsc::channel();
        let served = server
            .try_serve(request(None, true), move |outcome| {
                tx.send(outcome).unwrap()
            })
            .unwrap();
        assert!(
            matches!(served, Served::Queued),
            "a disk-only entry must be served by the pool"
        );
        let promoted = rx.recv().unwrap().unwrap();
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
        let mut backoff = AcceptBackoff::default();
        assert_eq!(backoff.current, None);
        let sleeps: Vec<u128> = (0..10).map(|_| backoff.on_error().as_millis()).collect();
        assert_eq!(sleeps, [1, 2, 4, 8, 16, 32, 64, 128, 200, 200], "capped");
        assert!(backoff.current.is_some());
        backoff.on_success();
        assert_eq!(backoff.current, None);
        assert_eq!(
            backoff.on_error(),
            Duration::from_millis(1),
            "reset on success"
        );
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

    /// A gateway over a mutable web — the substrate for the
    /// subscription tests.
    fn watch_gateway() -> (
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
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        (gateway, server, web)
    }

    #[test]
    fn watch_routes_register_inspect_and_delete() {
        let (gateway, server, _web) = watch_gateway();
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

    #[test]
    fn put_watch_refuses_a_webhook_it_could_never_deliver_to() {
        let (gateway, server, _web) = watch_gateway();
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let put = |client: &mut HttpClient, webhook: &str| {
            let body =
                format!(r#"{{"wrapper":"shop","url":"http://shop/","webhook":"{webhook}"}}"#);
            client.put_json("/watches/offers", &body).unwrap()
        };
        for webhook in [
            "ftp://x",
            "http://",
            "http:///hook",
            "https://sink/hook",
            "sink:9",
        ] {
            let refused = put(&mut client, webhook);
            assert_eq!(refused.status, 400, "{webhook}: {}", refused.text());
            assert_eq!(
                refused.json().unwrap().get("error").and_then(Json::as_str),
                Some("bad_request")
            );
            assert_eq!(
                client.get("/watches/offers").unwrap().status,
                404,
                "{webhook} registered nothing"
            );
        }
        for (webhook, status) in [("http://sink:9", 201), ("http://sink:9/hook?x=1", 200)] {
            let accepted = put(&mut client, webhook);
            assert_eq!(accepted.status, status, "{webhook}: {}", accepted.text());
        }
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    #[test]
    fn a_spooled_webhook_registration_would_refuse_still_fails_at_delivery() {
        // A spool written before registration checked webhooks can hold
        // one it refuses now: it reloads, and each delivery fails.
        let dir = std::env::temp_dir().join(format!(
            "lixto-gateway-bad-webhook-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        WatchRegistry::with_spool(&dir).unwrap().put(
            "legacy",
            lixto_server::WatchSpec {
                wrapper: "shop".into(),
                url: "http://shop/".into(),
                interval: Duration::from_millis(10),
                webhook: Some("ftp://x".into()),
            },
        );
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WATCH_WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        let web = Arc::new(lixto_elog::SharedWeb::new());
        web.put("http://shop/", watch_page(&["espresso"]));
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            web.clone(),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 1,
                watch_spool: Some(dir.clone()),
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let watch = client.get("/watches/legacy").unwrap().json().unwrap();
        assert_eq!(watch.get("webhook").and_then(Json::as_str), Some("ftp://x"));
        let webhook_counter = |client: &mut HttpClient, name: &str| {
            let metrics = client.get_accept("/metrics", "application/json").unwrap();
            let metrics = metrics.json().unwrap();
            metrics
                .get("watches")
                .and_then(|w| w.get(name))
                .and_then(Json::as_u64)
                .unwrap()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = client.get("/watches/legacy").unwrap().json().unwrap();
            if status.get("ticks").and_then(Json::as_u64).unwrap_or(0) >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "baseline tick never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        web.put("http://shop/", watch_page(&["espresso", "grinder"]));
        while webhook_counter(&mut client, "webhook_failures") == 0 {
            assert!(Instant::now() < deadline, "the diff was never delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(webhook_counter(&mut client, "webhook_deliveries"), 0);
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance scenario end to end: a registered watch over a
    /// page that mutates once delivers exactly one instance-level diff
    /// event to a long-poll subscriber *and* a webhook sink — and
    /// nothing at all on the unchanged ticks before and after.
    #[test]
    fn watch_stream_and_webhook_deliver_exactly_one_diff_for_one_change() {
        use std::io::{Read, Write};

        let (gateway, server, web) = watch_gateway();

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
        let (gateway, server, _web) = watch_gateway();
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

    #[test]
    fn sample_aggregates_counters() {
        let streams = Streams::default();
        let registry = WatchRegistry::new();
        registry.put(
            "a",
            lixto_server::WatchSpec {
                wrapper: "shop".into(),
                url: "http://shop/".into(),
                interval: Duration::from_millis(5),
                webhook: None,
            },
        );
        let topic = Some(Arc::new("a".to_string()));
        streams.count_subscriber(&topic, true);
        streams.count_subscriber(&None, true);
        streams.count_webhook(true);
        streams.count_webhook(false);
        let sample = streams.watch_sample(&registry);
        assert_eq!(sample.subscribers, 1, "a live subscriber is not a watch's");
        assert_eq!(sample.webhook_deliveries, 1);
        assert_eq!(sample.webhook_failures, 1);
        assert_eq!(sample.watches.len(), 1);
        streams.count_subscriber(&topic, false);
        assert_eq!(streams.watch_sample(&registry).subscribers, 0);
    }

    /// On a running gateway, `lixto_watch_subscribers` counts the watch
    /// event streams only and follows a closed one out, while the live
    /// stream beside it keeps receiving ticks.
    #[test]
    fn watch_subscriber_gauge_counts_only_watch_streams() {
        use std::io::{Read, Write};

        let (gateway, server) = monitored_gateway(Duration::from_millis(20));
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let put = client
            .put_json(
                "/watches/offers",
                r#"{"wrapper":"shop","url":"http://shop/","interval_ms":60000}"#,
            )
            .unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
        let gauge = |client: &mut HttpClient| {
            let metrics = client.get("/metrics").unwrap();
            let text = metrics.text();
            let line = text
                .lines()
                .find_map(|line| line.strip_prefix("lixto_watch_subscribers "))
                .map(str::to_string);
            line.expect("the subscriber gauge")
        };
        assert_eq!(gauge(&mut client), "0");
        // Open a stream on the wire and read up to `marker`.
        let open = |path: &str, marker: &str| {
            let mut stream = TcpStream::connect(gateway.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
                .unwrap();
            let mut raw = Vec::new();
            let mut chunk = [0u8; 4096];
            while !String::from_utf8_lossy(&raw).contains(marker) {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "{path} closed before {marker}");
                raw.extend_from_slice(&chunk[..n]);
            }
            stream
        };
        let mut live = open("/debug/live", "\"type\":\"subscribed\"");
        let watch = open("/watches/offers/events", "watch_hello");
        assert_eq!(gauge(&mut client), "1", "the live stream is not counted");
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        while !String::from_utf8_lossy(&raw).contains("\"type\":\"tick\"") {
            let n = live.read(&mut chunk).unwrap();
            assert!(n > 0, "the live stream closed before a tick");
            raw.extend_from_slice(&chunk[..n]);
        }
        drop(watch);
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge(&mut client) != "0" {
            assert!(
                Instant::now() < deadline,
                "a closed watch stream is still counted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop((live, client));
        gateway.shutdown();
        server.initiate_shutdown();
    }
}
