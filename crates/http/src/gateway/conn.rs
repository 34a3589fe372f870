//! The event loops and the per-connection state machine: read, parse,
//! flush, deadlines, and the drain under shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{parse_request_with_body_limit, RequestError, Response};
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};

use super::extract::{assemble_response, Dispatch};
use super::routes::{self, body_limit};
use super::stream::{append_lines, finish_stream, StreamLine};
use super::{count_response, refuse_busy, Completion, GatewayConfig, LoopShared, SharedGateway};

pub(super) enum ConnState {
    /// Waiting for (more of) a request; an empty buffer means idle
    /// keep-alive.
    Reading,
    /// A complete request is parked on the extraction pool until every
    /// queued item's outcome is back.
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

pub(super) struct Conn {
    stream: TcpStream,
    pub(super) generation: u64,
    pub(super) state: ConnState,
    /// Bytes received but not yet consumed by the parser.
    buf: Vec<u8>,
    /// Bytes to send; `written` of them already went out.
    pub(super) out: Vec<u8>,
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
    pub(super) write_started: Instant,
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
    /// `100 Continue` racing a body), nothing while purely parked (poll
    /// still reports the error of a client that reset the connection).
    fn interest(&self) -> i16 {
        let mut events = 0i16;
        // A subscriber sends nothing more, but its EOF is the only
        // disconnect signal an idle stream gets.
        if matches!(self.state, ConnState::Reading | ConnState::Streaming { .. }) {
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

    /// Answer the request just parsed with `response` (see
    /// [`respond_with`](Conn::respond_with)).
    pub(super) fn respond(&mut self, ctx: &ConnCtx, response: &Response, keep_alive: bool) {
        self.respond_with(ctx, response.status, keep_alive, |out, keep_alive| {
            response.write_to(out, keep_alive)
        });
    }

    /// Answer the request just parsed: count `status` in the gateway's
    /// counters, keep the connection only if `keep_alive` and the
    /// gateway is not stopping (re-checked here, so a response built
    /// after `/admin/shutdown` raised the flag already says close), and
    /// queue what `write` puts out for that decision after any pending
    /// interim bytes.
    pub(super) fn respond_with(
        &mut self,
        ctx: &ConnCtx,
        status: u16,
        keep_alive: bool,
        write: impl FnOnce(&mut Vec<u8>, bool),
    ) {
        count_response(ctx.shared, status);
        let keep_alive = keep_alive && !ctx.shared.stopping();
        if self.out.is_empty() {
            self.write_started = Instant::now();
        }
        write(&mut self.out, keep_alive);
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

pub(super) struct EventLoop {
    ls: Arc<LoopShared>,
    shared: Arc<SharedGateway>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_generation: u64,
    stopping: bool,
}

impl EventLoop {
    pub(super) fn new(ls: Arc<LoopShared>, shared: Arc<SharedGateway>) -> EventLoop {
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

    pub(super) fn run(mut self) {
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
                pollfds.push(PollFd::new(conn.stream.as_raw_fd(), conn.interest()));
                slot_of.push(slot);
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
        let inbox = self.ls.take_inbox();
        self.stopping |= inbox.stop;
        for stream in inbox.accepted {
            self.adopt(stream);
        }
        for completion in inbox.completions {
            self.handle_completion(completion);
        }
        if !inbox.lines.is_empty() {
            self.deliver(&inbox.lines);
        }
    }

    /// Fan stream lines out to this loop's unfinished NDJSON streams.
    fn deliver(&mut self, lines: &[StreamLine]) {
        for slot in 0..self.conns.len() {
            self.with_conn(slot, |conn, ctx| match conn.state {
                ConnState::Streaming { done: false, .. } => {
                    append_lines(conn, lines);
                    pump(conn, ctx)
                }
                _ => Action::Keep,
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
                self.shared.streams.count_subscriber(topic, false);
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
            } else if matches!(conn.state, ConnState::Dispatched(_)) && conn.out.is_empty() {
                // Polled with no interest, so only an error or hangup
                // wakes it: the client reset the connection. The slot
                // is freed now; the outcome, when it arrives, is stale.
                Action::Close
            } else if writable {
                pump(conn, ctx)
            } else {
                Action::Keep
            }
        });
    }

    fn handle_completion(&mut self, completion: Completion) {
        // Wake latency: worker's send → this dispatch. Recorded for
        // every completion (stale ones measured a real wake too).
        let wake = completion.finished_at.elapsed();
        self.shared.wake.record(wake);
        let slot = completion.slot;
        let conn = self.conns.get(slot).and_then(Option::as_ref);
        if conn.is_none_or(|c| c.generation != completion.generation) {
            return; // stale: the connection died while parked
        }
        self.with_conn(slot, |conn, ctx| {
            let ConnState::Dispatched(dispatch) = &mut conn.state else {
                return Action::Keep; // defensive: raced a state change
            };
            let wake_ns = wake.as_nanos().min(u128::from(u64::MAX)) as u64;
            if !dispatch.answer(completion, wake_ns) {
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
        let quiescent =
            |conn: &Conn| matches!(conn.state, ConnState::Reading) && conn.out.is_empty();
        for slot in 0..self.conns.len() {
            self.with_conn(slot, |conn, ctx| match conn.state {
                ConnState::Streaming { .. } => {
                    finish_stream(conn);
                    pump(conn, ctx)
                }
                // Still reading with nothing to send after serving what
                // is buffered: no complete request is pending — close
                // rather than wait out the idle timeout.
                _ if quiescent(conn) => match pump(conn, ctx) {
                    Action::Keep if quiescent(conn) => Action::Close,
                    action => action,
                },
                _ => Action::Keep,
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
                conn.respond(ctx, &response, false);
                pump(conn, ctx)
            });
        }
    }
}

/// Everything a connection handler needs besides the connection itself.
pub(super) struct ConnCtx<'a> {
    pub(super) shared: &'a SharedGateway,
    pub(super) ls: &'a Arc<LoopShared>,
    pub(super) slot: usize,
}

fn on_readable(conn: &mut Conn, ctx: &ConnCtx) -> Action {
    let mut chunk = [0u8; 16 * 1024];
    // Cap the bytes consumed per wakeup: a peer streaming at line rate
    // must not keep this loop spinning (starving every co-located
    // connection and growing the buffer unparsed) — after the cap we
    // fall through to parsing, and level-triggered poll re-reports the
    // remainder on the next iteration, fairly interleaved.
    for _ in 0..8 {
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
    let config = &ctx.shared.config;
    let limit_for = |method: &str, path: &str| body_limit(config, method, path);
    match parse_request_with_body_limit(&conn.buf, &config.limits, &limit_for) {
        Ok(Some((request, consumed))) => {
            conn.buf.drain(..consumed);
            shrink_if_bloated(&mut conn.buf);
            conn.continued = false;
            conn.read_started = None;
            routes::serve(conn, ctx, &request);
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
            let plan = drain_plan(&error, conn.buf.len()).filter(|_| !ctx.shared.stopping());
            let response = Response::error(error.status(), error_code(&error), &error.message());
            match plan {
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
                }
                None => conn.buf.clear(),
            }
            conn.respond(ctx, &response, plan.is_some());
            true
        }
    }
}

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
pub(super) fn contains_ignore_ascii_case(haystack: &[u8], needle: &[u8]) -> bool {
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
