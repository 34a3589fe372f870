//! The NDJSON streams and watch-event delivery to their subscribers
//! and to webhooks.
//!
//! It owns the state it produces, [`Streams`]: the subscribers of each
//! kind of stream and how webhook deliveries ended. The monitor's ticks
//! and the watch diffs both reach the event loops through [`broadcast`],
//! which does nothing while that kind of stream has no subscriber.
//!
//! The watch sink ([`watch_sink`]) runs on the pool worker that resolved
//! a diff, under the watch registry's lock, so it never blocks: it
//! broadcasts the event and hands a webhook POST to the one
//! `lixto-webhooks` thread through a bounded queue. That thread alone
//! makes the POSTs, so a webhook that hangs delays only the webhooks
//! queued behind it, never rechecks or stream subscribers.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use lixto_obs::warn_event;
use lixto_server::{ChangedEntry, DiffEntry, WatchEvent, WatchRegistry};

use crate::client::{HttpClient, RetryPolicy};
use crate::http::{Request, Response};
use crate::json::{obj, Json};
use crate::metrics::WatchSample;

use super::conn::{Conn, ConnCtx, ConnState};
use super::routes::query_param;
use super::SharedGateway;

/// One line of an NDJSON stream: its topic (`None` for the monitor's
/// `GET /debug/live`, `Some(watch id)` for `GET /watches/{id}/events`)
/// and the event, serialized once and shared across loops.
pub(super) type StreamLine = (Option<Arc<String>>, Arc<String>);

/// The gateway's stream and webhook counters.
#[derive(Default)]
pub(super) struct Streams {
    /// Connections subscribed to `GET /debug/live` (`[0]`) and to a
    /// `GET /watches/{id}/events` (`[1]`).
    subscribers: [AtomicUsize; 2],
    /// Webhook POSTs that exhausted their retries (`[0]`) and that were
    /// delivered (`[1]`).
    webhooks: [AtomicU64; 2],
}

impl Streams {
    /// Count a subscriber of `topic`'s kind of stream in (`joined`) or
    /// out.
    pub(super) fn count_subscriber(&self, topic: &Option<Arc<String>>, joined: bool) {
        let count = &self.subscribers[usize::from(topic.is_some())];
        if joined {
            count.fetch_add(1, Ordering::Relaxed);
        } else {
            count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// True while some connection subscribes to a watch's event stream
    /// (`watch`) or to `GET /debug/live`.
    fn listening(&self, watch: bool) -> bool {
        self.subscribers[usize::from(watch)].load(Ordering::Relaxed) > 0
    }

    /// Count how one webhook delivery ended.
    pub(super) fn count_webhook(&self, delivered: bool) {
        self.webhooks[usize::from(delivered)].fetch_add(1, Ordering::Relaxed);
    }

    /// The `watches` group of `GET /metrics`: `registry`'s watches and
    /// these counters.
    pub(super) fn watch_sample(&self, registry: &WatchRegistry) -> WatchSample {
        let [failed, delivered] = self.webhooks.each_ref().map(|n| n.load(Ordering::Relaxed));
        WatchSample {
            subscribers: self.subscribers[1].load(Ordering::Relaxed),
            webhook_deliveries: delivered,
            webhook_failures: failed,
            watches: registry.list(),
        }
    }
}

/// Push `lines` into every event loop's inbox for the subscribers of
/// `topic` (`None` for `GET /debug/live`, `Some(watch id)` for its
/// event stream), each followed by a self-pipe wake. Skipped entirely
/// while no connection subscribes to that kind of stream.
pub(super) fn broadcast(shared: &SharedGateway, topic: Option<&str>, lines: &[String]) {
    if !shared.streams.listening(topic.is_some()) {
        return;
    }
    let topic = topic.map(|topic| Arc::new(topic.to_string()));
    let lines: Vec<StreamLine> = lines
        .iter()
        .map(|line| (topic.clone(), Arc::new(line.clone())))
        .collect();
    for event_loop in &shared.loops {
        let lines = lines.clone();
        event_loop.wake_with(|inbox| inbox.lines.extend(lines));
    }
}

/// The head of every NDJSON stream response.
const STREAM_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nconnection: close\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\n\r\n";

/// Append the lines of a subscriber's topic to its unfinished stream,
/// each as one chunk; a bounded stream ends once it used up its
/// `?events=N` budget.
pub(super) fn append_lines(conn: &mut Conn, lines: &[StreamLine]) {
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
pub(super) fn finish_stream(conn: &mut Conn) {
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

/// `GET /watches/{id}/events`: subscribe this connection to one watch's
/// instance-level diff events. The greeting echoes the watch id and
/// current sequence number. An unknown watch id answers a normal `404`.
pub(super) fn start_watch_stream(conn: &mut Conn, ctx: &ConnCtx, request: &Request, id: &str) {
    let Some(status) = ctx.shared.watches.get(id) else {
        let response = Response::error(404, "unknown_watch", "no such watch");
        return conn.respond(ctx, &response, request.keep_alive());
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
pub(super) fn start_stream(
    conn: &mut Conn,
    ctx: &ConnCtx,
    request: &Request,
    topic: Option<Arc<String>>,
    greeting: &str,
) {
    let remaining = query_param(request, "events").and_then(|v| v.parse::<u64>().ok());
    conn.respond_with(ctx, 200, false, |out, _| {
        out.extend_from_slice(STREAM_HEAD);
        append_chunk(out, greeting);
    });
    ctx.shared.streams.count_subscriber(&topic, true);
    conn.state = ConnState::Streaming {
        remaining,
        done: false,
        topic,
    };
    if remaining == Some(0) {
        finish_stream(conn);
    }
}

/// How many webhook POSTs may wait for the `lixto-webhooks` thread.
/// A delivery that finds the queue full fails at once.
const WEBHOOK_QUEUE: usize = 256;

/// One webhook POST waiting for the `lixto-webhooks` thread.
struct WebhookPost {
    watch: String,
    url: String,
    body: String,
}

/// The watch scheduler's delivery sink, and the `lixto-webhooks`
/// thread it feeds. The sink serializes a diff event once, and only
/// when someone takes it: it [`broadcast`]s the event to the watch's
/// `GET /watches/{id}/events` subscribers and queues it for the watch's
/// webhook. It runs on a pool worker under the watch registry's lock,
/// so it never waits: a full queue counts the delivery as failed.
/// Dropping the sink (the scheduler's `stop` does) closes the queue; the
/// thread POSTs what is already queued, then exits.
pub(super) fn watch_sink(
    shared: &Arc<SharedGateway>,
) -> (Box<dyn FnMut(WatchEvent) + Send>, JoinHandle<()>) {
    let (queue, posts) = mpsc::sync_channel(WEBHOOK_QUEUE);
    let thread = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("lixto-webhooks".to_string())
            .spawn(move || webhook_loop(&shared, posts))
            .expect("spawn webhook thread")
    };
    let shared = shared.clone();
    let sink = move |event: WatchEvent| {
        let listening = shared.streams.listening(true);
        if !listening && event.webhook.is_none() {
            return;
        }
        let body = watch_event_json(&event).dump();
        if listening {
            broadcast(&shared, Some(&event.watch), std::slice::from_ref(&body));
        }
        let Some(url) = event.webhook else {
            return;
        };
        let post = WebhookPost {
            watch: event.watch,
            url,
            body,
        };
        // Only a full queue refuses a post while the thread runs.
        if let Err(TrySendError::Full(post) | TrySendError::Disconnected(post)) =
            queue.try_send(post)
        {
            webhook_ended(&shared, &post, false, "queue_full");
        }
    };
    (Box::new(sink), thread)
}

/// The `lixto-webhooks` thread: POST each queued event through a
/// keep-alive client cached per URL, with the default retry policy,
/// until the sink is dropped and the queue drained.
fn webhook_loop(shared: &SharedGateway, posts: Receiver<WebhookPost>) {
    let mut clients = HashMap::new();
    for post in posts {
        let delivered = post_webhook(&mut clients, &post.url, &post.body);
        webhook_ended(shared, &post, delivered, "post_failed");
    }
}

/// Count how a webhook delivery ended, and log a failure with `reason`.
fn webhook_ended(shared: &SharedGateway, post: &WebhookPost, delivered: bool, reason: &str) {
    shared.streams.count_webhook(delivered);
    if !delivered {
        warn_event!(
            "watch_webhook_failed",
            "watch" => post.watch.clone(),
            "webhook" => post.url.clone(),
            "reason" => reason,
        );
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

/// A webhook URL, `http://authority[/path]`, split into the authority
/// and the request path; `None` for another scheme or no authority.
/// `PUT /watches/{id}` refuses a webhook this rejects.
pub(super) fn webhook_target(url: &str) -> Option<(&str, &str)> {
    let rest = url.strip_prefix("http://")?;
    let (authority, path) = rest.split_at(rest.find('/').unwrap_or(rest.len()));
    (!authority.is_empty()).then_some((authority, if path.is_empty() { "/" } else { path }))
}

/// POST `body` to a webhook URL (`http://host:port/path`), reusing a
/// cached keep-alive client per URL. A client whose POST failed is
/// dropped (its connection state is suspect — the next delivery
/// reconnects).
fn post_webhook(clients: &mut HashMap<String, HttpClient>, url: &str, body: &str) -> bool {
    let Some((authority, path)) = webhook_target(url) else {
        // Registration refuses such a URL; a spool written before it
        // did can still hold one.
        warn_event!("watch_webhook_bad_url", "webhook" => url.to_string());
        return false;
    };
    let client = match clients.entry(url.to_string()) {
        Entry::Occupied(cached) => cached.into_mut(),
        Entry::Vacant(slot) => match HttpClient::connect(authority) {
            Ok(client) => slot.insert(client),
            Err(_) => return false,
        },
    };
    let ok = client
        .post_json_with_retry(path, body, RetryPolicy::default())
        .map(|response| (200..300).contains(&response.status))
        .unwrap_or(false);
    if !ok {
        clients.remove(url);
    }
    ok
}
