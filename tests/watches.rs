//! Continuous extraction end to end: a fleet of watches over a mutating
//! web must deliver exactly one instance-level diff per change — the
//! diff agreeing with a reference recompute — deliver nothing on
//! unchanged or markup-only ticks, stay fresh within a bounded latency
//! while all watches tick concurrently, and survive a gateway restart
//! through the durability spool. A webhook that never answers stalls
//! neither the other watches' streams nor its own watch's rechecks.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lixto::core::XmlDesign;
use lixto::elog::{SharedWeb, WebSource};
use lixto::http::{GatewayConfig, HttpClient, HttpGateway, Json};
use lixto::server::{
    durability_layout, ExtractionRequest, ExtractionServer, RequestSource, ServerConfig,
    WatchEvent, WatchRegistry, WatchScheduler, WatchSpec, WrapperRegistry,
};
use lixto::transform::{diff_snapshots, ExtractionSnapshot, InstanceDiff};

fn shop_url(i: usize) -> String {
    format!("http://shop{i}/")
}

fn shop_program(i: usize) -> String {
    format!(
        r#"
        offer(S, X) :- document("{url}", S), subelem(S, (?.li, []), X).
        name(S, X)  :- offer(_, S), subelem(S, (.b, []), X).
        "#,
        url = shop_url(i)
    )
}

fn page(items: &[String]) -> String {
    let mut html = String::from("<html><body><ul>");
    for item in items {
        html.push_str(&format!("<li><b>{item}</b></li>"));
    }
    html.push_str("</ul></body></html>");
    html
}

fn items_v1(i: usize) -> Vec<String> {
    (0..3).map(|n| format!("item-{i}-{n}")).collect()
}

/// Version 2 of shop `i`: the middle item mutates in place, a new one
/// appears at the end — every watch must report exactly that.
fn items_v2(i: usize) -> Vec<String> {
    let mut items = items_v1(i);
    items[1] = format!("item-{i}-1-changed");
    items.push(format!("item-{i}-new"));
    items
}

/// The server's own pattern-instance view of a pinned document — the
/// reference the scheduler's snapshots must agree with.
fn reference_snapshot(
    server: &ExtractionServer,
    wrapper: &str,
    url: &str,
    html: &str,
) -> ExtractionSnapshot {
    let response = server
        .execute(ExtractionRequest {
            trace: None,
            wrapper: wrapper.to_string(),
            version: None,
            source: RequestSource::Inline {
                url: url.to_string(),
                html: html.to_string(),
            },
        })
        .expect("reference extraction");
    ExtractionSnapshot::from_pairs(
        response
            .result
            .provenance
            .instances
            .iter()
            .map(|instance| (instance.pattern.clone(), instance.text.clone())),
    )
}

#[test]
fn concurrent_watches_deliver_exact_diffs_once_and_stay_silent_otherwise() {
    const WATCHES: usize = 6;

    let web = Arc::new(SharedWeb::new());
    for i in 0..WATCHES {
        web.put(&shop_url(i), page(&items_v1(i)));
    }
    let wrappers = Arc::new(WrapperRegistry::new());
    for i in 0..WATCHES {
        wrappers
            .register_source(
                &format!("shop{i}"),
                &shop_program(i),
                XmlDesign::new().root("offers"),
            )
            .unwrap();
    }
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        wrappers,
        web.clone(),
    ));
    let registry = Arc::new(WatchRegistry::new());
    for i in 0..WATCHES {
        registry.put(
            &format!("w{i}"),
            WatchSpec {
                wrapper: format!("shop{i}"),
                url: shop_url(i),
                interval: Duration::from_millis(10),
                webhook: None,
            },
        );
    }
    let (tx, rx) = mpsc::channel::<WatchEvent>();
    let scheduler = WatchScheduler::start(
        server.clone(),
        registry.clone(),
        Duration::from_millis(5),
        Box::new(move |event| {
            let _ = tx.send(event);
        }),
    );

    // Every watch baselines and then survives several unchanged ticks
    // without a single delivery.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let watches = registry.list();
        if watches.iter().all(|w| w.ticks >= 3) {
            break;
        }
        assert!(Instant::now() < deadline, "watches never ticked");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        rx.try_recv().is_err(),
        "a delivery happened although no page changed"
    );
    let watches = registry.list();
    assert!(
        watches.iter().all(|w| w.seq == 0 && w.suppressed >= 1),
        "unchanged ticks must be detected and suppressed: {:?}",
        watches
            .iter()
            .map(|w| (w.id.clone(), w.ticks, w.seq, w.suppressed))
            .collect::<Vec<_>>()
    );

    // Markup-only change: new bytes, the same records. Every watch
    // re-extracts the changed page several times and still delivers
    // nothing.
    let ticked = registry.list().iter().map(|w| w.ticks).max();
    for i in 0..WATCHES {
        let banner = page(&items_v1(i)).replace("<body>", "<body><p>banner</p>");
        web.put(&shop_url(i), banner);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !registry
        .list()
        .iter()
        .all(|w| Some(w.ticks) >= ticked.map(|t| t + 3))
    {
        assert!(Instant::now() < deadline, "watches stopped ticking");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        rx.try_recv().is_err(),
        "a markup-only change was delivered as a diff"
    );

    // Mutate every page at once, then collect exactly one event per
    // watch within a bounded window.
    let mutated_at = Instant::now();
    for i in 0..WATCHES {
        web.put(&shop_url(i), page(&items_v2(i)));
    }
    let mut events: Vec<WatchEvent> = Vec::new();
    let mut worst_latency = Duration::ZERO;
    while events.len() < WATCHES {
        let event = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("every watch must notice its page changed");
        worst_latency = worst_latency.max(mutated_at.elapsed());
        events.push(event);
    }
    assert!(
        worst_latency < Duration::from_secs(30),
        "change-to-delivery latency unbounded: {worst_latency:?}"
    );

    // Each event is its watch's first and only delivery, and its diff
    // equals an independent recompute from the pinned page versions.
    events.sort_by(|a, b| a.watch.cmp(&b.watch));
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event.watch, format!("w{i}"));
        assert_eq!(event.seq, 1, "exactly one delivery for one change");
        let wrapper = format!("shop{i}");
        let url = shop_url(i);
        let before = reference_snapshot(&server, &wrapper, &url, &page(&items_v1(i)));
        let after = reference_snapshot(&server, &wrapper, &url, &page(&items_v2(i)));
        let expected: InstanceDiff = diff_snapshots(&before, &after);
        assert!(
            !expected.is_empty(),
            "the reference diff must be non-trivial"
        );
        assert_eq!(
            event.diff, expected,
            "watch w{i} diff disagrees with the reference recompute"
        );
        // The shape is the one the mutation implies: one in-place change
        // and one addition per pattern (offer and name).
        assert_eq!(event.diff.changed.len(), 2);
        assert_eq!(event.diff.added.len(), 2);
        assert_eq!(event.diff.removed.len(), 0);
    }

    // And silence again: the mutated pages are the new baseline.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        rx.try_recv().is_err(),
        "a second delivery happened for a single change"
    );
    let watches = registry.list();
    assert!(watches.iter().all(|w| w.seq == 1 && w.errors == 0));

    scheduler.stop();
    server.initiate_shutdown();
}

#[test]
fn watch_subscriptions_survive_a_gateway_restart() {
    let root = std::env::temp_dir().join(format!(
        "lixto-watch-restart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let layout = durability_layout(&root);

    let make_web = || {
        let web = Arc::new(SharedWeb::new());
        web.put(&shop_url(0), page(&items_v1(0)));
        web
    };
    let make_server = |web: &Arc<SharedWeb>| {
        let wrappers = Arc::new(WrapperRegistry::new());
        wrappers
            .register_source("shop0", &shop_program(0), XmlDesign::new().root("offers"))
            .unwrap();
        Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            wrappers,
            web.clone(),
        ))
    };
    let bind = |server: &Arc<ExtractionServer>| {
        HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 1,
                idle_timeout: Duration::from_secs(10),
                watch_spool: Some(layout.watches.clone()),
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap()
    };

    // First life: register a watch (plus one that is deleted again) and
    // let it baseline.
    {
        let web = make_web();
        let server = make_server(&web);
        let gateway = bind(&server);
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let put = client
            .put_json(
                "/watches/offers",
                &format!(
                    r#"{{"wrapper":"shop0","url":"{}","interval_ms":20,"webhook":"http://sink:9/hook"}}"#,
                    shop_url(0)
                ),
            )
            .unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
        let put = client
            .put_json(
                "/watches/doomed",
                &format!(r#"{{"wrapper":"shop0","url":"{}"}}"#, shop_url(0)),
            )
            .unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
        assert_eq!(
            client
                .request("DELETE", "/watches/doomed", &[], None)
                .unwrap()
                .status,
            200
        );
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }

    // Second life: the subscription is back (the deleted one is not),
    // with its spec intact — and it resumes ticking against the fresh
    // pool, re-baselining silently before reporting new changes.
    {
        let web = make_web();
        let server = make_server(&web);
        let gateway = bind(&server);
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let listing = client.get("/watches").unwrap().json().unwrap();
        assert_eq!(
            listing
                .get("watches")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1),
            "exactly the surviving watch: {listing}"
        );
        let status = client.get("/watches/offers").unwrap().json().unwrap();
        assert_eq!(status.get("wrapper").and_then(Json::as_str), Some("shop0"));
        assert_eq!(
            status.get("interval_ms").and_then(Json::as_u64),
            Some(20),
            "interval survives the spool round trip"
        );
        assert_eq!(
            status.get("webhook").and_then(Json::as_str),
            Some("http://sink:9/hook"),
            "webhook survives the spool round trip"
        );
        assert_eq!(client.get("/watches/doomed").unwrap().status, 404);
        // Counters restarted from zero; the scheduler picks the watch
        // up again without any re-registration.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = client.get("/watches/offers").unwrap().json().unwrap();
            if status.get("ticks").and_then(Json::as_u64).unwrap_or(0) >= 2 {
                assert_eq!(
                    status.get("seq").and_then(Json::as_u64),
                    Some(0),
                    "a restart re-baselines silently — no replayed diffs"
                );
                break;
            }
            assert!(Instant::now() < deadline, "recovered watch never ticked");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Open an NDJSON subscription on a raw socket (the blocking client
/// cannot read chunked bodies) and read until its greeting arrived.
fn subscribe(addr: std::net::SocketAddr, path: &str, greeting: &str) -> (TcpStream, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    while !String::from_utf8_lossy(&raw).contains(greeting) {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "{path} closed before its greeting");
        raw.extend_from_slice(&chunk[..n]);
    }
    (stream, raw)
}

/// Read a stream until the server ends it; every line of the body that
/// is JSON, parsed.
fn read_to_end(mut stream: TcpStream, mut raw: Vec<u8>) -> Vec<Json> {
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    assert!(text.ends_with("0\r\n\r\n"), "terminal chunk: {text}");
    text.lines()
        .filter(|line| line.starts_with('{'))
        .map(|line| Json::parse(line).unwrap())
        .collect()
}

fn event_type(event: &Json) -> &str {
    event.get("type").and_then(Json::as_str).unwrap()
}

#[test]
fn live_and_watch_streams_on_one_loop_each_get_only_their_topic() {
    let web = Arc::new(SharedWeb::new());
    let wrappers = Arc::new(WrapperRegistry::new());
    for i in 0..2 {
        web.put(&shop_url(i), page(&items_v1(i)));
        wrappers
            .register_source(
                &format!("shop{i}"),
                &shop_program(i),
                XmlDesign::new().root("offers"),
            )
            .unwrap();
    }
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        wrappers,
        web.clone(),
    ));
    // One event loop owns all three subscriptions; the monitor ticks
    // once a second, far slower than the watches recheck.
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 1,
            idle_timeout: Duration::from_secs(10),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    for (id, i) in [("a", 0), ("b", 1)] {
        let body = format!(
            r#"{{"wrapper":"shop{i}","url":"{}","interval_ms":10}}"#,
            shop_url(i)
        );
        let put = client.put_json(&format!("/watches/{id}"), &body).unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for id in ["a", "b"] {
        loop {
            let status = client
                .get(&format!("/watches/{id}"))
                .unwrap()
                .json()
                .unwrap();
            if status.get("ticks").and_then(Json::as_u64).unwrap_or(0) >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "watch {id} never baselined");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let addr = gateway.addr();
    let live = subscribe(addr, "/debug/live?events=1", r#""type":"subscribed""#);
    let a = subscribe(addr, "/watches/a/events?events=1", "watch_hello");
    let (mut b, mut b_raw) = subscribe(addr, "/watches/b/events?events=1", "watch_hello");

    // Only page a changes.
    web.put(&shop_url(0), page(&items_v2(0)));

    let a_events = read_to_end(a.0, a.1);
    let diffs: Vec<&Json> = a_events
        .iter()
        .filter(|e| event_type(e) == "watch_event")
        .collect();
    assert_eq!(diffs.len(), 1, "{a_events:?}");
    assert_eq!(diffs[0].get("watch").and_then(Json::as_str), Some("a"));

    // b's page never changed: nothing but its greeting before the
    // deadline.
    b.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut chunk = [0u8; 4096];
    loop {
        match b.read(&mut chunk) {
            Ok(0) => panic!("b's stream ended: {}", String::from_utf8_lossy(&b_raw)),
            Ok(n) => b_raw.extend_from_slice(&chunk[..n]),
            Err(e) => {
                assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "{e}"
                );
                break;
            }
        }
    }
    let b_text = String::from_utf8_lossy(&b_raw);
    assert!(!b_text.contains("watch_event"), "{b_text}");

    // The live stream carried its greeting and monitor events only.
    let live_events = read_to_end(live.0, live.1);
    assert!(live_events.len() >= 2, "{live_events:?}");
    for event in &live_events {
        assert!(
            matches!(event_type(event), "subscribed" | "tick" | "alert"),
            "{event}"
        );
    }

    drop(b);
    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

/// Serves new records on every fetch of a URL, so every recheck after a
/// watch's baseline delivers an event.
#[derive(Default)]
struct ChurningWeb {
    fetches: Mutex<HashMap<String, u64>>,
}

impl WebSource for ChurningWeb {
    fn fetch(&self, url: &str) -> Option<String> {
        let mut fetches = self.fetches.lock().unwrap();
        let n = fetches.entry(url.to_string()).or_insert(0);
        *n += 1;
        Some(page(&[format!("{url}#{n}")]))
    }
}

/// A webhook endpoint that accepts connections and never answers them,
/// until [`close`](BlackHole::close) drops them and stops listening.
struct BlackHole {
    addr: SocketAddr,
    accepted: Arc<AtomicUsize>,
    open: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl BlackHole {
    fn open() -> BlackHole {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let open = Arc::new(AtomicBool::new(true));
        let thread = {
            let (accepted, open) = (accepted.clone(), open.clone());
            std::thread::spawn(move || {
                let mut held = Vec::new();
                while open.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            held.push(stream);
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!("black hole accept: {e}"),
                    }
                }
            })
        };
        BlackHole {
            addr,
            accepted,
            open,
            thread,
        }
    }

    fn accepted(&self) -> usize {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Reset what it holds and refuse further connections.
    fn close(self) {
        self.open.store(false, Ordering::Relaxed);
        self.thread.join().unwrap();
    }
}

/// The number under `keys` in the JSON answer to `GET path`.
fn number(client: &mut HttpClient, path: &str, keys: &[&str]) -> u64 {
    let mut json = client
        .get_accept(path, "application/json")
        .unwrap()
        .json()
        .unwrap();
    for key in keys {
        json = json.get(key).unwrap().clone();
    }
    json.as_u64().unwrap()
}

#[test]
fn a_webhook_that_never_answers_stalls_no_other_delivery() {
    let web = Arc::new(ChurningWeb::default());
    let wrappers = Arc::new(WrapperRegistry::new());
    for i in 0..2 {
        wrappers
            .register_source(
                &format!("shop{i}"),
                &shop_program(i),
                XmlDesign::new().root("offers"),
            )
            .unwrap();
    }
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        wrappers,
        web,
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 1,
            idle_timeout: Duration::from_secs(10),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let hole = BlackHole::open();
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    // A changes on every recheck and POSTs each change into the black
    // hole; B changes as often and has no webhook.
    let a = format!(
        r#"{{"wrapper":"shop0","url":"{}","interval_ms":1,"webhook":"http://{}/hook"}}"#,
        shop_url(0),
        hole.addr
    );
    let b = format!(
        r#"{{"wrapper":"shop1","url":"{}","interval_ms":10}}"#,
        shop_url(1)
    );
    for (id, body) in [("a", a), ("b", b)] {
        let put = client.put_json(&format!("/watches/{id}"), &body).unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while hole.accepted() == 0 {
        assert!(Instant::now() < deadline, "A's webhook was never called");
        std::thread::sleep(Duration::from_millis(2));
    }
    let a_ticks = number(&mut client, "/watches/a", &["ticks"]);

    // While A's first POST hangs, B's subscriber gets three events.
    let (mut stream, mut raw) =
        subscribe(gateway.addr(), "/watches/b/events?events=3", "watch_hello");
    let subscribed = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let ended = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(
        ended.is_ok() && subscribed.elapsed() < Duration::from_secs(5),
        "B's stream stalled behind A's webhook: {ended:?} after {:?}: {text}",
        subscribed.elapsed()
    );
    assert_eq!(text.matches(r#""type":"watch_event""#).count(), 3, "{text}");

    // A keeps being rechecked, and its deliveries that found the queue
    // full failed at once instead of blocking the worker.
    let deadline = Instant::now() + Duration::from_secs(5);
    while number(&mut client, "/watches/a", &["ticks"]) < a_ticks + 3
        || number(&mut client, "/metrics", &["watches", "webhook_failures"]) == 0
    {
        assert!(
            Instant::now() < deadline,
            "A stalled behind its own webhook"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(hole.accepted(), 1, "A's first POST is still hanging");
    assert_eq!(
        number(&mut client, "/metrics", &["watches", "webhook_deliveries"]),
        0
    );

    // Closing the hole fails the hanging POST and refuses the queued
    // ones, so shutdown does not wait out the client's read timeout.
    hole.close();
    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}
