//! The memoised `/extract` body tail over HTTP: every hot-tier entry
//! encodes `,"provenance_key":…,"xml":…,"patterns":[…]}` once, on its
//! first served hit, and every later hit — single or batch item — copies
//! it behind a freshly written prefix. These tests pin that batch items
//! and single requests answer the same bytes, that watch rechecks and
//! in-process calls never fill the memo, and that a request body full of
//! multi-byte characters is decoded in linear time, so it cannot stall
//! the hits its event loop also serves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lixto::core::XmlDesign;
use lixto::elog::SharedWeb;
use lixto::http::{GatewayConfig, HttpClient, HttpGateway, HttpResponse, Json};
use lixto::server::{
    ExtractionRequest, ExtractionResponse, ExtractionServer, RequestSource, ServerConfig,
    WatchRegistry, WatchScheduler, WatchSpec, WrapperRegistry,
};
use lixto::workloads::http_traffic::{extract_body, extract_body_web};

const WRAPPER: &str = r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#;
const URL: &str = "http://shop/";

fn stack(web: Arc<SharedWeb>, event_loops: usize) -> (HttpGateway, Arc<ExtractionServer>) {
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
        .unwrap();
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        registry,
        web,
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops,
            idle_timeout: Duration::from_secs(30),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    (gateway, server)
}

fn page(items: &[&str]) -> String {
    let items: String = items.iter().map(|i| format!("<li>{i}</li>")).collect();
    format!("<ul>{items}</ul>")
}

fn post(client: &mut HttpClient, path: &str, body: &str) -> HttpResponse {
    let response = client.post_json(path, body).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    response
}

/// `text` with every `"latency_us":<n>` rewritten to `"latency_us":0`,
/// the one field that differs between two answers of the same entry.
fn scrub_latency(text: &str) -> String {
    const FIELD: &str = "\"latency_us\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(FIELD) {
        let (head, tail) = rest.split_at(at + FIELD.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A body must be exactly what the `Json` tree of its own contents
/// encodes to: same field order, same escaping, same number format.
fn assert_canonical(text: &str) {
    assert_eq!(Json::parse(text).unwrap().dump(), text);
}

fn memo_text(response: &ExtractionResponse) -> Option<String> {
    let memo = response.memo.as_ref().expect("a hit carries its memo");
    memo.get().map(str::to_string)
}

#[test]
fn batch_items_and_single_hits_answer_the_same_bytes() {
    let (gateway, server) = stack(Arc::new(SharedWeb::new()), 2);
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    let a = extract_body("shop", URL, &page(&["Zürich \"quoted\"", "back\\slash"]));
    let b = extract_body("shop", URL, &page(&["€ 5", "😀\ttab"]));

    // A is cached and served once over HTTP: its memo is filled.
    post(&mut client, "/extract", &a);
    let hit_a = post(&mut client, "/extract", &a);
    // B is cached in-process only: its memo is still empty, so the
    // batch's first B item fills it and the second copies it.
    let cached_b = ExtractionRequest {
        trace: None,
        wrapper: "shop".into(),
        version: None,
        source: RequestSource::Inline {
            url: URL.into(),
            html: page(&["€ 5", "😀\ttab"]),
        },
    };
    server.execute(cached_b.clone()).unwrap();
    assert_eq!(memo_text(&server.execute(cached_b.clone()).unwrap()), None);

    let batch = post(&mut client, "/extract/batch", &format!("[{b},{a},{b},{a}]"));
    let batch = batch.text();
    assert_canonical(batch);
    let hit_b = post(&mut client, "/extract", &b);
    for hit in [&hit_a, &hit_b] {
        let single = hit.text();
        assert_canonical(single);
        assert!(single.contains("\"cache_hit\":true"), "{single}");
        assert_eq!(
            scrub_latency(batch).matches(&scrub_latency(single)).count(),
            2,
            "both batch items must carry the single answer's bytes"
        );
    }
    let memo_b = memo_text(&server.execute(cached_b).unwrap()).expect("filled by the batch");
    assert!(memo_b.starts_with(",\"provenance_key\":"), "{memo_b}");
    assert!(hit_b.text().ends_with(&memo_b));

    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn watch_rechecks_and_in_process_calls_never_fill_the_memo() {
    let web = Arc::new(SharedWeb::new());
    web.put(URL, page(&["steady"]));
    let (gateway, server) = stack(web, 1);
    let watches = Arc::new(WatchRegistry::new());
    watches.put(
        "steady",
        WatchSpec {
            wrapper: "shop".into(),
            url: URL.into(),
            interval: Duration::from_millis(5),
            webhook: None,
        },
    );
    let scheduler = WatchScheduler::start(
        server.clone(),
        watches.clone(),
        Duration::from_millis(2),
        Box::new(|_| {}),
    );
    // Rechecks run outside the store: they neither add an entry nor
    // count a hit.
    let deadline = Instant::now() + Duration::from_secs(30);
    while watches.get("steady").unwrap().ticks < 3 {
        assert!(Instant::now() < deadline, "the watch never rechecked");
        std::thread::sleep(Duration::from_millis(5));
    }
    let request = ExtractionRequest {
        trace: None,
        wrapper: "shop".into(),
        version: None,
        source: RequestSource::Web { url: URL.into() },
    };
    assert!(!server.execute(request.clone()).unwrap().cache_hit);
    assert_eq!(server.metrics().cache.hits, 0, "a recheck counted a hit");
    let executed = server.execute(request.clone()).unwrap();
    assert!(executed.cache_hit);
    assert_eq!(
        memo_text(&executed),
        None,
        "an in-process call filled the memo"
    );

    // The first HTTP answer fills it; rechecks keep serving that entry.
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    let served = post(&mut client, "/extract", &extract_body_web("shop", URL));
    let tail = memo_text(&executed).expect("filled by the HTTP answer");
    assert!(tail.starts_with(",\"provenance_key\":"), "{tail}");
    assert!(served.text().ends_with(&tail));
    let ticks = watches.get("steady").unwrap().ticks;
    while watches.get("steady").unwrap().ticks < ticks + 3 {
        assert!(Instant::now() < deadline, "the watch stopped rechecking");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(memo_text(&server.execute(request).unwrap()), Some(tail));

    scheduler.stop();
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn a_huge_non_ascii_body_does_not_stall_hits_on_its_event_loop() {
    // One event loop parses every request body, so a slow decode of one
    // body would hold up every other connection's hit.
    let (gateway, server) = stack(Arc::new(SharedWeb::new()), 1);
    let hit_body = extract_body("shop", URL, &page(&["espresso"]));
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    post(&mut client, "/extract", &hit_body);

    // Just under the 1 MiB default body limit, almost all of it
    // two-byte characters; the unknown wrapper keeps the answer cheap
    // once the body is decoded.
    let filler = "é".repeat((1 << 20) / 2 - 64);
    let huge = extract_body("ghost", URL, &filler);
    assert!(huge.len() <= 1 << 20);
    let addr = gateway.addr();
    let done = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let sender = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            let started = Instant::now();
            let response = client.post_json("/extract", &huge).unwrap();
            done.store(true, Ordering::SeqCst);
            tx.send((response.status, started.elapsed())).unwrap();
        })
    };

    // Keep hitting until the huge body has been answered, so some hits
    // overlap its decode whatever the scheduling.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut slowest = Duration::ZERO;
    let mut hits = 0;
    while !done.load(Ordering::SeqCst) || hits == 0 {
        assert!(
            Instant::now() < deadline,
            "the huge body was never answered"
        );
        let started = Instant::now();
        let hit = post(&mut client, "/extract", &hit_body);
        slowest = slowest.max(started.elapsed());
        assert!(hit.text().contains("\"cache_hit\":true"));
        hits += 1;
    }
    let (status, huge_took) = rx.recv().unwrap();
    sender.join().unwrap();
    assert_eq!(status, 404, "the huge body decodes, then names no wrapper");
    assert!(
        huge_took < Duration::from_secs(10),
        "decoding the huge body took {huge_took:?}"
    );
    assert!(
        slowest < Duration::from_secs(5),
        "a hit waited {slowest:?} behind the huge body ({hits} hits)"
    );

    gateway.shutdown();
    server.initiate_shutdown();
}
