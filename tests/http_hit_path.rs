//! The gateway's hit path: an inline `POST /extract` whose result sits in
//! the pool's hot tier is answered on the event loop that parsed it —
//! no shard queue, no worker, no completion wake — while everything else
//! (misses, `Web` sources, disk-tier entries, crawl manifests) still goes
//! through the pool. These tests pin that the loop-served answer is the
//! pool's answer, is counted like one, is traced as a `cache`-only span,
//! keeps answering while the pool is jammed, and respects shutdown.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lixto::core::XmlDesign;
use lixto::elog::{StaticWeb, WebSource};
use lixto::http::{GatewayConfig, HttpClient, HttpGateway, HttpResponse, Json};
use lixto::server::{ExtractionServer, ServerConfig, StoreConfig, WrapperRegistry};
use lixto::workloads::http_traffic;

const WRAPPER: &str = r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#;

/// Follows one link from its entry page, so its results carry a crawl
/// manifest.
const CRAWLER: &str = r#"
    link(S, X)  :- document("http://start/", S), subelem(S, (?.a, []), X).
    page(S, X)  :- link(_, S), attrbind(S, href, U), document(U, X).
"#;

fn registry() -> Arc<WrapperRegistry> {
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
        .unwrap();
    registry
        .register_source("crawler", CRAWLER, XmlDesign::new().root("pages"))
        .unwrap();
    registry
}

fn gateway(server: &Arc<ExtractionServer>) -> HttpGateway {
    HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 2,
            idle_timeout: Duration::from_secs(30),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap()
}

fn shop_body(items: &[&str]) -> String {
    let html: String = items.iter().map(|i| format!("<li>{i}</li>")).collect();
    http_traffic::extract_body("shop", "http://shop/", &format!("<ul>{html}</ul>"))
}

fn post(client: &mut HttpClient, body: &str, id: &str) -> HttpResponse {
    client
        .request(
            "POST",
            "/extract",
            &[("x-request-id", id)],
            Some(body.as_bytes()),
        )
        .unwrap()
}

/// The response body without the two fields that legitimately differ
/// between a first answer and a repeat.
fn without_timing(body: &Json) -> Json {
    match body {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "cache_hit" && k != "latency_us")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Stage names of a retained span.
fn span_stages(client: &mut HttpClient, id: &str) -> Vec<String> {
    let span = client.get(&format!("/debug/requests/{id}")).unwrap();
    assert_eq!(span.status, 200, "{}", span.text());
    span.json()
        .unwrap()
        .get("stages")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|s| s.get("stage").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn metric(metrics: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(metrics, |v, key| v.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no metric {path:?}"))
}

#[test]
fn loop_served_hits_answer_like_the_pool_and_are_counted_and_traced() {
    const REQUESTS: u64 = 20;
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        registry(),
        Arc::new(StaticWeb::new()),
    ));
    let gateway = gateway(&server);
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    let body = shop_body(&["espresso", "grinder \"pro\"", "Zürich"]);

    let first = post(&mut client, &body, "first");
    assert_eq!(first.status, 200, "{}", first.text());
    let first = first.json().unwrap();
    assert_eq!(first.get("cache_hit").and_then(Json::as_bool), Some(false));
    for i in 1..REQUESTS {
        let repeat = post(&mut client, &body, &format!("hit-{i}"));
        assert_eq!(repeat.status, 200, "{}", repeat.text());
        let repeat = repeat.json().unwrap();
        assert_eq!(repeat.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(without_timing(&repeat), without_timing(&first));
    }

    // Every request is counted once, wherever it was answered.
    let metrics = client
        .get_accept("/metrics", "application/json")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(metric(&metrics, &["submitted"]), REQUESTS);
    assert_eq!(metric(&metrics, &["completed"]), REQUESTS);
    assert_eq!(metric(&metrics, &["cache", "hits"]), REQUESTS - 1);
    assert_eq!(metric(&metrics, &["cache", "misses"]), 1);

    // The miss crossed the pool; a hit reports only its cache lookup.
    let miss = span_stages(&mut client, "first");
    assert!(miss.iter().any(|s| s == "queue_wait"), "{miss:?}");
    assert!(miss.iter().any(|s| s == "wake"), "{miss:?}");
    assert_eq!(span_stages(&mut client, "hit-7"), vec!["cache"]);

    // Batch items take the same path.
    let batch = format!(
        "[{body},{},{}]",
        shop_body(&["never seen"]),
        http_traffic::extract_body("ghost", "http://shop/", "<ul></ul>")
    );
    let response = client
        .request(
            "POST",
            "/extract/batch",
            &[("x-request-id", "batch")],
            Some(batch.as_bytes()),
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let items = response.json().unwrap();
    let statuses: Vec<u64> = items
        .get("items")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|item| item.get("status").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(statuses, vec![200, 200, 404]);
    let hit_item = &items.get("items").and_then(Json::as_array).unwrap()[0];
    assert_eq!(
        without_timing(hit_item.get("body").unwrap()),
        without_timing(&first)
    );
    // Items share the batch's worst wake, which the miss item caused.
    let hit_item = span_stages(&mut client, "batch#0");
    assert!(hit_item.contains(&"cache".to_string()), "{hit_item:?}");
    assert!(
        !hit_item.contains(&"queue_wait".to_string()),
        "{hit_item:?}"
    );
    let miss_item = span_stages(&mut client, "batch#1");
    assert!(miss_item.iter().any(|s| s == "queue_wait"), "{miss_item:?}");
    // A batch of hits never leaves the loop at all.
    let hits = format!("[{body},{body}]");
    let response = client
        .request(
            "POST",
            "/extract/batch",
            &[("x-request-id", "hits")],
            Some(hits.as_bytes()),
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(span_stages(&mut client, "hits#0"), vec!["cache"]);
    assert_eq!(span_stages(&mut client, "hits#1"), vec!["cache"]);

    gateway.shutdown();
    server.initiate_shutdown();
}

/// A web source whose fetches block until the test opens the gate.
struct GatedWeb {
    open: Mutex<bool>,
    cv: Condvar,
    fetching: Mutex<usize>,
}

impl GatedWeb {
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl WebSource for GatedWeb {
    fn fetch(&self, _url: &str) -> Option<String> {
        *self.fetching.lock().unwrap() += 1;
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        Some("<ul><li>slow</li></ul>".to_string())
    }
}

#[test]
fn hits_keep_answering_while_a_slow_source_jams_every_worker() {
    let web = Arc::new(GatedWeb {
        open: Mutex::new(false),
        cv: Condvar::new(),
        fetching: Mutex::new(0),
    });
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 1,
            cache_capacity: 16,
            store: None,
        },
        registry(),
        web.clone(),
    ));
    let gateway = gateway(&server);
    let addr = gateway.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    let hot = shop_body(&["cached"]);
    assert_eq!(post(&mut client, &hot, "warm").status, 200);

    // One slow fetch occupies the only worker, then a second fills the
    // only queue slot.
    let web_body = http_traffic::extract_body_web("shop", "http://shop/");
    let deadline = Instant::now() + Duration::from_secs(30);
    let wait_until = |jammed: &dyn Fn() -> bool| {
        while !jammed() {
            assert!(Instant::now() < deadline, "the pool never jammed");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let mut jammers = Vec::new();
    for submitted in [2, 3] {
        let body = web_body.clone();
        jammers.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post_json("/extract", &body).unwrap().status
        }));
        wait_until(&|| {
            *web.fetching.lock().unwrap() == 1 && server.metrics().submitted == submitted
        });
    }

    // Misses are refused; the hit is answered.
    let slow = client.post_json("/extract", &web_body).unwrap();
    assert_eq!(slow.status, 429, "{}", slow.text());
    let miss = client
        .post_json("/extract", &shop_body(&["uncached"]))
        .unwrap();
    assert_eq!(miss.status, 429, "{}", miss.text());
    for i in 0..5 {
        let hit = post(&mut client, &hot, &format!("jammed-{i}"));
        assert_eq!(hit.status, 200, "{}", hit.text());
        assert_eq!(
            hit.json().unwrap().get("cache_hit").and_then(Json::as_bool),
            Some(true)
        );
    }

    web.release();
    for jammer in jammers {
        assert_eq!(jammer.join().unwrap(), 200);
    }
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn hits_are_refused_once_pool_shutdown_begins() {
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        registry(),
        Arc::new(StaticWeb::new()),
    ));
    let gateway = gateway(&server);
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    let body = shop_body(&["last orders"]);
    assert_eq!(post(&mut client, &body, "warm").status, 200);
    let hit = post(&mut client, &body, "hit");
    assert_eq!(hit.status, 200, "{}", hit.text());

    server.initiate_shutdown();
    let refused = post(&mut client, &body, "late");
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert_eq!(
        refused.json().unwrap().get("error").and_then(Json::as_str),
        Some("shutting_down")
    );
    gateway.shutdown();
}

#[test]
fn disk_tier_and_crawl_manifest_hits_are_answered_by_the_pool() {
    let dir = std::env::temp_dir().join(format!("lixto-hit-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = || {
        Arc::new(ExtractionServer::start(
            ServerConfig {
                store: Some(StoreConfig::new(&dir)),
                ..ServerConfig::default()
            },
            registry(),
            Arc::new(StaticWeb::new()),
        ))
    };
    let body = shop_body(&["durable"]);
    let first = {
        let server = start();
        let gateway = gateway(&server);
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let first = post(&mut client, &body, "cold");
        assert_eq!(first.status, 200, "{}", first.text());
        gateway.shutdown();
        server.initiate_shutdown();
        first.json().unwrap()
    };

    // Warm restart: the entry is on disk only, so a worker serves it.
    let server = start();
    let gateway = gateway(&server);
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    let warm = post(&mut client, &body, "warm");
    assert_eq!(warm.status, 200, "{}", warm.text());
    let warm = warm.json().unwrap();
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(without_timing(&warm), without_timing(&first));
    assert!(span_stages(&mut client, "warm").contains(&"queue_wait".to_string()));
    assert_eq!(server.metrics().store.disk_hits, 1);
    // The disk hit promoted the entry, so now the loop answers it.
    assert_eq!(post(&mut client, &body, "hot").status, 200);
    assert_eq!(span_stages(&mut client, "hot"), vec!["cache"]);

    // A result with a crawl manifest is revalidated by a worker on every
    // hit.
    let crawl = http_traffic::extract_body(
        "crawler",
        "http://start/",
        "<body><a href='http://sub/'>next</a></body>",
    );
    let cold = post(&mut client, &crawl, "crawl-cold");
    assert_eq!(cold.status, 200, "{}", cold.text());
    let repeat = post(&mut client, &crawl, "crawl-hit");
    assert_eq!(repeat.status, 200, "{}", repeat.text());
    let repeat = repeat.json().unwrap();
    assert_eq!(repeat.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(
        without_timing(&repeat),
        without_timing(&cold.json().unwrap())
    );
    let stages = span_stages(&mut client, "crawl-hit");
    assert!(stages.contains(&"queue_wait".to_string()), "{stages:?}");

    gateway.shutdown();
    server.initiate_shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
