//! End-to-end exercise of the `lixto_http` gateway: many concurrent
//! keep-alive HTTP clients replaying mixed workload traffic through the
//! full network path, checked for byte-identical agreement with the
//! single-threaded engine, for 429 backpressure under a full queue, for
//! 4xx handling of malformed requests, and for deadlock-free shutdown
//! while handlers hold job tickets.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lixto::core::{to_xml, XmlDesign};
use lixto::elog::{parse_program, Extractor, SinglePage, StaticWeb, WebSource};
use lixto::http::{GatewayConfig, HttpClient, HttpGateway, Json, Limits};
use lixto::server::{ExtractionServer, ServerConfig, WrapperRegistry};
use lixto::workloads::http_traffic;
use lixto::workloads::traffic::{self, WrapperProfile};
use lixto_bench::{workload_design, workload_registry};

/// The single-threaded reference: run the Extractor directly and render
/// XML exactly as the server does.
fn baseline_xml(profile: &WrapperProfile, url: &str, html: &str) -> String {
    let program = parse_program(profile.program).unwrap();
    let web = SinglePage {
        url: url.to_string(),
        html: html.to_string(),
    };
    let result = Extractor::new(program, &web).run();
    lixto::xml::to_string(&to_xml(&result, &workload_design(profile)))
}

#[test]
fn sixteen_keep_alive_clients_get_byte_identical_xml() {
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 8; // 128 requests over ~15 distinct documents

    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 4,
            workers_per_shard: 2,
            queue_capacity: 64,
            cache_capacity: 64,
            store: None,
        },
        workload_registry(),
        Arc::new(StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 4,
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let addr = gateway.addr();

    let requests = traffic::requests(42, CLIENTS, PER_CLIENT);
    let profiles: HashMap<&str, WrapperProfile> = traffic::profiles()
        .into_iter()
        .map(|p| (p.name, p))
        .collect();
    let mut reference: HashMap<(&str, String), String> = HashMap::new();
    for r in &requests {
        reference
            .entry((r.wrapper, r.html.clone()))
            .or_insert_with(|| baseline_xml(&profiles[r.wrapper], &r.url, &r.html));
    }
    assert!(
        reference.len() < requests.len(),
        "traffic must repeat documents so the cache can hit"
    );

    // One keep-alive connection per simulated user, all concurrent.
    std::thread::scope(|scope| {
        let requests = &requests;
        let reference = &reference;
        let mut clients = Vec::new();
        for user in 0..CLIENTS {
            clients.push(scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for r in requests.iter().filter(|r| r.user == user) {
                    let body = http_traffic::extract_body(r.wrapper, &r.url, &r.html);
                    let response = client.post_json("/extract", &body).expect("extract");
                    assert_eq!(response.status, 200, "{}", response.text());
                    let parsed = response.json().expect("json body");
                    let xml = parsed.get("xml").and_then(Json::as_str).expect("xml field");
                    // Byte-identical to the single-threaded engine, hit
                    // or miss — through JSON escaping and back.
                    assert_eq!(
                        xml,
                        reference[&(r.wrapper, r.html.clone())],
                        "gateway output diverged for wrapper {}",
                        r.wrapper
                    );
                }
            }));
        }
        for c in clients {
            c.join().expect("client thread panicked");
        }
    });

    // The pool saw every request exactly once; repeats hit the cache.
    let snapshot = server.metrics();
    assert_eq!(snapshot.completed, requests.len() as u64);
    assert_eq!(snapshot.errors, 0);
    assert!(
        snapshot.cache.hits > 0,
        "repeats must hit: {:?}",
        snapshot.cache
    );

    // The HTTP metrics endpoint reports the same counters, in both
    // formats.
    let mut probe = HttpClient::connect(addr).unwrap();
    let wire = probe
        .get_accept("/metrics", "application/json")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        wire.get("completed").and_then(Json::as_u64),
        Some(snapshot.completed)
    );
    assert_eq!(
        wire.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64),
        Some(snapshot.cache.hits)
    );
    let prometheus = probe.get("/metrics").unwrap();
    assert!(prometheus.text().contains(&format!(
        "lixto_requests_completed_total {}",
        snapshot.completed
    )));
    drop(probe); // close the keep-alive session so shutdown needn't idle it out

    let stats = gateway.shutdown();
    assert_eq!(stats.connections as usize, CLIENTS + 1);
    assert_eq!(stats.requests as usize, requests.len() + 2);
    assert_eq!(stats.responses_4xx, 0);
    assert_eq!(stats.responses_5xx, 0);
    let report = server.initiate_shutdown();
    assert_eq!(report.workers_joined, 8);
}

/// A web source whose fetches block until the test opens the gate —
/// wedging the single worker so the queue fills deterministically.
struct GatedWeb {
    open: Mutex<bool>,
    cv: Condvar,
    fetching: Mutex<usize>,
    fetching_cv: Condvar,
}

impl GatedWeb {
    fn new() -> GatedWeb {
        GatedWeb {
            open: Mutex::new(false),
            cv: Condvar::new(),
            fetching: Mutex::new(0),
            fetching_cv: Condvar::new(),
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait_fetching(&self) {
        let mut fetching = self.fetching.lock().unwrap();
        while *fetching == 0 {
            fetching = self.fetching_cv.wait(fetching).unwrap();
        }
    }
}

impl WebSource for GatedWeb {
    fn fetch(&self, url: &str) -> Option<String> {
        {
            let mut fetching = self.fetching.lock().unwrap();
            *fetching += 1;
            self.fetching_cv.notify_all();
        }
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        (url == "http://shop/").then(|| "<ul><li>slow</li></ul>".to_string())
    }
}

#[test]
fn full_queue_returns_429_backpressure() {
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source(
            "shop",
            r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#,
            XmlDesign::new().root("offers"),
        )
        .unwrap();
    let web = Arc::new(GatedWeb::new());
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 1,
            cache_capacity: 16,
            store: None,
        },
        registry,
        web.clone(),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 4,
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let addr = gateway.addr();
    let body = http_traffic::extract_body_web("shop", "http://shop/");

    // Occupy the worker (its fetch blocks on the gate)...
    let body1 = body.clone();
    let occupant = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.post_json("/extract", &body1).unwrap()
    });
    web.wait_fetching();
    // ...then fill the 1-slot queue...
    let body2 = body.clone();
    let queued = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.post_json("/extract", &body2).unwrap()
    });
    loop {
        let depth: usize = server.metrics().queue_depths.iter().sum();
        if depth >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...so every further request is rejected with 429, immediately.
    for _ in 0..4 {
        let mut client = HttpClient::connect(addr).unwrap();
        let rejected = client.post_json("/extract", &body).unwrap();
        assert_eq!(rejected.status, 429, "{}", rejected.text());
        assert_eq!(rejected.header("retry-after"), Some("1"));
        assert!(rejected.text().contains("backpressure"));
    }
    // Open the gate: the two accepted requests complete fine.
    web.release();
    assert_eq!(occupant.join().unwrap().status, 200);
    assert_eq!(queued.join().unwrap().status, 200);
    let snapshot = server.metrics();
    assert_eq!(snapshot.rejected, 4);
    assert_eq!(snapshot.completed, 2);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn malformed_requests_map_to_4xx() {
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        workload_registry(),
        Arc::new(StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 2,
            limits: Limits {
                max_header_bytes: 2048,
                max_body_bytes: 4096,
            },
            idle_timeout: Duration::from_millis(500),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let addr = gateway.addr();
    let mut client = HttpClient::connect(addr).unwrap();

    // Bad JSON → 400.
    let r = client.post_json("/extract", "{not json").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad_request"));
    // Wrong shapes → 400.
    for body in [
        "{}",
        r#"{"wrapper":7,"url":"u"}"#,
        r#"{"wrapper":"shop"}"#,
        r#"{"wrapper":"books_a","url":"u","version":-2}"#,
        r#"{"wrapper":"books_a","url":"u","html":[1]}"#,
    ] {
        assert_eq!(
            client.post_json("/extract", body).unwrap().status,
            400,
            "{body}"
        );
    }
    // Unknown wrapper / version → 404.
    let r = client
        .post_json("/extract", r#"{"wrapper":"ghost","url":"u"}"#)
        .unwrap();
    assert_eq!(r.status, 404);
    assert!(r.text().contains("unknown_wrapper"));
    let r = client
        .post_json(
            "/extract",
            r#"{"wrapper":"books_a","url":"u","html":"<p/>","version":99}"#,
        )
        .unwrap();
    assert_eq!(r.status, 404);
    assert!(r.text().contains("unknown_version"));
    // Web fetch of an unfetchable URL → 502.
    let r = client
        .post_json("/extract", r#"{"wrapper":"books_a","url":"http://gone/"}"#)
        .unwrap();
    assert_eq!(r.status, 502);
    // Bad wrapper deployments → 400.
    let r = client
        .put_json("/wrappers/bad", r#"{"program":"not elog ("}"#)
        .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad_program"));
    assert_eq!(
        client
            .put_json("/wrappers/weird%20name", r#"{"program":"x"}"#)
            .unwrap()
            .status,
        400
    );
    // Oversized body → 413, and the connection stays usable (the body
    // is drained).
    let oversized = http_traffic::extract_body("books_a", "http://u/", &"x".repeat(8192));
    let r = client.post_json("/extract", &oversized).unwrap();
    assert_eq!(r.status, 413);
    assert!(r.text().contains("body_too_large"));
    let after = client.get("/healthz").unwrap();
    assert_eq!(after.status, 200, "connection survives a drained 413");

    // Huge headers → 431 (fresh connection; framing is poisoned after).
    let mut raw = HttpClient::connect(addr).unwrap();
    let r = raw
        .request("GET", "/healthz", &[("x-pad", &"a".repeat(4096))], None)
        .unwrap();
    assert_eq!(r.status, 431);

    // A valid request still works on a fresh connection.
    let mut fresh = HttpClient::connect(addr).unwrap();
    let ok = fresh
        .post_json(
            "/extract",
            &http_traffic::extract_body(
                "books_a",
                "http://shop0/books",
                &traffic::page_for("books_a", 1, 0),
            ),
        )
        .unwrap();
    assert_eq!(ok.status, 200);

    drop(client);
    drop(raw);
    drop(fresh);
    let stats = gateway.shutdown();
    assert!(stats.responses_4xx >= 12);
    server.initiate_shutdown();
}

#[test]
fn deploy_time_compile_errors_surface_as_structured_400s() {
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        Arc::new(WrapperRegistry::new()),
        Arc::new(StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 1,
            idle_timeout: Duration::from_millis(500),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    let detail = |response: &lixto::http::HttpResponse| {
        let parsed = response.json().expect("json body");
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("bad_program")
        );
        parsed.get("detail").cloned().expect("detail object")
    };

    // Unknown parent pattern.
    let r = client
        .put_json(
            "/wrappers/orphan",
            r#"{"program":"x(S, X) :- ghost(_, S), subelem(S, (?.td, []), X)."}"#,
        )
        .unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    let d = detail(&r);
    assert_eq!(d.get("kind").and_then(Json::as_str), Some("compile"));
    assert_eq!(
        d.get("code").and_then(Json::as_str),
        Some("unknown_parent_pattern")
    );
    assert_eq!(d.get("pattern").and_then(Json::as_str), Some("x"));
    assert_eq!(d.get("subject").and_then(Json::as_str), Some("ghost"));

    // Unbound variable.
    let r = client
        .put_json(
            "/wrappers/unbound",
            r#"{"program":"x(S, X) :- document(\"http://u/\", S), subelem(S, (?.td, []), X), isCurrency(Z)."}"#,
        )
        .unwrap();
    assert_eq!(r.status, 400);
    let d = detail(&r);
    assert_eq!(
        d.get("code").and_then(Json::as_str),
        Some("unbound_variable")
    );
    assert_eq!(d.get("subject").and_then(Json::as_str), Some("Z"));
    assert_eq!(d.get("rule").and_then(Json::as_u64), Some(0));

    // Bad concept reference.
    let r = client
        .put_json(
            "/wrappers/noconcept",
            r#"{"program":"x(S, X) :- document(\"http://u/\", S), subelem(S, (?.td, []), X), isUnicorn(X)."}"#,
        )
        .unwrap();
    assert_eq!(r.status, 400);
    let d = detail(&r);
    assert_eq!(
        d.get("code").and_then(Json::as_str),
        Some("unknown_concept")
    );
    assert_eq!(d.get("subject").and_then(Json::as_str), Some("isUnicorn"));

    // Parse errors keep their own structured shape.
    let r = client
        .put_json("/wrappers/unparsable", r#"{"program":"not elog ("}"#)
        .unwrap();
    assert_eq!(r.status, 400);
    let d = detail(&r);
    assert_eq!(d.get("kind").and_then(Json::as_str), Some("parse"));
    assert!(d.get("at").and_then(Json::as_u64).is_some());

    // Nothing was registered by any of the rejections.
    assert!(server.registry().is_empty());
    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn spooled_deploys_survive_a_server_restart() {
    let spool = std::env::temp_dir().join(format!(
        "lixto-http-spool-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&spool);
    let body = http_traffic::extract_body(
        "books_a",
        "http://shop0/books",
        &traffic::page_for("books_a", 5, 1),
    );
    let deploy = {
        let profile = traffic::profiles().remove(0);
        assert_eq!(profile.name, "books_a");
        http_traffic::register_body(&profile)
    };

    // First life: deploy over HTTP onto a spooled registry and extract.
    let first_xml = {
        let registry = Arc::new(WrapperRegistry::with_spool(&spool).unwrap());
        let server = Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            Arc::new(StaticWeb::new()),
        ));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 1,
                idle_timeout: Duration::from_millis(500),
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap();
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let put = client.put_json("/wrappers/books_a", &deploy).unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
        let extract = client.post_json("/extract", &body).unwrap();
        assert_eq!(extract.status, 200, "{}", extract.text());
        let xml = extract
            .json()
            .unwrap()
            .get("xml")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
        xml
    };

    // Second life: a fresh registry + pool + gateway on the same spool
    // resumes with the deployed wrapper — no re-deploy.
    let registry = Arc::new(WrapperRegistry::with_spool(&spool).unwrap());
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        registry,
        Arc::new(StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 1,
            idle_timeout: Duration::from_millis(500),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    let listing = client.get("/wrappers").unwrap();
    assert!(
        listing.text().contains(r#"{"name":"books_a","latest":1}"#),
        "restarted catalog: {}",
        listing.text()
    );
    let extract = client.post_json("/extract", &body).unwrap();
    assert_eq!(extract.status, 200, "{}", extract.text());
    assert_eq!(
        extract.json().unwrap().get("xml").and_then(Json::as_str),
        Some(first_xml.as_str()),
        "the reloaded wrapper extracts byte-identically"
    );
    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
    std::fs::remove_dir_all(&spool).unwrap();
}

#[test]
fn restart_serves_warm_hits_from_the_recovered_store_with_provenance() {
    use lixto::server::{durability_layout, StoreConfig};

    let root = std::env::temp_dir().join(format!(
        "lixto-http-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let layout = durability_layout(&root);
    let page = traffic::page_for("books_a", 5, 1);
    let body = http_traffic::extract_body("books_a", "http://shop0/books", &page);
    let deploy = {
        let profile = traffic::profiles().remove(0);
        http_traffic::register_body(&profile)
    };
    let durable_config = || ServerConfig {
        store: Some(StoreConfig::new(&layout.store)),
        ..ServerConfig::default()
    };
    let bind = |server: &Arc<ExtractionServer>| {
        HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                event_loops: 1,
                idle_timeout: Duration::from_millis(500),
                ..GatewayConfig::default()
            },
            server.clone(),
        )
        .unwrap()
    };

    // First life: deploy, extract once (a miss that persists the result),
    // and remember the XML plus the provenance key it was stored under.
    let (first_xml, provenance_key) = {
        let registry = Arc::new(WrapperRegistry::with_spool(&layout.wrappers).unwrap());
        let server = Arc::new(ExtractionServer::start(
            durable_config(),
            registry,
            Arc::new(StaticWeb::new()),
        ));
        let gateway = bind(&server);
        let mut client = HttpClient::connect(gateway.addr()).unwrap();
        let put = client.put_json("/wrappers/books_a", &deploy).unwrap();
        assert_eq!(put.status, 201, "{}", put.text());
        let extract = client.post_json("/extract", &body).unwrap();
        assert_eq!(extract.status, 200, "{}", extract.text());
        let parsed = extract.json().unwrap();
        assert_eq!(parsed.get("cache_hit").and_then(Json::as_bool), Some(false));
        let xml = parsed
            .get("xml")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let key = parsed
            .get("provenance_key")
            .and_then(Json::as_str)
            .expect("every /extract response carries a provenance_key")
            .to_string();
        drop(client);
        gateway.shutdown();
        server.initiate_shutdown();
        (xml, key)
    };

    // Second life: same data directory, fresh processes all the way down.
    let registry = Arc::new(WrapperRegistry::with_spool(&layout.wrappers).unwrap());
    let server = Arc::new(ExtractionServer::start(
        durable_config(),
        registry,
        Arc::new(StaticWeb::new()),
    ));
    let gateway = bind(&server);
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    // The warm request is a cache *hit* served from the recovered store:
    // byte-identical XML, no plan re-execution.
    let extract = client.post_json("/extract", &body).unwrap();
    assert_eq!(extract.status, 200, "{}", extract.text());
    let parsed = extract.json().unwrap();
    assert_eq!(
        parsed.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "a restarted gateway must serve the recovered result: {}",
        extract.text()
    );
    assert_eq!(
        parsed.get("xml").and_then(Json::as_str),
        Some(first_xml.as_str()),
        "recovered XML must be byte-identical"
    );
    assert_eq!(
        parsed.get("provenance_key").and_then(Json::as_str),
        Some(provenance_key.as_str()),
        "content addressing must be stable across restarts"
    );
    let snapshot = server.metrics();
    assert!(snapshot.store.recovered >= 1, "{:?}", snapshot.store);
    assert!(snapshot.store.disk_hits >= 1, "{:?}", snapshot.store);
    assert_eq!(snapshot.cache.hits, 1, "served as a hit, not recomputed");

    // The provenance endpoint explains the recovered entry: wrapper
    // version, producing rule indices, and the source page hash.
    let provenance = client
        .get(&format!("/provenance/{provenance_key}"))
        .unwrap();
    assert_eq!(provenance.status, 200, "{}", provenance.text());
    let p = provenance.json().unwrap();
    assert_eq!(p.get("wrapper").and_then(Json::as_str), Some("books_a"));
    assert_eq!(p.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(
        p.get("source_url").and_then(Json::as_str),
        Some("http://shop0/books")
    );
    let expected_hash = format!("{:016x}", lixto::server::fxhash64(page.as_bytes()));
    assert_eq!(
        p.get("source_hash").and_then(Json::as_str),
        Some(expected_hash.as_str())
    );
    let instances = p.get("instances").and_then(Json::as_array).unwrap();
    assert!(!instances.is_empty(), "provenance lists the instances");
    assert!(
        instances
            .iter()
            .all(|i| i.get("rule").and_then(Json::as_u64).is_some()),
        "every instance records its producing rule: {}",
        provenance.text()
    );

    // Unknown and malformed keys are clean client errors.
    let missing = client.get("/provenance/ghost@0000000000000000@0000000000000000");
    assert_eq!(missing.unwrap().status, 404);
    assert_eq!(client.get("/provenance/not-a-key").unwrap().status, 400);

    // `/metrics` exposes the store counters over the wire.
    let wire = client
        .get_accept("/metrics", "application/json")
        .unwrap()
        .json()
        .unwrap();
    let store = wire.get("store").expect("store block in /metrics");
    assert!(store.get("recovered").and_then(Json::as_u64).unwrap() >= 1);
    assert!(store.get("disk_hits").and_then(Json::as_u64).unwrap() >= 1);
    let prom = client.get("/metrics").unwrap();
    assert!(prom.text().contains("lixto_store_recovered_total"));

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn pool_shutdown_while_handlers_hold_tickets_does_not_deadlock() {
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source(
            "shop",
            r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#,
            XmlDesign::new().root("offers"),
        )
        .unwrap();
    let web = Arc::new(GatedWeb::new());
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            store: None,
        },
        registry,
        web.clone(),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 4,
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let addr = gateway.addr();
    let body = http_traffic::extract_body_web("shop", "http://shop/");

    // Three handler threads end up blocked in JobTicket::wait (one
    // executing against the gated web, two queued behind it).
    let mut in_flight = Vec::new();
    for _ in 0..3 {
        let body = body.clone();
        in_flight.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post_json("/extract", &body).unwrap()
        }));
    }
    web.wait_fetching();
    loop {
        let depth: usize = server.metrics().queue_depths.iter().sum();
        if depth >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Pool shutdown begins *while* handlers hold tickets. The gated
    // fetch is released from a helper thread shortly after, as a live
    // source would eventually respond; initiate_shutdown must drain and
    // return rather than deadlock.
    let release = {
        let web = web.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            web.release();
        })
    };
    let report = server.initiate_shutdown();
    release.join().unwrap();
    assert_eq!(report.workers_joined, 1);

    // Every held ticket resolved: drained jobs answered 200, anything
    // destroyed answered 5xx — nothing hangs.
    for handle in in_flight {
        let response = handle.join().expect("handler client panicked");
        assert!(
            response.status == 200 || response.status >= 500,
            "got {}",
            response.status
        );
    }
    // New extractions are refused as shutting down (503).
    let mut late = HttpClient::connect(addr).unwrap();
    let refused = late.post_json("/extract", &body).unwrap();
    assert_eq!(refused.status, 503);
    assert!(refused.text().contains("shutting_down"));
    drop(late);
    gateway.shutdown();
}

#[test]
fn a_stale_outcome_is_never_answered_on_a_reused_slot() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source(
            "shop",
            r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#,
            XmlDesign::new().root("offers"),
        )
        .unwrap();
    let web = Arc::new(GatedWeb::new());
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            store: None,
        },
        registry,
        web.clone(),
    ));
    // One loop, so the next connection reuses the slot the first frees.
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 1,
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    let addr = gateway.addr();
    let mut monitor = HttpClient::connect(addr).unwrap();
    let gauges = |monitor: &mut HttpClient| {
        let metrics = monitor
            .get_accept("/metrics", "application/json")
            .unwrap()
            .json()
            .unwrap();
        let gateway = metrics.get("gateway").unwrap();
        let event_loop = &gateway.get("event_loops").and_then(Json::as_array).unwrap()[0];
        let gauge = |name: &str| event_loop.get(name).and_then(Json::as_u64).unwrap();
        let wakes = gateway.get("wake").and_then(|w| w.get("count"));
        (
            gauge("connections"),
            gauge("parked"),
            wakes.and_then(Json::as_u64).unwrap(),
        )
    };
    let wait_for =
        |monitor: &mut HttpClient, what: &str, done: &dyn Fn((u64, u64, u64)) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done(gauges(monitor)) {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

    // The first client parks a web extraction on the gated fetch. It
    // asks for `100 Continue` and leaves it unread, so hanging up
    // resets the connection.
    let body = http_traffic::extract_body_web("shop", "http://shop/");
    let mut first = TcpStream::connect(addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        first,
        "POST /extract HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         expect: 100-continue\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    let mut interim = [0u8; 64];
    assert!(
        first.peek(&mut interim).unwrap() > 0,
        "100 Continue arrived"
    );
    first.write_all(body.as_bytes()).unwrap();
    web.wait_fetching();
    drop(first);
    wait_for(
        &mut monitor,
        "the reset connection was never released",
        &|(conns, parked, _)| conns == 1 && parked == 0,
    );

    // A new connection takes the freed slot and parks a different
    // request behind the wedged worker.
    let second = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        let fresh = http_traffic::extract_body("shop", "http://shop/", "<ul><li>fresh</li></ul>");
        client.post_json("/extract", &fresh).unwrap()
    });
    wait_for(&mut monitor, "the second request never parked", &|(
        _,
        parked,
        _,
    )| {
        parked == 1
    });
    let answered = gateway.stats().requests;
    web.release();
    let response = second.join().unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("fresh"), "{}", response.text());
    assert!(!response.text().contains("slow"), "{}", response.text());
    // The first outcome came back after its slot was reused: dropped
    // unanswered, yet its wake was measured.
    assert_eq!(
        gateway.stats().requests - answered,
        1,
        "only the second answer"
    );
    wait_for(&mut monitor, "both outcomes reach the loop", &|(
        _,
        _,
        wakes,
    )| {
        wakes == 2
    });

    drop(monitor);
    gateway.shutdown();
    server.initiate_shutdown();
}
