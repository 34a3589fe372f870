//! End-to-end request tracing: `X-Request-Id` minting/echoing on
//! `/extract` and `/extract/batch`, span retention behind
//! `/debug/requests/{id}` and `/debug/slow`, per-rule telemetry behind
//! `/debug/wrappers/{name}` (whose rule `matches` add up exactly to the
//! instances served).

use std::sync::Arc;
use std::time::Duration;

use lixto::core::XmlDesign;
use lixto::http::{GatewayConfig, HttpClient, HttpGateway, Json};
use lixto::server::{ExtractionServer, ServerConfig, WrapperRegistry};
use lixto::workloads::{http_traffic, traffic};

const WRAPPER: &str = r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#;

fn stack(config: GatewayConfig) -> (HttpGateway, Arc<ExtractionServer>) {
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
        .unwrap();
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 64,
            cache_capacity: 16,
            store: None,
        },
        registry,
        Arc::new(lixto::elog::StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind("127.0.0.1:0", config, server.clone()).unwrap();
    (gateway, server)
}

fn traced_config() -> GatewayConfig {
    GatewayConfig {
        idle_timeout: Duration::from_secs(30),
        ..GatewayConfig::default()
    }
}

const EXTRACT: &str = r#"{"wrapper":"shop","url":"http://shop/","html":"<ul><li>a</li></ul>"}"#;

#[test]
fn extract_mints_and_echoes_request_ids() {
    let (gateway, server) = stack(traced_config());
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    // No client id: the gateway mints a 16-hex-digit one.
    let response = client.post_json("/extract", EXTRACT).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let minted = response
        .header("x-request-id")
        .expect("traced responses carry x-request-id")
        .to_string();
    assert_eq!(minted.len(), 16, "minted id is 16 hex digits: {minted}");
    assert!(minted.bytes().all(|b| b.is_ascii_hexdigit()));
    // The body itself stays id-free — the id lives in the header.
    assert!(response.json().unwrap().get("request_id").is_none());

    // Client-supplied id: echoed verbatim.
    let response = client
        .request(
            "POST",
            "/extract",
            &[("x-request-id", "trace-me-42")],
            Some(EXTRACT.as_bytes()),
        )
        .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-request-id"), Some("trace-me-42"));

    // Unusable client id (embedded space): a fresh id is minted instead.
    let response = client
        .request(
            "POST",
            "/extract",
            &[("x-request-id", "not a valid id")],
            Some(EXTRACT.as_bytes()),
        )
        .unwrap();
    assert_eq!(response.status, 200);
    let replaced = response.header("x-request-id").expect("minted replacement");
    assert_ne!(replaced, "not a valid id");
    assert_eq!(replaced.len(), 16);

    // Error responses that reached dispatch are traced too.
    let response = client
        .post_json("/extract", r#"{"wrapper":"ghost","url":"u"}"#)
        .unwrap();
    assert_eq!(response.status, 404);
    assert!(response.header("x-request-id").is_some());

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn batch_items_get_indexed_request_ids() {
    let (gateway, server) = stack(traced_config());
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    let batch = format!(r#"[{EXTRACT},{{"wrapper":"ghost","url":"u"}},{EXTRACT}]"#);
    let response = client
        .request(
            "POST",
            "/extract/batch",
            &[("x-request-id", "batch-7")],
            Some(batch.as_bytes()),
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.header("x-request-id"), Some("batch-7"));
    let parsed = response.json().unwrap();
    let items = parsed.get("items").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), 3);
    for (i, item) in items.iter().enumerate() {
        assert_eq!(
            item.get("request_id").and_then(Json::as_str),
            Some(format!("batch-7#{i}").as_str()),
            "item {i} carries the batch id with its index"
        );
    }

    // Each batch item is retained as its own span.
    let span = client.get("/debug/requests/batch-7%230").unwrap();
    // `#` must be percent-encoded in a URL; fall back to the raw form if
    // the gateway does not decode (it routes on the raw path).
    let span = if span.status == 200 {
        span
    } else {
        client.get("/debug/requests/batch-7#0").unwrap()
    };
    assert_eq!(span.status, 200, "{}", span.text());
    let span = span.json().unwrap();
    assert_eq!(span.get("id").and_then(Json::as_str), Some("batch-7#0"));
    assert_eq!(span.get("wrapper").and_then(Json::as_str), Some("shop"));

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn spans_surface_in_debug_endpoints_with_stage_times() {
    let (gateway, server) = stack(traced_config());
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    // A miss (full execution) and then a hit against the same document,
    // each under its own id.
    for id in ["span-miss", "span-hit"] {
        let response = client
            .request(
                "POST",
                "/extract",
                &[("x-request-id", id)],
                Some(EXTRACT.as_bytes()),
            )
            .unwrap();
        assert_eq!(response.status, 200);
    }

    let stage_names = |span: &Json| -> Vec<String> {
        span.get("stages")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|s| s.get("stage").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };

    let span = client.get("/debug/requests/span-miss").unwrap();
    assert_eq!(span.status, 200, "{}", span.text());
    let span = span.json().unwrap();
    assert_eq!(span.get("id").and_then(Json::as_str), Some("span-miss"));
    assert_eq!(span.get("wrapper").and_then(Json::as_str), Some("shop"));
    assert_eq!(span.get("status").and_then(Json::as_u64), Some(200));
    assert_eq!(span.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert!(span.get("total_us").and_then(Json::as_u64).is_some());
    let stages = stage_names(&span);
    assert!(
        stages.iter().any(|s| s == "exec"),
        "cache-miss span reports the plan-execution stage, got {stages:?}"
    );

    let span = client
        .get("/debug/requests/span-hit")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(span.get("cache_hit").and_then(Json::as_bool), Some(true));
    let stages = stage_names(&span);
    assert!(
        stages.iter().any(|s| s == "cache"),
        "cache-hit span reports the cache stage, got {stages:?}"
    );

    // Unknown id: 404 with a stable error code.
    let missing = client.get("/debug/requests/no-such-id").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.text().contains("unknown_request"));

    // /debug/slow lists both the slowest and the recent spans.
    let slow = client.get("/debug/slow").unwrap();
    assert_eq!(slow.status, 200, "{}", slow.text());
    let slow = slow.json().unwrap();
    let slowest = slow.get("slowest").and_then(Json::as_array).unwrap();
    let recent = slow.get("recent").and_then(Json::as_array).unwrap();
    assert!(!slowest.is_empty(), "slowest ring populated");
    assert!(!recent.is_empty(), "recent ring populated");
    assert!(recent
        .iter()
        .any(|s| s.get("id").and_then(Json::as_str) == Some("span-miss")));

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn per_rule_telemetry_counts_real_executions() {
    let (gateway, server) = stack(traced_config());
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    // Before any execution: the wrapper is visible with zeroed counters.
    let idle = client.get("/debug/wrappers/shop").unwrap();
    assert_eq!(idle.status, 200, "{}", idle.text());
    let idle = idle.json().unwrap();
    assert_eq!(idle.get("name").and_then(Json::as_str), Some("shop"));
    let rules = idle.get("rules").and_then(Json::as_array).unwrap();
    assert_eq!(rules.len(), 1, "one rule in the shop wrapper");
    assert_eq!(rules[0].get("invocations").and_then(Json::as_u64), Some(0));

    // One miss: the plan executes (fixpoint evaluation may apply the
    // rule more than once per run — the final round derives nothing).
    let response = client.post_json("/extract", EXTRACT).unwrap();
    assert_eq!(response.status, 200);
    let busy = client.get("/debug/wrappers/shop").unwrap().json().unwrap();
    let rules = busy.get("rules").and_then(Json::as_array).unwrap();
    let rule = &rules[0];
    assert_eq!(rule.get("label").and_then(Json::as_str), Some("offer"));
    let invocations = rule.get("invocations").and_then(Json::as_u64).unwrap();
    assert!(invocations >= 1, "the miss executed the rule");
    assert_eq!(rule.get("matches").and_then(Json::as_u64), Some(1));
    assert!(
        rule.get("total_ns").and_then(Json::as_u64).unwrap() > 0,
        "rule wall time accumulates"
    );

    // A cache hit serves the stored result without touching the plan:
    // the counters stay exactly where the miss left them.
    let response = client.post_json("/extract", EXTRACT).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response
            .json()
            .unwrap()
            .get("cache_hit")
            .and_then(Json::as_bool),
        Some(true)
    );
    let after = client.get("/debug/wrappers/shop").unwrap().json().unwrap();
    let rule = &after.get("rules").and_then(Json::as_array).unwrap()[0];
    assert_eq!(
        rule.get("invocations").and_then(Json::as_u64),
        Some(invocations),
        "cache hits do not re-execute the plan"
    );

    let missing = client.get("/debug/wrappers/ghost").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.text().contains("unknown_wrapper"));

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn rule_matches_sum_to_the_instances_served_by_misses() {
    // The per-rule ledger is exact: over several distinct misses of a
    // multi-rule wrapper, the `matches` counters of its rules add up to
    // the instances in those misses' results, and a cache hit moves no
    // counter at all.
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 64,
            cache_capacity: 64,
            store: None,
        },
        lixto_bench::workload_registry(),
        Arc::new(lixto::elog::StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind("127.0.0.1:0", traced_config(), server.clone()).unwrap();
    let mut client = HttpClient::connect(gateway.addr()).unwrap();
    let rules_of = |client: &mut HttpClient, name: &str| -> Vec<Json> {
        let response = client.get(&format!("/debug/wrappers/{name}")).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let ledger = response.json().unwrap();
        ledger
            .get("rules")
            .and_then(Json::as_array)
            .unwrap()
            .to_vec()
    };
    let extract = |client: &mut HttpClient, body: &str| -> Json {
        let response = client.post_json("/extract", body).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        response.json().unwrap()
    };

    for name in ["ebay", "news"] {
        let profile = traffic::profiles()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap();
        let bodies: Vec<String> = (0..4)
            .map(|variant| {
                let html = traffic::page_for(name, 7, variant);
                http_traffic::extract_body(name, profile.entry_url, &html)
            })
            .collect();
        let mut served = 0u64;
        for body in &bodies {
            let result = extract(&mut client, body);
            assert_eq!(result.get("cache_hit").and_then(Json::as_bool), Some(false));
            served += result
                .get("patterns")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|p| p.get("instances").and_then(Json::as_array).unwrap().len() as u64)
                .sum::<u64>();
        }
        let after_misses = rules_of(&mut client, name);
        assert!(after_misses.len() > 1, "{name} is a multi-rule wrapper");
        let matches: u64 = after_misses
            .iter()
            .map(|r| r.get("matches").and_then(Json::as_u64).unwrap())
            .sum();
        assert!(served > 0);
        assert_eq!(matches, served, "{name}: rule matches vs served instances");

        let hit = extract(&mut client, &bodies[0]);
        assert_eq!(hit.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(
            rules_of(&mut client, name),
            after_misses,
            "{name}: a cache hit moved a rule counter"
        );
    }

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn debug_wrapper_reports_optimizer_stats_for_news() {
    // Deploy the news workload wrapper and assert the debug endpoint
    // surfaces the optimizer's report: the wrapper's pattern-dependency
    // graph is acyclic and top-down, so it runs on the single-pass
    // schedule, every element path is fused, and the two `.span` cells
    // of the story rules share one hoist group.
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source(
            "news",
            lixto_workloads::news::NEWS_WRAPPER,
            XmlDesign::new().root("press"),
        )
        .unwrap();
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 64,
            cache_capacity: 16,
            store: None,
        },
        registry,
        Arc::new(lixto_workloads::news::site(4, 6).0),
    ));
    let gateway = HttpGateway::bind("127.0.0.1:0", traced_config(), server.clone()).unwrap();
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    let response = client.get("/debug/wrappers/news").unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let body = response.json().unwrap();
    let optimizer = body.get("optimizer").expect("optimizer stats present");
    assert_eq!(
        optimizer.get("schedule").and_then(Json::as_str),
        Some("single_pass"),
        "the news wrapper's dependency graph is acyclic and top-down"
    );
    assert_eq!(optimizer.get("rules").and_then(Json::as_u64), Some(4));
    assert_eq!(optimizer.get("fused_paths").and_then(Json::as_u64), Some(4));
    assert_eq!(
        optimizer.get("fallback_paths").and_then(Json::as_u64),
        Some(0)
    );
    assert!(
        optimizer
            .get("hoist_groups")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "ticker and quote share a .span sub-matcher"
    );
    assert!(optimizer.get("strata").and_then(Json::as_u64).unwrap() >= 2);

    // The optimized executor serves real requests through the gateway.
    let extract = r#"{"wrapper":"news","url":"http://press/finance"}"#;
    let response = client.post_json("/extract", extract).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let xml = response
        .json()
        .unwrap()
        .get("xml")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(xml.contains("story"), "news extraction produced stories");

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}
