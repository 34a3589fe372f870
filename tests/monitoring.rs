//! End-to-end monitoring: the sampler's history ring, the SLO watchdog
//! and the live ops stream against a real gateway.
//!
//! The centerpiece is fault injection: a [`GatedWeb`] whose fetches
//! block until released jams the one worker and fills the one shard
//! queue, so the watchdog's `queue_saturation` rule must flip
//! `GET /debug/health` from `ok` to `degraded` — and resolve it again
//! once the gate opens and the queue drains.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lixto::core::XmlDesign;
use lixto::elog::WebSource;
use lixto::http::{GatewayConfig, HttpClient, HttpGateway, Json};
use lixto::obs::{captured_lines, set_capture, set_max_level, Level};
use lixto::server::{ExtractionServer, ServerConfig, WrapperRegistry};

const WRAPPER: &str = r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#;

/// A web source whose fetches block while the gate is closed — the
/// fault injector: with the gate shut, every in-flight extraction pins
/// its worker and the shard queue fills behind it.
struct GatedWeb {
    open: Mutex<bool>,
    cv: Condvar,
}

impl GatedWeb {
    fn new() -> GatedWeb {
        GatedWeb {
            open: Mutex::new(true),
            cv: Condvar::new(),
        }
    }

    fn set_open(&self, open: bool) {
        *self.open.lock().unwrap() = open;
        self.cv.notify_all();
    }
}

impl WebSource for GatedWeb {
    fn fetch(&self, url: &str) -> Option<String> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        url.starts_with("http://shop/")
            .then(|| "<ul><li>beans</li></ul>".to_string())
    }
}

fn monitored_stack(web: Arc<GatedWeb>) -> (HttpGateway, Arc<ExtractionServer>) {
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
        .unwrap();
    let server = Arc::new(ExtractionServer::start(
        ServerConfig {
            // One worker, one tiny queue: a handful of gated requests
            // saturate it deterministically.
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            store: None,
        },
        registry,
        web,
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 2,
            idle_timeout: Duration::from_secs(30),
            monitor_interval: Duration::from_millis(50),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    (gateway, server)
}

fn verdict_of(client: &mut HttpClient) -> String {
    let health = client.get("/debug/health").unwrap();
    assert_eq!(health.status, 200, "{}", health.text());
    health
        .json()
        .unwrap()
        .get("verdict")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

fn wait_for_verdict(client: &mut HttpClient, want: &str, deadline: Duration) -> Duration {
    let started = Instant::now();
    loop {
        let verdict = verdict_of(client);
        if verdict == want {
            return started.elapsed();
        }
        assert!(
            started.elapsed() < deadline,
            "verdict stuck at {verdict:?}, wanted {want:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn gated_queue_saturation_degrades_health_and_resolves() {
    // Capture the structured alert log events too (Info covers
    // `alert_resolved`; `alert_fired` is Warn).
    set_max_level(Some(Level::Info));
    let capture = set_capture();

    let web = Arc::new(GatedWeb::new());
    let (gateway, server) = monitored_stack(web.clone());
    let mut prober = HttpClient::connect(gateway.addr()).unwrap();
    assert_eq!(verdict_of(&mut prober), "ok");

    // Shut the gate and jam the pool: one batch carries five distinct
    // gated extractions — the first pins the worker, four fill the
    // queue (saturation 1.0). The batch connection parks until the
    // gate opens, so it must not be the probing connection.
    web.set_open(false);
    let batch: Vec<String> = (0..5)
        .map(|i| format!(r#"{{"wrapper":"shop","url":"http://shop/{i}"}}"#))
        .collect();
    let batch = format!("[{}]", batch.join(","));
    let jammed = {
        let addr = gateway.addr();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post_json("/extract/batch", &batch).unwrap()
        })
    };

    // The watchdog must notice: `queue_saturation` fires after one
    // breaching tick (50 ms interval), so the flip lands within a few
    // intervals even on a loaded CI box.
    let detection = wait_for_verdict(&mut prober, "degraded", Duration::from_secs(10));
    assert!(
        detection < Duration::from_secs(5),
        "detection took {detection:?}"
    );

    // The health report names the firing rule with its evidence.
    let health = prober.get("/debug/health").unwrap().json().unwrap();
    let rules = health.get("rules").and_then(Json::as_array).unwrap();
    let saturation = rules
        .iter()
        .find(|r| r.get("rule").and_then(Json::as_str) == Some("queue_saturation"))
        .unwrap();
    assert_eq!(
        saturation.get("severity").and_then(Json::as_str),
        Some("degraded")
    );
    assert!(saturation.get("value").and_then(Json::as_f64).unwrap() >= 0.75);

    // The Prometheus surface carries the same verdict.
    let metrics = prober.get("/metrics").unwrap();
    assert!(metrics.text().contains("lixto_alert_verdict 1"),);
    assert!(metrics
        .text()
        .contains("lixto_alert_severity{rule=\"queue_saturation\"} 1"));

    // Open the gate: the queue drains, the batch resolves (served or
    // backpressured per item), and — once the evidence window forgets
    // the spike and the clear streak completes — the alert resolves.
    web.set_open(true);
    let batch_response = jammed.join().unwrap();
    assert_eq!(batch_response.status, 200);
    let recovery = wait_for_verdict(&mut prober, "ok", Duration::from_secs(10));
    assert!(recovery < Duration::from_secs(10), "recovery {recovery:?}");

    // Structured log events recorded the whole episode.
    let lines = captured_lines(&capture);
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"alert_fired""#)
            && l.contains(r#""rule":"queue_saturation""#)),
        "no alert_fired event in {lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains(r#""event":"alert_resolved""#)
                && l.contains(r#""rule":"queue_saturation""#)),
        "no alert_resolved event in {lines:?}"
    );

    drop(prober);
    gateway.shutdown();
    server.initiate_shutdown();
    set_max_level(None);
}

#[test]
fn history_windows_track_request_counters() {
    let web = Arc::new(GatedWeb::new());
    let (gateway, server) = monitored_stack(web);
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    // Counter deltas are pairwise between samples, so a completion is
    // only visible once a sample *before* it exists — wait out the
    // first tick before generating load.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let history = client
            .get("/metrics/history?window=60&step=1")
            .unwrap()
            .json()
            .unwrap();
        if history.get("samples").and_then(Json::as_u64).unwrap() >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "sampler never ticked");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Generate some completions, then wait for the sampler to see them.
    for i in 0..3 {
        let body =
            format!(r#"{{"wrapper":"shop","url":"http://shop/","html":"<ul><li>h{i}</li></ul>"}}"#);
        assert_eq!(client.post_json("/extract", &body).unwrap().status, 200);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let history = loop {
        let history = client
            .get("/metrics/history?window=60&step=1")
            .unwrap()
            .json()
            .unwrap();
        let completed = history
            .get("summary")
            .and_then(|s| s.get("fields"))
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|f| f.get("name").and_then(Json::as_str) == Some("pool_completed"))
            .and_then(|f| f.get("delta"))
            .and_then(Json::as_u64)
            .unwrap();
        if completed >= 3 {
            break history;
        }
        assert!(
            Instant::now() < deadline,
            "sampler never saw the completions: {history}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // The per-step tiles partition the summary: step deltas add up to
    // the whole-window delta (the timeseries' additivity invariant,
    // here observed end-to-end over HTTP).
    let summary_delta = |h: &Json, field: &str| {
        h.get("summary")
            .and_then(|s| s.get("fields"))
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|f| f.get("name").and_then(Json::as_str) == Some(field))
            .and_then(|f| f.get("delta"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let step_sum: u64 = history
        .get("steps")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|step| {
            step.get("fields")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .find(|f| f.get("name").and_then(Json::as_str) == Some("pool_completed"))
                .and_then(|f| f.get("delta"))
                .and_then(Json::as_u64)
                .unwrap()
        })
        .sum();
    assert_eq!(step_sum, summary_delta(&history, "pool_completed"));

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn hostile_history_params_are_clamped_to_retained_data() {
    let web = Arc::new(GatedWeb::new());
    let (gateway, server) = monitored_stack(web);
    let mut client = HttpClient::connect(gateway.addr()).unwrap();

    // A u64::MAX window with a 1-second step once tiled ~1.7 billion
    // windows on the event loop. The gateway must clamp the window to
    // the ring's retained span and bound the tile count by retention,
    // answering promptly.
    let started = Instant::now();
    let response = client
        .get("/metrics/history?window=18446744073709551615&step=1")
        .unwrap();
    assert_eq!(response.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "history took {:?}",
        started.elapsed()
    );
    let history = response.json().unwrap();
    let retention = history.get("retention").and_then(Json::as_u64).unwrap();
    let steps = history.get("steps").and_then(Json::as_array).unwrap().len() as u64;
    assert!(steps <= retention, "{steps} tiles > retention {retention}");
    // The echoed window never exceeds what the ring can answer.
    let window_ms = history.get("window_ms").and_then(Json::as_u64).unwrap();
    let interval_ms = history.get("interval_ms").and_then(Json::as_u64).unwrap();
    assert!(
        window_ms <= interval_ms * retention,
        "window_ms {window_ms}"
    );

    drop(client);
    gateway.shutdown();
    server.initiate_shutdown();
}

#[test]
fn live_stream_carries_alert_transition_events() {
    let web = Arc::new(GatedWeb::new());
    let (gateway, server) = monitored_stack(web.clone());

    // Subscribe first, then inject the fault: the alert transition must
    // arrive on the stream itself.
    let mut stream = TcpStream::connect(gateway.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /debug/live HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();

    web.set_open(false);
    let batch: Vec<String> = (0..5)
        .map(|i| format!(r#"{{"wrapper":"shop","url":"http://shop/{i}"}}"#))
        .collect();
    let batch = format!("[{}]", batch.join(","));
    let jammed = {
        let addr = gateway.addr();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post_json("/extract/batch", &batch).unwrap()
        })
    };

    // Read until the fired alert event shows up in the stream.
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = String::from_utf8_lossy(&raw);
        if text.contains(r#""type":"alert""#)
            && text.contains(r#""rule":"queue_saturation""#)
            && text.contains(r#""state":"fired""#)
        {
            break;
        }
        assert!(Instant::now() < deadline, "no alert event in: {text}");
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "stream closed early: {text}");
        raw.extend_from_slice(&chunk[..n]);
    }
    // Ticks carry the degraded verdict once the alert fires.
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains(r#""type":"subscribed""#), "{text}");
    assert!(text.contains(r#""type":"tick""#), "{text}");

    web.set_open(true);
    jammed.join().unwrap();
    drop(stream);
    gateway.shutdown();
    server.initiate_shutdown();
}
