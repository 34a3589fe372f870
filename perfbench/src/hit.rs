//! `hit_http`: keep-alive clients in a closed loop of `POST /extract`
//! over loopback, against a gateway with the default `GatewayConfig`
//! (tracing, monitor and watches on) and a pool warmed during set-up.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lixto_elog::StaticWeb;
use lixto_http::{GatewayConfig, HttpClient, HttpGateway, Json};
use lixto_obs::Stage;

use crate::corpus::HitCorpus;
use crate::oracle::check_extract_body;
use crate::stats::micros;
use crate::system::{self, Pool};
use crate::trace::{next_request, stage_spans, SpanLog};
use crate::{Layers, Measured, Tracing, Workload};

pub struct HitHttp {
    pub corpus: HitCorpus,
    system: Option<(Pool, HttpGateway, Vec<HttpClient>)>,
}

impl HitHttp {
    pub fn new(corpus: HitCorpus) -> HitHttp {
        HitHttp {
            corpus,
            system: None,
        }
    }
}

/// One client's share of a window.
struct ClientRun {
    measured: Measured,
    spans: SpanLog,
    layers: Layers,
}

/// The stage list of a `GET /debug/requests/{id}` span record.
fn debug_stages(span: &Json) -> Vec<(Stage, Duration)> {
    span.get("stages")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            let name = s.get("stage")?.as_str()?;
            let stage = Stage::ALL.into_iter().find(|st| st.name() == name)?;
            Some((stage, Duration::from_micros(s.get("us")?.as_u64()?)))
        })
        .collect()
}

impl Workload for HitHttp {
    fn setup(&mut self, dir: PathBuf, _traced: bool) {
        let wrappers: Vec<_> = self.corpus.wrappers.iter().collect();
        let pool = system::start_pool(dir, &wrappers, Arc::new(StaticWeb::new()));
        let gateway = HttpGateway::bind(
            "127.0.0.1:0",
            GatewayConfig {
                watch_spool: Some(pool.layout.watches.clone()),
                ..GatewayConfig::default()
            },
            pool.server.clone(),
        )
        .expect("bind gateway");
        let mut clients: Vec<HttpClient> = (0..self.corpus.streams.len())
            .map(|_| HttpClient::connect(gateway.addr()).expect("connect"))
            .collect();
        // Warm-up: every distinct document once, so the window is hits.
        for (body, doc) in self.warmup_bodies() {
            let response = clients[0].post_json("/extract", &body).expect("warm-up");
            assert_eq!(response.status, 200, "warm-up: {}", response.text());
            check_extract_body(response.text(), &self.corpus.docs[doc].xml)
                .unwrap_or_else(|e| panic!("warm-up: {e}"));
        }
        self.system = Some((pool, gateway, clients));
    }

    fn teardown(&mut self) {
        if let Some((pool, gateway, clients)) = self.system.take() {
            drop(clients);
            gateway.shutdown();
            pool.stop();
        }
    }

    fn pool(&self) -> &Pool {
        &self.system.as_ref().expect("system started").0
    }

    fn run(&mut self, seconds: f64, mut tracing: Option<&mut Tracing>) -> Measured {
        let (_, _, clients) = self.system.as_mut().expect("system started");
        let docs = &self.corpus.docs;
        let streams = &self.corpus.streams;
        let traced = tracing.as_ref().map(|t| (t.epoch, t.every));
        let barrier = Barrier::new(clients.len());
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        client_loop(client, &streams[c], docs, seconds, traced)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut measured = Measured::default();
        for run in runs {
            measured.merge(run.measured);
            if let Some(t) = tracing.as_deref_mut() {
                t.spans.merge(run.spans);
                t.layers.merge(run.layers);
            }
        }
        measured
    }

    fn documents(&self) -> Vec<(usize, String)> {
        self.corpus
            .docs
            .iter()
            .map(|d| (d.wrapper, d.html.clone()))
            .collect()
    }

    fn wrappers(&self) -> &[crate::corpus::Wrapper] {
        &self.corpus.wrappers
    }
}

impl HitHttp {
    fn warmup_bodies(&self) -> Vec<(String, usize)> {
        let mut seen = vec![false; self.corpus.docs.len()];
        self.corpus
            .streams
            .iter()
            .flatten()
            .filter(|(_, doc)| !std::mem::replace(&mut seen[*doc], true))
            .cloned()
            .collect()
    }
}

fn client_loop(
    client: &mut HttpClient,
    stream: &[(String, usize)],
    docs: &[crate::corpus::Doc],
    seconds: f64,
    traced: Option<(Instant, u64)>,
) -> ClientRun {
    let epoch = traced.map_or_else(Instant::now, |(e, _)| e);
    let mut run = ClientRun {
        measured: Measured::default(),
        spans: SpanLog::new(epoch),
        layers: Layers::default(),
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut n = 0u64;
    let mut paused = Duration::ZERO;
    while Instant::now() < deadline {
        let (body, doc) = &stream[n as usize % stream.len()];
        let rid = traced
            .filter(|(_, every)| n.is_multiple_of(*every))
            .map(|_| next_request());
        let trace_id = rid.map(|rid| format!("perfbench-{rid}"));
        n += 1;
        let headers: Vec<(&str, &str)> = trace_id
            .as_deref()
            .map(|id| vec![("x-request-id", id)])
            .unwrap_or_default();
        let start_ns = run.spans.now_ns();
        let t0 = Instant::now();
        let response = client.request("POST", "/extract", &headers, Some(body.as_bytes()));
        let latency = t0.elapsed();
        let end_ns = start_ns + latency.as_nanos() as u64;
        run.measured.attempted += 1;
        let ok = match &response {
            Ok(r) if r.status == 200 => check_extract_body(r.text(), &docs[*doc].xml).is_ok(),
            Ok(_) => false,
            Err(_) => {
                let _ = client.reconnect();
                false
            }
        };
        if ok {
            run.measured.completed += 1;
        } else {
            run.measured.failed += 1;
        }
        run.measured.latency_us.push(micros(latency));
        if let (Some(id), Some(rid)) = (trace_id, rid) {
            // Reading the gateway's record is the benchmark's own work:
            // the window's clock stops for it, so the traced throughput
            // is comparable with the untraced one.
            let t = Instant::now();
            trace_request(client, &mut run, (&id, rid), start_ns, end_ns);
            paused += t.elapsed();
        }
    }
    run.measured.elapsed = started.elapsed().saturating_sub(paused);
    run
}

/// Record the spans of one traced request: the client's round trip as
/// the root, and inside it the gateway's own clock for the request
/// (`total_us` of its retained span record, from dispatch of the parsed
/// request to the assembled response) as a derived `http.gateway` span
/// holding the pool stages and the wake stage. The round trip outside
/// the gateway's clock (client, loopback, request framing, response
/// write) stays the root's unattributed self time.
fn trace_request(
    client: &mut HttpClient,
    run: &mut ClientRun,
    (id, rid): (&str, u64),
    start_ns: u64,
    end_ns: u64,
) {
    let Ok(record) = client.get(&format!("/debug/requests/{id}")) else {
        let _ = client.reconnect();
        return;
    };
    let Ok(span) = record.json() else { return };
    let stages = debug_stages(&span);
    let total = Duration::from_nanos(end_ns - start_ns);
    let gateway_total = span
        .get("total_us")
        .and_then(Json::as_u64)
        .map_or(Duration::ZERO, Duration::from_micros)
        .min(total);
    let request = run.spans.record("request", start_ns, end_ns, None, rid);
    let gateway = run
        .spans
        .derived("http.gateway", request, Duration::ZERO, gateway_total);
    let pool = stage_spans(&mut run.spans, gateway, &stages);
    let wake = stages
        .iter()
        .find(|(s, _)| *s == Stage::Wake)
        .map_or(Duration::ZERO, |(_, d)| *d);
    run.spans.derived("http.wake", gateway, pool, wake);
    let pool_sum: Duration = stages
        .iter()
        .filter(|(s, _)| !matches!(s, Stage::Wake | Stage::Parse))
        .map(|(_, d)| *d)
        .sum();
    let stage = |st: Stage| {
        stages
            .iter()
            .find(|(s, _)| *s == st)
            .map(|(_, d)| micros(*d))
    };
    run.layers.push("http.roundtrip_us", micros(total));
    run.layers.push(
        "http.gateway_self_us",
        micros(total.saturating_sub(pool_sum)),
    );
    run.layers.push("http.wake_us", micros(wake));
    if let Some(us) = stage(Stage::QueueWait) {
        run.layers.push("server.queue_wait_us", us);
    }
    if let Some(us) = stage(Stage::CacheLookup) {
        run.layers.push("server.cache_us", us);
    }
}
