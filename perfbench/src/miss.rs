//! `miss_parse` and `miss_exec`: client threads in a closed loop calling
//! `ExtractionServer::execute` directly (no HTTP) on never-repeating
//! 120-row pages, so every request misses the cache, runs the plan and
//! appends a WAL record to the durable store.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lixto_elog::StaticWeb;
use lixto_server::{ExtractionRequest, RequestSource};

use crate::corpus::{MissCorpus, Wrapper};
use crate::stats::micros;
use crate::system::{self, Pool};
use crate::trace::{next_request, stage_spans, SpanLog};
use crate::{push_stage_samples, Layers, Measured, Tracing, Workload};

pub struct Miss {
    pub corpus: MissCorpus,
    pool: Option<Pool>,
    /// Next request number: every request gets a page no earlier request
    /// had, across windows and set-ups alike.
    next: AtomicU64,
}

impl Miss {
    pub fn new(corpus: MissCorpus) -> Miss {
        Miss {
            corpus,
            pool: None,
            next: AtomicU64::new(0),
        }
    }

    fn request(&self, base: usize, html: String) -> ExtractionRequest {
        let w = &self.corpus.wrappers[self.corpus.bases[base].wrapper];
        ExtractionRequest {
            wrapper: w.name.clone(),
            version: None,
            source: RequestSource::Inline {
                url: w.url.clone(),
                html,
            },
            trace: None,
        }
    }
}

struct ThreadRun {
    measured: Measured,
    spans: SpanLog,
    layers: Layers,
}

impl Workload for Miss {
    fn setup(&mut self, dir: PathBuf, _traced: bool) {
        let wrappers: Vec<_> = self.corpus.wrappers.iter().collect();
        let pool = system::start_pool(dir, &wrappers, Arc::new(StaticWeb::new()));
        // Warm-up: every base page once.
        for (base, doc) in self.corpus.bases.iter().enumerate() {
            let response = pool
                .server
                .execute(self.request(base, doc.html.clone()))
                .expect("warm-up extraction");
            assert_eq!(
                response.xml(),
                doc.xml,
                "warm-up output differs from the reference"
            );
        }
        self.pool = Some(pool);
    }

    fn teardown(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.stop();
        }
    }

    fn pool(&self) -> &Pool {
        self.pool.as_ref().expect("system started")
    }

    fn run(&mut self, seconds: f64, mut tracing: Option<&mut Tracing>) -> Measured {
        let threads = system::clients();
        let traced = tracing.as_ref().map(|t| (t.epoch, t.every));
        let barrier = Barrier::new(threads);
        let this = &*self;
        let runs: Vec<ThreadRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        this.thread_loop(seconds, traced)
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
        (0..self.corpus.bases.len() as u64)
            .map(|n| {
                let (base, html) = self.corpus.page(n);
                (self.corpus.bases[base].wrapper, html)
            })
            .collect()
    }

    fn wrappers(&self) -> &[Wrapper] {
        &self.corpus.wrappers
    }
}

impl Miss {
    fn thread_loop(&self, seconds: f64, traced: Option<(Instant, u64)>) -> ThreadRun {
        let server = &self.pool().server;
        let epoch = traced.map_or_else(Instant::now, |(e, _)| e);
        let mut run = ThreadRun {
            measured: Measured::default(),
            spans: SpanLog::new(epoch),
            layers: Layers::default(),
        };
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut i = 0u64;
        while Instant::now() < deadline {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let (base, html) = self.corpus.page(n);
            let request = self.request(base, html);
            let trace = traced.is_some_and(|(_, every)| i.is_multiple_of(every));
            i += 1;
            let start_ns = run.spans.now_ns();
            let t0 = Instant::now();
            let outcome = server.execute(request);
            let latency = t0.elapsed();
            run.measured.attempted += 1;
            match &outcome {
                Ok(r) if r.xml() == self.corpus.bases[base].xml => run.measured.completed += 1,
                _ => run.measured.failed += 1,
            }
            run.measured.latency_us.push(micros(latency));
            if let (true, Ok(response)) = (trace, &outcome) {
                let end_ns = start_ns + latency.as_nanos() as u64;
                let rid = next_request();
                let root = run.spans.record("request", start_ns, end_ns, None, rid);
                let stages: Vec<_> = response
                    .stages
                    .iter()
                    .map(|(s, ns)| (s, Duration::from_nanos(ns)))
                    .collect();
                stage_spans(&mut run.spans, root, &stages);
                push_stage_samples(&mut run.layers, &stages);
            }
        }
        run.measured.elapsed = started.elapsed();
        run
    }
}
