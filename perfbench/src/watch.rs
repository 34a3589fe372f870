//! `watch_fleet`: an in-process `WatchScheduler` and `WatchRegistry`
//! over the pool, re-checking a `watch_profiles` fleet whose interval is
//! shorter than one sweep of the fleet, so every watch is always due and
//! the scheduler itself is the load generator.
//!
//! The benchmark's own web source answers a watch's `n`-th fetch with
//! `watch_page(i, seed, n / CONTENT_REVISION_EPOCHS, n)`: the bytes
//! change on every recheck and the records on every fourth, with no
//! wall-clock mutation schedule.

use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lixto_elog::WebSource;
use lixto_server::{
    ExtractionRequest, RequestSource, WatchEvent, WatchRegistry, WatchScheduler, WatchSpec,
};
use lixto_transform::{diff_snapshots, ExtractionSnapshot};
use lixto_workloads::traffic::{watch_page, CONTENT_REVISION_EPOCHS};

use crate::corpus::{fleet_wrappers, WatchCorpus, Wrapper};
use crate::oracle::{Served, WatchCheck};
use crate::stats::micros;
use crate::system::{self, Pool};
use crate::trace::{next_request, stage_spans};
use crate::{push_stage_samples, Layers, Measured, Tracing, Workload};

/// Watches in the fleet. The pool's default 4 shard queues of 64 hold
/// the whole fleet in flight at once, so the scheduler never meets
/// backpressure.
pub const FLEET: usize = 32;
/// Re-extraction period of every watch: far shorter than a sweep.
const INTERVAL: Duration = Duration::from_millis(1);
/// Scheduler due-check period when no completion wakes it.
const TICK: Duration = Duration::from_millis(1);
/// Extra wrappers the traced run re-checks itself, outside the fleet.
const PROBES: usize = 8;
/// Seed salt for the probe pages.
const PROBE_SALT: u64 = 0x5052_4F42;

/// What the web source records about one watch's fetches.
#[derive(Default)]
struct FetchLog {
    fetched: u64,
    last: Option<Instant>,
    /// `(when, time since the previous fetch)` of fetches no window has
    /// collected yet.
    periods: Vec<(Instant, Duration)>,
    /// `crossings[r - 1]`: when revision `r` was first served.
    crossings: Vec<Instant>,
}

/// Serves the fleet's pages and records when each fetch happened.
pub struct FleetWeb {
    seed: u64,
    revision_cap: u64,
    logs: Vec<Mutex<FetchLog>>,
    probes: Vec<Mutex<u64>>,
    /// Watches fetched a second time, which happens only once their
    /// baseline recheck has resolved (a watch has one recheck in flight).
    rechecked: Mutex<usize>,
    all_rechecked: Condvar,
}

impl FleetWeb {
    fn new(seed: u64, revision_cap: u64) -> FleetWeb {
        FleetWeb {
            seed,
            revision_cap,
            logs: (0..FLEET).map(|_| Mutex::default()).collect(),
            probes: (0..PROBES).map(|_| Mutex::new(0)).collect(),
            rechecked: Mutex::new(0),
            all_rechecked: Condvar::new(),
        }
    }

    /// Block until every watch's baseline recheck has resolved.
    fn wait_baselines(&self) {
        let count = self.rechecked.lock().expect("baseline count poisoned");
        let (count, timeout) = self
            .all_rechecked
            .wait_timeout_while(count, Duration::from_secs(60), |n| *n < FLEET)
            .expect("baseline count poisoned");
        assert!(!timeout.timed_out(), "fleet never baselined");
        drop(count);
    }

    fn log(&self, i: usize) -> std::sync::MutexGuard<'_, FetchLog> {
        self.logs[i].lock().expect("fetch log poisoned")
    }
}

fn index(url: &str, prefix: &str) -> Option<usize> {
    url.strip_prefix(prefix)?.strip_suffix('/')?.parse().ok()
}

impl WebSource for FleetWeb {
    fn fetch(&self, url: &str) -> Option<String> {
        if let Some(i) = index(url, "http://watch").filter(|i| *i < FLEET) {
            let n = {
                let mut log = self.log(i);
                let now = Instant::now();
                let n = log.fetched;
                log.fetched += 1;
                if let Some(last) = log.last.replace(now) {
                    log.periods.push((now, now - last));
                }
                let revision = n / CONTENT_REVISION_EPOCHS;
                if n > 0
                    && n.is_multiple_of(CONTENT_REVISION_EPOCHS)
                    && revision <= self.revision_cap
                {
                    log.crossings.push(now);
                }
                n
            };
            if n == 1 {
                let mut count = self.rechecked.lock().expect("baseline count poisoned");
                *count += 1;
                if *count == FLEET {
                    self.all_rechecked.notify_all();
                }
            }
            let revision = (n / CONTENT_REVISION_EPOCHS).min(self.revision_cap);
            return Some(watch_page(i, self.seed, revision, n));
        }
        let i = index(url, "http://probe").filter(|i| *i < PROBES)?;
        let n = {
            let mut count = self.probes[i].lock().expect("probe count poisoned");
            *count += 1;
            *count - 1
        };
        Some(watch_page(
            i,
            self.seed ^ PROBE_SALT,
            n / CONTENT_REVISION_EPOCHS,
            n,
        ))
    }
}

struct Fleet {
    pool: Pool,
    web: Arc<FleetWeb>,
    watches: Arc<WatchRegistry>,
    scheduler: WatchScheduler,
    rx: Receiver<(WatchEvent, Instant)>,
    /// Per watch: the oracle's check of its events so far.
    checks: Vec<WatchCheck>,
}

impl Fleet {
    /// Check every delivered event against `expected`; returns the
    /// freshness of each whose revision was first served at or after
    /// `since`.
    fn drain(&mut self, since: Instant, expected: &[Vec<u64>]) -> Vec<f64> {
        let mut freshness = Vec::new();
        while let Ok((event, at)) = self.rx.try_recv() {
            let i = index(&event.url, "http://watch").expect("fleet event");
            let (crossed, served) = {
                let log = self.web.log(i);
                let served = log.crossings.get(event.seq as usize - 1).copied();
                (log.crossings.len() as u64, served)
            };
            if let Some(served) = served.filter(|t| *t >= since) {
                freshness.push(micros(at.saturating_duration_since(served)));
            }
            self.checks[i].event(&expected[i], crossed, event.seq, &event.diff);
        }
        freshness
    }

    /// Completed rechecks and failed ones (pool errors), fleet-wide.
    fn counts(&self) -> (u64, u64) {
        self.watches
            .list()
            .iter()
            .fold((0, 0), |(t, e), w| (t + w.ticks, e + w.errors))
    }
}

pub struct WatchFleet {
    pub corpus: WatchCorpus,
    probes: Vec<Wrapper>,
    fleet: Option<Fleet>,
}

impl WatchFleet {
    pub fn new(corpus: WatchCorpus) -> WatchFleet {
        WatchFleet {
            corpus,
            probes: fleet_wrappers("probe", PROBES),
            fleet: None,
        }
    }

    fn fleet(&self) -> &Fleet {
        self.fleet.as_ref().expect("system started")
    }

    /// The traced run's own rechecks: execute a probe wrapper's `Web`
    /// request through the loaded pool, then snapshot and diff the result
    /// the way the scheduler does.
    fn probe_loop(&self, deadline: Instant, tracing: &mut Tracing) {
        let server = &self.fleet().pool.server;
        let mut previous: Vec<Option<ExtractionSnapshot>> = vec![None; PROBES];
        let mut k = 0usize;
        while Instant::now() < deadline {
            let p = k % PROBES;
            k += 1;
            let request = ExtractionRequest {
                wrapper: self.probes[p].name.clone(),
                version: None,
                source: RequestSource::Web {
                    url: self.probes[p].url.clone(),
                },
                trace: None,
            };
            let start_ns = tracing.spans.now_ns();
            let Ok(response) = server.execute(request) else {
                continue;
            };
            let recheck_ns = tracing.spans.now_ns();
            let snapshot = ExtractionSnapshot::from_pairs(
                response
                    .result
                    .provenance
                    .instances
                    .iter()
                    .map(|i| (i.pattern.as_str(), i.text.as_str())),
            );
            if let Some(prev) = &previous[p] {
                std::hint::black_box(diff_snapshots(prev, &snapshot));
            }
            previous[p] = Some(snapshot);
            let end_ns = tracing.spans.now_ns();
            // The recheck's time goes to the layers its pool stages
            // name; what they leave uncovered stays the request's own.
            let rid = next_request();
            let root = tracing.spans.record("request", start_ns, end_ns, None, rid);
            let stages: Vec<_> = response
                .stages
                .iter()
                .map(|(s, ns)| (s, Duration::from_nanos(ns)))
                .collect();
            stage_spans(&mut tracing.spans, root, &stages);
            tracing
                .spans
                .record("watch.diff", recheck_ns, end_ns, Some(root), rid);
            tracing
                .layers
                .push("watch.recheck_us", (recheck_ns - start_ns) as f64 / 1e3);
            tracing
                .layers
                .push("watch.diff_us", (end_ns - recheck_ns) as f64 / 1e3);
            push_stage_samples(&mut tracing.layers, &stages);
        }
    }
}

impl Workload for WatchFleet {
    fn setup(&mut self, dir: PathBuf, traced: bool) {
        let web = Arc::new(FleetWeb::new(self.corpus.seed, self.corpus.revision_cap()));
        let mut wrappers: Vec<&Wrapper> = self.corpus.wrappers.iter().collect();
        if traced {
            wrappers.extend(&self.probes);
        }
        let pool = system::start_pool(dir, &wrappers, web.clone());
        let watches =
            Arc::new(WatchRegistry::with_spool(&pool.layout.watches).expect("open watch spool"));
        for (i, w) in self.corpus.wrappers.iter().enumerate() {
            watches.put(
                &format!("w{i}"),
                WatchSpec {
                    wrapper: w.name.clone(),
                    url: w.url.clone(),
                    interval: INTERVAL,
                    webhook: None,
                },
            );
        }
        let (tx, rx) = mpsc::channel();
        let scheduler = WatchScheduler::start(
            pool.server.clone(),
            watches.clone(),
            TICK,
            Box::new(move |event| {
                let _ = tx.send((event, Instant::now()));
            }),
        );
        web.wait_baselines();
        self.fleet = Some(Fleet {
            pool,
            web,
            watches,
            scheduler,
            rx,
            checks: vec![WatchCheck::default(); FLEET],
        });
    }

    fn teardown(&mut self) {
        if let Some(fleet) = self.fleet.take() {
            fleet.scheduler.stop();
            fleet.pool.stop();
        }
    }

    fn pool(&self) -> &Pool {
        &self.fleet().pool
    }

    fn run(&mut self, seconds: f64, tracing: Option<&mut Tracing>) -> Measured {
        let fleet = self.fleet.as_mut().expect("system started");
        fleet.drain(Instant::now(), &self.corpus.expected);
        for i in 0..FLEET {
            fleet.web.log(i).periods.clear();
        }
        let rejected0 = fleet.pool.server.sample().rejected;
        let (ticks0, errors0) = fleet.counts();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        match tracing {
            Some(tracing) => self.probe_loop(deadline, tracing),
            None => std::thread::sleep(deadline.saturating_duration_since(Instant::now())),
        }
        let fleet = self.fleet.as_mut().expect("system started");
        let (ticks1, errors1) = fleet.counts();
        let ended = Instant::now();
        let rejected = fleet.pool.server.sample().rejected - rejected0;
        let freshness_us = fleet.drain(started, &self.corpus.expected);
        // A recheck's latency: the time between two consecutive fetches
        // of the same watch, both inside the window.
        let mut latency_us = Vec::new();
        for i in 0..FLEET {
            let periods = std::mem::take(&mut fleet.web.log(i).periods);
            latency_us.extend(
                periods
                    .into_iter()
                    .filter(|(at, period)| *at <= ended && *at - *period >= started)
                    .map(|(_, period)| micros(period)),
            );
        }
        let completed = ticks1 - ticks0;
        let failed = (errors1 - errors0) + rejected;
        Measured {
            elapsed: ended - started,
            completed,
            attempted: completed + failed,
            failed,
            latency_us,
            freshness_us,
        }
    }

    fn documents(&self) -> Vec<(usize, String)> {
        (0..FLEET)
            .map(|i| (i, watch_page(i, self.corpus.seed, 1, 5)))
            .collect()
    }

    fn wrappers(&self) -> &[Wrapper] {
        &self.corpus.wrappers
    }

    fn layers(&self, layers: &mut Layers) {
        let list = self.fleet().watches.list();
        let events: u64 = list.iter().map(|w| w.seq).sum();
        let ticks: u64 = list.iter().map(|w| w.ticks).sum();
        layers.push("watch.useful_ratio", events as f64 / ticks.max(1) as f64);
    }

    fn finish(&mut self) -> u64 {
        let mut fleet = self.fleet.take().expect("system started");
        fleet.scheduler.stop();
        fleet.drain(Instant::now(), &self.corpus.expected);
        // Drain the pool: a watch's last fetch may run after the
        // scheduler stopped, and its result is then never delivered.
        fleet.pool.server.initiate_shutdown();
        let mut failures = 0;
        let cap = self.corpus.revision_cap();
        for i in 0..FLEET {
            let fetched = fleet.web.log(i).fetched;
            // Past the reference revisions the page stops changing
            // records and the run stops testing events: a failure.
            if fetched > (cap + 1) * CONTENT_REVISION_EPOCHS {
                eprintln!("perfbench: watch {i} outran the oracle's {cap} reference revisions");
                failures += 1;
            }
            let last = fetched.saturating_sub(1);
            let served = Served {
                revision: (last / CONTENT_REVISION_EPOCHS).min(cap),
                crossing_in_flight: last > 0
                    && last.is_multiple_of(CONTENT_REVISION_EPOCHS)
                    && last / CONTENT_REVISION_EPOCHS <= cap,
            };
            failures += fleet.checks[i].failures(served);
        }
        fleet.pool.stop();
        failures
    }
}
