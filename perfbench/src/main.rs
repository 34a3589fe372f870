//! Serving benchmark for the lixto workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hit_http|miss_parse|miss_exec|watch_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs and reference outputs are made
//! from `--seed`, and the wrapper catalogue every set-up reloads is
//! spooled, before the set-up clock starts. The run is [`SLICES`] slices (with `--trace 1`,
//! [`TRACE_SLICES`] alternating untraced and traced ones), each on a
//! system of its own, started [`SETUPS_PER_SLICE`] times before it;
//! `setup_s` is the median of all starts and every other end-to-end
//! metric the median over the slices. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for every metric's definition.

mod corpus;
mod hit;
mod layers;
mod miss;
mod oracle;
mod stats;
mod system;
mod trace;
mod watch;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lixto_obs::Stage;

use crate::stats::{median, micros, quantile};
use crate::system::Pool;
use crate::trace::{Attribution, SpanLog};

/// Slices an untraced run is measured in.
const SLICES: usize = 10;
/// Set-ups before each slice, all but the last torn down again;
/// `setup_s` is the median of every set-up of the run.
const SETUPS_PER_SLICE: usize = 3;
/// Slices a traced run alternates between untraced and traced windows.
const TRACE_SLICES: usize = 8;
/// The traced run records spans for one request in this many.
const TRACE_EVERY: u64 = 4;
/// A ceiling on fleet rechecks per second, used to size the watch
/// oracle's reference revisions before the run. A fleet that rechecks
/// faster runs out of revisions, and the run reports a failure.
const MAX_RECHECKS_PER_SEC: f64 = 30_000.0;

/// One measured window.
#[derive(Debug, Default)]
pub struct Measured {
    pub elapsed: Duration,
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub latency_us: Vec<f64>,
    pub freshness_us: Vec<f64>,
}

impl Measured {
    /// Fold in another client thread's share of the same window.
    pub fn merge(&mut self, other: Measured) {
        self.elapsed = self.elapsed.max(other.elapsed);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_us.extend(other.latency_us);
        self.freshness_us.extend(other.freshness_us);
    }

    /// Fold in a later window of the same kind.
    pub fn append(&mut self, other: Measured) {
        let elapsed = self.elapsed + other.elapsed;
        self.merge(other);
        self.elapsed = elapsed;
    }

    /// Freshness samples. Request workloads deliver each extraction to
    /// the caller, so the caller is the sink and freshness is the request
    /// latency.
    pub fn freshness_samples(&mut self) -> &mut Vec<f64> {
        if self.freshness_us.is_empty() {
            &mut self.latency_us
        } else {
            &mut self.freshness_us
        }
    }

    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }
}

/// Samples per per-layer metric.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(values) => values.push(value),
            None => {
                self.0.insert(name.to_string(), vec![value]);
            }
        }
    }

    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }

    fn median(&mut self, name: &str) -> Option<(f64, usize)> {
        let values = self.0.get_mut(name)?;
        Some((median(values), values.len()))
    }
}

/// What the traced window collects.
pub struct Tracing {
    pub epoch: Instant,
    pub every: u64,
    pub spans: SpanLog,
    pub layers: Layers,
}

/// Record a request's pool stage times as per-layer samples: queue wait
/// and cache lookup directly, and the parse, execution-minus-parse and
/// serialize stages for the cross-check against the layer replays.
pub fn push_stage_samples(layers: &mut Layers, stages: &[(Stage, Duration)]) {
    let get = |st: Stage| {
        stages
            .iter()
            .find(|(s, _)| *s == st)
            .map(|(_, d)| micros(*d))
    };
    if let Some(us) = get(Stage::QueueWait) {
        layers.push("server.queue_wait_us", us);
    }
    if let Some(us) = get(Stage::CacheLookup) {
        layers.push("server.cache_us", us);
    }
    if let (Some(exec), Some(parse)) = (get(Stage::PlanExec), get(Stage::Parse)) {
        layers.push("stage.parse_us", parse);
        layers.push("stage.exec_us", exec - parse);
        layers.push("stage.serialize_us", get(Stage::Serialize).unwrap_or(0.0));
    }
}

/// A workload: a system it sets up, and a window it measures.
pub trait Workload {
    /// Start the system on data directory `dir`: everything up to the
    /// first timed operation. `traced` set-ups may deploy extra probe
    /// wrappers.
    fn setup(&mut self, dir: PathBuf, traced: bool);
    /// Stop the current system and delete its data.
    fn teardown(&mut self);
    fn pool(&self) -> &Pool;
    /// Measure one window of `seconds`.
    fn run(&mut self, seconds: f64, tracing: Option<&mut Tracing>) -> Measured;
    /// Documents for the layer replays: `(wrapper index, html)`.
    fn documents(&self) -> Vec<(usize, String)>;
    fn wrappers(&self) -> &[corpus::Wrapper];
    /// Workload-specific per-layer samples, read before [`finish`].
    fn layers(&self, _layers: &mut Layers) {}
    /// Stop the system after its slice; returns output failures only
    /// detectable once it has stopped.
    fn finish(&mut self) -> u64 {
        self.teardown();
        0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The per-layer metrics a traced run prints, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("http.roundtrip_us", "us"),
    ("http.gateway_self_us", "us"),
    ("http.wake_us", "us"),
    ("http.request_parse_us", "us"),
    ("http.json_decode_us", "us"),
    ("http.json_encode_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.cache_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.store_insert_us", "us"),
    ("server.store_appends", "count"),
    ("server.store_compactions", "count"),
    ("server.spool_reload_us", "us"),
    ("server.store_open_us", "us"),
    ("server.deploy_us", "us"),
    ("server.rejected", "count"),
    ("server.invalidations", "count"),
    ("html.tokenize_us", "us"),
    ("html.parse_us", "us"),
    ("html.nodes", "count"),
    ("elog.exec_us", "us"),
    ("elog.passes", "count"),
    ("elog.instances", "count"),
    ("elog.rule.ebay.tableseq_us", "us"),
    ("elog.rule.ebay.record_us", "us"),
    ("elog.rule.ebay.itemdes_us", "us"),
    ("elog.rule.ebay.price_us", "us"),
    ("elog.rule.ebay.bids_us", "us"),
    ("elog.rule.ebay.currency_us", "us"),
    ("xml.serialize_us", "us"),
    ("watch.recheck_us", "us"),
    ("watch.diff_us", "us"),
    ("watch.useful_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.stage_agreement", "ratio"),
    ("trace.overhead_pct", "%"),
    ("self.http_share", "ratio"),
    ("self.server_share", "ratio"),
    ("self.html_share", "ratio"),
    ("self.elog_share", "ratio"),
    ("self.xml_share", "ratio"),
    ("self.watch_share", "ratio"),
];

/// Program counters, read around each slice; [`Counters::add`] sums
/// their changes over the run.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    invalidations: u64,
    persisted: u64,
    compactions: u64,
    rejected: u64,
    /// Cumulative rule time by `(wrapper, rule label)`.
    rules: BTreeMap<(String, String), u64>,
}

impl Counters {
    fn read(pool: &Pool) -> Counters {
        let metrics = pool.server.metrics();
        let rules = pool
            .registry
            .names()
            .into_iter()
            .filter_map(|name| pool.registry.latest(&name))
            .flat_map(|w| {
                w.telemetry
                    .snapshot()
                    .into_iter()
                    .map(move |r| ((w.name.clone(), r.label), r.total_ns))
            })
            .collect();
        Counters {
            hits: metrics.cache.hits,
            misses: metrics.cache.misses,
            invalidations: metrics.cache.invalidations,
            persisted: metrics.store.persisted,
            compactions: metrics.store.compactions,
            rejected: metrics.rejected,
            rules,
        }
    }

    /// Add the change from `before` to `after`.
    fn add(&mut self, before: &Counters, after: &Counters) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.invalidations += after.invalidations - before.invalidations;
        self.persisted += after.persisted - before.persisted;
        self.compactions += after.compactions - before.compactions;
        self.rejected += after.rejected - before.rejected;
        for (rule, ns) in &after.rules {
            *self.rules.entry(rule.clone()).or_default() +=
                ns - before.rules.get(rule).unwrap_or(&0);
        }
    }
}

struct Report {
    metrics: Vec<(String, f64, &'static str, usize)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name.to_string(), value, unit, samples));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <hit_http|miss_parse|miss_exec|watch_fleet> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let slices = if args.trace { TRACE_SLICES } else { SLICES };
    let slice_seconds = args.seconds / slices as f64;
    // Inputs and reference outputs, before any set-up clock.
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "hit_http" => Box::new(hit::HitHttp::new(corpus::hit(args.seed, system::clients()))),
        "miss_parse" => Box::new(miss::Miss::new(corpus::miss(
            args.seed,
            &["books_a", "books_b", "news", "flights"],
        ))),
        "miss_exec" => Box::new(miss::Miss::new(corpus::miss(args.seed, &["ebay"]))),
        "watch_fleet" => {
            // A fleet lives for its set-up baselines and one slice.
            let budget = slice_seconds + 1.0;
            let revisions = (budget * MAX_RECHECKS_PER_SEC
                / watch::FLEET as f64
                / lixto_workloads::traffic::CONTENT_REVISION_EPOCHS as f64)
                .ceil() as u64;
            Box::new(watch::WatchFleet::new(corpus::watch(
                args.seed,
                watch::FLEET,
                revisions,
            )))
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(system::SCRATCH).expect("create scratch directory");
    let catalogue = system::Catalogue::build();

    let mut report = Report {
        metrics: Vec::new(),
    };
    let epoch = Instant::now();
    let mut tracing = Tracing {
        epoch,
        every: TRACE_EVERY,
        spans: SpanLog::new(epoch),
        layers: Layers::default(),
    };
    let mut setups = Vec::new();
    let mut deploys = Vec::new();
    let mut counters = Counters::default();
    let mut registry = None;
    // Untraced run: every figure is the median over slices of that
    // slice's figure, so a transient stall of the host moves one slice
    // rather than the result. Only the current slice keeps its samples,
    // so the benchmark's own memory does not grow with the run.
    let mut figures: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut n_lat, mut n_fresh) = (0, 0);
    // Traced run: untraced and traced slices alternate U T T U, so drift
    // over the run hits both alike.
    let (mut untraced, mut traced) = (Measured::default(), Measured::default());
    let mut late_failures = 0;
    let steal0 = stats::host_ticks();
    for k in 0..slices {
        // Every slice runs on a system of its own, so the set-ups are
        // spread over the run like the slices are.
        for j in 0..SETUPS_PER_SLICE {
            let dir = catalogue.data_dir(setups.len());
            let t = Instant::now();
            workload.setup(dir, args.trace);
            setups.push(t.elapsed().as_secs_f64());
            deploys.extend(workload.pool().deploys.iter().map(|d| micros(*d)));
            if j + 1 < SETUPS_PER_SLICE {
                workload.teardown();
            }
        }
        let before = Counters::read(workload.pool());
        let trace_slice = args.trace && matches!(k % 4, 1 | 2);
        let cpu0 = stats::process_cpu_us();
        let mut m = workload.run(slice_seconds, trace_slice.then_some(&mut tracing));
        let cpu = stats::process_cpu_us() - cpu0;
        counters.add(&before, &Counters::read(workload.pool()));
        if args.trace {
            workload.layers(&mut tracing.layers);
            registry = Some(workload.pool().registry.clone());
        }
        late_failures += workload.finish();
        if trace_slice {
            traced.append(m);
            continue;
        }
        if !args.trace {
            let mut add = |name, value| figures.entry(name).or_default().push(value);
            add("throughput_rps", m.throughput());
            add("latency_p50_us", quantile(&mut m.latency_us, 0.5));
            add("latency_p90_us", quantile(&mut m.latency_us, 0.9));
            add("freshness_p50_us", quantile(m.freshness_samples(), 0.5));
            add("freshness_p90_us", quantile(m.freshness_samples(), 0.9));
            add("cpu_us_per_op", cpu / m.completed.max(1) as f64);
            n_lat += m.latency_us.len();
            n_fresh += m.freshness_samples().len();
            m.latency_us = Vec::new();
            m.freshness_us = Vec::new();
        }
        untraced.append(m);
    }
    let steal1 = stats::host_ticks();
    eprintln!("perfbench: set-up times {setups:?} s");
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed + late_failures;
    if args.trace {
        let scratch = Path::new(system::SCRATCH).join(format!("replay-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("create replay directory");
        let mut layers = tracing.layers;
        layers::replay(
            workload.wrappers(),
            &workload.documents(),
            &registry.expect("at least one slice"),
            &catalogue,
            &scratch,
            &mut layers,
        );
        let _ = std::fs::remove_dir_all(&scratch);
        for d in deploys {
            layers.push("server.deploy_us", d);
        }
        layers.push(
            "trace.overhead_pct",
            100.0 * (1.0 - traced.throughput() / untraced.throughput()),
        );
        let ops = untraced.completed + traced.completed;
        per_layer(&mut report, &mut layers, &tracing.spans, &counters, ops);
        let path = Path::new(system::SCRATCH)
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracing.spans.to_jsonl()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    } else {
        let completed = untraced.completed as usize;
        report.add("setup_s", median(&mut setups), "s", setups.len());
        for (name, unit, samples) in [
            ("throughput_rps", "1/s", completed),
            ("latency_p50_us", "us", n_lat),
            ("latency_p90_us", "us", n_lat),
            ("freshness_p50_us", "us", n_fresh),
            ("freshness_p90_us", "us", n_fresh),
            ("cpu_us_per_op", "us", completed),
        ] {
            report.add(
                name,
                median(figures.get_mut(name).expect("sliced metric")),
                unit,
                samples,
            );
        }
        report.add("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1);
        report.add(
            "success_ratio",
            (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            "ratio",
            attempted as usize,
        );
    }
    eprintln!(
        "perfbench: the hypervisor stole {:.1}% of this machine's CPU time during the run",
        100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64
    );
    print_report(&args, &report, attempted, failed);
}

fn per_layer(
    report: &mut Report,
    layers: &mut Layers,
    spans: &SpanLog,
    counters: &Counters,
    ops: u64,
) {
    let lookups = counters.hits + counters.misses;
    layers.push(
        "server.cache_hit_ratio",
        counters.hits as f64 / lookups.max(1) as f64,
    );
    layers.push("server.store_appends", counters.persisted as f64);
    layers.push("server.store_compactions", counters.compactions as f64);
    layers.push("server.rejected", counters.rejected as f64);
    layers.push("server.invalidations", counters.invalidations as f64);
    // Per-rule time per completed operation of the run.
    for ((wrapper, label), ns) in &counters.rules {
        layers.push(
            &format!("elog.rule.{wrapper}.{label}_us"),
            *ns as f64 / 1e3 / ops.max(1) as f64,
        );
    }
    let attribution = Attribution::of(spans.spans());
    layers.push("trace.coverage", attribution.coverage());
    for layer in ["http", "server", "html", "elog", "xml", "watch"] {
        layers.push(&format!("self.{layer}_share"), attribution.share(layer));
    }
    let replayed: Option<f64> = ["html.parse_us", "elog.exec_us", "xml.serialize_us"]
        .iter()
        .map(|n| layers.median(n).map(|(v, _)| v))
        .sum();
    let staged: Option<f64> = ["stage.parse_us", "stage.exec_us", "stage.serialize_us"]
        .iter()
        .map(|n| layers.median(n).map(|(v, _)| v))
        .sum();
    if let (Some(r), Some(s)) = (replayed, staged) {
        layers.push("trace.stage_agreement", r / s);
    }
    for (name, unit) in PER_LAYER {
        let (value, samples) = layers.median(name).unwrap_or((0.0, 0));
        report.add(name, value, unit, samples);
    }
    eprintln!(
        "perfbench: traced self-time by layer {:?} over {} request spans; dominant layer {:?}",
        attribution
            .layers
            .iter()
            .map(|(l, ns)| (
                l.as_str(),
                format!(
                    "{:.1}%",
                    100.0 * *ns as f64 / attribution.request_ns.max(1) as f64
                )
            ))
            .collect::<Vec<_>>(),
        spans.spans().iter().filter(|s| s.parent.is_none()).count(),
        attribution.dominant(),
    );
}

fn print_report(args: &Args, report: &Report, attempted: u64, failed: u64) {
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        system::clients()
    );
    println!(
        "{:<34} {:>16} {:>6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for (name, value, unit, samples) in &report.metrics {
        println!("{name:<34} {value:>16.4} {unit:>6} {samples:>9}");
    }
    let mut json = format!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#,
        failed == 0
    );
    for (i, (name, value, unit, _)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        );
    }
    json.push_str("}}");
    println!("{json}");
}
