//! Continuous extraction: watch subscriptions with instance-level diffs.
//!
//! The paper's deployed system is not request/response but *continual* —
//! §6's information pipes re-run wrappers on a schedule and deliver
//! results "only if the status changed between consecutive requests".
//! This module serves that model over the pool:
//!
//! * [`WatchRegistry`] — named (wrapper, url, interval) subscriptions,
//!   optionally spooled to the durability dir so they survive restarts;
//! * [`WatchScheduler`] — one thread that queues due watches on the
//!   pool as *recheck* jobs (watches share the pool's queues and
//!   backpressure, so they can never starve interactive traffic) and
//!   sleeps until the next watch falls due. Starting it installs the
//!   delivery sink that receives non-empty diffs — the gateway fans them
//!   out to long-poll subscribers and webhook URLs.
//!
//! A recheck fetches the page and stops at the instance snapshot: no
//! XML, no provenance, no store entry. A page whose content address,
//! plan and crawled pages match the watch's last extraction is not
//! executed at all. The worker that ran the recheck also resolves it: it
//! diffs the snapshot against the watch's last one at the *instance*
//! level ([`lixto_transform::diff_snapshots`] over pattern + text, never
//! raw-HTML byte equality) and hands a non-empty diff to the sink itself,
//! under the registry lock that ends the recheck. So a watch's events
//! reach the sink in `seq` order, each before the watch can be rechecked
//! again, and no thread hop stands between a resolved diff and its
//! delivery. The sink's contract follows: it runs on a pool worker with
//! the registry lock held, so it must not block and must not call into
//! the registry (the gateway's sink hands webhook POSTs to a thread of
//! its own).
//!
//! An unchanged recheck delivers nothing (it only bumps the watch's
//! `suppressed` counter); the first recheck after registration or restart
//! re-baselines silently. Snapshots are deliberately *not* persisted:
//! they are recomputable from source, and a restarted server must not
//! replay a diff the subscriber already saw.
//!
//! Each piece of state has one owner. The registry's one mutex guards
//! the watches and the scheduler's state alike: its sink (taken out when
//! it stops) and when it plans to wake. Who listens to the events, and
//! how many webhook POSTs succeeded, is the sink's business, not this
//! module's.
//!
//! The spool, `watches.log`, is a log of kind `watches` in the data
//! directory's one line framing (the crate's `linelog` module); this
//! module only encodes and decodes its `put`/`del` records.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lixto_obs::{debug_event, warn_event};
use lixto_transform::{diff_snapshots, ExtractionSnapshot, InstanceDiff};

use crate::linelog::{escape, unescape, LineLog, Record};
use crate::server::{
    ExtractionRequest, ExtractionServer, Recheck, RequestSource, Seen, ServerError,
};

/// Spool file name inside the watches directory.
const SPOOL_FILE: &str = "watches.log";

/// What to watch: a wrapper re-run against a URL every `interval`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchSpec {
    /// Registered wrapper name.
    pub wrapper: String,
    /// `Web` source URL to re-fetch each tick.
    pub url: String,
    /// Re-extraction period (measured submission to submission).
    pub interval: Duration,
    /// Optional webhook URL diffs are POSTed to.
    pub webhook: Option<String>,
}

/// A point-in-time view of one watch, for `GET /watches/{id}` and the
/// per-watch metrics families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchStatus {
    /// Watch id.
    pub id: String,
    /// Wrapper name.
    pub wrapper: String,
    /// Watched URL.
    pub url: String,
    /// Re-extraction period in milliseconds.
    pub interval_ms: u64,
    /// Webhook URL, if any.
    pub webhook: Option<String>,
    /// Completed rechecks (including suppressed and baseline ones).
    pub ticks: u64,
    /// Diff events delivered so far (the sequence number of the latest).
    pub seq: u64,
    /// Ticks whose diff was empty — detected, compared, *not* delivered.
    pub suppressed: u64,
    /// Ticks that failed (fetch errors, pool errors).
    pub errors: u64,
}

/// One delivered change: the instance-level diff between a watch's last
/// two snapshots, plus enough identity to route it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Watch id.
    pub watch: String,
    /// 1-based event sequence number within the watch.
    pub seq: u64,
    /// Wrapper that produced the result.
    pub wrapper: String,
    /// Watched URL.
    pub url: String,
    /// Webhook the delivery layer should POST to, if configured.
    pub webhook: Option<String>,
    /// What changed.
    pub diff: InstanceDiff,
}

struct WatchEntry {
    spec: WatchSpec,
    ticks: u64,
    seq: u64,
    suppressed: u64,
    errors: u64,
    /// Snapshot of the last extraction; `None` until the baseline tick.
    snapshot: Option<ExtractionSnapshot>,
    /// Store key and crawl manifest `snapshot` was extracted from.
    seen: Option<Arc<Seen>>,
    /// When the next re-extraction is due.
    next_due: Instant,
    /// A recheck of this watch is in the pool right now.
    inflight: bool,
    /// Tells this subscription apart from earlier ones under the same id,
    /// so a recheck of a replaced spec never resolves into it.
    generation: u64,
}

impl WatchEntry {
    fn status(&self, id: &str) -> WatchStatus {
        WatchStatus {
            id: id.to_string(),
            wrapper: self.spec.wrapper.clone(),
            url: self.spec.url.clone(),
            interval_ms: self.spec.interval.as_millis().min(u128::from(u64::MAX)) as u64,
            webhook: self.spec.webhook.clone(),
            ticks: self.ticks,
            seq: self.seq,
            suppressed: self.suppressed,
            errors: self.errors,
        }
    }
}

struct Inner {
    watches: HashMap<String, WatchEntry>,
    /// Append-only spool under the durability dir, compacted on open.
    spool: Option<LineLog>,
    /// Generations handed out so far.
    generations: u64,
    /// The running scheduler's delivery sink. `None` before it starts
    /// and once it stopped: rechecks that land then are dropped
    /// unresolved, and the scheduler thread exits.
    sink: Option<Sink>,
    /// When the sleeping scheduler plans to wake; `None` while it works.
    wake_at: Option<Instant>,
}

/// Receives every delivered [`WatchEvent`]; see [`WatchScheduler::start`].
type Sink = Box<dyn FnMut(WatchEvent) + Send>;

/// A recheck claimed by [`Inner::take_due`], ready to queue.
struct Due {
    id: String,
    generation: u64,
    request: ExtractionRequest,
    seen: Option<Arc<Seen>>,
}

/// The registered subscriptions, shared between the scheduler thread,
/// the workers resolving its rechecks, the management routes and the
/// metrics renderer. Its one mutex guards the watches and the
/// scheduler's state (sink, planned wake) alike.
pub struct WatchRegistry {
    inner: Mutex<Inner>,
    /// Paired with `inner`: a sleeping scheduler waits on it, and a new
    /// registration, a watch falling due early or a stop wakes it.
    wake: Condvar,
}

impl Default for WatchRegistry {
    fn default() -> WatchRegistry {
        WatchRegistry::new()
    }
}

impl WatchRegistry {
    /// In-memory registry (watches die with the process).
    pub fn new() -> WatchRegistry {
        WatchRegistry {
            inner: Mutex::new(Inner {
                watches: HashMap::new(),
                spool: None,
                generations: 0,
                sink: None,
                wake_at: None,
            }),
            wake: Condvar::new(),
        }
    }

    /// Durable registry: replay the spool under `dir` (creating it if
    /// absent), compact it, and append every future change. Corrupt and
    /// torn records are skipped; only a file that is not a watch spool
    /// refuses the open.
    pub fn with_spool(dir: impl Into<PathBuf>) -> io::Result<WatchRegistry> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut watches: HashMap<String, WatchSpec> = HashMap::new();
        let (mut spool, _) =
            LineLog::open(dir.join(SPOOL_FILE), "watches", &mut watches, parse_record)?;
        let mut ids: Vec<&String> = watches.keys().collect();
        ids.sort();
        spool.rewrite(ids.into_iter().map(|id| put_record(id, &watches[id])))?;
        let mut registry = WatchRegistry::new();
        let inner = registry.inner.get_mut().expect("not shared yet");
        let now = Instant::now();
        for (id, spec) in watches {
            inner.generations += 1;
            inner
                .watches
                .insert(id, new_entry(spec, now, inner.generations));
        }
        inner.spool = Some(spool);
        Ok(registry)
    }

    /// Register (or replace) a watch. Returns `true` when the id is new.
    /// Replacement resets counters and the baseline snapshot — a new
    /// spec is a new subscription under the same name, and a recheck of
    /// the old one still in flight is dropped when it lands.
    pub fn put(&self, id: &str, spec: WatchSpec) -> bool {
        let mut inner = self.lock();
        if let Some(spool) = &mut inner.spool {
            append_or_warn(spool, put_record(id, &spec));
        }
        inner.generations += 1;
        let entry = new_entry(spec, Instant::now(), inner.generations);
        let created = inner.watches.insert(id.to_string(), entry).is_none();
        self.wake.notify_all();
        debug_event!(
            "watch_registered",
            "watch" => id,
            "created" => created,
        );
        created
    }

    /// Delete a watch. Returns `true` when it existed.
    pub fn remove(&self, id: &str) -> bool {
        let mut inner = self.lock();
        let existed = inner.watches.remove(id).is_some();
        if existed {
            if let Some(spool) = &mut inner.spool {
                append_or_warn(spool, format!("del\t{}", escape(id)));
            }
            debug_event!("watch_removed", "watch" => id);
        }
        existed
    }

    /// Status of one watch.
    pub fn get(&self, id: &str) -> Option<WatchStatus> {
        self.lock().watches.get(id).map(|e| e.status(id))
    }

    /// True when `id` is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.lock().watches.contains_key(id)
    }

    /// All watches, id-sorted.
    pub fn list(&self) -> Vec<WatchStatus> {
        let inner = self.lock();
        let mut all: Vec<WatchStatus> = inner.watches.iter().map(|(id, e)| e.status(id)).collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all
    }

    /// Number of registered watches.
    pub fn len(&self) -> usize {
        self.lock().watches.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("watch registry poisoned")
    }

    /// A recheck claimed by [`Inner::take_due`] never reached the pool.
    /// Backpressure is not an error — the watch just waits for its next
    /// tick (interactive traffic keeps its queue slots); anything else
    /// counts against the watch.
    fn submission_failed(&self, id: &str, generation: u64, error: &ServerError) {
        let mut inner = self.lock();
        if let Some(entry) = inner.entry(id, generation) {
            entry.inflight = false;
            if !matches!(error, ServerError::Backpressure) {
                entry.errors += 1;
            }
        }
    }

    /// A finished recheck, on the worker that ran it: fold it into its
    /// watch and hand any event to the sink under the lock that ends the
    /// recheck, so the event is delivered before the watch can be
    /// rechecked again. Wakes the scheduler only when the watch falls due
    /// before its planned wake. Without a sink (the scheduler stopped),
    /// the result is dropped unresolved.
    fn resolve(&self, id: &str, generation: u64, outcome: Result<Recheck, ServerError>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.sink.is_none() {
            if let Some(entry) = inner.entry(id, generation) {
                entry.inflight = false;
            }
            return;
        }
        let event = inner.resolve(id, generation, outcome);
        let due = inner.entry(id, generation).map(|entry| entry.next_due);
        let wake = matches!((due, inner.wake_at), (Some(due), Some(at)) if due < at);
        if let (Some(event), Some(sink)) = (event, &mut inner.sink) {
            debug_event!(
                "watch_event",
                "watch" => &event.watch,
                "seq" => event.seq,
                "added" => event.diff.added.len() as u64,
                "removed" => event.diff.removed.len() as u64,
                "changed" => event.diff.changed.len() as u64,
            );
            sink(event);
        }
        drop(guard);
        if wake {
            self.wake.notify_all();
        }
    }
}

impl Inner {
    /// The watch `id`, if it is still the subscription of `generation`.
    fn entry(&mut self, id: &str, generation: u64) -> Option<&mut WatchEntry> {
        self.watches
            .get_mut(id)
            .filter(|entry| entry.generation == generation)
    }

    /// Claim every watch due at `now`: marks it inflight, schedules its
    /// next tick, and returns the recheck to queue.
    fn take_due(&mut self, now: Instant) -> Vec<Due> {
        let mut due = Vec::new();
        for (id, entry) in &mut self.watches {
            if entry.inflight || entry.next_due > now {
                continue;
            }
            entry.inflight = true;
            // At least a millisecond apart, so a zero interval cannot
            // spin the scheduler on a full queue.
            entry.next_due = now + entry.spec.interval.max(Duration::from_millis(1));
            due.push(Due {
                id: id.clone(),
                generation: entry.generation,
                request: ExtractionRequest {
                    trace: None,
                    wrapper: entry.spec.wrapper.clone(),
                    version: None,
                    source: RequestSource::Web {
                        url: entry.spec.url.clone(),
                    },
                },
                seen: entry.seen.clone(),
            });
        }
        due
    }

    /// When the earliest watch not in flight falls due.
    fn next_due(&self) -> Option<Instant> {
        self.watches
            .values()
            .filter(|entry| !entry.inflight)
            .map(|entry| entry.next_due)
            .min()
    }

    /// Fold a finished recheck into its watch: baseline on the first
    /// tick, otherwise diff against the stored snapshot. Returns the
    /// event to deliver iff something changed.
    fn resolve(
        &mut self,
        id: &str,
        generation: u64,
        outcome: Result<Recheck, ServerError>,
    ) -> Option<WatchEvent> {
        // The watch may have been deleted or replaced while its recheck
        // was in flight; the result is then nobody's business.
        let entry = self.entry(id, generation)?;
        entry.inflight = false;
        let (seen, snapshot) = match outcome {
            Ok(Recheck::Extracted { seen, snapshot }) => (seen, snapshot),
            Ok(Recheck::Unchanged) => {
                entry.ticks += 1;
                entry.suppressed += 1;
                return None;
            }
            Err(_) => {
                entry.errors += 1;
                return None;
            }
        };
        entry.ticks += 1;
        entry.seen = Some(Arc::new(seen));
        let Some(previous) = entry.snapshot.take() else {
            // Baseline: remember, deliver nothing.
            entry.snapshot = Some(snapshot);
            return None;
        };
        let diff = diff_snapshots(&previous, &snapshot);
        entry.snapshot = Some(snapshot);
        if diff.is_empty() {
            entry.suppressed += 1;
            return None;
        }
        entry.seq += 1;
        Some(WatchEvent {
            watch: id.to_string(),
            seq: entry.seq,
            wrapper: entry.spec.wrapper.clone(),
            url: entry.spec.url.clone(),
            webhook: entry.spec.webhook.clone(),
            diff,
        })
    }
}

fn new_entry(spec: WatchSpec, now: Instant, generation: u64) -> WatchEntry {
    WatchEntry {
        spec,
        ticks: 0,
        seq: 0,
        suppressed: 0,
        errors: 0,
        snapshot: None,
        seen: None,
        next_due: now,
        inflight: false,
        generation,
    }
}

fn put_record(id: &str, spec: &WatchSpec) -> String {
    format!(
        "put\t{}\t{}\t{}\t{}\t{}",
        escape(id),
        escape(&spec.wrapper),
        escape(&spec.url),
        spec.interval.as_millis().min(u128::from(u64::MAX)),
        escape(spec.webhook.as_deref().unwrap_or("")),
    )
}

fn parse_record(line: &str) -> Option<Record<String, WatchSpec>> {
    let fields: Vec<&str> = line.split('\t').collect();
    match fields.as_slice() {
        ["put", id, wrapper, url, interval_ms, webhook] => {
            let webhook = unescape(webhook).ok()?;
            Some(Record::Put(
                unescape(id).ok()?,
                WatchSpec {
                    wrapper: unescape(wrapper).ok()?,
                    url: unescape(url).ok()?,
                    interval: Duration::from_millis(interval_ms.parse().ok()?),
                    webhook: (!webhook.is_empty()).then_some(webhook),
                },
            ))
        }
        ["del", id] => Some(Record::Del(unescape(id).ok()?)),
        _ => None,
    }
}

fn append_or_warn(spool: &mut LineLog, record: String) {
    if let Err(e) = spool.append(record) {
        warn_event!(
            "watch_spool_append_failed",
            "path" => spool.path().display().to_string(),
            "error" => e.to_string(),
        );
    }
}

/// The scheduler thread: queues due watches on the pool as rechecks.
/// Between passes it sleeps until the earliest watch not in flight falls
/// due; a worker wakes it sooner when its watch falls due before that.
/// So a watch is rechecked every interval, not every tick. The workers
/// that resolve the rechecks deliver the diffs themselves, so
/// change-to-notification latency is bounded by the watch interval plus
/// one extraction.
pub struct WatchScheduler {
    registry: Arc<WatchRegistry>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WatchScheduler {
    /// Start the scheduler of `registry` (one per registry at a time) and
    /// install `sink`. `tick` bounds how long it sleeps in one go; a
    /// newly registered watch wakes it at once. `sink` receives every
    /// delivered [`WatchEvent`], each watch's in `seq` order. It runs on
    /// the pool worker that resolved the event, with the registry lock
    /// held: it must not block and must not call into the registry.
    pub fn start(
        server: Arc<ExtractionServer>,
        registry: Arc<WatchRegistry>,
        tick: Duration,
        sink: Box<dyn FnMut(WatchEvent) + Send>,
    ) -> WatchScheduler {
        registry.lock().sink = Some(sink);
        let tick = tick.max(Duration::from_millis(1));
        let loop_registry = registry.clone();
        let thread = std::thread::Builder::new()
            .name("lixto-watch-scheduler".into())
            .spawn(move || scheduler_loop(server, loop_registry, tick))
            .expect("spawn watch scheduler");
        WatchScheduler {
            registry,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Take the sink out, then join the scheduler thread and drop the
    /// sink. Every event resolved before the call was delivered; none is
    /// delivered after it. In-flight rechecks keep running in the pool;
    /// their results are dropped. Idempotent.
    pub fn stop(&self) {
        let Some(thread) = self
            .thread
            .lock()
            .expect("scheduler thread slot poisoned")
            .take()
        else {
            return;
        };
        let sink = self.registry.lock().sink.take();
        self.registry.wake.notify_all();
        let _ = thread.join();
        drop(sink);
    }
}

impl Drop for WatchScheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn scheduler_loop(server: Arc<ExtractionServer>, registry: Arc<WatchRegistry>, tick: Duration) {
    let mut inner = registry.lock();
    while inner.sink.is_some() {
        let due = inner.take_due(Instant::now());
        drop(inner);
        // A full shard queue is fine: the watch retries next interval and
        // interactive traffic keeps its slots.
        for Due {
            id,
            generation,
            request,
            seen,
        } in due
        {
            let (resolver, watch) = (registry.clone(), id.clone());
            let queued = server.try_recheck(request, seen, move |outcome| {
                resolver.resolve(&watch, generation, outcome);
            });
            if let Err(e) = queued {
                registry.submission_failed(&id, generation, &e);
            }
        }
        // Sleep until the earliest due watch, a tick at most, unless stop
        // arrived meanwhile.
        inner = registry.lock();
        let now = Instant::now();
        let wake_at = inner
            .next_due()
            .map_or(now + tick, |due| due.min(now + tick));
        if inner.sink.is_none() || wake_at <= now {
            continue;
        }
        inner.wake_at = Some(wake_at);
        inner = registry
            .wake
            .wait_timeout(inner, wake_at - now)
            .expect("watch registry poisoned")
            .0;
        inner.wake_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::WrapperRegistry;
    use crate::server::ServerConfig;
    use lixto_core::XmlDesign;
    use lixto_elog::{SharedWeb, WebSource};
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::sync::mpsc;

    const WRAPPER: &str = r#"
        offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X).
        name(S, X)  :- offer(_, S), subelem(S, (.b, []), X).
    "#;

    fn page(items: &[&str]) -> String {
        let mut h = String::from("<html><body><ul>");
        for it in items {
            h.push_str(&format!("<li><b>{it}</b></li>"));
        }
        h.push_str("</ul></body></html>");
        h
    }

    fn spec(url: &str) -> WatchSpec {
        WatchSpec {
            wrapper: "shop".into(),
            url: url.into(),
            interval: Duration::from_millis(5),
            webhook: None,
        }
    }

    fn pool(web: Arc<SharedWeb>) -> Arc<ExtractionServer> {
        let registry = Arc::new(WrapperRegistry::new());
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers"))
            .unwrap();
        Arc::new(ExtractionServer::start(
            ServerConfig::default(),
            registry,
            web,
        ))
    }

    #[test]
    fn registry_put_get_list_remove() {
        let reg = WatchRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.put("a", spec("http://shop/")));
        assert!(!reg.put("a", spec("http://shop/")), "replace is not create");
        assert!(reg.put("b", spec("http://other/")));
        assert_eq!(reg.len(), 2);
        let listed = reg.list();
        assert_eq!(listed[0].id, "a");
        assert_eq!(listed[1].id, "b");
        assert_eq!(reg.get("a").unwrap().url, "http://shop/");
        assert!(reg.get("ghost").is_none());
        assert!(reg.remove("a"));
        assert!(!reg.remove("a"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn spool_survives_restart_and_skips_corrupt_records() {
        let dir = std::env::temp_dir().join(format!(
            "lixto-watch-spool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let reg = WatchRegistry::with_spool(&dir).unwrap();
            reg.put(
                "news",
                WatchSpec {
                    wrapper: "shop".into(),
                    url: "http://shop/a\tb".into(),
                    interval: Duration::from_millis(250),
                    webhook: Some("http://sink:9/hook".into()),
                },
            );
            reg.put("doomed", spec("http://gone/"));
            reg.remove("doomed");
        }
        // Corrupt the log with garbage; recovery must shrug it off.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(SPOOL_FILE))
                .unwrap();
            writeln!(f, "put\tonly-three-fields\toops").unwrap();
        }
        let reg = WatchRegistry::with_spool(&dir).unwrap();
        assert_eq!(reg.len(), 1);
        let got = reg.get("news").unwrap();
        assert_eq!(got.url, "http://shop/a\tb");
        assert_eq!(got.interval_ms, 250);
        assert_eq!(got.webhook.as_deref(), Some("http://sink:9/hook"));
        assert_eq!(got.ticks, 0, "counters restart with the process");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduler_baselines_suppresses_and_delivers_exact_diffs() {
        let web = Arc::new(SharedWeb::new());
        web.put("http://shop/", page(&["espresso", "grinder"]));
        let server = pool(web.clone());
        let registry = Arc::new(WatchRegistry::new());
        registry.put("shop-watch", spec("http://shop/"));
        let (tx, rx) = mpsc::channel::<WatchEvent>();
        let scheduler = WatchScheduler::start(
            server.clone(),
            registry.clone(),
            Duration::from_millis(2),
            Box::new(move |event| {
                let _ = tx.send(event);
            }),
        );
        // Let the baseline tick plus several unchanged ticks pass.
        let deadline = Instant::now() + Duration::from_secs(10);
        while registry.get("shop-watch").unwrap().ticks < 3 {
            assert!(Instant::now() < deadline, "watch never ticked");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            rx.try_recv().is_err(),
            "unchanged ticks must deliver nothing"
        );
        let before = registry.get("shop-watch").unwrap();
        assert!(before.suppressed >= 1);
        assert_eq!(before.seq, 0);
        // Mutate the page: exactly one event, with the exact diff.
        web.put("http://shop/", page(&["espresso", "kettle", "mug"]));
        let event = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("diff event after mutation");
        assert_eq!(event.watch, "shop-watch");
        assert_eq!(event.seq, 1);
        // Reference recompute: the wrapper extracts one `offer` (the li
        // subtree) and one `name` (the b text) per item.
        assert!(event
            .diff
            .changed
            .iter()
            .any(|c| c.pattern == "name" && c.before == "grinder" && c.after == "kettle"));
        assert!(event
            .diff
            .added
            .iter()
            .any(|a| a.pattern == "name" && a.text == "mug"));
        assert!(event
            .diff
            .removed
            .iter()
            .all(|r| r.pattern == "offer" || r.pattern == "name"),);
        // No second event for the same content.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        scheduler.stop();
        // Idempotent stop; drop after stop is fine too.
        scheduler.stop();
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }

    /// Queue one claimed recheck directly and wait for its outcome.
    fn run(server: &ExtractionServer, due: &Due) -> Result<Recheck, ServerError> {
        let (tx, rx) = mpsc::channel();
        server
            .try_recheck(due.request.clone(), due.seen.clone(), move |outcome| {
                let _ = tx.send(outcome);
            })
            .unwrap();
        rx.recv_timeout(Duration::from_secs(10)).unwrap()
    }

    /// Install a sink on `registry` that records every event it receives,
    /// as a running scheduler would.
    fn record(registry: &WatchRegistry) -> Arc<Mutex<Vec<WatchEvent>>> {
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let sink = delivered.clone();
        registry.lock().sink = Some(Box::new(move |event| sink.lock().unwrap().push(event)));
        delivered
    }

    /// Claim the one watch not in flight, due or not.
    fn claim(registry: &WatchRegistry) -> Due {
        let mut inner = registry.lock();
        let now = Instant::now();
        for entry in inner.watches.values_mut() {
            entry.next_due = now;
        }
        let mut due = inner.take_due(now);
        assert_eq!(due.len(), 1);
        due.pop().unwrap()
    }

    #[test]
    fn deleted_watch_in_flight_result_is_dropped() {
        let web = Arc::new(SharedWeb::new());
        web.put("http://shop/", page(&["x"]));
        let server = pool(web);
        let registry = Arc::new(WatchRegistry::new());
        registry.put("w", spec("http://shop/"));
        let delivered = record(&registry);
        let due = claim(&registry);
        registry.remove("w");
        registry.resolve("w", due.generation, run(&server, &due));
        assert!(delivered.lock().unwrap().is_empty());
        assert!(registry.get("w").is_none());
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }

    #[test]
    fn replaced_watch_in_flight_result_is_dropped() {
        let web = Arc::new(SharedWeb::new());
        web.put("http://shop/", page(&["old"]));
        let server = pool(web.clone());
        let registry = Arc::new(WatchRegistry::new());
        registry.put("w", spec("http://shop/"));
        let delivered = record(&registry);
        let old = claim(&registry);
        let old_outcome = run(&server, &old);
        // The replacement is a new subscription: due at once, and
        // claimed while the old spec's recheck is still in flight.
        let replacement = WatchSpec {
            interval: Duration::from_millis(7),
            ..spec("http://shop/")
        };
        assert!(!registry.put("w", replacement));
        let new = claim(&registry);
        assert_ne!(old.generation, new.generation);
        registry.resolve("w", old.generation, old_outcome);
        let status = registry.get("w").unwrap();
        assert_eq!(
            (status.ticks, status.errors),
            (0, 0),
            "no tick on the new counters"
        );
        assert!(
            registry.lock().watches["w"].inflight,
            "the new spec's recheck is still in flight"
        );
        assert!(registry.lock().take_due(Instant::now()).is_empty());
        // The new spec's own recheck is its baseline: nothing delivered,
        // and the old page never became its snapshot.
        web.put("http://shop/", page(&["new"]));
        registry.resolve("w", new.generation, run(&server, &new));
        assert_eq!(registry.get("w").unwrap().ticks, 1);
        let inner = registry.lock();
        let baseline = inner.watches["w"].snapshot.as_ref().unwrap();
        assert!(baseline.instances.iter().any(|i| i.text == "new"));
        assert!(baseline.instances.iter().all(|i| i.text != "old"));
        drop(inner);
        assert!(delivered.lock().unwrap().is_empty());
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }

    #[test]
    fn errors_count_against_the_watch() {
        let web = Arc::new(SharedWeb::new());
        let server = pool(web); // no pages: every fetch 404s
        let registry = Arc::new(WatchRegistry::new());
        registry.put("w", spec("http://shop/"));
        let delivered = record(&registry);
        let due = claim(&registry);
        let outcome = run(&server, &due);
        assert!(outcome.is_err());
        registry.resolve("w", due.generation, outcome);
        assert!(delivered.lock().unwrap().is_empty());
        assert_eq!(registry.get("w").unwrap().errors, 1);
        // Backpressure is not an error; other submit failures are.
        registry.submission_failed("w", due.generation, &ServerError::Backpressure);
        assert_eq!(registry.get("w").unwrap().errors, 1);
        registry.submission_failed("w", due.generation, &ServerError::ShuttingDown);
        assert_eq!(registry.get("w").unwrap().errors, 2);
        // A recheck destroyed unprocessed ends as canceled: the watch is
        // not left in flight.
        let due = claim(&registry);
        registry.resolve("w", due.generation, Err(ServerError::Canceled));
        assert!(!registry.lock().watches["w"].inflight);
        assert_eq!(registry.get("w").unwrap().errors, 3);
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }

    /// Serves `page(["{url}#{n}"])` on the `n`-th fetch of a URL, so the
    /// records change on every fetch, and holds fetches of a URL past
    /// its allowance until [`allow`](GatedWeb::allow) raises it.
    #[derive(Default)]
    struct GatedWeb {
        state: Mutex<GateState>,
        moved: Condvar,
    }

    #[derive(Default)]
    struct GateState {
        fetched: HashMap<String, u64>,
        allowed: HashMap<String, u64>,
        /// URLs with a fetch waiting for its allowance.
        held: Vec<String>,
    }

    impl GatedWeb {
        fn allow(&self, url: &str, fetches: u64) {
            self.state
                .lock()
                .unwrap()
                .allowed
                .insert(url.to_string(), fetches);
            self.moved.notify_all();
        }

        /// Block until `cond` holds over the gate state.
        fn until(&self, what: &str, cond: impl Fn(&GateState) -> bool) {
            let state = self.state.lock().unwrap();
            let (state, timeout) = self
                .moved
                .wait_timeout_while(state, Duration::from_secs(10), |s| !cond(s))
                .unwrap();
            drop(state);
            assert!(!timeout.timed_out(), "timed out waiting for {what}");
        }

        fn fetched(&self, url: &str) -> u64 {
            self.state
                .lock()
                .unwrap()
                .fetched
                .get(url)
                .copied()
                .unwrap_or(0)
        }
    }

    impl WebSource for GatedWeb {
        fn fetch(&self, url: &str) -> Option<String> {
            let mut state = self.state.lock().unwrap();
            let n = state.fetched.get(url).copied().unwrap_or(0);
            if state.allowed.get(url).is_some_and(|allowed| n >= *allowed) {
                state.held.push(url.to_string());
                self.moved.notify_all();
                state = self
                    .moved
                    .wait_while(state, |s| s.allowed.get(url).is_some_and(|a| n >= *a))
                    .unwrap();
                state.held.retain(|held| held != url);
            }
            state.fetched.insert(url.to_string(), n + 1);
            self.moved.notify_all();
            Some(page(&[&format!("{url}#{n}")]))
        }
    }

    /// `pool` over `web`, with every wrapper of `programs` registered and
    /// one shared queue, so a held fetch never blocks the jobs behind it.
    fn shared_queue_pool(
        web: Arc<dyn WebSource + Send + Sync>,
        programs: &[(&str, &str)],
        store: Option<crate::store::StoreConfig>,
    ) -> Arc<ExtractionServer> {
        let registry = Arc::new(WrapperRegistry::new());
        for (name, program) in programs {
            registry
                .register_source(name, program, XmlDesign::new().root("offers"))
                .unwrap();
        }
        Arc::new(ExtractionServer::start(
            ServerConfig {
                shards: 1,
                workers_per_shard: 4,
                store,
                ..ServerConfig::default()
            },
            registry,
            web,
        ))
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_interval_paces_rechecks_not_the_tick() {
        let web = Arc::new(GatedWeb::default());
        let server = shared_queue_pool(web.clone(), &[("shop", WRAPPER)], None);
        let registry = Arc::new(WatchRegistry::new());
        let scheduler = WatchScheduler::start(
            server.clone(),
            registry.clone(),
            Duration::from_secs(10),
            Box::new(|_| {}),
        );
        // Registered while the scheduler sleeps out its tick.
        let started = Instant::now();
        registry.put(
            "w",
            WatchSpec {
                interval: Duration::from_millis(20),
                ..spec("http://shop/")
            },
        );
        std::thread::sleep(Duration::from_millis(500).saturating_sub(started.elapsed()));
        let ticks = registry.get("w").unwrap().ticks;
        scheduler.stop();
        assert!(
            ticks >= 10,
            "{ticks} rechecks in 500 ms at a 20 ms interval"
        );
        server.initiate_shutdown();
    }

    #[test]
    fn rechecks_never_touch_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "lixto-watch-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let web = Arc::new(GatedWeb::default());
        let server = shared_queue_pool(
            web.clone(),
            &[("shop", WRAPPER)],
            Some(crate::store::StoreConfig::new(&dir)),
        );
        // An interactive extraction of the watched page is stored.
        let request = ExtractionRequest {
            trace: None,
            wrapper: "shop".into(),
            version: None,
            source: RequestSource::Web {
                url: "http://shop/".into(),
            },
        };
        assert!(!server.execute(request).unwrap().cache_hit);
        let before = server.metrics();
        assert_eq!((before.store.persisted, before.cache.len), (1, 1));
        let registry = Arc::new(WatchRegistry::new());
        registry.put("w", spec("http://shop/"));
        let (tx, rx) = mpsc::channel::<WatchEvent>();
        let scheduler = WatchScheduler::start(
            server.clone(),
            registry.clone(),
            Duration::from_millis(2),
            Box::new(move |event| {
                let _ = tx.send(event);
            }),
        );
        let mut events = Vec::new();
        while events.len() < 8 {
            events.push(
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("a diff event"),
            );
        }
        scheduler.stop();
        let after = server.metrics();
        assert_eq!(
            after.store.persisted, before.store.persisted,
            "no store put"
        );
        assert_eq!(after.cache.hits, before.cache.hits, "no cache hit counted");
        assert_eq!(
            after.cache.misses, before.cache.misses,
            "no cache miss counted"
        );
        // The page changed under the interactive entry: its new bytes
        // have a new content address, so the entry is left alone for the
        // LRU, and nothing is stored beside it.
        assert_eq!((after.cache.invalidations, after.cache.len), (0, 1));
        assert_eq!(after.store.disk_len, 1);
        assert!(
            after.completed > before.completed + 8,
            "rechecks count as completed"
        );
        // Each event is the exact diff between consecutive fetches.
        for (k, event) in events.iter().enumerate() {
            assert_eq!(event.seq, k as u64 + 1);
            assert_eq!(event.diff.changed.len(), 2, "{:?}", event.diff);
            for change in &event.diff.changed {
                let before: u64 = change.before.rsplit('#').next().unwrap().parse().unwrap();
                let after: u64 = change.after.rsplit('#').next().unwrap().parse().unwrap();
                assert_eq!(after, before + 1, "{change:?}");
            }
        }
        server.initiate_shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    fn invocations(server: &ExtractionServer, version: u32) -> u64 {
        let wrapper = server.registry().version("shop", version).unwrap();
        wrapper
            .telemetry
            .snapshot()
            .iter()
            .map(|r| r.invocations)
            .sum()
    }

    #[test]
    fn a_static_page_executes_once_until_a_redeploy() {
        let web = Arc::new(SharedWeb::new());
        web.put("http://shop/", page(&["steady"]));
        let server = pool(web);
        let registry = Arc::new(WatchRegistry::new());
        registry.put("w", spec("http://shop/"));
        let (tx, rx) = mpsc::channel::<WatchEvent>();
        let scheduler = WatchScheduler::start(
            server.clone(),
            registry.clone(),
            Duration::from_millis(2),
            Box::new(move |event| {
                let _ = tx.send(event);
            }),
        );
        wait_for("the baseline", || registry.get("w").unwrap().ticks >= 1);
        let executed = invocations(&server, 1);
        assert!(executed > 0);
        wait_for("five more rechecks", || {
            registry.get("w").unwrap().ticks >= 6
        });
        assert_eq!(
            invocations(&server, 1),
            executed,
            "an unchanged page ran the plan"
        );
        let status = registry.get("w").unwrap();
        assert_eq!(status.suppressed, status.ticks - 1);
        // A redeploy (new design, so a new plan) executes again, and the
        // same records still deliver nothing.
        server
            .registry()
            .register_source("shop", WRAPPER, XmlDesign::new().root("offers_v2"))
            .unwrap();
        wait_for("the new version to run", || invocations(&server, 2) > 0);
        let ticks = registry.get("w").unwrap().ticks;
        wait_for("more rechecks", || {
            registry.get("w").unwrap().ticks >= ticks + 3
        });
        scheduler.stop();
        assert!(rx.try_recv().is_err(), "no records changed");
        assert_eq!(invocations(&server, 1), executed);
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }

    #[test]
    fn a_changed_subpage_of_a_crawl_wrapper_is_delivered() {
        const CRAWLER: &str = r#"
            link(S, X)  :- document("http://start/", S), subelem(S, (?.a, []), X).
            page(S, X)  :- link(_, S), attrbind(S, href, U), document(U, X).
            para(S, X)  :- page(_, S), subelem(S, (?.p, []), X).
        "#;
        let web = Arc::new(SharedWeb::new());
        web.put(
            "http://start/",
            "<body><a href='http://sub/'>next</a></body>",
        );
        web.put("http://sub/", "<body><p>alpha</p></body>");
        let server = shared_queue_pool(web.clone(), &[("crawler", CRAWLER)], None);
        let registry = Arc::new(WatchRegistry::new());
        registry.put(
            "w",
            WatchSpec {
                wrapper: "crawler".into(),
                ..spec("http://start/")
            },
        );
        let (tx, rx) = mpsc::channel::<WatchEvent>();
        let scheduler = WatchScheduler::start(
            server.clone(),
            registry.clone(),
            Duration::from_millis(2),
            Box::new(move |event| {
                let _ = tx.send(event);
            }),
        );
        wait_for("unchanged rechecks", || {
            registry.get("w").unwrap().suppressed >= 2
        });
        web.put("http://sub/", "<body><p>beta</p></body>");
        let event = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the subpage diff");
        scheduler.stop();
        assert!(event
            .diff
            .changed
            .iter()
            .any(|c| c.pattern == "para" && c.before == "alpha" && c.after == "beta"));
        server.initiate_shutdown();
    }

    /// A wrapper over the one page at `url`.
    fn program(url: &str) -> String {
        format!(
            r#"
            offer(S, X) :- document("{url}", S), subelem(S, (?.li, []), X).
            name(S, X)  :- offer(_, S), subelem(S, (.b, []), X).
            "#
        )
    }

    #[test]
    fn stop_delivers_resolved_events_and_nothing_after() {
        const A: &str = "http://a/";
        const B: &str = "http://b/";
        const C: &str = "http://c/";
        let web = Arc::new(GatedWeb::default());
        for url in [A, B, C] {
            web.allow(url, 1);
        }
        let (pa, pb, pc) = (program(A), program(B), program(C));
        let server = shared_queue_pool(web.clone(), &[("a", &pa), ("b", &pb), ("c", &pc)], None);
        let registry = Arc::new(WatchRegistry::new());
        for (name, url) in [("a", A), ("b", B), ("c", C)] {
            let spec = WatchSpec {
                wrapper: name.into(),
                ..spec(url)
            };
            registry.put(name, spec);
        }
        let (tx, rx) = mpsc::channel::<WatchEvent>();
        let scheduler = WatchScheduler::start(
            server.clone(),
            registry.clone(),
            Duration::from_millis(2),
            Box::new(move |event| {
                let _ = tx.send(event);
            }),
        );
        // Every watch baselines, and its second fetch is held.
        web.until("three held rechecks", |s| s.held.len() == 3);
        // A's and B's changes resolve while the scheduler runs: each is
        // in the sink by the time its recheck has resolved.
        for (watch, url) in [("a", A), ("b", B)] {
            web.allow(url, 2);
            let event = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!((event.watch.as_str(), event.seq), (watch, 1));
        }
        scheduler.stop();
        // Stop dropped the sink: nothing can be delivered after it.
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        // C's change lands after stop: dropped unresolved, and the watch
        // is not left in flight.
        let completed = server.metrics().completed;
        web.allow(C, 2);
        wait_for("C's recheck", || server.metrics().completed > completed);
        assert_eq!(web.fetched(C), 2);
        let c = registry.get("c").unwrap();
        assert_eq!((c.ticks, c.seq), (1, 0));
        assert!(!registry.lock().watches["c"].inflight);
        // The scheduler may have queued A's or B's next recheck before it
        // saw stop; let it finish so the pool can drain.
        for url in [A, B, C] {
            web.allow(url, u64::MAX);
        }
        server.initiate_shutdown();
    }

    #[test]
    fn each_watch_reaches_the_sink_in_seq_order_without_gaps() {
        const WATCHES: usize = 16;
        const EVENTS: usize = 240;
        let urls: Vec<String> = (0..WATCHES).map(|i| format!("http://w{i}/")).collect();
        let programs: Vec<(String, String)> = urls
            .iter()
            .enumerate()
            .map(|(i, url)| (format!("w{i}"), program(url)))
            .collect();
        let programs: Vec<(&str, &str)> = programs
            .iter()
            .map(|(name, program)| (name.as_str(), program.as_str()))
            .collect();
        // Every fetch serves new records, so every recheck after the
        // baseline is an event, resolved on one of four workers.
        let web = Arc::new(GatedWeb::default());
        let server = shared_queue_pool(web, &programs, None);
        let registry = Arc::new(WatchRegistry::new());
        for (i, url) in urls.iter().enumerate() {
            let spec = WatchSpec {
                wrapper: format!("w{i}"),
                interval: Duration::from_millis(1),
                ..spec(url)
            };
            registry.put(&format!("w{i}"), spec);
        }
        let (tx, rx) = mpsc::channel::<(String, u64)>();
        let scheduler = WatchScheduler::start(
            server.clone(),
            registry.clone(),
            Duration::from_millis(2),
            Box::new(move |event| {
                let _ = tx.send((event.watch, event.seq));
            }),
        );
        let mut last: HashMap<String, u64> = HashMap::new();
        for _ in 0..EVENTS {
            let (watch, seq) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a diff event");
            let previous = last.entry(watch.clone()).or_insert(0);
            assert_eq!(seq, *previous + 1, "watch {watch}");
            *previous = seq;
        }
        scheduler.stop();
        assert!(last.len() > 1, "only {last:?} delivered");
        server.initiate_shutdown();
    }
}
