//! Durable, provenance-tracked tiered result store.
//!
//! The [`TieredStore`] layers an in-memory sharded LRU (the *hot tier*)
//! over an optional append-only, log-structured *disk tier*, so a
//! restarted gateway serves previously-cached extractions without
//! re-executing any plan. Every
//! stored entry carries a [`Provenance`] record — wrapper name and
//! version, plan fingerprint, source page URL and body hash, and the
//! producing plan-rule index of every extracted instance — answering
//! "why did this instance appear?" across restarts.
//!
//! # On-disk format
//!
//! A store directory holds exactly two files (see `docs/ARCHITECTURE.md`
//! for the normative spec):
//!
//! * `snapshot.log` — a compacted baseline, rewritten atomically
//!   (tmp-file + rename) by [`TieredStore::compact`];
//! * `wal.log` — the write-ahead log: every insert appends one `put`
//!   record, every invalidation (a crawl manifest that failed to
//!   revalidate) one `del` tombstone.
//!
//! Both are logs of the data directory's one line framing (the crate's
//! `linelog` module: header line, escaped tab-separated fields, torn-tail
//! cut, atomic rewrite), of kinds `snapshot` and `wal`. A `put` record is:
//!
//! ```text
//! put <wrapper> <plan:016x> <content:016x> <created-epoch-secs>
//!     <crawl_live:0|1> <version> <source_url> <source_hash:016x> <xml>
//!     <n-instances> (<pattern> <parent|-> <rule|-> <text>)*
//!     <n-crawl> (<url> <hash:016x|->)*
//! ```
//!
//! (shown wrapped; on disk it is a single tab-separated line). A `del`
//! record is `del <wrapper> <plan:016x> <content:016x>`. A hot-tier
//! entry's [`ResponseMemo`] is never written: an entry promoted from
//! disk starts with an empty one.
//!
//! # Recovery
//!
//! [`TieredStore::open`] reads `snapshot.log`, then replays `wal.log`
//! over it (later records win; tombstones remove). A torn WAL tail, a
//! corrupted sector or a future record type is *skipped and counted*
//! ([`StoreStats::corrupt_records`]), so recovery yields the longest
//! cleanly-parseable prefix of history. Entries whose TTL has lapsed are
//! dropped on load ([`StoreStats::expired`]).
//!
//! # Compaction
//!
//! When the WAL grows past half the configured byte budget, or live
//! entries exceed the budget, the store compacts: expired entries are
//! dropped; if the live set is over the budget, the oldest entries are
//! evicted until it fits the *low-water mark* (7/8 of the budget), so a
//! full store absorbs an eighth of its budget in new inserts before it
//! compacts again instead of rewriting the snapshot on every insert;
//! then `snapshot.log` is rewritten (entries sorted by key, so
//! equivalent stores compact to byte-identical snapshots) and the WAL
//! truncated back to its header.
//!
//! # Durability model
//!
//! Appends are flushed to the OS on every insert but not fsynced: the
//! store survives process crashes and restarts (the common gateway
//! redeploy), while a power failure may lose the last few records — each
//! of which is merely a cache entry, recomputable from source.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use lixto_elog::eval::ExtractionResult;
use lixto_elog::instances::{Instance, InstanceBase, Target};

use crate::cache::{
    CacheKey, CacheStats, CachedExtraction, CrawlRecord, ResponseMemo, ResultCache,
};
use crate::linelog::{self, escape, percent_decode, percent_encode, unescape, LineLog};

/// Where each durable substrate of a server lives under one data
/// directory — the single convention shared by the wrapper-registry
/// spool and the result store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityLayout {
    /// The data directory itself.
    pub root: PathBuf,
    /// Wrapper-registry spool directory (`<root>/wrappers`); pass to
    /// [`WrapperRegistry::with_spool`](crate::WrapperRegistry::with_spool).
    pub wrappers: PathBuf,
    /// Result-store directory (`<root>/store`); pass to
    /// [`StoreConfig::new`].
    pub store: PathBuf,
    /// Watch-subscription spool directory (`<root>/watches`); pass to
    /// [`WatchRegistry::with_spool`](crate::WatchRegistry::with_spool).
    pub watches: PathBuf,
}

/// The shared durability directory convention: one `root` data
/// directory with a `wrappers/` registry spool, a `store/` result store
/// and a `watches/` subscription spool beside each other, so "persist
/// this server" is a single path.
pub fn durability_layout(root: impl Into<PathBuf>) -> DurabilityLayout {
    let root = root.into();
    DurabilityLayout {
        wrappers: root.join("wrappers"),
        store: root.join("store"),
        watches: root.join("watches"),
        root,
    }
}

/// Per-instance derivation record: which rule of which wrapper produced
/// an extracted instance, from which page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceProvenance {
    /// Pattern the instance belongs to.
    pub pattern: String,
    /// Index of the parent instance in the base (`None` for page-entry
    /// instances).
    pub parent: Option<usize>,
    /// Index of the plan rule that derived the instance (`None` when the
    /// result came from the interpreted reference evaluator, which
    /// records no trace).
    pub rule: Option<u32>,
    /// The instance's extracted text.
    pub text: String,
}

/// The derivation of one cached extraction: enough to answer "which
/// wrapper version and rule produced this instance, from which page?"
/// — the audit record the paper's supervised re-deployment story needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Wrapper name.
    pub wrapper: String,
    /// Registry version that executed.
    pub version: u32,
    /// Fingerprint of the compiled plan (`WrapperSpec::plan_id`).
    pub plan: u64,
    /// URL of the entry document.
    pub source_url: String,
    /// `fxhash64` of the entry document's body.
    pub source_hash: u64,
    /// One record per instance of the result's base, index-parallel.
    pub instances: Vec<InstanceProvenance>,
}

/// Render a [`CacheKey`] as the stable string key served by
/// `GET /provenance/{key}`: the wrapper name percent-encoded to
/// `[A-Za-z0-9_-]` (the registry spool's file-name convention), then
/// the plan fingerprint and content address as fixed-width hex,
/// `@`-separated.
pub fn provenance_key(key: &CacheKey) -> String {
    let wrapper = percent_encode(&key.wrapper);
    format!("{wrapper}@{:016x}@{:016x}", key.plan, key.content)
}

/// Parse a string produced by [`provenance_key`] back into a
/// [`CacheKey`]. The two fixed-width hex fields are taken from the
/// right, so wrapper names containing `@` (percent-encoded as `%40`)
/// cannot confuse the split.
pub fn parse_provenance_key(s: &str) -> Option<CacheKey> {
    let (rest, content) = s.rsplit_once('@')?;
    let (wrapper_enc, plan) = rest.rsplit_once('@')?;
    let plan = u64::from_str_radix(plan, 16)
        .ok()
        .filter(|_| plan.len() == 16)?;
    let content = u64::from_str_radix(content, 16)
        .ok()
        .filter(|_| content.len() == 16)?;
    Some(CacheKey {
        wrapper: percent_decode(wrapper_enc)?,
        plan,
        content,
    })
}

/// Disk-tier configuration for [`TieredStore::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Directory holding `snapshot.log` and `wal.log` (created if
    /// absent). Under the shared data-directory convention this is
    /// [`DurabilityLayout::store`].
    pub dir: PathBuf,
    /// Drop entries older than this at recovery, lookup and compaction;
    /// `None` keeps entries until evicted by the byte budget.
    pub ttl: Option<Duration>,
    /// Byte budget for live entries; past it, compaction evicts
    /// oldest-first down to 7/8 of it, and the WAL compacts at half this
    /// size.
    pub budget_bytes: u64,
}

impl StoreConfig {
    /// A config for `dir` with no TTL and the default 64 MiB budget.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            ttl: None,
            budget_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Disk-tier counters, all zero for a memory-only store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// `put` records appended to the WAL since open.
    pub persisted: u64,
    /// Entries recovered from disk at open (after TTL filtering).
    pub recovered: u64,
    /// Hot-tier misses answered by the disk tier (warm restarts show up
    /// here).
    pub disk_hits: u64,
    /// Live entries in the disk tier.
    pub disk_len: usize,
    /// Approximate encoded bytes of the live entries.
    pub disk_bytes: u64,
    /// Undecodable lines skipped during recovery (torn WAL tails,
    /// corrupted records).
    pub corrupt_records: u64,
    /// Snapshot rewrites performed.
    pub compactions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expired: u64,
    /// Entries evicted oldest-first by the byte budget.
    pub disk_evictions: u64,
    /// Disk writes that failed (the store degrades to memory-only
    /// behavior for the affected records rather than erroring requests).
    pub write_errors: u64,
}

struct DiskEntry {
    value: Arc<CachedExtraction>,
    created: u64,
    bytes: u64,
}

/// The live-byte level an over-budget compaction evicts down to: 7/8 of
/// the budget, so compactions are at least `budget / 8` inserted bytes
/// apart.
fn low_water(budget: u64) -> u64 {
    budget - budget / 8
}

struct DiskTier {
    dir: PathBuf,
    wal: LineLog,
    index: HashMap<CacheKey, DiskEntry>,
    /// Sum of `bytes` over `index`, kept current by every insert and
    /// removal.
    live_bytes: u64,
    ttl: Option<Duration>,
    budget: u64,
    /// Counters; `disk_len` and `disk_bytes` are filled in by `stats`.
    stats: StoreStats,
}

/// Seconds since the Unix epoch (0 on a pre-1970 clock).
fn epoch_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Encode one `put` record (no trailing newline).
fn encode_put(key: &CacheKey, entry: &CachedExtraction, created: u64) -> String {
    let p = &entry.provenance;
    let mut out = String::with_capacity(entry.xml.len() + 256);
    out.push_str("put\t");
    out.push_str(&escape(&key.wrapper));
    out.push_str(&format!(
        "\t{:016x}\t{:016x}\t{created}\t{}\t{}\t",
        key.plan,
        key.content,
        u8::from(entry.crawl_live),
        p.version,
    ));
    out.push_str(&escape(&p.source_url));
    out.push_str(&format!("\t{:016x}\t", p.source_hash));
    out.push_str(&escape(&entry.xml));
    out.push_str(&format!("\t{}", p.instances.len()));
    for inst in &p.instances {
        out.push('\t');
        out.push_str(&escape(&inst.pattern));
        match inst.parent {
            Some(parent) => out.push_str(&format!("\t{parent}")),
            None => out.push_str("\t-"),
        }
        match inst.rule {
            Some(rule) => out.push_str(&format!("\t{rule}")),
            None => out.push_str("\t-"),
        }
        out.push('\t');
        out.push_str(&escape(&inst.text));
    }
    out.push_str(&format!("\t{}", entry.crawl.len()));
    for record in &entry.crawl {
        out.push('\t');
        out.push_str(&escape(&record.url));
        match record.content {
            Some(hash) => out.push_str(&format!("\t{hash:016x}")),
            None => out.push_str("\t-"),
        }
    }
    out
}

fn encode_del(key: &CacheKey) -> String {
    format!(
        "del\t{}\t{:016x}\t{:016x}",
        escape(&key.wrapper),
        key.plan,
        key.content
    )
}

enum Record {
    Put(CacheKey, u64, Arc<CachedExtraction>),
    Del(CacheKey),
}

/// Decode one line; `None` marks it corrupt (skipped and counted).
fn decode_line(line: &str) -> Option<Record> {
    let mut fields = line.split('\t');
    match fields.next()? {
        "del" => {
            let wrapper = unescape(fields.next()?).ok()?;
            let plan = u64::from_str_radix(fields.next()?, 16).ok()?;
            let content = u64::from_str_radix(fields.next()?, 16).ok()?;
            fields.next().is_none().then_some(Record::Del(CacheKey {
                wrapper,
                plan,
                content,
            }))
        }
        "put" => decode_put(fields),
        _ => None,
    }
}

fn decode_put(mut fields: std::str::Split<'_, char>) -> Option<Record> {
    let wrapper = unescape(fields.next()?).ok()?;
    let plan = u64::from_str_radix(fields.next()?, 16).ok()?;
    let content = u64::from_str_radix(fields.next()?, 16).ok()?;
    let created: u64 = fields.next()?.parse().ok()?;
    let crawl_live = match fields.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let version: u32 = fields.next()?.parse().ok()?;
    let source_url = unescape(fields.next()?).ok()?;
    let source_hash = u64::from_str_radix(fields.next()?, 16).ok()?;
    let xml = unescape(fields.next()?).ok()?;
    let n_inst: usize = fields.next()?.parse().ok()?;
    let mut instances = Vec::with_capacity(n_inst.min(4096));
    for _ in 0..n_inst {
        let pattern = unescape(fields.next()?).ok()?;
        let parent = match fields.next()? {
            "-" => None,
            n => Some(n.parse().ok()?),
        };
        let rule = match fields.next()? {
            "-" => None,
            n => Some(n.parse().ok()?),
        };
        let text = unescape(fields.next()?).ok()?;
        instances.push(InstanceProvenance {
            pattern,
            parent,
            rule,
            text,
        });
    }
    let n_crawl: usize = fields.next()?.parse().ok()?;
    let mut crawl = Vec::with_capacity(n_crawl.min(4096));
    for _ in 0..n_crawl {
        let url = unescape(fields.next()?).ok()?;
        let content = match fields.next()? {
            "-" => None,
            h => Some(u64::from_str_radix(h, 16).ok()?),
        };
        crawl.push(CrawlRecord { url, content });
    }
    if fields.next().is_some() {
        return None;
    }
    // Parent indices must point backwards (children follow parents in
    // the base) or the record is corrupt.
    if instances
        .iter()
        .enumerate()
        .any(|(i, inst)| inst.parent.is_some_and(|p| p >= i))
    {
        return None;
    }
    let base = InstanceBase {
        instances: instances
            .iter()
            .map(|inst| Instance {
                pattern: inst.pattern.as_str().into(),
                parent: inst.parent,
                target: Target::Text(inst.text.clone()),
            })
            .collect(),
    };
    let rule_trace = if instances.iter().all(|i| i.rule.is_some()) {
        instances.iter().filter_map(|i| i.rule).collect()
    } else {
        Vec::new()
    };
    let provenance = Provenance {
        wrapper: wrapper.clone(),
        version,
        plan,
        source_url,
        source_hash,
        instances,
    };
    let value = Arc::new(CachedExtraction {
        result: ExtractionResult::from_parts(base, Vec::new(), Vec::new(), rule_trace),
        xml,
        crawl,
        crawl_live,
        provenance,
    });
    Some(Record::Put(
        CacheKey {
            wrapper,
            plan,
            content,
        },
        created,
        value,
    ))
}

/// [`decode_line`] as a disk-tier index record.
fn decode_entry(line: &str) -> Option<linelog::Record<CacheKey, DiskEntry>> {
    Some(match decode_line(line)? {
        Record::Put(key, created, value) => {
            let bytes = line.len() as u64 + 1;
            linelog::Record::Put(
                key,
                DiskEntry {
                    value,
                    created,
                    bytes,
                },
            )
        }
        Record::Del(key) => linelog::Record::Del(key),
    })
}

impl DiskTier {
    fn open(config: &StoreConfig) -> io::Result<DiskTier> {
        fs::create_dir_all(&config.dir)?;
        let mut index: HashMap<CacheKey, DiskEntry> = HashMap::new();
        let snapshot = config.dir.join("snapshot.log");
        let (snapshot_corrupt, _) =
            linelog::replay(&snapshot, "snapshot", &mut index, decode_entry)?;
        let (wal, wal_corrupt) =
            LineLog::open(config.dir.join("wal.log"), "wal", &mut index, decode_entry)?;
        let mut tier = DiskTier {
            dir: config.dir.clone(),
            wal,
            index,
            live_bytes: 0,
            ttl: config.ttl,
            budget: config.budget_bytes.max(1),
            stats: StoreStats {
                corrupt_records: snapshot_corrupt + wal_corrupt,
                ..StoreStats::default()
            },
        };
        tier.sweep_expired();
        tier.stats.recovered = tier.index.len() as u64;
        Ok(tier)
    }

    /// Drop the entries whose TTL has lapsed and recount the live bytes.
    fn sweep_expired(&mut self) {
        if let Some(ttl) = self.ttl {
            let now = epoch_secs();
            let before = self.index.len();
            self.index
                .retain(|_, e| e.created.saturating_add(ttl.as_secs()) > now);
            self.stats.expired += (before - self.index.len()) as u64;
        }
        self.live_bytes = self.index.values().map(|e| e.bytes).sum();
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<CachedExtraction>> {
        if let Some(ttl) = self.ttl {
            let now = epoch_secs();
            if let Some(entry) = self.index.get(key) {
                if entry.created.saturating_add(ttl.as_secs()) <= now {
                    self.live_bytes -= entry.bytes;
                    self.index.remove(key);
                    self.stats.expired += 1;
                    return None;
                }
            }
        }
        let value = self.index.get(key).map(|e| e.value.clone())?;
        self.stats.disk_hits += 1;
        Some(value)
    }

    fn insert(&mut self, key: CacheKey, value: Arc<CachedExtraction>) {
        let created = epoch_secs();
        let line = encode_put(&key, &value, created);
        let bytes = line.len() as u64 + 1;
        match self.wal.append(line) {
            Ok(()) => self.stats.persisted += 1,
            Err(_) => self.stats.write_errors += 1,
        }
        let replaced = self.index.insert(
            key,
            DiskEntry {
                value,
                created,
                bytes,
            },
        );
        self.live_bytes += bytes;
        if let Some(old) = replaced {
            self.live_bytes -= old.bytes;
        }
        if self.wal.len() > self.budget / 2 || self.live_bytes > self.budget {
            self.compact();
        }
    }

    fn invalidate(&mut self, key: &CacheKey) -> bool {
        let Some(removed) = self.index.remove(key) else {
            return false;
        };
        self.live_bytes -= removed.bytes;
        if self.wal.append(encode_del(key)).is_err() {
            self.stats.write_errors += 1;
        }
        true
    }

    fn compact(&mut self) {
        // TTL sweep, then — over budget — oldest-first eviction down to
        // the low-water mark.
        self.sweep_expired();
        if self.live_bytes > self.budget {
            let target = low_water(self.budget);
            let mut by_age: Vec<(u64, &CacheKey)> =
                self.index.iter().map(|(k, e)| (e.created, k)).collect();
            by_age.sort_unstable();
            let mut live = self.live_bytes;
            let mut victims = Vec::new();
            // Keep at least one entry, however large.
            for (_, key) in &by_age[..by_age.len() - 1] {
                if live <= target {
                    break;
                }
                live -= self.index[*key].bytes;
                victims.push((*key).clone());
            }
            for victim in victims {
                if let Some(dropped) = self.index.remove(&victim) {
                    self.live_bytes -= dropped.bytes;
                    self.stats.disk_evictions += 1;
                }
            }
        }
        // Deterministic snapshot: entries sorted by key. Once it is in
        // place it carries everything, and the WAL starts over.
        let mut entries: Vec<(&CacheKey, &DiskEntry)> = self.index.iter().collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        let records = entries
            .into_iter()
            .map(|(key, entry)| encode_put(key, &entry.value, entry.created));
        let result = linelog::rewrite(&self.dir.join("snapshot.log"), "snapshot", records)
            .and_then(|_| self.wal.rewrite(std::iter::empty()));
        match result {
            Ok(()) => self.stats.compactions += 1,
            Err(_) => self.stats.write_errors += 1,
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            disk_len: self.index.len(),
            disk_bytes: self.live_bytes,
            ..self.stats
        }
    }
}

/// The tiered result store: the sharded in-memory LRU as hot tier,
/// optionally backed by the append-only disk tier described in the
/// module docs. All methods take `&self`; the disk tier serializes
/// behind one mutex (it is off the hot path — the hot tier answers
/// steady-state traffic, the disk tier absorbs inserts and warm-restart
/// promotion).
pub struct TieredStore {
    hot: ResultCache,
    disk: Option<Mutex<DiskTier>>,
}

impl TieredStore {
    /// A memory-only store (exactly the pre-persistence behavior).
    pub fn memory(capacity: usize) -> TieredStore {
        TieredStore {
            hot: ResultCache::new(capacity),
            disk: None,
        }
    }

    /// Open a durable store: a hot tier of `capacity` entries over the
    /// disk tier at `config.dir`, recovering whatever the directory
    /// holds (see the module docs for the recovery rules).
    pub fn open(capacity: usize, config: &StoreConfig) -> io::Result<TieredStore> {
        Ok(TieredStore {
            hot: ResultCache::new(capacity),
            disk: Some(Mutex::new(DiskTier::open(config)?)),
        })
    }

    /// Look up `key` without touching the hit/miss counters: hot tier
    /// first, then the disk tier, promoting a disk hit into the hot tier
    /// (pairs with [`record_hit`](TieredStore::record_hit) /
    /// [`record_miss`](TieredStore::record_miss)). `GET /provenance/{key}`
    /// reads the stored entry — result, XML and [`Provenance`] — through
    /// it.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CachedExtraction>> {
        self.peek_entry(key).map(|(value, _)| value)
    }

    /// [`peek`](TieredStore::peek), also handing out the hot-tier entry's
    /// [`ResponseMemo`] — empty after a promotion, since the disk tier
    /// never stores one.
    pub(crate) fn peek_entry(
        &self,
        key: &CacheKey,
    ) -> Option<(Arc<CachedExtraction>, ResponseMemo)> {
        if let Some(hit) = self.peek_hot(key) {
            return Some(hit);
        }
        let disk = self.disk.as_ref()?;
        let value = disk.lock().expect("store poisoned").get(key)?;
        let memo = self.hot.insert(key.clone(), value.clone());
        Some((value, memo))
    }

    /// Look up `key` in the hot tier only, without touching the hit/miss
    /// counters. The disk tier is never consulted, so the call costs one
    /// hot-tier segment lock and never waits on the disk tier's mutex or
    /// its I/O — safe on a thread that must not block, such as an HTTP
    /// event loop. The entry's [`ResponseMemo`] comes along with its
    /// value.
    pub fn peek_hot(&self, key: &CacheKey) -> Option<(Arc<CachedExtraction>, ResponseMemo)> {
        self.hot.peek(key)
    }

    /// Count one hit (pairs with [`peek`](TieredStore::peek)).
    pub fn record_hit(&self) {
        self.hot.record_hit();
    }

    /// Count one miss (pairs with [`peek`](TieredStore::peek)).
    pub fn record_miss(&self) {
        self.hot.record_miss();
    }

    /// Insert into the hot tier and append to the WAL.
    pub fn insert(&self, key: CacheKey, value: Arc<CachedExtraction>) {
        self.hot.insert(key.clone(), value.clone());
        if let Some(disk) = &self.disk {
            disk.lock().expect("store poisoned").insert(key, value);
        }
    }

    /// Drop `key` from both tiers (a tombstone is appended so the
    /// invalidation survives restart); true if either tier held it. The
    /// server calls it for one reason only: an entry whose crawl manifest
    /// no longer revalidates. Entries of changed entry pages are left to
    /// the LRU, the byte budget and the TTL.
    pub fn invalidate(&self, key: &CacheKey) -> bool {
        let hot = self.hot.invalidate(key);
        let disk = match &self.disk {
            Some(disk) => disk.lock().expect("store poisoned").invalidate(key),
            None => false,
        };
        hot || disk
    }

    /// Rewrite the snapshot and truncate the WAL now (compaction also
    /// triggers automatically; see the module docs). No-op for a
    /// memory-only store.
    pub fn compact(&self) {
        if let Some(disk) = &self.disk {
            disk.lock().expect("store poisoned").compact();
        }
    }

    /// Hot-tier counters (hits, misses, evictions, invalidations, len).
    pub fn cache_stats(&self) -> CacheStats {
        self.hot.stats()
    }

    /// Disk-tier counters; all zero when memory-only.
    pub fn store_stats(&self) -> StoreStats {
        match &self.disk {
            Some(disk) => disk.lock().expect("store poisoned").stats(),
            None => StoreStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn entry(wrapper: &str, xml: &str, texts: &[&str]) -> Arc<CachedExtraction> {
        let instances: Vec<InstanceProvenance> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| InstanceProvenance {
                pattern: "item".to_string(),
                parent: if i == 0 { None } else { Some(0) },
                rule: Some(i as u32),
                text: t.to_string(),
            })
            .collect();
        let base = InstanceBase {
            instances: instances
                .iter()
                .map(|p| Instance {
                    pattern: p.pattern.as_str().into(),
                    parent: p.parent,
                    target: Target::Text(p.text.clone()),
                })
                .collect(),
        };
        let rule_trace = instances.iter().filter_map(|p| p.rule).collect();
        Arc::new(CachedExtraction {
            result: ExtractionResult::from_parts(base, Vec::new(), Vec::new(), rule_trace),
            xml: xml.to_string(),
            crawl: vec![CrawlRecord {
                url: "http://sub/page".to_string(),
                content: Some(42),
            }],
            crawl_live: false,
            provenance: Provenance {
                wrapper: wrapper.to_string(),
                version: 1,
                plan: 7,
                source_url: "http://entry/".to_string(),
                source_hash: 99,
                instances,
            },
        })
    }

    fn key(wrapper: &str, content: u64) -> CacheKey {
        CacheKey {
            wrapper: wrapper.to_string(),
            plan: 7,
            content,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lixto-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn provenance_key_round_trips_awkward_names() {
        for name in ["shop", "weird name/v=1", "a@b", "ünïcode"] {
            let k = CacheKey {
                wrapper: name.to_string(),
                plan: 0xdead_beef,
                content: 42,
            };
            let s = provenance_key(&k);
            assert!(
                s.bytes().all(|b| b.is_ascii_alphanumeric()
                    || b == b'_'
                    || b == b'-'
                    || b == b'%'
                    || b == b'@'),
                "unsafe byte in {s:?}"
            );
            assert_eq!(parse_provenance_key(&s), Some(k));
        }
        assert_eq!(parse_provenance_key("no-separators"), None);
        assert_eq!(parse_provenance_key("w@123@xyz"), None);
    }

    #[test]
    fn put_record_round_trips() {
        let value = entry("shop", "<a>1 &amp; 2</a>\n<b/>", &["alpha\tbeta", "γ"]);
        let k = key("shop", 5);
        let line = encode_put(&k, &value, 1234);
        assert!(!line.contains('\n'), "records are single lines");
        match decode_line(&line) {
            Some(Record::Put(dk, created, dv)) => {
                assert_eq!(dk, k);
                assert_eq!(created, 1234);
                assert_eq!(*dv, *value);
                assert_eq!(dv.result.rule_trace, value.result.rule_trace);
                assert_eq!(dv.result.patterns(), value.result.patterns());
            }
            _ => panic!("round trip failed"),
        }
    }

    #[test]
    fn corrupt_lines_are_skipped_and_counted() {
        let dir = temp_dir("corrupt");
        {
            let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
            store.insert(key("shop", 1), entry("shop", "<a/>", &["x"]));
            store.insert(key("shop", 2), entry("shop", "<b/>", &["y"]));
        }
        // Corruption in the middle and a torn tail.
        let wal = dir.join("wal.log");
        let mut contents = fs::read_to_string(&wal).unwrap();
        contents.push_str("garbage line that decodes to nothing\n");
        contents.push_str("put\tshop\t0000000000000007\ttorn-");
        fs::write(&wal, contents).unwrap();
        let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
        assert!(store.peek(&key("shop", 1)).is_some());
        assert!(store.peek(&key("shop", 2)).is_some());
        let stats = store.store_stats();
        assert_eq!(stats.recovered, 2);
        assert_eq!(stats.corrupt_records, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstones_survive_restart() {
        let dir = temp_dir("tombstone");
        {
            let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
            store.insert(key("shop", 1), entry("shop", "<a/>", &["x"]));
            store.insert(key("shop", 2), entry("shop", "<b/>", &["y"]));
            assert!(store.invalidate(&key("shop", 1)));
        }
        let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
        assert!(store.peek(&key("shop", 1)).is_none());
        assert!(store.peek(&key("shop", 2)).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ttl_expires_entries_on_recovery() {
        let dir = temp_dir("ttl");
        {
            let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
            store.insert(key("shop", 1), entry("shop", "<a/>", &["x"]));
        }
        let mut expired = StoreConfig::new(&dir);
        expired.ttl = Some(Duration::ZERO);
        let store = TieredStore::open(4, &expired).unwrap();
        assert!(store.peek(&key("shop", 1)).is_none());
        assert_eq!(store.store_stats().expired, 1);
        // A generous TTL keeps it.
        let mut keep = StoreConfig::new(&dir);
        keep.ttl = Some(Duration::from_secs(3600));
        let store = TieredStore::open(4, &keep).unwrap();
        assert!(store.peek(&key("shop", 1)).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_compaction_evicts_oldest_and_truncates_wal() {
        let dir = temp_dir("budget");
        let mut config = StoreConfig::new(&dir);
        config.budget_bytes = 2048;
        let store = TieredStore::open(64, &config).unwrap();
        let big = "x".repeat(300);
        for i in 0..16 {
            store.insert(key("shop", i), entry("shop", &big, &["t"]));
        }
        let stats = store.store_stats();
        assert!(stats.compactions >= 1, "WAL growth must trigger compaction");
        assert!(stats.disk_bytes <= 2048, "live bytes over budget");
        assert!(stats.disk_evictions >= 1);
        // The survivors are still served after a restart.
        drop(store);
        let store = TieredStore::open(64, &config).unwrap();
        assert!(store.store_stats().recovered >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_store_compacts_once_per_low_water_gap_not_per_insert() {
        let dir = temp_dir("low-water");
        let mut config = StoreConfig::new(&dir);
        config.budget_bytes = 32 * 1024;
        let store = TieredStore::open(8, &config).unwrap();
        let value = entry("shop", &"x".repeat(300), &["t"]);
        let record_bytes = encode_put(&key("shop", 0), &value, epoch_secs()).len() as u64 + 1;
        let inserts = 400;
        for i in 0..inserts {
            store.insert(key("shop", i), value.clone());
        }
        let stats = store.store_stats();
        let inserted = record_bytes * inserts;
        assert!(
            inserted > 4 * config.budget_bytes,
            "the store must overflow"
        );
        assert_eq!(stats.persisted, inserts);
        assert!(
            stats.disk_bytes <= config.budget_bytes,
            "live bytes over budget"
        );
        assert!(stats.disk_evictions > 0);
        // Every over-budget compaction frees budget − low-water bytes, so
        // that many bytes must be inserted before the next one.
        let gap = config.budget_bytes - low_water(config.budget_bytes);
        assert!(stats.compactions >= 1);
        assert!(
            stats.compactions <= inserted / gap,
            "{} compactions for {inserted} inserted bytes",
            stats.compactions
        );
        assert_ne!(stats.compactions, stats.persisted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peek_hot_never_reads_the_disk_tier() {
        let dir = temp_dir("peek-hot");
        {
            let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
            store.insert(key("shop", 1), entry("shop", "<a/>", &["x"]));
            assert!(store.peek_hot(&key("shop", 1)).is_some());
        }
        let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
        assert!(store.peek_hot(&key("shop", 1)).is_none());
        assert_eq!(store.store_stats().disk_hits, 0);
        // The full peek promotes it; from then on the hot tier answers.
        assert!(store.peek(&key("shop", 1)).is_some());
        assert!(store.peek_hot(&key("shop", 1)).is_some());
        let cache = store.cache_stats();
        assert_eq!((cache.hits, cache.misses), (0, 0), "peeks count nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memos_are_never_persisted_and_start_empty_on_promotion() {
        let dir = temp_dir("memo");
        {
            let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
            store.insert(key("shop", 1), entry("shop", "<a/>", &["one"]));
            let (_, memo) = store.peek_hot(&key("shop", 1)).unwrap();
            memo.get_or_init(|| "MEMOISED-TAIL".into());
            store.compact();
            store.insert(key("shop", 2), entry("shop", "<b/>", &["two"]));
        }
        for file in ["snapshot.log", "wal.log"] {
            let text = fs::read_to_string(dir.join(file)).unwrap();
            assert!(!text.contains("MEMOISED-TAIL"), "{file} holds a memo");
        }
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        assert!(store.peek_hot(&key("shop", 1)).is_none());
        let (_, promoted) = store.peek_entry(&key("shop", 1)).expect("disk hit");
        assert_eq!(promoted.get(), None);
        // The promoted entry's memo is the one later hot hits share.
        promoted.get_or_init(|| "tail".into());
        let (_, hot) = store.peek_hot(&key("shop", 1)).unwrap();
        assert_eq!(hot.get(), Some("tail"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hits_promote_into_the_hot_tier() {
        let dir = temp_dir("promote");
        {
            let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
            store.insert(key("shop", 1), entry("shop", "<a/>", &["x"]));
        }
        let store = TieredStore::open(4, &StoreConfig::new(&dir)).unwrap();
        assert!(store.peek(&key("shop", 1)).is_some());
        assert_eq!(store.store_stats().disk_hits, 1);
        // Second peek is answered by the hot tier.
        assert!(store.peek(&key("shop", 1)).is_some());
        assert_eq!(store.store_stats().disk_hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_layout_places_both_substrates() {
        let layout = durability_layout("/data/lixto");
        assert_eq!(layout.wrappers, Path::new("/data/lixto/wrappers"));
        assert_eq!(layout.store, Path::new("/data/lixto/store"));
        assert_eq!(layout.watches, Path::new("/data/lixto/watches"));
        assert_eq!(layout.root, Path::new("/data/lixto"));
    }
}
