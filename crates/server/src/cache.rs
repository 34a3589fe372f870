//! Content-addressed result cache, sharded across mutex'd segments: the
//! hot tier of the [`TieredStore`](crate::TieredStore), which is its one
//! user.
//!
//! A wrapper is a pure function of (program version, fetched pages) —
//! the Extractor is deterministic — so results are cached under the
//! FxHash of the source document's bytes combined with the wrapper name
//! and version. Identical pages served to different users (the common
//! case for a portal polling slowly-changing sites) cost one extraction.
//!
//! The map is split into N independently locked segments selected by the
//! key's fxhash, so concurrent workers (and the HTTP gateway's event
//! loops, which answer hot-tier hits) do not serialize on one big mutex.
//! Aggregate hit/miss/eviction/invalidation counters are kept in shared
//! atomics and stay exact regardless of which segment served an
//! operation.
//!
//! Every cached value also carries a *crawl manifest*: the URL and body
//! hash of each page the extraction fetched beyond the entry document.
//! The server revalidates that manifest before serving a hit, closing the
//! stale-subpage window where a wrapper that crawls past its entry page
//! would keep serving results computed from since-changed subpages.
//!
//! Eviction is LRU over a fixed per-segment capacity, implemented as a
//! recency counter per entry (O(1) touch, O(n) eviction scan — eviction
//! is the rare path and capacities are small).
//!
//! Each entry also owns a [`ResponseMemo`]: an initially empty slot a
//! frontend fills, on the first response it serves from the entry, with
//! the part of its encoding that depends on the entry alone. The slot
//! lives and dies with its entry — eviction, invalidation or a
//! re-insert of the key starts over empty — and is never persisted.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lixto_elog::eval::ExtractionResult;

/// FxHash of a byte string (see [`lixto_elog::fxhash`]): it addresses
/// source documents and selects shards. Not cryptographic — collisions
/// only cost a stale cache entry in an in-memory service, never
/// corruption across wrappers, because the full key compares name and
/// version too.
pub use lixto_elog::fxhash::fxhash64;

/// The content address of a source document: its bytes *and* the URL it
/// is served at, combined. The URL matters because a wrapper's
/// `document(...)` entry atom matches on it — the same bytes at a
/// different URL can extract to something entirely different (usually
/// nothing), so they must not share a cache entry.
pub fn content_address(url: &str, html: &str) -> u64 {
    fxhash64(html.as_bytes()).rotate_left(17) ^ fxhash64(url.as_bytes())
}

/// Cache key: wrapper identity plus the content address of the source
/// document.
///
/// Wrapper identity is the *plan* fingerprint
/// ([`RegisteredWrapper::plan_id`](crate::RegisteredWrapper::plan_id)),
/// not the registry version number: two versions that compile to the
/// same plan over the same design (an operator redeploying unchanged
/// source) share cache entries, while any semantic change — program,
/// design or limits — keys separately. Keys order by wrapper, then plan,
/// then content address.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Wrapper name.
    pub wrapper: String,
    /// Fingerprint of the compiled plan + output design + limits.
    pub plan: u64,
    /// [`content_address`] of the entry document (URL + bytes).
    pub content: u64,
}

/// One page an extraction fetched beyond its entry document (a crawl
/// target followed via `document(U)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlRecord {
    /// The fetched URL.
    pub url: String,
    /// `fxhash64` of the fetched body, or `None` when the fetch failed
    /// (a 404 at extraction time is part of the result's identity too).
    pub content: Option<u64>,
}

/// A cached extraction: the result, its serialized XML rendering (cached
/// too, so hits skip re-serialization), the crawl manifest used to
/// revalidate the entry before serving it again, and the provenance
/// record the tiered store persists beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedExtraction {
    /// The extraction result.
    pub result: ExtractionResult,
    /// `lixto_xml::to_string` of the designed output document.
    pub xml: String,
    /// Pages fetched beyond the entry document, with their body hashes.
    /// Empty for single-page wrappers — the common case, which therefore
    /// pays no revalidation cost.
    pub crawl: Vec<CrawlRecord>,
    /// Whether `crawl` was recorded with live-web access (a `Web`
    /// request) or self-contained (`Inline`). A non-empty manifest only
    /// revalidates against the same capability — comparing a live hash
    /// with an offline fetch failure would spuriously invalidate.
    pub crawl_live: bool,
    /// Derivation record: which wrapper version and rules produced each
    /// instance, from which page (see
    /// [`Provenance`](crate::store::Provenance)).
    pub provenance: crate::store::Provenance,
}

/// A hot-tier entry's lazily filled encoding memo.
///
/// Opaque to the cache: a frontend stores whatever it derives from the
/// entry's [`CachedExtraction`] alone (the HTTP gateway keeps the
/// entry-invariant tail of its `/extract` body here), so every later
/// response served from the same entry copies it instead of encoding it
/// again. Clones share one slot; the first
/// [`get_or_init`](ResponseMemo::get_or_init) fills it, concurrent
/// callers wait for that fill rather than racing it.
#[derive(Debug, Clone, Default)]
pub struct ResponseMemo(Arc<OnceLock<Box<str>>>);

impl ResponseMemo {
    /// The memoised text, `None` until the slot is filled.
    pub fn get(&self) -> Option<&str> {
        self.0.get().map(|text| &**text)
    }

    /// The memoised text, computing and storing it with `fill` first if
    /// the slot is still empty.
    pub fn get_or_init(&self, fill: impl FnOnce() -> String) -> &str {
        self.0.get_or_init(|| fill().into_boxed_str())
    }
}

struct Entry {
    value: Arc<CachedExtraction>,
    memo: ResponseMemo,
    last_used: u64,
}

/// Counter snapshot of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh extraction.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because their crawl manifest failed to
    /// revalidate: a page the extraction crawled beyond its entry page
    /// changed. A changed entry page is not counted: its new bytes have a
    /// new content address, and the old entry ages out.
    pub invalidations: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held (summed over segments).
    pub capacity: usize,
}

impl CacheStats {
    /// hits / (hits + misses), 0 when unused.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Most segments a [`ResultCache`] is split into.
const MAX_SEGMENTS: usize = 8;

/// Smallest per-segment capacity [`ResultCache::new`] will accept when
/// choosing its segment count: splitting a small cache into one-entry
/// segments would replace the LRU policy with hash-collision thrashing.
const MIN_SEGMENT_CAPACITY: usize = 8;

/// Bounded, thread-safe, content-addressed LRU cache of extraction
/// results, sharded over independently locked segments.
pub(crate) struct ResultCache {
    segments: Vec<Mutex<Segment>>,
    segment_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

struct Segment {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

impl ResultCache {
    /// A cache holding at most ~`capacity` entries (min 1), split into
    /// up to `MAX_SEGMENTS` segments — fewer for small capacities, so
    /// each segment keeps at least `MIN_SEGMENT_CAPACITY` entries of real
    /// LRU behavior (a capacity below 16 is one global-LRU segment). The
    /// per-segment capacity is `ceil(capacity / segments)`, so the total
    /// may round up slightly; `stats().capacity` reports it.
    pub(crate) fn new(capacity: usize) -> ResultCache {
        let capacity = capacity.max(1);
        let segments = (capacity / MIN_SEGMENT_CAPACITY).clamp(1, MAX_SEGMENTS);
        let segment_capacity = capacity.div_ceil(segments);
        ResultCache {
            segments: (0..segments)
                .map(|_| {
                    Mutex::new(Segment {
                        map: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            segment_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn segment(&self, key: &CacheKey) -> &Mutex<Segment> {
        // Finalizer mix (murmur3 style) so the modulo sees every bit of
        // the combined key hash, not just its low bits.
        let mut h = fxhash64(key.wrapper.as_bytes()) ^ key.content ^ key.plan.rotate_left(11);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        &self.segments[(h % self.segments.len() as u64) as usize]
    }

    /// Look up `key`, counting a hit or miss and refreshing recency.
    #[cfg(test)]
    fn get(&self, key: &CacheKey) -> Option<Arc<CachedExtraction>> {
        match self.peek(key) {
            Some((value, _)) => {
                self.record_hit();
                Some(value)
            }
            None => {
                self.record_miss();
                None
            }
        }
    }

    /// Look up `key` and refresh recency *without* touching the hit/miss
    /// counters. The server uses this to revalidate a candidate's crawl
    /// manifest first and then record the lookup as a hit or a miss
    /// depending on the verdict, keeping the aggregate counters exact.
    /// The entry's [`ResponseMemo`] comes along with its value.
    pub(crate) fn peek(&self, key: &CacheKey) -> Option<(Arc<CachedExtraction>, ResponseMemo)> {
        let mut seg = self.segment(key).lock().expect("cache poisoned");
        seg.clock += 1;
        let clock = seg.clock;
        seg.map.get_mut(key).map(|entry| {
            entry.last_used = clock;
            (entry.value.clone(), entry.memo.clone())
        })
    }

    /// Count one cache hit (pairs with [`ResultCache::peek`]).
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one cache miss (pairs with [`ResultCache::peek`]).
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert `value` under `key`, evicting the segment's least-recently-
    /// used entry when the segment is at capacity. Returns the new
    /// entry's empty [`ResponseMemo`]; a key that was already present
    /// gets a fresh one too, since the old memo belonged to the old
    /// value.
    pub(crate) fn insert(&self, key: CacheKey, value: Arc<CachedExtraction>) -> ResponseMemo {
        let capacity = self.segment_capacity;
        let mut seg = self.segment(&key).lock().expect("cache poisoned");
        seg.clock += 1;
        let clock = seg.clock;
        if !seg.map.contains_key(&key) && seg.map.len() >= capacity {
            if let Some(lru) = seg
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                seg.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let memo = ResponseMemo::default();
        seg.map.insert(
            key,
            Entry {
                value,
                memo: memo.clone(),
                last_used: clock,
            },
        );
        memo
    }

    /// Drop `key` because its crawl manifest no longer revalidates; true
    /// if present.
    pub(crate) fn invalidate(&self, key: &CacheKey) -> bool {
        let mut seg = self.segment(key).lock().expect("cache poisoned");
        let removed = seg.map.remove(key).is_some();
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let len = self
            .segments
            .iter()
            .map(|s| s.lock().expect("cache poisoned").map.len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            len,
            capacity: self.segment_capacity * self.segments.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lixto_elog::fxhash::FxHasher64;
    use std::fmt;
    use std::hash::Hasher;

    fn dummy(xml: &str) -> Arc<CachedExtraction> {
        Arc::new(CachedExtraction {
            result: ExtractionResult::empty(),
            xml: xml.to_string(),
            crawl: Vec::new(),
            crawl_live: false,
            provenance: crate::store::Provenance::default(),
        })
    }

    fn key(wrapper: &str, content: u64) -> CacheKey {
        CacheKey {
            wrapper: wrapper.to_string(),
            plan: 1,
            content,
        }
    }

    #[test]
    fn fxhash_is_deterministic_and_disperses() {
        assert_eq!(fxhash64(b"hello world"), fxhash64(b"hello world"));
        assert_ne!(fxhash64(b"hello world"), fxhash64(b"hello worle"));
        assert_ne!(fxhash64(b""), fxhash64(b"\0"));
        // Same prefix, different length.
        assert_ne!(fxhash64(b"aaaaaaaa"), fxhash64(b"aaaaaaaaa"));
    }

    #[test]
    fn fxhash64_has_its_fixed_values() {
        // Store keys and plan ids are fxhash64 values on disk: the
        // function may never change.
        assert_eq!(fxhash64(b""), 0);
        assert_eq!(fxhash64(b"hello world"), 0x06e6_0965_4599_a6ce);
        assert_eq!(fxhash64(b"0123456789abcdef"), 0xe503_440a_ce62_ccf2);
    }

    #[test]
    fn streaming_hash_equals_fxhash64_however_the_bytes_are_split() {
        let text: Vec<u8> = (0..67u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..text.len() {
            let bytes = &text[..len];
            let whole = fxhash64(bytes);
            for cut_a in 0..=len {
                for cut_b in cut_a..=len {
                    let mut h = FxHasher64::default();
                    h.write(&bytes[..cut_a]);
                    h.write(&bytes[cut_a..cut_b]);
                    h.write(&[]);
                    h.write(&bytes[cut_b..]);
                    assert_eq!(h.finish(), whole, "len {len}, cuts {cut_a} {cut_b}");
                }
            }
            let mut bytewise = FxHasher64::default();
            for b in bytes {
                bytewise.write(std::slice::from_ref(b));
            }
            assert_eq!(bytewise.finish(), whole, "len {len}, one byte at a time");
        }
        let mut h = FxHasher64::default();
        fmt::Write::write_fmt(&mut h, format_args!("{}-{}", "plan", 42)).unwrap();
        assert_eq!(h.finish(), fxhash64(b"plan-42"));
    }

    #[test]
    fn content_address_separates_url_and_body() {
        let html = "<p>same bytes</p>";
        assert_eq!(
            content_address("http://a/", html),
            content_address("http://a/", html)
        );
        // Same bytes at a different URL are a different document.
        assert_ne!(
            content_address("http://a/", html),
            content_address("http://b/", html)
        );
        assert_ne!(
            content_address("http://a/", html),
            content_address("http://a/", "<p>other</p>")
        );
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ResultCache::new(8);
        let k = key("w", 1);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), dummy("<a/>"));
        assert_eq!(cache.get(&k).unwrap().xml, "<a/>");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One segment so the LRU order is global and deterministic.
        let cache = ResultCache::new(2);
        cache.insert(key("w", 1), dummy("1"));
        cache.insert(key("w", 2), dummy("2"));
        // Touch 1 so 2 becomes the LRU victim.
        cache.get(&key("w", 1));
        cache.insert(key("w", 3), dummy("3"));
        assert!(cache.get(&key("w", 1)).is_some());
        assert!(cache.get(&key("w", 2)).is_none());
        assert!(cache.get(&key("w", 3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidation_counts() {
        let cache = ResultCache::new(4);
        cache.insert(key("w", 1), dummy("1"));
        assert!(cache.invalidate(&key("w", 1)));
        assert!(!cache.invalidate(&key("w", 1)));
        let s = cache.stats();
        assert_eq!((s.invalidations, s.len), (1, 0));
    }

    #[test]
    fn plan_identities_do_not_collide() {
        let cache = ResultCache::new(4);
        let mut k1 = key("w", 9);
        cache.insert(k1.clone(), dummy("v1"));
        k1.plan = 2;
        assert!(cache.get(&k1).is_none(), "a changed plan must miss");
    }

    #[test]
    fn segment_counts_clamp_to_capacity() {
        let tiny = ResultCache::new(3);
        assert_eq!(tiny.stats().capacity, 3);
        let cache = ResultCache::new(256);
        assert_eq!(cache.stats().capacity, 256);
        // Entries spread across segments; total len is the sum.
        for i in 0..64 {
            cache.insert(key("w", i), dummy("x"));
        }
        assert_eq!(cache.stats().len, 64);
    }

    #[test]
    fn small_caches_keep_global_lru_behavior() {
        // A capacity-8 cache must behave as one LRU, not as 8 one-entry
        // segments where two hot keys can thrash a shared slot.
        let cache = ResultCache::new(8);
        for i in 0..8 {
            cache.insert(key("w", i), dummy("x"));
        }
        for _ in 0..4 {
            for i in 0..8 {
                assert!(cache.get(&key("w", i)).is_some(), "key {i} evicted early");
            }
        }
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn sharded_counters_stay_exact_under_concurrency() {
        const THREADS: usize = 8;
        const OPS: u64 = 500;
        // Capacity comfortably above the 4000 distinct keys, so no
        // evictions interfere with the hit/miss accounting.
        let cache = ResultCache::new(8192);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..OPS {
                        let k = key("w", t * OPS + i);
                        // First lookup misses, insert, second lookup hits.
                        assert!(cache.get(&k).is_none());
                        cache.insert(k.clone(), dummy("x"));
                        assert!(cache.get(&k).is_some());
                    }
                });
            }
        });
        let s = cache.stats();
        let total = THREADS as u64 * OPS;
        assert_eq!(s.hits, total, "every second lookup hits");
        assert_eq!(s.misses, total, "every first lookup misses");
        assert_eq!(s.hits + s.misses, 2 * total, "no lookup lost");
    }

    #[test]
    fn memo_is_shared_by_hits_and_dies_with_its_entry() {
        let fill = |memo: &ResponseMemo, text: &str| {
            assert_eq!(memo.get_or_init(|| text.to_string()), text);
        };
        let memo_of = |cache: &ResultCache, k: &CacheKey| cache.peek(k).unwrap().1;
        // One segment of two entries, so eviction is predictable.
        let cache = ResultCache::new(2);
        let k = key("w", 1);
        let inserted = cache.insert(k.clone(), dummy("x"));
        assert_eq!(inserted.get(), None);
        fill(&memo_of(&cache, &k), "tail");
        assert_eq!(inserted.get(), Some("tail"), "every hit shares one slot");
        // A second fill never overwrites the first.
        assert_eq!(memo_of(&cache, &k).get_or_init(|| "other".into()), "tail");

        // Re-inserting the key starts over empty.
        cache.insert(k.clone(), dummy("x"));
        assert_eq!(memo_of(&cache, &k).get(), None);
        // So does invalidation followed by re-insert.
        fill(&memo_of(&cache, &k), "tail");
        assert!(cache.invalidate(&k));
        cache.insert(k.clone(), dummy("x"));
        assert_eq!(memo_of(&cache, &k).get(), None);
        // And eviction followed by re-insert.
        fill(&memo_of(&cache, &k), "tail");
        cache.insert(key("w", 2), dummy("y"));
        cache.insert(key("w", 3), dummy("z"));
        assert!(cache.peek(&k).is_none(), "evicted");
        cache.insert(k.clone(), dummy("x"));
        assert_eq!(memo_of(&cache, &k).get(), None);
    }

    #[test]
    fn peek_does_not_count_but_record_does() {
        let cache = ResultCache::new(4);
        let k = key("w", 5);
        assert!(cache.peek(&k).is_none());
        cache.insert(k.clone(), dummy("x"));
        assert!(cache.peek(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        cache.record_hit();
        cache.record_miss();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
