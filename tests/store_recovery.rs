//! Crash-recovery tests for the durable result store: a process can die
//! at any byte of a WAL append and the next open must recover exactly
//! the cleanly-written prefix of history — never refuse to start, never
//! resurrect an invalidated entry, and compact the recovered state to a
//! byte-identical snapshot of the pre-crash contents.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use lixto_elog::eval::ExtractionResult;
use lixto_elog::instances::{Instance, InstanceBase, Target};
use lixto_server::XmlDesign;
use lixto_server::{
    durability_layout, CacheKey, CachedExtraction, CrawlRecord, InstanceProvenance, Provenance,
    StoreConfig, TieredStore, WatchRegistry, WatchSpec, WrapperRegistry,
};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lixto-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn key(wrapper: &str, content: u64) -> CacheKey {
    CacheKey {
        wrapper: wrapper.to_string(),
        plan: 0xC0FFEE,
        content,
    }
}

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
            url: format!("http://{wrapper}/sub"),
            content: Some(7),
        }],
        crawl_live: false,
        provenance: Provenance {
            wrapper: wrapper.to_string(),
            version: 2,
            plan: 0xC0FFEE,
            source_url: format!("http://{wrapper}/"),
            source_hash: 0xFEED,
            instances,
        },
    })
}

/// A crash can land mid-append: the WAL ends in a torn record. Recovery
/// must keep every complete record and count the torn tail as corrupt.
#[test]
fn kill_mid_append_keeps_the_clean_prefix() {
    let dir = temp_root("torn");
    {
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        store.insert(key("shop", 1), entry("shop", "<a/>", &["one"]));
        store.insert(key("shop", 2), entry("shop", "<b/>", &["two"]));
        store.insert(key("shop", 3), entry("shop", "<c/>", &["three"]));
    }
    let wal = dir.join("wal.log");
    let full = fs::read(&wal).unwrap();
    // Chop the last record at an arbitrary interior byte, as if the
    // process died while write(2) was in flight.
    let last_line_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    let cut = last_line_start + (full.len() - last_line_start) / 2;
    fs::write(&wal, &full[..cut]).unwrap();

    let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
    assert!(store.peek(&key("shop", 1)).is_some());
    assert!(store.peek(&key("shop", 2)).is_some());
    assert!(
        store.peek(&key("shop", 3)).is_none(),
        "the torn record must not half-recover"
    );
    let stats = store.store_stats();
    assert_eq!(stats.recovered, 2);
    assert_eq!(stats.corrupt_records, 1);
    fs::remove_dir_all(&dir).unwrap();
}

/// A torn tail is cut off before the WAL is appended to again: the next
/// record starts on a line of its own and survives the restart after.
#[test]
fn append_after_a_torn_tail_survives_the_next_restart() {
    let dir = temp_root("torn-append");
    {
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        store.insert(key("shop", 1), entry("shop", "<a/>", &["one"]));
        store.insert(key("shop", 2), entry("shop", "<b/>", &["two"]));
    }
    let wal = dir.join("wal.log");
    let full = fs::read(&wal).unwrap();
    let last_line_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    fs::write(
        &wal,
        &full[..last_line_start + (full.len() - last_line_start) / 2],
    )
    .unwrap();
    {
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        assert_eq!(store.store_stats().corrupt_records, 1);
        store.insert(key("shop", 3), entry("shop", "<c/>", &["three"]));
    }
    let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
    assert!(store.peek(&key("shop", 1)).is_some());
    assert!(
        store.peek(&key("shop", 2)).is_none(),
        "the torn record stays lost"
    );
    let third = store
        .peek(&key("shop", 3))
        .expect("the record appended after the cut");
    assert_eq!(third.xml, "<c/>");
    let stats = store.store_stats();
    assert_eq!((stats.recovered, stats.corrupt_records), (2, 0));
    fs::remove_dir_all(&dir).unwrap();
}

/// A cut inside a multi-byte character tears only the record it cuts:
/// the records before it still recover.
#[test]
fn a_tail_torn_inside_a_character_keeps_the_clean_prefix() {
    let dir = temp_root("torn-utf8");
    {
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        store.insert(key("shop", 1), entry("shop", "<a/>", &["one"]));
        store.insert(key("shop", 2), entry("shop", "<b/>", &["dé"]));
    }
    let wal = dir.join("wal.log");
    let full = fs::read(&wal).unwrap();
    let cut = full.iter().rposition(|&b| b == "é".as_bytes()[0]).unwrap() + 1;
    fs::write(&wal, &full[..cut]).unwrap();
    let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
    assert!(store.peek(&key("shop", 1)).is_some());
    assert!(store.peek(&key("shop", 2)).is_none());
    let stats = store.store_stats();
    assert_eq!((stats.recovered, stats.corrupt_records), (1, 1));
    fs::remove_dir_all(&dir).unwrap();
}

/// Recovery succeeds at *every* possible truncation point of the WAL —
/// the recovered set is always a clean prefix of the inserts, and the
/// store never refuses to open.
#[test]
fn every_wal_truncation_point_recovers_a_prefix() {
    let dir = temp_root("prefix");
    {
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        for i in 0..4 {
            store.insert(key("shop", i), entry("shop", "<x/>", &["t"]));
        }
    }
    let wal = dir.join("wal.log");
    let full = fs::read(&wal).unwrap();
    // Sampling every 7th byte keeps the test fast while still hitting
    // header, mid-record and record-boundary cuts.
    for cut in (0..=full.len()).step_by(7) {
        fs::write(&wal, &full[..cut]).unwrap();
        let store = TieredStore::open(8, &StoreConfig::new(&dir))
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let recovered: Vec<bool> = (0..4)
            .map(|i| store.peek(&key("shop", i)).is_some())
            .collect();
        let count = recovered.iter().filter(|&&r| r).count();
        assert_eq!(
            &recovered[..count],
            &vec![true; count][..],
            "cut {cut}: recovered set must be a prefix, got {recovered:?}"
        );
        drop(store);
        // Reopening appended a fresh header if the file was emptied;
        // restore the full WAL for the next iteration.
        fs::write(&wal, &full).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Snapshot + WAL replay reproduces the pre-crash contents exactly:
/// compacting before and after a crash yields byte-identical
/// `snapshot.log` files, including provenance and tombstone effects.
#[test]
fn recovered_store_compacts_to_byte_identical_snapshot() {
    let dir = temp_root("equiv");
    let pre_crash = {
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        store.insert(
            key("shop", 1),
            entry("shop", "<a>1</a>", &["alpha", "beta"]),
        );
        store.insert(key("news", 2), entry("news", "<n/>", &["clip\twith\ttabs"]));
        store.insert(key("shop", 3), entry("shop", "<c/>", &["gone"]));
        store.invalidate(&key("shop", 3));
        store.insert(key("flights", 4), entry("flights", "<f/>", &["LX\n22"]));
        // The pre-crash ground truth: a deterministic snapshot of the
        // live contents (sorted by key, created times persisted).
        store.compact();
        fs::read(dir.join("snapshot.log")).unwrap()
    };
    // "Crash" (drop without further writes), recover, and compact again.
    let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
    assert_eq!(store.store_stats().recovered, 3);
    assert!(store.peek(&key("shop", 3)).is_none(), "tombstone holds");
    store.compact();
    let post_recovery = fs::read(dir.join("snapshot.log")).unwrap();
    assert_eq!(
        pre_crash, post_recovery,
        "recovered store must compact to the byte-identical snapshot"
    );
    // And the provenance rides along: the recovered entry still knows
    // its wrapper version, producing rules and source hash.
    let recovered = store.peek(&key("shop", 1)).unwrap();
    assert_eq!(recovered.provenance.version, 2);
    assert_eq!(recovered.provenance.source_hash, 0xFEED);
    assert_eq!(recovered.result.producing_rule(1), Some(1));
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash between the WAL append and anything else still recovers: the
/// WAL alone (no snapshot file at all) is a complete store.
#[test]
fn wal_only_directory_recovers_without_a_snapshot() {
    let dir = temp_root("walonly");
    {
        let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
        store.insert(key("shop", 1), entry("shop", "<a/>", &["x"]));
    }
    assert!(!dir.join("snapshot.log").exists(), "no compaction ran");
    let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
    let hit = store.peek(&key("shop", 1)).expect("WAL replay");
    assert_eq!(hit.xml, "<a/>");
    fs::remove_dir_all(&dir).unwrap();
}

/// The two durable substrates share one data directory and both recover
/// past corruption in the other's files untouched: a corrupt wrapper
/// manifest does not impede store recovery and vice versa.
#[test]
fn shared_durability_directory_recovers_both_substrates() {
    let root = temp_root("shared");
    let layout = durability_layout(&root);
    const WRAPPER: &str = r#"item(S, X) :- document("http://x/", S), subelem(S, (?.li, []), X)."#;
    {
        let registry = WrapperRegistry::with_spool(&layout.wrappers).unwrap();
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("items"))
            .unwrap();
        let store = TieredStore::open(8, &StoreConfig::new(&layout.store)).unwrap();
        store.insert(key("shop", 1), entry("shop", "<a/>", &["x"]));
    }
    // Corrupt one file of each substrate.
    fs::write(layout.wrappers.join("junk@1.wrapper"), "not a manifest").unwrap();
    let wal = layout.store.join("wal.log");
    let mut contents = fs::read_to_string(&wal).unwrap();
    contents.push_str("garbage\n");
    fs::write(&wal, contents).unwrap();

    let registry = WrapperRegistry::with_spool(&layout.wrappers).unwrap();
    assert_eq!(registry.catalog(), vec![("shop".to_string(), 1)]);
    let store = TieredStore::open(8, &StoreConfig::new(&layout.store)).unwrap();
    assert!(store.peek(&key("shop", 1)).is_some());
    assert_eq!(store.store_stats().corrupt_records, 1);
    fs::remove_dir_all(&root).unwrap();
}

/// The watch spool recovers at every truncation point too: the watches
/// it reloads are a prefix of those registered, each exactly as written
/// (a cut inside a record's last field must not shorten a webhook).
#[test]
fn every_watch_spool_truncation_point_recovers_a_prefix() {
    let dir = temp_root("watch-prefix");
    let written: Vec<(String, WatchSpec)> = [
        ("w0", "http://shop/0/ä", 250, None),
        ("w1", "http://shop/1\tb", 500, Some("http://sink:9/hook")),
        (
            "w2",
            "http://shop/2",
            1000,
            Some("http://hooks.example/abcdef"),
        ),
    ]
    .into_iter()
    .map(|(id, url, ms, webhook)| {
        let spec = WatchSpec {
            wrapper: "shop".to_string(),
            url: url.to_string(),
            interval: Duration::from_millis(ms),
            webhook: webhook.map(str::to_string),
        };
        (id.to_string(), spec)
    })
    .collect();
    {
        let registry = WatchRegistry::with_spool(&dir).unwrap();
        for (id, spec) in &written {
            registry.put(id, spec.clone());
        }
    }
    let spool = dir.join("watches.log");
    let full = fs::read(&spool).unwrap();
    for cut in 0..=full.len() {
        fs::write(&spool, &full[..cut]).unwrap();
        let registry = WatchRegistry::with_spool(&dir)
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let recovered = registry.list();
        assert!(recovered.len() <= written.len());
        for (got, (id, spec)) in recovered.iter().zip(&written) {
            assert_eq!(&got.id, id, "cut {cut}: not a prefix");
            assert_eq!(
                (&got.wrapper, &got.url, got.interval_ms, &got.webhook),
                (
                    &spec.wrapper,
                    &spec.url,
                    spec.interval.as_millis() as u64,
                    &spec.webhook
                ),
                "cut {cut}: watch {id} differs from the spec written"
            );
        }
        drop(registry);
        // Opening rewrote the spool; restore it for the next cut.
        fs::write(&spool, &full).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A manifest cut mid-write (no `end` line) is skipped, so the versions
/// that reload keep their deploy order.
#[test]
fn torn_wrapper_manifest_is_skipped_and_keeps_deploy_order() {
    let dir = temp_root("torn-manifest");
    const WRAPPER: &str = r#"item(S, X) :- document("http://x/", S), subelem(S, (?.li, []), X)."#;
    {
        let registry = WrapperRegistry::with_spool(&dir).unwrap();
        for i in 0..12 {
            registry
                .register_source("shop", WRAPPER, XmlDesign::new().root(&format!("r{i}")))
                .unwrap();
        }
    }
    let last = dir.join("shop@12.wrapper");
    let text = fs::read_to_string(&last).unwrap();
    let cut = text.find("version=12").unwrap() + "version=1".len();
    fs::write(&last, &text[..cut]).unwrap();
    let registry = WrapperRegistry::with_spool(&dir).unwrap();
    assert_eq!(registry.catalog(), vec![("shop".to_string(), 11)]);
    for version in 1..=11 {
        let root = &registry
            .version("shop", version)
            .unwrap()
            .spec
            .design
            .root_label;
        assert_eq!(root, &format!("r{}", version - 1), "version {version}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A manifest cut inside a multi-byte character is skipped like any
/// other torn manifest; it does not keep the registry from opening.
#[test]
fn manifest_torn_inside_a_character_is_skipped() {
    let dir = temp_root("torn-manifest-utf8");
    const WRAPPER: &str = r#"item(S, X) :- document("http://x/", S), subelem(S, (?.li, []), X)."#;
    {
        let registry = WrapperRegistry::with_spool(&dir).unwrap();
        registry
            .register_source("shop", WRAPPER, XmlDesign::new().root("é"))
            .unwrap();
        registry
            .register_source("news", WRAPPER, XmlDesign::new().root("ok"))
            .unwrap();
    }
    let torn = dir.join("shop@1.wrapper");
    let bytes = fs::read(&torn).unwrap();
    let cut = bytes.iter().position(|&b| b == "é".as_bytes()[0]).unwrap() + 1;
    fs::write(&torn, &bytes[..cut]).unwrap();
    let registry = WrapperRegistry::with_spool(&dir).expect("a torn manifest is not fatal");
    assert_eq!(registry.catalog(), vec![("news".to_string(), 1)]);
    fs::remove_dir_all(&dir).unwrap();
}
