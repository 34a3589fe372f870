//! Format compatibility of the data directory: literal v1 files — a
//! store WAL and snapshot, a watch spool and two wrapper manifests, as
//! the serving stack has always written them — reopen to the entries
//! they hold, and rewriting them reproduces the same bytes. The
//! identities stored entries are keyed by are pinned too: the
//! serving-mix plan ids, and the printed program text plan ids hash and
//! manifests store.

use std::fs;
use std::path::PathBuf;

use lixto_core::XmlDesign;
use lixto_server::{
    durability_layout, CacheKey, StoreConfig, TieredStore, WatchRegistry, WrapperRegistry,
    WrapperSpec,
};

const WAL: &str = concat!(
    "lixto-store\tv1\twal\n",
    "put\tshop\t0000000000c0ffee\t0000000000000001\t1792382407\t1\t2\thttp://shop/\t000000000000feed\t<a>1 &amp; 2</a>\\n<b/>\t2\titem\t-\t0\talpha\\tbeta\titem\t0\t1\tγ\t2\thttp://shop/sub\t0000000000000007\thttp://gone/\t-\n",
    "put\tnews wire\t0000000000c0ffee\t0000000000000002\t1792382407\t1\t2\thttp://news wire/\t000000000000feed\t<n/>\t1\titem\t-\t0\tback\\\\slash\t2\thttp://news wire/sub\t0000000000000007\thttp://gone/\t-\n",
    "put\tshop\t0000000000c0ffee\t0000000000000003\t1792382407\t1\t2\thttp://shop/\t000000000000feed\t<c/>\t1\titem\t-\t0\tgone\t2\thttp://shop/sub\t0000000000000007\thttp://gone/\t-\n",
    "del\tshop\t0000000000c0ffee\t0000000000000003\n",
);

const SNAPSHOT: &str = concat!(
    "lixto-store\tv1\tsnapshot\n",
    "put\tnews wire\t0000000000c0ffee\t0000000000000002\t1792382407\t1\t2\thttp://news wire/\t000000000000feed\t<n/>\t1\titem\t-\t0\tback\\\\slash\t2\thttp://news wire/sub\t0000000000000007\thttp://gone/\t-\n",
    "put\tshop\t0000000000c0ffee\t0000000000000001\t1792382407\t1\t2\thttp://shop/\t000000000000feed\t<a>1 &amp; 2</a>\\n<b/>\t2\titem\t-\t0\talpha\\tbeta\titem\t0\t1\tγ\t2\thttp://shop/sub\t0000000000000007\thttp://gone/\t-\n",
);

const EMPTY_WAL: &str = "lixto-store\tv1\twal\n";

const WATCHES: &str = concat!(
    "lixto-store\tv1\twatches\n",
    "put\tnews\tshop\thttp://shop/a\\tb\t250\thttp://sink:9/hook\n",
    "put\tplain\tboard\thttp://live/board\t500\t\n",
    "put\tdoomed\tx\thttp://gone/\t5\t\n",
    "del\tdoomed\n",
);

/// `WATCHES` after the compaction every open performs.
const WATCHES_COMPACTED: &str = concat!(
    "lixto-store\tv1\twatches\n",
    "put\tnews\tshop\thttp://shop/a\\tb\t250\thttp://sink:9/hook\n",
    "put\tplain\tboard\thttp://live/board\t500\t\n",
);

const MANIFEST_1: &str = concat!(
    "lixto-wrapper v1\n",
    "name=weird name/v=1\n",
    "root=line\\nbreak\n",
    "auxiliary=aux\n",
    "label=item\tit\\tem\n",
    "max_documents=128\n",
    "max_instances=1000000\n",
    "program:\n",
    "item(S, X) :- document(\"http://x/\", S), subelem(S, (?.li, []), X).\n",
    "end-program\n",
    "version=1\n",
    "end\n",
);

const MANIFEST_2: &str = concat!(
    "lixto-wrapper v1\n",
    "name=weird name/v=1\n",
    "root=limited\n",
    "max_documents=7\n",
    "max_instances=99\n",
    "program:\n",
    "item(S, X) :- document(\"http://x/\", S), subelem(S, (?.li, []), X).\n",
    "end-program\n",
    "version=2\n",
    "end\n",
);

const MANIFEST_FILES: [(&str, &str); 2] = [
    ("weird%20name%2fv%3d1@1.wrapper", MANIFEST_1),
    ("weird%20name%2fv%3d1@2.wrapper", MANIFEST_2),
];

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lixto-formats-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(wrapper: &str, content: u64) -> CacheKey {
    CacheKey {
        wrapper: wrapper.to_string(),
        plan: 0xC0FFEE,
        content,
    }
}

/// The entries both store literals hold.
fn assert_store_entries(store: &TieredStore) {
    let stats = store.store_stats();
    assert_eq!((stats.recovered, stats.corrupt_records), (2, 0));
    assert!(store.peek(&key("shop", 3)).is_none(), "the tombstone holds");
    let news = store.peek(&key("news wire", 2)).expect("news wire entry");
    assert_eq!(news.xml, "<n/>");
    assert_eq!(news.provenance.instances[0].text, "back\\slash");
    let shop = store.peek(&key("shop", 1)).expect("shop entry");
    assert_eq!(shop.xml, "<a>1 &amp; 2</a>\n<b/>");
    assert!(shop.crawl_live);
    let crawl: Vec<(&str, Option<u64>)> = shop
        .crawl
        .iter()
        .map(|r| (r.url.as_str(), r.content))
        .collect();
    assert_eq!(
        crawl,
        [("http://shop/sub", Some(7)), ("http://gone/", None)]
    );
    let p = &shop.provenance;
    assert_eq!(
        (p.wrapper.as_str(), p.version, p.plan, p.source_hash),
        ("shop", 2, 0xC0FFEE, 0xFEED)
    );
    assert_eq!(p.source_url, "http://shop/");
    let instances: Vec<(&str, Option<usize>, Option<u32>, &str)> = p
        .instances
        .iter()
        .map(|i| (i.pattern.as_str(), i.parent, i.rule, i.text.as_str()))
        .collect();
    assert_eq!(
        instances,
        [
            ("item", None, Some(0), "alpha\tbeta"),
            ("item", Some(0), Some(1), "γ")
        ]
    );
    assert_eq!(shop.result.producing_rule(1), Some(1));
}

#[test]
fn v1_wal_reopens_and_compacts_to_the_v1_snapshot() {
    let dir = temp_root("wal");
    fs::write(dir.join("wal.log"), WAL).unwrap();
    let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
    assert_store_entries(&store);
    store.compact();
    assert_eq!(
        fs::read_to_string(dir.join("snapshot.log")).unwrap(),
        SNAPSHOT
    );
    assert_eq!(fs::read_to_string(dir.join("wal.log")).unwrap(), EMPTY_WAL);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_snapshot_reopens_and_compacts_byte_for_byte() {
    let dir = temp_root("snapshot");
    fs::write(dir.join("snapshot.log"), SNAPSHOT).unwrap();
    fs::write(dir.join("wal.log"), EMPTY_WAL).unwrap();
    let store = TieredStore::open(8, &StoreConfig::new(&dir)).unwrap();
    assert_store_entries(&store);
    store.compact();
    assert_eq!(
        fs::read_to_string(dir.join("snapshot.log")).unwrap(),
        SNAPSHOT
    );
    assert_eq!(fs::read_to_string(dir.join("wal.log")).unwrap(), EMPTY_WAL);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_watch_spool_reopens_and_compacts() {
    let dir = temp_root("watches");
    fs::write(dir.join("watches.log"), WATCHES).unwrap();
    let registry = WatchRegistry::with_spool(&dir).unwrap();
    let watches: Vec<(String, String, String, u64, Option<String>)> = registry
        .list()
        .into_iter()
        .map(|w| (w.id, w.wrapper, w.url, w.interval_ms, w.webhook))
        .collect();
    assert_eq!(
        watches,
        [
            (
                "news".to_string(),
                "shop".to_string(),
                "http://shop/a\tb".to_string(),
                250,
                Some("http://sink:9/hook".to_string())
            ),
            (
                "plain".to_string(),
                "board".to_string(),
                "http://live/board".to_string(),
                500,
                None
            ),
        ]
    );
    assert_eq!(
        fs::read_to_string(dir.join("watches.log")).unwrap(),
        WATCHES_COMPACTED
    );
    // A registration appends one record in the same format.
    registry.remove("plain");
    assert_eq!(
        fs::read_to_string(dir.join("watches.log")).unwrap(),
        format!("{WATCHES_COMPACTED}del\tplain\n")
    );
    drop(registry);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_wrapper_manifests_reload_read_only() {
    let root = temp_root("manifests");
    let dir = durability_layout(&root).wrappers;
    fs::create_dir_all(&dir).unwrap();
    for (file, text) in MANIFEST_FILES {
        fs::write(dir.join(file), text).unwrap();
    }
    let registry = WrapperRegistry::with_spool(&dir).unwrap();
    let name = "weird name/v=1";
    assert_eq!(registry.catalog(), vec![(name.to_string(), 2)]);
    let v1 = registry.version(name, 1).unwrap();
    assert_eq!(v1.spec.design.root_label, "line\nbreak");
    assert!(v1.spec.design.is_auxiliary("aux"));
    assert_eq!(v1.spec.design.label_of("item"), "it\tem");
    assert_eq!(
        (v1.spec.options.max_documents, v1.spec.options.max_instances),
        (128, 1_000_000)
    );
    let v2 = registry.version(name, 2).unwrap();
    assert_eq!(v2.spec.design.root_label, "limited");
    assert_eq!(
        (v2.spec.options.max_documents, v2.spec.options.max_instances),
        (7, 99)
    );
    for (file, text) in MANIFEST_FILES {
        assert_eq!(fs::read_to_string(dir.join(file)).unwrap(), text, "{file}");
    }
    // A new deploy writes the next manifest in the same format.
    registry
        .register_source(name, &v2.spec.source, v2.spec.design.clone())
        .unwrap();
    let v3 = fs::read_to_string(dir.join("weird%20name%2fv%3d1@3.wrapper")).unwrap();
    assert_eq!(
        v3,
        MANIFEST_2
            .replace("max_documents=7", "max_documents=128")
            .replace("max_instances=99", "max_instances=1000000")
            .replace("version=2", "version=3")
    );
    fs::remove_dir_all(&root).unwrap();
}

/// A program that uses every extraction and condition kind the printer
/// renders.
const EVERY_KIND: &str = r#"
page(S, X) :- document("http://golden/index", S), subelem(S, (?.body, [(class, "main", exact), (id, "x", substr)]), X).
rows(S, X) :- page(_, S), subsq(S, (?.table.?.tbody, []), (.tr, [(class, "first", exact)]), (.tr, [(elementtext, "\var[T].*", regvar)]), X).
cell(S, X) :- rows(_, S), subelem(S, (.*./t[dh]/, []), X), notbefore(S, X, (?.hr, []), 0, 3, _, _), notafter(S, X, (?.br, []), 0, 2), firstsubtree(S, X, (?.b, [])), range(1, 5).
price(S, X) :- cell(_, S), subtext(S, "\var[Y]\d+", X), before(S, X, (?.em, []), 0, 10, C, _), after(S, X, (?.i, [(title, "\var[D]", regvar)]), 1, 4, D, _), isCurrency(C), notIsDate(X), lt(X, "100"), le(X, "99.5"), gt(X, "1"), ge(X, D), eq(C, "$"), ne(X, "0"), contains(X, (?.span, [])), notcontains(X, (?.blink, [])).
link(S, X) :- page(_, S), subatt(S, href, X).
next(S, X) :- page(_, S), attrbind(S, href, U), document(U, X).
cheap(S, X) :- cell(_, S), price(_, X), isNumber(X).
"#;

/// `EVERY_KIND` as the printer renders it, rule by rule: the canonical
/// program text that wrapper manifests store and plan ids hash.
const EVERY_KIND_PRINTED: &str = r#"page(S, X) :- document("http://golden/index", S), subelem(S, (?.body, [(class, "main", exact), (id, "x", substr)]), X).
rows(S, X) :- page(_, S), subsq(S, (?.table.?.tbody, []), (.tr, [(class, "first", exact)]), (.tr, [(elementtext, "\var[T].*", regvar)]), X).
cell(S, X) :- rows(_, S), subelem(S, (.*./t[dh]/, []), X), notbefore(S, X, (?.hr, []), 0, 3, _, _), notafter(S, X, (?.br, []), 0, 2, _, _), firstsubtree(S, X, (?.b, [])), range(1, 5).
price(S, X) :- cell(_, S), subtext(S, "\var[Y]\d+", X), before(S, X, (?.em, []), 0, 10, C, _), after(S, X, (?.i, [(title, "\var[D]", regvar)]), 1, 4, D, _), isCurrency(C), notIsDate(X), lt(X, "100"), le(X, "99.5"), gt(X, "1"), ge(X, D), eq(C, "$"), ne(X, "0"), contains(X, (?.span, [])), notcontains(X, (?.blink, [])).
link(S, X) :- page(_, S), subatt(S, href, X).
next(S, X) :- page(_, S), document(U, X), attrbind(S, href, U).
cheap(S, X) :- cell(_, S), price(_, X), isNumber(X).
"#;

#[test]
fn the_printed_program_text_is_unchanged() {
    let program = lixto_elog::parse_program(EVERY_KIND).unwrap();
    assert_eq!(program.to_string(), EVERY_KIND_PRINTED);
}

/// Plan ids key every durable store entry, so a change to how they are
/// computed orphans the whole store on upgrade: the five serving-mix
/// wrappers, deployed with their root and auxiliary patterns, keep the
/// ids they have always had.
#[test]
fn serving_mix_plan_ids_are_unchanged() {
    let expected = [
        ("books_a", 0x837c_2fd0_1f22_beb6u64),
        ("books_b", 0x02e2_7641_61ee_d5d6),
        ("ebay", 0x5737_d97e_a3b2_629c),
        ("news", 0xf3e8_c217_88ca_0309),
        ("flights", 0x8e58_f82e_90da_82b4),
    ];
    let profiles = lixto::workloads::traffic::profiles();
    assert_eq!(profiles.len(), expected.len());
    for (profile, (name, id)) in profiles.iter().zip(expected) {
        assert_eq!(profile.name, name);
        let design = profile
            .auxiliary
            .iter()
            .fold(XmlDesign::new().root(profile.root), |d, a| d.auxiliary(a));
        let spec = WrapperSpec::from_source(profile.program, design).unwrap();
        assert_eq!(spec.plan_id(), id, "{name}: {:016x}", spec.plan_id());
    }
}
