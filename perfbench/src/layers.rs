//! Per-layer timings the traced run takes by calling each layer's public
//! functions itself, on the workload's own documents, after the pool has
//! stopped: HTML tokenize and parse, plan execution, XML serialization,
//! snapshot diff, spool reload, store open and insert, and the HTTP request parse and
//! JSON decode/encode a gateway request of that document costs.

use std::sync::Arc;
use std::time::Instant;

use lixto_core::to_xml;
use lixto_elog::{ExecProbe, ExtractionResult, Extractor, SinglePage};
use lixto_http::{obj, parse_request, Json, Limits};
use lixto_server::{
    content_address, CacheKey, CachedExtraction, InstanceProvenance, Provenance, RegisteredWrapper,
    StoreConfig, TieredStore, WrapperRegistry,
};
use lixto_transform::diff_snapshots;
use lixto_workloads::http_traffic::extract_body;

use crate::corpus::{snapshot_of, Wrapper};
use crate::stats::micros;
use crate::system::Catalogue;
use crate::Layers;

/// Timed calls per document and layer.
const REPS: usize = 3;

/// Time `f`, push its wall time in µs under `name`, return its value.
fn timed<T>(layers: &mut Layers, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    layers.push(name, micros(t.elapsed()));
    out
}

/// The gateway's `POST /extract` response shape for `xml`, as a `Json`
/// tree ready to encode.
fn response_json(wrapper: &str, result: &lixto_elog::ExtractionResult, xml: &str) -> Json {
    let patterns: Vec<Json> = result
        .patterns()
        .iter()
        .map(|name| {
            let texts: Vec<Json> = result.texts_of(name).into_iter().map(Json::from).collect();
            obj([("name", name.as_str().into()), ("instances", texts.into())])
        })
        .collect();
    obj([
        ("wrapper", wrapper.into()),
        ("version", 1u32.into()),
        ("cache_hit", false.into()),
        ("latency_us", 0u64.into()),
        ("xml", xml.into()),
        ("patterns", patterns.into()),
    ])
}

/// The store entry the pool would keep for `result` of `html`.
fn cached_entry(
    wrapper: &Wrapper,
    deployed: &RegisteredWrapper,
    html: &str,
    result: ExtractionResult,
    xml: String,
) -> Arc<CachedExtraction> {
    let instances = (0..result.base.len())
        .map(|i| InstanceProvenance {
            pattern: result.base.instances[i].pattern.to_string(),
            parent: result.base.instances[i].parent,
            rule: result.producing_rule(i),
            text: result.base.text_of(i, &result.docs),
        })
        .collect();
    Arc::new(CachedExtraction {
        provenance: Provenance {
            wrapper: wrapper.name.clone(),
            version: deployed.version,
            plan: deployed.plan_id,
            source_url: wrapper.url.clone(),
            source_hash: content_address("", html),
            instances,
        },
        result,
        xml,
        crawl: Vec::new(),
        crawl_live: false,
    })
}

pub fn replay(
    wrappers: &[Wrapper],
    docs: &[(usize, String)],
    registry: &WrapperRegistry,
    catalogue: &Catalogue,
    scratch: &std::path::Path,
    layers: &mut Layers,
) {
    // Spool reload of the catalogue, and store open, as at set-up.
    for k in 0..REPS {
        let spool = scratch.join(format!("spool-{k}"));
        catalogue.copy_into(&spool);
        timed(layers, "server.spool_reload_us", || {
            WrapperRegistry::with_spool(&spool).expect("reload the catalogue")
        });
    }
    let mut store = None;
    for k in 0..REPS {
        let dir = scratch.join(format!("store-{k}"));
        store = Some(timed(layers, "server.store_open_us", || {
            TieredStore::open(256, &StoreConfig::new(&dir)).expect("open scratch store")
        }));
    }
    let store = store.expect("at least one open");
    let mut previous = vec![None; wrappers.len()];
    let mut inserted = 0u64;
    for (w, html) in docs {
        let wrapper = &wrappers[*w];
        let deployed = registry.latest(&wrapper.name).expect("deployed wrapper");
        let spec = &deployed.spec;
        let page = SinglePage {
            url: wrapper.url.clone(),
            html: html.clone(),
        };
        let body = extract_body(&wrapper.name, &wrapper.url, html);
        let request = format!(
            "POST /extract HTTP/1.1\r\nhost: lixto\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        for _ in 0..REPS {
            timed(layers, "html.tokenize_us", || {
                lixto_html::Tokenizer::new(html).count()
            });
            let doc = timed(layers, "html.parse_us", || lixto_html::parse(html));
            layers.push("html.nodes", doc.len() as f64);

            let probe = ExecProbe::new(None);
            let t = Instant::now();
            let result = Extractor::from_optimized(spec.optimized.clone(), &page)
                .with_options(spec.options.clone())
                .with_probe(&probe)
                .run();
            let wall = t.elapsed().as_nanos() as u64;
            let exec_ns = wall.saturating_sub(probe.fetch_ns() + probe.parse_ns());
            layers.push("elog.exec_us", exec_ns as f64 / 1e3);
            layers.push("elog.passes", probe.passes() as f64);
            layers.push("elog.instances", result.base.len() as f64);

            let xml = timed(layers, "xml.serialize_us", || {
                lixto_xml::to_string(&to_xml(&result, &spec.design))
            });

            let snapshot = snapshot_of(&result);
            if let Some(prev) = &previous[*w] {
                timed(layers, "watch.diff_us", || diff_snapshots(prev, &snapshot));
            }

            timed(layers, "http.request_parse_us", || {
                parse_request(request.as_bytes(), &Limits::default())
                    .expect("well-formed request")
                    .expect("complete request")
            });
            timed(layers, "http.json_decode_us", || {
                Json::parse(&body).expect("valid request JSON")
            });
            let response = response_json(&wrapper.name, &result, &xml);
            timed(layers, "http.json_encode_us", || response.dump());

            let key = CacheKey {
                wrapper: wrapper.name.clone(),
                plan: deployed.plan_id,
                content: content_address(&wrapper.url, html) ^ inserted,
            };
            inserted += 1;
            let value = cached_entry(wrapper, &deployed, html, result, xml);
            timed(layers, "server.store_insert_us", || {
                store.insert(key, value)
            });
            previous[*w] = Some(snapshot);
        }
    }
    drop(store);
}
