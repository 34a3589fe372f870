//! Seeded inputs and their reference outputs.
//!
//! Every input comes from the `lixto_workloads` generators, keyed by the
//! run's seed. Reference outputs are computed here, before the set-up
//! clock starts, with the interpreted Elog walker (`Extractor::new`) —
//! an engine independent of the optimized plan executor the pool runs.

use lixto_core::{to_xml, XmlDesign};
use lixto_elog::{parse_program, ElogProgram, ExtractionResult, Extractor, SinglePage};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use lixto_transform::{diff_snapshots, ExtractionSnapshot, InstanceDiff};
use lixto_workloads::http_traffic;
use lixto_workloads::traffic::{self, watch_page, watch_profiles};

/// Records per page on the miss workloads.
pub const MISS_ROWS: usize = 120;
/// Distinct base pages per wrapper on the miss workloads; each request
/// makes its base page unique with a per-request marker comment.
pub const MISS_BASES_PER_WRAPPER: usize = 8;
/// Passes over the document pool in each hit client's stream.
pub const HIT_ROTATIONS: usize = 40;

/// A deployable wrapper.
#[derive(Debug, Clone)]
pub struct Wrapper {
    pub name: String,
    pub url: String,
    pub program: String,
    pub root: String,
    pub auxiliary: Vec<String>,
}

impl Wrapper {
    pub fn design(&self) -> XmlDesign {
        self.auxiliary
            .iter()
            .fold(XmlDesign::new().root(&self.root), |d, a| d.auxiliary(a))
    }

    /// The interpreted walker's extraction of `html` served at the
    /// wrapper's entry URL.
    pub fn reference(&self, html: &str) -> ExtractionResult {
        self.reference_with(&self.parse(), html)
    }

    pub fn parse(&self) -> ElogProgram {
        parse_program(&self.program).expect("workload program parses")
    }

    /// [`reference`](Wrapper::reference) with the program parsed once.
    pub fn reference_with(&self, program: &ElogProgram, html: &str) -> ExtractionResult {
        let page = SinglePage {
            url: self.url.clone(),
            html: html.to_string(),
        };
        Extractor::new(program.clone(), &page).run()
    }

    pub fn reference_xml(&self, html: &str) -> String {
        lixto_xml::to_string(&to_xml(&self.reference(html), &self.design()))
    }
}

/// The five serving-mix wrappers, by name.
pub fn profile_wrappers(names: &[&str]) -> Vec<Wrapper> {
    names
        .iter()
        .map(|name| {
            let p = traffic::profiles()
                .into_iter()
                .find(|p| p.name == *name)
                .expect("known traffic profile");
            Wrapper {
                name: p.name.to_string(),
                url: p.entry_url.to_string(),
                program: p.program.to_string(),
                root: p.root.to_string(),
                auxiliary: p.auxiliary.iter().map(|a| a.to_string()).collect(),
            }
        })
        .collect()
}

/// One input page with its reference XML.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Index into the corpus's wrappers.
    pub wrapper: usize,
    pub html: String,
    pub xml: String,
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `hit_http`: the rotating pool of `http_traffic` bodies — 5 wrappers ×
/// `VARIANTS_PER_WRAPPER` `page_for` variants — one sub-stream per
/// client connection. Each client visits every document equally often,
/// in its own seeded order, so the seed changes the documents but not
/// the mix.
pub struct HitCorpus {
    pub wrappers: Vec<Wrapper>,
    pub docs: Vec<Doc>,
    /// Per client: `(POST /extract body, index into docs)`.
    pub streams: Vec<Vec<(String, usize)>>,
}

pub fn hit(seed: u64, clients: usize) -> HitCorpus {
    let wrappers = profile_wrappers(&["books_a", "books_b", "ebay", "news", "flights"]);
    let mut docs = Vec::new();
    let mut bodies = Vec::new();
    for (w, wrapper) in wrappers.iter().enumerate() {
        for variant in 0..traffic::VARIANTS_PER_WRAPPER {
            let html = traffic::page_for(&wrapper.name, seed, variant);
            bodies.push(http_traffic::extract_body(
                &wrapper.name,
                &wrapper.url,
                &html,
            ));
            let xml = wrapper.reference_xml(&html);
            docs.push(Doc {
                wrapper: w,
                html,
                xml,
            });
        }
    }
    let streams = (0..clients)
        .map(|c| {
            (0..HIT_ROTATIONS)
                .flat_map(|round| {
                    shuffled(docs.len(), mix(seed, c as u64 + 1, round as u64))
                        .into_iter()
                        .map(|d| (bodies[d].clone(), d))
                })
                .collect()
        })
        .collect();
    HitCorpus {
        wrappers,
        docs,
        streams,
    }
}

/// `0..n` in a seeded order (Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, 0xF15E, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// `miss_parse` / `miss_exec`: 120-row base pages; request `n` serves
/// base `order[n % len]` made unique by [`unique_page`].
pub struct MissCorpus {
    pub wrappers: Vec<Wrapper>,
    pub bases: Vec<Doc>,
    /// A seeded permutation of base indices.
    pub order: Vec<usize>,
}

impl MissCorpus {
    /// The `n`-th request's page: its base index and never-repeating bytes.
    pub fn page(&self, n: u64) -> (usize, String) {
        let base = self.order[(n % self.order.len() as u64) as usize];
        (base, unique_page(&self.bases[base].html, n))
    }
}

/// `base` with a leading marker comment naming request `n`: the bytes
/// (and so the content address) never repeat, while the records — and
/// so the reference output — are the base page's.
pub fn unique_page(base: &str, n: u64) -> String {
    format!("<!-- request {n} -->{base}")
}

pub fn miss(seed: u64, wrapper_names: &[&str]) -> MissCorpus {
    let wrappers = profile_wrappers(wrapper_names);
    let mut bases = Vec::new();
    for (w, wrapper) in wrappers.iter().enumerate() {
        for k in 0..MISS_BASES_PER_WRAPPER {
            let vseed = mix(seed, w as u64 + 1, k as u64);
            let html = traffic::page_sized(&wrapper.name, vseed, MISS_ROWS, vseed % 97);
            let xml = wrapper.reference_xml(&html);
            bases.push(Doc {
                wrapper: w,
                html,
                xml,
            });
        }
    }
    let order = shuffled(bases.len(), seed);
    MissCorpus {
        wrappers,
        bases,
        order,
    }
}

/// `watch_fleet`: `watch_profiles(fleet)` plus, for every watch and
/// every content revision up to a cap, the fingerprint of the diff a
/// watch must deliver when its page crosses into that revision.
pub struct WatchCorpus {
    pub seed: u64,
    pub wrappers: Vec<Wrapper>,
    /// `expected[i][r - 1]`: [`fingerprint`] of `diff_snapshots` between
    /// watch `i`'s reference snapshots at revisions `r - 1` and `r`.
    pub expected: Vec<Vec<u64>>,
}

impl WatchCorpus {
    /// The highest revision a watched page is ever served at.
    pub fn revision_cap(&self) -> u64 {
        self.expected[0].len() as u64
    }
}

/// A 64-bit fingerprint of a diff, so the oracle keeps 8 bytes per
/// expected event rather than two snapshots.
pub fn fingerprint(diff: &InstanceDiff) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{diff:?}").hash(&mut h);
    h.finish()
}

/// The instance-level view a watch diffs: (pattern, text) pairs.
pub fn snapshot_of(result: &ExtractionResult) -> ExtractionSnapshot {
    ExtractionSnapshot::from_pairs((0..result.base.len()).map(|i| {
        (
            result.base.instances[i].pattern.to_string(),
            result.base.text_of(i, &result.docs),
        )
    }))
}

/// A fleet wrapper: `watch_profiles(fleet)[i]` under the fleet's design.
pub fn fleet_wrappers(prefix: &str, fleet: usize) -> Vec<Wrapper> {
    watch_profiles(fleet)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let url = format!("http://{prefix}{i}/");
            Wrapper {
                name: format!("{prefix}{i}"),
                program: p.program.replace(&p.url, &url),
                url,
                root: "offers".to_string(),
                auxiliary: Vec::new(),
            }
        })
        .collect()
}

pub fn watch(seed: u64, fleet: usize, revisions: u64) -> WatchCorpus {
    let wrappers = fleet_wrappers("watch", fleet);
    // Watches are independent: split them over the cores.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = fleet.div_ceil(threads).max(1);
    let expected = std::thread::scope(|scope| {
        let handles: Vec<_> = wrappers
            .chunks(per)
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(j, w)| {
                            let i = c * per + j;
                            let program = w.parse();
                            let snapshot = |r| {
                                let page = watch_page(i, seed, r, r);
                                snapshot_of(&w.reference_with(&program, &page))
                            };
                            let mut previous = snapshot(0);
                            (1..=revisions)
                                .map(|r| {
                                    let next = snapshot(r);
                                    let diff = diff_snapshots(&previous, &next);
                                    previous = next;
                                    fingerprint(&diff)
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    WatchCorpus {
        seed,
        wrappers,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        let a = hit(7, 2);
        let b = hit(7, 2);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.docs.len(), 15, "5 wrappers x 3 variants");
        assert!(a
            .docs
            .iter()
            .zip(&b.docs)
            .all(|(x, y)| x.html == y.html && x.xml == y.xml));
        assert_ne!(hit(8, 2).streams, a.streams);

        let m = miss(7, &["books_a", "news"]);
        let n = miss(7, &["books_a", "news"]);
        assert_eq!(m.order, n.order);
        assert_eq!(m.page(12345), n.page(12345));
        assert!(m
            .bases
            .iter()
            .zip(&n.bases)
            .all(|(x, y)| x.html == y.html && x.xml == y.xml));
        assert_ne!(miss(8, &["books_a", "news"]).bases[0].html, m.bases[0].html);

        let w = watch(7, 3, 2);
        assert_eq!(w.expected, watch(7, 3, 2).expected);
        assert_eq!(w.revision_cap(), 2);
        assert_ne!(w.expected, watch(8, 3, 2).expected);
        let empty = fingerprint(&InstanceDiff::default());
        assert!(
            w.expected.iter().flatten().all(|f| *f != empty),
            "every revision changes records"
        );
    }

    #[test]
    fn miss_pages_never_repeat_but_keep_the_base_output() {
        let m = miss(3, &["books_a", "books_b", "news", "flights", "ebay"]);
        assert_eq!(m.bases.len(), 5 * MISS_BASES_PER_WRAPPER);
        let (b0, p0) = m.page(0);
        let (b1, p1) = m.page(m.order.len() as u64);
        assert_eq!(b0, b1, "the order cycles over the bases");
        assert_ne!(p0, p1, "the bytes do not");
        for base in (0..m.bases.len()).step_by(3) {
            let doc = &m.bases[base];
            let marked = unique_page(&doc.html, 99);
            assert_eq!(m.wrappers[doc.wrapper].reference_xml(&marked), doc.xml);
            assert!(doc.xml.len() > 200, "120-row pages extract records");
        }
    }
}
