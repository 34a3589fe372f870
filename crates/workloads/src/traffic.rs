//! Mixed-wrapper request traffic for the serving-layer experiments.
//!
//! Simulates N portal users hitting the extraction service with a
//! deterministic mix of the §6 scenarios — book shops, eBay auctions,
//! news clippings, flight status. Each wrapper draws its documents from
//! a small per-wrapper pool of variants, so the stream repeats documents
//! the way real traffic repeats slowly-changing pages (that repetition
//! is what a content-addressed result cache exists for).

use crate::perturb::{self, Perturbation};
use crate::{books, ebay, flights, hash01, news};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deployable wrapper: everything a registry needs to serve one of the
/// workload scenarios.
pub struct WrapperProfile {
    /// Registry name.
    pub name: &'static str,
    /// Entry URL the program's `document(...)` atom fetches.
    pub entry_url: &'static str,
    /// Elog source text.
    pub program: &'static str,
    /// Root element label for the output design.
    pub root: &'static str,
    /// Patterns to declare auxiliary in the output design.
    pub auxiliary: &'static [&'static str],
}

/// The five wrappers the traffic mix exercises.
pub fn profiles() -> Vec<WrapperProfile> {
    vec![
        WrapperProfile {
            name: "books_a",
            entry_url: "http://shop0/books",
            program: books::SHOP_A_WRAPPER,
            root: "shopA",
            auxiliary: &[],
        },
        WrapperProfile {
            name: "books_b",
            entry_url: "http://shop1/books",
            program: books::SHOP_B_WRAPPER,
            root: "shopB",
            auxiliary: &[],
        },
        WrapperProfile {
            name: "ebay",
            entry_url: "www.ebay.com/",
            program: lixto_elog::EBAY_PROGRAM,
            root: "auctions",
            auxiliary: &["tableseq"],
        },
        WrapperProfile {
            name: "news",
            entry_url: "http://press/finance",
            program: news::NEWS_WRAPPER,
            root: "clippings",
            auxiliary: &[],
        },
        WrapperProfile {
            name: "flights",
            entry_url: "http://airport/departures",
            program: flights::FLIGHT_WRAPPER,
            root: "departures",
            auxiliary: &[],
        },
    ]
}

/// One simulated request: `user` asks wrapper `wrapper` to extract the
/// page `html`, served at the wrapper's entry URL `url`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficRequest {
    /// Which simulated user issued it (0-based).
    pub user: usize,
    /// Wrapper profile name.
    pub wrapper: &'static str,
    /// Entry URL for the document.
    pub url: String,
    /// The document.
    pub html: String,
}

/// Distinct document variants each wrapper rotates through.
pub const VARIANTS_PER_WRAPPER: u64 = 3;

/// The page a wrapper sees for document variant `variant`.
pub fn page_for(wrapper: &str, seed: u64, variant: u64) -> String {
    let vseed = seed
        .wrapping_mul(31)
        .wrapping_add(variant.wrapping_mul(0x9E37));
    let n = 6 + (variant as usize % 3) * 3;
    page_sized(wrapper, vseed, n, variant)
}

/// A wrapper's page with exactly `rows` records — the knob benchmarks
/// use to measure extraction on realistically sized documents (the
/// rotating [`page_for`] variants stay small to keep serving tests
/// fast).
pub fn page_sized(wrapper: &str, vseed: u64, rows: usize, variant: u64) -> String {
    match wrapper {
        "books_a" => books::shop_page(&books::catalog(vseed, 0, rows)),
        "books_b" => books::shop_page(&books::catalog(vseed, 1, rows)),
        "ebay" => ebay::listing_page(&ebay::auctions(vseed, rows)),
        "news" => news::press_page(&news::items(vseed, rows)),
        "flights" => flights::status_page(&flights::flights(vseed, rows, variant)),
        other => panic!("unknown traffic wrapper {other:?}"),
    }
}

/// A deterministic request stream: `users` simulated users each issue
/// `per_user` requests, wrapper and document variant drawn per request.
/// The stream is interleaved round-robin across users (request *i* of
/// every user, then request *i+1*), the arrival order a concurrent
/// frontend would see.
pub fn requests(seed: u64, users: usize, per_user: usize) -> Vec<TrafficRequest> {
    let profiles = profiles();
    let mut out = Vec::with_capacity(users * per_user);
    for round in 0..per_user {
        for user in 0..users {
            let k = (user * per_user + round) as u64;
            let w = (hash01(seed, k) * profiles.len() as f64) as usize % profiles.len();
            let variant = (hash01(seed ^ 0xA5A5, k) * VARIANTS_PER_WRAPPER as f64) as u64
                % VARIANTS_PER_WRAPPER;
            let profile = &profiles[w];
            out.push(TrafficRequest {
                user,
                wrapper: profile.name,
                url: profile.entry_url.to_string(),
                html: page_for(profile.name, seed, variant),
            });
        }
    }
    out
}

/// Long-tail traffic: the same wrapper mix as [`requests`], but every
/// request draws its document from an effectively unbounded variant
/// space (the request index itself), so documents almost never repeat
/// and a content-addressed result cache almost always misses. This is
/// the stream that exercises the extraction *miss path*, where
/// [`requests`]'s small variant pools exercise the hit path.
pub fn long_tail_requests(seed: u64, users: usize, per_user: usize) -> Vec<TrafficRequest> {
    let profiles = profiles();
    let mut out = Vec::with_capacity(users * per_user);
    for round in 0..per_user {
        for user in 0..users {
            let k = (user * per_user + round) as u64;
            let w = (hash01(seed, k) * profiles.len() as f64) as usize % profiles.len();
            let profile = &profiles[w];
            out.push(TrafficRequest {
                user,
                wrapper: profile.name,
                url: profile.entry_url.to_string(),
                // Variant = stream position: unique per request, so each
                // page's content is distinct (modulo hash luck).
                html: page_for(profile.name, seed, k),
            });
        }
    }
    out
}

/// Restart-heavy traffic: the repetition-maximizing stream for
/// persistence measurements. Every wrapper cycles through a pool
/// of just `pool` document variants (default the first
/// [`VARIANTS_PER_WRAPPER`]), so a warmed result store answers almost
/// the whole stream from cache — and, after a process restart, a
/// *recovered* store should answer it equally well. Compare the
/// time-to-first-hit of a gateway replaying this stream after a restart
/// (disk recovery) against one rebuilding the cache by re-executing
/// plans (cold rewarm).
pub fn restart_requests(
    seed: u64,
    users: usize,
    per_user: usize,
    pool: u64,
) -> Vec<TrafficRequest> {
    let pool = pool.max(1);
    let profiles = profiles();
    let mut out = Vec::with_capacity(users * per_user);
    for round in 0..per_user {
        for user in 0..users {
            let k = (user * per_user + round) as u64;
            let w = (hash01(seed, k) * profiles.len() as f64) as usize % profiles.len();
            let profile = &profiles[w];
            out.push(TrafficRequest {
                user,
                wrapper: profile.name,
                url: profile.entry_url.to_string(),
                // Tiny per-wrapper pool: the k-th request reuses variant
                // k mod pool, so the stream revisits the same (wrapper,
                // document) pairs over and over.
                html: page_for(profile.name, seed, k % pool),
            });
        }
    }
    out
}

/// Epochs per content revision in the perturbed streams: within a
/// revision only irrelevant markup moves between epochs; on a revision
/// boundary the records themselves change.
pub const CONTENT_REVISION_EPOCHS: u64 = 4;

/// Sibling-level noise: the [`perturb`] operators every workload wrapper
/// survives (the literal Figure 5 eBay program in the mix breaks under
/// the re-nesting `WrapperDiv`, so that one stays out). Used to mutate
/// page *bytes* without touching the extracted records.
const SIBLING_NOISE: &[Perturbation] = &[
    Perturbation::TopBanner,
    Perturbation::Footer,
    Perturbation::AttrNoise,
];

fn wrapper_tag(wrapper: &str) -> u64 {
    wrapper
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64))
}

/// The page a wrapper serves at mutation `epoch`: epoch-seeded
/// irrelevant sibling markup (a fresh banner plus one more [`perturb`]
/// operator) over a document whose records reseed only every
/// [`CONTENT_REVISION_EPOCHS`] epochs. Between two epochs of the same
/// revision the bytes differ but the extracted instances do not — a
/// byte-level change detector fires on every epoch, an instance-level
/// diff only on revision boundaries.
pub fn perturbed_page(wrapper: &str, seed: u64, variant: u64, epoch: u64) -> String {
    let revision = epoch / CONTENT_REVISION_EPOCHS;
    // Same vseed mix as [`page_for`] with the revision folded in, plus a
    // row count that cycles with the revision: some record pools (the
    // book catalogs) vary only their numeric fields with the seed, so
    // drifting the count is what guarantees consecutive revisions
    // extract differently for every wrapper.
    let vseed = (seed ^ revision.wrapping_mul(0x00C1_D0C5))
        .wrapping_mul(31)
        .wrapping_add(variant.wrapping_mul(0x9E37));
    let rows = 6 + (variant as usize % 3) * 3 + (revision % 3) as usize;
    let base = page_sized(wrapper, vseed, rows, variant);
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9) ^ epoch.wrapping_mul(0x85EB_CA6B) ^ wrapper_tag(wrapper),
    );
    let banner = perturb::apply(&base, Perturbation::TopBanner, &mut rng);
    let extra = SIBLING_NOISE[rng.gen_range(0..SIBLING_NOISE.len())];
    perturb::apply(&banner, extra, &mut rng)
}

/// Drifting-web traffic: the same mixed-wrapper stream as [`requests`],
/// replayed at mutation `epoch` with every document run through
/// [`perturbed_page`]. Replaying the stream at successive epochs models
/// sources that mutate between scheduler ticks: every page's bytes
/// change each epoch (so content-addressed caches miss and change
/// trackers fire), while the records change only when the content
/// revision advances: interactive traffic to run beside a watch fleet.
pub fn perturbed_requests(
    seed: u64,
    users: usize,
    per_user: usize,
    epoch: u64,
) -> Vec<TrafficRequest> {
    let profiles = profiles();
    let mut out = Vec::with_capacity(users * per_user);
    for round in 0..per_user {
        for user in 0..users {
            let k = (user * per_user + round) as u64;
            let w = (hash01(seed, k) * profiles.len() as f64) as usize % profiles.len();
            let variant = (hash01(seed ^ 0xA5A5, k) * VARIANTS_PER_WRAPPER as f64) as u64
                % VARIANTS_PER_WRAPPER;
            let profile = &profiles[w];
            out.push(TrafficRequest {
                user,
                wrapper: profile.name,
                url: profile.entry_url.to_string(),
                html: perturbed_page(profile.name, seed, variant, epoch),
            });
        }
    }
    out
}

/// A continuously-watched source for the subscription experiments: a
/// generated wrapper anchored at its own entry URL, extracting
/// `offer`/`name` instances from the listing page [`watch_page`] builds.
/// Fleets of these (one per watched URL) let perfbench's `watch_fleet`
/// and the watch tests run hundreds of live subscriptions without inventing
/// hundreds of scenarios.
pub struct WatchProfile {
    /// Registry name (`watch{i}`).
    pub name: String,
    /// Entry URL the program's `document(...)` atom fetches.
    pub url: String,
    /// Elog source text.
    pub program: String,
}

/// `n` watchable sources, `watch0..watch{n-1}`.
pub fn watch_profiles(n: usize) -> Vec<WatchProfile> {
    (0..n)
        .map(|i| {
            let url = format!("http://watch{i}/");
            WatchProfile {
                name: format!("watch{i}"),
                program: format!(
                    r#"
                    offer(S, X) :- document("{url}", S), subelem(S, (?.li, []), X).
                    name(S, X)  :- offer(_, S), subelem(S, (.b, []), X).
                    "#
                ),
                url,
            }
        })
        .collect()
}

/// The page `watch{i}` serves: three records whose texts are a
/// deterministic function of `(i, seed, revision)`, under epoch-seeded
/// banner noise. Advancing `epoch` alone moves bytes but not records
/// (a watch must deliver nothing); advancing `revision` changes every
/// record text (a watch must deliver exactly one diff).
pub fn watch_page(i: usize, seed: u64, revision: u64, epoch: u64) -> String {
    let mut html = String::from("<html><body><ul>");
    for row in 0..3usize {
        let stamp =
            (hash01(seed ^ revision.wrapping_mul(0x51AB), (i * 8 + row) as u64) * 1e6) as u64;
        html.push_str(&format!("<li><b>w{i}-r{row}-{stamp}</b></li>"));
    }
    html.push_str("</ul></body></html>");
    let mut rng = StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x85EB_CA6B) ^ ((i as u64) << 7));
    perturb::apply(&html, Perturbation::TopBanner, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lixto_elog::{parse_program, ExtractionResult, Extractor, SinglePage};

    #[test]
    fn stream_is_deterministic_and_sized() {
        let a = requests(7, 4, 5);
        let b = requests(7, 4, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert!(requests(8, 4, 5) != a, "seed must matter");
    }

    #[test]
    fn mix_covers_every_wrapper_and_repeats_documents() {
        let reqs = requests(3, 16, 8);
        for p in profiles() {
            assert!(
                reqs.iter().any(|r| r.wrapper == p.name),
                "wrapper {} never drawn",
                p.name
            );
        }
        // Small variant pools mean repeated documents — the cache's diet.
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0usize;
        for r in &reqs {
            if !seen.insert((r.wrapper, r.html.clone())) {
                repeats += 1;
            }
        }
        assert!(repeats > 0, "traffic must repeat documents");
    }

    #[test]
    fn long_tail_traffic_rarely_repeats_documents() {
        let reqs = long_tail_requests(3, 16, 8);
        assert_eq!(reqs.len(), 128);
        assert_eq!(reqs, long_tail_requests(3, 16, 8), "deterministic");
        let distinct: std::collections::HashSet<(&str, &str)> =
            reqs.iter().map(|r| (r.wrapper, r.html.as_str())).collect();
        assert!(
            distinct.len() * 10 >= reqs.len() * 9,
            "long-tail traffic must be ≥90% distinct documents, got {}/{}",
            distinct.len(),
            reqs.len()
        );
        // Still a mixed stream: every wrapper is drawn.
        for p in profiles() {
            assert!(reqs.iter().any(|r| r.wrapper == p.name));
        }
        // And the pages still extract.
        for r in reqs.iter().take(10) {
            let p = profiles()
                .into_iter()
                .find(|p| p.name == r.wrapper)
                .unwrap();
            let program = parse_program(p.program).unwrap();
            let web = SinglePage {
                url: r.url.clone(),
                html: r.html.clone(),
            };
            assert!(!Extractor::new(program, &web).run().base.is_empty());
        }
    }

    #[test]
    fn restart_traffic_reuses_a_tiny_document_pool() {
        let reqs = restart_requests(3, 8, 16, 2);
        assert_eq!(reqs.len(), 128);
        assert_eq!(reqs, restart_requests(3, 8, 16, 2), "deterministic");
        let distinct: std::collections::HashSet<(&str, &str)> =
            reqs.iter().map(|r| (r.wrapper, r.html.as_str())).collect();
        // 5 wrappers × pool of 2 = at most 10 distinct pairs in 128
        // requests: the stream is nearly all repeats.
        assert!(
            distinct.len() <= 10,
            "restart traffic must draw from the tiny pool, got {} distinct pairs",
            distinct.len()
        );
        for p in profiles() {
            assert!(reqs.iter().any(|r| r.wrapper == p.name));
        }
    }

    /// Pattern → texts, the markup-insensitive view of a result (node
    /// ids shift when banners land, texts must not).
    fn text_fingerprint(result: &ExtractionResult) -> Vec<(String, Vec<String>)> {
        result
            .patterns()
            .iter()
            .map(|p| (p.clone(), result.texts_of(p)))
            .collect()
    }

    fn extract(profile: &WrapperProfile, html: String) -> ExtractionResult {
        let program = parse_program(profile.program).unwrap();
        let web = SinglePage {
            url: profile.entry_url.to_string(),
            html,
        };
        Extractor::new(program, &web).run()
    }

    #[test]
    fn perturbed_pages_move_bytes_every_epoch_but_records_only_on_revisions() {
        for p in profiles() {
            let e0 = perturbed_page(p.name, 11, 0, 0);
            let e1 = perturbed_page(p.name, 11, 0, 1);
            assert_ne!(e0, e1, "{}: bytes must move between epochs", p.name);
            let f0 = text_fingerprint(&extract(&p, e0));
            assert!(
                f0.iter().any(|(_, texts)| !texts.is_empty()),
                "{}: perturbed page must still extract",
                p.name
            );
            assert_eq!(
                f0,
                text_fingerprint(&extract(&p, e1)),
                "{}: same revision must extract identically",
                p.name
            );
            // First epoch of the next revision: the records reseed.
            let next = perturbed_page(p.name, 11, 0, CONTENT_REVISION_EPOCHS);
            assert_ne!(
                f0,
                text_fingerprint(&extract(&p, next)),
                "{}: a revision boundary must change the records",
                p.name
            );
        }
    }

    #[test]
    fn perturbed_stream_is_deterministic_and_epoch_sensitive() {
        let a = perturbed_requests(7, 4, 5, 2);
        assert_eq!(a, perturbed_requests(7, 4, 5, 2));
        assert_eq!(a.len(), 20);
        let b = perturbed_requests(7, 4, 5, 3);
        // Same draws, different pages: the stream shape is stable while
        // every document mutates.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.user, x.wrapper), (y.user, y.wrapper));
            assert_ne!(x.html, y.html);
        }
    }

    #[test]
    fn watch_profiles_extract_their_own_pages_and_revisions_change_records() {
        let profiles = watch_profiles(3);
        for (i, p) in profiles.iter().enumerate() {
            let program = parse_program(&p.program).unwrap();
            let run = |html: String| {
                let web = SinglePage {
                    url: p.url.clone(),
                    html,
                };
                Extractor::new(program.clone(), &web).run()
            };
            let r0 = run(watch_page(i, 11, 0, 0));
            assert_eq!(r0.texts_of("name").len(), 3, "{}", p.name);
            // Epoch-only movement: new bytes, same records.
            assert_ne!(watch_page(i, 11, 0, 0), watch_page(i, 11, 0, 1));
            let r1 = run(watch_page(i, 11, 0, 1));
            assert_eq!(text_fingerprint(&r0), text_fingerprint(&r1));
            // Revision movement: every record text changes.
            let r2 = run(watch_page(i, 11, 1, 1));
            assert_eq!(r2.texts_of("name").len(), 3);
            assert_ne!(r0.texts_of("name"), r2.texts_of("name"));
        }
    }

    #[test]
    fn every_profile_extracts_from_its_own_pages() {
        for p in profiles() {
            let program = parse_program(p.program).unwrap();
            for variant in 0..VARIANTS_PER_WRAPPER {
                let web = SinglePage {
                    url: p.entry_url.to_string(),
                    html: page_for(p.name, 11, variant),
                };
                let result = Extractor::new(program.clone(), &web).run();
                assert!(
                    !result.base.is_empty(),
                    "{} extracted nothing from variant {variant}",
                    p.name
                );
            }
        }
    }
}
