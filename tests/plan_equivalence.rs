//! Optimized-plan execution must be *result-identical* to the interpreted
//! reference evaluator: instance for instance, byte for byte through the
//! XML rendering, across the whole workload corpus (books / eBay / news /
//! flights), on perturbed layouts, on multi-page crawls, and on paths too
//! long to fuse. This is the safety net under the compile-once
//! architecture: the optimizing executor may be arbitrarily cleverer than
//! the AST walker, but never different.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lixto::elog::{
    parse_program, ConceptRegistry, ExtractionResult, Extractor, OptimizedPlan, StaticWeb,
    WebSource, WrapperPlan,
};
use lixto::workloads::perturb;
use lixto::workloads::traffic::{self, VARIANTS_PER_WRAPPER};
use lixto_bench::workload_design;

/// Compile and optimize `program_src`.
fn optimized_plan(program_src: &str) -> std::sync::Arc<OptimizedPlan> {
    let program = parse_program(program_src).expect("program parses");
    let plan =
        WrapperPlan::compile(program, &ConceptRegistry::builtin()).expect("program compiles");
    std::sync::Arc::new(OptimizedPlan::new(std::sync::Arc::new(plan)))
}

/// Demand identity of the full result, the pattern table, and the
/// designed XML rendering between the interpreted AST walker and the
/// optimized plan executor.
fn assert_identical(
    interpreted: &ExtractionResult,
    optimized: &ExtractionResult,
    design: &lixto::core::XmlDesign,
    context: &str,
) {
    assert_eq!(interpreted, optimized, "{context}: results diverged");
    assert_eq!(
        interpreted.patterns(),
        optimized.patterns(),
        "{context}: pattern tables diverged"
    );
    let interpreted_xml = lixto::xml::to_string(&lixto::core::to_xml(interpreted, design));
    let optimized_xml = lixto::xml::to_string(&lixto::core::to_xml(optimized, design));
    assert_eq!(
        interpreted_xml, optimized_xml,
        "{context}: XML renderings diverged"
    );
}

/// Run both engines over one (program, web) pair and demand identity.
fn assert_engines_agree(
    program_src: &str,
    web: &dyn WebSource,
    design: &lixto::core::XmlDesign,
    context: &str,
) {
    let program = parse_program(program_src).expect("program parses");
    let interpreted = Extractor::new(program, web).run_interpreted();
    let optimized = Extractor::from_optimized(optimized_plan(program_src), web).run();
    assert_identical(&interpreted, &optimized, design, context);
}

#[test]
fn corpus_sweep_all_wrappers_all_variants() {
    for profile in traffic::profiles() {
        let design = workload_design(&profile);
        for seed in [1u64, 2026] {
            for variant in 0..VARIANTS_PER_WRAPPER {
                let web = lixto::elog::SinglePage {
                    url: profile.entry_url.to_string(),
                    html: traffic::page_for(profile.name, seed, variant),
                };
                assert_engines_agree(
                    profile.program,
                    &web,
                    &design,
                    &format!("{} seed {seed} variant {variant}", profile.name),
                );
            }
        }
    }
}

/// The 120-record pages the miss-path benchmarks run on, one per
/// wrapper: larger than any serving variant, so rules meet many
/// candidate rows.
#[test]
fn benchmark_sized_pages_are_engine_identical() {
    for profile in traffic::profiles() {
        let web = lixto::elog::SinglePage {
            url: profile.entry_url.to_string(),
            html: traffic::page_sized(profile.name, 2026, 120, 0),
        };
        assert_engines_agree(
            profile.program,
            &web,
            &workload_design(&profile),
            &format!("{} at 120 records", profile.name),
        );
    }
}

#[test]
fn long_tail_stream_is_engine_identical() {
    let profiles: std::collections::HashMap<&str, _> = traffic::profiles()
        .into_iter()
        .map(|p| (p.name, p))
        .collect();
    for request in traffic::long_tail_requests(7, 8, 4) {
        let profile = &profiles[request.wrapper];
        let web = lixto::elog::SinglePage {
            url: request.url.clone(),
            html: request.html.clone(),
        };
        assert_engines_agree(
            profile.program,
            &web,
            &workload_design(profile),
            &format!("long-tail {}", request.wrapper),
        );
    }
}

#[test]
fn crawling_wrapper_is_engine_identical() {
    // Multi-page: exercises Document extraction, attrbind URL binding,
    // the crawl fixpoint, and cross-document instances.
    let mut web = StaticWeb::new();
    web.put(
        "http://start/",
        "<body><a href='http://p2/'>next</a><a href='http://gone/'>dead</a><p>first</p></body>",
    );
    web.put(
        "http://p2/",
        "<body><a href='http://p3/'>more</a><p>second</p></body>",
    );
    web.put("http://p3/", "<body><p>third</p><td>$ 9</td></body>");
    let program = r#"
        page(S, X) :- document("http://start/", S), subelem(S, (?.body, []), X).
        link(S, X) :- page(_, S), subelem(S, (?.a, []), X).
        page(S, X) :- link(_, S), attrbind(S, href, U), document(U, X).
        para(S, X) :- page(_, S), subelem(S, (?.p, []), X).
        price(S, X) :- page(_, S), subelem(S, (?.td, [(elementtext, "\var[Y](\$|EUR)", regvar)]), X), isCurrency(Y).
    "#;
    let design = lixto::core::XmlDesign::new()
        .root("crawl")
        .auxiliary("link");
    assert_engines_agree(program, &web, &design, "crawler");
}

#[test]
fn ebay_figure5_program_is_engine_identical() {
    // The paper's flagship program: subsq + before/after with binding +
    // pattern references + subtext + concepts, all in one wrapper.
    let web = lixto::elog::SinglePage {
        url: "www.ebay.com/".to_string(),
        html: traffic::page_for("ebay", 2026, 1),
    };
    let design = lixto::core::XmlDesign::new()
        .root("auctions")
        .auxiliary("tableseq");
    assert_engines_agree(lixto::elog::EBAY_PROGRAM, &web, &design, "ebay");
}

/// A web source whose pages fail on their first `fetch` and succeed on
/// the retry — plus one page that always fails. Exercises the unified
/// retry-once-then-pin fetch semantics: both engines must agree on
/// flaky sources regardless of how many fixpoint passes they take.
struct FlakyWeb {
    pages: StaticWeb,
    attempts: std::cell::RefCell<std::collections::HashMap<String, u32>>,
    always_dead: String,
}

impl WebSource for FlakyWeb {
    fn fetch(&self, url: &str) -> Option<String> {
        let mut attempts = self.attempts.borrow_mut();
        let n = attempts.entry(url.to_string()).or_insert(0);
        *n += 1;
        if url == self.always_dead || *n < 2 {
            return None;
        }
        self.pages.fetch(url)
    }
}

#[test]
fn flaky_sources_are_engine_identical() {
    let mut pages = StaticWeb::new();
    pages.put(
        "http://start/",
        "<body><a href='http://p2/'>next</a><a href='http://dead/'>dead</a><p>first</p></body>",
    );
    pages.put("http://p2/", "<body><p>second</p><td>$ 9</td></body>");
    let program = r#"
        page(S, X) :- document("http://start/", S), subelem(S, (?.body, []), X).
        link(S, X) :- page(_, S), subelem(S, (?.a, []), X).
        page(S, X) :- link(_, S), attrbind(S, href, U), document(U, X).
        para(S, X) :- page(_, S), subelem(S, (?.p, []), X).
        price(S, X) :- page(_, S), subelem(S, (?.td, [(elementtext, "\var[Y](\$|EUR)", regvar)]), X), isCurrency(Y).
    "#;
    let design = lixto::core::XmlDesign::new()
        .root("crawl")
        .auxiliary("link");
    // Each engine gets a fresh source so retry counters start at zero.
    let fresh = || FlakyWeb {
        pages: pages.clone(),
        attempts: std::cell::RefCell::new(std::collections::HashMap::new()),
        always_dead: "http://dead/".to_string(),
    };
    let parsed = parse_program(program).expect("program parses");
    let interpreted_web = fresh();
    let interpreted = Extractor::new(parsed, &interpreted_web).run_interpreted();
    let optimized_web = fresh();
    let optimized = Extractor::from_optimized(optimized_plan(program), &optimized_web).run();
    // The flaky pages were actually extracted, not silently skipped.
    assert!(
        interpreted.patterns().iter().any(|p| p == "price"),
        "retried pages should contribute instances"
    );
    assert_identical(&interpreted, &optimized, &design, "flaky");
}

/// Paths longer than `PathAutomaton::MAX_STEPS` (64) cannot be fused and
/// run through the executor's step-by-step evaluator: a 65-step child
/// path extraction and a 65-step `before` condition path over a 70-deep
/// document must still match the interpreted walker.
#[test]
fn unfusable_paths_are_engine_identical() {
    let mut html = String::from("<body>");
    for (tag, depth) in [("span", 70), ("div", 70)] {
        html.push_str(&format!("<{tag}>").repeat(depth));
        html.push_str("leaf");
        html.push_str(&format!("</{tag}>").repeat(depth));
    }
    html.push_str("</body>");
    let steps = |tag: &str| format!(".{tag}").repeat(65);
    let program = format!(
        r#"
        page(S, X) :- document("http://long/", S), subelem(S, (?.body, []), X).
        deep(S, X) :- page(_, S), subelem(S, ({}, []), X), before(S, X, ({}, []), 0, 1000).
    "#,
        steps("div"),
        steps("span")
    );
    let plan = optimized_plan(&program);
    assert_eq!(plan.report().fallback_paths, 2);
    let web = lixto::elog::SinglePage {
        url: "http://long/".to_string(),
        html,
    };
    let interpreted = Extractor::new(parse_program(&program).unwrap(), &web).run_interpreted();
    let optimized = Extractor::from_optimized(plan, &web).run();
    assert_eq!(
        interpreted.texts_of("deep").len(),
        1,
        "the 65th div matches"
    );
    let design = lixto::core::XmlDesign::new().root("long");
    assert_identical(&interpreted, &optimized, &design, "unfusable paths");
}

/// Deep single-branch nesting: every step of a descendant path stays
/// live down a long spine, stressing the fused automaton's mask
/// propagation and the step evaluator's frontier reuse.
#[test]
fn deeply_nested_documents_are_engine_identical() {
    let mut html = String::from("<body>");
    for d in 0..40 {
        html.push_str(&format!("<div id='d{d}'><span>lvl {d}</span>"));
    }
    html.push_str("<table><tr><td>$ 7</td></tr></table>");
    for _ in 0..40 {
        html.push_str("</div>");
    }
    html.push_str("</body>");
    let program = r#"
        item(S, X) :- document("http://deep/", S), subelem(S, (?.td, []), X).
        label(S, X) :- item(_, S), subelem(S, (.*, []), X).
        deepspan(S, X) :- document("http://deep/", S), subelem(S, (?.div.div.div.span, []), X).
    "#;
    let web = lixto::elog::SinglePage {
        url: "http://deep/".to_string(),
        html,
    };
    let design = lixto::core::XmlDesign::new().root("deep");
    assert_engines_agree(program, &web, &design, "deep nesting");
}

/// Wide sibling fan-out: thousands of flat siblings, where per-step
/// allocation and per-candidate dispatch dominate the unfused evaluator.
#[test]
fn wide_sibling_documents_are_engine_identical() {
    let mut html = String::from("<body><ul>");
    for i in 0..1500 {
        let cls = if i % 3 == 0 { "odd" } else { "even" };
        html.push_str(&format!("<li class='{cls}'>row {i}: $ {}</li>", i % 97));
    }
    html.push_str("</ul></body>");
    let program = r#"
        row(S, X) :- document("http://wide/", S), subelem(S, (?.li, []), X).
        odd(S, X) :- document("http://wide/", S), subelem(S, (?.li, [(class, "odd", exact)]), X).
        price(S, X) :- row(_, S), subtext(S, "\$ \var[Y]([0-9]+)", X), isNumber(Y).
    "#;
    let web = lixto::elog::SinglePage {
        url: "http://wide/".to_string(),
        html,
    };
    let design = lixto::core::XmlDesign::new().root("wide");
    assert_engines_agree(program, &web, &design, "wide siblings");
}

/// Table-heavy layout with shared path prefixes across rules — the
/// hoisting sweet spot — run both pristine and through the perturbation
/// kit to cover messier real-world shapes.
#[test]
fn table_heavy_documents_are_engine_identical() {
    let mut html = String::from("<body>");
    for t in 0..12 {
        html.push_str("<table><tbody>");
        for r in 0..18 {
            html.push_str(&format!(
                "<tr><td>name {t}-{r}</td><td>$ {}</td><td><a href='http://x/{t}/{r}'>go</a></td></tr>",
                (t * 31 + r * 7) % 500
            ));
        }
        html.push_str("</tbody></table>");
    }
    html.push_str("</body>");
    let program = r#"
        rowx(S, X) :- document("http://tables/", S), subelem(S, (?.tr, []), X).
        namecell(S, X) :- rowx(_, S), subelem(S, (.td, []), X), firstsubtree(S, X, (.td, [])).
        pricecell(S, X) :- rowx(_, S), subelem(S, (.td, [(elementtext, "\var[Y](\$ [0-9]+)", regvar)]), X), isCurrency(Y).
        linkcell(S, X) :- rowx(_, S), subelem(S, (.td.a, []), X).
    "#;
    let design = lixto::core::XmlDesign::new().root("tables");
    let web = lixto::elog::SinglePage {
        url: "http://tables/".to_string(),
        html: html.clone(),
    };
    assert_engines_agree(program, &web, &design, "table heavy");
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE20);
        let mutated = perturb::apply_random(&html, 3, &mut rng);
        let web = lixto::elog::SinglePage {
            url: "http://tables/".to_string(),
            html: mutated,
        };
        assert_engines_agree(
            program,
            &web,
            &design,
            &format!("table heavy perturbed {seed}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random corpus point, randomly perturbed layout: the two engines
    /// still agree byte for byte.
    #[test]
    fn perturbed_corpus_is_engine_identical(
        which in 0usize..5,
        seed in 0u64..1000,
        variant in 0u64..VARIANTS_PER_WRAPPER,
        perturbations in 0usize..4,
    ) {
        let profile = traffic::profiles().remove(which);
        let page = traffic::page_for(profile.name, seed, variant);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE15);
        let mutated = perturb::apply_random(&page, perturbations, &mut rng);
        let web = lixto::elog::SinglePage {
            url: profile.entry_url.to_string(),
            html: mutated,
        };
        assert_engines_agree(
            profile.program,
            &web,
            &workload_design(&profile),
            &format!("perturbed {} seed {seed}", profile.name),
        );
    }
}
