//! The experiment runner: prints the paper-shaped table or series for
//! each of the paper's experiments E1…E14 (§7). Run with `--release`:
//!
//! ```text
//! cargo run --release -p lixto_bench --bin experiments          # all
//! cargo run --release -p lixto_bench --bin experiments e4 e8    # a subset
//! ```
//!
//! An unknown experiment name is an error. The serving stack is measured
//! by `perfbench/`, not here.

use lixto_bench::{print_table, time_us};

/// The paper's experiments, by the name the command line selects.
const EXPERIMENTS: [(&str, fn()); 14] = [
    ("e1", e1_monadic_datalog_linear),
    ("e2", e2_tmnf_translation),
    ("e3", e3_general_vs_tree),
    ("e4", e4_xpath_exponential_vs_ptime),
    ("e5", e5_core_xpath_linear),
    ("e6", e6_negation_ablation),
    ("e7", e7_xpath_to_tmnf),
    ("e8", e8_cq_dichotomy),
    ("e9", e9_ebay_wrapper),
    ("e10", e10_robustness),
    ("e11", e11_induction_vs_visual),
    ("e12", e12_pipeline),
    ("e13", e13_now_playing_and_flights),
    ("e14", e14_mso_equivalence),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| !EXPERIMENTS.iter().any(|(name, _)| name == a))
    {
        eprintln!("unknown experiment {unknown:?}; expected names e1 to e14");
        std::process::exit(2);
    }
    for (name, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            run();
        }
    }
}

/// A deep/wide synthetic document of ~n nodes (nested lists of tables).
fn synth_doc(n: usize) -> lixto_tree::Document {
    let mut html = String::with_capacity(n * 24);
    html.push_str("<html><body>");
    let rows = n / 4;
    for i in 0..rows {
        if i % 7 == 0 {
            html.push_str("<table>");
        }
        html.push_str(&format!("<tr><td><i>x{i}</i></td></tr>"));
        if i % 7 == 6 {
            html.push_str("</table>");
        }
    }
    html.push_str("</body></html>");
    lixto_html::parse(&html)
}

fn e1_monadic_datalog_linear() {
    // Theorem 2.4: O(|P|·|dom|). Fixed program, growing document; fixed
    // document, growing program.
    let program = lixto_datalog::parse_program(
        r#"italic(X) :- label(X, "i").
           italic(X) :- italic(X0), firstchild(X0, X).
           italic(X) :- italic(X0), nextsibling(X0, X).
           cell(X) :- label(X, "td").
           marked(X) :- cell(X), italic(X)."#,
    )
    .unwrap();
    let mut rows = Vec::new();
    let mut base = None;
    for n in [4_000usize, 16_000, 64_000, 256_000] {
        let doc = synth_doc(n);
        let us = time_us(5, || {
            let r = lixto_datalog::MonadicEvaluator::new(&doc)
                .eval(&program)
                .unwrap();
            std::hint::black_box(r);
        });
        let per_node = us / doc.len() as f64;
        let rel = *base.get_or_insert(per_node);
        rows.push(vec![
            doc.len().to_string(),
            format!("{us:.0}"),
            format!("{:.3}", per_node),
            format!("{:.2}x", per_node / rel),
        ]);
    }
    print_table(
        "E1a — monadic datalog over trees: time vs |dom| (Theorem 2.4; expect flat µs/node)",
        &["nodes", "µs", "µs/node", "rel"],
        &rows,
    );

    let doc = synth_doc(32_000);
    let mut rows = Vec::new();
    let mut base = None;
    for k in [8usize, 32, 128, 512] {
        // k chained copy rules.
        let mut src = String::from("p0(X) :- label(X, \"td\").\n");
        for i in 1..k {
            src.push_str(&format!("p{i}(X) :- p{}(X0), nextsibling(X0, X).\n", i - 1));
        }
        let program = lixto_datalog::parse_program(&src).unwrap();
        let us = time_us(3, || {
            let r = lixto_datalog::MonadicEvaluator::new(&doc)
                .eval(&program)
                .unwrap();
            std::hint::black_box(r);
        });
        let per_rule = us / k as f64;
        let rel = *base.get_or_insert(per_rule);
        rows.push(vec![
            k.to_string(),
            format!("{us:.0}"),
            format!("{per_rule:.1}"),
            format!("{:.2}x", per_rule / rel),
        ]);
    }
    print_table(
        "E1b — monadic datalog over trees: time vs |P| (expect flat µs/rule)",
        &["rules", "µs", "µs/rule", "rel"],
        &rows,
    );
}

fn e2_tmnf_translation() {
    // Theorem 2.7: TMNF translation in O(|P|).
    let mut rows = Vec::new();
    let mut base = None;
    for k in [8usize, 64, 512, 4096] {
        let mut src = String::new();
        for i in 0..k {
            src.push_str(&format!(
                "q{i}(X) :- label(R, \"tr\"), child(R, C), label(C, \"td\"), child(C, X).\n"
            ));
        }
        let program = lixto_datalog::parse_program(&src).unwrap();
        let mut out_size = 0;
        let us = time_us(3, || {
            let t = lixto_datalog::tmnf::to_tmnf(
                &program,
                lixto_datalog::tmnf::TmnfOptions {
                    eliminate_child: true,
                },
            )
            .unwrap();
            out_size = t.program.size();
            std::hint::black_box(&t);
        });
        let per_rule = us / k as f64;
        let rel = *base.get_or_insert(per_rule);
        rows.push(vec![
            k.to_string(),
            program.size().to_string(),
            out_size.to_string(),
            format!("{us:.0}"),
            format!("{:.2}x", per_rule / rel),
        ]);
    }
    print_table(
        "E2 — TMNF rewriting: linear time and linear output size (Theorem 2.7)",
        &["rules", "|P| in", "|P'| out", "µs", "µs/rule rel"],
        &rows,
    );
}

fn e3_general_vs_tree() {
    // Prop 2.3 vs Thm 2.4: one rule = a conjunctive query; over arbitrary
    // structures evaluation explodes with rule size, over trees it stays
    // linear.
    let mut rows = Vec::new();
    for k in [8usize, 10, 12, 14] {
        // 3-coloring structure; body = a k-chain of "different color"
        // constraints followed by a K4 (which is NOT 3-colorable). The
        // nested-loop join enumerates all ~2^k chain colorings before each
        // K4 failure — the NP-side blow-up of Proposition 2.3.
        let mut db = lixto_datalog::Database::new();
        for a in ["c0", "c1", "c2"] {
            for b in ["c0", "c1", "c2"] {
                if a != b {
                    db.add_fact("ok", &[a, b]);
                }
            }
        }
        db.add_fact("any", &["c0"]);
        let mut body = vec!["any(X0)".to_string()];
        for i in 0..k {
            body.push(format!("ok(X{i}, X{})", i + 1));
        }
        // K4 on Xk, Y1, Y2, Y3 — unsatisfiable with 3 colors.
        for (a, b) in [("Y1", "Y2"), ("Y1", "Y3"), ("Y2", "Y3")] {
            body.push(format!("ok({a}, {b})"));
        }
        for y in ["Y1", "Y2", "Y3"] {
            body.push(format!("ok(X{k}, {y})"));
        }
        let src = format!("sat(X0) :- {}.", body.join(", "));
        let program = lixto_datalog::parse_program(&src).unwrap();
        let us = time_us(3, || {
            let r = lixto_datalog::seminaive::eval(&db, &program).unwrap();
            std::hint::black_box(r.count("sat"));
        });
        // Trees: a same-size chain program over a 10k-node doc.
        let doc = synth_doc(10_000);
        let mut src2 = String::from("t0(X) :- label(X, \"td\").\n");
        for i in 1..=k {
            src2.push_str(&format!("t{i}(X) :- t{}(X0), child(X0, X).\n", i - 1));
        }
        let program2 = lixto_datalog::parse_program(&src2).unwrap();
        let tree_us = time_us(3, || {
            let r = lixto_datalog::MonadicEvaluator::new(&doc)
                .eval(&program2)
                .unwrap();
            std::hint::black_box(r);
        });
        rows.push(vec![
            k.to_string(),
            format!("{us:.0}"),
            format!("{tree_us:.0}"),
        ]);
    }
    print_table(
        "E3 — combined complexity: general structures (NP, Prop 2.3) vs trees (linear, Thm 2.4)",
        &["query size k", "general µs (grows)", "tree µs (flat-ish)"],
        &rows,
    );
}

fn e4_xpath_exponential_vs_ptime() {
    // Theorem 4.1 + [15]: naive 2002-style evaluation explodes; the
    // polynomial evaluator doesn't.
    let doc = lixto_html::parse(&format!("<div>{}</div>", "<a>x</a>".repeat(4)));
    let mut rows = Vec::new();
    for depth in [4usize, 6, 8, 10, 12] {
        let q = lixto_xpath::parse(&lixto_xpath::naive::pathological_query(depth)).unwrap();
        let naive_us = time_us(3, || {
            let r = lixto_xpath::naive::eval_naive(&doc, &q);
            std::hint::black_box(r.len());
        });
        let cvt_us = time_us(3, || {
            let r = lixto_xpath::cvt::eval(&doc, &q).unwrap();
            std::hint::black_box(r.len());
        });
        rows.push(vec![
            depth.to_string(),
            format!("{naive_us:.0}"),
            format!("{cvt_us:.0}"),
        ]);
    }
    print_table(
        "E4 — XPath: naive per-context evaluation vs polynomial evaluation (Theorem 4.1)",
        &["query depth", "naive µs (exponential)", "poly µs (flat)"],
        &rows,
    );
}

fn e5_core_xpath_linear() {
    let q = lixto_xpath::parse("//tr[td/i and not(th)]/td").unwrap();
    let mut rows = Vec::new();
    let mut base = None;
    for n in [4_000usize, 16_000, 64_000, 256_000] {
        let doc = synth_doc(n);
        let us = time_us(5, || {
            let r = lixto_xpath::core::eval_core(&doc, &q).unwrap();
            std::hint::black_box(r.len());
        });
        let per_node = us / doc.len() as f64;
        let rel = *base.get_or_insert(per_node);
        rows.push(vec![
            doc.len().to_string(),
            format!("{us:.0}"),
            format!("{:.2}x", per_node / rel),
        ]);
    }
    print_table(
        "E5 — Core XPath: linear in document size ([15])",
        &["nodes", "µs", "µs/node rel"],
        &rows,
    );
}

fn e6_negation_ablation() {
    // Theorems 4.2/4.3: negation forces complement sweeps; the positive
    // fragment avoids them.
    let doc = synth_doc(64_000);
    let mut rows = Vec::new();
    for negs in [0usize, 1, 2, 4] {
        let mut pred = String::from("td/i");
        for _ in 0..negs {
            pred = format!("not({pred})");
        }
        let q = lixto_xpath::parse(&format!("//tr[{pred}]")).unwrap();
        let us = time_us(5, || {
            let r = lixto_xpath::core::eval_core(&doc, &q).unwrap();
            std::hint::black_box(r.len());
        });
        rows.push(vec![
            negs.to_string(),
            lixto_xpath::positive::is_positive_core(&q).to_string(),
            format!("{us:.0}"),
        ]);
    }
    print_table(
        "E6 — negation ablation in Core XPath predicates (positive fragment = Theorem 4.3)",
        &["not() count", "positive?", "µs"],
        &rows,
    );
}

fn e7_xpath_to_tmnf() {
    // Theorem 4.6: linear translation, equivalent answers.
    let doc = synth_doc(8_000);
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16] {
        let q = lixto_xpath::parse(&format!("//tr{}", "[td]/td/parent::tr".repeat(k))).unwrap();
        let t = lixto_xpath::to_tmnf::core_to_datalog(&q).unwrap();
        let trans_us = time_us(5, || {
            let t = lixto_xpath::to_tmnf::core_to_datalog(&q).unwrap();
            std::hint::black_box(t.program.size());
        });
        let direct = lixto_xpath::core::eval_core(&doc, &q).unwrap();
        let translated = lixto_xpath::to_tmnf::eval_translated(&doc, &t).unwrap();
        rows.push(vec![
            q.size().to_string(),
            t.program.size().to_string(),
            format!("{trans_us:.0}"),
            (direct == translated).to_string(),
        ]);
    }
    print_table(
        "E7 — Core XPath → TMNF: linear translation, equal answers (Theorem 4.6)",
        &["|Q|", "|P| out", "translate µs", "answers equal"],
        &rows,
    );
}

fn e8_cq_dichotomy() {
    // Figure 6 dichotomy: NP-hard gadgets over {Child, Child+} vs
    // same-size acyclic queries over a tractable axis set.
    use lixto_cq::{generate, generic, yannakakis, CqAxis};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rows = Vec::new();
    for k in [3usize, 4, 5, 6] {
        let (doc, cq) = generate::hard_instance(k, 6);
        let hard_nodes = generic::count_search_nodes(&doc, &cq);
        let hard_us = time_us(3, || {
            std::hint::black_box(generic::eval_boolean(&doc, &cq));
        });
        let mut rng = StdRng::seed_from_u64(k as u64);
        let doc2 = generate::random_tree(&mut rng, doc.len(), &["s", "d", "t"]);
        let cq2 = generate::random_acyclic_cq(
            &mut rng,
            1 + 2 * k,
            &[CqAxis::Child, CqAxis::NextSiblingPlus],
            &["s", "d", "t"],
        );
        let easy_us = time_us(3, || {
            std::hint::black_box(yannakakis::eval_boolean(&doc2, &cq2).unwrap());
        });
        rows.push(vec![
            (1 + 2 * k).to_string(),
            hard_nodes.to_string(),
            format!("{hard_us:.0}"),
            format!("{easy_us:.0}"),
        ]);
    }
    print_table(
        "E8 — CQ dichotomy: {Child,Child+} gadgets (NP-hard) vs tractable acyclic CQs ([18], Fig. 6)",
        &["vars", "search nodes", "NP-side µs", "tractable µs"],
        &rows,
    );
}

fn e9_ebay_wrapper() {
    // Figure 5 end to end: accuracy and throughput.
    let program = lixto_elog::parse_program(lixto_elog::EBAY_PROGRAM).unwrap();
    let mut rows = Vec::new();
    for n in [10usize, 50, 250] {
        let (web, records) = lixto_workloads::ebay::site(7, n);
        let mut ok = false;
        let us = time_us(3, || {
            let result = lixto_elog::Extractor::new(program.clone(), &web).run();
            ok = result.texts_of("itemdes").len() == records.len()
                && result.texts_of("price").len() == records.len()
                && result.texts_of("bids").len() == records.len();
            std::hint::black_box(result.base.len());
        });
        rows.push(vec![
            n.to_string(),
            ok.to_string(),
            format!("{us:.0}"),
            format!("{:.1}", n as f64 / (us / 1e6) / 1000.0),
        ]);
    }
    print_table(
        "E9 — the Figure 5 eBay wrapper: perfect extraction, throughput",
        &["records", "all fields correct", "µs", "krecords/s"],
        &rows,
    );
}

fn e10_robustness() {
    use lixto_workloads::perturb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let variants = 200;
    let (_, records) = lixto_workloads::ebay::site(3, 6);
    let page = lixto_workloads::ebay::listing_page(&records);
    let fig5 = lixto_elog::parse_program(lixto_elog::EBAY_PROGRAM).unwrap();
    let robust = lixto_elog::parse_program(lixto_workloads::ebay::EBAY_ROBUST_PROGRAM).unwrap();
    let xq = lixto_xpath::parse("/html/body/table/tr/td/a").unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let (mut s_fig5, mut s_robust, mut s_xpath) = (0, 0, 0);
    for _ in 0..variants {
        let mutated = perturb::apply_random(&page, 3, &mut rng);
        let mut web = lixto_elog::StaticWeb::new();
        web.put("www.ebay.com/", mutated.clone());
        let r1 = lixto_elog::Extractor::new(fig5.clone(), &web).run();
        if r1.texts_of("itemdes").len() == records.len() {
            s_fig5 += 1;
        }
        let r2 = lixto_elog::Extractor::new(robust.clone(), &web).run();
        if r2.texts_of("itemdes").len() == records.len() {
            s_robust += 1;
        }
        let doc = lixto_html::parse(&mutated);
        if lixto_xpath::core::eval_core(&doc, &xq).unwrap().len() == records.len() {
            s_xpath += 1;
        }
    }
    let pct = |s: usize| format!("{:.0}%", 100.0 * s as f64 / variants as f64);
    print_table(
        "E10 — wrapper survival under 200 random layout perturbations (§2.5 robustness claim)",
        &["wrapper", "survival"],
        &[
            vec!["Elog (robust, landmark-based)".into(), pct(s_robust)],
            vec!["Elog (Figure 5 literal)".into(), pct(s_fig5)],
            vec!["absolute-path XPath baseline".into(), pct(s_xpath)],
        ],
    );
}

fn e11_induction_vs_visual() {
    use lixto_workloads::induction::{correct_on, learn, Example};
    // How many labeled pages does LR induction need to generalize to 20
    // held-out pages? Visual specification needs one example document
    // (Section 3.2).
    let make = |seed: u64| -> Example {
        let auctions = lixto_workloads::ebay::auctions(seed, 1 + (seed % 5) as usize);
        let page = lixto_workloads::ebay::listing_page(&auctions);
        let targets = auctions
            .iter()
            .map(|a| format!("{} {:.2}", a.currency, a.amount))
            .collect();
        Example { page, targets }
    };
    let held_out: Vec<Example> = (100..120).map(make).collect();
    let mut rows = Vec::new();
    let mut converged_at: Option<usize> = None;
    for n in 1..=8usize {
        let train: Vec<Example> = (0..n as u64).map(make).collect();
        let acc = match learn(&train) {
            Some(w) => {
                held_out.iter().filter(|e| correct_on(&w, e)).count() as f64 / held_out.len() as f64
            }
            None => 0.0,
        };
        if acc == 1.0 && converged_at.is_none() {
            converged_at = Some(n);
        }
        rows.push(vec![n.to_string(), format!("{:.0}%", acc * 100.0)]);
    }
    print_table(
        "E11 — LR wrapper induction: labeled examples vs held-out accuracy (visual spec needs 1)",
        &["examples", "held-out accuracy"],
        &rows,
    );
    println!(
        "LR induction converges at {} examples; the Pattern Builder needs 1 (see lixto-core tests).",
        converged_at.map_or(">8".to_string(), |n| n.to_string())
    );
}

fn e12_pipeline() {
    use lixto_transform::*;
    use lixto_xml::Element;
    let mut pipe = InfoPipe::new();
    let a = pipe.source(
        Component::Wrapper(WrapperComponent {
            program: lixto_elog::parse_program(lixto_workloads::books::SHOP_A_WRAPPER).unwrap(),
            design: lixto_core::XmlDesign::new().root("shopA"),
        }),
        Trigger::EveryTick,
    );
    let b = pipe.source(
        Component::Wrapper(WrapperComponent {
            program: lixto_elog::parse_program(lixto_workloads::books::SHOP_B_WRAPPER).unwrap(),
            design: lixto_core::XmlDesign::new().root("shopB"),
        }),
        Trigger::EveryTick,
    );
    let m = pipe.stage(
        Component::Integrate {
            root: "books".into(),
        },
        vec![a, b],
    );
    let f = pipe.stage(
        Component::Transform(Box::new(|inp: &[Element]| {
            let mut out = Element::new("books");
            for e in inp[0].children_named("book") {
                out.push_element(e.clone());
            }
            Some(out)
        })),
        vec![m],
    );
    pipe.stage(
        Component::Deliver {
            channel: "portal".into(),
            only_on_change: false,
        },
        vec![f],
    );
    let mut rows = Vec::new();
    for per_shop in [8usize, 64, 256] {
        let mut items = 0usize;
        let us = time_us(3, || {
            let delivered = run_ticks(&pipe, 1, &|_| {
                Box::new(lixto_workloads::books::site(5, per_shop).0)
            });
            let doc = lixto_xml::parse(&delivered[0].1.body).unwrap();
            items = doc.children_named("book").count();
        });
        rows.push(vec![
            per_shop.to_string(),
            items.to_string(),
            format!("{us:.0}"),
            format!("{:.1}", items as f64 / (us / 1e6) / 1000.0),
        ]);
    }
    print_table(
        "E12 — Figure 7 books pipeline: two wrappers → integrate → transform → deliver",
        &["books/shop", "items delivered", "µs/tick", "kitems/s"],
        &rows,
    );
}

fn e13_now_playing_and_flights() {
    use lixto_transform::*;
    // Now Playing: 8 playlist wrappers, change-gated delivery; playlists
    // rotate every 3 ticks.
    let mut pipe = InfoPipe::new();
    let mut sources = Vec::new();
    for s in lixto_workloads::radio::STATIONS {
        sources.push(
            pipe.source(
                Component::Wrapper(WrapperComponent {
                    program: lixto_elog::parse_program(&lixto_workloads::radio::playlist_wrapper(
                        s,
                    ))
                    .unwrap(),
                    design: lixto_core::XmlDesign::new().root("station"),
                }),
                Trigger::EveryTick,
            ),
        );
    }
    let m = pipe.stage(
        Component::Integrate {
            root: "nowplaying".into(),
        },
        sources,
    );
    pipe.stage(
        Component::Deliver {
            channel: "pda".into(),
            only_on_change: true,
        },
        vec![m],
    );
    let delivered = run_ticks(&pipe, 12, &|tick| {
        Box::new(lixto_workloads::radio::site(3, tick / 3, 0))
    });
    print_table(
        "E13a — Now Playing (§6.1): deliveries to the PDA over 12 ticks (playlists rotate every 3)",
        &["metric", "value"],
        &[
            vec![
                "sources wrapped".into(),
                "8 playlists (site has 14 sources)".into(),
            ],
            vec![
                "deliveries (change-gated)".into(),
                delivered.len().to_string(),
            ],
        ],
    );

    // Flights: SMS only on change (§6.2).
    let mut pipe = InfoPipe::new();
    let w = pipe.source(
        Component::Wrapper(WrapperComponent {
            program: lixto_elog::parse_program(lixto_workloads::flights::FLIGHT_WRAPPER).unwrap(),
            design: lixto_core::XmlDesign::new().root("flights"),
        }),
        Trigger::EveryTick,
    );
    pipe.stage(
        Component::Deliver {
            channel: "sms".into(),
            only_on_change: true,
        },
        vec![w],
    );
    let ticks = 20u64;
    let delivered = run_ticks(&pipe, ticks, &|tick| {
        Box::new(lixto_workloads::flights::site(11, 8, tick / 4))
    });
    print_table(
        "E13b — flight status (§6.2): SMS only on change",
        &["metric", "value"],
        &[
            vec!["polls".into(), ticks.to_string()],
            vec!["distinct web states".into(), "5 (every 4 ticks)".into()],
            vec!["SMS deliveries".into(), delivered.len().to_string()],
        ],
    );
}

fn e14_mso_equivalence() {
    use lixto_automata::mso::*;
    // Theorem 2.5 shape: the MSO yardstick agrees with monadic datalog.
    let seed = forall_fo("z", implies(label("z", "i"), member("z", "X")));
    let closed_fc = forall_fo(
        "u",
        forall_fo(
            "v",
            implies(
                and(member("u", "X"), first_child("u", "v")),
                member("v", "X"),
            ),
        ),
    );
    let closed_ns = forall_fo(
        "u",
        forall_fo(
            "v",
            implies(
                and(member("u", "X"), next_sibling("u", "v")),
                member("v", "X"),
            ),
        ),
    );
    let phi = forall_so(
        "X",
        implies(and(seed, and(closed_fc, closed_ns)), member("x", "X")),
    );
    let q = MsoQuery::new("x", phi).unwrap();
    let program = lixto_datalog::parse_program(
        r#"italic(X) :- label(X, "i").
           italic(X) :- italic(X0), firstchild(X0, X).
           italic(X) :- italic(X0), nextsibling(X0, X)."#,
    )
    .unwrap();
    let docs = [
        "<p><i>a</i>d</p>",
        "<p><i>a<b>c</b></i><u>n</u></p>",
        "<div><p>x</p><i><i>y</i></i></div>",
    ];
    let mut rows = Vec::new();
    for html in docs {
        let doc = lixto_html::parse(html);
        let mso_sel = q.eval(&doc);
        let dl_sel = lixto_datalog::MonadicEvaluator::new(&doc)
            .eval_predicate(&program, "italic")
            .unwrap();
        rows.push(vec![
            html.to_string(),
            mso_sel.len().to_string(),
            dl_sel.len().to_string(),
            (mso_sel == dl_sel).to_string(),
        ]);
    }
    print_table(
        "E14 — MSO vs monadic datalog on Example 2.1 (Theorem 2.5: the selections coincide)",
        &["document", "MSO |sel|", "datalog |sel|", "equal"],
        &rows,
    );
    println!("compiled MSO automaton: {} states", q.automaton().n_states);
}
