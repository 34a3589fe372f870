//! Property-based cross-engine equivalences: the different evaluators in
//! this repository implement the same semantics, so on random inputs they
//! must agree — the Figure 6 landscape as a proptest.

use proptest::prelude::*;

/// Strategy: a small random HTML-ish document.
fn arb_doc() -> impl Strategy<Value = String> {
    let tag = prop::sample::select(vec!["div", "p", "table", "tr", "td", "i", "b", "a"]);
    // A flat-ish random nesting built from a sequence of (open/close/text) ops.
    proptest::collection::vec((tag, 0u8..3), 1..20).prop_map(|ops| {
        let mut html = String::from("<html><body>");
        let mut stack: Vec<&str> = Vec::new();
        for (t, action) in ops {
            match action {
                0 => {
                    html.push_str(&format!("<{t}>"));
                    stack.push(t);
                }
                1 => {
                    if let Some(top) = stack.pop() {
                        html.push_str(&format!("</{top}>"));
                    } else {
                        html.push('x');
                    }
                }
                _ => html.push_str("txt "),
            }
        }
        while let Some(top) = stack.pop() {
            html.push_str(&format!("</{top}>"));
        }
        html.push_str("</body></html>");
        html
    })
}

/// Strategy: a random Core XPath query from a small grammar.
fn arb_query() -> impl Strategy<Value = String> {
    let name = prop::sample::select(vec!["div", "p", "table", "tr", "td", "i", "b", "a"]);
    let axis = prop::sample::select(vec![
        "", // child abbreviation
        "descendant::",
        "following-sibling::",
        "preceding-sibling::",
        "ancestor::",
        "following::",
    ]);
    let pred_name = prop::sample::select(vec!["td", "i", "a", "p"]);
    let pred_kind = 0u8..3;
    (name.clone(), axis, name, pred_kind, pred_name).prop_map(|(n1, ax, n2, pk, pn)| {
        let pred = match pk {
            0 => String::new(),
            1 => format!("[{pn}]"),
            _ => format!("[not({pn})]"),
        };
        format!("//{n1}{pred}/{ax}{n2}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core XPath: the linear evaluator, the polynomial evaluator and the
    /// naive baseline agree (after dedup) on random docs and queries.
    #[test]
    fn xpath_evaluators_agree(html in arb_doc(), q in arb_query()) {
        let doc = lixto_html::parse(&html);
        let query = lixto_xpath::parse(&q).unwrap();
        let core = lixto_xpath::core::eval_core(&doc, &query).unwrap();
        let cvt = lixto_xpath::cvt::eval(&doc, &query).unwrap();
        prop_assert_eq!(&core, &cvt, "core vs cvt on {} over {}", q, html);
        let mut naive = lixto_xpath::naive::eval_naive(&doc, &query);
        naive.sort_by_key(|&n| doc.order().pre(n));
        naive.dedup();
        prop_assert_eq!(&core, &naive, "core vs naive on {} over {}", q, html);
    }

    /// Theorem 4.6 as a property: translation to datalog preserves answers.
    #[test]
    fn xpath_tmnf_translation_preserves_answers(html in arb_doc(), q in arb_query()) {
        let doc = lixto_html::parse(&html);
        let query = lixto_xpath::parse(&q).unwrap();
        let want = lixto_xpath::core::eval_core(&doc, &query).unwrap();
        let t = lixto_xpath::to_tmnf::core_to_datalog(&query).unwrap();
        let got = lixto_xpath::to_tmnf::eval_translated(&doc, &t).unwrap();
        prop_assert_eq!(want, got, "query {} over {}", q, html);
    }

    /// The HTML parser always produces a tree whose relations satisfy the
    /// τ_ur invariants.
    #[test]
    fn tau_ur_invariants(html in arb_doc()) {
        let doc = lixto_html::parse(&html);
        let o = doc.order();
        for n in doc.node_ids() {
            // firstchild/nextsibling functional + inverse-consistent
            if let Some(fc) = doc.first_child(n) {
                prop_assert_eq!(doc.parent(fc), Some(n));
                prop_assert!(doc.is_first_sibling(fc));
            }
            if let Some(ns) = doc.next_sibling(n) {
                prop_assert_eq!(doc.prev_sibling(ns), Some(n));
                prop_assert_eq!(doc.parent(ns), doc.parent(n));
                prop_assert!(doc.doc_before(n, ns));
            }
            // ancestor iff pre/post sandwich
            for m in doc.node_ids() {
                let anc = doc.is_ancestor_or_self(n, m);
                let sandwich = o.pre(n) <= o.pre(m) && o.post(n) >= o.post(m);
                prop_assert_eq!(anc, sandwich);
            }
        }
    }

    /// Monadic datalog: the linear tree pipeline equals the general
    /// engine on random tree-shaped programs.
    #[test]
    fn datalog_engines_agree(html in arb_doc(), seed_label in prop::sample::select(vec!["td", "i", "p"])) {
        let doc = lixto_html::parse(&html);
        let src = format!(
            r#"seed(X) :- label(X, "{seed_label}").
               below(X) :- seed(S), child(S, X).
               below(X) :- below(S), child(S, X).
               mark(X) :- below(X), leaf(X)."#
        );
        let program = lixto_datalog::parse_program(&src).unwrap();
        let fast = lixto_datalog::MonadicEvaluator::new(&doc).eval(&program).unwrap();
        let db = lixto_datalog::tree_db(&doc);
        let slow = lixto_datalog::seminaive::eval(&db, &program).unwrap();
        for pred in program.idb_predicates() {
            let got: Vec<u32> = fast[&pred].iter().map(|n| n.index() as u32).collect();
            let mut want: Vec<u32> = slow.tuples(&pred).map(|t| t[0]).collect();
            want.sort_by_key(|&c| doc.order().pre(lixto_tree::NodeId::from_index(c as usize)));
            prop_assert_eq!(got, want, "{}", pred);
        }
    }

    /// CQ solvers agree on random acyclic queries (Yannakakis vs
    /// backtracking).
    #[test]
    fn cq_solvers_agree(tree_seed in 0u64..500, q_seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(tree_seed);
        let doc = lixto_cq::generate::random_tree(&mut rng, 25, &["a", "b", "c"]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(q_seed);
        let cq = lixto_cq::generate::random_acyclic_cq(
            &mut rng,
            4,
            &[
                lixto_cq::CqAxis::Child,
                lixto_cq::CqAxis::ChildPlus,
                lixto_cq::CqAxis::NextSiblingStar,
                lixto_cq::CqAxis::Following,
            ],
            &["a", "b", "c"],
        );
        let fast = lixto_cq::yannakakis::eval_boolean(&doc, &cq).unwrap();
        let slow = lixto_cq::generic::eval_boolean(&doc, &cq);
        prop_assert_eq!(fast, slow);
    }

    /// A one-step `?.label` path run by the Elog executor's top-down path
    /// automaton selects exactly the nodes below the root that the unary
    /// MSO query label(x), evaluated through the bottom-up DTA pipeline,
    /// selects.
    #[test]
    fn single_descendant_step_agrees_with_mso_label_query(
        html in arb_doc(),
        label in prop::sample::select(vec!["div", "p", "td", "i"]),
    ) {
        let doc = lixto_html::parse(&html);
        let roots: Vec<_> = doc.children(doc.root()).collect();
        let auto = lixto_elog::topdown::PathAutomaton::new(&[true]).unwrap();
        let mut got = Vec::new();
        let test = |_, n| doc.label_str(n) == label;
        auto.run(&doc, &roots, test, |n| got.push(n), &mut Vec::new());
        let phi = lixto_automata::mso::label("x", label);
        let mut want = lixto_automata::mso::MsoQuery::new("x", phi).unwrap().eval(&doc);
        want.sort_by_key(|&n| doc.order().pre(n));
        prop_assert_eq!(got, want, "?.{} over {}", label, html);
    }

    /// The regex engine agrees with itself across equivalent pattern
    /// rewritings (a+ ≡ aa*), and find/captures are consistent.
    #[test]
    fn regex_consistency(hay in "[ab]{0,12}") {
        let plus = lixto_regexlite::Regex::new("ab+").unwrap();
        let star = lixto_regexlite::Regex::new("abb*").unwrap();
        prop_assert_eq!(plus.is_match(&hay), star.is_match(&hay));
        if let Some(m) = plus.find(&hay) {
            let m2 = star.find(&hay).unwrap();
            prop_assert_eq!((m.start, m.end), (m2.start, m2.end));
        }
    }
}
