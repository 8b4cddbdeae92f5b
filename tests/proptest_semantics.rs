//! Property tests on semantics: the optimizer must preserve results, the
//! join algorithms must agree with the navigational oracle, and the
//! streaming matcher must agree with materialized evaluation — all over
//! randomized documents.

use proptest::prelude::*;
use std::sync::Arc;
use xqr::xqr_joins::{
    element_list, enumerate_matches, matches_of_node, mpmgjn, nested_loop, normalize, path_stack,
    stack_tree_anc, stack_tree_desc, twig_stack, JoinKind, TwigPattern,
};
use xqr::{
    CompileOptions, Document, DynamicContext, Engine, EngineOptions, Limits, QueryGuard,
    RewriteConfig, RuntimeOptions,
};
use xqr_xdm::NamePool;
use xqr_xmlgen::{random_tree, RandomTreeConfig};

fn arb_tree() -> impl Strategy<Value = String> {
    (any::<u64>(), 20usize..300, 2usize..8).prop_map(|(seed, nodes, depth)| {
        random_tree(&RandomTreeConfig {
            seed,
            nodes,
            max_depth: depth,
            alphabet: 3,
            p_ancestor: 0.2,
            p_descendant: 0.3,
            p_text: 0.2,
            ..Default::default()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn structural_joins_agree_with_oracle(xml in arb_tree(), parent_child in any::<bool>()) {
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let a = names.intern(&xqr_xdm::QName::local("a"));
        let d = names.intern(&xqr_xdm::QName::local("d"));
        let alist = element_list(&doc, a);
        let dlist = element_list(&doc, d);
        let kind = if parent_child { JoinKind::ParentChild } else { JoinKind::AncestorDescendant };
        let want = normalize(nested_loop(&alist, &dlist, kind));
        prop_assert_eq!(&want, &normalize(stack_tree_desc(&alist, &dlist, kind)));
        prop_assert_eq!(&want, &normalize(stack_tree_anc(&alist, &dlist, kind)));
        prop_assert_eq!(&want, &normalize(mpmgjn(&alist, &dlist, kind)));
    }

    #[test]
    fn pathstack_agrees_with_navigation(xml in arb_tree(), pattern in prop_oneof![
        Just("//a//d"), Just("//a/d"), Just("/root//a/d"), Just("//a//t0//d"), Just("//t0/a//d")
    ]) {
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let twig = TwigPattern::parse(pattern, &names).unwrap();
        let lists: Vec<_> = twig.nodes.iter().map(|n| element_list(&doc, n.name)).collect();
        let got = path_stack(&twig, &lists);
        let mut want = enumerate_matches(&doc, &twig);
        want.sort();
        want.dedup();
        prop_assert_eq!(got, want, "pattern {} on {}", pattern, xml);
    }

    #[test]
    fn twigstack_agrees_with_navigation(xml in arb_tree(), pattern in prop_oneof![
        Just("//a[t0]/d"), Just("//a[d]//t0"), Just("//a[t1][t0]/d"), Just("//a[//d]/t0")
    ]) {
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let twig = TwigPattern::parse(pattern, &names).unwrap();
        let lists: Vec<_> = twig.nodes.iter().map(|n| element_list(&doc, n.name)).collect();
        let (got, _) = twig_stack(&twig, &lists);
        let mut want = enumerate_matches(&doc, &twig);
        want.sort();
        want.dedup();
        prop_assert_eq!(got, want, "pattern {} on {}", pattern, xml);
    }

    #[test]
    fn twig_output_node_matches_engine(xml in arb_tree()) {
        // //a//d via the joins crate vs the engine's path evaluation.
        let names = Arc::new(NamePool::new());
        let doc = Document::parse(&xml, names.clone()).unwrap();
        let twig = TwigPattern::parse("//a//d", &names).unwrap();
        let nodes = matches_of_node(&doc, &twig, 1);
        let engine = Engine::new();
        let out = engine.query_xml(&xml, "count(//a//d)").unwrap();
        prop_assert_eq!(out, nodes.len().to_string());
    }

    #[test]
    fn optimizer_preserves_query_results(xml in arb_tree(), qidx in 0usize..10) {
        let queries = [
            "count(//a)",
            "count(//a//d)",
            "for $x in //a return count($x/d)",
            "(//d)[2]",
            "string((//a)[1])",
            "for $x in //a where exists($x/t0) return 1",
            "sum(for $x in //* return 1)",
            "every $x in //a satisfies count($x/ancestor::*) ge 1",
            "<n c=\"{count(//d)}\"/>",
            "for $x in //a, $y in //d where count($x) = count($y) return 1",
        ];
        let q = queries[qidx];
        let run = |rewrite: RewriteConfig| -> String {
            let engine = Engine::with_options(EngineOptions {
                compile: CompileOptions { rewrite, ..Default::default() },
                ..Default::default()
            });
            engine.query_xml(&xml, q).unwrap()
        };
        prop_assert_eq!(run(RewriteConfig::all()), run(RewriteConfig::none()), "query {}", q);
    }

    #[test]
    fn streaming_matches_materialized_exact(xml in arb_tree(), pattern in prop_oneof![
        Just("/root/a"), Just("/root/a/d"), Just("/root/t0/a")
    ]) {
        // Child-only patterns: exact agreement.
        let engine = Engine::new();
        let q = engine.compile(pattern).unwrap();
        prop_assume!(q.is_streamable());
        let mut streamed = String::new();
        q.execute_streaming(&engine, &xml, |m| streamed.push_str(m)).unwrap();
        let materialized = engine.query_xml(&xml, pattern).unwrap();
        prop_assert_eq!(streamed, materialized, "pattern {}", pattern);
    }

    #[test]
    fn streaming_descendant_paths_match_materialized(xml in arb_tree(), tag in prop_oneof![
        Just("a"), Just("d")
    ]) {
        // Descendant patterns emit every match, nested ones included,
        // in document order: exactly the materialized result, and the
        // streaming count equals the materialized count.
        let engine = Engine::new();
        let path = format!("//{tag}");
        let q = engine.compile(&path).unwrap();
        prop_assert!(q.is_streamable());
        let mut streamed = String::new();
        q.execute_streaming(&engine, &xml, |m| streamed.push_str(m)).unwrap();
        prop_assert_eq!(streamed, engine.query_xml(&xml, &path).unwrap(), "tag {}", tag);
        let count = format!("count({path})");
        let (n, _) = engine.compile(&count).unwrap().execute_streaming_count(&engine, &xml).unwrap();
        prop_assert_eq!(n.to_string(), engine.query_xml(&xml, &count).unwrap(), "tag {}", tag);
    }

    #[test]
    fn ddo_is_idempotent_through_the_engine(xml in arb_tree()) {
        // Applying a path twice through unions cannot change the set.
        let engine = Engine::new();
        let once = engine.query_xml(&xml, "count(//a)").unwrap();
        let twice = engine.query_xml(&xml, "count(//a | //a)").unwrap();
        prop_assert_eq!(once, twice);
    }
}

/// Grammar-template generator for *closed* queries (also used by the
/// parser's printer proptest; duplicated here to fuzz full evaluation).
fn arb_closed_query() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        (0i64..100).prop_map(|i| i.to_string()),
        (0u32..50, 1u32..50).prop_map(|(a, b)| format!("{a}.{b}")),
        "[a-z]{1,5}".prop_map(|s| format!("\"{s}\"")),
        Just("()".to_string()),
        Just("(1, 2, 3)".to_string()),
    ];
    atom.prop_recursive(4, 40, 4, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![Just("+"), Just("-"), Just("*"), Just("idiv"), Just("mod")]
            )
                .prop_map(|(a, b, op)| format!("({a} {op} {b})")),
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just("eq"),
                    Just("="),
                    Just("!="),
                    Just("le"),
                    Just("and"),
                    Just("or")
                ]
            )
                .prop_map(|(a, b, op)| format!("({a} {op} {b})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| format!("(if ({c}) then {t} else {e})")),
            ("[a-z]{1,3}", inner.clone(), inner.clone())
                .prop_map(|(v, src, body)| format!("(for ${v} in {src} return ({body}, ${v}))")),
            ("[a-z]{1,3}", inner.clone(), inner.clone())
                .prop_map(|(v, val, body)| format!("(let ${v} := {val} return (${v}, {body}))")),
            inner.clone().prop_map(|a| format!("count(({a}))")),
            inner.clone().prop_map(|a| format!("reverse(({a}))")),
            inner.clone().prop_map(|a| format!("exists(({a}))")),
            (inner.clone(), 1usize..4).prop_map(|(a, k)| format!("(({a}))[{k}]")),
            ("[a-z]{1,4}", inner.clone()).prop_map(|(t, c)| format!("string(<{t}>{{{c}}}</{t}>)")),
            inner
                .clone()
                .prop_map(|a| format!("(some $q in ({a}) satisfies $q = 1)")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("concat(string(({a})[1]), string(({b})[1]))")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn optimizer_never_changes_successful_results(q in arb_closed_query()) {
        let run = |rewrite: RewriteConfig| {
            let engine = Engine::with_options(EngineOptions {
                compile: CompileOptions { rewrite, ..Default::default() },
                ..Default::default()
            });
            engine.query(&q)
        };
        let unopt = run(RewriteConfig::none());
        let opt = run(RewriteConfig::all());
        match (unopt, opt) {
            // If the naive evaluation succeeds, the optimized one must
            // succeed with the same value.
            (Ok(u), Ok(o)) => prop_assert_eq!(u, o, "query: {}", q),
            (Ok(u), Err(e)) => prop_assert!(false, "optimizer introduced error {} for {} (was {:?})", e, q, u),
            // The rewrite contract allows the optimizer to *avoid*
            // errors (lazy two-value logic), not to introduce them.
            (Err(_), _) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn guarded_execution_never_panics_and_respects_budgets(q in arb_closed_query()) {
        run_guarded_case(&q)?;
    }

    #[test]
    fn guarded_path_queries_over_documents_never_panic(xml in arb_tree(), qidx in 0usize..6) {
        // Same property over documents: budgeted path evaluation either
        // succeeds or returns a coded error.
        let queries = [
            "count(//a)",
            "//a//d",
            "for $x in //* return <r>{string($x)}</r>",
            "(//d)[1]",
            "string-join(for $x in //a return string($x), \",\")",
            "for $x in //a, $y in //d return 1",
        ];
        let limits = Limits::unlimited()
            .with_max_items(20_000)
            .with_max_output_bytes(1 << 18)
            .with_deadline(std::time::Duration::from_secs(5));
        let engine = Engine::with_options(EngineOptions {
            runtime: RuntimeOptions { limits, ..Default::default() },
            ..Default::default()
        });
        match engine.query_xml(&xml, queries[qidx]) {
            Ok(_) => {}
            Err(e) => prop_assert!(
                !e.code.as_str().is_empty(),
                "uncoded error for {} on {}", queries[qidx], xml
            ),
        }
    }
}

/// Resource governance property: under a small budget, any generated
/// query either succeeds or fails with a stable coded error — never a
/// panic (the engine boundary contains those as `err:XQRL0000`) — and
/// the recorded consumption never runs away past the caps.
fn run_guarded_case(q: &str) -> std::result::Result<(), TestCaseError> {
    const MAX_ITEMS: u64 = 50_000;
    let limits = Limits::unlimited()
        .with_max_items(MAX_ITEMS)
        .with_max_output_bytes(1 << 20)
        .with_deadline(std::time::Duration::from_secs(5));
    let engine = Engine::with_options(EngineOptions {
        runtime: RuntimeOptions {
            limits,
            ..Default::default()
        },
        ..Default::default()
    });
    let prepared = match engine.compile(q) {
        Ok(p) => p,
        Err(_) => return Ok(()), // statically invalid — fine
    };
    let guard = QueryGuard::new(limits);
    match prepared.execute_guarded(&engine, &DynamicContext::new(), guard.clone()) {
        Ok(r) => {
            let _ = r.serialize_guarded();
        }
        Err(e) => prop_assert!(!e.code.as_str().is_empty(), "uncoded error for {}", q),
    }
    // Items are charged one at a time, so consumption stops within one
    // charge of the cap.
    let u = guard.usage();
    prop_assert!(
        u.items <= MAX_ITEMS + 1,
        "items gauge ran away: {} for {}",
        u.items,
        q
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn decorrelated_flwor_agrees_with_naive(xml in arb_tree(), ge in 0i64..4) {
        // The Q8 shape with order-by: decorrelation must not change
        // results (order included).
        let q = format!(
            r#"for $p in //a
               let $m := for $t in //d where string($t) = string($p/t0[1]) return $t
               where count($m) ge {ge}
               order by count($m) descending
               return count($m)"#
        );
        let run = |rewrite: RewriteConfig| {
            let engine = Engine::with_options(EngineOptions {
                compile: CompileOptions { rewrite, ..Default::default() },
                ..Default::default()
            });
            engine.query_xml(&xml, &q).unwrap()
        };
        prop_assert_eq!(run(RewriteConfig::all()), run(RewriteConfig::none()));
    }
}
