//! Named regression tests promoted from the checked-in proptest
//! regression seed files (`tests/*.proptest-regressions`).
//!
//! The seed files replay only when the owning proptest runs, are easy
//! to lose in refactors (they key on the *strategy*, so a changed
//! strategy silently orphans them), and say nothing about *why* the
//! case once failed. These tests pin the shrunken counterexamples as
//! plain `#[test]`s that always run, with the failing inputs inlined.

use std::sync::Arc;
use xqr::xqr_tokenstream::{decode, encode, tokens_to_xml, TokenStream};
use xqr::{Engine, EngineOptions, NodeId};
use xqr_xdm::NamePool;

/// From `proptest_roundtrip.proptest-regressions`
/// (`wire_encoding_roundtrips`, `pooled = true`): nested repeated tags
/// with empty and single-char attribute values. The pooled wire
/// encoding dedupes text through the buffer pool; this shape once broke
/// the decode side's pool reconstruction.
#[test]
fn wire_encoding_pooled_nested_repeats() {
    let xml = "<r><a>a</a><r><a>A</a><a>B</a><r a=\"\"><a>5</a></r><a>b</a></r>\
               <r><a> </a><r a=\"0\"><a>c</a></r><a>C</a></r></r>";
    let names = Arc::new(NamePool::new());
    let stream = TokenStream::from_xml(xml, names).unwrap();
    for pooled in [true, false] {
        let bytes = encode(&stream, pooled);
        let decoded = decode(bytes, Arc::new(NamePool::new())).unwrap();
        let a = tokens_to_xml(&mut stream.iter(), Default::default()).unwrap();
        let b = tokens_to_xml(&mut decoded.iter(), Default::default()).unwrap();
        assert_eq!(a, b, "pooled = {pooled}");
    }
}

/// From `proptest_semantics.proptest-regressions` (`pattern = "//d"`):
/// a document with `d` elements at several depths including
/// immediately-nested `d/d` — the shape that distinguishes "all
/// matches" from "outermost matches only".
const SEMANTICS_SEED_DOC: &str = "<root><t1></t1><d></d><d><d></d></d><a><t0>x</t0></a>\
     <t2><d></d></t2><a></a><a>x<d></d></a><d></d>\
     <t2><a></a><t1></t1><t0></t0></t2><a></a><t2><d></d><d></d></t2></root>";

/// The twig-join side of the pinned case: `//d` through the structural
/// join machinery must agree with exhaustive navigation.
#[test]
fn semantics_seed_doc_joins_agree_on_slash_slash_d() {
    use xqr::xqr_joins::{element_list, enumerate_matches, path_stack, twig_stack, TwigPattern};
    use xqr::Document;

    let names = Arc::new(NamePool::new());
    let doc = Document::parse(SEMANTICS_SEED_DOC, names.clone()).unwrap();
    let twig = TwigPattern::parse("//d", &names).unwrap();
    let lists: Vec<_> = twig
        .nodes
        .iter()
        .map(|n| element_list(&doc, n.name))
        .collect();
    let mut want = enumerate_matches(&doc, &twig);
    want.sort();
    want.dedup();
    assert_eq!(path_stack(&twig, &lists), want);
    let (got, _) = twig_stack(&twig, &lists);
    assert_eq!(got, want);
    // 8 `d` elements in the document, one nested inside another `d`.
    assert_eq!(want.len(), 8);
}

/// The engine side of the pinned case: the streaming automaton emits
/// every `//d` match — the nested `d/d` one included — exactly as
/// materialized evaluation does.
#[test]
fn semantics_seed_doc_streaming_matches_materialized() {
    let engine = Engine::new();
    let q = engine.compile("//d").unwrap();
    assert!(q.is_streamable());
    let mut count = 0u64;
    let mut streamed = String::new();
    q.execute_streaming(&engine, SEMANTICS_SEED_DOC, |m| {
        count += 1;
        streamed.push_str(m);
    })
    .unwrap();
    // 8 `d` elements, one of them inside another `d`.
    assert_eq!(count, 8);
    assert_eq!(
        streamed,
        engine.query_xml(SEMANTICS_SEED_DOC, "//d").unwrap()
    );
}

/// Streaming `count(//d)` once reused an outermost-only matcher and
/// skipped every match's subtree, so a `d` nested inside a `d` went
/// uncounted: 2 instead of 3 on the small document. The count now comes
/// from the same one-pattern run `execute_streaming` uses.
#[test]
fn streaming_count_includes_nested_matches() {
    let engine = Engine::new();
    let q = engine.compile("count(//d)").unwrap();
    assert!(q.is_streamable_count());
    for xml in ["<a><d><d/></d><d/></a>", SEMANTICS_SEED_DOC] {
        let (n, _) = q.execute_streaming_count(&engine, xml).unwrap();
        assert_eq!(
            n.to_string(),
            engine.query_xml(xml, "count(//d)").unwrap(),
            "{xml}"
        );
    }
}

#[test]
fn semantics_seed_doc_optimizer_agrees() {
    for q in [
        "count(//d)",
        "(//d)[2]",
        "for $x in //a return count($x/d)",
        "string((//a)[1])",
    ] {
        let optimized = Engine::new().query_xml(SEMANTICS_SEED_DOC, q).unwrap();
        let baseline = Engine::with_options(EngineOptions::unoptimized())
            .query_xml(SEMANTICS_SEED_DOC, q)
            .unwrap();
        assert_eq!(optimized, baseline, "query {q}");
    }
}

/// The streaming extractor silently caps patterns at
/// [`StreamPattern::MAX_STEPS`] steps (the matcher's per-element prefix
/// state is a `u32` bitmask, so step 32 would shift out of it). A path
/// one step past the cap must still answer — via the navigational
/// path — not stream wrongly and not error.
#[test]
fn paths_beyond_the_streaming_step_cap_answer_navigationally() {
    use xqr::xqr_runtime::StreamPattern;

    let depth = StreamPattern::MAX_STEPS + 1;
    let mut xml = String::new();
    for _ in 0..depth {
        xml.push_str("<s>");
    }
    xml.push('x');
    for _ in 0..depth {
        xml.push_str("</s>");
    }
    let engine = Engine::new();

    // At the cap: still streamable, and streaming agrees with
    // materialized evaluation byte-for-byte.
    let at_cap = "/s".repeat(StreamPattern::MAX_STEPS);
    let plan = engine.compile(&at_cap).unwrap();
    assert!(plan.is_streamable());
    let mut streamed = String::new();
    plan.execute_streaming(&engine, &xml, |m| streamed.push_str(m))
        .unwrap();
    assert_eq!(streamed, engine.query_xml(&xml, &at_cap).unwrap());

    // One past the cap: the plan quietly refuses to stream and the
    // navigational path answers correctly.
    let past_cap = "/s".repeat(depth);
    let plan = engine.compile(&past_cap).unwrap();
    assert!(
        !plan.is_streamable(),
        "{depth} steps exceed the streaming cap of {}",
        StreamPattern::MAX_STEPS
    );
    assert_eq!(engine.query_xml(&xml, &past_cap).unwrap(), "<s>x</s>");
}

/// Guard against the root-cause class of the roundtrip seed: documents
/// whose store form and wire form must agree node-for-node.
#[test]
fn roundtrip_seed_doc_store_form_is_stable() {
    let xml = "<r><a>a</a><r><a>A</a><a>B</a><r a=\"\"><a>5</a></r><a>b</a></r>\
               <r><a> </a><r a=\"0\"><a>c</a></r><a>C</a></r></r>";
    let names = Arc::new(NamePool::new());
    let doc = xqr::Document::parse(xml, names).unwrap();
    let once = doc.serialize_node(NodeId(0));
    let names2 = Arc::new(NamePool::new());
    let doc2 = xqr::Document::parse(&once, names2).unwrap();
    assert_eq!(doc2.serialize_node(NodeId(0)), once);
}

// ---------------------------------------------------------------------
// Morsel-boundary regressions for the parallel twig executor. The
// partition puts each root-list chunk in exactly one morsel and slices
// the other lists to the chunk's label window; these pin the seam cases
// where that slicing has to replicate, dedupe, or degenerate.

/// Serial vs parallel comparison over an explicit document and twig, at
/// an explicit morsel count.
fn assert_parallel_matches_serial(xml: &str, pattern: &str, morsels: usize) {
    use xqr::xqr_joins::{element_list, twig_stack, TwigPattern};
    use xqr::xqr_parallel::{parallel_twig_stack, ParallelConfig};
    use xqr::Document;
    use xqr_xdm::{Limits, QueryGuard};

    let names = Arc::new(NamePool::new());
    let doc = Document::parse(xml, names.clone()).unwrap();
    let twig = TwigPattern::parse(pattern, &names).unwrap();
    let lists: Vec<Vec<_>> = twig
        .nodes
        .iter()
        .map(|n| element_list(&doc, n.name))
        .collect();
    let (want, _) = twig_stack(&twig, &lists);
    let shared: Vec<_> = lists.into_iter().map(Arc::new).collect();
    let guard = QueryGuard::new(Limits::unlimited());
    let (got, run) =
        parallel_twig_stack(&twig, shared, &ParallelConfig::forced(morsels), &guard).unwrap();
    assert_eq!(
        got, want,
        "morsels={morsels} diverged on {pattern:?} over {xml:?} \
         (ran {} morsels)",
        run.morsels
    );
}

/// A deep chain of `a` elements whose only `b` witness sits at the
/// bottom: every chunk's ancestors *straddle* later chunks, so each
/// morsel's descendant window must extend to the chunk's maximum `end`,
/// not its last `start`.
#[test]
fn morsel_seam_straddling_ancestors_keep_their_deep_witness() {
    let mut xml = String::new();
    for _ in 0..7 {
        xml.push_str("<a>");
    }
    xml.push_str("<b/>");
    for _ in 0..7 {
        xml.push_str("</a>");
    }
    for morsels in [2, 3, 5, 7, 16] {
        assert_parallel_matches_serial(&xml, "//a//b", morsels);
        assert_parallel_matches_serial(&xml, "//a[b]", morsels);
    }
}

/// Witness lists replicated into adjacent morsel windows must not
/// produce duplicate tuples after the merge: sibling `a` subtrees share
/// `b`/`c` names right at the chunk seams.
#[test]
fn morsel_seam_replicated_witnesses_do_not_duplicate_tuples() {
    let xml = "<r>\
        <a><b/><c/></a><a><b/><b/><c/></a><a><c/></a>\
        <a><a><b/><c/></a><c/></a><a><b/><c/></a>\
        </r>";
    for morsels in [2, 3, 4, 5, 8] {
        assert_parallel_matches_serial(xml, "//a[b]/c", morsels);
        assert_parallel_matches_serial(xml, "//a[b][c]", morsels);
        assert_parallel_matches_serial(xml, "//a//c", morsels);
    }
}

/// More morsels than root-list entries: the tail chunks are empty and
/// must contribute nothing (and not panic on empty ranges).
#[test]
fn morsel_count_beyond_root_list_yields_empty_morsels() {
    let xml = "<r><a><b/></a><a/><a><b/></a></r>";
    for morsels in [4, 8, 64] {
        assert_parallel_matches_serial(xml, "//a//b", morsels);
    }
}

/// The degenerate single-node document: one root-list entry, every
/// forced split collapses to one non-empty morsel.
#[test]
fn morsel_split_of_a_single_node_document() {
    assert_parallel_matches_serial("<a/>", "//a", 4);
    assert_parallel_matches_serial("<a><b/></a>", "//a//b", 4);

    // And end to end through the engine: forced parallel on a one-node
    // document must still answer.
    use xqr::xqr_runtime::ParallelConfig;
    let engine =
        Engine::with_options(EngineOptions::default().with_parallel(ParallelConfig::forced(4)));
    assert_eq!(engine.query_xml("<a/>", "count(//a)").unwrap(), "1");
}
