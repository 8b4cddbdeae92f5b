//! The multi-configuration execution oracle.
//!
//! One case = one query text + one document. The oracle executes the
//! case through every leg of the configuration lattice and compares
//! outcomes against the **reference** leg (materialized, unoptimized
//! engine) under the optimizer contract spelled out in the crate docs:
//! optimizations may avoid errors but may never introduce them, and
//! may never change a successful result.

use std::time::Duration;
use xqr_compiler::{CompileOptions, RewriteConfig, RewriteStats};
use xqr_core::{Engine, EngineOptions, Item, NodeId, NodeRef};
use xqr_runtime::{DynamicContext, RuntimeOptions};
use xqr_service::{QueryService, ServiceConfig};
use xqr_xdm::{Error, ErrorCode, Limits};

/// Budgets applied to every leg of every case. Generous enough that a
/// legitimate case never trips them; tight enough that a pathological
/// generated query (cartesian `//node()` products…) cannot wedge a run.
pub fn fuzz_limits() -> Limits {
    Limits::unlimited()
        .with_deadline(Duration::from_secs(10))
        .with_max_items(1_000_000)
        .with_max_output_bytes(8 * 1024 * 1024)
}

/// One leg's outcome: serialized result or stable error code + message.
pub type LegOutcome = Result<String, (ErrorCode, String)>;

fn outcome_of(r: Result<String, Error>) -> LegOutcome {
    r.map_err(|e| (e.code, e.to_string()))
}

/// Is this a resource verdict (deadline, budget, shedding) rather than
/// a semantic outcome? Those are timing-dependent, so a leg reporting
/// one makes the case *skipped*, not divergent.
fn is_resource(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::Limit
            | ErrorCode::Timeout
            | ErrorCode::Cancelled
            | ErrorCode::Overloaded
            | ErrorCode::Unavailable
    )
}

/// The comparison verdict for one case.
#[derive(Debug)]
pub enum Verdict {
    /// Every leg agreed with the reference (all `Ok`, equal bytes).
    Agree,
    /// The reference failed; every leg either failed too or legally
    /// avoided the error.
    AgreeError(ErrorCode),
    /// A resource budget fired somewhere — not comparable.
    Skipped(&'static str),
    /// Disagreement: the named leg broke the contract.
    Diverged(Divergence),
}

#[derive(Debug)]
pub struct Divergence {
    /// Which leg disagreed (`optimized`, `indexed`, `parallel`,
    /// `service`, `service-cached`, `streaming`).
    pub leg: &'static str,
    pub reference: LegOutcome,
    pub actual: LegOutcome,
}

/// Everything the oracle learned about one case.
pub struct CaseResult {
    pub verdict: Verdict,
    /// Optimizer rule firings for the optimized compilation (empty when
    /// compilation failed).
    pub rewrite_stats: RewriteStats,
    /// Whether the streaming leg ran (streamable + exact).
    pub streamed: bool,
}

/// The oracle: owns a long-lived [`QueryService`] (so its plan cache
/// sees the whole run and cycles through eviction) plus the engine
/// options for the per-case reference and optimized legs.
pub struct Oracle {
    ref_options: EngineOptions,
    opt_options: EngineOptions,
    idx_options: EngineOptions,
    par_options: EngineOptions,
    service: QueryService,
    case_no: u64,
}

impl Oracle {
    /// `mutate` switches on the deliberate constant-folding miscompile
    /// (`RewriteConfig::debug_miscompile_sub`) in every *optimized* leg,
    /// for the harness's own sanity check: a run with `mutate` that
    /// reports zero divergences means the oracle is blind.
    pub fn new(mutate: bool) -> Oracle {
        let limits = fuzz_limits();
        let mut ref_options = EngineOptions::unoptimized();
        ref_options.runtime.limits = limits;
        let mut rewrite = RewriteConfig::all();
        rewrite.debug_miscompile_sub = mutate;
        // Optimized leg: full rewrites + access-path selection, but NO
        // document indexes — every planted `IndexScan` misses and takes
        // its navigational fallback, so the fallback path is fuzzed too.
        let opt_options = EngineOptions {
            compile: CompileOptions {
                rewrite,
                ..Default::default()
            },
            runtime: RuntimeOptions {
                limits,
                ..Default::default()
            },
            index_documents: false,
        };
        // Indexed leg: same plans, but documents carry structural
        // indexes, so index-eligible subtrees are answered from the
        // tag/path inverted lists instead of navigation.
        let idx_options = EngineOptions {
            index_documents: true,
            ..opt_options.clone()
        };
        // Parallel leg: the indexed leg with morsel splitting *forced*
        // (3 morsels, no minimum input size), so even tiny fuzz
        // documents exercise label-range partitioning, boundary
        // replication and the document-order merge. Output must be
        // byte-identical to the serial legs.
        let par_options = EngineOptions {
            runtime: RuntimeOptions {
                limits,
                parallel: xqr_runtime::ParallelConfig::forced(3),
                ..Default::default()
            },
            ..idx_options.clone()
        };
        let service = QueryService::new(ServiceConfig {
            engine: opt_options.clone(),
            // Small on purpose: a few hundred distinct queries per run
            // cycle the LRU through plenty of evictions.
            plan_cache_capacity: 64,
            plan_cache_shards: 4,
            catalog_max_bytes: Some(16 * 1024 * 1024),
            max_concurrent: 2,
            max_queued: 8,
            per_query_limits: limits,
            // No retries in the differential oracle: a transient code is
            // already a *skip* verdict, and retrying would hide how often
            // legs shed. The chaos harness turns retries on explicitly.
            retry: xqr_service::RetryPolicy::none(),
            persist_dir: None,
            ..Default::default()
        });
        Oracle {
            ref_options,
            opt_options,
            idx_options,
            par_options,
            service,
            case_no: 0,
        }
    }

    /// Aggregate service-side statistics (plan cache, catalog, pool).
    pub fn service_stats(&self) -> xqr_service::ServiceStats {
        self.service.stats()
    }

    /// Run one (query, document) case through every leg and compare.
    pub fn run_case(&mut self, query: &str, xml: &str) -> CaseResult {
        self.case_no += 1;

        // Reference: materialized, unoptimized.
        let reference = run_engine(&self.ref_options, query, xml);

        // Optimized engine. Keep the prepared query around for the
        // streaming leg and the rewrite stats.
        let opt_engine = Engine::with_options(self.opt_options.clone());
        let mut rewrite_stats = RewriteStats::default();
        let mut streamed = false;
        let optimized = outcome_of((|| {
            let prepared = opt_engine.compile(query)?;
            rewrite_stats = prepared.compiled().stats.clone();
            let ctx = xqr_core::context_with_doc(&opt_engine, "fuzz.xml", xml)?;
            prepared.execute(&opt_engine, &ctx)?.serialize_guarded()
        })());

        if let Some(v) = self.compare("optimized", &reference, &optimized) {
            return CaseResult {
                verdict: v,
                rewrite_stats,
                streamed,
            };
        }

        // Indexed: identical compilation, but the document is loaded
        // with a structural index attached, so index-backed access paths
        // actually fire instead of falling back.
        let indexed = run_engine(&self.idx_options, query, xml);
        if let Some(v) = self.compare("indexed", &reference, &indexed) {
            return CaseResult {
                verdict: v,
                rewrite_stats,
                streamed,
            };
        }

        // Parallel: the indexed leg again with forced morsel splitting —
        // the parallel-vs-serial differential. Byte-for-byte agreement
        // with the reference is required, exactly like every other leg.
        let parallel = run_engine(&self.par_options, query, xml);
        if let Some(v) = self.compare("parallel", &reference, &parallel) {
            return CaseResult {
                verdict: v,
                rewrite_stats,
                streamed,
            };
        }

        // Service legs: same plan text twice — the second run is a plan
        // cache hit by construction (capacity 64 ≫ 1 case in flight).
        let doc_name = format!("fuzz-{}.xml", self.case_no);
        for leg in ["service", "service-cached"] {
            let outcome = outcome_of((|| {
                let id = self.service.load_document(&doc_name, xml)?;
                let mut ctx = DynamicContext::new();
                ctx.context_item = Some(Item::Node(NodeRef::new(id, NodeId(0))));
                self.service.run_with_context(query, ctx)
            })());
            if let Some(v) = self.compare(leg, &reference, &outcome) {
                self.service.remove_document(&doc_name);
                return CaseResult {
                    verdict: v,
                    rewrite_stats,
                    streamed,
                };
            }
        }
        self.service.remove_document(&doc_name);

        // Streaming leg: whenever the plan is streamable. The automaton
        // emits every match in document order — the materialized node
        // set — so the reference applies to child and descendant paths
        // alike.
        if let Ok(prepared) = opt_engine.compile(query) {
            if prepared.is_streamable() {
                streamed = true;
                let mut out = String::new();
                let streaming = outcome_of(
                    prepared
                        .execute_streaming(&opt_engine, xml, |m| out.push_str(m))
                        .map(|_| out),
                );
                if let Some(v) = self.compare("streaming", &reference, &streaming) {
                    return CaseResult {
                        verdict: v,
                        rewrite_stats,
                        streamed,
                    };
                }
            }
        }

        let verdict = match &reference {
            Ok(_) => Verdict::Agree,
            Err((code, _)) => Verdict::AgreeError(*code),
        };
        CaseResult {
            verdict,
            rewrite_stats,
            streamed,
        }
    }

    /// Compare one leg against the reference. `None` = keep going;
    /// `Some(verdict)` = the case is decided (skip or divergence).
    fn compare(
        &self,
        leg: &'static str,
        reference: &LegOutcome,
        actual: &LegOutcome,
    ) -> Option<Verdict> {
        // XQRL0000 is the engine saying "bug": contained panic, broken
        // invariant. It is never a legitimate outcome, on any leg.
        for outcome in [reference, actual] {
            if let Err((ErrorCode::Internal, _)) = outcome {
                return Some(Verdict::Diverged(Divergence {
                    leg,
                    reference: reference.clone(),
                    actual: actual.clone(),
                }));
            }
        }
        match (reference, actual) {
            (_, Err((code, _))) | (Err((code, _)), _) if is_resource(*code) => {
                Some(Verdict::Skipped(leg))
            }
            (Ok(a), Ok(b)) if a == b => None,
            (Ok(_), Ok(_)) => Some(Verdict::Diverged(Divergence {
                leg,
                reference: reference.clone(),
                actual: actual.clone(),
            })),
            // The optimizer introduced an error the reference didn't hit.
            (Ok(_), Err(_)) => Some(Verdict::Diverged(Divergence {
                leg,
                reference: reference.clone(),
                actual: actual.clone(),
            })),
            // Reference failed: the leg may fail (with any stable,
            // non-internal code — rewrites legally reorder which error
            // fires) or may have legally avoided the error.
            (Err(_), _) => None,
        }
    }
}

/// Run a case on a fresh engine with the given options.
pub fn run_engine(options: &EngineOptions, query: &str, xml: &str) -> LegOutcome {
    let engine = Engine::with_options(options.clone());
    outcome_of((|| {
        let prepared = engine.compile(query)?;
        let ctx = xqr_core::context_with_doc(&engine, "fuzz.xml", xml)?;
        prepared.execute(&engine, &ctx)?.serialize_guarded()
    })())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<root><a><d>x</d></a><a/><d>y</d></root>";

    #[test]
    fn all_legs_agree_on_directed_cases() {
        let mut oracle = Oracle::new(false);
        for q in [
            "/root/a/d",
            "count(//d)",
            "for $v0 in //a where exists($v0/d) return <r>{$v0/d}</r>",
            "some $v0 in //d satisfies $v0 = \"x\"",
            "(//a)[2]",
            "//d[position() < 2]",
            // Index-eligible shapes: the `indexed` leg answers these
            // from the structural index.
            "//a[d]",
            "/root//d",
            "//a[d]/d",
        ] {
            let r = oracle.run_case(q, DOC);
            assert!(matches!(r.verdict, Verdict::Agree), "{q}: {:?}", r.verdict);
        }
    }

    #[test]
    fn errors_agree_as_errors() {
        let mut oracle = Oracle::new(false);
        // Division by zero: deterministic FOAR0001 in every leg.
        let r = oracle.run_case("1 idiv 0", DOC);
        assert!(
            matches!(r.verdict, Verdict::AgreeError(ErrorCode::DivisionByZero)),
            "{:?}",
            r.verdict
        );
    }

    #[test]
    fn streaming_leg_runs_for_exact_child_paths() {
        let mut oracle = Oracle::new(false);
        let r = oracle.run_case("/root/a", DOC);
        assert!(matches!(r.verdict, Verdict::Agree), "{:?}", r.verdict);
        assert!(r.streamed);
        // Descendant paths are judged against the reference too,
        // nested matches included.
        let r = oracle.run_case("//d", "<a><d><d/></d><d/></a>");
        assert!(matches!(r.verdict, Verdict::Agree), "{:?}", r.verdict);
        assert!(r.streamed);
    }

    #[test]
    fn mutated_optimizer_is_caught() {
        // The mutation sanity check in miniature: with the deliberate
        // constant-folding miscompile switched on, a constant `a - b`
        // must diverge between the reference and the optimized leg.
        let mut oracle = Oracle::new(true);
        let r = oracle.run_case("7 - 3", DOC);
        match r.verdict {
            Verdict::Diverged(d) => {
                assert_eq!(d.leg, "optimized");
                assert_eq!(d.reference.as_deref(), Ok("4"));
                assert_eq!(d.actual.as_deref(), Ok("-4"));
            }
            other => panic!("mutation not caught: {other:?}"),
        }
    }
}
