//! Differential fuzzing harness for the query engine.
//!
//! The idea: the same query over the same document must mean the same
//! thing no matter *how* it is executed. This crate generates random
//! well-typed queries at the AST level (so every case is syntactically
//! valid by construction), prints them through the parser's
//! printer (a tested print→parse→print fixpoint), pairs each with a
//! random document from `xqr-xmlgen`, and runs the pair through a
//! lattice of engine configurations:
//!
//! * the **reference**: a plain [`xqr_core::Engine`] with
//!   [`xqr_compiler::RewriteConfig::none()`] — fully materialized,
//!   unoptimized evaluation;
//! * an optimized engine with `RewriteConfig::all()`;
//! * the [`xqr_service::QueryService`] (sharded plan cache, document
//!   catalog, worker pool), run **twice** per case so the second run is
//!   served from the plan cache;
//! * the token-streaming automaton, whenever the optimized plan reports
//!   `is_streamable()`.
//!
//! The oracle's contract mirrors the optimizer's documented one (see
//! `tests/proptest_semantics.rs`): the optimizer may **avoid** errors —
//! lazy two-valued logic, dead-code elimination — but may never
//! **introduce** them, and may never change a successful result.
//! Concretely, with the reference outcome on the left:
//!
//! * `Ok(a)` vs `Ok(b)` — divergence unless `a == b` byte-for-byte;
//! * `Ok(_)` vs `Err(_)` — divergence (an optimization introduced an
//!   error), except resource verdicts (`XQRL0001`/`0002`/`0003`/
//!   `0004`), which are timing-dependent and mark the case *skipped*;
//! * `Err(_)` vs `Ok(_)` — agreement (the optimizer avoided the error);
//! * `Err(a)` vs `Err(b)` — agreement even when the codes differ:
//!   rewrites legally reorder evaluation, so *which* of several
//!   pending errors fires first may change. The codes are still
//!   recorded in the run report.
//! * `err:XQRL0000 Internal` anywhere — always a divergence: that code
//!   is the engine's "this is a bug" verdict (contained panics,
//!   broken invariants), never a legitimate query outcome.
//!
//! Divergent cases are auto-shrunk ([`shrink`]) by structural greedy
//! reduction of both the query AST and the document, and every case is
//! replayable from the printed seed: case `i` of a run with master seed
//! `S` is exactly case `0` of a run with `--seed S+i`.

pub mod chaos;
pub mod cli;
pub mod gen;
pub mod ingest;
pub mod oracle;
pub mod overload;
pub mod pubsub;
pub mod recover;
pub mod report;
pub mod shrink;

/// The per-case seed derivation: case `i` under master seed `s` uses
/// `splitmix64(s + i)`, so `--seed s+i --cases 1` replays exactly case
/// `i` of the larger run.
pub fn case_seed(master: u64, index: u64) -> u64 {
    splitmix64(master.wrapping_add(index))
}

/// SplitMix64 — the standard 64-bit seed scrambler. Keeps neighbouring
/// master seeds from producing correlated case streams.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_replays_as_shifted_master() {
        // The replay identity the fuzz binary prints on divergence.
        for master in [0u64, 1, 42, u64::MAX - 10] {
            for i in 0..20u64 {
                assert_eq!(case_seed(master, i), case_seed(master.wrapping_add(i), 0));
            }
        }
    }

    #[test]
    fn splitmix_scrambles_neighbours() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10, "{a:x} vs {b:x}");
    }
}
