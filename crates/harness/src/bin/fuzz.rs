//! Differential fuzzing driver.
//!
//! ```text
//! fuzz [--seed N] [--cases N] [--mutate] [--verbose]
//! ```
//!
//! Runs `--cases` random (query, document) pairs through the oracle's
//! configuration lattice. On divergence the case is shrunk, a replay
//! line is printed (`--seed S+i --cases 1` reproduces case `i` of seed
//! `S` exactly), and the process exits 1.
//!
//! `--mutate` switches on the deliberate constant-folding miscompile in
//! the optimized legs and *inverts* the exit code: the run succeeds
//! (exit 0) only if the oracle catches the planted bug, and fails
//! (exit 1) if the whole run passes — a blind oracle is a broken
//! oracle. See EXPERIMENTS.md (E14).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use xqr_harness::cli::Argv;
use xqr_harness::gen::{GenConfig, QueryGen};
use xqr_harness::oracle::{Oracle, Verdict};
use xqr_harness::report::RunReport;
use xqr_harness::{case_seed, shrink};
use xqr_xmlgen::{random_tree, RandomTreeConfig};

struct Args {
    seed: u64,
    cases: u64,
    mutate: bool,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        cases: 200,
        mutate: false,
        verbose: false,
    };
    let mut argv = Argv::from_env();
    while let Some(opt) = argv.next_opt() {
        match opt.as_str() {
            "--seed" => args.seed = argv.value()?,
            "--cases" => args.cases = argv.value()?,
            "--mutate" => args.mutate = true,
            "--verbose" => args.verbose = true,
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

/// Build the document config for one case from its derived seed.
fn doc_config(rng: &mut StdRng, seed: u64) -> RandomTreeConfig {
    RandomTreeConfig {
        seed,
        nodes: rng.gen_range(20usize..200),
        max_depth: rng.gen_range(3usize..9),
        alphabet: 4,
        p_ancestor: 0.15,
        p_descendant: 0.2,
        p_text: 0.3,
        p_attribute: 0.25,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            eprintln!("usage: fuzz [--seed N] [--cases N] [--mutate] [--verbose]");
            return ExitCode::from(2);
        }
    };

    println!(
        "xqr differential fuzz: seed={} cases={}{}",
        args.seed,
        args.cases,
        if args.mutate {
            "  [MUTATE: deliberate constant-folding miscompile active]"
        } else {
            ""
        }
    );

    let mut oracle = Oracle::new(args.mutate);
    let mut report = RunReport::default();

    for i in 0..args.cases {
        let cseed = case_seed(args.seed, i);
        let mut rng = StdRng::seed_from_u64(cseed);
        let dcfg = doc_config(&mut rng, cseed ^ 0xD0C);
        let xml = random_tree(&dcfg);
        let q = QueryGen::new(&mut rng, GenConfig::default()).generate();
        if args.verbose {
            println!("case {i}: {}", q.text.replace('\n', " "));
        }

        let result = oracle.run_case(&q.text, &xml);
        report.cases += 1;
        report.note_kinds(&q.kinds);
        report.note_rewrites(&result.rewrite_stats);
        if result.streamed {
            report.streamed += 1;
        }
        match result.verdict {
            Verdict::Agree => report.agreed += 1,
            Verdict::AgreeError(code) => {
                report.agreed_error += 1;
                report.note_error(code);
            }
            Verdict::Skipped(_) => report.skipped += 1,
            Verdict::Diverged(d) => {
                report.diverged += 1;
                println!("\n=== DIVERGENCE at case {i} (leg: {}) ===", d.leg);
                println!(
                    "replay:    fuzz --seed {} --cases 1{}",
                    args.seed.wrapping_add(i),
                    if args.mutate { " --mutate" } else { "" }
                );
                println!("query:\n{}", q.text);
                println!("reference: {:?}", d.reference);
                println!("actual:    {:?}", d.actual);
                let shrunk = shrink::shrink(&q.module, &xml, Some(&dcfg), args.mutate, 200);
                println!(
                    "shrunk ({} steps, {} query bytes, {} doc bytes):",
                    shrunk.steps,
                    shrunk.text.len(),
                    shrunk.xml.len()
                );
                println!("  query: {}", shrunk.text.replace('\n', " "));
                println!("  doc:   {}", truncate(&shrunk.xml, 400));
                println!("\n{}", report.render());
                return if args.mutate {
                    println!("mutation sanity check: PASS (planted bug caught at case {i})");
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
        }
    }

    println!("\n{}", report.render());
    let stats = oracle.service_stats();
    println!(
        "service: served={} failed={} plan lookups={} hits={} misses={} evictions={}",
        stats.served,
        stats.failed,
        stats.plan_lookups,
        stats.plan_hits,
        stats.plan_misses,
        stats.plan_evictions
    );

    if args.mutate {
        println!(
            "mutation sanity check: FAIL (planted miscompile survived {} cases — the oracle is blind)",
            args.cases
        );
        ExitCode::FAILURE
    } else {
        println!("no divergences.");
        ExitCode::SUCCESS
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        // The generator only emits ASCII documents, so byte slicing is
        // char-safe here.
        &s[..n]
    }
}
