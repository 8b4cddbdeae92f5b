//! Kill-and-recover driver for the durable segment store.
//!
//! ```text
//! recover [--seed N] [--rounds N] [--verbose]
//! ```
//!
//! Each round sweeps every segment-persistence faultpoint site
//! (`segment.write`, `segment.fsync`, `segment.rename`,
//! `manifest.append`, `segment.mmap`, `segment.verify`) with both a
//! panic and an error-return crash, plus one single-byte-flip
//! corruption case. A case loads three documents into a persistent
//! service with the crash armed, drops the service with no cleanup, and
//! reopens the directory. The invariant: every document is either fully
//! queryable with byte-identical results, or cleanly absent/quarantined
//! with a coded error — never a wrong answer, a partial answer, or a
//! panic; and an *acknowledged* load must always survive the restart.
//! On violation a replay line is printed and the process exits 1.

use std::process::ExitCode;
use xqr_harness::case_seed;
use xqr_harness::cli::Argv;
use xqr_harness::recover::{run_case, run_corruption_case, DocEnd, RecoverCase, SEGMENT_SITES};

struct Args {
    seed: u64,
    rounds: u64,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        rounds: 3,
        verbose: false,
    };
    let mut argv = Argv::from_env();
    while let Some(opt) = argv.next_opt() {
        match opt.as_str() {
            "--seed" => args.seed = argv.value()?,
            "--rounds" => args.rounds = argv.value()?,
            "--verbose" => args.verbose = true,
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

fn report(case: &RecoverCase, seed: u64, verbose: bool) -> bool {
    if verbose {
        let ends: Vec<&str> = case
            .ends
            .iter()
            .map(|e| match e {
                DocEnd::Correct => "correct",
                DocEnd::Absent => "absent",
                DocEnd::Quarantined => "quarantined",
            })
            .collect();
        println!(
            "seed {seed} site {} kind {}: fired={} acked={} ends={ends:?}",
            case.site, case.kind, case.fired, case.acked
        );
    }
    if case.violations.is_empty() {
        return true;
    }
    println!(
        "\n=== RECOVERY VIOLATION (site {} kind {}) ===",
        case.site, case.kind
    );
    println!("replay:    recover --seed {seed} --rounds 1");
    for v in &case.violations {
        println!("leg {}: {}", v.leg, v.detail);
    }
    false
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("recover: {e}");
            eprintln!("usage: recover [--seed N] [--rounds N] [--verbose]");
            return ExitCode::from(2);
        }
    };

    if !xqr_faults::compiled_with_failpoints() {
        eprintln!("recover: built without the `failpoints` feature — nothing to inject");
        return ExitCode::from(2);
    }

    println!(
        "xqr recover: seed={} rounds={} sites={}",
        args.seed,
        args.rounds,
        SEGMENT_SITES.len()
    );

    // Injected panics are expected traffic: silence the default hook's
    // backtraces while a schedule is armed.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !xqr_faults::armed() {
            default_hook(info);
        }
    }));

    let (mut cases, mut fired, mut acked, mut quarantined) = (0u64, 0u64, 0u64, 0u64);
    for round in 0..args.rounds {
        let rseed = case_seed(args.seed, round);
        for (s, site) in SEGMENT_SITES.iter().enumerate() {
            for panic_kind in [false, true] {
                let cseed = case_seed(rseed, s as u64 * 2 + panic_kind as u64);
                let case = run_case(cseed, site, panic_kind);
                cases += 1;
                fired += case.fired;
                acked += case.acked as u64;
                quarantined += case
                    .ends
                    .iter()
                    .filter(|e| **e == DocEnd::Quarantined)
                    .count() as u64;
                if !report(&case, args.seed, args.verbose) {
                    return ExitCode::FAILURE;
                }
            }
        }
        let case = run_corruption_case(case_seed(rseed, 1000));
        cases += 1;
        quarantined += case
            .ends
            .iter()
            .filter(|e| **e == DocEnd::Quarantined)
            .count() as u64;
        if !report(&case, args.seed, args.verbose) {
            return ExitCode::FAILURE;
        }
    }

    println!(
        "cases: {cases}  crashes fired: {fired}  loads acknowledged: {acked}  \
         quarantines observed: {quarantined}"
    );
    println!("no violations.");
    ExitCode::SUCCESS
}
