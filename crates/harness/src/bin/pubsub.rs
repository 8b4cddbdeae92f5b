//! Pub/sub oracle driver.
//!
//! ```text
//! pubsub [--seed N] [--cases N] [--verbose]
//! ```
//!
//! Each case derives a subscription set and a small document stream
//! from its seed and checks the standing-query invariant twice: once
//! un-faulted (strict equivalence with independent one-shot queries),
//! once with a seeded fault schedule installed (correct or coded, a
//! failing delivery degrades only its own subscription). On violation a
//! replay line is printed (`pubsub --seed S+i --cases 1` reproduces
//! case `i` of seed `S`) and the process exits 1.

use std::process::ExitCode;
use xqr_harness::case_seed;
use xqr_harness::cli::Argv;
use xqr_harness::pubsub::run_case;

struct Args {
    seed: u64,
    cases: u64,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        cases: 100,
        verbose: false,
    };
    let mut argv = Argv::from_env();
    while let Some(opt) = argv.next_opt() {
        match opt.as_str() {
            "--seed" => args.seed = argv.value()?,
            "--cases" => args.cases = argv.value()?,
            "--verbose" => args.verbose = true,
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pubsub: {e}");
            eprintln!("usage: pubsub [--seed N] [--cases N] [--verbose]");
            return ExitCode::from(2);
        }
    };

    if !xqr_faults::compiled_with_failpoints() {
        eprintln!("pubsub: built without the `failpoints` feature — nothing to inject");
        return ExitCode::from(2);
    }

    println!("xqr pubsub: seed={} cases={}", args.seed, args.cases);

    // Injected panics are expected traffic while a schedule is armed.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !xqr_faults::armed() {
            default_hook(info);
        }
    }));

    let (mut agreed, mut coded, mut skipped, mut fired) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..args.cases {
        let cseed = case_seed(args.seed, i);
        for faulted in [false, true] {
            let case = run_case(cseed, faulted);
            agreed += case.agreed;
            coded += case.coded;
            skipped += case.skipped;
            fired += case.fired;
            if args.verbose {
                println!(
                    "case {i}{}: subs={} (shared {} / fallback {}) docs={} \
                     agreed={} coded={} skipped={} fired={}",
                    if faulted { " [faulted]" } else { "" },
                    case.subscriptions,
                    case.shared_pass,
                    case.fallback,
                    case.documents,
                    case.agreed,
                    case.coded,
                    case.skipped,
                    case.fired
                );
            }
            if !case.violations.is_empty() {
                println!("\n=== PUBSUB VIOLATION at case {i} ===");
                println!(
                    "replay:    pubsub --seed {} --cases 1",
                    args.seed.wrapping_add(i)
                );
                for v in &case.violations {
                    println!("{}: {}", v.at, v.detail);
                }
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "cases: {} (x2 legs)  comparisons agreed: {}  coded: {}  skipped: {}  \
         injections fired: {}",
        args.cases, agreed, coded, skipped, fired
    );
    println!("no violations.");
    ExitCode::SUCCESS
}
