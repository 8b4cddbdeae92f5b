//! Overload-governance driver: open-loop mixed load at ~10× capacity
//! under a counting allocator.
//!
//! ```text
//! overload [--seed N] [--producers N] [--ops N] [--ceiling BYTES] [--verbose]
//! ```
//!
//! Builds a ceiling-governed service and hammers it from `--producers`
//! threads, each performing `--ops` seeded operations (queries,
//! publishes, chunk sessions, stream queries, batches, catalog churn)
//! against a pool sized far below the offered load. The library runner
//! ([`xqr_harness::overload`]) checks the governance contract — ledger
//! bounded by ceiling + slack, every outcome Ok-or-coded, admission
//! accounting closed, return to Green after load stops. This binary
//! adds the two checks only a process can make:
//!
//! * **bounded peak** — a `#[global_allocator]` counts live bytes; the
//!   peak during the run must stay under a fixed bound instead of
//!   scaling with the offered load;
//! * **no leak** — live bytes after the service is dropped return to
//!   within a small envelope of the pre-run baseline.
//!
//! Exit 0 with a summary line on success; on violation the findings
//! and a replay line are printed and the process exits 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use xqr_harness::cli::Argv;
use xqr_harness::overload::{run_overload, OverloadConfig};

/// Counting allocator: live bytes and the high-water mark.
struct PeakAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

struct Args {
    seed: u64,
    producers: usize,
    ops: usize,
    ceiling: u64,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        producers: 20,
        ops: 150,
        ceiling: OverloadConfig::default().ceiling,
        verbose: false,
    };
    let mut argv = Argv::from_env();
    while let Some(opt) = argv.next_opt() {
        match opt.as_str() {
            "--seed" => args.seed = argv.value()?,
            "--producers" => args.producers = argv.value()?,
            "--ops" => args.ops = argv.value()?,
            "--ceiling" => args.ceiling = argv.value()?,
            "--verbose" => args.verbose = true,
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

/// Live-byte envelope tolerated after the run: thread-local caches,
/// lazily initialized statics and allocator slack that never return to
/// the exact baseline, but do not grow with the workload.
const LEAK_ENVELOPE: usize = 8 << 20;

/// Peak live bytes tolerated during the run. The offered load is tens
/// of megabytes of document text; governance must keep the resident
/// peak at working-set scale, not offered-load scale.
const PEAK_BOUND: usize = 256 << 20;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("overload: {e}");
            eprintln!("usage: overload [--seed N] [--producers N] [--ops N] [--ceiling BYTES] [--verbose]");
            return ExitCode::from(2);
        }
    };

    println!(
        "xqr overload: seed={} producers={} ops={} ceiling={}",
        args.seed, args.producers, args.ops, args.ceiling
    );

    let cfg = OverloadConfig {
        ceiling: args.ceiling,
        producers: args.producers,
        ops_per_producer: args.ops,
        ..Default::default()
    };

    let baseline = ALLOC.live.load(Ordering::Relaxed);
    ALLOC.peak.store(baseline, Ordering::Relaxed);
    let report = run_overload(args.seed, &cfg);
    let peak_delta = ALLOC.peak.load(Ordering::Relaxed).saturating_sub(baseline);
    let residue = ALLOC.live.load(Ordering::Relaxed).saturating_sub(baseline);

    let mut violations = report.violations.clone();
    if peak_delta > PEAK_BOUND {
        violations.push(format!(
            "process peak {peak_delta} bytes over the run exceeded the {PEAK_BOUND}-byte bound"
        ));
    }
    if residue > LEAK_ENVELOPE {
        violations.push(format!(
            "process leak: {residue} live bytes remain after the service was dropped \
             (envelope {LEAK_ENVELOPE})"
        ));
    }

    if args.verbose || !violations.is_empty() {
        println!(
            "ops: {}  ok: {}  shed: {}  expired: {}  other-coded: {}",
            report.ops, report.ok, report.shed, report.expired, report.other_coded
        );
        println!(
            "ledger: peak-sampled {}  peak {}  transitions {}  process: peak-delta {}  residue {}",
            report.peak_sampled, report.peak_ledger, report.transitions, peak_delta, residue
        );
    }

    if !violations.is_empty() {
        println!("\n=== OVERLOAD VIOLATION ===");
        println!(
            "replay:    overload --seed {} --producers {} --ops {} --ceiling {}",
            args.seed, args.producers, args.ops, args.ceiling
        );
        for v in &violations {
            println!("violation: {v}");
        }
        return ExitCode::FAILURE;
    }

    println!(
        "ops: {}  ok: {}  shed: {}  expired: {}  other-coded: {}  ledger peak: {}  \
         pressure transitions: {}",
        report.ops,
        report.ok,
        report.shed,
        report.expired,
        report.other_coded,
        report.peak_ledger,
        report.transitions
    );
    println!("no violations.");
    ExitCode::SUCCESS
}
