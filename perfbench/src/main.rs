//! `xqr-perfbench`: the repository's benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point|analytic|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates seeded inputs, drives the public `xqr` API from this one
//! process, checks every output against a reference, and prints every
//! metric by name and unit. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod gen;
mod ingest;
mod layers;
mod queries;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqr::xqr_parallel::{lock_recoveries, parallel_stats, ParallelStats};
use xqr::xqr_pressure::Category;
use xqr::xqr_service::{QueryService, ServiceStats};

use alloc::ALLOC;
use gen::Rng;
use ingest::{Feed, IngestResult};
use queries::{Kind, LoopResult};
use report::Report;
use stats::{median, quantile};

/// The seed for verifying a claim after it was made; never used while
/// tuning a change.
const HELD_OUT_SEED: u64 = 9_001;
/// Set-ups timed per run: at least `MIN_SETUPS`, and more while
/// `SETUP_BUDGET` lasts, so a cheap set-up is sampled often enough for
/// a steady median. `setup_s` is their median.
const MIN_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Closed-loop clients, capped at the machine's parallelism.
const MAX_CLIENTS: usize = 2;
/// Measurement rounds per run. Each round gives every phase of the
/// workload a slice, so a stall of the machine hits all metrics alike
/// instead of the one phase that happened to be running.
const ROUNDS: u32 = 10;
/// Share of each round the ingest side probe of `point` and `analytic`
/// gets.
const SIDE_SHARE: f64 = 0.3;

const END_TO_END: &[&str] = &[
    "setup_s",
    "query_p50_us",
    "query_qps",
    "batch_p50_ms",
    "publish_p50_ms",
    "first_match_us",
    "ingest_mb_s",
    "load_p50_ms",
    "cold_start_ms",
    "peak_heap_mb",
];

const PER_LAYER: &[&str] = &[
    "query_p99_us",
    "publish_p90_ms",
    "service.queue_wait_p50_us",
    "service.queue_wait_mean_us",
    "service.plan_lookup_us",
    "service.plan_hit_ratio",
    "service.retries",
    "service.rejected",
    "xqparser.parse_us",
    "compiler.normalize_us",
    "compiler.typecheck_us",
    "compiler.rewrite_us",
    "compiler.access_us",
    "core.execute_fixed_us",
    "runtime.execute_us",
    "runtime.serialize_us",
    "runtime.items_produced",
    "index.hit_ratio",
    "index.build_ms",
    "joins.twig_stack_us",
    "joins.stack_tree_desc_us",
    "parallel.morsels_per_join",
    "parallel.inline_morsels",
    "parallel.lock_recoveries",
    "xmlparse.lex_mb_s",
    "tokenstream.push_mb_s",
    "store.build_ms",
    "subscribe.automaton_ms",
    "subscribe.fallback_ratio",
    "ingest.stream_query_ms",
    "ingest.channel_peak",
    "segment.write_ms",
    "segment.open_ms",
    "segment.load_ms",
    "pressure.peak_catalog_mb",
    "pressure.peak_plans_mb",
    "pressure.peak_chunks_mb",
    "pressure.peak_ingest_mb",
    "pressure.peak_pubsub_mb",
    "pressure.peak_morsels_mb",
    "pressure.peak_output_mb",
    "trace.unattributed_frac",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["point", "analytic", "ingest"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit being measured, read from `.git` when the checkout has
/// one.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Per-run scratch space inside the benchmark's own directory.
fn scratch_dir(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "out/{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn clients() -> usize {
    MAX_CLIENTS.min(nproc())
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Counters of one service and the process, read before and after a
/// phase so only the phase's own work is attributed to it.
struct Counters {
    service: ServiceStats,
    parallel: ParallelStats,
    lock_recoveries: u64,
}

impl Counters {
    fn read(svc: &QueryService) -> Counters {
        Counters {
            service: svc.stats(),
            parallel: parallel_stats(),
            lock_recoveries: lock_recoveries(),
        }
    }
}

/// Per-layer metrics read as deltas of service and process counters.
fn counter_deltas(before: &Counters, after: &Counters, rep: &mut Report) {
    let (a, b) = (&after.service, &before.service);
    rep.metric(
        "service.queue_wait_p50_us",
        stats::us(a.queue_wait_p50),
        "us",
    );
    let waited = |s: &ServiceStats| s.queue_wait_mean.as_secs_f64() * s.queue_wait_count as f64;
    let n = a.queue_wait_count - b.queue_wait_count;
    rep.metric(
        "service.queue_wait_mean_us",
        if n == 0 {
            0.0
        } else {
            (waited(a) - waited(b)) / n as f64 * 1e6
        },
        "us",
    );
    rep.metric(
        "service.plan_hit_ratio",
        ratio(a.plan_hits - b.plan_hits, a.plan_lookups - b.plan_lookups),
        "ratio",
    );
    rep.metric("service.retries", (a.retries - b.retries) as f64, "count");
    rep.metric(
        "service.rejected",
        (a.rejected - b.rejected) as f64,
        "count",
    );
    let hits = a.index_hits - b.index_hits;
    rep.metric(
        "index.hit_ratio",
        ratio(hits, hits + a.index_misses - b.index_misses),
        "ratio",
    );
    let (pa, pb) = (&after.parallel, &before.parallel);
    rep.metric(
        "parallel.morsels_per_join",
        ratio(
            pa.morsels_run - pb.morsels_run,
            pa.parallel_joins - pb.parallel_joins,
        ),
        "morsels/join",
    );
    rep.metric(
        "parallel.inline_morsels",
        (pa.morsels_inline - pb.morsels_inline) as f64,
        "count",
    );
    rep.metric(
        "parallel.lock_recoveries",
        (after.lock_recoveries - before.lock_recoveries) as f64,
        "count",
    );
}

/// Subscription and stream-query per-layer metrics from an ingest
/// service's counters and the phase's own timings.
fn ingest_deltas(before: &ServiceStats, after: &ServiceStats, r: &IngestResult, rep: &mut Report) {
    let fallback = after.fallback_evals - before.fallback_evals;
    let shared = after.shared_pass_evals - before.shared_pass_evals;
    rep.metric(
        "subscribe.fallback_ratio",
        ratio(fallback, fallback + shared),
        "ratio",
    );
    rep.metric("ingest.stream_query_ms", median(&r.stream_ms), "ms");
    rep.metric("ingest.channel_peak", r.channel_peak as f64, "events");
}

fn pressure_peaks(svc: &QueryService, rep: &mut Report) {
    let snap = svc.ledger().snapshot();
    for (cat, name) in [
        (Category::CatalogResident, "pressure.peak_catalog_mb"),
        (Category::PlanCache, "pressure.peak_plans_mb"),
        (Category::ChunkSessions, "pressure.peak_chunks_mb"),
        (Category::IngestChannels, "pressure.peak_ingest_mb"),
        (Category::Subscriptions, "pressure.peak_pubsub_mb"),
        (Category::MorselBuffers, "pressure.peak_morsels_mb"),
        (Category::QueryOutput, "pressure.peak_output_mb"),
    ] {
        rep.metric(name, mb(snap.category(cat).peak), "MB");
    }
}

fn query_metrics(lr: &LoopResult, rep: &mut Report) {
    rep.metric("query_p50_us", median(&lr.query_us), "us");
    rep.metric("query_p99_us", quantile(&lr.query_us, 0.99), "us");
    rep.metric(
        "query_qps",
        lr.query_us.len() as f64 / lr.elapsed.as_secs_f64(),
        "1/s",
    );
    rep.info("query_samples", lr.query_us.len());
}

fn ingest_metrics(r: &IngestResult, rep: &mut Report) {
    rep.metric("publish_p50_ms", median(&r.publish_ms), "ms");
    rep.metric("publish_p90_ms", quantile(&r.publish_ms, 0.9), "ms");
    rep.info("publish_samples", r.publish_ms.len());
    rep.metric("first_match_us", median(&r.first_match_us), "us");
    let cycles = r.cycle_mb_s();
    rep.metric("ingest_mb_s", median(&cycles), "MB/s");
    rep.info("ingest_cycles", cycles.len());
    rep.metric("load_p50_ms", median(&r.load_ms), "ms");
    rep.info("load_samples", r.load_ms.len());
}

/// `cold_start_ms` is the lower quartile of the restarts, not their
/// median. A restart is a chain of about a dozen thread hand-offs (pool
/// start, four queries each with a worker hand-off and an eval thread),
/// and on a shared host every hand-off can wait for a descheduled CPU.
/// Those waits only ever add time and come in bursts, so the lower
/// quartile tracks the restart's own cost while the median follows the
/// neighbours.
fn cold_start_metric(cold_ms: &[f64], rep: &mut Report) {
    rep.metric("cold_start_ms", quantile(cold_ms, 0.25), "ms");
    rep.metric("cold_start_p50_ms", median(cold_ms), "ms");
    rep.info("cold_start_samples", cold_ms.len());
}

/// Time the set-ups and keep the last one.
fn timed_setups<T>(mut setup: impl FnMut() -> T, rep: &mut Report) -> T {
    let mut times = Vec::new();
    let mut kept = None;
    let start = Instant::now();
    while times.len() < MIN_SETUPS || start.elapsed() < SETUP_BUDGET {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    rep.metric("setup_s", median(&times), "s");
    rep.info("setup_samples", times.len());
    kept.expect("at least one set-up")
}

fn secs(total: f64, share: f64) -> Duration {
    Duration::from_secs_f64(total * share)
}

/// The ingest side of a workload that does not publish on its own: in
/// every round, restart the side service from its segment directory
/// (the first round sets it up), feed it for `slice`, and drop it.
struct Side<'a> {
    feed: &'a Feed,
    dir: PathBuf,
    next_doc: u64,
    before: Option<Vec<Option<String>>>,
    result: IngestResult,
}

impl<'a> Side<'a> {
    fn new(feed: &'a Feed, scratch: &Path) -> Side<'a> {
        Side {
            feed,
            dir: ingest::segment_dir(scratch, "side"),
            next_doc: 0,
            before: None,
            result: IngestResult::default(),
        }
    }

    /// One round; returns the service's counters before and after the
    /// slice (none when the restart failed).
    fn round(&mut self, rng: &Rng, slice: Duration) -> Option<(ServiceStats, ServiceStats)> {
        let work = match &self.before {
            None => {
                let work = ingest::setup(self.feed, &self.dir);
                let (before, ok) = ingest::pre_restart(&work, self.feed);
                self.result.attempted += 1;
                self.result.failed += u64::from(!ok);
                self.before = Some(before);
                work
            }
            Some(before) => ingest::restarts(
                &ingest::segment_config(&self.dir),
                self.feed,
                before,
                ingest::RESTARTS_PER_ROUND,
                &mut self.result,
            )?,
        };
        let before = work.svc.stats();
        let r = ingest::run_phase(&work, self.feed, rng, slice, 2, false, &mut self.next_doc);
        let after = work.svc.stats();
        self.result.merge(r);
        Some((before, after))
    }

    fn finish(self, rep: &mut Report) {
        rep.add_outcomes(self.result.attempted, self.result.failed);
        ingest_metrics(&self.result, rep);
        cold_start_metric(&self.result.cold_ms, rep);
    }
}

fn query_workload(kind: Kind, args: &Args, scratch: &Path, rep: &mut Report) {
    let rng = Rng::new(args.seed);
    let mut work = timed_setups(|| queries::setup(&kind, args.seed), rep);
    let t = Instant::now();
    queries::compute_expected(&mut work);
    let mut feed = ingest::make_feed(args.seed);
    ingest::compute_expected(&mut feed);
    rep.info("reference_s", format!("{:.2}", t.elapsed().as_secs_f64()));
    let s = args.seconds;
    let own_batches = work.batch_every.is_some();
    let mut side = Side::new(&feed, scratch);
    if !args.trace {
        let (main_share, batch_share) = if own_batches {
            (0.7, 0.0)
        } else {
            (0.62, 0.08)
        };
        let per_round = |share: f64| secs(s, share / ROUNDS as f64);
        let mut lr = LoopResult::default();
        let mut batches = LoopResult::default();
        let mut peak = 0usize;
        for round in 0..ROUNDS {
            ALLOC.reset_peak();
            let r = queries::closed_loop(
                &work,
                &rng.fork(round as u64),
                clients(),
                per_round(main_share),
            );
            peak = peak.max(ALLOC.peak());
            lr.merge(r);
            if !own_batches {
                batches.merge(queries::batch_probe(
                    &work.svc,
                    &work.batches,
                    &work.texts,
                    &work.expected,
                    per_round(batch_share),
                ));
            }
            side.round(&rng.fork(50 + round as u64), per_round(SIDE_SHARE));
        }
        rep.metric("peak_heap_mb", mb(peak as u64), "MB");
        rep.add_outcomes(lr.attempted, lr.failed);
        rep.add_outcomes(batches.attempted, batches.failed);
        query_metrics(&lr, rep);
        let batch_ms = if own_batches {
            &lr.batch_ms
        } else {
            &batches.batch_ms
        };
        rep.metric("batch_p50_ms", median(batch_ms), "ms");
        rep.info("batch_samples", batch_ms.len());
        side.finish(rep);
        return;
    }
    // Traced run: an untraced phase for the counter deltas and the
    // untraced end-to-end median, the traced replay, then the probes.
    let before = Counters::read(&work.svc);
    let lr = queries::closed_loop(&work, &rng, clients(), secs(s, 0.3));
    let after = Counters::read(&work.svc);
    rep.add_outcomes(lr.attempted, lr.failed);
    query_metrics(&lr, rep);
    counter_deltas(&before, &after, rep);
    pressure_peaks(&work.svc, rep);
    if let Some((b, a)) = side.round(&rng, secs(s, 0.1)) {
        ingest_deltas(&b, &a, &side.result, rep);
    }
    ingest_metrics(&side.result, rep);
    rep.add_outcomes(side.result.attempted, side.result.failed);
    let tracer = Arc::new(trace::Tracer::new());
    let tally = layers::replay_queries(&work, &tracer, &rng, clients(), secs(s, 0.35));
    rep.add_outcomes(tally.attempted, tally.failed);
    finish_trace(&tracer, median(&lr.query_us), args, rep);
    let miss: Vec<String> = work
        .texts
        .iter()
        .enumerate()
        .map(|(i, t)| gen::fresh_text(t, 1 << 50 | i as u64))
        .collect();
    let doc = &work.docs[work.probe_doc].1;
    layers::probes(
        &layers::ProbeInputs {
            svc: &work.svc,
            hot: &work.texts,
            miss,
            doc,
            twig: work.twig,
            pair: work.pair,
            feed: &feed,
            scratch: &scratch.join("probe"),
        },
        rep,
    );
}

fn ingest_workload(args: &Args, scratch: &Path, rep: &mut Report) {
    let rng = Rng::new(args.seed);
    let seg = ingest::segment_dir(scratch, "main");
    let (mut feed, work) = timed_setups(
        || {
            let feed = ingest::make_feed(args.seed);
            let work = ingest::setup(&feed, &seg);
            (feed, work)
        },
        rep,
    );
    let t = Instant::now();
    ingest::compute_expected(&mut feed);
    rep.info("reference_s", format!("{:.2}", t.elapsed().as_secs_f64()));
    let s = args.seconds;
    let batches: Vec<(String, Vec<usize>)> = (0..ingest::RETAINED)
        .map(|j| {
            let name = ingest::slot_name(j);
            let idx = (0..feed.reader_texts.len())
                .filter(|&i| feed.reader_texts[i].contains(&format!("\"{name}\"")))
                .collect();
            (name, idx)
        })
        .collect();
    let mut next_doc = 0;
    if !args.trace {
        let per_round = |share: f64| secs(s, share / ROUNDS as f64);
        let mut r = IngestResult::default();
        let mut b = LoopResult::default();
        let mut peak = 0usize;
        let mut work = work;
        let mut before = None;
        for round in 0..ROUNDS {
            ALLOC.reset_peak();
            let rng = rng.fork(round as u64);
            r.merge(ingest::run_phase(
                &work,
                &feed,
                &rng,
                per_round(0.86),
                4,
                true,
                &mut next_doc,
            ));
            peak = peak.max(ALLOC.peak());
            // Restarts follow; the workload goes on with the last
            // restarted service.
            let before = before.get_or_insert_with(|| {
                let (answers, ok) = ingest::pre_restart(&work, &feed);
                r.attempted += 1;
                r.failed += u64::from(!ok);
                answers
            });
            let config = work.config.clone();
            drop(work);
            match ingest::restarts(&config, &feed, before, ingest::RESTARTS_PER_ROUND, &mut r) {
                Some(w) => work = w,
                None => break,
            }
            // The round ends with the batch probe on the restarted
            // service, so every probe finds the catalog in the same
            // state whatever the producer got through this round.
            b.merge(queries::batch_probe(
                &work.svc,
                &batches,
                &feed.reader_texts,
                &feed.reader_expected,
                per_round(0.06),
            ));
        }
        rep.metric("peak_heap_mb", mb(peak as u64), "MB");
        rep.add_outcomes(r.attempted, r.failed);
        rep.add_outcomes(b.attempted, b.failed);
        ingest_metrics(&r, rep);
        query_metrics(&r.reader, rep);
        rep.metric("batch_p50_ms", median(&b.batch_ms), "ms");
        rep.info("batch_samples", b.batch_ms.len());
        cold_start_metric(&r.cold_ms, rep);
        return;
    }
    let before = Counters::read(&work.svc);
    let r = ingest::run_phase(&work, &feed, &rng, secs(s, 0.3), 16, true, &mut next_doc);
    let after = Counters::read(&work.svc);
    rep.add_outcomes(r.attempted, r.failed);
    ingest_metrics(&r, rep);
    query_metrics(&r.reader, rep);
    counter_deltas(&before, &after, rep);
    ingest_deltas(&before.service, &after.service, &r, rep);
    pressure_peaks(&work.svc, rep);
    let tracer = Arc::new(trace::Tracer::new());
    let tally = layers::replay_ingest(
        &work,
        &feed,
        &tracer,
        &rng,
        &scratch.join("replay"),
        secs(s, 0.35),
    );
    rep.add_outcomes(tally.attempted, tally.failed);
    finish_trace(&tracer, median(&r.doc_us()), args, rep);
    let miss: Vec<String> = feed
        .reader_texts
        .iter()
        .enumerate()
        .map(|(i, t)| gen::fresh_text(t, 1 << 50 | i as u64))
        .collect();
    layers::probes(
        &layers::ProbeInputs {
            svc: &work.svc,
            hot: &feed.reader_texts,
            miss,
            doc: &feed.pool[0],
            twig: "//item[title]/f1",
            pair: ("feed", "title"),
            feed: &feed,
            scratch: &scratch.join("probe"),
        },
        rep,
    );
}

/// Attribute the traced spans, write them out and record the trace
/// metrics. `untraced_us` is the untraced median of the same operation.
fn finish_trace(tracer: &trace::Tracer, untraced_us: f64, args: &Args, rep: &mut Report) {
    let spans = tracer.take();
    let att = trace::Attribution::of(&spans);
    let unattributed = att.unattributed_frac();
    rep.metric("trace.unattributed_frac", unattributed, "ratio");
    rep.metric(
        "trace.overhead_frac",
        att.root_median_us / untraced_us - 1.0,
        "ratio",
    );
    rep.info("trace_requests", att.requests);
    rep.info("trace_root_median_us", format!("{:.1}", att.root_median_us));
    for (layer, v) in &att.layer_self_median_us {
        rep.info(&format!("trace_self_median_us.{layer}"), format!("{v:.1}"));
    }
    for (name, v) in &att.span_median_us {
        rep.info(&format!("trace_span_median_us.{name}"), format!("{v:.1}"));
    }
    if unattributed.abs() > 0.2 {
        eprintln!(
            "WARNING: workload {}: layers attribute {:.0}% of the end-to-end median; \
             {:.0}% is outside the ±20% the ROADMAP asks for",
            args.workload,
            (1.0 - unattributed) * 100.0,
            unattributed.abs() * 100.0
        );
        rep.info("trace_attribution", "OUTSIDE ±20%");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/trace-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, trace::to_tsv(&spans)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload point|analytic|ingest --seed N --seconds S --trace 0|1\n{e}"
            );
            std::process::exit(2);
        }
    };
    if xqr_faults::compiled_with_failpoints() {
        eprintln!(
            "refusing to measure: this build has failpoint machinery compiled in \
             (feature unification with a failpoints-enabled dependent)"
        );
        std::process::exit(3);
    }
    let scratch = scratch_dir(&args);
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    let mut rep = Report::default();
    rep.info("workload", &args.workload);
    rep.info("seed", args.seed);
    rep.info("held_out_seed", HELD_OUT_SEED);
    rep.info("seconds", args.seconds);
    rep.info("trace", args.trace);
    rep.info("git_revision", git_revision());
    rep.info("nproc", nproc());
    rep.info(
        "max_concurrent",
        xqr::xqr_service::ServiceConfig::default().max_concurrent,
    );
    rep.info("clients", clients());
    rep.info(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let t0 = Instant::now();
    match args.workload.as_str() {
        "point" => query_workload(Kind::Point, &args, &scratch, &mut rep),
        "analytic" => query_workload(Kind::Analytic, &args, &scratch, &mut rep),
        _ => ingest_workload(&args, &scratch, &mut rep),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    rep.info("wall_s", format!("{:.2}", t0.elapsed().as_secs_f64()));
    rep.info("fail_ratio", rep.fail_ratio());
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", rep.info_lines());
    for (name, value, unit) in rep.all_metrics() {
        println!("# metric {name} = {value} {unit}");
    }
    match rep.select(names) {
        Ok(metrics) => {
            println!("{}", rep.result_line(&metrics));
            if !rep.correct() {
                eprintln!(
                    "{} of {} operations failed or were wrong",
                    rep.failed, rep.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
