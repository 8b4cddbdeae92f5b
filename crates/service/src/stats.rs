//! [`ServiceStats`]: every service metric, declared once.
//!
//! Each row of the table at the bottom names a field once: its type, its
//! doc comment (the help text), its source and its `stats_text` label.
//! [`stats_table!`] generates the struct, [`QueryService::stats`],
//! `Display` (so [`QueryService::stats_text`]) and [`ServiceCounters`].
//! A row reads `field: Type = SOURCE => TEXT,`. `SOURCE` is `Counter` (an
//! atomic the service increments itself) or a parenthesized expression
//! over the snapshots taken once per `stats()` call. `TEXT` is a label
//! (printed as ` label: {value:?}`), `_` (printed by a neighbour's
//! formatter), or a parenthesized `fn(&ServiceStats, &mut Formatter)`
//! for the few irregular pieces of text.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::resilience;
use crate::service::QueryService;
use xqr_pressure::{Category, PressureState};

/// Add `n` to a service-owned counter (relaxed: counters are statistics,
/// not synchronization).
pub(crate) fn count(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// The source of a `Counter` row: its field of [`ServiceCounters`].
pub(crate) type Counter = AtomicU64;

/// A row's piece of its `stats_text` line.
macro_rules! stat_text {
    ($s:ident, $f:ident, $field:ident, _) => {};
    ($s:ident, $f:ident, $field:ident, $label:literal) => {
        write!($f, concat!(" ", $label, ": {:?}"), $s.$field)?;
    };
    ($s:ident, $f:ident, $field:ident, $custom:tt) => {
        $custom($s, $f)?;
    };
}

macro_rules! stats_table {
    (
        snapshots($svc:ident) { $($snap:ident = $init:expr;)* }
        $(
            $header:literal {
                $(
                    $(#[doc = $doc:literal])+
                    $field:ident: $ty:ty = $($counter:ident)? $(($read:expr))? => $text:tt,
                )+
            }
        )+
    ) => {
        /// Point-in-time snapshot of the service counters and gauges.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct ServiceStats {
            $($($(#[doc = $doc])+ pub $field: $ty,)+)+
        }

        /// The counters the service increments itself, one per `Counter`
        /// row of the stats table (documented on [`ServiceStats`]).
        #[derive(Default)]
        pub(crate) struct ServiceCounters {
            $($($(pub(crate) $field: $counter,)?)+)+
        }

        impl QueryService {
            /// A consistent-enough snapshot of every service counter.
            /// Individual gauges are read with relaxed ordering, so a
            /// snapshot taken while queries are in flight may be
            /// mid-update; quiescent snapshots are exact.
            pub fn stats(&self) -> ServiceStats {
                let $svc = self;
                let counters = &$svc.shared.counters;
                $(let $snap = $init;)*
                ServiceStats {
                    $($(
                        $field: $(<$counter>::load(&counters.$field, Ordering::Relaxed))?
                            $($read)?,
                    )+)+
                }
            }
        }

        impl fmt::Display for ServiceStats {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let s = self;
                let mut sep = "";
                $(
                    f.write_str(std::mem::replace(&mut sep, "\n"))?;
                    f.write_str($header)?;
                    $(stat_text!(s, f, $field, $text);)+
                )+
                Ok(())
            }
        }
    };
}

impl ServiceStats {
    /// Fraction of plan lookups served from cache, in `[0, 1]`.
    pub fn plan_hit_rate(&self) -> f64 {
        if self.plan_lookups == 0 {
            0.0
        } else {
            self.plan_hits as f64 / self.plan_lookups as f64
        }
    }
}

/// ` state: green`, lower case like `explain`'s pressure line.
fn state(s: &ServiceStats, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, " state: {}", s.pressure_state.as_str())
}

/// ` entries: N hit-rate: P%` — the rate is derived, not a field.
fn entries_and_hit_rate(s: &ServiceStats, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(
        f,
        " entries: {} hit-rate: {:.1}%",
        s.plan_entries,
        s.plan_hit_rate() * 100.0
    )
}

/// ` breaker-opens: index/plan` — both breakers under one label.
fn breaker_opens(s: &ServiceStats, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(
        f,
        " breaker-opens: {}/{}",
        s.index_breaker_opens, s.plan_breaker_opens
    )
}

/// One ` category: peak` pair per ledger category.
fn category_peaks(s: &ServiceStats, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for (cat, peak) in Category::ALL.iter().zip(s.memory_category_peak) {
        write!(f, " {}: {}", cat.as_str(), peak)?;
    }
    f.write_str(" (peak bytes)")
}

stats_table! {
    snapshots(svc) {
        plans = svc.shared.plans.stats();
        catalog = svc.catalog.stats();
        pool = svc.pool.stats();
        subs = svc.subs.stats();
        ledger = svc.shared.ledger.snapshot();
        queue_wait = svc.pool.queue_wait();
        latency = &svc.shared.latency;
        chunk_sessions = svc.chunk_sessions() as u64;
    }
    "service:" {
        /// Queries that completed successfully.
        served: u64 = Counter => "served",
        /// Queries that completed with a coded error (including budget
        /// trips, timeouts, and cancellations).
        failed: u64 = Counter => "failed",
        /// Queries shed at admission with `err:XQRL0004`.
        rejected: u64 = (pool.rejected) => "rejected",
    }
    "plans:  " {
        /// Plan-cache lookups (hits plus misses).
        plan_lookups: u64 = (plans.lookups) => "lookups",
        /// Lookups served from a cached plan.
        plan_hits: u64 = (plans.hits) => "hits",
        /// Lookups that compiled the query.
        plan_misses: u64 = (plans.misses) => "misses",
        /// Plans evicted to stay within the cache's capacity.
        plan_evictions: u64 = (plans.evictions) => "evictions",
        /// Live plan-cache entries across all shards.
        plan_entries: u64 = (plans.entries) => (entries_and_hit_rate),
    }
    "catalog:" {
        /// Catalog entries: in-memory documents plus (under persistence)
        /// on-disk and quarantined ones.
        catalog_docs: u64 = (catalog.docs) => "docs",
        /// Bytes charged against the catalog's byte budget.
        catalog_bytes: u64 = (catalog.bytes) => "bytes",
        /// Documents evicted to stay under the byte budget.
        catalog_evictions: u64 = (catalog.evictions) => "evictions",
    }
    "segments:" {
        /// Durable segments written by catalog loads (persistent catalogs).
        segments_written: u64 = (catalog.segments_written) => "written",
        /// Segments reloaded from disk (cold-start touches and post-eviction
        /// re-reads).
        segments_recovered: u64 = (catalog.segments_recovered) => "recovered",
        /// Segments quarantined after failing integrity verification.
        segments_quarantined: u64 = (catalog.segments_quarantined) => "quarantined",
        /// Wall-clock cost of opening the segment store: manifest replay,
        /// orphan sweep and lazy adoption — not any document load.
        cold_start_load: Duration = (Duration::from_nanos(catalog.cold_start_nanos)) => "cold-start",
    }
    "indexes:" {
        /// Structural indexes built by catalog loads.
        index_builds: u64 = (catalog.index_builds) => "builds",
        /// Live structural-index bytes (part of `catalog_bytes`).
        index_bytes: u64 = (catalog.index_bytes) => "bytes",
        /// Total wall-clock time spent building structural indexes.
        index_build_time: Duration = (Duration::from_nanos(catalog.index_build_nanos)) => "build-time",
        /// `IndexScan` operators answered from a structural index.
        index_hits: u64 = Counter => "hits",
        /// `IndexScan` operators that fell back to navigation.
        index_misses: u64 = Counter => "misses",
    }
    "pool:   " {
        /// Queries executing right now.
        active: u64 = (pool.active) => "active",
        /// Queries admitted and waiting for a worker.
        queued: u64 = (pool.queued) => "queued",
        /// Worker threads: queries executing at once.
        max_concurrent: u64 = (svc.pool.workers() as u64) => "max-concurrent",
        /// Admitted queries that may wait for a worker.
        max_queued: u64 = (svc.pool.max_queued() as u64) => "max-queued",
        /// Jobs admitted into the worker pool (ran or expired in queue).
        admitted: u64 = (pool.admitted) => "admitted",
        /// Queued jobs dropped unexecuted because their deadline passed.
        dropped_expired: u64 = (pool.dropped_expired) => "dropped-expired",
    }
    "queue-wait:" {
        /// Queue-wait distribution over every dequeue, including drops.
        queue_wait_count: u64 = (queue_wait.count()) => "n",
        /// Mean queue wait.
        queue_wait_mean: Duration = (queue_wait.mean()) => "mean",
        /// Median queue wait.
        queue_wait_p50: Duration = (queue_wait.p50()) => "p50",
        /// 99th-percentile queue wait.
        queue_wait_p99: Duration = (queue_wait.p99()) => "p99",
    }
    "parallel:" {
        /// Index-fed twig joins that split into ≥ 2 morsels.
        parallel_joins: u64 = Counter => "joins",
        /// Morsels executed across those joins.
        morsels_run: u64 = Counter => "morsels",
        /// Inverted-list scans served from a batch's shared scan cache.
        scan_shared_hits: u64 = Counter => "scan-shared-hits",
        /// [`QueryService::run_batch`] calls admitted.
        batches: u64 = Counter => "batches",
        /// Queries executed inside batches.
        batch_queries: u64 = Counter => "batch-queries",
    }
    "resilience:" {
        /// Transient-failure re-submissions by the `run` family.
        retries: u64 = Counter => "retries",
        /// Shed queries served by the caller-thread streaming fallback.
        shed_to_streaming: u64 = Counter => "shed-to-streaming",
        /// Plan acquisitions that bypassed the cache (`Degraded::CacheOnly`).
        degraded_cache_only: u64 = Counter => "cache-only",
        /// Catalog loads served unindexed under an open breaker
        /// (`Degraded::NoIndex`).
        degraded_no_index: u64 = (catalog.degraded_no_index) => "no-index",
        /// Structural-index builds that failed (their documents stay live,
        /// unindexed).
        index_build_failures: u64 = (catalog.index_build_failures) => "build-failures",
        /// Times the catalog's index-build breaker opened.
        index_breaker_opens: u64 = (catalog.index_breaker_opens) => (breaker_opens),
        /// Times the service's plan-cache breaker opened.
        plan_breaker_opens: u64 = (svc.shared.plans_breaker.opens()) => _,
        /// Poisoned-lock recoveries (process-wide: the lock helper has no
        /// service context).
        lock_recoveries: u64 = (resilience::lock_recoveries()) => "lock-recoveries",
    }
    "pubsub: " {
        /// Live standing subscriptions.
        subscriptions_active: u64 = (subs.active) => "subscriptions",
        /// Documents pushed through [`QueryService::publish`] (and
        /// `publish_retained`).
        documents_published: u64 = (subs.documents_published) => "published",
        /// Per-subscription match deliveries that charged a budget
        /// successfully, summed over publishes.
        matches_delivered: u64 = (subs.matches_delivered) => "matches",
        /// Subscriptions served by the combined shared pass, summed over
        /// publishes.
        shared_pass_evals: u64 = (subs.shared_pass_evals) => "shared-pass",
        /// Subscriptions served by one-shot fallback, summed over publishes.
        fallback_evals: u64 = (subs.fallback_evals) => "fallback",
        /// Sink deliveries that errored or panicked (each degraded only its
        /// own subscription).
        delivery_failures: u64 = (subs.delivery_failures) => "delivery-failures",
    }
    "stream: " {
        /// Tokens inspected by streaming passes (publish shared pass,
        /// stream queries and the shed-to-streaming rung).
        stream_tokens_seen: u64 = Counter => "tokens-seen",
        /// Tokens pruned by `skip()` without inspection.
        stream_tokens_skipped: u64 = Counter => "tokens-skipped",
        /// Matches emitted by streaming passes.
        stream_matches: u64 = Counter => "matches",
    }
    "ingest: " {
        /// Chunk sessions opened ([`QueryService::open_chunk_session`]).
        ingest_sessions_opened: u64 = Counter => "sessions",
        /// Chunk sessions live right now.
        ingest_sessions_active: u64 = (chunk_sessions) => "active",
        /// Chunk sessions finished (document delivered to subscriptions).
        ingest_sessions_finished: u64 = Counter => "finished",
        /// Chunk sessions dropped by [`QueryService::abort_chunk_session`].
        ingest_sessions_aborted: u64 = Counter => "aborted",
        /// Idle chunk sessions reclaimed by the reaper.
        ingest_sessions_reaped: u64 = Counter => "reaped",
        /// Chunk sessions removed by a feed/finish failure (lexing error,
        /// budget trip, injected fault).
        ingest_sessions_failed: u64 = Counter => "failed",
        /// Chunks accepted across all sessions.
        ingest_chunks: u64 = Counter => "chunks",
        /// Bytes accepted across all sessions.
        ingest_bytes: u64 = Counter => "bytes",
        /// Stream queries opened ([`QueryService::open_stream_query`]).
        ingest_stream_queries: u64 = Counter => "stream-queries",
    }
    "pressure:" {
        /// Ledger pressure state at snapshot time.
        pressure_state: PressureState = (ledger.state) => (state),
        /// Live ledger-tracked bytes across every category.
        memory_bytes: u64 = (ledger.total) => "bytes",
        /// High-water mark of `memory_bytes`.
        memory_peak: u64 = (ledger.peak) => "peak",
        /// Configured memory ceiling; 0 when governance is off.
        memory_ceiling: u64 = (ledger.ceiling) => "ceiling",
        /// Pressure-state transitions into Green.
        pressure_to_green: u64 = (ledger.to_green) => "to-green",
        /// Pressure-state transitions into Yellow.
        pressure_to_yellow: u64 = (ledger.to_yellow) => "to-yellow",
        /// Pressure-state transitions into Red.
        pressure_to_red: u64 = (ledger.to_red) => "to-red",
        /// `try_charge` refusals at the hard ceiling.
        memory_rejected: u64 = (ledger.rejected) => "rejected",
        /// Publishes, batch jobs and chunk sessions shed at admission
        /// because the ledger was Red.
        pressure_sheds: u64 = Counter => "sheds",
        /// Parallel joins this service's queries ran inline because
        /// pressure was Yellow or worse when they were admitted.
        joins_shed_pressure: u64 = Counter => "morsels-inline",
        /// Catalog loads served unindexed because the ledger was at Yellow
        /// or worse (also counted in `degraded_no_index`).
        pressure_no_index: u64 = (catalog.pressure_no_index) => "no-index",
        /// Disk bytes held by quarantined segments (observability gauge —
        /// never charged against the catalog budget).
        quarantined_bytes: u64 = (catalog.quarantined_bytes) => "quarantined-bytes",
    }
    "memory: " {
        /// Per-category ledger peaks, in [`Category::ALL`] order.
        memory_category_peak: [u64; Category::ALL.len()] =
            (Category::ALL.map(|cat| ledger.category(cat).peak)) => (category_peaks),
    }
    "latency:" {
        /// Queries (and batches) that finished on a worker.
        latency_count: u64 = (latency.count()) => "n",
        /// Mean submission-to-completion latency.
        latency_mean: Duration = (latency.mean()) => "mean",
        /// Median submission-to-completion latency.
        latency_p50: Duration = (latency.p50()) => "p50",
        /// 99th-percentile submission-to-completion latency.
        latency_p99: Duration = (latency.p99()) => "p99",
    }
}

#[cfg(test)]
mod tests {
    use crate::{QueryService, ServiceConfig};
    use xqr_pressure::PressureConfig;

    #[test]
    fn stats_text_of_a_fresh_service() {
        let svc = QueryService::new(ServiceConfig {
            max_concurrent: 2,
            max_queued: 8,
            pressure: PressureConfig::with_ceiling(1 << 20),
            ..Default::default()
        });
        // Lock recoveries are counted process-wide; mask them.
        let text = svc.stats_text();
        let (head, tail) = text.split_once("lock-recoveries: ").unwrap();
        let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        let text = format!("{head}lock-recoveries: *{tail}");
        assert_eq!(
            text,
            "\
service: served: 0 failed: 0 rejected: 0
plans:   lookups: 0 hits: 0 misses: 0 evictions: 0 entries: 0 hit-rate: 0.0%
catalog: docs: 0 bytes: 0 evictions: 0
segments: written: 0 recovered: 0 quarantined: 0 cold-start: 0ns
indexes: builds: 0 bytes: 0 build-time: 0ns hits: 0 misses: 0
pool:    active: 0 queued: 0 max-concurrent: 2 max-queued: 8 admitted: 0 dropped-expired: 0
queue-wait: n: 0 mean: 0ns p50: 0ns p99: 0ns
parallel: joins: 0 morsels: 0 scan-shared-hits: 0 batches: 0 batch-queries: 0
resilience: retries: 0 shed-to-streaming: 0 cache-only: 0 no-index: 0 build-failures: 0 \
breaker-opens: 0/0 lock-recoveries: *
pubsub:  subscriptions: 0 published: 0 matches: 0 shared-pass: 0 fallback: 0 delivery-failures: 0
stream:  tokens-seen: 0 tokens-skipped: 0 matches: 0
ingest:  sessions: 0 active: 0 finished: 0 aborted: 0 reaped: 0 failed: 0 chunks: 0 bytes: 0 \
stream-queries: 0
pressure: state: green bytes: 0 peak: 0 ceiling: 1048576 to-green: 0 to-yellow: 0 to-red: 0 \
rejected: 0 sheds: 0 morsels-inline: 0 no-index: 0 quarantined-bytes: 0
memory:  catalog: 0 plans: 0 chunks: 0 ingest: 0 pubsub: 0 morsels: 0 output: 0 (peak bytes)
latency: n: 0 mean: 0ns p50: 0ns p99: 0ns"
        );
    }
}
