//! [`QueryService`]: the composed service facade.
//!
//! One object an embedder shares across threads (`Arc<QueryService>` or
//! `&QueryService` — everything inside is `Sync`): documents go in via
//! the byte-budgeted catalog, queries go through the sharded plan cache
//! and the admission-controlled worker pool, and a [`ServiceStats`]
//! snapshot reports how the service is doing.
//!
//! Per-request governance: every admitted query gets its own
//! [`QueryGuard`] built from [`ServiceConfig::per_query_limits`], and
//! its deadline clock starts at *submission* — time spent waiting in the
//! run queue counts against the budget, which is the service-level
//! meaning of a deadline.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::catalog::DocumentCatalog;
use crate::plan_cache::PlanCache;
use crate::pool::WorkerPool;
use crate::resilience::{CircuitBreaker, RetryPolicy};
pub use crate::stats::ServiceStats;
use crate::stats::{count, ServiceCounters};
use xqr_core::{Engine, EngineOptions, PreparedQuery};
use xqr_pressure::{Category, Charge, MemoryLedger, MorselSink, PressureConfig, PressureState};
use xqr_runtime::{DynamicContext, Item, StreamStats};
use xqr_store::{DocId, NodeId, NodeRef};
use xqr_subscribe::{PublishReport, SubId, SubscriptionRegistry, SubscriptionSink};
use xqr_xdm::{
    CancelHandle, Error, ErrorCode, LatencyHistogram, Limits, MemorySink, QueryGuard, Result,
};

/// Consecutive plan-cache failures that open the service's breaker.
const PLAN_BREAKER_THRESHOLD: u32 = 3;
/// How long the open plan breaker serves `Degraded::CacheOnly`.
const PLAN_BREAKER_COOLDOWN: Duration = Duration::from_millis(250);

/// Configuration for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Compile/runtime options for the underlying engine. Part of the
    /// plan-cache key via [`EngineOptions::fingerprint`].
    pub engine: EngineOptions,
    /// Total plans the cache may hold before evicting LRU entries.
    pub plan_cache_capacity: usize,
    /// Independently locked cache shards (contention divider).
    pub plan_cache_shards: usize,
    /// Total in-memory bytes of catalog documents; `None` = unbounded.
    pub catalog_max_bytes: Option<u64>,
    /// Worker threads — queries executing at once.
    pub max_concurrent: usize,
    /// Admitted queries that may wait for a worker; beyond this,
    /// submissions fail with `err:XQRL0004 Overloaded`.
    pub max_queued: usize,
    /// Budgets applied to every query (deadline measured from
    /// submission, so queue wait is included).
    pub per_query_limits: Limits,
    /// Retry policy for [`QueryService::run`]-family calls: transient
    /// failures (`XQRL0002/0004/0005`) are retried with exponential
    /// backoff; deterministic errors are returned immediately.
    pub retry: RetryPolicy,
    /// Directory for the durable segment store. `None` (the default)
    /// keeps the catalog purely in-memory; `Some(dir)` makes every
    /// loaded document crash-safe on disk and lets a restarted service
    /// recover its corpus by replaying the manifest — construct with
    /// [`QueryService::open`] to observe recovery errors.
    pub persist_dir: Option<PathBuf>,
    /// Live chunked-ingestion sessions the service will hold at once;
    /// opening past this (after reaping idle sessions) fails with
    /// `err:XQRL0004 Overloaded`.
    pub max_chunk_sessions: usize,
    /// Chunk sessions idle this long are reaped: the next admission
    /// sweep (or an explicit [`QueryService::reap_idle_sessions`])
    /// frees their slots and their buffered state.
    pub chunk_session_idle: Duration,
    /// Process-wide memory governance: ceiling, watermark fractions and
    /// hysteresis for the service's [`MemoryLedger`]. The default has no
    /// ceiling — every category is tracked, nothing is shed. With a
    /// ceiling, Yellow triggers the brownout ladder (no new index
    /// builds, plan-cache shrink, catalog demotion, parallel joins run
    /// inline) and Red sheds new chunk sessions, publishes and batch
    /// jobs with `err:XQRL0004`.
    pub pressure: PressureConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineOptions::default(),
            plan_cache_capacity: 256,
            plan_cache_shards: 8,
            catalog_max_bytes: None,
            max_concurrent: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_queued: 64,
            per_query_limits: Limits::unlimited(),
            retry: RetryPolicy::default(),
            persist_dir: None,
            max_chunk_sessions: 64,
            chunk_session_idle: Duration::from_secs(30),
            pressure: PressureConfig::default(),
        }
    }
}

pub(crate) struct ServiceShared {
    engine: Arc<Engine>,
    pub(crate) plans: PlanCache,
    limits: Limits,
    retry: RetryPolicy,
    /// Every counter [`ServiceStats`] reports that the service owns.
    pub(crate) counters: ServiceCounters,
    /// De-synchronizes concurrent retriers' jittered backoff.
    retry_salt: AtomicU64,
    /// Opens after repeated plan-cache failures; while open, queries
    /// serve cached plans or compile uncached (`Degraded::CacheOnly`).
    pub(crate) plans_breaker: CircuitBreaker,
    pub(crate) latency: LatencyHistogram,
    /// Process-wide memory governance: every subsystem charges here.
    pub(crate) ledger: Arc<MemoryLedger>,
    /// Per-query morsel-buffer accounting channel (see [`MorselSink`]).
    morsel_sink: Arc<MorselSink>,
    /// Configured plan-cache capacity — the shrink rung's reference.
    plan_cache_capacity: usize,
    /// Yellow/Red transitions already acted on by the brownout ladder.
    brownouts_seen: AtomicU64,
}

impl ServiceShared {
    /// Get a plan for `query`, degrading around an unhealthy plan cache.
    ///
    /// A cache whose *insert* side is failing (`err:XQRL0005`, e.g. an
    /// injected fault at `plans.insert`) must not take query execution
    /// down with it: the failed lookup falls back to an uncached
    /// compile, and enough consecutive failures open the breaker so the
    /// cache is bypassed wholesale (cached plans still hit) until a
    /// cooldown probe succeeds. Deterministic compile errors are the
    /// query's own problem and pass through untouched.
    fn acquire_plan(&self, query: &str) -> Result<Arc<PreparedQuery>> {
        if self.plans_breaker.allow() {
            match self.plans.get_or_compile(&self.engine, query) {
                Ok(plan) => {
                    self.plans_breaker.record_success();
                    Ok(plan)
                }
                Err(e) if e.code == ErrorCode::Unavailable => {
                    self.plans_breaker.record_failure();
                    count(&self.counters.degraded_cache_only, 1);
                    self.engine.compile_shared(query)
                }
                Err(e) => Err(e),
            }
        } else {
            count(&self.counters.degraded_cache_only, 1);
            match self.plans.get_cached(&self.engine, query) {
                Some(plan) => Ok(plan),
                None => self.engine.compile_shared(query),
            }
        }
    }

    /// Fold one execution's per-query counters into the service gauges.
    fn record_counters(&self, counters: &xqr_runtime::Counters) {
        let c = &self.counters;
        count(&c.index_hits, counters.index_hits.get());
        count(&c.index_misses, counters.index_misses.get());
        count(&c.parallel_joins, counters.parallel_joins.get());
        count(&c.morsels_run, counters.morsels_run.get());
        count(&c.scan_shared_hits, counters.scan_cache_hits.get());
        count(&c.joins_shed_pressure, counters.joins_shed_pressure.get());
    }

    /// Count one finished query as served or failed.
    pub(crate) fn record_outcome<T>(&self, outcome: &Result<T>) {
        let c = &self.counters;
        let counter = if outcome.is_ok() {
            &c.served
        } else {
            &c.failed
        };
        count(counter, 1);
    }

    pub(crate) fn record_stream(&self, stats: &StreamStats) {
        let c = &self.counters;
        count(&c.stream_tokens_seen, stats.tokens_seen);
        count(&c.stream_tokens_skipped, stats.tokens_skipped);
        count(&c.stream_matches, stats.matches);
    }

    /// Build a per-query guard wired for pressure governance: the morsel
    /// sink is attached, and at Yellow or worse the query is pinned to
    /// inline join execution for its whole run (sticky per query — a
    /// mid-flight transition never splits one query across strategies).
    fn governed_guard(&self) -> QueryGuard {
        let guard = QueryGuard::new(self.limits);
        guard.set_memory_sink(Arc::clone(&self.morsel_sink) as Arc<dyn MemorySink>);
        if self.ledger.state() >= PressureState::Yellow {
            guard.shed_parallel();
        }
        guard
    }

    /// Red-state admission check for sheddable work (chunk sessions,
    /// publishes, batch jobs). Queries themselves are *not* shed here —
    /// the pool's bounded queue plus deadline-aware dequeue govern them.
    fn check_red(&self, what: &str) -> Result<()> {
        if self.ledger.state() == PressureState::Red {
            count(&self.counters.pressure_sheds, 1);
            let snap = self.ledger.snapshot();
            return Err(Error::overloaded(format!(
                "memory pressure is red ({} of {} bytes): {what} shed at admission",
                snap.total, snap.ceiling
            )));
        }
        Ok(())
    }
}

/// A thread-safe query service over one engine. See the crate docs.
pub struct QueryService {
    pub(crate) shared: Arc<ServiceShared>,
    pub(crate) catalog: Arc<DocumentCatalog>,
    pub(crate) pool: WorkerPool,
    pub(crate) subs: SubscriptionRegistry,
    ingest: crate::ingest::IngestState,
}

/// An admitted, in-flight query. Obtain from [`QueryService::submit`];
/// call [`QueryTicket::wait`] for the result, or cancel from any thread
/// via the [`CancelHandle`].
pub struct QueryTicket {
    /// The outcome, with the ledger charge for its serialized text; the
    /// charge drops once the waiter has received it.
    rx: mpsc::Receiver<(Result<String>, Option<Charge>)>,
    cancel: CancelHandle,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("cancelled", &self.cancel.is_cancelled())
            .finish()
    }
}

impl QueryTicket {
    /// A handle that stops this query with `err:XQRL0003` when
    /// triggered; clonable and safe to move to another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// Block until the query finishes and return its serialized result.
    pub fn wait(self) -> Result<String> {
        self.rx
            .recv()
            .map(|(outcome, _charge)| outcome)
            .unwrap_or_else(|_| Err(Error::cancelled("service shut down before the query ran")))
    }
}

impl QueryService {
    /// Build an in-memory service. Panics if [`ServiceConfig::persist_dir`]
    /// is set and opening the segment store fails (an I/O or recovery
    /// error); use [`QueryService::open`] to handle that case.
    pub fn new(config: ServiceConfig) -> Self {
        Self::open(config).expect("service construction failed")
    }

    /// Build a service, opening (or creating) the durable segment store
    /// when [`ServiceConfig::persist_dir`] is set. Recovery is O(manifest):
    /// documents persisted by earlier incarnations are adopted lazily and
    /// mmapped — checksum-verified — on first `doc("name")` touch.
    pub fn open(config: ServiceConfig) -> Result<Self> {
        let engine = Arc::new(Engine::with_options(config.engine.clone()));
        // Catalog loads build structural indexes under the same budgets
        // queries run with; an index build is bounded work, like a query.
        let index_limits = config
            .engine
            .index_documents
            .then_some(config.per_query_limits);
        let catalog = match &config.persist_dir {
            Some(dir) => DocumentCatalog::with_persistence(
                engine.store().clone(),
                config.catalog_max_bytes,
                index_limits,
                dir.clone(),
            )?,
            None => Arc::new(DocumentCatalog::with_indexing(
                engine.store().clone(),
                config.catalog_max_bytes,
                index_limits,
            )),
        };
        let ledger = Arc::new(MemoryLedger::new(config.pressure));
        let plans = PlanCache::new(config.plan_cache_capacity, config.plan_cache_shards);
        plans.attach_ledger(Arc::clone(&ledger));
        catalog.attach_ledger(Arc::clone(&ledger));
        let pool = WorkerPool::new(config.max_concurrent, config.max_queued);
        pool.set_pressure(Arc::clone(&ledger));
        Ok(QueryService {
            shared: Arc::new(ServiceShared {
                engine,
                plans,
                limits: config.per_query_limits,
                retry: config.retry,
                counters: ServiceCounters::default(),
                retry_salt: AtomicU64::new(0),
                plans_breaker: CircuitBreaker::new(PLAN_BREAKER_THRESHOLD, PLAN_BREAKER_COOLDOWN),
                latency: LatencyHistogram::new(),
                morsel_sink: Arc::new(MorselSink(Arc::clone(&ledger))),
                ledger,
                plan_cache_capacity: config.plan_cache_capacity,
                brownouts_seen: AtomicU64::new(0),
            }),
            catalog,
            pool,
            subs: SubscriptionRegistry::new(),
            ingest: crate::ingest::IngestState::new(
                config.max_chunk_sessions,
                config.chunk_session_idle,
            ),
        })
    }

    pub(crate) fn ingest_state(&self) -> &crate::ingest::IngestState {
        &self.ingest
    }

    pub(crate) fn limits(&self) -> Limits {
        self.shared.limits
    }

    pub(crate) fn acquire_plan_for_ingest(&self, query: &str) -> Result<Arc<PreparedQuery>> {
        self.shared.acquire_plan(query)
    }

    /// The service's memory ledger: live bytes per category, pressure
    /// state, transition counters. Embedders can watch it directly;
    /// everything it reports also surfaces in [`QueryService::stats`].
    pub fn ledger(&self) -> &Arc<MemoryLedger> {
        &self.shared.ledger
    }

    pub(crate) fn check_red(&self, what: &str) -> Result<()> {
        self.shared.check_red(what)
    }

    /// Apply the once-per-transition brownout rungs: on each *new*
    /// Yellow/Red transition, shrink the plan cache to half capacity and
    /// (under persistence, where demotion is lossless) shed cold catalog
    /// residents to half their bytes. Steady-state pressure costs one
    /// atomic read per call; the rungs re-arm every time pressure
    /// re-enters Yellow.
    fn enforce_brownout(&self) {
        let snap = self.shared.ledger.snapshot();
        let seen = snap.to_yellow + snap.to_red;
        let prev = self.shared.brownouts_seen.swap(seen, Ordering::Relaxed);
        if seen > prev && snap.state >= PressureState::Yellow {
            self.shared
                .plans
                .shrink_to(self.shared.plan_cache_capacity / 2);
            if self.catalog.persist_dir().is_some() {
                self.catalog.shed_cold(self.catalog.total_bytes() / 2);
            }
        }
    }

    /// The engine the service runs on (e.g. for `explain` output).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The document catalog (direct access for eviction-sensitive
    /// embedders; [`QueryService::load_document`] is the common path).
    pub fn catalog(&self) -> &DocumentCatalog {
        &self.catalog
    }

    /// Load `xml` under `name`, reachable from queries as `doc("name")`.
    /// May evict least-recently-used documents to fit the byte budget.
    ///
    /// Panic-contained: a panic during parse/index/evict (injected or
    /// otherwise) surfaces as `err:XQRL0000`, never unwinds into the
    /// embedder. The catalog keeps its accounting consistent either way.
    pub fn load_document(&self, name: &str, xml: &str) -> Result<DocId> {
        xqr_core::contain_panic(|| self.catalog.put(name, xml))
    }

    /// Remove a named document. `false` if not loaded. Panic-contained
    /// like [`QueryService::load_document`]; a contained panic reports
    /// `false` (the entry, if any, survives for a later retry).
    pub fn remove_document(&self, name: &str) -> bool {
        xqr_core::contain_panic(|| Ok(self.catalog.remove(name))).unwrap_or(false)
    }

    /// Retry removal of store documents orphaned by a contained panic
    /// mid-removal (a query result's constructed document, a publish's
    /// transient). Every publish reaps automatically; this reclaims
    /// without publishing (a quiesced-service sweep). Returns how many
    /// documents were freed.
    pub fn reap_orphaned_documents(&self) -> usize {
        self.engine().store().reap_orphans()
    }

    /// Compile through the plan cache without executing (warm-up path).
    pub fn prepare(&self, query: &str) -> Result<Arc<PreparedQuery>> {
        self.shared.plans.get_or_compile(&self.shared.engine, query)
    }

    /// Render `query`'s compiled plan plus the service's pressure
    /// posture — why a join would run inline or an admission would shed
    /// is explainable from this output alone.
    pub fn explain(&self, query: &str) -> Result<String> {
        let plan = self.shared.acquire_plan(query)?;
        let snap = self.shared.ledger.snapshot();
        let mut text = plan.explain();
        text.push_str(&format!(
            "pressure: {} ({} of {} bytes, peak {}; transitions green: {} yellow: {} red: {})\n",
            snap.state.as_str(),
            snap.total,
            snap.ceiling,
            snap.peak,
            snap.to_green,
            snap.to_yellow,
            snap.to_red,
        ));
        for cat in Category::ALL {
            let c = snap.category(cat);
            text.push_str(&format!(
                "  memory {}: {} (peak {})\n",
                cat.as_str(),
                c.current,
                c.peak
            ));
        }
        Ok(text)
    }

    /// Register a standing query: every subsequent
    /// [`QueryService::publish`] evaluates it against the published
    /// document. Compiles through the plan cache, so a hot subscription
    /// query and its one-shot twin share one plan. The subscription
    /// runs under [`ServiceConfig::per_query_limits`] per document.
    pub fn subscribe(&self, query: &str) -> Result<SubId> {
        self.subscribe_with_sink(query, None)
    }

    /// [`QueryService::subscribe`] with a delivery sink: the sink
    /// receives this subscription's outcome (matches or its coded
    /// error) for every published document, on the publishing thread.
    /// A panicking or failing sink degrades only this subscription.
    pub fn subscribe_with_sink(
        &self,
        query: &str,
        sink: Option<Arc<dyn SubscriptionSink>>,
    ) -> Result<SubId> {
        let plan = self.shared.acquire_plan(query)?;
        Ok(self.subs.register(query, plan, self.shared.limits, sink))
    }

    /// Remove a standing query. `false` for stale ids (already
    /// unsubscribed, or the slot was reused) — never affects the
    /// slot's current tenant.
    pub fn unsubscribe(&self, id: SubId) -> bool {
        self.subs.unregister(id)
    }

    /// Live standing-query count.
    pub fn subscriptions(&self) -> usize {
        self.subs.active()
    }

    /// Publish a transient document at every standing subscription:
    /// one tokenization pass drives the combined automaton for all
    /// streamable subscriptions; non-streamable ones share a single
    /// materialized (and, breaker permitting, indexed) copy routed
    /// through the catalog's accounting, removed again before this
    /// returns. The document is NOT retained — it is never reachable
    /// via `doc("name")`.
    pub fn publish(&self, name: &str, xml: &str) -> Result<PublishReport> {
        self.enforce_brownout();
        self.shared.check_red("publish")?;
        // The tokenization pass and any transient fallback copy are this
        // publish's footprint; released when the report is delivered.
        let _charge = Charge::new(
            Arc::clone(&self.shared.ledger),
            Category::Subscriptions,
            xml.len() as u64,
        );
        let report = self.subs.publish_with_doc(
            &self.shared.engine,
            name,
            xml,
            self.shared.limits,
            || {
                self.catalog
                    .load_transient_indexed(xml)
                    .map(|id| (id, true))
            },
        )?;
        self.shared.record_stream(&report.stats);
        Ok(report)
    }

    /// [`QueryService::publish`] + retention: the document also
    /// becomes (or replaces) catalog entry `name`, queryable afterwards
    /// as `doc("name")`. Fallback subscriptions evaluate against the
    /// retained copy, so nothing is parsed twice.
    pub fn publish_retained(&self, name: &str, xml: &str) -> Result<PublishReport> {
        self.enforce_brownout();
        self.shared.check_red("publish")?;
        let _charge = Charge::new(
            Arc::clone(&self.shared.ledger),
            Category::Subscriptions,
            xml.len() as u64,
        );
        let id = self.load_document(name, xml)?;
        let report = self.subs.publish_with_doc(
            &self.shared.engine,
            name,
            xml,
            self.shared.limits,
            || Ok((id, false)),
        )?;
        self.shared.record_stream(&report.stats);
        Ok(report)
    }

    /// Admit a query for execution, or fail fast with `err:XQRL0004`
    /// when the workers and the run queue are both full. Compilation
    /// (or the cache hit) happens on the worker, so a shed query costs
    /// the service nothing but the admission check.
    pub fn submit(&self, query: &str, ctx: DynamicContext) -> Result<QueryTicket> {
        self.enforce_brownout();
        let shared = self.shared.clone();
        let query = query.to_string();
        let guard = shared.governed_guard();
        let cancel = guard.cancel_handle();
        let deadline = guard.deadline_at();
        let submitted = Instant::now();
        let (tx, rx) = mpsc::channel();
        // Deadline-aware admission: if this query's deadline passes
        // while it waits in the run queue, the pool drops it without
        // executing and this closure fails the ticket — over-deadline
        // work is not worth a worker slot.
        let expire = deadline.map(|_| {
            let tx = tx.clone();
            let shared = self.shared.clone();
            Box::new(move || {
                count(&shared.counters.failed, 1);
                let _ = tx.send((
                    Err(Error::timeout(
                        "deadline expired while queued: dropped at admission, never executed",
                    )),
                    None,
                ));
            }) as Box<dyn FnOnce() + Send>
        });
        self.pool.submit_governed(deadline, expire, move || {
            // A panic while compiling or caching the plan is this query's
            // internal error, not a dropped ticket.
            let outcome = xqr_core::contain_panic(|| shared.acquire_plan(&query))
                .and_then(|plan| plan.execute_guarded(&shared.engine, &ctx, guard))
                .and_then(|result| {
                    shared.record_counters(&result.counters);
                    result.serialize_guarded()
                });
            shared.latency.record(submitted.elapsed());
            shared.record_outcome(&outcome);
            // The serialized result is live until the waiter receives
            // it; charge it for exactly that window (the charge travels
            // with the result and drops in `wait`, or here if nobody
            // waits).
            let charge = outcome.as_ref().ok().map(|s| {
                Charge::new(
                    Arc::clone(&shared.ledger),
                    Category::QueryOutput,
                    s.len() as u64,
                )
            });
            // Deliver in the publish phase: the worker slot is free by the
            // time the waiter wakes, so "wait, then submit" never sheds.
            // The submitter may have stopped waiting; that's fine.
            Some(Box::new(move || {
                let _ = tx.send((outcome, charge));
            }) as Box<dyn FnOnce() + Send>)
        })?;
        Ok(QueryTicket { rx, cancel })
    }

    /// Run a query to completion with an empty dynamic context,
    /// retrying transient failures per [`ServiceConfig::retry`].
    pub fn run(&self, query: &str) -> Result<String> {
        self.run_with_context(query, DynamicContext::new())
    }

    /// Run a query to completion with the given context (external
    /// variable bindings, context item, …).
    ///
    /// Transient failures — shed at admission (`XQRL0004`), a starved
    /// deadline (`XQRL0002`), or a subsystem fault (`XQRL0005`) — are
    /// re-submitted up to [`RetryPolicy::max_retries`] times with
    /// jittered exponential backoff. Deterministic errors (type errors,
    /// budget trips, cancellation) return immediately: retrying them
    /// would burn capacity to get the same answer.
    pub fn run_with_context(&self, query: &str, ctx: DynamicContext) -> Result<String> {
        let policy = self.shared.retry;
        let salt = self.shared.retry_salt.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            let outcome = self.submit(query, ctx.clone()).and_then(|t| t.wait());
            match outcome {
                Err(e) if e.is_retryable() && attempt < policy.max_retries => {
                    attempt += 1;
                    count(&self.shared.counters.retries, 1);
                    std::thread::sleep(policy.backoff(attempt, salt));
                }
                other => return other,
            }
        }
    }

    /// Run `query` against `xml` bound as the context item, with one
    /// more degradation rung below the retry loop: if the pool is still
    /// shedding (`XQRL0004`) after every retry and the plan is
    /// streamable, the query runs on the *caller's* thread through the
    /// token-streaming automaton — same result, trading the pool's
    /// parallelism for guaranteed progress under overload.
    pub fn run_on_xml(&self, query: &str, xml: &str) -> Result<String> {
        let id = self.shared.engine.store().load_xml(xml, None)?;
        let mut ctx = DynamicContext::new();
        ctx.context_item = Some(Item::Node(NodeRef::new(id, NodeId(0))));
        let pooled = self.run_with_context(query, ctx);
        self.shared.engine.store().remove_document(id);
        match pooled {
            Err(e) if e.code == ErrorCode::Overloaded => {
                let plan = self.shared.acquire_plan(query)?;
                if plan.is_streamable() {
                    count(&self.shared.counters.shed_to_streaming, 1);
                    let mut out = String::new();
                    let stats =
                        plan.execute_streaming(&self.shared.engine, xml, |m| out.push_str(m))?;
                    self.shared.record_stream(&stats);
                    count(&self.shared.counters.served, 1);
                    Ok(out)
                } else {
                    Err(e)
                }
            }
            other => other,
        }
    }

    /// Run many queries against one catalog document in a single pass,
    /// sharing inverted-list scans across them.
    ///
    /// The whole batch is **one pool admission**: it occupies one worker
    /// slot (or is shed as a unit with `err:XQRL0004`), and inside it
    /// every query gets its own plan-cache acquisition, its own
    /// [`QueryGuard`] from [`ServiceConfig::per_query_limits`], and its
    /// own result slot — one failing query never poisons its batch
    /// siblings. Queries touching the same QNames reuse each other's
    /// path-filtered inverted lists through a batch-scoped scan cache,
    /// which is where the shared-scan speedup comes from.
    ///
    /// The outer `Err` covers batch-level failures only: an unknown or
    /// quarantined document, or admission shedding.
    pub fn run_batch(&self, doc: &str, queries: &[&str]) -> Result<Vec<Result<String>>> {
        self.enforce_brownout();
        self.shared.check_red("batch job")?;
        let id = self.catalog.resolve(doc)?.ok_or_else(|| {
            Error::new(
                ErrorCode::DocumentNotFound,
                format!("run_batch: no catalog document named {doc:?}"),
            )
        })?;
        let shared = self.shared.clone();
        let queries: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        let submitted = Instant::now();
        let (tx, rx) = mpsc::channel();
        self.pool.submit_with_publish(move || {
            let scans = Arc::new(xqr_runtime::ScanCache::new());
            let mut ctx = DynamicContext::new();
            ctx.context_item = Some(Item::Node(NodeRef::new(id, NodeId(0))));
            count(&shared.counters.batches, 1);
            let outcomes: Vec<Result<String>> = queries
                .iter()
                .map(|query| {
                    count(&shared.counters.batch_queries, 1);
                    let outcome = xqr_core::contain_panic(|| shared.acquire_plan(query))
                        .and_then(|plan| {
                            plan.execute_shared_scans(
                                &shared.engine,
                                &ctx,
                                shared.governed_guard(),
                                scans.clone(),
                            )
                        })
                        .and_then(|result| {
                            shared.record_counters(&result.counters);
                            result.serialize_guarded()
                        });
                    shared.record_outcome(&outcome);
                    outcome
                })
                .collect();
            shared.latency.record(submitted.elapsed());
            Some(Box::new(move || {
                let _ = tx.send(outcomes);
            }) as Box<dyn FnOnce() + Send>)
        })?;
        rx.recv()
            .map_err(|_| Error::cancelled("service shut down before the batch ran"))
    }

    /// [`QueryService::stats`] rendered as `explain`-style text.
    pub fn stats_text(&self) -> String {
        self.stats().to_string()
    }
}

// The whole point of the service is cross-thread sharing; hold the
// compiler to it.
const _: () = {
    #[allow(dead_code)]
    fn assert_send_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    fn _assertions() {
        assert_send_sync::<QueryService>();
        assert_send_sync::<ServiceConfig>();
        assert_send_sync::<ServiceStats>();
        assert_send_sync::<DynamicContext>();
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_queries_and_counts_them() {
        let service = QueryService::new(ServiceConfig::default());
        assert_eq!(service.run("1 + 1").unwrap(), "2");
        assert_eq!(service.run("1 + 1").unwrap(), "2");
        assert_eq!(service.run("2 * 3").unwrap(), "6");
        let s = service.stats();
        assert_eq!(s.served, 3);
        assert_eq!(s.failed, 0);
        assert_eq!(s.plan_lookups, 3);
        assert_eq!(s.plan_hits, 1);
        assert_eq!(s.plan_misses, 2);
        assert_eq!(s.latency_count, 3);
        assert!(s.latency_p50 > Duration::ZERO);
    }

    #[test]
    fn documents_reach_queries_through_the_catalog() {
        let service = QueryService::new(ServiceConfig::default());
        service
            .load_document("bib.xml", "<bib><book/><book/></bib>")
            .unwrap();
        assert_eq!(service.run(r#"count(doc("bib.xml")//book)"#).unwrap(), "2");
        assert!(service.remove_document("bib.xml"));
        let err = service.run(r#"doc("bib.xml")"#).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::DocumentNotFound);
    }

    #[test]
    fn failed_queries_count_as_failed() {
        let service = QueryService::new(ServiceConfig::default());
        assert!(service.run("1 idiv 0").is_err());
        assert!(service.run("1 +").is_err());
        let s = service.stats();
        assert_eq!(s.served, 0);
        assert_eq!(s.failed, 2);
    }

    #[test]
    fn per_query_limits_apply() {
        let service = QueryService::new(ServiceConfig {
            per_query_limits: Limits::unlimited().with_max_items(100),
            ..Default::default()
        });
        let err = service
            .run("for $x in 1 to 100000000 return $x")
            .unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Limit);
        assert_eq!(service.stats().failed, 1);
    }

    #[test]
    fn tickets_cancel_from_another_thread() {
        let service = QueryService::new(ServiceConfig::default());
        let ticket = service
            .submit("sum(1 to 10000000000)", DynamicContext::new())
            .unwrap();
        let handle = ticket.cancel_handle();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            handle.cancel();
        });
        let err = ticket.wait().unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::Cancelled);
    }

    #[test]
    fn stats_text_renders_every_section() {
        let service = QueryService::new(ServiceConfig::default());
        service.run("1").unwrap();
        let text = service.stats_text();
        for section in [
            "service:",
            "plans:",
            "catalog:",
            "segments:",
            "indexes:",
            "pool:",
            "parallel:",
            "resilience:",
            "pubsub:",
            "stream:",
            "ingest:",
            "pressure:",
            "memory:",
            "queue-wait:",
            "latency:",
        ] {
            assert!(text.contains(section), "{text}");
        }
    }

    #[test]
    fn standing_subscriptions_receive_published_documents() {
        let service = QueryService::new(ServiceConfig::default());
        let streamed = service.subscribe("/bib/book/title").unwrap();
        let fallback = service.subscribe("count(//book)").unwrap();
        assert_eq!(service.subscriptions(), 2);

        let xml = "<bib><book><title>a</title></book><book><title>b</title></book></bib>";
        let report = service.publish("feed-1", xml).unwrap();
        assert_eq!(
            report.result_for(streamed).unwrap().as_ref().unwrap(),
            "<title>a</title><title>b</title>"
        );
        assert_eq!(report.result_for(fallback).unwrap().as_ref().unwrap(), "2");

        // Transient publish: the fallback copy must not linger in the
        // store or the catalog.
        assert_eq!(service.engine().store().doc_count(), 0);
        assert!(service
            .run(r#"doc("feed-1")"#)
            .is_err_and(|e| e.code == ErrorCode::DocumentNotFound));

        assert!(service.unsubscribe(streamed));
        assert!(!service.unsubscribe(streamed), "stale id is a no-op");
        let report = service.publish("feed-2", xml).unwrap();
        assert!(report.result_for(streamed).is_none());
        assert_eq!(service.subscriptions(), 1);

        let s = service.stats();
        assert_eq!(s.subscriptions_active, 1);
        assert_eq!(s.documents_published, 2);
        assert_eq!(s.shared_pass_evals, 1);
        assert_eq!(s.fallback_evals, 2);
        assert!(s.matches_delivered >= 3);
        assert!(s.stream_tokens_seen > 0, "{s}");
    }

    #[test]
    fn publish_retained_keeps_the_document_queryable() {
        let service = QueryService::new(ServiceConfig::default());
        let id = service.subscribe("//title").unwrap();
        let report = service
            .publish_retained("bib.xml", "<bib><book><title>t</title></book></bib>")
            .unwrap();
        assert_eq!(
            report.result_for(id).unwrap().as_ref().unwrap(),
            "<title>t</title>"
        );
        assert_eq!(
            service.run(r#"doc("bib.xml")//title"#).unwrap(),
            "<title>t</title>"
        );
        assert_eq!(service.stats().catalog_docs, 1);
    }

    #[test]
    fn publish_skips_subtrees_no_subscription_can_match() {
        let service = QueryService::new(ServiceConfig::default());
        service.subscribe("/a/b/c").unwrap();
        // The <z> subtree can never match /a/b/c: the combined pass
        // must prune it rather than walk its tokens.
        let xml = "<a><b><c>hit</c></b><z><w/><w/><w/><w/></z></a>";
        service.publish("d", xml).unwrap();
        let s = service.stats();
        assert!(
            s.stream_tokens_skipped > 0,
            "publish pass must prune dead subtrees: {s}"
        );
        assert_eq!(s.stream_matches, 1);
    }

    #[test]
    fn persistent_service_recovers_corpus_after_restart() {
        let dir = std::env::temp_dir().join(format!(
            "xqr-service-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            persist_dir: Some(dir.clone()),
            ..Default::default()
        };

        let service = QueryService::open(config.clone()).unwrap();
        service
            .load_document("bib.xml", "<bib><book><title>t</title></book><book/></bib>")
            .unwrap();
        let before = service.run(r#"doc("bib.xml")//title"#).unwrap();
        assert_eq!(service.stats().segments_written, 1);
        drop(service);

        // A fresh incarnation: nothing is loaded until a query touches
        // the document, then the answer must be byte-identical.
        let service = QueryService::open(config).unwrap();
        let s = service.stats();
        assert_eq!((s.catalog_docs, s.segments_recovered), (1, 0));
        assert_eq!(service.run(r#"doc("bib.xml")//title"#).unwrap(), before);
        let s = service.stats();
        assert_eq!(s.segments_recovered, 1);
        assert!(text_has_segment_counters(&service.stats_text()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn text_has_segment_counters(text: &str) -> bool {
        text.contains("segments: written: 0 recovered: 1 quarantined: 0")
    }

    #[test]
    fn run_batch_shares_scans_and_isolates_failures() {
        let service = QueryService::new(ServiceConfig::default());
        service
            .load_document(
                "bib.xml",
                "<bib><book><author/><title>a</title></book>\
                 <book><title>b</title></book></bib>",
            )
            .unwrap();
        let out = service
            .run_batch(
                "bib.xml",
                &[
                    "count(//book/title)",
                    "count(//book/title)", // same scans as the first
                    "1 idiv 0",            // fails alone
                    "count(//book[author]/title)",
                ],
            )
            .unwrap();
        assert_eq!(out[0].as_deref().unwrap(), "2");
        assert_eq!(out[1].as_deref().unwrap(), "2");
        assert!(out[2].is_err());
        assert_eq!(out[3].as_deref().unwrap(), "1");
        let s = service.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_queries, 4);
        assert_eq!(s.served, 3);
        assert_eq!(s.failed, 1);
        assert!(
            s.scan_shared_hits > 0,
            "repeated scans must hit the batch cache: {s}"
        );
        // Unknown documents fail the batch as a unit.
        let err = service.run_batch("nope.xml", &["1"]).unwrap_err();
        assert_eq!(err.code, ErrorCode::DocumentNotFound);
    }

    #[test]
    fn catalog_loads_feed_index_backed_queries() {
        let service = QueryService::new(ServiceConfig::default());
        service
            .load_document(
                "bib.xml",
                "<bib><book><author/><title>t</title></book><book><title/></book></bib>",
            )
            .unwrap();
        assert_eq!(
            service
                .run(r#"count(doc("bib.xml")//book[author]/title)"#)
                .unwrap(),
            "1"
        );
        let s = service.stats();
        assert_eq!(s.index_builds, 1);
        assert!(s.index_bytes > 0);
        assert!(s.index_hits >= 1, "query was answered from the index: {s}");
        // Disabling indexing on the engine disables catalog builds too.
        let service = QueryService::new(ServiceConfig {
            engine: EngineOptions {
                index_documents: false,
                ..Default::default()
            },
            ..Default::default()
        });
        service.load_document("bib.xml", "<bib/>").unwrap();
        assert_eq!(service.run(r#"count(doc("bib.xml")//x)"#).unwrap(), "0");
        let s = service.stats();
        assert_eq!(s.index_builds, 0);
        assert!(s.index_hits == 0 && s.index_misses >= 1, "{s}");
    }
}
