//! Chunked-ingestion front-end: documents arrive as byte chunks over
//! many calls instead of one string.
//!
//! Two entry points, both on [`QueryService`]:
//!
//! * **Chunk sessions** ([`QueryService::open_chunk_session`]) publish a
//!   document at the standing-subscription set while its bytes are still
//!   arriving: each [`QueryService::feed_chunk`] advances the combined
//!   automaton incrementally, and
//!   [`QueryService::finish_chunk_session`] runs the same fallback and
//!   delivery tail as [`QueryService::publish`] — the chunked and
//!   whole-document paths produce identical reports, which the
//!   differential oracle enforces. Session ids are generation-checked
//!   (a stale id never touches a slot's current tenant), sessions carry
//!   the service's per-query budgets, idle sessions are reaped, and
//!   admission is bounded: past `max_chunk_sessions` live sessions,
//!   opens fail with `err:XQRL0004 Overloaded`.
//!
//! * **Stream queries** ([`QueryService::open_stream_query`]) run one
//!   query over a chunked document. Streamable plans run inline on the
//!   feeding thread: each [`StreamQuery::feed`] pushes whatever tokens
//!   the chunk completes through a one-pattern run of the same
//!   shared-prefix automaton chunk sessions use, so the query holds no
//!   thread, and no buffer beyond the lexer's carry, one event's tokens
//!   and the open matches. Non-streamable plans buffer and evaluate at
//!   finish — same results, same error codes, just without the
//!   bounded-memory guarantee.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::resilience::lock_recover;
use crate::service::QueryService;
use crate::stats::count;
use xqr_pressure::{Category, Charge};
use xqr_runtime::{CombinedAutomaton, CombinedRun};
use xqr_subscribe::{PublishReport, PublishSession};
use xqr_tokenstream::{PushTokenizer, Token};
use xqr_xdm::{Error, QueryGuard, Result};

/// Baseline ledger charge for a live chunk session or stream query
/// (slot bookkeeping, lexer state); buffered bytes come on top.
const SESSION_BASE_BYTES: u64 = 4096;

/// Generation-checked handle to a live chunk session. Stale ids (the
/// session finished, aborted, or was reaped, and the slot may have been
/// reused) fail deterministically with `err:XQRL0003` — they can never
/// feed another client's session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    pub(crate) slot: u32,
    pub(crate) generation: u64,
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}g{}", self.slot, self.generation)
    }
}

struct SessionEntry {
    generation: u64,
    session: PublishSession,
    /// Session-wide budget: deadline from open, byte cap over the whole
    /// feed, cancellation.
    guard: QueryGuard,
    last_activity: Instant,
    /// Ledger charge for this session's held state (base, fallback
    /// buffer, lexer buffers, streamed matches awaiting delivery);
    /// follows every feed and releases when the session ends, however
    /// it ends.
    charge: Charge,
}

/// Shared ingestion state: the fixed slot table (one mutex per slot, so
/// concurrent sessions never contend). The `ingest:` stats counters are
/// service-owned rows of the stats table.
pub(crate) struct IngestState {
    slots: Box<[Mutex<Option<SessionEntry>>]>,
    next_generation: AtomicU64,
    idle_timeout: Duration,
}

impl IngestState {
    pub(crate) fn new(max_sessions: usize, idle_timeout: Duration) -> Self {
        let slots = (0..max_sessions.max(1))
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        IngestState {
            slots,
            next_generation: AtomicU64::new(0),
            idle_timeout,
        }
    }

    fn stale(id: SessionId) -> Error {
        Error::cancelled(format!(
            "ingest session {id} is unknown, finished, or was reaped"
        ))
    }

    fn slot(&self, id: SessionId) -> Result<&Mutex<Option<SessionEntry>>> {
        self.slots
            .get(id.slot as usize)
            .ok_or_else(|| Self::stale(id))
    }
}

impl QueryService {
    /// Open a chunked publish session for a document named `name`.
    /// Bytes then arrive via [`QueryService::feed_chunk`] — split at any
    /// boundary — and [`QueryService::finish_chunk_session`] delivers to
    /// every standing subscription exactly as [`QueryService::publish`]
    /// would have.
    ///
    /// Admission is bounded: when every slot is live (idle sessions are
    /// reaped first), this fails with `err:XQRL0004 Overloaded`. The
    /// session runs under [`crate::ServiceConfig::per_query_limits`]:
    /// the deadline clock starts now, and document-byte budgets cover
    /// the whole feed.
    pub fn open_chunk_session(&self, name: &str) -> Result<SessionId> {
        self.check_red("chunk session")?;
        let st = self.ingest_state();
        let mut reaped = false;
        loop {
            for (i, slot) in st.slots.iter().enumerate() {
                let mut entry = lock_recover(slot);
                if entry.is_none() {
                    // Ceiling-checked: a session that cannot even cover
                    // its base footprint is refused outright (and this
                    // is the `pressure.charge` faultpoint the chaos
                    // suite injects through).
                    let charge = Charge::try_new(
                        Arc::clone(self.ledger()),
                        Category::ChunkSessions,
                        SESSION_BASE_BYTES,
                    )?;
                    let generation = st.next_generation.fetch_add(1, Ordering::Relaxed) + 1;
                    let session = self.subs.begin_publish(self.engine(), name, self.limits());
                    *entry = Some(SessionEntry {
                        generation,
                        session,
                        guard: QueryGuard::new(self.limits()),
                        last_activity: Instant::now(),
                        charge,
                    });
                    count(&self.shared.counters.ingest_sessions_opened, 1);
                    return Ok(SessionId {
                        slot: i as u32,
                        generation,
                    });
                }
            }
            if reaped {
                return Err(Error::overloaded(format!(
                    "too many live ingest sessions ({}); finish, abort, or let one idle out",
                    st.slots.len()
                )));
            }
            self.reap_idle_sessions();
            reaped = true;
        }
    }

    /// Feed one chunk into a live session. Streamable subscriptions
    /// advance incrementally (see
    /// [`QueryService::chunk_session_matches`]). Any failure — a lexing
    /// error, a tripped budget, an injected fault — removes the session
    /// and returns its stable coded error; later calls with the same id
    /// report the session as gone.
    pub fn feed_chunk(&self, id: SessionId, chunk: &[u8]) -> Result<()> {
        let st = self.ingest_state();
        let slot = st.slot(id)?;
        let mut guard = lock_recover(slot);
        // The entry lives *outside* the slot while the chunk is fed: if
        // feeding fails — or panics past the containment below — the
        // session drops with this frame and the slot is already free,
        // so a fault can never leak a wedged session.
        let mut e = match guard.take() {
            Some(e) if e.generation == id.generation => e,
            other => {
                *guard = other;
                return Err(IngestState::stale(id));
            }
        };
        match feed_entry(&mut e, chunk) {
            Ok(()) => {
                e.last_activity = Instant::now();
                *guard = Some(e);
                let c = &self.shared.counters;
                count(&c.ingest_chunks, 1);
                count(&c.ingest_bytes, chunk.len() as u64);
                Ok(())
            }
            Err(err) => {
                // Cleanup on failure: the slot frees immediately, and the
                // session's buffered state drops without ever touching
                // the store or catalog.
                count(&self.shared.counters.ingest_sessions_failed, 1);
                Err(err)
            }
        }
    }

    /// Matches delivered to streamable subscriptions so far — observable
    /// while bytes are still arriving, which is the point of chunked
    /// ingestion.
    pub fn chunk_session_matches(&self, id: SessionId) -> Result<u64> {
        let st = self.ingest_state();
        let slot = st.slot(id)?;
        let entry = lock_recover(slot);
        match entry.as_ref() {
            Some(e) if e.generation == id.generation => Ok(e.session.matches_so_far()),
            _ => Err(IngestState::stale(id)),
        }
    }

    /// End of input: resolve the tail, run fallback evaluations over the
    /// materialized document (routed through the catalog like
    /// [`QueryService::publish`] — transient, never retained), deliver
    /// every outcome, and report. The session is gone afterwards, on
    /// success and on failure alike.
    pub fn finish_chunk_session(&self, id: SessionId) -> Result<PublishReport> {
        let st = self.ingest_state();
        let slot = st.slot(id)?;
        let mut guard = lock_recover(slot);
        let entry = match guard.take() {
            Some(e) if e.generation == id.generation => e,
            other => {
                *guard = other;
                return Err(IngestState::stale(id));
            }
        };
        // The slot is free from here on; the (possibly slow) fallback
        // tail runs outside every lock.
        drop(guard);
        match finish_entry(self, entry) {
            Ok(report) => {
                self.shared.record_stream(&report.stats);
                count(&self.shared.counters.ingest_sessions_finished, 1);
                Ok(report)
            }
            Err(e) => {
                count(&self.shared.counters.ingest_sessions_failed, 1);
                Err(e)
            }
        }
    }

    /// Drop a live session without delivering anything. `false` for
    /// stale ids — never affects the slot's current tenant.
    pub fn abort_chunk_session(&self, id: SessionId) -> bool {
        let st = self.ingest_state();
        let Ok(slot) = st.slot(id) else { return false };
        let mut entry = lock_recover(slot);
        match entry.as_ref() {
            Some(e) if e.generation == id.generation => {
                *entry = None;
                count(&self.shared.counters.ingest_sessions_aborted, 1);
                true
            }
            _ => false,
        }
    }

    /// Remove sessions idle past the configured timeout (abandoned
    /// clients must not pin slots forever). Runs automatically when an
    /// open finds every slot taken; callable directly from an
    /// embedder's housekeeping loop. Returns how many were reaped.
    pub fn reap_idle_sessions(&self) -> usize {
        let st = self.ingest_state();
        let mut reaped = 0;
        for slot in st.slots.iter() {
            let mut entry = lock_recover(slot);
            if let Some(e) = entry.as_ref() {
                if e.last_activity.elapsed() >= st.idle_timeout {
                    *entry = None;
                    reaped += 1;
                }
            }
        }
        count(&self.shared.counters.ingest_sessions_reaped, reaped as u64);
        reaped as usize
    }

    /// Live chunk sessions right now.
    pub fn chunk_sessions(&self) -> usize {
        self.ingest_state()
            .slots
            .iter()
            .filter(|s| lock_recover(s).is_some())
            .count()
    }

    /// Run one query over a document that arrives as chunks. Streamable
    /// plans evaluate inline as chunks are fed — first results exist
    /// before the last byte arrives, no thread is held, and memory stays
    /// bounded by one event's tokens plus the matches in flight;
    /// everything else buffers and evaluates at [`StreamQuery::finish`]
    /// with identical results and error codes.
    pub fn open_stream_query(&self, query: &str) -> Result<StreamQuery<'_>> {
        self.check_red("stream query")?;
        let plan = self.acquire_plan_for_ingest(query)?;
        let inner = match plan.stream_pattern() {
            Some(pattern) => {
                let guard = QueryGuard::new(self.limits());
                let names = self.engine().names().clone();
                let tokenizer = if guard.is_unlimited() {
                    PushTokenizer::new(names)
                } else {
                    PushTokenizer::with_guard(names, guard.clone())
                };
                let automaton = CombinedAutomaton::build(std::slice::from_ref(pattern));
                StreamQueryInner::Streamed(Box::new(StreamedQuery {
                    tokenizer,
                    run: CombinedRun::new(&automaton),
                    automaton,
                    guard,
                    out: String::new(),
                    failed: None,
                }))
            }
            None => StreamQueryInner::Buffered {
                query: query.to_string(),
                buf: Vec::new(),
            },
        };
        count(&self.shared.counters.ingest_stream_queries, 1);
        // Both modes start at the baseline; buffered mode grows with
        // every fed chunk.
        let charge = Charge::new(
            Arc::clone(self.ledger()),
            Category::IngestChannels,
            SESSION_BASE_BYTES,
        );
        Ok(StreamQuery {
            service: self,
            inner,
            charge,
        })
    }
}

fn feed_entry(e: &mut SessionEntry, chunk: &[u8]) -> Result<()> {
    xqr_faults::faultpoint!("ingest.chunk");
    // Deadline/cancellation, then the byte budget over the whole feed.
    e.guard.check_startup()?;
    e.guard
        .check_document_bytes(e.session.bytes_fed() + chunk.len() as u64)?;
    e.session.feed(chunk)?;
    // Charge what the session holds, not what it was fed: a streamed
    // document is matched as it arrives, and only its matches stay. Ceiling-checked: growth that
    // would blow the hard ceiling fails the session with `err:XQRL0004`
    // instead of charging past it.
    e.charge
        .try_resize(SESSION_BASE_BYTES + e.session.held_bytes() as u64)
}

fn finish_entry(service: &QueryService, entry: SessionEntry) -> Result<PublishReport> {
    xqr_faults::faultpoint!("ingest.flush");
    entry.guard.check_startup()?;
    entry
        .session
        .finish(&service.subs, service.engine(), |xml| {
            service
                .catalog()
                .load_transient_indexed(xml)
                .map(|id| (id, true))
        })
}

/// A streamed query's whole state: the push tokenizer, a one-pattern
/// automaton and its resumable run, and the matches completed so far.
struct StreamedQuery {
    tokenizer: PushTokenizer,
    automaton: CombinedAutomaton,
    run: CombinedRun,
    /// Output budget, deadline and cancellation for this query.
    guard: QueryGuard,
    out: String,
    /// Sticky failure: once a feed fails, every later call reports it.
    failed: Option<Error>,
}

impl StreamedQuery {
    /// Feed one chunk (`None`: end of input) and push every token it
    /// completes through the run, appending the matches they complete.
    /// The ledger `charge` then covers the session base plus the output
    /// held so far; growth past the ceiling fails the query with
    /// `err:XQRL0004`.
    fn advance(&mut self, chunk: Option<&[u8]>, charge: &mut Charge) -> Result<()> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let r = xqr_core::contain_panic(|| {
            match chunk {
                Some(c) => self.tokenizer.feed(c)?,
                None => self.tokenizer.finish()?,
            }
            let guard = &self.guard;
            let mut note_output = |_, bytes| guard.note_output_bytes(bytes);
            while let Some(tok) = self.tokenizer.poll_token()? {
                // Skip hints are ignored: tokens arrive whether we want
                // them or not, and the run absorbs dead subtrees.
                self.run
                    .push(&self.automaton, &tok, &self.tokenizer, &mut note_output)?;
                if tok == Token::EndElement {
                    for m in self.run.take_completed(0)? {
                        self.out.push_str(&m);
                    }
                }
            }
            charge.try_resize(SESSION_BASE_BYTES + self.out.len() as u64)
        });
        if let Err(e) = &r {
            self.failed = Some(e.clone());
        }
        r
    }
}

enum StreamQueryInner {
    // Boxed: the tokenizer embeds the lexer state and would otherwise
    // dwarf the Buffered variant.
    Streamed(Box<StreamedQuery>),
    Buffered { query: String, buf: Vec<u8> },
}

/// An in-flight chunked query from [`QueryService::open_stream_query`].
/// Feed bytes, then [`StreamQuery::finish`] for the serialized result.
pub struct StreamQuery<'s> {
    service: &'s QueryService,
    inner: StreamQueryInner,
    /// Ledger charge for this query's tokenizer or buffer; released when
    /// the query finishes or is dropped.
    charge: Charge,
}

impl StreamQuery<'_> {
    /// Feed one chunk, split at any byte boundary. In streamed mode the
    /// chunk is matched before this returns; a lexing error or tripped
    /// budget fails this call and every later one.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<()> {
        match &mut self.inner {
            StreamQueryInner::Streamed(q) => q.advance(Some(chunk), &mut self.charge),
            StreamQueryInner::Buffered { buf, .. } => {
                buf.extend_from_slice(chunk);
                self.charge.grow(chunk.len() as u64);
                Ok(())
            }
        }
    }

    /// Is this query evaluating while bytes arrive (bounded memory), or
    /// buffering for a whole-document evaluation at finish?
    pub fn is_streamed(&self) -> bool {
        matches!(self.inner, StreamQueryInner::Streamed(_))
    }

    /// Most tokens the tokenizer has held for the matcher at once
    /// (streamed mode; 0 buffered): the largest single event's tokens,
    /// whatever the document's size.
    pub fn channel_peak(&self) -> usize {
        match &self.inner {
            StreamQueryInner::Streamed(q) => q.tokenizer.peak_queued(),
            StreamQueryInner::Buffered { .. } => 0,
        }
    }

    /// End of input: complete the evaluation and return the serialized
    /// result.
    pub fn finish(self) -> Result<String> {
        match self.inner {
            StreamQueryInner::Streamed(mut q) => {
                let mut charge = self.charge;
                let outcome = q.advance(None, &mut charge).map(|()| {
                    self.service.shared.record_stream(q.run.stats());
                    std::mem::take(&mut q.out)
                });
                self.service.shared.record_outcome(&outcome);
                outcome
            }
            StreamQueryInner::Buffered { query, buf } => {
                let xml = String::from_utf8(buf)
                    .map_err(|_| Error::syntax("invalid UTF-8 in document"))?;
                self.service.run_on_xml(&query, &xml)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use xqr_xdm::{ErrorCode, Limits};

    fn service() -> QueryService {
        QueryService::new(ServiceConfig::default())
    }

    #[test]
    fn chunked_publish_equals_whole_document_publish() {
        let svc = service();
        let streamed = svc.subscribe("/bib/book/title").unwrap();
        let fallback = svc.subscribe("count(//book)").unwrap();
        let xml = "<bib><book><title>a</title></book><book><title>b</title></book></bib>";
        let whole = svc.publish("doc", xml).unwrap();

        for chunk in [1usize, 3, 16, xml.len()] {
            let id = svc.open_chunk_session("doc").unwrap();
            for c in xml.as_bytes().chunks(chunk) {
                svc.feed_chunk(id, c).unwrap();
            }
            let report = svc.finish_chunk_session(id).unwrap();
            assert_eq!(
                report.result_for(streamed),
                whole.result_for(streamed),
                "chunk {chunk}"
            );
            assert_eq!(report.result_for(fallback), whole.result_for(fallback));
            assert_eq!(report.stats.matches, whole.stats.matches);
            // Transient either way: nothing lingers in the store.
            assert_eq!(svc.engine().store().doc_count(), 0);
        }
        let s = svc.stats();
        assert_eq!(s.ingest_sessions_finished, 4);
        assert_eq!(s.ingest_sessions_active, 0);
        assert!(s.ingest_bytes >= 4 * xml.len() as u64);
    }

    #[test]
    fn matches_surface_while_bytes_still_arrive() {
        let svc = service();
        svc.subscribe("/a/b").unwrap();
        let id = svc.open_chunk_session("live").unwrap();
        svc.feed_chunk(id, b"<a><b>first</b>").unwrap();
        assert_eq!(svc.chunk_session_matches(id).unwrap(), 1);
        svc.feed_chunk(id, b"<b>second</b></a>").unwrap();
        assert_eq!(svc.chunk_session_matches(id).unwrap(), 2);
        svc.finish_chunk_session(id).unwrap();
    }

    #[test]
    fn stale_session_ids_never_touch_a_reused_slot() {
        let svc = QueryService::new(ServiceConfig {
            max_chunk_sessions: 1,
            ..Default::default()
        });
        let first = svc.open_chunk_session("one").unwrap();
        assert!(svc.abort_chunk_session(first));
        let second = svc.open_chunk_session("two").unwrap();
        assert_eq!(first.slot, second.slot, "slot is reused");
        // The stale id fails deterministically and leaves the tenant alone.
        let err = svc.feed_chunk(first, b"<x/>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Cancelled);
        assert!(!svc.abort_chunk_session(first));
        assert!(svc.finish_chunk_session(first).is_err());
        svc.feed_chunk(second, b"<x/>").unwrap();
        svc.finish_chunk_session(second).unwrap();
    }

    #[test]
    fn admission_is_bounded_and_idle_sessions_are_reaped() {
        let svc = QueryService::new(ServiceConfig {
            max_chunk_sessions: 2,
            chunk_session_idle: Duration::from_millis(0),
            ..Default::default()
        });
        let a = svc.open_chunk_session("a").unwrap();
        let _b = svc.open_chunk_session("b").unwrap();
        assert_eq!(svc.chunk_sessions(), 2);
        // Full table, but both sessions are idle past the (zero) timeout:
        // the open reaps and succeeds.
        let c = svc.open_chunk_session("c").unwrap();
        assert!(svc.feed_chunk(a, b"<x/>").is_err(), "a was reaped");
        let svc2 = QueryService::new(ServiceConfig {
            max_chunk_sessions: 1,
            ..Default::default()
        });
        let _live = svc2.open_chunk_session("live").unwrap();
        let err = svc2.open_chunk_session("more").unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded);
        let _ = c;
        assert!(svc.stats().ingest_sessions_reaped >= 2);
    }

    #[test]
    fn feed_failures_clean_the_session_up() {
        let svc = service();
        svc.subscribe("/a/b").unwrap();
        let id = svc.open_chunk_session("bad").unwrap();
        svc.feed_chunk(id, b"<a><b>x</b>").unwrap();
        let err = svc.feed_chunk(id, b"</wrong>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Syntax);
        // Session is gone; nothing leaked into the store.
        assert_eq!(svc.chunk_sessions(), 0);
        assert_eq!(svc.engine().store().doc_count(), 0);
        assert!(svc.feed_chunk(id, b"more").is_err());
        assert_eq!(svc.stats().ingest_sessions_failed, 1);
    }

    #[test]
    fn session_byte_budget_trips_across_chunks() {
        let svc = QueryService::new(ServiceConfig {
            per_query_limits: Limits::unlimited().with_max_document_bytes(10),
            ..Default::default()
        });
        let id = svc.open_chunk_session("budget").unwrap();
        svc.feed_chunk(id, b"<a>12").unwrap();
        let err = svc.feed_chunk(id, b"3456789</a>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Limit);
        assert_eq!(svc.chunk_sessions(), 0);
    }

    #[test]
    fn stream_query_evaluates_as_chunks_arrive() {
        let svc = service();
        let mut q = svc.open_stream_query("/order/date").unwrap();
        assert!(q.is_streamed());
        let xml = r#"<order><date>2003-08-19</date><qty>2</qty></order>"#;
        for c in xml.as_bytes().chunks(5) {
            q.feed(c).unwrap();
        }
        assert_eq!(q.channel_peak(), 1, "no event here has attributes");
        assert_eq!(q.finish().unwrap(), "<date>2003-08-19</date>");
        let s = svc.stats();
        assert_eq!(s.ingest_stream_queries, 1);
        assert!(s.stream_tokens_seen > 0);
    }

    #[test]
    fn stream_query_emits_every_nested_match_like_materialized_evaluation() {
        let svc = service();
        let xml = "<a><d><d/></d><d/></a>";
        let mut q = svc.open_stream_query("//d").unwrap();
        assert!(q.is_streamed());
        for c in xml.as_bytes().chunks(3) {
            q.feed(c).unwrap();
        }
        assert_eq!(q.finish().unwrap(), svc.run_on_xml("//d", xml).unwrap());
    }

    #[test]
    fn non_streamable_queries_buffer_with_identical_results() {
        let svc = service();
        let xml = "<bib><book/><book/></bib>";
        let mut q = svc.open_stream_query("count(//book)").unwrap();
        assert!(!q.is_streamed());
        for c in xml.as_bytes().chunks(3) {
            q.feed(c).unwrap();
        }
        assert_eq!(
            q.finish().unwrap(),
            svc.run_on_xml("count(//book)", xml).unwrap()
        );
    }

    #[test]
    fn stream_query_reports_lexer_errors_like_the_whole_document_path() {
        let svc = service();
        let mut q = svc.open_stream_query("/a/b").unwrap();
        q.feed(b"<a><b>x</b>").unwrap();
        // The chunk is lexed inside feed, so the error surfaces there —
        // and stays: finish reports it too.
        let err = q.feed(b"</wrong>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Syntax);
        assert_eq!(q.finish().unwrap_err().code, ErrorCode::Syntax);
    }

    #[test]
    fn stream_query_output_budget_stops_at_the_first_overrun() {
        let svc = QueryService::new(ServiceConfig {
            per_query_limits: Limits::unlimited().with_max_output_bytes(10),
            ..Default::default()
        });
        let mut q = svc.open_stream_query("/a/b").unwrap();
        // "<b>1</b>" fits; the second match takes the total to 16 bytes.
        q.feed(b"<a><b>1</b>").unwrap();
        let err = q.feed(b"<b>2</b>").unwrap_err();
        assert_eq!(err.code, ErrorCode::Limit);
        assert_eq!(q.finish().unwrap_err().code, ErrorCode::Limit);
    }
}
