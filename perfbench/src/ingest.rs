//! The `ingest` workload: one producer streams seeded feed documents in
//! 4 KiB chunks through chunk sessions to 256 shared-prefix standing
//! subscriptions plus a few fallback ones, runs one chunked stream
//! query per document and loads every k-th document durably; one
//! reader runs point queries against the retained documents. Restarts
//! from the segment directory end every round.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use xqr::xqr_service::{QueryService, ServiceConfig, SubId};
use xqr::xqr_subscribe::PublishReport;

use crate::gen::{
    fallback_subscriptions, feed_pool, streamable_subscriptions, Rng, CHUNK_BYTES, FEED_FIELDS,
};
use crate::queries::{hash_str, reference_answer, reference_engine, LoopResult};
use crate::stats::{ms, us};

/// Distinct feed documents; the producer cycles through them.
pub const POOL_DOCS: usize = 2;
/// Catalog slots the durable loads rotate through; slot `j` always
/// holds pool document `j % POOL_DOCS`.
pub const RETAINED: usize = 4;
/// Every this many published documents, one is loaded durably.
pub const DURABLE_EVERY: u64 = 4;
/// Restarts timed after every round; `cold_start_ms` is their median.
/// Only the last one is re-subscribed and carries on, so a restart
/// costs little more than the interval it times.
pub const RESTARTS_PER_ROUND: usize = 8;

pub fn slot_name(j: usize) -> String {
    format!("ret-{j}")
}

/// Seeded inputs of the ingest side and the hash of every expected
/// answer.
pub struct Feed {
    pub pool: Vec<String>,
    /// Streamable subscriptions first, then the fallback ones.
    pub subs: Vec<String>,
    /// `[document][subscription]`
    pub expected: Vec<Vec<u64>>,
    pub stream_texts: Vec<String>,
    /// `[document][stream text]`
    pub stream_expected: Vec<Vec<u64>>,
    /// Point queries over the retained documents; the first
    /// `RETAINED` are `count(doc("ret-j")//item)`, one per slot.
    pub reader_texts: Vec<String>,
    pub reader_expected: Vec<u64>,
}

pub fn make_feed(seed: u64) -> Feed {
    let rng = Rng::new(seed).fork(2);
    let pool = feed_pool(&mut rng.fork(1), POOL_DOCS);
    let mut lit = rng.fork(2);
    let mut subs = streamable_subscriptions();
    subs.extend(fallback_subscriptions(&mut lit));
    let stream_texts = (0..4)
        .map(|_| format!("/feed/item/f{}", lit.range(0, FEED_FIELDS as u64)))
        .collect();
    let mut reader_texts: Vec<String> = (0..RETAINED)
        .map(|j| format!(r#"count(doc("{}")//item)"#, slot_name(j)))
        .collect();
    for j in 0..RETAINED {
        let s = slot_name(j);
        reader_texts.push(format!(
            r#"count(doc("{s}")/feed/item/f{})"#,
            lit.range(0, FEED_FIELDS as u64)
        ));
        reader_texts.push(format!(
            r#"string(doc("{s}")/feed/item[@id = "i{}"]/title)"#,
            lit.range(0, 400)
        ));
    }
    Feed {
        pool,
        subs,
        expected: Vec::new(),
        stream_texts,
        stream_expected: Vec::new(),
        reader_texts,
        reader_expected: Vec::new(),
    }
}

/// Expected answers: every streamable subscription and stream query by
/// its own single-pattern `execute_streaming` pass, fallback
/// subscriptions and reader queries on the reference engine.
pub fn compute_expected(feed: &mut Feed) {
    let reference = reference_engine();
    let streamed = |engine: &xqr::Engine, q: &str, xml: &str| -> String {
        let plan = engine.compile(q).expect("subscription compiles");
        let mut out = String::new();
        plan.execute_streaming(engine, xml, |m| out.push_str(m))
            .unwrap_or_else(|e| panic!("streaming pass of {q}: {e}"));
        out
    };
    // One thread per pool document: 256 passes each.
    feed.expected = std::thread::scope(|s| {
        let handles: Vec<_> = feed
            .pool
            .iter()
            .map(|xml| {
                let (reference, subs, streamed) = (&reference, &feed.subs, &streamed);
                s.spawn(move || {
                    subs.iter()
                        .map(|q| {
                            let plan = reference.compile(q).expect("subscription compiles");
                            let out = if plan.is_streamable() {
                                streamed(reference, q, xml)
                            } else {
                                reference
                                    .query_xml(xml, q)
                                    .unwrap_or_else(|e| panic!("reference {q}: {e}"))
                            };
                            hash_str(&out)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    feed.stream_expected = feed
        .pool
        .iter()
        .map(|xml| {
            feed.stream_texts
                .iter()
                .map(|q| hash_str(&streamed(&reference, q, xml)))
                .collect()
        })
        .collect();
    for j in 0..RETAINED {
        reference
            .load_document(&slot_name(j), &feed.pool[j % POOL_DOCS])
            .expect("reference load");
    }
    feed.reader_expected = feed
        .reader_texts
        .iter()
        .map(|q| hash_str(&reference_answer(&reference, q)))
        .collect();
}

/// A service with the feed's subscriptions and retained documents.
pub struct IngestWork {
    pub svc: QueryService,
    pub config: ServiceConfig,
    pub sub_ids: Vec<SubId>,
}

fn subscribe_all(svc: &QueryService, feed: &Feed) -> Vec<SubId> {
    feed.subs
        .iter()
        .map(|q| svc.subscribe(q).expect("subscription compiles"))
        .collect()
}

/// A fresh segment directory at `dir` and a persistent service on it:
/// subscribe, load every pool document durably under its slot name,
/// warm the reader and stream-query plans.
pub fn setup(feed: &Feed, dir: &Path) -> IngestWork {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create segment directory");
    let config = segment_config(dir);
    let svc = QueryService::open(config.clone()).expect("open persistent service");
    let sub_ids = subscribe_all(&svc, feed);
    for j in 0..RETAINED {
        svc.publish_retained(&slot_name(j), &feed.pool[j % POOL_DOCS])
            .expect("initial durable load");
    }
    for q in &feed.reader_texts {
        let _ = svc.run(q);
    }
    for q in &feed.stream_texts {
        let _ = svc.prepare(q);
    }
    IngestWork {
        svc,
        config,
        sub_ids,
    }
}

/// What one ingest phase measured.
#[derive(Default)]
pub struct IngestResult {
    pub cold_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub first_match_us: Vec<f64>,
    pub stream_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    /// Producer time per document: publish, stream query and (every
    /// k-th) durable load, with the document's number and size.
    pub docs: Vec<DocTime>,
    pub channel_peak: usize,
    pub reader: LoopResult,
    pub attempted: u64,
    pub failed: u64,
}

/// One document through the producer.
pub struct DocTime {
    pub n: u64,
    pub bytes: u64,
    pub us: f64,
}

impl IngestResult {
    pub fn doc_us(&self) -> Vec<f64> {
        self.docs.iter().map(|d| d.us).collect()
    }

    /// Document bytes per second of producer time, one value per whole
    /// cycle of `DURABLE_EVERY` consecutive documents (so each holds
    /// exactly one durable load). A median over cycles is not dragged by
    /// the odd stalled fsync or descheduled thread the way one total over
    /// the run is. Cycles cut off by the end of the run are left out.
    pub fn cycle_mb_s(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut cycle: Option<(u64, u64, u64, f64)> = None; // (id, docs, bytes, us)
        for d in &self.docs {
            let id = d.n / DURABLE_EVERY;
            match &mut cycle {
                Some((cid, docs, bytes, us)) if *cid == id => {
                    *docs += 1;
                    *bytes += d.bytes;
                    *us += d.us;
                }
                _ => cycle = Some((id, 1, d.bytes, d.us)),
            }
            if let Some((_, docs, bytes, us)) = cycle {
                if docs == DURABLE_EVERY {
                    out.push(bytes as f64 / us);
                    cycle = None;
                }
            }
        }
        out
    }

    pub fn merge(&mut self, o: IngestResult) {
        self.cold_ms.extend(o.cold_ms);
        self.publish_ms.extend(o.publish_ms);
        self.first_match_us.extend(o.first_match_us);
        self.stream_ms.extend(o.stream_ms);
        self.load_ms.extend(o.load_ms);
        self.docs.extend(o.docs);
        self.channel_peak = self.channel_peak.max(o.channel_peak);
        self.reader.merge(o.reader);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

fn report_ok(report: &PublishReport, ids: &[SubId], expected: &[u64]) -> bool {
    ids.iter().zip(expected).all(|(id, want)| {
        report
            .result_for(*id)
            .is_some_and(|r| r.as_ref().is_ok_and(|s| hash_str(s) == *want))
    })
}

/// One chunk-session publish: (latency, first-match latency, report).
fn publish_chunked(
    svc: &QueryService,
    name: &str,
    xml: &str,
) -> xqr::Result<(Duration, Option<Duration>, PublishReport)> {
    let t0 = Instant::now();
    let id = svc.open_chunk_session(name)?;
    let mut first_feed: Option<Instant> = None;
    let mut first_match = None;
    for chunk in xml.as_bytes().chunks(CHUNK_BYTES) {
        let fed = *first_feed.get_or_insert_with(Instant::now);
        if let Err(e) = svc.feed_chunk(id, chunk) {
            svc.abort_chunk_session(id);
            return Err(e);
        }
        if first_match.is_none() && svc.chunk_session_matches(id)? > 0 {
            first_match = Some(fed.elapsed());
        }
    }
    let report = svc.finish_chunk_session(id)?;
    Ok((t0.elapsed(), first_match, report))
}

/// One chunked stream query: (latency, channel peak, output).
fn stream_query(svc: &QueryService, q: &str, xml: &str) -> xqr::Result<(Duration, usize, String)> {
    let t0 = Instant::now();
    let mut sq = svc.open_stream_query(q)?;
    for chunk in xml.as_bytes().chunks(CHUNK_BYTES) {
        sq.feed(chunk)?;
    }
    let peak = sq.channel_peak();
    let out = sq.finish()?;
    Ok((t0.elapsed(), peak, out))
}

fn producer(
    work: &IngestWork,
    feed: &Feed,
    deadline: Instant,
    min_docs: u64,
    next_doc: &mut u64,
) -> IngestResult {
    let mut r = IngestResult::default();
    let first = *next_doc;
    let mut n = first;
    while Instant::now() < deadline || n - first < min_docs {
        let d = (n as usize) % feed.pool.len();
        let xml = &feed.pool[d];
        let t_doc = Instant::now();
        let published = publish_chunked(&work.svc, &format!("feed-{n}"), xml);
        let q = (n as usize) % feed.stream_texts.len();
        let streamed = stream_query(&work.svc, &feed.stream_texts[q], xml);
        let durable = n.is_multiple_of(DURABLE_EVERY).then(|| {
            let slot = (n / DURABLE_EVERY) as usize % RETAINED;
            let t0 = Instant::now();
            let res = work
                .svc
                .publish_retained(&slot_name(slot), &feed.pool[slot % POOL_DOCS]);
            (slot % POOL_DOCS, t0.elapsed(), res)
        });
        let doc_us = us(t_doc.elapsed());
        // Checks run outside the timed intervals.
        let ok = match published {
            Ok((lat, first, report)) => {
                r.publish_ms.push(ms(lat));
                if let Some(f) = first {
                    r.first_match_us.push(us(f));
                }
                r.docs.push(DocTime {
                    n,
                    bytes: xml.len() as u64,
                    us: doc_us,
                });
                first.is_some() && report_ok(&report, &work.sub_ids, &feed.expected[d])
            }
            Err(_) => false,
        };
        r.attempted += 1;
        r.failed += u64::from(!ok);
        let ok = match streamed {
            Ok((lat, peak, out)) => {
                r.stream_ms.push(ms(lat));
                r.channel_peak = r.channel_peak.max(peak);
                hash_str(&out) == feed.stream_expected[d][q]
            }
            Err(_) => false,
        };
        r.attempted += 1;
        r.failed += u64::from(!ok);
        if let Some((d, lat, res)) = durable {
            r.load_ms.push(ms(lat));
            let ok = res.is_ok_and(|rep| report_ok(&rep, &work.sub_ids, &feed.expected[d]));
            r.attempted += 1;
            r.failed += u64::from(!ok);
        }
        n += 1;
    }
    *next_doc = n;
    r
}

pub fn reader(work: &IngestWork, feed: &Feed, mut rng: Rng, done: &AtomicBool) -> LoopResult {
    let mut out = LoopResult::default();
    let start = Instant::now();
    while !done.load(Ordering::Relaxed) {
        let i = rng.range(0, feed.reader_texts.len() as u64) as usize;
        let t0 = Instant::now();
        let res = work.svc.run(&feed.reader_texts[i]);
        out.query_us.push(us(t0.elapsed()));
        let ok = res.is_ok_and(|s| hash_str(&s) == feed.reader_expected[i]);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    out.elapsed = start.elapsed();
    out
}

/// Producer (and, with `with_reader`, the reader) until `dur` passes
/// and at least `min_docs` documents went through. Documents are
/// numbered on from `next_doc`, which is advanced.
pub fn run_phase(
    work: &IngestWork,
    feed: &Feed,
    rng: &Rng,
    dur: Duration,
    min_docs: u64,
    with_reader: bool,
    next_doc: &mut u64,
) -> IngestResult {
    let deadline = Instant::now() + dur;
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = with_reader.then(|| {
            let rng = rng.fork(7);
            let done = &done;
            s.spawn(move || reader(work, feed, rng, done))
        });
        let mut r = producer(work, feed, deadline, min_docs, next_doc);
        done.store(true, Ordering::Relaxed);
        if let Some(h) = reader {
            r.reader = h.join().expect("reader thread panicked");
        }
        r.attempted += r.reader.attempted;
        r.failed += r.reader.failed;
        r
    })
}

/// The first query on every persisted document, as the live service
/// answers it: the restart check's reference.
pub fn pre_restart(work: &IngestWork, feed: &Feed) -> (Vec<Option<String>>, bool) {
    let before: Vec<Option<String>> = feed.reader_texts[..RETAINED]
        .iter()
        .map(|q| work.svc.run(q).ok())
        .collect();
    let ok = before
        .iter()
        .zip(&feed.reader_expected)
        .all(|(b, want)| b.as_ref().is_some_and(|s| hash_str(s) == *want));
    (before, ok)
}

/// A restart: `QueryService::open` on the segment directory and the
/// first query on every persisted document. Returns the service, the
/// restart latency and whether every answer equals `before`.
fn reopen(
    config: &ServiceConfig,
    feed: &Feed,
    before: &[Option<String>],
) -> Option<(QueryService, Duration, bool)> {
    let t0 = Instant::now();
    let svc = QueryService::open(config.clone()).ok()?;
    let out: Vec<Option<String>> = feed.reader_texts[..RETAINED]
        .iter()
        .map(|q| svc.run(q).ok())
        .collect();
    let dt = t0.elapsed();
    Some((svc, dt, out == before))
}

/// `count` restarts in a row from `config`'s segment directory, each
/// timed into `r.cold_ms` and checked against `before`. Returns the
/// service of the last one, re-subscribed outside the timed interval
/// (none if a restart failed to open).
pub fn restarts(
    config: &ServiceConfig,
    feed: &Feed,
    before: &[Option<String>],
    count: usize,
    r: &mut IngestResult,
) -> Option<IngestWork> {
    let mut last = None;
    for _ in 0..count {
        drop(last.take());
        r.attempted += 1;
        match reopen(config, feed, before) {
            Some((svc, dt, same)) => {
                r.cold_ms.push(ms(dt));
                r.failed += u64::from(!same);
                last = Some(svc);
            }
            None => {
                r.failed += 1;
                return None;
            }
        }
    }
    let svc = last?;
    let sub_ids = subscribe_all(&svc, feed);
    Some(IngestWork {
        svc,
        config: config.clone(),
        sub_ids,
    })
}

/// The service configuration of a persistent service on `dir`; the
/// segment store's flush policy is its default (every segment and the
/// manifest are fsynced before a load returns).
pub fn segment_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        persist_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// A scratch directory for one service's segments inside `root`.
pub fn segment_dir(root: &Path, label: &str) -> PathBuf {
    root.join(format!("segments-{label}"))
}
