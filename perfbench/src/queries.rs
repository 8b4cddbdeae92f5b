//! The `point` and `analytic` workloads: clients in a closed loop over
//! a resident corpus, each sending its next query when the previous one
//! returns. Expected answers come from a separate reference engine with
//! no rewrites, no index and no morsels.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use xqr::xqr_parallel::ParallelConfig;
use xqr::xqr_service::{QueryService, ServiceConfig};
use xqr::xqr_xmlgen::{auction_site, bibliography, XmarkConfig};
use xqr::{DynamicContext, Engine, EngineOptions};

use crate::gen::{fresh_text, Rng};

pub fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// The reference configuration: no rewrites, no access paths, no
/// document index and no morsel-parallel joins.
pub fn reference_engine() -> Engine {
    Engine::with_options(EngineOptions::unoptimized().with_parallel(ParallelConfig {
        enabled: false,
        ..ParallelConfig::default()
    }))
}

/// Serialized answer of `query` on the reference engine.
pub fn reference_answer(engine: &Engine, query: &str) -> String {
    engine
        .compile(query)
        .and_then(|p| p.execute(engine, &DynamicContext::new()))
        .and_then(|r| r.serialize_guarded())
        .unwrap_or_else(|e| panic!("reference engine failed on {query:?}: {e}"))
}

/// One configured query workload, ready to drive.
pub struct QueryWork {
    pub svc: QueryService,
    /// Named corpus documents as loaded into the catalog.
    pub docs: Vec<(String, String)>,
    /// Cached query texts and the hash of each one's expected answer.
    pub texts: Vec<String>,
    pub expected: Vec<u64>,
    /// `run_batch` shapes: catalog document and the texts it runs.
    pub batches: Vec<(String, Vec<usize>)>,
    /// Every this many operations, one is a `run_batch` (none: never).
    pub batch_every: Option<u64>,
    /// Every this many single queries, one uses a fresh text.
    pub miss_every: Option<u64>,
    /// The corpus document the layer probes run on, and the twig and
    /// ancestor/descendant pair the join probes use on it.
    pub probe_doc: usize,
    pub twig: &'static str,
    pub pair: (&'static str, &'static str),
}

/// The `point` corpus: `bibliography` with 1 000 books and
/// `auction_site` at scale 2 000 (about 0.7 MB together).
pub fn point_docs(seed: u64) -> Vec<(String, String)> {
    let mut auction = XmarkConfig::scaled(2_000);
    auction.seed = seed;
    vec![
        ("bib".to_string(), bibliography(seed ^ 0xB1B, 1_000)),
        ("auction".to_string(), auction_site(&auction)),
    ]
}

const REGIONS: &[&str] = &["africa", "asia", "europe", "namerica"];

/// Short cached queries with seeded literals: arithmetic, indexed
/// counts, small paths, a small twig and small FLWORs. Returns the texts
/// and the batch shape sets: one text of every seeded shape per set, so
/// a batch is short and the same mix in every set.
pub fn point_texts(rng: &mut Rng) -> (Vec<String>, Vec<Vec<usize>>) {
    let mut v = vec![
        "1 + 1".to_string(),
        r#"count(doc("bib")//book/author/last)"#.to_string(),
    ];
    let mut sets = Vec::new();
    for _ in 0..6 {
        let start = v.len();
        let region = REGIONS[rng.range(0, 4) as usize];
        v.push(format!("{} + {}", rng.range(1, 1000), rng.range(1, 1000)));
        v.push(format!(
            r#"count(doc("auction")/site/regions/{region}/item)"#
        ));
        v.push(format!(
            r#"doc("auction")/site/open_auctions/open_auction[{}]/current"#,
            rng.range(1, 500)
        ));
        v.push(format!(
            r#"string(doc("bib")/bib/book[{}]/title)"#,
            rng.range(1, 1000)
        ));
        v.push(format!(
            r#"count(doc("auction")/site/regions/{}/item[location][quantity])"#,
            REGIONS[rng.range(0, 4) as usize]
        ));
        v.push(format!(
            r#"for $i in doc("auction")/site/regions/{region}/item[position() le {}] return string($i/name)"#,
            rng.range(1, 6)
        ));
        v.push(format!(
            "for $x in (1 to {}) return $x * {}",
            rng.range(2, 10),
            rng.range(2, 100)
        ));
        sets.push((start..v.len()).collect());
    }
    (v, sets)
}

/// The `analytic` corpus: `auction_site` at scale 20 000 (about 4.7 MB).
pub fn analytic_docs(seed: u64) -> Vec<(String, String)> {
    let mut auction = XmarkConfig::scaled(20_000);
    auction.seed = seed;
    vec![("auction".to_string(), auction_site(&auction))]
}

/// Heavy queries, one text per shape and literal draw: XMark Q4, Q6 and
/// a windowed Q8 value join, a multi-branch twig and a FLWOR with
/// `order by`. The twig's root list is long enough to split into
/// morsels. Five shapes in equal shares put the median inside one
/// shape's distribution instead of in the gap between two. Returns the
/// texts and the batch shape sets (one text of every shape per set).
pub fn analytic_texts(rng: &mut Rng) -> (Vec<String>, Vec<Vec<usize>>) {
    let mut texts = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..2 {
        let start = texts.len();
        texts.push(format!(
            r#"count(for $b in doc("auction")/site/open_auctions/open_auction where some $i in $b/bidder/increase satisfies number($i) > {} return $b)"#,
            rng.range(8, 16)
        ));
        texts.push(format!(
            r#"for $r in doc("auction")/site/regions/* return count($r/item[quantity >= {}])"#,
            rng.range(1, 4)
        ));
        let off = rng.range(0, 4_900);
        texts.push(format!(
            r#"for $p in doc("auction")/site/people/person[position() gt {off} and position() le {}]
               let $a := for $t in doc("auction")/site/closed_auctions/closed_auction
                         where $t/buyer/@person = $p/@id
                         return $t
               where count($a) ge 1
               order by count($a) descending, string($p/@id)
               return <buyer id="{{$p/@id}}" name="{{$p/name}}">{{count($a)}}</buyer>"#,
            off + 40
        ));
        texts.push(format!(
            r#"count(doc("auction")//open_auction[bidder/increase][seller]/{})"#,
            ["current", "initial", "itemref"][rng.range(0, 3) as usize]
        ));
        texts.push(format!(
            r#"for $i in doc("auction")/site/closed_auctions/closed_auction[price >= {}] order by number($i/price) descending, string($i/@id) return string($i/@id)"#,
            rng.range(470, 496)
        ));
        sets.push((start..texts.len()).collect());
    }
    (texts, sets)
}

pub enum Kind {
    Point,
    Analytic,
}

/// Generate, load and warm one workload on a fresh service. This is
/// the set-up that `setup_s` times.
pub fn setup(kind: &Kind, seed: u64) -> QueryWork {
    let mut rng = Rng::new(seed).fork(1);
    let (docs, texts, batches, batch_every, miss_every, probe_doc, twig, pair) = match kind {
        Kind::Point => {
            let docs = point_docs(seed);
            let (texts, sets) = point_texts(&mut rng);
            let batches = sets.into_iter().map(|s| ("bib".to_string(), s)).collect();
            (
                docs,
                texts,
                batches,
                None,
                Some(20),
                1,
                "//open_auction[bidder]/seller",
                ("open_auction", "increase"),
            )
        }
        Kind::Analytic => {
            let docs = analytic_docs(seed);
            let (texts, sets) = analytic_texts(&mut rng);
            let batches = sets
                .into_iter()
                .map(|s| ("auction".to_string(), s))
                .collect();
            (
                docs,
                texts,
                batches,
                Some(8),
                None,
                0,
                "//item[location][quantity]/name",
                ("open_auction", "increase"),
            )
        }
    };
    let svc = QueryService::new(ServiceConfig::default());
    for (name, xml) in &docs {
        svc.load_document(name, xml)
            .unwrap_or_else(|e| panic!("loading {name}: {e}"));
    }
    // Warm: compile every text into the plan cache and run it once.
    for t in &texts {
        let _ = svc.run(t);
    }
    QueryWork {
        svc,
        docs,
        expected: Vec::new(),
        texts,
        batches,
        batch_every,
        miss_every,
        probe_doc,
        twig,
        pair,
    }
}

/// Compute the expected answer of every text on the reference engine.
pub fn compute_expected(work: &mut QueryWork) {
    let reference = reference_engine();
    for (name, xml) in &work.docs {
        reference
            .load_document(name, xml)
            .unwrap_or_else(|e| panic!("reference load of {name}: {e}"));
    }
    work.expected = work
        .texts
        .iter()
        .map(|t| hash_str(&reference_answer(&reference, t)))
        .collect();
}

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct LoopResult {
    /// Single-query latencies (µs) and batch latencies (ms).
    pub query_us: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
}

impl LoopResult {
    pub fn merge(&mut self, other: LoopResult) {
        self.query_us.extend(other.query_us);
        self.batch_ms.extend(other.batch_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
    }
}

/// One operation of a client's schedule.
pub enum Op {
    /// A cached text, or with `fresh` a new text with the same answer.
    Single { text: usize, fresh: Option<u64> },
    /// A `run_batch` of one batch shape set.
    Batch(usize),
}

/// A client's operation sequence: the texts round-robin in a seeded
/// order (each client starting at its own offset), every
/// `batch_every`-th operation a batch, every `miss_every`-th single
/// query a fresh text. A fixed mix keeps the latency distribution the
/// same from run to run.
pub struct Schedule {
    order: Vec<usize>,
    batch_every: Option<u64>,
    miss_every: Option<u64>,
    batch_sets: usize,
    ops: u64,
    singles: u64,
    fresh: u64,
}

impl Schedule {
    pub fn new(work: &QueryWork, rng: &Rng, client: u64, clients: u64) -> Schedule {
        let mut rng = rng.fork(77);
        let mut order: Vec<usize> = (0..work.texts.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
        let skip = work.texts.len() as u64 * client / clients.max(1);
        Schedule {
            order,
            batch_every: work.batch_every,
            miss_every: work.miss_every,
            batch_sets: work.batches.len(),
            ops: 0,
            singles: skip,
            fresh: (client + 1) << 40 | rng.range(0, 1 << 30),
        }
    }

    pub fn next(&mut self) -> Op {
        self.ops += 1;
        if let Some(n) = self.batch_every {
            if self.ops.is_multiple_of(n) {
                return Op::Batch((self.ops / n) as usize % self.batch_sets);
            }
        }
        self.singles += 1;
        let text = self.order[self.singles as usize % self.order.len()];
        let fresh = self
            .miss_every
            .is_some_and(|m| self.singles.is_multiple_of(m))
            .then(|| {
                self.fresh += 1;
                self.fresh
            });
        Op::Single { text, fresh }
    }
}

/// One client's closed loop: send, wait, check (outside the timed
/// interval), repeat until `deadline`.
fn client_loop(work: &QueryWork, mut schedule: Schedule, deadline: Instant) -> LoopResult {
    let mut out = LoopResult::default();
    while Instant::now() < deadline {
        match schedule.next() {
            Op::Batch(b) => {
                let (doc, idx) = &work.batches[b];
                let queries: Vec<&str> = idx.iter().map(|&i| work.texts[i].as_str()).collect();
                let t0 = Instant::now();
                let res = work.svc.run_batch(doc, &queries);
                out.batch_ms.push(crate::stats::ms(t0.elapsed()));
                let ok = res.is_ok_and(|results| batch_ok(&results, idx, &work.expected));
                out.attempted += 1;
                out.failed += u64::from(!ok);
            }
            Op::Single { text: i, fresh } => {
                let text = match fresh {
                    Some(n) => fresh_text(&work.texts[i], n),
                    None => work.texts[i].clone(),
                };
                let t0 = Instant::now();
                let res = work.svc.run(&text);
                out.query_us.push(crate::stats::us(t0.elapsed()));
                let ok = res.is_ok_and(|s| hash_str(&s) == work.expected[i]);
                out.attempted += 1;
                out.failed += u64::from(!ok);
            }
        }
    }
    out
}

fn batch_ok(results: &[xqr::Result<String>], idx: &[usize], expected: &[u64]) -> bool {
    results.len() == idx.len()
        && results
            .iter()
            .zip(idx)
            .all(|(r, &i)| r.as_ref().is_ok_and(|s| hash_str(s) == expected[i]))
}

/// `clients` closed-loop clients for `dur`.
pub fn closed_loop(work: &QueryWork, rng: &Rng, clients: usize, dur: Duration) -> LoopResult {
    let start = Instant::now();
    let deadline = start + dur;
    let mut total = LoopResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let schedule = Schedule::new(work, rng, c as u64, clients as u64);
                s.spawn(move || client_loop(work, schedule, deadline))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total.elapsed = start.elapsed();
    total
}

/// Sequential `run_batch` calls over every batch shape set until
/// `deadline` (the side probe for workloads whose own loop has none).
pub fn batch_probe(
    svc: &QueryService,
    batches: &[(String, Vec<usize>)],
    texts: &[String],
    expected: &[u64],
    dur: Duration,
) -> LoopResult {
    let mut out = LoopResult::default();
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < dur || out.batch_ms.len() < 5 {
        let (doc, idx) = &batches[k % batches.len()];
        k += 1;
        let queries: Vec<&str> = idx.iter().map(|&i| texts[i].as_str()).collect();
        let t0 = Instant::now();
        let res = svc.run_batch(doc, &queries);
        out.batch_ms.push(crate::stats::ms(t0.elapsed()));
        let ok = res.is_ok_and(|results| batch_ok(&results, idx, expected));
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    out.elapsed = start.elapsed();
    out
}
