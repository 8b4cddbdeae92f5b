//! The traced run: each workload's operations replayed through the
//! layer functions with a span around every call, and one probe per
//! layer that times the layer on the workload's own inputs.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use xqr::xqr_compiler::{access, normalize_module, optimize_module, typing};
use xqr::xqr_index::{ensure_indexed, DocIndex};
use xqr::xqr_joins::{element_list, stack_tree_desc, twig_stack, JoinKind, TwigPattern};
use xqr::xqr_runtime::ScanCache;
use xqr::xqr_service::{QueryService, WorkerPool};
use xqr::xqr_subscribe::{run_document, CombinedAutomaton, SubscriptionRegistry};
use xqr::xqr_tokenstream::{ParserTokenIterator, PushTokenizer};
use xqr::xqr_xmlparse::{XmlEvent, XmlReader};
use xqr::{DynamicContext, Engine, Item, Limits, NodeId, NodeRef, QueryGuard, Store};
use xqr_segment::{segment_bytes, write_segment_file, Segment};

use crate::gen::{fresh_text, Rng, CHUNK_BYTES};
use crate::ingest::{Feed, IngestWork, DURABLE_EVERY};
use crate::queries::{hash_str, Op, QueryWork, Schedule};
use crate::report::Report;
use crate::stats::{median, ms, us};
use crate::trace::{SpanCtx, Tracer, ROOT};

/// Outcome tally of a replay.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Compile `text` phase by phase, each phase in its own span.
fn traced_compile(tracer: &Tracer, at: SpanCtx, engine: &Engine, text: &str) {
    let Ok(ast) = tracer.span(at, "xqparser.parse", |_| {
        xqr::xqr_xqparser::parse_query(text)
    }) else {
        return;
    };
    let Ok(mut module) = tracer.span(at, "compiler.normalize", |_| normalize_module(&ast)) else {
        return;
    };
    let _ = tracer.span(at, "compiler.typecheck", |_| {
        typing::check_module(&module, engine.options().compile.static_typing)
    });
    tracer.span(at, "compiler.rewrite", |_| {
        optimize_module(&mut module, &engine.options().compile.rewrite)
    });
    tracer.span(at, "compiler.access", |_| {
        access::select_access_paths(&mut module)
    });
}

/// Replay the point/analytic closed loop: plan lookup on the client
/// (compile phases traced on fresh texts), then a worker-pool handoff
/// whose job executes and serializes. Batches look up every plan, then
/// run them all in one pool job over a shared scan cache.
pub fn replay_queries(
    work: &QueryWork,
    tracer: &Arc<Tracer>,
    rng: &Rng,
    clients: usize,
    dur: Duration,
) -> Tally {
    let pool = WorkerPool::new(work.svc.stats().max_concurrent as usize, 64);
    let next_req = AtomicU32::new(1);
    let deadline = Instant::now() + dur;
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut schedule = Schedule::new(work, rng, c as u64, clients as u64);
                let (pool, next_req) = (&pool, &next_req);
                s.spawn(move || {
                    let mut t = Tally::default();
                    while Instant::now() < deadline {
                        let req = next_req.fetch_add(1, Ordering::Relaxed);
                        match schedule.next() {
                            Op::Batch(b) => t.add(replay_batch(work, tracer, pool, req, b)),
                            Op::Single { text: i, fresh } => {
                                let fresh = fresh.map(|n| fresh_text(&work.texts[i], n));
                                let out =
                                    replay_single(work, tracer, pool, req, i, fresh.as_deref());
                                t.add(out.is_some_and(|s| hash_str(&s) == work.expected[i]));
                            }
                        }
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            let t = h.join().expect("replay client panicked");
            tally.attempted += t.attempted;
            tally.failed += t.failed;
        }
    });
    pool.shutdown();
    tally
}

fn replay_single(
    work: &QueryWork,
    tracer: &Arc<Tracer>,
    pool: &WorkerPool,
    req: u32,
    i: usize,
    fresh: Option<&str>,
) -> Option<String> {
    let engine = Arc::clone(work.svc.engine());
    tracer.op(req, ROOT, |root| {
        let plan = tracer
            .span(root, "service.plan_lookup", |at| {
                // A fresh text's phases are traced first; `prepare` then
                // compiles it again for the plan, so on such a request the
                // service span's self time holds a second compile.
                if let Some(text) = fresh {
                    traced_compile(tracer, at, &engine, text);
                }
                work.svc.prepare(fresh.unwrap_or(&work.texts[i]))
            })
            .ok()?;
        tracer.span(root, "parallel.handoff", |at| {
            let (tx, rx) = mpsc::channel();
            let tracer = Arc::clone(tracer);
            pool.submit(move || {
                let out = tracer
                    .span(at, "runtime.execute", |_| {
                        plan.execute(&engine, &DynamicContext::new())
                    })
                    .and_then(|r| tracer.span(at, "runtime.serialize", |_| r.serialize_guarded()));
                let _ = tx.send(out.ok());
            })
            .ok()?;
            rx.recv().ok().flatten()
        })
    })
}

fn replay_batch(
    work: &QueryWork,
    tracer: &Arc<Tracer>,
    pool: &WorkerPool,
    req: u32,
    b: usize,
) -> bool {
    let (doc, idx) = &work.batches[b];
    let engine = Arc::clone(work.svc.engine());
    let Ok(Some(id)) = work.svc.catalog().resolve(doc) else {
        return false;
    };
    let expected: Vec<u64> = idx.iter().map(|&i| work.expected[i]).collect();
    // Batches are timed apart from single queries (`batch_p50_ms`), so
    // their requests stay out of the single-query attribution.
    tracer.op(req, "batch", |root| {
        let plans: Option<Vec<_>> = idx
            .iter()
            .map(|&i| {
                tracer
                    .span(root, "service.plan_lookup", |_| {
                        work.svc.prepare(&work.texts[i])
                    })
                    .ok()
            })
            .collect();
        let Some(plans) = plans else { return false };
        tracer.span(root, "parallel.handoff", |at| {
            let (tx, rx) = mpsc::channel();
            let tracer = Arc::clone(tracer);
            let job = pool.submit(move || {
                let scans = Arc::new(ScanCache::new());
                let mut ctx = DynamicContext::new();
                ctx.context_item = Some(Item::Node(NodeRef::new(id, NodeId(0))));
                let ok = plans.iter().zip(&expected).all(|(plan, want)| {
                    tracer
                        .span(at, "runtime.execute", |_| {
                            plan.execute_shared_scans(
                                &engine,
                                &ctx,
                                QueryGuard::new(Limits::unlimited()),
                                scans.clone(),
                            )
                        })
                        .and_then(|r| {
                            tracer.span(at, "runtime.serialize", |_| r.serialize_guarded())
                        })
                        .is_ok_and(|s| hash_str(&s) == *want)
                });
                let _ = tx.send(ok);
            });
            job.is_ok() && rx.recv().unwrap_or(false)
        })
    })
}

/// Replay the ingest producer: the chunked publish through a
/// subscription registry (tokenize + automaton while feeding, fallback
/// evaluation over a store/index build at finish), the chunked stream
/// query, and every k-th document's durable load as store build, index
/// build and segment write.
pub fn replay_ingest(
    work: &IngestWork,
    feed: &Feed,
    tracer: &Tracer,
    rng: &Rng,
    seg_dir: &Path,
    dur: Duration,
) -> Tally {
    // The untraced reader keeps running beside the traced producer, as
    // it does in the untraced phase the replay is compared with.
    let done = AtomicBool::new(false);
    let (mut tally, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| crate::ingest::reader(work, feed, rng.fork(9), &done));
        let tally = replay_producer(work, feed, tracer, seg_dir, dur);
        done.store(true, Ordering::Relaxed);
        (tally, reader.join().expect("reader thread panicked"))
    });
    tally.attempted += reader.attempted;
    tally.failed += reader.failed;
    tally
}

fn replay_producer(
    work: &IngestWork,
    feed: &Feed,
    tracer: &Tracer,
    seg_dir: &Path,
    dur: Duration,
) -> Tally {
    let engine = work.svc.engine();
    let reg = SubscriptionRegistry::new();
    let ids: Vec<_> = feed
        .subs
        .iter()
        .map(|q| {
            let plan = work.svc.prepare(q).expect("subscription compiles");
            reg.register(q, plan, Limits::unlimited(), None)
        })
        .collect();
    let _ = std::fs::create_dir_all(seg_dir);
    let deadline = Instant::now() + dur;
    let mut tally = Tally::default();
    let mut n = 0u64;
    while Instant::now() < deadline || n < 4 {
        let d = n as usize % feed.pool.len();
        let xml = &feed.pool[d];
        let q = n as usize % feed.stream_texts.len();
        tracer.op(n as u32 + 1, ROOT, |root| {
            let session = tracer.span(root, "subscribe.session", |_| {
                let mut s = reg.begin_publish(engine, &format!("replay-{n}"), Limits::unlimited());
                for chunk in xml.as_bytes().chunks(CHUNK_BYTES) {
                    s.feed(chunk)?;
                    let _ = s.matches_so_far();
                }
                Ok::<_, xqr::Error>(s)
            });
            let report = session.and_then(|s| {
                tracer.span(root, "subscribe.finish", |at| {
                    s.finish(&reg, engine, |text| {
                        let id = tracer
                            .span(at, "store.build", |_| engine.store().load_xml(text, None))?;
                        tracer.span(at, "index.build", |_| {
                            ensure_indexed(
                                engine.store(),
                                id,
                                &QueryGuard::new(Limits::unlimited()),
                            )
                        })?;
                        Ok((id, true))
                    })
                })
            });
            tally.add(report.is_ok_and(|r| {
                ids.iter().zip(&feed.expected[d]).all(|(id, want)| {
                    r.result_for(*id)
                        .is_some_and(|x| x.as_ref().is_ok_and(|s| hash_str(s) == *want))
                })
            }));
            let streamed = tracer.span(root, "ingest.stream_query", |_| {
                let mut sq = work.svc.open_stream_query(&feed.stream_texts[q])?;
                for chunk in xml.as_bytes().chunks(CHUNK_BYTES) {
                    sq.feed(chunk)?;
                }
                sq.finish()
            });
            tally.add(streamed.is_ok_and(|s| hash_str(&s) == feed.stream_expected[d][q]));
            if n.is_multiple_of(DURABLE_EVERY) {
                tally.add(durable_load(tracer, root, engine, xml, seg_dir, n).is_ok());
            }
        });
        n += 1;
    }
    let _ = std::fs::remove_dir_all(seg_dir);
    tally
}

fn durable_load(
    tracer: &Tracer,
    at: SpanCtx,
    engine: &Engine,
    xml: &str,
    seg_dir: &Path,
    n: u64,
) -> xqr::Result<()> {
    let store = Store::with_names(engine.names().clone());
    let id = tracer.span(at, "store.build", |_| store.load_xml(xml, None))?;
    let doc = store.document(id);
    let index = tracer.span(at, "index.build", |_| DocIndex::build(&doc))?;
    tracer.span(at, "segment.write", |_| {
        let bytes = segment_bytes(&doc, &index)?;
        write_segment_file(seg_dir, &format!("replay-{n}.seg"), &bytes)
    })
}

/// What the layer probes run on.
pub struct ProbeInputs<'a> {
    pub svc: &'a QueryService,
    /// Texts the service has cached (plan lookup, runtime probes).
    pub hot: &'a [String],
    /// Texts compiled from scratch (compile-phase probes).
    pub miss: Vec<String>,
    /// The document the store, index, join and segment probes use.
    pub doc: &'a str,
    pub twig: &'a str,
    pub pair: (&'a str, &'a str),
    pub feed: &'a Feed,
    pub scratch: &'a Path,
}

fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Run every layer probe and record its metric.
pub fn probes(p: &ProbeInputs, rep: &mut Report) {
    let engine = p.svc.engine();
    compile_probe(engine, &p.miss, rep);

    let lookups: Vec<f64> = (0..20)
        .flat_map(|_| p.hot.iter())
        .map(|q| us(time(|| p.svc.prepare(q)).0))
        .collect();
    rep.metric("service.plan_lookup_us", median(&lookups), "us");

    let fixed = engine.compile("1 + 1").expect("1 + 1 compiles");
    let spawn: Vec<f64> = (0..300)
        .map(|_| us(time(|| fixed.execute(engine, &DynamicContext::new())).0))
        .collect();
    rep.metric("core.execute_fixed_us", median(&spawn), "us");

    let (mut exec, mut ser, mut items) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        for q in p.hot {
            let Ok(plan) = p.svc.prepare(q) else { continue };
            let (dt, res) = time(|| plan.execute(engine, &DynamicContext::new()));
            let Ok(res) = res else { continue };
            exec.push(us(dt));
            ser.push(us(time(|| res.serialize_guarded()).0));
            items.push(res.len() as f64);
        }
    }
    rep.metric("runtime.execute_us", median(&exec), "us");
    rep.metric("runtime.serialize_us", median(&ser), "us");
    rep.metric("runtime.items_produced", median(&items), "count");

    store_index_segment_probe(engine, p.doc, p.scratch, rep);
    joins_probe(engine, p.doc, p.twig, p.pair, rep);
    ingest_side_probes(engine, p.feed, rep);
}

fn compile_probe(engine: &Engine, texts: &[String], rep: &mut Report) {
    let mut phases: [Vec<f64>; 5] = Default::default();
    for _ in 0..5 {
        for text in texts {
            let (t, ast) = time(|| xqr::xqr_xqparser::parse_query(text));
            let Ok(ast) = ast else { continue };
            phases[0].push(us(t));
            let (t, module) = time(|| normalize_module(&ast));
            let Ok(mut module) = module else { continue };
            phases[1].push(us(t));
            let strict = engine.options().compile.static_typing;
            phases[2].push(us(time(|| typing::check_module(&module, strict)).0));
            let rewrite = &engine.options().compile.rewrite;
            phases[3].push(us(time(|| optimize_module(&mut module, rewrite)).0));
            phases[4].push(us(time(|| access::select_access_paths(&mut module)).0));
        }
    }
    for (name, v) in [
        "xqparser.parse_us",
        "compiler.normalize_us",
        "compiler.typecheck_us",
        "compiler.rewrite_us",
        "compiler.access_us",
    ]
    .iter()
    .zip(&phases)
    {
        rep.metric(name, median(v), "us");
    }
}

fn store_index_segment_probe(engine: &Engine, xml: &str, scratch: &Path, rep: &mut Report) {
    let (mut build, mut index, mut write, mut open, mut load) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let _ = std::fs::create_dir_all(scratch);
    for k in 0..3 {
        let store = Store::with_names(engine.names().clone());
        let (t, id) = time(|| store.load_xml(xml, None).expect("probe document parses"));
        build.push(ms(t));
        let doc = store.document(id);
        let (t, idx) = time(|| DocIndex::build(&doc).expect("probe index builds"));
        index.push(ms(t));
        let file = format!("probe-{k}.seg");
        let (t, _) = time(|| {
            let bytes = segment_bytes(&doc, &idx).expect("segment encodes");
            write_segment_file(scratch, &file, &bytes).expect("segment writes");
        });
        write.push(ms(t));
        let path = scratch.join(&file);
        let (t, seg) = time(|| Segment::open(&path).expect("segment opens"));
        open.push(ms(t));
        load.push(ms(time(|| {
            seg.load(engine.names()).expect("segment loads")
        })
        .0));
    }
    rep.metric("store.build_ms", median(&build), "ms");
    rep.metric("index.build_ms", median(&index), "ms");
    rep.metric("segment.write_ms", median(&write), "ms");
    rep.metric("segment.open_ms", median(&open), "ms");
    rep.metric("segment.load_ms", median(&load), "ms");
}

fn joins_probe(engine: &Engine, xml: &str, twig: &str, pair: (&str, &str), rep: &mut Report) {
    let store = Store::with_names(engine.names().clone());
    let doc = store.document(store.load_xml(xml, None).expect("probe document parses"));
    let names = engine.names();
    let pattern = TwigPattern::parse(twig, names).expect("probe twig parses");
    let lists: Vec<_> = pattern
        .nodes
        .iter()
        .map(|n| element_list(&doc, n.name))
        .collect();
    let twig_us: Vec<f64> = (0..30)
        .map(|_| us(time(|| std::hint::black_box(twig_stack(&pattern, &lists))).0))
        .collect();
    rep.metric("joins.twig_stack_us", median(&twig_us), "us");
    let a = element_list(&doc, names.intern_local(pair.0));
    let d = element_list(&doc, names.intern_local(pair.1));
    let std_us: Vec<f64> =
        (0..30)
            .map(|_| {
                us(time(|| {
                    std::hint::black_box(stack_tree_desc(&a, &d, JoinKind::AncestorDescendant))
                })
                .0)
            })
            .collect();
    rep.metric("joins.stack_tree_desc_us", median(&std_us), "us");
}

fn ingest_side_probes(engine: &Engine, feed: &Feed, rep: &mut Report) {
    let bytes: usize = feed.pool.iter().map(String::len).sum();
    let (lex, _) = time(|| {
        for _ in 0..3 {
            for xml in &feed.pool {
                let mut r = XmlReader::new(xml);
                while !matches!(r.next_event(), Ok(XmlEvent::EndDocument) | Err(_)) {}
            }
        }
    });
    rep.metric(
        "xmlparse.lex_mb_s",
        3.0 * bytes as f64 / 1e6 / lex.as_secs_f64(),
        "MB/s",
    );
    let (push, _) = time(|| {
        for _ in 0..3 {
            for xml in &feed.pool {
                let mut t = PushTokenizer::new(engine.names().clone());
                for chunk in xml.as_bytes().chunks(CHUNK_BYTES) {
                    t.feed(chunk).expect("feed document tokenizes");
                    while let Ok(Some(_)) = t.poll_token() {}
                }
                t.finish().expect("feed document ends");
                while let Ok(Some(_)) = t.poll_token() {}
            }
        }
    });
    rep.metric(
        "tokenstream.push_mb_s",
        3.0 * bytes as f64 / 1e6 / push.as_secs_f64(),
        "MB/s",
    );
    let patterns: Vec<_> = feed
        .subs
        .iter()
        .filter_map(|q| engine.compile(q).ok()?.stream_pattern().cloned())
        .collect();
    let automaton = CombinedAutomaton::build(&patterns);
    let runs: Vec<f64> = (0..3)
        .flat_map(|_| feed.pool.iter())
        .map(|xml| {
            ms(time(|| {
                let mut it = ParserTokenIterator::new(xml, engine.names().clone());
                run_document(&automaton, &mut it, |_, _| Ok(())).expect("automaton pass")
            })
            .0)
        })
        .collect();
    rep.metric("subscribe.automaton_ms", median(&runs), "ms");
}
