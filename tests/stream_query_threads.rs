//! Stream queries hold no thread: a thousand of them are open at once
//! on one thread and drip-fed round-robin, and the process's thread
//! count stays flat throughout. Open sessions are bounded by the memory
//! ledger, not by how many threads the machine can spawn.
//!
//! This binary holds a single test, so no other test's threads are
//! counted.

use xqr::xqr_pressure::Category;
use xqr::xqr_service::{QueryService, ServiceConfig};

/// Live threads in this process, from `/proc/self/status` (`None` where
/// the platform has no procfs).
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// A small feed with nested items, so descendant queries see nested
/// matches.
fn feed(d: usize) -> String {
    let mut xml = String::from("<feed>");
    for k in 0..6 {
        xml.push_str(&format!(
            "<item id=\"{d}.{k}\"><title>t{d}-{k}</title><b>x</b>\
             <item><title>inner{k}</title></item></item>"
        ));
    }
    xml.push_str("</feed>");
    xml
}

#[test]
fn a_thousand_open_stream_queries_hold_no_threads() {
    const QUERIES: usize = 1000;
    const CHUNK: usize = 64;
    let service = QueryService::new(ServiceConfig::default());
    let texts = ["/feed/item/title", "//title", "/feed//b", "//item//item"];
    let docs: Vec<String> = (0..3).map(feed).collect();
    let job = |i: usize| (texts[i % texts.len()], &docs[i % docs.len()]);

    // Expected answers first: `run_on_xml` goes through the worker pool,
    // whose threads belong in the baseline.
    let expected: Vec<String> = (0..QUERIES)
        .map(|i| {
            let (q, xml) = job(i);
            service.run_on_xml(q, xml).unwrap()
        })
        .collect();
    let baseline = threads();

    let mut open: Vec<_> = (0..QUERIES)
        .map(|i| service.open_stream_query(job(i).0).unwrap())
        .collect();
    assert!(open.iter().all(|q| q.is_streamed()));
    let rounds = docs.iter().map(|d| d.len().div_ceil(CHUNK)).max().unwrap();
    for round in 0..rounds {
        for (i, q) in open.iter_mut().enumerate() {
            let xml = job(i).1.as_bytes();
            if let Some(chunk) = xml.chunks(CHUNK).nth(round) {
                q.feed(chunk).unwrap();
            }
        }
        if let (Some(base), Some(now)) = (baseline, threads()) {
            assert!(
                now <= base,
                "round {round}: {now} threads with {QUERIES} stream queries open, {base} before"
            );
        }
    }
    let ingest = || {
        service
            .ledger()
            .snapshot()
            .category(Category::IngestChannels)
            .current
    };
    assert!(
        ingest() > 0,
        "open stream queries are charged to the ledger"
    );

    for (i, q) in open.drain(..).enumerate() {
        assert_eq!(
            q.finish().unwrap(),
            expected[i],
            "query {i}: {:?}",
            job(i).0
        );
    }
    assert_eq!(ingest(), 0, "every stream query's charge is released");
}
