//! In-memory span recorder for the traced run.
//!
//! The runner wraps each call it makes into a layer in a span: name,
//! start, end, parent span and request id. Spans stay in memory and are
//! written out once, after the run. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover; the
//! layer is the span name up to the first `.`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
}

/// Where a new span hangs: its request and parent span (0 = root).
#[derive(Clone, Copy, Debug)]
pub struct SpanCtx {
    pub req: u32,
    pub parent: u32,
}

/// The root of every traced operation.
pub const ROOT: &str = "op";

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next_id: std::sync::atomic::AtomicU32::new(1),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the context its
    /// own child spans hang from.
    pub fn span<R>(&self, at: SpanCtx, name: &'static str, f: impl FnOnce(SpanCtx) -> R) -> R {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let start = self.now();
        let out = f(SpanCtx {
            req: at.req,
            parent: id,
        });
        let end = self.now();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent: at.parent,
            req: at.req,
            name,
            start,
            end,
        });
        out
    }

    /// A root span for request `req`: [`ROOT`] for the operations the
    /// attribution covers, another name to keep a request out of it.
    pub fn op<R>(&self, req: u32, name: &'static str, f: impl FnOnce(SpanCtx) -> R) -> R {
        self.span(SpanCtx { req, parent: 0 }, name, f)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Per-span self time in nanoseconds: duration minus the union of its
/// children's intervals clipped to its own.
fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (*s, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Attribution over the traced requests whose root is [`ROOT`]: the
/// median root duration
/// (µs), each layer's median per-request self time (µs, a request that
/// never entered a layer counts as 0 for it) and each span name's
/// median duration (µs).
pub struct Attribution {
    pub root_median_us: f64,
    pub requests: usize,
    pub layer_self_median_us: BTreeMap<String, f64>,
    pub span_median_us: BTreeMap<&'static str, f64>,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Attribution {
        let timed = self_times(spans);
        let mut roots: BTreeMap<u32, f64> = BTreeMap::new();
        let mut per_req: BTreeMap<String, BTreeMap<u32, f64>> = BTreeMap::new();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, _) in timed
            .iter()
            .filter(|(s, _)| s.parent == 0 && s.name == ROOT)
        {
            roots.insert(s.req, (s.end - s.start) as f64 / 1e3);
        }
        for (s, self_ns) in &timed {
            if s.parent == 0 || !roots.contains_key(&s.req) {
                continue;
            }
            let dur_us = (s.end - s.start) as f64 / 1e3;
            by_name.entry(s.name).or_default().push(dur_us);
            *per_req
                .entry(layer_of(s.name).to_string())
                .or_default()
                .entry(s.req)
                .or_default() += *self_ns as f64 / 1e3;
        }
        let root_values: Vec<f64> = roots.values().copied().collect();
        let layer_self_median_us = per_req
            .into_iter()
            .map(|(layer, reqs)| {
                let v: Vec<f64> = roots
                    .keys()
                    .map(|r| reqs.get(r).copied().unwrap_or(0.0))
                    .collect();
                (layer, median(&v))
            })
            .collect();
        Attribution {
            root_median_us: median(&root_values),
            requests: root_values.len(),
            layer_self_median_us,
            span_median_us: by_name.into_iter().map(|(n, v)| (n, median(&v))).collect(),
        }
    }

    /// 1 − (sum of layer self-time medians ÷ end-to-end median).
    pub fn unattributed_frac(&self) -> f64 {
        let sum: f64 = self.layer_self_median_us.values().sum();
        1.0 - sum / self.root_median_us
    }
}

/// The span log as tab-separated text: id, parent, request, name,
/// start and end in nanoseconds.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id, s.parent, s.req, s.name, s.start, s.end
        ));
    }
    out
}
