//! Seeded inputs: corpora, feed documents and query texts. Everything
//! here derives from the workload seed; the program under test only
//! ever sees the generated text.

use std::fmt::Write;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for `label` under the same seed.
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Field tags the feed uses; one standing subscription per tag.
pub const FEED_FIELDS: usize = 256;
/// Feed documents are fed in chunks of this many bytes.
pub const CHUNK_BYTES: usize = 4096;

/// A feed document of about `target_bytes`: `<item>` entries under
/// `/feed`, each carrying four of the `f0..f255` field tags plus text.
fn feed_document(rng: &mut Rng, target_bytes: usize) -> String {
    let mut xml = String::with_capacity(target_bytes + 512);
    xml.push_str("<feed>");
    let mut i = 0u64;
    while xml.len() < target_bytes {
        let _ = write!(xml, "<item id=\"i{i}\"><title>entry {i}</title>");
        for _ in 0..4 {
            let f = rng.range(0, FEED_FIELDS as u64);
            let v = rng.range(0, 100_000);
            let _ = write!(xml, "<f{f}>value {v}</f{f}>");
        }
        xml.push_str("</item>");
        i += 1;
    }
    xml.push_str("</feed>");
    xml
}

/// Size of every feed document. One size for all of them keeps the
/// publish latency distribution unimodal and the same across seeds;
/// the seed varies the content.
pub const FEED_BYTES: usize = 150_000;

/// `n` distinct feed documents of `FEED_BYTES` each.
pub fn feed_pool(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n).map(|_| feed_document(rng, FEED_BYTES)).collect()
}

/// The standing subscriptions: one shared-prefix path per field tag.
pub fn streamable_subscriptions() -> Vec<String> {
    (0..FEED_FIELDS)
        .map(|i| format!("/feed/item/f{i}"))
        .collect()
}

/// Subscriptions the combined automaton cannot serve; each publish
/// evaluates them over one materialized copy of the document.
pub fn fallback_subscriptions(rng: &mut Rng) -> Vec<String> {
    vec![
        "count(//item)".to_string(),
        format!("count(//item[f{}])", rng.range(0, FEED_FIELDS as u64)),
        "string(//item[last()]/@id)".to_string(),
    ]
}

/// Turn a cached query text into a fresh one with the same answer: a
/// distinct comment makes the plan-cache key new, so it compiles.
pub fn fresh_text(base: &str, n: u64) -> String {
    format!("{base} (: fresh {n} :)")
}
