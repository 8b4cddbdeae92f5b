//! String pooling — the TokenStream's dictionary compression.
//!
//! "Pooling: store strings only once (dictionary-based compression);
//! works for all QNames (names and types) and text." Interning is
//! hash-based; [`StrId`]s are dense, so the wire encoder can emit each
//! string definition once and reference it by id afterwards.

use crate::token::StrId;
use std::collections::HashMap;
use std::sync::Arc;
use xqr_xdm::{Error, Result};

/// An append-only interning pool of strings. Not thread-safe by design:
/// one pool belongs to one `TokenStream` under construction.
///
/// Streaming consumers that resolve every id before pulling the next
/// token can additionally call [`StringPool::recycle`] between tokens,
/// capping the pool at a working window instead of every unique string
/// in the document.
#[derive(Debug, Default, Clone)]
pub struct StringPool {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, StrId>,
    /// Id of `strings[0]`; ids below it were recycled away.
    base: u32,
    /// Cached sum of pooled string lengths, so byte-budget checks are
    /// O(1) on the streaming hot path.
    payload: usize,
}

impl StringPool {
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(&self, id: StrId) -> usize {
        id.0.checked_sub(self.base)
            .expect("stale StrId: the pooled string was recycled") as usize
    }

    /// Intern a string, returning its dense id.
    pub fn intern(&mut self, s: &str) -> StrId {
        match self.index.get(s) {
            Some(id) => *id,
            None => self.push(Arc::from(s)),
        }
    }

    /// [`StringPool::intern`] for a string the caller already holds as
    /// an `Arc`: a new string is pooled without another copy.
    pub fn intern_arc(&mut self, s: Arc<str>) -> StrId {
        match self.index.get(&s) {
            Some(id) => *id,
            None => self.push(s),
        }
    }

    fn push(&mut self, arc: Arc<str>) -> StrId {
        let id = StrId(
            self.base
                .checked_add(self.strings.len() as u32)
                .expect("string pool id space exhausted"),
        );
        self.payload += arc.len();
        self.strings.push(arc.clone());
        self.index.insert(arc, id);
        id
    }

    pub fn get(&self, id: StrId) -> &str {
        &self.strings[self.idx(id)]
    }

    pub fn get_arc(&self, id: StrId) -> Arc<str> {
        self.strings[self.idx(id)].clone()
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of pooled payload (for the pooling experiment E4).
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// Drop every pooled string and advance the id watermark: ids
    /// issued before the call become invalid, and resolving one panics
    /// instead of silently aliasing a newer string. Streaming
    /// tokenizers call this between tokens — their consumers resolve
    /// ids before pulling the next token — so that pooled memory stays
    /// O(working window) on unbounded documents rather than O(every
    /// unique string seen).
    pub fn recycle(&mut self) {
        self.base = self
            .base
            .checked_add(self.strings.len() as u32)
            .expect("string pool id space exhausted");
        self.strings.clear();
        self.index.clear();
        self.payload = 0;
    }

    /// Freeze the pool into a [`StrArena`] holding the same ids: one
    /// contiguous copy of every string, without the per-string `Arc`s
    /// and the dedupe map, for a document that interns nothing more.
    /// Fails on a recycled pool (its early ids are gone) and on more
    /// than 4 GiB of strings (the arena's offsets are `u32`).
    pub fn freeze(self) -> Result<StrArena> {
        if self.base != 0 {
            return Err(Error::internal("cannot freeze a recycled string pool"));
        }
        StrArena::from_strings(self.strings.iter().map(|s| &**s), self.payload)
    }

    pub fn iter(&self) -> impl Iterator<Item = (StrId, &str)> {
        let base = self.base;
        self.strings
            .iter()
            .enumerate()
            .map(move |(i, s)| (StrId(base + i as u32), &**s))
    }
}

/// A frozen [`StringPool`]: every string in one buffer, string `i`
/// spanning `offsets[i]..offsets[i + 1]`. What a finished document keeps.
#[derive(Debug, Clone)]
pub struct StrArena {
    bytes: String,
    offsets: Vec<u32>,
}

impl StrArena {
    /// An arena of `strings` in order, so string `i` gets `StrId(i)`.
    /// `payload` is their total length, to size the buffer exactly.
    pub fn from_strings<'s>(
        strings: impl ExactSizeIterator<Item = &'s str>,
        payload: usize,
    ) -> Result<StrArena> {
        let too_big = || Error::limit("document strings exceed the 4 GiB arena");
        if u32::try_from(payload).is_err() {
            return Err(too_big());
        }
        let mut arena = StrArena {
            bytes: String::with_capacity(payload),
            offsets: Vec::with_capacity(strings.len() + 1),
        };
        arena.offsets.push(0);
        for s in strings {
            arena.bytes.push_str(s);
            arena
                .offsets
                .push(u32::try_from(arena.bytes.len()).map_err(|_| too_big())?);
        }
        Ok(arena)
    }

    pub fn get(&self, id: StrId) -> &str {
        let i = id.0 as usize;
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of string payload.
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (StrId, &str)> {
        (0..self.len() as u32).map(|i| (StrId(i), self.get(StrId(i))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups() {
        let mut p = StringPool::new();
        let a = p.intern("hello");
        let b = p.intern("world");
        let c = p.intern("hello");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(a), "hello");
        assert_eq!(p.get(b), "world");
    }

    #[test]
    fn payload_counts_unique_only() {
        let mut p = StringPool::new();
        p.intern("aaaa");
        p.intern("aaaa");
        p.intern("bb");
        assert_eq!(p.payload_bytes(), 6);
    }

    #[test]
    fn recycle_frees_strings_and_invalidates_old_ids() {
        let mut p = StringPool::new();
        let a = p.intern("hello");
        p.intern("world");
        assert_eq!(p.payload_bytes(), 10);

        p.recycle();
        assert!(p.is_empty());
        assert_eq!(p.payload_bytes(), 0);

        // New ids live above the watermark; the old id is dead, not
        // aliased.
        let b = p.intern("fresh");
        assert_eq!(p.get(b), "fresh");
        assert_ne!(a, b);
        assert!(std::panic::catch_unwind(|| p.get(a)).is_err());
    }

    #[test]
    fn freeze_keeps_every_id() {
        let mut p = StringPool::new();
        let ids: Vec<_> = ["b", "", "日本", "b", "tail"]
            .iter()
            .map(|s| p.intern(s))
            .collect();
        let payload = p.payload_bytes();
        let frozen = p.clone().freeze().unwrap();
        assert_eq!(frozen.len(), p.len());
        assert_eq!(frozen.payload_bytes(), payload);
        for id in ids {
            assert_eq!(frozen.get(id), p.get(id));
        }
        assert!(frozen.iter().eq(p.iter()));
        p.recycle();
        assert!(p.freeze().is_err());
    }

    #[test]
    fn empty_string_is_a_value() {
        let mut p = StringPool::new();
        let e = p.intern("");
        assert_eq!(p.get(e), "");
        assert_eq!(p.len(), 1);
    }
}
