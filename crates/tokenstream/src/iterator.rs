//! The pull interface — the talk's TokenIterator:
//! "`open()`: prepare execution; `next()`: return next token; `skip()`:
//! skip all tokens until first token of sibling; `close()`: release
//! resources. Conceptually the same as in RDBMS — pull-based — but more
//! fine-grained."
//!
//! In Rust, `open`/`close` map onto construction and drop; `next` and
//! `skip` are the trait methods. Implementations must also resolve pooled
//! ids, because consumers downstream of a pipe only hold the iterator.

use crate::pool::StringPool;
use crate::token::{StrId, Token};
use std::sync::Arc;
use xqr_xdm::{NameId, QName, Result};

/// A pull source of data-model tokens.
pub trait TokenIterator {
    /// Return the next token, or `None` at end of stream.
    fn next_token(&mut self) -> Result<Option<Token>>;

    /// If the most recently returned token opened a subtree, advance past
    /// the matching close and return how many tokens were skipped.
    /// Otherwise a no-op returning 0.
    fn skip_subtree(&mut self) -> Result<usize>;

    /// Resolve a pooled string id from this stream.
    fn pooled_str(&self, id: StrId) -> Arc<str>;

    /// Resolve an interned name id.
    fn name(&self, id: NameId) -> QName;

    /// The pool this source's string ids index, when one pool covers the
    /// whole stream and is never recycled. A document built from the
    /// source then keeps the ids as they are and adopts the pool instead
    /// of interning every string again. `None` (the default) makes such
    /// a consumer intern each resolved string into a pool of its own.
    fn pool_mut(&mut self) -> Option<&mut StringPool> {
        None
    }
}

/// Id resolution alone — the read-only half of [`TokenIterator`].
///
/// Push-mode consumers (the streaming automaton's resumable run, fed by
/// chunked publishes and stream queries) receive tokens rather than
/// pulling them, so they can't be driven through `next_token`; they
/// still need to resolve pooled ids against whatever source produced
/// the tokens. Every `TokenIterator` is a `TokenResolve` via the blanket
/// impl below, and push sources (e.g. `PushTokenizer`) implement it
/// directly.
pub trait TokenResolve {
    /// Resolve a pooled string id from this source.
    fn pooled_str(&self, id: StrId) -> Arc<str>;

    /// Resolve an interned name id.
    fn name(&self, id: NameId) -> QName;

    /// See [`TokenIterator::pool_mut`].
    fn pool_mut(&mut self) -> Option<&mut StringPool> {
        None
    }
}

impl<T: TokenIterator + ?Sized> TokenResolve for T {
    fn pooled_str(&self, id: StrId) -> Arc<str> {
        TokenIterator::pooled_str(self, id)
    }

    fn name(&self, id: NameId) -> QName {
        TokenIterator::name(self, id)
    }

    fn pool_mut(&mut self) -> Option<&mut StringPool> {
        TokenIterator::pool_mut(self)
    }
}

/// Blanket impl so `Box<dyn TokenIterator>` composes.
impl<T: TokenIterator + ?Sized> TokenIterator for Box<T> {
    fn next_token(&mut self) -> Result<Option<Token>> {
        (**self).next_token()
    }

    fn skip_subtree(&mut self) -> Result<usize> {
        (**self).skip_subtree()
    }

    fn pooled_str(&self, id: StrId) -> Arc<str> {
        (**self).pooled_str(id)
    }

    fn name(&self, id: NameId) -> QName {
        (**self).name(id)
    }

    fn pool_mut(&mut self) -> Option<&mut StringPool> {
        (**self).pool_mut()
    }
}

/// Drain an iterator, counting tokens (test/bench helper).
pub fn drain(it: &mut dyn TokenIterator) -> Result<usize> {
    let mut n = 0;
    while it.next_token()?.is_some() {
        n += 1;
    }
    Ok(n)
}
