//! Qualified names and the interning pool shared by every layer of the engine.
//!
//! The talk's TokenStream substrate relies on dictionary compression of
//! QNames ("pooling: store strings only once — works for all QNames"); the
//! [`NamePool`] is that dictionary. Every parsed or constructed name is
//! interned once and referred to by a dense [`NameId`] thereafter, so
//! name-test comparisons in path steps and structural joins are integer
//! compares, never string compares.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// An expanded qualified name: optional namespace URI, optional prefix and
/// a local part. Per the XPath data model, equality ignores the prefix.
#[derive(Debug, Clone)]
pub struct QName {
    ns: Option<Arc<str>>,
    prefix: Option<Arc<str>>,
    local: Arc<str>,
}

impl QName {
    /// A name with no namespace, e.g. `book`.
    pub fn local(local: &str) -> Self {
        QName {
            ns: None,
            prefix: None,
            local: Arc::from(local),
        }
    }

    /// A name in a namespace with no prefix (default-namespace binding).
    pub fn ns(ns: &str, local: &str) -> Self {
        QName {
            ns: Some(Arc::from(ns)),
            prefix: None,
            local: Arc::from(local),
        }
    }

    /// A fully spelled-out name, e.g. `amz:ref` in `www.amazon.com`.
    pub fn prefixed(ns: &str, prefix: &str, local: &str) -> Self {
        QName {
            ns: Some(Arc::from(ns)),
            prefix: Some(Arc::from(prefix)),
            local: Arc::from(local),
        }
    }

    pub fn namespace(&self) -> Option<&str> {
        self.ns.as_deref()
    }

    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    pub fn local_name(&self) -> &str {
        &self.local
    }

    /// The lexical form used for serialization: `prefix:local` when a
    /// prefix is known, otherwise just the local part.
    pub fn lexical(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{}:{}", p, self.local),
            None => self.local.to_string(),
        }
    }

    /// Clark notation `{uri}local`, convenient for diagnostics.
    pub fn clark(&self) -> String {
        match &self.ns {
            Some(ns) => format!("{{{}}}{}", ns, self.local),
            None => self.local.to_string(),
        }
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        self.local == other.local && self.ns.as_deref() == other.ns.as_deref()
    }
}
impl Eq for QName {}

impl std::hash::Hash for QName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ns.as_deref().hash(state);
        self.local.hash(state);
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ns.as_deref(), &*self.local).cmp(&(other.ns.as_deref(), &*other.local))
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.lexical())
    }
}

/// Dense identifier of an interned name. `NameId(0)` is reserved for the
/// anonymous/absent name so token encodings can use 0 as "no name".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    pub const NONE: NameId = NameId(0);

    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

#[derive(Default)]
struct PoolInner {
    names: Vec<QName>,
    index: HashMap<QName, NameId>,
}

/// Thread-safe interning pool mapping [`QName`]s to dense [`NameId`]s.
///
/// One pool is shared by a whole engine instance; documents parsed under
/// the same pool can be joined by integer name comparison.
pub struct NamePool {
    inner: RwLock<PoolInner>,
}

impl NamePool {
    pub fn new() -> Self {
        let mut inner = PoolInner::default();
        // Slot 0: the absent name.
        let absent = QName::local("");
        inner.index.insert(absent.clone(), NameId::NONE);
        inner.names.push(absent);
        NamePool {
            inner: RwLock::new(inner),
        }
    }

    // The pool is append-only and its write section cannot panic, so a
    // poisoned lock still guards consistent data: recover it.
    fn read(&self) -> RwLockReadGuard<'_, PoolInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Intern a name, returning its dense id (idempotent).
    pub fn intern(&self, name: &QName) -> NameId {
        {
            let inner = self.read();
            if let Some(id) = inner.index.get(name) {
                return *id;
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(id) = inner.index.get(name) {
            return *id;
        }
        let id = NameId(inner.names.len() as u32);
        inner.names.push(name.clone());
        inner.index.insert(name.clone(), id);
        id
    }

    /// Shorthand for interning a no-namespace name.
    pub fn intern_local(&self, local: &str) -> NameId {
        self.intern(&QName::local(local))
    }

    /// Resolve an id back to the full name. Panics on an id from a
    /// different pool, which is a logic error by construction.
    pub fn resolve(&self, id: NameId) -> QName {
        self.read().names[id.0 as usize].clone()
    }

    /// Number of distinct names interned so far (incl. the absent name).
    pub fn len(&self) -> usize {
        self.read().names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Look up without interning.
    pub fn get(&self, name: &QName) -> Option<NameId> {
        self.read().index.get(name).copied()
    }
}

impl Default for NamePool {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for NamePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NamePool({} names)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_prefix() {
        let a = QName::prefixed("urn:x", "a", "name");
        let b = QName::prefixed("urn:x", "b", "name");
        assert_eq!(a, b);
        let c = QName::ns("urn:x", "name");
        assert_eq!(a, c);
    }

    #[test]
    fn equality_distinguishes_namespace() {
        let a = QName::ns("urn:x", "name");
        let b = QName::ns("urn:y", "name");
        assert_ne!(a, b);
        assert_ne!(QName::local("name"), a);
    }

    #[test]
    fn intern_is_idempotent() {
        let pool = NamePool::new();
        let id1 = pool.intern(&QName::local("book"));
        let id2 = pool.intern(&QName::local("book"));
        assert_eq!(id1, id2);
        assert_eq!(pool.resolve(id1).local_name(), "book");
    }

    #[test]
    fn intern_distinguishes_namespaces() {
        let pool = NamePool::new();
        let id1 = pool.intern(&QName::local("book"));
        let id2 = pool.intern(&QName::ns("urn:lib", "book"));
        assert_ne!(id1, id2);
    }

    #[test]
    fn prefix_does_not_split_pool_entries() {
        let pool = NamePool::new();
        let id1 = pool.intern(&QName::prefixed("urn:lib", "a", "book"));
        let id2 = pool.intern(&QName::prefixed("urn:lib", "b", "book"));
        assert_eq!(id1, id2);
    }

    #[test]
    fn none_id_is_reserved() {
        let pool = NamePool::new();
        assert_eq!(pool.len(), 1);
        let id = pool.intern(&QName::local("x"));
        assert!(!id.is_none());
        assert!(NameId::NONE.is_none());
    }

    #[test]
    fn clark_and_lexical_forms() {
        let q = QName::prefixed("urn:lib", "l", "book");
        assert_eq!(q.clark(), "{urn:lib}book");
        assert_eq!(q.lexical(), "l:book");
        assert_eq!(QName::local("book").clark(), "book");
    }

    #[test]
    fn get_does_not_intern() {
        let pool = NamePool::new();
        assert!(pool.get(&QName::local("zzz")).is_none());
        pool.intern_local("zzz");
        assert!(pool.get(&QName::local("zzz")).is_some());
    }
}
