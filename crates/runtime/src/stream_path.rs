//! Token-level streaming evaluation of simple path queries — the
//! XQRL/BEA headline: "start computation BEFORE the entire data input is
//! received; output parts of the result BEFORE the entire input is read;
//! minimize the memory footprint".
//!
//! When the compiled query is a forward path of child/descendant name
//! steps (the message-broker use case: "simple path expressions, single
//! input message"), the engine bypasses the store entirely and runs the
//! path as a [`StreamPattern`] over a token stream, emitting matched
//! subtrees as serialized XML while the document is still being read —
//! and `skip()`ping whole subtrees that no pattern state can match.
//!
//! # One matcher
//!
//! Every streaming consumer runs the same matcher: a
//! [`CombinedAutomaton`] compiled from one pattern (a single query,
//! [`run_pattern`]) or from many (the standing-subscription set, one
//! shared pass per published document, [`run_document`]).
//!
//! The automaton is a trie over `(descendant, QName)` steps: patterns
//! sharing a step prefix share the trie path (YFilter-style), so
//! matching cost scales with the *distinct structure* of the pattern
//! set, not its cardinality — 256 subscriptions over common
//! `//a/b/...` stems cost barely more than one.
//!
//! It runs as an NFA state-set over the token stream. Each open element
//! carries a set of states; a state is a trie node in one of two modes:
//!
//! - **full** (`node << 1`): the node's path just matched ending at this
//!   element. Child and descendant out-edges both apply below it.
//! - **residual** (`node << 1 | 1`): the node matched at some ancestor
//!   and survives only because it has descendant out-edges; child edges
//!   do NOT apply (they are anchored to the element that completed the
//!   prefix). This distinction is what makes mixed child/descendant
//!   fan-out correct — a plain self-loop over the trie node would let
//!   child edges fire at arbitrary depth.
//!
//! A pattern accepts when its trie leaf is entered in full mode. The run
//! emits **every** match, nested ones included, in document order —
//! exactly the node set materialized evaluation returns, so streaming
//! and materialized results agree byte-for-byte for every extracted
//! pattern.
//!
//! When the state set of an element comes up empty and no capture is in
//! flight, the whole subtree is `skip()`ed — the paper's pruning,
//! shared across every pattern at once.

use xqr_compiler::Core;
use xqr_tokenstream::{Token, TokenIterator, TokenResolve};
use xqr_xdm::{Error, QName, Result};
use xqr_xmlparse::{Attribute, NamespaceDecl, WriterOptions, XmlEvent, XmlWriter};
use xqr_xqparser::ast::{AxisName, NodeTest};

/// One step of a streamable pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStep {
    /// True = descendant axis, false = child.
    pub descendant: bool,
    /// Element name to match (`None` = any element).
    pub name: Option<QName>,
}

/// A streamable pattern: a chain of steps from the document root.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPattern {
    pub steps: Vec<StreamStep>,
}

impl StreamPattern {
    /// Longest recognizable pattern. A descendant step keeps a residual
    /// state alive at every depth below it, so one pattern contributes
    /// up to one state per step to each open element's state set; the
    /// cap keeps those sets small. Longer paths silently stay on the
    /// navigational plan, which answers them correctly without
    /// streaming.
    pub const MAX_STEPS: usize = 31;

    /// Try to recognize the compiled core as a streamable path rooted at
    /// the document: nests of `Ddo(PathMap(..))` over `Root` with
    /// child/descendant(-or-self) element name steps and no predicates.
    pub fn extract(core: &Core) -> Option<StreamPattern> {
        let mut steps = Vec::new();
        let mut pending_dos = false;
        if !collect(core, &mut steps, &mut pending_dos) {
            return None;
        }
        // A trailing descendant-or-self::node() pseudo-step never merged
        // into a following named step: the streaming encoding would match
        // descendant *elements* only, while materialized evaluation also
        // returns the context node itself and non-element nodes.
        if pending_dos {
            return None;
        }
        if steps.is_empty() || steps.len() > Self::MAX_STEPS {
            return None;
        }
        Some(StreamPattern { steps })
    }

    /// [`StreamPattern::extract`] for callers that have already decided
    /// the plan is streamable: a non-streamable core is an internal
    /// error (`err:XQRL0000`), never a panic.
    pub fn extract_required(core: &Core) -> Result<StreamPattern> {
        StreamPattern::extract(core)
            .ok_or_else(|| Error::internal(format!("not streamable: {core:?}")))
    }
}

fn collect(core: &Core, steps: &mut Vec<StreamStep>, pending_dos: &mut bool) -> bool {
    match core {
        Core::Root => true,
        Core::Ddo(inner) => collect(inner, steps, pending_dos),
        // An index-backed plan streams via its navigational fallback: the
        // streaming path never consults the store (or its indexes) at all.
        Core::IndexScan { fallback, .. } => collect(fallback, steps, pending_dos),
        Core::PathMap { input, step } => {
            if !collect(input, steps, pending_dos) {
                return false;
            }
            match &**step {
                Core::Step { axis, test } => {
                    let descendant = match axis {
                        AxisName::Child => false,
                        AxisName::Descendant => true,
                        AxisName::DescendantOrSelf => {
                            // dos::node() as an intermediate (the `//`
                            // expansion): mark the *next* step descendant.
                            // The flag — not a pushed pseudo-step — so a
                            // genuine `descendant::*` step can never be
                            // mistaken for one and wrongly merged.
                            if *pending_dos {
                                return false;
                            }
                            *pending_dos = true;
                            return matches!(test, NodeTest::AnyKind);
                        }
                        _ => return false,
                    };
                    let name = match test {
                        NodeTest::Name(q) => Some(q.clone()),
                        NodeTest::AnyName => None,
                        _ => return false,
                    };
                    if *pending_dos {
                        *pending_dos = false;
                        if descendant {
                            // dos::node()/descendant::x has no single-step
                            // streaming encoding: the self component of
                            // dos makes x reachable one level shallower
                            // than `descendant, then descendant` allows.
                            return false;
                        }
                        steps.push(StreamStep {
                            descendant: true,
                            name,
                        });
                    } else {
                        steps.push(StreamStep { descendant, name });
                    }
                    true
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Instrumentation the streaming experiments read.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamStats {
    pub tokens_seen: u64,
    pub tokens_skipped: u64,
    pub matches: u64,
}

/// Index of a pattern in the slice the automaton was built from.
pub type PatternId = u32;

#[derive(Debug, Default)]
struct Node {
    /// Out-edges taken only from an element that completed this node's
    /// path (full mode). `None` = wildcard.
    child_edges: Vec<(Option<QName>, u32)>,
    /// Out-edges applicable at any depth below a completion.
    desc_edges: Vec<(Option<QName>, u32)>,
    /// Patterns whose full path ends here.
    accepts: Vec<PatternId>,
}

/// The shared-prefix trie/NFA over a set of streamable patterns (see
/// the module docs).
#[derive(Debug)]
pub struct CombinedAutomaton {
    nodes: Vec<Node>,
    patterns: usize,
}

impl CombinedAutomaton {
    /// Build the trie; patterns keep their slice index as [`PatternId`].
    pub fn build(patterns: &[StreamPattern]) -> CombinedAutomaton {
        let mut nodes = vec![Node::default()];
        for (pid, pat) in patterns.iter().enumerate() {
            let mut cur = 0usize;
            for step in &pat.steps {
                let found = {
                    let list = if step.descendant {
                        &nodes[cur].desc_edges
                    } else {
                        &nodes[cur].child_edges
                    };
                    list.iter().find(|(n, _)| *n == step.name).map(|&(_, t)| t)
                };
                cur = match found {
                    Some(t) => t as usize,
                    None => {
                        let t = nodes.len();
                        nodes.push(Node::default());
                        let list = if step.descendant {
                            &mut nodes[cur].desc_edges
                        } else {
                            &mut nodes[cur].child_edges
                        };
                        list.push((step.name.clone(), t as u32));
                        t
                    }
                };
            }
            nodes[cur].accepts.push(pid as PatternId);
        }
        CombinedAutomaton {
            nodes,
            patterns: patterns.len(),
        }
    }

    /// Trie size — the quantity matching cost actually scales with.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn pattern_count(&self) -> usize {
        self.patterns
    }

    /// One NFA step: from the parent element's state set and a child
    /// element's name, compute the child's state set and the patterns
    /// accepting at it. `out`/`accepted` are scratch, cleared here.
    fn advance(
        &self,
        parent: &[u32],
        name: &QName,
        out: &mut Vec<u32>,
        accepted: &mut Vec<PatternId>,
    ) {
        out.clear();
        accepted.clear();
        for &s in parent {
            let node = &self.nodes[(s >> 1) as usize];
            let residual = s & 1 == 1;
            if !residual {
                for (n, t) in &node.child_edges {
                    if n.as_ref().is_none_or(|q| q == name) {
                        out.push(t << 1);
                    }
                }
            }
            for (n, t) in &node.desc_edges {
                if n.as_ref().is_none_or(|q| q == name) {
                    out.push(t << 1);
                }
            }
            if !node.desc_edges.is_empty() {
                // Survive below in residual mode: descendant edges stay
                // live at any depth, child edges are spent.
                out.push(s | 1);
            }
        }
        // Sets of one (the common case on a single-pattern run) are
        // already canonical.
        if out.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
        for &s in out.iter() {
            if s & 1 == 0 {
                accepted.extend(self.nodes[(s >> 1) as usize].accepts.iter().copied());
            }
        }
        if accepted.len() > 1 {
            accepted.sort_unstable();
            accepted.dedup();
        }
    }
}

/// Per-pattern results of one document pass: the serialized matches in
/// document order, or the error (budget trip, typically) that stopped
/// collection for that pattern alone.
#[derive(Debug)]
pub struct CombinedOutcome {
    pub per_pattern: Vec<Result<Vec<String>>>,
    pub stats: StreamStats,
}

/// An in-flight capture: one matched element being serialized for one or
/// more accepting patterns.
struct Capture {
    /// Open-element depth of the captured element (captures form a
    /// stack: strictly increasing depth).
    depth: usize,
    writer: XmlWriter,
    /// `(pattern, reserved match slot)` recipients. The slot was
    /// reserved at capture open, so nested matches land in document
    /// order of their start tags even though inner captures close first.
    recipients: Vec<(PatternId, usize)>,
}

/// What the driver should do after a pushed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushAction {
    /// Keep feeding tokens.
    Continue,
    /// The element just opened cannot contribute to any pattern:
    /// a *pull* driver should `skip_subtree()` on its iterator and
    /// report the count via [`CombinedRun::note_skipped`]. A *push*
    /// driver (tokens arrive whether it wants them or not) may ignore
    /// the hint — the run absorbs the dead subtree internally, at one
    /// depth-counter tick per token.
    SkipSubtree,
}

fn flush_pending(
    pending: &mut Option<(QName, Vec<Attribute>, Vec<NamespaceDecl>)>,
    captures: &mut [Capture],
) -> Result<()> {
    if let Some((name, attributes, namespaces)) = pending.take() {
        for c in captures.iter_mut() {
            c.writer.write(&XmlEvent::StartElement {
                name: name.clone(),
                attributes: attributes.clone(),
                namespaces: namespaces.clone(),
                empty: false,
            })?;
        }
    }
    Ok(())
}

/// The resumable state of one document pass, liftable across chunk
/// boundaries.
///
/// A pull driver (whole document in hand: [`run_document`],
/// [`run_pattern`]) loops `next_token` → [`push`] and honours
/// [`PushAction::SkipSubtree`] with a real `skip_subtree`. A push driver
/// (chunked ingestion: tokens appear as network bytes arrive) calls
/// [`push`] for whatever is available, in any number of installments,
/// and [`finish`]es when the producer signals end of document. Both
/// drivers produce identical [`CombinedOutcome`]s — results, errors, and
/// stats — which is what makes a chunked publish or stream query
/// byte-equivalent to its whole-document counterpart.
///
/// The automaton is passed to [`push`] rather than stored so sessions
/// can own the run alongside the `Arc` of the plan that holds the
/// automaton; callers must pass the same automaton every time.
///
/// [`push`]: CombinedRun::push
/// [`finish`]: CombinedRun::finish
pub struct CombinedRun {
    per_pattern: Vec<Result<Vec<String>>>,
    // Bytes of the finished matches `per_pattern` holds (one copy per
    // recipient), for memory accounting.
    collected: usize,
    stats: StreamStats,
    // Flat state-set arena: `states[bounds[d]..bounds[d+1]]` is the set
    // for open-element depth d+1; the trailing segment is the top.
    states: Vec<u32>,
    bounds: Vec<u32>,
    scratch: Vec<u32>,
    accepted: Vec<PatternId>,
    captures: Vec<Capture>,
    // Start-tag buffer: attributes/namespace tokens arrive after
    // StartElement; the tag is written to capture writers on the first
    // non-attribute token.
    pending: Option<(QName, Vec<Attribute>, Vec<NamespaceDecl>)>,
    // Nonzero while inside a dead subtree a push driver couldn't skip:
    // open-element depth below the dead element's parent.
    skip_depth: usize,
}

impl CombinedRun {
    pub fn new(automaton: &CombinedAutomaton) -> CombinedRun {
        CombinedRun {
            per_pattern: (0..automaton.pattern_count())
                .map(|_| Ok(Vec::new()))
                .collect(),
            collected: 0,
            stats: StreamStats::default(),
            states: vec![0], // trie root, full mode
            bounds: Vec::new(),
            scratch: Vec::new(),
            accepted: Vec::new(),
            captures: Vec::new(),
            pending: None,
            skip_depth: 0,
        }
    }

    /// Feed one token. `src` resolves its pooled ids (the iterator or
    /// tokenizer that produced it); `charge(pattern, bytes)` is invoked
    /// once per delivered match for per-pattern output budgets — an
    /// error there stops collection for that pattern only, while the
    /// shared pass and every other pattern continue. A returned error
    /// means the pass itself failed (capture serialization).
    pub fn push<R, F>(
        &mut self,
        automaton: &CombinedAutomaton,
        tok: &Token,
        src: &R,
        charge: &mut F,
    ) -> Result<PushAction>
    where
        R: TokenResolve + ?Sized,
        F: FnMut(PatternId, u64) -> Result<()>,
    {
        if self.skip_depth > 0 {
            // Inside a dead subtree the push driver couldn't skip:
            // count depth, touch nothing else. Matches the pull path's
            // accounting exactly — skip_subtree counts every consumed
            // token including the matching close.
            self.stats.tokens_skipped += 1;
            if tok.opens() {
                self.skip_depth += 1;
            } else if tok.closes() {
                self.skip_depth -= 1;
            }
            return Ok(PushAction::Continue);
        }
        self.stats.tokens_seen += 1;
        match tok {
            Token::StartDocument | Token::EndDocument => {}
            Token::StartElement(nid) => {
                let name = src.name(*nid);
                flush_pending(&mut self.pending, &mut self.captures)?;
                let start = self.bounds.last().copied().unwrap_or(0) as usize;
                automaton.advance(
                    &self.states[start..],
                    &name,
                    &mut self.scratch,
                    &mut self.accepted,
                );
                self.bounds.push(self.states.len() as u32);
                self.states.extend_from_slice(&self.scratch);
                let depth = self.bounds.len();
                // Open at most one capture per element; all accepting
                // patterns still collecting share its writer.
                let mut recipients: Vec<(PatternId, usize)> = Vec::new();
                for &pid in &self.accepted {
                    if let Ok(slots) = &mut self.per_pattern[pid as usize] {
                        slots.push(String::new()); // reserve in doc order
                        recipients.push((pid, slots.len() - 1));
                    }
                }
                if !recipients.is_empty() {
                    self.captures.push(Capture {
                        depth,
                        writer: XmlWriter::new(WriterOptions::default()),
                        recipients,
                    });
                }
                if !self.captures.is_empty() {
                    self.pending = Some((name, Vec::new(), Vec::new()));
                } else if self.scratch.is_empty() {
                    // No live state and nothing being serialized: no
                    // pattern can match anything below — skip the whole
                    // subtree, once, for all of them.
                    self.states
                        .truncate(self.bounds.pop().expect("pushed above") as usize);
                    self.skip_depth = 1;
                    return Ok(PushAction::SkipSubtree);
                }
            }
            Token::Attribute(nid, vid) => {
                if let Some((_, attrs, _)) = self.pending.as_mut() {
                    attrs.push(Attribute {
                        name: src.name(*nid),
                        value: src.pooled_str(*vid),
                    });
                }
            }
            Token::NamespaceDecl(pid, uid) => {
                if let Some((_, _, decls)) = self.pending.as_mut() {
                    let prefix = src.pooled_str(*pid);
                    decls.push(NamespaceDecl {
                        prefix: if prefix.is_empty() {
                            None
                        } else {
                            Some(prefix)
                        },
                        uri: src.pooled_str(*uid),
                    });
                }
            }
            Token::Text(sid) => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    let text = src.pooled_str(*sid);
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::Text(text.clone()))?;
                    }
                }
            }
            Token::Comment(sid) => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    let text = src.pooled_str(*sid);
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::Comment(text.clone()))?;
                    }
                }
            }
            Token::ProcessingInstruction(nid, did) => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    let target: std::sync::Arc<str> =
                        std::sync::Arc::from(src.name(*nid).local_name());
                    let data = src.pooled_str(*did);
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::ProcessingInstruction {
                            target: target.clone(),
                            data: data.clone(),
                        })?;
                    }
                }
            }
            Token::EndElement => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::EndElement {
                            name: QName::local(""),
                        })?;
                    }
                }
                let depth = self.bounds.len();
                if let Some(start) = self.bounds.pop() {
                    self.states.truncate(start as usize);
                }
                if self.captures.last().is_some_and(|c| c.depth == depth) {
                    let cap = self.captures.pop().expect("checked above");
                    let out = cap.writer.into_string();
                    for (pid, slot) in cap.recipients {
                        // A pattern that already failed (budget tripped
                        // on an earlier, possibly nested, match) stays
                        // failed; skip it.
                        if let Ok(slots) = &mut self.per_pattern[pid as usize] {
                            match charge(pid, out.len() as u64) {
                                Ok(()) => {
                                    self.stats.matches += 1;
                                    self.collected += out.len();
                                    slots[slot] = out.clone();
                                }
                                Err(e) => {
                                    self.collected -= slots.iter().map(String::len).sum::<usize>();
                                    self.per_pattern[pid as usize] = Err(e);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(PushAction::Continue)
    }

    /// A pull driver skipped the dead subtree itself (in response to
    /// [`PushAction::SkipSubtree`]): record the count and resume normal
    /// matching at the next token.
    pub fn note_skipped(&mut self, tokens: usize) {
        self.stats.tokens_skipped += tokens as u64;
        self.skip_depth = 0;
    }

    /// Hand over `pid`'s matches completed so far, in document order,
    /// and keep collecting the ones after them — how a single-query
    /// driver emits results before the document ends. A match's slot is
    /// final only once no capture is open (an open capture still owns
    /// reserved slots), so this hands over nothing while one is. A
    /// pattern that stopped on an error returns that error.
    pub fn take_completed(&mut self, pid: PatternId) -> Result<Vec<String>> {
        match &mut self.per_pattern[pid as usize] {
            Err(e) => Err(e.clone()),
            Ok(_) if !self.captures.is_empty() => Ok(Vec::new()),
            Ok(slots) => {
                let taken = std::mem::take(slots);
                self.collected -= taken.iter().map(String::len).sum::<usize>();
                Ok(taken)
            }
        }
    }

    /// Bytes of output this run holds: finished matches not yet handed
    /// over by [`CombinedRun::take_completed`], plus the text serialized
    /// so far into open captures.
    pub fn held_bytes(&self) -> usize {
        self.collected + self.captures.iter().map(|c| c.writer.len()).sum::<usize>()
    }

    /// Live instrumentation — readable mid-stream (matches so far,
    /// tokens seen/skipped), before [`CombinedRun::finish`].
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// End of the token stream: yield the per-pattern outcomes.
    pub fn finish(self) -> CombinedOutcome {
        CombinedOutcome {
            per_pattern: self.per_pattern,
            stats: self.stats,
        }
    }
}

/// Run one whole document through the automaton — the pull driver over
/// [`CombinedRun`], honouring skip hints with the iterator's own
/// `skip_subtree` (O(1) on materialized streams). A top-level error
/// means the document itself could not be read (parse error, token
/// budget): no per-pattern results exist in that case.
pub fn run_document<I, F>(
    automaton: &CombinedAutomaton,
    it: &mut I,
    mut charge: F,
) -> Result<CombinedOutcome>
where
    I: TokenIterator,
    F: FnMut(PatternId, u64) -> Result<()>,
{
    let mut run = CombinedRun::new(automaton);
    while let Some(tok) = it.next_token()? {
        match run.push(automaton, &tok, it, &mut charge)? {
            PushAction::Continue => {}
            PushAction::SkipSubtree => {
                let skipped = it.skip_subtree()?;
                run.note_skipped(skipped);
            }
        }
    }
    Ok(run.finish())
}

/// Run one pattern over a whole document — the single-query pull
/// driver: a one-pattern [`CombinedAutomaton`] run exactly as
/// [`run_document`] runs many. Each match reaches `on_match` in document
/// order as soon as no enclosing match is still open: at its own end tag
/// when matches cannot nest, when the outermost enclosing match closes
/// when they do. `charge` prices each match (the output budget); its
/// first error stops the run, as does the token source's.
pub fn run_pattern<I, C, F>(
    pattern: &StreamPattern,
    it: &mut I,
    mut charge: C,
    mut on_match: F,
) -> Result<StreamStats>
where
    I: TokenIterator,
    C: FnMut(u64) -> Result<()>,
    F: FnMut(String),
{
    let automaton = CombinedAutomaton::build(std::slice::from_ref(pattern));
    let mut run = CombinedRun::new(&automaton);
    let mut charge = |_: PatternId, bytes: u64| charge(bytes);
    while let Some(tok) = it.next_token()? {
        if run.push(&automaton, &tok, it, &mut charge)? == PushAction::SkipSubtree {
            let skipped = it.skip_subtree()?;
            run.note_skipped(skipped);
        }
        if tok == Token::EndElement {
            run.take_completed(0)?.into_iter().for_each(&mut on_match);
        }
    }
    Ok(run.finish().stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xqr_compiler::{compile, CompileOptions};
    use xqr_tokenstream::{ParserTokenIterator, PushTokenizer};
    use xqr_xdm::{ErrorCode, Limits, NamePool, QueryGuard};

    fn pattern(query: &str) -> StreamPattern {
        let q = compile(query, &CompileOptions::default()).unwrap();
        StreamPattern::extract_required(&q.module.body).unwrap()
    }

    /// One pattern through the single-query driver.
    fn run(query: &str, xml: &str) -> (Vec<String>, StreamStats) {
        let mut it = ParserTokenIterator::new(xml, Arc::new(NamePool::new()));
        let mut out = Vec::new();
        let stats = run_pattern(&pattern(query), &mut it, |_| Ok(()), |m| out.push(m)).unwrap();
        (out, stats)
    }

    /// Many patterns through one shared pass.
    fn run_all(patterns: &[&str], xml: &str) -> (Vec<Result<Vec<String>>>, StreamStats) {
        let pats: Vec<StreamPattern> = patterns.iter().map(|q| pattern(q)).collect();
        let a = CombinedAutomaton::build(&pats);
        let mut it = ParserTokenIterator::new(xml, Arc::new(NamePool::new()));
        let out = run_document(&a, &mut it, |_, _| Ok(())).expect("document reads");
        (out.per_pattern, out.stats)
    }

    fn oks(r: &[Result<Vec<String>>]) -> Vec<Vec<String>> {
        r.iter().map(|x| x.as_ref().unwrap().clone()).collect()
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_recognizes_simple_paths() {
        assert_eq!(pattern("/a/b").steps.len(), 2);
        let p = pattern("//item");
        assert_eq!(p.steps.len(), 1);
        assert!(p.steps[0].descendant);
        let p = pattern("/bib//book/title");
        assert_eq!(p.steps.len(), 3);
        assert!(!p.steps[0].descendant);
        assert!(p.steps[1].descendant);
        assert!(!p.steps[2].descendant);
    }

    #[test]
    fn extract_rejects_non_streamable() {
        let q = compile("1 + 1", &CompileOptions::default()).unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
        let q = compile("//book[3]", &CompileOptions::default()).unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
    }

    #[test]
    fn extract_required_reports_internal_error() {
        let q = compile("1 + 1", &CompileOptions::default()).unwrap();
        let e = StreamPattern::extract_required(&q.module.body).unwrap_err();
        assert_eq!(e.code, ErrorCode::Internal);
        assert!(e.to_string().contains("not streamable"));
    }

    #[test]
    fn step_cap_rejects_long_paths() {
        // One past MAX_STEPS must fall off the streaming plan (the
        // navigational path still answers it — pinned in
        // tests/regressions.rs at the workspace root).
        let at_cap: String = (0..StreamPattern::MAX_STEPS)
            .map(|i| format!("/e{i}"))
            .collect();
        assert_eq!(pattern(&at_cap).steps.len(), StreamPattern::MAX_STEPS);
        let over: String = (0..StreamPattern::MAX_STEPS + 1)
            .map(|i| format!("/e{i}"))
            .collect();
        let q = compile(&over, &CompileOptions::default()).unwrap();
        assert!(
            StreamPattern::extract(&q.module.body).is_none(),
            "a {}-step path must not extract",
            StreamPattern::MAX_STEPS + 1
        );
    }

    #[test]
    fn dos_node_pseudo_step_merges_into_next_child_step() {
        // `/a/descendant-or-self::node()/b` is exactly `a//b`: the
        // pseudo-step must merge into one descendant step, not linger.
        let q = compile(
            "/a/descendant-or-self::node()/b",
            &CompileOptions::default(),
        )
        .unwrap();
        let p = StreamPattern::extract(&q.module.body).expect("streamable");
        assert_eq!(p.steps.len(), 2);
        assert!(!p.steps[0].descendant);
        assert!(p.steps[1].descendant);
        assert_eq!(p.steps[1].name.as_ref().unwrap().local_name(), "b");
    }

    #[test]
    fn trailing_dos_node_is_not_streamable() {
        // With no following step to merge into, dos::node() has no
        // element-step encoding (materialized evaluation returns the
        // context node itself plus text/comment descendants).
        let q = compile("/a/descendant-or-self::node()", &CompileOptions::default()).unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
        // Likewise dos::node() followed by an explicit descendant step:
        // the self component makes the target reachable one level
        // shallower than two chained descendant steps allow.
        let q = compile(
            "/a/descendant-or-self::node()/descendant::b",
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(StreamPattern::extract(&q.module.body).is_none());
    }

    #[test]
    fn explicit_descendant_wildcard_does_not_merge() {
        // `/a/descendant::*/b` requires b at depth >= 3: an element
        // strictly below a, then a b child. Merging it into `a//b`
        // would wrongly match `<a><b/></a>`.
        let p = pattern("/a/descendant::*/b");
        assert_eq!(p.steps.len(), 3);
        assert!(p.steps[1].descendant && p.steps[1].name.is_none());
        assert!(!p.steps[2].descendant);
        let (out, _) = run("/a/descendant::*/b", "<a><b>shallow</b></a>");
        assert_eq!(out, Vec::<String>::new());
        let (out, _) = run("/a/descendant::*/b", "<a><z><b>deep</b></z></a>");
        assert_eq!(out, vec!["<b>deep</b>"]);
    }

    #[test]
    fn child_path_matches() {
        let (out, _) = run("/a/b", "<a><b>1</b><c><b>no</b></c><b>2</b></a>");
        assert_eq!(out, vec!["<b>1</b>", "<b>2</b>"]);
    }

    #[test]
    fn descendant_path_matches() {
        let (out, _) = run("//b", "<a><b>1</b><c><b x=\"y\">2</b></c></a>");
        assert_eq!(out, vec!["<b>1</b>", "<b x=\"y\">2</b>"]);
    }

    #[test]
    fn mixed_path() {
        let xml = "<bib><group><book><title>T1</title></book></group><book><title>T2</title></book></bib>";
        let (out, _) = run("/bib//book/title", xml);
        assert_eq!(out, vec!["<title>T1</title>", "<title>T2</title>"]);
    }

    #[test]
    fn nested_matches_are_all_emitted_in_document_order() {
        // Materialized evaluation of //b returns BOTH b elements, outer
        // first; so does the stream, for one pattern and for many.
        let xml = "<a><b>outer<b>inner</b></b></a>";
        let want = strings(&["<b>outer<b>inner</b></b>", "<b>inner</b>"]);
        assert_eq!(run("//b", xml).0, want);
        assert_eq!(oks(&run_all(&["//b"], xml).0), vec![want]);
        let (out, stats) = run("//b", "<a><b><b/></b><b/></a>");
        assert_eq!(out.len(), 3);
        assert_eq!(stats.matches, 3);
    }

    #[test]
    fn recursive_descendant_chains() {
        // Every a with an a ancestor: the two inner ones.
        let (out, _) = run("//a//a", "<a><a><a/></a></a>");
        assert_eq!(out, vec!["<a><a/></a>", "<a/>"]);
    }

    #[test]
    fn wildcard_steps_match_any_element() {
        let (out, _) = run("/a/*", "<a><b>1</b><c>2</c></a>");
        assert_eq!(out, vec!["<b>1</b>", "<c>2</c>"]);
        let (out, _) = run("//*", "<a><b/><c><d/></c></a>");
        assert_eq!(
            out,
            vec!["<a><b/><c><d/></c></a>", "<b/>", "<c><d/></c>", "<d/>"]
        );
    }

    #[test]
    fn skip_avoids_unmatchable_subtrees() {
        // Pattern /a/b cannot match inside <z>…</z>: the run must skip
        // the whole subtree.
        let mut xml = String::from("<a><z>");
        for i in 0..1000 {
            xml.push_str(&format!("<junk>{i}</junk>"));
        }
        xml.push_str("</z><b>hit</b></a>");
        let (out, stats) = run("/a/b", &xml);
        assert_eq!(out, vec!["<b>hit</b>"]);
        assert!(
            stats.tokens_skipped > 2500,
            "expected bulk skipping, got {stats:?}"
        );
    }

    #[test]
    fn no_skip_under_descendant_steps() {
        let (out, stats) = run("//b", "<a><z><b>deep</b></z></a>");
        assert_eq!(out, vec!["<b>deep</b>"]);
        assert_eq!(stats.tokens_skipped, 0);
    }

    #[test]
    fn output_cap_stops_a_single_pattern_run() {
        let mut it =
            ParserTokenIterator::new("<a><b>1</b><b>2</b><b>3</b></a>", Arc::new(NamePool::new()));
        let guard = QueryGuard::new(Limits::unlimited().with_max_output_bytes(10));
        let mut out = Vec::new();
        let err = run_pattern(
            &pattern("/a/b"),
            &mut it,
            |bytes| guard.note_output_bytes(bytes),
            |m| out.push(m),
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::Limit);
        // "<b>1</b>" is 8 bytes — under the cap; the second match takes
        // the total to 16 and stops the run before a third.
        assert_eq!(out, vec!["<b>1</b>"]);
    }

    #[test]
    fn empty_and_elementless_input_end_cleanly_or_coded() {
        for xml in ["", "   "] {
            let mut it = ParserTokenIterator::new(xml, Arc::new(NamePool::new()));
            let mut out = Vec::new();
            match run_pattern(&pattern("/a/b"), &mut it, |_| Ok(()), |m| out.push(m)) {
                Ok(_) => assert!(out.is_empty(), "match from {xml:?}: {out:?}"),
                Err(e) => assert_ne!(
                    e.code,
                    ErrorCode::Internal,
                    "input {xml:?} must not surface an internal error: {e}"
                ),
            }
        }
    }

    #[test]
    fn completed_matches_are_handed_out_before_the_document_ends() {
        let push = |a: &CombinedAutomaton,
                    run: &mut CombinedRun,
                    tok: &mut PushTokenizer,
                    bytes: &[u8]| {
            tok.feed(bytes).unwrap();
            while let Some(t) = tok.poll_token().unwrap() {
                run.push(a, &t, tok, &mut |_, _| Ok(())).unwrap();
            }
            run.take_completed(0).unwrap()
        };
        // Child-only: each match is handed out at its own end tag.
        let a = CombinedAutomaton::build(&[pattern("/a/b")]);
        let mut run = CombinedRun::new(&a);
        let mut tok = PushTokenizer::new(Arc::new(NamePool::new()));
        assert_eq!(
            push(&a, &mut run, &mut tok, b"<a><b>1</b>"),
            vec!["<b>1</b>"]
        );
        assert_eq!(push(&a, &mut run, &mut tok, b"<b>2</b>"), vec!["<b>2</b>"]);
        // Nested: held until the enclosing match closes, then both.
        let a = CombinedAutomaton::build(&[pattern("//b")]);
        let mut run = CombinedRun::new(&a);
        let mut tok = PushTokenizer::new(Arc::new(NamePool::new()));
        assert!(push(&a, &mut run, &mut tok, b"<a><b>o<b>i</b>").is_empty());
        assert_eq!(
            push(&a, &mut run, &mut tok, b"</b>"),
            vec!["<b>o<b>i</b></b>", "<b>i</b>"]
        );
    }

    #[test]
    fn held_bytes_count_output_until_handed_over_or_dropped() {
        // Pattern 1's budget trips on its second match, dropping what it
        // collected; pattern 0 keeps collecting.
        let a = CombinedAutomaton::build(&[pattern("//b"), pattern("/a/b")]);
        let mut run = CombinedRun::new(&a);
        let mut tok = PushTokenizer::new(Arc::new(NamePool::new()));
        let mut seen = 0;
        let mut charge = |pid: PatternId, _| {
            seen += pid;
            match seen {
                2 => Err(Error::limit("output budget")),
                _ => Ok(()),
            }
        };
        let mut push = |run: &mut CombinedRun, bytes: &[u8]| {
            tok.feed(bytes).unwrap();
            while let Some(t) = tok.poll_token().unwrap() {
                run.push(&a, &t, &tok, &mut charge).unwrap();
            }
            run.held_bytes()
        };
        assert_eq!(push(&mut run, b"<a><b>1</b>"), 2 * "<b>1</b>".len());
        // An open capture holds what it has serialized so far.
        assert!(push(&mut run, b"<b>22<") > 2 * "<b>1</b>".len());
        assert_eq!(push(&mut run, b"/b>"), "<b>1</b><b>22</b>".len());
        assert_eq!(
            run.take_completed(0).unwrap(),
            vec!["<b>1</b>", "<b>22</b>"]
        );
        assert_eq!(run.held_bytes(), 0);
    }

    #[test]
    fn shared_prefix_patterns_share_trie_nodes() {
        let pats: Vec<StreamPattern> = ["/a/b/c", "/a/b/d", "/a/b/e"]
            .iter()
            .map(|q| pattern(q))
            .collect();
        let a = CombinedAutomaton::build(&pats);
        // root + a + b + {c,d,e}: 6 nodes, not 10.
        assert_eq!(a.node_count(), 6);
        assert_eq!(a.pattern_count(), 3);
    }

    #[test]
    fn each_pattern_gets_only_its_matches() {
        let (r, _) = run_all(
            &["/a/b", "/a/c", "//d"],
            "<a><b>1</b><c>2</c><x><d>3</d></x></a>",
        );
        assert_eq!(
            oks(&r),
            vec![
                strings(&["<b>1</b>"]),
                strings(&["<c>2</c>"]),
                strings(&["<d>3</d>"])
            ]
        );
    }

    #[test]
    fn mixed_child_and_descendant_edges_stay_anchored() {
        // /a/b (child-child) and //c share the automaton. The child
        // edge for b must NOT fire at depths below a's children.
        let (r, _) = run_all(
            &["/a/b", "//c"],
            "<a><x><b>deep</b><c>yes</c></x><b>hit</b></a>",
        );
        assert_eq!(
            oks(&r),
            vec![strings(&["<b>hit</b>"]), strings(&["<c>yes</c>"])]
        );
    }

    #[test]
    fn skip_fires_only_when_no_pattern_is_live() {
        // /a/b alone would skip <z>: but //d keeps every subtree live.
        let (_, stats) = run_all(&["/a/b", "//d"], "<a><z><junk/><junk/></z><b/></a>");
        assert_eq!(stats.tokens_skipped, 0);
        // With only child patterns, the z subtree is pruned once.
        let (r, stats) = run_all(&["/a/b", "/a/c"], "<a><z><junk/><junk/></z><b/></a>");
        assert!(stats.tokens_skipped > 0, "{stats:?}");
        assert_eq!(oks(&r), vec![strings(&["<b/>"]), Vec::<String>::new()]);
    }

    #[test]
    fn same_pattern_registered_twice_matches_twice() {
        let (r, _) = run_all(&["/a/b", "/a/b"], "<a><b>x</b></a>");
        assert_eq!(
            oks(&r),
            vec![strings(&["<b>x</b>"]), strings(&["<b>x</b>"])]
        );
    }

    #[test]
    fn budget_trip_degrades_one_pattern_only() {
        let pats = vec![pattern("/a/b"), pattern("/a/b"), pattern("/a/c")];
        let a = CombinedAutomaton::build(&pats);
        let mut it =
            ParserTokenIterator::new("<a><b>1</b><b>2</b><c>3</c></a>", Arc::new(NamePool::new()));
        // Pattern 1 trips after its first delivered match.
        let mut p1_bytes = 0u64;
        let out = run_document(&a, &mut it, |pid, bytes| {
            if pid == 1 {
                p1_bytes += bytes;
                if p1_bytes > 8 {
                    return Err(Error::new(ErrorCode::Limit, "output budget"));
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(
            out.per_pattern[0].as_ref().unwrap(),
            &strings(&["<b>1</b>", "<b>2</b>"])
        );
        assert_eq!(
            out.per_pattern[1].as_ref().unwrap_err().code,
            ErrorCode::Limit
        );
        assert_eq!(
            out.per_pattern[2].as_ref().unwrap(),
            &strings(&["<c>3</c>"])
        );
    }

    #[test]
    fn attributes_namespaces_and_text_serialize_through_shared_captures() {
        let (r, _) = run_all(&["//b", "/a/b"], r#"<a><b k="v">t<!--c--></b></a>"#);
        let want = strings(&[r#"<b k="v">t<!--c--></b>"#]);
        assert_eq!(oks(&r), vec![want.clone(), want]);
    }

    #[test]
    fn empty_pattern_set_consumes_nothing() {
        let a = CombinedAutomaton::build(&[]);
        let mut it = ParserTokenIterator::new("<a><b/></a>", Arc::new(NamePool::new()));
        let out = run_document(&a, &mut it, |_, _| Ok(())).unwrap();
        assert!(out.per_pattern.is_empty());
        // The document element's subtree is skipped wholesale.
        assert!(out.stats.tokens_skipped > 0);
    }

    /// Drive the run push-style (no skip available, every token pushed,
    /// chunk-agnostic) and compare against the pull driver.
    fn run_pushed(patterns: &[&str], xml: &str) -> (Vec<Result<Vec<String>>>, StreamStats) {
        let pats: Vec<StreamPattern> = patterns.iter().map(|q| pattern(q)).collect();
        let a = CombinedAutomaton::build(&pats);
        let mut tok = PushTokenizer::new(Arc::new(NamePool::new()));
        tok.feed(xml.as_bytes()).unwrap();
        tok.finish().unwrap();
        let mut run = CombinedRun::new(&a);
        let mut charge = |_: PatternId, _: u64| Ok(());
        while let Some(t) = tok.poll_token().unwrap() {
            // Ignore the skip hint: a push driver can't seek.
            run.push(&a, &t, &tok, &mut charge).unwrap();
        }
        let out = run.finish();
        (out.per_pattern, out.stats)
    }

    #[test]
    fn pushed_run_equals_pulled_run_results_and_stats() {
        let patterns = ["/a/b", "/a/c", "//d", "//*"];
        let docs = [
            "<a><b>1</b><c>2</c><x><d>3</d></x></a>",
            "<a><z><junk/><junk deep=\"1\"><q/></junk></z><b/></a>",
            r#"<a><b k="v">t<!--c--></b><?pi data?></a>"#,
            "<root/>",
        ];
        for doc in docs {
            let (pulled, pstats) = run_all(&patterns, doc);
            let (pushed, sstats) = run_pushed(&patterns, doc);
            assert_eq!(oks(&pulled), oks(&pushed), "{doc}");
            assert_eq!(pstats.tokens_seen, sstats.tokens_seen, "{doc}");
            assert_eq!(pstats.tokens_skipped, sstats.tokens_skipped, "{doc}");
            assert_eq!(pstats.matches, sstats.matches, "{doc}");
        }
        // Dead subtrees absorbed internally must also match the pull
        // path's skip accounting when only child patterns are live.
        let (pulled, pstats) = run_all(&["/a/b"], "<a><z><j/><j/></z><b/></a>");
        let (pushed, sstats) = run_pushed(&["/a/b"], "<a><z><j/><j/></z><b/></a>");
        assert_eq!(oks(&pulled), oks(&pushed));
        assert!(sstats.tokens_skipped > 0);
        assert_eq!(pstats.tokens_skipped, sstats.tokens_skipped);
    }

    #[test]
    fn pushed_run_can_pause_at_any_token_boundary() {
        // Feed the document byte-by-byte, pushing tokens as they
        // complete — the run must not care where installments end.
        let doc = "<a><b>outer<b>inner</b></b><c>x</c></a>";
        let (want, _) = run_all(&["//b", "/a/c"], doc);
        let a = CombinedAutomaton::build(&[pattern("//b"), pattern("/a/c")]);
        let mut tok = PushTokenizer::new(Arc::new(NamePool::new()));
        let mut run = CombinedRun::new(&a);
        let mut charge = |_: PatternId, _: u64| Ok(());
        for byte in doc.as_bytes() {
            tok.feed(std::slice::from_ref(byte)).unwrap();
            while let Some(t) = tok.poll_token().unwrap() {
                run.push(&a, &t, &tok, &mut charge).unwrap();
            }
        }
        tok.finish().unwrap();
        while let Some(t) = tok.poll_token().unwrap() {
            run.push(&a, &t, &tok, &mut charge).unwrap();
        }
        let out = run.finish();
        assert_eq!(oks(&want), oks(&out.per_pattern));
    }
}
