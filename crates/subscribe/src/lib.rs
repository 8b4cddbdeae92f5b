//! Standing continuous queries over document streams — the paper's
//! message-broker scenario inverted into pub/sub: clients register
//! XQuery/XPath subscriptions once, documents arrive as a stream, and
//! each document is matched against *all* subscriptions in one shared
//! pass.
//!
//! Three pieces:
//!
//! - [`CombinedAutomaton`] / [`run_document`] — the subscription set's
//!   streamable patterns compiled into one shared-prefix trie run as an
//!   NFA state-set per document, with subtree `skip()` pruning when no
//!   live state can match (the runtime's one streaming matcher,
//!   re-exported here);
//! - [`SubscriptionRegistry`] — generation-checked [`SubId`]s, per-
//!   subscription budgets and delivery sinks, and the publish path
//!   (shared pass + one-shot fallback over a single materialized
//!   document for non-streamable plans);
//! - [`PublishReport`] / [`SubscribeStats`] — per-publish outcomes and
//!   the counters the service surfaces.
//!
//! The correctness contract, enforced by the pubsub harness leg: N
//! standing subscriptions over a document stream ≡ N independent
//! one-shot queries per document — byte-for-byte, or the same stable
//! coded error, never cross-contamination.

mod registry;

pub use registry::{
    CollectingSink, Delivery, PublishReport, PublishSession, SubId, SubscribeStats,
    SubscriptionRegistry, SubscriptionSink,
};
pub use xqr_runtime::{
    run_document, CombinedAutomaton, CombinedOutcome, CombinedRun, PatternId, PushAction,
};
