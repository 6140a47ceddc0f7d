//! The distributed provenance query engine.
//!
//! Provenance queries are issued against a tuple (identified by its VID and
//! home node) and traverse the distributed graph: the `prov` entries at the
//! tuple's home point to `ruleExec` records at the nodes where rules fired,
//! which in turn point to the input tuples whose `prov` entries live at those
//! same nodes, and so on until base tuples are reached.
//!
//! The module is split along the protocol's layers:
//!
//! * [`api`] — the public query surface: [`QueryKind`], [`QueryOptions`],
//!   [`QuerySpec`] (the compiled form a session builder produces),
//!   [`QueryHandle`], and the result types ([`ProofTree`], [`QueryResult`],
//!   [`QueryStats`]).
//! * [`fold`] — each [`QueryKind`] as one fold over the proof graph (a
//!   vertex's own facts, a rule execution over its inputs' values, a
//!   vertex's alternatives), evaluated where the data is, so responses carry
//!   the kind's value — a count, a node set, a base set or, for lineage, the
//!   proof subtree — instead of the lineage tree.
//! * [`wire`] — the message-driven protocol: [`QueryOp`] records carried in
//!   per-destination [`QueryBatch`] frames behind first-use dictionary
//!   headers (the same wire discipline as delta and maintenance batches).
//! * [`executor`] — the step-driven [`QueryExecutor`] that runs sessions as
//!   per-node frontier state machines over a real message layer
//!   ([`QueryMode::Distributed`]): one frame kind for vertices and rule
//!   executions, one scan whose width is the traversal order.
//! * [`local`] — the legacy in-process recursive [`QueryEngine`], kept as the
//!   equivalence oracle and single-node path ([`QueryMode::Local`]).
//! * [`cache`] — the sub-result cache both engines consult, keyed by vertex,
//!   node and kind and validated against every store a subtree was read
//!   from.
//!
//! Both engines answer the query types the paper demonstrates:
//!
//! * [`QueryKind::Lineage`] — the full proof tree of a tuple,
//! * [`QueryKind::BaseTuples`] — the set of contributing base tuples,
//! * [`QueryKind::ParticipatingNodes`] — "the set of all nodes that have been
//!   involved in the derivation of a given tuple",
//! * [`QueryKind::DerivationCount`] — "the total number of alternative
//!   derivations".
//!
//! and implement the three optimizations of Section 2.2: **caching** of
//! previously queried sub-results, keyed by vertex, node and kind
//! (invalidated by store version, so incremental deletes can never serve
//! stale values), **alternative tree-traversal orders** (sequential
//! depth-first vs. parallel breadth-first), and **threshold-based pruning**.
//! Under the distributed executor, the traversal-order trade-off is
//! *measured*, not modelled: the order is the width of every frame's scan —
//! DFS keeps one child outstanding, BFS fans every child out concurrently —
//! and [`QueryStats::latency_ms`] is read off the simulated network clock.
//!
//! Every cross-node frame is charged to the `"prov-query"` traffic category,
//! so the benchmarks can show — as the demonstration does — that the
//! optimizations "effectively reduce the network traffic".

pub mod api;
pub mod cache;
pub mod executor;
pub mod fold;
pub mod local;
pub mod wire;

pub use api::{
    ProofTree, QueryHandle, QueryKind, QueryMode, QueryOptions, QueryResult, QuerySpec, QueryStats,
    RuleExecNode, TraversalOrder, QUERY_CATEGORY,
};
pub use executor::QueryExecutor;
pub use fold::Folded;
pub use local::QueryEngine;
pub use wire::{QueryBatch, QueryOp};
