//! # provenance — the ExSPAN network-provenance engine of NetTrails
//!
//! This crate reproduces the two halves of ExSPAN as described in the
//! NetTrails paper (Section 2.2):
//!
//! * the **maintenance engine** ([`store`], [`system`]) incrementally
//!   maintains the network provenance graph as distributed relational tables —
//!   `prov(@Loc, VID, RID, RLoc)` stored at each tuple's home node and
//!   `ruleExec(@RLoc, RID, Rule, VIDs)` stored at the node where the rule
//!   fired. The tables are fed by the rule-execution events
//!   ([`nt_runtime::Firing`]) emitted by the per-node engines; the NDlog-level
//!   view of the same construction is produced by the automatic
//!   [`rewrite`]r, mirroring the rule-rewriting algorithm of ExSPAN.
//! * the **distributed query engine** ([`query`]) traverses the distributed
//!   graph to answer customizable provenance queries — a tuple's full lineage
//!   (proof tree), the set of contributing base tuples, the set of
//!   participating nodes, and the number of alternative derivations — with the
//!   three optimizations highlighted in the paper: caching of previously
//!   queried results, alternative tree-traversal orders, and threshold-based
//!   pruning. Queries execute either as message-driven sessions over a real
//!   wire layer (the step-driven [`QueryExecutor`], `QueryMode::Distributed`)
//!   or through the legacy in-process recursion ([`QueryEngine`],
//!   `QueryMode::Local`), with a property suite proving the two bit-identical.
//!
//! The [`graph`] module assembles a global (centralized) view of the
//! distributed graph for the visualizer and the log store, matching the
//! "system snapshots propagated to a central Log Store" workflow of Section
//! 2.3. That graph, its vertex, edge and id types and [`ProvStoreStats`] are
//! what a snapshot carries of provenance, and the only types here with a
//! serialized form. The stores, the system, firings and query batches have
//! none: nothing rebuilds them from bytes, only maintenance writes them.

pub mod graph;
pub mod proql;
pub mod query;
pub mod rewrite;
pub mod store;
pub mod system;

#[doc(hidden)]
pub mod fence;

pub use graph::{ProvEdge, ProvGraph, ProvVertex, VertexId};
pub use proql::{parse_query as parse_proql, ProqlQuery, ProqlResult};
pub use query::{
    ProofTree, QueryBatch, QueryEngine, QueryExecutor, QueryHandle, QueryKind, QueryMode, QueryOp,
    QueryOptions, QueryResult, QuerySpec, QueryStats, RuleExecNode, TraversalOrder, QUERY_CATEGORY,
};
pub use rewrite::{rewrite_for_provenance, PROV_RELATION, RULE_EXEC_RELATION};
pub use store::{ProvEntry, ProvStoreStats, ProvenanceStore, RuleExec, RuleExecId};
pub use system::{ProvenanceSystem, SystemStats};
