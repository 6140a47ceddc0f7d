//! The public query surface: options, specs, handles and result types.
//!
//! A query is described by a [`QuerySpec`] — target vertex, querying node,
//! question ([`QueryKind`]), execution mode ([`QueryMode`]) and optimization
//! knobs ([`QueryOptions`]). Callers usually build one through a fluent
//! session builder (`NetTrails::query(&tuple).kind(..).traversal(..)` in the
//! platform crate) and get back a [`QueryHandle`] they can poll, stream
//! partial results from, cancel, or wait on for the final
//! ([`QueryResult`], [`QueryStats`]) pair.

use crate::store::RuleExecId;
use nt_runtime::{Addr, NodeId, Sym, Tuple, TupleId};
use std::collections::BTreeSet;

/// Traffic category used for provenance query messages.
pub const QUERY_CATEGORY: &str = "prov-query";

/// Which provenance question to ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Full proof tree (lineage).
    Lineage,
    /// Set of contributing base tuples.
    BaseTuples,
    /// Set of nodes that participated in any derivation.
    ParticipatingNodes,
    /// Number of alternative derivations (proof trees).
    DerivationCount,
}

/// Order in which the distributed traversal visits the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraversalOrder {
    /// Sequential depth-first traversal: the width of every frame's scan is
    /// 1, so a frame keeps one child outstanding at a time. Fewest
    /// simultaneous messages, highest latency.
    #[default]
    DepthFirst,
    /// Parallel breadth-first traversal: the width of every frame's scan is
    /// unbounded, so a frame issues all its children at once. Latency grows
    /// with the *depth* of the proof tree instead of its size.
    BreadthFirst,
}

/// How a query is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryMode {
    /// Message-driven execution over the simulated network: cross-node hops
    /// are real [`crate::query::wire::QueryBatch`] frames, and
    /// [`QueryStats::latency_ms`] is measured off the network clock.
    #[default]
    Distributed,
    /// The legacy in-process recursion ([`crate::QueryEngine`]): no wire
    /// traffic is generated, hop costs are estimated. Kept as the
    /// equivalence oracle and for single-node embedding.
    Local,
}

/// Query execution options (the paper's optimization knobs).
///
/// The per-hop latency is no longer an option: under
/// [`QueryMode::Distributed`] it is whatever the network's per-link delay
/// config yields, measured; the local engine estimates with its own
/// [`crate::QueryEngine::hop_rtt_ms`] knob.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryOptions {
    /// Reuse cached sub-results from previous queries.
    pub use_cache: bool,
    /// Traversal order.
    pub traversal: TraversalOrder,
    /// Expand at most this many alternative derivations per tuple vertex
    /// (threshold-based pruning); `None` = expand everything.
    pub max_derivations_per_vertex: Option<usize>,
    /// Stop descending below this depth (rule executions count one level);
    /// `None` = unbounded.
    pub max_depth: Option<usize>,
}

impl QueryOptions {
    /// Options with caching enabled.
    pub fn cached() -> Self {
        QueryOptions {
            use_cache: true,
            ..QueryOptions::default()
        }
    }
}

/// A fully-specified query: what to ask, from where, and how to execute it.
/// This is what a session builder compiles down to and what both execution
/// engines consume.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Node issuing the query.
    pub querier: NodeId,
    /// Target tuple vertex.
    pub vid: TupleId,
    /// The question.
    pub kind: QueryKind,
    /// Execution mode.
    pub mode: QueryMode,
    /// Optimization knobs.
    pub options: QueryOptions,
}

/// Handle of a submitted query session. Cheap to copy; redeem it against the
/// executor (or the platform) for partial results, cancellation, or the
/// final result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryHandle(pub u64);

/// A proof tree: the lineage of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofTree {
    /// The tuple vertex.
    pub vid: TupleId,
    /// Tuple contents, when known to the provenance system.
    pub tuple: Option<Tuple>,
    /// Node where the tuple lives (interned).
    pub home: NodeId,
    /// True when the tuple is a base tuple at this vertex (it may *also* have
    /// rule derivations).
    pub is_base: bool,
    /// One entry per (expanded) derivation.
    pub derivations: Vec<RuleExecNode>,
    /// True when pruning cut the expansion at this vertex.
    pub pruned: bool,
}

/// A rule-execution vertex in a proof tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleExecNode {
    /// Identifier of the rule execution.
    pub rid: RuleExecId,
    /// Rule name (interned).
    pub rule: Sym,
    /// Node where the rule executed (interned).
    pub node: NodeId,
    /// Sub-trees for every input tuple, in body order.
    pub inputs: Vec<ProofTree>,
}

impl ProofTree {
    /// Total number of vertices (tuple + rule-execution) in the tree.
    pub fn size(&self) -> usize {
        1 + self
            .derivations
            .iter()
            .map(|d| 1 + d.inputs.iter().map(ProofTree::size).sum::<usize>())
            .sum::<usize>()
    }

    /// Depth of the tree in tuple-vertex levels.
    pub fn depth(&self) -> usize {
        1 + self
            .derivations
            .iter()
            .flat_map(|d| d.inputs.iter().map(ProofTree::depth))
            .max()
            .unwrap_or(0)
    }
}

/// Result of a provenance query: the value its kind folds the proof to.
///
/// Every kind is one fold over the proof graph (`query::fold`), evaluated at
/// the node that holds each vertex, so a traversal passes these values up
/// instead of trees. `T` is the lineage form of the subtree a value covers:
/// [`ProofTree`] for a tuple vertex, which is what a caller redeems, and
/// [`RuleExecNode`] for a rule execution inside a traversal.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult<T = ProofTree> {
    /// Lineage result.
    Lineage(T),
    /// Contributing base tuple identifiers (with contents when known), by
    /// vid; each vid's tuple is its first occurrence in pre-order.
    BaseTuples(Vec<(TupleId, Option<Tuple>)>),
    /// Participating node names.
    ParticipatingNodes(BTreeSet<Addr>),
    /// Number of alternative derivations.
    DerivationCount(u64),
}

/// Work and traffic measurements for a single query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Cross-node frames exchanged (request + response messages). Batched
    /// fan-out packs several records into one frame, so under
    /// [`TraversalOrder::BreadthFirst`] this can be smaller than `records`.
    pub messages: u64,
    /// Protocol records those frames carried (one per hop request/response).
    pub records: u64,
    /// Payload bytes exchanged, including dictionary headers.
    pub bytes: u64,
    /// Dictionary-header bytes (interned strings shipped once per
    /// destination on first use) within `bytes`.
    pub dict_bytes: u64,
    /// Vertices visited.
    pub vertices_visited: u64,
    /// Cache hits (sub-results reused).
    pub cache_hits: u64,
    /// Completion latency in milliseconds. Under
    /// [`QueryMode::Distributed`] this is *measured* — the simulated-clock
    /// span between submission and the last frame of the session — so
    /// breadth-first fan-out genuinely completes in `max(hop)` while
    /// depth-first pays every hop sequentially. Under [`QueryMode::Local`]
    /// it is the legacy per-hop estimate.
    pub latency_ms: f64,
}
