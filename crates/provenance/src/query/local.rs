//! The legacy in-process query engine.
//!
//! [`QueryEngine`] is the original synchronous recursion over
//! [`ProvenanceSystem`], folding through the same `query::fold` as the
//! executor. It generates no wire traffic and *estimates* hop
//! latency from [`QueryEngine::hop_rtt_ms`]. It remains the
//! [`QueryMode::Local`] path: the equivalence oracle, and the natural
//! choice for single-process embeddings (the BGP harness, the log store).

use crate::query::api::{
    ProofTree, QueryKind, QueryMode, QueryOptions, QueryResult, QuerySpec, QueryStats,
    TraversalOrder,
};
use crate::query::cache::{absorb, QueryCache};
use crate::query::executor::read_vertex;
use crate::query::fold::{Fold, Folded, Head};
use crate::system::ProvenanceSystem;
use nt_runtime::{IdSet, NodeId, Tuple, TupleId};

// ---------------------------------------------------------------------------
// the legacy in-process engine (QueryMode::Local)
// ---------------------------------------------------------------------------

/// The in-process provenance query engine: a synchronous recursion over the
/// distributed stores, with modelled (not measured) hop latency. This is the
/// [`QueryMode::Local`] execution path; see the module documentation.
#[derive(Debug)]
pub struct QueryEngine {
    cache: QueryCache,
    /// Modelled round-trip time charged per cross-node hop, in milliseconds
    /// (the distributed executor *measures* this instead). Drivers that also
    /// run a network should set it to twice the network's per-link delay so
    /// the estimate matches what the wire would measure.
    pub hop_rtt_ms: f64,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine {
            cache: QueryCache::default(),
            hop_rtt_ms: 2.0,
        }
    }
}

impl QueryEngine {
    /// Create an engine with an empty cache and the default hop estimate.
    pub fn new() -> Self {
        QueryEngine::default()
    }

    /// Create an engine whose latency estimate charges `hop_rtt_ms` per
    /// cross-node hop.
    pub fn with_hop_rtt_ms(hop_rtt_ms: f64) -> Self {
        QueryEngine {
            hop_rtt_ms,
            ..QueryEngine::default()
        }
    }

    /// Clear the result cache.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of cached subtrees.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }

    /// Run a query of `kind` for the tuple `target`, issued from `querier`.
    ///
    /// The tuple's home node is looked up in the provenance system; an
    /// unknown tuple yields an empty result.
    pub fn query(
        &mut self,
        system: &ProvenanceSystem,
        querier: &str,
        target: &Tuple,
        kind: QueryKind,
        options: &QueryOptions,
    ) -> (QueryResult, QueryStats) {
        self.query_vid(system, querier, target.id(), kind, options)
    }

    /// Run a query addressed directly by VID.
    pub fn query_vid(
        &mut self,
        system: &ProvenanceSystem,
        querier: &str,
        vid: TupleId,
        kind: QueryKind,
        options: &QueryOptions,
    ) -> (QueryResult, QueryStats) {
        let spec = QuerySpec {
            querier: NodeId::new(querier),
            vid,
            kind,
            mode: QueryMode::Local,
            options: options.clone(),
        };
        self.run(system, &spec)
    }

    /// Run a compiled [`QuerySpec`] synchronously.
    pub fn run(
        &mut self,
        system: &ProvenanceSystem,
        spec: &QuerySpec,
    ) -> (QueryResult, QueryStats) {
        let mut stats = QueryStats::default();
        let home = system.vertex_home(spec.vid).unwrap_or(spec.querier);
        // The querying node contacts the tuple's home node.
        if home != spec.querier {
            charge(&mut stats, 64);
        }
        let mut visited = IdSet::default();
        let fold = Fold::new(spec.kind, spec.options.use_cache);
        let done = self.expand(
            system,
            home,
            spec.vid,
            0,
            fold,
            &spec.options,
            &mut stats,
            &mut visited,
        );
        (done.value, stats)
    }

    /// Fold the proof of `vid`, whose `prov` entries live at `node`.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &mut self,
        system: &ProvenanceSystem,
        node: NodeId,
        vid: TupleId,
        depth: usize,
        fold: Fold,
        options: &QueryOptions,
        stats: &mut QueryStats,
        visited: &mut IdSet<TupleId>,
    ) -> Folded<ProofTree> {
        stats.vertices_visited += 1;
        if options.use_cache {
            if let Some(hit) = self.cache.lookup(system, vid, node, fold) {
                stats.cache_hits += 1;
                return hit;
            }
        }
        let (tuple, entries) = read_vertex(system, node, vid);
        let mut head = Head::new(vid, node, fold.tuple(tuple, entries));
        let mut nodes = fold.nodes(node);
        // Cycle guard (the provenance graph is acyclic by construction, but a
        // malformed store must not hang the query engine).
        if !visited.insert(vid) {
            return Folded {
                value: fold.vertex(head, Vec::new()),
                nodes,
            };
        }
        if let Some(max_depth) = options.max_depth {
            if depth >= max_depth {
                head.pruned = true;
                visited.remove(&vid);
                return Folded {
                    value: fold.vertex(head, Vec::new()),
                    nodes,
                };
            }
        }
        let mut expanded = 0usize;
        let mut derivations = Vec::new();
        let mut frontier_hops: Vec<f64> = Vec::new();
        for entry in entries {
            if entry.is_base() {
                head.is_base = true;
                continue;
            }
            if let Some(limit) = options.max_derivations_per_vertex {
                if expanded >= limit {
                    head.pruned = true;
                    break;
                }
            }
            expanded += 1;
            let rid = entry.rid.expect("non-base entry has rid");
            // Fetch the ruleExec record from the node where the rule fired.
            if entry.rloc != node {
                charge(stats, 96);
                frontier_hops.push(self.hop_rtt_ms);
            }
            let Some(exec) = system.store(entry.rloc).and_then(|s| s.rule_exec(rid)) else {
                continue;
            };
            let mut exec_nodes = fold.nodes(exec.node);
            // Inputs are local to the executing node: recurse there.
            let inputs = exec
                .inputs
                .iter()
                .map(|input| {
                    let done = self.expand(
                        system,
                        entry.rloc,
                        *input,
                        depth + 1,
                        fold,
                        options,
                        stats,
                        visited,
                    );
                    absorb(&mut exec_nodes, done.nodes);
                    Some(done.value)
                })
                .collect();
            derivations.push(Some(fold.exec(rid, exec.rule, exec.node, inputs)));
            absorb(&mut nodes, exec_nodes);
        }
        visited.remove(&vid);
        let pruned = head.pruned;
        let done = Folded {
            value: fold.vertex(head, derivations),
            nodes,
        };
        if options.use_cache && !pruned {
            self.cache.insert(system, vid, node, fold.kind, &done);
        }
        // Latency model: depth-first pays every hop sequentially; breadth-first
        // overlaps the hops of sibling derivations.
        match options.traversal {
            TraversalOrder::DepthFirst => {
                stats.latency_ms += frontier_hops.iter().sum::<f64>();
            }
            TraversalOrder::BreadthFirst => {
                stats.latency_ms += frontier_hops.iter().cloned().fold(0.0, f64::max);
            }
        }
        done
    }
}

/// Count one cross-node hop: a request of `bytes` and a 64-byte reply, one
/// record each.
fn charge(stats: &mut QueryStats, bytes: usize) {
    stats.messages += 2;
    stats.records += 2;
    stats.bytes += (bytes + 64) as u64;
}
