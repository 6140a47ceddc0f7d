//! Both query engines share one [`QueryCache`] design: entries are keyed
//! `(vid, node, kind)`, hold the kind's value of the subtree, and are
//! stamped with the mutation version of every store the subtree was read
//! from, so a sub-result cached before an incremental delete can never be
//! served after it — the cache is consulted, found stale, evicted and
//! recomputed. A lineage tree names those stores and a node set is them;
//! a cached count or base set has its frames carry the node set beside the
//! value (`Folded::nodes`), which is what its stamp is made of.

use crate::query::api::{ProofTree, QueryKind, QueryResult};
use crate::query::fold::{Fold, Folded};
use crate::system::ProvenanceSystem;
use nt_runtime::{IdMap, NodeId, TupleId};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// shared result cache
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct CacheEntry {
    value: QueryResult,
    /// Mutation version of every store the subtree was read from (its own
    /// home plus every descendant vertex's home and executing node), at the
    /// time it was computed. `None` records a store that did not exist.
    deps: Vec<(NodeId, Option<u64>)>,
}

/// Result cache shared in design by both engines: `(vid, node, kind)` → the
/// kind's value of the subtree, validated on every lookup against the
/// mutation versions of **all** the stores the subtree was read from — not
/// just the root's home, since a descendant node's churn changes the
/// subtree without touching the root's own store. Maintenance that touches
/// any involved store (incremental deletes included) bumps its version, so
/// stale entries are evicted instead of served.
#[derive(Debug, Default)]
pub struct QueryCache {
    map: IdMap<(TupleId, NodeId, QueryKind), CacheEntry>,
}

impl QueryCache {
    /// Look up a cached subtree, evicting it if any store it depends on has
    /// changed since it was computed. A stamped fold's hit carries the
    /// entry's stamp as its node set.
    pub(super) fn lookup(
        &mut self,
        system: &ProvenanceSystem,
        vid: TupleId,
        node: NodeId,
        fold: Fold,
    ) -> Option<Folded<ProofTree>> {
        match self.map.entry((vid, node, fold.kind)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let entry = e.get();
                let fresh = entry
                    .deps
                    .iter()
                    .all(|(dep, version)| system.store(*dep).map(|s| s.version()) == *version);
                if fresh {
                    Some(Folded {
                        value: entry.value.clone(),
                        nodes: fold
                            .stamped
                            .then(|| entry.deps.iter().map(|(dep, _)| *dep).collect()),
                    })
                } else {
                    e.remove();
                    None
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => None,
        }
    }

    /// Cache a computed subtree, stamped with the current version of every
    /// store it was read from.
    pub(super) fn insert(
        &mut self,
        system: &ProvenanceSystem,
        vid: TupleId,
        node: NodeId,
        kind: QueryKind,
        done: &Folded<ProofTree>,
    ) {
        // The stores a subtree was read from are the nodes its tree names:
        // a lineage value is that tree, a node-set value is that set, and
        // a stamped fold carries the set beside its value. Both engines
        // stamp identically by construction.
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        nodes.insert(node);
        match (&done.nodes, &done.value) {
            (Some(stamp), _) => nodes.extend(stamp),
            (None, QueryResult::Lineage(tree)) => collect_nodes(tree, &mut nodes),
            (None, QueryResult::ParticipatingNodes(set)) => nodes.extend(set),
            (None, _) => unreachable!("a stamped fold carries its node set"),
        }
        let deps = nodes
            .into_iter()
            .map(|n| (n, system.store(n).map(|s| s.version())))
            .collect();
        self.map.insert(
            (vid, node, kind),
            CacheEntry {
                value: done.value.clone(),
                deps,
            },
        );
    }

    /// Number of cached subtrees.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every cached subtree.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Every node a proof tree touches: each vertex's home and each rule
/// execution's node, the stores the tree was read from.
fn collect_nodes(tree: &ProofTree, out: &mut BTreeSet<NodeId>) {
    out.insert(tree.home);
    for d in &tree.derivations {
        out.insert(d.node);
        for input in &d.inputs {
            collect_nodes(input, out);
        }
    }
}

/// Add a child subtree's node set to its parent's, under a stamped fold.
pub(super) fn absorb(nodes: &mut Option<BTreeSet<NodeId>>, child: Option<BTreeSet<NodeId>>) {
    if let (Some(nodes), Some(child)) = (nodes, child) {
        nodes.extend(child);
    }
}
