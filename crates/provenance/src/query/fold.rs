//! Each query kind as one fold over the proof graph.
//!
//! The lineage tree is the free form of a query's answer, and every other
//! kind is a homomorphic image of it (Green, Karvounarakis and Tannen,
//! "Provenance semirings", PODS 2007): a derivation count is (ℕ, +, ×), base
//! and node sets are (∪, ∪). So a kind needs no tree. It needs three cases,
//! evaluated where the data is, as ExSPAN customises a query per hop:
//!
//! * **a vertex's own facts** — its home, whether it is a base tuple, its
//!   tuple, whether pruning cut it;
//! * **a rule execution** over its inputs' values, in body order
//!   (`Fold::exec`);
//! * **a vertex's alternatives**, its derivations' values in entry order,
//!   folded onto its own facts (`Fold::vertex`).
//!
//! | kind | rule execution | vertex |
//! |---|---|---|
//! | lineage | the [`RuleExecNode`] over its input trees | the [`ProofTree`] |
//! | base tuples | inputs' sets, united | `(vid, tuple)` when base, then its derivations' sets |
//! | participating nodes | its node ∪ inputs' sets | its home ∪ derivations' sets |
//! | derivation count | Π max(input, 1) | \[base\] + Σ derivations, and 1 when that is 0 and pruning cut it |
//!
//! Counts saturate. A base set is sorted by vid and keeps each vid's tuple
//! from its first occurrence in pre-order. A derivation whose `ruleExec`
//! record was not found contributes nothing, as it is absent from the tree.
//!
//! Under caching, a cache entry is stamped with every store its subtree was
//! read from. A tree names those nodes and a node set is them, but a count
//! or a base set does not, so for those two kinds a subtree's value travels
//! with its node set ([`Folded::nodes`]) while caching is on.

use crate::query::api::{ProofTree, QueryKind, QueryResult, RuleExecNode};
use crate::store::{ProvEntry, RuleExecId};
use nt_runtime::{NodeId, Sym, Tuple, TupleId};
use std::collections::BTreeSet;

/// A completed subtree on its way to the frame that awaits it: its value,
/// and the nodes it was read from when caching is on and the value does
/// not name them (a count, a base set).
#[derive(Debug, Clone, PartialEq)]
pub struct Folded<T> {
    /// The kind's value of the subtree.
    pub value: QueryResult<T>,
    /// Every node the subtree was read from (each vertex's home and each
    /// rule execution's node), carried only while it stamps cache entries
    /// and the value does not name it.
    pub nodes: Option<BTreeSet<NodeId>>,
}

/// What a vertex contributes itself, whatever its derivations do.
#[derive(Debug)]
pub(crate) struct Head {
    pub vid: TupleId,
    /// The node the vertex was expanded at.
    pub home: NodeId,
    /// The vertex's tuple, when the kind keeps it (`Fold::tuple`).
    pub tuple: Option<Tuple>,
    pub is_base: bool,
    /// Pruning cut the expansion at this vertex.
    pub pruned: bool,
}

impl Head {
    /// A vertex with no facts yet.
    pub fn new(vid: TupleId, home: NodeId, tuple: Option<Tuple>) -> Self {
        Head {
            vid,
            home,
            tuple,
            is_base: false,
            pruned: false,
        }
    }
}

/// One session's fold: its kind, and whether its subtrees carry node sets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fold {
    pub kind: QueryKind,
    /// Caching is on and the kind's value does not name the nodes it was
    /// read from.
    pub stamped: bool,
}

impl Fold {
    pub fn new(kind: QueryKind, use_cache: bool) -> Self {
        Fold {
            kind,
            stamped: use_cache
                && matches!(kind, QueryKind::BaseTuples | QueryKind::DerivationCount),
        }
    }

    /// The tuple a vertex keeps: lineage keeps every vertex's, base sets
    /// keep a base vertex's, the other kinds none. A copy is made only then.
    pub fn tuple(&self, tuple: Option<&Tuple>, entries: &[ProvEntry]) -> Option<Tuple> {
        match self.kind {
            QueryKind::Lineage => tuple.cloned(),
            QueryKind::BaseTuples if entries.iter().any(ProvEntry::is_base) => tuple.cloned(),
            _ => None,
        }
    }

    /// A new node set for a subtree rooted at `node`, when the fold carries
    /// one.
    pub fn nodes(&self, node: NodeId) -> Option<BTreeSet<NodeId>> {
        self.stamped.then(|| BTreeSet::from([node]))
    }

    /// The value of rule execution `rid` of `rule` at `node`, from its
    /// inputs' values in body order (every slot filled).
    pub fn exec(
        &self,
        rid: RuleExecId,
        rule: Sym,
        node: NodeId,
        inputs: Vec<Option<QueryResult>>,
    ) -> QueryResult<RuleExecNode> {
        match self.kind {
            QueryKind::Lineage => QueryResult::Lineage(RuleExecNode {
                rid,
                rule,
                node,
                inputs: lineage(inputs),
            }),
            QueryKind::BaseTuples => QueryResult::BaseTuples(unite_bases(Vec::new(), inputs)),
            QueryKind::ParticipatingNodes => {
                QueryResult::ParticipatingNodes(unite_nodes(BTreeSet::from([node]), inputs))
            }
            QueryKind::DerivationCount => QueryResult::DerivationCount(
                inputs
                    .into_iter()
                    .flatten()
                    .fold(1, |product, v| product.saturating_mul(count(v).max(1))),
            ),
        }
    }

    /// The value of a vertex from its own facts and its derivations' values
    /// in entry order (`None` for a derivation whose record was not found).
    pub fn vertex(
        &self,
        head: Head,
        derivations: Vec<Option<QueryResult<RuleExecNode>>>,
    ) -> QueryResult {
        match self.kind {
            QueryKind::Lineage => QueryResult::Lineage(ProofTree {
                vid: head.vid,
                tuple: head.tuple,
                home: head.home,
                is_base: head.is_base,
                derivations: lineage(derivations),
                pruned: head.pruned,
            }),
            QueryKind::BaseTuples => {
                let own = if head.is_base {
                    vec![(head.vid, head.tuple)]
                } else {
                    Vec::new()
                };
                QueryResult::BaseTuples(unite_bases(own, derivations))
            }
            QueryKind::ParticipatingNodes => QueryResult::ParticipatingNodes(unite_nodes(
                BTreeSet::from([head.home]),
                derivations,
            )),
            QueryKind::DerivationCount => {
                let total = derivations
                    .into_iter()
                    .flatten()
                    .fold(u64::from(head.is_base), |sum, v| {
                        sum.saturating_add(count(v))
                    });
                // A pruned vertex still represents at least one derivation.
                QueryResult::DerivationCount(if total == 0 && head.pruned { 1 } else { total })
            }
        }
    }
}

/// The lineage forms of filled slots, in slot order. Collecting from the
/// slots' own iterator reuses their buffer (a slot and its tree have one
/// size); `flatten()` would allocate anew.
fn lineage<T>(slots: Vec<Option<QueryResult<T>>>) -> Vec<T> {
    slots
        .into_iter()
        .filter_map(|slot| match slot? {
            QueryResult::Lineage(tree) => Some(tree),
            _ => unreachable!("a lineage fold met another kind"),
        })
        .collect()
}

fn count<T>(value: QueryResult<T>) -> u64 {
    match value {
        QueryResult::DerivationCount(n) => n,
        _ => unreachable!("a count fold met another kind"),
    }
}

/// `own` followed by the slots' base sets, by vid, each vid keeping its
/// first entry in that order: the pre-order of the tree.
fn unite_bases<T>(
    mut own: Vec<(TupleId, Option<Tuple>)>,
    slots: Vec<Option<QueryResult<T>>>,
) -> Vec<(TupleId, Option<Tuple>)> {
    for slot in slots.into_iter().flatten() {
        match slot {
            QueryResult::BaseTuples(set) if own.is_empty() => own = set,
            QueryResult::BaseTuples(set) => own.extend(set),
            _ => unreachable!("a base-set fold met another kind"),
        }
    }
    // Stable: of equal vids the earlier entry stays first, and is kept.
    own.sort_by_key(|(vid, _)| *vid);
    own.dedup_by_key(|(vid, _)| *vid);
    own
}

fn unite_nodes<T>(
    mut own: BTreeSet<NodeId>,
    slots: Vec<Option<QueryResult<T>>>,
) -> BTreeSet<NodeId> {
    for slot in slots.into_iter().flatten() {
        match slot {
            QueryResult::ParticipatingNodes(set) => own.extend(set),
            _ => unreachable!("a node-set fold met another kind"),
        }
    }
    own
}
