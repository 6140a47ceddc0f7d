//! The fold oracle: every query kind's answer is a projection of the lineage
//! tree, computed here by walking the whole tree, correct by inspection.
//!
//! The product folds each kind where the data is (`provenance::query::fold`)
//! and never builds a tree for a kind that is not lineage. A suite runs the
//! same query as lineage beside it, under the same options and the same
//! cache history, and checks `answer == project_result(kind, tree)`.
//!
//! Included by path: `crates/provenance/tests/size_independence.rs`, the
//! root `tests/proptest_query_equivalence.rs` and the 1,280-session service
//! test in `crates/scenario/src/service.rs`.

use nt_runtime::{NodeId, Tuple, TupleId};
use provenance::{ProofTree, QueryKind, QueryResult};
use std::collections::BTreeSet;

/// Project a completed lineage tree into the requested result form.
pub fn project_result(kind: QueryKind, tree: ProofTree) -> QueryResult {
    match kind {
        QueryKind::Lineage => QueryResult::Lineage(tree),
        QueryKind::BaseTuples => {
            let mut out = Vec::new();
            base_leaves(&tree, &mut out);
            out.sort_by_key(|(vid, _)| *vid);
            out.dedup_by_key(|(vid, _)| *vid);
            QueryResult::BaseTuples(out)
        }
        QueryKind::ParticipatingNodes => {
            let mut nodes = BTreeSet::new();
            collect_nodes(&tree, &mut nodes);
            QueryResult::ParticipatingNodes(nodes)
        }
        QueryKind::DerivationCount => QueryResult::DerivationCount(count_derivations(&tree)),
    }
}

/// The tree's base vertices in pre-order, with their tuples.
fn base_leaves(tree: &ProofTree, out: &mut Vec<(TupleId, Option<Tuple>)>) {
    if tree.is_base {
        out.push((tree.vid, tree.tuple.clone()));
    }
    for d in &tree.derivations {
        for input in &d.inputs {
            base_leaves(input, out);
        }
    }
}

/// Every node a proof tree touches: each vertex's home and each rule
/// execution's node.
fn collect_nodes(tree: &ProofTree, out: &mut BTreeSet<NodeId>) {
    out.insert(tree.home);
    for d in &tree.derivations {
        out.insert(d.node);
        for input in &d.inputs {
            collect_nodes(input, out);
        }
    }
}

/// Number of alternative derivations (proof trees) represented by a lineage
/// tree: base vertices contribute one derivation, every rule execution
/// contributes the product of its inputs' counts (each at least one), and a
/// tuple's count is the sum over its derivations. A pruned vertex with
/// nothing else counts one. Both operations saturate.
fn count_derivations(tree: &ProofTree) -> u64 {
    let mut count: u64 = if tree.is_base { 1 } else { 0 };
    for d in &tree.derivations {
        let mut product = 1u64;
        for input in &d.inputs {
            product = product.saturating_mul(count_derivations(input).max(1));
        }
        count = count.saturating_add(product);
    }
    if count == 0 && tree.pruned {
        1
    } else {
        count
    }
}
