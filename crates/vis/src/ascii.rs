//! Plain-text rendering of proof trees and topologies.
//!
//! The examples and the demonstration driver print these to the terminal —
//! the textual counterpart of navigating the provenance visualizer.

use provenance::query::ProofTree;
use simnet::Topology;
use std::fmt::Write as _;

/// Render a proof tree as an indented ASCII tree, e.g.
///
/// ```text
/// minCost(n1,n3,2) @n1
/// └─ mc3 @n1
///    └─ cost(n1,n3,2) @n1
///       └─ mc2 @n2
///          ├─ mc2_aux(n2,n1,1) @n2
///          └─ minCost(n2,n3,1) @n2
/// ```
pub fn render_proof_tree(tree: &ProofTree) -> String {
    let mut out = String::new();
    render_tuple(tree, "", true, true, &mut out);
    out
}

fn render_tuple(tree: &ProofTree, prefix: &str, is_last: bool, is_root: bool, out: &mut String) {
    let label = tree
        .tuple
        .as_ref()
        .map(|t| t.to_string())
        .unwrap_or_else(|| tree.vid.to_string());
    let marker = if tree.is_base { " [base]" } else { "" };
    let pruned = if tree.pruned { " [pruned]" } else { "" };
    if is_root {
        let _ = writeln!(out, "{label} @{}{marker}{pruned}", tree.home);
    } else {
        let branch = if is_last { "└─ " } else { "├─ " };
        let _ = writeln!(
            out,
            "{prefix}{branch}{label} @{}{marker}{pruned}",
            tree.home
        );
    }
    let child_prefix = if is_root {
        String::new()
    } else {
        format!("{prefix}{}", if is_last { "   " } else { "│  " })
    };
    for (i, d) in tree.derivations.iter().enumerate() {
        let last = i + 1 == tree.derivations.len();
        let branch = if last { "└─ " } else { "├─ " };
        let _ = writeln!(out, "{child_prefix}{branch}{} @{}", d.rule, d.node);
        let next_prefix = format!("{child_prefix}{}", if last { "   " } else { "│  " });
        for (j, input) in d.inputs.iter().enumerate() {
            let input_last = j + 1 == d.inputs.len();
            render_tuple(input, &next_prefix, input_last, false, out);
        }
    }
}

/// One-paragraph summary of a topology (node count, link count, degree range).
pub fn render_topology_summary(topology: &Topology) -> String {
    let nodes: Vec<&str> = topology.nodes().collect();
    let degrees: Vec<usize> = nodes.iter().map(|n| topology.degree(n)).collect();
    let min_deg = degrees.iter().min().copied().unwrap_or(0);
    let max_deg = degrees.iter().max().copied().unwrap_or(0);
    format!(
        "topology: {} nodes, {} directed links, out-degree {}..{}",
        topology.node_count(),
        topology.link_count(),
        min_deg,
        max_deg
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{Tuple, TupleId, Value};
    use provenance::query::RuleExecNode;
    use provenance::store::RuleExecId;

    fn tree() -> ProofTree {
        let link = Tuple::new(
            "link",
            vec![Value::addr("n1"), Value::addr("n2"), Value::Int(1)],
        );
        ProofTree {
            vid: TupleId(1),
            tuple: Some(Tuple::new(
                "minCost",
                vec![Value::addr("n1"), Value::addr("n2"), Value::Int(1)],
            )),
            home: "n1".into(),
            is_base: false,
            derivations: vec![RuleExecNode {
                rid: RuleExecId::compute_str("mc3", "n1", &[link.id()]),
                rule: "mc3".into(),
                node: "n1".into(),
                inputs: vec![ProofTree {
                    vid: link.id(),
                    tuple: Some(link),
                    home: "n1".into(),
                    is_base: true,
                    derivations: vec![],
                    pruned: false,
                }],
            }],
            pruned: false,
        }
    }

    #[test]
    fn proof_tree_rendering_shows_structure() {
        let text = render_proof_tree(&tree());
        assert!(text.starts_with("minCost(n1,n2,1) @n1"));
        assert!(text.contains("└─ mc3 @n1"));
        assert!(text.contains("link(n1,n2,1) @n1 [base]"));
        // Indentation grows with depth.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("   "));
    }

    #[test]
    fn topology_summary_mentions_counts() {
        let summary = render_topology_summary(&Topology::star(5));
        assert!(summary.contains("5 nodes"));
        assert!(summary.contains("8 directed links"));
        assert!(summary.contains("1..4"));
    }
}
