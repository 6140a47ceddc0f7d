//! Graphviz DOT export.

use provenance::graph::{ProvGraph, ProvVertex, VertexId};
use simnet::Topology;
use std::fmt::Write as _;

/// Render a provenance graph as Graphviz DOT. Tuple vertices are ellipses
/// (base tuples shaded), rule-execution vertices are boxes; every vertex is
/// annotated with the node it is stored at, mirroring the per-node
/// partitioning of the distributed graph.
pub fn provenance_to_dot(graph: &ProvGraph) -> String {
    let mut out = String::from("digraph provenance {\n  rankdir=BT;\n");
    for (id, vertex) in &graph.vertices {
        let name = vertex_name(id);
        match vertex {
            ProvVertex::Tuple {
                tuple,
                home,
                is_base,
                vid,
            } => {
                let label = tuple
                    .as_ref()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| vid.to_string());
                let fill = if *is_base {
                    ", style=filled, fillcolor=lightgrey"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  {name} [shape=ellipse{fill}, label=\"{}\\n@{home}\"];",
                    escape(&label)
                );
            }
            ProvVertex::RuleExec { rule, node, .. } => {
                let _ = writeln!(
                    out,
                    "  {name} [shape=box, label=\"{}\\n@{node}\"];",
                    escape(rule)
                );
            }
        }
    }
    for edge in &graph.edges {
        let _ = writeln!(
            out,
            "  {} -> {};",
            vertex_name(&edge.from),
            vertex_name(&edge.to)
        );
    }
    out.push_str("}\n");
    out
}

/// Render a topology as Graphviz DOT (undirected view: each bidirectional pair
/// is drawn once, labelled with its cost).
pub fn topology_to_dot(topology: &Topology) -> String {
    let mut out = String::from("graph topology {\n  layout=neato;\n");
    for node in topology.nodes() {
        let _ = writeln!(out, "  \"{node}\";");
    }
    let mut drawn: Vec<(String, String)> = Vec::new();
    for link in topology.links() {
        let key = if link.from <= link.to {
            (link.from.clone(), link.to.clone())
        } else {
            (link.to.clone(), link.from.clone())
        };
        if drawn.contains(&key) {
            continue;
        }
        drawn.push(key);
        let _ = writeln!(
            out,
            "  \"{}\" -- \"{}\" [label=\"{}\"];",
            link.from, link.to, link.cost
        );
    }
    out.push_str("}\n");
    out
}

fn vertex_name(id: &VertexId) -> String {
    match id {
        VertexId::Tuple(vid) => format!("t{:016x}", vid.0),
        VertexId::RuleExec(rid) => format!("r{:016x}", rid.0),
    }
}

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{Firing, Tuple, Value, BASE_RULE};
    use provenance::ProvenanceSystem;

    fn sample_graph() -> ProvGraph {
        let mut sys = ProvenanceSystem::new(["n1"]);
        let link = Tuple::new("link", vec![Value::addr("n1"), Value::Int(1)]);
        let cost = Tuple::new("cost", vec![Value::addr("n1"), Value::Int(1)]);
        sys.apply_firing(&Firing {
            rule: BASE_RULE.into(),
            node: "n1".into(),
            head: link.clone(),
            head_home: "n1".into(),
            inputs: Default::default(),
            insert: true,
        });
        sys.apply_firing(&Firing {
            rule: "r1".into(),
            node: "n1".into(),
            head: cost,
            head_home: "n1".into(),
            inputs: [link.id()].into(),
            insert: true,
        });
        ProvGraph::from_system(&sys)
    }

    #[test]
    fn provenance_dot_contains_vertices_and_edges() {
        let dot = provenance_to_dot(&sample_graph());
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("->"));
        assert!(dot.contains("lightgrey"), "base tuples are shaded");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn topology_dot_draws_each_pair_once() {
        let topo = Topology::ring(4);
        let dot = topology_to_dot(&topo);
        assert_eq!(
            dot.matches(" -- ").count(),
            4,
            "4 undirected edges in a 4-ring"
        );
        assert!(dot.contains("\"n1\""));
    }
}
