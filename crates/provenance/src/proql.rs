//! A small ProQL-style path query language over the provenance graph.
//!
//! The paper's "ongoing research" section mentions "exploring distributed
//! variants of graph-based provenance query languages such as ProQL for
//! formulating queries and transformations over network provenance data". This
//! module implements the extension feature: a minimal path-expression language
//! evaluated against a [`ProvGraph`].
//!
//! Grammar:
//!
//! ```text
//! query   := "from" pattern step*
//! pattern := relation [ "@" node ]            (e.g. `minCost@n1`, or `minCost`)
//! step    := "back" [number]                  follow derivations upstream N levels (default all)
//!          | "forward" [number]               follow dataflow downstream
//!          | "bases"                          keep only base tuples
//!          | "nodes"                          project to the set of locations
//!          | "count"                          count the current vertex set
//! ```
//!
//! Example: `from minCost@n1 back bases` — all base tuples that the
//! `minCost` tuples stored at `n1` depend on.

use crate::graph::{ProvGraph, ProvVertex, VertexId};
use nt_runtime::Addr;
use std::collections::BTreeSet;

/// One step of a ProQL-style query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProqlStep {
    /// Follow provenance upstream (toward inputs); `None` = to the sources.
    Back(Option<usize>),
    /// Follow dataflow downstream (toward outputs); `None` = to the sinks.
    Forward(Option<usize>),
    /// Keep only base-tuple vertices.
    Bases,
    /// Project to the set of node locations.
    Nodes,
    /// Count the current vertex set.
    Count,
}

/// A parsed query: a starting pattern plus steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProqlQuery {
    /// Relation name the query starts from.
    pub relation: String,
    /// Optional node restriction.
    pub node: Option<Addr>,
    /// Steps to apply.
    pub steps: Vec<ProqlStep>,
}

/// Result of evaluating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum ProqlResult {
    /// A set of vertices (rendered through their labels).
    Vertices(Vec<String>),
    /// A set of node names.
    Nodes(BTreeSet<Addr>),
    /// A count.
    Count(usize),
}

/// Parse a query string. Returns a readable error message on failure.
pub fn parse_query(src: &str) -> Result<ProqlQuery, String> {
    let tokens: Vec<&str> = src.split_whitespace().collect();
    if tokens.len() < 2 || tokens[0] != "from" {
        return Err("query must start with `from <relation>[@node]`".to_string());
    }
    let (relation, node) = match tokens[1].split_once('@') {
        Some((rel, node)) => (rel.to_string(), Some(Addr::new(node))),
        None => (tokens[1].to_string(), None),
    };
    if relation.is_empty() {
        return Err("missing relation name after `from`".to_string());
    }
    let mut steps = Vec::new();
    let mut i = 2;
    while i < tokens.len() {
        match tokens[i] {
            "back" | "forward" => {
                let count = tokens.get(i + 1).and_then(|t| t.parse::<usize>().ok());
                if count.is_some() {
                    i += 1;
                }
                if tokens[i - usize::from(count.is_some())] == "back" {
                    steps.push(ProqlStep::Back(count));
                } else {
                    steps.push(ProqlStep::Forward(count));
                }
            }
            "bases" => steps.push(ProqlStep::Bases),
            "nodes" => steps.push(ProqlStep::Nodes),
            "count" => steps.push(ProqlStep::Count),
            other => return Err(format!("unknown query step `{other}`")),
        }
        i += 1;
    }
    Ok(ProqlQuery {
        relation,
        node,
        steps,
    })
}

/// Evaluate a query against an assembled provenance graph.
pub fn evaluate(graph: &ProvGraph, query: &ProqlQuery) -> ProqlResult {
    // Seed set: tuple vertices of the given relation (optionally restricted to
    // a node).
    let mut current: BTreeSet<VertexId> = graph
        .vertices
        .iter()
        .filter_map(|(id, v)| match v {
            ProvVertex::Tuple {
                tuple: Some(t),
                home,
                ..
            } if t.relation() == query.relation && query.node.is_none_or(|n| n == *home) => {
                Some(*id)
            }
            _ => None,
        })
        .collect();

    for step in &query.steps {
        match step {
            ProqlStep::Back(levels) => {
                current = walk(graph, &current, *levels, Direction::Back);
            }
            ProqlStep::Forward(levels) => {
                current = walk(graph, &current, *levels, Direction::Forward);
            }
            ProqlStep::Bases => {
                current.retain(|id| {
                    matches!(
                        graph.vertices.get(id),
                        Some(ProvVertex::Tuple { is_base: true, .. })
                    )
                });
            }
            ProqlStep::Nodes => {
                let nodes: BTreeSet<Addr> = current
                    .iter()
                    .filter_map(|id| graph.vertices.get(id))
                    .map(ProvVertex::location_id)
                    .collect();
                return ProqlResult::Nodes(nodes);
            }
            ProqlStep::Count => return ProqlResult::Count(current.len()),
        }
    }
    let mut labels: Vec<String> = current
        .iter()
        .filter_map(|id| graph.vertices.get(id))
        .map(ProvVertex::label)
        .collect();
    labels.sort();
    ProqlResult::Vertices(labels)
}

#[derive(Clone, Copy)]
enum Direction {
    Back,
    Forward,
}

/// Walk the graph from a seed set. Rule-execution vertices are traversed
/// transparently (they never appear in results), so one "level" moves from
/// tuples to tuples.
fn walk(
    graph: &ProvGraph,
    seed: &BTreeSet<VertexId>,
    levels: Option<usize>,
    direction: Direction,
) -> BTreeSet<VertexId> {
    let mut result: BTreeSet<VertexId> = seed.clone();
    let mut frontier: BTreeSet<VertexId> = seed.clone();
    let max = levels.unwrap_or(usize::MAX);
    let mut level = 0usize;
    while !frontier.is_empty() && level < max {
        let mut next: BTreeSet<VertexId> = BTreeSet::new();
        for v in &frontier {
            let neighbors = match direction {
                Direction::Back => graph.predecessors(*v),
                Direction::Forward => graph.successors(*v),
            };
            for n in neighbors {
                // Step through rule-execution vertices.
                match graph.vertices.get(&n) {
                    Some(ProvVertex::RuleExec { .. }) => {
                        let second = match direction {
                            Direction::Back => graph.predecessors(n),
                            Direction::Forward => graph.successors(n),
                        };
                        for t in second {
                            if result.insert(t) {
                                next.insert(t);
                            }
                        }
                    }
                    Some(_) if result.insert(n) => {
                        next.insert(n);
                    }
                    Some(_) | None => {}
                }
            }
        }
        frontier = next;
        level += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ProvenanceSystem;
    use nt_runtime::{Firing, Tuple, Value, BASE_RULE};

    fn tuple(rel: &str, node: &str, x: i64) -> Tuple {
        Tuple::new(rel, vec![Value::addr(node), Value::Int(x)])
    }

    fn graph() -> ProvGraph {
        let mut sys = ProvenanceSystem::new(["n1", "n2"]);
        let link = tuple("link", "n1", 5);
        let cost = tuple("cost", "n1", 5);
        let min_cost = tuple("minCost", "n2", 5);
        for f in [
            Firing {
                rule: BASE_RULE.into(),
                node: "n1".into(),
                head: link.clone(),
                head_home: "n1".into(),
                inputs: Default::default(),
                insert: true,
            },
            Firing {
                rule: "r1".into(),
                node: "n1".into(),
                head: cost.clone(),
                head_home: "n1".into(),
                inputs: [link.id()].into(),
                insert: true,
            },
            Firing {
                rule: "r3".into(),
                node: "n1".into(),
                head: min_cost.clone(),
                head_home: "n2".into(),
                inputs: [cost.id()].into(),
                insert: true,
            },
        ] {
            sys.apply_firing(&f);
        }
        ProvGraph::from_system(&sys)
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let q = parse_query("from minCost@n2 back bases").unwrap();
        assert_eq!(q.relation, "minCost");
        assert_eq!(q.node, Some(Addr::new("n2")));
        assert_eq!(q.steps, vec![ProqlStep::Back(None), ProqlStep::Bases]);

        let q = parse_query("from cost back 1 count").unwrap();
        assert_eq!(q.steps, vec![ProqlStep::Back(Some(1)), ProqlStep::Count]);

        assert!(parse_query("minCost back").is_err());
        assert!(parse_query("from minCost sideways").is_err());
    }

    #[test]
    fn back_to_bases_finds_contributing_links() {
        let g = graph();
        let q = parse_query("from minCost@n2 back bases").unwrap();
        match evaluate(&g, &q) {
            ProqlResult::Vertices(labels) => {
                assert_eq!(labels.len(), 1);
                assert!(labels[0].contains("link"));
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn forward_reaches_downstream_tuples() {
        let g = graph();
        let q = parse_query("from link forward count").unwrap();
        match evaluate(&g, &q) {
            // link, cost, minCost are all reachable going forward.
            ProqlResult::Count(n) => assert_eq!(n, 3),
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn nodes_projection_reports_locations() {
        let g = graph();
        let q = parse_query("from minCost back nodes").unwrap();
        match evaluate(&g, &q) {
            ProqlResult::Nodes(nodes) => {
                assert!(nodes.contains(&Addr::new("n1")));
                assert!(nodes.contains(&Addr::new("n2")));
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn bounded_back_walks_one_level() {
        let g = graph();
        let q = parse_query("from minCost back 1 count").unwrap();
        match evaluate(&g, &q) {
            // minCost + cost (one tuple-level upstream).
            ProqlResult::Count(n) => assert_eq!(n, 2),
            other => panic!("unexpected result {other:?}"),
        }
    }
}
