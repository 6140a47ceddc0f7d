//! ProQL compiled to sessions: `NetTrails::proql` runs each `back` step as
//! lineage sessions of the distributed query protocol, and must answer what
//! the central evaluator it replaced answers.
//!
//! The oracle is that evaluator, kept here unchanged in meaning: it seeds
//! from the tuple vertices of `nt.provenance_graph()` and walks
//! predecessor lists built from the graph's edges, stepping through
//! rule-execution vertices, one tuple level per step.
//!
//! The sweep runs every shipped protocol on a small ladder, at quiescence and
//! after one link down, over every derived relation with no node and with
//! one node, through every step list of `STEPS`.
//!
//! Mutations it caught, each seeded in a copy of
//! `crates/nettrails/src/proql.rs`:
//! - `back N` issued as `max_depth` N+1: the sweep (first at
//!   `from cost@n2 back 1` of MINCOST) and `bounded_back_walks_one_level`;
//! - `bases` keeping every pruned leaf: the sweep (`from cost back 1 bases`);
//! - `@n` ignored: the sweep (`from cost@n2`),
//!   `bounded_back_walks_one_level`, `nodes_projection_reports_locations`
//!   and `a_platform_without_provenance_answers_its_tuples`;
//! - `nodes` taken from a `ParticipatingNodes` fold: the sweep
//!   (`from cost@n2 nodes`) and `nodes_projection_reports_locations`.
//!
//! One semantic choice differs from the graph walk, on purpose: seeds are
//! the engine tables' tuples, so a platform built `without_provenance`
//! answers its stored tuples with no history, where the graph, which is
//! empty, answers nothing (`a_platform_without_provenance_answers_its_tuples`).

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::{Addr, NodeId};
use provenance::proql::ProqlStep;
use provenance::{
    parse_proql, ProqlQuery, ProqlResult, ProvGraph, ProvVertex, VertexId, QUERY_CATEGORY,
};
use simnet::{Topology, TopologyEvent};
use std::collections::{BTreeMap, BTreeSet};

/// The central evaluator: the query over the assembled graph.
fn oracle(graph: &ProvGraph, query: &ProqlQuery) -> ProqlResult {
    let mut predecessors: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
    for e in &graph.edges {
        predecessors.entry(e.to).or_default().push(e.from);
    }
    let back = |v: &VertexId| predecessors.get(v).cloned().unwrap_or_default();
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
                let mut frontier = current.clone();
                let mut level = 0;
                while !frontier.is_empty() && level < levels.unwrap_or(usize::MAX) {
                    let mut next = BTreeSet::new();
                    for v in &frontier {
                        for n in back(v) {
                            // Step through rule-execution vertices.
                            let tuples = match graph.vertices.get(&n) {
                                Some(ProvVertex::RuleExec { .. }) => back(&n),
                                Some(_) => vec![n],
                                None => vec![],
                            };
                            for t in tuples {
                                if current.insert(t) {
                                    next.insert(t);
                                }
                            }
                        }
                    }
                    frontier = next;
                    level += 1;
                }
            }
            ProqlStep::Bases => current.retain(|id| {
                matches!(
                    graph.vertices.get(id),
                    Some(ProvVertex::Tuple { is_base: true, .. })
                )
            }),
            ProqlStep::Nodes => {
                return ProqlResult::Nodes(
                    current
                        .iter()
                        .filter_map(|id| graph.vertices.get(id))
                        .map(ProvVertex::location_id)
                        .collect(),
                )
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

/// The step lists of the sweep.
const STEPS: [&str; 14] = [
    "",
    "back",
    "back 1",
    "back 2",
    "back bases",
    "back nodes",
    "back count",
    "bases",
    "back 1 back 1",
    "bases back count",
    "back 1 bases",
    "nodes",
    "back 1 nodes",
    "count",
];

fn converged(source: &str, topology: Topology, config: NetTrailsConfig) -> NetTrails {
    let mut nt = NetTrails::new(source, topology, config).unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt
}

fn query(relation: &str, node: Option<&str>, steps: &str) -> ProqlQuery {
    let pattern = match node {
        Some(node) => format!("{relation}@{node}"),
        None => relation.to_string(),
    };
    parse_proql(&format!("from {pattern} {steps}")).unwrap()
}

/// Every derived relation, each with no node and with `node`, through every
/// step list: the sessions answer what the graph walk answers. Returns how
/// many queries answered a non-empty set.
fn sweep(nt: &mut NetTrails, node: &str, label: &str) -> usize {
    let derived: Vec<String> = nt
        .program()
        .catalog
        .schemas()
        .filter(|s| !s.is_base)
        .map(|s| s.name.clone())
        .collect();
    assert!(!derived.is_empty(), "{label}: no derived relation");
    let mut answered = 0;
    for relation in &derived {
        for at in [None, Some(node)] {
            for steps in STEPS {
                let q = query(relation, at, steps);
                let expected = oracle(&nt.provenance_graph(), &q);
                let got = nt.proql(&q);
                assert_eq!(got, expected, "{label}: from {relation} {at:?} {steps}");
                answered += usize::from(match &got {
                    ProqlResult::Vertices(v) => !v.is_empty(),
                    ProqlResult::Nodes(n) => !n.is_empty(),
                    ProqlResult::Count(c) => *c > 0,
                });
            }
        }
    }
    answered
}

#[test]
fn sessions_answer_what_the_graph_walk_answers() {
    for spec in protocols::all_protocols() {
        let mut nt = converged(spec.source, Topology::ladder(3), NetTrailsConfig::default());
        let answered = sweep(&mut nt, "n2", spec.name);
        assert!(answered > 0, "{}: every answer was empty", spec.name);
        nt.apply_topology_event(&TopologyEvent::LinkDown {
            a: "n1".into(),
            b: "n2".into(),
        });
        sweep(&mut nt, "n2", &format!("{} after n1-n2 down", spec.name));
    }
}

/// MINCOST on a three-node line: every `minCost` tuple at `n2` rests on
/// links, and the answer is the graph walk's.
fn mincost_line() -> NetTrails {
    converged(
        protocols::mincost::PROGRAM,
        Topology::line(3),
        NetTrailsConfig::default(),
    )
}

#[test]
fn back_to_bases_finds_contributing_links() {
    let mut nt = mincost_line();
    let q = parse_proql("from minCost@n2 back bases").unwrap();
    let ProqlResult::Vertices(labels) = nt.proql(&q) else {
        panic!("a vertex set")
    };
    assert!(!labels.is_empty());
    assert!(labels.iter().all(|l| l.starts_with("link(")), "{labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("link(n2,")),
        "{labels:?}"
    );
    assert_eq!(
        ProqlResult::Vertices(labels),
        oracle(&nt.provenance_graph(), &q)
    );
}

#[test]
fn nodes_projection_reports_locations() {
    let mut nt = mincost_line();
    // minCost(n1,n3) is derived through n2: its history spans both nodes.
    let q = parse_proql("from minCost@n1 back nodes").unwrap();
    let ProqlResult::Nodes(nodes) = nt.proql(&q) else {
        panic!("a node set")
    };
    assert!(nodes.contains(&Addr::new("n1")));
    assert!(nodes.contains(&Addr::new("n2")));
    // With no step upstream, the set is the seeds' own home.
    let q = parse_proql("from minCost@n1 nodes").unwrap();
    let expected: BTreeSet<NodeId> = [NodeId::new("n1")].into();
    assert_eq!(nt.proql(&q), ProqlResult::Nodes(expected));
}

#[test]
fn bounded_back_walks_one_level() {
    let mut nt = mincost_line();
    let count =
        |nt: &mut NetTrails, steps: &str| match nt.proql(&query("minCost", Some("n1"), steps)) {
            ProqlResult::Count(n) => n,
            other => panic!("a count, not {other:?}"),
        };
    let seeds = count(&mut nt, "count");
    let one = count(&mut nt, "back 1 count");
    let all = count(&mut nt, "back count");
    assert!(seeds < one && one < all, "{seeds} < {one} < {all}");
    // One level up from minCost is its cost tuples; links are two levels up.
    let ProqlResult::Vertices(labels) = nt.proql(&query("minCost", Some("n1"), "back 1")) else {
        panic!("a vertex set")
    };
    assert!(labels.iter().any(|l| l.starts_with("cost(")), "{labels:?}");
    assert!(
        labels
            .iter()
            .all(|l| l.starts_with("cost(n1,") || l.starts_with("minCost(n1,")),
        "{labels:?}"
    );
}

/// A `back` step is paid for in `prov-query` frames on the executor's
/// traffic; selecting and filtering seeds ships nothing.
#[test]
fn back_steps_are_charged_as_query_sessions() {
    let mut nt = mincost_line();
    let shipped = |nt: &NetTrails| {
        let traffic = nt.query_executor().traffic();
        (
            traffic.category_messages(QUERY_CATEGORY),
            traffic.category_bytes(QUERY_CATEGORY),
        )
    };
    let before = shipped(&nt);
    nt.proql(&parse_proql("from minCost bases count").unwrap());
    assert_eq!(shipped(&nt), before, "no step upstream, no frame");
    nt.proql(&parse_proql("from minCost back bases").unwrap());
    let after = shipped(&nt);
    assert!(
        after.0 > before.0 && after.1 > before.1,
        "{before:?} -> {after:?}"
    );
}

#[test]
fn a_platform_without_provenance_answers_its_tuples() {
    let mut nt = converged(
        protocols::mincost::PROGRAM,
        Topology::line(3),
        NetTrailsConfig::without_provenance(),
    );
    let mut stored: Vec<String> = nt
        .relation_at("n1", "minCost")
        .iter()
        .map(ToString::to_string)
        .collect();
    stored.sort();
    assert!(!stored.is_empty());
    let q = parse_proql("from minCost@n1 back").unwrap();
    assert_eq!(nt.proql(&q), ProqlResult::Vertices(stored));
    assert_eq!(
        oracle(&nt.provenance_graph(), &q),
        ProqlResult::Vertices(vec![])
    );
    let q = parse_proql("from minCost@n1 back bases").unwrap();
    assert_eq!(nt.proql(&q), ProqlResult::Vertices(vec![]));
}
