//! Cross-crate integration tests for the MINCOST use case: the distributed
//! NDlog computation must agree with a reference shortest-path algorithm and
//! the captured provenance must be structurally sound.

use nettrails::{NetTrails, NetTrailsConfig};
use provenance::{QueryEngine, QueryKind, QueryOptions, QueryResult};
use simnet::Topology;
use std::collections::BTreeMap;

/// Reference all-pairs shortest paths (Dijkstra from every node would be
/// overkill at this scale; Floyd–Warshall is simpler and obviously correct).
fn reference_costs(topology: &Topology) -> BTreeMap<(String, String), i64> {
    let nodes: Vec<String> = topology.nodes().map(str::to_string).collect();
    let mut dist: BTreeMap<(String, String), i64> = BTreeMap::new();
    for l in topology.links() {
        let entry = dist.entry((l.from.clone(), l.to.clone())).or_insert(l.cost);
        *entry = (*entry).min(l.cost);
    }
    for k in &nodes {
        for i in &nodes {
            for j in &nodes {
                let (Some(&ik), Some(&kj)) = (
                    dist.get(&(i.clone(), k.clone())),
                    dist.get(&(k.clone(), j.clone())),
                ) else {
                    continue;
                };
                let candidate = ik + kj;
                let entry = dist.entry((i.clone(), j.clone())).or_insert(i64::MAX);
                if candidate < *entry {
                    *entry = candidate;
                }
            }
        }
    }
    // Drop self-distances of 0 that MINCOST does not derive (it has no
    // zero-length path rule); keep i==j entries only if a real cycle exists.
    dist
}

fn run_mincost(topology: Topology) -> NetTrails {
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        topology,
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    let report = nt.run_to_fixpoint();
    assert!(!report.truncated, "MINCOST must converge");
    nt
}

fn min_costs(nt: &NetTrails) -> BTreeMap<(String, String), i64> {
    nt.relation("minCost")
        .into_iter()
        .map(|(_, t)| {
            (
                (
                    t.values()[0].as_addr().unwrap().to_string(),
                    t.values()[1].as_addr().unwrap().to_string(),
                ),
                t.values()[2].as_int().unwrap(),
            )
        })
        .collect()
}

#[test]
fn mincost_matches_reference_shortest_paths_on_standard_topologies() {
    for topology in [
        Topology::line(5),
        Topology::ring(6),
        Topology::star(5),
        Topology::ladder(4),
        Topology::random(8, 0.2, 4, 3),
    ] {
        let reference = reference_costs(&topology);
        let nt = run_mincost(topology);
        let computed = min_costs(&nt);
        for ((s, d), cost) in &computed {
            if s == d {
                continue; // round trips via a neighbour are legal derivations
            }
            assert_eq!(
                reference.get(&(s.clone(), d.clone())),
                Some(cost),
                "minCost({s},{d}) disagrees with the reference"
            );
        }
        // Completeness: every reachable pair has a minCost entry.
        for ((s, d), cost) in &reference {
            if s == d || *cost >= 255 {
                continue;
            }
            assert!(
                computed.contains_key(&(s.clone(), d.clone())),
                "missing minCost({s},{d})"
            );
        }
    }
}

#[test]
fn provenance_graph_is_acyclic_and_rooted_in_links() {
    let nt = run_mincost(Topology::ladder(3));
    let graph = nt.provenance_graph();
    assert!(graph.is_acyclic());
    assert!(graph.tuple_vertex_count() > 0);
    assert!(graph.rule_exec_count() > 0);
    // Every base vertex is a link tuple.
    for id in graph.base_vertices() {
        if let Some(provenance::ProvVertex::Tuple { tuple: Some(t), .. }) = graph.vertices.get(&id)
        {
            assert_eq!(t.relation(), "link", "base vertices are links, got {t}");
        }
    }
}

#[test]
fn every_min_cost_tuple_has_provenance_and_link_ancestry() {
    let nt = run_mincost(Topology::ring(5));
    let mut qe = QueryEngine::new();
    for (node, tuple) in nt.relation("minCost") {
        let (result, _) = qe.query(
            nt.provenance(),
            &node,
            &tuple,
            QueryKind::BaseTuples,
            &QueryOptions::default(),
        );
        let QueryResult::BaseTuples(bases) = result else {
            panic!()
        };
        assert!(!bases.is_empty(), "{tuple} has no contributing base tuples");
        for (_, base) in bases {
            let base = base.expect("base tuple content is known");
            assert_eq!(base.relation(), "link");
        }
    }
}

#[test]
fn disabling_provenance_does_not_change_protocol_results() {
    let topo = Topology::random(7, 0.3, 3, 11);
    let with = run_mincost(topo.clone());
    let mut without = NetTrails::new(
        protocols::mincost::PROGRAM,
        topo,
        NetTrailsConfig::without_provenance(),
    )
    .unwrap();
    without.seed_links_from_topology();
    without.run_to_fixpoint();
    assert_eq!(min_costs(&with), min_costs(&without));
    assert_eq!(without.stats().provenance.prov_entries, 0);
    assert!(with.stats().provenance.prov_entries > 0);
}
