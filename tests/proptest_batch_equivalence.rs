//! Batching-equivalence: a platform shipping per-(round, dest) delta batches
//! must be observationally identical to one shipping one message per tuple.
//!
//! For random topologies and random link-churn sequences, pathvector and
//! mincost runs under batched shipping reach the same fixpoint tables and an
//! isomorphic provenance graph as per-tuple shipping (the `graph_shape`
//! isomorphism helper mirrors `proptest_prov_equivalence.rs` in the
//! `provenance` crate). Only the wire packaging may differ: batched runs use
//! fewer, larger messages for the same payload bytes.

use nettrails::{NetTrails, NetTrailsConfig};
use proptest::prelude::*;
use provenance::{ProvGraph, ProvVertex};
use simnet::{Topology, TopologyEvent};

/// The structure of a provenance graph up to isomorphism on the display
/// cache: vertex ids with home/base (and rule/node for executions) plus the
/// sorted edge list. Vertex ids are content-addressed digests of resolved
/// strings, so they are stable across platform instances.
fn graph_shape(g: &ProvGraph) -> Vec<String> {
    let mut shape: Vec<String> = g
        .vertices
        .iter()
        .map(|(id, v)| match v {
            ProvVertex::Tuple { home, is_base, .. } => {
                format!("{id:?}@{home} base={is_base}")
            }
            ProvVertex::RuleExec { rule, node, .. } => {
                format!("{id:?}@{node} rule={rule}")
            }
        })
        .collect();
    shape.extend(g.edges.iter().map(|e| format!("{:?}->{:?}", e.from, e.to)));
    shape.sort();
    shape
}

/// Every stored tuple across all nodes, sorted.
fn table_dump(nt: &NetTrails) -> Vec<String> {
    let mut rows = Vec::new();
    for node in nt.nodes() {
        let engine = nt.engine(&node).expect("engine exists");
        for table in engine.database().tables() {
            for tuple in table.tuples() {
                rows.push(format!("{node}: {tuple}"));
            }
        }
    }
    rows.sort();
    rows
}

fn churned_run(
    program: &str,
    topology: &Topology,
    events: &[TopologyEvent],
    config: NetTrailsConfig,
) -> (Vec<String>, Vec<String>, u64, u64) {
    let mut nt = NetTrails::new(program, topology.clone(), config).expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    for event in events {
        nt.apply_topology_event(event);
    }
    let stats = nt.stats();
    (
        table_dump(&nt),
        graph_shape(&nt.provenance_graph()),
        stats.network.messages,
        stats.network.records,
    )
}

fn topology_for(kind: usize, size: usize) -> Topology {
    match kind % 3 {
        0 => Topology::line(2 + size % 3),
        1 => Topology::ring(3 + size % 3),
        _ => Topology::ladder(2 + size % 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_shipping_is_equivalent_to_per_tuple_shipping(
        kind in 0usize..3,
        size in 0usize..6,
        program_idx in 0usize..2,
        churn in proptest::collection::vec((0usize..8, 0usize..8), 0..4),
    ) {
        let topology = topology_for(kind, size);
        let nodes: Vec<String> = topology.nodes().map(str::to_string).collect();
        // Random link failures between existing nodes (no-ops when the pair
        // has no link are fine — the platform treats them as empty events).
        let events: Vec<TopologyEvent> = churn
            .into_iter()
            .map(|(a, b)| TopologyEvent::LinkDown {
                a: nodes[a % nodes.len()].clone(),
                b: nodes[b % nodes.len()].clone(),
            })
            .collect();
        let program = if program_idx == 0 {
            protocols::mincost::PROGRAM
        } else {
            protocols::pathvector::PROGRAM
        };

        let (batched_tables, batched_graph, batched_msgs, batched_records) =
            churned_run(program, &topology, &events, NetTrailsConfig::default());
        let (pt_tables, pt_graph, pt_msgs, pt_records) =
            churned_run(program, &topology, &events, NetTrailsConfig::without_batching());

        prop_assert_eq!(batched_tables, pt_tables);
        prop_assert_eq!(batched_graph, pt_graph);
        // Same records shipped; batching may only reduce the message count.
        prop_assert_eq!(batched_records, pt_records);
        prop_assert!(batched_msgs <= pt_msgs);
    }
}
