//! Property-based tests for the provenance system: applying any sequence of
//! derivation firings followed by their retractions leaves the graph empty,
//! and the assembled graph is always acyclic when derivations respect
//! stratification (inputs created before outputs).

use nt_runtime::{base_rule_sym, Firing, NodeId, Sym, Tuple, Value};
use proptest::prelude::*;
use provenance::{ProvGraph, ProvenanceSystem};

/// Build a layered set of firings: base tuples in layer 0, each derived tuple
/// in layer i uses inputs from layer i-1.
fn layered_firings(layers: usize, width: usize, nodes: usize) -> Vec<Firing> {
    let node = |i: usize| NodeId::new(&format!("n{}", (i % nodes) + 1));
    let tuple = |layer: usize, i: usize| {
        Tuple::new(
            format!("rel{layer}"),
            vec![Value::addr(node(i)), Value::Int(i as i64)],
        )
    };
    let mut firings = Vec::new();
    for i in 0..width {
        firings.push(Firing {
            rule: base_rule_sym(),
            node: node(i),
            head: tuple(0, i),
            head_home: node(i),
            inputs: Default::default(),
            insert: true,
        });
    }
    for layer in 1..layers {
        for i in 0..width {
            let input_a = tuple(layer - 1, i);
            let input_b = tuple(layer - 1, (i + 1) % width);
            firings.push(Firing {
                rule: Sym::new(&format!("r{layer}")),
                node: node(i),
                head: tuple(layer, i),
                head_home: node(i + 1),
                inputs: [input_a.id(), input_b.id()].into(),
                insert: true,
            });
        }
    }
    firings
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The assembled provenance graph of layered derivations is acyclic and
    /// has one tuple vertex per distinct tuple.
    #[test]
    fn layered_graphs_are_acyclic(layers in 1usize..5, width in 1usize..5, nodes in 1usize..4) {
        let firings = layered_firings(layers, width, nodes);
        let mut sys = ProvenanceSystem::new((1..=nodes).map(|i| format!("n{i}")));
        sys.apply_round(&firings);
        let graph = ProvGraph::from_system(&sys);
        prop_assert!(graph.is_acyclic());
        prop_assert_eq!(graph.tuple_vertex_count(), layers * width);
        prop_assert_eq!(graph.rule_exec_count(), (layers - 1) * width);
    }

    /// Applying every firing and then retracting every firing leaves no
    /// provenance state behind (incremental maintenance is lossless).
    #[test]
    fn insert_then_retract_everything_is_empty(layers in 1usize..5, width in 1usize..5) {
        let firings = layered_firings(layers, width, 3);
        let mut sys = ProvenanceSystem::new(["n1", "n2", "n3"]);
        sys.apply_round(&firings);
        prop_assert!(sys.stats().prov_entries > 0);
        for f in firings.iter().rev() {
            let mut retraction = f.clone();
            retraction.insert = false;
            sys.apply_firing(&retraction);
        }
        let stats = sys.stats();
        prop_assert_eq!(stats.prov_entries, 0);
        prop_assert_eq!(stats.rule_execs, 0);
    }

    /// Applying the same firings twice is idempotent.
    #[test]
    fn duplicate_application_is_idempotent(layers in 1usize..4, width in 1usize..4) {
        let firings = layered_firings(layers, width, 2);
        let mut once = ProvenanceSystem::new(["n1", "n2"]);
        once.apply_round(&firings);
        let mut twice = ProvenanceSystem::new(["n1", "n2"]);
        twice.apply_round(&firings);
        twice.apply_round(&firings);
        prop_assert_eq!(once.stats().prov_entries, twice.stats().prov_entries);
        prop_assert_eq!(once.stats().rule_execs, twice.stats().rule_execs);
    }
}
