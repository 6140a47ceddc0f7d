//! Shared harness of the provenance equivalence suites: a deterministic pool
//! of candidate firings over a small multi-node network, plus the
//! graph-shape projection the suites compare up to isomorphism.
//!
//! Used by `proptest_prov_equivalence.rs` (incremental churn vs scratch
//! rebuild), `proptest_sharded_equivalence.rs` (sharded vs single-shard
//! maintenance) and `proptest_home_index.rs` (keyed vertex reads vs the
//! any-store scan); `size_independence.rs` borrows [`base_firing`].

use nt_runtime::{base_rule_sym, Firing, NodeId, Sym, Tuple, Value};
use provenance::ProvGraph;

/// The nodes of the harness network. Eight nodes so that shard counts 2 and
/// 4 both split them across several shards.
pub const NODES: [&str; 8] = ["n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"];

pub fn node(i: usize) -> NodeId {
    NodeId::new(NODES[i % NODES.len()])
}

pub fn tuple(layer: usize, i: usize) -> Tuple {
    Tuple::new(
        format!("rel{layer}"),
        vec![Value::addr(node(i)), Value::Int(i as i64)],
    )
}

/// The environment inserting (or deleting) the base fact `head` at `home`.
pub fn base_firing(head: &Tuple, home: NodeId, insert: bool) -> Firing {
    Firing {
        rule: base_rule_sym(),
        node: home,
        head: head.clone(),
        head_home: home,
        inputs: Default::default(),
        input_tuples: vec![],
        insert,
    }
}

/// A deterministic pool of candidate firings: `width` base tuples in layer 0,
/// and for each later layer one derived firing per position joining two
/// layer-below tuples, plus an alternative derivation every third position
/// (so some heads have multiple prov entries). Heads are homed one node over
/// from the executing node, so derived firings cross nodes (and shards).
pub fn firing_pool(layers: usize, width: usize) -> Vec<Firing> {
    let mut pool = Vec::new();
    for i in 0..width {
        pool.push(base_firing(&tuple(0, i), node(i), true));
    }
    for layer in 1..layers {
        for i in 0..width {
            let a = tuple(layer - 1, i);
            let b = tuple(layer - 1, (i + 1) % width);
            pool.push(Firing {
                rule: Sym::new(&format!("r{layer}")),
                node: node(i),
                head: tuple(layer, i),
                head_home: node(i + 1),
                inputs: [a.id(), b.id()].into(),
                input_tuples: vec![a.clone(), b],
                insert: true,
            });
            if i % 3 == 0 {
                // Alternative derivation of the same head from one input.
                pool.push(Firing {
                    rule: Sym::new(&format!("alt{layer}")),
                    node: node(i + 1),
                    head: tuple(layer, i),
                    head_home: node(i + 1),
                    inputs: [a.id()].into(),
                    input_tuples: vec![a],
                    insert: true,
                });
            }
        }
    }
    pool
}

pub fn retraction_of(f: &Firing) -> Firing {
    let mut r = f.clone();
    r.insert = false;
    // Engines ship retractions without input tuple contents.
    r.input_tuples.clear();
    r
}

/// The structure of a graph up to isomorphism on the display cache: vertex
/// ids with their home and base flag (and rule/node for executions), plus the
/// sorted edge list. Tuple *contents* are deliberately excluded — they are a
/// best-effort display cache whose population is order-dependent (a store
/// drops a tuple's content when its vertex dies, even if a neighbour
/// execution registered the same content earlier).
pub fn graph_shape(g: &ProvGraph) -> Vec<String> {
    let mut shape: Vec<String> = g
        .vertices
        .iter()
        .map(|(id, v)| match v {
            provenance::ProvVertex::Tuple { home, is_base, .. } => {
                format!("{id:?}@{home} base={is_base}")
            }
            provenance::ProvVertex::RuleExec { rule, node, .. } => {
                format!("{id:?}@{node} rule={rule}")
            }
        })
        .collect();
    shape.extend(g.edges.iter().map(|e| format!("{:?}->{:?}", e.from, e.to)));
    shape
}
