//! Shared harness of the provenance equivalence suites: a deterministic pool
//! of candidate firings over a small multi-node network.
//!
//! Used by `proptest_prov_equivalence.rs` (incremental churn vs scratch
//! rebuild) and `proptest_home_index.rs` (keyed vertex reads vs the
//! any-store scan); `size_independence.rs` borrows [`base_firing`].

use nt_runtime::{base_rule_sym, Firing, NodeId, Sym, Tuple, Value};

/// The nodes of the harness network.
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
        insert,
    }
}

/// A deterministic pool of candidate firings: `width` base tuples in layer 0,
/// and for each later layer one derived firing per position joining two
/// layer-below tuples, plus an alternative derivation every third position
/// (so some heads have multiple prov entries). Heads are homed one node over
/// from the executing node, so derived firings cross nodes.
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
    r
}
