//! A vertex lookup is a keyed read, and it answers exactly as the scan did.
//!
//! `ProvenanceSystem::vertex_home` reads each shard's `vid → store` home
//! index, and `ProvenanceSystem::tuple_at` reads the store of the node it is
//! given before anything else. Both replaced a `find` over every store of
//! every shard. That scan lives on here as the oracle: after every round of
//! random insert/retract churn, at S ∈ {1, 2, 4}, both reads must equal it
//! for every vid the stream could ever mention — homed, multi-homed, dropped
//! or never homed at all.
//!
//! The firing pool is the shared one of `tests/common` plus re-homed copies,
//! so that one vid is regularly homed at several nodes at once (the product
//! reaches that state when one base fact is inserted at two nodes). The scan
//! then returns the first store in (shard, creation) order, and dropping that
//! one must fall to the next.

#[allow(dead_code)]
mod common;

use common::{base_firing, firing_pool, node, retraction_of, tuple, NODES};
use nt_runtime::{base_rule_sym, Firing, NodeId, Tuple, TupleId};
use proptest::prelude::*;
use provenance::{ProvenanceShard, ProvenanceSystem};
use std::collections::BTreeSet;

/// The oracle for `vertex_home`: the first store, in (shard, creation)
/// order, whose `prov` table has the vertex.
fn scan_home(system: &ProvenanceSystem, vid: TupleId) -> Option<NodeId> {
    system
        .shards()
        .flat_map(ProvenanceShard::stores)
        .find(|s| s.has_vertex(vid))
        .map(|s| s.node)
}

/// The oracle for `tuple_at`: the tuple of the first vertex of `vid` in any
/// store.
fn scan_tuple(system: &ProvenanceSystem, vid: TupleId) -> Option<&Tuple> {
    system
        .shards()
        .flat_map(ProvenanceShard::stores)
        .find_map(|s| s.vertex(vid))
        .map(|(tuple, _)| tuple)
}

/// Both reads equal the scan for every vid of `universe`, whichever node the
/// tuple read is hinted at (a node without a store included).
fn assert_reads_match_the_scan(system: &ProvenanceSystem, universe: &BTreeSet<TupleId>, at: &str) {
    for &vid in universe {
        assert_eq!(
            system.vertex_home(vid),
            scan_home(system, vid),
            "vertex_home({vid}) at S={} {at}",
            system.num_shards()
        );
        let content = scan_tuple(system, vid);
        for hint in NODES.iter().copied().chain(["nowhere"]) {
            assert_eq!(
                system.tuple_at(hint.into(), vid),
                content,
                "tuple_at({hint}, {vid}) at S={} {at}",
                system.num_shards()
            );
        }
    }
}

/// The firing homed at `home` instead (a base fact also executes there).
fn rehomed(f: &Firing, home: NodeId) -> Firing {
    let mut f = f.clone();
    if f.rule == base_rule_sym() {
        f.node = home;
    }
    f.head_home = home;
    f
}

/// The shared pool plus, for every firing, copies homed two and five nodes
/// over: three candidate homes per vid, spread over the shards.
fn multi_homed_pool(layers: usize, width: usize) -> Vec<Firing> {
    let pool = firing_pool(layers, width);
    let mut all = pool.clone();
    for (i, f) in pool.iter().enumerate() {
        all.push(rehomed(f, node(i + 2)));
        all.push(rehomed(f, node(i + 5)));
    }
    all
}

/// Every vid the pool can home or mention as an input, plus one it cannot.
fn universe_of(pool: &[Firing]) -> BTreeSet<TupleId> {
    let mut vids: BTreeSet<TupleId> = pool
        .iter()
        .flat_map(|f| std::iter::once(f.head.id()).chain(f.inputs.iter().copied()))
        .collect();
    vids.insert(TupleId(0xdead));
    vids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn indexed_reads_match_the_scan_after_every_round(
        layers in 1usize..4,
        width in 1usize..6,
        ops in proptest::collection::vec((0usize..512, any::<bool>()), 0..160),
        round_size in 1usize..24,
    ) {
        let pool = multi_homed_pool(layers, width);
        let universe = universe_of(&pool);
        let stream: Vec<Firing> = ops
            .into_iter()
            .map(|(raw_idx, insert)| {
                let f = &pool[raw_idx % pool.len()];
                if insert { f.clone() } else { retraction_of(f) }
            })
            .collect();
        for shards in [1usize, 2, 4] {
            let mut system = ProvenanceSystem::with_shards(NODES, shards);
            assert_reads_match_the_scan(&system, &universe, "before any round");
            for (round, firings) in stream.chunks(round_size).enumerate() {
                system.apply_round(firings);
                assert_reads_match_the_scan(&system, &universe, &format!("after round {round}"));
            }
        }
    }
}

/// One base fact inserted at three nodes, then deleted in every order: the
/// home is always the first remaining store in scan order, and `None` only
/// once the last one is gone.
#[test]
fn a_fact_homed_at_several_nodes_falls_to_the_next_home_when_one_is_deleted() {
    let t = tuple(0, 0);
    let universe: BTreeSet<TupleId> = [t.id()].into();
    let homes = [node(4), node(0), node(2)];
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for shards in [1usize, 2, 4] {
        for order in orders {
            let mut system = ProvenanceSystem::with_shards(NODES, shards);
            for home in homes {
                system.apply_firing(&base_firing(&t, home, true));
                assert_reads_match_the_scan(&system, &universe, "while inserting");
            }
            let mut left: Vec<NodeId> = homes.to_vec();
            for i in order {
                system.apply_firing(&base_firing(&t, homes[i], false));
                left.retain(|n| *n != homes[i]);
                assert_reads_match_the_scan(&system, &universe, &format!("deleting {order:?}"));
                match system.vertex_home(t.id()) {
                    Some(home) => assert!(left.contains(&home), "{home} of {left:?}"),
                    None => assert!(left.is_empty(), "no home, yet homed at {left:?}"),
                }
            }
        }
    }
}

/// The first of two homes is deleted: the second answers, not `None`.
#[test]
fn deleting_the_first_home_leaves_the_second() {
    let t = tuple(0, 0);
    let mut system = ProvenanceSystem::with_shards(NODES, 1);
    system.apply_firing(&base_firing(&t, node(0), true));
    system.apply_firing(&base_firing(&t, node(1), true));
    assert_eq!(system.vertex_home(t.id()), Some(node(0)));
    system.apply_firing(&base_firing(&t, node(0), false));
    assert_eq!(system.vertex_home(t.id()), Some(node(1)));
    assert_eq!(system.tuple_at(node(0), t.id()), Some(&t));
    system.apply_firing(&base_firing(&t, node(1), false));
    assert_eq!(system.vertex_home(t.id()), None);
    assert_eq!(system.tuple_at(node(1), t.id()), None);
}

/// A store moves its last vertex into the arena slot of a dropped one; the
/// index follows vids, not slots.
#[test]
fn a_vertex_recreated_into_a_recycled_slot_is_found_again() {
    let (a, b, c) = (tuple(0, 0), tuple(0, 1), tuple(0, 2));
    let universe: BTreeSet<TupleId> = [a.id(), b.id(), c.id()].into();
    for shards in [1usize, 2, 4] {
        let mut system = ProvenanceSystem::with_shards(NODES, shards);
        let steps = [
            base_firing(&a, node(0), true),
            base_firing(&b, node(0), true),
            // `b` moves into the slot `a` frees.
            base_firing(&a, node(0), false),
            base_firing(&c, node(0), true),
            base_firing(&a, node(1), true),
            base_firing(&c, node(0), false),
            base_firing(&a, node(0), true),
        ];
        for (i, step) in steps.iter().enumerate() {
            system.apply_firing(step);
            assert_reads_match_the_scan(&system, &universe, &format!("after step {i}"));
        }
        assert_eq!(system.vertex_home(b.id()), Some(node(0)));
        assert_eq!(system.vertex_home(c.id()), None);
        assert!(system.vertex_home(a.id()).is_some());
    }
}
