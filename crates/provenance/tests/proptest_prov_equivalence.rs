//! Equivalence of incremental provenance maintenance and recomputation.
//!
//! The interned, arena-backed [`ProvenanceSystem`] is maintained by applying
//! insert/retract firings in whatever order the engines emit them. This suite
//! drives it with random insert/delete churn and checks that the resulting
//! provenance graph is exactly the graph a fresh system reaches when it
//! replays only the *surviving* firings once, in canonical order — the
//! provenance-layer mirror of `proptest_slot_equivalence.rs` in `nt-runtime`.
//!
//! Because the stores are set-semantics tables keyed by content-addressed
//! identifiers, the surviving state of each firing is decided by its last
//! operation (insert ⇒ present, retract ⇒ absent), independent of how much
//! churn happened in between and of arena slot reuse inside the stores. A
//! vertex holds its own tuple, so the graphs, the stores and their size
//! counters are equal outright, tuple contents included.
//!
//! The firing pool lives in `tests/common`, shared with the home-index
//! suite.

mod common;

use common::{firing_pool, retraction_of, NODES};
use proptest::prelude::*;
use provenance::{ProvGraph, ProvenanceSystem, SystemStats};

/// Everything `stats()` counts except how many firings it took to get there.
fn maintained(system: &ProvenanceSystem) -> SystemStats {
    SystemStats {
        firings_applied: 0,
        retractions_applied: 0,
        ..system.stats()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/delete churn converges to the rebuild-from-scratch
    /// reference graph.
    #[test]
    fn churned_system_matches_scratch_rebuild(
        layers in 1usize..4,
        width in 1usize..5,
        ops in proptest::collection::vec((0usize..64, any::<bool>()), 0..80),
    ) {
        let pool = firing_pool(layers, width);
        // Last operation per pool entry decides survival (set semantics).
        let mut surviving = vec![false; pool.len()];
        let mut churned = ProvenanceSystem::new(NODES);
        for (raw_idx, insert) in ops {
            let idx = raw_idx % pool.len();
            if insert {
                churned.apply_firing(&pool[idx]);
            } else {
                churned.apply_firing(&retraction_of(&pool[idx]));
            }
            surviving[idx] = insert;
        }

        let mut scratch = ProvenanceSystem::new(NODES);
        for (idx, f) in pool.iter().enumerate() {
            if surviving[idx] {
                scratch.apply_firing(f);
            }
        }

        let churned_graph = ProvGraph::from_system(&churned);
        let scratch_graph = ProvGraph::from_system(&scratch);
        prop_assert!(churned_graph.is_acyclic());
        prop_assert_eq!(churned_graph, scratch_graph);
        prop_assert_eq!(maintained(&churned), maintained(&scratch));
    }

    /// Store-level canonical equality: per-node stores compare equal to the
    /// scratch stores regardless of arena history, and their content digests
    /// agree (the digest hashes resolved strings, never intern ids).
    #[test]
    fn per_store_state_matches_scratch_rebuild(
        ops in proptest::collection::vec((0usize..64, any::<bool>()), 0..60),
    ) {
        let pool = firing_pool(3, 3);
        let mut surviving = vec![false; pool.len()];
        let mut churned = ProvenanceSystem::new(NODES);
        for (raw_idx, insert) in ops {
            let idx = raw_idx % pool.len();
            if insert {
                churned.apply_firing(&pool[idx]);
            } else {
                churned.apply_firing(&retraction_of(&pool[idx]));
            }
            surviving[idx] = insert;
        }
        let mut scratch = ProvenanceSystem::new(NODES);
        for (idx, f) in pool.iter().enumerate() {
            if surviving[idx] {
                scratch.apply_firing(f);
            }
        }
        for name in NODES {
            let a = churned.store(name).unwrap();
            let b = scratch.store(name).unwrap();
            prop_assert_eq!(a, b);
            prop_assert_eq!(a.content_digest(), b.content_digest());
        }
        let counted = |s: SystemStats| {
            (s.prov_entries, s.rule_execs, s.tuple_vertices, s.bytes)
        };
        prop_assert_eq!(counted(churned.stats()), counted(scratch.stats()));
    }
}
