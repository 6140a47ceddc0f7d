//! Sharded maintenance is invisible to the provenance graph.
//!
//! The shard router partitions every round's firing stream by `head_home`,
//! maintains the home halves shard-parallel and exchanges cross-shard
//! `ruleExec` halves through per-destination maintenance batches. This suite
//! drives single-shard and sharded (S ∈ {2, 4}) systems with the *same*
//! random insert/retract churn — chunked into random round sizes, so the
//! two-phase pipeline sees realistic multi-firing rounds — and checks that
//! the resulting provenance graphs are equal, the per-store content digests
//! identical, and the aggregate stats and cross-node maintenance traffic
//! bit-identical.
//!
//! Reuses the firing pool of `tests/common`, the same harness as the
//! churn-vs-scratch equivalence suite.

mod common;

use common::{firing_pool, retraction_of, NODES};
use nt_runtime::Firing;
use proptest::prelude::*;
use provenance::{ProvGraph, ProvenanceSystem};

/// Chunk `ops` into rounds at the given cut points and apply each round
/// through the round pipeline (partition, home phase, batch exchange, exec
/// phase). `shards == 1` exercises the sequential reference path.
fn apply_chunked(shards: usize, stream: &[Firing], round_size: usize) -> ProvenanceSystem {
    let mut system = ProvenanceSystem::with_shards(NODES, shards);
    for round in stream.chunks(round_size.max(1)) {
        system.apply_round(round);
    }
    system
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/retract churn yields the provenance graph of the
    /// single-shard path for S ∈ {2, 4}, regardless of how the stream is
    /// chunked into rounds.
    #[test]
    fn sharded_churn_matches_single_shard(
        layers in 1usize..4,
        width in 1usize..6,
        ops in proptest::collection::vec((0usize..128, any::<bool>()), 0..120),
        round_size in 1usize..40,
    ) {
        let pool = firing_pool(layers, width);
        let stream: Vec<Firing> = ops
            .into_iter()
            .map(|(raw_idx, insert)| {
                let f = &pool[raw_idx % pool.len()];
                if insert { f.clone() } else { retraction_of(f) }
            })
            .collect();

        let single = apply_chunked(1, &stream, round_size);
        let single_graph = ProvGraph::from_system(&single);
        let single_stats = single.stats();

        for shards in [2usize, 4] {
            let sharded = apply_chunked(shards, &stream, round_size);
            // The same graph, tuple contents included.
            let sharded_graph = ProvGraph::from_system(&sharded);
            prop_assert!(sharded_graph.is_acyclic());
            prop_assert_eq!(&sharded_graph, &single_graph);
            // Aggregate stats and the system digest are bit-identical.
            prop_assert_eq!(&sharded.stats(), &single_stats);
            prop_assert_eq!(sharded.content_digest(), single.content_digest());
            // Cross-node maintenance traffic is a placement metric,
            // independent of sharding.
            prop_assert_eq!(sharded.maintenance_traffic(), single.maintenance_traffic());
            // Per-store canonical content matches store by store.
            for name in NODES {
                prop_assert_eq!(
                    sharded.store(name).unwrap().content_digest(),
                    single.store(name).unwrap().content_digest()
                );
            }
        }
    }

    /// Round chunking itself is immaterial: one big round and per-firing
    /// rounds reach the same sharded state.
    #[test]
    fn round_boundaries_do_not_change_the_result(
        ops in proptest::collection::vec((0usize..64, any::<bool>()), 0..80),
    ) {
        let pool = firing_pool(3, 4);
        let stream: Vec<Firing> = ops
            .into_iter()
            .map(|(raw_idx, insert)| {
                let f = &pool[raw_idx % pool.len()];
                if insert { f.clone() } else { retraction_of(f) }
            })
            .collect();
        for shards in [2usize, 4] {
            let one_round = apply_chunked(shards, &stream, stream.len().max(1));
            let per_firing = apply_chunked(shards, &stream, 1);
            prop_assert_eq!(one_round.content_digest(), per_firing.content_digest());
            prop_assert_eq!(one_round.stats(), per_firing.stats());
        }
    }
}
