//! Integration tests for the distributed provenance query protocol and its
//! optimizations, exercised over real protocol runs. Queries execute in
//! [`provenance::QueryMode::Distributed`] by default: every cross-node hop
//! is a `prov-query` frame through the simulated network, and latency is
//! measured off the network clock.

use nettrails::{NetTrails, NetTrailsConfig};
use provenance::{parse_proql, QueryKind, QueryMode, QueryResult, TraversalOrder};
use simnet::Topology;

fn platform() -> NetTrails {
    let mut nt = NetTrails::new(
        protocols::pathvector::PROGRAM,
        Topology::ladder(3),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt
}

#[test]
fn derivation_counts_are_positive_and_consistent_with_lineage() {
    let mut nt = platform();
    for (node, tuple) in nt.relation("bestPathCost").into_iter().take(10) {
        let (count, _) = nt
            .query(&tuple)
            .from_node(&node)
            .kind(QueryKind::DerivationCount)
            .run();
        let QueryResult::DerivationCount(count) = count else {
            panic!()
        };
        assert!(count >= 1, "{tuple} should have at least one derivation");
        let (lineage, _) = nt.query(&tuple).from_node(&node).run();
        let QueryResult::Lineage(tree) = lineage else {
            panic!()
        };
        assert!(!tree.derivations.is_empty());
        assert!(tree.size() as u64 >= count.min(1));
    }
}

#[test]
fn base_tuples_of_protocol_state_are_always_links() {
    let mut nt = platform();
    for (node, tuple) in nt.relation("path").into_iter().take(20) {
        let (result, _) = nt
            .query(&tuple)
            .from_node(&node)
            .kind(QueryKind::BaseTuples)
            .run();
        let QueryResult::BaseTuples(bases) = result else {
            panic!()
        };
        assert!(!bases.is_empty());
        for (_, base) in bases {
            assert_eq!(base.unwrap().relation(), "link");
        }
    }
}

#[test]
fn caching_reduces_traffic_for_repeated_and_overlapping_queries() {
    let mut nt = platform();
    let targets: Vec<_> = nt.relation("bestPathCost").into_iter().take(6).collect();

    // Without caching: query everything twice and count messages.
    let mut uncached_messages = 0;
    for (node, tuple) in targets.iter().chain(targets.iter()) {
        let (_, stats) = nt.query(tuple).from_node(node).run();
        uncached_messages += stats.messages;
    }
    // With caching.
    nt.clear_query_cache();
    let mut cached_messages = 0;
    for (node, tuple) in targets.iter().chain(targets.iter()) {
        let (_, stats) = nt.query(tuple).from_node(node).cached().run();
        cached_messages += stats.messages;
    }
    assert!(
        cached_messages < uncached_messages,
        "caching should reduce traffic: {cached_messages} vs {uncached_messages}"
    );
}

#[test]
fn pruning_bounds_the_result_and_reduces_traffic() {
    let mut nt = platform();
    let (node, tuple) = nt
        .relation("bestPathCost")
        .into_iter()
        .max_by_key(|(_, t)| t.values()[2].as_int())
        .unwrap();
    let (full, full_stats) = nt.query(&tuple).from_node(&node).run();
    let (pruned, pruned_stats) = nt
        .query(&tuple)
        .from_node(&node)
        .max_depth(2)
        .max_derivations(1)
        .run();
    let (QueryResult::Lineage(full), QueryResult::Lineage(pruned)) = (full, pruned) else {
        panic!()
    };
    assert!(pruned.size() <= full.size());
    assert!(pruned.depth() <= 3);
    assert!(pruned_stats.messages <= full_stats.messages);
    assert!(pruned_stats.records <= full_stats.records);
}

#[test]
fn traversal_orders_agree_on_results_and_differ_on_measured_latency() {
    let mut nt = platform();
    // The costliest route: its proof spans several hops, so there is
    // something for the fan-out to overlap.
    let (node, tuple) = nt
        .relation("bestPathCost")
        .into_iter()
        .max_by_key(|(_, t)| t.values()[2].as_int())
        .unwrap();
    let (r1, s1) = nt
        .query(&tuple)
        .from_node(&node)
        .kind(QueryKind::BaseTuples)
        .traversal(TraversalOrder::DepthFirst)
        .run();
    let (r2, s2) = nt
        .query(&tuple)
        .from_node(&node)
        .kind(QueryKind::BaseTuples)
        .traversal(TraversalOrder::BreadthFirst)
        .run();
    assert_eq!(r1, r2, "traversal order must not change the answer");
    // Same protocol records either way; breadth-first coalesces same-flush
    // records into no more frames and, on a multi-hop proof, finishes
    // strictly sooner on the simulated clock: the executor overlaps hops.
    assert!(s1.records > 2, "a multi-hop proof ({} records)", s1.records);
    assert_eq!(s1.records, s2.records);
    assert!(s2.messages <= s1.messages);
    assert!(
        s2.latency_ms < s1.latency_ms,
        "BFS {}ms vs DFS {}ms",
        s2.latency_ms,
        s1.latency_ms
    );
}

/// Distributed sessions and the in-process oracle agree on answers and
/// work counts over a real protocol run (spot check; the exhaustive version
/// is `tests/proptest_query_equivalence.rs`).
#[test]
fn distributed_mode_matches_local_mode() {
    let mut nt = platform();
    let targets: Vec<_> = nt.relation("bestPathCost").into_iter().take(6).collect();
    for (node, tuple) in &targets {
        for kind in [
            QueryKind::Lineage,
            QueryKind::BaseTuples,
            QueryKind::ParticipatingNodes,
            QueryKind::DerivationCount,
        ] {
            let (dist, dist_stats) = nt.query(tuple).from_node(node).kind(kind).run();
            let (local, local_stats) = nt
                .query(tuple)
                .from_node(node)
                .kind(kind)
                .mode(QueryMode::Local)
                .run();
            assert_eq!(dist, local);
            assert_eq!(dist_stats.vertices_visited, local_stats.vertices_visited);
            assert_eq!(dist_stats.messages, local_stats.messages, "DFS frame count");
        }
    }
}

#[test]
fn proql_queries_agree_with_the_query_engine() {
    let mut nt = platform();
    // ProQL: all base tuples reachable backwards from bestPathCost tuples at n1.
    let q = parse_proql("from bestPathCost@n1 back bases").unwrap();
    let proql_bases = match nt.proql(&q) {
        provenance::ProqlResult::Vertices(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    assert!(!proql_bases.is_empty());
    assert!(proql_bases.iter().all(|l| l.contains("link(")));

    // The per-tuple query engine agrees that every contributing base tuple of
    // an n1 tuple appears in the ProQL result.
    let targets: Vec<_> = nt
        .relation("bestPathCost")
        .into_iter()
        .filter(|(n, _)| n == "n1")
        .collect();
    for (node, tuple) in targets {
        let (result, _) = nt
            .query(&tuple)
            .from_node(&node)
            .kind(QueryKind::BaseTuples)
            .run();
        let QueryResult::BaseTuples(bases) = result else {
            panic!()
        };
        for (_, base) in bases {
            let label = base.unwrap().to_string();
            assert!(
                proql_bases.contains(&label),
                "{label} missing from ProQL result"
            );
        }
    }
}
