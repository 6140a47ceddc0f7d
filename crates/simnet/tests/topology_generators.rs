//! Scenario-suite topology generators: seeded determinism, node/edge counts
//! and degree bounds for fat-tree, AS-level internet and small-world graphs,
//! plus the adjacency-iterator API.

use proptest::prelude::*;
use simnet::{MobilityModel, RandomWaypoint, Topology};

#[test]
fn fat_tree_counts_and_degrees() {
    let k = 4;
    let t = Topology::fat_tree(k, 7);
    // (k/2)^2 core + k pods * (k/2 agg + k/2 edge) + k * (k/2)^2 hosts.
    assert_eq!(t.node_count(), 4 + 16 + 16);
    // 3k^3/4 bidirectional links = 3k^3/2 directed.
    assert_eq!(t.link_count(), 96);
    for node in t.nodes() {
        let deg = t.degree(node);
        if node.contains('h') {
            assert_eq!(deg, 1, "host {node} must hang off one edge switch");
        } else {
            assert_eq!(deg, k, "switch {node} must have degree k");
        }
    }
}

#[test]
fn fat_tree_is_seed_deterministic() {
    assert_eq!(Topology::fat_tree(8, 42), Topology::fat_tree(8, 42));
    assert_ne!(Topology::fat_tree(8, 42), Topology::fat_tree(8, 43));
}

#[test]
fn internet_as_counts_and_degrees() {
    let (n, m) = (200, 2);
    let t = Topology::internet_as(n, m, 11);
    assert_eq!(t.node_count(), n);
    // Seed clique C(m+1,2) + m new edges per later node, times 2 directions.
    let undirected = (m + 1) * m / 2 + (n - m - 1) * m;
    assert_eq!(t.link_count(), 2 * undirected);
    let mut max_deg = 0;
    for node in t.nodes() {
        let deg = t.degree(node);
        assert!(deg >= m, "{node} attached with at least m links");
        max_deg = max_deg.max(deg);
    }
    // Preferential attachment grows hubs far above the minimum degree.
    assert!(max_deg >= 4 * m, "expected hubs, max degree was {max_deg}");
    for l in t.links() {
        assert!((1..=5).contains(&l.cost), "tiered costs live in 1..=5");
    }
}

#[test]
fn small_world_counts_and_degrees() {
    let (n, k) = (120, 6);
    let t = Topology::small_world(n, k, 15, 3);
    assert_eq!(t.node_count(), n);
    // Rewiring preserves the edge count exactly.
    assert_eq!(t.link_count(), n * k);
    for node in t.nodes() {
        assert!(
            t.degree(node) >= k / 2,
            "{node} keeps its own lattice edges"
        );
    }
}

#[test]
fn mobility_mesh_is_seed_deterministic() {
    let a = RandomWaypoint::mesh(64, 60.0, 9).topology_at(0.0);
    let b = RandomWaypoint::mesh(64, 60.0, 9).topology_at(0.0);
    assert_eq!(a, b);
    assert_eq!(a.node_count(), 64);
    for l in a.links() {
        assert!(a.has_link(&l.to, &l.from), "radio links are symmetric");
    }
}

#[test]
fn neighbors_iter_matches_full_scan() {
    let t = Topology::internet_as(80, 2, 5);
    for node in t.nodes() {
        let scanned: Vec<_> = t.links().filter(|l| l.from == node).collect();
        let ranged: Vec<_> = t.neighbors_iter(node).collect();
        assert_eq!(scanned, ranged);
        assert_eq!(t.degree(node), scanned.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generators_are_pure_functions_of_their_seed(seed in any::<u64>()) {
        prop_assert_eq!(Topology::fat_tree(4, seed), Topology::fat_tree(4, seed));
        prop_assert_eq!(
            Topology::internet_as(60, 2, seed),
            Topology::internet_as(60, 2, seed)
        );
        prop_assert_eq!(
            Topology::small_world(40, 4, 20, seed),
            Topology::small_world(40, 4, 20, seed)
        );
    }

    #[test]
    fn small_world_edge_count_is_invariant(
        n in 10usize..60,
        seed in any::<u64>(),
        beta in 0u32..=100,
    ) {
        let t = Topology::small_world(n, 4, beta, seed);
        prop_assert_eq!(t.link_count(), n * 4);
    }
}
