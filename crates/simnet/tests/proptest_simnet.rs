//! Property-based tests for the simulator substrate.

use proptest::prelude::*;
use simnet::{MobilityModel, Network, NetworkConfig, RandomWaypoint, SimTime, Topology};

proptest! {
    /// Generated random topologies are connected and deterministic.
    #[test]
    fn random_topologies_are_connected(n in 2usize..20, p in 0.0f64..0.5, seed in any::<u64>()) {
        let topo = Topology::random(n, p, 5, seed);
        prop_assert_eq!(topo.node_count(), n);
        // BFS from n1 reaches every node.
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec!["n1".to_string()];
        while let Some(node) = stack.pop() {
            if seen.insert(node.clone()) {
                for l in topo.neighbors_iter(&node) {
                    stack.push(l.to.clone());
                }
            }
        }
        prop_assert_eq!(seen.len(), n);
        // Determinism.
        prop_assert_eq!(topo, Topology::random(n, p, 5, seed));
    }

    /// Messages are always delivered in non-decreasing time order and nothing
    /// is lost.
    #[test]
    fn network_delivers_everything_in_time_order(
        sends in proptest::collection::vec((0usize..5, 0usize..5, 1usize..200), 1..30)
    ) {
        let topo = Topology::ring(5);
        let mut net: Network<usize> = Network::new(topo, NetworkConfig::default());
        let nodes: Vec<String> = (1..=5).map(|i| format!("n{i}")).collect();
        for (i, (from, to, bytes)) in sends.iter().enumerate() {
            net.send(&nodes[*from], &nodes[*to], i, *bytes, "test");
        }
        let mut delivered = 0;
        let mut last = SimTime::ZERO;
        while !net.idle() {
            let batch = net.advance();
            prop_assert!(!batch.is_empty());
            for d in batch {
                prop_assert!(d.at >= last);
                last = d.at;
                delivered += 1;
            }
        }
        prop_assert_eq!(delivered, sends.len());
        prop_assert_eq!(net.stats().messages, sends.len() as u64);
    }

    /// Mobility: positions stay inside the field and link sets are symmetric.
    #[test]
    fn mobility_positions_stay_in_field(seed in any::<u64>(), t in 0.0f64..120.0) {
        let model = RandomWaypoint::new(5, 200.0, 150.0, 80.0, 1.0, 3.0, 120.0, seed);
        for node in model.nodes() {
            let p = model.position(&node, t).unwrap();
            prop_assert!(p.x >= -1e-9 && p.x <= 200.0 + 1e-9);
            prop_assert!(p.y >= -1e-9 && p.y <= 150.0 + 1e-9);
        }
        let topo = model.topology_at(t);
        for l in topo.links() {
            prop_assert!(topo.has_link(&l.to, &l.from));
        }
    }
}
