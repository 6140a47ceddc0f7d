//! Integration tests for the path-vector protocol: best-path costs agree with
//! MINCOST/reference, and every stored path is a real path in the topology.

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::NodeId;
use simnet::Topology;

fn run(topology: Topology) -> NetTrails {
    let mut nt = NetTrails::new(
        protocols::pathvector::PROGRAM,
        topology,
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    let report = nt.run_to_fixpoint();
    assert!(!report.truncated);
    nt
}

#[test]
fn every_path_tuple_is_a_loop_free_walk_of_the_topology() {
    let nt = run(Topology::random(7, 0.25, 3, 5));
    let topo = nt.network().topology().clone();
    let paths = nt.relation("path");
    assert!(!paths.is_empty());
    for (_, tuple) in paths {
        let hops = tuple.values()[2].as_list().expect("path is a list");
        // Loop free.
        let mut seen = std::collections::BTreeSet::new();
        for h in hops {
            assert!(seen.insert(h.to_string()), "loop in {tuple}");
        }
        // Each consecutive pair is a real link, and the cost adds up.
        let mut cost = 0;
        for pair in hops.windows(2) {
            let from = pair[0].as_addr().unwrap();
            let to = pair[1].as_addr().unwrap();
            let link = topo
                .link(from, to)
                .unwrap_or_else(|| panic!("{tuple} uses non-existent link {from}->{to}"));
            cost += link.cost;
        }
        assert_eq!(
            cost,
            tuple.values()[3].as_int().unwrap(),
            "cost mismatch in {tuple}"
        );
        // Path endpoints match the tuple's source and destination.
        assert_eq!(hops.first().unwrap().as_addr(), tuple.values()[0].as_addr());
        assert_eq!(hops.last().unwrap().as_addr(), tuple.values()[1].as_addr());
    }
}

#[test]
fn best_path_costs_agree_with_mincost() {
    let topo = Topology::ladder(3);
    let pv = run(topo.clone());
    let mut mc = NetTrails::new(
        protocols::mincost::PROGRAM,
        topo,
        NetTrailsConfig::without_provenance(),
    )
    .unwrap();
    mc.seed_links_from_topology();
    mc.run_to_fixpoint();

    for (_, best) in pv.relation("bestPathCost") {
        let s = best.values()[0].as_addr().unwrap();
        let d = best.values()[1].as_addr().unwrap();
        if s == d {
            continue;
        }
        let min_cost = mc
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some(s) && t.values()[1].as_addr() == Some(d)
            })
            .map(|(_, t)| t.values()[2].as_int().unwrap());
        assert_eq!(min_cost, best.values()[2].as_int(), "({s},{d})");
    }
}

#[test]
fn best_path_provenance_spans_the_nodes_on_the_path() {
    use provenance::{QueryKind, QueryResult};
    let mut nt = run(Topology::line(4));
    let (_, target) = nt
        .find_tuple("bestPathCost", |t| {
            t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n4")
        })
        .expect("bestPathCost(n1,n4)");
    let (result, _) = nt
        .query(&target)
        .from_node("n1")
        .kind(QueryKind::ParticipatingNodes)
        .run();
    let QueryResult::ParticipatingNodes(nodes) = result else {
        panic!()
    };
    // Every node that *stores* contributing state participates. The
    // destination n4 does not: link tuples live at their source, so the route
    // to n4 is derived entirely from state held at n1..n3.
    for n in ["n1", "n2", "n3"] {
        assert!(
            nodes.contains(&NodeId::new(n)),
            "{n} missing from {nodes:?}"
        );
    }
}
