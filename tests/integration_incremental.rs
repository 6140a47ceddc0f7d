//! Incremental maintenance: after arbitrary sequences of topology events, the
//! incrementally maintained state must equal recomputation from scratch, and
//! the provenance store must stay consistent with the derived state.

use nettrails::{NetTrails, NetTrailsConfig};
use simnet::{Link, Topology, TopologyEvent};

fn normalized(nt: &NetTrails, relation: &str) -> Vec<String> {
    let mut rows: Vec<String> = nt
        .relation(relation)
        .into_iter()
        .map(|(n, t)| format!("{n}:{t}"))
        .collect();
    rows.sort();
    rows
}

fn check_incremental_equals_scratch(
    program: &str,
    result_relation: &str,
    events: &[TopologyEvent],
) {
    let mut nt = NetTrails::new(program, Topology::ring(5), NetTrailsConfig::default()).unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    for event in events {
        nt.apply_topology_event(event);
        let (fresh, _) = nt.recompute_from_scratch().unwrap();
        assert_eq!(
            normalized(&nt, result_relation),
            normalized(&fresh, result_relation),
            "incremental vs scratch divergence after {event:?}"
        );
    }
}

fn event_sequence() -> Vec<TopologyEvent> {
    vec![
        TopologyEvent::LinkDown {
            a: "n1".into(),
            b: "n2".into(),
        },
        TopologyEvent::CostChange {
            a: "n3".into(),
            b: "n4".into(),
            cost: 5,
        },
        TopologyEvent::LinkUp(Link::new("n1", "n3", 2)),
        TopologyEvent::LinkDown {
            a: "n4".into(),
            b: "n5".into(),
        },
        TopologyEvent::LinkUp(Link::new("n1", "n2", 1)),
    ]
}

#[test]
fn mincost_incremental_maintenance_is_exact() {
    check_incremental_equals_scratch(protocols::mincost::PROGRAM, "minCost", &event_sequence());
}

#[test]
fn distance_vector_incremental_maintenance_is_exact() {
    check_incremental_equals_scratch(
        protocols::distancevector::PROGRAM,
        "shortestCost",
        &event_sequence(),
    );
}

#[test]
fn dsr_incremental_maintenance_is_exact() {
    check_incremental_equals_scratch(protocols::dsr::PROGRAM, "shortestRoute", &event_sequence());
}

#[test]
fn provenance_tracks_every_derived_min_cost_tuple_after_churn() {
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::ladder(3),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt.apply_topology_event(&TopologyEvent::LinkDown {
        a: "n2".into(),
        b: "n5".into(),
    });
    nt.apply_topology_event(&TopologyEvent::LinkUp(Link::new("n2", "n5", 3)));

    // Every currently stored minCost tuple has a vertex in the provenance
    // graph at its home node.
    for (node, tuple) in nt.relation("minCost") {
        let store = nt.provenance().store(node).expect("store exists");
        assert!(
            store.has_vertex(tuple.id()),
            "{tuple} at {node} missing from the provenance store"
        );
    }
    // And the graph is still acyclic after churn.
    assert!(nt.provenance_graph().is_acyclic());
}

#[test]
fn incremental_work_is_less_than_recompute_for_local_changes() {
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::grid(3, 4),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    let initial = nt.run_to_fixpoint();
    // A cost change on one edge far from most of the graph.
    let report = nt.apply_topology_event(&TopologyEvent::CostChange {
        a: "n1".into(),
        b: "n2".into(),
        cost: 2,
    });
    assert!(
        report.tuples_touched() < initial.tuples_touched(),
        "incremental ({}) should touch fewer tuples than initial convergence ({})",
        report.tuples_touched(),
        initial.tuples_touched()
    );
}

/// One remote head derived from two spellings of one number: `r1` reads
/// `e(n1,n2,3)` and `r2` reads `f(n1,n2,3.0)`, and both ship `h(n2,3)`. The
/// sender must remember both derivations so that both are retracted; when
/// `3` and `3.0` made two tuples with two ids, an outbox keyed on values kept
/// one entry and the receiver was left holding `h(n2,3)` with a derivation
/// nobody would ever retract.
#[test]
fn a_remote_head_shipped_as_int_and_as_double_is_retracted() {
    use nt_runtime::{Tuple, Value};
    const PROGRAM: &str = "materialize(e, infinity, infinity, keys(1,2,3)).\n\
         materialize(f, infinity, infinity, keys(1,2,3)).\n\
         materialize(h, infinity, infinity, keys(1,2)).\n\
         r1 h(@D,C) :- e(@S,D,C).\n\
         r2 h(@D,C) :- f(@S,D,C).";
    let fact = |relation: &str, c: Value| {
        Tuple::new(relation, vec![Value::addr("n1"), Value::addr("n2"), c])
    };
    let mut nt = NetTrails::new(PROGRAM, Topology::line(2), NetTrailsConfig::default()).unwrap();
    nt.insert_fact("n1", fact("e", Value::Int(3)));
    nt.insert_fact("n1", fact("f", Value::Double(3.0)));
    nt.run_to_fixpoint();
    assert_eq!(normalized(&nt, "h"), ["n2:h(n2,3)"]);

    nt.delete_fact("n1", fact("e", Value::Int(3)));
    nt.delete_fact("n1", fact("f", Value::Double(3.0)));
    nt.run_to_fixpoint();
    assert_eq!(
        normalized(&nt, "h"),
        Vec::<String>::new(),
        "both base facts are gone, so nothing derives h any more"
    );
}

/// Provenance maintained through link churn is the provenance a fresh
/// computation over the resulting topology builds, down to its size
/// counters: a store holds content only for its own vertices. An engine can
/// fire a rule on an input whose `prov` entry its sender has already
/// retracted; a store that recorded every input's content kept that tuple
/// for a vertex it no longer had, priced it in `bytes` and `dict_bytes`, and
/// never removed it. Seeded link downs, each followed by the link's
/// recovery, compared after every event: a down with a fresh computation, a
/// recovery (the starting topology again) with the starting convergence.
#[test]
fn provenance_stats_after_link_churn_equal_a_fresh_computation() {
    let maintained = |nt: &NetTrails| provenance::SystemStats {
        firings_applied: 0,
        retractions_applied: 0,
        ..nt.provenance().stats()
    };
    for (topology, downs) in [
        (Topology::ring(4), 1),
        (Topology::internet_as(200, 2, 2011), 3),
    ] {
        let links: Vec<Link> = topology
            .links()
            .filter(|l| l.from < l.to)
            .cloned()
            .collect();
        let mut nt = NetTrails::new(
            protocols::mincost::PROGRAM,
            topology,
            NetTrailsConfig::default(),
        )
        .unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        let at_rest = maintained(&nt);
        let mut seed = 0x5eed_u64;
        for _ in 0..downs {
            // splitmix64: a seeded pick that needs no generator.
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let link = &links[((z ^ (z >> 31)) % links.len() as u64) as usize];
            let down = TopologyEvent::LinkDown {
                a: link.from.clone(),
                b: link.to.clone(),
            };
            nt.apply_topology_event(&down);
            let (fresh, _) = nt.recompute_from_scratch().unwrap();
            assert_eq!(maintained(&nt), maintained(&fresh), "after {down:?}");
            let up = TopologyEvent::LinkUp(link.clone());
            nt.apply_topology_event(&up);
            assert_eq!(maintained(&nt), at_rest, "after {up:?}");
        }
    }
}
