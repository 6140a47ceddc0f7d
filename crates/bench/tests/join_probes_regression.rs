//! Regression guard for the planned, index-backed join pipeline: converging
//! the query_optimizations scenario (PATH-VECTOR on a ladder, the workload
//! of `report`'s E7 table) must examine strictly fewer join candidates with
//! index probing than the recorded full-scan baseline — while computing
//! exactly the same relations.

use nettrails::{NetTrails, NetTrailsConfig};
use simnet::Topology;
use std::collections::BTreeSet;

fn converge(config: NetTrailsConfig) -> NetTrails {
    let mut nt = NetTrails::new(protocols::pathvector::PROGRAM, Topology::ladder(4), config)
        .expect("pathvector compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt
}

fn relation_set(nt: &NetTrails, relation: &str) -> BTreeSet<String> {
    nt.relation(relation)
        .into_iter()
        .map(|(node, tuple)| format!("{node}:{tuple}"))
        .collect()
}

#[test]
fn indexed_joins_probe_strictly_less_than_the_scan_baseline() {
    let indexed = converge(NetTrailsConfig::default());
    let scan = converge(NetTrailsConfig::without_join_indexes());

    // Both evaluation modes converge to identical protocol state.
    for relation in ["path", "bestPathCost", "bestPath"] {
        assert_eq!(
            relation_set(&indexed, relation),
            relation_set(&scan, relation),
            "relation `{relation}` diverged between indexed and scan evaluation"
        );
    }
    assert!(
        !indexed.relation("bestPathCost").is_empty(),
        "scenario must actually derive state for the comparison to mean anything"
    );

    let indexed_probes = indexed.stats().engine.join_probes;
    let scan_probes = scan.stats().engine.join_probes;
    assert!(
        indexed_probes < scan_probes,
        "index probing examined {indexed_probes} candidates but the scan \
         baseline examined {scan_probes}; the planned pipeline must be \
         strictly more selective on this scenario"
    );
    // The drop is structural (posting lists vs whole tables), not noise:
    // hold the line at a 2x margin so future regressions surface early.
    assert!(
        indexed_probes * 2 <= scan_probes,
        "index probing ({indexed_probes}) no longer beats the scan baseline \
         ({scan_probes}) by at least 2x"
    );
}

#[test]
fn indexed_joins_also_win_on_the_maintenance_scenario() {
    // The maintenance_overhead scenario: MINCOST on ladders with provenance.
    let mut indexed = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::ladder(4),
        NetTrailsConfig::default(),
    )
    .expect("mincost compiles");
    indexed.seed_links_from_topology();
    indexed.run_to_fixpoint();

    let mut scan = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::ladder(4),
        NetTrailsConfig::without_join_indexes(),
    )
    .expect("mincost compiles");
    scan.seed_links_from_topology();
    scan.run_to_fixpoint();

    assert_eq!(
        relation_set(&indexed, "minCost"),
        relation_set(&scan, "minCost")
    );
    assert!(
        indexed.stats().engine.join_probes < scan.stats().engine.join_probes,
        "indexed {} vs scan {}",
        indexed.stats().engine.join_probes,
        scan.stats().engine.join_probes
    );
}
