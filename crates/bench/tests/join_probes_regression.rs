//! Regression guard for the planned, index-backed join pipeline: converging
//! the query_optimizations scenario (PATH-VECTOR on a ladder, the workload
//! of `report`'s E7 table) and the maintenance scenario (MINCOST on the same
//! ladder) examines exactly the join candidates pinned here and derives the
//! pinned relation sizes.
//!
//! The full-scan evaluation these counts were once compared against is gone
//! from the product; its counts on the same scenarios, measured on the last
//! tree that had it, stay as constants, and the indexed pipeline must keep
//! beating them by at least 2x.

use nettrails::{NetTrails, NetTrailsConfig};
use simnet::Topology;

/// Candidates the full-scan evaluation examined converging PATH-VECTOR on
/// `ladder(4)`.
const PATHVECTOR_SCAN_PROBES: u64 = 6_996;
/// The same for MINCOST on `ladder(4)`.
const MINCOST_SCAN_PROBES: u64 = 1_068;

fn converge(program: &str) -> NetTrails {
    let mut nt = NetTrails::new(program, Topology::ladder(4), NetTrailsConfig::default())
        .expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt
}

#[test]
fn indexed_joins_probe_strictly_less_than_the_scan_baseline() {
    let nt = converge(protocols::pathvector::PROGRAM);
    // The scan evaluation derived the same sizes.
    assert_eq!(nt.relation("path").len(), 292);
    assert_eq!(nt.relation("bestPathCost").len(), 56);
    let probes = nt.stats().engine.join_probes;
    assert_eq!(probes, 1_876, "the kernel examined other candidates");
    // The drop is structural (posting lists vs whole tables), not noise:
    // hold the line at a 2x margin so future regressions surface early.
    assert!(probes * 2 <= PATHVECTOR_SCAN_PROBES);
}

#[test]
fn indexed_joins_also_win_on_the_maintenance_scenario() {
    let nt = converge(protocols::mincost::PROGRAM);
    assert_eq!(nt.relation("minCost").len(), 64);
    let probes = nt.stats().engine.join_probes;
    assert_eq!(probes, 312, "the kernel examined other candidates");
    assert!(probes * 2 <= MINCOST_SCAN_PROBES);
}
