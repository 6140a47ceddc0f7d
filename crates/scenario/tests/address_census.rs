//! The address census. The compiler decides which columns hold addresses
//! (`nt_runtime::catalog`); this counts, over stored state, where the
//! decision and the data disagree:
//! * a stored value other than an address in an address column;
//! * a stored address in any other column;
//! * a base fact refused because it does not fit its relation.
//!
//! Every shipped program runs to its fixpoint and then through a churn trace:
//! the workload programs (`scenario::programs`) on the four topology families
//! of `replay_determinism.rs`, the bundled protocols
//! (`protocols::all_protocols`, all-pairs) on small members of the same
//! families. Every count is zero after convergence and after churn: each
//! column of these programs holds one kind, the one the compiler gives it,
//! so no column changed representation when storage started following the
//! compiler, and no fact was refused.
//!
//! Seeded mutation it caught: the catalog's cross-rule step dropped, so a
//! rule's address variables are only those at its own location terms
//! (`Catalog::address_vars` reading `term.is_location()` instead of the
//! schema). MINCOST's `cost.1`, which `mc1` copies from `link.1` and no rule
//! locates, stays untyped: 141 addresses elsewhere on the k = 2 fat tree; the
//! anchored path-vector program shows 99 on the k = 4 one.

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::Value;
use scenario::{programs, ScenarioSpec, TopologyFamily, TraceAction, WorkloadKind, WorkloadTrace};

/// What the census counts; all zero is the expected reading.
#[derive(Debug, Default, PartialEq)]
struct Census {
    non_addresses_in_address_columns: usize,
    addresses_elsewhere: usize,
    refused_facts: u64,
}

/// The census of every engine's tables, and how many values it read.
fn census(nt: &NetTrails) -> (Census, usize) {
    let mut census = Census::default();
    let mut values = 0;
    for node in nt.nodes() {
        let engine = nt.engine(node.as_str()).expect("every node runs an engine");
        for table in engine.database().tables() {
            for stored in table.iter() {
                for col in 0..stored.arity() {
                    values += 1;
                    let address = matches!(stored.value(col), Value::Addr(_));
                    match (table.schema.is_addr(col), address) {
                        (true, false) => census.non_addresses_in_address_columns += 1,
                        (false, true) => census.addresses_elsewhere += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    census.refused_facts = nt.stats().engine.rejected_facts;
    (census, values)
}

/// Converge `program` on `family` (with three anchors when it routes toward
/// them), then replay the family's churn trace; the census after each.
fn censuses(program: &str, family: TopologyFamily, anchored: bool) -> [(Census, usize); 2] {
    let spec = ScenarioSpec {
        family,
        workload: WorkloadKind::Churn,
        seed: 42,
        anchors: 3,
        max_hops: 3,
        churn_steps: 9,
        storm_queries: 0,
    };
    let topology = family.build(spec.seed);
    let trace = WorkloadTrace::generate(&spec, &topology);
    let mut nt = NetTrails::new(program, topology, NetTrailsConfig::default())
        .expect("shipped programs load");
    nt.seed_links_from_topology();
    if anchored {
        let mut nodes: Vec<&str> = nt.nodes().into_iter().map(|n| n.as_str()).collect();
        nodes.sort_unstable();
        for anchor in &nodes[..spec.anchors] {
            nt.insert_fact(anchor, programs::anchor_tuple(anchor));
        }
    }
    nt.run_to_fixpoint();
    let converged = census(&nt);
    for step in &trace.steps {
        if let TraceAction::Churn(event) = &step.action {
            nt.apply_topology_event(event);
        }
    }
    [converged, census(&nt)]
}

fn assert_clean(name: &str, family: TopologyFamily, readings: [(Census, usize); 2]) {
    for ((census, values), when) in readings.into_iter().zip(["converged", "churned"]) {
        assert!(values > 0, "{name} on {family:?} stored nothing");
        assert_eq!(census, Census::default(), "{name} on {family:?}, {when}");
    }
}

#[test]
fn workload_programs_store_only_the_kinds_their_columns_are_given() {
    let families = [
        TopologyFamily::FatTree { k: 4 },
        TopologyFamily::InternetAs { n: 48, m: 2 },
        TopologyFamily::SmallWorld {
            n: 32,
            k: 4,
            beta_percent: 20,
        },
        TopologyFamily::MobilityMesh {
            n: 24,
            horizon_secs: 10,
        },
    ];
    let workloads = [
        ("anchored path-vector", programs::anchored_pathvector(3)),
        ("mixed", programs::mixed_protocols(3)),
    ];
    for (name, program) in &workloads {
        for family in families {
            assert_clean(name, family, censuses(program, family, true));
        }
    }
}

#[test]
fn bundled_protocols_store_only_the_kinds_their_columns_are_given() {
    let families = [
        TopologyFamily::FatTree { k: 2 },
        TopologyFamily::InternetAs { n: 6, m: 2 },
        TopologyFamily::SmallWorld {
            n: 6,
            k: 2,
            beta_percent: 20,
        },
        TopologyFamily::MobilityMesh {
            n: 6,
            horizon_secs: 10,
        },
    ];
    for protocol in protocols::all_protocols() {
        for family in families {
            assert_clean(
                protocol.name,
                family,
                censuses(protocol.source, family, false),
            );
        }
    }
}
