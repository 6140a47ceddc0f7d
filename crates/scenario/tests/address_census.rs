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
//!
//! The number census (the precondition for the compiler picking a numeric
//! representation per column): per non-address column, across every node,
//! the stored values that are `Int`, `Double` (a stored `Double` is
//! fractional: an integral one is stored as the `Int` it equals) or of any
//! other kind. A column holding more than one kind is an exception, printed
//! with its relation and column. The workload programs must have none; the
//! bundled protocols' exceptions are printed, not asserted, and today there
//! are none either: every non-address column of every shipped program holds
//! `Int`s only or lists only.
//!
//! Seeded mutation it caught: `mx2`'s `H := H2 + 1` written `H := H2 + 1.5`
//! in the mixed program, so `acost.3` holds both kinds.

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::Value;
use scenario::{programs, ScenarioSpec, TopologyFamily, TraceAction, WorkloadKind, WorkloadTrace};
use std::collections::BTreeMap;

/// What the census counts; all zero is the expected reading.
#[derive(Debug, Default, PartialEq)]
struct Census {
    non_addresses_in_address_columns: usize,
    addresses_elsewhere: usize,
    refused_facts: u64,
}

/// How many stored values of one non-address column are of each kind.
#[derive(Debug, Default, PartialEq)]
struct Kinds {
    ints: usize,
    doubles: usize,
    others: usize,
}

impl Kinds {
    fn count(&mut self, value: &Value) {
        match value {
            Value::Int(_) => self.ints += 1,
            Value::Double(_) => self.doubles += 1,
            _ => self.others += 1,
        }
    }

    /// More than one kind.
    fn mixed(&self) -> bool {
        [self.ints, self.doubles, self.others]
            .iter()
            .filter(|n| **n > 0)
            .count()
            > 1
    }
}

/// One reading of every engine's tables.
struct Reading {
    census: Census,
    /// Values read.
    values: usize,
    /// Per (relation, non-address column), across every node.
    kinds: BTreeMap<(String, usize), Kinds>,
}

impl Reading {
    /// The columns holding more than one kind.
    fn mixed(&self) -> Vec<(&(String, usize), &Kinds)> {
        self.kinds.iter().filter(|(_, k)| k.mixed()).collect()
    }
}

fn census(nt: &NetTrails) -> Reading {
    let mut census = Census::default();
    let mut values = 0;
    let mut kinds: BTreeMap<(String, usize), Kinds> = BTreeMap::new();
    for node in nt.nodes() {
        let engine = nt.engine(node.as_str()).expect("every node runs an engine");
        for table in engine.database().tables() {
            for stored in table.iter() {
                for col in 0..stored.arity() {
                    values += 1;
                    let value = stored.value(col);
                    let address = matches!(value, Value::Addr(_));
                    match (table.schema.is_addr(col), address) {
                        (true, false) => census.non_addresses_in_address_columns += 1,
                        (false, true) => census.addresses_elsewhere += 1,
                        _ => {}
                    }
                    if !table.schema.is_addr(col) {
                        let key = (table.schema.name.clone(), col);
                        kinds.entry(key).or_default().count(&value);
                    }
                }
            }
        }
    }
    census.refused_facts = nt.stats().engine.rejected_facts;
    Reading {
        census,
        values,
        kinds,
    }
}

/// Converge `program` on `family` (with three anchors when it routes toward
/// them), then replay the family's churn trace; the census after each.
fn censuses(program: &str, family: TopologyFamily, anchored: bool) -> [Reading; 2] {
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

/// Every address count is zero; every column holding more than one kind is
/// printed, and with `one_kind` is a failure.
fn assert_clean(name: &str, family: TopologyFamily, readings: [Reading; 2], one_kind: bool) {
    for (reading, when) in readings.iter().zip(["converged", "churned"]) {
        assert!(reading.values > 0, "{name} on {family:?} stored nothing");
        assert_eq!(
            reading.census,
            Census::default(),
            "{name} on {family:?}, {when}"
        );
        let mixed = reading.mixed();
        for ((relation, col), kinds) in &mixed {
            println!("{name} on {family:?}, {when}: {relation}.{col} holds {kinds:?}");
        }
        assert!(
            !one_kind || mixed.is_empty(),
            "{name} on {family:?}, {when}: columns of more than one kind: {mixed:?}"
        );
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
            assert_clean(name, family, censuses(program, family, true), true);
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
                false,
            );
        }
    }
}
