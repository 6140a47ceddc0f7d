//! A remote derivation's provenance is written where its record is
//! delivered. ExSPAN keeps `prov(@Home, VID, RID, RLoc)` at a head's home
//! and `ruleExec(@RLoc, RID, Rule, VIDList)` where the rule ran; the record
//! that ships a remote head already carries the rule, the executing node and
//! the input ids the rule-execution id digests, so the home's engine reports
//! the firing when it applies the record.
//!
//! The oracle: engines driven directly (`common/engine_runs.rs`, the driver
//! and the four programs of `engine_output_stream`) through convergence and
//! seeded churn, every run's firings fed to a [`ProvenanceSystem`] as the
//! run returns.
//!
//! * At every round boundary (every run of the round applied, nothing it
//!   shipped delivered yet) each home's `prov` entries whose `rloc` is
//!   another node are exactly the set built from the records delivered so
//!   far: a delivered insert adds `(vid, RuleExecId::compute(rule, node,
//!   inputs), node)` at its destination, a delivered delete removes it. Each
//!   such entry's `ruleExec` is at its `rloc`.
//! * At quiescence those entries are also exactly the senders' outboxes:
//!   every (tuple, destination, derivation) shipped and not retracted, the
//!   vertex at the destination holding that tuple.
//!
//! Mutations it caught, each in all four programs:
//!
//! * the sender still reports a remote head's firing when it derives it
//!   (the `prov` entry appears a round before its record is delivered);
//! * an arrived delete reports nothing (the entry outlives its retraction);
//! * the arrival firing names the home as `rloc` (the entry reads as a local
//!   derivation, and the delivered set misses it).

#[path = "common/engine_runs.rs"]
mod engine_runs;

use engine_runs::{anchored_with_negation, Observer, ANCHORED};
use nt_runtime::{Addr, DeltaBatch, NodeEngine, StepOutput, TupleId};
use provenance::{ProvenanceSystem, RuleExecId};
use simnet::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// A remote derivation's `prov` entry: (home, vid, rid, rloc).
type RemoteEntry = (Addr, TupleId, RuleExecId, Addr);

struct Delivered {
    system: ProvenanceSystem,
    /// Built from the records delivered so far.
    delivered: BTreeSet<RemoteEntry>,
    /// Round boundaries and quiescent points checked.
    rounds: usize,
    quiescent: usize,
    /// The most remote entries seen at one boundary.
    widest: usize,
}

/// Every `prov` entry whose derivation ran on another node than the home.
fn remote_entries(system: &ProvenanceSystem) -> BTreeSet<RemoteEntry> {
    let mut entries = BTreeSet::new();
    for store in system.stores() {
        for (tuple, prov) in store.iter_prov() {
            for entry in prov.iter().filter(|e| e.rloc != store.node) {
                let rid = entry.rid.expect("a remote entry names its rule execution");
                entries.insert((store.node, tuple.id(), rid, entry.rloc));
            }
        }
    }
    entries
}

impl Observer for Delivered {
    fn output(&mut self, _node: Addr, out: &StepOutput) {
        self.system.apply_round(&out.firings);
    }

    fn round_end(&mut self, _engines: &BTreeMap<Addr, NodeEngine>) {
        let entries = remote_entries(&self.system);
        assert_eq!(
            entries, self.delivered,
            "round boundary {}: the remote prov entries are not the delivered records",
            self.rounds
        );
        for &(_, _, rid, rloc) in &entries {
            let at = self
                .system
                .store(rloc)
                .expect("the executing node has a store");
            assert!(
                at.rule_exec(rid).is_some(),
                "{rid:?} has no ruleExec at {rloc}"
            );
        }
        self.rounds += 1;
        self.widest = self.widest.max(entries.len());
    }

    fn deliver(&mut self, batch: &DeltaBatch) {
        for record in &batch.records {
            let d = &record.derivation;
            let rid = RuleExecId::compute(d.rule, d.node, &d.inputs);
            let entry = (batch.dest, record.delta.tuple().id(), rid, d.node);
            if record.delta.is_insert() {
                self.delivered.insert(entry);
            } else {
                self.delivered.remove(&entry);
            }
        }
    }

    fn quiescent(&mut self, engines: &BTreeMap<Addr, NodeEngine>) {
        let mut shipped = BTreeSet::new();
        for (node, engine) in engines {
            let db = engine.database();
            let mut listed = 0;
            for table in db.tables() {
                for entry in db.outbox_of(table.relation) {
                    listed += 1;
                    // Shipped to the address in its location column.
                    let at = entry.tuple.values()[table.schema.location_col].as_node_id();
                    let at = at.expect("a remote head's location column holds an address");
                    let home = self.system.store(at);
                    let vertex = home.and_then(|s| s.vertex(entry.tuple.id()));
                    let tuple = vertex.map(|(tuple, _)| tuple);
                    assert_eq!(
                        tuple,
                        Some(&entry.tuple),
                        "{node}'s shipped head at its home"
                    );
                    for d in &entry.derivations {
                        assert_eq!(d.node, *node, "an outbox holds its own node's derivations");
                        let rid = RuleExecId::compute(d.rule, d.node, &d.inputs);
                        shipped.insert((at, entry.tuple.id(), rid, d.node));
                    }
                }
            }
            assert_eq!(
                listed,
                db.outbox_len(),
                "{node}: every outbox entry was read"
            );
        }
        assert_eq!(
            remote_entries(&self.system),
            shipped,
            "quiescent point {}: the remote prov entries are not the outboxes",
            self.quiescent
        );
        self.quiescent += 1;
    }
}

/// Drive `source` over `topology` and check every boundary; returns the
/// round boundaries checked.
fn check(source: &str, topology: Topology, anchors: &[&str], cycles: usize, seed: u64) -> usize {
    let mut oracle = Delivered {
        system: ProvenanceSystem::new(topology.nodes()),
        delivered: BTreeSet::new(),
        rounds: 0,
        quiescent: 0,
        widest: 0,
    };
    engine_runs::run(source, topology, anchors, cycles, seed, &mut oracle);
    assert_eq!(oracle.quiescent, 1 + 3 * cycles, "one per convergence");
    assert!(oracle.widest > 0, "some derivation crossed a node boundary");
    oracle.rounds
}

#[test]
fn anchored_path_vectors_write_remote_prov_on_delivery() {
    let topology = Topology::internet_as(64, 2, 12);
    assert!(check(ANCHORED, topology, &["as1", "as17"], 8, 12) > 0);
}

#[test]
fn a_negation_rule_beside_the_aggregate_writes_remote_prov_on_delivery() {
    let topology = Topology::internet_as(32, 2, 4242);
    let program = anchored_with_negation();
    assert!(check(&program, topology, &["as1", "as9"], 8, 4242) > 0);
}

#[test]
fn mincost_writes_remote_prov_on_delivery() {
    let topology = Topology::internet_as(16, 2, 12);
    assert!(check(protocols::mincost::PROGRAM, topology, &[], 8, 12) > 0);
}

#[test]
fn pathvector_writes_remote_prov_on_delivery() {
    let topology = Topology::internet_as(8, 2, 12);
    assert!(check(protocols::pathvector::PROGRAM, topology, &[], 6, 12) > 0);
}
