//! The engine's output stream, pinned: everything a [`NodeEngine::run`]
//! returns, in order.
//!
//! Engines are driven directly, as `ready_set_equivalence`'s full-scan loop
//! drives them: every round runs each engine with pending deltas in node
//! order, then hands every shipped record to its destination. A seeded
//! link-down / recover / cost-change trace follows the convergence. Every
//! [`StepOutput`] is digested in order — its firings, its local changes and
//! each [`DeltaBatch`]'s dictionary and records — and so are the engines'
//! summed counters at the end. The digests were measured before the
//! generation loop evaluated each trigger where its event replays, and hold
//! it to the stream the plan / evaluate-all / merge loop produced.
//!
//! Tests that compare multisets, tables or end states do not see the order
//! of one generation's emissions. This one does; it caught two seeded
//! mutations of `NodeEngine::fire_triggers`:
//!
//! * an appearance that runs its monotonic triggers after its aggregate and
//!   negation triggers (three programs fail; in MINCOST no relation triggers
//!   both a monotonic rule and an aggregate);
//! * a disappearance that also fires the monotonic rules its tuple triggers
//!   (all four fail).

use nt_runtime::{
    Addr, CompiledProgram, DeltaBatch, EngineConfig, EngineStats, NodeEngine, StableHasher,
    StepOutput, Tuple, Value,
};
use simnet::{Link, Topology, TopologyEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `ready_set_equivalence`'s program: path vectors toward advertised anchors,
/// recursion with a loop check and a `min<>` aggregate.
const ANCHORED: &str = "\
materialize(link, infinity, infinity, keys(1,2)).
materialize(anchor, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2,3,4)).
materialize(bestRoute, infinity, infinity, keys(1,2)).

sc1 route(@S,D,P,C) :- link(@S,D,C), anchor(@D,D), P := f_initlist2(S, D).
sc2 route(@S,D,P,C) :- link(@S,Z,C1), route(@Z,D,P2,C2), f_member(P2, S) == 0, L := f_size(P2), L < 5, C := C1 + C2, P := f_prepend(S, P2).
sc3 bestRoute(@S,D,min<C>) :- route(@S,D,P,C).
";

/// [`ANCHORED`] plus a negation rule on `route`, so one appearance of a
/// `route` tuple triggers a monotonic rule, an aggregate and a negation rule,
/// and a `link` change reconciles through `negation_triggers`.
fn anchored_with_negation() -> String {
    format!(
        "{ANCHORED}materialize(transit, infinity, infinity, keys(1,2,3)).\n\
         sc4 transit(@S,D,C) :- route(@S,D,P,C), !link(@S,D,C).\n"
    )
}

/// One node's engine per topology node, and the digest of what they return.
struct Net {
    engines: BTreeMap<Addr, NodeEngine>,
    digest: StableHasher,
    outputs: usize,
    firings: usize,
    /// (rule, insert) of every firing seen.
    fired: BTreeSet<(String, bool)>,
}

impl Net {
    fn new(source: &str, topology: &Topology) -> Self {
        let program = Arc::new(CompiledProgram::from_source(source).unwrap());
        let engine = |node: &str| NodeEngine::new(program.clone(), EngineConfig::new(node));
        Net {
            engines: topology
                .nodes()
                .map(|n| (Addr::new(n), engine(n)))
                .collect(),
            digest: StableHasher::new(),
            outputs: 0,
            firings: 0,
            fired: BTreeSet::new(),
        }
    }

    fn engine(&mut self, node: &str) -> &mut NodeEngine {
        self.engines.get_mut(&Addr::new(node)).expect("known node")
    }

    fn absorb(&mut self, node: Addr, out: &StepOutput) {
        let h = &mut self.digest;
        let mut write = |text: String| h.write_bytes(text.as_bytes());
        write(format!("run at {node:?}, truncated {}", out.truncated));
        for firing in &out.firings {
            write(format!("{firing:?}"));
            self.fired.insert((firing.rule.to_string(), firing.insert));
        }
        for change in &out.local_changes {
            write(format!("{change:?}"));
        }
        for batch in &out.sends {
            write(format!("to {:?}: {:?}", batch.dest, batch.dict));
            for record in &batch.records {
                write(format!("{record:?}"));
            }
        }
        self.outputs += 1;
        self.firings += out.firings.len();
    }

    /// Rounds until no engine has pending deltas.
    fn converge(&mut self) {
        loop {
            let mut shipped: Vec<DeltaBatch> = Vec::new();
            let mut ran: Vec<(Addr, StepOutput)> = Vec::new();
            for (node, engine) in self.engines.iter_mut() {
                if engine.has_pending() {
                    ran.push((*node, engine.run()));
                }
            }
            if ran.is_empty() {
                return;
            }
            for (node, mut out) in ran {
                self.absorb(node, &out);
                shipped.append(&mut out.sends);
            }
            for batch in shipped {
                let engine = self.engines.get_mut(&batch.dest).expect("known node");
                for record in batch.records {
                    engine.apply_remote(record.delta, record.derivation);
                }
            }
        }
    }

    /// The summed counters and the stream digest. Every rule of the program
    /// has to have derived and retracted something.
    fn finish(mut self, rules: &[&str]) -> (usize, usize, u64) {
        let mut total = EngineStats::default();
        for engine in self.engines.values() {
            let s = engine.stats();
            total.deltas_processed += s.deltas_processed;
            total.rule_firings += s.rule_firings;
            total.retractions += s.retractions;
            total.tuples_sent += s.tuples_sent;
            total.bytes_sent += s.bytes_sent;
            total.dict_bytes_sent += s.dict_bytes_sent;
            total.join_probes += s.join_probes;
            total.agg_recomputes += s.agg_recomputes;
            total.rejected_facts += s.rejected_facts;
        }
        for rule in rules {
            for insert in [true, false] {
                let seen = self.fired.contains(&(rule.to_string(), insert));
                assert!(seen, "{rule} fired with insert = {insert}");
            }
        }
        self.digest.write_bytes(format!("{total:?}").as_bytes());
        (self.outputs, self.firings, self.digest.finish())
    }
}

/// SplitMix64, for the churn trace.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `cycles` × (link down, recover at a new cost, cost change) over seeded
/// links of `topology`.
fn churn_trace(topology: &Topology, cycles: usize, seed: u64) -> Vec<TopologyEvent> {
    let links: Vec<&Link> = topology.links().filter(|l| l.from < l.to).collect();
    let mut rng = Rng(seed);
    let mut events = Vec::new();
    for _ in 0..cycles {
        let link = links[rng.below(links.len())];
        let (a, b) = (link.from.clone(), link.to.clone());
        let recovered = Link {
            cost: 1 + rng.below(9) as i64,
            ..link.clone()
        };
        let cost = 1 + rng.below(9) as i64;
        events.push(TopologyEvent::LinkDown {
            a: a.clone(),
            b: b.clone(),
        });
        events.push(TopologyEvent::LinkUp(recovered));
        events.push(TopologyEvent::CostChange { a, b, cost });
    }
    events
}

/// Seed the links (and `anchors`), converge, then converge after each event
/// of the trace. Returns (step outputs, firings, digest); every rule in
/// `rules` must have both derived and retracted.
fn stream(
    source: &str,
    rules: &[&str],
    mut topology: Topology,
    anchors: &[&str],
    cycles: usize,
    seed: u64,
) -> (usize, usize, u64) {
    let mut net = Net::new(source, &topology);
    for (node, tuple) in protocols::link_tuples(&topology) {
        net.engine(&node).insert_base(tuple).unwrap();
    }
    for &anchor in anchors {
        let values = vec![Value::addr(anchor), Value::addr(anchor)];
        let tuple = Tuple::new("anchor", values);
        net.engine(anchor).insert_base(tuple).unwrap();
    }
    net.converge();
    for event in churn_trace(&topology, cycles, seed) {
        let (added, removed) = topology.apply(&event);
        for link in removed {
            let tuple = protocols::link_tuple(&link.from, &link.to, link.cost);
            net.engine(&link.from).delete_base(tuple).unwrap();
        }
        for link in added {
            let tuple = protocols::link_tuple(&link.from, &link.to, link.cost);
            net.engine(&link.from).insert_base(tuple).unwrap();
        }
        net.converge();
    }
    net.finish(rules)
}

#[test]
fn anchored_path_vectors_keep_their_output_stream() {
    let topology = Topology::internet_as(64, 2, 12);
    let got = stream(ANCHORED, &["sc2", "sc3"], topology, &["as1", "as17"], 8, 12);
    assert_eq!(got, (1163, 4945, 6280137593960048824));
}

#[test]
fn a_negation_rule_beside_the_aggregate_keeps_its_output_stream() {
    let topology = Topology::internet_as(32, 2, 4242);
    let program = anchored_with_negation();
    let got = stream(
        &program,
        &["sc2", "sc3", "sc4"],
        topology,
        &["as1", "as9"],
        8,
        4242,
    );
    assert_eq!(got, (963, 6900, 12100766315115494652));
}

#[test]
fn mincost_keeps_its_output_stream() {
    let topology = Topology::internet_as(16, 2, 12);
    let got = stream(
        protocols::mincost::PROGRAM,
        &["mc1", "mc2", "mc3"],
        topology,
        &[],
        8,
        12,
    );
    assert_eq!(got, (992, 7130, 3752920643721962079));
}

#[test]
fn pathvector_keeps_its_output_stream() {
    let topology = Topology::internet_as(8, 2, 12);
    let got = stream(
        protocols::pathvector::PROGRAM,
        &["pv1", "pv2", "pv3"],
        topology,
        &[],
        6,
        12,
    );
    assert_eq!(got, (693, 5306, 3307849037346002909));
}
