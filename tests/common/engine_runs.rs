//! Engines driven directly, without the platform, as
//! `ready_set_equivalence`'s full-scan loop drives them: one `NodeEngine`
//! per topology node; a round runs every engine with pending deltas in node
//! order, then hands every shipped record to its destination. The programs,
//! the seeded churn trace and the driver that `engine_output_stream` and
//! `delivered_provenance` share.

use nt_runtime::{
    Addr, CompiledProgram, DeltaBatch, EngineConfig, NodeEngine, StepOutput, Tuple, Value,
};
use simnet::{Link, Topology, TopologyEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `ready_set_equivalence`'s program: path vectors toward advertised anchors,
/// recursion with a loop check and a `min<>` aggregate.
pub const ANCHORED: &str = "\
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
pub fn anchored_with_negation() -> String {
    format!(
        "{ANCHORED}materialize(transit, infinity, infinity, keys(1,2,3)).\n\
         sc4 transit(@S,D,C) :- route(@S,D,P,C), !link(@S,D,C).\n"
    )
}

/// What a driven run reports, in the order it happens.
pub trait Observer {
    /// One engine run's output, in run order.
    fn output(&mut self, node: Addr, out: &StepOutput);

    /// Every run of a round has been observed and nothing it shipped has
    /// been delivered yet.
    fn round_end(&mut self, _engines: &BTreeMap<Addr, NodeEngine>) {}

    /// A batch about to be handed to its destination.
    fn deliver(&mut self, _batch: &DeltaBatch) {}

    /// No engine has anything pending.
    fn quiescent(&mut self, _engines: &BTreeMap<Addr, NodeEngine>) {}
}

/// One node's engine per topology node.
pub struct Engines {
    pub engines: BTreeMap<Addr, NodeEngine>,
}

impl Engines {
    fn new(source: &str, topology: &Topology) -> Self {
        let program = Arc::new(CompiledProgram::from_source(source).unwrap());
        let engine = |node: &str| NodeEngine::new(program.clone(), EngineConfig::new(node));
        Engines {
            engines: topology
                .nodes()
                .map(|n| (Addr::new(n), engine(n)))
                .collect(),
        }
    }

    fn engine(&mut self, node: &str) -> &mut NodeEngine {
        self.engines.get_mut(&Addr::new(node)).expect("known node")
    }

    /// Rounds until no engine has pending deltas.
    fn converge(&mut self, observer: &mut impl Observer) {
        loop {
            let mut shipped: Vec<DeltaBatch> = Vec::new();
            let mut ran: Vec<(Addr, StepOutput)> = Vec::new();
            for (node, engine) in self.engines.iter_mut() {
                if engine.has_pending() {
                    ran.push((*node, engine.run()));
                }
            }
            if ran.is_empty() {
                observer.quiescent(&self.engines);
                return;
            }
            for (node, mut out) in ran {
                observer.output(node, &out);
                shipped.append(&mut out.sends);
            }
            observer.round_end(&self.engines);
            for batch in shipped {
                observer.deliver(&batch);
                let engine = self.engines.get_mut(&batch.dest).expect("known node");
                for record in batch.records {
                    engine.apply_remote(record.delta, record.derivation);
                }
            }
        }
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
/// of a seeded churn trace of `cycles` cycles. Returns the engines as they
/// end.
pub fn run(
    source: &str,
    mut topology: Topology,
    anchors: &[&str],
    cycles: usize,
    seed: u64,
    observer: &mut impl Observer,
) -> Engines {
    let mut net = Engines::new(source, &topology);
    for (node, tuple) in protocols::link_tuples(&topology) {
        net.engine(&node).insert_base(tuple).unwrap();
    }
    for &anchor in anchors {
        let values = vec![Value::addr(anchor), Value::addr(anchor)];
        let tuple = Tuple::new("anchor", values);
        net.engine(anchor).insert_base(tuple).unwrap();
    }
    net.converge(observer);
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
        net.converge(observer);
    }
    net
}
