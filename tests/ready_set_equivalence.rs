//! Ready-set equivalence: `NetTrails::run_to_fixpoint` visits only the
//! engines its ready set names; the loop it replaced asked every engine, in
//! node-name order, whether it `has_pending()`. The two must be
//! indistinguishable.
//!
//! [`FullScan`] is that old loop, kept here as the oracle: engines, network
//! and provenance composed from the public layer calls, every round a scan of
//! all engines. A seeded link-down / recover / cost-change trace on an
//! `internet_as` topology goes through both, and every `RunReport`, the whole
//! `PlatformStats`, the sorted result relation, the provenance
//! `content_digest` and the simulated clock have to come out equal —
//! including when `max_rounds` cuts runs short and when a protocol delta is
//! delivered by a query-plane pump between runs.

use nettrails::platform::PROTOCOL_CATEGORY;
use nettrails::{NetMessage, NetTrails, NetTrailsConfig, PlatformStats, RunReport};
use nt_runtime::{
    Addr, CompiledProgram, Delta, EngineConfig, EngineStats, NodeEngine, Tuple, Value,
};
use provenance::ProvenanceSystem;
use simnet::{Link, Network, SimTime, Topology, TopologyEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Path vectors toward advertised anchors only (the shape of
/// `scenario::programs::anchored_pathvector`): recursion, a loop check and a
/// `min<>` aggregate, so churn retracts, re-derives and recomputes.
const PROGRAM: &str = "\
materialize(link, infinity, infinity, keys(1,2)).
materialize(anchor, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2,3,4)).
materialize(bestRoute, infinity, infinity, keys(1,2)).

sc1 route(@S,D,P,C) :- link(@S,D,C), anchor(@D,D), P := f_initlist2(S, D).
sc2 route(@S,D,P,C) :- link(@S,Z,C1), route(@Z,D,P2,C2), f_member(P2, S) == 0, L := f_size(P2), L < 5, C := C1 + C2, P := f_prepend(S, P2).
sc3 bestRoute(@S,D,min<C>) :- route(@S,D,P,C).
";

/// What both loops are driven through and compared on.
trait Platform {
    fn insert(&mut self, node: &str, tuple: Tuple);
    fn run(&mut self) -> RunReport;
    fn event(&mut self, event: &TopologyEvent) -> RunReport;
    /// Deliver the next in-flight batch outside a run (`poll_queries`).
    fn pump(&mut self) -> bool;
    fn end_state(&self) -> EndState;
}

/// Everything machine-independent a platform ends with.
#[derive(Debug, PartialEq)]
struct EndState {
    stats: PlatformStats,
    /// `bestRoute` across all nodes, sorted.
    routes: Vec<(Addr, Tuple)>,
    provenance_digest: u64,
    now: SimTime,
}

fn sorted(mut rows: Vec<(Addr, Tuple)>) -> Vec<(Addr, Tuple)> {
    rows.sort_by_key(|(node, t)| (*node, t.to_string()));
    rows
}

impl Platform for NetTrails {
    fn insert(&mut self, node: &str, tuple: Tuple) {
        self.insert_fact(node, tuple)
    }
    fn run(&mut self) -> RunReport {
        self.run_to_fixpoint()
    }
    fn event(&mut self, event: &TopologyEvent) -> RunReport {
        self.apply_topology_event(event)
    }
    fn pump(&mut self) -> bool {
        self.poll_queries()
    }
    fn end_state(&self) -> EndState {
        EndState {
            stats: self.stats(),
            routes: sorted(self.relation("bestRoute")),
            provenance_digest: self.provenance().content_digest(),
            now: self.now(),
        }
    }
}

/// The full-scan round loop: the default configuration (batched shipping,
/// provenance captured) and no query plane.
struct FullScan {
    engines: BTreeMap<Addr, NodeEngine>,
    network: Network<NetMessage>,
    provenance: ProvenanceSystem,
    max_rounds: usize,
}

impl FullScan {
    fn new(topology: Topology, config: &NetTrailsConfig) -> Self {
        let program = Arc::new(CompiledProgram::from_source(PROGRAM).unwrap());
        let engine = |node: &str| NodeEngine::new(program.clone(), EngineConfig::new(node));
        FullScan {
            engines: topology
                .nodes()
                .map(|n| (Addr::new(n), engine(n)))
                .collect(),
            provenance: ProvenanceSystem::with_shards(topology.nodes(), config.prov_shards),
            network: Network::new(topology, config.network.clone()),
            max_rounds: config.max_rounds,
        }
    }

    fn deliver(&mut self) -> usize {
        let batch = self.network.advance();
        for delivered in &batch {
            let NetMessage::DeltaBatch { batch } = &delivered.payload else {
                panic!("only protocol batches are in flight");
            };
            let engine = self.engines.get_mut(&delivered.to).expect("known node");
            for record in &batch.records {
                engine.apply_remote(record.delta.clone(), record.derivation.clone());
            }
        }
        batch.len()
    }
}

impl Platform for FullScan {
    fn insert(&mut self, node: &str, tuple: Tuple) {
        self.engines
            .get_mut(&Addr::new(node))
            .unwrap()
            .insert_base(tuple)
            .unwrap();
    }

    fn run(&mut self) -> RunReport {
        let mut report = RunReport::default();
        loop {
            let mut progressed = false;
            let mut round_firings = Vec::new();
            for (node, engine) in self.engines.iter_mut() {
                if !engine.has_pending() {
                    continue;
                }
                progressed = true;
                let mut out = engine.run();
                report.truncated |= out.truncated;
                for change in &out.local_changes {
                    match change {
                        Delta::Insert(_) => report.insertions += 1,
                        Delta::Delete(_) => report.deletions += 1,
                    }
                }
                round_firings.append(&mut out.firings);
                for batch in out.sends.into_iter().filter(|b| !b.is_empty()) {
                    let (dest, bytes, records) = (batch.dest, batch.wire_size(), batch.len());
                    let message = NetMessage::DeltaBatch { batch };
                    self.network
                        .send_batch(node, dest, message, bytes, records, PROTOCOL_CATEGORY);
                }
            }
            if !round_firings.is_empty() {
                self.provenance.apply_round(&round_firings);
            }
            if !self.network.idle() {
                progressed = true;
                report.deliveries += self.deliver();
            }
            if !progressed {
                return report;
            }
            report.rounds += 1;
            if report.rounds >= self.max_rounds {
                report.truncated = true;
                return report;
            }
        }
    }

    fn event(&mut self, event: &TopologyEvent) -> RunReport {
        let (added, removed) = self.network.topology_mut().apply(event);
        for link in removed {
            let tuple = protocols::link_tuple(&link.from, &link.to, link.cost);
            let engine = self.engines.get_mut(&Addr::new(&link.from)).unwrap();
            engine.delete_base(tuple).unwrap();
        }
        for link in added {
            self.insert(
                &link.from,
                protocols::link_tuple(&link.from, &link.to, link.cost),
            );
        }
        self.run()
    }

    fn pump(&mut self) -> bool {
        !self.network.idle() && self.deliver() > 0
    }

    fn end_state(&self) -> EndState {
        let mut engine = EngineStats::default();
        let mut stored_tuples = 0;
        let mut routes = Vec::new();
        for (node, e) in &self.engines {
            let s = e.stats();
            engine.deltas_processed += s.deltas_processed;
            engine.rule_firings += s.rule_firings;
            engine.retractions += s.retractions;
            engine.tuples_sent += s.tuples_sent;
            engine.bytes_sent += s.bytes_sent;
            engine.dict_bytes_sent += s.dict_bytes_sent;
            engine.join_probes += s.join_probes;
            engine.agg_recomputes += s.agg_recomputes;
            stored_tuples += e.database().tables().map(|t| t.len()).sum::<usize>();
            routes.extend(e.relation("bestRoute").into_iter().map(|t| (*node, t)));
        }
        EndState {
            stats: PlatformStats {
                engine,
                network: self.network.stats().clone(),
                provenance: self.provenance.stats(),
                provenance_traffic: self.provenance.maintenance_traffic().clone(),
                provenance_sharding: self.provenance.shard_stats().clone(),
                stored_tuples,
            },
            routes: sorted(routes),
            provenance_digest: self.provenance.content_digest(),
            now: self.network.now(),
        }
    }
}

/// SplitMix64, for the trace both loops replay.
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

/// Seed links and anchors, converge, replay the trace. A truncated run is
/// resumed until quiescent; with `pump_between_runs`, one in-flight batch is
/// first delivered outside the run, so the resumed run has to find deltas it
/// did not dispatch itself. Returns every report, in order, and the end state.
fn drive<P: Platform>(
    p: &mut P,
    topology: &Topology,
    events: &[TopologyEvent],
    pump_between_runs: bool,
) -> (Vec<RunReport>, EndState) {
    let mut reports = Vec::new();
    let mut pumped = 0;
    let mut settle = |p: &mut P, mut report: RunReport| {
        while report.truncated {
            reports.push(report);
            if pump_between_runs && p.pump() {
                pumped += 1;
            }
            report = p.run();
        }
        reports.push(report);
    };
    for (node, tuple) in protocols::link_tuples(topology) {
        p.insert(&node, tuple);
    }
    for anchor in ["as1", "as17"] {
        let values = vec![Value::addr(anchor), Value::addr(anchor)];
        p.insert(anchor, Tuple::new("anchor", values));
    }
    let report = p.run();
    settle(p, report);
    for event in events {
        let report = p.event(event);
        settle(p, report);
    }
    assert!(!pump_between_runs || pumped > 0, "nothing was pumped");
    (reports, p.end_state())
}

fn assert_equivalent(config: NetTrailsConfig, seed: u64, cycles: usize, pump_between_runs: bool) {
    let mut topology = Topology::internet_as(64, 2, seed);
    if pump_between_runs {
        // Uniform latencies empty the network every round; spread them, so a
        // truncated run leaves batches in flight for the pump to deliver.
        let mut rng = Rng(!seed);
        for mut link in topology.links().cloned().collect::<Vec<_>>() {
            link.latency_ms = 1 + rng.below(3) as u64;
            topology.add_link(link);
        }
    }
    let events = churn_trace(&topology, cycles, seed);
    let mut reference = FullScan::new(topology.clone(), &config);
    let (expected_reports, expected) = drive(&mut reference, &topology, &events, pump_between_runs);
    let mut nt = NetTrails::new(PROGRAM, topology.clone(), config).unwrap();
    let (reports, end) = drive(&mut nt, &topology, &events, pump_between_runs);

    assert_eq!(reports.len(), expected_reports.len());
    for (i, (got, want)) in reports.iter().zip(&expected_reports).enumerate() {
        assert_eq!(got, want, "run report {i}");
    }
    assert_eq!(end.stats, expected.stats);
    assert_eq!(end, expected);
    assert!(!end.routes.is_empty() && end.stats.engine.retractions > 0);
    assert_eq!(nt.stray_misrouted(), 0);
}

#[test]
fn ready_set_loop_matches_the_full_scan_under_churn() {
    for seed in [12, 4242] {
        assert_equivalent(NetTrailsConfig::default(), seed, 12, false);
    }
}

/// `max_rounds` cuts every convergence into many calls: the ready set has to
/// survive each call for the next one to resume where it stopped.
#[test]
fn truncated_runs_resume_from_the_surviving_ready_set() {
    let config = NetTrailsConfig {
        max_rounds: 2,
        ..NetTrailsConfig::default()
    };
    assert_equivalent(config, 7, 4, false);
}

/// Between truncated runs the driver pumps the query plane, which delivers
/// in-flight protocol deltas outside any run; the next run must pick them up.
#[test]
fn deltas_delivered_by_poll_queries_are_picked_up_by_the_next_run() {
    let config = NetTrailsConfig {
        max_rounds: 3,
        ..NetTrailsConfig::default()
    };
    assert_equivalent(config, 21, 4, true);
}
