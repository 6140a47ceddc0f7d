//! The layered round loop: `NetTrails::run_to_fixpoint` recomposed from the
//! same public layer calls, with a span around each.
//!
//! This is how per-layer time is measured from outside without editing any
//! crate: [`LayeredNet`] owns the engines, the simulated network, the
//! provenance system and the query executor directly, and its round loop
//! makes the calls the platform makes, in the platform's order —
//! `NodeEngine::{has_pending, run, apply_remote}`, `DeltaBatch::wire_size`,
//! `Network::{send_batch, advance}`, `ProvenanceSystem::apply_round`,
//! `QueryExecutor::{submit, poll, deliver}`. Only the default configuration
//! is mirrored (batched shipping, provenance captured). Because it is a
//! re-composition and not the product, every traced run ends by comparing its
//! [`crate::platform::Fingerprint`] with the product's; a mismatch fails the
//! traced run as "layer trace diverged from product loop" and never touches
//! an end-to-end number.
//!
//! Span hierarchy: op (`op.*`) → `nettrails.round` → layer call.

use crate::inputs::Inputs;
use crate::platform::{drive_wave, seed_facts, Platform, QueryPlane, Session, WaveRequest};
use crate::spans::Tracer;
use logstore::{NodeSnapshot, SystemSnapshot};
use nettrails::platform::PROTOCOL_CATEGORY;
use nettrails::{NetMessage, NetTrailsConfig, PlatformStats, RunReport};
use nt_runtime::{
    Addr, CompiledProgram, Delta, EngineConfig, EngineStats, Firing, NodeEngine, Tuple,
};
use provenance::{
    ProvGraph, ProvenanceSystem, QueryExecutor, QueryHandle, QueryResult, QuerySpec, QueryStats,
    QUERY_CATEGORY,
};
use qsvc::ServiceConfig;
use simnet::{Delivered, Network, SimTime, TopologyEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Engines + network + provenance + query executor, orchestrated by the
/// benchmark instead of by `NetTrails`.
#[derive(Debug)]
pub struct LayeredNet {
    engines: BTreeMap<Addr, NodeEngine>,
    network: Network<NetMessage>,
    provenance: ProvenanceSystem,
    executor: QueryExecutor,
    config: NetTrailsConfig,
    tracer: Tracer,
}

impl LayeredNet {
    fn insert_fact(&mut self, node: &str, tuple: Tuple) {
        if let Some(engine) = self.engines.get_mut(&Addr::new(node)) {
            engine.insert_base(tuple);
        }
    }

    fn delete_fact(&mut self, node: &str, tuple: Tuple) {
        if let Some(engine) = self.engines.get_mut(&Addr::new(node)) {
            engine.delete_base(tuple);
        }
    }

    /// `NetTrails::run_to_fixpoint`, call for call.
    fn round_loop(&mut self) -> RunReport {
        let mut report = RunReport::default();
        loop {
            let round = self.tracer.enter("nettrails.round");
            let mut progressed = false;
            let mut round_firings: Vec<Firing> = Vec::new();
            let nodes: Vec<Addr> = self.engines.keys().cloned().collect();
            for node in &nodes {
                let engine = self.engines.get_mut(node).expect("known node");
                if !engine.has_pending() {
                    continue;
                }
                progressed = true;
                let span = self.tracer.enter("runtime.engine_run");
                let mut out = engine.run();
                self.tracer.exit(span);
                report.truncated |= out.truncated;
                for change in &out.local_changes {
                    match change {
                        Delta::Insert(_) => report.insertions += 1,
                        Delta::Delete(_) => report.deletions += 1,
                    }
                }
                round_firings.append(&mut out.firings);
                for batch in out.sends {
                    if batch.is_empty() {
                        continue;
                    }
                    let span = self.tracer.enter("simnet.send");
                    let dest = batch.dest;
                    let bytes = batch.wire_size();
                    let records = batch.len();
                    self.network.send_batch(
                        node,
                        dest,
                        NetMessage::DeltaBatch { batch },
                        bytes,
                        records,
                        PROTOCOL_CATEGORY,
                    );
                    self.tracer.exit(span);
                }
            }
            if !round_firings.is_empty() {
                let span = self.tracer.enter("provenance.apply_round");
                self.provenance.apply_round(&round_firings);
                self.tracer.exit(span);
            }
            progressed |= self.flush_query_frames();
            if !self.network.idle() {
                progressed = true;
                let batch = self.advance();
                report.deliveries += batch.len();
                for delivered in batch {
                    self.dispatch(delivered, &mut report);
                }
                progressed |= self.flush_query_frames();
            }
            self.tracer.exit(round);
            if !progressed {
                break;
            }
            report.rounds += 1;
            if report.rounds >= self.config.max_rounds {
                report.truncated = true;
                break;
            }
        }
        report
    }

    fn advance(&mut self) -> Vec<Delivered<NetMessage>> {
        let span = self.tracer.enter("simnet.advance");
        let batch = self.network.advance();
        self.tracer.exit(span);
        batch
    }

    /// `NetTrails::flush_query_frames`.
    fn flush_query_frames(&mut self) -> bool {
        let span = self.tracer.enter("provenance.query_poll");
        let batches = self.executor.poll();
        self.tracer.exit(span);
        let sent = !batches.is_empty();
        for batch in batches {
            let span = self.tracer.enter("simnet.send");
            let bytes = batch.wire_size();
            let records = batch.len();
            let (from, to) = (batch.from, batch.to);
            let message = if batch.is_request() {
                NetMessage::QueryRequest { batch }
            } else {
                NetMessage::QueryResponse { batch }
            };
            self.network
                .send_batch(from, to, message, bytes, records, QUERY_CATEGORY);
            self.tracer.exit(span);
        }
        sent
    }

    /// `NetTrails::dispatch`.
    fn dispatch(&mut self, delivered: Delivered<NetMessage>, report: &mut RunReport) {
        match delivered.payload {
            NetMessage::QueryRequest { batch } | NetMessage::QueryResponse { batch } => {
                let now = self.network.now();
                let span = self.tracer.enter("provenance.query_deliver");
                self.executor.deliver(&self.provenance, batch, now);
                self.tracer.exit(span);
            }
            NetMessage::DeltaBatch { batch } => {
                let Some(engine) = self.engines.get_mut(&delivered.to) else {
                    report.misrouted += 1;
                    return;
                };
                let span = self.tracer.enter("runtime.apply_remote");
                for record in batch.records {
                    engine.apply_remote(record.delta, record.derivation);
                }
                self.tracer.exit(span);
            }
            NetMessage::Delta { .. } => unreachable!("the layered loop ships batches only"),
        }
    }
}

impl QueryPlane for LayeredNet {
    /// `NetTrails::submit_query` for a distributed spec.
    fn submit(&mut self, spec: QuerySpec) -> QueryHandle {
        let now = self.network.now();
        let span = self.tracer.enter("provenance.query_submit");
        let handle = self.executor.submit(&self.provenance, spec, now);
        self.tracer.exit(span);
        handle
    }

    /// `NetTrails::poll_queries`.
    fn poll(&mut self) -> bool {
        let mut progressed = self.flush_query_frames();
        if !self.network.idle() {
            progressed = true;
            let batch = self.advance();
            let mut sink = RunReport::default();
            for delivered in batch {
                self.dispatch(delivered, &mut sink);
            }
            self.flush_query_frames();
        }
        progressed
    }

    /// `NetTrails::try_wait_query`.
    fn redeem(&mut self, handle: QueryHandle) -> Option<(QueryResult, QueryStats)> {
        if !self.executor.is_done(handle) {
            return None;
        }
        let (result, stats) = self.executor.take_result(handle)?;
        Some((result?, stats))
    }
}

impl Platform for LayeredNet {
    /// `NetTrails::new`, with parsing and compilation timed apart.
    fn build(inputs: &Inputs, mut tracer: Tracer) -> Self {
        let config = NetTrailsConfig::default();
        let op = tracer.enter("op.build");
        let span = tracer.enter("ndlog.parse");
        let ast = ndlog::compile(&inputs.program).expect("scenario program parses");
        tracer.exit(span);
        let span = tracer.enter("runtime.compile");
        let program =
            Arc::new(CompiledProgram::from_program(ast).expect("scenario program compiles"));
        tracer.exit(span);
        let span = tracer.enter("nettrails.new");
        let topology = inputs.topology.clone();
        let mut engines = BTreeMap::new();
        for node in topology.nodes() {
            let mut engine_config = EngineConfig::new(node);
            engine_config.use_join_indexes = config.use_join_indexes;
            engine_config.fixpoint_workers = config.fixpoint_workers.max(1);
            engine_config.fixpoint_dispatch_threshold = config.fixpoint_dispatch_threshold;
            engine_config.columnar_storage = config.columnar_storage;
            engines.insert(
                Addr::new(node),
                NodeEngine::new(program.clone(), engine_config),
            );
        }
        let provenance = ProvenanceSystem::with_shards(topology.nodes(), config.prov_shards);
        let network = Network::new(topology, config.network.clone());
        let mut executor = QueryExecutor::new();
        executor.set_frame_merging(config.merge_query_frames);
        tracer.exit(span);
        tracer.exit(op);
        LayeredNet {
            engines,
            network,
            provenance,
            executor,
            config,
            tracer,
        }
    }

    fn seed(&mut self, inputs: &Inputs) {
        let op = self.tracer.enter("op.seed");
        let span = self.tracer.enter("nettrails.seed");
        seed_facts(inputs, |node, tuple| self.insert_fact(node, tuple));
        self.tracer.exit(span);
        self.tracer.exit(op);
    }

    fn run_to_fixpoint(&mut self) -> RunReport {
        let op = self.tracer.enter("op.converge");
        let report = self.round_loop();
        self.tracer.exit(op);
        report
    }

    /// `NetTrails::apply_topology_event`.
    fn apply_event(&mut self, event: &TopologyEvent) -> RunReport {
        let op = self.tracer.enter("op.event");
        let (added, removed) = self.network.topology_mut().apply(event);
        for link in removed {
            self.delete_fact(
                &link.from,
                protocols::link_tuple(&link.from, &link.to, link.cost),
            );
        }
        for link in added {
            self.insert_fact(
                &link.from,
                protocols::link_tuple(&link.from, &link.to, link.cost),
            );
        }
        let report = self.round_loop();
        self.tracer.exit(op);
        report
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        self.network.advance_time_to(t);
    }

    fn now(&self) -> SimTime {
        self.network.now()
    }

    fn relation(&self, relation: &str) -> Vec<(Addr, Tuple)> {
        let mut out = Vec::new();
        for (node, engine) in &self.engines {
            for t in engine.relation(relation) {
                out.push((*node, t));
            }
        }
        out
    }

    /// `NetTrails::stats`.
    fn stats(&self) -> PlatformStats {
        let mut engine = EngineStats::default();
        let mut stored_tuples = 0usize;
        for e in self.engines.values() {
            let s = e.stats();
            engine.deltas_processed += s.deltas_processed;
            engine.rule_firings += s.rule_firings;
            engine.retractions += s.retractions;
            engine.tuples_sent += s.tuples_sent;
            engine.bytes_sent += s.bytes_sent;
            engine.dict_bytes_sent += s.dict_bytes_sent;
            engine.join_probes += s.join_probes;
            engine.agg_recomputes += s.agg_recomputes;
            for table in e.database().tables() {
                if !table
                    .schema
                    .name
                    .starts_with(nt_runtime::engine::OUTBOX_PREFIX)
                {
                    stored_tuples += table.len();
                }
            }
        }
        PlatformStats {
            engine,
            network: self.network.stats().clone(),
            provenance: self.provenance.stats(),
            provenance_traffic: self.provenance.maintenance_traffic().clone(),
            provenance_sharding: self.provenance.shard_stats().clone(),
            stored_tuples,
        }
    }

    fn provenance(&self) -> &ProvenanceSystem {
        &self.provenance
    }

    fn executor(&self) -> &QueryExecutor {
        &self.executor
    }

    /// `NetTrails::capture_snapshot`.
    fn capture_snapshot(&mut self) -> SystemSnapshot {
        let op = self.tracer.enter("op.capture");
        let span = self.tracer.enter("nettrails.capture_snapshot");
        let mut graph = ProvGraph::from_system(&self.provenance);
        graph.edges.sort();
        graph.rebuild_adjacency();
        let mut snap = SystemSnapshot {
            time: self.network.now(),
            topology: self.network.topology().clone(),
            graph,
            traffic: self.network.stats().clone(),
            ..Default::default()
        };
        for (node, engine) in &self.engines {
            snap.nodes.insert(
                *node,
                NodeSnapshot::capture(node.as_str(), engine.database(), &self.provenance),
            );
        }
        snap.stamp_dictionary();
        self.tracer.exit(span);
        self.tracer.exit(op);
        snap
    }

    fn wave(&mut self, requests: &[WaveRequest]) -> Vec<Session> {
        let op = self.tracer.enter("op.wave");
        let sessions = drive_wave(self, requests, ServiceConfig::default().max_in_flight);
        self.tracer.exit(op);
        sessions
    }

    fn storage_bytes(&self) -> usize {
        self.engines
            .values()
            .map(|engine| engine.database().storage_bytes())
            .sum()
    }

    fn wire_bytes(&self) -> u64 {
        self.network.stats().bytes + self.provenance.maintenance_traffic().bytes
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Fnv, Program, Shape};
    use crate::platform::{fingerprint, Product};
    use crate::workloads::{self, Budget, Kind, Workload};
    use simnet::Topology;

    /// A 16-node ladder under the mixed program, two anchors.
    fn ladder_inputs() -> Inputs {
        let mut inputs = Inputs::generate(
            Shape {
                nodes: 16,
                anchors: 2,
                program: Program::Mixed,
            },
            5,
        );
        inputs.topology = Topology::ladder(8);
        inputs.anchors = vec!["n1".into(), "n12".into()];
        inputs
    }

    fn ladder_workload(kind: Kind) -> Workload {
        Workload {
            name: "ladder",
            kind,
            shape: Shape {
                nodes: 16,
                anchors: 2,
                program: Program::Mixed,
            },
            links: 6,
            waves: 2,
            rate: "query_sessions_per_s",
            latency: "churn_event_p50_ms",
            bytes_of: "test bytes",
        }
    }

    /// Converge, then run two mixed cycles (churn + a cached wave each) and a
    /// capture on `P`; return everything machine-independent it ended with.
    fn drive<P: Platform>(
        tracer: Tracer,
    ) -> (crate::platform::Fingerprint, u64, SystemSnapshot, P) {
        let inputs = ladder_inputs();
        let mut p = P::build(&inputs, tracer);
        p.seed(&inputs);
        let report = p.run_to_fixpoint();
        assert!(!report.truncated && report.misrouted == 0);
        let w = ladder_workload(Kind::Mixed);
        let m = workloads::mixed(&w, &mut p, &inputs, Budget::Blocks(2));
        assert_eq!(m.failed, 0, "no event or session may fail");
        let mut sessions = Fnv::default();
        for latency in m.get("query_sim_ms") {
            sessions.write_u64(latency.to_bits());
        }
        sessions.write_u64(m.total("query_bytes") as u64);
        sessions.write_u64(m.total("query_cache_hits") as u64);
        let snapshot = p.capture_snapshot();
        (
            fingerprint(&p, inputs.result_relations),
            sessions.finish(),
            snapshot,
            p,
        )
    }

    #[test]
    fn layered_loop_matches_nettrails_on_a_16_node_ladder() {
        let (product_state, product_sessions, product_snapshot, _) =
            drive::<Product>(Tracer::disabled());
        let (layered_state, layered_sessions, layered_snapshot, mut layered) =
            drive::<LayeredNet>(Tracer::enabled());
        assert_eq!(layered_state, product_state, "end state");
        assert_eq!(layered_sessions, product_sessions, "per-session stats");
        assert_eq!(layered_snapshot, product_snapshot, "captured snapshot");
        assert!(
            product_state.stats.engine.retractions > 0,
            "churn retracted"
        );
        assert!(product_state.query_traffic.messages > 0, "queries ran");

        // Every layer the loop composes left spans, nested op → round → call.
        let spans = layered.tracer().spans().to_vec();
        let times = crate::spans::self_times(&spans, 0);
        for name in [
            "op.build",
            "op.seed",
            "op.converge",
            "op.event",
            "op.wave",
            "op.capture",
            "nettrails.round",
            "ndlog.parse",
            "runtime.compile",
            "runtime.engine_run",
            "runtime.apply_remote",
            "simnet.send",
            "simnet.advance",
            "provenance.apply_round",
            "provenance.query_submit",
            "provenance.query_poll",
            "provenance.query_deliver",
            "nettrails.capture_snapshot",
        ] {
            assert!(times.contains_key(name), "no span named {name}");
        }
        let run = spans
            .iter()
            .find(|s| s.name == "runtime.engine_run")
            .expect("an engine ran");
        let round = &spans[run.parent as usize];
        assert_eq!(round.name, "nettrails.round");
        assert!(spans[round.parent as usize].name.starts_with("op."));
        assert_eq!(run.op_id, round.op_id);
    }

    /// The churn driver alone, and the direct-drive wave schedule against the
    /// query service's, on the same ladder.
    #[test]
    fn direct_drive_matches_the_query_service_schedule() {
        use crate::platform::WaveDriver;
        let run = |driver: WaveDriver| {
            let inputs = ladder_inputs();
            let mut p = Product::build(&inputs, Tracer::disabled()).with_wave_driver(driver);
            p.seed(&inputs);
            p.run_to_fixpoint();
            let w = ladder_workload(Kind::Storm);
            let m = workloads::storm(&w, &mut p, &inputs, Budget::Blocks(2));
            assert_eq!(m.failed, 0);
            (
                fingerprint(&p, inputs.result_relations),
                m.get("query_sim_ms").to_vec(),
                m.total("query_bytes"),
            )
        };
        assert_eq!(run(WaveDriver::Service), run(WaveDriver::Direct));
    }
}
