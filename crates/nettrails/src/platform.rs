//! The NetTrails platform: engines + network + provenance, orchestrated.

use crate::engines::EngineTable;
use nt_runtime::{
    Addr, Census, CompiledProgram, Delta, DeltaBatch, Derivation, EngineConfig, EngineStats,
    NodeEngine, Tuple, TupleId,
};
use provenance::{
    ProvGraph, ProvenanceSystem, QueryBatch, QueryEngine, QueryExecutor, QueryHandle, QueryKind,
    QueryMode, QueryOptions, QueryResult, QuerySpec, QueryStats, SystemStats, TraversalOrder,
    QUERY_CATEGORY,
};
use serde::{Deserialize, Serialize};
use simnet::{Delivered, Network, NetworkConfig, SimTime, Topology, TopologyEvent, TrafficStats};
use std::sync::Arc;

/// Traffic category used for protocol (tuple-shipping) messages.
pub const PROTOCOL_CATEGORY: &str = "protocol";

/// The payload carried by simulator messages between NetTrails nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMessage {
    /// One delta and its derivation. Nothing constructs it: deltas travel
    /// in [`NetMessage::DeltaBatch`]es.
    // fence: benchmark/src/layered.rs:184
    #[doc(hidden)]
    Delta {
        /// The change.
        delta: Delta,
        /// Why it holds (stored by the receiving engine; used for retraction).
        derivation: Derivation,
    },
    /// One engine round's deltas for a single destination: fixed-width
    /// records plus the shared dictionary header carrying the strings this
    /// destination has not been sent before. Priced as
    /// `header_bytes + Σ record bytes`, with one network framing header for
    /// the whole batch.
    DeltaBatch {
        /// The coalesced batch.
        batch: DeltaBatch,
    },
    /// One query-executor flush's requests from one node to another:
    /// expand-vertex/expand-exec/cancel records asking the destination to do
    /// traversal work, behind a first-use dictionary header (requests are
    /// string-free, so the header is usually empty). Charged to the
    /// `"prov-query"` category.
    QueryRequest {
        /// The sealed frame.
        batch: QueryBatch,
    },
    /// Completed proof subtrees travelling back to the node that asked for
    /// them — the response half of the query protocol, same frame format.
    QueryResponse {
        /// The sealed frame.
        batch: QueryBatch,
    },
}

/// Platform configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetTrailsConfig {
    /// Capture provenance while the protocol runs (disable to measure the
    /// bare protocol for the maintenance-overhead experiment).
    pub capture_provenance: bool,
    /// Simulated network parameters.
    pub network: NetworkConfig,
    /// Safety cap on the number of engine/network rounds per
    /// [`NetTrails::run_to_fixpoint`] call.
    pub max_rounds: usize,
    /// Accepts `true` only: engines probe the posting lists of the columns
    /// their join plans bind. [`NetTrails::new`] refuses `false`.
    // fence: benchmark/src/layered.rs:241
    #[doc(hidden)]
    pub use_join_indexes: bool,
    /// Tolerate deltas addressed to nodes that do not exist (they are
    /// counted in [`RunReport::misrouted`] and dropped). By default a
    /// misrouted delta fails loudly in debug builds — it means the program
    /// derived a head whose location attribute names an unknown node.
    pub tolerate_misrouted: bool,
    /// Accepts 1 only: provenance is one arena. [`NetTrails::new`] refuses
    /// any other value.
    // fence: benchmark/src/layered.rs:250
    #[doc(hidden)]
    pub prov_shards: usize,
    /// Accepts 1 only: a generation evaluates on its engine's thread.
    /// [`NetTrails::new`] refuses any other value.
    // fence: benchmark/src/layered.rs:242
    #[doc(hidden)]
    pub fixpoint_workers: usize,
    /// Accepts 64 only: nothing is dispatched. [`NetTrails::new`] refuses
    /// any other value.
    // fence: benchmark/src/layered.rs:243
    #[doc(hidden)]
    pub fixpoint_dispatch_threshold: usize,
    /// Accepts `true` only: engine tables are stored column-major (see
    /// `nt_runtime::store`). [`NetTrails::new`] refuses `false`.
    // fence: benchmark/src/layered.rs:244
    #[doc(hidden)]
    pub columnar_storage: bool,
    /// Accepts `true` only: a query flush ships one frame per (source,
    /// destination, direction), shared by every session staging toward it.
    /// [`NetTrails::new`] refuses `false`.
    // fence: benchmark/src/layered.rs:253
    #[doc(hidden)]
    pub merge_query_frames: bool,
}

impl Default for NetTrailsConfig {
    fn default() -> Self {
        NetTrailsConfig {
            capture_provenance: true,
            network: NetworkConfig::default(),
            max_rounds: 1_000_000,
            use_join_indexes: true,
            tolerate_misrouted: false,
            prov_shards: provenance::fence::PROV_SHARDS,
            fixpoint_workers: nt_runtime::fence::FIXPOINT_WORKERS,
            fixpoint_dispatch_threshold: nt_runtime::fence::FIXPOINT_DISPATCH_THRESHOLD,
            columnar_storage: true,
            merge_query_frames: true,
        }
    }
}

impl NetTrailsConfig {
    /// A configuration with provenance capture disabled.
    pub fn without_provenance() -> Self {
        NetTrailsConfig {
            capture_provenance: false,
            ..NetTrailsConfig::default()
        }
    }
}

/// What happened during one `run_to_fixpoint` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Engine/network scheduling rounds executed.
    pub rounds: usize,
    /// Messages delivered by the network during the run.
    pub deliveries: usize,
    /// Local tuple insertions observed across all nodes.
    pub insertions: usize,
    /// Local tuple deletions observed across all nodes.
    pub deletions: usize,
    /// Messages addressed to a node that does not exist (dropped). Always 0
    /// for well-formed programs; a non-zero count means a rule derived a
    /// head whose location attribute names an unknown node. Unless
    /// [`NetTrailsConfig::tolerate_misrouted`] is set, this also fails
    /// loudly in debug builds.
    pub misrouted: usize,
    /// True when the round cap was hit before quiescence.
    pub truncated: bool,
}

impl RunReport {
    /// Tuples touched (inserted + deleted) — the work metric used by the
    /// incremental-vs-recompute experiment.
    pub fn tuples_touched(&self) -> usize {
        self.insertions + self.deletions
    }
}

/// Aggregated statistics of a platform instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformStats {
    /// Sum of per-node engine counters.
    pub engine: EngineStats,
    /// Protocol / tuple-shipping traffic.
    pub network: TrafficStats,
    /// Provenance store sizes and firing counts.
    pub provenance: SystemStats,
    /// No provenance maintenance traffic: a remote derivation's `prov`
    /// entry arrives on its protocol record. Always empty.
    // fence: benchmark/src/workloads.rs:303
    // fence: benchmark/src/runs.rs:366
    // fence: benchmark/src/layered.rs:348
    #[doc(hidden)]
    pub provenance_traffic: TrafficStats,
    /// No cross-shard exchange: provenance is one arena.
    // fence: benchmark/src/layered.rs:349
    // fence: benchmark/src/runs.rs:369
    #[doc(hidden)]
    pub provenance_sharding: provenance::fence::ShardStats,
    /// Tuples currently stored across all nodes.
    pub stored_tuples: usize,
}

/// The NetTrails platform (see the crate documentation for an overview).
#[derive(Debug)]
pub struct NetTrails {
    program: Arc<CompiledProgram>,
    /// One engine per node, with the ready set the round loop drains.
    engines: EngineTable,
    network: Network<NetMessage>,
    provenance: ProvenanceSystem,
    /// The in-process query engine: the [`QueryMode::Local`] path.
    query_engine: QueryEngine,
    /// The step-driven distributed query executor: the
    /// [`QueryMode::Distributed`] path, pumped by the round loop.
    query_executor: QueryExecutor,
    /// Misrouted deliveries observed outside `run_to_fixpoint` (see
    /// [`NetTrails::stray_misrouted`]).
    stray_misrouted: usize,
    config: NetTrailsConfig,
    source: String,
}

impl NetTrails {
    /// Compile `program_src` and instantiate one engine per topology node.
    ///
    /// Fails with [`nt_runtime::RuntimeError::Config`] naming the field when
    /// a fenced field of `config` holds anything but its one legal value
    /// (see [`crate::fence`]).
    pub fn new(
        program_src: &str,
        topology: Topology,
        config: NetTrailsConfig,
    ) -> nt_runtime::Result<Self> {
        crate::fence::check_config(&config)?;
        let program = Arc::new(CompiledProgram::from_source(program_src)?);
        let engines = EngineTable::new(
            topology
                .nodes()
                .map(|node| NodeEngine::new(program.clone(), EngineConfig::new(node))),
        );
        let provenance = ProvenanceSystem::new(topology.nodes());
        let network = Network::new(topology, config.network.clone());
        // The local engine's estimate charges one round trip (request +
        // response) at the network's default per-link delay, so its numbers
        // line up with what the distributed executor measures on uniform
        // topologies.
        let query_engine =
            QueryEngine::with_hop_rtt_ms(2.0 * config.network.default_latency_ms as f64);
        Ok(NetTrails {
            program,
            engines,
            network,
            provenance,
            query_engine,
            query_executor: QueryExecutor::new(),
            stray_misrouted: 0,
            config,
            source: program_src.to_string(),
        })
    }

    /// The compiled program (post-localization).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The NDlog source the platform was built from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Node names, in deterministic order.
    pub fn nodes(&self) -> Vec<Addr> {
        self.engines.names().to_vec()
    }

    /// The simulated network (topology + traffic counters).
    pub fn network(&self) -> &Network<NetMessage> {
        &self.network
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.network.now()
    }

    /// Advance the simulated clock to `t` without delivering anything (no-op
    /// if `t` is in the past). Trace-driven workloads use this to model idle
    /// gaps between scheduled events, so measured latencies ride the same
    /// clock as the trace schedule.
    pub fn advance_clock_to(&mut self, t: SimTime) {
        self.network.advance_time_to(t);
    }

    /// The distributed provenance store.
    pub fn provenance(&self) -> &ProvenanceSystem {
        &self.provenance
    }

    /// The in-process (local-mode) query engine, exposing its cache and
    /// cumulative estimated traffic.
    pub fn query_engine(&self) -> &QueryEngine {
        &self.query_engine
    }

    /// The distributed query executor, exposing its cache, session state
    /// and cumulative wire traffic.
    pub fn query_executor(&self) -> &QueryExecutor {
        &self.query_executor
    }

    /// Assemble the centralized provenance graph (what the Log Store ships to
    /// the visualizer).
    pub fn provenance_graph(&self) -> ProvGraph {
        ProvGraph::from_system(&self.provenance)
    }

    /// Capture the whole system as a [`logstore::SystemSnapshot`]: every
    /// node's visible relations, the topology, the assembled provenance
    /// graph and the traffic counters, one walk of each. The snapshot is
    /// *canonical* — tuple vectors and graph edges are in their sorted
    /// capture order — so the incremental capture path
    /// ([`logstore::SnapshotCapturer`]) can materialize it back
    /// bit-identically from a checkpoint + delta chain.
    pub fn capture_snapshot(&self) -> logstore::SystemSnapshot {
        let mut snap = logstore::SystemSnapshot {
            time: self.now(),
            topology: self.network.topology().clone(),
            graph: self.provenance_graph(),
            traffic: self.network.stats().clone(),
            ..Default::default()
        };
        for (node, engine) in self.engines.iter() {
            snap.nodes.insert(
                node,
                logstore::NodeSnapshot::of(node.as_str(), engine.database()),
            );
        }
        snap
    }

    /// Capture the system and turn the capture into the capturer's next log
    /// record: a checkpoint or a delta against its previous capture.
    pub fn capture_record(&self, capturer: &mut logstore::SnapshotCapturer) -> logstore::LogRecord {
        capturer.capture(self.capture_snapshot())
    }

    /// A node's engine, if it exists.
    pub fn engine(&self, node: &str) -> Option<&NodeEngine> {
        self.engines.get(Addr::new(node))
    }

    // ------------------------------------------------------------------
    // seeding facts
    // ------------------------------------------------------------------

    /// Queue the insertion of a base tuple at `node`; one that does not fit
    /// is refused and counted ([`EngineStats::rejected_facts`]).
    pub fn insert_fact(&mut self, node: &str, tuple: Tuple) {
        if let Some(engine) = self.engines.enqueue(Addr::new(node)) {
            let _ = engine.insert_base(tuple);
        }
    }

    /// Queue the deletion of a base tuple at `node` (refused alike).
    pub fn delete_fact(&mut self, node: &str, tuple: Tuple) {
        if let Some(engine) = self.engines.enqueue(Addr::new(node)) {
            let _ = engine.delete_base(tuple);
        }
    }

    /// Insert a `link(@From,To,Cost)` base tuple for every directed link of
    /// the current topology (the standard way protocols are seeded).
    pub fn seed_links_from_topology(&mut self) {
        let links = protocols::link_tuples(self.network.topology());
        for (node, tuple) in links {
            self.insert_fact(&node, tuple);
        }
    }

    // ------------------------------------------------------------------
    // execution
    // ------------------------------------------------------------------

    /// Run engines and the network until the whole system is quiescent. A
    /// round costs in proportion to the engines that have work, not to the
    /// size of the network: only the table's ready set is visited.
    pub fn run_to_fixpoint(&mut self) -> RunReport {
        let mut report = RunReport::default();
        loop {
            // 1. Run every engine with pending deltas to its local fixpoint.
            let mut progressed = self.engines.run_ready(|node, out| {
                report.truncated |= out.truncated;
                for change in &out.local_changes {
                    match change {
                        Delta::Insert(_) => report.insertions += 1,
                        Delta::Delete(_) => report.deletions += 1,
                    }
                }
                // Engines run in node order and nothing in a run reads
                // provenance, so applying each run's firings as it returns
                // applies the round's stream in stream order.
                if self.config.capture_provenance {
                    self.provenance.apply_round(&out.firings);
                }
                for batch in out.sends {
                    if batch.is_empty() {
                        continue;
                    }
                    // One message per (round, dest), priced as the engine
                    // accounted it: dictionary header + n fixed-width
                    // record bodies.
                    let (dest, bytes, records) = (batch.dest, batch.wire_size(), batch.len());
                    self.network.send_batch(
                        node,
                        dest,
                        NetMessage::DeltaBatch { batch },
                        bytes,
                        records,
                        PROTOCOL_CATEGORY,
                    );
                }
            });
            // 2. Ship whatever the query executor staged (concurrent query
            // sessions ride the same wire discipline as everything else).
            progressed |= self.flush_query_frames();
            // 3. Deliver the next batch of in-flight messages.
            if !self.network.idle() {
                progressed = true;
                let batch = self.network.advance();
                report.deliveries += batch.len();
                for delivered in batch {
                    self.dispatch(delivered, &mut report);
                }
                // Query deliveries may immediately stage follow-up frames.
                progressed |= self.flush_query_frames();
            }
            if !progressed {
                // Every site that queues work marks its engine ready; one that
                // forgot would strand deltas here.
                debug_assert!(self.engines.iter().all(|(_, e)| !e.has_pending()));
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

    /// Apply a topology event: update the simulated topology, translate it to
    /// base `link` tuple insertions/deletions at the affected nodes, and run
    /// the system back to a fixpoint. Returns the work report of the
    /// incremental recomputation — the quantity compared against
    /// recompute-from-scratch in the experiments.
    pub fn apply_topology_event(&mut self, event: &TopologyEvent) -> RunReport {
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
        self.run_to_fixpoint()
    }

    /// Build a fresh platform over the *current* topology and recompute all
    /// state from scratch. Used as the non-incremental baseline (E3).
    pub fn recompute_from_scratch(&self) -> nt_runtime::Result<(NetTrails, RunReport)> {
        let mut fresh = NetTrails::new(
            &self.source,
            self.network.topology().clone(),
            self.config.clone(),
        )?;
        fresh.seed_links_from_topology();
        let report = fresh.run_to_fixpoint();
        Ok((fresh, report))
    }

    // ------------------------------------------------------------------
    // inspection
    // ------------------------------------------------------------------

    /// Tuples of `relation` stored at `node`.
    pub fn relation_at(&self, node: &str, relation: &str) -> Vec<Tuple> {
        self.engines
            .get(Addr::new(node))
            .map(|e| e.relation(relation))
            .unwrap_or_default()
    }

    /// All tuples of `relation` across every node, tagged with their node.
    pub fn relation(&self, relation: &str) -> Vec<(Addr, Tuple)> {
        let mut out = Vec::new();
        for (node, engine) in self.engines.iter() {
            for t in engine.relation(relation) {
                out.push((node, t));
            }
        }
        out
    }

    /// Find the first tuple of `relation` satisfying a predicate.
    pub fn find_tuple(
        &self,
        relation: &str,
        predicate: impl Fn(&Tuple) -> bool,
    ) -> Option<(Addr, Tuple)> {
        self.relation(relation)
            .into_iter()
            .find(|(_, t)| predicate(t))
    }

    // ------------------------------------------------------------------
    // provenance queries
    // ------------------------------------------------------------------

    /// Open a query session for `target`: a fluent builder over the
    /// question, traversal, pruning and execution mode, terminated by
    /// [`QuerySession::submit`] (asynchronous handle) or
    /// [`QuerySession::run`] (drive to completion).
    ///
    /// ```
    /// # use nettrails::provenance::{QueryKind, QueryResult, TraversalOrder};
    /// # use nettrails::{protocols, simnet::Topology, NetTrails, NetTrailsConfig};
    /// # let config = NetTrailsConfig::default();
    /// # let mut nt = NetTrails::new(protocols::mincost::PROGRAM, Topology::ladder(3), config)
    /// #     .unwrap();
    /// # nt.seed_links_from_topology();
    /// # nt.run_to_fixpoint();
    /// # let (_, tuple) = nt.relation("minCost").into_iter().next().unwrap();
    /// let (result, stats) = nt
    ///     .query(&tuple)
    ///     .from_node("n3")
    ///     .kind(QueryKind::Lineage)
    ///     .traversal(TraversalOrder::BreadthFirst)
    ///     .max_depth(4)
    ///     .run();
    /// # assert!(matches!(result, QueryResult::Lineage(_)));
    /// # assert!(stats.messages > 0);
    /// ```
    ///
    /// The querier defaults to the target's home node; the mode defaults to
    /// [`QueryMode::Distributed`], where every cross-node hop is a real
    /// `prov-query` frame through the simulated network and the reported
    /// latency is measured off the network clock.
    pub fn query(&mut self, target: &Tuple) -> QuerySession<'_> {
        self.query_vid(target.id())
    }

    /// Open a tenant-attributed request builder for the query service:
    ///
    /// ```
    /// # use nettrails::provenance::QueryKind;
    /// # use nettrails::{protocols, simnet::Topology, NetTrails, NetTrailsConfig};
    /// # let config = NetTrailsConfig::default();
    /// # let mut nt = NetTrails::new(protocols::mincost::PROGRAM, Topology::ladder(3), config)
    /// #     .unwrap();
    /// # nt.seed_links_from_topology();
    /// # nt.run_to_fixpoint();
    /// # let (_, suspicious_route) = nt.relation("minCost").into_iter().next().unwrap();
    /// let request = nt.service("ops")
    ///     .deadline_ms(40.0)
    ///     .query(&suspicious_route)
    ///     .kind(QueryKind::Lineage)
    ///     .request();
    /// # assert_eq!(request.tenant, "ops");
    /// # assert_eq!(request.deadline_ms, Some(40.0));
    /// ```
    ///
    /// Unlike [`NetTrails::query`], nothing is submitted here: the built
    /// [`ServiceRequest`] is handed to `qsvc::QueryService::enqueue`, which
    /// owns admission, per-tenant fair scheduling and deadline enforcement.
    pub fn service(&mut self, tenant: &str) -> ServiceBuilder<'_> {
        ServiceBuilder {
            nt: self,
            tenant: tenant.to_string(),
            deadline_ms: None,
        }
    }

    /// Open a query session addressed directly by VID.
    pub fn query_vid(&mut self, vid: TupleId) -> QuerySession<'_> {
        let querier = self
            .provenance
            .vertex_home(vid)
            .or_else(|| self.engines.names().first().copied())
            .unwrap_or_default();
        QuerySession {
            nt: self,
            spec: QuerySpec {
                querier,
                vid,
                kind: QueryKind::Lineage,
                mode: QueryMode::Distributed,
                options: QueryOptions::default(),
            },
            service: None,
        }
    }

    /// Submit a compiled [`QuerySpec`]. [`QueryMode::Local`] runs the
    /// in-process engine synchronously; [`QueryMode::Distributed`] starts a
    /// message-driven session that the round loop pumps.
    pub fn submit_query(&mut self, spec: QuerySpec) -> QueryHandle {
        match spec.mode {
            QueryMode::Local => {
                let (result, stats) = self.query_engine.run(&self.provenance, &spec);
                self.query_executor.adopt_result(result, stats)
            }
            QueryMode::Distributed => {
                let now = self.network.now();
                self.query_executor.submit(&self.provenance, spec, now)
            }
        }
    }

    /// True when the session has its final result (or was cancelled).
    pub fn query_done(&self, handle: QueryHandle) -> bool {
        self.query_executor.is_done(handle)
    }

    /// One pump step of the query plane: ship staged frames, then advance
    /// the network and deliver. Returns false when there was nothing to do.
    pub fn poll_queries(&mut self) -> bool {
        let mut progressed = self.flush_query_frames();
        if !self.network.idle() {
            progressed = true;
            let batch = self.network.advance();
            let mut sink = RunReport::default();
            for delivered in batch {
                self.dispatch(delivered, &mut sink);
            }
            // Misroutes delivered while pumping outside `run_to_fixpoint`
            // have no RunReport to land in; keep them visible.
            self.stray_misrouted += sink.misrouted;
            self.flush_query_frames();
        }
        progressed
    }

    /// Misrouted deliveries observed while pumping the query plane outside
    /// [`NetTrails::run_to_fixpoint`] (runs count their own into their
    /// [`RunReport::misrouted`]).
    pub fn stray_misrouted(&self) -> usize {
        self.stray_misrouted
    }

    /// Drive the network until `handle` completes and return its result.
    ///
    /// Panics if the session was cancelled (use [`NetTrails::cancel_query`]'s
    /// return value instead) or stalls, which would be an executor bug.
    pub fn wait_query(&mut self, handle: QueryHandle) -> (QueryResult, QueryStats) {
        while !self.query_executor.is_done(handle) {
            assert!(
                self.poll_queries(),
                "query session stalled with an idle network"
            );
        }
        let (result, stats) = self
            .query_executor
            .take_result(handle)
            .expect("session finished");
        (result.expect("query was cancelled, not completed"), stats)
    }

    /// Non-panicking redemption of a finished session: `Some` with the
    /// result and final stats when the session completed, `None` when it was
    /// cancelled (its stats remain available through
    /// [`NetTrails::cancel_query`]'s return value at cancel time) or when
    /// the handle is unknown / still running. Unlike
    /// [`NetTrails::wait_query`] this never pumps the network — callers that
    /// multiplex many sessions (the query service) drive
    /// [`NetTrails::poll_queries`] themselves and redeem whichever handles
    /// have finished.
    pub fn try_wait_query(&mut self, handle: QueryHandle) -> Option<(QueryResult, QueryStats)> {
        if !self.query_executor.is_done(handle) {
            return None;
        }
        let (result, stats) = self.query_executor.take_result(handle)?;
        Some((result?, stats))
    }

    /// Cancel a running session: outstanding subtrees are abandoned, one
    /// cancel frame per affected node is shipped (and charged), and the
    /// traffic spent so far is returned.
    pub fn cancel_query(&mut self, handle: QueryHandle) -> QueryStats {
        let now = self.network.now();
        self.query_executor.cancel(handle, now);
        // Ship the cancel frames now (so they are charged to this session's
        // stats), but do NOT drain the network: other concurrent sessions
        // keep their own pace, and this session's in-flight strays are
        // dropped whenever the driver next advances deliveries.
        self.flush_query_frames();
        self.query_executor.stats_so_far(handle).unwrap_or_default()
    }

    /// Ship every staged query frame through the network. Returns true when
    /// anything was sent.
    fn flush_query_frames(&mut self) -> bool {
        let batches = self.query_executor.poll();
        let sent = !batches.is_empty();
        for batch in batches {
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
        }
        sent
    }

    /// Route one delivered message to its consumer: query frames to the
    /// executor, deltas to the destination engine.
    fn dispatch(&mut self, delivered: Delivered<NetMessage>, report: &mut RunReport) {
        match delivered.payload {
            NetMessage::QueryRequest { batch } | NetMessage::QueryResponse { batch } => {
                let now = self.network.now();
                self.query_executor.deliver(&self.provenance, batch, now);
            }
            payload => {
                let Some(engine) = self.engines.enqueue(delivered.to) else {
                    report.misrouted += 1;
                    debug_assert!(
                        self.config.tolerate_misrouted,
                        "message misrouted to unknown node {} (payload {:?})",
                        delivered.to, payload
                    );
                    return;
                };
                match payload {
                    NetMessage::DeltaBatch { batch } => {
                        for record in batch.records {
                            engine.apply_remote(record.delta, record.derivation);
                        }
                    }
                    NetMessage::Delta { .. } => unreachable!("deltas ship in batches only"),
                    NetMessage::QueryRequest { .. } | NetMessage::QueryResponse { .. } => {
                        unreachable!("query frames are dispatched above")
                    }
                }
            }
        }
    }

    /// Clear both provenance query caches — and the executor's
    /// per-destination dictionary memory, so byte counts start cold too
    /// (between benchmark configurations).
    pub fn clear_query_cache(&mut self) {
        self.query_engine.clear_cache();
        self.query_executor.clear_cache();
        self.query_executor.reset_dictionaries();
    }

    /// Who holds the platform's heap, in live blocks and requested bytes,
    /// read off the structures (`nt_runtime::heap`): every engine's tables
    /// (`table.*`), outbox, dependency index, aggregate state, dictionaries
    /// and run buffers (`engine.*`, the engine table included), the
    /// provenance stores and home index (`prov.*`), and the `network`. A
    /// block several owners share is charged to the first, in that order.
    /// Not read: the compiled program, the topology's B-tree nodes, the
    /// query plane and the platform's own strings — what `new` allocates
    /// and a convergence does not grow.
    pub fn heap_census(&self) -> Census {
        let mut census = Census::default();
        self.engines.heap(&mut census);
        self.provenance.heap(&mut census);
        census.add("network", self.network.heap());
        census
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> PlatformStats {
        let mut engine = EngineStats::default();
        let mut stored_tuples = 0usize;
        for (_, e) in self.engines.iter() {
            let s = e.stats();
            engine.deltas_processed += s.deltas_processed;
            engine.rule_firings += s.rule_firings;
            engine.retractions += s.retractions;
            engine.tuples_sent += s.tuples_sent;
            engine.bytes_sent += s.bytes_sent;
            engine.dict_bytes_sent += s.dict_bytes_sent;
            engine.join_probes += s.join_probes;
            engine.agg_recomputes += s.agg_recomputes;
            engine.rejected_facts += s.rejected_facts;
            stored_tuples += e.database().tables().map(|t| t.len()).sum::<usize>();
        }
        PlatformStats {
            engine,
            network: self.network.stats().clone(),
            provenance: self.provenance.stats(),
            provenance_traffic: Default::default(),
            provenance_sharding: Default::default(),
            stored_tuples,
        }
    }
}

/// A fluent query session builder; see [`NetTrails::query`] and
/// [`NetTrails::service`]. Dropping the builder without calling
/// [`QuerySession::submit`], [`QuerySession::run`] or
/// [`QuerySession::request`] issues nothing.
#[derive(Debug)]
pub struct QuerySession<'a> {
    nt: &'a mut NetTrails,
    spec: QuerySpec,
    /// `(tenant, deadline_ms)` when opened through [`NetTrails::service`].
    service: Option<(String, Option<f64>)>,
}

impl QuerySession<'_> {
    /// Issue the query from this node (default: the target's home).
    pub fn from_node(mut self, querier: &str) -> Self {
        self.spec.querier = Addr::new(querier);
        self
    }

    /// Which provenance question to ask (default: [`QueryKind::Lineage`]).
    pub fn kind(mut self, kind: QueryKind) -> Self {
        self.spec.kind = kind;
        self
    }

    /// Traversal order (default: depth-first).
    pub fn traversal(mut self, traversal: TraversalOrder) -> Self {
        self.spec.options.traversal = traversal;
        self
    }

    /// Reuse cached sub-results from previous queries.
    pub fn cached(mut self) -> Self {
        self.spec.options.use_cache = true;
        self
    }

    /// Threshold pruning: stop descending below this depth.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.spec.options.max_depth = Some(depth);
        self
    }

    /// Threshold pruning: expand at most this many alternative derivations
    /// per tuple vertex.
    pub fn max_derivations(mut self, limit: usize) -> Self {
        self.spec.options.max_derivations_per_vertex = Some(limit);
        self
    }

    /// Replace the whole option set at once.
    pub fn options(mut self, options: QueryOptions) -> Self {
        self.spec.options = options;
        self
    }

    /// Execution mode (default: [`QueryMode::Distributed`]).
    pub fn mode(mut self, mode: QueryMode) -> Self {
        self.spec.mode = mode;
        self
    }

    /// Shorthand for `.mode(QueryMode::Local)`: the in-process oracle path.
    pub fn local(self) -> Self {
        self.mode(QueryMode::Local)
    }

    /// The compiled spec this builder will submit.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Submit the session and return its handle; the platform's round loop
    /// (or [`NetTrails::poll_queries`] / [`NetTrails::wait_query`]) drives
    /// it.
    pub fn submit(self) -> QueryHandle {
        self.nt.submit_query(self.spec)
    }

    /// Submit and drive the session to completion.
    pub fn run(self) -> (QueryResult, QueryStats) {
        let handle = self.nt.submit_query(self.spec);
        self.nt.wait_query(handle)
    }

    /// Deadline of the [`ServiceRequest`] this session becomes, in simulated
    /// milliseconds from enqueue time (overrides the builder-level one).
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.service.get_or_insert_with(Default::default).1 = Some(ms);
        self
    }

    /// Finish without submitting: the spec attributed to the tenant (and
    /// deadline) of the [`NetTrails::service`] builder that opened the
    /// session — the anonymous tenant `""` for one [`NetTrails::query`]
    /// opened. Hand the result to `qsvc::QueryService::enqueue`.
    pub fn request(self) -> ServiceRequest {
        let (tenant, deadline_ms) = self.service.unwrap_or_default();
        ServiceRequest {
            tenant,
            spec: self.spec,
            deadline_ms,
        }
    }
}

/// A query spec attributed to a tenant, plus an optional per-session
/// deadline, ready for `qsvc::QueryService::enqueue`. Built by
/// [`NetTrails::service`]; carries no platform borrow, so requests can be
/// batched up front and admitted later.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Tenant the session is accounted to.
    pub tenant: String,
    /// The compiled query.
    pub spec: QuerySpec,
    /// Deadline relative to admission (simulated milliseconds): a session
    /// still unfinished this long after it was *enqueued* is cancelled and
    /// counted expired. `None` never expires.
    pub deadline_ms: Option<f64>,
}

/// Tenant-scoped entry point to the query service; see [`NetTrails::service`].
#[derive(Debug)]
pub struct ServiceBuilder<'a> {
    nt: &'a mut NetTrails,
    tenant: String,
    deadline_ms: Option<f64>,
}

impl<'a> ServiceBuilder<'a> {
    /// Give every request built from this builder a deadline, in simulated
    /// milliseconds from enqueue time.
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Start building a request against `target`'s proof tree.
    pub fn query(self, target: &Tuple) -> QuerySession<'a> {
        self.query_vid(target.id())
    }

    /// Start building a request addressed directly by VID; finish it with
    /// [`QuerySession::request`].
    pub fn query_vid(self, vid: TupleId) -> QuerySession<'a> {
        let mut session = self.nt.query_vid(vid);
        session.service = Some((self.tenant, self.deadline_ms));
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::Value;
    use provenance::TraversalOrder;

    fn mincost_on(topology: Topology) -> NetTrails {
        let mut nt = NetTrails::new(
            protocols::mincost::PROGRAM,
            topology,
            NetTrailsConfig::default(),
        )
        .unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        nt
    }

    fn min_cost(nt: &NetTrails, from: &str, to: &str) -> Option<i64> {
        nt.find_tuple("minCost", |t| {
            t.values()[0].as_addr() == Some(from) && t.values()[1].as_addr() == Some(to)
        })
        .and_then(|(_, t)| t.values()[2].as_int())
    }

    #[test]
    fn mincost_converges_on_a_line() {
        let mut nt = NetTrails::new(
            protocols::mincost::PROGRAM,
            Topology::line(4),
            NetTrailsConfig::default(),
        )
        .unwrap();
        nt.seed_links_from_topology();
        let report = nt.run_to_fixpoint();
        assert!(report.insertions > 0, "converging did real work");
        assert_eq!(min_cost(&nt, "n1", "n2"), Some(1));
        assert_eq!(min_cost(&nt, "n1", "n3"), Some(2));
        assert_eq!(min_cost(&nt, "n1", "n4"), Some(3));
        assert_eq!(min_cost(&nt, "n4", "n1"), Some(3));
    }

    #[test]
    fn mincost_finds_cheaper_multi_hop_paths() {
        // Triangle with an expensive direct edge: n1-n3 costs 10, but n1-n2-n3
        // costs 2.
        let mut topo = Topology::new();
        topo.add_bidi("n1", "n2", 1);
        topo.add_bidi("n2", "n3", 1);
        topo.add_bidi("n1", "n3", 10);
        let nt = mincost_on(topo);
        assert_eq!(min_cost(&nt, "n1", "n3"), Some(2));
    }

    #[test]
    fn link_failure_triggers_incremental_recomputation() {
        let mut nt = mincost_on(Topology::ring(4));
        assert_eq!(min_cost(&nt, "n1", "n2"), Some(1));
        // Fail the n1-n2 link: the ring still connects them the long way.
        let report = nt.apply_topology_event(&TopologyEvent::LinkDown {
            a: "n1".into(),
            b: "n2".into(),
        });
        assert!(report.tuples_touched() > 0);
        assert_eq!(min_cost(&nt, "n1", "n2"), Some(3));
        // The incremental result matches recomputation from scratch.
        let (fresh, _) = nt.recompute_from_scratch().unwrap();
        let mut incremental = nt.relation("minCost");
        let mut scratch = fresh.relation("minCost");
        incremental.sort();
        scratch.sort();
        assert_eq!(incremental, scratch);
    }

    #[test]
    fn disconnection_removes_derived_state() {
        let mut nt = mincost_on(Topology::line(3));
        assert!(min_cost(&nt, "n1", "n3").is_some());
        nt.apply_topology_event(&TopologyEvent::LinkDown {
            a: "n2".into(),
            b: "n3".into(),
        });
        assert_eq!(min_cost(&nt, "n1", "n3"), None, "n3 became unreachable");
        assert_eq!(min_cost(&nt, "n1", "n2"), Some(1), "n2 still reachable");
    }

    #[test]
    fn provenance_queries_work_end_to_end() {
        let mut nt = mincost_on(Topology::line(3));
        let (_, target) = nt
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n3")
            })
            .unwrap();
        let (result, stats) = nt
            .query(&target)
            .from_node("n3")
            .kind(QueryKind::ParticipatingNodes)
            .run();
        let QueryResult::ParticipatingNodes(nodes) = result else {
            panic!("wrong result type");
        };
        assert!(
            nodes.contains(&nt_runtime::NodeId::new("n1"))
                && nodes.contains(&nt_runtime::NodeId::new("n2"))
        );
        assert!(stats.messages > 0);
        assert!(stats.latency_ms > 0.0, "hops take simulated time");
        // The query traffic rode the real wire, in its own category.
        assert!(nt.stats().network.category_messages(QUERY_CATEGORY) >= stats.messages);

        let (result, _) = nt
            .query(&target)
            .from_node("n1")
            .kind(QueryKind::BaseTuples)
            .run();
        let QueryResult::BaseTuples(bases) = result else {
            panic!()
        };
        assert!(
            bases
                .iter()
                .all(|(_, t)| t.as_ref().map(|t| t.relation() == "link").unwrap_or(true)),
            "base tuples of minCost are links"
        );
        assert!(!bases.is_empty());

        let (result, stats) = nt.query(&target).from_node("n1").run();
        let QueryResult::Lineage(tree) = result else {
            panic!()
        };
        assert!(tree.size() > 1, "minCost(n1,n3) has a derivation");
        assert!(stats.vertices_visited > 0);
    }

    /// The distributed session and the in-process oracle agree on every
    /// result; the distributed one measures its latency off the clock.
    #[test]
    fn distributed_and_local_modes_agree() {
        let mut nt = mincost_on(Topology::ring(4));
        let targets = nt.relation("minCost");
        for kind in [
            QueryKind::Lineage,
            QueryKind::BaseTuples,
            QueryKind::ParticipatingNodes,
            QueryKind::DerivationCount,
        ] {
            for (node, tuple) in targets.iter().take(4) {
                let (dist, dist_stats) = nt.query(tuple).from_node(node).kind(kind).run();
                let (local, local_stats) = nt.query(tuple).from_node(node).kind(kind).local().run();
                assert_eq!(dist, local, "{kind:?}");
                assert_eq!(dist_stats.vertices_visited, local_stats.vertices_visited);
                assert_eq!(dist_stats.records, local_stats.records);
            }
        }
    }

    /// Breadth-first fan-out measurably beats depth-first on multi-hop
    /// proofs: the session clock spans max(hop chain), not the hop sum.
    #[test]
    fn breadth_first_fanout_measures_lower_latency() {
        let mut nt = mincost_on(Topology::line(4));
        let (node, target) = nt
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n4")
            })
            .unwrap();
        let (r_dfs, dfs) = nt
            .query(&target)
            .from_node(node.as_str())
            .traversal(TraversalOrder::DepthFirst)
            .run();
        let (r_bfs, bfs) = nt
            .query(&target)
            .from_node(node.as_str())
            .traversal(TraversalOrder::BreadthFirst)
            .run();
        assert_eq!(r_dfs, r_bfs, "traversal order must not change the answer");
        assert_eq!(dfs.records, bfs.records, "same protocol records");
        assert!(dfs.latency_ms > 0.0 && bfs.latency_ms > 0.0);
        assert!(
            bfs.latency_ms < dfs.latency_ms,
            "measured fan-out latency {} must beat sequential {}",
            bfs.latency_ms,
            dfs.latency_ms
        );
        assert!(bfs.messages <= dfs.messages, "fan-out coalesces frames");
    }

    /// Cancelling a session stops its traffic.
    #[test]
    fn queries_can_be_cancelled_mid_flight() {
        let mut nt = mincost_on(Topology::line(4));
        let (_, target) = nt
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n4")
            })
            .unwrap();
        let full = nt.query(&target).from_node("n4").run().1;
        let handle = nt.query(&target).from_node("n4").submit();
        // Take a couple of pump steps, then abandon the traversal.
        nt.poll_queries();
        nt.poll_queries();
        assert!(!nt.query_done(handle));
        let cancelled = nt.cancel_query(handle);
        assert!(nt.query_done(handle));
        assert!(
            cancelled.records < full.records,
            "abandoned subtrees stop consuming traffic ({} vs {})",
            cancelled.records,
            full.records
        );
    }

    /// `try_wait_query` is the non-panicking redemption path: `None` while
    /// running, `Some` exactly once on completion, `None` after cancellation.
    #[test]
    fn try_wait_query_never_panics_on_cancelled_sessions() {
        let mut nt = mincost_on(Topology::line(4));
        let (_, target) = nt
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n4")
            })
            .unwrap();
        let handle = nt.query(&target).from_node("n4").submit();
        assert!(
            nt.try_wait_query(handle).is_none(),
            "still running: no result yet"
        );
        while !nt.query_done(handle) {
            assert!(nt.poll_queries(), "session stalled");
        }
        let (result, stats) = nt.try_wait_query(handle).expect("completed session");
        assert!(stats.latency_ms > 0.0);
        let (expected, _) = nt.query(&target).from_node("n4").run();
        assert_eq!(result, expected);
        assert!(
            nt.try_wait_query(handle).is_none(),
            "results are redeemed at most once"
        );

        // A cancelled session redeems to None instead of panicking.
        let cancelled = nt.query(&target).from_node("n4").submit();
        nt.poll_queries();
        nt.cancel_query(cancelled);
        assert!(nt.query_done(cancelled));
        assert!(nt.try_wait_query(cancelled).is_none());
    }

    /// The service builder compiles tenant-attributed requests without
    /// submitting anything.
    #[test]
    fn service_builder_attributes_requests_to_tenants() {
        let mut nt = mincost_on(Topology::line(3));
        let (_, target) = nt
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n3")
            })
            .unwrap();
        let request = nt
            .service("ops")
            .deadline_ms(40.0)
            .query(&target)
            .from_node("n3")
            .kind(QueryKind::BaseTuples)
            .traversal(TraversalOrder::BreadthFirst)
            .request();
        assert_eq!(request.tenant, "ops");
        assert_eq!(request.deadline_ms, Some(40.0));
        assert_eq!(request.spec.vid, target.id());
        assert_eq!(request.spec.querier.as_str(), "n3");
        assert_eq!(request.spec.kind, QueryKind::BaseTuples);
        assert_eq!(nt.query_executor().active_sessions(), 0);
        // A session-level deadline overrides the builder's; a session the
        // plain entry point opened belongs to the anonymous tenant.
        let overridden = nt.service("ops").deadline_ms(40.0).query(&target);
        assert_eq!(overridden.deadline_ms(5.0).request().deadline_ms, Some(5.0));
        let anonymous = nt.query(&target).request();
        assert_eq!(
            (anonymous.tenant.as_str(), anonymous.deadline_ms),
            ("", None)
        );
        // The request is an ordinary spec: submitting it by hand completes.
        let handle = nt.submit_query(request.spec);
        while !nt.query_done(handle) {
            assert!(nt.poll_queries());
        }
        assert!(nt.try_wait_query(handle).is_some());
    }

    /// The query cache, like the stores it mirrors, is invalidated by
    /// incremental maintenance: churn between cached queries can never
    /// serve a stale proof tree.
    #[test]
    fn cached_queries_stay_fresh_across_churn() {
        let mut nt = mincost_on(Topology::ring(4));
        let (node, target) = nt
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n2")
            })
            .unwrap();
        let (before, _) = nt.query(&target).from_node(node.as_str()).cached().run();
        // Fail a link: minCost(n1,n2) now only holds the long way around.
        nt.apply_topology_event(&TopologyEvent::LinkDown {
            a: "n1".into(),
            b: "n2".into(),
        });
        let (_, fresh_target) = nt
            .find_tuple("minCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n2")
            })
            .expect("still reachable the long way");
        let (cached_after, _) = nt
            .query(&fresh_target)
            .from_node(node.as_str())
            .cached()
            .run();
        let (uncached_after, _) = nt.query(&fresh_target).from_node(node.as_str()).run();
        assert_eq!(
            cached_after, uncached_after,
            "stale cache entries must be evicted, not served"
        );
        assert_ne!(before, cached_after, "the link failure changed the proof");
        let (nodes, _) = nt
            .query(&fresh_target)
            .from_node(node.as_str())
            .kind(QueryKind::ParticipatingNodes)
            .cached()
            .run();
        let QueryResult::ParticipatingNodes(nodes) = nodes else {
            panic!()
        };
        assert!(nodes.contains(&nt_runtime::NodeId::new("n1")));
    }

    #[test]
    fn provenance_capture_can_be_disabled() {
        let mut nt = NetTrails::new(
            protocols::mincost::PROGRAM,
            Topology::line(3),
            NetTrailsConfig::without_provenance(),
        )
        .unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        assert_eq!(nt.stats().provenance.prov_entries, 0);
        // Protocol state is still computed.
        assert!(!nt.relation("minCost").is_empty());
    }

    #[test]
    fn provenance_shrinks_when_state_is_deleted() {
        let mut nt = mincost_on(Topology::line(3));
        let before = nt.stats().provenance.prov_entries;
        nt.apply_topology_event(&TopologyEvent::LinkDown {
            a: "n2".into(),
            b: "n3".into(),
        });
        let after = nt.stats().provenance.prov_entries;
        assert!(
            after < before,
            "provenance entries should shrink ({before} -> {after})"
        );
    }

    #[test]
    fn pathvector_paths_carry_the_route() {
        let mut nt = NetTrails::new(
            protocols::pathvector::PROGRAM,
            Topology::line(3),
            NetTrailsConfig::default(),
        )
        .unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        let (_, best) = nt
            .find_tuple("bestPathCost", |t| {
                t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n3")
            })
            .expect("best path cost derived");
        assert_eq!(best.values()[2].as_int(), Some(2));
        // The path relation holds the explicit route n1 -> n2 -> n3.
        let path = nt
            .find_tuple("path", |t| {
                t.values()[0].as_addr() == Some("n1")
                    && t.values()[1].as_addr() == Some("n3")
                    && t.values()[3].as_int() == Some(2)
            })
            .expect("path tuple");
        let route = path.1.values()[2].as_list().unwrap();
        assert_eq!(route.len(), 3);
        assert_eq!(route[0], Value::addr("n1"));
        assert_eq!(route[2], Value::addr("n3"));
    }

    #[test]
    fn query_cache_and_traversal_options_are_exposed() {
        let mut nt = mincost_on(Topology::ladder(3));
        let (_, target) = nt.relation("minCost").into_iter().next_back().unwrap();
        let session = |nt: &mut NetTrails| {
            nt.query(&target)
                .from_node("n1")
                .traversal(TraversalOrder::BreadthFirst)
                .cached()
                .run()
        };
        let (_, first) = session(&mut nt);
        let (_, second) = session(&mut nt);
        assert!(second.messages <= first.messages);
        assert!(nt.query_executor().cache_size() > 0);
        nt.clear_query_cache();
        assert_eq!(nt.query_engine().cache_size(), 0);
        assert_eq!(nt.query_executor().cache_size(), 0);
    }

    #[test]
    fn stats_aggregate_engine_network_and_provenance() {
        let nt = mincost_on(Topology::line(3));
        let stats = nt.stats();
        assert!(stats.engine.rule_firings > 0);
        assert!(stats.network.messages > 0);
        assert!(stats.provenance.prov_entries > 0);
        assert!(stats.stored_tuples > 0);
    }

    /// A fact that does not fit its relation — another arity, a text where
    /// an address goes — is refused once per call, counted, never stored,
    /// and panics nothing.
    #[test]
    fn facts_that_do_not_fit_are_refused_and_counted() {
        let mut nt = mincost_on(Topology::line(3));
        let stored = nt.stats().stored_tuples;
        let short = Tuple::new("link", vec![Value::addr("n1"), Value::addr("n2")]);
        let text = Tuple::new(
            "link",
            vec![Value::str("n1"), Value::addr("n3"), Value::Int(1)],
        );
        nt.insert_fact("n1", short.clone());
        nt.insert_fact("n1", text.clone());
        nt.delete_fact("n1", short);
        nt.run_to_fixpoint();
        assert_eq!(nt.stats().engine.rejected_facts, 3);
        assert_eq!(nt.stats().stored_tuples, stored);
        assert_eq!(min_cost(&nt, "n1", "n3"), Some(2));
        assert!(nt.relation("link").iter().all(|(_, t)| *t != text));
    }

    /// The engine is the single source of truth for protocol payload bytes:
    /// what the network charged (minus its per-message framing headers) must
    /// equal `EngineStats::bytes_sent` exactly.
    #[test]
    fn engine_bytes_equal_network_bytes() {
        let config = NetTrailsConfig::default();
        let header = config.network.header_bytes as u64;
        let mut nt =
            NetTrails::new(protocols::mincost::PROGRAM, Topology::ladder(3), config).unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        let stats = nt.stats();
        let msgs = stats.network.category_messages(PROTOCOL_CATEGORY);
        let payload = stats.network.category_bytes(PROTOCOL_CATEGORY) - msgs * header;
        assert_eq!(
            stats.engine.bytes_sent, payload,
            "engine accounting must match the network charge"
        );
        assert_eq!(stats.engine.tuples_sent, stats.network.records);
    }

    /// Batched shipping actually coalesces: fewer protocol messages than
    /// shipped records, so the framing headers cost less than one per
    /// record would.
    #[test]
    fn batching_coalesces_messages_and_reduces_bytes() {
        let config = NetTrailsConfig::default();
        let header = config.network.header_bytes as u64;
        let mut nt =
            NetTrails::new(protocols::pathvector::PROGRAM, Topology::ladder(3), config).unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        let stats = nt.stats();
        assert!(
            stats.network.messages < stats.network.records,
            "coalescing happened: {} messages carried {} records",
            stats.network.messages,
            stats.network.records,
        );
        // Every byte is payload or one header per message.
        assert_eq!(
            stats.network.bytes,
            stats.engine.bytes_sent + stats.network.messages * header
        );
        assert!(stats.network.bytes < stats.engine.bytes_sent + stats.network.records * header);
    }

    /// Deltas addressed to unknown nodes are counted, not silently dropped.
    #[test]
    fn misrouted_deltas_are_counted() {
        let mut nt = NetTrails::new(
            "r1 reach(@D,S) :- link(@S,D,C).",
            Topology::line(2),
            NetTrailsConfig {
                tolerate_misrouted: true,
                ..NetTrailsConfig::default()
            },
        )
        .unwrap();
        // A link whose endpoint names a node outside the topology: the
        // derived reach head is addressed to the non-existent "ghost".
        nt.insert_fact(
            "n1",
            Tuple::new(
                "link",
                vec![
                    nt_runtime::Value::addr("n1"),
                    nt_runtime::Value::addr("ghost"),
                    nt_runtime::Value::Int(1),
                ],
            ),
        );
        let report = nt.run_to_fixpoint();
        assert_eq!(report.misrouted, 1);
    }
}
