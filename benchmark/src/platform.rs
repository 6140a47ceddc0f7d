//! The surface the workload drivers run against.
//!
//! [`Platform`] is what a workload needs from "a NetTrails": build, seed,
//! converge, apply a topology event, run a wave of query sessions, capture a
//! snapshot, and expose state for the correctness checks. It has two
//! implementations so the *same* driver code produces both kinds of run:
//!
//! * [`Product`] — the product's front doors only (`NetTrails`,
//!   `qsvc::QueryService`), `NetTrailsConfig::default()`, no tracing. Every
//!   end-to-end number comes from here.
//! * `layered::LayeredNet` — the layered round loop with a span around each
//!   public layer call. Per-layer numbers come from there, and it must end
//!   in the same [`Fingerprint`] as the product or the traced run fails.

use crate::inputs::{Fnv, Inputs, TENANTS};
use crate::spans::Tracer;
use logstore::SystemSnapshot;
use nettrails::{NetTrails, NetTrailsConfig, PlatformStats, RunReport};
use nt_runtime::{Addr, Tuple, TupleId};
use provenance::{
    ProvenanceSystem, QueryExecutor, QueryHandle, QueryKind, QueryMode, QueryOptions, QueryResult,
    QuerySpec, QueryStats, TraversalOrder,
};
use qsvc::{QueryService, ServiceConfig};
use simnet::{SimTime, TopologyEvent, TrafficStats};

/// One session of a wave, bound to a concrete target and querier.
#[derive(Debug, Clone)]
pub struct WaveRequest {
    /// Tenant index; a wave offers sessions round-robin across
    /// [`TENANTS`], so deficit-round-robin admission is offering order.
    pub tenant: usize,
    /// Target tuple vertex.
    pub vid: TupleId,
    /// Node issuing the query.
    pub querier: String,
    /// The question.
    pub kind: QueryKind,
    /// Traversal order.
    pub traversal: TraversalOrder,
    /// Reuse cached sub-results.
    pub cached: bool,
}

impl WaveRequest {
    /// The compiled distributed-mode spec.
    pub fn spec(&self) -> QuerySpec {
        QuerySpec {
            querier: Addr::new(&self.querier),
            vid: self.vid,
            kind: self.kind,
            mode: QueryMode::Distributed,
            options: QueryOptions {
                use_cache: self.cached,
                traversal: self.traversal,
                ..QueryOptions::default()
            },
        }
    }
}

/// How one offered session ended. Sessions of a wave are reported in
/// offering order.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Final per-session stats (default for a rejected session).
    pub stats: QueryStats,
    /// The result; `None` when rejected or expired.
    pub result: Option<QueryResult>,
    /// Rejected `Overloaded` at admission.
    pub rejected: bool,
    /// Cancelled by deadline.
    pub expired: bool,
}

impl Session {
    /// A session that failed: rejected, expired or without a result.
    pub fn failed(&self) -> bool {
        self.rejected || self.expired || self.result.is_none()
    }
}

/// What a workload driver needs from a platform instance.
pub trait Platform: Sized {
    /// Compile the program and instantiate engines, network and provenance
    /// over `inputs.topology` with `NetTrailsConfig::default()`.
    fn build(inputs: &Inputs, tracer: Tracer) -> Self;
    /// Queue every `link` base tuple and the anchor advertisements.
    fn seed(&mut self, inputs: &Inputs);
    /// Run engines and network until quiescent.
    fn run_to_fixpoint(&mut self) -> RunReport;
    /// Apply one topology event and re-converge.
    fn apply_event(&mut self, event: &TopologyEvent) -> RunReport;
    /// Advance the simulated clock (no-op if `t` is in the past).
    fn advance_clock_to(&mut self, t: SimTime);
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// All tuples of `relation`, tagged with their node.
    fn relation(&self, relation: &str) -> Vec<(Addr, Tuple)>;
    /// Aggregated layer statistics.
    fn stats(&self) -> PlatformStats;
    /// The distributed provenance store.
    fn provenance(&self) -> &ProvenanceSystem;
    /// The distributed query executor.
    fn executor(&self) -> &QueryExecutor;
    /// Capture the whole system as a snapshot.
    fn capture_snapshot(&mut self) -> SystemSnapshot;
    /// Offer one wave of sessions and drive it until it drains.
    fn wave(&mut self, requests: &[WaveRequest]) -> Vec<Session>;
    /// Protocol + query bytes charged by the simulated network plus
    /// provenance-maintenance bytes, so far.
    fn wire_bytes(&self) -> u64;
    /// Σ engine table storage, bytes.
    fn storage_bytes(&self) -> usize;
    /// How many of the `sampled` sessions answered differently from the
    /// `QueryMode::Local` oracle. Only the product has the oracle; the
    /// layered loop is checked against the product instead.
    fn oracle_mismatches(
        &mut self,
        _requests: &[WaveRequest],
        _sessions: &[Session],
        _sampled: &[usize],
    ) -> u64 {
        0
    }
    /// The span recorder (disabled on the product).
    fn tracer(&mut self) -> &mut Tracer;
}

/// Seed `link` and `anchor` base facts through any `insert` function; shared
/// so both platforms queue exactly the same facts in the same (seeded) order.
pub fn seed_facts(inputs: &Inputs, mut insert: impl FnMut(&str, Tuple)) {
    let mut links = protocols::link_tuples(&inputs.topology);
    crate::inputs::fact_order(inputs, &mut links);
    for (node, tuple) in links {
        insert(&node, tuple);
    }
    for anchor in &inputs.anchors {
        insert(anchor, scenario::programs::anchor_tuple(anchor));
    }
}

/// The query plane as the admission loop sees it: submit a session, take one
/// pump step, redeem finished sessions.
pub trait QueryPlane {
    /// Submit a distributed session.
    fn submit(&mut self, spec: QuerySpec) -> QueryHandle;
    /// One pump step; false when nothing moved.
    fn poll(&mut self) -> bool;
    /// Redeem `handle` if it finished.
    fn redeem(&mut self, handle: QueryHandle) -> Option<(QueryResult, QueryStats)>;
}

/// Drive one wave straight through a [`QueryPlane`] with the service's
/// admission discipline and no service: at most `max_in_flight` sessions run,
/// the next is admitted in offering order as slots free up, and each step is
/// admit → pump → reap — the schedule `qsvc::QueryService::pump` produces for
/// a wave offered round-robin across equally loaded tenants. Used by the
/// layered loop and by the direct-drive baseline behind `qsvc.self_share`.
pub fn drive_wave(
    plane: &mut impl QueryPlane,
    requests: &[WaveRequest],
    max_in_flight: usize,
) -> Vec<Session> {
    debug_assert!(requests
        .iter()
        .enumerate()
        .all(|(i, r)| r.tenant == i % TENANTS));
    let mut sessions: Vec<Option<Session>> = vec![None; requests.len()];
    let mut next = 0usize;
    let mut in_flight: Vec<(usize, QueryHandle)> = Vec::new();
    while next < requests.len() || !in_flight.is_empty() {
        let mut progressed = false;
        while in_flight.len() < max_in_flight && next < requests.len() {
            in_flight.push((next, plane.submit(requests[next].spec())));
            next += 1;
            progressed = true;
        }
        progressed |= plane.poll();
        let before = in_flight.len();
        in_flight.retain(|&(index, handle)| match plane.redeem(handle) {
            Some((result, stats)) => {
                sessions[index] = Some(Session {
                    stats,
                    result: Some(result),
                    rejected: false,
                    expired: false,
                });
                false
            }
            None => true,
        });
        progressed |= in_flight.len() < before;
        assert!(progressed, "query wave stalled with pending sessions");
    }
    sessions
        .into_iter()
        .map(|s| s.expect("every session drained"))
        .collect()
}

/// How a [`Product`] runs its waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveDriver {
    /// Through `qsvc::QueryService` — the front door, used by every
    /// end-to-end run.
    Service,
    /// Through `NetTrails::{submit_query, poll_queries, try_wait_query}` with
    /// the same admission schedule — the baseline `qsvc.self_share` is
    /// measured against.
    Direct,
}

/// The product, driven through its front doors only.
#[derive(Debug)]
pub struct Product {
    /// The platform under test.
    pub nt: NetTrails,
    svc: QueryService,
    driver: WaveDriver,
    tracer: Tracer,
}

impl Product {
    /// Switch how waves are driven (traced runs only).
    pub fn with_wave_driver(mut self, driver: WaveDriver) -> Self {
        self.driver = driver;
        self
    }

    /// The service's max/min completed-sessions ratio across tenants.
    pub fn fairness_ratio(&self) -> f64 {
        self.svc.fairness_ratio()
    }

    /// True when every result relation equals a from-scratch recomputation
    /// over the current topology. (`NetTrails::recompute_from_scratch` seeds
    /// links only, not the anchor advertisements the scenario programs route
    /// toward, so the fresh platform is built and seeded here.)
    pub fn matches_recompute(&self, inputs: &Inputs) -> bool {
        let current = Inputs {
            topology: self.nt.network().topology().clone(),
            ..inputs.clone()
        };
        let mut fresh = Product::build(&current, Tracer::disabled());
        fresh.seed(&current);
        let report = fresh.run_to_fixpoint();
        !report.truncated
            && report.misrouted == 0
            && relations_digest(self, inputs.result_relations)
                == relations_digest(&fresh, inputs.result_relations)
    }

    /// Answer `request` through the in-process oracle (`QueryMode::Local`).
    pub fn local_answer(&mut self, request: &WaveRequest) -> QueryResult {
        let spec = QuerySpec {
            mode: QueryMode::Local,
            options: QueryOptions {
                traversal: request.traversal,
                ..QueryOptions::default()
            },
            ..request.spec()
        };
        let handle = self.nt.submit_query(spec);
        self.nt
            .try_wait_query(handle)
            .expect("local queries finish synchronously")
            .0
    }
}

impl QueryPlane for NetTrails {
    fn submit(&mut self, spec: QuerySpec) -> QueryHandle {
        self.submit_query(spec)
    }

    fn poll(&mut self) -> bool {
        self.poll_queries()
    }

    fn redeem(&mut self, handle: QueryHandle) -> Option<(QueryResult, QueryStats)> {
        self.try_wait_query(handle)
    }
}

impl Platform for Product {
    fn build(inputs: &Inputs, tracer: Tracer) -> Self {
        let nt = NetTrails::new(
            &inputs.program,
            inputs.topology.clone(),
            NetTrailsConfig::default(),
        )
        .expect("scenario program compiles");
        Product {
            nt,
            svc: QueryService::new(ServiceConfig::default()),
            driver: WaveDriver::Service,
            tracer,
        }
    }

    fn seed(&mut self, inputs: &Inputs) {
        let nt = &mut self.nt;
        seed_facts(inputs, |node, tuple| nt.insert_fact(node, tuple));
    }

    fn run_to_fixpoint(&mut self) -> RunReport {
        self.nt.run_to_fixpoint()
    }

    fn apply_event(&mut self, event: &TopologyEvent) -> RunReport {
        self.nt.apply_topology_event(event)
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        self.nt.advance_clock_to(t);
    }

    fn now(&self) -> SimTime {
        self.nt.now()
    }

    fn relation(&self, relation: &str) -> Vec<(Addr, Tuple)> {
        self.nt.relation(relation)
    }

    fn stats(&self) -> PlatformStats {
        self.nt.stats()
    }

    fn provenance(&self) -> &ProvenanceSystem {
        self.nt.provenance()
    }

    fn executor(&self) -> &QueryExecutor {
        self.nt.query_executor()
    }

    fn capture_snapshot(&mut self) -> SystemSnapshot {
        let span = self.tracer.enter("nettrails.capture_snapshot");
        let snapshot = self.nt.capture_snapshot();
        self.tracer.exit(span);
        snapshot
    }

    fn wave(&mut self, requests: &[WaveRequest]) -> Vec<Session> {
        if self.driver == WaveDriver::Direct {
            let budget = ServiceConfig::default().max_in_flight;
            return drive_wave(&mut self.nt, requests, budget);
        }
        let mut sessions: Vec<Option<Session>> = vec![None; requests.len()];
        let mut ticket_to_index = std::collections::BTreeMap::new();
        let span = self.tracer.enter("qsvc.enqueue");
        for (index, r) in requests.iter().enumerate() {
            let mut builder = self
                .nt
                .service(&format!("t{:02}", r.tenant))
                .query_vid(r.vid)
                .from_node(&r.querier)
                .kind(r.kind)
                .traversal(r.traversal);
            if r.cached {
                builder = builder.cached();
            }
            let request = builder.request();
            match self.svc.enqueue(&self.nt, request) {
                Ok(ticket) => {
                    ticket_to_index.insert(ticket, index);
                }
                Err(_) => {
                    sessions[index] = Some(Session {
                        stats: QueryStats::default(),
                        result: None,
                        rejected: true,
                        expired: false,
                    });
                }
            }
        }
        self.tracer.exit(span);
        let span = self.tracer.enter("qsvc.pump");
        while !self.svc.idle() {
            assert!(self.svc.pump(&mut self.nt), "query service stalled");
        }
        self.tracer.exit(span);
        for c in self.svc.take_completions() {
            let index = ticket_to_index[&c.ticket];
            sessions[index] = Some(Session {
                stats: c.stats,
                result: c.result,
                rejected: false,
                expired: c.expired,
            });
        }
        sessions
            .into_iter()
            .map(|s| s.expect("every session completed or was rejected"))
            .collect()
    }

    fn wire_bytes(&self) -> u64 {
        self.nt.network().stats().bytes + self.nt.provenance().maintenance_traffic().bytes
    }

    fn storage_bytes(&self) -> usize {
        self.nt
            .nodes()
            .iter()
            .filter_map(|node| self.nt.engine(node.as_str()))
            .map(|engine| engine.database().storage_bytes())
            .sum()
    }

    fn oracle_mismatches(
        &mut self,
        requests: &[WaveRequest],
        sessions: &[Session],
        sampled: &[usize],
    ) -> u64 {
        sampled
            .iter()
            .filter(|&&i| match &sessions[i].result {
                Some(result) => self.local_answer(&requests[i]) != *result,
                None => false,
            })
            .count() as u64
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

/// The machine-independent state a run ends in. The layered loop must
/// reproduce the product's fingerprint exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Digest of the sorted result relations.
    pub relations: u64,
    /// `ProvenanceSystem::content_digest()`.
    pub provenance: u64,
    /// Summed engine, network and provenance statistics.
    pub stats: PlatformStats,
    /// Cumulative query-plane traffic.
    pub query_traffic: TrafficStats,
    /// Simulated clock, microseconds.
    pub now_us: u64,
}

impl Fingerprint {
    /// One number for the dry-run repeat check.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.write_u64(self.relations);
        h.write_u64(self.provenance);
        h.write(format!("{:?}{:?}", self.stats, self.query_traffic).as_bytes());
        h.write_u64(self.now_us);
        h.finish()
    }
}

/// Digest of `relations` across all nodes, rows sorted by display form.
pub fn relations_digest(p: &impl Platform, relations: &[&str]) -> u64 {
    let mut h = Fnv::default();
    for rel in relations {
        let mut rows: Vec<String> = p
            .relation(rel)
            .into_iter()
            .map(|(addr, tuple)| format!("{} {}", addr.as_str(), tuple))
            .collect();
        rows.sort();
        for row in rows {
            h.write(row.as_bytes());
            h.write(b"\n");
        }
    }
    h.finish()
}

/// Take the fingerprint of a platform.
pub fn fingerprint(p: &impl Platform, relations: &[&str]) -> Fingerprint {
    Fingerprint {
        relations: relations_digest(p, relations),
        provenance: p.provenance().content_digest(),
        stats: p.stats(),
        query_traffic: p.executor().traffic().clone(),
        now_us: p.now().as_micros(),
    }
}
