//! The trace-driven workload driver: build the platform, converge, replay.
//!
//! Replay advances the simulated clock to each trace step's timestamp, feeds
//! churn through [`NetTrails::apply_topology_event`] (link tuples retract and
//! reinsert, protocols re-converge incrementally) and runs query storms as
//! concurrent distributed sessions — submit every handle, then drain them off
//! one shared network, so sessions genuinely overlap on the wire and each
//! [`provenance::QueryStats::latency_ms`] is the simulated-clock span of
//! that session.
//!
//! The outcome carries a replay digest over sorted result-relation dumps,
//! measured latencies and simulated-clock counters — everything a second run
//! of the same spec must reproduce bit-for-bit, and nothing (wall clock,
//! interner ids) a different machine would change.

use crate::programs::{self, MIXED_RESULTS, PATHVECTOR_RESULTS};
use crate::spec::{ScenarioSpec, WorkloadKind};
use crate::trace::{TraceAction, WorkloadTrace};
use nettrails::{NetTrails, NetTrailsConfig, RunReport};
use nt_runtime::StableHasher;
use provenance::{QueryKind, TraversalOrder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{SimTime, Topology};

/// What a scenario replay produced. Every field — and
/// [`ScenarioOutcome::replay_digest`] in particular — is a pure function of
/// the [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Row identifier (`family_size_workload`).
    pub name: String,
    /// Topology family name.
    pub family: String,
    /// Workload kind name.
    pub workload: String,
    /// Nodes in the topology.
    pub nodes: usize,
    /// Directed links at generation time.
    pub links: usize,
    /// Anchor destinations routed toward.
    pub anchors: usize,
    /// Engine/network rounds to initial convergence.
    pub converge_rounds: usize,
    /// Tuples stored across all nodes after initial convergence.
    pub converged_tuples: usize,
    /// Simulated span of the replay.
    pub sim_ms: f64,
    /// Churn events replayed.
    pub churn_events: usize,
    /// Query sessions completed.
    pub queries: usize,
    /// Tuple insertions + deletions during replay (incremental recomputation
    /// volume).
    pub tuples_touched: usize,
    /// Network deliveries during replay.
    pub deliveries: usize,
    /// Measured per-session latencies, sorted ascending (simulated clock).
    pub latencies_ms: Vec<f64>,
    /// Digest of the generated topology (seed-determinism check).
    pub topo_digest: u64,
    /// Digest of the generated trace (seed-determinism check).
    pub trace_digest: u64,
    /// Digest of replayed state + measured latencies + counters.
    pub replay_digest: u64,
}

impl ScenarioOutcome {
    /// Median measured query latency (simulated milliseconds).
    pub fn p50_ms(&self) -> f64 {
        crate::percentile(&self.latencies_ms, 50.0)
    }

    /// 99th-percentile measured query latency (simulated milliseconds).
    pub fn p99_ms(&self) -> f64 {
        crate::percentile(&self.latencies_ms, 99.0)
    }
}

/// Machine-independent digest of a topology: sorted nodes and links with
/// costs and latencies.
pub fn topology_digest(topology: &Topology) -> u64 {
    let mut h = StableHasher::new();
    for node in topology.nodes() {
        h.write_bytes(node.as_bytes());
        h.write_bytes(b"\n");
    }
    for link in topology.links() {
        h.write_bytes(
            format!(
                "{}>{}:{}:{}\n",
                link.from, link.to, link.cost, link.latency_ms
            )
            .as_bytes(),
        );
    }
    h.finish()
}

/// Run a scenario on the default platform configuration.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    let topology = spec.family.build(spec.seed);
    let topo_digest = topology_digest(&topology);
    let trace = WorkloadTrace::generate(spec, &topology);
    let trace_digest = trace.digest();

    let (program, result_relations) = match spec.workload {
        WorkloadKind::Mixed => (programs::mixed_protocols(spec.max_hops), MIXED_RESULTS),
        _ => (
            programs::anchored_pathvector(spec.max_hops),
            PATHVECTOR_RESULTS,
        ),
    };
    let nodes = topology.node_count();
    let links = topology.link_count();
    let mut nt = NetTrails::new(&program, topology, NetTrailsConfig::default())
        .expect("scenario program compiles and loads");

    // Seed base state: every link tuple plus the anchor advertisements.
    nt.seed_links_from_topology();
    for anchor in pick_anchors(nt.network().topology(), spec.seed, spec.anchors) {
        let tuple = programs::anchor_tuple(&anchor);
        nt.insert_fact(&anchor, tuple);
    }
    let converge = nt.run_to_fixpoint();
    let converged_tuples = nt.stats().stored_tuples;

    // Replay the trace.
    let t0 = nt.now();
    let mut qrng = StdRng::seed_from_u64(spec.seed ^ 0x6a09_e667_f3bc_c908);
    let mut churn_events = 0usize;
    let mut queries = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut replayed = RunReport::default();
    let accumulate = |sink: &mut RunReport, report: RunReport| {
        sink.deliveries += report.deliveries;
        sink.insertions += report.insertions;
        sink.deletions += report.deletions;
    };
    for step in &trace.steps {
        nt.advance_clock_to(t0 + SimTime::from_millis(step.at_ms));
        match &step.action {
            TraceAction::Churn(event) => {
                churn_events += 1;
                let report = nt.apply_topology_event(event);
                accumulate(&mut replayed, report);
            }
            TraceAction::QueryStorm { queries: count } => {
                let (done, stats) = run_storm(&mut nt, result_relations, *count, &mut qrng);
                queries += done;
                latencies_ms.extend(stats);
            }
        }
    }
    let sim_ms = (nt.now().as_secs_f64() - t0.as_secs_f64()) * 1000.0;
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));

    // Replay digest: final protocol state, measured latencies, and the
    // simulated-clock counters of the run.
    let mut h = StableHasher::new();
    for rel in result_relations {
        let mut rows: Vec<String> = nt
            .relation(rel)
            .into_iter()
            .map(|(addr, tuple)| format!("{} {}", addr.as_str(), tuple))
            .collect();
        rows.sort();
        for row in rows {
            h.write_bytes(row.as_bytes());
            h.write_bytes(b"\n");
        }
    }
    for &l in &latencies_ms {
        h.write_u64(l.to_bits());
    }
    h.write_u64(converge.rounds as u64);
    h.write_u64(replayed.insertions as u64);
    h.write_u64(replayed.deletions as u64);
    h.write_u64(replayed.deliveries as u64);
    h.write_u64(sim_ms.to_bits());

    ScenarioOutcome {
        name: spec.name(),
        family: spec.family.name().to_string(),
        workload: spec.workload.name().to_string(),
        nodes,
        links,
        anchors: spec.anchors,
        converge_rounds: converge.rounds,
        converged_tuples,
        sim_ms,
        churn_events,
        queries,
        tuples_touched: replayed.insertions + replayed.deletions,
        deliveries: replayed.deliveries,
        latencies_ms,
        topo_digest,
        trace_digest,
        replay_digest: h.finish(),
    }
}

/// Re-derive the topology and trace from the spec's seed and check the
/// outcome's digests against them.
pub fn verify_seed(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> bool {
    let topology = spec.family.build(spec.seed);
    topology_digest(&topology) == outcome.topo_digest
        && WorkloadTrace::generate(spec, &topology).digest() == outcome.trace_digest
}

/// Seeded anchor pick: `count` distinct connected nodes, chosen from the
/// sorted node list so the choice is machine-independent.
pub(crate) fn pick_anchors(topology: &Topology, seed: u64, count: usize) -> Vec<String> {
    let mut names: Vec<String> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .map(str::to_string)
        .collect();
    names.sort();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbb67_ae85_84ca_a73b);
    let mut picked = Vec::new();
    while picked.len() < count.min(names.len()) {
        let candidate = names[rng.gen_range(0..names.len())].clone();
        if !picked.contains(&candidate) {
            picked.push(candidate);
        }
    }
    picked.sort();
    picked
}

const STORM_KINDS: [QueryKind; 4] = [
    QueryKind::Lineage,
    QueryKind::BaseTuples,
    QueryKind::ParticipatingNodes,
    QueryKind::DerivationCount,
];

/// One flash-crowd wave: submit `count` sessions against the current result
/// relations, then drain them all off the shared network. Returns the number
/// of sessions run and their measured latencies.
fn run_storm(
    nt: &mut NetTrails,
    result_relations: &[&str],
    count: usize,
    qrng: &mut StdRng,
) -> (usize, Vec<f64>) {
    // Snapshot the queryable state, sorted by display form so the pick order
    // never depends on interner ids.
    let mut candidates = Vec::new();
    for rel in result_relations {
        for (addr, tuple) in nt.relation(rel) {
            candidates.push((format!("{} {}", addr.as_str(), tuple), tuple));
        }
    }
    candidates.sort_by(|a, b| a.0.cmp(&b.0));
    let mut queriers: Vec<String> = nt.nodes().iter().map(|a| a.as_str().to_string()).collect();
    queriers.sort();
    if candidates.is_empty() || queriers.is_empty() {
        return (0, Vec::new());
    }
    let mut handles = Vec::with_capacity(count);
    for q in 0..count {
        let (_, target) = &candidates[qrng.gen_range(0..candidates.len())];
        let querier = &queriers[qrng.gen_range(0..queriers.len())];
        let target = target.clone();
        // Alternate fan-out and sequential traversals: the crowd is a mix,
        // and the spread is what makes p99 vs p50 informative.
        let traversal = if q % 2 == 0 {
            TraversalOrder::BreadthFirst
        } else {
            TraversalOrder::DepthFirst
        };
        let handle = nt
            .query(&target)
            .from_node(querier)
            .kind(STORM_KINDS[q % STORM_KINDS.len()])
            .traversal(traversal)
            .submit();
        handles.push(handle);
    }
    let mut latencies = Vec::with_capacity(handles.len());
    for handle in handles {
        let (_, stats) = nt.wait_query(handle);
        latencies.push(stats.latency_ms);
    }
    (latencies.len(), latencies)
}
