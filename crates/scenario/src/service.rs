//! The query-service workload: flash-crowd waves of concurrent provenance
//! sessions from many tenants against a churning `internet_as` topology.
//!
//! Each scenario converges an anchored pathvector program, then replays a
//! sequence of waves: before every wave after the first, seeded link churn
//! reshapes the topology (previously failed links recover, fresh ones
//! fail); each wave then offers a burst of sessions round-robin across the
//! tenants through [`qsvc::QueryService`] and drives the service until the
//! wave drains. Every wave's offering is equal across tenants, so the
//! completed-session fairness ratio is a meaningful gate (≤ 1.5).
//!
//! Concurrent sessions share the wire: each flush ships one query frame per
//! (source, destination, direction), whichever sessions staged toward it.
//! Every row runs **twice** over the identical request sequence, and the
//! digest — every completion's tenant, expiry flag and
//! [`provenance::QueryStats`] (measured latency included), the run's byte
//! totals and the per-tenant accounting — must reproduce bit for bit
//! ([`ServiceScenarioOutcome::matches_rerun`]).

use crate::driver::pick_anchors;
use crate::programs::{self, PATHVECTOR_RESULTS};
use crate::spec::TopologyFamily;
use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::{IdMap, IdSet, NodeId, StableHasher, Tuple};
use provenance::{QueryKind, QueryResult, QuerySpec, TraversalOrder};
use qsvc::{QueryService, ServiceConfig, TenantStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Link, TopologyEvent};

/// One query-service scenario row: an `internet_as` topology, a tenant
/// population, and a wave schedule of offered sessions.
#[derive(Debug, Clone)]
pub struct ServiceScenarioSpec {
    /// Seed for the topology, the request sequence and the churn.
    pub seed: u64,
    /// `internet_as` node count.
    pub nodes: usize,
    /// `internet_as` preferential-attachment degree.
    pub degree: usize,
    /// Anchor destinations the pathvector program routes toward.
    pub anchors: usize,
    /// Hop bound of the routing program.
    pub max_hops: usize,
    /// Tenant population; every wave offers sessions round-robin across it.
    pub tenants: usize,
    /// Sessions offered per wave. Link churn precedes every wave after the
    /// first.
    pub waves: Vec<usize>,
    /// Links failed before each churned wave.
    pub churn_per_wave: usize,
    /// Global in-flight session budget ([`ServiceConfig::max_in_flight`]).
    pub max_in_flight: usize,
    /// Per-tenant queue cap ([`ServiceConfig::queue_cap`]); a wave offering
    /// more than this per tenant is deterministically `Overloaded`.
    pub queue_cap: usize,
    /// Deadline given to every `deadline_every`-th session (simulated ms).
    pub deadline_ms: f64,
    /// Session stride between deadlines (`0` disables deadlines).
    pub deadline_every: usize,
}

impl ServiceScenarioSpec {
    /// Row identifier: family, node count and total sessions offered.
    pub fn name(&self) -> String {
        format!("svc_internet_as_{}_s{}", self.nodes, self.offered())
    }

    /// Total sessions offered across all waves.
    pub fn offered(&self) -> usize {
        self.waves.iter().sum()
    }
}

/// What one query-service scenario produced. Every field —
/// [`ServiceScenarioOutcome::service_digest`] in particular — is a pure
/// function of the spec.
#[derive(Debug, Clone)]
pub struct ServiceScenarioOutcome {
    /// Row identifier (see [`ServiceScenarioSpec::name`]).
    pub name: String,
    /// Nodes in the generated topology.
    pub nodes: usize,
    /// Directed links at generation time.
    pub links: usize,
    /// Tenant population.
    pub tenants: usize,
    /// Sessions offered (accepted + rejected).
    pub offered: usize,
    /// Sessions rejected `Overloaded` at admission.
    pub rejected: usize,
    /// Sessions that completed with a result.
    pub completed: usize,
    /// Sessions cancelled by deadline (queued or in flight).
    pub expired: usize,
    /// Link churn events applied between waves.
    pub churn_events: usize,
    /// Completed sessions' measured latencies, sorted ascending (simulated
    /// clock).
    pub latencies_ms: Vec<f64>,
    /// Query frames shipped.
    pub frames: u64,
    /// Distinct frame destinations.
    pub dests: usize,
    /// Dictionary bytes charged across all sessions (first-use dictionary
    /// state is per destination, shared across sessions).
    pub dict_bytes: u64,
    /// Completed sessions per tenant, in tenant-name order.
    pub per_tenant_completed: Vec<(String, u64)>,
    /// Max/min completed sessions across tenants.
    pub fairness_ratio: f64,
    /// A second run reproduced the digest bit-for-bit.
    pub matches_rerun: bool,
    /// Digest of the run: completions, byte totals and tenant accounting.
    pub service_digest: u64,
    /// Simulated span of the run.
    pub sim_ms: f64,
}

impl ServiceScenarioOutcome {
    /// Median completed-session latency (simulated milliseconds).
    pub fn p50_ms(&self) -> f64 {
        crate::percentile(&self.latencies_ms, 50.0)
    }

    /// 99th-percentile completed-session latency (simulated milliseconds).
    pub fn p99_ms(&self) -> f64 {
        crate::percentile(&self.latencies_ms, 99.0)
    }
}

const SERVICE_KINDS: [QueryKind; 4] = [
    QueryKind::Lineage,
    QueryKind::BaseTuples,
    QueryKind::ParticipatingNodes,
    QueryKind::DerivationCount,
];

/// Everything one run of a row measures.
struct Run {
    digest: u64,
    latencies_ms: Vec<f64>,
    offered: usize,
    rejected: u64,
    completed: usize,
    expired: usize,
    churn_events: usize,
    per_tenant: Vec<(String, TenantStats)>,
    fairness: f64,
    frames: u64,
    dests: usize,
    dict_bytes: u64,
    links: usize,
    sim_ms: f64,
}

/// Run one scenario (plus its determinism rerun) and assemble the outcome.
pub fn run_service_scenario(spec: &ServiceScenarioSpec) -> ServiceScenarioOutcome {
    run_checked(spec, &mut |_, _, _| {})
}

/// What a check sees of one completed session: the platform in the state
/// the session ran against, what was asked, and the answer.
type SessionCheck<'a> = dyn FnMut(&NetTrails, &QuerySpec, &QueryResult) + 'a;

/// [`run_service_scenario`], handing every completed session of the first
/// run to `check` at the end of its wave (no churn runs within a wave, so
/// the platform is the one the session read).
fn run_checked(spec: &ServiceScenarioSpec, check: &mut SessionCheck<'_>) -> ServiceScenarioOutcome {
    let run = run_once(spec, check);
    let rerun = run_once(spec, &mut |_, _, _| {});
    let mut latencies_ms = run.latencies_ms;
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ServiceScenarioOutcome {
        name: spec.name(),
        nodes: spec.nodes,
        links: run.links,
        tenants: spec.tenants,
        offered: run.offered,
        rejected: run.rejected as usize,
        completed: run.completed,
        expired: run.expired,
        churn_events: run.churn_events,
        latencies_ms,
        frames: run.frames,
        dests: run.dests,
        dict_bytes: run.dict_bytes,
        per_tenant_completed: run
            .per_tenant
            .iter()
            .map(|(name, stats)| (name.clone(), stats.completed))
            .collect(),
        fairness_ratio: run.fairness,
        matches_rerun: run.digest == rerun.digest,
        service_digest: run.digest,
        sim_ms: run.sim_ms,
    }
}

/// One full run of the wave schedule; `check` sees every completed session
/// (see [`run_checked`]).
fn run_once(spec: &ServiceScenarioSpec, check: &mut SessionCheck<'_>) -> Run {
    let topology = TopologyFamily::InternetAs {
        n: spec.nodes,
        m: spec.degree,
    }
    .build(spec.seed);
    let links = topology.link_count();
    let program = programs::anchored_pathvector(spec.max_hops);
    let mut nt = NetTrails::new(&program, topology, NetTrailsConfig::default())
        .expect("service program compiles");

    nt.seed_links_from_topology();
    for anchor in pick_anchors(nt.network().topology(), spec.seed, spec.anchors) {
        let tuple = programs::anchor_tuple(&anchor);
        nt.insert_fact(&anchor, tuple);
    }
    nt.run_to_fixpoint();

    let t0 = nt.now();
    let mut svc = QueryService::new(ServiceConfig {
        max_in_flight: spec.max_in_flight,
        queue_cap: spec.queue_cap,
    });
    let mut qrng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut crng = StdRng::seed_from_u64(spec.seed ^ 0x3c6e_f372_fe94_f82b);
    let mut rejected = 0u64;
    let mut churn_events = 0usize;
    let mut completions = Vec::new();
    let mut downed: Vec<Link> = Vec::new();
    let mut session = 0usize;
    let mut asked: IdMap<u64, QuerySpec> = IdMap::default();
    for (wave, &count) in spec.waves.iter().enumerate() {
        if wave > 0 {
            // Failed links recover, fresh ones fail: the topology churns but
            // stays near its generated shape.
            for link in downed.drain(..) {
                nt.apply_topology_event(&TopologyEvent::LinkUp(link));
                churn_events += 1;
            }
            let pairs: Vec<Link> = nt
                .network()
                .topology()
                .links()
                .filter(|l| l.from < l.to)
                .cloned()
                .collect();
            for _ in 0..spec.churn_per_wave {
                let link = pairs[crng.gen_range(0..pairs.len())].clone();
                nt.apply_topology_event(&TopologyEvent::LinkDown {
                    a: link.from.clone(),
                    b: link.to.clone(),
                });
                downed.push(link);
                churn_events += 1;
            }
        }
        // Snapshot the queryable state, sorted by display form so the pick
        // order never depends on interner ids.
        let mut candidates: Vec<(String, Tuple)> = Vec::new();
        for rel in PATHVECTOR_RESULTS {
            for (addr, tuple) in nt.relation(rel) {
                candidates.push((format!("{} {}", addr.as_str(), tuple), tuple));
            }
        }
        candidates.sort_by(|a, b| a.0.cmp(&b.0));
        let mut queriers: Vec<String> = nt.nodes().iter().map(|a| a.as_str().to_string()).collect();
        queriers.sort();
        assert!(
            !candidates.is_empty() && !queriers.is_empty(),
            "churn must not disconnect every route"
        );
        // Offer the wave round-robin across tenants: equal load, so the
        // fairness ratio is meaningful and overload rejects every tenant
        // equally.
        for i in 0..count {
            let tenant = format!("t{:02}", i % spec.tenants);
            let (_, target) = &candidates[qrng.gen_range(0..candidates.len())];
            let querier = &queriers[qrng.gen_range(0..queriers.len())];
            let traversal = if session.is_multiple_of(2) {
                TraversalOrder::BreadthFirst
            } else {
                TraversalOrder::DepthFirst
            };
            let mut builder = nt
                .service(&tenant)
                .query(target)
                .from_node(querier)
                .kind(SERVICE_KINDS[session % SERVICE_KINDS.len()])
                .traversal(traversal);
            if spec.deadline_every > 0 && session % spec.deadline_every == spec.deadline_every - 1 {
                builder = builder.deadline_ms(spec.deadline_ms);
            }
            session += 1;
            let request = builder.request();
            let query = request.spec.clone();
            match svc.enqueue(&nt, request) {
                Ok(ticket) => {
                    asked.insert(ticket, query);
                }
                Err(_) => rejected += 1,
            }
        }
        svc.run(&mut nt);
        let done = svc.take_completions();
        for c in &done {
            if let Some(result) = &c.result {
                check(&nt, &asked[&c.ticket], result);
            }
        }
        completions.extend(done);
    }
    let sim_ms = (nt.now().as_secs_f64() - t0.as_secs_f64()) * 1000.0;

    let per_tenant = svc.tenant_stats();
    let traffic = nt.query_executor().traffic();
    let dests: IdSet<NodeId> = traffic.links().map(|(_, dst, _)| dst).collect();
    let dict_bytes = per_tenant
        .iter()
        .map(|(_, stats)| stats.rollup.dict_bytes)
        .sum();

    // Digest: every completion (tenant, expiry, per-session stats) in
    // completion order, plus per-tenant accounting. Per-session
    // `bytes`/`dict_bytes` enter as run-wide totals: first-use dictionary
    // attribution follows staging order within a flush, so which of two
    // concurrent sessions pays for a shared name is a scheduling fact, not
    // a property of either session. Frame counts are pinned by the tests.
    let mut h = StableHasher::new();
    let mut latencies_ms = Vec::new();
    let mut completed = 0usize;
    let mut expired = 0usize;
    let mut total_bytes = 0u64;
    let mut total_dict = 0u64;
    for c in &completions {
        h.write_bytes(c.tenant.as_bytes());
        h.write_u64(c.ticket);
        h.write_u64(c.expired as u64);
        h.write_u64(c.stats.messages);
        h.write_u64(c.stats.records);
        h.write_u64(c.stats.vertices_visited);
        h.write_u64(c.stats.cache_hits);
        h.write_u64(c.stats.latency_ms.to_bits());
        total_bytes += c.stats.bytes;
        total_dict += c.stats.dict_bytes;
        if c.expired {
            expired += 1;
        } else {
            completed += 1;
            latencies_ms.push(c.stats.latency_ms);
        }
    }
    h.write_u64(total_bytes);
    h.write_u64(total_dict);
    for (name, stats) in &per_tenant {
        h.write_bytes(name.as_bytes());
        for v in [
            stats.offered,
            stats.rejected,
            stats.admitted,
            stats.completed,
            stats.expired,
        ] {
            h.write_u64(v);
        }
    }
    h.write_u64(churn_events as u64);
    h.write_u64(sim_ms.to_bits());

    Run {
        digest: h.finish(),
        latencies_ms,
        offered: spec.offered(),
        rejected,
        completed,
        expired,
        churn_events,
        fairness: svc.fairness_ratio(),
        per_tenant,
        frames: traffic.messages,
        dests: dests.len(),
        dict_bytes,
        links,
        sim_ms,
    }
}

#[cfg(test)]
#[path = "../../provenance/tests/common/oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use provenance::{QueryEngine, QueryMode};

    fn tiny_spec() -> ServiceScenarioSpec {
        ServiceScenarioSpec {
            seed: 77,
            nodes: 24,
            degree: 2,
            anchors: 2,
            max_hops: 3,
            tenants: 4,
            waves: vec![16, 24],
            churn_per_wave: 2,
            max_in_flight: 8,
            queue_cap: 4,
            deadline_ms: 2.0,
            deadline_every: 5,
        }
    }

    #[test]
    fn service_scenarios_are_deterministic_and_mode_equivalent() {
        let outcome = run_service_scenario(&tiny_spec());
        assert!(outcome.matches_rerun, "reruns must agree");
        assert_eq!(outcome.offered, 40);
        assert!(outcome.rejected > 0, "queue cap of 4 rejects a 6-deep wave");
        assert!(outcome.completed > 0);
        assert_eq!(
            outcome.completed + outcome.expired + outcome.rejected,
            outcome.offered
        );
        assert!(outcome.churn_events > 0);
        assert!(outcome.p99_ms() >= outcome.p50_ms());
        assert!(outcome.fairness_ratio.is_finite());
    }

    /// The 10^3-session flash crowd: the last wave offers 128 sessions per
    /// tenant against a queue cap of 112, so every tenant is `Overloaded`
    /// for its last 16. Every number is a function of the spec alone (same
    /// in debug and release, on any host); one that moves means behaviour
    /// changed, and the PR that moves it must say why.
    ///
    /// Every completed session's answer is also checked against the fold
    /// oracle: the projection of the lineage tree an uncached in-process
    /// engine computes for the same query on the same platform.
    ///
    /// `dict_bytes` and `service_digest` (which hashes the run's total
    /// bytes) moved when responses began to carry their kind's value instead
    /// of the lineage tree: three kinds in four ship fewer names and bytes
    /// (77,040 -> 68,036 dictionary bytes; digest was 0xf24b_e4a2_efd2_8cb0).
    #[test]
    fn flash_crowd_of_1280_sessions_holds_its_exact_counts() {
        let mut checked = 0;
        let mut oracle = |nt: &NetTrails, asked: &QuerySpec, answer: &QueryResult| {
            assert!(!asked.options.use_cache, "an uncached engine is the shadow");
            let (lineage, _) = QueryEngine::new().run(
                nt.provenance(),
                &QuerySpec {
                    kind: QueryKind::Lineage,
                    mode: QueryMode::Local,
                    ..asked.clone()
                },
            );
            let QueryResult::Lineage(tree) = lineage else {
                unreachable!("a lineage query answers with a tree")
            };
            assert_eq!(
                answer,
                &oracle::project_result(asked.kind, tree),
                "{asked:?}"
            );
            checked += 1;
        };
        let outcome = run_checked(
            &ServiceScenarioSpec {
                seed: 10102,
                nodes: 192,
                degree: 2,
                anchors: 4,
                max_hops: 4,
                tenants: 8,
                waves: vec![128, 128, 1024],
                churn_per_wave: 6,
                max_in_flight: 256,
                queue_cap: 112,
                deadline_ms: 3.0,
                deadline_every: 13,
            },
            &mut oracle,
        );
        assert_eq!(checked, 1064, "every completed session met the oracle");
        assert!(outcome.matches_rerun);
        assert_eq!(
            (outcome.offered, outcome.completed, outcome.expired),
            (1280, 1064, 88)
        );
        assert_eq!(outcome.rejected, 8 * 16);
        assert_eq!(outcome.dests, 192);
        assert_eq!(outcome.frames, 10192);
        assert_eq!(outcome.dict_bytes, 68036);
        assert!(outcome.fairness_ratio <= 1.5, "{}", outcome.fairness_ratio);
        assert!(outcome.p99_ms() >= outcome.p50_ms());
        assert_eq!(
            outcome.service_digest, 0xa83d_c705_4d5f_0eae,
            "service digest moved to {:016x}",
            outcome.service_digest
        );
    }
}
