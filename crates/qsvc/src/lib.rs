//! The multi-tenant query service: admission control, per-tenant fair
//! scheduling and deadline enforcement over the platform's distributed
//! query executor.
//!
//! The service sits between tenants and [`NetTrails`]: tenants build
//! [`ServiceRequest`]s through [`NetTrails::service`] and hand them to
//! [`QueryService::enqueue`], which either queues them FIFO per tenant or
//! rejects them with [`Overloaded`] once that tenant's queue is at cap.
//! [`QueryService::pump`] then drives three stages against the shared
//! platform:
//!
//! 1. **Admit** — round-robin across tenants with queued work: each visit
//!    to a tenant submits its next session, while the global
//!    [`ServiceConfig::max_in_flight`] budget lasts. A flash-crowd tenant
//!    can fill its own queue but never the dispatch ring: every other
//!    backlogged tenant is visited once per round, so each backlogged
//!    tenant is admitted one session per round, whatever its offered load.
//! 2. **Pump** — one [`NetTrails::poll_queries`] step: staged query frames
//!    flush (merged per destination when the platform runs with
//!    `merge_query_frames`), the network advances, deliveries dispatch.
//! 3. **Reap** — finished sessions are redeemed through the non-panicking
//!    [`NetTrails::try_wait_query`]; in-flight sessions past their
//!    deadline are cancelled ([`NetTrails::cancel_query`] keeps the
//!    traffic they already spent) and their handles redeemed through the
//!    same non-panicking path. Queued sessions whose deadline lapses
//!    before admission are dropped without ever touching the executor.
//!
//! All accounting — admissions, rejections, completions, expiries and a
//! [`provenance::QueryStats`] rollup — is kept per tenant and is fully
//! deterministic: tenants live in a `BTreeMap`, the dispatch ring is an
//! explicit queue, and all timing is simulated-clock.

use nettrails::platform::ServiceRequest;
use nettrails::NetTrails;
use provenance::{QueryHandle, QueryResult, QueryStats};
use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Admission-control and scheduling parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Global budget of concurrently running sessions. Admission stops at
    /// the budget; queued work waits for a slot.
    pub max_in_flight: usize,
    /// Per-tenant queue cap: an `enqueue` that would push a tenant's queue
    /// past this is rejected with [`Overloaded`].
    pub queue_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 64,
            queue_cap: 256,
        }
    }
}

/// Explicit admission rejection: the tenant's wait queue is at
/// [`ServiceConfig::queue_cap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded {
    /// Tenant whose queue is full.
    pub tenant: String,
    /// Sessions queued for that tenant at rejection time.
    pub queued: usize,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant {:?} overloaded: {} sessions already queued",
            self.tenant, self.queued
        )
    }
}

impl std::error::Error for Overloaded {}

/// Per-tenant accounting, updated as sessions move through the service.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Requests offered through `enqueue` (accepted + rejected).
    pub offered: u64,
    /// Requests rejected with [`Overloaded`].
    pub rejected: u64,
    /// Sessions submitted to the executor.
    pub admitted: u64,
    /// Sessions that completed with a result.
    pub completed: u64,
    /// Sessions cancelled by deadline (queued or in flight).
    pub expired: u64,
    /// Sum of per-session [`QueryStats`] over completed and expired
    /// sessions (`latency_ms` accumulates total session-time).
    pub rollup: QueryStats,
}

/// One finished session, in completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Ticket returned by [`QueryService::enqueue`].
    pub ticket: u64,
    /// Tenant the session was accounted to.
    pub tenant: String,
    /// The session's final stats (traffic spent so far, for expired
    /// sessions).
    pub stats: QueryStats,
    /// The query result; `None` when the session expired.
    pub result: Option<QueryResult>,
    /// True when the session was cancelled by its deadline.
    pub expired: bool,
}

#[derive(Debug)]
struct Pending {
    ticket: u64,
    request: ServiceRequest,
    /// Absolute expiry on the simulated clock (enqueue time + deadline).
    deadline: Option<SimTime>,
}

#[derive(Debug)]
struct InFlight {
    ticket: u64,
    tenant: String,
    handle: QueryHandle,
    deadline: Option<SimTime>,
}

#[derive(Debug, Default)]
struct TenantState {
    queue: VecDeque<Pending>,
    stats: TenantStats,
}

/// The service loop state; see the crate docs for the pump stages.
#[derive(Debug)]
pub struct QueryService {
    config: ServiceConfig,
    tenants: BTreeMap<String, TenantState>,
    /// Dispatch ring: tenants with queued work, in round-robin order.
    ring: VecDeque<String>,
    in_flight: Vec<InFlight>,
    completions: Vec<Completion>,
    next_ticket: u64,
}

impl QueryService {
    /// A service with the given admission parameters.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.max_in_flight > 0, "budget must admit something");
        QueryService {
            config,
            tenants: BTreeMap::new(),
            ring: VecDeque::new(),
            in_flight: Vec::new(),
            completions: Vec::new(),
            next_ticket: 0,
        }
    }

    /// Queue a request FIFO behind its tenant's earlier requests. Returns a
    /// ticket (matched by [`Completion::ticket`]) or [`Overloaded`] when
    /// the tenant's queue is at cap. The deadline clock starts now — time a
    /// session spends waiting for admission counts against it.
    pub fn enqueue(&mut self, nt: &NetTrails, request: ServiceRequest) -> Result<u64, Overloaded> {
        let tenant = request.tenant.clone();
        let state = self.tenants.entry(tenant.clone()).or_default();
        state.stats.offered += 1;
        if state.queue.len() >= self.config.queue_cap {
            state.stats.rejected += 1;
            return Err(Overloaded {
                tenant,
                queued: state.queue.len(),
            });
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let deadline = request
            .deadline_ms
            .map(|ms| nt.now() + SimTime::from_secs_f64(ms / 1000.0));
        if state.queue.is_empty() {
            self.ring.push_back(tenant);
        }
        state.queue.push_back(Pending {
            ticket,
            request,
            deadline,
        });
        Ok(ticket)
    }

    /// One service step: admit (round-robin), pump the query plane once,
    /// reap. Returns true while anything moved — false means the service is
    /// idle (or genuinely stuck, which [`QueryService::run`] treats as a
    /// bug).
    pub fn pump(&mut self, nt: &mut NetTrails) -> bool {
        let admitted = self.admit(nt);
        let pumped = nt.poll_queries();
        let reaped = self.reap(nt);
        admitted || pumped || reaped
    }

    /// Drive the service until every queued and in-flight session has
    /// completed or expired. Panics if no stage can make progress (an
    /// executor bug, never load).
    pub fn run(&mut self, nt: &mut NetTrails) {
        while !self.idle() {
            assert!(self.pump(nt), "query service stalled with pending work");
        }
    }

    /// True when no work is queued or in flight.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.tenants.values().all(|t| t.queue.is_empty())
    }

    /// Round-robin admission: each visit to a tenant submits its next live
    /// session. Returns true when any session was submitted or dropped at
    /// admission.
    fn admit(&mut self, nt: &mut NetTrails) -> bool {
        let mut progressed = false;
        while self.in_flight.len() < self.config.max_in_flight {
            let Some(tenant) = self.ring.pop_front() else {
                break;
            };
            let state = self.tenants.get_mut(&tenant).expect("ring tenant exists");
            while let Some(pending) = state.queue.pop_front() {
                progressed = true;
                let now = nt.now();
                if pending.deadline.is_some_and(|d| d <= now) {
                    // Expired while waiting: dropped without ever touching
                    // the executor, and without using the tenant's turn.
                    state.stats.expired += 1;
                    self.completions.push(Completion {
                        ticket: pending.ticket,
                        tenant: tenant.clone(),
                        stats: QueryStats::default(),
                        result: None,
                        expired: true,
                    });
                    continue;
                }
                state.stats.admitted += 1;
                let handle = nt.submit_query(pending.request.spec);
                self.in_flight.push(InFlight {
                    ticket: pending.ticket,
                    tenant: tenant.clone(),
                    handle,
                    deadline: pending.deadline,
                });
                break;
            }
            if !state.queue.is_empty() {
                self.ring.push_back(tenant);
            }
        }
        progressed
    }

    /// Redeem finished sessions and cancel in-flight sessions past their
    /// deadline; returns true when any session left the in-flight set.
    fn reap(&mut self, nt: &mut NetTrails) -> bool {
        let now = nt.now();
        let before = self.in_flight.len();
        let mut still = Vec::with_capacity(before);
        for session in self.in_flight.drain(..) {
            if nt.query_done(session.handle) {
                // A result that arrived before the reaper ran is accepted
                // even if the deadline has since passed: the work is paid.
                let Some((result, stats)) = nt.try_wait_query(session.handle) else {
                    unreachable!("service sessions are only cancelled below");
                };
                let state = self.tenants.get_mut(&session.tenant).expect("known tenant");
                state.stats.completed += 1;
                accumulate(&mut state.stats.rollup, &stats);
                self.completions.push(Completion {
                    ticket: session.ticket,
                    tenant: session.tenant,
                    stats,
                    result: Some(result),
                    expired: false,
                });
            } else if session.deadline.is_some_and(|d| d <= now) {
                // Cancel keeps the traffic the session already spent; the
                // handle is then redeemed through the non-panicking path
                // (`None`: cancelled, not completed).
                let stats = nt.cancel_query(session.handle);
                let redeemed = nt.try_wait_query(session.handle);
                debug_assert!(redeemed.is_none(), "cancelled sessions yield no result");
                let state = self.tenants.get_mut(&session.tenant).expect("known tenant");
                state.stats.expired += 1;
                accumulate(&mut state.stats.rollup, &stats);
                self.completions.push(Completion {
                    ticket: session.ticket,
                    tenant: session.tenant,
                    stats,
                    result: None,
                    expired: true,
                });
            } else {
                still.push(session);
            }
        }
        self.in_flight = still;
        self.in_flight.len() < before
    }

    /// Drain the completions accumulated so far, in completion order.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Per-tenant accounting, in tenant-name order.
    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.tenants
            .iter()
            .map(|(name, state)| (name.clone(), state.stats.clone()))
            .collect()
    }

    /// Sessions currently running on the executor.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Fairness of completed work: max/min completed sessions across
    /// tenants that offered any. `1.0` with fewer than two tenants;
    /// infinite when a tenant completed nothing.
    pub fn fairness_ratio(&self) -> f64 {
        let completed: Vec<u64> = self
            .tenants
            .values()
            .filter(|t| t.stats.offered > 0)
            .map(|t| t.stats.completed)
            .collect();
        if completed.len() < 2 {
            return 1.0;
        }
        let max = *completed.iter().max().expect("non-empty") as f64;
        let min = *completed.iter().min().expect("non-empty") as f64;
        if min == 0.0 {
            return f64::INFINITY;
        }
        max / min
    }
}

/// Sum `s` into `into`, field by field (`latency_ms` accumulates total
/// session-time).
fn accumulate(into: &mut QueryStats, s: &QueryStats) {
    into.messages += s.messages;
    into.records += s.records;
    into.bytes += s.bytes;
    into.dict_bytes += s.dict_bytes;
    into.vertices_visited += s.vertices_visited;
    into.cache_hits += s.cache_hits;
    into.latency_ms += s.latency_ms;
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrails::runtime::Tuple;
    use nettrails::NetTrailsConfig;
    use simnet::Topology;

    fn platform() -> NetTrails {
        let mut nt = NetTrails::new(
            protocols::mincost::PROGRAM,
            Topology::line(4),
            NetTrailsConfig::with_merged_query_frames(),
        )
        .unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        nt
    }

    fn far_target(nt: &NetTrails) -> Tuple {
        nt.find_tuple("minCost", |t| {
            t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n4")
        })
        .map(|(_, t)| t)
        .expect("minCost(n1,n4) converged")
    }

    fn request(nt: &mut NetTrails, tenant: &str, target: &Tuple) -> ServiceRequest {
        nt.service(tenant).query(target).from_node("n4").request()
    }

    /// Strict round-robin under a flash crowd: tenant `crowd` offers 6
    /// sessions, tenant `calm` offers 3; with one in-flight slot the
    /// completion order alternates until `calm` drains, and the fairness
    /// ratio over the common prefix stays bounded.
    #[test]
    fn flash_crowd_cannot_starve_other_tenants() {
        let mut nt = platform();
        let target = far_target(&nt);
        let mut svc = QueryService::new(ServiceConfig {
            max_in_flight: 1,
            ..ServiceConfig::default()
        });
        let mut crowd_tickets = Vec::new();
        for _ in 0..6 {
            let req = request(&mut nt, "crowd", &target);
            crowd_tickets.push(svc.enqueue(&nt, req).unwrap());
        }
        let mut calm_tickets = Vec::new();
        for _ in 0..3 {
            let req = request(&mut nt, "calm", &target);
            calm_tickets.push(svc.enqueue(&nt, req).unwrap());
        }
        svc.run(&mut nt);
        let completions = svc.take_completions();
        assert_eq!(completions.len(), 9);
        assert!(completions.iter().all(|c| !c.expired));
        // Round-robin interleaving: each of the first three (crowd, calm)
        // rounds completes one session of each tenant.
        let order: Vec<&str> = completions.iter().map(|c| c.tenant.as_str()).collect();
        assert_eq!(
            &order[..6],
            &["crowd", "calm", "crowd", "calm", "crowd", "calm"],
            "calm must not wait behind the whole crowd"
        );
        // FIFO within each tenant.
        let crowd_done: Vec<u64> = completions
            .iter()
            .filter(|c| c.tenant == "crowd")
            .map(|c| c.ticket)
            .collect();
        assert_eq!(crowd_done, crowd_tickets);
        let stats = svc.tenant_stats();
        assert_eq!(stats[1].0, "crowd");
        assert_eq!(stats[1].1.completed, 6);
        assert_eq!(stats[0].0, "calm");
        assert_eq!(stats[0].1.completed, 3);
        assert!(stats.iter().all(|(_, s)| s.rollup.messages > 0));
        assert_eq!(svc.fairness_ratio(), 2.0);
    }

    /// Past the per-tenant queue cap, enqueue rejects explicitly instead of
    /// queueing unboundedly — and only the overloaded tenant is affected.
    #[test]
    fn overloaded_tenants_are_rejected_explicitly() {
        let mut nt = platform();
        let target = far_target(&nt);
        let mut svc = QueryService::new(ServiceConfig {
            max_in_flight: 1,
            queue_cap: 2,
        });
        for _ in 0..2 {
            let req = request(&mut nt, "crowd", &target);
            svc.enqueue(&nt, req).unwrap();
        }
        let req = request(&mut nt, "crowd", &target);
        let err = svc.enqueue(&nt, req).unwrap_err();
        assert_eq!(err.tenant, "crowd");
        assert_eq!(err.queued, 2);
        let req = request(&mut nt, "calm", &target);
        svc.enqueue(&nt, req).expect("other tenants unaffected");
        svc.run(&mut nt);
        let stats = svc.tenant_stats();
        assert_eq!(stats[1].1.offered, 3);
        assert_eq!(stats[1].1.rejected, 1);
        assert_eq!(stats[1].1.completed, 2);
        assert_eq!(svc.take_completions().len(), 3);
    }

    /// Deadlines cancel expired work on both paths: in flight (cancelled
    /// with its traffic kept) and still queued (dropped for free).
    #[test]
    fn deadlines_cancel_expired_sessions() {
        let mut nt = platform();
        let target = far_target(&nt);
        let mut svc = QueryService::new(ServiceConfig {
            max_in_flight: 1,
            ..ServiceConfig::default()
        });
        // Both sessions get a deadline shorter than one network hop: the
        // first expires in flight, the second expires in the wait queue.
        for _ in 0..2 {
            let req = request(&mut nt, "ops", &target);
            let req = ServiceRequest {
                deadline_ms: Some(0.25),
                ..req
            };
            svc.enqueue(&nt, req).unwrap();
        }
        // An undeadlined session behind them still completes.
        let req = request(&mut nt, "ops", &target);
        svc.enqueue(&nt, req).unwrap();
        svc.run(&mut nt);
        let completions = svc.take_completions();
        assert_eq!(completions.len(), 3);
        let expired: Vec<&Completion> = completions.iter().filter(|c| c.expired).collect();
        assert_eq!(expired.len(), 2);
        assert!(expired.iter().all(|c| c.result.is_none()));
        assert!(
            expired[0].stats.messages > 0,
            "in-flight expiry keeps the traffic it spent"
        );
        assert_eq!(
            expired[1].stats,
            QueryStats::default(),
            "queued expiry never touches the executor"
        );
        let done = completions.iter().find(|c| !c.expired).expect("one done");
        assert!(done.result.is_some());
        let stats = svc.tenant_stats();
        assert_eq!(stats[0].1.expired, 2);
        assert_eq!(stats[0].1.completed, 1);
        assert_eq!(stats[0].1.admitted, 2, "queued expiry was never admitted");
    }

    /// The in-flight budget bounds concurrency; the wait queue absorbs the
    /// rest and drains deterministically.
    #[test]
    fn budget_bounds_in_flight_sessions() {
        let mut nt = platform();
        let target = far_target(&nt);
        let mut svc = QueryService::new(ServiceConfig {
            max_in_flight: 2,
            ..ServiceConfig::default()
        });
        for _ in 0..5 {
            let req = request(&mut nt, "ops", &target);
            svc.enqueue(&nt, req).unwrap();
        }
        let mut peak = 0;
        while !svc.idle() {
            assert!(svc.pump(&mut nt));
            peak = peak.max(svc.in_flight());
            assert!(svc.in_flight() <= 2, "budget exceeded");
        }
        assert_eq!(peak, 2, "budget is actually used");
        assert_eq!(svc.take_completions().len(), 5);
    }
}
