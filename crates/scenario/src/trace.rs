//! Deterministic trace schedules.
//!
//! A trace is a list of timestamped steps — link churn events and
//! flash-crowd query storms — generated as a pure function of a
//! [`ScenarioSpec`] (static families draw churn from the seeded RNG; the
//! mobility mesh samples its motion model). The replay driver advances the
//! simulated clock to each step's timestamp before executing it, so measured
//! latencies and the trace schedule share one clock.

use crate::spec::{ScenarioSpec, TopologyFamily, WorkloadKind};
use nt_runtime::StableHasher;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Link, Topology, TopologyEvent};

/// One scheduled action.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceAction {
    /// A topology change (both directions of a link).
    Churn(TopologyEvent),
    /// A flash crowd: this many concurrent query sessions submitted at one
    /// instant.
    QueryStorm {
        /// Sessions submitted together.
        queries: usize,
    },
}

/// A timestamped trace step.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Offset from replay start, in simulated milliseconds.
    pub at_ms: u64,
    /// What happens.
    pub action: TraceAction,
}

/// A full trace schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadTrace {
    /// Steps in nondecreasing `at_ms` order.
    pub steps: Vec<TraceStep>,
}

/// Queries per periodic latency probe (so churn-only traces still measure
/// p50/p99).
const PROBE_QUERIES: usize = 4;

impl WorkloadTrace {
    /// Generate the trace for `spec` against its topology. `topology` must be
    /// `spec.family.build(spec.seed)` — passed in so the driver builds it
    /// once.
    pub fn generate(spec: &ScenarioSpec, topology: &Topology) -> WorkloadTrace {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
        let churn = match spec.family {
            TopologyFamily::MobilityMesh { .. } => Self::mobility_churn(spec),
            _ => Self::static_churn(spec, topology, &mut rng),
        };
        let mut steps = Vec::new();
        match spec.workload {
            WorkloadKind::Churn => {
                // Sustained churn with periodic latency probes: four probes
                // spread across the schedule plus one up front, however many
                // churn events the trace carries (a mobility mesh can emit
                // thousands per run).
                Self::interleave(&mut steps, churn, PROBE_QUERIES);
            }
            WorkloadKind::Storm => {
                // Flash crowds in three waves over a lightly-churning
                // network: a couple of churn events land between waves.
                let light: Vec<_> = churn.into_iter().take(4).collect();
                let mut wave_at = 0;
                let mut light_iter = light.into_iter();
                for wave in 0..3 {
                    steps.push(TraceStep {
                        at_ms: wave_at,
                        action: TraceAction::QueryStorm {
                            queries: spec.storm_queries,
                        },
                    });
                    if wave < 2 {
                        if let Some((_, event)) = light_iter.next() {
                            steps.push(TraceStep {
                                at_ms: wave_at + 100,
                                action: TraceAction::Churn(event),
                            });
                        }
                    }
                    wave_at += 250;
                }
            }
            WorkloadKind::Mixed => {
                // Concurrent protocols under interleaved churn and full
                // storms at the same four points.
                Self::interleave(&mut steps, churn, spec.storm_queries.max(PROBE_QUERIES));
            }
        }
        WorkloadTrace { steps }
    }

    /// Lay out churn events with one storm of `storm_size` up front and one
    /// after each quarter of the events — the storm *schedule* is fixed, so
    /// query volume never scales with churn volume.
    fn interleave(steps: &mut Vec<TraceStep>, churn: Vec<(u64, TopologyEvent)>, storm_size: usize) {
        steps.push(TraceStep {
            at_ms: 0,
            action: TraceAction::QueryStorm {
                queries: storm_size,
            },
        });
        let stride = churn.len().div_ceil(4).max(1);
        let total = churn.len();
        for (i, (at_ms, event)) in churn.into_iter().enumerate() {
            steps.push(TraceStep {
                at_ms,
                action: TraceAction::Churn(event),
            });
            if (i + 1) % stride == 0 || i + 1 == total {
                steps.push(TraceStep {
                    at_ms,
                    action: TraceAction::QueryStorm {
                        queries: storm_size,
                    },
                });
            }
        }
    }

    /// Churn for static families: link downs, recoveries of previously
    /// downed links, and cost changes, 40 simulated ms apart.
    fn static_churn(
        spec: &ScenarioSpec,
        topology: &Topology,
        rng: &mut StdRng,
    ) -> Vec<(u64, TopologyEvent)> {
        let pairs: Vec<&Link> = topology.links().filter(|l| l.from < l.to).collect();
        let mut events = Vec::new();
        let mut downed: Vec<Link> = Vec::new();
        for i in 0..spec.churn_steps {
            let at_ms = 40 * (i as u64 + 1);
            let event = match i % 3 {
                // A link fails...
                0 => {
                    let l = pairs[rng.gen_range(0..pairs.len())];
                    downed.push(l.clone());
                    TopologyEvent::LinkDown {
                        a: l.from.clone(),
                        b: l.to.clone(),
                    }
                }
                // ... and the oldest failed link recovers (keeping the
                // network near its generated shape), possibly at a new cost.
                1 if !downed.is_empty() => {
                    let mut l = downed.remove(0);
                    l.cost = rng.gen_range(1..=5);
                    TopologyEvent::LinkUp(l)
                }
                _ => {
                    let l = pairs[rng.gen_range(0..pairs.len())];
                    TopologyEvent::CostChange {
                        a: l.from.clone(),
                        b: l.to.clone(),
                        cost: rng.gen_range(1..=5),
                    }
                }
            };
            events.push((at_ms, event));
        }
        events
    }

    /// Churn for the mobility mesh: diff the motion model's radio link set
    /// at 1-second samples — real movement-driven churn, still a pure
    /// function of the seed.
    fn mobility_churn(spec: &ScenarioSpec) -> Vec<(u64, TopologyEvent)> {
        let model = spec
            .family
            .mobility_model(spec.seed)
            .expect("mobility churn needs a mesh family");
        let mut events = Vec::new();
        let samples = spec.churn_steps.max(1);
        for i in 1..=samples {
            let (t0, t1) = ((i - 1) as f64, i as f64);
            let at_ms = 1000 * i as u64;
            let (up, down) = model.link_changes(t0, t1);
            for (a, b) in down {
                events.push((at_ms, TopologyEvent::LinkDown { a, b }));
            }
            for (a, b) in up {
                events.push((at_ms, TopologyEvent::LinkUp(Link::new(a, b, 1))));
            }
        }
        events
    }

    /// Total churn events in the trace.
    pub fn churn_events(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.action, TraceAction::Churn(_)))
            .count()
    }

    /// Total queries across all storms.
    pub fn queries(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s.action {
                TraceAction::QueryStorm { queries } => queries,
                _ => 0,
            })
            .sum()
    }

    /// Machine-independent digest of the schedule.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        for step in &self.steps {
            h.write_u64(step.at_ms);
            h.write_bytes(format!("{:?}", step.action).as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{TopologyFamily, WorkloadKind};

    fn spec(workload: WorkloadKind) -> ScenarioSpec {
        ScenarioSpec {
            family: TopologyFamily::SmallWorld {
                n: 40,
                k: 4,
                beta_percent: 10,
            },
            workload,
            seed: 5,
            anchors: 3,
            max_hops: 3,
            churn_steps: 12,
            storm_queries: 8,
        }
    }

    #[test]
    fn traces_are_seed_deterministic_and_timestamped() {
        for workload in [
            WorkloadKind::Churn,
            WorkloadKind::Storm,
            WorkloadKind::Mixed,
        ] {
            let s = spec(workload);
            let topo = s.family.build(s.seed);
            let a = WorkloadTrace::generate(&s, &topo);
            let b = WorkloadTrace::generate(&s, &topo);
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
            assert!(a.queries() >= 1, "every trace measures latency");
            assert!(a.steps.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        }
    }

    #[test]
    fn churn_traces_churn_and_storm_traces_storm() {
        let s = spec(WorkloadKind::Churn);
        let topo = s.family.build(s.seed);
        assert_eq!(WorkloadTrace::generate(&s, &topo).churn_events(), 12);
        let s = spec(WorkloadKind::Storm);
        assert!(WorkloadTrace::generate(&s, &topo).queries() >= 3 * 8);
    }

    #[test]
    fn mobility_traces_follow_the_motion_model() {
        let s = ScenarioSpec {
            family: TopologyFamily::MobilityMesh {
                n: 48,
                horizon_secs: 30,
            },
            workload: WorkloadKind::Churn,
            seed: 9,
            anchors: 3,
            max_hops: 3,
            churn_steps: 10,
            storm_queries: 8,
        };
        let topo = s.family.build(s.seed);
        let a = WorkloadTrace::generate(&s, &topo);
        assert_eq!(a, WorkloadTrace::generate(&s, &topo));
        assert!(a.churn_events() > 0, "nodes moving at 1-20 m/s churn links");
    }
}
