//! RouteViews-style update traces.
//!
//! The paper feeds "actual BGP traces from RouteViews" into the demonstration.
//! RouteViews data is not available offline, so this module generates synthetic
//! traces with the same event schema — timestamped prefix announcements and
//! withdrawals attributed to origin ASes — with controllable volume and churn,
//! which is all the provenance pipeline observes.

use crate::topology::AsTopology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kind of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The origin AS starts announcing the prefix.
    Announce,
    /// The origin AS withdraws the prefix.
    Withdraw,
}

/// One BGP update event (the RouteViews schema, reduced to what the
/// demonstration uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time in (simulated) seconds since the trace start.
    pub at_secs: u64,
    /// The origin AS performing the update.
    pub origin: String,
    /// The prefix being announced or withdrawn.
    pub prefix: String,
    /// Announcement or withdrawal.
    pub kind: TraceEventKind,
}

/// Synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// Prefixes originated per stub AS.
    pub prefixes_per_origin: usize,
    /// Number of withdraw/re-announce churn pairs to generate after the
    /// initial announcements.
    pub churn_events: usize,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for TraceGenerator {
    fn default() -> Self {
        TraceGenerator {
            prefixes_per_origin: 1,
            churn_events: 10,
            seed: 42,
        }
    }
}

impl TraceGenerator {
    /// Generate a trace for a topology: every stub AS first announces its
    /// prefixes (one event per second), followed by a churn phase in which
    /// random origins withdraw and re-announce one of their prefixes.
    pub fn generate(&self, topology: &AsTopology) -> Vec<TraceEvent> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let origins: Vec<String> = {
            let stubs = topology.stub_ases();
            if stubs.is_empty() {
                topology.ases().map(str::to_string).collect()
            } else {
                stubs
            }
        };
        let mut events = Vec::new();
        let mut time = 0u64;
        let mut owned: Vec<(String, String)> = Vec::new();
        for origin in &origins {
            for p in 0..self.prefixes_per_origin {
                let prefix = format!(
                    "10.{}.{}.0/24",
                    origins.iter().position(|o| o == origin).unwrap_or(0) % 256,
                    p
                );
                owned.push((origin.clone(), prefix.clone()));
                events.push(TraceEvent {
                    at_secs: time,
                    origin: origin.clone(),
                    prefix,
                    kind: TraceEventKind::Announce,
                });
                time += 1;
            }
        }
        // Churn: withdraw then re-announce random prefixes.
        for _ in 0..self.churn_events {
            if owned.is_empty() {
                break;
            }
            let (origin, prefix) = owned[rng.gen_range(0..owned.len())].clone();
            time += rng.gen_range(1..=5u64);
            events.push(TraceEvent {
                at_secs: time,
                origin: origin.clone(),
                prefix: prefix.clone(),
                kind: TraceEventKind::Withdraw,
            });
            time += rng.gen_range(1..=5u64);
            events.push(TraceEvent {
                at_secs: time,
                origin,
                prefix,
                kind: TraceEventKind::Announce,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_starts_with_announcements_and_adds_churn_pairs() {
        let topo = AsTopology::generate(2, 3, 5, 3);
        let gen = TraceGenerator {
            prefixes_per_origin: 2,
            churn_events: 4,
            seed: 9,
        };
        let trace = gen.generate(&topo);
        let announces = trace
            .iter()
            .filter(|e| e.kind == TraceEventKind::Announce)
            .count();
        let withdraws = trace
            .iter()
            .filter(|e| e.kind == TraceEventKind::Withdraw)
            .count();
        assert_eq!(withdraws, 4);
        assert_eq!(announces, trace.len() - withdraws);
        // Times are non-decreasing.
        assert!(trace.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
        // Determinism.
        assert_eq!(trace, gen.generate(&topo));
    }

    #[test]
    fn every_origin_is_a_stub_when_stubs_exist() {
        let topo = AsTopology::generate(2, 3, 5, 3);
        let stubs = topo.stub_ases();
        let trace = TraceGenerator::default().generate(&topo);
        assert!(trace.iter().all(|e| stubs.contains(&e.origin)));
    }
}
