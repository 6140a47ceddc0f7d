//! # scenario — the internet-scale scenario suite
//!
//! The paper evaluates NetTrails on realistic distributed settings: AS-level
//! topologies derived from RouteViews, mobile DSR networks, multiple
//! declarative protocols running concurrently. This crate is the reproduction
//! counterpart: seeded topology families of any size ([`TopologyFamily`];
//! `ntbench` runs `internet_as` at 10^3 nodes), deterministic trace
//! schedules of link churn and flash-crowd query storms ([`WorkloadTrace`]),
//! and a replay driver ([`run_scenario`]) that executes a trace against a
//! full [`nettrails`] platform and reports work counts plus p50/p99 query
//! latency *measured* off the simulated clock.
//!
//! Everything downstream of a [`ScenarioSpec`] is a pure function of its
//! `u64` seed: the topology, the trace, the replayed engine state and the
//! replay digest. `tests/replay_determinism.rs` holds the driver to that:
//! [`verify_seed`], bit-identical reruns, and one
//! golden replay digest per topology family.

pub mod driver;
pub mod programs;
pub mod service;
pub mod spec;
pub mod trace;

pub use driver::{run_scenario, verify_seed, ScenarioOutcome};
pub use service::{run_service_scenario, ServiceScenarioOutcome, ServiceScenarioSpec};
pub use spec::{ScenarioSpec, TopologyFamily, WorkloadKind};
pub use trace::{TraceAction, TraceStep, WorkloadTrace};

/// Nearest-rank percentile over an ascending-sorted slice (`p` in `0..=100`).
/// Returns 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }
}
