//! Scenario specifications: which topology family, which workload, which
//! seed. A spec is the *entire* input of a scenario — everything else is
//! derived deterministically from it.

use simnet::{MobilityModel, RandomWaypoint, Topology};

/// A seeded topology family of the suite. Parameters are plain integers so
/// specs are `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// `k`-ary data-center fat-tree (`k` even): `5k^2/4 + k^3/4` nodes.
    FatTree {
        /// Switch radix.
        k: usize,
    },
    /// AS-level internet-like graph: preferential attachment with tiered
    /// link costs.
    InternetAs {
        /// Node count.
        n: usize,
        /// Links each newcomer attaches with.
        m: usize,
    },
    /// Watts–Strogatz small-world mesh.
    SmallWorld {
        /// Node count.
        n: usize,
        /// Lattice degree (even).
        k: usize,
        /// Rewiring probability in percent.
        beta_percent: u32,
    },
    /// Random-waypoint mobility mesh (the DSR environment); churn traces are
    /// sampled from the motion model.
    MobilityMesh {
        /// Node count.
        n: usize,
        /// Motion horizon in seconds (how far waypoints are precomputed).
        horizon_secs: u32,
    },
}

impl TopologyFamily {
    /// Short family name, the first part of [`ScenarioSpec::name`].
    pub fn name(&self) -> &'static str {
        match self {
            TopologyFamily::FatTree { .. } => "fat_tree",
            TopologyFamily::InternetAs { .. } => "internet_as",
            TopologyFamily::SmallWorld { .. } => "small_world",
            TopologyFamily::MobilityMesh { .. } => "mesh",
        }
    }

    /// Build the topology for `seed`. For the mobility mesh this is the radio
    /// link set at t=0 of the seeded motion model.
    pub fn build(&self, seed: u64) -> Topology {
        match *self {
            TopologyFamily::FatTree { k } => Topology::fat_tree(k, seed),
            TopologyFamily::InternetAs { n, m } => Topology::internet_as(n, m, seed),
            TopologyFamily::SmallWorld { n, k, beta_percent } => {
                Topology::small_world(n, k, beta_percent, seed)
            }
            TopologyFamily::MobilityMesh { n, horizon_secs } => {
                RandomWaypoint::mesh(n, f64::from(horizon_secs), seed).topology_at(0.0)
            }
        }
    }

    /// The motion model behind a mobility mesh (`None` for static families).
    pub fn mobility_model(&self, seed: u64) -> Option<RandomWaypoint> {
        match *self {
            TopologyFamily::MobilityMesh { n, horizon_secs } => {
                Some(RandomWaypoint::mesh(n, f64::from(horizon_secs), seed))
            }
            _ => None,
        }
    }
}

/// Which trace the workload driver replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Sustained link churn (downs, recoveries, cost changes) with periodic
    /// latency probes.
    Churn,
    /// Flash-crowd query storms against a lightly-churning network.
    Storm,
    /// Concurrent protocols (path-vector + min-cost + DSR-style source
    /// routes on one simnet) under interleaved churn and storms.
    Mixed,
}

impl WorkloadKind {
    /// Short workload name, the last part of [`ScenarioSpec::name`].
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Churn => "churn",
            WorkloadKind::Storm => "storm",
            WorkloadKind::Mixed => "mixed",
        }
    }
}

/// A fully-specified scenario. The replay driver, the trace and the topology
/// are all pure functions of this value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Topology family and its size parameters.
    pub family: TopologyFamily,
    /// Workload trace kind.
    pub workload: WorkloadKind,
    /// The seed everything derives from.
    pub seed: u64,
    /// How many anchor destinations the scenario protocols route toward
    /// (the analogue of advertised prefixes — routing all-pairs at 10^4
    /// nodes would be quadratic in state, which no real protocol does).
    pub anchors: usize,
    /// Hop bound on scenario routes (path length cap).
    pub max_hops: usize,
    /// Link-churn steps in the trace.
    pub churn_steps: usize,
    /// Queries per flash-crowd storm wave.
    pub storm_queries: usize,
}

impl ScenarioSpec {
    /// Stable row identifier: family, size, workload.
    pub fn name(&self) -> String {
        let size = match self.family {
            TopologyFamily::FatTree { k } => format!("k{k}"),
            TopologyFamily::InternetAs { n, .. }
            | TopologyFamily::SmallWorld { n, .. }
            | TopologyFamily::MobilityMesh { n, .. } => format!("n{n}"),
        };
        format!("{}_{}_{}", self.family.name(), size, self.workload.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let spec = ScenarioSpec {
            family: TopologyFamily::FatTree { k: 16 },
            workload: WorkloadKind::Churn,
            seed: 1,
            anchors: 4,
            max_hops: 3,
            churn_steps: 10,
            storm_queries: 8,
        };
        assert_eq!(spec.name(), "fat_tree_k16_churn");
        assert_eq!(spec.family.build(1), spec.family.build(1));
    }
}
