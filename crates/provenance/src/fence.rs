//! Names `benchmark/` still compiles against after the shard router,
//! per-session frame sealing, the maintenance shipment and the graph's
//! adjacency index behind them were deleted. A shim selects nothing:
//! [`ProvenanceSystem::with_shards`] accepts one shard only,
//! [`QueryExecutor::set_frame_merging`] accepts `true` only, [`ShardStats`]
//! reports the exchange of a system with one arena, which is none,
//! [`ProvenanceSystem::maintenance_traffic`] reports the shipments of a
//! system whose remote `prov` entries arrive on their records, which are
//! none, and [`ProvGraph::rebuild_adjacency`] rebuilds nothing, since a graph
//! holds only its vertices and edges. Each shim carries a `fence:` tag citing
//! the benchmark line that uses it; `scripts/ci_local.sh fence` lists them
//! and checks the citations.

use crate::{ProvGraph, ProvenanceSystem, QueryExecutor};
use nt_runtime::NodeId;
use simnet::TrafficStats;
use std::sync::OnceLock;

/// The one legal shard count (and `NetTrailsConfig::prov_shards` value).
pub const PROV_SHARDS: usize = 1;

/// Cross-shard exchange: none, since there is one arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Maintenance records handed between shards: always 0.
    // fence: benchmark/src/runs.rs:369
    pub cross_shard_records: u64,
}

static NO_EXCHANGE: ShardStats = ShardStats {
    cross_shard_records: 0,
};

impl ProvenanceSystem {
    /// [`ProvenanceSystem::new`]. Panics unless `shards` is 1.
    // fence: benchmark/src/layered.rs:250
    #[doc(hidden)]
    pub fn with_shards(nodes: impl IntoIterator<Item = impl Into<NodeId>>, shards: usize) -> Self {
        if let Err(e) = nt_runtime::fence::only("shards", shards, PROV_SHARDS) {
            panic!("{e}");
        }
        ProvenanceSystem::new(nodes)
    }

    /// No cross-shard exchange.
    // fence: benchmark/src/layered.rs:349
    #[doc(hidden)]
    pub fn shard_stats(&self) -> &ShardStats {
        &NO_EXCHANGE
    }

    /// No maintenance shipment: a remote derivation's `prov` entry is
    /// written where its record is delivered, so provenance sends nothing
    /// beside the protocol's records. Always empty.
    // fence: benchmark/src/layered.rs:348
    // fence: benchmark/src/layered.rs:403
    // fence: benchmark/src/platform.rs:402
    #[doc(hidden)]
    pub fn maintenance_traffic(&self) -> &TrafficStats {
        static NO_TRAFFIC: OnceLock<TrafficStats> = OnceLock::new();
        NO_TRAFFIC.get_or_init(TrafficStats::default)
    }
}

impl QueryExecutor {
    /// Accepts `true` only: a flush always ships one frame per (source,
    /// destination, direction), shared by the sessions that stage toward
    /// it. Panics on `false`.
    // fence: benchmark/src/layered.rs:253
    #[doc(hidden)]
    pub fn set_frame_merging(&mut self, on: bool) {
        if let Err(e) = nt_runtime::fence::only("frame_merging", on, true) {
            panic!("{e}");
        }
    }
}

impl ProvGraph {
    /// Does nothing: a graph keeps no index beside its vertices and edges.
    // fence: benchmark/src/layered.rs:368
    #[doc(hidden)]
    pub fn rebuild_adjacency(&mut self) {}
}
