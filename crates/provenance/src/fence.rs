//! Names `benchmark/` still compiles against after the shard router and
//! per-session frame sealing behind them were deleted. A shim selects
//! nothing: [`ProvenanceSystem::with_shards`] accepts one shard only,
//! [`QueryExecutor::set_frame_merging`] accepts `true` only, and
//! [`ShardStats`] reports the exchange of a system with one arena, which is
//! none. Each shim carries a `fence:` tag citing the benchmark line that
//! uses it; `scripts/ci_local.sh fence` lists them and checks the citations.

use crate::{ProvenanceSystem, QueryExecutor};
use nt_runtime::NodeId;

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
