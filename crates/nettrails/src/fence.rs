//! Platform names `benchmark/` still compiles against after the machinery
//! behind them was deleted: six `NetTrailsConfig` fields that keep one
//! legal value each, the `NetMessage::Delta` variant nothing constructs,
//! `PlatformStats::provenance_sharding`, which reads 0, and
//! `PlatformStats::provenance_traffic`, which is empty. Each carries a
//! `fence:` tag at its item citing the benchmark line that uses it;
//! `scripts/ci_local.sh fence` lists them and checks the citations.

use crate::NetTrailsConfig;
use nt_runtime::fence::{only, FIXPOINT_DISPATCH_THRESHOLD, FIXPOINT_WORKERS};
use provenance::fence::PROV_SHARDS;

/// Refuse a config whose fenced fields select anything but the one
/// production path, naming the first such field.
pub(crate) fn check_config(config: &NetTrailsConfig) -> nt_runtime::Result<()> {
    only("use_join_indexes", config.use_join_indexes, true)?;
    only("prov_shards", config.prov_shards, PROV_SHARDS)?;
    only(
        "fixpoint_workers",
        config.fixpoint_workers,
        FIXPOINT_WORKERS,
    )?;
    only(
        "fixpoint_dispatch_threshold",
        config.fixpoint_dispatch_threshold,
        FIXPOINT_DISPATCH_THRESHOLD,
    )?;
    only("columnar_storage", config.columnar_storage, true)?;
    only("merge_query_frames", config.merge_query_frames, true)
}
