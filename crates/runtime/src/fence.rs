//! Names `benchmark/` still compiles against after the machinery behind them
//! was deleted. A shim selects nothing: a field keeps its one legal value and
//! [`check_engine_config`] refuses every other. Each shim, here or at its
//! struct, carries a `fence:` tag citing the benchmark line that uses it;
//! `scripts/ci_local.sh fence` lists them and checks the citations.

use crate::engine::EngineConfig;
use crate::error::{Result, RuntimeError};

/// The one legal value of `EngineConfig::fixpoint_workers` (and of the
/// platform field of the same name): a generation evaluates on its
/// engine's thread.
pub const FIXPOINT_WORKERS: usize = 1;

/// The one legal value of `EngineConfig::fixpoint_dispatch_threshold` (and
/// of the platform field of the same name).
pub const FIXPOINT_DISPATCH_THRESHOLD: usize = 64;

/// A prefix no relation carries any more.
// fence: benchmark/src/layered.rs:338
pub const OUTBOX_PREFIX: &str = "__out::";

/// `Ok` when a fenced `field` holds its one `legal` value, else
/// [`RuntimeError::Config`] naming the field. A count field and a switch
/// (`bool`) alike.
pub fn only<T: PartialEq + std::fmt::Display>(
    field: &'static str,
    value: T,
    legal: T,
) -> Result<()> {
    if value == legal {
        return Ok(());
    }
    Err(RuntimeError::Config {
        field,
        message: format!(
            "{value} is refused: the field is a benchmark fence shim and accepts only {legal}"
        ),
    })
}

/// Refuse an engine config whose fenced fields select anything but the one
/// production path.
pub fn check_engine_config(config: &EngineConfig) -> Result<()> {
    only("use_join_indexes", config.use_join_indexes, true)?;
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
    only("columnar_storage", config.columnar_storage, true)
}
