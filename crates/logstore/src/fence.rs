//! Names `benchmark/` still compiles against after the machinery behind them
//! was deleted. [`SystemSnapshot::stamp_dictionary`] stamps nothing: a
//! snapshot carries no dictionary, since each encoded frame's name table
//! already holds every name the record uses. The shim carries a `fence:` tag
//! citing the benchmark line that calls it; `scripts/ci_local.sh fence` lists
//! it and checks the citation.

use crate::SystemSnapshot;

impl SystemSnapshot {
    /// Does nothing: a snapshot's names travel in its frame's name table.
    // fence: benchmark/src/layered.rs:382
    #[doc(hidden)]
    pub fn stamp_dictionary(&mut self) {}
}
