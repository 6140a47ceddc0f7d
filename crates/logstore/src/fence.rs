//! Names `benchmark/` still compiles against after the machinery behind them
//! was deleted. [`SystemSnapshot::stamp_dictionary`] stamps nothing: a
//! snapshot carries no dictionary, since each encoded frame's name table
//! already holds every name the record uses. [`NodeSnapshot::capture`] reads
//! the database alone: a node snapshot holds no provenance sizes. Each shim
//! carries a `fence:` tag citing the benchmark line that calls it;
//! `scripts/ci_local.sh fence` lists it and checks the citation.

use crate::{NodeSnapshot, SystemSnapshot};
use nt_runtime::Database;
use provenance::ProvenanceSystem;

impl SystemSnapshot {
    /// Does nothing: a snapshot's names travel in its frame's name table.
    // fence: benchmark/src/layered.rs:382
    #[doc(hidden)]
    pub fn stamp_dictionary(&mut self) {}
}

impl NodeSnapshot {
    /// [`NodeSnapshot::of`]; `provenance` is not read.
    // fence: benchmark/src/layered.rs:379
    #[doc(hidden)]
    pub fn capture(node: &str, db: &Database, _provenance: &ProvenanceSystem) -> Self {
        NodeSnapshot::of(node, db)
    }
}
