//! What is left of the in-process worker pool: two counters the benchmark
//! still reads. Engine generations and provenance rounds run on the caller's
//! thread, so no worker exists and nothing runs jobs.

pub use fence::{jobs_executed, workers};

#[doc(hidden)]
pub mod fence {
    /// Jobs run by pool workers: none.
    // fence: benchmark/src/runs.rs:343
    pub fn jobs_executed() -> u64 {
        0
    }

    /// Pool workers spawned: none.
    // fence: benchmark/src/runs.rs:344
    pub fn workers() -> usize {
        0
    }
}
