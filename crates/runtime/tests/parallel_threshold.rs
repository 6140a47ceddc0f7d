//! The dispatch threshold keeps tiny generations off the worker pool.
//!
//! A parallel-configured engine must not pay any pool overhead — no job
//! allocation, no queue traffic — for generations below
//! [`nt_runtime::FIXPOINT_DISPATCH_THRESHOLD`] trigger tasks; only a
//! generation at or above the threshold may enqueue pool jobs. The check
//! reads the pool's global `jobs_executed` counter, so this test lives alone
//! in its own binary: test binaries run their `#[test]`s on multiple
//! threads, and a concurrent pool user would race the counter.

use nt_runtime::{
    CompiledProgram, EngineConfig, NodeEngine, Tuple, Value, FIXPOINT_DISPATCH_THRESHOLD,
};
use std::sync::Arc;

fn fact(a: i64, b: i64) -> Tuple {
    Tuple::new("e", vec![Value::addr("n1"), Value::Int(a), Value::Int(b)])
}

#[test]
fn small_generations_never_touch_the_pool() {
    let program = Arc::new(
        CompiledProgram::from_source(
            "r1 g(@S,A,B) :- e(@S,A,B).\nr2 h(@S,A,C) :- e(@S,A,B), e(@S,B,C).",
        )
        .expect("program compiles"),
    );
    let mut engine = NodeEngine::new(
        program.clone(),
        EngineConfig::new("n1").with_fixpoint_workers(4),
    );

    // Well below the threshold: a handful of deltas per generation. The
    // engine is configured for 4 workers, yet the pool must see zero jobs.
    let before = nt_pool::jobs_executed();
    for round in 0..4i64 {
        for a in 0..8i64 {
            engine.insert_base(fact(round * 8 + a, a)).unwrap();
        }
        engine.run();
    }
    assert_eq!(
        nt_pool::jobs_executed(),
        before,
        "sub-threshold generations must not allocate pool jobs"
    );

    // One generation with >= FIXPOINT_DISPATCH_THRESHOLD trigger tasks (two
    // rules fire per inserted tuple) must take the dispatch path.
    let before = nt_pool::jobs_executed();
    for a in 0..FIXPOINT_DISPATCH_THRESHOLD as i64 {
        engine.insert_base(fact(1000 + a, a)).unwrap();
    }
    engine.run();
    assert!(
        nt_pool::jobs_executed() > before,
        "an at-threshold generation must dispatch morsels to the pool"
    );

    // A sequential engine never dispatches, no matter how large the
    // generation.
    let mut sequential = NodeEngine::new(program, EngineConfig::new("n1"));
    let before = nt_pool::jobs_executed();
    for a in 0..2 * FIXPOINT_DISPATCH_THRESHOLD as i64 {
        sequential.insert_base(fact(a, a)).unwrap();
    }
    sequential.run();
    assert_eq!(
        nt_pool::jobs_executed(),
        before,
        "W=1 engines must stay on the inline path"
    );
}
