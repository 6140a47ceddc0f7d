//! Property: the morsel-driven parallel fixpoint is *bit-identical* to the
//! sequential path at every worker count. For random programs (joins,
//! filters, assignments, negation, `min` aggregation, remote heads) and
//! random batched insert/delete sequences, an engine configured with W ∈
//! {2, 4} workers must produce, run for run, exactly the same
//! [`nt_runtime::StepOutput`] — outbox [`nt_runtime::DeltaBatch`]es including
//! their dictionary headers, the provenance firing stream, local membership
//! changes and the truncation flag — the same final tables with the same
//! supporting derivations, and the same [`nt_runtime::EngineStats`] as the
//! W = 1 engine.
//!
//! The dispatch threshold is pinned to 0 so even tiny generations take the
//! pool path; a second property leaves the default threshold in place to
//! exercise the inline fallback's equality too, and a fixed generation of a
//! few hundred trigger tasks covers the merge across many morsels.

use nt_runtime::{
    CompiledProgram, EngineConfig, EngineStats, NodeEngine, StepOutput, Tuple, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const PROGRAMS: &[&str] = &[
    // Projection + two-atom join probing on the shared variables (S, B).
    "r1 g(@S,A,B) :- e(@S,A,B).\n\
     r2 h(@S,A,C) :- e(@S,A,B), f(@S,B,C).",
    // Join with a constant probe column, a filter and an assignment.
    "r1 h(@S,A,C) :- e(@S,A,B), f(@S,B,C), C < 3.\n\
     r2 k(@S,A,D) :- e(@S,A,1), D := A + 1.",
    // Negation: reconciliation-based maintenance.
    "r1 miss(@S,A,B) :- e(@S,A,B), !f(@S,A,B).",
    // Aggregation: group recomputation probed by the group key.
    "materialize(m, infinity, infinity, keys(1,2)).\n\
     r1 m(@S,min<B>) :- e(@S,A,B).\n\
     r2 g(@S,A) :- e(@S,A,B), f(@S,B,A).",
    // Three-atom chain join: morsels carrying skewed per-task work.
    "r1 chain(@S,A,D) :- e(@S,A,B), f(@S,B,C), e(@S,C,D).",
    // Remote heads: derivations shipped to another node exercise the outbox
    // tables, send coalescing and per-destination dictionary headers.
    "r1 ship(@D,A,B) :- e(@S,A,B), peer(@S,D).\n\
     r2 h(@S,A,C) :- e(@S,A,B), f(@S,B,C).",
];

/// One operation: insert (true) or delete (false) a fact of `e` or `f`.
type Op = (bool, bool, i64, i64, bool);

fn fact(relation: &str, a: i64, b: i64, b_double: bool) -> Tuple {
    let b_value = if b_double {
        Value::Double(b as f64)
    } else {
        Value::Int(b)
    };
    Tuple::new(relation, vec![Value::addr("n1"), Value::Int(a), b_value])
}

/// relation -> tuple -> sorted derivation debug strings.
type TableDump = BTreeMap<String, BTreeMap<String, Vec<String>>>;

/// Apply the ops in batches of `batch` deltas per run (multi-delta
/// generations are where parallel evaluation actually happens) and return
/// every run's full output, the final table dump and the engine counters.
fn run_ops(
    program: &Arc<CompiledProgram>,
    config: EngineConfig,
    ops: &[Op],
    batch: usize,
) -> (Vec<StepOutput>, TableDump, EngineStats) {
    let mut engine = NodeEngine::new(program.clone(), config);
    // Peers for the remote-head program; inert facts for the others.
    engine
        .insert_base(Tuple::new(
            "peer",
            vec![Value::addr("n1"), Value::addr("n2")],
        ))
        .unwrap();
    engine
        .insert_base(Tuple::new(
            "peer",
            vec![Value::addr("n1"), Value::addr("n3")],
        ))
        .unwrap();
    let mut outputs = vec![engine.run()];
    for chunk in ops.chunks(batch.max(1)) {
        for (insert, use_e, a, b, b_double) in chunk {
            let tuple = fact(if *use_e { "e" } else { "f" }, *a, *b, *b_double);
            if *insert {
                engine.insert_base(tuple).unwrap();
            } else {
                engine.delete_base(tuple).unwrap();
            }
        }
        outputs.push(engine.run());
    }
    let mut state = BTreeMap::new();
    for table in engine.database().tables() {
        let mut tuples = BTreeMap::new();
        for stored in table.iter() {
            let mut derivations: Vec<String> = stored
                .derivations()
                .iter()
                .map(|d| format!("{d:?}"))
                .collect();
            derivations.sort();
            tuples.insert(stored.to_tuple().to_string(), derivations);
        }
        state.insert(table.schema.name.clone(), tuples);
    }
    (outputs, state, engine.stats().clone())
}

/// One generation well past the default dispatch threshold (several morsels
/// per worker), then a retraction of half of it: candidates computed on
/// different workers must merge back in task order, for every program.
#[test]
fn a_multi_morsel_generation_matches_sequential() {
    let e_fact = |insert: bool, a: i64| (insert, true, a, a % 8, false);
    let f_facts = (0..8i64).flat_map(|b| (0..4i64).map(move |c| (true, false, b, c, false)));
    let mut ops: Vec<Op> = f_facts.chain((0..192).map(|a| e_fact(true, a))).collect();
    let inserted = ops.len();
    ops.extend((0..192).step_by(2).map(|a| e_fact(false, a)));
    for source in PROGRAMS {
        let program = Arc::new(CompiledProgram::from_source(source).expect("programs compile"));
        let baseline = run_ops(&program, EngineConfig::new("n1"), &ops, inserted);
        for workers in [2usize, 4] {
            let config = EngineConfig::new("n1").with_fixpoint_workers(workers);
            assert!(
                baseline == run_ops(&program, config, &ops, inserted),
                "W={workers} diverged from W=1 on:\n{source}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// W ∈ {2, 4} with a zero dispatch threshold (every generation goes
    /// through the pool) equals W = 1 bit for bit: per-run outputs, final
    /// tables and counters.
    #[test]
    fn forced_dispatch_matches_sequential(
        program_idx in 0usize..6,
        batch in 1usize..6,
        ops in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0i64..4, 0i64..4, any::<bool>()),
            1..25,
        ),
    ) {
        let program = Arc::new(
            CompiledProgram::from_source(PROGRAMS[program_idx]).expect("pool programs compile"),
        );
        let baseline = run_ops(&program, EngineConfig::new("n1"), &ops, batch);
        for workers in [2usize, 4] {
            let config = EngineConfig::new("n1")
                .with_fixpoint_workers(workers)
                .with_fixpoint_dispatch_threshold(0);
            let parallel = run_ops(&program, config, &ops, batch);
            prop_assert_eq!(
                &baseline.0, &parallel.0,
                "per-run outputs diverged at W={}", workers
            );
            prop_assert_eq!(
                &baseline.1, &parallel.1,
                "final tables diverged at W={}", workers
            );
            prop_assert_eq!(
                &baseline.2, &parallel.2,
                "engine stats diverged at W={}", workers
            );
        }
    }

    /// The default threshold keeps small generations inline; a parallel
    /// configuration must still be indistinguishable.
    #[test]
    fn default_threshold_matches_sequential(
        program_idx in 0usize..6,
        batch in 1usize..6,
        ops in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0i64..4, 0i64..4, any::<bool>()),
            1..20,
        ),
    ) {
        let program = Arc::new(
            CompiledProgram::from_source(PROGRAMS[program_idx]).expect("pool programs compile"),
        );
        let baseline = run_ops(&program, EngineConfig::new("n1"), &ops, batch);
        let parallel = run_ops(
            &program,
            EngineConfig::new("n1").with_fixpoint_workers(4),
            &ops,
            batch,
        );
        prop_assert_eq!(&baseline.0, &parallel.0);
        prop_assert_eq!(&baseline.1, &parallel.1);
        prop_assert_eq!(&baseline.2, &parallel.2);
    }

    /// Full retraction drains every relation at every worker count (no
    /// candidate computed against the frozen tables resurrects a tuple).
    #[test]
    fn full_retraction_drains_all_worker_counts(
        program_idx in 0usize..6,
        facts in proptest::collection::vec(
            (any::<bool>(), 0i64..4, 0i64..4, any::<bool>()),
            1..12,
        ),
    ) {
        let program = Arc::new(
            CompiledProgram::from_source(PROGRAMS[program_idx]).expect("pool programs compile"),
        );
        let mut ops: Vec<Op> = facts
            .iter()
            .map(|(e, a, b, d)| (true, *e, *a, *b, *d))
            .collect();
        ops.extend(facts.iter().map(|(e, a, b, d)| (false, *e, *a, *b, *d)));
        for workers in [1usize, 2, 4] {
            let config = EngineConfig::new("n1")
                .with_fixpoint_workers(workers)
                .with_fixpoint_dispatch_threshold(0);
            let (_, state, _) = run_ops(&program, config, &ops, 4);
            for (relation, tuples) in &state {
                if relation == "peer" {
                    continue;
                }
                prop_assert!(
                    tuples.is_empty(),
                    "relation {} still holds {} tuples after full retraction at W={}",
                    relation,
                    tuples.len(),
                    workers
                );
            }
        }
    }
}
