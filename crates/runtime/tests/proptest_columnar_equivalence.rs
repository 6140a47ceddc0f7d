//! Property: the columnar table backing is *bit-identical* to the row-major
//! reference layout. For random programs (joins, filters, assignments,
//! negation, `min` aggregation, remote heads) and random batched
//! insert/delete sequences, an engine storing its tables column-major must
//! produce, run for run, exactly the same [`nt_runtime::StepOutput`] —
//! outbox [`nt_runtime::DeltaBatch`]es including their dictionary headers,
//! the provenance firing stream, local membership changes and the truncation
//! flag — the same final tables with the same supporting derivations, and
//! the same [`nt_runtime::EngineStats`] (`join_probes` included: the
//! vectorized probe kernel must yield exactly the candidates the row store's
//! probe yields, in the same order) as a row-backed engine, at every worker
//! count.

use nt_runtime::{
    CompiledProgram, EngineConfig, EngineStats, NodeEngine, StepOutput, TableBacking, Tuple, Value,
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
    // Three-atom chain join: the probe kernel anchored on different columns
    // per step.
    "r1 chain(@S,A,D) :- e(@S,A,B), f(@S,B,C), e(@S,C,D).",
    // Remote heads: shipped derivations are remembered in the outbox, not in
    // a table, and their retractions must ship under either backing.
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

/// Apply the ops in batches of `batch` deltas per run and return every run's
/// full output, the final table dump and the engine counters.
fn run_ops(
    program: &Arc<CompiledProgram>,
    config: EngineConfig,
    ops: &[Op],
    batch: usize,
) -> (Vec<StepOutput>, TableDump, EngineStats) {
    let mut engine = NodeEngine::new(program.clone(), config);
    engine.insert_base(Tuple::new(
        "peer",
        vec![Value::addr("n1"), Value::addr("n2")],
    ));
    engine.insert_base(Tuple::new(
        "peer",
        vec![Value::addr("n1"), Value::addr("n3")],
    ));
    let mut outputs = vec![engine.run()];
    for chunk in ops.chunks(batch.max(1)) {
        for (insert, use_e, a, b, b_double) in chunk {
            let tuple = fact(if *use_e { "e" } else { "f" }, *a, *b, *b_double);
            if *insert {
                engine.insert_base(tuple);
            } else {
                engine.delete_base(tuple);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Columnar storage equals the row reference bit for bit: per-run
    /// outputs, final tables and counters, at W ∈ {1, 4} (the parallel
    /// configuration pins the dispatch threshold to 0 so every generation
    /// takes the pool path over the columnar probe kernel).
    #[test]
    fn columnar_matches_row_store(
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
        for workers in [1usize, 4] {
            let mut row_config = EngineConfig::new("n1").with_row_storage();
            let mut col_config = EngineConfig::new("n1");
            if workers > 1 {
                row_config = row_config
                    .with_fixpoint_workers(workers)
                    .with_fixpoint_dispatch_threshold(0);
                col_config = col_config
                    .with_fixpoint_workers(workers)
                    .with_fixpoint_dispatch_threshold(0);
            }
            prop_assert_eq!(col_config.columnar_storage, true);
            prop_assert_eq!(row_config.columnar_storage, false);
            let row = run_ops(&program, row_config, &ops, batch);
            let col = run_ops(&program, col_config, &ops, batch);
            prop_assert_eq!(
                &row.0, &col.0,
                "per-run outputs diverged between backings at W={}", workers
            );
            prop_assert_eq!(
                &row.1, &col.1,
                "final tables diverged between backings at W={}", workers
            );
            prop_assert_eq!(
                &row.2, &col.2,
                "engine stats diverged between backings at W={}", workers
            );
        }
    }

    /// Full retraction drains every relation under the columnar backing
    /// exactly as it does under the row backing — slot recycling through the
    /// free list must never resurrect a tuple or strand an outbox entry.
    #[test]
    fn full_retraction_drains_both_backings(
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
        for backing in [TableBacking::Columnar, TableBacking::Row] {
            let config = match backing {
                TableBacking::Columnar => EngineConfig::new("n1"),
                TableBacking::Row => EngineConfig::new("n1").with_row_storage(),
            };
            let (_, state, _) = run_ops(&program, config, &ops, 4);
            for (relation, tuples) in &state {
                if relation == "peer" {
                    continue;
                }
                prop_assert!(
                    tuples.is_empty(),
                    "relation {} still holds {} tuples after full retraction ({:?} backing)",
                    relation,
                    tuples.len(),
                    backing
                );
            }
        }
    }
}
