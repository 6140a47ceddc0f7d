//! Property: the planned, index-backed join pipeline derives exactly the
//! same fixpoint as the reference full-scan evaluation, over random programs
//! and random insert/delete sequences — while never examining more join
//! candidates.
//!
//! The program pool exercises every evaluation path the planner touches:
//! single-atom projection, two-atom joins probing on shared variables,
//! constants in probe columns, filters + assignments, negation
//! (reconciliation) and `min` aggregation (group recomputation).

use nt_runtime::{CompiledProgram, EngineConfig, NodeEngine, Tuple, Value};
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
    // Three-atom chain join: the planner must order by connectivity.
    "r1 chain(@S,A,D) :- e(@S,A,B), f(@S,B,C), e(@S,C,D).",
];

/// One operation: insert (true) or delete (false) a fact of `e` or `f`.
type Op = (bool, bool, i64, i64, bool);

fn fact(relation: &str, a: i64, b: i64, b_double: bool) -> Tuple {
    // `b_double` stores the last column as an equal Double instead of an Int
    // (Value's total order equates them), exercising the index-key
    // normalization against the scan path's cross-type matching.
    let b_value = if b_double {
        Value::Double(b as f64)
    } else {
        Value::Int(b)
    };
    Tuple::new(relation, vec![Value::addr("n1"), Value::Int(a), b_value])
}

/// Apply the ops to an engine and return its final database as a
/// comparison-friendly map: relation -> tuple -> sorted derivation dump.
fn run_ops(
    program: &Arc<CompiledProgram>,
    config: EngineConfig,
    ops: &[Op],
) -> (BTreeMap<String, BTreeMap<String, Vec<String>>>, u64) {
    let mut engine = NodeEngine::new(program.clone(), config);
    for (insert, use_e, a, b, b_double) in ops {
        let tuple = fact(if *use_e { "e" } else { "f" }, *a, *b, *b_double);
        if *insert {
            engine.insert_base(tuple).unwrap();
        } else {
            engine.delete_base(tuple).unwrap();
        }
        engine.run();
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
    (state, engine.stats().join_probes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed and full-scan evaluation agree on every relation (tuples AND
    /// their supporting derivations) after any insert/delete sequence, and
    /// the indexed path never examines more candidates.
    #[test]
    fn indexed_join_matches_full_scan_fixpoint(
        program_idx in 0usize..5,
        ops in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0i64..4, 0i64..4, any::<bool>()),
            1..25,
        ),
    ) {
        let program = Arc::new(
            CompiledProgram::from_source(PROGRAMS[program_idx]).expect("pool programs compile"),
        );
        let (indexed_state, indexed_probes) =
            run_ops(&program, EngineConfig::new("n1"), &ops);
        let (scan_state, scan_probes) =
            run_ops(&program, EngineConfig::new("n1").without_indexes(), &ops);
        prop_assert_eq!(indexed_state, scan_state);
        prop_assert!(
            indexed_probes <= scan_probes,
            "indexed path examined {} candidates, scan path {}",
            indexed_probes,
            scan_probes
        );
    }

    /// Deleting everything that was inserted leaves every relation empty on
    /// both paths (no stale index entries resurrect tuples).
    #[test]
    fn full_retraction_drains_both_paths(
        program_idx in 0usize..5,
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
        for config in [EngineConfig::new("n1"), EngineConfig::new("n1").without_indexes()] {
            let (state, _) = run_ops(&program, config, &ops);
            for (relation, tuples) in &state {
                prop_assert!(
                    tuples.is_empty(),
                    "relation {} still holds {} tuples after full retraction",
                    relation,
                    tuples.len()
                );
            }
        }
    }
}
