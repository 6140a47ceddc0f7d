//! Property: the planned, index-backed join pipeline derives exactly the
//! same fixpoint as a full-scan evaluation, over random programs and random
//! insert/delete sequences.
//!
//! The full scan is the naive evaluator of `common/oracle.rs`: nested loops
//! over every stored tuple of each body atom, no plan and no index,
//! re-deriving every rule from scratch. After every operation the engine's
//! relations (tuples and their supporting derivations) and base tables must
//! be what that evaluation derives. `proptest_slot_equivalence.rs` holds the
//! engine's firings to the same oracle step by step; the number of
//! candidates the indexed path examines is pinned by
//! `crates/bench/tests/join_probes_regression.rs`.
//!
//! The program pool exercises every evaluation path the planner touches:
//! single-atom projection, two-atom joins probing on shared variables,
//! constants in probe columns, filters + assignments, negation
//! (reconciliation) and `min` aggregation (group recomputation).

#[path = "common/oracle.rs"]
mod oracle;

use nt_runtime::{CompiledProgram, EngineConfig, NodeEngine, Tuple, Value};
use oracle::{engine_tables, unordered_witnesses, Oracle, Tables};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
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
    // normalization against the full scan's cross-type matching.
    let b_value = if b_double {
        Value::Double(b as f64)
    } else {
        Value::Int(b)
    };
    Tuple::new(relation, vec![Value::addr("n1"), Value::Int(a), b_value])
}

/// A relation's stored tuples, printed, in iteration order.
fn contents(tuples: impl Iterator<Item = Tuple>) -> Vec<String> {
    tuples.map(|t| t.to_string()).collect()
}

/// Apply the ops to an indexed engine and to the full-scan oracle, checking
/// after each one that both hold the same relations; returns the engine.
fn run_ops(program_idx: usize, ops: &[Op]) -> Result<NodeEngine, TestCaseError> {
    let program = Arc::new(
        CompiledProgram::from_source(PROGRAMS[program_idx]).expect("pool programs compile"),
    );
    let unordered: BTreeSet<String> = (program.source.rules.iter())
        .filter(|r| unordered_witnesses(r))
        .map(|r| r.name.clone())
        .collect();
    let mut engine = NodeEngine::new(program.clone(), EngineConfig::new("n1"));
    let mut oracle = Oracle::new(&program);
    for (step, (insert, use_e, a, b, b_double)) in ops.iter().enumerate() {
        let tuple = fact(if *use_e { "e" } else { "f" }, *a, *b, *b_double);
        oracle.apply(tuple.clone(), *insert);
        if *insert {
            engine.insert_base(tuple).unwrap();
        } else {
            engine.delete_base(tuple).unwrap();
        }
        engine.run();

        let mut expected = Tables::new();
        for derived in oracle.derive_all().into_keys() {
            expected
                .entry(derived.head.clone())
                .or_default()
                .insert(derived);
        }
        prop_assert_eq!(
            engine_tables(&engine, &unordered),
            expected,
            "derived relations after step {}\n{}",
            step,
            PROGRAMS[program_idx]
        );
        let base: BTreeMap<&String, Vec<String>> = (oracle.base.iter())
            .map(|(name, table)| (name, contents(table.iter().map(|r| r.to_tuple()))))
            .collect();
        for (name, tuples) in base {
            prop_assert_eq!(
                contents(engine.relation(name).into_iter()),
                tuples,
                "base relation {} after step {}",
                name,
                step
            );
        }
    }
    Ok(engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed evaluation and the full-scan fixpoint agree on every relation
    /// (tuples AND their supporting derivations) after every step of any
    /// insert/delete sequence.
    #[test]
    fn indexed_join_matches_full_scan_fixpoint(
        program_idx in 0usize..5,
        ops in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0i64..4, 0i64..4, any::<bool>()),
            1..25,
        ),
    ) {
        run_ops(program_idx, &ops)?;
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
        let mut ops: Vec<Op> = facts
            .iter()
            .map(|(e, a, b, d)| (true, *e, *a, *b, *d))
            .collect();
        ops.extend(facts.iter().map(|(e, a, b, d)| (false, *e, *a, *b, *d)));
        let engine = run_ops(program_idx, &ops)?;
        for table in engine.database().tables() {
            prop_assert!(
                table.is_empty(),
                "relation {} still holds {} tuples after full retraction",
                table.schema.name,
                table.len()
            );
        }
    }
}
