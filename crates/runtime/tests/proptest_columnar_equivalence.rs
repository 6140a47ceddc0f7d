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
//!
//! The columnar key index is a vector of slot numbers ordered by comparing key
//! columns in place; the row store's is a `BTreeMap` over cloned keys.
//! `key_order_matches_the_row_store` holds the first to the second over keys
//! that mix every variant. Seeded mutations it caught: ordering the key index
//! by slot number (insert at the end), leaving the last key column out of
//! the comparator (`ColumnStore::find`), and a text probe finding the
//! address it spells (a `Str` arm back in the columnar `dict_code` and in the
//! row store's residual filter).

use nt_runtime::{
    CompiledProgram, Derivation, EngineConfig, EngineStats, Membership, NodeEngine, RelationSchema,
    StepOutput, Table, TableBacking, Tuple, TupleId, Value,
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

/// A value of an address column.
fn address(code: u8) -> Value {
    Value::addr(["a", "b", "c"][code as usize % 3])
}

/// A key value of any other column: numbers whose `Int` and `Double`
/// spellings compare equal (all inside ±2^53, where the order is
/// transitive), addresses and strings with the same text, lists, and the
/// infinity sentinel.
fn key_value(code: u8) -> Value {
    const BIG: i64 = (1 << 53) - 1;
    match code % 16 {
        0 => Value::Int(-1),
        1 => Value::Int(2),
        2 => Value::Double(2.0),
        3 => Value::Double(2.5),
        4 => Value::Double(-0.5),
        5 => Value::Int(BIG),
        6 => Value::Double(BIG as f64),
        7 => Value::addr("b"),
        8 => Value::addr("a"),
        9 => Value::str("a"),
        10 => Value::str("b"),
        11 => Value::list(vec![Value::Int(2), Value::addr("a")]),
        12 => Value::list(vec![Value::Double(2.0)]),
        13 => Value::list(Vec::new()),
        14 => Value::Infinity,
        _ => Value::Bool(true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The key index orders tuples exactly as the row store's `BTreeMap`
    /// does, whatever mix of variants the key columns hold, through
    /// interleaved inserts, removals and replacements by key; `get` finds
    /// the same entries.
    #[test]
    fn key_order_matches_the_row_store(
        ops in proptest::collection::vec((0u8..3, any::<u8>(), any::<u8>(), 0i64..3), 1..60),
    ) {
        // Two key columns, an address column and one mixing every variant,
        // and one payload column: an insert that changes only the payload
        // replaces by key.
        let schema = RelationSchema {
            name: "t".into(),
            arity: 3,
            location_col: 0,
            addr_cols: 0b1,
            key_cols: vec![0, 1],
            is_base: true,
            lifetime: None,
        };
        let mut col = Table::with_backing(schema.clone(), TableBacking::Columnar);
        let mut row = Table::with_backing(schema, TableBacking::Row);
        let base = Derivation { rule: "r".into(), node: "n1".into(), inputs: [TupleId(1)].into() };
        let seen = |t: &Table| -> Vec<(String, TupleId, usize)> {
            t.iter().map(|r| (r.to_tuple().to_string(), r.id(), r.derivations().len())).collect()
        };
        for (kind, k0, k1, payload) in ops {
            let mut tuple =
                Tuple::new("t", vec![address(k0), key_value(k1), Value::Int(payload)]);
            // The engine addresses a stored tuple in its stored spelling; a
            // removal takes whatever payload the key holds.
            let held = row.iter().find(|r| {
                (kind == 2 || r.value(2) == tuple.values()[2])
                    && r.value(0) == tuple.values()[0]
                    && r.value(1) == tuple.values()[1]
            });
            if let Some(stored) = held {
                tuple = stored.to_tuple();
            }
            let outcomes: Vec<Membership> = [&mut col, &mut row]
                .into_iter()
                .map(|t| match kind {
                    0 | 1 => t.add_derivation(&tuple, base.clone()),
                    _ => t.remove_derivation(&tuple, &base),
                })
                .collect();
            prop_assert_eq!(&outcomes[0], &outcomes[1]);
            prop_assert_eq!(seen(&col), seen(&row), "key order diverged after {}", tuple);
            prop_assert_eq!(
                col.get(&tuple).map(|r| r.id()),
                row.get(&tuple).map(|r| r.id())
            );
            // A text never finds an address, in either key column.
            let text = Value::str(tuple.values()[0].as_addr().expect("an address"));
            for c in [0, 1] {
                for table in [&col, &row] {
                    prop_assert!(table.probe(&[(c, text.clone())]).all(|r| r.value(c) == text));
                }
            }
        }
    }

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
