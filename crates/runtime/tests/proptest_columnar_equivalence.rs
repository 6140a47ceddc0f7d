//! Properties of the columnar table layout that the slot-kernel oracle
//! (`proptest_slot_equivalence.rs`) does not reach: the order of the key
//! index, lookups and probes on the tables an engine builds, and remote
//! heads taken back. The reference is a row store kept in this file — a
//! `BTreeMap` from the cloned key projection to the tuple, which is
//! `Vec<Value>`'s order by construction.
//!
//! `key_order_matches_the_row_store` holds one table to the row store over
//! keys that mix every variant, through interleaved inserts, removals and
//! replacements by key. Seeded mutations it catches: ordering the key index
//! by slot number (insert at the end), leaving the last key column out of
//! the comparator (`Table::find`), and a text probe finding the
//! address it spells (a `Str` arm back in `dict_code`).
//!
//! `columnar_matches_row_store` runs random programs (joins, filters,
//! assignments, negation, `min` aggregation, remote heads) over random
//! batched insert/delete streams and replays every run's local membership
//! changes into one row store per relation: after every run each table
//! iterates, in key order, and finds by `get` and by id exactly the tuples
//! its row store holds (`proptest_probe_mask.rs` holds probes to a scan). `full_retraction_drains_both_backings` does
//! the same over streams that are then retracted in full: every derived
//! table, its row store and the outbox end empty, and every (destination,
//! tuple, derivation) shipped is shipped once while live and retracted once.

use nt_runtime::{
    CompiledProgram, Delta, Derivation, EngineConfig, Membership, NodeEngine, RelationSchema,
    StepOutput, Table, TableSpec, Tuple, TupleId, Value,
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
    // a table, and their retractions must ship.
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

/// One row store per relation, by name.
type RowStores = BTreeMap<String, RowModel>;

/// Replay one run's local membership changes into the row stores, then hold
/// every table of the engine to its row store: iteration order and ids,
/// `get` and `get_by_id`.
fn replay_and_compare(
    engine: &NodeEngine,
    out: &StepOutput,
    rows: &mut RowStores,
) -> Result<(), TestCaseError> {
    let db = engine.database();
    for change in &out.local_changes {
        let (tuple, insert) = match change {
            Delta::Insert(t) => (t, true),
            Delta::Delete(t) => (t, false),
        };
        let schema = &db
            .table_sym(tuple.relation())
            .expect("a stored relation")
            .schema;
        let key = tuple.project(&schema.key_cols);
        let model = rows.entry(schema.name.clone()).or_default();
        match insert {
            true => prop_assert!(
                model.insert(key, tuple.clone()).is_none(),
                "{} over a held key",
                tuple
            ),
            false => prop_assert_eq!(model.remove(&key).as_ref(), Some(tuple)),
        }
    }
    for table in db.tables() {
        let model = rows.entry(table.schema.name.clone()).or_default();
        let seen: Vec<(String, TupleId)> = table
            .iter()
            .map(|r| (r.to_tuple().to_string(), r.id()))
            .collect();
        let modelled: Vec<(String, TupleId)> =
            model.values().map(|t| (t.to_string(), t.id())).collect();
        prop_assert_eq!(seen, modelled, "relation {} diverged", table.schema.name);
        for tuple in model.values() {
            prop_assert_eq!(table.get(tuple).map(|r| r.id()), Some(tuple.id()));
            let by_id = table
                .get_by_id(tuple.id())
                .map(|r| r.to_tuple().to_string());
            prop_assert_eq!(by_id, Some(tuple.to_string()));
        }
    }
    Ok(())
}

/// Apply the ops in batches of `batch` deltas per run, holding the tables to
/// their row stores after every run; return every run's output, the engine
/// and the row stores.
fn run_ops(
    program: &Arc<CompiledProgram>,
    ops: &[Op],
    batch: usize,
) -> Result<(Vec<StepOutput>, NodeEngine, RowStores), TestCaseError> {
    let mut engine = NodeEngine::new(program.clone(), EngineConfig::new("n1"));
    let mut rows = RowStores::new();
    for peer in ["n2", "n3"] {
        let tuple = Tuple::new("peer", vec![Value::addr("n1"), Value::addr(peer)]);
        engine.insert_base(tuple).unwrap();
    }
    let mut outputs = vec![engine.run()];
    replay_and_compare(&engine, &outputs[0], &mut rows)?;
    for chunk in ops.chunks(batch.max(1)) {
        for (insert, use_e, a, b, b_double) in chunk {
            let tuple = fact(if *use_e { "e" } else { "f" }, *a, *b, *b_double);
            if *insert {
                engine.insert_base(tuple).unwrap();
            } else {
                engine.delete_base(tuple).unwrap();
            }
        }
        let out = engine.run();
        replay_and_compare(&engine, &out, &mut rows)?;
        outputs.push(out);
    }
    Ok((outputs, engine, rows))
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

/// The row store: each stored tuple under its key projection, in
/// `Vec<Value>`'s order.
type RowModel = BTreeMap<Vec<Value>, Tuple>;

/// What adding (`add`) or removing one derivation does to the row store,
/// with every tuple supported by one and the same derivation.
fn row_store_apply(
    rows: &mut RowModel,
    key_cols: &[usize],
    tuple: &Tuple,
    add: bool,
) -> Membership {
    let key = tuple.project(key_cols);
    match (rows.get(&key), add) {
        (None, true) => {
            rows.insert(key, tuple.clone());
            Membership::Appeared
        }
        (Some(held), true) if held == tuple => Membership::Unchanged,
        (Some(_), true) => Membership::Replaced(rows.insert(key, tuple.clone()).unwrap()),
        (Some(held), false) if held == tuple => {
            rows.remove(&key);
            Membership::Disappeared
        }
        (_, false) => Membership::NotFound,
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
        let key_cols = schema.key_cols.clone();
        let mut table = Table::new(Arc::new(TableSpec::new(Arc::new(schema), 0..3)));
        let mut rows = RowModel::new();
        let base = Derivation { rule: "r".into(), node: "n1".into(), inputs: [TupleId(1)].into() };
        for (kind, k0, k1, payload) in ops {
            let mut tuple =
                Tuple::new("t", vec![address(k0), key_value(k1), Value::Int(payload)]);
            // The engine addresses a stored tuple in its stored spelling; a
            // removal takes whatever payload the key holds.
            let held = rows.values().find(|held| {
                (kind == 2 || held.values()[2] == tuple.values()[2])
                    && held.values()[..2] == tuple.values()[..2]
            });
            if let Some(held) = held {
                tuple = held.clone();
            }
            let outcome = match kind {
                0 | 1 => table.add_derivation(&tuple, base.clone()),
                _ => table.remove_derivation(&tuple, &base),
            };
            let want = row_store_apply(&mut rows, &key_cols, &tuple, kind != 2);
            prop_assert_eq!(outcome, want);
            let seen: Vec<(String, TupleId, usize)> = table
                .iter()
                .map(|r| (r.to_tuple().to_string(), r.id(), r.derivations().len()))
                .collect();
            let modelled: Vec<(String, TupleId, usize)> =
                rows.values().map(|t| (t.to_string(), t.id(), 1)).collect();
            prop_assert_eq!(seen, modelled, "key order diverged after {}", tuple);
            prop_assert_eq!(
                table.get(&tuple).map(|r| r.id()),
                rows.get(&tuple.project(&key_cols)).filter(|t| **t == tuple).map(Tuple::id)
            );
            // A text never finds an address, in either key column.
            let text = Value::str(tuple.values()[0].as_addr().expect("an address"));
            for c in [0, 1] {
                prop_assert!(table.probe(&[(c, text.clone())]).all(|r| r.value(c) == text));
            }
        }
    }

    /// Random batched insert/delete streams: after every run each table
    /// iterates and finds exactly what its row store holds.
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
        run_ops(&program, &ops, batch)?;
    }

    /// Inserting facts in batches and retracting them all leaves every
    /// derived table, its row store and the outbox empty; slot recycling
    /// through the free list never resurrects a tuple or strands an outbox
    /// entry. Every shipped (destination, tuple, derivation) is live at most
    /// once and is retracted by the end.
    #[test]
    fn full_retraction_drains_both_backings(
        program_idx in 0usize..6,
        batch in 1usize..6,
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
        let (outputs, engine, rows) = run_ops(&program, &ops, batch)?;
        for table in engine.database().tables() {
            if table.schema.name == "peer" {
                continue;
            }
            prop_assert!(
                table.is_empty() && rows[&table.schema.name].is_empty(),
                "relation {} still holds {} tuples after full retraction",
                table.schema.name,
                table.len()
            );
        }
        prop_assert_eq!(engine.database().outbox_len(), 0);
        let mut live: BTreeMap<String, i64> = BTreeMap::new();
        for batch in outputs.iter().flat_map(|out| &out.sends) {
            for record in &batch.records {
                let (tuple, step) = match &record.delta {
                    Delta::Insert(t) => (t, 1),
                    Delta::Delete(t) => (t, -1),
                };
                let shipped = format!("{} {} {:?}", batch.dest, tuple, record.derivation);
                let count = live.entry(shipped.clone()).or_default();
                *count += step;
                prop_assert!((0..=1).contains(count), "{} shipped {} times", shipped, count);
            }
        }
        prop_assert!(live.values().all(|c| *c == 0), "unretracted: {:?}", live);
    }
}
