//! Property: which columns a table indexes is invisible to its readers. A
//! table built with a random set of indexed columns answers every probe that
//! binds at least one of them with exactly the candidate sequence of a table
//! indexing every column — and iterates, and answers `get` / `get_by_id`,
//! identically — through any interleaving of inserts, added and removed
//! derivations, replacements by key and slot reuse, on both backings, and
//! the two backings agree with each other under the same set. That is what
//! lets an engine keep posting lists on the columns its program's plans probe
//! and nowhere else.
//!
//! Seeded mutations this caught (each fails `masked_table_reads_like_a_fully_indexed_one`):
//! * `ColumnStore::unindex_slot` skipping the last indexed column — a dead
//!   slot stays in a posting list and a later probe yields it (or trips the
//!   liveness assertion);
//! * `ColumnStore::probe` anchoring an unindexed bound column on posting
//!   lists that are not its own — probes binding such a column beside an
//!   indexed one come back empty;
//! * a text probe finding the address it spells (a `Str` arm back in the
//!   columnar `dict_code` and in the row store's residual filter) — the
//!   respelled probes yield addresses.

use nt_runtime::{
    Derivation, Membership, RelationSchema, Table, TableBacking, Tuple, TupleId, Value,
};
use proptest::prelude::*;

/// What a column of a given palette can hold. Palette 0 is an address column
/// of the schema (addresses only, dictionary-encoded), palette 1 a numeric
/// one whose `Int`/`Double` twins compare equal and whose fraction or
/// infinity widens an integer column, palette 2 mixes everything — addresses
/// and texts of the same spelling, lists included.
fn cell(palette: u8, code: u8) -> Value {
    let addrs = [Value::addr("a"), Value::addr("b"), Value::addr("c")];
    match palette {
        0 => addrs[code as usize % 3].clone(),
        1 => [
            Value::Int(0),
            Value::Int(1),
            Value::Double(1.0),
            Value::Double(0.5),
            Value::Infinity,
        ][code as usize % 5]
            .clone(),
        _ => [
            Value::addr("a"),
            Value::str("a"),
            Value::Int(1),
            Value::Double(1.0),
            Value::list(vec![Value::Int(1)]),
            Value::list(vec![Value::Double(1.0)]),
            Value::Bool(true),
        ][code as usize % 7]
            .clone(),
    }
}

/// The same number spelled the other way, which a probe must not tell from
/// the first; an address spelled as a text, which is another value.
fn respelled(v: &Value) -> Value {
    match v {
        Value::Addr(a) => Value::str(a.as_str()),
        Value::Int(i) => Value::Double(*i as f64),
        other => other.clone(),
    }
}

fn derivation(d: u8) -> Derivation {
    Derivation {
        rule: format!("r{d}").into(),
        node: "n1".into(),
        inputs: [TupleId(d as u64)].into(),
    }
}

/// Everything observable about a stored tuple.
fn seen(r: nt_runtime::TupleRef<'_>) -> (String, TupleId, usize) {
    (r.to_tuple().to_string(), r.id(), r.derivations().len())
}

fn columns_of(mask: u8, arity: usize) -> Vec<usize> {
    (0..arity).filter(|c| mask & (1 << c) != 0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn masked_table_reads_like_a_fully_indexed_one(
        arity in 2usize..5,
        key_mask in 1u8..16,
        index_mask in 0u8..16,
        palettes in proptest::collection::vec(0u8..3, 4),
        ops in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(0u8..16, 4), 0u8..3),
            1..40,
        ),
    ) {
        let mut key_cols = columns_of(key_mask, arity);
        if key_cols.is_empty() {
            key_cols.push(0);
        }
        let indexed = columns_of(index_mask, arity);
        let schema = RelationSchema {
            name: "t".into(),
            arity,
            location_col: 0,
            addr_cols: (0..arity).filter(|c| palettes[*c] == 0).map(|c| 1 << c).sum(),
            key_cols,
            is_base: true,
            lifetime: None,
        };
        // [columnar masked, columnar full, row masked, row full]
        let mut tables = [
            Table::indexing(schema.clone(), TableBacking::Columnar, &indexed),
            Table::with_backing(schema.clone(), TableBacking::Columnar),
            Table::indexing(schema.clone(), TableBacking::Row, &indexed),
            Table::with_backing(schema, TableBacking::Row),
        ];

        for (kind, codes, d) in ops {
            let values: Vec<Value> = (0..arity).map(|c| cell(palettes[c], codes[c])).collect();
            let tuple = Tuple::new("t", values);

            let outcomes: Vec<Vec<Membership>> = tables
                .iter_mut()
                .map(|table| match kind {
                    0 | 1 => vec![table.add_derivation(&tuple, derivation(d))],
                    2 => vec![table.remove_derivation(&tuple, &derivation(d))],
                    // Retract whatever supports the tuple: the slot dies and
                    // a later insert reuses it.
                    _ => (0..3)
                        .map(|d| table.remove_derivation(&tuple, &derivation(d)))
                        .collect(),
                })
                .collect();
            for other in &outcomes[1..] {
                prop_assert_eq!(&outcomes[0], other, "membership outcomes diverged");
            }

            let reference = &tables[1];
            for (which, table) in tables.iter().enumerate() {
                prop_assert_eq!(
                    table.iter().map(seen).collect::<Vec<_>>(),
                    reference.iter().map(seen).collect::<Vec<_>>(),
                    "iteration order diverged (table {})", which
                );
                prop_assert_eq!(table.get(&tuple).map(seen), reference.get(&tuple).map(seen));
                prop_assert_eq!(
                    table.get_by_id(tuple.id()).map(seen),
                    reference.get_by_id(tuple.id()).map(seen)
                );
            }

            // Every bound subset that is empty or binds an indexed column,
            // with the op's values as written and respelled.
            for subset in 0u8..(1 << arity) {
                if subset != 0 && subset & index_mask == 0 {
                    continue;
                }
                for respell in [false, true] {
                    let bound: Vec<(usize, Value)> = columns_of(subset, arity)
                        .into_iter()
                        .map(|c| {
                            let v = &tuple.values()[c];
                            (c, if respell { respelled(v) } else { v.clone() })
                        })
                        .collect();
                    let want: Vec<_> = reference.probe(&bound).map(seen).collect();
                    // Every candidate holds what is bound, by `==`: a text
                    // never finds an address.
                    for r in reference.probe(&bound) {
                        prop_assert!(bound.iter().all(|(c, v)| r.value(*c) == *v), "{:?}", bound);
                    }
                    for (which, table) in tables.iter().enumerate() {
                        prop_assert_eq!(
                            table.probe(&bound).map(seen).collect::<Vec<_>>(),
                            want.clone(),
                            "probe {:?} diverged (table {}, indexed {:?})", bound, which, indexed
                        );
                    }
                }
            }
        }
    }
}
