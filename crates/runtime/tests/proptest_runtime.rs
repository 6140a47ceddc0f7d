//! Property-based tests for runtime values, tuples and the derivation store.

use nt_runtime::{Derivation, Membership, RelationSchema, Table, Tuple, TupleId, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-z0-9]{0,8}".prop_map(Value::Str),
        "[a-z0-9]{1,4}".prop_map(Value::addr),
        (-1000.0f64..1000.0).prop_map(Value::Double),
        Just(Value::Infinity),
        proptest::collection::vec(any::<i64>().prop_map(Value::Int), 0..4).prop_map(Value::list),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (
        "[a-z]{1,6}",
        proptest::collection::vec(value_strategy(), 1..5),
    )
        .prop_map(|(rel, vals)| Tuple::new(rel, vals))
}

proptest! {
    /// Value ordering is a total order: antisymmetric and transitive under
    /// sorting (sorting twice gives the same result, comparisons never panic).
    #[test]
    fn value_ordering_is_total(mut values in proptest::collection::vec(value_strategy(), 0..20)) {
        let mut sorted = values.clone();
        sorted.sort();
        sorted.sort();
        values.sort();
        prop_assert_eq!(values, sorted);
    }

    /// Equal values hash equally (stable content hashing).
    #[test]
    fn equal_values_have_equal_hashes(v in value_strategy()) {
        let a = Tuple::new("t", vec![v.clone()]).id();
        let b = Tuple::new("t", vec![v]).id();
        prop_assert_eq!(a, b);
    }

    /// Tuple ids are content addressed: changing any value changes the id
    /// (modulo astronomically unlikely collisions within a small sample).
    #[test]
    fn tuple_ids_distinguish_contents(t in tuple_strategy(), extra in value_strategy()) {
        let mut values = t.values().to_vec();
        values.push(extra);
        prop_assert_ne!(t.id(), Tuple::new(t.relation(), values).id());
    }

    /// The derivation store never loses track: after any sequence of
    /// add/remove operations the tuple is present iff it has at least one
    /// derivation, and `len()` matches the number of distinct present keys.
    #[test]
    fn table_membership_is_consistent(ops in proptest::collection::vec((0u8..2, 0u8..4, 0u8..3), 1..40)) {
        let schema = RelationSchema {
            name: "t".into(),
            arity: 1,
            location_col: 0,
            // Integers: this table stands outside any program.
            addr_cols: 0,
            key_cols: vec![0],
            is_base: true,
            lifetime: None,
        };
        let mut table = Table::new(schema);
        let tuples: Vec<Tuple> = (0..4)
            .map(|i| Tuple::new("t", vec![Value::Int(i as i64)]))
            .collect();
        let derivations: Vec<Derivation> = (0..3)
            .map(|i| Derivation {
                rule: format!("r{i}").into(),
                node: "n1".into(),
                inputs: [TupleId(i as u64)].into(),
            })
            .collect();
        for (op, t_idx, d_idx) in ops {
            let tuple = &tuples[t_idx as usize];
            let derivation = &derivations[d_idx as usize];
            let result = if op == 0 {
                table.add_derivation(tuple, derivation.clone())
            } else {
                table.remove_derivation(tuple, derivation)
            };
            // Membership report matches reality.
            let present = table.contains(tuple);
            match result {
                Membership::Appeared | Membership::AddedDerivation | Membership::Unchanged
                | Membership::RemovedDerivation | Membership::Replaced(_) => {
                    prop_assert!(present)
                }
                Membership::Disappeared => prop_assert!(!present),
                Membership::NotFound => {}
            }
            // Every stored tuple has at least one derivation, and the id index
            // agrees with the primary index.
            for stored in table.iter() {
                prop_assert!(!stored.derivations().is_empty());
                let tuple = stored.to_tuple();
                prop_assert_eq!(
                    table.get_by_id(tuple.id()).map(|s| s.to_tuple()),
                    Some(tuple)
                );
            }
        }
    }
}
