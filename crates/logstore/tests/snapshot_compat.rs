//! Stores written before a tuple carried its id and its canonical values
//! still load, and load as what they meant.
//!
//! `fixtures/store_pr21_*.json` are `LogStore::to_json` outputs of the commit
//! before tuples were sealed (PR 21): `ints` is a converged two-node MINCOST
//! capture (no double anywhere, like every shipped workload); `doubles` is a
//! hand-built snapshot holding `3.0`, `2.5` and `[-0.0, 7]`.

use logstore::LogStore;
use nt_runtime::{Tuple, Value};

const INTS: &str = include_str!("fixtures/store_pr21_ints.json");
const DOUBLES: &str = include_str!("fixtures/store_pr21_doubles.json");

/// The writer's bytes did not move: a double-free store re-serializes to the
/// very bytes the earlier commit wrote, tuple order inside a relation
/// included. That commit ordered a relation by the tuples' debug text; these
/// relations are in `Tuple`'s order too, which a capture uses now.
#[test]
fn a_double_free_store_round_trips_byte_for_byte() {
    let store = LogStore::from_json(INTS).expect("the earlier format loads");
    assert_eq!(store.len(), 1);
    assert!(store.snapshots()[0].tuple_count() > 0);
    assert_eq!(store.to_json().expect("stores serialize"), INTS);

    // And a fresh capture of the same tuples sorts them the same way.
    let snapshot = &store.snapshots()[0];
    for node in snapshot.nodes.values() {
        for tuples in node.relations.values() {
            let mut sorted = tuples.clone();
            sorted.sort();
            assert_eq!(&sorted, tuples);
        }
    }
}

/// A tuple written as `3.0` reads `3`, is the `Int` spelling's tuple (same
/// id), and is written back as `3`. (Vertex ids stored beside such a tuple in
/// an old provenance graph were hashed from the `3.0` spelling and name
/// nothing now; no shipped program ever wrote one.)
#[test]
fn a_tuple_written_with_an_integral_double_loads_as_the_int_spelling() {
    let store = LogStore::from_json(DOUBLES).expect("the earlier format loads");
    let snapshot = &store.snapshots()[0];
    let cost = &snapshot.nodes[&"n1".into()].relations["cost"];
    let to = |d: &str| {
        cost.iter()
            .find(|t| t.values()[1] == Value::addr(d))
            .unwrap_or_else(|| panic!("cost(n1,{d},_) loaded"))
    };
    let spelled =
        |d: &str, v: Value| Tuple::new("cost", vec![Value::addr("n1"), Value::addr(d), v]);

    assert!(matches!(to("n2").values()[2], Value::Int(3)));
    assert_eq!(to("n2").to_string(), "cost(n1,n2,3)");
    assert_eq!(to("n2").id(), spelled("n2", Value::Int(3)).id());
    // A fractional double is itself; a list is canonical elementwise.
    assert!(matches!(to("n3").values()[2], Value::Double(d) if d == 2.5));
    assert_eq!(
        to("n4").id(),
        spelled("n4", Value::list(vec![Value::Int(0), Value::Int(7)])).id()
    );

    let rewritten = store.to_json().expect("stores serialize");
    assert!(!rewritten.contains("\"Double\": 3.0") && !rewritten.contains("-0.0"));
    assert!(rewritten.contains("\"Double\": 2.5"));
    let again = LogStore::from_json(&rewritten).expect("the rewritten store loads");
    assert_eq!(again.snapshots(), store.snapshots());
    assert_eq!(again.to_json().expect("stores serialize"), rewritten);
}
