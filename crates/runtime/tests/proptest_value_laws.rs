//! The laws behind "one identity per value, one per tuple" (the rule is
//! stated at the top of `value.rs`): `Eq` is an equivalence, `Ord` a total
//! order consistent with it, equal values hash alike under `Hash` and under
//! the stable hash, and equal tuples have one id, one printed form and one
//! serialized form. Checked over values as any caller can spell them —
//! un-normalized doubles included — and over the numbers where `as f64`
//! comparison breaks: `±2^53±1`, `i64::MIN/MAX`, `±2^63` as doubles, `-0.0`,
//! several NaN payloads, `Infinity`.
//!
//! The scalar laws run exhaustively over a palette (every pair and triple);
//! the proptests nest the palette in lists and tuples. The last test feeds an
//! aggregate one group key spelled `3` and `3.0`.
//!
//! What fails before numeric identity was decided in one place (on the commit
//! that compared `Int` with `Double` through `as f64` and hashed them apart):
//! `equal_values_hash_alike` and `equal_tuples_have_one_id_one_text_one_json`
//! (`Int(3)` / `Double(3.0)`, `0.0` / `-0.0`, two NaN payloads),
//! `ord_is_a_total_order_consistent_with_eq` (`2^53 + 1 == 2^53 as f64 ==
//! 2^53` yet `2^53 + 1 != 2^53`), the nested forms of both, and
//! `a_group_key_spelled_as_int_and_as_double_is_one_group` (no retraction of
//! `total(n1,3,5)`).
//!
//! Seeded mutations each of these catches are listed in CHANGES.md (PR 22).
//!
//! A list is a shared slice and a tuple's values are one (PR 25): two more
//! tests hold sharing invisible. `a_shared_list_is_its_content` compares a
//! value with its clone (which shares every list) and with a copy rebuilt
//! from nothing (which shares none), bare and inside tuples, under `==`,
//! `Ord`, `Hash`, `{:?}`, JSON and tuple id.
//! `canonicalizing_a_shared_list_copies_it` puts a list that another holder
//! keeps, holding `Double(3.0)`, into a tuple: the tuple stores `Int(3)`, the
//! other holder still reads `Double(3.0)`. Seeded mutations, each caught
//! (CHANGES.md, PR 25): list equality by `Arc::ptr_eq` and hashing a list's
//! pointer (the first test, every case with a non-empty list); skipping
//! canonicalization when `Arc::get_mut` fails (the second).
//!
//! `Tuple`'s order is the one order of a snapshot's relations (a capture
//! sorts by it, a replayed delta merges by it).
//! `tuple_order_is_a_total_order_consistent_with_eq_and_id` holds `Equal`
//! to `==` and to one id, antisymmetry and transitivity over random tuples
//! under two relations; `tuple_order_reads_names_not_handles` holds the
//! order to names, never to interning order. Seeded mutations, each caught:
//! `Tuple::cmp` ignoring the relation (both tests); the relation, or
//! `Value::cmp` on two `Addr`s, compared by pool index (the second).

use nt_runtime::{CompiledProgram, EngineConfig, NodeEngine, StableHasher, Tuple, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const P53: i64 = 1 << 53;

/// Every scalar the laws are checked over.
fn palette() -> Vec<Value> {
    let ints = [
        0,
        1,
        -1,
        3,
        P53 - 1,
        P53,
        P53 + 1,
        P53 + 2,
        -P53 - 1,
        -P53,
        -P53 + 1,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    let doubles = [
        0.0,
        -0.0,
        1.0,
        3.0,
        2.5,
        -2.5,
        0.5,
        P53 as f64,
        (P53 + 2) as f64,
        -(P53 as f64),
        9223372036854775808.0,  // 2^63, the first double past i64::MAX
        -9223372036854775808.0, // -2^63 == i64::MIN
        9223372036854774784.0,  // the last double below 2^63
        -9223372036854777856.0, // the first double below -2^63
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0000),
        f64::from_bits(0x7ff0_0000_0000_0001),
    ];
    let mut values: Vec<Value> = ints.iter().map(|i| Value::Int(*i)).collect();
    values.extend(doubles.iter().map(|d| Value::Double(*d)));
    values.extend([
        Value::Infinity,
        Value::Bool(false),
        Value::Bool(true),
        Value::str("a"),
        Value::addr("a"),
        Value::Id(3),
        Value::list(vec![]),
    ]);
    values
}

fn std_hash(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn stable_hash(v: &Value) -> u64 {
    let mut h = StableHasher::new();
    v.stable_hash_into(&mut h);
    h.finish()
}

/// `Eq` and `Ord` over one triple; `Err` names the law and the values. (The
/// laws are written as the laws read: `a != a` is the point.)
#[allow(clippy::eq_op, clippy::nonminimal_bool)]
fn order_laws(a: &Value, b: &Value, c: &Value) -> Result<(), String> {
    let fail = |law: &str| Err(format!("{law}: a = {a:?}, b = {b:?}, c = {c:?}"));
    if a != a || a.cmp(a) != Ordering::Equal {
        return fail("reflexive");
    }
    if (a == b) != (b == a) || a.cmp(b) != b.cmp(a).reverse() {
        return fail("symmetric / antisymmetric");
    }
    if (a == b) != (a.cmp(b) == Ordering::Equal) {
        return fail("Eq consistent with Ord");
    }
    if a == b && b == c && a != c {
        return fail("Eq transitive");
    }
    if a <= b && b <= c && !(a <= c) {
        return fail("Ord transitive");
    }
    // Equal to one, so ordered alike against a third.
    if a == b && a.cmp(c) != b.cmp(c) {
        return fail("equal values order alike");
    }
    Ok(())
}

/// `a == b` ⇒ equal `Hash` ⇒ equal stable hash.
fn hash_laws(a: &Value, b: &Value) -> Result<(), String> {
    if a == b && std_hash(a) != std_hash(b) {
        return Err(format!("equal values, two hashes: {a:?} / {b:?}"));
    }
    if a == b && stable_hash(a) != stable_hash(b) {
        return Err(format!("equal values, two stable hashes: {a:?} / {b:?}"));
    }
    Ok(())
}

/// Equal tuples are one tuple to every observer.
fn tuple_laws(a: &Tuple, b: &Tuple) -> Result<(), String> {
    if a != b {
        return Ok(());
    }
    let json = |t: &Tuple| serde_json::to_string(t).expect("tuples serialize");
    if a.id() != b.id() {
        return Err(format!("equal tuples, two ids: {a:?} / {b:?}"));
    }
    if a.to_string() != b.to_string() {
        return Err(format!("equal tuples, two texts: {a} / {b}"));
    }
    if json(a) != json(b) {
        return Err(format!(
            "equal tuples, two JSONs: {} / {}",
            json(a),
            json(b)
        ));
    }
    if std_hash(a) != std_hash(b) {
        return Err(format!("equal tuples, two hashes: {a:?} / {b:?}"));
    }
    Ok(())
}

#[test]
fn ord_is_a_total_order_consistent_with_eq() {
    let values = palette();
    for a in &values {
        for b in &values {
            for c in &values {
                order_laws(a, b, c).unwrap_or_else(|law| panic!("{law}"));
            }
        }
    }
    // What a sorted key index rests on: sorting puts every pair in order.
    let mut sorted = values.clone();
    sorted.sort();
    for (i, a) in sorted.iter().enumerate() {
        for b in &sorted[i..] {
            assert_ne!(a.cmp(b), Ordering::Greater, "{a:?} sorted before {b:?}");
        }
    }
}

#[test]
fn exact_comparison_around_the_edges_of_f64() {
    let (int, double) = (Value::Int, Value::Double);
    assert!(int(P53 + 1) > double(P53 as f64));
    assert!(int(P53 + 1) < double((P53 + 2) as f64));
    assert_eq!(int(P53), double(P53 as f64));
    assert_ne!(int(P53 + 1), int(P53));
    assert!(int(i64::MAX) < double(9223372036854775808.0));
    assert_eq!(int(i64::MIN), double(-9223372036854775808.0));
    assert!(int(i64::MIN) > double(-9223372036854777856.0));
    assert!(int(2) < double(2.5) && double(2.5) < int(3));
    assert!(int(-3) < double(-2.5) && double(-2.5) < int(-2));
    assert_eq!(double(0.0), double(-0.0));
    assert_eq!(double(-0.0), int(0));
    assert_eq!(
        double(f64::NAN),
        double(f64::from_bits(0xfff8_0000_0000_0000))
    );
    assert!(double(f64::NAN) > double(f64::INFINITY));
    assert!(double(f64::NAN) > int(i64::MAX));
    assert!(Value::Infinity > double(f64::NAN));
}

#[test]
fn equal_values_hash_alike() {
    let values = palette();
    let mut equal_pairs = 0;
    for a in &values {
        for b in &values {
            hash_laws(a, b).unwrap_or_else(|law| panic!("{law}"));
            equal_pairs += usize::from(a == b);
        }
    }
    // The palette really holds respelled twins (beyond a == a).
    assert!(
        equal_pairs >= values.len() + 20,
        "{equal_pairs} equal pairs"
    );
}

#[test]
fn equal_tuples_have_one_id_one_text_one_json() {
    let values = palette();
    for a in &values {
        for b in &values {
            let tuple = |v: &Value| Tuple::new("t", vec![Value::addr("n1"), v.clone()]);
            tuple_laws(&tuple(a), &tuple(b)).unwrap_or_else(|law| panic!("{law}"));
        }
    }
    let three = Tuple::new("t", vec![Value::Double(3.0), Value::Double(-0.0)]);
    assert_eq!(three.to_string(), "t(3,0)");
    assert_eq!(
        serde_json::to_string(&three).expect("tuples serialize"),
        r#"{"relation":"t","values":[{"Int":3},{"Int":0}]}"#
    );
}

/// `Tuple`'s order over one triple — the order of a snapshot's relations:
/// `Equal` exactly when `==` and exactly when one id, antisymmetric,
/// transitive.
fn tuple_order_laws(a: &Tuple, b: &Tuple, c: &Tuple) -> Result<(), String> {
    let fail = |law: &str| Err(format!("{law}: a = {a:?}, b = {b:?}, c = {c:?}"));
    let equal = a.cmp(b) == Ordering::Equal;
    if equal != (a == b) || equal != (a.id() == b.id()) {
        return fail("Equal iff == iff one id");
    }
    if a.cmp(b) != b.cmp(a).reverse() {
        return fail("antisymmetric");
    }
    if a <= b && b <= c && a > c {
        return fail("transitive");
    }
    Ok(())
}

/// A tuple is ordered by the names of its relation and its addresses, never
/// by the order they were interned in: names minted here last-first sort
/// first-last.
#[test]
fn tuple_order_reads_names_not_handles() {
    let late = Tuple::new("order-law-zz", vec![]);
    let early = Tuple::new("order-law-aa", vec![]);
    assert!(early < late);
    let at = |name: &str| Tuple::new("t", vec![Value::addr(name)]);
    let (late, early) = (at("order-law-n9"), at("order-law-n1"));
    assert!(early < late);
    // `3` and `3.0` are one tuple; a text and an address of one name are
    // two, under one relation or two.
    assert_eq!(
        Tuple::new("t", vec![Value::Int(3)]).cmp(&Tuple::new("t", vec![Value::Double(3.0)])),
        Ordering::Equal
    );
    assert_ne!(at("n1"), Tuple::new("t", vec![Value::str("n1")]));
    assert_ne!(at("n1"), Tuple::new("u", vec![Value::addr("n1")]));
}

/// A palette scalar, or a list (of lists) of them.
fn value_strategy() -> impl Strategy<Value = Value> {
    let scalar = || {
        let values = palette();
        (0..values.len()).prop_map(move |i| values[i].clone())
    };
    let list = || collection::vec(scalar(), 0..3).prop_map(Value::list);
    prop_oneof![
        scalar(),
        scalar(),
        list(),
        collection::vec(prop_oneof![scalar(), list()], 0..3).prop_map(Value::list),
    ]
}

/// A relation index and values: palette values, lists of them, and the
/// text and the address `n1`.
fn tuple_strategy() -> impl Strategy<Value = (usize, Vec<Value>)> {
    let value = prop_oneof![
        value_strategy(),
        value_strategy(),
        Just(Value::str("n1")),
        Just(Value::addr("n1")),
    ];
    (0usize..2, collection::vec(value, 0..3))
}

/// `v` with every number respelled where another spelling exists: an
/// integral double for an `Int` that has one, `-0.0` for zero, another
/// payload for NaN.
fn respelled(v: &Value) -> Value {
    match v {
        Value::Int(0) => Value::Double(-0.0),
        Value::Int(i) if (*i as f64) as i128 == *i as i128 => Value::Double(*i as f64),
        Value::Double(d) if d.is_nan() => Value::Double(f64::from_bits(0xfff8_0000_0000_0bad)),
        Value::Double(d) if *d == 0.0 => Value::Int(0),
        Value::List(l) => Value::List(l.iter().map(respelled).collect()),
        other => other.clone(),
    }
}

/// `v` built again from nothing: the same content, no list shared with `v`.
fn rebuilt(v: &Value) -> Value {
    match v {
        Value::List(l) => Value::list(l.iter().map(rebuilt).collect::<Vec<_>>()),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn a_shared_list_is_its_content(a in value_strategy(), b in value_strategy()) {
        let json = |v: &Value| serde_json::to_string(v).expect("values serialize");
        // A clone shares every list of `a`; a rebuilt copy shares none.
        for twin in [a.clone(), rebuilt(&a)] {
            prop_assert_eq!(&a, &twin);
            prop_assert_eq!(a.cmp(&twin), Ordering::Equal);
            prop_assert_eq!(a.cmp(&b), twin.cmp(&b));
            prop_assert_eq!(std_hash(&a), std_hash(&twin));
            prop_assert_eq!(stable_hash(&a), stable_hash(&twin));
            prop_assert_eq!(format!("{a:?}"), format!("{twin:?}"));
            prop_assert_eq!(json(&a), json(&twin));
        }
        // Tuples holding `a` twice, over its lists, over rebuilt ones, and a
        // clone of the first (one shared slice of values).
        let tuple = |v: &Value| Tuple::new("t", vec![Value::addr("n1"), v.clone(), v.clone()]);
        let shared = tuple(&a);
        for twin in [shared.clone(), tuple(&rebuilt(&a))] {
            prop_assert_eq!(&shared, &twin);
            prop_assert_eq!(format!("{shared:?}"), format!("{twin:?}"));
            tuple_laws(&shared, &twin).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn the_laws_hold_for_nested_values(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        order_laws(&a, &b, &c).map_err(TestCaseError::fail)?;
        hash_laws(&a, &b).map_err(TestCaseError::fail)?;
        // A respelling is the same value, so it stands in for the original
        // in every law.
        let twin = respelled(&a);
        prop_assert_eq!(&a, &twin);
        hash_laws(&a, &twin).map_err(TestCaseError::fail)?;
        order_laws(&a, &twin, &b).map_err(TestCaseError::fail)?;
        order_laws(&twin, &b, &c).map_err(TestCaseError::fail)?;
    }

    /// Tuples over palette values, lists of them, `Str("n1")` and
    /// `Addr(n1)`, under two relations; the second of a triple is drawn
    /// apart, is the first respelled, or holds the first's values under the
    /// other relation (as a node's tables and its outbox do).
    #[test]
    fn tuple_order_is_a_total_order_consistent_with_eq_and_id(
        a in tuple_strategy(),
        b in tuple_strategy(),
        c in tuple_strategy(),
        twin in 0usize..3,
    ) {
        const RELATIONS: [&str; 2] = ["t", "u"];
        let tuple = |(r, values): &(usize, Vec<Value>)| Tuple::new(RELATIONS[*r], values.clone());
        let (ta, tc) = (tuple(&a), tuple(&c));
        let tb = match twin {
            0 => tuple(&b),
            1 => Tuple::new(RELATIONS[a.0], a.1.iter().map(respelled).collect::<Vec<_>>()),
            _ => Tuple::new(RELATIONS[1 - a.0], a.1.clone()),
        };
        let triple = [&ta, &tb, &tc];
        for (i, j, k) in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)] {
            tuple_order_laws(triple[i], triple[j], triple[k]).map_err(TestCaseError::fail)?;
        }
        // One multiset, one vector: any arrangement of any spelling sorts
        // to the same tuples.
        let mut forward = vec![ta.clone(), tb.clone(), tc.clone()];
        let mut backward: Vec<Tuple> = forward
            .iter()
            .rev()
            .map(|t| Tuple::new(t.relation(), t.values().iter().map(respelled).collect::<Vec<_>>()))
            .collect();
        forward.sort();
        backward.sort_unstable();
        prop_assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
    }

    #[test]
    fn equal_tuples_are_one_tuple(
        a in collection::vec(value_strategy(), 0..4),
        b in collection::vec(value_strategy(), 0..4),
    ) {
        let (ta, tb) = (Tuple::new("t", a.clone()), Tuple::new("t", b));
        tuple_laws(&ta, &tb).map_err(TestCaseError::fail)?;
        let twin = Tuple::new("t", a.iter().map(respelled).collect::<Vec<_>>());
        prop_assert_eq!(&ta, &twin);
        tuple_laws(&ta, &twin).map_err(TestCaseError::fail)?;
        // What is stored is what is read: a round trip changes nothing. (JSON
        // has no NaN or infinite number; the writer prints `null`.)
        let json = serde_json::to_string(&ta).expect("tuples serialize");
        if !json.contains("null") {
            let back: Tuple = serde_json::from_str(&json).expect("tuples deserialize");
            prop_assert_eq!(back.id(), ta.id());
            prop_assert_eq!(serde_json::to_string(&back).expect("tuples serialize"), json);
        }
    }
}

/// A tuple stores canonical values; a list someone else holds is not theirs
/// to rewrite.
#[test]
fn canonicalizing_a_shared_list_copies_it() {
    let inner = Value::list(vec![Value::Double(3.0)]);
    let path = Value::list(vec![Value::addr("n1"), Value::Double(3.0), inner.clone()]);
    let held = path.clone();
    let t = Tuple::new("t", vec![path]);
    let stored = t.values()[0].as_list().expect("a list");
    assert!(matches!(stored[1], Value::Int(3)), "{stored:?}");
    assert!(
        matches!(stored[2].as_list().expect("a list")[0], Value::Int(3)),
        "{stored:?}"
    );
    let kept = held.as_list().expect("a list");
    assert!(matches!(kept[1], Value::Double(d) if d == 3.0), "{held:?}");
    assert!(matches!(inner.as_list().expect("a list")[0], Value::Double(d) if d == 3.0));
    let ints = Value::list(vec![Value::Int(3)]);
    let spelled = Tuple::new(
        "t",
        vec![Value::list(vec![Value::addr("n1"), Value::Int(3), ints])],
    );
    assert_eq!(t.id(), spelled.id());
    assert_eq!(format!("{t:?}"), format!("{spelled:?}"));
    // A list that is canonical already is stored as it is: one slice, two
    // holders.
    let canonical = Value::list(vec![Value::addr("n1"), Value::Int(3)]);
    let t = Tuple::new("t", vec![canonical.clone()]);
    match (&t.values()[0], &canonical) {
        (Value::List(stored), Value::List(held)) => assert!(Arc::ptr_eq(stored, held)),
        _ => unreachable!("both are lists"),
    }
}

/// `total(@S,G,sum<B>) :- e(@S,G,K,B)` fed one group as `G = 3` and as
/// `G = 3.0`: run for run, the firing stream of the all-`Int` spelling.
#[test]
fn a_group_key_spelled_as_int_and_as_double_is_one_group() {
    const PROGRAM: &str = "materialize(e, infinity, infinity, keys(1,2,3)).\n\
         materialize(total, infinity, infinity, keys(1,2)).\n\
         t1 total(@S,G,sum<B>) :- e(@S,G,K,B).";
    let e = |g: Value, k: i64, b: i64| {
        Tuple::new(
            "e",
            vec![Value::addr("n1"), g, Value::Int(k), Value::Int(b)],
        )
    };
    // (insert?, group key spelled as a double?, K, B)
    let script = [
        (true, false, 1, 5),
        (true, true, 2, 7),
        (false, false, 1, 5),
        (true, true, 3, 1),
        (false, true, 2, 7),
        (false, false, 3, 1),
    ];
    let run = |mixed: bool| -> Vec<Vec<(String, bool, String)>> {
        let program = Arc::new(CompiledProgram::from_source(PROGRAM).expect("program compiles"));
        let mut engine = NodeEngine::new(program, EngineConfig::new("n1"));
        let mut runs = Vec::new();
        for (insert, as_double, k, b) in script {
            let g = match mixed && as_double {
                true => Value::Double(3.0),
                false => Value::Int(3),
            };
            match insert {
                true => engine.insert_base(e(g, k, b)).unwrap(),
                false => engine.delete_base(e(g, k, b)).unwrap(),
            }
            let out = engine.run();
            let firings = out.firings.iter().filter(|f| f.rule == "t1");
            runs.push(
                firings
                    .map(|f| (f.rule.as_str().to_string(), f.insert, f.head.to_string()))
                    .collect(),
            );
        }
        assert!(engine.relation("total").is_empty() && engine.relation("e").is_empty());
        runs
    };
    let (ints, mixed) = (run(false), run(true));
    assert_eq!(ints, mixed);
    // The stream the issue names: the second run replaces `total(n1,3,5)`.
    let retraction = ("t1".to_string(), false, "total(n1,3,5)".to_string());
    assert!(mixed[1].contains(&retraction), "{:?}", mixed[1]);
}
