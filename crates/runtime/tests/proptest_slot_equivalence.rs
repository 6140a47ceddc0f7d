//! Property: the slot-compiled join kernel derives, step by step, exactly
//! what a naive evaluator derives.
//!
//! The oracle (`common/oracle.rs`) shares no evaluation code with the
//! kernel (only the data model: `Value` and its `==`, `literal_value` and
//! `Table` storage): it walks the parsed rule (`ndlog` AST) with
//! `BTreeMap<String, Value>` bindings, nested-loops over `Table::iter` in
//! body order with no plan and no index, and interprets expressions by
//! operator and builtin *name*. After every insert or delete it re-derives
//! every rule from scratch; the difference to the previous step is what an
//! incremental engine must have fired.
//!
//! Programs are random subsets of a rule pool covering what the slot compiler
//! resolves: two- and three-atom joins, a variable repeated inside one atom,
//! constants and wildcards in body atoms, a constant in the head,
//! assignments (one to an already-bound variable, where an `Int`/`Double`
//! equal value passes and *replaces* the binding), filters over `f_member` /
//! `f_size` / `f_prepend`, `min` / `max` / `count` / `sum` heads (one
//! aggregating a variable an assignment binds, as `dx3 … L := f_size(P)`
//! does) and negated atoms. Every rule reads base relations only, so a
//! derivation's inputs are base tuples and its expected multiplicity is
//! known: a monotonic rule fires once per trigger position the inserted tuple
//! fills, everything else once.
//!
//! The engine must agree with the oracle on the firing multiset of every
//! step and on the sorted tables (tuples and their derivations) after it; a
//! stream that inserts facts and then retracts them all must return every
//! derived relation to empty. A text neither matches a stored address nor
//! finds one through an index (a `Str` arm put back in the columnar
//! `dict_code` fails all three tests). A derivation that went fires once:
//! indexing an aggregate or negation rule's inputs for the deletion cascade
//! again, which then retracts what the recomputation retracts too, fails all
//! three.

#[path = "common/oracle.rs"]
mod oracle;

use nt_runtime::{
    CompiledProgram, EngineConfig, NodeEngine, StepOutput, Tuple, TupleId, Value, BASE_RULE,
};
use oracle::{engine_tables, unordered_witnesses, Derived, Oracle, Tables};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `(materialize declaration, rule)`; every head relation is distinct and no
/// rule reads another's head. Base relations: `e(@S,A,B)`, `f(@S,B,C)` (last
/// column written as an `Int` or as the equal `Double`) and `p(@S,A,L)` (`L`
/// a list). `hb`'s head variable `B` is bound by such a last column in one
/// atom and by an always-`Int` column in the other, so which spelling the
/// join met first depends on which atom the delta triggered; the oracle has
/// no triggers, and agrees only because a tuple has one spelling.
const RULES: &[(&str, &str)] = &[
    ("", "j2 j2(@S,A,C) :- e(@S,A,B), f(@S,B,C)."),
    ("", "hb hb(@S,A,B) :- e(@S,A,B), f(@S,B,_)."),
    ("", "ch ch(@S,A,D) :- e(@S,A,B), f(@S,B,C), e(@S,C,D)."),
    ("", "rp rp(@S,A) :- e(@S,A,A), f(@S,A,_)."),
    ("", "kc kc(@S,A,7,\"tag\") :- e(@S,A,1), f(@S,A,_)."),
    (
        "",
        "st st(@S,A,C,D) :- e(@S,A,B), C := A * 2 + B, D := C % 3, D != 1.",
    ),
    ("", "ow ow(@S,A,B) :- e(@S,A,B), B := A + 0.0."),
    (
        "",
        "ls ls(@S,A,Q,N) :- p(@S,A,L), f_member(L, A) == 0, Q := f_prepend(A, L), \
         N := f_size(Q), N < 4.",
    ),
    ("", "ng ng(@S,A,B) :- e(@S,A,B), !f(@S,A,B)."),
    ("", "nw nw(@S,A) :- e(@S,A,B), f(@S,B,_), !p(@S,A,_)."),
    (
        "materialize(mn, infinity, infinity, keys(1)).",
        "mn mn(@S,min<B>) :- e(@S,A,B).",
    ),
    (
        "materialize(mx, infinity, infinity, keys(1)).",
        "mx mx(@S,max<B>) :- e(@S,A,B).",
    ),
    (
        "materialize(ct, infinity, infinity, keys(1)).",
        "ct ct(@S,count<*>) :- e(@S,A,B), B > 0.",
    ),
    (
        "materialize(sm, infinity, infinity, keys(1,2)).",
        "sm sm(@S,A,sum<C>) :- e(@S,A,B), C := B * 0.5.",
    ),
    (
        "materialize(su, infinity, infinity, keys(1,2)).",
        "su su(@S,A,sum<B>) :- e(@S,A,B).",
    ),
    (
        "materialize(hn, infinity, infinity, keys(1)).",
        "hn hn(@S,min<L>) :- p(@S,A,P), L := f_size(P).",
    ),
    (
        "materialize(hx, infinity, infinity, keys(1,2)).",
        "hx hx(@S,\"hops\",max<L>) :- p(@S,_,P), L := f_size(P) + 0.",
    ),
];

/// One operation: insert or delete one base fact.
#[derive(Debug, Clone, Copy)]
struct Op {
    insert: bool,
    relation: usize,
    a: i64,
    b: i64,
    b_double: bool,
}

fn fact(op: &Op) -> Tuple {
    let last = match op.relation {
        // A list whose membership of `a` and whose length both vary.
        2 => Value::List(
            (0..op.b)
                .map(|i| Value::Int((op.a + 1 + i * i) % 4))
                .collect(),
        ),
        _ if op.b_double => Value::Double(op.b as f64),
        _ => Value::Int(op.b),
    };
    Tuple::new(
        ["e", "f", "p"][op.relation],
        vec![Value::addr("n1"), Value::Int(op.a), last],
    )
}

// --------------------------------------------------------------------------
// the comparison
// --------------------------------------------------------------------------

/// One firing, as compared: polarity, derivation, and the head with its value
/// types (the printed head in `Derived` shows `2` for `Int(2)` and for
/// `Double(2.0)`; a head carries the first, whatever the rule computed).
type FiringKey = (bool, Derived, String);

fn engine_firings(out: &StepOutput, unordered: &BTreeSet<String>) -> BTreeMap<FiringKey, usize> {
    let mut firings = BTreeMap::new();
    for f in out.firings.iter().filter(|f| f.rule != BASE_RULE) {
        let mut inputs = f.inputs.to_vec();
        if unordered.contains(f.rule.as_str()) {
            inputs.sort();
        }
        let derived = Derived {
            rule: f.rule.as_str().to_string(),
            head: f.head.to_string(),
            inputs,
        };
        let typed = format!("{:?}", f.head.values());
        *firings.entry((f.insert, derived, typed)).or_default() += 1;
    }
    firings
}

fn check(rule_picks: &[usize], ops: &[Op]) -> Result<(), TestCaseError> {
    let picked: BTreeSet<usize> = rule_picks.iter().copied().collect();
    let source: String = picked
        .iter()
        .map(|&i| format!("{}\n{}\n", RULES[i].0, RULES[i].1))
        .collect();
    let program = Arc::new(CompiledProgram::from_source(&source).expect("pool rules compile"));
    let unordered: BTreeSet<String> = (program.source.rules.iter())
        .filter(|r| unordered_witnesses(r))
        .map(|r| r.name.clone())
        .collect();
    let monotonic = |rule: &str| {
        let rule = program.rule(rule).expect("derivations name pool rules");
        rule.aggregate.is_none() && !rule.has_negation()
    };

    let mut oracle = Oracle::new(&program);
    let mut engine = NodeEngine::new(program.clone(), EngineConfig::new("n1"));
    let mut before = oracle.derive_all();
    for (step, op) in ops.iter().enumerate() {
        let changed = oracle.apply(fact(op), op.insert);
        let after = oracle.derive_all();

        // What the step must fire: every derivation that came, once per
        // trigger position the inserted tuple fills (once for aggregate and
        // negation rules), and every derivation that went, once — by the
        // deletion cascade for a monotonic rule, by the recomputation for an
        // aggregate or negation rule.
        let mut expected: BTreeMap<FiringKey, usize> = BTreeMap::new();
        for (derived, head) in after.iter().filter(|(d, _)| !before.contains_key(*d)) {
            let fills = |id: &&TupleId| changed.as_ref().is_some_and(|t| t.id() == **id);
            let times = match monotonic(&derived.rule) {
                true => derived.inputs.iter().filter(fills).count(),
                false => 1,
            };
            prop_assert!(times > 0, "step {}: {:?} came from nowhere", step, derived);
            expected.insert(
                (true, derived.clone(), format!("{:?}", head.values())),
                times,
            );
        }
        for (derived, head) in before.iter().filter(|(d, _)| !after.contains_key(*d)) {
            expected.insert((false, derived.clone(), format!("{:?}", head.values())), 1);
        }
        let mut expected_tables = Tables::new();
        for derived in after.keys() {
            let at_head = expected_tables.entry(derived.head.clone()).or_default();
            at_head.insert(derived.clone());
        }

        let tuple = fact(op);
        match op.insert {
            true => engine.insert_base(tuple).unwrap(),
            false => engine.delete_base(tuple).unwrap(),
        }
        let out = engine.run();
        prop_assert_eq!(
            engine_firings(&out, &unordered),
            expected.clone(),
            "firings of step {} ({:?})\n{}",
            step,
            op,
            source
        );
        prop_assert_eq!(
            engine_tables(&engine, &unordered),
            expected_tables.clone(),
            "tables after step {} ({:?})\n{}",
            step,
            op,
            source
        );
        // A text never matches an address.
        for table in engine.database().tables() {
            prop_assert!(table.iter().all(|r| !r.matches(0, &Value::str("n1"))));
        }
        // Nor does it find one through an index.
        for table in oracle.base.values() {
            prop_assert_eq!(table.probe(&[(0, Value::str("n1"))]).count(), 0);
            prop_assert_eq!(table.probe(&[(0, Value::addr("n1"))]).count(), table.len());
        }
        before = after;
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<bool>(), 0usize..3, 0i64..4, 0i64..4, any::<bool>()).prop_map(
        |(insert, relation, a, b, b_double)| Op {
            insert,
            relation,
            a,
            b,
            b_double,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random programs × random insert/delete streams: every configuration
    /// fires and stores, step by step, what the oracle derives.
    #[test]
    fn slot_kernel_matches_the_naive_evaluator(
        rule_picks in proptest::collection::vec(0usize..RULES.len(), 1..4),
        ops in proptest::collection::vec(op_strategy(), 1..32),
    ) {
        check(&rule_picks, &ops)?;
    }

    /// Inserts only bias a stream towards large groups and long posting
    /// lists; retracting everything afterwards must empty every derived
    /// relation again.
    #[test]
    fn full_retraction_returns_to_the_empty_state(
        rule_picks in proptest::collection::vec(0usize..RULES.len(), 1..4),
        facts in proptest::collection::vec(op_strategy(), 1..16),
    ) {
        let mut ops: Vec<Op> = facts.iter().map(|op| Op { insert: true, ..*op }).collect();
        ops.extend(facts.iter().map(|op| Op { insert: false, ..*op }));
        check(&rule_picks, &ops)?;
    }
}

/// Every pool rule alone, over one fixed stream that inserts the whole fact
/// space and then retracts every other fact: no rule can hide behind the
/// random subsets.
#[test]
fn every_pool_rule_matches_the_oracle_on_a_dense_stream() {
    let mut ops = Vec::new();
    for insert in [true, false] {
        for relation in 0..3 {
            for a in 0..4 {
                for b in (0..4).filter(|b| insert || (a + b) % 2 == 0) {
                    let b_double = (a + b) % 3 == 0;
                    ops.push(Op {
                        insert,
                        relation,
                        a,
                        b,
                        b_double,
                    });
                }
            }
        }
    }
    for (index, (_, rule)) in RULES.iter().enumerate() {
        check(&[index], &ops).unwrap_or_else(|e| panic!("rule {rule}: {}", e.0));
    }
}
