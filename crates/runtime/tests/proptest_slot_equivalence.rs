//! Property: the slot-compiled join kernel derives, step by step, exactly
//! what a naive evaluator derives.
//!
//! The oracle lives in this file and shares no evaluation code with the
//! kernel (only the data model: `Value` and its `==`, `literal_value` and
//! [`Table`] storage): it walks the parsed rule (`ndlog` AST) with
//! `BTreeMap<String, Value>` bindings, nested-loops over [`Table::iter`] in
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
//! Each engine configuration — join indexes on and off — must agree with the
//! oracle on the firing multiset of every step and
//! on the sorted tables (tuples and their derivations) after it. A text
//! neither matches a stored address nor finds one through an index (a `Str`
//! arm put back in the columnar `dict_code` and the row store's residual
//! filter fails all three tests). A derivation that went fires once: indexing
//! an aggregate or negation rule's inputs for the deletion cascade again,
//! which then retracts what the recomputation retracts too, fails all three.

use ndlog::{AggregateFunc, BinOp, BodyElem, Expr, Predicate, Rule, Term, UnOp};
use nt_runtime::eval::literal_value;
use nt_runtime::{
    CompiledProgram, Derivation, EngineConfig, NodeEngine, StepOutput, Table, Tuple, TupleId,
    Value, BASE_RULE,
};
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
// the oracle: a name-keyed, plan-free, tuple-at-a-time evaluator
// --------------------------------------------------------------------------

type Env = BTreeMap<String, Value>;

/// Expressions, by operator and builtin name; `None` is an evaluation error.
fn eval(expr: &Expr, env: &Env) -> Option<Value> {
    Some(match expr {
        Expr::Var(name) => env.get(name)?.clone(),
        Expr::Const(lit) => literal_value(lit),
        Expr::Unary { op, expr } => match (op, eval(expr, env)?) {
            (UnOp::Neg, Value::Int(i)) => Value::Int(-i),
            (UnOp::Neg, Value::Double(d)) => Value::Double(-d),
            (UnOp::Neg, _) => return None,
            (UnOp::Not, v) => Value::Bool(!v.truthy()),
        },
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (eval(lhs, env)?, eval(rhs, env)?);
            match op {
                BinOp::Eq => Value::Bool(l == r),
                BinOp::Ne => Value::Bool(l != r),
                BinOp::Lt => Value::Bool(l < r),
                BinOp::Le => Value::Bool(l <= r),
                BinOp::Gt => Value::Bool(l > r),
                BinOp::Ge => Value::Bool(l >= r),
                BinOp::And => Value::Bool(l.truthy() && r.truthy()),
                BinOp::Or => Value::Bool(l.truthy() || r.truthy()),
                arith => match (&l, &r) {
                    (Value::Int(a), Value::Int(b)) => Value::Int(match arith {
                        BinOp::Add => a.wrapping_add(*b),
                        BinOp::Sub => a.wrapping_sub(*b),
                        BinOp::Mul => a.wrapping_mul(*b),
                        BinOp::Div => a.checked_div(*b)?,
                        _ => a.checked_rem(*b)?,
                    }),
                    _ => {
                        let (a, b) = (l.as_f64()?, r.as_f64()?);
                        Value::Double(match arith {
                            BinOp::Add => a + b,
                            BinOp::Sub => a - b,
                            BinOp::Mul => a * b,
                            BinOp::Div if b == 0.0 => return None,
                            BinOp::Div => a / b,
                            _ => a % b,
                        })
                    }
                },
            }
        }
        Expr::Call { func, args } => {
            let args: Vec<Value> = args.iter().map(|a| eval(a, env)).collect::<Option<_>>()?;
            match (func.as_str(), args.as_slice()) {
                ("f_member", [list, x]) => Value::Int(list.as_list()?.contains(x) as i64),
                ("f_size", [list]) => Value::Int(list.as_list()?.len() as i64),
                ("f_prepend", [x, list]) => {
                    let mut out = vec![x.clone()];
                    out.extend(list.as_list()?.iter().cloned());
                    Value::list(out)
                }
                _ => return None,
            }
        }
    })
}

/// Match one tuple against a body atom, extending `env`.
fn match_atom(atom: &Predicate, tuple: &Tuple, env: &mut Env) -> bool {
    atom.relation == tuple.relation().as_str()
        && atom.terms.len() == tuple.values().len()
        && atom
            .terms
            .iter()
            .zip(tuple.values())
            .all(|(term, value)| match term {
                Term::Wildcard => true,
                Term::Variable { name, .. } => match env.get(name) {
                    Some(bound) => bound == value,
                    None => {
                        env.insert(name.clone(), value.clone());
                        true
                    }
                },
                Term::Constant { value: lit, .. } => literal_value(lit) == *value,
                Term::Aggregate(_) => false,
            })
}

/// One derivation: which rule, which head, which body tuples (by id, in body
/// order — as a set for `count` / `sum`, whose witness order is probe order).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Derived {
    rule: String,
    /// The head, printed (`2` and `2.0` print alike, as they compare alike).
    head: String,
    inputs: Vec<TupleId>,
}

/// The base facts, in real [`Table`]s (storage is not under test here; the
/// oracle only ever calls `iter`, `get`, `add_derivation`, `remove_derivation`).
struct Oracle {
    rules: Vec<Rule>,
    base: BTreeMap<String, Table>,
}

impl Oracle {
    fn new(program: &CompiledProgram) -> Self {
        let base = ["e", "f", "p"]
            .iter()
            .filter_map(|r| program.catalog.schema(r))
            .map(|schema| (schema.name.clone(), Table::new(schema.clone())))
            .collect();
        Oracle {
            rules: program.source.rules.clone(),
            base,
        }
    }

    /// Apply one base operation; returns the tuple.
    fn apply(&mut self, op: &Op) -> Option<Tuple> {
        let tuple = fact(op);
        let table = self.base.get_mut(tuple.relation().as_str())?;
        if op.insert {
            table.add_derivation(&tuple, Derivation::base("n1"));
        } else {
            table.remove_derivation(&tuple, &Derivation::base("n1"));
        }
        Some(tuple)
    }

    fn tuples(&self, relation: &str) -> Vec<Tuple> {
        self.base
            .get(relation)
            .map(|t| t.iter().map(|r| r.to_tuple()).collect())
            .unwrap_or_default()
    }

    /// Every way the body of `rule` holds: nested loops over the positive
    /// atoms in body order, then assignments and filters in body order, then
    /// the negated atoms.
    fn body_matches(&self, rule: &Rule) -> Vec<(Env, Vec<Tuple>)> {
        let mut partial: Vec<(Env, Vec<Tuple>)> = vec![(Env::new(), Vec::new())];
        for atom in rule.positive_atoms() {
            let mut extended = Vec::new();
            for (env, inputs) in &partial {
                for tuple in self.tuples(&atom.relation) {
                    let mut env = env.clone();
                    if match_atom(atom, &tuple, &mut env) {
                        let mut inputs = inputs.clone();
                        inputs.push(tuple);
                        extended.push((env, inputs));
                    }
                }
            }
            partial = extended;
        }
        partial.retain_mut(|(env, _)| {
            rule.body.iter().all(|elem| match elem {
                BodyElem::Assign { var, expr } => match eval(expr, env) {
                    // An assignment to a bound variable must agree with it —
                    // and then replaces it.
                    Some(value) if env.get(var).is_none_or(|bound| *bound == value) => {
                        env.insert(var.clone(), value);
                        true
                    }
                    _ => false,
                },
                BodyElem::Filter(expr) => eval(expr, env).is_some_and(|v| v.truthy()),
                BodyElem::Atom(_) => true,
            }) && !rule.body_atoms().filter(|a| a.negated).any(|neg| {
                self.tuples(&neg.relation)
                    .iter()
                    .any(|t| match_atom(neg, t, &mut env.clone()))
            })
        });
        partial
    }

    /// All derivations of all rules, from scratch: `Derived -> head tuple`.
    fn derive_all(&self) -> BTreeMap<Derived, Tuple> {
        let mut all = BTreeMap::new();
        for rule in &self.rules {
            let matches = self.body_matches(rule);
            let head_value = |env: &Env, term: &Term, agg: Option<&Value>| match term {
                Term::Variable { name, .. } => env[name].clone(),
                Term::Constant { value, .. } => literal_value(value),
                Term::Aggregate(_) => agg.expect("aggregate value").clone(),
                Term::Wildcard => unreachable!("heads carry no wildcards"),
            };
            let mut emit = |env: &Env, agg: Option<&Value>, mut inputs: Vec<TupleId>| {
                let values = rule.head.terms.iter().map(|t| head_value(env, t, agg));
                let head = Tuple::new(rule.head.relation.as_str(), values.collect::<Vec<_>>());
                if agg.is_some() && unordered_witnesses(rule) {
                    inputs.sort();
                }
                let derived = Derived {
                    rule: rule.name.clone(),
                    head: head.to_string(),
                    inputs,
                };
                all.insert(derived, head);
            };
            let Some((agg_col, agg)) = rule.head.aggregate_column() else {
                for (env, inputs) in &matches {
                    emit(env, None, inputs.iter().map(Tuple::id).collect());
                }
                continue;
            };
            // Aggregates: group by every other head term, then fold.
            let mut groups: BTreeMap<Vec<Value>, Vec<(Value, &Env, &Tuple)>> = BTreeMap::new();
            for (env, inputs) in &matches {
                let key = (rule.head.terms.iter().enumerate())
                    .filter(|(col, _)| *col != agg_col)
                    .map(|(_, term)| head_value(env, term, None))
                    .collect();
                let value = match agg.var.as_str() {
                    "*" => Value::Int(1),
                    var => env[var].clone(),
                };
                groups
                    .entry(key)
                    .or_default()
                    .push((value, env, &inputs[0]));
            }
            for members in groups.values() {
                let by_id = |a: &&(Value, &Env, &Tuple), b: &&(Value, &Env, &Tuple)| {
                    a.2.id().cmp(&b.2.id())
                };
                let all_ids = || members.iter().map(|m| m.2.id()).collect::<Vec<_>>();
                let (value, witnesses) = match agg.func {
                    // Ties go to the smaller tuple id, for `max` too.
                    AggregateFunc::Min => {
                        let m = (members.iter())
                            .min_by(|a, b| a.0.cmp(&b.0).then_with(|| by_id(a, b)))
                            .expect("groups are non-empty");
                        (m.0.clone(), vec![m.2.id()])
                    }
                    AggregateFunc::Max => {
                        let m = (members.iter())
                            .max_by(|a, b| a.0.cmp(&b.0).then_with(|| by_id(b, a)))
                            .expect("groups are non-empty");
                        (m.0.clone(), vec![m.2.id()])
                    }
                    AggregateFunc::Count => (Value::Int(members.len() as i64), all_ids()),
                    // Exact over integers; a double as soon as one is summed.
                    // (Test values are small multiples of 0.5: any order of
                    // addition gives the same double.)
                    AggregateFunc::Sum => {
                        let ints: i64 = members.iter().filter_map(|m| m.0.as_int()).sum();
                        let doubles: Vec<f64> = (members.iter())
                            .filter_map(|m| match m.0 {
                                Value::Double(d) => Some(d),
                                _ => None,
                            })
                            .collect();
                        let sum = match doubles.is_empty() {
                            true => Value::Int(ints),
                            false => Value::Double(ints as f64 + doubles.iter().sum::<f64>()),
                        };
                        (sum, all_ids())
                    }
                };
                emit(members[0].1, Some(&value), witnesses);
            }
        }
        all
    }
}

/// `count` / `sum` derivations list every contribution in probe order, which
/// is insertion order through an index and key order through a scan: compare
/// them as sets.
fn unordered_witnesses(rule: &Rule) -> bool {
    rule.head
        .aggregate_column()
        .is_some_and(|(_, agg)| matches!(agg.func, AggregateFunc::Count | AggregateFunc::Sum))
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

/// Derived relations as `head -> derivations`, sorted.
type Tables = BTreeMap<String, BTreeSet<Derived>>;

fn engine_tables(engine: &NodeEngine, unordered: &BTreeSet<String>) -> Tables {
    let mut tables = Tables::new();
    for table in engine.database().tables() {
        for stored in table.iter() {
            for d in stored.derivations().iter().filter(|d| d.rule != BASE_RULE) {
                let mut inputs = d.inputs.to_vec();
                if unordered.contains(d.rule.as_str()) {
                    inputs.sort();
                }
                let head = stored.to_tuple().to_string();
                tables.entry(head.clone()).or_default().insert(Derived {
                    rule: d.rule.as_str().to_string(),
                    head,
                    inputs,
                });
            }
        }
    }
    tables
}

fn configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("indexed", EngineConfig::new("n1")),
        ("scan", EngineConfig::new("n1").without_indexes()),
    ]
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
    let mut engines: Vec<(&str, NodeEngine)> = configs()
        .into_iter()
        .map(|(name, config)| (name, NodeEngine::new(program.clone(), config)))
        .collect();
    let mut before = oracle.derive_all();
    for (step, op) in ops.iter().enumerate() {
        let changed = oracle.apply(op);
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

        for (name, engine) in &mut engines {
            let tuple = fact(op);
            match op.insert {
                true => engine.insert_base(tuple).unwrap(),
                false => engine.delete_base(tuple).unwrap(),
            }
            let out = engine.run();
            prop_assert_eq!(
                engine_firings(&out, &unordered),
                expected.clone(),
                "firings of step {} ({:?}) under {}\n{}",
                step,
                op,
                name,
                source
            );
            prop_assert_eq!(
                engine_tables(engine, &unordered),
                expected_tables.clone(),
                "tables after step {} ({:?}) under {}\n{}",
                step,
                op,
                name,
                source
            );
            // A text never matches an address.
            for table in engine.database().tables() {
                prop_assert!(table.iter().all(|r| !r.matches(0, &Value::str("n1"))));
            }
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
