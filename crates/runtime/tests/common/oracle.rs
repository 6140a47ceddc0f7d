//! The naive evaluator the slot-compiled join kernel is held to: a
//! name-keyed, plan-free, tuple-at-a-time fixpoint.
//!
//! It shares no evaluation code with the kernel (only the data model:
//! `Value` and its `==`, `literal_value` and [`Table`] storage): it walks
//! the parsed rule (`ndlog` AST) with `BTreeMap<String, Value>` bindings,
//! nested-loops over [`Table::iter`] in body order with no plan and no index
//! — a full scan per atom — and interprets expressions by operator and
//! builtin *name*. [`Oracle::derive_all`] re-derives every rule from scratch,
//! so it is correct by inspection for programs whose rules read base
//! relations only.
//!
//! Included by path: `proptest_slot_equivalence.rs` (step by step, firings
//! and tables) and `proptest_join_equivalence.rs` (the indexed fixpoint).

use ndlog::{AggregateFunc, BinOp, BodyElem, Expr, Predicate, Rule, Term, UnOp};
use nt_runtime::eval::literal_value;
use nt_runtime::{
    CompiledProgram, Derivation, NodeEngine, Table, TableSpec, Tuple, TupleId, Value, BASE_RULE,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
pub struct Derived {
    pub rule: String,
    /// The head, printed (`2` and `2.0` print alike, as they compare alike).
    pub head: String,
    pub inputs: Vec<TupleId>,
}

/// The base facts, in real [`Table`]s indexing every column (storage is not
/// under test here; the oracle only ever calls `iter`, `get`,
/// `add_derivation`, `remove_derivation`, and a test probes column 0).
pub struct Oracle {
    rules: Vec<Rule>,
    pub base: BTreeMap<String, Table>,
}

impl Oracle {
    /// The base relations `e`, `f` and `p` that `program` declares, empty.
    pub fn new(program: &CompiledProgram) -> Self {
        let base = ["e", "f", "p"]
            .iter()
            .filter_map(|r| program.catalog.schema(r))
            .map(|schema| {
                let spec = TableSpec::new(Arc::new(schema.clone()), 0..schema.arity);
                (schema.name.clone(), Table::new(Arc::new(spec)))
            })
            .collect();
        Oracle {
            rules: program.source.rules.clone(),
            base,
        }
    }

    /// Insert or delete one base fact at `n1`; `None` when no rule reads
    /// its relation.
    pub fn apply(&mut self, tuple: Tuple, insert: bool) -> Option<Tuple> {
        let table = self.base.get_mut(tuple.relation().as_str())?;
        if insert {
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
    pub fn derive_all(&self) -> BTreeMap<Derived, Tuple> {
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
pub fn unordered_witnesses(rule: &Rule) -> bool {
    rule.head
        .aggregate_column()
        .is_some_and(|(_, agg)| matches!(agg.func, AggregateFunc::Count | AggregateFunc::Sum))
}

/// Derived relations as `head -> derivations`, sorted.
pub type Tables = BTreeMap<String, BTreeSet<Derived>>;

pub fn engine_tables(engine: &NodeEngine, unordered: &BTreeSet<String>) -> Tables {
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
