//! Slot programs and their interpreter: expression evaluation, atom matching
//! and builtin function implementations.
//!
//! A rule is lowered once, by [`crate::compile`], to a [`SlotProgram`]: every
//! variable is a dense slot index, every term is
//! `Wild | Slot | Const | Agg`, every constant is already a [`Value`] and
//! every builtin call is a [`BuiltinFn`] tag. Evaluation runs against a
//! [`Frame`] — one `Option<Value>` per slot plus an undo trail — so matching a
//! stored tuple, applying an assignment or rejecting a candidate never touches
//! a variable name. This module is the only expression interpreter in the
//! tree: the engine's join kernel (module `kernel`) and the legacy-application
//! proxy's `maybe` rules (crate `bgp`) both walk slot programs through it.

use crate::catalog::fits;
use crate::error::{Result, RuntimeError};
use crate::store::TupleRef;
use crate::tuple::Tuple;
use crate::value::{StableHasher, Sym, Value};
use ndlog::builtins::BuiltinFn;
use ndlog::{BinOp, Literal, UnOp};
use nt_intern::heap::{Census, Heap};
use std::borrow::Cow;
use std::sync::Arc;

/// Convert an AST literal to a runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(v) => Value::Int(*v),
        Literal::Double(v) => Value::Double(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Infinity => Value::Infinity,
    }
}

// --------------------------------------------------------------------------
// the frame
// --------------------------------------------------------------------------

/// The variable store of one rule evaluation: one slot per variable of the
/// rule's [`SlotProgram`], all empty after [`Frame::reset`]. Every write is
/// recorded on a trail, so a join level (or a failed match) restores the
/// frame with [`Frame::undo_to`] instead of cloning it. A frame carries no
/// borrow and is reused across tasks; each engine owns its own.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    slots: Vec<Option<Value>>,
    /// `(slot, previous content)` per write, oldest first.
    trail: Vec<(usize, Option<Value>)>,
}

impl Frame {
    /// Charge the slot and trail buffers, and what the values left in them
    /// hold, to `owner`.
    pub fn heap(&self, census: &mut Census, owner: &'static str) {
        census.add(owner, Heap::vec(&self.slots) + Heap::vec(&self.trail));
        let held = self.slots.iter().chain(self.trail.iter().map(|(_, v)| v));
        held.flatten().for_each(|v| v.heap(census, owner));
    }

    /// An empty frame; [`Frame::reset`] sizes it for a rule.
    pub fn new() -> Self {
        Frame::default()
    }

    /// Empty every slot and size the frame for a program with `slots`
    /// variables.
    pub fn reset(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize(slots, None);
        self.trail.clear();
    }

    /// The value bound to `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&Value> {
        self.slots[slot].as_ref()
    }

    /// Bind (or overwrite) `slot`, remembering what it held.
    pub fn set(&mut self, slot: usize, value: Value) {
        let old = self.slots[slot].replace(value);
        self.trail.push((slot, old));
    }

    /// A point on the trail to return to with [`Frame::undo_to`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Revert every write made since `mark`, newest first.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (slot, old) = self.trail.pop().expect("trail is longer than the mark");
            self.slots[slot] = old;
        }
    }
}

// --------------------------------------------------------------------------
// expressions
// --------------------------------------------------------------------------

/// The largest arity in [`ndlog::builtins::BUILTINS`] (the test that
/// evaluates every row checks it); a call's arguments fit a fixed array.
const MAX_ARITY: usize = 3;

/// Apply `func` to exactly as many arguments as its row of
/// [`ndlog::builtins::BUILTINS`] says (the caller checks the count).
/// Arguments arrive by reference; only what ends up in the result is cloned.
fn call(func: BuiltinFn, args: &[Cow<'_, Value>]) -> Result<Value> {
    let list_arg = |v| list_arg(func, v);
    match func {
        BuiltinFn::InitList => Ok(Value::list([args[0].as_ref().clone()])),
        BuiltinFn::InitList2 => Ok(Value::list([
            args[0].as_ref().clone(),
            args[1].as_ref().clone(),
        ])),
        // Each builds its list in one exact-size allocation.
        BuiltinFn::Concat => {
            fn items(v: &Value) -> &[Value] {
                match v {
                    Value::List(l) => l,
                    v => std::slice::from_ref(v),
                }
            }
            let (head, tail) = (items(args[0].as_ref()), items(args[1].as_ref()));
            Ok(Value::List(head.iter().chain(tail).cloned().collect()))
        }
        BuiltinFn::Append => {
            let l = list_arg(&args[0])?.iter().cloned();
            Ok(Value::List(l.chain([args[1].as_ref().clone()]).collect()))
        }
        BuiltinFn::Prepend => {
            let l = list_arg(&args[1])?.iter().cloned();
            Ok(Value::List(
                [args[0].as_ref().clone()].into_iter().chain(l).collect(),
            ))
        }
        BuiltinFn::Member => {
            let l = list_arg(&args[0])?;
            Ok(Value::Int(l.contains(args[1].as_ref()) as i64))
        }
        BuiltinFn::Last => list_arg(&args[0])?
            .last()
            .cloned()
            .ok_or_else(|| RuntimeError::eval("f_last of empty list")),
        BuiltinFn::First => list_arg(&args[0])?
            .first()
            .cloned()
            .ok_or_else(|| RuntimeError::eval("f_first of empty list")),
        BuiltinFn::Size => Ok(Value::Int(list_arg(&args[0])?.len() as i64)),
        BuiltinFn::IsExtend => Ok(Value::Int(is_extend(&args[0], &args[1], &args[2]) as i64)),
        BuiltinFn::Min => Ok(std::cmp::min(&args[0], &args[1]).as_ref().clone()),
        BuiltinFn::Max => Ok(std::cmp::max(&args[0], &args[1]).as_ref().clone()),
        BuiltinFn::Abs => match args[0].as_ref() {
            Value::Int(v) => Ok(Value::Int(v.abs())),
            Value::Double(v) => Ok(Value::Double(v.abs())),
            other => Err(RuntimeError::eval(format!("f_abs of non-number {other}"))),
        },
        BuiltinFn::Sha1 => {
            let mut h = StableHasher::new();
            args[0].stable_hash_into(&mut h);
            Ok(Value::Id(h.finish()))
        }
        BuiltinFn::ToStr => Ok(Value::Str(args[0].to_string())),
    }
}

fn list_arg(func: BuiltinFn, v: &Value) -> Result<&[Value]> {
    v.as_list().ok_or_else(|| {
        RuntimeError::eval(format!("{}: expected a list, got {v}", func.info().name))
    })
}

/// An expression over slots: the right-hand side of an assignment or a
/// selection predicate, with variables resolved to slot indices, constants to
/// values and calls to [`BuiltinFn`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotExpr {
    /// The variable held in a slot.
    Slot(usize),
    /// A constant.
    Const(Value),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<SlotExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<SlotExpr>,
        /// Right operand.
        rhs: Box<SlotExpr>,
    },
    /// Builtin call.
    Call {
        /// The resolved builtin.
        func: BuiltinFn,
        /// Argument expressions.
        args: Vec<SlotExpr>,
    },
    /// A call to a function no builtin answers to. The validator rejects
    /// these, so only a rule compiled without validation reaches here;
    /// evaluating it is an error, as calling an unknown name always was.
    UnknownCall(String),
}

impl SlotExpr {
    /// Evaluate against `frame`. A slot or constant is returned by
    /// reference; only computed results are owned.
    pub fn eval<'a>(&'a self, frame: &'a Frame) -> Result<Cow<'a, Value>> {
        match self {
            SlotExpr::Slot(slot) => frame
                .get(*slot)
                .map(Cow::Borrowed)
                .ok_or_else(|| RuntimeError::eval(format!("unbound variable (slot {slot})"))),
            SlotExpr::Const(value) => Ok(Cow::Borrowed(value)),
            SlotExpr::Unary { op, expr } => {
                let v = expr.eval(frame)?;
                match op {
                    UnOp::Neg => match v.as_ref() {
                        Value::Int(i) => Ok(Cow::Owned(Value::Int(-i))),
                        Value::Double(d) => Ok(Cow::Owned(Value::Double(-d))),
                        other => Err(RuntimeError::eval(format!("cannot negate {other}"))),
                    },
                    UnOp::Not => Ok(Cow::Owned(Value::Bool(!v.truthy()))),
                }
            }
            SlotExpr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(frame)?;
                let r = rhs.eval(frame)?;
                eval_binop(*op, &l, &r).map(Cow::Owned)
            }
            SlotExpr::Call { func, args } => {
                let info = func.info();
                if args.len() != info.arity {
                    return Err(RuntimeError::eval(format!(
                        "builtin `{}` expects {} argument(s), got {}",
                        info.name,
                        info.arity,
                        args.len()
                    )));
                }
                const UNSET: Cow<'static, Value> = Cow::Borrowed(&Value::Infinity);
                let mut vals: [Cow<'a, Value>; MAX_ARITY] = [UNSET; MAX_ARITY];
                for (val, arg) in vals.iter_mut().zip(args) {
                    *val = arg.eval(frame)?;
                }
                call(*func, &vals[..args.len()]).map(Cow::Owned)
            }
            SlotExpr::UnknownCall(name) => {
                Err(RuntimeError::eval(format!("unknown builtin `{name}`")))
            }
        }
    }

    /// Evaluate and coerce the result to a boolean (for filters).
    pub fn holds(&self, frame: &Frame) -> Result<bool> {
        Ok(self.eval(frame)?.truthy())
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => arith(op, l, r),
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt => Ok(Value::Bool(l < r)),
        Le => Ok(Value::Bool(l <= r)),
        Gt => Ok(Value::Bool(l > r)),
        Ge => Ok(Value::Bool(l >= r)),
        And => Ok(Value::Bool(l.truthy() && r.truthy())),
        Or => Ok(Value::Bool(l.truthy() || r.truthy())),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Infinity is absorbing for addition (cost arithmetic).
    if matches!(op, BinOp::Add) && (matches!(l, Value::Infinity) || matches!(r, Value::Infinity)) {
        return Ok(Value::Infinity);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                BinOp::Add => a.wrapping_add(*b),
                BinOp::Sub => a.wrapping_sub(*b),
                BinOp::Mul => a.wrapping_mul(*b),
                BinOp::Div => {
                    if *b == 0 {
                        return Err(RuntimeError::eval("division by zero"));
                    }
                    a / b
                }
                BinOp::Mod => {
                    if *b == 0 {
                        return Err(RuntimeError::eval("modulo by zero"));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Int(v))
        }
        (Value::Str(a), Value::Str(b)) if op == BinOp::Add => Ok(Value::Str(format!("{a}{b}"))),
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(RuntimeError::eval(format!(
                        "cannot apply `{}` to {l} and {r}",
                        op.symbol()
                    )))
                }
            };
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(RuntimeError::eval("division by zero"));
                    }
                    a / b
                }
                BinOp::Mod => a % b,
                _ => unreachable!(),
            };
            Ok(Value::Double(v))
        }
    }
}

/// `f_isExtend(route2, route1, n)`: true when `route2` is `route1` with the
/// node `n` prepended — the check the paper's `maybe` rule `br1` uses to infer
/// that an outgoing BGP advertisement was caused by an incoming one.
pub fn is_extend(route2: &Value, route1: &Value, node: &Value) -> bool {
    match (route2.as_list(), route1.as_list()) {
        (Some(r2), Some(r1)) => r2.len() == r1.len() + 1 && &r2[0] == node && &r2[1..] == r1,
        _ => false,
    }
}

// --------------------------------------------------------------------------
// atoms, steps and whole rules
// --------------------------------------------------------------------------

/// One argument of a body or head atom after slot resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotTerm {
    /// `_`: matches anything, binds nothing.
    Wild,
    /// A variable, by slot index.
    Slot(usize),
    /// A constant from the rule text.
    Const(Value),
    /// The aggregate column of a head (`min<C>`); never matches in a body.
    Agg,
}

impl SlotTerm {
    /// The value a head term takes from `frame` and the aggregate column.
    fn head_value<'v>(&'v self, frame: &'v Frame, agg: Option<&'v Value>) -> Option<&'v Value> {
        match self {
            SlotTerm::Slot(slot) => frame.get(*slot),
            SlotTerm::Const(value) => Some(value),
            SlotTerm::Agg => agg,
            SlotTerm::Wild => None,
        }
    }
}

/// An atom whose relation is interned and whose terms are slot-resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotAtom {
    /// The relation the atom ranges over.
    pub relation: Sym,
    /// One term per column.
    pub terms: Vec<SlotTerm>,
}

/// What atom matching reads of a tuple: implemented by an owned [`Tuple`]
/// (the trigger delta, a proxy observation) and by a borrowed stored
/// [`TupleRef`] (a probe candidate, matched column by column without being
/// materialized).
pub trait Row {
    /// The relation the tuple belongs to.
    fn relation(&self) -> Sym;
    /// Number of attributes.
    fn arity(&self) -> usize;
    /// One attribute as an owned value.
    fn value(&self, col: usize) -> Value;
    /// Whether one attribute `==` `v`.
    fn matches(&self, col: usize, v: &Value) -> bool;
}

impl Row for Tuple {
    fn relation(&self) -> Sym {
        Tuple::relation(self)
    }
    fn arity(&self) -> usize {
        Tuple::arity(self)
    }
    fn value(&self, col: usize) -> Value {
        self.values()[col].clone()
    }
    fn matches(&self, col: usize, v: &Value) -> bool {
        self.values()[col] == *v
    }
}

impl Row for TupleRef<'_> {
    fn relation(&self) -> Sym {
        TupleRef::relation(self)
    }
    fn arity(&self) -> usize {
        TupleRef::arity(self)
    }
    fn value(&self, col: usize) -> Value {
        TupleRef::value(self, col)
    }
    fn matches(&self, col: usize, v: &Value) -> bool {
        TupleRef::matches(self, col, v)
    }
}

impl SlotAtom {
    /// Match `row` against the atom: a bound slot or a constant must agree
    /// with the column, an empty slot is bound to it. On a mismatch the frame
    /// is restored and `false` returned; on success the new bindings stay on
    /// the trail for the caller to undo.
    pub fn match_row(&self, row: &impl Row, frame: &mut Frame) -> bool {
        if row.relation() != self.relation || row.arity() != self.terms.len() {
            return false;
        }
        let mark = frame.mark();
        for (col, term) in self.terms.iter().enumerate() {
            let ok = match term {
                SlotTerm::Wild => true,
                SlotTerm::Slot(slot) => match frame.get(*slot) {
                    Some(bound) => row.matches(col, bound),
                    None => {
                        frame.set(*slot, row.value(col));
                        true
                    }
                },
                SlotTerm::Const(value) => row.matches(col, value),
                SlotTerm::Agg => false,
            };
            if !ok {
                frame.undo_to(mark);
                return false;
            }
        }
        true
    }

    /// Construct a tuple of this (head) atom from the frame. `agg` supplies
    /// the aggregate column. `None` when a slot is empty or a value other
    /// than an address lands in one of `addr_cols`
    /// ([`crate::RelationSchema::addr_cols`]).
    pub fn build(&self, frame: &Frame, addr_cols: u64, agg: Option<&Value>) -> Option<Tuple> {
        let value = |term| SlotTerm::head_value(term, frame, agg);
        if !self.terms.iter().all(|term| value(term).is_some()) {
            return None;
        }
        // Every term has a value: they collect into the tuple's one slice.
        let values = (self.terms.iter()).map(|term| value(term).expect("every term has a value"));
        let values: Arc<[Value]> = values.cloned().collect();
        fits(addr_cols, &values).then(|| Tuple::new(self.relation, values))
    }
}

/// An assignment or filter of a rule body, over slots.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotStep {
    /// `Var := Expr`.
    Assign {
        /// The assigned variable's slot.
        slot: usize,
        /// The value expression.
        expr: SlotExpr,
    },
    /// A selection predicate.
    Filter(SlotExpr),
}

/// One rule lowered to slots (built by `SlotProgram::compile` in
/// [`crate::compile`]): the slot table plus the head, the body atoms and the
/// assignment/filter steps expressed over it.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProgram {
    /// The slot table: `names[i]` is the variable slot `i` stands for. One
    /// slot per distinct variable across atoms, steps and head.
    pub names: Vec<String>,
    /// The head atom.
    pub head: SlotAtom,
    /// Positive body atoms, in body order.
    pub positive: Vec<SlotAtom>,
    /// Negated body atoms, in body order.
    pub negated: Vec<SlotAtom>,
    /// Assignments and filters, in body order.
    pub steps: Vec<SlotStep>,
}

impl SlotProgram {
    /// Number of slots a [`Frame`] for this program needs.
    pub fn slot_count(&self) -> usize {
        self.names.len()
    }

    /// The slot of a variable, if the rule mentions it.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Apply the assignments and filters in place. An assignment to a bound
    /// slot must agree with it (and then replaces it, so the assigned
    /// representation is what a head carries). `false` when a filter rejects
    /// or an expression fails; the caller undoes the writes either way.
    pub fn apply_steps(&self, frame: &mut Frame) -> bool {
        for step in &self.steps {
            match step {
                SlotStep::Assign { slot, expr } => {
                    let Ok(value) = expr.eval(frame).map(Cow::into_owned) else {
                        return false;
                    };
                    if frame.get(*slot).is_some_and(|bound| *bound != value) {
                        return false;
                    }
                    frame.set(*slot, value);
                }
                SlotStep::Filter(expr) => {
                    if !matches!(expr.holds(frame), Ok(true)) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog::parse_rule;

    /// Compile `expr_src` through the slot compiler (inside a dummy rule, to
    /// reuse the parser) and evaluate it with the named variables bound.
    fn eval_str(expr_src: &str, vars: &[(&str, Value)]) -> Result<Value> {
        let rule = parse_rule(&format!("r1 out(@A,X) :- in(@A), X := {expr_src}."))
            .expect("test expression parses");
        let program = SlotProgram::compile(&rule);
        let mut frame = Frame::new();
        frame.reset(program.slot_count());
        for (name, value) in vars {
            if let Some(slot) = program.slot_of(name) {
                frame.set(slot, value.clone());
            }
        }
        match &program.steps[0] {
            SlotStep::Assign { expr, .. } => expr.eval(&frame).map(Cow::into_owned),
            SlotStep::Filter(_) => unreachable!(),
        }
    }

    #[test]
    fn arithmetic_and_precedence() {
        let b = [("A", Value::Int(2)), ("B", Value::Int(5))];
        assert_eq!(eval_str("A + B * 2", &b).unwrap(), Value::Int(12));
        assert_eq!(eval_str("(A + B) * 2", &b).unwrap(), Value::Int(14));
        assert_eq!(eval_str("B % A", &b).unwrap(), Value::Int(1));
        assert_eq!(eval_str("B / A", &b).unwrap(), Value::Int(2));
    }

    #[test]
    fn mixed_int_double_arithmetic() {
        let b = [("A", Value::Int(2)), ("B", Value::Double(0.5))];
        assert_eq!(eval_str("A + B", &b).unwrap(), Value::Double(2.5));
    }

    #[test]
    fn infinity_absorbs_addition() {
        let b = [("A", Value::Infinity), ("B", Value::Int(3))];
        assert_eq!(eval_str("A + B", &b).unwrap(), Value::Infinity);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let b = [("A", Value::Int(1)), ("B", Value::Int(0))];
        assert!(eval_str("A / B", &b).is_err());
        assert!(eval_str("A % B", &b).is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        let b = [("A", Value::Int(2)), ("B", Value::Int(5))];
        assert_eq!(eval_str("A < B", &b).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("A == 2 && B == 5", &b).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("A > B || B >= 5", &b).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("A != 2", &b).unwrap(), Value::Bool(false));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let err = eval_str("Z + 1", &[]).unwrap_err();
        assert!(err.to_string().contains("unbound"));
    }

    #[test]
    fn list_builtins() {
        let b = [
            ("S", Value::addr("n1")),
            ("D", Value::addr("n2")),
            ("P", Value::list(vec![Value::addr("n2"), Value::addr("n3")])),
        ];
        assert_eq!(
            eval_str("f_initlist2(S, D)", &b).unwrap(),
            Value::list(vec![Value::addr("n1"), Value::addr("n2")])
        );
        assert_eq!(
            eval_str("f_prepend(S, P)", &b).unwrap(),
            Value::list(vec![
                Value::addr("n1"),
                Value::addr("n2"),
                Value::addr("n3")
            ])
        );
        assert_eq!(eval_str("f_member(P, S)", &b).unwrap(), Value::Int(0));
        assert_eq!(eval_str("f_member(P, D)", &b).unwrap(), Value::Int(1));
        assert_eq!(eval_str("f_size(P)", &b).unwrap(), Value::Int(2));
        assert_eq!(eval_str("f_last(P)", &b).unwrap(), Value::addr("n3"));
        assert_eq!(eval_str("f_first(P)", &b).unwrap(), Value::addr("n2"));
    }

    #[test]
    fn is_extend_matches_bgp_prepending() {
        let r1 = Value::list(vec![Value::addr("AS2"), Value::addr("AS3")]);
        let r2 = Value::list(vec![
            Value::addr("AS1"),
            Value::addr("AS2"),
            Value::addr("AS3"),
        ]);
        assert!(is_extend(&r2, &r1, &Value::addr("AS1")));
        assert!(!is_extend(&r2, &r1, &Value::addr("AS9")));
        assert!(!is_extend(&r1, &r2, &Value::addr("AS1")));
        // Non-list arguments never match.
        assert!(!is_extend(&Value::Int(1), &r1, &Value::addr("AS1")));
        // The builtin is the same predicate, arguments passed by reference.
        let b = [("R2", r2), ("R1", r1), ("N", Value::addr("AS1"))];
        assert_eq!(
            eval_str("f_isExtend(R2, R1, N)", &b).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_str("f_isExtend(R1, R2, N)", &b).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn misc_builtins() {
        let b = [
            ("E", Value::list(vec![])),
            ("N", Value::Int(1)),
            ("X", Value::str("x")),
        ];
        assert_eq!(eval_str("f_min(3, 5)", &b).unwrap(), Value::Int(3));
        assert_eq!(eval_str("f_max(3, 5)", &b).unwrap(), Value::Int(5));
        assert_eq!(eval_str("f_abs(-3)", &b).unwrap(), Value::Int(3));
        assert!(matches!(eval_str("f_sha1(X)", &b).unwrap(), Value::Id(_)));
        assert_eq!(eval_str("f_tostr(7)", &b).unwrap(), Value::str("7"));
        let err = eval_str("f_nosuch(N)", &b).unwrap_err();
        assert!(err.to_string().contains("unknown builtin `f_nosuch`"));
        assert!(eval_str("f_last(E)", &b).is_err());
        assert!(eval_str("f_size(N)", &b).is_err());
        // The slot compiler keeps whatever argument list it is given; the
        // count is checked when the call runs.
        let err = eval_str("f_size(E, E)", &b).unwrap_err();
        assert!(err.to_string().contains("expects 1 argument(s), got 2"));
    }

    /// The one builtin table ([`ndlog::builtins::BUILTINS`]) row by row:
    /// every name resolves, takes its arity's worth of arguments and
    /// evaluates. A row added there without a case here fails.
    #[test]
    fn every_builtin_in_the_table_evaluates() {
        let (n1, n2, n3) = (Value::addr("n1"), Value::addr("n2"), Value::addr("n3"));
        let list = |items: &[&Value]| Value::List(items.iter().copied().cloned().collect());
        let b = [("S", n1.clone()), ("P", list(&[&n2, &n3]))];
        let mut h = StableHasher::new();
        n1.stable_hash_into(&mut h);
        let digest = Value::Id(h.finish());
        let cases = [
            ("f_concat", "f_concat(P, S)", list(&[&n2, &n3, &n1])),
            ("f_append", "f_append(P, S)", list(&[&n2, &n3, &n1])),
            ("f_prepend", "f_prepend(S, P)", list(&[&n1, &n2, &n3])),
            ("f_initlist", "f_initlist(S)", list(&[&n1])),
            ("f_initlist2", "f_initlist2(S, S)", list(&[&n1, &n1])),
            ("f_member", "f_member(P, S)", Value::Int(0)),
            ("f_last", "f_last(P)", n3.clone()),
            ("f_first", "f_first(P)", n2.clone()),
            ("f_size", "f_size(P)", Value::Int(2)),
            (
                "f_isExtend",
                "f_isExtend(f_prepend(S, P), P, S)",
                Value::Int(1),
            ),
            ("f_min", "f_min(3, 5)", Value::Int(3)),
            ("f_max", "f_max(3, 5)", Value::Int(5)),
            ("f_abs", "f_abs(-3)", Value::Int(3)),
            ("f_sha1", "f_sha1(S)", digest),
            ("f_tostr", "f_tostr(7)", Value::str("7")),
        ];
        let table: Vec<&str> = ndlog::builtins::BUILTINS.iter().map(|b| b.name).collect();
        let covered: Vec<&str> = cases.iter().map(|(name, ..)| *name).collect();
        assert_eq!(covered, table, "one case per row, in table order");
        for (name, call, expected) in &cases {
            let info = BuiltinFn::lookup(name).expect("row resolves").info();
            assert!(info.arity <= MAX_ARITY, "{name}");
            assert!(call.starts_with(&format!("{name}(")), "{call}");
            assert_eq!(&eval_str(call, &b).unwrap(), expected, "{call}");
        }
    }

    #[test]
    fn filter_coercion_follows_truthiness() {
        let rule = parse_rule("r1 out(@A,X) :- in(@A,X), f_abs(X) == 3.").unwrap();
        let program = SlotProgram::compile(&rule);
        let mut frame = Frame::new();
        frame.reset(program.slot_count());
        frame.set(program.slot_of("X").unwrap(), Value::Int(3));
        match &program.steps[0] {
            SlotStep::Filter(e) => assert!(e.holds(&frame).unwrap()),
            SlotStep::Assign { .. } => unreachable!(),
        }
    }

    #[test]
    fn frames_undo_binds_and_overwrites_newest_first() {
        let mut frame = Frame::new();
        frame.reset(2);
        frame.set(0, Value::Int(1));
        let mark = frame.mark();
        frame.set(0, Value::Double(1.0));
        frame.set(1, Value::Int(7));
        frame.set(0, Value::Int(9));
        frame.undo_to(mark);
        assert!(matches!(frame.get(0), Some(Value::Int(1))));
        assert!(frame.get(1).is_none());
        frame.undo_to(0);
        assert!(frame.get(0).is_none());
    }
}
