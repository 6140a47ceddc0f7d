//! The join kernel of the generation-based semi-naive fixpoint.
//!
//! A [`crate::NodeEngine`] processes its delta queue in *generations*: all
//! currently queued deltas are applied to the tables first (in stream
//! order), and only then do the surviving membership changes replay, each
//! firing the rules its relation triggers. Nothing the replay does writes a
//! table — emissions go to the next generation's queue, the outbox, the
//! dependency index and the aggregate state — so every evaluation here is a
//! pure read of tables frozen for the generation, wherever in the replay it
//! runs.
//!
//! Rules arrive here already lowered to slot programs (module `compile`), so
//! one kernel serves all three evaluation paths — monotonic triggers
//! ([`EvalContext::eval_task`]), negation reconciliation
//! ([`EvalContext::join`]) and aggregate group recomputation
//! ([`EvalContext::aggregate_group`]). It binds variables in a flat
//! [`Frame`] (the engine's, reset per evaluation, undone by trail mark at
//! each join level), keeps the matched atoms' ids in the engine's scratch
//! beside it, and runs the assignments, filters and negated-atom checks in
//! place at the join leaf. A join result that a filter rejects has cost no
//! allocation, and no stored tuple is ever materialized out of its columnar
//! slots: a result that built a head keeps the head and the ids of its
//! matched atoms, one shared list that the derivation, the firing and the
//! outbox go on to share. Candidate order is probe order, and `join_probes`
//! counts every candidate examined.

use crate::compile::{AggSpec, BoundTerm, CompiledProgram, CompiledRule, PlanStep};
use crate::eval::{Frame, SlotAtom, SlotTerm};
use crate::store::{Database, TupleRef};
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use ndlog::AggregateFunc;
use std::sync::Arc;

/// A candidate firing produced by the join kernel: the constructed head and
/// the ids of the body tuples that matched, in body order — the list the
/// derivation record shares. The engine builds the record when it commits
/// the candidate (it adds only the rule symbol and the engine's node).
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub head: Tuple,
    pub inputs: Arc<[TupleId]>,
}

/// What an aggregate group currently evaluates to: the aggregate value and
/// the stored tuples that witness it (the winner alone for `min`/`max`, every
/// contribution for `count`/`sum`), as storage handles: the derivation reads
/// their ids.
pub(crate) struct GroupAggregate<'a> {
    pub value: Value,
    pub witnesses: Vec<TupleRef<'a>>,
}

/// A read-only view of everything rule evaluation needs: the frozen tables
/// and the compiled program.
pub(crate) struct EvalContext<'a> {
    pub db: &'a Database,
    pub program: &'a CompiledProgram,
}

impl<'a> EvalContext<'a> {
    /// Evaluate one monotonic trigger: match `tuple` against body atom
    /// `atom_idx` of rule `rule_idx`, then join the remaining atoms along the
    /// plan precomputed for that trigger position. Appends the candidates to
    /// `out` in discovery order and returns the number of join candidates
    /// examined.
    pub fn eval_task(
        &self,
        rule_idx: usize,
        atom_idx: usize,
        tuple: &Tuple,
        frame: &mut Frame,
        matched: &mut Vec<TupleId>,
        out: &mut Vec<Candidate>,
    ) -> u64 {
        let rule = &self.program.rules[rule_idx];
        let mut probes = 0u64;
        frame.reset(rule.slots.slot_count());
        if rule.slots.positive[atom_idx].match_row(tuple, frame) {
            matched.resize(rule.slots.positive.len(), TupleId(0));
            matched[atom_idx] = tuple.id();
            let steps = &rule.plans[atom_idx].steps;
            self.join(rule, steps, frame, matched, out, &mut probes);
        }
        probes
    }

    /// Recursively join the atoms of a plan. Each step probes its table
    /// through the bound columns the plan computed at compile time, so the
    /// candidate set is an index posting list rather than the whole table;
    /// the frame is extended in place and undone by trail mark, and the
    /// step's atom records its match's id in `matched` (one entry per
    /// positive atom; the plan writes every entry the caller did not). With
    /// every atom matched, [`Self::leaf`] decides whether the join result
    /// becomes a candidate. `probes` counts the candidates actually examined.
    pub fn join(
        &self,
        rule: &CompiledRule,
        steps: &[PlanStep],
        frame: &mut Frame,
        matched: &mut [TupleId],
        out: &mut Vec<Candidate>,
        probes: &mut u64,
    ) {
        let Some((step, rest)) = steps.split_first() else {
            self.leaf(rule, frame, matched, out, probes);
            return;
        };
        let atom = &rule.slots.positive[step.atom];
        let Some(table) = self.db.table_sym(atom.relation) else {
            return;
        };
        let bound = self.resolve_bound_cols(&step.bound_cols, frame);
        for cand in table.probe(&bound) {
            *probes += 1;
            let mark = frame.mark();
            if atom.match_row(&cand, frame) {
                matched[step.atom] = cand.id();
                self.join(rule, rest, frame, matched, out, probes);
                frame.undo_to(mark);
            }
        }
    }

    /// The join leaf: apply assignments and filters in place, check the
    /// negated atoms, build the head. Only a result that gets this far
    /// allocates: its head and its input id list. The frame is left as it
    /// was found.
    fn leaf(
        &self,
        rule: &CompiledRule,
        frame: &mut Frame,
        matched: &[TupleId],
        out: &mut Vec<Candidate>,
        probes: &mut u64,
    ) {
        let mark = frame.mark();
        let accepted = rule.slots.apply_steps(frame)
            && !rule
                .slots
                .negated
                .iter()
                .zip(&rule.negated_probes)
                .any(|(neg, probe_cols)| self.exists_match(neg, probe_cols, frame, probes));
        if accepted {
            if let Some(head) = rule.slots.head.build(frame, rule.head_addr_cols, None) {
                out.push(Candidate {
                    head,
                    inputs: matched.into(),
                });
            }
        }
        frame.undo_to(mark);
    }

    /// Does any stored tuple match `atom` under the frame? Probes the
    /// relation's indexes through the compile-time bound columns instead of
    /// scanning; `probes` counts the candidates examined. The frame is left
    /// as it was found.
    fn exists_match(
        &self,
        atom: &SlotAtom,
        probe_cols: &[(usize, BoundTerm)],
        frame: &mut Frame,
        probes: &mut u64,
    ) -> bool {
        let Some(table) = self.db.table_sym(atom.relation) else {
            return false;
        };
        let bound = self.resolve_bound_cols(probe_cols, frame);
        for cand in table.probe(&bound) {
            *probes += 1;
            let mark = frame.mark();
            if atom.match_row(&cand, frame) {
                frame.undo_to(mark);
                return true;
            }
        }
        false
    }

    /// Resolve a plan's bound columns against the frame into concrete probe
    /// values.
    fn resolve_bound_cols(
        &self,
        bound_cols: &[(usize, BoundTerm)],
        frame: &Frame,
    ) -> Vec<(usize, Value)> {
        bound_cols
            .iter()
            .filter_map(|(col, bound)| match bound {
                BoundTerm::Const(value) => Some((*col, value.clone())),
                BoundTerm::Slot(slot) => frame.get(*slot).map(|v| (*col, v.clone())),
            })
            .collect()
    }

    /// Evaluate the aggregate of `rule` over one group: probe the body atom
    /// by the group-key columns, run assignments and filters per candidate,
    /// and fold the contributions whose group key equals `group`. `min` and
    /// `max` keep only the running best (ties go to the smaller tuple id);
    /// nothing is materialized. `None` when the group is empty. Also returns
    /// the number of candidates examined.
    pub fn aggregate_group(
        &self,
        rule: &CompiledRule,
        spec: &AggSpec,
        group: &[Value],
        frame: &mut Frame,
    ) -> (Option<GroupAggregate<'a>>, u64) {
        let atom = &rule.slots.positive[0];
        let Some(table) = self.db.table_sym(atom.relation) else {
            return (None, 0);
        };
        // The probe values are the group's: load the key into the head's
        // slots just long enough to resolve them, then match every candidate
        // from an empty frame.
        frame.reset(rule.slots.slot_count());
        for (term, value) in group_terms(rule, spec).zip(group) {
            if let SlotTerm::Slot(slot) = term {
                frame.set(*slot, value.clone());
            }
        }
        let bound = self.resolve_bound_cols(&rule.aggregate_probe, frame);
        frame.undo_to(0);

        let mut fold = Fold::new(spec.func);
        let mut probes = 0u64;
        for cand in table.probe(&bound) {
            probes += 1;
            if atom.match_row(&cand, frame) {
                if rule.slots.apply_steps(frame) && group_matches(rule, spec, group, frame) {
                    match spec.slot {
                        None => fold.add(&Value::Int(1), cand),
                        Some(slot) => {
                            if let Some(value) = frame.get(slot) {
                                fold.add(value, cand);
                            }
                        }
                    }
                }
                frame.undo_to(0);
            }
        }
        (fold.finish(), probes)
    }
}

/// The head terms that make up an aggregate rule's group key: every column
/// except the aggregate's.
fn group_terms<'r>(
    rule: &'r CompiledRule,
    spec: &'r AggSpec,
) -> impl Iterator<Item = &'r SlotTerm> {
    rule.slots
        .head
        .terms
        .iter()
        .enumerate()
        .filter(|(col, _)| *col != spec.agg_col)
        .map(|(_, term)| term)
}

/// The group key of an aggregate head under the frame; `None` when a group
/// variable is unbound.
pub(crate) fn group_key(rule: &CompiledRule, spec: &AggSpec, frame: &Frame) -> Option<Vec<Value>> {
    group_terms(rule, spec)
        .map(|term| match term {
            SlotTerm::Slot(slot) => frame.get(*slot).cloned(),
            SlotTerm::Const(value) => Some(value.clone()),
            SlotTerm::Wild | SlotTerm::Agg => None,
        })
        .collect()
}

/// `group_key(..) == Some(group)`, compared in place.
fn group_matches(rule: &CompiledRule, spec: &AggSpec, group: &[Value], frame: &Frame) -> bool {
    group_terms(rule, spec).zip(group).all(|(term, expected)| {
        match term {
            SlotTerm::Slot(slot) => frame.get(*slot),
            SlotTerm::Const(value) => Some(value),
            SlotTerm::Wild | SlotTerm::Agg => None,
        }
        .is_some_and(|value| value == expected)
    })
}

/// The running state of one aggregate group's fold.
enum Fold<'a> {
    /// `min` / `max`: the best `(value, witness)` so far.
    Best {
        max: bool,
        best: Option<(Value, TupleRef<'a>)>,
    },
    /// `count`: every contribution witnesses the count.
    Count(Vec<TupleRef<'a>>),
    /// `sum`: integers add exactly (wrapping, like `+`); from the first
    /// `Double` on the sum is a double. Non-numbers count as witnesses only.
    Sum {
        total: Value,
        witnesses: Vec<TupleRef<'a>>,
    },
}

impl<'a> Fold<'a> {
    fn new(func: AggregateFunc) -> Self {
        match func {
            AggregateFunc::Min => Fold::Best {
                max: false,
                best: None,
            },
            AggregateFunc::Max => Fold::Best {
                max: true,
                best: None,
            },
            AggregateFunc::Count => Fold::Count(Vec::new()),
            AggregateFunc::Sum => Fold::Sum {
                total: Value::Int(0),
                witnesses: Vec::new(),
            },
        }
    }

    fn add(&mut self, value: &Value, cand: TupleRef<'a>) {
        match self {
            Fold::Best { max, best } => {
                let wins = match best {
                    None => true,
                    Some((held, witness)) => {
                        let by_value = if *max {
                            (*held).cmp(value)
                        } else {
                            value.cmp(held)
                        };
                        // Equal values: the smaller tuple id wins either way.
                        by_value.then_with(|| cand.id().cmp(&witness.id())).is_lt()
                    }
                };
                if wins {
                    *best = Some((value.clone(), cand));
                }
            }
            Fold::Count(witnesses) => witnesses.push(cand),
            Fold::Sum { total, witnesses } => {
                *total = match (&*total, value) {
                    (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
                    (Value::Int(a), Value::Double(b)) => Value::Double(*a as f64 + b),
                    (Value::Double(a), Value::Int(b)) => Value::Double(a + *b as f64),
                    (Value::Double(a), Value::Double(b)) => Value::Double(a + b),
                    _ => total.clone(),
                };
                witnesses.push(cand);
            }
        }
    }

    fn finish(self) -> Option<GroupAggregate<'a>> {
        let (value, witnesses) = match self {
            Fold::Best { best, .. } => {
                let (value, witness) = best?;
                (value, vec![witness])
            }
            Fold::Count(witnesses) => (Value::Int(witnesses.len() as i64), witnesses),
            Fold::Sum { total, witnesses } => (total, witnesses),
        };
        (!witnesses.is_empty()).then_some(GroupAggregate { value, witnesses })
    }
}
