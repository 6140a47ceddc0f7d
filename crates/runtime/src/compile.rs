//! Compilation of validated NDlog programs into the runtime representation.
//!
//! Compilation performs, in order: validation, automatic localization
//! ([`ndlog::localize_program`]), catalog construction, and
//! per-rule analysis (aggregate detection, trigger tables). Everything a rule evaluation would otherwise look up by name is
//! resolved here, once: the join order per trigger position, the columns each
//! join step can probe on, and — [`SlotProgram::compile`] — every variable to
//! a dense slot index, every constant to a [`Value`] — a text where an
//! address goes to an address (the catalog decides where, see
//! [`crate::catalog`]) — and every builtin call
//! to a [`BuiltinFn`], so the evaluator (module `eval`, driven by the join
//! kernel in module `kernel`) never sees a variable name. The plans also
//! decide what storage indexes: [`CompiledProgram::tables`] lists, per
//! relation, the columns some plan probes. The result is
//! shared (via `Arc`) by every node engine in a deployment — nodes differ
//! only in their data, not in their code, just as a RapidNet binary is
//! identical on every node.

use crate::catalog::Catalog;
use crate::error::{Result, RuntimeError};
use crate::eval::{literal_value, SlotAtom, SlotExpr, SlotProgram, SlotStep, SlotTerm};
use crate::store::TableSpec;
use crate::value::{IdMap, IdSet, Sym, Value};
use ndlog::builtins::BuiltinFn;
use ndlog::{AggregateFunc, BinOp, BodyElem, Expr, Predicate, Program, Rule, RuleKind, Term};
use std::cmp::Reverse;
use std::sync::Arc;

/// Aggregate specification for rules such as `minCost(@S,D,min<C>) :- ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggregateFunc,
    /// Column of the head that receives the aggregate value.
    pub agg_col: usize,
    /// Slot of the aggregated body variable (`None` for `count<*>`).
    pub slot: Option<usize>,
}

/// How a column of a body atom is bound at probe time.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundTerm {
    /// The column carries a constant from the rule text.
    Const(Value),
    /// The column carries the variable in this slot, bound by an earlier atom
    /// in the plan (or by the trigger delta).
    Slot(usize),
}

/// One step of a join plan: which atom to join next and which of its columns
/// are already bound — the columns [`crate::store::Table::probe`] can use for
/// an index lookup instead of a scan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Index into [`SlotProgram::positive`].
    pub atom: usize,
    /// `(column, binding source)` pairs known bound when this step runs.
    pub bound_cols: Vec<(usize, BoundTerm)>,
}

/// A per-trigger join plan: the order in which the remaining positive atoms
/// are joined after a delta arrives, chosen greedily by bound-variable
/// connectivity (most bound columns first, earliest atom on ties). Computed
/// once at compile time so the engine never re-derives it per delta.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// The triggering atom position (`None` for full recomputation plans,
    /// where every atom appears in `steps`).
    pub trigger: Option<usize>,
    /// The remaining atoms, in join order.
    pub steps: Vec<PlanStep>,
}

// --------------------------------------------------------------------------
// lowering to slots
// --------------------------------------------------------------------------

/// The slot table under construction: a variable gets the next free index
/// the first time any atom, step or head term mentions it.
#[derive(Default)]
struct SlotTable {
    names: Vec<String>,
}

impl SlotTable {
    fn slot(&mut self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.to_string());
                self.names.len() - 1
            })
    }

    fn atom(&mut self, atom: &Predicate) -> SlotAtom {
        let terms = atom
            .terms
            .iter()
            .map(|term| match term {
                Term::Wildcard => SlotTerm::Wild,
                Term::Variable { name, .. } => SlotTerm::Slot(self.slot(name)),
                Term::Constant { value, .. } => SlotTerm::Const(literal_value(value)),
                Term::Aggregate(agg) => {
                    if agg.var != "*" {
                        self.slot(&agg.var);
                    }
                    SlotTerm::Agg
                }
            })
            .collect();
        SlotAtom {
            relation: Sym::new(&atom.relation),
            terms,
        }
    }

    fn expr(&mut self, expr: &Expr) -> SlotExpr {
        match expr {
            Expr::Var(name) => SlotExpr::Slot(self.slot(name)),
            Expr::Const(lit) => SlotExpr::Const(literal_value(lit)),
            Expr::Unary { op, expr } => SlotExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            Expr::Binary { op, lhs, rhs } => SlotExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            Expr::Call { func, args } => match BuiltinFn::lookup(func) {
                Some(func) => SlotExpr::Call {
                    func,
                    args: args.iter().map(|a| self.expr(a)).collect(),
                },
                None => SlotExpr::UnknownCall(func.clone()),
            },
        }
    }
}

impl SlotProgram {
    /// Lower one rule to slots. Purely syntactic — it neither validates nor
    /// localizes, so the engine compiles its localized rules through it and
    /// the legacy-application proxy its `maybe` rules.
    pub fn compile(rule: &Rule) -> SlotProgram {
        let mut table = SlotTable::default();
        let mut positive = Vec::new();
        let mut negated = Vec::new();
        let mut steps = Vec::new();
        for elem in &rule.body {
            match elem {
                BodyElem::Atom(p) if p.negated => negated.push(table.atom(p)),
                BodyElem::Atom(p) => positive.push(table.atom(p)),
                BodyElem::Assign { var, expr } => {
                    let expr = table.expr(expr);
                    steps.push(SlotStep::Assign {
                        slot: table.slot(var),
                        expr,
                    });
                }
                BodyElem::Filter(expr) => steps.push(SlotStep::Filter(table.expr(expr))),
            }
        }
        let head = table.atom(&rule.head);
        SlotProgram {
            names: table.names,
            head,
            positive,
            negated,
            steps,
        }
    }
}

// --------------------------------------------------------------------------
// join planning
// --------------------------------------------------------------------------

/// Mark the slots an atom binds.
fn bind_atom_slots(atom: &SlotAtom, bound: &mut [bool]) {
    for term in &atom.terms {
        if let SlotTerm::Slot(slot) = term {
            bound[*slot] = true;
        }
    }
}

/// The columns of `atom` that are bound given the `bound` slots: constants
/// and variables already bound.
fn bound_cols_of(atom: &SlotAtom, bound: &[bool]) -> Vec<(usize, BoundTerm)> {
    atom.terms
        .iter()
        .enumerate()
        .filter_map(|(col, term)| match term {
            SlotTerm::Const(value) => Some((col, BoundTerm::Const(value.clone()))),
            SlotTerm::Slot(slot) if bound[*slot] => Some((col, BoundTerm::Slot(*slot))),
            _ => None,
        })
        .collect()
}

/// Build the join plan for a program's positive atoms triggered at `trigger`
/// (or a full recomputation plan when `trigger` is `None`).
fn build_join_plan(slots: &SlotProgram, trigger: Option<usize>) -> JoinPlan {
    let positive = &slots.positive;
    let mut bound = vec![false; slots.slot_count()];
    if let Some(t) = trigger {
        bind_atom_slots(&positive[t], &mut bound);
    }
    let mut remaining: Vec<usize> = (0..positive.len())
        .filter(|i| Some(*i) != trigger)
        .collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pick, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &atom_idx)| {
                (
                    bound_cols_of(&positive[atom_idx], &bound).len(),
                    Reverse(atom_idx),
                )
            })
            .expect("remaining is non-empty");
        let atom_idx = remaining.remove(pick);
        let bound_cols = bound_cols_of(&positive[atom_idx], &bound);
        bind_atom_slots(&positive[atom_idx], &mut bound);
        steps.push(PlanStep {
            atom: atom_idx,
            bound_cols,
        });
    }
    JoinPlan { trigger, steps }
}

/// One executable rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRule {
    /// The (localized) source rule.
    pub rule: Rule,
    /// The rule name, interned once at compile time (what firings carry).
    pub name_sym: Sym,
    /// Index of this rule within the compiled program.
    pub index: usize,
    /// Address columns of the head relation
    /// ([`crate::RelationSchema::addr_cols`]).
    pub head_addr_cols: u64,
    /// The rule over slots: head, positive and negated atoms, assignments
    /// and filters — what evaluation actually walks.
    pub slots: SlotProgram,
    /// Aggregate specification, if the head contains one.
    pub aggregate: Option<AggSpec>,
    /// Join plans, one per positive atom: `plans[i]` joins the remaining
    /// atoms after a delta bound to atom `i`.
    pub plans: Vec<JoinPlan>,
    /// Plan joining *all* positive atoms from scratch (used by
    /// reconciliation of rules with negation).
    pub full_plan: JoinPlan,
    /// For each negated atom, the columns bound once the whole positive body
    /// (plus assignments) is bound — the probe set for existence checks.
    pub negated_probes: Vec<Vec<(usize, BoundTerm)>>,
    /// For aggregate rules, the columns of the single body atom bound by the
    /// group key — the probe set for group recomputation.
    pub aggregate_probe: Vec<(usize, BoundTerm)>,
}

impl CompiledRule {
    /// True when the rule needs non-monotonic (reconciliation-based)
    /// maintenance: it has negated body atoms.
    pub fn has_negation(&self) -> bool {
        !self.slots.negated.is_empty()
    }
}

/// A fully compiled program, shared by all node engines.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The program as written by the user (pre-localization).
    pub source: Program,
    /// The localized program that actually executes.
    pub localized: Program,
    /// Relation schemas.
    pub catalog: Catalog,
    /// Executable rules (maybe rules are excluded — they are evaluated by the
    /// legacy-application proxy, not by the engine).
    pub rules: Vec<CompiledRule>,
    /// relation symbol -> (rule index, positive-atom index) pairs to evaluate
    /// when a delta of that relation arrives.
    pub triggers: IdMap<Sym, Vec<(usize, usize)>>,
    /// relation symbol -> rule indices that must be *reconciled* when the
    /// relation changes (rules where the relation appears negated).
    pub negation_triggers: IdMap<Sym, Vec<usize>>,
    /// One entry per relation of the catalog, in relation-name order: its
    /// shared schema and the columns the plans above probe. An engine builds
    /// its tables from this list, and every engine's table of a relation
    /// holds the one spec, so a column no plan reads carries no index on any
    /// node.
    pub tables: Vec<Arc<TableSpec>>,
    /// Names of the monotonic rules ([`CompiledProgram::cascades`]).
    cascaded: IdSet<Sym>,
}

impl CompiledProgram {
    /// Compile NDlog source text (parse, validate, localize, analyze).
    pub fn from_source(src: &str) -> Result<Self> {
        let program = ndlog::compile(src)?;
        Self::from_program(program)
    }

    /// Compile an already-parsed program (it is re-validated).
    pub fn from_program(program: Program) -> Result<Self> {
        ndlog::validate_program(&program)?;
        let localized = ndlog::localize_program(&program)?;
        ndlog::validate_program(&localized)?;
        let catalog = Catalog::from_program(&localized)?;

        let mut rules = Vec::new();
        let mut triggers: IdMap<Sym, Vec<(usize, usize)>> = IdMap::default();
        let mut negation_triggers: IdMap<Sym, Vec<usize>> = IdMap::default();
        let mut cascaded: IdSet<Sym> = IdSet::default();

        for rule in &localized.rules {
            if rule.kind == RuleKind::Maybe {
                continue;
            }
            let index = rules.len();
            let compiled = compile_rule(rule, index, &catalog)?;
            for (atom_idx, atom) in compiled.slots.positive.iter().enumerate() {
                triggers
                    .entry(atom.relation)
                    .or_default()
                    .push((index, atom_idx));
            }
            for atom in &compiled.slots.negated {
                negation_triggers
                    .entry(atom.relation)
                    .or_default()
                    .push(index);
            }
            if compiled.aggregate.is_none() && !compiled.has_negation() {
                cascaded.insert(compiled.name_sym);
            }
            rules.push(compiled);
        }

        let tables = table_specs(&catalog, &rules);
        Ok(CompiledProgram {
            source: program,
            localized,
            catalog,
            rules,
            triggers,
            negation_triggers,
            tables,
            cascaded,
        })
    }

    /// True when `rule` is monotonic: the dependency cascade of the node that
    /// ran it retracts its derivations, not a recomputation.
    pub fn cascades(&self, rule: Sym) -> bool {
        self.cascaded.contains(&rule)
    }

    /// Find a compiled rule by name.
    pub fn rule(&self, name: &str) -> Option<&CompiledRule> {
        self.rules.iter().find(|r| r.rule.name == name)
    }
}

/// The table of every relation in the catalog, with the columns `rules` can
/// probe it on: the bound columns of every join step (delta-triggered and
/// full), every negated-atom check and every aggregate group scan — each
/// site [`crate::store::Table::probe`] is called from.
fn table_specs(catalog: &Catalog, rules: &[CompiledRule]) -> Vec<Arc<TableSpec>> {
    let mut probed: IdMap<Sym, Vec<usize>> = IdMap::default();
    for rule in rules {
        let plans = rule.plans.iter().chain([&rule.full_plan]);
        let joins = plans
            .flat_map(|plan| &plan.steps)
            .map(|step| (&rule.slots.positive[step.atom], &step.bound_cols));
        let negations = rule.slots.negated.iter().zip(&rule.negated_probes);
        let group_scan = rule
            .aggregate
            .iter()
            .map(|_| (&rule.slots.positive[0], &rule.aggregate_probe));
        for (atom, bound_cols) in joins.chain(negations).chain(group_scan) {
            let columns = bound_cols.iter().map(|(col, _)| *col);
            probed.entry(atom.relation).or_default().extend(columns);
        }
    }
    catalog
        .shared_schemas()
        .map(|schema| {
            let columns = probed.remove(&Sym::new(&schema.name)).unwrap_or_default();
            Arc::new(TableSpec::new(schema.clone(), columns))
        })
        .collect()
}

/// Make every constant written where an address goes an address: in an
/// address column of an atom, and in `V == "…"`, `V != "…"` and `V := "…"`
/// when `V` holds addresses. Any constant there but a text is an error.
fn type_addresses(slots: &mut SlotProgram, rule: &Rule, catalog: &Catalog) -> Result<()> {
    let vars = catalog.address_vars(rule);
    let addr_slot = |slot: &usize| vars.contains(slots.names[*slot].as_str());
    let mut constants = Vec::new();
    let atoms = std::iter::once(&mut slots.head).chain(&mut slots.positive);
    for atom in atoms.chain(&mut slots.negated) {
        let schema = catalog.schema(&atom.relation).expect("a catalog relation");
        for (col, term) in atom.terms.iter_mut().enumerate() {
            match term {
                SlotTerm::Const(value) if schema.is_addr(col) => constants.push(value),
                _ => {}
            }
        }
    }
    for step in &mut slots.steps {
        let (slot, expr) = match step {
            SlotStep::Assign { slot, expr } => (&*slot, expr),
            SlotStep::Filter(SlotExpr::Binary {
                op: BinOp::Eq | BinOp::Ne,
                lhs,
                rhs,
            }) => match (&mut **lhs, &mut **rhs) {
                (SlotExpr::Slot(slot), expr) | (expr, SlotExpr::Slot(slot)) => (&*slot, expr),
                _ => continue,
            },
            _ => continue,
        };
        match expr {
            SlotExpr::Const(value) if addr_slot(slot) => constants.push(value),
            _ => {}
        }
    }
    for value in constants {
        let Value::Str(text) = value else {
            return Err(RuntimeError::schema(format!(
                "`{}`: {value} is no address",
                rule.name
            )));
        };
        *value = Value::addr(text.as_str());
    }
    Ok(())
}

fn compile_rule(rule: &Rule, index: usize, catalog: &Catalog) -> Result<CompiledRule> {
    let head_schema = catalog.schema(&rule.head.relation).ok_or_else(|| {
        RuntimeError::compile(Some(&rule.name), "head relation missing from catalog")
    })?;

    let mut slots = SlotProgram::compile(rule);
    type_addresses(&mut slots, rule, catalog)?;

    let aggregate = rule.head.aggregate_column().map(|(col, agg)| AggSpec {
        func: agg.func,
        agg_col: col,
        slot: slots.slot_of(&agg.var),
    });

    if aggregate.is_some() {
        if slots.positive.len() != 1 {
            return Err(RuntimeError::compile(
                Some(&rule.name),
                "aggregate rules must have exactly one positive body atom",
            ));
        }
        if !slots.negated.is_empty() {
            return Err(RuntimeError::compile(
                Some(&rule.name),
                "aggregate rules cannot contain negation",
            ));
        }
    }

    // Wildcards in heads are not executable.
    if slots.head.terms.contains(&SlotTerm::Wild) {
        return Err(RuntimeError::compile(
            Some(&rule.name),
            "rule heads cannot contain wildcards",
        ));
    }

    // Join plans: one per trigger position plus the full-recompute plan.
    let plans: Vec<JoinPlan> = (0..slots.positive.len())
        .map(|t| build_join_plan(&slots, Some(t)))
        .collect();
    let full_plan = build_join_plan(&slots, None);

    // After the positive body matched, every positive variable plus every
    // assigned variable is bound; negated atoms probe with those.
    let mut body_bound = vec![false; slots.slot_count()];
    for atom in &slots.positive {
        bind_atom_slots(atom, &mut body_bound);
    }
    for step in &slots.steps {
        if let SlotStep::Assign { slot, .. } = step {
            body_bound[*slot] = true;
        }
    }
    let negated_probes: Vec<Vec<(usize, BoundTerm)>> = slots
        .negated
        .iter()
        .map(|n| bound_cols_of(n, &body_bound))
        .collect();

    // Aggregate rules re-scan their group: the group key binds the head
    // variables outside the aggregate column.
    let aggregate_probe = match &aggregate {
        Some(_) => {
            let mut group_bound = vec![false; slots.slot_count()];
            bind_atom_slots(&slots.head, &mut group_bound);
            bound_cols_of(&slots.positive[0], &group_bound)
        }
        None => Vec::new(),
    };

    Ok(CompiledRule {
        name_sym: Sym::new(&rule.name),
        rule: rule.clone(),
        index,
        head_addr_cols: head_schema.addr_cols,
        slots,
        aggregate,
        plans,
        full_plan,
        negated_probes,
        aggregate_probe,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINCOST: &str = "materialize(link, infinity, infinity, keys(1,2,3)).\n\
         materialize(cost, infinity, infinity, keys(1,2,3)).\n\
         materialize(minCost, infinity, infinity, keys(1,2)).\n\
         r1 cost(@S,D,C) :- link(@S,D,C).\n\
         r2 cost(@S,D,C) :- link(@S,Z,C1), minCost(@Z,D,C2), C := C1 + C2.\n\
         r3 minCost(@S,D,min<C>) :- cost(@S,D,C).";

    #[test]
    fn compiles_mincost_with_localization() {
        let cp = CompiledProgram::from_source(MINCOST).unwrap();
        // r1, r2_s1, r2, r3
        assert_eq!(cp.rules.len(), 4);
        assert!(cp.rule("r2_s1").is_some());
        let r3 = cp.rule("r3").unwrap();
        assert!(r3.aggregate.is_some());
        assert_eq!(r3.aggregate.as_ref().unwrap().agg_col, 2);
        // link triggers r1 and the ship rule.
        let link_triggers = &cp.triggers[&Sym::new("link")];
        assert_eq!(link_triggers.len(), 2);
        // The aux relation exists in the catalog.
        assert!(cp.catalog.schema("r2_aux").is_some());
    }

    /// Localization's refusals, each naming its rule, in the order it checks
    /// them: unlinked locations, then more than two, then a first atom pinned
    /// to a constant; and the shapes it accepts beside them. Caught: dropping
    /// the link check, and checking the constant before the count.
    #[test]
    fn localization_refusals_come_in_order_and_name_the_rule() {
        let refused = [
            ("r1 bad(@S,D) :- a(@S,X), b(@D,Y).", "unlinked"),
            (
                "r1 tri(@S,X) :- link(@S,Z,C1), link2(@Z,W,C2), data(@W,X).",
                "unlinked",
            ),
            (
                "r1 tri(@S,X) :- link(@S,Z,W), a(@Z,X), b(@W,Y).",
                "more than two",
            ),
            (
                "r1 x(@S,X) :- y(@\"n1\",S), z(@S,X).",
                "pinned to a constant",
            ),
            (
                "r1 x(@S,Y) :- y(@\"n1\",S,X), z(@S,W), w(@X,Y).",
                "more than two",
            ),
        ];
        for (src, why) in refused {
            let err = match CompiledProgram::from_source(src) {
                Ok(_) => panic!("{src} compiled"),
                Err(e) => e.to_string(),
            };
            assert!(err.contains("`r1`") && err.contains(why), "{src}: {err}");
        }
        // A link-restricted rule ships to its remote location Z.
        let cp = CompiledProgram::from_source(
            "r2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C := C1 + C2.",
        )
        .unwrap();
        let ship = cp.localized.rule("r2_s1").unwrap();
        assert_eq!(ship.head.location_variable(), Some("Z"));
        // A constant head, and a rule pinned to a constant with no remote
        // side, compile as they are.
        for src in [
            "r1 report(@\"collector\",N,C) :- status(@N,C).",
            "r1 x(@S) :- y(@\"n1\",S).",
        ] {
            let cp = CompiledProgram::from_source(src).unwrap();
            assert_eq!(cp.localized, cp.source, "{src}");
        }
    }

    #[test]
    fn maybe_rules_are_kept_out_of_the_engine() {
        let cp = CompiledProgram::from_source(
            "br1 outputRoute(@AS,R2,P) ?- inputRoute(@AS,R1,P), f_isExtend(R2,R1,AS) == 1.\n\
             r1 seen(@AS,P) :- inputRoute(@AS,R1,P).",
        )
        .unwrap();
        assert_eq!(cp.rules.len(), 1);
        assert!(cp.rules.iter().all(|r| r.rule.name != "br1"));
    }

    #[test]
    fn rejects_aggregate_with_join_body() {
        let err = CompiledProgram::from_source("r1 agg(@S,min<C>) :- cost(@S,D,C), link(@S,D,C2).")
            .unwrap_err();
        assert!(err.to_string().contains("exactly one positive body atom"));
    }

    #[test]
    fn invalid_programs_are_rejected_at_compile_time() {
        assert!(CompiledProgram::from_source("r1 out(@A,X) :- link(@A,B).").is_err());
    }

    #[test]
    fn join_plans_probe_on_connected_columns() {
        let cp = CompiledProgram::from_source("r1 out(@S,D) :- a(@S,Z), b(@S,Z,D).").unwrap();
        let rule = cp.rule("r1").unwrap();
        assert_eq!(rule.plans.len(), 2);

        // A delta-triggered step always has bound columns, the trigger
        // binding the shared variables. Triggered by atom 0 (binds S, Z):
        // atom 1 probes on columns 0 and 1.
        let plan = &rule.plans[0];
        assert_eq!(plan.trigger, Some(0));
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].atom, 1);
        let cols: Vec<usize> = plan.steps[0].bound_cols.iter().map(|(c, _)| *c).collect();
        assert_eq!(cols, vec![0, 1]);
        assert!(matches!(
            &plan.steps[0].bound_cols[0].1,
            BoundTerm::Slot(s) if rule.slots.names[*s] == "S"
        ));

        // Triggered by atom 1 (binds S, Z, D): atom 0 fully bound.
        let plan = &rule.plans[1];
        assert_eq!(plan.steps[0].atom, 0);
        assert_eq!(plan.steps[0].bound_cols.len(), 2);

        // A full-recompute plan starts from a key-order scan (nothing
        // bound) and then probes.
        assert_eq!(rule.full_plan.trigger, None);
        assert_eq!(rule.full_plan.steps.len(), 2);
        assert!(rule.full_plan.steps[0].bound_cols.is_empty());
        assert!(!rule.full_plan.steps[1].bound_cols.is_empty());
    }

    #[test]
    fn join_plans_carry_constants_and_negation_probes() {
        let cp =
            CompiledProgram::from_source("r1 out(@S) :- a(@S,Z), b(@S,Z,5), !c(@S,Z).").unwrap();
        let rule = cp.rule("r1").unwrap();
        // Triggered by atom 0: atom 1 is probed on S, Z and the constant 5.
        let step = &rule.plans[0].steps[0];
        assert_eq!(step.atom, 1);
        assert_eq!(step.bound_cols.len(), 3);
        assert_eq!(step.bound_cols[2].1, BoundTerm::Const(Value::Int(5)));
        // The negated atom is fully bound by the positive body.
        assert_eq!(rule.negated_probes.len(), 1);
        assert_eq!(rule.negated_probes[0].len(), 2);
    }

    #[test]
    fn aggregate_rules_probe_their_group_columns() {
        let cp = CompiledProgram::from_source(
            "materialize(minCost, infinity, infinity, keys(1,2)).\n\
             r3 minCost(@S,D,min<C>) :- cost(@S,D,C).",
        )
        .unwrap();
        let rule = cp.rule("r3").unwrap();
        // Group key (S, D) binds the first two columns of `cost`.
        let cols: Vec<usize> = rule.aggregate_probe.iter().map(|(c, _)| *c).collect();
        assert_eq!(cols, vec![0, 1]);
    }

    #[test]
    fn tables_index_exactly_the_columns_plans_probe() {
        fn probed<'a>(cp: &'a CompiledProgram, relation: &str) -> &'a [usize] {
            let spec = cp.tables.iter().find(|t| t.schema.name == relation);
            spec.map_or(&[], |t| t.probed.as_slice())
        }
        let cp = CompiledProgram::from_source(MINCOST).unwrap();
        // One spec per catalog relation, in name order, sharing its schema.
        let names: Vec<&str> = cp.tables.iter().map(|t| t.schema.name.as_str()).collect();
        assert_eq!(names, ["cost", "link", "minCost", "r2_aux"]);
        for (spec, schema) in cp.tables.iter().zip(cp.catalog.shared_schemas()) {
            assert!(Arc::ptr_eq(&spec.schema, schema));
            assert_eq!(spec.relation, Sym::new(&schema.name));
        }
        // r3 re-scans its group (S, D) of `cost`; r2 joins `r2_aux` and
        // `minCost` on Z, whichever arrives second. Nothing probes `link`,
        // which only triggers, nor any cost column.
        assert_eq!(probed(&cp, "cost"), [0, 1]);
        assert_eq!(probed(&cp, "minCost"), [0]);
        assert_eq!(probed(&cp, "r2_aux"), [0]);
        assert!(probed(&cp, "link").is_empty());

        // Every engine's table of a relation is the program's spec, shared
        // (the platform's engines are held to it in
        // `nettrails::platform::tests::mincost_converges_on_a_line`).
        let program = Arc::new(cp);
        let mut engines = ["a", "b"].map(|node| {
            let engine = crate::NodeEngine::new(program.clone(), crate::EngineConfig::new(node));
            (node, engine)
        });
        for (node, engine) in &mut engines {
            let to = if *node == "a" { "b" } else { "a" };
            let link = vec![Value::addr(*node), Value::addr(to), Value::Int(1)];
            engine.insert_base(crate::Tuple::new("link", link)).unwrap();
            engine.run();
        }
        for (_, engine) in &engines {
            let tables: Vec<_> = engine.database().tables().collect();
            assert_eq!(tables.len(), program.tables.len());
            for (table, spec) in tables.into_iter().zip(&program.tables) {
                assert!(std::ptr::eq::<TableSpec>(&**table, &**spec));
            }
        }

        // Constants, negated atoms and full (reconciliation) plans count.
        let cp =
            CompiledProgram::from_source("r1 out(@S) :- a(@S,Z), b(@S,Z,5), !c(@S,Z).").unwrap();
        assert_eq!(probed(&cp, "a"), [0, 1]);
        assert_eq!(probed(&cp, "b"), [0, 1, 2]);
        assert_eq!(probed(&cp, "c"), [0, 1]);
        assert!(probed(&cp, "out").is_empty());
    }

    #[test]
    fn negation_triggers_are_recorded() {
        let cp =
            CompiledProgram::from_source("r1 isolated(@N,M) :- node(@N), peer(@N,M), !link(@N,M).")
                .unwrap();
        assert_eq!(cp.negation_triggers[&Sym::new("link")], vec![0]);
        assert!(cp.rules[0].has_negation());
    }

    fn lowered(src: &str) -> SlotProgram {
        SlotProgram::compile(&ndlog::parse_rule(src).expect("test rule parses"))
    }

    #[test]
    fn slot_table_has_one_slot_per_distinct_variable() {
        // S and Z repeat across atoms, C only exists through the assignment,
        // the wildcard takes no slot, the head adds nothing new.
        let p = lowered("r1 out(@S,D,C) :- a(@S,Z,_), b(@S,Z,D,Z), C := D + 1, C < 9.");
        assert_eq!(p.names, ["S", "Z", "D", "C"]);
        assert_eq!(p.slot_count(), 4);
        assert_eq!(
            p.positive[0].terms,
            [SlotTerm::Slot(0), SlotTerm::Slot(1), SlotTerm::Wild]
        );
        // A variable repeated inside one atom is the same slot twice.
        assert_eq!(p.positive[1].terms[1], p.positive[1].terms[3]);
        assert!(matches!(p.steps[0], SlotStep::Assign { slot: 3, .. }));
        assert_eq!(
            p.head.terms,
            [SlotTerm::Slot(0), SlotTerm::Slot(2), SlotTerm::Slot(3)]
        );
        assert_eq!(p.slot_of("Z"), Some(1));
        assert_eq!(p.slot_of("Q"), None);
    }

    #[test]
    fn constants_and_aggregates_lower_to_values_and_slots() {
        let cp = CompiledProgram::from_source(
            "materialize(hops, infinity, infinity, keys(1,2)).\n\
             r1 hops(@S,\"all\",min<L>) :- route(@S,\"x\",2.5,P), L := f_size(P).",
        )
        .unwrap();
        let rule = cp.rule("r1").unwrap();
        assert_eq!(
            rule.slots.positive[0].terms[1],
            SlotTerm::Const(Value::str("x"))
        );
        assert_eq!(
            rule.slots.positive[0].terms[2],
            SlotTerm::Const(Value::Double(2.5))
        );
        assert_eq!(rule.slots.head.terms[1], SlotTerm::Const(Value::str("all")));
        assert_eq!(rule.slots.head.terms[2], SlotTerm::Agg);
        // The aggregated variable is bound by the assignment, not the atom.
        let spec = rule.aggregate.as_ref().unwrap();
        assert_eq!(spec.slot, rule.slots.slot_of("L"));
        assert!(matches!(
            &rule.slots.steps[0],
            SlotStep::Assign {
                expr: SlotExpr::Call {
                    func: BuiltinFn::Size,
                    ..
                },
                ..
            }
        ));
        // count<*> aggregates no variable.
        let cp = CompiledProgram::from_source("r1 n(@S,count<*>) :- e(@S,A).").unwrap();
        assert_eq!(cp.rules[0].aggregate.as_ref().unwrap().slot, None);
    }

    /// Every constant where an address goes compiles to an address: in body,
    /// negated and head atoms, and beside an address variable in `==`, `!=`
    /// and `:=`. Texts elsewhere stay texts.
    #[test]
    fn texts_where_addresses_go_compile_to_addresses() {
        let cp = CompiledProgram::from_source(
            "r1 out(@\"n9\",S,\"x\") :- link(@S,\"n3\",C), !link(@S,\"n4\",C), \
             D := \"n5\", S != \"n6\", \"n7\" == S, link(@S,D,C2), \"x\" != \"n8\".\n\
             r2 reach(@D,S) :- link(@S,D,C).",
        )
        .unwrap();
        let rule = cp.rule("r1").unwrap();
        let addr = |s: &str| SlotTerm::Const(Value::addr(s));
        assert_eq!(rule.slots.head.terms[0], addr("n9"));
        assert_eq!(rule.slots.head.terms[2], SlotTerm::Const(Value::str("x")));
        assert_eq!(rule.slots.positive[0].terms[1], addr("n3"));
        assert_eq!(rule.slots.negated[0].terms[1], addr("n4"));
        let constants: Vec<Value> = (rule.slots.steps.iter())
            .flat_map(|step| match step {
                SlotStep::Assign { expr, .. } => vec![expr],
                SlotStep::Filter(SlotExpr::Binary { lhs, rhs, .. }) => vec![&**lhs, &**rhs],
                SlotStep::Filter(other) => vec![other],
            })
            .filter_map(|expr| match expr {
                SlotExpr::Const(value) => Some(value.clone()),
                _ => None,
            })
            .collect();
        let want = [
            Value::addr("n5"),
            Value::addr("n6"),
            Value::addr("n7"),
            Value::str("x"),
            Value::str("n8"),
        ];
        assert_eq!(constants, want);
    }

    /// A constant that is not a text cannot stand where an address goes.
    #[test]
    fn a_number_where_an_address_goes_is_a_schema_error() {
        for rule in [
            "r1 hop(@S,C) :- link(@S,5,C).",
            "r1 hop(@S,C) :- link(@S,D,C), D == 5.",
            "r1 hop(@S,C) :- link(@S,D,C), D := 5.",
        ] {
            let src = format!("{rule}\nr2 reach(@D,S) :- link(@S,D,C).");
            let err = CompiledProgram::from_source(&src).unwrap_err();
            assert!(matches!(err, RuntimeError::Schema(_)), "{rule}: {err}");
        }
        // Where `link.1` is no address, 5 is just a number.
        assert!(CompiledProgram::from_source("r1 hop(@S,C) :- link(@S,5,C).").is_ok());
    }

    #[test]
    fn a_filter_over_a_never_bound_variable_rejects_instead_of_panicking() {
        use crate::eval::Frame;
        use crate::tuple::Tuple;
        // The validator refuses this rule; lowered directly, Q still gets a
        // slot, nothing ever fills it, and the filter fails to evaluate.
        let p = lowered("r1 out(@S) :- a(@S,X), Q > 1.");
        assert_eq!(p.names, ["S", "X", "Q"]);
        let mut frame = Frame::new();
        frame.reset(p.slot_count());
        let row = Tuple::new("a", vec![Value::addr("n1"), Value::Int(5)]);
        assert!(p.positive[0].match_row(&row, &mut frame));
        assert!(!p.apply_steps(&mut frame));
    }

    #[test]
    fn an_unknown_builtin_is_refused_by_validation_and_rejects_when_lowered_anyway() {
        use crate::eval::Frame;
        let err =
            CompiledProgram::from_source("r1 out(@S,Y) :- a(@S,X), Y := f_nosuch(X).").unwrap_err();
        assert!(err.to_string().contains("unknown builtin"));
        let p = lowered("r1 out(@S,Y) :- a(@S,X), Y := f_nosuch(X).");
        assert!(matches!(
            &p.steps[0],
            SlotStep::Assign { expr: SlotExpr::UnknownCall(name), .. } if name == "f_nosuch"
        ));
        let mut frame = Frame::new();
        frame.reset(p.slot_count());
        frame.set(p.slot_of("X").unwrap(), Value::Int(1));
        assert!(!p.apply_steps(&mut frame));
    }
}
