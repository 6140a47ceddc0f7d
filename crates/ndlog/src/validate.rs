//! Semantic validation of parsed NDlog programs.
//!
//! The checks mirror what the RapidNet front-end enforces before code
//! generation:
//!
//! 1. **Safety**: every head variable (and every variable used in a filter or
//!    on the right-hand side of an assignment) must be bound by a positive
//!    body atom or by an earlier assignment.
//! 2. **Location well-formedness**: every atom of a rule must have exactly one
//!    location specifier (the convention in NDlog is that the first attribute
//!    carries `@`), and the head must have one too.
//! 3. **Link restriction** (distribution safety) is not checked here:
//!    [`crate::localize::localize_program`] enforces it when it splits a rule
//!    across two locations, and refuses a rule whose locations no positive
//!    atom links.
//! 4. **Aggregates**: at most one aggregate per head, and the aggregated
//!    variable must be bound in the body.
//! 5. **Builtins**: called functions must exist and have the right arity.
//! 6. **Negation**: negated atoms must be fully bound by positive atoms
//!    (safe negation).
//! 7. **Duplicate rule names** are rejected.

use crate::ast::{BodyElem, Expr, Predicate, Program, Rule, RuleKind, Term};
use crate::builtins;
use crate::error::{NdlogError, Result};
use std::collections::BTreeSet;

/// Validate a whole program. Returns the first problem found.
pub fn validate_program(program: &Program) -> Result<()> {
    let mut names = BTreeSet::new();
    for rule in &program.rules {
        if !names.insert(rule.name.clone()) {
            return Err(NdlogError::validation(
                Some(&rule.name),
                "duplicate rule name",
            ));
        }
        validate_rule(rule)?;
    }
    validate_materializations(program)?;
    Ok(())
}

fn validate_materializations(program: &Program) -> Result<()> {
    let mut seen = BTreeSet::new();
    for m in &program.materializations {
        if !seen.insert(m.relation.clone()) {
            return Err(NdlogError::validation(
                None,
                format!("relation `{}` materialized twice", m.relation),
            ));
        }
        if m.keys.is_empty() {
            return Err(NdlogError::validation(
                None,
                format!("materialize({}) needs at least one key column", m.relation),
            ));
        }
        // Key indices must be consistent with any atom of that relation in the
        // program (if the relation appears at all).
        let arity = program
            .rules
            .iter()
            .flat_map(|r| {
                std::iter::once(&r.head)
                    .chain(r.body_atoms())
                    .filter(|p| p.relation == m.relation)
                    .map(|p| p.arity())
            })
            .next();
        if let Some(arity) = arity {
            for &k in &m.keys {
                if k > arity {
                    return Err(NdlogError::validation(
                        None,
                        format!(
                            "materialize({}): key column {k} exceeds arity {arity}",
                            m.relation
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Validate a single rule.
///
/// `maybe` rules (`?-`) are exempt from the safety and location checks: their
/// head describes an *observed* output of a black-box application, so its
/// variables are bound by the observation rather than by the body, and legacy
/// relations do not necessarily carry location specifiers.
pub fn validate_rule(rule: &Rule) -> Result<()> {
    if rule.kind == RuleKind::Maybe {
        check_aggregates(rule)?;
        check_builtins(rule)?;
        return Ok(());
    }
    check_locations(rule)?;
    check_safety(rule)?;
    check_aggregates(rule)?;
    check_builtins(rule)?;
    Ok(())
}

fn check_locations(rule: &Rule) -> Result<()> {
    let head_locs = rule.head.terms.iter().filter(|t| t.is_location()).count();
    if head_locs != 1 {
        return Err(NdlogError::validation(
            Some(&rule.name),
            format!(
                "head of `{}` must have exactly one location specifier (found {head_locs})",
                rule.head.relation
            ),
        ));
    }
    for atom in rule.body_atoms() {
        let locs = atom.terms.iter().filter(|t| t.is_location()).count();
        if locs != 1 {
            return Err(NdlogError::validation(
                Some(&rule.name),
                format!(
                    "body atom `{}` must have exactly one location specifier (found {locs})",
                    atom.relation
                ),
            ));
        }
    }
    Ok(())
}

fn bound_variables(rule: &Rule) -> BTreeSet<String> {
    let mut bound: BTreeSet<String> = BTreeSet::new();
    for elem in &rule.body {
        match elem {
            BodyElem::Atom(p) if !p.negated => {
                for v in p.variables() {
                    bound.insert(v);
                }
            }
            BodyElem::Assign { var, .. } => {
                bound.insert(var.clone());
            }
            _ => {}
        }
    }
    bound
}

fn check_safety(rule: &Rule) -> Result<()> {
    let bound = bound_variables(rule);
    // Head variables must be bound.
    for term in &rule.head.terms {
        match term {
            Term::Variable { name, .. } if !bound.contains(name) => {
                return Err(NdlogError::validation(
                    Some(&rule.name),
                    format!("head variable `{name}` is not bound in the body"),
                ));
            }
            Term::Aggregate(a) if a.var != "*" && !bound.contains(&a.var) => {
                return Err(NdlogError::validation(
                    Some(&rule.name),
                    format!("aggregated variable `{}` is not bound in the body", a.var),
                ));
            }
            _ => {}
        }
    }
    // Variables used in filters / assignments / negated atoms must be bound by
    // positive atoms or earlier assignments; we approximate "earlier" by the
    // whole-body bound set minus the assignment's own target (assignment
    // chains are ordered by the runtime planner anyway).
    for elem in &rule.body {
        match elem {
            BodyElem::Filter(expr) => {
                let mut vars = Vec::new();
                expr.variables(&mut vars);
                for v in vars {
                    if !bound.contains(&v) {
                        return Err(NdlogError::validation(
                            Some(&rule.name),
                            format!("variable `{v}` in selection is not bound"),
                        ));
                    }
                }
            }
            BodyElem::Assign { var, expr } => {
                let mut vars = Vec::new();
                expr.variables(&mut vars);
                for v in vars {
                    if v != *var && !bound.contains(&v) {
                        return Err(NdlogError::validation(
                            Some(&rule.name),
                            format!("variable `{v}` in assignment to `{var}` is not bound"),
                        ));
                    }
                }
            }
            BodyElem::Atom(p) if p.negated => {
                for v in p.variables() {
                    if !bound.contains(&v) {
                        return Err(NdlogError::validation(
                            Some(&rule.name),
                            format!("variable `{v}` appears only in a negated atom"),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn check_aggregates(rule: &Rule) -> Result<()> {
    let n_aggs = rule
        .head
        .terms
        .iter()
        .filter(|t| matches!(t, Term::Aggregate(_)))
        .count();
    if n_aggs > 1 {
        return Err(NdlogError::validation(
            Some(&rule.name),
            "at most one aggregate per rule head is supported",
        ));
    }
    // Aggregates in the body are not allowed at all.
    for atom in rule.body_atoms() {
        if atom.aggregate_column().is_some() {
            return Err(NdlogError::validation(
                Some(&rule.name),
                "aggregates may only appear in rule heads",
            ));
        }
    }
    Ok(())
}

fn collect_calls(expr: &Expr, out: &mut Vec<(String, usize)>) {
    match expr {
        Expr::Call { func, args } => {
            out.push((func.clone(), args.len()));
            for a in args {
                collect_calls(a, out);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_calls(lhs, out);
            collect_calls(rhs, out);
        }
        Expr::Unary { expr, .. } => collect_calls(expr, out),
        _ => {}
    }
}

fn check_builtins(rule: &Rule) -> Result<()> {
    let mut calls = Vec::new();
    for elem in &rule.body {
        match elem {
            BodyElem::Assign { expr, .. } | BodyElem::Filter(expr) => {
                collect_calls(expr, &mut calls)
            }
            _ => {}
        }
    }
    for (name, arity) in calls {
        match builtins::lookup(&name) {
            Some(b) if b.arity == arity => {}
            Some(b) => {
                return Err(NdlogError::validation(
                    Some(&rule.name),
                    format!(
                        "builtin `{name}` called with {arity} argument(s), expected {}",
                        b.arity
                    ),
                ))
            }
            None => {
                return Err(NdlogError::validation(
                    Some(&rule.name),
                    format!("unknown builtin function `{name}`"),
                ))
            }
        }
    }
    Ok(())
}

/// Check a predicate for consistent arity across a set of uses. Exposed for
/// catalog construction in the runtime.
pub fn consistent_arity<'a>(uses: impl IntoIterator<Item = &'a Predicate>) -> Option<usize> {
    let mut arity = None;
    for p in uses {
        match arity {
            None => arity = Some(p.arity()),
            Some(a) if a == p.arity() => {}
            Some(_) => return None,
        }
    }
    arity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn validate_src(src: &str) -> Result<()> {
        validate_program(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_path_vector_style_program() {
        validate_src(
            "materialize(link, infinity, infinity, keys(1,2)).\n\
             r1 path(@S,D,P,C) :- link(@S,D,C), P := f_initlist2(S, D).\n\
             r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), \
                 f_member(P2, S) == 0, C := C1 + C2, P := f_prepend(S, P2).\n\
             r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).",
        )
        .unwrap();
    }

    #[test]
    fn rejects_unsafe_head_variable() {
        let err = validate_src("r1 out(@A,X) :- link(@A,B).").unwrap_err();
        assert!(err.to_string().contains("not bound"));
    }

    #[test]
    fn rejects_missing_location_specifier() {
        let err = validate_src("r1 out(A,B) :- link(@A,B).").unwrap_err();
        assert!(err.to_string().contains("location specifier"));
    }

    #[test]
    fn rejects_two_location_specifiers_in_one_atom() {
        let err = validate_src("r1 out(@A,B) :- link(@A,@B).").unwrap_err();
        assert!(err.to_string().contains("exactly one location"));
    }

    #[test]
    fn rejects_unknown_builtin_and_bad_arity() {
        let err = validate_src("r1 out(@A,X) :- in(@A,X), f_nosuch(X) == 1.").unwrap_err();
        assert!(err.to_string().contains("unknown builtin"));
        let err = validate_src("r1 out(@A,X) :- in(@A,X), f_isExtend(X) == 1.").unwrap_err();
        assert!(err.to_string().contains("expected 3"));
    }

    #[test]
    fn rejects_unsafe_negation() {
        // C appears only in the negated atom — unsafe.
        let err = validate_src("r1 out(@A,A) :- node(@A), !link(@A,C).").unwrap_err();
        assert!(err.to_string().contains("negated"));
        // But a negated atom whose variables are all bound elsewhere is fine.
        validate_src("r1 out(@A,B) :- node(@A), peer(@A,B), !link(@A,B).").unwrap();
    }

    #[test]
    fn rejects_duplicate_rule_names() {
        let err = validate_src(
            "r1 a(@X) :- b(@X).\n\
             r1 c(@X) :- b(@X).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_multiple_aggregates() {
        let err = validate_src("r1 agg(@S,min<C>,max<C>) :- cost(@S,D,C).").unwrap_err();
        assert!(err.to_string().contains("at most one aggregate"));
    }

    #[test]
    fn rejects_bad_materialize_keys() {
        let err = validate_src(
            "materialize(link, infinity, infinity, keys(5)).\n\
             r1 out(@A,B) :- link(@A,B).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("exceeds arity"));
    }

    #[test]
    fn consistent_arity_detects_mismatch() {
        let p = parse_program(
            "r1 a(@X,Y) :- b(@X,Y).\n\
             r2 c(@X) :- b(@X,Y,Z).",
        )
        .unwrap();
        let uses: Vec<&Predicate> = p
            .rules
            .iter()
            .flat_map(|r| r.body_atoms())
            .filter(|a| a.relation == "b")
            .collect();
        assert_eq!(consistent_arity(uses), None);
    }
}
