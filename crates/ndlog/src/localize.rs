//! Rule localization analysis.
//!
//! NDlog rules are evaluated in a *distributed* fashion: every tuple lives at
//! the node named by its location specifier, and a rule can only join tuples
//! that are co-located. The RapidNet/ExSPAN convention (inherited from the
//! original Declarative Networking work) is:
//!
//! * a rule whose positive body atoms all share the same location variable is
//!   a **local rule** — it executes at that node;
//! * a rule whose head location differs from the body location is a **send
//!   rule** — it executes where the body lives and the derived head tuple is
//!   shipped to the node named by the head's location attribute;
//! * a rule whose body atoms mention two different location variables is only
//!   legal when one atom is *link-restricted*: some body atom (typically
//!   `link(@S,Z,...)`) mentions both location variables, so the rule can be
//!   evaluated at the first location and the remote atom's tuples are
//!   *streamed* to it by a prior send rule. In this implementation we follow
//!   ExSPAN and require the programmer (or the protocol library) to have
//!   already localized such rules; the analysis flags non-localizable rules.
//!
//! The output of the analysis — a [`LocalizedRule`] — records which variable
//! names the rule's execution location and whether head tuples must be
//! shipped. The runtime uses it to decide where to run joins and when to hand
//! tuples to the network layer; the provenance rewriter uses it to place
//! `ruleExec` tuples at the correct node.

use crate::ast::{Rule, Term};
use crate::error::{NdlogError, Result};

/// Where a rule executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleLocation {
    /// Execution location is the value bound to this variable (the common
    /// case: all body atoms share a location variable).
    Variable(String),
    /// Execution location is a constant node name (body atoms pinned with
    /// `@"n1"`).
    Constant(String),
}

impl RuleLocation {
    /// The variable name, if the location is variable-valued.
    pub fn as_variable(&self) -> Option<&str> {
        match self {
            RuleLocation::Variable(v) => Some(v),
            RuleLocation::Constant(_) => None,
        }
    }
}

/// The result of localizing a single rule.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizedRule {
    /// The rule itself (unmodified).
    pub rule: Rule,
    /// Where the rule's joins are evaluated.
    pub exec_location: RuleLocation,
    /// True when the head's location differs from the execution location, in
    /// which case the derived tuple is shipped over the network to its home
    /// node.
    pub sends_head: bool,
    /// Location variables appearing in body atoms other than the execution
    /// location (the "remote" side of a link-restricted rule). Empty for
    /// purely local rules.
    pub remote_locations: Vec<String>,
}

/// Localize every rule of a program.
pub fn localize_rules(rules: &[Rule]) -> Result<Vec<LocalizedRule>> {
    rules.iter().map(localize_rule).collect()
}

/// Localize one rule. Fails when the rule cannot be executed at a single node
/// (its body atoms disagree on location and no atom bridges the locations).
pub fn localize_rule(rule: &Rule) -> Result<LocalizedRule> {
    let mut body_locs: Vec<LocSpec> = Vec::new();
    for atom in rule.positive_atoms() {
        if let Some(spec) = atom_location(atom) {
            if !body_locs.contains(&spec) {
                body_locs.push(spec);
            }
        }
    }
    if body_locs.is_empty() {
        // No positive atoms with a location (e.g. a rule driven only by
        // constants); execute at the head's location.
        let head = atom_location(&rule.head).ok_or_else(|| {
            NdlogError::validation(Some(&rule.name), "rule has no location specifier at all")
        })?;
        return Ok(LocalizedRule {
            rule: rule.clone(),
            exec_location: head.clone().into_rule_location(),
            sends_head: false,
            remote_locations: Vec::new(),
        });
    }

    // Pick the execution location: the location of the *first* body atom, the
    // standard NDlog convention ("the rule is evaluated where its event /
    // first predicate resides").
    let exec = body_locs[0].clone();

    // Any other body location must be "bridged": some positive atom must
    // mention both the execution location variable and the other location
    // variable among its (non-location) arguments — the classic
    // link-restriction. Otherwise the program should have been rewritten.
    let mut remote = Vec::new();
    for other in body_locs.iter().skip(1) {
        match (&exec, other) {
            (LocSpec::Var(ev), LocSpec::Var(ov)) => {
                let bridged = rule.positive_atoms().any(|a| {
                    let vars: Vec<String> = a.variables();
                    vars.iter().any(|v| v == ev) && vars.iter().any(|v| v == ov)
                });
                if !bridged {
                    return Err(NdlogError::validation(
                        Some(&rule.name),
                        format!(
                            "body atoms live at different, unlinked locations `{ev}` and `{ov}`; \
                             rewrite the rule (link restriction) before execution"
                        ),
                    ));
                }
                remote.push(ov.clone());
            }
            // Mixed constant/variable locations are always allowed: the
            // runtime ships tuples explicitly.
            (_, LocSpec::Var(ov)) => remote.push(ov.clone()),
            (_, LocSpec::Const(_)) => {}
        }
    }

    let head_loc = atom_location(&rule.head);
    let sends_head = match (&exec, &head_loc) {
        (LocSpec::Var(ev), Some(LocSpec::Var(hv))) => ev != hv,
        (LocSpec::Const(ec), Some(LocSpec::Const(hc))) => ec != hc,
        (_, Some(_)) => true,
        (_, None) => false,
    };

    Ok(LocalizedRule {
        rule: rule.clone(),
        exec_location: exec.into_rule_location(),
        sends_head,
        remote_locations: remote,
    })
}

/// Internal representation of an atom's location specifier.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LocSpec {
    Var(String),
    Const(String),
}

impl LocSpec {
    fn into_rule_location(self) -> RuleLocation {
        match self {
            LocSpec::Var(v) => RuleLocation::Variable(v),
            LocSpec::Const(c) => RuleLocation::Constant(c),
        }
    }
}

fn atom_location(p: &crate::ast::Predicate) -> Option<LocSpec> {
    p.terms.iter().find(|t| t.is_location()).map(|t| match t {
        Term::Variable { name, .. } => LocSpec::Var(name.clone()),
        Term::Constant { value, .. } => {
            LocSpec::Const(value.to_string().trim_matches('"').to_string())
        }
        _ => unreachable!("aggregates/wildcards cannot carry @"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rule;

    #[test]
    fn local_rule_is_not_a_send_rule() {
        let rule = parse_rule("r1 cost(@S,D,C) :- link(@S,D,C).").unwrap();
        let lr = localize_rule(&rule).unwrap();
        assert_eq!(lr.exec_location, RuleLocation::Variable("S".into()));
        assert!(!lr.sends_head);
        assert!(lr.remote_locations.is_empty());
    }

    #[test]
    fn send_rule_detected_when_head_location_differs() {
        // Executes at S (location of the first atom) and ships `cost` to Z? No:
        // head is at @D which is a plain variable of the body -> shipped.
        let rule = parse_rule("r1 reach(@D,S) :- link(@S,D,C).").unwrap();
        let lr = localize_rule(&rule).unwrap();
        assert_eq!(lr.exec_location, RuleLocation::Variable("S".into()));
        assert!(lr.sends_head);
    }

    #[test]
    fn link_restricted_rule_is_accepted() {
        // link(@S,Z,..) mentions both S and Z, so joining with cost(@Z,..) is
        // legal (the classic path-vector pattern).
        let rule =
            parse_rule("r2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C := C1 + C2.").unwrap();
        let lr = localize_rule(&rule).unwrap();
        assert_eq!(lr.exec_location, RuleLocation::Variable("S".into()));
        assert_eq!(lr.remote_locations, vec!["Z".to_string()]);
        assert!(!lr.sends_head);
    }

    #[test]
    fn unlinked_locations_are_rejected() {
        let rule = parse_rule("r1 bad(@S,D) :- a(@S,X), b(@D,Y).").unwrap();
        let err = localize_rule(&rule).unwrap_err();
        assert!(err.to_string().contains("unlinked"));
    }

    #[test]
    fn constant_location_rule() {
        let rule = parse_rule("r1 report(@\"collector\",N,C) :- status(@N,C).").unwrap();
        let lr = localize_rule(&rule).unwrap();
        assert_eq!(lr.exec_location, RuleLocation::Variable("N".into()));
        assert!(lr.sends_head);
    }

    #[test]
    fn localize_rules_processes_all() {
        let rules = vec![
            parse_rule("r1 cost(@S,D,C) :- link(@S,D,C).").unwrap(),
            parse_rule("r3 minCost(@S,D,min<C>) :- cost(@S,D,C).").unwrap(),
        ];
        let localized = localize_rules(&rules).unwrap();
        assert_eq!(localized.len(), 2);
        assert!(localized.iter().all(|lr| !lr.sends_head));
    }
}
