//! Localization: where a rule runs, and the rewrite that leaves every rule
//! body at one location.
//!
//! Every tuple lives at the node its location specifier names, and a node
//! joins only the tuples it holds. A rule runs at the location of its first
//! located positive body atom, or at its head's when the body has none
//! ([`exec_location`], the one reading of that convention); a head that
//! lives elsewhere is shipped to its home. A *link-restricted* rule joins
//! atoms at two locations that some positive atom mentions together, e.g.
//! the path-vector step
//!
//! ```text
//! r2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C := C1 + C2.
//! ```
//!
//! The declarative-networking localization rewrite (Loo et al., as RapidNet
//! implements it), [`localize_program`], splits such a rule into one that
//! ships what the remote side needs in an auxiliary relation and one that
//! runs there:
//!
//! ```text
//! r2_s1 r2_aux(@Z,S,C1)  :- link(@S,Z,C1).
//! r2    cost(@S,D,C)     :- r2_aux(@Z,S,C1), cost(@Z,D,C2), C := C1 + C2.
//! ```
//!
//! Afterwards only head tuples travel. The runtime compiles the localized
//! program, and the provenance rewrite places `ruleExec` through
//! [`exec_location`], so both read one placement.

use crate::ast::{BodyElem, Materialize, Predicate, Program, Rule, RuleKind, Term};
use crate::error::{NdlogError, Result};
use std::collections::BTreeSet;

/// Where `rule` runs: the location term (a variable or a constant node) of
/// its first located positive body atom, else its head's. `None` only for a
/// rule with no location specifier at all.
pub fn exec_location(rule: &Rule) -> Option<&Term> {
    let mut atoms = rule.positive_atoms().chain(std::iter::once(&rule.head));
    atoms.find_map(|atom| atom.terms.iter().find(|t| t.is_location()))
}

/// Rewrite `program` so that every rule's positive body atoms share one
/// location; rules that do already, and `maybe` rules (run by the legacy
/// proxy, not the engine), are kept verbatim. A link-restricted rule `rN`
/// becomes the ship rule `rN_s1` deriving `rN_aux` (declared with set
/// semantics, so late remote tuples still join) followed by `rN` over it.
pub fn localize_program(program: &Program) -> Result<Program> {
    let mut out = Program {
        materializations: program.materializations.clone(),
        rules: Vec::new(),
    };
    for rule in &program.rules {
        let split = match rule.kind {
            RuleKind::Maybe => None,
            RuleKind::Derive => locations(rule)?,
        };
        let Some((exec, remote)) = split else {
            out.rules.push(rule.clone());
            continue;
        };
        let (ship, local) = split_rule(rule, exec, remote);
        out.materializations.push(Materialize {
            relation: ship.head.relation.clone(),
            lifetime: None,
            max_size: None,
            keys: (1..=ship.head.terms.len()).collect(),
        });
        out.rules.extend([ship, local]);
    }
    Ok(out)
}

/// The execution and remote location variables of a rule whose body spans
/// two locations; `None` for a rule that runs where all its atoms live.
/// Refuses, in this order: a second variable location no positive atom links
/// to the first, more than two locations, and a first atom pinned to a
/// constant beside a remote variable.
fn locations(rule: &Rule) -> Result<Option<(&str, &str)>> {
    let refuse = |message: String| Err(NdlogError::validation(Some(&rule.name), message));
    let Some(exec) = exec_location(rule) else {
        return refuse("rule has no location specifier at all".into());
    };
    let exec_var = exec.as_variable();
    let mut remote: Vec<&str> = Vec::new();
    for atom in rule.positive_atoms() {
        // Constant-located atoms stay with the local rule; the engine ships
        // their tuples explicitly.
        let Some(loc) = atom.location_variable() else {
            continue;
        };
        if Some(loc) == exec_var || remote.contains(&loc) {
            continue;
        }
        if let Some(ev) = exec_var {
            let linked = rule.positive_atoms().any(|a| {
                let vars = a.variables();
                vars.iter().any(|v| v == ev) && vars.iter().any(|v| v == loc)
            });
            if !linked {
                return refuse(format!(
                    "body atoms live at different, unlinked locations `{ev}` and `{loc}`; \
                     rewrite the rule (link restriction) before execution"
                ));
            }
        }
        remote.push(loc);
    }
    match (exec_var, remote.as_slice()) {
        (_, []) => Ok(None),
        (_, [_, _, ..]) => refuse(
            "rules spanning more than two locations are not supported; split the rule manually"
                .into(),
        ),
        (None, _) => refuse(
            "cannot localize a rule whose first atom is pinned to a constant location".into(),
        ),
        (Some(exec), &[remote]) => Ok(Some((exec, remote))),
    }
}

/// Split one link-restricted rule into its ship rule and its local rule.
fn split_rule(rule: &Rule, exec: &str, remote: &str) -> (Rule, Rule) {
    let (mut exec_atoms, mut remote_atoms, mut rest) = (Vec::new(), Vec::new(), Vec::new());
    for elem in &rule.body {
        match elem {
            BodyElem::Atom(p) if !p.negated && p.location_variable() == Some(exec) => {
                exec_atoms.push(elem.clone())
            }
            BodyElem::Atom(p) if !p.negated => remote_atoms.push(elem.clone()),
            other => rest.push(other.clone()),
        }
    }
    // What the rest of the rule reads: remote atoms, filters, assignments,
    // negated atoms and the head.
    let mut needed: BTreeSet<String> = rule.head.variables().into_iter().collect();
    for elem in remote_atoms.iter().chain(&rest) {
        match elem {
            BodyElem::Atom(p) => needed.extend(p.variables()),
            BodyElem::Assign { expr, .. } | BodyElem::Filter(expr) => {
                let mut vars = Vec::new();
                expr.variables(&mut vars);
                needed.extend(vars);
            }
        }
    }
    // The aux tuple lives at the remote location and carries, sorted, every
    // exec-side variable the rest reads.
    let exec_vars: BTreeSet<String> = exec_atoms
        .iter()
        .filter_map(BodyElem::as_atom)
        .flat_map(Predicate::variables)
        .collect();
    let mut aux_terms = vec![Term::loc_var(remote)];
    aux_terms.extend(
        exec_vars
            .iter()
            .filter(|v| needed.contains(*v) && *v != remote)
            .map(Term::var),
    );
    let aux = Predicate::new(format!("{}_aux", rule.name), aux_terms);
    let ship = Rule {
        name: format!("{}_s1", rule.name),
        head: aux.clone(),
        body: exec_atoms,
        kind: RuleKind::Derive,
    };
    let mut body = vec![BodyElem::Atom(aux)];
    body.extend(remote_atoms);
    body.extend(rest);
    let local = Rule {
        body,
        ..rule.clone()
    };
    (ship, local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_program, parse_rule};

    fn exec_of(src: &str) -> String {
        exec_location(&parse_rule(src).unwrap())
            .unwrap()
            .to_string()
    }

    #[test]
    fn local_rule_is_not_a_send_rule() {
        let rule = parse_rule("r1 cost(@S,D,C) :- link(@S,D,C).").unwrap();
        assert_eq!(exec_location(&rule), Some(&Term::loc_var("S")));
        assert_eq!(locations(&rule).unwrap(), None);
    }

    #[test]
    fn send_rule_detected_when_head_location_differs() {
        // Runs at S, where `link` lives; `reach` is shipped to D.
        assert_eq!(exec_of("r1 reach(@D,S) :- link(@S,D,C)."), "@S");
    }

    #[test]
    fn link_restricted_rule_is_accepted() {
        // link(@S,Z,..) mentions both S and Z, so joining with cost(@Z,..) is
        // legal (the classic path-vector pattern).
        let rule =
            parse_rule("r2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C := C1 + C2.").unwrap();
        assert_eq!(locations(&rule).unwrap(), Some(("S", "Z")));
    }

    #[test]
    fn unlinked_locations_are_rejected() {
        let rule = parse_rule("r1 bad(@S,D) :- a(@S,X), b(@D,Y).").unwrap();
        let err = locations(&rule).unwrap_err().to_string();
        assert!(err.contains("unlinked") && err.contains("`r1`"), "{err}");
    }

    #[test]
    fn constant_location_rule() {
        // A constant head: the rule runs at N and ships to the collector.
        assert_eq!(
            exec_of("r1 report(@\"collector\",N,C) :- status(@N,C)."),
            "@N"
        );
        // A first atom pinned to a constant: the rule runs at that node.
        assert_eq!(exec_of("r1 x(@S) :- y(@\"n1\",S)."), "@\"n1\"");
        // No located body atom: the head's location.
        assert_eq!(exec_of("r1 x(@\"n1\",X) :- X := 1."), "@\"n1\"");
    }

    #[test]
    fn localize_rules_processes_all() {
        let program = parse_program(
            "r1 cost(@S,D,C) :- link(@S,D,C).\n\
             r2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C := C1 + C2.\n\
             r3 minCost(@S,D,min<C>) :- cost(@S,D,C).",
        )
        .unwrap();
        let localized = localize_program(&program).unwrap();
        let names: Vec<&str> = localized.rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["r1", "r2_s1", "r2", "r3"]);
        for rule in &localized.rules {
            assert_eq!(locations(rule).unwrap(), None, "{}", rule.name);
        }
    }
}
