//! The automatic provenance rule-rewriting algorithm.
//!
//! ExSPAN captures provenance *declaratively*: "an automatic rule rewriting
//! algorithm takes as input an NDlog program and outputs a modified program
//! that contains additional rules for capturing the program's provenance
//! information. These additional rules define network provenance in terms of
//! views over base and derived tuples" (NetTrails, Section 2.2).
//!
//! [`rewrite_for_provenance`] reproduces that rewrite at the NDlog level: for
//! every derivation rule `rN h(@HLoc, ...) :- b1(@L, ...), ..., bk(@L, ...)` of
//! a (localized) program it appends
//!
//! ```text
//! rN_exec ruleExec(@L, RID, "rN", VIDLIST) :- b1(@L,...), ..., bk(@L,...),
//!         VID1 := f_sha1(...), ..., VIDLIST := ..., RID := f_sha1(...).
//! rN_prov prov(@HLoc, VID, RID, L)         :- b1(@L,...), ..., bk(@L,...),
//!         ..., RID := f_sha1(...), VID := f_sha1(...).
//! ```
//!
//! `L`, where the rule runs, is [`ndlog::exec_location`]'s: the one placement
//! the runtime's localization reads too, a variable or a constant node.
//!
//! The rewritten program is what a pure NDlog deployment would execute. The
//! NetTrails runtime in this repository captures the same information through
//! the engine's firing stream (see [`crate::system`]), which avoids
//! re-deriving identifiers inside the interpreter. It writes the same facts
//! at the same time: `rN_prov` derives a remote head's `prov` tuple at the
//! rule's node and ships it to `@HLoc`, where it exists once delivered, and
//! the runtime reports that derivation where the head's own record is
//! delivered, from the rule, node and input ids the record carries. The
//! rewrite is nevertheless provided (and tested for validity) because it
//! *is* the paper's algorithm.

use ndlog::{
    exec_location, Aggregate, AggregateFunc, BodyElem, Expr, Literal, Materialize, Predicate,
    Program, Rule, RuleKind, Term,
};

/// Name of the provenance relation (`prov(@Loc, VID, RID, RLoc)`).
pub const PROV_RELATION: &str = "prov";
/// Name of the rule-execution relation (`ruleExec(@RLoc, RID, Rule, VIDList)`).
pub const RULE_EXEC_RELATION: &str = "ruleExec";

/// Rewrite a (localized) program so that it additionally derives the `prov`
/// and `ruleExec` relations. `maybe` rules are copied through unchanged —
/// their provenance is attributed by the legacy proxy at run time.
pub fn rewrite_for_provenance(program: &Program) -> Program {
    let mut out = program.clone();
    out.materializations.push(Materialize {
        relation: PROV_RELATION.to_string(),
        lifetime: None,
        max_size: None,
        keys: vec![1, 2, 3, 4],
    });
    out.materializations.push(Materialize {
        relation: RULE_EXEC_RELATION.to_string(),
        lifetime: None,
        max_size: None,
        keys: vec![1, 2],
    });

    let mut generated = Vec::new();
    for rule in &program.rules {
        if rule.kind == RuleKind::Maybe {
            continue;
        }
        if let Some(pair) = rewrite_rule(rule) {
            generated.extend(pair);
        }
    }
    out.rules.extend(generated);
    out
}

/// Generate the `ruleExec` and `prov` capture rules for one derivation rule.
fn rewrite_rule(rule: &Rule) -> Option<Vec<Rule>> {
    // Where the rule runs, as localization decides it: `ruleExec`'s location
    // and, as a plain attribute, `prov`'s RLoc.
    let exec_loc = exec_location(rule)?.clone();
    let mut rloc = exec_loc.clone();
    if let Term::Variable { location, .. } | Term::Constant { location, .. } = &mut rloc {
        *location = false;
    }
    let head_loc = rule.head.location_variable().map(str::to_string)?;

    // VID expressions for every positive body atom: f_sha1 over a list of the
    // atom's attributes (a faithful, if verbose, NDlog rendering of the
    // content-addressed tuple identifier).
    let positive: Vec<&Predicate> = rule.positive_atoms().collect();
    let mut body: Vec<BodyElem> = rule.body.clone();
    let mut vid_vars = Vec::new();
    for (i, atom) in positive.iter().enumerate() {
        let vid_var = format!("Vid{}", i + 1);
        body.push(BodyElem::Assign {
            var: vid_var.clone(),
            expr: Expr::Call {
                func: "f_sha1".to_string(),
                args: vec![attr_list_expr(atom)],
            },
        });
        vid_vars.push(vid_var);
    }
    // VIDLIST := f_concat(...) chain.
    body.push(BodyElem::Assign {
        var: "VidList".to_string(),
        expr: vid_list_expr(&vid_vars),
    });
    // RID := f_sha1(VIDLIST) — the rule name and node are folded in by
    // including them in the hashed list.
    body.push(BodyElem::Assign {
        var: "Rid".to_string(),
        expr: Expr::Call {
            func: "f_sha1".to_string(),
            args: vec![Expr::Call {
                func: "f_concat".to_string(),
                args: vec![
                    Expr::Const(Literal::Str(rule.name.clone())),
                    Expr::Var("VidList".to_string()),
                ],
            }],
        },
    });

    // ruleExec(@ExecLoc, Rid, "ruleName", VidList)
    let exec_rule = Rule {
        name: format!("{}_exec", rule.name),
        head: Predicate::new(
            RULE_EXEC_RELATION,
            vec![
                exec_loc,
                Term::var("Rid"),
                Term::Constant {
                    value: Literal::Str(rule.name.clone()),
                    location: false,
                },
                Term::var("VidList"),
            ],
        ),
        body: body.clone(),
        kind: RuleKind::Derive,
    };

    // prov(@HeadLoc, Vid, Rid, ExecLoc) — the head tuple's VID hashes the head
    // attributes; the head may contain an aggregate, in which case the VID is
    // computed over the group attributes (the aggregate value is filled by the
    // aggregate rule itself and the provenance of aggregates is attributed to
    // the witness tuples at run time).
    let mut prov_body = body;
    prov_body.push(BodyElem::Assign {
        var: "HeadVid".to_string(),
        expr: Expr::Call {
            func: "f_sha1".to_string(),
            args: vec![attr_list_expr_head(&rule.head)],
        },
    });
    let prov_rule = Rule {
        name: format!("{}_prov", rule.name),
        head: Predicate::new(
            PROV_RELATION,
            vec![
                Term::loc_var(&head_loc),
                Term::var("HeadVid"),
                Term::var("Rid"),
                rloc,
            ],
        ),
        body: prov_body,
        kind: RuleKind::Derive,
    };
    Some(vec![exec_rule, prov_rule])
}

/// `f_concat("rel", f_concat(A1, f_concat(A2, ...)))` over an atom's terms.
fn attr_list_expr(atom: &Predicate) -> Expr {
    let mut expr = Expr::Const(Literal::Str(atom.relation.clone()));
    for term in &atom.terms {
        let term_expr = match term {
            Term::Variable { name, .. } => Expr::Var(name.clone()),
            Term::Constant { value, .. } => Expr::Const(value.clone()),
            Term::Wildcard => Expr::Const(Literal::Str("_".to_string())),
            Term::Aggregate(Aggregate { var, .. }) => Expr::Var(var.clone()),
        };
        expr = Expr::Call {
            func: "f_concat".to_string(),
            args: vec![expr, term_expr],
        };
    }
    expr
}

/// Same as [`attr_list_expr`] but skips `count<*>` aggregates (whose variable
/// is not bound in the body).
fn attr_list_expr_head(head: &Predicate) -> Expr {
    let mut expr = Expr::Const(Literal::Str(head.relation.clone()));
    for term in &head.terms {
        let term_expr = match term {
            Term::Variable { name, .. } => Expr::Var(name.clone()),
            Term::Constant { value, .. } => Expr::Const(value.clone()),
            Term::Wildcard => Expr::Const(Literal::Str("_".to_string())),
            Term::Aggregate(Aggregate {
                func: AggregateFunc::Count,
                var,
            }) if var == "*" => Expr::Const(Literal::Str("count".to_string())),
            Term::Aggregate(Aggregate { var, .. }) => Expr::Var(var.clone()),
        };
        expr = Expr::Call {
            func: "f_concat".to_string(),
            args: vec![expr, term_expr],
        };
    }
    expr
}

fn vid_list_expr(vid_vars: &[String]) -> Expr {
    let mut iter = vid_vars.iter().rev();
    let mut expr = match iter.next() {
        Some(last) => Expr::Call {
            func: "f_initlist".to_string(),
            args: vec![Expr::Var(last.clone())],
        },
        None => Expr::Call {
            func: "f_initlist".to_string(),
            args: vec![Expr::Const(Literal::Int(0))],
        },
    };
    for v in iter {
        expr = Expr::Call {
            func: "f_prepend".to_string(),
            args: vec![Expr::Var(v.clone()), expr],
        };
    }
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog::{parse_program, validate_program};

    const MINCOST: &str = "materialize(link, infinity, infinity, keys(1,2,3)).\n\
         r1 cost(@S,D,C) :- link(@S,D,C).\n\
         r2 cost(@S,D,C) :- link(@S,Z,C1), minCost(@Z,D,C2), C := C1 + C2.\n\
         r3 minCost(@S,D,min<C>) :- cost(@S,D,C).";

    #[test]
    fn rewrite_adds_two_rules_per_derivation_rule() {
        let program = parse_program(MINCOST).unwrap();
        let rewritten = rewrite_for_provenance(&program);
        assert_eq!(program.rules.len(), 3);
        assert_eq!(rewritten.rules.len(), 3 + 6);
        assert!(rewritten.rule("r1_exec").is_some());
        assert!(rewritten.rule("r1_prov").is_some());
        assert!(rewritten.materialization(PROV_RELATION).is_some());
        assert!(rewritten.materialization(RULE_EXEC_RELATION).is_some());
    }

    #[test]
    fn rewritten_program_is_valid_ndlog() {
        let program = parse_program(MINCOST).unwrap();
        let rewritten = rewrite_for_provenance(&program);
        validate_program(&rewritten).expect("rewritten program validates");
        // And it survives a print/parse round trip.
        let reparsed = parse_program(&rewritten.to_string()).unwrap();
        assert_eq!(reparsed.rules.len(), rewritten.rules.len());
    }

    #[test]
    fn maybe_rules_are_not_instrumented() {
        let program = parse_program(
            "br1 outputRoute(@AS,R2) ?- inputRoute(@AS,R1), f_isExtend(R2,R1,AS) == 1.",
        )
        .unwrap();
        let rewritten = rewrite_for_provenance(&program);
        assert_eq!(rewritten.rules.len(), 1);
    }

    #[test]
    fn prov_rule_targets_the_head_home_node() {
        let program = parse_program("r1 reach(@D,S) :- link(@S,D,C).").unwrap();
        let rewritten = rewrite_for_provenance(&program);
        let prov_rule = rewritten.rule("r1_prov").unwrap();
        // prov entries are stored where the head tuple lives (@D), while the
        // rule executes at S.
        assert_eq!(prov_rule.head.location_variable(), Some("D"));
        let exec_rule = rewritten.rule("r1_exec").unwrap();
        assert_eq!(exec_rule.head.location_variable(), Some("S"));
    }

    #[test]
    fn a_rule_whose_first_atom_is_pinned_runs_at_that_node() {
        // `y` lives at n1, so the rule runs there, not at the head's S.
        let program = parse_program("r1 x(@S) :- y(@\"n1\",S).").unwrap();
        let rewritten = rewrite_for_provenance(&program);
        validate_program(&rewritten).unwrap();
        let exec_head = &rewritten.rule("r1_exec").unwrap().head;
        assert_eq!(exec_head.terms[0].to_string(), "@\"n1\"");
        let prov_head = &rewritten.rule("r1_prov").unwrap().head;
        assert_eq!(prov_head.location_variable(), Some("S"));
        assert_eq!(prov_head.terms[3].to_string(), "\"n1\"");
    }
}
