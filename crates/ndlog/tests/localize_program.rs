//! The localization rewrite over whole programs: local and `maybe` rules
//! pass through, a link-restricted rule becomes a ship rule and a local
//! rule, the result validates and is a fixpoint of the rewrite, and a rule
//! spanning three locations is refused.

use ndlog::{localize_program, parse_program, validate_program};

#[test]
fn local_rules_pass_through_unchanged() {
    let program =
        parse_program("r1 cost(@S,D,C) :- link(@S,D,C).\nr3 minCost(@S,D,min<C>) :- cost(@S,D,C).")
            .unwrap();
    let localized = localize_program(&program).unwrap();
    assert_eq!(localized.rules, program.rules);
}

#[test]
fn link_restricted_rule_is_split_in_two() {
    let program =
        parse_program("r2 cost(@S,D,C) :- link(@S,Z,C1), cost(@Z,D,C2), C := C1 + C2.").unwrap();
    let localized = localize_program(&program).unwrap();
    assert_eq!(localized.rules.len(), 2);
    let ship = &localized.rules[0];
    let local = &localized.rules[1];
    assert_eq!(ship.name, "r2_s1");
    assert_eq!(ship.head.relation, "r2_aux");
    // The aux tuple lives at Z and carries S and C1.
    assert_eq!(ship.head.location_variable(), Some("Z"));
    let vars = ship.head.variables();
    assert!(vars.contains(&"S".to_string()));
    assert!(vars.contains(&"C1".to_string()));
    // Ship rule body is the link atom only.
    assert_eq!(ship.body.len(), 1);
    // Local rule joins the aux relation with the local cost table.
    assert_eq!(local.name, "r2");
    assert_eq!(local.head.relation, "cost");
    let first_atom = local.body[0].as_atom().unwrap();
    assert_eq!(first_atom.relation, "r2_aux");
    // And an aux materialization was added.
    assert!(localized.materialization("r2_aux").is_some());
    // Every rewritten rule is now single-location: the rewrite leaves it be.
    assert_eq!(localize_program(&localized).unwrap(), localized);
}

#[test]
fn localized_program_still_validates() {
    let program = parse_program(
        "r1 path(@S,D,P,C) :- link(@S,D,C), P := f_initlist2(S, D).\n\
         r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), \
            f_member(P2, S) == 0, C := C1 + C2, P := f_prepend(S, P2).\n\
         r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).",
    )
    .unwrap();
    let localized = localize_program(&program).unwrap();
    validate_program(&localized).unwrap();
    assert_eq!(localized.rules.len(), 4);
}

#[test]
fn maybe_rules_are_not_localized() {
    let program =
        parse_program("br1 outputRoute(@AS,R2) ?- inputRoute(@AS,R1), f_isExtend(R2,R1,AS) == 1.")
            .unwrap();
    let localized = localize_program(&program).unwrap();
    assert_eq!(localized.rules, program.rules);
}

#[test]
fn three_location_rules_are_rejected() {
    let program =
        parse_program("r1 tri(@S,X) :- link(@S,Z,C1), link2(@Z,W,C2), data(@W,X).").unwrap();
    assert!(localize_program(&program).is_err());
}
