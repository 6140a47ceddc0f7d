//! The paper's provenance rewrite (§2.2) compiles: for every shipped
//! program, the `prov` / `ruleExec` rules `rewrite_for_provenance` appends to
//! the localized program go through the same compiler as the program itself,
//! and the catalog types their columns the way the paper writes them —
//! `prov(@Home, VID, RID, RLoc)` keeps the executing node as an address,
//! `ruleExec(@RLoc, RID, Rule, VIDList)` names its rule with a text — and
//! places `RLoc` where localization runs the rule.

use nettrails::ndlog::{exec_location, RuleKind};
use nt_runtime::CompiledProgram;
use provenance::{rewrite_for_provenance, PROV_RELATION, RULE_EXEC_RELATION};
use scenario::programs;

/// Every shipped program, by name: the four bundled protocols and the two
/// scenario programs.
fn shipped_programs() -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = protocols::all_protocols()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    sources.push(("anchored".into(), programs::anchored_pathvector(3)));
    sources.push(("mixed".into(), programs::mixed_protocols(3)));
    sources
}

#[test]
fn the_rewrite_of_every_shipped_program_compiles() {
    for (name, source) in shipped_programs() {
        let localized = CompiledProgram::from_source(&source)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .localized;
        let rewritten = rewrite_for_provenance(&localized);
        let rules = rewritten.rules.len();
        let compiled = CompiledProgram::from_program(rewritten)
            .unwrap_or_else(|e| panic!("{name}: the rewrite does not compile: {e}"));
        assert_eq!(compiled.rules.len(), rules, "{name}");

        let prov = compiled.catalog.schema(PROV_RELATION).expect("prov");
        let addresses: Vec<usize> = (0..prov.arity).filter(|c| prov.is_addr(*c)).collect();
        assert_eq!(addresses, [0, 3], "{name}: prov(@Home,VID,RID,RLoc)");
        let exec = compiled
            .catalog
            .schema(RULE_EXEC_RELATION)
            .expect("ruleExec");
        assert!(exec.is_addr(0), "{name}: ruleExec(@RLoc,..)");
        assert!(!exec.is_addr(2), "{name}: a rule name is a text");
    }
}

/// The placement oracle: for every derivation rule of every shipped
/// localized program, `ruleExec` sits and `prov` names its RLoc where
/// localization runs the rule (`ndlog::exec_location`), so the paper's
/// rewrite and the runtime read one placement. Caught: the rewrite placing
/// `ruleExec` at the head's location, which every ship rule (`mc2_s1`,
/// `r2_s1`, ...) exposes.
#[test]
fn rule_exec_and_prov_sit_where_localization_runs_the_rule() {
    for (name, source) in shipped_programs() {
        let localized = CompiledProgram::from_source(&source)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .localized;
        let rewritten = rewrite_for_provenance(&localized);
        let derivations = localized
            .rules
            .iter()
            .filter(|r| r.kind == RuleKind::Derive);
        for rule in derivations {
            let exec = exec_location(rule).expect("a located rule").to_string();
            let head = |suffix: &str| {
                let generated = format!("{}{suffix}", rule.name);
                let rule = rewritten.rule(&generated);
                rule.unwrap_or_else(|| panic!("{name}: no {generated}"))
                    .head
                    .clone()
            };
            let exec_head = head("_exec");
            let at = exec_head.terms.iter().find(|t| t.is_location()).unwrap();
            assert_eq!(at.to_string(), exec, "{name}: {}_exec", rule.name);
            let rloc = head("_prov").terms[3].to_string();
            assert_eq!(format!("@{rloc}"), exec, "{name}: {}_prov", rule.name);
        }
    }
}
