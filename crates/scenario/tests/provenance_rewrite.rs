//! The paper's provenance rewrite (§2.2) compiles: for every shipped
//! program, the `prov` / `ruleExec` rules `rewrite_for_provenance` appends to
//! the localized program go through the same compiler as the program itself,
//! and the catalog types their columns the way the paper writes them —
//! `prov(@Home, VID, RID, RLoc)` keeps the executing node as an address,
//! `ruleExec(@RLoc, RID, Rule, VIDList)` names its rule with a text.

use nt_runtime::CompiledProgram;
use provenance::{rewrite_for_provenance, PROV_RELATION, RULE_EXEC_RELATION};
use scenario::programs;

#[test]
fn the_rewrite_of_every_shipped_program_compiles() {
    let mut sources: Vec<(String, String)> = protocols::all_protocols()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    sources.push(("anchored".into(), programs::anchored_pathvector(3)));
    sources.push(("mixed".into(), programs::mixed_protocols(3)));
    for (name, source) in sources {
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
