//! Pretty-printing beyond the `Display` impls in [`crate::ast`]: a whole
//! program in the paper's layout, which parses back to the same program.

use crate::ast::{Program, Rule};

/// Render a program with aligned rule names and a blank line between the
/// declaration block and the rules (the style used in the NetTrails paper).
pub fn pretty_program(program: &Program) -> String {
    let mut out = String::new();
    for m in &program.materializations {
        out.push_str(&m.to_string());
        out.push('\n');
    }
    if !program.materializations.is_empty() && !program.rules.is_empty() {
        out.push('\n');
    }
    let width = program
        .rules
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(0);
    for r in &program.rules {
        out.push_str(&pretty_rule_aligned(r, width));
        out.push('\n');
    }
    out
}

fn pretty_rule_aligned(rule: &Rule, name_width: usize) -> String {
    let s = rule.to_string();
    // `Rule::to_string` already starts with the name; re-pad it.
    match s.split_once(' ') {
        Some((name, rest)) => format!("{name:<name_width$} {rest}"),
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn pretty_program_round_trips() {
        let src = "materialize(link, infinity, infinity, keys(1,2)).\n\
                   r1 cost(@S,D,C) :- link(@S,D,C).\n\
                   longRuleName minCost(@S,D,min<C>) :- cost(@S,D,C).";
        let p = parse_program(src).unwrap();
        let pretty = pretty_program(&p);
        let reparsed = parse_program(&pretty).unwrap();
        assert_eq!(p, reparsed);
        // Names are padded to the same width: the `cost` head of r1 starts at
        // the same column as the `minCost` head of the long-named rule.
        let lines: Vec<&str> = pretty.lines().filter(|l| l.contains(":-")).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].find("cost("), lines[1].find("minCost("));
    }
}
