//! The MINCOST protocol: pair-wise minimal path costs.
//!
//! This is the protocol used throughout the paper's screenshots (Figures 2
//! and 3): every node computes, for every destination, the cost of the
//! cheapest path, by recursively combining its links with its neighbours'
//! current minima.
//!
//! Rule `mc2` carries a **cost horizon** (`C < 255`): like RIP's "infinity =
//! 16", it bounds the count-to-infinity behaviour that any distance-vector
//! style computation exhibits when a destination becomes unreachable, so that
//! incremental deletion converges (all state for the unreachable destination
//! is retracted) instead of counting up forever.

use crate::ProtocolSpec;

/// The NDlog source of the MINCOST protocol.
pub const PROGRAM: &str = "\
materialize(link, infinity, infinity, keys(1,2)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(minCost, infinity, infinity, keys(1,2)).

mc1 cost(@S,D,C) :- link(@S,D,C).
mc2 cost(@S,D,C) :- link(@S,Z,C1), minCost(@Z,D,C2), C := C1 + C2, C < 255.
mc3 minCost(@S,D,min<C>) :- cost(@S,D,C).
";

/// Protocol metadata.
pub fn spec() -> ProtocolSpec {
    ProtocolSpec {
        name: "MINCOST",
        source: PROGRAM,
        link_relation: "link",
        result_relation: "minCost",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_parses_with_expected_rules() {
        let program = ndlog::compile(PROGRAM).unwrap();
        assert_eq!(program.rules.len(), 3);
        assert!(program.rule("mc2").unwrap().body.len() >= 3);
        assert!(program.rule("mc3").unwrap().is_aggregate());
    }

    #[test]
    fn recursive_rule_is_link_restricted() {
        let program = ndlog::compile(PROGRAM).unwrap();
        let localized = ndlog::localize_program(&program).unwrap();
        let names: Vec<&str> = localized.rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["mc1", "mc2_s1", "mc2", "mc3"]);
        let ship = localized.rule("mc2_s1").unwrap();
        assert_eq!(ship.head.location_variable(), Some("Z"));
    }
}
