//! Anchored scenario protocols.
//!
//! The bundled protocols (`protocols::{mincost, pathvector, dsr}`) compute
//! all-pairs state — O(n^2) tuples, fine on 16-node ladders, infeasible at
//! 10^4 nodes (and unrealistic: real networks route toward advertised
//! prefixes, not toward every host). The scenario programs keep each
//! protocol's structure — path vectors with loop checks, min-cost
//! aggregation, DSR-style source routes — but route only toward a seeded set
//! of `anchor` destinations and cap the path length, so state scales with
//! `nodes * anchors * degree^hops`, not `nodes^2`.

use nt_runtime::{Tuple, Value};

/// Relations a query storm can target under the anchored path-vector
/// program.
pub const PATHVECTOR_RESULTS: &[&str] = &["bestRoute"];

/// Relations a query storm can target under the mixed program — one result
/// relation per concurrent protocol family.
pub const MIXED_RESULTS: &[&str] = &["bestRoute", "aBest", "anchorHops"];

/// Anchored path-vector: full paths with membership loop checks, best cost
/// per (source, anchor). `max_hops` caps the number of links in a path.
pub fn anchored_pathvector(max_hops: usize) -> String {
    // A path of h links lists h+1 nodes; extension is allowed while the
    // current path lists at most max_hops nodes.
    let node_bound = max_hops + 1;
    format!(
        "\
materialize(link, infinity, infinity, keys(1,2)).
materialize(anchor, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2,3,4)).
materialize(bestRoute, infinity, infinity, keys(1,2)).

sc1 route(@S,D,P,C) :- link(@S,D,C), anchor(@D,D), P := f_initlist2(S, D).
sc2 route(@S,D,P,C) :- link(@S,Z,C1), route(@Z,D,P2,C2), f_member(P2, S) == 0, L := f_size(P2), L < {node_bound}, C := C1 + C2, P := f_prepend(S, P2).
sc3 bestRoute(@S,D,min<C>) :- route(@S,D,P,C).
"
    )
}

/// Three protocol families concurrently on one simnet, sharing the `link`
/// and `anchor` base relations: the anchored path-vector above, a
/// min-cost/distance-vector family (`acost`/`aBest`, hop counter instead of
/// a path), and a DSR-style source-route family (`sroute`/`anchorHops`).
pub fn mixed_protocols(max_hops: usize) -> String {
    let node_bound = max_hops + 1;
    let pv = anchored_pathvector(max_hops);
    format!(
        "\
{pv}
materialize(acost, infinity, infinity, keys(1,2,3,4)).
materialize(aBest, infinity, infinity, keys(1,2)).
materialize(sroute, infinity, infinity, keys(1,2,3)).
materialize(anchorHops, infinity, infinity, keys(1,2)).

mx1 acost(@S,D,C,H) :- link(@S,D,C), anchor(@D,D), H := 1.
mx2 acost(@S,D,C,H) :- link(@S,Z,C1), acost(@Z,D,C2,H2), H2 < {max_hops}, C := C1 + C2, H := H2 + 1.
mx3 aBest(@S,D,min<C>) :- acost(@S,D,C,H).

dx1 sroute(@S,D,P) :- link(@S,D,C), anchor(@D,D), P := f_initlist2(S, D).
dx2 sroute(@S,D,P) :- link(@S,Z,C), sroute(@Z,D,P2), f_member(P2, S) == 0, L := f_size(P2), L < {node_bound}, P := f_prepend(S, P2).
dx3 anchorHops(@S,D,min<L>) :- sroute(@S,D,P), L := f_size(P).
"
    )
}

/// The base fact advertising `a` as an anchor destination (seeded at `a`).
pub fn anchor_tuple(a: &str) -> Tuple {
    Tuple::new("anchor", vec![Value::addr(a), Value::addr(a)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::compile::BoundTerm;
    use nt_runtime::eval::SlotAtom;
    use nt_runtime::{CompiledProgram, CompiledRule};

    #[test]
    fn anchored_pathvector_compiles_and_localizes() {
        let compiled = nt_runtime::CompiledProgram::from_source(&anchored_pathvector(3)).unwrap();
        assert!(compiled.rule("sc2").is_some());
    }

    #[test]
    fn mixed_program_compiles_with_all_three_families() {
        let compiled = nt_runtime::CompiledProgram::from_source(&mixed_protocols(3)).unwrap();
        for rule in ["sc1", "mx2", "dx3"] {
            assert!(compiled.rule(rule).is_some(), "missing {rule}");
        }
        for rel in ["bestRoute", "aBest", "anchorHops"] {
            assert!(compiled.catalog.schema(rel).is_some(), "missing {rel}");
        }
    }

    /// `relation.column` of every column the program's tables index.
    fn probed(compiled: &CompiledProgram) -> Vec<String> {
        let specs = compiled.tables.iter();
        specs
            .flat_map(|t| t.probed.iter().map(|c| format!("{}.{c}", t.schema.name)))
            .collect()
    }

    fn columns(compiled: &CompiledProgram) -> usize {
        compiled.catalog.schemas().map(|s| s.arity).sum()
    }

    /// What the benchmark's engines index. A column here costs a posting
    /// entry per stored tuple on every node; a column missing here is probed
    /// by scanning.
    #[test]
    fn the_benchmark_programs_index_a_third_of_their_columns() {
        let pv = CompiledProgram::from_source(&anchored_pathvector(3)).unwrap();
        assert_eq!(
            probed(&pv),
            [
                "anchor.0",
                "anchor.1",
                "route.0",
                "route.1",
                "sc1_aux.0",
                "sc2_aux.0"
            ]
        );
        assert_eq!(columns(&pv), 18);

        let mixed = CompiledProgram::from_source(&mixed_protocols(3)).unwrap();
        assert_eq!(
            probed(&mixed),
            [
                "acost.0",
                "acost.1",
                "anchor.0",
                "anchor.1",
                "dx1_aux.0",
                "dx2_aux.0",
                "mx1_aux.0",
                "mx2_aux.0",
                "route.0",
                "route.1",
                "sc1_aux.0",
                "sc2_aux.0",
                "sroute.0",
                "sroute.1",
            ]
        );
        assert_eq!(columns(&mixed), 41);
    }

    /// Every column a probe site binds is indexed: each join step of each
    /// plan (delta-triggered and full), each negated-atom check, each
    /// aggregate group scan, of every rule of every shipped program. The
    /// sites are read off the rules here, apart from the code that computes
    /// the set, so a site that code forgets — it would still answer, by
    /// scanning — fails this.
    #[test]
    fn every_probe_site_of_every_shipped_program_is_indexed() {
        let mut sources = vec![anchored_pathvector(3), mixed_protocols(3)];
        sources.extend(
            protocols::all_protocols()
                .iter()
                .map(|p| p.source.to_string()),
        );
        // Negation, constants and a reconciliation (full) plan.
        sources.push("r1 out(@S) :- a(@S,Z), b(@S,Z,5), !c(@S,Z).".to_string());
        for source in &sources {
            let cp = CompiledProgram::from_source(source).unwrap();
            let indexed = probed(&cp);
            let check = |rule: &CompiledRule, atom: &SlotAtom, cols: &[(usize, BoundTerm)]| {
                let relation = atom.relation.as_str();
                for (col, _) in cols {
                    assert!(
                        indexed.contains(&format!("{relation}.{col}")),
                        "rule {} probes {relation}.{col}, which no table indexes",
                        rule.rule.name
                    );
                }
            };
            for rule in &cp.rules {
                for plan in rule.plans.iter().chain([&rule.full_plan]) {
                    for step in &plan.steps {
                        check(rule, &rule.slots.positive[step.atom], &step.bound_cols);
                    }
                }
                for (atom, cols) in rule.slots.negated.iter().zip(&rule.negated_probes) {
                    check(rule, atom, cols);
                }
                if rule.aggregate.is_some() {
                    check(rule, &rule.slots.positive[0], &rule.aggregate_probe);
                }
            }
        }
    }
}
