//! # protocols — declarative networking protocols in NDlog
//!
//! The first NetTrails use case ("Declarative networks", Section 3) runs
//! distributed systems written in NDlog on top of the platform: the MINCOST
//! protocol shown in the screenshots, the path-vector protocol, and dynamic
//! source routing (DSR) for mobile networks. This crate contains those
//! programs (plus distance-vector, used by the incremental-maintenance
//! benchmarks) together with helpers that turn a [`simnet::Topology`] into the
//! base `link` tuples each node starts from.
//!
//! Every program is expressed in the NDlog dialect of the `ndlog` crate and is
//! compiled/validated by its unit tests, so the programs double as living
//! documentation of the language.

pub mod distancevector;
pub mod dsr;
pub mod mincost;
pub mod pathvector;

use nt_runtime::{Tuple, Value};
use simnet::Topology;

/// A protocol bundled with the metadata the platform and the benchmarks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Human-readable protocol name.
    pub name: &'static str,
    /// The NDlog source text.
    pub source: &'static str,
    /// The relation that carries network links (always arity 3:
    /// `link(@From, To, Cost)`).
    pub link_relation: &'static str,
    /// The relation a user would typically query the provenance of (e.g.
    /// `minCost`, `bestPathCost`), used by examples and benchmarks.
    pub result_relation: &'static str,
}

/// All bundled protocols.
pub fn all_protocols() -> Vec<ProtocolSpec> {
    vec![
        mincost::spec(),
        pathvector::spec(),
        distancevector::spec(),
        dsr::spec(),
    ]
}

/// Build the base `link(@From, To, Cost)` tuple for a directed link.
pub fn link_tuple(from: &str, to: &str, cost: i64) -> Tuple {
    Tuple::new(
        "link",
        vec![Value::addr(from), Value::addr(to), Value::Int(cost)],
    )
}

/// The base `link` tuples of a topology, grouped with the node each belongs to
/// (the link's source, per the `@From` location specifier).
pub fn link_tuples(topology: &Topology) -> Vec<(String, Tuple)> {
    topology
        .links()
        .map(|l| (l.from.clone(), link_tuple(&l.from, &l.to, l.cost)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_protocols_compile_and_validate() {
        for spec in all_protocols() {
            let compiled = nt_runtime::CompiledProgram::from_source(spec.source)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", spec.name));
            assert!(
                compiled
                    .catalog
                    .schema(spec.link_relation)
                    .map(|s| s.is_base)
                    .unwrap_or(false),
                "{}: link relation must be a base relation",
                spec.name
            );
            assert!(
                compiled.catalog.schema(spec.result_relation).is_some(),
                "{}: result relation missing",
                spec.name
            );
        }
    }

    #[test]
    fn link_tuples_follow_the_topology() {
        let topo = Topology::line(3);
        let links = link_tuples(&topo);
        assert_eq!(links.len(), 4);
        assert!(
            links
                .iter()
                .all(|(node, t)| t.relation() == "link"
                    && t.values()[0] == Value::addr(node.as_str()))
        );
    }

    #[test]
    fn link_tuple_shape() {
        let t = link_tuple("n1", "n2", 4);
        assert_eq!(t.to_string(), "link(n1,n2,4)");
    }
}
