//! A small ProQL-style path query language over network provenance.
//!
//! The paper's "ongoing research" section mentions "exploring distributed
//! variants of graph-based provenance query languages such as ProQL for
//! formulating queries and transformations over network provenance data". This
//! module holds the language: its grammar, its parser and its result types.
//! `NetTrails::proql` (in the `nettrails` crate) evaluates a query as
//! `QueryKind::Lineage` sessions of the distributed query protocol, so its
//! frames and bytes are charged to [`crate::QUERY_CATEGORY`] (`"prov-query"`)
//! like any other session's.
//!
//! Grammar:
//!
//! ```text
//! query   := "from" pattern step*
//! pattern := relation [ "@" node ]            (e.g. `minCost@n1`, or `minCost`)
//! step    := "back" [number]                  follow derivations upstream N levels (default all)
//!          | "bases"                          keep only base tuples
//!          | "nodes"                          project to the set of locations
//!          | "count"                          count the current vertex set
//! ```
//!
//! Example: `from minCost@n1 back bases` — all base tuples that the
//! `minCost` tuples stored at `n1` depend on.

use nt_runtime::Addr;
use std::collections::BTreeSet;

/// One step of a ProQL-style query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProqlStep {
    /// Follow provenance upstream (toward inputs); `None` = to the sources.
    Back(Option<usize>),
    /// Keep only base-tuple vertices.
    Bases,
    /// Project to the set of node locations.
    Nodes,
    /// Count the current vertex set.
    Count,
}

/// A parsed query: a starting pattern plus steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProqlQuery {
    /// Relation name the query starts from.
    pub relation: String,
    /// Optional node restriction.
    pub node: Option<Addr>,
    /// Steps to apply.
    pub steps: Vec<ProqlStep>,
}

/// Result of evaluating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum ProqlResult {
    /// A set of vertices (rendered through their labels).
    Vertices(Vec<String>),
    /// A set of node names.
    Nodes(BTreeSet<Addr>),
    /// A count.
    Count(usize),
}

/// Parse a query string. Returns a readable error message on failure.
pub fn parse_query(src: &str) -> Result<ProqlQuery, String> {
    let tokens: Vec<&str> = src.split_whitespace().collect();
    if tokens.len() < 2 || tokens[0] != "from" {
        return Err("query must start with `from <relation>[@node]`".to_string());
    }
    let (relation, node) = match tokens[1].split_once('@') {
        Some((rel, node)) => (rel.to_string(), Some(node)),
        None => (tokens[1].to_string(), None),
    };
    if relation.is_empty() {
        return Err("missing relation name after `from`".to_string());
    }
    if node == Some("") {
        return Err(format!("missing node name after `{relation}@`"));
    }
    let mut steps = Vec::new();
    let mut i = 2;
    while i < tokens.len() {
        match tokens[i] {
            "back" => {
                let count = tokens.get(i + 1).and_then(|t| t.parse::<usize>().ok());
                if count.is_some() {
                    i += 1;
                }
                steps.push(ProqlStep::Back(count));
            }
            "bases" => steps.push(ProqlStep::Bases),
            "nodes" => steps.push(ProqlStep::Nodes),
            "count" => steps.push(ProqlStep::Count),
            other => return Err(format!("unknown query step `{other}`")),
        }
        i += 1;
    }
    Ok(ProqlQuery {
        relation,
        node: node.map(Addr::new),
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let q = parse_query("from minCost@n2 back bases").unwrap();
        assert_eq!(q.relation, "minCost");
        assert_eq!(q.node, Some(Addr::new("n2")));
        assert_eq!(q.steps, vec![ProqlStep::Back(None), ProqlStep::Bases]);

        let q = parse_query("from cost back 1 count").unwrap();
        assert_eq!(q.steps, vec![ProqlStep::Back(Some(1)), ProqlStep::Count]);

        assert!(parse_query("minCost back").is_err());
        assert!(parse_query("from minCost sideways").is_err());
        assert!(parse_query("from link forward").is_err());
        let e = parse_query("from minCost@").unwrap_err();
        assert!(e.contains("missing node name"), "{e}");
    }
}
