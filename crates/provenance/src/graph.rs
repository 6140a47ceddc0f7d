//! A centralized view of the distributed provenance graph.
//!
//! NetTrails keeps provenance distributed, but "some state needs to be
//! centralized to facilitate the visualization of provenance queries and
//! results" (Section 2.3): per-node provenance is periodically captured in
//! snapshots and propagated to the Log Store at the visualization node. This
//! module builds that centralized graph — the acyclic graph G(V,E) with tuple
//! vertices and rule-execution vertices — from a [`ProvenanceSystem`], as a
//! record for the `logstore` crate (snapshots) and the `vis` crate (DOT
//! export, hypertree layout). Queries do not read it: they run as sessions
//! over the distributed stores.

use crate::store::RuleExecId;
use crate::system::ProvenanceSystem;
use nt_runtime::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_runtime::{Addr, NodeId, Sym, Tuple, TupleId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A vertex of the provenance graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProvVertex {
    /// A tuple vertex (base tuple or computation result).
    Tuple {
        /// Tuple identifier.
        vid: TupleId,
        /// Tuple contents when known.
        tuple: Option<Tuple>,
        /// Node where the tuple lives (interned).
        home: NodeId,
        /// True when the tuple has a base derivation.
        is_base: bool,
    },
    /// A rule-execution vertex.
    RuleExec {
        /// Execution identifier.
        rid: RuleExecId,
        /// Rule name (interned).
        rule: Sym,
        /// Node where the rule fired (interned).
        node: NodeId,
    },
}

impl ProvVertex {
    /// A short label for display.
    pub fn label(&self) -> String {
        match self {
            ProvVertex::Tuple { tuple, vid, .. } => tuple
                .as_ref()
                .map(|t| t.to_string())
                .unwrap_or_else(|| vid.to_string()),
            ProvVertex::RuleExec { rule, node, .. } => format!("{rule}@{node}"),
        }
    }

    /// The node the vertex is stored at.
    pub fn location(&self) -> &str {
        self.location_id().as_str()
    }

    /// The interned id of the node the vertex is stored at.
    pub fn location_id(&self) -> NodeId {
        match self {
            ProvVertex::Tuple { home, .. } => *home,
            ProvVertex::RuleExec { node, .. } => *node,
        }
    }
}

/// Identifier of a vertex in the assembled graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VertexId {
    /// A tuple vertex.
    Tuple(TupleId),
    /// A rule-execution vertex.
    RuleExec(RuleExecId),
}

/// A directed edge of the provenance graph (dataflow direction: from inputs
/// toward outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProvEdge {
    /// Source vertex.
    pub from: VertexId,
    /// Destination vertex.
    pub to: VertexId,
}

/// The assembled, centralized provenance graph: a snapshot record of every
/// vertex and every edge, nothing derived from them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProvGraph {
    /// Vertices keyed by identifier. Serialized as an entry list so the graph
    /// can be embedded in JSON snapshots (JSON maps need string keys).
    #[serde(
        serialize_with = "serialize_vertices",
        deserialize_with = "deserialize_vertices"
    )]
    pub vertices: BTreeMap<VertexId, ProvVertex>,
    /// Edges (deduplicated, deterministic order).
    pub edges: Vec<ProvEdge>,
}

fn serialize_vertices<S>(
    vertices: &BTreeMap<VertexId, ProvVertex>,
    serializer: S,
) -> Result<S::Ok, S::Error>
where
    S: serde::Serializer,
{
    serializer.collect_seq(vertices.iter())
}

fn deserialize_vertices<'de, D>(deserializer: D) -> Result<BTreeMap<VertexId, ProvVertex>, D::Error>
where
    D: serde::Deserializer<'de>,
{
    let entries = Vec::<(VertexId, ProvVertex)>::deserialize(deserializer)?;
    if entries.iter().any(|(id, vertex)| *id != vertex.id()) {
        return Err(serde::Error::custom("a vertex keyed by another id").into());
    }
    Ok(entries.into_iter().collect())
}

impl Encode for VertexId {
    fn encode(&self, w: &mut Writer) {
        match self {
            VertexId::Tuple(vid) => {
                w.u8(0);
                w.fixed64(vid.0);
            }
            VertexId::RuleExec(rid) => {
                w.u8(1);
                w.fixed64(rid.0);
            }
        }
    }
}

impl Decode for VertexId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(VertexId::Tuple(TupleId(r.fixed64()?))),
            1 => Ok(VertexId::RuleExec(RuleExecId(r.fixed64()?))),
            _ => Err(r.error(r.offset() - 1, "an unknown vertex id tag")),
        }
    }
}

impl Encode for ProvEdge {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        self.to.encode(w);
    }
}

impl Decode for ProvEdge {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ProvEdge {
            from: VertexId::decode(r)?,
            to: VertexId::decode(r)?,
        })
    }
}

// Tags: a rule execution; a tuple vertex without its tuple; with its tuple,
// whose id is the vertex id and is not written; with a tuple of another id.
const RULE_EXEC: u8 = 0;
const TUPLE_UNKNOWN: u8 = 1;
const TUPLE_KNOWN: u8 = 2;
const TUPLE_OTHER_ID: u8 = 3;

impl Encode for ProvVertex {
    fn encode(&self, w: &mut Writer) {
        match self {
            ProvVertex::RuleExec { rid, rule, node } => {
                w.u8(RULE_EXEC);
                w.fixed64(rid.0);
                w.sym(*rule);
                w.node(*node);
            }
            ProvVertex::Tuple {
                vid,
                tuple,
                home,
                is_base,
            } => {
                match tuple {
                    None => {
                        w.u8(TUPLE_UNKNOWN);
                        w.fixed64(vid.0);
                    }
                    Some(t) if t.id() == *vid => {
                        w.u8(TUPLE_KNOWN);
                        t.encode(w);
                    }
                    Some(t) => {
                        w.u8(TUPLE_OTHER_ID);
                        w.fixed64(vid.0);
                        t.encode(w);
                    }
                }
                w.node(*home);
                w.bool(*is_base);
            }
        }
    }
}

impl Decode for ProvVertex {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (vid, tuple) = match r.u8()? {
            RULE_EXEC => {
                return Ok(ProvVertex::RuleExec {
                    rid: RuleExecId(r.fixed64()?),
                    rule: r.sym()?,
                    node: r.node()?,
                })
            }
            TUPLE_UNKNOWN => (TupleId(r.fixed64()?), None),
            TUPLE_KNOWN => {
                let t = Tuple::decode(r)?;
                (t.id(), Some(t))
            }
            TUPLE_OTHER_ID => (TupleId(r.fixed64()?), Some(Tuple::decode(r)?)),
            _ => return Err(r.error(r.offset() - 1, "an unknown vertex tag")),
        };
        Ok(ProvVertex::Tuple {
            vid,
            tuple,
            home: r.node()?,
            is_base: r.bool()?,
        })
    }
}

/// The vertices, each once: a vertex's key is its own id, so it is not
/// written beside it.
impl Encode for ProvGraph {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.vertices.len());
        for (id, vertex) in &self.vertices {
            debug_assert_eq!(*id, vertex.id(), "a vertex is keyed by its own id");
            vertex.encode(w);
        }
        self.edges.encode(w);
    }
}

impl Decode for ProvGraph {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut vertices = BTreeMap::new();
        for _ in 0..r.count()? {
            let vertex = ProvVertex::decode(r)?;
            vertices.insert(vertex.id(), vertex);
        }
        Ok(ProvGraph {
            vertices,
            edges: Vec::decode(r)?,
        })
    }
}

impl ProvVertex {
    /// The vertex's identifier: the key it is stored under in a graph.
    pub fn id(&self) -> VertexId {
        match self {
            ProvVertex::Tuple { vid, .. } => VertexId::Tuple(*vid),
            ProvVertex::RuleExec { rid, .. } => VertexId::RuleExec(*rid),
        }
    }
}

impl ProvGraph {
    /// Assemble the centralized graph from every node's provenance store.
    pub fn from_system(system: &ProvenanceSystem) -> Self {
        let mut graph = ProvGraph::default();
        // Tuple vertices from prov tables.
        for store in system.stores() {
            for (tuple, entries) in store.iter_prov() {
                let is_base = entries.iter().any(|e| e.is_base());
                graph.vertices.insert(
                    VertexId::Tuple(tuple.id()),
                    ProvVertex::Tuple {
                        vid: tuple.id(),
                        tuple: Some(tuple.clone()),
                        home: store.node,
                        is_base,
                    },
                );
            }
        }
        // Rule-execution vertices and edges.
        for store in system.stores() {
            for exec in store.iter_rule_execs() {
                let rid = VertexId::RuleExec(exec.rid);
                graph.vertices.insert(
                    rid,
                    ProvVertex::RuleExec {
                        rid: exec.rid,
                        rule: exec.rule,
                        node: exec.node,
                    },
                );
                for input in exec.inputs.iter() {
                    // Input tuples may live on the executing node but it is
                    // possible the prov table hasn't a vertex (pruned); add a
                    // placeholder vertex so the edge renders.
                    graph
                        .vertices
                        .entry(VertexId::Tuple(*input))
                        .or_insert_with(|| ProvVertex::Tuple {
                            vid: *input,
                            tuple: system.tuple_at(exec.node, *input).cloned(),
                            home: exec.node,
                            is_base: false,
                        });
                    graph.edges.push(ProvEdge {
                        from: VertexId::Tuple(*input),
                        to: rid,
                    });
                }
            }
            // Edges from rule executions to the tuples they derive.
            for (tuple, entries) in store.iter_prov() {
                for entry in entries {
                    if let Some(rid) = entry.rid {
                        graph.edges.push(ProvEdge {
                            from: VertexId::RuleExec(rid),
                            to: VertexId::Tuple(tuple.id()),
                        });
                    }
                }
            }
        }
        graph.edges.sort();
        graph.edges.dedup();
        graph
    }

    /// Number of tuple vertices.
    pub fn tuple_vertex_count(&self) -> usize {
        self.vertices
            .keys()
            .filter(|v| matches!(v, VertexId::Tuple(_)))
            .count()
    }

    /// Number of rule-execution vertices.
    pub fn rule_exec_count(&self) -> usize {
        self.vertices
            .keys()
            .filter(|v| matches!(v, VertexId::RuleExec(_)))
            .count()
    }

    /// Base tuple vertices (the graph's sources).
    pub fn base_vertices(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter_map(|(id, v)| match v {
                ProvVertex::Tuple { is_base: true, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// True when the graph contains no directed cycle (it never should).
    /// Tests call it; it reads `edges` in any order, decoded ones included.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over successor lists built from the edges.
        let mut indegree: BTreeMap<VertexId, usize> =
            self.vertices.keys().map(|v| (*v, 0)).collect();
        let mut successors: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
        for e in &self.edges {
            *indegree.entry(e.to).or_insert(0) += 1;
            successors.entry(e.from).or_default().push(e.to);
        }
        let mut queue: Vec<VertexId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(v, _)| *v)
            .collect();
        let mut removed = 0usize;
        while let Some(v) = queue.pop() {
            removed += 1;
            for succ in successors.remove(&v).unwrap_or_default() {
                let d = indegree.get_mut(&succ).expect("known vertex");
                *d -= 1;
                if *d == 0 {
                    queue.push(succ);
                }
            }
        }
        removed == indegree.len()
    }

    /// Per-node vertex counts (how the graph is partitioned across the
    /// network) — the distribution statistic shown in the demonstration.
    pub fn vertices_per_node(&self) -> BTreeMap<Addr, usize> {
        let mut out: BTreeMap<Addr, usize> = BTreeMap::new();
        for v in self.vertices.values() {
            *out.entry(v.location_id()).or_default() += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{Firing, Value, BASE_RULE};

    fn tuple(rel: &str, node: &str, x: i64) -> Tuple {
        Tuple::new(rel, vec![Value::addr(node), Value::Int(x)])
    }

    fn sample_system() -> ProvenanceSystem {
        let mut sys = ProvenanceSystem::new(["n1", "n2"]);
        let link = tuple("link", "n1", 5);
        let cost = tuple("cost", "n2", 5);
        sys.apply_firing(&Firing {
            rule: BASE_RULE.into(),
            node: "n1".into(),
            head: link.clone(),
            head_home: "n1".into(),
            inputs: Default::default(),
            insert: true,
        });
        sys.apply_firing(&Firing {
            rule: "r1".into(),
            node: "n1".into(),
            head: cost.clone(),
            head_home: "n2".into(),
            inputs: [link.id()].into(),
            insert: true,
        });
        sys
    }

    #[test]
    fn graph_has_tuple_and_rule_vertices_and_is_acyclic() {
        let sys = sample_system();
        let mut graph = ProvGraph::from_system(&sys);
        assert_eq!(graph.tuple_vertex_count(), 2);
        assert_eq!(graph.rule_exec_count(), 1);
        assert_eq!(graph.edges.len(), 2);
        assert!(graph.is_acyclic());
        assert_eq!(graph.base_vertices().len(), 1);
        // Decoded edges need not be sorted, and a back edge is a cycle.
        graph.edges.reverse();
        assert!(graph.is_acyclic());
        let back = ProvEdge {
            from: graph.edges[0].to,
            to: graph.edges[0].from,
        };
        graph.edges.push(back);
        assert!(!graph.is_acyclic());
    }

    #[test]
    fn successors_and_predecessors_follow_dataflow() {
        let sys = sample_system();
        let graph = ProvGraph::from_system(&sys);
        let base = graph.base_vertices()[0];
        let from = |v: VertexId| -> Vec<VertexId> {
            graph
                .edges
                .iter()
                .filter(|e| e.from == v)
                .map(|e| e.to)
                .collect()
        };
        let to = |v: VertexId| -> Vec<VertexId> {
            graph
                .edges
                .iter()
                .filter(|e| e.to == v)
                .map(|e| e.from)
                .collect()
        };
        let succs = from(base);
        assert_eq!(succs.len(), 1);
        assert!(matches!(succs[0], VertexId::RuleExec(_)));
        let derived = from(succs[0]);
        assert_eq!(derived.len(), 1);
        assert!(matches!(derived[0], VertexId::Tuple(_)));
        assert_eq!(to(derived[0]), succs);
        assert_eq!(to(succs[0]), vec![base]);
    }

    #[test]
    fn vertices_per_node_reports_partitioning() {
        let sys = sample_system();
        let graph = ProvGraph::from_system(&sys);
        let per_node = graph.vertices_per_node();
        // link + ruleExec at n1, cost at n2.
        assert_eq!(per_node[&NodeId::new("n1")], 2);
        assert_eq!(per_node[&NodeId::new("n2")], 1);
    }

    #[test]
    fn labels_show_tuple_contents_when_known() {
        let sys = sample_system();
        let graph = ProvGraph::from_system(&sys);
        let labels: Vec<String> = graph.vertices.values().map(ProvVertex::label).collect();
        assert!(labels.iter().any(|l| l.contains("link(n1,5)")));
        assert!(labels.iter().any(|l| l.contains("r1@n1")));
    }
}
