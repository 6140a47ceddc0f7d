//! Snapshot types.

use nt_runtime::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_runtime::{Addr, Database, InternerSnapshot, Tuple};
use provenance::{ProvGraph, ProvStoreStats, ProvenanceSystem};
use serde::{Deserialize, Serialize};
use simnet::{SimTime, Topology, TrafficStats};
use std::collections::{BTreeMap, BTreeSet};

/// One node's captured state at a point in (simulated) time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// Node name.
    pub node: Addr,
    /// The node's non-empty relations and their tuples.
    pub relations: BTreeMap<String, Vec<Tuple>>,
    /// Size of the node's provenance partition.
    pub provenance: ProvStoreStats,
}

/// The canonical intra-relation tuple order used by captures and delta
/// application. The debug rendering distinguishes value variants (`Str` vs
/// `Addr`) that display identically, so the key is injective enough to make
/// "same multiset of tuples" imply "same vector" — the property the
/// bit-identical delta materialization relies on.
pub fn tuple_sort_key(t: &Tuple) -> String {
    format!("{t:?}")
}

impl NodeSnapshot {
    /// Capture a node's state from its runtime database and provenance
    /// store. Tuples are stored in the canonical [`tuple_sort_key`] order so
    /// that a delta applied to the previous capture reproduces this one
    /// bit-for-bit regardless of table slot order.
    pub fn capture(node: &str, db: &Database, provenance: &ProvenanceSystem) -> Self {
        let mut relations = BTreeMap::new();
        for table in db.tables() {
            if table.is_empty() {
                continue;
            }
            let mut tuples = table.tuples();
            tuples.sort_by_cached_key(tuple_sort_key);
            relations.insert(table.schema.name.clone(), tuples);
        }
        NodeSnapshot {
            node: node.into(),
            relations,
            provenance: provenance
                .store(node)
                .map(|s| s.stats())
                .unwrap_or_default(),
        }
    }

    /// Total number of tuples in the snapshot.
    pub fn tuple_count(&self) -> usize {
        self.relations.values().map(Vec::len).sum()
    }
}

/// A whole-system snapshot: every node plus the topology and the centralized
/// provenance graph, stamped with the capture time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// Capture time.
    pub time: SimTime,
    /// Per-node snapshots, keyed by node name.
    pub nodes: BTreeMap<Addr, NodeSnapshot>,
    /// The network topology at capture time.
    pub topology: Topology,
    /// The assembled provenance graph (what the provenance visualizer shows).
    pub graph: ProvGraph,
    /// Cumulative traffic counters at capture time (the "bandwidth
    /// utilization" the paper mentions).
    pub traffic: TrafficStats,
    /// The identifier dictionary: every node/rule/relation name the
    /// snapshot's contents refer to, sorted. Encoded, it is a list of
    /// indices into the frame's name table, which holds those names already.
    pub dictionary: InternerSnapshot,
}

impl SystemSnapshot {
    /// Stamp the snapshot with its identifier dictionary: exactly the node,
    /// relation and rule names referenced by the snapshot's contents — every
    /// one reachable from the per-node state and the graph (call after
    /// filling those in). Deliberately not the whole process intern pool:
    /// the snapshot must depend only on itself, not on what else the process
    /// has interned.
    pub fn stamp_dictionary(&mut self) {
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for (node, snap) in &self.nodes {
            names.insert(node.as_str());
            for (relation, tuples) in &snap.relations {
                names.insert(relation);
                for t in tuples {
                    insert_names(t, &mut names);
                }
            }
        }
        for vertex in self.graph.vertices.values() {
            match vertex {
                provenance::ProvVertex::Tuple { tuple, home, .. } => {
                    names.insert(home.as_str());
                    if let Some(t) = tuple {
                        insert_names(t, &mut names);
                    }
                }
                provenance::ProvVertex::RuleExec { rule, node, .. } => {
                    names.insert(rule.as_str());
                    names.insert(node.as_str());
                }
            }
        }
        self.dictionary = InternerSnapshot {
            strings: names.into_iter().map(str::to_string).collect(),
        };
    }

    /// Total tuples across every node.
    pub fn tuple_count(&self) -> usize {
        self.nodes.values().map(NodeSnapshot::tuple_count).sum()
    }

    /// All tuples of a relation across nodes (sorted, for comparisons).
    pub fn relation(&self, relation: &str) -> Vec<(Addr, Tuple)> {
        let mut out = Vec::new();
        for (node, snap) in &self.nodes {
            if let Some(tuples) = snap.relations.get(relation) {
                for t in tuples {
                    out.push((*node, t.clone()));
                }
            }
        }
        out.sort_by_key(|(n, t)| (*n, t.to_string()));
        out
    }
}

fn insert_names(tuple: &Tuple, names: &mut BTreeSet<&str>) {
    tuple.visit_names(&mut |name| {
        names.insert(name.as_str());
    });
}

/// A map keyed by relation name: each key is a name of the frame.
pub(crate) fn encode_by_relation<V: Encode>(map: &BTreeMap<String, V>, w: &mut Writer) {
    w.usize(map.len());
    for (relation, v) in map {
        w.name(relation);
        v.encode(w);
    }
}

pub(crate) fn decode_by_relation<V: Decode>(
    r: &mut Reader<'_>,
) -> Result<BTreeMap<String, V>, DecodeError> {
    let mut map = BTreeMap::new();
    for _ in 0..r.count()? {
        let relation = r.name()?.to_string();
        map.insert(relation, V::decode(r)?);
    }
    Ok(map)
}

impl Encode for NodeSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.node(self.node);
        encode_by_relation(&self.relations, w);
        self.provenance.encode(w);
    }
}

impl Decode for NodeSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeSnapshot {
            node: r.node()?,
            relations: decode_by_relation(r)?,
            provenance: ProvStoreStats::decode(r)?,
        })
    }
}

impl Encode for SystemSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.time.encode(w);
        self.nodes.encode(w);
        self.topology.encode(w);
        self.graph.encode(w);
        self.traffic.encode(w);
        self.dictionary.encode(w);
    }
}

impl Decode for SystemSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SystemSnapshot {
            time: SimTime::decode(r)?,
            nodes: BTreeMap::decode(r)?,
            topology: Topology::decode(r)?,
            graph: ProvGraph::decode(r)?,
            traffic: TrafficStats::decode(r)?,
            dictionary: InternerSnapshot::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{CompiledProgram, EngineConfig, NodeEngine, Value};
    use std::sync::Arc;

    fn engine_with_links() -> NodeEngine {
        let program =
            Arc::new(CompiledProgram::from_source("r1 cost(@S,D,C) :- link(@S,D,C).").unwrap());
        let mut e = NodeEngine::new(program, EngineConfig::new("n1"));
        e.insert_base(Tuple::new(
            "link",
            vec![Value::addr("n1"), Value::addr("n2"), Value::Int(3)],
        ))
        .unwrap();
        e.run();
        e
    }

    #[test]
    fn node_snapshot_captures_visible_relations() {
        let e = engine_with_links();
        let prov = ProvenanceSystem::new(["n1"]);
        let snap = NodeSnapshot::capture("n1", e.database(), &prov);
        assert_eq!(snap.tuple_count(), 2, "link + cost");
        assert!(snap.relations.contains_key("link"));
        assert!(snap.relations.contains_key("cost"));
    }

    #[test]
    fn system_snapshot_aggregates_nodes() {
        let e = engine_with_links();
        let prov = ProvenanceSystem::new(["n1"]);
        let mut snapshot = SystemSnapshot {
            time: SimTime::from_secs(3),
            ..Default::default()
        };
        snapshot.nodes.insert(
            "n1".into(),
            NodeSnapshot::capture("n1", e.database(), &prov),
        );
        assert_eq!(snapshot.tuple_count(), 2);
        assert_eq!(snapshot.relation("cost").len(), 1);
        assert_eq!(snapshot.relation("nope").len(), 0);
    }
}
