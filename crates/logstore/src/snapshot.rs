//! Snapshot types.
//!
//! A snapshot is canonical: each relation's tuples are in `Tuple`'s order
//! (relation, then values by `Value::cmp`, which agrees with `==` and the
//! tuple id), so captures of one state are one value whatever the table
//! slot order, and a delta applied to the previous capture reproduces the
//! next bit for bit. A snapshot holds no list of the names it mentions: its
//! encoded frame's name table (`nt_runtime::codec`) is that list, in
//! first-use order.

use nt_runtime::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_runtime::{Addr, Database, Tuple};
use provenance::{ProvGraph, ProvStoreStats, ProvenanceSystem};
use simnet::{SimTime, Topology, TrafficStats};
use std::collections::BTreeMap;

/// One node's captured state at a point in (simulated) time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSnapshot {
    /// Node name.
    pub node: Addr,
    /// The node's non-empty relations and their tuples.
    pub relations: BTreeMap<String, Vec<Tuple>>,
    /// Size of the node's provenance partition.
    pub provenance: ProvStoreStats,
}

impl NodeSnapshot {
    /// Capture a node's state from its runtime database and provenance
    /// store. Each relation's tuples are stored in `Tuple`'s order, the one
    /// canonical order of a snapshot, so that a delta applied to the previous
    /// capture reproduces this one bit-for-bit regardless of table slot
    /// order.
    pub fn capture(node: &str, db: &Database, provenance: &ProvenanceSystem) -> Self {
        let mut relations = BTreeMap::new();
        for table in db.tables() {
            if table.is_empty() {
                continue;
            }
            let mut tuples = table.tuples();
            tuples.sort_unstable();
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
#[derive(Debug, Clone, Default, PartialEq)]
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
}

impl SystemSnapshot {
    /// Total tuples across every node.
    pub fn tuple_count(&self) -> usize {
        self.nodes.values().map(NodeSnapshot::tuple_count).sum()
    }

    /// All tuples of a relation across nodes (sorted by node, then `Tuple`'s
    /// order, for comparisons).
    pub fn relation(&self, relation: &str) -> Vec<(Addr, Tuple)> {
        let mut out = Vec::new();
        for (node, snap) in &self.nodes {
            if let Some(tuples) = snap.relations.get(relation) {
                for t in tuples {
                    out.push((*node, t.clone()));
                }
            }
        }
        out.sort_unstable();
        out
    }
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

    /// A capture orders each relation by `Tuple`'s order, not by table
    /// slot: the same facts inserted in two orders, the second with a delete
    /// between them so a freed slot is reused, capture alike.
    #[test]
    fn a_capture_does_not_depend_on_insertion_order_or_slot_reuse() {
        let program =
            Arc::new(CompiledProgram::from_source("r1 cost(@S,D,C) :- link(@S,D,C).").unwrap());
        let prov = ProvenanceSystem::new(["n1"]);
        let link = |d: &str, c: i64| {
            Tuple::new(
                "link",
                vec![Value::addr("n1"), Value::addr(d), Value::Int(c)],
            )
        };
        let facts = [link("n2", 10), link("n3", 3), link("n4", 7), link("n5", -1)];
        let capture = |steps: &[(bool, usize)]| {
            let mut e = NodeEngine::new(program.clone(), EngineConfig::new("n1"));
            for (insert, i) in steps {
                match insert {
                    true => e.insert_base(facts[*i].clone()).unwrap(),
                    false => e.delete_base(facts[*i].clone()).unwrap(),
                }
                e.run();
            }
            NodeSnapshot::capture("n1", e.database(), &prov)
        };
        let forward = capture(&[(true, 0), (true, 1), (true, 2), (true, 3)]);
        let reused = capture(&[
            (true, 3),
            (true, 2),
            (false, 2),
            (true, 1),
            (true, 0),
            (true, 2),
        ]);
        assert_eq!(forward, reused);
        assert_eq!(forward.tuple_count(), 8);
        for tuples in forward.relations.values() {
            assert!(tuples.windows(2).all(|w| w[0] < w[1]), "{tuples:?}");
        }
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
