//! Incremental snapshot deltas.
//!
//! Uploading a full [`SystemSnapshot`] at every capture re-ships everything —
//! full tables, the full provenance graph and every name they mention. A
//! [`SnapshotDelta`] instead carries only what changed since the previous
//! capture: per-node tuple additions/removals (removals written as bare
//! [`TupleId`]s), provenance-graph vertex/edge edits, and the topology and
//! traffic counters only when they moved. It names nothing it
//! does not hold: the names it uses travel in its own frame's name table
//! (`nt_runtime::codec`). Applying a delta to the previous materialized
//! snapshot reproduces the next snapshot bit-for-bit, which the equivalence
//! proptest verifies across every backend: added tuples travel in `Tuple`'s
//! order, and applying them merges them into their relation by that order,
//! touching no relation the delta does not add to.

use crate::snapshot::{decode_by_relation, encode_by_relation, NodeSnapshot, SystemSnapshot};
use nt_runtime::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_runtime::{Addr, Tuple, TupleId};
use provenance::{ProvEdge, ProvVertex, VertexId};
use simnet::{SimTime, Topology, TrafficStats};
use std::collections::{BTreeMap, BTreeSet};

/// Changes to one node's captured state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeDelta {
    /// Tuples that appeared, per relation (in the relation's canonical
    /// order).
    pub added: BTreeMap<String, Vec<Tuple>>,
    /// Tuples that disappeared, per relation, as content-addressed ids — an
    /// id is 8 bytes in the frame, the tuple itself is not re-shipped.
    pub removed: BTreeMap<String, Vec<TupleId>>,
}

impl NodeDelta {
    /// True when the node did not change.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Diff one node's state between two captures.
    pub fn between(prev: &NodeSnapshot, next: &NodeSnapshot) -> Self {
        let mut delta = NodeDelta::default();
        let relations: BTreeSet<&String> =
            prev.relations.keys().chain(next.relations.keys()).collect();
        for rel in relations {
            let empty = Vec::new();
            let before = prev.relations.get(rel).unwrap_or(&empty);
            let after = next.relations.get(rel).unwrap_or(&empty);
            let before_ids: BTreeSet<TupleId> = before.iter().map(Tuple::id).collect();
            let after_ids: BTreeSet<TupleId> = after.iter().map(Tuple::id).collect();
            let added: Vec<Tuple> = after
                .iter()
                .filter(|t| !before_ids.contains(&t.id()))
                .cloned()
                .collect();
            let removed: Vec<TupleId> = before
                .iter()
                .map(Tuple::id)
                .filter(|id| !after_ids.contains(id))
                .collect();
            if !added.is_empty() {
                delta.added.insert(rel.clone(), added);
            }
            if !removed.is_empty() {
                delta.removed.insert(rel.clone(), removed);
            }
        }
        delta
    }
}

/// Changes to the centralized provenance graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// Vertices that appeared or changed (applied as overwrites).
    pub vertices_added: Vec<(VertexId, ProvVertex)>,
    /// Vertices that disappeared.
    pub vertices_removed: Vec<VertexId>,
    /// Edges that appeared.
    pub edges_added: Vec<ProvEdge>,
    /// Edges that disappeared.
    pub edges_removed: Vec<ProvEdge>,
}

impl GraphDelta {
    /// Diff the graph between two captures.
    pub fn between(prev: &provenance::ProvGraph, next: &provenance::ProvGraph) -> Self {
        let mut delta = GraphDelta::default();
        for (vid, vertex) in &next.vertices {
            if prev.vertices.get(vid) != Some(vertex) {
                delta.vertices_added.push((*vid, vertex.clone()));
            }
        }
        for vid in prev.vertices.keys() {
            if !next.vertices.contains_key(vid) {
                delta.vertices_removed.push(*vid);
            }
        }
        let before: BTreeSet<ProvEdge> = prev.edges.iter().copied().collect();
        let after: BTreeSet<ProvEdge> = next.edges.iter().copied().collect();
        delta.edges_added = after.difference(&before).copied().collect();
        delta.edges_removed = before.difference(&after).copied().collect();
        delta
    }
}

/// The changes between two consecutive system captures. Applying a delta to
/// the previous capture's materialized snapshot yields the next one,
/// bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    /// Capture time of the *next* snapshot (the one this delta materializes).
    pub time: SimTime,
    /// Per-node changes, keyed by node name.
    pub nodes: BTreeMap<Addr, NodeDelta>,
    /// Nodes that disappeared from the capture.
    pub nodes_removed: Vec<Addr>,
    /// The new topology, shipped in full when it changed.
    pub topology: Option<Topology>,
    /// Provenance-graph edits.
    pub graph: GraphDelta,
    /// The new cumulative traffic counters, when they moved.
    pub traffic: Option<TrafficStats>,
}

impl SnapshotDelta {
    /// Diff two consecutive captures.
    pub fn between(prev: &SystemSnapshot, next: &SystemSnapshot) -> Self {
        let mut delta = SnapshotDelta {
            time: next.time,
            ..Default::default()
        };
        for (addr, next_node) in &next.nodes {
            match prev.nodes.get(addr) {
                Some(prev_node) => {
                    let nd = NodeDelta::between(prev_node, next_node);
                    if !nd.is_empty() {
                        delta.nodes.insert(*addr, nd);
                    }
                }
                None => {
                    let nd = NodeDelta::between(&NodeSnapshot::default(), next_node);
                    delta.nodes.insert(*addr, nd);
                }
            }
        }
        for addr in prev.nodes.keys() {
            if !next.nodes.contains_key(addr) {
                delta.nodes_removed.push(*addr);
            }
        }
        if prev.topology != next.topology {
            delta.topology = Some(next.topology.clone());
        }
        delta.graph = GraphDelta::between(&prev.graph, &next.graph);
        if prev.traffic != next.traffic {
            delta.traffic = Some(next.traffic.clone());
        }
        delta
    }

    /// Apply the delta in place, turning the previous capture's materialized
    /// snapshot into the next one. Removals keep a relation's order; a
    /// relation that gained tuples gets them appended and is stable-sorted
    /// by `Tuple`'s order, which merges the two sorted runs with integer and
    /// handle compares, so the result is bit-identical to the full snapshot.
    ///
    /// Returns the tuples it took out of `base`, each with its node: the
    /// delta names removals by id only, and a replay step reports the tuples.
    pub fn apply(&self, base: &mut SystemSnapshot) -> Vec<(Addr, Tuple)> {
        let mut taken = Vec::new();
        base.time = self.time;
        for addr in &self.nodes_removed {
            if let Some(node) = base.nodes.remove(addr) {
                let tuples = node.relations.into_values().flatten();
                taken.extend(tuples.map(|t| (*addr, t)));
            }
        }
        for (addr, nd) in &self.nodes {
            let node = base.nodes.entry(*addr).or_insert_with(|| NodeSnapshot {
                node: *addr,
                ..Default::default()
            });
            for (rel, removed) in &nd.removed {
                let gone: BTreeSet<TupleId> = removed.iter().copied().collect();
                if let Some(tuples) = node.relations.get_mut(rel) {
                    tuples.retain(|t| {
                        let keep = !gone.contains(&t.id());
                        if !keep {
                            taken.push((*addr, t.clone()));
                        }
                        keep
                    });
                }
            }
            for (rel, added) in &nd.added {
                let tuples = node.relations.entry(rel.clone()).or_default();
                tuples.extend(added.iter().cloned());
                tuples.sort();
            }
            node.relations.retain(|_, tuples| !tuples.is_empty());
        }
        if let Some(topology) = &self.topology {
            base.topology = topology.clone();
        }
        for vid in &self.graph.vertices_removed {
            base.graph.vertices.remove(vid);
        }
        for (vid, vertex) in &self.graph.vertices_added {
            base.graph.vertices.insert(*vid, vertex.clone());
        }
        if !self.graph.edges_added.is_empty() || !self.graph.edges_removed.is_empty() {
            let gone: BTreeSet<ProvEdge> = self.graph.edges_removed.iter().copied().collect();
            base.graph.edges.retain(|e| !gone.contains(e));
            base.graph
                .edges
                .extend(self.graph.edges_added.iter().copied());
            base.graph.edges.sort();
            base.graph.edges.dedup();
        }
        if let Some(traffic) = &self.traffic {
            base.traffic = traffic.clone();
        }
        taken
    }
}

impl Encode for NodeDelta {
    fn encode(&self, w: &mut Writer) {
        encode_by_relation(&self.added, w);
        encode_by_relation(&self.removed, w);
    }
}

impl Decode for NodeDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeDelta {
            added: decode_by_relation(r)?,
            removed: decode_by_relation(r)?,
        })
    }
}

/// Added vertices are written as vertices: each one's key is its own id.
impl Encode for GraphDelta {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.vertices_added.len());
        for (id, vertex) in &self.vertices_added {
            debug_assert_eq!(*id, vertex.id(), "a vertex is keyed by its own id");
            vertex.encode(w);
        }
        self.vertices_removed.encode(w);
        self.edges_added.encode(w);
        self.edges_removed.encode(w);
    }
}

impl Decode for GraphDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        let mut vertices_added = Vec::with_capacity(n);
        for _ in 0..n {
            let vertex = ProvVertex::decode(r)?;
            vertices_added.push((vertex.id(), vertex));
        }
        Ok(GraphDelta {
            vertices_added,
            vertices_removed: Vec::decode(r)?,
            edges_added: Vec::decode(r)?,
            edges_removed: Vec::decode(r)?,
        })
    }
}

impl Encode for SnapshotDelta {
    fn encode(&self, w: &mut Writer) {
        self.time.encode(w);
        self.nodes.encode(w);
        self.nodes_removed.encode(w);
        self.topology.encode(w);
        self.graph.encode(w);
        self.traffic.encode(w);
    }
}

impl Decode for SnapshotDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SnapshotDelta {
            time: SimTime::decode(r)?,
            nodes: BTreeMap::decode(r)?,
            nodes_removed: Vec::decode(r)?,
            topology: Option::decode(r)?,
            graph: GraphDelta::decode(r)?,
            traffic: Option::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{codec, Value};

    fn node_with(name: &str, costs: &[i64]) -> NodeSnapshot {
        let mut node = NodeSnapshot {
            node: name.into(),
            ..Default::default()
        };
        let mut tuples: Vec<Tuple> = costs
            .iter()
            .map(|c| Tuple::new("cost", vec![Value::addr(name), Value::Int(*c)]))
            .collect();
        tuples.sort();
        node.relations.insert("cost".into(), tuples);
        node
    }

    fn snapshot_with(secs: u64, costs: &[i64]) -> SystemSnapshot {
        let mut snap = SystemSnapshot {
            time: SimTime::from_secs(secs),
            ..Default::default()
        };
        snap.nodes.insert("n1".into(), node_with("n1", costs));
        snap
    }

    #[test]
    fn delta_round_trips_to_the_next_snapshot() {
        let a = snapshot_with(1, &[1, 2, 3]);
        let b = snapshot_with(2, &[2, 3, 4, 5]);
        let delta = SnapshotDelta::between(&a, &b);
        let mut materialized = a.clone();
        delta.apply(&mut materialized);
        assert_eq!(materialized, b);
    }

    #[test]
    fn removals_are_priced_as_ids_not_tuples() {
        // The removed tuples hold 100-byte strings; each costs its 8-byte id.
        let wide = |keys: &[i64]| {
            let mut snap = snapshot_with(1, &[1]);
            let padding = Value::str("x".repeat(100));
            let tuples = keys
                .iter()
                .map(|k| Tuple::new("wide", vec![Value::Int(*k), padding.clone()]));
            let node = snap.nodes.get_mut(&"n1".into()).unwrap();
            node.relations.insert("wide".into(), tuples.collect());
            snap
        };
        let after = snapshot_with(2, &[1]);
        let removing =
            |keys: &[i64]| codec::encode(&SnapshotDelta::between(&wide(keys), &after)).len();
        assert_eq!(removing(&[2, 3]) - removing(&[2]), 8);
    }

    #[test]
    fn unchanged_capture_produces_a_near_empty_delta() {
        let a = snapshot_with(1, &[1, 2]);
        let b = snapshot_with(2, &[1, 2]);
        let delta = SnapshotDelta::between(&a, &b);
        assert!(delta.nodes.is_empty());
        assert!(delta.topology.is_none());
        assert_eq!(delta.graph, GraphDelta::default());
        assert!(delta.traffic.is_none());
        // An empty name table, the time and eight empty sections.
        assert_eq!(codec::encode(&delta).len(), 1 + 3 + 8);
    }

    #[test]
    fn node_appearance_and_disappearance_round_trip() {
        let mut a = snapshot_with(1, &[1]);
        let mut b = snapshot_with(2, &[1]);
        b.nodes.insert("n2".into(), node_with("n2", &[7]));
        let delta = SnapshotDelta::between(&a, &b);
        let mut forward = a.clone();
        delta.apply(&mut forward);
        assert_eq!(forward, b);

        // And the reverse direction drops the node again.
        std::mem::swap(&mut a, &mut b);
        let delta = SnapshotDelta::between(&a, &b);
        assert_eq!(delta.nodes_removed, vec![Addr::new("n2")]);
        let mut back = a.clone();
        delta.apply(&mut back);
        assert_eq!(back, b);
    }
}
