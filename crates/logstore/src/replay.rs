//! Replay of stored snapshots.
//!
//! The demonstration replays execution logs: the RapidNet visualizer shows the
//! topology changing while the provenance visualizer shows the provenance at
//! the paused instant. [`Replay`] walks the snapshots of a [`LogStore`] in
//! time order and produces, for every step, the [`SnapshotDiff`] between
//! consecutive snapshots — which tuples appeared and disappeared, and how the
//! topology changed — which is exactly what an animation layer needs.

use crate::backend::LogRecord;
use crate::delta::SnapshotDelta;
use crate::snapshot::{NodeSnapshot, SystemSnapshot};
use crate::store::{Cursor, LogStore};
use nt_runtime::{Addr, Tuple};
use simnet::{SimTime, Topology};
use std::collections::BTreeSet;

/// The difference between two consecutive snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDiff {
    /// Time of the earlier snapshot.
    pub from: SimTime,
    /// Time of the later snapshot.
    pub to: SimTime,
    /// Tuples present in the later snapshot but not in the earlier one.
    pub appeared: Vec<(Addr, Tuple)>,
    /// Tuples present in the earlier snapshot but not in the later one.
    pub disappeared: Vec<(Addr, Tuple)>,
    /// Directed links added to the topology.
    pub links_added: Vec<(String, String)>,
    /// Directed links removed from the topology.
    pub links_removed: Vec<(String, String)>,
}

/// A node's tuples, each once, in `Tuple`'s order (equal exactly when one
/// id).
fn node_tuples(node: Option<&NodeSnapshot>) -> BTreeSet<&Tuple> {
    node.into_iter()
        .flat_map(|n| n.relations.values().flatten())
        .collect()
}

/// Changed tuples in the order [`SnapshotDiff::between`] lists them: by node,
/// then by tuple, each once.
fn in_diff_order(tuples: impl IntoIterator<Item = (Addr, Tuple)>) -> Vec<(Addr, Tuple)> {
    let mut tuples: Vec<(Addr, Tuple)> = tuples.into_iter().collect();
    tuples.sort_unstable();
    tuples.dedup();
    tuples
}

/// Directed links `(added, removed)` going from topology `a` to `b`.
type LinkChanges = (Vec<(String, String)>, Vec<(String, String)>);

fn link_changes(a: &Topology, b: &Topology) -> LinkChanges {
    let links = |t: &Topology| -> BTreeSet<(String, String)> {
        t.links().map(|l| (l.from.clone(), l.to.clone())).collect()
    };
    let (links_a, links_b) = (links(a), links(b));
    (
        links_b.difference(&links_a).cloned().collect(),
        links_a.difference(&links_b).cloned().collect(),
    )
}

impl SnapshotDiff {
    /// True when nothing changed between the two snapshots.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty()
            && self.disappeared.is_empty()
            && self.links_added.is_empty()
            && self.links_removed.is_empty()
    }

    /// Compute the diff between two snapshots. Tuples are compared by
    /// identity, node by node; a node whose relations are equal on both
    /// sides is skipped.
    pub fn between(a: &SystemSnapshot, b: &SystemSnapshot) -> Self {
        let mut appeared = Vec::new();
        let mut disappeared = Vec::new();
        let nodes: BTreeSet<Addr> = a.nodes.keys().chain(b.nodes.keys()).copied().collect();
        for node in nodes {
            let (node_a, node_b) = (a.nodes.get(&node), b.nodes.get(&node));
            if node_a.map(|n| &n.relations) == node_b.map(|n| &n.relations) {
                continue;
            }
            let (in_a, in_b) = (node_tuples(node_a), node_tuples(node_b));
            appeared.extend(in_b.difference(&in_a).map(|t| (node, (*t).clone())));
            disappeared.extend(in_a.difference(&in_b).map(|t| (node, (*t).clone())));
        }
        let (links_added, links_removed) = link_changes(&a.topology, &b.topology);
        SnapshotDiff {
            from: a.time,
            to: b.time,
            appeared,
            disappeared,
            links_added,
            links_removed,
        }
    }

    /// Turn `snapshot` into the next capture by applying `delta` in place,
    /// and report the step from the delta's added tuples and the tuples it
    /// took out of the snapshot. Equal to [`SnapshotDiff::between`] of the
    /// two snapshots, at the cost of the delta instead of both snapshots.
    fn stepping(snapshot: &mut SystemSnapshot, delta: &SnapshotDelta) -> Self {
        let from = snapshot.time;
        let (links_added, links_removed) = match &delta.topology {
            Some(next) => link_changes(&snapshot.topology, next),
            None => Default::default(),
        };
        let taken = delta.apply(snapshot);
        snapshot.stamp_dictionary();
        let added = delta.nodes.iter().flat_map(|(node, nd)| {
            let tuples = nd.added.values().flatten();
            tuples.map(|t| (*node, t.clone()))
        });
        SnapshotDiff {
            from,
            to: delta.time,
            appeared: in_diff_order(added),
            disappeared: in_diff_order(taken),
            links_added,
            links_removed,
        }
    }
}

/// An iterator-style replay cursor over a log store.
///
/// A replay works on the store's one materialization cursor: it takes the
/// snapshot out of the store and steps it in place, and a seek hands it back
/// before taking the cursor at the new index, so seeking forward along a
/// chain continues from where the replay stands. Stepping over a delta
/// record decodes that record, applies it to the snapshot held and reports
/// the step from the delta; stepping onto a checkpoint decodes it and diffs
/// the two snapshots. A full replay is O(records), not O(records × chain
/// length).
#[derive(Debug)]
pub struct Replay<'a> {
    store: &'a LogStore,
    position: usize,
    current: Option<SystemSnapshot>,
}

impl<'a> Replay<'a> {
    /// Start a replay at the first snapshot.
    pub fn new(store: &'a LogStore) -> Self {
        let mut replay = Replay {
            store,
            position: 0,
            current: None,
        };
        replay.move_to(0);
        replay
    }

    /// The materialized snapshot the cursor currently points at.
    pub fn current(&self) -> Option<&SystemSnapshot> {
        self.current.as_ref()
    }

    /// Advance to the next snapshot, returning the diff from the previous one.
    pub fn step(&mut self) -> Option<SnapshotDiff> {
        let record = self.store.record(self.position + 1)?;
        let current = self.current.as_mut()?;
        let diff = match record {
            LogRecord::Checkpoint(next) => {
                let diff = SnapshotDiff::between(current, &next);
                *current = next;
                diff
            }
            LogRecord::Delta(delta) => SnapshotDiff::stepping(current, &delta),
        };
        self.position += 1;
        Some(diff)
    }

    /// Remaining steps.
    pub fn remaining(&self) -> usize {
        self.store.len().saturating_sub(self.position + 1)
    }

    /// Jump to the snapshot closest to (at or before) `time`, as when a user
    /// drags the replay slider — a binary search over the record index, then
    /// the store's cursor moved there.
    pub fn seek(&mut self, time: SimTime) {
        self.move_to(self.store.index_at(time).unwrap_or(0));
    }

    /// Hand the snapshot held back to the store, then take the store's
    /// cursor at `index`.
    fn move_to(&mut self, index: usize) {
        if let Some(snapshot) = self.current.take() {
            self.store.park_cursor(Cursor {
                index: self.position,
                snapshot,
            });
        }
        self.position = index;
        self.current = self.store.take_cursor_at(index).map(|c| c.snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::NodeSnapshot;
    use nt_runtime::Value;
    use simnet::Topology;

    fn snapshot(secs: u64, costs: &[i64], topo: Topology) -> SystemSnapshot {
        let mut node = NodeSnapshot {
            node: "n1".into(),
            ..Default::default()
        };
        node.relations.insert(
            "cost".into(),
            costs
                .iter()
                .map(|c| Tuple::new("cost", vec![Value::addr("n1"), Value::Int(*c)]))
                .collect(),
        );
        let mut snap = SystemSnapshot {
            time: SimTime::from_secs(secs),
            topology: topo,
            ..Default::default()
        };
        snap.nodes.insert("n1".into(), node);
        snap
    }

    #[test]
    fn diff_detects_tuple_and_link_changes() {
        let a = snapshot(1, &[1, 2], Topology::line(3));
        let b = snapshot(2, &[2, 3], Topology::line(2));
        let diff = SnapshotDiff::between(&a, &b);
        assert_eq!(diff.appeared.len(), 1);
        assert_eq!(diff.disappeared.len(), 1);
        assert_eq!(diff.links_removed.len(), 2, "n2<->n3 disappeared");
        assert!(diff.links_added.is_empty());
        assert!(!diff.is_empty());
    }

    #[test]
    fn replay_walks_snapshots_in_order() {
        let mut store = LogStore::new();
        store.add(snapshot(1, &[1], Topology::line(2)));
        store.add(snapshot(2, &[1, 2], Topology::line(2)));
        store.add(snapshot(3, &[2], Topology::line(2)));
        let mut replay = Replay::new(&store);
        assert_eq!(replay.remaining(), 2);
        let d1 = replay.step().unwrap();
        assert_eq!(d1.appeared.len(), 1);
        let d2 = replay.step().unwrap();
        assert_eq!(d2.disappeared.len(), 1);
        assert!(replay.step().is_none());
    }

    #[test]
    fn seek_moves_to_the_snapshot_before_a_time() {
        let mut store = LogStore::new();
        store.add(snapshot(1, &[1], Topology::line(2)));
        store.add(snapshot(5, &[2], Topology::line(2)));
        store.add(snapshot(9, &[3], Topology::line(2)));
        let mut replay = Replay::new(&store);
        replay.seek(SimTime::from_secs(6));
        assert_eq!(replay.current().unwrap().time, SimTime::from_secs(5));
        replay.seek(SimTime::from_secs(0));
        assert_eq!(replay.current().unwrap().time, SimTime::from_secs(1));
    }

    #[test]
    fn identical_snapshots_produce_an_empty_diff() {
        let a = snapshot(1, &[1], Topology::line(2));
        let b = snapshot(2, &[1], Topology::line(2));
        assert!(SnapshotDiff::between(&a, &b).is_empty());
    }
}
