//! Replay of stored snapshots.
//!
//! The demonstration replays execution logs: the RapidNet visualizer shows the
//! topology changing while the provenance visualizer shows the provenance at
//! the paused instant. [`Replay`] walks the snapshots of a [`LogStore`] in
//! time order and hands out, for every step, the [`SnapshotDelta`] that turns
//! the snapshot it held into the next one: the tuples added and the ids of
//! those removed, per node and relation, and the new topology when it
//! changed. The snapshot before the step stays readable through
//! [`Replay::current`] until the step is taken, which is what an animation
//! layer diffs against.

use crate::backend::LogRecord;
use crate::delta::SnapshotDelta;
use crate::snapshot::SystemSnapshot;
use crate::store::{Cursor, LogStore};
use simnet::SimTime;

/// An iterator-style replay cursor over a log store.
///
/// A replay works on the store's one materialization cursor: it takes the
/// snapshot out of the store and steps it in place, and a seek hands it back
/// before taking the cursor at the new index, so seeking forward along a
/// chain continues from where the replay stands. Stepping over a delta
/// record decodes that record, applies it to the snapshot held and hands the
/// record out as the step; stepping onto a checkpoint decodes it and diffs
/// the two snapshots with [`SnapshotDelta::between`], the diff the capturer
/// writes. A full replay is O(records), not O(records × chain length).
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

    /// Advance to the next snapshot, returning the change from the previous
    /// one: applying it to the snapshot held before the step gives the one
    /// held after.
    pub fn step(&mut self) -> Option<SnapshotDelta> {
        let record = self.store.record(self.position + 1)?;
        let current = self.current.as_mut()?;
        let delta = match record {
            LogRecord::Checkpoint(next) => {
                let delta = SnapshotDelta::between(current, &next);
                *current = next;
                delta
            }
            LogRecord::Delta(delta) => {
                delta.apply(current);
                delta
            }
        };
        self.position += 1;
        Some(delta)
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
    use crate::capture::SnapshotCapturer;
    use crate::snapshot::NodeSnapshot;
    use nt_runtime::{Tuple, Value};
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

    /// The one step from `a` to `b`, stored as two checkpoints and as a
    /// checkpoint and a delta.
    fn steps(a: &SystemSnapshot, b: &SystemSnapshot) -> [SnapshotDelta; 2] {
        let mut checkpoints = LogStore::new();
        let mut chain = LogStore::new();
        let mut capturer = SnapshotCapturer::new(2);
        for snap in [a, b] {
            checkpoints.add(snap.clone());
            chain.append_record(capturer.capture(snap.clone()));
        }
        [&checkpoints, &chain].map(|store| {
            let mut replay = Replay::new(store);
            let step = replay.step().expect("one step");
            assert_eq!(replay.current(), Some(b));
            assert!(replay.step().is_none());
            step
        })
    }

    #[test]
    fn diff_detects_tuple_and_link_changes() {
        let a = snapshot(1, &[1, 2], Topology::line(3));
        let b = snapshot(2, &[2, 3], Topology::line(2));
        for step in steps(&a, &b) {
            assert_eq!(step.tuple_counts(), (1, 1));
            assert_eq!(step.topology, Some(Topology::line(2)), "n2<->n3 went");
        }
    }

    #[test]
    fn replay_walks_snapshots_in_order() {
        let mut store = LogStore::new();
        store.add(snapshot(1, &[1], Topology::line(2)));
        store.add(snapshot(2, &[1, 2], Topology::line(2)));
        store.add(snapshot(3, &[2], Topology::line(2)));
        let mut replay = Replay::new(&store);
        assert_eq!(replay.remaining(), 2);
        assert_eq!(replay.step().unwrap().tuple_counts(), (1, 0));
        assert_eq!(replay.step().unwrap().tuple_counts(), (0, 1));
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
        for step in steps(&a, &b) {
            let empty = SnapshotDelta {
                time: b.time,
                ..Default::default()
            };
            assert_eq!(step, empty);
        }
    }
}
