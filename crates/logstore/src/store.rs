//! The central Log Store.

use crate::backend::{CompactionStats, LogBackend, LogRecord, MemBackend, RecordKind};
use crate::snapshot::SystemSnapshot;
use nt_runtime::codec::{self, Writer};
use simnet::SimTime;
use std::borrow::Cow;
use std::cell::RefCell;

/// A materialized snapshot and the record index it stands at.
#[derive(Debug)]
pub(crate) struct Cursor {
    pub(crate) index: usize,
    pub(crate) snapshot: SystemSnapshot,
}

/// The store of system snapshots that lives at the visualization node,
/// a thin façade over a pluggable [`LogBackend`]. Records are full
/// checkpoints or incremental deltas; every read (`get`, `at`, `snapshots`)
/// *materializes* a full [`SystemSnapshot`], so callers never see the
/// encoding. A record is its encoded payload: [`LogStore::append_record`]
/// encodes it once, hands the bytes to the backend and charges their length
/// to [`LogStore::uploaded_bytes`] — the centralization cost of Section 2.3.
///
/// # What a read costs
///
/// The store keeps one *materialization cursor*: the snapshot of the last
/// index read, whatever the backend. A read of index `i` whose chain (the
/// nearest checkpoint at or before `i`, and the deltas after it) holds the
/// cursor at or before `i` decodes and applies only the deltas between the
/// two; any other read decodes the checkpoint and the deltas up to `i`. So
/// reading forward costs one record decode per index, and a read elsewhere
/// costs at most one chain. [`LogStore::get`] and [`LogStore::at`] return a
/// clone of the cursor's snapshot; a [`crate::Replay`] takes the snapshot
/// out of the store and steps it in place. [`LogStore::append_record`] and
/// [`LogStore::compact`] drop the cursor.
#[derive(Debug)]
pub struct LogStore {
    backend: Box<dyn LogBackend>,
    /// The record encoder and its output, reused from append to append.
    writer: Writer,
    encoded: Vec<u8>,
    uploaded_bytes: u64,
    checkpoints: usize,
    deltas: usize,
    cursor: RefCell<Option<Cursor>>,
}

impl Default for LogStore {
    fn default() -> Self {
        LogStore::new()
    }
}

impl LogStore {
    /// An empty store over the default in-memory backend.
    pub fn new() -> Self {
        LogStore::with_backend(Box::new(MemBackend::new()))
    }

    /// An empty store over an explicit backend.
    pub fn with_backend(backend: Box<dyn LogBackend>) -> Self {
        LogStore {
            backend,
            writer: Writer::default(),
            encoded: Vec::new(),
            uploaded_bytes: 0,
            checkpoints: 0,
            deltas: 0,
            cursor: RefCell::new(None),
        }
    }

    /// The backend's short name ("mem", "segment_file").
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Append a full snapshot as a checkpoint record (snapshots must arrive
    /// in non-decreasing time order; out-of-order snapshots are inserted at
    /// the right position). This is the pre-incremental upload path and
    /// remains the API for callers that do not run a
    /// [`crate::SnapshotCapturer`].
    pub fn add(&mut self, snapshot: SystemSnapshot) {
        self.append_record(LogRecord::Checkpoint(snapshot));
    }

    /// Append a checkpoint or delta record: encode it, charge the payload's
    /// length as its upload, and store the payload.
    ///
    /// Chain invariants are enforced here, once, for every backend: a delta
    /// only makes sense appended at the end (it diffs against the previous
    /// record's materialized state), and a late-arriving checkpoint may slot
    /// in anywhere *except* immediately before a delta — that would splice a
    /// foreign base under an existing chain and corrupt every materialization
    /// after it.
    pub fn append_record(&mut self, record: LogRecord) {
        let (time, kind) = (record.time(), record.kind());
        let pos = self.backend.time_index().partition_point(|t| *t <= time);
        match kind {
            RecordKind::Delta => {
                assert!(
                    pos == self.backend.len() && !self.backend.is_empty(),
                    "delta records must append at the end of a non-empty log \
                     (delta at {time:?} would land at {pos}/{})",
                    self.backend.len()
                );
                self.deltas += 1;
            }
            RecordKind::Checkpoint => {
                assert!(
                    self.backend.kind_index().get(pos) != Some(&RecordKind::Delta),
                    "checkpoint at {time:?} would split an existing checkpoint→delta chain"
                );
                self.checkpoints += 1;
            }
        }
        self.encoded.clear();
        self.writer.frame(&record, &mut self.encoded);
        self.uploaded_bytes += self.encoded.len() as u64;
        self.backend.append(time, kind, &self.encoded);
        *self.cursor.get_mut() = None;
    }

    /// Number of stored records (each materializes one snapshot).
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Total bytes uploaded to the store: the sum of the appended records'
    /// payload lengths.
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
    }

    /// Number of checkpoint records.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints
    }

    /// Number of delta records.
    pub fn delta_count(&self) -> usize {
        self.deltas
    }

    /// The backend's current storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.backend.storage_bytes()
    }

    /// Push buffered writes to durable storage.
    pub fn flush(&mut self) {
        self.backend.flush();
    }

    /// Reclaim dead backend storage without changing any answer.
    pub fn compact(&mut self) -> CompactionStats {
        *self.cursor.get_mut() = None;
        self.backend.compact()
    }

    /// The payload of the record at an index, byte for byte as
    /// [`LogStore::append_record`] encoded it; its length is what the record
    /// cost to upload. `None` when there is no such record or its bytes no
    /// longer verify.
    pub fn payload(&self, index: usize) -> Option<Cow<'_, [u8]>> {
        self.backend.payload(index).ok()
    }

    /// The record at an index, decoded from its payload (a checkpoint or a
    /// delta, not materialized) — what a replay step reads.
    pub fn record(&self, index: usize) -> Option<LogRecord> {
        codec::decode(&self.payload(index)?).ok()
    }

    /// Every readable record in time order, each with its payload's length
    /// — what the replay timeline draws.
    pub fn records(&self) -> Vec<(LogRecord, usize)> {
        let read = |i| {
            let payload = self.payload(i)?;
            Some((codec::decode(&payload).ok()?, payload.len()))
        };
        (0..self.len()).filter_map(read).collect()
    }

    /// All snapshots in time order, materialized.
    pub fn snapshots(&self) -> Vec<SystemSnapshot> {
        (0..self.len()).filter_map(|i| self.get(i)).collect()
    }

    /// The snapshot at a given index (see "What a read costs" above).
    pub fn get(&self, index: usize) -> Option<SystemSnapshot> {
        let cursor = self.take_cursor_at(index)?;
        let snapshot = cursor.snapshot.clone();
        self.park_cursor(cursor);
        Some(snapshot)
    }

    /// Move the cursor to `index` and take it out of the store: forward from
    /// where it stands when that is on `index`'s chain at or before `index`,
    /// otherwise from the chain's checkpoint. The store holds no cursor
    /// until [`LogStore::park_cursor`] hands one back.
    pub(crate) fn take_cursor_at(&self, index: usize) -> Option<Cursor> {
        if index >= self.len() {
            return None;
        }
        let kinds = self.backend.kind_index();
        let base = (0..=index)
            .rev()
            .find(|i| kinds[*i] == RecordKind::Checkpoint)?;
        let mut cursor = match self.cursor.take() {
            Some(cursor) if (base..=index).contains(&cursor.index) => cursor,
            _ => {
                let LogRecord::Checkpoint(snapshot) = self.record(base)? else {
                    return None;
                };
                Cursor {
                    index: base,
                    snapshot,
                }
            }
        };
        if cursor.index < index {
            for i in cursor.index + 1..=index {
                let LogRecord::Delta(delta) = self.record(i)? else {
                    return None;
                };
                delta.apply(&mut cursor.snapshot);
            }
            cursor.index = index;
        }
        Some(cursor)
    }

    /// Hand a cursor back (one taken with [`LogStore::take_cursor_at`] and
    /// possibly stepped since).
    pub(crate) fn park_cursor(&self, cursor: Cursor) {
        self.cursor.replace(Some(cursor));
    }

    /// The index of the latest record captured at or before `time` — a
    /// `partition_point` binary search over the backend's time index.
    pub fn index_at(&self, time: SimTime) -> Option<usize> {
        self.backend.at(time)
    }

    /// The latest snapshot taken at or before `time` (what the visualizer
    /// shows when the user pauses the replay at `time`), materialized.
    pub fn at(&self, time: SimTime) -> Option<SystemSnapshot> {
        self.get(self.index_at(time)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::SnapshotCapturer;
    use crate::segment::SegmentFileBackend;
    use crate::snapshot::NodeSnapshot;
    use nt_runtime::{Tuple, Value};

    fn snapshot_at(secs: u64) -> SystemSnapshot {
        SystemSnapshot {
            time: SimTime::from_secs(secs),
            ..Default::default()
        }
    }

    fn snapshot_with_costs(secs: u64, costs: &[i64]) -> SystemSnapshot {
        let mut node = NodeSnapshot {
            node: "n1".into(),
            ..Default::default()
        };
        let mut tuples: Vec<Tuple> = costs
            .iter()
            .map(|c| Tuple::new("cost", vec![Value::addr("n1"), Value::Int(*c)]))
            .collect();
        tuples.sort();
        node.relations.insert("cost".into(), tuples);
        let mut snap = snapshot_at(secs);
        snap.nodes.insert("n1".into(), node);
        snap
    }

    #[test]
    fn snapshots_are_kept_in_time_order() {
        let mut store = LogStore::new();
        store.add(snapshot_at(10));
        store.add(snapshot_at(5));
        store.add(snapshot_at(7));
        let times: Vec<u64> = store
            .snapshots()
            .iter()
            .map(|s| s.time.as_micros() / 1_000_000)
            .collect();
        assert_eq!(times, vec![5, 7, 10]);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn at_returns_latest_snapshot_before_time() {
        let mut store = LogStore::new();
        store.add(snapshot_at(5));
        store.add(snapshot_at(10));
        assert_eq!(
            store.at(SimTime::from_secs(7)).unwrap().time,
            SimTime::from_secs(5)
        );
        assert_eq!(
            store.at(SimTime::from_secs(10)).unwrap().time,
            SimTime::from_secs(10)
        );
        assert!(store.at(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn uploaded_bytes_accumulate() {
        let mut store = LogStore::new();
        assert_eq!(store.uploaded_bytes(), 0);
        let snapshots = [snapshot_at(1), snapshot_with_costs(2, &[1, 2])];
        let mut encoded = 0;
        for snapshot in snapshots {
            encoded += codec::encode(&LogRecord::Checkpoint(snapshot.clone())).len();
            store.add(snapshot);
            assert_eq!(
                store.uploaded_bytes(),
                encoded as u64,
                "a record costs its bytes"
            );
        }
        assert_eq!(store.storage_bytes(), encoded);
        assert!(store.get(0).is_some());
        assert!(store.get(5).is_none());
    }

    #[test]
    fn deltas_materialize_through_any_backend() {
        let dir = std::env::temp_dir().join(format!("ntl-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut capturer = SnapshotCapturer::new(3);
        let mut store =
            LogStore::with_backend(Box::new(SegmentFileBackend::open(&dir).expect("temp dir")));
        let captures = [
            snapshot_with_costs(1, &[1]),
            snapshot_with_costs(2, &[1, 2]),
            snapshot_with_costs(3, &[2]),
            snapshot_with_costs(4, &[2, 5, 7]),
        ];
        for snap in &captures {
            store.append_record(capturer.capture(snap.clone()));
        }
        assert_eq!(store.backend_name(), "segment_file");
        assert_eq!(store.checkpoint_count(), 2);
        assert_eq!(store.delta_count(), 2);
        for (i, expected) in captures.iter().enumerate() {
            assert_eq!(store.get(i).as_ref(), Some(expected), "index {i}");
        }
        assert_eq!(
            store.at(SimTime::from_secs(3)).unwrap(),
            captures[2],
            "at() materializes through the delta chain"
        );
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
    }

    #[test]
    fn a_late_checkpoint_drops_the_cursor_it_would_renumber() {
        let mut store = LogStore::new();
        store.add(snapshot_at(5));
        store.add(snapshot_at(9));
        assert_eq!(store.get(1).unwrap().time, SimTime::from_secs(9));
        // Slots in at index 1; a cursor kept from the read above would
        // still answer index 1 with the 9 s snapshot.
        store.add(snapshot_at(7));
        assert_eq!(store.get(1).unwrap().time, SimTime::from_secs(7));
        assert_eq!(store.get(2).unwrap().time, SimTime::from_secs(9));
    }

    #[test]
    #[should_panic(expected = "delta records must append at the end")]
    fn out_of_order_delta_is_rejected() {
        let mut store = LogStore::new();
        store.add(snapshot_at(10));
        store.append_record(LogRecord::Delta(crate::delta::SnapshotDelta {
            time: SimTime::from_secs(5),
            ..Default::default()
        }));
    }

    #[test]
    #[should_panic(expected = "would split an existing checkpoint")]
    fn checkpoint_cannot_split_a_delta_chain() {
        let mut store = LogStore::new();
        store.add(snapshot_with_costs(1, &[1]));
        store.append_record(LogRecord::Delta(crate::delta::SnapshotDelta {
            time: SimTime::from_secs(5),
            ..Default::default()
        }));
        store.add(snapshot_at(3));
    }
}
