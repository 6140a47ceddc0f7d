//! The incremental capture path.
//!
//! [`SnapshotCapturer`] turns a stream of full [`SystemSnapshot`] captures
//! into the checkpoint + delta record stream the log stores: the first
//! capture (and every `checkpoint_every`-th after it) becomes a full
//! [`LogRecord::Checkpoint`]; every other capture becomes a
//! [`LogRecord::Delta`] against the previous capture. The capturer also
//! tracks the interner *watermark* at each capture, so a delta's dictionary
//! diff ships exactly the symbols minted between the two captures — nothing
//! the previous upload already carried, and nothing some unrelated part of
//! the process interned later.

use crate::backend::LogRecord;
use crate::delta::SnapshotDelta;
use crate::snapshot::SystemSnapshot;
use nt_runtime::Interner;

/// Converts consecutive full captures into checkpoint/delta records.
#[derive(Debug)]
pub struct SnapshotCapturer {
    checkpoint_every: usize,
    since_checkpoint: usize,
    last: Option<SystemSnapshot>,
    watermark: usize,
}

impl SnapshotCapturer {
    /// A capturer that emits a full checkpoint every `checkpoint_every`
    /// captures (the first capture is always a checkpoint). A value of 1
    /// degenerates to the full-snapshot-only behavior; 0 is treated as 1.
    pub fn new(checkpoint_every: usize) -> Self {
        SnapshotCapturer {
            checkpoint_every: checkpoint_every.max(1),
            since_checkpoint: 0,
            last: None,
            watermark: 0,
        }
    }

    /// Convert the next capture into a log record, reading the current
    /// interner watermark. When replaying a pre-captured list (as the
    /// equivalence proptests do, to feed both backends identical records), use
    /// [`SnapshotCapturer::capture_with_watermark`] with watermarks recorded
    /// at the original capture times instead.
    pub fn capture(&mut self, snapshot: SystemSnapshot) -> LogRecord {
        let watermark = Interner::watermark();
        self.capture_with_watermark(snapshot, watermark)
    }

    /// Convert the next capture into a log record, with `watermark` the
    /// interner length observed when `snapshot` was captured. The delta's
    /// dictionary diff covers `[previous watermark, watermark)`.
    pub fn capture_with_watermark(
        &mut self,
        snapshot: SystemSnapshot,
        watermark: usize,
    ) -> LogRecord {
        let record = match &self.last {
            Some(prev) if self.since_checkpoint < self.checkpoint_every => {
                let fresh = watermark.saturating_sub(self.watermark);
                let mut dict_diff = Interner::snapshot().diff_since(self.watermark);
                dict_diff.strings.truncate(fresh);
                self.since_checkpoint += 1;
                LogRecord::Delta(SnapshotDelta::between(prev, &snapshot, dict_diff))
            }
            _ => {
                self.since_checkpoint = 1;
                LogRecord::Checkpoint(snapshot.clone())
            }
        };
        self.watermark = watermark.max(self.watermark);
        self.last = Some(snapshot);
        record
    }

    /// The snapshot of the most recent capture, if any.
    pub fn last(&self) -> Option<&SystemSnapshot> {
        self.last.as_ref()
    }

    /// The interner watermark recorded at the most recent capture.
    pub fn watermark(&self) -> usize {
        self.watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RecordKind;
    use simnet::SimTime;

    fn snapshot_at(secs: u64) -> SystemSnapshot {
        SystemSnapshot {
            time: SimTime::from_secs(secs),
            ..Default::default()
        }
    }

    #[test]
    fn first_capture_and_every_nth_are_checkpoints() {
        let mut cap = SnapshotCapturer::new(3);
        let kinds: Vec<RecordKind> = (0..7).map(|i| cap.capture(snapshot_at(i)).kind()).collect();
        use RecordKind::{Checkpoint as C, Delta as D};
        assert_eq!(kinds, vec![C, D, D, C, D, D, C]);
    }

    #[test]
    fn checkpoint_every_one_emits_only_checkpoints() {
        let mut cap = SnapshotCapturer::new(1);
        for i in 0..4 {
            assert_eq!(cap.capture(snapshot_at(i)).kind(), RecordKind::Checkpoint);
        }
    }

    #[test]
    fn delta_dict_diff_is_empty_when_no_symbols_were_minted() {
        let mut cap = SnapshotCapturer::new(8);
        let wm = Interner::watermark();
        cap.capture_with_watermark(snapshot_at(1), wm);
        let record = cap.capture_with_watermark(snapshot_at(2), wm);
        let LogRecord::Delta(delta) = record else {
            panic!("second capture must be a delta");
        };
        assert!(delta.dict_diff.is_empty());
        assert_eq!(LogRecord::Delta(delta).dict_bytes(), 0);
    }
}
