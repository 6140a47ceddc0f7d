//! The incremental capture path.
//!
//! [`SnapshotCapturer`] turns a stream of full [`SystemSnapshot`] captures
//! into the checkpoint + delta record stream the log stores: the first
//! capture (and every `checkpoint_every`-th after it) becomes a full
//! [`LogRecord::Checkpoint`]; every other capture becomes a
//! [`LogRecord::Delta`] against the previous capture. A record needs no
//! dictionary from the records before it: its encoded frame carries the
//! strings of the names it uses in its own name table (`nt_runtime::codec`),
//! so what it costs depends on the captures alone, never on what else the
//! process interned.

use crate::backend::LogRecord;
use crate::delta::SnapshotDelta;
use crate::snapshot::SystemSnapshot;

/// Converts consecutive full captures into checkpoint/delta records.
#[derive(Debug)]
pub struct SnapshotCapturer {
    checkpoint_every: usize,
    since_checkpoint: usize,
    last: Option<SystemSnapshot>,
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
        }
    }

    /// Convert the next capture into a log record.
    pub fn capture(&mut self, snapshot: SystemSnapshot) -> LogRecord {
        let prev = self
            .last
            .as_ref()
            .filter(|_| self.since_checkpoint < self.checkpoint_every);
        let record = match prev {
            Some(prev) => {
                self.since_checkpoint += 1;
                LogRecord::Delta(SnapshotDelta::between(prev, &snapshot))
            }
            None => {
                self.since_checkpoint = 1;
                LogRecord::Checkpoint(snapshot.clone())
            }
        };
        self.last = Some(snapshot);
        record
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
}
