//! The pluggable storage layer underneath [`crate::LogStore`].
//!
//! The Log Store of Section 2.3 is an append-only sequence of records — full
//! [`SystemSnapshot`] checkpoints interleaved with [`SnapshotDelta`]s that
//! carry only what changed since the previous capture. A record is its
//! encoded payload: the façade encodes it once (`nt_runtime::codec`),
//! charges the payload's length as the upload, and hands the bytes to a
//! [`LogBackend`], which stores them in memory ([`MemBackend`]) or in
//! append-only segment files ([`crate::SegmentFileBackend`]). Backends
//! neither encode nor decode; the façade decodes what they return and
//! materializes point-in-time snapshots from checkpoint + delta chains
//! regardless of the backend.

use crate::delta::SnapshotDelta;
use crate::snapshot::SystemSnapshot;
use nt_runtime::codec::{Decode, DecodeError, Encode, Reader, Writer};
use simnet::SimTime;
use std::borrow::Cow;
use std::io;

/// One record of the log: a full checkpoint or an incremental delta against
/// the previous record's materialized state.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A full system snapshot (self-contained recovery point).
    Checkpoint(SystemSnapshot),
    /// The changes since the previous record's materialized snapshot.
    Delta(SnapshotDelta),
}

impl LogRecord {
    /// The capture time the record is stamped with.
    pub fn time(&self) -> SimTime {
        match self {
            LogRecord::Checkpoint(s) => s.time,
            LogRecord::Delta(d) => d.time,
        }
    }

    /// The record's kind tag (cheap to index without decoding the payload).
    pub fn kind(&self) -> RecordKind {
        match self {
            LogRecord::Checkpoint(_) => RecordKind::Checkpoint,
            LogRecord::Delta(_) => RecordKind::Delta,
        }
    }
}

/// A kind tag (0 checkpoint, 1 delta), then the record.
impl Encode for LogRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            LogRecord::Checkpoint(s) => {
                w.u8(0);
                s.encode(w);
            }
            LogRecord::Delta(d) => {
                w.u8(1);
                d.encode(w);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(LogRecord::Checkpoint(SystemSnapshot::decode(r)?)),
            1 => Ok(LogRecord::Delta(SnapshotDelta::decode(r)?)),
            _ => Err(r.error(r.offset() - 1, "an unknown record kind")),
        }
    }
}

/// The kind of a [`LogRecord`], kept in every backend's in-memory index so
/// chain walks (find the nearest checkpoint at or before an index) never
/// decode record payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A full snapshot.
    Checkpoint,
    /// An incremental delta.
    Delta,
}

/// What a compaction pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompactionStats {
    /// Backend storage footprint before the pass.
    pub bytes_before: usize,
    /// Footprint after the pass.
    pub bytes_after: usize,
    /// Live records carried across the pass (compaction never drops a
    /// record — every `at(time)` answer is preserved).
    pub records: usize,
}

/// A storage backend for the log: an ordered sequence of record payloads.
///
/// Backends keep payloads in capture-time order (ties broken by arrival) and
/// maintain an in-memory `(time, kind)` index so `at` is a binary search and
/// chain walks never read a payload. `append` inserts at the position its
/// time dictates; the [`crate::LogStore`] façade encodes the record and
/// enforces the chain invariants (deltas append at the end, checkpoints
/// never split an existing checkpoint→delta chain) before calling in.
pub trait LogBackend: std::fmt::Debug {
    /// A short name for reports ("mem", "segment_file").
    fn name(&self) -> &'static str;

    /// Insert a record's payload at the position its capture time dictates
    /// (records with equal times keep arrival order).
    fn append(&mut self, time: SimTime, kind: RecordKind, payload: &[u8]);

    /// The payload at a logical index, byte for byte as appended: an error
    /// when there is no such record or its bytes no longer verify.
    fn payload(&self, index: usize) -> io::Result<Cow<'_, [u8]>>;

    /// Capture times of every record, in logical order.
    fn time_index(&self) -> &[SimTime];

    /// Record kinds, in logical order (parallel to [`Self::time_index`]).
    fn kind_index(&self) -> &[RecordKind];

    /// Number of stored records.
    fn len(&self) -> usize {
        self.time_index().len()
    }

    /// True when no record is stored.
    fn is_empty(&self) -> bool {
        self.time_index().is_empty()
    }

    /// Index of the latest record captured at or before `time`
    /// (`partition_point` binary search over the time index).
    fn at(&self, time: SimTime) -> Option<usize> {
        self.time_index()
            .partition_point(|t| *t <= time)
            .checked_sub(1)
    }

    /// Push buffered writes to durable storage (no-op for volatile backends).
    fn flush(&mut self) {}

    /// Reclaim dead storage (truncated tails, superseded segments) without
    /// changing any payload. A backend that cannot read one of its payloads
    /// changes nothing and reports `bytes_after == bytes_before`.
    fn compact(&mut self) -> CompactionStats;

    /// Current storage footprint in bytes.
    fn storage_bytes(&self) -> usize;
}

/// The error for an index past the last record.
pub(crate) fn no_record(index: usize) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no record {index}"))
}

/// The default backend: the payloads held in memory. Its footprint is their
/// sum, which is what the façade charged for them.
#[derive(Debug, Default)]
pub struct MemBackend {
    payloads: Vec<Box<[u8]>>,
    times: Vec<SimTime>,
    kinds: Vec<RecordKind>,
}

impl MemBackend {
    /// Create an empty in-memory backend.
    pub fn new() -> Self {
        MemBackend::default()
    }
}

impl LogBackend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn append(&mut self, time: SimTime, kind: RecordKind, payload: &[u8]) {
        let pos = self.times.partition_point(|t| *t <= time);
        self.times.insert(pos, time);
        self.kinds.insert(pos, kind);
        self.payloads.insert(pos, payload.into());
    }

    fn payload(&self, index: usize) -> io::Result<Cow<'_, [u8]>> {
        let payload = self.payloads.get(index).ok_or_else(|| no_record(index))?;
        Ok(Cow::Borrowed(payload))
    }

    fn time_index(&self) -> &[SimTime] {
        &self.times
    }

    fn kind_index(&self) -> &[RecordKind] {
        &self.kinds
    }

    fn compact(&mut self) -> CompactionStats {
        let bytes = self.storage_bytes();
        CompactionStats {
            bytes_before: bytes,
            bytes_after: bytes,
            records: self.payloads.len(),
        }
    }

    fn storage_bytes(&self) -> usize {
        self.payloads.iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn append_at(b: &mut MemBackend, secs: u64) {
        let payload = format!("record at {secs} s");
        b.append(
            SimTime::from_secs(secs),
            RecordKind::Checkpoint,
            payload.as_bytes(),
        );
    }

    #[test]
    fn mem_backend_keeps_records_in_time_order() {
        let mut b = MemBackend::new();
        for s in [10, 5, 7] {
            append_at(&mut b, s);
        }
        let secs: Vec<u64> = b
            .time_index()
            .iter()
            .map(|t| t.as_micros() / 1_000_000)
            .collect();
        assert_eq!(secs, vec![5, 7, 10]);
        assert_eq!(&*b.payload(0).unwrap(), b"record at 5 s");
        assert_eq!(b.payload(3).unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn at_is_a_binary_search_over_the_time_index() {
        let mut b = MemBackend::new();
        for s in [2, 4, 6, 8] {
            append_at(&mut b, s);
        }
        assert_eq!(b.at(SimTime::from_secs(5)), Some(1));
        assert_eq!(b.at(SimTime::from_secs(8)), Some(3));
        assert_eq!(b.at(SimTime::from_secs(1)), None);
        assert_eq!(b.at(SimTime::from_secs(99)), Some(3));
    }

    #[test]
    fn mem_compaction_is_a_noop_that_reports_the_footprint() {
        let mut b = MemBackend::new();
        append_at(&mut b, 1);
        let stats = b.compact();
        assert_eq!(stats.bytes_before, "record at 1 s".len());
        assert_eq!(stats.bytes_before, stats.bytes_after);
        assert_eq!(stats.records, 1);
    }
}
