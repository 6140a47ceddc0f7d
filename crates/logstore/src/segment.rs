//! Durable log storage: append-only segment files.
//!
//! Records are framed into numbered segment files (`seg-00000.ntl`):
//!
//! ```text
//! frame    := [u32 payload_len][u8 kind][u64 time_us][u64 checksum][payload]
//! checksum := fnv64 of payload_len, kind, time_us and the payload
//! payload  := the record in the binary codec (`nt_runtime::codec`):
//!             its name table, then its body
//! footer   := [u32 0xFFFF_FFFF][u32 count][count × (u64 offset, u64 time_us, u8 kind)][u64 magic]
//! ```
//!
//! A segment is *sealed* once it reaches its record capacity: the footer
//! index is appended and the file is fsynced, making the segment immutable.
//! Opening a directory recovers every record by scanning frames (the header
//! carries time and kind, so recovery never decodes payloads). A torn
//! tail — an incomplete header, an incomplete payload, or a *last* frame
//! that fails its checksum, i.e. a crash mid-append — silently ends that
//! segment's scan, keeping the intact prefix. A complete frame that fails
//! its checksum but whose length lands on a frame that verifies, or on the
//! footer, is a bit flipped mid-segment: the scan counts it
//! ([`SegmentFileBackend::skipped_frames`]) and goes on to the records
//! behind it. The corrupt frame keeps its place in the index and fails every
//! read, like one that rots after `open`: a delta names no base, so leaving
//! the record out would chain the deltas behind it onto the wrong snapshot,
//! while an unreadable record makes the rest of its chain absent.
//!
//! The checksum covers the header as well as the payload. A flip in `len`
//! (the frame no longer lands on one that verifies) or one that makes `kind`
//! invalid ends the scan there; any other flip, in the header or the
//! payload, costs exactly its record. Only the length of a corrupt frame is
//! vouched for (by the frame it lands on), so its time is held between its
//! neighbours' — no earlier than the frame before it in the segment, no
//! later than the frame it lands on — which keeps its place in the index its
//! place in the file.
//!
//! Compaction copies every live record's payload, byte for byte, into fresh
//! segments, reclaiming dead tail bytes: it checks each frame against its
//! checksum and neither decodes nor re-encodes, so a payload that verifies
//! but does not decode is carried over as it was. If any frame fails its
//! checksum it rewrites nothing.
//!
//! Every read checks the frame against its checksum again, so bytes that rot
//! after `open` are a "checksum mismatch" error, never a record; a payload
//! that verifies but does not decode is `InvalidData` as well
//! ([`SegmentFileBackend::read`]). The backend stores bytes: the façade
//! encodes each record and decodes what [`LogBackend::payload`] returns.
//! Frames of the earlier format, whose checksum covered a JSON payload
//! alone, are scanned like corrupt frames that something follows: each keeps
//! its place in the index and every read of it is a "checksum mismatch".
//! Nothing reads them.

use crate::backend::{no_record, CompactionStats, LogBackend, LogRecord, RecordKind};
use nt_runtime::codec;
use simnet::SimTime;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const FOOTER_SENTINEL: u32 = 0xFFFF_FFFF;
const FOOTER_MAGIC: u64 = 0x4e54_4c4f_4753_4547; // "NTLOGSEG"
const FRAME_HEADER: usize = 4 + 1 + 8 + 8;
/// The header bytes the checksum covers: length, kind and time.
const CHECKED_HEADER: usize = 4 + 1 + 8;

/// How many records a segment holds before it is sealed.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 8;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum of a frame: its header up to the checksum field, then its
/// payload.
fn checksum(header: &[u8], payload: &[u8]) -> u64 {
    fnv64(fnv64(FNV_BASIS, &header[..CHECKED_HEADER]), payload)
}

fn kind_byte(kind: RecordKind) -> u8 {
    match kind {
        RecordKind::Checkpoint => 0,
        RecordKind::Delta => 1,
    }
}

fn byte_kind(b: u8) -> Option<RecordKind> {
    match b {
        0 => Some(RecordKind::Checkpoint),
        1 => Some(RecordKind::Delta),
        _ => None,
    }
}

/// Where one record lives on disk.
#[derive(Debug, Clone, Copy)]
struct Slot {
    segment: u32,
    offset: u64,
    payload_len: u32,
    checksum: u64,
    time: SimTime,
    kind: RecordKind,
}

#[derive(Debug)]
struct ActiveSegment {
    file: File,
    number: u32,
    records: Vec<(u64, SimTime, RecordKind)>,
    bytes: u64,
}

/// The append-only segment-file backend.
#[derive(Debug)]
pub struct SegmentFileBackend {
    dir: PathBuf,
    slots: Vec<Slot>,
    times: Vec<SimTime>,
    kinds: Vec<RecordKind>,
    active: Option<ActiveSegment>,
    next_segment: u32,
    segment_capacity: usize,
    storage_bytes: u64,
    /// Frames `open` found corrupt mid-segment (indexed, unreadable).
    skipped_frames: usize,
    /// The read handle of the segment last read from, kept open across
    /// reads: a replay reads a segment's records one after another.
    reader: RefCell<Option<(u32, File)>>,
}

impl SegmentFileBackend {
    /// Open (or create) a segment directory, recovering every intact record
    /// already on disk. Records are indexed in capture-time order with file
    /// order breaking ties; new appends go to a fresh segment, never into a
    /// possibly-torn existing one.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segment_files: Vec<(u32, PathBuf)> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?.to_string();
                let number: u32 = name
                    .strip_prefix("seg-")?
                    .strip_suffix(".ntl")?
                    .parse()
                    .ok()?;
                Some((number, path))
            })
            .collect();
        segment_files.sort();

        let mut backend = SegmentFileBackend {
            dir,
            slots: Vec::new(),
            times: Vec::new(),
            kinds: Vec::new(),
            active: None,
            next_segment: segment_files.last().map(|(n, _)| n + 1).unwrap_or(0),
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            storage_bytes: 0,
            skipped_frames: 0,
            reader: RefCell::new(None),
        };
        let mut recovered: Vec<Slot> = Vec::new();
        for (number, path) in &segment_files {
            let bytes = fs::read(path)?;
            backend.storage_bytes += bytes.len() as u64;
            backend.skipped_frames += scan_segment(*number, &bytes, &mut recovered);
        }
        // Logical order: capture time, file order as the stable tiebreak
        // (recovered is already in file order, and sort_by_key is stable).
        recovered.sort_by_key(|s| s.time);
        for slot in recovered {
            backend.times.push(slot.time);
            backend.kinds.push(slot.kind);
            backend.slots.push(slot);
        }
        Ok(backend)
    }

    /// How many frames `open` found corrupt in the middle of a segment: each
    /// is a record of the index that no read returns (module documentation).
    pub fn skipped_frames(&self) -> usize {
        self.skipped_frames
    }

    /// Override how many records a segment holds before sealing.
    pub fn with_segment_capacity(mut self, capacity: usize) -> Self {
        self.segment_capacity = capacity.max(1);
        self
    }

    fn segment_path(&self, number: u32) -> PathBuf {
        self.dir.join(format!("seg-{number:05}.ntl"))
    }

    fn ensure_active(&mut self) -> std::io::Result<()> {
        if self.active.is_none() {
            let number = self.next_segment;
            self.next_segment += 1;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.segment_path(number))?;
            self.active = Some(ActiveSegment {
                file,
                number,
                records: Vec::new(),
                bytes: 0,
            });
        }
        Ok(())
    }

    fn seal_active(&mut self) -> std::io::Result<()> {
        let Some(mut active) = self.active.take() else {
            return Ok(());
        };
        let mut footer = Vec::new();
        footer.extend_from_slice(&FOOTER_SENTINEL.to_le_bytes());
        footer.extend_from_slice(&(active.records.len() as u32).to_le_bytes());
        for (offset, time, kind) in &active.records {
            footer.extend_from_slice(&offset.to_le_bytes());
            footer.extend_from_slice(&time.as_micros().to_le_bytes());
            footer.push(kind_byte(*kind));
        }
        footer.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        active.file.write_all(&footer)?;
        active.file.sync_all()?;
        self.storage_bytes += footer.len() as u64;
        Ok(())
    }

    fn append_frame(
        &mut self,
        time: SimTime,
        kind: RecordKind,
        payload: &[u8],
    ) -> std::io::Result<Slot> {
        let payload_len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "a payload of 4 GiB"))?;
        self.ensure_active()?;
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&payload_len.to_le_bytes());
        frame.push(kind_byte(kind));
        frame.extend_from_slice(&time.as_micros().to_le_bytes());
        let checksum = checksum(&frame, payload);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame.extend_from_slice(payload);

        let active = self.active.as_mut().expect("active segment");
        let offset = active.bytes;
        active.file.write_all(&frame)?;
        active.bytes += frame.len() as u64;
        active.records.push((offset, time, kind));
        self.storage_bytes += frame.len() as u64;
        let slot = Slot {
            segment: active.number,
            offset,
            payload_len,
            checksum,
            time,
            kind,
        };
        if active.records.len() >= self.segment_capacity {
            self.seal_active()?;
        }
        Ok(slot)
    }

    /// Read and decode the record at a logical index, saying what went
    /// wrong when that fails: an I/O error, a frame that no longer matches
    /// its checksum (`InvalidData`, "checksum mismatch in seg-N at offset
    /// O"), or a payload that does not decode (`InvalidData`, "undecodable
    /// record (the codec's [`codec::DecodeError`]) in seg-N at offset O").
    pub fn read(&self, index: usize) -> io::Result<LogRecord> {
        let payload = self.payload(index)?;
        codec::decode(&payload)
            .map_err(|e| invalid(&self.slots[index], format!("undecodable record ({e})")))
    }
}

/// `InvalidData` about the frame in `slot`: what is wrong, and where.
fn invalid(slot: &Slot, what: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{what} in seg-{:05} at offset {}",
            slot.segment, slot.offset
        ),
    )
}

/// The complete frame at `offset`: its slot, where the next frame starts, and
/// whether its payload matches its checksum. `None` at the footer sentinel,
/// an invalid kind, an incomplete header or an incomplete payload.
fn frame_at(number: u32, bytes: &[u8], offset: usize) -> Option<(Slot, usize, bool)> {
    let header = bytes.get(offset..offset.checked_add(FRAME_HEADER)?)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    if len == FOOTER_SENTINEL {
        return None; // sealed segment's footer index
    }
    let kind = byte_kind(header[4])?;
    let time_us = u64::from_le_bytes(header[5..CHECKED_HEADER].try_into().unwrap());
    let stored = u64::from_le_bytes(header[CHECKED_HEADER..].try_into().unwrap());
    let payload_start = offset + FRAME_HEADER;
    let payload_end = payload_start.checked_add(len as usize)?;
    let payload = bytes.get(payload_start..payload_end)?;
    let slot = Slot {
        segment: number,
        offset: offset as u64,
        payload_len: len,
        checksum: stored,
        time: SimTime::from_micros(time_us),
        kind,
    };
    Some((slot, payload_end, checksum(header, payload) == stored))
}

/// Scan one segment's bytes, appending the slot of every frame to `slots`;
/// returns how many of them are corrupt. A torn tail ends the scan, the
/// footer sentinel ends it cleanly; a frame that fails its checksum is a torn
/// tail unless its length lands on the footer or on a frame that verifies, or
/// it is a frame of the earlier format, and then its time is held between its
/// neighbours' (module documentation).
fn scan_segment(number: u32, bytes: &[u8], slots: &mut Vec<Slot>) -> usize {
    let footer = FOOTER_SENTINEL.to_le_bytes();
    let first = slots.len();
    let mut skipped = 0;
    let mut offset = 0usize;
    while let Some((mut slot, next, intact)) = frame_at(number, bytes, offset) {
        if !intact {
            let after = frame_at(number, bytes, next).filter(|(_, _, intact)| *intact);
            // The earlier format's checksum covered the (JSON) payload alone:
            // such a frame is whole, and stays in the index unreadable.
            let payload = &bytes[next - slot.payload_len as usize..next];
            if after.is_none()
                && !bytes[next..].starts_with(&footer)
                && fnv64(FNV_BASIS, payload) != slot.checksum
            {
                break; // torn write
            }
            if let Some(before) = slots[first..].last() {
                slot.time = slot.time.max(before.time);
            }
            if let Some((after, _, _)) = after {
                slot.time = slot.time.min(after.time);
            }
            skipped += 1;
        }
        slots.push(slot);
        offset = next;
    }
    skipped
}

impl LogBackend for SegmentFileBackend {
    fn name(&self) -> &'static str {
        "segment_file"
    }

    fn append(&mut self, time: SimTime, kind: RecordKind, payload: &[u8]) {
        let slot = self
            .append_frame(time, kind, payload)
            .expect("segment append must not fail");
        let pos = self.times.partition_point(|t| *t <= slot.time);
        self.times.insert(pos, slot.time);
        self.kinds.insert(pos, slot.kind);
        self.slots.insert(pos, slot);
    }

    fn payload(&self, index: usize) -> io::Result<Cow<'_, [u8]>> {
        let slot = self.slots.get(index).ok_or_else(|| no_record(index))?;
        let mut frame = vec![0u8; FRAME_HEADER + slot.payload_len as usize];
        {
            let mut reader = self.reader.borrow_mut();
            let file = match &mut *reader {
                Some((segment, file)) if *segment == slot.segment => file,
                other => {
                    let file = File::open(self.segment_path(slot.segment))?;
                    &mut other.insert((slot.segment, file)).1
                }
            };
            file.seek(SeekFrom::Start(slot.offset))?;
            file.read_exact(&mut frame)?;
        }
        let (header, payload) = frame.split_at(FRAME_HEADER);
        if checksum(header, payload) != slot.checksum {
            return Err(invalid(slot, "checksum mismatch".into()));
        }
        frame.drain(..FRAME_HEADER);
        Ok(Cow::Owned(frame))
    }

    fn time_index(&self) -> &[SimTime] {
        &self.times
    }

    fn kind_index(&self) -> &[RecordKind] {
        &self.kinds
    }

    fn flush(&mut self) {
        if let Some(active) = &mut self.active {
            let _ = active.file.sync_all();
        }
    }

    fn compact(&mut self) -> CompactionStats {
        let bytes_before = self.storage_bytes as usize;
        // The old segments are the only copy and are deleted below, so a
        // frame that fails its checksum stops the pass before anything
        // changes; it is never left out of the rewrite.
        let frames: io::Result<Vec<(Slot, Vec<u8>)>> = (0..self.len())
            .map(|i| Ok((self.slots[i], self.payload(i)?.into_owned())))
            .collect();
        let Ok(frames) = frames else {
            return CompactionStats {
                bytes_before,
                bytes_after: bytes_before,
                records: self.len(),
            };
        };
        let old_segments: Vec<u32> = (0..self.next_segment).collect();
        self.active = None;
        *self.reader.get_mut() = None;
        self.slots.clear();
        self.times.clear();
        self.kinds.clear();
        self.storage_bytes = 0;
        for (slot, payload) in frames {
            LogBackend::append(self, slot.time, slot.kind, &payload);
        }
        // The tail segment stays unsealed, exactly as after normal appends —
        // sealing it here would *add* a footer and grow the footprint.
        if let Some(active) = &mut self.active {
            let _ = active.file.sync_all();
        }
        let live: std::collections::BTreeSet<u32> = self.slots.iter().map(|s| s.segment).collect();
        for number in old_segments {
            if !live.contains(&number) {
                let _ = fs::remove_file(self.segment_path(number));
            }
        }
        CompactionStats {
            bytes_before,
            bytes_after: self.storage_bytes as usize,
            records: self.slots.len(),
        }
    }

    fn storage_bytes(&self) -> usize {
        self.storage_bytes as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ntl-segtest-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn append_checkpoint(b: &mut SegmentFileBackend, secs: u64) {
        let record = LogRecord::Checkpoint(SystemSnapshot {
            time: SimTime::from_secs(secs),
            ..Default::default()
        });
        b.append(record.time(), record.kind(), &codec::encode(&record));
    }

    #[test]
    fn records_survive_drop_and_reopen() {
        let dir = tempdir("reopen");
        {
            let mut b = SegmentFileBackend::open(&dir).unwrap();
            for s in [1, 2, 3] {
                append_checkpoint(&mut b, s);
            }
            b.flush();
        }
        let b = SegmentFileBackend::open(&dir).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.read(2).unwrap().time(), SimTime::from_secs(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_on_recovery() {
        let dir = tempdir("truncate");
        {
            let mut b = SegmentFileBackend::open(&dir)
                .unwrap()
                .with_segment_capacity(100);
            for s in [1, 2, 3] {
                append_checkpoint(&mut b, s);
            }
            b.flush();
        }
        // Chop bytes off the tail of the only segment, simulating a crash
        // mid-append.
        let seg = dir.join("seg-00000.ntl");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();
        let b = SegmentFileBackend::open(&dir).unwrap();
        assert_eq!(b.len(), 2, "intact prefix survives, torn record dropped");
        assert_eq!(b.read(1).unwrap().time(), SimTime::from_secs(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_dead_tail_bytes() {
        let dir = tempdir("compact");
        {
            let mut b = SegmentFileBackend::open(&dir)
                .unwrap()
                .with_segment_capacity(100);
            for s in [1, 2, 3, 4] {
                append_checkpoint(&mut b, s);
            }
            b.flush();
        }
        let seg = dir.join("seg-00000.ntl");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let mut b = SegmentFileBackend::open(&dir).unwrap();
        assert_eq!(b.len(), 3);
        let stats = b.compact();
        assert!(stats.bytes_after <= stats.bytes_before);
        assert_eq!(stats.records, 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.read(0).unwrap().time(), SimTime::from_secs(1));
        fs::remove_dir_all(&dir).unwrap();
    }
}
