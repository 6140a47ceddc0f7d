//! Round trip and recovery for the segment-file backend.
//!
//! Write a checkpoint/delta stream through `SnapshotCapturer` into a
//! `SegmentFileBackend`, drop the handle, reopen the directory from disk —
//! including once with a truncated tail simulating a crash mid-append — and
//! assert every `at(time)` answer matches an in-memory store fed the same
//! captures. And once with a single bit flipped in a payload *after* open:
//! the read must fail its checksum, not decode to a different record, and a
//! compaction must refuse to run rather than rewrite the log without it.
//!
//! And bytes damaged *before* open: every single-bit flip in the payload, the
//! checksum field, `time_us` or the bit of `kind` that names the other kind,
//! of a record that another frame (or the footer) follows, costs exactly that
//! record, in a sealed and in an unsealed segment; every truncation offset
//! keeps exactly the intact prefix; a flip in `len` or one that makes `kind`
//! invalid still ends the scan at that frame. And JSON frames, as frames were
//! once written, read as `InvalidData`.

use logstore::snapshot::NodeSnapshot;
use logstore::{
    LogBackend, LogRecord, LogStore, SegmentFileBackend, SnapshotCapturer, SystemSnapshot,
};
use nt_runtime::{codec, Tuple, Value};
use simnet::{SimTime, Topology};
use std::fs;
use std::path::PathBuf;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntl-recovery-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn segment_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn cost(c: i64) -> Tuple {
    Tuple::new("cost", vec![Value::addr("n1"), Value::Int(c)])
}

fn snapshot(secs: u64, costs: &[i64], topo: Topology) -> SystemSnapshot {
    let mut node = NodeSnapshot {
        node: "n1".into(),
        ..Default::default()
    };
    let mut tuples: Vec<Tuple> = costs.iter().map(|c| cost(*c)).collect();
    tuples.sort();
    node.relations.insert("cost".into(), tuples);
    let mut snap = SystemSnapshot {
        time: SimTime::from_secs(secs),
        topology: topo,
        ..Default::default()
    };
    snap.nodes.insert("n1".into(), node);
    snap.stamp_dictionary();
    snap
}

fn captures() -> Vec<SystemSnapshot> {
    vec![
        snapshot(1, &[1], Topology::line(3)),
        snapshot(2, &[1, 2], Topology::line(3)),
        snapshot(3, &[2, 3], Topology::line(2)),
        snapshot(4, &[3], Topology::line(2)),
        snapshot(5, &[3, 4, 5], Topology::line(4)),
        snapshot(6, &[4, 5], Topology::line(4)),
    ]
}

fn fill(store: &mut LogStore, snaps: &[SystemSnapshot], checkpoint_every: usize) {
    let mut capturer = SnapshotCapturer::new(checkpoint_every);
    for snap in snaps {
        store.append_record(capturer.capture(snap.clone()));
    }
}

#[test]
fn reopened_segment_store_answers_at_queries_like_memory() {
    let dir = tempdir("roundtrip");
    let snaps = captures();

    let mut mem = LogStore::new();
    fill(&mut mem, &snaps, 3);

    {
        let backend = SegmentFileBackend::open(&dir)
            .unwrap()
            .with_segment_capacity(4);
        let mut seg = LogStore::with_backend(Box::new(backend));
        fill(&mut seg, &snaps, 3);
        assert_eq!(seg.uploaded_bytes(), mem.uploaded_bytes());
        seg.flush();
        // Handle dropped here: only the on-disk segments survive.
    }

    let reopened = LogStore::with_backend(Box::new(SegmentFileBackend::open(&dir).unwrap()));
    assert_eq!(reopened.len(), snaps.len());
    for probe_us in (0..=7_000_000).step_by(500_000) {
        let t = SimTime::from_micros(probe_us);
        assert_eq!(
            reopened.at(t),
            mem.at(t),
            "at({probe_us}us) diverged after recovery"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_tail_recovers_the_intact_prefix() {
    let dir = tempdir("torn");
    let snaps = captures();
    {
        let backend = SegmentFileBackend::open(&dir)
            .unwrap()
            .with_segment_capacity(100);
        let mut seg = LogStore::with_backend(Box::new(backend));
        fill(&mut seg, &snaps, 3);
        seg.flush();
    }
    // Tear the last record: chop bytes off the single unsealed segment.
    let seg_file = dir.join("seg-00000.ntl");
    let bytes = fs::read(&seg_file).unwrap();
    fs::write(&seg_file, &bytes[..bytes.len() - 17]).unwrap();

    let reopened = LogStore::with_backend(Box::new(SegmentFileBackend::open(&dir).unwrap()));
    assert_eq!(reopened.len(), snaps.len() - 1, "torn tail record dropped");

    // Every surviving record still materializes exactly as the in-memory
    // store that never saw the final capture.
    let mut mem = LogStore::new();
    fill(&mut mem, &snaps[..snaps.len() - 1], 3);
    for probe_us in (0..=7_000_000).step_by(500_000) {
        let t = SimTime::from_micros(probe_us);
        assert_eq!(reopened.at(t), mem.at(t), "at({probe_us}us) diverged");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sealed_segments_compact_and_keep_answers() {
    let dir = tempdir("compact");
    let snaps = captures();
    let mut mem = LogStore::new();
    fill(&mut mem, &snaps, 2);

    let backend = SegmentFileBackend::open(&dir)
        .unwrap()
        .with_segment_capacity(2);
    let mut seg = LogStore::with_backend(Box::new(backend));
    fill(&mut seg, &snaps, 2);
    let stats = seg.compact();
    assert_eq!(stats.records, snaps.len());
    assert!(stats.bytes_after <= stats.bytes_before);
    for i in 0..snaps.len() {
        assert_eq!(
            seg.get(i),
            mem.get(i),
            "index {i} diverged after compaction"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bit_flipped_after_open_fails_the_checksum_on_read() {
    let dir = tempdir("bitrot");
    let snaps = captures();
    {
        let backend = SegmentFileBackend::open(&dir)
            .unwrap()
            .with_segment_capacity(100);
        let mut seg = LogStore::with_backend(Box::new(backend));
        fill(&mut seg, &snaps, 3);
        seg.flush();
    }
    let backend = SegmentFileBackend::open(&dir).unwrap();
    assert_eq!(backend.len(), snaps.len());
    // Reading first leaves the segment's read handle open across the flip.
    let intact = backend.read(1).unwrap();

    // Record 1 is a delta adding `cost(n1,2)`; turn its `2` into a `3`. The
    // codec says where: the two records' frames differ in that one byte, by
    // one bit, and the flipped payload decodes to the other record.
    let seg_file = dir.join("seg-00000.ntl");
    let mut bytes = fs::read(&seg_file).unwrap();
    let frame1 = FRAME_HEADER + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let len1 = u32::from_le_bytes(bytes[frame1..frame1 + 4].try_into().unwrap()) as usize;
    let payload1 = frame1 + FRAME_HEADER..frame1 + FRAME_HEADER + len1;
    let written = codec::encode(&intact);
    assert_eq!(
        bytes[payload1.clone()],
        written[..],
        "the payload is the codec's frame"
    );
    let LogRecord::Delta(mut three) = intact.clone() else {
        panic!("record 1 is a delta");
    };
    let node = three.nodes.get_mut(&"n1".into()).unwrap();
    let added = node.added.get_mut("cost").unwrap();
    assert_eq!(added[..], [cost(2)], "the delta carries the new cost");
    added[0] = cost(3);
    let three = LogRecord::Delta(three);
    let rewritten = codec::encode(&three);
    let differ: Vec<usize> = (0..written.len())
        .filter(|&i| written[i] != rewritten[i])
        .collect();
    let [at] = differ[..] else {
        panic!("one byte differs: {differ:?}");
    };
    let mask = written[at] ^ rewritten[at];
    assert_eq!(mask.count_ones(), 1);
    let digit = payload1.start + at;
    bytes[digit] ^= mask;
    assert_eq!(codec::decode::<LogRecord>(&bytes[payload1]), Ok(three));
    fs::write(&seg_file, &bytes).unwrap();

    let err = backend.read(1).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        err.to_string(),
        format!("checksum mismatch in seg-00000 at offset {frame1}")
    );
    assert!(backend.payload(1).is_err());
    assert!(backend.read(0).is_ok(), "other records still read");

    // Through the façade the rotten delta and the rest of its chain are
    // absent, never a snapshot that differs from what was captured.
    let mut store = LogStore::with_backend(Box::new(backend));
    assert_eq!(store.get(0).as_ref(), Some(&snaps[0]));
    assert_eq!(store.get(1), None);
    assert_eq!(store.get(2), None);
    assert_eq!(store.get(3).as_ref(), Some(&snaps[3]));

    // A compaction over the rotten record changes nothing: the segment is
    // the only copy, and rewriting the log without record 1 would chain
    // delta 2 onto checkpoint 0, a snapshot nobody captured.
    let stats = store.compact();
    assert_eq!(stats.bytes_after, stats.bytes_before);
    assert_eq!(stats.records, snaps.len());
    assert_eq!(store.len(), snaps.len());
    assert_eq!(segment_names(&dir), ["seg-00000.ntl"]);
    assert_eq!(fs::read(&seg_file).unwrap(), bytes);
    assert_eq!(store.get(1), None);

    // Flipping the bit back heals it, and the compaction goes through.
    bytes[digit] ^= mask;
    fs::write(&seg_file, &bytes).unwrap();
    assert_eq!(store.record(1), Some(intact));
    assert_eq!(store.get(2).as_ref(), Some(&snaps[2]));
    assert_eq!(store.compact().records, snaps.len());
    assert_eq!(segment_names(&dir), ["seg-00001.ntl"]);
    for (i, snap) in snaps.iter().enumerate() {
        assert_eq!(store.get(i).as_ref(), Some(snap), "index {i}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

const FRAME_HEADER: usize = 4 + 1 + 8 + 8;

/// The six captures as one segment file, sealed (capacity 6: the footer
/// follows the last record) or not; returns the directory, the file's bytes
/// and each frame's `(offset, payload length)`.
fn one_segment(tag: &str, sealed: bool) -> (PathBuf, Vec<u8>, Vec<(usize, usize)>) {
    let dir = tempdir(tag);
    let capacity = if sealed { 6 } else { 100 };
    let backend = SegmentFileBackend::open(&dir)
        .unwrap()
        .with_segment_capacity(capacity);
    let mut seg = LogStore::with_backend(Box::new(backend));
    fill(&mut seg, &captures(), 3);
    seg.flush();
    drop(seg);
    let bytes = fs::read(dir.join("seg-00000.ntl")).unwrap();
    let mut frames = Vec::new();
    let mut offset = 0;
    for _ in 0..6 {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        frames.push((offset, len));
        offset += FRAME_HEADER + len;
    }
    assert_eq!(sealed, offset < bytes.len(), "a footer follows iff sealed");
    (dir, bytes, frames)
}

/// Reopen `dir` with `bytes` as its only segment.
fn reopen_with(dir: &std::path::Path, bytes: &[u8]) -> SegmentFileBackend {
    fs::write(dir.join("seg-00000.ntl"), bytes).unwrap();
    SegmentFileBackend::open(dir).unwrap()
}

/// Every single-bit flip in the header but `len` (the bit of `kind` that names
/// the other kind, every bit of `time_us` and of the checksum) or in the
/// payload of every record that something follows: the record is unreadable,
/// the other five are the records that were written, at their places and
/// times. The corrupt record's time is held between its neighbours'.
fn flip_every_bit(sealed: bool) {
    let (dir, bytes, frames) = one_segment(&format!("flip-{sealed}"), sealed);
    let intact = reopen_with(&dir, &bytes);
    assert_eq!((intact.len(), intact.skipped_frames()), (6, 0));
    let records: Vec<_> = (0..6).map(|i| intact.read(i).unwrap()).collect();
    let times = intact.time_index().to_vec();

    // The last record of an unsealed segment is the torn-tail case.
    let followed = if sealed { 6 } else { 5 };
    let mut flips = 0usize;
    for (r, &(offset, len)) in frames.iter().enumerate().take(followed) {
        let kind = (offset + 4, 0..1);
        let rest = (offset + 5..offset + FRAME_HEADER + len).map(|byte| (byte, 0..8));
        for (byte, bits) in std::iter::once(kind).chain(rest) {
            for bit in bits {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                let b = reopen_with(&dir, &damaged);
                let header = &damaged[offset + 5..offset + 13];
                let mut time = SimTime::from_micros(u64::from_le_bytes(header.try_into().unwrap()));
                if r > 0 {
                    time = time.max(times[r - 1]);
                }
                if r < 5 {
                    time = time.min(times[r + 1]);
                }
                let mut expected = times.clone();
                expected[r] = time;
                assert_eq!(
                    (b.len(), b.skipped_frames(), b.time_index()),
                    (6, 1, &expected[..]),
                    "record {r}, byte {byte}, bit {bit}, sealed {sealed}"
                );
                assert!(b.payload(r).is_err(), "record {r}, byte {byte}, bit {bit}");
                // Decoding the five survivors is the slow part: every flip
                // reads one of them, every 61st reads them all.
                flips += 1;
                for i in (0..6).filter(|i| *i != r) {
                    if flips.is_multiple_of(61) || i == (r + 1 + flips % 5) % 6 {
                        assert_eq!(b.read(i).unwrap(), records[i], "record {i} after {r}");
                    }
                }
            }
        }
    }
    let header_bits = 1 + 8 * (FRAME_HEADER - 5);
    let payload_bits: usize = frames[..followed].iter().map(|(_, len)| 8 * len).sum();
    assert_eq!(flips, followed * header_bits + payload_bits);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bit_flipped_before_open_costs_exactly_its_record_in_an_unsealed_segment() {
    flip_every_bit(false);
}

#[test]
fn a_bit_flipped_before_open_costs_exactly_its_record_in_a_sealed_segment() {
    flip_every_bit(true);
}

#[test]
fn every_truncation_offset_keeps_exactly_the_intact_prefix() {
    for sealed in [false, true] {
        let (dir, bytes, frames) = one_segment(&format!("cut-{sealed}"), sealed);
        for cut in 0..=bytes.len() {
            let b = reopen_with(&dir, &bytes[..cut]);
            let whole = frames
                .iter()
                .filter(|(offset, len)| offset + FRAME_HEADER + len <= cut)
                .count();
            assert_eq!(
                (b.len(), b.skipped_frames()),
                (whole, 0),
                "cut at {cut} of {}, sealed {sealed}",
                bytes.len()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_flip_in_the_length_or_to_an_invalid_kind_still_ends_the_scan_there() {
    let (dir, bytes, frames) = one_segment("header", true);
    for (r, &(offset, _)) in frames.iter().enumerate() {
        // All 32 bits of `len`; bits 1..8 of `kind` (bit 0 names the other
        // valid kind: the checksum catches that flip, as it does a payload
        // flip).
        for bit in (0..32).chain(33..40) {
            let mut damaged = bytes.clone();
            damaged[offset + bit / 8] ^= 1 << (bit % 8);
            let b = reopen_with(&dir, &damaged);
            assert_eq!(
                (b.len(), b.skipped_frames()),
                (r, 0),
                "record {r}, header bit {bit}"
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Through the façade: a delta found corrupt at open is absent together with
/// the rest of its chain — never re-based onto the wrong snapshot — the next
/// checkpoint and everything behind it are back, and a compaction refuses to
/// make the loss permanent.
#[test]
fn a_store_reopened_over_a_corrupt_delta_keeps_the_chains_behind_it() {
    let snaps = captures();
    let (dir, mut bytes, frames) = one_segment("facade", false);
    // Records: checkpoint 0, deltas 1 2, checkpoint 3, deltas 4 5.
    let (offset, len) = frames[1];
    bytes[offset + FRAME_HEADER + len / 2] ^= 0x10;
    let backend = reopen_with(&dir, &bytes);
    assert_eq!((backend.len(), backend.skipped_frames()), (6, 1));
    let mut store = LogStore::with_backend(Box::new(backend));
    for (i, snap) in snaps.iter().enumerate() {
        let expected = (i != 1 && i != 2).then_some(snap);
        assert_eq!(store.get(i).as_ref(), expected, "index {i}");
    }
    let stats = store.compact();
    assert_eq!(stats.bytes_after, stats.bytes_before);
    assert_eq!(fs::read(dir.join("seg-00000.ntl")).unwrap(), bytes);
    fs::remove_dir_all(&dir).unwrap();
}

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A frame of `payload`; its checksum covers the header too, as the writer's
/// does, or the payload alone, as the earlier format's did.
fn frame_of(record: &LogRecord, payload: &[u8], header_checked: bool) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.push(matches!(record, LogRecord::Delta(_)) as u8);
    frame.extend_from_slice(&record.time().as_micros().to_le_bytes());
    let basis = 0xcbf2_9ce4_8422_2325;
    let basis = if header_checked {
        fnv64(basis, &frame)
    } else {
        basis
    };
    frame.extend_from_slice(&fnv64(basis, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// JSON payloads, the format frames once carried, are never read. A segment
/// of the earlier format (checksums over the payload alone) opens with every
/// record in the index and each read a checksum mismatch; a JSON payload
/// under a header that verifies is an undecodable record. Both are
/// `InvalidData`.
#[test]
fn a_json_frame_reads_as_invalid_data() {
    let dir = tempdir("json");
    fs::create_dir_all(&dir).unwrap();
    let mut capturer = SnapshotCapturer::new(3);
    let records: Vec<LogRecord> = captures()
        .into_iter()
        .map(|c| capturer.capture(c))
        .collect();
    let json = |r: &LogRecord| serde_json::to_string(r).unwrap().into_bytes();

    let earlier: Vec<u8> = records
        .iter()
        .flat_map(|r| frame_of(r, &json(r), false))
        .collect();
    let b = reopen_with(&dir, &earlier);
    assert_eq!((b.len(), b.skipped_frames()), (6, 6));
    let times: Vec<SimTime> = records.iter().map(LogRecord::time).collect();
    assert_eq!(b.time_index(), &times[..]);
    for i in 0..6 {
        let err = b.read(i).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("checksum mismatch"), "{err}");
    }

    let b = reopen_with(&dir, &frame_of(&records[0], &json(&records[0]), true));
    assert_eq!((b.len(), b.skipped_frames()), (1, 0));
    let err = b.read(0).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let text = err.to_string();
    assert!(text.starts_with("undecodable record ("), "{text}");
    assert!(text.ends_with(") in seg-00000 at offset 0"), "{text}");
    assert!(
        b.payload(0).is_ok(),
        "the frame verifies, its payload does not decode"
    );

    // The writer's own frame of the record, for contrast, reads back.
    let b = reopen_with(
        &dir,
        &frame_of(&records[0], &codec::encode(&records[0]), true),
    );
    assert_eq!(b.read(0).unwrap(), records[0]);
    fs::remove_dir_all(&dir).unwrap();
}
