//! What a record costs is its bytes, on every backend.
//!
//! Over a seeded capture stream, `LogStore::uploaded_bytes` is the sum of the
//! records' encoded lengths (`codec::encode`, the oracle); the memory
//! backend's footprint is exactly that, and the segment backend's is that
//! plus a 21-byte frame header per record and a footer per sealed segment.
//! Compaction copies payloads byte for byte: a payload that verifies but does
//! not decode comes out of it unchanged and still reads as `InvalidData`.
//!
//! Seeded mutations and who caught them:
//!
//! | mutation | caught by |
//! |---|---|
//! | `append_record` charging what the backend's footprint grew by (the frame header and footers) | `uploaded_bytes_are_…`, segment backend at seed 12: 15,619 charged for 15,094 encoded |
//! | compaction decoding every record before copying it | `a_payload_that_…`: the pass refuses, the old segments stay |

use logstore::snapshot::NodeSnapshot;
use logstore::{
    LogBackend, LogRecord, LogStore, MemBackend, RecordKind, SegmentFileBackend, SnapshotCapturer,
    SystemSnapshot,
};
use nt_runtime::{codec, Tuple, Value};
use provenance::{ProvEdge, ProvVertex, RuleExecId, VertexId};
use simnet::{SimTime, Topology};
use std::fs;
use std::path::{Path, PathBuf};

const FRAME_HEADER: usize = 4 + 1 + 8 + 8;
const CAPACITY: usize = 4;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntl-bytes-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn segment_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Thirteen captures of four nodes whose routes, graph, topology and traffic
/// move at random, turned into checkpoints and deltas.
fn records(seed: u64) -> Vec<LogRecord> {
    let mut rng = Rng(seed);
    let mut capturer = SnapshotCapturer::new(3);
    (0..13)
        .map(|i| {
            let mut snap = SystemSnapshot {
                time: SimTime::from_secs(i + 1),
                topology: Topology::ring(3 + rng.below(3) as usize),
                ..Default::default()
            };
            for n in 1..=4 {
                let name = format!("b{n}");
                let mut tuples = Vec::new();
                for k in (0..8).filter(|_| rng.below(2) == 0) {
                    let via = Value::str(format!("via-{}", k % 3));
                    let values = vec![Value::addr(name.as_str()), Value::Int(k), via];
                    tuples.push(Tuple::new("route", values));
                }
                tuples.sort();
                for t in &tuples {
                    let rid = RuleExecId(rng.below(64));
                    let (vid, exec) = (VertexId::Tuple(t.id()), VertexId::RuleExec(rid));
                    let vertex = ProvVertex::Tuple {
                        vid: t.id(),
                        tuple: Some(t.clone()),
                        home: name.as_str().into(),
                        is_base: false,
                    };
                    snap.graph.vertices.insert(vid, vertex);
                    let node = name.as_str().into();
                    let rule = "r1".into();
                    snap.graph
                        .vertices
                        .insert(exec, ProvVertex::RuleExec { rid, rule, node });
                    snap.graph.edges.push(ProvEdge {
                        from: exec,
                        to: vid,
                    });
                }
                let node = NodeSnapshot {
                    node: name.as_str().into(),
                    relations: [("route".to_string(), tuples)].into(),
                };
                snap.nodes.insert(name.as_str().into(), node);
                let bytes = rng.below(100) as usize;
                snap.traffic
                    .record(name.as_str().into(), "b1".into(), "proto", bytes);
            }
            snap.graph.edges.sort();
            snap.graph.edges.dedup();
            capturer.capture(snap)
        })
        .collect()
}

#[test]
fn uploaded_bytes_are_the_payload_lengths_on_both_backends() {
    let dir = tempdir("oracle");
    for seed in [12, 4242] {
        let records = records(seed);
        let n = records.len();
        assert!(records.iter().any(|r| r.kind() == RecordKind::Delta));
        let encoded: usize = records.iter().map(|r| codec::encode(r).len()).sum();
        let segment = SegmentFileBackend::open(dir.join(format!("seed-{seed}")))
            .unwrap()
            .with_segment_capacity(CAPACITY);
        let footers = (n / CAPACITY) * (4 + 4 + CAPACITY * (8 + 8 + 1) + 8);
        let backends: [(Box<dyn LogBackend>, usize); 2] = [
            (Box::new(MemBackend::new()), encoded),
            (Box::new(segment), encoded + FRAME_HEADER * n + footers),
        ];
        for (backend, footprint) in backends {
            let name = backend.name();
            let mut store = LogStore::with_backend(backend);
            for record in &records {
                store.append_record(record.clone());
            }
            assert_eq!(
                store.uploaded_bytes(),
                encoded as u64,
                "{name}, seed {seed}"
            );
            assert_eq!(store.storage_bytes(), footprint, "{name}, seed {seed}");
            let payloads: Vec<Vec<u8>> = (0..n).map(|i| store.payload(i).unwrap().into()).collect();
            for (i, (payload, record)) in payloads.iter().zip(&records).enumerate() {
                assert_eq!(*payload, codec::encode(record), "{name} {i}");
                assert_eq!(store.record(i).as_ref(), Some(record), "{name} {i}");
            }
            // Nothing is dead, so compaction rewrites the same bytes.
            let stats = store.compact();
            assert_eq!(
                (stats.bytes_before, stats.bytes_after),
                (footprint, footprint)
            );
            for (i, payload) in payloads.iter().enumerate() {
                assert_eq!(
                    store.payload(i).as_deref(),
                    Some(&payload[..]),
                    "{name} {i}"
                );
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_payload_that_does_not_decode_survives_compaction_byte_identical() {
    let dir = tempdir("undecodable");
    let records = records(7);
    let garbage: &[u8] = b"no record here";
    assert!(codec::decode::<LogRecord>(garbage).is_err());
    {
        let mut b = SegmentFileBackend::open(&dir)
            .unwrap()
            .with_segment_capacity(2);
        let (first, next) = (&records[0], &records[3]);
        assert_eq!(next.kind(), RecordKind::Checkpoint);
        b.append(first.time(), RecordKind::Checkpoint, &codec::encode(first));
        b.append(first.time(), RecordKind::Checkpoint, garbage);
        b.append(next.time(), RecordKind::Checkpoint, &codec::encode(next));
        b.flush();
    }
    let undecodable = |b: &SegmentFileBackend| {
        let err = b.read(1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("undecodable record ("), "{err}");
    };
    let mut b = SegmentFileBackend::open(&dir).unwrap();
    assert_eq!((b.len(), b.skipped_frames()), (3, 0));
    undecodable(&b);
    assert_eq!(segment_names(&dir), ["seg-00000.ntl", "seg-00001.ntl"]);

    let stats = b.compact();
    assert_eq!(stats.records, 3);
    assert_eq!(segment_names(&dir), ["seg-00002.ntl"]);
    assert_eq!(b.payload(1).unwrap(), garbage);
    undecodable(&b);
    assert_eq!(b.read(0).unwrap(), records[0]);

    // Through the façade the record is absent, and the pass still runs.
    let mut store = LogStore::with_backend(Box::new(b));
    assert_eq!(store.get(1), None);
    let LogRecord::Checkpoint(next) = &records[3] else {
        unreachable!()
    };
    assert_eq!(store.get(2).as_ref(), Some(next));
    assert_eq!(store.compact().records, 3);
    assert_eq!(store.payload(1).as_deref(), Some(garbage));
    fs::remove_dir_all(&dir).unwrap();
}
