//! The record decoder on bytes it did not write.
//!
//! The segment path reads a payload only after its frame checksum verifies;
//! these tests skip that guard and hand `codec::decode::<LogRecord>` every
//! truncation of real records, seeded mutations of them and random buffers.
//! The decoder never panics, never reserves more than the bytes left can
//! hold (a counting allocator watches every allocation it makes), refuses
//! `List` nesting past `codec::MAX_DEPTH`, and every failure is a
//! `DecodeError` inside the input.
//!
//! Seeded mutations and who caught them:
//!
//! | mutation | caught by |
//! |---|---|
//! | `Reader::count` bounded by 2^24 instead of the bytes left | `seeded_mutations_…` (196,416 bytes allocated decoding 666) and `random_buffers_…` |
//! | no nesting cap in `Reader::enter` | `list_nesting_is_capped_at_max_depth` |

use logstore::snapshot::NodeSnapshot;
use logstore::{LogRecord, SnapshotCapturer, SystemSnapshot};
use nt_runtime::codec::{self, DecodeError, MAX_DEPTH};
use nt_runtime::{Interner, Sym, Tuple, TupleId, Value};
use provenance::{ProvEdge, ProvVertex, RuleExecId, VertexId};
use simnet::{SimTime, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest allocation each thread asks for.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// The widest item a decoded count reserves room for.
fn widest_item() -> usize {
    [
        size_of::<(VertexId, ProvVertex)>(),
        size_of::<ProvEdge>(),
        size_of::<Tuple>(),
        size_of::<Value>(),
    ]
    .into_iter()
    .max()
    .unwrap()
}

/// Decode `bytes` as a record. Checks what holds for any input: an error
/// lies inside it, and, when decoding interned no new name (so the intern
/// pool did not grow under it), no allocation was larger than the widest
/// item times the input length, plus one B-tree node.
fn decode(bytes: &[u8]) -> Result<LogRecord, DecodeError> {
    let names = Interner::len();
    // Resolving the newest name grows this thread's resolution cache to the
    // pool's size now, not inside the measured decode.
    if let Some(newest) = names.checked_sub(1).and_then(|i| Sym::from_index(i as u32)) {
        newest.as_str();
    }
    LARGEST.with(|l| l.set(0));
    let result = codec::decode::<LogRecord>(bytes);
    let largest = LARGEST.with(Cell::get);
    if let Err(e) = &result {
        assert!(e.offset <= bytes.len(), "{e} past {} bytes", bytes.len());
        assert!(!e.what.is_empty());
    }
    if Interner::len() == names {
        assert!(
            largest <= widest_item() * bytes.len() + 4096,
            "{largest} bytes allocated decoding {} bytes",
            bytes.len()
        );
    }
    result
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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One capture of three nodes whose contents move with `i`: every value
/// kind, a graph with every vertex shape, counted traffic and a topology
/// that grows.
fn capture(i: u64) -> SystemSnapshot {
    let mut snap = SystemSnapshot {
        time: SimTime::from_secs(i + 1),
        topology: Topology::ring(3 + i as usize % 3),
        ..Default::default()
    };
    for n in 1..=3u64 {
        let name = format!("h{n}");
        let mut tuples: Vec<Tuple> = (0..2 + (i + n) % 3)
            .map(|k| {
                Tuple::new(
                    "route",
                    vec![
                        Value::addr(name.as_str()),
                        Value::Int(k as i64 - i as i64),
                        Value::Double(0.5 * k as f64),
                        Value::str(format!("via-{k}")),
                        Value::list(vec![
                            Value::addr("h1"),
                            Value::list(vec![Value::Bool(k % 2 == 0), Value::Infinity]),
                        ]),
                        Value::Id(k * 0x9E37_79B9),
                    ],
                )
            })
            .collect();
        tuples.sort();
        let mut node = NodeSnapshot {
            node: name.as_str().into(),
            ..Default::default()
        };
        node.provenance.prov_entries = tuples.len();
        if n != i % 4 {
            node.relations.insert("route".into(), tuples.clone());
            snap.nodes.insert(name.as_str().into(), node);
        }
        let t = &tuples[0];
        snap.graph.vertices.insert(
            VertexId::Tuple(t.id()),
            ProvVertex::Tuple {
                vid: t.id(),
                tuple: Some(t.clone()),
                home: name.as_str().into(),
                is_base: n == 1,
            },
        );
        let rid = RuleExecId(i * 10 + n);
        snap.graph.vertices.insert(
            VertexId::RuleExec(rid),
            ProvVertex::RuleExec {
                rid,
                rule: "r2".into(),
                node: name.as_str().into(),
            },
        );
        snap.graph.edges.push(ProvEdge {
            from: VertexId::RuleExec(rid),
            to: VertexId::Tuple(t.id()),
        });
        snap.traffic
            .record(name.as_str().into(), "h1".into(), "proto", 10 * n as usize);
    }
    let unknown = TupleId(0xfeed + i);
    snap.graph.vertices.insert(
        VertexId::Tuple(unknown),
        ProvVertex::Tuple {
            vid: unknown,
            tuple: None,
            home: "h2".into(),
            is_base: false,
        },
    );
    snap.graph.edges.sort();
    snap
}

/// Checkpoints and deltas, every section of each present somewhere.
fn records() -> Vec<Vec<u8>> {
    let mut capturer = SnapshotCapturer::new(3);
    let records: Vec<LogRecord> = (0..6).map(|i| capturer.capture(capture(i))).collect();
    assert!(records.iter().any(
        |r| matches!(r, LogRecord::Delta(d) if d.topology.is_some() && !d.nodes_removed.is_empty())
    ));
    records
        .iter()
        .map(|r| {
            let bytes = codec::encode(r);
            assert_eq!(decode(&bytes).as_ref(), Ok(r));
            bytes
        })
        .collect()
}

#[test]
fn every_truncation_of_every_record_is_an_error() {
    for bytes in records() {
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}

#[test]
fn seeded_mutations_decode_or_fail_without_panicking() {
    let mut rng = Rng(28);
    let (mut decoded, mut failed) = (0, 0);
    for original in records() {
        for _ in 0..1500 {
            let mut bytes = original.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                match rng.below(6) {
                    0 => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes[at] = rng.next() as u8,
                    2 => bytes.insert(at, rng.next() as u8),
                    3 => drop(bytes.remove(at)),
                    // A huge count or index where a byte was.
                    4 => {
                        bytes.splice(at..at + 1, [0xff, 0xff, 0xff, 0xff, 0xff, 0x0f]);
                    }
                    _ => {
                        let end = (at + 1 + rng.below(16)).min(bytes.len());
                        let copy = bytes[at..end].to_vec();
                        let to = rng.below(bytes.len());
                        bytes.splice(to..to, copy);
                    }
                }
            }
            match decode(&bytes) {
                Ok(_) => decoded += 1,
                Err(_) => failed += 1,
            }
        }
    }
    assert!(
        decoded > 0 && failed > 0,
        "{decoded} decoded, {failed} failed"
    );
}

#[test]
fn random_buffers_fail_without_panicking() {
    let mut rng = Rng(4242);
    let table = {
        // The name table of a real record, so random bodies reach past it.
        let bytes = &records()[0];
        let n = bytes[0] as usize;
        let mut end = 1;
        for _ in 0..n {
            end += 1 + bytes[end] as usize;
        }
        bytes[..end].to_vec()
    };
    for i in 0..4000 {
        let len = rng.below(256);
        let mut bytes: Vec<u8> = if i % 2 == 0 {
            Vec::new()
        } else {
            table.clone()
        };
        bytes.extend((0..len).map(|_| rng.next() as u8));
        let _ = decode(&bytes);
    }
}

#[test]
fn list_nesting_is_capped_at_max_depth() {
    let nested = |depth: usize| {
        let mut v = Value::Int(7);
        for _ in 0..depth {
            v = Value::list(vec![v]);
        }
        let mut snap = SystemSnapshot::default();
        let mut node = NodeSnapshot {
            node: "deep".into(),
            ..Default::default()
        };
        node.relations
            .insert("d".into(), vec![Tuple::new("d", vec![v])]);
        snap.nodes.insert("deep".into(), node);
        codec::encode(&LogRecord::Checkpoint(snap))
    };
    assert!(decode(&nested(MAX_DEPTH)).is_ok());
    let err = decode(&nested(MAX_DEPTH + 1)).unwrap_err();
    assert_eq!(err.what, "values nested deeper than MAX_DEPTH");

    // A hundred thousand list headers end at the cap, not in a stack
    // overflow.
    let mut bytes = nested(0);
    let int7 = [0u8, 14]; // tag 0, zigzag 7: the tuple's one value
    let at = bytes.windows(2).position(|w| w == int7).unwrap();
    let deep: Vec<u8> = [5u8, 1].repeat(100_000);
    bytes.splice(at..at + 2, deep);
    assert_eq!(
        decode(&bytes).unwrap_err().what,
        "values nested deeper than MAX_DEPTH"
    );
}
