//! The materialization cursor and the in-place replay step against their
//! oracles, on every backend.
//!
//! `LogStore::get`, `at` and `Replay::seek` move one shared cursor forward
//! where they can instead of re-decoding a chain, and `Replay::step` applies
//! a delta record in place and hands it out as the step. The oracles: a
//! `get` that walks back to the nearest checkpoint and applies every delta on
//! every call (the code the cursor replaced, kept here), and for every step,
//! on delta and checkpoint records alike, `SnapshotDelta::between` of the
//! two captures, which applied to a copy of the earlier capture gives the
//! later one and lists only the facts keyed by (node, relation, tuple id)
//! that one side holds. Reads come in random order, interleaved with
//! `append_record` and `compact`. The name table of every
//! generated capture's frame and of every materialized read's equals the
//! text-set walk kept in `common` (caught: an address value written as a
//! string and read back interned, which round-trips and leaves the address
//! out of the table).
//!
//! Mutations the step oracle caught: in both tests below, `between`
//! skipping a node whose key (or whose relation names) both sides share, and
//! an `apply` that appends added tuples without sorting or drops the new
//! topology; in the proptest, a delta record handed out without being
//! applied, and a checkpoint step that keeps the old snapshot, diffs in
//! reverse or returns an empty delta.

mod common;

use logstore::snapshot::NodeSnapshot;
use logstore::{
    LogBackend, LogRecord, LogStore, MemBackend, Replay, SegmentFileBackend, SnapshotCapturer,
    SnapshotDelta, SystemSnapshot,
};
use nt_runtime::{Addr, Tuple, TupleId, Value};
use proptest::prelude::*;
use provenance::{ProvEdge, ProvVertex, VertexId};
use simnet::{SimTime, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The `LogStore::get` the cursor replaced: decode the nearest checkpoint at or
/// before `index` and every delta after it, on every call.
fn chain_walk(store: &LogStore, index: usize) -> Option<SystemSnapshot> {
    if index >= store.len() {
        return None;
    }
    let base = (0..=index)
        .rev()
        .find(|i| matches!(store.record(*i), Some(LogRecord::Checkpoint(_))))?;
    let Some(LogRecord::Checkpoint(mut snapshot)) = store.record(base) else {
        return None;
    };
    for i in base + 1..=index {
        let LogRecord::Delta(delta) = store.record(i)? else {
            return None;
        };
        delta.apply(&mut snapshot);
    }
    Some(snapshot)
}

/// Every (node, relation, tuple id) a snapshot holds.
fn facts(s: &SystemSnapshot) -> BTreeSet<(Addr, &str, TupleId)> {
    let mut facts = BTreeSet::new();
    for (node, ns) in &s.nodes {
        for (rel, tuples) in &ns.relations {
            facts.extend(tuples.iter().map(|t| (*node, rel.as_str(), t.id())));
        }
    }
    facts
}

/// The tuple counts of the smallest step from `a` to `b`, keyed by identity:
/// the facts held on one side only, leaving out the tuples of a node that
/// left, which a step names in `nodes_removed` instead.
fn minimal_counts(a: &SystemSnapshot, b: &SystemSnapshot) -> (usize, usize) {
    let (in_a, in_b) = (facts(a), facts(b));
    let added = in_b.difference(&in_a).count();
    let removed = in_a
        .difference(&in_b)
        .filter(|(node, ..)| b.nodes.contains_key(node));
    (added, removed.count())
}

const NODES: [&str; 4] = ["c1", "c2", "c3", "c4"];
const RELATIONS: [&str; 3] = ["cost", "hop", "seen"];

/// One fact; `as_double` spells its number `3.0` instead of `3`, which names
/// the same tuple.
fn tuple(node: &str, relation: &str, value: i64, as_double: bool) -> Tuple {
    Tuple::new(
        relation,
        vec![
            Value::addr(node),
            match as_double {
                true => Value::Double(value as f64),
                false => Value::Int(value),
            },
            Value::str(format!("v{value}")),
            Value::list(vec![Value::addr(NODES[value as usize % NODES.len()])]),
        ],
    )
}

/// A `(node, relation, value)` fact, by index into [`NODES`] and
/// [`RELATIONS`].
type Fact = (usize, usize, i64);

/// One capture per entry of `edits`: each edit toggles facts and sets the
/// length of the line topology. Every other capture spells its numbers as
/// doubles, so a fact that stays is `3` in one capture and `3.0` in the next:
/// the pair an in-place step and `between` must both see as no change. A node
/// with no facts left
/// drops out of the capture; the graph holds a vertex per `cost` fact,
/// chained by edges.
fn captures(edits: &[(Vec<Fact>, usize)]) -> Vec<SystemSnapshot> {
    let mut facts: BTreeSet<Fact> = BTreeSet::new();
    let mut out = Vec::new();
    for (i, (toggles, line)) in edits.iter().enumerate() {
        for fact in toggles {
            if !facts.remove(fact) {
                facts.insert(*fact);
            }
        }
        let mut snap = SystemSnapshot {
            time: SimTime::from_secs(i as u64 + 1),
            topology: Topology::line(2 + line),
            ..Default::default()
        };
        let mut chain = Vec::new();
        for (node, relation, value) in &facts {
            let t = tuple(NODES[*node], RELATIONS[*relation], *value, i % 2 == 1);
            if *relation == 0 {
                let vid = VertexId::Tuple(t.id());
                chain.push(vid);
                snap.graph.vertices.insert(
                    vid,
                    ProvVertex::Tuple {
                        vid: t.id(),
                        tuple: Some(t.clone()),
                        home: NODES[*node].into(),
                        is_base: value % 2 == 0,
                    },
                );
            }
            let node_snap = snap
                .nodes
                .entry(NODES[*node].into())
                .or_insert_with(|| NodeSnapshot {
                    node: NODES[*node].into(),
                    ..Default::default()
                });
            node_snap
                .relations
                .entry(RELATIONS[*relation].to_string())
                .or_default()
                .push(t);
        }
        for node_snap in snap.nodes.values_mut() {
            for tuples in node_snap.relations.values_mut() {
                tuples.sort();
            }
        }
        snap.graph.edges = chain
            .windows(2)
            .map(|w| ProvEdge {
                from: w[0],
                to: w[1],
            })
            .collect();
        snap.graph.edges.sort();
        snap.traffic.messages = facts.len() as u64;
        assert_eq!(common::frame_names(&snap), common::stamp_reference(&snap));
        out.push(snap);
    }
    out
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn segment_dir(case: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ntl-cursor-seg-{}-{case}", std::process::id()))
}

fn backends(case: usize) -> Vec<Box<dyn LogBackend>> {
    let dir = segment_dir(case);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        Box::new(MemBackend::new()),
        Box::new(
            SegmentFileBackend::open(&dir)
                .expect("segment dir opens")
                .with_segment_capacity(3),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cursor_reads_and_in_place_steps_equal_their_oracles(
        every in 0usize..3,
        edits in collection::vec(
            (collection::vec((0usize..4, 0usize..3, 0i64..5), 0..7), 0usize..3),
            2..10,
        ),
        // Per round: records to append first, whether to compact, then reads
        // as (kind, argument).
        rounds in collection::vec(
            (1usize..4, any::<bool>(), collection::vec((0usize..4, 0usize..64), 1..14)),
            1..5,
        ),
    ) {
        let checkpoint_every = [1, 3, 4][every];
        let captured = captures(&edits);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        for backend in backends(case) {
            let mut store = LogStore::with_backend(backend);
            let name = store.backend_name();
            let mut capturer = SnapshotCapturer::new(checkpoint_every);
            for (appends, compact, reads) in &rounds {
                for snap in captured.iter().skip(store.len()).take(*appends) {
                    store.append_record(capturer.capture(snap.clone()));
                }
                if *compact {
                    store.compact();
                }
                let len = store.len();
                let latest_at = |t: SimTime| captured[..len].iter().rev().find(|s| s.time <= t);

                let mut replay = Replay::new(&store);
                let mut position = 0;
                prop_assert_eq!(replay.current(), Some(&captured[0]));
                for (kind, x) in reads {
                    // Half-second grid from before the first capture to
                    // after the last.
                    let t = SimTime::from_micros((*x % (2 * len + 3)) as u64 * 500_000);
                    match kind {
                        0 => {
                            let i = x % (len + 1);
                            let got = store.get(i);
                            prop_assert_eq!(&got, &chain_walk(&store, i), "{} get({})", name, i);
                            prop_assert_eq!(got.as_ref(), captured[..len].get(i), "{} get({})", name, i);
                            if let Some(got) = &got {
                                prop_assert_eq!(common::frame_names(got), common::stamp_reference(got));
                            }
                        }
                        1 => {
                            prop_assert_eq!(store.at(t).as_ref(), latest_at(t), "{} at({:?})", name, t);
                        }
                        2 => {
                            replay.seek(t);
                            position = store.index_at(t).unwrap_or(0);
                            prop_assert_eq!(
                                replay.current(), Some(&captured[position]),
                                "{} seek({:?})", name, t
                            );
                        }
                        _ => {
                            let step = replay.step();
                            if position + 1 == len {
                                prop_assert_eq!(step, None);
                            } else {
                                let (prev, next) = (&captured[position], &captured[position + 1]);
                                let step = step.expect("a step before the last record");
                                prop_assert_eq!(
                                    &step, &SnapshotDelta::between(prev, next),
                                    "{} step {} -> {}", name, position, position + 1
                                );
                                let mut applied = prev.clone();
                                step.apply(&mut applied);
                                prop_assert_eq!(&applied, next);
                                prop_assert_eq!(step.tuple_counts(), minimal_counts(prev, next));
                                position += 1;
                                prop_assert_eq!(replay.current(), Some(next));
                            }
                            prop_assert_eq!(replay.remaining(), len - position - 1);
                        }
                    }
                }
            }

            // A replay from the start, over everything stored.
            let len = store.len();
            let mut replay = Replay::new(&store);
            for (prev, next) in captured[..len].iter().zip(&captured[1..len]) {
                prop_assert_eq!(replay.step(), Some(SnapshotDelta::between(prev, next)));
                prop_assert_eq!(replay.current(), Some(next));
            }
            prop_assert_eq!(replay.step(), None);
            prop_assert_eq!(store.snapshots(), captured[..len].to_vec());
        }
        let _ = std::fs::remove_dir_all(segment_dir(case));
    }
}

/// `between` keys a tuple by identity, relation by relation: `3` and `3.0`
/// are one tuple, `true` and the address `true` two. A node on the later
/// side only is listed with all its tuples, one on the earlier side only by
/// name, an unchanged node not at all; applying the step gives the later
/// snapshot, in both directions.
#[test]
fn between_keeps_the_reference_semantics_on_awkward_snapshots() {
    let node = |name: &str, relations: Vec<(&str, Vec<Tuple>)>| {
        let mut n = NodeSnapshot {
            node: name.into(),
            ..Default::default()
        };
        for (relation, mut tuples) in relations {
            tuples.sort();
            n.relations.insert(relation.to_string(), tuples);
        }
        n
    };
    let t = |relation: &str, values: Vec<Value>| Tuple::new(relation, values);
    let snapshot = |secs: u64, nodes: Vec<NodeSnapshot>| {
        let mut s = SystemSnapshot {
            time: SimTime::from_secs(secs),
            topology: Topology::line(secs as usize + 1),
            ..Default::default()
        };
        s.nodes = nodes
            .into_iter()
            .map(|n| (n.node, n))
            .collect::<BTreeMap<_, _>>();
        s
    };
    let a = snapshot(
        1,
        vec![
            node(
                "w1",
                vec![
                    (
                        "m",
                        vec![t("m", vec![Value::Int(3)]), t("m", vec![Value::Int(9)])],
                    ),
                    ("k", vec![t("k", vec![Value::Bool(true)])]),
                ],
            ),
            node("w2", vec![("m", vec![t("m", vec![Value::Int(1)])])]),
            node("w3", vec![("m", vec![t("m", vec![Value::Int(5)])])]),
        ],
    );
    let b = snapshot(
        2,
        vec![
            node(
                "w1",
                vec![
                    (
                        "m",
                        vec![
                            t("m", vec![Value::Double(3.0)]),
                            t("m", vec![Value::Int(2)]),
                        ],
                    ),
                    (
                        "k",
                        vec![
                            t("k", vec![Value::addr("true")]),
                            t("k", vec![Value::Int(0)]),
                        ],
                    ),
                ],
            ),
            node("w2", vec![("m", vec![t("m", vec![Value::Int(1)])])]),
            node("w4", vec![("z", vec![t("z", vec![])])]),
        ],
    );
    for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
        let step = SnapshotDelta::between(x, y);
        let mut applied = x.clone();
        step.apply(&mut applied);
        assert_eq!(&applied, y);
        assert_eq!(step.tuple_counts(), minimal_counts(x, y));
    }
    let step = SnapshotDelta::between(&a, &b);
    let (w1, w2, w3, w4): (Addr, Addr, Addr, Addr) =
        ("w1".into(), "w2".into(), "w3".into(), "w4".into());
    let changed = &step.nodes[&w1];
    assert_eq!(changed.added["m"], vec![t("m", vec![Value::Int(2)])]);
    assert_eq!(changed.removed["m"], vec![t("m", vec![Value::Int(9)]).id()]);
    assert!(changed.added["k"].contains(&t("k", vec![Value::addr("true")])));
    assert_eq!(
        changed.removed["k"],
        vec![t("k", vec![Value::Bool(true)]).id()]
    );
    assert!(!step.nodes.contains_key(&w2));
    assert_eq!(step.nodes[&w4].added["z"], vec![t("z", vec![])]);
    assert_eq!(step.nodes_removed, vec![w3]);
    assert_eq!(
        SnapshotDelta::between(&a, &a),
        SnapshotDelta {
            time: a.time,
            ..Default::default()
        }
    );
}
