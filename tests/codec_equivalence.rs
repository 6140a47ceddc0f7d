//! The binary codec of the log store's segment frames, against the JSON it
//! replaced there.
//!
//! For every record a seeded capture stream writes — the 8-node path-vector
//! network of `snapshot_replay` through its link cycle, and the four topology
//! families of `replay_determinism` under link churn — the codec's round trip
//! is the record, encodes again to the same bytes, and equals the round trip
//! through serde (the tree JSON text is parsed into). A segment store written
//! from the stream and reopened from disk materializes every capture, and
//! exports the JSON text the captures export; the JSON round trip of that
//! export is the captures again. Hand-built values cover what the streams do
//! not: `i64::MIN` / `i64::MAX`, `-0.0`, NaN payloads, `2.5`, `Str("n1")`
//! beside `Addr("n1")`, nested lists, `Id`, `Infinity`, `Bool`, a vertex
//! whose id is not its tuple's.
//!
//! Seeded mutations and who caught them:
//!
//! | mutation | caught by |
//! |---|---|
//! | `Value::Str` encoded as an address (`Addr`'s tag, the text as a name) | `hand_built_tuples_…` (`v("n1",n1)` reads back as two addresses) and `hand_built_values_…` |
//! | a tuple vertex's `is_base` not written (read back `false`) | every stream (its first checkpoint's base `link` vertices) and `hand_built_tuples_…` |
//!
//! Every capture's dictionary, and every snapshot the reopened store
//! materializes, equals the text-set stamp of `crates/logstore/tests/common`
//! (caught: `stamp_dictionary` skipping the graph's rule names, in every
//! stream). `capture_record` is checked against the two calls it stands for
//! on the `snapshot_replay` network, byte for byte.

#[path = "../crates/logstore/tests/common/mod.rs"]
mod common;

use logstore::{
    LogRecord, LogStore, NodeSnapshot, RecordKind, SegmentFileBackend, SnapshotCapturer,
    SystemSnapshot,
};
use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::{codec, Tuple, TupleId, Value};
use provenance::{ProvEdge, ProvVertex, RuleExecId, VertexId};
use scenario::programs::{anchor_tuple, anchored_pathvector, mixed_protocols};
use scenario::TopologyFamily;
use simnet::{Link, SimTime, Topology, TopologyEvent};

/// A network running `program` on `topology`, anchored and converged.
fn converged(program: &str, topology: &Topology, anchors: &[&str]) -> NetTrails {
    let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default()).unwrap();
    nt.seed_links_from_topology();
    for anchor in anchors {
        nt.insert_fact(anchor, anchor_tuple(anchor));
    }
    nt.run_to_fixpoint();
    nt
}

/// The captures of a converged network after each event.
fn stream(
    program: &str,
    topology: &Topology,
    anchors: &[&str],
    events: &[TopologyEvent],
) -> Vec<SystemSnapshot> {
    let mut nt = converged(program, topology, anchors);
    let mut captures = vec![nt.capture_snapshot()];
    for event in events {
        nt.apply_topology_event(event);
        captures.push(nt.capture_snapshot());
    }
    captures
}

/// Down, back at another cost, and back to the cost it had: per link, in
/// the order given.
fn link_cycle<'a>(links: impl IntoIterator<Item = &'a Link>) -> Vec<TopologyEvent> {
    let mut events = Vec::new();
    for l in links {
        events.push(TopologyEvent::LinkDown {
            a: l.from.clone(),
            b: l.to.clone(),
        });
        events.push(TopologyEvent::LinkUp(Link {
            cost: 1 + l.cost % 5,
            ..l.clone()
        }));
        events.push(TopologyEvent::CostChange {
            a: l.from.clone(),
            b: l.to.clone(),
            cost: l.cost,
        });
    }
    events
}

/// Every record of the stream through the codec, then the stream through a
/// segment store on disk against the JSON export.
fn check_stream(name: &str, captures: &[SystemSnapshot]) {
    for (i, capture) in captures.iter().enumerate() {
        let stamped = &capture.dictionary;
        assert_eq!(
            stamped,
            &common::stamp_reference(capture),
            "{name}: dictionary {i}"
        );
    }
    let mut capturer = SnapshotCapturer::new(3);
    let records: Vec<LogRecord> = captures
        .iter()
        .map(|c| capturer.capture(c.clone()))
        .collect();
    for (i, record) in records.iter().enumerate() {
        let bytes = codec::encode(record);
        let back: LogRecord = codec::decode(&bytes).unwrap_or_else(|e| panic!("{name} {i}: {e}"));
        assert_eq!(&back, record, "{name}: record {i}");
        assert_eq!(codec::encode(&back), bytes, "{name}: record {i} re-encoded");
        let content = serde::to_content(record).unwrap();
        let via_serde: LogRecord = serde::from_content(content).unwrap();
        assert_eq!(back, via_serde, "{name}: record {i} against serde");
    }

    let dir = std::env::temp_dir().join(format!("ntl-codec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = LogStore::with_backend(Box::new(SegmentFileBackend::open(&dir).unwrap()));
        for record in &records {
            store.append_record(record.clone());
        }
        store.flush();
    }
    let reopened = LogStore::with_backend(Box::new(SegmentFileBackend::open(&dir).unwrap()));
    for (i, snapshot) in reopened.snapshots().iter().enumerate() {
        let stamped = &snapshot.dictionary;
        assert_eq!(
            stamped,
            &common::stamp_reference(snapshot),
            "{name}: materialized {i}"
        );
    }
    let export = |snapshots: Vec<SystemSnapshot>| {
        let mut store = LogStore::new();
        snapshots.into_iter().for_each(|s| store.add(s));
        store.to_json().unwrap()
    };
    let json = export(captures.to_vec());
    assert_eq!(export(reopened.snapshots()), json, "{name}: JSON export");
    let from_json = LogStore::from_json(&json).unwrap().snapshots();
    assert_eq!(reopened.snapshots(), from_json, "{name}: JSON round trip");
    assert_eq!(from_json, captures, "{name}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The 8-node network of `snapshot_replay`, its anchors and its link cycle.
fn snapshot_replay_network() -> (Topology, Vec<String>, Vec<TopologyEvent>) {
    let topology = Topology::internet_as(8, 2, 2011);
    let names: Vec<&str> = topology.nodes().collect();
    let anchors = [0, 2, 5, 7].map(|i| names[i].to_string()).to_vec();
    let links: Vec<&Link> = topology.links().filter(|l| l.from < l.to).collect();
    let events = link_cycle(links.iter().step_by(2).take(4).copied());
    (topology, anchors, events)
}

#[test]
fn the_path_vector_link_cycle_round_trips_through_the_codec() {
    let (topology, anchors, events) = snapshot_replay_network();
    let anchors: Vec<&str> = anchors.iter().map(String::as_str).collect();
    let captures = stream(&anchored_pathvector(3), &topology, &anchors, &events);
    assert_eq!(captures.len(), 13);
    check_stream("pathvector", &captures);
}

/// `capture_record` is the capture handed to the capturer: on the
/// `snapshot_replay` network through its link cycle, with that workload's
/// checkpoint cadence, its records are the two-call stream's, byte for byte.
#[test]
fn capture_record_is_the_capture_handed_to_the_capturer() {
    let (topology, anchors, events) = snapshot_replay_network();
    let anchors: Vec<&str> = anchors.iter().map(String::as_str).collect();
    let mut nt = converged(&anchored_pathvector(3), &topology, &anchors);
    let (mut one_call, mut two_calls) = (SnapshotCapturer::new(4), SnapshotCapturer::new(4));
    let mut kinds = Vec::new();
    for event in std::iter::once(None).chain(events.iter().map(Some)) {
        if let Some(event) = event {
            nt.apply_topology_event(event);
        }
        let record = nt.capture_record(&mut one_call);
        let expected = two_calls.capture(nt.capture_snapshot());
        assert_eq!(codec::encode(&record), codec::encode(&expected));
        kinds.push(record.kind());
    }
    assert_eq!(kinds.len(), 13);
    assert!(kinds.contains(&RecordKind::Checkpoint) && kinds.contains(&RecordKind::Delta));
}

#[test]
fn the_four_topology_families_round_trip_through_the_codec() {
    let families = [
        (TopologyFamily::FatTree { k: 4 }, anchored_pathvector(3)),
        (
            TopologyFamily::InternetAs { n: 48, m: 2 },
            anchored_pathvector(3),
        ),
        (
            TopologyFamily::SmallWorld {
                n: 32,
                k: 4,
                beta_percent: 20,
            },
            mixed_protocols(3),
        ),
        (
            TopologyFamily::MobilityMesh {
                n: 24,
                horizon_secs: 10,
            },
            mixed_protocols(3),
        ),
    ];
    for (family, program) in families {
        let topology = family.build(42);
        let names: Vec<&str> = topology.nodes().collect();
        let anchors = [names[0], names[names.len() / 2]];
        let links: Vec<&Link> = topology.links().filter(|l| l.from < l.to).collect();
        let stride = (links.len() / 2).max(1);
        let events = link_cycle(links.iter().step_by(stride).take(2).copied());
        let captures = stream(&program, &topology, &anchors, &events);
        check_stream(family.name(), &captures);
    }
}

/// One of each value the streams do not hold, NaN with a payload among them.
fn hand_built_values() -> Vec<Value> {
    vec![
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Double(-0.0),
        Value::Double(2.5),
        Value::Double(f64::from_bits(0x7ff8_0000_0000_0001)),
        Value::Double(f64::INFINITY),
        Value::str("n1"),
        Value::addr("n1"),
        Value::str(""),
        Value::str("tab\t é中😀"),
        Value::list(vec![
            Value::Int(1),
            Value::list(vec![Value::str("x"), Value::list(vec![Value::addr("n2")])]),
            Value::list(vec![]),
        ]),
        Value::Id(u64::MAX),
        Value::Id(0),
        Value::Infinity,
        Value::Bool(true),
        Value::Bool(false),
    ]
}

/// A bare value keeps its spelling through the codec, bit for bit: `-0.0`
/// stays a double, a NaN keeps its payload, a text stays a text.
#[test]
fn hand_built_values_round_trip_bit_for_bit() {
    fn bits(v: &Value) -> String {
        match v {
            Value::Double(d) => format!("Double({:#x})", d.to_bits()),
            Value::List(items) => items.iter().map(bits).collect::<Vec<_>>().join(","),
            other => format!("{other:?}"),
        }
    }
    for value in hand_built_values() {
        let back: Value = codec::decode(&codec::encode(&value)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{value:?}"));
        assert_eq!(bits(&back), bits(&value));
    }
}

/// A checkpoint of hand-built tuples and vertices: the codec's round trip is
/// the record, tuple for tuple as `{:?}` prints it, and equals the JSON
/// round trip wherever JSON can carry the value (not a NaN or an infinite
/// double: JSON writes `null`, which does not read back; the codec keeps
/// them).
#[test]
fn hand_built_tuples_round_trip_and_match_json() {
    let capture = |values: Vec<Value>| {
        let mut tuples: Vec<Tuple> = values
            .into_iter()
            .map(|v| Tuple::new("v", vec![Value::addr("n1"), v]))
            .collect();
        tuples.push(Tuple::new("v", vec![Value::str("n1"), Value::addr("n1")]));
        tuples.sort();
        let mut node = NodeSnapshot {
            node: "n1".into(),
            ..Default::default()
        };
        node.relations.insert("v".into(), tuples.clone());
        let mut snap = SystemSnapshot {
            time: SimTime::from_secs(7),
            topology: Topology::line(3),
            ..Default::default()
        };
        snap.nodes.insert("n1".into(), node);
        let rid = RuleExecId(u64::MAX);
        for (i, t) in tuples.iter().enumerate() {
            // Every third vertex carries an id its tuple does not hash to,
            // as stores written before tuples were sealed do.
            let vid = if i % 3 == 2 {
                TupleId(i as u64)
            } else {
                t.id()
            };
            snap.graph.vertices.insert(
                VertexId::Tuple(vid),
                ProvVertex::Tuple {
                    vid,
                    tuple: (i % 4 != 1).then(|| t.clone()),
                    home: "n1".into(),
                    is_base: i % 2 == 0,
                },
            );
            snap.graph.edges.push(ProvEdge {
                from: VertexId::Tuple(vid),
                to: VertexId::RuleExec(rid),
            });
        }
        snap.graph.vertices.insert(
            VertexId::RuleExec(rid),
            ProvVertex::RuleExec {
                rid,
                rule: "r9".into(),
                node: "n2".into(),
            },
        );
        snap.graph.edges.sort();
        snap.traffic.record("n1".into(), "n2".into(), "proto", 40);
        snap.traffic
            .record("n2".into(), "n1".into(), "prov-query", 12);
        snap.stamp_dictionary();
        snap
    };
    let (infinite, finite): (Vec<Value>, Vec<Value>) = hand_built_values()
        .into_iter()
        .partition(|v| matches!(v, Value::Double(d) if !d.is_finite()));
    for (values, json_carries_them) in [(finite, true), (infinite, false)] {
        let snap = capture(values);
        let record = LogRecord::Checkpoint(snap.clone());
        let back: LogRecord = codec::decode(&codec::encode(&record)).unwrap();
        assert_eq!(back, record);
        let LogRecord::Checkpoint(back) = back else {
            unreachable!("a checkpoint decodes as one")
        };
        assert_eq!(
            format!("{:?}", back.nodes),
            format!("{:?}", snap.nodes),
            "tuples as they print"
        );
        let mut store = LogStore::new();
        store.add(snap);
        let json = LogStore::from_json(&store.to_json().unwrap()).map(|s| s.snapshots());
        match json_carries_them {
            true => assert_eq!(json.unwrap(), vec![back]),
            false => assert!(json.is_err(), "JSON cannot carry a NaN"),
        }
    }
}
