//! The JSON of log records. `to_string` of one fixed checkpoint and one
//! fixed delta is pinned character for character, so the serde shape of the
//! records — what `LogStore::to_json` exports for the visualizer and
//! `from_json` loads — cannot drift unnoticed; and both must decode back.
//! (Segment files carry the binary codec, not this text.)

use logstore::{LogRecord, NodeSnapshot, SnapshotDelta, SystemSnapshot};
use nt_runtime::{Tuple, Value};
use provenance::{ProvEdge, ProvVertex, RuleExecId, VertexId};
use simnet::{SimTime, Topology};

fn route(cost: i64, via: &str) -> Tuple {
    Tuple::new(
        "route",
        vec![
            Value::addr("g1"),
            Value::Int(cost),
            Value::list(vec![Value::addr("g1"), Value::addr(via)]),
        ],
    )
}

fn capture(secs: u64, routes: Vec<Tuple>, nodes: usize) -> SystemSnapshot {
    let mut node = NodeSnapshot {
        node: "g1".into(),
        ..Default::default()
    };
    node.provenance.prov_entries = routes.len();
    node.relations.insert("route".into(), routes);
    node.relations.insert(
        "note".into(),
        vec![Tuple::new(
            "note",
            vec![
                Value::str("tab\t \"quoted\" back\\slash é中😀 \u{1}"),
                Value::Double(1.5),
                Value::Bool(true),
                Value::Id(255),
                Value::Infinity,
            ],
        )],
    );
    let mut snap = SystemSnapshot {
        time: SimTime::from_secs(secs),
        topology: Topology::line(nodes),
        ..Default::default()
    };
    snap.nodes.insert("g1".into(), node);
    let tuple = route(secs as i64, "g2");
    let vid = VertexId::Tuple(tuple.id());
    let rid = VertexId::RuleExec(RuleExecId(secs));
    snap.graph.vertices.insert(
        vid,
        ProvVertex::Tuple {
            vid: tuple.id(),
            tuple: Some(tuple),
            home: "g1".into(),
            is_base: false,
        },
    );
    snap.graph.vertices.insert(
        rid,
        ProvVertex::RuleExec {
            rid: RuleExecId(secs),
            rule: "gr1".into(),
            node: "g2".into(),
        },
    );
    snap.graph.edges.push(ProvEdge { from: rid, to: vid });
    snap.traffic.messages = secs;
    snap.stamp_dictionary();
    snap
}

fn records() -> (LogRecord, LogRecord) {
    let first = capture(1, vec![route(1, "g2"), route(4, "g3")], 2);
    let second = capture(2, vec![route(2, "g2"), route(4, "g3")], 3);
    let delta = SnapshotDelta::between(&first, &second);
    (LogRecord::Checkpoint(first), LogRecord::Delta(delta))
}

const CHECKPOINT: &str = r##"{"Checkpoint":{"time":1000000,"nodes":{"g1":{"node":"g1","relations":{"note":[{"relation":"note","values":[{"Str":"tab\t \"quoted\" back\\slash é中😀 \u0001"},{"Double":1.5},{"Bool":true},{"Id":255},"Infinity"]}],"route":[{"relation":"route","values":[{"Addr":"g1"},{"Int":1},{"List":[{"Addr":"g1"},{"Addr":"g2"}]}]},{"relation":"route","values":[{"Addr":"g1"},{"Int":4},{"List":[{"Addr":"g1"},{"Addr":"g3"}]}]}]},"provenance":{"prov_entries":2,"rule_execs":0,"tuple_vertices":0,"dict_bytes":0,"bytes":0}}},"topology":{"nodes":["n1","n2"],"links":[{"from":"n1","to":"n2","cost":1,"latency_ms":1},{"from":"n2","to":"n1","cost":1,"latency_ms":1}]},"graph":{"vertices":[[{"Tuple":14596721363408416608},{"Tuple":{"vid":14596721363408416608,"tuple":{"relation":"route","values":[{"Addr":"g1"},{"Int":1},{"List":[{"Addr":"g1"},{"Addr":"g2"}]}]},"home":"g1","is_base":false}}],[{"RuleExec":1},{"RuleExec":{"rid":1,"rule":"gr1","node":"g2"}}]],"edges":[{"from":{"RuleExec":1},"to":{"Tuple":14596721363408416608}}]},"traffic":{"messages":1,"bytes":0,"records":0,"by_category":{},"by_link":{}},"dictionary":{"strings":["g1","g2","g3","gr1","note","route"]}}}"##;
const DELTA: &str = r##"{"Delta":{"time":2000000,"nodes":{"g1":{"added":{"route":[{"relation":"route","values":[{"Addr":"g1"},{"Int":2},{"List":[{"Addr":"g1"},{"Addr":"g2"}]}]}]},"removed":{"route":[14596721363408416608]},"provenance":null}},"nodes_removed":[],"topology":{"nodes":["n1","n2","n3"],"links":[{"from":"n1","to":"n2","cost":1,"latency_ms":1},{"from":"n2","to":"n1","cost":1,"latency_ms":1},{"from":"n2","to":"n3","cost":1,"latency_ms":1},{"from":"n3","to":"n2","cost":1,"latency_ms":1}]},"graph":{"vertices_added":[[{"Tuple":13763600181487461817},{"Tuple":{"vid":13763600181487461817,"tuple":{"relation":"route","values":[{"Addr":"g1"},{"Int":2},{"List":[{"Addr":"g1"},{"Addr":"g2"}]}]},"home":"g1","is_base":false}}],[{"RuleExec":2},{"RuleExec":{"rid":2,"rule":"gr1","node":"g2"}}]],"vertices_removed":[{"Tuple":14596721363408416608},{"RuleExec":1}],"edges_added":[{"from":{"RuleExec":2},"to":{"Tuple":13763600181487461817}}],"edges_removed":[{"from":{"RuleExec":1},"to":{"Tuple":14596721363408416608}}]},"traffic":{"messages":2,"bytes":0,"records":0,"by_category":{},"by_link":{}}}}"##;

#[test]
fn the_writer_emits_exactly_these_bytes() {
    let (checkpoint, delta) = records();
    assert_eq!(serde_json::to_string(&checkpoint).unwrap(), CHECKPOINT);
    assert_eq!(serde_json::to_string(&delta).unwrap(), DELTA);
}

#[test]
fn the_pinned_bytes_decode_to_the_records() {
    let (checkpoint, delta) = records();
    assert_eq!(
        serde_json::from_str::<LogRecord>(CHECKPOINT).unwrap(),
        checkpoint
    );
    assert_eq!(serde_json::from_str::<LogRecord>(DELTA).unwrap(), delta);
}
