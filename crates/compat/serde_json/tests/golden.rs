//! The writer's bytes, pinned. `to_string` of two fixed records of derived
//! types kept in this file is compared character for character, and both
//! texts must decode back: string escapes (tab, quote, backslash, a control
//! character, non-ASCII and an astral-plane character), floats, a `u64` past
//! `i64::MAX`, unit, newtype and struct variants, string-keyed maps, tuples,
//! nested lists and `null`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Cell {
    Int(i64),
    Double(f64),
    Str(String),
    Bool(bool),
    Addr(String),
    List(Vec<Cell>),
    Id(u64),
    Infinity,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    relation: String,
    values: Vec<Cell>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Vertex {
    Row { vid: u64, row: Option<Row> },
    Exec { rid: u64, rule: String },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Counters {
    messages: u64,
    by_category: BTreeMap<String, (u64, u64)>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Page {
    time: u64,
    relations: BTreeMap<String, Vec<Row>>,
    vertices: Vec<(u64, Vertex)>,
    removed: Vec<u64>,
    provenance: Option<u64>,
    traffic: Counters,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Record {
    Checkpoint(Page),
    Delta(Page),
}

fn route(cost: i64, via: &str) -> Row {
    Row {
        relation: "route".into(),
        values: vec![
            Cell::Addr("g1".into()),
            Cell::Int(cost),
            Cell::List(vec![Cell::Addr("g1".into()), Cell::Addr(via.into())]),
        ],
    }
}

fn records() -> (Record, Record) {
    let note = Row {
        relation: "note".into(),
        values: vec![
            Cell::Str("tab\t \"quoted\" back\\slash é中😀 \u{1}".into()),
            Cell::Double(1.5),
            Cell::Bool(true),
            Cell::Id(255),
            Cell::Infinity,
        ],
    };
    let checkpoint = Page {
        time: 1_000_000,
        relations: [
            ("route".to_string(), vec![route(1, "g2"), route(4, "g3")]),
            ("note".to_string(), vec![note]),
        ]
        .into(),
        vertices: vec![
            (
                14_596_721_363_408_416_608,
                Vertex::Row {
                    vid: 14_596_721_363_408_416_608,
                    row: Some(route(1, "g2")),
                },
            ),
            (
                1,
                Vertex::Exec {
                    rid: 1,
                    rule: "gr1".into(),
                },
            ),
        ],
        removed: vec![],
        provenance: Some(2),
        traffic: Counters {
            messages: 1,
            by_category: BTreeMap::new(),
        },
    };
    let delta = Page {
        time: 2_000_000,
        relations: [("route".to_string(), vec![route(2, "g2")])].into(),
        vertices: vec![(7, Vertex::Row { vid: 7, row: None })],
        removed: vec![14_596_721_363_408_416_608],
        provenance: None,
        traffic: Counters {
            messages: 2,
            by_category: [("protocol".to_string(), (2, 96))].into(),
        },
    };
    (Record::Checkpoint(checkpoint), Record::Delta(delta))
}

const CHECKPOINT: &str = r##"{"Checkpoint":{"time":1000000,"relations":{"note":[{"relation":"note","values":[{"Str":"tab\t \"quoted\" back\\slash é中😀 \u0001"},{"Double":1.5},{"Bool":true},{"Id":255},"Infinity"]}],"route":[{"relation":"route","values":[{"Addr":"g1"},{"Int":1},{"List":[{"Addr":"g1"},{"Addr":"g2"}]}]},{"relation":"route","values":[{"Addr":"g1"},{"Int":4},{"List":[{"Addr":"g1"},{"Addr":"g3"}]}]}]},"vertices":[[14596721363408416608,{"Row":{"vid":14596721363408416608,"row":{"relation":"route","values":[{"Addr":"g1"},{"Int":1},{"List":[{"Addr":"g1"},{"Addr":"g2"}]}]}}}],[1,{"Exec":{"rid":1,"rule":"gr1"}}]],"removed":[],"provenance":2,"traffic":{"messages":1,"by_category":{}}}}"##;
const DELTA: &str = r##"{"Delta":{"time":2000000,"relations":{"route":[{"relation":"route","values":[{"Addr":"g1"},{"Int":2},{"List":[{"Addr":"g1"},{"Addr":"g2"}]}]}]},"vertices":[[7,{"Row":{"vid":7,"row":null}}]],"removed":[14596721363408416608],"provenance":null,"traffic":{"messages":2,"by_category":{"protocol":[2,96]}}}}"##;

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
        serde_json::from_str::<Record>(CHECKPOINT).unwrap(),
        checkpoint
    );
    assert_eq!(serde_json::from_str::<Record>(DELTA).unwrap(), delta);
}
