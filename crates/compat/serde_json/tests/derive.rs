//! What derived `Deserialize` impls accept, reject and say. The values and
//! the messages are the ones the cloning derive gave; the moving derive must
//! give them unchanged.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Rec {
    id: u32,
    name: String,
    note: Option<String>,
    #[serde(skip)]
    cache: u32,
    #[serde(serialize_with = "pairs_out", deserialize_with = "pairs_in")]
    pairs: BTreeMap<(u8, u8), String>,
    inner: Option<Box<Rec>>,
}

fn pairs_out<S: serde::Serializer>(
    pairs: &BTreeMap<(u8, u8), String>,
    serializer: S,
) -> Result<S::Ok, S::Error> {
    serializer.collect_seq(pairs.iter())
}

fn pairs_in<'de, D: serde::Deserializer<'de>>(
    deserializer: D,
) -> Result<BTreeMap<(u8, u8), String>, D::Error> {
    let entries = Vec::<((u8, u8), String)>::deserialize(deserializer)?;
    Ok(entries.into_iter().collect())
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Wrap(Vec<u8>);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(u8),
    Rect(u8, String),
    Path {
        points: Vec<Pair>,
        label: Option<String>,
    },
}

fn error<T: Deserialize + std::fmt::Debug>(json: &str) -> String {
    serde_json::from_str::<T>(json).unwrap_err().to_string()
}

#[test]
fn struct_fields_move_out_of_the_map_with_the_old_rules() {
    let full = Rec {
        id: 7,
        name: "seven".into(),
        note: Some("n".into()),
        cache: 99,
        pairs: BTreeMap::from([((1, 2), "a".into()), ((3, 4), "b".into())]),
        inner: Some(Box::new(Rec {
            id: 8,
            name: "eight".into(),
            ..Default::default()
        })),
    };
    let json = serde_json::to_string(&full).unwrap();
    assert_eq!(
        json,
        r#"{"id":7,"name":"seven","note":"n","pairs":[[[1,2],"a"],[[3,4],"b"]],"inner":{"id":8,"name":"eight","note":null,"pairs":[],"inner":null}}"#
    );
    // `skip` fields come back as their default.
    let back: Rec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, Rec { cache: 0, ..full });

    // Field order is free, unknown keys are ignored, a missing `Option` is
    // `None`, and of a duplicated key the first wins.
    let loose: Rec = serde_json::from_str(
        r#"{"pairs":[],"extra":{"deep":[1,2]},"name":"x","id":1,"id":2,"name":"y"}"#,
    )
    .unwrap();
    assert_eq!(
        loose,
        Rec {
            id: 1,
            name: "x".into(),
            ..Default::default()
        }
    );
}

#[test]
fn struct_errors_keep_their_messages() {
    assert_eq!(
        error::<Rec>(r#"{"id":1,"pairs":[]}"#),
        "JSON error: missing field `name` in Rec"
    );
    // Present but null is a type error, not a missing field.
    assert_eq!(
        error::<Rec>(r#"{"id":1,"name":null,"pairs":[]}"#),
        "JSON error: expected string, got null"
    );
    // A missing `deserialize_with` field hands the function `null`.
    assert_eq!(
        error::<Rec>(r#"{"id":1,"name":"x"}"#),
        "JSON error: expected sequence, got null"
    );
    assert_eq!(
        error::<Rec>(r#"{"id":1,"name":"x","pairs":[],"inner":{"id":2}}"#),
        "JSON error: missing field `name` in Rec"
    );
    assert_eq!(error::<Rec>("[1]"), "JSON error: expected map for Rec");
    assert_eq!(error::<Rec>("null"), "JSON error: expected map for Rec");
}

#[test]
fn tuple_newtype_and_unit_structs() {
    assert_eq!(
        serde_json::from_str::<Pair>(r#"[3,"x"]"#).unwrap(),
        Pair(3, "x".into())
    );
    assert_eq!(
        error::<Pair>("[3]"),
        "JSON error: wrong tuple arity for Pair"
    );
    assert_eq!(
        error::<Pair>(r#"[3,"x",1]"#),
        "JSON error: wrong tuple arity for Pair"
    );
    assert_eq!(
        error::<Pair>("{}"),
        "JSON error: expected sequence for Pair"
    );
    assert_eq!(error::<Pair>(r#"["x",3]"#), "JSON error: bad integer `x`");
    assert_eq!(
        serde_json::from_str::<Wrap>("[1,2]").unwrap(),
        Wrap(vec![1, 2])
    );
    assert_eq!(serde_json::to_string(&Unit).unwrap(), "null");
    assert_eq!(serde_json::from_str::<Unit>("null").unwrap(), Unit);
    assert_eq!(serde_json::from_str::<Unit>("[1]").unwrap(), Unit);
}

#[test]
fn enum_variants_move_their_payload_with_the_old_rules() {
    let shapes = vec![
        Shape::Dot,
        Shape::Circle(2),
        Shape::Rect(3, "r".into()),
        Shape::Path {
            points: vec![Pair(1, "a".into()), Pair(2, "b".into())],
            label: None,
        },
    ];
    let json = serde_json::to_string(&shapes).unwrap();
    assert_eq!(
        json,
        r#"["Dot",{"Circle":2},{"Rect":[3,"r"]},{"Path":{"points":[[1,"a"],[2,"b"]],"label":null}}]"#
    );
    assert_eq!(serde_json::from_str::<Vec<Shape>>(&json).unwrap(), shapes);
    assert_eq!(
        serde_json::from_str::<Shape>(r#"{"Path":{"junk":1,"points":[]}}"#).unwrap(),
        Shape::Path {
            points: vec![],
            label: None
        }
    );
}

#[test]
fn enum_errors_keep_their_messages() {
    let no_variant = "JSON error: no variant of Shape matched";
    for json in [
        r#""Blob""#,
        r#"{"Blob":1}"#,
        // A unit variant is a bare string, a payload variant a one-entry map.
        r#"{"Dot":null}"#,
        r#""Circle""#,
        r#"{"Circle":1,"Dot":null}"#,
        "{}",
        "3",
    ] {
        assert_eq!(error::<Shape>(json), no_variant, "{json}");
    }
    assert_eq!(
        error::<Shape>(r#"{"Rect":[3]}"#),
        "JSON error: wrong arity for Shape::Rect"
    );
    assert_eq!(
        error::<Shape>(r#"{"Rect":3}"#),
        "JSON error: expected sequence payload for Shape::Rect"
    );
    assert_eq!(
        error::<Shape>(r#"{"Path":[]}"#),
        "JSON error: expected map payload for Shape::Path"
    );
    assert_eq!(
        error::<Shape>(r#"{"Path":{"label":"l"}}"#),
        "JSON error: missing field `points` in Shape::Path"
    );
    assert_eq!(
        error::<Shape>(r#"{"Circle":true}"#),
        "JSON error: expected integer, got bool"
    );
}
