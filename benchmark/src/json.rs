//! JSON in and out through the workspace's vendored `serde` facade, whose
//! data model is a self-describing [`Content`] tree. The benchmark builds and
//! reads documents as trees directly.

use serde::{Content, Deserialize, Deserializer, Serialize, Serializer};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(self.0.clone())
    }
}

impl Deserialize for Json {
    fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.into_content().map(Json)
    }
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Content)>) -> Content {
    Content::Map(
        pairs
            .into_iter()
            .map(|(k, v)| (Content::Str(k.to_string()), v))
            .collect(),
    )
}

/// A string value.
pub fn text(s: impl Into<String>) -> Content {
    Content::Str(s.into())
}

/// A float value.
pub fn num(v: f64) -> Content {
    Content::F64(v)
}

/// An unsigned integer value.
pub fn uint(v: u64) -> Content {
    Content::U64(v)
}

/// A `u64` digest as fixed-width hex (JSON numbers lose bits above 2^53 in
/// most readers).
pub fn hex(v: u64) -> Content {
    Content::Str(format!("{v:016x}"))
}

/// Any serialisable product value as a tree.
pub fn tree<T: Serialize>(value: &T) -> Content {
    serde::to_content(value).expect("product config serialises")
}

/// Numeric content as `f64`.
pub fn as_f64(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// Compact one-line rendering.
pub fn line(c: &Content) -> String {
    serde_json::to_string(&Json(c.clone())).expect("tree renders")
}

/// Pretty rendering.
pub fn pretty(c: &Content) -> String {
    serde_json::to_string_pretty(&Json(c.clone())).expect("tree renders")
}

/// Parse a document.
pub fn parse(s: &str) -> Result<Content, String> {
    serde_json::from_str::<Json>(s)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}
