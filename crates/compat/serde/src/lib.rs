//! Vendored, dependency-free subset of the `serde` API.
//!
//! The build environment has no network access, so this workspace ships a
//! small serde-compatible facade instead of the real crate. The data model is
//! a self-describing [`Content`] tree: `Serialize` lowers a value to
//! `Content`, `Deserialize` lifts it back, and `serde_json` prints/parses the
//! tree. The `#[derive(Serialize, Deserialize)]` macros (crate
//! `serde_derive`) generate impls against this model, including support for
//! the attribute subset the workspace uses: `#[serde(skip)]`,
//! `#[serde(serialize_with = "..")]` and `#[serde(deserialize_with = "..")]`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};

pub use serde_derive::{Deserialize, Serialize};

/// Self-describing serialized value (the facade's entire data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    Map(Vec<(Content, Content)>),
}

impl Content {
    /// Entry list when this is a map.
    pub fn as_map(&self) -> Option<&[(Content, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Element list when this is a sequence.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// String slice when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a map entry by string key.
    pub fn map_get(&self, key: &str) -> Option<&Content> {
        self.as_map()?
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| v)
    }

    fn type_name(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) | Content::F64(_) => "number",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// The facade's error type, shared by serialization and deserialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// Build an error from any displayable message (mirrors
    /// `serde::de::Error::custom`).
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can lower itself to [`Content`].
pub trait Serialize {
    /// Serialize `self` with the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// Consumer of a serialized value. The only required method takes a complete
/// [`Content`] tree; `collect_seq` exists because hand-written
/// `serialize_with` functions in this workspace call it.
pub trait Serializer: Sized {
    /// Successful output type.
    type Ok;
    /// Error type; every error can be built from the facade [`Error`].
    type Error: From<Error>;

    /// Accept a fully built content tree.
    fn serialize_content(self, content: Content) -> Result<Self::Ok, Self::Error>;

    /// Serialize the items of an iterator as a sequence.
    fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        let mut items = Vec::new();
        for item in iter {
            items.push(to_content(&item)?);
        }
        self.serialize_content(Content::Seq(items))
    }
}

/// Serializer that simply yields the content tree.
pub struct ContentSerializer;

impl Serializer for ContentSerializer {
    type Ok = Content;
    type Error = Error;

    fn serialize_content(self, content: Content) -> Result<Content, Error> {
        Ok(content)
    }
}

/// Lower any serializable value to a [`Content`] tree.
pub fn to_content<T: Serialize + ?Sized>(value: &T) -> Result<Content, Error> {
    value.serialize(ContentSerializer)
}

/// A type that can lift itself from [`Content`].
pub trait Deserialize: Sized {
    /// Deserialize from the given deserializer.
    fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Producer of a serialized value.
pub trait Deserializer<'de>: Sized {
    /// Error type; every error can be built from the facade [`Error`].
    type Error: From<Error>;

    /// Yield the complete content tree.
    fn into_content(self) -> Result<Content, Self::Error>;
}

impl<'de> Deserializer<'de> for Content {
    type Error = Error;

    fn into_content(self) -> Result<Content, Error> {
        Ok(self)
    }
}

impl<'de> Deserializer<'de> for &Content {
    type Error = Error;

    fn into_content(self) -> Result<Content, Error> {
        Ok(self.clone())
    }
}

/// Lift a value from a [`Content`] tree.
pub fn from_content<T: Deserialize>(content: Content) -> Result<T, Error> {
    T::deserialize(content)
}

/// Move the value of the first entry keyed `key` out of a map's entry list,
/// leaving `Null` in its place. Derived `Deserialize` impls take each field's
/// subtree this way, so lifting a value costs its size once, not once per
/// nesting level.
pub fn take_field(entries: &mut [(Content, Content)], key: &str) -> Option<Content> {
    entries
        .iter_mut()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| std::mem::replace(v, Content::Null))
}

// ---------------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

macro_rules! serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_content(Content::I64(*self as i64))
            }
        }
    )*};
}
serialize_signed!(i8, i16, i32, i64, isize);

macro_rules! serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_content(Content::U64(*self as u64))
            }
        }
    )*};
}
serialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! serialize_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_content(Content::F64(*self as f64))
            }
        }
    )*};
}
serialize_float!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(Content::Bool(*self))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(Content::Str(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(Content::Str(self.clone()))
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(Content::Str(self.to_string()))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            None => serializer.serialize_content(Content::Null),
            Some(v) => v.serialize(serializer),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

#[allow(clippy::disallowed_types)]
impl<T: Serialize, H> Serialize for std::collections::HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

fn serialize_map_entries<'a, S, K, V, I>(serializer: S, entries: I) -> Result<S::Ok, S::Error>
where
    S: Serializer,
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    let mut out = Vec::new();
    for (k, v) in entries {
        out.push((to_content(k)?, to_content(v)?));
    }
    serializer.serialize_content(Content::Map(out))
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_map_entries(serializer, self.iter())
    }
}

#[allow(clippy::disallowed_types)]
impl<K: Serialize, V: Serialize, H> Serialize for std::collections::HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_map_entries(serializer, self.iter())
    }
}

macro_rules! serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let items = vec![$(to_content(&self.$idx)?),+];
                serializer.serialize_content(Content::Seq(items))
            }
        }
    )*};
}
serialize_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

fn content_err<T>(expected: &str, got: &Content) -> Result<T, Error> {
    Err(Error(format!(
        "expected {expected}, got {}",
        got.type_name()
    )))
}

fn content_i64(c: &Content) -> Result<i64, Error> {
    match c {
        Content::I64(v) => Ok(*v),
        Content::U64(v) => i64::try_from(*v).map_err(|_| Error("u64 out of i64 range".into())),
        Content::F64(v) if v.fract() == 0.0 => Ok(*v as i64),
        // serde_json represents non-string map keys as strings.
        Content::Str(s) => s.parse().map_err(|_| Error(format!("bad integer `{s}`"))),
        other => content_err("integer", other),
    }
}

fn content_u64(c: &Content) -> Result<u64, Error> {
    match c {
        Content::U64(v) => Ok(*v),
        Content::I64(v) => u64::try_from(*v).map_err(|_| Error("negative integer".into())),
        Content::F64(v) if v.fract() == 0.0 && *v >= 0.0 => Ok(*v as u64),
        Content::Str(s) => s.parse().map_err(|_| Error(format!("bad integer `{s}`"))),
        other => content_err("integer", other),
    }
}

macro_rules! deserialize_signed {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let c = d.into_content()?;
                let v = content_i64(&c)?;
                <$t>::try_from(v).map_err(|_| Error(format!("integer {v} out of range")).into())
            }
        }
    )*};
}
deserialize_signed!(i8, i16, i32, i64, isize);

macro_rules! deserialize_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let c = d.into_content()?;
                let v = content_u64(&c)?;
                <$t>::try_from(v).map_err(|_| Error(format!("integer {v} out of range")).into())
            }
        }
    )*};
}
deserialize_unsigned!(u8, u16, u32, u64, usize);

macro_rules! deserialize_float {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let c = d.into_content()?;
                match c {
                    Content::F64(v) => Ok(v as $t),
                    Content::I64(v) => Ok(v as $t),
                    Content::U64(v) => Ok(v as $t),
                    other => Err(Error(format!("expected number, got {}", other.type_name())).into()),
                }
            }
        }
    )*};
}
deserialize_float!(f32, f64);

impl Deserialize for bool {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::Bool(b) => Ok(b),
            other => Err(Error(format!("expected bool, got {}", other.type_name())).into()),
        }
    }
}

impl Deserialize for String {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::Str(s) => Ok(s),
            other => Err(Error(format!("expected string, got {}", other.type_name())).into()),
        }
    }
}

impl Deserialize for char {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error(format!("expected single char, got `{s}`")).into()),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::Null => Ok(None),
            other => Ok(Some(from_content(other)?)),
        }
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Box::new(T::deserialize(d)?))
    }
}

/// A fresh allocation per value: sharing is not part of the data model (as in
/// serde proper).
impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(std::sync::Arc::new(T::deserialize(d)?))
    }
}

/// A shared slice reads like a `Vec`, into one fresh allocation — none for an
/// empty one, which shares std's static empty slice.
impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let items = Vec::<T>::deserialize(d)?;
        Ok(if items.is_empty() {
            std::sync::Arc::default()
        } else {
            items.into()
        })
    }
}

fn content_seq<'de, D: Deserializer<'de>>(d: D) -> Result<Vec<Content>, D::Error> {
    match d.into_content()? {
        Content::Seq(items) => Ok(items),
        other => Err(Error(format!("expected sequence, got {}", other.type_name())).into()),
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        content_seq(d)?
            .into_iter()
            .map(|c| from_content(c).map_err(Into::into))
            .collect()
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Vec::<T>::deserialize(d)?.into_iter().collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Vec::<T>::deserialize(d)?.into_iter().collect())
    }
}

#[allow(clippy::disallowed_types)]
impl<T: Deserialize + Eq + Hash, H: BuildHasher + Default> Deserialize
    for std::collections::HashSet<T, H>
{
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Vec::<T>::deserialize(d)?.into_iter().collect())
    }
}

fn content_map_entries<'de, D, K, V>(d: D) -> Result<Vec<(K, V)>, D::Error>
where
    D: Deserializer<'de>,
    K: Deserialize,
    V: Deserialize,
{
    match d.into_content()? {
        Content::Map(entries) => entries
            .into_iter()
            .map(|(k, v)| Ok((from_content(k)?, from_content(v)?)))
            .collect::<Result<Vec<_>, Error>>()
            .map_err(Into::into),
        other => Err(Error(format!("expected map, got {}", other.type_name())).into()),
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(content_map_entries::<_, K, V>(d)?.into_iter().collect())
    }
}

#[allow(clippy::disallowed_types)]
impl<K, V, H> Deserialize for std::collections::HashMap<K, V, H>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    H: BuildHasher + Default,
{
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(content_map_entries::<_, K, V>(d)?.into_iter().collect())
    }
}

macro_rules! deserialize_tuple {
    ($(($len:literal, $($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize<'de, De: Deserializer<'de>>(d: De) -> Result<Self, De::Error> {
                let items = content_seq(d)?;
                if items.len() != $len {
                    return Err(Error(format!(
                        "expected tuple of {}, got sequence of {}",
                        $len,
                        items.len()
                    ))
                    .into());
                }
                let mut it = items.into_iter();
                Ok(($({
                    let _ = $idx;
                    from_content::<$name>(it.next().expect("length checked"))?
                },)+))
            }
        }
    )*};
}
deserialize_tuple! {
    (1, A: 0)
    (2, A: 0, B: 1)
    (3, A: 0, B: 1, C: 2)
    (4, A: 0, B: 1, C: 2, D: 3)
}

/// Namespace mirroring `serde::de` for code that spells out the full path.
pub mod de {
    pub use crate::{Deserialize, Deserializer, Error};
}

/// Namespace mirroring `serde::ser`.
pub mod ser {
    pub use crate::{Error, Serialize, Serializer};
}
