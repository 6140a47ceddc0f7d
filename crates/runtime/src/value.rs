//! Runtime values and stable hashing.
//!
//! NDlog tuples carry dynamically typed values. The value type needs a *total*
//! order (aggregates such as `min<C>` must order any two values a program
//! compares) and a *stable* 64-bit digest: provenance vertex identifiers (VIDs)
//! are content hashes of tuples, and they must be identical on every node and
//! across runs so that distributed provenance queries can follow them.
//!
//! ## Identity
//!
//! **A number's identity is its numeric value.** `Int(3)` and `Double(3.0)`
//! are one value, as are `0.0` and `-0.0`, as is every NaN payload. One
//! function (`Num::of`) decides the canonical form: an integral double inside
//! `[-2^63, 2^63)` is that `Int`, every NaN is [`f64::NAN`], any other double
//! is itself. `Eq`, `Ord`, `Hash`, [`Value::stable_hash_into`] and `Display`
//! read numbers through it — `Int` against `Double` exactly, never through
//! `as f64` — so `a == b` implies equal hashes and `Ord` is a total order;
//! lists follow elementwise. A [`crate::Tuple`] stores the canonical form, so
//! equal tuples have one id and one stored, displayed and serialized
//! representation. A value in flight (a rule constant, an arithmetic result)
//! keeps its spelling, and arithmetic reads it: `3.0 / 2` is `1.5`.
//!
//! A list is a shared, immutable slice: cloning one bumps a count. Its
//! identity is its content, exactly as for an unshared value — no law above
//! reads the handle — and canonicalizing a list someone else holds copies it
//! (never writes through the handle), so the other holder keeps its spelling.
//!
//! **An address is not a text.** `Addr("n3")` and `Str("n3")` are unequal,
//! hash apart and make different tuple ids; the compiler turns the texts a
//! program writes where addresses go into addresses ([`crate::catalog`]), so
//! every layer matches values with `==` and nothing else.

use nt_intern::codec::{Decode, DecodeError, Encode, Reader, Writer};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

pub use nt_intern::{
    codec, dict_entry_wire_size, dict_wire_size, rule_exec_digest, shard_route, Dictionary,
    IdHasher, IdMap, IdSet, Interner, InternerSnapshot, NodeId, StableHasher, Sym,
};

/// A network address / node name. NetTrails identifies nodes by name (the
/// paper shows addresses such as `node1`); the simulator maps names to
/// simulated endpoints. Addresses are interned: an `Addr` is a 4-byte handle
/// ([`NodeId`]) into the process-global string arena, so cloning, hashing and
/// equality on the maintenance and query hot paths never touch string data.
/// Strings appear only at the API boundary (`&str` in, `Display`/serde out).
pub type Addr = NodeId;

/// Dynamically typed runtime value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Signed 64-bit integer.
    Int(i64),
    /// IEEE double. One value with the `Int` it equals, and one NaN that
    /// sorts after every other number (see the module documentation).
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Network address (node name / AS name). Kept distinct from `Str` so the
    /// provenance graph and the visualizer can recognise locations.
    Addr(Addr),
    /// Homogeneous or heterogeneous list (paths, AS paths, source routes):
    /// one shared slice however many tuples and frames hold it.
    List(Arc<[Value]>),
    /// Opaque 64-bit identifier (provenance VIDs/RIDs travel as values).
    Id(u64),
    /// Sentinel "infinity" used as an unreachable cost.
    Infinity,
}

impl Value {
    /// Build an address value (interning the name).
    pub fn addr(a: impl Into<Addr>) -> Value {
        Value::Addr(a.into())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a list value.
    pub fn list(items: impl Into<Arc<[Value]>>) -> Value {
        Value::List(items.into())
    }

    /// Interpret the value as an integer if possible (bools coerce to 0/1).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interpret the value as a float if possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret the value as a boolean. Integers are truthy when non-zero —
    /// this is what lets NDlog write `f_member(P, S) == 0` style tests.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Double(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Addr(a) => !a.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Id(v) => *v != 0,
            Value::Infinity => true,
        }
    }

    /// The address's text, if this is an address value.
    pub fn as_addr(&self) -> Option<&str> {
        self.as_node_id().map(NodeId::as_str)
    }

    /// The interned node id, if this is an address value.
    pub fn as_node_id(&self) -> Option<NodeId> {
        match self {
            Value::Addr(a) => Some(*a),
            _ => None,
        }
    }

    /// The list elements, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Numeric rank of the variant, used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Double(_) => 1, // numbers compare with each other
            Value::Str(_) => 2,
            Value::Addr(_) => 3,
            Value::List(_) => 4,
            Value::Id(_) => 5,
            Value::Infinity => 6,
        }
    }

    /// Rewrite the value to its canonical form (module documentation), lists
    /// recursively.
    fn canonicalize(&mut self) {
        match self {
            Value::Double(v) => match Num::of(*v) {
                Num::Int(i) => *self = Value::Int(i),
                Num::Frac(d) => *v = d,
            },
            Value::List(l) => Value::canonicalize_all(l),
            _ => {}
        }
    }

    /// Canonicalize every value of a shared slice: what [`crate::Tuple`]'s
    /// constructor stores, and what a list holds. A slice that is canonical
    /// already is kept, handle and all; one that is not is rebuilt, so
    /// whoever else holds it sees no change.
    pub(crate) fn canonicalize_all(values: &mut Arc<[Value]>) {
        if !values.iter().all(Value::is_canonical) {
            *values = values
                .iter()
                .map(|v| {
                    let mut v = v.clone();
                    v.canonicalize();
                    v
                })
                .collect();
        }
    }

    /// True when [`Value::canonicalize`] would leave the value as it is.
    fn is_canonical(&self) -> bool {
        match self {
            Value::Double(v) => matches!(Num::of(*v), Num::Frac(d) if d.to_bits() == v.to_bits()),
            Value::List(l) => l.iter().all(Value::is_canonical),
            _ => true,
        }
    }

    /// Feed the value into a stable FNV-1a style hasher. Equal values feed
    /// equal bytes.
    pub fn stable_hash_into(&self, h: &mut StableHasher) {
        match self {
            Value::Int(v) => {
                h.write_u8(1);
                h.write_u64(*v as u64);
            }
            Value::Double(v) => match Num::of(*v) {
                Num::Int(v) => Value::Int(v).stable_hash_into(h),
                Num::Frac(v) => {
                    h.write_u8(2);
                    h.write_u64(v.to_bits());
                }
            },
            Value::Str(s) => {
                h.write_u8(3);
                h.write_bytes(s.as_bytes());
            }
            Value::Bool(b) => {
                h.write_u8(4);
                h.write_u8(*b as u8);
            }
            Value::Addr(a) => {
                h.write_u8(5);
                h.write_bytes(a.as_bytes());
            }
            Value::List(l) => {
                h.write_u8(6);
                h.write_u64(l.len() as u64);
                for v in l.iter() {
                    v.stable_hash_into(h);
                }
            }
            Value::Id(v) => {
                h.write_u8(7);
                h.write_u64(*v);
            }
            Value::Infinity => h.write_u8(8),
        }
    }

    /// Approximate serialized size in bytes, used by the simulator for traffic
    /// accounting (the paper's query-optimization experiments measure network
    /// traffic).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Double(_) | Value::Id(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len(),
            // Addresses ship as fixed-width interned ids; their strings
            // travel once per destination in a dictionary header (see
            // `nt_intern::Dictionary`), not per message.
            Value::Addr(_) => NodeId::WIRE_SIZE,
            Value::List(l) => 4 + l.iter().map(Value::wire_size).sum::<usize>(),
            Value::Infinity => 1,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => Num::of(*a).cmp(Num::of(*b)),
            (Int(a), Double(b)) => Num::Int(*a).cmp(Num::of(*b)),
            (Double(a), Int(b)) => Num::of(*a).cmp(Num::Int(*b)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Addr(a), Addr(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Id(a), Id(b)) => a.cmp(b),
            (Infinity, Infinity) => Ordering::Equal,
            // Infinity is greater than any number (cost sentinel semantics).
            (Infinity, Int(_)) | (Infinity, Double(_)) => Ordering::Greater,
            (Int(_), Infinity) | (Double(_), Infinity) => Ordering::Less,
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut sh = StableHasher::new();
        self.stable_hash_into(&mut sh);
        state.write_u64(sh.finish());
    }
}

/// A number in its canonical form: the one place numeric identity is
/// decided (module documentation).
#[derive(Clone, Copy)]
enum Num {
    /// An integer, however it was spelled.
    Int(i64),
    /// A double no `i64` equals: fractional, beyond `[-2^63, 2^63)`,
    /// infinite, or NaN — and then [`f64::NAN`], whatever the payload was.
    Frac(f64),
}

impl Num {
    fn of(d: f64) -> Num {
        // `i64::MAX as f64` rounds up to 2^63, the first double out of range.
        if d.is_nan() {
            Num::Frac(f64::NAN)
        } else if d.fract() == 0.0 && d >= i64::MIN as f64 && d < i64::MAX as f64 {
            Num::Int(d as i64)
        } else {
            Num::Frac(d)
        }
    }

    /// Exact numeric order; NaN sorts after every other number.
    fn cmp(self, other: Num) -> Ordering {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => a.cmp(&b),
            (Num::Int(a), Num::Frac(b)) => Num::int_cmp_frac(a, b),
            (Num::Frac(a), Num::Int(b)) => Num::int_cmp_frac(b, a).reverse(),
            // No `-0.0` and one (positive) NaN: the IEEE total order is it.
            (Num::Frac(a), Num::Frac(b)) => a.total_cmp(&b),
        }
    }

    /// `i` against a double that equals no `i64`.
    fn int_cmp_frac(i: i64, d: f64) -> Ordering {
        if d.is_nan() || d >= i64::MAX as f64 {
            Ordering::Less
        } else if d < i64::MIN as f64 {
            Ordering::Greater
        } else if i <= d.floor() as i64 {
            // `d` is fractional and in range: its floor converts exactly.
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => match Num::of(*v) {
                Num::Int(v) => write!(f, "{v}"),
                Num::Frac(v) => write!(f, "{v}"),
            },
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Addr(a) => write!(f, "{a}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Id(v) => write!(f, "#{v:x}"),
            Value::Infinity => write!(f, "infinity"),
        }
    }
}

/// A tag byte, then the variant's payload: `Int` zigzag, `Double` raw bits,
/// `Str` its bytes, `Addr` a name, `List` its items, `Id` eight bytes.
impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Int(v) => {
                w.u8(0);
                w.zigzag(*v);
            }
            Value::Double(v) => {
                w.u8(1);
                w.f64(*v);
            }
            Value::Str(s) => {
                w.u8(2);
                w.str(s);
            }
            Value::Bool(b) => {
                w.u8(3);
                w.bool(*b);
            }
            Value::Addr(a) => {
                w.u8(4);
                w.node(*a);
            }
            Value::List(l) => {
                w.u8(5);
                l.encode(w);
            }
            Value::Id(v) => {
                w.u8(6);
                w.fixed64(*v);
            }
            Value::Infinity => w.u8(7),
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => Value::Int(r.zigzag()?),
            1 => Value::Double(r.f64()?),
            2 => Value::Str(r.str()?.to_string()),
            3 => Value::Bool(r.bool()?),
            4 => Value::Addr(r.node()?),
            5 => {
                r.enter()?;
                let items = Vec::<Value>::decode(r)?;
                r.leave();
                Value::List(items.into())
            }
            6 => Value::Id(r.fixed64()?),
            7 => Value::Infinity,
            _ => return Err(r.error(r.offset() - 1, "an unknown value tag")),
        })
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_infinity_is_largest_number() {
        let mut vals = vec![
            Value::Int(3),
            Value::Infinity,
            Value::Double(2.5),
            Value::Int(-1),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Int(-1),
                Value::Double(2.5),
                Value::Int(3),
                Value::Infinity
            ]
        );
    }

    #[test]
    fn ints_and_doubles_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Double(2.0));
        assert!(Value::Int(2) < Value::Double(2.5));
        assert!(Value::Double(3.0) > Value::Int(2));
    }

    #[test]
    fn nan_sorts_last_among_numbers() {
        assert!(Value::Double(f64::NAN) > Value::Double(1e300));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
    }

    #[test]
    fn truthiness_follows_ndlog_conventions() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::list([]).truthy());
    }

    #[test]
    fn stable_hash_is_deterministic_and_distinguishes_types() {
        let h1 = {
            let mut h = StableHasher::new();
            Value::Int(65).stable_hash_into(&mut h);
            h.finish()
        };
        let h2 = {
            let mut h = StableHasher::new();
            Value::Int(65).stable_hash_into(&mut h);
            h.finish()
        };
        let h3 = {
            let mut h = StableHasher::new();
            Value::Str("A".into()).stable_hash_into(&mut h);
            h.finish()
        };
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }

    /// 32 bytes while a list was a `Vec<Value>` (two three-word variants: the
    /// tag needed a word of its own); 24 with lists shared. `Arc<[Value]>` is
    /// two words, every variant but `Str` fits beside the `String`'s
    /// capacity, and the tag lives in that capacity's unused range.
    #[test]
    fn a_value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn wire_size_counts_nested_lists() {
        let v = Value::list([Value::Int(1), Value::str("ab")]);
        assert_eq!(v.wire_size(), 4 + 8 + (4 + 2));
    }

    #[test]
    fn an_address_is_not_its_text() {
        assert_eq!(Value::addr("n1").as_addr(), Some("n1"));
        assert_eq!(Value::addr("n1").as_node_id(), Some(NodeId::new("n1")));
        assert_eq!(Value::str("n1").as_addr(), None);
        assert_eq!(Value::str("n1").as_node_id(), None);
        assert_eq!(Value::Int(1).as_addr(), None);
        assert_ne!(Value::addr("n1"), Value::str("n1"));
    }
}
