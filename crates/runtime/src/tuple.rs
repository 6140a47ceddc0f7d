//! Tuples and tuple identifiers.

use crate::value::{StableHasher, Sym, Value};
use nt_intern::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_intern::heap::Census;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Content-addressed tuple identifier (the ExSPAN "VID").
///
/// A VID is a stable digest of the relation name and every attribute value, so
/// any node that holds (or merely mentions) a tuple computes the same
/// identifier without coordination. VIDs are the vertices of the distributed
/// provenance graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vid:{:016x}", self.0)
    }
}

/// A ground tuple: relation name plus attribute values. The relation name is
/// interned ([`Sym`]) and the values are one shared, immutable slice, so a
/// clone — into a table's queue, a firing, a provenance store, an outbox, a
/// shipped record — copies four words and bumps a reference count; it never
/// copies a value. Relation comparisons on the join/provenance hot paths are
/// integer compares.
///
/// Sealed: [`Tuple::new`] is the one way to make one (the codec's decoder
/// goes through it).
/// It stores every value in canonical form (the identity rule at the top of
/// [`crate::value`]) and hashes once, so equal tuples have one id and one
/// representation, and [`Tuple::id`] is a field read. Equality, order,
/// hashing, `Debug` and the codec read the content, never the handle: two
/// tuples built apart are as equal as two clones of one.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    relation: Sym,
    /// Derived from the other two; compared before the values.
    id: TupleId,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Charge the shared values (once, however many tuples hold them) and
    /// what they hold to `owner`.
    pub fn heap(&self, census: &mut Census, owner: &'static str) {
        if census.shared(owner, &self.values) {
            self.values.iter().for_each(|v| v.heap(census, owner));
        }
    }

    /// Create a tuple: interns the relation, canonicalizes the values, hashes.
    /// Values collected straight into a shared slice are stored in it, with
    /// no copy when they are canonical already; a slice someone else holds is
    /// copied before anything in it is rewritten (see [`crate::value`]).
    pub fn new(relation: impl Into<Sym>, values: impl Into<Arc<[Value]>>) -> Self {
        let mut values = values.into();
        Value::canonicalize_all(&mut values);
        let relation = relation.into();
        Tuple {
            relation,
            id: Tuple::content_id(relation, &values),
            values,
        }
    }

    /// A tuple read back out of storage, which kept the values and the id a
    /// [`Tuple::new`] gave it.
    pub(crate) fn stored(relation: Sym, values: Arc<[Value]>, id: TupleId) -> Self {
        debug_assert_eq!(id, Tuple::content_id(relation, &values));
        Tuple {
            relation,
            id,
            values,
        }
    }

    fn content_id(relation: Sym, values: &[Value]) -> TupleId {
        let mut h = StableHasher::new();
        h.write_str(&relation);
        h.write_u64(values.len() as u64);
        for v in values {
            v.stable_hash_into(&mut h);
        }
        TupleId(h.finish())
    }

    /// Relation this tuple belongs to.
    pub fn relation(&self) -> Sym {
        self.relation
    }

    /// Attribute values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The stable content-addressed identifier of this tuple.
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// The value of the location attribute given its column index.
    pub fn location(&self, loc_col: usize) -> Option<&str> {
        self.values.get(loc_col).and_then(|v| v.as_addr())
    }

    /// Approximate wire size in bytes (for traffic accounting). The relation
    /// name ships as a fixed-width interned id (the dictionary travels once
    /// per snapshot, not per tuple).
    pub fn wire_size(&self) -> usize {
        8 + Sym::WIRE_SIZE + self.values.iter().map(Value::wire_size).sum::<usize>()
    }

    /// The one walk of a tuple's names: its relation, then every address
    /// among its values in order, lists included (repeats too). These are
    /// what [`Tuple::wire_size`] prices at handle width, so they are what a
    /// dictionary header owes a receiver — see [`crate::Dictionary`].
    pub fn visit_names(&self, visit: &mut impl FnMut(Sym)) {
        fn walk(values: &[Value], visit: &mut impl FnMut(Sym)) {
            for v in values {
                match v {
                    Value::Addr(a) => visit(a.as_sym()),
                    Value::List(l) => walk(l, visit),
                    _ => {}
                }
            }
        }
        visit(self.relation);
        walk(&self.values, visit);
    }

    /// Project the tuple onto the given column indices.
    pub fn project(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter()
            .filter_map(|&c| self.values.get(c).cloned())
            .collect()
    }
}

// The relation and the values; reading goes through the constructor, so the
// id and the canonical numbers are recomputed, never trusted.
impl Encode for Tuple {
    fn encode(&self, w: &mut Writer) {
        w.sym(self.relation);
        self.values.encode(w);
    }
}

impl Decode for Tuple {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let relation = r.sym()?;
        Ok(Tuple::new(relation, Vec::<Value>::decode(r)?))
    }
}

impl Encode for TupleId {
    fn encode(&self, w: &mut Writer) {
        w.fixed64(self.0);
    }
}

impl Decode for TupleId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TupleId(r.fixed64()?))
    }
}

// Relation, then the values by `Value::cmp`: the one order of a snapshot's
// relations. One relation is one integer compare (`Sym`'s fast path), so a
// relation's tuples compare by value alone. Equal relations and equal values
// are one canonical tuple, so `Equal` is exactly `==` and one id; the id
// itself decides nothing.
impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> Ordering {
        self.relation
            .cmp(&other.relation)
            .then_with(|| self.values.cmp(&other.values))
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// The content only: relation and values, never the id. Nothing orders by
// this text.
impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("relation", &self.relation)
            .field("values", &self.values)
            .finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A change to a relation: the unit the incremental engine processes and the
/// unit that travels between nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// The tuple is inserted (or re-derived).
    Insert(Tuple),
    /// The tuple is deleted (or its last derivation disappeared).
    Delete(Tuple),
}

impl Delta {
    /// The tuple the delta refers to.
    pub fn tuple(&self) -> &Tuple {
        match self {
            Delta::Insert(t) | Delta::Delete(t) => t,
        }
    }

    /// True for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, Delta::Insert(_))
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delta::Insert(t) => write!(f, "+{t}"),
            Delta::Delete(t) => write!(f, "-{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(s: &str, d: &str, c: i64) -> Tuple {
        Tuple::new("link", vec![Value::addr(s), Value::addr(d), Value::Int(c)])
    }

    #[test]
    fn id_is_stable_and_content_addressed() {
        assert_eq!(link("n1", "n2", 3).id(), link("n1", "n2", 3).id());
        assert_ne!(link("n1", "n2", 3).id(), link("n1", "n2", 4).id());
        assert_ne!(
            link("n1", "n2", 3).id(),
            Tuple::new(
                "edge",
                vec![Value::addr("n1"), Value::addr("n2"), Value::Int(3)]
            )
            .id()
        );
    }

    /// 32 bytes before the id was carried (`Sym` + `Vec<Value>`), after it
    /// (`Sym` + `TupleId` + `Box<[Value]>`: the id took the vector's capacity
    /// word) and with shared values (`Arc<[Value]>`, as wide as the box).
    #[test]
    fn a_tuple_is_four_words_and_carries_its_canonical_content_and_id() {
        assert_eq!(std::mem::size_of::<Tuple>(), 32);
        let spelled = Tuple::new(
            "t",
            vec![
                Value::Double(3.0),
                Value::list(vec![Value::Double(-0.0)]),
                Value::Double(2.5),
            ],
        );
        let canonical = [
            Value::Int(3),
            Value::list(vec![Value::Int(0)]),
            Value::Double(2.5),
        ];
        assert!(matches!(spelled.values()[0], Value::Int(3)));
        assert!(matches!(&spelled.values()[1], Value::List(l) if matches!(l[0], Value::Int(0))));
        assert_eq!(spelled.id(), Tuple::new("t", canonical.to_vec()).id());
        assert_eq!(
            format!("{spelled:?}"),
            format!("{:?}", Tuple::new("t", canonical.to_vec()))
        );
        assert!(
            format!("{spelled:?}").starts_with("Tuple { relation: Sym(\"t\"), values: [Int(3), ")
        );
    }

    #[test]
    fn location_extraction() {
        let t = link("n7", "n9", 1);
        assert_eq!(t.location(0), Some("n7"));
        assert_eq!(t.location(1), Some("n9"));
        assert_eq!(t.location(2), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(link("n1", "n2", 3).to_string(), "link(n1,n2,3)");
        assert_eq!(
            Delta::Delete(link("n1", "n2", 3)).to_string(),
            "-link(n1,n2,3)"
        );
    }

    #[test]
    fn project_selects_columns() {
        let t = link("n1", "n2", 3);
        assert_eq!(t.project(&[2, 0]), vec![Value::Int(3), Value::addr("n1")]);
    }
}
