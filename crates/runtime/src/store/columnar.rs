//! A table's slots: the column and posting-list types, and the writes that
//! keep a [`Table`]'s column vectors (one copy of every stored value), its
//! key index of sorted slot numbers and its posting lists on the columns a
//! plan probes in step. The parent module states what a probe yields and in
//! which order.
//!
//! An address column of the schema is a dictionary column posted by pool
//! code; any other holds integers or `Value`s posted by value. Matching is
//! `==`: a text finds no address anywhere.

use super::{Derivation, Membership, Table};
use crate::few::Few;
use crate::tuple::Tuple;
use crate::value::{IdMap, NodeId, Value};
use nt_intern::heap::{Census, Heap};
use std::cell::Cell;
use std::cmp::Ordering;

thread_local! {
    /// This thread's count of tuples materialized out of columnar slots.
    /// Probing and column matching never materialize; only
    /// [`super::TupleRef::to_tuple`] (and replacement bookkeeping) does. The regression test for the vectorized
    /// probe kernel asserts this stays flat while candidates are scanned and
    /// filtered — per thread, so tests running beside it cannot move the
    /// count under it.
    static TUPLE_MATERIALIZATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Current value of the calling thread's columnar-materialization counter
/// (monotonic). Intended for allocation-regression tests.
pub fn tuple_materializations() -> u64 {
    TUPLE_MATERIALIZATIONS.with(Cell::get)
}

/// One attribute's storage in a columnar table. An address column of the
/// schema is a `Dict` column from the start and holds pool codes only. Any
/// other column starts as `Int` and widens to `Other` when the first value
/// that is not an integer is written.
#[derive(Debug, Clone)]
pub(super) enum Column {
    /// Dictionary-encoded address column: the `u32` codes are raw intern
    /// pool indexes, so encoding a tuple is free and decoding is one array
    /// index into the pool.
    Dict(Vec<u32>),
    /// Plain integers (every integral number: a stored value is canonical).
    Int(Vec<i64>),
    /// Overflow: fractional doubles, strings, lists, bools, ids, infinity,
    /// addresses outside address columns, or mixed types.
    Other(Vec<Value>),
}

impl Column {
    /// Decode the value at a physical slot. Zero-allocation for the typed
    /// columns; `Other` clones the stored value.
    pub(super) fn value_at(&self, slot: usize) -> Value {
        match self {
            Column::Dict(xs) => Value::Addr(decode_dict(xs[slot])),
            Column::Int(xs) => Value::Int(xs[slot]),
            Column::Other(xs) => xs[slot].clone(),
        }
    }

    /// The slot's value against `v` under `Value`'s total order, without
    /// materializing: what orders the key index.
    fn cmp_value(&self, slot: usize, v: &Value) -> Ordering {
        match self {
            Column::Dict(xs) => Value::Addr(decode_dict(xs[slot])).cmp(v),
            Column::Int(xs) => Value::Int(xs[slot]).cmp(v),
            Column::Other(xs) => xs[slot].cmp(v),
        }
    }

    /// Whether the slot's value `==` `v`, without materializing.
    pub(super) fn matches_value(&self, slot: usize, v: &Value) -> bool {
        match self {
            Column::Dict(xs) => dict_code(v) == Some(xs[slot]),
            Column::Int(xs) => *v == Value::Int(xs[slot]),
            Column::Other(xs) => *v == xs[slot],
        }
    }

    /// Append a physical slot holding `v`.
    fn push(&mut self, v: &Value) {
        match (&mut *self, v) {
            (Column::Dict(xs), v) => {
                xs.push(dict_code(v).expect("an address column holds addresses"))
            }
            (Column::Int(xs), Value::Int(i)) => xs.push(*i),
            (Column::Other(xs), v) => xs.push(v.clone()),
            (Column::Int(_), v) => {
                self.widen();
                self.push(v);
            }
        }
    }

    /// Overwrite an existing physical slot with `v`.
    fn write(&mut self, slot: usize, v: &Value) {
        match (&mut *self, v) {
            (Column::Dict(xs), v) => {
                xs[slot] = dict_code(v).expect("an address column holds addresses")
            }
            (Column::Int(xs), Value::Int(i)) => xs[slot] = *i,
            (Column::Other(xs), v) => xs[slot] = v.clone(),
            (Column::Int(_), v) => {
                self.widen();
                self.write(slot, v);
            }
        }
    }

    /// Widen an `Int` column to `Other`, materializing every physical slot
    /// (dead slots still carry a last value).
    fn widen(&mut self) {
        if let Column::Int(xs) = self {
            *self = Column::Other(xs.iter().map(|i| Value::Int(*i)).collect());
        }
    }
}

/// Decode a dictionary code written by this process. Codes are only ever
/// produced from live handles, and the intern pool is append-only, so the
/// lookup cannot fail on uncorrupted state.
fn decode_dict(code: u32) -> NodeId {
    NodeId::from_index(code).expect("dictionary code decodes against the intern pool")
}

/// The pool code an address column holds for `v`: `None` unless `v` is an
/// address, which no stored address equals then.
fn dict_code(v: &Value) -> Option<u32> {
    match v {
        Value::Addr(a) => Some(a.index()),
        _ => None,
    }
}

/// The posting lists of one indexed column: value -> live slots carrying it,
/// in the order they were indexed. Keyed the way the column is typed, which
/// is fixed when the table is built: an address column — every column the
/// shipped programs probe — by pool code, so a probe hashes a code and never
/// builds a value; any other by value.
#[derive(Debug, Clone)]
pub(super) enum Postings {
    /// A [`Column::Dict`] column, by pool code.
    Code(IdMap<u32, Few<u32>>),
    /// Any other column, by value.
    Value(IdMap<Value, Few<u32>>),
}

impl Postings {
    /// The live slots holding `value`; `None` when no slot does.
    pub(super) fn get(&self, value: &Value) -> Option<&[u32]> {
        let slots = match self {
            Postings::Code(lists) => lists.get(&dict_code(value)?),
            Postings::Value(lists) => lists.get(value),
        };
        slots.map(|slots| &**slots)
    }
}

fn unlist<K: std::hash::Hash + Eq>(lists: &mut IdMap<K, Few<u32>>, key: K, slot: u32) {
    if let Some(slots) = lists.get_mut(&key) {
        if let Some(pos) = slots.iter().position(|s| *s == slot) {
            slots.remove(pos);
        }
        if slots.is_empty() {
            lists.remove(&key);
        }
    }
}

impl Table {
    /// Whether `slot` holds a stored tuple: the tuple-id map points its id
    /// at it.
    pub(super) fn is_live(&self, slot: u32) -> bool {
        let id = self.ids.get(slot as usize);
        id.is_some_and(|id| self.by_id.get(id) == Some(&slot))
    }

    /// Where `tuple`'s primary key sits in the key index: `Ok(position)` of
    /// the live slot holding that key, or `Err(position)` to insert it at.
    /// The order is `Vec<Value>`'s over the key projection — `Value`'s total
    /// order, key column by key column — read straight from the columns and
    /// from `tuple.values()`, so no key is ever built. `tuple` has the table's
    /// arity.
    fn find(&self, tuple: &Tuple) -> Result<usize, usize> {
        let arity = self.spec.schema.arity;
        let key_cols = &self.spec.schema.key_cols;
        self.by_key.binary_search_by(|&slot| {
            key_cols
                .iter()
                .filter(|&&c| c < arity)
                .map(|&c| self.cols[c].cmp_value(slot as usize, &tuple.values()[c]))
                .find(|order| order.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    }

    /// Materialize the tuple stored in a slot (counted — see
    /// [`tuple_materializations`]).
    pub(super) fn tuple_at(&self, slot: u32) -> Tuple {
        TUPLE_MATERIALIZATIONS.with(|count| count.set(count.get() + 1));
        let values = self.cols.iter().map(|c| c.value_at(slot as usize));
        let id = self.ids[slot as usize];
        Tuple::stored(self.spec.relation, values.collect(), id)
    }

    /// Add a derivation for `tuple`, inserting it if necessary.
    ///
    /// Returns how the table membership changed. When the relation has
    /// update-in-place keys and a *different* tuple with the same key was
    /// present, that tuple is removed and returned via
    /// [`Membership::Replaced`]; the caller is responsible for cascading the
    /// implied deletion.
    pub fn add_derivation(&mut self, tuple: &Tuple, derivation: Derivation) -> Membership {
        debug_assert_eq!(
            tuple.relation(),
            self.spec.relation,
            "a table stores tuples of its own relation only"
        );
        // Every column gets a value per slot, or the slots fall out of step.
        assert_eq!(
            tuple.values().len(),
            self.spec.schema.arity,
            "tuple arity does not match relation `{}`",
            self.spec.schema.name
        );
        match self.find(tuple) {
            Ok(pos) => {
                let slot = self.by_key[pos];
                // Equal tuples have one id; another id is another tuple
                // under the same key.
                if self.ids[slot as usize] == tuple.id() {
                    let derivs = &mut self.derivs[slot as usize];
                    if derivs.contains(&derivation) {
                        Membership::Unchanged
                    } else {
                        derivs.push(derivation);
                        Membership::AddedDerivation
                    }
                } else {
                    // Key collision with different content: rewrite the slot
                    // in place. It keeps its physical slot and — the keys
                    // being equal — its place in the key index; it gets a
                    // fresh id and is appended to its posting lists.
                    let old = self.tuple_at(slot);
                    self.unindex_slot(slot);
                    self.by_id.remove(&self.ids[slot as usize]);
                    self.ids[slot as usize] = tuple.id();
                    self.derivs[slot as usize] = Few::One(derivation);
                    for (c, v) in self.cols.iter_mut().zip(tuple.values()) {
                        c.write(slot as usize, v);
                    }
                    self.by_id.insert(tuple.id(), slot);
                    self.index_slot(slot);
                    Membership::Replaced(old)
                }
            }
            Err(pos) => {
                self.insert_row(pos, tuple, Few::One(derivation));
                Membership::Appeared
            }
        }
    }

    /// Remove one derivation of `tuple` (matching exactly). Returns
    /// [`Membership::Disappeared`] when that was the last derivation.
    pub fn remove_derivation(&mut self, tuple: &Tuple, derivation: &Derivation) -> Membership {
        let Some(&slot) = self.by_id.get(&tuple.id()) else {
            return Membership::NotFound;
        };
        let derivs = &mut self.derivs[slot as usize];
        let Some(pos) = derivs.iter().position(|d| d == derivation) else {
            return Membership::NotFound;
        };
        derivs.remove(pos);
        if !derivs.is_empty() {
            Membership::RemovedDerivation
        } else {
            // The slot dies; its columns keep their values until it is
            // reused, so the indexes are cleared from them first.
            self.unindex_slot(slot);
            let pos = self
                .find(tuple)
                .expect("a stored tuple is in the key index");
            self.by_key.remove(pos);
            self.by_id.remove(&tuple.id());
            self.free.push(slot);
            Membership::Disappeared
        }
    }

    /// Store a tuple whose key is vacant at position `pos` of the key index,
    /// reusing a free slot when one exists.
    fn insert_row(&mut self, pos: usize, tuple: &Tuple, derivations: Few<Derivation>) {
        let id = tuple.id();
        if self.cols.is_empty() {
            let schema = &self.spec.schema;
            self.cols = (0..schema.arity)
                .map(|c| match schema.is_addr(c) {
                    true => Column::Dict(Vec::new()),
                    false => Column::Int(Vec::new()),
                })
                .collect();
            self.postings = (self.spec.probed.iter())
                .map(|&c| match schema.is_addr(c) {
                    true => Postings::Code(IdMap::default()),
                    false => Postings::Value(IdMap::default()),
                })
                .collect();
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.ids[slot as usize] = id;
                self.derivs[slot as usize] = derivations;
                for (col, v) in self.cols.iter_mut().zip(tuple.values()) {
                    col.write(slot as usize, v);
                }
                slot
            }
            None => {
                let slot = u32::try_from(self.ids.len()).expect("columnar slot overflow");
                self.ids.push(id);
                self.derivs.push(derivations);
                for (col, v) in self.cols.iter_mut().zip(tuple.values()) {
                    col.push(v);
                }
                slot
            }
        };
        self.by_id.insert(id, slot);
        self.by_key.insert(pos, slot);
        self.index_slot(slot);
    }

    /// Append `slot` to the posting list of the value it holds in each
    /// indexed column.
    fn index_slot(&mut self, slot: u32) {
        for (&col, postings) in self.spec.probed.iter().zip(&mut self.postings) {
            match (postings, &self.cols[col]) {
                (Postings::Code(lists), Column::Dict(xs)) => {
                    lists.entry(xs[slot as usize]).or_default().push(slot)
                }
                (Postings::Value(lists), column) => lists
                    .entry(column.value_at(slot as usize))
                    .or_default()
                    .push(slot),
                (Postings::Code(_), _) => unreachable!("an address column stays one"),
            }
        }
    }

    /// Take `slot` out of its posting lists. Reads the slot's columns, so it
    /// runs before anything overwrites them.
    fn unindex_slot(&mut self, slot: u32) {
        for (&col, postings) in self.spec.probed.iter().zip(&mut self.postings) {
            match (postings, &self.cols[col]) {
                (Postings::Code(lists), Column::Dict(xs)) => unlist(lists, xs[slot as usize], slot),
                (Postings::Value(lists), column) => {
                    unlist(lists, column.value_at(slot as usize), slot)
                }
                (Postings::Code(_), _) => unreachable!("an address column stays one"),
            }
        }
    }

    /// Charge the table's heap to its owners: `table.ids`,
    /// `table.derivations` (spilled lists and input lists),
    /// `table.columns` (the overflow column's values included),
    /// `table.key_index`, `table.by_id`, `table.postings` (keys and spilled
    /// lists included) and `table.slots` (the free list). The spec is the
    /// program's, charged to no table.
    pub fn heap(&self, census: &mut Census) {
        census.add("table.ids", Heap::vec(&self.ids));
        census.add("table.derivations", Heap::vec(&self.derivs));
        for derivs in &self.derivs {
            census.add("table.derivations", derivs.heap());
            for d in derivs {
                census.shared("table.derivations", &d.inputs);
            }
        }
        census.add("table.columns", Heap::vec(&self.cols));
        for column in &self.cols {
            census.add(
                "table.columns",
                match column {
                    Column::Dict(xs) => Heap::vec(xs),
                    Column::Int(xs) => Heap::vec(xs),
                    Column::Other(xs) => Heap::vec(xs),
                },
            );
            if let Column::Other(xs) = column {
                xs.iter().for_each(|v| v.heap(census, "table.columns"));
            }
        }
        census.add("table.key_index", Heap::vec(&self.by_key));
        census.add("table.by_id", Heap::map(&self.by_id));
        census.add("table.postings", Heap::vec(&self.postings));
        for postings in &self.postings {
            let lists = match postings {
                Postings::Code(lists) => {
                    census.add("table.postings", Heap::map(lists));
                    lists.values().map(Few::heap).sum()
                }
                Postings::Value(lists) => {
                    census.add("table.postings", Heap::map(lists));
                    lists.keys().for_each(|v| v.heap(census, "table.postings"));
                    lists.values().map(Few::heap).sum()
                }
            };
            census.add("table.postings", lists);
        }
        census.add("table.slots", Heap::vec(&self.free));
    }

    /// Test view: (physical slots, free slots).
    #[cfg(test)]
    pub(super) fn arena(&self) -> (usize, usize) {
        (self.ids.len(), self.free.len())
    }
}
