//! A table's storage: column vectors indexed by physical slot, one copy of
//! every stored value, a key index of sorted slot numbers and posting lists
//! on the columns a plan probes. The parent module states what a probe
//! yields and in which order.
//!
//! An address column of the schema is a dictionary column posted by pool
//! code; any other holds integers or `Value`s posted by value. Matching is
//! `==`: a text finds no address anywhere.

use super::{Derivation, Membership};
use crate::catalog::RelationSchema;
use crate::few::Few;
use crate::tuple::{Tuple, TupleId};
use crate::value::{IdMap, NodeId, Sym, Value};
use nt_intern::heap::{Census, Heap};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::Arc;

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
enum Column {
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
    fn value_at(&self, slot: usize) -> Value {
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
    fn matches_value(&self, slot: usize, v: &Value) -> bool {
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
enum Postings {
    /// A [`Column::Dict`] column, by pool code.
    Code(IdMap<u32, Few<u32>>),
    /// Any other column, by value.
    Value(IdMap<Value, Few<u32>>),
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

/// The candidates of a columnar probe: slots of the anchor posting list (or
/// of the key index, for a scan) that pass every residual bound column.
pub(super) struct ColProbe<'a> {
    store: &'a ColumnStore,
    slots: std::slice::Iter<'a, u32>,
    filter: Vec<(usize, Value)>,
}

impl<'a> ColProbe<'a> {
    pub(super) fn store(&self) -> &'a ColumnStore {
        self.store
    }
}

impl Iterator for ColProbe<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let cols = &self.store.cols;
        self.slots.by_ref().copied().find(|&slot| {
            debug_assert!(self.store.is_live(slot), "indexes only hold live slots");
            (self.filter.iter()).all(|(col, v)| cols[*col].matches_value(slot as usize, v))
        })
    }
}

/// Column-major storage for one relation: parallel column vectors indexed by
/// physical slot, a slot free-list, and the lookaside structures (key index,
/// tuple-id map, posting lists) that answer point lookups and probes. A
/// tuple's values are stored once, in the columns; every index holds slot
/// numbers. A slot is live when the tuple-id map points its id at it.
#[derive(Debug, Clone)]
pub(super) struct ColumnStore {
    /// The relation every stored tuple belongs to (the table's own).
    rel: Sym,
    schema: Arc<RelationSchema>,
    /// The columns that carry posting lists, ascending: the ones some plan
    /// of the program probes, or all of them for a table built without one.
    indexed: Arc<Vec<usize>>,
    /// Per-slot content-addressed tuple id (parallel to the columns).
    ids: Vec<TupleId>,
    /// Per-slot supporting derivations.
    derivs: Vec<Few<Derivation>>,
    /// One column per attribute, each with `ids.len()` physical slots. Empty
    /// until the first tuple arrives: an empty table owns no heap block.
    cols: Vec<Column>,
    /// Dead slots available for reuse (keeps `TupleId`-addressed state and
    /// the posting lists stable across churn instead of shifting slots).
    free: Vec<u32>,
    /// The live slots in primary-key order (the table's iteration order),
    /// compared through the columns by [`ColumnStore::find`].
    by_key: Vec<u32>,
    /// Tuple id -> slot (provenance queries and cascade deletions address
    /// tuples by id).
    by_id: IdMap<TupleId, u32>,
    /// The posting lists of `indexed[i]`, parallel to it; allocated with
    /// `cols`.
    postings: Vec<Postings>,
}

impl ColumnStore {
    pub(super) fn new(rel: Sym, schema: Arc<RelationSchema>, indexed: Arc<Vec<usize>>) -> Self {
        debug_assert!(indexed.iter().all(|c| *c < schema.arity));
        debug_assert!(indexed.windows(2).all(|w| w[0] < w[1]));
        ColumnStore {
            rel,
            schema,
            indexed,
            ids: Vec::new(),
            derivs: Vec::new(),
            cols: Vec::new(),
            free: Vec::new(),
            by_key: Vec::new(),
            by_id: IdMap::default(),
            postings: Vec::new(),
        }
    }

    pub(super) fn relation(&self) -> Sym {
        self.rel
    }

    pub(super) fn arity(&self) -> usize {
        self.schema.arity
    }

    pub(super) fn len(&self) -> usize {
        self.by_key.len()
    }

    /// The live slots in primary-key order.
    pub(super) fn slots(&self) -> std::slice::Iter<'_, u32> {
        self.by_key.iter()
    }

    pub(super) fn slot_of_id(&self, id: TupleId) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    pub(super) fn id_at(&self, slot: u32) -> TupleId {
        self.ids[slot as usize]
    }

    pub(super) fn derivations_at(&self, slot: u32) -> &[Derivation] {
        &self.derivs[slot as usize]
    }

    pub(super) fn value_at(&self, slot: u32, col: usize) -> Value {
        self.cols[col].value_at(slot as usize)
    }

    pub(super) fn matches_at(&self, slot: u32, col: usize, v: &Value) -> bool {
        self.cols[col].matches_value(slot as usize, v)
    }

    fn is_live(&self, slot: u32) -> bool {
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
        let arity = self.schema.arity;
        let key_cols = &self.schema.key_cols;
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
        Tuple::stored(self.rel, values.collect(), self.ids[slot as usize])
    }

    /// See [`super::Table::add_derivation`].
    pub(super) fn add_derivation(&mut self, tuple: &Tuple, derivation: Derivation) -> Membership {
        // Every column gets a value per slot, or the slots fall out of step.
        assert_eq!(
            tuple.values().len(),
            self.schema.arity,
            "tuple arity does not match relation `{}`",
            self.schema.name
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

    /// See [`super::Table::remove_derivation`].
    pub(super) fn remove_derivation(
        &mut self,
        tuple: &Tuple,
        derivation: &Derivation,
    ) -> Membership {
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
            let schema = &self.schema;
            self.cols = (0..schema.arity)
                .map(|c| match schema.is_addr(c) {
                    true => Column::Dict(Vec::new()),
                    false => Column::Int(Vec::new()),
                })
                .collect();
            self.postings = (self.indexed.iter())
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
        for (&col, postings) in self.indexed.iter().zip(&mut self.postings) {
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
        for (&col, postings) in self.indexed.iter().zip(&mut self.postings) {
            match (postings, &self.cols[col]) {
                (Postings::Code(lists), Column::Dict(xs)) => unlist(lists, xs[slot as usize], slot),
                (Postings::Value(lists), column) => {
                    unlist(lists, column.value_at(slot as usize), slot)
                }
                (Postings::Code(_), _) => unreachable!("an address column stays one"),
            }
        }
    }

    /// See [`super::Table::probe`]. `None` when some bound value is carried
    /// by no stored tuple.
    ///
    /// Every posting list holds its slots in the order they were indexed and
    /// the probe verifies every residual bound column, so whichever indexed
    /// column anchors a probe, the candidates are the same subsequence of
    /// the same order.
    pub(super) fn probe(&self, bound_cols: &[(usize, Value)]) -> Option<ColProbe<'_>> {
        let mut anchor: Option<(usize, &[u32])> = None;
        let mut filter = bound_cols.to_vec();
        for (pos, (col, value)) in bound_cols.iter().enumerate() {
            // No column yet means no tuple yet.
            self.cols.get(*col)?;
            if let Ok(i) = self.indexed.binary_search(col) {
                let slots: &[u32] = match &self.postings[i] {
                    Postings::Code(lists) => lists.get(&dict_code(value)?),
                    Postings::Value(lists) => lists.get(value),
                }?;
                if anchor.is_none_or(|(_, best)| slots.len() < best.len()) {
                    anchor = Some((pos, slots));
                }
            }
        }
        let slots = match anchor {
            Some((pos, slots)) => {
                filter.remove(pos);
                slots.iter()
            }
            None => {
                // Plans bind indexed columns only (`CompiledProgram::tables`
                // is computed from them), so this is a caller outside the
                // plans: a key-order scan, filtered.
                debug_assert!(
                    bound_cols.is_empty(),
                    "probe of `{}` binds no indexed column: {:?}",
                    self.schema.name,
                    bound_cols.iter().map(|(c, _)| c).collect::<Vec<_>>()
                );
                self.by_key.iter()
            }
        };
        Some(ColProbe {
            store: self,
            slots,
            filter,
        })
    }

    /// Charge the table's heap to its owners: `table.ids`,
    /// `table.derivations` (spilled lists and input lists),
    /// `table.columns` (the overflow column's values included),
    /// `table.key_index`, `table.by_id`, `table.postings` (keys and spilled
    /// lists included) and `table.slots` (the free list).
    pub(super) fn heap(&self, census: &mut Census) {
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
