//! Tuple storage: per-relation tables with derivation tracking, and the
//! per-node database that holds them beside the outbox of remote heads and
//! the reverse dependency index.
//!
//! Every stored tuple carries the multiset of **derivations** that currently
//! support it. A derivation is either the distinguished *base* derivation
//! (the tuple was inserted by the environment — a link report, a received
//! trace event, ...) or a rule firing identified by the rule name, the node
//! where the rule executed and the identifiers of the input tuples. A tuple is
//! *present* while it has at least one supporting derivation; when the last
//! derivation is retracted the tuple disappears and the deletion cascades
//! through the reverse-dependency index. This is exactly the information the
//! ExSPAN provenance graph records, which is why NetTrails can reuse the same
//! machinery for both incremental maintenance and provenance.
//!
//! A table stores tuples of its own relation. A tuple derived here for
//! another node is not stored in any table: the [`Database`] remembers it in
//! its **outbox**, a map from tuple id to [`OutboxEntry`] (tuple, destination,
//! derivations) that nothing probes and nothing names as a relation. The
//! dependency index says of each dependent whether it is stored or in the
//! outbox.
//!
//! ## Table layout
//!
//! A [`Table`] stores its tuples column-major (module `columnar`): one
//! dictionary-encoded `u32` column per address column of the schema (the
//! dictionary *is* the process-global intern pool, so encoding is free), a
//! plain `Vec<i64>` column per other attribute while it holds integers only,
//! and a `Vec<Value>` overflow column for everything else (fractions,
//! strings, lists, mixed types). A slot free-list keeps physical slots
//! stable across churn. The columns hold the only copy
//! of a tuple's values: the primary-key index is a vector of live slot
//! numbers kept in key order and compared through the columns, and the
//! secondary indexes are posting lists of slot numbers. Join probes verify
//! bound columns directly against the contiguous column vectors — no
//! per-candidate pointer chase and no per-candidate allocation (see
//! [`tuple_materializations`]).
//!
//! A table carries posting lists on its **indexed columns** only. For an
//! engine's table those are the columns some plan of the compiled program
//! probes ([`TableSpec::probed`], computed once per program); a table built
//! without a program indexes every column.
//!
//! [`Table::probe`] anchors on the first strictly-smallest posting list
//! among the indexed bound columns; posting lists append on insert and
//! compact on remove, so whichever column anchors, the candidates are the
//! same subsequence of one order. A probe that binds nothing iterates in
//! primary-key order, and every bound column — posting-list key or residual
//! — matches with `==`, the one equality of [`crate::value`]. Storage only
//! meets tuples that fit their schema ([`RelationSchema::check`]): the
//! engine lets no other in.
//!
//! Neither a table nor a database has a serialized form. A snapshot carries
//! a node's tuples, never its storage, so a table is filled only through
//! [`Table::add_derivation`] and its indexes are never rebuilt from bytes.

mod columnar;

use crate::catalog::RelationSchema;
use crate::few::Few;
use crate::tuple::{Tuple, TupleId};
use crate::value::{IdMap, NodeId, Sym, Value};
use columnar::{ColProbe, ColumnStore};
use nt_intern::heap::{Census, Heap};
use std::sync::Arc;

pub use columnar::tuple_materializations;

/// The rule name used for base (externally inserted) tuples.
pub const BASE_RULE: &str = "__base";

/// The interned [`BASE_RULE`] symbol (memoized — callers on the firing hot
/// path compare handles with integer equality, no pool lookup).
pub fn base_rule_sym() -> Sym {
    static BASE: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
    *BASE.get_or_init(|| Sym::new(BASE_RULE))
}

/// One derivation supporting a tuple. Rule and node are interned handles and
/// the input-id list is shared, so a `Derivation` clone copies three machine
/// words and bumps a count: the firing, the provenance `ruleExec`, the outbox
/// and the shipped record of one derivation hold one list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Derivation {
    /// Rule that fired (or [`BASE_RULE`]).
    pub rule: Sym,
    /// Node on which the rule executed.
    pub node: NodeId,
    /// Identifiers of the body tuples that fed the firing, in body order. An
    /// empty list is `Arc::default()`, which every empty list shares.
    pub inputs: Arc<[TupleId]>,
}

impl Derivation {
    /// The base derivation for externally inserted tuples at `node`.
    pub fn base(node: impl Into<NodeId>) -> Self {
        Derivation {
            rule: base_rule_sym(),
            node: node.into(),
            inputs: Arc::default(),
        }
    }

    /// True for base derivations.
    pub fn is_base(&self) -> bool {
        self.rule == base_rule_sym()
    }

    /// Wire size of the derivation in the interned encoding: fixed-width rule
    /// and node handles, a 4-byte input count and 8 bytes per input id. A
    /// shipped delta always carries its derivation (the receiving engine
    /// stores it for retraction), so traffic accounting must price it.
    pub fn wire_size(&self) -> usize {
        Sym::WIRE_SIZE + NodeId::WIRE_SIZE + 4 + 8 * self.inputs.len()
    }
}

/// Outcome of adding or removing a derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Membership {
    /// The tuple became present (0 -> 1 derivations) — an insertion delta.
    Appeared,
    /// The tuple was already present and gained a *new* alternative
    /// derivation. No membership change, but the provenance graph grows.
    AddedDerivation,
    /// The tuple was already present and lost one of several derivations.
    RemovedDerivation,
    /// Nothing changed (the derivation to add was already recorded).
    Unchanged,
    /// The tuple lost its last derivation — a deletion delta.
    Disappeared,
    /// Adding a tuple displaced an older tuple with the same primary key
    /// (update-in-place semantics of `materialize`). Carries the displaced
    /// tuple.
    Replaced(Tuple),
    /// The derivation to remove was not present / the tuple was unknown.
    NotFound,
}

/// A borrowed handle to one stored tuple: its table's columns and its slot.
/// Probe candidates, point lookups and table iteration all yield
/// `TupleRef`s; the join kernels match columns through it without
/// materializing a `Tuple` until a candidate actually survives.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    store: &'a ColumnStore,
    slot: u32,
}

impl<'a> TupleRef<'a> {
    /// The relation the tuple belongs to.
    pub fn relation(&self) -> Sym {
        self.store.relation()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.store.arity()
    }

    /// The content-addressed tuple identifier (precomputed per slot — no
    /// hashing).
    pub fn id(&self) -> TupleId {
        self.store.id_at(self.slot)
    }

    /// The supporting derivations.
    pub fn derivations(&self) -> &'a [Derivation] {
        self.store.derivations_at(self.slot)
    }

    /// Decode one attribute as an owned value (allocation-free for
    /// dictionary and numeric columns).
    pub fn value(&self, col: usize) -> Value {
        self.store.value_at(self.slot, col)
    }

    /// Whether one attribute `==` `v`, without materializing.
    pub fn matches(&self, col: usize, v: &Value) -> bool {
        self.store.matches_at(self.slot, col, v)
    }

    /// Materialize an owned tuple (counted — see
    /// [`tuple_materializations`]).
    pub fn to_tuple(&self) -> Tuple {
        self.store.tuple_at(self.slot)
    }
}

/// Iterator returned by [`Table::probe`]. Yields exactly the stored tuples
/// matching **all** bound columns, in posting-list order (key order for a
/// probe that binds nothing).
pub struct ProbeIter<'a>(Option<ColProbe<'a>>);

impl<'a> Iterator for ProbeIter<'a> {
    type Item = TupleRef<'a>;

    fn next(&mut self) -> Option<TupleRef<'a>> {
        let probe = self.0.as_mut()?;
        let store = probe.store();
        probe.next().map(|slot| TupleRef { store, slot })
    }
}

/// Iterator over a table's live tuples in primary-key order.
pub struct TableIter<'a> {
    store: &'a ColumnStore,
    slots: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for TableIter<'a> {
    type Item = TupleRef<'a>;

    fn next(&mut self) -> Option<TupleRef<'a>> {
        let store = self.store;
        self.slots.next().map(|&slot| TupleRef { store, slot })
    }
}

/// What a compiled program fixes about one relation's table. Computed once
/// per program ([`crate::CompiledProgram::tables`]) and shared, by reference
/// count, with the table of every engine that runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// The relation, interned.
    pub relation: Sym,
    /// Its schema.
    pub schema: Arc<RelationSchema>,
    /// The columns some plan of the program probes, ascending: the bound
    /// columns of every join step, negated-atom check and aggregate group
    /// scan over this relation. Only these carry posting lists.
    pub probed: Arc<Vec<usize>>,
}

/// A single relation's storage (see the module documentation for the
/// layout).
#[derive(Debug, Clone)]
pub struct Table {
    /// Schema of the relation.
    pub schema: Arc<RelationSchema>,
    store: ColumnStore,
}

impl Table {
    /// Create an empty table indexing every column.
    pub fn new(schema: impl Into<Arc<RelationSchema>>) -> Self {
        let schema = schema.into();
        let every_column: Vec<usize> = (0..schema.arity).collect();
        Table::indexing(schema, &every_column)
    }

    /// Create an empty table that keeps posting lists on `columns` only. A
    /// probe must bind one of them or nothing: one that binds nothing is a
    /// key-order scan.
    pub fn indexing(schema: impl Into<Arc<RelationSchema>>, columns: &[usize]) -> Self {
        let schema = schema.into();
        let mut columns: Vec<usize> = columns
            .iter()
            .copied()
            .filter(|c| *c < schema.arity)
            .collect();
        columns.sort_unstable();
        columns.dedup();
        Table::of(Sym::new(&schema.name), schema, Arc::new(columns))
    }

    /// `relation` is `Sym::new(&schema.name)`; `indexed` is ascending and
    /// within the arity.
    fn of(relation: Sym, schema: Arc<RelationSchema>, indexed: Arc<Vec<usize>>) -> Self {
        let store = ColumnStore::new(relation, schema.clone(), indexed);
        Table { schema, store }
    }

    /// Iterate over the candidate tuples for a join probe with the given
    /// bound columns. The most selective posting list among the bound
    /// columns anchors the probe and the remaining bound columns are
    /// verified against the stored columns directly, so the iterator yields
    /// exactly the tuples matching every bound column. With no bound
    /// columns it is a key-order scan. A bound value absent from its
    /// posting index short-circuits to an empty iterator.
    pub fn probe<'a>(&'a self, bound_cols: &[(usize, Value)]) -> ProbeIter<'a> {
        ProbeIter(self.store.probe(bound_cols))
    }

    /// Look up a stored tuple by its content-addressed identifier.
    pub fn get_by_id(&self, id: TupleId) -> Option<TupleRef<'_>> {
        let store = &self.store;
        store.slot_of_id(id).map(|slot| TupleRef { store, slot })
    }

    /// Number of stored (present) tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no tuple is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over present tuples in deterministic (key) order.
    pub fn iter(&self) -> TableIter<'_> {
        TableIter {
            store: &self.store,
            slots: self.store.slots(),
        }
    }

    /// Look up the stored entry for an exact tuple: equal tuples have one id.
    pub fn get(&self, tuple: &Tuple) -> Option<TupleRef<'_>> {
        self.get_by_id(tuple.id())
    }

    /// True when the exact tuple is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.get(tuple).is_some()
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
            tuple.relation().as_str(),
            self.schema.name,
            "a table stores tuples of its own relation only"
        );
        self.store.add_derivation(tuple, derivation)
    }

    /// Remove one derivation of `tuple` (matching exactly). Returns
    /// [`Membership::Disappeared`] when that was the last derivation.
    pub fn remove_derivation(&mut self, tuple: &Tuple, derivation: &Derivation) -> Membership {
        self.store.remove_derivation(tuple, derivation)
    }

    /// All tuples currently present, cloned (snapshot order is deterministic).
    pub fn tuples(&self) -> Vec<Tuple> {
        self.iter().map(|r| r.to_tuple()).collect()
    }

    /// Charge the table's heap to its `table.*` owners (the schema is the
    /// program's).
    pub fn heap(&self, census: &mut Census) {
        self.store.heap(census);
    }

    /// Resident bytes of the table's payload: column vectors, slot ids,
    /// posting lists and derivations. `ntbench` reports it as
    /// `runtime.storage_bytes`.
    pub fn storage_bytes(&self) -> usize {
        self.store.resident_bytes()
    }
}

/// One remote head in a [`Database`]'s outbox: a tuple this node derived for
/// another node, where it was shipped, and the local derivations behind it —
/// what a later input deletion needs to retract it there.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboxEntry {
    /// The shipped head tuple.
    pub tuple: Tuple,
    /// The node the tuple lives at.
    pub destination: NodeId,
    /// The derivations shipped and not retracted since, in emission order:
    /// nearly always one, held inline.
    pub derivations: Few<Derivation>,
}

/// Where a dependent of the dependency index is held. Ordered: the cascade
/// visits outbox dependents before stored ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Held {
    Outbox,
    Table,
}

/// One tuple with derivations that used a given input
/// ([`Database::take_dependents`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Dependent {
    /// Where a remote head was shipped; `None` for a tuple stored in one of
    /// this node's tables.
    pub destination: Option<NodeId>,
    /// The dependent tuple.
    pub tuple: Tuple,
    /// Its derivations that used the input, in recorded order.
    pub derivations: Vec<Derivation>,
}

impl Dependent {
    /// The dependent, if one of `derivations` used `input`. An index entry
    /// outlives the derivation it was recorded for, so there may be none;
    /// the tuple is materialized only when there is one.
    fn on(
        input: TupleId,
        destination: Option<NodeId>,
        derivations: &[Derivation],
        tuple: impl FnOnce() -> Tuple,
    ) -> Option<Dependent> {
        let derivations: Vec<Derivation> = derivations
            .iter()
            .filter(|d| d.inputs.contains(&input))
            .cloned()
            .collect();
        (!derivations.is_empty()).then(|| Dependent {
            destination,
            tuple: tuple(),
            derivations,
        })
    }
}

/// One entry of the dependency index: where the dependent is held, its
/// relation and its id.
type DependentKey = (Held, Sym, TupleId);

/// The per-node database: one [`Table`] per relation, the outbox of remote
/// heads, and the reverse dependency index used for cascading deletions.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// Relation symbols in name order (maintained on register): iteration
    /// order, and the key of [`Database::table_sym`]. A
    /// program has a handful of relations, so the join hot path finds a
    /// table by comparing interned handles along one cache line — no hash,
    /// and none of the string compares `Sym`'s `Ord` would put in a search.
    order: Vec<Sym>,
    /// The table of `order[i]`. An engine that stores nothing owns this
    /// vector and `order`, and no other heap block.
    tables: Vec<Table>,
    /// Remote heads by tuple id. No join reads them, so they are not a
    /// table: no key order, no posting lists.
    outbox: IdMap<TupleId, OutboxEntry>,
    /// input tuple id -> (where held, relation, derived tuple id) of the
    /// derivations that used it and that the engine's cascade retracts (a
    /// monotonic rule ran them here, so every input is stored here): a tuple
    /// in `tables` or an entry of `outbox`. Each list is a set, kept sorted
    /// by the handles' integer values; [`Database::take_dependents`] puts it
    /// in name order.
    dependents: IdMap<TupleId, Few<DependentKey>>,
}

impl Database {
    /// Create an empty database with the given relation schemas (tables
    /// indexing every column).
    pub fn new(schemas: impl IntoIterator<Item = RelationSchema>) -> Self {
        let mut db = Database::default();
        for s in schemas {
            db.register(s);
        }
        db
    }

    /// Create the empty database of an engine running a compiled program:
    /// one table per [`TableSpec`] (in relation-name order, as
    /// [`crate::CompiledProgram::tables`] lists them), sharing the program's
    /// schemas and indexing the columns its plans probe.
    pub fn for_program(specs: &[TableSpec]) -> Self {
        debug_assert!(specs.windows(2).all(|w| w[0].relation < w[1].relation));
        Database {
            order: specs.iter().map(|spec| spec.relation).collect(),
            tables: specs
                .iter()
                .map(|spec| {
                    let (schema, probed) = (spec.schema.clone(), spec.probed.clone());
                    Table::of(spec.relation, schema, probed)
                })
                .collect(),
            ..Database::default()
        }
    }

    /// Register an additional relation (idempotent). Its table indexes
    /// every column.
    pub fn register(&mut self, schema: RelationSchema) {
        let sym = Sym::new(&schema.name);
        if self.position(sym).is_none() {
            let pos = self.order.partition_point(|s| *s < sym);
            self.order.insert(pos, sym);
            self.tables.insert(pos, Table::new(schema));
        }
    }

    /// Where `relation`'s table sits in `tables` (and `order`).
    fn position(&self, relation: Sym) -> Option<usize> {
        self.order.iter().position(|s| *s == relation)
    }

    /// Access a table by (boundary) relation name.
    pub fn table(&self, relation: &str) -> Option<&Table> {
        self.table_sym(Sym::new(relation))
    }

    /// Access a table by interned relation symbol (the hot-path lookup).
    pub fn table_sym(&self, relation: Sym) -> Option<&Table> {
        self.position(relation).map(|i| &self.tables[i])
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, relation: &str) -> Option<&mut Table> {
        self.table_mut_sym(Sym::new(relation))
    }

    /// Mutable access to a table by interned symbol.
    pub fn table_mut_sym(&mut self, relation: Sym) -> Option<&mut Table> {
        self.position(relation).map(|i| &mut self.tables[i])
    }

    /// Iterate over all tables, in relation-name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Iterate over `(relation symbol, table)` pairs in relation-name order
    /// (saves callers re-interning `schema.name`).
    pub fn tables_with_syms(&self) -> impl Iterator<Item = (Sym, &Table)> {
        self.order.iter().copied().zip(&self.tables)
    }

    /// Record `dependent` under `input` in the dependency index.
    fn add_dependent(&mut self, input: TupleId, dependent: DependentKey) {
        let by_handle = |(held, relation, id): &DependentKey| (*held, relation.index(), *id);
        let dependents = self.dependents.entry(input).or_default();
        let at = dependents.binary_search_by_key(&by_handle(&dependent), by_handle);
        if let Err(pos) = at {
            dependents.insert(pos, dependent);
        }
    }

    /// Record that `derivation` derives the remote head `tuple` living at
    /// `destination`, and index its inputs when the dependency cascade
    /// retracts it (`cascaded`). True when the (tuple, derivation) pair is
    /// new to the outbox: the caller ships it. A repeated pair is recorded,
    /// and shipped, once.
    pub fn outbox_insert(
        &mut self,
        tuple: &Tuple,
        destination: NodeId,
        derivation: &Derivation,
        cascaded: bool,
    ) -> bool {
        let id = tuple.id();
        let entry = self.outbox.entry(id).or_insert_with(|| OutboxEntry {
            tuple: tuple.clone(),
            destination,
            derivations: Few::default(),
        });
        if entry.derivations.contains(derivation) {
            return false;
        }
        entry.derivations.push(derivation.clone());
        if cascaded {
            for input in derivation.inputs.iter() {
                self.add_dependent(*input, (Held::Outbox, tuple.relation(), id));
            }
        }
        true
    }

    /// Forget one derivation of the remote head `id`; the entry goes with
    /// its last derivation. True when the pair was there: the caller ships
    /// the retraction.
    pub fn outbox_remove(&mut self, id: TupleId, derivation: &Derivation) -> bool {
        let Some(entry) = self.outbox.get_mut(&id) else {
            return false;
        };
        let Some(pos) = entry.derivations.iter().position(|d| d == derivation) else {
            return false;
        };
        entry.derivations.remove(pos);
        if entry.derivations.is_empty() {
            self.outbox.remove(&id);
        }
        true
    }

    /// Number of remote heads currently held in the outbox.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// The outbox entries of one relation, in (values, id) order.
    pub fn outbox_of(&self, relation: Sym) -> Vec<&OutboxEntry> {
        let mut entries: Vec<(&TupleId, &OutboxEntry)> = self
            .outbox
            .iter()
            .filter(|(_, e)| e.tuple.relation() == relation)
            .collect();
        entries.sort_by(|(a_id, a), (b_id, b)| {
            (a.tuple.values(), a_id).cmp(&(b.tuple.values(), b_id))
        });
        entries.into_iter().map(|(_, e)| e).collect()
    }

    /// Record that `derived` (stored in the table of `relation`) has a
    /// derivation using `input`.
    pub fn index_dependency(&mut self, input: TupleId, relation: Sym, derived: TupleId) {
        self.add_dependent(input, (Held::Table, relation, derived));
    }

    /// Tuples that have a derivation using `input`, which has gone: outbox
    /// entries first, then stored tuples, each group in (relation name,
    /// tuple id) order. The index forgets `input`.
    pub fn take_dependents(&mut self, input: TupleId) -> Vec<Dependent> {
        let Some(deps) = self.dependents.remove(&input) else {
            return Vec::new();
        };
        let mut deps = deps.to_vec();
        deps.sort();
        let mut out = Vec::new();
        for (held, relation, id) in deps {
            out.extend(match held {
                Held::Outbox => self.outbox.get(&id).and_then(|e| {
                    let at = Some(e.destination);
                    Dependent::on(input, at, &e.derivations, || e.tuple.clone())
                }),
                Held::Table => self
                    .table_sym(relation)
                    .and_then(|table| table.get_by_id(id))
                    .and_then(|r| Dependent::on(input, None, r.derivations(), || r.to_tuple())),
            });
        }
        out
    }

    /// Charge the database's heap: each table to its `table.*` owners, the
    /// outbox (entries, tuples, spilled derivation lists, input lists) to
    /// `engine.outbox`, the dependency index to `engine.dependents`, and the
    /// table list to `engine.shell`.
    pub fn heap(&self, census: &mut Census) {
        self.tables.iter().for_each(|table| table.heap(census));
        census.add(
            "engine.shell",
            Heap::vec(&self.order) + Heap::vec(&self.tables),
        );
        census.add("engine.outbox", Heap::map(&self.outbox));
        for entry in self.outbox.values() {
            entry.tuple.heap(census, "engine.outbox");
            census.add("engine.outbox", entry.derivations.heap());
            for d in &entry.derivations {
                census.shared("engine.outbox", &d.inputs);
            }
        }
        let lists: Heap = self.dependents.values().map(Few::heap).sum();
        census.add("engine.dependents", Heap::map(&self.dependents) + lists);
    }

    /// Resident bytes: every table (see [`Table::storage_bytes`]) plus the
    /// outbox, an entry priced at the wire sizes of its tuple and
    /// derivations.
    pub fn storage_bytes(&self) -> usize {
        let tables: usize = self.tables.iter().map(Table::storage_bytes).sum();
        let outbox: usize = (self.outbox.values())
            .map(|e| {
                e.tuple.wire_size()
                    + e.derivations
                        .iter()
                        .map(Derivation::wire_size)
                        .sum::<usize>()
            })
            .sum();
        tables + outbox
    }

    /// All tuples of a relation (empty vec when the relation is unknown).
    pub fn relation_tuples(&self, relation: &str) -> Vec<Tuple> {
        self.table(relation).map(|t| t.tuples()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Database {
        /// Every (input, dependent's relation) pair of the dependency index.
        pub(crate) fn dependency_entries(&self) -> impl Iterator<Item = (TupleId, Sym)> + '_ {
            let entries = self.dependents.iter();
            entries.flat_map(|(input, deps)| deps.iter().map(|(_, rel, _)| (*input, *rel)))
        }
    }

    /// `link(@S,D,C)` holds addresses in its first two columns, every other
    /// test relation in its first.
    fn schema(name: &str, arity: usize, keys: Vec<usize>) -> RelationSchema {
        RelationSchema {
            name: name.into(),
            arity,
            location_col: 0,
            addr_cols: if name == "link" { 0b11 } else { 0b1 },
            key_cols: keys,
            is_base: true,
            lifetime: None,
        }
    }

    fn link(s: &str, d: &str, c: i64) -> Tuple {
        Tuple::new("link", vec![Value::addr(s), Value::addr(d), Value::Int(c)])
    }

    #[test]
    fn add_and_remove_derivations_track_membership() {
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        let tup = link("a", "b", 1);
        let d1 = Derivation::base("a");
        let d2 = Derivation {
            rule: "r1".into(),
            node: "a".into(),
            inputs: [TupleId(42)].into(),
        };
        assert_eq!(t.add_derivation(&tup, d1.clone()), Membership::Appeared);
        assert_eq!(
            t.add_derivation(&tup, d2.clone()),
            Membership::AddedDerivation
        );
        // Duplicate derivations are ignored.
        assert_eq!(t.add_derivation(&tup, d2.clone()), Membership::Unchanged);
        assert_eq!(t.get(&tup).unwrap().derivations().len(), 2);
        assert_eq!(t.get_by_id(tup.id()).unwrap().to_tuple(), tup);
        assert_eq!(
            t.remove_derivation(&tup, &d1),
            Membership::RemovedDerivation
        );
        assert_eq!(t.remove_derivation(&tup, &d1), Membership::NotFound);
        assert_eq!(t.remove_derivation(&tup, &d2), Membership::Disappeared);
        assert!(t.is_empty());
        assert!(t.get_by_id(tup.id()).is_none());
    }

    #[test]
    fn update_in_place_replaces_by_key() {
        // keys(1,2): the cost column is not part of the key.
        let mut t = Table::new(schema("link", 3, vec![0, 1]));
        assert_eq!(
            t.add_derivation(&link("a", "b", 1), Derivation::base("a")),
            Membership::Appeared
        );
        match t.add_derivation(&link("a", "b", 7), Derivation::base("a")) {
            Membership::Replaced(old) => assert_eq!(old, link("a", "b", 1)),
            other => panic!("expected replacement, got {other:?}"),
        }
        assert_eq!(t.len(), 1);
        assert!(t.contains(&link("a", "b", 7)));
        assert!(!t.contains(&link("a", "b", 1)));
    }

    /// Two handles and a shared input list: 24 bytes (32 while the list was
    /// a `Vec`). Every base derivation shares one empty list.
    #[test]
    fn a_derivation_is_three_words_and_base_ones_share_their_list() {
        assert_eq!(std::mem::size_of::<Derivation>(), 24);
        let (a, b) = (Derivation::base("a"), Derivation::base("b"));
        assert!(Arc::ptr_eq(&a.inputs, &b.inputs));
    }

    #[test]
    fn database_dependency_index_round_trip() {
        let mut db = Database::new(vec![
            schema("link", 3, vec![0, 1, 2]),
            schema("cost", 3, vec![0, 1, 2]),
        ]);
        let base = link("a", "b", 1);
        let derived = Tuple::new(
            "cost",
            vec![Value::addr("a"), Value::addr("b"), Value::Int(1)],
        );
        db.table_mut("link")
            .unwrap()
            .add_derivation(&base, Derivation::base("a"));
        let deriv = Derivation {
            rule: "r1".into(),
            node: "a".into(),
            inputs: [base.id()].into(),
        };
        db.table_mut("cost")
            .unwrap()
            .add_derivation(&derived, deriv.clone());
        db.index_dependency(base.id(), Sym::new("cost"), derived.id());

        assert_eq!(
            db.take_dependents(base.id()),
            vec![Dependent {
                destination: None,
                tuple: derived,
                derivations: vec![deriv],
            }]
        );
        // Taken once: the index forgets the input.
        assert!(db.take_dependents(base.id()).is_empty());
    }

    /// A rule firing at node `a` over `inputs`.
    fn fired(rule: &str, inputs: &[&Tuple]) -> Derivation {
        Derivation {
            rule: rule.into(),
            node: "a".into(),
            inputs: inputs.iter().map(|t| t.id()).collect(),
        }
    }

    fn head(relation: &str, d: &str, c: Value) -> Tuple {
        Tuple::new(relation, vec![Value::addr(d), c])
    }

    #[test]
    fn outbox_ships_a_pair_once_and_drops_an_entry_with_its_last_derivation() {
        let mut db = Database::default();
        let (e, f) = (link("a", "b", 3), link("a", "b", 4));
        let h = head("h", "b", Value::Int(3));
        let (d1, d2) = (fired("r1", &[&e]), fired("r2", &[&f]));
        assert!(db.outbox_insert(&h, "b".into(), &d1, true));
        // A repeated derivation is not shipped twice; a second one is.
        assert!(!db.outbox_insert(&h, "b".into(), &d1, true));
        assert!(db.outbox_insert(&h, "b".into(), &d2, true));
        assert_eq!(db.outbox_len(), 1);
        // The same head spelled with a double is the same entry.
        let h_double = head("h", "b", Value::Double(3.0));
        assert_eq!((&h, h.id()), (&h_double, h_double.id()));
        assert!(!db.outbox_insert(&h_double, "b".into(), &d1, true));
        assert_eq!(db.outbox_len(), 1);

        // Removing an unknown pair ships nothing and changes nothing.
        assert!(!db.outbox_remove(head("h", "b", Value::Double(3.5)).id(), &d1));
        assert!(!db.outbox_remove(h.id(), &fired("r3", &[&e])));
        assert_eq!(
            *db.outbox_of("h".into())[0].derivations,
            [d1.clone(), d2.clone()]
        );
        // Removing the last derivation drops the entry.
        assert!(db.outbox_remove(h_double.id(), &d1));
        assert_eq!(db.outbox_len(), 1);
        assert!(db.outbox_remove(h.id(), &d2));
        assert_eq!(db.outbox_len(), 0);
        assert!(!db.outbox_remove(h.id(), &d2));
        // The index entries outlive the derivations and yield nothing.
        assert!(db.take_dependents(e.id()).is_empty());
    }

    #[test]
    fn dependents_come_outbox_first_each_group_in_relation_then_id_order() {
        let mut db = Database::new(vec![
            schema("aa", 2, vec![0, 1]),
            schema("zz", 2, vec![0, 1]),
        ]);
        let input = link("a", "b", 1);
        let deriv = fired("r1", &[&input]);
        // Stored dependents in relations sorting before and after the
        // outbox ones, two per relation.
        let mut stored = Vec::new();
        for relation in ["zz", "aa"] {
            for c in [1, 2] {
                let t = head(relation, "a", Value::Int(c));
                db.table_mut(relation)
                    .unwrap()
                    .add_derivation(&t, deriv.clone());
                db.index_dependency(input.id(), relation.into(), t.id());
                stored.push(t);
            }
        }
        let mut shipped = Vec::new();
        for relation in ["mm", "bb"] {
            for c in [1, 2] {
                let t = head(relation, "b", Value::Int(c));
                assert!(db.outbox_insert(&t, "b".into(), &deriv, true));
                shipped.push(t);
            }
        }
        // One more outbox derivation that does not use the input, and one
        // that does but that the cascade does not retract.
        let other = head("bb", "b", Value::Int(9));
        db.outbox_insert(&other, "b".into(), &fired("r1", &[&other]), true);
        let recomputed = head("cc", "b", Value::Int(1));
        db.outbox_insert(&recomputed, "b".into(), &fired("r2", &[&input]), false);

        let order = |ts: &mut Vec<Tuple>| ts.sort_by_key(|t| (t.relation(), t.id()));
        order(&mut shipped);
        order(&mut stored);
        let got = db.take_dependents(input.id());
        assert_eq!(got.len(), 8);
        for (dependent, want) in got.iter().zip(shipped.iter().chain(&stored)) {
            assert_eq!(dependent.tuple, *want);
            assert_eq!(dependent.tuple.id(), want.id());
            assert_eq!(dependent.derivations, std::slice::from_ref(&deriv));
        }
        assert!(got[..4].iter().all(|d| d.destination == Some("b".into())));
        assert!(got[4..].iter().all(|d| d.destination.is_none()));
    }

    #[test]
    fn relation_tuples_of_unknown_relation_is_empty() {
        let db = Database::default();
        assert!(db.relation_tuples("nope").is_empty());
    }

    #[test]
    fn probe_uses_the_most_selective_index() {
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        for i in 0..10 {
            t.add_derivation(&link("a", &format!("n{i}"), i), Derivation::base("a"));
        }
        t.add_derivation(&link("b", "n0", 99), Derivation::base("b"));

        // Column 0 = "a" matches 10 tuples; column 1 = "n3" matches 1.
        let candidates: Vec<_> = t
            .probe(&[(0, Value::addr("a")), (1, Value::addr("n3"))])
            .collect();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].to_tuple(), link("a", "n3", 3));

        // A single bound column still narrows to its posting list.
        assert_eq!(t.probe(&[(0, Value::addr("b"))]).count(), 1);
        // No bound columns: full scan.
        assert_eq!(t.probe(&[]).count(), 11);
        // A bound value absent from the index proves emptiness
        // immediately.
        assert_eq!(t.probe(&[(0, Value::addr("zz"))]).count(), 0);
    }

    #[test]
    fn probe_verifies_every_bound_column() {
        // The probe contract: candidates match ALL bound columns, not just
        // the anchor posting list (the vectorized kernel verifies the
        // residual columns against the column vectors).
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        t.add_derivation(&link("a", "x", 1), Derivation::base("a"));
        t.add_derivation(&link("a", "y", 2), Derivation::base("a"));
        t.add_derivation(&link("b", "x", 3), Derivation::base("b"));
        // Both columns have posting lists of length 2; only one tuple
        // matches both.
        let hits: Vec<_> = t
            .probe(&[(0, Value::addr("a")), (1, Value::addr("x"))])
            .map(|r| r.to_tuple())
            .collect();
        assert_eq!(hits, vec![link("a", "x", 1)]);
        // Residual verification on a numeric column too.
        assert_eq!(
            t.probe(&[(0, Value::addr("a")), (2, Value::Int(2))])
                .count(),
            1
        );
        assert_eq!(
            t.probe(&[(0, Value::addr("a")), (2, Value::Int(3))])
                .count(),
            0
        );
    }

    #[test]
    fn a_str_probe_never_finds_an_addr() {
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        t.add_derivation(&link("a", "b", 1), Derivation::base("a"));
        // Tuples carry addresses; a text of the same spelling is another
        // value, as a probe key and as a residual column.
        assert_eq!(t.probe(&[(0, Value::addr("a"))]).count(), 1);
        assert_eq!(t.probe(&[(0, Value::str("a"))]).count(), 0);
        assert_eq!(
            t.probe(&[(0, Value::addr("a")), (1, Value::str("b"))])
                .count(),
            0
        );
        // Outside address columns too.
        let mut obs = Table::new(schema("obs", 2, vec![0, 1]));
        let text = Tuple::new("obs", vec![Value::addr("a"), Value::str("b")]);
        obs.add_derivation(&text, Derivation::base("a"));
        assert_eq!(obs.probe(&[(1, Value::addr("b"))]).count(), 0);
        assert_eq!(obs.probe(&[(1, Value::str("b"))]).count(), 1);
    }

    #[test]
    fn probe_matches_int_and_double_interchangeably() {
        // Value's total order equates Int(2) and Double(2.0); the index
        // must agree with the scan path on such cross-type matches.
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        t.add_derivation(&link("a", "b", 2), Derivation::base("a"));
        let double_tuple = Tuple::new(
            "link",
            vec![Value::addr("a"), Value::addr("c"), Value::Double(3.0)],
        );
        t.add_derivation(&double_tuple, Derivation::base("a"));

        // Stored Int probed with an equal Double, and vice versa.
        assert_eq!(t.probe(&[(2, Value::Double(2.0))]).count(), 1);
        assert_eq!(t.probe(&[(2, Value::Int(3))]).count(), 1);
        // Non-integral doubles match nothing here.
        assert_eq!(t.probe(&[(2, Value::Double(2.5))]).count(), 0);
        // Lists compare elementwise, and one widens the integer column.
        let list_tuple = Tuple::new(
            "link",
            vec![
                Value::addr("z"),
                Value::addr("y"),
                Value::list(vec![Value::Double(1.0)]),
            ],
        );
        t.add_derivation(&list_tuple, Derivation::base("z"));
        assert_eq!(t.probe(&[(2, Value::list(vec![Value::Int(1)]))]).count(), 1);
        assert_eq!(t.probe(&[(2, Value::Double(2.0))]).count(), 1);
    }

    #[test]
    fn indexes_track_removals_and_replacements() {
        let mut t = Table::new(schema("link", 3, vec![0, 1]));
        t.add_derivation(&link("a", "b", 1), Derivation::base("a"));
        // Update-in-place: cost column changes, index entries must
        // follow.
        t.add_derivation(&link("a", "b", 7), Derivation::base("a"));
        assert_eq!(t.probe(&[(2, Value::Int(7))]).count(), 1);
        assert_eq!(t.probe(&[(2, Value::Int(1))]).count(), 0);
        t.remove_derivation(&link("a", "b", 7), &Derivation::base("a"));
        assert_eq!(t.probe(&[(0, Value::addr("a"))]).count(), 0);
    }

    #[test]
    fn columnar_slots_recycle_through_the_free_list() {
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        for i in 0..4 {
            t.add_derivation(&link("a", &format!("n{i}"), i), Derivation::base("a"));
        }
        t.remove_derivation(&link("a", "n1", 1), &Derivation::base("a"));
        t.remove_derivation(&link("a", "n2", 2), &Derivation::base("a"));
        assert_eq!(t.len(), 2);
        // Re-inserting reuses dead slots: the physical arena stays at 4.
        t.add_derivation(&link("b", "m1", 10), Derivation::base("b"));
        t.add_derivation(&link("b", "m2", 11), Derivation::base("b"));
        assert_eq!(t.store.arena(), (4, 0), "free slots were not reused");
        assert_eq!(t.store.len(), 4);
        assert_eq!(t.probe(&[(0, Value::addr("b"))]).count(), 2);
        assert_eq!(t.probe(&[(0, Value::addr("a"))]).count(), 2);
    }

    #[test]
    fn columnar_mixed_type_columns_promote_to_overflow() {
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        t.add_derivation(&link("a", "b", 2), Derivation::base("a"));
        // An integral column receiving a Double promotes to the overflow
        // column without corrupting the earlier value.
        let d = Tuple::new(
            "link",
            vec![Value::addr("a"), Value::addr("c"), Value::Double(2.5)],
        );
        t.add_derivation(&d, Derivation::base("a"));
        assert_eq!(t.probe(&[(2, Value::Int(2))]).count(), 1);
        assert_eq!(t.probe(&[(2, Value::Double(2.5))]).count(), 1);
        // Both tuples keep their exact variants (TupleIds intact).
        assert!(t.get_by_id(link("a", "b", 2).id()).is_some());
        assert!(t.get_by_id(d.id()).is_some());
    }

    #[test]
    fn probe_candidates_do_not_materialize_tuples() {
        // The vectorized probe kernel must not allocate per candidate:
        // scanning a posting list and verifying residual bound columns
        // touches only the column vectors. Materialization happens only
        // when a caller explicitly asks for the tuple.
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        for i in 0..256 {
            t.add_derivation(&link("a", &format!("n{i}"), i % 7), Derivation::base("a"));
        }
        let before = tuple_materializations();
        let mut seen = 0usize;
        for cand in t.probe(&[(0, Value::addr("a")), (2, Value::Int(3))]) {
            // Column matching is allocation-free too.
            assert!(cand.matches(0, &Value::addr("a")));
            assert!(cand.matches(2, &Value::Int(3)));
            assert!(!cand.matches(2, &Value::Int(4)));
            assert!(cand.id() != TupleId(0));
            seen += 1;
        }
        assert!(seen > 10, "probe must have real candidates to be a test");
        assert_eq!(
            tuple_materializations(),
            before,
            "iterating probe candidates materialized tuples"
        );
        // An explicit materialization is counted.
        let first = t.probe(&[(0, Value::addr("a"))]).next().unwrap().to_tuple();
        assert_eq!(first.relation().as_str(), "link");
        assert_eq!(tuple_materializations(), before + 1);
    }

    /// The price of the layout, term by term: per slot two 4 B address
    /// codes, one 8 B integer, an 8 B tuple id and a base derivation at its
    /// wire size (4 B rule, 4 B node, 4 B input count); 4 B per posting
    /// entry, one per indexed column per tuple. An overflow column prices
    /// each value at its wire size. (1,544 and 8 B more per 64 slots while a
    /// validity bitmap said which slots were live; the tuple-id map says
    /// it.)
    #[test]
    fn storage_bytes_reflect_columnar_layout() {
        let mut t = Table::new(schema("link", 3, vec![0, 1, 2]));
        assert_eq!(t.storage_bytes(), 0);
        for i in 0..32 {
            t.add_derivation(&link("a", &format!("n{i}"), i), Derivation::base("a"));
        }
        assert_eq!(Derivation::base("a").wire_size(), 12);
        let per_slot = 4 + 4 + 8 + 8 + 12;
        assert_eq!(t.storage_bytes(), 32 * per_slot + 4 * 3 * 32);
        assert_eq!(t.storage_bytes(), 1536);
        // A fraction widens the cost column to values: 32 integers and the
        // fraction at their wire sizes replace 32 x 8 B.
        let half = Tuple::new(
            "link",
            vec![Value::addr("a"), Value::addr("z"), Value::Double(0.5)],
        );
        t.add_derivation(&half, Derivation::base("a"));
        let values: usize = (0..32).map(|i| Value::Int(i).wire_size()).sum::<usize>()
            + Value::Double(0.5).wire_size();
        assert_eq!(
            t.storage_bytes(),
            33 * (4 + 4 + 8 + 12) + values + 4 * 3 * 33
        );
    }
}
