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
//! its **outbox**, a map from tuple id to [`OutboxEntry`] (tuple,
//! derivations) that nothing probes and nothing names as a relation. Where
//! an entry was shipped is not stored: it is the address in its tuple's
//! location column, the home the tuple was shipped to. The dependency index
//! says of each dependent whether it is stored or in the outbox.
//!
//! ## Table layout
//!
//! A [`Table`] is one relation's column store, and every fact the program
//! fixes about it — relation, schema, probed columns — is in its
//! [`TableSpec`], one allocation per program shared by that relation's table
//! on every engine. The table itself holds only its tuples, column-major:
//! one dictionary-encoded `u32` column per address column of the schema (the
//! dictionary *is* the process-global intern pool, so encoding is free), a
//! plain `Vec<i64>` column per other attribute while it holds integers only,
//! and a `Vec<Value>` overflow column for everything else (fractions,
//! strings, lists, mixed types); beside them, per physical slot, the tuple's
//! id and its derivations. A slot free-list keeps physical slots stable
//! across churn. The columns hold the only copy of a tuple's values: the
//! primary-key index is a vector of live slot numbers kept in key order and
//! compared through the columns, and the secondary indexes are posting lists
//! of slot numbers. Join probes verify bound columns directly against the
//! contiguous column vectors — no per-candidate pointer chase and no
//! per-candidate allocation (see [`tuple_materializations`]). Module
//! `columnar` holds the column and posting-list types and writes the slots.
//!
//! A table carries posting lists on its **indexed columns** only: the
//! columns some plan of the compiled program probes ([`TableSpec::probed`],
//! computed once per program). A relation the program does not know gets a
//! spec when its first fact arrives, and that spec indexes every column.
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
use columnar::{Column, Postings};
use nt_intern::heap::{Census, Heap};
use std::ops::Deref;
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

/// A borrowed handle to one stored tuple: its table and its slot. Probe
/// candidates, point lookups and table iteration all yield `TupleRef`s; the
/// join kernels match columns through it without materializing a `Tuple`
/// until a candidate actually survives.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    table: &'a Table,
    slot: u32,
}

impl<'a> TupleRef<'a> {
    /// The relation the tuple belongs to.
    pub fn relation(&self) -> Sym {
        self.table.spec.relation
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.table.spec.schema.arity
    }

    /// The content-addressed tuple identifier (precomputed per slot — no
    /// hashing).
    pub fn id(&self) -> TupleId {
        self.table.ids[self.slot as usize]
    }

    /// The supporting derivations.
    pub fn derivations(&self) -> &'a [Derivation] {
        &self.table.derivs[self.slot as usize]
    }

    /// Decode one attribute as an owned value (allocation-free for
    /// dictionary and numeric columns).
    pub fn value(&self, col: usize) -> Value {
        self.table.cols[col].value_at(self.slot as usize)
    }

    /// Whether one attribute `==` `v`, without materializing.
    pub fn matches(&self, col: usize, v: &Value) -> bool {
        self.table.cols[col].matches_value(self.slot as usize, v)
    }

    /// Materialize an owned tuple (counted — see
    /// [`tuple_materializations`]).
    pub fn to_tuple(&self) -> Tuple {
        self.table.tuple_at(self.slot)
    }
}

/// The candidates of [`Table::probe`] (and the whole of [`Table::iter`]):
/// the slots of one posting list, or of the key index, that pass every
/// residual bound column.
pub struct Probe<'a> {
    table: &'a Table,
    slots: std::slice::Iter<'a, u32>,
    filter: Vec<(usize, Value)>,
}

impl<'a> Iterator for Probe<'a> {
    type Item = TupleRef<'a>;

    fn next(&mut self) -> Option<TupleRef<'a>> {
        let (table, filter) = (self.table, &self.filter);
        let slot = self.slots.by_ref().copied().find(|&slot| {
            debug_assert!(table.is_live(slot), "indexes only hold live slots");
            (filter.iter()).all(|(col, v)| table.cols[*col].matches_value(slot as usize, v))
        })?;
        Some(TupleRef { table, slot })
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
    /// The columns that carry posting lists, ascending, each once and within
    /// the arity. For a relation of the program they are the columns some
    /// plan probes: the bound columns of every join step, negated-atom check
    /// and aggregate group scan over this relation.
    pub probed: Vec<usize>,
}

impl TableSpec {
    /// The spec of `schema`'s relation, with posting lists on `probed`
    /// (sorted, deduplicated, columns past the arity dropped). A probe must
    /// bind one of them or nothing: one that binds nothing is a key-order
    /// scan.
    pub fn new(schema: Arc<RelationSchema>, probed: impl IntoIterator<Item = usize>) -> Self {
        let mut probed: Vec<usize> = (probed.into_iter()).filter(|c| *c < schema.arity).collect();
        probed.sort_unstable();
        probed.dedup();
        TableSpec {
            relation: Sym::new(&schema.name),
            schema,
            probed,
        }
    }
}

/// A single relation's storage (see the module documentation for the
/// layout). It reads as its [`TableSpec`]: `table.schema`,
/// `table.relation` and `table.probed` are the program's, shared.
#[derive(Debug, Clone)]
pub struct Table {
    spec: Arc<TableSpec>,
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
    /// compared through the columns.
    by_key: Vec<u32>,
    /// Tuple id -> slot (provenance queries and cascade deletions address
    /// tuples by id). A slot is live when this map points its id at it.
    by_id: IdMap<TupleId, u32>,
    /// The posting lists of `spec.probed[i]`, parallel to it; allocated
    /// with `cols`.
    postings: Vec<Postings>,
}

/// `table.schema`, `table.relation` and `table.probed` read the shared spec
/// (the engine's routing and base-fact checks, and `benchmark/src/layered.rs`,
/// which reads `table.schema.name`).
impl Deref for Table {
    type Target = TableSpec;

    fn deref(&self) -> &TableSpec {
        &self.spec
    }
}

impl Table {
    /// An empty table of `spec`'s relation.
    pub fn new(spec: Arc<TableSpec>) -> Self {
        Table {
            spec,
            ids: Vec::new(),
            derivs: Vec::new(),
            cols: Vec::new(),
            free: Vec::new(),
            by_key: Vec::new(),
            by_id: IdMap::default(),
            postings: Vec::new(),
        }
    }

    /// Iterate over the candidate tuples for a join probe with the given
    /// bound columns. The most selective posting list among the bound
    /// columns anchors the probe and the remaining bound columns are
    /// verified against the stored columns directly, so the iterator yields
    /// exactly the tuples matching every bound column. With no bound
    /// columns it is a key-order scan. A bound value absent from its
    /// posting index short-circuits to an empty iterator.
    ///
    /// Every posting list holds its slots in the order they were indexed and
    /// the probe verifies every residual bound column, so whichever indexed
    /// column anchors a probe, the candidates are the same subsequence of
    /// the same order.
    pub fn probe<'a>(&'a self, bound_cols: &[(usize, Value)]) -> Probe<'a> {
        let empty = || Probe {
            table: self,
            slots: [].iter(),
            filter: Vec::new(),
        };
        let mut anchor: Option<(usize, &[u32])> = None;
        for (pos, (col, value)) in bound_cols.iter().enumerate() {
            // No column yet means no tuple yet.
            if *col >= self.cols.len() {
                return empty();
            }
            if let Ok(i) = self.spec.probed.binary_search(col) {
                let Some(slots) = self.postings[i].get(value) else {
                    return empty();
                };
                if anchor.is_none_or(|(_, best)| slots.len() < best.len()) {
                    anchor = Some((pos, slots));
                }
            }
        }
        let Some((anchor, slots)) = anchor else {
            // Plans bind indexed columns only (`CompiledProgram::tables` is
            // computed from them), so this is a caller outside the plans: a
            // key-order scan, filtered.
            debug_assert!(
                bound_cols.is_empty(),
                "probe of `{}` binds no indexed column: {:?}",
                self.spec.schema.name,
                bound_cols.iter().map(|(c, _)| c).collect::<Vec<_>>()
            );
            return Probe {
                table: self,
                slots: self.by_key.iter(),
                filter: bound_cols.to_vec(),
            };
        };
        let residual = (bound_cols.iter().enumerate()).filter(|(pos, _)| *pos != anchor);
        Probe {
            table: self,
            slots: slots.iter(),
            filter: residual.map(|(_, bound)| bound.clone()).collect(),
        }
    }

    /// Look up a stored tuple by its content-addressed identifier.
    pub fn get_by_id(&self, id: TupleId) -> Option<TupleRef<'_>> {
        let slot = *self.by_id.get(&id)?;
        Some(TupleRef { table: self, slot })
    }

    /// Number of stored (present) tuples.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when no tuple is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over present tuples in deterministic (key) order.
    pub fn iter(&self) -> Probe<'_> {
        self.probe(&[])
    }

    /// Look up the stored entry for an exact tuple: equal tuples have one id.
    pub fn get(&self, tuple: &Tuple) -> Option<TupleRef<'_>> {
        self.get_by_id(tuple.id())
    }

    /// True when the exact tuple is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.get(tuple).is_some()
    }

    /// All tuples currently present, cloned (snapshot order is deterministic).
    pub fn tuples(&self) -> Vec<Tuple> {
        self.iter().map(|r| r.to_tuple()).collect()
    }
}

/// One remote head in a [`Database`]'s outbox: a tuple this node derived for
/// another node and the local derivations behind it — what a later input
/// deletion needs to retract it there. The node it was shipped to is the
/// address in the tuple's location column.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboxEntry {
    /// The shipped head tuple.
    pub tuple: Tuple,
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
/// ([`Database::take_dependents`]): a tuple stored in one of this node's
/// tables or a remote head of the outbox, which its home tells apart.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependent {
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
        derivations: &[Derivation],
        tuple: impl FnOnce() -> Tuple,
    ) -> Option<Dependent> {
        let derivations: Vec<Derivation> = derivations
            .iter()
            .filter(|d| d.inputs.contains(&input))
            .cloned()
            .collect();
        (!derivations.is_empty()).then(|| Dependent {
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
    /// Create the empty database of an engine running a compiled program:
    /// one table per [`TableSpec`] (in relation-name order, as
    /// [`crate::CompiledProgram::tables`] lists them), sharing the spec.
    pub fn for_program(specs: &[Arc<TableSpec>]) -> Self {
        debug_assert!(specs.windows(2).all(|w| w[0].relation < w[1].relation));
        Database {
            order: specs.iter().map(|spec| spec.relation).collect(),
            tables: specs.iter().cloned().map(Table::new).collect(),
            ..Database::default()
        }
    }

    /// Register an additional relation (idempotent: a relation that has a
    /// table keeps it).
    pub fn register(&mut self, spec: Arc<TableSpec>) {
        let sym = spec.relation;
        if self.position(sym).is_none() {
            let pos = self.order.partition_point(|s| *s < sym);
            self.order.insert(pos, sym);
            self.tables.insert(pos, Table::new(spec));
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

    /// Record `dependent` under `input` in the dependency index.
    fn add_dependent(&mut self, input: TupleId, dependent: DependentKey) {
        let by_handle = |(held, relation, id): &DependentKey| (*held, relation.index(), *id);
        let dependents = self.dependents.entry(input).or_default();
        let at = dependents.binary_search_by_key(&by_handle(&dependent), by_handle);
        if let Err(pos) = at {
            dependents.insert(pos, dependent);
        }
    }

    /// Record that `derivation` derives the remote head `tuple`, and index
    /// its inputs when the dependency cascade retracts it (`cascaded`). True
    /// when the (tuple, derivation) pair is new to the outbox: the caller
    /// ships it. A repeated pair is recorded, and shipped, once.
    pub fn outbox_insert(
        &mut self,
        tuple: &Tuple,
        derivation: &Derivation,
        cascaded: bool,
    ) -> bool {
        let id = tuple.id();
        let entry = self.outbox.entry(id).or_insert_with(|| OutboxEntry {
            tuple: tuple.clone(),
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
                Held::Outbox => (self.outbox.get(&id))
                    .and_then(|e| Dependent::on(input, &e.derivations, || e.tuple.clone())),
                Held::Table => self
                    .table_sym(relation)
                    .and_then(|table| table.get_by_id(id))
                    .and_then(|r| Dependent::on(input, r.derivations(), || r.to_tuple())),
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

    /// Resident bytes: the total of the database's heap census
    /// ([`Database::heap`]). `ntbench` reports it as `runtime.storage_bytes`.
    pub fn storage_bytes(&self) -> usize {
        let mut census = Census::default();
        self.heap(&mut census);
        census.total().bytes
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

    /// The spec of `schema`'s relation with every column indexed.
    fn spec(schema: RelationSchema) -> Arc<TableSpec> {
        let arity = schema.arity;
        Arc::new(TableSpec::new(Arc::new(schema), 0..arity))
    }

    fn table(schema: RelationSchema) -> Table {
        Table::new(spec(schema))
    }

    fn database(schemas: Vec<RelationSchema>) -> Database {
        let mut db = Database::default();
        schemas.into_iter().for_each(|s| db.register(spec(s)));
        db
    }

    fn link(s: &str, d: &str, c: i64) -> Tuple {
        Tuple::new("link", vec![Value::addr(s), Value::addr(d), Value::Int(c)])
    }

    #[test]
    fn add_and_remove_derivations_track_membership() {
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
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
        let mut t = table(schema("link", 3, vec![0, 1]));
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
        let mut db = database(vec![
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
        assert!(db.outbox_insert(&h, &d1, true));
        // A repeated derivation is not shipped twice; a second one is.
        assert!(!db.outbox_insert(&h, &d1, true));
        assert!(db.outbox_insert(&h, &d2, true));
        assert_eq!(db.outbox_len(), 1);
        // The same head spelled with a double is the same entry.
        let h_double = head("h", "b", Value::Double(3.0));
        assert_eq!((&h, h.id()), (&h_double, h_double.id()));
        assert!(!db.outbox_insert(&h_double, &d1, true));
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
        let mut db = database(vec![
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
                assert!(db.outbox_insert(&t, &deriv, true));
                shipped.push(t);
            }
        }
        // One more outbox derivation that does not use the input, and one
        // that does but that the cascade does not retract.
        let other = head("bb", "b", Value::Int(9));
        db.outbox_insert(&other, &fired("r1", &[&other]), true);
        let recomputed = head("cc", "b", Value::Int(1));
        db.outbox_insert(&recomputed, &fired("r2", &[&input]), false);

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
        // A remote head's home is read off its tuple.
        let home = |d: &Dependent| d.tuple.values()[0].clone();
        assert!(got[..4].iter().all(|d| home(d) == Value::addr("b")));
        assert!(got[4..].iter().all(|d| home(d) == Value::addr("a")));
    }

    #[test]
    fn relation_tuples_of_unknown_relation_is_empty() {
        let db = Database::default();
        assert!(db.relation_tuples("nope").is_empty());
    }

    #[test]
    fn probe_uses_the_most_selective_index() {
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
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
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
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
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
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
        let mut obs = table(schema("obs", 2, vec![0, 1]));
        let text = Tuple::new("obs", vec![Value::addr("a"), Value::str("b")]);
        obs.add_derivation(&text, Derivation::base("a"));
        assert_eq!(obs.probe(&[(1, Value::addr("b"))]).count(), 0);
        assert_eq!(obs.probe(&[(1, Value::str("b"))]).count(), 1);
    }

    #[test]
    fn probe_matches_int_and_double_interchangeably() {
        // Value's total order equates Int(2) and Double(2.0); the index
        // must agree with the scan path on such cross-type matches.
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
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
        let mut t = table(schema("link", 3, vec![0, 1]));
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
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
        for i in 0..4 {
            t.add_derivation(&link("a", &format!("n{i}"), i), Derivation::base("a"));
        }
        t.remove_derivation(&link("a", "n1", 1), &Derivation::base("a"));
        t.remove_derivation(&link("a", "n2", 2), &Derivation::base("a"));
        assert_eq!(t.len(), 2);
        // Re-inserting reuses dead slots: the physical arena stays at 4.
        t.add_derivation(&link("b", "m1", 10), Derivation::base("b"));
        t.add_derivation(&link("b", "m2", 11), Derivation::base("b"));
        assert_eq!(t.arena(), (4, 0), "free slots were not reused");
        assert_eq!(t.len(), 4);
        assert_eq!(t.probe(&[(0, Value::addr("b"))]).count(), 2);
        assert_eq!(t.probe(&[(0, Value::addr("a"))]).count(), 2);
    }

    #[test]
    fn columnar_mixed_type_columns_promote_to_overflow() {
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
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
        let mut t = table(schema("link", 3, vec![0, 1, 2]));
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
}
