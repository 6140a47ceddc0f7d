//! Per-node provenance storage: the `prov` and `ruleExec` relations.
//!
//! ExSPAN partitions the provenance graph across the network:
//!
//! * `prov(@Loc, VID, RID, RLoc)` — stored at `Loc`, the home of the tuple
//!   identified by `VID`. Each entry says "one derivation of this tuple was
//!   produced by rule execution `RID`, which ran at node `RLoc`". Base tuples
//!   carry a distinguished entry with no rule execution.
//! * `ruleExec(@RLoc, RID, Rule, [VID_1..VID_n])` — stored at `RLoc`, the node
//!   where the rule fired, recording the rule name and the identifiers of the
//!   body tuples.
//!
//! Together these relations are the vertices and edges of the provenance graph
//! G(V,E) of the paper: tuple vertices (VIDs), rule-execution vertices (RIDs),
//! and the dataflow edges between them.
//!
//! ## Storage layout
//!
//! The store is two dense arenas addressed through `IdMap` id → slot
//! indexes: one of tuple vertices, one of rule executions. Removing a record
//! moves the arena's last one into its slot, so every slot is live and there
//! is no free list. The ids are `StableHasher` digests, the same on every
//! node; an index probe re-hashes one through `IdHasher`, one multiply, keyed
//! per process.
//!
//! A tuple vertex holds the tuple itself (its id is the VID; the `Tuple` is
//! a shared handle, so the engine's copy and this one share their values)
//! and its `prov` entries, so one probe answers both "what is this tuple"
//! and "how was it derived" ([`ProvenanceStore::vertex`]); the content
//! arrives with the entry that creates the vertex and leaves with the entry
//! that drops it. A [`ProvEntry`] is a `Copy` 16-byte record (8-byte rid +
//! interned 4-byte `rloc`), a [`RuleExec`] a fixed header plus the posting
//! list of its input VIDs: an input is named by id, and its content is the
//! input's own vertex. Rule and node names are interned ([`Sym`]/[`NodeId`]),
//! so maintenance never clones or re-hashes strings; the string dictionary
//! travels once per snapshot (see [`ProvStoreStats::dict_bytes`]), not once
//! per entry.

use nt_runtime::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_runtime::{
    dict_entry_wire_size, rule_exec_digest, Census, Dictionary, Few, Heap, IdMap, NodeId,
    StableHasher, Sym, Tuple, TupleId,
};
use std::collections::hash_map::Entry;
use std::fmt;
use std::sync::Arc;

/// Identifier of a rule-execution vertex: a stable digest of the rule name,
/// the executing node and the input tuple identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleExecId(pub u64);

impl RuleExecId {
    /// Compute the RID for a rule execution from interned identifiers.
    ///
    /// Delegates to [`nt_runtime::rule_exec_digest`] — the single stable-digest
    /// implementation shared with the string-keyed entry point
    /// ([`RuleExecId::compute_str`]), so interned and string inputs cannot
    /// silently diverge. The digest hashes the resolved strings, never the
    /// intern ids, and is therefore identical on every node and across runs.
    pub fn compute(rule: Sym, node: NodeId, inputs: &[TupleId]) -> Self {
        Self::compute_str(rule.as_str(), node.as_str(), inputs)
    }

    /// Compute the RID from boundary (string) identifiers.
    pub fn compute_str(rule: &str, node: &str, inputs: &[TupleId]) -> Self {
        RuleExecId(rule_exec_digest(rule, node, inputs.iter().map(|i| i.0)))
    }
}

impl fmt::Display for RuleExecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rid:{:016x}", self.0)
    }
}

/// One entry of the `prov` relation: a derivation of a tuple. A fixed-size
/// `Copy` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProvEntry {
    /// The rule execution that produced the tuple; `None` marks a base tuple
    /// inserted by the environment.
    pub rid: Option<RuleExecId>,
    /// The node where that rule executed (equal to the tuple's home for base
    /// tuples).
    pub rloc: NodeId,
}

impl ProvEntry {
    /// True for the base-tuple entry.
    pub fn is_base(&self) -> bool {
        self.rid.is_none()
    }

    /// Wire size of the entry in the interned encoding: an 8-byte rid (the
    /// base-tuple case is a reserved encoding, not extra bytes) plus a
    /// fixed-width interned `rloc` id. The one-time dictionary cost of the
    /// names behind the ids is accounted separately
    /// ([`ProvStoreStats::dict_bytes`]).
    pub fn wire_size(&self) -> usize {
        8 + NodeId::WIRE_SIZE
    }
}

/// One entry of the `ruleExec` relation: a fixed-size header (rid + interned
/// rule and node ids) plus the posting list of input VIDs — the list of the
/// derivation that fired, shared with it, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleExec {
    /// Identifier of this execution.
    pub rid: RuleExecId,
    /// Rule name (interned).
    pub rule: Sym,
    /// Node where the rule executed (interned).
    pub node: NodeId,
    /// Input tuple identifiers, in body order.
    pub inputs: Arc<[TupleId]>,
}

impl RuleExec {
    /// Wire size of the entry in the interned encoding: 8-byte rid,
    /// fixed-width rule and node ids, and 8 bytes per input VID. Dictionary
    /// cost is accounted once per store ([`ProvStoreStats::dict_bytes`]).
    pub fn wire_size(&self) -> usize {
        8 + Sym::WIRE_SIZE + NodeId::WIRE_SIZE + 8 * self.inputs.len()
    }
}

/// Size counters for one node's provenance state; the maintenance-overhead
/// experiment (E4) sums these across nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvStoreStats {
    /// Number of `prov` entries stored at this node.
    pub prov_entries: usize,
    /// Number of `ruleExec` entries stored at this node.
    pub rule_execs: usize,
    /// Number of distinct tuple vertices known at this node.
    pub tuple_vertices: usize,
    /// One-time dictionary cost: the distinct rule/relation/node names this
    /// store references, priced as id + length-prefixed string each. This is
    /// what a snapshot upload pays once so that every fixed-width id in
    /// `bytes` resolves remotely.
    pub dict_bytes: usize,
    /// Approximate bytes of provenance state (fixed-width interned records
    /// plus the one-time dictionary).
    pub bytes: usize,
}

impl Encode for ProvStoreStats {
    fn encode(&self, w: &mut Writer) {
        for v in [
            self.prov_entries,
            self.rule_execs,
            self.tuple_vertices,
            self.dict_bytes,
            self.bytes,
        ] {
            w.usize(v);
        }
    }
}

impl Decode for ProvStoreStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ProvStoreStats {
            prov_entries: r.usize()?,
            rule_execs: r.usize()?,
            tuple_vertices: r.usize()?,
            dict_bytes: r.usize()?,
            bytes: r.usize()?,
        })
    }
}

/// A tuple vertex: the tuple (its id is the vid) and its `prov` entries,
/// sorted and deduplicated (canonical order, independent of the
/// insert/retract interleaving that produced them).
#[derive(Debug, Clone, PartialEq)]
struct Vertex {
    tuple: Tuple,
    entries: Few<ProvEntry>,
}

/// One node's partition of the provenance graph (arena-backed; see the module
/// documentation for the layout).
#[derive(Debug, Clone, Default)]
pub struct ProvenanceStore {
    /// The node this store belongs to.
    pub node: NodeId,
    vertices: Vec<Vertex>,
    vertex_index: IdMap<TupleId, u32>,
    execs: Vec<RuleExec>,
    exec_index: IdMap<RuleExecId, u32>,
    /// Mutation counter: bumped whenever the store's content actually
    /// changes (idempotent re-inserts do not count). Query caches stamp
    /// their entries with this version, so incremental maintenance — deletes
    /// included — invalidates exactly the sub-results it could have changed.
    version: u64,
}

/// Remove `slot` from a dense arena by moving the last record into it, and
/// re-point the index entry of the record that moved.
fn swap_out<K: std::hash::Hash + Eq, T>(
    arena: &mut Vec<T>,
    index: &mut IdMap<K, u32>,
    slot: u32,
    key: impl Fn(&T) -> K,
) {
    arena.swap_remove(slot as usize);
    if let Some(moved) = arena.get(slot as usize) {
        index.insert(key(moved), slot);
    }
}

impl ProvenanceStore {
    /// Create an empty store for a node.
    pub fn new(node: impl Into<NodeId>) -> Self {
        ProvenanceStore {
            node: node.into(),
            ..Default::default()
        }
    }

    /// Charge the store's heap: `prov.vertices` (the arena, spilled entry
    /// lists and the tuples), `prov.execs` (the arena and the input lists)
    /// and `prov.indexes` (the two id maps).
    pub fn heap(&self, census: &mut Census) {
        census.add("prov.vertices", Heap::vec(&self.vertices));
        for vertex in &self.vertices {
            census.add("prov.vertices", vertex.entries.heap());
            vertex.tuple.heap(census, "prov.vertices");
        }
        census.add("prov.execs", Heap::vec(&self.execs));
        for exec in &self.execs {
            census.shared("prov.execs", &exec.inputs);
        }
        let indexes = Heap::map(&self.vertex_index) + Heap::map(&self.exec_index);
        census.add("prov.indexes", indexes);
    }

    /// The store's mutation version (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Add a `prov` entry for `tuple` (idempotent). The first entry creates
    /// the vertex, which keeps the tuple for display (queries and the
    /// visualizer show attribute values, as in Figure 2(c) of the paper).
    /// Returns true when the entry was new.
    pub fn add_prov(&mut self, tuple: &Tuple, entry: ProvEntry) -> bool {
        let vid = tuple.id();
        let slot = match self.vertex_index.entry(vid) {
            Entry::Occupied(slot) => *slot.get() as usize,
            Entry::Vacant(slot) => {
                slot.insert(self.vertices.len() as u32);
                // Nearly every vertex has one derivation, held inline.
                self.vertices.push(Vertex {
                    tuple: tuple.clone(),
                    entries: Few::default(),
                });
                self.vertices.len() - 1
            }
        };
        let entries = &mut self.vertices[slot].entries;
        match entries.binary_search(&entry) {
            Ok(_) => false,
            Err(pos) => {
                entries.insert(pos, entry);
                self.version += 1;
                true
            }
        }
    }

    /// Remove a `prov` entry. Returns true when it was present. When the last
    /// entry of a VID disappears the vertex, tuple and all, is dropped.
    pub fn remove_prov(&mut self, vid: TupleId, entry: &ProvEntry) -> bool {
        let Some(&slot) = self.vertex_index.get(&vid) else {
            return false;
        };
        let entries = &mut self.vertices[slot as usize].entries;
        let Ok(pos) = entries.binary_search(entry) else {
            return false;
        };
        entries.remove(pos);
        if entries.is_empty() {
            self.vertex_index.remove(&vid);
            swap_out(&mut self.vertices, &mut self.vertex_index, slot, |v| {
                v.tuple.id()
            });
        }
        self.version += 1;
        true
    }

    /// A tuple vertex homed at this node: the tuple and its derivations
    /// (sorted canonical order), in one probe.
    pub fn vertex(&self, vid: TupleId) -> Option<(&Tuple, &[ProvEntry])> {
        self.vertex_index.get(&vid).map(|&slot| {
            let vertex = &self.vertices[slot as usize];
            (&vertex.tuple, &vertex.entries[..])
        })
    }

    /// True when the tuple vertex exists at this node.
    pub fn has_vertex(&self, vid: TupleId) -> bool {
        self.vertex_index.contains_key(&vid)
    }

    /// Number of tuple vertices at this node. It moves exactly when
    /// [`Self::add_prov`] creates a vertex or [`Self::remove_prov`] drops
    /// one, which is how the system keeps its home index in step
    /// without a second probe per entry.
    pub(crate) fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Iterate over all vertices (tuple, entries) in arena order.
    pub fn iter_prov(&self) -> impl Iterator<Item = (&Tuple, &[ProvEntry])> {
        self.vertices.iter().map(|v| (&v.tuple, &v.entries[..]))
    }

    /// Add a `ruleExec` entry (idempotent). Returns true when it was new.
    pub fn add_rule_exec(&mut self, exec: RuleExec) -> bool {
        let Entry::Vacant(slot) = self.exec_index.entry(exec.rid) else {
            return false;
        };
        slot.insert(self.execs.len() as u32);
        self.execs.push(exec);
        self.version += 1;
        true
    }

    /// Remove a rule execution record.
    pub fn remove_rule_exec(&mut self, rid: RuleExecId) -> bool {
        let Some(slot) = self.exec_index.remove(&rid) else {
            return false;
        };
        swap_out(&mut self.execs, &mut self.exec_index, slot, |e| e.rid);
        self.version += 1;
        true
    }

    /// Look up a rule execution record.
    pub fn rule_exec(&self, rid: RuleExecId) -> Option<&RuleExec> {
        self.exec_index
            .get(&rid)
            .map(|&slot| &self.execs[slot as usize])
    }

    /// Iterate over rule executions recorded at this node, in arena order.
    pub fn iter_rule_execs(&self) -> impl Iterator<Item = &RuleExec> {
        self.execs.iter()
    }

    /// The one-time dictionary a snapshot of this store must carry: every
    /// distinct name it references (its node, rule locations, rules, and the
    /// names of its tuples), each priced once — the store shipped as a single
    /// frame to a destination that knows nothing ([`Dictionary`]).
    fn dict_bytes(&self) -> usize {
        let mut sent = Dictionary::default();
        let mut bytes = 0usize;
        let mut price = |name: Sym| {
            if sent.first_use(name) {
                bytes += dict_entry_wire_size(name.as_str());
            }
        };
        price(self.node.as_sym());
        for v in &self.vertices {
            for e in &v.entries {
                price(e.rloc.as_sym());
            }
            v.tuple.visit_names(&mut price);
        }
        for e in &self.execs {
            price(e.rule);
            price(e.node.as_sym());
        }
        bytes
    }

    /// Size counters.
    pub fn stats(&self) -> ProvStoreStats {
        let mut prov_entries = 0usize;
        let mut record_bytes = 0usize;
        for v in &self.vertices {
            prov_entries += v.entries.len();
            record_bytes += v.entries.iter().map(ProvEntry::wire_size).sum::<usize>();
            record_bytes += v.tuple.wire_size();
        }
        record_bytes += self.execs.iter().map(RuleExec::wire_size).sum::<usize>();
        let dict_bytes = self.dict_bytes();
        ProvStoreStats {
            prov_entries,
            rule_execs: self.execs.len(),
            tuple_vertices: self.vertices.len(),
            dict_bytes,
            bytes: record_bytes + dict_bytes,
        }
    }

    /// The vertices in vid order and the executions in rid order: what
    /// equality and the digest read, so two stores holding the same graph
    /// agree whatever arena history produced them.
    fn sorted(&self) -> (Vec<&Vertex>, Vec<&RuleExec>) {
        let mut vertices: Vec<&Vertex> = self.vertices.iter().collect();
        vertices.sort_by_key(|v| v.tuple.id());
        let mut execs: Vec<&RuleExec> = self.execs.iter().collect();
        execs.sort_by_key(|e| e.rid);
        (vertices, execs)
    }

    /// A stable digest of the store's canonical content (used by tests and
    /// the log-store integrity check).
    pub fn content_digest(&self) -> u64 {
        let (vertices, execs) = self.sorted();
        let mut h = StableHasher::new();
        h.write_str(self.node.as_str());
        h.write_u64(vertices.len() as u64);
        for v in vertices {
            h.write_u64(v.tuple.id().0);
            h.write_u64(v.entries.len() as u64);
            for e in &v.entries {
                h.write_u64(e.rid.map(|r| r.0).unwrap_or(0));
                h.write_str(e.rloc.as_str());
            }
        }
        h.write_u64(execs.len() as u64);
        for e in execs {
            h.write_u64(e.rid.0);
            h.write_str(e.rule.as_str());
            h.write_str(e.node.as_str());
            h.write_u64(e.inputs.len() as u64);
            for i in e.inputs.iter() {
                h.write_u64(i.0);
            }
        }
        h.finish()
    }
}

/// Equal when the node, every vertex (tuple and entries) and every execution
/// are equal.
impl PartialEq for ProvenanceStore {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node && self.sorted() == other.sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::Value;

    fn tuple(rel: &str, node: &str, x: i64) -> Tuple {
        Tuple::new(rel, vec![Value::addr(node), Value::Int(x)])
    }

    fn sym(s: &str) -> Sym {
        Sym::new(s)
    }

    fn nid(s: &str) -> NodeId {
        NodeId::new(s)
    }

    #[test]
    fn rid_is_stable_and_order_sensitive() {
        let a = TupleId(1);
        let b = TupleId(2);
        assert_eq!(
            RuleExecId::compute(sym("r1"), nid("n1"), &[a, b]),
            RuleExecId::compute(sym("r1"), nid("n1"), &[a, b])
        );
        assert_ne!(
            RuleExecId::compute(sym("r1"), nid("n1"), &[a, b]),
            RuleExecId::compute(sym("r1"), nid("n1"), &[b, a])
        );
        assert_ne!(
            RuleExecId::compute(sym("r1"), nid("n1"), &[a]),
            RuleExecId::compute(sym("r1"), nid("n2"), &[a])
        );
        // The interned and string entry points share one digest.
        assert_eq!(
            RuleExecId::compute(sym("r1"), nid("n1"), &[a, b]),
            RuleExecId::compute_str("r1", "n1", &[a, b])
        );
    }

    fn base(node: &str) -> ProvEntry {
        ProvEntry {
            rid: None,
            rloc: node.into(),
        }
    }

    #[test]
    fn prov_entries_are_idempotent_and_removable() {
        let mut store = ProvenanceStore::new("n1");
        let t = tuple("cost", "n1", 3);
        let vid = t.id();
        assert!(store.add_prov(&t, base("n1")));
        assert!(!store.add_prov(&t, base("n1")), "idempotent");
        let exec = ProvEntry {
            rid: Some(RuleExecId::compute(sym("r1"), nid("n2"), &[TupleId(9)])),
            rloc: "n2".into(),
        };
        store.add_prov(&t, exec);
        let (held, entries) = store.vertex(vid).unwrap();
        assert_eq!(held, &t, "the vertex holds its tuple");
        assert_eq!(entries.len(), 2);
        assert!(store.remove_prov(vid, &base("n1")));
        assert!(!store.remove_prov(vid, &base("n1")));
        assert!(store.has_vertex(vid));
        assert!(store.remove_prov(vid, &exec));
        assert!(
            store.vertex(vid).is_none(),
            "vertex and tuple dropped with last entry"
        );
        let stats = store.stats();
        assert_eq!((stats.tuple_vertices, stats.prov_entries), (0, 0));
        assert_eq!(
            stats.bytes, stats.dict_bytes,
            "only the node's name is left"
        );
    }

    #[test]
    fn vertex_slots_are_reused_after_removal() {
        let mut store = ProvenanceStore::new("n1");
        let tuples: Vec<Tuple> = (0..10).map(|i| tuple("cost", "n1", i)).collect();
        for round in 0..3 {
            for t in &tuples {
                store.add_prov(t, base("n1"));
            }
            // Dropping every other vertex moves later ones into the holes;
            // each survivor must still be found with its own tuple.
            for t in tuples.iter().step_by(2) {
                assert!(store.remove_prov(t.id(), &base("n1")));
            }
            for t in tuples.iter().skip(1).step_by(2) {
                assert_eq!(store.vertex(t.id()).map(|(held, _)| held), Some(t));
            }
            assert_eq!(store.vertices.len(), 5, "round {round}");
            for t in tuples.iter().skip(1).step_by(2) {
                assert!(store.remove_prov(t.id(), &base("n1")));
            }
            assert_eq!(store.stats().tuple_vertices, 0, "round {round}");
        }
    }

    #[test]
    fn rule_execs_round_trip() {
        let mut store = ProvenanceStore::new("n1");
        let execs: Vec<RuleExec> = (1..=3)
            .map(|i| RuleExec {
                rid: RuleExecId::compute(sym("r2"), nid("n1"), &[TupleId(i), TupleId(2)]),
                rule: "r2".into(),
                node: "n1".into(),
                inputs: [TupleId(i), TupleId(2)].into(),
            })
            .collect();
        for exec in &execs {
            assert!(store.add_rule_exec(exec.clone()));
            assert!(!store.add_rule_exec(exec.clone()));
        }
        assert!(store.remove_rule_exec(execs[0].rid));
        assert!(!store.remove_rule_exec(execs[0].rid));
        assert!(store.rule_exec(execs[0].rid).is_none());
        // The last record moved into the freed slot and is still found.
        for exec in &execs[1..] {
            assert_eq!(store.rule_exec(exec.rid), Some(exec));
        }
    }

    #[test]
    fn stats_reflect_contents_and_price_the_dictionary() {
        let mut store = ProvenanceStore::new("n1");
        let t = tuple("cost", "n1", 3);
        store.add_prov(&t, base("n1"));
        store.add_rule_exec(RuleExec {
            rid: RuleExecId::compute(sym("r1"), nid("n1"), &[t.id()]),
            rule: "r1".into(),
            node: "n1".into(),
            inputs: [t.id()].into(),
        });
        let stats = store.stats();
        assert_eq!(stats.prov_entries, 1);
        assert_eq!(stats.rule_execs, 1);
        assert_eq!(stats.tuple_vertices, 1);
        // Dictionary: "n1", "r1", "cost".
        assert_eq!(stats.dict_bytes, (8 + 2) + (8 + 2) + (8 + 4));
        // Records: the entry, the execution with one input, the tuple.
        let records = base("n1").wire_size() + (8 + 4 + 4 + 8) + t.wire_size();
        assert_eq!(stats.bytes, records + stats.dict_bytes);
    }

    #[test]
    fn version_counts_real_mutations_only() {
        let mut store = ProvenanceStore::new("n1");
        assert_eq!(store.version(), 0);
        let t = tuple("cost", "n1", 3);
        store.add_prov(&t, base("n1"));
        let v1 = store.version();
        assert!(v1 > 0);
        store.add_prov(&t, base("n1"));
        assert_eq!(store.version(), v1, "duplicate prov entry is a no-op");
        // Deletes bump too — the property the query cache relies on.
        store.remove_prov(t.id(), &base("n1"));
        assert!(store.version() > v1);
        let v2 = store.version();
        store.remove_prov(t.id(), &base("n1"));
        assert_eq!(store.version(), v2, "removing a missing entry is a no-op");
    }

    #[test]
    fn equality_and_digest_ignore_arena_history() {
        let other = ProvEntry {
            rid: Some(RuleExecId(7)),
            rloc: "n2".into(),
        };
        let (t1, t9) = (tuple("cost", "n1", 1), tuple("cost", "n1", 9));
        // Store A: churn before reaching the final state.
        let mut a = ProvenanceStore::new("n1");
        a.add_prov(&t9, base("n1"));
        a.add_prov(&t1, base("n1"));
        a.remove_prov(t9.id(), &base("n1"));
        a.add_prov(&t1, other);
        // Store B: the final state directly, in a different order.
        let mut b = ProvenanceStore::new("n1");
        b.add_prov(&t1, other);
        b.add_prov(&t1, base("n1"));
        assert_eq!(a, b);
        assert_eq!(a.content_digest(), b.content_digest());
        assert_eq!(a.stats(), b.stats());
    }
}
