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
//! The store is arena-backed: vertices and rule executions live in dense
//! `Vec` slots (with free-list reuse) addressed through `IdMap` id → slot
//! indexes. The ids are `StableHasher` digests, the same on every node; an
//! index probe re-hashes one through `IdHasher`, one multiply, keyed per
//! process. Every record is fixed-size — a [`ProvEntry`] is a `Copy`
//! 16-byte record (8-byte rid + interned 4-byte `rloc`), a [`RuleExec`] is a
//! fixed header plus the posting list of its input VIDs. Rule and node names
//! are interned ([`Sym`]/[`NodeId`]), so maintenance never clones or
//! re-hashes strings; the string dictionary travels once per snapshot (see
//! [`ProvStoreStats::dict_bytes`]), not once per entry.

use nt_runtime::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_runtime::{
    dict_entry_wire_size, rule_exec_digest, Dictionary, IdMap, NodeId, StableHasher, Sym, Tuple,
    TupleId,
};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::fmt;
use std::sync::Arc;

/// Identifier of a rule-execution vertex: a stable digest of the rule name,
/// the executing node and the input tuple identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// A vertex slot in the store arena.
#[derive(Debug, Clone)]
struct VertexSlot {
    vid: TupleId,
    /// Sorted, deduplicated entries (canonical order, independent of the
    /// insert/retract interleaving that produced them).
    entries: Vec<ProvEntry>,
    live: bool,
}

impl Default for VertexSlot {
    fn default() -> Self {
        VertexSlot {
            vid: TupleId(0),
            entries: Vec::new(),
            live: false,
        }
    }
}

/// An execution slot in the store arena.
#[derive(Debug, Clone)]
struct ExecSlot {
    exec: RuleExec,
    live: bool,
}

/// One node's partition of the provenance graph (arena-backed; see the module
/// documentation for the layout).
#[derive(Debug, Clone, Default)]
pub struct ProvenanceStore {
    /// The node this store belongs to.
    pub node: NodeId,
    vertices: Vec<VertexSlot>,
    vertex_index: IdMap<TupleId, u32>,
    free_vertices: Vec<u32>,
    execs: Vec<ExecSlot>,
    exec_index: IdMap<RuleExecId, u32>,
    free_execs: Vec<u32>,
    /// Display information: VID -> tuple content, for tuples homed here.
    tuples: IdMap<TupleId, Tuple>,
    /// Mutation counter: bumped whenever the store's content actually
    /// changes (idempotent re-inserts do not count). Query caches stamp
    /// their entries with this version, so incremental maintenance — deletes
    /// included — invalidates exactly the sub-results it could have changed.
    version: u64,
}

impl ProvenanceStore {
    /// Create an empty store for a node.
    pub fn new(node: impl Into<NodeId>) -> Self {
        ProvenanceStore {
            node: node.into(),
            ..Default::default()
        }
    }

    /// The store's mutation version (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Record the content of a tuple homed at this node (so queries and the
    /// visualizer can show attribute values, as in Figure 2(c) of the paper).
    /// Called for every input of every firing, so a known id costs a probe
    /// and nothing else (equal ids are equal tuples: `Tuple` is sealed).
    pub fn register_tuple(&mut self, tuple: &Tuple) {
        if let Entry::Vacant(slot) = self.tuples.entry(tuple.id()) {
            slot.insert(tuple.clone());
            self.version += 1;
        }
    }

    /// The recorded content of a tuple, if known.
    pub fn tuple(&self, vid: TupleId) -> Option<&Tuple> {
        self.tuples.get(&vid)
    }

    /// Add a `prov` entry (idempotent). Returns true when it was new.
    pub fn add_prov(&mut self, vid: TupleId, entry: ProvEntry) -> bool {
        let slot = match self.vertex_index.get(&vid) {
            Some(&slot) => slot as usize,
            None => {
                let slot = match self.free_vertices.pop() {
                    Some(free) => free as usize,
                    None => {
                        self.vertices.push(VertexSlot::default());
                        self.vertices.len() - 1
                    }
                };
                // Nearly every vertex has one derivation; a growing empty
                // `Vec` would start at room for four.
                self.vertices[slot] = VertexSlot {
                    vid,
                    entries: Vec::with_capacity(1),
                    live: true,
                };
                self.vertex_index.insert(vid, slot as u32);
                slot
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
    /// entry of a VID disappears the vertex itself is dropped.
    pub fn remove_prov(&mut self, vid: TupleId, entry: &ProvEntry) -> bool {
        let Some(&slot) = self.vertex_index.get(&vid) else {
            return false;
        };
        let vertex = &mut self.vertices[slot as usize];
        let Ok(pos) = vertex.entries.binary_search(entry) else {
            return false;
        };
        vertex.entries.remove(pos);
        if vertex.entries.is_empty() {
            vertex.live = false;
            self.vertex_index.remove(&vid);
            self.free_vertices.push(slot);
            self.tuples.remove(&vid);
        }
        self.version += 1;
        true
    }

    /// The derivations of a tuple homed at this node (sorted canonical
    /// order).
    pub fn prov_entries(&self, vid: TupleId) -> Vec<ProvEntry> {
        self.entries_of(vid).to_vec()
    }

    /// Borrowed view of a vertex's entries (empty slice for unknown VIDs).
    pub fn entries_of(&self, vid: TupleId) -> &[ProvEntry] {
        self.vertex_index
            .get(&vid)
            .map(|&slot| self.vertices[slot as usize].entries.as_slice())
            .unwrap_or(&[])
    }

    /// True when the tuple vertex exists at this node.
    pub fn has_vertex(&self, vid: TupleId) -> bool {
        self.vertex_index.contains_key(&vid)
    }

    /// Number of tuple vertices at this node. It moves exactly when
    /// [`Self::add_prov`] creates a vertex or [`Self::remove_prov`] drops
    /// one, which is how the owning shard keeps its home index in step
    /// without a second probe per entry.
    pub(crate) fn vertex_count(&self) -> usize {
        self.vertex_index.len()
    }

    /// Iterate over all (VID, entries) pairs in arena order.
    pub fn iter_prov(&self) -> impl Iterator<Item = (TupleId, &[ProvEntry])> {
        self.vertices
            .iter()
            .filter(|v| v.live)
            .map(|v| (v.vid, v.entries.as_slice()))
    }

    /// Add a `ruleExec` entry (idempotent). Returns true when it was new.
    pub fn add_rule_exec(&mut self, exec: RuleExec) -> bool {
        if self.exec_index.contains_key(&exec.rid) {
            return false;
        }
        let rid = exec.rid;
        let slot = match self.free_execs.pop() {
            Some(free) => {
                self.execs[free as usize] = ExecSlot { exec, live: true };
                free
            }
            None => {
                self.execs.push(ExecSlot { exec, live: true });
                (self.execs.len() - 1) as u32
            }
        };
        self.exec_index.insert(rid, slot);
        self.version += 1;
        true
    }

    /// Remove a rule execution record.
    pub fn remove_rule_exec(&mut self, rid: RuleExecId) -> bool {
        let Some(slot) = self.exec_index.remove(&rid) else {
            return false;
        };
        self.execs[slot as usize].live = false;
        self.execs[slot as usize].exec.inputs = Arc::default();
        self.free_execs.push(slot);
        self.version += 1;
        true
    }

    /// Look up a rule execution record.
    pub fn rule_exec(&self, rid: RuleExecId) -> Option<&RuleExec> {
        self.exec_index
            .get(&rid)
            .map(|&slot| &self.execs[slot as usize].exec)
    }

    /// Iterate over rule executions recorded at this node, in arena order.
    pub fn iter_rule_execs(&self) -> impl Iterator<Item = &RuleExec> {
        self.execs.iter().filter(|s| s.live).map(|s| &s.exec)
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
        for v in self.vertices.iter().filter(|v| v.live) {
            for e in &v.entries {
                price(e.rloc.as_sym());
            }
        }
        for s in self.execs.iter().filter(|s| s.live) {
            price(s.exec.rule);
            price(s.exec.node.as_sym());
        }
        for t in self.tuples.values() {
            t.visit_names(&mut price);
        }
        bytes
    }

    /// Size counters.
    pub fn stats(&self) -> ProvStoreStats {
        let mut prov_entries = 0usize;
        let mut record_bytes = 0usize;
        for v in self.vertices.iter().filter(|v| v.live) {
            prov_entries += v.entries.len();
            record_bytes += v.entries.iter().map(ProvEntry::wire_size).sum::<usize>();
        }
        let mut rule_execs = 0usize;
        for s in self.execs.iter().filter(|s| s.live) {
            rule_execs += 1;
            record_bytes += s.exec.wire_size();
        }
        record_bytes += self.tuples.values().map(Tuple::wire_size).sum::<usize>();
        let dict_bytes = self.dict_bytes();
        ProvStoreStats {
            prov_entries,
            rule_execs,
            tuple_vertices: self.vertex_index.len(),
            dict_bytes,
            bytes: record_bytes + dict_bytes,
        }
    }

    /// A canonical (sorted) dump of the store, used for serialization and
    /// equality — two stores holding the same graph compare equal regardless
    /// of the arena history that produced them.
    fn dump(&self) -> StoreDump {
        let mut prov: Vec<(TupleId, Vec<ProvEntry>)> = self
            .iter_prov()
            .map(|(vid, entries)| (vid, entries.to_vec()))
            .collect();
        prov.sort_by_key(|(vid, _)| *vid);
        let mut rule_execs: Vec<RuleExec> = self.iter_rule_execs().cloned().collect();
        rule_execs.sort_by_key(|e| e.rid);
        let mut tuples: Vec<Tuple> = self.tuples.values().cloned().collect();
        tuples.sort_by_key(Tuple::id);
        StoreDump {
            node: self.node,
            prov,
            rule_execs,
            tuples,
        }
    }

    /// A stable digest of the store's canonical content (used by tests and
    /// the log-store integrity check).
    pub fn content_digest(&self) -> u64 {
        let dump = self.dump();
        let mut h = StableHasher::new();
        h.write_str(dump.node.as_str());
        h.write_u64(dump.prov.len() as u64);
        for (vid, entries) in &dump.prov {
            h.write_u64(vid.0);
            h.write_u64(entries.len() as u64);
            for e in entries {
                h.write_u64(e.rid.map(|r| r.0).unwrap_or(0));
                h.write_str(e.rloc.as_str());
            }
        }
        h.write_u64(dump.rule_execs.len() as u64);
        for e in &dump.rule_execs {
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

impl PartialEq for ProvenanceStore {
    fn eq(&self, other: &Self) -> bool {
        self.dump() == other.dump()
    }
}

/// Canonical serialized form of a store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoreDump {
    node: NodeId,
    prov: Vec<(TupleId, Vec<ProvEntry>)>,
    rule_execs: Vec<RuleExec>,
    tuples: Vec<Tuple>,
}

impl Serialize for ProvenanceStore {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.dump().serialize(serializer)
    }
}

impl Deserialize for ProvenanceStore {
    fn deserialize<'de, D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let dump = StoreDump::deserialize(d)?;
        let mut store = ProvenanceStore::new(dump.node);
        for (vid, entries) in dump.prov {
            for entry in entries {
                store.add_prov(vid, entry);
            }
        }
        for exec in dump.rule_execs {
            store.add_rule_exec(exec);
        }
        for tuple in dump.tuples {
            store.register_tuple(&tuple);
        }
        Ok(store)
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

    #[test]
    fn prov_entries_are_idempotent_and_removable() {
        let mut store = ProvenanceStore::new("n1");
        let t = tuple("cost", "n1", 3);
        let vid = t.id();
        store.register_tuple(&t);
        let base = ProvEntry {
            rid: None,
            rloc: "n1".into(),
        };
        assert!(store.add_prov(vid, base));
        assert!(!store.add_prov(vid, base), "idempotent");
        let exec = ProvEntry {
            rid: Some(RuleExecId::compute(sym("r1"), nid("n2"), &[TupleId(9)])),
            rloc: "n2".into(),
        };
        store.add_prov(vid, exec);
        assert_eq!(store.prov_entries(vid).len(), 2);
        assert!(store.remove_prov(vid, &base));
        assert!(!store.remove_prov(vid, &base));
        assert!(store.has_vertex(vid));
        assert!(store.remove_prov(vid, &exec));
        assert!(!store.has_vertex(vid), "vertex dropped with last entry");
        assert!(store.tuple(vid).is_none(), "tuple content dropped too");
    }

    #[test]
    fn vertex_slots_are_reused_after_removal() {
        let mut store = ProvenanceStore::new("n1");
        let base = ProvEntry {
            rid: None,
            rloc: "n1".into(),
        };
        for round in 0..3 {
            for i in 0..10 {
                store.add_prov(TupleId(100 + i), base);
            }
            for i in 0..10 {
                assert!(store.remove_prov(TupleId(100 + i), &base));
            }
            assert_eq!(store.stats().tuple_vertices, 0, "round {round}");
        }
        // The arena never grew past one generation of vertices.
        assert!(store.vertices.len() <= 10);
    }

    #[test]
    fn rule_execs_round_trip() {
        let mut store = ProvenanceStore::new("n1");
        let rid = RuleExecId::compute(sym("r2"), nid("n1"), &[TupleId(1), TupleId(2)]);
        let exec = RuleExec {
            rid,
            rule: "r2".into(),
            node: "n1".into(),
            inputs: [TupleId(1), TupleId(2)].into(),
        };
        assert!(store.add_rule_exec(exec.clone()));
        assert!(!store.add_rule_exec(exec.clone()));
        assert_eq!(store.rule_exec(rid), Some(&exec));
        assert!(store.remove_rule_exec(rid));
        assert!(store.rule_exec(rid).is_none());
    }

    #[test]
    fn stats_reflect_contents_and_price_the_dictionary() {
        let mut store = ProvenanceStore::new("n1");
        let t = tuple("cost", "n1", 3);
        store.register_tuple(&t);
        store.add_prov(
            t.id(),
            ProvEntry {
                rid: None,
                rloc: "n1".into(),
            },
        );
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
        assert!(stats.bytes > stats.dict_bytes);
    }

    #[test]
    fn version_counts_real_mutations_only() {
        let mut store = ProvenanceStore::new("n1");
        assert_eq!(store.version(), 0);
        let t = tuple("cost", "n1", 3);
        store.register_tuple(&t);
        let v1 = store.version();
        assert!(v1 > 0);
        // Idempotent re-registration of identical content: no bump.
        store.register_tuple(&t);
        assert_eq!(store.version(), v1);
        let base = ProvEntry {
            rid: None,
            rloc: "n1".into(),
        };
        store.add_prov(t.id(), base);
        let v2 = store.version();
        assert!(v2 > v1);
        store.add_prov(t.id(), base);
        assert_eq!(store.version(), v2, "duplicate prov entry is a no-op");
        // Deletes bump too — the property the query cache relies on.
        store.remove_prov(t.id(), &base);
        assert!(store.version() > v2);
        let v3 = store.version();
        store.remove_prov(t.id(), &base);
        assert_eq!(store.version(), v3, "removing a missing entry is a no-op");
    }

    #[test]
    fn equality_and_digest_ignore_arena_history() {
        let base = ProvEntry {
            rid: None,
            rloc: "n1".into(),
        };
        let other = ProvEntry {
            rid: Some(RuleExecId(7)),
            rloc: "n2".into(),
        };
        // Store A: churn before reaching the final state.
        let mut a = ProvenanceStore::new("n1");
        a.add_prov(TupleId(1), base);
        a.add_prov(TupleId(9), base);
        a.remove_prov(TupleId(9), &base);
        a.add_prov(TupleId(1), other);
        // Store B: the final state directly, in a different order.
        let mut b = ProvenanceStore::new("n1");
        b.add_prov(TupleId(1), other);
        b.add_prov(TupleId(1), base);
        assert_eq!(a, b);
        assert_eq!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn serde_round_trips_through_the_canonical_dump() {
        let mut store = ProvenanceStore::new("n1");
        let t = tuple("cost", "n1", 3);
        store.register_tuple(&t);
        store.add_prov(
            t.id(),
            ProvEntry {
                rid: None,
                rloc: "n1".into(),
            },
        );
        store.add_rule_exec(RuleExec {
            rid: RuleExecId(42),
            rule: "r1".into(),
            node: "n1".into(),
            inputs: [t.id()].into(),
        });
        let content = serde::to_content(&store).unwrap();
        let back: ProvenanceStore = serde::from_content(content).unwrap();
        assert_eq!(store, back);
        assert_eq!(store.stats(), back.stats());
    }
}
