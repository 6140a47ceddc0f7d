//! The distributed provenance maintenance engine.
//!
//! A [`ProvenanceSystem`] owns one [`ProvenanceStore`] per node and consumes
//! the rule-execution events ([`Firing`]) emitted by the per-node runtime
//! engines. For every derivation it:
//!
//! 1. stores a `ruleExec` record at the node where the rule executed, and
//! 2. stores a `prov` entry at the head tuple's home node.
//!
//! A derivation whose head lives on another node is reported by the engine
//! that applies its shipped record at the head's home, not by the one that
//! ran the rule: the record already carries the rule, the executing node and
//! the input ids the rule-execution id digests. So a remote head's `prov`
//! entry is written where its record is delivered, and provenance ships
//! nothing of its own.
//!
//! Retraction firings remove the corresponding entries, so the provenance
//! graph is maintained *incrementally* as network state changes — the property
//! the paper demonstrates with link failures and mobile networks.
//!
//! The stores sit in one dense arena in creation order, found by node through
//! an integer-keyed map, so one firing is applied with integer-keyed lookups
//! and no string clone or comparison. A firing stream — an engine run's or a
//! round's ([`ProvenanceSystem::apply_round`]) — is applied in stream order
//! on the caller's thread.
//!
//! ## Reads
//!
//! Resolving a vertex is a keyed read, as `prov(@Loc, VID, ..)` keyed by VID
//! at `Loc` is in the paper: [`ProvenanceSystem::vertex_home`] reads the
//! `vid → store` home index the system maintains with its writes, and
//! [`ProvenanceSystem::tuple_at`] reads the vertex — which holds its tuple —
//! at the node it is expanded at, or else at its home. Neither grows with
//! the number of nodes.
//!
//! A system has no serialized form. A snapshot carries the graph assembled
//! from it ([`crate::ProvGraph`]), so a system is built only by applying
//! firings.

use crate::store::{ProvEntry, ProvenanceStore, RuleExec, RuleExecId};
use nt_runtime::{base_rule_sym, Addr, Census, Firing, Heap, IdMap, NodeId, Tuple, TupleId};
use std::collections::hash_map::Entry;

/// Aggregate statistics across every node's provenance store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Total `prov` entries.
    pub prov_entries: usize,
    /// Total `ruleExec` entries.
    pub rule_execs: usize,
    /// Total tuple vertices.
    pub tuple_vertices: usize,
    /// Provenance state at its record wire sizes: every `prov` entry, every
    /// `ruleExec` record and every vertex's tuple.
    pub bytes: usize,
    /// Firings processed (derivations).
    pub firings_applied: u64,
    /// Retractions processed.
    pub retractions_applied: u64,
}

/// Which store has a tuple vertex: `vid → arena slot`, the keyed read behind
/// [`ProvenanceSystem::vertex_home`]. It answers exactly what a scan of the
/// arena in creation order would: the lowest slot whose store has the
/// vertex.
///
/// A lookup structure, not state: derived from the stores' `prov` tables,
/// maintained where a vertex is created or dropped, never iterated, compared
/// or priced.
#[derive(Debug, Clone, Default)]
struct HomeIndex {
    /// The lowest arena slot whose store has the vertex.
    first: IdMap<TupleId, u32>,
    /// Vids homed at more than one store (one base fact
    /// inserted at two nodes): every further slot, ascending, so dropping
    /// the first home falls to the next without a scan. Empty otherwise.
    rest: IdMap<TupleId, Vec<u32>>,
}

impl HomeIndex {
    /// The store at `slot` did not have the vertex and now does.
    fn created(&mut self, vid: TupleId, slot: u32) {
        match self.first.entry(vid) {
            Entry::Vacant(first) => {
                first.insert(slot);
            }
            Entry::Occupied(mut first) => {
                let later = if slot < *first.get() {
                    first.insert(slot)
                } else {
                    slot
                };
                let rest = self.rest.entry(vid).or_default();
                rest.insert(rest.partition_point(|&s| s < later), later);
            }
        }
    }

    /// The store at `slot` had the vertex and no longer does.
    fn dropped(&mut self, vid: TupleId, slot: u32) {
        if !self.rest.is_empty() {
            if let Entry::Occupied(mut rest) = self.rest.entry(vid) {
                let first = self
                    .first
                    .get_mut(&vid)
                    .expect("a multi-homed vid has a first home");
                if *first == slot {
                    *first = rest.get_mut().remove(0);
                } else {
                    rest.get_mut().retain(|&s| s != slot);
                }
                if rest.get().is_empty() {
                    rest.remove();
                }
                return;
            }
        }
        self.first.remove(&vid);
    }
}

/// The distributed provenance maintenance engine: one store per node, in a
/// creation-order arena, read through the home index it maintains with its
/// writes.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceSystem {
    stores: Vec<ProvenanceStore>,
    by_node: IdMap<NodeId, u32>,
    homes: HomeIndex,
    firings_applied: u64,
    retractions_applied: u64,
}

impl ProvenanceSystem {
    /// Create a system with stores for the given nodes.
    pub fn new(nodes: impl IntoIterator<Item = impl Into<NodeId>>) -> Self {
        let mut system = ProvenanceSystem::default();
        for n in nodes {
            system.slot(n.into());
        }
        system
    }

    /// The arena slot of a node's store, creating it if unknown.
    fn slot(&mut self, node: NodeId) -> usize {
        match self.by_node.get(&node) {
            Some(&slot) => slot as usize,
            None => {
                let slot = self.stores.len();
                self.stores.push(ProvenanceStore::new(node));
                self.by_node.insert(node, slot as u32);
                slot
            }
        }
    }

    /// Charge the system's heap: every store (see
    /// [`ProvenanceStore::heap`]), the home index to `prov.homes` and the
    /// store arena and its node map to `prov.shell`.
    pub fn heap(&self, census: &mut Census) {
        self.stores.iter().for_each(|store| store.heap(census));
        let rest: Heap = self.homes.rest.values().map(Heap::vec).sum();
        census.add(
            "prov.homes",
            Heap::map(&self.homes.first) + Heap::map(&self.homes.rest) + rest,
        );
        census.add(
            "prov.shell",
            Heap::vec(&self.stores) + Heap::map(&self.by_node),
        );
    }

    /// Access a node's store (creating it lazily if unknown). Crate-private:
    /// a caller holding `&mut` to a store could create or drop vertices
    /// behind the home index.
    pub(crate) fn store_mut(&mut self, node: impl Into<NodeId>) -> &mut ProvenanceStore {
        let slot = self.slot(node.into());
        &mut self.stores[slot]
    }

    /// Access a node's store. Any `Into<NodeId>` (a `NodeId`, `&str`,
    /// `String`, …) is interned once.
    pub fn store(&self, node: impl Into<NodeId>) -> Option<&ProvenanceStore> {
        self.by_node
            .get(&node.into())
            .map(|&slot| &self.stores[slot as usize])
    }

    /// Iterate over all stores in node-name order (deterministic and
    /// independent of store creation history).
    pub fn stores(&self) -> impl Iterator<Item = &ProvenanceStore> {
        let mut all: Vec<&ProvenanceStore> = self.stores.iter().collect();
        all.sort_by_key(|s| s.node);
        all.into_iter()
    }

    /// Node names with provenance state, in name order.
    pub fn nodes(&self) -> Vec<Addr> {
        self.stores().map(|s| s.node).collect()
    }

    /// Apply one rule-execution event from a runtime engine.
    pub fn apply_firing(&mut self, firing: &Firing) {
        if firing.insert {
            self.firings_applied += 1;
            self.apply_insert(firing);
        } else {
            self.retractions_applied += 1;
            self.apply_retract(firing);
        }
    }

    /// Apply a firing stream (an engine run's or a round's), in stream order.
    pub fn apply_round(&mut self, firings: &[Firing]) {
        for firing in firings {
            self.apply_firing(firing);
        }
    }

    /// Record one derivation of `head` at `home`'s store: its `prov` entry,
    /// and the vertex with the tuple's content if this is the first. Every
    /// vertex is created here, so this is where the home index learns of it.
    pub(crate) fn add_prov(&mut self, home: NodeId, head: &Tuple, entry: ProvEntry) {
        let slot = self.slot(home);
        let store = &mut self.stores[slot];
        let vertices = store.vertex_count();
        store.add_prov(head, entry);
        if store.vertex_count() != vertices {
            self.homes.created(head.id(), slot as u32);
        }
    }

    /// Remove a `prov` entry at `home`'s store; the counterpart of
    /// [`Self::add_prov`] for the vertex its last entry drops.
    fn remove_prov(&mut self, home: NodeId, vid: TupleId, entry: &ProvEntry) {
        let slot = self.slot(home);
        let store = &mut self.stores[slot];
        let vertices = store.vertex_count();
        store.remove_prov(vid, entry);
        if store.vertex_count() != vertices {
            self.homes.dropped(vid, slot as u32);
        }
    }

    /// A derivation: the `ruleExec` record where the rule fired, and the
    /// `prov` entry at the head's home.
    fn apply_insert(&mut self, firing: &Firing) {
        if firing.rule == base_rule_sym() {
            let home = firing.head_home;
            let entry = ProvEntry {
                rid: None,
                rloc: home,
            };
            return self.add_prov(home, &firing.head, entry);
        }
        let rid = RuleExecId::compute(firing.rule, firing.node, &firing.inputs);
        self.store_mut(firing.node).add_rule_exec(RuleExec {
            rid,
            rule: firing.rule,
            node: firing.node,
            inputs: firing.inputs.clone(),
        });
        let entry = ProvEntry {
            rid: Some(rid),
            rloc: firing.node,
        };
        self.add_prov(firing.head_home, &firing.head, entry);
    }

    /// A retraction: the counterpart of [`Self::apply_insert`].
    fn apply_retract(&mut self, firing: &Firing) {
        let vid = firing.head.id();
        if firing.rule == base_rule_sym() {
            let home = firing.head_home;
            let entry = ProvEntry {
                rid: None,
                rloc: home,
            };
            return self.remove_prov(home, vid, &entry);
        }
        let rid = RuleExecId::compute(firing.rule, firing.node, &firing.inputs);
        self.store_mut(firing.node).remove_rule_exec(rid);
        let entry = ProvEntry {
            rid: Some(rid),
            rloc: firing.node,
        };
        self.remove_prov(firing.head_home, vid, &entry);
    }

    /// The content of a tuple vertex, read at `node` — the node the vertex
    /// is being expanded at — or, when `node` lacks the vertex, at its
    /// [`Self::vertex_home`]. Tuple identifiers are content digests, so
    /// every vertex of a VID holds the same content; a VID with no vertex
    /// anywhere has none.
    pub fn tuple_at(&self, node: NodeId, vid: TupleId) -> Option<&Tuple> {
        let at = |node| self.store(node)?.vertex(vid).map(|(tuple, _)| tuple);
        at(node).or_else(|| at(self.vertex_home(vid)?))
    }

    /// The home node of a tuple vertex: the node whose `prov` table has it
    /// (the first in store-creation order when one base fact was inserted at
    /// several nodes). A keyed read of the home index.
    pub fn vertex_home(&self, vid: TupleId) -> Option<NodeId> {
        self.homes
            .first
            .get(&vid)
            .map(|&slot| self.stores[slot as usize].node)
    }

    /// Aggregate statistics across all stores, counted off their records.
    pub fn stats(&self) -> SystemStats {
        let mut stats = SystemStats {
            firings_applied: self.firings_applied,
            retractions_applied: self.retractions_applied,
            ..SystemStats::default()
        };
        for store in &self.stores {
            stats.tuple_vertices += store.vertex_count();
            for (tuple, entries) in store.iter_prov() {
                stats.prov_entries += entries.len();
                stats.bytes += tuple.wire_size();
                stats.bytes += entries.iter().map(ProvEntry::wire_size).sum::<usize>();
            }
            for exec in store.iter_rule_execs() {
                stats.rule_execs += 1;
                stats.bytes += exec.wire_size();
            }
        }
        stats
    }

    /// A stable digest of the whole system's canonical content (stores in
    /// name order).
    pub fn content_digest(&self) -> u64 {
        let mut h = nt_runtime::StableHasher::new();
        for store in self.stores() {
            h.write_u64(store.content_digest());
        }
        h.finish()
    }
}

/// Equal when the counters and every store, in node-name order, are equal.
impl PartialEq for ProvenanceSystem {
    fn eq(&self, other: &Self) -> bool {
        self.firings_applied == other.firings_applied
            && self.retractions_applied == other.retractions_applied
            && self.stores().eq(other.stores())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{base_rule_sym, Sym, Value};

    fn tuple(rel: &str, node: &str, x: i64) -> Tuple {
        Tuple::new(rel, vec![Value::addr(node), Value::Int(x)])
    }

    fn base_firing(t: &Tuple, node: &str) -> Firing {
        Firing {
            rule: base_rule_sym(),
            node: node.into(),
            head: t.clone(),
            head_home: node.into(),
            inputs: Default::default(),
            insert: true,
        }
    }

    fn rule_firing(rule: &str, exec: &str, head: &Tuple, home: &str, inputs: &[Tuple]) -> Firing {
        Firing {
            rule: Sym::new(rule),
            node: exec.into(),
            head: head.clone(),
            head_home: home.into(),
            inputs: inputs.iter().map(Tuple::id).collect(),
            insert: true,
        }
    }

    #[test]
    fn base_and_derived_firings_build_the_graph() {
        let mut sys = ProvenanceSystem::new(["n1", "n2"]);
        let link = tuple("link", "n1", 5);
        let cost = tuple("cost", "n2", 5);
        sys.apply_firing(&base_firing(&link, "n1"));
        // Rule fires at n1 but the head lives at n2: the firing n2 reports
        // when the record arrives.
        sys.apply_firing(&rule_firing(
            "r1",
            "n1",
            &cost,
            "n2",
            std::slice::from_ref(&link),
        ));

        let n1 = sys.store("n1").unwrap();
        let n2 = sys.store("n2").unwrap();
        assert!(n1.has_vertex(link.id()));
        assert_eq!(n1.iter_rule_execs().count(), 1);
        let (tuple, entries) = n2.vertex(cost.id()).unwrap();
        assert_eq!(tuple, &cost);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rloc, "n1");
        assert_eq!(sys.vertex_home(cost.id()), Some(NodeId::new("n2")));
        assert_eq!(sys.tuple_at("n1".into(), link.id()), Some(&link));
        // A miss at the asked node reads the vertex at its home.
        assert_eq!(sys.tuple_at("n2".into(), link.id()), Some(&link));
        assert_eq!(sys.tuple_at("n2".into(), TupleId(0)), None);
        // An input is named by id: n1 holds no copy of a tuple homed at n2.
        assert!(!n1.has_vertex(cost.id()));
    }

    #[test]
    fn retractions_remove_entries() {
        let mut sys = ProvenanceSystem::new(["n1"]);
        let link = tuple("link", "n1", 5);
        let cost = tuple("cost", "n1", 5);
        sys.apply_firing(&base_firing(&link, "n1"));
        let f = rule_firing("r1", "n1", &cost, "n1", std::slice::from_ref(&link));
        sys.apply_firing(&f);
        assert_eq!(sys.stats().prov_entries, 2);
        assert_eq!(sys.stats().rule_execs, 1);

        let mut retraction = f.clone();
        retraction.insert = false;
        sys.apply_firing(&retraction);
        assert_eq!(sys.stats().rule_execs, 0);
        assert!(!sys.store("n1").unwrap().has_vertex(cost.id()));

        let mut base_retract = base_firing(&link, "n1");
        base_retract.insert = false;
        sys.apply_firing(&base_retract);
        assert_eq!(sys.stats().prov_entries, 0);
        assert_eq!(sys.stats().retractions_applied, 2);
    }

    /// The counters and the record bytes: one base entry, one rule
    /// execution with one input, and their two vertices' tuples.
    #[test]
    fn stats_count_the_stores_records() {
        let mut sys = ProvenanceSystem::new(["n1"]);
        let link = tuple("link", "n1", 5);
        let cost = tuple("cost", "n1", 5);
        sys.apply_firing(&base_firing(&link, "n1"));
        sys.apply_firing(&rule_firing(
            "r1",
            "n1",
            &cost,
            "n1",
            std::slice::from_ref(&link),
        ));
        let stats = sys.stats();
        assert_eq!(
            (stats.prov_entries, stats.rule_execs, stats.tuple_vertices),
            (2, 1, 2)
        );
        let records = 2 * (8 + 4) + (8 + 4 + 4 + 8) + link.wire_size() + cost.wire_size();
        assert_eq!(stats.bytes, records);
    }

    #[test]
    fn duplicate_firings_are_idempotent() {
        let mut sys = ProvenanceSystem::new(["n1"]);
        let link = tuple("link", "n1", 5);
        let cost = tuple("cost", "n1", 5);
        sys.apply_firing(&base_firing(&link, "n1"));
        let f = rule_firing("r1", "n1", &cost, "n1", std::slice::from_ref(&link));
        sys.apply_firing(&f);
        sys.apply_firing(&f);
        assert_eq!(sys.stats().prov_entries, 2);
        assert_eq!(sys.stats().rule_execs, 1);
    }

    #[test]
    fn alternative_derivations_accumulate_prov_entries() {
        let mut sys = ProvenanceSystem::new(["n1"]);
        let l1 = tuple("link", "n1", 1);
        let l2 = tuple("link", "n1", 2);
        let reach = Tuple::new("reach", vec![Value::addr("n1"), Value::addr("n9")]);
        sys.apply_firing(&base_firing(&l1, "n1"));
        sys.apply_firing(&base_firing(&l2, "n1"));
        sys.apply_firing(&rule_firing("r1", "n1", &reach, "n1", &[l1]));
        sys.apply_firing(&rule_firing("r1", "n1", &reach, "n1", &[l2]));
        let (_, entries) = sys.store("n1").unwrap().vertex(reach.id()).unwrap();
        assert_eq!(entries.len(), 2, "two alternative derivations recorded");
    }

    #[test]
    fn lazily_created_stores_are_addressable() {
        let mut sys = ProvenanceSystem::new(Vec::<String>::new());
        let link = tuple("link", "n7", 1);
        sys.apply_firing(&base_firing(&link, "n7"));
        assert!(sys.store("n7").unwrap().has_vertex(link.id()));
        assert_eq!(sys.nodes(), vec![NodeId::new("n7")]);
    }
}
