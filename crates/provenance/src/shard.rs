//! One shard of the partitioned provenance arena, plus the record that
//! crosses between shards.
//!
//! The [`crate::ProvenanceSystem`] router hashes every node into one of `S`
//! shards ([`nt_runtime::shard_route`] — a stable name hash shared with the
//! runtime's firing-stream tags) and re-homes each node's
//! [`ProvenanceStore`] inside its shard's dense arena. A round of firings is
//! then maintained in two steps:
//!
//! 1. **Route + exchange** (serial, cheap): the stream is partitioned by
//!    [`nt_runtime::Firing::home_shard`], each firing tagged with its stream
//!    sequence number. Firings whose executing node is homed on a different
//!    shard than their head get the `ruleExec` half of their maintenance
//!    work — a [`MaintRecord`] — handed to the executing node's shard. The
//!    hand-off is in-process (shards share an address space), so it is
//!    counted ([`ShardStats`]), not priced: no wire, no dictionary.
//! 2. **Apply** (parallel, scoped threads over disjoint `&mut` shard
//!    slices): each shard merge-applies its routed substream (the `prov`
//!    entry of each firing, which brings the head's content when it creates
//!    the vertex, plus the `ruleExec` half when the executing node is local)
//!    and its incoming [`MaintRecord`]s, in ascending sequence order.
//!
//! Determinism: every operation on one store happens at the shard that owns
//! it, and the sequence-ordered merge applies those operations in exactly
//! the order the sequential single-shard engine would. The resulting stores
//! are bit-identical for every shard count; only the cross-shard exchange
//! metrics ([`ShardStats`]) vary with `S`.

use crate::store::{ProvEntry, ProvenanceStore, RuleExec, RuleExecId};
use nt_runtime::{Firing, IdMap, NodeId, Sym, Tuple, TupleId};
use simnet::TrafficStats;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Category name used for provenance-maintenance traffic.
pub const MAINTENANCE_CATEGORY: &str = "prov-maintenance";

/// The `ruleExec` half of a firing whose executing node is homed on another
/// shard: everything the destination shard needs to maintain its `ruleExec`
/// table at the right stream position — the sequence number, polarity, rule
/// and node, and the input posting list. Inputs travel as ids only: an
/// input's content is its vertex's, at its own home.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintRecord {
    /// Round-local stream sequence number of the originating firing; the
    /// destination shard merge-applies records and its own substream in
    /// ascending sequence order, reproducing the sequential schedule.
    pub seq: u32,
    /// True for a derivation, false for a retraction.
    pub insert: bool,
    /// Rule name (interned).
    pub rule: Sym,
    /// The executing node — the record's destination store.
    pub node: NodeId,
    /// Input tuple identifiers, in body order (the firing's list, shared).
    pub inputs: Arc<[TupleId]>,
}

impl MaintRecord {
    /// Build the shippable `ruleExec` half of a derived firing. The caller
    /// (the router) is responsible for only doing this when the executing
    /// node is homed on a different shard than the head. The rule-execution
    /// id is *not* carried: it is a stable digest of (rule, node, inputs),
    /// so the destination shard derives it, off the serial routing path.
    pub fn from_firing(seq: u32, firing: &Firing) -> Self {
        debug_assert!(firing.rule != nt_runtime::base_rule_sym());
        MaintRecord {
            seq,
            insert: firing.insert,
            rule: firing.rule,
            node: firing.node,
            inputs: firing.inputs.clone(),
        }
    }

    /// The rule-execution id this record maintains (derived, never shipped).
    pub fn rid(&self) -> RuleExecId {
        RuleExecId::compute(self.rule, self.node, &self.inputs)
    }
}

/// Cross-shard exchange metrics of the sharded maintenance engine. These are
/// the only numbers that legitimately vary with the shard count; the graph,
/// per-store digests and [`crate::SystemStats`] are shard-count-invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards the arena is partitioned into.
    pub shards: usize,
    /// Rounds applied through the route/exchange/apply pipeline.
    pub phased_rounds: u64,
    /// Rounds whose apply phase actually ran on scoped worker threads
    /// (small rounds run the same phase inline).
    pub parallel_rounds: u64,
    /// Non-empty (source shard, destination shard) hand-offs, one per pair
    /// per round.
    pub cross_shard_batches: u64,
    /// Maintenance records those hand-offs carried.
    pub cross_shard_records: u64,
}

/// Which store of a shard has a tuple vertex: `vid → arena slot`, the keyed
/// read behind [`crate::ProvenanceSystem::vertex_home`]. It answers exactly
/// what a scan of the arena in creation order would: the lowest slot whose
/// store has the vertex.
///
/// A lookup structure, not state: derived from the stores' `prov` tables,
/// maintained where a vertex is created or dropped, never iterated, compared
/// or priced.
#[derive(Debug, Clone, Default)]
struct HomeIndex {
    /// The lowest arena slot whose store has the vertex.
    first: IdMap<TupleId, u32>,
    /// Vids homed at more than one store of this shard (one base fact
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

/// One shard of the provenance arena: the stores of every node whose stable
/// name hash routes here, in a dense creation-order arena (the same layout
/// the pre-sharding `ProvenanceSystem` used for the whole network), read
/// through the `vid → store` home index the shard maintains with its writes.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceShard {
    stores: Vec<ProvenanceStore>,
    by_node: IdMap<NodeId, u32>,
    homes: HomeIndex,
}

impl ProvenanceShard {
    /// Number of stores homed on this shard.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True when no node is homed on this shard.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
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

    /// Access a node's store (creating it lazily if unknown). The caller is
    /// responsible for routing: the node must hash to this shard.
    pub(crate) fn store_mut(&mut self, node: NodeId) -> &mut ProvenanceStore {
        let slot = self.slot(node);
        &mut self.stores[slot]
    }

    /// Access a node's store.
    pub(crate) fn store(&self, node: NodeId) -> Option<&ProvenanceStore> {
        self.by_node
            .get(&node)
            .map(|&slot| &self.stores[slot as usize])
    }

    /// The first store in arena order whose `prov` table has the vertex.
    pub(crate) fn vertex_home(&self, vid: TupleId) -> Option<NodeId> {
        self.homes
            .first
            .get(&vid)
            .map(|&slot| self.stores[slot as usize].node)
    }

    /// Record one derivation of `head` at `home`'s store: its `prov` entry,
    /// and the vertex with the tuple's content if this is the first. Every
    /// vertex of this shard is created here, so this is where the home index
    /// learns of it.
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

    /// Iterate over this shard's stores in arena (creation) order.
    pub fn stores(&self) -> impl Iterator<Item = &ProvenanceStore> {
        self.stores.iter()
    }

    /// Apply the home half of one firing: the `prov` entry for the head at
    /// `head_home` (which must be homed on this shard), plus the `ruleExec`
    /// half when `exec_local` says the executing node lives here too (when
    /// it does not, the router has already shipped the corresponding
    /// [`MaintRecord`] to the owning shard).
    ///
    /// Cross-**node** maintenance traffic (the paper's E4 overhead metric) is
    /// recorded into `traffic` exactly as the single-shard engine does — that
    /// accounting is about node placement and is independent of sharding.
    pub(crate) fn apply_home(
        &mut self,
        firing: &Firing,
        exec_local: bool,
        traffic: &mut TrafficStats,
    ) {
        if firing.insert {
            self.apply_home_insert(firing, exec_local, traffic);
        } else {
            self.apply_home_retract(firing, exec_local, traffic);
        }
    }

    fn apply_home_insert(&mut self, firing: &Firing, exec_local: bool, traffic: &mut TrafficStats) {
        if firing.rule == nt_runtime::base_rule_sym() {
            let home = firing.head_home;
            let entry = ProvEntry {
                rid: None,
                rloc: home,
            };
            return self.add_prov(home, &firing.head, entry);
        }
        let rid = RuleExecId::compute(firing.rule, firing.node, &firing.inputs);
        // ruleExec lives where the rule fired; apply it here when that is
        // this shard.
        if exec_local {
            self.store_mut(firing.node).add_rule_exec(RuleExec {
                rid,
                rule: firing.rule,
                node: firing.node,
                inputs: firing.inputs.clone(),
            });
        }
        // prov entry lives at the head tuple's home.
        let entry = ProvEntry {
            rid: Some(rid),
            rloc: firing.node,
        };
        if firing.head_home != firing.node {
            traffic.record(
                firing.node,
                firing.head_home,
                MAINTENANCE_CATEGORY,
                entry.wire_size() + firing.head.wire_size(),
            );
        }
        self.add_prov(firing.head_home, &firing.head, entry);
    }

    fn apply_home_retract(
        &mut self,
        firing: &Firing,
        exec_local: bool,
        traffic: &mut TrafficStats,
    ) {
        let vid = firing.head.id();
        if firing.rule == nt_runtime::base_rule_sym() {
            let home = firing.head_home;
            self.remove_prov(
                home,
                vid,
                &ProvEntry {
                    rid: None,
                    rloc: home,
                },
            );
            return;
        }
        let rid = RuleExecId::compute(firing.rule, firing.node, &firing.inputs);
        if exec_local {
            self.store_mut(firing.node).remove_rule_exec(rid);
        }
        let entry = ProvEntry {
            rid: Some(rid),
            rloc: firing.node,
        };
        if firing.head_home != firing.node {
            traffic.record(
                firing.node,
                firing.head_home,
                MAINTENANCE_CATEGORY,
                entry.wire_size(),
            );
        }
        self.remove_prov(firing.head_home, vid, &entry);
    }

    /// Apply a shipped `ruleExec` half at the executing node's store (which
    /// must be homed on this shard).
    pub(crate) fn apply_exec(&mut self, record: &MaintRecord) {
        let rid = record.rid();
        if record.insert {
            self.store_mut(record.node).add_rule_exec(RuleExec {
                rid,
                rule: record.rule,
                node: record.node,
                inputs: record.inputs.clone(),
            });
        } else {
            self.store_mut(record.node).remove_rule_exec(rid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::Value;

    #[test]
    fn maint_record_from_firing_carries_the_exec_half() {
        let input = Tuple::new("link", vec![Value::addr("n1"), Value::Int(1)]);
        let head = Tuple::new("cost", vec![Value::addr("n2"), Value::Int(1)]);
        let mut firing = Firing {
            rule: Sym::new("r1"),
            node: NodeId::new("n1"),
            head,
            head_home: NodeId::new("n2"),
            inputs: [input.id()].into(),
            insert: true,
        };
        let rec = MaintRecord::from_firing(7, &firing);
        assert_eq!(rec.seq, 7);
        assert!(rec.insert);
        assert_eq!(
            rec.rid(),
            RuleExecId::compute(firing.rule, firing.node, &firing.inputs)
        );
        assert_eq!(rec.inputs, firing.inputs, "inputs travel as ids");
        firing.insert = false;
        let retract = MaintRecord::from_firing(8, &firing);
        assert!(!retract.insert);
        assert_eq!(retract.rid(), rec.rid());
    }
}
