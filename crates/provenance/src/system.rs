//! The distributed provenance maintenance engine: a shard router over
//! [`ProvenanceShard`]s.
//!
//! A [`ProvenanceSystem`] owns one [`ProvenanceStore`] per node and consumes
//! the rule-execution events ([`Firing`]) emitted by the per-node runtime
//! engines. For every derivation it:
//!
//! 1. stores a `ruleExec` record at the node where the rule executed, and
//! 2. stores (or ships, when the head lives elsewhere) a `prov` entry at the
//!    head tuple's home node.
//!
//! Retraction firings remove the corresponding entries, so the provenance
//! graph is maintained *incrementally* as network state changes — the property
//! the paper demonstrates with link failures and mobile networks.
//!
//! ## Sharded maintenance
//!
//! The stores are partitioned across `S` shards by a stable hash of the node
//! name ([`nt_runtime::shard_route`]); each shard keeps its stores in a dense
//! arena, so one firing is applied with two integer-keyed lookups and zero
//! string clones or comparisons. A round of firings
//! ([`ProvenanceSystem::apply_round`]) is partitioned by
//! [`Firing::home_shard`], cross-shard `ruleExec` halves are handed to the
//! shard that owns the executing node ([`MaintRecord`]s, in process), and
//! per-shard maintenance then runs in parallel — the
//! per-shard apply closures (over disjoint `&mut` shard slices) are
//! dispatched to the persistent worker pool ([`crate::pool`]), each
//! merge-applying its substream and incoming records in stream-sequence
//! order. See the
//! [`crate::shard`] module documentation for the determinism argument: the
//! resulting stores and [`SystemStats`] are bit-identical for every shard
//! count.
//!
//! ## Reads
//!
//! Resolving a vertex is a keyed read, as `prov(@Loc, VID, ..)` keyed by VID
//! at `Loc` is in the paper: [`ProvenanceSystem::vertex_home`] reads the
//! `vid → store` home index each shard maintains with its writes, and
//! [`ProvenanceSystem::tuple_at`] reads the vertex — which holds its tuple —
//! at the node it is expanded at, or else at its home. Neither grows with
//! the number of nodes.
//!
//! The cross-node shipments of `prov` entries are the **maintenance traffic**
//! of provenance capture; the system records it in a
//! [`simnet::TrafficStats`] under the `"prov-maintenance"` category so the
//! overhead experiment (E4 of `nettrails-bench`'s `report`) can report it
//! next to the protocol's own traffic. Cross-**shard** exchange is a
//! separate, shard-count-dependent metric reported by
//! [`ProvenanceSystem::shard_stats`].
//!
//! A system has no serialized form. A snapshot carries the graph assembled
//! from it ([`crate::ProvGraph`]) and each store's sizes, so a system is
//! built only by applying firings.

pub use crate::shard::MAINTENANCE_CATEGORY;

use crate::shard::{MaintRecord, ProvenanceShard, ShardStats};
use crate::store::ProvenanceStore;
use nt_runtime::{shard_route, Addr, Firing, NodeId, Tuple, TupleId};
use simnet::TrafficStats;
use std::sync::OnceLock;

/// Rounds at least this large run their apply phase on the persistent
/// worker pool; smaller rounds run the identical phase inline (same
/// routing, same batch exchange, same result — dispatching is purely an
/// execution detail).
const SPAWN_THRESHOLD: usize = 64;

/// True when this machine can actually run shard workers concurrently.
/// On a single-core host worker dispatch only adds scheduling overhead, so
/// the apply phase runs inline there — the exact same `apply_pass` code, so
/// the result is identical; only wall-clock differs.
fn workers_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get() > 1)
            .unwrap_or(false)
    })
}

/// Aggregate statistics across every node's provenance store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Total `prov` entries.
    pub prov_entries: usize,
    /// Total `ruleExec` entries.
    pub rule_execs: usize,
    /// Total tuple vertices.
    pub tuple_vertices: usize,
    /// Total one-time dictionary bytes across stores.
    pub dict_bytes: usize,
    /// Total approximate bytes of provenance state.
    pub bytes: usize,
    /// Firings processed (derivations).
    pub firings_applied: u64,
    /// Retractions processed.
    pub retractions_applied: u64,
}

/// The distributed provenance maintenance engine: per-node stores re-homed
/// into `S` hash-partitioned shards, with rounds maintained shard-parallel.
#[derive(Debug, Clone)]
pub struct ProvenanceSystem {
    shards: Vec<ProvenanceShard>,
    traffic: TrafficStats,
    firings_applied: u64,
    retractions_applied: u64,
    shard_stats: ShardStats,
}

impl Default for ProvenanceSystem {
    fn default() -> Self {
        ProvenanceSystem::with_shard_count(1)
    }
}

impl ProvenanceSystem {
    /// Create a single-shard system with stores for the given nodes.
    pub fn new(nodes: impl IntoIterator<Item = impl Into<NodeId>>) -> Self {
        Self::with_shards(nodes, 1)
    }

    /// Create a system with stores for the given nodes, partitioned across
    /// `shards` worker shards (clamped to at least 1).
    pub fn with_shards(nodes: impl IntoIterator<Item = impl Into<NodeId>>, shards: usize) -> Self {
        let mut system = ProvenanceSystem::with_shard_count(shards);
        for n in nodes {
            system.store_mut(n.into());
        }
        system
    }

    fn with_shard_count(shards: usize) -> Self {
        let shards = shards.max(1);
        ProvenanceSystem {
            shards: vec![ProvenanceShard::default(); shards],
            traffic: TrafficStats::default(),
            firings_applied: 0,
            retractions_applied: 0,
            shard_stats: ShardStats {
                shards,
                ..ShardStats::default()
            },
        }
    }

    /// Number of shards the store arena is partitioned into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a node's store is homed on (stable name hash — the single
    /// resolution path shared with [`Firing::home_shard`]).
    pub fn shard_of(&self, node: NodeId) -> usize {
        shard_route(node, self.shards.len())
    }

    /// Iterate over the shards (router order).
    pub fn shards(&self) -> impl Iterator<Item = &ProvenanceShard> {
        self.shards.iter()
    }

    /// Access a node's store (creating it lazily if unknown). Crate-private:
    /// a caller holding `&mut` to a store inside the system could create or
    /// drop vertices behind the shard's home index.
    pub(crate) fn store_mut(&mut self, node: impl Into<NodeId>) -> &mut ProvenanceStore {
        let node = node.into();
        let shard = self.shard_of(node);
        self.shards[shard].store_mut(node)
    }

    /// Access a node's store. This is the single interned accessor: any
    /// `Into<NodeId>` (a `NodeId`, `&str`, `String`, …) is interned once and
    /// routed through the same shard hash the maintenance path uses.
    pub fn store(&self, node: impl Into<NodeId>) -> Option<&ProvenanceStore> {
        let node = node.into();
        self.shards[self.shard_of(node)].store(node)
    }

    /// Iterate over all stores in node-name order (deterministic and
    /// independent of the shard count and of store creation history).
    pub fn stores(&self) -> impl Iterator<Item = &ProvenanceStore> {
        let mut all: Vec<&ProvenanceStore> = self
            .shards
            .iter()
            .flat_map(ProvenanceShard::stores)
            .collect();
        all.sort_by_key(|s| s.node);
        all.into_iter()
    }

    /// Node names with provenance state, in name order.
    pub fn nodes(&self) -> Vec<Addr> {
        self.stores().map(|s| s.node).collect()
    }

    /// Cross-node provenance maintenance traffic recorded so far. This is a
    /// node-placement metric: identical for every shard count.
    pub fn maintenance_traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Cross-shard exchange metrics (hand-offs, records). The only numbers
    /// that vary with the shard count.
    pub fn shard_stats(&self) -> &ShardStats {
        &self.shard_stats
    }

    /// Apply one rule-execution event from a runtime engine.
    pub fn apply_firing(&mut self, firing: &Firing) {
        self.apply_refs(&[firing]);
    }

    /// Apply every firing in a batch (the usual pattern after an engine run).
    pub fn apply_firings<'a>(&mut self, firings: impl IntoIterator<Item = &'a Firing>) {
        let refs: Vec<&Firing> = firings.into_iter().collect();
        self.apply_refs(&refs);
    }

    /// Apply one round's firing stream through the sharded pipeline:
    /// partition by [`Firing::home_shard`], hand cross-shard `ruleExec`
    /// halves to their shards, then run per-shard maintenance in
    /// parallel, each shard merge-applying its substream and incoming
    /// records in stream-sequence order. With a single shard this
    /// degenerates to the sequential path; the result is bit-identical
    /// either way.
    pub fn apply_round(&mut self, firings: &[Firing]) {
        let refs: Vec<&Firing> = firings.iter().collect();
        self.apply_refs(&refs);
    }

    fn apply_refs(&mut self, firings: &[&Firing]) {
        for f in firings {
            if f.insert {
                self.firings_applied += 1;
            } else {
                self.retractions_applied += 1;
            }
        }
        let n = self.shards.len();
        if n == 1 {
            // Single shard: every exec half is local; apply in stream order.
            let shard = &mut self.shards[0];
            for f in firings {
                shard.apply_home(f, true, &mut self.traffic);
            }
            return;
        }
        if firings.is_empty() {
            return;
        }
        self.shard_stats.phased_rounds += 1;
        // Route: partition the stream by home shard (sequence-tagged, so the
        // apply phase can reproduce the global order per shard; exec
        // locality precomputed so workers never re-hash) and collect the
        // cross-shard ruleExec halves into per-(src, dst) outboxes.
        let mut routed: Vec<Vec<(u32, bool, &Firing)>> = vec![Vec::new(); n];
        let mut outboxes: Vec<Vec<Vec<MaintRecord>>> = vec![vec![Vec::new(); n]; n];
        let base = nt_runtime::base_rule_sym();
        for (seq, f) in firings.iter().enumerate() {
            let seq = seq as u32;
            let home = f.home_shard(n);
            let mut exec_local = true;
            if f.rule != base {
                let exec = f.exec_shard(n);
                if exec != home {
                    exec_local = false;
                    outboxes[home][exec].push(MaintRecord::from_firing(seq, f));
                }
            }
            routed[home].push((seq, exec_local, f));
        }
        // Exchange: hand each destination its records in ascending sequence
        // order, counting one hand-off per non-empty (src, dst) pair.
        let mut incoming: Vec<Vec<MaintRecord>> = vec![Vec::new(); n];
        for outbox in outboxes {
            for (dst, records) in outbox.into_iter().enumerate() {
                if records.is_empty() {
                    continue;
                }
                self.shard_stats.cross_shard_batches += 1;
                self.shard_stats.cross_shard_records += records.len() as u64;
                incoming[dst].extend(records);
            }
        }
        for records in &mut incoming {
            records.sort_by_key(|r| r.seq);
        }
        // Apply: per-shard maintenance, merging each shard's substream with
        // its incoming records by sequence number. Small rounds run the
        // shards one after another and count traffic straight into the
        // system's counters; large ones hand disjoint `&mut` shard slices to
        // long-lived pool workers, each counting into a delta of its own
        // that is merged afterwards (commutative sums, so the totals are
        // identical either way).
        let threaded = firings.len() >= SPAWN_THRESHOLD && workers_available();
        if threaded {
            self.shard_stats.parallel_rounds += 1;
            // Dispatch the per-shard apply closures to the persistent worker
            // pool: long-lived threads parked on a queue, so deep fixpoints
            // stop paying a spawn/join per round. run_borrowed blocks until
            // every task acknowledged, which is what makes handing the
            // disjoint `&mut` shard borrows to the pool sound.
            let tasks: Vec<Box<dyn FnOnce() -> TrafficStats + Send + '_>> = self
                .shards
                .iter_mut()
                .zip(routed.iter().zip(incoming.iter()))
                .map(|(shard, (stream, execs))| {
                    Box::new(move || {
                        let mut traffic = TrafficStats::default();
                        apply_pass(shard, stream, execs, &mut traffic);
                        traffic
                    }) as Box<dyn FnOnce() -> TrafficStats + Send + '_>
                })
                .collect();
            for delta in crate::pool::run_borrowed(tasks) {
                self.traffic.merge(&delta);
            }
        } else {
            for (shard, (stream, execs)) in self
                .shards
                .iter_mut()
                .zip(routed.iter().zip(incoming.iter()))
            {
                apply_pass(shard, stream, execs, &mut self.traffic);
            }
        }
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
    /// (the first in shard, then store-creation order when one base fact was
    /// inserted at several nodes). A keyed read of each shard's home index.
    pub fn vertex_home(&self, vid: TupleId) -> Option<NodeId> {
        self.shards.iter().find_map(|shard| shard.vertex_home(vid))
    }

    /// Record a raw `prov` entry for `head` at `node`, through the shard's
    /// indexed write — for tests that hand-build stores no capture produces.
    #[cfg(test)]
    pub(crate) fn add_prov(&mut self, node: NodeId, head: &Tuple, entry: crate::store::ProvEntry) {
        let shard = self.shard_of(node);
        self.shards[shard].add_prov(node, head, entry);
    }

    /// Aggregate statistics across all stores. Shard-count invariant.
    pub fn stats(&self) -> SystemStats {
        let mut stats = SystemStats {
            firings_applied: self.firings_applied,
            retractions_applied: self.retractions_applied,
            ..SystemStats::default()
        };
        for store in self.shards.iter().flat_map(ProvenanceShard::stores) {
            let s = store.stats();
            stats.prov_entries += s.prov_entries;
            stats.rule_execs += s.rule_execs;
            stats.tuple_vertices += s.tuple_vertices;
            stats.dict_bytes += s.dict_bytes;
            stats.bytes += s.bytes;
        }
        stats
    }

    /// A stable digest of the whole system's canonical content (stores in
    /// name order) — the quantity the sharding equivalence tests compare
    /// across shard counts.
    pub fn content_digest(&self) -> u64 {
        let mut h = nt_runtime::StableHasher::new();
        for store in self.stores() {
            h.write_u64(store.content_digest());
        }
        h.finish()
    }
}

/// Apply phase of one shard: merge its routed substream (home halves, plus
/// local exec halves) with the [`MaintRecord`]s shipped to it, in ascending
/// stream-sequence order — exactly the schedule the sequential single-shard
/// engine would run for the stores this shard owns. Cross-node maintenance
/// traffic is counted into `traffic`.
fn apply_pass(
    shard: &mut ProvenanceShard,
    stream: &[(u32, bool, &Firing)],
    execs: &[MaintRecord],
    traffic: &mut TrafficStats,
) {
    let mut next_exec = 0usize;
    for &(seq, exec_local, firing) in stream {
        while next_exec < execs.len() && execs[next_exec].seq < seq {
            shard.apply_exec(&execs[next_exec]);
            next_exec += 1;
        }
        shard.apply_home(firing, exec_local, traffic);
    }
    for record in &execs[next_exec..] {
        shard.apply_exec(record);
    }
}

/// Equal when the counters and every store, in node-name order, are equal.
impl PartialEq for ProvenanceSystem {
    fn eq(&self, other: &Self) -> bool {
        self.shards.len() == other.shards.len()
            && self.traffic == other.traffic
            && self.firings_applied == other.firings_applied
            && self.retractions_applied == other.retractions_applied
            && self.shard_stats == other.shard_stats
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
        // Rule fires at n1 but the head lives at n2 -> prov entry shipped.
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
        // Maintenance traffic was charged for the cross-node prov entry.
        assert_eq!(
            sys.maintenance_traffic()
                .category_messages(MAINTENANCE_CATEGORY),
            1
        );
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

    /// The same firing stream produces the same graph, stats and digest for
    /// every shard count — the core determinism guarantee of the router.
    #[test]
    fn shard_count_does_not_change_the_graph() {
        let nodes: Vec<String> = (0..12).map(|i| format!("m{i}")).collect();
        let mut stream = Vec::new();
        let mut links = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let link = tuple("link", node, i as i64);
            stream.push(base_firing(&link, node));
            links.push(link);
        }
        for (i, link) in links.iter().enumerate() {
            // Rule fires at node i, head homed at node (i+5) % 12: most
            // firings cross both nodes and shards.
            let head = tuple("cost", &nodes[(i + 5) % nodes.len()], i as i64);
            stream.push(rule_firing(
                "r1",
                &nodes[i],
                &head,
                &nodes[(i + 5) % nodes.len()],
                std::slice::from_ref(link),
            ));
        }
        // Retract a third of the derived heads.
        for (i, link) in links.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
            let head = tuple("cost", &nodes[(i + 5) % nodes.len()], i as i64);
            let mut r = rule_firing(
                "r1",
                &nodes[i],
                &head,
                &nodes[(i + 5) % nodes.len()],
                std::slice::from_ref(link),
            );
            r.insert = false;
            stream.push(r);
        }

        let mut single = ProvenanceSystem::with_shards(nodes.iter(), 1);
        single.apply_round(&stream);
        for shards in [2usize, 4, 8] {
            let mut sharded = ProvenanceSystem::with_shards(nodes.iter(), shards);
            sharded.apply_round(&stream);
            assert_eq!(sharded.content_digest(), single.content_digest());
            assert_eq!(sharded.stats(), single.stats());
            assert_eq!(
                sharded.maintenance_traffic(),
                single.maintenance_traffic(),
                "cross-node maintenance traffic is placement, not sharding"
            );
            assert_eq!(sharded.nodes(), single.nodes());
        }
    }

    /// Large rounds dispatch their apply phase to the persistent worker
    /// pool: the workers are spawned once and reused, never re-spawned per
    /// round.
    #[test]
    fn parallel_rounds_reuse_the_persistent_worker_pool() {
        if !workers_available() {
            return; // single-core host: the apply phase runs inline
        }
        let nodes: Vec<String> = (0..16).map(|i| format!("p{i:02}")).collect();
        let mut stream = Vec::new();
        for i in 0..(2 * SPAWN_THRESHOLD) {
            let t = tuple("link", &nodes[i % nodes.len()], i as i64);
            stream.push(base_firing(&t, &nodes[i % nodes.len()]));
        }
        let mut sys = ProvenanceSystem::with_shards(nodes.iter(), 4);
        sys.apply_round(&stream);
        assert_eq!(sys.shard_stats().parallel_rounds, 1);
        let workers = crate::pool::workers();
        assert!(workers > 0, "pool engaged for a large round");
        let jobs = crate::pool::jobs_executed();
        sys.apply_round(&stream);
        assert_eq!(sys.shard_stats().parallel_rounds, 2);
        assert_eq!(
            crate::pool::workers(),
            workers,
            "workers are reused, not re-spawned"
        );
        assert!(
            crate::pool::jobs_executed() >= jobs + 4,
            "second round ran on the pool"
        );
    }

    /// Cross-shard exchange is counted per (source, destination) pair per
    /// round, and a repeated round hands over the same records again.
    #[test]
    fn cross_shard_exchange_is_counted_per_shard_pair_and_round() {
        let nodes: Vec<String> = (0..8).map(|i| format!("x{i}")).collect();
        let mut stream = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let link = tuple("link", node, i as i64);
            stream.push(base_firing(&link, node));
            let head = tuple("cost", &nodes[(i + 3) % nodes.len()], i as i64);
            stream.push(rule_firing(
                "r1",
                node,
                &head,
                &nodes[(i + 3) % nodes.len()],
                std::slice::from_ref(&link),
            ));
        }
        let mut sys = ProvenanceSystem::with_shards(nodes.iter(), 4);
        sys.apply_round(&stream);
        let first = sys.shard_stats().clone();
        assert_eq!(first.shards, 4);
        assert!(first.cross_shard_records > 0, "stream crosses shards");
        assert!(first.cross_shard_batches <= first.cross_shard_records);
        assert!(first.cross_shard_batches <= 4 * 3, "one per shard pair");
        sys.apply_round(&stream);
        let second = sys.shard_stats().clone();
        assert_eq!(
            (second.cross_shard_batches, second.cross_shard_records),
            (first.cross_shard_batches * 2, first.cross_shard_records * 2),
            "same exchange volume"
        );
    }
}
