//! Query execution engines: the step-driven distributed [`QueryExecutor`]
//! and the legacy in-process [`QueryEngine`].
//!
//! ## The distributed executor
//!
//! [`QueryExecutor`] runs each submitted [`QuerySpec`] as a session of
//! per-node **frontier state machines**. Expanding a tuple vertex is work
//! performed *at the node that stores its `prov` entries*; fetching a
//! derivation's `ruleExec` record (and the proof subtrees of its inputs,
//! which are local to the executing node) from another node is a real
//! [`QueryOp::ExpandExec`] request that must round-trip through the message
//! layer before the traversal continues. The executor itself never moves a
//! message: [`QueryExecutor::poll`] seals everything its frames staged since
//! the last flush into per-destination [`QueryBatch`] frames (first-use
//! dictionary headers, one frame per direction and destination), and the
//! driver — the platform's round loop — ships them through the simulated
//! network and hands deliveries back to [`QueryExecutor::deliver`].
//!
//! What travels back is the session kind's fold (`query::fold`): each frame
//! holds its vertex's facts and one slot per child value, and completes by
//! folding them. A lineage frame's value is its proof subtree; a count, base
//! set or node set frame's is that value, so a [`QueryOp::VertexDone`] or
//! [`QueryOp::ExecDone`] carries eight bytes or a set, not a tree, and only
//! lineage and base-set sessions copy tuples.
//!
//! Traversal order is therefore an *execution schedule*, not a latency
//! formula: [`TraversalOrder::DepthFirst`] keeps exactly one request
//! outstanding per session, while [`TraversalOrder::BreadthFirst`] fans out
//! every frontier child concurrently (coalesced per destination), and the
//! session's [`QueryStats::latency_ms`] is measured off the simulated clock
//! between submission and the final frame.
//!
//! The state machines replay the legacy recursion *exactly* — same visit
//! counts, same pruning decisions, same cache-consultation points, same
//! resulting values — which is what the distributed-vs-local equivalence
//! suite (`tests/proptest_query_equivalence.rs` at the workspace root)
//! verifies. Concurrent breadth-first expansions of the same `(vid, node)`
//! sub-query under caching are deferred onto the in-flight computation
//! instead of racing it, preserving the sequential engine's hit counts.
//!
//! A session allocates what its answer holds, little more. The cycle-guard
//! path is an `Arc<[TupleId]>`: [`QueryOp::ExpandExec`] and every input
//! frame of one derivation share the one slice built for it. A finished
//! lineage frame's slots become its tree's `derivations` / `inputs` in their
//! own buffer, and only lineage streams root-level derivations as partials. A breadth-first vertex issues its derivations from the store's
//! entries in place, and a depth-first one copies them only when it has a
//! derivation, because only then does its scan resume later. Sealing walks
//! each record once and stores the body length in the [`QueryBatch`].
//! `crates/nettrails/tests/allocations_per_session.rs` counts what is left,
//! by owner.
//!
//! ## The legacy engine
//!
//! [`QueryEngine`] is the original synchronous recursion over
//! [`ProvenanceSystem`], folding through the same `query::fold` as the
//! executor. It generates no wire traffic and *estimates* hop
//! latency from [`QueryEngine::hop_rtt_ms`]. It remains the
//! [`QueryMode::Local`] path: the equivalence oracle, and the natural
//! choice for single-process embeddings (the BGP harness, the log store).
//!
//! Both engines share one [`QueryCache`] design: entries are keyed
//! `(vid, node, kind)`, hold the kind's value of the subtree, and are
//! stamped with the mutation version of every store the subtree was read
//! from, so a sub-result cached before an incremental delete can never be
//! served after it — the cache is consulted, found stale, evicted and
//! recomputed. A lineage tree names those stores and a node set is them;
//! a cached count or base set has its frames carry the node set beside the
//! value (`Folded::nodes`), which is what its stamp is made of.

use crate::query::api::{
    ProofTree, QueryHandle, QueryKind, QueryMode, QueryOptions, QueryResult, QuerySpec, QueryStats,
    RuleExecNode, TraversalOrder, QUERY_CATEGORY,
};
use crate::query::fold::{Fold, Folded, Head};
use crate::query::wire::{QueryBatch, QueryOp};
use crate::store::{ProvEntry, RuleExecId};
use crate::system::ProvenanceSystem;
use nt_runtime::{Dictionary, IdMap, IdSet, NodeId, Sym, Tuple, TupleId};
use simnet::{SimTime, TrafficStats};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// shared result cache
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct CacheEntry {
    value: QueryResult,
    /// Mutation version of every store the subtree was read from (its own
    /// home plus every descendant vertex's home and executing node), at the
    /// time it was computed. `None` records a store that did not exist.
    deps: Vec<(NodeId, Option<u64>)>,
}

/// Result cache shared in design by both engines: `(vid, node, kind)` → the
/// kind's value of the subtree, validated on every lookup against the
/// mutation versions of **all** the stores the subtree was read from — not
/// just the root's home, since a descendant node's churn changes the
/// subtree without touching the root's own store. Maintenance that touches
/// any involved store (incremental deletes included) bumps its version, so
/// stale entries are evicted instead of served.
#[derive(Debug, Default)]
pub struct QueryCache {
    map: IdMap<(TupleId, NodeId, QueryKind), CacheEntry>,
}

impl QueryCache {
    /// Look up a cached subtree, evicting it if any store it depends on has
    /// changed since it was computed. A stamped fold's hit carries the
    /// entry's stamp as its node set.
    fn lookup(
        &mut self,
        system: &ProvenanceSystem,
        vid: TupleId,
        node: NodeId,
        fold: Fold,
    ) -> Option<Folded<ProofTree>> {
        match self.map.entry((vid, node, fold.kind)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let entry = e.get();
                let fresh = entry
                    .deps
                    .iter()
                    .all(|(dep, version)| system.store(*dep).map(|s| s.version()) == *version);
                if fresh {
                    Some(Folded {
                        value: entry.value.clone(),
                        nodes: fold
                            .stamped
                            .then(|| entry.deps.iter().map(|(dep, _)| *dep).collect()),
                    })
                } else {
                    e.remove();
                    None
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => None,
        }
    }

    /// Cache a computed subtree, stamped with the current version of every
    /// store it was read from.
    fn insert(
        &mut self,
        system: &ProvenanceSystem,
        vid: TupleId,
        node: NodeId,
        kind: QueryKind,
        done: &Folded<ProofTree>,
    ) {
        // The stores a subtree was read from are the nodes its tree names:
        // a lineage value is that tree, a node-set value is that set, and
        // a stamped fold carries the set beside its value. Both engines
        // stamp identically by construction.
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        nodes.insert(node);
        match (&done.nodes, &done.value) {
            (Some(stamp), _) => nodes.extend(stamp),
            (None, QueryResult::Lineage(tree)) => collect_nodes(tree, &mut nodes),
            (None, QueryResult::ParticipatingNodes(set)) => nodes.extend(set),
            (None, _) => unreachable!("a stamped fold carries its node set"),
        }
        let deps = nodes
            .into_iter()
            .map(|n| (n, system.store(n).map(|s| s.version())))
            .collect();
        self.map.insert(
            (vid, node, kind),
            CacheEntry {
                value: done.value.clone(),
                deps,
            },
        );
    }

    /// Number of cached subtrees.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every cached subtree.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Every node a proof tree touches: each vertex's home and each rule
/// execution's node, the stores the tree was read from.
fn collect_nodes(tree: &ProofTree, out: &mut BTreeSet<NodeId>) {
    out.insert(tree.home);
    for d in &tree.derivations {
        out.insert(d.node);
        for input in &d.inputs {
            collect_nodes(input, out);
        }
    }
}

/// Add a child subtree's node set to its parent's, under a stamped fold.
fn absorb(nodes: &mut Option<BTreeSet<NodeId>>, child: Option<BTreeSet<NodeId>>) {
    if let (Some(nodes), Some(child)) = (nodes, child) {
        nodes.extend(child);
    }
}

/// A vertex read at `node`, the node it is expanded at: its tuple and its
/// `prov` entries in one probe. A node without the vertex has no entries
/// for it, and the tuple is read at the vertex's home.
fn read_vertex(
    system: &ProvenanceSystem,
    node: NodeId,
    vid: TupleId,
) -> (Option<&Tuple>, &[ProvEntry]) {
    match system.store(node).and_then(|s| s.vertex(vid)) {
        Some((tuple, entries)) => (Some(tuple), entries),
        None => (system.tuple_at(node, vid), &[]),
    }
}

// ---------------------------------------------------------------------------
// the legacy in-process engine (QueryMode::Local)
// ---------------------------------------------------------------------------

/// The in-process provenance query engine: a synchronous recursion over the
/// distributed stores, with modelled (not measured) hop latency. This is the
/// [`QueryMode::Local`] execution path; see the module documentation.
#[derive(Debug)]
pub struct QueryEngine {
    cache: QueryCache,
    /// Cumulative traffic across queries.
    traffic: TrafficStats,
    /// Modelled round-trip time charged per cross-node hop, in milliseconds
    /// (the distributed executor *measures* this instead). Drivers that also
    /// run a network should set it to twice the network's per-link delay so
    /// the estimate matches what the wire would measure.
    pub hop_rtt_ms: f64,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine {
            cache: QueryCache::default(),
            traffic: TrafficStats::default(),
            hop_rtt_ms: 2.0,
        }
    }
}

impl QueryEngine {
    /// Create an engine with an empty cache and the default hop estimate.
    pub fn new() -> Self {
        QueryEngine::default()
    }

    /// Create an engine whose latency estimate charges `hop_rtt_ms` per
    /// cross-node hop.
    pub fn with_hop_rtt_ms(hop_rtt_ms: f64) -> Self {
        QueryEngine {
            hop_rtt_ms,
            ..QueryEngine::default()
        }
    }

    /// Cumulative query traffic (all queries so far).
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Clear the result cache.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of cached subtrees.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }

    /// Run a query of `kind` for the tuple `target`, issued from `querier`.
    ///
    /// The tuple's home node is looked up in the provenance system; an
    /// unknown tuple yields an empty result.
    pub fn query(
        &mut self,
        system: &ProvenanceSystem,
        querier: &str,
        target: &Tuple,
        kind: QueryKind,
        options: &QueryOptions,
    ) -> (QueryResult, QueryStats) {
        self.query_vid(system, querier, target.id(), kind, options)
    }

    /// Run a query addressed directly by VID.
    pub fn query_vid(
        &mut self,
        system: &ProvenanceSystem,
        querier: &str,
        vid: TupleId,
        kind: QueryKind,
        options: &QueryOptions,
    ) -> (QueryResult, QueryStats) {
        let spec = QuerySpec {
            querier: NodeId::new(querier),
            vid,
            kind,
            mode: QueryMode::Local,
            options: options.clone(),
        };
        self.run(system, &spec)
    }

    /// Run a compiled [`QuerySpec`] synchronously.
    pub fn run(
        &mut self,
        system: &ProvenanceSystem,
        spec: &QuerySpec,
    ) -> (QueryResult, QueryStats) {
        let mut stats = QueryStats::default();
        let home = system.vertex_home(spec.vid).unwrap_or(spec.querier);
        // The querying node contacts the tuple's home node.
        if home != spec.querier {
            self.charge(&mut stats, spec.querier, home, 64);
        }
        let mut visited = IdSet::default();
        let fold = Fold::new(spec.kind, spec.options.use_cache);
        let done = self.expand(
            system,
            home,
            spec.vid,
            0,
            fold,
            &spec.options,
            &mut stats,
            &mut visited,
        );
        (done.value, stats)
    }

    /// Fold the proof of `vid`, whose `prov` entries live at `node`.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &mut self,
        system: &ProvenanceSystem,
        node: NodeId,
        vid: TupleId,
        depth: usize,
        fold: Fold,
        options: &QueryOptions,
        stats: &mut QueryStats,
        visited: &mut IdSet<TupleId>,
    ) -> Folded<ProofTree> {
        stats.vertices_visited += 1;
        if options.use_cache {
            if let Some(hit) = self.cache.lookup(system, vid, node, fold) {
                stats.cache_hits += 1;
                return hit;
            }
        }
        let (tuple, entries) = read_vertex(system, node, vid);
        let mut head = Head::new(vid, node, fold.tuple(tuple, entries));
        let mut nodes = fold.nodes(node);
        // Cycle guard (the provenance graph is acyclic by construction, but a
        // malformed store must not hang the query engine).
        if !visited.insert(vid) {
            return Folded {
                value: fold.vertex(head, Vec::new()),
                nodes,
            };
        }
        if let Some(max_depth) = options.max_depth {
            if depth >= max_depth {
                head.pruned = true;
                visited.remove(&vid);
                return Folded {
                    value: fold.vertex(head, Vec::new()),
                    nodes,
                };
            }
        }
        let mut expanded = 0usize;
        let mut derivations = Vec::new();
        let mut frontier_hops: Vec<f64> = Vec::new();
        for entry in entries {
            if entry.is_base() {
                head.is_base = true;
                continue;
            }
            if let Some(limit) = options.max_derivations_per_vertex {
                if expanded >= limit {
                    head.pruned = true;
                    break;
                }
            }
            expanded += 1;
            let rid = entry.rid.expect("non-base entry has rid");
            // Fetch the ruleExec record from the node where the rule fired.
            if entry.rloc != node {
                self.charge(stats, node, entry.rloc, 96);
                frontier_hops.push(self.hop_rtt_ms);
            }
            let Some(exec) = system.store(entry.rloc).and_then(|s| s.rule_exec(rid)) else {
                continue;
            };
            let mut exec_nodes = fold.nodes(exec.node);
            // Inputs are local to the executing node: recurse there.
            let inputs = exec
                .inputs
                .iter()
                .map(|input| {
                    let done = self.expand(
                        system,
                        entry.rloc,
                        *input,
                        depth + 1,
                        fold,
                        options,
                        stats,
                        visited,
                    );
                    absorb(&mut exec_nodes, done.nodes);
                    Some(done.value)
                })
                .collect();
            derivations.push(Some(fold.exec(rid, exec.rule, exec.node, inputs)));
            absorb(&mut nodes, exec_nodes);
        }
        visited.remove(&vid);
        let pruned = head.pruned;
        let done = Folded {
            value: fold.vertex(head, derivations),
            nodes,
        };
        if options.use_cache && !pruned {
            self.cache.insert(system, vid, node, fold.kind, &done);
        }
        // Latency model: depth-first pays every hop sequentially; breadth-first
        // overlaps the hops of sibling derivations.
        match options.traversal {
            TraversalOrder::DepthFirst => {
                stats.latency_ms += frontier_hops.iter().sum::<f64>();
            }
            TraversalOrder::BreadthFirst => {
                stats.latency_ms += frontier_hops.iter().cloned().fold(0.0, f64::max);
            }
        }
        done
    }

    fn charge(&mut self, stats: &mut QueryStats, from: NodeId, to: NodeId, bytes: usize) {
        // Request + reply.
        stats.messages += 2;
        stats.records += 2;
        stats.bytes += (bytes + 64) as u64;
        self.traffic.record(from, to, QUERY_CATEGORY, bytes);
        self.traffic.record(to, from, QUERY_CATEGORY, 64);
    }
}

// ---------------------------------------------------------------------------
// the step-driven distributed executor (QueryMode::Distributed)
// ---------------------------------------------------------------------------

/// Where a completed frame's result goes.
#[derive(Debug, Clone, Copy)]
enum Parent {
    /// Session root; `remote` means the querier is a different node than the
    /// target's home, so the finished value travels back as a
    /// [`QueryOp::VertexDone`] frame.
    Root { remote: bool },
    /// Input slot of an exec frame at the same node.
    Exec { frame: u32, slot: u32 },
}

/// Per-vertex expansion state (runs at `node`, the vertex's home).
#[derive(Debug)]
struct VertexFrame {
    node: NodeId,
    vid: TupleId,
    depth: usize,
    /// Ancestor vertices of the traversal (cycle guard; equals the legacy
    /// recursion's `visited` path), shared with the exec frame that spawned
    /// this one and its sibling inputs.
    path: Arc<[TupleId]>,
    parent: Parent,
    /// The vertex's own facts, folded with `children` at completion.
    head: Head,
    /// Depth-first: the vertex's entries from its first derivation on,
    /// scanned from `next_entry` as derivations complete.
    entries: Vec<ProvEntry>,
    next_entry: usize,
    expanded: usize,
    /// One slot per issued derivation, in entry order (`None` for a missing
    /// exec), folded at completion.
    children: Vec<Option<QueryResult<RuleExecNode>>>,
    /// A stamped fold's node set so far.
    nodes: Option<BTreeSet<NodeId>>,
    outstanding: usize,
    /// Breadth-first: all children were issued at start.
    scanned: bool,
    /// This frame registered itself as the in-flight computation for
    /// `(vid, node)` (caching on).
    registered: bool,
    /// Completion was already scheduled; duplicate advance events (fan-out
    /// queues one per child completion) must not re-complete the frame.
    completed: bool,
}

impl VertexFrame {
    fn new(node: NodeId, vid: TupleId, depth: usize, path: Arc<[TupleId]>, parent: Parent) -> Self {
        VertexFrame {
            node,
            vid,
            depth,
            path,
            parent,
            head: Head::new(vid, node, None),
            entries: Vec::new(),
            next_entry: 0,
            expanded: 0,
            children: Vec::new(),
            nodes: None,
            outstanding: 0,
            scanned: false,
            registered: false,
            completed: false,
        }
    }
}

/// Per-rule-execution expansion state (runs at `node`, where the rule
/// fired).
#[derive(Debug)]
struct ExecFrame {
    node: NodeId,
    rid: RuleExecId,
    /// Depth of the requesting vertex (inputs expand at `depth + 1`).
    depth: usize,
    /// Cycle-guard path for the input subtrees (requester's path plus the
    /// requesting vid): built once, shared by the request record and every
    /// input frame.
    path: Arc<[TupleId]>,
    /// Awaiting vertex frame and its derivation slot.
    parent_frame: u32,
    parent_slot: u32,
    /// The awaiting vertex lives on another node: the finished value
    /// travels back as a [`QueryOp::ExecDone`] frame.
    remote: bool,
    /// The stored `ruleExec`'s rule and node, once found.
    record: Option<(Sym, NodeId)>,
    /// The stored `ruleExec`'s input list, shared.
    input_vids: Arc<[TupleId]>,
    /// One slot per input, in body order, folded at completion.
    inputs: Vec<Option<QueryResult>>,
    /// A stamped fold's node set so far.
    nodes: Option<BTreeSet<NodeId>>,
    next_input: usize,
    outstanding: usize,
    scanned: bool,
    /// Completion was already scheduled (see [`VertexFrame::completed`]).
    completed: bool,
}

#[derive(Debug)]
enum Frame {
    Vertex(VertexFrame),
    Exec(ExecFrame),
    /// Retired after completion.
    Done,
}

/// Session-local scheduling events, drained in FIFO order. The flat event
/// loop (instead of recursion) keeps stack depth constant regardless of
/// proof size and makes the processing order deterministic.
#[derive(Debug)]
enum Event {
    StartVertex(u32),
    StartExec(u32),
    AdvanceVertex(u32),
    AdvanceExec(u32),
    VertexDone {
        frame: u32,
        done: Folded<ProofTree>,
        /// False for cycle-guard, cache-served and pruned completions, which
        /// the legacy engine never inserts into the cache.
        cacheable: bool,
    },
    ExecDone {
        frame: u32,
        exec: Option<Folded<RuleExecNode>>,
    },
}

/// A record staged for shipment, waiting for the next [`QueryExecutor::poll`]
/// flush to seal it into a per-destination frame.
#[derive(Debug)]
struct StagedOp {
    qid: u64,
    from: NodeId,
    to: NodeId,
    op: QueryOp,
}

/// Shared context threaded through session event handlers.
struct Ctx<'a> {
    system: &'a ProvenanceSystem,
    cache: &'a mut QueryCache,
    staged: &'a mut Vec<StagedOp>,
}

#[derive(Debug)]
struct Session {
    qid: u64,
    spec: QuerySpec,
    fold: Fold,
    started_at: SimTime,
    frames: Vec<Frame>,
    queue: VecDeque<Event>,
    stats: QueryStats,
    /// Lineage: completed root-level derivations, streamed as they finish
    /// (drained by [`QueryExecutor::take_partials`]).
    partials: Vec<RuleExecNode>,
    /// Caching on: `(vid, node)` sub-queries currently being computed, so
    /// concurrent breadth-first duplicates defer instead of racing.
    in_flight: IdMap<(TupleId, NodeId), u32>,
    /// Frames deferred onto an in-flight computation, woken at completion.
    waiters: IdMap<u32, Vec<u32>>,
    /// Set when the root value is complete; the executor finalizes it.
    root_result: Option<QueryResult>,
}

/// A finished (or cancelled) session, retained until the caller redeems its
/// handle.
#[derive(Debug)]
struct Finished {
    /// `None` for cancelled sessions.
    result: Option<QueryResult>,
    stats: QueryStats,
    partials: Vec<RuleExecNode>,
}

/// The step-driven distributed query executor. See the module documentation.
#[derive(Debug, Default)]
pub struct QueryExecutor {
    next_qid: u64,
    sessions: IdMap<u64, Session>,
    finished: IdMap<u64, Finished>,
    cache: QueryCache,
    /// What each destination has been sent ([`Dictionary`]): a frame's
    /// header carries only the strings its destination has never seen.
    dict_sent: IdMap<NodeId, Dictionary>,
    staged: Vec<StagedOp>,
    /// Merge concurrent sessions' records into one frame per (endpoints,
    /// direction) at [`QueryExecutor::poll`] time (see
    /// [`QueryExecutor::set_frame_merging`]). Off by default: one frame per
    /// session, the PR 5 baseline.
    merge_frames: bool,
    /// Cumulative traffic across sessions.
    traffic: TrafficStats,
}

impl QueryExecutor {
    /// Create an executor with an empty cache and no sessions.
    pub fn new() -> Self {
        QueryExecutor::default()
    }

    /// Cumulative query traffic (all sessions so far).
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Number of cached subtrees.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }

    /// Clear the result cache.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Forget which strings each destination has been sent, so the next
    /// frame toward a node re-ships its dictionary entries. Benchmark
    /// drivers reset this between configurations to keep byte comparisons
    /// fair (a warm dictionary would otherwise credit the second
    /// configuration with savings it did not earn).
    pub fn reset_dictionaries(&mut self) {
        self.dict_sent.clear();
    }

    /// Enable (or disable) cross-session frame merging: when on, one
    /// [`QueryExecutor::poll`] seals all concurrent sessions' records for a
    /// destination into a single frame per direction instead of one frame
    /// per session, sharing the destination's first-use dictionary charge.
    /// Per-destination delivery order is unchanged — within a merged frame
    /// records stay grouped by session in the order the per-session frames
    /// would have been sealed — so results, visit counts and cache hits are
    /// bit-identical to per-session sealing; only the frame count drops.
    pub fn set_frame_merging(&mut self, on: bool) {
        self.merge_frames = on;
    }

    /// Number of sessions still executing.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session is executing and nothing is staged for
    /// shipment.
    pub fn idle(&self) -> bool {
        self.sessions.is_empty() && self.staged.is_empty()
    }

    /// Submit a query session. Local work (everything reachable without
    /// crossing a node boundary) runs immediately; anything else is staged
    /// as wire records for the next [`QueryExecutor::poll`]. A query that
    /// never needs the wire is already done when this returns.
    pub fn submit(
        &mut self,
        system: &ProvenanceSystem,
        spec: QuerySpec,
        now: SimTime,
    ) -> QueryHandle {
        self.next_qid += 1;
        let qid = self.next_qid;
        let home = system.vertex_home(spec.vid).unwrap_or(spec.querier);
        let remote = home != spec.querier;
        let mut session = Session {
            qid,
            fold: Fold::new(spec.kind, spec.options.use_cache),
            spec,
            started_at: now,
            frames: Vec::new(),
            queue: VecDeque::new(),
            stats: QueryStats::default(),
            partials: Vec::new(),
            in_flight: IdMap::default(),
            waiters: IdMap::default(),
            root_result: None,
        };
        session.frames.push(Frame::Vertex(VertexFrame::new(
            home,
            session.spec.vid,
            0,
            Arc::default(),
            Parent::Root { remote },
        )));
        if remote {
            // The querying node contacts the tuple's home node.
            self.staged.push(StagedOp {
                qid,
                from: session.spec.querier,
                to: home,
                op: QueryOp::ExpandVertex {
                    qid,
                    frame: 0,
                    vid: session.spec.vid,
                    depth: 0,
                    path: Arc::default(),
                },
            });
            self.sessions.insert(qid, session);
        } else {
            session.queue.push_back(Event::StartVertex(0));
            self.sessions.insert(qid, session);
            self.run_session(qid, system, now);
        }
        QueryHandle(qid)
    }

    /// Seal every staged record into per-destination [`QueryBatch`] frames
    /// with first-use dictionary headers and return them for shipment.
    ///
    /// By default each frame carries one session's records (one frame per
    /// session, direction and destination — the PR 5 baseline). With
    /// [`QueryExecutor::set_frame_merging`] on, concurrent sessions' records
    /// for the same (endpoints, direction) seal into a single shared frame.
    /// Either way the records stay grouped by session, in the first-staged
    /// order the per-session frames would have been sealed and delivered in,
    /// so merging never reorders per-destination processing.
    ///
    /// Accounting happens here, per contributing session: one message, its
    /// own record bodies, and the dictionary entries its records are first
    /// to reference toward that destination. For single-session frames this
    /// degenerates to charging the whole frame to its session.
    pub fn poll(&mut self) -> Vec<QueryBatch> {
        if self.staged.is_empty() {
            return Vec::new();
        }
        let staged = std::mem::take(&mut self.staged);
        // Group by (session, endpoints, direction) in first-appearance order
        // so frame sealing — and therefore dictionary first-use accounting —
        // is deterministic.
        type SessionKey = (u64, NodeId, NodeId, bool);
        let mut order: Vec<SessionKey> = Vec::new();
        let mut groups: IdMap<SessionKey, Vec<QueryOp>> = IdMap::default();
        for s in staged {
            let key = (s.qid, s.from, s.to, s.op.is_request());
            let group = groups.entry(key).or_default();
            if group.is_empty() {
                order.push(key);
            }
            group.push(s.op);
        }
        // Fold session groups into frames: merged mode coalesces every
        // session group sharing (endpoints, direction) into the frame keyed
        // by the first of them; per-session mode keeps one group per frame.
        let merged: Vec<Vec<SessionKey>>;
        let frames: Vec<&[SessionKey]> = if self.merge_frames {
            let mut frame_order: Vec<(NodeId, NodeId, bool)> = Vec::new();
            let mut folded: IdMap<(NodeId, NodeId, bool), Vec<SessionKey>> = IdMap::default();
            for &key in &order {
                let fkey = (key.1, key.2, key.3);
                let members = folded.entry(fkey).or_default();
                if members.is_empty() {
                    frame_order.push(fkey);
                }
                members.push(key);
            }
            merged = frame_order
                .into_iter()
                .map(|fkey| folded.remove(&fkey).expect("frame exists"))
                .collect();
            merged.iter().map(Vec::as_slice).collect()
        } else {
            order.chunks(1).collect()
        };
        let mut batches = Vec::with_capacity(frames.len());
        for members in frames {
            let (_, from, to, _) = members[0];
            let sent = self.dict_sent.entry(to).or_default();
            let mut dict: Vec<Sym> = Vec::new();
            let mut ops: Vec<QueryOp> = Vec::new();
            let mut frame_header = 0usize;
            let mut frame_body = 0usize;
            for key in members {
                let qid = key.0;
                let group = groups.remove(key).expect("group exists");
                // One walk per record gives its body size and its names.
                // The session pays for exactly the entries its records are
                // first to ship toward this destination; a name the
                // destination has seen costs one handle probe and no string
                // work.
                let mut header = 0usize;
                let mut body = 0usize;
                for op in &group {
                    body += op.seal(&mut |name| {
                        if sent.first_use(name) {
                            header += nt_runtime::dict_entry_wire_size(name.as_str());
                            dict.push(name);
                        }
                    });
                }
                let stats = match self.sessions.get_mut(&qid) {
                    Some(session) => Some(&mut session.stats),
                    None => self.finished.get_mut(&qid).map(|f| &mut f.stats),
                };
                // A vanished session (cancelled and redeemed): its records
                // still fly and are charged to cumulative traffic only.
                if let Some(stats) = stats {
                    stats.messages += 1;
                    stats.records += group.len() as u64;
                    stats.bytes += (body + header) as u64;
                    stats.dict_bytes += header as u64;
                }
                frame_header += header;
                frame_body += body;
                // The first member's records become the frame's: a
                // single-session frame never copies them.
                if ops.is_empty() {
                    ops = group;
                } else {
                    ops.extend(group);
                }
            }
            // Keep the wire contract: dictionary entries travel sorted.
            dict.sort();
            self.traffic.record_batch(
                from,
                to,
                QUERY_CATEGORY,
                frame_header + frame_body,
                ops.len(),
            );
            batches.push(QueryBatch::sealed(from, to, dict, ops, frame_body));
        }
        batches
    }

    /// Hand a delivered frame to its session. Records of unknown sessions
    /// (cancelled or already finished) are dropped — that is precisely what
    /// cancellation buys: the subtree they would have continued stops
    /// generating traffic.
    pub fn deliver(&mut self, system: &ProvenanceSystem, batch: QueryBatch, now: SimTime) {
        for op in batch.into_ops() {
            let qid = op.qid();
            let Some(session) = self.sessions.get_mut(&qid) else {
                continue;
            };
            match op {
                QueryOp::ExpandVertex { frame, .. } => {
                    session.queue.push_back(Event::StartVertex(frame));
                }
                QueryOp::ExpandExec { frame, .. } => {
                    session.queue.push_back(Event::StartExec(frame));
                }
                QueryOp::VertexDone { frame, value, .. } => {
                    debug_assert_eq!(frame, 0, "only the root vertex crosses the wire");
                    session.root_result = Some(value);
                }
                QueryOp::ExecDone { frame, exec, .. } => {
                    session.queue.push_back(Event::ExecDone { frame, exec });
                }
                QueryOp::Cancel { .. } => {
                    // State lives centrally; a cancel frame's job is done the
                    // moment it is accounted.
                }
            }
            self.run_session(qid, system, now);
        }
    }

    /// Adopt an externally computed result (the platform's
    /// `QueryMode::Local` path runs the legacy engine synchronously and
    /// files the answer here), so every mode redeems through one handle
    /// surface.
    pub fn adopt_result(&mut self, result: QueryResult, stats: QueryStats) -> QueryHandle {
        self.next_qid += 1;
        let qid = self.next_qid;
        self.finished.insert(
            qid,
            Finished {
                result: Some(result),
                stats,
                partials: Vec::new(),
            },
        );
        QueryHandle(qid)
    }

    /// True when the session has produced its final result (or was
    /// cancelled).
    pub fn is_done(&self, handle: QueryHandle) -> bool {
        self.finished.contains_key(&handle.0)
    }

    /// Redeem a finished session: `(result, stats)`, where the result is
    /// `None` for cancelled sessions. Returns `None` while the session is
    /// still executing (or for unknown handles).
    pub fn take_result(
        &mut self,
        handle: QueryHandle,
    ) -> Option<(Option<QueryResult>, QueryStats)> {
        let finished = self.finished.remove(&handle.0)?;
        Some((finished.result, finished.stats))
    }

    /// Drain the completed root-level derivations of a lineage session
    /// streamed so far (partial results). Works both while the session is
    /// executing and after it finished or was cancelled. Only lineage
    /// streams: any other kind's derivations are values, not trees, and its
    /// sessions return nothing here.
    pub fn take_partials(&mut self, handle: QueryHandle) -> Vec<RuleExecNode> {
        if let Some(session) = self.sessions.get_mut(&handle.0) {
            return std::mem::take(&mut session.partials);
        }
        if let Some(finished) = self.finished.get_mut(&handle.0) {
            return std::mem::take(&mut finished.partials);
        }
        Vec::new()
    }

    /// Snapshot of a running (or finished) session's stats so far.
    pub fn stats_so_far(&self, handle: QueryHandle) -> Option<QueryStats> {
        if let Some(session) = self.sessions.get(&handle.0) {
            return Some(session.stats.clone());
        }
        self.finished.get(&handle.0).map(|f| f.stats.clone())
    }

    /// Cancel a session: its state machines stop, in-flight responses will
    /// be dropped on delivery, and one [`QueryOp::Cancel`] frame per remote
    /// node with abandoned work is staged so the pruning itself is charged
    /// to the wire. Partial results remain redeemable.
    pub fn cancel(&mut self, handle: QueryHandle, now: SimTime) {
        let qid = handle.0;
        let Some(session) = self.sessions.remove(&qid) else {
            return;
        };
        // One cancel frame per distinct remote node with live frames.
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        for frame in &session.frames {
            match frame {
                Frame::Vertex(v) => {
                    nodes.insert(v.node);
                }
                Frame::Exec(e) => {
                    nodes.insert(e.node);
                }
                Frame::Done => {}
            }
        }
        for node in nodes {
            if node != session.spec.querier {
                self.staged.push(StagedOp {
                    qid,
                    from: session.spec.querier,
                    to: node,
                    op: QueryOp::Cancel { qid },
                });
            }
        }
        let mut stats = session.stats;
        stats.latency_ms = (now - session.started_at).as_micros() as f64 / 1000.0;
        self.finished.insert(
            qid,
            Finished {
                result: None,
                stats,
                partials: session.partials,
            },
        );
    }

    /// Drain a session's event queue, then finalize it if its root value
    /// completed.
    fn run_session(&mut self, qid: u64, system: &ProvenanceSystem, now: SimTime) {
        let Some(session) = self.sessions.get_mut(&qid) else {
            return;
        };
        let mut ctx = Ctx {
            system,
            cache: &mut self.cache,
            staged: &mut self.staged,
        };
        session.drain(&mut ctx);
        if session.root_result.is_some() {
            let mut session = self.sessions.remove(&qid).expect("session exists");
            let result = session.root_result.take();
            let mut stats = session.stats;
            stats.latency_ms = (now - session.started_at).as_micros() as f64 / 1000.0;
            self.finished.insert(
                qid,
                Finished {
                    result,
                    stats,
                    partials: session.partials,
                },
            );
        }
    }
}

impl Session {
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(event) = self.queue.pop_front() {
            match event {
                Event::StartVertex(f) => self.start_vertex(f, ctx),
                Event::StartExec(e) => self.start_exec(e, ctx),
                Event::AdvanceVertex(f) => self.advance_vertex(f, ctx),
                Event::AdvanceExec(e) => self.advance_exec(e, ctx),
                Event::VertexDone {
                    frame,
                    done,
                    cacheable,
                } => self.on_vertex_done(frame, done, cacheable, ctx),
                Event::ExecDone { frame, exec } => self.on_exec_done(frame, exec),
            }
        }
    }

    fn vertex(&mut self, f: u32) -> &mut VertexFrame {
        match &mut self.frames[f as usize] {
            Frame::Vertex(v) => v,
            other => panic!("frame {f} is not a vertex frame: {other:?}"),
        }
    }

    fn exec(&mut self, e: u32) -> &mut ExecFrame {
        match &mut self.frames[e as usize] {
            Frame::Exec(x) => x,
            other => panic!("frame {e} is not an exec frame: {other:?}"),
        }
    }

    /// Begin expanding a vertex: the exact decision sequence of the legacy
    /// recursion — count the visit, consult the cache, guard against cycles,
    /// apply depth pruning, then read the local `prov` entries and expand
    /// derivations in the traversal's schedule.
    fn start_vertex(&mut self, f: u32, ctx: &mut Ctx<'_>) {
        self.stats.vertices_visited += 1;
        let use_cache = self.spec.options.use_cache;
        let fold = self.fold;
        let (node, vid, depth, path_has_self) = {
            let frame = self.vertex(f);
            (
                frame.node,
                frame.vid,
                frame.depth,
                frame.path.contains(&frame.vid),
            )
        };
        if use_cache {
            if let Some(done) = ctx.cache.lookup(ctx.system, vid, node, fold) {
                self.stats.cache_hits += 1;
                self.vertex(f).completed = true;
                self.queue.push_back(Event::VertexDone {
                    frame: f,
                    done,
                    cacheable: false,
                });
                return;
            }
        }
        // Copied out of `ctx`, so the entries stay borrowed from the store
        // while derivations are issued through `ctx`.
        let system = ctx.system;
        let (tuple, entries) = read_vertex(system, node, vid);
        {
            let frame = self.vertex(f);
            frame.head.tuple = fold.tuple(tuple, entries);
            frame.nodes = fold.nodes(node);
        }
        if path_has_self {
            // Cycle guard: return the bare vertex, never cached. Checked
            // BEFORE the in-flight defer below — on a cyclic (malformed)
            // store an ancestor frame is necessarily the one computing this
            // key, so deferring onto it would deadlock the session.
            self.complete_vertex(f, false);
            return;
        }
        if use_cache {
            if let Some(&computing) = self.in_flight.get(&(vid, node)) {
                // A concurrent breadth-first branch is already computing this
                // sub-query; defer onto it instead of racing (preserves the
                // sequential engine's cache-hit accounting).
                self.stats.vertices_visited -= 1; // re-counted on wake
                self.waiters.entry(computing).or_default().push(f);
                return;
            }
            self.in_flight.insert((vid, node), f);
            self.vertex(f).registered = true;
        }
        if let Some(max_depth) = self.spec.options.max_depth {
            if depth >= max_depth {
                self.vertex(f).head.pruned = true;
                self.complete_vertex(f, true);
                return;
            }
        }
        match self.spec.options.traversal {
            TraversalOrder::DepthFirst => {
                // Base entries ahead of the first derivation mark the vertex
                // as base and need no second look. The scan resumes after
                // each derivation completes, so the entries from the first
                // derivation on are copied into the frame, and only then.
                let first = entries.iter().position(|entry| !entry.is_base());
                let frame = self.vertex(f);
                frame.head.is_base = first.unwrap_or(entries.len()) > 0;
                if let Some(first) = first {
                    frame.entries = entries[first..].to_vec();
                }
                self.advance_vertex(f, ctx);
            }
            TraversalOrder::BreadthFirst => {
                // Fan out: issue every expandable derivation concurrently,
                // straight from the store's entries. Issuing only stages
                // records and queues events, so nothing completes before
                // the scan ends.
                let limit = self.spec.options.max_derivations_per_vertex;
                for &entry in entries {
                    let frame = self.vertex(f);
                    if entry.is_base() {
                        frame.head.is_base = true;
                        continue;
                    }
                    if limit.is_some_and(|limit| frame.expanded >= limit) {
                        frame.head.pruned = true;
                        break;
                    }
                    frame.expanded += 1;
                    frame.outstanding += 1;
                    let slot = frame.children.len() as u32;
                    frame.children.push(None);
                    self.issue_exec(f, slot, entry, ctx);
                }
                self.vertex(f).scanned = true;
                self.queue.push_back(Event::AdvanceVertex(f));
            }
        }
    }

    /// Depth-first: issue the next expandable derivation (one outstanding at
    /// a time); both orders: complete the vertex once nothing is
    /// outstanding and the entry scan is exhausted.
    fn advance_vertex(&mut self, f: u32, ctx: &mut Ctx<'_>) {
        // Duplicate advance events are normal under fan-out (one is queued
        // per child completion); a frame advances past completion only once,
        // and events for already-retired frames are ignored.
        let Frame::Vertex(frame) = &self.frames[f as usize] else {
            return;
        };
        if frame.completed || frame.outstanding > 0 {
            return;
        }
        if self.spec.options.traversal == TraversalOrder::DepthFirst {
            let limit = self.spec.options.max_derivations_per_vertex;
            loop {
                let next = {
                    let frame = self.vertex(f);
                    if frame.next_entry >= frame.entries.len() {
                        break;
                    }
                    let entry = frame.entries[frame.next_entry];
                    frame.next_entry += 1;
                    if entry.is_base() {
                        frame.head.is_base = true;
                        continue;
                    }
                    if let Some(limit) = limit {
                        if frame.expanded >= limit {
                            frame.head.pruned = true;
                            frame.next_entry = frame.entries.len();
                            break;
                        }
                    }
                    frame.expanded += 1;
                    let slot = frame.children.len() as u32;
                    frame.children.push(None);
                    frame.outstanding = 1;
                    Some((slot, entry))
                };
                if let Some((slot, entry)) = next {
                    self.issue_exec(f, slot, entry, ctx);
                    return;
                }
            }
        } else if !self.vertex(f).scanned {
            return;
        }
        // Entry scan exhausted, nothing outstanding: the vertex is complete.
        self.complete_vertex(f, true);
    }

    /// Fold a vertex frame's facts and children into its value and schedule
    /// its completion. The frame is about to retire, so its parts are moved
    /// out, not cloned — completion costs O(value), not O(value) per
    /// ancestor level.
    fn complete_vertex(&mut self, f: u32, cacheable: bool) {
        let fold = self.fold;
        let frame = self.vertex(f);
        frame.completed = true;
        let head = std::mem::replace(&mut frame.head, Head::new(frame.vid, frame.node, None));
        // A vertex pruning cut is never cached.
        let cacheable = cacheable && !head.pruned;
        let done = Folded {
            value: fold.vertex(head, std::mem::take(&mut frame.children)),
            nodes: frame.nodes.take(),
        };
        self.queue.push_back(Event::VertexDone {
            frame: f,
            done,
            cacheable,
        });
    }

    /// Create the exec frame for one derivation of vertex `f`. Local when
    /// the rule fired at the vertex's own node; otherwise a real
    /// [`QueryOp::ExpandExec`] request to the executing node.
    fn issue_exec(&mut self, f: u32, slot: u32, entry: ProvEntry, ctx: &mut Ctx<'_>) {
        let rid = entry.rid.expect("non-base entry has rid");
        let (node, depth, path) = {
            let frame = self.vertex(f);
            // The inputs' cycle guard: this vertex's path plus its vid, in
            // one allocation that the request and every input frame share.
            let path: Arc<[TupleId]> = frame.path.iter().copied().chain([frame.vid]).collect();
            (frame.node, frame.depth, path)
        };
        let remote = entry.rloc != node;
        let e = self.frames.len() as u32;
        self.frames.push(Frame::Exec(ExecFrame {
            node: entry.rloc,
            rid,
            depth,
            path: path.clone(),
            parent_frame: f,
            parent_slot: slot,
            remote,
            record: None,
            input_vids: Arc::default(),
            inputs: Vec::new(),
            nodes: None,
            next_input: 0,
            outstanding: 0,
            scanned: false,
            completed: false,
        }));
        if remote {
            ctx.staged.push(StagedOp {
                qid: self.qid,
                from: node,
                to: entry.rloc,
                op: QueryOp::ExpandExec {
                    qid: self.qid,
                    frame: e,
                    rid,
                    depth: depth as u32,
                    path,
                },
            });
        } else {
            self.queue.push_back(Event::StartExec(e));
        }
    }

    /// Begin expanding a rule execution at its node: look the record up
    /// locally, then expand the proof subtrees of its inputs (which are
    /// local to the executing node) in the traversal's schedule.
    fn start_exec(&mut self, e: u32, ctx: &mut Ctx<'_>) {
        let fold = self.fold;
        let (node, rid) = {
            let frame = self.exec(e);
            (frame.node, frame.rid)
        };
        let Some(exec) = ctx.system.store(node).and_then(|s| s.rule_exec(rid)) else {
            // Unknown rid at the node: the derivation contributes nothing
            // (mirrors the legacy engine's `continue`).
            self.complete_exec(e, None, ctx);
            return;
        };
        let input_vids = exec.inputs.clone();
        {
            let frame = self.exec(e);
            frame.record = Some((exec.rule, exec.node));
            frame.nodes = fold.nodes(exec.node);
            frame.inputs = vec![None; input_vids.len()];
            frame.input_vids = input_vids;
        }
        match self.spec.options.traversal {
            TraversalOrder::DepthFirst => self.advance_exec(e, ctx),
            TraversalOrder::BreadthFirst => {
                let n = {
                    let frame = self.exec(e);
                    frame.outstanding = frame.input_vids.len();
                    frame.scanned = true;
                    frame.input_vids.len()
                };
                for i in 0..n {
                    self.spawn_input(e, i as u32);
                }
                self.queue.push_back(Event::AdvanceExec(e));
            }
        }
    }

    fn advance_exec(&mut self, e: u32, ctx: &mut Ctx<'_>) {
        let Frame::Exec(frame) = &self.frames[e as usize] else {
            return;
        };
        if frame.completed || frame.outstanding > 0 {
            return;
        }
        if self.spec.options.traversal == TraversalOrder::DepthFirst {
            let spawn = {
                let frame = self.exec(e);
                if frame.next_input < frame.input_vids.len() {
                    let i = frame.next_input as u32;
                    frame.next_input += 1;
                    frame.outstanding = 1;
                    Some(i)
                } else {
                    None
                }
            };
            if let Some(i) = spawn {
                self.spawn_input(e, i);
                return;
            }
        } else if !self.exec(e).scanned {
            return;
        }
        let fold = self.fold;
        let done = {
            let frame = self.exec(e);
            let (rule, node) = frame.record.expect("exec record found");
            Folded {
                value: fold.exec(frame.rid, rule, node, std::mem::take(&mut frame.inputs)),
                nodes: frame.nodes.take(),
            }
        };
        self.complete_exec(e, Some(done), ctx);
    }

    /// Create and start the vertex frame of one input tuple (always local to
    /// the executing node).
    fn spawn_input(&mut self, e: u32, slot: u32) {
        let (node, vid, depth, path) = {
            let frame = self.exec(e);
            (
                frame.node,
                frame.input_vids[slot as usize],
                frame.depth + 1,
                frame.path.clone(),
            )
        };
        let f = self.frames.len() as u32;
        self.frames.push(Frame::Vertex(VertexFrame::new(
            node,
            vid,
            depth,
            path,
            Parent::Exec { frame: e, slot },
        )));
        self.queue.push_back(Event::StartVertex(f));
    }

    /// An exec frame finished computing (or failed to find its record):
    /// either respond over the wire or resume the awaiting vertex directly.
    fn complete_exec(&mut self, e: u32, exec: Option<Folded<RuleExecNode>>, ctx: &mut Ctx<'_>) {
        let (remote, node, parent_frame) = {
            let frame = self.exec(e);
            frame.completed = true;
            (frame.remote, frame.node, frame.parent_frame)
        };
        if remote {
            let to = match &self.frames[parent_frame as usize] {
                Frame::Vertex(v) => v.node,
                other => panic!("exec parent is not a vertex: {other:?}"),
            };
            ctx.staged.push(StagedOp {
                qid: self.qid,
                from: node,
                to,
                op: QueryOp::ExecDone {
                    qid: self.qid,
                    frame: e,
                    exec,
                },
            });
        } else {
            self.queue.push_back(Event::ExecDone { frame: e, exec });
        }
    }

    /// A completed rule-execution value reached its awaiting vertex.
    fn on_exec_done(&mut self, e: u32, exec: Option<Folded<RuleExecNode>>) {
        let (parent_frame, parent_slot) = {
            let frame = self.exec(e);
            (frame.parent_frame, frame.parent_slot)
        };
        self.frames[e as usize] = Frame::Done;
        if parent_frame == 0 {
            // Root-level lineage derivation: stream it as a partial result.
            if let Some(QueryResult::Lineage(exec)) = exec.as_ref().map(|exec| &exec.value) {
                self.partials.push(exec.clone());
            }
        }
        let frame = self.vertex(parent_frame);
        if let Some(exec) = exec {
            absorb(&mut frame.nodes, exec.nodes);
            frame.children[parent_slot as usize] = Some(exec.value);
        }
        frame.outstanding -= 1;
        self.queue.push_back(Event::AdvanceVertex(parent_frame));
    }

    /// A vertex subtree is complete: maintain the cache and in-flight
    /// bookkeeping, wake deferred duplicates, and route the value to its
    /// parent (the session root or an exec frame's input slot).
    fn on_vertex_done(
        &mut self,
        f: u32,
        done: Folded<ProofTree>,
        cacheable: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let (node, vid, parent, registered) = {
            let frame = self.vertex(f);
            (frame.node, frame.vid, frame.parent, frame.registered)
        };
        self.frames[f as usize] = Frame::Done;
        if registered {
            self.in_flight.remove(&(vid, node));
            if cacheable {
                ctx.cache
                    .insert(ctx.system, vid, node, self.spec.kind, &done);
            }
            if let Some(waiters) = self.waiters.remove(&f) {
                for w in waiters {
                    self.queue.push_back(Event::StartVertex(w));
                }
            }
        }
        match parent {
            Parent::Root { remote: false } => {
                self.root_result = Some(done.value);
            }
            Parent::Root { remote: true } => {
                ctx.staged.push(StagedOp {
                    qid: self.qid,
                    from: node,
                    to: self.spec.querier,
                    op: QueryOp::VertexDone {
                        qid: self.qid,
                        frame: f,
                        value: done.value,
                    },
                });
            }
            Parent::Exec { frame: e, slot } => {
                {
                    let frame = self.exec(e);
                    absorb(&mut frame.nodes, done.nodes);
                    frame.inputs[slot as usize] = Some(done.value);
                    frame.outstanding -= 1;
                }
                self.queue.push_back(Event::AdvanceExec(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{Firing, Value, BASE_RULE};

    fn tuple(rel: &str, node: &str, x: i64) -> Tuple {
        Tuple::new(rel, vec![Value::addr(node), Value::Int(x)])
    }

    fn base(sys: &mut ProvenanceSystem, t: &Tuple, node: &str) {
        sys.apply_firing(&Firing {
            rule: BASE_RULE.into(),
            node: node.into(),
            head: t.clone(),
            head_home: node.into(),
            inputs: Default::default(),
            insert: true,
        });
    }

    fn derive(
        sys: &mut ProvenanceSystem,
        rule: &str,
        exec: &str,
        head: &Tuple,
        home: &str,
        inputs: &[Tuple],
    ) {
        sys.apply_firing(&Firing {
            rule: rule.into(),
            node: exec.into(),
            head: head.clone(),
            head_home: home.into(),
            inputs: inputs.iter().map(Tuple::id).collect(),
            insert: true,
        });
    }

    /// Build a 3-level distributed provenance graph:
    ///   base link@n1, link@n2
    ///   cost@n2 derived at n1 from link@n1
    ///   best@n3 derived at n2 from cost@n2 and link@n2  (two alternatives)
    fn sample_system() -> (ProvenanceSystem, Tuple) {
        let mut sys = ProvenanceSystem::new(["n1", "n2", "n3"]);
        let l1 = tuple("link", "n1", 1);
        let l2 = tuple("link", "n2", 2);
        let cost = tuple("cost", "n2", 3);
        let best = tuple("best", "n3", 3);
        base(&mut sys, &l1, "n1");
        base(&mut sys, &l2, "n2");
        derive(&mut sys, "r1", "n1", &cost, "n2", std::slice::from_ref(&l1));
        derive(
            &mut sys,
            "r2",
            "n2",
            &best,
            "n3",
            &[cost.clone(), l2.clone()],
        );
        // An alternative derivation of `best` directly from l2.
        derive(&mut sys, "r3", "n2", &best, "n3", std::slice::from_ref(&l2));
        (sys, best)
    }

    /// Drive a distributed session to completion with an immediate-delivery
    /// pump (latency semantics are the platform's concern; results and
    /// counts are tested here).
    fn run_distributed(
        ex: &mut QueryExecutor,
        sys: &ProvenanceSystem,
        querier: &str,
        target: &Tuple,
        kind: QueryKind,
        options: &QueryOptions,
    ) -> (QueryResult, QueryStats) {
        let spec = QuerySpec {
            querier: NodeId::new(querier),
            vid: target.id(),
            kind,
            mode: QueryMode::Distributed,
            options: options.clone(),
        };
        let handle = ex.submit(sys, spec, SimTime::ZERO);
        let mut safety = 0;
        while !ex.is_done(handle) {
            let batches = ex.poll();
            assert!(!batches.is_empty(), "pending session must stage frames");
            for batch in batches {
                ex.deliver(sys, batch, SimTime::ZERO);
            }
            safety += 1;
            assert!(safety < 10_000, "session failed to converge");
        }
        let (result, stats) = ex.take_result(handle).expect("finished");
        (result.expect("not cancelled"), stats)
    }

    #[test]
    fn lineage_builds_the_full_proof_tree() {
        let (sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let (result, stats) = qe.query(
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        let QueryResult::Lineage(tree) = result else {
            panic!("expected lineage");
        };
        assert_eq!(tree.vid, best.id());
        assert_eq!(tree.derivations.len(), 2);
        assert!(tree.depth() >= 3);
        assert!(stats.vertices_visited >= 4);
        assert!(stats.messages > 0, "distributed traversal crosses nodes");
    }

    #[test]
    fn base_tuples_and_participating_nodes() {
        let (sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let (result, _) = qe.query(
            &sys,
            "n3",
            &best,
            QueryKind::BaseTuples,
            &QueryOptions::default(),
        );
        let QueryResult::BaseTuples(bases) = result else {
            panic!()
        };
        assert_eq!(bases.len(), 2, "two distinct base links contribute");

        let (result, _) = qe.query(
            &sys,
            "n3",
            &best,
            QueryKind::ParticipatingNodes,
            &QueryOptions::default(),
        );
        let QueryResult::ParticipatingNodes(nodes) = result else {
            panic!()
        };
        assert!(
            nodes.contains(&NodeId::new("n1"))
                && nodes.contains(&NodeId::new("n2"))
                && nodes.contains(&NodeId::new("n3"))
        );
    }

    #[test]
    fn derivation_count_counts_alternatives() {
        let (sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let (result, _) = qe.query(
            &sys,
            "n3",
            &best,
            QueryKind::DerivationCount,
            &QueryOptions::default(),
        );
        assert_eq!(result, QueryResult::DerivationCount(2));
    }

    #[test]
    fn caching_reduces_traffic_on_repeated_queries() {
        let (sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let opts = QueryOptions::cached();
        let (_, first) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        let (_, second) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        assert!(first.messages > 0);
        assert!(second.cache_hits > 0);
        assert!(
            second.messages < first.messages,
            "cached query saves traffic: {} vs {}",
            second.messages,
            first.messages
        );
        assert!(qe.cache_size() > 0);
        qe.clear_cache();
        assert_eq!(qe.cache_size(), 0);
    }

    #[test]
    fn stale_cache_entries_are_evicted_after_store_churn() {
        let (mut sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let opts = QueryOptions::cached();
        let (before, _) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        assert!(qe.cache_size() > 0);
        // Retract the alternative derivation r3(best <- l2): an incremental
        // delete that the pre-versioning cache would have survived.
        let l2 = tuple("link", "n2", 2);
        sys.apply_firing(&Firing {
            rule: "r3".into(),
            node: "n2".into(),
            head: best.clone(),
            head_home: "n3".into(),
            inputs: [l2.id()].into(),
            insert: false,
        });
        let (after, _) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        let (QueryResult::Lineage(before), QueryResult::Lineage(after)) = (before, after) else {
            panic!()
        };
        assert_eq!(before.derivations.len(), 2);
        assert_eq!(
            after.derivations.len(),
            1,
            "the cached pre-delete tree must not be served"
        );
        // And the fresh answer matches an uncached engine's.
        let mut fresh = QueryEngine::new();
        let (fresh_result, _) = fresh.query(
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        assert_eq!(QueryResult::Lineage(after), fresh_result);
    }

    /// Churn that only touches a *descendant* node's stores (the cached
    /// root's own store is untouched) must still evict the cached tree:
    /// entries are stamped with every involved store's version, not just
    /// the root's home.
    #[test]
    fn descendant_only_churn_evicts_cached_trees() {
        let (mut sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let opts = QueryOptions::cached();
        let (before, _) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        let n3_version = sys.store("n3").unwrap().version();
        // Retract r1 (cost@n2 derived at n1): touches only n1's ruleExec
        // table and n2's prov table — n3, where `best` is cached, is not
        // written at all.
        let l1 = tuple("link", "n1", 1);
        let cost = tuple("cost", "n2", 3);
        sys.apply_firing(&Firing {
            rule: "r1".into(),
            node: "n1".into(),
            head: cost,
            head_home: "n2".into(),
            inputs: [l1.id()].into(),
            insert: false,
        });
        assert_eq!(
            sys.store("n3").unwrap().version(),
            n3_version,
            "the churn must not touch the root's own store for this test"
        );
        let (after, _) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        let mut fresh = QueryEngine::new();
        let (expected, _) = fresh.query(
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        assert_eq!(
            after, expected,
            "descendant churn must evict the root entry"
        );
        assert_ne!(before, after, "the retraction changed the proof");
    }

    /// A cyclic (malformed) store must terminate under the distributed
    /// executor with caching on — the cycle guard runs before the in-flight
    /// defer, otherwise the re-reached vertex would wait on its own
    /// ancestor forever.
    #[test]
    fn cyclic_stores_terminate_with_caching_enabled() {
        use crate::store::{ProvEntry, RuleExec};
        let mut sys = ProvenanceSystem::new(["n1"]);
        let t = tuple("x", "n1", 1);
        let rid = RuleExecId::compute("r".into(), "n1".into(), &[t.id()]);
        sys.store_mut("n1").add_rule_exec(RuleExec {
            rid,
            rule: "r".into(),
            node: "n1".into(),
            inputs: [t.id()].into(),
        });
        // x is derived from itself: a cycle no well-formed capture produces.
        sys.add_prov(
            "n1".into(),
            &t,
            ProvEntry {
                rid: Some(rid),
                rloc: "n1".into(),
            },
        );
        assert_eq!(sys.vertex_home(t.id()), Some(NodeId::new("n1")));
        for traversal in [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst] {
            let opts = QueryOptions {
                use_cache: true,
                traversal,
                ..QueryOptions::default()
            };
            let mut local = QueryEngine::new();
            let (lr, ls) = local.query(&sys, "n1", &t, QueryKind::Lineage, &opts);
            let mut dist = QueryExecutor::new();
            let (dr, ds) = run_distributed(&mut dist, &sys, "n1", &t, QueryKind::Lineage, &opts);
            assert_eq!(lr, dr, "{traversal:?}");
            assert_eq!(ls.vertices_visited, ds.vertices_visited);
        }
    }

    /// A cycle that crosses a node boundary: `a@n1` is derived at n2 from
    /// `b@n2`, which is derived at n1 from `a`, beside a base entry and a
    /// second derivation of `a` from `c@n1`. The cycle guard at the second
    /// `a` reads a path that travelled inside two `ExpandExec` requests,
    /// and every combination of cache, traversal and derivation limit must
    /// answer as the recursion does. Mutations caught: a child path not
    /// extended with the requesting vid (`issue_exec` passing its vertex's
    /// own path on) re-expands `a` and never converges ("the session
    /// converged"); a request record carrying the unextended path while the
    /// frame keeps the extended one ships `[a]` ("the cycle guard crossed
    /// the wire").
    #[test]
    fn cyclic_stores_across_nodes_terminate() {
        use crate::store::{ProvEntry, RuleExec};
        let mut sys = ProvenanceSystem::new(["n1", "n2"]);
        let a = tuple("a", "n1", 1);
        let b = tuple("b", "n2", 2);
        let c = tuple("c", "n1", 3);
        base(&mut sys, &a, "n1");
        base(&mut sys, &c, "n1");
        derive(&mut sys, "ra", "n1", &a, "n1", std::slice::from_ref(&c));
        for (rule, exec, head, input) in [("rb", "n1", &b, &a), ("rc", "n2", &a, &b)] {
            let rid = RuleExecId::compute(rule.into(), exec.into(), &[input.id()]);
            sys.store_mut(exec).add_rule_exec(RuleExec {
                rid,
                rule: rule.into(),
                node: exec.into(),
                inputs: [input.id()].into(),
            });
            let home = if head == &a { "n1" } else { "n2" };
            sys.add_prov(
                home.into(),
                head,
                ProvEntry {
                    rid: Some(rid),
                    rloc: exec.into(),
                },
            );
        }
        // Under a limit of one derivation the cycle is what `a` expands.
        let (_, entries) = sys
            .store(NodeId::new("n1"))
            .unwrap()
            .vertex(a.id())
            .unwrap();
        let first = entries.iter().find(|entry| !entry.is_base()).unwrap();
        assert_eq!(first.rloc, NodeId::new("n2"), "{entries:?}");
        // The cycle's path reaches the wire: [a, b] rides the request that
        // asks n1 for `rb`.
        let mut ex = QueryExecutor::new();
        let spec = QuerySpec {
            querier: NodeId::new("n2"),
            vid: a.id(),
            kind: QueryKind::Lineage,
            mode: QueryMode::Distributed,
            options: QueryOptions::default(),
        };
        let handle = ex.submit(&sys, spec, SimTime::ZERO);
        let mut longest = 0;
        for _ in 0..100 {
            if ex.is_done(handle) {
                break;
            }
            for batch in ex.poll() {
                for op in batch.ops() {
                    if let QueryOp::ExpandExec { path, .. } = op {
                        longest = longest.max(path.len());
                    }
                }
                ex.deliver(&sys, batch, SimTime::ZERO);
            }
        }
        assert!(ex.is_done(handle), "the session converged");
        assert_eq!(longest, 2, "the cycle guard crossed the wire");
        for querier in ["n1", "n2"] {
            for use_cache in [false, true] {
                for traversal in [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst] {
                    for max_derivations_per_vertex in [None, Some(1)] {
                        let opts = QueryOptions {
                            use_cache,
                            traversal,
                            max_derivations_per_vertex,
                            ..QueryOptions::default()
                        };
                        let what = format!("{querier} {opts:?}");
                        let mut local = QueryEngine::new();
                        let mut dist = QueryExecutor::new();
                        for _ in 0..2 {
                            let (lr, ls) =
                                local.query(&sys, querier, &a, QueryKind::Lineage, &opts);
                            let (dr, ds) = run_distributed(
                                &mut dist,
                                &sys,
                                querier,
                                &a,
                                QueryKind::Lineage,
                                &opts,
                            );
                            assert_eq!(lr, dr, "{what}");
                            assert_eq!(ls.vertices_visited, ds.vertices_visited, "{what}");
                            assert_eq!(ls.cache_hits, ds.cache_hits, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_limits_expansion() {
        let (sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let opts = QueryOptions {
            max_derivations_per_vertex: Some(1),
            ..QueryOptions::default()
        };
        let (result, pruned_stats) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        let QueryResult::Lineage(tree) = result else {
            panic!()
        };
        assert_eq!(tree.derivations.len(), 1);
        assert!(tree.pruned);

        let (_, full_stats) = qe.query(
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        assert!(pruned_stats.messages < full_stats.messages);

        // Depth pruning.
        let opts = QueryOptions {
            max_depth: Some(1),
            ..QueryOptions::default()
        };
        let (result, _) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &opts);
        let QueryResult::Lineage(tree) = result else {
            panic!()
        };
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn breadth_first_traversal_has_lower_estimated_latency() {
        let (sys, best) = sample_system();
        let mut qe = QueryEngine::new();
        let dfs = QueryOptions {
            traversal: TraversalOrder::DepthFirst,
            ..QueryOptions::default()
        };
        let bfs = QueryOptions {
            traversal: TraversalOrder::BreadthFirst,
            ..QueryOptions::default()
        };
        let (_, dfs_stats) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &dfs);
        let (_, bfs_stats) = qe.query(&sys, "n3", &best, QueryKind::Lineage, &bfs);
        assert_eq!(dfs_stats.messages, bfs_stats.messages, "same traffic");
        assert!(
            bfs_stats.latency_ms <= dfs_stats.latency_ms,
            "parallel traversal is not slower"
        );
    }

    #[test]
    fn unknown_tuples_yield_empty_results() {
        let (sys, _) = sample_system();
        let mut qe = QueryEngine::new();
        let ghost = tuple("ghost", "n9", 0);
        let (result, _) = qe.query(
            &sys,
            "n1",
            &ghost,
            QueryKind::DerivationCount,
            &QueryOptions::default(),
        );
        assert_eq!(result, QueryResult::DerivationCount(0));

        // The distributed executor agrees, without touching the wire.
        let mut ex = QueryExecutor::new();
        let (result, stats) = run_distributed(
            &mut ex,
            &sys,
            "n1",
            &ghost,
            QueryKind::DerivationCount,
            &QueryOptions::default(),
        );
        assert_eq!(result, QueryResult::DerivationCount(0));
        assert_eq!(stats.messages, 0);
    }

    /// The step-driven executor reproduces the legacy engine exactly: same
    /// results, same visit counts, and (for the sequential order) the same
    /// record counts — per kind, traversal and pruning setting.
    #[test]
    fn distributed_execution_matches_the_local_engine() {
        let (sys, best) = sample_system();
        let kinds = [
            QueryKind::Lineage,
            QueryKind::BaseTuples,
            QueryKind::ParticipatingNodes,
            QueryKind::DerivationCount,
        ];
        let option_sets = [
            QueryOptions::default(),
            QueryOptions::cached(),
            QueryOptions {
                traversal: TraversalOrder::BreadthFirst,
                ..QueryOptions::default()
            },
            QueryOptions {
                traversal: TraversalOrder::BreadthFirst,
                use_cache: true,
                ..QueryOptions::default()
            },
            QueryOptions {
                max_depth: Some(2),
                ..QueryOptions::default()
            },
            QueryOptions {
                max_derivations_per_vertex: Some(1),
                ..QueryOptions::default()
            },
        ];
        for kind in kinds {
            for options in &option_sets {
                // Fresh engines per combination: cache state starts equal.
                let mut local = QueryEngine::new();
                let mut dist = QueryExecutor::new();
                for _ in 0..2 {
                    let (lr, ls) = local.query(&sys, "n3", &best, kind, options);
                    let (dr, ds) = run_distributed(&mut dist, &sys, "n3", &best, kind, options);
                    assert_eq!(lr, dr, "{kind:?} {options:?}");
                    assert_eq!(
                        ls.vertices_visited, ds.vertices_visited,
                        "visits {kind:?} {options:?}"
                    );
                    assert_eq!(ls.cache_hits, ds.cache_hits, "hits {kind:?} {options:?}");
                    assert_eq!(ls.records, ds.records, "records {kind:?} {options:?}");
                    if options.traversal == TraversalOrder::DepthFirst {
                        assert_eq!(ls.messages, ds.messages, "msgs {kind:?} {options:?}");
                    } else {
                        assert!(ds.messages <= ls.messages, "fan-out coalesces frames");
                    }
                }
            }
        }
    }

    /// Breadth-first fan-out coalesces same-destination requests into one
    /// frame, so it ships fewer messages than depth-first for the same
    /// records.
    #[test]
    fn breadth_first_fan_out_coalesces_frames() {
        let (sys, best) = sample_system();
        let mut ex = QueryExecutor::new();
        let (_, dfs) = run_distributed(
            &mut ex,
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        let (_, bfs) = run_distributed(
            &mut ex,
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions {
                traversal: TraversalOrder::BreadthFirst,
                ..QueryOptions::default()
            },
        );
        assert_eq!(dfs.records, bfs.records, "same protocol records");
        assert!(
            bfs.messages < dfs.messages,
            "{} < {}",
            bfs.messages,
            dfs.messages
        );
        assert!(bfs.bytes <= dfs.bytes);
    }

    /// Dictionary headers ship each interned string to a destination once:
    /// a repeated query re-ships no dictionary bytes.
    #[test]
    fn dictionaries_ship_first_use_only() {
        let (sys, best) = sample_system();
        let mut ex = QueryExecutor::new();
        let (_, first) = run_distributed(
            &mut ex,
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        let (_, second) = run_distributed(
            &mut ex,
            &sys,
            "n3",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        assert!(first.dict_bytes > 0, "first responses carry the strings");
        assert_eq!(second.dict_bytes, 0, "no re-shipping to warm destinations");
        assert!(second.bytes < first.bytes);
    }

    /// Cancellation stops a session: the result is withdrawn, in-flight
    /// frames are dropped, and one cancel record per abandoned node is
    /// charged to the wire.
    #[test]
    fn cancellation_stops_traffic_and_keeps_partials_redeemable() {
        let (sys, best) = sample_system();
        let mut ex = QueryExecutor::new();
        let spec = QuerySpec {
            querier: NodeId::new("n1"),
            vid: best.id(),
            kind: QueryKind::Lineage,
            mode: QueryMode::Distributed,
            options: QueryOptions::default(),
        };
        let handle = ex.submit(&sys, spec, SimTime::ZERO);
        // Ship the first hop, then cancel before delivering anything else.
        let batches = ex.poll();
        assert!(!batches.is_empty());
        ex.cancel(handle, SimTime::ZERO);
        assert!(ex.is_done(handle));
        // The staged cancel frame still flies (and is charged).
        let cancels = ex.poll();
        assert!(cancels.iter().any(|b| b
            .ops()
            .iter()
            .any(|op| matches!(op, QueryOp::Cancel { .. }))));
        // Late deliveries for the dead session are dropped without effect.
        for batch in batches {
            ex.deliver(&sys, batch, SimTime::ZERO);
        }
        let (result, stats) = ex.take_result(handle).expect("finished entry");
        assert!(result.is_none(), "cancelled sessions have no result");
        assert!(stats.messages >= 1);
        let full = {
            let mut ex2 = QueryExecutor::new();
            let (_, s) = run_distributed(
                &mut ex2,
                &sys,
                "n1",
                &best,
                QueryKind::Lineage,
                &QueryOptions::default(),
            );
            s
        };
        assert!(
            stats.records < full.records,
            "abandoned subtrees stop consuming traffic"
        );
    }

    /// Drain several concurrent sessions off one executor with an
    /// immediate-delivery pump (frames from one poll are delivered in seal
    /// order, the same per-destination order the simulated network
    /// preserves).
    fn drain_concurrent(ex: &mut QueryExecutor, sys: &ProvenanceSystem, handles: &[QueryHandle]) {
        let mut safety = 0;
        while handles.iter().any(|h| !ex.is_done(*h)) {
            let batches = ex.poll();
            assert!(!batches.is_empty(), "pending sessions must stage frames");
            for batch in batches {
                ex.deliver(sys, batch, SimTime::ZERO);
            }
            safety += 1;
            assert!(safety < 10_000, "sessions failed to converge");
        }
    }

    /// Satellite regression: with cross-session merging on, interleaved
    /// sessions never re-ship a symbol already charged to a destination in
    /// the same poll — the second session rides the first's shared first-use
    /// dictionary header — and [`QueryExecutor::reset_dictionaries`]
    /// restores exactly one full charge for the next interleaved pair.
    #[test]
    fn merged_frames_never_reship_a_symbol_within_one_poll() {
        let (sys, best) = sample_system();
        let spec = |querier: &str| QuerySpec {
            querier: NodeId::new(querier),
            vid: best.id(),
            kind: QueryKind::Lineage,
            mode: QueryMode::Distributed,
            options: QueryOptions::default(),
        };
        // Solo baseline: the dictionary charge one session pays alone.
        let mut solo = QueryExecutor::new();
        solo.set_frame_merging(true);
        let (_, solo_stats) = run_distributed(
            &mut solo,
            &sys,
            "n1",
            &best,
            QueryKind::Lineage,
            &QueryOptions::default(),
        );
        assert!(solo_stats.dict_bytes > 0, "responses carry strings");

        let mut ex = QueryExecutor::new();
        ex.set_frame_merging(true);
        let a = ex.submit(&sys, spec("n1"), SimTime::ZERO);
        let b = ex.submit(&sys, spec("n1"), SimTime::ZERO);
        // Interleaved drain, asserting per poll that no destination is ever
        // sent the same dictionary entry twice.
        let mut shipped: IdMap<NodeId, IdSet<Sym>> = IdMap::default();
        let mut safety = 0;
        while !(ex.is_done(a) && ex.is_done(b)) {
            let batches = ex.poll();
            assert!(!batches.is_empty());
            for batch in &batches {
                let seen = shipped.entry(batch.to).or_default();
                for entry in batch.dict() {
                    assert!(
                        seen.insert(*entry),
                        "symbol {entry:?} re-shipped to {}",
                        batch.to
                    );
                }
            }
            for batch in batches {
                ex.deliver(&sys, batch, SimTime::ZERO);
            }
            safety += 1;
            assert!(safety < 10_000);
        }
        let (_, sa) = ex.take_result(a).expect("done");
        let (_, sb) = ex.take_result(b).expect("done");
        assert_eq!(
            sa.dict_bytes + sb.dict_bytes,
            solo_stats.dict_bytes,
            "two interleaved sessions pay one shared first-use charge"
        );
        // reset_dictionaries survives merging: the next interleaved pair
        // re-ships the full charge exactly once more.
        ex.reset_dictionaries();
        let c = ex.submit(&sys, spec("n1"), SimTime::ZERO);
        let d = ex.submit(&sys, spec("n1"), SimTime::ZERO);
        drain_concurrent(&mut ex, &sys, &[c, d]);
        let (_, sc) = ex.take_result(c).expect("done");
        let (_, sd) = ex.take_result(d).expect("done");
        assert_eq!(sc.dict_bytes + sd.dict_bytes, solo_stats.dict_bytes);
    }

    /// Merged sealing is observationally identical to per-session sealing
    /// for interleaved sessions: per-session results and stats (messages,
    /// records, bytes, dictionary bytes, visits, cache hits) are equal —
    /// merging collapses frames on the wire without touching any session's
    /// view of its own execution.
    #[test]
    fn merged_sealing_matches_per_session_sealing_for_interleaved_sessions() {
        let (sys, best) = sample_system();
        for traversal in [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst] {
            let options = QueryOptions {
                traversal,
                use_cache: true,
                ..QueryOptions::default()
            };
            let specs: Vec<QuerySpec> = ["n1", "n1", "n2", "n3"]
                .iter()
                .map(|querier| QuerySpec {
                    querier: NodeId::new(querier),
                    vid: best.id(),
                    kind: QueryKind::Lineage,
                    mode: QueryMode::Distributed,
                    options: options.clone(),
                })
                .collect();
            let run = |merge: bool| {
                let mut ex = QueryExecutor::new();
                ex.set_frame_merging(merge);
                let handles: Vec<QueryHandle> = specs
                    .iter()
                    .map(|spec| ex.submit(&sys, spec.clone(), SimTime::ZERO))
                    .collect();
                drain_concurrent(&mut ex, &sys, &handles);
                let outcomes: Vec<_> = handles
                    .iter()
                    .map(|h| ex.take_result(*h).expect("done"))
                    .collect();
                // Per-session bytes/dict_bytes are excluded: first-use
                // dictionary attribution follows frame order within a
                // flush, so merging may shift a shared symbol's charge
                // between concurrent sessions. Totals are compared instead.
                let per_session: Vec<_> = outcomes
                    .iter()
                    .map(|(result, s)| {
                        (
                            result.clone(),
                            s.messages,
                            s.records,
                            s.vertices_visited,
                            s.cache_hits,
                            s.latency_ms,
                        )
                    })
                    .collect();
                let totals: (u64, u64) = outcomes
                    .iter()
                    .fold((0, 0), |(b, d), (_, s)| (b + s.bytes, d + s.dict_bytes));
                (per_session, totals, ex.traffic().messages)
            };
            let (merged, merged_totals, merged_frames) = run(true);
            let (split, split_totals, split_frames) = run(false);
            assert_eq!(merged, split, "{traversal:?}: per-session outcomes");
            assert_eq!(merged_totals, split_totals, "{traversal:?}: totals");
            assert!(
                merged_frames < split_frames,
                "{traversal:?}: merging must collapse concurrent frames \
                 ({merged_frames} vs {split_frames})"
            );
        }
    }

    /// Partial results stream as root-level derivations complete.
    #[test]
    fn partial_results_stream_during_execution() {
        let (sys, best) = sample_system();
        let mut ex = QueryExecutor::new();
        let spec = QuerySpec {
            querier: NodeId::new("n3"),
            vid: best.id(),
            kind: QueryKind::Lineage,
            mode: QueryMode::Distributed,
            options: QueryOptions::default(),
        };
        let handle = ex.submit(&sys, spec, SimTime::ZERO);
        let mut streamed = Vec::new();
        let mut safety = 0;
        while !ex.is_done(handle) {
            for batch in ex.poll() {
                ex.deliver(&sys, batch, SimTime::ZERO);
            }
            streamed.extend(ex.take_partials(handle));
            safety += 1;
            assert!(safety < 10_000);
        }
        streamed.extend(ex.take_partials(handle));
        let (result, _) = ex.take_result(handle).expect("finished");
        let Some(QueryResult::Lineage(tree)) = result else {
            panic!()
        };
        assert_eq!(streamed.len(), tree.derivations.len());
        assert_eq!(streamed, tree.derivations);
    }
}
