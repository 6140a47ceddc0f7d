//! The step-driven distributed query executor.
//!
//! [`QueryExecutor`] runs each submitted [`QuerySpec`] as a session of
//! per-node **frontier state machines**. Expanding a tuple vertex is work
//! performed *at the node that stores its `prov` entries*; fetching a
//! derivation's `ruleExec` record (and the proof subtrees of its inputs,
//! which are local to the executing node) from another node is a real
//! [`QueryOp::ExpandExec`] request that must round-trip through the message
//! layer before the traversal continues. The executor itself never moves a
//! message: [`QueryExecutor::poll`] seals everything every session staged
//! since the last flush into [`QueryBatch`] frames — one per (source,
//! destination, direction), shared by the sessions staging toward it, each
//! behind a first-use dictionary header — and the driver — the platform's
//! round loop — ships them through the simulated network and hands
//! deliveries back to [`QueryExecutor::deliver`].
//!
//! ## One frame, one scan
//!
//! A vertex and a rule execution are one kind of frame: a node, a depth, a
//! cycle-guard path, the parent slot its value fills, a child cursor and a
//! count of children outstanding. A vertex's children are the executions of
//! its derivations, in entry order; an execution's are the vertices of its
//! inputs, in body order. Each frame starts by reading its own facts, then
//! runs the one scan: it issues its next child while fewer than the
//! session's *width* are outstanding, and folds once the cursor is exhausted
//! and nothing is outstanding. Every finished child goes through one slot
//! fill that advances its parent.
//!
//! The width is the traversal order, the paper's second optimization. It is
//! 1 under [`TraversalOrder::DepthFirst`], which keeps exactly one request
//! outstanding per frame, and unbounded under
//! [`TraversalOrder::BreadthFirst`], which fans out every child at once
//! (coalesced per destination). The order is an *execution schedule*, not a
//! latency formula: the session's [`QueryStats::latency_ms`] is measured off
//! the simulated clock between submission and the final frame. A frame with
//! no child to wait for folds at once under either order.
//!
//! What travels back is the session kind's fold (`query::fold`): each frame
//! holds its own facts and one slot per child value, and completes by
//! folding them. A lineage frame's value is its proof subtree; a count, base
//! set or node set frame's is that value, so a [`QueryOp::VertexDone`] or
//! [`QueryOp::ExecDone`] carries eight bytes or a set, not a tree, and only
//! lineage and base-set sessions copy tuples.
//!
//! The state machines replay the legacy recursion (`query::local`)
//! *exactly* — same visit counts, same pruning decisions, same
//! cache-consultation points, same resulting values — which is what the
//! distributed-vs-local equivalence suite (`tests/proptest_query_equivalence.rs`
//! at the workspace root) verifies; `tests/query_session_stream.rs` pins the
//! records each poll seals. Concurrent breadth-first expansions of the same
//! `(vid, node)` sub-query under caching are deferred onto the in-flight
//! computation instead of racing it, preserving the sequential engine's hit
//! counts.
//!
//! ## Allocations
//!
//! A session allocates what its answer holds, little more. The cycle-guard
//! path is an `Arc<[TupleId]>`: [`QueryOp::ExpandExec`] and every input
//! frame of one derivation share the one slice built for it. A finished
//! lineage frame's slots become its tree's `derivations` / `inputs` in their
//! own buffer.
//!
//! A vertex scans its store entries in place. Only a scan that stops at the
//! width can stop with entries left, so only a depth-first vertex with a
//! derivation after the first copies them: the rest, once. Sealing walks
//! each record once and stores the body length in the [`QueryBatch`].
//! `crates/nettrails/tests/allocations_per_session.rs` counts what is left,
//! by owner.

use crate::query::api::{
    ProofTree, QueryHandle, QueryResult, QuerySpec, QueryStats, RuleExecNode, TraversalOrder,
    QUERY_CATEGORY,
};
use crate::query::cache::{absorb, QueryCache};
use crate::query::fold::{Fold, Folded, Head};
use crate::query::wire::{QueryBatch, QueryOp};
use crate::store::{ProvEntry, RuleExecId};
use crate::system::ProvenanceSystem;
use nt_runtime::{Dictionary, IdMap, NodeId, Sym, Tuple, TupleId};
use simnet::{SimTime, TrafficStats};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// A vertex read at `node`, the node it is expanded at: its tuple and its
/// `prov` entries in one probe. A node without the vertex has no entries
/// for it, and the tuple is read at the vertex's home.
pub(super) fn read_vertex(
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
// the step-driven distributed executor (QueryMode::Distributed)
// ---------------------------------------------------------------------------

/// Per-frame expansion state: a tuple vertex expanded at `node`, the node
/// that holds its `prov` entries, or a rule execution expanded at `node`,
/// where the rule fired. A frame's children are the other kind: a vertex's
/// are the executions of its derivations, an execution's the vertices of
/// its inputs.
#[derive(Debug)]
struct Frame {
    node: NodeId,
    /// A vertex's depth; an execution's is its requesting vertex's (its
    /// inputs expand one level deeper).
    depth: usize,
    /// Ancestor vertices of the traversal (cycle guard; equals the legacy
    /// recursion's `visited` path). An execution's adds its requesting
    /// vertex, built once and shared with the request record and every
    /// input frame.
    path: Arc<[TupleId]>,
    /// The frame and slot awaiting this frame's value; `None` for the
    /// session root.
    parent: Option<(u32, u32)>,
    /// A stamped fold's node set so far.
    nodes: Option<BTreeSet<NodeId>>,
    /// The child scan's cursor: a vertex's next entry, an execution's next
    /// input.
    next: usize,
    /// Children issued and not yet folded in.
    outstanding: usize,
    /// Completion was already scheduled; duplicate advance events (one is
    /// queued per child completion) must not re-complete the frame.
    completed: bool,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    Vertex(Vertex),
    Exec(Exec),
}

/// What only a vertex frame holds.
#[derive(Debug)]
struct Vertex {
    /// The vertex's own facts, folded with `slots` at completion.
    head: Head,
    /// The entries its scan had left when it stopped early (width 1 only),
    /// copied once; the cursor then scans these.
    rest: Vec<ProvEntry>,
    /// One slot per issued derivation, in entry order (`None` for a missing
    /// exec), folded at completion.
    slots: Vec<Option<QueryResult<RuleExecNode>>>,
    /// This frame registered itself as the in-flight computation for
    /// `(vid, node)` (caching on).
    registered: bool,
}

/// What only a rule-execution frame holds.
#[derive(Debug)]
struct Exec {
    rid: RuleExecId,
    /// The stored `ruleExec`'s rule and node, once found.
    record: Option<(Sym, NodeId)>,
    /// The stored `ruleExec`'s input list, shared.
    inputs: Arc<[TupleId]>,
    /// One slot per input, in body order, folded at completion.
    slots: Vec<Option<QueryResult>>,
}

impl Frame {
    fn new(
        node: NodeId,
        depth: usize,
        path: Arc<[TupleId]>,
        parent: Option<(u32, u32)>,
        kind: Kind,
    ) -> Self {
        Frame {
            node,
            depth,
            path,
            parent,
            nodes: None,
            next: 0,
            outstanding: 0,
            completed: false,
            kind,
        }
    }
}

impl Kind {
    /// A vertex expanded at `node`, with no facts yet.
    fn vertex(vid: TupleId, node: NodeId) -> Self {
        Kind::Vertex(Vertex {
            head: Head::new(vid, node, None),
            rest: Vec::new(),
            slots: Vec::new(),
            registered: false,
        })
    }
}

/// A finished frame's value on its way to the frame awaiting it.
#[derive(Debug)]
enum Completed {
    Vertex {
        done: Folded<ProofTree>,
        /// False for pruned and cache-served completions, which the legacy
        /// engine never inserts into the cache (only a registered frame's
        /// value is inserted, and a cycle-guard completion never registers).
        cacheable: bool,
    },
    /// `None` when the execution's record was not found.
    Exec(Option<Folded<RuleExecNode>>),
}

/// Session-local scheduling events, drained in FIFO order. The flat event
/// loop (instead of recursion) keeps stack depth constant regardless of
/// proof size and makes the processing order deterministic.
#[derive(Debug)]
enum Event {
    Start(u32),
    Advance(u32),
    Done { frame: u32, completed: Completed },
}

/// A record staged for shipment, waiting for the next [`QueryExecutor::poll`]
/// flush to seal it into a per-destination frame.
#[derive(Debug)]
struct StagedOp {
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
    /// How many children a frame keeps outstanding at once: the traversal
    /// order (one for depth-first, unbounded for breadth-first).
    width: usize,
    started_at: SimTime,
    /// The frame arena, indexed by frame id; `None` once a frame retired.
    frames: Vec<Option<Frame>>,
    queue: VecDeque<Event>,
    stats: QueryStats,
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
            width: match spec.options.traversal {
                TraversalOrder::DepthFirst => 1,
                TraversalOrder::BreadthFirst => usize::MAX,
            },
            spec,
            started_at: now,
            frames: Vec::new(),
            queue: VecDeque::new(),
            stats: QueryStats::default(),
            in_flight: IdMap::default(),
            waiters: IdMap::default(),
            root_result: None,
        };
        let root = Kind::vertex(session.spec.vid, home);
        let root = Frame::new(home, 0, Arc::default(), None, root);
        // Pushed into the empty arena, so its first allocation is a growth
        // step that the next frames fit in (`vec![root]` holds one frame,
        // and the first child reallocates it).
        session.frames.push(Some(root));
        if remote {
            // The querying node contacts the tuple's home node.
            self.staged.push(StagedOp {
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
            session.queue.push_back(Event::Start(0));
            self.sessions.insert(qid, session);
            self.run_session(qid, system, now);
        }
        QueryHandle(qid)
    }

    /// Seal every staged record into per-destination [`QueryBatch`] frames
    /// with first-use dictionary headers and return them for shipment.
    ///
    /// One flush ships one frame per (source, destination, direction), in
    /// the order each was first staged. Concurrent sessions share it: each
    /// session's records stay together and in staging order, and sessions
    /// follow in the order they first staged toward the frame, so
    /// per-destination processing never depends on how many sessions a
    /// flush carried.
    ///
    /// Accounting happens here, per contributing session: one message, its
    /// own record bodies, and the dictionary entries its records are first
    /// to reference toward that destination. A single-session frame is
    /// charged whole to its session.
    pub fn poll(&mut self) -> Vec<QueryBatch> {
        if self.staged.is_empty() {
            return Vec::new();
        }
        let mut staged = std::mem::take(&mut self.staged);
        // One pass numbers each frame at its first record (endpoints and
        // record count) and each session group at its first record (frame
        // and record count), and notes every record's group. A counting sort
        // then gives each record its place: frames in first-staged order,
        // a frame's groups in the order they first staged toward it, a
        // group's records in staging order. Staging order decides
        // dictionary first use, so sealing is deterministic. A flush has no
        // more frames or groups than records, so nothing here regrows, and
        // each frame's records move into one vector of exactly their count.
        let n = staged.len();
        let mut frame_ids: IdMap<(NodeId, NodeId, bool), u32> =
            IdMap::with_capacity_and_hasher(n, Default::default());
        // (from, to, records, next free place)
        let mut frames: Vec<(NodeId, NodeId, u32, u32)> = Vec::with_capacity(n);
        let mut group_ids: IdMap<(u32, u64), u32> =
            IdMap::with_capacity_and_hasher(n, Default::default());
        // (frame, records; then the group's next free place)
        let mut groups: Vec<(u32, u32)> = Vec::with_capacity(n);
        // Each record's group; then its place.
        let mut place: Vec<u32> = Vec::with_capacity(n);
        for s in &staged {
            let next = frames.len() as u32;
            let frame = *frame_ids
                .entry((s.from, s.to, s.op.is_request()))
                .or_insert_with(|| {
                    frames.push((s.from, s.to, 0, 0));
                    next
                });
            frames[frame as usize].2 += 1;
            let next = groups.len() as u32;
            let group = *group_ids.entry((frame, s.op.qid())).or_insert_with(|| {
                groups.push((frame, 0));
                next
            });
            groups[group as usize].1 += 1;
            place.push(group);
        }
        let mut at = 0;
        for frame in &mut frames {
            frame.3 = at;
            at += frame.2;
        }
        for group in &mut groups {
            let frame = &mut frames[group.0 as usize];
            let records = group.1;
            group.1 = frame.3;
            frame.3 += records;
        }
        for group in &mut place {
            let next = &mut groups[*group as usize].1;
            *group = *next;
            *next += 1;
        }
        // Move every record to its place, one swap each.
        for i in 0..n {
            while place[i] as usize != i {
                let j = place[i] as usize;
                staged.swap(i, j);
                place.swap(i, j);
            }
        }
        let mut staged = staged.into_iter();
        let mut batches = Vec::with_capacity(frames.len());
        for (from, to, records, _) in frames {
            let mut ops: Vec<QueryOp> = Vec::with_capacity(records as usize);
            ops.extend(staged.by_ref().take(records as usize).map(|s| s.op));
            let sent = self.dict_sent.entry(to).or_default();
            let mut dict: Vec<Sym> = Vec::new();
            let mut frame_header = 0usize;
            let mut frame_body = 0usize;
            // A frame's groups are its runs of one session's records.
            for group in ops.chunk_by(|a, b| a.qid() == b.qid()) {
                // One walk per record gives its body size and its names.
                // The session pays for exactly the entries its records are
                // first to ship toward this destination; a name the
                // destination has seen costs one handle probe and no string
                // work.
                let mut header = 0usize;
                let mut body = 0usize;
                for op in group {
                    body += op.seal(&mut |name| {
                        if sent.first_use(name) {
                            header += nt_runtime::dict_entry_wire_size(name.as_str());
                            dict.push(name);
                        }
                    });
                }
                let qid = group[0].qid();
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
                QueryOp::ExpandVertex { frame, .. } | QueryOp::ExpandExec { frame, .. } => {
                    session.queue.push_back(Event::Start(frame));
                }
                QueryOp::VertexDone { frame, value, .. } => {
                    debug_assert_eq!(frame, 0, "only the root vertex crosses the wire");
                    session.root_result = Some(value);
                }
                QueryOp::ExecDone { frame, exec, .. } => {
                    let completed = Completed::Exec(exec);
                    session.queue.push_back(Event::Done { frame, completed });
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
    /// to the wire.
    pub fn cancel(&mut self, handle: QueryHandle, now: SimTime) {
        let qid = handle.0;
        let Some(session) = self.sessions.remove(&qid) else {
            return;
        };
        // One cancel frame per distinct remote node with live frames.
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        for frame in session.frames.iter().flatten() {
            nodes.insert(frame.node);
        }
        for node in nodes {
            if node != session.spec.querier {
                self.staged.push(StagedOp {
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
            self.finished.insert(qid, Finished { result, stats });
        }
    }
}

impl Session {
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(event) = self.queue.pop_front() {
            match event {
                Event::Start(f) => self.start(f, ctx),
                Event::Advance(f) => self.advance(f, ctx),
                Event::Done { frame, completed } => self.finish(frame, completed, ctx),
            }
        }
    }

    fn frame(&mut self, f: u32) -> &mut Frame {
        self.frames[f as usize].as_mut().expect("a live frame")
    }

    fn vertex(&mut self, f: u32) -> &mut Vertex {
        match &mut self.frame(f).kind {
            Kind::Vertex(v) => v,
            Kind::Exec(_) => panic!("frame {f} is not a vertex frame"),
        }
    }

    /// Begin expanding a frame: read its own facts, then scan its children
    /// in the traversal's schedule.
    fn start(&mut self, f: u32, ctx: &mut Ctx<'_>) {
        let entries = if matches!(self.frame(f).kind, Kind::Vertex(_)) {
            match self.open_vertex(f, ctx) {
                Some(entries) => entries,
                None => return,
            }
        } else if self.open_exec(f, ctx) {
            &[]
        } else {
            return;
        };
        if self.scan(f, entries, ctx) {
            // Nothing to wait for: the frame completes here, in either
            // traversal order.
            self.complete(f, ctx);
        }
    }

    /// A vertex's own facts, in the legacy recursion's order: count the
    /// visit, consult the cache, read the local `prov` entries, guard
    /// against cycles, defer onto an in-flight duplicate, prune by depth.
    /// Returns the entries to scan, or `None` when the vertex completed or
    /// deferred without a scan.
    fn open_vertex<'a>(&mut self, f: u32, ctx: &mut Ctx<'a>) -> Option<&'a [ProvEntry]> {
        self.stats.vertices_visited += 1;
        let use_cache = self.spec.options.use_cache;
        let fold = self.fold;
        let vid = self.vertex(f).head.vid;
        let (node, depth) = (self.frame(f).node, self.frame(f).depth);
        if use_cache {
            if let Some(done) = ctx.cache.lookup(ctx.system, vid, node, fold) {
                self.stats.cache_hits += 1;
                let completed = Completed::Vertex {
                    done,
                    cacheable: false,
                };
                self.queue.push_back(Event::Done {
                    frame: f,
                    completed,
                });
                return None;
            }
        }
        // Copied out of `ctx`, so the entries stay borrowed from the store
        // while derivations are issued through `ctx`.
        let system = ctx.system;
        let (tuple, entries) = read_vertex(system, node, vid);
        let frame = self.frame(f);
        frame.nodes = fold.nodes(node);
        let cyclic = frame.path.contains(&vid);
        self.vertex(f).head.tuple = fold.tuple(tuple, entries);
        if cyclic {
            // Cycle guard: return the bare vertex, never cached (it never
            // registers). Checked BEFORE the in-flight defer below — on a
            // cyclic (malformed) store an ancestor frame is necessarily the
            // one computing this key, so deferring onto it would deadlock
            // the session.
            self.complete(f, ctx);
            return None;
        }
        if use_cache {
            if let Some(&computing) = self.in_flight.get(&(vid, node)) {
                // A concurrent breadth-first branch is already computing this
                // sub-query; defer onto it instead of racing (preserves the
                // sequential engine's cache-hit accounting).
                self.stats.vertices_visited -= 1; // re-counted on wake
                self.waiters.entry(computing).or_default().push(f);
                return None;
            }
            self.in_flight.insert((vid, node), f);
            self.vertex(f).registered = true;
        }
        if self.spec.options.max_depth.is_some_and(|max| depth >= max) {
            self.vertex(f).head.pruned = true;
            self.complete(f, ctx);
            return None;
        }
        Some(entries)
    }

    /// An execution's record, looked up at its node. False when it is not
    /// there: the derivation contributes nothing (the legacy engine's
    /// `continue`), and the frame responds at once.
    fn open_exec(&mut self, e: u32, ctx: &mut Ctx<'_>) -> bool {
        let fold = self.fold;
        let frame = self.frame(e);
        let Kind::Exec(x) = &mut frame.kind else {
            panic!("frame {e} is not an exec frame");
        };
        let Some(exec) = ctx
            .system
            .store(frame.node)
            .and_then(|s| s.rule_exec(x.rid))
        else {
            self.respond(e, None, ctx);
            return false;
        };
        x.record = Some((exec.rule, exec.node));
        x.slots = vec![None; exec.inputs.len()];
        x.inputs = exec.inputs.clone();
        frame.nodes = fold.nodes(exec.node);
        true
    }

    /// The one scan: issue frame `f`'s next children, in order, while fewer
    /// than the width are outstanding. A vertex's children are its
    /// derivations (base entries mark it base; the derivation bound prunes
    /// it and ends the scan), an execution's its inputs.
    ///
    /// A starting vertex reads `entries`, its store entries, in place. Only
    /// a scan that stops at the width can stop with entries left; it copies
    /// the rest, once, and later scans (given no entries) read that. Returns
    /// true once the scan is exhausted and nothing is outstanding.
    fn scan(&mut self, f: u32, entries: &[ProvEntry], ctx: &mut Ctx<'_>) -> bool {
        let width = self.width;
        let limit = self.spec.options.max_derivations_per_vertex;
        loop {
            let frame = self.frame(f);
            if frame.outstanding >= width {
                if let Kind::Vertex(v) = &mut frame.kind {
                    if frame.next < entries.len() {
                        v.rest = entries[frame.next..].to_vec();
                        frame.next = 0;
                    }
                }
                return false;
            }
            let child = match &mut frame.kind {
                Kind::Vertex(v) => {
                    let scanned = if entries.is_empty() { &v.rest } else { entries };
                    let Some(&entry) = scanned.get(frame.next) else {
                        break;
                    };
                    frame.next += 1;
                    if entry.is_base() {
                        v.head.is_base = true;
                        continue;
                    }
                    if limit.is_some_and(|limit| v.slots.len() >= limit) {
                        v.head.pruned = true;
                        frame.next = scanned.len();
                        break;
                    }
                    let slot = v.slots.len() as u32;
                    v.slots.push(None);
                    // The inputs' cycle guard: this vertex's path plus its
                    // vid, in one allocation that the request and every
                    // input frame share.
                    let path = frame.path.iter().copied().chain([v.head.vid]).collect();
                    let exec = Exec {
                        rid: entry.rid.expect("non-base entry has rid"),
                        record: None,
                        inputs: Arc::default(),
                        slots: Vec::new(),
                    };
                    let parent = Some((f, slot));
                    Frame::new(entry.rloc, frame.depth, path, parent, Kind::Exec(exec))
                }
                Kind::Exec(x) => {
                    let Some(&vid) = x.inputs.get(frame.next) else {
                        break;
                    };
                    let slot = frame.next as u32;
                    frame.next += 1;
                    let (node, path, parent) = (frame.node, frame.path.clone(), Some((f, slot)));
                    Frame::new(node, frame.depth + 1, path, parent, Kind::vertex(vid, node))
                }
            };
            frame.outstanding += 1;
            // A derivation that fired on another node is a real request to
            // it; everything else starts here.
            let (from, to, c) = (frame.node, child.node, self.frames.len() as u32);
            let request = match &child.kind {
                Kind::Exec(x) if to != from => Some(QueryOp::ExpandExec {
                    qid: self.qid,
                    frame: c,
                    rid: x.rid,
                    depth: child.depth as u32,
                    path: child.path.clone(),
                }),
                _ => None,
            };
            self.frames.push(Some(child));
            match request {
                Some(op) => ctx.staged.push(StagedOp { from, to, op }),
                None => self.queue.push_back(Event::Start(c)),
            }
        }
        self.frame(f).outstanding == 0
    }

    /// A child of frame `f` finished: issue its next children, or complete
    /// it once its scan is exhausted and nothing is outstanding. Duplicate
    /// advances (one is queued per child completion) and advances of
    /// retired frames do nothing.
    fn advance(&mut self, f: u32, ctx: &mut Ctx<'_>) {
        let live = self.frames[f as usize].as_ref();
        if live.is_some_and(|frame| !frame.completed) && self.scan(f, &[], ctx) {
            self.complete(f, ctx);
        }
    }

    /// Fold a frame's facts and slots into its value and send it on. The
    /// frame is about to retire, so its parts are moved out, not cloned —
    /// completion costs O(value), not O(value) per ancestor level.
    fn complete(&mut self, f: u32, ctx: &mut Ctx<'_>) {
        let fold = self.fold;
        let frame = self.frame(f);
        frame.completed = true;
        let nodes = frame.nodes.take();
        match &mut frame.kind {
            Kind::Vertex(v) => {
                let vid = v.head.vid;
                let head = std::mem::replace(&mut v.head, Head::new(vid, frame.node, None));
                // A vertex pruning cut is never cached.
                let cacheable = !head.pruned;
                let done = Folded {
                    value: fold.vertex(head, std::mem::take(&mut v.slots)),
                    nodes,
                };
                let completed = Completed::Vertex { done, cacheable };
                self.queue.push_back(Event::Done {
                    frame: f,
                    completed,
                });
            }
            Kind::Exec(x) => {
                let (rule, node) = x.record.expect("exec record found");
                let exec = Folded {
                    value: fold.exec(x.rid, rule, node, std::mem::take(&mut x.slots)),
                    nodes,
                };
                self.respond(f, Some(exec), ctx);
            }
        }
    }

    /// An execution's value goes to the vertex awaiting it: as a
    /// [`QueryOp::ExecDone`] record when that vertex lives on another node.
    fn respond(&mut self, e: u32, exec: Option<Folded<RuleExecNode>>, ctx: &mut Ctx<'_>) {
        let frame = self.frame(e);
        let (from, (parent, _)) = (frame.node, frame.parent.expect("an exec has a parent"));
        let to = self.frame(parent).node;
        if from == to {
            let completed = Completed::Exec(exec);
            self.queue.push_back(Event::Done {
                frame: e,
                completed,
            });
        } else {
            let qid = self.qid;
            let op = QueryOp::ExecDone {
                qid,
                frame: e,
                exec,
            };
            ctx.staged.push(StagedOp { from, to, op });
        }
    }

    /// A frame's value reached its node's side of the session: retire the
    /// frame; for a registered vertex, maintain the cache and in-flight
    /// bookkeeping and wake deferred duplicates; then settle the value at
    /// the session root or in its parent's slot, and advance the parent.
    fn finish(&mut self, f: u32, completed: Completed, ctx: &mut Ctx<'_>) {
        let frame = self.frames[f as usize]
            .take()
            .expect("a frame finishes once");
        if let (Kind::Vertex(v), Completed::Vertex { done, cacheable }) = (&frame.kind, &completed)
        {
            if v.registered {
                let (vid, node) = (v.head.vid, frame.node);
                self.in_flight.remove(&(vid, node));
                if *cacheable {
                    ctx.cache
                        .insert(ctx.system, vid, node, self.spec.kind, done);
                }
                if let Some(waiters) = self.waiters.remove(&f) {
                    for w in waiters {
                        self.queue.push_back(Event::Start(w));
                    }
                }
            }
        }
        let Some((p, slot)) = frame.parent else {
            let Completed::Vertex { done, .. } = completed else {
                unreachable!("the session root is a vertex");
            };
            if frame.node == self.spec.querier {
                self.root_result = Some(done.value);
            } else {
                let (qid, value) = (self.qid, done.value);
                let op = QueryOp::VertexDone {
                    qid,
                    frame: f,
                    value,
                };
                let (from, to) = (frame.node, self.spec.querier);
                ctx.staged.push(StagedOp { from, to, op });
            }
            return;
        };
        let parent = self.frame(p);
        match (&mut parent.kind, completed) {
            (Kind::Vertex(v), Completed::Exec(Some(exec))) => {
                absorb(&mut parent.nodes, exec.nodes);
                v.slots[slot as usize] = Some(exec.value);
            }
            (Kind::Vertex(_), Completed::Exec(None)) => {}
            (Kind::Exec(x), Completed::Vertex { done, .. }) => {
                absorb(&mut parent.nodes, done.nodes);
                x.slots[slot as usize] = Some(done.value);
            }
            _ => unreachable!("a vertex awaits executions and an execution awaits vertices"),
        }
        parent.outstanding -= 1;
        self.queue.push_back(Event::Advance(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::api::{QueryKind, QueryMode, QueryOptions};
    use crate::query::local::QueryEngine;
    use nt_runtime::IdSet;
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
    /// extended with the requesting vid (`scan` passing its vertex's
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
    fn cancellation_stops_traffic() {
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

    /// Interleaved sessions never re-ship a symbol already charged to a
    /// destination in the same poll — the second session rides the first's
    /// shared first-use dictionary header — and
    /// [`QueryExecutor::reset_dictionaries`] restores exactly one full charge
    /// for the next interleaved pair.
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
        // After reset_dictionaries the next interleaved pair re-ships the
        // full charge exactly once more.
        ex.reset_dictionaries();
        let c = ex.submit(&sys, spec("n1"), SimTime::ZERO);
        let d = ex.submit(&sys, spec("n1"), SimTime::ZERO);
        drain_concurrent(&mut ex, &sys, &[c, d]);
        let (_, sc) = ex.take_result(c).expect("done");
        let (_, sd) = ex.take_result(d).expect("done");
        assert_eq!(sc.dict_bytes + sd.dict_bytes, solo_stats.dict_bytes);
    }

    /// What the next poll will seal: `(qid, from, to, is_request, op)` per
    /// staged record, in staging order.
    type Staged = Vec<(u64, NodeId, NodeId, bool, QueryOp)>;

    fn staged_of(ex: &QueryExecutor) -> Staged {
        ex.staged
            .iter()
            .map(|s| (s.op.qid(), s.from, s.to, s.op.is_request(), s.op.clone()))
            .collect()
    }

    /// The frames one poll must ship for `staged`, built the obvious way:
    /// one per (from, to, direction) in first-staged order, and inside each
    /// the sessions in first-staged order, each session's records together
    /// and in staging order.
    fn expected_frames(staged: &Staged) -> Vec<(NodeId, NodeId, bool, Vec<QueryOp>)> {
        let mut frames: Vec<(NodeId, NodeId, bool, Vec<QueryOp>)> = Vec::new();
        for &(_, from, to, request, _) in staged {
            if !frames
                .iter()
                .any(|f| (f.0, f.1, f.2) == (from, to, request))
            {
                frames.push((from, to, request, Vec::new()));
            }
        }
        for (from, to, request, ops) in &mut frames {
            let toward = |s: &&(u64, NodeId, NodeId, bool, QueryOp)| {
                (s.1, s.2, s.3) == (*from, *to, *request)
            };
            let mut sessions: Vec<u64> = Vec::new();
            for s in staged.iter().filter(toward) {
                if !sessions.contains(&s.0) {
                    sessions.push(s.0);
                }
            }
            for qid in sessions {
                ops.extend(
                    staged
                        .iter()
                        .filter(toward)
                        .filter(|s| s.0 == qid)
                        .map(|s| s.4.clone()),
                );
            }
        }
        frames
    }

    /// One poll's frames against what was staged for it: no frame mixes
    /// directions, at most one frame per (from, to, direction), and the
    /// frames are [`expected_frames`]. Returns how many carried more than
    /// one session.
    fn check_poll(staged: &Staged, batches: &[QueryBatch]) -> usize {
        let mut keys = BTreeSet::new();
        for batch in batches {
            let request = batch.ops()[0].is_request();
            assert!(
                batch.ops().iter().all(|op| op.is_request() == request),
                "a frame mixes directions: {batch:?}"
            );
            assert!(
                keys.insert((batch.from, batch.to, request)),
                "two frames for {} -> {} (request: {request})",
                batch.from,
                batch.to
            );
        }
        let shipped: Vec<_> = batches
            .iter()
            .map(|b| (b.from, b.to, b.is_request(), b.ops().to_vec()))
            .collect();
        assert_eq!(shipped, expected_frames(staged));
        batches
            .iter()
            .filter(|b| b.ops().iter().any(|op| op.qid() != b.ops()[0].qid()))
            .count()
    }

    /// One `poll` seals one frame per (from, to, direction): sessions share
    /// it, each session's records contiguous and in staging order, and each
    /// contributing session is charged one message, its own records and the
    /// dictionary entries it is first to ship. A hand-staged flush makes
    /// sessions interleave and both directions meet on one pair of nodes;
    /// concurrent drains of both traversals check every poll they make.
    #[test]
    fn one_poll_ships_one_frame_per_endpoints_and_direction() {
        let (sys, best) = sample_system();
        let spec = |querier: &str, traversal| QuerySpec {
            querier: NodeId::new(querier),
            vid: best.id(),
            kind: QueryKind::Lineage,
            mode: QueryMode::Distributed,
            options: QueryOptions {
                traversal,
                use_cache: true,
                ..QueryOptions::default()
            },
        };
        let mut ex = QueryExecutor::new();
        let handles: Vec<QueryHandle> = (0..3)
            .map(|_| {
                ex.submit(
                    &sys,
                    spec("n1", TraversalOrder::BreadthFirst),
                    SimTime::ZERO,
                )
            })
            .collect();
        let [a, b, c] = [handles[0].0, handles[1].0, handles[2].0];
        let (n1, n2, n3) = (NodeId::new("n1"), NodeId::new("n2"), NodeId::new("n3"));
        let nodes =
            |names: &[NodeId]| QueryResult::ParticipatingNodes(names.iter().copied().collect());
        // Each submit staged an ExpandVertex n1 -> n3; stage after them a
        // second request of a's toward n3, responses both ways between n1
        // and n3 whose node sets overlap, and a lone request n3 -> n2.
        for (qid, from, to, op) in [
            (
                b,
                n3,
                n1,
                QueryOp::VertexDone {
                    qid: b,
                    frame: 0,
                    value: nodes(&[n2]),
                },
            ),
            (a, n1, n3, QueryOp::Cancel { qid: a }),
            (
                c,
                n1,
                n3,
                QueryOp::VertexDone {
                    qid: c,
                    frame: 1,
                    value: nodes(&[n1]),
                },
            ),
            (
                a,
                n3,
                n1,
                QueryOp::VertexDone {
                    qid: a,
                    frame: 0,
                    value: nodes(&[n2, n3]),
                },
            ),
            (
                b,
                n3,
                n1,
                QueryOp::ExecDone {
                    qid: b,
                    frame: 2,
                    exec: None,
                },
            ),
            (c, n3, n2, QueryOp::Cancel { qid: c }),
        ] {
            assert_eq!(op.qid(), qid);
            ex.staged.push(StagedOp { from, to, op });
        }
        let staged = staged_of(&ex);
        let batches = ex.poll();
        assert_eq!(check_poll(&staged, &batches), 2);
        let shape: Vec<_> = batches
            .iter()
            .map(|batch| {
                let qids: Vec<u64> = batch.ops().iter().map(QueryOp::qid).collect();
                (batch.from, batch.to, batch.is_request(), qids)
            })
            .collect();
        assert_eq!(
            shape,
            [
                (n1, n3, true, vec![a, a, b, c]),
                (n3, n1, false, vec![b, b, a]),
                (n1, n3, false, vec![c]),
                (n3, n2, true, vec![c]),
            ]
        );
        // a rides two frames, b two, c three; n2 is first named by b and
        // n3 by a toward n1, n1 by c toward n3.
        let stats: Vec<QueryStats> = handles
            .iter()
            .map(|h| ex.stats_so_far(*h).expect("running"))
            .collect();
        let messages: Vec<u64> = stats.iter().map(|s| s.messages).collect();
        let records: Vec<u64> = stats.iter().map(|s| s.records).collect();
        assert_eq!((messages, records), (vec![2, 2, 3], vec![3, 3, 3]));
        let entry = |n: NodeId| nt_runtime::dict_entry_wire_size(n.as_sym().as_str()) as u64;
        let dict: Vec<u64> = stats.iter().map(|s| s.dict_bytes).collect();
        assert_eq!(dict, vec![entry(n3), entry(n2), entry(n1)]);
        let wire: usize = batches.iter().map(QueryBatch::wire_size).sum();
        assert_eq!(stats.iter().map(|s| s.bytes).sum::<u64>(), wire as u64);
        assert_eq!(ex.traffic().bytes, wire as u64);

        // Real concurrent sessions: every poll of the drain.
        let mut shared = 0;
        for traversal in [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst] {
            let mut ex = QueryExecutor::new();
            let handles: Vec<QueryHandle> = ["n1", "n1", "n2", "n3"]
                .iter()
                .map(|querier| ex.submit(&sys, spec(querier, traversal), SimTime::ZERO))
                .collect();
            let mut safety = 0;
            while handles.iter().any(|h| !ex.is_done(*h)) {
                let staged = staged_of(&ex);
                let batches = ex.poll();
                assert!(!batches.is_empty(), "pending sessions must stage frames");
                shared += check_poll(&staged, &batches);
                for batch in batches {
                    ex.deliver(&sys, batch, SimTime::ZERO);
                }
                safety += 1;
                assert!(safety < 10_000, "sessions failed to converge");
            }
        }
        assert!(shared > 0, "concurrent sessions share frames");
    }
}
