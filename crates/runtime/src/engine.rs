//! The per-node incremental evaluation engine.
//!
//! A [`NodeEngine`] holds one node's partition of every relation and evaluates
//! the localized rules of a [`CompiledProgram`] using *generation-based
//! semi-naive* evaluation. Each [`NodeEngine::run`] call drains the delta
//! queue in generations: all currently queued insertions and deletions are
//! applied to the tables first (sequentially, in stream order), then the
//! surviving membership changes replay once, in stream order, and each fires
//! the rules its relation triggers right there — a monotonic rule joins
//! through the kernel (module `kernel`) and commits its candidates, an
//! aggregate recomputes its group, a negation rule reconciles, a
//! disappearance cascades first. The replay writes no table, so every join
//! reads the tables the apply phase left. Derived tuples feed the next
//! generation's queue until a local fixpoint is reached. Derived tuples
//! whose home (location attribute) is another node are not stored locally;
//! instead the engine records them in the database's *outbox*
//! ([`Database::outbox_insert`]: remote heads by tuple id with their
//! destination and derivations — a structure of its own, not a relation),
//! ships a (tuple, derivation) pair when it is new there and
//! its retraction when the pair was there, coalesces the implied sends (an
//! insert/delete pair for the same tuple and derivation within one round
//! cancels; identical re-emissions dedupe) and flushes them as
//! per-destination [`DeltaBatch`]es — fixed-width [`DeltaRecord`] bodies
//! behind a dictionary header (the discipline is [`Dictionary`]'s) — for
//! the network layer (crate `simnet`, orchestrated by the `nettrails`
//! platform) to deliver.
//!
//! ## Incremental deletions
//!
//! Every derived tuple carries the derivations that support it
//! ([`crate::store`]), and every structure here names a tuple by the id it
//! carries: equal tuples have one (the identity rule atop [`crate::value`]),
//! however a rule or a sender spelled their numbers. Each lost derivation is
//! retracted once, by the mechanism that owns it:
//!
//! * a **monotonic** rule's, by the dependency cascade of the node that ran
//!   it. Only these are in the reverse-dependency index
//!   ([`CompiledProgram::cascades`] decides at compile time), so every key is
//!   a tuple stored here. When a tuple disappears, the engine looks up every
//!   derivation that used it, in the outbox first and then in the tables,
//!   retracts those derivations, and cascades. This is the counting form of
//!   incremental view maintenance; it is exact for the protocol programs
//!   shipped with NetTrails (their recursion goes through strictly
//!   increasing costs or loop-suppressed paths, so no tuple can support
//!   itself);
//! * an **aggregate** rule's, by group recomputation, and a **negation**
//!   rule's, by per-rule reconciliation;
//! * one **received from another node**, by the sender's cascade, which
//!   ships the `Delete`.
//!
//! ## Provenance hooks
//!
//! Every derivation added or retracted is reported as a [`Firing`]; the
//! `provenance` crate turns firings into the distributed `prov` / `ruleExec`
//! relations of ExSPAN. Base-tuple insertions are reported too so the
//! provenance graph contains the base vertices.

use crate::catalog::{fits, RelationSchema};
use crate::compile::{CompiledProgram, CompiledRule};
use crate::error::Result;
use crate::eval::{Frame, SlotAtom, SlotTerm};
use crate::kernel::{self, Candidate, EvalContext};
#[cfg(test)]
use crate::store::BASE_RULE;
use crate::store::{base_rule_sym, Database, Derivation, Membership};
use crate::tuple::{Delta, Tuple, TupleId};
use crate::value::{Addr, Dictionary, IdMap, IdSet, Sym, Value};
use std::collections::VecDeque;
use std::sync::Arc;

#[doc(hidden)]
pub use crate::fence::OUTBOX_PREFIX;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The node this engine runs on (its address / name).
    pub node: Addr,
    /// Safety cap on the number of deltas processed by a single [`NodeEngine::run`]
    /// call; prevents a diverging program from hanging the simulator.
    pub max_deltas_per_run: usize,
    /// Accepts `true` only: every join step probes the posting lists of
    /// the columns its plan binds.
    // fence: benchmark/src/layered.rs:241
    #[doc(hidden)]
    pub use_join_indexes: bool,
    /// Accepts 1 only: a generation evaluates on the engine's thread.
    // fence: benchmark/src/layered.rs:242
    #[doc(hidden)]
    pub fixpoint_workers: usize,
    /// Accepts 64 only: nothing is dispatched.
    // fence: benchmark/src/layered.rs:243
    #[doc(hidden)]
    pub fixpoint_dispatch_threshold: usize,
    /// Accepts `true` only: tables are stored column-major.
    // fence: benchmark/src/layered.rs:244
    #[doc(hidden)]
    pub columnar_storage: bool,
}

impl EngineConfig {
    /// Config for a node with default limits.
    pub fn new(node: impl Into<Addr>) -> Self {
        EngineConfig {
            node: node.into(),
            max_deltas_per_run: 1_000_000,
            use_join_indexes: true,
            fixpoint_workers: crate::fence::FIXPOINT_WORKERS,
            fixpoint_dispatch_threshold: crate::fence::FIXPOINT_DISPATCH_THRESHOLD,
            columnar_storage: true,
        }
    }
}

/// Counters describing the work an engine has done. Used by the maintenance
/// overhead and incremental-vs-recompute experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Deltas dequeued and applied.
    pub deltas_processed: u64,
    /// Rule firings (derivations created).
    pub rule_firings: u64,
    /// Derivations retracted, each exactly once: by the dependency cascade
    /// for a monotonic rule, by recomputation for an aggregate or negation
    /// rule.
    pub retractions: u64,
    /// Tuples handed to the network layer.
    pub tuples_sent: u64,
    /// Estimated bytes handed to the network layer (dictionary headers +
    /// record bodies of every shipped batch). The engine is the single
    /// source of truth for protocol payload bytes; the platform charges the
    /// network with exactly these sizes.
    pub bytes_sent: u64,
    /// The dictionary-header share of `bytes_sent`: interned strings shipped
    /// once per (destination, first use).
    pub dict_bytes_sent: u64,
    /// Candidate tuples actually examined while joining body atoms,
    /// checking negated atoms and recomputing aggregate groups: the tuples
    /// the probe kernel yields, the anchor posting list already filtered on
    /// every bound column (every stored tuple for a step that binds none).
    pub join_probes: u64,
    /// Aggregate group recomputations.
    pub agg_recomputes: u64,
    /// Base facts refused because they do not fit their relation.
    pub rejected_facts: u64,
}

/// A rule-execution event, reported for provenance capture. Every identifier
/// in a firing is interned, so the provenance layer consumes fixed-width
/// records without string traffic. A firing carries one tuple, its head:
/// inputs are named by id, as in the paper's `ruleExec(@RLoc, RID, Rule,
/// VIDList)`, and their contents live with their own vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// Rule name ([`crate::store::BASE_RULE`] for base-tuple events).
    pub rule: Sym,
    /// Node where the rule executed (always this engine's node).
    pub node: Addr,
    /// The derived (or retracted) head tuple.
    pub head: Tuple,
    /// The node where the head tuple lives.
    pub head_home: Addr,
    /// Identifiers of the body tuples, in body order: the derivation's own
    /// list, shared.
    pub inputs: Arc<[TupleId]>,
    /// True for a derivation, false for a retraction.
    pub insert: bool,
}

/// A delta destined for another node.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteDelta {
    /// Destination node.
    pub dest: Addr,
    /// The insertion or deletion to apply there.
    pub delta: Delta,
    /// The derivation that justifies it (the receiving engine stores it).
    pub derivation: Derivation,
}

/// One record inside a [`DeltaBatch`]: the shipped change plus the derivation
/// that justifies it. Every identifier in the body is a fixed-width interned
/// handle.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// The insertion or deletion to apply at the destination.
    pub delta: Delta,
    /// The derivation that justifies it (the receiving engine stores it).
    pub derivation: Derivation,
}

impl DeltaRecord {
    /// Wire size of the record body: a 1-byte polarity tag, the tuple in the
    /// interned encoding and the derivation that travels with it.
    pub fn wire_size(&self) -> usize {
        1 + self.delta.tuple().wire_size() + self.derivation.wire_size()
    }
}

/// All deltas an engine ships to one destination in one round, behind the
/// dictionary header [`Dictionary`] owes that destination. The network layer
/// prices a batch as `header_bytes + Σ record bytes` and charges one
/// per-message framing header for the whole batch instead of one per tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// Destination node.
    pub dest: Addr,
    /// Dictionary entries first shipped to `dest` by this batch, in
    /// first-use order.
    pub dict: Vec<Sym>,
    /// The shipped records, in emission order.
    pub records: Vec<DeltaRecord>,
}

impl DeltaBatch {
    /// Bytes of the shared dictionary header.
    pub fn header_bytes(&self) -> usize {
        crate::dict_wire_size(&self.dict)
    }

    /// Bytes of the record bodies.
    pub fn body_bytes(&self) -> usize {
        self.records.iter().map(DeltaRecord::wire_size).sum()
    }

    /// Total priced payload: dictionary header + fixed-width record bodies.
    pub fn wire_size(&self) -> usize {
        self.header_bytes() + self.body_bytes()
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the batch carries no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Everything produced by one [`NodeEngine::run`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepOutput {
    /// Per-destination batches of tuples to ship to other nodes (one batch
    /// per destination per round).
    pub sends: Vec<DeltaBatch>,
    /// Rule execution events (for provenance capture).
    pub firings: Vec<Firing>,
    /// Local membership changes (insertions / deletions of visible tuples).
    pub local_changes: Vec<Delta>,
    /// True when the run hit the delta cap before reaching a fixpoint.
    pub truncated: bool,
}

#[derive(Debug, Clone)]
enum WorkItem {
    Add {
        tuple: Tuple,
        derivation: Derivation,
    },
    Remove {
        tuple: Tuple,
        derivation: Derivation,
    },
}

/// A membership transition observed while applying one generation's deltas,
/// recorded in stream order. The apply phase only mutates tables; everything
/// done *at* the transition — firings, local-change reporting, rule
/// triggering, cascade deletion — replays from these events afterwards, in
/// the same order.
#[derive(Debug, Clone)]
enum GenEvent {
    /// A base tuple gained or lost a derivation (reported to provenance).
    BaseFire { tuple: Tuple, insert: bool },
    /// A tuple became visible.
    Appeared(Tuple),
    /// A tuple lost its last derivation (its cascade runs in the replay).
    Disappeared(Tuple),
}

/// The per-node incremental evaluator. See the module documentation.
#[derive(Debug, Clone)]
pub struct NodeEngine {
    config: EngineConfig,
    program: Arc<CompiledProgram>,
    db: Database,
    queue: VecDeque<WorkItem>,
    /// (rule index, group key) -> current aggregate head tuple + derivation.
    agg_state: IdMap<(usize, Vec<Value>), (Tuple, Derivation)>,
    /// Sends queued during the current run, coalesced into per-destination
    /// batches when the run flushes. A slot is `None` when a later opposite
    /// delta for the same (dest, tuple, derivation) cancelled it.
    pending_sends: Vec<Option<RemoteDelta>>,
    /// Live pending slots per (dest, tuple id) — the coalescing index that
    /// guarantees a (tuple, derivation) pair is shipped at most once per
    /// round. Each slot list holds one entry per distinct pending
    /// derivation of that tuple.
    pending_index: IdMap<(Addr, TupleId), Vec<usize>>,
    /// What each destination has been sent ([`Dictionary`]): a batch's
    /// header carries only the strings its destination has never seen.
    dict_sent: IdMap<Addr, Dictionary>,
    /// The slot frame every evaluation on this engine binds variables in.
    frame: Frame,
    /// The ids of the atoms matched by the join in flight, beside `frame`.
    matched: Vec<TupleId>,
    stats: EngineStats,
}

impl NodeEngine {
    /// Create an engine for `config.node` executing `program`.
    ///
    /// Panics when a fenced field of `config` holds anything but its one
    /// legal value (see [`crate::fence`]).
    pub fn new(program: Arc<CompiledProgram>, config: EngineConfig) -> Self {
        if let Err(e) = crate::fence::check_engine_config(&config) {
            panic!("{e}");
        }
        let db = Database::for_program(&program.tables);
        NodeEngine {
            config,
            program,
            db,
            queue: VecDeque::new(),
            agg_state: IdMap::default(),
            pending_sends: Vec::new(),
            pending_index: IdMap::default(),
            dict_sent: IdMap::default(),
            frame: Frame::new(),
            matched: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// The node name this engine runs on.
    pub fn node(&self) -> &str {
        self.config.node.as_str()
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The node's database (read-only view).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Work counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// True when deltas are queued but not yet processed.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Queue the insertion of a base (extensional) tuple at this node. A
    /// tuple that does not fit its relation ([`RelationSchema::check`]) is
    /// refused and counted in [`EngineStats::rejected_facts`].
    pub fn insert_base(&mut self, tuple: Tuple) -> Result<()> {
        self.queue_base(tuple, true)
    }

    /// Queue the deletion of a base tuple previously inserted at this node,
    /// refused like [`NodeEngine::insert_base`] refuses one.
    pub fn delete_base(&mut self, tuple: Tuple) -> Result<()> {
        self.queue_base(tuple, false)
    }

    fn queue_base(&mut self, tuple: Tuple, insert: bool) -> Result<()> {
        self.ensure_table(&tuple);
        let table = self.db.table_sym(tuple.relation()).expect("table ensured");
        let checked = table.schema.check(tuple.values());
        checked.inspect_err(|_| self.stats.rejected_facts += 1)?;
        let derivation = Derivation::base(self.config.node);
        self.queue.push_back(match insert {
            true => WorkItem::Add { tuple, derivation },
            false => WorkItem::Remove { tuple, derivation },
        });
        Ok(())
    }

    /// Queue a delta received from another node.
    pub fn apply_remote(&mut self, delta: Delta, derivation: Derivation) {
        match delta {
            Delta::Insert(tuple) => self.queue.push_back(WorkItem::Add { tuple, derivation }),
            Delta::Delete(tuple) => self.queue.push_back(WorkItem::Remove { tuple, derivation }),
        }
    }

    /// Process queued deltas to a local fixpoint, one generation at a time:
    /// everything queued when a generation starts is applied and evaluated
    /// together, and the derivations it emits form the next generation.
    pub fn run(&mut self) -> StepOutput {
        let mut out = StepOutput::default();
        let mut budget = self.config.max_deltas_per_run;
        while !self.queue.is_empty() {
            if budget == 0 {
                out.truncated = true;
                break;
            }
            let take = self.queue.len().min(budget);
            budget -= take;
            self.stats.deltas_processed += take as u64;
            // Unless the budget cuts it short, a generation is the whole
            // queue: hand the buffer over instead of copying it out.
            let generation: Vec<WorkItem> = if take == self.queue.len() {
                std::mem::take(&mut self.queue).into()
            } else {
                self.queue.drain(..take).collect()
            };
            self.process_generation(generation, &mut out);
        }
        self.flush_sends(&mut out);
        // An engine may never run again; its join scratch goes with the run
        // (the queue and the send index went the same way above).
        self.frame = Frame::new();
        self.matched = Vec::new();
        out
    }

    /// Evaluate one generation, in two phases:
    ///
    /// * **apply** — every delta performs its membership transition
    ///   (sequentially, in stream order); transitions are recorded as
    ///   [`GenEvent`]s, and the tables do not change again until the next
    ///   generation: the replay emits into that generation's queue.
    /// * **replay** — the events replay in stream order: firings and local
    ///   changes are reported, an appearance fires its triggers and a
    ///   disappearance cascades and then fires its triggers
    ///   ([`Self::fire_triggers`]). Events that [`Self::net_events`] finds
    ///   to be transient churn are skipped: their net effect on the frozen
    ///   tables is nothing, so the rules they would have fired never observe
    ///   them.
    fn process_generation(&mut self, items: Vec<WorkItem>, out: &mut StepOutput) {
        let mut events: Vec<GenEvent> = Vec::new();
        for item in items {
            match item {
                WorkItem::Add { tuple, derivation } => {
                    self.apply_add(tuple, derivation, &mut events)
                }
                WorkItem::Remove { tuple, derivation } => {
                    self.apply_remove(tuple, derivation, &mut events)
                }
            }
        }
        let skip = self.net_events(&events);
        let mut reconciled: IdSet<usize> = IdSet::default();
        for (event, skip) in events.into_iter().zip(skip) {
            if skip {
                continue;
            }
            match event {
                GenEvent::BaseFire { tuple, insert } => out.firings.push(Firing {
                    rule: base_rule_sym(),
                    node: self.config.node,
                    head: tuple.clone(),
                    head_home: self.config.node,
                    inputs: Arc::default(),
                    insert,
                }),
                GenEvent::Appeared(tuple) => {
                    out.local_changes.push(Delta::Insert(tuple.clone()));
                    self.fire_triggers(&tuple, true, &mut reconciled, out);
                }
                GenEvent::Disappeared(tuple) => {
                    out.local_changes.push(Delta::Delete(tuple.clone()));
                    self.on_disappear(&tuple, &mut reconciled, out);
                }
            }
        }
    }

    /// Decide which membership events of a generation are *transient churn*
    /// and must not be replayed. Transitions for one tuple id strictly
    /// alternate (appear / disappear / appear / …), so the generation's net
    /// effect on the tuple follows from its first event and its final
    /// liveness:
    ///
    /// * **present before, present after** (delete + re-derive, possibly
    ///   with a different derivation) — every event is skipped. Downstream
    ///   derivations reference the tuple *id*, which never stopped
    ///   resolving, so neither the disappearance cascade nor the insertion
    ///   triggers may run; running the cascade here is not just wasteful but
    ///   wrong, because the frozen-table aggregate/negation recomputation
    ///   correctly concludes "no change" and would never re-emit what the
    ///   cascade retracted.
    /// * **absent before, present after** — nets to the final appearance.
    /// * **present before, absent after** — nets to the first
    ///   disappearance.
    /// * **absent before, absent after** (insert + delete of a previously
    ///   unknown tuple) — nets to nothing: the tuple never fired a rule and
    ///   has no dependents, so there is nothing to retract.
    ///
    /// Tuples with a single membership event keep it (a lone appearance is
    /// final by alternation; a lone disappearance likewise). `BaseFire`
    /// events are never skipped — base derivations really were added and
    /// removed, and provenance capture tracks both sides.
    fn net_events(&self, events: &[GenEvent]) -> Vec<bool> {
        let mut skip = vec![false; events.len()];
        // Churn needs two membership events of one tuple; the tiny
        // generations that dominate steady-state maintenance have at most
        // one, and pay for no map.
        let membership_events = events
            .iter()
            .filter(|e| !matches!(e, GenEvent::BaseFire { .. }))
            .count();
        if membership_events < 2 {
            return skip;
        }
        let mut per_id: IdMap<TupleId, (bool, Vec<usize>)> = IdMap::default();
        for (idx, event) in events.iter().enumerate() {
            match event {
                GenEvent::Appeared(tuple) => per_id
                    .entry(tuple.id())
                    .or_insert_with(|| (false, Vec::new()))
                    .1
                    .push(idx),
                GenEvent::Disappeared(tuple) => per_id
                    .entry(tuple.id())
                    .or_insert_with(|| (true, Vec::new()))
                    .1
                    .push(idx),
                GenEvent::BaseFire { .. } => {}
            }
        }
        for (first_is_disappear, idxs) in per_id.into_values() {
            if idxs.len() < 2 {
                continue;
            }
            // Still stored at the end of the apply phase? Not if a later item
            // of the generation deleted it or displaced it by key.
            let live = match &events[idxs[0]] {
                GenEvent::Appeared(tuple) | GenEvent::Disappeared(tuple) => {
                    let table = self.db.table_sym(tuple.relation());
                    table.is_some_and(|table| table.contains(tuple))
                }
                GenEvent::BaseFire { .. } => unreachable!("only membership events are indexed"),
            };
            let keep = match (first_is_disappear, live) {
                // Present before and after: pure churn, nothing survives.
                (true, true) => None,
                // New tuple: the final appearance stands for all of them.
                (false, true) => idxs
                    .iter()
                    .rev()
                    .find(|&&i| matches!(events[i], GenEvent::Appeared(_)))
                    .copied(),
                // Deleted tuple: the first disappearance cascades once.
                (true, false) => Some(idxs[0]),
                // Appeared and died unseen: nothing to replay.
                (false, false) => None,
            };
            for &idx in &idxs {
                skip[idx] = keep != Some(idx);
            }
        }
        skip
    }

    /// Fire the rules a change to `tuple` triggers, in the program's order:
    /// `program.triggers` of its relation, then its `negation_triggers`. An
    /// aggregate recomputes the group `tuple` falls in and a negation rule
    /// reconciles (once per generation: the tables it reads are frozen, so a
    /// repeat computes the same result). A monotonic rule fires only on an
    /// appearance: it joins `tuple` with the stored atoms and commits every
    /// candidate; a disappearance's monotonic derivations went with its
    /// cascade.
    fn fire_triggers(
        &mut self,
        tuple: &Tuple,
        appeared: bool,
        reconciled: &mut IdSet<usize>,
        out: &mut StepOutput,
    ) {
        let (program, relation) = (Arc::clone(&self.program), tuple.relation());
        for &(rule_idx, atom_idx) in program.triggers.get(&relation).into_iter().flatten() {
            let rule = &program.rules[rule_idx];
            if rule.aggregate.is_some() {
                self.recompute_aggregate_for(rule_idx, tuple, out);
            } else if rule.has_negation() {
                if reconciled.insert(rule_idx) {
                    self.reconcile_rule(rule_idx, out);
                }
            } else if appeared {
                let mut candidates = Vec::new();
                self.stats.join_probes += EvalContext {
                    db: &self.db,
                    program: &program,
                }
                .eval_task(
                    rule_idx,
                    atom_idx,
                    tuple,
                    &mut self.frame,
                    &mut self.matched,
                    &mut candidates,
                );
                for Candidate { head, inputs } in candidates {
                    let derivation = Derivation {
                        rule: rule.name_sym,
                        node: self.config.node,
                        inputs,
                    };
                    self.emit_derivation(head, rule.head_loc_col, derivation, true, out);
                }
            }
        }
        let negated_in = program.negation_triggers.get(&relation);
        for &rule_idx in negated_in.into_iter().flatten() {
            if reconciled.insert(rule_idx) {
                self.reconcile_rule(rule_idx, out);
            }
        }
    }

    // ----------------------------------------------------------------------
    // batched delta shipping
    // ----------------------------------------------------------------------

    /// Queue a delta for shipment to `dest`, coalescing against sends already
    /// pending this round: an insert followed by a delete of the same
    /// (tuple, derivation) — or vice versa — is a net no-op at the
    /// destination and both records are dropped; an identical re-emission is
    /// deduplicated. The outbox membership transitions guarantee polarities
    /// for one (tuple, derivation) strictly alternate, so "same pair, same
    /// polarity" only arises from redundant re-derivation paths.
    fn queue_send(&mut self, dest: Addr, delta: Delta, derivation: Derivation) {
        let sends = &mut self.pending_sends;
        let pending = (dest, delta.tuple().id());
        let slots = self.pending_index.entry(pending).or_default();
        // Almost every (dest, tuple) has one pending derivation, so a linear
        // scan of the slot list beats keying the map on the derivation (which
        // would hash its input list once per send).
        if let Some(pos) = slots.iter().position(|&s| {
            sends[s]
                .as_ref()
                .is_some_and(|p| p.derivation == derivation)
        }) {
            let slot = slots[pos];
            let prev = sends[slot].take().expect("indexed slot is live");
            if prev.delta.is_insert() == delta.is_insert() {
                // Duplicate emission of the same record: keep the first.
                sends[slot] = Some(prev);
            } else {
                // Opposite polarity: the pair cancels; ship neither.
                slots.swap_remove(pos);
            }
            return;
        }
        slots.push(sends.len());
        sends.push(Some(RemoteDelta {
            dest,
            delta,
            derivation,
        }));
    }

    /// Coalesce the surviving pending sends into one [`DeltaBatch`] per
    /// destination (record order = emission order) and account the priced
    /// payload. This is the single place `tuples_sent` / `bytes_sent` are
    /// bumped, so engine counters are the source of truth the platform's
    /// network charge must agree with.
    fn flush_sends(&mut self, out: &mut StepOutput) {
        self.pending_index = IdMap::default();
        if self.pending_sends.is_empty() {
            return;
        }
        let mut order: Vec<Addr> = Vec::new();
        let mut batches: IdMap<Addr, DeltaBatch> = IdMap::default();
        for slot in std::mem::take(&mut self.pending_sends) {
            let Some(send) = slot else { continue };
            let batch = batches.entry(send.dest).or_insert_with(|| {
                order.push(send.dest);
                DeltaBatch {
                    dest: send.dest,
                    dict: Vec::new(),
                    records: Vec::new(),
                }
            });
            // The record's names in first-use order: the tuple's, then the
            // derivation's rule and node.
            let sent = self.dict_sent.entry(send.dest).or_default();
            let mut ship = |name: Sym| {
                if sent.first_use(name) {
                    batch.dict.push(name);
                }
            };
            send.delta.tuple().visit_names(&mut ship);
            ship(send.derivation.rule);
            ship(send.derivation.node.as_sym());
            batch.records.push(DeltaRecord {
                delta: send.delta,
                derivation: send.derivation,
            });
        }
        for dest in order {
            let batch = batches.remove(&dest).expect("batch recorded");
            self.stats.tuples_sent += batch.records.len() as u64;
            self.stats.bytes_sent += batch.wire_size() as u64;
            self.stats.dict_bytes_sent += batch.header_bytes() as u64;
            out.sends.push(batch);
        }
    }

    /// Convenience: all tuples of a relation currently stored at this node.
    pub fn relation(&self, relation: &str) -> Vec<Tuple> {
        self.db.relation_tuples(relation)
    }

    // ----------------------------------------------------------------------
    // delta application
    // ----------------------------------------------------------------------

    fn ensure_table(&mut self, tuple: &Tuple) {
        if self.db.table_sym(tuple.relation()).is_none() {
            // Relations unknown to the program (e.g. environment relations fed
            // for observation only) get a lenient schema: location and
            // address column 0, set semantics.
            self.db.register(RelationSchema {
                name: tuple.relation().as_str().to_string(),
                arity: tuple.arity(),
                location_col: 0,
                addr_cols: 1,
                key_cols: (0..tuple.arity()).collect(),
                is_base: true,
                lifetime: None,
            });
        }
    }

    fn apply_add(&mut self, tuple: Tuple, derivation: Derivation, events: &mut Vec<GenEvent>) {
        self.ensure_table(&tuple);
        let is_base = derivation.is_base();
        let cascaded = self
            .cascades(&derivation)
            .then(|| derivation.inputs.clone());
        let membership = self
            .db
            .table_mut_sym(tuple.relation())
            .expect("table ensured")
            .add_derivation(&tuple, derivation);

        if matches!(
            membership,
            Membership::Appeared | Membership::AddedDerivation | Membership::Replaced(_)
        ) {
            for input in cascaded.iter().flat_map(|inputs| inputs.iter()) {
                self.db
                    .index_dependency(*input, tuple.relation(), tuple.id());
            }
            if is_base {
                // Report base tuples to the provenance layer.
                events.push(GenEvent::BaseFire {
                    tuple: tuple.clone(),
                    insert: true,
                });
            }
        }

        match membership {
            Membership::Unchanged | Membership::AddedDerivation | Membership::NotFound => {}
            Membership::Appeared => events.push(GenEvent::Appeared(tuple)),
            Membership::Replaced(old) => {
                // Update-in-place: the displaced tuple disappears first.
                events.push(GenEvent::Disappeared(old));
                events.push(GenEvent::Appeared(tuple));
            }
            Membership::Disappeared | Membership::RemovedDerivation => unreachable!(),
        }
    }

    fn apply_remove(&mut self, tuple: Tuple, derivation: Derivation, events: &mut Vec<GenEvent>) {
        let Some(table) = self.db.table_mut_sym(tuple.relation()) else {
            return;
        };
        let is_base = derivation.is_base();
        let membership = table.remove_derivation(&tuple, &derivation);
        if matches!(
            membership,
            Membership::Disappeared | Membership::RemovedDerivation
        ) && is_base
        {
            events.push(GenEvent::BaseFire {
                tuple: tuple.clone(),
                insert: false,
            });
        }
        if membership == Membership::Disappeared {
            events.push(GenEvent::Disappeared(tuple));
        }
    }

    /// True when the dependency cascade retracts `derivation`: a monotonic
    /// rule ran it at this node.
    fn cascades(&self, derivation: &Derivation) -> bool {
        derivation.node == self.config.node && self.program.cascades(derivation.rule)
    }

    /// A tuple lost its last derivation: cascade through the dependency index
    /// and re-trigger aggregate / negation rules. Runs at the event's replay
    /// position, so its queue pushes interleave with the generation's other
    /// emissions in stream order.
    fn on_disappear(&mut self, tuple: &Tuple, reconciled: &mut IdSet<usize>, out: &mut StepOutput) {
        for dependent in self.db.take_dependents(tuple.id()) {
            // A remote head is retracted from the outbox and at its home; a
            // stored tuple loses the derivation in the next generation. A
            // head that a monotonic and a recomputed rule both derive lists
            // both derivations; the recomputation retracts its own.
            let home = dependent.destination.unwrap_or(self.config.node);
            for derivation in dependent.derivations {
                if self.cascades(&derivation) {
                    self.emit_at(home, dependent.tuple.clone(), derivation, false, out);
                }
            }
        }
        // Aggregate and negation rules re-examine the affected groups.
        self.fire_triggers(tuple, false, reconciled, out);
    }

    /// Route a derivation of `head`: apply locally when the head lives here,
    /// otherwise record it in the outbox and produce a send. `loc_col` is
    /// the deriving rule's [`CompiledRule::head_loc_col`].
    fn emit_derivation(
        &mut self,
        head: Tuple,
        loc_col: usize,
        derivation: Derivation,
        insert: bool,
        out: &mut StepOutput,
    ) {
        let home = head
            .values()
            .get(loc_col)
            .and_then(Value::as_node_id)
            .unwrap_or(self.config.node);
        self.emit_at(home, head, derivation, insert, out);
    }

    /// [`Self::emit_derivation`] for a head whose home is known: the one path
    /// every derivation and every retraction takes.
    fn emit_at(
        &mut self,
        home: Addr,
        tuple: Tuple,
        derivation: Derivation,
        insert: bool,
        out: &mut StepOutput,
    ) {
        if insert {
            self.stats.rule_firings += 1;
        } else {
            self.stats.retractions += 1;
        }
        out.firings.push(Firing {
            rule: derivation.rule,
            node: self.config.node,
            head: tuple.clone(),
            head_home: home,
            inputs: derivation.inputs.clone(),
            insert,
        });
        if home == self.config.node {
            self.queue.push_back(match insert {
                true => WorkItem::Add { tuple, derivation },
                false => WorkItem::Remove { tuple, derivation },
            });
            return;
        }
        // Remote head: remember it in the outbox so that a later retraction
        // can reach the remote derivation, and ship the delta.
        if !insert {
            self.retract_outbox(&tuple, derivation, home);
        } else {
            let cascaded = self.program.cascades(derivation.rule);
            if self.db.outbox_insert(&tuple, home, &derivation, cascaded) {
                self.queue_send(home, Delta::Insert(tuple), derivation);
            }
        }
    }

    /// The single outbox-retraction path. A monotonic rule's remote head is
    /// retracted by the input cascade in [`Self::on_disappear`], an aggregate
    /// or negation rule's by its recomputation through
    /// [`Self::emit_derivation`] — each derivation by one of them, so a
    /// remote retraction is queued for shipment exactly when the outbox held
    /// the (tuple, derivation) pair, once.
    fn retract_outbox(&mut self, tuple: &Tuple, derivation: Derivation, home: Addr) {
        if self.db.outbox_remove(tuple.id(), &derivation) {
            self.queue_send(home, Delta::Delete(tuple.clone()), derivation);
        }
    }

    // ----------------------------------------------------------------------
    // aggregates
    // ----------------------------------------------------------------------

    /// Recompute the aggregate group(s) of `rule_idx` affected by a change to
    /// `changed`.
    fn recompute_aggregate_for(&mut self, rule_idx: usize, changed: &Tuple, out: &mut StepOutput) {
        let program = Arc::clone(&self.program);
        let rule = &program.rules[rule_idx];
        let spec = rule.aggregate.as_ref().expect("aggregate rule");
        self.frame.reset(rule.slots.slot_count());
        if !rule.slots.positive[0].match_row(changed, &mut self.frame) {
            return;
        }
        let Some(group) = kernel::group_key(rule, spec, &self.frame) else {
            return;
        };
        self.recompute_group(rule, group, out);
    }

    fn recompute_group(&mut self, rule: &CompiledRule, group: Vec<Value>, out: &mut StepOutput) {
        self.stats.agg_recomputes += 1;
        let spec = rule.aggregate.as_ref().expect("aggregate rule");
        // Collect contributions to this group, probing by the group-key
        // columns so unrelated groups are never visited.
        let (aggregate, probes) = EvalContext {
            db: &self.db,
            program: self.program.as_ref(),
        }
        .aggregate_group(rule, spec, &group, &mut self.frame);
        self.stats.join_probes += probes;

        // The new head and derivation need only the witnesses' stored ids.
        let new_state = aggregate.and_then(|aggregate| {
            let head = build_agg_head(
                &rule.slots.head,
                &group,
                &aggregate.value,
                rule.head_addr_cols,
            )?;
            let derivation = Derivation {
                rule: rule.name_sym,
                node: self.config.node,
                inputs: aggregate.witnesses.iter().map(|w| w.id()).collect(),
            };
            Some((head, derivation))
        });

        let key = (rule.index, group);
        if self.agg_state.get(&key) == new_state.as_ref() {
            // Nothing changed.
            return;
        }
        if let Some((old_head, old_deriv)) = self.agg_state.remove(&key) {
            self.emit_derivation(old_head, rule.head_loc_col, old_deriv, false, out);
        }
        if let Some((new_head, new_deriv)) = new_state {
            self.agg_state
                .insert(key, (new_head.clone(), new_deriv.clone()));
            self.emit_derivation(new_head, rule.head_loc_col, new_deriv, true, out);
        }
    }

    // ----------------------------------------------------------------------
    // negation (reconciliation-based maintenance)
    // ----------------------------------------------------------------------

    /// Recompute all derivations of a rule containing negation and reconcile
    /// them with the currently recorded ones.
    fn reconcile_rule(&mut self, rule_idx: usize, out: &mut StepOutput) {
        let program = Arc::clone(&self.program);
        let rule = &program.rules[rule_idx];
        // Read phase: the current matches are a full join along the
        // precomputed plan, from an empty frame; all mutation happens after.
        let mut matches: Vec<Candidate> = Vec::new();
        let mut probes = 0u64;
        self.frame.reset(rule.slots.slot_count());
        self.matched.resize(rule.slots.positive.len(), TupleId(0));
        EvalContext {
            db: &self.db,
            program: program.as_ref(),
        }
        .join(
            rule,
            &rule.full_plan.steps,
            &mut self.frame,
            &mut self.matched,
            &mut matches,
            &mut probes,
        );
        self.stats.join_probes += probes;
        let mut new_derivations: Vec<(Tuple, Derivation)> = Vec::new();
        for found in matches {
            let derivation = Derivation {
                rule: rule.name_sym,
                node: self.config.node,
                inputs: found.inputs,
            };
            let pair = (found.head, derivation);
            if !new_derivations.contains(&pair) {
                new_derivations.push(pair);
            }
        }

        // Currently recorded derivations of this rule at this node. They can
        // only be where its heads go: the outbox entries of the head
        // relation (met first), then that relation's table.
        let head_relation = rule.slots.head.relation;
        let mine = |d: &&Derivation| d.rule == rule.name_sym && d.node == self.config.node;
        let mut old_derivations: Vec<(Tuple, Derivation)> = Vec::new();
        for entry in self.db.outbox_of(head_relation) {
            for d in entry.derivations.iter().filter(mine) {
                old_derivations.push((entry.tuple.clone(), d.clone()));
            }
        }
        for stored in self
            .db
            .table_sym(head_relation)
            .iter()
            .flat_map(|t| t.iter())
        {
            let mut tuple = None;
            for d in stored.derivations().iter().filter(mine) {
                let tuple = tuple.get_or_insert_with(|| stored.to_tuple());
                old_derivations.push((tuple.clone(), d.clone()));
            }
        }

        // Retract derivations that no longer hold, stored and shipped alike,
        // then add the new ones.
        for pair in old_derivations
            .iter()
            .filter(|p| !new_derivations.contains(p))
        {
            let (tuple, derivation) = pair.clone();
            self.emit_derivation(tuple, rule.head_loc_col, derivation, false, out);
        }
        for (head, derivation) in new_derivations
            .into_iter()
            .filter(|p| !old_derivations.contains(p))
        {
            self.emit_derivation(head, rule.head_loc_col, derivation, true, out);
        }
    }
}

/// Build an aggregate head tuple from a group key and the aggregate value;
/// `None` when a value other than an address lands in one of `addr_cols`.
fn build_agg_head(
    head: &SlotAtom,
    group: &[Value],
    agg_value: &Value,
    addr_cols: u64,
) -> Option<Tuple> {
    let group_cols = head.terms.iter().filter(|t| !matches!(t, SlotTerm::Agg));
    if group_cols.count() > group.len() {
        return None;
    }
    let mut group = group.iter();
    let values = head.terms.iter().map(|term| match term {
        SlotTerm::Agg => agg_value,
        _ => group.next().expect("the group has a value per column"),
    });
    let values: Arc<[Value]> = values.cloned().collect();
    fits(addr_cols, &values).then(|| Tuple::new(head.relation, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINCOST: &str = "materialize(link, infinity, infinity, keys(1,2,3)).\n\
         materialize(cost, infinity, infinity, keys(1,2,3)).\n\
         materialize(minCost, infinity, infinity, keys(1,2)).\n\
         r1 cost(@S,D,C) :- link(@S,D,C).\n\
         r2 cost(@S,D,C) :- link(@S,Z,C1), minCost(@Z,D,C2), C := C1 + C2.\n\
         r3 minCost(@S,D,min<C>) :- cost(@S,D,C).";

    fn link(s: &str, d: &str, c: i64) -> Tuple {
        Tuple::new("link", vec![Value::addr(s), Value::addr(d), Value::Int(c)])
    }

    fn engine(node: &str, src: &str) -> NodeEngine {
        let program = Arc::new(CompiledProgram::from_source(src).unwrap());
        NodeEngine::new(program, EngineConfig::new(node))
    }

    /// Single-node MINCOST: n1 has links to itself conceptually; here we just
    /// exercise the local pipeline on one node by keeping all tuples at n1.
    #[test]
    fn local_rule_derives_cost_and_min_cost() {
        let mut e = engine("n1", MINCOST);
        e.insert_base(link("n1", "n2", 5)).unwrap();
        let out = e.run();
        assert!(!out.truncated);
        let cost = e.relation("cost");
        assert_eq!(cost.len(), 1);
        assert_eq!(cost[0].values()[2], Value::Int(5));
        let min_cost = e.relation("minCost");
        assert_eq!(min_cost.len(), 1);
        assert_eq!(min_cost[0].values()[2], Value::Int(5));
        // Base firing + r1 firing + r3 firing at least.
        assert!(out.firings.iter().any(|f| f.rule == BASE_RULE));
        assert!(out.firings.iter().any(|f| f.rule == "r1"));
        assert!(out.firings.iter().any(|f| f.rule == "r3"));
    }

    /// The join kernel reads a stored input's id from its slot and never
    /// rebuilds the tuple: a run whose every firing joins the delta with
    /// stored tuples — local heads, remote heads, an aggregate whose
    /// witnesses are stored — materializes nothing out of the columns.
    #[test]
    fn firing_over_stored_inputs_materializes_no_tuple() {
        let mut e = engine(
            "n1",
            "r1 pair(@S,X,Y) :- a(@S,X), b(@S,Y).\n\
             r2 far(@Y,S,X) :- a(@S,X), b(@S,Y).\n\
             r3 total(@S,count<X>) :- a(@S,X).",
        );
        for y in 0..8 {
            let b = Tuple::new("b", vec![Value::addr("n1"), Value::addr(format!("m{y}"))]);
            e.insert_base(b).unwrap();
        }
        e.run();
        for x in 0..8 {
            e.insert_base(Tuple::new("a", vec![Value::addr("n1"), Value::Int(x)]))
                .unwrap();
        }
        let before = crate::tuple_materializations();
        let out = e.run();
        assert_eq!(
            crate::tuple_materializations(),
            before,
            "the kernel materialized a stored input"
        );
        let joined = out.firings.iter().filter(|f| f.rule == "r1").count();
        assert_eq!(joined, 64, "every a joined every stored b");
        assert!(out.firings.iter().any(|f| f.rule == "r3"));
        assert_eq!(out.sends.len(), 8, "one batch per remote home");
    }

    #[test]
    fn remote_heads_go_to_the_outbox_and_are_sent() {
        // reach is derived at S but lives at D -> must be shipped.
        let mut e = engine("n1", "r1 reach(@D,S) :- link(@S,D,C).");
        e.insert_base(link("n1", "n2", 1)).unwrap();
        let out = e.run();
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].dest, "n2");
        assert_eq!(out.sends[0].records.len(), 1);
        assert!(matches!(out.sends[0].records[0].delta, Delta::Insert(_)));
        // The first batch to n2 carries the dictionary entries its records
        // reference (relation, addresses, rule, node).
        assert!(out.sends[0].dict.iter().any(|s| s == "reach"));
        assert!(out.sends[0].dict.iter().any(|s| s == "r1"));
        // Not stored locally.
        assert!(e.relation("reach").is_empty());
        // Deleting the link retracts the remote derivation; the dictionary
        // was already shipped, so the retraction batch carries none of the
        // already-sent strings again.
        e.delete_base(link("n1", "n2", 1)).unwrap();
        let out = e.run();
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].records.len(), 1);
        assert!(matches!(out.sends[0].records[0].delta, Delta::Delete(_)));
        assert!(out.sends[0].dict.is_empty());
    }

    #[test]
    fn receiving_engine_applies_remote_deltas() {
        let program =
            Arc::new(CompiledProgram::from_source("r1 reach(@D,S) :- link(@S,D,C).").unwrap());
        let mut sender = NodeEngine::new(program.clone(), EngineConfig::new("n1"));
        let mut receiver = NodeEngine::new(program, EngineConfig::new("n2"));
        sender.insert_base(link("n1", "n2", 1)).unwrap();
        let out = sender.run();
        for batch in out.sends {
            assert_eq!(batch.dest, "n2");
            for record in batch.records {
                receiver.apply_remote(record.delta, record.derivation);
            }
        }
        receiver.run();
        assert_eq!(receiver.relation("reach").len(), 1);
    }

    /// The dependency index holds only what this node's cascade retracts:
    /// every key is a tuple stored here, and no entry names the aggregate
    /// head. Indexing a derivation received from another node (its inputs
    /// live at the sender) fails the first assertion; indexing the `min<>`
    /// derivation fails the second.
    #[test]
    fn the_dependency_index_keeps_only_what_its_cascade_retracts() {
        let program = Arc::new(
            CompiledProgram::from_source(
                "materialize(best, infinity, infinity, keys(1,2)).\n\
                 r1 reach(@D,S,C) :- link(@S,D,C).\n\
                 r2 best(@D,S,min<C>) :- reach(@D,S,C).\n\
                 r3 hop(@D,S) :- best(@D,S,C).",
            )
            .unwrap(),
        );
        let mut engines: Vec<NodeEngine> = ["n1", "n2"]
            .map(|n| NodeEngine::new(program.clone(), EngineConfig::new(n)))
            .into();
        let converge = |engines: &mut Vec<NodeEngine>| loop {
            let sends: Vec<DeltaBatch> = engines.iter_mut().flat_map(|e| e.run().sends).collect();
            if sends.is_empty() {
                break;
            }
            for batch in sends {
                let to = engines.iter_mut().find(|e| batch.dest == e.node());
                let to = to.expect("a destination engine");
                for record in batch.records {
                    to.apply_remote(record.delta, record.derivation);
                }
            }
        };
        let check = |engines: &[NodeEngine]| {
            for e in engines {
                let db = e.database();
                let stored = |id| db.tables().any(|t| t.get_by_id(id).is_some());
                let entries: Vec<(TupleId, Sym)> = db.dependency_entries().collect();
                assert!(!entries.is_empty(), "{} indexes its own firings", e.node());
                for (input, relation) in entries {
                    assert!(stored(input), "{}: a key stored elsewhere", e.node());
                    assert!(relation != "best", "{}: an aggregate head", e.node());
                }
            }
        };
        for (s, d, c) in [("n1", "n2", 1), ("n1", "n2", 5), ("n2", "n1", 2)] {
            engines[usize::from(s == "n2")]
                .insert_base(link(s, d, c))
                .unwrap();
        }
        converge(&mut engines);
        check(&engines);
        engines[0].delete_base(link("n1", "n2", 1)).unwrap();
        converge(&mut engines);
        check(&engines);
        let best = engines[1].relation("best");
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].values()[2], Value::Int(5));
    }

    /// A head that a monotonic rule and an aggregate both derive from one
    /// input loses each derivation once when the input goes: the cascade
    /// retracts the monotonic one and the recomputation its own. (Letting
    /// the cascade retract every derivation it finds on the head retracts
    /// the aggregate's twice.)
    #[test]
    fn a_head_with_a_monotonic_and_an_aggregate_derivation_loses_each_once() {
        let mut e = engine(
            "n1",
            "r1 best(@S,D,C) :- link(@S,D,C), C < 3.\n\
             r2 best(@S,D,min<C>) :- link(@S,D,C).",
        );
        e.insert_base(link("n1", "n2", 2)).unwrap();
        e.run();
        let best = e.database().table("best").unwrap();
        assert_eq!(best.iter().map(|t| t.derivations().len()).sum::<usize>(), 2);
        e.delete_base(link("n1", "n2", 2)).unwrap();
        let out = e.run();
        let mut lost: Vec<&str> = (out.firings.iter())
            .filter(|f| !f.insert && f.rule != BASE_RULE)
            .map(|f| f.rule.as_str())
            .collect();
        lost.sort();
        assert_eq!(lost, ["r1", "r2"]);
        assert_eq!(e.stats().retractions, 2);
        assert!(e.relation("best").is_empty());
    }

    #[test]
    fn min_aggregate_tracks_the_minimum_incrementally() {
        let mut e = engine("n1", MINCOST);
        e.insert_base(link("n1", "n2", 5)).unwrap();
        e.insert_base(link("n1", "n2", 3)).unwrap();
        e.run();
        let min_cost = e.relation("minCost");
        assert_eq!(min_cost.len(), 1);
        assert_eq!(min_cost[0].values()[2], Value::Int(3));
        // Deleting the cheaper link falls back to the more expensive one.
        e.delete_base(link("n1", "n2", 3)).unwrap();
        e.run();
        let min_cost = e.relation("minCost");
        assert_eq!(min_cost.len(), 1);
        assert_eq!(min_cost[0].values()[2], Value::Int(5));
        // Deleting the last link removes the aggregate entirely.
        e.delete_base(link("n1", "n2", 5)).unwrap();
        e.run();
        assert!(e.relation("minCost").is_empty());
        assert!(e.relation("cost").is_empty());
    }

    /// `sum<>` adds integers exactly (wrapping like `+`) and becomes a double
    /// only from the first `Double` contribution on: a group holding
    /// 2^53 + 1 used to be summed through `f64` and come back off by one.
    #[test]
    fn sum_aggregate_is_exact_over_integers_and_widens_on_the_first_double() {
        let mut e = engine(
            "n1",
            "materialize(total, infinity, infinity, keys(1,2)).\n\
             r1 total(@S,G,sum<B>) :- e(@S,G,K,B).",
        );
        let fact = |g: &str, k: i64, b: Value| {
            Tuple::new(
                "e",
                vec![Value::addr("n1"), Value::str(g), Value::Int(k), b],
            )
        };
        let total = |e: &NodeEngine, g: &str| -> Option<Value> {
            e.relation("total")
                .into_iter()
                .find(|t| t.values()[1] == Value::str(g))
                .map(|t| t.values()[2].clone())
        };
        let exact = |v: Option<Value>, want: i64| matches!(v, Some(Value::Int(i)) if i == want);
        const BIG: i64 = (1 << 53) + 1;

        e.insert_base(fact("big", 1, Value::Int(BIG))).unwrap();
        e.insert_base(fact("big", 2, Value::Int(1))).unwrap();
        e.run();
        assert!(exact(total(&e, "big"), BIG + 1), "{:?}", total(&e, "big"));
        e.delete_base(fact("big", 2, Value::Int(1))).unwrap();
        e.run();
        assert!(exact(total(&e, "big"), BIG), "{:?}", total(&e, "big"));

        // Mixed: an Int-only group is an Int, one Double makes it a Double,
        // retracting the Double makes it an Int again.
        e.insert_base(fact("mix", 1, Value::Int(2))).unwrap();
        e.insert_base(fact("mix", 2, Value::Int(3))).unwrap();
        e.run();
        assert!(exact(total(&e, "mix"), 5));
        e.insert_base(fact("mix", 3, Value::Double(0.5))).unwrap();
        e.run();
        assert!(matches!(total(&e, "mix"), Some(Value::Double(d)) if d == 5.5));
        e.delete_base(fact("mix", 3, Value::Double(0.5))).unwrap();
        e.run();
        assert!(exact(total(&e, "mix"), 5));

        // Overflow wraps, as `i64::MAX + 1` does in an assignment.
        e.insert_base(fact("wrap", 1, Value::Int(i64::MAX)))
            .unwrap();
        e.insert_base(fact("wrap", 2, Value::Int(1))).unwrap();
        e.run();
        assert!(exact(total(&e, "wrap"), i64::MIN));

        // The last retraction removes the group.
        e.delete_base(fact("big", 1, Value::Int(BIG))).unwrap();
        e.run();
        assert_eq!(total(&e, "big"), None);
    }

    #[test]
    fn deleting_base_tuples_cascades_through_derived_relations() {
        let mut e = engine("n1", "r1 cost(@S,D,C) :- link(@S,D,C).");
        e.insert_base(link("n1", "n2", 5)).unwrap();
        e.run();
        assert_eq!(e.relation("cost").len(), 1);
        e.delete_base(link("n1", "n2", 5)).unwrap();
        let out = e.run();
        assert!(e.relation("cost").is_empty());
        assert!(out
            .local_changes
            .iter()
            .any(|d| matches!(d, Delta::Delete(t) if t.relation() == "cost")));
    }

    #[test]
    fn alternative_derivations_keep_tuples_alive() {
        // Two links derive the same `reachable` tuple; deleting one keeps it.
        let mut e = engine("n1", "r1 reachable(@S,D) :- link(@S,D,C).");
        e.insert_base(link("n1", "n2", 1)).unwrap();
        e.insert_base(link("n1", "n2", 7)).unwrap();
        e.run();
        assert_eq!(e.relation("reachable").len(), 1);
        e.delete_base(link("n1", "n2", 1)).unwrap();
        e.run();
        assert_eq!(
            e.relation("reachable").len(),
            1,
            "still one derivation left"
        );
        e.delete_base(link("n1", "n2", 7)).unwrap();
        e.run();
        assert!(e.relation("reachable").is_empty());
    }

    #[test]
    fn update_in_place_replaces_keyed_tuples() {
        // link keyed on (src, dst): inserting a new cost replaces the old one.
        let mut e = engine(
            "n1",
            "materialize(link, infinity, infinity, keys(1,2)).\n\
             r1 cost(@S,D,C) :- link(@S,D,C).",
        );
        e.insert_base(link("n1", "n2", 5)).unwrap();
        e.run();
        e.insert_base(link("n1", "n2", 2)).unwrap();
        e.run();
        let cost = e.relation("cost");
        assert_eq!(cost.len(), 1);
        assert_eq!(cost[0].values()[2], Value::Int(2));
    }

    #[test]
    fn negation_rules_are_reconciled() {
        let src = "materialize(node, infinity, infinity, keys(1,2)).\n\
                   materialize(link, infinity, infinity, keys(1,2)).\n\
                   r1 missing(@N,M) :- node(@N,M), !link(@N,M).";
        let mut e = engine("n1", src);
        let node = Tuple::new("node", vec![Value::addr("n1"), Value::addr("n2")]);
        let l = Tuple::new("link", vec![Value::addr("n1"), Value::addr("n2")]);
        e.insert_base(node.clone()).unwrap();
        e.run();
        assert_eq!(e.relation("missing").len(), 1);
        // Adding the link removes the `missing` tuple...
        e.insert_base(l.clone()).unwrap();
        e.run();
        assert!(e.relation("missing").is_empty());
        // ... and deleting it brings the tuple back.
        e.delete_base(l).unwrap();
        e.run();
        assert_eq!(e.relation("missing").len(), 1);
    }

    #[test]
    fn filters_and_assignments_restrict_derivations() {
        let src = "r1 close(@S,D,C) :- link(@S,D,C), C < 5.\n\
                   r2 double(@S,D,C2) :- link(@S,D,C), C2 := C * 2.";
        let mut e = engine("n1", src);
        e.insert_base(link("n1", "n2", 3)).unwrap();
        e.insert_base(link("n1", "n3", 9)).unwrap();
        e.run();
        assert_eq!(e.relation("close").len(), 1);
        let doubles: Vec<i64> = e
            .relation("double")
            .iter()
            .map(|t| t.values()[2].as_int().unwrap())
            .collect();
        assert_eq!(doubles.len(), 2);
        assert!(doubles.contains(&6) && doubles.contains(&18));
    }

    #[test]
    fn stats_count_work() {
        let mut e = engine("n1", MINCOST);
        e.insert_base(link("n1", "n2", 5)).unwrap();
        e.run();
        let stats = e.stats();
        assert!(stats.deltas_processed > 0);
        assert!(stats.rule_firings > 0);
        assert!(stats.agg_recomputes > 0);
    }

    #[test]
    fn run_cap_reports_truncation() {
        let mut e = NodeEngine::new(
            Arc::new(CompiledProgram::from_source(MINCOST).unwrap()),
            EngineConfig {
                max_deltas_per_run: 1,
                ..EngineConfig::new("n1")
            },
        );
        e.insert_base(link("n1", "n2", 5)).unwrap();
        e.insert_base(link("n1", "n3", 5)).unwrap();
        let out = e.run();
        assert!(out.truncated);
    }

    /// Regression: re-deriving a head already present in the outbox must not
    /// ship the identical (tuple, derivation) record twice in one round —
    /// both historical insert paths now funnel through `queue_send`, whose
    /// pending index keeps at most one live record per (dest, tuple,
    /// derivation).
    #[test]
    fn rederivation_ships_an_outbox_tuple_at_most_once_per_round() {
        // The same delta matches both body-atom positions, so the rule fires
        // twice with an identical head and derivation.
        let mut e = engine("n1", "r1 reach(@D,S) :- link(@S,D,C), link(@S,D,C).");
        e.insert_base(link("n1", "n2", 1)).unwrap();
        let out = e.run();
        let records: usize = out.sends.iter().map(|b| b.records.len()).sum();
        assert_eq!(records, 1, "identical re-derivation must ship once");
        // A genuinely different derivation of the same head still ships: the
        // destination counts derivations for retraction correctness.
        let mut e = engine(
            "n1",
            "r1 reach(@D,S) :- link(@S,D,C).\nr2 reach(@D,S) :- back(@S,D,C).",
        );
        e.insert_base(link("n1", "n2", 1)).unwrap();
        e.insert_base(Tuple::new(
            "back",
            vec![Value::addr("n1"), Value::addr("n2"), Value::Int(9)],
        ))
        .unwrap();
        let out = e.run();
        let records: usize = out.sends.iter().map(|b| b.records.len()).sum();
        assert_eq!(records, 2, "distinct derivations both ship");
    }

    /// An insert and a delete of the same (tuple, derivation) within one
    /// round are a net no-op at the destination: the pair cancels and
    /// nothing is shipped.
    #[test]
    fn same_round_insert_delete_pairs_cancel() {
        let mut e = engine("n1", "r1 reach(@D,S) :- link(@S,D,C).");
        e.insert_base(link("n1", "n2", 1)).unwrap();
        e.delete_base(link("n1", "n2", 1)).unwrap();
        let out = e.run();
        assert!(
            out.sends.iter().all(|b| b.records.is_empty()),
            "cancelled churn must not reach the wire: {:?}",
            out.sends
        );
        assert_eq!(e.stats().tuples_sent, 0);
        assert_eq!(e.stats().bytes_sent, 0);
    }

    /// Sends to several destinations coalesce into one batch per
    /// destination per round, and engine byte counters equal the priced
    /// batch sizes exactly.
    #[test]
    fn sends_coalesce_into_one_batch_per_destination() {
        let mut e = engine("n1", "r1 reach(@D,S) :- link(@S,D,C).");
        e.insert_base(link("n1", "n2", 1)).unwrap();
        e.insert_base(link("n1", "n2", 2)).unwrap();
        e.insert_base(link("n1", "n3", 1)).unwrap();
        let out = e.run();
        assert_eq!(out.sends.len(), 2, "one batch per destination");
        let to_n2 = out.sends.iter().find(|b| b.dest == "n2").unwrap();
        assert_eq!(to_n2.records.len(), 2, "records to n2 share one batch");
        let total: u64 = out.sends.iter().map(|b| b.wire_size() as u64).sum();
        assert_eq!(e.stats().tuples_sent, 3);
        assert_eq!(e.stats().bytes_sent, total);
        let dict: u64 = out.sends.iter().map(|b| b.header_bytes() as u64).sum();
        assert_eq!(e.stats().dict_bytes_sent, dict);
        assert!(dict > 0, "first contact ships dictionary entries");
    }

    /// Dictionary entries are charged once per (destination, first use):
    /// a second round to the same destination only ships strings it has
    /// never sent there.
    #[test]
    fn dictionary_is_shipped_once_per_destination() {
        let mut e = engine("n1", "r1 reach(@D,S) :- link(@S,D,C).");
        e.insert_base(link("n1", "n2", 1)).unwrap();
        let first = e.run();
        assert!(!first.sends[0].dict.is_empty());
        // Another tuple to the same destination: all identifiers already
        // shipped, so the new batch's header is empty.
        e.insert_base(link("n1", "n2", 7)).unwrap();
        let second = e.run();
        assert_eq!(second.sends.len(), 1);
        assert!(second.sends[0].dict.is_empty());
        // A new destination starts its own dictionary from scratch.
        e.insert_base(link("n1", "n3", 1)).unwrap();
        let third = e.run();
        assert!(third.sends[0].dict.iter().any(|s| s == "reach"));
    }

    /// A constant in an atom and the same constant in a filter are one
    /// value: where `link.1` holds addresses (r3 ships to it), both rules
    /// derive the links to n3. (While a text matched an address in atoms
    /// only, `via_atom` derived one tuple and `via_filter` none.)
    #[test]
    fn an_atom_constant_and_a_filter_constant_agree() {
        let mut e = engine(
            "n1",
            "r1 viaAtom(@S,C) :- link(@S,\"n3\",C).\n\
             r2 viaFilter(@S,C) :- link(@S,D,C), D == \"n3\".\n\
             r3 reach(@D,S) :- link(@S,D,C).",
        );
        for (to, cost) in [("n2", 1), ("n3", 4), ("n3", 6)] {
            e.insert_base(link("n1", to, cost)).unwrap();
        }
        e.run();
        let costs = |relation: &str| -> Vec<Value> {
            e.relation(relation)
                .iter()
                .map(|t| t.values()[1].clone())
                .collect()
        };
        assert_eq!(costs("viaAtom"), [Value::Int(4), Value::Int(6)]);
        assert_eq!(costs("viaFilter"), costs("viaAtom"));
    }

    /// A base fact that does not fit its relation is refused before it is
    /// queued: counted, not stored, and no panic.
    #[test]
    fn a_fact_that_does_not_fit_its_relation_is_refused() {
        let mut e = engine("n1", "r1 cost(@S,D,C) :- link(@S,D,C).");
        let short = Tuple::new("link", vec![Value::addr("n1"), Value::addr("n2")]);
        let text = Tuple::new(
            "link",
            vec![Value::str("n1"), Value::addr("n2"), Value::Int(1)],
        );
        for tuple in [short, text] {
            let err = e.insert_base(tuple.clone()).unwrap_err();
            assert!(matches!(err, crate::RuntimeError::BadTuple(_)), "{err}");
            assert!(e.delete_base(tuple).is_err());
        }
        assert_eq!(e.stats().rejected_facts, 4);
        assert!(!e.has_pending());
        e.run();
        assert!(e.relation("link").is_empty() && e.relation("cost").is_empty());
    }

    /// A head whose address column would hold a number is not derived.
    #[test]
    fn a_head_that_does_not_fit_its_relation_is_not_derived() {
        let mut e = engine(
            "n1",
            "r1 far(@S,X) :- link(@S,D,C), X := C + 0.\n\
             r2 back(@X) :- far(@S,X).",
        );
        e.insert_base(link("n1", "n2", 5)).unwrap();
        let out = e.run();
        assert!(e.relation("far").is_empty());
        assert!(out.firings.iter().all(|f| f.rule == BASE_RULE));
    }

    #[test]
    fn match_atom_binds_and_checks_constants() {
        use crate::eval::SlotProgram;
        let program = SlotProgram::compile(
            &ndlog::parse_rule("r1 out(@S) :- link(@S,D,3), link(@D,S,_).").unwrap(),
        );
        let (atom, back) = (&program.positive[0], &program.positive[1]);
        let s = program.slot_of("S").unwrap();
        let mut frame = Frame::new();
        frame.reset(program.slot_count());
        assert!(atom.match_row(&link("n1", "n2", 3), &mut frame));
        assert_eq!(frame.get(s), Some(&Value::addr("n1")));
        // Bound slots are checked, not rebound; a failed match binds nothing.
        assert!(!back.match_row(&link("n2", "n9", 1), &mut frame));
        assert!(back.match_row(&link("n2", "n1", 1), &mut frame));
        frame.reset(program.slot_count());
        assert!(!atom.match_row(&link("n1", "n2", 4), &mut frame));
        assert_eq!(frame.get(s), None);
    }
}
