//! The engine table: every node's engine in one dense vector, plus the
//! *ready set* that makes the platform round loop work-proportional.
//!
//! Engines sit in slots in node-name order. The table is the only thing that
//! hands out `&mut NodeEngine`, and it marks the slot ready whenever it does
//! ([`EngineTable::enqueue`]) or when an engine's `run()` stopped on its delta
//! budget, so `ready ⊇ { engines with has_pending() }` always holds.
//! [`EngineTable::run_ready`] drains the set in ascending slot order — the
//! name-order scan over all engines restricted to the ones with work, without
//! visiting the others. The set lives across `run_to_fixpoint` calls: a run
//! truncated by `max_rounds`, or a delta delivered by `poll_queries` between
//! runs, leaves its slots marked for the next one.

use nt_runtime::{Addr, Census, Heap, IdMap, NodeEngine, StepOutput};

/// Dense, name-ordered engine storage with a ready set.
#[derive(Debug)]
pub(crate) struct EngineTable {
    /// Slot → node name, ascending in string order.
    names: Vec<Addr>,
    /// Slot → engine.
    engines: Vec<NodeEngine>,
    /// Node → slot. `Addr` hashes and compares by interned id, so a lookup
    /// never touches the name's bytes.
    slots: IdMap<Addr, u32>,
    /// Slots that may have queued deltas, unordered, each at most once.
    ready: Vec<u32>,
    /// Slot → "is in `ready`".
    marked: Vec<bool>,
    /// The slots of the round being run (swapped with `ready`, so neither
    /// buffer is reallocated per round).
    round: Vec<u32>,
}

impl EngineTable {
    /// Build the table from one engine per node (any order, distinct nodes).
    pub fn new(engines: impl IntoIterator<Item = NodeEngine>) -> Self {
        let mut engines: Vec<NodeEngine> = engines.into_iter().collect();
        engines.sort_by(|a, b| a.node().cmp(b.node()));
        let names: Vec<Addr> = engines.iter().map(|e| Addr::new(e.node())).collect();
        let slots = names.iter().zip(0u32..).map(|(n, s)| (*n, s)).collect();
        EngineTable {
            marked: vec![false; engines.len()],
            names,
            engines,
            slots,
            ready: Vec::new(),
            round: Vec::new(),
        }
    }

    /// Charge every engine (see [`NodeEngine::heap`]) and the table's own
    /// vectors and slot map, to `engine.shell`.
    pub fn heap(&self, census: &mut Census) {
        self.engines.iter().for_each(|engine| engine.heap(census));
        let vectors = Heap::vec(&self.names) + Heap::vec(&self.engines) + Heap::vec(&self.ready);
        let slots = Heap::map(&self.slots) + Heap::vec(&self.marked) + Heap::vec(&self.round);
        census.add("engine.shell", vectors + slots);
    }

    /// Node names in slot (string) order.
    pub fn names(&self) -> &[Addr] {
        &self.names
    }

    /// Every `(node, engine)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &NodeEngine)> {
        self.names.iter().copied().zip(&self.engines)
    }

    /// A node's engine, read-only.
    pub fn get(&self, node: Addr) -> Option<&NodeEngine> {
        self.slots.get(&node).map(|s| &self.engines[*s as usize])
    }

    /// A node's engine for queueing work on it; marks the node ready.
    pub fn enqueue(&mut self, node: Addr) -> Option<&mut NodeEngine> {
        let slot = *self.slots.get(&node)?;
        self.mark(slot);
        Some(&mut self.engines[slot as usize])
    }

    fn mark(&mut self, slot: u32) {
        if !std::mem::replace(&mut self.marked[slot as usize], true) {
            self.ready.push(slot);
        }
    }

    /// Run every ready engine that has pending deltas to its local fixpoint,
    /// in slot order, handing each output to `each`. An engine that stopped on
    /// its delta budget is marked again for the *next* call, like everything
    /// `each`'s consequences enqueue later. Returns true when any engine ran.
    pub fn run_ready(&mut self, mut each: impl FnMut(Addr, StepOutput)) -> bool {
        std::mem::swap(&mut self.ready, &mut self.round);
        self.round.sort_unstable();
        let mut ran = false;
        for i in 0..self.round.len() {
            let slot = self.round[i];
            self.marked[slot as usize] = false;
            let engine = &mut self.engines[slot as usize];
            if !engine.has_pending() {
                continue;
            }
            ran = true;
            let out = engine.run();
            if engine.has_pending() {
                self.mark(slot);
            }
            each(self.names[slot as usize], out);
        }
        self.round.clear();
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{CompiledProgram, EngineConfig};
    use std::sync::Arc;

    /// An engine whose `run()` stops on its delta budget stays in the ready
    /// set (for the next round, not the current one), slots drain in name
    /// order whatever order they were marked in, and a drained table is
    /// quiescent.
    #[test]
    fn budget_truncated_engines_are_requeued_and_slots_drain_in_name_order() {
        let program = Arc::new(CompiledProgram::from_source(protocols::mincost::PROGRAM).unwrap());
        let engine = |node: &str, max_deltas_per_run| {
            let config = EngineConfig {
                max_deltas_per_run,
                ..EngineConfig::new(node)
            };
            NodeEngine::new(program.clone(), config)
        };
        let mut table = EngineTable::new([engine("n2", 1), engine("n3", 1_000), engine("n1", 1)]);
        assert_eq!(table.names(), [Addr::new("n1"), "n2".into(), "n3".into()]);
        assert!(table.enqueue(Addr::new("ghost")).is_none());
        for (node, peer) in [("n2", "n1"), ("n2", "n3"), ("n1", "n2"), ("n1", "n3")] {
            let engine = table.enqueue(node.into()).expect("known node");
            engine
                .insert_base(protocols::link_tuple(node, peer, 1))
                .unwrap();
        }
        let mut rounds: Vec<Vec<(Addr, bool)>> = Vec::new();
        loop {
            let mut ran = Vec::new();
            if !table.run_ready(|node, out| ran.push((node, out.truncated))) {
                break;
            }
            rounds.push(ran);
        }
        let (n1, n2) = (Addr::new("n1"), Addr::new("n2"));
        assert_eq!(rounds[0], [(n1, true), (n2, true)], "one delta each");
        assert!(rounds.len() > 2, "budget 1 needs a round per queued delta");
        let last = rounds.last().unwrap();
        assert!(last.iter().all(|(_, truncated)| !truncated));
        assert!(table.iter().all(|(_, e)| !e.has_pending()));
        assert!(table.get(n1).unwrap().stats().deltas_processed > 2);
        assert_eq!(table.get("n3".into()).unwrap().stats().deltas_processed, 0);
    }
}
