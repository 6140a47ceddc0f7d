//! The BGP demonstration harness: speakers + proxy + provenance.
//!
//! [`BgpHarness`] instantiates one [`Speaker`] per AS of an [`AsTopology`]
//! ("all Quagga BGP daemons on a single machine"), replays a RouteViews-style
//! trace through them, intercepts every inter-AS message with the
//! [`Proxy`], and maintains provenance in an ExSPAN [`ProvenanceSystem`]:
//!
//! * message-level provenance (`outputRoute` / `inputRoute` and the maybe-rule
//!   links between them) is an append-only history of what was observed;
//! * FIB-level provenance (`route(@AS, Prefix, Path)` selected-route entries,
//!   rule `select`) is maintained incrementally: when an AS changes its best
//!   route the old entry's provenance is retracted and the new one's added —
//!   so "users can perform various analytical and diagnostic tasks", e.g.
//!   trace a routing entry back to the origin announcement.

use crate::proxy::{Observation, Proxy};
use crate::speaker::{Relation, Route, Speaker};
use crate::topology::AsTopology;
use crate::trace::{TraceEvent, TraceEventKind};
#[cfg(test)]
use nt_runtime::NodeId;
use nt_runtime::{Firing, Sym, Tuple, TupleId, Value, BASE_RULE};
use provenance::ProvenanceSystem;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Name of the rule that attributes a FIB entry to the announcement it was
/// selected from.
pub const SELECT_RULE: &str = "select";

/// Counters describing a harness run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarnessStats {
    /// Trace events applied.
    pub trace_events: usize,
    /// Inter-AS BGP messages exchanged (and intercepted by the proxy).
    pub messages: u64,
    /// Interception batches the proxy observed: consecutive messages relayed
    /// on the same (sender, receiver) adjacency are intercepted together
    /// (the BGP-side analogue of the platform's per-destination delta
    /// batches), so `message_batches <= messages`.
    pub message_batches: u64,
    /// Best-route (FIB) changes across all ASes.
    pub fib_changes: u64,
    /// Outputs whose cause was inferred by a maybe rule.
    pub maybe_matches: u64,
    /// Outputs treated as locally originated.
    pub maybe_unmatched: u64,
}

/// The BGP + provenance harness.
#[derive(Debug)]
pub struct BgpHarness {
    topology: AsTopology,
    speakers: BTreeMap<String, Speaker>,
    proxy: Proxy,
    provenance: ProvenanceSystem,
    stats: HarnessStats,
    /// Last `select` firing per (AS, prefix), kept so it can be retracted when
    /// the best route changes.
    fib_provenance: BTreeMap<(String, String), Firing>,
}

impl BgpHarness {
    /// Build a harness over an AS topology, with the paper's maybe rules.
    pub fn new(topology: AsTopology) -> Self {
        let mut speakers = BTreeMap::new();
        for asn in topology.ases() {
            let neighbors: BTreeMap<String, Relation> =
                topology.neighbors(asn).into_iter().collect();
            speakers.insert(asn.to_string(), Speaker::new(asn, neighbors));
        }
        let provenance = ProvenanceSystem::new(topology.ases().map(str::to_string));
        BgpHarness {
            topology,
            speakers,
            proxy: Proxy::new(),
            provenance,
            stats: HarnessStats::default(),
            fib_provenance: BTreeMap::new(),
        }
    }

    /// The AS topology.
    pub fn topology(&self) -> &AsTopology {
        &self.topology
    }

    /// The provenance system (query it with [`provenance::QueryEngine`]).
    pub fn provenance(&self) -> &ProvenanceSystem {
        &self.provenance
    }

    /// Run counters.
    pub fn stats(&self) -> &HarnessStats {
        &self.stats
    }

    /// The proxy (exposes maybe-rule match counters).
    pub fn proxy(&self) -> &Proxy {
        &self.proxy
    }

    /// The best route an AS currently has for a prefix.
    pub fn best_route(&self, asn: &str, prefix: &str) -> Option<&Route> {
        self.speakers.get(asn).and_then(|s| s.best_route(prefix))
    }

    /// The `route(@AS, Prefix, Path)` FIB tuple for a selected route.
    pub fn route_tuple(asn: &str, route: &Route) -> Tuple {
        Tuple::new(
            "route",
            vec![
                Value::addr(asn),
                Value::str(route.prefix.clone()),
                Value::List(
                    route
                        .as_path
                        .iter()
                        .map(|a| Value::addr(a.clone()))
                        .collect(),
                ),
            ],
        )
    }

    /// The FIB tuple an AS currently has installed for a prefix, if any —
    /// the natural target of a provenance query.
    pub fn fib_tuple(&self, asn: &str, prefix: &str) -> Option<Tuple> {
        self.best_route(asn, prefix)
            .map(|r| Self::route_tuple(asn, r))
    }

    /// Apply one trace event and propagate BGP messages until quiescence.
    pub fn apply_event(&mut self, event: &TraceEvent) {
        self.stats.trace_events += 1;
        let Some(speaker) = self.speakers.get_mut(&event.origin) else {
            return;
        };
        let outgoing = match event.kind {
            TraceEventKind::Announce => speaker.originate(&event.prefix),
            TraceEventKind::Withdraw => speaker.withdraw_origin(&event.prefix),
        };
        let origin = event.origin.clone();
        self.record_fib_change(&origin, &event.prefix);
        let initial: VecDeque<(String, crate::speaker::Outgoing)> =
            outgoing.into_iter().map(|o| (origin.clone(), o)).collect();
        self.propagate(initial);
    }

    /// Replay a whole trace.
    pub fn run_trace(&mut self, trace: &[TraceEvent]) {
        for event in trace {
            self.apply_event(event);
        }
    }

    fn propagate(&mut self, mut queue: VecDeque<(String, crate::speaker::Outgoing)>) {
        while let Some((from, outgoing)) = queue.pop_front() {
            let to = outgoing.to.clone();
            // Coalesce the run of queued messages relayed on the same
            // (from, to) adjacency into one interception batch. Only
            // consecutive messages are grouped — reordering deliveries
            // would change route selection — so batching is purely a relay
            // optimization and provenance is unchanged.
            let mut messages = vec![outgoing];
            while matches!(queue.front(), Some((f, o)) if *f == from && o.to == to) {
                messages.push(queue.pop_front().expect("peeked front").1);
            }
            self.stats.messages += messages.len() as u64;
            self.stats.message_batches += 1;
            let observations: Vec<Observation> = messages
                .iter()
                .map(|m| Observation {
                    from: from.clone(),
                    to: to.clone(),
                    message: m.message.clone(),
                })
                .collect();
            let firings = self.proxy.observe_batch(&observations);
            self.provenance.apply_round(&firings);

            for outgoing in messages {
                let prefix = outgoing.message.prefix().to_string();
                let Some(receiver) = self.speakers.get_mut(&to) else {
                    continue;
                };
                let responses = receiver.receive(&from, &outgoing.message);
                self.record_fib_change(&to, &prefix);
                for r in responses {
                    queue.push_back((to.clone(), r));
                }
            }
        }
        self.stats.maybe_matches = self.proxy.matched_outputs;
        self.stats.maybe_unmatched = self.proxy.unmatched_outputs;
    }

    /// Reconcile FIB provenance after a potential best-route change at `asn`.
    fn record_fib_change(&mut self, asn: &str, prefix: &str) {
        let current = self
            .speakers
            .get(asn)
            .and_then(|s| s.best_route(prefix).cloned());
        let key = (asn.to_string(), prefix.to_string());
        let new_firing = current.as_ref().map(|route| {
            let head = Self::route_tuple(asn, route);
            let (rule, inputs): (Sym, Arc<[TupleId]>) = match &route.learned_from {
                Some(neighbor) => {
                    let input =
                        Proxy::input_route_tuple(asn, neighbor, &route.prefix, &route.as_path);
                    (Sym::new(SELECT_RULE), [input.id()].into())
                }
                None => (Sym::new(BASE_RULE), Arc::default()),
            };
            Firing {
                rule,
                node: asn.into(),
                head,
                head_home: asn.into(),
                inputs,
                insert: true,
            }
        });
        let old_firing = self.fib_provenance.get(&key).cloned();
        if old_firing.as_ref().map(|f| (&f.head, &f.inputs))
            == new_firing.as_ref().map(|f| (&f.head, &f.inputs))
        {
            return;
        }
        self.stats.fib_changes += 1;
        if let Some(mut old) = old_firing {
            old.insert = false;
            self.provenance.apply_firing(&old);
            self.fib_provenance.remove(&key);
        }
        if let Some(new) = new_firing {
            self.provenance.apply_firing(&new);
            self.fib_provenance.insert(key, new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provenance::{QueryEngine, QueryKind, QueryOptions, QueryResult};

    /// AS100 (tier-1) provides transit to AS200 and AS201; AS1000 is a stub
    /// customer of AS200.
    fn small_topology() -> AsTopology {
        let mut t = AsTopology::new();
        t.add_peering("AS100", "AS101");
        t.add_customer("AS100", "AS200");
        t.add_customer("AS101", "AS201");
        t.add_customer("AS200", "AS1000");
        t.add_customer("AS201", "AS1001");
        t
    }

    fn announce(origin: &str, prefix: &str) -> TraceEvent {
        TraceEvent {
            at_secs: 0,
            origin: origin.to_string(),
            prefix: prefix.to_string(),
            kind: TraceEventKind::Announce,
        }
    }

    #[test]
    fn announcements_propagate_across_the_as_graph() {
        let mut h = BgpHarness::new(small_topology());
        h.apply_event(&announce("AS1000", "10.0.0.0/24"));
        // Every AS eventually has a route (valley-free reachability holds in
        // this topology).
        for asn in ["AS200", "AS100", "AS101", "AS201", "AS1001"] {
            let route = h.best_route(asn, "10.0.0.0/24");
            assert!(route.is_some(), "{asn} should have a route");
            assert_eq!(route.unwrap().origin(), Some("AS1000"));
        }
        assert!(h.stats().messages > 0);
        assert!(h.stats().maybe_matches > 0, "re-announcements matched br1");
    }

    #[test]
    fn fib_provenance_traces_back_to_the_origin_announcement() {
        let mut h = BgpHarness::new(small_topology());
        h.apply_event(&announce("AS1000", "10.0.0.0/24"));
        let target = h
            .fib_tuple("AS201", "10.0.0.0/24")
            .expect("route installed");
        let mut qe = QueryEngine::new();
        let (result, _) = qe.query(
            h.provenance(),
            "AS201",
            &target,
            QueryKind::ParticipatingNodes,
            &QueryOptions::default(),
        );
        let QueryResult::ParticipatingNodes(nodes) = result else {
            panic!("wrong result");
        };
        // The derivation history crosses every AS on the path back to the
        // origin.
        assert!(nodes.contains(&NodeId::new("AS201")));
        assert!(nodes.contains(&NodeId::new("AS101")));
        assert!(nodes.contains(&NodeId::new("AS100")));
        assert!(nodes.contains(&NodeId::new("AS200")));
        assert!(nodes.contains(&NodeId::new("AS1000")));

        let (result, _) = qe.query(
            h.provenance(),
            "AS201",
            &target,
            QueryKind::BaseTuples,
            &QueryOptions::default(),
        );
        let QueryResult::BaseTuples(bases) = result else {
            panic!()
        };
        assert!(
            bases.iter().any(|(_, t)| t
                .as_ref()
                .map(|t| t.relation() == "outputRoute" && t.values()[0].as_addr() == Some("AS1000"))
                .unwrap_or(false)),
            "origin announcement is a base vertex: {bases:?}"
        );
    }

    #[test]
    fn withdrawal_retracts_fib_provenance() {
        let mut h = BgpHarness::new(small_topology());
        h.apply_event(&announce("AS1000", "10.0.0.0/24"));
        let before = h.provenance().stats().prov_entries;
        h.apply_event(&TraceEvent {
            at_secs: 1,
            origin: "AS1000".into(),
            prefix: "10.0.0.0/24".into(),
            kind: TraceEventKind::Withdraw,
        });
        assert!(h.best_route("AS201", "10.0.0.0/24").is_none());
        let after = h.provenance().stats().prov_entries;
        assert!(
            after < before,
            "FIB provenance entries retracted ({before} -> {after})"
        );
        assert!(
            h.stats().fib_changes >= 10,
            "announce + withdraw across 6 ASes"
        );
    }

    #[test]
    fn relay_batches_are_counted() {
        let mut h = BgpHarness::new(small_topology());
        h.apply_event(&announce("AS1000", "10.0.0.0/24"));
        assert!(h.stats().message_batches > 0);
        assert!(
            h.stats().message_batches <= h.stats().messages,
            "a batch carries at least one message"
        );
    }

    #[test]
    fn generated_topology_and_trace_run_end_to_end() {
        let topo = AsTopology::generate(2, 3, 4, 11);
        let trace = crate::trace::TraceGenerator {
            prefixes_per_origin: 1,
            churn_events: 3,
            seed: 5,
        }
        .generate(&topo);
        let mut h = BgpHarness::new(topo);
        h.run_trace(&trace);
        assert_eq!(h.stats().trace_events, trace.len());
        assert!(h.provenance().stats().prov_entries > 0);
        assert!(h.provenance().stats().rule_execs > 0);
    }
}
