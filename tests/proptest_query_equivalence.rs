//! Query-mode equivalence: a message-driven distributed query session must
//! be observationally identical to the legacy in-process recursion.
//!
//! For random topologies, protocols, link churn, targets, query kinds,
//! traversal orders and pruning/caching options, `QueryMode::Distributed`
//! must produce the same [`provenance::QueryResult`] (bit-identical trees:
//! same derivation order, same pruned flags), the same vertex-visit and
//! cache-hit counts, and — for the sequential depth-first schedule, where
//! frames cannot coalesce — the same frame count as `QueryMode::Local`.
//! Breadth-first fan-out may only *reduce* frames (same-flush coalescing),
//! and its measured completion latency on multi-hop proofs must not exceed
//! depth-first's.
//!
//! Beside it runs the fold oracle (`crates/provenance/tests/common/oracle.rs`):
//! every kind's answer, which the executor folds where the data is and never
//! builds a tree for, must equal `project_result(kind, tree)` of the lineage
//! tree that a shadow engine computes for the same query, options and cache
//! history (one shadow per kind, since the cache is keyed by kind).
//!
//! The third property is the solo oracle of shared frames: a flush ships one
//! frame per (source, destination, direction), shared by every session
//! staging toward it, and each session that is not cancelled must equal the
//! same query run alone on an identically built platform — result, frames
//! charged, records, visits, cache hits, measured latency — across kinds ×
//! traversals × cancellation storms, while the sessions' bytes add up to
//! the executor's and the run ships no more frames than the solo runs.

#[path = "../crates/provenance/tests/common/oracle.rs"]
mod oracle;

use nettrails::{NetTrails, NetTrailsConfig};
use proptest::prelude::*;
use provenance::{
    QueryEngine, QueryHandle, QueryKind, QueryMode, QueryOptions, QueryResult, QuerySpec,
    QueryStats, TraversalOrder,
};
use simnet::{Topology, TopologyEvent};
use std::collections::BTreeMap;

fn topology_for(kind: usize, size: usize) -> Topology {
    match kind % 3 {
        0 => Topology::line(2 + size % 3),
        1 => Topology::ring(3 + size % 3),
        _ => Topology::ladder(2 + size % 2),
    }
}

fn kind_for(i: usize) -> QueryKind {
    match i % 4 {
        0 => QueryKind::Lineage,
        1 => QueryKind::BaseTuples,
        2 => QueryKind::ParticipatingNodes,
        _ => QueryKind::DerivationCount,
    }
}

fn options_for(traversal: usize, cache: bool, depth: usize, derivs: usize) -> QueryOptions {
    QueryOptions {
        use_cache: cache,
        traversal: if traversal.is_multiple_of(2) {
            TraversalOrder::DepthFirst
        } else {
            TraversalOrder::BreadthFirst
        },
        // 0 = unbounded; small bounds exercise both pruning paths.
        max_depth: (!depth.is_multiple_of(4)).then_some(depth % 4),
        max_derivations_per_vertex: (!derivs.is_multiple_of(3)).then_some(derivs % 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn distributed_queries_match_the_local_oracle(
        topo_kind in 0usize..3,
        size in 0usize..6,
        program_idx in 0usize..2,
        churn in proptest::collection::vec((0usize..8, 0usize..8), 0..3),
        queries in proptest::collection::vec(
            // (target, kind × traversal, cache, max_depth, max_derivations)
            (0usize..64, 0usize..8, 0usize..2, 0usize..4, 0usize..3),
            1..6,
        ),
    ) {
        let topology = topology_for(topo_kind, size);
        let nodes: Vec<String> = topology.nodes().map(str::to_string).collect();
        let program = if program_idx == 0 {
            protocols::mincost::PROGRAM
        } else {
            protocols::pathvector::PROGRAM
        };
        let mut nt = NetTrails::new(program, topology, NetTrailsConfig::default())
            .expect("program compiles");
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        for (a, b) in churn {
            nt.apply_topology_event(&TopologyEvent::LinkDown {
                a: nodes[a % nodes.len()].clone(),
                b: nodes[b % nodes.len()].clone(),
            });
        }
        let targets = if program_idx == 0 {
            nt.relation("minCost")
        } else {
            nt.relation("bestPathCost")
        };
        if targets.is_empty() {
            return Ok(());
        }

        // Run the random query mix twice per mode, in the same order, so
        // cache evolution is comparable between the two engines.
        let mut shadows: [QueryEngine; 4] = Default::default();
        for (t, kind_and_traversal, cache, depth, derivs) in queries {
            let (querier, target) = &targets[t % targets.len()];
            let kind = kind_for(kind_and_traversal % 4);
            let options = options_for(kind_and_traversal / 4, cache == 1, depth, derivs);
            for _ in 0..2 {
                let (local, ls) = nt
                    .query(target)
                    .from_node(querier)
                    .kind(kind)
                    .options(options.clone())
                    .mode(QueryMode::Local)
                    .run();
                let (dist, ds) = nt
                    .query(target)
                    .from_node(querier)
                    .kind(kind)
                    .options(options.clone())
                    .run();
                prop_assert_eq!(&local, &dist, "result for {:?} {:?}", kind, options);
                let (lineage, _) = shadows[kind_and_traversal % 4].run(
                    nt.provenance(),
                    &QuerySpec {
                        querier: *querier,
                        vid: target.id(),
                        kind: QueryKind::Lineage,
                        mode: QueryMode::Local,
                        options: options.clone(),
                    },
                );
                let QueryResult::Lineage(tree) = lineage else {
                    unreachable!("a lineage query answers with a tree")
                };
                prop_assert_eq!(
                    &oracle::project_result(kind, tree),
                    &dist,
                    "fold oracle for {:?} {:?}", kind, options
                );
                if let QueryResult::Lineage(tree) = &dist {
                    let QueryResult::Lineage(local_tree) = &local else {
                        unreachable!()
                    };
                    prop_assert_eq!(tree.pruned, local_tree.pruned);
                    prop_assert_eq!(tree.size(), local_tree.size());
                }
                prop_assert_eq!(
                    ls.vertices_visited, ds.vertices_visited,
                    "visits for {:?} {:?}", kind, options
                );
                prop_assert_eq!(
                    ls.cache_hits, ds.cache_hits,
                    "cache hits for {:?} {:?}", kind, options
                );
                prop_assert_eq!(
                    ls.records, ds.records,
                    "hop records for {:?} {:?}", kind, options
                );
                match options.traversal {
                    TraversalOrder::DepthFirst => {
                        prop_assert_eq!(ls.messages, ds.messages, "sequential frame count");
                    }
                    TraversalOrder::BreadthFirst => {
                        prop_assert!(ds.messages <= ls.messages, "fan-out only coalesces");
                    }
                }
            }
        }
    }

    /// Concurrent sessions match their solo runs: for random mixes of
    /// concurrent sessions — kinds × traversals × depth pruning —
    /// interrupted by cancellation storms at random pump steps, every
    /// session that is not cancelled has the result, charged frames,
    /// records, visits, cache hits and measured latency of the same query
    /// run alone on an identically built platform. Per-session bytes are
    /// summed, not compared: which of two sessions sharing a frame pays for
    /// a name both carry follows staging order. The sum must be the
    /// executor's byte count, and the run ships no more frames than the
    /// solo runs and the cancelled sessions were charged. (Sessions run
    /// uncached: cross-session cache *fill* is schedule-dependent by design
    /// — whether one session's freshly cached subtree is visible to another
    /// depends on frame arrival interleaving — while per-session cache
    /// equivalence against the local oracle is covered above.)
    #[test]
    fn concurrent_sessions_match_their_solo_runs(
        topo_kind in 0usize..3,
        size in 0usize..6,
        program_idx in 0usize..2,
        sessions in proptest::collection::vec(
            // (target, querier, kind, traversal, max_depth)
            (0usize..64, 0usize..8, 0usize..4, 0usize..2, 0usize..4),
            2..10,
        ),
        storm in proptest::collection::vec(
            // (session to cancel, pump step to cancel at)
            (0usize..16, 1usize..8),
            0..4,
        ),
    ) {
        let topology = topology_for(topo_kind, size);
        let program = if program_idx == 0 {
            protocols::mincost::PROGRAM
        } else {
            protocols::pathvector::PROGRAM
        };
        let relation = if program_idx == 0 { "minCost" } else { "bestPathCost" };
        let build = || {
            let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default())
                .expect("program compiles");
            nt.seed_links_from_topology();
            nt.run_to_fixpoint();
            nt
        };
        let mut nt = build();
        let targets = nt.relation(relation);
        if targets.is_empty() {
            return Ok(());
        }
        let nodes: Vec<String> = nt.nodes().iter().map(|a| a.as_str().to_string()).collect();
        let submit = |nt: &mut NetTrails, &(t, q, kind, traversal, depth): &(usize, usize, usize, usize, usize)| {
            let (_, target) = &targets[t % targets.len()];
            let options = QueryOptions {
                use_cache: false,
                traversal: if traversal == 0 {
                    TraversalOrder::DepthFirst
                } else {
                    TraversalOrder::BreadthFirst
                },
                max_depth: (depth > 0).then_some(depth),
                max_derivations_per_vertex: None,
            };
            nt.query(target)
                .from_node(&nodes[q % nodes.len()])
                .kind(kind_for(kind))
                .options(options)
                .submit()
        };
        let handles: Vec<QueryHandle> = sessions.iter().map(|s| submit(&mut nt, s)).collect();
        let mut cancel_at: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(s, step) in &storm {
            cancel_at.entry(step).or_default().push(s % handles.len());
        }
        // Drive the flock to completion, firing the cancellation storm at
        // its scheduled pump steps. Cancelled sessions keep the stats they
        // accrued up to the cancel.
        let mut cancelled: BTreeMap<usize, QueryStats> = BTreeMap::new();
        let mut step = 0usize;
        while handles.iter().any(|h| !nt.query_done(*h)) {
            if let Some(victims) = cancel_at.get(&step) {
                for &v in victims {
                    if !nt.query_done(handles[v]) {
                        let stats = nt.cancel_query(handles[v]);
                        cancelled.insert(v, stats);
                    }
                }
            }
            if handles.iter().all(|h| nt.query_done(*h)) {
                break;
            }
            assert!(nt.poll_queries(), "sessions stalled");
            step += 1;
            assert!(step < 100_000, "sessions failed to converge");
        }
        let outcome = |result: QueryResult, s: QueryStats| {
            (result, s.messages, s.records, s.vertices_visited, s.cache_hits, s.latency_ms)
        };
        let mut bytes = 0u64;
        let mut solo_frames = 0u64;
        for (i, handle) in handles.iter().enumerate() {
            match nt.try_wait_query(*handle) {
                Some((result, stats)) => {
                    bytes += stats.bytes;
                    let mut solo = build();
                    let handle = submit(&mut solo, &sessions[i]);
                    let (solo_result, solo_stats) = solo.wait_query(handle);
                    solo_frames += solo.query_executor().traffic().messages;
                    prop_assert_eq!(
                        outcome(result, stats),
                        outcome(solo_result, solo_stats),
                        "session {} against its solo run", i
                    );
                }
                None => {
                    let stats = cancelled.remove(&i).expect("cancelled session");
                    bytes += stats.bytes;
                    solo_frames += stats.messages;
                }
            }
        }
        let traffic = nt.query_executor().traffic();
        prop_assert_eq!(bytes, traffic.bytes, "sessions' bytes are the executor's");
        prop_assert!(
            traffic.messages <= solo_frames,
            "shared frames never outnumber solo ones ({} vs {})",
            traffic.messages,
            solo_frames
        );
    }

    /// On multi-hop proofs the measured breadth-first completion time is
    /// never worse than depth-first's — the max(hop-chain) vs sum(hop)
    /// trade the paper describes, read off the simulated clock.
    #[test]
    fn breadth_first_measured_latency_is_never_worse(
        topo_kind in 0usize..3,
        size in 0usize..6,
        program_idx in 0usize..2,
    ) {
        let topology = topology_for(topo_kind, size);
        let program = if program_idx == 0 {
            protocols::mincost::PROGRAM
        } else {
            protocols::pathvector::PROGRAM
        };
        let mut nt = NetTrails::new(program, topology, NetTrailsConfig::default())
            .expect("program compiles");
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        let targets = if program_idx == 0 {
            nt.relation("minCost")
        } else {
            nt.relation("bestPathCost")
        };
        if targets.is_empty() {
            return Ok(());
        }
        for (querier, target) in targets.iter().take(6) {
            let (rd, dfs) = nt
                .query(target)
                .from_node(querier)
                .traversal(TraversalOrder::DepthFirst)
                .run();
            let (rb, bfs) = nt
                .query(target)
                .from_node(querier)
                .traversal(TraversalOrder::BreadthFirst)
                .run();
            prop_assert_eq!(rd, rb);
            // Chain-shaped proofs (every vertex a single derivation) have
            // nothing to overlap, so equality is legitimate; the strict
            // multi-hop assertion is the traversal-order test of
            // `tests/integration_queries.rs`, on a branching ladder.
            prop_assert!(
                bfs.latency_ms <= dfs.latency_ms,
                "measured BFS {}ms must not exceed DFS {}ms ({} records)",
                bfs.latency_ms, dfs.latency_ms, dfs.records
            );
        }
    }
}
