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
//! The third property covers the query service's cross-session frame
//! merging: with `NetTrailsConfig::merge_query_frames`, concurrent
//! sessions' records share one frame per (source, destination, direction),
//! and every session must still be bit-identical — results, visits, cache
//! hits, records, frames charged, measured latency — to per-session
//! sealing, across kinds × traversals × cancellation storms.

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

    /// Cross-session frame merging is observationally invisible: for random
    /// mixes of concurrent sessions — kinds × traversals × depth pruning —
    /// interrupted by cancellation storms at random pump steps, every
    /// session's result, visit count, cache hits, records, charged frames
    /// and measured latency are bit-identical to per-session sealing, and
    /// the run-wide byte totals match. (Sessions run uncached here:
    /// cross-session cache *fill* is schedule-dependent by design — whether
    /// one session's freshly cached subtree is visible to another depends
    /// on frame arrival interleaving — while per-session cache equivalence
    /// against the local oracle is covered above.)
    #[test]
    fn merged_frame_sealing_matches_per_session_sealing(
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
        let run = |merge: bool| {
            let config = if merge {
                NetTrailsConfig::with_merged_query_frames()
            } else {
                NetTrailsConfig::default()
            };
            let mut nt = NetTrails::new(program, topology.clone(), config)
                .expect("program compiles");
            nt.seed_links_from_topology();
            nt.run_to_fixpoint();
            let targets = nt.relation(relation);
            if targets.is_empty() {
                return (Vec::new(), (0, 0), 0);
            }
            let nodes: Vec<String> = nt.nodes().iter().map(|a| a.as_str().to_string()).collect();
            let handles: Vec<QueryHandle> = sessions
                .iter()
                .map(|&(t, q, kind, traversal, depth)| {
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
                })
                .collect();
            let mut cancel_at: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &(s, step) in &storm {
                cancel_at.entry(step).or_default().push(s % handles.len());
            }
            // Drive the flock to completion, firing the cancellation storm
            // at its scheduled pump steps. Cancelled sessions keep the
            // stats they accrued up to the cancel.
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
            let mut outcomes = Vec::new();
            let mut totals = (0u64, 0u64);
            for (i, handle) in handles.iter().enumerate() {
                // Per-session bytes are summed, not compared individually:
                // first-use dictionary attribution follows frame order
                // within a flush, so merging may shift a shared symbol's
                // charge between concurrent sessions.
                let (result, stats) = match nt.try_wait_query(*handle) {
                    Some((result, stats)) => (Some(result), stats),
                    None => (None, cancelled.remove(&i).expect("cancelled session")),
                };
                totals.0 += stats.bytes;
                totals.1 += stats.dict_bytes;
                outcomes.push((
                    result,
                    stats.messages,
                    stats.records,
                    stats.vertices_visited,
                    stats.cache_hits,
                    stats.latency_ms,
                ));
            }
            (outcomes, totals, nt.query_executor().traffic().messages)
        };
        let (merged, merged_totals, merged_frames) = run(true);
        let (split, split_totals, split_frames) = run(false);
        prop_assert_eq!(merged, split, "per-session outcomes must be identical");
        prop_assert_eq!(merged_totals, split_totals, "run-wide byte totals");
        prop_assert!(
            merged_frames <= split_frames,
            "merging never ships more frames ({} vs {})",
            merged_frames,
            split_frames
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
