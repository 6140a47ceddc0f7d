//! What a vertex read costs does not depend on how many nodes there are.
//!
//! `vertex_home` and the tuple read used to `find` over every store, so a
//! query visit cost O(N) and assembling the graph O(V·N). These guards are
//! wall-clock bounds set between the two, unoptimised: 40,000 keyed reads
//! take about 30 ms against a bound of 1 s where the scans took 3 s, and a
//! doubled network assembles in 2.1x the time against a bound of 3x where a
//! scan per vertex gave 3.9x.
//!
//! What a query answers does not depend on the network's size either: on a
//! 500- and a 1,000-node ring carrying one deep proof, every kind's folded
//! answer equals the projection of its lineage tree (the fold oracle of
//! `tests/common/oracle.rs`) and the two networks answer alike. Seeded
//! mutations of `query::fold` it caught, each at the oracle's assertion on
//! the squares' root: a pruned vertex counted 0 (`DerivationCount`, depth
//! bound 0), a rule execution's node missing from its node set (the
//! beacon's node 99, which no input's home names), and a count that wraps
//! instead of saturating (2^64 derivations). On the protocol networks of
//! `tests/proptest_query_equivalence.rs` and the 1,280-session service test
//! the three are invisible: no depth bound there is 0, every rule execution
//! there has inputs homed at its node, and no count reaches 2^64.

#[allow(dead_code)]
mod common;
#[path = "common/oracle.rs"]
mod oracle;

use common::base_firing;
use nt_runtime::{Firing, NodeId, Sym, Tuple, Value};
use provenance::{
    ProvGraph, ProvenanceSystem, QueryEngine, QueryExecutor, QueryKind, QueryMode, QueryOptions,
    QueryResult, QuerySpec, QueryStats, TraversalOrder,
};
use simnet::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("s{i:04}")).collect()
}

fn link(node: &str, x: i64) -> Tuple {
    Tuple::new("link", vec![Value::addr(node), Value::Int(x)])
}

/// The target vertex sits in the last-created of 4,096 stores, where a scan
/// in creation order looks last: 40,000 reads took it seconds unoptimised
/// (164 million store probes); keyed, they take milliseconds.
#[test]
fn vertex_reads_do_not_slow_down_with_the_number_of_stores() {
    let nodes = names(4096);
    let mut system = ProvenanceSystem::new(nodes.iter());
    let last = nodes.last().unwrap();
    let t = link(last, 7);
    system.apply_firing(&base_firing(&t, last.into(), true));
    let vid = t.id();
    let started = Instant::now();
    for _ in 0..20_000 {
        let home = black_box(&system).vertex_home(black_box(vid)).unwrap();
        assert!(black_box(&system).tuple_at(home, vid).is_some());
    }
    let took = started.elapsed();
    assert_eq!(system.vertex_home(vid), Some(NodeId::new(last)));
    assert!(took < Duration::from_secs(1), "40,000 reads took {took:?}");
}

/// A ring of `n` nodes: a base link at every node and, derived from it at
/// that node, a cost homed at the next one.
fn ring(n: usize) -> ProvenanceSystem {
    let nodes = names(n);
    let mut firings = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let l = link(node, i as i64);
        let next = &nodes[(i + 1) % n];
        firings.push(base_firing(&l, node.into(), true));
        firings.push(Firing {
            rule: Sym::new("r1"),
            node: node.into(),
            head: Tuple::new("cost", vec![Value::addr(next), Value::Int(i as i64)]),
            head_home: next.into(),
            inputs: [l.id()].into(),
            insert: true,
        });
    }
    let mut system = ProvenanceSystem::new(nodes.iter());
    system.apply_round(&firings);
    system
}

fn assembly_time(system: &ProvenanceSystem) -> Duration {
    let started = Instant::now();
    black_box(ProvGraph::from_system(black_box(system)));
    started.elapsed()
}

/// Graph assembly reads each vertex's content at the store it is iterating,
/// so twice the network is about twice the work (2.0x - 2.3x measured). With
/// a scan per vertex it was four times. Fastest of nine alternating runs, so
/// a stall on a shared machine has to hit one side nine times to matter.
#[test]
fn graph_assembly_is_linear_in_the_network_size() {
    let (small, large) = (ring(500), ring(1000));
    let graph = ProvGraph::from_system(&large);
    assert_eq!(graph.tuple_vertex_count(), 2000);
    assert_eq!(graph.rule_exec_count(), 1000);
    let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..9 {
        t_small = t_small.min(assembly_time(&small));
        t_large = t_large.min(assembly_time(&large));
    }
    assert!(
        t_large < 3 * t_small,
        "500 nodes assemble in {t_small:?}, 1,000 in {t_large:?}"
    );
}

/// A proof whose count overflows: level-0 vertices at node 0 are base and
/// also derived at node `n - 1` from a base tuple there (two derivations
/// each), and every vertex of level `k` is derived at node `k - 1` from two
/// level-`k - 1` vertices, so its count is the square of theirs and level 6
/// holds 2^64 derivations. The root also has a derivation with no inputs,
/// fired at node 99, which no input's home names. Returns the root.
fn squares(system: &mut ProvenanceSystem, nodes: &[String]) -> Tuple {
    let at = |i: usize| NodeId::new(&nodes[i % nodes.len()]);
    let vertex = |level: usize, i: usize| {
        Tuple::new(
            format!("sq{level}"),
            vec![Value::addr(at(level)), Value::Int(i as i64)],
        )
    };
    let mut firings = Vec::new();
    let mut width = 64;
    for i in 0..width {
        let leaf = vertex(0, i);
        let seed = Tuple::new(
            "seed",
            vec![Value::addr(at(nodes.len() - 1)), Value::Int(i as i64)],
        );
        firings.push(base_firing(&leaf, at(0), true));
        firings.push(base_firing(&seed, at(nodes.len() - 1), true));
        firings.push(Firing {
            rule: Sym::new("grow"),
            node: at(nodes.len() - 1),
            head: leaf,
            head_home: at(0),
            inputs: [seed.id()].into(),
            insert: true,
        });
    }
    for level in 1..=6 {
        width /= 2;
        for i in 0..width {
            firings.push(Firing {
                rule: Sym::new("square"),
                node: at(level - 1),
                head: vertex(level, i),
                head_home: at(level),
                inputs: [
                    vertex(level - 1, 2 * i).id(),
                    vertex(level - 1, 2 * i + 1).id(),
                ]
                .into(),
                insert: true,
            });
        }
    }
    let root = vertex(6, 0);
    firings.push(Firing {
        rule: Sym::new("beacon"),
        node: at(99),
        head: root.clone(),
        head_home: at(6),
        inputs: Default::default(),
        insert: true,
    });
    system.apply_round(&firings);
    root
}

/// An answer with its names taken out: a tree's size, a set's length, a
/// count.
fn shape(answer: &QueryResult) -> u64 {
    match answer {
        QueryResult::Lineage(tree) => tree.size() as u64,
        QueryResult::BaseTuples(bases) => bases.len() as u64,
        QueryResult::ParticipatingNodes(nodes) => nodes.len() as u64,
        QueryResult::DerivationCount(n) => *n,
    }
}

/// Run one session to completion with an immediate-delivery pump.
fn distributed(
    executor: &mut QueryExecutor,
    system: &ProvenanceSystem,
    spec: QuerySpec,
) -> (QueryResult, QueryStats) {
    let handle = executor.submit(system, spec, SimTime::ZERO);
    while !executor.is_done(handle) {
        for batch in executor.poll() {
            executor.deliver(system, batch, SimTime::ZERO);
        }
    }
    let (result, stats) = executor.take_result(handle).expect("finished");
    (result.expect("not cancelled"), stats)
}

/// Every kind, traversal, cache setting and depth bound, on the ring's costs
/// and the squares' root: the executor's folded answer equals the lineage
/// tree's projection, where a shadow engine per kind replays the same
/// queries as lineage so its cache history is the kind's. The root's count
/// saturates, a depth bound of 0 prunes the root to one derivation, and the
/// answers, visits and a count session's bytes are the same at 500 and
/// 1,000 nodes.
#[test]
fn every_kind_folds_to_its_lineage_projection_at_any_size() {
    let kinds = [
        QueryKind::Lineage,
        QueryKind::BaseTuples,
        QueryKind::ParticipatingNodes,
        QueryKind::DerivationCount,
    ];
    let mut per_size = Vec::new();
    for n in [500, 1000] {
        let nodes = names(n);
        let mut system = ring(n);
        let root = squares(&mut system, &nodes);
        let mut targets = vec![root.clone()];
        targets.extend((1..4).map(|i| {
            Tuple::new(
                "cost",
                vec![Value::addr(&nodes[i]), Value::Int(i as i64 - 1)],
            )
        }));
        let mut seen = Vec::new();
        for use_cache in [false, true] {
            for traversal in [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst] {
                for max_depth in [None, Some(0), Some(3)] {
                    let options = QueryOptions {
                        use_cache,
                        traversal,
                        max_depth,
                        max_derivations_per_vertex: None,
                    };
                    let mut executor = QueryExecutor::new();
                    let mut shadows: [QueryEngine; 4] = Default::default();
                    for _ in 0..2 {
                        for target in &targets {
                            for (k, kind) in kinds.into_iter().enumerate() {
                                let spec = QuerySpec {
                                    querier: NodeId::new(&nodes[n / 2]),
                                    vid: target.id(),
                                    kind,
                                    mode: QueryMode::Distributed,
                                    options: options.clone(),
                                };
                                let (answer, stats) =
                                    distributed(&mut executor, &system, spec.clone());
                                let (lineage, _) = shadows[k].run(
                                    &system,
                                    &QuerySpec {
                                        kind: QueryKind::Lineage,
                                        mode: QueryMode::Local,
                                        ..spec
                                    },
                                );
                                let QueryResult::Lineage(tree) = lineage else {
                                    unreachable!("a lineage query answers with a tree")
                                };
                                assert_eq!(
                                    answer,
                                    oracle::project_result(kind, tree),
                                    "{n} nodes, {target}, {kind:?}, {options:?}"
                                );
                                if target == &root && kind == QueryKind::DerivationCount {
                                    // Level 3 pruned counts 1, so the root
                                    // is the beacon plus 1 under depth 3.
                                    let expected = match max_depth {
                                        None => u64::MAX,
                                        Some(0) => 1,
                                        Some(_) => 2,
                                    };
                                    assert_eq!(answer, QueryResult::DerivationCount(expected));
                                }
                                let bytes = (kind == QueryKind::DerivationCount && !use_cache)
                                    .then_some(stats.bytes);
                                seen.push((shape(&answer), stats.vertices_visited, bytes));
                            }
                        }
                    }
                }
            }
        }
        per_size.push(seen);
    }
    assert_eq!(per_size[0], per_size[1], "500 and 1,000 nodes answer alike");
}
