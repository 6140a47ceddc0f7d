//! What a vertex read costs does not depend on how many nodes there are.
//!
//! `vertex_home` and the tuple read used to `find` over every store, so a
//! query visit cost O(N) and assembling the graph O(V·N). These guards are
//! wall-clock bounds set between the two, unoptimised: 40,000 keyed reads
//! take about 30 ms against a bound of 1 s where the scans took 3 s, and a
//! doubled network assembles in 2.1x the time against a bound of 3x where a
//! scan per vertex gave 3.9x.

#[allow(dead_code)]
mod common;

use common::base_firing;
use nt_runtime::{Firing, NodeId, Sym, Tuple, Value};
use provenance::{ProvGraph, ProvenanceSystem};
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
