//! Shared experiment drivers for the NetTrails experiment report.
//!
//! The paper is a demonstration, so its results are shapes, not timings.
//! Each experiment E2–E8 (E1, the architecture walk-through, is the
//! `quickstart` example) has a driver here that builds the workload, runs it
//! and returns a [`ReportTable`] with the measured shape (work, traffic,
//! state sizes, savings) as deterministic counts; the `report` binary prints
//! every table ([`report_text`]). Timings are `ntbench`'s (`benchmark/`), not
//! this crate's.

use bgp::{AsTopology, BgpHarness, TraceGenerator};
use logstore::{LogStore, Replay};
use nettrails::{ExperimentRow, NetTrails, NetTrailsConfig, ReportTable};
use provenance::{QueryEngine, QueryKind, QueryOptions, QueryResult, TraversalOrder};
use simnet::{Topology, TopologyEvent};
use vis::HypertreeLayout;

/// Build a converged platform for a protocol over a topology.
pub fn converged(program: &str, topology: Topology, provenance: bool) -> NetTrails {
    let config = if provenance {
        NetTrailsConfig::default()
    } else {
        NetTrailsConfig::without_provenance()
    };
    let mut nt = NetTrails::new(program, topology, config).expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt
}

/// A converged MINCOST platform on a ladder of the given length.
pub fn mincost_ladder(n: usize) -> NetTrails {
    converged(protocols::mincost::PROGRAM, Topology::ladder(n), true)
}

/// E2 — provenance of a running MINCOST program (Figures 2 and 3): graph size,
/// partitioning and hypertree layout size as the network grows.
pub fn experiment_mincost_provenance(sizes: &[usize]) -> ReportTable {
    let mut table = ReportTable::new("E2 MINCOST provenance graph (Fig. 2/3)");
    for &n in sizes {
        let mut nt = mincost_ladder(n);
        let graph = nt.provenance_graph();
        let (node, target) = nt
            .relation("minCost")
            .into_iter()
            .max_by_key(|(_, t)| t.values()[2].as_int())
            .expect("at least one minCost tuple");
        let (result, stats) = nt
            .query(&target)
            .from_node(&node)
            .kind(QueryKind::Lineage)
            .run();
        let QueryResult::Lineage(tree) = result else {
            unreachable!()
        };
        let layout = HypertreeLayout::of_proof_tree(&tree);
        table.push(
            ExperimentRow::new(format!("ladder n={n} ({} nodes)", 2 * n))
                .with("tuple_vertices", graph.tuple_vertex_count() as f64)
                .with("rule_execs", graph.rule_exec_count() as f64)
                .with("proof_tree_size", tree.size() as f64)
                .with("proof_tree_depth", tree.depth() as f64)
                .with("hypertree_vertices", layout.len() as f64)
                .with("query_messages", stats.messages as f64),
        );
    }
    table
}

/// E3 — incremental maintenance vs recomputation from scratch after a link
/// failure, for each protocol.
pub fn experiment_incremental(sizes: &[usize]) -> ReportTable {
    let mut table = ReportTable::new("E3 incremental maintenance vs recompute (link failure)");
    let protocols: &[(&str, &str)] = &[
        ("MINCOST", protocols::mincost::PROGRAM),
        ("PATH-VECTOR", protocols::pathvector::PROGRAM),
        ("DISTANCE-VECTOR", protocols::distancevector::PROGRAM),
    ];
    for &(name, program) in protocols {
        for &n in sizes {
            let mut nt = converged(program, Topology::ladder(n), true);
            let event = TopologyEvent::LinkDown {
                a: "n1".into(),
                b: "n2".into(),
            };
            let incremental = nt.apply_topology_event(&event);
            let (_, scratch) = nt.recompute_from_scratch().expect("recompute");
            table.push(
                ExperimentRow::new(format!("{name} ladder n={n}"))
                    .with("incremental_tuples", incremental.tuples_touched() as f64)
                    .with("scratch_tuples", scratch.tuples_touched() as f64)
                    .with(
                        "speedup_x",
                        scratch.tuples_touched() as f64
                            / incremental.tuples_touched().max(1) as f64,
                    ),
            );
        }
    }
    table
}

/// E4 — the cost of capturing provenance: the extra state compared to
/// running the bare protocol. There is no extra traffic to report: a remote
/// derivation's `prov` entry is written where its protocol record is
/// delivered, so `byte_overhead_x` weighs the provenance stores' bytes
/// against the protocol's wire bytes.
pub fn experiment_maintenance_overhead(sizes: &[usize]) -> ReportTable {
    let mut table = ReportTable::new("E4 provenance maintenance overhead");
    for &n in sizes {
        let with = converged(protocols::mincost::PROGRAM, Topology::ladder(n), true);
        let without = converged(protocols::mincost::PROGRAM, Topology::ladder(n), false);
        let ws = with.stats();
        let bs = without.stats();
        let prov_bytes = ws.provenance.bytes as f64;
        let proto_bytes = bs.network.bytes as f64;
        table.push(
            ExperimentRow::new(format!("ladder n={n}"))
                .with("protocol_tuples", bs.stored_tuples as f64)
                .with("prov_entries", ws.provenance.prov_entries as f64)
                .with("rule_execs", ws.provenance.rule_execs as f64)
                .with("protocol_msgs", bs.network.messages as f64)
                .with(
                    "state_overhead_x",
                    (ws.stored_tuples as f64 + ws.provenance.tuple_vertices as f64)
                        / bs.stored_tuples.max(1) as f64,
                )
                .with(
                    "byte_overhead_x",
                    (proto_bytes + prov_bytes) / proto_bytes.max(1.0),
                ),
        );
    }
    table
}

/// E5 — the legacy (BGP) use case: trace volume, provenance volume, maybe-rule
/// attribution rate, and derivation-history depth.
pub fn experiment_bgp(as_counts: &[(usize, usize, usize)]) -> ReportTable {
    let mut table = ReportTable::new("E5 legacy BGP provenance (Quagga/RouteViews substitute)");
    for &(large, medium, stub) in as_counts {
        let topology = AsTopology::generate(large, medium, stub, 2026);
        let trace = TraceGenerator {
            prefixes_per_origin: 1,
            churn_events: 5,
            seed: 11,
        }
        .generate(&topology);
        let mut harness = BgpHarness::new(topology);
        harness.run_trace(&trace);
        let stats = harness.stats().clone();
        let prov = harness.provenance().stats();

        // Depth of the derivation history of one tier-1 FIB entry.
        let mut qe = QueryEngine::new();
        let depth = harness
            .topology()
            .ases()
            .next()
            .and_then(|asn| {
                let prefix = trace.first()?.prefix.clone();
                let target = harness.fib_tuple(asn, &prefix)?;
                let (result, _) = qe.query(
                    harness.provenance(),
                    asn,
                    &target,
                    QueryKind::Lineage,
                    &QueryOptions::default(),
                );
                match result {
                    QueryResult::Lineage(tree) => Some(tree.depth()),
                    _ => None,
                }
            })
            .unwrap_or(0);

        table.push(
            ExperimentRow::new(format!("{} ASes", large + medium + stub))
                .with("trace_events", stats.trace_events as f64)
                .with("bgp_messages", stats.messages as f64)
                .with("maybe_matched", stats.maybe_matches as f64)
                .with("maybe_unmatched", stats.maybe_unmatched as f64)
                .with("prov_entries", prov.prov_entries as f64)
                .with("rule_execs", prov.rule_execs as f64)
                .with("fib_history_depth", depth as f64),
        );
    }
    table
}

/// E6 — the query types of the paper over the same targets. Every kind
/// visits and messages alike; the bytes are what its responses carry.
pub fn experiment_query_types() -> ReportTable {
    let mut table = ReportTable::new("E6 provenance query types");
    let mut nt = converged(protocols::pathvector::PROGRAM, Topology::ladder(4), true);
    let targets: Vec<_> = nt.relation("bestPathCost").into_iter().take(8).collect();
    for kind in [
        QueryKind::Lineage,
        QueryKind::BaseTuples,
        QueryKind::ParticipatingNodes,
        QueryKind::DerivationCount,
    ] {
        let mut messages = 0u64;
        let mut vertices = 0u64;
        let mut bytes = 0u64;
        for (node, tuple) in &targets {
            let (_, stats) = nt.query(tuple).from_node(node).kind(kind).run();
            messages += stats.messages;
            vertices += stats.vertices_visited;
            bytes += stats.bytes;
        }
        table.push(
            ExperimentRow::new(format!("{kind:?}"))
                .with("queries", targets.len() as f64)
                .with("messages", messages as f64)
                .with("vertices_visited", vertices as f64)
                .with("bytes", bytes as f64),
        );
    }
    table
}

/// E7 — the query optimizations: caching, traversal orders, threshold pruning.
pub fn experiment_query_optimizations() -> ReportTable {
    let mut table = ReportTable::new("E7 query optimizations (traffic reduction)");
    let mut nt = converged(protocols::pathvector::PROGRAM, Topology::ladder(4), true);
    let targets: Vec<_> = nt.relation("bestPathCost").into_iter().take(10).collect();

    let run = |nt: &mut NetTrails, options: &QueryOptions| -> (u64, u64, f64) {
        nt.clear_query_cache();
        let mut messages = 0;
        let mut bytes = 0;
        let mut latency: f64 = 0.0;
        // Query the whole mix twice — the repetition is what caching exploits.
        for (node, tuple) in targets.iter().chain(targets.iter()) {
            let (_, stats) = nt
                .query(tuple)
                .from_node(node)
                .kind(QueryKind::Lineage)
                .options(options.clone())
                .run();
            messages += stats.messages;
            bytes += stats.bytes;
            latency += stats.latency_ms;
        }
        (messages, bytes, latency)
    };

    let cases: Vec<(&str, QueryOptions)> = vec![
        ("baseline (DFS)", QueryOptions::default()),
        ("caching", QueryOptions::cached()),
        (
            "BFS traversal",
            QueryOptions {
                traversal: TraversalOrder::BreadthFirst,
                ..QueryOptions::default()
            },
        ),
        (
            "pruning depth<=3",
            QueryOptions {
                max_depth: Some(3),
                ..QueryOptions::default()
            },
        ),
        (
            "pruning 1 deriv/vertex",
            QueryOptions {
                max_derivations_per_vertex: Some(1),
                ..QueryOptions::default()
            },
        ),
        (
            "caching + pruning",
            QueryOptions {
                use_cache: true,
                max_depth: Some(3),
                max_derivations_per_vertex: Some(1),
                ..QueryOptions::default()
            },
        ),
    ];
    let baseline = run(&mut nt, &cases[0].1);
    for (label, options) in &cases {
        let (messages, bytes, latency) = run(&mut nt, options);
        table.push(
            ExperimentRow::new(*label)
                .with("messages", messages as f64)
                .with("bytes", bytes as f64)
                .with("latency_ms", latency)
                .with(
                    "traffic_saving_pct",
                    100.0 * (1.0 - messages as f64 / baseline.0.max(1) as f64),
                ),
        );
    }
    table
}

/// E8 — snapshot / log store / replay pipeline.
pub fn experiment_logstore_replay(cadences: &[usize]) -> ReportTable {
    let mut table = ReportTable::new("E8 log store snapshots and replay");
    for &events_per_snapshot in cadences {
        let mut nt = mincost_ladder(4);
        let mut store = LogStore::new();
        store.add(nt.capture_snapshot());
        let events = [
            TopologyEvent::LinkDown {
                a: "n1".into(),
                b: "n2".into(),
            },
            TopologyEvent::CostChange {
                a: "n3".into(),
                b: "n4".into(),
                cost: 4,
            },
            TopologyEvent::LinkUp(simnet::Link::new("n1", "n2", 2)),
            TopologyEvent::LinkDown {
                a: "n2".into(),
                b: "n6".into(),
            },
        ];
        for (i, event) in events.iter().enumerate() {
            nt.apply_topology_event(event);
            if (i + 1) % events_per_snapshot == 0 {
                store.add(nt.capture_snapshot());
            }
        }
        store.add(nt.capture_snapshot());
        let mut replay = Replay::new(&store);
        let mut total_changes = 0usize;
        while let Some(step) = replay.step() {
            let (added, removed) = step.tuple_counts();
            total_changes += added + removed;
        }
        table.push(
            ExperimentRow::new(format!("snapshot every {events_per_snapshot} event(s)"))
                .with("snapshots", store.len() as f64)
                .with("uploaded_bytes", store.uploaded_bytes() as f64)
                .with("replay_changes", total_changes as f64),
        );
    }
    table
}

/// Everything the `report` binary prints, byte for byte. Deterministic:
/// `tests/report_golden.rs` pins it.
pub fn report_text() -> String {
    let mut text = String::from(
        "NetTrails experiment report: the paper's E2-E8 shapes as exact counts\n\n\
         E1 (architecture / end-to-end flow) is exercised by `cargo run --example quickstart`.\n\n",
    );
    for table in all_experiments() {
        text.push_str(&format!("{table}\n"));
    }
    text
}

/// All experiment tables, in order.
pub fn all_experiments() -> Vec<ReportTable> {
    vec![
        experiment_mincost_provenance(&[2, 4, 8]),
        experiment_incremental(&[2, 3, 4]),
        experiment_maintenance_overhead(&[2, 4, 8]),
        experiment_bgp(&[(2, 3, 5), (3, 6, 12), (3, 8, 20)]),
        experiment_query_types(),
        experiment_query_optimizations(),
        experiment_logstore_replay(&[1, 2, 4]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_beats_recompute() {
        let table = experiment_incremental(&[3]);
        for row in &table.rows {
            assert!(row.get("speedup_x").unwrap() >= 1.0, "{row:?}");
        }
    }

    #[test]
    fn caching_and_pruning_save_traffic() {
        let table = experiment_query_optimizations();
        let baseline = table.rows[0].get("messages").unwrap();
        let caching = table
            .rows
            .iter()
            .find(|r| r.label == "caching")
            .unwrap()
            .get("messages")
            .unwrap();
        let pruning = table
            .rows
            .iter()
            .find(|r| r.label == "pruning 1 deriv/vertex")
            .unwrap()
            .get("messages")
            .unwrap();
        assert!(caching < baseline);
        assert!(pruning <= baseline);
    }

    #[test]
    fn overhead_table_is_populated() {
        let table = experiment_maintenance_overhead(&[2]);
        assert_eq!(table.rows.len(), 1);
        assert!(table.rows[0].get("prov_entries").unwrap() > 0.0);
    }
}
