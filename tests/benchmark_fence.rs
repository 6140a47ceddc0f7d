//! The benchmark fence: names `benchmark/` still compiles against after the
//! machinery behind them was deleted. Each is a shim that selects nothing —
//! a field keeps one legal value, a counter reads what the one production
//! path does — and carries a `fence:` tag citing the benchmark line that
//! uses it (`scripts/ci_local.sh fence` checks the citations).
//!
//! This file lists every shim (and fails when a tag is added or removed
//! without the list), shows that the legal values give the default
//! platform's replay digest, that every other value is refused — an `Err`
//! naming the field from `NetTrails::new`, a panic naming the fence from the
//! constructors whose fenced signatures return `Self` and from
//! `QueryExecutor::set_frame_merging` — that the
//! counters read 0 after a convergence plus churn, that
//! `ProvGraph::rebuild_adjacency` and `SystemSnapshot::stamp_dictionary`
//! leave a captured graph and a capture as they were, and that
//! `NodeSnapshot::capture` is `NodeSnapshot::of` whatever provenance it is
//! handed.
//!
//! Mutations it caught: a `NetTrails::new` that accepts `prov_shards: 2`
//! without a word. `NetMessage::Delta` is a variant nothing constructs; the
//! platform's arm for it is `unreachable!`.

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::{
    codec, CompiledProgram, EngineConfig, NodeEngine, RuntimeError, StableHasher, Tuple, Value,
};
use provenance::{ProvenanceSystem, QueryExecutor};
use simnet::{Link, Topology, TopologyEvent};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Every shim, as `crate file: item`. A tag added to or removed from the
/// source without this list changing fails `the_ledger_lists_every_tag`.
const LEDGER: [&str; 31] = [
    "crates/intern/Cargo.toml: serde",
    "crates/logstore/Cargo.toml: serde",
    "crates/logstore/Cargo.toml: serde_json",
    "crates/logstore/src/fence.rs: capture",
    "crates/logstore/src/fence.rs: stamp_dictionary",
    "crates/nettrails/src/platform.rs: Delta",
    "crates/nettrails/src/platform.rs: columnar_storage",
    "crates/nettrails/src/platform.rs: fixpoint_dispatch_threshold",
    "crates/nettrails/src/platform.rs: fixpoint_workers",
    "crates/nettrails/src/platform.rs: merge_query_frames",
    "crates/nettrails/src/platform.rs: prov_shards",
    "crates/nettrails/src/platform.rs: provenance_traffic",
    "crates/nettrails/src/platform.rs: provenance_sharding",
    "crates/nettrails/src/platform.rs: use_join_indexes",
    "crates/pool/src/lib.rs: jobs_executed",
    "crates/pool/src/lib.rs: workers",
    "crates/provenance/Cargo.toml: nt-pool",
    "crates/provenance/Cargo.toml: serde",
    "crates/provenance/src/fence.rs: cross_shard_records",
    "crates/provenance/src/fence.rs: maintenance_traffic",
    "crates/provenance/src/fence.rs: rebuild_adjacency",
    "crates/provenance/src/fence.rs: set_frame_merging",
    "crates/provenance/src/fence.rs: shard_stats",
    "crates/provenance/src/fence.rs: with_shards",
    "crates/runtime/Cargo.toml: nt-pool",
    "crates/runtime/Cargo.toml: serde",
    "crates/runtime/src/engine.rs: columnar_storage",
    "crates/runtime/src/engine.rs: fixpoint_dispatch_threshold",
    "crates/runtime/src/engine.rs: fixpoint_workers",
    "crates/runtime/src/engine.rs: use_join_indexes",
    "crates/runtime/src/fence.rs: OUTBOX_PREFIX",
];

/// The `fence:`-tagged items of one file: the first code line after each run
/// of tags, reduced to its name (the parse `scripts/ci_local.sh fence` makes).
fn tagged_items(path: &Path, label: &str, out: &mut BTreeSet<String>) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut pending = false;
    for line in text.lines() {
        let line = line.trim_start();
        if line.starts_with("// fence: benchmark/") || line.starts_with("# fence: benchmark/") {
            pending = true;
        } else if pending && !(line.is_empty() || line.starts_with("//") || line.starts_with("#["))
        {
            let mut rest = line;
            for prefix in ["pub(crate) ", "pub ", "fn ", "const ", "static "] {
                rest = rest.strip_prefix(prefix).unwrap_or(rest);
            }
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            out.insert(format!("{label}: {}", &rest[..end]));
            pending = false;
        }
    }
}

#[test]
fn the_ledger_lists_every_tag() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found = BTreeSet::new();
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let label = path.strip_prefix(&root).unwrap().display().to_string();
            if path.is_dir() {
                if label != "crates/compat" && !label.ends_with("/tests") {
                    dirs.push(path);
                }
            } else if label.ends_with(".rs") || label.ends_with("/Cargo.toml") {
                tagged_items(&path, &label, &mut found);
            }
        }
    }
    let listed: BTreeSet<String> = LEDGER.iter().map(|s| s.to_string()).collect();
    assert_eq!(found, listed, "the fence tags and this ledger disagree");
}

/// The replay digest of the default platform: its rows, engine, network and
/// provenance stats, store content and clock.
const DEFAULT_REPLAY_DIGEST: u64 = 0xd784_4f4f_dbde_b11e;

/// A converge of a 24-node AS-like network under MINCOST, then link churn;
/// the digest of what the platform ends in: every `minCost` row, the stats,
/// the provenance graph and the simulated clock.
fn replay_digest(config: NetTrailsConfig) -> u64 {
    let topology = Topology::internet_as(24, 2, 2011);
    let links: Vec<Link> = topology.links().step_by(5).take(4).cloned().collect();
    let mut nt = NetTrails::new(protocols::mincost::PROGRAM, topology, config).unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    for link in &links {
        nt.apply_topology_event(&TopologyEvent::LinkDown {
            a: link.from.clone(),
            b: link.to.clone(),
        });
    }
    for link in &links {
        nt.apply_topology_event(&TopologyEvent::LinkUp(link.clone()));
    }
    let mut rows: Vec<String> = nt
        .relation("minCost")
        .into_iter()
        .map(|(node, t)| format!("{node}:{t}"))
        .collect();
    rows.sort();
    let mut h = StableHasher::new();
    for row in &rows {
        h.write_str(row);
    }
    let stats = nt.stats();
    h.write_str(&format!("{:?}", stats.engine));
    h.write_str(&format!("{:?}", stats.network));
    h.write_str(&format!("{:?}", stats.provenance));
    h.write_str(&format!("{:?}", stats.provenance_traffic));
    h.write_u64(stats.stored_tuples as u64);
    h.write_u64(nt.provenance().content_digest());
    h.write_str(&format!("{:?}", nt.now()));
    h.finish()
}

#[test]
fn the_legal_values_give_the_default_platform() {
    let spelled_out = NetTrailsConfig {
        use_join_indexes: true,
        prov_shards: 1,
        fixpoint_workers: 1,
        fixpoint_dispatch_threshold: 64,
        columnar_storage: true,
        merge_query_frames: true,
        ..NetTrailsConfig::default()
    };
    assert_eq!(spelled_out, NetTrailsConfig::default());
    assert_eq!(replay_digest(spelled_out), DEFAULT_REPLAY_DIGEST);

    let engine = EngineConfig {
        use_join_indexes: true,
        fixpoint_workers: 1,
        fixpoint_dispatch_threshold: 64,
        columnar_storage: true,
        ..EngineConfig::new("n1")
    };
    assert_eq!(engine, EngineConfig::new("n1"));

    QueryExecutor::new().set_frame_merging(true);
}

/// `with_shards(nodes, 1)` is `new(nodes)`, before and after one engine's
/// firings, and reports no cross-shard exchange.
#[test]
fn one_shard_is_the_one_arena() {
    let program = Arc::new(CompiledProgram::from_source(protocols::mincost::PROGRAM).unwrap());
    let mut engine = NodeEngine::new(program, EngineConfig::new("n1"));
    for (to, cost) in [("n2", 1), ("n3", 4)] {
        let link = Tuple::new(
            "link",
            vec![Value::addr("n1"), Value::addr(to), Value::Int(cost)],
        );
        engine.insert_base(link).unwrap();
    }
    let firings = engine.run().firings;
    assert!(!firings.is_empty());
    let nodes = ["n1", "n2", "n3"];
    let mut fenced = ProvenanceSystem::with_shards(nodes, 1);
    let mut system = ProvenanceSystem::new(nodes);
    assert_eq!(fenced, system);
    fenced.apply_round(&firings);
    system.apply_round(&firings);
    assert_eq!(fenced, system);
    assert_eq!(fenced.content_digest(), system.content_digest());
    assert_eq!(fenced.shard_stats().cross_shard_records, 0);
}

fn refused(config: NetTrailsConfig) -> RuntimeError {
    NetTrails::new(protocols::mincost::PROGRAM, Topology::line(2), config)
        .expect_err("a fenced field off its legal value is refused")
}

#[test]
fn every_other_platform_value_is_refused_naming_its_field() {
    for value in [0, 2, 4, 64] {
        let config = NetTrailsConfig {
            prov_shards: value,
            ..NetTrailsConfig::default()
        };
        assert!(
            matches!(
                refused(config),
                RuntimeError::Config {
                    field: "prov_shards",
                    ..
                }
            ),
            "prov_shards: {value}"
        );
        let config = NetTrailsConfig {
            fixpoint_workers: value,
            ..NetTrailsConfig::default()
        };
        assert!(
            matches!(
                refused(config),
                RuntimeError::Config {
                    field: "fixpoint_workers",
                    ..
                }
            ),
            "fixpoint_workers: {value}"
        );
    }
    for value in [0, 1, 63, 65, usize::MAX] {
        let config = NetTrailsConfig {
            fixpoint_dispatch_threshold: value,
            ..NetTrailsConfig::default()
        };
        let e = refused(config);
        assert!(
            matches!(
                e,
                RuntimeError::Config {
                    field: "fixpoint_dispatch_threshold",
                    ..
                }
            ),
            "fixpoint_dispatch_threshold: {value}"
        );
        assert!(e.to_string().contains("fence"), "{e}");
    }
    let config = NetTrailsConfig {
        use_join_indexes: false,
        ..NetTrailsConfig::default()
    };
    let e = refused(config);
    assert!(
        matches!(
            e,
            RuntimeError::Config {
                field: "use_join_indexes",
                ..
            }
        ),
        "{e}"
    );
    assert!(e.to_string().contains("false is refused"), "{e}");
    let config = NetTrailsConfig {
        columnar_storage: false,
        ..NetTrailsConfig::default()
    };
    let e = refused(config);
    assert!(
        matches!(
            e,
            RuntimeError::Config {
                field: "columnar_storage",
                ..
            }
        ),
        "{e}"
    );
    assert!(e.to_string().contains("accepts only true"), "{e}");
    let config = NetTrailsConfig {
        merge_query_frames: false,
        ..NetTrailsConfig::default()
    };
    let e = refused(config);
    assert!(
        matches!(
            e,
            RuntimeError::Config {
                field: "merge_query_frames",
                ..
            }
        ),
        "{e}"
    );
    assert!(e.to_string().contains("false is refused"), "{e}");
}

fn engine_with(config: EngineConfig) -> NodeEngine {
    let program = Arc::new(CompiledProgram::from_source(protocols::mincost::PROGRAM).unwrap());
    NodeEngine::new(program, config)
}

#[test]
#[should_panic(
    expected = "config `fixpoint_workers`: 0 is refused: the field is a benchmark fence"
)]
fn an_engine_refuses_zero_workers() {
    engine_with(EngineConfig {
        fixpoint_workers: 0,
        ..EngineConfig::new("n1")
    });
}

#[test]
#[should_panic(
    expected = "config `fixpoint_workers`: 2 is refused: the field is a benchmark fence"
)]
fn an_engine_refuses_two_workers() {
    engine_with(EngineConfig {
        fixpoint_workers: 2,
        ..EngineConfig::new("n1")
    });
}

#[test]
#[should_panic(
    expected = "config `fixpoint_dispatch_threshold`: 0 is refused: the field is a benchmark fence"
)]
fn an_engine_refuses_another_dispatch_threshold() {
    engine_with(EngineConfig {
        fixpoint_dispatch_threshold: 0,
        ..EngineConfig::new("n1")
    });
}

#[test]
#[should_panic(
    expected = "config `use_join_indexes`: false is refused: the field is a benchmark fence"
)]
fn an_engine_refuses_scan_joins() {
    engine_with(EngineConfig {
        use_join_indexes: false,
        ..EngineConfig::new("n1")
    });
}

#[test]
#[should_panic(
    expected = "config `columnar_storage`: false is refused: the field is a benchmark fence"
)]
fn an_engine_refuses_row_storage() {
    engine_with(EngineConfig {
        columnar_storage: false,
        ..EngineConfig::new("n1")
    });
}

#[test]
#[should_panic(expected = "config `shards`: 0 is refused: the field is a benchmark fence")]
fn with_shards_refuses_zero() {
    ProvenanceSystem::with_shards(["n1"], 0);
}

#[test]
#[should_panic(expected = "config `shards`: 2 is refused: the field is a benchmark fence")]
fn with_shards_refuses_two() {
    ProvenanceSystem::with_shards(["n1"], 2);
}

#[test]
#[should_panic(
    expected = "config `frame_merging`: false is refused: the field is a benchmark fence"
)]
fn set_frame_merging_refuses_false() {
    QueryExecutor::new().set_frame_merging(false);
}

/// After a convergence plus churn nothing ran on a pool, no shard exchanged
/// a record, provenance shipped nothing of its own (a remote head's `prov`
/// entry arrived on its record), and no relation carries the outbox prefix.
#[test]
fn the_counters_read_zero_after_a_converge_and_churn() {
    let topology = Topology::ring(6);
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        topology,
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt.apply_topology_event(&TopologyEvent::LinkDown {
        a: "n1".into(),
        b: "n2".into(),
    });
    nt.apply_topology_event(&TopologyEvent::LinkUp(Link::new("n1", "n2", 1)));
    assert!(nt.stats().engine.rule_firings > 0);
    assert_eq!(nt_pool::jobs_executed(), 0);
    assert_eq!(nt_pool::workers(), 0);
    assert_eq!(nt.stats().provenance_sharding.cross_shard_records, 0);
    assert_eq!(nt.provenance().shard_stats().cross_shard_records, 0);
    assert_eq!(nt.stats().provenance_traffic, Default::default());
    assert_eq!(nt.provenance().maintenance_traffic(), &Default::default());
    assert!(nt.stats().provenance.prov_entries > 0);
    let engine = nt.engine("n1").unwrap();
    assert!(engine
        .database()
        .tables()
        .all(|t| !t.schema.name.starts_with(nt_runtime::engine::OUTBOX_PREFIX)));
}

/// A graph is its vertices and edges, and a snapshot's names travel in its
/// frame's name table: rebuilding the adjacency and stamping the dictionary,
/// which the benchmark's capture still asks for, leave a captured graph and
/// a capture equal, and their encoded bytes identical.
#[test]
fn rebuild_adjacency_leaves_a_captured_graph_as_it_was() {
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::ladder(3),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    let capture = nt.capture_snapshot();
    let captured = &capture.graph;
    assert!(!captured.edges.is_empty());
    let mut graph = captured.clone();
    graph.rebuild_adjacency();
    assert_eq!(&graph, captured);
    assert_eq!(codec::encode(&graph), codec::encode(captured));
    let mut snapshot = capture.clone();
    snapshot.stamp_dictionary();
    assert_eq!(snapshot, capture);
    assert_eq!(codec::encode(&snapshot), codec::encode(&capture));
}

/// A node snapshot reads its database alone: the benchmark's three-argument
/// capture, handed the platform's populated provenance or an empty system,
/// is the two-argument one.
#[test]
fn the_capture_shim_is_the_capture_of_the_database() {
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::ladder(3),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    assert!(nt.stats().provenance.prov_entries > 0);
    let empty = ProvenanceSystem::default();
    for node in nt.nodes() {
        let db = nt.engine(node.as_str()).unwrap().database();
        let of = logstore::NodeSnapshot::of(node.as_str(), db);
        assert!(of.tuple_count() > 0, "{node}");
        for provenance in [nt.provenance(), &empty] {
            let shim = logstore::NodeSnapshot::capture(node.as_str(), db, provenance);
            assert_eq!(shim, of, "{node}");
        }
    }
}
