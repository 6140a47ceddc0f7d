//! Integration tests for the log store, replay and the visualizer backend.

use logstore::{
    LogStore, Replay, SegmentFileBackend, SnapshotCapturer, SnapshotDiff, SystemSnapshot,
};
use nettrails::{NetTrails, NetTrailsConfig};
use provenance::{QueryKind, QueryResult};
use simnet::{Topology, TopologyEvent};
use vis::{
    provenance_to_dot, render_proof_tree, render_replay_timeline, topology_to_dot, HypertreeLayout,
};

fn snapshot(nt: &NetTrails) -> SystemSnapshot {
    nt.capture_snapshot()
}

fn platform() -> NetTrails {
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::ladder(3),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt
}

#[test]
fn snapshots_capture_the_live_state_faithfully() {
    let nt = platform();
    let snap = snapshot(&nt);
    // The snapshot's view of minCost equals the live platform's view.
    let mut live: Vec<String> = nt
        .relation("minCost")
        .into_iter()
        .map(|(n, t)| format!("{n}:{t}"))
        .collect();
    live.sort();
    let snap_rows: Vec<String> = snap
        .relation("minCost")
        .into_iter()
        .map(|(n, t)| format!("{n}:{t}"))
        .collect();
    assert_eq!(live, snap_rows);
    assert!(snap.tuple_count() > 0);
    assert!(snap.graph.is_acyclic());
}

/// A node's capture reads its database alone: the same converged network
/// with and without provenance maintenance captures the same nodes.
#[test]
fn a_node_capture_does_not_depend_on_provenance() {
    let capture = |config: NetTrailsConfig| {
        let mut nt =
            NetTrails::new(protocols::mincost::PROGRAM, Topology::ladder(3), config).unwrap();
        nt.seed_links_from_topology();
        nt.run_to_fixpoint();
        nt.capture_snapshot()
    };
    let with = capture(NetTrailsConfig::default());
    let without = capture(NetTrailsConfig::without_provenance());
    assert!(!with.graph.vertices.is_empty());
    assert!(without.graph.vertices.is_empty());
    assert!(with.tuple_count() > 0);
    assert_eq!(with.nodes, without.nodes);
}

#[test]
fn replay_diffs_reflect_the_topology_change() {
    let mut nt = platform();
    let mut store = LogStore::new();
    store.add(snapshot(&nt));
    nt.apply_topology_event(&TopologyEvent::LinkDown {
        a: "n1".into(),
        b: "n2".into(),
    });
    store.add(snapshot(&nt));

    let mut replay = Replay::new(&store);
    let diff: SnapshotDiff = replay.step().expect("one step");
    assert!(diff.links_removed.contains(&("n1".into(), "n2".into())));
    assert!(
        !diff.appeared.is_empty() || !diff.disappeared.is_empty(),
        "protocol state changed with the topology"
    );
    assert!(replay.step().is_none());
}

#[test]
fn visualizer_exports_are_well_formed_for_real_provenance() {
    let mut nt = platform();
    let graph = nt.provenance_graph();
    let dot = provenance_to_dot(&graph);
    assert!(dot.starts_with("digraph"));
    assert!(dot.matches("->").count() >= graph.edges.len());
    let topo_dot = topology_to_dot(nt.network().topology());
    assert!(topo_dot.contains("n1"));

    let (node, target) = nt.relation("minCost").into_iter().next_back().unwrap();
    let (result, _) = nt
        .query(&target)
        .from_node(&node)
        .kind(QueryKind::Lineage)
        .run();
    let QueryResult::Lineage(tree) = result else {
        panic!()
    };
    let text = render_proof_tree(&tree);
    assert!(text.contains("minCost"));
    assert!(text.contains("[base]"));

    let layout = HypertreeLayout::of_proof_tree(&tree);
    assert_eq!(
        layout.vertices.values().filter(|v| v.is_tuple).count()
            + layout.vertices.values().filter(|v| !v.is_tuple).count(),
        layout.len()
    );
    assert!(layout.max_norm() < 1.0);
}

#[test]
fn incremental_chain_replays_and_renders_through_a_kv_backend() {
    let mut nt = platform();
    let mut full = LogStore::new();
    let dir = std::env::temp_dir().join(format!("ntl-integration-seg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = SegmentFileBackend::open(&dir).expect("segment dir opens");
    let mut store = LogStore::with_backend(Box::new(backend));
    let mut capturer = SnapshotCapturer::new(3);
    let events = [
        TopologyEvent::LinkDown {
            a: "n1".into(),
            b: "n2".into(),
        },
        TopologyEvent::LinkDown {
            a: "n2".into(),
            b: "n5".into(),
        },
        TopologyEvent::LinkUp(simnet::Link::new("n1", "n2", 2)),
    ];
    let snap = snapshot(&nt);
    full.add(snap.clone());
    store.append_record(capturer.capture(snap));
    for event in &events {
        nt.apply_topology_event(event);
        let snap = snapshot(&nt);
        full.add(snap.clone());
        store.append_record(capturer.capture(snap));
    }

    assert_eq!(store.backend_name(), "segment_file");
    assert_eq!(store.checkpoint_count(), 2);
    assert_eq!(store.delta_count(), 2);
    assert_eq!(
        store.snapshots(),
        full.snapshots(),
        "delta chains materialize exactly what full uploads stored"
    );
    assert!(
        store.uploaded_bytes() < full.uploaded_bytes(),
        "deltas upload less than full snapshots ({} vs {})",
        store.uploaded_bytes(),
        full.uploaded_bytes()
    );

    // The replay walk over the incremental chain sees the same link churn
    // the full chain records.
    let mut replay = Replay::new(&store);
    let mut removed = Vec::new();
    while let Some(diff) = replay.step() {
        removed.extend(diff.links_removed);
    }
    assert!(removed.contains(&("n1".into(), "n2".into())));
    assert!(removed.contains(&("n2".into(), "n5".into())));

    // The timeline renderer reads the store through `LogStore::records` only.
    let timeline = render_replay_timeline(&store);
    assert!(timeline.contains("[segment_file]"));
    assert!(timeline.contains("4 records (2 checkpoints, 2 deltas)"));
    std::fs::remove_dir_all(&dir).expect("segment dir removed");
}
