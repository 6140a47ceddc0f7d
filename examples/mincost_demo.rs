//! The Figure 2 / Figure 3 scenario: MINCOST on a ladder topology, periodic
//! snapshots into the central Log Store, interactive-style exploration of the
//! provenance hypertree, and replay after a topology change.
//!
//! ```text
//! cargo run --example mincost_demo
//! ```

use logstore::{LogStore, Replay};
use nettrails::{NetTrails, NetTrailsConfig};
use provenance::{QueryKind, QueryResult};
use simnet::{Topology, TopologyEvent};
use vis::{focus_on, render_topology_summary, HypertreeLayout};

fn main() {
    let topology = Topology::ladder(4); // 2x4 grid: several alternative paths.
    println!("{}", render_topology_summary(&topology));

    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        topology,
        NetTrailsConfig::default(),
    )
    .expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();

    let mut log_store = LogStore::new();
    log_store.add(nt.capture_snapshot());

    // Screenshot (a): the system-wide snapshot at time T.
    let graph = nt.provenance_graph();
    println!(
        "snapshot at {}: {} tuple vertices, {} rule executions, partitioned as {:?}",
        nt.now(),
        graph.tuple_vertex_count(),
        graph.rule_exec_count(),
        graph.vertices_per_node()
    );

    // Screenshot (b)/(c): select a table, then a tuple, and look at it.
    let (home, target) = nt
        .find_tuple("minCost", |t| {
            t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n8")
        })
        .expect("minCost(n1,n8) derived");
    println!("\nfocusing on {target} stored at {home}");
    let (result, _) = nt
        .query(&target)
        .from_node(&home)
        .kind(QueryKind::Lineage)
        .run();
    let QueryResult::Lineage(tree) = result else {
        unreachable!()
    };
    let layout = HypertreeLayout::of_proof_tree(&tree);
    println!(
        "hypertree layout: {} vertices, max radius {:.3} (all inside the unit disk)",
        layout.len(),
        layout.max_norm()
    );
    // Clicking a vertex re-centres the view (a Mobius translation).
    if let Some(vertex) = layout.vertices.values().nth(2) {
        let refocused = focus_on(&layout, vertex.position);
        println!(
            "refocused on '{}' -> it now sits at radius {:.4}",
            vertex.label,
            refocused
                .vertices
                .values()
                .find(|v| v.label == vertex.label)
                .map(|v| v.position.norm())
                .unwrap_or(f64::NAN)
        );
    }

    // A topology change: fail one rung of the ladder and watch the system
    // recompute incrementally.
    let report = nt.apply_topology_event(&TopologyEvent::LinkDown {
        a: "n2".into(),
        b: "n6".into(),
    });
    println!(
        "\nlink n2-n6 failed: {} tuples touched, {} deliveries during reconvergence",
        report.tuples_touched(),
        report.deliveries
    );
    log_store.add(nt.capture_snapshot());

    // Replay the stored snapshots the way the visualizer would.
    let mut replay = Replay::new(&log_store);
    while let Some(diff) = replay.step() {
        println!(
            "replay {} -> {}: +{} tuples, -{} tuples, -{} links",
            diff.from,
            diff.to,
            diff.appeared.len(),
            diff.disappeared.len(),
            diff.links_removed.len()
        );
    }
    println!(
        "log store holds {} snapshots ({} bytes uploaded to the visualization node)",
        log_store.len(),
        log_store.uploaded_bytes()
    );
}
