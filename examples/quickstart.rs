//! Quickstart: run MINCOST on a three-node network, then ask NetTrails where a
//! tuple came from.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use nettrails::{NetTrails, NetTrailsConfig};
use provenance::{QueryKind, QueryResult};
use simnet::Topology;
use vis::{provenance_to_dot, render_proof_tree};

fn main() {
    // 1. A three-node line topology: n1 - n2 - n3 (unit link costs).
    let topology = Topology::line(3);

    // 2. Build the platform from the MINCOST NDlog program and seed the links.
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        topology,
        NetTrailsConfig::default(),
    )
    .expect("MINCOST compiles");
    nt.seed_links_from_topology();

    // 3. Run the distributed computation to a fixpoint.
    let report = nt.run_to_fixpoint();
    println!("== MINCOST on a 3-node line ==");
    println!(
        "converged after {} rounds, {} deliveries, {} tuple insertions",
        report.rounds, report.deliveries, report.insertions
    );
    for (node, tuple) in nt.relation("minCost") {
        println!("  {node}: {tuple}");
    }

    // 4. Ask for the provenance of minCost(n1, n3, 2).
    let (_, target) = nt
        .find_tuple("minCost", |t| {
            t.values()[0].as_addr() == Some("n1") && t.values()[1].as_addr() == Some("n3")
        })
        .expect("minCost(n1,n3) exists");

    let (result, stats) = nt
        .query(&target)
        .from_node("n3")
        .kind(QueryKind::Lineage)
        .run();
    let QueryResult::Lineage(tree) = result else {
        unreachable!()
    };
    println!("\n== lineage of {target} ==");
    print!("{}", render_proof_tree(&tree));
    println!(
        "(distributed query: {} messages, {} vertices visited)",
        stats.messages, stats.vertices_visited
    );

    // 5. The same provenance graph, ready for Graphviz.
    let dot = provenance_to_dot(&nt.provenance_graph());
    println!(
        "\nprovenance graph: {} lines of DOT (pipe into `dot -Tsvg`)",
        dot.lines().count()
    );

    // 6. Aggregate platform statistics (Figure 1's components at a glance).
    let stats = nt.stats();
    println!(
        "\nplatform: {} stored tuples, {} prov entries, {} ruleExecs, {} protocol messages",
        stats.stored_tuples,
        stats.provenance.prov_entries,
        stats.provenance.rule_execs,
        stats.network.messages
    );
}
