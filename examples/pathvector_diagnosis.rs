//! Root-cause analysis with the path-vector protocol: fail a link, see which
//! best-path entries changed, and use provenance queries (with and without the
//! paper's optimizations) to explain the new state.
//!
//! ```text
//! cargo run --example pathvector_diagnosis
//! ```

use nettrails::{NetTrails, NetTrailsConfig};
use provenance::{QueryKind, QueryResult, TraversalOrder};
use simnet::{Topology, TopologyEvent};
use vis::render_proof_tree;

fn main() {
    let topology = Topology::random(8, 0.25, 3, 17);
    let mut nt = NetTrails::new(
        protocols::pathvector::PROGRAM,
        topology,
        NetTrailsConfig::default(),
    )
    .expect("path-vector compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();

    let before: Vec<_> = nt.relation("bestPathCost");
    println!("converged: {} bestPathCost entries", before.len());

    // Fail the n1-n2 link (if it exists; otherwise the first link we find).
    let (a, b) = nt
        .network()
        .topology()
        .link("n1", "n2")
        .map(|l| (l.from.clone(), l.to.clone()))
        .or_else(|| {
            nt.network()
                .topology()
                .links()
                .next()
                .map(|l| (l.from.clone(), l.to.clone()))
        })
        .expect("some link exists");
    println!("failing link {a} - {b}");
    let report = nt.apply_topology_event(&TopologyEvent::LinkDown {
        a: a.clone(),
        b: b.clone(),
    });
    let after: Vec<_> = nt.relation("bestPathCost");
    println!(
        "reconvergence touched {} tuples; bestPathCost entries: {} -> {}",
        report.tuples_touched(),
        before.len(),
        after.len()
    );

    // "Monitoring cascading effects": which entries changed?
    let changed: Vec<_> = after
        .iter()
        .filter(|(n, t)| {
            !before
                .iter()
                .any(|(n2, t2)| n2 == n && t2.values() == t.values())
        })
        .collect();
    println!(
        "{} best-path entries changed after the failure",
        changed.len()
    );

    // Explain one of them, comparing query optimizations.
    let Some((home, target)) = changed.first().map(|(n, t)| (*n, t.clone())) else {
        println!("nothing changed — the failed link was not on any best path");
        return;
    };
    println!("\n== explaining {target} (stored at {home}) ==");
    let (result, plain) = nt.query(&target).from_node(&home).run();
    if let QueryResult::Lineage(tree) = &result {
        print!("{}", render_proof_tree(tree));
    }

    let (_, pruned) = nt
        .query(&target)
        .from_node(&home)
        .max_derivations(1)
        .max_depth(4)
        .run();
    let cached = |nt: &mut nettrails::NetTrails| {
        nt.query(&target)
            .from_node(&home)
            .cached()
            .traversal(TraversalOrder::BreadthFirst)
            .run()
            .1
    };
    let first_cached = cached(&mut nt);
    let second_cached = cached(&mut nt);

    println!("\nquery cost (messages / measured ms):");
    println!(
        "  no optimization        : {} / {:.1}",
        plain.messages, plain.latency_ms
    );
    println!("  threshold pruning      : {}", pruned.messages);
    println!("  caching, first query   : {}", first_cached.messages);
    println!("  caching, repeat query  : {}", second_cached.messages);

    let (count, _) = nt
        .query(&target)
        .from_node(&home)
        .kind(QueryKind::DerivationCount)
        .run();
    if let QueryResult::DerivationCount(n) = count {
        println!("\nthe tuple has {n} alternative derivation(s)");
    }
}
