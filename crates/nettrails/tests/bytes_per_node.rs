//! What a node costs in heap bytes, counted — not sampled — by wrapping the
//! system allocator: live heap per node of a freshly built platform, live
//! heap per stored tuple at the fixpoint, and all of it back when the
//! platform is dropped. One test in its own binary, so the counts are one
//! thread's and repeat exactly; a ceiling that fails here names a structure
//! that grew on every node (`examples/bytes_per_node.rs` prints the same
//! phases at any size).
//!
//! Ceilings are the measured value + 10 %. At the parent of the change that
//! added this test the same run read 6,046 B per node and 2,251 B per tuple.

use nettrails::{NetTrails, NetTrailsConfig};
use simnet::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE_BYTES.fetch_add(new_size, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NODES: usize = 400;

/// Live heap per node right after `NetTrails::new`: measured 3,249.
const NEW_BYTES_PER_NODE: usize = 3_574;
/// Live heap per stored tuple at the fixpoint: measured 1,362.
const FIXPOINT_BYTES_PER_TUPLE: usize = 1_498;

/// Build the platform, seed it, converge it. Returns the platform and the
/// live heap it held right after `new`.
fn converge(topology: &Topology, program: &str) -> (NetTrails, usize) {
    let before = LIVE_BYTES.load(Relaxed);
    let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default())
        .expect("the anchored path-vector program compiles");
    let after_new = LIVE_BYTES.load(Relaxed) - before;
    nt.seed_links_from_topology();
    let connected: Vec<&str> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .collect();
    for anchor in connected.iter().step_by(connected.len() / 8) {
        nt.insert_fact(anchor, scenario::programs::anchor_tuple(anchor));
    }
    nt.run_to_fixpoint();
    (nt, after_new)
}

#[test]
fn heap_per_node_and_per_tuple_stay_under_their_ceilings() {
    let topology = Topology::internet_as(NODES, 2, 2011);
    let program = scenario::programs::anchored_pathvector(3);

    // The intern pool is process-wide and append-only: one throw-away run
    // puts every name of this network in it, so what the measured run leaves
    // behind is the platform's and nothing else's.
    drop(converge(&topology, &program));

    let baseline = LIVE_BYTES.load(Relaxed);
    let (nt, after_new) = converge(&topology, &program);
    let at_fixpoint = LIVE_BYTES.load(Relaxed) - baseline;
    let tuples = nt.stats().stored_tuples;
    drop(nt);
    let after_drop = LIVE_BYTES.load(Relaxed).abs_diff(baseline);

    println!(
        "{NODES} nodes: {} B/node after new, {tuples} tuples, {} B/tuple at the fixpoint \
         ({at_fixpoint} B live), {after_drop} B off the baseline after drop",
        after_new / NODES,
        at_fixpoint / tuples
    );
    assert!(tuples > 5_000, "the network converged to {tuples} tuples");
    assert!(
        after_new / NODES <= NEW_BYTES_PER_NODE,
        "an empty node costs {} B, over the {NEW_BYTES_PER_NODE} B ceiling",
        after_new / NODES
    );
    assert!(
        at_fixpoint / tuples <= FIXPOINT_BYTES_PER_TUPLE,
        "a stored tuple costs {} B, over the {FIXPOINT_BYTES_PER_TUPLE} B ceiling",
        at_fixpoint / tuples
    );
    assert!(
        after_drop <= at_fixpoint / 100,
        "dropping the platform left {after_drop} B of {at_fixpoint} B behind"
    );
}
