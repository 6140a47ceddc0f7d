//! Memory linear in the network: the live heap per stored tuple at the
//! fixpoint of an 8,000-node network stays within 10 % of a 500-node one's,
//! counted — not sampled — by wrapping the system allocator. Both run the
//! anchored path-vector program over `Topology::internet_as(n, 2, 2011)`
//! with `ntbench`'s eight anchors, as `examples/bytes_per_node.rs` does; one
//! test in its own binary, so the counts repeat exactly.
//!
//! A structure that every node or link holds and that grows with the
//! network fails it. The one it was written against is the sender's memory
//! of the names each destination has been sent (`nt_runtime::Dictionary`):
//! while it was a bitmap up to the highest name sent, a destination sent one
//! late-minted name held a bit for every name minted before it, and the run
//! read 1,142 B per tuple at 500 nodes and 1,336 B at 8,000 (+17 %). As a
//! sorted handle list until the bitmap is smaller it reads 972 and 1,027 B
//! (+5.7 %).
//!
//! The larger network runs first. Its topology mints every node name the
//! smaller one uses and the program's names come after them, the order a
//! single `ntbench` process interns them in.

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

const SMALL: usize = 500;
const LARGE: usize = 8_000;

/// `count` distinct connected nodes drawn the way `ntbench` draws its
/// anchors (SplitMix64, stream 1 of the network seed), as
/// `examples/bytes_per_node.rs` does: `converge_as` is the 2,000-node rung.
fn pick_anchors(topology: &Topology, count: usize) -> Vec<String> {
    let names: Vec<&str> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .collect();
    let mut state = 2011u64 ^ 0x9e37_79b9_7f4a_7c15;
    let mut picked: Vec<String> = Vec::new();
    while picked.len() < count.min(names.len()) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let candidate = names[((z ^ (z >> 31)) % names.len() as u64) as usize];
        if !picked.iter().any(|p| p == candidate) {
            picked.push(candidate.to_string());
        }
    }
    picked
}

/// Live heap per stored tuple at the fixpoint of an `n`-node network: what
/// the platform holds from `NetTrails::new` on, over the tuples it stores.
fn bytes_per_tuple(topology: &Topology, program: &str) -> (usize, usize) {
    let baseline = LIVE_BYTES.load(Relaxed);
    let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default())
        .expect("the anchored path-vector program compiles");
    nt.seed_links_from_topology();
    for anchor in pick_anchors(topology, 8) {
        nt.insert_fact(&anchor, scenario::programs::anchor_tuple(&anchor));
    }
    let report = nt.run_to_fixpoint();
    assert!(!report.truncated, "the network converged");
    let live = LIVE_BYTES.load(Relaxed) - baseline;
    let tuples = nt.stats().stored_tuples;
    (live / tuples, tuples)
}

#[test]
fn heap_per_stored_tuple_is_flat_from_500_to_8000_nodes() {
    let program = scenario::programs::anchored_pathvector(3);
    let large = Topology::internet_as(LARGE, 2, 2011);
    let (large_bytes, large_tuples) = bytes_per_tuple(&large, &program);
    let small = Topology::internet_as(SMALL, 2, 2011);
    let (small_bytes, small_tuples) = bytes_per_tuple(&small, &program);
    println!(
        "{SMALL} nodes: {small_bytes} B/tuple ({small_tuples} tuples); \
         {LARGE} nodes: {large_bytes} B/tuple ({large_tuples} tuples)"
    );
    assert!(
        large_bytes * 10 <= small_bytes * 11,
        "a stored tuple costs {large_bytes} B at {LARGE} nodes, over 110 % of \
         the {small_bytes} B it costs at {SMALL}"
    );
}
