//! What both orders of the heap ladder share: a counting allocator, the
//! benchmark's anchors and one convergence measured. Each order is its own
//! test binary, because the intern pool is per process: the order the
//! networks run in is the order their names are minted in.

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

pub const SMALL: usize = 500;
pub const LARGE: usize = 8_000;

/// Live heap per stored tuple at the 8,000-node fixpoint, in either order:
/// measured 906 (90,821,915 B with the large network first, 90,821,850 B
/// with it second).
pub const LARGE_BYTES_PER_TUPLE: usize = 906;

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

/// One rung: the live heap at the fixpoint of the anchored path-vector
/// program over `Topology::internet_as(nodes, 2, 2011)` with `ntbench`'s
/// eight anchors — what the platform holds from `NetTrails::new` on — and
/// the tuples it stores.
pub struct Rung {
    pub live: usize,
    pub tuples: usize,
}

impl Rung {
    pub fn converge(nodes: usize) -> Rung {
        let program = scenario::programs::anchored_pathvector(3);
        let topology = Topology::internet_as(nodes, 2, 2011);
        let baseline = LIVE_BYTES.load(Relaxed);
        let mut nt = NetTrails::new(&program, topology.clone(), NetTrailsConfig::default())
            .expect("the anchored path-vector program compiles");
        nt.seed_links_from_topology();
        for anchor in pick_anchors(&topology, 8) {
            nt.insert_fact(&anchor, scenario::programs::anchor_tuple(&anchor));
        }
        let report = nt.run_to_fixpoint();
        assert!(!report.truncated, "the network converged");
        Rung {
            live: LIVE_BYTES.load(Relaxed) - baseline,
            tuples: nt.stats().stored_tuples,
        }
    }

    pub fn bytes_per_tuple(&self) -> usize {
        self.live / self.tuples
    }
}

/// Print both rungs and hold the ladder flat: the larger network's heap per
/// tuple within 110 % of the smaller one's, and at its pinned value.
pub fn check(small: &Rung, large: &Rung) {
    println!(
        "{SMALL} nodes: {} B/tuple ({} tuples, {} B); {LARGE} nodes: {} B/tuple ({} tuples, {} B)",
        small.bytes_per_tuple(),
        small.tuples,
        small.live,
        large.bytes_per_tuple(),
        large.tuples,
        large.live
    );
    assert!(
        large.bytes_per_tuple() * 10 <= small.bytes_per_tuple() * 11,
        "a stored tuple costs {} B at {LARGE} nodes, over 110 % of the {} B it costs at {SMALL}",
        large.bytes_per_tuple(),
        small.bytes_per_tuple()
    );
    assert_eq!(
        large.bytes_per_tuple(),
        LARGE_BYTES_PER_TUPLE,
        "live heap per stored tuple at {LARGE} nodes ({} tuples)",
        large.tuples
    );
}
