//! What a node costs in heap bytes, counted — not sampled — by wrapping the
//! system allocator: live heap per node of a freshly built platform, live
//! blocks once it is seeded, the allocations convergence makes per stored
//! tuple, live heap per stored tuple at the fixpoint, and all of it back when
//! the platform is dropped. One test in its own binary, so the counts are one
//! thread's and repeat exactly; a ceiling that fails here names a structure
//! that grew on every node (`examples/bytes_per_node.rs` prints the same
//! phases at any size).
//!
//! Ceilings are the measured value + ≈10 %; the allocation count and the
//! live heap at the fixpoint are exact.
//! At the parent of the change that added this test the same run read
//! 6,046 B per node and 2,251 B per tuple. Before tuples, lists, input lists
//! and dictionary headers were shared handles (PR 25) it read 3,204 B per
//! node, 7,114 blocks after seeding, 335,214 allocations from seeding to the
//! fixpoint (34.8 per stored tuple) and 1,322 B per tuple. Before a
//! provenance vertex held its own tuple and firings named their inputs by
//! id, it read 2,964 B per node, 203,000 allocations (21.1 per stored tuple)
//! and 1,072 B per tuple. Before the dependency index kept only what its own
//! cascade retracts, it read 7,109 blocks after seeding, 188,460 allocations
//! (19.6 per stored tuple) and 1,016 B per tuple.

use nettrails::{NetTrails, NetTrailsConfig};
use simnet::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set by the test on its own thread for the allocation count: the
    /// harness's main thread allocates now and then while it waits.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// statistics and publish no other data, and the thread-local they read is
// const-initialized and has no destructor, so reading it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
            LIVE_BLOCKS.fetch_add(1, Relaxed);
            count_allocation();
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE_BYTES.fetch_add(new_size, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
            count_allocation();
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NODES: usize = 400;

/// Live heap per node right after `NetTrails::new`: measured 2,887
/// (2,863 before each engine kept the matched-id scratch of
/// its joins beside its frame, one empty vector; 120 B more while the
/// provenance stores sat in a
/// one-element shard vector); 2,964 while each empty provenance store also
/// carried a content map and two free lists, 3,202 while every map carried
/// std's 16-byte `RandomState`.
const NEW_BYTES_PER_NODE: usize = 3_148;
/// Live blocks once every base fact is queued: measured 7,109, and the
/// ceiling. 7,110 while the provenance stores sat in a one-element shard
/// vector; 7,109 before the compiled program carried its set of monotonic
/// rules — one block per program, not per node. An empty input list built as
/// `Vec::new().into()` allocates — one block per base derivation — where
/// `Arc::default()` shares one.
const SEEDED_BLOCKS: usize = 7_109;
/// Allocations from seeding to the fixpoint, exactly: 18.0 per stored tuple
/// (9,627 tuples). 173,641 while a remote head's firing was reported by the
/// run that derived it and each run's firing list grew from empty; a run
/// now reserves a firing for every record and fact it starts with, since
/// each reports one as it applies (174,092 without the reservation). The
/// sorted-list form of the names a destination was sent allocates no more
/// than the bitmap did: at this size every one starts as the bitmap.
/// 182,580 while each engine generation planned its
/// triggers into an op list, a range list and a task list, evaluated every
/// monotonic task into a buffered result list before replaying its events,
/// and kept each join's matched atoms in a list per generation; a trigger
/// now joins where its event replays, into the engine's scratch.
/// 182,585 while each provenance round collected its firings
/// into a vector of references first, one allocation per round that applied
/// any. 188,460 while the dependency index also held the inputs
/// of derivations received from other nodes and of aggregate and negation
/// derivations, which no cascade of this node retracts: 5,875 fewer now.
/// 203,000 when the join kernel rebuilt every stored input out of its
/// columns to hand the firing a copy.
const CONVERGE_ALLOCATIONS: usize = 173_608;
/// Live heap at the fixpoint, exactly: 9,255,389 B. 9,269,213 while the
/// names a destination was sent were always a bitmap grown by doubling; a
/// bitmap is now built at its size when a sorted list of the handles would
/// no longer be smaller.
const FIXPOINT_LIVE_BYTES: usize = 9_255_389;
/// Live heap per stored tuple at the fixpoint: measured 961 (962 while the
/// names sent were a doubling bitmap, 961 before the
/// engines' matched-id scratch, 24 B per engine); 1,016 while the
/// dependency index held what no cascade of this node retracts, 1,072 while
/// provenance stores kept a content map beside their vertices, 1,085 under
/// `RandomState`.
const FIXPOINT_BYTES_PER_TUPLE: usize = 1_057;

/// What one convergence costs, by phase.
struct Phases {
    /// Live heap right after `new`.
    after_new: usize,
    /// Live blocks once seeded, off the baseline the run started from.
    seeded_blocks: usize,
    /// Allocations from seeding to the fixpoint (this thread's).
    converge_allocations: usize,
}

/// Build the platform, seed it, converge it.
fn converge(topology: &Topology, program: &str) -> (NetTrails, Phases) {
    let (bytes, blocks) = (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed));
    let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default())
        .expect("the anchored path-vector program compiles");
    let after_new = LIVE_BYTES.load(Relaxed) - bytes;
    let allocations = ALLOCATIONS.load(Relaxed);
    MEASURED.set(true);
    nt.seed_links_from_topology();
    let connected: Vec<&str> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .collect();
    for anchor in connected.iter().step_by(connected.len() / 8) {
        nt.insert_fact(anchor, scenario::programs::anchor_tuple(anchor));
    }
    let seeded_blocks = LIVE_BLOCKS.load(Relaxed) - blocks;
    nt.run_to_fixpoint();
    MEASURED.set(false);
    let phases = Phases {
        after_new,
        seeded_blocks,
        converge_allocations: ALLOCATIONS.load(Relaxed) - allocations,
    };
    (nt, phases)
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
    let (nt, phases) = converge(&topology, &program);
    let at_fixpoint = LIVE_BYTES.load(Relaxed) - baseline;
    let tuples = nt.stats().stored_tuples;
    drop(nt);
    let after_drop = LIVE_BYTES.load(Relaxed).abs_diff(baseline);

    println!(
        "{NODES} nodes: {} B/node after new, {} blocks seeded, {} allocations to the \
         fixpoint ({} per tuple), {tuples} tuples, {} B/tuple at the fixpoint \
         ({at_fixpoint} B live), {after_drop} B off the baseline after drop",
        phases.after_new / NODES,
        phases.seeded_blocks,
        phases.converge_allocations,
        phases.converge_allocations / tuples,
        at_fixpoint / tuples
    );
    assert!(tuples > 5_000, "the network converged to {tuples} tuples");
    assert!(
        phases.after_new / NODES <= NEW_BYTES_PER_NODE,
        "an empty node costs {} B, over the {NEW_BYTES_PER_NODE} B ceiling",
        phases.after_new / NODES
    );
    assert!(
        phases.seeded_blocks <= SEEDED_BLOCKS,
        "seeding left {} blocks live, over the {SEEDED_BLOCKS} ceiling",
        phases.seeded_blocks
    );
    assert_eq!(
        phases.converge_allocations, CONVERGE_ALLOCATIONS,
        "allocations from seeding to the fixpoint ({tuples} tuples)"
    );
    assert_eq!(
        at_fixpoint, FIXPOINT_LIVE_BYTES,
        "live heap at the fixpoint ({tuples} tuples)"
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
