//! What a node costs in heap bytes, counted — not sampled — by wrapping the
//! system allocator: live heap per node of a freshly built platform, live
//! blocks once it is seeded, the allocations convergence makes per stored
//! tuple, live heap per stored tuple at the fixpoint, who holds it
//! (`NetTrails::heap_census`, at the fixpoint and after a seeded batch of
//! link flaps), and all of it back when the platform is dropped. One test in
//! its own binary, so the counts are one thread's and repeat exactly; a
//! ceiling that fails here names a structure that grew on every node
//! (`examples/bytes_per_node.rs` prints the same phases and the census at
//! any size).
//!
//! Ceilings are the measured value + ≈10 %; the allocation count, the live
//! heap at the fixpoint and the census rows there are exact.
//!
//! **The census against the allocator.** The census reads its rows off the
//! structures; the allocator counts every block. What the census does not
//! read — the compiled program, the topology's B-tree nodes, the query
//! plane, the platform's own strings — `new` allocates and nothing later
//! grows, so the allocator's count less the census's is the same at the
//! fixpoint and after the flaps as right after `new`, within
//! [`UNREAD_GROWTH_BLOCKS`] blocks and [`UNREAD_GROWTH_PERMILLE`] ‰ of the
//! live bytes: a hash table that removals left tombstones in reads smaller
//! than it is (`nt_runtime::heap::Heap::map`), and the traffic counters'
//! per-category B-tree is not read. After the flaps, which hash table keeps
//! how many tombstones depends on the per-process hash key, so the blocks
//! per row are exact there and the bytes are held to the allocator only.
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
use nt_runtime::{Census, Heap};
use simnet::{Link, Topology, TopologyEvent};
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

/// Live heap per node right after `NetTrails::new`: measured 2,599; 2,743
/// while each of a node's six tables kept its relation, schema and probed
/// columns beside the program's spec; 2,887
/// while each of a node's six tables carried a validity bitmap's vector
/// (2,863 before each engine kept the matched-id scratch of
/// its joins beside its frame, one empty vector; 120 B more while the
/// provenance stores sat in a
/// one-element shard vector); 2,964 while each empty provenance store also
/// carried a content map and two free lists, 3,202 while every map carried
/// std's 16-byte `RandomState`.
const NEW_BYTES_PER_NODE: usize = 2_859;
/// Live blocks once every base fact is queued: measured 7,109, and the
/// ceiling. 7,110 while the provenance stores sat in a one-element shard
/// vector; 7,109 before the compiled program carried its set of monotonic
/// rules — one block per program, not per node. An empty input list built as
/// `Vec::new().into()` allocates — one block per base derivation — where
/// `Arc::default()` shares one.
const SEEDED_BLOCKS: usize = 7_109;
/// Allocations from seeding to the fixpoint, exactly: 15.3 per stored tuple
/// (9,627 tuples). A run reserves a firing for every record and fact it
/// starts with, since each reports one as it applies, a list's second
/// element spills it into one block with room for two, and a probe that
/// binds only its anchor column builds no filter of the others.
const CONVERGE_ALLOCATIONS: usize = 147_633;
/// Live heap at the fixpoint, exactly: 8,160,805 B.
const FIXPOINT_LIVE_BYTES: usize = 8_160_805;
/// Live heap per stored tuple at the fixpoint: measured 847, and this
/// ceiling.
const FIXPOINT_BYTES_PER_TUPLE: usize = 955;

/// The census at the fixpoint, row by row: (owner, live blocks, requested
/// bytes), exactly. Ranked, the owners are the outbox, the provenance
/// vertices, the engine shells, the table columns, the derivation lists,
/// the aggregate state, the provenance indexes, the dependency index, the
/// posting lists, the provenance executions, the tuple-id maps, the
/// network, the home index and the dictionaries.
const FIXPOINT_CENSUS: [(&str, usize, usize); 18] = [
    ("table.ids", 1_986, 110_112),
    ("table.derivations", 6_899, 572_048),
    ("table.columns", 10_036, 715_032),
    ("table.key_index", 1_986, 55_056),
    ("table.by_id", 1_986, 300_784),
    ("table.postings", 4_749, 381_100),
    ("table.slots", 23, 368),
    ("engine.shell", 806, 641_120),
    ("engine.outbox", 11_447, 1_619_064),
    ("engine.dependents", 3_050, 352_120),
    ("engine.agg_state", 3_605, 440_696),
    ("engine.dict_sent", 1_994, 205_216),
    ("prov.vertices", 2_002, 1_011_696),
    ("prov.execs", 400, 358_784),
    ("prov.indexes", 800, 484_584),
    ("prov.homes", 1, 278_544),
    ("prov.shell", 2, 70_160),
    ("network", 3_591, 282_074),
];
/// Live blocks per census row after the flaps, in the rows' order: every
/// row as at the fixpoint but the tables' free lists, which keep the slots
/// the flaps freed (2,720 blocks while each table also kept a validity
/// bitmap).
const FLAPPED_BLOCKS: [usize; 18] = [
    1_986, 6_899, 10_036, 1_986, 1_986, 4_749, 734, 806, 11_447, 3_050, 3_605, 1_994, 2_002, 400,
    800, 1, 2, 3_591,
];
/// How far the allocator's count less the census's may move from what it
/// was right after `new` (710 blocks, 281,943 B): measured 1 block and 368 B
/// at the fixpoint, 2 blocks and 944 B after the flaps.
const UNREAD_GROWTH_BLOCKS: usize = 4;
const UNREAD_GROWTH_PERMILLE: usize = 1;
/// Links taken down and brought back up, one at a time, each to the
/// fixpoint, drawn from the undirected links by SplitMix64 from this seed.
const FLAPS: usize = 40;
const FLAP_SEED: u64 = 12;

/// What one convergence costs, by phase.
struct Phases {
    /// Live heap right after `new`.
    after_new: usize,
    /// What the census does not read, right after `new`: the allocator's
    /// live count since the run started less the census total.
    unread: Heap,
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
    let unread = unread(&nt, Heap { blocks, bytes });
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
        unread,
        seeded_blocks,
        converge_allocations: ALLOCATIONS.load(Relaxed) - allocations,
    };
    (nt, phases)
}

fn live() -> Heap {
    Heap {
        blocks: LIVE_BLOCKS.load(Relaxed),
        bytes: LIVE_BYTES.load(Relaxed),
    }
}

/// The platform's census, and what the allocator counts since `base` that
/// it does not read. The census is taken after the count, so its own
/// blocks are not in it.
fn census(nt: &NetTrails, base: Heap) -> (Census, Heap) {
    let now = live();
    let census = nt.heap_census();
    let total = census.total();
    let unread = Heap {
        blocks: now.blocks - base.blocks - total.blocks,
        bytes: now.bytes - base.bytes - total.bytes,
    };
    (census, unread)
}

fn unread(nt: &NetTrails, base: Heap) -> Heap {
    census(nt, base).1
}

/// The census beside the allocator's count, one line per row.
fn print_census(phase: &str, census: &Census, unread: Heap) {
    for (owner, heap) in census.rows() {
        println!(
            "{phase:<8} {owner:<18} {:>7} blocks {:>10} B",
            heap.blocks, heap.bytes
        );
    }
    let total = census.total();
    println!(
        "{phase:<8} {:<18} {:>7} blocks {:>10} B (not read: {} blocks, {} B)",
        "census", total.blocks, total.bytes, unread.blocks, unread.bytes
    );
}

/// Hold what the census does not read to what it was after `new`, with
/// `live` bytes live.
fn holds_unread(phase: &str, unread: Heap, after_new: Heap, live: usize) {
    let (blocks, bytes) = (
        unread.blocks.abs_diff(after_new.blocks),
        unread.bytes.abs_diff(after_new.bytes),
    );
    let misses =
        format!("{phase}: the census misses {blocks} blocks and {bytes} B more than after new");
    println!("{misses}");
    assert!(
        blocks <= UNREAD_GROWTH_BLOCKS && bytes * 1000 <= live * UNREAD_GROWTH_PERMILLE,
        "{misses}"
    );
}

/// `FLAPS` undirected links, drawn with replacement.
fn flap_links(topology: &Topology) -> Vec<Link> {
    let links: Vec<&Link> = topology.links().filter(|l| l.from < l.to).collect();
    let mut state = FLAP_SEED;
    (0..FLAPS)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            links[((z ^ (z >> 31)) % links.len() as u64) as usize].clone()
        })
        .collect()
}

#[test]
fn heap_per_node_and_per_tuple_stay_under_their_ceilings() {
    let topology = Topology::internet_as(NODES, 2, 2011);
    let program = scenario::programs::anchored_pathvector(3);

    // The intern pool is process-wide and append-only: one throw-away run
    // puts every name of this network in it, so what the measured run leaves
    // behind is the platform's and nothing else's.
    drop(converge(&topology, &program));
    let flaps = flap_links(&topology);

    let base = live();
    let baseline = base.bytes;
    let (mut nt, phases) = converge(&topology, &program);
    let at_fixpoint = LIVE_BYTES.load(Relaxed) - baseline;
    let tuples = nt.stats().stored_tuples;

    let (at_fixpoint_census, unread) = census(&nt, base);
    print_census("fixpoint", &at_fixpoint_census, unread);
    holds_unread("fixpoint", unread, phases.unread, at_fixpoint);
    let rows: Vec<(&str, usize, usize)> = (at_fixpoint_census.rows().iter())
        .map(|(owner, heap)| (*owner, heap.blocks, heap.bytes))
        .collect();
    assert_eq!(rows, FIXPOINT_CENSUS, "the census at the fixpoint");
    drop(at_fixpoint_census);

    for link in &flaps {
        let (a, b) = (link.from.clone(), link.to.clone());
        nt.apply_topology_event(&TopologyEvent::LinkDown { a, b });
        nt.apply_topology_event(&TopologyEvent::LinkUp(link.clone()));
    }
    let after_flaps = LIVE_BYTES.load(Relaxed) - baseline;
    assert_eq!(
        nt.stats().stored_tuples,
        tuples,
        "the flaps restore the state"
    );
    let (flapped, unread) = census(&nt, base);
    print_census("flapped", &flapped, unread);
    holds_unread("after the flaps", unread, phases.unread, after_flaps);
    let blocks: Vec<usize> = flapped.rows().iter().map(|(_, heap)| heap.blocks).collect();
    assert_eq!(
        blocks, FLAPPED_BLOCKS,
        "live blocks per census row after the flaps"
    );
    drop(flapped);

    drop(nt);
    let after_drop = LIVE_BYTES.load(Relaxed).abs_diff(baseline);

    println!(
        "{NODES} nodes: {} B/node after new, {} blocks seeded, {} allocations to the \
         fixpoint ({} per tuple), {tuples} tuples, {} B/tuple at the fixpoint \
         ({at_fixpoint} B live), {after_flaps} B live after {FLAPS} flaps, {after_drop} B off \
         the baseline after drop",
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
        after_flaps * 100 <= at_fixpoint * 105,
        "{FLAPS} flaps that restore the state left {after_flaps} B live, over 105 % of the \
         {at_fixpoint} B at the fixpoint"
    );
    assert!(
        after_drop <= at_fixpoint / 100,
        "dropping the platform left {after_drop} B of {at_fixpoint} B behind"
    );
}
