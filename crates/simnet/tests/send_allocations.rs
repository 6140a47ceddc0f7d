//! What sending a message allocates, counted — not sampled — by wrapping the
//! system allocator: once every (link, category) has carried a message and
//! the queue has reached its size, `send_batch` allocates nothing, over a
//! link or between a linkless pair, and `advance` allocates only the growth
//! of the vector it returns. One test in its own binary counting its own thread,
//! so the count repeats exactly.
//!
//! At the parent of the change that added this test a message cost five
//! allocations (two strings to find its link, a formatted link key and a
//! category string to count it, a category string to queue it): the same
//! run read 51,000 allocations for its 10,000 messages, against 1,000.

use nt_intern::NodeId;
use simnet::{Network, NetworkConfig, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set by the test on its own thread: the harness's main thread
    /// allocates now and then while it waits, and is not what is measured.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// statistic and publishes no other data, and the thread-local it reads is
// const-initialized and has no destructor, so reading it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NODES: usize = 10;
const CATEGORIES: [&str; 2] = ["protocol", "prov-query"];
const CYCLES: usize = 100;
/// Messages per cycle over ring links (1 ms) and as many between nodes the
/// ring does not join (the 5 ms default): two delivery instants per cycle.
const PER_INSTANT: usize = 50;
/// A vector filled by pushes to 50 elements grows 4, 8, 16, 32, 64.
const GROWTH_PER_INSTANT: usize = 5;

/// One cycle: `2 * PER_INSTANT` sends, then deliveries until idle. Returns
/// the number of messages delivered.
fn cycle(net: &mut Network<u64>, nodes: &[NodeId]) -> usize {
    for i in 0..PER_INSTANT {
        let from = i % NODES;
        let category = CATEGORIES[i % CATEGORIES.len()];
        net.send_batch(nodes[from], nodes[(from + 1) % NODES], 7, 100, 3, category);
        net.send_batch(nodes[from], nodes[(from + 4) % NODES], 7, 100, 3, category);
    }
    let mut delivered = 0;
    while !net.idle() {
        delivered += net.advance().len();
    }
    delivered
}

#[test]
fn a_message_allocates_nothing_once_its_link_has_been_counted() {
    let nodes: Vec<NodeId> = Topology::ring(NODES).nodes().map(NodeId::new).collect();
    let mut net: Network<u64> = Network::new(Topology::ring(NODES), NetworkConfig::default());
    // Warm-up: every (link, category) of a cycle is counted once and the
    // queue reaches a cycle's depth.
    assert_eq!(cycle(&mut net, &nodes), 2 * PER_INSTANT);

    MEASURED.set(true);
    let before = ALLOCATIONS.load(Relaxed);
    let mut delivered = 0;
    for _ in 0..CYCLES {
        delivered += cycle(&mut net, &nodes);
    }
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    MEASURED.set(false);

    println!("{delivered} messages, {allocations} allocations");
    assert_eq!(delivered, CYCLES * 2 * PER_INSTANT);
    assert_eq!(
        net.stats().messages as usize,
        (CYCLES + 1) * 2 * PER_INSTANT
    );
    assert!(
        allocations <= CYCLES * 2 * GROWTH_PER_INSTANT,
        "{allocations} allocations for {delivered} messages: more than the \
         delivery vectors' growth ({})",
        CYCLES * 2 * GROWTH_PER_INSTANT
    );
}
