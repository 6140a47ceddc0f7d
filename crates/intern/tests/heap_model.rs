//! The layout rules of `nt_intern::heap` against a counting allocator: for
//! vectors, deques and hash maps of several entry sizes at every
//! growth step, and shared slices of several element types, the blocks and
//! requested bytes the rule reads off the structure are the ones the
//! allocator counted while it was built; for a map emptied by removals, no
//! more than it counted. One test in its own binary, so the counts are one
//! thread's.

use nt_intern::heap::{Census, Heap};
use nt_intern::IdMap;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
            LIVE_BLOCKS.fetch_add(1, Relaxed);
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
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What building `make` leaves live, against what `model` reads off it.
fn holds<T>(what: &str, make: impl FnOnce() -> T, model: impl FnOnce(&T) -> Heap) {
    let (bytes, blocks) = (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed));
    let built = make();
    let counted = Heap {
        blocks: LIVE_BLOCKS.load(Relaxed) - blocks,
        bytes: LIVE_BYTES.load(Relaxed) - bytes,
    };
    assert_eq!(model(&built), counted, "{what}");
}

/// Maps of `n` entries made by `entry`, whose values hold `owned` each.
fn maps_of<K: std::hash::Hash + Eq, V>(entry: impl Fn(u64) -> (K, V), owned: impl Fn(&V) -> Heap) {
    for n in (0..40).chain([100, 1_000, 5_000]) {
        holds(
            &format!(
                "a map of {n} {}-byte entries",
                std::mem::size_of::<(K, V)>()
            ),
            || (0..n).map(&entry).collect::<IdMap<K, V>>(),
            |map| Heap::map(map) + map.values().map(&owned).sum(),
        );
        // Removals leave tombstones the rule cannot see: it may read low,
        // never high.
        let (bytes, blocks) = (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed));
        let mut map: IdMap<K, V> = (0..n).map(&entry).collect();
        map.retain(|_, _| false);
        assert!(map.is_empty());
        let read = Heap::map(&map);
        assert!(
            read.blocks <= LIVE_BLOCKS.load(Relaxed) - blocks,
            "{n} emptied"
        );
        assert!(
            read.bytes <= LIVE_BYTES.load(Relaxed) - bytes,
            "{n} emptied"
        );
        drop(map);
    }
}

#[test]
fn every_rule_reads_what_the_allocator_counted_and_a_shared_block_counts_once() {
    for n in 0..40 {
        holds(
            "a pushed vector",
            || (0..n).collect::<Vec<u64>>(),
            Heap::vec,
        );
        holds(
            "a grown vector of triples",
            || {
                let mut v = Vec::new();
                (0..n).for_each(|i| v.push((i, i as u32, i as u8)));
                v
            },
            Heap::vec,
        );
        holds(
            "a deque",
            || (0..n as u32).collect::<VecDeque<u32>>(),
            Heap::deque,
        );
        holds(
            "a slice of words",
            || (0..n).collect::<Arc<[u64]>>(),
            Heap::arc_slice,
        );
        holds(
            "a slice of bytes",
            || (0..n as u8).collect::<Arc<[u8]>>(),
            Heap::arc_slice,
        );
        holds(
            "a slice of handles",
            || (0..n as u32).collect::<Arc<[u32]>>(),
            Heap::arc_slice,
        );
    }
    maps_of(|i| (i as u32, i as u32), |_| Heap::default());
    maps_of(|i| (i, ()), |_| Heap::default());
    maps_of(|i| (i as u32, [i; 3]), |_| Heap::default());
    maps_of(|i| ((i, i as u32), vec![i as u32]), Heap::vec);

    // A census charges a shared block once and the static empty slice
    // never.
    let list: Arc<[u64]> = (0..5).collect();
    let copy = list.clone();
    let mut census = Census::default();
    assert!(census.shared("first", &list));
    assert!(!census.shared("second", &copy));
    assert!(!census.shared("second", &Arc::<[u64]>::default()));
    census.add("second", Heap::block(8));
    assert_eq!(
        census.rows(),
        [("first", Heap::block(16 + 40)), ("second", Heap::block(8))]
    );
    assert_eq!(
        census.total(),
        Heap {
            blocks: 2,
            bytes: 64
        }
    );
}
