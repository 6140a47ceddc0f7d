//! What a structure holds on the heap, in live blocks and requested bytes,
//! read off its layout: a vector's capacity, a hash table's buckets, a
//! shared slice's length. No allocator is hooked and nothing is sampled; a
//! counting allocator sees the same numbers (`tests/heap_model.rs` holds
//! every rule below to one).
//!
//! A [`Census`] adds them up per owner. A block several owners share (a
//! tuple's values, a derivation's input list) is counted once, under the
//! first owner the walk reaches.

use crate::{IdMap, IdSet};
use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

/// Live heap blocks and the bytes requested for them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heap {
    pub blocks: usize,
    pub bytes: usize,
}

impl Heap {
    /// One block of `bytes`; nothing for zero bytes, which allocate none.
    pub fn block(bytes: usize) -> Heap {
        Heap {
            blocks: usize::from(bytes > 0),
            bytes,
        }
    }

    /// A vector's buffer: its capacity, not its length.
    pub fn vec<T>(items: &Vec<T>) -> Heap {
        Heap::block(items.capacity() * size_of::<T>())
    }

    pub fn deque<T>(items: &VecDeque<T>) -> Heap {
        Heap::block(items.capacity() * size_of::<T>())
    }

    /// A product hash map's one table (std's, under [`IdMap`]): its buckets (the capacity over a load of
    /// 7/8, a power of two, at least 4), each an entry and a control byte,
    /// the entries rounded up to 16 bytes, and 16 more control bytes.
    ///
    /// Exact for a map no entry was removed from. A removal may leave a
    /// tombstone, which `capacity` stops counting until the table is
    /// rebuilt, so after removals the rule may read a smaller table than the
    /// one held (or none, for a table of tombstones) — never a larger one.
    pub fn map<K, V>(map: &IdMap<K, V>) -> Heap {
        Heap::table(map.capacity(), size_of::<(K, V)>())
    }

    fn table(capacity: usize, entry: usize) -> Heap {
        let buckets = match capacity {
            0 => return Heap::default(),
            1..=3 => 4,
            4..=7 => 8,
            _ => (capacity * 8).div_ceil(7).next_power_of_two(),
        };
        Heap::block((buckets * entry).next_multiple_of(16) + buckets + 16)
    }

    /// A shared slice's block: two reference counts, then the elements.
    pub fn arc_slice<T>(items: &Arc<[T]>) -> Heap {
        let align = std::mem::align_of::<T>().max(size_of::<usize>());
        Heap::block((2 * size_of::<usize>() + items.len() * size_of::<T>()).next_multiple_of(align))
    }
}

impl std::ops::Add for Heap {
    type Output = Heap;

    fn add(self, other: Heap) -> Heap {
        Heap {
            blocks: self.blocks + other.blocks,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl std::ops::AddAssign for Heap {
    fn add_assign(&mut self, other: Heap) {
        *self = *self + other;
    }
}

impl std::iter::Sum for Heap {
    fn sum<I: Iterator<Item = Heap>>(iter: I) -> Heap {
        iter.fold(Heap::default(), std::ops::Add::add)
    }
}

/// A heap account by owner: one row per owner, in the order owners were
/// first named, and the shared blocks already counted.
#[derive(Debug, Default)]
pub struct Census {
    rows: Vec<(&'static str, Heap)>,
    shared: IdSet<usize>,
}

impl Census {
    /// Charge `heap` to `owner`.
    pub fn add(&mut self, owner: &'static str, heap: Heap) {
        match self.rows.iter_mut().find(|(name, _)| *name == owner) {
            Some((_, row)) => *row += heap,
            None => self.rows.push((owner, heap)),
        }
    }

    /// Charge a shared slice's block to `owner` unless some owner was
    /// charged it already; true when this is the first charge, so the
    /// caller goes on to count what the elements hold. The empty slice
    /// every `Arc::default()` hands out is static and costs nothing.
    pub fn shared<T>(&mut self, owner: &'static str, items: &Arc<[T]>) -> bool {
        if items.is_empty() && Arc::ptr_eq(items, &Arc::default()) {
            return false;
        }
        let first = self.shared.insert(Arc::as_ptr(items).cast::<u8>() as usize);
        if first {
            self.add(owner, Heap::arc_slice(items));
        }
        first
    }

    /// The rows, in the order their owners were first charged.
    pub fn rows(&self) -> &[(&'static str, Heap)] {
        &self.rows
    }

    pub fn total(&self) -> Heap {
        self.rows.iter().map(|(_, heap)| *heap).sum()
    }
}
