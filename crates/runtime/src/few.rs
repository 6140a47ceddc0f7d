//! A list that is almost always one element long.
//!
//! A stored tuple has one supporting derivation, an input tuple one or two
//! dependents, a remote head one shipped derivation, a provenance vertex one
//! `prov` entry and a posting list one slot in all but a few cases, and there
//! is one such list per stored tuple of every engine and store. A `Vec`
//! spends a heap block on the single element; [`Few`] holds it inline and
//! spills to a `Vec` from the second on. Two lists are equal when they hold
//! equal elements in the same order, whichever form holds them.

use nt_intern::heap::Heap;
use std::ops::Deref;

/// Zero, one or many `T`s; the first is held without a heap block.
#[derive(Debug, Clone)]
pub enum Few<T> {
    /// Exactly one element, inline.
    One(T),
    /// Any other length (the empty list is an unallocated `Vec`).
    Many(Vec<T>),
}

impl<T> Default for Few<T> {
    fn default() -> Self {
        Few::Many(Vec::new())
    }
}

impl<T> Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::One(item) => std::slice::from_ref(item),
            Few::Many(items) => items,
        }
    }
}

impl<'a, T> IntoIterator for &'a Few<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Few<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Few<T> {}

impl<T> Few<T> {
    /// The spilled vector's block; nothing while inline or empty.
    pub fn heap(&self) -> Heap {
        match self {
            Few::One(_) => Heap::default(),
            Few::Many(items) => Heap::vec(items),
        }
    }

    /// Insert `item` at `pos`, shifting what follows. A second element
    /// spills the list into one block with room for exactly two.
    pub fn insert(&mut self, pos: usize, item: T) {
        if let Few::Many(items) = self {
            if !items.is_empty() {
                return items.insert(pos, item);
            }
        }
        *self = match std::mem::take(self) {
            Few::One(held) => {
                let mut items = Vec::with_capacity(2);
                items.push(held);
                items.insert(pos, item);
                Few::Many(items)
            }
            Few::Many(_) => {
                assert_eq!(pos, 0, "insertion index out of bounds");
                Few::One(item)
            }
        };
    }

    pub fn push(&mut self, item: T) {
        self.insert(self.len(), item);
    }

    /// Remove and return the element at `pos`, shifting what follows. A
    /// list left with one element holds it inline again.
    pub fn remove(&mut self, pos: usize) -> T {
        match self {
            Few::Many(items) if items.len() > 2 => items.remove(pos),
            Few::Many(items) => {
                let removed = items.remove(pos);
                if let Some(last) = items.pop() {
                    *self = Few::One(last);
                }
                removed
            }
            Few::One(_) => {
                assert_eq!(pos, 0, "removal index out of bounds");
                match std::mem::take(self) {
                    Few::One(item) => item,
                    Few::Many(_) => unreachable!(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_from_inline_to_spilled_and_keeps_order() {
        let mut few: Few<u32> = Few::default();
        assert!(few.is_empty());
        few.push(2);
        assert!(matches!(few, Few::One(2)));
        few.insert(0, 1);
        few.push(3);
        assert_eq!(*few, [1, 2, 3]);
        assert_eq!(few.remove(1), 2);
        assert_eq!(*few, [1, 3]);
        assert!(matches!(few, Few::Many(_)));
        // Down to one element, the list holds it inline again.
        assert_eq!(few.remove(0), 1);
        assert!(matches!(few, Few::One(3)));
        assert_eq!(few.remove(0), 3);
        assert!(few.is_empty());
        // An emptied list takes its next element inline again.
        few.push(7);
        assert_eq!(*few, [7]);
        assert_eq!(few.remove(0), 7);
        assert_eq!(few, Few::default());
    }

    /// A second element spills the list into one block with room for two,
    /// at either end.
    #[test]
    fn a_spilled_one_element_list_is_one_block_of_two() {
        for pos in [0, 1] {
            let mut few = Few::One(1u64);
            few.insert(pos, 2);
            assert_eq!(few.heap(), Heap::block(2 * size_of::<u64>()), "at {pos}");
        }
    }

    #[test]
    fn equality_reads_the_elements_not_the_form() {
        assert_eq!(Few::Many(vec![4]), Few::One(4));
        assert_eq!(Few::One(4), Few::Many(vec![4]));
        assert_eq!(Few::<u32>::Many(Vec::with_capacity(8)), Few::default());
        assert_ne!(Few::Many(vec![4, 5]), Few::One(4));
        assert_ne!(Few::One(4), Few::One(5));
        assert_ne!(Few::Many(vec![5, 4]), Few::Many(vec![4, 5]));
        // From two elements to one by removal: equal to the list built with
        // one.
        let mut few = Few::One(9);
        few.push(10);
        few.remove(1);
        assert_eq!(few, Few::One(9));
    }

    #[test]
    #[should_panic(expected = "removal index out of bounds")]
    fn removing_past_the_one_element_panics() {
        Few::One(1).remove(1);
    }
}
