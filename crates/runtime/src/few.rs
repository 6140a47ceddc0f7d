//! A list that is almost always one element long.
//!
//! A stored tuple has one supporting derivation and an input tuple one or two
//! dependents in all but a few cases, and there is one such list per stored
//! tuple of every engine. A `Vec` spends a heap block on the single element;
//! [`Few`] holds it inline and spills to a `Vec` from the second on.

/// Zero, one or many `T`s; the first is held without a heap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Few<T> {
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

impl<T> Few<T> {
    pub fn as_slice(&self) -> &[T] {
        match self {
            Few::One(item) => std::slice::from_ref(item),
            Few::Many(items) => items,
        }
    }

    /// Insert `item` at `pos`, shifting what follows.
    pub fn insert(&mut self, pos: usize, item: T) {
        if let Few::Many(items) = self {
            if !items.is_empty() {
                return items.insert(pos, item);
            }
        }
        *self = match std::mem::take(self) {
            Few::One(held) => {
                let mut items = vec![held];
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
        self.insert(self.as_slice().len(), item);
    }

    /// Keep the elements `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            Few::One(item) => {
                if !keep(item) {
                    *self = Few::default();
                }
            }
            Few::Many(items) => items.retain(keep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_from_inline_to_spilled_and_keeps_order() {
        let mut few: Few<u32> = Few::default();
        assert!(few.as_slice().is_empty());
        few.push(2);
        assert!(matches!(few, Few::One(2)));
        few.insert(0, 1);
        few.push(3);
        assert_eq!(few.as_slice(), [1, 2, 3]);
        few.retain(|x| *x != 2);
        assert_eq!(few.as_slice(), [1, 3]);
        few.retain(|_| false);
        assert!(few.as_slice().is_empty());
        // An emptied list takes its next element inline again.
        few.push(7);
        assert_eq!(few.as_slice(), [7]);
        few.retain(|x| *x != 7);
        assert_eq!(few, Few::default());
    }
}
