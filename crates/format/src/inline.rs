//! A list of at most `N` elements held inline.

use std::fmt;
use std::ops::Deref;

/// At most `N` elements of `T` held inline — a length byte and a fixed
/// array — read as a slice of the ones pushed. Plain `Copy` data with
/// nothing on the heap: a transaction's update writes, insert image,
/// keyset, participant shards and NewOrder lines are each one, so
/// describing a transaction never touches the allocator.
///
/// The slots past the length hold `T::default()` fillers that are never
/// read, so equality, `Debug` and every slice view see the elements
/// only. Ordering rules (sorted runs, deduplication) stay with the
/// callers, which find a position with `binary_search` and
/// [`Inline::insert`] there.
///
/// # Examples
///
/// ```
/// use pushtap_format::Inline;
///
/// let mut list: Inline<u32, 4> = [3, 9].into();
/// if let Err(at) = list.binary_search(&5) {
///     list.insert(at, 5);
/// }
/// list.push(11);
/// assert_eq!(&list[..], &[3, 5, 9, 11]);
/// assert_eq!(format!("{list:?}"), "[3, 5, 9, 11]");
/// ```
#[derive(Clone, Copy)]
pub struct Inline<T: Copy, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy, const N: usize> Inline<T, N> {
    /// The most elements the list holds.
    pub const CAPACITY: usize = {
        assert!(N <= u8::MAX as usize, "the length is one byte");
        N
    };

    /// Appends `x`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`Inline::CAPACITY`] elements.
    pub fn push(&mut self, x: T) {
        let len = self.len as usize;
        assert!(
            len < Self::CAPACITY,
            "an inline list holds at most {N} items"
        );
        self.items[len] = x;
        self.len += 1;
    }

    /// Inserts `x` at position `at`, shifting the elements after it up
    /// one slot.
    ///
    /// # Panics
    ///
    /// Panics if `at` is past the length or the list already holds
    /// [`Inline::CAPACITY`] elements.
    pub fn insert(&mut self, at: usize, x: T) {
        let len = self.len as usize;
        assert!(at <= len, "insertion index {at} is past the length {len}");
        self.push(x);
        self.items[at..=len].rotate_right(1);
    }
}

impl<T: Copy + Default, const N: usize> Default for Inline<T, N> {
    /// An empty list.
    fn default() -> Self {
        Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T: Copy, const N: usize> Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T: Copy, const N: usize> Extend<T> for Inline<T, N> {
    /// # Panics
    ///
    /// Panics past [`Inline::CAPACITY`] elements.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for Inline<T, N> {
    /// # Panics
    ///
    /// Panics past [`Inline::CAPACITY`] elements.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Inline::default();
        list.extend(iter);
        list
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for Inline<T, N> {
    /// # Panics
    ///
    /// Panics if `M` exceeds [`Inline::CAPACITY`].
    fn from(items: [T; M]) -> Self {
        items.into_iter().collect()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for Inline<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq, const N: usize> Eq for Inline<T, N> {}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type List = Inline<u32, 16>;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of pushes and inserts up to capacity leaves the
        /// list and a `Vec` model holding the same elements: the same
        /// slice, length, equality and `Debug` text.
        #[test]
        fn pushes_and_inserts_agree_with_a_vec(
            ops in prop::collection::vec((any::<bool>(), 0usize..16, any::<u32>()), 0..=16),
        ) {
            let (mut list, mut model) = (List::default(), Vec::new());
            for (push, at, x) in ops {
                if push {
                    list.push(x);
                    model.push(x);
                } else {
                    let at = at % (model.len() + 1);
                    list.insert(at, x);
                    model.insert(at, x);
                }
                prop_assert_eq!(&list[..], &model[..]);
                prop_assert_eq!(list.len(), model.len());
                prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
                let same: List = model.iter().copied().collect();
                prop_assert!(list == same);
                if let Some((_, shorter)) = model.split_last() {
                    prop_assert!(list != shorter.iter().copied().collect::<List>());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 16 items")]
    fn a_17th_element_overflows_the_list() {
        let mut list = List::default();
        for x in 0..17 {
            list.push(x);
        }
    }
}
