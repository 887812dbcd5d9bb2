//! A list that stays on the stack until it outgrows its inline capacity.
//!
//! The point operations build a handful of short lists per call — the
//! internal column numbers of a read, the `(column, value)` pairs of a tail
//! record — and a heap allocation for each was a measurable share of a
//! short transaction. Tables are capped at [`crate::schema::MAX_COLUMNS`]
//! columns, so the lists are short; one longer than the inline capacity
//! (a column list may repeat columns) spills to a `Vec`.

use std::ops::Deref;

/// Inline capacity of the point operations' column lists.
pub(crate) const INLINE_COLS: usize = 16;

/// A push-only list holding up to `N` items inline.
pub(crate) struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    /// Holds *every* item once the list outgrew `inline`.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            if self.len == N {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// Collect `items`, stopping at the first error.
    pub(crate) fn try_collect<E>(items: impl IntoIterator<Item = Result<T, E>>) -> Result<Self, E> {
        let mut list = Self::new();
        for item in items {
            list.push(item?);
        }
        Ok(list)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = Self::new();
        for item in items {
            list.push(item);
        }
        list
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_the_inline_capacity_and_keeps_order() {
        let mut list: InlineVec<u32, 4> = InlineVec::new();
        assert!(list.is_empty());
        for i in 0..4 {
            list.push(i);
        }
        assert_eq!(&*list, &[0, 1, 2, 3]);
        list.push(4);
        list.push(5);
        assert_eq!(&*list, &[0, 1, 2, 3, 4, 5]);
        let collected: InlineVec<u32, 4> = (0..3).collect();
        assert_eq!(&*collected, &[0, 1, 2]);
        let failed: Result<InlineVec<u32, 4>, &str> =
            InlineVec::try_collect([Ok(1), Err("no"), Ok(2)]);
        assert_eq!(failed.err(), Some("no"));
    }
}
