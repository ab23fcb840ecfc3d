//! Iteration over a range of workload accesses.

use crate::cursor::{AccessCursor, CURSOR_BATCH};
use crate::types::MemAccess;
use crate::Workload;
use std::fmt;
use std::ops::Range;

/// Iterator over the accesses of a [`Workload`] with indices in a range.
///
/// Produced by [`WorkloadExt::iter_range`](crate::WorkloadExt::iter_range);
/// works with both concrete workloads and `dyn Workload`. Backed by the
/// workload's streaming [`AccessCursor`], refilled in batches of
/// [`CURSOR_BATCH`], so iteration over a `PhasedWorkload` or
/// `TiledTrace` runs on the streaming fast path rather than
/// regenerating every access through `access_at`.
pub struct AccessIter<'w, W: Workload + ?Sized> {
    workload: &'w W,
    cursor: Box<dyn AccessCursor + 'w>,
    buf: Vec<MemAccess>,
    pos: usize,
}

impl<'w, W: Workload + ?Sized> AccessIter<'w, W> {
    /// Iterate over `workload` accesses with `index ∈ range`.
    pub fn new(workload: &'w W, range: Range<u64>) -> Self {
        AccessIter {
            workload,
            cursor: workload.cursor(range),
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Accesses left to yield (buffered plus not yet generated).
    fn remaining(&self) -> u64 {
        self.cursor.remaining() + (self.buf.len() - self.pos) as u64
    }
}

impl<W: Workload + ?Sized> fmt::Debug for AccessIter<'_, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The cursor prefetches a batch, so its position runs ahead of
        // the iterator; report the index the next `next()` will yield.
        let next = self.cursor.position() - (self.buf.len() - self.pos) as u64;
        f.debug_struct("AccessIter")
            .field("workload", &self.workload.name())
            .field("next", &next)
            .field("end", &self.cursor.end())
            .finish()
    }
}

impl<W: Workload + ?Sized> Iterator for AccessIter<'_, W> {
    type Item = MemAccess;

    #[inline]
    fn next(&mut self) -> Option<MemAccess> {
        if self.pos == self.buf.len() {
            if self.cursor.fill(&mut self.buf, CURSOR_BATCH) == 0 {
                return None;
            }
            self.pos = 0;
        }
        let a = self.buf[self.pos];
        self.pos += 1;
        Some(a)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The remaining count is a u64; on hosts where usize is narrower
        // the cast must saturate rather than truncate (and the upper
        // bound becomes unknown), otherwise `len` would lie on ranges
        // exceeding usize::MAX.
        match usize::try_from(self.remaining()) {
            Ok(n) => (n, Some(n)),
            Err(_) => (usize::MAX, None),
        }
    }
}

// On 64-bit hosts the u64 remaining count always fits in usize, so the
// size hint is exact and the `ExactSizeIterator` contract holds. On
// narrower hosts a range can exceed usize::MAX, where no honest `len`
// exists — the impl is gated out rather than allowed to lie.
#[cfg(target_pointer_width = "64")]
impl<W: Workload + ?Sized> ExactSizeIterator for AccessIter<'_, W> {}

#[cfg(test)]
mod tests {
    use crate::{spec_workload, Scale, Workload, WorkloadExt};

    #[test]
    fn iterates_exactly_the_range() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let v: Vec<_> = w.iter_range(10..20).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v[0].index, 10);
        assert_eq!(v[9].index, 19);
    }

    #[test]
    fn works_through_a_trait_object() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let dynw: &dyn Workload = &w;
        assert_eq!(dynw.iter_range(0..7).count(), 7);
    }

    #[test]
    fn empty_and_inverted_ranges_yield_nothing() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        assert_eq!(w.iter_range(5..5).count(), 0);
        #[allow(clippy::reversed_empty_ranges)]
        let n = w.iter_range(9..3).count();
        assert_eq!(n, 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let it = w.iter_range(0..17);
        assert_eq!(it.size_hint(), (17, Some(17)));
        assert_eq!(it.len(), 17);
    }

    #[test]
    fn size_hint_counts_down_across_buffer_refills() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let n = (crate::CURSOR_BATCH as u64) * 2 + 5;
        let mut it = w.iter_range(0..n);
        for left in (0..n).rev() {
            assert!(it.next().is_some());
            assert_eq!(it.size_hint(), (left as usize, Some(left as usize)));
        }
        assert!(it.next().is_none());
    }

    /// Regression test for the unchecked `u64 → usize` cast: a range
    /// whose length exceeds what fits in `usize` must saturate the lower
    /// bound instead of wrapping (on 64-bit hosts it stays exact; either
    /// way `size_hint` must not lie small).
    #[test]
    fn huge_range_size_hint_saturates_instead_of_wrapping() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let it = w.iter_range(0..u64::MAX);
        let (lo, hi) = it.size_hint();
        if let Ok(exact) = usize::try_from(u64::MAX) {
            assert_eq!((lo, hi), (exact, Some(exact)));
        } else {
            assert_eq!((lo, hi), (usize::MAX, None));
        }
    }
}
