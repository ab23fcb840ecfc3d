//! Streaming access cursors: the sequential hot path of every warm loop.
//!
//! [`Workload::access_at`](crate::Workload::access_at) is the *random
//! access* path: stateless, `O(1)`, and exactly what DSW key probes and
//! tests need. But every warm loop in the repository — SMARTS functional
//! warming, CoolSim's watchpoint interval, MRRL's profile and warming
//! windows, checkpoint preparation, and the Explorer/Scout scans — walks
//! strictly *sequential* ranges, where a stateless regeneration redoes a
//! phase binary search, several divide/mod chains, and pattern setup for
//! every single access.
//!
//! [`AccessCursor`] is the streaming counterpart: a batched generator
//! that hoists all per-range work out of the loop and advances
//! stream-local state incrementally. The contract is strict equivalence:
//! a cursor over `range` must produce **byte-identical** [`MemAccess`]
//! records to `access_at(k)` for every `k` in `range`
//! (`tests/properties.rs` pins this for every workload in the suite).
//!
//! # Two outputs
//!
//! A cursor fills one of two buffers, and both advance the same
//! position:
//!
//! * [`fill`](AccessCursor::fill) produces full [`MemAccess`] records:
//!   index, instruction count, PC and address.
//! * [`fill_lines`](AccessCursor::fill_lines) produces only the
//!   [`LineAddr`] of each access; the index is implied by position
//!   (the `i`-th line of a batch starting at `position()` belongs to
//!   access `position() + i`). Its output is **byte-identical** to
//!   `fill` mapped through [`MemAccess::line`].
//!
//! The line-only form exists because most of the time-traveling scans
//! ask each access only which cacheline it touches, and building the
//! rest of the record is much of the cost of generating it: a
//! [`PhasedCursor`](crate::PhasedCursor) skips the PC hash of each
//! access and a [`TiledCursor`](crate::TiledCursor) reads one 8-byte
//! word of each 16-byte record. Other cursors inherit a default that
//! derives the lines from `fill`. A caller may mix the two calls on one
//! cursor freely.
//!
//! Which scan uses which:
//!
//! | Scan | Reads | Output |
//! |---|---|---|
//! | Explorer-1 and the VDP explorers (`run_explorer`) | index, line | `fill_lines` |
//! | Scout lukewarm-replica warm loop | index, line | `fill_lines` |
//! | CoolSim watchpoint interval | index, line (PC via `access_at` on a resolved sample) | `fill_lines` |
//! | MRRL reuse-latency profile | index, line | `fill_lines` |
//! | Speculative-lane statmodel probe | line | `fill_lines` |
//! | Scout region walk, Analyst, `warm_range`, `simulate_detailed` | PC, line, index | `fill` |
//!
//! [`WorkloadExt::for_each_line`](crate::WorkloadExt::for_each_line) and
//! [`WorkloadExt::for_each_access`](crate::WorkloadExt::for_each_access)
//! wrap the two outputs in the canonical batched loop.
//!
//! Workloads get a cursor for free through [`IndexedCursor`] (the default
//! [`Workload::cursor`](crate::Workload::cursor) implementation simply
//! calls `access_at` per element). Implementors should override
//! [`Workload::cursor`](crate::Workload::cursor) whenever sequential
//! generation can share work between neighbouring indices — see
//! [`PhasedWorkload`](crate::PhasedWorkload) (incremental phase/slot/
//! pattern state) and [`TiledTrace`](crate::TiledTrace) (spans decoded
//! straight out of a memory-mapped tile file) for the two in-tree
//! examples — and override `fill_lines` too when the line costs less
//! than the full record.

use crate::types::{LineAddr, MemAccess};
use crate::Workload;
use std::ops::Range;

/// Batch size used by the cursor-driven helpers ([`AccessIter`]
/// refills, [`WorkloadExt::for_each_access`] and
/// [`WorkloadExt::for_each_line`]). Large enough to amortize the
/// virtual `fill` call, small enough to stay in L1.
///
/// [`AccessIter`]: crate::AccessIter
/// [`WorkloadExt::for_each_access`]: crate::WorkloadExt::for_each_access
/// [`WorkloadExt::for_each_line`]: crate::WorkloadExt::for_each_line
pub const CURSOR_BATCH: usize = 1024;

/// A streaming generator over a contiguous range of workload accesses.
///
/// Produced by [`Workload::cursor`](crate::Workload::cursor).
/// Implementations must be deterministic and byte-identical to
/// [`Workload::access_at`](crate::Workload::access_at) over the range —
/// the "same execution across passes" invariant every DeLorean pass
/// relies on.
pub trait AccessCursor {
    /// Global index of the next access the cursor will produce.
    fn position(&self) -> u64;

    /// Exclusive end of the cursor's range.
    fn end(&self) -> u64;

    /// Clear `out` and refill it with up to `max` consecutive accesses,
    /// advancing the cursor. Returns the number produced; `0` means the
    /// cursor is exhausted (or `max == 0`).
    ///
    /// The canonical consumption loop — one reusable buffer, drained
    /// until the cursor is exhausted, byte-identical to indexed
    /// regeneration:
    ///
    /// ```
    /// use delorean_trace::{spec_workload, AccessCursor, Scale, Workload, CURSOR_BATCH};
    ///
    /// let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
    /// let mut cursor = w.cursor(100..2_600);
    /// let mut batch = Vec::with_capacity(CURSOR_BATCH);
    /// let mut seen = 0u64;
    /// while cursor.fill(&mut batch, CURSOR_BATCH) > 0 {
    ///     for a in &batch {
    ///         assert_eq!(*a, w.access_at(a.index)); // streaming ≡ indexed
    ///         seen += 1;
    ///     }
    /// }
    /// assert_eq!(seen, 2_500);
    /// assert_eq!(cursor.position(), cursor.end());
    /// ```
    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize;

    /// Clear `out` and refill it with the cachelines of up to `max`
    /// consecutive accesses, advancing the cursor exactly as
    /// [`fill`](AccessCursor::fill) would. Returns the number produced.
    ///
    /// The output is byte-identical to `fill` mapped through
    /// [`MemAccess::line`]; the access index of `out[i]` is the
    /// cursor's [`position`](AccessCursor::position) before the call
    /// plus `i`. The default derives the lines from `fill`; cursors
    /// that can produce a line without the rest of the record override
    /// it.
    ///
    /// ```
    /// use delorean_trace::{spec_workload, AccessCursor, Scale, Workload, CURSOR_BATCH};
    ///
    /// let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
    /// let mut cursor = w.cursor(100..2_600);
    /// let mut lines = Vec::with_capacity(CURSOR_BATCH);
    /// let mut k = cursor.position();
    /// while cursor.fill_lines(&mut lines, CURSOR_BATCH) > 0 {
    ///     for &line in &lines {
    ///         assert_eq!(line, w.access_at(k).line()); // lines ≡ records
    ///         k += 1;
    ///     }
    /// }
    /// assert_eq!(k, 2_600);
    /// ```
    fn fill_lines(&mut self, out: &mut Vec<LineAddr>, max: usize) -> usize {
        out.clear();
        let mut batch = Vec::with_capacity(max.min(CURSOR_BATCH));
        while out.len() < max && self.fill(&mut batch, (max - out.len()).min(CURSOR_BATCH)) > 0 {
            out.extend(batch.iter().map(MemAccess::line));
        }
        out.len()
    }

    /// Accesses left before exhaustion.
    fn remaining(&self) -> u64 {
        self.end().saturating_sub(self.position())
    }
}

impl std::fmt::Debug for dyn AccessCursor + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessCursor")
            .field("position", &self.position())
            .field("end", &self.end())
            .finish()
    }
}

/// The indexed fallback cursor: regenerates each access through
/// [`Workload::access_at`]. Correct for every workload; used by the
/// default [`Workload::cursor`](crate::Workload::cursor) implementation.
#[derive(Debug)]
pub struct IndexedCursor<'w, W: Workload + ?Sized> {
    workload: &'w W,
    next: u64,
    end: u64,
}

impl<'w, W: Workload + ?Sized> IndexedCursor<'w, W> {
    /// A cursor over `workload` accesses with `index ∈ range`.
    pub fn new(workload: &'w W, range: Range<u64>) -> Self {
        IndexedCursor {
            workload,
            next: range.start,
            end: range.end.max(range.start),
        }
    }
}

impl<W: Workload + ?Sized> AccessCursor for IndexedCursor<'_, W> {
    fn position(&self) -> u64 {
        self.next
    }

    fn end(&self) -> u64 {
        self.end
    }

    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
        out.clear();
        let n = (self.end - self.next).min(max as u64);
        out.reserve(n as usize);
        for k in self.next..self.next + n {
            out.push(self.workload.access_at(k));
        }
        self.next += n;
        n as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec_workload, Scale, WorkloadExt};

    #[test]
    fn indexed_cursor_matches_access_at() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let mut cur = IndexedCursor::new(&w, 500..560);
        assert_eq!(cur.remaining(), 60);
        let mut buf = Vec::new();
        let mut k = 500u64;
        while cur.fill(&mut buf, 7) > 0 {
            for a in &buf {
                assert_eq!(*a, w.access_at(k));
                k += 1;
            }
        }
        assert_eq!(k, 560);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn empty_and_inverted_ranges_are_exhausted() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let mut buf = Vec::new();
        let mut cur = IndexedCursor::new(&w, 5..5);
        assert_eq!(cur.fill(&mut buf, 16), 0);
        #[allow(clippy::reversed_empty_ranges)]
        let mut cur = IndexedCursor::new(&w, 9..3);
        assert_eq!(cur.fill(&mut buf, 16), 0);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn default_workload_cursor_is_indexed_fallback() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let dynw: &dyn Workload = &w;
        // Through a trait object the default implementation must still
        // produce the exact access stream.
        let mut cur = crate::Workload::cursor(&dynw, 100..130);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        while cur.fill(&mut buf, 8) > 0 {
            seen.extend(buf.iter().copied());
        }
        let direct: Vec<_> = w.iter_range(100..130).collect();
        assert_eq!(seen, direct);
    }

    #[test]
    fn for_each_access_visits_the_range_in_order() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let mut indices = Vec::new();
        w.for_each_access(40..80, |a| indices.push(a.index));
        assert_eq!(indices, (40..80).collect::<Vec<_>>());
    }
}
