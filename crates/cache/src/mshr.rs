//! Miss status holding registers.
//!
//! In a trace-driven simulation there is no cycle clock, so an outstanding
//! miss is modeled as occupying its MSHR for a fixed number of subsequent
//! *memory accesses* (the configured `latency_accesses`, standing in for
//! memory latency). Accesses to a line with an outstanding miss are *MSHR
//! hits* — the paper reports 96.7% of lukewarm-region requests are hits or
//! delayed hits, and DSW classifies delayed hits as hits.
//!
//! The file sits on the hottest loop in the repository (every functional-
//! warming access consults it), so retirement is designed around a
//! **"nothing ready ⇒ skip"** fast path: the file tracks the earliest
//! outstanding completion time, and [`MshrFile::has_ready`] turns the
//! common no-retirement case into a single compare instead of a scan.
//! Callers that perform the deferred fills retire through
//! [`MshrFile::retire_into`] and a reusable scratch buffer — no per-access
//! allocation.

use delorean_trace::LineAddr;

/// Outcome of presenting a miss to the MSHR file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated: a genuine miss that goes to the next
    /// level.
    Allocated,
    /// The line already has an outstanding miss: a delayed hit.
    DelayedHit,
    /// All MSHRs busy: the miss still goes out, but without merge
    /// tracking (structural stall in a timing model).
    Full,
}

/// A small fully-associative MSHR file.
///
/// ```
/// use delorean_cache::{MshrFile, MshrOutcome};
/// use delorean_trace::LineAddr;
///
/// let mut m = MshrFile::new(2, 10);
/// assert_eq!(m.on_miss(LineAddr(1), 0), MshrOutcome::Allocated);
/// assert_eq!(m.on_miss(LineAddr(1), 5), MshrOutcome::DelayedHit);
/// assert_eq!(m.on_miss(LineAddr(1), 11), MshrOutcome::Allocated); // refilled
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<(LineAddr, u64)>, // (line, fill completion time)
    capacity: usize,
    latency_accesses: u64,
    /// Earliest outstanding completion time; `u64::MAX` when empty. Lets
    /// every retirement query short-circuit without touching `entries`.
    next_fill_at: u64,
}

impl MshrFile {
    /// `capacity` registers; misses complete after `latency_accesses`
    /// accesses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32, latency_accesses: u64) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            latency_accesses,
            next_fill_at: u64::MAX,
        }
    }

    /// `true` if at least one entry has completed by access time `now` —
    /// the retirement fast path: one compare, no scan. (An empty file
    /// stores the sentinel `u64::MAX`, so `now == u64::MAX` may report
    /// ready spuriously; the follow-up retire is then a no-op.)
    #[inline]
    pub fn has_ready(&self, now: u64) -> bool {
        self.next_fill_at <= now
    }

    /// Retire entries whose miss has completed by access time `now`.
    pub fn retire(&mut self, now: u64) {
        if !self.has_ready(now) {
            return;
        }
        self.entries.retain(|&(_, fill_at)| fill_at > now);
        self.recompute_next();
    }

    /// Retire completed entries, **appending** their lines to `out` so the
    /// caller can perform the deferred cache fills. `out` is a reusable
    /// scratch buffer — this never allocates once `out` has warmed up to
    /// the MSHR capacity.
    pub fn retire_into(&mut self, now: u64, out: &mut Vec<LineAddr>) {
        if !self.has_ready(now) {
            return;
        }
        self.entries.retain(|&(line, fill_at)| {
            if fill_at <= now {
                out.push(line);
                false
            } else {
                true
            }
        });
        self.recompute_next();
    }

    /// Present a miss on `line` at access time `now`.
    pub fn on_miss(&mut self, line: LineAddr, now: u64) -> MshrOutcome {
        // `retire` is a no-op unless something actually completed, so the
        // common case runs exactly one scan (the merge check below)
        // instead of the historical retain-then-any double scan.
        self.retire(now);
        if self.entries.iter().any(|&(l, _)| l == line) {
            return MshrOutcome::DelayedHit;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        let fill_at = now + self.latency_accesses;
        self.entries.push((line, fill_at));
        self.next_fill_at = self.next_fill_at.min(fill_at);
        MshrOutcome::Allocated
    }

    /// Drop all outstanding entries (e.g. when crossing a region boundary).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_fill_at = u64::MAX;
    }

    /// Adopt another file's state, reusing this file's entry allocation.
    ///
    /// # Panics
    ///
    /// Panics if capacity or latency differ — MSHR shape is hardware
    /// configuration, not state.
    pub fn copy_state_from(&mut self, other: &MshrFile) {
        assert_eq!(self.capacity, other.capacity, "MSHR capacity mismatch");
        assert_eq!(
            self.latency_accesses, other.latency_accesses,
            "MSHR latency mismatch"
        );
        self.entries.clone_from(&other.entries);
        self.next_fill_at = other.next_fill_at;
    }

    /// A [`mix64`](delorean_trace::mix64) fold over the file's live
    /// state: outstanding entries **in allocation order** (retirement
    /// preserves order, and the order of the deferred L1 fills is
    /// architecturally visible), plus the shape parameters. Completion
    /// times are absolute access indices, which both the warm chain and
    /// a window-warmed proxy derive from the same access stream —
    /// `next_fill_at` is derived from the entries and not folded.
    pub fn state_digest(&self, seed: u64) -> u64 {
        use delorean_trace::mix64;
        let mut d = mix64(seed, (self.capacity as u64) << 32 | self.latency_accesses);
        for &(line, fill_at) in &self.entries {
            d = mix64(d, line.0);
            d = mix64(d, fill_at);
        }
        d
    }

    fn recompute_next(&mut self) {
        self.next_fill_at = self
            .entries
            .iter()
            .map(|&(_, fill_at)| fill_at)
            .min()
            .unwrap_or(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test oracle: outstanding misses at access time `now`, read from
    /// the entry array after retiring what has completed.
    fn outstanding(m: &mut MshrFile, now: u64) -> usize {
        m.retire(now);
        m.entries.len()
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4, 100);
        assert_eq!(m.on_miss(LineAddr(7), 0), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(LineAddr(7), 1), MshrOutcome::DelayedHit);
        assert_eq!(m.on_miss(LineAddr(8), 2), MshrOutcome::Allocated);
        assert_eq!(outstanding(&mut m, 2), 2);
    }

    #[test]
    fn entries_retire_after_latency() {
        let mut m = MshrFile::new(1, 10);
        assert_eq!(m.on_miss(LineAddr(1), 0), MshrOutcome::Allocated);
        // Still outstanding just before completion.
        assert_eq!(m.on_miss(LineAddr(1), 9), MshrOutcome::DelayedHit);
        // Completed at 10: new allocation.
        assert_eq!(m.on_miss(LineAddr(1), 10), MshrOutcome::Allocated);
    }

    #[test]
    fn full_file_reports_full() {
        let mut m = MshrFile::new(2, 1000);
        m.on_miss(LineAddr(1), 0);
        m.on_miss(LineAddr(2), 0);
        assert_eq!(m.on_miss(LineAddr(3), 1), MshrOutcome::Full);
        // After retirement, capacity frees up.
        assert_eq!(m.on_miss(LineAddr(3), 2000), MshrOutcome::Allocated);
    }

    #[test]
    fn clear_drops_everything() {
        let mut m = MshrFile::new(2, 1000);
        m.on_miss(LineAddr(1), 0);
        m.clear();
        assert_eq!(outstanding(&mut m, 1), 0);
        assert!(!m.has_ready(1 << 40));
        assert_eq!(m.on_miss(LineAddr(1), 1), MshrOutcome::Allocated);
    }

    #[test]
    fn has_ready_tracks_earliest_completion() {
        let mut m = MshrFile::new(4, 10);
        assert!(!m.has_ready(1 << 40), "empty file has no finite work");
        m.on_miss(LineAddr(1), 0); // completes at 10
        m.on_miss(LineAddr(2), 5); // completes at 15
        assert!(!m.has_ready(9));
        assert!(m.has_ready(10));
        // Retiring the earliest entry advances the fast-path threshold.
        m.retire(10);
        assert!(!m.has_ready(14));
        assert!(m.has_ready(15));
    }

    #[test]
    fn retire_into_appends_to_scratch() {
        let mut m = MshrFile::new(4, 10);
        m.on_miss(LineAddr(1), 0);
        m.on_miss(LineAddr(2), 3);
        let mut scratch = vec![LineAddr(99)];
        m.retire_into(10, &mut scratch);
        assert_eq!(scratch, vec![LineAddr(99), LineAddr(1)]);
        scratch.clear();
        m.retire_into(13, &mut scratch);
        assert_eq!(scratch, vec![LineAddr(2)]);
        assert_eq!(outstanding(&mut m, 13), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0, 10);
    }
}
