//! Page-granularity watchpoints.
//!
//! The paper's watchpoints are built on the OS page-protection mechanism
//! (§2.3): a whole 4 KiB page is protected to watch one cacheline, so any
//! access to the page traps. Traps to the page that do not touch a watched
//! line are *false positives* — pure overhead that the trap handler must
//! absorb. This module reproduces that granularity mismatch: watches are
//! registered per line, lookups happen per page, and the distinction
//! between a true hit and a false positive is reported per access.
//!
//! The table behind it is part of the flat lookup substrate (PR 3): a
//! [`PageMap`] from page to a small inline list of `(line, refcount)`
//! entries, so the per-access [`classify`](WatchSet::classify) probe is
//! one open-addressing lookup plus a scan of at most a handful of inline
//! slots — no nested `std` hashing. Watches are *refcounted*: a line
//! watched both as a key cacheline and as a vicinity sample stays armed
//! until both registrations are released, which keeps VDP trap accounting
//! faithful when the two overlap.

use delorean_trace::{LineAddr, MemAccess, PageAddr, PageMap};
use serde::{Deserialize, Serialize};

/// Statistics of one watchpoint (VDP) scan.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchScanStats {
    /// Accesses in the scanned span: what the cost model charges.
    pub accesses_scanned: u64,
    /// Accesses the scan actually generated (≤ `accesses_scanned`): a
    /// scan that jumps over accesses that cannot trap skips the rest.
    pub accesses_generated: u64,
    /// Traps where the page was watched but not the line.
    pub false_positives: u64,
    /// Traps on watched lines.
    pub true_hits: u64,
}

impl WatchScanStats {
    /// All traps taken.
    pub fn traps(&self) -> u64 {
        self.false_positives + self.true_hits
    }

    /// Accumulate another scan's statistics.
    pub fn merge(&mut self, other: &WatchScanStats) {
        self.accesses_scanned += other.accesses_scanned;
        self.accesses_generated += other.accesses_generated;
        self.false_positives += other.false_positives;
        self.true_hits += other.true_hits;
    }
}

/// Classification of one access against a [`WatchSet`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Unwatched page: execution continues at native/VFF speed.
    None,
    /// Watched page, unwatched line: trap overhead with no information.
    FalsePositive,
    /// Watched page and watched line.
    Hit(LineAddr),
}

impl Trap {
    /// `true` unless [`Trap::None`].
    pub fn traps(&self) -> bool {
        !matches!(self, Trap::None)
    }
}

/// Watched-line entries kept inline per page before spilling to the heap.
/// Real key sets put 1–3 watched lines on a hot page; 6 inline slots
/// cover that with room to spare inside one cacheline of entries.
const INLINE_LINES: usize = 6;

/// The watched lines of one protected page: `(line offset in page,
/// refcount)` pairs, inline up to [`INLINE_LINES`] with a heap spill for
/// pathological pages (up to the 64 lines a page holds).
#[derive(Clone, Debug, Default)]
struct PageLines {
    len: u8,
    inline: [(u8, u32); INLINE_LINES],
    spill: Vec<(u8, u32)>,
}

impl PageLines {
    fn line_count(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    #[inline]
    fn contains(&self, offset: u8) -> bool {
        self.inline[..self.len as usize]
            .iter()
            .any(|&(o, _)| o == offset)
            || self.spill.iter().any(|&(o, _)| o == offset)
    }

    /// Add one watch reference; `true` if the line was not yet watched.
    fn add(&mut self, offset: u8) -> bool {
        for e in &mut self.inline[..self.len as usize] {
            if e.0 == offset {
                e.1 += 1;
                return false;
            }
        }
        for e in &mut self.spill {
            if e.0 == offset {
                e.1 += 1;
                return false;
            }
        }
        if (self.len as usize) < INLINE_LINES {
            self.inline[self.len as usize] = (offset, 1);
            self.len += 1;
        } else {
            self.spill.push((offset, 1));
        }
        true
    }

    /// Drop one watch reference. Returns `(was_watched, line_released)`.
    fn remove(&mut self, offset: u8) -> (bool, bool) {
        for i in 0..self.len as usize {
            if self.inline[i].0 == offset {
                self.inline[i].1 -= 1;
                if self.inline[i].1 > 0 {
                    return (true, false);
                }
                // Keep the inline prefix dense: pull in the last entry
                // (from the spill if one exists, else the inline tail).
                if let Some(e) = self.spill.pop() {
                    self.inline[i] = e;
                } else {
                    self.len -= 1;
                    self.inline[i] = self.inline[self.len as usize];
                }
                return (true, true);
            }
        }
        for i in 0..self.spill.len() {
            if self.spill[i].0 == offset {
                self.spill[i].1 -= 1;
                if self.spill[i].1 > 0 {
                    return (true, false);
                }
                self.spill.swap_remove(i);
                return (true, true);
            }
        }
        (false, false)
    }
}

/// A set of line-granularity watchpoints with page-granularity triggering.
///
/// ```
/// use delorean_virt::{Trap, WatchSet};
/// use delorean_trace::LineAddr;
///
/// let mut w = WatchSet::new();
/// w.watch_line(LineAddr(64)); // page 1 (64 lines/page)
/// assert_eq!(w.classify_line(LineAddr(64)), Trap::Hit(LineAddr(64)));
/// assert_eq!(w.classify_line(LineAddr(65)), Trap::FalsePositive);
/// assert_eq!(w.classify_line(LineAddr(0)), Trap::None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WatchSet {
    pages: PageMap<PageLines>,
    lines: usize,
}

#[inline]
fn line_offset(line: LineAddr) -> u8 {
    (line.0 % PageAddr::lines_per_page()) as u8
}

impl WatchSet {
    /// An empty watch set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Watch `line` (protects its whole page). Watches are refcounted:
    /// watching an already-watched line adds a reference, and the line
    /// stays armed until [`unwatch_line`](WatchSet::unwatch_line) has
    /// been called once per reference — so a key watchpoint survives a
    /// vicinity sample arming and disarming on the same line.
    pub fn watch_line(&mut self, line: LineAddr) {
        if self.pages.or_default(line.page()).add(line_offset(line)) {
            self.lines += 1;
        }
    }

    /// Drop one watch reference on `line`; the line disarms when its last
    /// reference is dropped and the page unprotects once its last watched
    /// line is removed. Returns whether the line was watched.
    pub fn unwatch_line(&mut self, line: LineAddr) -> bool {
        let page = line.page();
        let Some(lines) = self.pages.get_mut(page) else {
            return false;
        };
        let (was_watched, released) = lines.remove(line_offset(line));
        if released {
            self.lines -= 1;
            if lines.line_count() == 0 {
                self.pages.remove(page);
            }
        }
        was_watched
    }

    /// Number of watched lines (distinct lines, not references).
    pub fn watched_lines(&self) -> usize {
        self.lines
    }

    /// Number of protected pages.
    pub fn watched_pages(&self) -> usize {
        self.pages.len()
    }

    /// `true` if nothing is watched.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Classify an access by its line address.
    #[inline]
    pub fn classify_line(&self, line: LineAddr) -> Trap {
        match self.pages.get(line.page()) {
            None => Trap::None,
            Some(lines) => {
                if lines.contains(line_offset(line)) {
                    Trap::Hit(line)
                } else {
                    Trap::FalsePositive
                }
            }
        }
    }

    /// Classify a full access record.
    #[inline]
    pub fn classify(&self, access: &MemAccess) -> Trap {
        self.classify_line(access.line())
    }

    /// Remove every watchpoint.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.lines = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_granularity_causes_false_positives() {
        let mut w = WatchSet::new();
        w.watch_line(LineAddr(128)); // page 2
        assert_eq!(w.classify_line(LineAddr(129)), Trap::FalsePositive);
        assert_eq!(w.classify_line(LineAddr(191)), Trap::FalsePositive);
        assert_eq!(w.classify_line(LineAddr(192)), Trap::None); // page 3
        assert_eq!(w.classify_line(LineAddr(128)), Trap::Hit(LineAddr(128)));
    }

    #[test]
    fn unwatch_releases_page_when_empty() {
        let mut w = WatchSet::new();
        w.watch_line(LineAddr(0));
        w.watch_line(LineAddr(1)); // same page
        assert_eq!(w.watched_pages(), 1);
        assert_eq!(w.watched_lines(), 2);
        assert!(w.unwatch_line(LineAddr(0)));
        assert_eq!(w.classify_line(LineAddr(5)), Trap::FalsePositive);
        assert!(w.unwatch_line(LineAddr(1)));
        assert_eq!(w.classify_line(LineAddr(5)), Trap::None);
        assert!(w.is_empty());
        assert!(!w.unwatch_line(LineAddr(1)), "double unwatch");
    }

    #[test]
    fn scan_stats_merge() {
        let mut a = WatchScanStats {
            accesses_scanned: 10,
            accesses_generated: 3,
            false_positives: 2,
            true_hits: 1,
        };
        a.merge(&WatchScanStats {
            accesses_scanned: 5,
            accesses_generated: 5,
            false_positives: 1,
            true_hits: 4,
        });
        assert_eq!(a.accesses_scanned, 15);
        assert_eq!(a.accesses_generated, 8);
        assert_eq!(a.traps(), 8);
    }

    #[test]
    fn traps_helper() {
        assert!(!Trap::None.traps());
        assert!(Trap::FalsePositive.traps());
        assert!(Trap::Hit(LineAddr(0)).traps());
    }

    #[test]
    fn clear_empties_everything() {
        let mut w = WatchSet::new();
        for i in 0..100 {
            w.watch_line(LineAddr(i * 100));
        }
        assert!(w.watched_lines() == 100);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.watched_pages(), 0);
        assert_eq!(w.watched_lines(), 0);
    }

    #[test]
    fn refcounted_watch_survives_one_unwatch() {
        // The Explorer key/vicinity clash: a line watched as a key and
        // again as a vicinity sample must stay armed after the vicinity
        // side disarms.
        let mut w = WatchSet::new();
        w.watch_line(LineAddr(64)); // key registration
        w.watch_line(LineAddr(64)); // vicinity registration
        assert_eq!(w.watched_lines(), 1, "refs are not extra lines");
        assert!(w.unwatch_line(LineAddr(64)), "vicinity disarm");
        assert_eq!(
            w.classify_line(LineAddr(64)),
            Trap::Hit(LineAddr(64)),
            "key watchpoint must survive the vicinity disarm"
        );
        assert!(w.unwatch_line(LineAddr(64)), "key disarm");
        assert_eq!(w.classify_line(LineAddr(64)), Trap::None);
        assert!(w.is_empty());
    }

    #[test]
    fn many_lines_on_one_page_spill_correctly() {
        let mut w = WatchSet::new();
        // All 64 lines of page 3, far beyond the inline capacity.
        let base = 3 * PageAddr::lines_per_page();
        for i in 0..64 {
            w.watch_line(LineAddr(base + i));
        }
        assert_eq!(w.watched_pages(), 1);
        assert_eq!(w.watched_lines(), 64);
        for i in 0..64 {
            assert_eq!(
                w.classify_line(LineAddr(base + i)),
                Trap::Hit(LineAddr(base + i))
            );
        }
        // Remove in an order that exercises inline/spill compaction.
        for i in (0..64).rev() {
            assert!(w.unwatch_line(LineAddr(base + i)));
            for j in 0..i {
                assert_eq!(
                    w.classify_line(LineAddr(base + j)),
                    Trap::Hit(LineAddr(base + j)),
                    "line {j} lost after removing {i}"
                );
            }
        }
        assert!(w.is_empty());
    }
}
