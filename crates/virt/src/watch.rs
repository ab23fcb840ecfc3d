//! Page-granularity watchpoints and the one scan that drives them.
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
//! entries, so the per-access [`classify_line`](WatchSet::classify_line) probe is
//! one open-addressing lookup plus a scan of at most a handful of inline
//! slots — no nested `std` hashing. Watches are *refcounted*: a line
//! watched both as a key cacheline and as a vicinity sample stays armed
//! until both registrations are released, which keeps VDP trap accounting
//! faithful when the two overlap.
//!
//! Every watchpoint profiler — Explorer-1, the VDP explorers and
//! CoolSim's warm-up interval — runs the one scan, [`profile_reuses`].

use crate::clock::HostClock;
use delorean_trace::{
    InterestFilter, LineAddr, LineDomains, LineMap, PageAddr, PageMap, Workload, CURSOR_BATCH,
};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

    /// Remove every watchpoint.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.lines = 0;
    }
}

/// How a [`profile_reuses`] scan observes the lines it watches.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum ScanMode {
    /// Interpreted (Explorer-1): exact line membership, no traps.
    Functional,
    /// Virtualized directed profiling: a watched line protects its page,
    /// and every access to a protected page traps.
    Vdp {
        /// Host seconds charged per trap.
        trap_seconds: f64,
    },
}

/// What one [`profile_reuses`] scan found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReuseScan {
    /// The index of the last access to each key line in the range, in
    /// `keys` order (`None` if the range never touches it).
    pub last_key_access: Vec<Option<u64>>,
    /// The access index of every sample still armed at the range end (its
    /// reuse lies beyond the range), in no particular order.
    pub unresolved: Vec<u64>,
    /// Traps taken and accesses scanned and generated.
    pub stats: WatchScanStats,
}

/// Sentinel for "no access to this key seen yet" in the key table.
const NOT_SEEN: u64 = u64::MAX;

/// First batch of a walk that starts at a jump: most walks end at the
/// first reuse of the sample that started them, a few dozen accesses on.
const JUMP_BATCH: usize = 32;

/// Scan the accesses of `workload` with index in `range` for reuses:
/// the one watchpoint profile behind Explorer-1, the VDP explorers and
/// CoolSim's warm-up interval.
///
/// The `keys` stay watched for the whole range, and the scan records the
/// last access to each. At each of the `samples` (increasing access
/// indices in `range`) the accessed line is armed as a sample unless it
/// already is one; at its next access the sample resolves, and
/// `on_reuse(index, distance)` receives the reusing access's index and
/// the number of accesses strictly between the two. In
/// [`ScanMode::Vdp`] every access to a watched page traps and charges
/// `clock`; the key table and the samples are consulted only on a true
/// hit. `stats.accesses_scanned` is the range length, which the caller
/// charges.
///
/// The scan walks the workload's
/// [`line_domains`](Workload::line_domains) one after another. Every
/// watch, trap and sample belongs to exactly one domain, and every fold
/// is order-independent across domains: key accesses and reuses are per
/// line and each domain is walked in index order, every trap adds the
/// same constant, and the callers' histogram weights are 1 (so `f64`
/// sums are exact in any order). So a domain is walked access by access
/// only while it holds a watched line; while it holds none, nothing in it
/// can trap or resolve, and the walk jumps to its next sample position
/// (positions are a pure function of the index, drawn before the scan by
/// [`CounterRng::one_in_positions`](delorean_trace::CounterRng::one_in_positions)).
/// A key that no domain claims keeps every domain walking. The only
/// dynamic call is one [`LineDomains::fill`] per batch, and
/// `stats.accesses_generated` counts what the fills produced.
pub fn profile_reuses<F>(
    workload: &dyn Workload,
    range: Range<u64>,
    keys: &[LineAddr],
    samples: &[u64],
    mode: ScanMode,
    clock: &mut HostClock,
    on_reuse: F,
) -> ReuseScan
where
    F: FnMut(u64, u64),
{
    let mut domains = workload.line_domains(range.clone());
    let mut scan = Scan {
        mode,
        clock,
        on_reuse,
        // Fused interest filter over the watched pages (VDP) or lines
        // (functional): the dominant unwatched access is one hashed bit
        // probe, and only filter hits reach the exact tables.
        filter: InterestFilter::with_capacity_for(keys.len() + 1024),
        keys: LineMap::with_capacity(keys.len()),
        watch: WatchSet::new(),
        pending: LineMap::new(),
        held: 0,
        walk_all: false,
        stats: WatchScanStats {
            accesses_scanned: range.end.saturating_sub(range.start),
            ..Default::default()
        },
    };
    let mut keys_held = vec![0u32; domains.count()];
    for &line in keys {
        scan.keys.insert(line, NOT_SEEN);
        scan.watch(line);
        match domains.domain_of_line(line) {
            Some(d) => keys_held[d] += 1,
            None => scan.walk_all = true,
        }
    }
    scan.stats.accesses_generated = scan.walk(&mut *domains, samples, &keys_held);
    ReuseScan {
        last_key_access: keys
            .iter()
            .map(|&line| scan.keys.get(line).copied().filter(|&k| k != NOT_SEEN))
            .collect(),
        unresolved: scan.pending.drain().map(|(_, set_at)| set_at).collect(),
        stats: scan.stats,
    }
}

/// The state of one [`profile_reuses`] scan, shared by every domain walk.
struct Scan<'c, F> {
    mode: ScanMode,
    clock: &'c mut HostClock,
    on_reuse: F,
    filter: InterestFilter,
    /// Key membership and last access, fused into one table.
    keys: LineMap<u64>,
    watch: WatchSet,
    /// Armed samples: line → the index that armed it.
    pending: LineMap<u64>,
    /// Watched lines (keys and armed samples) of the domain being walked.
    held: u32,
    /// A key outside every domain: no domain may jump.
    walk_all: bool,
    stats: WatchScanStats,
}

impl<F: FnMut(u64, u64)> Scan<'_, F> {
    fn watch(&mut self, line: LineAddr) {
        match self.mode {
            ScanMode::Functional => self.filter.insert_line(line),
            ScanMode::Vdp { .. } => {
                self.watch.watch_line(line);
                self.filter.insert_page(line.page());
            }
        }
    }

    fn unwatch(&mut self, line: LineAddr) {
        match self.mode {
            ScanMode::Functional => self.filter.remove_line(line),
            ScanMode::Vdp { .. } => {
                self.watch.unwatch_line(line);
                self.filter.remove_page(line.page());
            }
        }
    }

    /// Whether the domain being walked can jump to its next sample.
    fn idle(&self) -> bool {
        self.held == 0 && !self.walk_all
    }

    /// One access: trap, then (on a watched line) key tracking and
    /// sample resolution, then arming a sample at a sample position.
    #[inline(always)]
    fn visit(&mut self, k: u64, line: LineAddr, arm: bool) {
        let watched = match self.mode {
            ScanMode::Functional => self.filter.contains_line(line),
            ScanMode::Vdp { trap_seconds } => {
                self.filter.contains_page(line.page())
                    && match self.watch.classify_line(line) {
                        Trap::None => false,
                        Trap::FalsePositive => {
                            self.stats.false_positives += 1;
                            self.clock.charge(trap_seconds);
                            false
                        }
                        Trap::Hit(_) => {
                            self.stats.true_hits += 1;
                            self.clock.charge(trap_seconds);
                            true
                        }
                    }
            }
        };
        if watched {
            if let Some(seen) = self.keys.get_mut(line) {
                *seen = k;
            }
            // Watches are refcounted, so releasing a sample on a key line
            // leaves the key watched.
            if let Some(set_at) = self.pending.remove(line) {
                (self.on_reuse)(k, k - set_at - 1);
                self.unwatch(line);
                self.held -= 1;
            }
        }
        if arm && !self.pending.contains(line) {
            self.pending.insert(line, k);
            self.watch(line);
            self.held += 1;
        }
    }

    /// Walk every domain in domain order; `keys_held[d]` is the number of
    /// keys domain `d` holds. Returns the number of accesses generated.
    fn walk(&mut self, domains: &mut dyn LineDomains, samples: &[u64], keys_held: &[u32]) -> u64 {
        let mut owner = Vec::with_capacity(samples.len());
        domains.domains_of(samples, &mut owner);
        let mut grouped = vec![Vec::new(); keys_held.len()];
        for (&k, d) in samples.iter().zip(owner) {
            grouped[d].push(k);
        }
        let mut buf = Vec::with_capacity(CURSOR_BATCH);
        let mut generated = 0;
        for (d, (&held, samples)) in keys_held.iter().zip(&grouped).enumerate() {
            self.held = held;
            generated += self.walk_one(domains, d, samples, &mut buf);
        }
        generated
    }

    /// Walk domain `d` from the start of the range, given its own sample
    /// positions.
    fn walk_one(
        &mut self,
        domains: &mut dyn LineDomains,
        d: usize,
        samples: &[u64],
        buf: &mut Vec<(u64, LineAddr)>,
    ) -> u64 {
        let mut generated = 0;
        let mut next = 0usize;
        // A split clamps `from` to its range, so 0 asks for its first access.
        let mut from = 0;
        let mut batch = CURSOR_BATCH;
        loop {
            if self.idle() {
                let Some(&s) = samples.get(next) else { break };
                from = s;
                batch = JUMP_BATCH;
            }
            let got = domains.fill(d, from, buf, batch);
            if got == 0 {
                break;
            }
            generated += got as u64;
            batch = (batch * 2).min(CURSOR_BATCH);
            // A split never skips one of its own sample positions; if one
            // did, drop the sample rather than jump back to it forever.
            let skipped = samples[next..].partition_point(|&s| s < buf[0].0);
            debug_assert_eq!(skipped, 0, "domain {d} skipped a sample position");
            next += skipped;
            let mut i = 0;
            while i < got {
                let (k, line) = buf[i];
                i += 1;
                let arm = samples.get(next) == Some(&k);
                next += usize::from(arm);
                self.visit(k, line, arm);
                if self.idle() {
                    // Nothing before the next sample can matter.
                    let Some(&s) = samples.get(next) else {
                        return generated;
                    };
                    while i < got && buf[i].0 < s {
                        i += 1;
                    }
                }
            }
            from = buf[got - 1].0 + 1;
        }
        generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_trace::{BranchModel, MemAccess, Pc};

    /// A hand-built workload: access `k` touches line `self.0[k]`.
    struct Lines(Vec<u64>);

    impl Workload for Lines {
        fn name(&self) -> &str {
            "lines"
        }

        fn mem_period(&self) -> u64 {
            1
        }

        fn access_at(&self, k: u64) -> MemAccess {
            MemAccess {
                index: k,
                icount: k,
                pc: Pc(0),
                addr: LineAddr(self.0[k as usize]).addr(),
            }
        }

        fn branch_model(&self) -> BranchModel {
            BranchModel::new(0)
        }
    }

    const VDP: ScanMode = ScanMode::Vdp { trap_seconds: 0.5 };

    /// Run the scan over all of `w`, returning it, the reuses it
    /// reported and the seconds it charged.
    fn scan(
        w: &Lines,
        keys: &[u64],
        samples: &[u64],
        mode: ScanMode,
    ) -> (ReuseScan, Vec<(u64, u64)>, f64) {
        let keys: Vec<LineAddr> = keys.iter().map(|&l| LineAddr(l)).collect();
        let mut clock = HostClock::new();
        let mut reuses = Vec::new();
        let out = profile_reuses(
            w,
            0..w.0.len() as u64,
            &keys,
            samples,
            mode,
            &mut clock,
            |k, d| reuses.push((k, d)),
        );
        assert!(out.stats.accesses_generated <= out.stats.accesses_scanned);
        assert_eq!(out.stats.accesses_scanned, w.0.len() as u64);
        (out, reuses, clock.seconds())
    }

    #[test]
    fn samples_resolve_and_keys_stay_watched() {
        // Key line 64 and lines 65/66 share page 1; 128/129 share page 2.
        //                 0   1    2    3   4    5   6    7   8  9
        let w = Lines(vec![64, 128, 129, 65, 128, 64, 200, 64, 1, 66]);
        // Samples on the key line itself (0), on 128 (1) and on 200 (6).
        let (out, reuses, seconds) = scan(&w, &[64], &[0, 1, 6], VDP);
        // 128 reuses at 4 and the key-line sample at 5, both while the
        // key stays watched: 64 is still recorded and still a true hit
        // at 7, after its sample released one watch reference.
        assert_eq!(reuses, vec![(4, 2), (5, 4)]);
        assert_eq!(out.last_key_access, vec![Some(7)]);
        assert_eq!(out.unresolved, vec![6]);
        // True hits at 0, 4, 5, 7; false positives at 2, 3 and 9 (page 1
        // stays protected for the key).
        assert_eq!(out.stats.true_hits, 4);
        assert_eq!(out.stats.false_positives, 3);
        assert_eq!(seconds, 7.0 * 0.5);
        assert_eq!(out.stats.accesses_generated, 10);
        // Interpreted, the same scan finds the same reuses and never traps.
        let (functional, f_reuses, f_seconds) = scan(&w, &[64], &[0, 1, 6], ScanMode::Functional);
        assert_eq!(
            (f_reuses, functional.stats.traps(), f_seconds),
            (reuses, 0, 0.0)
        );
        assert_eq!(functional.last_key_access, out.last_key_access);
        assert_eq!(functional.unresolved, out.unresolved);
    }

    #[test]
    fn false_positives_charge_but_never_resolve_or_record() {
        // Key 64 is never touched, the sample on 128 is never reused;
        // 129 and 65 share their pages.
        let w = Lines(vec![1, 128, 129, 65, 2]);
        let (out, reuses, seconds) = scan(&w, &[64], &[1], VDP);
        assert_eq!(out.stats.false_positives, 2);
        assert_eq!(out.stats.true_hits, 0);
        assert_eq!(seconds, 2.0 * 0.5);
        assert!(reuses.is_empty());
        assert_eq!(out.last_key_access, vec![None]);
        assert_eq!(out.unresolved, vec![1]);
    }

    #[test]
    fn an_unwatched_domain_jumps_to_its_next_sample() {
        // No keys and one sample at 500, reused two accesses later: the
        // walk starts at the sample and stops once it resolves.
        let mut lines: Vec<u64> = (0..1_000).map(|k| 1_000 + k).collect();
        lines[502] = lines[500];
        let w = Lines(lines);
        let (out, reuses, _) = scan(&w, &[], &[500], VDP);
        assert_eq!(reuses, vec![(502, 1)]);
        assert!(out.unresolved.is_empty());
        assert!(
            out.stats.accesses_generated < 100,
            "generated {}",
            out.stats.accesses_generated
        );
    }

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
