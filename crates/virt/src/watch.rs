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
//! The table behind it holds one mask per page, one bit per line offset,
//! so classifying an access is one mask load and one bit test: a zero
//! mask does not trap, the line's own bit is a true hit, and any other
//! bit is a false positive. A split that bounds its pages
//! ([`LineDomains::page_span`]) keeps the masks of its whole span in one
//! array indexed by page; the one-domain split hashes pages in a
//! [`PageMap`]. Watches are *refcounted*: a line watched both as a key
//! cacheline and as a vicinity sample stays armed until both
//! registrations are released, which keeps VDP trap accounting faithful
//! when the two overlap.
//!
//! Every watchpoint profiler — Explorer-1, the VDP explorers and
//! CoolSim's warm-up interval — runs the one scan, [`profile_reuses`].
//!
//! The scan takes its accesses in *page runs* ([`LineRun`]): stretches of
//! one line domain's accesses that touch consecutive lines of one page,
//! up to 64 for a stride-1 stream and 1 for everything else. One mask
//! test `mask & bits(run's lines)` classifies a whole run. Between two
//! *events* — an access to a watched line, and a sample position — the
//! watch set does not change, and every access of the run is on the
//! same page, so either all of them trap or none does:
//! `protected += len · (mask ≠ 0)` counts them exactly, and no access
//! before the event is a true hit. The scan splits a run only at its
//! events and takes each event access by access, as it takes every
//! access of a run of 1; so every trap count, clock charge, key access
//! and reuse is the one an access-by-access walk finds.

use crate::clock::HostClock;
use delorean_trace::cast::{idx, u32_exact};
use delorean_trace::{
    LineAddr, LineDomains, LineMap, LineRun, PageAddr, PageMap, Workload, CURSOR_BATCH, LINE_BYTES,
    PAGE_BYTES,
};
use std::ops::Range;

/// Statistics of one watchpoint (VDP) scan.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
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

/// Lines per page: each owns one bit of its page's watch mask.
const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;
const _: () = assert!(LINES_PER_PAGE == 64, "a page's lines fill one u64 mask");

/// `line`'s bit in its page's watch mask.
#[inline(always)]
fn line_bit(line: LineAddr) -> u64 {
    1 << (line.0 % LINES_PER_PAGE)
}

/// The watched lines of one scan: a watch mask per page and a watch
/// reference count per line.
struct WatchMasks {
    pages: PageMasks,
    /// References per watched line (a key line armed as a sample holds
    /// two); only [`watch`](WatchMasks::watch) and
    /// [`unwatch`](WatchMasks::unwatch) touch it.
    refs: LineMap<u32>,
}

/// Where the page masks live.
enum PageMasks {
    /// A bounded split: every page of its span, indexed by `page − first`.
    Dense { first: u64, masks: Vec<u64> },
    /// The one-domain split: every page ever watched (0 once released).
    Hashed(PageMap<u64>),
}

impl WatchMasks {
    /// Masks over `span`, or hashed if the split bounds none.
    fn new(span: Option<Range<PageAddr>>) -> Self {
        let pages = match span {
            Some(span) => PageMasks::Dense {
                first: span.start.0,
                masks: vec![0; idx(span.end.0.saturating_sub(span.start.0))],
            },
            None => PageMasks::Hashed(PageMap::new()),
        };
        WatchMasks {
            pages,
            refs: LineMap::new(),
        }
    }

    /// The watch mask of `line`'s page: 0 if the page is unprotected.
    #[inline(always)]
    fn mask(&self, line: LineAddr) -> u64 {
        let page = line.0 / LINES_PER_PAGE;
        match &self.pages {
            // A page below the span wraps past its end.
            PageMasks::Dense { first, masks } => masks
                .get(idx(page.wrapping_sub(*first)))
                .copied()
                .unwrap_or(0),
            PageMasks::Hashed(masks) => masks.get(PageAddr(page)).copied().unwrap_or(0),
        }
    }

    /// The mask of `line`'s page, or `None` outside a bounded span (no
    /// access touches such a page, so it needs no protection).
    fn mask_mut(&mut self, line: LineAddr) -> Option<&mut u64> {
        let page = line.0 / LINES_PER_PAGE;
        match &mut self.pages {
            PageMasks::Dense { first, masks } => masks.get_mut(idx(page.wrapping_sub(*first))),
            PageMasks::Hashed(masks) => Some(masks.or_default(PageAddr(page))),
        }
    }

    /// Add a watch reference on `line` (protecting its page).
    fn watch(&mut self, line: LineAddr) {
        let refs = self.refs.or_default(line);
        *refs += 1;
        if *refs == 1 {
            if let Some(mask) = self.mask_mut(line) {
                *mask |= line_bit(line);
            }
        }
    }

    /// Drop one watch reference on `line`; the line disarms with its last
    /// reference. Returns whether the line was watched.
    fn unwatch(&mut self, line: LineAddr) -> bool {
        let Some(refs) = self.refs.get_mut(line) else {
            return false;
        };
        *refs -= 1;
        if *refs == 0 {
            self.refs.remove(line);
            if let Some(mask) = self.mask_mut(line) {
                *mask &= !line_bit(line);
            }
        }
        true
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
/// [`ScanMode::Vdp`] every access to a watched page traps, and `clock`
/// is charged once per trap when the walk ends; the key table and the
/// samples are consulted only on a true hit. `stats.accesses_scanned`
/// is the range length, which the caller charges.
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
/// A key that no domain claims keeps every domain walking. A domain is
/// walked in page runs (see the module docs): one mask test per run,
/// and access by access only at an event. The dynamic calls are one
/// [`LineDomains::fill`] per batch and, at an event inside a longer run,
/// one [`LineDomains::index_of`]; `stats.accesses_generated` counts the
/// accesses the fills' runs hold.
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
        on_reuse,
        keys: LineMap::with_capacity(keys.len()),
        watch: WatchMasks::new(domains.page_span()),
        pending: LineMap::new(),
        held: 0,
        walk_all: false,
        protected: 0,
        watched: 0,
    };
    let mut keys_held = vec![0u32; domains.count()];
    for &line in keys {
        scan.keys.insert(line, NOT_SEEN);
        scan.watch.watch(line);
        match domains.domain_of_line(line) {
            Some(d) => keys_held[d] += 1,
            None => scan.walk_all = true,
        }
    }
    let mut stats = WatchScanStats {
        accesses_scanned: range.end.saturating_sub(range.start),
        accesses_generated: scan.walk(&mut *domains, samples, &keys_held),
        ..Default::default()
    };
    if let ScanMode::Vdp { trap_seconds } = mode {
        stats.true_hits = scan.watched;
        stats.false_positives = scan.protected - scan.watched;
        // The scan holds the clock alone and every trap charges the same
        // constant, so charging them all here adds the same sequence.
        for _ in 0..stats.traps() {
            clock.charge(trap_seconds);
        }
    }
    ReuseScan {
        last_key_access: keys
            .iter()
            .map(|&line| scan.keys.get(line).copied().filter(|&k| k != NOT_SEEN))
            .collect(),
        unresolved: scan.pending.drain().map(|(_, set_at)| set_at).collect(),
        stats,
    }
}

/// The state of one [`profile_reuses`] scan, shared by every domain walk.
struct Scan<F> {
    on_reuse: F,
    /// Key membership and last access, fused into one table.
    keys: LineMap<u64>,
    watch: WatchMasks,
    /// Armed samples: line → the index that armed it.
    pending: LineMap<u64>,
    /// Watched lines (keys and armed samples) of the domain being walked.
    held: u32,
    /// A key outside every domain: no domain may jump.
    walk_all: bool,
    /// Accesses to a protected page: the traps of a VDP scan.
    protected: u64,
    /// Accesses to a watched line: the true hits of a VDP scan.
    watched: u64,
}

/// One domain's sample positions, each with its ordinal in the domain,
/// and the next one not yet reached.
struct Samples<'s> {
    at: &'s [(u64, u64)],
    next: usize,
    /// `at[next]`'s position, or `u64::MAX` (no index) once all are
    /// passed.
    index: u64,
}

impl<'s> Samples<'s> {
    fn new(at: &'s [(u64, u64)]) -> Self {
        let mut samples = Samples {
            at,
            next: 0,
            index: 0,
        };
        samples.pass(0);
        samples
    }

    /// The next sample position and its ordinal, if any is left.
    #[inline(always)]
    fn peek(&self) -> Option<(u64, u64)> {
        self.at.get(self.next).copied()
    }

    /// Pass `n` sample positions.
    #[inline(always)]
    fn pass(&mut self, n: usize) {
        self.next += n;
        self.index = self.peek().map_or(u64::MAX, |(s, _)| s);
    }

    /// Whether `k` is the next sample position, passing it if so.
    #[inline(always)]
    fn take(&mut self, k: u64) -> bool {
        let arm = self.index == k;
        if arm {
            self.pass(1);
        }
        arm
    }
}

/// The bits of `n` (1 to 64) consecutive line offsets from `lo`, with
/// `lo + n ≤ 64`, in a page's watch mask.
#[inline(always)]
fn line_bits(lo: u32, n: u32) -> u64 {
    (u64::MAX >> (64 - n)) << lo
}

impl<F: FnMut(u64, u64)> Scan<F> {
    /// Whether the domain being walked can jump to its next sample.
    fn idle(&self) -> bool {
        self.held == 0 && !self.walk_all
    }

    /// One access: trap, then (on a watched line) key tracking and
    /// sample resolution, then arming a sample at a sample position.
    /// Returns whether a sample resolved, the only way a domain turns
    /// idle.
    #[inline(always)]
    fn visit(&mut self, k: u64, line: LineAddr, arm: bool) -> bool {
        let mut resolved = false;
        let mask = self.watch.mask(line);
        // Counted without a branch: a third to two thirds of the
        // accesses a scan generates trap.
        self.protected += u64::from(mask != 0);
        if mask & line_bit(line) != 0 {
            self.watched += 1;
            if let Some(seen) = self.keys.get_mut(line) {
                *seen = k;
            }
            // Watches are refcounted, so releasing a sample on a key line
            // leaves the key watched.
            if let Some(set_at) = self.pending.remove(line) {
                (self.on_reuse)(k, k - set_at - 1);
                self.watch.unwatch(line);
                self.held -= 1;
                resolved = true;
            }
        }
        if arm && !self.pending.contains(line) {
            self.pending.insert(line, k);
            self.watch.watch(line);
            self.held += 1;
        }
        resolved
    }

    /// One page run of domain `d` longer than one access. Between
    /// events the watch set does not change and every access of the run
    /// is on one page, so the accesses before the next event all trap or
    /// none does, and are counted in one step. An event is the first
    /// access to a watched line or the next sample position; each is
    /// taken through [`visit`](Self::visit), at the index
    /// [`LineDomains::index_of`] gives its ordinal, however many of the
    /// run's lines are watched. Returns whether a sample resolved. Kept
    /// out of line, so the loop over runs of 1 that calls it stays
    /// small.
    #[inline(never)]
    fn visit_run(
        &mut self,
        domains: &dyn LineDomains,
        d: usize,
        run: &LineRun,
        samples: &mut Samples<'_>,
    ) -> bool {
        let lo = u32_exact(run.line.0 % LINES_PER_PAGE);
        let mut resolved = false;
        // Offsets before `start` are done.
        let mut start = 0;
        while start < run.len {
            let mask = self.watch.mask(run.line);
            let watched = mask & line_bits(lo + start, run.len - start);
            let hit = if watched == 0 {
                run.len
            } else {
                watched.trailing_zeros() - lo
            };
            // A sample in the run sits at its ordinal's offset.
            let sample = samples.peek().and_then(|(s, o)| {
                let offset = o.wrapping_sub(run.ordinal);
                (offset < u64::from(run.len) && offset <= u64::from(hit))
                    .then(|| (u32_exact(offset), s))
            });
            let (split, k) = match sample {
                Some(at) => at,
                None if hit == run.len => (hit, 0),
                None if hit == 0 => (0, run.index),
                None => (hit, domains.index_of(d, run.ordinal + u64::from(hit))),
            };
            self.protected += u64::from(split - start) * u64::from(mask != 0);
            if split == run.len {
                break;
            }
            let arm = samples.take(k);
            if self.visit(k, LineAddr(run.line.0 + u64::from(split)), arm) {
                resolved = true;
                if self.idle() && samples.peek().is_none() {
                    // Nothing left in this domain can matter.
                    break;
                }
            }
            start = split + 1;
        }
        resolved
    }

    /// Walk every domain in domain order; `keys_held[d]` is the number of
    /// keys domain `d` holds. Returns the number of accesses generated.
    fn walk(&mut self, domains: &mut dyn LineDomains, samples: &[u64], keys_held: &[u32]) -> u64 {
        let mut owner = Vec::with_capacity(samples.len());
        domains.domains_of(samples, &mut owner);
        let mut grouped = vec![Vec::new(); keys_held.len()];
        for (&k, (d, ordinal)) in samples.iter().zip(owner) {
            grouped[d].push((k, ordinal));
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
    /// positions, run by run.
    fn walk_one(
        &mut self,
        domains: &mut dyn LineDomains,
        d: usize,
        samples: &[(u64, u64)],
        buf: &mut Vec<LineRun>,
    ) -> u64 {
        let mut generated = 0;
        let mut samples = Samples::new(samples);
        // A split clamps `from` to its range, so 0 asks for its first access.
        let mut from = 0;
        let mut batch = CURSOR_BATCH;
        loop {
            if self.idle() {
                let Some((s, _)) = samples.peek() else { break };
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
            let skipped = samples.at[samples.next..].partition_point(|&(s, _)| s < buf[0].index);
            debug_assert_eq!(skipped, 0, "domain {d} skipped a sample position");
            samples.pass(skipped);
            let mut i = 0;
            while i < buf.len() {
                let run = &buf[i];
                i += 1;
                let resolved = if run.len == 1 {
                    let arm = samples.take(run.index);
                    self.visit(run.index, run.line, arm)
                } else {
                    self.visit_run(&*domains, d, run, &mut samples)
                };
                if resolved && self.idle() {
                    // Nothing before the next sample can matter.
                    let Some((_, ordinal)) = samples.peek() else {
                        return generated;
                    };
                    while i < buf.len() && buf[i].ordinal + u64::from(buf[i].len) <= ordinal {
                        i += 1;
                    }
                }
            }
            // The next fill continues from the last access's index.
            let last = &buf[buf.len() - 1];
            from = 1 + match last.len {
                1 => last.index,
                len => domains.index_of(d, last.ordinal + u64::from(len) - 1),
            };
        }
        generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_trace::{
        mix64, AccessCursor, BranchModel, MemAccess, Pattern, Pc, PhasedWorkload,
        PhasedWorkloadBuilder, StreamSpec,
    };
    // lint:allow(no-std-hash): the churn oracle must not share the flat tables' code; it is probed and summed, never iterated in order
    use std::collections::HashMap;

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
        scan_over(w, w.0.len() as u64, keys, samples, mode)
    }

    /// [`scan`] over the first `n` accesses of any workload.
    fn scan_over(
        w: &dyn Workload,
        n: u64,
        keys: &[u64],
        samples: &[u64],
        mode: ScanMode,
    ) -> (ReuseScan, Vec<(u64, u64)>, f64) {
        let keys: Vec<LineAddr> = keys.iter().map(|&l| LineAddr(l)).collect();
        let mut clock = HostClock::new();
        let mut reuses = Vec::new();
        let out = profile_reuses(w, 0..n, &keys, samples, mode, &mut clock, |k, d| {
            reuses.push((k, d))
        });
        assert!(out.stats.accesses_generated <= out.stats.accesses_scanned);
        assert_eq!(out.stats.accesses_scanned, n);
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

    /// `w`'s accesses split into two page-disjoint domains with a
    /// bounded span: pages 1–2 and pages 4–5, with page 3 as the guard.
    struct TwoDomains<'w>(&'w Lines);

    impl Workload for TwoDomains<'_> {
        fn name(&self) -> &str {
            "two domains"
        }

        fn mem_period(&self) -> u64 {
            1
        }

        fn access_at(&self, k: u64) -> MemAccess {
            self.0.access_at(k)
        }

        fn branch_model(&self) -> BranchModel {
            BranchModel::new(0)
        }

        fn line_domains<'a>(&'a self, range: Range<u64>) -> Box<dyn LineDomains + 'a> {
            Box::new(TwoDomainSplit(&self.0 .0, range))
        }
    }

    struct TwoDomainSplit<'w>(&'w [u64], Range<u64>);

    impl LineDomains for TwoDomainSplit<'_> {
        fn count(&self) -> usize {
            2
        }

        fn domain_of_line(&self, line: LineAddr) -> Option<usize> {
            match line.0 / LINES_PER_PAGE {
                1 | 2 => Some(0),
                4 | 5 => Some(1),
                _ => None,
            }
        }

        fn page_span(&self) -> Option<Range<PageAddr>> {
            Some(PageAddr(1)..PageAddr(6))
        }

        fn domains_of(&self, indices: &[u64], out: &mut Vec<(usize, u64)>) {
            out.clear();
            out.extend(indices.iter().map(|&k| {
                let d = self.domain_of_line(LineAddr(self.0[k as usize])).unwrap();
                (d, k)
            }));
        }

        fn fill(&mut self, domain: usize, from: u64, out: &mut Vec<LineRun>, max: usize) -> usize {
            out.clear();
            out.extend(
                (from.max(self.1.start)..self.1.end)
                    .map(|k| LineRun::single(k, LineAddr(self.0[k as usize])))
                    .filter(|run| self.domain_of_line(run.line) == Some(domain))
                    .take(max),
            );
            out.len()
        }
    }

    #[test]
    fn a_bounded_split_matches_the_hashed_path() {
        // Domain 0 (pages 1–2) holds key 64; domain 1 (pages 4–5) holds
        // only the sample at 4, on line 320.
        //                 0   1    2   3    4    5   6    7    8    9   10   11  12
        let w = Lines(vec![
            64, 256, 65, 257, 320, 64, 321, 128, 320, 65, 257, 64, 258,
        ]);
        let split = TwoDomains(&w);
        let n = w.0.len() as u64;
        for mode in [VDP, ScanMode::Functional] {
            let (hashed, mut h_reuses, h_seconds) = scan_over(&w, n, &[64], &[0, 4], mode);
            let (dense, mut d_reuses, d_seconds) = scan_over(&split, n, &[64], &[0, 4], mode);
            // Domains are walked one after another, so reuses arrive in
            // domain order.
            h_reuses.sort_unstable();
            d_reuses.sort_unstable();
            assert_eq!(d_reuses, vec![(5, 4), (8, 3)], "{mode:?}");
            assert_eq!(d_reuses, h_reuses, "{mode:?}");
            assert_eq!(dense.last_key_access, vec![Some(11)], "{mode:?}");
            assert_eq!(dense.last_key_access, hashed.last_key_access);
            assert!(dense.unresolved.is_empty() && hashed.unresolved.is_empty());
            assert_eq!(d_seconds, h_seconds, "{mode:?}");
            assert_eq!(
                (dense.stats.true_hits, dense.stats.false_positives),
                (hashed.stats.true_hits, hashed.stats.false_positives),
                "{mode:?}"
            );
            // Domain 0 holds the key and walks all 6 of its accesses;
            // idle domain 1 jumps to its sample at 4 and its first fill
            // generates 4, 6, 8, 10 and 12, never 1 or 3.
            assert_eq!(hashed.stats.accesses_generated, n, "{mode:?}");
            assert_eq!(dense.stats.accesses_generated, 11, "{mode:?}");
        }
        let (out, _, seconds) = scan_over(&split, n, &[64], &[0, 4], VDP);
        // True hits at 0, 5, 11 (the key, still watched after its sample
        // resolves at 5) and 8; false positives on the key's page at 2
        // and 9 and on the sample's page at 6; 7 is on unwatched page 2.
        assert_eq!(out.stats.true_hits, 4);
        assert_eq!(out.stats.false_positives, 3);
        assert_eq!(seconds, 7.0 * 0.5);
    }

    /// Two streams over a period of three slots, `A B A`: stream A
    /// sweeps the 16 lines of one page in stride-1 runs, and stream B
    /// steps 3 lines at a time round 8 lines of its own page (runs of 1).
    /// A's access `j` sits at index `3·(j / 2) + 2·(j % 2)` and touches
    /// its page's line `j % 16`; B's access `j` sits at `3·j + 1` and
    /// touches its line `3·j % 8`.
    fn page_runs() -> PhasedWorkload {
        let stream = |lines, stride_lines| Pattern::Stream {
            lines,
            stride_lines,
        };
        PhasedWorkloadBuilder::new("page runs", 1)
            .mem_period(1)
            .phase(
                3,
                vec![
                    StreamSpec::new(stream(16, 1), 2),
                    StreamSpec::new(stream(8, 3), 1),
                ],
            )
            .build()
            .unwrap()
    }

    /// `w` behind only the required methods and `cursor`: the
    /// one-domain walk, in runs of 1 against hashed masks.
    struct OneDomain<'a>(&'a PhasedWorkload);

    impl Workload for OneDomain<'_> {
        fn name(&self) -> &str {
            "one domain"
        }

        fn mem_period(&self) -> u64 {
            1
        }

        fn access_at(&self, k: u64) -> MemAccess {
            self.0.access_at(k)
        }

        fn branch_model(&self) -> BranchModel {
            BranchModel::new(0)
        }

        fn cursor<'c>(&'c self, range: Range<u64>) -> Box<dyn AccessCursor + 'c> {
            self.0.cursor(range)
        }
    }

    #[test]
    fn a_page_run_splits_at_its_sample_and_its_watched_lines() {
        let w = page_runs();
        let n = 192; // A's j < 128, B's j < 64
        let a = |j: u64| 3 * (j / 2) + 2 * (j % 2);
        let line_a = w.access_at(0).line().0;
        // A's second sweep of its page is one run: j 16..32.
        let mut split = w.line_domains(0..n);
        assert!(split.page_span().is_some(), "a bounded split");
        let mut runs = Vec::new();
        split.fill(0, a(16), &mut runs, 64);
        assert_eq!(
            runs[0],
            LineRun {
                index: a(16),
                ordinal: 16,
                line: LineAddr(line_a),
                len: 16
            }
        );
        // The key is A's line 5. Sample S1 arms A's line 10 at j 10 (index
        // 15). Inside the j 16..32 run: S2 arms line 2 at j 18 (index 27),
        // the key is touched at j 21 (index 32), and S1's reuse resolves at
        // j 26 (index 39). S2 resolves at j 34 (index 51). Sample S0 arms
        // B's line 0 at its j 0 (index 1); B holds no key, so its walk
        // starts there and ends when B's j 8 (index 25) reuses the line.
        let keys = [line_a + 5];
        let samples = [1, a(10), a(18)];
        assert_eq!(samples, [1, 15, 27]);
        for (workload, one_domain) in [(&w as &dyn Workload, false), (&OneDomain(&w), true)] {
            let (out, mut reuses, seconds) = scan_over(workload, n, &keys, &samples, VDP);
            // Domains are walked one after another, so reuses arrive in
            // domain order.
            reuses.sort_unstable();
            assert_eq!(reuses, vec![(25, 23), (39, 23), (51, 23)], "{one_domain}");
            // The key's last access: A's j 117.
            assert_eq!(out.last_key_access, vec![Some(a(117))], "{one_domain}");
            assert_eq!(a(117), 176);
            assert!(out.unresolved.is_empty());
            // A's page is protected throughout (the key), so all 128 of
            // its accesses trap: 8 on the key and the 2 reuses hit. B's
            // page is protected while S0 is armed: its j 1..7 are false
            // positives and j 8 hits.
            assert_eq!(out.stats.true_hits, 8 + 2 + 1, "{one_domain}");
            assert_eq!(out.stats.false_positives, 118 + 7, "{one_domain}");
            assert_eq!(seconds, 136.0 * 0.5, "{one_domain}");
            // The one domain holds the key and walks everything. Split, A
            // walks its 128 accesses and B one jump batch of 32.
            let generated = if one_domain { n } else { 128 + 32 };
            assert_eq!(out.stats.accesses_generated, generated, "{one_domain}");
            // Interpreted, the same reuses and key accesses, no traps.
            let (functional, mut f_reuses, f_seconds) =
                scan_over(workload, n, &keys, &samples, ScanMode::Functional);
            f_reuses.sort_unstable();
            assert_eq!((f_reuses, f_seconds), (reuses, 0.0));
            assert_eq!(functional.last_key_access, out.last_key_access);
            assert_eq!(functional.stats.traps(), 0);
        }
    }

    #[test]
    fn a_mostly_watched_page_run_takes_every_event() {
        let w = page_runs();
        let n = 192; // A's j < 128, B's j < 64
        let a = |j: u64| 3 * (j / 2) + 2 * (j % 2);
        let line_a = w.access_at(0).line().0;
        // Keys on 9 of A's 16 lines, 2..=10, so every one of A's runs of
        // 16 is mostly watched. The one sample arms A's line 12 at j 28
        // (index 42) and resolves at j 44 (index 66). B holds no key and
        // no sample, so its page is never protected.
        let keys: Vec<u64> = (2..=10).map(|o| line_a + o).collect();
        let samples = [a(28)];
        assert_eq!((a(28), a(44)), (42, 66));
        for (workload, one_domain) in [(&w as &dyn Workload, false), (&OneDomain(&w), true)] {
            let (out, reuses, seconds) = scan_over(workload, n, &keys, &samples, VDP);
            assert_eq!(reuses, vec![(66, 23)], "{one_domain}");
            // Each key's last access is in A's last sweep, j 112..128.
            let last: Vec<Option<u64>> = (2..=10).map(|o| Some(a(112 + o))).collect();
            assert_eq!(out.last_key_access, last, "{one_domain}");
            assert!(out.unresolved.is_empty());
            // All 128 of A's accesses trap: 8 sweeps × 9 keys and the reuse
            // hit; the sample's own access at j 28 is a false positive.
            assert_eq!(out.stats.true_hits, 8 * 9 + 1, "{one_domain}");
            assert_eq!(out.stats.false_positives, 128 - 73, "{one_domain}");
            assert_eq!(seconds, 128.0 * 0.5, "{one_domain}");
            // Split, A walks its 128 accesses and idle B none.
            let generated = if one_domain { n } else { 128 };
            assert_eq!(out.stats.accesses_generated, generated, "{one_domain}");
            // Interpreted, the same reuses and key accesses, no traps.
            let (functional, f_reuses, f_seconds) =
                scan_over(workload, n, &keys, &samples, ScanMode::Functional);
            assert_eq!((f_reuses, f_seconds), (reuses, 0.0));
            assert_eq!(functional.last_key_access, out.last_key_access);
            assert!(functional.unresolved.is_empty());
            assert_eq!(functional.stats.traps(), 0);
        }
    }

    /// How one access to `line` traps against `masks`.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum Trap {
        None,
        FalsePositive,
        Hit,
    }

    fn classify(masks: &WatchMasks, line: LineAddr) -> Trap {
        match masks.mask(line) {
            0 => Trap::None,
            m if m & line_bit(line) != 0 => Trap::Hit,
            _ => Trap::FalsePositive,
        }
    }

    fn watched_pages(masks: &WatchMasks) -> usize {
        match &masks.pages {
            PageMasks::Dense { masks, .. } => masks.iter().filter(|&&m| m != 0).count(),
            PageMasks::Hashed(masks) => masks.values().filter(|&&m| m != 0).count(),
        }
    }

    /// The hashed table and a dense one over pages 0–15.
    fn both_tables() -> [WatchMasks; 2] {
        [
            WatchMasks::new(None),
            WatchMasks::new(Some(PageAddr(0)..PageAddr(16))),
        ]
    }

    #[test]
    fn page_granularity_causes_false_positives() {
        for mut w in both_tables() {
            w.watch(LineAddr(128)); // page 2
            assert_eq!(classify(&w, LineAddr(129)), Trap::FalsePositive);
            assert_eq!(classify(&w, LineAddr(191)), Trap::FalsePositive);
            assert_eq!(classify(&w, LineAddr(192)), Trap::None); // page 3
            assert_eq!(classify(&w, LineAddr(128)), Trap::Hit);
        }
    }

    #[test]
    fn unwatch_releases_page_when_empty() {
        for mut w in both_tables() {
            w.watch(LineAddr(0));
            w.watch(LineAddr(1)); // same page
            assert_eq!(watched_pages(&w), 1);
            assert_eq!(w.refs.len(), 2);
            assert!(w.unwatch(LineAddr(0)));
            assert_eq!(classify(&w, LineAddr(5)), Trap::FalsePositive);
            assert!(w.unwatch(LineAddr(1)));
            assert_eq!(classify(&w, LineAddr(5)), Trap::None);
            assert_eq!((watched_pages(&w), w.refs.len()), (0, 0));
            assert!(!w.unwatch(LineAddr(1)), "double unwatch");
        }
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
    fn refcounted_watch_survives_one_unwatch() {
        // The Explorer key/vicinity clash: a line watched as a key and
        // again as a vicinity sample must stay armed after the vicinity
        // side disarms.
        for mut w in both_tables() {
            w.watch(LineAddr(64)); // key registration
            w.watch(LineAddr(64)); // vicinity registration
            assert_eq!(w.refs.len(), 1, "refs are not extra lines");
            assert!(w.unwatch(LineAddr(64)), "vicinity disarm");
            assert_eq!(
                classify(&w, LineAddr(64)),
                Trap::Hit,
                "key watchpoint must survive the vicinity disarm"
            );
            assert!(w.unwatch(LineAddr(64)), "key disarm");
            assert_eq!(classify(&w, LineAddr(64)), Trap::None);
            assert_eq!(watched_pages(&w), 0);
        }
    }

    #[test]
    fn many_lines_on_one_page_spill_correctly() {
        for mut w in both_tables() {
            // All 64 lines of page 3 fill the page's whole mask.
            let base = 3 * LINES_PER_PAGE;
            for i in 0..64 {
                w.watch(LineAddr(base + i));
            }
            assert_eq!(watched_pages(&w), 1);
            assert_eq!(w.refs.len(), 64);
            for i in 0..64 {
                assert_eq!(classify(&w, LineAddr(base + i)), Trap::Hit);
            }
            for i in (0..64).rev() {
                assert!(w.unwatch(LineAddr(base + i)));
                for j in 0..i {
                    assert_eq!(
                        classify(&w, LineAddr(base + j)),
                        Trap::Hit,
                        "line {j} lost after removing {i}"
                    );
                }
            }
            assert_eq!(watched_pages(&w), 0);
        }
    }

    /// Nested-map model of the mask table: page → line → refcount.
    #[derive(Default)]
    struct WatchOracle {
        // lint:allow(no-std-hash): probed and summed, never iterated in order
        pages: HashMap<u64, HashMap<LineAddr, u32>>,
    }

    impl WatchOracle {
        fn watch(&mut self, line: LineAddr) {
            *self
                .pages
                .entry(line.page().0)
                .or_default()
                .entry(line)
                .or_default() += 1;
        }

        fn unwatch(&mut self, line: LineAddr) -> bool {
            let Some(lines) = self.pages.get_mut(&line.page().0) else {
                return false;
            };
            let Some(rc) = lines.get_mut(&line) else {
                return false;
            };
            *rc -= 1;
            if *rc == 0 {
                lines.remove(&line);
                if lines.is_empty() {
                    self.pages.remove(&line.page().0);
                }
            }
            true
        }

        fn classify(&self, line: LineAddr) -> Trap {
            match self.pages.get(&line.page().0) {
                None => Trap::None,
                Some(lines) if lines.contains_key(&line) => Trap::Hit,
                Some(_) => Trap::FalsePositive,
            }
        }

        fn lines(&self) -> usize {
            self.pages.values().map(|l| l.len()).sum()
        }
    }

    #[test]
    fn masks_match_refcount_oracle_under_churn() {
        // Both tables; the dense one spans pages 0–7 only, so probes on
        // pages 8 and 9 read outside it.
        for mut watch in [
            WatchMasks::new(None),
            WatchMasks::new(Some(PageAddr(0)..PageAddr(8))),
        ] {
            let mut oracle = WatchOracle::default();
            // A narrow line universe concentrates many lines per page and
            // exercises double-watch refcounts.
            for step in 0..8_000u64 {
                let line = LineAddr(mix64(0x7a7c, step) % 512);
                match mix64(0x0dd, step) % 5 {
                    0..=2 => {
                        watch.watch(line);
                        oracle.watch(line);
                    }
                    3 => {
                        assert_eq!(
                            watch.unwatch(line),
                            oracle.unwatch(line),
                            "step {step}: unwatch({line})"
                        );
                    }
                    _ => {}
                }
                let probe = LineAddr(mix64(0x9e9, step) % 600);
                assert_eq!(
                    classify(&watch, probe),
                    oracle.classify(probe),
                    "step {step}: classify({probe})"
                );
                assert_eq!(watch.refs.len(), oracle.lines(), "step {step}");
                assert_eq!(watched_pages(&watch), oracle.pages.len(), "step {step}");
            }
        }
    }
}
