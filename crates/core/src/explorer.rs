//! The Explorer passes: go back in time.
//!
//! Explorer *k* profiles a window of `windows[k]` instructions ending at
//! the region start, looking for the **last** access before the region to
//! each still-unresolved key cacheline, and sampling *vicinity* reuse
//! distances at the configured rate.
//!
//! Mechanism follows §3.3:
//!
//! * **Explorer-1** uses functional simulation (gem5's atomic CPU): the
//!   full key set would trap far too often under page-granularity
//!   watchpoints (hot lines live on hot pages), so the first, short window
//!   is simply interpreted.
//! * **Explorers 2..4** use virtualized directed profiling (VDP): run at
//!   near-native VFF speed with watchpoints on the remaining keys —
//!   progressively fewer lines with progressively lower temporal locality,
//!   which is what keeps trap counts tolerable. Key watchpoints stay armed
//!   for the whole window (the *last* access is wanted); vicinity
//!   watchpoints disarm on first reuse.
//!
//! # The scan
//!
//! A scan is the shared [`walk_domains`] over the workload's
//! [`LineDomains`](delorean_trace::LineDomains): page-disjoint shares of
//! the window (one per compiled stream for a
//! [`PhasedWorkload`](delorean_trace::PhasedWorkload), the whole window
//! for any other workload), each walked access by access only while it
//! holds a watched line and jumped to its next vicinity sample otherwise.
//! The walk's docs carry the exactness argument. Key watchpoints stay
//! armed for the whole window, so each domain starts holding its key
//! count, and a key line that no domain claims keeps every domain
//! walking. Both explorer kinds share the one per-access visitor;
//! [`WatchScanStats::accesses_generated`] counts the accesses the walk
//! produced, against the `accesses_scanned` the cost model charges.
//!
//! Each visited access runs on the flat lookup substrate: a fused
//! [`InterestFilter`] decides the dominant "nothing interesting here"
//! access with a single hashed bit probe (watched pages for VDP, exact
//! key/vicinity lines for the functional pass), and only filter hits fall
//! through to the exact [`LineMap`] tables and the refcounted
//! [`WatchSet`].

use crate::keyset::KeySet;
use delorean_sampling::Region;
use delorean_statmodel::ReuseProfile;
use delorean_trace::{
    walk_domains, CounterRng, InterestFilter, LineAddr, LineMap, Visit, Workload,
};
use delorean_virt::{CostModel, HostClock, Trap, WatchScanStats, WatchSet, WorkKind};

/// A key cacheline still waiting for its last prior access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PendingKey {
    /// The watched line.
    pub line: LineAddr,
    /// Global access index of its first access in the region.
    pub first_access_index: u64,
}

/// Sentinel for "no access to this key seen yet" in the fused key table.
const NOT_SEEN: u64 = u64::MAX;

/// What one explorer produced for one region.
#[derive(Clone, Debug, Default)]
pub struct ExplorerOutcome {
    /// Keys resolved in this window: `(line, exact backward reuse distance
    /// in accesses)`.
    pub resolved: Vec<(LineAddr, u64)>,
    /// Keys still unresolved (reuse beyond this window).
    pub remaining: Vec<PendingKey>,
    /// Vicinity samples collected in this window.
    pub vicinity: ReuseProfile,
    /// Number of vicinity reuse distances recorded (non-cold).
    pub vicinity_count: u64,
    /// Trap statistics (zero for the functional Explorer-1).
    pub scan: WatchScanStats,
}

/// Run explorer `index` (0-based) over its window for one region.
///
/// `window_instrs` is this explorer's full window length and
/// `prev_window_instrs` the previous explorer's (0 for Explorer-1); the
/// scan covers the *exclusive* slice
/// `[region_start − window, region_start − prev_window)`, clamped at
/// instruction 0 — the remainder of the window was already covered by the
/// shallower explorers, whose keys are resolved, so no true hit can occur
/// there. Interval work is charged at represented magnitude via
/// `work_multiplier`; traps at face value.
#[allow(clippy::too_many_arguments)]
pub fn run_explorer(
    workload: &dyn Workload,
    cost: &CostModel,
    clock: &mut HostClock,
    index: usize,
    window_instrs: u64,
    prev_window_instrs: u64,
    region: &Region,
    pending: &[PendingKey],
    vicinity_period_accesses: u64,
    seed: u64,
    work_multiplier: u64,
) -> ExplorerOutcome {
    debug_assert!(prev_window_instrs < window_instrs);
    let start_instr = region.start_instr.saturating_sub(window_instrs);
    let end_instr = region.start_instr.saturating_sub(prev_window_instrs);
    let first = workload.access_index_at_instr(start_instr);
    let end = workload.access_index_at_instr(end_instr);
    let p = workload.mem_period();
    let functional = index == 0;

    // Cost: Explorer-1 interprets its window; later explorers VFF it and
    // pay per trap. (The pass-level VFF across the rest of the interval is
    // charged by the runner.)
    let span_accesses = end.saturating_sub(first);
    clock.charge(cost.instr_seconds(
        if functional {
            WorkKind::Functional
        } else {
            WorkKind::Vff
        },
        span_accesses * p * work_multiplier,
    ));

    let mut domains = workload.line_domains(first..end);
    // Fused interest filter: one counting bitmap covering watched pages ∪
    // key lines ∪ vicinity-pending lines, so the dominant "nothing
    // interesting here" access is decided by a single hashed bit probe.
    // One probe suffices because the two explorer kinds each need only
    // one granularity: a VDP explorer watches every key and armed vicinity
    // line, so the watched *pages* already cover all three sets (and the
    // page test must fire on false-positive traps anyway); the
    // functional Explorer-1 has no watchpoints, so only exact *line*
    // membership matters.
    let mut scan = Scan {
        functional,
        trap_seconds: cost.trap_seconds,
        clock,
        filter: InterestFilter::with_capacity_for(pending.len() + 1024),
        // Key membership and last-seen tracking fused into one table: the
        // cold path pays a single probe for both.
        keys: LineMap::with_capacity(pending.len()),
        watch: WatchSet::new(),
        vicinity: ReuseProfile::new(),
        vicinity_count: 0,
        vicinity_pending: LineMap::new(),
        stats: WatchScanStats {
            accesses_scanned: span_accesses,
            ..Default::default()
        },
    };
    // Key lines per domain: they stay watched for the whole window.
    let mut keys_held = vec![0u32; domains.count()];
    let mut walk_all = false;
    for k in pending {
        scan.keys.insert(k.line, NOT_SEEN);
        scan.watch_line(k.line);
        match domains.domain_of_line(k.line) {
            Some(d) => keys_held[d] += 1,
            None => walk_all = true,
        }
    }

    let rng = CounterRng::new(seed ^ ((index as u64 + 1) << 48) ^ region.index as u64);
    let positions: Vec<u64> = rng
        .one_in_positions(first..end, vicinity_period_accesses)
        .collect();
    scan.stats.accesses_generated = walk_domains(
        &mut *domains,
        &positions,
        &keys_held,
        walk_all,
        |k, line, arm| scan.visit(k, line, arm),
    );
    let Scan {
        keys,
        mut vicinity,
        vicinity_count,
        mut vicinity_pending,
        stats: scan,
        ..
    } = scan;

    // Vicinity samples with no reuse before the scan end are *censored*:
    // the reuse is at least as long as the remaining window. Record them
    // at the censoring distance (a lower bound) rather than as cold —
    // treating them as infinite would inflate stack-distance estimates in
    // proportion to the censored fraction, which is large for the deep
    // explorers' exclusive windows.
    for (_, set_at) in vicinity_pending.drain() {
        vicinity.record(end.saturating_sub(set_at + 1).max(1), 1.0);
    }

    let mut resolved = Vec::new();
    let mut remaining = Vec::new();
    for k in pending {
        match keys.get(k.line) {
            Some(&pos) if pos != NOT_SEEN && pos < k.first_access_index => {
                resolved.push((k.line, k.first_access_index - pos - 1));
            }
            _ => remaining.push(*k),
        }
    }
    ExplorerOutcome {
        resolved,
        remaining,
        vicinity,
        vicinity_count,
        scan,
    }
}

/// The state of one explorer scan, shared by every domain walk.
struct Scan<'c> {
    functional: bool,
    trap_seconds: f64,
    clock: &'c mut HostClock,
    filter: InterestFilter,
    keys: LineMap<u64>,
    watch: WatchSet,
    vicinity: ReuseProfile,
    vicinity_count: u64,
    vicinity_pending: LineMap<u64>,
    stats: WatchScanStats,
}

impl Scan<'_> {
    fn watch_line(&mut self, line: LineAddr) {
        if self.functional {
            self.filter.insert_line(line);
        } else {
            self.watch.watch_line(line);
            self.filter.insert_page(line.page());
        }
    }

    fn unwatch_line(&mut self, line: LineAddr) {
        if self.functional {
            self.filter.remove_line(line);
        } else {
            self.watch.unwatch_line(line);
            self.filter.remove_page(line.page());
        }
    }

    /// One access of the scan: traps, key tracking, vicinity resolution,
    /// then arming a sample at a sample position.
    #[inline(always)]
    fn visit(&mut self, k: u64, line: LineAddr, arm: bool) -> Visit {
        let mut step = Visit::default();
        let interesting = if self.functional {
            self.filter.contains_line(line)
        } else {
            self.filter.contains_page(line.page())
        };
        if interesting {
            // Trap accounting (VDP explorers only): any access to a
            // watched page costs a trap, watched line or not.
            if !self.functional {
                match self.watch.classify_line(line) {
                    Trap::None => {}
                    Trap::FalsePositive => {
                        self.stats.false_positives += 1;
                        self.clock.charge(self.trap_seconds);
                    }
                    Trap::Hit(_) => {
                        self.stats.true_hits += 1;
                        self.clock.charge(self.trap_seconds);
                    }
                }
            }
            // Key tracking: remember the latest access to each pending key.
            if let Some(seen) = self.keys.get_mut(line) {
                *seen = k;
            }
            // Vicinity: resolve an armed sample on reuse. The key
            // watchpoint (if any) on the same line stays armed: watch
            // references are refcounted, so disarming the vicinity side
            // never drops a key that must live for the whole window.
            if let Some(set_at) = self.vicinity_pending.remove(line) {
                self.vicinity.record(k - set_at - 1, 1.0);
                self.vicinity_count += 1;
                self.unwatch_line(line);
                step.resolved = true;
            }
        }
        // Arm a new vicinity sample at a sample position.
        if arm && !self.vicinity_pending.contains(line) {
            self.vicinity_pending.insert(line, k);
            self.watch_line(line);
            step.armed = true;
        }
        step
    }
}

/// Convert a key set into the pending list for Explorer-1.
pub fn pending_from_keyset(keyset: &KeySet) -> Vec<PendingKey> {
    let mut v: Vec<PendingKey> = keyset
        .iter()
        .map(|(line, info)| PendingKey {
            line,
            first_access_index: info.first_access_index,
        })
        .collect();
    // Deterministic order regardless of hash-map iteration.
    v.sort_unstable_by_key(|k| k.line);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_sampling::SamplingConfig;
    use delorean_trace::{spec_workload, Scale, WorkloadExt};

    fn setup() -> (impl Workload, Region) {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(2)
            .plan();
        (w, plan.regions[1].clone())
    }

    /// Brute-force the true backward reuse distance of `line` from
    /// `first_idx`, or None if absent in the last `max_back` accesses.
    fn true_backward_rd(
        w: &dyn Workload,
        line: LineAddr,
        first_idx: u64,
        max_back: u64,
    ) -> Option<u64> {
        let lo = first_idx.saturating_sub(max_back);
        (lo..first_idx)
            .rev()
            .find(|&k| w.access_at(k).line() == line)
            .map(|k| first_idx - k - 1)
    }

    #[test]
    fn functional_explorer_finds_exact_last_access() {
        let (w, region) = setup();
        let cost = CostModel::paper_host();
        let mut clock = HostClock::new();
        let region_first = w.access_index_at_instr(region.detailed.start);
        // Take a few real region lines as keys.
        let pending: Vec<PendingKey> = (0..40)
            .map(|i| w.access_at(region_first + i))
            .map(|a| PendingKey {
                line: a.line(),
                first_access_index: a.index,
            })
            .collect();
        let window = 30_000u64;
        let out = run_explorer(
            &w, &cost, &mut clock, 0, window, 0, &region, &pending, 1_000, 7, 1,
        );
        assert_eq!(out.scan.traps(), 0, "functional explorer must not trap");
        for &(line, rd) in &out.resolved {
            let first_idx = pending
                .iter()
                .find(|k| k.line == line)
                .unwrap()
                .first_access_index;
            // Verify against brute force within the window.
            let window_accesses = first_idx - w.access_index_at_instr(region.start_instr - window);
            let truth = true_backward_rd(&w, line, first_idx, window_accesses);
            assert_eq!(Some(rd), truth, "line {line:?}");
        }
    }

    #[test]
    fn vdp_explorer_matches_functional_result() {
        let (w, region) = setup();
        let cost = CostModel::paper_host();
        let pending: Vec<PendingKey> = {
            let region_first = w.access_index_at_instr(region.detailed.start);
            (0..20)
                .map(|i| w.access_at(region_first + i * 3))
                .map(|a| PendingKey {
                    line: a.line(),
                    first_access_index: a.index,
                })
                .collect()
        };
        let mut c1 = HostClock::new();
        let mut c2 = HostClock::new();
        let f = run_explorer(
            &w, &cost, &mut c1, 0, 20_000, 0, &region, &pending, 1_000, 7, 1,
        );
        let v = run_explorer(
            &w, &cost, &mut c2, 1, 20_000, 0, &region, &pending, 1_000, 7, 1,
        );
        let mut fr = f.resolved.clone();
        let mut vr = v.resolved.clone();
        fr.sort_unstable_by_key(|&(l, _)| l);
        vr.sort_unstable_by_key(|&(l, _)| l);
        assert_eq!(fr, vr, "VDP and functional must agree on key rds");
        assert!(v.scan.traps() > 0, "VDP should trap on key pages");
    }

    #[test]
    fn key_watchpoints_survive_vicinity_overlap() {
        // Regression for the key/vicinity watchpoint clash: with a
        // vicinity period of 1 every access arms a sample, so the key
        // lines themselves are armed and later disarmed as vicinity
        // samples. The key watchpoints must stay armed for the whole
        // window — every access to a key line keeps trapping as a hit.
        let (w, region) = setup();
        let cost = CostModel::paper_host();
        let region_first = w.access_index_at_instr(region.detailed.start);
        let pending: Vec<PendingKey> = (0..10)
            .map(|i| w.access_at(region_first + i * 7))
            .map(|a| PendingKey {
                line: a.line(),
                first_access_index: a.index,
            })
            .collect();
        let window = 20_000u64;
        let mut c1 = HostClock::new();
        let mut c2 = HostClock::new();
        let f = run_explorer(&w, &cost, &mut c1, 0, window, 0, &region, &pending, 1, 7, 1);
        let v = run_explorer(&w, &cost, &mut c2, 1, window, 0, &region, &pending, 1, 7, 1);
        // Functional and VDP still agree on the resolved reuse distances.
        let mut fr = f.resolved.clone();
        let mut vr = v.resolved.clone();
        fr.sort_unstable_by_key(|&(l, _)| l);
        vr.sort_unstable_by_key(|&(l, _)| l);
        assert_eq!(fr, vr);
        // Every scanned access to a key line must be a true hit: the key
        // stays watched even after an overlapping vicinity sample
        // resolves. (The pre-refcount WatchSet dropped the key watch on
        // vicinity resolution and undercounted these.)
        let first = w.access_index_at_instr(region.start_instr.saturating_sub(window));
        let end = w.access_index_at_instr(region.start_instr);
        let key_lines: Vec<LineAddr> = pending.iter().map(|k| k.line).collect();
        let key_accesses = w
            .iter_range(first..end)
            .filter(|a| key_lines.contains(&a.line()))
            .count() as u64;
        assert!(key_accesses > 0, "degenerate window");
        assert!(
            v.scan.true_hits >= key_accesses,
            "true hits {} < key-line accesses {}: a key watchpoint was dropped",
            v.scan.true_hits,
            key_accesses
        );
    }

    #[test]
    fn wider_windows_resolve_more() {
        let (w, region) = setup();
        let cost = CostModel::paper_host();
        let mut clock = HostClock::new();
        // A synthetic far-fetched key: a line that does not appear close to
        // the region. Find one by probing backward.
        let region_first = w.access_index_at_instr(region.detailed.start);
        let probe = w.access_at(region_first.saturating_sub(15_000));
        let pending = vec![PendingKey {
            line: probe.line(),
            first_access_index: region_first + 1,
        }];
        let narrow = run_explorer(
            &w, &cost, &mut clock, 0, 3_000, 0, &region, &pending, 10_000, 7, 1,
        );
        let wide = run_explorer(
            &w,
            &cost,
            &mut clock,
            0,
            region.start_instr,
            0,
            &region,
            &pending,
            10_000,
            7,
            1,
        );
        assert!(wide.resolved.len() >= narrow.resolved.len());
        assert_eq!(wide.resolved.len() + wide.remaining.len(), 1);
    }

    #[test]
    fn vicinity_sampling_collects_at_rate() {
        let (w, region) = setup();
        let cost = CostModel::paper_host();
        let mut clock = HostClock::new();
        let out = run_explorer(&w, &cost, &mut clock, 0, 60_000, 0, &region, &[], 100, 7, 1);
        // 60k instructions / period 3 = 20k accesses, rate 1/100 → ~200
        // samples armed; hot lines reuse fast so most resolve.
        assert!(
            out.vicinity_count > 100,
            "vicinity samples {}",
            out.vicinity_count
        );
        assert!(out.vicinity.total_weight() >= out.vicinity_count as f64);
    }

    #[test]
    fn pending_from_keyset_is_sorted() {
        let mut ks = KeySet::new();
        for l in [5u64, 1, 9, 3] {
            ks.insert_first(
                LineAddr(l),
                crate::keyset::KeyInfo {
                    first_access_index: 100 + l,
                    pc: delorean_trace::Pc(0),
                },
            );
        }
        let pending = pending_from_keyset(&ks);
        let lines: Vec<u64> = pending.iter().map(|k| k.line.0).collect();
        assert_eq!(lines, vec![1, 3, 5, 9]);
    }
}
