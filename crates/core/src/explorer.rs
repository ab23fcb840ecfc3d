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
//! Both explorer kinds run the one watchpoint scan,
//! [`delorean_virt::profile_reuses`], over the window: the pending keys
//! stay watched for the whole window and the vicinity samples arm at
//! positions drawn before the scan. Explorer-1 scans in
//! [`ScanMode::Functional`] (exact line membership, no traps), the VDP
//! explorers in [`ScanMode::Vdp`]. The scan walks the workload's
//! page-disjoint line domains, each only while it holds a watched line;
//! [`WatchScanStats::accesses_generated`] counts the accesses it
//! produced, against the `accesses_scanned` the cost model charges. An
//! explorer folds what the scan returns: each key's last access into a
//! resolved reuse distance, and the vicinity reuses plus the censored
//! unresolved samples into its vicinity histogram.

use crate::keyset::KeySet;
use delorean_sampling::Region;
use delorean_statmodel::ReuseProfile;
use delorean_trace::{CounterRng, LineAddr, Workload};
use delorean_virt::{profile_reuses, CostModel, HostClock, ScanMode, WatchScanStats, WorkKind};

/// A key cacheline still waiting for its last prior access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PendingKey {
    /// The watched line.
    pub line: LineAddr,
    /// Global access index of its first access in the region.
    pub first_access_index: u64,
}

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
    /// Scan statistics (no traps for the functional Explorer-1).
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

    // Cost: Explorer-1 interprets its window; later explorers VFF it and
    // pay per trap. (The pass-level VFF across the rest of the interval is
    // charged by the runner.)
    let (kind, mode) = if index == 0 {
        (WorkKind::Functional, ScanMode::Functional)
    } else {
        let trap_seconds = cost.trap_seconds;
        (WorkKind::Vff, ScanMode::Vdp { trap_seconds })
    };
    let span_accesses = end.saturating_sub(first);
    clock.charge(cost.instr_seconds(kind, span_accesses * p * work_multiplier));

    let keys: Vec<LineAddr> = pending.iter().map(|k| k.line).collect();
    let rng = CounterRng::new(seed ^ ((index as u64 + 1) << 48) ^ region.index as u64);
    let positions: Vec<u64> = rng
        .one_in_positions(first..end, vicinity_period_accesses)
        .collect();
    let mut vicinity = ReuseProfile::new();
    let mut vicinity_count = 0;
    let reuses = profile_reuses(
        workload,
        first..end,
        &keys,
        &positions,
        mode,
        clock,
        |_, distance| {
            vicinity.record(distance, 1.0);
            vicinity_count += 1;
        },
    );

    // Vicinity samples with no reuse before the scan end are *censored*:
    // the reuse is at least as long as the remaining window. Record them
    // at the censoring distance (a lower bound) rather than as cold —
    // treating them as infinite would inflate stack-distance estimates in
    // proportion to the censored fraction, which is large for the deep
    // explorers' exclusive windows.
    for set_at in reuses.unresolved {
        vicinity.record(end.saturating_sub(set_at + 1).max(1), 1.0);
    }

    let mut resolved = Vec::new();
    let mut remaining = Vec::new();
    for (k, last) in pending.iter().zip(reuses.last_key_access) {
        match last {
            Some(pos) if pos < k.first_access_index => {
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
        scan: reuses.stats,
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
        // resolves. (The pre-refcount watch set dropped the key watch on
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
