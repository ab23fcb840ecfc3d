//! The explorer scan over a workload's line domains against the
//! one-domain walk.
//!
//! A `PhasedWorkload` splits each explorer window into one page-disjoint
//! domain per compiled stream, and the scan jumps over a domain while it
//! holds no watched line. [`OneDomain`] wraps the same workload but
//! implements only `Workload`'s required methods plus `cursor`, so it
//! takes the trait's one-domain default: the plain linear walk. Every
//! explorer outcome, and every DeLorean report, must be identical through
//! both.

use delorean::core::explorer::{pending_from_keyset, run_explorer, ExplorerOutcome, PendingKey};
use delorean::core::scout::scout_region;
use delorean::prelude::*;
use delorean::sampling::Region;
use delorean::trace::{AccessCursor, BranchModel, MemAccess, PhasedWorkload};
use delorean::virt::{HostClock, WatchScanStats};
use std::ops::Range;

const REGIONS: u32 = 3;
const SEED: u64 = 42;

/// `workload` behind only the required methods and `cursor`.
struct OneDomain<'a>(&'a PhasedWorkload);

impl Workload for OneDomain<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn mem_period(&self) -> u64 {
        self.0.mem_period()
    }

    fn access_at(&self, k: u64) -> MemAccess {
        self.0.access_at(k)
    }

    fn branch_model(&self) -> BranchModel {
        self.0.branch_model()
    }

    fn cursor<'c>(&'c self, range: Range<u64>) -> Box<dyn AccessCursor + 'c> {
        self.0.cursor(range)
    }
}

/// Everything an explorer produced, with the clock as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    resolved: Vec<(LineAddrBits, u64)>,
    remaining: Vec<PendingKey>,
    bins: Vec<(u64, u64)>,
    total_bits: u64,
    vicinity_count: u64,
    traps: (u64, u64, u64),
    clock_bits: u64,
}

type LineAddrBits = u64;

fn observe(out: &ExplorerOutcome, clock: &HostClock) -> Observed {
    Observed {
        resolved: out.resolved.iter().map(|&(l, rd)| (l.0, rd)).collect(),
        remaining: out.remaining.clone(),
        bins: out
            .vicinity
            .histogram()
            .iter()
            .map(|(d, w)| (d, w.to_bits()))
            .collect(),
        total_bits: out.vicinity.total_weight().to_bits(),
        vicinity_count: out.vicinity_count,
        traps: (
            out.scan.accesses_scanned,
            out.scan.false_positives,
            out.scan.true_hits,
        ),
        clock_bits: clock.seconds().to_bits(),
    }
}

fn tiny_plan() -> RegionPlan {
    SamplingConfig::for_scale(Scale::tiny())
        .with_regions(REGIONS)
        .plan()
}

/// The Scout → Explorer chain of one region through `w`: per explorer,
/// its outcome, clock and scan statistics.
fn chain(
    w: &dyn Workload,
    region: &Region,
    prev_end: u64,
    vicinity_period: u64,
) -> Vec<(Observed, WatchScanStats)> {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let config = DeLoreanConfig::for_scale(scale);
    let cost = CostModel::paper_host();
    let mult = tiny_plan().config.work_multiplier();
    let mut scout_clock = HostClock::new();
    let scout = scout_region(w, &machine, &cost, &mut scout_clock, region, prev_end, mult);
    let mut pending = pending_from_keyset(&scout.keyset);
    let windows = &config.explorer_windows_instrs;
    let mut outs = Vec::new();
    for (k, &window) in windows.iter().enumerate() {
        if pending.is_empty() {
            break;
        }
        let prev_window = if k == 0 { 0 } else { windows[k - 1] };
        let mut clock = HostClock::new();
        let out = run_explorer(
            w,
            &cost,
            &mut clock,
            k,
            window,
            prev_window,
            region,
            &pending,
            vicinity_period,
            config.seed,
            mult,
        );
        outs.push((observe(&out, &clock), out.scan));
        pending = out.remaining;
    }
    outs
}

/// Both walks of one region's chain must agree on every observable.
fn check_region(w: &PhasedWorkload, region: &Region, prev_end: u64, period: u64) -> usize {
    let split = chain(w, region, prev_end, period);
    let linear = chain(&OneDomain(w), region, prev_end, period);
    assert_eq!(
        split.len(),
        linear.len(),
        "{} region {}",
        w.name(),
        region.index
    );
    for (e, ((s, s_scan), (l, l_scan))) in split.iter().zip(&linear).enumerate() {
        assert_eq!(
            s,
            l,
            "{} region {} explorer {} period {period}",
            w.name(),
            region.index,
            e + 1
        );
        assert_eq!(
            l_scan.accesses_generated, l_scan.accesses_scanned,
            "the one-domain walk generates every access"
        );
        assert!(s_scan.accesses_generated <= s_scan.accesses_scanned);
    }
    split.len()
}

/// Every suite input's chain over the plan's regions, region 0's windows
/// clamped at instruction 0 among them, at vicinity period `period`.
fn every_input_matches(period: u64) {
    let plan = tiny_plan();
    let mut explorers = 0;
    for name in SPEC2006_NAMES {
        let w = spec_workload(name, Scale::tiny(), SEED).expect("suite input");
        let mut prev_end = 0;
        for region in &plan.regions {
            explorers += check_region(&w, region, prev_end, period);
            prev_end = region.detailed.end;
        }
    }
    assert!(explorers > 24 * 3, "only {explorers} explorer runs");
}

#[test]
fn every_input_matches_sampling_every_access() {
    every_input_matches(1);
}

#[test]
fn every_input_matches_sampling_one_in_7() {
    every_input_matches(7);
}

#[test]
fn every_input_matches_at_the_default_period() {
    every_input_matches(DeLoreanConfig::for_scale(Scale::tiny()).vicinity_period_accesses);
}

#[test]
fn windows_across_the_cycle_wrap_match() {
    let windows = DeLoreanConfig::for_scale(Scale::tiny()).explorer_windows_instrs;
    let mut vdp_crossings = 0;
    // The two-phase inputs: the wrap also switches phase.
    for name in ["soplex", "GemsFDTD", "calculix", "xalancbmk"] {
        let w = spec_workload(name, Scale::tiny(), SEED).expect("suite input");
        let wrap = w.cycle_len_accesses() * w.mem_period();
        // Explorer `e`'s exclusive slice is `[start − windows[e], start −
        // windows[e − 1])`: centre it on the wrap.
        for e in 0..windows.len() {
            let prev = if e == 0 { 0 } else { windows[e - 1] };
            let start = wrap + (windows[e] + prev) / 2;
            assert!(start - windows[e] < wrap && wrap < start - prev);
            let region = Region {
                index: 5,
                start_instr: start,
                warming: start - 30_000..start,
                detailed: start..start + 10_000,
            };
            let ran = check_region(&w, &region, region.warming.start, 7);
            if e == 0 {
                assert!(ran > 0, "{name}: Explorer-1 must run");
            } else if ran > e {
                vdp_crossings += 1;
            }
        }
    }
    assert!(vdp_crossings > 0, "no VDP explorer scanned across a wrap");
}

#[test]
fn delorean_reports_match_the_one_domain_walk() {
    let scale = Scale::tiny();
    let plan = tiny_plan();
    let runner = DeLoreanRunner::new(
        MachineConfig::for_scale(scale),
        DeLoreanConfig::for_scale(scale),
    );
    for name in ["mcf", "povray", "lbm"] {
        let w = spec_workload(name, scale, SEED).expect("suite input");
        let split = DeLoreanOutput::try_from(runner.run_with_workers(&w, &plan, 1))
            .expect("DeLorean extras");
        let linear = DeLoreanOutput::try_from(runner.run_with_workers(&OneDomain(&w), &plan, 1))
            .expect("DeLorean extras");
        assert_eq!(split.report, linear.report, "{name}: report");
        assert_eq!(split.stats, linear.stats, "{name}: time-traveling stats");
        assert_eq!(split.dsw_counts, linear.dsw_counts, "{name}: DSW counts");
    }
}

/// VDP explorers' `(generated, scanned)` summed over the plan's regions,
/// sampling vicinity at demo scale's period (1 in 1000 accesses). Tiny
/// scale's own period (1 in 25) samples every stream more densely than a
/// walk's first batch, so no domain idles long enough to skip.
fn vdp_generated_and_scanned(w: &dyn Workload) -> (u64, u64) {
    let plan = tiny_plan();
    let period = DeLoreanConfig::for_scale(Scale::tiny())
        .with_vicinity_period(Scale::demo(), 100_000)
        .vicinity_period_accesses;
    let mut total = WatchScanStats::default();
    let mut prev_end = 0;
    for region in &plan.regions {
        for (_, scan) in chain(w, region, prev_end, period).iter().skip(1) {
            total.merge(scan);
        }
        prev_end = region.detailed.end;
    }
    (total.accesses_generated, total.accesses_scanned)
}

#[test]
fn vdp_scans_skip_unwatched_streams_through_every_reference() {
    // Measured 0.146 (lbm) and 0.224 (cactusADM); a walk that lost the
    // split through a forwarding miss reads 1.0.
    for (name, bound) in [("lbm", 0.25), ("cactusADM", 0.35)] {
        let w = spec_workload(name, Scale::tiny(), SEED).expect("suite input");
        let direct = vdp_generated_and_scanned(&w);
        let r = &w;
        let dyn_w: &dyn Workload = &w;
        assert_eq!(direct, vdp_generated_and_scanned(&r), "{name}: through &&W");
        assert_eq!(
            direct,
            vdp_generated_and_scanned(&dyn_w),
            "{name}: through &&dyn Workload"
        );
        let (generated, scanned) = direct;
        assert!(scanned > 0, "{name}: no VDP scan ran");
        let ratio = generated as f64 / scanned as f64;
        assert!(
            ratio < bound,
            "{name}: VDP generated/scanned {ratio:.3} ≥ {bound} ({generated}/{scanned})"
        );
    }
}
