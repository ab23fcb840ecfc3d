//! CoolSim's warm-up interval scan over a workload's line domains
//! against the one-domain walk.
//!
//! A `PhasedWorkload` splits each warm-up interval into one page-disjoint
//! domain per compiled stream, and the scan jumps over a domain while no
//! sample is armed there. [`OneDomain`] wraps the same workload but
//! implements only `Workload`'s required methods plus `cursor`, so it
//! takes the trait's one-domain default, which jumps only while no
//! sample at all is armed. Every CoolSim report must be identical
//! through both.

use delorean::prelude::*;
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

/// Everything a CoolSim report says, with every `f64` as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per region: index, CPI bits, LLC MPKI bits.
    regions: Vec<(u32, u64, u64)>,
    collected: u64,
    /// Per pass: name and host-seconds bits.
    passes: Vec<(String, u64)>,
}

fn observe(report: &SimulationReport) -> Observed {
    Observed {
        regions: report
            .regions
            .iter()
            .map(|r| {
                (
                    r.region,
                    r.detailed.cpi().to_bits(),
                    r.detailed.llc_mpki().to_bits(),
                )
            })
            .collect(),
        collected: report.collected_reuse_distances,
        passes: report
            .cost
            .passes()
            .iter()
            .map(|p| (p.name.clone(), p.seconds.to_bits()))
            .collect(),
    }
}

fn tiny_plan() -> RegionPlan {
    SamplingConfig::for_scale(Scale::tiny())
        .with_regions(REGIONS)
        .plan()
}

fn runner(config: CoolSimConfig) -> CoolSimRunner {
    CoolSimRunner::new(MachineConfig::for_scale(Scale::tiny()), config)
}

/// Every suite input's CoolSim report through the native split and
/// through the one-domain walk, under `config`'s schedule.
fn every_input_matches(config: CoolSimConfig) {
    let plan = tiny_plan();
    let runner = runner(config);
    let mut collected = 0;
    for name in SPEC2006_NAMES {
        let w = spec_workload(name, Scale::tiny(), SEED).expect("suite input");
        let split = runner.run_with_workers(&w, &plan, 1).report;
        let linear = runner.run_with_workers(&OneDomain(&w), &plan, 1).report;
        assert_eq!(observe(&split), observe(&linear), "{name}");
        assert_eq!(split, linear, "{name}: report");
        collected += split.collected_reuse_distances;
    }
    assert!(collected > 0, "no input collected a reuse distance");
}

#[test]
fn every_input_matches_at_the_tiny_schedule() {
    every_input_matches(CoolSimConfig::for_scale(Scale::tiny()));
}

#[test]
fn every_input_matches_at_the_demo_schedule() {
    every_input_matches(CoolSimConfig::for_scale(Scale::demo()));
}

/// The interval scans' `(generated, scanned)` summed over the plan's
/// regions at demo scale's schedule (one sample per 400 to 100
/// instructions). Tiny scale's own schedule samples every stream more
/// densely than a walk's first batch, so no domain idles long enough to
/// skip.
fn interval_generated_and_scanned(w: &dyn Workload) -> (u64, u64) {
    let plan = tiny_plan();
    let runner = runner(CoolSimConfig::for_scale(Scale::demo()));
    let mut total = WatchScanStats::default();
    for region in &plan.regions {
        let mut clock = HostClock::new();
        total.merge(&runner.profile_interval(w, &plan, region, &mut clock).scan);
    }
    (total.accesses_generated, total.accesses_scanned)
}

#[test]
fn interval_scans_skip_unarmed_streams_through_every_reference() {
    // Measured 0.747 (lbm) and 0.719 (cactusADM). The one-domain walk
    // still jumps while no sample at all is armed, and reads 0.985 and
    // 0.989; a walk that lost the split through a forwarding miss reads
    // the same.
    for (name, bound) in [("lbm", 0.8), ("cactusADM", 0.8)] {
        let w = spec_workload(name, Scale::tiny(), SEED).expect("suite input");
        let direct = interval_generated_and_scanned(&w);
        let r = &w;
        let dyn_w: &dyn Workload = &w;
        assert_eq!(
            direct,
            interval_generated_and_scanned(&r),
            "{name}: through &&W"
        );
        assert_eq!(
            direct,
            interval_generated_and_scanned(&dyn_w),
            "{name}: through &&dyn Workload"
        );
        let (generated, scanned) = direct;
        assert!(scanned > 0, "{name}: no interval scan ran");
        let ratio = generated as f64 / scanned as f64;
        assert!(
            ratio < bound,
            "{name}: interval generated/scanned {ratio:.3} ≥ {bound} ({generated}/{scanned})"
        );
        let (linear, linear_scanned) = interval_generated_and_scanned(&OneDomain(&w));
        assert_eq!(linear_scanned, scanned, "{name}: one-domain interval");
        assert!(
            generated < linear && linear <= scanned,
            "{name}: split generated {generated}, one-domain {linear} of {scanned}"
        );
    }
}
