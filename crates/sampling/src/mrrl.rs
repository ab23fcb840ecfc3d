//! MRRL: adaptive functional warming (Haskins & Skadron, §7 related
//! work).
//!
//! Memory Reference Reuse Latency warming shortens functional warming
//! instead of replacing it: profile the distribution of *reuse latencies*
//! (instructions between consecutive references to the same line), pick
//! the warming window that covers a target percentile, and only
//! functionally warm that window before each region — fast-forwarding the
//! rest.
//!
//! It sits between SMARTS and the statistical strategies: cheaper than
//! full functional warming, but it still simulates *every* access inside
//! the chosen window — the inherent limitation the paper's §7 calls out
//! ("even though the interval is shortened, these techniques still need
//! to simulate all of them").

use crate::config::{Region, RegionPlan};
use crate::driver::{units_in_span, RegionUnit, UnitDriver};
use crate::scheduler::RegionScheduler;
use crate::strategy::{SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_statmodel::LogHistogram;
use delorean_trace::fault::FaultPolicy;
use delorean_trace::{LineMap, MemAccess, Workload, WorkloadExt};
use delorean_virt::WorkKind;

/// Accesses profiled per region to estimate the latency distribution.
const PROFILE_ACCESSES: u64 = 50_000;

/// Reuse-latency coverage target (the original work uses ~99.9%).
const PERCENTILE: f64 = 0.999;

/// The MRRL adaptive-functional-warming runner.
#[derive(Clone, Debug)]
pub struct MrrlRunner {
    machine: MachineConfig,
}

impl MrrlRunner {
    /// A runner with Table 1 timing, paper-host costs and 99.9% coverage.
    pub fn new(machine: MachineConfig) -> Self {
        MrrlRunner { machine }
    }

    /// Estimate the warming window (in instructions) covering the target
    /// percentile of reuse latencies near `around_access`.
    fn warming_window(&self, workload: &dyn Workload, around_access: u64) -> u64 {
        let p = workload.mem_period();
        let start = around_access.saturating_sub(PROFILE_ACCESSES);
        let mut hist = LogHistogram::new();
        let mut last: LineMap<u64> = LineMap::new();
        workload.for_each_line(start..around_access, |k, line| {
            if let Some(prev) = last.insert(line, k) {
                hist.add((k - prev) * p, 1.0);
            }
        });
        if hist.is_empty() {
            return PROFILE_ACCESSES * p;
        }
        hist.quantile(PERCENTILE)
    }

    /// The per-region unit body: a pure function of `(index, region)` —
    /// the fast-forward skip comes from the *plan*, and each unit warms
    /// its own fresh hierarchy — so a guarded run may retry it from the
    /// top.
    fn region_unit<'a>(
        &'a self,
        workload: &'a dyn Workload,
        plan: &'a RegionPlan,
    ) -> impl Fn(u32, &Region) -> RegionUnit + Sync + 'a {
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();

        move |i: u32, region: &Region| {
            let mut driver = UnitDriver::new(workload);
            let prev_end = if i == 0 {
                0
            } else {
                plan.regions[i as usize - 1].detailed.end
            };
            // Pick this region's warming window from local reuse latencies
            // (profiling cost: functional over the profile slice).
            let region_first = workload.access_index_at_instr(region.detailed.start);
            driver.charge_work(WorkKind::Functional, PROFILE_ACCESSES * p);
            let window = self
                .warming_window(workload, region_first)
                .clamp(p, region.warming.start);

            // Fast-forward to the window, then functionally warm a FRESH
            // hierarchy (state before the window is assumed covered by the
            // percentile choice).
            let warm_start = region.warming.start.saturating_sub(window);
            let skip = warm_start.saturating_sub(prev_end);
            driver.charge_work(WorkKind::Vff, skip * mult);
            driver.charge_work(WorkKind::Functional, window * mult);
            let mut hierarchy = Hierarchy::new(&self.machine);
            let from = workload.access_index_at_instr(warm_start);
            let to = workload.access_index_at_instr(region.warming.start);
            hierarchy.warm_range(workload, from..to);

            let mut source = |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
            driver.measure_region(region, &mut source)
        }
    }
}

impl SamplingStrategy for MrrlRunner {
    fn name(&self) -> &str {
        "mrrl"
    }

    /// MRRL under the region scheduler: each region profiles its own
    /// reuse latencies and warms a **fresh** hierarchy over its own
    /// window, and the fast-forward skip is derived from the *plan*
    /// (the previous region's end), not from execution state — so every
    /// region is one independent parallel unit. Under a fault policy a
    /// unit quarantines alone.
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: Option<&FaultPolicy>,
    ) -> StrategyReport {
        let units = RegionScheduler::new(workers).run_units_isolated(
            &plan.regions,
            policy,
            self.region_unit(workload, plan),
        );
        StrategyReport::from_units(workload, plan, self.name(), &[], units)
    }

    /// MRRL decomposes fully: the unit body is a pure function of
    /// `(index, region)` — the fast-forward skip comes from the *plan*
    /// (the previous region's end), never from execution state — so
    /// any span of plan regions evaluates anywhere and folds back
    /// bitwise identically.
    fn run_unit_span(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        span: std::ops::Range<u32>,
    ) -> Option<Vec<RegionUnit>> {
        Some(units_in_span(plan, span, self.region_unit(workload, plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SamplingConfig, SmartsRunner};
    use delorean_trace::{spec_workload, Scale};

    fn setup() -> (impl Workload, MachineConfig, RegionPlan) {
        let scale = Scale::tiny();
        (
            spec_workload("hmmer", scale, 1).unwrap(),
            MachineConfig::for_scale(scale),
            SamplingConfig::for_scale(scale).with_regions(3).plan(),
        )
    }

    #[test]
    fn mrrl_is_faster_than_smarts_and_roughly_accurate() {
        let (w, machine, plan) = setup();
        let smarts = SmartsRunner::new(machine).run(&w, &plan);
        let mrrl = MrrlRunner::new(machine).run(&w, &plan);
        assert!(
            mrrl.speedup_vs(&smarts) > 1.0,
            "speedup {}",
            mrrl.speedup_vs(&smarts)
        );
        let err = mrrl.cpi_error_vs(&smarts);
        assert!(err < 0.25, "MRRL error {err}");
    }
}
