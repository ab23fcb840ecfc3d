//! SMARTS: sampled simulation with functional warming.
//!
//! The reference methodology (Wunderlich et al., ISCA 2003): between
//! detailed regions, *every* memory access is run through the simulated
//! cache hierarchy so that cache state is always perfectly warm. Accurate
//! and storage-free, but slow — the cost model charges every warm-up
//! instruction at functional-simulation speed, which is why the paper
//! measures SMARTS at 1.3 MIPS.

use crate::chain::{ProxyStateSource, SpeculationExtras, WarmChain};
use crate::config::{Region, RegionPlan};
use crate::driver::UnitDriver;
use crate::strategy::{SamplingStrategy, StrategyReport};
use delorean_cache::MachineConfig;
use delorean_trace::fault::FaultPolicy;
use delorean_trace::{MemAccess, Workload};
use delorean_virt::{CostModel, WorkKind};

/// The SMARTS (functional warming) runner.
#[derive(Clone, Debug)]
pub struct SmartsRunner {
    machine: MachineConfig,
    proxy: Option<ProxyStateSource>,
}

impl SmartsRunner {
    /// A runner with Table 1 timing and the paper-host cost model.
    pub fn new(machine: MachineConfig) -> Self {
        SmartsRunner {
            machine,
            proxy: None,
        }
    }

    /// Enable the speculative warm lane: every
    /// [`SamplingStrategy`] entry point speculates from this proxy
    /// source at any worker count (see
    /// [`run_speculative_with_workers`](Self::run_speculative_with_workers)),
    /// attaching [`SpeculationExtras`] to the report. The report itself
    /// stays bitwise identical to the non-speculative run — speculation
    /// is a scheduling strategy, not a semantic one.
    pub fn with_speculation(mut self, proxy: ProxyStateSource) -> Self {
        self.proxy = Some(proxy);
        self
    }

    /// SMARTS through the **speculative warm lane**: this runner
    /// [`with_speculation`](Self::with_speculation)`(proxy)`, run on
    /// `workers` workers.
    ///
    /// Every region becomes an independent spec task: build a proxy of
    /// the chain state at the region's span start (see
    /// [`ProxyStateSource`]), record its digest, then warm and measure
    /// from it, on every worker at once. The reconciler advances the
    /// true carried state in plan order: on a digest match the spec
    /// task's measurement *and its end state* are adopted verbatim (the
    /// chain skips the region's warm work — the source of the modeled
    /// speedup); otherwise the region is re-warmed and re-measured in
    /// place. Every unit's chained charge is the same arithmetic on
    /// every path, so the [`SimulationReport`](crate::SimulationReport)
    /// is bitwise identical to sequential SMARTS at every worker count
    /// and for every proxy source (pinned by `tests/determinism.rs`).
    /// The outcomes ride along as [`SpeculationExtras`], from which
    /// [`RunCost::speculative_wallclock`](delorean_virt::RunCost::speculative_wallclock)
    /// models the lane's wall-clock.
    pub fn run_speculative_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        proxy: ProxyStateSource,
        workers: usize,
    ) -> StrategyReport {
        self.clone()
            .with_speculation(proxy)
            .run_with_workers(workload, plan, workers)
    }
}

impl SamplingStrategy for SmartsRunner {
    fn name(&self) -> &str {
        "smarts"
    }

    /// SMARTS on the one warm chain that checkpoint preparation also
    /// walks: the chain resumes at each region's detailed end, the step
    /// at the boundary measures in place, and each region's chained
    /// charge is its warm span's plus a replay charge.
    ///
    /// The proxy is the one [`with_speculation`](SmartsRunner::with_speculation)
    /// chose, else [`ProxyStateSource::StatModel`] above one worker —
    /// the warm span dominates every region, so only speculation buys
    /// overlap — else none, when every region is warmed and measured in
    /// place with no digest computed. The report is bitwise identical
    /// at every worker count, and [`SpeculationExtras`] are attached
    /// only when `with_speculation` chose the proxy (asserted by
    /// `tests/determinism.rs` and `tests/golden_reports.rs`).
    ///
    /// Under a fault policy the chain has one failure domain. Injected
    /// faults at the
    /// [`FaultSite::ReconcilerCommit`](delorean_trace::fault::FaultSite::ReconcilerCommit)
    /// gate fire before the step mutates anything, so they are retried.
    /// A genuine panic inside a step may leave the carried hierarchy
    /// half-mutated, so it quarantines that unit after one attempt and
    /// poisons every later unit. Spec tasks whose retries at
    /// [`FaultSite::UnitEntry`](delorean_trace::fault::FaultSite::UnitEntry)
    /// run out degrade to the miss path — they never quarantine.
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: Option<&FaultPolicy>,
    ) -> StrategyReport {
        let chain = WarmChain {
            machine: &self.machine,
            workload,
            plan,
            resume: |region| region.detailed.end,
            drain: false,
            extra_charge: Some(replay_seconds),
        };
        // Measure in place: the shared access core mutates the
        // hierarchy through the measured span exactly as the chain's own
        // miss path would, so it ends at the next boundary's state.
        let run = chain.run(self.proxy, workers, policy, |hierarchy, region| {
            let mut source = |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
            let unit = UnitDriver::new(workload).measure_region(region, &mut source);
            let seconds = unit.seconds;
            (unit, seconds)
        });
        let report =
            StrategyReport::from_units(workload, plan, self.name(), &run.chained, run.units);
        match self.proxy {
            Some(proxy) => report.with_extras(SpeculationExtras {
                proxy,
                outcomes: run.outcomes,
            }),
            None => report,
        }
    }
}

/// The chained charge for a functional replay of the measured span at
/// face value. No path replays it any more (the chain measures in
/// place); the charge stays only so reports stay byte-identical to the
/// recorded digests.
fn replay_seconds(workload: &dyn Workload, region: &Region) -> f64 {
    let measured = workload
        .access_index_at_instr(region.detailed.end)
        .saturating_sub(workload.access_index_at_instr(region.warming.start));
    CostModel::paper_host().instr_seconds(WorkKind::Functional, measured * workload.mem_period())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingConfig;
    use delorean_trace::{spec_workload, Scale};

    fn quick_plan() -> RegionPlan {
        SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan()
    }

    #[test]
    fn produces_region_results_and_cost() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let report =
            SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        assert_eq!(report.regions.len(), 3);
        assert!(report.cpi() > 0.0);
        assert!(report.cost.total_resources() > 0.0);
        assert_eq!(report.strategy, "smarts");
        assert_eq!(report.collected_reuse_distances, 0);
        assert!(report.extras::<()>().is_none());
    }

    #[test]
    fn warm_caches_make_hot_workloads_fast() {
        // bwaves is hot-set dominated: with full functional warming, most
        // region accesses must be L1 hits and CPI must be near base.
        let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
        let report =
            SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        let t = report.total();
        let l1_rate = t.level_counts[0] as f64 / t.mem_accesses as f64;
        assert!(l1_rate > 0.8, "bwaves L1 hit rate {l1_rate}");
        assert!(report.cpi() < 1.5, "bwaves CPI {}", report.cpi());
    }

    #[test]
    fn speed_is_dominated_by_functional_warming() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let report = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        // Effective speed must be within 2× of raw functional speed.
        let mips = report.mips_pipelined();
        assert!(
            mips > 0.6 && mips < 3.0,
            "SMARTS speed should sit near functional-simulation speed, got {mips}"
        );
    }

    #[test]
    fn speculative_reports_are_bitwise_sequential() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let runner = SmartsRunner::new(machine);
        let sequential = runner.run(&w, &plan);
        for proxy in [ProxyStateSource::StatModel, ProxyStateSource::Poisoned] {
            for workers in [1usize, 4] {
                let spec = runner.run_speculative_with_workers(&w, &plan, proxy, workers);
                assert_eq!(
                    spec.report,
                    sequential.report,
                    "proxy {} workers {workers}",
                    proxy.name()
                );
            }
        }
    }

    #[test]
    fn statmodel_proxy_commits_on_hmmer() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let spec = SmartsRunner::new(machine).run_speculative_with_workers(
            &w,
            &plan,
            ProxyStateSource::StatModel,
            4,
        );
        let extras = spec.extras::<SpeculationExtras>().expect("extras");
        assert!(
            extras.hit_rate() > 0.5,
            "statmodel hit rate {} on hmmer",
            extras.hit_rate()
        );
        let speedup = spec.report.cost.speculative_speedup(4, &extras.outcomes);
        assert!(speedup > 1.0, "modeled speedup {speedup}");
    }

    #[test]
    fn poisoned_proxy_never_commits_but_still_reports_sequential() {
        let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let spec = SmartsRunner::new(machine).run_speculative_with_workers(
            &w,
            &plan,
            ProxyStateSource::Poisoned,
            4,
        );
        let extras = spec.extras::<SpeculationExtras>().expect("extras");
        assert_eq!(extras.hits(), 0, "poison must never commit");
        let sequential = SmartsRunner::new(machine).run(&w, &plan);
        assert_eq!(spec.report, sequential.report);
    }

    #[test]
    fn with_speculation_routes_the_strategy_entry_points() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let runner = SmartsRunner::new(machine).with_speculation(ProxyStateSource::Poisoned);
        let report = runner.run_with_workers(&w, &plan, 2);
        assert!(report.extras::<SpeculationExtras>().is_some());
        assert_eq!(
            report.report,
            SmartsRunner::new(machine).run(&w, &plan).report
        );
    }

    #[test]
    fn plain_runs_above_one_worker_carry_no_speculation_extras() {
        let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let runner = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny()));
        let sequential = runner.run(&w, &plan);
        for workers in [2usize, 3] {
            let parallel = runner.run_with_workers(&w, &plan, workers);
            assert!(parallel.extras::<SpeculationExtras>().is_none());
            assert_eq!(parallel.report, sequential.report, "workers {workers}");
        }
    }

    #[test]
    fn determinism_across_runs() {
        let w = spec_workload("namd", Scale::tiny(), 1).unwrap();
        let r1 = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        let r2 = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &quick_plan());
        assert_eq!(r1.cpi(), r2.cpi());
        assert_eq!(r1.total(), r2.total());
    }
}
