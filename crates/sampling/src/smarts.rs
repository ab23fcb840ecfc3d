//! SMARTS: sampled simulation with functional warming.
//!
//! The reference methodology (Wunderlich et al., ISCA 2003): between
//! detailed regions, *every* memory access is run through the simulated
//! cache hierarchy so that cache state is always perfectly warm. Accurate
//! and storage-free, but slow — the cost model charges every warm-up
//! instruction at functional-simulation speed, which is why the paper
//! measures SMARTS at 1.3 MIPS.

use crate::config::{Region, RegionPlan};
use crate::driver::{RegionUnit, UnitDriver};
use crate::proxy::{proxy_at, ProxyStateSource, SpeculationExtras};
use crate::scheduler::RegionScheduler;
use crate::strategy::{SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_trace::fault::FaultPolicy;
use delorean_trace::{MemAccess, Workload};
use delorean_virt::{CostModel, HostClock, SpecUnit, WorkKind};

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
    /// Every region becomes an independent speculation task: build a
    /// proxy of the chain state at the region's boundary (see
    /// [`ProxyStateSource`]), record its digest, then warm and measure
    /// in place from it — no chain dependency, so tasks fan out across
    /// all `workers` workers at once (the reconciling caller claims
    /// spec tasks too whenever it has nothing to reconcile; see
    /// [`RegionScheduler::run_speculative`]). The reconciler advances
    /// the true carried state in plan order: when its digest equals the
    /// proxy's, the worker's start state was behaviourally identical to
    /// the chain's, so its measurement *and its end state* are adopted
    /// verbatim (the chain skips the region's warm work entirely — the
    /// source of the modeled speedup); otherwise the region is
    /// re-warmed and re-measured from the true state.
    ///
    /// Either way every unit's chained charge is
    /// `chain_step`'s — identical arithmetic on every path — so the
    /// [`SimulationReport`](crate::SimulationReport) is bitwise
    /// identical to sequential SMARTS at every worker count and for
    /// every proxy source (pinned by `tests/determinism.rs`). The
    /// speculation outcomes ride along as [`SpeculationExtras`], from
    /// which
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

    /// One speculation task: build the proxy state for region `i`'s
    /// boundary, record its digest, then warm and measure in place — a
    /// pure function of `(i, region)`, which is what makes it safe for
    /// a guarded run to retry it from the top.
    #[allow(clippy::too_many_arguments)] // mirrors the chain-step tuple one-for-one
    fn speculate(
        &self,
        workload: &dyn Workload,
        positions: &[u64],
        proxy: ProxyStateSource,
        p: u64,
        mult: u64,
        i: u32,
        region: &Region,
    ) -> Speculation {
        let ctx = crate::proxy::ProxyContext {
            machine: &self.machine,
            cost: &CostModel::paper_host(),
            workload,
            p,
            mult,
        };
        let at = positions[i as usize];
        let (mut h, proxy_seconds) = proxy.build(&ctx, at);
        let digest = h.state_digest();
        let step = chain_step(workload, region, at, p, mult);
        h.warm_range(workload, step.warm);
        // Measure in place: the shared access core mutates the
        // hierarchy through the measured span exactly as the chain's
        // own miss path would, so `h` ends at the next boundary's state.
        let unit = self.measure(workload, region, &mut h);
        let total_seconds = proxy_seconds + step.seconds + unit.seconds;
        Speculation {
            digest,
            end_state: h,
            unit,
            proxy_seconds,
            total_seconds,
        }
    }

    /// Detailed warming and the measured region on `hierarchy`, in place.
    fn measure(
        &self,
        workload: &dyn Workload,
        region: &Region,
        hierarchy: &mut Hierarchy,
    ) -> RegionUnit {
        let driver = UnitDriver::new(workload);
        let mut source = |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
        driver.measure_region(region, &mut source)
    }
}

/// One region's speculation outcome: the proxy digest, the end state to
/// adopt on commit, the measured unit, and the lane's modeled seconds.
struct Speculation {
    digest: u64,
    end_state: Hierarchy,
    unit: RegionUnit,
    proxy_seconds: f64,
    total_seconds: f64,
}

/// Chain access positions at each region boundary — pure plan
/// arithmetic, so neither the worker count nor speculation outcomes can
/// shift them.
fn chain_positions(plan: &RegionPlan, p: u64) -> Vec<u64> {
    let mut positions = Vec::with_capacity(plan.regions.len());
    let mut pos = 0u64;
    for region in &plan.regions {
        positions.push(pos);
        pos = region.detailed.end / p;
    }
    positions
}

impl SamplingStrategy for SmartsRunner {
    fn name(&self) -> &str {
        "smarts"
    }

    /// SMARTS under the region scheduler: the warm chain always runs
    /// through the speculative lane's reconciler, and its `step`
    /// closure is the one warm-chain body.
    ///
    /// The proxy is the one [`with_speculation`](SmartsRunner::with_speculation)
    /// chose, else [`ProxyStateSource::StatModel`] above one worker,
    /// else none. With no proxy (one worker) the spec tasks return
    /// `None` without doing any work, so every step is the in-place
    /// chain: functional warming up to the region's detailed-warming
    /// boundary, then detailed warming and the measured region on the
    /// same hierarchy, which leaves it at the next boundary's state —
    /// no digest computed. Above one worker the chain itself is the
    /// bottleneck — the warm span dominates every region, so decoupling
    /// only the measure bodies buys no overlap — so the run speculates
    /// (see [`run_speculative_with_workers`](SmartsRunner::run_speculative_with_workers)),
    /// whose spec tasks warm and measure whole regions on every worker.
    /// The report is bitwise identical at every worker count, and
    /// [`SpeculationExtras`] are attached only when `with_speculation`
    /// chose the proxy (asserted by `tests/determinism.rs` and
    /// `tests/golden_reports.rs`).
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
        let proxy = proxy_at(self.proxy, workers);
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let positions = &chain_positions(plan, p);
        let spec = |i: u32, region: &Region| {
            proxy.map(|proxy| self.speculate(workload, positions, proxy, p, mult, i, region))
        };
        let mut hierarchy = Hierarchy::new(&self.machine);
        let mut pos_access = 0u64;
        let mut chained = Vec::with_capacity(plan.regions.len());
        let mut outcomes = Vec::with_capacity(plan.regions.len());
        // The one warm-chain step. A speculation whose digest matches
        // the true state is adopted with its end state; otherwise (a
        // digest mismatch, a faulted-out speculation, or no proxy at
        // all) the step warms the span and measures in place. The
        // chained charge is the same either way, which is why neither
        // the proxy nor a spec fault can move the report.
        let mut step = |i: u32, region: &Region, s: Option<Speculation>| -> RegionUnit {
            debug_assert_eq!(pos_access, positions[i as usize]);
            let step = chain_step(workload, region, pos_access, p, mult);
            chained.push(step.seconds);
            pos_access = step.next_pos;
            if let Some(s) = s {
                let committed = hierarchy.state_digest() == s.digest;
                outcomes.push(SpecUnit {
                    unit: i,
                    committed,
                    proxy_seconds: s.proxy_seconds,
                    speculative_seconds: s.total_seconds,
                });
                if committed {
                    hierarchy.copy_state_from(&s.end_state);
                    return s.unit;
                }
            }
            hierarchy.warm_range(workload, step.warm);
            self.measure(workload, region, &mut hierarchy)
        };
        let units = RegionScheduler::new(workers).run_speculative_isolated(
            &plan.regions,
            policy,
            spec,
            |i, region, s| step(i, region, s.flatten()),
        );
        let report = StrategyReport::from_units(workload, plan, self.name(), &chained, units);
        match self.proxy {
            Some(proxy) => report.with_extras(SpeculationExtras { proxy, outcomes }),
            None => report,
        }
    }
}

/// One warm-chain step's boundary and charge arithmetic.
struct ChainStep {
    /// Access range of the functional warm span (chain position up to
    /// the detailed-warming boundary).
    warm: std::ops::Range<u64>,
    /// Chain position after this region.
    next_pos: u64,
    /// Chained-lane seconds: the warm span at represented magnitude
    /// plus a functional replay of the measured span at face value.
    seconds: f64,
}

/// Compute one region's chain step. Every SMARTS path — the spec tasks
/// and the reconciler's step — takes its boundaries and charges from
/// this one function, which keeps their reports byte-identical by
/// construction.
///
/// No path replays the measured span functionally any more (the chain
/// measures in place); the replay charge stays only so reports stay
/// byte-identical to the recorded digests.
fn chain_step(
    workload: &dyn Workload,
    region: &Region,
    pos_access: u64,
    p: u64,
    mult: u64,
) -> ChainStep {
    let cost = CostModel::paper_host();
    let mut chain = HostClock::new();
    let warm_end_access = region.warming.start / p;
    let span = warm_end_access.saturating_sub(pos_access);
    chain.charge(cost.instr_seconds(WorkKind::Functional, span * p * mult));
    let measured = workload
        .access_index_at_instr(region.detailed.end)
        .saturating_sub(workload.access_index_at_instr(region.warming.start));
    chain.charge(cost.instr_seconds(WorkKind::Functional, measured * p));
    ChainStep {
        warm: pos_access..warm_end_access,
        next_pos: region.detailed.end / p,
        seconds: chain.seconds(),
    }
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
