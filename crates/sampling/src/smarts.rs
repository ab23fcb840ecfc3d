//! SMARTS: sampled simulation with functional warming.
//!
//! The reference methodology (Wunderlich et al., ISCA 2003): between
//! detailed regions, *every* memory access is run through the simulated
//! cache hierarchy so that cache state is always perfectly warm. Accurate
//! and storage-free, but slow — the cost model charges every warm-up
//! instruction at functional-simulation speed, which is why the paper
//! measures SMARTS at 1.3 MIPS.

use crate::config::{Region, RegionPlan};
use crate::driver::{reduce_units, reduce_units_partial, RegionUnit, UnitDriver};
use crate::proxy::{ProxyStateSource, SpeculationExtras};
use crate::scheduler::RegionScheduler;
use crate::strategy::{PartialReport, SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_cpu::TimingConfig;
use delorean_trace::fault::FaultPolicy;
use delorean_trace::{MemAccess, Workload};
use delorean_virt::{CostModel, HostClock, SpecUnit, WorkKind};

/// The SMARTS (functional warming) runner.
#[derive(Clone, Debug)]
pub struct SmartsRunner {
    machine: MachineConfig,
    timing: TimingConfig,
    cost: CostModel,
    workers: usize,
    proxy: Option<ProxyStateSource>,
}

impl SmartsRunner {
    /// A runner with Table 1 timing and the paper-host cost model.
    pub fn new(machine: MachineConfig) -> Self {
        SmartsRunner {
            machine,
            timing: TimingConfig::table1(),
            cost: CostModel::paper_host(),
            workers: 1,
            proxy: None,
        }
    }

    /// Enable the speculative warm lane: [`run`] and
    /// [`run_with_workers`] go through
    /// [`run_speculative_with_workers`](Self::run_speculative_with_workers)
    /// with this proxy source, attaching [`SpeculationExtras`] to the
    /// report. The report itself stays bitwise identical to the
    /// non-speculative run — speculation is a scheduling strategy, not a
    /// semantic one.
    ///
    /// [`run`]: SamplingStrategy::run
    /// [`run_with_workers`]: SamplingStrategy::run_with_workers
    pub fn with_speculation(mut self, proxy: ProxyStateSource) -> Self {
        self.proxy = Some(proxy);
        self
    }

    /// Override the timing configuration.
    pub fn with_timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Override the host cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Set the region-scheduler worker count [`run`] uses. Results are
    /// byte-identical for every value.
    ///
    /// [`run`]: SamplingStrategy::run
    pub fn with_region_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// SMARTS through the **speculative warm lane**.
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
    /// `chain_step`'s — identical arithmetic to the sequential path —
    /// so the [`SimulationReport`](crate::SimulationReport) is bitwise
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
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let positions = &chain_positions(plan, p);
        let spec = |i: u32, region: &Region| {
            self.speculate(workload, positions, proxy, p, mult, i, region)
        };

        let mut hierarchy = Hierarchy::new(&self.machine);
        let mut pos_access = 0u64;
        let mut chained = Vec::with_capacity(plan.regions.len());
        let mut outcomes: Vec<SpecUnit> = Vec::with_capacity(plan.regions.len());
        let units = RegionScheduler::new(workers).run_speculative(
            &plan.regions,
            spec,
            |i: u32, region: &Region, s: Speculation| -> RegionUnit {
                debug_assert_eq!(pos_access, positions[i as usize]);
                let step = chain_step(&self.cost, workload, region, pos_access, p, mult);
                chained.push(step.seconds);
                let committed = hierarchy.state_digest() == s.digest;
                let unit = if committed {
                    hierarchy.copy_state_from(&s.end_state);
                    s.unit
                } else {
                    hierarchy.warm_range(workload, step.warm);
                    let driver = UnitDriver::new(workload, &self.timing, &self.cost);
                    let mut source =
                        |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
                    driver.measure_region(region, &mut source)
                };
                pos_access = step.next_pos;
                outcomes.push(SpecUnit {
                    unit: i,
                    committed,
                    proxy_seconds: s.proxy_seconds,
                    speculative_seconds: s.total_seconds,
                });
                unit
            },
        );
        let report = reduce_units(workload, plan, self.name(), &chained, units);
        StrategyReport::new(report).with_extras(SpeculationExtras { proxy, outcomes })
    }

    /// One speculation task: build the proxy state for region `i`'s
    /// boundary, record its digest, then warm and measure in place.
    /// Shared verbatim by the plain and fault-isolated speculative
    /// lanes — a pure function of `(i, region)`, which is what makes it
    /// safe for the isolated lane to retry from the top.
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
            cost: &self.cost,
            workload,
            p,
            mult,
        };
        let at = positions[i as usize];
        let prev = if i == 0 { 0 } else { positions[i as usize - 1] };
        let (mut h, proxy_seconds) = proxy.build(&ctx, at, prev);
        let digest = h.state_digest();
        let step = chain_step(&self.cost, workload, region, at, p, mult);
        h.warm_range(workload, step.warm);
        // Measure in place: the shared access core mutates the
        // hierarchy through the measured span exactly as the
        // chain's functional replay would, so `h` ends at the next
        // boundary's state.
        let driver = UnitDriver::new(workload, &self.timing, &self.cost);
        let mut source = |a: &MemAccess, now: u64| h.access_data(a.pc, a.line(), now);
        let unit = driver.measure_region(region, &mut source);
        let total_seconds = proxy_seconds + step.seconds + unit.seconds;
        Speculation {
            digest,
            end_state: h,
            unit,
            proxy_seconds,
            total_seconds,
        }
    }

    /// The speculative warm lane under **panic isolation**: spec tasks
    /// whose retries are exhausted degrade to the reconciler's miss
    /// path (full redo from the true chain state — never a quarantine),
    /// while reconciler-commit faults are retried at the injection gate
    /// and genuine reconciler deaths poison the rest of the chain. A
    /// clean run's report is bitwise identical to
    /// [`run_speculative_with_workers`](Self::run_speculative_with_workers)'s
    /// (speculation extras are not carried by partial reports).
    pub fn run_speculative_isolated_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        proxy: ProxyStateSource,
        workers: usize,
        policy: &FaultPolicy,
    ) -> PartialReport {
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let positions = &chain_positions(plan, p);
        let spec = |i: u32, region: &Region| {
            self.speculate(workload, positions, proxy, p, mult, i, region)
        };

        let mut hierarchy = Hierarchy::new(&self.machine);
        let mut pos_access = 0u64;
        let mut chained = Vec::with_capacity(plan.regions.len());
        let (outputs, quarantined) = RegionScheduler::new(workers).run_speculative_isolated(
            &plan.regions,
            policy,
            spec,
            |i: u32, region: &Region, s: Option<Speculation>| -> RegionUnit {
                debug_assert_eq!(pos_access, positions[i as usize]);
                let step = chain_step(&self.cost, workload, region, pos_access, p, mult);
                chained.push(step.seconds);
                let unit = match s {
                    Some(sp) if hierarchy.state_digest() == sp.digest => {
                        hierarchy.copy_state_from(&sp.end_state);
                        sp.unit
                    }
                    _ => {
                        // Miss path — taken both for a digest mismatch
                        // and for a degraded (faulted-out) speculation:
                        // identical chain arithmetic either way, which
                        // is why spec faults cannot move the report.
                        hierarchy.warm_range(workload, step.warm);
                        let driver = UnitDriver::new(workload, &self.timing, &self.cost);
                        let mut source =
                            |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
                        driver.measure_region(region, &mut source)
                    }
                };
                pos_access = step.next_pos;
                unit
            },
        );
        let report = reduce_units_partial(workload, plan, self.name(), &chained, outputs);
        PartialReport {
            report,
            quarantined,
        }
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

    fn run(&self, workload: &dyn Workload, plan: &RegionPlan) -> StrategyReport {
        self.run_with_workers(workload, plan, self.workers)
    }

    /// SMARTS under the region scheduler.
    ///
    /// At one worker the warm chain runs in place: functional warming
    /// up to each region's detailed-warming boundary, then detailed
    /// warming and the measured region on the same hierarchy, which
    /// leaves it at the next boundary's state.
    ///
    /// Above one worker the chain itself is the bottleneck — the warm
    /// span dominates every region, so decoupling only the measure
    /// bodies buys no overlap. The run therefore goes through the
    /// speculative warm lane with the [`ProxyStateSource::StatModel`]
    /// proxy (see
    /// [`run_speculative_with_workers`](SmartsRunner::run_speculative_with_workers)),
    /// whose spec tasks warm and measure whole regions on every worker.
    /// Its report is bitwise identical to the in-place path's, and its
    /// [`SpeculationExtras`] are dropped, so a plain SMARTS
    /// [`StrategyReport`] is the same at every worker count (asserted
    /// by `tests/determinism.rs` and `tests/golden_reports.rs`).
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        if let Some(proxy) = self.proxy {
            return self.run_speculative_with_workers(workload, plan, proxy, workers);
        }
        if workers > 1 {
            let spec = self.run_speculative_with_workers(
                workload,
                plan,
                ProxyStateSource::StatModel,
                workers,
            );
            return spec.into_report().into();
        }
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let mut hierarchy = Hierarchy::new(&self.machine);
        let mut pos_access: u64 = 0;
        // The replay seconds in each chain step are still charged, so
        // the cost accounting matches the fork-and-replay isolated path
        // and the speculative lane.
        let mut chained = Vec::with_capacity(plan.regions.len());
        let mut units = Vec::with_capacity(plan.regions.len());
        for region in &plan.regions {
            let step = chain_step(&self.cost, workload, region, pos_access, p, mult);
            hierarchy.warm_range(workload, step.warm);
            pos_access = step.next_pos;
            chained.push(step.seconds);

            let driver = UnitDriver::new(workload, &self.timing, &self.cost);
            let mut source = |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
            units.push(driver.measure_region(region, &mut source));
        }
        reduce_units(workload, plan, self.name(), &chained, units).into()
    }

    /// SMARTS with per-unit panic isolation.
    ///
    /// Always takes the **fork-based seeded path**: functional warming
    /// is the chained seed lane, and each measure body (detailed warming
    /// and the measured region) runs on its own [`Hierarchy::fork`] of the
    /// boundary state, fanned out across workers. To keep the carried
    /// state exact the seed lane *replays* each measured span
    /// functionally after forking: `simulate_detailed` issues precisely
    /// the data accesses of the span through the shared access core, so
    /// the replay leaves the chain bit-identical to an in-place
    /// measurement. An in-place measurement mutates the carried state as
    /// it goes, so a mid-flight fault would leave the chain
    /// unrecoverable; the fork path makes bodies retryable from a cloned
    /// seed and keeps the chain pristine. Every path takes its
    /// boundaries and charges from one `chain_step`, so a clean isolated
    /// run is still bitwise identical to the plain run.
    ///
    /// With speculation enabled the run goes through
    /// [`run_speculative_isolated_with_workers`](SmartsRunner::run_speculative_isolated_with_workers)
    /// instead.
    fn run_isolated(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: &FaultPolicy,
    ) -> PartialReport {
        if let Some(proxy) = self.proxy {
            return self
                .run_speculative_isolated_with_workers(workload, plan, proxy, workers, policy);
        }
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let mut hierarchy = Hierarchy::new(&self.machine);
        let mut pos_access: u64 = 0;

        let seed = move |_i: u32, region: &Region| {
            let step = chain_step(&self.cost, workload, region, pos_access, p, mult);
            hierarchy.warm_range(workload, step.warm);
            let unit_state = hierarchy.fork();
            hierarchy.warm_range(workload, step.measured);
            pos_access = step.next_pos;
            (unit_state, step.seconds)
        };

        let body = |_i: u32, region: &Region, (mut warm, chain_seconds): (Hierarchy, f64)| {
            let driver = UnitDriver::new(workload, &self.timing, &self.cost);
            let mut source = |a: &MemAccess, now: u64| warm.access_data(a.pc, a.line(), now);
            (chain_seconds, driver.measure_region(region, &mut source))
        };

        let (outputs, quarantined) =
            RegionScheduler::new(workers).run_seeded_isolated(&plan.regions, policy, seed, body);
        let mut chained = vec![0.0; outputs.len()];
        let mut units = Vec::with_capacity(outputs.len());
        for (i, o) in outputs.into_iter().enumerate() {
            match o {
                Some((c, u)) => {
                    chained[i] = c;
                    units.push(Some(u));
                }
                None => units.push(None),
            }
        }
        let report = reduce_units_partial(workload, plan, self.name(), &chained, units);
        PartialReport {
            report,
            quarantined,
        }
    }

    fn internal_parallelism(&self) -> usize {
        self.workers
    }
}

/// One warm-chain step's boundary and charge arithmetic.
struct ChainStep {
    /// Access range of the functional warm span (chain position up to
    /// the detailed-warming boundary).
    warm: std::ops::Range<u64>,
    /// Access range the detailed simulator will issue for this region
    /// (detailed warming + measured region) — the span the decomposed
    /// chain replays functionally.
    measured: std::ops::Range<u64>,
    /// Chain position after this region.
    next_pos: u64,
    /// Chained-lane seconds: the warm span at represented magnitude
    /// plus the replay at face value.
    seconds: f64,
}

/// Compute one region's chain step. Every SMARTS path (in-place
/// sequential, the speculative lane's reconciler and the isolated
/// fork-and-replay seed lane) takes its boundaries and charges from this
/// one function, which is what keeps their reports byte-identical by
/// construction.
fn chain_step(
    cost: &CostModel,
    workload: &dyn Workload,
    region: &Region,
    pos_access: u64,
    p: u64,
    mult: u64,
) -> ChainStep {
    let mut chain = HostClock::new();
    let warm_end_access = region.warming.start / p;
    let span = warm_end_access.saturating_sub(pos_access);
    chain.charge(cost.instr_seconds(WorkKind::Functional, span * p * mult));
    let measured = workload.access_index_at_instr(region.warming.start)
        ..workload.access_index_at_instr(region.detailed.end);
    chain.charge(cost.instr_seconds(
        WorkKind::Functional,
        measured.end.saturating_sub(measured.start) * p,
    ));
    ChainStep {
        warm: pos_access..warm_end_access,
        measured,
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
        for proxy in [
            ProxyStateSource::Cold,
            ProxyStateSource::NearestBoundary,
            ProxyStateSource::StatModel,
            ProxyStateSource::Poisoned,
        ] {
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
        let runner = SmartsRunner::new(machine)
            .with_speculation(ProxyStateSource::Cold)
            .with_region_workers(2);
        let report = runner.run(&w, &plan);
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
