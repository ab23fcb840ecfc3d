//! Checkpointed warming (CW): the TurboSMARTS / Live-points family.
//!
//! The paper's §7 contrasts DeLorean with checkpoint-based warming:
//! snapshot the microarchitectural state before each detailed region once,
//! then reuse the snapshots for later evaluation runs. CW is fast after
//! the (expensive, functional-warming) preparation run and exactly as
//! accurate as SMARTS — but it pays storage per region and the
//! checkpoints are invalidated by *any* software change and by hardware
//! changes to the structures they capture, which is precisely why the
//! paper pursues statistical warming instead.
//!
//! This module reproduces the trade-off quantitatively: preparation cost,
//! per-region storage (Live-points-style valid-lines serialization — the
//! paper cites 142 KiB per Live point vs 20–100 MiB per Flex point), and
//! evaluation-run speed including checkpoint load time.

use crate::config::{Region, RegionPlan};
use crate::driver::UnitDriver;
use crate::proxy::{proxy_at, ProxyStateSource, SpeculationExtras};
use crate::report::SimulationReport;
use crate::scheduler::RegionScheduler;
use crate::strategy::{SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, HierarchySnapshot, MachineConfig};
use delorean_trace::fault::{self, FaultPolicy};
use delorean_trace::{MemAccess, Workload};
use delorean_virt::{CostModel, HostClock, SpecUnit, WorkKind};

/// The checkpoints of one (workload, plan, machine) combination.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    snapshots: Vec<HierarchySnapshot>,
    /// Host seconds spent producing the checkpoints (one functional-
    /// warming pass over the whole program).
    pub preparation_seconds: f64,
}

impl CheckpointSet {
    /// Number of checkpoints (= regions).
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` if no checkpoints were captured.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Total storage across all regions, bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.snapshots.iter().map(|s| s.storage_bytes()).sum()
    }
}

/// Strategy extras attached by [`CheckpointWarmingRunner`]'s
/// [`SamplingStrategy::run`]: the preparation-run trade-off the
/// evaluation report deliberately excludes.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointExtras {
    /// Total checkpoint storage, bytes.
    pub storage_bytes: u64,
    /// Host seconds of the preparation (functional-warming) run.
    pub preparation_seconds: f64,
}

/// Modeled checkpoint-load bandwidth, bytes/second: a 2009-era disk.
/// Every evaluation unit charges its snapshot's storage at this rate.
const LOAD_BYTES_PER_SECOND: f64 = 100.0e6;

/// Checkpointed-warming runner: prepare once, evaluate cheaply.
#[derive(Clone, Debug)]
pub struct CheckpointWarmingRunner {
    machine: MachineConfig,
}

impl CheckpointWarmingRunner {
    /// A runner with Table 1 timing and paper-host costs.
    pub fn new(machine: MachineConfig) -> Self {
        CheckpointWarmingRunner { machine }
    }

    /// The preparation run: functional warming across the whole program,
    /// snapshotting the hierarchy at each region's warming start.
    ///
    /// This costs as much as one SMARTS run minus the detailed regions —
    /// checkpointing only pays off when the snapshots are reused. It is
    /// the speculative lane with no proxy: every step takes the
    /// reconciler's miss path, one worker warming the chain in place.
    pub fn prepare(&self, workload: &dyn Workload, plan: &RegionPlan) -> CheckpointSet {
        self.prepare_chain(workload, plan, None, 1).0
    }

    /// The preparation run through the **speculative warm lane**: the
    /// warm chain between snapshots is the same chain SMARTS walks, so
    /// the same protocol applies — each worker builds a proxy of the
    /// chain state at its region's boundary, digests it, warms its span
    /// and snapshots; the reconciler advances the true state and on a
    /// digest match adopts the worker's snapshot and end state, else
    /// re-warms the span itself.
    ///
    /// One wrinkle: [`Hierarchy::snapshot`] drains the MSHRs, so the
    /// chain state at every boundary after the first is post-drain. The
    /// spec worker mirrors that by draining its proxy before digesting,
    /// keeping the comparison apples-to-apples.
    ///
    /// Committed snapshots may differ from sequentially-prepared ones in
    /// *dead* bytes (absolute recency stamps) — but storage accounting
    /// (valid lines) and every evaluation run built on them are
    /// functions of the live state only, so `preparation_seconds`,
    /// [`CheckpointSet::storage_bytes`] and the evaluation
    /// [`SimulationReport`] are all identical to sequential preparation
    /// (pinned by `tests/determinism.rs`).
    pub fn prepare_speculative(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        proxy: ProxyStateSource,
        workers: usize,
    ) -> (CheckpointSet, SpeculationExtras) {
        let (set, outcomes) = self.prepare_chain(workload, plan, Some(proxy), workers);
        (set, SpeculationExtras { proxy, outcomes })
    }

    /// The one preparation chain: spec tasks speculate from `proxy`
    /// (or return `None` without doing work when there is none), and
    /// the reconciler's step either adopts a matching speculation or
    /// warms the span from the true state.
    fn prepare_chain(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        proxy: Option<ProxyStateSource>,
        workers: usize,
    ) -> (CheckpointSet, Vec<SpecUnit>) {
        let p = workload.mem_period();
        let mult = plan.config.work_multiplier();
        let mut positions = Vec::with_capacity(plan.regions.len());
        let mut pos = 0u64;
        for region in &plan.regions {
            positions.push(pos);
            pos = region.warming.start / p;
        }
        let positions = &positions;
        let warm_seconds = |from: u64, to: u64| {
            CostModel::paper_host()
                .instr_seconds(WorkKind::Functional, to.saturating_sub(from) * p * mult)
        };

        struct Speculation {
            digest: u64,
            end_state: Hierarchy,
            snapshot: HierarchySnapshot,
            proxy_seconds: f64,
            total_seconds: f64,
        }

        let ctx = crate::proxy::ProxyContext {
            machine: &self.machine,
            cost: &CostModel::paper_host(),
            workload,
            p,
            mult,
        };
        let spec = |i: u32, region: &Region| {
            let proxy = proxy?;
            let at = positions[i as usize];
            let (mut h, proxy_seconds) = proxy.build(&ctx, at);
            // The chain drained its MSHRs when it snapshotted at `at`.
            h.drain_mshrs();
            let digest = h.state_digest();
            let warm_end = region.warming.start / p;
            h.warm_range(workload, at..warm_end);
            let snapshot = h.snapshot();
            Some(Speculation {
                digest,
                end_state: h,
                snapshot,
                proxy_seconds,
                total_seconds: proxy_seconds + warm_seconds(at, warm_end),
            })
        };

        let mut hierarchy = Hierarchy::new(&self.machine);
        let mut pos_access = 0u64;
        let mut clock = HostClock::new();
        let mut outcomes: Vec<SpecUnit> = Vec::with_capacity(plan.regions.len());
        let snapshots = RegionScheduler::new(workers).run_speculative(
            &plan.regions,
            spec,
            |i: u32, region: &Region, s: Option<Speculation>| -> HierarchySnapshot {
                debug_assert_eq!(pos_access, positions[i as usize]);
                let warm_end = region.warming.start / p;
                clock.charge(warm_seconds(pos_access, warm_end));
                let from = pos_access;
                pos_access = warm_end;
                if let Some(s) = s {
                    // drain_mshrs is idempotent on the already-drained
                    // chain (and a no-op on the cold start), so digesting
                    // after it matches the spec worker's comparison point.
                    hierarchy.drain_mshrs();
                    let committed = hierarchy.state_digest() == s.digest;
                    outcomes.push(SpecUnit {
                        unit: i,
                        committed,
                        proxy_seconds: s.proxy_seconds,
                        speculative_seconds: s.total_seconds,
                    });
                    if committed {
                        hierarchy.copy_state_from(&s.end_state);
                        return s.snapshot;
                    }
                }
                hierarchy.warm_range(workload, from..warm_end);
                hierarchy.snapshot()
            },
        );
        let set = CheckpointSet {
            snapshots,
            preparation_seconds: clock.seconds(),
        };
        (set, outcomes)
    }

    /// An evaluation run from existing checkpoints: load, detailed-warm,
    /// simulate. Accuracy is identical to SMARTS by construction (the
    /// state is the real functional-warming state).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint count does not match the plan.
    pub fn run_with(
        &self,
        checkpoints: &CheckpointSet,
        workload: &dyn Workload,
        plan: &RegionPlan,
    ) -> SimulationReport {
        self.evaluate(checkpoints, workload, plan, 1, None)
            .into_report()
    }

    /// Evaluation at `workers`, guarded under `policy`: every region
    /// unit restores its own snapshot into a fresh hierarchy, then
    /// detailed-warms and measures — a pure function of
    /// `(index, region)` given the checkpoint set, so evaluation fans
    /// out freely and a guarded run may retry a unit from the top.
    fn evaluate(
        &self,
        checkpoints: &CheckpointSet,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: Option<&FaultPolicy>,
    ) -> StrategyReport {
        assert_eq!(
            checkpoints.len(),
            plan.regions.len(),
            "checkpoint/plan mismatch"
        );
        let unit = |i: u32, region: &Region| {
            let mut driver = UnitDriver::new(workload);
            let snap = &checkpoints.snapshots[i as usize];
            // Load the checkpoint from storage.
            driver.charge_seconds(snap.storage_bytes() as f64 / LOAD_BYTES_PER_SECOND);
            let mut hierarchy = Hierarchy::new(&self.machine);
            hierarchy.restore(snap);
            // Detailed warming + region on the restored state.
            let mut source = |a: &MemAccess, now: u64| hierarchy.access_data(a.pc, a.line(), now);
            driver.measure_region(region, &mut source)
        };
        let units = RegionScheduler::new(workers).run_units_isolated(&plan.regions, policy, unit);
        StrategyReport::from_units(workload, plan, self.name(), &[], units)
    }
}

impl SamplingStrategy for CheckpointWarmingRunner {
    fn name(&self) -> &str {
        "checkpoint"
    }

    /// Prepare and evaluate (region-parallel at `workers`) in one call.
    /// The returned report covers the **evaluation run only**
    /// (checkpointing's selling point); the preparation cost and
    /// storage footprint — the trade-off against statistical warming —
    /// ride along as [`CheckpointExtras`].
    ///
    /// At one worker preparation is the sequential warm chain
    /// ([`prepare`](CheckpointWarmingRunner::prepare)). Above one it
    /// speculates from the [`ProxyStateSource::StatModel`] proxy (see
    /// [`prepare_speculative`](CheckpointWarmingRunner::prepare_speculative)),
    /// whose spec tasks warm the spans between snapshots on every worker. Its
    /// `preparation_seconds`, storage and evaluation report equal
    /// sequential preparation's, so the [`CheckpointExtras`] and the
    /// report are the same at every worker count.
    ///
    /// Under a fault policy, preparation — a warm chain over a locally
    /// owned hierarchy, a pure function of the workload and plan — is
    /// one guarded, retryable unit; if it runs out of retries, unit 0
    /// carries its fault, every later unit is chain-poisoned, and no
    /// extras are attached. Once the checkpoint set exists, evaluation
    /// units are retried and quarantined individually.
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: Option<&FaultPolicy>,
    ) -> StrategyReport {
        let prepare = || {
            self.prepare_chain(workload, plan, proxy_at(None, workers), workers)
                .0
        };
        let checkpoints = match policy {
            None => prepare(),
            Some(policy) => match fault::run_unit_guarded(0, policy, prepare) {
                Ok(set) => set,
                // Preparation never completed: no region has a
                // snapshot, so the whole sweep is quarantined behind
                // unit 0.
                Err(failure) => {
                    return StrategyReport::failed_whole(workload, plan, self.name(), failure)
                }
            },
        };
        self.evaluate(&checkpoints, workload, plan, workers, policy)
            .with_extras(CheckpointExtras {
                storage_bytes: checkpoints.storage_bytes(),
                preparation_seconds: checkpoints.preparation_seconds,
            })
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
    fn checkpoint_accuracy_matches_smarts_exactly() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        let cw = runner.run_with(&checkpoints, &w, &plan);
        let smarts = SmartsRunner::new(machine).run(&w, &plan);
        // CW restores the exact functional-warming state, so region
        // results are identical, not merely close.
        assert_eq!(cw.total(), smarts.total());
    }

    #[test]
    fn checkpoints_cost_storage() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        assert_eq!(checkpoints.len(), 3);
        assert!(!checkpoints.is_empty());
        // Later regions have warmer caches, so storage is non-trivial.
        assert!(
            checkpoints.storage_bytes() > 1_000,
            "storage {}",
            checkpoints.storage_bytes()
        );
        assert!(checkpoints.preparation_seconds > 0.0);
    }

    #[test]
    fn evaluation_runs_are_fast_after_preparation() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        let cw = runner.run_with(&checkpoints, &w, &plan);
        // The evaluation run avoids all functional warming: orders of
        // magnitude cheaper than preparation.
        assert!(
            cw.cost.serial_wallclock() * 10.0 < checkpoints.preparation_seconds,
            "eval {} vs prep {}",
            cw.cost.serial_wallclock(),
            checkpoints.preparation_seconds
        );
    }

    #[test]
    fn strategy_run_is_prepare_plus_eval_with_extras() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let via_trait = runner.run(&w, &plan);
        let checkpoints = runner.prepare(&w, &plan);
        let direct = runner.run_with(&checkpoints, &w, &plan);
        assert_eq!(via_trait.total(), direct.total());
        let extras = via_trait.extras::<CheckpointExtras>().expect("extras");
        assert_eq!(extras.storage_bytes, checkpoints.storage_bytes());
        assert_eq!(extras.preparation_seconds, checkpoints.preparation_seconds);
    }

    #[test]
    fn extras_and_report_do_not_depend_on_the_worker_count() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let sequential = runner.run_with_workers(&w, &plan, 1);
        let extras = sequential.extras::<CheckpointExtras>().expect("extras");
        for workers in [2usize, 4] {
            let parallel = runner.run_with_workers(&w, &plan, workers);
            assert_eq!(parallel.report, sequential.report, "workers {workers}");
            assert_eq!(
                parallel.extras::<CheckpointExtras>(),
                Some(extras),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn speculative_preparation_matches_sequential() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let sequential = runner.prepare(&w, &plan);
        let seq_eval = runner.run_with(&sequential, &w, &plan);
        for proxy in [ProxyStateSource::StatModel, ProxyStateSource::Poisoned] {
            for workers in [1usize, 4] {
                let (set, extras) = runner.prepare_speculative(&w, &plan, proxy, workers);
                assert_eq!(set.len(), sequential.len());
                assert_eq!(set.preparation_seconds, sequential.preparation_seconds);
                assert_eq!(set.storage_bytes(), sequential.storage_bytes());
                let eval = runner.run_with(&set, &w, &plan);
                assert_eq!(eval, seq_eval, "proxy {} workers {workers}", proxy.name());
                if proxy == ProxyStateSource::Poisoned {
                    assert_eq!(extras.hits(), 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint/plan mismatch")]
    fn mismatched_plan_is_rejected() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan);
        let other = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(5)
            .plan();
        let _ = runner.run_with(&checkpoints, &w, &other);
    }
}
