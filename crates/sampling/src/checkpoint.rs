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

use crate::chain::{ProxyStateSource, WarmChain};
use crate::config::{Region, RegionPlan};
use crate::driver::UnitDriver;
use crate::scheduler::RegionScheduler;
use crate::strategy::{SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, HierarchySnapshot, MachineConfig};
use delorean_trace::fault::{self, FaultPolicy};
use delorean_trace::{MemAccess, Workload};
use delorean_virt::{HostClock, SpecUnit};

/// The checkpoints of one (workload, plan, machine) combination.
struct CheckpointSet {
    snapshots: Vec<HierarchySnapshot>,
    /// Host seconds spent producing the checkpoints (one functional-
    /// warming pass over the whole program).
    preparation_seconds: f64,
}

impl CheckpointSet {
    /// Total storage across all regions, bytes.
    fn storage_bytes(&self) -> u64 {
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

    /// The preparation run: the warm chain SMARTS walks, resuming at
    /// each region's warming start and snapshotting there, speculating
    /// from `proxy` (else the chain's default at `workers`).
    ///
    /// This costs as much as one SMARTS run minus the detailed regions —
    /// checkpointing only pays off when the snapshots are reused.
    /// [`Hierarchy::snapshot`] drains the MSHRs, so the chain state at
    /// every boundary after the first is post-drain; the chain drains a
    /// spec task's proxy (and, idempotently, the carried state) before
    /// digesting, keeping the comparison apples-to-apples.
    ///
    /// Committed snapshots may differ from sequentially-prepared ones in
    /// *dead* bytes (absolute recency stamps) — but storage accounting
    /// (valid lines) and every evaluation run built on them are
    /// functions of the live state only, so `preparation_seconds`,
    /// storage and the evaluation report are all identical to
    /// sequential preparation.
    fn prepare(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        proxy: Option<ProxyStateSource>,
        workers: usize,
    ) -> (CheckpointSet, Vec<SpecUnit>) {
        let chain = WarmChain {
            machine: &self.machine,
            workload,
            plan,
            resume: |region| region.warming.start,
            drain: true,
            extra_charge: None,
        };
        let run = chain.run(proxy, workers, None, |hierarchy, _| {
            (hierarchy.snapshot(), 0.0)
        });
        let mut clock = HostClock::new();
        for &seconds in &run.chained {
            clock.charge(seconds);
        }
        let set = CheckpointSet {
            // An unguarded chain fills every slot.
            snapshots: run.units.0.into_iter().flatten().collect(),
            preparation_seconds: clock.seconds(),
        };
        (set, run.outcomes)
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
            checkpoints.snapshots.len(),
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
    /// Preparation walks the warm chain SMARTS walks, snapshotting at
    /// each region's warming start. At one worker it is the sequential
    /// chain; above one it speculates from the
    /// [`ProxyStateSource::StatModel`] proxy, whose spec tasks warm the
    /// spans between snapshots on every worker. Its
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
        let prepare = || self.prepare(workload, plan, None, workers).0;
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
        let checkpoints = runner.prepare(&w, &plan, None, 1).0;
        let cw = runner
            .evaluate(&checkpoints, &w, &plan, 1, None)
            .into_report();
        let smarts = SmartsRunner::new(machine).run(&w, &plan);
        // CW restores the exact functional-warming state, so region
        // results are identical, not merely close.
        assert_eq!(cw.total(), smarts.total());
    }

    #[test]
    fn checkpoints_cost_storage() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan, None, 1).0;
        assert_eq!(checkpoints.snapshots.len(), 3);
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
        let checkpoints = runner.prepare(&w, &plan, None, 1).0;
        let cw = runner
            .evaluate(&checkpoints, &w, &plan, 1, None)
            .into_report();
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
        let checkpoints = runner.prepare(&w, &plan, None, 1).0;
        let direct = runner
            .evaluate(&checkpoints, &w, &plan, 1, None)
            .into_report();
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
        let (_, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        for (name, seed, worker_counts) in [("hmmer", 1, [1usize, 4]), ("astar", 42, [2, 8])] {
            let w = spec_workload(name, Scale::tiny(), seed).unwrap();
            let sequential = runner.prepare(&w, &plan, None, 1).0;
            let seq_eval = runner
                .evaluate(&sequential, &w, &plan, 1, None)
                .into_report();
            for proxy in [ProxyStateSource::StatModel, ProxyStateSource::Poisoned] {
                for workers in worker_counts {
                    let at = format!("{name}: proxy {} workers {workers}", proxy.name());
                    let (set, outcomes) = runner.prepare(&w, &plan, Some(proxy), workers);
                    assert_eq!(set.snapshots.len(), sequential.snapshots.len(), "{at}");
                    assert_eq!(
                        set.preparation_seconds, sequential.preparation_seconds,
                        "{at}"
                    );
                    assert_eq!(set.storage_bytes(), sequential.storage_bytes(), "{at}");
                    let eval = runner.evaluate(&set, &w, &plan, 1, None).into_report();
                    assert_eq!(eval, seq_eval, "{at}");
                    assert_eq!(outcomes.len(), plan.regions.len(), "{at}");
                    if proxy == ProxyStateSource::Poisoned {
                        assert!(outcomes.iter().all(|o| !o.committed), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint/plan mismatch")]
    fn mismatched_plan_is_rejected() {
        let (w, machine, plan) = setup();
        let runner = CheckpointWarmingRunner::new(machine);
        let checkpoints = runner.prepare(&w, &plan, None, 1).0;
        let other = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(5)
            .plan();
        let _ = runner.evaluate(&checkpoints, &w, &other, 1, None);
    }
}
