//! The unified strategy-execution interface.
//!
//! Every warming strategy in the workspace — SMARTS, CoolSim, MRRL,
//! checkpointed warming and DeLorean itself — implements
//! [`SamplingStrategy`], so harness code (the parallel batch executor in
//! `delorean_bench`, the experiment drivers, integration tests) can hold
//! a `Box<dyn SamplingStrategy>` and run any mix of strategies through
//! one code path.
//!
//! A strategy returns a [`StrategyReport`]: the strategy-agnostic
//! [`SimulationReport`] every comparison is built on, the units a
//! guarded run quarantined, plus optional strategy-specific *extras*
//! (DeLorean attaches its time-traveling statistics and DSW
//! classification counters; checkpointed warming its storage
//! footprint). Extras are type-erased so this crate does not need to
//! know downstream types; consumers recover them with
//! [`StrategyReport::extras`] or [`StrategyReport::split`].

use crate::config::RegionPlan;
use crate::driver::{reduce_units_partial, RegionUnit};
use crate::report::SimulationReport;
use delorean_trace::fault::{FaultPolicy, UnitFailure, UnitFault};
use delorean_trace::Workload;
use std::any::Any;
use std::fmt;
use std::ops::{Deref, Range};

/// A sampled-simulation warming strategy, executable through a trait
/// object.
///
/// Implementations must be deterministic pure functions of
/// `(self, workload, plan)`: the batch executor runs strategies from
/// worker threads in arbitrary order and asserts that results are
/// byte-identical to serial execution.
///
/// # Example
///
/// Any mix of strategies runs through one trait-object code path:
///
/// ```
/// use delorean_cache::MachineConfig;
/// use delorean_sampling::{MrrlRunner, SamplingConfig, SamplingStrategy, SmartsRunner};
/// use delorean_trace::{spec_workload, Scale};
///
/// let scale = Scale::tiny();
/// let machine = MachineConfig::for_scale(scale);
/// let plan = SamplingConfig::for_scale(scale).with_regions(1).plan();
/// let w = spec_workload("hmmer", scale, 1).unwrap();
///
/// let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
///     Box::new(SmartsRunner::new(machine)),
///     Box::new(MrrlRunner::new(machine)),
/// ];
/// for s in &strategies {
///     let report = s.run(&w, &plan);
///     assert_eq!(report.strategy, s.name());
///     assert!(report.cpi() > 0.0);
///     // Scheduling is not semantics: any worker count, same bytes.
///     let parallel = s.run_with_workers(&w, &plan, 4);
///     assert_eq!(parallel.report, report.report);
/// }
/// ```
pub trait SamplingStrategy: Send + Sync {
    /// Stable lowercase identifier (`"smarts"`, `"coolsim"`, `"mrrl"`,
    /// `"checkpoint"`, `"delorean"`); also the `strategy` field of the
    /// returned report.
    fn name(&self) -> &str;

    /// Run the full sampled simulation over `plan`'s regions on
    /// `workers` region-scheduler workers — every strategy's **one
    /// execution body**; [`run`](SamplingStrategy::run) and
    /// [`run_with_workers`](SamplingStrategy::run_with_workers) are
    /// provided on top of it.
    ///
    /// With `policy = None` units run unguarded: a panic unwinds the
    /// caller, no fault site is traversed, and the report's quarantine
    /// list is empty. With `Some(policy)` every unit is guarded: faults
    /// are caught, retried within the policy's budget, and quarantined
    /// on exhaustion, so the run always completes with a typed
    /// [`StrategyReport::quarantined`] list instead of unwinding. A
    /// quarantined unit is missing from the report's `regions` and
    /// cost units, while `covered_instrs` still describes the full
    /// sampling design.
    ///
    /// `workers` and `policy` are pure scheduling: the report (extras
    /// included) must be byte-identical for every `workers` value, and
    /// a guarded run that quarantines nothing — no faults, or only
    /// faults that retries absorbed — must equal the unguarded run
    /// bitwise (`tests/determinism.rs` and `tests/fault_injection.rs`
    /// pin both for all five strategies).
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: Option<&FaultPolicy>,
    ) -> StrategyReport;

    /// Run unguarded at this strategy's own
    /// [`internal_parallelism`](SamplingStrategy::internal_parallelism).
    fn run(&self, workload: &dyn Workload, plan: &RegionPlan) -> StrategyReport {
        self.run_with_workers(workload, plan, self.internal_parallelism())
    }

    /// Run unguarded on `workers` region-scheduler workers:
    /// [`execute`](SamplingStrategy::execute) with no fault policy.
    fn run_with_workers(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
    ) -> StrategyReport {
        self.execute(workload, plan, workers, None)
    }

    /// Evaluate the plan regions with `span` indices as standalone
    /// [`RegionUnit`]s, or `None` if this strategy does not decompose.
    ///
    /// This is the shard layer's unit-granular lease surface: a
    /// strategy whose regions are **fully independent** (the unit body
    /// is a pure function of `(index, region)` and the chained lane is
    /// empty — CoolSim, MRRL) returns the exact units its in-process
    /// [`run`](SamplingStrategy::run) would produce for that span, so
    /// a broker may fan spans across processes and fold them with
    /// [`reduce_region_units`](crate::reduce_region_units) into a
    /// report bitwise identical to the in-process one. Strategies with
    /// carried state between regions (SMARTS's warm chain, checkpoint
    /// preparation, DeLorean's multi-pass cost structure) return
    /// `None` (the default) and are leased as whole cells instead.
    ///
    /// `span` is clamped to the plan; an empty clamped span yields an
    /// empty vector, not `None` — so `run_unit_span(w, plan, 0..0)` is a
    /// free probe of whether a strategy decomposes, which is how the
    /// shard broker decides which cells to lease as spans.
    fn run_unit_span(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        span: Range<u32>,
    ) -> Option<Vec<RegionUnit>> {
        let _ = (workload, plan, span);
        None
    }

    /// The region-scheduler worker count [`run`](SamplingStrategy::run)
    /// uses, and so the number of threads one `run` call spawns (1 by
    /// default; DeLorean sizes it to the host). Batch executors run the
    /// host's parallelism divided by the batch's maximum in cells at
    /// once, so nested parallelism does not oversubscribe the host.
    fn internal_parallelism(&self) -> usize {
        1
    }
}

impl fmt::Debug for dyn SamplingStrategy + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SamplingStrategy")
            .field("name", &self.name())
            .finish()
    }
}

/// The outcome of one [`SamplingStrategy::execute`]: the comparable
/// report, the units a guarded run quarantined, and optional
/// type-erased strategy extras.
///
/// Dereferences to [`SimulationReport`], so metric helpers (`cpi()`,
/// `speedup_vs(..)`, …) are available directly.
pub struct StrategyReport {
    /// The strategy-agnostic report (CPI/MPKI per region, host cost)
    /// over the units that completed.
    pub report: SimulationReport,
    /// Units a guarded run gave up on — they exhausted their retry
    /// budget, or were chain-poisoned by one that did — in plan order.
    /// Always empty for unguarded runs.
    pub quarantined: Vec<UnitFailure>,
    extras: Option<Box<dyn Any + Send + Sync>>,
}

impl StrategyReport {
    /// A complete report without extras.
    pub fn new(report: SimulationReport) -> Self {
        StrategyReport {
            report,
            quarantined: Vec::new(),
            extras: None,
        }
    }

    /// Whether every unit completed (the report is a full run).
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The outcome of a run guarded as **one whole unit** that ran out
    /// of retries: no region completed, unit 0 carries `failure`, and
    /// every later unit of `plan` is [`UnitFault::ChainPoisoned`] by
    /// it — so the report's regions plus the quarantine list still
    /// cover the plan.
    pub(crate) fn failed_whole(
        workload: &dyn Workload,
        plan: &RegionPlan,
        strategy: &str,
        failure: UnitFailure,
    ) -> Self {
        let n = plan.regions.len() as u32;
        let poisoned = (1..n).map(|unit| UnitFailure {
            unit,
            attempts: 0,
            fault: UnitFault::ChainPoisoned { upstream: 0 },
        });
        let units = (0..n).map(|_| None).collect();
        let quarantined = std::iter::once(failure).chain(poisoned).collect();
        Self::from_units(workload, plan, strategy, &[], (units, quarantined))
    }

    /// Fold a run's plan-ordered unit slots (`None` = quarantined; see
    /// the private `driver::reduce_units_partial`) into a report that
    /// carries the run's quarantine list.
    pub(crate) fn from_units(
        workload: &dyn Workload,
        plan: &RegionPlan,
        strategy: &str,
        chained: &[f64],
        (units, quarantined): (Vec<Option<RegionUnit>>, Vec<UnitFailure>),
    ) -> Self {
        StrategyReport {
            report: reduce_units_partial(workload, plan, strategy, chained, units),
            quarantined,
            extras: None,
        }
    }

    /// Attach strategy-specific extras.
    pub fn with_extras<T: Any + Send + Sync>(mut self, extras: T) -> Self {
        self.extras = Some(Box::new(extras));
        self
    }

    /// Borrow the extras, if present and of type `T`.
    pub fn extras<T: Any>(&self) -> Option<&T> {
        self.extras.as_ref()?.downcast_ref::<T>()
    }

    /// Split into the plain report and the extras, if of type `T`.
    /// Extras of a different type are dropped.
    pub fn split<T: Any>(self) -> (SimulationReport, Option<T>) {
        let extras = self
            .extras
            .and_then(|b| (b as Box<dyn Any>).downcast::<T>().ok())
            .map(|b| *b);
        (self.report, extras)
    }

    /// Discard any extras and return the plain report.
    pub fn into_report(self) -> SimulationReport {
        self.report
    }
}

impl From<SimulationReport> for StrategyReport {
    fn from(report: SimulationReport) -> Self {
        StrategyReport::new(report)
    }
}

impl Deref for StrategyReport {
    type Target = SimulationReport;

    fn deref(&self) -> &SimulationReport {
        &self.report
    }
}

impl fmt::Debug for StrategyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyReport")
            .field("report", &self.report)
            .field("quarantined", &self.quarantined)
            .field("has_extras", &self.extras.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Extra(u32);

    fn report() -> SimulationReport {
        SimulationReport {
            workload: "w".into(),
            strategy: "s".into(),
            ..Default::default()
        }
    }

    #[test]
    fn extras_round_trip_by_type() {
        let r = StrategyReport::new(report()).with_extras(Extra(7));
        assert_eq!(r.extras::<Extra>(), Some(&Extra(7)));
        assert_eq!(r.extras::<String>(), None);
        let (rep, extra) = r.split::<Extra>();
        assert_eq!(rep.strategy, "s");
        assert_eq!(extra, Some(Extra(7)));
    }

    #[test]
    fn deref_exposes_report_metrics() {
        let r = StrategyReport::new(report());
        assert_eq!(r.workload, "w");
        assert_eq!(r.regions.len(), 0);
    }

    #[test]
    fn split_with_wrong_type_drops_extras() {
        let r = StrategyReport::new(report()).with_extras(Extra(7));
        let (_, extra) = r.split::<String>();
        assert_eq!(extra, None);
    }
}
