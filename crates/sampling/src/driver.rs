//! Per-unit scaffolding and input-ordered reduction for sampling
//! strategies.
//!
//! Every warming strategy evaluates the same skeleton per detailed
//! region: charge host cost for the warm-up work, run detailed warming
//! plus the measured region against a strategy-specific outcome source,
//! and record the region result. Under the region-parallel runtime
//! ([`RegionScheduler`](crate::RegionScheduler)) that skeleton is one
//! **unit**: [`UnitDriver`] owns a single region's clock and result, and
//! [`reduce_units_partial`] folds the finished units back into a
//! [`SimulationReport`] **in plan order** — so the assembled report (its
//! `f64` cost sums included) is bitwise identical for every worker
//! count, and the sequential driver is simply the scheduler at one
//! worker.

use crate::config::{Region, RegionPlan};
use crate::report::{RegionReport, SimulationReport};
use crate::run_region_detailed;
use delorean_cpu::{OutcomeSource, TimingConfig};
use delorean_trace::Workload;
use delorean_virt::{CostModel, HostClock, RunCost, WorkKind};
use std::ops::Range;

/// Drives one region unit: its parallel-lane cost clock, the detailed
/// simulation of its region, and the unit result.
#[derive(Debug)]
pub(crate) struct UnitDriver<'a> {
    workload: &'a dyn Workload,
    clock: HostClock,
    collected: u64,
}

impl<'a> UnitDriver<'a> {
    /// A driver for one unit, with an empty clock.
    pub fn new(workload: &'a dyn Workload) -> Self {
        UnitDriver {
            workload,
            clock: HostClock::new(),
            collected: 0,
        }
    }

    /// Charge `instrs` instructions of `kind` work to the unit clock.
    pub fn charge_work(&mut self, kind: WorkKind, instrs: u64) {
        self.clock
            .charge(CostModel::paper_host().instr_seconds(kind, instrs));
    }

    /// The unit clock, for a pass that charges it per event itself.
    pub fn clock(&mut self) -> &mut HostClock {
        &mut self.clock
    }

    /// Charge raw host seconds (per-event costs such as traps).
    pub fn charge_seconds(&mut self, seconds: f64) {
        self.clock.charge(seconds);
    }

    /// Count reuse distances collected during warm-up (Figure 6).
    pub fn record_collected(&mut self, n: u64) {
        self.collected += n;
    }

    /// Charge the detailed span (warming + measured region, at face
    /// value), run it against `source`, and finish the unit.
    pub fn measure_region(mut self, region: &Region, source: &mut dyn OutcomeSource) -> RegionUnit {
        let span = region.detailed.end.saturating_sub(region.warming.start);
        self.clock
            .charge(CostModel::paper_host().instr_seconds(WorkKind::Detailed, span));
        let result = run_region_detailed(self.workload, region, &TimingConfig::table1(), source);
        RegionUnit {
            report: RegionReport {
                region: region.index,
                detailed: result,
            },
            seconds: self.clock.seconds(),
            collected: self.collected,
        }
    }
}

/// The finished output of one region unit.
///
/// This is the serialization boundary of the region-parallel runtime:
/// a unit is a plain value — region result, parallel-lane seconds,
/// collected reuse distances — so decomposable strategies can evaluate
/// units anywhere (another thread, another process, another host) and
/// ship them back for the plan-ordered fold
/// ([`reduce_region_units`]). Producing units out of order, in
/// batches, or redundantly never changes the folded report.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionUnit {
    /// The measured region result.
    pub report: RegionReport,
    /// Parallel-lane host seconds this unit consumed.
    pub seconds: f64,
    /// Reuse distances the unit collected.
    pub collected: u64,
}

/// Fold finished units (plus optional per-unit chained-lane seconds)
/// into the final report, in plan order.
///
/// `chained` holds the sequential carried-state lane's per-unit cost
/// (empty for strategies whose regions are fully independent). The fold
/// charges `chained[i]` then `units[i].seconds` for each region in
/// order, so the resulting pass total has one fixed `f64` summation
/// tree regardless of how the units were scheduled.
///
/// `None` slots are **quarantined holes** (units a guarded run gave up
/// on): they are skipped entirely — no region report, no cost unit, no
/// chained charge — so with every slot `Some` a guarded run's report is
/// bitwise identical to the unguarded one's. `covered_instrs`
/// intentionally stays the full plan's figure: the report still
/// describes the same sampling design, and the caller's
/// [`StrategyReport::quarantined`](crate::StrategyReport::quarantined)
/// names exactly which units are missing from it.
pub(crate) fn reduce_units_partial(
    workload: &dyn Workload,
    plan: &RegionPlan,
    strategy: &str,
    chained: &[f64],
    units: Vec<Option<RegionUnit>>,
) -> SimulationReport {
    reduce_named(workload.name(), plan, strategy, chained, units)
}

/// The plan regions with `span` indices (clamped to the plan), each
/// evaluated by `unit` — the shared
/// [`SamplingStrategy::run_unit_span`](crate::SamplingStrategy::run_unit_span)
/// body of the strategies whose regions are fully independent.
pub(crate) fn units_in_span(
    plan: &RegionPlan,
    span: Range<u32>,
    unit: impl Fn(u32, &Region) -> RegionUnit,
) -> Vec<RegionUnit> {
    let hi = (span.end as usize).min(plan.regions.len());
    let lo = (span.start as usize).min(hi);
    plan.regions[lo..hi]
        .iter()
        .map(|r| unit(r.index, r))
        .collect()
}

/// Fold independently-evaluated units back into a [`SimulationReport`]
/// in plan order — the public face of the in-process fold, for callers
/// (the shard broker) that hold serialized units and the workload's
/// *name* rather than the workload itself.
///
/// For strategies whose regions are fully independent (empty chained
/// lane: CoolSim, MRRL), feeding this the units produced by
/// [`SamplingStrategy::run_unit_span`](crate::SamplingStrategy::run_unit_span)
/// over the whole plan yields a report **bitwise identical** to
/// [`SamplingStrategy::run`](crate::SamplingStrategy::run) — the fold
/// is literally the same code with the same fixed `f64` summation
/// tree. `None` slots are quarantined holes, skipped exactly as a
/// guarded in-process run skips them.
pub fn reduce_region_units(
    workload_name: &str,
    plan: &RegionPlan,
    strategy: &str,
    units: Vec<Option<RegionUnit>>,
) -> SimulationReport {
    reduce_named(workload_name, plan, strategy, &[], units)
}

/// The one fold every reduce path shares.
fn reduce_named(
    workload_name: &str,
    plan: &RegionPlan,
    strategy: &str,
    chained: &[f64],
    units: Vec<Option<RegionUnit>>,
) -> SimulationReport {
    let mut clock = HostClock::new();
    let mut cost = RunCost::new(plan.regions.len() as u64);
    let mut regions = Vec::with_capacity(units.len());
    let mut collected = 0u64;
    for (i, unit) in units.into_iter().enumerate() {
        let Some(unit) = unit else { continue };
        let chain = chained.get(i).copied().unwrap_or(0.0);
        clock.charge(chain);
        clock.charge(unit.seconds);
        cost.push_unit(unit.report.region, chain, unit.seconds);
        collected += unit.collected;
        regions.push(unit.report);
    }
    cost.push(strategy, clock);
    SimulationReport {
        workload: workload_name.to_string(),
        strategy: strategy.into(),
        regions,
        collected_reuse_distances: collected,
        cost,
        covered_instrs: plan.represented_instrs(),
    }
}
