//! The warm chain SMARTS and checkpoint preparation both walk, and the
//! speculative lane that breaks it.
//!
//! Both strategies carry one hierarchy through the plan: functional
//! warming over each region's **warm span** — from where the previous
//! region's step left the chain up to the region's detailed-warming
//! boundary — then a step at the boundary (SMARTS measures in place,
//! checkpoint preparation snapshots). [`WarmChain`] owns the span, its
//! charge and the speculation protocol; the strategies state only what
//! differs between them.
//!
//! The chain is sequential because the hierarchy at a region boundary
//! depends on every access before it. The speculative lane breaks it by
//! *guessing* that state: each spec task builds a cheap **proxy** of the
//! hierarchy at its span's start, records the proxy's
//! [`Hierarchy::state_digest`], then warms the span and runs the step
//! from it in parallel. A sequential reconciler compares the digest
//! against the true carried state — on a match the spec task's output
//! and end state are adopted as-is; on a mismatch the region is
//! re-warmed and re-stepped from the true state, so every output is
//! bitwise identical to the sequential chain either way.
//!
//! A proxy source must be a **deterministic function of
//! `(workload, plan, region index)`** — never of runtime timing —
//! so the commit/miss pattern (and with it the modeled speedup and the
//! speculation extras) is identical at every worker count.

use crate::config::{Region, RegionPlan};
use crate::scheduler::RegionScheduler;
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_statmodel::plan_warm_window;
use delorean_trace::fault::{FaultPolicy, UnitFailure};
use delorean_trace::{LineAddr, Pc, Workload};
use delorean_virt::{CostModel, HostClock, SpecUnit, WorkKind};
use std::ops::Range;

/// One warm chain over a plan. The last three fields are what SMARTS
/// and checkpoint preparation state differently.
pub(crate) struct WarmChain<'a> {
    pub machine: &'a MachineConfig,
    pub workload: &'a dyn Workload,
    pub plan: &'a RegionPlan,
    /// The instruction the chain resumes at after a region's step.
    pub resume: fn(&Region) -> u64,
    /// Drain the MSHRs before either side digests. On the carried state
    /// this is a no-op when every boundary state comes from a draining
    /// step or the cold start; it stays so both sides settle alike.
    pub drain: bool,
    /// Chained seconds charged after each warm span's.
    pub extra_charge: Option<fn(&dyn Workload, &Region) -> f64>,
}

/// A chain run's plan-ordered results.
pub(crate) struct ChainRun<R> {
    /// Step outputs (`None` = quarantined) and the failures.
    pub units: (Vec<Option<R>>, Vec<UnitFailure>),
    /// Every region's chained seconds.
    pub chained: Vec<f64>,
    /// Every speculated region's outcome.
    pub outcomes: Vec<SpecUnit>,
}

/// One spec task's output: the proxy digest, the end state and step
/// output to adopt on commit, and the lane's modeled seconds.
struct Speculation<R> {
    digest: u64,
    end_state: Hierarchy,
    out: R,
    proxy_seconds: f64,
    speculative_seconds: f64,
}

impl WarmChain<'_> {
    /// Region `i`'s warm span in access positions: from where the
    /// previous region's step left the chain up to `warming.start / p`.
    /// Pure plan arithmetic, so neither the worker count nor
    /// speculation outcomes can shift it.
    fn span(&self, i: usize) -> Range<u64> {
        let p = self.workload.mem_period();
        let from = match i.checked_sub(1) {
            Some(prev) => (self.resume)(&self.plan.regions[prev]) / p,
            None => 0,
        };
        from..self.plan.regions[i].warming.start / p
    }

    /// Region `i`'s chained seconds: the warm span at functional speed
    /// and represented magnitude, then the extra charge, folded in that
    /// order.
    fn charge(&self, i: usize) -> f64 {
        let span = self.span(i);
        let instrs = span.end.saturating_sub(span.start)
            * self.workload.mem_period()
            * self.plan.config.work_multiplier();
        let mut clock = HostClock::new();
        clock.charge(CostModel::paper_host().instr_seconds(WorkKind::Functional, instrs));
        if let Some(extra) = self.extra_charge {
            clock.charge(extra(self.workload, &self.plan.regions[i]));
        }
        clock.seconds()
    }

    fn settle(&self, hierarchy: &mut Hierarchy) {
        if self.drain {
            hierarchy.drain_mshrs();
        }
    }

    /// Walk the chain at `workers` under `policy`, running `step` — which
    /// returns its output and modeled seconds — on the warmed hierarchy
    /// at every region boundary.
    ///
    /// The proxy is `configured`, else [`ProxyStateSource::StatModel`]
    /// above one worker, else none. With no proxy the spec tasks return
    /// `None` without doing any work and every region takes the
    /// in-place path, with no digest computed. A spec task's
    /// `speculative_seconds` is its proxy's, plus the region's chained
    /// seconds, plus the step's. The chained seconds are the same on
    /// every path, which is why neither the proxy nor a spec fault can
    /// move them.
    ///
    /// Under a fault policy the reconciler is the chain's one failure
    /// domain: see [`RegionScheduler::run_speculative_isolated`].
    pub fn run<R: Send>(
        &self,
        configured: Option<ProxyStateSource>,
        workers: usize,
        policy: Option<&FaultPolicy>,
        step: impl Fn(&mut Hierarchy, &Region) -> (R, f64) + Sync,
    ) -> ChainRun<R> {
        let proxy = configured.or((workers > 1).then_some(ProxyStateSource::StatModel));
        let chained: Vec<f64> = (0..self.plan.regions.len())
            .map(|i| self.charge(i))
            .collect();
        let ctx = ProxyContext {
            machine: self.machine,
            cost: &CostModel::paper_host(),
            workload: self.workload,
            p: self.workload.mem_period(),
            mult: self.plan.config.work_multiplier(),
        };
        // A pure function of `(i, region)`, which is what makes it safe
        // for a guarded run to retry it from the top.
        let spec = |i: u32, region: &Region| {
            let proxy = proxy?;
            let span = self.span(i as usize);
            let (mut h, proxy_seconds) = proxy.build(&ctx, span.start);
            self.settle(&mut h);
            let digest = h.state_digest();
            h.warm_range(self.workload, span);
            let (out, step_seconds) = step(&mut h, region);
            Some(Speculation {
                digest,
                end_state: h,
                out,
                proxy_seconds,
                speculative_seconds: proxy_seconds + chained[i as usize] + step_seconds,
            })
        };
        let mut hierarchy = Hierarchy::new(self.machine);
        let mut outcomes = Vec::with_capacity(self.plan.regions.len());
        // The reconciler: a speculation whose digest matches the true
        // state is adopted with its end state; otherwise (a mismatch, a
        // faulted-out spec task, or no proxy) the span is warmed and
        // the step run in place.
        let reconcile = |i: u32, region: &Region, s: Option<Option<Speculation<R>>>| -> R {
            if let Some(s) = s.flatten() {
                self.settle(&mut hierarchy);
                let committed = hierarchy.state_digest() == s.digest;
                outcomes.push(SpecUnit {
                    unit: i,
                    committed,
                    proxy_seconds: s.proxy_seconds,
                    speculative_seconds: s.speculative_seconds,
                });
                if committed {
                    hierarchy.copy_state_from(&s.end_state);
                    return s.out;
                }
            }
            hierarchy.warm_range(self.workload, self.span(i as usize));
            step(&mut hierarchy, region).0
        };
        let units = RegionScheduler::new(workers).run_speculative_isolated(
            &self.plan.regions,
            policy,
            spec,
            reconcile,
        );
        ChainRun {
            units,
            chained,
            outcomes,
        }
    }
}

/// Accesses probed per LLC line when sizing a statmodel-directed window.
const STATMODEL_PROBE_PER_LINE: u64 = 8;

/// Safety margin multiplying the critical reuse distance: the window
/// must also converge the L1 recency state and the MSHR/no-pressure
/// corners the LLC-level critical distance underestimates (empirically,
/// hmmer-class workloads need ~7× their critical distance; 8 adds slack
/// without eroding the win — the window stays ~25× shorter than the
/// blind prefix at demo scale).
const STATMODEL_MARGIN: u64 = 8;

/// A line address no synthetic workload ever touches — the poisoned
/// proxy's sentinel.
const POISON_LINE: u64 = u64::MAX - 1;

/// Where a speculative worker gets its starting hierarchy state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProxyStateSource {
    /// Statmodel-directed window: probe the reuse behaviour just before
    /// the boundary, invert it into the critical reuse distance for the
    /// LLC ([`delorean_statmodel::plan_warm_window`]), and warm only
    /// that window from cold — the DeLorean thesis (directed beats
    /// blind) applied to the warm chain itself.
    StatModel,
    /// A deliberately wrong proxy (a sentinel line is planted after
    /// construction), guaranteeing a digest mismatch for every region.
    /// Exists for tests: reconciliation must re-measure everything and
    /// still produce the sequential report.
    Poisoned,
}

impl ProxyStateSource {
    /// Stable lowercase identifier for reports and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ProxyStateSource::StatModel => "statmodel",
            ProxyStateSource::Poisoned => "poisoned",
        }
    }

    /// Build the proxy hierarchy approximating the warm chain at access
    /// position `pos`. Returns the hierarchy plus the modeled host
    /// seconds of building it (the context's `p`/`mult` convert spans
    /// to represented instructions, exactly like the chain's own
    /// charges).
    fn build(&self, ctx: &ProxyContext<'_>, pos: u64) -> (Hierarchy, f64) {
        let ProxyContext {
            machine,
            cost,
            workload,
            p,
            mult,
        } = *ctx;
        let mut h = Hierarchy::new(machine);
        match self {
            ProxyStateSource::StatModel => {
                let llc_lines = machine.hierarchy.llc.lines();
                let probe_len = (llc_lines * STATMODEL_PROBE_PER_LINE).min(pos);
                let mut probe: Vec<LineAddr> = Vec::new();
                workload
                    .cursor(pos - probe_len..pos)
                    .fill_lines(&mut probe, delorean_trace::cast::idx(probe_len));
                let plan = plan_warm_window(&probe, llc_lines, pos, STATMODEL_MARGIN);
                h.warm_range(workload, pos - plan.window..pos);
                // The probe is a near-native scan (watchpoint-style);
                // only the window is warmed at functional speed.
                let seconds = cost.instr_seconds(WorkKind::Vff, probe_len * p * mult)
                    + cost.instr_seconds(WorkKind::Functional, plan.window * p * mult);
                (h, seconds)
            }
            ProxyStateSource::Poisoned => {
                h.access_data(Pc(0), LineAddr(POISON_LINE), 0);
                (h, 0.0)
            }
        }
    }
}

/// Everything a proxy build needs that does not vary per region: the
/// machine, the cost model, the workload and the span-to-instruction
/// conversion factors (`p` = memory period, `mult` = plan work
/// multiplier).
#[derive(Copy, Clone)]
struct ProxyContext<'a> {
    machine: &'a MachineConfig,
    cost: &'a CostModel,
    workload: &'a dyn Workload,
    p: u64,
    mult: u64,
}

/// Speculation statistics attached to a speculative run's
/// [`StrategyReport`](crate::StrategyReport) — kept *outside* the
/// [`SimulationReport`](crate::SimulationReport) so the report stays
/// bitwise identical to the sequential run's.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeculationExtras {
    /// The proxy source the run speculated from.
    pub proxy: ProxyStateSource,
    /// Per-region outcome, in plan order — feeds
    /// [`RunCost::speculative_wallclock`](delorean_virt::RunCost::speculative_wallclock).
    pub outcomes: Vec<SpecUnit>,
}

impl SpeculationExtras {
    /// Number of regions whose speculative measurement was committed.
    pub fn hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.committed).count()
    }

    /// Fraction of regions committed (1.0 for an empty plan).
    pub fn hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.hits() as f64 / self.outcomes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_trace::{spec_workload, Scale};

    #[test]
    fn proxy_sources_have_stable_names() {
        assert_eq!(ProxyStateSource::StatModel.name(), "statmodel");
        assert_eq!(ProxyStateSource::Poisoned.name(), "poisoned");
    }

    #[test]
    fn statmodel_proxy_converges_to_the_chain_state() {
        let scale = Scale::tiny();
        let w = spec_workload("hmmer", scale, 1).unwrap();
        let machine = MachineConfig::for_scale(scale);
        let cost = CostModel::paper_host();
        let pos = 60_000u64;
        let mut chain = Hierarchy::new(&machine);
        chain.warm_range(&w, 0..pos);
        let ctx = ProxyContext {
            machine: &machine,
            cost: &cost,
            workload: &w,
            p: 3,
            mult: 4000,
        };
        let (proxy, seconds) = ProxyStateSource::StatModel.build(&ctx, pos);
        assert_eq!(proxy.state_digest(), chain.state_digest());
        // The directed window is a small fraction of the blind prefix.
        let blind = cost.instr_seconds(WorkKind::Functional, pos * 3 * 4000);
        assert!(seconds < blind / 2.0, "directed {seconds} vs blind {blind}");
    }

    #[test]
    fn poisoned_proxy_never_matches_cold_or_warm_state() {
        let scale = Scale::tiny();
        let w = spec_workload("hmmer", scale, 1).unwrap();
        let machine = MachineConfig::for_scale(scale);
        let cost = CostModel::paper_host();
        let ctx = ProxyContext {
            machine: &machine,
            cost: &cost,
            workload: &w,
            p: 3,
            mult: 1,
        };
        let (proxy, _) = ProxyStateSource::Poisoned.build(&ctx, 0);
        assert_ne!(
            proxy.state_digest(),
            Hierarchy::new(&machine).state_digest(),
            "poison must differ from cold"
        );
        let mut warm = Hierarchy::new(&machine);
        warm.warm_range(&w, 0..10_000);
        assert_ne!(proxy.state_digest(), warm.state_digest());
    }

    #[test]
    fn extras_count_hits() {
        let outcomes = vec![
            SpecUnit {
                unit: 0,
                committed: true,
                proxy_seconds: 0.0,
                speculative_seconds: 1.0,
            },
            SpecUnit {
                unit: 1,
                committed: false,
                proxy_seconds: 0.0,
                speculative_seconds: 1.0,
            },
        ];
        let e = SpeculationExtras {
            proxy: ProxyStateSource::StatModel,
            outcomes,
        };
        assert_eq!(e.hits(), 1);
        assert!((e.hit_rate() - 0.5).abs() < 1e-12);
    }
}
