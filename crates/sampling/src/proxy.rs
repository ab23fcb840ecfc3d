//! Proxy state sources for the speculative warm lane.
//!
//! SMARTS's warm chain is sequential because the hierarchy at a region
//! boundary depends on every access before it. The speculative lane
//! breaks the chain by *guessing* that state: each worker builds a cheap
//! **proxy** of the hierarchy at its region's chain position, records the
//! proxy's [`Hierarchy::state_digest`], and warms/measures from it in
//! parallel. A sequential reconciler later compares the digest against
//! the true carried state — on a match the speculative measurement is
//! committed as-is; on a mismatch the region is re-measured from the
//! true state, so the final report is bitwise identical to sequential
//! SMARTS either way.
//!
//! A proxy source must be a **deterministic function of
//! `(workload, plan, region index)`** — never of runtime timing —
//! so the commit/miss pattern (and with it the modeled speedup and the
//! speculation extras) is identical at every worker count.

use delorean_cache::{Hierarchy, MachineConfig};
use delorean_statmodel::plan_warm_window;
use delorean_trace::{LineAddr, Pc, Workload};
use delorean_virt::{CostModel, SpecUnit, WorkKind};

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
    pub(crate) fn build(&self, ctx: &ProxyContext<'_>, pos: u64) -> (Hierarchy, f64) {
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

/// The proxy a warm chain run at `workers` speculates from: the
/// `configured` one, else [`ProxyStateSource::StatModel`] above one
/// worker, else none (every unit takes the reconciler's miss path).
pub(crate) fn proxy_at(
    configured: Option<ProxyStateSource>,
    workers: usize,
) -> Option<ProxyStateSource> {
    configured.or((workers > 1).then_some(ProxyStateSource::StatModel))
}

/// Everything a proxy build needs that does not vary per region: the
/// machine, the cost model, the workload and the span-to-instruction
/// conversion factors (`p` = memory period, `mult` = plan work
/// multiplier).
#[derive(Copy, Clone)]
pub(crate) struct ProxyContext<'a> {
    pub machine: &'a MachineConfig,
    pub cost: &'a CostModel,
    pub workload: &'a dyn Workload,
    pub p: u64,
    pub mult: u64,
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
