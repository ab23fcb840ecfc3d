//! Unified result reporting across sampling strategies.

use delorean_cpu::DetailedResult;
use delorean_virt::{mips, RunCost};

/// Detailed result of a single region.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionReport {
    /// Region number.
    pub region: u32,
    /// Measured detailed result.
    pub detailed: DetailedResult,
}

/// The full outcome of one sampled-simulation run — shared by SMARTS,
/// CoolSim and DeLorean so strategies are compared with identical metrics.
///
/// `PartialEq` compares every field, cost accounting included — the
/// region scheduler's determinism contract (*worker count never changes
/// the report*) is asserted with plain `==`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimulationReport {
    /// Workload name.
    pub workload: String,
    /// Strategy name ("smarts", "coolsim", "delorean").
    pub strategy: String,
    /// Per-region results.
    pub regions: Vec<RegionReport>,
    /// Reuse distances collected during warm-up (Figure 6; 0 for SMARTS).
    pub collected_reuse_distances: u64,
    /// Host cost, by pass.
    pub cost: RunCost,
    /// Instructions covered by the run (for MIPS arithmetic).
    pub covered_instrs: u64,
}

impl SimulationReport {
    /// Merged detailed results across regions.
    pub fn total(&self) -> DetailedResult {
        let mut t = DetailedResult::default();
        for r in &self.regions {
            t.merge(&r.detailed);
        }
        t
    }

    /// Aggregate CPI over all regions.
    ///
    /// Returns 0 for an empty plan or zero simulated instructions —
    /// never NaN, so degenerate runs stay plottable.
    pub fn cpi(&self) -> f64 {
        self.total().cpi()
    }

    /// Aggregate LLC MPKI over all regions (0 for zero instructions).
    pub fn llc_mpki(&self) -> f64 {
        self.total().llc_mpki()
    }

    /// Relative CPI error against a reference report, in `[0, ∞)`.
    ///
    /// Both reports empty (CPI 0 vs CPI 0) compares equal: error 0.
    pub fn cpi_error_vs(&self, reference: &SimulationReport) -> f64 {
        crate::metrics::relative_error(self.cpi(), reference.cpi())
    }

    /// Effective simulation speed in MIPS under pipelined execution
    /// (0 for a zero-cost run).
    pub fn mips_pipelined(&self) -> f64 {
        mips(self.covered_instrs, self.cost.pipelined_wallclock())
    }

    /// Speed relative to a reference report (both pipelined).
    ///
    /// Degenerate zero-cost reports (empty plans) stay finite: two
    /// zero-cost runs compare equal (1.0), and a zero-cost run measured
    /// against a real one reports 0.0 — conservative, and safe to feed
    /// into geomeans — rather than ±∞.
    pub fn speedup_vs(&self, reference: &SimulationReport) -> f64 {
        let mine = self.cost.pipelined_wallclock();
        let theirs = reference.cost.pipelined_wallclock();
        if mine <= 0.0 {
            if theirs <= 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            theirs / mine
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_virt::HostClock;

    fn report_with(cpi_cycles: f64, instrs: u64, seconds: f64, covered: u64) -> SimulationReport {
        let mut cost = RunCost::new(1);
        let mut clock = HostClock::new();
        clock.charge(seconds);
        cost.push("run", clock);
        SimulationReport {
            workload: "w".into(),
            strategy: "s".into(),
            regions: vec![RegionReport {
                region: 0,
                detailed: DetailedResult {
                    instructions: instrs,
                    cycles: cpi_cycles,
                    ..Default::default()
                },
            }],
            collected_reuse_distances: 0,
            cost,
            covered_instrs: covered,
        }
    }

    #[test]
    fn cpi_and_errors() {
        let a = report_with(1000.0, 1000, 1.0, 1_000_000);
        let b = report_with(1100.0, 1000, 2.0, 1_000_000);
        assert!((a.cpi() - 1.0).abs() < 1e-12);
        assert!((b.cpi_error_vs(&a) - 0.1).abs() < 1e-12);
        assert!((a.speedup_vs(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mips_is_covered_over_wallclock() {
        let a = report_with(1000.0, 1000, 2.0, 10_000_000);
        assert!((a.mips_pipelined() - 5.0).abs() < 1e-9);
    }

    /// Empty plans and zero-instruction regions must yield well-defined
    /// (finite, zero) metrics — never NaN/∞ leaking into figure output.
    #[test]
    fn empty_and_zero_instruction_reports_stay_finite() {
        let empty = SimulationReport::default();
        assert_eq!(empty.cpi(), 0.0);
        assert_eq!(empty.llc_mpki(), 0.0);
        assert_eq!(empty.mips_pipelined(), 0.0);
        assert_eq!(empty.cpi_error_vs(&empty), 0.0);
        assert_eq!(empty.speedup_vs(&empty), 1.0);

        // Zero-instruction region (e.g. a degenerate plan entry).
        let zero_region = report_with(0.0, 0, 0.0, 0);
        assert_eq!(zero_region.cpi(), 0.0);
        assert_eq!(zero_region.llc_mpki(), 0.0);
        assert!(zero_region.cpi().is_finite());

        // Zero-cost vs real-cost comparisons stay finite and ordered.
        let real = report_with(1000.0, 1000, 1.0, 1_000_000);
        assert_eq!(empty.speedup_vs(&real), 0.0);
        assert!((real.speedup_vs(&empty) - 0.0).abs() < 1e-12);
        assert_eq!(empty.cpi_error_vs(&real), 1.0);
        assert!(real.cpi_error_vs(&empty).is_finite());
    }

    #[test]
    fn totals_merge_regions() {
        let mut r = report_with(500.0, 1000, 1.0, 1);
        r.regions.push(RegionReport {
            region: 1,
            detailed: DetailedResult {
                instructions: 1000,
                cycles: 1500.0,
                ..Default::default()
            },
        });
        assert!((r.cpi() - 1.0).abs() < 1e-12);
    }
}
