//! Design-space exploration: one warm-up, many analysts.
//!
//! Reuse distance is microarchitecture-independent, so a single Scout +
//! Explorer chain can feed any number of Analysts simulating different
//! cache (or core) configurations (§3.3). The warm-up cost — which
//! dominates total cost by a factor the paper measures at ~235× over
//! detailed simulation — is paid once; each extra configuration adds only
//! an Analyst pass, giving the ~1.05× marginal cost for 10 parallel
//! analysts reported in §6.4.2. This module reproduces both numbers.

use crate::analyst::run_analyst;
use crate::config::DeLoreanConfig;
use crate::dsw::DswCounts;
use crate::runner::{accumulate, warm_region, DeLoreanOutput, RegionArtifacts};
use crate::stats::TtStats;
use delorean_cache::MachineConfig;
use delorean_cpu::TimingConfig;
use delorean_sampling::{RegionPlan, RegionReport, SimulationReport};
use delorean_trace::Workload;
use delorean_virt::{CostModel, HostClock, RunCost};
use rayon::prelude::*;

/// Result of a design-space exploration run.
#[derive(Clone, Debug)]
pub struct DseOutput {
    /// One output per analyst configuration, in input order.
    pub outputs: Vec<DeLoreanOutput>,
    /// Host seconds spent in the shared warming passes (Scout +
    /// Explorers).
    pub warming_seconds: f64,
    /// Host seconds spent per analyst.
    pub analyst_seconds: Vec<f64>,
}

impl DseOutput {
    /// Ratio of warming cost to a single analyst's detailed-simulation
    /// cost (the paper reports ≈235×).
    pub fn warming_to_detailed_ratio(&self) -> f64 {
        match self.analyst_seconds.first() {
            Some(&a) if a > 0.0 => self.warming_seconds / a,
            _ => 0.0,
        }
    }

    /// Total resources of running `n` parallel analysts from one warm-up,
    /// relative to running one (the paper reports ≤1.05× for 10).
    pub fn marginal_cost_factor(&self, n: usize) -> f64 {
        let one = self.warming_seconds + self.analyst_seconds.first().copied().unwrap_or(0.0);
        if one == 0.0 {
            return 0.0;
        }
        // lint:allow(float-accum): analyst_seconds is indexed by analyst rank, a fixed plan order; the prefix sum is worker-count-invariant
        let n_total: f64 = self.warming_seconds + self.analyst_seconds.iter().take(n).sum::<f64>();
        n_total / one
    }
}

/// Explore several machine configurations from a single warm-up.
#[derive(Clone, Debug)]
pub struct DesignSpaceExplorer {
    /// Machine whose L1 side defines the key filter (shared across
    /// analysts; only LLC-side parameters should vary per analyst).
    base_machine: MachineConfig,
    config: DeLoreanConfig,
}

impl DesignSpaceExplorer {
    /// An explorer sharing one warm-up across analyst configurations.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(base_machine: MachineConfig, config: DeLoreanConfig) -> Self {
        // lint:allow(no-unwrap): documented # Panics contract — construction fails fast on an invalid config
        config.validate().expect("invalid DeLorean config");
        DesignSpaceExplorer {
            base_machine,
            config,
        }
    }

    /// Run the shared warm-up once and evaluate every analyst machine.
    ///
    /// All `analyst_machines` must share the base machine's L1/MSHR
    /// geometry (the key sets are collected against it); typically they
    /// differ only in LLC size — Figure 13/14's sweep.
    pub fn run(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        analyst_machines: &[MachineConfig],
    ) -> DseOutput {
        assert!(
            !analyst_machines.is_empty(),
            "need at least one analyst configuration"
        );
        for m in analyst_machines {
            assert_eq!(
                m.hierarchy.l1d, self.base_machine.hierarchy.l1d,
                "analyst machines must share the base L1-D geometry"
            );
        }
        let warmup = self.warm_all(workload, plan);

        // One analyst per machine, all fed from the same artifacts. The
        // analysts are mutually independent — reuse distances are
        // microarchitecture-independent, which is the whole point of §3.3
        // — so they fan out across worker threads. Each analyst is a
        // deterministic function of (machine, artifacts) and results are
        // collected in machine order, so the output is identical to the
        // serial loop for any thread count.
        let per_machine: Vec<(DeLoreanOutput, f64)> = analyst_machines
            .par_iter()
            .map(|machine| self.analyst_output(workload, plan, &warmup, machine))
            .collect();
        let (outputs, analyst_seconds) = per_machine.into_iter().unzip();
        DseOutput {
            outputs,
            warming_seconds: warmup.warming_seconds(),
            analyst_seconds,
        }
    }

    /// Run the shared Scout + Explorer warm-up over every region.
    fn warm_all(&self, workload: &dyn Workload, plan: &RegionPlan) -> DseWarmup {
        let mult = plan.config.work_multiplier();
        let n_explorers = self.config.explorer_windows_instrs.len();
        let mut scout_clock = HostClock::new();
        let mut explorer_clocks = vec![HostClock::new(); n_explorers];
        let mut artifacts: Vec<RegionArtifacts> = Vec::with_capacity(plan.regions.len());
        let mut prev_end = 0u64;
        for region in &plan.regions {
            artifacts.push(warm_region(
                workload,
                &self.base_machine,
                &self.config,
                region,
                prev_end,
                mult,
                &mut scout_clock,
                &mut explorer_clocks,
            ));
            prev_end = region.detailed.end;
        }
        DseWarmup {
            artifacts,
            scout_clock,
            explorer_clocks,
        }
    }

    /// Evaluate one analyst machine against the shared warm-up.
    /// Deterministic in `(machine, warmup)`: the artifacts are only
    /// read.
    fn analyst_output(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        warmup: &DseWarmup,
        machine: &MachineConfig,
    ) -> (DeLoreanOutput, f64) {
        let mult = plan.config.work_multiplier();
        let mut analyst_clock = HostClock::new();
        let mut stats = TtStats::default();
        let mut dsw_counts = DswCounts::default();
        let mut reports = Vec::with_capacity(warmup.artifacts.len());
        for a in &warmup.artifacts {
            let out = run_analyst(
                workload,
                machine,
                &TimingConfig::table1(),
                &CostModel::paper_host(),
                &mut analyst_clock,
                &a.region,
                &a.input,
                mult,
            );
            accumulate(&mut stats, a);
            dsw_counts.merge(&out.counts);
            reports.push(RegionReport {
                region: a.region.index,
                detailed: out.detailed,
            });
        }
        let seconds = analyst_clock.seconds();

        let mut run_cost = RunCost::new(plan.regions.len() as u64);
        run_cost.push("scout", warmup.scout_clock);
        for (k, c) in warmup.explorer_clocks.iter().enumerate() {
            run_cost.push(format!("explorer-{}", k + 1), *c);
        }
        run_cost.push("analyst", analyst_clock);
        let output = DeLoreanOutput {
            report: SimulationReport {
                workload: workload.name().to_string(),
                strategy: "delorean".into(),
                regions: reports,
                collected_reuse_distances: stats.collected_reuse_distances(),
                cost: run_cost,
                covered_instrs: plan.represented_instrs(),
            },
            stats,
            dsw_counts,
        };
        (output, seconds)
    }
}

/// The shared warm-up product: per-region artifacts plus the pass clocks
/// every analyst's cost report copies.
struct DseWarmup {
    artifacts: Vec<RegionArtifacts>,
    scout_clock: HostClock,
    explorer_clocks: Vec<HostClock>,
}

impl DseWarmup {
    fn warming_seconds(&self) -> f64 {
        let explorer: f64 = self
            .explorer_clocks
            .iter()
            .map(|c| c.seconds())
            // lint:allow(float-accum): explorer clocks are indexed by pipeline stage, a fixed order independent of scheduling
            .sum();
        self.scout_clock.seconds() + explorer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_sampling::SamplingConfig;
    use delorean_trace::{spec_workload, Scale};

    fn sweep(scale: Scale, sizes_paper: &[u64]) -> Vec<MachineConfig> {
        sizes_paper
            .iter()
            .map(|&s| MachineConfig::for_scale(scale).with_llc_paper_bytes(scale, s))
            .collect()
    }

    #[test]
    fn one_warmup_many_analysts() {
        let scale = Scale::tiny();
        let w = spec_workload("lbm", scale, 1).unwrap();
        let plan = SamplingConfig::for_scale(scale).with_regions(2).plan();
        let machines = sweep(scale, &[1 << 20, 8 << 20, 64 << 20, 512 << 20]);
        let dse = DesignSpaceExplorer::new(
            MachineConfig::for_scale(scale),
            DeLoreanConfig::for_scale(scale),
        );
        let out = dse.run(&w, &plan, &machines);
        assert_eq!(out.outputs.len(), 4);
        assert_eq!(out.analyst_seconds.len(), 4);
        assert!(out.warming_seconds > 0.0);
        // Larger LLCs must not increase LLC MPKI.
        let mpki: Vec<f64> = out.outputs.iter().map(|o| o.report.llc_mpki()).collect();
        for w in mpki.windows(2) {
            assert!(w[1] <= w[0] + 0.5, "MPKI not (roughly) monotone: {mpki:?}");
        }
    }

    #[test]
    fn marginal_cost_is_small() {
        let scale = Scale::tiny();
        let w = spec_workload("hmmer", scale, 1).unwrap();
        let plan = SamplingConfig::for_scale(scale).with_regions(2).plan();
        let machines = sweep(
            scale,
            &[
                (1 << 20),
                2 << 20,
                4 << 20,
                8 << 20,
                16 << 20,
                32 << 20,
                64 << 20,
                128 << 20,
                256 << 20,
                512 << 20,
            ],
        );
        let dse = DesignSpaceExplorer::new(
            MachineConfig::for_scale(scale),
            DeLoreanConfig::for_scale(scale),
        );
        let out = dse.run(&w, &plan, &machines);
        let marginal = out.marginal_cost_factor(10);
        assert!(
            marginal < 2.0,
            "10 analysts should cost far less than 10×: {marginal}"
        );
        assert!(out.warming_to_detailed_ratio() > 1.0);
    }

    #[test]
    #[should_panic(expected = "share the base L1-D geometry")]
    fn rejects_mismatched_l1() {
        let scale = Scale::tiny();
        let w = spec_workload("hmmer", scale, 1).unwrap();
        let plan = SamplingConfig::for_scale(scale).with_regions(2).plan();
        let mut odd = MachineConfig::for_scale(scale);
        odd.hierarchy.l1d = delorean_cache::CacheConfig::new(4 << 10, 4);
        let dse = DesignSpaceExplorer::new(
            MachineConfig::for_scale(scale),
            DeLoreanConfig::for_scale(scale),
        );
        let _ = dse.run(&w, &plan, &[odd]);
    }
}
