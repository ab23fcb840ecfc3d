//! Cells: one strategy over one input, the benchmark's unit of work.
//!
//! A [`Suite`] is the list of cells one workload runs, plus the machine
//! and region plan they share. [`Suite::pass`] runs every cell once at
//! a given region-worker count and times each cell from outside the
//! strategy crates. A cell that panics is caught and reported as a
//! failed cell; the pass carries on.

use crate::clock;
use delorean_cache::MachineConfig;
use delorean_core::dse::DesignSpaceExplorer;
use delorean_core::{DeLoreanConfig, DeLoreanExtras, DeLoreanRunner};
use delorean_sampling::{
    CheckpointWarmingRunner, CoolSimConfig, CoolSimRunner, MrrlRunner, ProxyStateSource,
    RegionPlan, SamplingStrategy, SimulationReport, SmartsRunner, SpeculationExtras,
    StrategyReport,
};
use delorean_trace::{Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The strategies a cell can run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// SMARTS: functional warming of every access, chained.
    Smarts,
    /// SMARTS through the speculative lane with the statmodel proxy.
    SmartsSpec,
    /// Checkpointed warming (prepare + evaluate).
    Checkpoint,
    /// DeLorean: Scout, Explorers and Analyst per region.
    DeLorean,
    /// One design-space exploration over the 10-point LLC sweep.
    Dse,
    /// CoolSim: statistical warming.
    CoolSim,
    /// MRRL: adaptive functional warming.
    Mrrl,
}

impl Kind {
    /// Every kind, in the order per-strategy metrics are printed.
    pub const ALL: [Kind; 7] = [
        Kind::Smarts,
        Kind::SmartsSpec,
        Kind::Checkpoint,
        Kind::DeLorean,
        Kind::Dse,
        Kind::CoolSim,
        Kind::Mrrl,
    ];

    /// Metric-name label of the strategy.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Smarts => "smarts",
            Kind::SmartsSpec => "smarts-spec",
            Kind::Checkpoint => "checkpoint",
            Kind::DeLorean => "delorean",
            Kind::Dse => "dse",
            Kind::CoolSim => "coolsim",
            Kind::Mrrl => "mrrl",
        }
    }
}

/// What one successful cell produced.
#[derive(Clone, Debug)]
pub struct CellOutput {
    /// The reports: one per cell, or one per analyst for DSE.
    pub reports: Vec<SimulationReport>,
    /// Speculation outcomes of the speculative lane.
    pub spec: Option<SpeculationExtras>,
    /// Time-traveling statistics of DeLorean cells.
    pub tt: Option<DeLoreanExtras>,
    /// Modeled wall seconds at 1 and 2 workers (`RunCost` list
    /// scheduling against the paper host).
    pub modeled_s: (f64, f64),
    /// DSE only: `marginal_cost_factor(10)`.
    pub dse_marginal: Option<f64>,
}

/// One cell of one pass.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Strategy of the cell.
    pub kind: Kind,
    /// Input name.
    pub input: String,
    /// Host wall seconds of the cell.
    pub wall_s: f64,
    /// The output, or why the cell failed.
    pub outcome: Result<CellOutput, String>,
}

/// The cells of one workload and the configuration they share.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Experiment scale.
    pub scale: Scale,
    /// Simulated machine.
    pub machine: MachineConfig,
    /// Region plan.
    pub plan: RegionPlan,
    /// `(strategy, input index)` per cell, in report order.
    pub cells: Vec<(Kind, usize)>,
}

impl Suite {
    /// Run every cell once over `inputs` at `workers` region workers.
    pub fn pass(&self, inputs: &[&dyn Workload], workers: usize) -> Vec<CellRun> {
        self.cells
            .iter()
            .map(|&(kind, i)| self.run_cell(kind, inputs[i], workers))
            .collect()
    }

    /// Run one cell, catching a panic as a failed cell.
    pub fn run_cell(&self, kind: Kind, input: &dyn Workload, workers: usize) -> CellRun {
        let (outcome, wall_s) = clock::timed(|| {
            catch_unwind(AssertUnwindSafe(|| self.execute(kind, input, workers)))
                .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))
        });
        CellRun {
            kind,
            input: input.name().to_string(),
            wall_s,
            outcome,
        }
    }

    fn execute(&self, kind: Kind, w: &dyn Workload, workers: usize) -> Result<CellOutput, String> {
        let (m, plan) = (self.machine, &self.plan);
        let run = match kind {
            Kind::Smarts => SmartsRunner::new(m).run_with_workers(w, plan, workers),
            Kind::SmartsSpec => SmartsRunner::new(m).run_speculative_with_workers(
                w,
                plan,
                ProxyStateSource::StatModel,
                workers,
            ),
            Kind::Checkpoint => CheckpointWarmingRunner::new(m).run_with_workers(w, plan, workers),
            Kind::DeLorean => DeLoreanRunner::new(m, DeLoreanConfig::for_scale(self.scale))
                .run_with_workers(w, plan, workers),
            Kind::CoolSim => CoolSimRunner::new(m, CoolSimConfig::for_scale(self.scale))
                .run_with_workers(w, plan, workers),
            Kind::Mrrl => MrrlRunner::new(m).run_with_workers(w, plan, workers),
            Kind::Dse => return self.dse(w, workers, &dse_machines(self.scale)),
        };
        Ok(single(run))
    }

    /// One design-space exploration of `w` over `machines`, with its
    /// analysts fanned across `workers` threads.
    pub fn dse(
        &self,
        w: &dyn Workload,
        workers: usize,
        machines: &[MachineConfig],
    ) -> Result<CellOutput, String> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .map_err(|e| e.to_string())?;
        let dse = DesignSpaceExplorer::new(self.machine, DeLoreanConfig::for_scale(self.scale));
        let out = pool.install(|| dse.run(w, &self.plan, machines));
        let analysts = &out.analyst_seconds;
        let serial: f64 = analysts.iter().sum();
        Ok(CellOutput {
            reports: out.outputs.iter().map(|o| o.report.clone()).collect(),
            spec: None,
            tt: None,
            modeled_s: (
                out.warming_seconds + serial,
                out.warming_seconds + list_schedule(analysts, 2),
            ),
            dse_marginal: Some(out.marginal_cost_factor(10)),
        })
    }
}

/// The Figure 14 LLC sweep at `scale`: ten analyst machines sharing the
/// base L1 geometry.
pub fn dse_machines(scale: Scale) -> Vec<MachineConfig> {
    MachineConfig::llc_sweep_paper_bytes()
        .iter()
        .map(|&bytes| MachineConfig::for_scale(scale).with_llc_paper_bytes(scale, bytes))
        .collect()
}

fn single(run: StrategyReport) -> CellOutput {
    let spec = run.extras::<SpeculationExtras>().cloned();
    let tt = run.extras::<DeLoreanExtras>().cloned();
    let cost = &run.report.cost;
    let modeled_2 = match &spec {
        Some(s) => cost.speculative_wallclock(2, &s.outcomes),
        None => cost.region_parallel_wallclock(2),
    };
    CellOutput {
        modeled_s: (cost.region_parallel_wallclock(1), modeled_2),
        reports: vec![run.into_report()],
        spec,
        tt,
        dse_marginal: None,
    }
}

/// Makespan of `jobs` list-scheduled in order on `workers` workers.
fn list_schedule(jobs: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    for &job in jobs {
        if let Some(slot) = free.iter_mut().min_by(|a, b| a.total_cmp(b)) {
            *slot += job;
        }
    }
    free.into_iter().fold(0.0, f64::max)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_schedule_balances() {
        assert_eq!(list_schedule(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
        assert_eq!(list_schedule(&[3.0, 1.0, 1.0], 2), 3.0);
        assert_eq!(list_schedule(&[], 2), 0.0);
    }
}
