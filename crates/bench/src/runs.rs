//! The parallel strategy-execution layer of the experiment harness.
//!
//! [`BatchExecutor`] fans a `&[Box<dyn SamplingStrategy>]` × workload
//! matrix out across worker threads on the library's one claim loop,
//! [`run_in_order`]: every (strategy, workload) cell is an independent,
//! deterministic region evaluation, so cells execute in any order and
//! results are consumed in input order — output is
//! byte-identical for any worker count (asserted by
//! `tests/strategy_layer.rs`). All experiment drivers and the
//! `run_all`/figure binaries funnel through this one code path.

use crate::journal::{encode_cell, sweep_tag, CellJournal};
use crate::options::ExpOptions;
use delorean_cache::MachineConfig;
use delorean_core::{DeLoreanConfig, DeLoreanOutput, DeLoreanRunner};
use delorean_sampling::{
    CoolSimConfig, CoolSimRunner, FaultPolicy, RegionPlan, SamplingConfig, SamplingStrategy,
    SimulationReport, SmartsRunner, StrategyReport, UnitFailure,
};
use delorean_trace::claim::run_in_order;
use delorean_trace::fault::{self, FaultSite};
use delorean_trace::{host_parallelism, spec2006, JournalError, Scale, Workload};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Executes (strategy × workload) batches, several cells at once.
///
/// Every cell runs through [`SamplingStrategy::run`], so it fans its
/// regions across the strategy's own
/// [`internal_parallelism`] workers. The default executor runs as many
/// cells at once as [`host_parallelism`] divided by the batch's maximum
/// `internal_parallelism`, so running one cell per core does not
/// oversubscribe the host; [`with_threads`] bounds the width explicitly
/// (1 = serial reference execution, used by the determinism tests).
/// The width is pure scheduling — results are byte-identical for every
/// value. A cell that panics unguarded on a helper thread unwinds the
/// caller with a [`LostUnits`](delorean_sampling::LostUnits) naming
/// its flat cell index.
///
/// [`internal_parallelism`]: SamplingStrategy::internal_parallelism
/// [`with_threads`]: BatchExecutor::with_threads
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchExecutor {
    threads: Option<usize>,
}

impl BatchExecutor {
    /// An executor using the machine's full parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// An executor bounded to `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        BatchExecutor {
            threads: Some(threads.max(1)),
        }
    }

    /// Run every strategy over every workload; `result[w][s]` is strategy
    /// `s` on workload `w`. Cells run in parallel; the result layout is
    /// input-ordered and independent of the worker count.
    pub fn run_matrix<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workloads: &[W],
        plan: &RegionPlan,
    ) -> Vec<Vec<StrategyReport>> {
        let jobs: Vec<(&dyn SamplingStrategy, &W)> = workloads
            .iter()
            .flat_map(|w| strategies.iter().map(move |s| (s.as_ref(), w)))
            .collect();
        let mut cells = self.run_cells(jobs, plan).into_iter();
        workloads
            .iter()
            .map(|_| cells.by_ref().take(strategies.len()).collect())
            .collect()
    }

    /// Run one strategy over every workload, in parallel.
    pub fn run_strategy_over<W: Workload>(
        &self,
        strategy: &dyn SamplingStrategy,
        workloads: &[W],
        plan: &RegionPlan,
    ) -> Vec<StrategyReport> {
        self.run_cells(workloads.iter().map(|w| (strategy, w)).collect(), plan)
    }

    /// Run every strategy on one workload, in parallel.
    pub fn run_strategies<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workload: &W,
        plan: &RegionPlan,
    ) -> Vec<StrategyReport> {
        self.run_cells(
            strategies.iter().map(|s| (s.as_ref(), workload)).collect(),
            plan,
        )
    }

    /// Run every strategy over every workload with **per-cell panic
    /// isolation** and a **durable journal**: each cell is guarded,
    /// retried within `policy`'s budget, and quarantined (a `None` slot
    /// plus a typed failure) on exhaustion — a faulting cell never
    /// takes the sweep down with it — and each completed cell's reduced
    /// report is appended (checksummed) to `journal` the moment it
    /// finishes, so a killed sweep loses at most the cells in flight.
    /// On a clean run every slot is `Some` and each report is bitwise
    /// identical to [`run_matrix`](BatchExecutor::run_matrix)'s.
    ///
    /// If `journal` already exists it is *resumed*: its valid prefix
    /// (torn tails are truncated) restores completed cells verbatim and
    /// only missing cells execute, so a resumed sweep's matrix is `==`
    /// an uninterrupted one's. The journal is bound to the sweep's
    /// configuration by tag ([`sweep_tag`](crate::journal::sweep_tag));
    /// resuming with a different strategy set, workload list or plan is
    /// a hard [`JournalError::TagMismatch`].
    ///
    /// Journaled cells carry no strategy extras — only the
    /// [`SimulationReport`] is durable.
    pub fn run_matrix_journaled<W: Workload>(
        &self,
        strategies: &[Box<dyn SamplingStrategy>],
        workloads: &[W],
        plan: &RegionPlan,
        policy: &FaultPolicy,
        journal: &Path,
    ) -> Result<MatrixRun, JournalError> {
        // Flat cell list, workload-major: cell = w * strategies + s.
        let jobs: Vec<(&dyn SamplingStrategy, &W)> = workloads
            .iter()
            .flat_map(|w| strategies.iter().map(move |s| (s.as_ref(), w)))
            .collect();

        // Restore journaled cells (resume) or start a fresh journal.
        let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
        let tag = sweep_tag(strategies, &names, plan);
        let (journal, restored) = CellJournal::open(journal, tag, jobs.len())?;
        let journal = Mutex::new(journal);
        let resumed_cells = restored.iter().filter(|r| r.is_some()).count();

        let pending: Vec<(u32, &dyn SamplingStrategy, &W)> = jobs
            .iter()
            .enumerate()
            .filter(|&(cell, _)| restored[cell].is_none())
            .map(|(cell, &(s, w))| (cell as u32, s, w))
            .collect();
        let executed_cells = pending.len();

        // Assemble in cell order: journaled cells verbatim (no extras),
        // executed cells with their extras, quarantined cells as None.
        let mut slots: Vec<Option<StrategyReport>> = restored
            .into_iter()
            .map(|r| r.map(StrategyReport::new))
            .collect();
        let mut quarantined = Vec::new();
        // Execute the missing cells, each as one guarded, retryable
        // fault unit, and append each to the journal inside its unit the
        // moment it completes (completion order is racy, but entries
        // are keyed by cell index, so a resume is order-independent).
        run_in_order(
            self.width(&jobs),
            pending.into_iter(),
            || (),
            |(), _, (cell, strategy, workload)| {
                let result = fault::run_unit_guarded(cell, policy, || {
                    fault::hit(FaultSite::UnitEntry, u64::from(cell));
                    strategy.run(workload, plan)
                });
                if let Ok(report) = result.as_ref() {
                    let payload = encode_cell(cell, &report.report);
                    journal
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(&payload);
                }
                (cell, result)
            },
            |_, (cell, result)| {
                match result {
                    Ok(report) => slots[cell as usize] = Some(report),
                    Err(failure) => quarantined.push(failure),
                }
                ControlFlow::Continue(())
            },
        );
        let mut rows = Vec::with_capacity(workloads.len());
        let mut it = slots.into_iter();
        for _ in workloads {
            rows.push(it.by_ref().take(strategies.len()).collect());
        }
        Ok(MatrixRun {
            matrix: rows,
            quarantined,
            resumed_cells,
            executed_cells,
            journal_faults: journal
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .faults(),
        })
    }

    /// Evaluate a flat list of (strategy, workload) cells, results in
    /// `jobs` order.
    fn run_cells<W: Workload>(
        &self,
        jobs: Vec<(&dyn SamplingStrategy, &W)>,
        plan: &RegionPlan,
    ) -> Vec<StrategyReport> {
        let mut out = Vec::with_capacity(jobs.len());
        run_in_order(
            self.width(&jobs),
            jobs.iter(),
            || (),
            |(), _, &(strategy, workload)| strategy.run(workload, plan),
            |_, report| {
                out.push(report);
                ControlFlow::Continue(())
            },
        );
        out
    }

    /// How many cells of `jobs` run at once: the explicit bound, or the
    /// host divided by the largest `internal_parallelism` among the
    /// cells, leaving room for each cell's own region-scheduler workers.
    fn width<W: Workload>(&self, jobs: &[(&dyn SamplingStrategy, &W)]) -> usize {
        self.threads.unwrap_or_else(|| {
            let nested = jobs
                .iter()
                .map(|&(s, _)| s.internal_parallelism())
                .max()
                .unwrap_or(1);
            (host_parallelism() / nested).max(1)
        })
    }
}

/// The outcome of a fault-isolated matrix run:
/// [`BatchExecutor::run_matrix_journaled`]'s, or a shard broker's.
///
/// `matrix[w][s]` mirrors [`BatchExecutor::run_matrix`]'s layout with
/// `None` marking quarantined cells. The counters distinguish where
/// results came from: `resumed_cells` were restored verbatim from the
/// journal, `executed_cells` ran this time.
#[derive(Debug)]
pub struct MatrixRun {
    /// Workload-major cell results; `None` where the cell exhausted its
    /// retry budget.
    pub matrix: Vec<Vec<Option<StrategyReport>>>,
    /// Typed failures of quarantined cells, in cell order (the failure's
    /// `unit` is the flat cell index `w * strategies + s`).
    pub quarantined: Vec<UnitFailure>,
    /// Cells restored from the journal's valid prefix.
    pub resumed_cells: usize,
    /// Cells executed (not restored) in this run.
    pub executed_cells: usize,
    /// Journal appends that failed (the cell result is in memory but
    /// not durable); 0 outside fault-injection harnesses.
    pub journal_faults: usize,
}

impl MatrixRun {
    /// Whether every cell completed.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Results of the three headline strategies on one workload.
#[derive(Clone, Debug)]
pub struct StrategyOutputs {
    /// SMARTS (functional warming) — the reference.
    pub smarts: SimulationReport,
    /// CoolSim (randomized statistical warming).
    pub coolsim: SimulationReport,
    /// DeLorean (directed statistical warming + time traveling).
    pub delorean: DeLoreanOutput,
}

/// One benchmark's comparison entry.
#[derive(Clone, Debug)]
pub struct BenchmarkComparison {
    /// Workload name.
    pub name: String,
    /// Per-strategy results.
    pub outputs: StrategyOutputs,
}

/// The headline strategy set behind Figures 5–10: SMARTS reference,
/// CoolSim baseline, DeLorean — as trait objects for the executor.
pub fn headline_strategies(scale: Scale, machine: MachineConfig) -> Vec<Box<dyn SamplingStrategy>> {
    vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale))),
        Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale),
        )),
    ]
}

/// The region plan for a set of options.
pub fn plan_for(opts: &ExpOptions) -> RegionPlan {
    let mut cfg = SamplingConfig::for_scale(opts.scale);
    if let Some(r) = opts.regions {
        cfg = cfg.with_regions(r);
    }
    cfg.plan()
}

/// Group one workload's headline-strategy reports (executor order) into
/// named outputs. Each cell's self-reported strategy name is checked so
/// a reorder of [`headline_strategies`] fails loudly instead of
/// silently swapping the reference and baseline columns.
fn group_outputs(reports: Vec<StrategyReport>) -> StrategyOutputs {
    let mut it = reports.into_iter();
    let mut named = |expected: &str| {
        let report = it.next().expect("headline cell");
        assert_eq!(
            report.strategy, expected,
            "headline_strategies order changed without updating group_outputs"
        );
        report
    };
    let smarts = named("smarts").into_report();
    let coolsim = named("coolsim").into_report();
    let delorean = named("delorean").try_into().expect("delorean extras");
    StrategyOutputs {
        smarts,
        coolsim,
        delorean,
    }
}

/// Run the three-strategy comparison over the (filtered) suite: the full
/// strategy × workload matrix through the batch executor.
pub fn compare_all(opts: &ExpOptions, llc_paper_bytes: u64) -> Vec<BenchmarkComparison> {
    let plan = plan_for(opts);
    let machine =
        MachineConfig::for_scale(opts.scale).with_llc_paper_bytes(opts.scale, llc_paper_bytes);
    let strategies = headline_strategies(opts.scale, machine);
    let workloads: Vec<_> = spec2006(opts.scale, opts.seed)
        .into_iter()
        .filter(|w| opts.selected(w.name()))
        .collect();
    let matrix = BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);
    workloads
        .iter()
        .zip(matrix)
        .map(|(w, reports)| BenchmarkComparison {
            name: w.name().to_string(),
            outputs: group_outputs(reports),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_sampling::{LostUnits, MrrlRunner};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Poll `flag` for about ten seconds; `true` once it holds.
    fn wait_for(flag: impl Fn() -> bool) -> bool {
        for _ in 0..10_000 {
            if flag() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        flag()
    }

    /// MRRL, except that its two cells first meet, so each runs on its
    /// own thread, and the one off the calling thread then dies,
    /// unguarded.
    struct MeetThenDie {
        caller: ThreadId,
        arrived: AtomicUsize,
        dead: Mutex<Option<String>>,
    }

    impl SamplingStrategy for MeetThenDie {
        fn name(&self) -> &str {
            "meet-then-die"
        }

        fn execute(
            &self,
            workload: &dyn Workload,
            plan: &RegionPlan,
            workers: usize,
            policy: Option<&FaultPolicy>,
        ) -> StrategyReport {
            self.arrived.fetch_add(1, Ordering::SeqCst);
            assert!(wait_for(|| self.arrived.load(Ordering::SeqCst) == 2));
            if std::thread::current().id() != self.caller {
                *self.dead.lock().unwrap() = Some(workload.name().to_string());
                std::panic::panic_any(format!("{} dies off the calling thread", workload.name()));
            }
            let machine = MachineConfig::for_scale(Scale::tiny());
            MrrlRunner::new(machine).execute(workload, plan, workers, policy)
        }
    }

    #[test]
    fn a_cell_lost_with_its_helper_is_named() {
        let plan = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(2)
            .plan();
        let workloads: Vec<_> = spec2006(Scale::tiny(), 3).into_iter().take(2).collect();
        let strategy = MeetThenDie {
            caller: std::thread::current().id(),
            arrived: AtomicUsize::new(0),
            dead: Mutex::new(None),
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BatchExecutor::with_threads(2).run_strategy_over(&strategy, &workloads, &plan)
        }));
        let payload = run.expect_err("a dead helper must unwind the sweep");
        let lost = payload
            .downcast::<LostUnits>()
            .expect("the unwind names the lost cell");
        let dead = strategy.dead.lock().unwrap().clone().expect("a cell died");
        let cell = workloads.iter().position(|w| w.name() == dead).unwrap();
        assert_eq!(lost.units, [cell as u32]);
    }

    #[test]
    fn tiny_comparison_produces_all_strategies() {
        let opts = ExpOptions {
            filter: Some("bwaves".into()),
            ..ExpOptions::tiny()
        };
        let rows = compare_all(&opts, 8 << 20);
        assert_eq!(rows.len(), 1);
        let o = &rows[0].outputs;
        assert!(o.smarts.cpi() > 0.0);
        assert!(o.coolsim.cpi() > 0.0);
        assert!(o.delorean.report.cpi() > 0.0);
    }

    #[test]
    fn filter_selects_subset() {
        let opts = ExpOptions {
            filter: Some("lbm".into()),
            ..ExpOptions::tiny()
        };
        let rows = compare_all(&opts, 8 << 20);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "lbm");
    }

    #[test]
    fn matrix_layout_is_workload_major() {
        let opts = ExpOptions {
            filter: Some("m".into()), // several workloads contain an 'm'
            ..ExpOptions::tiny()
        };
        let plan = plan_for(&opts);
        let machine = MachineConfig::for_scale(opts.scale);
        let strategies = headline_strategies(opts.scale, machine);
        let workloads: Vec<_> = spec2006(opts.scale, opts.seed)
            .into_iter()
            .filter(|w| opts.selected(w.name()))
            .take(2)
            .collect();
        let matrix = BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);
        assert_eq!(matrix.len(), workloads.len());
        for (w, row) in workloads.iter().zip(&matrix) {
            assert_eq!(row.len(), strategies.len());
            for (s, cell) in strategies.iter().zip(row) {
                assert_eq!(cell.workload, w.name());
                assert_eq!(cell.strategy, s.name());
            }
        }
    }
}
