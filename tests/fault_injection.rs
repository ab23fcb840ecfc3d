//! Armed fault-injection determinism suite: the recovery contract,
//! pinned end to end.
//!
//! The contract has three clauses:
//!
//! 1. **Isolation is scheduling, never semantics** — a guarded run
//!    (`SamplingStrategy::execute` with a fault policy) with nothing
//!    armed, and one whose injected faults were all absorbed by
//!    retries, are bitwise identical to the plain run at every worker
//!    count, for every strategy, extras included.
//! 2. **Quarantine is deterministic and typed** — units struck past
//!    the retry budget quarantine with their attempt count and
//!    classified fault, the same set at every worker count, and the
//!    partial report covers exactly the surviving units.
//! 3. **The journal restores what it recorded, verbatim** — a killed
//!    sweep resumes to the uninterrupted matrix; failed appends never
//!    fail a cell, and a resume re-executes exactly the cells they
//!    dropped; damaged journals are truncated to their valid prefix
//!    (lost cells re-execute); a journal from a different sweep
//!    configuration is a hard error.
//!
//! These tests live in their own integration binary on purpose: the
//! fault registry is process-global and [`fault::arm`] serializes armed
//! sections, so every test here holds an arm guard — a site-less plan
//! when it needs a clean run — and plain runs (no fault policy), which
//! traverse no sites, need no guard at all
//! (`plain_runs_traverse_no_fault_sites` pins that).

use delorean::bench::headline_strategies;
use delorean::prelude::*;
use delorean::sampling::CheckpointExtras;
use delorean::trace::fault::{self, FaultKind, FaultPlan, FaultSite};
use delorean::trace::{AccessCursor, BranchModel, JournalError, MemAccess};
use std::path::PathBuf;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("delorean-fij-{}-{tag}", std::process::id()))
}

/// Every strategy, including SMARTS's speculative warm lane. Both
/// SMARTS runners' guarded runs add the `ReconcilerCommit` site to
/// `UnitEntry`.
fn all_strategies(scale: Scale, machine: MachineConfig) -> Vec<Box<dyn SamplingStrategy>> {
    vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(SmartsRunner::new(machine).with_speculation(ProxyStateSource::StatModel)),
        Box::new(CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale))),
        Box::new(MrrlRunner::new(machine)),
        Box::new(CheckpointWarmingRunner::new(machine)),
        Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale),
        )),
    ]
}

/// Smallest seed whose plan hits a nonempty strict subset of
/// `0..units` at `site` with period 2; `max_first` additionally forces
/// the first selected unit below it (so a chain has a downstream to
/// poison). Selection is a pure function of `(seed, site, unit)`, so
/// the caller can change strikes/kinds freely on the returned seed.
fn seed_hitting_subset(site: FaultSite, units: u64, max_first: u64) -> u64 {
    (0..4096u64)
        .find(|&seed| {
            let plan = FaultPlan::new(seed).at(site).every(2);
            let hit: Vec<u64> = (0..units)
                .filter(|&u| plan.fault_for(site, u, 0).is_some())
                .collect();
            !hit.is_empty() && (hit.len() as u64) < units && hit[0] < max_first
        })
        .expect("some seed hits a strict subset")
}

#[test]
fn clean_isolated_runs_match_plain_runs_bitwise_at_every_worker_count() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(4).plan();
    let w = spec_workload("soplex", scale, 42).unwrap();
    let policy = FaultPolicy::default();

    // Site-less armed plan: holds the gate so no other test's plan is
    // live, while every instrumented site stays a no-op.
    let _guard = fault::arm(FaultPlan::new(0));
    for s in all_strategies(scale, machine) {
        let plain = s.run_with_workers(&w, &plan, 1);
        for workers in WORKER_COUNTS {
            let iso = s.execute(&w, &plan, workers, Some(&policy));
            assert!(
                iso.is_complete(),
                "{}: clean isolated run quarantined at {workers} workers: {:?}",
                s.name(),
                iso.quarantined
            );
            assert_eq!(
                plain.report,
                iso.report,
                "{}: isolation changed the report at {workers} workers",
                s.name()
            );
            // A guarded run carries the same extras as the plain run.
            assert_eq!(
                plain.extras::<DeLoreanExtras>(),
                iso.extras::<DeLoreanExtras>(),
                "{}: isolation changed the DeLorean extras at {workers} workers",
                s.name()
            );
            assert_eq!(
                plain.extras::<CheckpointExtras>(),
                iso.extras::<CheckpointExtras>(),
                "{}: isolation changed the checkpoint extras at {workers} workers",
                s.name()
            );
            assert_eq!(
                plain.extras::<SpeculationExtras>().is_some(),
                iso.extras::<SpeculationExtras>().is_some(),
                "{}: isolation changed whether speculation extras ride along at {workers} workers",
                s.name()
            );
        }
    }
}

/// Plain runs traverse no fault site: with every unit struck at both
/// region-level sites on every occurrence, `run_with_workers` still
/// returns the clean report. The executor-level kill plans rely on
/// this — a site hit inside a plain cell would consume the same
/// `(site, key)` slots they strike.
#[test]
fn plain_runs_traverse_no_fault_sites() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let w = spec_workload("mcf", scale, 42).unwrap();
    let strike_all = FaultPlan::new(2019)
        .at(FaultSite::UnitEntry)
        .at(FaultSite::ReconcilerCommit)
        .strikes(u32::MAX);
    for s in all_strategies(scale, machine) {
        for workers in [1, 2] {
            let clean = s.run_with_workers(&w, &plan, workers);
            let guard = fault::arm(strike_all);
            let armed = s.run_with_workers(&w, &plan, workers);
            drop(guard);
            assert!(armed.is_complete(), "{}", s.name());
            assert_eq!(
                clean.report,
                armed.report,
                "{}: a plain run traversed a fault site at {workers} workers",
                s.name()
            );
        }
    }
}

#[test]
fn faults_absorbed_by_retries_never_change_the_report() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(4).plan();
    let w = spec_workload("hmmer", scale, 42).unwrap();
    let policy = FaultPolicy::default();

    // Strike every unit at both retryable sites, once fewer than the
    // attempt budget, drawing from the full fault menu (Delay is the
    // benign stall — a delayed unit succeeds on its first attempt).
    let strike_plan = FaultPlan::new(2019)
        .at(FaultSite::UnitEntry)
        .at(FaultSite::ReconcilerCommit)
        .strikes(policy.retry_budget)
        .kinds(&[
            FaultKind::Panic,
            FaultKind::TraceError,
            FaultKind::Timeout,
            FaultKind::Delay,
        ]);
    for s in all_strategies(scale, machine) {
        let plain = s.run_with_workers(&w, &plan, 1).into_report();
        for workers in WORKER_COUNTS {
            // Fresh arm per run: occurrence counters restart, so every
            // run sees the identical fault schedule.
            let guard = fault::arm(strike_plan);
            let iso = s.execute(&w, &plan, workers, Some(&policy));
            drop(guard);
            assert!(
                iso.is_complete(),
                "{}: recoverable faults quarantined at {workers} workers: {:?}",
                s.name(),
                iso.quarantined
            );
            assert_eq!(
                plain,
                iso.report,
                "{}: a retried fault changed the report at {workers} workers",
                s.name()
            );
        }
    }
}

#[test]
fn exhausted_units_quarantine_deterministically_across_worker_counts() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(5).plan();
    let n_units = plan.regions.len() as u64;
    let w = spec_workload("astar", scale, 42).unwrap();
    let policy = FaultPolicy::default();
    // DeLorean's units are independent (no warm chain), so quarantine
    // hits exactly the struck subset and nothing downstream.
    let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale));

    let seed = seed_hitting_subset(FaultSite::UnitEntry, n_units, n_units);
    let kill_plan = FaultPlan::new(seed)
        .at(FaultSite::UnitEntry)
        .every(2)
        .strikes(u32::MAX)
        .kinds(&[FaultKind::Panic]);
    let mut reference: Option<(Vec<u32>, SimulationReport)> = None;
    for workers in WORKER_COUNTS {
        let guard = fault::arm(kill_plan);
        let iso = runner.execute(&w, &plan, workers, Some(&policy));
        drop(guard);
        assert!(!iso.is_complete(), "the kill plan never fired");
        for f in &iso.quarantined {
            assert_eq!(
                f.attempts,
                policy.max_attempts(),
                "unit {} gave up early",
                f.unit
            );
            assert!(
                matches!(f.fault, UnitFault::Panicked { .. }),
                "unit {}: expected a classified panic, got {}",
                f.unit,
                f.fault
            );
        }
        let units: Vec<u32> = iso.quarantined.iter().map(|f| f.unit).collect();
        match &reference {
            None => reference = Some((units, iso.report)),
            Some((r_units, r_report)) => {
                assert_eq!(
                    r_units, &units,
                    "quarantine set changed at {workers} workers"
                );
                assert_eq!(
                    r_report, &iso.report,
                    "partial report changed at {workers} workers"
                );
            }
        }
    }
    let (units, report) = reference.unwrap();
    assert_eq!(
        report.regions.len() + units.len(),
        plan.regions.len(),
        "the partial report must cover exactly the surviving units"
    );
}

#[test]
fn reconciler_exhaustion_poisons_the_downstream_chain() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(5).plan();
    let n_units = plan.regions.len() as u64;
    let w = spec_workload("hmmer", scale, 42).unwrap();
    let policy = FaultPolicy::default();
    // Plain SMARTS runs the same reconciled chain (with no proxy at one
    // worker), so it has the same failure domain as the speculative lane.
    let runners = [
        SmartsRunner::new(machine).with_speculation(ProxyStateSource::StatModel),
        SmartsRunner::new(machine),
    ];

    // First struck unit strictly before the last, so there is a chain
    // to poison downstream of it.
    let seed = seed_hitting_subset(FaultSite::ReconcilerCommit, n_units, n_units - 1);
    let kill_plan = FaultPlan::new(seed)
        .at(FaultSite::ReconcilerCommit)
        .every(2)
        .strikes(u32::MAX)
        .kinds(&[FaultKind::Panic]);
    let mut reference: Option<Vec<u32>> = None;
    for (runner, workers) in runners
        .iter()
        .flat_map(|r| [1, 2, 4].map(|workers| (r, workers)))
    {
        let guard = fault::arm(kill_plan);
        let iso = runner.execute(&w, &plan, workers, Some(&policy));
        drop(guard);
        assert!(!iso.is_complete(), "the reconciler plan never fired");
        let first = *iso
            .quarantined
            .iter()
            .map(|f| &f.unit)
            .min()
            .expect("at least one quarantined unit");
        // The first casualty exhausted the commit gate's retries...
        let head = iso
            .quarantined
            .iter()
            .find(|f| f.unit == first)
            .expect("first casualty present");
        assert_eq!(head.attempts, policy.max_attempts());
        assert!(matches!(head.fault, UnitFault::Panicked { .. }));
        // ...and everything after it is chain-poisoned, never run.
        for unit in (first + 1)..plan.regions.len() as u32 {
            let f = iso
                .quarantined
                .iter()
                .find(|f| f.unit == unit)
                .unwrap_or_else(|| panic!("unit {unit} escaped the poisoned chain"));
            assert_eq!(f.attempts, 0, "poisoned unit {unit} must never run");
            assert!(
                matches!(f.fault, UnitFault::ChainPoisoned { upstream } if upstream == first),
                "unit {unit}: expected ChainPoisoned by {first}, got {}",
                f.fault
            );
        }
        let units: Vec<u32> = iso.quarantined.iter().map(|f| f.unit).collect();
        match &reference {
            None => reference = Some(units),
            Some(r) => assert_eq!(r, &units, "poison set changed at {workers} workers"),
        }
    }
}

/// A workload whose access cursor always panics: any run that warms or
/// measures through it dies, so a strategy guarded as one whole unit
/// fails as a whole.
struct PanickingCursor<W>(W);

impl<W: Workload> Workload for PanickingCursor<W> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn mem_period(&self) -> u64 {
        self.0.mem_period()
    }

    fn access_at(&self, k: u64) -> MemAccess {
        self.0.access_at(k)
    }

    fn branch_model(&self) -> BranchModel {
        self.0.branch_model()
    }

    fn cursor<'a>(&'a self, _range: std::ops::Range<u64>) -> Box<dyn AccessCursor + 'a> {
        std::panic::panic_any("cursor unavailable".to_string())
    }
}

#[test]
fn a_failed_whole_run_guard_quarantines_every_unit_of_the_plan() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(4).plan();
    let w = PanickingCursor(spec_workload("mcf", scale, 42).unwrap());
    let policy = FaultPolicy::default();
    let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
        // Checkpoint preparation is one guarded unit.
        Box::new(CheckpointWarmingRunner::new(machine)),
    ];

    let _guard = fault::arm(FaultPlan::new(0));
    for s in &strategies {
        let iso = s.execute(&w, &plan, 2, Some(&policy));
        assert!(iso.report.regions.is_empty(), "{}", s.name());
        assert_eq!(
            iso.report.regions.len() + iso.quarantined.len(),
            plan.regions.len(),
            "{}: the partial report must still cover the plan",
            s.name()
        );
        let head = &iso.quarantined[0];
        assert_eq!((head.unit, head.attempts), (0, policy.max_attempts()));
        assert!(
            matches!(head.fault, UnitFault::Panicked { ref message } if message.contains("cursor unavailable")),
            "{}: got {}",
            s.name(),
            head.fault
        );
        for (f, unit) in iso.quarantined[1..].iter().zip(1u32..) {
            assert_eq!((f.unit, f.attempts), (unit, 0), "{}", s.name());
            assert!(
                matches!(f.fault, UnitFault::ChainPoisoned { upstream: 0 }),
                "{}: unit {unit} got {}",
                s.name(),
                f.fault
            );
        }
    }
}

#[test]
fn killed_journaled_sweep_resumes_to_the_uninterrupted_matrix() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let workloads: Vec<_> = ["hmmer", "mcf"]
        .iter()
        .map(|n| spec_workload(n, scale, 42).unwrap())
        .collect();
    let strategies = headline_strategies(scale, machine);
    let cells = workloads.len() * strategies.len();
    let exec = BatchExecutor::with_threads(2);
    let policy = FaultPolicy::default();
    let path = temp("kill-resume.dlj");
    let _ = std::fs::remove_file(&path);

    let clean = exec.run_matrix(&strategies, &workloads, &plan);

    // "Kill" the sweep: quarantine a strict subset of cells, leaving
    // the journal holding only the completed ones — byte for byte the
    // state a killed process leaves behind.
    let seed = seed_hitting_subset(FaultSite::UnitEntry, cells as u64, cells as u64);
    let guard = fault::arm(
        FaultPlan::new(seed)
            .at(FaultSite::UnitEntry)
            .every(2)
            .strikes(u32::MAX),
    );
    let killed = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap();
    drop(guard);
    assert!(!killed.is_complete(), "the kill plan never fired");
    let lost = killed.quarantined.len();

    // Resume clean: restored cells verbatim, only the lost cells run,
    // and every cell equals the uninterrupted matrix.
    let _guard = fault::arm(FaultPlan::new(0));
    let resumed = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed_cells, cells - lost);
    assert_eq!(resumed.executed_cells, lost);
    for (crow, rrow) in clean.iter().zip(&resumed.matrix) {
        for (c, r) in crow.iter().zip(rrow) {
            let r = r.as_ref().expect("complete run");
            assert_eq!(
                c.report, r.report,
                "{}/{}: resumed cell diverged",
                c.workload, c.strategy
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn lossy_journal_appends_never_fail_cells_and_resume_reexecutes_exactly_them() {
    // Journal-append faults at executor level: every cell still
    // completes with the clean report, the dropped appends are counted,
    // and a resume re-executes exactly the cells that never became
    // durable.
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let workloads: Vec<_> = ["hmmer", "mcf"]
        .iter()
        .map(|n| spec_workload(n, scale, 42).unwrap())
        .collect();
    let strategies = headline_strategies(scale, machine);
    let cells = workloads.len() * strategies.len();
    let exec = BatchExecutor::with_threads(2);
    let policy = FaultPolicy::default();
    let path = temp("lossy.dlj");
    let _ = std::fs::remove_file(&path);

    let clean = exec.run_matrix(&strategies, &workloads, &plan);
    let matches_clean = |run: &MatrixRun, label: &str| {
        for (crow, rrow) in clean.iter().zip(&run.matrix) {
            for (c, r) in crow.iter().zip(rrow) {
                let r = r.as_ref().expect("complete run");
                assert_eq!(
                    c.report, r.report,
                    "{label}: {}/{} diverged from the clean run",
                    c.workload, c.strategy
                );
            }
        }
    };

    let seed = seed_hitting_subset(FaultSite::JournalWrite, cells as u64, cells as u64);
    let guard = fault::arm(
        FaultPlan::new(seed)
            .at(FaultSite::JournalWrite)
            .every(2)
            .strikes(1),
    );
    let lossy = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap();
    drop(guard);
    assert!(lossy.is_complete(), "append faults must never fail cells");
    matches_clean(&lossy, "lossy-journal");
    assert!(
        lossy.journal_faults > 0,
        "the append-fault plan never fired"
    );

    let _guard = fault::arm(FaultPlan::new(0));
    let rewrite = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap();
    assert!(rewrite.is_complete());
    assert_eq!(rewrite.executed_cells, lossy.journal_faults);
    assert_eq!(rewrite.resumed_cells, cells - lossy.journal_faults);
    matches_clean(&rewrite, "lossy-resume");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn journal_damage_truncates_to_the_valid_prefix_and_reexecutes_lost_cells() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let workloads = vec![spec_workload("soplex", scale, 42).unwrap()];
    let strategies = headline_strategies(scale, machine);
    let cells = workloads.len() * strategies.len();
    let exec = BatchExecutor::with_threads(2);
    let policy = FaultPolicy::default();
    let path = temp("damage.dlj");
    let _ = std::fs::remove_file(&path);

    let _guard = fault::arm(FaultPlan::new(0));
    let clean = exec.run_matrix(&strategies, &workloads, &plan);
    let full = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap();
    assert!(full.is_complete());
    assert_eq!(full.executed_cells, cells);

    let matches_clean = |run: &MatrixRun| {
        for (crow, rrow) in clean.iter().zip(&run.matrix) {
            for (c, r) in crow.iter().zip(rrow) {
                assert_eq!(c.report, r.as_ref().expect("complete run").report);
            }
        }
    };

    // A bit flip in the final entry tears it: the resume keeps the
    // valid prefix, re-executes the one lost cell, and repairs the
    // journal — the matrix still equals the uninterrupted run.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let flipped = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap();
    assert!(flipped.is_complete());
    assert_eq!(flipped.resumed_cells, cells - 1);
    assert_eq!(flipped.executed_cells, 1);
    matches_clean(&flipped);

    // A truncated tail (a write cut off mid-entry) behaves the same.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let chopped = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap();
    assert!(chopped.is_complete());
    assert_eq!(chopped.resumed_cells, cells - 1);
    assert_eq!(chopped.executed_cells, 1);
    matches_clean(&chopped);

    // Header damage is *not* recoverable: the file's provenance is
    // gone, so resuming is a hard error, never silent re-execution.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let err = exec
        .run_matrix_journaled(&strategies, &workloads, &plan, &policy, &path)
        .unwrap_err();
    assert!(
        !matches!(err, JournalError::Io(_)),
        "header damage must classify, not surface as I/O: {err}"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resuming_with_a_different_sweep_configuration_is_a_hard_error() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let strategies = headline_strategies(scale, machine);
    let exec = BatchExecutor::with_threads(2);
    let policy = FaultPolicy::default();
    let path = temp("tag.dlj");
    let _ = std::fs::remove_file(&path);

    let _guard = fault::arm(FaultPlan::new(0));
    let first = vec![spec_workload("hmmer", scale, 42).unwrap()];
    exec.run_matrix_journaled(&strategies, &first, &plan, &policy, &path)
        .unwrap();

    // Same path, different workload list: the tag catches it before a
    // single cell is restored into the wrong sweep.
    let second = vec![spec_workload("mcf", scale, 42).unwrap()];
    match exec.run_matrix_journaled(&strategies, &second, &plan, &policy, &path) {
        Err(JournalError::TagMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected TagMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}
