//! Armed fault-injection tests for the trace-level sites: journal
//! appends and the guarded unit runner.
//!
//! These tests live in their own integration binary on purpose: the
//! fault registry is process-global, and [`delorean_trace::fault::arm`]
//! serializes armed sections against each other — but it cannot
//! protect tests in *other* binaries that traverse the same sites.
//! Everything here either holds an arm guard or consults plans purely.

use delorean_trace::fault::{self, FaultKind, FaultPlan, FaultPolicy, FaultSite, UnitFault};
use delorean_trace::journal::{JournalError, JournalReader, JournalWriter};
use std::path::PathBuf;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("delorean-fault-{}-{tag}", std::process::id()))
}

#[test]
fn journal_write_fault_is_a_typed_error_and_the_retry_lands() {
    let path = temp("journal.dlj");
    let _guard = fault::arm(
        FaultPlan::new(11)
            .at(FaultSite::JournalWrite)
            .every(1)
            .strikes(1)
            .kinds(&[FaultKind::TraceError]),
    );
    let mut w = JournalWriter::create(&path, 0xabcd).unwrap();
    // First occurrence of entry 0 faults, as a typed error — never a
    // panic, and never a byte on disk.
    match w.append(1, b"cell-0") {
        Err(JournalError::Injected { seq: 0 }) => {}
        other => panic!("expected injected fault, got {other:?}"),
    }
    assert_eq!(w.entries(), 0);
    // The retry (occurrence 1 ≥ strikes) succeeds.
    w.append(1, b"cell-0").unwrap();
    assert_eq!(w.entries(), 1);
    drop(_guard);

    let r = JournalReader::open(&path, Some(0xabcd)).unwrap();
    assert!(!r.torn, "a faulted append must leave no partial bytes");
    assert_eq!(r.entries.len(), 1);
    assert_eq!(r.entries[0].payload, b"cell-0");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn armed_plan_drives_guarded_retry_through_occurrence_counters() {
    let _guard = fault::arm(
        FaultPlan::new(21)
            .at(FaultSite::UnitEntry)
            .every(1)
            .strikes(1)
            .kinds(&[FaultKind::Panic]),
    );
    // First attempt faults at entry, the retry's occurrence passes the
    // strike budget and the unit completes.
    let out = fault::run_unit_guarded(5, &FaultPolicy::default(), || {
        fault::hit(FaultSite::UnitEntry, 5);
        42u32
    });
    assert_eq!(out.unwrap(), 42);
}

#[test]
fn strikes_beyond_the_budget_quarantine_with_attempt_count() {
    let _guard = fault::arm(
        FaultPlan::new(33)
            .at(FaultSite::UnitEntry)
            .every(1)
            .strikes(u32::MAX)
            .kinds(&[FaultKind::Timeout]),
    );
    let policy = FaultPolicy { retry_budget: 2 };
    let err = fault::run_unit_guarded(9, &policy, || -> u32 {
        fault::hit(FaultSite::UnitEntry, 9);
        unreachable!("the plan faults every occurrence");
    })
    .unwrap_err();
    assert_eq!(err.unit, 9);
    assert_eq!(err.attempts, 3);
    assert!(matches!(err.fault, UnitFault::Timeout));
}

#[test]
fn delay_faults_stall_but_never_fail() {
    let _guard = fault::arm(
        FaultPlan::new(17)
            .at(FaultSite::UnitEntry)
            .every(1)
            .strikes(u32::MAX)
            .kinds(&[FaultKind::Delay]),
    );
    let out = fault::run_unit_guarded(3, &FaultPolicy { retry_budget: 0 }, || {
        fault::hit(FaultSite::UnitEntry, 3);
        7u32
    });
    assert_eq!(out.unwrap(), 7);
}

#[test]
fn arm_guard_releases_the_gate_for_the_next_plan() {
    let g = fault::arm(FaultPlan::new(1).at(FaultSite::UnitEntry));
    assert!(fault::armed());
    drop(g);
    let g2 = fault::arm(FaultPlan::new(2).at(FaultSite::JournalWrite));
    assert!(fault::armed());
    drop(g2);
}
