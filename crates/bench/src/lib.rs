//! Experiment harness: regenerate every table and figure of the paper.
//!
//! Each module under [`experiments`] reproduces one artifact of the
//! evaluation section and returns a [`Table`] whose rows mirror what the
//! paper plots:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::table1`] | Table 1 — simulated processor configuration |
//! | [`experiments::fig05`] | Fig. 5 — normalized simulation speed (+ §6.1 absolute MIPS) |
//! | [`experiments::fig06`] | Fig. 6 — collected reuse distances, CoolSim vs DeLorean |
//! | [`experiments::fig07`] | Fig. 7 — key reuse distances per Explorer (+ §3.2 key counts) |
//! | [`experiments::fig08`] | Fig. 8 — average number of engaged Explorers |
//! | [`experiments::fig09`] | Fig. 9 — CPI at the 8 MiB LLC |
//! | [`experiments::fig10`] | Fig. 10 — CPI at the 512 MiB LLC |
//! | [`experiments::fig11`] | Fig. 11 — vicinity-density speed/accuracy trade-off |
//! | [`experiments::fig12`] | Fig. 12 — CPI error with/without prefetching |
//! | [`experiments::fig13`] | Fig. 13 — working-set curves (MPKI vs LLC size) |
//! | [`experiments::fig14`] | Fig. 14 — CPI vs LLC size from one shared warm-up (+ §6.4.2 costs) |
//! | [`experiments::ablation`] | design-choice ablations called out in DESIGN.md |
//!
//! One binary per figure lives in `src/bin/`, next to `trace-pack`
//! (pack, inspect and verify tile files); `run_all` executes everything
//! and emits the EXPERIMENTS.md payload. Performance is measured by the
//! separate `simbench` package, not by this crate.
//!
//! Every experiment funnels its strategy runs through [`BatchExecutor`],
//! which fans `Box<dyn SamplingStrategy>` × workload matrices out across
//! worker threads with input-ordered (thread-count-independent) results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod journal;
mod options;
mod runs;
mod table;

pub use options::ExpOptions;
pub use runs::{
    compare_all, headline_strategies, plan_for, BatchExecutor, BenchmarkComparison, MatrixRun,
    StrategyOutputs,
};
pub use table::Table;
