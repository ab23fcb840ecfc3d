//! Virtualized execution substrate and host cost accounting.
//!
//! In the paper, DeLorean runs on real hardware: KVM fast-forwards between
//! detailed regions at near-native speed, and reuse distances are sampled
//! with watchpoints built on the OS page-protection mechanism. Neither is
//! available to a trace-driven reproduction, so this crate provides the
//! closest synthetic equivalents:
//!
//! * [`CostModel`] — per-instruction rates for each [`WorkKind`]: a
//!   fast-forward over the position-addressable trace is free to execute
//!   (the workload needs no warm state besides its position) and is
//!   charged at near-native VFF MIPS, while functional simulation (used
//!   for functional warming and Explorer-1's directed profiling) is
//!   charged at gem5-atomic-like speed;
//! * [`profile_reuses`] — virtualized directed profiling: watchpoints
//!   are registered per *line* but trap per *page*, so false positives
//!   (a trap on a watched page whose line is not watched) are an
//!   emergent property of workload layout, exactly the effect that makes
//!   povray expensive in the paper. Explorer-1
//!   ([`ScanMode::Functional`]), the VDP explorers and CoolSim's warm-up
//!   interval ([`ScanMode::Vdp`]) all profile through this one scan,
//!   walking the workload's page-disjoint line domains against one
//!   watched-line mask per page and reporting a [`ReuseScan`] with its
//!   [`WatchScanStats`]. It takes each domain in page runs, consecutive
//!   accesses on consecutive lines of one page: until a watched line is
//!   touched or a sample arms, the watch set does not change, so a run
//!   traps as a whole or not at all, and `protected += len · (mask ≠ 0)`
//!   counts its traps exactly; the scan goes access by access only at
//!   those events;
//! * [`HostClock`] / [`RunCost`] — seconds-based cost accounting, with
//!   pipelined wall-clock estimation for the multi-pass TT pipeline and
//!   per-worker wall-clock modeling for the region-parallel runtime:
//!   each region unit records its chained-lane vs parallel-lane cost as
//!   a [`UnitCost`], and
//!   [`RunCost::region_parallel_wallclock`] list-schedules the units
//!   onto any worker count deterministically — speedup curves that do
//!   not depend on the host the run executed on.
//!
//! The absolute constants in [`CostModel::paper_host`] are calibrated to
//! the paper's platform-level observations (functional warming ≈ 1.4 MIPS,
//! VFF near-native on a 2.26 GHz Xeon, microsecond-scale trap handling).
//! All speed *ratios* in the experiments emerge from mechanism work, not
//! from per-benchmark tuning.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod cost;
mod watch;

pub use clock::{HostClock, PassCost, RunCost, SpecUnit, UnitCost};
pub use cost::{mips, CostModel, WorkKind};
pub use watch::{profile_reuses, ReuseScan, ScanMode, WatchScanStats};
