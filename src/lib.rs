//! # DeLorean — directed statistical warming through time traveling
//!
//! A from-scratch Rust reproduction of *"Directed Statistical Warming
//! through Time Traveling"* (Nikoleris, Eeckhout, Hagersten, Carlson,
//! MICRO-52 2019): a sampled-simulation methodology that installs accurate
//! cache state for detailed simulation regions by collecting only the
//! *key reuse distances* (directed statistical warming) in a multi-pass,
//! fast-forward/roll-back pipeline (time traveling).
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`trace`] — deterministic, position-addressable synthetic workloads
//!   (the SPEC CPU2006 stand-in).
//! * [`statmodel`] — StatStack/StatCache statistical cache models.
//! * [`cache`] — set-associative cache hierarchy simulator with MSHRs and
//!   a stride prefetcher.
//! * [`cpu`] — branch predictor and out-of-order interval timing model.
//! * [`virt`] — virtualized fast-forwarding, page-protection watchpoints
//!   and the host cost model.
//! * [`sampling`] — the sampled-simulation framework and the SMARTS /
//!   CoolSim baselines.
//! * [`core`] — DeLorean itself: DSW + TT (Scout, Explorers, Analyst),
//!   design-space exploration.
//! * [`mod@bench`] — the experiment harness regenerating every figure/table.
//! * [`shard`] — the sweep broker/worker shard layer: distributed,
//!   journaled matrices bitwise identical to the in-process executor.
//!
//! ## Quickstart
//!
//! Every warming strategy implements [`SamplingStrategy`]
//! (re-exported in the [`prelude`]), so any mix of strategies runs
//! through one interface — boxed for batch execution or called directly:
//!
//! ```
//! use delorean::prelude::*;
//!
//! // Build a workload and compare DeLorean against the SMARTS reference.
//! let scale = Scale::tiny();
//! let workload = spec_workload("bwaves", scale, 42).unwrap();
//! let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
//! let machine = MachineConfig::for_scale(scale);
//!
//! let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
//!     Box::new(SmartsRunner::new(machine)),
//!     Box::new(DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale))),
//! ];
//! let reports: Vec<StrategyReport> =
//!     strategies.iter().map(|s| s.run(&workload, &plan)).collect();
//!
//! let err = reports[1].cpi_error_vs(&reports[0]);
//! assert!(err < 0.5, "CPI error {err}");
//! assert!(reports[1].speedup_vs(&reports[0]) > 1.0);
//! ```
//!
//! [`SamplingStrategy`]: sampling::SamplingStrategy

pub use delorean_bench as bench;
pub use delorean_cache as cache;
pub use delorean_core as core;
pub use delorean_cpu as cpu;
pub use delorean_sampling as sampling;
pub use delorean_shard as shard;
pub use delorean_statmodel as statmodel;
pub use delorean_trace as trace;
pub use delorean_virt as virt;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use delorean_bench::{BatchExecutor, MatrixRun};
    pub use delorean_cache::{CacheConfig, HierarchyConfig, MachineConfig};
    pub use delorean_core::dse::DesignSpaceExplorer;
    pub use delorean_core::{
        DeLoreanConfig, DeLoreanExtras, DeLoreanOutput, DeLoreanRunner, TtStats,
    };
    pub use delorean_cpu::TimingConfig;
    pub use delorean_sampling::{
        CheckpointWarmingRunner, CoolSimConfig, CoolSimRunner, FaultPolicy, MrrlRunner,
        ProxyStateSource, RegionPlan, RegionScheduler, SamplingConfig, SamplingStrategy,
        SimulationReport, SmartsRunner, SpeculationExtras, StrategyReport, UnitFailure, UnitFault,
    };
    pub use delorean_shard::{
        worker_loop, Broker, BrokerConfig, JobRequest, ShardRun, SweepSpec, WorkerOptions,
    };
    pub use delorean_trace::{
        pack_workload, spec2006, spec_workload, Scale, TiledTrace, Workload, WorkloadExt,
        SPEC2006_NAMES,
    };
    pub use delorean_virt::CostModel;
}
