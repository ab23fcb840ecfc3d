//! Serializable sweep specification: which matrix a job runs.
//!
//! A [`SweepSpec`] names everything a worker needs to rebuild the exact
//! strategy×workload matrix the broker is sweeping — scale preset,
//! suite seed, workload names, strategy names, region count, optional
//! LLC override — because strategies and workloads are themselves pure
//! functions of these inputs. Shipping names instead of state is what
//! keeps the wire protocol small and every process bitwise agreed: both
//! sides construct from the same constructors the in-process
//! [`BatchExecutor`](delorean_bench::BatchExecutor) uses.

use crate::ShardError;
use delorean_bench::journal::{push_str, push_u32, push_u64, push_u8, sweep_tag_names, Take};
use delorean_cache::MachineConfig;
use delorean_core::{DeLoreanConfig, DeLoreanRunner};
use delorean_sampling::{
    CheckpointWarmingRunner, CoolSimConfig, CoolSimRunner, MrrlRunner, RegionPlan, SamplingConfig,
    SamplingStrategy, SmartsRunner,
};
use delorean_trace::{spec_workload, PhasedWorkload, Scale};

/// Spec encoding version.
const SPEC_VERSION: u32 = 1;

/// The five strategy names [`build_strategy`] understands, in the
/// canonical comparison order.
pub const STRATEGY_NAMES: [&str; 5] = ["smarts", "coolsim", "mrrl", "checkpoint", "delorean"];

/// Build one strategy by canonical name.
pub fn build_strategy(
    name: &str,
    scale: Scale,
    machine: MachineConfig,
) -> Result<Box<dyn SamplingStrategy>, ShardError> {
    match name {
        "smarts" => Ok(Box::new(SmartsRunner::new(machine))),
        "coolsim" => Ok(Box::new(CoolSimRunner::new(
            machine,
            CoolSimConfig::for_scale(scale),
        ))),
        "mrrl" => Ok(Box::new(MrrlRunner::new(machine))),
        "checkpoint" => Ok(Box::new(CheckpointWarmingRunner::new(machine))),
        "delorean" => Ok(Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale),
        ))),
        other => Err(ShardError::Spec(format!("unknown strategy {other:?}"))),
    }
}

/// One job's sweep configuration, serializable for the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Experiment scale preset (encoded by label; divisors verified).
    pub scale: Scale,
    /// Suite seed for [`spec_workload`] phase generation.
    pub suite_seed: u64,
    /// Workload names, matrix row order.
    pub workloads: Vec<String>,
    /// Strategy names, matrix column order.
    pub strategies: Vec<String>,
    /// Detailed-region count of the sampling plan.
    pub regions: u32,
    /// Optional LLC size override (paper-scale bytes).
    pub llc_paper_bytes: Option<u64>,
    /// `Some(k)`: lease decomposable strategies' cells as region spans
    /// of at most `k` regions instead of whole cells.
    pub split_regions: Option<u32>,
}

impl SweepSpec {
    /// A spec with no workloads or strategies yet.
    pub fn new(scale: Scale, regions: u32) -> SweepSpec {
        SweepSpec {
            scale,
            suite_seed: 1,
            workloads: Vec::new(),
            strategies: Vec::new(),
            regions,
            llc_paper_bytes: None,
            split_regions: None,
        }
    }

    /// Set the workload list.
    pub fn with_workloads(mut self, names: &[&str]) -> SweepSpec {
        self.workloads = names.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Set the strategy list.
    pub fn with_strategies(mut self, names: &[&str]) -> SweepSpec {
        self.strategies = names.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Set the suite seed.
    pub fn with_suite_seed(mut self, seed: u64) -> SweepSpec {
        self.suite_seed = seed;
        self
    }

    /// Override the LLC size (paper-scale bytes).
    pub fn with_llc_paper_bytes(mut self, bytes: u64) -> SweepSpec {
        self.llc_paper_bytes = Some(bytes);
        self
    }

    /// Lease decomposable cells as spans of at most `k` regions.
    pub fn with_split_regions(mut self, k: u32) -> SweepSpec {
        self.split_regions = Some(k.max(1));
        self
    }

    /// Cells in the matrix (`workloads × strategies`).
    pub fn n_cells(&self) -> usize {
        self.workloads.len() * self.strategies.len()
    }

    /// Strategy name of a flat cell (`cell = w * strategies + s`).
    pub fn strategy_name(&self, cell: u32) -> &str {
        &self.strategies[cell as usize % self.strategies.len()]
    }

    /// Workload name of a flat cell.
    pub fn workload_name(&self, cell: u32) -> &str {
        &self.workloads[cell as usize / self.strategies.len()]
    }

    /// The sampling plan this spec describes.
    pub fn plan(&self) -> RegionPlan {
        SamplingConfig::for_scale(self.scale)
            .with_regions(self.regions)
            .plan()
    }

    /// The machine configuration this spec describes.
    pub fn machine(&self) -> MachineConfig {
        let machine = MachineConfig::for_scale(self.scale);
        match self.llc_paper_bytes {
            Some(bytes) => machine.with_llc_paper_bytes(self.scale, bytes),
            None => machine,
        }
    }

    /// The journal tag binding this spec's sweeps — identical to the
    /// in-process executor's
    /// ([`sweep_tag`](delorean_bench::journal::sweep_tag)), so shard
    /// and in-process journals resume each other.
    pub fn tag(&self, plan: &RegionPlan) -> u64 {
        let strategies: Vec<&str> = self.strategies.iter().map(String::as_str).collect();
        let workloads: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        sweep_tag_names(&strategies, &workloads, plan)
    }

    /// Instantiate the strategy list.
    pub fn build_strategies(&self) -> Result<Vec<Box<dyn SamplingStrategy>>, ShardError> {
        let machine = self.machine();
        self.strategies
            .iter()
            .map(|name| build_strategy(name, self.scale, machine))
            .collect()
    }

    /// Instantiate the workload list.
    pub fn build_workloads(&self) -> Result<Vec<PhasedWorkload>, ShardError> {
        self.workloads
            .iter()
            .map(|name| {
                spec_workload(name, self.scale, self.suite_seed)
                    .ok_or_else(|| ShardError::Spec(format!("unknown workload {name:?}")))
            })
            .collect()
    }

    /// Check the spec is well-formed and every name resolves. Returns,
    /// per strategy, whether its cells decompose into independent region
    /// units — the strategy's own answer:
    /// [`SamplingStrategy::run_unit_span`] over an empty span is `Some`
    /// exactly when it does. The broker leases only such cells as
    /// region spans.
    pub fn validate(&self) -> Result<Vec<bool>, ShardError> {
        if self.workloads.is_empty() || self.strategies.is_empty() {
            return Err(ShardError::Spec(
                "spec needs at least one workload and one strategy".to_string(),
            ));
        }
        if self.regions == 0 {
            return Err(ShardError::Spec(
                "spec needs at least one region".to_string(),
            ));
        }
        let strategies = self.build_strategies()?;
        let workloads = self.build_workloads()?;
        let plan = self.plan();
        Ok(strategies
            .iter()
            .map(|s| s.run_unit_span(&workloads[0], &plan, 0..0).is_some())
            .collect())
    }

    /// Serialize for a [`Message::Job`](crate::wire::Message::Job).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u32(&mut out, SPEC_VERSION);
        push_str(&mut out, self.scale.label);
        push_u64(&mut out, self.scale.instr_div);
        push_u64(&mut out, self.scale.size_div);
        push_u64(&mut out, self.suite_seed);
        push_u32(&mut out, self.workloads.len() as u32);
        for w in &self.workloads {
            push_str(&mut out, w);
        }
        push_u32(&mut out, self.strategies.len() as u32);
        for s in &self.strategies {
            push_str(&mut out, s);
        }
        push_u32(&mut out, self.regions);
        match self.llc_paper_bytes {
            Some(b) => {
                push_u8(&mut out, 1);
                push_u64(&mut out, b);
            }
            None => push_u8(&mut out, 0),
        }
        match self.split_regions {
            Some(k) => {
                push_u8(&mut out, 1);
                push_u32(&mut out, k);
            }
            None => push_u8(&mut out, 0),
        }
        out
    }

    /// Deserialize. Scale presets are matched by label and their
    /// divisors verified — a spec from a build with different scaling
    /// constants is rejected instead of silently diverging.
    pub fn decode(bytes: &[u8]) -> Result<SweepSpec, ShardError> {
        let corrupt = || ShardError::Spec("spec payload is malformed".to_string());
        let mut r = Take::new(bytes);
        let version = r.u32().ok_or_else(corrupt)?;
        if version != SPEC_VERSION {
            return Err(ShardError::Spec(format!(
                "unsupported spec version {version}"
            )));
        }
        let label = r.string().ok_or_else(corrupt)?;
        let instr_div = r.u64().ok_or_else(corrupt)?;
        let size_div = r.u64().ok_or_else(corrupt)?;
        let scale = match label.as_str() {
            "paper" => Scale::paper(),
            "demo" => Scale::demo(),
            "tiny" => Scale::tiny(),
            other => {
                return Err(ShardError::Spec(format!("unknown scale preset {other:?}")));
            }
        };
        if scale.instr_div != instr_div || scale.size_div != size_div {
            return Err(ShardError::Spec(format!(
                "scale {label:?} divisors disagree: peer has {instr_div}/{size_div}, \
                 this build has {}/{}",
                scale.instr_div, scale.size_div
            )));
        }
        let suite_seed = r.u64().ok_or_else(corrupt)?;
        let n_workloads = r.u32().ok_or_else(corrupt)? as usize;
        let mut workloads = Vec::with_capacity(n_workloads.min(4096));
        for _ in 0..n_workloads {
            workloads.push(r.string().ok_or_else(corrupt)?);
        }
        let n_strategies = r.u32().ok_or_else(corrupt)? as usize;
        let mut strategies = Vec::with_capacity(n_strategies.min(4096));
        for _ in 0..n_strategies {
            strategies.push(r.string().ok_or_else(corrupt)?);
        }
        let regions = r.u32().ok_or_else(corrupt)?;
        let llc_paper_bytes = match r.u8().ok_or_else(corrupt)? {
            0 => None,
            _ => Some(r.u64().ok_or_else(corrupt)?),
        };
        let split_regions = match r.u8().ok_or_else(corrupt)? {
            0 => None,
            _ => Some(r.u32().ok_or_else(corrupt)?),
        };
        if !r.done() {
            return Err(corrupt());
        }
        Ok(SweepSpec {
            scale,
            suite_seed,
            workloads,
            strategies,
            regions,
            llc_paper_bytes,
            split_regions,
        })
    }
}
