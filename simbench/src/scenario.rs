//! The three workloads: their inputs, set-up, end-to-end pass and
//! output checks.
//!
//! * `warm-chain` — SMARTS, SMARTS through the speculative lane and
//!   checkpointed warming on hmmer, mcf and lbm, read back from tile
//!   files packed during set-up.
//! * `time-travel` — DeLorean on mcf, povray, GemsFDTD, lbm and soplex,
//!   plus one design-space exploration over the 10-point LLC sweep on
//!   cactusADM, all on the synthetic generators.
//! * `shard-sweep` — CoolSim and MRRL over eight other inputs, leased
//!   as one-region spans by a broker to worker processes in one
//!   journaled job per input.

use crate::cells::{CellRun, Kind, Suite};
use crate::clock;
use crate::shard::{Fleet, FleetStats};
use delorean_bench::BatchExecutor;
use delorean_cache::MachineConfig;
use delorean_sampling::{SamplingConfig, SimulationReport};
use delorean_shard::SweepSpec;
use delorean_trace::tile::{pack_workload, TiledTrace};
use delorean_trace::{spec_workload, PhasedWorkload, Scale, Workload};
use std::path::{Path, PathBuf};

/// Which workload a run measures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Which {
    /// Chained functional warming over tiled inputs.
    WarmChain,
    /// DeLorean and DSE over synthetic inputs.
    TimeTravel,
    /// CoolSim and MRRL across worker processes.
    ShardSweep,
}

impl Which {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Which> {
        match name {
            "warm-chain" => Some(Which::WarmChain),
            "time-travel" => Some(Which::TimeTravel),
            "shard-sweep" => Some(Which::ShardSweep),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Which::WarmChain => "warm-chain",
            Which::TimeTravel => "time-travel",
            Which::ShardSweep => "shard-sweep",
        }
    }

    fn inputs(self) -> &'static [&'static str] {
        match self {
            Which::WarmChain => &["hmmer", "mcf", "lbm"],
            Which::TimeTravel => &["mcf", "povray", "GemsFDTD", "lbm", "soplex", "cactusADM"],
            Which::ShardSweep => &[
                "bzip2",
                "bwaves",
                "gamess",
                "namd",
                "gobmk",
                "sjeng",
                "libquantum",
                "astar",
            ],
        }
    }

    /// Detailed regions in the plan: short enough that a run fits many
    /// passes, and on `warm-chain` that the packed tiles stay at a few
    /// hundred MB at demo scale.
    fn regions(self) -> u32 {
        match self {
            Which::WarmChain | Which::ShardSweep => 2,
            Which::TimeTravel => 3,
        }
    }

    /// Timed set-up samples per set-up round, and set-ups per sample.
    /// `setup_s` is the median sample divided by its set-ups.
    fn setup_plan(self) -> (usize, usize) {
        match self {
            // Building six generators takes about 0.1 ms: too short to
            // time alone, so each sample times a batch of set-ups.
            Which::TimeTravel => (9, 64),
            // A spawn and handshake takes about 10 ms and jitters with
            // process start-up, so each round takes several samples.
            Which::ShardSweep => (7, 1),
            // Packing takes about a second.
            Which::WarmChain => (1, 1),
        }
    }

    fn cells(self) -> Vec<(Kind, usize)> {
        match self {
            Which::WarmChain => (0..3)
                .flat_map(|i| {
                    [
                        (Kind::Smarts, i),
                        (Kind::SmartsSpec, i),
                        (Kind::Checkpoint, i),
                    ]
                })
                .collect(),
            Which::TimeTravel => (0..5)
                .map(|i| (Kind::DeLorean, i))
                .chain([(Kind::Dse, 5)])
                .collect(),
            // Workload-major, strategy-minor: the shard matrix's order.
            Which::ShardSweep => (0..8)
                .flat_map(|i| [(Kind::CoolSim, i), (Kind::Mrrl, i)])
                .collect(),
        }
    }
}

/// Set-up timings of every repetition, seconds.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up.
    pub total: Vec<f64>,
    /// Tile packing (`warm-chain`).
    pub pack: Vec<f64>,
    /// Tile open + checksum verification (`warm-chain`).
    pub verify: Vec<f64>,
    /// Worker spawn + handshake (`shard-sweep`).
    pub spawn: Vec<f64>,
}

/// One end-to-end pass: its wall time, the walls of its separately
/// timed units, and each cell's reports (or why the cell failed), in
/// suite cell order.
pub struct Pass {
    /// Host wall seconds of the whole pass.
    pub wall_s: f64,
    /// Host wall seconds of each timed unit, in a fixed order: each cell
    /// in process, each input's shard job on `shard-sweep`.
    pub units: Vec<f64>,
    /// Per-cell reports.
    pub cells: Vec<Result<Vec<SimulationReport>, String>>,
    /// Per-cell detail, for in-process passes.
    pub runs: Option<Vec<CellRun>>,
}

impl Pass {
    /// The pass made of in-process cell runs.
    pub fn from_runs(runs: Vec<CellRun>, wall_s: f64) -> Pass {
        Pass {
            wall_s,
            units: runs.iter().map(|r| r.wall_s).collect(),
            cells: runs.iter().map(outcome_reports).collect(),
            runs: Some(runs),
        }
    }
}

/// A set-up workload, ready to run passes.
pub struct Scenario {
    /// Which workload this is.
    pub which: Which,
    /// Its cells.
    pub suite: Suite,
    /// Generated inputs, one per input name.
    pub synth: Vec<PhasedWorkload>,
    /// Tiled inputs (`warm-chain`).
    tiles: Vec<TiledTrace>,
    /// Plain 2-worker and 1-worker fleets (`shard-sweep`).
    fleets: Option<(Fleet, Fleet)>,
    /// Tapped 2-worker and 1-worker fleets (`shard-sweep`, traced runs).
    tapped: Option<(Fleet, Fleet)>,
    seed: u64,
    work: PathBuf,
    /// Set-up timings.
    pub setup: SetupTimes,
}

/// The strategies of the `shard-sweep` job, in matrix column order.
pub const SHARD_STRATEGIES: [&str; 2] = ["coolsim", "mrrl"];

impl Scenario {
    /// Build the workload's inputs from `seed`, timing the set-up.
    pub fn setup(which: Which, scale: Scale, seed: u64, work: &Path) -> Result<Scenario, String> {
        let plan = SamplingConfig::for_scale(scale)
            .with_regions(which.regions())
            .plan();
        let mut sc = Scenario {
            which,
            suite: Suite {
                scale,
                machine: MachineConfig::for_scale(scale),
                plan,
                cells: which.cells(),
            },
            synth: Vec::new(),
            tiles: Vec::new(),
            fleets: None,
            tapped: None,
            seed,
            work: work.to_path_buf(),
            setup: SetupTimes::default(),
        };
        sc.sample_setup()?;
        Ok(sc)
    }

    /// Redo the set-up, timing it in [`Which::setup_plan`] samples. The
    /// end-to-end run calls this once per round, so the set-up samples
    /// spread over the run as the passes do, rather than all landing in
    /// whatever state the host is in at start-up.
    pub fn sample_setup(&mut self) -> Result<(), String> {
        let (samples, batch) = self.which.setup_plan();
        for _ in 0..samples {
            // Release the previous sample's maps and processes first,
            // untimed (only `time-travel`, which holds neither, batches).
            self.tiles.clear();
            self.fleets = None;
            let start = clock::now();
            for _ in 0..batch {
                self.synth = self
                    .which
                    .inputs()
                    .iter()
                    .map(|n| {
                        spec_workload(n, self.suite.scale, self.seed)
                            .ok_or(format!("unknown input {n}"))
                    })
                    .collect::<Result<_, _>>()?;
                match self.which {
                    Which::WarmChain => self.pack_tiles()?,
                    Which::ShardSweep => {
                        let (fleets, spawn_s) = clock::timed(|| self.spawn_fleets(false));
                        self.fleets = Some(fleets?);
                        self.setup.spawn.push(spawn_s);
                    }
                    Which::TimeTravel => {}
                }
            }
            self.setup
                .total
                .push(clock::secs_since(start) / batch as f64);
        }
        Ok(())
    }

    fn pack_tiles(&mut self) -> Result<(), String> {
        let (mut pack, mut verify) = (0.0, 0.0);
        for w in &self.synth {
            // Pack the plan's whole instruction span, so no strategy
            // relies on the tile file's cyclic extension.
            let span = w.accesses_in_instrs(self.suite.plan.total_instrs()) + 1;
            let path = self.work.join(format!("{}.dlt", w.name()));
            let (packed, s) = clock::timed(|| pack_workload(w, 0..span, &path));
            packed.map_err(|e| format!("pack {}: {e}", w.name()))?;
            pack += s;
            // Flush the tiles to disk inside the timed set-up. Otherwise
            // the kernel writes the ~325 MB back about 30 s later, in the
            // middle of the timed passes, on the same two cores.
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("flush {}: {e}", path.display()))?;
            let (tiled, s) = clock::timed(|| TiledTrace::open(&path));
            self.tiles
                .push(tiled.map_err(|e| format!("open {}: {e}", w.name()))?);
            verify += s;
        }
        self.setup.pack.push(pack);
        self.setup.verify.push(verify);
        Ok(())
    }

    /// Spawn a 2-worker and a 1-worker fleet, plain or tapped, and
    /// complete the Hello/Job handshake with each.
    fn spawn_fleets(&self, tapped: bool) -> Result<(Fleet, Fleet), String> {
        let tag = if tapped { "tapped" } else { "plain" };
        let mut two = Fleet::spawn(2, &self.work, &format!("{tag}2"), tapped)?;
        let mut one = Fleet::spawn(1, &self.work, &format!("{tag}1"), tapped)?;
        // Handshake: every worker says Hello, learns a job and serves a
        // lease, so the first measured pass starts from warm processes.
        let names: Vec<&str> = self.which.inputs()[..2].to_vec();
        let hello = SweepSpec::new(Scale::tiny(), 1)
            .with_suite_seed(self.seed)
            .with_workloads(&names)
            .with_strategies(&["mrrl"])
            .with_split_regions(1);
        for (fleet, n) in [(&mut two, 2), (&mut one, 1)] {
            let journal = self.work.join(format!("hello-{tag}{n}.dlj"));
            let (run, _) = fleet.run(hello.clone(), &journal)?;
            if !run.run.is_complete() {
                return Err("handshake job quarantined a cell".to_string());
            }
            fleet.take_stats()?;
        }
        Ok((two, one))
    }

    /// Spawn the tapped fleets a traced `shard-sweep` run measures the
    /// shard layer with (not part of the set-up time).
    pub fn spawn_tapped(&mut self) -> Result<(), String> {
        self.tapped = Some(self.spawn_fleets(true)?);
        Ok(())
    }

    /// The inputs the strategies read: tiles on `warm-chain`, the
    /// generators elsewhere.
    pub fn inputs(&self) -> Vec<&dyn Workload> {
        match self.which {
            Which::WarmChain => self.tiles.iter().map(|t| t as &dyn Workload).collect(),
            _ => self.synth.iter().map(|w| w as &dyn Workload).collect(),
        }
    }

    /// The shard job over `inputs` and `strategies`.
    pub fn sweep_spec(&self, inputs: &[&str], strategies: &[&str]) -> SweepSpec {
        SweepSpec::new(self.suite.scale, self.which.regions())
            .with_suite_seed(self.seed)
            .with_workloads(inputs)
            .with_strategies(strategies)
            .with_split_regions(1)
    }

    /// One end-to-end pass over every cell at `workers` (region workers
    /// in-process, plain worker processes on `shard-sweep`).
    pub fn pass(&mut self, workers: usize) -> Result<Pass, String> {
        if self.which != Which::ShardSweep {
            let inputs = self.inputs();
            let (runs, wall_s) = clock::timed(|| self.suite.pass(&inputs, workers));
            return Ok(Pass::from_runs(runs, wall_s));
        }
        Ok(self.shard_pass(workers, false, &SHARD_STRATEGIES)?.0)
    }

    /// One sweep of `strategies` over the inputs on the `workers`-process
    /// fleet, plain or tapped: one journaled job per input, back to back,
    /// each timed as a unit. Returns the pass (cells in matrix order:
    /// input-major, strategy-minor) and the journals' size in bytes.
    pub fn shard_pass(
        &mut self,
        workers: usize,
        tapped: bool,
        strategies: &[&str],
    ) -> Result<(Pass, u64), String> {
        let mut pass = Pass {
            wall_s: 0.0,
            units: Vec::new(),
            cells: Vec::new(),
            runs: None,
        };
        let mut journal_bytes = 0;
        for &input in self.which.inputs() {
            let spec = self.sweep_spec(&[input], strategies);
            let journal = self.work.join(format!(
                "sweep-{workers}w-{}-{}-{input}.dlj",
                u8::from(tapped),
                strategies.join("+")
            ));
            let (run, wall_s) = self.fleet(workers, tapped)?.run(spec, &journal)?;
            pass.wall_s += wall_s;
            pass.units.push(wall_s);
            for row in run.run.matrix {
                for cell in row {
                    pass.cells.push(match cell {
                        Some(report) => Ok(vec![report.into_report()]),
                        None => Err("quarantined by the broker".to_string()),
                    });
                }
            }
            journal_bytes += std::fs::metadata(&journal).map_or(0, |m| m.len());
        }
        Ok((pass, journal_bytes))
    }

    fn fleet(&mut self, workers: usize, tapped: bool) -> Result<&mut Fleet, String> {
        let pair = if tapped {
            &mut self.tapped
        } else {
            &mut self.fleets
        };
        let (two, one) = pair.as_mut().ok_or("no worker fleet")?;
        Ok(if workers >= 2 { two } else { one })
    }

    /// Tap counters of the tapped `workers`-process fleet since the last
    /// call.
    pub fn fleet_stats(&mut self, workers: usize) -> Result<FleetStats, String> {
        self.fleet(workers, true)?.take_stats()
    }

    /// Peak resident memory of every process serving this workload, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let workers: f64 = [&self.fleets, &self.tapped]
            .into_iter()
            .flatten()
            .map(|(two, one)| two.workers_peak_rss_mb() + one.workers_peak_rss_mb())
            .sum();
        clock::peak_rss_mb("self") + workers
    }

    /// The in-process sweep of the shard job's cells through
    /// `BatchExecutor::with_threads(2)`, with its wall time.
    pub fn in_process_matrix(&self) -> Result<(Vec<SimulationReport>, f64), String> {
        let spec = self.sweep_spec(self.which.inputs(), &SHARD_STRATEGIES);
        let strategies = spec.build_strategies().map_err(|e| e.to_string())?;
        let (matrix, wall) = clock::timed(|| {
            BatchExecutor::with_threads(2).run_matrix(&strategies, &self.synth, &spec.plan())
        });
        Ok((
            matrix
                .into_iter()
                .flatten()
                .map(|r| r.into_report())
                .collect(),
            wall,
        ))
    }

    /// Workload-specific cross-checks against the reference pass, one
    /// `(label, outcome)` per check.
    pub fn checks(&self, reference: &Pass) -> Vec<(String, Result<(), String>)> {
        let mut out = Vec::new();
        match self.which {
            Which::WarmChain => {
                // Tiled SMARTS must equal SMARTS on the generators, and
                // the speculative lane must equal plain SMARTS.
                let synth: Vec<&dyn Workload> =
                    self.synth.iter().map(|w| w as &dyn Workload).collect();
                for (c, &(kind, i)) in self.suite.cells.iter().enumerate() {
                    if kind != Kind::Smarts {
                        continue;
                    }
                    let run = self.suite.run_cell(Kind::Smarts, synth[i], 2);
                    let label = format!("tiled SMARTS == synthetic SMARTS on {}", run.input);
                    out.push((
                        label,
                        same_reports(&reference.cells[c], &outcome_reports(&run)),
                    ));
                    let spec = self
                        .suite
                        .cells
                        .iter()
                        .position(|&cell| cell == (Kind::SmartsSpec, i));
                    if let Some(s) = spec {
                        let label = format!("speculative lane == SMARTS on {}", run.input);
                        out.push((
                            label,
                            same_reports(&reference.cells[c], &reference.cells[s]),
                        ));
                    }
                }
            }
            Which::ShardSweep => match self.in_process_matrix() {
                Ok((matrix, _)) => {
                    for (c, report) in matrix.into_iter().enumerate() {
                        let label = format!("shard cell {c} == in-process BatchExecutor cell");
                        let expected = reference
                            .cells
                            .get(c)
                            .cloned()
                            .unwrap_or(Err("missing from the shard matrix".to_string()));
                        out.push((label, same_reports(&expected, &Ok(vec![report]))));
                    }
                }
                Err(e) => out.push(("in-process BatchExecutor matrix".to_string(), Err(e))),
            },
            Which::TimeTravel => {}
        }
        out
    }

    /// Mean |CPI − SMARTS CPI| / SMARTS CPI over the non-SMARTS cells,
    /// percent. The SMARTS reference is the pass's own SMARTS cell on
    /// `warm-chain` and an untimed SMARTS run elsewhere (DSE analysts
    /// are checked for determinism only). Returns the error and the
    /// number of SMARTS reference runs made (each an operation), or the
    /// reason a reference run failed.
    pub fn cpi_err_pct(&self, reference: &Pass) -> Result<(f64, u64), String> {
        let inputs = self.inputs();
        let mut errors = Vec::new();
        let mut runs = 0u64;
        let mut smarts_cpi: Vec<Option<f64>> = vec![None; inputs.len()];
        for (c, &(kind, i)) in self.suite.cells.iter().enumerate() {
            if kind == Kind::Smarts {
                smarts_cpi[i] = first_cpi(&reference.cells[c]).ok();
            }
        }
        for (c, &(kind, i)) in self.suite.cells.iter().enumerate() {
            if matches!(kind, Kind::Smarts | Kind::Dse) {
                continue;
            }
            if smarts_cpi[i].is_none() {
                let run = self.suite.run_cell(Kind::Smarts, inputs[i], 2);
                runs += 1;
                smarts_cpi[i] = Some(first_cpi(&outcome_reports(&run))?);
            }
            let (Some(want), Ok(cpi)) = (smarts_cpi[i], first_cpi(&reference.cells[c])) else {
                continue;
            };
            errors.push(clock::ratio((cpi - want).abs(), want) * 100.0);
        }
        Ok((
            errors.iter().sum::<f64>() / errors.len().max(1) as f64,
            runs,
        ))
    }
}

fn outcome_reports(run: &CellRun) -> Result<Vec<SimulationReport>, String> {
    run.outcome
        .as_ref()
        .map(|o| o.reports.clone())
        .map_err(Clone::clone)
}

fn first_cpi(cell: &Result<Vec<SimulationReport>, String>) -> Result<f64, String> {
    match cell {
        Ok(reports) => reports
            .first()
            .map(SimulationReport::cpi)
            .ok_or_else(|| "cell produced no report".to_string()),
        Err(e) => Err(e.clone()),
    }
}

/// Whether two cell outcomes hold bitwise-equal reports.
pub fn same_reports(
    want: &Result<Vec<SimulationReport>, String>,
    got: &Result<Vec<SimulationReport>, String>,
) -> Result<(), String> {
    match (want, got) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Ok(_), Ok(_)) => Err("reports differ".to_string()),
        (Err(e), _) => Err(format!("reference cell failed: {e}")),
        (_, Err(e)) => Err(e.clone()),
    }
}
