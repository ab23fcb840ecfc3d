//! `simbench` — the measured benchmark of the sampled-simulation stack.
//!
//! ```text
//! simbench --workload warm-chain|time-travel|shard-sweep
//!          [--seed N] [--seconds S] [--trace 0|1] [--scale demo|tiny]
//! ```
//!
//! One process drives one workload on the host it runs on, with at
//! most 2 region workers or 2 busy shard worker processes. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; progress, the per-cell measured
//! vs modeled table and the report digest go to standard error. The
//! exit code is 0 when every operation succeeded and every output check
//! passed, 1 when the run completed with failures, 2 on bad arguments
//! or a set-up error (no JSON is printed then).
//!
//! # Seeds
//!
//! `--seed` seeds the synthetic input generators (the suite seed of
//! `spec_workload`); the program only ever sees the generated inputs.
//! The default seed is **2019**. The held-out seed, used only to confirm
//! a claimed gain and never while tuning, is **52**. Both run with zero
//! failed operations and print different digests.
//!
//! # Workloads
//!
//! Every workload is a list of *cells* (one strategy over one input);
//! each cell is one operation. A cell fails if it panics, if the broker
//! quarantines it, or if it fails a cross-check.
//!
//! * **`warm-chain`** runs SMARTS, SMARTS through the speculative lane
//!   (`run_speculative_with_workers` with `ProxyStateSource::StatModel`)
//!   and checkpointed warming on hmmer, mcf and lbm. Its inputs are
//!   `TiledTrace`s packed during set-up into the run's work directory
//!   (about 325 MB at demo scale). It exists because here access
//!   sourcing is tile decode and most of the time goes to
//!   `Hierarchy::warm_slice`, the seeded lane's fork and replay, and the
//!   reconciler's `state_digest`. The statmodel proxy commits every
//!   region on hmmer but few on mcf, so wasted speculation shows.
//! * **`time-travel`** runs DeLorean on mcf, povray, GemsFDTD, lbm and
//!   soplex, plus one `DesignSpaceExplorer::run` over the 10-point LLC
//!   sweep (Figure 14) on cactusADM, on the synthetic generators. It
//!   exists because its time goes to Scout/Explorer scans, watchpoint
//!   traps and DSW analysts, with almost no functional warming. povray's
//!   false-positive trap storm and GemsFDTD's four-explorer reuses are
//!   the paper's worst cases; the DSE reuses one explorer set across
//!   many analysts.
//! * **`shard-sweep`** runs CoolSim and MRRL over eight SPEC inputs
//!   that `time-travel` does not use. A `delorean_shard::Broker` leases
//!   the cells as one-region spans to worker processes and journals
//!   them, one job per input, submitted back to back so each job is
//!   timed on its own. It is the only workload that crosses the wire, the lease
//!   scheduler and the journal: CoolSim spans are long and MRRL spans
//!   take milliseconds, so per-lease overhead shows, and journal appends
//!   are writes beside `warm-chain`'s tile reads.
//!
//! # End-to-end metrics (`--trace 0`, untraced)
//!
//! * `setup_s` — median set-up time over many set-ups in the run:
//!   building inputs, packing, flushing and verifying tiles (`warm-chain`),
//!   spawning workers plus the Hello/Job handshake (`shard-sweep`).
//!   The set-up is redone at the start of every round of passes, so its
//!   samples spread over the run as the passes do. Building the
//!   generators alone (`time-travel`) takes about 0.1 ms, so there each
//!   sample times a batch of set-ups.
//! * `wall_s` — host seconds of one pass over all the workload's cells
//!   at 2 workers (2 region workers, or 2 worker processes), read as the
//!   sum over the pass's units of each unit's fastest wall in the run. A
//!   unit is one cell in process, one input's job on `shard-sweep`.
//! * `wall_1w_s` — the same pass at 1 worker. Passes at 2 and 1 workers
//!   alternate until `--seconds` is spent.
//!
//! The host is shared: co-tenants slow every unit they overlap, often
//! by 1.2–1.8×, in bursts that last seconds, and they never speed one
//! up. The median of a few second-long passes tracks how much of the
//! run fell in a burst (its spread across runs reached 0.23–0.37 of the
//! median). Each unit's fastest repeat tracks the program's own cost,
//! so that is the reading; stderr also prints the median pass wall.
//! Slower drifts of the whole host, over minutes, still show between
//! runs.
//!
//! Peak resident memory is not among them: on `time-travel` the whole
//! process holds about 8 MB, and how many glibc malloc arenas its
//! short-lived region-worker threads create depends on thread-exit
//! timing, which moves the peak by about 2 MB from run to run. It is
//! the per-layer `bench.peak_rss_mb` instead.
//!
//! On `shard-sweep` these passes run on plain fleets: the workers serve
//! raw stdio and the broker holds the raw child pipes, so no tap costs
//! anything. A 1-worker and a 2-worker fleet stay alive side by side;
//! at most 2 worker processes are ever busy.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run repeats the set-up and runs one reference pass in
//! process at 2 workers. Then, on `warm-chain` and `time-travel`, it
//! runs three rounds of an untraced and a traced pass at 2 workers
//! (inputs wrapped in a counting `Workload`) and an untraced pass at
//! 1 worker, in process, as the end-to-end passes run. On `shard-sweep`
//! it runs its rounds through worker processes, as that workload's
//! end-to-end passes do (one job per input): the whole sweep on the
//! plain 2-process fleet (untraced) and on a tapped one (traced: frame taps on both ends of
//! every pipe, a busy log per worker), each strategy's sweep alone on
//! the tapped 2- and 1-process fleets, and the same cells through
//! `BatchExecutor::with_threads(2)`. The worker processes build their
//! inputs inside `crates/shard`, where the counting wrapper cannot
//! reach, so `trace.accesses`, `trace.access_at_calls` and
//! `trace.fill_s` read 0 there.
//!
//! Then each layer is timed on its own from outside its crate, around
//! calls into its public functions, over the workload's inputs and
//! plan, but only on the workloads whose cells reach that layer (the
//! last column). Elsewhere a metric reads 0. Each line names the
//! end-to-end metric the layer metric should move, and on which
//! workload.
//!
//! | metric | what is timed or counted | moves | measured on |
//! |---|---|---|---|
//! | `trace.accesses`, `trace.access_at_calls`, `trace.fill_s` | the counting wrapper over the traced pass: accesses filled, random probes, seconds inside `AccessCursor::fill` | `wall_s`, `wall_1w_s` on `warm-chain` (tile decode) and `time-travel` (generation) | `warm-chain`, `time-travel` |
//! | `trace.fill_macc_s` | `AccessCursor::fill` over every warm interval | as above | `warm-chain`, `time-travel` |
//! | `trace.pack_s`, `trace.verify_s` | `pack_workload`, `TiledTrace::open` in set-up | `setup_s` on `warm-chain` | `warm-chain` |
//! | `cache.warm_slice_macc_s` | `Hierarchy::warm_slice` replaying the inputs' own warm intervals | `wall_s`, `wall_1w_s` on `warm-chain`; flat on `time-travel` | `warm-chain`, `time-travel` |
//! | `cache.fork_us` | `Hierarchy::fork` of a warmed hierarchy | `wall_s` but not `wall_1w_s` on `warm-chain` (the seeded lane forks only above 1 worker) | `warm-chain` |
//! | `cache.state_digest_us` | `Hierarchy::state_digest` | `wall_s` on `warm-chain` (the reconciler) | `warm-chain` |
//! | `cpu.detailed_minstr_s` | `simulate_detailed` over each plan region | a small share of `wall_s` everywhere | all |
//! | `core.explorer1_macc_s`, `core.vdp_macc_s` | `core::explorer::run_explorer`, functional Explorer-1 and VDP explorers, seeded by `scout_region` | `wall_s` on `time-travel` | `time-travel` |
//! | `core.traps`, `core.false_positive_ratio`, `core.explorers_engaged` | counts from `DeLoreanExtras` | explain `wall_s` on `time-travel` | `time-travel` |
//! | `core.dse_marginal_x` | DSE wall with 10 analysts / with 1 analyst (beside `marginal_cost_factor(10)` on stderr) | `wall_s` on `time-travel` | `time-travel` |
//! | `sampling.cell_s.<strategy>` | summed cell walls at 2 workers; on `shard-sweep`, the wall of the strategy's sweep alone on 2 worker processes | splits `wall_s` by strategy | the strategy's workload |
//! | `sampling.scaling.<strategy>` | 1-worker / 2-worker cell wall (on `shard-sweep`: 1-process / 2-process sweep wall) | `wall_s` on that strategy's workload | the strategy's workload |
//! | `sampling.model_gap.<strategy>` | measured scaling / modeled (`region_parallel_wallclock(2)`, or `speculative_wallclock` for the speculative lane) | `wall_s` on that strategy's workload | the strategy's workload |
//! | `sampling.cpi_err_pct` | mean \|CPI − SMARTS CPI\| / SMARTS CPI over the non-SMARTS cells, against the pass's own SMARTS cell on `warm-chain` and an untimed SMARTS run on `time-travel`; deterministic for a seed, but it swings several-fold between seeds, so it is a per-layer reading rather than a bounded end-to-end metric | accuracy, not speed: no wall metric | `warm-chain`, `time-travel` |
//! | `sampling.spec_commit_ratio` | committed / attempted regions, `SpeculationExtras` | `wall_s` on `warm-chain` | `warm-chain` |
//! | `sampling.handoff_us.units` | `RegionScheduler::run_units` with a trivial body at 2 workers | `wall_s` on `time-travel` | `time-travel` |
//! | `sampling.handoff_us.seeded`, `.speculative` | `RegionScheduler::run_seeded`, `run_speculative` with trivial bodies at 2 workers | `wall_s` on `warm-chain` | `warm-chain` |
//! | `shard.leases`, `shard.frames`, `shard.wire_bytes`, `shard.journal_bytes` | frame taps on the worker pipes over the tapped whole sweep, its journals' size | `wall_s` on `shard-sweep` | `shard-sweep` |
//! | `shard.lease_overhead_ms.p50`, `.p99`, `shard.worker_idle_pct` | broker-side lease-to-reply time minus worker-side busy time; worker idle share of the tapped sweep's wall | `wall_s` on `shard-sweep` | `shard-sweep` |
//! | `shard.vs_inproc` | plain shard sweep wall / `BatchExecutor::with_threads(2)` wall over the same cells | `wall_s` on `shard-sweep` | `shard-sweep` |
//! | `shard.spawn_s` | plain-fleet spawn + handshake in set-up | `setup_s` on `shard-sweep` | `shard-sweep` |
//! | `bench.peak_rss_mb` | peak resident memory (VmHWM) after the traced run's passes, before its layer stages, summed over the benchmark process and its worker processes | memory, not speed: no wall metric | all |
//! | `bench.trace_overhead_pct` | traced vs untraced 2-worker pass wall (on `shard-sweep`: tapped vs plain fleet) | — | all |
//!
//! # Output checks
//!
//! Every cell's reports must be bitwise equal in every pass, at 1 and
//! 2 workers, traced and untraced. On `warm-chain`, tiled SMARTS must
//! equal SMARTS on the generators and the speculative lane must equal
//! plain SMARTS; on `shard-sweep` the shard matrix must equal the
//! in-process `BatchExecutor` matrix. A mix64 digest of the reference
//! reports is printed per run. Any mismatch is a failed operation.
//!
//! # Relation to the older bench binaries
//!
//! The older `bench_prN` binaries in `crates/bench` and the CI loop
//! that runs them stay until a later change retires them; this package
//! touches no CI file.

mod cells;
mod clock;
mod layers;
mod scenario;
mod shard;
mod traced;

use cells::{CellRun, Kind};
use delorean_bench::journal::encode_cell;
use delorean_core::DeLoreanConfig;
use delorean_trace::{mix64, Scale, Workload};
use layers::Budget;
use scenario::{same_reports, Pass, Scenario, Which, SHARD_STRATEGIES};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use traced::{TraceCounters, TraceTotals, Traced};

/// The documented default seed.
const DEFAULT_SEED: u64 = 2019;
/// Fewest timed passes per worker count, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

struct Opts {
    which: Which,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut which = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut scale = Scale::demo();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                which = Some(Which::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "demo" => Scale::demo(),
                    "tiny" => Scale::tiny(),
                    v => return Err(format!("unknown scale {v:?} (demo or tiny)")),
                }
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; flags: --workload warm-chain|time-travel|shard-sweep, \
                     --seed N, --seconds S, --trace 0|1, --scale demo|tiny"
                ))
            }
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Opts {
        which: which.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Operations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {label}: {e}");
        }
    }

    /// Count a pass's cells, each checked against `reference`.
    fn pass(&mut self, what: &str, pass: &Pass, reference: Option<&Pass>) {
        for (c, cell) in pass.cells.iter().enumerate() {
            let outcome = match reference {
                Some(r) => r
                    .cells
                    .get(c)
                    .map_or(Err("no reference cell".to_string()), |want| {
                        same_reports(want, cell)
                    }),
                None => cell.as_ref().map(|_| ()).map_err(Clone::clone),
            };
            self.op(&format!("{what} cell {c}"), outcome);
        }
    }
}

/// Named metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((
            name.into(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// mix64 fold of every reference report's journal-codec bytes.
fn digest(pass: &Pass) -> u64 {
    let mut d = 0x51b_e4c4_u64;
    for cell in &pass.cells {
        for report in cell.iter().flatten() {
            for chunk in encode_cell(0, report).chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                d = mix64(d, u64::from_le_bytes(word));
            }
        }
    }
    d
}

/// Print measured MIPS (covered instructions over host wall at
/// 2 workers) next to the modeled 2-worker MIPS: per cell where
/// `cell_walls` has the cell's wall, and per strategy from `kind_walls`.
fn print_measured_vs_modeled(runs: &[CellRun], cell_walls: &[f64], kind_walls: &[(Kind, f64)]) {
    eprintln!("measured vs modeled at 2 workers (MIPS = covered instructions / wall):");
    eprintln!(
        "  {:<12} {:<11} {:>12} {:>12} {:>10}",
        "strategy", "input", "measured", "modeled", "gap"
    );
    let line = |kind: Kind, input: &str, covered: f64, wall: f64, modeled_s: f64| {
        let measured = clock::ratio(covered * 1e-6, wall);
        let modeled = clock::ratio(covered * 1e-6, modeled_s);
        eprintln!(
            "  {:<12} {:<11} {:>12.1} {:>12.1} {:>9.1}x",
            kind.label(),
            input,
            measured,
            modeled,
            clock::ratio(measured, modeled)
        );
    };
    let covered =
        |out: &cells::CellOutput| out.reports.first().map_or(0, |r| r.covered_instrs) as f64;
    for (run, &wall) in runs.iter().zip(cell_walls) {
        if let Ok(out) = &run.outcome {
            line(run.kind, &run.input, covered(out), wall, out.modeled_s.1);
        }
    }
    for &(kind, wall) in kind_walls.iter().filter(|w| w.1 > 0.0) {
        let (mut instrs, mut modeled_s) = (0.0, 0.0);
        for out in runs
            .iter()
            .filter(|r| r.kind == kind)
            .filter_map(|r| r.outcome.as_ref().ok())
        {
            instrs += covered(out);
            modeled_s += out.modeled_s.1;
        }
        line(kind, "(all)", instrs, wall, modeled_s);
    }
}

/// Per-cell median of the cell walls across `passes`.
fn median_cell_walls(passes: &[Vec<CellRun>]) -> Vec<f64> {
    let cells = passes.first().map_or(0, Vec::len);
    (0..cells)
        .map(|c| {
            let walls: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.get(c))
                .map(|r| r.wall_s)
                .collect();
            clock::median(&walls)
        })
        .collect()
}

fn end_to_end(opts: &Opts, sc: &mut Scenario, tally: &mut Tally) -> Result<Metrics, String> {
    let reference = sc.pass(2)?;
    tally.pass("reference", &reference, None);
    eprintln!("reference pass at 2 workers: {:.3} s", reference.wall_s);

    let (mut walls2, mut walls1) = (Vec::new(), Vec::new());
    let mut cell_walls2 = Vec::new();
    let start = clock::now();
    let mut round = 0usize;
    while walls1.len() < MIN_PASSES || clock::secs_since(start) < opts.seconds {
        sc.sample_setup()?;
        let order = if round.is_multiple_of(2) {
            [2, 1]
        } else {
            [1, 2]
        };
        for workers in order {
            let pass = sc.pass(workers)?;
            tally.pass(
                &format!("{workers}-worker pass {round}"),
                &pass,
                Some(&reference),
            );
            eprintln!("pass {round} at {workers} worker(s): {:.3} s", pass.wall_s);
            if workers == 2 {
                walls2.push(pass.units);
                cell_walls2.extend(pass.runs);
            } else {
                walls1.push(pass.units);
            }
        }
        round += 1;
    }

    for (label, outcome) in sc.checks(&reference) {
        tally.op(&label, outcome);
    }
    if let Some(runs) = &reference.runs {
        let walls = median_cell_walls(&cell_walls2);
        let kind_walls: Vec<(Kind, f64)> = Kind::ALL
            .iter()
            .map(|&kind| {
                let cells = cells_of(sc, kind);
                (kind, cells.iter().filter_map(|&c| walls.get(c)).sum())
            })
            .collect();
        print_measured_vs_modeled(runs, &walls, &kind_walls);
    }
    eprintln!(
        "digest {}: {:#018x} (seed {})",
        opts.which.name(),
        digest(&reference),
        opts.seed
    );

    let setup_s = clock::median(&sc.setup.total);
    eprintln!(
        "set-up: {} samples, median {setup_s:.6} s",
        sc.setup.total.len()
    );
    let (wall_s, wall_1w_s) = (fastest_units(&walls2), fastest_units(&walls1));
    for (workers, wall, passes) in [(2, wall_s, &walls2), (1, wall_1w_s, &walls1)] {
        let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
        eprintln!(
            "{workers} worker(s): {} passes, summed fastest units {wall:.6} s, median pass {:.6} s",
            passes.len(),
            clock::median(&totals)
        );
    }

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", wall_s, "s");
    m.put("wall_1w_s", wall_1w_s, "s");
    Ok(m)
}

/// The pass wall on an undisturbed host: the sum, over a pass's timed
/// units, of each unit's fastest wall across `passes` (each the list of
/// one pass's unit walls). Co-tenants on the host slow every unit they
/// overlap, in bursts of a few seconds, and never speed one up, so the
/// fastest repeat of a short unit is the steadiest reading of its cost.
fn fastest_units(passes: &[Vec<f64>]) -> f64 {
    let units = passes.first().map_or(0, Vec::len);
    (0..units)
        .map(|u| {
            passes
                .iter()
                .filter_map(|p| p.get(u).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Cells of `kind` in the suite, by index.
fn cells_of(sc: &Scenario, kind: Kind) -> Vec<usize> {
    (0..sc.suite.cells.len())
        .filter(|&c| sc.suite.cells[c].0 == kind)
        .collect()
}

/// What the shard layer's taps and passes showed in a traced run.
#[derive(Default)]
struct ShardReadings {
    leases: u64,
    frames: u64,
    wire_bytes: u64,
    journal_bytes: u64,
    overheads_ms: Vec<f64>,
    idle_pct: Vec<f64>,
    vs_inproc: f64,
}

/// What the repeated passes of a traced run measured.
#[derive(Default)]
struct Rounds {
    /// Per strategy: its summed cell walls at 2 and at 1 worker, seconds.
    strategy_walls: Vec<(Kind, f64, f64)>,
    /// Per-cell median walls at 2 workers (in-process workloads only).
    cell_walls2: Vec<f64>,
    /// Walls of the untraced and of the traced 2-worker passes.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// The counting wrapper's totals over the last traced pass
    /// (in-process workloads only).
    counts: TraceTotals,
    /// Shard-layer readings (`shard-sweep` only).
    shard: ShardReadings,
}

/// Three rounds of an untraced and a traced pass at 2 workers and an
/// untraced pass at 1 worker, in process, rotating the order so host
/// drift does not favour one kind of pass.
fn in_process_rounds(sc: &Scenario, reference: &Pass, tally: &mut Tally) -> Rounds {
    let inputs = sc.inputs();
    let mut r = Rounds::default();
    let (mut untraced, mut one) = (Vec::new(), Vec::new());
    for round in 0..3 {
        for step in (0..3).map(|k| (k + round) % 3) {
            let counters = TraceCounters::default();
            let wrapped: Vec<Traced> = inputs.iter().map(|w| Traced::new(*w, &counters)).collect();
            let wrapped: Vec<&dyn Workload> = wrapped.iter().map(|t| t as &dyn Workload).collect();
            let (source, workers, what) = match step {
                0 => (&inputs, 2, "untraced"),
                1 => (&wrapped, 2, "traced"),
                _ => (&inputs, 1, "1-worker"),
            };
            let (runs, wall) = clock::timed(|| sc.suite.pass(source, workers));
            let pass = Pass::from_runs(runs, wall);
            tally.pass(what, &pass, Some(reference));
            match step {
                0 => {
                    r.untraced.push(wall);
                    untraced.extend(pass.runs);
                }
                1 => {
                    r.traced.push(wall);
                    r.counts = counters.totals();
                }
                _ => one.extend(pass.runs),
            }
        }
    }
    r.cell_walls2 = median_cell_walls(&untraced);
    let walls1 = median_cell_walls(&one);
    r.strategy_walls = Kind::ALL
        .iter()
        .map(|&kind| {
            let cells = cells_of(sc, kind);
            let sum = |walls: &[f64]| cells.iter().filter_map(|&c| walls.get(c)).sum::<f64>();
            (kind, sum(&r.cell_walls2), sum(&walls1))
        })
        .collect();
    r
}

/// The reference cells of strategy column `s` of an `n`-strategy matrix.
fn column(reference: &Pass, s: usize, n: usize) -> Pass {
    Pass {
        wall_s: 0.0,
        units: Vec::new(),
        cells: reference.cells.iter().skip(s).step_by(n).cloned().collect(),
        runs: None,
    }
}

/// Three rounds through the worker processes (`shard-sweep`), rotating
/// the order: the whole sweep on the plain 2-process fleet (untraced)
/// and on the tapped one (traced, feeding the shard-layer readings),
/// each strategy's sweep alone on the tapped 2- and 1-process fleets
/// (its share of the wall and its scaling), and the same cells through
/// `BatchExecutor::with_threads(2)` in process.
fn shard_rounds(sc: &mut Scenario, reference: &Pass, tally: &mut Tally) -> Result<Rounds, String> {
    sc.spawn_tapped()?;
    let n = SHARD_STRATEGIES.len();
    let mut r = Rounds::default();
    let mut solo: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); n];
    let mut inproc = Vec::new();
    let mut busy_by_strategy = vec![0.0; n];
    for round in 0..3 {
        for step in (0..4).map(|k| (k + round) % 4) {
            match step {
                0 => {
                    let (pass, _) = sc.shard_pass(2, false, &SHARD_STRATEGIES)?;
                    tally.pass("plain shard", &pass, Some(reference));
                    r.untraced.push(pass.wall_s);
                }
                1 => {
                    let (pass, journal_bytes) = sc.shard_pass(2, true, &SHARD_STRATEGIES)?;
                    tally.pass("tapped shard", &pass, Some(reference));
                    let stats = sc.fleet_stats(2)?;
                    let shard = &mut r.shard;
                    (shard.leases, shard.frames) = (stats.leases, stats.frames);
                    (shard.wire_bytes, shard.journal_bytes) = (stats.wire_bytes, journal_bytes);
                    shard
                        .overheads_ms
                        .extend(stats.overheads_s.iter().map(|s| s * 1e3));
                    for busy in &stats.busy_s {
                        shard
                            .idle_pct
                            .push((1.0 - clock::ratio(*busy, pass.wall_s)) * 100.0);
                    }
                    busy_by_strategy = vec![0.0; n];
                    for &(cell, busy) in &stats.lease_busy {
                        busy_by_strategy[cell as usize % n] += busy;
                    }
                    r.traced.push(pass.wall_s);
                }
                2 => {
                    for (s, &name) in SHARD_STRATEGIES.iter().enumerate() {
                        let want = column(reference, s, n);
                        for workers in [2, 1] {
                            let (pass, _) = sc.shard_pass(workers, true, &[name])?;
                            tally.pass(
                                &format!("{name} alone on {workers} process(es)"),
                                &pass,
                                Some(&want),
                            );
                            sc.fleet_stats(workers)?;
                            let walls = if workers == 2 {
                                &mut solo[s].0
                            } else {
                                &mut solo[s].1
                            };
                            walls.push(pass.wall_s);
                        }
                    }
                }
                _ => {
                    let (matrix, wall) = sc.in_process_matrix()?;
                    let pass = Pass {
                        wall_s: wall,
                        units: vec![wall],
                        cells: matrix.into_iter().map(|r| Ok(vec![r])).collect(),
                        runs: None,
                    };
                    tally.pass("in-process BatchExecutor", &pass, Some(reference));
                    inproc.push(wall);
                }
            }
        }
    }
    r.shard.vs_inproc = clock::ratio(clock::median(&r.untraced), clock::median(&inproc));
    r.strategy_walls = [Kind::CoolSim, Kind::Mrrl]
        .into_iter()
        .zip(&solo)
        .map(|(kind, (w2, w1))| (kind, clock::median(w2), clock::median(w1)))
        .collect();
    for (name, busy) in SHARD_STRATEGIES.iter().zip(&busy_by_strategy) {
        eprintln!("shard: {name} leases kept the workers busy {busy:.3} s in the last tapped pass");
    }
    eprintln!(
        "shard: {} leases measured, lease overhead p50 {:.3} ms p99 {:.3} ms",
        r.shard.overheads_ms.len(),
        clock::percentile(&r.shard.overheads_ms, 50.0),
        clock::percentile(&r.shard.overheads_ms, 99.0)
    );
    Ok(r)
}

fn per_layer(opts: &Opts, sc: &mut Scenario, tally: &mut Tally) -> Result<Metrics, String> {
    let which = sc.which;
    let suite = sc.suite.clone();
    // The reference every traced-run check compares against: the cells
    // in process at 2 region workers.
    let reference = {
        let inputs = sc.inputs();
        let (runs, wall) = clock::timed(|| suite.pass(&inputs, 2));
        Pass::from_runs(runs, wall)
    };
    tally.pass("reference", &reference, None);
    let rounds = if which == Which::ShardSweep {
        shard_rounds(sc, &reference, tally)?
    } else {
        in_process_rounds(sc, &reference, tally)
    };
    let ref_runs = reference.runs.as_deref().unwrap_or(&[]);
    let kind_walls: Vec<(Kind, f64)> = rounds.strategy_walls.iter().map(|w| (w.0, w.1)).collect();
    print_measured_vs_modeled(ref_runs, &rounds.cell_walls2, &kind_walls);

    let mut m = Metrics::default();
    // Read before the layer stages, whose decoded slices would add
    // memory the workload's passes never hold.
    m.put("bench.peak_rss_mb", sc.peak_rss_mb(), "MB");
    let counts = rounds.counts;
    m.put("trace.accesses", counts.accesses as f64, "count");
    m.put(
        "trace.access_at_calls",
        counts.access_at_calls as f64,
        "count",
    );
    m.put("trace.fill_s", counts.fill_s, "s");

    // Each layer stage runs only on the workloads whose cells reach
    // that layer; the others read 0.
    let inputs = sc.inputs();
    let budget = opts.seconds.max(1.0) * 0.5;
    let in_process = which != Which::ShardSweep;
    let fill = if in_process {
        layers::fill_macc_s(&inputs, &suite.plan, Budget::of(budget * 0.15))
    } else {
        0.0
    };
    m.put("trace.fill_macc_s", fill, "Macc/s");
    m.put("trace.pack_s", clock::median(&sc.setup.pack), "s");
    m.put("trace.verify_s", clock::median(&sc.setup.verify), "s");

    let cache = if in_process {
        layers::cache_stages(
            &inputs,
            &suite.plan,
            &suite.machine,
            Budget::of(budget * 0.2),
            which == Which::WarmChain,
        )
    } else {
        layers::CacheStages::default()
    };
    m.put("cache.warm_slice_macc_s", cache.warm_slice_macc_s, "Macc/s");
    m.put("cache.fork_us", cache.fork_us, "us");
    m.put("cache.state_digest_us", cache.state_digest_us, "us");

    let detailed = layers::detailed_minstr_s(
        &inputs,
        &suite.plan,
        &suite.machine,
        Budget::of(budget * 0.15),
    );
    m.put("cpu.detailed_minstr_s", detailed, "Minstr/s");

    let explorers = if which == Which::TimeTravel {
        layers::explorer_stages(
            &inputs,
            &suite.plan,
            &suite.machine,
            &DeLoreanConfig::for_scale(suite.scale),
            Budget::of(budget * 0.35),
        )
    } else {
        layers::ExplorerStages::default()
    };
    m.put(
        "core.explorer1_macc_s",
        explorers.explorer1_macc_s,
        "Macc/s",
    );
    m.put("core.vdp_macc_s", explorers.vdp_macc_s, "Macc/s");
    let (mut fp, mut hits, mut engaged) = (0u64, 0u64, 0u64);
    for run in ref_runs {
        if let Ok(Some(tt)) = run.outcome.as_ref().map(|o| o.tt.as_ref()) {
            fp += tt.stats.false_positive_traps;
            hits += tt.stats.true_hit_traps;
            engaged += tt.stats.engaged_sum;
        }
    }
    m.put("core.traps", (fp + hits) as f64, "count");
    m.put(
        "core.false_positive_ratio",
        clock::ratio(fp as f64, (fp + hits) as f64),
        "ratio",
    );
    m.put("core.explorers_engaged", engaged as f64, "count");
    m.put("core.dse_marginal_x", dse_marginal(sc, &inputs, tally), "x");

    for kind in Kind::ALL {
        let (w2, w1) = rounds
            .strategy_walls
            .iter()
            .find(|w| w.0 == kind)
            .map_or((0.0, 0.0), |w| (w.1, w.2));
        let (mut m1, mut m2) = (0.0, 0.0);
        for &c in &cells_of(sc, kind) {
            if let Some(Ok(out)) = ref_runs.get(c).map(|r| &r.outcome) {
                m1 += out.modeled_s.0;
                m2 += out.modeled_s.1;
            }
        }
        let scaling = clock::ratio(w1, w2);
        m.put(format!("sampling.cell_s.{}", kind.label()), w2, "s");
        m.put(format!("sampling.scaling.{}", kind.label()), scaling, "x");
        m.put(
            format!("sampling.model_gap.{}", kind.label()),
            clock::ratio(scaling, clock::ratio(m1, m2)),
            "x",
        );
    }
    let (mut committed, mut attempted) = (0usize, 0usize);
    for run in ref_runs {
        if let Ok(Some(spec)) = run.outcome.as_ref().map(|o| o.spec.as_ref()) {
            committed += spec.hits();
            attempted += spec.outcomes.len();
        }
    }
    let cpi_err_pct = match in_process.then(|| sc.cpi_err_pct(&reference)) {
        None => 0.0,
        Some(Ok((err, runs))) => {
            for _ in 0..runs {
                tally.op("SMARTS reference", Ok(()));
            }
            err
        }
        Some(Err(e)) => {
            tally.op("SMARTS reference", Err(e));
            0.0
        }
    };
    m.put("sampling.cpi_err_pct", cpi_err_pct, "%");
    m.put(
        "sampling.spec_commit_ratio",
        clock::ratio(committed as f64, attempted as f64),
        "ratio",
    );
    let handoff = layers::handoff_stages(
        &suite.plan,
        Budget::of(budget * 0.15),
        which == Which::TimeTravel,
        which == Which::WarmChain,
    );
    m.put("sampling.handoff_us.units", handoff.units_us, "us");
    m.put("sampling.handoff_us.seeded", handoff.seeded_us, "us");
    m.put(
        "sampling.handoff_us.speculative",
        handoff.speculative_us,
        "us",
    );

    let shard = &rounds.shard;
    m.put("shard.leases", shard.leases as f64, "count");
    m.put("shard.frames", shard.frames as f64, "count");
    m.put("shard.wire_bytes", shard.wire_bytes as f64, "bytes");
    m.put("shard.journal_bytes", shard.journal_bytes as f64, "bytes");
    m.put(
        "shard.lease_overhead_ms.p50",
        clock::percentile(&shard.overheads_ms, 50.0),
        "ms",
    );
    m.put(
        "shard.lease_overhead_ms.p99",
        clock::percentile(&shard.overheads_ms, 99.0),
        "ms",
    );
    m.put("shard.worker_idle_pct", clock::median(&shard.idle_pct), "%");
    m.put("shard.vs_inproc", shard.vs_inproc, "x");
    m.put("shard.spawn_s", clock::median(&sc.setup.spawn), "s");
    m.put(
        "bench.trace_overhead_pct",
        (clock::ratio(
            clock::median(&rounds.traced),
            clock::median(&rounds.untraced),
        ) - 1.0)
            * 100.0,
        "%",
    );
    eprintln!(
        "digest {}: {:#018x} (seed {})",
        opts.which.name(),
        digest(&reference),
        opts.seed
    );
    Ok(m)
}

/// DSE wall with 10 analysts over its wall with 1, median of 3 pairs
/// (`time-travel` only; 0 elsewhere).
fn dse_marginal(sc: &Scenario, inputs: &[&dyn Workload], tally: &mut Tally) -> f64 {
    let Some(&(_, i)) = sc.suite.cells.iter().find(|c| c.0 == Kind::Dse) else {
        return 0.0;
    };
    let machines = cells::dse_machines(sc.suite.scale);
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let (ten, t10) = clock::timed(|| sc.suite.dse(inputs[i], 2, &machines));
        let (one, t1) = clock::timed(|| sc.suite.dse(inputs[i], 2, &machines[..1]));
        if let Ok(out) = &ten {
            eprintln!(
                "dse: 10 analysts {t10:.3} s, 1 analyst {t1:.3} s; modeled marginal_cost_factor(10) = {:.3}",
                out.dse_marginal.unwrap_or(0.0)
            );
        }
        tally.op("dse 10 analysts", ten.map(|_| ()));
        tally.op("dse 1 analyst", one.map(|_| ()));
        ratios.push(clock::ratio(t10, t1));
    }
    clock::median(&ratios)
}

fn run(opts: &Opts, work: &std::path::Path) -> Result<(Tally, Metrics), String> {
    let mut sc = Scenario::setup(opts.which, opts.scale, opts.seed, work)?;
    let mut tally = Tally::default();
    let metrics = if opts.trace {
        per_layer(opts, &mut sc, &mut tally)?
    } else {
        end_to_end(opts, &mut sc, &mut tally)?
    };
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(shard::WORKER_FLAG) {
        return match shard::worker_main(args.get(1).map(std::path::Path::new)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "simbench: workload {} seed {} scale {} seconds {} trace {} on {} host CPU(s)",
        opts.which.name(),
        opts.seed,
        opts.scale.label,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // Scratch files (tiles, journals, worker logs) live under the
    // current directory, which is the checkout root when run as
    // documented, and are removed before exit.
    let work = PathBuf::from(".simbench-work").join(format!(
        "{}-{}",
        opts.which.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("simbench: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = run(&opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Only removes the parent when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok((tally, metrics)) => {
            let correct = tally.failed == 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.attempted,
                tally.failed,
                metrics.json()
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let o = parse_args(&args(&[
            "--workload",
            "time-travel",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid flags");
        assert_eq!(o.which, Which::TimeTravel);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        let d = parse_args(&args(&["--workload", "warm-chain"])).expect("defaults");
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "warm-chain", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "warm-chain", "--seconds", "-1"])).is_err());
    }

    #[test]
    fn fastest_units_sums_each_units_fastest_repeat() {
        let passes = [vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5], vec![2.0, 6.0, 1.5]];
        assert_eq!(fastest_units(&passes), 1.0 + 4.0 + 1.5);
        assert_eq!(fastest_units(&[]), 0.0);
    }

    #[test]
    fn metrics_render_as_json_numbers() {
        let mut m = Metrics::default();
        m.put("a.b", 1.25, "s");
        m.put("nan", f64::NAN, "x");
        assert_eq!(
            m.json(),
            "{\"a.b\": {\"value\": 1.25, \"unit\": \"s\"}, \"nan\": {\"value\": 0, \"unit\": \"x\"}}"
        );
    }
}
