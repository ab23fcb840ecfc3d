//! Layer stages: each library layer timed on its own, from outside its
//! crate, over the workload's own inputs and region plan.
//!
//! Every stage runs until its time budget is spent (and at least once),
//! then reports a rate or a median. The inputs are the same ones the
//! end-to-end pass runs on, so a stage sees the access mix its layer
//! sees in that workload: tile decode on `warm-chain`, synthetic
//! generation on `time-travel` and `shard-sweep`. Which stages run on
//! which workload is decided in `main.rs`.

use crate::clock;
use delorean_cache::{Hierarchy, MachineConfig};
use delorean_core::explorer::{pending_from_keyset, run_explorer};
use delorean_core::scout::scout_region;
use delorean_core::DeLoreanConfig;
use delorean_cpu::{simulate_detailed, TimingConfig, TournamentPredictor};
use delorean_sampling::{RegionPlan, RegionScheduler};
use delorean_trace::{MemAccess, Workload, CURSOR_BATCH};
use delorean_virt::{CostModel, HostClock};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Accesses decoded up front for the `warm_slice`, `fork` and
/// `state_digest` stages (per input).
const SLICE_CAP: u64 = 1 << 20;
/// Batch the warm loop feeds `warm_slice` (matches `warm_range`).
const WARM_BATCH: usize = CURSOR_BATCH / 4;

/// A stage's time budget.
#[derive(Copy, Clone)]
pub struct Budget {
    deadline: Instant,
}

impl Budget {
    /// A budget of `seconds` from now.
    pub fn of(seconds: f64) -> Budget {
        Budget {
            deadline: clock::now() + std::time::Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    fn spent(&self) -> bool {
        clock::now() >= self.deadline
    }
}

/// Access-index range of each region's warm interval: from the previous
/// region's detailed end to this region's detailed-warming start.
fn warm_intervals(w: &dyn Workload, plan: &RegionPlan) -> Vec<Range<u64>> {
    let mut prev_end = 0;
    plan.regions
        .iter()
        .map(|r| {
            let range = w.access_index_at_instr(prev_end)..w.access_index_at_instr(r.warming.start);
            prev_end = r.detailed.end;
            range
        })
        .collect()
}

/// `AccessCursor::fill` rate over every warm interval, Macc/s.
pub fn fill_macc_s(inputs: &[&dyn Workload], plan: &RegionPlan, budget: Budget) -> f64 {
    let mut accesses = 0u64;
    let mut seconds = 0.0;
    let mut buf = Vec::with_capacity(CURSOR_BATCH);
    loop {
        for w in inputs {
            for range in warm_intervals(*w, plan) {
                let start = clock::now();
                let mut cursor = w.cursor(range);
                loop {
                    let n = cursor.fill(&mut buf, CURSOR_BATCH);
                    if n == 0 {
                        break;
                    }
                    black_box(&buf);
                    accesses += n as u64;
                }
                seconds += clock::secs_since(start);
            }
        }
        if budget.spent() {
            return clock::ratio(accesses as f64 * 1e-6, seconds);
        }
    }
}

/// The first `SLICE_CAP` accesses of each input's first warm interval.
fn decoded_slices(inputs: &[&dyn Workload], plan: &RegionPlan) -> Vec<Vec<MemAccess>> {
    inputs
        .iter()
        .map(|w| {
            let first = warm_intervals(*w, plan).into_iter().next().unwrap_or(0..0);
            let end = first.end.min(first.start + SLICE_CAP);
            let mut out = Vec::new();
            let mut cursor = w.cursor(first.start..end);
            let mut buf = Vec::with_capacity(CURSOR_BATCH);
            while cursor.fill(&mut buf, CURSOR_BATCH) > 0 {
                out.extend_from_slice(&buf);
            }
            out
        })
        .collect()
}

/// Results of the hierarchy stages.
#[derive(Copy, Clone, Debug, Default)]
pub struct CacheStages {
    /// `Hierarchy::warm_slice` rate, Macc/s.
    pub warm_slice_macc_s: f64,
    /// Median `Hierarchy::fork` time of a warmed hierarchy, µs.
    pub fork_us: f64,
    /// Median `Hierarchy::state_digest` time of a warmed hierarchy, µs.
    pub state_digest_us: f64,
}

/// `warm_slice` over the inputs' own warm intervals and, with
/// `fork_and_digest`, `fork` and `state_digest` of each warmed hierarchy.
pub fn cache_stages(
    inputs: &[&dyn Workload],
    plan: &RegionPlan,
    machine: &MachineConfig,
    budget: Budget,
    fork_and_digest: bool,
) -> CacheStages {
    let slices = decoded_slices(inputs, plan);
    let mut accesses = 0u64;
    let mut seconds = 0.0;
    let mut forks = Vec::new();
    let mut digests = Vec::new();
    loop {
        for slice in &slices {
            let mut h = Hierarchy::new(machine);
            let start = clock::now();
            for batch in slice.chunks(WARM_BATCH) {
                h.warm_slice(batch);
            }
            seconds += clock::secs_since(start);
            accesses += slice.len() as u64;
            for _ in 0..if fork_and_digest { 8 } else { 0 } {
                let (fork, s) = clock::timed(|| h.fork());
                black_box(fork);
                forks.push(s * 1e6);
                let (digest, s) = clock::timed(|| h.state_digest());
                black_box(digest);
                digests.push(s * 1e6);
            }
        }
        if budget.spent() {
            return CacheStages {
                warm_slice_macc_s: clock::ratio(accesses as f64 * 1e-6, seconds),
                fork_us: clock::median(&forks),
                state_digest_us: clock::median(&digests),
            };
        }
    }
}

/// `simulate_detailed` over each region's detailed warming plus
/// detailed range, fed by a live hierarchy; million instructions/s.
pub fn detailed_minstr_s(
    inputs: &[&dyn Workload],
    plan: &RegionPlan,
    machine: &MachineConfig,
    budget: Budget,
) -> f64 {
    let timing = TimingConfig::table1();
    let mut instrs = 0u64;
    let mut seconds = 0.0;
    loop {
        for w in inputs {
            let mut h = Hierarchy::new(machine);
            for r in &plan.regions {
                let range = r.warming.start..r.detailed.end;
                let mut predictor = TournamentPredictor::new();
                let mut source = |a: &MemAccess, now: u64| h.access_data(a.pc, a.line(), now);
                let start = clock::now();
                let result =
                    simulate_detailed(*w, range.clone(), &timing, &mut predictor, &mut source);
                seconds += clock::secs_since(start);
                black_box(result);
                instrs += range.end - range.start;
            }
        }
        if budget.spent() {
            return clock::ratio(instrs as f64 * 1e-6, seconds);
        }
    }
}

/// Results of the explorer stages.
#[derive(Copy, Clone, Debug, Default)]
pub struct ExplorerStages {
    /// Functional Explorer-1 scan rate, Macc/s.
    pub explorer1_macc_s: f64,
    /// VDP Explorers 2..n scan rate, Macc/s.
    pub vdp_macc_s: f64,
}

/// `core::explorer::run_explorer` over each region: the Scout's key set
/// seeds Explorer-1, and each deeper explorer takes the keys the
/// previous one left unresolved — the chain DeLorean runs per region.
pub fn explorer_stages(
    inputs: &[&dyn Workload],
    plan: &RegionPlan,
    machine: &MachineConfig,
    config: &DeLoreanConfig,
    budget: Budget,
) -> ExplorerStages {
    let cost = CostModel::paper_host();
    let mult = plan.config.work_multiplier();
    let windows = &config.explorer_windows_instrs;
    let (mut f_acc, mut f_s, mut v_acc, mut v_s) = (0u64, 0.0, 0u64, 0.0);
    'outer: loop {
        for w in inputs {
            let mut prev_end = 0;
            for region in &plan.regions {
                let mut clock_charge = HostClock::new();
                let scout = scout_region(
                    *w,
                    machine,
                    &cost,
                    &mut clock_charge,
                    region,
                    prev_end,
                    mult,
                );
                prev_end = region.detailed.end;
                let mut pending = pending_from_keyset(&scout.keyset);
                for (k, &window) in windows.iter().enumerate() {
                    if pending.is_empty() {
                        break;
                    }
                    let prev_window = if k == 0 { 0 } else { windows[k - 1] };
                    let start = clock::now();
                    let out = run_explorer(
                        *w,
                        &cost,
                        &mut clock_charge,
                        k,
                        window,
                        prev_window,
                        region,
                        &pending,
                        config.vicinity_period_accesses,
                        config.seed,
                        mult,
                    );
                    let s = clock::secs_since(start);
                    if k == 0 {
                        f_acc += out.scan.accesses_scanned;
                        f_s += s;
                    } else {
                        v_acc += out.scan.accesses_scanned;
                        v_s += s;
                    }
                    pending = out.remaining;
                }
                if budget.spent() {
                    break 'outer;
                }
            }
        }
    }
    ExplorerStages {
        explorer1_macc_s: clock::ratio(f_acc as f64 * 1e-6, f_s),
        vdp_macc_s: clock::ratio(v_acc as f64 * 1e-6, v_s),
    }
}

/// Results of the scheduler hand-off stages.
#[derive(Copy, Clone, Debug, Default)]
pub struct HandoffStages {
    /// Median `run_units` call, µs.
    pub units_us: f64,
    /// Median `run_seeded` call, µs.
    pub seeded_us: f64,
    /// Median `run_speculative` call, µs.
    pub speculative_us: f64,
}

/// The region scheduler's runners over the plan's regions at 2 workers
/// with trivial bodies: what a hand-off costs by itself. `units` times
/// `run_units`; `chained` times `run_seeded` and `run_speculative`. A
/// runner not timed reads 0.
pub fn handoff_stages(
    plan: &RegionPlan,
    budget: Budget,
    units: bool,
    chained: bool,
) -> HandoffStages {
    let sched = RegionScheduler::new(2);
    let regions = &plan.regions;
    let (mut unit, mut seeded, mut spec) = (Vec::new(), Vec::new(), Vec::new());
    let mut calls = 0;
    while (units || chained) && (calls < 16 || !budget.spent()) {
        calls += 1;
        if units {
            let (out, s) = clock::timed(|| sched.run_units(regions, |i, _| i));
            black_box(out);
            unit.push(s * 1e6);
        }
        if chained {
            let (out, s) = clock::timed(|| sched.run_seeded(regions, |i, _| i, |i, _, s| i ^ s));
            black_box(out);
            seeded.push(s * 1e6);
            let (out, s) =
                clock::timed(|| sched.run_speculative(regions, |i, _| i, |i, _, s| i ^ s));
            black_box(out);
            spec.push(s * 1e6);
        }
    }
    HandoffStages {
        units_us: clock::median(&unit),
        seeded_us: clock::median(&seeded),
        speculative_us: clock::median(&spec),
    }
}
