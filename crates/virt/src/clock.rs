//! Host-time accounting: per-pass clocks and pipelined run costs.

/// Accumulated host seconds of one execution pass.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct HostClock {
    seconds: f64,
}

impl HostClock {
    /// A clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` of host time.
    #[inline]
    pub fn charge(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative charge");
        // lint:allow(float-accum): HostClock is the sanctioned per-lane sequential accumulator; cross-lane merges go through the plan-ordered RunCost path
        self.seconds += seconds;
    }

    /// Total host seconds so far.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}

/// Named cost of one pipeline pass (Scout, Explorer-k, Analyst, ...).
#[derive(Clone, Debug, PartialEq)]
pub struct PassCost {
    /// Pass name for reports.
    pub name: String,
    /// Total host seconds over the whole run.
    pub seconds: f64,
}

/// Host cost of one **region unit** — the independent scheduling quantum
/// of the region-parallel runtime (one detailed region with its warming
/// work).
///
/// The cost is split by *lane*:
///
/// * `chained_seconds` — work that must execute in unit order on the
///   carried-state lane (cumulative functional warming in SMARTS,
///   checkpoint preparation). The lane is inherently sequential: unit
///   *m*'s chained work cannot start before unit *m−1*'s finished,
///   because it consumes the state the previous unit left behind.
/// * `parallel_seconds` — work that only needs the unit's own seed state
///   (its hierarchy clone / restored checkpoint / per-region profiling
///   context) and therefore fans out across workers.
///
/// Strategies whose regions are fully independent — CoolSim, MRRL,
/// checkpoint evaluation, DeLorean — record all their cost as
/// `parallel_seconds`; the chained lane is what makes SMARTS-style
/// functional warming resist region parallelism (§7's critique).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct UnitCost {
    /// Unit (region) index, in plan order.
    pub unit: u32,
    /// Seconds on the sequential carried-state lane.
    pub chained_seconds: f64,
    /// Seconds of freely parallel per-unit work.
    pub parallel_seconds: f64,
}

impl UnitCost {
    /// Total seconds of the unit across both lanes.
    pub fn seconds(&self) -> f64 {
        self.chained_seconds + self.parallel_seconds
    }
}

/// Cost of a complete sampled-simulation run, split by pass.
///
/// The TT passes run as concurrent processes, pipelined across detailed
/// regions (§3.2): while the Analyst evaluates region *m*, the Scout
/// already works on *m+1*. With enough cores the steady-state wall-clock
/// is set by the slowest pass; the remaining passes only contribute the
/// pipeline fill of roughly one region each.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunCost {
    passes: Vec<PassCost>,
    regions: u64,
    /// Per-region-unit costs recorded by the region scheduler; empty for
    /// runs that never went through it (a DSE analyst's).
    units: Vec<UnitCost>,
}

impl RunCost {
    /// A run cost over `regions` detailed regions.
    pub fn new(regions: u64) -> Self {
        RunCost {
            passes: Vec::new(),
            regions: regions.max(1),
            units: Vec::new(),
        }
    }

    /// Append a pass.
    pub fn push(&mut self, name: impl Into<String>, clock: HostClock) {
        self.passes.push(PassCost {
            name: name.into(),
            seconds: clock.seconds(),
        });
    }

    /// Reassemble a run cost from previously recorded parts — the
    /// deserialization counterpart of [`passes`](RunCost::passes),
    /// [`regions`](RunCost::regions) and [`units`](RunCost::units).
    /// Unlike [`RunCost::new`] this does **not** clamp the region count,
    /// so a round-trip through a codec reproduces the original value
    /// bitwise (including the `Default` zero-region case).
    pub fn from_parts(passes: Vec<PassCost>, regions: u64, units: Vec<UnitCost>) -> Self {
        RunCost {
            passes,
            regions,
            units,
        }
    }

    /// The recorded passes.
    pub fn passes(&self) -> &[PassCost] {
        &self.passes
    }

    /// The number of detailed regions this cost covers (0 only for a
    /// `Default`/deserialized-empty cost).
    pub fn regions(&self) -> u64 {
        self.regions
    }

    /// Total host resources consumed (CPU-seconds across all passes) —
    /// what parallel design-space exploration amortizes.
    pub fn total_resources(&self) -> f64 {
        self.passes.iter().map(|p| p.seconds).sum()
    }

    /// Estimated wall-clock of the pipelined run: the slowest pass plus a
    /// one-region pipeline-fill share of every other pass.
    ///
    /// `RunCost::new` clamps the region count to ≥ 1, but a `Default`
    /// (deserialized, empty) cost has zero regions — fall back to the
    /// serial sum there rather than dividing 0/0 into NaN.
    pub fn pipelined_wallclock(&self) -> f64 {
        if self.regions == 0 {
            return self.total_resources();
        }
        let max = self.passes.iter().map(|p| p.seconds).fold(0.0f64, f64::max);
        let rest: f64 = self.total_resources() - max;
        max + rest / self.regions as f64
    }

    /// Wall-clock of a serial (non-pipelined) run: the sum of all passes.
    pub fn serial_wallclock(&self) -> f64 {
        self.total_resources()
    }

    /// Merge another run cost (e.g. from a second pipeline stage set).
    /// Unit records are concatenated as well.
    pub fn merge(&mut self, other: &RunCost) {
        self.passes.extend(other.passes.iter().cloned());
        self.units.extend(other.units.iter().copied());
    }

    /// Record the cost of one region unit (see [`UnitCost`]). Units must
    /// be pushed in plan order — the wallclock model schedules them in
    /// the order recorded.
    pub fn push_unit(&mut self, unit: u32, chained_seconds: f64, parallel_seconds: f64) {
        debug_assert!(chained_seconds >= 0.0 && parallel_seconds >= 0.0);
        self.units.push(UnitCost {
            unit,
            chained_seconds,
            parallel_seconds,
        });
    }

    /// The recorded region units, in plan order (empty when the run did
    /// not go through the region scheduler).
    pub fn units(&self) -> &[UnitCost] {
        &self.units
    }

    /// Estimated wall-clock of the run executed by the **region-parallel
    /// scheduler** on `workers` host workers.
    ///
    /// The model is deterministic list scheduling over the recorded
    /// [`UnitCost`]s, in plan order:
    ///
    /// * The chained lane runs on one dedicated worker; unit *m*'s
    ///   chained work completes at the chained prefix sum through *m*.
    /// * Each unit's parallel body is released when its chained prefix is
    ///   done and is assigned to the earliest-available worker of the
    ///   remaining pool (`workers − 1` when any chained work exists,
    ///   otherwise all `workers`).
    ///
    /// With one worker (or no recorded units) this degrades to the serial
    /// sum, so `region_parallel_wallclock(1)` ==
    /// [`serial_wallclock`](RunCost::serial_wallclock) for
    /// scheduler-produced costs. The estimate depends only on recorded
    /// unit costs — never on the host the run happened to execute on.
    pub fn region_parallel_wallclock(&self, workers: usize) -> f64 {
        if self.units.is_empty() {
            // Legacy serial run: nothing to fan out.
            return self.serial_wallclock();
        }
        if workers <= 1 {
            return self.units.iter().map(|u| u.seconds()).sum();
        }
        let has_chain = self.units.iter().any(|u| u.chained_seconds > 0.0);
        let pool = if has_chain { workers - 1 } else { workers }.max(1);
        let mut chain_done = 0.0f64;
        let mut free = vec![0.0f64; pool.min(self.units.len())];
        let mut end = 0.0f64;
        for u in &self.units {
            // lint:allow(float-accum): units iterate in plan order regardless of worker count, so this fold is worker-count-invariant
            chain_done += u.chained_seconds;
            // Earliest-available worker (first on ties: deterministic).
            let mut w = 0usize;
            for i in 1..free.len() {
                if free[i] < free[w] {
                    w = i;
                }
            }
            let start = free[w].max(chain_done);
            free[w] = start + u.parallel_seconds;
            end = end.max(free[w]).max(chain_done);
        }
        end
    }

    /// Estimated wall-clock of the run executed by the **speculative warm
    /// lane** on `workers` host workers, given the per-unit speculation
    /// outcomes recorded by the scheduler.
    ///
    /// The model is deterministic list scheduling, in plan order:
    ///
    /// * `workers − 1` speculation workers receive all spec tasks at
    ///   t = 0 (spec tasks have no chain dependency — that is the whole
    ///   point); each task is assigned to the earliest-available worker
    ///   (first on ties). Its proxy digest is ready at
    ///   `start + proxy_seconds`; its measurement at
    ///   `start + speculative_seconds`.
    /// * One reconciler advances the true carried state in plan order:
    ///   it waits for unit *m*'s digest, then on a **commit** merely
    ///   waits for the speculative measurement (adopting the worker's
    ///   end state is free in this model), while on a **miss** it
    ///   performs the unit's full chained warm plus measurement itself.
    ///
    /// With one worker there is nobody to speculate, so the lane
    /// degrades to the serial sum — identical to
    /// [`Self::region_parallel_wallclock`]`(1)`. Committed units replace the
    /// blind chained prefix warm with the worker's (directed, shorter)
    /// speculative warm, so the modeled speedup reflects genuine work
    /// reduction and may exceed the worker count. Like every model here
    /// it depends only on recorded costs, never on the host.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is non-empty and not aligned one-to-one with the
    /// recorded units.
    pub fn speculative_wallclock(&self, workers: usize, spec: &[SpecUnit]) -> f64 {
        if self.units.is_empty() {
            return self.serial_wallclock();
        }
        if workers <= 1 || spec.is_empty() {
            return self.region_parallel_wallclock(workers);
        }
        assert_eq!(
            spec.len(),
            self.units.len(),
            "speculation outcomes must align with recorded units"
        );
        let pool = (workers - 1).max(1);
        let mut free = vec![0.0f64; pool.min(spec.len())];
        let mut digest_ready = vec![0.0f64; spec.len()];
        let mut spec_done = vec![0.0f64; spec.len()];
        for (i, s) in spec.iter().enumerate() {
            debug_assert!(s.proxy_seconds >= 0.0 && s.speculative_seconds >= s.proxy_seconds);
            let mut w = 0usize;
            for k in 1..free.len() {
                if free[k] < free[w] {
                    w = k;
                }
            }
            digest_ready[i] = free[w] + s.proxy_seconds;
            spec_done[i] = free[w] + s.speculative_seconds;
            free[w] = spec_done[i];
        }
        let mut t = 0.0f64;
        for (i, (u, s)) in self.units.iter().zip(spec).enumerate() {
            t = t.max(digest_ready[i]);
            if s.committed {
                t = t.max(spec_done[i]);
            } else {
                // lint:allow(float-accum): plan-ordered reconciler fold, worker-count-invariant by construction
                t += u.chained_seconds + u.parallel_seconds;
            }
        }
        t
    }

    /// Modeled speedup of the speculative warm lane at `workers` workers
    /// over the sequential chained run (1.0 when empty).
    pub fn speculative_speedup(&self, workers: usize, spec: &[SpecUnit]) -> f64 {
        let serial = self.region_parallel_wallclock(1);
        let wall = self.speculative_wallclock(workers, spec);
        if wall <= 0.0 {
            1.0
        } else {
            serial / wall
        }
    }
}

/// Speculation outcome of one region unit, recorded by the speculative
/// warm lane and consumed by
/// [`RunCost::speculative_wallclock`]. Kept *outside* [`RunCost`] so the
/// simulation report (which embeds the cost) stays bitwise identical to
/// the sequential run's.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SpecUnit {
    /// Unit (region) index, in plan order.
    pub unit: u32,
    /// Whether the reconciler committed the speculative measurement.
    pub committed: bool,
    /// Seconds from the spec task's start until its proxy digest exists
    /// (proxy construction: directed window warm from the proxy source).
    pub proxy_seconds: f64,
    /// Total seconds of the spec task (proxy + region warm + detailed
    /// measurement); always ≥ `proxy_seconds`.
    pub speculative_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut c = HostClock::new();
        c.charge(1.5);
        c.charge(0.25);
        assert!((c.seconds() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn pipelined_wallclock_tracks_slowest_pass() {
        let mut r = RunCost::new(10);
        let mut fast = HostClock::new();
        fast.charge(1.0);
        let mut slow = HostClock::new();
        slow.charge(30.0);
        r.push("scout", fast);
        r.push("explorer-1", slow);
        r.push("analyst", fast);
        // 30 + (1 + 1)/10
        assert!((r.pipelined_wallclock() - 30.2).abs() < 1e-9);
        assert!((r.serial_wallclock() - 32.0).abs() < 1e-9);
        assert!((r.total_resources() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_cost_is_zero() {
        let r = RunCost::new(5);
        assert_eq!(r.pipelined_wallclock(), 0.0);
        assert_eq!(r.total_resources(), 0.0);
    }

    #[test]
    fn independent_units_scale_with_workers() {
        let mut r = RunCost::new(10);
        let mut c = HostClock::new();
        for u in 0..10 {
            r.push_unit(u, 0.0, 1.0);
            c.charge(1.0);
        }
        r.push("strategy", c);
        assert!((r.region_parallel_wallclock(1) - 10.0).abs() < 1e-12);
        // 10 equal units on 4 workers: greedy loads 3/3/2/2 → makespan 3.
        assert!((r.region_parallel_wallclock(4) - 3.0).abs() < 1e-12);
        // More workers than units: one round.
        assert!((r.region_parallel_wallclock(16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chained_lane_bounds_the_wallclock() {
        let mut r = RunCost::new(4);
        for u in 0..4 {
            r.push_unit(u, 5.0, 1.0);
        }
        // Serial: 4 × (5 + 1) = 24.
        assert!((r.region_parallel_wallclock(1) - 24.0).abs() < 1e-12);
        // Many workers: the chain (20 s) still gates everything; the last
        // unit's body starts at 20 and runs 1 s.
        assert!((r.region_parallel_wallclock(8) - 21.0).abs() < 1e-12);
        // Two workers: one runs the chain, one runs all four bodies, each
        // released behind its chained prefix → last body ends at 21.
        assert!((r.region_parallel_wallclock(2) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn runs_without_units_fall_back_to_serial() {
        let mut r = RunCost::new(3);
        let mut c = HostClock::new();
        c.charge(7.0);
        r.push("only", c);
        assert_eq!(r.units().len(), 0);
        assert!((r.region_parallel_wallclock(8) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn unit_cost_totals_both_lanes() {
        let u = UnitCost {
            unit: 0,
            chained_seconds: 2.0,
            parallel_seconds: 0.5,
        };
        assert!((u.seconds() - 2.5).abs() < 1e-12);
    }

    fn spec(unit: u32, committed: bool, proxy: f64, total: f64) -> SpecUnit {
        SpecUnit {
            unit,
            committed,
            proxy_seconds: proxy,
            speculative_seconds: total,
        }
    }

    #[test]
    fn committed_speculation_beats_the_chain() {
        let mut r = RunCost::new(4);
        for u in 0..4 {
            r.push_unit(u, 5.0, 1.0);
        }
        let all: Vec<SpecUnit> = (0..4).map(|u| spec(u, true, 0.5, 2.0)).collect();
        // Serial chain: 4 × 6 = 24 s.
        assert!((r.speculative_wallclock(1, &all) - 24.0).abs() < 1e-12);
        // 4 workers → 3 spec workers. Units 0..2 start at 0 (done at 2),
        // unit 3 starts at 2 on worker 0 (done at 4). The reconciler
        // commits everything, so the wallclock is the last spec finish.
        assert!((r.speculative_wallclock(4, &all) - 4.0).abs() < 1e-12);
        // Work reduction lets speedup exceed the worker count.
        assert!((r.speculative_speedup(4, &all) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn missed_speculation_degrades_to_roughly_serial() {
        let mut r = RunCost::new(3);
        for u in 0..3 {
            r.push_unit(u, 5.0, 1.0);
        }
        let none: Vec<SpecUnit> = (0..3).map(|u| spec(u, false, 0.5, 2.0)).collect();
        // The reconciler re-does every unit (18 s) after waiting 0.5 s
        // for the first digest; later digests are already available.
        let wall = r.speculative_wallclock(4, &none);
        assert!((wall - 18.5).abs() < 1e-12, "wall = {wall}");
        assert!(r.speculative_speedup(4, &none) < 1.0);
    }

    #[test]
    fn mixed_outcomes_interleave_commit_and_redo() {
        let mut r = RunCost::new(2);
        r.push_unit(0, 5.0, 1.0);
        r.push_unit(1, 5.0, 1.0);
        let mixed = [spec(0, false, 0.5, 2.0), spec(1, true, 0.5, 2.0)];
        // 2 workers → 1 spec worker: unit 0 digest at 0.5, task done 2.0;
        // unit 1 starts at 2.0, digest 2.5, done 4.0. Reconciler: waits
        // 0.5, redoes unit 0 (6 s) → 6.5; unit 1 committed, done at 4.0
        // already → 6.5.
        assert!((r.speculative_wallclock(2, &mixed) - 6.5).abs() < 1e-12);
    }

    #[test]
    fn speculation_without_outcomes_falls_back_to_chained_model() {
        let mut r = RunCost::new(2);
        r.push_unit(0, 5.0, 1.0);
        r.push_unit(1, 5.0, 1.0);
        assert_eq!(
            r.speculative_wallclock(4, &[]),
            r.region_parallel_wallclock(4)
        );
    }

    #[test]
    #[should_panic(expected = "align with recorded units")]
    fn misaligned_outcomes_panic() {
        let mut r = RunCost::new(2);
        r.push_unit(0, 1.0, 1.0);
        r.push_unit(1, 1.0, 1.0);
        let _ = r.speculative_wallclock(4, &[spec(0, true, 0.1, 0.2)]);
    }

    #[test]
    fn from_parts_round_trips_bitwise() {
        let mut r = RunCost::new(6);
        let mut c = HostClock::new();
        c.charge(3.5);
        r.push("scout", c);
        r.push_unit(0, 1.0, 2.0);
        r.push_unit(1, 0.5, 4.0);
        let rebuilt = RunCost::from_parts(r.passes().to_vec(), r.regions(), r.units().to_vec());
        assert_eq!(r, rebuilt);
        // The Default (zero-region) cost must survive too — from_parts
        // must not clamp the way `new` does.
        let d = RunCost::default();
        assert_eq!(
            d,
            RunCost::from_parts(d.passes().to_vec(), d.regions(), d.units().to_vec())
        );
    }

    #[test]
    fn merge_appends_passes() {
        let mut a = RunCost::new(4);
        let mut c = HostClock::new();
        c.charge(2.0);
        a.push("x", c);
        let mut b = RunCost::new(4);
        b.push("y", c);
        a.merge(&b);
        assert_eq!(a.passes().len(), 2);
        assert!((a.total_resources() - 4.0).abs() < 1e-12);
    }
}
