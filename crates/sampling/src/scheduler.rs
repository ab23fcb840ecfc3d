//! The region-parallel execution runtime.
//!
//! The paper's central observation is that time-traveling removes the
//! sequential dependency between sampling units: each detailed region's
//! explore→warm→measure chain is a pure function of the (position
//! addressable) execution and the region plan, so regions can be
//! evaluated in any order — and therefore in parallel. [`RegionScheduler`]
//! is the runtime for that observation: it partitions a strategy's
//! sampling plan into per-region **units**, fans the units out across its
//! workers, and hands the results back **in plan order** so the
//! strategy's reduction (and hence its [`StrategyReport`]) is
//! byte-identical for every worker count.
//!
//! Two unit shapes cover all five strategies, plus a third kept for
//! measurement. All three run on the library's one claim loop,
//! [`delorean_trace::claim::run_in_order`]: every worker, the calling
//! thread included, claims the next unit in plan order, and the calling
//! thread consumes the results in plan order.
//!
//! * [`run_units`](RegionScheduler::run_units) — fully independent
//!   units. CoolSim (per-region watchpoint profiling), MRRL (per-region
//!   reuse-latency windows), checkpoint evaluation (restore + measure)
//!   and DeLorean (Scout → Explorers → Analyst per region) each own
//!   their cursor slices and per-region state outright, so every region
//!   is one independent unit, and its result is taken as it arrives.
//! * [`run_speculative`](RegionScheduler::run_speculative) — the
//!   speculative warm lane for warm chains. SMARTS-style functional
//!   warming cannot decouple regions by construction: the hierarchy
//!   state at a region's warming boundary depends on every access
//!   before it. Instead every region becomes an independent speculation
//!   from a proxy of that state, run on every worker (the calling
//!   thread included), and a plan-order reconciler on the calling
//!   thread commits the ones whose proxy matched the true chain and
//!   redoes the rest. SMARTS and checkpoint preparation run every warm
//!   chain through this lane: with no proxy (one worker, no
//!   speculation) every unit takes the reconciler's miss path, which is
//!   the in-place sequential chain step for step.
//! * [`run_seeded`](RegionScheduler::run_seeded) — units seeded by a
//!   sequential carried-state lane. The seed pass runs in plan order on
//!   the calling thread, then the bodies fan out with their seeds. No
//!   strategy calls it; it stays as the seed-lane handoff primitive
//!   `simbench` times.
//!
//! Determinism contract: unit bodies must be pure functions of
//! `(unit index, region, seed)`. The scheduler never lets the worker
//! count influence what a unit computes — only *when* it computes it —
//! and reduces results by unit index, so `workers = 1` and `workers = N`
//! produce bitwise-equal outputs (asserted for all five strategies by
//! `tests/determinism.rs`).
//!
//! [`StrategyReport`]: crate::StrategyReport

use crate::config::Region;
use delorean_trace::claim::run_in_order;
pub use delorean_trace::claim::LostUnits;
use delorean_trace::fault::{self, FaultPolicy, FaultSite, UnitFailure, UnitFault};
use std::ops::ControlFlow;
#[cfg(test)]
use std::sync::Mutex; // the tests' thread log

/// Split guarded per-unit results into plan-ordered slots and the list
/// of quarantined failures.
fn split_results<R>(results: Vec<Result<R, UnitFailure>>) -> (Vec<Option<R>>, Vec<UnitFailure>) {
    let mut out = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for res in results {
        match res {
            Ok(r) => out.push(Some(r)),
            Err(f) => {
                out.push(None);
                failures.push(f);
            }
        }
    }
    (out, failures)
}

/// Fans a region plan's independent units out across a worker pool and
/// collects results in plan order.
///
/// The worker count is fixed at construction — results never depend on
/// it, so harness code is free to pick any bound (the batch executor
/// divides the machine between strategy×workload cells and region
/// workers to avoid oversubscription).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RegionScheduler {
    workers: usize,
}

impl RegionScheduler {
    /// A scheduler fanning units across `workers` workers (clamped ≥ 1).
    pub fn new(workers: usize) -> Self {
        RegionScheduler {
            workers: workers.max(1),
        }
    }

    /// The sequential scheduler: one worker, units in plan order. This is
    /// the reference execution the determinism tests compare against.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// A scheduler sized to the host's available parallelism.
    pub fn host() -> Self {
        Self::new(delorean_trace::host_parallelism())
    }

    /// This scheduler's worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluate one fully independent unit per region, in parallel, and
    /// return the results in plan order.
    ///
    /// `unit` must be a pure function of `(index, region)` (plus
    /// captured immutable context); the scheduler guarantees the output
    /// vector is identical for every worker count. It is
    /// [`run_speculative`](Self::run_speculative) with a reconciler that
    /// takes each result as it is, so a unit lost to a helper that died
    /// unwinds the caller with a [`LostUnits`] naming it.
    pub fn run_units<R: Send>(
        &self,
        regions: &[Region],
        unit: impl Fn(u32, &Region) -> R + Sync,
    ) -> Vec<R> {
        self.run_speculative(regions, unit, |_, _, r| r)
    }

    /// Evaluate units whose seeds come off a sequential carried-state
    /// lane: `seed` runs in plan order (it may fold mutable state across
    /// calls — the cumulative warm hierarchy), `body` runs on any worker
    /// with its unit's seed. Results come back in plan order.
    ///
    /// The whole seed lane runs first, on the calling thread; then the
    /// bodies run on the claim loop [`run_units`](Self::run_units) uses,
    /// each handed its own seed by value. Seeds therefore do not overlap
    /// bodies, and with one worker the order is seed(0), …, seed(n−1),
    /// body(0), …, body(n−1).
    pub fn run_seeded<S: Send, R: Send>(
        &self,
        regions: &[Region],
        mut seed: impl FnMut(u32, &Region) -> S + Send,
        body: impl Fn(u32, &Region, S) -> R + Sync,
    ) -> Vec<R> {
        let seeds: Vec<S> = (0u32..).zip(regions).map(|(i, r)| seed(i, r)).collect();
        let mut out = Vec::with_capacity(regions.len());
        run_in_order(
            self.workers,
            regions.iter().zip(seeds),
            || (),
            |(), i, (r, s)| body(i as u32, r, s),
            |_, r| {
                out.push(r);
                ControlFlow::Continue(())
            },
        );
        out
    }

    /// Evaluate **speculative** units: `spec` bodies are fully
    /// independent (each builds its own proxy state — no chain
    /// dependency, which is the entire point of the speculative warm
    /// lane), while `reconcile` runs on the calling thread **in plan
    /// order**, folding the sequential carried state and deciding
    /// commit vs re-measure for each unit as its speculation arrives.
    ///
    /// Every worker speculates, the calling thread included whenever it
    /// has nothing to reconcile ([`run_in_order`]), so at two workers
    /// two speculations run at once.
    ///
    /// Out-of-order speculation results are buffered until the
    /// reconciler catches up, so `reconcile(i, …)` always observes units
    /// `0..i` already reconciled — exactly the sequential fold. With one
    /// worker the two interleave: spec(0), reconcile(0), spec(1), …
    ///
    /// Determinism contract: `spec` must be a pure function of
    /// `(index, region)`, and `reconcile` must not depend on *when* a
    /// speculation arrived — then the outputs (and every commit/miss
    /// decision) are bitwise identical for every worker count.
    pub fn run_speculative<S: Send, R: Send>(
        &self,
        regions: &[Region],
        spec: impl Fn(u32, &Region) -> S + Sync,
        mut reconcile: impl FnMut(u32, &Region, S) -> R,
    ) -> Vec<R> {
        let mut out = Vec::with_capacity(regions.len());
        run_in_order(
            self.workers,
            regions.iter(),
            || (),
            |(), i, r| spec(i as u32, r),
            |i, s| {
                out.push(reconcile(i as u32, &regions[i], s));
                ControlFlow::Continue(())
            },
        );
        out
    }

    /// [`run_units`](Self::run_units) with the guard chosen by
    /// `policy`: every strategy's independent units come through here,
    /// so the guarded/unguarded choice is made once, in the scheduler.
    ///
    /// With `None` the units run exactly as `run_units` runs them —
    /// unguarded, so a panic unwinds the caller and no fault site is
    /// traversed — and every slot comes back `Some`. With
    /// `Some(policy)` each unit body runs inside
    /// [`fault::run_unit_guarded`]: a panic (or injected fault at the
    /// [`FaultSite::UnitEntry`] site) is caught and classified, the
    /// unit is retried up to the policy's budget, and exhaustion
    /// quarantines the unit instead of unwinding the run.
    ///
    /// Returns plan-ordered result slots (`None` = quarantined) plus
    /// the plan-ordered failure list. A fully clean guarded run returns
    /// all `Some` with no failures, and its results are bitwise
    /// identical to the unguarded run's at every worker count —
    /// isolation is pure scheduling, never semantics.
    ///
    /// `unit` must stay a pure function of `(index, region)`: retries
    /// re-enter it from the top, which is only sound because it owns no
    /// carried state.
    pub fn run_units_isolated<R: Send>(
        &self,
        regions: &[Region],
        policy: Option<&FaultPolicy>,
        unit: impl Fn(u32, &Region) -> R + Sync,
    ) -> (Vec<Option<R>>, Vec<UnitFailure>) {
        let Some(policy) = policy else {
            let out = self.run_units(regions, unit);
            return (out.into_iter().map(Some).collect(), Vec::new());
        };
        split_results(self.run_units(regions, |i, r| {
            fault::run_unit_guarded(i, policy, || {
                fault::hit(FaultSite::UnitEntry, u64::from(i));
                unit(i, r)
            })
        }))
    }

    /// [`run_speculative`](Self::run_speculative) with the guard chosen
    /// by `policy`. The reconciler receives `Option<S>`: with `None`
    /// the lane runs exactly as `run_speculative` runs it — unguarded,
    /// every speculation arrives as `Some`, and every slot comes back
    /// `Some` — and with `Some(policy)` it runs with **panic
    /// isolation**:
    ///
    /// Speculation bodies are free to die: a `spec` failure (after its
    /// guarded retries at the [`FaultSite::UnitEntry`] site) simply
    /// degrades that unit's speculation to `None`, and the reconciler —
    /// which now receives `Option<S>` — takes its miss path and redoes
    /// the unit from the true carried state. **Spec faults therefore
    /// never quarantine anything**; they only cost modeled speedup.
    ///
    /// The reconciler is the chain: each call is preceded by a guarded
    /// [`FaultSite::ReconcilerCommit`] gate (injected faults fire here,
    /// *before* any chain mutation, so they are retryable), and the
    /// `reconcile` call itself runs caught-but-unretried — a genuine
    /// reconciler panic may have half-mutated the carried state, so it
    /// quarantines unit *i* and poisons every later unit.
    ///
    /// A fully clean guarded run's results are bitwise identical to the
    /// unguarded run's at every worker count.
    pub fn run_speculative_isolated<S: Send, R: Send>(
        &self,
        regions: &[Region],
        policy: Option<&FaultPolicy>,
        spec: impl Fn(u32, &Region) -> S + Sync,
        mut reconcile: impl FnMut(u32, &Region, Option<S>) -> R,
    ) -> (Vec<Option<R>>, Vec<UnitFailure>) {
        let Some(policy) = policy else {
            let out = self.run_speculative(regions, spec, |i, r, s| reconcile(i, r, Some(s)));
            return (out.into_iter().map(Some).collect(), Vec::new());
        };
        let n = regions.len();
        let reconcile_once = FaultPolicy { retry_budget: 0 };
        let mut guarded_reconcile = |i: u32, r: &Region, s: Option<S>| -> Result<R, UnitFailure> {
            // Injection gate first: it faults before reconcile mutates
            // anything, so the retry loop is sound here...
            fault::run_unit_guarded(i, policy, || {
                fault::hit(FaultSite::ReconcilerCommit, u64::from(i))
            })?;
            // ...but the reconcile body itself gets exactly one attempt.
            let mut slot = Some(s);
            fault::run_unit_guarded(i, &reconcile_once, || {
                reconcile(i, r, slot.take().flatten())
            })
        };
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        let mut failures = Vec::new();
        let reconciled = run_in_order(
            self.workers,
            regions.iter(),
            || (),
            |(), i, r| {
                let i = i as u32;
                fault::run_unit_guarded(i, policy, || {
                    fault::hit(FaultSite::UnitEntry, u64::from(i));
                    spec(i, r)
                })
                .ok()
            },
            |i, s| match guarded_reconcile(i as u32, &regions[i], s) {
                Ok(v) => {
                    out.push(Some(v));
                    ControlFlow::Continue(())
                }
                Err(f) => {
                    out.push(None);
                    failures.push(f);
                    ControlFlow::Break(())
                }
            },
        );
        // A dead reconciler broke the chain at unit `reconciled − 1`:
        // every later unit is poisoned and never reconciled.
        for iu in reconciled as u32..n as u32 {
            out.push(None);
            failures.push(UnitFailure {
                unit: iu,
                attempts: 0,
                fault: UnitFault::ChainPoisoned {
                    upstream: reconciled as u32 - 1,
                },
            });
        }
        (out, failures)
    }
}

impl Default for RegionScheduler {
    /// The sequential scheduler — parallelism is always an explicit
    /// opt-in (via [`RegionScheduler::new`] or a strategy's
    /// `run_with_workers`).
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplingConfig;
    use delorean_trace::Scale;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    fn regions(n: u32) -> Vec<Region> {
        SamplingConfig::for_scale(Scale::tiny())
            .with_regions(n)
            .plan()
            .regions
    }

    #[test]
    fn independent_units_come_back_in_plan_order() {
        let rs = regions(7);
        let reference: Vec<u64> = rs.iter().map(|r| r.start_instr * 3).collect();
        for workers in [1, 2, 4, 8] {
            let got = RegionScheduler::new(workers).run_units(&rs, |_, r| r.start_instr * 3);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn seeded_units_see_the_sequential_fold() {
        let rs = regions(6);
        // The seed lane folds a running sum; every worker count must
        // observe the same per-unit prefix.
        let reference: Vec<u64> = {
            let mut acc = 0u64;
            rs.iter()
                .map(|r| {
                    acc += r.start_instr;
                    acc
                })
                .collect()
        };
        for workers in [1, 2, 3, 8] {
            let mut acc = 0u64;
            let got = RegionScheduler::new(workers).run_seeded(
                &rs,
                move |_, r| {
                    acc += r.start_instr;
                    acc
                },
                |_, _, s| s,
            );
            assert_eq!(got, reference, "workers={workers}");
        }
        // A non-`Copy` seed, the whole prefix so far: each body must get
        // its own seed, moved to it exactly once.
        for workers in [1, 2, 3, 8] {
            let mut prefix = Vec::new();
            let got = RegionScheduler::new(workers).run_seeded(
                &rs,
                move |_, r| {
                    prefix.push(r.start_instr);
                    prefix.clone()
                },
                |i, _, s: Vec<u64>| {
                    assert_eq!(s.len(), i as usize + 1, "unit {i} got another unit's seed");
                    s.iter().sum::<u64>()
                },
            );
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_is_clamped_and_reported() {
        assert_eq!(RegionScheduler::new(0).workers(), 1);
        assert_eq!(RegionScheduler::new(5).workers(), 5);
        assert_eq!(RegionScheduler::sequential().workers(), 1);
        assert_eq!(RegionScheduler::default(), RegionScheduler::sequential());
        assert!(RegionScheduler::host().workers() >= 1);
    }

    #[test]
    fn speculative_units_reconcile_in_plan_order() {
        let rs = regions(6);
        // The reconciler folds a running product over (index, spec value);
        // any arrival order must yield the sequential fold.
        let reference: Vec<u64> = {
            let mut acc = 1u64;
            rs.iter()
                .enumerate()
                .map(|(i, r)| {
                    acc = acc.wrapping_mul(r.start_instr + i as u64 + 2);
                    acc
                })
                .collect()
        };
        for workers in [1, 2, 3, 8] {
            let mut acc = 1u64;
            let got = RegionScheduler::new(workers).run_speculative(
                &rs,
                |i, r| r.start_instr + u64::from(i) + 2,
                |_, _, s| {
                    acc = acc.wrapping_mul(s);
                    acc
                },
            );
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn isolated_units_match_plain_results_when_clean() {
        let rs = regions(7);
        let reference: Vec<u64> = rs.iter().map(|r| r.start_instr * 3).collect();
        let policy = FaultPolicy::default();
        for workers in [1, 2, 4, 8] {
            let (got, failures) =
                RegionScheduler::new(workers)
                    .run_units_isolated(&rs, Some(&policy), |_, r| r.start_instr * 3);
            assert!(failures.is_empty(), "workers={workers}");
            let got: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn a_poisonous_unit_is_quarantined_with_its_attempts() {
        let rs = regions(5);
        let policy = FaultPolicy { retry_budget: 1 };
        for workers in [1, 4] {
            let (got, failures) =
                RegionScheduler::new(workers).run_units_isolated(&rs, Some(&policy), |i, _| {
                    if i == 2 {
                        std::panic::panic_any("unit 2 always dies".to_string());
                    }
                    u64::from(i)
                });
            assert_eq!(got.len(), 5);
            assert!(got[2].is_none(), "workers={workers}");
            assert_eq!(got.iter().filter(|s| s.is_some()).count(), 4);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].unit, 2);
            assert_eq!(failures[0].attempts, 2);
            assert!(matches!(
                failures[0].fault,
                UnitFault::Panicked { ref message } if message.contains("unit 2")
            ));
        }
    }

    #[test]
    fn dead_speculations_degrade_to_the_miss_path() {
        let rs = regions(6);
        let policy = FaultPolicy { retry_budget: 0 };
        // Reference: the reconciler's fold where every unit takes the
        // miss path value when its speculation is unavailable.
        let reference: Vec<u64> = rs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if i == 3 {
                    r.start_instr + 1_000 // miss path
                } else {
                    r.start_instr
                }
            })
            .collect();
        for workers in [1, 2, 8] {
            let (got, failures) = RegionScheduler::new(workers).run_speculative_isolated(
                &rs,
                Some(&policy),
                |i, r| {
                    if i == 3 {
                        std::panic::panic_any("spec 3 dies".to_string());
                    }
                    r.start_instr
                },
                |_, r, s: Option<u64>| s.unwrap_or(r.start_instr + 1_000),
            );
            // Spec faults never quarantine.
            assert!(failures.is_empty(), "workers={workers}");
            let got: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn a_dead_reconciler_poisons_downstream_units() {
        let rs = regions(5);
        let policy = FaultPolicy::default();
        for workers in [1, 2, 8] {
            let (got, failures) = RegionScheduler::new(workers).run_speculative_isolated(
                &rs,
                Some(&policy),
                |i, _| u64::from(i),
                |i, _, s: Option<u64>| {
                    if i == 2 {
                        std::panic::panic_any("reconcile 2 dies".to_string());
                    }
                    s.unwrap_or(0)
                },
            );
            assert_eq!(
                got.iter().map(|s| s.is_some()).collect::<Vec<_>>(),
                [true, true, false, false, false],
                "workers={workers}"
            );
            assert_eq!(failures.len(), 3, "workers={workers}");
            assert_eq!(failures[0].unit, 2);
            assert_eq!(failures[0].attempts, 1);
            for (f, unit) in failures[1..].iter().zip([3u32, 4]) {
                assert_eq!(f.unit, unit);
                assert_eq!(f.attempts, 0);
                assert!(matches!(f.fault, UnitFault::ChainPoisoned { upstream: 2 }));
            }
        }
    }

    /// Poll `flag` for about ten seconds; `true` once it holds. The
    /// bound turns a schedule that never overlaps the two bodies into a
    /// failure instead of a hang.
    fn wait_for(flag: impl Fn() -> bool) -> bool {
        for _ in 0..10_000 {
            if flag() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        flag()
    }

    #[test]
    fn two_workers_run_two_speculations_at_once() {
        let rs = regions(2);
        // Each spec body checks in, then waits for the other one. A
        // schedule that speculates on one thread at two workers would
        // leave the first body waiting out its deadline alone.
        let arrived = AtomicUsize::new(0);
        let got = RegionScheduler::new(2).run_speculative(
            &rs,
            |_, _| {
                arrived.fetch_add(1, Ordering::SeqCst);
                wait_for(|| arrived.load(Ordering::SeqCst) == 2)
            },
            |_, _, met| met,
        );
        assert_eq!(got, [true, true], "the two spec bodies never overlapped");
    }

    #[test]
    fn a_unit_lost_with_its_helper_is_named() {
        let rs = regions(2);
        // The two bodies meet, so each runs on its own thread; the one
        // off the calling thread then dies, unguarded.
        let caller = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let dead = AtomicUsize::new(usize::MAX);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RegionScheduler::new(2).run_units(&rs, |i, _| {
                arrived.fetch_add(1, Ordering::SeqCst);
                assert!(wait_for(|| arrived.load(Ordering::SeqCst) == 2));
                if std::thread::current().id() != caller {
                    dead.store(i as usize, Ordering::SeqCst);
                    std::panic::panic_any(format!("unit {i} dies off the calling thread"));
                }
            })
        }));
        let payload = run.expect_err("a dead helper must unwind the run");
        let lost = payload
            .downcast::<LostUnits>()
            .expect("the unwind names the lost unit");
        assert_eq!(lost.units, [dead.load(Ordering::SeqCst) as u32]);
    }

    #[test]
    fn reconcile_stays_in_plan_order_while_the_caller_speculates() {
        let rs = regions(6);
        let reference: Vec<u64> = {
            let mut acc = 0u64;
            rs.iter()
                .enumerate()
                .map(|(i, r)| {
                    acc = acc.wrapping_mul(31).wrapping_add(r.start_instr + i as u64);
                    acc
                })
                .collect()
        };
        for workers in [2, 3, 8] {
            // Spec 0 finishes only after spec 1 has, so results arrive
            // out of plan order; the reconciler must still fold 0, 1, …
            let spec1_done = AtomicBool::new(false);
            let spec_threads = Mutex::new(Vec::new());
            let caller = std::thread::current().id();
            let mut order = Vec::new();
            let mut acc = 0u64;
            let got = RegionScheduler::new(workers).run_speculative(
                &rs,
                |i, r| {
                    if i == 0 {
                        assert!(
                            wait_for(|| spec1_done.load(Ordering::SeqCst)),
                            "spec 1 never ran beside spec 0"
                        );
                    }
                    spec_threads
                        .lock()
                        .expect("spec thread log")
                        .push(std::thread::current().id());
                    if i == 1 {
                        spec1_done.store(true, Ordering::SeqCst);
                    }
                    r.start_instr + u64::from(i)
                },
                |i, _, s| {
                    order.push(i);
                    acc = acc.wrapping_mul(31).wrapping_add(s);
                    acc
                },
            );
            assert_eq!(got, reference, "workers={workers}");
            assert_eq!(order, (0..rs.len() as u32).collect::<Vec<_>>());
            // At two workers the lone helper blocks in whichever of
            // spec 0 and spec 1 it claimed first, so the caller must run
            // the other; above that, helpers may claim everything.
            let threads = spec_threads.into_inner().expect("spec thread log");
            if workers == 2 {
                assert!(threads.contains(&caller), "the caller never speculated");
            }
        }
    }

    #[test]
    fn empty_and_single_region_plans_work() {
        let rs = regions(1);
        let got = RegionScheduler::new(4).run_units(&rs, |i, _| i);
        assert_eq!(got, vec![0]);
        let got = RegionScheduler::new(4).run_seeded(&rs, |i, _| i, |_, _, s| s);
        assert_eq!(got, vec![0]);
        let none: Vec<Region> = Vec::new();
        let got: Vec<u32> = RegionScheduler::new(4).run_units(&none, |i, _| i);
        assert!(got.is_empty());
    }
}
