//! The library's one ordered fan-out: region units
//! (`delorean_sampling::RegionScheduler`), tile groups being packed or
//! verified ([`crate::tile`]) and sweep cells
//! (`delorean_bench::BatchExecutor`) all run on [`run_in_order`], so
//! they share one claim rule, one ordering rule and one failure rule.

use std::ops::ControlFlow;
use std::sync::mpsc::sync_channel;
use std::sync::{Mutex, PoisonError};

/// [`run_in_order`] lost unit results it cannot explain: a worker
/// terminated before sending its result. Raised as a typed panic
/// payload (via `std::panic::panic_any`) so the report names exactly
/// which units are missing.
#[derive(Debug)]
pub struct LostUnits {
    /// Input positions of the units whose results never arrived.
    pub units: Vec<u32>,
}

impl std::fmt::Display for LostUnits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lost the result of unit(s) {:?}: a worker terminated before \
             sending (its body panicked or was killed); guard each unit \
             with fault::run_unit_guarded, as a fault policy does, to \
             capture the per-unit fault instead",
            self.units
        )
    }
}

impl std::error::Error for LostUnits {}

/// Run `work` once per input on up to `workers` threads, the calling
/// thread among them, and hand every result to `consume` on the calling
/// thread **in input order**. Returns how many results were consumed:
/// all of them, unless `consume` returned [`ControlFlow::Break`].
///
/// `work(state, i, input)` receives input `i` by value, whichever
/// thread claims it, and that thread's `state`: each thread builds it
/// with `state()` at its first claim and keeps it, so `state()` runs at
/// most `workers` times. Which thread runs a unit depends on timing,
/// but `consume` sees the same sequence at every worker count as long
/// as `work` is a pure function of `(i, input)`.
///
/// `min(workers, n) − 1` spawned helpers claim inputs in input order
/// and send their results back, and the calling thread loops:
///
/// 1. consume the ready input-order prefix;
/// 2. take any arrived results without blocking;
/// 3. otherwise claim the next input and run it;
/// 4. only when nothing is left to claim, block on the channel.
///
/// So with one worker it interleaves work(0), consume(0), work(1), …
/// After a `Break` the calling thread stops claiming and returns once
/// the helpers drain; they do not stop, so above one worker every
/// input's `work` runs exactly once whether or not `consume` broke. If
/// a helper dies with a claimed unit unsent, the run unwinds with a
/// [`LostUnits`] naming the input positions that never arrived.
///
/// `inputs.next()` runs under the claim lock, so it must be cheap and
/// must not panic: a slice, `Vec` or range iterator, or a zip of them.
pub fn run_in_order<I: Send, S, R: Send>(
    workers: usize,
    inputs: impl ExactSizeIterator<Item = I> + Send,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, I) -> R + Sync,
    mut consume: impl FnMut(usize, R) -> ControlFlow<()>,
) -> usize {
    let n = inputs.len();
    // A claim only advances the iterator, which cannot panic, so a
    // poisoned lock still holds a consistent iterator.
    let claims = Mutex::new(inputs.enumerate());
    let claim = || claims.lock().unwrap_or_else(PoisonError::into_inner).next();
    let (state, work) = (&state, &work);
    let (done_tx, done_rx) = sync_channel::<(usize, R)>(n);
    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                let mut mine = None;
                while let Some((i, input)) = claim() {
                    let r = work(mine.get_or_insert_with(state), i, input);
                    if done_tx.send((i, r)).is_err() {
                        return; // consumer gone (a sibling panicked)
                    }
                }
            });
        }
        drop(done_tx);
        let mut own = None;
        let mut pending: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut consumed = 0;
        loop {
            while let Some(r) = pending.get_mut(consumed).and_then(Option::take) {
                let flow = consume(consumed, r);
                consumed += 1;
                if flow.is_break() {
                    return consumed;
                }
            }
            if consumed == n {
                return n;
            }
            if let Ok((i, r)) = done_rx.try_recv() {
                pending[i] = Some(r);
                continue;
            }
            if let Some((i, input)) = claim() {
                pending[i] = Some(work(own.get_or_insert_with(state), i, input));
                continue;
            }
            match done_rx.recv() {
                Ok((i, r)) => pending[i] = Some(r),
                // Every helper is gone with a claimed unit unsent.
                Err(_) => std::panic::panic_any(LostUnits {
                    units: (consumed..n)
                        .filter(|&k| pending[k].is_none())
                        .map(|k| crate::cast::u32_exact(k as u64))
                        .collect(),
                }),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn state_is_built_once_per_thread_and_reused() {
        for workers in [1, 2, 3, 8] {
            let builds = AtomicUsize::new(0);
            let mut claims_seen = 0;
            let n = run_in_order(
                workers,
                0..40usize,
                || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |claims: &mut usize, _, _| {
                    *claims += 1;
                    std::thread::sleep(Duration::from_micros(200));
                    *claims
                },
                |_, claims| {
                    claims_seen = claims_seen.max(claims);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(n, 40);
            let built = builds.load(Ordering::SeqCst);
            assert!(
                (1..=workers).contains(&built),
                "{built} states at {workers} workers"
            );
            // Some thread's state served at least its share of claims.
            assert!(claims_seen >= 40usize.div_ceil(built), "workers={workers}");
        }
        // No input, no state.
        let builds = AtomicUsize::new(0);
        let n = run_in_order(
            4,
            0..0usize,
            || builds.fetch_add(1, Ordering::SeqCst),
            |_, _, _| (),
            |_, ()| ControlFlow::Continue(()),
        );
        assert_eq!((n, builds.load(Ordering::SeqCst)), (0, 0));
    }

    #[test]
    fn consume_sees_input_order() {
        let inputs: Vec<u64> = (0..24).map(|i| i * 7 + 1).collect();
        for workers in [1, 2, 3, 8] {
            let mut seen = Vec::new();
            let n = run_in_order(
                workers,
                inputs.iter().copied(),
                || (),
                |(), i, x| {
                    // Early inputs finish last, so results arrive out
                    // of input order above one worker.
                    std::thread::sleep(Duration::from_micros(50 * (24 - i as u64)));
                    (i, x * 3)
                },
                |i, r| {
                    seen.push((i, r));
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(n, inputs.len());
            let expect: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, &x)| (i, (i, x * 3)))
                .collect();
            assert_eq!(seen, expect, "workers={workers}");
        }
    }

    #[test]
    fn a_break_returns_the_count_consumed() {
        for workers in [1, 2, 3, 8] {
            let ran = AtomicUsize::new(0);
            let mut consumed = Vec::new();
            let n = run_in_order(
                workers,
                0..10usize,
                || (),
                |(), i, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |i, r| {
                    consumed.push(r);
                    if i == 3 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(n, 4, "workers={workers}");
            assert_eq!(consumed, [0, 1, 2, 3], "workers={workers}");
            // One worker stops claiming at the break; helpers drain.
            let expect_ran = if workers == 1 { 4 } else { 10 };
            assert_eq!(ran.load(Ordering::SeqCst), expect_ran, "workers={workers}");
        }
    }
}
