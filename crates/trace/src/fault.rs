//! Seeded fault injection and the unit fault domain.
//!
//! The fault-tolerant sweep runtime (PR 9) treats every unit of work —
//! a region unit in the scheduler, a strategy×workload cell in the
//! batch executor, a journal append — as a
//! *fault domain*: a failure inside it is caught, classified, retried
//! against a bounded budget, and quarantined when the budget is
//! exhausted, instead of tearing down the whole run. This module owns
//! the three pieces every layer shares:
//!
//! * **The taxonomy** — [`UnitFault`] (what went wrong) and
//!   [`UnitFailure`] (which unit, after how many attempts), plus the
//!   [`FaultPolicy`] retry budget.
//! * **The guarded runner** — [`run_unit_guarded`]: `catch_unwind`
//!   around a unit body, panic-payload classification (a
//!   [`TileError`] payload becomes [`UnitFault::TraceError`], the
//!   timeout marker becomes [`UnitFault::Timeout`], anything else
//!   [`UnitFault::Panicked`]), deterministic re-execution up to the
//!   budget, and a quiet panic hook so injected faults do not spray
//!   backtraces over test output.
//! * **The injection harness** — [`FaultPlan`]: a mix64-seeded,
//!   wall-clock-free description of *which* occurrences of *which*
//!   named [`FaultSite`]s fault and *how* ([`InjectedFault`]).
//!   [`arm`] installs a plan process-globally behind a serializing
//!   guard; instrumented sites call [`hit`] (panicking sites) or
//!   [`injected_failure`] (sites that report typed errors, like
//!   journal appends). When nothing is armed, a site is one relaxed
//!   atomic load.
//!
//! Determinism is the whole point: a plan is a pure function of
//! `(seed, site, unit, occurrence)`, so a faulted-then-retried run
//! recovers along a path that is identical on every execution and at
//! every worker count — which is what lets the oracle tests assert
//! bitwise report equality between clean and faulted runs.
//!
//! Tests that arm plans serialize through the guard automatically, but
//! the registry is process-global: keep arming tests in dedicated
//! integration-test binaries so unrelated concurrent tests never
//! traverse an armed site.

use crate::collections::FlatMap;
use crate::rng::mix64;
use crate::tile::TileError;
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

/// A named code location where the harness can inject a fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Entry of a scheduler/executor unit body, before any state is
    /// touched (so retrying the unit is trivially sound).
    UnitEntry,
    /// Entry of one reconciler commit step in the speculative warm
    /// lane, before the carried state advances.
    ReconcilerCommit,
    /// A journal append; surfaces as a typed error, never a panic.
    JournalWrite,
}

impl FaultSite {
    /// Every site, in a fixed order.
    pub const ALL: [FaultSite; 3] = [
        FaultSite::UnitEntry,
        FaultSite::ReconcilerCommit,
        FaultSite::JournalWrite,
    ];

    // `index`, `bit` and `salt` are stable identifiers: renumbering a
    // site would change which units an existing plan strikes, so the
    // unused slot 2 / bit 4 stays a gap.
    fn index(self) -> u64 {
        match self {
            FaultSite::UnitEntry => 0,
            FaultSite::ReconcilerCommit => 1,
            FaultSite::JournalWrite => 3,
        }
    }

    fn bit(self) -> u8 {
        match self {
            FaultSite::UnitEntry => 1,
            FaultSite::ReconcilerCommit => 2,
            FaultSite::JournalWrite => 8,
        }
    }

    /// Per-site salt folded into the seed so the same unit index draws
    /// independent decisions at different sites.
    fn salt(self) -> u64 {
        match self {
            FaultSite::UnitEntry => 0x5175_17e0_u64,
            FaultSite::ReconcilerCommit => 0x0c03_3317,
            FaultSite::JournalWrite => 0x10fa_11ed,
        }
    }
}

/// The kinds of fault a plan can select from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// An opaque panic (a `String` payload).
    Panic,
    /// A typed [`TileError`] raised through the panic channel.
    TraceError,
    /// The timeout marker ([`UnitFault::Timeout`] after classification).
    Timeout,
    /// A benign deterministic stall (a fixed-count yield loop) — never
    /// an error; exercises scheduling robustness only.
    Delay,
}

impl FaultKind {
    /// Every kind, in the fixed order menus are drawn from.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Panic,
        FaultKind::TraceError,
        FaultKind::Timeout,
        FaultKind::Delay,
    ];

    fn bit(self) -> u8 {
        match self {
            FaultKind::Panic => 1,
            FaultKind::TraceError => 2,
            FaultKind::Timeout => 4,
            FaultKind::Delay => 8,
        }
    }
}

/// One concrete injected fault, as resolved by a [`FaultPlan`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic with an opaque message.
    Panic,
    /// Panic carrying a typed [`TileError`] payload.
    TraceError,
    /// Panic carrying the timeout marker.
    Timeout,
    /// Spin `spins` cooperative yields, then continue normally.
    Delay {
        /// Number of `thread::yield_now` iterations.
        spins: u32,
    },
}

/// A deterministic, seeded description of which unit occurrences fault.
///
/// A plan is a pure function of `(seed, site, unit, occurrence)`: no
/// wall clock, no global RNG. `occurrence` counts how many times the
/// armed registry has been consulted for that `(site, unit)` pair, so
/// "the first `strikes` attempts fault, the retry succeeds" falls out
/// without call sites tracking attempts themselves.
///
/// ```
/// use delorean_trace::fault::{FaultKind, FaultPlan, FaultSite};
///
/// let plan = FaultPlan::new(42)
///     .at(FaultSite::UnitEntry)
///     .every(2)
///     .strikes(1)
///     .kinds(&[FaultKind::Panic]);
/// // Pure: the same query always resolves the same way.
/// let a = plan.fault_for(FaultSite::UnitEntry, 3, 0);
/// assert_eq!(a, plan.fault_for(FaultSite::UnitEntry, 3, 0));
/// // Beyond the strike budget the unit succeeds.
/// assert_eq!(plan.fault_for(FaultSite::UnitEntry, 3, 1), None);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    armed_sites: u8,
    period: u64,
    strikes: u32,
    kinds: u8,
}

impl FaultPlan {
    /// A plan with no armed sites: 1-in-1 unit selection, one strike,
    /// drawing from panics and trace errors.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            armed_sites: 0,
            period: 1,
            strikes: 1,
            kinds: FaultKind::Panic.bit() | FaultKind::TraceError.bit(),
        }
    }

    /// Arm `site` (builder; may be called for several sites).
    pub fn at(mut self, site: FaultSite) -> Self {
        self.armed_sites |= site.bit();
        self
    }

    /// Fault roughly 1-in-`period` units per armed site (seed-chosen
    /// which; `period` is clamped to ≥ 1, and 1 means every unit).
    pub fn every(mut self, period: u64) -> Self {
        self.period = period.max(1);
        self
    }

    /// Fault the first `strikes` occurrences of a selected
    /// `(site, unit)` pair; later occurrences succeed. Keep this at or
    /// below the retry budget for recoverable plans, above it to force
    /// quarantine.
    pub fn strikes(mut self, strikes: u32) -> Self {
        self.strikes = strikes;
        self
    }

    /// Restrict the fault menu to `kinds` (the seed picks per
    /// occurrence among them).
    pub fn kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = 0;
        for k in kinds {
            self.kinds |= k.bit();
        }
        self
    }

    /// Whether `site` is armed in this plan.
    fn is_armed(&self, site: FaultSite) -> bool {
        self.armed_sites & site.bit() != 0
    }

    /// Resolve the fault (if any) for the `occurrence`-th consultation
    /// of `unit` at `site`. Pure — see the type-level docs.
    pub fn fault_for(&self, site: FaultSite, unit: u64, occurrence: u32) -> Option<InjectedFault> {
        if !self.is_armed(site) {
            return None;
        }
        let r = mix64(self.seed ^ site.salt(), unit);
        if self.period > 1 && !r.is_multiple_of(self.period) {
            return None;
        }
        if occurrence >= self.strikes {
            return None;
        }
        let mut menu = [FaultKind::Panic; 4];
        let mut n = 0usize;
        for k in FaultKind::ALL {
            if self.kinds & k.bit() != 0 {
                menu[n] = k;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        let pick = menu[crate::cast::idx(mix64(r, occurrence as u64) % n as u64)];
        Some(match pick {
            FaultKind::Panic => InjectedFault::Panic,
            FaultKind::TraceError => InjectedFault::TraceError,
            FaultKind::Timeout => InjectedFault::Timeout,
            FaultKind::Delay => InjectedFault::Delay {
                spins: crate::cast::u32_exact(16 + r % 48),
            },
        })
    }
}

/// Panic payload marking an injected timeout.
#[derive(Copy, Clone, Debug)]
pub struct InjectedTimeout;

/// Panic payload of an injected opaque panic (kept as a dedicated type
/// so the quiet hook can recognize it on threads outside a guarded
/// unit).
#[derive(Clone, Debug)]
pub struct InjectedPanic(pub String);

struct Registry {
    plan: FaultPlan,
    /// Occurrence counters keyed by `(unit << 3) | site_index`.
    counts: FlatMap<u64, u32>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);
static GATE: Mutex<()> = Mutex::new(());

thread_local! {
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding these mutexes is exactly the scenario the
    // harness induces on purpose; the protected state stays coherent
    // (counters only ever increment), so poisoning is ignored.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info.payload().downcast_ref::<InjectedPanic>().is_some()
                || info.payload().downcast_ref::<InjectedTimeout>().is_some()
                || info.payload().downcast_ref::<TileError>().is_some();
            if !injected && !GUARDED.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

/// Serializes fault-armed sections (tests) and disarms on drop.
///
/// Holding the guard keeps the process-global registry exclusive:
/// a second [`arm`] call blocks until the first guard drops.
#[derive(Debug)]
pub struct FaultGuard {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *lock(&REGISTRY) = None;
    }
}

/// Arm `plan` process-globally until the returned guard drops.
///
/// Blocks while another plan is armed (one armed plan at a time), so
/// concurrent fault tests serialize instead of cross-firing.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    install_quiet_hook();
    let gate = lock(&GATE);
    *lock(&REGISTRY) = Some(Registry {
        plan,
        counts: FlatMap::new(),
    });
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { _gate: gate }
}

/// Whether any plan is currently armed (one relaxed load).
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Consult the armed plan for `(site, unit)`, bumping the occurrence
/// counter. `None` when disarmed or the plan spares this occurrence.
fn consult(site: FaultSite, unit: u64) -> Option<InjectedFault> {
    if !armed() {
        return None;
    }
    let mut reg = lock(&REGISTRY);
    let reg = reg.as_mut()?;
    let key = (unit << 3) | site.index();
    let occurrence = reg.counts.get(key).copied().unwrap_or(0);
    reg.counts.insert(key, occurrence + 1);
    reg.plan.fault_for(site, unit, occurrence)
}

/// Non-executing probe for sites that surface faults as typed errors
/// (journal appends): returns the injected fault instead of raising it.
/// Counts as an occurrence like [`hit`] does.
pub fn injected_failure(site: FaultSite, unit: u64) -> Option<InjectedFault> {
    consult(site, unit)
}

/// A panicking injection point. When the armed plan selects this
/// `(site, unit)` occurrence the fault executes here, through
/// [`raise`]. Disarmed cost: one relaxed atomic load.
pub fn hit(site: FaultSite, unit: u64) {
    if let Some(fault) = consult(site, unit) {
        raise(
            fault,
            crate::cast::u32_exact(unit & 0xffff_ffff),
            &format!("{site:?} unit {unit}"),
        );
    }
}

/// Execute a resolved injected fault: panics unwind with the typed
/// payloads the classifier understands (a trace error as
/// [`TileError::TileCorrupt`] of `tile`), delays stall a deterministic
/// number of yields and return. `context` names the injection point in
/// the panic messages, which end up in quarantine reports. The global
/// harness ([`hit`]) and the shard worker both raise through here, so
/// the classifier sees identical payloads whichever process a fault
/// fires in.
pub fn raise(fault: InjectedFault, tile: u32, context: &str) {
    match fault {
        InjectedFault::Delay { spins } => {
            for _ in 0..spins {
                std::thread::yield_now();
            }
        }
        InjectedFault::Panic => {
            std::panic::panic_any(InjectedPanic(format!("injected panic at {context}")))
        }
        InjectedFault::TraceError => std::panic::panic_any(TileError::TileCorrupt {
            tile,
            detail: format!("injected trace error at {context}"),
        }),
        InjectedFault::Timeout => std::panic::panic_any(InjectedTimeout),
    }
}

/// What went wrong inside one unit of work.
#[derive(Debug)]
pub enum UnitFault {
    /// The unit body panicked with an opaque payload.
    Panicked {
        /// Best-effort stringified panic payload.
        message: String,
    },
    /// The unit body raised a typed trace/tile error.
    TraceError(TileError),
    /// The unit body exceeded its (injected) deadline.
    Timeout,
    /// The unit never ran: an upstream unit of its sequential chain
    /// was quarantined, so its seed state is unavailable.
    ChainPoisoned {
        /// Index of the quarantined upstream unit.
        upstream: u32,
    },
}

impl fmt::Display for UnitFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitFault::Panicked { message } => write!(f, "panicked: {message}"),
            UnitFault::TraceError(e) => write!(f, "trace error: {e}"),
            UnitFault::Timeout => write!(f, "timed out"),
            UnitFault::ChainPoisoned { upstream } => {
                write!(f, "chain poisoned by quarantined upstream unit {upstream}")
            }
        }
    }
}

/// A unit that exhausted its retry budget (or could not run at all).
#[derive(Debug)]
pub struct UnitFailure {
    /// Index of the failed unit within its run.
    pub unit: u32,
    /// Attempts made before giving up (0 for chain-poisoned units that
    /// never ran).
    pub attempts: u32,
    /// The last classified fault.
    pub fault: UnitFault,
}

impl fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unit {} failed after {} attempt{}: {}",
            self.unit,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.fault
        )
    }
}

impl std::error::Error for UnitFailure {}

/// Retry discipline for guarded units.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Re-executions allowed after the first failed attempt (so a unit
    /// runs at most `retry_budget + 1` times).
    pub retry_budget: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { retry_budget: 2 }
    }
}

impl FaultPolicy {
    /// Total attempts this policy allows.
    pub fn max_attempts(&self) -> u32 {
        self.retry_budget.saturating_add(1)
    }
}

fn classify(payload: Box<dyn Any + Send>) -> UnitFault {
    let payload = match payload.downcast::<TileError>() {
        Ok(e) => return UnitFault::TraceError(*e),
        Err(p) => p,
    };
    let payload = match payload.downcast::<InjectedTimeout>() {
        Ok(_) => return UnitFault::Timeout,
        Err(p) => p,
    };
    let payload = match payload.downcast::<InjectedPanic>() {
        Ok(p) => return UnitFault::Panicked { message: p.0 },
        Err(p) => p,
    };
    let payload = match payload.downcast::<String>() {
        Ok(s) => return UnitFault::Panicked { message: *s },
        Err(p) => p,
    };
    match payload.downcast::<&'static str>() {
        Ok(s) => UnitFault::Panicked {
            message: (*s).to_string(),
        },
        Err(_) => UnitFault::Panicked {
            message: "non-string panic payload".to_string(),
        },
    }
}

struct GuardedScope {
    prev: bool,
}

impl GuardedScope {
    fn enter() -> Self {
        GuardedScope {
            prev: GUARDED.with(|g| g.replace(true)),
        }
    }
}

impl Drop for GuardedScope {
    fn drop(&mut self) {
        let prev = self.prev;
        GUARDED.with(|g| g.set(prev));
    }
}

/// Run `body` as an isolated fault domain: panics are caught and
/// classified, the body is re-executed up to the policy's budget, and
/// exhaustion yields a typed [`UnitFailure`] instead of unwinding.
///
/// The body must be safe to re-run from its entry (the scheduler's
/// instrumented sites fault *before* any shared state mutates, and
/// retried bodies are re-seeded from cloned inputs).
///
/// ```
/// use delorean_trace::fault::{run_unit_guarded, FaultPolicy, UnitFault};
///
/// let mut tries = 0;
/// let out = run_unit_guarded(7, &FaultPolicy::default(), || {
///     tries += 1;
///     if tries < 2 {
///         std::panic::panic_any("flaky once".to_string());
///     }
///     tries
/// });
/// assert_eq!(out.unwrap(), 2);
///
/// let exhausted = run_unit_guarded(8, &FaultPolicy { retry_budget: 1 }, || -> u32 {
///     std::panic::panic_any("always".to_string())
/// });
/// let failure = exhausted.unwrap_err();
/// assert_eq!(failure.unit, 8);
/// assert_eq!(failure.attempts, 2);
/// assert!(matches!(failure.fault, UnitFault::Panicked { .. }));
/// ```
pub fn run_unit_guarded<R>(
    unit: u32,
    policy: &FaultPolicy,
    mut body: impl FnMut() -> R,
) -> Result<R, UnitFailure> {
    install_quiet_hook();
    let max_attempts = policy.max_attempts();
    let mut last: Option<UnitFault> = None;
    for _attempt in 0..max_attempts {
        let outcome = {
            let _scope = GuardedScope::enter();
            catch_unwind(AssertUnwindSafe(&mut body))
        };
        match outcome {
            Ok(r) => return Ok(r),
            Err(payload) => last = Some(classify(payload)),
        }
    }
    Err(UnitFailure {
        unit,
        attempts: max_attempts,
        fault: last.unwrap_or(UnitFault::Panicked {
            message: "no attempt executed".to_string(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: tests here never `arm()` — the registry is process-global
    // and other trace unit tests run concurrently.
    // Arming tests live in the dedicated `crates/trace/tests` binaries.

    #[test]
    fn plans_are_pure_functions() {
        let plan = FaultPlan::new(99)
            .at(FaultSite::UnitEntry)
            .at(FaultSite::ReconcilerCommit)
            .every(3)
            .strikes(2);
        for site in FaultSite::ALL {
            for unit in 0..64u64 {
                for occ in 0..4u32 {
                    assert_eq!(
                        plan.fault_for(site, unit, occ),
                        plan.fault_for(site, unit, occ),
                    );
                }
            }
        }
        // Unarmed sites never fault.
        for unit in 0..64u64 {
            assert_eq!(plan.fault_for(FaultSite::JournalWrite, unit, 0), None);
        }
        // Strikes bound every armed unit's fault count.
        for unit in 0..64u64 {
            assert_eq!(plan.fault_for(FaultSite::UnitEntry, unit, 2), None);
        }
    }

    #[test]
    fn period_selects_a_strict_subset() {
        let plan = FaultPlan::new(1234).at(FaultSite::UnitEntry).every(4);
        let armed: Vec<u64> = (0..256u64)
            .filter(|&u| plan.fault_for(FaultSite::UnitEntry, u, 0).is_some())
            .collect();
        assert!(!armed.is_empty(), "period 4 should arm some of 256 units");
        assert!(armed.len() < 256, "period 4 should spare some units");
    }

    #[test]
    fn kind_menu_restricts_the_draw() {
        let plan = FaultPlan::new(5)
            .at(FaultSite::UnitEntry)
            .kinds(&[FaultKind::Timeout]);
        for unit in 0..64u64 {
            match plan.fault_for(FaultSite::UnitEntry, unit, 0) {
                Some(InjectedFault::Timeout) | None => {}
                other => panic!("unexpected fault {other:?}"),
            }
        }
        // An empty menu never faults.
        let none = plan.kinds(&[]);
        for unit in 0..64u64 {
            assert_eq!(none.fault_for(FaultSite::UnitEntry, unit, 0), None);
        }
    }

    #[test]
    fn guarded_runner_classifies_payloads() {
        let policy = FaultPolicy { retry_budget: 0 };
        let trace = run_unit_guarded(1, &policy, || -> () {
            std::panic::panic_any(TileError::EmptyTrace)
        });
        assert!(matches!(
            trace.unwrap_err().fault,
            UnitFault::TraceError(TileError::EmptyTrace)
        ));
        let timeout = run_unit_guarded(2, &policy, || -> () {
            std::panic::panic_any(InjectedTimeout)
        });
        assert!(matches!(timeout.unwrap_err().fault, UnitFault::Timeout));
        let message = run_unit_guarded(3, &policy, || -> () {
            std::panic::panic_any(InjectedPanic("boom".to_string()))
        });
        match message.unwrap_err().fault {
            UnitFault::Panicked { message } => assert_eq!(message, "boom"),
            other => panic!("expected Panicked, got {other}"),
        }
    }

    #[test]
    fn guarded_runner_retries_within_budget() {
        let mut tries = 0u32;
        let out = run_unit_guarded(0, &FaultPolicy { retry_budget: 3 }, || {
            tries += 1;
            if tries <= 3 {
                std::panic::panic_any(InjectedPanic("transient".to_string()));
            }
            tries
        });
        assert_eq!(out.unwrap(), 4);

        let mut tries = 0u32;
        let err = run_unit_guarded(9, &FaultPolicy { retry_budget: 1 }, || -> u32 {
            tries += 1;
            std::panic::panic_any(InjectedPanic(format!("attempt {tries}")));
        })
        .unwrap_err();
        assert_eq!(err.attempts, 2);
        assert_eq!(tries, 2);
    }

    #[test]
    fn failure_display_names_unit_and_cause() {
        let f = UnitFailure {
            unit: 4,
            attempts: 3,
            fault: UnitFault::ChainPoisoned { upstream: 2 },
        };
        let s = f.to_string();
        assert!(s.contains("unit 4"), "{s}");
        assert!(s.contains("upstream unit 2"), "{s}");
    }
}
