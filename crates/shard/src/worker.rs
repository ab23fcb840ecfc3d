//! The shard worker: executes leased cells over any wire transport.
//!
//! [`worker_loop`] is transport-agnostic — the bin runs it over child
//! stdio or a Unix socket, tests over in-process pipes. A worker holds
//! **no scheduling state**: it rebuilds each announced job's strategies
//! and workloads from the [`SweepSpec`](crate::SweepSpec) (pure
//! functions of the spec), executes one lease at a time, and streams
//! the result back. Every lease body runs inside
//! [`run_unit_guarded`](delorean_trace::fault::run_unit_guarded) with a
//! **zero local retry budget**: retry policy belongs to the broker,
//! which re-leases with an incremented `attempt` — that attempt number
//! is also what makes injected faults deterministic *across* processes
//! (see below).
//!
//! # Deterministic fault injection without shared counters
//!
//! The in-process harness's [`fault::hit`](delorean_trace::fault::hit)
//! keeps process-global occurrence counters, which cannot agree between
//! worker processes. The worker therefore never consults the global
//! registry; an injected [`FaultPlan`] is evaluated **purely** via
//! [`FaultPlan::fault_for`] with the broker-issued attempt number as
//! the occurrence. Identical `(cell, attempt)` → identical fault
//! decision on any worker, any scheduling — which is what pins the
//! deterministic-quarantine tests.

use crate::wire::{self, Message, WireError, WireFault, WIRE_VERSION};
use crate::SweepSpec;
use delorean_bench::journal::{encode_cell, encode_units};
use delorean_sampling::{RegionPlan, SamplingStrategy};
use delorean_trace::fault::{
    self, FaultPlan, FaultPolicy, FaultSite, InjectedFault, InjectedPanic, InjectedTimeout,
};
use delorean_trace::{PhasedWorkload, TileError};
use std::io::{Read, Write};

/// How a [`worker_loop`] behaves.
#[derive(Copy, Clone, Debug, Default)]
pub struct WorkerOptions {
    /// Region-scheduler worker count override per cell (`None` runs
    /// each strategy with its own configuration, like the in-process
    /// executor's default path). Pure scheduling — never changes
    /// result bytes.
    pub region_workers: Option<usize>,
    /// Injected-fault plan, consulted **purely** per `(cell, attempt)`
    /// at [`FaultSite::UnitEntry`]. `None` outside fault harnesses.
    pub fault: Option<FaultPlan>,
    /// Die silently (drop the connection without replying) when the
    /// `n+1`-th lease arrives — the kill-a-worker harness knob.
    pub abandon_after: Option<u64>,
}

/// What a worker did before its loop ended.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases answered (done or failed).
    pub leases_served: u64,
    /// Leases answered with a failure.
    pub failures: u64,
    /// `true` if the worker abandoned mid-lease
    /// ([`WorkerOptions::abandon_after`]).
    pub abandoned: bool,
}

/// One announced job, rebuilt from its spec (or the reason it could
/// not be).
enum JobSlot {
    Ready(Box<JobContext>),
    Broken(String),
}

struct JobContext {
    spec: SweepSpec,
    plan: RegionPlan,
    strategies: Vec<Box<dyn SamplingStrategy>>,
    workloads: Vec<PhasedWorkload>,
}

/// Serve leases until the broker hangs up or sends `Shutdown`.
///
/// Returns the summary on a clean exit; transport-level damage
/// (truncated or corrupt frames, I/O errors) is the typed [`WireError`]
/// — the worker process turns that into a nonzero exit so the broker's
/// EOF detection re-leases its in-flight cell.
pub fn worker_loop<R: Read, W: Write>(
    mut read: R,
    mut write: W,
    opts: &WorkerOptions,
) -> Result<WorkerSummary, WireError> {
    wire::send(
        &mut write,
        &Message::Hello {
            version: WIRE_VERSION,
        },
    )?;
    let mut jobs: Vec<(u32, JobSlot)> = Vec::new();
    let mut summary = WorkerSummary::default();
    loop {
        let msg = match wire::recv(&mut read)? {
            None | Some(Message::Shutdown) => return Ok(summary),
            Some(m) => m,
        };
        match msg {
            Message::Job { job, spec } => {
                let slot = match SweepSpec::decode(&spec).and_then(build_job) {
                    Ok(ctx) => JobSlot::Ready(ctx),
                    Err(e) => JobSlot::Broken(e.to_string()),
                };
                jobs.retain(|(id, _)| *id != job);
                jobs.push((job, slot));
            }
            Message::Lease {
                job,
                cell,
                attempt,
                span,
            } => {
                if let Some(limit) = opts.abandon_after {
                    if summary.leases_served >= limit {
                        summary.abandoned = true;
                        return Ok(summary);
                    }
                }
                let reply = match jobs.iter().find(|(id, _)| *id == job) {
                    Some((_, JobSlot::Ready(ctx))) => execute(ctx, job, cell, attempt, span, opts),
                    Some((_, JobSlot::Broken(reason))) => {
                        refusal(job, cell, attempt, format!("job spec rejected: {reason}"))
                    }
                    None => refusal(job, cell, attempt, format!("unknown job {job}")),
                };
                summary.leases_served += 1;
                if matches!(reply, Message::CellFailed { .. }) {
                    summary.failures += 1;
                }
                wire::send(&mut write, &reply)?;
            }
            // Peer-role messages are ignored, not errors: the protocol
            // stays usable under harnesses that echo traffic.
            Message::Hello { .. }
            | Message::CellDone { .. }
            | Message::SpanDone { .. }
            | Message::CellFailed { .. }
            | Message::Shutdown => {}
        }
    }
}

fn build_job(spec: SweepSpec) -> Result<Box<JobContext>, crate::ShardError> {
    let plan = spec.plan();
    let strategies = spec.build_strategies()?;
    let workloads = spec.build_workloads()?;
    Ok(Box::new(JobContext {
        spec,
        plan,
        strategies,
        workloads,
    }))
}

fn refusal(job: u32, cell: u32, attempt: u32, detail: String) -> Message {
    Message::CellFailed {
        job,
        cell,
        attempt,
        fault: WireFault {
            kind: 0,
            aux: 0,
            detail,
        },
    }
}

/// Execute one lease. The body is guarded with a zero retry budget —
/// the broker owns retries — and classified failures travel back as
/// typed wire faults.
fn execute(
    ctx: &JobContext,
    job: u32,
    cell: u32,
    attempt: u32,
    span: Option<(u32, u32)>,
    opts: &WorkerOptions,
) -> Message {
    let n_strategies = ctx.strategies.len();
    let s = cell as usize % n_strategies;
    let w = cell as usize / n_strategies;
    let (Some(strategy), Some(workload)) = (ctx.strategies.get(s), ctx.workloads.get(w)) else {
        return refusal(
            job,
            cell,
            attempt,
            format!(
                "cell {cell} is outside the {} cell matrix",
                ctx.spec.n_cells()
            ),
        );
    };
    let one_shot = FaultPolicy { retry_budget: 0 };
    let injected = opts
        .fault
        .and_then(|plan| plan.fault_for(FaultSite::UnitEntry, u64::from(cell), attempt));
    match span {
        None => {
            let outcome = fault::run_unit_guarded(cell, &one_shot, || {
                raise(injected, cell, attempt);
                match opts.region_workers {
                    Some(n) => strategy.run_with_workers(workload, &ctx.plan, n),
                    None => strategy.run(workload, &ctx.plan),
                }
                .into_report()
            });
            match outcome {
                Ok(report) => Message::CellDone {
                    job,
                    cell,
                    attempt,
                    report: encode_cell(cell, &report),
                },
                Err(failure) => Message::CellFailed {
                    job,
                    cell,
                    attempt,
                    fault: WireFault::from_unit_fault(&failure.fault),
                },
            }
        }
        Some((lo, hi)) => {
            let outcome = fault::run_unit_guarded(cell, &one_shot, || {
                raise(injected, cell, attempt);
                strategy.run_unit_span(workload, &ctx.plan, lo..hi)
            });
            match outcome {
                Ok(Some(units)) => Message::SpanDone {
                    job,
                    cell,
                    attempt,
                    lo,
                    hi,
                    units: encode_units(&units),
                },
                Ok(None) => refusal(
                    job,
                    cell,
                    attempt,
                    format!(
                        "strategy {:?} does not decompose into region units",
                        strategy.name()
                    ),
                ),
                Err(failure) => Message::CellFailed {
                    job,
                    cell,
                    attempt,
                    fault: WireFault::from_unit_fault(&failure.fault),
                },
            }
        }
    }
}

/// Raise a purely-resolved injected fault exactly the way the global
/// harness's [`fault::hit`] would, so the classifier sees identical
/// payloads whichever process the fault fires in.
fn raise(injected: Option<InjectedFault>, cell: u32, attempt: u32) {
    match injected {
        None => {}
        Some(InjectedFault::Delay { spins }) => {
            for _ in 0..spins {
                std::thread::yield_now();
            }
        }
        Some(InjectedFault::Panic) => std::panic::panic_any(InjectedPanic(format!(
            "injected panic at shard cell {cell} attempt {attempt}"
        ))),
        Some(InjectedFault::TraceError) => std::panic::panic_any(TileError::TileCorrupt {
            tile: cell,
            detail: format!("injected trace error at shard cell {cell} attempt {attempt}"),
        }),
        Some(InjectedFault::Timeout) => std::panic::panic_any(InjectedTimeout),
    }
}
