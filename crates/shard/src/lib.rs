//! Simulation-as-a-service shard layer: a sweep **broker** that splits
//! strategy×workload jobs into leased work cells, fans them out to
//! **worker processes** over a checksummed wire protocol, and reduces
//! plan-ordered matrices bitwise identical to the in-process
//! [`BatchExecutor`](delorean_bench::BatchExecutor).
//!
//! # Architecture
//!
//! ```text
//! clients ──submit──▶ ┌────────┐ ──lease──▶ ┌────────┐
//!                     │ broker │            │ worker │ (process/thread,
//!                     │        │ ◀─report── │        │  stdio / socket /
//!   journal ◀─append─ └────────┘            └────────┘  pipe transport)
//! ```
//!
//! * [`SweepSpec`] names a job (scale, seeds, workload and strategy
//!   names, plan) — both sides rebuild identical state from it.
//! * [`wire`] frames messages with the journal's own entry header
//!   (`len`/`kind`/`checksum`/`payload`), so transport damage is a
//!   typed error with the same recovery story as on-disk torn tails.
//!   Payloads are written with
//!   [`delorean_bench::journal`]'s codec, the one the cell journal uses.
//! * [`Broker`] leases cells (or region *spans* where a strategy
//!   decomposes — see
//!   [`SamplingStrategy::run_unit_span`](delorean_sampling::SamplingStrategy::run_unit_span)),
//!   checks each result against its lease, journals completions through
//!   the in-process executor's
//!   [`CellJournal`](delorean_bench::journal::CellJournal), re-leases
//!   on worker death or deadline expiry, and resumes from a journal
//!   after its own restart.
//! * [`worker_loop`] executes leases statelessly; injected faults are
//!   resolved **purely** per `(cell, attempt)` so the quarantined set
//!   is identical for any worker count or scheduling.
//!
//! The determinism contract is the workspace's: scheduling — including
//! distribution — is never semantics. `tests/shard_determinism.rs`
//! pins shard matrices against the in-process executor bit for bit
//! across worker counts, kills, and broker restarts.

#![warn(missing_docs)]

pub mod spec;
pub mod wire;

mod broker;
mod worker;

pub use broker::{Broker, BrokerConfig, JobRequest, JobTicket, ShardRun};
pub use spec::{build_strategy, SweepSpec, STRATEGY_NAMES};
pub use worker::{worker_loop, WorkerOptions, WorkerSummary};

use std::fmt;

/// What went wrong running a shard job.
#[derive(Debug)]
pub enum ShardError {
    /// The wire transport failed.
    Wire(wire::WireError),
    /// The job's journal could not be created or resumed.
    Journal(delorean_trace::JournalError),
    /// The sweep spec is malformed or names unknown components.
    Spec(String),
    /// The broker shut down before the job finished.
    BrokerClosed,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Wire(e) => write!(f, "wire error: {e}"),
            ShardError::Journal(e) => write!(f, "journal error: {e}"),
            ShardError::Spec(detail) => write!(f, "bad sweep spec: {detail}"),
            ShardError::BrokerClosed => write!(f, "broker closed before the job finished"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Wire(e) => Some(e),
            ShardError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for ShardError {
    fn from(e: wire::WireError) -> Self {
        ShardError::Wire(e)
    }
}

impl From<delorean_trace::JournalError> for ShardError {
    fn from(e: delorean_trace::JournalError) -> Self {
        ShardError::Journal(e)
    }
}
