//! The traced access source: a bench-owned [`Workload`] wrapper that
//! delegates every call to the real input and counts what the layers
//! above ask of it.
//!
//! It records the `trace` layer's per-layer metrics from outside the
//! crate: `access_at` calls (random probes), accesses produced by
//! [`AccessCursor::fill`], and host time spent inside `fill` (tile
//! decode for tiled inputs, pattern generation for synthetic ones). The
//! wrapper changes no access, so a traced pass must reproduce the
//! untraced reports bit for bit; the benchmark checks that.

use crate::clock;
use delorean_trace::{AccessCursor, BranchModel, MemAccess, Workload};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters shared by every traced wrapper of one pass.
#[derive(Debug, Default)]
pub struct TraceCounters {
    access_at_calls: AtomicU64,
    filled: AtomicU64,
    fill_ns: AtomicU64,
}

/// A snapshot of [`TraceCounters`].
#[derive(Copy, Clone, Debug, Default)]
pub struct TraceTotals {
    /// `Workload::access_at` calls.
    pub access_at_calls: u64,
    /// Accesses produced by cursor `fill` calls.
    pub accesses: u64,
    /// Host seconds spent inside `fill`, summed over threads.
    pub fill_s: f64,
}

impl TraceCounters {
    /// Read the counters.
    pub fn totals(&self) -> TraceTotals {
        TraceTotals {
            // Relaxed: plain statistics that publish no other data; the
            // pass has joined every worker thread before they are read.
            access_at_calls: self.access_at_calls.load(Ordering::Relaxed),
            accesses: self.filled.load(Ordering::Relaxed),
            fill_s: self.fill_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// A workload that forwards to `inner` and counts into `counters`.
pub struct Traced<'a> {
    inner: &'a dyn Workload,
    counters: &'a TraceCounters,
}

impl<'a> Traced<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn Workload, counters: &'a TraceCounters) -> Self {
        Traced { inner, counters }
    }
}

impl Workload for Traced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn mem_period(&self) -> u64 {
        self.inner.mem_period()
    }

    fn access_at(&self, k: u64) -> MemAccess {
        self.counters
            .access_at_calls
            .fetch_add(1, Ordering::Relaxed);
        self.inner.access_at(k)
    }

    fn branch_model(&self) -> BranchModel {
        self.inner.branch_model()
    }

    fn accesses_in_instrs(&self, instrs: u64) -> u64 {
        self.inner.accesses_in_instrs(instrs)
    }

    fn access_index_at_instr(&self, instr: u64) -> u64 {
        self.inner.access_index_at_instr(instr)
    }

    fn instr_of_access(&self, k: u64) -> u64 {
        self.inner.instr_of_access(k)
    }

    fn cursor<'c>(&'c self, range: Range<u64>) -> Box<dyn AccessCursor + 'c> {
        Box::new(TimedCursor {
            inner: self.inner.cursor(range),
            counters: self.counters,
        })
    }
}

/// A cursor that times each `fill` of the wrapped cursor.
struct TimedCursor<'c> {
    inner: Box<dyn AccessCursor + 'c>,
    counters: &'c TraceCounters,
}

impl AccessCursor for TimedCursor<'_> {
    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn end(&self) -> u64 {
        self.inner.end()
    }

    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
        let start = clock::now();
        let n = self.inner.fill(out, max);
        let ns = start.elapsed().as_nanos();
        self.counters
            .fill_ns
            .fetch_add(u64::try_from(ns).unwrap_or(u64::MAX), Ordering::Relaxed);
        self.counters.filled.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }
}
