//! Recorded traces: run *captured* access streams through the
//! methodology.
//!
//! The synthetic suite stands in for SPEC, but the methodology itself
//! only needs position addressability — which a materialized trace
//! trivially has. [`RecordedTrace`] wraps a vector of `(pc, addr, kind)`
//! records (e.g. parsed from a Pin/Valgrind/DynamoRIO log) as a
//! [`Workload`], extending it cyclically so region plans of any length
//! remain valid.
//!
//! ```
//! use delorean_trace::{AccessKind, Addr, Pc, RecordedTrace, Workload};
//!
//! let trace = RecordedTrace::builder("captured", 3)
//!     .push(Pc(0x400), Addr(0x1000), AccessKind::Load)
//!     .push(Pc(0x404), Addr(0x1040), AccessKind::Store)
//!     .build()
//!     .unwrap();
//! assert_eq!(trace.access_at(0).addr, Addr(0x1000));
//! assert_eq!(trace.access_at(2).addr, Addr(0x1000)); // cyclic extension
//! ```

use crate::branch::BranchModel;
use crate::cursor::AccessCursor;
use crate::types::{AccessKind, Addr, LineAddr, MemAccess, Pc};
use crate::Workload;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One recorded access (without position — that is implied by order).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedAccess {
    /// Issuing instruction.
    pub pc: Pc,
    /// Byte address.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
}

/// A materialized access trace exposed as a [`Workload`].
///
/// The trace repeats cyclically past its recorded length, so sampling
/// plans longer than the capture still work (document the wrap in your
/// experiment if it matters).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecordedTrace {
    name: String,
    mem_period: u64,
    branch: BranchModel,
    accesses: Vec<RecordedAccess>,
}

/// Builder for [`RecordedTrace`].
#[derive(Clone, Debug)]
pub struct RecordedTraceBuilder {
    name: String,
    mem_period: u64,
    branch: Option<BranchModel>,
    accesses: Vec<RecordedAccess>,
}

impl RecordedTrace {
    /// Start building a trace with a name and instructions-per-access.
    pub fn builder(name: impl Into<String>, mem_period: u64) -> RecordedTraceBuilder {
        RecordedTraceBuilder {
            name: name.into(),
            mem_period,
            branch: None,
            accesses: Vec::new(),
        }
    }

    /// Capture a slice of another workload as a materialized trace
    /// (useful for regression-pinning an execution or for tests).
    pub fn capture(workload: &dyn Workload, accesses: std::ops::Range<u64>) -> RecordedTrace {
        let mut b = Self::builder(
            format!("{}@recorded", workload.name()),
            workload.mem_period(),
        );
        b.branch = Some(workload.branch_model());
        for k in accesses {
            let a = workload.access_at(k);
            b = b.push(a.pc, a.addr, a.kind);
        }
        // lint:allow(no-unwrap): callers capture validated non-empty ranges, so the builder always has records
        b.build().expect("captured range is non-empty")
    }

    /// Number of recorded accesses before the cyclic extension.
    pub fn recorded_len(&self) -> u64 {
        self.accesses.len() as u64
    }
}

impl RecordedTraceBuilder {
    /// Append one access.
    pub fn push(mut self, pc: Pc, addr: Addr, kind: AccessKind) -> Self {
        self.accesses.push(RecordedAccess { pc, addr, kind });
        self
    }

    /// Append many accesses.
    pub fn extend<I: IntoIterator<Item = RecordedAccess>>(mut self, iter: I) -> Self {
        self.accesses.extend(iter);
        self
    }

    /// Override the branch model (default: [`BranchModel::new`] seeded
    /// from the trace length).
    pub fn branch_model(mut self, model: BranchModel) -> Self {
        self.branch = Some(model);
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty trace or a zero `mem_period`.
    pub fn build(self) -> Result<RecordedTrace, String> {
        if self.accesses.is_empty() {
            return Err("recorded trace must contain at least one access".into());
        }
        if self.mem_period == 0 {
            return Err("mem_period must be ≥ 1".into());
        }
        let branch = self
            .branch
            .unwrap_or_else(|| BranchModel::new(self.accesses.len() as u64));
        Ok(RecordedTrace {
            name: self.name,
            mem_period: self.mem_period,
            branch,
            accesses: self.accesses,
        })
    }
}

impl Workload for RecordedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn mem_period(&self) -> u64 {
        self.mem_period
    }

    fn branch_model(&self) -> BranchModel {
        self.branch
    }

    #[inline]
    fn access_at(&self, k: u64) -> MemAccess {
        let r = &self.accesses[crate::cast::idx(k % self.accesses.len() as u64)];
        MemAccess {
            index: k,
            icount: k * self.mem_period,
            pc: r.pc,
            addr: r.addr,
            kind: r.kind,
        }
    }

    fn cursor<'a>(&'a self, range: Range<u64>) -> Box<dyn AccessCursor + 'a> {
        Box::new(RecordedCursor::new(self, range))
    }
}

/// Streaming cursor over a [`RecordedTrace`]: replays the backing slice
/// directly, advancing one in-bounds offset instead of taking a modulo
/// per access, and wrapping at the recorded length for the cyclic
/// extension.
#[derive(Debug)]
pub struct RecordedCursor<'w> {
    trace: &'w RecordedTrace,
    next: u64,
    end: u64,
    /// `next % recorded_len`, maintained incrementally.
    offset: usize,
}

impl<'w> RecordedCursor<'w> {
    /// A cursor over `trace` accesses with `index ∈ range`.
    pub fn new(trace: &'w RecordedTrace, range: Range<u64>) -> Self {
        RecordedCursor {
            trace,
            next: range.start,
            end: range.end.max(range.start),
            offset: crate::cast::idx(range.start % trace.accesses.len() as u64),
        }
    }
}

impl RecordedCursor<'_> {
    /// The replay loop shared by both outputs: pushes `emit(k, record)`
    /// for each access, wrapping at the recorded length.
    #[inline(always)]
    fn replay<T>(
        &mut self,
        out: &mut Vec<T>,
        max: usize,
        emit: impl Fn(u64, &RecordedAccess) -> T,
    ) -> usize {
        out.clear();
        let records = &self.trace.accesses;
        let n = (self.end - self.next).min(max as u64) as usize;
        out.reserve(n);
        for _ in 0..n {
            out.push(emit(self.next, &records[self.offset]));
            self.next += 1;
            self.offset += 1;
            if self.offset == records.len() {
                self.offset = 0;
            }
        }
        n
    }
}

impl AccessCursor for RecordedCursor<'_> {
    fn position(&self) -> u64 {
        self.next
    }

    fn end(&self) -> u64 {
        self.end
    }

    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
        let p = self.trace.mem_period;
        self.replay(out, max, |k, r| MemAccess {
            index: k,
            icount: k * p,
            pc: r.pc,
            addr: r.addr,
            kind: r.kind,
        })
    }

    fn fill_lines(&mut self, out: &mut Vec<LineAddr>, max: usize) -> usize {
        self.replay(out, max, |_, r| r.addr.line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec_workload, Scale, WorkloadExt};

    #[test]
    fn builder_and_cyclic_extension() {
        let t = RecordedTrace::builder("t", 2)
            .push(Pc(1), Addr(64), AccessKind::Load)
            .push(Pc(2), Addr(128), AccessKind::Store)
            .push(Pc(3), Addr(192), AccessKind::Load)
            .build()
            .unwrap();
        assert_eq!(t.recorded_len(), 3);
        assert_eq!(t.access_at(0).addr, Addr(64));
        assert_eq!(t.access_at(4).addr, Addr(128)); // wrapped
        assert_eq!(t.access_at(4).index, 4); // but position is global
        assert_eq!(t.access_at(4).icount, 8);
    }

    #[test]
    fn empty_and_degenerate_traces_rejected() {
        assert!(RecordedTrace::builder("t", 3).build().is_err());
        assert!(RecordedTrace::builder("t", 0)
            .push(Pc(1), Addr(0), AccessKind::Load)
            .build()
            .is_err());
    }

    #[test]
    fn capture_reproduces_the_source_exactly() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let t = RecordedTrace::capture(&w, 1_000..2_000);
        assert_eq!(t.recorded_len(), 1_000);
        for (i, orig) in w.iter_range(1_000..2_000).enumerate() {
            let rec = t.access_at(i as u64);
            assert_eq!(rec.pc, orig.pc);
            assert_eq!(rec.addr, orig.addr);
            assert_eq!(rec.kind, orig.kind);
        }
        assert_eq!(t.mem_period(), w.mem_period());
    }

    #[test]
    fn cursor_matches_access_at_across_the_cyclic_wrap() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let t = RecordedTrace::capture(&w, 0..137);
        let len = t.recorded_len();
        for range in [0..len, len - 10..3 * len + 10, 5..5] {
            let mut cur = RecordedCursor::new(&t, range.clone());
            let mut buf = Vec::new();
            let mut k = range.start;
            while cur.fill(&mut buf, 11) > 0 {
                for a in &buf {
                    assert_eq!(*a, t.access_at(k), "index {k}");
                    k += 1;
                }
            }
            assert_eq!(k, range.end.max(range.start));
        }
    }

    #[test]
    fn extend_appends_in_order() {
        let records: Vec<RecordedAccess> = (0..5)
            .map(|i| RecordedAccess {
                pc: Pc(i),
                addr: Addr(i * 64),
                kind: AccessKind::Load,
            })
            .collect();
        let t = RecordedTrace::builder("t", 1)
            .extend(records.clone())
            .build()
            .unwrap();
        for (i, r) in records.iter().enumerate() {
            assert_eq!(t.access_at(i as u64).addr, r.addr);
        }
    }
}
