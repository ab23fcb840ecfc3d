//! Deterministic, position-addressable synthetic memory-access workloads.
//!
//! This crate is the trace substrate of the DeLorean reproduction. The paper
//! ("Directed Statistical Warming through Time Traveling", MICRO-52 2019)
//! runs real SPEC CPU2006 binaries inside gem5/KVM; neither is available
//! here, so this crate provides the closest synthetic equivalent: a suite of
//! 24 workload generators whose *reuse-distance structure* spans the same
//! qualitative space the paper reports per benchmark (tiny hot working sets
//! with short reuses, giant footprints with very long reuses, strided
//! outliers that cause conflict misses, single-phase anomalies, ...).
//!
//! The one property everything else in the repository depends on is
//! **position addressability**: a [`Workload`] can produce the `k`-th memory
//! access in `O(1)` without generating the `k-1` accesses before it. That is
//! what lets the time-traveling passes of DeLorean jump forward (the Scout
//! fast-forwards to a detailed region) and backward (the Explorers profile
//! windows *before* the region) over the same, perfectly reproducible
//! execution — playing the role that hardware virtualization (KVM) plays in
//! the paper.
//!
//! # Three access paths
//!
//! Consumers reach a workload's accesses through one of three paths:
//!
//! * **Random access** — [`Workload::access_at`]: stateless `O(1)`
//!   regeneration of any single index. Used by DSW key probes, the
//!   detailed-simulation loop, and tests.
//! * **Streaming** — [`Workload::cursor`] / [`AccessCursor`]: batched
//!   sequential generation that hoists per-range work (phase lookup,
//!   permutation setup) out of the loop and advances stream-local state
//!   incrementally. Every warm loop (functional warming, watchpoint
//!   scans, profiling windows) runs on this path. Loops that need PCs
//!   take full records ([`AccessCursor::fill`], via
//!   [`WorkloadExt::for_each_access`] or [`WorkloadExt::iter_range`]);
//!   scans that ask only which cacheline each access touches take
//!   lines ([`AccessCursor::fill_lines`], via
//!   [`WorkloadExt::for_each_line`]), which skips generating the rest.
//! * **Tiled ingest** — [`TiledTrace`] over an on-disk [`tile`] file:
//!   a memory-mapped binary trace whose fixed-size tiles decode
//!   straight into [`MemAccess`] batches, so warm-loop `fill` calls
//!   become plain `memcpy`s. This is the production ingest path and
//!   the only materialized trace: captured accesses are written with
//!   [`TileFileWriter::push`] or [`pack_workload`]. See the [`tile`]
//!   module docs for the format.
//!
//! Both paths are pinned byte-identical by property tests; custom
//! [`Workload`] implementors get a correct (indexed) cursor for free and
//! should override [`Workload::cursor`] only when sequential generation
//! can share work between neighbouring indices — see the [`cursor`
//! module](AccessCursor) docs for guidance.
//!
//! The crate also hosts the **flat lookup substrate** shared by every
//! per-access hot loop: open-addressing [`FlatMap`]/[`FlatSet`] (aliases
//! [`LineMap`], [`LineSet`], [`PageMap`], [`PcMap`]) and the
//! [`InterestFilter`] counting-bitmap prefilter — see the collection
//! types' docs for the probing and fusion rules.
//!
//! # Quick example
//!
//! ```
//! use delorean_trace::{spec2006, Scale, Workload};
//!
//! let suite = spec2006(Scale::tiny(), 42);
//! let lbm = suite.iter().find(|w| w.name() == "lbm").unwrap();
//! let a = lbm.access_at(1_000);
//! let b = lbm.access_at(1_000);
//! assert_eq!(a, b); // deterministic: same index, same access
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch;
pub mod cast;
mod collections;
mod cursor;
pub mod fault;
mod iter;
pub mod journal;
mod pattern;
mod phased;
mod rng;
mod scale;
mod spec;
pub mod tile;
mod types;

pub use branch::{BranchEvent, BranchModel};
pub use collections::{
    FlatKey, FlatMap, FlatSet, InterestFilter, LineMap, LineSet, PageMap, PageSet, PcMap,
};
pub use cursor::{AccessCursor, IndexedCursor, CURSOR_BATCH};
pub use fault::{
    FaultKind, FaultPlan, FaultPolicy, FaultSite, InjectedFault, UnitFailure, UnitFault,
};
pub use iter::AccessIter;
pub use journal::{JournalEntry, JournalError, JournalReader, JournalWriter};
pub use pattern::{Pattern, PatternCursor};
pub use phased::{PhaseSpec, PhasedCursor, PhasedWorkload, PhasedWorkloadBuilder, StreamSpec};
pub use rng::{mix64, CounterRng};
pub use scale::Scale;
pub use spec::{spec2006, spec_workload, SPEC2006_NAMES};
pub use tile::{
    pack_workload, pack_workload_with, PackSummary, TileError, TileFile, TileFileWriter,
    TiledCursor, TiledTrace,
};
pub use types::{Addr, LineAddr, MemAccess, PageAddr, Pc, LINE_BYTES, PAGE_BYTES};

use std::fmt;
use std::ops::Range;

/// A deterministic, position-addressable stream of memory accesses.
///
/// Implementations must be pure functions of the access index: calling
/// [`Workload::access_at`] twice with the same index must return identical
/// [`MemAccess`] records. This is the contract that makes the DeLorean
/// passes (Scout, Explorers, Analyst) observe a single consistent execution
/// even though they visit it out of order.
///
/// Instructions and memory accesses are related by a fixed
/// [`mem_period`](Workload::mem_period): one access is issued every
/// `mem_period` instructions, so the access with index `k` retires at
/// instruction `k * mem_period`.
pub trait Workload: Send + Sync {
    /// Human-readable workload name (e.g. `"lbm"`).
    fn name(&self) -> &str;

    /// Instructions per memory access (≥ 1). A value of 3 means one out of
    /// every three instructions is a load or store, roughly the SPEC mix.
    fn mem_period(&self) -> u64;

    /// The `k`-th memory access of the execution.
    fn access_at(&self, k: u64) -> MemAccess;

    /// The branch behaviour of this workload, consumed by the CPU timing
    /// model and branch predictor.
    fn branch_model(&self) -> BranchModel;

    /// Number of memory accesses contained in `instrs` instructions.
    fn accesses_in_instrs(&self, instrs: u64) -> u64 {
        instrs / self.mem_period().max(1)
    }

    /// Index of the first access retiring at or after instruction `instr`.
    fn access_index_at_instr(&self, instr: u64) -> u64 {
        instr.div_ceil(self.mem_period().max(1))
    }

    /// Instruction count at which access `k` retires.
    fn instr_of_access(&self, k: u64) -> u64 {
        k * self.mem_period()
    }

    /// A streaming cursor over the accesses with indices in `range` —
    /// the sequential counterpart to [`access_at`](Workload::access_at).
    ///
    /// The default implementation is the [`IndexedCursor`] fallback
    /// (correct for every workload, no faster than `access_at`).
    /// Implementations should override this whenever neighbouring
    /// indices share derivable state — hoisted phase lookups,
    /// incrementally advanced pattern positions — as
    /// [`PhasedWorkload`] and [`TiledTrace`] do.
    ///
    /// The contract is strict: the cursor must yield **byte-identical**
    /// [`MemAccess`] records to `access_at(k)` for every `k` in `range`
    /// (pinned by the equivalence property tests in
    /// `tests/properties.rs`).
    fn cursor<'a>(&'a self, range: Range<u64>) -> Box<dyn AccessCursor + 'a> {
        Box::new(IndexedCursor::new(self, range))
    }
}

impl<W: Workload + ?Sized> Workload for &W {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn mem_period(&self) -> u64 {
        (**self).mem_period()
    }

    fn access_at(&self, k: u64) -> MemAccess {
        (**self).access_at(k)
    }

    fn branch_model(&self) -> BranchModel {
        (**self).branch_model()
    }

    fn accesses_in_instrs(&self, instrs: u64) -> u64 {
        (**self).accesses_in_instrs(instrs)
    }

    fn access_index_at_instr(&self, instr: u64) -> u64 {
        (**self).access_index_at_instr(instr)
    }

    fn instr_of_access(&self, k: u64) -> u64 {
        (**self).instr_of_access(k)
    }

    fn cursor<'a>(&'a self, range: Range<u64>) -> Box<dyn AccessCursor + 'a> {
        (**self).cursor(range)
    }
}

impl fmt::Debug for dyn Workload + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name())
            .field("mem_period", &self.mem_period())
            .finish()
    }
}

/// Extension helpers available on every [`Workload`], including trait
/// objects.
pub trait WorkloadExt: Workload {
    /// Iterate over the accesses with indices in `range`.
    ///
    /// ```
    /// use delorean_trace::{spec_workload, Scale, WorkloadExt};
    ///
    /// let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
    /// let n = w.iter_range(0..100).count();
    /// assert_eq!(n, 100);
    /// ```
    fn iter_range(&self, range: Range<u64>) -> AccessIter<'_, Self> {
        AccessIter::new(self, range)
    }

    /// Visit every access with index in `range`, in order, through the
    /// workload's streaming cursor in batches of [`CURSOR_BATCH`].
    ///
    /// This is the preferred form for sequential hot loops (functional
    /// warming, watchpoint scans, profiling windows): one virtual call
    /// per batch instead of one per access, and none of the `Option`
    /// plumbing of an iterator.
    ///
    /// ```
    /// use delorean_trace::{spec_workload, Scale, WorkloadExt};
    ///
    /// let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
    /// let mut n = 0u64;
    /// w.for_each_access(0..100, |a| n += a.index);
    /// assert_eq!(n, (0..100).sum());
    /// ```
    fn for_each_access<F: FnMut(&MemAccess)>(&self, range: Range<u64>, mut f: F) {
        let mut cursor = self.cursor(range);
        let mut buf = Vec::with_capacity(CURSOR_BATCH);
        while cursor.fill(&mut buf, CURSOR_BATCH) > 0 {
            for a in &buf {
                f(a);
            }
        }
    }

    /// Visit the `(index, line)` of every access with index in `range`,
    /// in order, through [`AccessCursor::fill_lines`] in batches of
    /// [`CURSOR_BATCH`].
    ///
    /// The form for scans that never read a PC
    /// (Explorer windows, the Scout's lukewarm replica, reuse-latency
    /// profiles): cursors that can skip generating the rest of the
    /// record do.
    ///
    /// ```
    /// use delorean_trace::{spec_workload, Scale, Workload, WorkloadExt};
    ///
    /// let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
    /// w.for_each_line(0..100, |k, line| assert_eq!(line, w.access_at(k).line()));
    /// ```
    fn for_each_line<F: FnMut(u64, LineAddr)>(&self, range: Range<u64>, mut f: F) {
        let mut cursor = self.cursor(range);
        let mut buf = Vec::with_capacity(CURSOR_BATCH);
        let mut k = cursor.position();
        while cursor.fill_lines(&mut buf, CURSOR_BATCH) > 0 {
            for &line in &buf {
                f(k, line);
                k += 1;
            }
        }
    }
}

impl<W: Workload + ?Sized> WorkloadExt for W {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let w = spec_workload("mcf", Scale::tiny(), 7).unwrap();
        let dynw: &dyn Workload = &w;
        assert_eq!(dynw.name(), "mcf");
        assert!(dynw.mem_period() >= 1);
        let _ = dynw.iter_range(0..4).count();
    }

    #[test]
    fn instr_access_round_trip() {
        let w = spec_workload("hmmer", Scale::tiny(), 7).unwrap();
        let p = w.mem_period();
        assert_eq!(w.access_index_at_instr(0), 0);
        assert_eq!(w.access_index_at_instr(p), 1);
        assert_eq!(w.access_index_at_instr(p + 1), 2);
        assert_eq!(w.instr_of_access(5), 5 * p);
        assert_eq!(w.accesses_in_instrs(10 * p), 10);
    }
}
