//! The Table 1 data-side cache hierarchy: L1-D, unified LLC, L1-D MSHRs,
//! and an optional LLC stride prefetcher. (Table 1's L1-I is not
//! simulated: the traces carry data accesses only.)
//!
//! # The two access paths
//!
//! * **Per-access** — [`Hierarchy::access_data`]: one line at a time,
//!   returns the serving [`MemLevel`]. This is the right path for random
//!   probes and for detailed simulation, where the outcome of each access
//!   feeds the timing model before the next one is issued.
//! * **Batched warm** — [`Hierarchy::warm_slice`] /
//!   [`Hierarchy::warm_range`]: consume cursor-filled slices of accesses
//!   in one call. Functional warming does not need per-access outcomes
//!   (only the resulting cache state and the level counters), so the warm
//!   loops of SMARTS, checkpointed warming and MRRL feed whole batches
//!   straight from [`AccessCursor::fill`](delorean_trace::AccessCursor)
//!   with no per-access closure or virtual dispatch in between.
//!
//! Both paths run the **same** access core, so they are bit-identical in
//! cache state, MSHR state and statistics — pinned by the
//! `batched_equivalence` property tests.
//!
//! # The access core's instantiations
//!
//! The core is compiled per pair of set widths. At nonzero widths,
//! `access_core::<L1W, LLW>` runs every L1-D lookup, LLC access, fill
//! and LRU victim scan over fixed-width `[u64; W]` sets, with no
//! per-access width dispatch and no run-time-length loop. Two
//! instantiations exist: `(2, 8)`,
//! Table 1's 2-way L1-D over an 8-way LLC, which every scaled Table 1
//! machine builds at every scale and LLC size; and `(0, 0)`, which reads
//! each level's width from its configuration and serves every other
//! geometry. [`Hierarchy::warm_slice`] picks one per batch and
//! [`Hierarchy::access_data`] per call, from the hierarchy's own
//! geometry. The instantiations run the same operations in the same
//! order, so they agree bit-for-bit (`instantiations_agree`).

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::StridePrefetcher;
use crate::stats::HierarchyStats;
use delorean_trace::{LineAddr, MemAccess, Pc, Workload, CURSOR_BATCH};
use std::ops::Range;

/// The level that served a data access.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// L1-D hit.
    L1,
    /// Merged into an outstanding miss (MSHR / delayed hit).
    Mshr,
    /// LLC hit.
    Llc,
    /// Served by main memory.
    Memory,
}

/// A two-level cache hierarchy with MSHR-mediated L1 fills.
///
/// L1-D fills are deferred behind the MSHR file: a miss allocates an MSHR
/// entry, the LLC (and memory) are accessed immediately, and the L1 line
/// becomes visible once the entry retires. Accesses to in-flight lines are
/// reported as [`MemLevel::Mshr`] — the delayed hits of the paper.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1d: Cache,
    llc: Cache,
    mshr_d: MshrFile,
    prefetcher: Option<StridePrefetcher>,
    stats: HierarchyStats,
    /// Reusable scratch for MSHR retirements: the deferred L1 fills of an
    /// access are collected here instead of a fresh `Vec` per access.
    retired: Vec<LineAddr>,
}

impl Hierarchy {
    /// Build the hierarchy for a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: &MachineConfig) -> Self {
        // lint:allow(no-unwrap): documented # Panics contract — construction fails fast on an invalid hierarchy
        cfg.hierarchy.validate().expect("invalid hierarchy config");
        Hierarchy {
            l1d: Cache::new(cfg.hierarchy.l1d),
            llc: Cache::new(cfg.hierarchy.llc),
            mshr_d: MshrFile::new(cfg.hierarchy.l1d_mshrs, cfg.hierarchy.mshr_latency_accesses),
            prefetcher: cfg.prefetch.then(StridePrefetcher::paper_default),
            stats: HierarchyStats::default(),
            retired: Vec::new(),
        }
    }

    /// The access core shared by the per-access and batched paths: both
    /// must agree bit-for-bit, so there is exactly one implementation.
    ///
    /// `L1W` and `LLW` are the L1-D and LLC set widths it is compiled
    /// for; `0` reads a level's width from its configuration. Every
    /// instantiation runs the same operations in the same order, so they
    /// differ only in speed.
    #[inline(always)]
    fn access_core<const L1W: usize, const LLW: usize>(
        &mut self,
        pc: Pc,
        line: LineAddr,
        now: u64,
    ) -> MemLevel {
        // Complete any fills whose latency has elapsed. `has_ready` is a
        // single compare, so the common nothing-to-retire case skips the
        // MSHR file entirely.
        if self.mshr_d.has_ready(now) {
            self.retired.clear();
            self.mshr_d.retire_into(now, &mut self.retired);
            for &done in &self.retired {
                self.l1d.fill_w::<L1W>(done);
            }
        }
        if self.l1d.lookup_w::<L1W>(line) {
            self.stats.l1d_hits += 1;
            return MemLevel::L1;
        }
        match self.mshr_d.on_miss(line, now) {
            MshrOutcome::DelayedHit => {
                self.stats.mshr_hits += 1;
                MemLevel::Mshr
            }
            MshrOutcome::Allocated | MshrOutcome::Full => {
                if self.llc.access_w::<LLW>(line).is_hit() {
                    self.stats.llc_hits += 1;
                    MemLevel::Llc
                } else {
                    self.stats.memory += 1;
                    self.train_prefetcher::<LLW>(pc, line);
                    MemLevel::Memory
                }
            }
        }
    }

    /// `true` if this hierarchy has Table 1's set widths, a 2-way L1-D
    /// over an 8-way LLC — the pair every scaled Table 1 machine builds,
    /// whatever its scale or LLC size, and the one instantiation of the
    /// access core compiled for fixed widths.
    #[inline]
    fn table1_widths(&self) -> bool {
        (self.l1d.config().ways, self.llc.config().ways) == (2, 8)
    }

    /// Issue a data access at access-time `now`; returns the serving level.
    ///
    /// This is the per-access path — random probes and detailed
    /// simulation, where each outcome feeds the timing model. Sequential
    /// warm loops should use [`Hierarchy::warm_slice`] or
    /// [`Hierarchy::warm_range`] instead.
    pub fn access_data(&mut self, pc: Pc, line: LineAddr, now: u64) -> MemLevel {
        if self.table1_widths() {
            self.access_core::<2, 8>(pc, line, now)
        } else {
            self.access_core::<0, 0>(pc, line, now)
        }
    }

    /// Warm the hierarchy with a batch of consecutive accesses, using each
    /// access's stream `index` as its access time — exactly what every
    /// functional warm loop does per access, minus the per-access closure.
    ///
    /// Bit-identical to calling [`Hierarchy::access_data`]`(a.pc,
    /// a.line(), a.index)` for each element in order; only the per-access
    /// outcomes are not materialized (warming consumes state and
    /// counters, not levels). The access core's instantiation is chosen
    /// once for the whole batch.
    pub fn warm_slice(&mut self, batch: &[MemAccess]) {
        if self.table1_widths() {
            self.warm_slice_at::<2, 8>(batch);
        } else {
            self.warm_slice_at::<0, 0>(batch);
        }
    }

    /// [`Hierarchy::warm_slice`] through one instantiation of the access
    /// core.
    fn warm_slice_at<const L1W: usize, const LLW: usize>(&mut self, batch: &[MemAccess]) {
        for a in batch {
            self.access_core::<L1W, LLW>(a.pc, a.addr.line(), a.index);
        }
    }

    /// Warm the hierarchy with the workload accesses in `accesses`,
    /// streaming cursor-filled batches through [`Hierarchy::warm_slice`].
    ///
    /// This is the whole SMARTS / checkpoint-preparation / MRRL warm loop
    /// in one call: cursor → slice → hierarchy, no per-access dispatch.
    /// The batch is kept smaller than the generic [`CURSOR_BATCH`]: the
    /// access buffer competes with the simulated tag arrays for the host
    /// L1, and the warm loop re-reads both every iteration.
    ///
    /// ```
    /// use delorean_cache::{Hierarchy, MachineConfig};
    /// use delorean_trace::{spec_workload, Scale};
    ///
    /// let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
    /// let mut h = Hierarchy::new(&MachineConfig::for_scale(Scale::tiny()));
    /// h.warm_range(&w, 0..10_000);
    /// let stats = h.stats();
    /// assert_eq!(stats.data_accesses(), 10_000);
    /// // A warmed hot-set workload hits mostly in the L1.
    /// assert!(stats.l1d_hits > stats.memory);
    /// ```
    pub fn warm_range(&mut self, workload: &dyn Workload, accesses: Range<u64>) {
        const WARM_BATCH: usize = CURSOR_BATCH / 4;
        let mut cursor = workload.cursor(accesses);
        let mut buf = Vec::with_capacity(WARM_BATCH);
        while cursor.fill(&mut buf, WARM_BATCH) > 0 {
            self.warm_slice(&buf);
        }
    }

    /// Feed the prefetcher an LLC miss and apply the resulting fills.
    /// (DeLorean's analyst trains its own `StridePrefetcher` on
    /// *predicted* misses, §6.3.2.)
    fn train_prefetcher<const LLW: usize>(&mut self, pc: Pc, line: LineAddr) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        for l in pf.on_trigger(pc, line) {
            self.stats.prefetches_issued += 1;
            if self.llc.probe(l) {
                // Already resident: nullified to save bandwidth (§6.3.2).
                self.stats.prefetches_nullified += 1;
            } else {
                self.llc.fill_w::<LLW>(l);
            }
        }
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified last-level cache.
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Mutable access to the LLC.
    pub fn llc_mut(&mut self) -> &mut Cache {
        &mut self.llc
    }

    /// Hierarchy-level statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Zero the statistics, keeping all cache state.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1d.reset_stats();
        self.llc.reset_stats();
    }

    /// A copy of the **complete** hierarchy state — caches, in-flight
    /// MSHRs, prefetcher streams, statistics. This is `clone()`: no
    /// library code calls it, and it is kept only for simbench's
    /// `cache.fork_us` stage, with which it retires (ROADMAP, direction
    /// 1's lock rewrite).
    pub fn fork(&self) -> Hierarchy {
        self.clone()
    }

    /// Capture the full hierarchy state (both caches) for
    /// checkpointed warming. Outstanding MSHRs are completed first — a
    /// checkpoint is taken at a quiesced boundary.
    pub fn snapshot(&mut self) -> HierarchySnapshot {
        self.drain_mshrs();
        HierarchySnapshot {
            l1d: self.l1d.snapshot(),
            llc: self.llc.snapshot(),
        }
    }

    /// Restore a previously captured hierarchy state.
    ///
    /// # Panics
    ///
    /// Panics if any level's geometry does not match.
    pub fn restore(&mut self, snapshot: &HierarchySnapshot) {
        self.l1d.restore(&snapshot.l1d);
        self.llc.restore(&snapshot.llc);
        self.mshr_d.clear();
    }

    /// A cheap digest of the hierarchy's **behaviorally live** state:
    /// a [`mix64`](delorean_trace::mix64) fold over both caches
    /// (policy-aware, see [`Cache::state_digest`]), the in-flight L1-D
    /// MSHR entries, and the prefetcher streams if enabled.
    ///
    /// This is the commit test of the speculative warm lane: two
    /// hierarchies with equal digests produce identical [`MemLevel`]
    /// sequences, statistics deltas and eviction streams for any
    /// subsequent accesses, so a measurement taken from one is valid for
    /// the other. The digest deliberately canonicalizes away dead bytes
    /// (absolute LRU stamps, way permutations in symmetric policies,
    /// the prefetcher's absolute trigger tick) — that is what lets a
    /// *directed warm-up window replayed from cold* reproduce the live
    /// state of a full sequential warm chain and commit against it.
    ///
    /// Statistics and the MSHR-retirement scratch are not architectural
    /// state and are excluded.
    pub fn state_digest(&self) -> u64 {
        let mut d = self.l1d.state_digest(0x00d1_0c0d_e57a_7e00);
        d = self.llc.state_digest(d);
        d = self.mshr_d.state_digest(d);
        match &self.prefetcher {
            Some(pf) => pf.state_digest(d),
            None => delorean_trace::mix64(d, 0x0ff),
        }
    }

    /// Adopt `other`'s complete state in place, reusing this hierarchy's
    /// allocations (`clone_from` on every tag/stamp array) — the cheap
    /// restore path for code that repeatedly re-seeds a scratch
    /// hierarchy, where `clone()` would allocate fresh arrays
    /// per call. Behaviorally equivalent to `*self = other.clone()`.
    ///
    /// # Panics
    ///
    /// Panics if the two hierarchies were built from different machine
    /// configurations (geometry or MSHR shape).
    pub fn copy_state_from(&mut self, other: &Hierarchy) {
        self.l1d.copy_state_from(&other.l1d);
        self.llc.copy_state_from(&other.llc);
        self.mshr_d.copy_state_from(&other.mshr_d);
        match (&mut self.prefetcher, &other.prefetcher) {
            (Some(mine), Some(theirs)) => mine.copy_state_from(theirs),
            (mine, theirs) => *mine = theirs.clone(),
        }
        self.stats = other.stats;
        self.retired.clear();
    }

    /// Drop outstanding MSHR state (e.g. at region boundaries).
    pub fn drain_mshrs(&mut self) {
        // Complete the fills the entries stood for, then clear.
        self.retired.clear();
        self.mshr_d.retire_into(u64::MAX, &mut self.retired);
        for &done in &self.retired {
            self.l1d.fill(done);
        }
        self.mshr_d.clear();
    }
}

/// A full-hierarchy checkpoint (the paper's Flex-point / Live-point /
/// memory-hierarchy-state family, §7). Compares bit-for-bit — the
/// equivalence oracle of the batched warm path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchySnapshot {
    l1d: crate::cache::CacheSnapshot,
    llc: crate::cache::CacheSnapshot,
}

impl HierarchySnapshot {
    /// Live-points-style storage footprint of the checkpoint.
    pub fn storage_bytes(&self) -> u64 {
        self.l1d.storage_bytes() + self.llc.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_trace::Scale;

    fn machine() -> MachineConfig {
        MachineConfig::for_scale(Scale::tiny())
    }

    #[test]
    fn cold_access_goes_to_memory_then_llc_then_l1() {
        let mut h = Hierarchy::new(&machine());
        let pc = Pc(0x400);
        assert_eq!(h.access_data(pc, LineAddr(5), 0), MemLevel::Memory);
        // In-flight: delayed hit.
        assert_eq!(h.access_data(pc, LineAddr(5), 1), MemLevel::Mshr);
        // After the MSHR latency the L1 fill completed.
        let lat = machine().hierarchy.mshr_latency_accesses;
        assert_eq!(h.access_data(pc, LineAddr(5), lat + 1), MemLevel::L1);
    }

    #[test]
    fn llc_hit_after_l1_eviction() {
        // Explicit geometry: 4 KiB L1-D, 64 KiB LLC (16× larger).
        let cfg = MachineConfig {
            hierarchy: crate::config::HierarchyConfig {
                l1d: crate::CacheConfig::new(4 << 10, 2),
                llc: crate::CacheConfig::new(64 << 10, 8),
                l1d_mshrs: 8,
                mshr_latency_accesses: 4,
            },
            prefetch: false,
        };
        let mut h = Hierarchy::new(&cfg);
        let pc = Pc(0x400);
        let l1_lines = h.l1d().config().lines(); // 64
        h.access_data(pc, LineAddr(7), 0);
        h.drain_mshrs();
        // Thrash the L1 with 4× its capacity in distinct lines (all within
        // the LLC), spaced far apart in time so every fill completes.
        for i in 0..l1_lines * 4 {
            h.access_data(pc, LineAddr(1_000 + i), 10 + i * 10);
        }
        h.drain_mshrs();
        let now = 10 + l1_lines * 40 + 1;
        let level = h.access_data(pc, LineAddr(7), now);
        assert_eq!(level, MemLevel::Llc, "line 7 should have fallen to LLC");
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut h = Hierarchy::new(&machine());
        let pc = Pc(0x400);
        h.access_data(pc, LineAddr(1), 0); // memory
        h.access_data(pc, LineAddr(1), 1); // mshr
        h.drain_mshrs();
        h.access_data(pc, LineAddr(1), 200); // l1
        let s = h.stats();
        assert_eq!(s.memory, 1);
        assert_eq!(s.mshr_hits, 1);
        assert_eq!(s.l1d_hits, 1);
        assert_eq!(s.data_accesses(), 3);
    }

    #[test]
    fn prefetcher_fills_ahead_of_streams() {
        let cfg = machine().with_prefetch(true);
        let mut h = Hierarchy::new(&cfg);
        let pc = Pc(0x777);
        // A long unit-stride miss stream in line space.
        let mut mem_misses = 0;
        for i in 0..64u64 {
            let line = LineAddr(10_000 + i);
            if h.access_data(pc, line, i * 100) == MemLevel::Memory {
                mem_misses += 1;
            }
        }
        assert!(h.stats().prefetches_issued > 0);
        // With degree-2 prefetch, far fewer than 64 memory misses remain.
        assert!(
            mem_misses < 40,
            "prefetcher ineffective: {mem_misses} memory misses"
        );
    }

    #[test]
    fn drain_mshrs_completes_fills() {
        let mut h = Hierarchy::new(&machine());
        h.access_data(Pc(1), LineAddr(9), 0);
        h.drain_mshrs();
        assert_eq!(h.access_data(Pc(1), LineAddr(9), 1), MemLevel::L1);
    }

    #[test]
    fn warm_slice_matches_per_access_calls() {
        use delorean_trace::{mix64, Addr, MemAccess};
        let batch: Vec<MemAccess> = (0..4_000u64)
            .map(|i| MemAccess {
                index: i,
                icount: i * 3,
                pc: Pc(0x400 + (mix64(7, i) % 64) * 4),
                addr: Addr((mix64(11, i) % 4096) * 64),
            })
            .collect();
        let mut per_access = Hierarchy::new(&machine());
        let mut batched = Hierarchy::new(&machine());
        for a in &batch {
            per_access.access_data(a.pc, a.line(), a.index);
        }
        for chunk in batch.chunks(17) {
            batched.warm_slice(chunk);
        }
        assert_eq!(per_access.stats(), batched.stats());
        assert_eq!(per_access.snapshot(), batched.snapshot());
    }

    #[test]
    fn warm_slice_survives_reset_stats() {
        use delorean_trace::{spec_workload, WorkloadExt};
        let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
        let mut h = Hierarchy::new(&machine());
        h.warm_range(&w, 0..5_000);
        // Zeroing the counters mid-run keeps all cache state: the
        // batched run still matches the per-access oracle.
        h.reset_stats();
        h.warm_range(&w, 5_000..10_000);
        let mut oracle = Hierarchy::new(&machine());
        w.for_each_access(0..5_000, |a| {
            oracle.access_data(a.pc, a.line(), a.index);
        });
        oracle.reset_stats();
        w.for_each_access(5_000..10_000, |a| {
            oracle.access_data(a.pc, a.line(), a.index);
        });
        assert_eq!(h.stats(), oracle.stats());
        assert_eq!(h.snapshot(), oracle.snapshot());
    }

    #[test]
    fn state_digest_tracks_behavioural_state() {
        use delorean_trace::spec_workload;
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let mut a = Hierarchy::new(&machine());
        let mut b = Hierarchy::new(&machine());
        assert_eq!(a.state_digest(), b.state_digest(), "cold == cold");
        a.warm_range(&w, 0..4_000);
        b.warm_range(&w, 0..4_000);
        assert_eq!(a.state_digest(), b.state_digest(), "same history");
        assert_ne!(
            a.state_digest(),
            Hierarchy::new(&machine()).state_digest(),
            "warm != cold"
        );
        // A single access can be behaviourally invisible (a hit on the
        // MRU line of its set), so diverge by a span, not one access.
        b.warm_range(&w, 4_000..4_256);
        assert_ne!(a.state_digest(), b.state_digest(), "histories diverged");
        // Statistics are not architectural state: resetting them leaves
        // the digest alone.
        let d = a.state_digest();
        a.reset_stats();
        assert_eq!(a.state_digest(), d);
    }

    #[test]
    fn directed_window_reproduces_the_warm_chain_digest() {
        // The speculative warm lane's entire premise, at hierarchy level:
        // for an LRU machine, the live state at access position B is a
        // function of a bounded window of recent history, so warming
        // [B-L, B) from *cold* converges to the same live-state digest as
        // warming the full prefix [0, B) — while the raw snapshots differ
        // in dead bytes (absolute stamps).
        use delorean_trace::spec_workload;
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let boundary = 60_000u64;
        let window = 30_000u64;
        let mut chain = Hierarchy::new(&machine());
        chain.warm_range(&w, 0..boundary);
        let mut proxy = Hierarchy::new(&machine());
        proxy.warm_range(&w, boundary - window..boundary);
        assert_eq!(
            chain.state_digest(),
            proxy.state_digest(),
            "directed window failed to converge to the chain's live state"
        );
        // Equal digests ⇒ identical subsequent behaviour.
        let before = (chain.stats().l1d_hits, chain.stats().memory);
        chain.reset_stats();
        proxy.reset_stats();
        chain.warm_range(&w, boundary..boundary + 5_000);
        proxy.warm_range(&w, boundary..boundary + 5_000);
        assert_eq!(chain.stats(), proxy.stats());
        assert_eq!(chain.state_digest(), proxy.state_digest());
        let _ = before;
    }

    #[test]
    fn copy_state_from_is_fork_without_allocation() {
        use delorean_trace::spec_workload;
        let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
        let mut src = Hierarchy::new(&machine());
        src.warm_range(&w, 0..8_000);
        let mut dst = Hierarchy::new(&machine());
        dst.warm_range(&w, 0..100); // dirty destination
        dst.copy_state_from(&src);
        assert_eq!(dst.state_digest(), src.state_digest());
        assert_eq!(dst.stats(), src.stats());
        dst.warm_range(&w, 8_000..12_000);
        let mut fork = src.fork();
        fork.warm_range(&w, 8_000..12_000);
        assert_eq!(dst.snapshot(), fork.snapshot());
        assert_eq!(dst.stats(), fork.stats());
    }

    #[test]
    fn warm_range_streams_the_workload() {
        use delorean_trace::{spec_workload, WorkloadExt};
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let mut streamed = Hierarchy::new(&machine());
        streamed.warm_range(&w, 100..6_000);
        let mut looped = Hierarchy::new(&machine());
        w.for_each_access(100..6_000, |a| {
            looped.access_data(a.pc, a.line(), a.index);
        });
        assert_eq!(streamed.stats(), looped.stats());
        assert_eq!(streamed.snapshot(), looped.snapshot());
    }

    /// Drive a Table 1 hierarchy through the `(2, 8)` and the `(0, 0)`
    /// instantiations of the access core on the same stream, in slices,
    /// and assert both reach the same statistics, live state and
    /// snapshot.
    fn assert_instantiations_agree(cfg: &MachineConfig, stream: &[MemAccess], what: &str) {
        let mut fixed = Hierarchy::new(cfg);
        let mut dynamic = Hierarchy::new(cfg);
        assert!(fixed.table1_widths(), "{what}: not a Table 1 geometry");
        for chunk in stream.chunks(CURSOR_BATCH / 4) {
            fixed.warm_slice_at::<2, 8>(chunk);
            dynamic.warm_slice_at::<0, 0>(chunk);
        }
        assert_eq!(fixed.stats(), dynamic.stats(), "{what}: counters");
        assert_eq!(fixed.l1d().stats(), dynamic.l1d().stats(), "{what}: L1-D");
        assert_eq!(fixed.llc().stats(), dynamic.llc().stats(), "{what}: LLC");
        assert_eq!(
            fixed.state_digest(),
            dynamic.state_digest(),
            "{what}: digest"
        );
        assert_eq!(fixed.snapshot(), dynamic.snapshot(), "{what}: snapshot");
    }

    #[test]
    fn instantiations_agree() {
        use delorean_trace::{mix64, spec_workload, Addr};
        for name in ["hmmer", "mcf", "lbm"] {
            let w = spec_workload(name, Scale::tiny(), 1).unwrap();
            let mut stream = Vec::new();
            let mut cursor = w.cursor(0..60_000);
            let mut buf = Vec::new();
            while cursor.fill(&mut buf, CURSOR_BATCH) > 0 {
                stream.extend_from_slice(&buf);
            }
            assert_instantiations_agree(&machine(), &stream, name);
        }
        // A one-entry MSHR file with a long latency hands out `Full` on
        // nearly every miss; a striding PC arms the prefetcher, so its
        // LLC fills run through the core's width too.
        let mut saturating = machine().with_prefetch(true);
        saturating.hierarchy.l1d_mshrs = 1;
        saturating.hierarchy.mshr_latency_accesses = 500;
        let stream: Vec<MemAccess> = (0..40_000u64)
            .map(|i| {
                let (pc, line) = if i % 4 == 3 {
                    (Pc(0x9990), (1 << 20) + i / 4)
                } else {
                    (Pc(0x400 + mix64(3, i) % 16 * 4), mix64(5, i) % 4_096)
                };
                MemAccess {
                    index: i,
                    icount: i * 3,
                    pc,
                    addr: Addr(line * 64),
                }
            })
            .collect();
        assert_instantiations_agree(&saturating, &stream, "saturating");
        let mut h = Hierarchy::new(&saturating);
        h.warm_slice(&stream);
        assert!(h.stats().prefetches_issued > 0, "prefetcher never fired");
    }
}
