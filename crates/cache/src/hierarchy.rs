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
//! Both paths run the **same** inlined access core, so they are
//! bit-identical in cache state, MSHR state and statistics — pinned by
//! the `batched_equivalence` property tests.

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
    #[inline]
    fn access_data_inner(&mut self, pc: Pc, line: LineAddr, now: u64) -> MemLevel {
        // Complete any fills whose latency has elapsed. `has_ready` is a
        // single compare, so the common nothing-to-retire case skips the
        // MSHR file entirely.
        if self.mshr_d.has_ready(now) {
            self.retired.clear();
            self.mshr_d.retire_into(now, &mut self.retired);
            for &done in &self.retired {
                self.l1d.fill(done);
            }
        }
        if self.l1d.lookup(line) {
            self.stats.l1d_hits += 1;
            return MemLevel::L1;
        }
        match self.mshr_d.on_miss(line, now) {
            MshrOutcome::DelayedHit => {
                self.stats.mshr_hits += 1;
                MemLevel::Mshr
            }
            MshrOutcome::Allocated | MshrOutcome::Full => {
                if self.llc.access(line).is_hit() {
                    self.stats.llc_hits += 1;
                    MemLevel::Llc
                } else {
                    self.stats.memory += 1;
                    self.train_prefetcher(pc, line);
                    MemLevel::Memory
                }
            }
        }
    }

    /// Issue a data access at access-time `now`; returns the serving level.
    ///
    /// This is the per-access path — random probes and detailed
    /// simulation, where each outcome feeds the timing model. Sequential
    /// warm loops should use [`Hierarchy::warm_slice`] or
    /// [`Hierarchy::warm_range`] instead.
    pub fn access_data(&mut self, pc: Pc, line: LineAddr, now: u64) -> MemLevel {
        self.access_data_inner(pc, line, now)
    }

    /// Warm the hierarchy with a batch of consecutive accesses, using each
    /// access's stream `index` as its access time — exactly what every
    /// functional warm loop does per access, minus the per-access closure.
    ///
    /// Bit-identical to calling [`Hierarchy::access_data`]`(a.pc,
    /// a.line(), a.index)` for each element in order; only the per-access
    /// outcomes are not materialized (warming consumes state and
    /// counters, not levels).
    pub fn warm_slice(&mut self, batch: &[MemAccess]) {
        for a in batch {
            self.access_data_inner(a.pc, a.addr.line(), a.index);
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
    fn train_prefetcher(&mut self, pc: Pc, line: LineAddr) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        for l in pf.on_trigger(pc, line) {
            self.stats.prefetches_issued += 1;
            if self.llc.probe(l) {
                // Already resident: nullified to save bandwidth (§6.3.2).
                self.stats.prefetches_nullified += 1;
            } else {
                self.llc.fill(l);
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

    /// Fork the **complete** hierarchy state — caches, in-flight MSHRs,
    /// prefetcher streams, statistics — as the seed of an independent
    /// region unit.
    ///
    /// Unlike [`Hierarchy::snapshot`], forking does *not* quiesce: the
    /// fork continues bit-for-bit exactly where this hierarchy stands,
    /// outstanding misses included, which is what lets the region
    /// scheduler hand a warm boundary state to a parallel measure body
    /// while the warm lane keeps advancing the original. The cost is a
    /// deep copy of the tag/stamp arrays (a few hundred KiB at demo
    /// scale) — cheap next to warming even one region interval.
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
    /// hierarchy, where [`Hierarchy::fork`] would allocate fresh arrays
    /// per call. Behaviorally equivalent to `*self = other.fork()`.
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
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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
}
