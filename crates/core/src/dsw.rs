//! Directed statistical warming: the Figure 3 classifier.
//!
//! For an access of the detailed region that missed the lukewarm cache and
//! MSHRs, decide — without any functional warming — whether a perfectly
//! warmed cache would have served it:
//!
//! 1. **Set-full conflict**: the referenced set of the lukewarm cache is
//!    already full, so the access is certainly a conflict miss.
//! 2. **Dominant-stride conflict**: the limited-associativity model says
//!    this PC's stride restricts it to a fraction of the sets; its stack
//!    distance is compared against that *effective* cache size.
//! 3. **Capacity**: the key reuse distance (exact, collected by the
//!    explorers) converted to a stack distance via the vicinity StatStack
//!    profile exceeds the cache size.
//! 4. **Cold**: no access to the line was found within the deepest
//!    explorer window — a genuine cold miss.
//! 5. Everything else is a **warming miss** — an artifact of insufficient
//!    warming — and is modeled as a hit.

use delorean_cache::ReplacementPolicy;
use delorean_statmodel::assoc::LimitedAssocModel;
use delorean_statmodel::{ReuseProfile, StatCacheModel};
use delorean_trace::{LineAddr, LineMap, Pc};

/// Verdict for a lukewarm-missing access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DswVerdict {
    /// The lukewarm set was full: certain conflict miss.
    ConflictSetFull,
    /// Conflict miss predicted by the limited-associativity model.
    ConflictStride,
    /// Stack distance exceeds the cache: capacity miss.
    CapacityMiss,
    /// First-ever access to the line (no reuse within the deepest
    /// window): cold miss.
    ColdMiss,
    /// Insufficient warming; modeled as a hit.
    WarmingMiss,
}

impl DswVerdict {
    /// `true` when the access is modeled as a real miss.
    pub fn is_miss(&self) -> bool {
        !matches!(self, DswVerdict::WarmingMiss)
    }
}

/// Per-verdict counters (reported by the analyst).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DswCounts {
    /// Set-full conflict misses.
    pub conflict_set_full: u64,
    /// Stride-model conflict misses.
    pub conflict_stride: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Cold misses.
    pub cold: u64,
    /// Warming misses (modeled as hits).
    pub warming: u64,
}

impl DswCounts {
    /// Record one verdict.
    pub fn record(&mut self, v: DswVerdict) {
        match v {
            DswVerdict::ConflictSetFull => self.conflict_set_full += 1,
            DswVerdict::ConflictStride => self.conflict_stride += 1,
            DswVerdict::CapacityMiss => self.capacity += 1,
            DswVerdict::ColdMiss => self.cold += 1,
            DswVerdict::WarmingMiss => self.warming += 1,
        }
    }

    /// Total classified accesses.
    pub fn total(&self) -> u64 {
        self.conflict_set_full + self.conflict_stride + self.capacity + self.cold + self.warming
    }

    /// Accumulate another counter block.
    pub fn merge(&mut self, other: &DswCounts) {
        self.conflict_set_full += other.conflict_set_full;
        self.conflict_stride += other.conflict_stride;
        self.capacity += other.capacity;
        self.cold += other.cold;
        self.warming += other.warming;
    }
}

/// The statistical warming model of one detailed region.
#[derive(Clone, Debug, Default)]
pub struct DswModel {
    /// Exact backward reuse distance (in accesses) of each resolved key.
    key_rds: LineMap<u64>,
    /// Vicinity reuse-distance profile (drives StatStack).
    vicinity: ReuseProfile,
    /// Dominant-stride detection per PC.
    assoc: LimitedAssocModel,
    /// Modeled cache geometry.
    llc_sets: u64,
    llc_ways: u64,
    /// Reuse-distance threshold above which an access is a capacity miss.
    /// For LRU this comes from StatStack's critical reuse distance; for
    /// random replacement from the StatCache fixpoint (§4.1 generality).
    capacity_rd_threshold: u64,
    /// Deepest explorer window in accesses: keys unresolved after the last
    /// explorer are *censored* at this distance, not known-cold. 0 means
    /// "treat unresolved keys as cold" (conservative).
    deepest_window_accesses: u64,
}

impl DswModel {
    /// Build a model for an LRU cache of `llc_sets × llc_ways` lines.
    pub fn new(
        key_rds: LineMap<u64>,
        vicinity: ReuseProfile,
        assoc: LimitedAssocModel,
        llc_sets: u64,
        llc_ways: u64,
    ) -> Self {
        Self::with_replacement(
            key_rds,
            vicinity,
            assoc,
            llc_sets,
            llc_ways,
            ReplacementPolicy::Lru,
        )
    }

    /// Build a model for a cache with an explicit replacement policy.
    ///
    /// LRU, FIFO and tree-PLRU use the StatStack stack-distance criterion
    /// (stack ≥ capacity ⇒ miss). Random and NMRU use the StatCache
    /// random-replacement model: solve the global miss-ratio fixpoint
    /// `m`, then classify an access as a capacity miss when its survival
    /// probability `(1 − 1/L)^{m·rd}` drops below one half.
    pub fn with_replacement(
        key_rds: LineMap<u64>,
        vicinity: ReuseProfile,
        assoc: LimitedAssocModel,
        llc_sets: u64,
        llc_ways: u64,
        replacement: ReplacementPolicy,
    ) -> Self {
        let lines = llc_sets * llc_ways;
        let capacity_rd_threshold = match replacement {
            // Stack-distance criterion: exact for LRU, an established
            // approximation for its tree/insertion-order/age-based
            // relatives (Pan & Jonsson; Sen & Wood, cited in §4.1).
            ReplacementPolicy::Lru
            | ReplacementPolicy::Fifo
            | ReplacementPolicy::PLru
            | ReplacementPolicy::Srrip => vicinity.critical_reuse_distance(lines),
            ReplacementPolicy::Random | ReplacementPolicy::Nmru => {
                random_replacement_threshold(&vicinity, lines)
            }
        };
        DswModel {
            key_rds,
            vicinity,
            assoc,
            llc_sets,
            llc_ways,
            capacity_rd_threshold,
            deepest_window_accesses: 0,
        }
    }

    /// Set the censoring horizon: keys unresolved after the deepest
    /// explorer have reuse distance *at least* this, and classify as cold
    /// misses only if even that lower bound already exceeds the cache
    /// (otherwise the line may well still be resident in a large LLC —
    /// SMARTS's continuously-warm hierarchy would hit it).
    pub fn with_censoring_horizon(mut self, deepest_window_accesses: u64) -> Self {
        self.deepest_window_accesses = deepest_window_accesses;
        self
    }

    /// `true` if an access with backward reuse distance `rd` is predicted
    /// to miss the modeled cache on capacity grounds.
    pub fn predicts_capacity_miss(&self, rd: u64) -> bool {
        rd > self.capacity_rd_threshold
    }

    /// The cache capacity in lines.
    pub fn cache_lines(&self) -> u64 {
        self.llc_sets * self.llc_ways
    }

    /// The vicinity profile.
    pub fn vicinity(&self) -> &ReuseProfile {
        &self.vicinity
    }

    /// Classify a lukewarm-missing access (Figure 3, after the lukewarm
    /// and MSHR stages).
    ///
    /// `lukewarm_set_full` is whether the referenced set of the lukewarm
    /// cache was full *before* this access's fill.
    pub fn classify_miss(&self, pc: Pc, line: LineAddr, lukewarm_set_full: bool) -> DswVerdict {
        if lukewarm_set_full {
            return DswVerdict::ConflictSetFull;
        }
        let Some(&rd) = self.key_rds.get(line) else {
            // No reuse found within the deepest explorer window: the reuse
            // distance is censored at the window length. If even that
            // lower bound misses the cache, this is a (cold-like) miss;
            // in a cache large enough to span the whole window, the line
            // may still be resident — a warming artifact, modeled as hit.
            return if self.deepest_window_accesses == 0
                || self.predicts_capacity_miss(self.deepest_window_accesses)
            {
                DswVerdict::ColdMiss
            } else {
                DswVerdict::WarmingMiss
            };
        };
        let effective = self.assoc.effective_lines(pc, self.llc_sets, self.llc_ways);
        if effective < self.cache_lines() && self.vicinity.stack_distance(rd) >= effective as f64 {
            return DswVerdict::ConflictStride;
        }
        if self.predicts_capacity_miss(rd) {
            return DswVerdict::CapacityMiss;
        }
        DswVerdict::WarmingMiss
    }
}

/// Reuse-distance threshold for a random-replacement cache of `lines`
/// lines: solve the StatCache fixpoint for the global miss ratio `m`, then
/// find the distance at which survival `(1 − 1/L)^{m·rd}` falls to 0.5.
fn random_replacement_threshold(vicinity: &ReuseProfile, lines: u64) -> u64 {
    if lines <= 1 {
        return 0;
    }
    let m = StatCacheModel::new().miss_ratio(vicinity, lines);
    if m <= f64::EPSILON {
        // Nothing misses: every reuse survives.
        return u64::MAX;
    }
    let ln_survive = (1.0 - 1.0 / lines as f64).ln();
    // (1 - 1/L)^{m·rd} = 0.5  ⇒  rd = ln 0.5 / (m · ln(1 − 1/L))
    let rd = (0.5f64).ln() / (m * ln_survive);
    if rd >= u64::MAX as f64 {
        u64::MAX
    } else {
        rd as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with(key_rds: &[(u64, u64)], vicinity_rds: &[(u64, f64)]) -> DswModel {
        let mut vicinity = ReuseProfile::new();
        for &(d, w) in vicinity_rds {
            vicinity.record(d, w);
        }
        DswModel::new(
            key_rds.iter().map(|&(l, d)| (LineAddr(l), d)).collect(),
            vicinity,
            LimitedAssocModel::new(),
            128,
            8,
        )
    }

    #[test]
    fn set_full_wins_over_everything() {
        let m = model_with(&[(1, 5)], &[(10, 1.0)]);
        assert_eq!(
            m.classify_miss(Pc(1), LineAddr(1), true),
            DswVerdict::ConflictSetFull
        );
    }

    #[test]
    fn short_key_reuse_is_warming_miss() {
        // Key rd 100 with an all-unique vicinity → stack ≈ 100 < 1024.
        let m = model_with(&[(1, 100)], &[(1_000_000, 1.0)]);
        assert_eq!(
            m.classify_miss(Pc(1), LineAddr(1), false),
            DswVerdict::WarmingMiss
        );
    }

    #[test]
    fn long_key_reuse_is_capacity_miss() {
        let m = model_with(&[(1, 1_000_000)], &[(1_000_000, 1.0)]);
        assert_eq!(
            m.classify_miss(Pc(1), LineAddr(1), false),
            DswVerdict::CapacityMiss
        );
    }

    #[test]
    fn unknown_line_is_cold() {
        let m = model_with(&[], &[(10, 1.0)]);
        assert_eq!(
            m.classify_miss(Pc(1), LineAddr(42), false),
            DswVerdict::ColdMiss
        );
    }

    #[test]
    fn vicinity_compression_turns_capacity_into_warming() {
        // Key rd 10_000 but vicinity says reuses are short (rd 10): the
        // window holds ~10 unique lines → stack ≈ 10 ≪ 1024 → warming miss.
        let m = model_with(&[(1, 10_000)], &[(10, 100.0)]);
        assert_eq!(
            m.classify_miss(Pc(1), LineAddr(1), false),
            DswVerdict::WarmingMiss
        );
    }

    #[test]
    fn strided_pc_conflicts_in_effective_cache() {
        let mut assoc = LimitedAssocModel::new();
        // Train a dominant stride of 128 lines = the set count → 1 set
        // effective (8 lines).
        for i in 0..20u64 {
            assoc.observe(Pc(7), LineAddr(i * 128));
        }
        let mut vicinity = ReuseProfile::new();
        vicinity.record(1_000_000, 1.0); // all-unique conversion
        let m = DswModel::new(
            [(LineAddr(1), 100u64)].into_iter().collect(),
            vicinity,
            assoc,
            128,
            8,
        );
        // Stack ≈ 100 ≥ 8 effective lines → stride conflict,
        // even though 100 < 1024 total lines.
        assert_eq!(
            m.classify_miss(Pc(7), LineAddr(1), false),
            DswVerdict::ConflictStride
        );
        // Other PCs are unaffected.
        assert_eq!(
            m.classify_miss(Pc(8), LineAddr(1), false),
            DswVerdict::WarmingMiss
        );
    }

    #[test]
    fn counts_record_and_merge() {
        let mut c = DswCounts::default();
        c.record(DswVerdict::WarmingMiss);
        c.record(DswVerdict::CapacityMiss);
        c.record(DswVerdict::ColdMiss);
        assert_eq!(c.total(), 3);
        let mut d = c;
        d.merge(&c);
        assert_eq!(d.total(), 6);
        assert_eq!(d.warming, 2);
    }

    #[test]
    fn random_replacement_softens_the_knee() {
        // A vicinity of exact reuses right at the cache size plus a cold
        // trickle (without cold mass the StatCache fixpoint degenerates to
        // zero misses): LRU misses the at-capacity reuses, random
        // replacement keeps the survival-probability fraction.
        let mut vicinity = ReuseProfile::new();
        vicinity.record(1_000, 100.0);
        vicinity.record_cold(5.0);
        let keys: LineMap<u64> = [(LineAddr(1), 1_000u64)].into_iter().collect();
        let lru = DswModel::with_replacement(
            keys.clone(),
            vicinity.clone(),
            LimitedAssocModel::new(),
            128,
            8,
            ReplacementPolicy::Lru,
        );
        let rnd = DswModel::with_replacement(
            keys,
            vicinity,
            LimitedAssocModel::new(),
            128,
            8,
            ReplacementPolicy::Random,
        );
        // Under LRU a reuse of ~1000 in a 1024-line cache is borderline;
        // at rd = 2000 it must miss.
        assert!(lru.predicts_capacity_miss(2_000));
        // Under random replacement with a low global miss ratio, survival
        // at rd = 2000 is still above one half.
        assert!(!rnd.predicts_capacity_miss(2_000));
        // But sufficiently long reuses miss under any policy.
        assert!(rnd.predicts_capacity_miss(100_000_000));
    }

    #[test]
    fn random_threshold_edge_cases() {
        let empty = ReuseProfile::new();
        // Empty vicinity → miss ratio 0 → nothing classified as capacity.
        assert_eq!(random_replacement_threshold(&empty, 1024), u64::MAX);
        let mut hostile = ReuseProfile::new();
        hostile.record(1 << 30, 10.0);
        let t = random_replacement_threshold(&hostile, 64);
        assert!(t > 0 && t < 1 << 30, "threshold {t}");
        assert_eq!(random_replacement_threshold(&hostile, 1), 0);
    }

    #[test]
    fn verdict_miss_flags() {
        assert!(!DswVerdict::WarmingMiss.is_miss());
        assert!(DswVerdict::CapacityMiss.is_miss());
        assert!(DswVerdict::ColdMiss.is_miss());
        assert!(DswVerdict::ConflictSetFull.is_miss());
        assert!(DswVerdict::ConflictStride.is_miss());
    }
}
