//! Reuse-distance profiles and the StatStack reuse→stack conversion.

use crate::histogram::LogHistogram;

/// A sampled reuse-distance distribution plus the StatStack machinery to
/// turn it into stack distances and miss-ratio predictions.
///
/// Distances are in *memory accesses strictly between* two accesses to the
/// same cacheline (the paper's definition). "Cold" weight accounts for
/// accesses whose line was never referenced before; they miss in any cache.
///
/// ```
/// use delorean_statmodel::ReuseProfile;
///
/// let mut p = ReuseProfile::new();
/// // A cyclic sweep over 100 lines: every reuse distance is 99.
/// for _ in 0..1000 {
///     p.record(99, 1.0);
/// }
/// // The estimated stack distance for rd=99 is then also ~99 ...
/// assert!((p.stack_distance(99) - 99.0).abs() < 2.0);
/// // ... so a 64-line cache misses and a 128-line cache hits.
/// assert!(p.miss_ratio(64) > 0.95);
/// assert!(p.miss_ratio(128) < 0.05);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReuseProfile {
    hist: LogHistogram,
    cold_weight: f64,
}

impl ReuseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sampled reuse distance with the given weight.
    #[inline]
    pub fn record(&mut self, reuse_distance: u64, weight: f64) {
        self.hist.add(reuse_distance, weight);
    }

    /// Record weight for accesses with no earlier access to their line.
    #[inline]
    pub fn record_cold(&mut self, weight: f64) {
        self.cold_weight += weight;
    }

    /// Total recorded weight (reuses + cold).
    pub fn total_weight(&self) -> f64 {
        self.hist.total() + self.cold_weight
    }

    /// Number of recorded (non-cold) reuse samples by weight.
    pub fn reuse_weight(&self) -> f64 {
        self.hist.total()
    }

    /// Fraction of recorded accesses that were cold.
    pub fn cold_fraction(&self) -> f64 {
        let t = self.total_weight();
        if t == 0.0 {
            0.0
        } else {
            self.cold_weight / t
        }
    }

    /// `P(rd ≥ d)` among non-cold reuses.
    pub fn p_reuse_ge(&self, d: u64) -> f64 {
        self.hist.p_ge(d)
    }

    /// The underlying reuse-distance histogram.
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &ReuseProfile) {
        self.hist.merge(&other.hist);
        self.cold_weight += other.cold_weight;
    }

    /// StatStack: expected stack distance of an access with reuse distance
    /// `d`, i.e. the expected number of *unique* lines among the `d`
    /// intervening accesses.
    ///
    /// Each of the `d` intervening accesses contributes a unique line iff
    /// its own forward reuse crosses the window end; for the access `j`
    /// positions before the end that is `P(rd ≥ j)`. Summing over `j`
    /// yields `Σ_{j=1..d} P(rd ≥ j) = E[min(rd, d)]`, computed from the
    /// histogram in one pass.
    ///
    /// An **empty profile degrades conservatively**: with no vicinity
    /// information every intervening access is assumed unique
    /// (`sd = d`), the upper bound.
    pub fn stack_distance(&self, d: u64) -> f64 {
        if self.hist.is_empty() {
            return d as f64;
        }
        // Cold accesses in the window also occupy a unique line each; fold
        // them in as "infinite reuse" mass.
        let cold = self.cold_fraction();
        let em = self.hist.expected_min(d);
        em * (1.0 - cold) + d as f64 * cold
    }

    /// Largest reuse distance whose expected stack distance still fits in a
    /// cache of `cache_lines` lines (the inverse of
    /// [`stack_distance`](Self::stack_distance)). Returns `u64::MAX` when
    /// even unbounded reuse fits (tiny working sets).
    pub fn critical_reuse_distance(&self, cache_lines: u64) -> u64 {
        if self.stack_distance(u64::MAX >> 16) <= cache_lines as f64 {
            return u64::MAX;
        }
        // stack_distance is monotone in d: binary search.
        let (mut lo, mut hi) = (0u64, u64::MAX >> 16);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.stack_distance(mid) <= cache_lines as f64 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.saturating_sub(1)
    }

    /// Predicted miss ratio of a fully-associative LRU cache with
    /// `cache_lines` lines, over the recorded access population.
    ///
    /// An access misses iff its stack distance is ≥ the cache size; cold
    /// accesses always miss.
    pub fn miss_ratio(&self, cache_lines: u64) -> f64 {
        let t = self.total_weight();
        if t == 0.0 {
            return 0.0;
        }
        let d_crit = self.critical_reuse_distance(cache_lines);
        let reuse_misses = if d_crit == u64::MAX {
            0.0
        } else {
            self.hist.p_ge(d_crit.saturating_add(1)) * self.hist.total()
        };
        (reuse_misses + self.cold_weight) / t
    }

    /// A copy of this profile with every reuse distance multiplied by
    /// `factor` — how StatCC models cache sharing: a co-runner issuing
    /// accesses interleaves into every reuse window, stretching the
    /// application's *solo* distances by the combined access rate over its
    /// own (§4.2).
    pub fn scaled(&self, factor: f64) -> ReuseProfile {
        assert!(factor.is_finite() && factor > 0.0, "invalid scale factor");
        let mut out = ReuseProfile::new();
        for (d, w) in self.hist.iter() {
            out.record((d as f64 * factor).round() as u64, w);
        }
        out.cold_weight = self.cold_weight;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_conservative() {
        let p = ReuseProfile::new();
        assert_eq!(p.stack_distance(100), 100.0);
        assert_eq!(p.miss_ratio(64), 0.0);
        assert_eq!(p.total_weight(), 0.0);
    }

    #[test]
    fn uniform_short_reuses_compress_stack_distance() {
        // If every reuse distance is 10, a window of 100 accesses contains
        // only ~10 unique lines.
        let mut p = ReuseProfile::new();
        p.record(10, 100.0);
        let sd = p.stack_distance(100);
        assert!((sd - 10.0).abs() < 1.5, "sd = {sd}");
    }

    #[test]
    fn stack_distance_is_monotonic() {
        let mut p = ReuseProfile::new();
        for d in [1u64, 5, 50, 500, 5000] {
            p.record(d, 1.0);
        }
        let mut prev = -1.0;
        for d in [0u64, 1, 2, 10, 100, 1_000, 10_000, 100_000] {
            let sd = p.stack_distance(d);
            assert!(sd >= prev, "sd({d}) = {sd} < {prev}");
            prev = sd;
        }
    }

    #[test]
    fn critical_reuse_distance_inverts_stack_distance() {
        let mut p = ReuseProfile::new();
        p.record(100, 50.0);
        p.record(10_000, 50.0);
        let c = 300;
        let d = p.critical_reuse_distance(c);
        assert!(p.stack_distance(d) <= c as f64 + 1.0);
        assert!(p.stack_distance(d + d / 8 + 2) >= c as f64 - 1.0);
    }

    #[test]
    fn tiny_working_set_never_misses() {
        let mut p = ReuseProfile::new();
        p.record(5, 100.0);
        assert_eq!(p.critical_reuse_distance(1000), u64::MAX);
        assert_eq!(p.miss_ratio(1000), 0.0);
    }

    #[test]
    fn cold_weight_always_misses() {
        let mut p = ReuseProfile::new();
        p.record(5, 80.0);
        p.record_cold(20.0);
        assert!((p.cold_fraction() - 0.2).abs() < 1e-12);
        assert!((p.miss_ratio(1_000_000) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn merge_combines_profiles() {
        let mut a = ReuseProfile::new();
        a.record(10, 1.0);
        let mut b = ReuseProfile::new();
        b.record_cold(1.0);
        a.merge(&b);
        assert_eq!(a.total_weight(), 2.0);
        assert!((a.cold_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bimodal_miss_curve_has_two_levels() {
        // 70% short reuses (10), 30% long reuses (100_000).
        let mut p = ReuseProfile::new();
        p.record(10, 70.0);
        p.record(100_000, 30.0);
        let small = p.miss_ratio(100);
        let large = p.miss_ratio(1 << 20);
        assert!(small > 0.25 && small < 0.35, "small-cache ratio {small}");
        assert!(large < 0.01, "large-cache ratio {large}");
    }
}
