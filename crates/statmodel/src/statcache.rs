//! StatCache: statistical modeling of random-replacement caches.
//!
//! The earliest statistical cache model (Berg & Hagersten, §4.1 of the
//! paper's lineage) targets caches with *random* replacement, where hit
//! probability depends only on reuse distance and the cache's miss rate
//! itself: a line survives one eviction round with probability `1 − 1/L`,
//! and evictions happen once per miss, so an access with reuse distance `d`
//! misses with probability `1 − (1 − 1/L)^{m·d}` where `m` is the overall
//! miss ratio. The model solves this fixpoint.
//!
//! DeLorean's generality argument (§4.1) rests on models like this one
//! existing for non-LRU policies; including it lets the reproduction
//! evaluate DSW classification under random replacement too.

use crate::reuse::ReuseProfile;

/// Fixpoint solver for the random-replacement miss ratio.
#[derive(Copy, Clone, Debug)]
pub struct StatCacheModel {
    /// Maximum fixpoint iterations.
    pub max_iterations: u32,
    /// Convergence tolerance on the miss ratio.
    pub tolerance: f64,
}

impl Default for StatCacheModel {
    fn default() -> Self {
        StatCacheModel {
            max_iterations: 200,
            tolerance: 1e-7,
        }
    }
}

impl StatCacheModel {
    /// A solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted miss ratio of a random-replacement cache of `cache_lines`
    /// lines for the accesses described by `profile`.
    ///
    /// Returns 0 for an empty profile.
    pub fn miss_ratio(&self, profile: &ReuseProfile, cache_lines: u64) -> f64 {
        let total = profile.total_weight();
        if total == 0.0 || cache_lines == 0 {
            return if cache_lines == 0 && total > 0.0 {
                1.0
            } else {
                0.0
            };
        }
        let cold = profile.cold_fraction();
        let hist = profile.histogram();
        let l = cache_lines as f64;
        // ln(1 - 1/L), stable even for L = 1.
        let ln_survive = if cache_lines == 1 {
            f64::NEG_INFINITY
        } else {
            (1.0 - 1.0 / l).ln()
        };
        let reuse_frac = 1.0 - cold;
        let mut m = 0.5; // initial guess
        for _ in 0..self.max_iterations {
            let mut reuse_miss = 0.0;
            if hist.total() > 0.0 {
                for (d, w) in hist.iter() {
                    let p_miss = 1.0 - (ln_survive * m * d as f64).exp();
                    reuse_miss += w * p_miss;
                }
                reuse_miss /= hist.total();
            }
            let next = cold + reuse_frac * reuse_miss;
            if (next - m).abs() < self.tolerance {
                return next.clamp(0.0, 1.0);
            }
            // Damped update: the map is monotone, damping guarantees
            // convergence to the unique fixpoint.
            m = 0.5 * m + 0.5 * next;
        }
        m.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_of(pairs: &[(u64, f64)], cold: f64) -> ReuseProfile {
        let mut p = ReuseProfile::new();
        for &(d, w) in pairs {
            p.record(d, w);
        }
        if cold > 0.0 {
            p.record_cold(cold);
        }
        p
    }

    #[test]
    fn tiny_working_set_hits() {
        let p = profile_of(&[(4, 100.0)], 0.0);
        let m = StatCacheModel::new().miss_ratio(&p, 1024);
        assert!(m < 0.01, "m = {m}");
    }

    #[test]
    fn giant_reuses_miss() {
        let p = profile_of(&[(10_000_000, 100.0)], 0.0);
        let m = StatCacheModel::new().miss_ratio(&p, 64);
        assert!(m > 0.95, "m = {m}");
    }

    #[test]
    fn miss_ratio_monotone_in_cache_size() {
        let p = profile_of(&[(10, 30.0), (1_000, 40.0), (100_000, 30.0)], 0.0);
        let model = StatCacheModel::new();
        let mut prev = 1.1;
        for c in [16u64, 64, 256, 1024, 4096, 1 << 14, 1 << 16, 1 << 18] {
            let m = model.miss_ratio(&p, c);
            assert!(m <= prev + 1e-9, "non-monotone at {c}: {m} > {prev}");
            prev = m;
        }
    }

    #[test]
    fn cold_fraction_is_a_floor() {
        let p = profile_of(&[(4, 80.0)], 20.0);
        let m = StatCacheModel::new().miss_ratio(&p, 1 << 20);
        assert!((m - 0.2).abs() < 0.01, "m = {m}");
    }

    #[test]
    fn random_replacement_is_softer_than_lru_at_the_knee() {
        // A cyclic sweep slightly larger than the cache: LRU thrashes
        // (every reuse evicted just before it would hit), while random
        // replacement keeps a good fraction resident. Cache is set a bit
        // below the sweep so the comparison is robust to the histogram's
        // log-bucket quantization (~±7%).
        let p = profile_of(&[(1023, 100.0)], 0.0);
        let lru = p.miss_ratio(900);
        let rnd = StatCacheModel::new().miss_ratio(&p, 900);
        assert!(lru > 0.9, "LRU should thrash: {lru}");
        assert!(rnd < 0.8, "random should be softer: {rnd}");
        assert!(rnd > 0.1, "but not free: {rnd}");
    }

    #[test]
    fn degenerate_caches() {
        let p = profile_of(&[(10, 10.0)], 0.0);
        assert_eq!(StatCacheModel::new().miss_ratio(&p, 0), 1.0);
        let empty = ReuseProfile::new();
        assert_eq!(StatCacheModel::new().miss_ratio(&empty, 64), 0.0);
    }
}
