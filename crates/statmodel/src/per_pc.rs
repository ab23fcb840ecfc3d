//! Per-PC reuse profiles — the statistical backbone of randomized
//! statistical warming (CoolSim).
//!
//! CoolSim predicts hit/miss *per load PC*: it needs "a sufficiently large
//! number of reuse distances per PC for an accurate prediction" (§2.3).
//! Because random samples land on PCs in proportion to their execution
//! frequency — not their importance in the detailed region — rare PCs end
//! up with few or no samples, and CoolSim must fall back to a pessimistic
//! default. That sampling inefficiency is exactly the gap DeLorean's
//! directed warming closes, so this module models it faithfully.

use crate::reuse::ReuseProfile;
use delorean_trace::{Pc, PcMap};

/// Outcome of a per-PC miss prediction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PcPrediction {
    /// The PC had samples; predicted hit.
    Hit,
    /// The PC had samples; predicted miss.
    Miss,
    /// No samples for this PC — the caller must apply a policy default.
    NoData,
}

/// Per-PC verdicts decided by [`PcProfiles::predictor`] for one cache
/// size.
#[derive(Clone, Debug)]
pub struct PcPredictor {
    verdicts: PcMap<PcPrediction>,
}

impl PcPredictor {
    /// The verdict for an access issued by `pc`: [`PcPrediction::NoData`]
    /// when the PC has no sampled weight.
    #[inline]
    pub fn predict(&self, pc: Pc) -> PcPrediction {
        self.verdicts
            .get(pc)
            .copied()
            .unwrap_or(PcPrediction::NoData)
    }
}

/// Reuse profiles keyed by program counter, plus a pooled global profile.
///
/// The global profile drives the reuse→stack conversion (stack distance is
/// a property of the whole access stream), while the per-PC histograms
/// drive the per-access hit/miss verdicts.
#[derive(Clone, Debug, Default)]
pub struct PcProfiles {
    per_pc: PcMap<ReuseProfile>,
    global: ReuseProfile,
}

impl PcProfiles {
    /// Empty profile set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sampled reuse distance for `pc`.
    pub fn record(&mut self, pc: Pc, reuse_distance: u64, weight: f64) {
        self.per_pc.or_default(pc).record(reuse_distance, weight);
        self.global.record(reuse_distance, weight);
    }

    /// Record a cold (never-before-seen) sample for `pc`.
    pub fn record_cold(&mut self, pc: Pc, weight: f64) {
        self.per_pc.or_default(pc).record_cold(weight);
        self.global.record_cold(weight);
    }

    /// The pooled profile across all PCs.
    pub fn global(&self) -> &ReuseProfile {
        &self.global
    }

    /// The profile of one PC, if any samples were recorded for it.
    pub fn pc(&self, pc: Pc) -> Option<&ReuseProfile> {
        self.per_pc.get(pc)
    }

    /// Total sampled weight across all PCs.
    pub fn total_weight(&self) -> f64 {
        self.global.total_weight()
    }

    /// The hit/miss verdict of every sampled PC for a fully-associative
    /// LRU cache of `cache_lines` lines, assuming a perfectly warm cache.
    ///
    /// Each PC's reuse distribution is compared against the *global*
    /// critical reuse distance (the largest reuse whose expected stack
    /// distance fits the cache), found once for all PCs: an access is
    /// predicted to miss when more than half of its PC's sampled weight
    /// lies beyond it. The profiles are final once sampling ends, so the
    /// verdicts are decided here, once, and each later query is one
    /// lookup.
    pub fn predictor(&self, cache_lines: u64) -> PcPredictor {
        let d_crit = self.global.critical_reuse_distance(cache_lines);
        let mut verdicts = PcMap::with_capacity(self.per_pc.len());
        for (pc, profile) in self.per_pc.iter() {
            if profile.total_weight() == 0.0 {
                continue;
            }
            let p_miss = if d_crit == u64::MAX {
                profile.cold_fraction()
            } else {
                let reuse_part = 1.0 - profile.cold_fraction();
                profile.cold_fraction() + reuse_part * profile.p_reuse_ge(d_crit.saturating_add(1))
            };
            let verdict = if p_miss >= 0.5 {
                PcPrediction::Miss
            } else {
                PcPrediction::Hit
            };
            verdicts.insert(pc, verdict);
        }
        PcPredictor { verdicts }
    }

    /// Merge another profile set into this one.
    pub fn merge(&mut self, other: &PcProfiles) {
        for (pc, prof) in other.per_pc.iter() {
            self.per_pc.or_default(pc).merge(prof);
        }
        self.global.merge(&other.global);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_pc_yields_no_data() {
        let p = PcProfiles::new();
        assert_eq!(p.predictor(64).predict(Pc(0x1000)), PcPrediction::NoData);
    }

    #[test]
    fn short_reuse_pc_predicts_hit_long_predicts_miss() {
        let mut p = PcProfiles::new();
        // Build a global distribution where stack ≈ reuse (all unique).
        for i in 0..100 {
            p.record(Pc(0x9999), 1_000_000 + i, 1.0);
        }
        for _ in 0..20 {
            p.record(Pc(0x1), 4, 1.0);
            p.record(Pc(0x2), 5_000_000, 1.0);
        }
        let predictor = p.predictor(1024);
        assert_eq!(predictor.predict(Pc(0x1)), PcPrediction::Hit);
        assert_eq!(predictor.predict(Pc(0x2)), PcPrediction::Miss);
    }

    #[test]
    fn cold_heavy_pc_predicts_miss() {
        let mut p = PcProfiles::new();
        p.record(Pc(0x3), 2, 1.0);
        p.record_cold(Pc(0x3), 9.0);
        assert_eq!(p.predictor(1 << 30).predict(Pc(0x3)), PcPrediction::Miss);
    }

    /// The global profile as bits: bins, reuse weight and total weight.
    fn global_bits(p: &PcProfiles) -> (Vec<(u64, u64)>, u64, u64) {
        let g = p.global();
        let bins = g
            .histogram()
            .iter()
            .map(|(d, w)| (d, w.to_bits()))
            .collect();
        (bins, g.reuse_weight().to_bits(), g.total_weight().to_bits())
    }

    #[test]
    fn unit_weight_folds_are_order_free() {
        // One multiset of unit-weight `record` (Some(distance)) and
        // `record_cold` (None) calls over 13 PCs: the low PCs reuse
        // short, the high ones long, and every fifth call is cold.
        let calls: Vec<(Pc, Option<u64>)> = (0..2_000u64)
            .map(|i| {
                let pc = (i * 7) % 13;
                let sample = if i % 5 == 0 {
                    None
                } else if pc < 6 {
                    Some(1 + i % 40)
                } else {
                    Some(100_000 + i * 97)
                };
                (Pc(0x400 + pc * 4), sample)
            })
            .collect();
        let fold = |order: &mut dyn Iterator<Item = &(Pc, Option<u64>)>| {
            let mut p = PcProfiles::new();
            for &(pc, sample) in order {
                match sample {
                    Some(d) => p.record(pc, d, 1.0),
                    None => p.record_cold(pc, 1.0),
                }
            }
            p
        };
        let forward = fold(&mut calls.iter());
        let backward = fold(&mut calls.iter().rev());
        // A stride permutation interleaves the two halves differently.
        let strided = fold(&mut (0..calls.len()).map(|i| &calls[(i * 1_237) % calls.len()]));
        assert_eq!(global_bits(&forward), global_bits(&backward));
        assert_eq!(global_bits(&forward), global_bits(&strided));
        let mut seen = Vec::new();
        for cache_lines in [16, 1_024, 1 << 20] {
            let a = forward.predictor(cache_lines);
            let b = backward.predictor(cache_lines);
            let c = strided.predictor(cache_lines);
            for pc in (0..13).map(|pc| Pc(0x400 + pc * 4)) {
                let verdict = a.predict(pc);
                assert_eq!(verdict, b.predict(pc), "{pc:?} at {cache_lines} lines");
                assert_eq!(verdict, c.predict(pc), "{pc:?} at {cache_lines} lines");
                seen.push(verdict);
            }
        }
        // The multiset exercises both verdicts.
        assert!(seen.contains(&PcPrediction::Hit) && seen.contains(&PcPrediction::Miss));
    }

    #[test]
    fn global_pools_all_pcs() {
        let mut p = PcProfiles::new();
        p.record(Pc(0x1), 10, 2.0);
        p.record(Pc(0x2), 20, 3.0);
        p.record_cold(Pc(0x3), 1.0);
        assert_eq!(p.total_weight(), 6.0);
        assert!((p.global().cold_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_per_pc() {
        let mut a = PcProfiles::new();
        a.record(Pc(0x1), 10, 1.0);
        let mut b = PcProfiles::new();
        b.record(Pc(0x1), 12, 1.0);
        b.record(Pc(0x2), 9, 1.0);
        a.merge(&b);
        assert!(a.pc(Pc(0x2)).is_some());
        assert_eq!(a.pc(Pc(0x1)).unwrap().total_weight(), 2.0);
    }
}
