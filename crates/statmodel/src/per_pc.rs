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
use serde::{Deserialize, Serialize};

/// Outcome of a per-PC miss prediction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PcPrediction {
    /// The PC had samples; predicted hit.
    Hit,
    /// The PC had samples; predicted miss.
    Miss,
    /// No samples for this PC — the caller must apply a policy default.
    NoData,
}

/// Reuse profiles keyed by program counter, plus a pooled global profile.
///
/// The global profile drives the reuse→stack conversion (stack distance is
/// a property of the whole access stream), while the per-PC histograms
/// drive the per-access hit/miss verdicts.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
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

    /// Predict whether an access issued by `pc` hits a fully-associative
    /// LRU cache of `cache_lines` lines, assuming a perfectly warm cache.
    ///
    /// The per-PC reuse distribution is compared against the *global*
    /// critical reuse distance (the largest reuse whose expected stack
    /// distance fits the cache): the access is predicted to miss when more
    /// than half of the PC's sampled weight lies beyond it.
    pub fn predict(&self, pc: Pc, cache_lines: u64) -> PcPrediction {
        let Some(profile) = self.per_pc.get(pc) else {
            return PcPrediction::NoData;
        };
        if profile.total_weight() == 0.0 {
            return PcPrediction::NoData;
        }
        let d_crit = self.global.critical_reuse_distance(cache_lines);
        let p_miss = if d_crit == u64::MAX {
            profile.cold_fraction()
        } else {
            let reuse_part = 1.0 - profile.cold_fraction();
            profile.cold_fraction() + reuse_part * profile.p_reuse_ge(d_crit.saturating_add(1))
        };
        if p_miss >= 0.5 {
            PcPrediction::Miss
        } else {
            PcPrediction::Hit
        }
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
        assert_eq!(p.predict(Pc(0x1000), 64), PcPrediction::NoData);
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
        assert_eq!(p.predict(Pc(0x1), 1024), PcPrediction::Hit);
        assert_eq!(p.predict(Pc(0x2), 1024), PcPrediction::Miss);
    }

    #[test]
    fn cold_heavy_pc_predicts_miss() {
        let mut p = PcProfiles::new();
        p.record(Pc(0x3), 2, 1.0);
        p.record_cold(Pc(0x3), 9.0);
        assert_eq!(p.predict(Pc(0x3), 1 << 30), PcPrediction::Miss);
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
