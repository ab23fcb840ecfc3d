//! Time-traveling statistics (Figures 7 and 8, plus key-set counts).

use crate::MAX_EXPLORERS;

/// Aggregated statistics of one DeLorean run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TtStats {
    /// Regions evaluated.
    pub regions: u64,
    /// Key cachelines per region (run order).
    pub keys_per_region: Vec<u64>,
    /// Key reuse distances resolved by each explorer (Figure 7).
    pub resolved_by_explorer: [u64; MAX_EXPLORERS],
    /// Keys unresolved after the last explorer (cold lines).
    pub cold_keys: u64,
    /// Explorers engaged, summed over regions (Figure 8 numerator).
    pub engaged_sum: u64,
    /// Vicinity reuse distances collected.
    pub vicinity_samples: u64,
    /// False-positive watchpoint traps across all explorers.
    pub false_positive_traps: u64,
    /// True-hit watchpoint traps across all explorers.
    pub true_hit_traps: u64,
}

impl TtStats {
    /// Total key cachelines across regions.
    pub fn total_keys(&self) -> u64 {
        self.keys_per_region.iter().sum()
    }

    /// Average key cachelines per region (paper: 151 on average).
    pub fn avg_keys_per_region(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.total_keys() as f64 / self.regions as f64
        }
    }

    /// Largest key set observed.
    pub fn max_keys_per_region(&self) -> u64 {
        self.keys_per_region.iter().copied().max().unwrap_or(0)
    }

    /// Smallest key set observed.
    pub fn min_keys_per_region(&self) -> u64 {
        self.keys_per_region.iter().copied().min().unwrap_or(0)
    }

    /// Average number of explorers engaged per region (Figure 8).
    pub fn avg_explorers_engaged(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.engaged_sum as f64 / self.regions as f64
        }
    }

    /// Fraction of resolved key reuse distances found by explorer `k`
    /// (Figure 7's stacked percentages).
    pub fn explorer_share(&self, k: usize) -> f64 {
        let resolved: u64 = self.resolved_by_explorer.iter().sum();
        if resolved == 0 || k >= MAX_EXPLORERS {
            0.0
        } else {
            self.resolved_by_explorer[k] as f64 / resolved as f64
        }
    }

    /// Total reuse distances collected: resolved keys plus vicinity
    /// samples (Figure 6's DeLorean bar).
    pub fn collected_reuse_distances(&self) -> u64 {
        self.resolved_by_explorer.iter().sum::<u64>() + self.vicinity_samples
    }

    /// Merge per-region stats into the aggregate.
    pub fn merge(&mut self, other: &TtStats) {
        self.regions += other.regions;
        self.keys_per_region
            .extend(other.keys_per_region.iter().copied());
        for (a, b) in self
            .resolved_by_explorer
            .iter_mut()
            .zip(&other.resolved_by_explorer)
        {
            *a += b;
        }
        self.cold_keys += other.cold_keys;
        self.engaged_sum += other.engaged_sum;
        self.vicinity_samples += other.vicinity_samples;
        self.false_positive_traps += other.false_positive_traps;
        self.true_hit_traps += other.true_hit_traps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = TtStats {
            regions: 2,
            keys_per_region: vec![100, 200],
            resolved_by_explorer: [150, 100, 40, 10],
            cold_keys: 0,
            engaged_sum: 5,
            vicinity_samples: 50,
            false_positive_traps: 7,
            true_hit_traps: 9,
        };
        assert_eq!(s.total_keys(), 300);
        assert!((s.avg_keys_per_region() - 150.0).abs() < 1e-12);
        assert_eq!(s.max_keys_per_region(), 200);
        assert_eq!(s.min_keys_per_region(), 100);
        assert!((s.avg_explorers_engaged() - 2.5).abs() < 1e-12);
        assert!((s.explorer_share(0) - 0.5).abs() < 1e-12);
        assert_eq!(s.collected_reuse_distances(), 350);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TtStats {
            regions: 1,
            keys_per_region: vec![10],
            resolved_by_explorer: [5, 0, 0, 0],
            engaged_sum: 1,
            ..Default::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.regions, 2);
        assert_eq!(a.keys_per_region, vec![10, 10]);
        assert_eq!(a.resolved_by_explorer[0], 10);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = TtStats::default();
        assert_eq!(s.avg_keys_per_region(), 0.0);
        assert_eq!(s.avg_explorers_engaged(), 0.0);
        assert_eq!(s.explorer_share(0), 0.0);
        assert_eq!(s.explorer_share(99), 0.0);
        assert_eq!(s.max_keys_per_region(), 0);
    }
}
