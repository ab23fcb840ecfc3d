//! Cache and hierarchy statistics.

use serde::{Deserialize, Serialize};

/// Hit/miss counters of a single cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that found their line.
    pub hits: u64,
    /// Accesses that filled their line.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 for no accesses.
    pub fn hit_rate(&self) -> f64 {
        let t = self.accesses();
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Misses per kilo-instruction given an instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Accumulate another stats block.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Per-level outcome counters of a [`Hierarchy`](crate::Hierarchy).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Data accesses that hit in the L1-D.
    pub l1d_hits: u64,
    /// Data accesses merged into an outstanding miss (delayed hits).
    pub mshr_hits: u64,
    /// Data accesses that hit in the LLC.
    pub llc_hits: u64,
    /// Data accesses served by memory.
    pub memory: u64,
    /// Instruction fetches that missed the L1-I.
    pub l1i_misses: u64,
    /// Prefetch requests issued.
    pub prefetches_issued: u64,
    /// Prefetch requests dropped because the line was already cached.
    pub prefetches_nullified: u64,
}

impl HierarchyStats {
    /// Total data accesses observed.
    pub fn data_accesses(&self) -> u64 {
        self.l1d_hits + self.mshr_hits + self.llc_hits + self.memory
    }

    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.memory as f64 * 1000.0 / instructions as f64
        }
    }

    /// Accumulate another stats block.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.l1d_hits += other.l1d_hits;
        self.mshr_hits += other.mshr_hits;
        self.llc_hits += other.llc_hits;
        self.memory += other.memory;
        self.l1i_misses += other.l1i_misses;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetches_nullified += other.prefetches_nullified;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_mpki() {
        let s = CacheStats {
            hits: 75,
            misses: 25,
            evictions: 10,
        };
        assert_eq!(s.accesses(), 100);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.mpki(10_000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 0,
        };
        a.merge(&CacheStats {
            hits: 3,
            misses: 4,
            evictions: 5,
        });
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 6);
        assert_eq!(a.evictions, 5);
    }

    #[test]
    fn hierarchy_rates() {
        let h = HierarchyStats {
            l1d_hits: 90,
            mshr_hits: 5,
            llc_hits: 3,
            memory: 2,
            ..Default::default()
        };
        assert_eq!(h.data_accesses(), 100);
        assert!((h.llc_mpki(1000) - 2.0).abs() < 1e-12);
    }
}
