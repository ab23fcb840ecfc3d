//! Cache and machine configuration (Table 1 of the paper).

use delorean_trace::{Scale, LINE_BYTES};
use std::fmt;

/// Replacement policy of a [`Cache`](crate::Cache).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Least recently used (the paper's configuration).
    Lru,
    /// First in, first out.
    Fifo,
    /// Uniform random victim.
    Random,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    PLru,
    /// Not-most-recently-used: random victim excluding the MRU way.
    Nmru,
    /// Static re-reference interval prediction (SRRIP, 2-bit): the
    /// scan-resistant age-based family the paper's §4.1 cites via
    /// Beckmann & Sanchez's RRIP models.
    Srrip,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::PLru => "tree-PLRU",
            ReplacementPolicy::Nmru => "NMRU",
            ReplacementPolicy::Srrip => "SRRIP",
        };
        f.write_str(s)
    }
}

/// Geometry and policy of one cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (64 everywhere in the paper).
    pub line_bytes: u64,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// An LRU cache with 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        let c = CacheConfig {
            size_bytes,
            ways,
            line_bytes: LINE_BYTES,
            replacement: ReplacementPolicy::Lru,
        };
        // lint:allow(no-unwrap): documented # Panics contract — construction fails fast on invalid geometry
        c.validate().expect("invalid cache geometry");
        c
    }

    /// Replace the replacement policy.
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.lines() / self.ways as u64
    }

    /// Check the geometry: positive sizes, capacity divisible into
    /// power-of-two sets, PLRU restricted to power-of-two ways.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || self.size_bytes == 0 || self.ways == 0 {
            return Err("sizes and associativity must be positive".into());
        }
        if !self.size_bytes.is_multiple_of(self.line_bytes) {
            return Err("capacity must be a multiple of the line size".into());
        }
        if !self.lines().is_multiple_of(self.ways as u64) {
            return Err("lines must divide evenly into ways".into());
        }
        let sets = self.sets();
        if sets == 0 {
            return Err("associativity exceeds capacity".into());
        }
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        if self.replacement == ReplacementPolicy::PLru && !self.ways.is_power_of_two() {
            return Err("tree-PLRU requires power-of-two ways".into());
        }
        Ok(())
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kib = self.size_bytes as f64 / 1024.0;
        if kib >= 1024.0 {
            write!(
                f,
                "{:.0} MiB {}-way {}",
                kib / 1024.0,
                self.ways,
                self.replacement
            )
        } else {
            write!(f, "{kib:.0} KiB {}-way {}", self.ways, self.replacement)
        }
    }
}

/// Hierarchy geometry: the data-side half of Table 1. (Table 1's L1-I
/// is not simulated: the traces carry data accesses only.)
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified last-level cache.
    pub llc: CacheConfig,
    /// L1-D MSHR entries (Table 1: 8).
    pub l1d_mshrs: u32,
    /// Outstanding-miss lifetime, measured in memory accesses (the
    /// trace-driven stand-in for memory latency).
    pub mshr_latency_accesses: u64,
}

impl HierarchyConfig {
    /// Table 1 at paper scale with an 8 MiB LLC.
    pub fn table1() -> Self {
        Self::for_scale_with_llc(Scale::paper(), 8 << 20)
    }

    /// Table 1 scaled, with the default 8 MiB (scaled) LLC.
    pub fn for_scale(scale: Scale) -> Self {
        Self::for_scale_with_llc(scale, 8 << 20)
    }

    /// Table 1 scaled, with an explicit paper-scale LLC size.
    fn for_scale_with_llc(scale: Scale, llc_paper_bytes: u64) -> Self {
        HierarchyConfig {
            l1d: CacheConfig::new(scale.bytes(64 << 10), 2),
            llc: CacheConfig::new(scale.bytes(llc_paper_bytes), 8),
            l1d_mshrs: 8,
            mshr_latency_accesses: 64,
        }
    }

    /// Validate every level.
    pub fn validate(&self) -> Result<(), String> {
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        self.llc.validate().map_err(|e| format!("llc: {e}"))?;
        if self.l1d_mshrs == 0 {
            return Err("l1d_mshrs must be positive".into());
        }
        Ok(())
    }
}

/// The full simulated machine: hierarchy plus prefetcher switch.
///
/// The CPU-side parameters (pipeline widths, predictor sizes) live in
/// `delorean-cpu`; this struct is what the warming strategies need.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Enable the 8-stream LLC stride prefetcher (§6.3.2).
    pub prefetch: bool,
}

impl MachineConfig {
    /// The Table 1 machine, scaled; prefetcher off (the paper's baseline).
    pub fn for_scale(scale: Scale) -> Self {
        MachineConfig {
            hierarchy: HierarchyConfig::for_scale(scale),
            prefetch: false,
        }
    }

    /// Same machine with a different paper-scale LLC size.
    pub fn with_llc_paper_bytes(mut self, scale: Scale, llc_paper_bytes: u64) -> Self {
        self.hierarchy = HierarchyConfig::for_scale_with_llc(scale, llc_paper_bytes);
        self
    }

    /// Enable/disable the LLC stride prefetcher.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// The paper's LLC sweep: 1 MiB to 512 MiB in powers of two (paper
    /// scale bytes; apply [`Scale::bytes`] for the experiment scale).
    pub fn llc_sweep_paper_bytes() -> Vec<u64> {
        (0..10).map(|i| (1u64 << i) << 20).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let h = HierarchyConfig::table1();
        assert_eq!(h.l1d.size_bytes, 64 << 10);
        assert_eq!(h.l1d.ways, 2);
        assert_eq!(h.l1d.sets(), 512);
        assert_eq!(h.llc.size_bytes, 8 << 20);
        assert_eq!(h.llc.ways, 8);
        assert_eq!(h.l1d_mshrs, 8);
        h.validate().unwrap();
    }

    #[test]
    fn scaled_hierarchy_stays_ordered() {
        for scale in [Scale::paper(), Scale::demo(), Scale::tiny()] {
            let h = HierarchyConfig::for_scale(scale);
            h.validate().unwrap();
            assert!(
                h.llc.size_bytes >= h.l1d.size_bytes,
                "LLC smaller than L1 at {scale}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let bad = CacheConfig {
            size_bytes: 1000,
            ways: 2,
            line_bytes: 64,
            replacement: ReplacementPolicy::Lru,
        };
        assert!(bad.validate().is_err());
        let bad_plru = CacheConfig {
            size_bytes: 64 * 64 * 3,
            ways: 3,
            line_bytes: 64,
            replacement: ReplacementPolicy::PLru,
        };
        assert!(bad_plru.validate().is_err());
        let npo2 = CacheConfig {
            size_bytes: 64 * 24,
            ways: 2,
            line_bytes: 64,
            replacement: ReplacementPolicy::Lru,
        };
        assert!(npo2.validate().is_err(), "12 sets is not a power of two");
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn constructor_panics_on_bad_geometry() {
        let _ = CacheConfig::new(100, 2);
    }

    #[test]
    fn llc_sweep_is_the_paper_range() {
        let sweep = MachineConfig::llc_sweep_paper_bytes();
        assert_eq!(sweep.len(), 10);
        assert_eq!(sweep[0], 1 << 20);
        assert_eq!(sweep[9], 512 << 20);
    }

    #[test]
    fn display_formats() {
        let c = CacheConfig::new(64 << 10, 2);
        assert_eq!(format!("{c}"), "64 KiB 2-way LRU");
        let l = CacheConfig::new(8 << 20, 8).with_replacement(ReplacementPolicy::Nmru);
        assert_eq!(format!("{l}"), "8 MiB 8-way NMRU");
    }
}
