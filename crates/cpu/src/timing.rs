//! The out-of-order interval timing model.

use delorean_cache::MemLevel;

/// Timing parameters of the modeled core (CPU half of Table 1).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TimingConfig {
    /// Issue width (Table 1: 8).
    pub issue_width: u32,
    /// Reorder-buffer entries (Table 1: 192); bounds MLP overlap.
    pub rob_entries: u32,
    /// Branch misprediction penalty, cycles.
    pub mispredict_penalty: u32,
    /// L1 hit latency beyond the pipelined base, cycles (usually hidden).
    pub l1_hit_extra: u32,
    /// Extra latency of an MSHR (delayed) hit, cycles.
    pub mshr_hit_extra: u32,
    /// LLC hit latency, cycles.
    pub llc_latency: u32,
    /// Main memory latency, cycles.
    pub memory_latency: u32,
    /// Maximum overlapped misses within one ROB window (MLP ceiling).
    pub max_mlp: u32,
}

impl TimingConfig {
    /// The Table 1 core.
    pub fn table1() -> Self {
        TimingConfig {
            issue_width: 8,
            rob_entries: 192,
            mispredict_penalty: 15,
            l1_hit_extra: 0,
            mshr_hit_extra: 6,
            llc_latency: 30,
            memory_latency: 200,
            max_mlp: 6,
        }
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.issue_width == 0 || self.rob_entries == 0 || self.max_mlp == 0 {
            return Err("issue width, ROB and MLP must be positive".into());
        }
        Ok(())
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// Cycle breakdown accumulated by [`IntervalCore`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CpiBreakdown {
    /// Cycles from issue-width-limited retirement.
    pub base: f64,
    /// Cycles from branch mispredictions.
    pub branch: f64,
    /// Cycles from MSHR (delayed) hits.
    pub mshr: f64,
    /// Cycles from LLC hits (L2 access latency).
    pub llc: f64,
    /// Cycles from memory accesses (LLC misses), after MLP overlap.
    pub memory: f64,
}

impl CpiBreakdown {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.base + self.branch + self.mshr + self.llc + self.memory
    }
}

/// Streaming interval model: feed it retired instructions, branch
/// resolutions and memory outcomes; read back cycles and CPI.
///
/// Memory-level parallelism: a memory-latency event whose triggering
/// instruction is within `rob_entries` instructions of the previous one is
/// considered overlapped and charged `memory_latency / max_mlp` instead of
/// the full latency (the first miss of a burst pays in full). The same
/// window logic, with a lighter discount, applies to LLC hits.
///
/// ```
/// use delorean_cpu::{IntervalCore, TimingConfig};
///
/// let mut core = IntervalCore::new(TimingConfig::table1());
/// core.retire(1000);
/// assert!((core.cpi() - 1.0 / 8.0).abs() < 1e-9); // pure issue-limited
/// ```
#[derive(Clone, Debug)]
pub struct IntervalCore {
    cfg: TimingConfig,
    instrs: u64,
    breakdown: CpiBreakdown,
    last_memory_icount: Option<u64>,
    last_llc_icount: Option<u64>,
}

impl IntervalCore {
    /// A core with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: TimingConfig) -> Self {
        // lint:allow(no-unwrap): documented # Panics contract — construction fails fast on an invalid config
        cfg.validate().expect("invalid timing config");
        IntervalCore {
            cfg,
            instrs: 0,
            breakdown: CpiBreakdown::default(),
            last_memory_icount: None,
            last_llc_icount: None,
        }
    }

    /// Retire `n` instructions (charges base cycles).
    #[inline]
    pub fn retire(&mut self, n: u64) {
        self.instrs += n;
        self.breakdown.base += n as f64 / self.cfg.issue_width as f64;
    }

    /// Account a resolved branch.
    #[inline]
    pub fn branch(&mut self, mispredicted: bool) {
        if mispredicted {
            self.breakdown.branch += self.cfg.mispredict_penalty as f64;
        }
    }

    /// Account a memory access served at `level`, issued by the
    /// instruction with (local) index `icount`.
    #[inline]
    pub fn mem_access(&mut self, level: MemLevel, icount: u64) {
        let rob = self.cfg.rob_entries as u64;
        match level {
            MemLevel::L1 => {
                self.breakdown.base += self.cfg.l1_hit_extra as f64;
            }
            MemLevel::Mshr => {
                self.breakdown.mshr += self.cfg.mshr_hit_extra as f64;
            }
            MemLevel::Llc => {
                let overlapped = self
                    .last_llc_icount
                    .is_some_and(|p| icount.saturating_sub(p) < rob / 2);
                let lat = self.cfg.llc_latency as f64;
                self.breakdown.llc += if overlapped { lat / 3.0 } else { lat };
                self.last_llc_icount = Some(icount);
            }
            MemLevel::Memory => {
                let overlapped = self
                    .last_memory_icount
                    .is_some_and(|p| icount.saturating_sub(p) < rob);
                let lat = self.cfg.memory_latency as f64;
                self.breakdown.memory += if overlapped {
                    lat / self.cfg.max_mlp as f64
                } else {
                    lat
                };
                self.last_memory_icount = Some(icount);
            }
        }
    }

    /// Instructions retired.
    pub fn instructions(&self) -> u64 {
        self.instrs
    }

    /// Total cycles.
    pub fn cycles(&self) -> f64 {
        self.breakdown.total()
    }

    /// Cycles per instruction (0 before any retirement).
    pub fn cpi(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.cycles() / self.instrs as f64
        }
    }

    /// The cycle breakdown.
    pub fn breakdown(&self) -> &CpiBreakdown {
        &self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_cpi_is_inverse_width() {
        let mut c = IntervalCore::new(TimingConfig::table1());
        c.retire(800);
        assert!((c.cpi() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn mispredicts_add_penalty() {
        let mut c = IntervalCore::new(TimingConfig::table1());
        c.retire(1000);
        for _ in 0..10 {
            c.branch(true);
        }
        c.branch(false);
        assert!((c.breakdown().branch - 150.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_memory_misses_pay_full_latency() {
        let mut c = IntervalCore::new(TimingConfig::table1());
        c.retire(10_000);
        c.mem_access(MemLevel::Memory, 0);
        c.mem_access(MemLevel::Memory, 5_000);
        assert!((c.breakdown().memory - 400.0).abs() < 1e-12);
    }

    #[test]
    fn clustered_misses_overlap() {
        let cfg = TimingConfig::table1();
        let mut c = IntervalCore::new(cfg);
        c.retire(1000);
        c.mem_access(MemLevel::Memory, 0);
        for i in 1..6u64 {
            c.mem_access(MemLevel::Memory, i * 10); // well inside the ROB
        }
        let expect = 200.0 + 5.0 * 200.0 / cfg.max_mlp as f64;
        assert!(
            (c.breakdown().memory - expect).abs() < 1e-9,
            "memory cycles {}",
            c.breakdown().memory
        );
    }

    #[test]
    fn llc_hits_cost_less_than_memory() {
        let mut a = IntervalCore::new(TimingConfig::table1());
        a.retire(1000);
        a.mem_access(MemLevel::Llc, 0);
        let mut b = IntervalCore::new(TimingConfig::table1());
        b.retire(1000);
        b.mem_access(MemLevel::Memory, 0);
        assert!(a.cycles() < b.cycles());
    }

    #[test]
    fn l1_and_mshr_hits_are_cheap() {
        let cfg = TimingConfig::table1();
        let mut c = IntervalCore::new(cfg);
        c.retire(100);
        c.mem_access(MemLevel::L1, 0);
        c.mem_access(MemLevel::Mshr, 1);
        let expect = 100.0 / 8.0 + cfg.mshr_hit_extra as f64;
        assert!((c.cycles() - expect).abs() < 1e-9);
    }

    #[test]
    fn cpi_of_empty_core_is_zero() {
        let c = IntervalCore::new(TimingConfig::table1());
        assert_eq!(c.cpi(), 0.0);
    }

    #[test]
    fn rob_boundary_separates_bursts() {
        let cfg = TimingConfig::table1();
        let mut c = IntervalCore::new(cfg);
        c.retire(10_000);
        c.mem_access(MemLevel::Memory, 0);
        // Exactly at the ROB boundary: NOT overlapped (window is strict).
        c.mem_access(MemLevel::Memory, cfg.rob_entries as u64);
        assert!((c.breakdown().memory - 400.0).abs() < 1e-9);
        // One instruction inside: overlapped.
        c.mem_access(MemLevel::Memory, 2 * cfg.rob_entries as u64 - 1);
        let expect = 400.0 + 200.0 / cfg.max_mlp as f64;
        assert!((c.breakdown().memory - expect).abs() < 1e-9);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let mut c = IntervalCore::new(TimingConfig::table1());
        c.retire(5_000);
        for i in 0..40u64 {
            c.branch(i % 7 == 0);
            c.mem_access(
                match i % 4 {
                    0 => MemLevel::L1,
                    1 => MemLevel::Mshr,
                    2 => MemLevel::Llc,
                    _ => MemLevel::Memory,
                },
                i * 97,
            );
        }
        let b = c.breakdown();
        let sum = b.base + b.branch + b.mshr + b.llc + b.memory;
        assert!((sum - c.cycles()).abs() < 1e-9);
        assert!(b.branch > 0.0 && b.mshr > 0.0 && b.llc > 0.0 && b.memory > 0.0);
    }

    #[test]
    fn wider_issue_lowers_base_cpi() {
        let narrow = TimingConfig {
            issue_width: 2,
            ..TimingConfig::table1()
        };
        let mut a = IntervalCore::new(narrow);
        a.retire(1_000);
        let mut b = IntervalCore::new(TimingConfig::table1());
        b.retire(1_000);
        assert!(a.cpi() > b.cpi());
        assert!((a.cpi() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid timing config")]
    fn zero_width_rejected() {
        let cfg = TimingConfig {
            issue_width: 0,
            ..TimingConfig::table1()
        };
        let _ = IntervalCore::new(cfg);
    }
}
