//! DeLorean configuration.

use delorean_trace::Scale;

/// Parameters of the DSW + TT methodology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeLoreanConfig {
    /// Explorer window lengths in instructions before the region start,
    /// shortest first (§3.3: 5 M, 50 M, 100 M, 1 B at paper scale).
    /// Explorer *k* profiles from `windows[k]` before the region to the
    /// region start, for the keys the previous explorers left unresolved.
    pub explorer_windows_instrs: Vec<u64>,
    /// Vicinity sampling period: one sampled access per this many *memory*
    /// instructions (§3.3: 100 k; Figure 11 sweeps 10 k / 100 k / 1 M).
    pub vicinity_period_accesses: u64,
    /// Seed for vicinity sampling decisions.
    pub seed: u64,
    /// Model warming misses as hits (§3.1.2). `false` only for the
    /// ablation that quantifies the insight's value.
    pub warming_miss_as_hit: bool,
}

impl DeLoreanConfig {
    /// The paper's configuration at the given scale.
    pub fn for_scale(scale: Scale) -> Self {
        DeLoreanConfig {
            explorer_windows_instrs: vec![
                scale.instrs(5_000_000),
                scale.instrs(50_000_000),
                scale.instrs(100_000_000),
                scale.instrs(1_000_000_000),
            ],
            vicinity_period_accesses: scale.sample_period(100_000),
            seed: 0xde10_4ea4,
            warming_miss_as_hit: true,
        }
    }

    /// Ablation: count warming misses as misses.
    pub fn with_warming_miss_as_miss(mut self) -> Self {
        self.warming_miss_as_hit = false;
        self
    }

    /// Override the vicinity sampling period (paper-scale memory
    /// instructions), rescaled.
    pub fn with_vicinity_period(mut self, scale: Scale, paper_period: u64) -> Self {
        self.vicinity_period_accesses = scale.sample_period(paper_period);
        self
    }

    /// Use only the first `n` explorer windows (ablation).
    pub fn with_max_explorers(mut self, n: usize) -> Self {
        self.explorer_windows_instrs.truncate(n.max(1));
        self
    }

    /// Validate: windows strictly increasing and non-empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.explorer_windows_instrs.is_empty() {
            return Err("need at least one explorer window".into());
        }
        if self.explorer_windows_instrs.len() > crate::MAX_EXPLORERS {
            return Err(format!(
                "at most {} explorers supported",
                crate::MAX_EXPLORERS
            ));
        }
        if !self.explorer_windows_instrs.windows(2).all(|w| w[0] < w[1]) {
            return Err("explorer windows must be strictly increasing".into());
        }
        if self.vicinity_period_accesses == 0 {
            return Err("vicinity period must be ≥ 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_windows() {
        let c = DeLoreanConfig::for_scale(Scale::paper());
        assert_eq!(
            c.explorer_windows_instrs,
            vec![5_000_000, 50_000_000, 100_000_000, 1_000_000_000]
        );
        assert_eq!(c.vicinity_period_accesses, 100_000);
        c.validate().unwrap();
    }

    #[test]
    fn scaled_windows_preserve_ordering() {
        for scale in [Scale::demo(), Scale::tiny()] {
            let c = DeLoreanConfig::for_scale(scale);
            c.validate().unwrap();
        }
    }

    #[test]
    fn ablation_truncates_windows() {
        let c = DeLoreanConfig::for_scale(Scale::paper()).with_max_explorers(2);
        assert_eq!(c.explorer_windows_instrs.len(), 2);
        c.validate().unwrap();
    }

    #[test]
    fn vicinity_override() {
        let c =
            DeLoreanConfig::for_scale(Scale::paper()).with_vicinity_period(Scale::paper(), 10_000);
        assert_eq!(c.vicinity_period_accesses, 10_000);
    }

    #[test]
    fn validation_rejects_bad_windows() {
        let mut c = DeLoreanConfig::for_scale(Scale::paper());
        c.explorer_windows_instrs = vec![10, 10];
        assert!(c.validate().is_err());
        c.explorer_windows_instrs = vec![];
        assert!(c.validate().is_err());
        let mut d = DeLoreanConfig::for_scale(Scale::paper());
        d.vicinity_period_accesses = 0;
        assert!(d.validate().is_err());
        let mut e = DeLoreanConfig::for_scale(Scale::paper());
        e.explorer_windows_instrs = vec![1, 2, 3, 4, 5];
        assert!(e.validate().is_err());
    }
}
