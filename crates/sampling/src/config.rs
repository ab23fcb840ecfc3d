//! Region placement.

use delorean_trace::Scale;
use std::ops::Range;

/// Sampled-simulation layout parameters.
///
/// Defaults follow §5 of the paper: 10 detailed regions of 10 k
/// instructions spread uniformly (1 B instructions apart at paper scale),
/// each preceded by 30 k instructions of detailed warming. Region and
/// warming lengths are *not* scaled — the paper argues small regions are
/// the accuracy-critical case.
///
/// The embedded [`Scale`] also drives **representative cost accounting**:
/// a demo-scale run stands in for the paper-scale experiment, so host-cost
/// charges for warm-up-interval work (fast-forwarding, functional warming,
/// directed profiling windows) are multiplied by `scale.instr_div` to
/// reflect the *represented* work. Per-event costs (traps) and unscaled
/// work (detailed regions) are charged at face value. At
/// [`Scale::paper`] the multiplier is 1 and accounting is exact.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Number of detailed regions.
    pub regions: u32,
    /// Instructions between region starts.
    pub spacing_instrs: u64,
    /// Length of each detailed region, instructions.
    pub detailed_instrs: u64,
    /// Detailed warming before each region, instructions.
    pub warming_instrs: u64,
    /// The experiment scale this plan was derived from.
    pub scale: Scale,
}

impl SamplingConfig {
    /// The paper's layout at the given scale.
    pub fn for_scale(scale: Scale) -> Self {
        SamplingConfig {
            regions: 10,
            spacing_instrs: scale.instrs(1_000_000_000),
            detailed_instrs: 10_000,
            warming_instrs: 30_000,
            scale,
        }
    }

    /// Work multiplier for representative cost accounting of
    /// warm-up-interval work.
    pub fn work_multiplier(&self) -> u64 {
        self.scale.instr_div
    }

    /// Override the region count.
    pub fn with_regions(mut self, regions: u32) -> Self {
        self.regions = regions;
        self
    }

    /// Validate the layout.
    pub fn validate(&self) -> Result<(), String> {
        if self.regions == 0 {
            return Err("need at least one region".into());
        }
        if self.detailed_instrs == 0 {
            return Err("detailed region must be non-empty".into());
        }
        if self.spacing_instrs < self.warming_instrs + self.detailed_instrs {
            return Err(format!(
                "spacing {} too small for warming {} + detailed {}",
                self.spacing_instrs, self.warming_instrs, self.detailed_instrs
            ));
        }
        Ok(())
    }

    /// Materialize the region plan.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn plan(&self) -> RegionPlan {
        // lint:allow(no-unwrap): documented # Panics contract — planning fails fast on an invalid config
        self.validate().expect("invalid sampling config");
        let regions = (0..self.regions)
            .map(|i| {
                let start = (i as u64 + 1) * self.spacing_instrs;
                Region {
                    index: i,
                    start_instr: start,
                    warming: start - self.warming_instrs..start,
                    detailed: start..start + self.detailed_instrs,
                }
            })
            .collect();
        RegionPlan {
            config: *self,
            regions,
        }
    }
}

/// One detailed region with its warming window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Region number (0-based).
    pub index: u32,
    /// First instruction of the detailed region.
    pub start_instr: u64,
    /// Detailed-warming instruction range (immediately before the region).
    pub warming: Range<u64>,
    /// Detailed (measured) instruction range.
    pub detailed: Range<u64>,
}

impl Region {
    /// The instruction range available for cache warm-up: everything from
    /// the end of the previous region to the start of detailed warming.
    pub fn warmup_interval(&self, spacing: u64) -> Range<u64> {
        self.start_instr.saturating_sub(spacing)..self.warming.start
    }
}

/// The materialized set of regions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionPlan {
    /// The generating configuration.
    pub config: SamplingConfig,
    /// Regions in execution order.
    pub regions: Vec<Region>,
}

impl RegionPlan {
    /// Total instructions from program start to the end of the last
    /// detailed region, at run scale.
    pub fn total_instrs(&self) -> u64 {
        self.regions
            .last()
            .map(|r| r.detailed.end)
            .unwrap_or_default()
    }

    /// Paper-equivalent instructions this run represents (run-scale
    /// coverage times the work multiplier) — the numerator of every MIPS
    /// figure.
    pub fn represented_instrs(&self) -> u64 {
        self.total_instrs() * self.config.work_multiplier()
    }

    /// Total instructions measured in detail.
    pub fn detailed_instrs(&self) -> u64 {
        self.config.detailed_instrs * self.regions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout() {
        let p = SamplingConfig::for_scale(Scale::paper()).plan();
        assert_eq!(p.regions.len(), 10);
        assert_eq!(p.regions[0].start_instr, 1_000_000_000);
        assert_eq!(p.regions[9].start_instr, 10_000_000_000);
        assert_eq!(p.regions[0].detailed.clone().count(), 10_000);
        assert_eq!(p.regions[0].warming.clone().count(), 30_000);
        assert_eq!(p.total_instrs(), 10_000_000_000 + 10_000);
        assert_eq!(p.detailed_instrs(), 100_000);
    }

    #[test]
    fn warming_abuts_detailed() {
        let p = SamplingConfig::for_scale(Scale::demo()).plan();
        for r in &p.regions {
            assert_eq!(r.warming.end, r.detailed.start);
            assert_eq!(r.detailed.start, r.start_instr);
        }
    }

    #[test]
    fn warmup_interval_spans_the_gap() {
        let cfg = SamplingConfig::for_scale(Scale::demo());
        let p = cfg.plan();
        let r1 = &p.regions[1];
        let iv = r1.warmup_interval(cfg.spacing_instrs);
        assert_eq!(iv.start, p.regions[0].start_instr);
        assert_eq!(iv.end, r1.warming.start);
    }

    #[test]
    fn validation_rejects_tight_spacing() {
        let bad = SamplingConfig {
            regions: 2,
            spacing_instrs: 20_000,
            detailed_instrs: 10_000,
            warming_instrs: 30_000,
            scale: Scale::paper(),
        };
        assert!(bad.validate().is_err());
        assert!(SamplingConfig::for_scale(Scale::tiny()).validate().is_ok());
    }

    #[test]
    fn with_regions_override() {
        let p = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan();
        assert_eq!(p.regions.len(), 3);
    }
}
