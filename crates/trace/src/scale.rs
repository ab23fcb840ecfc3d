//! Experiment scaling.
//!
//! The paper's configuration (1 B instructions between detailed regions,
//! Explorer windows up to 1 B instructions, LLCs up to 512 MiB) is too large
//! to sweep across 24 workloads × 3 methodologies × 10 cache sizes in a
//! test/bench harness. [`Scale`] shrinks the *instruction* dimension and the
//! *size* dimension by constant factors while keeping every structural
//! relation intact: Explorer windows keep their 10×/2×/10× progression,
//! the CoolSim schedule keeps its 75/20/5 split, workloads keep their
//! footprint ratios, and the detailed-region (10 k) and detailed-warming
//! (30 k) lengths are intentionally *not* scaled — the paper argues small
//! regions are the hard, interesting case.

/// Scale factors applied to paper-scale instruction counts and sizes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Divide paper-scale instruction counts by this.
    pub instr_div: u64,
    /// Divide paper-scale byte sizes (footprints, cache sizes) by this.
    pub size_div: u64,
    /// Preset name for reports.
    pub label: &'static str,
}

impl Scale {
    /// The paper's configuration, unscaled.
    pub fn paper() -> Self {
        Scale {
            instr_div: 1,
            size_div: 1,
            label: "paper",
        }
    }

    /// Default experiment scale: 1/100 instructions, 1/64 sizes.
    ///
    /// Region spacing 1 B → 10 M instructions; LLC sweep 1–512 MiB →
    /// 16 KiB–8 MiB; SPEC footprints shrink by the same 64×.
    pub fn demo() -> Self {
        Scale {
            instr_div: 100,
            size_div: 64,
            label: "demo",
        }
    }

    /// Aggressive scale for unit/integration tests.
    pub fn tiny() -> Self {
        Scale {
            instr_div: 4000,
            size_div: 1024,
            label: "tiny",
        }
    }

    /// Scale a paper-scale instruction count (min 1).
    pub fn instrs(&self, paper_instrs: u64) -> u64 {
        (paper_instrs / self.instr_div).max(1)
    }

    /// Scale a paper-scale byte size, clamped to one page (4 KiB).
    ///
    /// The rule is *graduated*: large structures (LLCs, multi-megabyte
    /// footprints) shrink by the full `size_div`, while small structures
    /// (L1 caches, hot working sets — anything ≤ 64 KiB at paper scale)
    /// shrink by at most 8×. Scaling a 64 KiB L1 by the same 64× that
    /// shrinks a 512 MiB LLC would leave a 16-line cache, destroying the
    /// lukewarm-hit behaviour the methodology depends on.
    pub fn bytes(&self, paper_bytes: u64) -> u64 {
        let small_div = self.size_div.min(8);
        let large = paper_bytes / self.size_div;
        let small = paper_bytes.min(64 << 10) / small_div;
        large.max(small).max(4096).min(paper_bytes.max(4096))
    }

    /// Scale a paper-scale byte size and convert to cachelines.
    pub fn lines(&self, paper_bytes: u64) -> u64 {
        self.bytes(paper_bytes) / crate::LINE_BYTES
    }

    /// Scale a sampling period of the form "one sample per `period`
    /// instructions" so that the expected *number* of samples per region is
    /// preserved (periods shrink with the instruction scale).
    pub fn sample_period(&self, paper_period: u64) -> u64 {
        (paper_period / self.instr_div).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::demo()
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (instr ÷{}, size ÷{})",
            self.label, self.instr_div, self.size_div
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_identity() {
        let s = Scale::paper();
        assert_eq!(s.instrs(1_000_000_000), 1_000_000_000);
        assert_eq!(s.bytes(512 << 20), 512 << 20);
        assert_eq!(s.lines(1 << 20), (1 << 20) / 64);
    }

    #[test]
    fn demo_scale_shrinks_dimensions() {
        let s = Scale::demo();
        assert_eq!(s.instrs(1_000_000_000), 10_000_000);
        assert_eq!(s.bytes(512 << 20), 8 << 20);
        assert_eq!(s.bytes(1 << 20), 16 << 10);
    }

    #[test]
    fn small_structures_shrink_gently() {
        let s = Scale::demo();
        // A 64 KiB L1 shrinks 8×, not 64×.
        assert_eq!(s.bytes(64 << 10), 8 << 10);
        // An 8 KiB hot set hits the page floor.
        assert_eq!(s.bytes(8 << 10), 4096);
    }

    #[test]
    fn scaled_size_never_exceeds_paper_size() {
        let s = Scale::demo();
        for b in [4096u64, 8 << 10, 64 << 10, 1 << 20, 512 << 20] {
            assert!(s.bytes(b) <= b);
        }
    }

    #[test]
    fn clamps_apply() {
        let s = Scale::tiny();
        assert_eq!(s.bytes(1), 4096);
        assert_eq!(s.instrs(1), 1);
        assert_eq!(s.sample_period(100), 1);
    }

    #[test]
    fn sample_period_preserves_expected_counts() {
        let s = Scale::demo();
        // Paper: 1 B instructions at 1/100k → 10k samples.
        // Demo: 10 M instructions at scaled period → still 10k samples.
        let paper_interval = 1_000_000_000u64;
        let paper_period = 100_000u64;
        let scaled = s.sample_period(paper_period);
        assert_eq!(
            s.instrs(paper_interval) / scaled,
            paper_interval / paper_period
        );
    }

    #[test]
    fn display_mentions_label() {
        assert!(format!("{}", Scale::demo()).contains("demo"));
    }
}
