//! The limited-associativity (dominant-stride) conflict model.
//!
//! §3.1.2 of the paper: "some load PCs exhibit a dominant large stride,
//! which results in uneven usage of the cache sets. For example, a 512-byte
//! stride will only touch upon one eighth of the cache sets assuming a
//! 64-byte cacheline." Such strides shrink the *effective* cache an access
//! stream can use, turning what the capacity model would call hits into
//! conflict misses. DeLorean inherits this model from CoolSim (reference
//! \[23\] of the paper).

use delorean_trace::{FlatMap, LineAddr, Pc, PcMap};

/// Effective number of cachelines usable by an access stream with a
/// dominant stride of `stride_lines` lines, in a cache of `sets` sets ×
/// `ways` ways.
///
/// An arithmetic progression with step `s` over `Z_sets` visits
/// `sets / gcd(s, sets)` distinct sets; each contributes `ways` lines.
/// A stride of 0 mod `sets` pins the stream to a single set.
pub fn effective_cache_lines(sets: u64, ways: u64, stride_lines: u64) -> u64 {
    assert!(sets > 0 && ways > 0, "degenerate cache geometry");
    let s = stride_lines % sets;
    if s == 0 {
        return ways;
    }
    (sets / gcd(s, sets)) * ways
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Minimum observations before a stride verdict is attempted.
const MIN_OBSERVATIONS: u32 = 8;
/// Fraction (per mille) of deltas that must agree for a stride to be
/// "dominant".
const DOMINANCE_PERMILLE: u32 = 600;

/// Online dominant-stride detector for a single PC.
#[derive(Clone, Debug, Default)]
pub struct StrideDetector {
    last_line: Option<u64>,
    deltas: FlatMap<i64, u32>,
    total_deltas: u32,
}

impl StrideDetector {
    /// Fresh detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe the next line touched by this PC.
    pub fn observe(&mut self, line: LineAddr) {
        if let Some(prev) = self.last_line {
            let delta = line.0 as i64 - prev as i64;
            *self.deltas.or_default(delta) += 1;
            self.total_deltas += 1;
        }
        self.last_line = Some(line.0);
    }

    /// Number of observed deltas.
    pub fn observations(&self) -> u32 {
        self.total_deltas
    }

    /// The dominant stride in lines, if one exists: at least
    /// `MIN_OBSERVATIONS` (8) deltas, ≥ 60% agreeing, and magnitude > 1
    /// (unit strides use sets evenly and need no correction).
    pub fn dominant_stride(&self) -> Option<u64> {
        if self.total_deltas < MIN_OBSERVATIONS {
            return None;
        }
        let (delta, &count) = self.deltas.iter().max_by_key(|&(_, &c)| c)?;
        if count * 1000 < self.total_deltas * DOMINANCE_PERMILLE {
            return None;
        }
        let mag = delta.unsigned_abs();
        if mag <= 1 {
            return None;
        }
        Some(mag)
    }
}

/// Per-PC limited-associativity model: detects dominant strides and shrinks
/// the effective cache size used by capacity classification.
#[derive(Clone, Debug, Default)]
pub struct LimitedAssocModel {
    per_pc: PcMap<StrideDetector>,
}

impl LimitedAssocModel {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe an access (typically key-cacheline first accesses or
    /// sampled vicinity accesses).
    pub fn observe(&mut self, pc: Pc, line: LineAddr) {
        self.per_pc.or_default(pc).observe(line);
    }

    /// The dominant stride of `pc`, if detected.
    pub fn dominant_stride(&self, pc: Pc) -> Option<u64> {
        self.per_pc.get(pc).and_then(|d| d.dominant_stride())
    }

    /// Effective cache size (in lines) available to accesses from `pc` in
    /// a `sets` × `ways` cache. Full size unless a dominant stride shrinks
    /// the usable sets.
    pub fn effective_lines(&self, pc: Pc, sets: u64, ways: u64) -> u64 {
        match self.dominant_stride(pc) {
            Some(stride) => effective_cache_lines(sets, ways, stride),
            None => sets * ways,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_lines_for_paper_example() {
        // 512-byte stride = 8 lines; with 128 sets only 1/8 of sets used.
        let sets = 128;
        let ways = 8;
        assert_eq!(effective_cache_lines(sets, ways, 8), sets / 8 * ways);
        // Unit stride uses everything.
        assert_eq!(effective_cache_lines(sets, ways, 1), sets * ways);
        // Stride equal to the set count pins one set.
        assert_eq!(effective_cache_lines(sets, ways, 128), ways);
        // Odd strides are coprime with power-of-two sets: full usage.
        assert_eq!(effective_cache_lines(sets, ways, 7), sets * ways);
    }

    #[test]
    #[should_panic(expected = "degenerate cache geometry")]
    fn effective_lines_rejects_zero_sets() {
        effective_cache_lines(0, 8, 1);
    }

    #[test]
    fn detector_finds_constant_stride() {
        let mut d = StrideDetector::new();
        for i in 0..20u64 {
            d.observe(LineAddr(i * 8));
        }
        assert_eq!(d.dominant_stride(), Some(8));
    }

    #[test]
    fn detector_ignores_unit_stride_and_noise() {
        let mut unit = StrideDetector::new();
        for i in 0..20u64 {
            unit.observe(LineAddr(i));
        }
        assert_eq!(unit.dominant_stride(), None);

        let mut noisy = StrideDetector::new();
        for i in 0..40u64 {
            noisy.observe(LineAddr(delorean_trace::mix64(1, i) % 1000));
        }
        assert_eq!(noisy.dominant_stride(), None);
    }

    #[test]
    fn detector_needs_enough_observations() {
        let mut d = StrideDetector::new();
        for i in 0..4u64 {
            d.observe(LineAddr(i * 16));
        }
        assert_eq!(d.dominant_stride(), None, "too few observations");
    }

    #[test]
    fn detector_tolerates_minority_noise() {
        let mut d = StrideDetector::new();
        let mut line = 0u64;
        for i in 0..50u64 {
            line = if i % 5 == 4 {
                delorean_trace::mix64(2, i) % 512
            } else {
                line + 8
            };
            d.observe(LineAddr(line));
        }
        assert_eq!(d.dominant_stride(), Some(8));
    }

    #[test]
    fn model_applies_per_pc() {
        let mut m = LimitedAssocModel::new();
        for i in 0..20u64 {
            m.observe(Pc(0x1), LineAddr(i * 8));
            m.observe(Pc(0x2), LineAddr(delorean_trace::mix64(3, i) % 4096));
        }
        assert_eq!(m.effective_lines(Pc(0x1), 128, 8), 128);
        assert_eq!(m.effective_lines(Pc(0x2), 128, 8), 1024);
        assert_eq!(m.effective_lines(Pc(0x999), 128, 8), 1024);
    }
}
