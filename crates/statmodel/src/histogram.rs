//! Log-bucketed distance histograms.

/// Distances below this are stored exactly, one bucket per value.
const EXACT_LIMIT: u64 = 128;
/// Sub-buckets per octave above the exact range.
const SUBS_PER_OCTAVE: u64 = 8;
/// log2 of `EXACT_LIMIT`.
const EXACT_BITS: u32 = EXACT_LIMIT.trailing_zeros();
/// Largest representable distance (2^48 accesses ≈ far beyond any window).
const MAX_BITS: u32 = 48;
/// Total number of buckets.
const NUM_BUCKETS: usize =
    EXACT_LIMIT as usize + ((MAX_BITS - EXACT_BITS) as usize) * SUBS_PER_OCTAVE as usize + 1;

/// A weighted histogram over distances with exact small buckets and
/// logarithmic large buckets (8 sub-buckets per octave).
///
/// The resolution matches what statistical cache modeling needs: exact for
/// short reuses (where one line decides hit/miss in a small cache) and
/// ~9% relative error for long reuses (where miss-ratio curves are smooth).
///
/// ```
/// use delorean_statmodel::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.add(3, 2.0);
/// h.add(1_000_000, 1.0);
/// assert_eq!(h.total(), 3.0);
/// assert!(h.p_ge(4) > 0.3 && h.p_ge(4) < 0.4);
/// ```
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<f64>,
    total: f64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0.0; NUM_BUCKETS],
            total: 0.0,
        }
    }

    /// Bucket index for a distance.
    #[inline]
    fn bucket_of(d: u64) -> usize {
        if d < EXACT_LIMIT {
            return d as usize;
        }
        if d >= 1u64 << MAX_BITS {
            // Overflow bucket: distances beyond 2^48 accesses.
            return NUM_BUCKETS - 1;
        }
        let bits = 63 - d.leading_zeros() as u64; // floor(log2 d) >= EXACT_BITS
        let octave = bits - EXACT_BITS as u64;
        // Position within the octave, quantized into SUBS_PER_OCTAVE.
        let base = 1u64 << bits;
        let sub = ((d - base) * SUBS_PER_OCTAVE) >> bits;
        (EXACT_LIMIT + octave * SUBS_PER_OCTAVE + sub) as usize
    }

    /// Smallest distance mapping to bucket `b`.
    #[inline]
    fn bucket_lo(b: usize) -> u64 {
        if b < EXACT_LIMIT as usize {
            return b as u64;
        }
        let rel = b as u64 - EXACT_LIMIT;
        let octave = rel / SUBS_PER_OCTAVE;
        let sub = rel % SUBS_PER_OCTAVE;
        let base = 1u64 << (EXACT_BITS as u64 + octave);
        base + (sub * base) / SUBS_PER_OCTAVE
    }

    /// Representative (midpoint) distance of bucket `b`.
    #[inline]
    pub fn bucket_rep(b: usize) -> u64 {
        if b < EXACT_LIMIT as usize {
            return b as u64;
        }
        let lo = Self::bucket_lo(b);
        let hi = if b + 1 < NUM_BUCKETS {
            Self::bucket_lo(b + 1)
        } else {
            lo * 2
        };
        lo + (hi - lo) / 2
    }

    /// Add `weight` samples at distance `d`.
    #[inline]
    pub fn add(&mut self, d: u64, weight: f64) {
        self.counts[Self::bucket_of(d)] += weight;
        self.total += weight;
    }

    /// Total weight recorded.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0.0
    }

    /// Fraction of recorded weight at distances `≥ d`.
    ///
    /// Returns 0 for an empty histogram.
    pub fn p_ge(&self, d: u64) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let b = Self::bucket_of(d);
        let mut acc: f64 = self.counts[b + 1..].iter().sum();
        // Within bucket `b`, assume uniform spread between lo and next lo.
        let lo = Self::bucket_lo(b);
        let hi = if b + 1 < NUM_BUCKETS {
            Self::bucket_lo(b + 1)
        } else {
            lo + 1
        };
        let frac_ge = if hi > lo {
            (hi - d.min(hi)) as f64 / (hi - lo) as f64
        } else {
            0.0
        };
        acc += self.counts[b] * frac_ge;
        acc / self.total
    }

    /// Expected value of `min(distance, cap)` under the recorded
    /// distribution — the StatStack kernel. Returns 0 for an empty
    /// histogram.
    pub fn expected_min(&self, cap: u64) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            acc += c * Self::bucket_rep(b).min(cap) as f64;
        }
        acc / self.total
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Iterate over non-empty buckets as `(representative_distance, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(b, &c)| (Self::bucket_rep(b), c))
    }

    /// Weighted mean distance (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        self.iter().map(|(d, c)| d as f64 * c).sum::<f64>() / self.total
    }

    /// Smallest distance `d` such that at least `q` of the weight lies at
    /// distances `≤ d`. `q` is clamped to `[0, 1]`. Returns 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0.0 {
            return 0;
        }
        let target = self.total * q.clamp(0.0, 1.0);
        // `acc` sums in bucket order while `total` was accumulated in
        // insertion order, so float rounding can leave `acc` a hair below
        // `target` even after the last occupied bucket. Never answer past
        // the last non-empty bucket — falling through to the overflow
        // bucket would report a ~2^48 distance for a histogram whose
        // weight sits entirely in low buckets.
        let mut acc = 0.0;
        let mut last_nonempty = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            acc += c;
            last_nonempty = b;
            if acc >= target {
                return Self::bucket_rep(b);
            }
        }
        Self::bucket_rep(last_nonempty)
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("total", &self.total)
            .field("mean", &self.mean())
            .field("nonempty_buckets", &self.iter().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_distances_are_exact() {
        let mut h = LogHistogram::new();
        for d in 0..EXACT_LIMIT {
            h.add(d, 1.0);
        }
        for d in 0..EXACT_LIMIT {
            assert_eq!(LogHistogram::bucket_of(d), d as usize);
            assert_eq!(LogHistogram::bucket_rep(d as usize), d);
        }
        assert_eq!(h.total(), EXACT_LIMIT as f64);
    }

    #[test]
    fn buckets_are_monotonic_and_cover_range() {
        let mut prev = 0;
        for d in [
            1u64,
            100,
            128,
            129,
            1000,
            4096,
            100_000,
            1 << 30,
            1 << 47,
            u64::MAX,
        ] {
            let b = LogHistogram::bucket_of(d);
            assert!(b >= prev, "bucket order violated at {d}");
            assert!(b < NUM_BUCKETS);
            prev = b;
        }
    }

    #[test]
    fn bucket_lo_inverts_bucket_of() {
        for b in 0..NUM_BUCKETS {
            let lo = LogHistogram::bucket_lo(b);
            assert_eq!(
                LogHistogram::bucket_of(lo),
                b,
                "bucket_of(bucket_lo({b})) mismatch (lo = {lo})"
            );
        }
    }

    #[test]
    fn relative_error_of_representatives_is_bounded() {
        for d in [200u64, 1_000, 50_000, 1_000_000, 1 << 35] {
            let rep = LogHistogram::bucket_rep(LogHistogram::bucket_of(d));
            let rel = (rep as f64 - d as f64).abs() / d as f64;
            assert!(rel < 0.13, "distance {d}: rep {rep}, rel err {rel}");
        }
    }

    #[test]
    fn p_ge_is_a_complementary_cdf() {
        let mut h = LogHistogram::new();
        h.add(10, 1.0);
        h.add(20, 1.0);
        h.add(40, 2.0);
        assert!((h.p_ge(0) - 1.0).abs() < 1e-12);
        assert!((h.p_ge(11) - 0.75).abs() < 1e-12);
        assert!((h.p_ge(21) - 0.5).abs() < 1e-12);
        assert!((h.p_ge(41) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn expected_min_saturates() {
        let mut h = LogHistogram::new();
        h.add(10, 1.0);
        h.add(100, 1.0);
        assert!((h.expected_min(1_000) - 55.0).abs() < 1.0);
        assert!((h.expected_min(50) - 30.0).abs() < 1.0);
        assert!((h.expected_min(5) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LogHistogram::new();
        a.add(5, 1.0);
        let mut b = LogHistogram::new();
        b.add(500, 3.0);
        a.merge(&b);
        assert_eq!(a.total(), 4.0);
        assert!((a.p_ge(100) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut h = LogHistogram::new();
        for d in 1..=100u64 {
            h.add(d, 1.0);
        }
        assert!(h.quantile(0.5) >= 49 && h.quantile(0.5) <= 51);
        assert_eq!(h.quantile(0.0), 1);
        assert!(h.quantile(1.0) >= 99);
    }

    #[test]
    fn quantile_boundaries_and_single_bucket() {
        // Single-bucket histogram: every quantile is that bucket.
        let mut h = LogHistogram::new();
        for _ in 0..3 {
            h.add(42, 0.1);
        }
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.quantile(0.5), 42);
        assert_eq!(h.quantile(1.0), 42);
        // Out-of-range q is clamped.
        assert_eq!(h.quantile(-1.0), 42);
        assert_eq!(h.quantile(7.0), 42);

        // Two buckets: q = 0 answers the first, q = 1 the last.
        let mut h = LogHistogram::new();
        h.add(3, 1.0);
        h.add(90, 2.0);
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(1.0), 90);
    }

    /// Regression: `quantile(1.0)` must never fall through to the
    /// overflow bucket (a ~2^48 representative) on float rounding. The
    /// bucket-order accumulation can round below the insertion-order
    /// `total`; sweep many adversarial weight mixes to exercise it.
    #[test]
    fn quantile_one_never_exceeds_the_last_nonempty_bucket() {
        for case in 0..200u64 {
            let mut h = LogHistogram::new();
            let mut max_d = 0;
            for i in 0..(3 + case % 17) {
                // Weights like 0.1/0.3/0.7 accumulate differently in
                // insertion vs bucket order.
                let w = 0.1 + ((case * 31 + i * 7) % 13) as f64 * 0.1;
                let d = 1 + (case * 97 + i * 41) % 500;
                h.add(d, w);
                max_d = max_d.max(d);
            }
            let q1 = h.quantile(1.0);
            assert!(
                q1 <= LogHistogram::bucket_rep(LogHistogram::bucket_of(max_d)),
                "case {case}: quantile(1.0) = {q1} beyond max distance {max_d}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p_ge(10), 0.0);
        assert_eq!(h.expected_min(10), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn mean_is_weighted() {
        let mut h = LogHistogram::new();
        h.add(10, 3.0);
        h.add(20, 1.0);
        assert!((h.mean() - 12.5).abs() < 1e-9);
    }
}
