//! Counter-based pseudo-random mixing.
//!
//! Workloads must be position addressable, so they cannot use sequential
//! RNG state. Instead every "random" decision is a pure hash of
//! `(seed, counter)`; the SplitMix64 finalizer provides high-quality 64-bit
//! avalanche mixing at a handful of cycles per call.

/// SplitMix64 finalizer: a bijective 64-bit mixing function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mix a seed with a counter into a uniformly distributed 64-bit value.
#[inline]
pub fn mix64(seed: u64, x: u64) -> u64 {
    splitmix64(seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A stateless counter-based random source.
///
/// Each distinct `(seed, index)` pair produces an independent, reproducible
/// value; no call order is implied.
///
/// ```
/// use delorean_trace::CounterRng;
///
/// let rng = CounterRng::new(42);
/// assert_eq!(rng.at(7), rng.at(7));
/// assert_ne!(rng.at(7), rng.at(8));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
}

impl CounterRng {
    /// A source with the given seed.
    pub fn new(seed: u64) -> Self {
        CounterRng {
            seed: splitmix64(seed),
        }
    }

    /// Derive an independent sub-source (e.g. one per stream).
    pub fn derive(&self, tag: u64) -> CounterRng {
        CounterRng {
            seed: mix64(self.seed, tag ^ 0xd1b5_4a32_d192_ed03),
        }
    }

    /// The 64-bit value at `index`.
    #[inline]
    pub fn at(&self, index: u64) -> u64 {
        mix64(self.seed, index)
    }

    /// A value in `[0, bound)` at `index`. `bound` must be non-zero.
    #[inline]
    pub fn below(&self, index: u64, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bound must be non-zero");
        scale_below(self.at(index), bound)
    }

    /// `true` with probability `permille`/1000 at `index`.
    #[inline]
    pub fn chance_permille(&self, index: u64, permille: u32) -> bool {
        self.below(index, 1000) < permille as u64
    }

    /// `true` with probability `1/period` at `index` (`period` ≥ 1).
    #[inline]
    pub fn chance_one_in(&self, index: u64, period: u64) -> bool {
        self.below(index, period.max(1)) == 0
    }

    /// The indices in `range` where [`chance_one_in`](Self::chance_one_in)
    /// holds, in increasing order, without the per-index multiply: `below`
    /// is 0 exactly when the raw value is at most `u64::MAX / period`.
    ///
    /// ```
    /// use delorean_trace::CounterRng;
    ///
    /// let rng = CounterRng::new(9);
    /// let hits: Vec<u64> = rng.one_in_positions(0..5_000, 50).collect();
    /// let slow: Vec<u64> = (0..5_000).filter(|&k| rng.chance_one_in(k, 50)).collect();
    /// assert_eq!(hits, slow);
    /// ```
    pub fn one_in_positions(
        &self,
        range: std::ops::Range<u64>,
        period: u64,
    ) -> impl Iterator<Item = u64> + '_ {
        let threshold = one_in_threshold(period);
        range.filter(move |&k| self.at(k) <= threshold)
    }
}

/// `x` scaled into `[0, bound)`: the high word of `x · bound`. The 128-bit
/// multiply avoids modulo bias for small bounds.
#[inline]
fn scale_below(x: u64, bound: u64) -> u64 {
    (((x as u128) * (bound as u128)) >> 64) as u64
}

/// The largest raw value for which `scale_below(x, period.max(1)) == 0`:
/// `x · p < 2⁶⁴ ⇔ x ≤ ⌊(2⁶⁴ − 1) / p⌋`.
#[inline]
fn one_in_threshold(period: u64) -> u64 {
    u64::MAX / period.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values_are_stable() {
        // Regression pin: if these change, every recorded experiment changes.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(1), 0x910a2dec89025cc1);
    }

    #[test]
    fn mixing_is_deterministic_and_seed_sensitive() {
        assert_eq!(mix64(1, 2), mix64(1, 2));
        assert_ne!(mix64(1, 2), mix64(2, 2));
        assert_ne!(mix64(1, 2), mix64(1, 3));
    }

    #[test]
    fn below_respects_bound() {
        let rng = CounterRng::new(99);
        for i in 0..10_000 {
            assert!(rng.below(i, 37) < 37);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let rng = CounterRng::new(7);
        let mut counts = [0u32; 8];
        for i in 0..80_000 {
            counts[rng.below(i, 8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn chance_permille_matches_rate() {
        let rng = CounterRng::new(3);
        let hits = (0..100_000)
            .filter(|&i| rng.chance_permille(i, 250))
            .count();
        assert!((23_000..27_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn chance_one_in_matches_rate() {
        let rng = CounterRng::new(3);
        let hits = (0..100_000).filter(|&i| rng.chance_one_in(i, 100)).count();
        assert!((800..1_200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn one_in_threshold_is_exactly_below_zero() {
        let periods = [
            0u64,
            1,
            2,
            3,
            7,
            1_000,
            100_000,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX / 3,
            u64::MAX / 2,
            (u64::MAX / 2) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for p in periods {
            let t = one_in_threshold(p);
            for x in [
                0,
                1,
                t.saturating_sub(1),
                t,
                t.saturating_add(1),
                t.saturating_add(2),
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(
                    scale_below(x, p.max(1)) == 0,
                    x <= t,
                    "period {p}, raw value {x:#x}"
                );
            }
        }
    }

    #[test]
    fn one_in_positions_match_chance_one_in() {
        let rng = CounterRng::new(11);
        for p in [0u64, 1, 2, 7, 1_000] {
            let fast: Vec<u64> = rng.one_in_positions(1_000..21_000, p).collect();
            let slow: Vec<u64> = (1_000..21_000)
                .filter(|&k| rng.chance_one_in(k, p))
                .collect();
            assert_eq!(fast, slow, "period {p}");
        }
    }

    #[test]
    fn derive_gives_independent_streams() {
        let rng = CounterRng::new(5);
        let a = rng.derive(1);
        let b = rng.derive(2);
        assert_ne!(a.at(0), b.at(0));
        assert_eq!(a.at(0), rng.derive(1).at(0));
    }
}
