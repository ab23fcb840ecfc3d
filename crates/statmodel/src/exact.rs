//! Exact stack- and reuse-distance measurement.
//!
//! The classic Mattson stack algorithm, implemented with a last-seen map
//! plus a Fenwick (binary indexed) tree over access positions: each line is
//! marked at its most recent position, so the number of marks strictly
//! between two accesses to the same line is exactly the number of unique
//! intervening lines — the stack distance.
//!
//! This is the *expensive* measurement the paper's statistical models
//! avoid; it exists here as the validation oracle for StatStack and as the
//! substrate for exact working-set analysis in tests.

use delorean_trace::{LineAddr, LineMap};

/// Exact distances of one access, as measured by [`ExactStackProcessor`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExactDistances {
    /// Unique lines strictly between this access and the previous access to
    /// the same line; `None` for the first access to a line.
    pub stack: Option<u64>,
    /// Total accesses strictly between; `None` for first accesses.
    pub reuse: Option<u64>,
}

/// Streaming exact stack/reuse-distance processor.
///
/// ```
/// use delorean_statmodel::exact::ExactStackProcessor;
/// use delorean_trace::LineAddr;
///
/// let mut p = ExactStackProcessor::new();
/// assert_eq!(p.access(LineAddr(1)), None);      // cold
/// assert_eq!(p.access(LineAddr(2)), None);      // cold
/// assert_eq!(p.access(LineAddr(1)), Some(1));   // one unique line between
/// ```
#[derive(Debug, Default)]
pub struct ExactStackProcessor {
    /// Fenwick tree over positions; `tree[i]` covers a range ending at `i`.
    tree: Vec<i64>,
    /// Most recent position (1-based) of each line.
    last: LineMap<usize>,
    /// Next access position (1-based).
    now: usize,
}

impl ExactStackProcessor {
    /// A fresh processor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accesses processed so far.
    pub fn len(&self) -> usize {
        self.now
    }

    /// `true` before the first access.
    pub fn is_empty(&self) -> bool {
        self.now == 0
    }

    fn tree_add(&mut self, mut i: usize, v: i64) {
        while i < self.tree.len() {
            self.tree[i] += v;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of marks at positions `1..=i`.
    fn tree_sum(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Process the next access; returns its stack distance (`None` = cold).
    pub fn access(&mut self, line: LineAddr) -> Option<u64> {
        self.access_full(line).stack
    }

    /// Process the next access, returning both distances.
    pub fn access_full(&mut self, line: LineAddr) -> ExactDistances {
        self.now += 1;
        let t = self.now;
        if self.tree.len() <= t {
            // Fenwick nodes cover position ranges, so appending zeroed nodes
            // would corrupt prefix sums; rebuild from the mark set (the
            // most recent position of every line) instead. Amortized cost:
            // one O(u log n) rebuild per doubling.
            self.tree = vec![0; (t + 1).next_power_of_two().max(1024)];
            let marks: Vec<usize> = self.last.values().copied().collect();
            for p in marks {
                self.tree_add(p, 1);
            }
        }
        let prev = self.last.insert(line, t);
        let result = match prev {
            None => ExactDistances {
                stack: None,
                reuse: None,
            },
            Some(p) => {
                // Marks strictly between p and t = distinct lines whose most
                // recent access was in (p, t).
                let between = self.tree_sum(t - 1) - self.tree_sum(p);
                ExactDistances {
                    stack: Some(between as u64),
                    reuse: Some((t - p - 1) as u64),
                }
            }
        };
        if let Some(p) = prev {
            self.tree_add(p, -1);
        }
        self.tree_add(t, 1);
        result
    }
}

/// Simulate a fully-associative LRU cache of `cache_lines` lines over a
/// line stream, returning the number of misses.
///
/// A convenience wrapper over [`ExactStackProcessor`] used throughout the
/// test suites.
pub fn lru_misses<I: IntoIterator<Item = LineAddr>>(stream: I, cache_lines: u64) -> u64 {
    let mut p = ExactStackProcessor::new();
    let mut misses = 0;
    for line in stream {
        match p.access(line) {
            Some(sd) if sd < cache_lines => {}
            _ => misses += 1,
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_trace::mix64;

    fn brute_force_stack(stream: &[LineAddr], i: usize) -> Option<u64> {
        let target = stream[i];
        let prev = stream[..i].iter().rposition(|&l| l == target)?;
        let mut uniq = delorean_trace::LineSet::new();
        for &l in &stream[prev + 1..i] {
            uniq.insert(l);
        }
        Some(uniq.len() as u64)
    }

    #[test]
    fn matches_brute_force_on_random_streams() {
        for seed in 0..3u64 {
            let stream: Vec<LineAddr> =
                (0..500u64).map(|i| LineAddr(mix64(seed, i) % 40)).collect();
            let mut p = ExactStackProcessor::new();
            for (i, &l) in stream.iter().enumerate() {
                let got = p.access(l);
                let want = brute_force_stack(&stream, i);
                assert_eq!(got, want, "seed {seed} position {i}");
            }
        }
    }

    #[test]
    fn reuse_distance_counts_all_accesses() {
        let mut p = ExactStackProcessor::new();
        p.access(LineAddr(1));
        p.access(LineAddr(2));
        p.access(LineAddr(2));
        let d = p.access_full(LineAddr(1));
        assert_eq!(d.reuse, Some(2));
        assert_eq!(d.stack, Some(1)); // line 2 accessed twice, once unique
    }

    #[test]
    fn immediate_reuse_has_zero_distances() {
        let mut p = ExactStackProcessor::new();
        p.access(LineAddr(9));
        let d = p.access_full(LineAddr(9));
        assert_eq!(d.stack, Some(0));
        assert_eq!(d.reuse, Some(0));
    }

    #[test]
    fn cyclic_sweep_has_stack_distance_n_minus_1() {
        let n = 64u64;
        let mut p = ExactStackProcessor::new();
        for i in 0..n {
            assert_eq!(p.access(LineAddr(i)), None);
        }
        for i in 0..n {
            assert_eq!(p.access(LineAddr(i)), Some(n - 1));
        }
        assert_eq!(p.len(), 2 * n as usize);
    }

    #[test]
    fn lru_misses_helper_matches_expectations() {
        // Sweep of 100 lines twice: 100 cold misses, then either all hit
        // (cache ≥ 100) or all miss (cache < 100).
        let sweep: Vec<LineAddr> = (0..200u64).map(|i| LineAddr(i % 100)).collect();
        assert_eq!(lru_misses(sweep.iter().copied(), 100), 100);
        assert_eq!(lru_misses(sweep.iter().copied(), 64), 200);
    }
}
