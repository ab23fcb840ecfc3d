//! LLC stride prefetcher (§6.3.2).
//!
//! An 8-stream per-PC stride prefetcher: each stream tracks the last line
//! and stride of one load PC; two consecutive confirmations of the same
//! stride arm the stream, after which every trigger prefetches the next
//! `degree` lines along the stride.
//!
//! The DeLorean extension feeds this table with *predicted* misses (from
//! the statistical model) instead of simulated misses — the prefetcher does
//! not care where the trigger verdicts come from, which is exactly the
//! paper's point.

use delorean_trace::{mix64, LineAddr, Pc};

/// Confidence threshold to arm a stream.
const ARM_THRESHOLD: u8 = 2;

#[derive(Copy, Clone, Debug)]
struct Stream {
    pc: Pc,
    last_line: u64,
    stride: i64,
    confidence: u8,
    last_used: u64,
}

/// A fixed-size table of stride-detecting prefetch streams.
///
/// ```
/// use delorean_cache::StridePrefetcher;
/// use delorean_trace::{LineAddr, Pc};
///
/// let mut p = StridePrefetcher::new(8, 2);
/// let pc = Pc(0x400);
/// assert!(p.on_trigger(pc, LineAddr(100)).is_empty()); // first sighting
/// assert!(p.on_trigger(pc, LineAddr(104)).is_empty()); // stride learned
/// let req = p.on_trigger(pc, LineAddr(108));           // armed
/// assert_eq!(req, vec![LineAddr(112), LineAddr(116)]);
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    streams: Vec<Stream>,
    max_streams: usize,
    degree: u32,
    tick: u64,
    issued: u64,
}

impl StridePrefetcher {
    /// A prefetcher with `max_streams` streams issuing `degree` prefetches
    /// per armed trigger. The paper uses 8 streams.
    ///
    /// # Panics
    ///
    /// Panics if `max_streams` or `degree` is zero.
    pub fn new(max_streams: u32, degree: u32) -> Self {
        assert!(max_streams > 0 && degree > 0, "degenerate prefetcher");
        StridePrefetcher {
            streams: Vec::with_capacity(max_streams as usize),
            max_streams: max_streams as usize,
            degree,
            tick: 0,
            issued: 0,
        }
    }

    /// The paper's configuration: 8 streams, degree 2.
    pub fn paper_default() -> Self {
        Self::new(8, 2)
    }

    /// Number of prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Feed a trigger (a miss — simulated or predicted) from `pc` touching
    /// `line`; returns the lines to prefetch.
    pub fn on_trigger(&mut self, pc: Pc, line: LineAddr) -> Vec<LineAddr> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(s) = self.streams.iter_mut().find(|s| s.pc == pc) {
            s.last_used = tick;
            let new_stride = line.0 as i64 - s.last_line as i64;
            if new_stride == s.stride && new_stride != 0 {
                s.confidence = s.confidence.saturating_add(1);
            } else {
                s.stride = new_stride;
                s.confidence = 1;
            }
            s.last_line = line.0;
            if s.confidence >= ARM_THRESHOLD && s.stride != 0 {
                let stride = s.stride;
                let base = line.0 as i64;
                let out: Vec<LineAddr> = (1..=self.degree as i64)
                    .map(|k| base + k * stride)
                    .filter(|&l| l >= 0)
                    .map(|l| LineAddr(l as u64))
                    .collect();
                self.issued += out.len() as u64;
                return out;
            }
            return Vec::new();
        }
        // Allocate a stream, replacing the least recently used if full.
        let stream = Stream {
            pc,
            last_line: line.0,
            stride: 0,
            confidence: 0,
            last_used: tick,
        };
        if self.streams.len() < self.max_streams {
            self.streams.push(stream);
        } else if let Some(lru) = self.streams.iter_mut().min_by_key(|s| s.last_used) {
            *lru = stream;
        }
        Vec::new()
    }

    /// Forget all streams (used at region boundaries).
    pub fn reset(&mut self) {
        self.streams.clear();
    }

    /// A [`mix64`] fold over the prefetcher's **behaviorally live**
    /// state, canonicalized: streams in recency order (most recently
    /// triggered first), each with its prediction state (`pc`,
    /// `last_line`, `stride`) and its confidence clamped to the arm
    /// threshold. The `issued` counter is a statistic and excluded.
    ///
    /// Two canonicalizations make behaviorally equal states digest
    /// equal:
    ///
    /// * **Absolute trigger ticks are dropped.** `tick` and the raw
    ///   `last_used` stamps only act through the recency *order*: every
    ///   trigger stamps one stream with a strictly increasing tick, so
    ///   stamps are distinct, LRU replacement compares nothing but
    ///   their order, and a future allocation always outranks them.
    ///   This is what lets a warm-up window replayed from cold — whose
    ///   absolute trigger count differs from the live chain's — commit
    ///   against sequential state when it reproduces the same streams
    ///   in the same recency order.
    /// * **Confidence saturates at the arm threshold.** Any confidence
    ///   at or above the threshold predicts identically: further
    ///   confirmations keep the stream armed, and a stride break resets
    ///   to 1 regardless of how high it was.
    pub fn state_digest(&self, seed: u64) -> u64 {
        let mut d = mix64(
            seed,
            (self.max_streams as u64) << 32 | u64::from(self.degree),
        );
        let mut by_recency: Vec<&Stream> = self.streams.iter().collect();
        by_recency.sort_by_key(|s| std::cmp::Reverse(s.last_used));
        for s in by_recency {
            d = mix64(d, s.pc.0);
            d = mix64(d, s.last_line);
            d = mix64(d, s.stride as u64);
            d = mix64(d, u64::from(s.confidence.min(ARM_THRESHOLD)));
        }
        d
    }

    /// Adopt another prefetcher's state, reusing the stream allocation.
    ///
    /// # Panics
    ///
    /// Panics if the table shape differs.
    pub fn copy_state_from(&mut self, other: &StridePrefetcher) {
        assert_eq!(self.max_streams, other.max_streams, "stream table mismatch");
        assert_eq!(self.degree, other.degree, "prefetch degree mismatch");
        self.streams.clone_from(&other.streams);
        self.tick = other.tick;
        self.issued = other.issued;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_stride_and_prefetches_ahead() {
        let mut p = StridePrefetcher::new(8, 2);
        let pc = Pc(1);
        assert!(p.on_trigger(pc, LineAddr(10)).is_empty());
        assert!(p.on_trigger(pc, LineAddr(20)).is_empty());
        assert_eq!(
            p.on_trigger(pc, LineAddr(30)),
            vec![LineAddr(40), LineAddr(50)]
        );
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(8, 1);
        let pc = Pc(1);
        p.on_trigger(pc, LineAddr(10));
        p.on_trigger(pc, LineAddr(20));
        p.on_trigger(pc, LineAddr(30)); // armed
        assert!(p.on_trigger(pc, LineAddr(100)).is_empty()); // break
        assert!(p.on_trigger(pc, LineAddr(107)).is_empty()); // new stride seen once
        assert_eq!(p.on_trigger(pc, LineAddr(114)), vec![LineAddr(121)]);
    }

    #[test]
    fn negative_strides_work_and_clip_at_zero() {
        let mut p = StridePrefetcher::new(8, 2);
        let pc = Pc(1);
        p.on_trigger(pc, LineAddr(10));
        p.on_trigger(pc, LineAddr(7));
        assert_eq!(p.on_trigger(pc, LineAddr(4)), vec![LineAddr(1)]);
        // The second prefetch (line -2) was clipped.
    }

    #[test]
    fn streams_are_capped_with_lru_replacement() {
        let mut p = StridePrefetcher::new(2, 1);
        p.on_trigger(Pc(1), LineAddr(0));
        p.on_trigger(Pc(2), LineAddr(0));
        p.on_trigger(Pc(3), LineAddr(0)); // evicts PC 1
                                          // PC 1 must re-learn from scratch.
        p.on_trigger(Pc(1), LineAddr(8)); // evicts PC 2, fresh stream
        p.on_trigger(Pc(1), LineAddr(16));
        assert!(p.on_trigger(Pc(1), LineAddr(24)) == vec![LineAddr(32)]);
    }

    #[test]
    fn zero_stride_never_arms() {
        let mut p = StridePrefetcher::new(2, 1);
        for _ in 0..10 {
            assert!(p.on_trigger(Pc(1), LineAddr(5)).is_empty());
        }
    }

    #[test]
    fn reset_forgets_streams() {
        let mut p = StridePrefetcher::new(2, 1);
        p.on_trigger(Pc(1), LineAddr(0));
        p.on_trigger(Pc(1), LineAddr(8));
        p.reset();
        assert!(p.on_trigger(Pc(1), LineAddr(16)).is_empty());
        assert!(p.on_trigger(Pc(1), LineAddr(24)).is_empty());
    }

    #[test]
    #[should_panic(expected = "degenerate prefetcher")]
    fn zero_streams_panics() {
        let _ = StridePrefetcher::new(0, 1);
    }

    #[test]
    fn digest_ignores_absolute_trigger_ticks() {
        let mut a = StridePrefetcher::paper_default();
        let mut b = StridePrefetcher::paper_default();
        // b burns 37 ticks on streams that are then forgotten, so its
        // absolute tick and last_used stamps are offset from a's.
        for k in 0..37 {
            b.on_trigger(Pc(0xdead + k), LineAddr(k));
        }
        b.reset();
        for (pc, line) in [
            (Pc(1), LineAddr(10)),
            (Pc(2), LineAddr(100)),
            (Pc(1), LineAddr(20)),
            (Pc(2), LineAddr(108)),
            (Pc(1), LineAddr(30)),
        ] {
            a.on_trigger(pc, line);
            b.on_trigger(pc, line);
        }
        assert_eq!(a.state_digest(7), b.state_digest(7), "tick canonicalized");
        // And the digest promise holds: identical future behavior.
        assert_eq!(
            a.on_trigger(Pc(2), LineAddr(116)),
            b.on_trigger(Pc(2), LineAddr(116))
        );
    }

    #[test]
    fn digest_saturates_confidence_at_the_arm_threshold() {
        let mut a = StridePrefetcher::paper_default();
        let mut b = StridePrefetcher::paper_default();
        // Same stream endpoint (stride 10, last line 40), different
        // confirmation counts (confidence 2 vs 4) — behaviorally equal.
        for line in [20, 30, 40] {
            a.on_trigger(Pc(1), LineAddr(line));
        }
        for line in [0, 10, 20, 30, 40] {
            b.on_trigger(Pc(1), LineAddr(line));
        }
        assert_eq!(a.state_digest(7), b.state_digest(7), "confidence clamped");
        assert_eq!(
            a.on_trigger(Pc(1), LineAddr(50)),
            b.on_trigger(Pc(1), LineAddr(50))
        );
    }

    #[test]
    fn digest_still_separates_recency_order_and_content() {
        // Recency order is live state: with a full table it decides the
        // next eviction, so the digest must distinguish it.
        let mut a = StridePrefetcher::new(2, 1);
        let mut b = StridePrefetcher::new(2, 1);
        a.on_trigger(Pc(1), LineAddr(5));
        a.on_trigger(Pc(2), LineAddr(9));
        b.on_trigger(Pc(2), LineAddr(9));
        b.on_trigger(Pc(1), LineAddr(5));
        assert_ne!(a.state_digest(7), b.state_digest(7), "recency order");

        // Sub-threshold confidence differences still distinguish.
        let mut c = StridePrefetcher::paper_default();
        let mut d = StridePrefetcher::paper_default();
        c.on_trigger(Pc(1), LineAddr(10)); // confidence 0
        d.on_trigger(Pc(1), LineAddr(0));
        d.on_trigger(Pc(1), LineAddr(10)); // confidence 1, stride learned
        assert_ne!(c.state_digest(7), d.state_digest(7), "confidence 0 vs 1");
    }
}
