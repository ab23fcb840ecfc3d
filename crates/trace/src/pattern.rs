//! Access-pattern primitives.
//!
//! Every primitive maps a *stream-local* access index `j` to a line offset
//! within the pattern's footprint in `O(1)`, which is what keeps whole
//! workloads position addressable. Each primitive produces a distinct
//! reuse-distance signature:
//!
//! | Pattern | Reuse-distance signature | Typical use |
//! |---|---|---|
//! | [`Pattern::Stream`] | sharp spike at footprint/stride | sequential array sweeps |
//! | [`Pattern::PermutationWalk`] | exact spike at footprint | working-set "knees" (lbm) |
//! | [`Pattern::RandomUniform`] | geometric around footprint | pointer-chasing (mcf) |
//! | [`Pattern::HotCold`] | bimodal short/long | most integer codes |
//! | [`Pattern::StridedScan`] | spike, but set-conflicting | limited-associativity outliers |

use crate::rng::mix64;

/// Cachelines per 4 KiB page.
const LINES_PER_PAGE: u64 = crate::PAGE_BYTES / crate::LINE_BYTES;

/// A position-addressable access pattern over a private footprint.
///
/// All line offsets returned by [`Pattern::line_at`] lie in
/// `[0, footprint_lines())`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Sequential scan: access `j` touches line `(j * stride) % lines`.
    ///
    /// With `stride_lines == 1` this is a straight streaming sweep whose
    /// reuse distance (in stream-local accesses) equals `lines`.
    Stream {
        /// Footprint in cachelines.
        lines: u64,
        /// Lines advanced per access (≥ 1, coprimality not required).
        stride_lines: u64,
    },
    /// Uniform random accesses over the footprint.
    ///
    /// Stream-local reuse distances are geometrically distributed with mean
    /// `lines`; stack distances spread smoothly, producing working-set
    /// curves without a pronounced knee (cactusADM, leslie3d).
    RandomUniform {
        /// Footprint in cachelines.
        lines: u64,
    },
    /// A fixed pseudo-random permutation walked cyclically.
    ///
    /// Every line is touched exactly once per `lines` accesses, so every
    /// access has stream-local reuse distance *exactly* `lines` — the
    /// sharpest possible working-set knee. Used to model lbm's knees at
    /// 8 MiB and 512 MiB.
    PermutationWalk {
        /// Footprint in cachelines.
        lines: u64,
    },
    /// Bimodal hot/cold mix: with probability `hot_permille`/1000 a random
    /// line of the hot set, otherwise a random line of the cold set.
    HotCold {
        /// Hot-set size in cachelines.
        hot_lines: u64,
        /// Cold-set size in cachelines.
        cold_lines: u64,
        /// Probability (per mille) of picking the hot set.
        hot_permille: u32,
    },
    /// Sequential scan over `lines` lines spaced `stride_lines` apart.
    ///
    /// With a large power-of-two byte stride (the paper's example: 512 B)
    /// the touched lines map to a fraction of the cache sets, causing
    /// conflict misses that the limited-associativity model must catch.
    StridedScan {
        /// Number of distinct lines touched.
        lines: u64,
        /// Spacing between consecutive lines, in lines.
        stride_lines: u64,
    },
    /// Hot and cold lines *interleaved within the same pages*: each page's
    /// first line is hot (frequently revisited), the remaining 63 lines
    /// are cold with long reuses.
    ///
    /// This is the layout that makes page-granularity watchpoints
    /// expensive (§6.1, povray): watching a cold line protects a page
    /// whose hot line traps constantly — every trap a false positive.
    PagedHotCold {
        /// Number of pages (64 lines each).
        pages: u64,
        /// Probability (per mille) of touching a page's hot line.
        hot_permille: u32,
    },
}

impl Pattern {
    /// Size of the address range this pattern touches, in cachelines.
    pub fn footprint_lines(&self) -> u64 {
        match *self {
            Pattern::Stream { lines, .. } => lines,
            Pattern::RandomUniform { lines } => lines,
            Pattern::PermutationWalk { lines } => lines,
            Pattern::HotCold {
                hot_lines,
                cold_lines,
                ..
            } => hot_lines + cold_lines,
            Pattern::StridedScan {
                lines,
                stride_lines,
            } => lines * stride_lines,
            Pattern::PagedHotCold { pages, .. } => pages * LINES_PER_PAGE,
        }
    }

    /// Line offset (within the footprint) of stream-local access `j`.
    ///
    /// Pure in `(self, seed, j)`. Forced inline for the same reason as
    /// [`PatternCursor::next_line`], whose hash-driven patterns call it.
    #[inline(always)]
    pub fn line_at(&self, seed: u64, j: u64) -> u64 {
        match *self {
            Pattern::Stream {
                lines,
                stride_lines,
            } => (j % lines).wrapping_mul(stride_lines) % lines,
            Pattern::RandomUniform { lines } => mul_bound(mix64(seed, j), lines),
            Pattern::PermutationWalk { lines } => affine_perm(seed, j % lines, lines),
            Pattern::HotCold {
                hot_lines,
                cold_lines,
                hot_permille,
            } => {
                let h = mix64(seed ^ 0x5b1c_e3f2, j);
                if mul_bound(h, 1000) < hot_permille as u64 {
                    mul_bound(mix64(seed ^ 0x11, j), hot_lines)
                } else {
                    hot_lines + mul_bound(mix64(seed ^ 0x22, j), cold_lines)
                }
            }
            Pattern::StridedScan {
                lines,
                stride_lines,
            } => (j % lines) * stride_lines,
            Pattern::PagedHotCold {
                pages,
                hot_permille,
            } => {
                let h = mix64(seed ^ 0x0007_a6ed, j);
                let page = mul_bound(mix64(seed ^ 0x44, j), pages);
                if mul_bound(h, 1000) < hot_permille as u64 {
                    page * LINES_PER_PAGE
                } else {
                    page * LINES_PER_PAGE + 1 + mul_bound(mix64(seed ^ 0x55, j), LINES_PER_PAGE - 1)
                }
            }
        }
    }

    /// A streaming cursor producing `line_at(seed, j)`, `line_at(seed,
    /// j + 1)`, … incrementally.
    ///
    /// The cursor hoists everything `line_at` re-derives per call out of
    /// the loop: sequential and strided scans keep a running offset
    /// instead of a divide/multiply/mod chain, and permutation walks
    /// compute the affine multiplier (a gcd search in `line_at`) exactly
    /// once, stepping the permutation by modular addition afterwards.
    /// Hash-driven patterns (`RandomUniform`, `HotCold`, `PagedHotCold`)
    /// are inherently per-access and fall through to `line_at`.
    pub fn cursor(&self, seed: u64, start_j: u64) -> PatternCursor {
        let state = match *self {
            Pattern::Stream {
                lines,
                stride_lines,
            } => PatternState::Stream {
                cur: self.line_at(seed, start_j),
                step: stride_lines % lines,
                lines,
            },
            Pattern::StridedScan {
                lines,
                stride_lines,
            } => PatternState::StridedScan {
                idx: start_j % lines,
                cur: (start_j % lines) * stride_lines,
                stride: stride_lines,
                lines,
            },
            Pattern::PermutationWalk { lines } => PatternState::Perm {
                cur: self.line_at(seed, start_j),
                step: if lines == 1 {
                    0
                } else {
                    coprime_multiplier(seed, lines)
                },
                lines,
            },
            Pattern::RandomUniform { .. }
            | Pattern::HotCold { .. }
            | Pattern::PagedHotCold { .. } => PatternState::Hashed,
        };
        PatternCursor {
            pattern: *self,
            seed,
            j: start_j,
            state,
        }
    }

    /// Validate the parameters, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Pattern::Stream {
                lines,
                stride_lines,
            } => {
                if lines == 0 {
                    return Err("Stream: lines must be > 0".into());
                }
                if stride_lines == 0 {
                    return Err("Stream: stride_lines must be > 0".into());
                }
            }
            Pattern::RandomUniform { lines } | Pattern::PermutationWalk { lines } => {
                if lines == 0 {
                    return Err("pattern footprint must be > 0 lines".into());
                }
            }
            Pattern::HotCold {
                hot_lines,
                cold_lines,
                hot_permille,
            } => {
                if hot_lines == 0 || cold_lines == 0 {
                    return Err("HotCold: both sets must be non-empty".into());
                }
                if hot_permille > 1000 {
                    return Err("HotCold: hot_permille must be ≤ 1000".into());
                }
            }
            Pattern::StridedScan {
                lines,
                stride_lines,
            } => {
                if lines == 0 || stride_lines == 0 {
                    return Err("StridedScan: lines and stride must be > 0".into());
                }
            }
            Pattern::PagedHotCold {
                pages,
                hot_permille,
            } => {
                if pages == 0 {
                    return Err("PagedHotCold: pages must be > 0".into());
                }
                if hot_permille > 1000 {
                    return Err("PagedHotCold: hot_permille must be ≤ 1000".into());
                }
            }
        }
        Ok(())
    }
}

/// Incremental state of a [`PatternCursor`].
#[derive(Copy, Clone, Debug)]
enum PatternState {
    /// `Stream`: `(j % lines) * stride % lines` advances by `stride %
    /// lines` per access, wrapping modularly (the wrap at `j % lines == 0`
    /// lands on the same residue, so no reset is needed).
    Stream { cur: u64, step: u64, lines: u64 },
    /// `StridedScan`: `(j % lines) * stride` advances by `stride`,
    /// resetting when the scan restarts.
    StridedScan {
        idx: u64,
        cur: u64,
        stride: u64,
        lines: u64,
    },
    /// `PermutationWalk`: `(a·x + b) mod n` advances by `a mod n` per
    /// access; the wrap from `x = n − 1` to `x = 0` is again the same
    /// modular step.
    Perm { cur: u64, step: u64, lines: u64 },
    /// Hash-driven patterns: no exploitable sequential structure.
    Hashed,
}

/// Streaming generator of a pattern's line offsets; see
/// [`Pattern::cursor`].
#[derive(Copy, Clone, Debug)]
pub struct PatternCursor {
    pattern: Pattern,
    seed: u64,
    j: u64,
    state: PatternState,
}

impl PatternCursor {
    /// The line offset of the current stream-local index, advancing the
    /// cursor by one. Byte-identical to `pattern.line_at(seed, j)`.
    ///
    /// Forced inline: it is the body of both `PhasedCursor` outputs'
    /// loops, and left to the inliner's budget it is outlined once it
    /// has two callers.
    #[inline(always)]
    pub fn next_line(&mut self) -> u64 {
        let j = self.j;
        self.j += 1;
        match &mut self.state {
            PatternState::Stream { cur, step, lines } => {
                let r = *cur;
                *cur += *step;
                if *cur >= *lines {
                    *cur -= *lines;
                }
                r
            }
            PatternState::StridedScan {
                idx,
                cur,
                stride,
                lines,
            } => {
                let r = *cur;
                *idx += 1;
                if *idx == *lines {
                    *idx = 0;
                    *cur = 0;
                } else {
                    *cur += *stride;
                }
                r
            }
            PatternState::Perm { cur, step, lines } => {
                let r = *cur;
                *cur += *step;
                if *cur >= *lines {
                    *cur -= *lines;
                }
                r
            }
            PatternState::Hashed => self.pattern.line_at(self.seed, j),
        }
    }
}

impl PatternCursor {
    /// The stream-local index of the next access.
    pub(crate) fn position(&self) -> u64 {
        self.j
    }

    /// Whether [`next_run`](Self::next_run) can yield more than one
    /// access: a `Stream` whose step is one line.
    pub(crate) fn runs(&self) -> bool {
        matches!(self.state, PatternState::Stream { step: 1, .. })
    }

    /// The next stretch of up to `max` (≥ 1) accesses that touch
    /// consecutive line offsets of one 64-line block of the footprint:
    /// its first offset and its length, advancing the cursor past it.
    /// Byte-identical to that many [`next_line`](Self::next_line) calls.
    ///
    /// A `Stream` whose step is one line yields up to `max`, ending at a
    /// block end or where the footprint wraps; every other pattern yields
    /// one access. A footprint placed page-aligned (as a
    /// [`PhasedWorkload`](crate::PhasedWorkload)'s streams are) has its
    /// blocks on pages.
    #[inline(always)]
    pub(crate) fn next_run(&mut self, max: u64) -> (u64, u64) {
        match &mut self.state {
            PatternState::Stream {
                cur,
                step: 1,
                lines,
            } => {
                let first = *cur;
                let len = max
                    .min(LINES_PER_PAGE - first % LINES_PER_PAGE)
                    .min(*lines - first);
                self.j += len;
                *cur += len;
                if *cur == *lines {
                    *cur = 0;
                }
                (first, len)
            }
            _ => (self.next_line(), 1),
        }
    }
}

/// Map a uniform 64-bit value into `[0, bound)` without modulo bias.
#[inline]
fn mul_bound(x: u64, bound: u64) -> u64 {
    (((x as u128) * (bound as u128)) >> 64) as u64
}

/// A seed-dependent affine permutation of `[0, n)`: `x → (a·x + b) mod n`
/// with `gcd(a, n) == 1`.
///
/// Affine maps are weak as ciphers but perfect here: they are bijective
/// (every line visited exactly once per period) and computable in `O(1)`,
/// and they decorrelate the visit order from the address order so that a
/// walk does not look like a sequential stream to a stride prefetcher.
#[inline]
fn affine_perm(seed: u64, x: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n == 1 {
        return 0;
    }
    let a = coprime_multiplier(seed, n);
    let b = mix64(seed, 0xb0b) % n;
    crate::cast::u64_exact((x as u128 * a as u128 + b as u128) % n as u128)
}

/// A multiplier near `0.618·n` (golden-ratio spread) adjusted to be coprime
/// with `n`.
#[inline]
fn coprime_multiplier(seed: u64, n: u64) -> u64 {
    let base = (((n as u128 * 0x9e37_79b9) >> 32) as u64 + (mix64(seed, 0xa) % 64)) | 1;
    let mut a = base % n;
    if a == 0 {
        a = 1;
    }
    // At most a few steps: consecutive odd numbers quickly hit a coprime.
    while gcd(a, n) != 1 {
        a = (a + 2) % n;
        if a == 0 {
            a = 1;
        }
    }
    a
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::FlatSet;

    #[test]
    fn stream_is_cyclic_with_period_lines() {
        let p = Pattern::Stream {
            lines: 100,
            stride_lines: 1,
        };
        for j in 0..300 {
            assert_eq!(p.line_at(0, j), j % 100);
        }
    }

    #[test]
    fn runs_expand_to_the_line_sequence() {
        // Stride 1 (runs up to a block end or the wrap; footprints under
        // 64 lines and not a multiple of 64), a stride that steps one line
        // modulo the footprint, and kinds that run in ones.
        for p in [
            Pattern::Stream {
                lines: 40,
                stride_lines: 1,
            },
            Pattern::Stream {
                lines: 200,
                stride_lines: 1,
            },
            Pattern::Stream {
                lines: 7,
                stride_lines: 8,
            },
            Pattern::Stream {
                lines: 200,
                stride_lines: 3,
            },
            Pattern::PermutationWalk { lines: 97 },
            Pattern::RandomUniform { lines: 300 },
        ] {
            for start in [0u64, 5, 63, 199, 1_000_001] {
                let mut runs = p.cursor(9, start);
                let mut j = start;
                for max in (1..=70u64).cycle().take(120) {
                    let (first, len) = runs.next_run(max);
                    assert!((1..=max).contains(&len), "{p:?}");
                    assert_eq!(first / LINES_PER_PAGE, (first + len - 1) / LINES_PER_PAGE);
                    for o in 0..len {
                        assert_eq!(first + o, p.line_at(9, j), "{p:?} from {start}, j {j}");
                        j += 1;
                    }
                }
                // The cursor stays in step with `next_line`.
                assert_eq!(runs.next_line(), p.line_at(9, j), "{p:?}");
            }
        }
    }

    #[test]
    fn permutation_walk_is_a_bijection() {
        for n in [1u64, 2, 3, 64, 97, 1000] {
            let p = Pattern::PermutationWalk { lines: n };
            let seen: FlatSet<u64> = (0..n).map(|j| p.line_at(1234, j)).collect();
            assert_eq!(seen.len() as u64, n, "n={n}");
            assert!(seen.iter().all(|l| l < n));
        }
    }

    #[test]
    fn permutation_walk_reuse_distance_is_exact() {
        let n = 53;
        let p = Pattern::PermutationWalk { lines: n };
        for j in 0..n {
            assert_eq!(p.line_at(9, j), p.line_at(9, j + n));
        }
    }

    #[test]
    fn random_uniform_stays_in_bounds_and_covers() {
        let p = Pattern::RandomUniform { lines: 16 };
        let seen: FlatSet<u64> = (0..1000).map(|j| p.line_at(5, j)).collect();
        assert!(seen.len() >= 15, "covered only {} lines", seen.len());
        assert!(seen.iter().all(|l| l < 16));
    }

    #[test]
    fn hot_cold_respects_partition_and_ratio() {
        let p = Pattern::HotCold {
            hot_lines: 8,
            cold_lines: 1000,
            hot_permille: 900,
        };
        let mut hot = 0u32;
        for j in 0..10_000 {
            let l = p.line_at(77, j);
            assert!(l < 1008);
            if l < 8 {
                hot += 1;
            }
        }
        assert!((8_500..9_500).contains(&hot), "hot rate {hot}");
    }

    #[test]
    fn strided_scan_touches_spaced_lines() {
        let p = Pattern::StridedScan {
            lines: 4,
            stride_lines: 8,
        };
        let seq: Vec<u64> = (0..5).map(|j| p.line_at(0, j)).collect();
        assert_eq!(seq, vec![0, 8, 16, 24, 0]);
        assert_eq!(p.footprint_lines(), 32);
    }

    #[test]
    fn paged_hot_cold_layout() {
        let p = Pattern::PagedHotCold {
            pages: 4,
            hot_permille: 800,
        };
        assert_eq!(p.footprint_lines(), 256);
        let mut hot = 0u32;
        for j in 0..10_000 {
            let l = p.line_at(3, j);
            assert!(l < 256);
            if l.is_multiple_of(64) {
                hot += 1;
            }
        }
        // Hot accesses land on page-first lines at the configured rate.
        assert!((7_500..8_500).contains(&hot), "hot rate {hot}");
        assert!(Pattern::PagedHotCold {
            pages: 0,
            hot_permille: 10
        }
        .validate()
        .is_err());
    }

    #[test]
    fn footprints() {
        assert_eq!(
            Pattern::HotCold {
                hot_lines: 3,
                cold_lines: 5,
                hot_permille: 500
            }
            .footprint_lines(),
            8
        );
        assert_eq!(Pattern::RandomUniform { lines: 7 }.footprint_lines(), 7);
    }

    #[test]
    fn validation_catches_degenerate_parameters() {
        assert!(Pattern::Stream {
            lines: 0,
            stride_lines: 1
        }
        .validate()
        .is_err());
        assert!(Pattern::HotCold {
            hot_lines: 1,
            cold_lines: 1,
            hot_permille: 2000
        }
        .validate()
        .is_err());
        assert!(Pattern::PermutationWalk { lines: 4 }.validate().is_ok());
    }

    #[test]
    fn gcd_and_coprime_helper() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        for n in [2u64, 10, 64, 4096, 10_007] {
            let a = coprime_multiplier(42, n);
            assert_eq!(gcd(a, n), 1, "n={n} a={a}");
            assert!(a < n.max(2));
        }
    }
}
