//! Composition of pattern primitives into whole workloads.
//!
//! A [`PhasedWorkload`] interleaves several [`StreamSpec`]s (each a
//! [`Pattern`] with a weight and a PC pool) according to a
//! deterministic proportional schedule, optionally switching stream sets
//! between *phases*. Everything remains position addressable: the stream,
//! stream-local index, PC and address of global access `k` are all `O(1)`
//! functions of `k`.
//!
//! The deterministic interleave matters more than it may appear: the same
//! access must be produced whether it is visited by the Scout (forward),
//! an Explorer (backward window), the Analyst, or a functional warming
//! baseline — that is the paper's "same execution across passes" invariant
//! that KVM checkpointing provides on real hardware.

use crate::branch::BranchModel;
use crate::cursor::AccessCursor;
use crate::pattern::{Pattern, PatternCursor};
use crate::rng::{mix64, CounterRng};
use crate::types::{Addr, LineAddr, MemAccess, Pc, LINE_BYTES, PAGE_BYTES};
use crate::Workload;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One weighted access stream within a phase.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// The access pattern.
    pub pattern: Pattern,
    /// Relative share of the phase's accesses (weights are normalized over
    /// the phase's weight sum).
    pub weight: u32,
    /// Number of static PCs issuing this stream's accesses.
    pub pcs: u32,
}

impl StreamSpec {
    /// A stream with the given pattern and weight, and 4 PCs.
    pub fn new(pattern: Pattern, weight: u32) -> Self {
        StreamSpec {
            pattern,
            weight,
            pcs: 4,
        }
    }

    /// Override the PC pool size.
    pub fn with_pcs(mut self, pcs: u32) -> Self {
        self.pcs = pcs;
        self
    }
}

/// One phase: a stream mix active for a span of accesses.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Phase length in accesses (rounded up to a multiple of the phase's
    /// weight sum at build time).
    pub len_accesses: u64,
    /// The streams active during this phase.
    pub streams: Vec<StreamSpec>,
}

/// Builder for [`PhasedWorkload`].
///
/// ```
/// use delorean_trace::{Pattern, PhasedWorkloadBuilder, StreamSpec, Workload};
///
/// let w = PhasedWorkloadBuilder::new("toy", 42)
///     .mem_period(3)
///     .phase(1_000, vec![
///         StreamSpec::new(Pattern::Stream { lines: 64, stride_lines: 1 }, 9),
///         StreamSpec::new(Pattern::RandomUniform { lines: 4096 }, 1),
///     ])
///     .build()
///     .expect("valid spec");
/// assert_eq!(w.name(), "toy");
/// ```
#[derive(Clone, Debug)]
pub struct PhasedWorkloadBuilder {
    name: String,
    seed: u64,
    mem_period: u64,
    branch: Option<BranchModel>,
    phases: Vec<PhaseSpec>,
}

impl PhasedWorkloadBuilder {
    /// Start building a workload with a name and master seed.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        PhasedWorkloadBuilder {
            name: name.into(),
            seed,
            mem_period: 3,
            branch: None,
            phases: Vec::new(),
        }
    }

    /// Instructions per memory access (default 3).
    pub fn mem_period(mut self, period: u64) -> Self {
        self.mem_period = period;
        self
    }

    /// Branch behaviour (default: [`BranchModel::new`] with the workload
    /// seed).
    pub fn branch_model(mut self, model: BranchModel) -> Self {
        self.branch = Some(model);
        self
    }

    /// Append a phase of `len_accesses` accesses with the given streams.
    pub fn phase(mut self, len_accesses: u64, streams: Vec<StreamSpec>) -> Self {
        self.phases.push(PhaseSpec {
            len_accesses,
            streams,
        });
        self
    }

    /// Validate and compile the workload.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter: empty phase
    /// list, zero-weight phases, degenerate patterns, or a zero
    /// `mem_period`.
    pub fn build(self) -> Result<PhasedWorkload, String> {
        if self.mem_period == 0 {
            return Err("mem_period must be ≥ 1".into());
        }
        if self.phases.is_empty() {
            return Err("workload needs at least one phase".into());
        }
        let mut compiled_phases = Vec::with_capacity(self.phases.len());
        let mut phase_starts = Vec::with_capacity(self.phases.len());
        // Data footprints live well above the PC ranges; leave a guard page
        // between streams so footprints never share a page (watchpoint
        // false positives should come from line-vs-page granularity, not
        // accidental overlap).
        let mut next_base_line: u64 = 0x1_0000_0000 / LINE_BYTES;
        let mut cycle = 0u64;
        let rng = CounterRng::new(self.seed);
        for (pi, phase) in self.phases.iter().enumerate() {
            if phase.streams.is_empty() {
                return Err(format!("phase {pi} has no streams"));
            }
            let mut weight_sum = 0u64;
            for (si, s) in phase.streams.iter().enumerate() {
                s.pattern
                    .validate()
                    .map_err(|e| format!("phase {pi} stream {si}: {e}"))?;
                if s.weight == 0 {
                    return Err(format!("phase {pi} stream {si}: weight must be > 0"));
                }
                if s.pcs == 0 {
                    return Err(format!("phase {pi} stream {si}: pcs must be > 0"));
                }
                weight_sum += s.weight as u64;
            }
            if phase.len_accesses == 0 {
                return Err(format!("phase {pi}: len_accesses must be > 0"));
            }
            let len = phase.len_accesses.div_ceil(weight_sum) * weight_sum;
            let slots = build_slot_table(&phase.streams, weight_sum);
            let mut streams = Vec::with_capacity(phase.streams.len());
            for (si, s) in phase.streams.iter().enumerate() {
                let footprint = s.pattern.footprint_lines();
                let lines_per_page = PAGE_BYTES / LINE_BYTES;
                let base_line = next_base_line;
                // Advance past the footprint plus a guard page, page aligned.
                next_base_line += (footprint + lines_per_page).div_ceil(lines_per_page)
                    * lines_per_page
                    + lines_per_page;
                streams.push(CompiledStream {
                    pattern: s.pattern,
                    base_line,
                    pc_base: 0x0010_0000 + ((pi as u64) << 16) + ((si as u64) << 10),
                    pcs: s.pcs,
                    weight: s.weight as u64,
                    seed: rng.derive(((pi as u64) << 32) | si as u64).at(0),
                });
            }
            phase_starts.push(cycle);
            cycle += len;
            compiled_phases.push(CompiledPhase {
                weight_sum,
                periods_per_rep: len / weight_sum,
                slots,
                streams,
            });
        }
        let branch = self
            .branch
            .unwrap_or_else(|| BranchModel::new(mix64(self.seed, 0xb7a9)));
        Ok(PhasedWorkload {
            name: self.name,
            seed: self.seed,
            mem_period: self.mem_period,
            branch,
            phases: compiled_phases,
            phase_starts,
            cycle_len: cycle,
        })
    }
}

/// Bresenham-style proportional interleave: slot `s` of a period of
/// `weight_sum` slots is assigned to the stream with the largest
/// accumulated credit, spreading each stream's occurrences evenly.
fn build_slot_table(streams: &[StreamSpec], weight_sum: u64) -> Vec<SlotEntry> {
    let mut credits: Vec<i64> = vec![0; streams.len()];
    let mut occ: Vec<u32> = vec![0; streams.len()];
    let mut slots = Vec::with_capacity(crate::cast::idx(weight_sum));
    for _ in 0..weight_sum {
        for (c, s) in credits.iter_mut().zip(streams) {
            *c += s.weight as i64;
        }
        let (best, _) = credits
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            // lint:allow(no-unwrap): builders validate phases to have at least one stream before this table is built
            .expect("non-empty streams");
        credits[best] -= weight_sum as i64;
        slots.push(SlotEntry {
            stream: best as u16,
            occ: occ[best],
        });
        occ[best] += 1;
    }
    slots
}

#[derive(Clone, Debug)]
struct SlotEntry {
    stream: u16,
    occ: u32,
}

#[derive(Clone, Debug)]
struct CompiledStream {
    pattern: Pattern,
    base_line: u64,
    pc_base: u64,
    pcs: u32,
    weight: u64,
    seed: u64,
}

impl CompiledStream {
    /// The full record of stream-local access `j`, at global index `k`,
    /// touching cacheline `line`: the PC is hashed from `j`.
    #[inline(always)]
    fn access(&self, j: u64, k: u64, line: u64, mem_period: u64) -> MemAccess {
        let pc_idx = if self.pcs == 1 {
            0
        } else {
            mix64(self.seed ^ 0x9c, j) % self.pcs as u64
        };
        MemAccess {
            index: k,
            icount: k * mem_period,
            pc: Pc(self.pc_base + pc_idx * 4),
            addr: Addr(line * LINE_BYTES),
        }
    }
}

#[derive(Clone, Debug)]
struct CompiledPhase {
    weight_sum: u64,
    periods_per_rep: u64,
    slots: Vec<SlotEntry>,
    streams: Vec<CompiledStream>,
}

/// A compiled multi-phase workload; see the module documentation.
#[derive(Clone, Debug)]
pub struct PhasedWorkload {
    name: String,
    seed: u64,
    mem_period: u64,
    branch: BranchModel,
    phases: Vec<CompiledPhase>,
    phase_starts: Vec<u64>,
    cycle_len: u64,
}

impl PhasedWorkload {
    /// Length of one full phase cycle, in accesses.
    pub fn cycle_len_accesses(&self) -> u64 {
        self.cycle_len
    }

    /// Total footprint across all phases and streams, in cachelines.
    pub fn footprint_lines(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| p.streams.iter())
            .map(|s| s.pattern.footprint_lines())
            .sum()
    }

    /// The master seed the workload was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Index of the phase active at access `k` (for diagnostics).
    pub fn phase_at(&self, k: u64) -> usize {
        let pos = k % self.cycle_len;
        match self.phase_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }
}

impl Workload for PhasedWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn mem_period(&self) -> u64 {
        self.mem_period
    }

    fn branch_model(&self) -> BranchModel {
        self.branch
    }

    #[inline]
    fn access_at(&self, k: u64) -> MemAccess {
        let pos = k % self.cycle_len;
        let rep = k / self.cycle_len;
        let pi = match self.phase_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let phase = &self.phases[pi];
        let local = pos - self.phase_starts[pi];
        let slot = &phase.slots[(local % phase.weight_sum) as usize];
        let period_idx = local / phase.weight_sum;
        let s = &phase.streams[slot.stream as usize];
        // Stream-local index: this stream sees `weight` accesses per period,
        // `periods_per_rep` periods per cycle repetition.
        let j = (rep * phase.periods_per_rep + period_idx) * s.weight + slot.occ as u64;
        s.access(
            j,
            k,
            s.base_line + s.pattern.line_at(s.seed, j),
            self.mem_period,
        )
    }

    fn cursor<'a>(&'a self, range: Range<u64>) -> Box<dyn AccessCursor + 'a> {
        Box::new(PhasedCursor::new(self, range))
    }
}

/// Per-stream incremental state of a [`PhasedCursor`]: the stream-local
/// index of the stream's next occurrence and a [`PatternCursor`] kept in
/// lock-step with it.
#[derive(Debug)]
struct StreamCursor {
    j: u64,
    pattern: PatternCursor,
}

/// Streaming cursor over a [`PhasedWorkload`].
///
/// `access_at` re-derives phase, slot, stream and stream-local index for
/// every access: a binary search over the phase starts plus a chain of
/// divides and mods. Sequential consumers never need any of that — the
/// cursor resolves the phase once per phase *segment* (and once per
/// seek), then walks the slot table in order while per-stream indices
/// and pattern states advance incrementally. Output is byte-identical to
/// `access_at` over the range.
#[derive(Debug)]
pub struct PhasedCursor<'w> {
    w: &'w PhasedWorkload,
    next: u64,
    end: u64,
    /// Index of the phase containing `next`.
    pi: usize,
    /// Global access index at which the current phase segment ends.
    segment_end: u64,
    /// Position in the current phase's slot table for `next`.
    slot_pos: usize,
    streams: Vec<StreamCursor>,
}

impl<'w> PhasedCursor<'w> {
    /// A cursor over `workload` accesses with `index ∈ range`.
    pub fn new(workload: &'w PhasedWorkload, range: Range<u64>) -> Self {
        let mut c = PhasedCursor {
            w: workload,
            next: range.start,
            end: range.end.max(range.start),
            pi: 0,
            segment_end: range.start,
            slot_pos: 0,
            streams: Vec::new(),
        };
        if c.next < c.end {
            c.seek(c.next);
        }
        c
    }

    /// Resolve the phase containing global index `k` and rebuild the
    /// per-stream incremental state. `O(weight_sum + streams)`; runs once
    /// per phase segment, amortized over at least `len_accesses` reads.
    fn seek(&mut self, k: u64) {
        let w = self.w;
        let rep = k / w.cycle_len;
        let pos = k % w.cycle_len;
        let pi = match w.phase_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let phase = &w.phases[pi];
        let local = pos - w.phase_starts[pi];
        let phase_len = phase.periods_per_rep * phase.weight_sum;
        let period_idx = local / phase.weight_sum;
        let slot_pos = (local % phase.weight_sum) as usize;
        // Occurrences of each stream already consumed in this period: the
        // `occ` of its next slot (== weight if fully consumed, which rolls
        // cleanly into the next period's index 0).
        let mut consumed = vec![0u64; phase.streams.len()];
        for slot in &phase.slots[..slot_pos] {
            consumed[slot.stream as usize] += 1;
        }
        let period_base = rep * phase.periods_per_rep + period_idx;
        self.pi = pi;
        self.segment_end = k + (phase_len - local);
        self.slot_pos = slot_pos;
        self.streams = phase
            .streams
            .iter()
            .zip(consumed)
            .map(|(s, done)| {
                let j = period_base * s.weight + done;
                StreamCursor {
                    j,
                    pattern: s.pattern.cursor(s.seed, j),
                }
            })
            .collect();
    }
}

impl PhasedCursor<'_> {
    /// The shared generation loop of both outputs: walks the slot table
    /// and advances slot and pattern state, then pushes `emit(stream,
    /// j, k, line)` per access (`j` stream-local, `k` global, `line` the
    /// cacheline). Inlined into each caller, so an `emit` that
    /// ignores the stream and `j` compiles to a loop without the PC
    /// hash.
    #[inline(always)]
    fn generate<T>(
        &mut self,
        out: &mut Vec<T>,
        max: usize,
        emit: impl Fn(&CompiledStream, u64, u64, u64) -> T,
    ) -> usize {
        out.clear();
        let w = self.w;
        while out.len() < max && self.next < self.end {
            if self.next == self.segment_end {
                self.seek(self.next);
            }
            let phase = &w.phases[self.pi];
            let burst_end = self
                .end
                .min(self.segment_end)
                .min(self.next + (max - out.len()) as u64);
            out.reserve((burst_end - self.next) as usize);
            while self.next < burst_end {
                let slot = &phase.slots[self.slot_pos];
                let si = slot.stream as usize;
                let s = &phase.streams[si];
                let st = &mut self.streams[si];
                let j = st.j;
                st.j += 1;
                let line = s.base_line + st.pattern.next_line();
                out.push(emit(s, j, self.next, line));
                self.next += 1;
                self.slot_pos += 1;
                if self.slot_pos == phase.slots.len() {
                    self.slot_pos = 0;
                }
            }
        }
        out.len()
    }
}

impl AccessCursor for PhasedCursor<'_> {
    fn position(&self) -> u64 {
        self.next
    }

    fn end(&self) -> u64 {
        self.end
    }

    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
        let p = self.w.mem_period;
        self.generate(out, max, |s, j, k, line| s.access(j, k, line, p))
    }

    /// Advances only slot and pattern state: no PC hash.
    fn fill_lines(&mut self, out: &mut Vec<LineAddr>, max: usize) -> usize {
        self.generate(out, max, |_, _, _, line| LineAddr(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::FlatMap;
    use crate::WorkloadExt;

    fn two_stream() -> PhasedWorkload {
        PhasedWorkloadBuilder::new("t", 7)
            .phase(
                10_000,
                vec![
                    StreamSpec::new(
                        Pattern::Stream {
                            lines: 32,
                            stride_lines: 1,
                        },
                        3,
                    ),
                    StreamSpec::new(Pattern::RandomUniform { lines: 1024 }, 1),
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn determinism() {
        let w = two_stream();
        for k in [0u64, 1, 999, 123_456, 10_000_000] {
            assert_eq!(w.access_at(k), w.access_at(k));
        }
    }

    #[test]
    fn weights_are_respected() {
        let w = two_stream();
        // Stream 0 gets 3/4 of accesses; its footprint is 32 lines from its
        // base, stream 1's is 1024 lines from a disjoint base.
        let mut by_base: FlatMap<u64, u64> = FlatMap::new();
        for a in w.iter_range(0..40_000) {
            let line = a.addr.0 / LINE_BYTES;
            let base = if line < w.phases[0].streams[1].base_line {
                0
            } else {
                1
            };
            *by_base.or_default(base) += 1;
        }
        assert_eq!(by_base.get(0), Some(&30_000));
        assert_eq!(by_base.get(1), Some(&10_000));
    }

    #[test]
    fn footprints_do_not_overlap() {
        let w = PhasedWorkloadBuilder::new("t", 3)
            .phase(
                1_000,
                vec![
                    StreamSpec::new(Pattern::RandomUniform { lines: 100 }, 1),
                    StreamSpec::new(Pattern::RandomUniform { lines: 200 }, 1),
                    StreamSpec::new(Pattern::PermutationWalk { lines: 300 }, 1),
                ],
            )
            .build()
            .unwrap();
        let s = &w.phases[0].streams;
        for i in 0..s.len() {
            for l in (i + 1)..s.len() {
                let (a, b) = (&s[i], &s[l]);
                let a_end = a.base_line + a.pattern.footprint_lines();
                let b_end = b.base_line + b.pattern.footprint_lines();
                assert!(
                    a_end <= b.base_line || b_end <= a.base_line,
                    "streams {i} and {l} overlap"
                );
            }
        }
    }

    #[test]
    fn stream_local_indices_are_contiguous() {
        // With a single stream of weight 1, stream-local index == global
        // index, so a PermutationWalk must produce each line exactly once
        // per footprint period.
        let w = PhasedWorkloadBuilder::new("t", 11)
            .phase(
                1_000,
                vec![StreamSpec::new(Pattern::PermutationWalk { lines: 50 }, 1)],
            )
            .build()
            .unwrap();
        let lines: Vec<u64> = w.iter_range(0..50).map(|a| a.addr.0 / 64).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "first 50 accesses must cover all lines");
        // And the next period repeats the same sequence.
        let again: Vec<u64> = w.iter_range(50..100).map(|a| a.addr.0 / 64).collect();
        assert_eq!(lines, again);
    }

    #[test]
    fn phases_switch_at_boundaries() {
        let w = PhasedWorkloadBuilder::new("t", 5)
            .phase(
                100,
                vec![StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 1)],
            )
            .phase(
                300,
                vec![StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 1)],
            )
            .build()
            .unwrap();
        assert_eq!(w.cycle_len_accesses(), 400);
        assert_eq!(w.phase_at(0), 0);
        assert_eq!(w.phase_at(99), 0);
        assert_eq!(w.phase_at(100), 1);
        assert_eq!(w.phase_at(399), 1);
        assert_eq!(w.phase_at(400), 0); // wraps
        let a = w.access_at(50);
        let b = w.access_at(150);
        // Different phases → different stream bases.
        assert_ne!(a.addr.0 & !0xfff, b.addr.0 & !0xfff);
    }

    #[test]
    fn phase_length_rounds_up_to_weight_sum() {
        let w = PhasedWorkloadBuilder::new("t", 5)
            .phase(
                10,
                vec![
                    StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 7),
                    StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 6),
                ],
            )
            .build()
            .unwrap();
        assert_eq!(w.cycle_len_accesses(), 13);
    }

    #[test]
    fn builder_rejects_bad_specs() {
        assert!(PhasedWorkloadBuilder::new("t", 0).build().is_err());
        assert!(PhasedWorkloadBuilder::new("t", 0)
            .phase(10, vec![])
            .build()
            .is_err());
        assert!(PhasedWorkloadBuilder::new("t", 0)
            .phase(
                10,
                vec![StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 0)]
            )
            .build()
            .is_err());
        assert!(PhasedWorkloadBuilder::new("t", 0)
            .mem_period(0)
            .phase(
                10,
                vec![StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 1)]
            )
            .build()
            .is_err());
    }

    #[test]
    fn slot_table_spreads_occurrences() {
        let streams = vec![
            StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 9),
            StreamSpec::new(Pattern::RandomUniform { lines: 16 }, 1),
        ];
        let slots = build_slot_table(&streams, 10);
        assert_eq!(slots.len(), 10);
        let ones = slots.iter().filter(|s| s.stream == 1).count();
        assert_eq!(ones, 1);
        // Occurrence counters are per-stream and sequential.
        let occs: Vec<u32> = slots
            .iter()
            .filter(|s| s.stream == 0)
            .map(|s| s.occ)
            .collect();
        assert_eq!(occs, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn pcs_come_from_stream_pool() {
        let w = PhasedWorkloadBuilder::new("t", 7)
            .phase(
                1_000,
                vec![StreamSpec::new(Pattern::RandomUniform { lines: 64 }, 1).with_pcs(8)],
            )
            .build()
            .unwrap();
        let pcs: crate::collections::FlatSet<u64> =
            w.iter_range(0..1_000).map(|a| a.pc.0).collect();
        assert!(pcs.len() <= 8);
        assert!(pcs.len() >= 6, "expected most PCs used, got {}", pcs.len());
    }

    #[test]
    fn cursor_matches_access_at_across_phase_and_cycle_boundaries() {
        let w = PhasedWorkloadBuilder::new("t", 5)
            .phase(
                100,
                vec![
                    StreamSpec::new(
                        Pattern::Stream {
                            lines: 32,
                            stride_lines: 3,
                        },
                        3,
                    ),
                    StreamSpec::new(Pattern::PermutationWalk { lines: 61 }, 2),
                ],
            )
            .phase(
                200,
                vec![
                    StreamSpec::new(Pattern::RandomUniform { lines: 128 }, 1),
                    StreamSpec::new(
                        Pattern::StridedScan {
                            lines: 7,
                            stride_lines: 8,
                        },
                        4,
                    ),
                ],
            )
            .build()
            .unwrap();
        let cycle = w.cycle_len_accesses();
        // Ranges spanning the phase switch, the cycle wrap, and a deep
        // offset; odd batch sizes so refills land mid-period.
        for range in [
            0..cycle + 50,
            80..130,
            cycle - 25..2 * cycle + 25,
            1_000_003..1_000_403,
        ] {
            let mut cur = PhasedCursor::new(&w, range.clone());
            let mut buf = Vec::new();
            let mut k = range.start;
            while cur.fill(&mut buf, 13) > 0 {
                for a in &buf {
                    assert_eq!(*a, w.access_at(k), "index {k}");
                    k += 1;
                }
            }
            assert_eq!(k, range.end);
        }
    }
}
