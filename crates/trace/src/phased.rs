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
//!
//! A watchpoint scan walks a workload's [`line_domains`](Workload::line_domains):
//! one domain per compiled stream, whose builder gives each stream its own
//! page-aligned footprint. A domain numbers its accesses by their
//! stream-local index `j` and yields them in page runs
//! ([`LineRun`]): a stride-1 `Stream` touches consecutive lines for
//! consecutive `j`, so it yields runs of up to 64 in O(1) each, ending at
//! a page end, where the footprint wraps, or at the range end; every other
//! pattern yields runs of 1. A run's `j + o` maps back to its global
//! index with the slot arithmetic a seek uses.

use crate::branch::BranchModel;
use crate::cursor::AccessCursor;
use crate::domain::{LineDomains, LineRun};
use crate::pattern::{Pattern, PatternCursor};
use crate::rng::{mix64, CounterRng};
use crate::types::{Addr, LineAddr, MemAccess, PageAddr, Pc, LINE_BYTES, PAGE_BYTES};
use crate::Workload;
use std::ops::Range;

/// One weighted access stream within a phase.
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
        // accidental overlap). The line-domain split rests on this:
        // `tests::footprints_do_not_overlap` pins it for every suite input
        // at every scale.
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

    /// One domain per compiled stream `(phase, stream)`, numbered in
    /// build order.
    fn line_domains<'a>(&'a self, range: Range<u64>) -> Box<dyn LineDomains + 'a> {
        Box::new(StreamDomains::new(self, range))
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

/// One compiled stream as a line domain of a [`StreamDomains`] split.
#[derive(Debug)]
struct StreamDomain {
    phase: usize,
    stream: usize,
    /// First line past the stream's footprint pages (the footprint starts
    /// page-aligned at the stream's `base_line`).
    claim_end: u64,
    /// This stream's slice of [`StreamDomains::inverse`].
    inverse: Range<usize>,
    /// Stream-local index of the stream's first access at or past the
    /// split's range end: a walk stops before it.
    end_j: u64,
}

/// Where one of a stream's accesses sits in the phase's slot schedule.
#[derive(Copy, Clone, Debug)]
struct SlotPos {
    /// Global index of the access's period's first slot.
    period_base: u64,
    /// Period within the current repetition of the phase.
    period: u64,
    /// The stream's occurrence within the period.
    occ: usize,
}

/// Incremental walk over one stream's accesses in global index order.
#[derive(Debug)]
struct StreamWalk {
    /// One past the last index produced (or the seek target): a `fill`
    /// from here continues the walk.
    floor: u64,
    /// The next access's slot.
    at: SlotPos,
    /// The pattern at the next access; its position is the stream-local
    /// index `j` of that access.
    pattern: PatternCursor,
}

/// One domain's stream as its walks read it.
struct Stream<'a> {
    base_line: u64,
    /// The domain's slot positions, one per occurrence in a period.
    inverse: &'a [u32],
    phase: &'a CompiledPhase,
    /// From the slot after a repetition's last period to the next
    /// repetition's first.
    rep_gap: u64,
    /// The split's range end, and the stream-local index of the
    /// stream's first access at or past it: a walk stops there.
    end: u64,
    end_j: u64,
}

impl Stream<'_> {
    /// Global index of the access at `at`.
    #[inline(always)]
    fn index(&self, at: &SlotPos) -> u64 {
        at.period_base + u64::from(self.inverse[at.occ])
    }

    /// Move `at` to the stream's next access.
    #[inline(always)]
    fn step(&self, at: &mut SlotPos) {
        at.occ += 1;
        if at.occ == self.inverse.len() {
            at.occ = 0;
            at.period += 1;
            at.period_base += self.phase.weight_sum;
            if at.period == self.phase.periods_per_rep {
                at.period = 0;
                at.period_base += self.rep_gap;
            }
        }
    }

    /// Move `at` `n` accesses on, in O(1).
    fn skip(&self, at: &mut SlotPos, n: u64) {
        let weight = self.inverse.len() as u64;
        let occ = at.occ as u64 + n;
        if occ < weight {
            at.occ = crate::cast::idx(occ);
            return;
        }
        let period = at.period + occ / weight;
        at.occ = crate::cast::idx(occ % weight);
        at.period_base += (period - at.period) * self.phase.weight_sum;
        at.period = period % self.phase.periods_per_rep;
        at.period_base += period / self.phase.periods_per_rep * self.rep_gap;
    }

    /// Fill `out` with up to `max` runs of 1 from `walk`: the loop of a
    /// pattern that cannot run, kept as tight as a line fill.
    /// [`fill_runs`](Self::fill_runs) yields the same runs for such a
    /// pattern, but costs more per run of 1, and hashed domains walk
    /// nearly one run per access.
    fn fill_singles(&self, walk: &mut StreamWalk, out: &mut Vec<LineRun>, max: usize) -> usize {
        while out.len() < max {
            let index = self.index(&walk.at);
            if index >= self.end {
                break;
            }
            out.push(LineRun {
                index,
                ordinal: walk.pattern.position(),
                line: LineAddr(self.base_line + walk.pattern.next_line()),
                len: 1,
            });
            walk.floor = index + 1;
            self.step(&mut walk.at);
        }
        out.len()
    }

    /// Fill `out` with the runs of up to `max` accesses from `walk`, for
    /// a pattern that runs (a stride-1 `Stream`).
    fn fill_runs(&self, walk: &mut StreamWalk, out: &mut Vec<LineRun>, max: usize) -> usize {
        let mut produced = 0;
        while produced < max && walk.pattern.position() < self.end_j {
            let index = self.index(&walk.at);
            let ordinal = walk.pattern.position();
            let left = (max - produced) as u64;
            let (offset, len) = walk.pattern.next_run(left.min(self.end_j - ordinal));
            if len > 1 {
                self.skip(&mut walk.at, len - 1);
            }
            walk.floor = self.index(&walk.at) + 1;
            self.step(&mut walk.at);
            out.push(LineRun {
                index,
                ordinal,
                line: LineAddr(self.base_line + offset),
                len: crate::cast::u32_exact(len),
            });
            produced += crate::cast::idx(len);
        }
        produced
    }
}

/// The per-stream split of a [`PhasedWorkload`] range: one domain per
/// compiled stream, each walked on its own stream-local index `j`.
///
/// Stream-local access `j` of stream `s` in phase `p` sits at global
/// index `rep·cycle + phase_start + period·weight_sum + slot`, where
/// `(rep, period, occ)` decompose `j` as in `access_at` and `slot` is the
/// position of the stream's `occ`-th occurrence in the slot table. The
/// inverse slot table holding those positions is built here, per split.
///
/// A domain's ordinals are its stream-local indices, so a run covers
/// consecutive values of `j`, and [`index_of`](LineDomains::index_of)
/// is the slot arithmetic above.
#[derive(Debug)]
struct StreamDomains<'w> {
    w: &'w PhasedWorkload,
    range: Range<u64>,
    /// Domain number of each phase's stream 0.
    phase_domain: Vec<usize>,
    domains: Vec<StreamDomain>,
    /// Per domain, the slot positions of its occurrences, in order.
    inverse: Vec<u32>,
    walks: Vec<Option<StreamWalk>>,
}

impl<'w> StreamDomains<'w> {
    fn new(w: &'w PhasedWorkload, range: Range<u64>) -> Self {
        let lines_per_page = PAGE_BYTES / LINE_BYTES;
        let mut phase_domain = Vec::with_capacity(w.phases.len());
        let mut domains = Vec::new();
        let mut inverse = Vec::new();
        for (pi, phase) in w.phases.iter().enumerate() {
            phase_domain.push(domains.len());
            for (si, s) in phase.streams.iter().enumerate() {
                let at = inverse.len();
                inverse.extend(
                    (0u32..)
                        .zip(&phase.slots)
                        .filter(|(_, slot)| slot.stream as usize == si)
                        .map(|(pos, _)| pos),
                );
                domains.push(StreamDomain {
                    phase: pi,
                    stream: si,
                    claim_end: s.base_line
                        + s.pattern.footprint_lines().div_ceil(lines_per_page) * lines_per_page,
                    inverse: at..inverse.len(),
                    end_j: 0,
                });
            }
        }
        let walks = domains.iter().map(|_| None).collect();
        let mut split = StreamDomains {
            w,
            range,
            phase_domain,
            domains,
            inverse,
            walks,
        };
        for di in 0..split.domains.len() {
            split.domains[di].end_j = split.local_at(di, split.range.end);
        }
        split
    }

    fn stream(&self, d: &StreamDomain) -> (&CompiledPhase, &CompiledStream) {
        let phase = &self.w.phases[d.phase];
        (phase, &phase.streams[d.stream])
    }

    /// Domain `di`'s stream as its walks read it.
    fn view(&self, di: usize) -> Stream<'_> {
        let d = &self.domains[di];
        let (phase, s) = self.stream(d);
        Stream {
            base_line: s.base_line,
            inverse: &self.inverse[d.inverse.clone()],
            phase,
            rep_gap: self.w.cycle_len - phase.periods_per_rep * phase.weight_sum,
            end: self.range.end,
            end_j: d.end_j,
        }
    }

    /// Stream-local index of domain `di`'s first access with global
    /// index `≥ k`.
    fn local_at(&self, di: usize, k: u64) -> u64 {
        let w = self.w;
        let d = &self.domains[di];
        let (phase, s) = self.stream(d);
        let per_rep = phase.periods_per_rep * s.weight;
        let phase_start = w.phase_starts[d.phase];
        let rep = k / w.cycle_len;
        let pos = k % w.cycle_len;
        if pos < phase_start {
            rep * per_rep
        } else if pos - phase_start >= phase.periods_per_rep * phase.weight_sum {
            (rep + 1) * per_rep
        } else {
            let local = pos - phase_start;
            let slot = local % phase.weight_sum;
            let inverse = &self.inverse[d.inverse.clone()];
            let consumed = inverse.partition_point(|&p| u64::from(p) < slot) as u64;
            (rep * phase.periods_per_rep + local / phase.weight_sum) * s.weight + consumed
        }
    }

    /// The slot of domain `di`'s stream-local access `j`.
    fn slot_of(&self, di: usize, j: u64) -> SlotPos {
        let d = &self.domains[di];
        let (phase, s) = self.stream(d);
        let per_rep = phase.periods_per_rep * s.weight;
        let (rep, within) = (j / per_rep, j % per_rep);
        let period = within / s.weight;
        SlotPos {
            period_base: rep * self.w.cycle_len
                + self.w.phase_starts[d.phase]
                + period * phase.weight_sum,
            period,
            occ: crate::cast::idx(within % s.weight),
        }
    }

    /// The walk of domain `di` positioned at its first access with
    /// index `≥ from`.
    fn seek(&self, di: usize, from: u64) -> StreamWalk {
        let j = self.local_at(di, from);
        let (_, s) = self.stream(&self.domains[di]);
        StreamWalk {
            floor: from,
            at: self.slot_of(di, j),
            pattern: s.pattern.cursor(s.seed, j),
        }
    }
}

impl LineDomains for StreamDomains<'_> {
    fn count(&self) -> usize {
        self.domains.len()
    }

    fn domain_of_line(&self, line: LineAddr) -> Option<usize> {
        // Bases rise in build (= domain) order.
        let after = self.domains.partition_point(|d| {
            let (_, s) = self.stream(d);
            s.base_line <= line.0
        });
        let di = after.checked_sub(1)?;
        (line.0 < self.domains[di].claim_end).then_some(di)
    }

    fn page_span(&self) -> Option<Range<PageAddr>> {
        let lines_per_page = PageAddr::lines_per_page();
        let (first, last) = (self.domains.first()?, self.domains.last()?);
        let (_, s) = self.stream(first);
        Some(PageAddr(s.base_line / lines_per_page)..PageAddr(last.claim_end / lines_per_page))
    }

    /// The ordinal is the stream-local index `j`, as `access_at`
    /// derives it.
    fn domains_of(&self, indices: &[u64], out: &mut Vec<(usize, u64)>) {
        out.clear();
        out.extend(indices.iter().map(|&k| {
            let w = self.w;
            let pi = w.phase_at(k);
            let phase = &w.phases[pi];
            let local = k % w.cycle_len - w.phase_starts[pi];
            let slot = &phase.slots[crate::cast::idx(local % phase.weight_sum)];
            let s = &phase.streams[slot.stream as usize];
            let period = k / w.cycle_len * phase.periods_per_rep + local / phase.weight_sum;
            (
                self.phase_domain[pi] + slot.stream as usize,
                period * s.weight + u64::from(slot.occ),
            )
        }));
    }

    /// Stride-1 `Stream` patterns walk in runs of up to 64, each ending
    /// at a page end, the footprint wrap, the range end or `max`; every
    /// other pattern walks in runs of 1.
    fn fill(&mut self, domain: usize, from: u64, out: &mut Vec<LineRun>, max: usize) -> usize {
        out.clear();
        let from = from.max(self.range.start);
        let mut walk = match self.walks[domain].take() {
            Some(walk) if walk.floor == from => walk,
            _ => self.seek(domain, from),
        };
        let stream = self.view(domain);
        let got = if walk.pattern.runs() {
            stream.fill_runs(&mut walk, out, max)
        } else {
            stream.fill_singles(&mut walk, out, max)
        };
        self.walks[domain] = Some(walk);
        got
    }

    fn index_of(&self, domain: usize, ordinal: u64) -> u64 {
        self.view(domain).index(&self.slot_of(domain, ordinal))
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
        // The invariant the line-domain split rests on: every compiled
        // stream of every phase starts page-aligned, and no page holds
        // lines of two streams.
        let lines_per_page = PAGE_BYTES / LINE_BYTES;
        let toy = PhasedWorkloadBuilder::new("t", 3)
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
        let mut workloads = vec![toy];
        for scale in [
            crate::Scale::tiny(),
            crate::Scale::demo(),
            crate::Scale::paper(),
        ] {
            for name in crate::SPEC2006_NAMES {
                workloads.push(crate::spec_workload(name, scale, 1).unwrap());
            }
        }
        for w in &workloads {
            let mut pages: Vec<(u64, u64)> = w
                .phases
                .iter()
                .flat_map(|p| &p.streams)
                .map(|s| {
                    assert_eq!(s.base_line % lines_per_page, 0, "{}: unaligned", w.name);
                    let last = s.base_line + s.pattern.footprint_lines() - 1;
                    (s.base_line / lines_per_page, last / lines_per_page)
                })
                .collect();
            pages.sort_unstable();
            for pair in pages.windows(2) {
                assert!(
                    pair[0].1 < pair[1].0,
                    "{}: pages {:?} and {:?} overlap",
                    w.name,
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn stream_domains_partition_the_range() {
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
                        Pattern::HotCold {
                            hot_lines: 4,
                            cold_lines: 700,
                            hot_permille: 900,
                        },
                        4,
                    ),
                ],
            )
            .build()
            .unwrap();
        let cycle = w.cycle_len_accesses();
        for range in [
            0..cycle + 50,
            80..130,
            cycle - 25..2 * cycle + 25,
            1_000_003..1_000_403,
        ] {
            let mut split = w.line_domains(range.clone());
            assert_eq!(split.count(), 4);
            let span = split.page_span().expect("a phased split bounds its pages");
            let mut seen = Vec::new();
            let mut buf = Vec::new();
            for d in 0..split.count() {
                // Odd batches, so continuations land mid-period.
                let mut from = range.start;
                while split.fill(d, from, &mut buf, 7) > 0 {
                    let accesses = expand(&*split, d, &buf);
                    let mut owners = Vec::new();
                    let indices: Vec<u64> = accesses.iter().map(|&(k, _)| k).collect();
                    split.domains_of(&indices, &mut owners);
                    for (&(k, line), &(owner, _)) in accesses.iter().zip(&owners) {
                        assert!(k >= from, "domain {d} went back to {k}");
                        assert_eq!(owner, d, "index {k}");
                        assert_eq!(split.domain_of_line(line), Some(d), "index {k}");
                        assert!(span.contains(&line.page()), "index {k}");
                        seen.push((k, line));
                        from = k + 1;
                    }
                }
            }
            seen.sort_unstable();
            let expected: Vec<(u64, LineAddr)> =
                range.clone().map(|k| (k, w.access_at(k).line())).collect();
            assert_eq!(seen, expected, "range {range:?}");
            // A seek lands on the domain's first access at or after it.
            for from in range.clone().step_by(11) {
                for d in 0..split.count() {
                    let next = expected
                        .iter()
                        .map(|&(k, _)| k)
                        .find(|&k| k >= from && split_owner(&*split, k) == d);
                    let got = (split.fill(d, from, &mut buf, 1) > 0).then(|| buf[0].index);
                    assert_eq!(got, next, "domain {d} from {from}");
                }
            }
        }
        assert_eq!(w.line_domains(0..10).domain_of_line(LineAddr(0)), None);
        // Every suite input: each domain's accesses stay on its own
        // pages, inside the split's span.
        for name in crate::SPEC2006_NAMES {
            let w = crate::spec_workload(name, crate::Scale::tiny(), 1).unwrap();
            let mut split = w.line_domains(0..20_000);
            let span = split.page_span().expect("a phased split bounds its pages");
            let mut buf = Vec::new();
            for d in 0..split.count() {
                let mut from = 0;
                while split.fill(d, from, &mut buf, 512) > 0 {
                    for (k, line) in expand(&*split, d, &buf) {
                        assert_eq!(split.domain_of_line(line), Some(d), "{name}: index {k}");
                        assert!(span.contains(&line.page()), "{name}: index {k}");
                        from = k + 1;
                    }
                }
            }
        }
    }

    fn split_owner(split: &dyn LineDomains, k: u64) -> usize {
        let mut out = Vec::new();
        split.domains_of(&[k], &mut out);
        out[0].0
    }

    /// Every access of `runs`, which `split` produced for domain `d`, as
    /// `(index, line)` pairs, checking each run's shape on the way: 1 to
    /// 64 accesses on one page, indices rising from `index`, each
    /// access's ordinal agreeing with `domains_of`.
    fn expand(split: &dyn LineDomains, d: usize, runs: &[LineRun]) -> Vec<(u64, LineAddr)> {
        let mut out: Vec<(u64, LineAddr)> = Vec::new();
        let mut owner = Vec::new();
        for run in runs {
            assert!((1..=64).contains(&run.len), "{run:?}");
            let end = LineAddr(run.line.0 + u64::from(run.len) - 1);
            assert_eq!(run.line.page(), end.page(), "{run:?} crosses a page");
            assert_eq!(split.index_of(d, run.ordinal), run.index, "{run:?}");
            for o in 0..u64::from(run.len) {
                let k = split.index_of(d, run.ordinal + o);
                split.domains_of(&[k], &mut owner);
                assert_eq!(owner, vec![(d, run.ordinal + o)], "{run:?}");
                if let Some(&(prev, _)) = out.last() {
                    assert!(k > prev, "{run:?}: index {k} after {prev}");
                }
                out.push((k, LineAddr(run.line.0 + o)));
            }
        }
        out
    }

    /// Every domain of `w`'s split of `range`, walked in batches of
    /// `max` accesses and expanded run by run, must produce exactly the
    /// `(index, line)` pairs `access_at` gives its accesses; a seek from
    /// each of `seeks` must produce the domain's accesses from there.
    /// Returns `(runs, accesses)` over the walks.
    fn check_runs(w: &PhasedWorkload, range: Range<u64>, max: usize, seeks: u64) -> (u64, u64) {
        let mut split = w.line_domains(range.clone());
        let indices: Vec<u64> = range.clone().collect();
        let mut owners = Vec::new();
        split.domains_of(&indices, &mut owners);
        let mut buf = Vec::new();
        let (mut runs, mut accesses) = (0, 0);
        for d in 0..split.count() {
            let expected: Vec<(u64, LineAddr)> = indices
                .iter()
                .zip(&owners)
                .filter(|&(_, &(o, _))| o == d)
                .map(|(&k, _)| (k, w.access_at(k).line()))
                .collect();
            let mut seen = Vec::new();
            let mut from = range.start;
            loop {
                let got = split.fill(d, from, &mut buf, max);
                if got == 0 {
                    break;
                }
                let batch = expand(&*split, d, &buf);
                assert_eq!(batch.len(), got, "{}: domain {d}", w.name());
                assert!(got <= max);
                runs += buf.len() as u64;
                from = batch[batch.len() - 1].0 + 1;
                seen.extend(batch);
            }
            accesses += seen.len() as u64;
            assert_eq!(seen, expected, "{}: domain {d} of {range:?}", w.name());
            // Seeks from arbitrary indices, in and out of the domain.
            let step = (range.end - range.start) / seeks.max(1) + 1;
            for from in (range.start..range.end + 2).step_by(crate::cast::idx(step)) {
                let at = expected.partition_point(|&(k, _)| k < from);
                let got = split.fill(d, from, &mut buf, max);
                assert_eq!(
                    expand(&*split, d, &buf),
                    expected[at..(at + max).min(expected.len())].to_vec(),
                    "{}: domain {d} from {from}",
                    w.name()
                );
                assert_eq!(got, (expected.len() - at).min(max));
            }
        }
        (runs, accesses)
    }

    #[test]
    fn runs_expand_to_access_at() {
        // Every pattern kind, stride-1 footprints under 64 lines and not a
        // multiple of 64, a stride that steps one line modulo its
        // footprint (8 mod 7), weights above 1, and three phases so each
        // stream's repetition leaves a gap.
        let stream = |lines, stride_lines| Pattern::Stream {
            lines,
            stride_lines,
        };
        let w = PhasedWorkloadBuilder::new("runs", 13)
            .phase(
                300,
                vec![
                    StreamSpec::new(stream(40, 1), 3),
                    StreamSpec::new(stream(200, 1), 2),
                    StreamSpec::new(stream(130, 3), 1),
                    StreamSpec::new(stream(7, 8), 1),
                ],
            )
            .phase(
                240,
                vec![
                    StreamSpec::new(stream(129, 1), 1),
                    StreamSpec::new(
                        Pattern::StridedScan {
                            lines: 9,
                            stride_lines: 5,
                        },
                        2,
                    ),
                    StreamSpec::new(Pattern::PermutationWalk { lines: 61 }, 1),
                ],
            )
            .phase(
                200,
                vec![
                    StreamSpec::new(stream(64, 1), 4),
                    StreamSpec::new(Pattern::RandomUniform { lines: 128 }, 1),
                    StreamSpec::new(
                        Pattern::HotCold {
                            hot_lines: 4,
                            cold_lines: 700,
                            hot_permille: 900,
                        },
                        2,
                    ),
                    StreamSpec::new(
                        Pattern::PagedHotCold {
                            pages: 3,
                            hot_permille: 500,
                        },
                        1,
                    ),
                ],
            )
            .build()
            .unwrap();
        let cycle = w.cycle_len_accesses();
        let (mut runs, mut accesses) = (0, 0);
        for range in [
            0..3 * cycle + 17,
            280..320,
            cycle - 25..2 * cycle + 25,
            1_000_003..1_004_403,
            500..501,
            77..77,
        ] {
            for max in [1, 7, 64, 100, crate::CURSOR_BATCH] {
                let (r, a) = check_runs(&w, range.clone(), max, 37);
                if max >= 64 {
                    runs += r;
                    accesses += a;
                }
            }
        }
        // In batches of 64 and up, the stride-1 streams walk in runs
        // longer than one access.
        assert!(runs * 2 < accesses, "{runs} runs for {accesses} accesses");
        // Every suite input, from its start and across its cycle wrap.
        for name in crate::SPEC2006_NAMES {
            let w = crate::spec_workload(name, crate::Scale::tiny(), 1).unwrap();
            let cycle = w.cycle_len_accesses();
            for range in [0..12_000, cycle - 6_000..cycle + 6_000] {
                check_runs(&w, range, crate::CURSOR_BATCH, 5);
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
