//! The sweep-cell record: its byte codec and its journal.
//!
//! [`BatchExecutor::run_matrix_journaled`](crate::BatchExecutor::run_matrix_journaled)
//! and the shard broker append one entry per completed
//! strategy×workload cell to a [`CellJournal`]; after a crash or kill,
//! resuming restores every journaled cell verbatim and re-executes only
//! the missing ones. This module is the only owner of that record:
//!
//! * the entry payload — a hand-rolled little-endian encoding of
//!   [`SimulationReport`] ([`encode_cell`]; the workspace derives no
//!   serialization, so the codec is written out here), which is also
//!   the shard wire's `CellDone` payload;
//! * the region-unit payload of a shard `SpanDone` ([`encode_units`]),
//!   which shares the cell codec's region encoder;
//! * the journal *tag* binding a file to one sweep configuration
//!   ([`sweep_tag`]);
//! * the writer helpers (`push_*`) and the bounds-checked [`Take`]
//!   reader the shard layer's wire messages and sweep spec use.
//!
//! The codec is **exact**: every `f64` travels as its IEEE-754 bit
//! pattern, so a decoded report is `==` the one encoded — which is what
//! lets a resumed sweep's matrix compare bitwise equal to an
//! uninterrupted run's. Strings are length-prefixed UTF-8, and a
//! truncated or padded payload decodes to `None`, never a panic.

use delorean_cpu::DetailedResult;
use delorean_sampling::{RegionPlan, RegionReport, RegionUnit, SamplingStrategy, SimulationReport};
use delorean_trace::tile::tile_checksum;
use delorean_trace::{JournalError, JournalWriter};
use delorean_virt::RunCost;
use std::path::Path;

/// Journal entry kind for one completed cell (`[cell u32][report]`).
const CELL_ENTRY_KIND: u32 = 1;

/// Compute the journal tag binding a file to one sweep configuration:
/// the strategy list (names, in order), the workload list (names, in
/// order) and the region plan's exact boundaries. Worker counts are
/// deliberately excluded — scheduling never changes results, so a sweep
/// may resume at a different parallelism.
pub fn sweep_tag(
    strategies: &[Box<dyn SamplingStrategy>],
    workload_names: &[&str],
    plan: &RegionPlan,
) -> u64 {
    let names: Vec<&str> = strategies.iter().map(|s| s.name()).collect();
    sweep_tag_names(&names, workload_names, plan)
}

/// [`sweep_tag`] from strategy *names* alone — for callers (the shard
/// broker) that identify strategies by name without instantiating
/// them. Identical inputs produce identical tags, so a journal written
/// by either side resumes on the other.
pub fn sweep_tag_names(strategy_names: &[&str], workload_names: &[&str], plan: &RegionPlan) -> u64 {
    let mut bytes = Vec::new();
    push_u32(&mut bytes, strategy_names.len() as u32);
    for name in strategy_names {
        push_str(&mut bytes, name);
    }
    push_u32(&mut bytes, workload_names.len() as u32);
    for name in workload_names {
        push_str(&mut bytes, name);
    }
    push_u32(&mut bytes, plan.regions.len() as u32);
    for r in &plan.regions {
        push_u32(&mut bytes, r.index);
        push_u64(&mut bytes, r.start_instr);
        push_u64(&mut bytes, r.warming.start);
        push_u64(&mut bytes, r.warming.end);
        push_u64(&mut bytes, r.detailed.start);
        push_u64(&mut bytes, r.detailed.end);
    }
    tile_checksum(&bytes)
}

/// Encode one completed cell: the flat cell index followed by the full
/// report.
pub fn encode_cell(cell: u32, report: &SimulationReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    push_u32(&mut bytes, cell);
    push_str(&mut bytes, &report.workload);
    push_str(&mut bytes, &report.strategy);
    push_u32(&mut bytes, report.regions.len() as u32);
    for r in &report.regions {
        push_region(&mut bytes, r);
    }
    push_u64(&mut bytes, report.collected_reuse_distances);
    push_cost(&mut bytes, &report.cost);
    push_u64(&mut bytes, report.covered_instrs);
    bytes
}

/// Decode a cell entry. `None` means the payload is structurally
/// invalid (wrong length, bad UTF-8) — the caller should drop the entry
/// and re-execute the cell; a checksummed journal makes this unreachable
/// short of a format change.
pub fn decode_cell(bytes: &[u8]) -> Option<(u32, SimulationReport)> {
    let mut r = Take::new(bytes);
    let cell = r.u32()?;
    let workload = r.string()?;
    let strategy = r.string()?;
    let n_regions = r.u32()? as usize;
    let mut regions = Vec::with_capacity(n_regions.min(4096));
    for _ in 0..n_regions {
        regions.push(r.region()?);
    }
    let collected_reuse_distances = r.u64()?;
    let cost = r.cost()?;
    let covered_instrs = r.u64()?;
    if !r.done() {
        return None;
    }
    Some((
        cell,
        SimulationReport {
            workload,
            strategy,
            regions,
            collected_reuse_distances,
            cost,
            covered_instrs,
        },
    ))
}

/// Encode a span of [`RegionUnit`]s (a shard `SpanDone` payload).
pub fn encode_units(units: &[RegionUnit]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u32(&mut out, units.len() as u32);
    for u in units {
        push_region(&mut out, &u.report);
        push_f64(&mut out, u.seconds);
        push_u64(&mut out, u.collected);
    }
    out
}

/// Decode an [`encode_units`] payload. `None` on any structural damage.
pub fn decode_units(bytes: &[u8]) -> Option<Vec<RegionUnit>> {
    let mut r = Take::new(bytes);
    let n = r.u32()? as usize;
    let mut units = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        units.push(RegionUnit {
            report: r.region()?,
            seconds: r.f64()?,
            collected: r.u64()?,
        });
    }
    r.done().then_some(units)
}

/// A sweep's durable cell journal: one checksummed
/// [`delorean_trace::journal`] entry per completed cell, keyed by the
/// flat cell index (`w * strategies + s`), so restoring is independent
/// of completion order.
#[derive(Debug)]
pub struct CellJournal {
    writer: JournalWriter,
    faults: usize,
}

impl CellJournal {
    /// Create the journal at `path` bound to `tag`, or resume it if the
    /// file exists. Returns the journal plus, for each of the `n_cells`
    /// cells, the report its valid prefix restores (torn tails are
    /// truncated; a later entry for a cell replaces an earlier one).
    /// Resuming a journal written under another tag is a hard
    /// [`JournalError::TagMismatch`].
    pub fn open(
        path: &Path,
        tag: u64,
        n_cells: usize,
    ) -> Result<(CellJournal, Vec<Option<SimulationReport>>), JournalError> {
        let mut restored: Vec<Option<SimulationReport>> = (0..n_cells).map(|_| None).collect();
        let writer = if path.exists() {
            let (writer, prefix) = JournalWriter::resume(path, tag)?;
            for entry in prefix.iter().filter(|e| e.kind == CELL_ENTRY_KIND) {
                if let Some((cell, report)) = decode_cell(&entry.payload) {
                    if let Some(slot) = restored.get_mut(cell as usize) {
                        *slot = Some(report);
                    }
                }
            }
            writer
        } else {
            JournalWriter::create(path, tag)?
        };
        Ok((CellJournal { writer, faults: 0 }, restored))
    }

    /// Append one completed cell's [`encode_cell`] bytes. A failed
    /// append never raises — it must not unwind through the run it
    /// records: the cell's result stays in memory, it is just not
    /// durable, and [`faults`](Self::faults) counts it.
    pub fn append(&mut self, cell_bytes: &[u8]) {
        if self.writer.append(CELL_ENTRY_KIND, cell_bytes).is_err() {
            self.faults += 1;
        }
    }

    /// Appends that failed; 0 outside fault-injection harnesses.
    pub fn faults(&self) -> usize {
        self.faults
    }
}

/// Append one byte.
pub fn push_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern — bit-exact: NaN
/// payloads, signed zeros and subnormals all survive.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    push_bytes(out, s.as_bytes());
}

/// Append a length-prefixed byte block.
pub fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// The region encoder the cell and unit payloads share:
/// `region u32` then the [`DetailedResult`].
fn push_region(out: &mut Vec<u8>, r: &RegionReport) {
    push_u32(out, r.region);
    let d = &r.detailed;
    push_u64(out, d.instructions);
    push_f64(out, d.cycles);
    push_u64(out, d.mem_accesses);
    for c in d.level_counts {
        push_u64(out, c);
    }
    push_u64(out, d.branches);
    push_u64(out, d.mispredicts);
}

fn push_cost(out: &mut Vec<u8>, cost: &RunCost) {
    push_u64(out, cost.regions());
    push_u32(out, cost.passes().len() as u32);
    for p in cost.passes() {
        push_str(out, &p.name);
        push_f64(out, p.seconds);
    }
    push_u32(out, cost.units().len() as u32);
    for u in cost.units() {
        push_u32(out, u.unit);
        push_f64(out, u.chained_seconds);
        push_f64(out, u.parallel_seconds);
    }
}

/// Bounds-checked little-endian reader over a payload slice: every
/// read past the end is `None`, never a panic.
#[derive(Debug)]
pub struct Take<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Take<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Take { bytes, at: 0 }
    }

    fn chunk(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let c = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(c)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.chunk(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(*self.chunk(4)?.first_chunk()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(*self.chunk(8)?.first_chunk()?))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Option<String> {
        String::from_utf8(self.byte_block()?).ok()
    }

    /// Read a length-prefixed byte block.
    pub fn byte_block(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        Some(self.chunk(len)?.to_vec())
    }

    /// Whether every byte has been read.
    pub fn done(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn region(&mut self) -> Option<RegionReport> {
        let region = self.u32()?;
        let instructions = self.u64()?;
        let cycles = self.f64()?;
        let mem_accesses = self.u64()?;
        let mut level_counts = [0u64; 4];
        for c in &mut level_counts {
            *c = self.u64()?;
        }
        let branches = self.u64()?;
        let mispredicts = self.u64()?;
        Some(RegionReport {
            region,
            detailed: DetailedResult {
                instructions,
                cycles,
                mem_accesses,
                level_counts,
                branches,
                mispredicts,
            },
        })
    }

    fn cost(&mut self) -> Option<RunCost> {
        let regions = self.u64()?;
        let n_passes = self.u32()? as usize;
        let mut passes = Vec::with_capacity(n_passes.min(4096));
        for _ in 0..n_passes {
            let name = self.string()?;
            let seconds = self.f64()?;
            passes.push(delorean_virt::PassCost { name, seconds });
        }
        let n_units = self.u32()? as usize;
        let mut units = Vec::with_capacity(n_units.min(4096));
        for _ in 0..n_units {
            let unit = self.u32()?;
            let chained_seconds = self.f64()?;
            let parallel_seconds = self.f64()?;
            units.push(delorean_virt::UnitCost {
                unit,
                chained_seconds,
                parallel_seconds,
            });
        }
        Some(RunCost::from_parts(passes, regions, units))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_virt::HostClock;

    fn sample_report() -> SimulationReport {
        let mut cost = RunCost::new(2);
        let mut clock = HostClock::new();
        clock.charge(1.25);
        cost.push("warm", clock);
        let mut clock = HostClock::new();
        clock.charge(0.375);
        cost.push("measure", clock);
        cost.push_unit(0, 0.5, 1.5);
        cost.push_unit(1, 0.0, 2.25);
        SimulationReport {
            workload: "hmmer".into(),
            strategy: "smarts".into(),
            regions: vec![
                RegionReport {
                    region: 0,
                    detailed: DetailedResult {
                        instructions: 10_000,
                        cycles: 12_345.678,
                        mem_accesses: 2_500,
                        level_counts: [2000, 300, 150, 50],
                        branches: 1_200,
                        mispredicts: 37,
                    },
                },
                RegionReport {
                    region: 1,
                    detailed: DetailedResult {
                        instructions: 10_000,
                        cycles: 9_999.25,
                        mem_accesses: 2_400,
                        level_counts: [1900, 290, 160, 50],
                        branches: 1_100,
                        mispredicts: 31,
                    },
                },
            ],
            collected_reuse_distances: 4_321,
            cost,
            covered_instrs: 2_000_000,
        }
    }

    #[test]
    fn cell_round_trips_bitwise() {
        let report = sample_report();
        let bytes = encode_cell(7, &report);
        let (cell, decoded) = decode_cell(&bytes).unwrap();
        assert_eq!(cell, 7);
        assert_eq!(decoded, report);
    }

    #[test]
    fn f64_bit_patterns_survive() {
        let mut report = sample_report();
        report.regions[0].detailed.cycles = -0.0;
        report.regions[1].detailed.cycles = f64::MIN_POSITIVE / 2.0; // subnormal
        let bytes = encode_cell(0, &report);
        let (_, decoded) = decode_cell(&bytes).unwrap();
        assert_eq!(
            decoded.regions[0].detailed.cycles.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            decoded.regions[1].detailed.cycles.to_bits(),
            report.regions[1].detailed.cycles.to_bits()
        );
    }

    #[test]
    fn truncated_or_oversized_payloads_are_rejected() {
        let report = sample_report();
        let bytes = encode_cell(3, &report);
        assert!(decode_cell(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_cell(&padded).is_none());
        assert!(decode_cell(&[]).is_none());
    }

    #[test]
    fn tag_binds_strategy_set_and_plan() {
        use delorean_cache::MachineConfig;
        use delorean_sampling::{SamplingConfig, SmartsRunner};
        use delorean_trace::Scale;

        let machine = MachineConfig::for_scale(Scale::tiny());
        let strategies: Vec<Box<dyn SamplingStrategy>> = vec![Box::new(SmartsRunner::new(machine))];
        let plan_a = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(2)
            .plan();
        let plan_b = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan();
        let a = sweep_tag(&strategies, &["hmmer"], &plan_a);
        assert_eq!(a, sweep_tag(&strategies, &["hmmer"], &plan_a));
        assert_ne!(a, sweep_tag(&strategies, &["hmmer"], &plan_b));
        assert_ne!(a, sweep_tag(&strategies, &["lbm"], &plan_a));
    }
}
