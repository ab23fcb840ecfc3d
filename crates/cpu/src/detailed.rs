//! The detailed-simulation loop shared by every sampling strategy.
//!
//! The loop walks instructions, resolves branches against the tournament
//! predictor, issues memory accesses, and charges the interval model. What
//! distinguishes SMARTS from CoolSim from DeLorean is only *where the
//! memory outcome comes from* — a fully warmed simulated hierarchy, or a
//! statistical classification over a lukewarm one — abstracted here as
//! [`OutcomeSource`].

use crate::predictor::TournamentPredictor;
use crate::timing::{IntervalCore, TimingConfig};
use delorean_cache::MemLevel;
use delorean_trace::{MemAccess, Workload, CURSOR_BATCH};
use std::ops::Range;

/// Supplies the serving level of each memory access during detailed
/// simulation.
///
/// Implemented for every `FnMut(&MemAccess, u64) -> MemLevel`, so warming
/// strategies are usually written as closures over their hierarchy and
/// statistical model.
pub trait OutcomeSource {
    /// The level that serves `access` at global access-time `now`.
    fn outcome(&mut self, access: &MemAccess, now: u64) -> MemLevel;
}

impl<F: FnMut(&MemAccess, u64) -> MemLevel> OutcomeSource for F {
    fn outcome(&mut self, access: &MemAccess, now: u64) -> MemLevel {
        self(access, now)
    }
}

/// Result of simulating one detailed region.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct DetailedResult {
    /// Instructions simulated.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: f64,
    /// Memory accesses issued.
    pub mem_accesses: u64,
    /// Accesses served per level: `[L1, MSHR, LLC, Memory]`.
    pub level_counts: [u64; 4],
    /// Dynamic branches resolved.
    pub branches: u64,
    /// Branches mispredicted.
    pub mispredicts: u64,
}

impl DetailedResult {
    /// Cycles per instruction (0 for an empty region).
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles / self.instructions as f64
        }
    }

    /// LLC misses (memory-served accesses) per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.level_counts[3] as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Accumulate another region's result.
    pub fn merge(&mut self, other: &DetailedResult) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.mem_accesses += other.mem_accesses;
        for (a, b) in self.level_counts.iter_mut().zip(&other.level_counts) {
            *a += b;
        }
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
    }
}

/// Simulate the instructions in `instr_range` in detail.
///
/// `source` provides per-access outcomes; `predictor` is trained in place
/// (so lukewarm warming naturally carries into the measured region).
pub fn simulate_detailed(
    workload: &dyn Workload,
    instr_range: Range<u64>,
    cfg: &TimingConfig,
    predictor: &mut TournamentPredictor,
    source: &mut dyn OutcomeSource,
) -> DetailedResult {
    let mut core = IntervalCore::new(*cfg);
    let branch_model = workload.branch_model();
    let p = workload.mem_period().max(1);
    let start = instr_range.start;
    let mut result = DetailedResult::default();

    // The region's accesses are the indices k with k*p in the range; pull
    // them through the workload's streaming cursor in batches instead of
    // a stateless `access_at` regeneration per access.
    let mut cursor = workload.cursor(instr_range.start.div_ceil(p)..instr_range.end.div_ceil(p));
    let mut batch: Vec<MemAccess> = Vec::with_capacity(CURSOR_BATCH);
    let mut batch_pos = 0usize;

    for i in instr_range {
        core.retire(1);
        if let Some(ev) = branch_model.branch_at(i) {
            result.branches += 1;
            let correct = predictor.execute(ev.pc, ev.taken);
            if !correct {
                result.mispredicts += 1;
            }
            core.branch(!correct);
        }
        if i % p == 0 {
            if batch_pos == batch.len() {
                cursor.fill(&mut batch, CURSOR_BATCH);
                batch_pos = 0;
                debug_assert!(!batch.is_empty(), "cursor exhausted before the range");
            }
            let access = batch[batch_pos];
            batch_pos += 1;
            debug_assert_eq!(access.index, i / p);
            let level = source.outcome(&access, access.index);
            result.mem_accesses += 1;
            let idx = match level {
                MemLevel::L1 => 0,
                MemLevel::Mshr => 1,
                MemLevel::Llc => 2,
                MemLevel::Memory => 3,
            };
            result.level_counts[idx] += 1;
            core.mem_access(level, i - start);
        }
    }
    result.instructions = core.instructions();
    result.cycles = core.cycles();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_cache::{Hierarchy, MachineConfig};
    use delorean_trace::{spec_workload, Scale};

    #[test]
    fn all_l1_hits_give_near_base_cpi() {
        let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
        let mut pred = TournamentPredictor::new();
        // Pre-warm the predictor so branch noise is small.
        let bm = w.branch_model();
        for b in 0..20_000u64 {
            let e = bm.branch_event(b);
            pred.execute(e.pc, e.taken);
        }
        let mut always_l1 = |_: &MemAccess, _: u64| MemLevel::L1;
        let r = simulate_detailed(
            &w,
            0..10_000,
            &TimingConfig::table1(),
            &mut pred,
            &mut always_l1,
        );
        assert_eq!(r.instructions, 10_000);
        assert!(r.cpi() > 0.1 && r.cpi() < 0.6, "cpi = {}", r.cpi());
        assert_eq!(r.level_counts[0], r.mem_accesses);
    }

    #[test]
    fn memory_bound_region_has_high_cpi() {
        let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
        let mut pred = TournamentPredictor::new();
        let mut all_memory = |_: &MemAccess, _: u64| MemLevel::Memory;
        let r = simulate_detailed(
            &w,
            0..10_000,
            &TimingConfig::table1(),
            &mut pred,
            &mut all_memory,
        );
        assert!(r.cpi() > 5.0, "cpi = {}", r.cpi());
        assert_eq!(r.level_counts[3], r.mem_accesses);
    }

    #[test]
    fn hierarchy_as_source_matches_direct_simulation() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let mut h = Hierarchy::new(&machine);
        let mut pred = TournamentPredictor::new();
        let mut src = |a: &MemAccess, now: u64| h.access_data(a.pc, a.line(), now);
        let r = simulate_detailed(&w, 0..30_000, &TimingConfig::table1(), &mut pred, &mut src);
        let total: u64 = r.level_counts.iter().sum();
        assert_eq!(total, r.mem_accesses);
        assert_eq!(r.mem_accesses, 30_000 / w.mem_period());
        assert!(r.cpi() > 0.1);
    }

    #[test]
    fn results_merge_additively() {
        let mut a = DetailedResult {
            instructions: 100,
            cycles: 50.0,
            mem_accesses: 30,
            level_counts: [10, 5, 10, 5],
            branches: 20,
            mispredicts: 2,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.instructions, 200);
        assert_eq!(a.level_counts, [20, 10, 20, 10]);
        assert!((a.cpi() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unaligned_ranges_issue_correct_access_count() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap(); // period 3
        let mut pred = TournamentPredictor::new();
        let mut src = |_: &MemAccess, _: u64| MemLevel::L1;
        let r = simulate_detailed(&w, 7..22, &TimingConfig::table1(), &mut pred, &mut src);
        // Multiples of 3 in [7, 22): 9, 12, 15, 18, 21 → 5 accesses.
        assert_eq!(r.mem_accesses, 5);
        assert_eq!(r.instructions, 15);
    }
}
