//! Synthetic branch behaviour.
//!
//! The paper warms the branch predictor during the 30 k-instruction detailed
//! warming before each region (Table 1 lists a tournament predictor). The
//! workload model therefore exposes a deterministic branch stream: which
//! instructions are branches, their PCs, and their outcomes. Outcomes are a
//! per-PC biased coin so that a real predictor can learn them — the
//! achievable misprediction rate is a property of the workload, not a
//! constant we feed to the timing model.

use crate::rng::{mix64, CounterRng};
use crate::types::Pc;
use serde::{Deserialize, Serialize};

/// One dynamic branch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchEvent {
    /// Static branch address.
    pub pc: Pc,
    /// Resolved direction.
    pub taken: bool,
}

/// Deterministic description of a workload's branch behaviour.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchModel {
    /// One instruction in `period` is a branch (≥ 2).
    pub period: u64,
    /// Number of static branch PCs.
    pub pcs: u32,
    /// Fraction (per mille) of branch PCs that are strongly biased and thus
    /// easy to predict; the rest are close to 50/50.
    pub biased_permille: u32,
    /// Seed for outcome generation.
    pub seed: u64,
}

/// Virtual address region where synthetic branch PCs live, disjoint from
/// data-access PCs.
const BRANCH_PC_BASE: u64 = 0x0040_0000_0000;

impl BranchModel {
    /// A model with sensible defaults: every 5th instruction branches,
    /// 256 static branches, 90% of them predictable.
    pub fn new(seed: u64) -> Self {
        BranchModel {
            period: 5,
            pcs: 256,
            biased_permille: 900,
            seed,
        }
    }

    /// Set the fraction of easy (strongly biased) branches.
    pub fn with_biased_permille(mut self, permille: u32) -> Self {
        self.biased_permille = permille.min(1000);
        self
    }

    /// The branch retiring at instruction `instr`, if any.
    ///
    /// Branches sit at instructions where `instr % period == period - 1`, so
    /// they interleave with the memory accesses (which sit at multiples of
    /// the workload's `mem_period`).
    #[inline]
    pub fn branch_at(&self, instr: u64) -> Option<BranchEvent> {
        if instr % self.period != self.period - 1 {
            return None;
        }
        let b = instr / self.period;
        Some(self.branch_event(b))
    }

    /// The `b`-th dynamic branch of the execution.
    #[inline]
    pub fn branch_event(&self, b: u64) -> BranchEvent {
        let rng = CounterRng::new(self.seed ^ 0xb4a2c);
        let pc_idx = rng.below(b ^ 0x5151, self.pcs.max(1) as u64);
        let pc = Pc(BRANCH_PC_BASE + pc_idx * 4);
        // Per-PC taken probability: biased PCs are ~95/5, the rest ~55/45.
        let pc_hash = mix64(self.seed ^ 0x77, pc.0);
        let biased = pc_hash % 1000 < self.biased_permille as u64;
        let p_taken = if biased {
            if pc_hash & 1 == 0 {
                950
            } else {
                50
            }
        } else {
            550
        };
        let taken = rng.chance_permille(b ^ 0xd00d, p_taken);
        BranchEvent { pc, taken }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_positions_follow_period() {
        let m = BranchModel::new(1);
        assert!(m.branch_at(0).is_none());
        assert!(m.branch_at(4).is_some());
        assert!(m.branch_at(5).is_none());
        assert!(m.branch_at(9).is_some());
    }

    #[test]
    fn outcomes_are_deterministic() {
        let m = BranchModel::new(9);
        for b in 0..100 {
            assert_eq!(m.branch_event(b), m.branch_event(b));
        }
    }

    #[test]
    fn biased_pcs_have_stable_direction() {
        let m = BranchModel::new(5).with_biased_permille(1000);
        // Group outcomes per PC; a fully biased model must be ≥ 85% one-sided.
        let mut per_pc: crate::collections::PcMap<(u32, u32)> = crate::collections::PcMap::new();
        for b in 0..50_000 {
            let e = m.branch_event(b);
            let c = per_pc.or_default(e.pc);
            if e.taken {
                c.0 += 1;
            } else {
                c.1 += 1;
            }
        }
        let mut skewed = 0usize;
        let mut total = 0usize;
        for (_, &(t, n)) in per_pc.iter() {
            let all = t + n;
            if all < 20 {
                continue;
            }
            total += 1;
            let major = t.max(n) as f64 / all as f64;
            if major > 0.85 {
                skewed += 1;
            }
        }
        assert!(total > 50);
        assert!(
            skewed as f64 / total as f64 > 0.9,
            "only {skewed}/{total} PCs skewed"
        );
    }
}
