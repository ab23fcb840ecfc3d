//! Tournament branch predictor (Table 1).
//!
//! Local 2-bit counters (2 k entries), global 2-bit counters (8 k entries,
//! indexed by global history), 2-bit choice counters (8 k entries) and a
//! 4 k-entry BTB. The predictor is real state that the 30 k-instruction
//! detailed warming must warm — exactly like the caches, just much faster
//! to warm, which is why the paper's lukewarm warming suffices for it.

use delorean_trace::Pc;

const LOCAL_ENTRIES: usize = 2 * 1024;
const GLOBAL_ENTRIES: usize = 8 * 1024;
const CHOICE_ENTRIES: usize = 8 * 1024;
const BTB_ENTRIES: usize = 4 * 1024;

/// Prediction statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Dynamic branches observed.
    pub branches: u64,
    /// Direction mispredictions.
    pub mispredicts: u64,
    /// Taken branches whose target was absent from the BTB.
    pub btb_misses: u64,
}

impl BranchStats {
    /// Misprediction rate in `[0, 1]` (0 when no branches were seen).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// The Table 1 tournament predictor.
///
/// ```
/// use delorean_cpu::TournamentPredictor;
/// use delorean_trace::Pc;
///
/// let mut p = TournamentPredictor::new();
/// // A strongly taken branch becomes predictable after a few occurrences.
/// for _ in 0..16 {
///     p.execute(Pc(0x40), true);
/// }
/// assert!(p.execute(Pc(0x40), true));
/// ```
#[derive(Clone)]
pub struct TournamentPredictor {
    local: Vec<u8>,
    global: Vec<u8>,
    choice: Vec<u8>,
    btb: Vec<u64>,
    history: u64,
    stats: BranchStats,
}

impl TournamentPredictor {
    /// A predictor with all counters weakly not-taken and an empty BTB.
    pub fn new() -> Self {
        TournamentPredictor {
            local: vec![1; LOCAL_ENTRIES],
            global: vec![1; GLOBAL_ENTRIES],
            choice: vec![1; CHOICE_ENTRIES],
            btb: vec![u64::MAX; BTB_ENTRIES],
            history: 0,
            stats: BranchStats::default(),
        }
    }

    #[inline]
    fn local_index(pc: Pc) -> usize {
        (pc.0 as usize >> 2) % LOCAL_ENTRIES
    }

    #[inline]
    fn global_index(&self) -> usize {
        (self.history as usize) % GLOBAL_ENTRIES
    }

    #[inline]
    fn choice_index(&self, pc: Pc) -> usize {
        ((pc.0 >> 2) ^ self.history) as usize % CHOICE_ENTRIES
    }

    #[inline]
    fn btb_index(pc: Pc) -> usize {
        (pc.0 as usize >> 2) % BTB_ENTRIES
    }

    /// Predict the direction of the branch at `pc` without updating state.
    pub fn predict(&self, pc: Pc) -> bool {
        let local = self.local[Self::local_index(pc)] >= 2;
        let global = self.global[self.global_index()] >= 2;
        let use_global = self.choice[self.choice_index(pc)] >= 2;
        if use_global {
            global
        } else {
            local
        }
    }

    /// Resolve the branch: predict, train all tables, update history and
    /// BTB. Returns `true` if the prediction (direction *and* BTB presence
    /// for taken branches) was correct.
    pub fn execute(&mut self, pc: Pc, taken: bool) -> bool {
        self.stats.branches += 1;
        let li = Self::local_index(pc);
        let gi = self.global_index();
        let ci = self.choice_index(pc);
        let local_pred = self.local[li] >= 2;
        let global_pred = self.global[gi] >= 2;
        let use_global = self.choice[ci] >= 2;
        let direction = if use_global { global_pred } else { local_pred };

        // Choice trains toward whichever component was right (when they
        // disagree).
        if local_pred != global_pred {
            if global_pred == taken {
                self.choice[ci] = (self.choice[ci] + 1).min(3);
            } else {
                self.choice[ci] = self.choice[ci].saturating_sub(1);
            }
        }
        bump(&mut self.local[li], taken);
        bump(&mut self.global[gi], taken);
        self.history = (self.history << 1) | taken as u64;

        let mut correct = direction == taken;
        if taken {
            let bi = Self::btb_index(pc);
            if self.btb[bi] != pc.0 {
                self.stats.btb_misses += 1;
                self.btb[bi] = pc.0;
                correct = false; // no target to redirect to
            }
        }
        if !correct {
            self.stats.mispredicts += 1;
        }
        correct
    }

    /// Statistics since construction or the last reset.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// Zero the statistics (predictor state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = BranchStats::default();
    }
}

#[inline]
fn bump(counter: &mut u8, taken: bool) {
    *counter = if taken {
        (*counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    };
}

impl Default for TournamentPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TournamentPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TournamentPredictor")
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_trace::BranchModel;

    #[test]
    fn learns_strongly_biased_branches() {
        let mut p = TournamentPredictor::new();
        for i in 0..2000u64 {
            p.execute(Pc(0x100 + (i % 8) * 4), true);
        }
        p.reset_stats();
        for i in 0..2000u64 {
            p.execute(Pc(0x100 + (i % 8) * 4), true);
        }
        assert!(
            p.stats().mispredict_rate() < 0.01,
            "rate = {}",
            p.stats().mispredict_rate()
        );
    }

    #[test]
    fn alternating_pattern_is_learned_by_global_history() {
        let mut p = TournamentPredictor::new();
        for i in 0..4000u64 {
            p.execute(Pc(0x200), i % 2 == 0);
        }
        p.reset_stats();
        for i in 0..2000u64 {
            p.execute(Pc(0x200), i % 2 == 0);
        }
        assert!(
            p.stats().mispredict_rate() < 0.05,
            "rate = {}",
            p.stats().mispredict_rate()
        );
    }

    #[test]
    fn random_branches_are_hard() {
        let mut p = TournamentPredictor::new();
        for i in 0..5000u64 {
            p.execute(Pc(0x300), delorean_trace::mix64(9, i).is_multiple_of(2));
        }
        let rate = p.stats().mispredict_rate();
        assert!(rate > 0.3, "random branches should hurt: {rate}");
    }

    #[test]
    fn btb_misses_count_once_per_cold_target() {
        let mut p = TournamentPredictor::new();
        p.execute(Pc(0x40), true);
        p.execute(Pc(0x40), true);
        assert_eq!(p.stats().btb_misses, 1);
    }

    #[test]
    fn predict_is_pure() {
        let mut p = TournamentPredictor::new();
        for i in 0..500u64 {
            p.execute(Pc(0x40 + (i % 4) * 8), i % 3 != 0);
        }
        let pc = Pc(0x48);
        let first = p.predict(pc);
        for _ in 0..10 {
            assert_eq!(p.predict(pc), first, "predict must not mutate");
        }
    }

    #[test]
    fn choice_learns_to_prefer_the_better_component() {
        // A pattern only the global (history) component can capture:
        // direction = parity of the last outcome. Train long enough and
        // the tournament must reach a low misprediction rate, which
        // requires the choice table to route to the global side.
        let mut p = TournamentPredictor::new();
        let mut last = false;
        for i in 0..20_000u64 {
            let taken = !last;
            p.execute(Pc(0x900 + (i % 3) * 4), taken);
            last = taken;
        }
        p.reset_stats();
        let mut last = false;
        for i in 0..5_000u64 {
            let taken = !last;
            p.execute(Pc(0x900 + (i % 3) * 4), taken);
            last = taken;
        }
        assert!(
            p.stats().mispredict_rate() < 0.05,
            "rate {}",
            p.stats().mispredict_rate()
        );
    }

    #[test]
    fn stats_reset_keeps_learned_state() {
        let mut p = TournamentPredictor::new();
        for _ in 0..100 {
            p.execute(Pc(0x10), true);
        }
        p.reset_stats();
        assert_eq!(p.stats().branches, 0);
        // Still predicts taken: the tables were not cleared.
        assert!(p.predict(Pc(0x10)));
    }

    #[test]
    fn workload_branch_model_is_mostly_predictable() {
        // End-to-end sanity: the synthetic branch stream must be learnable
        // to roughly its biased fraction.
        let m = BranchModel::new(77).with_biased_permille(900);
        let mut p = TournamentPredictor::new();
        for b in 0..30_000u64 {
            let e = m.branch_event(b);
            p.execute(e.pc, e.taken);
        }
        p.reset_stats();
        for b in 30_000..60_000u64 {
            let e = m.branch_event(b);
            p.execute(e.pc, e.taken);
        }
        let rate = p.stats().mispredict_rate();
        // ~10% of PCs are 50/50 → floor ≈ 5%; biased PCs ≈ 5% noise.
        assert!(
            rate > 0.02 && rate < 0.20,
            "workload mispredict rate {rate}"
        );
    }
}
