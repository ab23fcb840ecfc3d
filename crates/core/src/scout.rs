//! The Scout pass: look into the future.
//!
//! The Scout fast-forwards (VFF) to the next detailed region, then
//! functionally simulates the detailed-warming window plus the region
//! itself against a *lukewarm replica* of the hierarchy to record the key
//! cachelines: the unique lines whose first access in the region is not
//! already served by the lukewarm L1/MSHRs. Those are the only lines whose
//! reuse distances DSW needs.
//!
//! Keys are filtered against the L1 + MSHRs only — never the LLC — so the
//! key set is identical for every LLC configuration, which is what lets a
//! single Scout/Explorer chain feed many parallel Analysts in design-space
//! exploration (§3.3). (The paper describes the Scout as recording all
//! unique region lines; the lukewarm filter is the natural optimization
//! that also explains why bwaves engages fewer than one Explorer per
//! region on average in Figure 8.)
//!
//! The Scout also trains the limited-associativity stride model with the
//! `(PC, line)` pairs it observes in the region.

use crate::keyset::{KeyInfo, KeySet};
use delorean_cache::{Cache, MachineConfig, MshrFile, MshrOutcome};
use delorean_sampling::Region;
use delorean_statmodel::assoc::LimitedAssocModel;
use delorean_trace::{LineSet, Workload, WorkloadExt};
use delorean_virt::{CostModel, HostClock, WorkKind};

/// Everything the Scout learns about one region.
#[derive(Clone, Debug)]
pub struct ScoutOutput {
    /// The key cachelines.
    pub keyset: KeySet,
    /// Dominant-stride model trained on the region's accesses.
    pub assoc: LimitedAssocModel,
}

/// Run the Scout for one region.
///
/// `prev_end_instr` is where the previous region's detailed window ended
/// (0 for the first region); the VFF charge covers the gap. Interval work
/// is charged at represented magnitude via `work_multiplier`.
pub fn scout_region(
    workload: &dyn Workload,
    machine: &MachineConfig,
    cost: &CostModel,
    clock: &mut HostClock,
    region: &Region,
    prev_end_instr: u64,
    work_multiplier: u64,
) -> ScoutOutput {
    // Fast-forward over the warm-up interval.
    let skip = region.warming.start.saturating_sub(prev_end_instr);
    clock.charge(cost.instr_seconds(WorkKind::Vff, skip * work_multiplier));

    // Functionally simulate warming + region against a lukewarm L1
    // replica (face-value cost: these windows are not scaled).
    let span = region.detailed.end - region.warming.start;
    clock.charge(cost.instr_seconds(WorkKind::Functional, span));

    let mut l1 = Cache::new(machine.hierarchy.l1d);
    let mut mshr = MshrFile::new(
        machine.hierarchy.l1d_mshrs,
        machine.hierarchy.mshr_latency_accesses,
    );
    let p = workload.mem_period();
    let warm_first = workload.access_index_at_instr(region.warming.start);
    let region_first = workload.access_index_at_instr(region.detailed.start);
    let region_end = workload.access_index_at_instr(region.detailed.end);

    // Warm the replica (lines only: no PCs are read here).
    workload.for_each_line(warm_first..region_first, |k, line| {
        if !l1.lookup(line) && mshr.on_miss(line, k) == MshrOutcome::Allocated {
            l1.fill(line);
        }
    });
    // Walk the region: first access per line decides key-ness.
    let mut keyset = KeySet::new();
    let mut assoc = LimitedAssocModel::new();
    let mut seen = LineSet::new();
    workload.for_each_access(region_first..region_end, |a| {
        let line = a.line();
        assoc.observe(a.pc, line);
        let first_access = seen.insert(line);
        let l1_hit = l1.lookup(line);
        let mshr_hit = !l1_hit && mshr.on_miss(line, a.index) == MshrOutcome::DelayedHit;
        if !l1_hit {
            l1.fill(line);
        }
        if first_access && !l1_hit && !mshr_hit {
            keyset.insert_first(
                line,
                KeyInfo {
                    first_access_index: a.index,
                    pc: a.pc,
                },
            );
        }
    });
    debug_assert!(region_end * p >= region.detailed.start);
    ScoutOutput { keyset, assoc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_sampling::SamplingConfig;
    use delorean_trace::{spec_workload, Scale};

    fn setup() -> (impl Workload, MachineConfig, Vec<Region>) {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let plan = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan();
        (w, machine, plan.regions)
    }

    #[test]
    fn keys_are_a_subset_of_region_unique_lines() {
        let (w, machine, regions) = setup();
        let cost = CostModel::paper_host();
        let mut clock = HostClock::new();
        let r = &regions[0];
        let out = scout_region(&w, &machine, &cost, &mut clock, r, 0, 1);
        let region_first = w.access_index_at_instr(r.detailed.start);
        let region_end = w.access_index_at_instr(r.detailed.end);
        let unique: delorean_trace::LineSet = w
            .iter_range(region_first..region_end)
            .map(|a| a.line())
            .collect();
        assert!(out.keyset.len() <= unique.len());
        assert!(out.keyset.lines().all(|l| unique.contains(l)));
        assert!(clock.seconds() > 0.0);
    }

    #[test]
    fn key_first_access_indices_are_in_region() {
        let (w, machine, regions) = setup();
        let cost = CostModel::paper_host();
        let mut clock = HostClock::new();
        let r = &regions[1];
        let out = scout_region(
            &w,
            &machine,
            &cost,
            &mut clock,
            r,
            regions[0].detailed.end,
            1,
        );
        let region_first = w.access_index_at_instr(r.detailed.start);
        let region_end = w.access_index_at_instr(r.detailed.end);
        for (line, info) in out.keyset.iter() {
            assert!(
                (region_first..region_end).contains(&info.first_access_index),
                "key {line:?} outside region"
            );
            assert_eq!(w.access_at(info.first_access_index).line(), line);
        }
    }

    #[test]
    fn hot_workload_has_few_keys() {
        let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
        let machine = MachineConfig::for_scale(Scale::tiny());
        let plan = SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan();
        let cost = CostModel::paper_host();
        let mut clock = HostClock::new();
        let out = scout_region(&w, &machine, &cost, &mut clock, &plan.regions[1], 0, 1);
        // bwaves is lukewarm-dominated: nearly everything filters out.
        assert!(out.keyset.len() < 200, "bwaves keys = {}", out.keyset.len());
    }

    #[test]
    fn deterministic() {
        let (w, machine, regions) = setup();
        let cost = CostModel::paper_host();
        let mut c1 = HostClock::new();
        let mut c2 = HostClock::new();
        let a = scout_region(&w, &machine, &cost, &mut c1, &regions[0], 0, 1);
        let b = scout_region(&w, &machine, &cost, &mut c2, &regions[0], 0, 1);
        let mut la: Vec<_> = a.keyset.lines().collect();
        let mut lb: Vec<_> = b.keyset.lines().collect();
        la.sort_unstable();
        lb.sort_unstable();
        assert_eq!(la, lb);
        assert_eq!(c1.seconds(), c2.seconds());
    }
}
