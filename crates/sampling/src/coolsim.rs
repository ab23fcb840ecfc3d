//! CoolSim: randomized statistical warming (RSW).
//!
//! The state of the art the paper improves on (Nikoleris et al., SAMOS
//! 2016). Instead of warming caches, CoolSim samples *random* reuse
//! distances in the warm-up interval with page-protection watchpoints
//! and builds per-PC reuse profiles. Once the interval is profiled, each
//! sampled PC's hit/miss verdict for a perfectly warm LLC is decided
//! once ([`PcProfiles::predictor`]); every access of the detailed region
//! that misses the lukewarm cache takes its PC's verdict.
//!
//! The configuration here is the paper's "best possible" adaptive
//! schedule (§6): sample one memory location every 40 k instructions
//! during the first 750 M instructions of the interval, one every 20 k
//! for the next 200 M, and one every 10 k for the last 50 M — denser
//! sampling closer to the region, where reuses matter most. Sample
//! positions are a pure function of the access index, drawn per phase
//! before the scan, and the scan is the watchpoint profilers' one
//! [`profile_reuses`]: it walks a page-disjoint line domain only while a
//! sample is armed there and jumps to the domain's next sample otherwise.
//!
//! Two modeled inefficiencies are the point of comparison with DeLorean:
//! most sampled reuses belong to PCs that never appear in the detailed
//! region (wasted traps), and PCs *in* the region may end up with no
//! samples at all, forcing a pessimistic miss default (the source of
//! CoolSim's CPI overestimation for soplex and GemsFDTD in Figures 9/10).

use crate::config::{Region, RegionPlan};
use crate::driver::{units_in_span, RegionUnit, UnitDriver};
use crate::scheduler::RegionScheduler;
use crate::strategy::{SamplingStrategy, StrategyReport};
use delorean_cache::{Hierarchy, MachineConfig, MemLevel};
use delorean_statmodel::per_pc::{PcPrediction, PcProfiles};
use delorean_trace::fault::FaultPolicy;
use delorean_trace::{CounterRng, MemAccess, Scale, Workload};
use delorean_virt::{profile_reuses, CostModel, HostClock, ScanMode, WatchScanStats, WorkKind};
use std::ops::Range;

/// One phase of the adaptive sampling schedule.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct SchedulePhase {
    /// Share of the warm-up interval, in per mille (phases are laid out in
    /// order from the interval start).
    span_permille: u32,
    /// Sampling period: one sample per this many instructions.
    period_instrs: u64,
}

/// CoolSim configuration: the adaptive sampling schedule and its seed,
/// built by [`CoolSimConfig::for_scale`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoolSimConfig {
    /// Adaptive schedule phases, covering the interval in order.
    schedule: Vec<SchedulePhase>,
    /// Seed for sampling decisions.
    seed: u64,
}

impl CoolSimConfig {
    /// The paper's best adaptive configuration, scaled.
    pub fn for_scale(scale: Scale) -> Self {
        CoolSimConfig {
            schedule: vec![
                SchedulePhase {
                    span_permille: 750,
                    period_instrs: scale.sample_period(40_000),
                },
                SchedulePhase {
                    span_permille: 200,
                    period_instrs: scale.sample_period(20_000),
                },
                SchedulePhase {
                    span_permille: 50,
                    period_instrs: scale.sample_period(10_000),
                },
            ],
            seed: 0xc001_517e,
        }
    }

    /// The schedule over an interval of `len` accesses, given the
    /// workload's instructions-per-access: each phase's contiguous range
    /// of offsets into the interval and its sampling period in accesses.
    ///
    /// Offset `o` is in the phase whose cumulative span first exceeds
    /// `⌊o·1000/len⌋` per mille, so a phase ending at `acc` per mille
    /// ends at offset `⌈acc·len/1000⌉`. Past the declared schedule the
    /// last (densest) phase continues to `len`; an empty schedule samples
    /// every access with period 1.
    fn phases(&self, len: u64, mem_period: u64) -> Vec<(Range<u64>, u64)> {
        let Some((last, body)) = self.schedule.split_last() else {
            return vec![(0..len, 1)];
        };
        let period = |ph: &SchedulePhase| (ph.period_instrs / mem_period).max(1);
        let mut phases = Vec::with_capacity(self.schedule.len());
        let mut acc = 0u128;
        let mut lo = 0u64;
        for ph in body {
            acc += u128::from(ph.span_permille);
            let hi = (acc * u128::from(len)).div_ceil(1000).min(u128::from(len)) as u64;
            phases.push((lo..hi, period(ph)));
            lo = hi;
        }
        phases.push((lo..len, period(last)));
        phases
    }

    /// The sample positions of the interval of access indices `interval`,
    /// in increasing order: one [`CounterRng::one_in_positions`] pass per
    /// schedule phase.
    fn sample_positions(&self, interval: Range<u64>, mem_period: u64) -> Vec<u64> {
        let rng = CounterRng::new(self.seed);
        let first = interval.start;
        let len = interval.end.saturating_sub(first);
        self.phases(len, mem_period)
            .into_iter()
            .flat_map(|(offsets, period)| {
                rng.one_in_positions(first + offsets.start..first + offsets.end, period)
            })
            .collect()
    }
}

/// What CoolSim's warm-up interval scan produced for one region.
#[derive(Clone, Debug)]
pub struct IntervalProfile {
    /// Per-PC reuse profiles: each resolved sample's reuse distance under
    /// the reusing PC, each unresolved one as cold weight under the
    /// sampled access's PC.
    pub profiles: PcProfiles,
    /// The scan's traps and the accesses its walk generated. CoolSim
    /// watches exactly its pending samples, so every true hit resolves
    /// one: `true_hits` is the number of reuse distances collected.
    pub scan: WatchScanStats,
}

/// The CoolSim (randomized statistical warming) runner.
#[derive(Clone, Debug)]
pub struct CoolSimRunner {
    machine: MachineConfig,
    config: CoolSimConfig,
}

impl CoolSimRunner {
    /// A runner with Table 1 timing, paper-host costs and the scaled
    /// adaptive schedule.
    pub fn new(machine: MachineConfig, config: CoolSimConfig) -> Self {
        CoolSimRunner { machine, config }
    }

    /// Profile `region`'s warm-up interval with random watchpoints,
    /// charging `clock` for the interval (under VFF, at represented
    /// magnitude) and for each trap (at face value).
    ///
    /// The scan is [`profile_reuses`] in [`ScanMode::Vdp`] with no key
    /// lines, at the schedule's sample positions. A resolved sample's
    /// reuse goes to the reusing PC and an unresolved one's cold weight
    /// to the sampled PC, each read through `access_at`, the only
    /// accesses the profile materializes.
    pub fn profile_interval(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        region: &Region,
        clock: &mut HostClock,
    ) -> IntervalProfile {
        let p = workload.mem_period();
        let interval = region.warmup_interval(plan.config.spacing_instrs);
        let first = interval.start.div_ceil(p);
        let last = interval.end / p;
        let len = last.saturating_sub(first);
        let cost = CostModel::paper_host();
        clock.charge(cost.instr_seconds(WorkKind::Vff, len * p * plan.config.work_multiplier()));

        let mut profiles = PcProfiles::new();
        let samples = self.config.sample_positions(first..last, p);
        let mode = ScanMode::Vdp {
            trap_seconds: cost.trap_seconds,
        };
        let reuses = profile_reuses(workload, first..last, &[], &samples, mode, clock, |k, d| {
            profiles.record(workload.access_at(k).pc, d, 1.0);
        });
        // Unresolved samples: reuse longer than the remaining interval.
        // CoolSim has no better information than "very long"; attribute
        // cold weight to the sampled access's PC.
        for set_at in reuses.unresolved {
            profiles.record_cold(workload.access_at(set_at).pc, 1.0);
        }
        IntervalProfile {
            profiles,
            scan: reuses.stats,
        }
    }

    /// The per-region unit body. A pure function of `(index, region)` —
    /// each call owns its watchpoint set, pending-sample map, per-PC
    /// profiles and lukewarm hierarchy outright, and sampling decisions
    /// come from a stateless counter RNG — so a guarded run may retry
    /// it from the top.
    fn region_unit<'a>(
        &'a self,
        workload: &'a dyn Workload,
        plan: &'a RegionPlan,
    ) -> impl Fn(u32, &Region) -> RegionUnit + Sync + 'a {
        let llc_lines = self.machine.hierarchy.llc.lines();
        move |_i: u32, region: &Region| {
            let mut driver = UnitDriver::new(workload);
            let interval = self.profile_interval(workload, plan, region, driver.clock());
            driver.record_collected(interval.scan.true_hits);
            let predictor = interval.profiles.predictor(llc_lines);

            // --- Lukewarm detailed warming + statistically-warmed region. ---
            let mut lukewarm = Hierarchy::new(&self.machine);
            let mut source = |a: &MemAccess, now: u64| {
                let simulated = lukewarm.access_data(a.pc, a.line(), now);
                if simulated != MemLevel::Memory {
                    return simulated;
                }
                // Missed the lukewarm hierarchy: take the PC's verdict of
                // whether a perfectly warm cache would have hit.
                match predictor.predict(a.pc) {
                    PcPrediction::Hit => MemLevel::Llc,
                    // No samples for this PC: predict pessimistically.
                    PcPrediction::Miss | PcPrediction::NoData => MemLevel::Memory,
                }
            };
            driver.measure_region(region, &mut source)
        }
    }
}

impl SamplingStrategy for CoolSimRunner {
    fn name(&self) -> &str {
        "coolsim"
    }

    /// CoolSim under the region scheduler: every region is one fully
    /// independent unit — it owns its watchpoint set, pending-sample
    /// map, per-PC profiles and lukewarm hierarchy outright, and the
    /// sampling decisions come from a stateless counter-based RNG — so
    /// the whole plan fans out with no carried lane at all. Under a
    /// fault policy a unit quarantines alone.
    fn execute(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        workers: usize,
        policy: Option<&FaultPolicy>,
    ) -> StrategyReport {
        let units = RegionScheduler::new(workers).run_units_isolated(
            &plan.regions,
            policy,
            self.region_unit(workload, plan),
        );
        StrategyReport::from_units(workload, plan, self.name(), &[], units)
    }

    /// CoolSim decomposes fully: the unit body is a pure function of
    /// `(index, region)`, so any span of plan regions evaluates
    /// anywhere and folds back bitwise identically.
    fn run_unit_span(
        &self,
        workload: &dyn Workload,
        plan: &RegionPlan,
        span: std::ops::Range<u32>,
    ) -> Option<Vec<RegionUnit>> {
        Some(units_in_span(plan, span, self.region_unit(workload, plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SamplingConfig, SmartsRunner};
    use delorean_trace::spec_workload;

    fn quick_plan() -> RegionPlan {
        SamplingConfig::for_scale(Scale::tiny())
            .with_regions(3)
            .plan()
    }

    fn runner() -> CoolSimRunner {
        CoolSimRunner::new(
            MachineConfig::for_scale(Scale::tiny()),
            CoolSimConfig::for_scale(Scale::tiny()),
        )
    }

    #[test]
    fn schedule_gets_denser_toward_the_region() {
        let cfg = CoolSimConfig::for_scale(Scale::paper());
        let phases = cfg.phases(1_000_000, 3);
        assert_eq!(
            phases,
            vec![
                (0..750_000, 40_000 / 3),
                (750_000..950_000, 20_000 / 3),
                (950_000..1_000_000, 10_000 / 3),
            ]
        );
    }

    /// The per-index rule the hoisted schedule replaces: the period of
    /// the phase holding `⌊offset·1000/len⌋` per mille, or of the last
    /// phase past the declared schedule, or 1 for an empty schedule.
    fn period_at(cfg: &CoolSimConfig, offset: u64, len: u64, mem_period: u64) -> u64 {
        let pos_permille = (offset * 1000).checked_div(len).unwrap_or(0);
        let mut acc = 0u64;
        for ph in &cfg.schedule {
            acc += u64::from(ph.span_permille);
            if pos_permille < acc {
                return (ph.period_instrs / mem_period).max(1);
            }
        }
        cfg.schedule
            .last()
            .map(|p| (p.period_instrs / mem_period).max(1))
            .unwrap_or(1)
    }

    #[test]
    fn hoisted_positions_match_the_per_index_rule() {
        let spans = |spans: &[(u32, u64)]| CoolSimConfig {
            schedule: spans
                .iter()
                .map(|&(span_permille, period_instrs)| SchedulePhase {
                    span_permille,
                    period_instrs,
                })
                .collect(),
            seed: 0x5eed,
        };
        let schedules = [
            CoolSimConfig::for_scale(Scale::tiny()),
            CoolSimConfig::for_scale(Scale::demo()),
            CoolSimConfig::for_scale(Scale::paper()),
            spans(&[]),
            // Spans summing to less than 1000: the last phase runs on.
            spans(&[(300, 12), (100, 6), (5, 3)]),
            // Spans summing to more than 1000: later phases are empty.
            spans(&[(600, 12), (0, 9), (700, 6), (400, 3)]),
        ];
        let first = 12_345;
        for cfg in &schedules {
            for len in [0u64, 1, 7, 999, 1000, 1001, 65_537] {
                for mem_period in [1, 3] {
                    let rng = CounterRng::new(cfg.seed);
                    let slow: Vec<u64> = (first..first + len)
                        .filter(|&k| {
                            rng.chance_one_in(k, period_at(cfg, k - first, len, mem_period))
                        })
                        .collect();
                    let fast = cfg.sample_positions(first..first + len, mem_period);
                    assert_eq!(fast, slow, "{cfg:?} len {len} mem_period {mem_period}");
                    // The phase ranges tile the interval in order.
                    let phases = cfg.phases(len, mem_period);
                    assert_eq!(phases.first().map(|(r, _)| r.start), Some(0));
                    assert_eq!(phases.last().map(|(r, _)| r.end), Some(len));
                    for pair in phases.windows(2) {
                        assert_eq!(pair[0].0.end, pair[1].0.start, "{cfg:?} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn collects_reuse_distances() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let report = runner().run(&w, &quick_plan());
        assert!(
            report.collected_reuse_distances > 10,
            "collected {}",
            report.collected_reuse_distances
        );
    }

    #[test]
    fn is_faster_than_smarts() {
        let w = spec_workload("hmmer", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let cool = runner().run(&w, &plan);
        let smarts = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        assert!(
            cool.speedup_vs(&smarts) > 2.0,
            "speedup {}",
            cool.speedup_vs(&smarts)
        );
    }

    #[test]
    fn cpi_is_in_the_reference_ballpark() {
        let w = spec_workload("bwaves", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let cool = runner().run(&w, &plan);
        let smarts = SmartsRunner::new(MachineConfig::for_scale(Scale::tiny())).run(&w, &plan);
        let err = cool.cpi_error_vs(&smarts);
        assert!(
            err < 0.5,
            "CoolSim error {err} (cool {} vs ref {})",
            cool.cpi(),
            smarts.cpi()
        );
    }

    #[test]
    fn deterministic() {
        let w = spec_workload("namd", Scale::tiny(), 1).unwrap();
        let plan = quick_plan();
        let a = runner().run(&w, &plan);
        let b = runner().run(&w, &plan);
        assert_eq!(a.cpi(), b.cpi());
        assert_eq!(a.collected_reuse_distances, b.collected_reuse_distances);
    }
}
