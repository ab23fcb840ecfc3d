//! Determinism guarantees: the whole system is a pure function of
//! (workload seed, configuration) — the property that lets the
//! time-traveling passes observe one consistent execution.

use delorean::prelude::*;

#[test]
fn workloads_are_position_addressable() {
    // Visiting accesses in any order yields identical records.
    let w = spec_workload("xalancbmk", Scale::tiny(), 42).unwrap();
    let forward: Vec<_> = w.iter_range(10_000..10_100).collect();
    let mut backward: Vec<_> = (10_000..10_100).rev().map(|k| w.access_at(k)).collect();
    backward.reverse();
    let random_order: Vec<_> = [50u64, 3, 99, 0, 77]
        .iter()
        .map(|&o| w.access_at(10_000 + o))
        .collect();
    assert_eq!(forward, backward);
    assert_eq!(random_order[0], forward[50]);
    assert_eq!(random_order[3], forward[0]);
}

#[test]
fn every_strategy_is_run_to_run_deterministic() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(2).plan();
    let w = spec_workload("astar", scale, 42).unwrap();

    let s1 = SmartsRunner::new(machine).run(&w, &plan);
    let s2 = SmartsRunner::new(machine).run(&w, &plan);
    assert_eq!(s1.total(), s2.total());

    let c1 = CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale)).run(&w, &plan);
    let c2 = CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale)).run(&w, &plan);
    assert_eq!(c1.total(), c2.total());
    assert_eq!(c1.collected_reuse_distances, c2.collected_reuse_distances);

    let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale));
    let d1: DeLoreanOutput = runner.run(&w, &plan).try_into().unwrap();
    let d2: DeLoreanOutput = runner.run(&w, &plan).try_into().unwrap();
    assert_eq!(d1.report.total(), d2.report.total());
    assert_eq!(d1.stats, d2.stats);
}

#[test]
fn scheduled_delorean_agrees_with_serial_across_workloads() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    for name in ["bwaves", "mcf", "povray", "GemsFDTD", "calculix"] {
        let w = spec_workload(name, scale, 42).unwrap();
        let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale));
        let serial: DeLoreanOutput = runner.run_with_workers(&w, &plan, 1).try_into().unwrap();
        // Region-parallel (the trait entry point).
        let scheduled: DeLoreanOutput = runner.run_with_workers(&w, &plan, 4).try_into().unwrap();
        assert_eq!(serial.report.total(), scheduled.report.total(), "{name}");
        assert_eq!(serial.stats, scheduled.stats, "{name}");
        assert_eq!(serial.dsw_counts, scheduled.dsw_counts, "{name}");
    }
}

#[test]
fn region_scheduler_reports_are_identical_at_any_worker_count() {
    // The region-parallel determinism contract: for every strategy, the
    // scheduler at 2/4/8 workers must reproduce the sequential driver
    // (1 worker) byte for byte — regions, counters, collected reuses and
    // the full f64 cost accounting (units included). `SimulationReport`
    // equality covers every field.
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(4).plan();
    let w = spec_workload("soplex", scale, 42).unwrap();

    let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale))),
        Box::new(MrrlRunner::new(machine)),
        Box::new(CheckpointWarmingRunner::new(machine)),
        Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale),
        )),
    ];
    let mut log_speedup_4w = 0.0f64;
    for s in &strategies {
        let sequential = s.run_with_workers(&w, &plan, 1);
        for workers in [2, 4, 8] {
            let parallel = s.run_with_workers(&w, &plan, workers);
            assert_eq!(
                sequential.report,
                parallel.report,
                "{} diverged at {workers} workers",
                s.name()
            );
        }
        // The runner's default `run` is the same decomposition.
        assert_eq!(sequential.report, s.run(&w, &plan).report, "{}", s.name());
        let cost = &sequential.report.cost;
        log_speedup_4w +=
            (cost.region_parallel_wallclock(1) / cost.region_parallel_wallclock(4)).ln();
    }
    // The region-parallel runtime's modeled bar: a geomean speedup of
    // at least 1.7x at 4 workers across the strategies.
    let geomean_4w = (log_speedup_4w / strategies.len() as f64).exp();
    assert!(
        geomean_4w >= 1.7,
        "modeled region-parallel geomean speedup {geomean_4w:.2}x at 4 workers is below 1.7x"
    );

    // DeLorean extras (TT statistics, DSW counts) obey the same contract.
    let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale));
    let serial: DeLoreanOutput = runner.run_with_workers(&w, &plan, 1).try_into().unwrap();
    for workers in [2, 4, 8] {
        let parallel: DeLoreanOutput = runner
            .run_with_workers(&w, &plan, workers)
            .try_into()
            .unwrap();
        assert_eq!(serial.report, parallel.report, "workers={workers}");
        assert_eq!(serial.stats, parallel.stats, "workers={workers}");
        assert_eq!(serial.dsw_counts, parallel.dsw_counts, "workers={workers}");
    }
}

#[test]
fn speculative_warm_lane_reports_are_bitwise_sequential_for_every_proxy() {
    // The PR 8 contract: breaking SMARTS's warm chain by speculation
    // must never change the report — every proxy source, at every
    // worker count, reproduces the sequential chained run in full
    // (regions, counters and the f64 cost accounting), and the
    // commit/miss outcomes themselves are worker-count invariant.
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let w = spec_workload("hmmer", scale, 42).unwrap();
    let sequential = SmartsRunner::new(machine).run_with_workers(&w, &plan, 1);

    for proxy in [ProxyStateSource::StatModel, ProxyStateSource::Poisoned] {
        let runner = SmartsRunner::new(machine).with_speculation(proxy);
        let at_one = runner.run_with_workers(&w, &plan, 1);
        assert_eq!(
            sequential.report,
            at_one.report,
            "{}: speculation changed the sequential report",
            proxy.name()
        );
        for workers in [2, 4, 8] {
            let spec = runner.run_with_workers(&w, &plan, workers);
            assert_eq!(
                sequential.report,
                spec.report,
                "{}: diverged at {workers} workers",
                proxy.name()
            );
            assert_eq!(
                at_one.extras::<SpeculationExtras>(),
                spec.extras::<SpeculationExtras>(),
                "{}: outcomes changed at {workers} workers",
                proxy.name()
            );
            // The speculative lane's modeled bar: the statmodel proxy
            // speeds hmmer up by at least 1.15x at 4 workers.
            if proxy == ProxyStateSource::StatModel && workers == 4 {
                let extras = spec
                    .extras::<SpeculationExtras>()
                    .expect("speculative runs carry extras");
                let cost = &sequential.report.cost;
                let speedup = cost.region_parallel_wallclock(1)
                    / spec.report.cost.speculative_wallclock(4, &extras.outcomes);
                assert!(
                    speedup >= 1.15,
                    "modeled statmodel speedup {speedup:.2}x at 4 workers is below 1.15x"
                );
            }
        }
    }
}

#[test]
fn poisoned_proxy_forces_full_re_measure_and_still_matches() {
    // A proxy that is wrong for every region is the worst case: the
    // reconciler must re-measure everything from the true carried
    // state — and the report must still equal sequential SMARTS.
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let w = spec_workload("astar", scale, 42).unwrap();
    let sequential = SmartsRunner::new(machine).run_with_workers(&w, &plan, 1);
    let poisoned = SmartsRunner::new(machine)
        .with_speculation(ProxyStateSource::Poisoned)
        .run_with_workers(&w, &plan, 4);
    let extras = poisoned
        .extras::<SpeculationExtras>()
        .expect("speculative runs carry extras");
    assert_eq!(extras.hits(), 0, "a poisoned proxy must never commit");
    assert_eq!(sequential.report, poisoned.report);
}

#[test]
fn different_seeds_give_different_executions_same_structure() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(2).plan();
    let w1 = spec_workload("gromacs", scale, 1).unwrap();
    let w2 = spec_workload("gromacs", scale, 2).unwrap();
    let r1 = SmartsRunner::new(machine).run(&w1, &plan);
    let r2 = SmartsRunner::new(machine).run(&w2, &plan);
    // Different executions...
    assert_ne!(r1.total(), r2.total());
    // ...but statistically similar behaviour (same generative model).
    let rel = (r1.cpi() - r2.cpi()).abs() / r1.cpi();
    assert!(rel < 0.35, "seed changed CPI by {:.0}%", rel * 100.0);
}
