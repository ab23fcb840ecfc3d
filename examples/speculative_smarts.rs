//! Speculative SMARTS: break the sequential warm chain, keep the report.
//!
//! SMARTS warms the hierarchy through *every* access between detailed
//! regions, so region N+1 cannot start until region N's warming is done
//! — the one strategy the region-parallel runtime cannot scale. The
//! speculative warm lane guesses each region's boundary state with a
//! cheap proxy, measures in parallel from the guess, and digest-checks
//! the guess when the true chain catches up: a match commits the
//! speculative measurement, a mismatch re-measures from the true state.
//! Either way the report is bitwise identical to sequential SMARTS —
//! this example asserts it, then prints the statmodel proxy's
//! speculation hit-rate and the modeled wallclock speedup it buys.
//!
//! Run with: `cargo run --release --example speculative_smarts`

use delorean::prelude::*;

fn main() {
    let scale = Scale::tiny();
    let workload = spec_workload("hmmer", scale, 42).expect("known benchmark");
    let plan = SamplingConfig::for_scale(scale).plan();
    let machine = MachineConfig::for_scale(scale);
    let workers = 4;

    println!("workload : hmmer");
    println!("scale    : {scale}");
    println!("regions  : {}\n", plan.regions.len());

    // The reference: plain chained SMARTS.
    let sequential = SmartsRunner::new(machine).run_with_workers(&workload, &plan, 1);
    let seq_wall = sequential.report.cost.region_parallel_wallclock(1);

    let proxy = ProxyStateSource::StatModel;
    let speculative = SmartsRunner::new(machine)
        .with_speculation(proxy)
        .run_with_workers(&workload, &plan, workers);

    // The whole point: speculation never changes the answer.
    assert_eq!(
        sequential.report, speculative.report,
        "speculative report must be bitwise identical to sequential SMARTS"
    );

    let extras = speculative
        .extras::<SpeculationExtras>()
        .expect("speculative runs attach SpeculationExtras");
    let wall = speculative
        .report
        .cost
        .speculative_wallclock(workers, &extras.outcomes);
    println!(
        "{:<18} {:>10} {:>16}",
        "proxy", "hit-rate", "modeled speedup"
    );
    println!(
        "{:<18} {:>7}/{:<2} {:>11.2}x at {workers} workers",
        proxy.name(),
        extras.hits(),
        extras.outcomes.len(),
        seq_wall / wall,
    );

    println!(
        "\nthe run above reproduced the sequential report bit for bit;\n\
         the statmodel proxy warms a reuse-directed window instead of the\n\
         blind prefix, which is where the speedup comes from."
    );
}
