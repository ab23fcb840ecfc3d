//! Golden report digests: one committed mix64 fold of the full
//! `SimulationReport` per (strategy, input), checked at 1 and 2 region
//! workers.
//!
//! The fold runs over the journal codec's bytes (`encode_cell`), so it
//! covers every field: per-region detailed results, collected reuse
//! distances, covered instructions and the full `f64` cost accounting.
//! Any change that moves a number fails here with the whole recomputed
//! table printed, so an intended re-baseline is one reviewable diff of
//! [`GOLDEN`].
//!
//! The strategies are DeLorean (Scout and Explorers), a design-space
//! exploration over the 10-point LLC sweep (one digest over all ten
//! analyst reports), CoolSim (watchpoint interval), MRRL (reuse-latency
//! profile), SMARTS through the speculative lane with the statmodel proxy
//! (its probe scan), and plain SMARTS and checkpointed warming, whose
//! warm chains run in place at one worker and through the speculative
//! lane above it, so their 1- and 2-worker rows pin the two schedules
//! against each other.

use delorean::bench::journal::encode_cell;
use delorean::prelude::*;
use delorean::trace::mix64;

const INPUTS: [&str; 3] = ["mcf", "povray", "soplex"];
const REGIONS: u32 = 3;
const SEED: u64 = 42;

/// `(strategy, input, digest)`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("delorean", "mcf", 0xbd2ea2832016e2a7),
    ("delorean", "povray", 0xd229cd080cdc4daa),
    ("delorean", "soplex", 0xf731e9c037dac2fe),
    ("dse", "mcf", 0x71dc30851f9ff29e),
    ("dse", "povray", 0x4c346a495600e47c),
    ("dse", "soplex", 0x3bf335e4d79e22e0),
    ("coolsim", "mcf", 0x7e5812b3f56d73b0),
    ("coolsim", "povray", 0x8c4489cf6216f66e),
    ("coolsim", "soplex", 0xc2b4a92731730a79),
    ("mrrl", "mcf", 0x84300ced056a6394),
    ("mrrl", "povray", 0xd194dcc23db359e8),
    ("mrrl", "soplex", 0x3bd63fae7ca7acb3),
    ("smarts-spec", "mcf", 0x89406631eb1ac366),
    ("smarts-spec", "povray", 0xe119b85dd0a5984d),
    ("smarts-spec", "soplex", 0x5c7db490092a9772),
    ("smarts", "mcf", 0x89406631eb1ac366),
    ("smarts", "povray", 0xe119b85dd0a5984d),
    ("smarts", "soplex", 0x5c7db490092a9772),
    ("checkpoint", "mcf", 0x2c2ff2cb605b59c3),
    ("checkpoint", "povray", 0xea5b58209fe5c39e),
    ("checkpoint", "soplex", 0x1ec34d83db5124bb),
];

fn digest(reports: &[SimulationReport]) -> u64 {
    let mut d = 0x601d_u64;
    for report in reports {
        for chunk in encode_cell(0, report).chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            d = mix64(d, u64::from_le_bytes(word));
        }
    }
    d
}

/// The reports of `strategy` over `w` at `workers` region workers.
fn run(strategy: &str, w: &dyn Workload, workers: usize) -> Vec<SimulationReport> {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale)
        .with_regions(REGIONS)
        .plan();
    let report = match strategy {
        "delorean" => DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale))
            .run_with_workers(w, &plan, workers),
        "dse" => {
            let machines: Vec<MachineConfig> = MachineConfig::llc_sweep_paper_bytes()
                .into_iter()
                .map(|bytes| machine.with_llc_paper_bytes(scale, bytes))
                .collect();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .expect("thread pool");
            let dse = DesignSpaceExplorer::new(machine, DeLoreanConfig::for_scale(scale));
            let out = pool.install(|| dse.run(w, &plan, &machines));
            return out.outputs.into_iter().map(|o| o.report).collect();
        }
        "coolsim" => CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale))
            .run_with_workers(w, &plan, workers),
        "mrrl" => MrrlRunner::new(machine).run_with_workers(w, &plan, workers),
        "smarts-spec" => SmartsRunner::new(machine).run_speculative_with_workers(
            w,
            &plan,
            ProxyStateSource::StatModel,
            workers,
        ),
        "smarts" => SmartsRunner::new(machine).run_with_workers(w, &plan, workers),
        "checkpoint" => CheckpointWarmingRunner::new(machine).run_with_workers(w, &plan, workers),
        other => panic!("unknown strategy {other}"),
    };
    vec![report.into_report()]
}

/// Check every input of `strategy` at 1 and 2 workers against the table.
fn check(strategy: &str) {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for input in INPUTS {
        let w = spec_workload(input, Scale::tiny(), SEED).expect("suite input");
        let expected = GOLDEN
            .iter()
            .find(|&&(s, i, _)| s == strategy && i == input)
            .map(|&(_, _, d)| d)
            .expect("golden row");
        let one = digest(&run(strategy, &w, 1));
        let two = digest(&run(strategy, &w, 2));
        assert_eq!(one, two, "{strategy}/{input}: 1 vs 2 workers");
        table.push_str(&format!(
            "    (\"{strategy}\", \"{input}\", {one:#018x}),\n"
        ));
        if one != expected {
            mismatches.push(format!("{input}: {one:#018x} != golden {expected:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{strategy} digests moved: {mismatches:?}\nrecomputed rows:\n{table}"
    );
}

#[test]
fn delorean_reports_match_golden() {
    check("delorean");
}

#[test]
fn dse_llc_sweep_reports_match_golden() {
    check("dse");
}

#[test]
fn coolsim_reports_match_golden() {
    check("coolsim");
}

#[test]
fn mrrl_reports_match_golden() {
    check("mrrl");
}

#[test]
fn speculative_smarts_reports_match_golden() {
    check("smarts-spec");
}

#[test]
fn smarts_reports_match_golden() {
    check("smarts");
}

#[test]
fn checkpoint_reports_match_golden() {
    check("checkpoint");
}
