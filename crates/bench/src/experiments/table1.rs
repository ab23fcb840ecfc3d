//! Table 1: the simulated processor architecture.
//!
//! A configuration table rather than an experiment — printed from the
//! actual structures the simulator runs with, so drift between the
//! documentation and the code is impossible.

use crate::options::ExpOptions;
use crate::table::Table;
use delorean_cache::HierarchyConfig;
use delorean_cpu::TimingConfig;

/// Render Table 1 at the given options' scale (plus paper scale values).
pub fn run(opts: &ExpOptions) -> Table {
    let paper = HierarchyConfig::table1();
    let scaled = HierarchyConfig::for_scale(opts.scale);
    let timing = TimingConfig::table1();
    let mut t = Table::new(
        "Table 1 — simulated processor architecture",
        &["component", "paper scale", "run scale"],
    );
    let rows: Vec<(String, String, String)> = vec![
        (
            "ROB".into(),
            format!("{} entries", timing.rob_entries),
            format!("{} entries", timing.rob_entries),
        ),
        (
            "Issue width".into(),
            format!("{}", timing.issue_width),
            format!("{}", timing.issue_width),
        ),
        (
            "Branch predictor".into(),
            "tournament (2k local / 8k global / 8k choice, 4k BTB)".into(),
            "identical".into(),
        ),
        (
            "L1-I".into(),
            "64 KiB 2-way LRU".into(),
            "not simulated".into(),
        ),
        (
            "L1-D".into(),
            format!("{}", paper.l1d),
            format!("{}", scaled.l1d),
        ),
        (
            "LLC".into(),
            "1 MiB – 512 MiB, 8-way LRU".into(),
            format!("default {}", scaled.llc),
        ),
        (
            "MSHRs (L1-D)".into(),
            format!("{}", paper.l1d_mshrs),
            format!("{}", scaled.l1d_mshrs),
        ),
        (
            "Memory latency".into(),
            format!("{} cycles", timing.memory_latency),
            format!("{} cycles", timing.memory_latency),
        ),
    ];
    for (a, b, c) in rows {
        t.push_row([a, b, c]);
    }
    t.note(format!("run scale: {}", opts.scale));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_mentions_all_levels() {
        let t = run(&ExpOptions::tiny());
        let md = t.markdown();
        for label in ["L1-I", "L1-D", "LLC", "MSHRs", "ROB"] {
            assert!(md.contains(label), "missing {label}");
        }
    }
}
