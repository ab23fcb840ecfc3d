//! Equivalence tests for the flat lookup substrate (PR 3): the
//! open-addressing `FlatMap`/`FlatSet` are pinned against
//! `std::collections` oracles under randomized churn, and the rewired
//! time-travel loops against their own serial/pipelined determinism
//! contract.
//!
//! Cases are generated from the workspace's deterministic counter RNG
//! (`mix64`), so any failure reproduces exactly by case index.

use delorean::prelude::*;
use delorean::trace::{mix64, FlatMap, FlatSet, LineAddr, LineMap, LineSet};
use std::collections::{HashMap, HashSet};

/// Drive `ops` random insert/remove/get operations over a key universe of
/// `universe` keys, checking the flat map against a `HashMap` oracle
/// after every step. A small universe over a small table forces probe
/// clusters and exercises backshift deletion across wrapped chains.
fn churn_map_case(case: u64, ops: u64, universe: u64) {
    let mut flat: FlatMap<u64, u64> = FlatMap::new();
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for step in 0..ops {
        let k = mix64(case, step) % universe;
        match mix64(case ^ 0xdead, step) % 4 {
            // Insert / overwrite.
            0 | 1 => {
                assert_eq!(
                    flat.insert(k, step),
                    oracle.insert(k, step),
                    "case {case} step {step}: insert({k})"
                );
            }
            // Remove (backshift path).
            2 => {
                assert_eq!(
                    flat.remove(k),
                    oracle.remove(&k),
                    "case {case} step {step}: remove({k})"
                );
            }
            // Probe.
            _ => {
                assert_eq!(
                    flat.get(k),
                    oracle.get(&k),
                    "case {case} step {step}: get({k})"
                );
            }
        }
        assert_eq!(flat.len(), oracle.len(), "case {case} step {step}: len");
    }
    // Full-contents equivalence at the end.
    let mut a: Vec<(u64, u64)> = flat.iter().map(|(k, &v)| (k, v)).collect();
    let mut b: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "case {case}: final contents");
}

#[test]
fn flat_map_matches_std_hashmap_under_churn() {
    // Narrow universes keep the table small and collision-dense (the
    // backshift edge cases); wide ones exercise growth.
    for (case, (ops, universe)) in [
        (3_000u64, 24u64),
        (3_000, 48),
        (2_000, 512),
        (4_000, 100_000),
    ]
    .into_iter()
    .enumerate()
    {
        churn_map_case(case as u64, ops, universe);
    }
}

#[test]
fn flat_set_matches_std_hashset_under_churn() {
    for case in 0..4u64 {
        let universe = [16u64, 64, 1024, 1 << 20][case as usize];
        let mut flat: FlatSet<u64> = FlatSet::new();
        let mut oracle: HashSet<u64> = HashSet::new();
        for step in 0..3_000u64 {
            let k = mix64(0x5e7 ^ case, step) % universe;
            if mix64(0xbad ^ case, step).is_multiple_of(3) {
                assert_eq!(flat.remove(k), oracle.remove(&k), "case {case} step {step}");
            } else {
                assert_eq!(flat.insert(k), oracle.insert(k), "case {case} step {step}");
            }
            assert_eq!(flat.len(), oracle.len());
        }
        let mut a: Vec<u64> = flat.iter().collect();
        let mut b: Vec<u64> = oracle.into_iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "case {case}: final contents");
    }
}

#[test]
fn line_tables_match_std_oracles_under_churn() {
    // The typed aliases used by the hot loops behave identically to the
    // raw tables: line-keyed map and set against std oracles.
    let mut map: LineMap<u64> = LineMap::new();
    let mut set = LineSet::new();
    let mut map_oracle: HashMap<LineAddr, u64> = HashMap::new();
    let mut set_oracle: HashSet<LineAddr> = HashSet::new();
    for step in 0..5_000u64 {
        let line = LineAddr(mix64(0x11e, step) % 4096);
        if mix64(0xf00, step).is_multiple_of(3) {
            assert_eq!(map.remove(line), map_oracle.remove(&line), "step {step}");
            assert_eq!(set.remove(line), set_oracle.remove(&line), "step {step}");
        } else {
            assert_eq!(
                map.insert(line, step),
                map_oracle.insert(line, step),
                "step {step}"
            );
            assert_eq!(set.insert(line), set_oracle.insert(line), "step {step}");
        }
        assert_eq!(map.contains(line), map_oracle.contains_key(&line));
        assert_eq!(set.contains(line), set_oracle.contains(&line));
    }
}

#[test]
fn explorer_trap_counts_identical_serial_vs_pipelined() {
    // The rewired explorer hot loop (page masks + flat tables) must
    // keep the pipelined run bit-identical to the serial oracle, down to
    // the per-explorer resolution and trap counters.
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    for name in ["hmmer", "povray", "mcf"] {
        let w = spec_workload(name, scale, 42).unwrap();
        let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale));
        let serial: DeLoreanOutput = runner.run_with_workers(&w, &plan, 1).try_into().unwrap();
        let piped: DeLoreanOutput = runner.run(&w, &plan).try_into().unwrap();
        assert_eq!(
            serial.stats.true_hit_traps, piped.stats.true_hit_traps,
            "{name}: true-hit traps"
        );
        assert_eq!(
            serial.stats.false_positive_traps, piped.stats.false_positive_traps,
            "{name}: false-positive traps"
        );
        assert_eq!(
            serial.stats.resolved_by_explorer, piped.stats.resolved_by_explorer,
            "{name}: per-explorer resolution"
        );
        assert_eq!(serial.stats.cold_keys, piped.stats.cold_keys, "{name}");
        assert_eq!(serial.dsw_counts, piped.dsw_counts, "{name}: DSW verdicts");
    }
}
