//! Tiled-ingest determinism: every sampling strategy must produce a
//! bit-identical report whether its accesses come from the synthetic
//! workload or from the packed on-disk tile file, at any
//! region-scheduler worker count. This is the PR 6 counterpart of the
//! worker-count determinism contract.

use delorean::prelude::*;
use std::path::PathBuf;

fn strategies(machine: MachineConfig, scale: Scale) -> Vec<Box<dyn SamplingStrategy>> {
    vec![
        Box::new(SmartsRunner::new(machine)),
        Box::new(CoolSimRunner::new(machine, CoolSimConfig::for_scale(scale))),
        Box::new(MrrlRunner::new(machine)),
        Box::new(CheckpointWarmingRunner::new(machine)),
        Box::new(DeLoreanRunner::new(
            machine,
            DeLoreanConfig::for_scale(scale),
        )),
    ]
}

fn pack_span(w: &dyn Workload, plan: &RegionPlan, tag: &str) -> PathBuf {
    let span = w.accesses_in_instrs(plan.total_instrs()) + 1;
    let path = std::env::temp_dir().join(format!(
        "delorean-tiled-determinism-{}-{tag}.dlt",
        std::process::id()
    ));
    pack_workload(w, 0..span, &path).expect("pack plan span");
    path
}

#[test]
fn all_five_strategies_match_in_memory_runs_bit_for_bit() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let w = spec_workload("hmmer", scale, 42).unwrap();
    let path = pack_span(&w, &plan, "strategies");
    let tiled = TiledTrace::open(&path).unwrap();

    for s in strategies(machine, scale) {
        let reference = s.run(&w, &plan);
        let from_tiles = s.run(&tiled, &plan);
        assert_eq!(
            reference.report,
            from_tiles.report,
            "{}: tiled run diverged from in-memory",
            s.name()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tiled_sources_keep_the_worker_count_determinism_contract() {
    // RegionScheduler units ask the workload for per-region cursor
    // slices; the tile file must serve those seeks identically at any
    // parallelism.
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(4).plan();
    let w = spec_workload("soplex", scale, 42).unwrap();
    let path = pack_span(&w, &plan, "workers");
    let tiled = TiledTrace::open(&path).unwrap();

    for s in strategies(machine, scale) {
        let sequential = s.run_with_workers(&w, &plan, 1);
        for workers in [2, 4] {
            let parallel = s.run_with_workers(&tiled, &plan, workers);
            assert_eq!(
                sequential.report,
                parallel.report,
                "{} diverged on tiled source at {workers} workers",
                s.name()
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Drain `cursor` alternating `fill_lines` (batch `batch`) and `fill`
/// (batch `batch + 2`); return every produced line in order, checking
/// `position()`/`remaining()` after each call.
fn drain_mixed(
    mut cursor: Box<dyn delorean::trace::AccessCursor + '_>,
    batch: usize,
    ctx: &str,
) -> Vec<delorean::trace::LineAddr> {
    let start = cursor.position();
    let end = cursor.end();
    let (mut lines, mut records, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for call in 0.. {
        let n = if call % 2 == 0 {
            let n = cursor.fill_lines(&mut lines, batch);
            out.extend_from_slice(&lines);
            n
        } else {
            let n = cursor.fill(&mut records, batch + 2);
            out.extend(records.iter().map(|a| a.line()));
            n
        };
        let produced = out.len() as u64;
        assert_eq!(cursor.position(), start + produced, "{ctx}: position");
        assert_eq!(
            cursor.remaining(),
            end - start - produced,
            "{ctx}: remaining"
        );
        if n == 0 {
            break;
        }
    }
    out
}

/// `fill_lines` on tiled sources: `TiledCursor`'s own override yields
/// the source's lines while mixing `fill` calls.
#[test]
fn tiled_cursors_fill_lines_match_fill() {
    // Small tiles so spans cross tile boundaries; ranges past the
    // recorded length exercise the cyclic wrap.
    let w = spec_workload("mcf", Scale::tiny(), 42).unwrap();
    let n = 3_000u64;
    let path = std::env::temp_dir().join(format!(
        "delorean-tiled-determinism-{}-lines.dlt",
        std::process::id()
    ));
    delorean::trace::pack_workload_with(&w, 0..n, &path, 256).expect("pack");
    let t = TiledTrace::open(&path).unwrap();
    for range in [5..5, 7..8, 250..262, n - 100..2 * n + 100, 0..n] {
        let expect: Vec<_> = range.clone().map(|k| w.access_at(k % n).line()).collect();
        for batch in [1, 7, 333] {
            let ctx = format!("{range:?} batch {batch}");
            let sync = drain_mixed(t.cursor(range.clone()), batch, &ctx);
            assert_eq!(sync, expect, "{ctx}: TiledCursor");
        }
    }
    std::fs::remove_file(&path).unwrap();
}
