//! The trace-tile ingest pipeline end to end: pack a workload to an
//! on-disk tile file, reopen it as a workload, and show that a full
//! DeLorean run over the tiled source reproduces the in-memory run bit
//! for bit — while the warm loops consume `memcpy`-grade batches
//! instead of regenerating every access.
//!
//! Run with: `cargo run --release --example tiled_trace`

use delorean::prelude::*;
use delorean::trace::tile::DEFAULT_TILE_RECORDS;
use std::time::Instant;

fn main() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(3).plan();
    let workload = spec_workload("mcf", scale, 42).unwrap();

    // Pack the plan's instruction span once. Records are 17 bytes (pc,
    // addr, kind) grouped into checksummed tiles; index/icount are
    // implied by position, so nothing else needs storing.
    let span = workload.accesses_in_instrs(plan.total_instrs()) + 1;
    let path = std::env::temp_dir().join(format!("delorean-example-{}.dlt", std::process::id()));
    // lint:allow(no-wallclock): the demo prints real elapsed time for context; it never feeds a report
    let t = Instant::now();
    let summary = pack_workload(&workload, 0..span, &path).expect("pack");
    println!(
        "packed {} accesses into {} tiles ({} bytes, {:.1} ms)",
        summary.records,
        summary.tiles,
        summary.bytes,
        t.elapsed().as_secs_f64() * 1e3,
    );

    // `TiledTrace::open` verifies every tile checksum eagerly, then the
    // file behaves exactly like the workload it was packed from — the
    // whole strategy stack runs on it unchanged.
    let tiled = TiledTrace::open(&path).expect("open tile file");
    assert_eq!(tiled.name(), workload.name());
    assert_eq!(tiled.file().tile_records(), DEFAULT_TILE_RECORDS);

    let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale));
    // lint:allow(no-wallclock): the demo prints real elapsed time for context; it never feeds a report
    let t = Instant::now();
    let in_memory = runner.run(&workload, &plan);
    let in_memory_wall = t.elapsed().as_secs_f64();
    // lint:allow(no-wallclock): the demo prints real elapsed time for context; it never feeds a report
    let t = Instant::now();
    let from_tiles = runner.run(&tiled, &plan);
    let tiled_wall = t.elapsed().as_secs_f64();

    assert_eq!(
        in_memory.report, from_tiles.report,
        "tiled run must be bit-identical"
    );
    println!(
        "DeLorean CPI {:.3}: in-memory {:.3} s, tiled {:.3} s — reports bit-identical",
        in_memory.cpi(),
        in_memory_wall,
        tiled_wall,
    );

    std::fs::remove_file(&path).ok();
}
