//! `trace-pack`: convert synthetic workloads into on-disk trace-tile
//! files, and inspect or verify existing ones.
//!
//! ```text
//! trace-pack pack   --spec NAME --out PATH [--scale demo|tiny|paper]
//!                   [--seed N] [--accesses N] [--tile-records N]
//! trace-pack info   PATH
//! trace-pack verify PATH [--spec NAME --scale S --seed N]
//! ```
//!
//! `pack` streams the workload's cursor through the tile writer
//! (bounded-memory: one tile is buffered at a time).
//! `info` prints the header without touching payloads. `verify` runs the
//! full checksum pass; with `--spec` it additionally cross-checks every
//! record against the regenerated synthetic workload — a round-trip
//! proof for CI.

use delorean_trace::{pack_workload_with, spec_workload, Scale, TileFile, TiledTrace, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace-pack pack   --spec NAME --out PATH [--scale demo|tiny|paper] \
         [--seed N] [--accesses N] [--tile-records N]\n  trace-pack info   PATH\n  \
         trace-pack verify PATH [--spec NAME --scale demo|tiny|paper --seed N]"
    );
    ExitCode::from(2)
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "paper" => Ok(Scale::paper()),
        "demo" => Ok(Scale::demo()),
        "tiny" => Ok(Scale::tiny()),
        other => Err(format!("unknown scale '{other}'")),
    }
}

/// Flag values shared by `pack` and `verify`.
struct SpecArgs {
    spec: Option<String>,
    scale: Scale,
    seed: u64,
    accesses: u64,
    tile_records: u32,
    out: Option<String>,
    path: Option<String>,
}

fn parse_args(args: &[String]) -> Result<SpecArgs, String> {
    let mut parsed = SpecArgs {
        spec: None,
        scale: Scale::demo(),
        seed: 1,
        accesses: 1_000_000,
        tile_records: delorean_trace::tile::DEFAULT_TILE_RECORDS,
        out: None,
        path: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--spec" => parsed.spec = Some(value("--spec")?),
            "--scale" => parsed.scale = parse_scale(&value("--scale")?)?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--accesses" => {
                parsed.accesses = value("--accesses")?
                    .parse()
                    .map_err(|e| format!("bad access count: {e}"))?;
            }
            "--tile-records" => {
                parsed.tile_records = value("--tile-records")?
                    .parse()
                    .map_err(|e| format!("bad tile record count: {e}"))?;
            }
            "--out" => parsed.out = Some(value("--out")?),
            other if !other.starts_with('-') && parsed.path.is_none() => {
                parsed.path = Some(other.to_string());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn cmd_pack(a: &SpecArgs) -> Result<(), String> {
    let spec = a.spec.as_deref().ok_or("pack requires --spec NAME")?;
    let out = a.out.as_deref().ok_or("pack requires --out PATH")?;
    let w = spec_workload(spec, a.scale, a.seed)
        .ok_or_else(|| format!("unknown spec workload '{spec}'"))?;
    let summary = pack_workload_with(&w, 0..a.accesses, out, a.tile_records)
        .map_err(|e| format!("pack failed: {e}"))?;
    eprintln!(
        "packed {} accesses of {spec} into {out}: {} tiles, {} bytes ({:.2} B/access)",
        summary.records,
        summary.tiles,
        summary.bytes,
        summary.bytes as f64 / summary.records as f64,
    );
    Ok(())
}

fn cmd_info(a: &SpecArgs) -> Result<(), String> {
    let path = a.path.as_deref().ok_or("info requires a PATH")?;
    let f = TileFile::open(path).map_err(|e| format!("open failed: {e}"))?;
    println!("path:          {path}");
    println!("workload:      {}", f.name());
    println!("records:       {}", f.record_count());
    println!("mem_period:    {}", f.mem_period());
    println!(
        "tiles:         {} × {} records",
        f.tile_count(),
        f.tile_records()
    );
    println!("bytes:         {}", f.byte_len());
    let b = f.branch_model();
    println!(
        "branch model:  period {}, pcs {}, biased {}‰, seed {:#x}",
        b.period, b.pcs, b.biased_permille, b.seed
    );
    Ok(())
}

fn cmd_verify(a: &SpecArgs) -> Result<(), String> {
    let path = a.path.as_deref().ok_or("verify requires a PATH")?;
    let t = TiledTrace::open(path).map_err(|e| format!("verification failed: {e}"))?;
    eprintln!(
        "checksums ok: {} records in {} tiles",
        t.file().record_count(),
        t.file().tile_count()
    );
    if let Some(spec) = a.spec.as_deref() {
        let w = spec_workload(spec, a.scale, a.seed)
            .ok_or_else(|| format!("unknown spec workload '{spec}'"))?;
        if w.name() != t.name() || w.mem_period() != t.mem_period() {
            return Err(format!(
                "header mismatch: file is {} (period {}), regenerated workload is {} (period {})",
                t.name(),
                t.mem_period(),
                w.name(),
                w.mem_period()
            ));
        }
        let n = t.recorded_len();
        let mut source = w.cursor(0..n);
        let mut tiled = t.cursor(0..n);
        let (mut a_buf, mut b_buf) = (Vec::new(), Vec::new());
        loop {
            let got_a = source.fill(&mut a_buf, 4096);
            let got_b = tiled.fill(&mut b_buf, 4096);
            if a_buf != b_buf || got_a != got_b {
                return Err(format!(
                    "round-trip mismatch near access {}",
                    tiled.position().saturating_sub(got_b as u64)
                ));
            }
            if got_a == 0 {
                break;
            }
        }
        eprintln!("round-trip ok: all {n} records match the regenerated {spec} workload");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let parsed = match parse_args(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "pack" => cmd_pack(&parsed),
        "info" => cmd_info(&parsed),
        "verify" => cmd_verify(&parsed),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
