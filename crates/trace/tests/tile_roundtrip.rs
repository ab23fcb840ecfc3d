//! Tile-file property tests: encode→decode round-trips are byte-identical
//! for record counts straddling tile boundaries, through the cursor and
//! random access, and corruption anywhere in the file surfaces as a typed
//! [`TileError`] rather than a panic or silent bad data.

use delorean_trace::tile::{FILE_HEADER_BYTES, RECORD_BYTES, TILE_HEADER_BYTES};
use delorean_trace::{
    pack_workload_with, spec_workload, Scale, TileError, TileFile, TiledTrace, Workload,
    WorkloadExt,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn temp(tag: &str) -> PathBuf {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "delorean-roundtrip-{}-{tag}-{id}.dlt",
        std::process::id()
    ))
}

/// Every record of the file must equal the source access, for counts on
/// either side of (and exactly on) tile boundaries — the off-by-one
/// surface of the last-short-tile arithmetic.
#[test]
fn round_trip_is_byte_identical_across_boundary_straddling_counts() {
    const TILE: u64 = 64;
    let w = spec_workload("soplex", Scale::tiny(), 11).unwrap();
    for count in [
        1,
        TILE - 1,
        TILE,
        TILE + 1,
        2 * TILE - 1,
        2 * TILE,
        2 * TILE + 1,
        3 * TILE + 7,
    ] {
        let path = temp(&format!("count{count}"));
        let summary = pack_workload_with(&w, 0..count, &path, TILE as u32).unwrap();
        assert_eq!(summary.records, count);
        assert_eq!(summary.tiles as u64, count.div_ceil(TILE));
        assert_eq!(
            summary.bytes,
            FILE_HEADER_BYTES as u64
                + summary.tiles as u64 * TILE_HEADER_BYTES as u64
                + count * RECORD_BYTES as u64,
            "count {count}: packed size must be exactly header + tiles + records"
        );
        let t = TiledTrace::open(&path).unwrap();
        for k in 0..count {
            assert_eq!(t.access_at(k), w.access_at(k), "count {count}, index {k}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// Non-zero range starts re-base the trace: record i is source access
/// start+i, at index i.
#[test]
fn packing_a_nonzero_start_rebases_to_index_zero() {
    let w = spec_workload("astar", Scale::tiny(), 3).unwrap();
    let path = temp("rebase");
    pack_workload_with(&w, 1_000..1_500, &path, 128).unwrap();
    let t = TiledTrace::open(&path).unwrap();
    assert_eq!(t.recorded_len(), 500);
    for k in [0u64, 1, 127, 128, 499] {
        let got = t.access_at(k);
        let src = w.access_at(1_000 + k);
        assert_eq!(got.index, k);
        assert_eq!(got.icount, k * w.mem_period());
        assert_eq!((got.pc, got.addr), (src.pc, src.addr));
    }
    std::fs::remove_file(&path).unwrap();
}

/// The cursor must equal `access_at` for ranges that start mid-tile,
/// end mid-tile, and extend past the recorded length (cyclic wrap), at
/// awkward fill sizes.
#[test]
fn cursors_are_equivalent_to_random_access_everywhere() {
    let w = spec_workload("omnetpp", Scale::tiny(), 5).unwrap();
    let path = temp("cursoreq");
    pack_workload_with(&w, 0..700, &path, 64).unwrap();
    let t = TiledTrace::open(&path).unwrap();
    for range in [0..700u64, 63..65, 100..612, 650..1_500, 1_400..1_402] {
        let mut cur = t.cursor(range.clone());
        let mut buf = Vec::new();
        let mut k = range.start;
        while cur.fill(&mut buf, 61) > 0 {
            for a in &buf {
                assert_eq!(*a, t.access_at(k), "k={k}");
                k += 1;
            }
        }
        assert_eq!(k, range.end, "range {range:?}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A bit flip in any region of the file must produce a typed error —
/// never a panic, never silently different data.
#[test]
fn every_corruption_site_yields_a_typed_error() {
    let w = spec_workload("sjeng", Scale::tiny(), 13).unwrap();
    let path = temp("corrupt");
    pack_workload_with(&w, 0..300, &path, 64).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Flip one byte at a spread of offsets covering the file header,
    // tile headers, and payloads.
    let sites = [
        0usize,                                    // magic
        9,                                         // version
        13,                                        // tile_records
        30,                                        // record_count
        62,                                        // name
        121,                                       // header checksum
        FILE_HEADER_BYTES + 1,                     // tile 0 header
        FILE_HEADER_BYTES + TILE_HEADER_BYTES + 5, // tile 0 payload
        pristine.len() - 3,                        // last tile payload
    ];
    for &site in &sites {
        let mut bad = pristine.clone();
        bad[site] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        let err = match TileFile::open(&path) {
            Err(e) => e,
            Ok(f) => f
                .verify()
                .expect_err(&format!("corruption at byte {site} went undetected")),
        };
        match err {
            TileError::BadMagic { .. }
            | TileError::UnsupportedVersion { .. }
            | TileError::Truncated { .. }
            | TileError::HeaderCorrupt { .. }
            | TileError::TileCorrupt { .. }
            | TileError::ChecksumMismatch { .. } => {}
            other => panic!("corruption at byte {site}: unexpected error {other}"),
        }
    }

    // Truncations at every structural boundary.
    for keep in [
        0,
        4,
        FILE_HEADER_BYTES - 1,
        FILE_HEADER_BYTES,
        pristine.len() - 1,
    ] {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        assert!(
            matches!(TileFile::open(&path), Err(TileError::Truncated { .. })),
            "truncation to {keep} bytes not reported"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// for_each_access over tiled and synthetic sources produce the same
/// stream — the consumer-level warm-loop contract.
#[test]
fn warm_loop_streams_match_the_source_workload() {
    let w = spec_workload("libquantum", Scale::tiny(), 21).unwrap();
    let path = temp("warmstream");
    pack_workload_with(&w, 0..2_000, &path, 256).unwrap();
    let t = TiledTrace::open(&path).unwrap();
    let mut expect = Vec::new();
    w.for_each_access(10..1_990, |a| expect.push(*a));
    let mut got = Vec::new();
    t.for_each_access(10..1_990, |a| got.push(*a));
    assert_eq!(expect, got);
    std::fs::remove_file(&path).unwrap();
}
