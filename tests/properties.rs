//! Property-based integration tests: invariants over randomized workload
//! compositions and configurations.
//!
//! Cases are generated from the workspace's own deterministic counter
//! RNG (`mix64`) instead of proptest — the registry is unreachable in
//! this build environment, and seeded enumeration keeps failures exactly
//! reproducible by case index.

use delorean::prelude::*;
use delorean::statmodel::exact::ExactStackProcessor;
use delorean::trace::{
    mix64, AccessCursor, BranchModel, IndexedCursor, LineAddr, MemAccess, Pattern,
    PhasedWorkloadBuilder, RecordedTrace, StreamSpec,
};
use std::ops::Range;

/// Deterministically generate a small but structurally diverse workload
/// composition for case `case`: a seed plus 1–3 streams of
/// (pattern kind, weight, size parameter).
fn arb_workload(case: u64) -> (u64, Vec<(u8, u32, u64)>) {
    let seed = mix64(0xa4b, case);
    let n_streams = 1 + (mix64(0x57e, case) % 3) as usize;
    let streams = (0..n_streams as u64)
        .map(|s| {
            (
                (mix64(case, s) % 4) as u8,
                1 + (mix64(case, s + 100) % 7) as u32,
                16 + mix64(case, s + 200) % 496,
            )
        })
        .collect();
    (seed, streams)
}

fn build(seed: u64, streams: &[(u8, u32, u64)]) -> delorean::trace::PhasedWorkload {
    let specs: Vec<StreamSpec> = streams
        .iter()
        .map(|&(kind, weight, size)| {
            let pattern = match kind {
                0 => Pattern::Stream {
                    lines: size,
                    stride_lines: 1,
                },
                1 => Pattern::RandomUniform { lines: size },
                2 => Pattern::PermutationWalk { lines: size },
                _ => Pattern::HotCold {
                    hot_lines: (size / 4).max(1),
                    cold_lines: size,
                    hot_permille: 800,
                },
            };
            StreamSpec::new(pattern, weight)
        })
        .collect();
    PhasedWorkloadBuilder::new("prop", seed)
        .mem_period(3)
        .phase(100_000, specs)
        .build()
        .expect("generated spec is valid")
}

#[test]
fn position_addressability_holds_for_arbitrary_compositions() {
    for case in 0..24u64 {
        let (seed, streams) = arb_workload(case);
        let w = build(seed, &streams);
        let probes: Vec<u64> = (0..8)
            .map(|i| mix64(0x94abe ^ case, i) % 5_000_000)
            .collect();
        for &k in &probes {
            assert_eq!(w.access_at(k), w.access_at(k), "case {case} probe {k}");
        }
        // Sequential and random access orders agree.
        let seq: Vec<_> = w.iter_range(100..120).collect();
        for (i, a) in seq.iter().enumerate() {
            assert_eq!(*a, w.access_at(100 + i as u64), "case {case}");
        }
    }
}

#[test]
fn statstack_tracks_exact_lru_for_arbitrary_compositions() {
    for case in 0..24u64 {
        let (seed, streams) = arb_workload(case);
        let w = build(seed, &streams);
        let n = 20_000u64;
        // Full-information profile.
        let mut profile = delorean::statmodel::ReuseProfile::new();
        let mut last = std::collections::HashMap::new();
        let mut exact = ExactStackProcessor::new();
        let mut misses_64 = 0u64;
        let mut misses_1024 = 0u64;
        for a in w.iter_range(0..n) {
            match exact.access(a.line()) {
                Some(sd) => {
                    if sd >= 64 {
                        misses_64 += 1;
                    }
                    if sd >= 1024 {
                        misses_1024 += 1;
                    }
                }
                None => {
                    misses_64 += 1;
                    misses_1024 += 1;
                }
            }
            if let Some(p) = last.insert(a.line(), a.index) {
                profile.record(a.index - p - 1, 1.0);
            } else {
                profile.record_cold(1.0);
            }
        }
        // StatStack assumes stationary, well-mixed reuse behaviour; fully
        // deterministic interleaves of cyclic sweeps are its worst case
        // (correlated reuses violate the independence assumption), so the
        // bound here is looser than for the suite workloads (see
        // tests/statistical_model_validation.rs for the 10% bound there).
        let err64 = (profile.miss_ratio(64) - misses_64 as f64 / n as f64).abs();
        let err1024 = (profile.miss_ratio(1024) - misses_1024 as f64 / n as f64).abs();
        assert!(err64 < 0.25, "case {case}: 64-line error {err64}");
        assert!(err1024 < 0.25, "case {case}: 1024-line error {err1024}");
    }
}

/// Drain `workload.cursor(range)` in batches of `batch` and assert every
/// produced record is byte-identical to `access_at`, and that exactly the
/// range is produced.
fn assert_cursor_matches_access_at(
    workload: &dyn delorean::trace::Workload,
    range: std::ops::Range<u64>,
    batch: usize,
    ctx: &str,
) {
    let mut cursor = workload.cursor(range.clone());
    let mut buf = Vec::new();
    let mut k = range.start;
    while cursor.fill(&mut buf, batch) > 0 {
        for a in &buf {
            assert_eq!(*a, workload.access_at(k), "{ctx}: index {k}");
            k += 1;
        }
    }
    assert_eq!(k, range.end.max(range.start), "{ctx}: range coverage");
    assert_eq!(cursor.remaining(), 0, "{ctx}: cursor drained");
    // The iterator facade rides the same cursor; spot-check it agrees.
    let n = (range.end.saturating_sub(range.start)).min(64);
    for (i, a) in workload
        .iter_range(range.start..range.start + n)
        .enumerate()
    {
        assert_eq!(a, workload.access_at(range.start + i as u64), "{ctx}: iter");
    }
    assert_fill_lines_matches_fill(workload.cursor(range.clone()), &range, batch, ctx, |k| {
        workload.access_at(k).line()
    });
}

/// The `fill_lines` contract on one fresh `cursor` over `range`: drained
/// while alternating `fill_lines` and `fill` (batch sizes `batch` and
/// `batch + 2`, so refills land mid-period), every produced line equals
/// `line_at(k)` in order (for `fill` calls, the records' lines), and
/// `position()`/`remaining()` track the accesses produced after every
/// call, whichever call produced them.
fn assert_fill_lines_matches_fill(
    mut cursor: Box<dyn AccessCursor + '_>,
    range: &Range<u64>,
    batch: usize,
    ctx: &str,
    line_at: impl Fn(u64) -> LineAddr,
) {
    let end = range.end.max(range.start);
    let (mut lines, mut records) = (Vec::new(), Vec::<MemAccess>::new());
    let mut k = range.start;
    for call in 0.. {
        let n = if call % 2 == 0 {
            cursor.fill_lines(&mut lines, batch)
        } else {
            let n = cursor.fill(&mut records, batch + 2);
            lines.clear();
            lines.extend(records.iter().map(MemAccess::line));
            n
        };
        assert_eq!(n, lines.len(), "{ctx}: call {call} count");
        if n == 0 {
            break;
        }
        for &line in &lines {
            assert_eq!(line, line_at(k), "{ctx}: call {call} index {k}");
            k += 1;
        }
        assert_eq!(cursor.position(), k, "{ctx}: call {call} position");
        assert_eq!(cursor.remaining(), end - k, "{ctx}: call {call} remaining");
    }
    assert_eq!(k, end, "{ctx}: fill_lines range coverage");
}

/// A workload that implements only the required trait methods, so its
/// cursor is the default [`IndexedCursor`] and `fill_lines` takes the
/// trait's default (derived from `fill`).
struct IndexedOnly<W>(W);

impl<W: Workload> Workload for IndexedOnly<W> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn mem_period(&self) -> u64 {
        self.0.mem_period()
    }

    fn access_at(&self, k: u64) -> MemAccess {
        self.0.access_at(k)
    }

    fn branch_model(&self) -> BranchModel {
        self.0.branch_model()
    }
}

/// `fill_lines` on the default path (`IndexedCursor`, through the
/// trait's default method) and on every overriding in-tree cursor, over
/// empty, one-element, phase-boundary and cycle-wrap ranges with odd
/// batch sizes.
#[test]
fn fill_lines_matches_fill_on_every_cursor_type() {
    let w = spec_workload("GemsFDTD", Scale::tiny(), 42).unwrap();
    let cycle = w.cycle_len_accesses();
    let recorded = RecordedTrace::capture(&w, 2_000..2_137);
    let indexed = IndexedOnly(w.clone());
    let sources: [&dyn Workload; 3] = [&w, &recorded, &indexed];
    for (si, src) in sources.into_iter().enumerate() {
        for range in [
            5..5,
            7..8,
            cycle - 1..cycle,
            cycle - 1_000..cycle + 1_000,
            3_000_001..3_003_000,
        ] {
            for batch in [1, 7, 333, 4_096] {
                assert_fill_lines_matches_fill(
                    src.cursor(range.clone()),
                    &range,
                    batch,
                    &format!("source {si} {range:?} batch {batch}"),
                    |k| src.access_at(k).line(),
                );
            }
        }
    }
    // An `IndexedCursor` built directly, and an inverted range.
    let mut direct = IndexedCursor::new(&w, 100..1_100);
    let mut lines = Vec::new();
    assert_eq!(direct.fill_lines(&mut lines, 999), 999);
    assert_eq!(lines[998], w.access_at(1_098).line());
    assert_eq!(direct.remaining(), 1);
    #[allow(clippy::reversed_empty_ranges)]
    let mut inverted = IndexedCursor::new(&w, 9..3);
    assert_eq!(inverted.fill_lines(&mut lines, 16), 0);
    assert!(lines.is_empty());
    // `max == 0` produces nothing and leaves the cursor where it was.
    let mut cur = w.cursor(10..20);
    assert_eq!(cur.fill_lines(&mut lines, 0), 0);
    assert_eq!(cur.position(), 10);
}

/// Tentpole contract: streaming cursors are byte-identical to `access_at`
/// over random ranges, for arbitrary phased compositions covering every
/// `Pattern` constructor (the six kinds below) and odd batch sizes that
/// land refills mid-period and mid-phase.
#[test]
fn cursors_match_access_at_for_arbitrary_compositions() {
    for case in 0..24u64 {
        let size = 16 + mix64(case, 7) % 496;
        let pattern = match case % 6 {
            0 => Pattern::Stream {
                lines: size,
                stride_lines: 1 + size % 5,
            },
            1 => Pattern::RandomUniform { lines: size },
            2 => Pattern::PermutationWalk { lines: size },
            3 => Pattern::StridedScan {
                lines: (size / 8).max(2),
                stride_lines: 8,
            },
            4 => Pattern::PagedHotCold {
                pages: (size / 64).max(2),
                hot_permille: 700,
            },
            _ => Pattern::HotCold {
                hot_lines: (size / 4).max(1),
                cold_lines: size,
                hot_permille: 800,
            },
        };
        // Two phases so ranges cross a phase boundary and the cycle wrap.
        let w = PhasedWorkloadBuilder::new("cursor-prop", mix64(0x5eed, case))
            .mem_period(1 + case % 4)
            .phase(500, vec![StreamSpec::new(pattern, 1 + (case % 3) as u32)])
            .phase(
                700,
                vec![
                    StreamSpec::new(Pattern::RandomUniform { lines: 64 }, 2),
                    StreamSpec::new(pattern, 3),
                ],
            )
            .build()
            .expect("generated spec is valid");
        let cycle = w.cycle_len_accesses();
        let start = mix64(case, 0xc0de) % (3 * cycle);
        let len = 1 + mix64(case, 0xbeef) % 2_000;
        let batch = 1 + (mix64(case, 0xfeed) % 257) as usize;
        assert_cursor_matches_access_at(&w, start..start + len, batch, &format!("case {case}"));
        // And a range pinned across both the phase switch and the wrap.
        assert_cursor_matches_access_at(
            &w,
            450..cycle + 50,
            batch,
            &format!("case {case} boundary"),
        );
    }
}

/// The full 24-workload suite (every `spec_workload` constructor), with
/// ranges spanning phase boundaries for the phase-split benchmarks.
#[test]
fn cursors_match_access_at_for_the_spec_suite() {
    for (i, w) in delorean::trace::spec2006(Scale::tiny(), 42)
        .iter()
        .enumerate()
    {
        let cycle = w.cycle_len_accesses();
        let deep = mix64(i as u64, 0xd4) % 10_000_000;
        for (range, tag) in [
            (0..600, "head"),
            (cycle - 300..cycle + 300, "cycle wrap"),
            (deep..deep + 600, "deep"),
        ] {
            assert_cursor_matches_access_at(
                w,
                range,
                1 + (mix64(i as u64, 3) % 100) as usize,
                &format!("{} {tag}", w.name()),
            );
        }
    }
}

/// RecordedTrace cursors, including ranges spanning the cyclic-extension
/// wrap at `recorded_len` (multiple wraps per fill batch).
#[test]
fn recorded_trace_cursors_match_access_at_across_wraps() {
    let src = delorean::trace::spec_workload("soplex", Scale::tiny(), 9).unwrap();
    for case in 0..8u64 {
        let len = 37 + mix64(case, 1) % 400;
        let t = RecordedTrace::capture(&src, 1_000..1_000 + len);
        let rlen = t.recorded_len();
        let start = mix64(case, 2) % (2 * rlen);
        let batch = 1 + (mix64(case, 4) % 129) as usize;
        assert_cursor_matches_access_at(
            &t,
            start..start + 3 * rlen + 5,
            batch,
            &format!("recorded case {case}"),
        );
    }
}

#[test]
fn delorean_pipeline_equals_serial_for_arbitrary_compositions() {
    let scale = Scale::tiny();
    let machine = MachineConfig::for_scale(scale);
    let plan = SamplingConfig::for_scale(scale).with_regions(2).plan();
    for case in 0..24u64 {
        let (seed, streams) = arb_workload(case);
        let w = build(seed, &streams);
        let runner = DeLoreanRunner::new(machine, DeLoreanConfig::for_scale(scale));
        let serial: DeLoreanOutput = runner.run_with_workers(&w, &plan, 1).try_into().unwrap();
        let piped: DeLoreanOutput = runner.run(&w, &plan).try_into().unwrap();
        assert_eq!(serial.report.total(), piped.report.total(), "case {case}");
        assert_eq!(serial.stats, piped.stats, "case {case}");
    }
}
