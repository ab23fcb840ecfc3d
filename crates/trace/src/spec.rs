//! The synthetic SPEC CPU2006-like workload suite.
//!
//! The paper evaluates on 24 SPEC CPU2006 benchmarks (reference inputs,
//! five excluded for infrastructure reasons). Real SPEC traces are not
//! available here, so each benchmark is modeled as a [`PhasedWorkload`]
//! whose parameters encode the qualitative behaviour the paper reports for
//! it:
//!
//! * **bwaves** — tiny working set, short key reuse distances, everything
//!   resolved by Explorer-1 (the paper's 49× best-case speedup).
//! * **GemsFDTD** — huge working set with very long reuses, engages all
//!   four Explorers, smallest speedup.
//! * **povray** — small working set but one phase with a few very long
//!   reuses; page-granularity watchpoints suffer false positives.
//! * **calculix** — long reuses concentrated in a single phase.
//! * **lbm** — working-set knees at 8 MiB and 512 MiB (Figure 13).
//! * **soplex / xalancbmk** — reuse behaviour spread over many static PCs,
//!   which starves CoolSim's per-PC model (its reported inaccuracy).
//! * **zeusmp / hmmer** — contain a large-stride access stream that causes
//!   conflict misses (the limited-associativity model's target).
//!
//! Footprints are declared at paper scale in bytes and shrunk through
//! [`Scale`], so the same descriptors serve paper-, demo- and tiny-scale
//! experiments.

use crate::branch::BranchModel;
use crate::pattern::Pattern;
use crate::phased::{PhasedWorkload, PhasedWorkloadBuilder, StreamSpec};
use crate::rng::mix64;
use crate::scale::Scale;

/// Names of the 24 modeled benchmarks, in the paper's figure order.
pub const SPEC2006_NAMES: [&str; 24] = [
    "perlbench",
    "bzip2",
    "bwaves",
    "gamess",
    "mcf",
    "zeusmp",
    "gromacs",
    "cactusADM",
    "leslie3d",
    "namd",
    "gobmk",
    "soplex",
    "povray",
    "calculix",
    "hmmer",
    "sjeng",
    "GemsFDTD",
    "libquantum",
    "h264ref",
    "tonto",
    "lbm",
    "omnetpp",
    "astar",
    "xalancbmk",
];

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Stream descriptor at paper scale.
#[derive(Clone, Copy, Debug)]
enum S {
    /// Small sequential loop footprint: short reuses, resolves in
    /// Explorer-1, mostly hits the lukewarm cache.
    Hot { bytes: u64, w: u32 },
    /// Uniform random accesses over a footprint: gradual working-set
    /// curve, geometric reuse-distance tail (deep explorers engaged).
    Rand { bytes: u64, w: u32, pcs: u32 },
    /// Permutation walk: sharp working-set knee at `bytes`, *exact* reuse
    /// distances — the stream's explorer tier is fully determined by
    /// footprint / weight.
    Walk { bytes: u64, w: u32 },
    /// Sequential sweep: same exact reuse distances as `Walk`, but in
    /// address order — visible to a stride prefetcher (§6.3.2's targets).
    Seq { bytes: u64, w: u32 },
    /// Large-stride scan: conflict misses via set under-utilization.
    Conflict {
        stride_bytes: u64,
        span_bytes: u64,
        w: u32,
    },
    /// Hot/cold lines interleaved within pages: watchpoint false-positive
    /// pathology (povray).
    Paged {
        bytes: u64,
        hot_permille: u32,
        w: u32,
    },
}

impl S {
    fn compile(self, scale: Scale) -> StreamSpec {
        match self {
            S::Hot { bytes, w } => StreamSpec::new(
                Pattern::Stream {
                    lines: scale.lines(bytes),
                    stride_lines: 1,
                },
                w,
            )
            .with_pcs(4),
            S::Rand { bytes, w, pcs } => StreamSpec::new(
                Pattern::RandomUniform {
                    lines: scale.lines(bytes),
                },
                w,
            )
            .with_pcs(pcs),
            S::Walk { bytes, w } => StreamSpec::new(
                Pattern::PermutationWalk {
                    lines: scale.lines(bytes),
                },
                w,
            )
            .with_pcs(2),
            S::Seq { bytes, w } => StreamSpec::new(
                Pattern::Stream {
                    lines: scale.lines(bytes),
                    stride_lines: 1,
                },
                w,
            )
            .with_pcs(2),
            S::Conflict {
                stride_bytes,
                span_bytes,
                w,
            } => {
                let stride_lines = (stride_bytes / crate::LINE_BYTES).max(1);
                let lines = (scale.lines(span_bytes) / stride_lines).max(4);
                StreamSpec::new(
                    Pattern::StridedScan {
                        lines,
                        stride_lines,
                    },
                    w,
                )
                .with_pcs(1)
            }
            S::Paged {
                bytes,
                hot_permille,
                w,
            } => {
                let pages = (scale.lines(bytes) * crate::LINE_BYTES / crate::PAGE_BYTES).max(2);
                StreamSpec::new(
                    Pattern::PagedHotCold {
                        pages,
                        hot_permille,
                    },
                    w,
                )
                .with_pcs(6)
            }
        }
    }
}

fn rand(bytes: u64, w: u32) -> S {
    S::Rand { bytes, w, pcs: 8 }
}

fn rand_pcs(bytes: u64, w: u32, pcs: u32) -> S {
    S::Rand { bytes, w, pcs }
}

fn hot(bytes: u64, w: u32) -> S {
    S::Hot { bytes, w }
}

fn walk(bytes: u64, w: u32) -> S {
    S::Walk { bytes, w }
}

fn seq(bytes: u64, w: u32) -> S {
    S::Seq { bytes, w }
}

fn paged(bytes: u64, hot_permille: u32, w: u32) -> S {
    S::Paged {
        bytes,
        hot_permille,
        w,
    }
}

/// Phase descriptor: length in paper-scale accesses plus its stream mix.
struct Ph {
    paper_len_accesses: u64,
    streams: Vec<S>,
}

struct Spec {
    name: &'static str,
    mem_period: u64,
    /// Fraction (per mille) of branch PCs that are strongly predictable.
    branch_biased: u32,
    phases: Vec<Ph>,
}

fn one_phase(streams: Vec<S>) -> Vec<Ph> {
    vec![Ph {
        // Long enough that single-phase workloads never wrap within a
        // region and its warm-up windows; the pattern maths wraps cleanly
        // anyway.
        paper_len_accesses: 400_000_000,
        streams,
    }]
}

fn spec_table() -> Vec<Spec> {
    // Stream tiers are chosen against the scaled Explorer windows
    // (5 M / 50 M / 100 M / 1 B instructions): a walk stream of L lines at
    // access share f has *exact* reuse distance L/f accesses, pinning the
    // explorer that resolves it; rand streams add geometric tails that
    // engage the deep explorers (and leave a cold trickle past the last
    // window), matching the per-benchmark behaviour of Figures 7 and 8.
    vec![
        Spec {
            name: "perlbench",
            mem_period: 3,
            branch_biased: 900,
            phases: one_phase(vec![hot(8 * KB, 900), walk(2 * MB, 70), walk(16 * MB, 30)]),
        },
        Spec {
            name: "bzip2",
            mem_period: 3,
            branch_biased: 880,
            phases: one_phase(vec![hot(8 * KB, 880), seq(4 * MB, 80), walk(32 * MB, 40)]),
        },
        Spec {
            name: "bwaves",
            mem_period: 3,
            branch_biased: 975,
            // The whole working set fits the L1-D: most regions produce
            // zero key cachelines (everything hits the lukewarm cache),
            // which is the paper's best case — fewer than one Explorer
            // engaged on average and the largest speedup over CoolSim.
            phases: one_phase(vec![hot(4 * KB, 900), walk(16 * KB, 100)]),
        },
        Spec {
            name: "gamess",
            mem_period: 4,
            branch_biased: 960,
            phases: one_phase(vec![hot(8 * KB, 930), walk(MB, 70)]),
        },
        Spec {
            name: "mcf",
            mem_period: 3,
            branch_biased: 850,
            // Giant pointer-chasing footprints with heavy reuse tails:
            // all explorers engaged, highest CPI of the suite.
            phases: one_phase(vec![
                hot(4 * KB, 650),
                rand(64 * MB, 220),
                rand(256 * MB, 130),
            ]),
        },
        Spec {
            name: "zeusmp",
            mem_period: 3,
            branch_biased: 955,
            phases: one_phase(vec![
                hot(8 * KB, 750),
                walk(16 * MB, 150),
                rand(128 * MB, 90),
                S::Conflict {
                    stride_bytes: 512,
                    span_bytes: 2 * MB,
                    w: 10,
                },
            ]),
        },
        Spec {
            name: "gromacs",
            mem_period: 3,
            branch_biased: 940,
            phases: one_phase(vec![hot(8 * KB, 890), walk(4 * MB, 80), walk(32 * MB, 30)]),
        },
        Spec {
            name: "cactusADM",
            mem_period: 3,
            branch_biased: 965,
            // Multi-scale random footprints: the gradual working-set curve
            // of Figure 13 (no pronounced knee).
            phases: one_phase(vec![
                hot(8 * KB, 850),
                rand(512 * KB, 40),
                rand(4 * MB, 40),
                rand(32 * MB, 40),
                rand(256 * MB, 30),
            ]),
        },
        Spec {
            name: "leslie3d",
            mem_period: 3,
            branch_biased: 960,
            phases: one_phase(vec![
                hot(8 * KB, 920),
                rand(MB, 30),
                rand(16 * MB, 20),
                rand(128 * MB, 20),
                rand(512 * MB, 10),
            ]),
        },
        Spec {
            name: "namd",
            mem_period: 3,
            branch_biased: 950,
            phases: one_phase(vec![hot(8 * KB, 920), walk(2 * MB, 60), walk(8 * MB, 20)]),
        },
        Spec {
            name: "gobmk",
            mem_period: 4,
            branch_biased: 870,
            phases: one_phase(vec![hot(8 * KB, 900), walk(2 * MB, 70), walk(12 * MB, 30)]),
        },
        Spec {
            name: "soplex",
            mem_period: 3,
            branch_biased: 900,
            // Two CoolSim failure modes at once (§6.2): phase-split PC
            // pools (the sampled interval is often a different phase than
            // the region, starving the per-PC model), and an 8 MiB random
            // structure sitting exactly at the Figure 9 LLC size, where
            // per-PC all-or-nothing hit/miss thresholds flip while
            // DeLorean's exact per-line reuse distances do not.
            phases: vec![
                Ph {
                    paper_len_accesses: 300_000_000,
                    streams: vec![
                        hot(8 * KB, 780),
                        rand_pcs(8 * MB, 140, 64),
                        rand_pcs(96 * MB, 80, 64),
                    ],
                },
                Ph {
                    paper_len_accesses: 160_000_000,
                    streams: vec![
                        hot(8 * KB, 720),
                        rand_pcs(8 * MB, 170, 64),
                        rand_pcs(96 * MB, 110, 64),
                    ],
                },
            ],
        },
        Spec {
            name: "povray",
            mem_period: 4,
            branch_biased: 910,
            // Hot and cold lines share pages: every watchpoint on a cold
            // key protects a page with a hot line — the false-positive
            // storm that makes povray DeLorean's worst case (§6.1).
            phases: one_phase(vec![hot(8 * KB, 700), paged(64 * MB, 867, 300)]),
        },
        Spec {
            name: "calculix",
            mem_period: 3,
            branch_biased: 945,
            // Long reuses concentrated in one rare phase: deep explorers
            // engage for the few regions that land there.
            phases: vec![
                Ph {
                    paper_len_accesses: 400_000_000,
                    streams: vec![hot(8 * KB, 900), walk(2 * MB, 100)],
                },
                Ph {
                    paper_len_accesses: 45_000_000,
                    streams: vec![hot(8 * KB, 800), walk(256 * MB, 200)],
                },
            ],
        },
        Spec {
            name: "hmmer",
            mem_period: 3,
            branch_biased: 930,
            phases: one_phase(vec![
                hot(8 * KB, 940),
                walk(MB, 50),
                S::Conflict {
                    stride_bytes: 512,
                    span_bytes: MB,
                    w: 10,
                },
            ]),
        },
        Spec {
            name: "sjeng",
            mem_period: 4,
            branch_biased: 860,
            phases: one_phase(vec![
                hot(8 * KB, 850),
                walk(16 * MB, 100),
                walk(48 * MB, 50),
            ]),
        },
        Spec {
            name: "GemsFDTD",
            mem_period: 3,
            branch_biased: 950,
            // Huge working set, very long reuses, phase-split PCs, plus an
            // LLC-threshold structure: engages every explorer and defeats
            // CoolSim's per-PC model (the paper's worst CoolSim error).
            phases: vec![
                // Phase cycle (200M + 100M accesses = 900M instructions)
                // stays within Explorer-4's 1B window, so cross-phase
                // reuses of the giant structures remain resolvable.
                Ph {
                    paper_len_accesses: 200_000_000,
                    streams: vec![
                        hot(8 * KB, 570),
                        rand_pcs(4 * MB, 200, 32),
                        walk(64 * MB, 120),
                        rand_pcs(128 * MB, 110, 32),
                    ],
                },
                Ph {
                    paper_len_accesses: 100_000_000,
                    streams: vec![
                        hot(8 * KB, 530),
                        rand_pcs(4 * MB, 220, 32),
                        walk(64 * MB, 120),
                        rand_pcs(128 * MB, 130, 32),
                    ],
                },
            ],
        },
        Spec {
            name: "libquantum",
            mem_period: 3,
            branch_biased: 970,
            phases: one_phase(vec![hot(4 * KB, 700), seq(32 * MB, 300)]),
        },
        Spec {
            name: "h264ref",
            mem_period: 3,
            branch_biased: 920,
            phases: one_phase(vec![hot(8 * KB, 900), walk(2 * MB, 80), walk(8 * MB, 20)]),
        },
        Spec {
            name: "tonto",
            mem_period: 3,
            branch_biased: 945,
            phases: one_phase(vec![hot(8 * KB, 880), walk(4 * MB, 80), walk(16 * MB, 40)]),
        },
        Spec {
            name: "lbm",
            mem_period: 3,
            branch_biased: 975,
            // Two sequential sweeps pin the Figure 13 knees: the first
            // falls at 8 MiB, the second (384 MiB — comfortably inside the
            // 512 MiB LLC rather than exactly at capacity, which is a
            // knife edge for LRU) shows up at the 512 MiB point. The deep
            // sweep engages Explorer-4 every region, and both are visible
            // to the stride prefetcher (§6.3.2).
            phases: one_phase(vec![hot(8 * KB, 880), seq(8 * MB, 65), seq(384 * MB, 55)]),
        },
        Spec {
            name: "omnetpp",
            mem_period: 3,
            branch_biased: 890,
            phases: one_phase(vec![
                hot(8 * KB, 800),
                walk(16 * MB, 130),
                rand(64 * MB, 70),
            ]),
        },
        Spec {
            name: "astar",
            mem_period: 3,
            branch_biased: 865,
            phases: one_phase(vec![
                hot(8 * KB, 820),
                walk(16 * MB, 100),
                rand(96 * MB, 80),
            ]),
        },
        Spec {
            name: "xalancbmk",
            mem_period: 3,
            branch_biased: 905,
            phases: vec![
                Ph {
                    paper_len_accesses: 320_000_000,
                    streams: vec![
                        hot(8 * KB, 840),
                        walk(8 * MB, 110),
                        rand_pcs(48 * MB, 50, 40),
                    ],
                },
                Ph {
                    paper_len_accesses: 200_000_000,
                    streams: vec![
                        hot(8 * KB, 800),
                        walk(8 * MB, 130),
                        rand_pcs(48 * MB, 70, 40),
                    ],
                },
            ],
        },
    ]
}

fn build(spec: &Spec, scale: Scale, suite_seed: u64) -> PhasedWorkload {
    let seed = mix64(suite_seed, hash_name(spec.name));
    let mut b = PhasedWorkloadBuilder::new(spec.name, seed)
        .mem_period(spec.mem_period)
        .branch_model(BranchModel::new(mix64(seed, 0xb9)).with_biased_permille(spec.branch_biased));
    for ph in &spec.phases {
        let len = (ph.paper_len_accesses / scale.instr_div).max(10_000);
        b = b.phase(len, ph.streams.iter().map(|s| s.compile(scale)).collect());
    }
    // lint:allow(no-unwrap): the static SPEC table always carries at least one phase with streams
    b.build().expect("suite specs are valid by construction")
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Build the full 24-workload suite at the given scale.
///
/// `suite_seed` perturbs every workload's internal randomness; experiments
/// use a fixed seed so results are reproducible run to run.
///
/// ```
/// use delorean_trace::{spec2006, Scale};
///
/// let suite = spec2006(Scale::tiny(), 42);
/// assert_eq!(suite.len(), 24);
/// ```
pub fn spec2006(scale: Scale, suite_seed: u64) -> Vec<PhasedWorkload> {
    spec_table()
        .iter()
        .map(|s| build(s, scale, suite_seed))
        .collect()
}

/// Build a single suite workload by name, or `None` for unknown names.
///
/// ```
/// use delorean_trace::{spec_workload, Scale, Workload};
///
/// let w = spec_workload("lbm", Scale::tiny(), 42).unwrap();
/// assert_eq!(w.name(), "lbm");
/// assert!(spec_workload("nope", Scale::tiny(), 42).is_none());
/// ```
pub fn spec_workload(name: &str, scale: Scale, suite_seed: u64) -> Option<PhasedWorkload> {
    spec_table()
        .iter()
        .find(|s| s.name == name)
        .map(|s| build(s, scale, suite_seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::FlatSet;
    use crate::{Workload, WorkloadExt};

    #[test]
    fn suite_has_all_names_in_order() {
        let suite = spec2006(Scale::tiny(), 1);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names, SPEC2006_NAMES.to_vec());
    }

    #[test]
    fn workloads_differ_from_each_other() {
        let suite = spec2006(Scale::tiny(), 1);
        let mut sigs: Vec<Vec<u64>> = Vec::new();
        for w in &suite {
            let sig: Vec<u64> = w.iter_range(0..64).map(|a| a.addr.0).collect();
            assert!(
                !sigs.contains(&sig),
                "{} duplicates another workload",
                w.name()
            );
            sigs.push(sig);
        }
    }

    #[test]
    fn suite_seed_changes_streams_but_not_structure() {
        let a = spec_workload("mcf", Scale::tiny(), 1).unwrap();
        let b = spec_workload("mcf", Scale::tiny(), 2).unwrap();
        assert_eq!(a.mem_period(), b.mem_period());
        let sa: Vec<u64> = a.iter_range(0..64).map(|x| x.addr.0).collect();
        let sb: Vec<u64> = b.iter_range(0..64).map(|x| x.addr.0).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn bwaves_has_small_footprint_gems_large() {
        let bw = spec_workload("bwaves", Scale::demo(), 1).unwrap();
        let gems = spec_workload("GemsFDTD", Scale::demo(), 1).unwrap();
        assert!(
            gems.footprint_lines() > 20 * bw.footprint_lines(),
            "gems {} vs bwaves {}",
            gems.footprint_lines(),
            bw.footprint_lines()
        );
    }

    #[test]
    fn phase_split_benchmarks_have_two_phases() {
        for name in ["soplex", "calculix", "GemsFDTD", "xalancbmk"] {
            let w = spec_workload(name, Scale::demo(), 1).unwrap();
            let cycle = w.cycle_len_accesses();
            assert_eq!(w.phase_at(0), 0, "{name}");
            assert_eq!(w.phase_at(cycle - 1), 1, "{name}");
        }
    }

    #[test]
    fn phase_split_benchmarks_use_distinct_pcs_per_phase() {
        // The CoolSim-starvation mechanism: the same logical data
        // structure is accessed from different static PCs in different
        // phases.
        let w = spec_workload("soplex", Scale::demo(), 1).unwrap();
        let cycle = w.cycle_len_accesses();
        let a_pcs: FlatSet<u64> = w.iter_range(0..5_000).map(|a| a.pc.0).collect();
        let b_pcs: FlatSet<u64> = w.iter_range(cycle - 5_000..cycle).map(|a| a.pc.0).collect();
        assert!(a_pcs.iter().all(|p| !b_pcs.contains(p)), "phases share PCs");
    }

    #[test]
    fn region_locality_is_high_for_hot_workloads() {
        // A 10k-instruction region (3,333 accesses) of a hot-dominated
        // workload must touch only a modest number of unique lines — the
        // paper reports an average of 151 key cachelines per region.
        let w = spec_workload("bwaves", Scale::demo(), 1).unwrap();
        let unique: FlatSet<u64> = w
            .iter_range(1_000_000..1_000_000 + 3_333)
            .map(|a| a.line().0)
            .collect();
        assert!(
            unique.len() < 800,
            "bwaves region touches {} unique lines",
            unique.len()
        );
    }

    #[test]
    fn mem_periods_vary() {
        let suite = spec2006(Scale::tiny(), 1);
        let periods: FlatSet<u64> = suite.iter().map(|w| w.mem_period()).collect();
        assert!(periods.len() >= 2);
    }
}
