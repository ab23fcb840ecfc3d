//! Property tests pinning the batched warm path to the per-access path.
//!
//! `Hierarchy::warm_slice` must be **bit-identical** to driving the same
//! accesses one at a time through `Hierarchy::access_data`: identical
//! final microarchitectural state (`HierarchySnapshot` compares
//! bit-for-bit) and identical statistics counters, across machine
//! geometries, replacement policies, MSHR capacities and latencies
//! (including streams that saturate the file into the `Full` outcome),
//! prefetcher on/off, arbitrary batch-boundary splits, and region
//! boundaries that `drain_mshrs` the file mid-stream.
//!
//! Every property runs on each of [`GEOMETRIES`]: Table 1's 2-way/8-way
//! pair, which the hierarchy runs through its fixed-width access core,
//! and two others (a 4-way L1 over a 16-way LLC, and a 6-way LLC that no
//! fixed-width scan covers), which run through the configured-width core.

use delorean_cache::{
    CacheConfig, Hierarchy, HierarchyConfig, MachineConfig, MshrFile, MshrOutcome,
    ReplacementPolicy,
};
use delorean_trace::{mix64, Addr, MemAccess, Pc};

/// Small cache geometries, `(L1-D bytes, L1-D ways, LLC bytes, LLC
/// ways)`. Small caches keep set pressure (and therefore MSHR churn,
/// evictions and replacement decisions) high at test sizes.
const GEOMETRIES: [(u64, u32, u64, u32); 3] = [
    // Table 1's widths: 4 KiB 2-way L1 over a 32 KiB 8-way LLC.
    (4 << 10, 2, 32 << 10, 8),
    // 4 KiB 4-way L1 (16 sets) over a 32 KiB 16-way LLC (32 sets).
    (4 << 10, 4, 32 << 10, 16),
    // 4 KiB 2-way L1 over a 48 KiB 6-way LLC (128 sets).
    (4 << 10, 2, 48 << 10, 6),
];

/// A small machine of one of [`GEOMETRIES`] with explicit MSHR shape and
/// LLC policy, or `None` where the policy cannot run on the geometry
/// (tree-PLRU needs power-of-two ways).
fn machine_of(
    (l1_bytes, l1_ways, llc_bytes, llc_ways): (u64, u32, u64, u32),
    mshrs: u32,
    latency: u64,
    llc_policy: ReplacementPolicy,
    prefetch: bool,
) -> Option<MachineConfig> {
    let llc = CacheConfig {
        replacement: llc_policy,
        ..CacheConfig::new(llc_bytes, llc_ways)
    };
    llc.validate().ok()?;
    Some(MachineConfig {
        hierarchy: HierarchyConfig {
            l1d: CacheConfig::new(l1_bytes, l1_ways),
            llc,
            l1d_mshrs: mshrs,
            mshr_latency_accesses: latency,
        },
        prefetch,
    })
}

/// [`machine_of`] on every geometry the policy can run on.
fn machines(
    mshrs: u32,
    latency: u64,
    llc_policy: ReplacementPolicy,
    prefetch: bool,
) -> Vec<MachineConfig> {
    GEOMETRIES
        .iter()
        .filter_map(|&g| machine_of(g, mshrs, latency, llc_policy, prefetch))
        .collect()
}

/// Deterministic access stream: `line_space` distinct lines, PCs drawn
/// from a small pool (so the prefetcher's per-PC stride detectors
/// engage), with an occasional unit-stride burst to give the stride
/// prefetcher something real to train on.
fn stream(seed: u64, n: u64, line_space: u64) -> Vec<MemAccess> {
    (0..n)
        .map(|i| {
            let r = mix64(seed, i);
            // Every 4th access is a dedicated streaming PC marching
            // through fresh far lines at unit stride: its consecutive
            // memory misses have a stable stride, which is what arms the
            // per-PC stride detector.
            let (pc, line) = if i % 4 == 3 {
                (Pc(0x9990), (1 << 20) + (seed << 14) + i / 4)
            } else {
                (Pc(0x400 + (r >> 32) % 16 * 4), r % line_space)
            };
            MemAccess {
                index: i,
                icount: i * 3,
                pc,
                addr: Addr(line * 64),
            }
        })
        .collect()
}

/// Drive `accesses` through a fresh per-access hierarchy and a fresh
/// batched hierarchy (splitting at `batch` boundaries, draining MSHRs at
/// each index in `clears`), then assert snapshots and every statistics
/// block agree bit-for-bit.
fn assert_equivalent(cfg: &MachineConfig, accesses: &[MemAccess], batch: usize, clears: &[u64]) {
    let mut per_access = Hierarchy::new(cfg);
    let mut batched = Hierarchy::new(cfg);

    for a in accesses {
        if clears.contains(&a.index) {
            per_access.drain_mshrs();
        }
        per_access.access_data(a.pc, a.line(), a.index);
    }

    // Split the stream at the drain boundaries, then feed each span in
    // `batch`-sized slices — the batched path must honor region
    // boundaries that fall mid-batch.
    let mut start = 0usize;
    for (i, a) in accesses.iter().enumerate() {
        if clears.contains(&a.index) {
            for chunk in accesses[start..i].chunks(batch.max(1)) {
                batched.warm_slice(chunk);
            }
            batched.drain_mshrs();
            start = i;
        }
    }
    for chunk in accesses[start..].chunks(batch.max(1)) {
        batched.warm_slice(chunk);
    }

    assert_eq!(
        per_access.stats(),
        batched.stats(),
        "hierarchy counters diverged (batch={batch}, clears={clears:?})"
    );
    assert_eq!(
        per_access.l1d().stats(),
        batched.l1d().stats(),
        "L1-D counters diverged"
    );
    assert_eq!(
        per_access.llc().stats(),
        batched.llc().stats(),
        "LLC counters diverged"
    );
    assert_eq!(
        per_access.snapshot(),
        batched.snapshot(),
        "snapshots diverged (batch={batch}, clears={clears:?})"
    );
}

#[test]
fn batch_splits_never_change_the_outcome() {
    let accesses = stream(1, 6_000, 900);
    for cfg in machines(8, 64, ReplacementPolicy::Lru, false) {
        for batch in [1usize, 2, 7, 64, 1024, 6_000] {
            assert_equivalent(&cfg, &accesses, batch, &[]);
        }
    }
}

#[test]
fn equivalence_across_replacement_policies() {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::PLru,
        ReplacementPolicy::Nmru,
        ReplacementPolicy::Srrip,
    ] {
        let accesses = stream(2, 4_000, 700);
        for cfg in machines(8, 64, policy, false) {
            assert_equivalent(&cfg, &accesses, 128, &[]);
        }
    }
}

#[test]
fn equivalence_across_mshr_shapes_including_full() {
    // Capacity 1 with a long latency saturates instantly (the `Full`
    // outcome on nearly every miss); capacity 32 with zero latency makes
    // every fill visible to the next access.
    for (mshrs, latency) in [
        (1u32, 500u64),
        (1, 0),
        (2, 64),
        (8, 1),
        (32, 0),
        (8, 10_000),
    ] {
        let accesses = stream(3 + u64::from(mshrs), 5_000, 1_200);
        for cfg in machines(mshrs, latency, ReplacementPolicy::Lru, false) {
            assert_equivalent(&cfg, &accesses, 256, &[]);
        }
    }
}

#[test]
fn full_outcome_actually_occurs_in_the_saturating_shape() {
    // Guard the previous test's premise: a 1-entry file with latency
    // longer than the stream really does hand out `Full`.
    let mut m = MshrFile::new(1, 500);
    assert_eq!(
        m.on_miss(delorean_trace::LineAddr(1), 0),
        MshrOutcome::Allocated
    );
    assert_eq!(m.on_miss(delorean_trace::LineAddr(2), 1), MshrOutcome::Full);
    assert_eq!(
        m.on_miss(delorean_trace::LineAddr(1), 2),
        MshrOutcome::DelayedHit
    );
}

#[test]
fn equivalence_with_prefetcher_enabled() {
    for seed in [5u64, 6, 7] {
        let accesses = stream(seed, 5_000, 600);
        for cfg in machines(8, 64, ReplacementPolicy::Lru, true) {
            assert_equivalent(&cfg, &accesses, 512, &[]);
            let h = {
                let mut h = Hierarchy::new(&cfg);
                h.warm_slice(&accesses);
                h
            };
            // The stream's striding phases must actually engage the
            // prefetcher, or this test exercises nothing.
            assert!(h.stats().prefetches_issued > 0, "prefetcher never fired");
        }
    }
}

#[test]
fn region_boundary_drains_are_honored_mid_batch() {
    let accesses = stream(8, 6_000, 800);
    for cfg in machines(4, 64, ReplacementPolicy::Lru, false) {
        assert_equivalent(&cfg, &accesses, 1024, &[1_500, 1_501, 4_000]);
    }
}

#[test]
fn warm_range_equals_per_access_over_a_real_workload() {
    use delorean_trace::{spec_workload, Scale, WorkloadExt};
    for name in ["hmmer", "mcf", "povray"] {
        let w = spec_workload(name, Scale::tiny(), 1).unwrap();
        let cfg = MachineConfig::for_scale(Scale::tiny());
        let mut streamed = Hierarchy::new(&cfg);
        streamed.warm_range(&w, 37..12_037);
        let mut looped = Hierarchy::new(&cfg);
        w.for_each_access(37..12_037, |a| {
            looped.access_data(a.pc, a.line(), a.index);
        });
        assert_eq!(streamed.stats(), looped.stats(), "{name} counters diverged");
        assert_eq!(
            streamed.snapshot(),
            looped.snapshot(),
            "{name} snapshots diverged"
        );
    }
}

#[test]
fn checkpoint_restore_equalizes_both_paths() {
    // A snapshot taken on the batched path must restore onto a hierarchy
    // driven per-access (and vice versa) with identical behavior after.
    let accesses = stream(9, 3_000, 500);
    let tail = stream(10, 1_000, 500);
    // Tree-PLRU runs on the power-of-two geometries; the 6-way LLC
    // checkpoints under LRU.
    let cfgs = machines(8, 64, ReplacementPolicy::PLru, false)
        .into_iter()
        .chain(machine_of(
            GEOMETRIES[2],
            8,
            64,
            ReplacementPolicy::Lru,
            false,
        ));
    for cfg in cfgs {
        let mut batched = Hierarchy::new(&cfg);
        batched.warm_slice(&accesses);
        let snap = batched.snapshot();

        let mut restored = Hierarchy::new(&cfg);
        restored.restore(&snap);
        for a in &tail {
            let via_restore = restored.access_data(a.pc, a.line(), a.index);
            let via_batched = batched.access_data(a.pc, a.line(), a.index);
            assert_eq!(
                via_restore, via_batched,
                "post-restore divergence at {}",
                a.index
            );
        }
    }
}
