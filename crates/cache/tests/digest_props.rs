//! Property tests for [`Hierarchy::state_digest`], the commit oracle of
//! the PR 8 speculative warm lane.
//!
//! The digest folds only *behaviorally live* state (canonicalized
//! recency order, replacement bits, MSHR contents, prefetcher streams),
//! while [`Hierarchy::snapshot`] captures raw arrays — absolute LRU
//! stamps included. Over arbitrary states the two therefore measure
//! different things; over the population speculation actually produces
//! (hierarchies replayed from cold, snapshotted with drained MSHRs,
//! compared at equal access counts) the equivalence is exact, and this
//! suite pins it:
//!
//! * same replayed history  ⇒ equal digests AND equal snapshots;
//! * diverged history       ⇒ unequal digests AND unequal snapshots;
//! * **behavioral soundness**, the property the reconciler relies on:
//!   digest-equal states driven by the same suffix stay digest-equal
//!   and produce identical statistics deltas.
//!
//! The grid covers every replacement policy × MSHR shape × prefetcher
//! on/off, because each knob routes different bits into the digest.

use delorean_cache::{
    CacheConfig, Hierarchy, HierarchyConfig, MachineConfig, ReplacementPolicy, StridePrefetcher,
};
use delorean_trace::{LineAddr, Pc};

/// splitmix64 — the workspace's deterministic stand-in for a test RNG.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const POLICIES: [ReplacementPolicy; 6] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
    ReplacementPolicy::PLru,
    ReplacementPolicy::Nmru,
    ReplacementPolicy::Srrip,
];

/// MSHR shapes: (entries, fill latency in accesses).
const MSHR_SHAPES: [(u32, u64); 3] = [(1, 16), (8, 64), (32, 4)];

fn machine(policy: ReplacementPolicy, mshrs: (u32, u64), prefetch: bool) -> MachineConfig {
    let cache = |size: u64, ways: u32| CacheConfig::new(size, ways).with_replacement(policy);
    MachineConfig {
        hierarchy: HierarchyConfig {
            l1d: cache(4 * 1024, 2),
            llc: cache(32 * 1024, 4),
            l1d_mshrs: mshrs.0,
            mshr_latency_accesses: mshrs.1,
        },
        prefetch,
    }
}

/// Replay `len` pseudo-random accesses (working set ≈ 4× the LLC) from
/// cold, seeded by `seed`.
fn replay(m: &MachineConfig, seed: u64, len: u64) -> Hierarchy {
    let mut h = Hierarchy::new(m);
    let lines = m.hierarchy.llc.lines() * 4;
    for k in 0..len {
        let r = mix(seed.wrapping_mul(0x0100_0000_01b3).wrapping_add(k));
        // A few hot PCs striding plus a random tail, so prefetcher
        // streams form and every replacement policy exercises evictions.
        let (pc, line) = if r.is_multiple_of(4) {
            (Pc(0x40 + (r >> 8) % 4), LineAddr((r >> 16) % lines))
        } else {
            let pc = Pc(0x10 + (r >> 4) % 3);
            (pc, LineAddr((k.wrapping_mul(3 + pc.0)) % lines))
        };
        h.access_data(pc, line, k);
    }
    h
}

#[test]
fn digest_equality_matches_snapshot_equality_across_the_grid() {
    for policy in POLICIES {
        for mshrs in MSHR_SHAPES {
            for prefetch in [false, true] {
                let m = machine(policy, mshrs, prefetch);
                let cell = format!("{policy:?}/mshr{}x{}/pf={prefetch}", mshrs.0, mshrs.1);

                // Same history ⇒ both notions agree on "equal".
                let mut a = replay(&m, 7, 4096);
                let mut b = replay(&m, 7, 4096);
                b.reset_stats(); // statistics are outside both notions
                assert_eq!(a.state_digest(), b.state_digest(), "{cell}: digest");
                assert_eq!(a.snapshot(), b.snapshot(), "{cell}: snapshot");
                // snapshot() drained the MSHRs in place; digests must
                // still agree afterwards.
                assert_eq!(a.state_digest(), b.state_digest(), "{cell}: drained");

                // Diverged history ⇒ both notions agree on "unequal".
                let mut c = replay(&m, 8, 4096);
                assert_ne!(a.state_digest(), c.state_digest(), "{cell}: digest ≠");
                assert_ne!(a.snapshot(), c.snapshot(), "{cell}: snapshot ≠");
            }
        }
    }
}

#[test]
fn digest_equal_states_are_behaviorally_identical() {
    // The reconciler's soundness bet: a digest match means the two
    // states cannot be told apart by any future access sequence. Drive
    // digest-equal pairs through a common suffix and require identical
    // hit/miss deltas and digests at every policy/shape/prefetch cell.
    for policy in POLICIES {
        for mshrs in MSHR_SHAPES {
            for prefetch in [false, true] {
                let m = machine(policy, mshrs, prefetch);
                let cell = format!("{policy:?}/mshr{}x{}/pf={prefetch}", mshrs.0, mshrs.1);
                let mut a = replay(&m, 21, 3000);
                let mut b = replay(&m, 21, 3000);
                assert_eq!(a.state_digest(), b.state_digest(), "{cell}: precondition");
                // Compare suffix-only statistics: reset both counters
                // (a digest-neutral operation) and require identical
                // totals after the common suffix.
                a.reset_stats();
                b.reset_stats();
                let lines = m.hierarchy.llc.lines() * 4;
                for k in 0..2000u64 {
                    let r = mix(0xabc ^ k);
                    let pc = Pc(0x99 + r % 5);
                    let line = LineAddr((r >> 8) % lines);
                    let la = a.access_data(pc, line, 3000 + k);
                    let lb = b.access_data(pc, line, 3000 + k);
                    assert_eq!(la, lb, "{cell}: outcome diverged at suffix access {k}");
                }
                assert_eq!(a.state_digest(), b.state_digest(), "{cell}: post-suffix");
                assert_eq!(a.stats(), b.stats(), "{cell}: suffix stats");
            }
        }
    }
}

#[test]
fn prefetcher_tick_offsets_never_split_behaviorally_equal_states() {
    // The canonicalization the speculative warm lane relies on: a
    // prefetcher replayed from cold (window proxy) carries a different
    // absolute trigger count than the live chain's, but if it reproduces
    // the same streams in the same recency order it must digest equal —
    // and the digest promise (identical future behavior) must hold.
    for seed in [3u64, 11, 42, 1234] {
        let mut a = StridePrefetcher::paper_default();
        let mut b = StridePrefetcher::paper_default();
        // Offset b's trigger clock with junk streams it then forgets.
        for k in 0..(seed % 97 + 1) {
            b.on_trigger(Pc(0xffff + k), LineAddr(k));
        }
        b.reset();
        // Common history: a few striding PCs with occasional breaks,
        // enough volume to roll the 8-entry table over repeatedly.
        for k in 0..500u64 {
            let r = mix(seed ^ k);
            let pc = Pc(1 + r % 5);
            let line = LineAddr(if r.is_multiple_of(7) {
                r % 1000
            } else {
                k.wrapping_mul(2 + pc.0) % 1000
            });
            let ra = a.on_trigger(pc, line);
            let rb = b.on_trigger(pc, line);
            assert_eq!(ra, rb, "seed {seed}: behavior diverged at trigger {k}");
        }
        assert_eq!(
            a.state_digest(9),
            b.state_digest(9),
            "seed {seed}: tick offset split the digest"
        );
    }
}

#[test]
fn prefetcher_confidence_saturation_never_splits_armed_streams() {
    // Confidence 2 and confidence 40 predict identically (armed is
    // armed; a stride break resets both to 1), so they must digest
    // equal — while sub-threshold differences (0 vs 1) must not.
    let mut a = StridePrefetcher::paper_default();
    let mut b = StridePrefetcher::paper_default();
    for line in [20u64, 30, 40] {
        a.on_trigger(Pc(1), LineAddr(line));
    }
    for line in (0..=40u64).step_by(10) {
        b.on_trigger(Pc(1), LineAddr(line));
    }
    assert_eq!(a.state_digest(1), b.state_digest(1));
    // Stride break: both reset to confidence 1 and stay equal.
    assert_eq!(
        a.on_trigger(Pc(1), LineAddr(1000)),
        b.on_trigger(Pc(1), LineAddr(1000))
    );
    assert_eq!(a.state_digest(1), b.state_digest(1));
}
