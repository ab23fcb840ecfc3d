//! DeLorean: directed statistical warming through time traveling.
//!
//! This crate implements the paper's primary contribution on top of the
//! substrate crates:
//!
//! * **Directed statistical warming (DSW)** — instead of collecting many
//!   random reuse distances (CoolSim), collect only the *key reuse
//!   distances*: for each unique cacheline whose first access in the
//!   detailed region misses the lukewarm cache, the backward distance to
//!   its last access in the warm-up interval, plus a sparse *vicinity*
//!   reuse-distance distribution used for the StatStack reuse→stack
//!   conversion. The [`dsw`] classifier then labels each would-be miss as
//!   lukewarm hit / MSHR hit / conflict miss / capacity miss / *warming
//!   miss* (a sampling artifact, modeled as a hit) — Figure 3 of the
//!   paper.
//!
//! * **Time traveling (TT)** — the multi-pass pipeline that makes DSW
//!   collectable in a single run: a [`scout`] fast-forwards to the region
//!   and records the key cachelines ("look into the future"); the
//!   [`explorer`]s go *back in time*, profiling windows of 5 M / 50 M /
//!   100 M / 1 B instructions before the region until every key's last
//!   access is found (Explorer-1 via functional simulation, the rest via
//!   virtualized directed profiling with page-granularity watchpoints);
//!   the [`analyst`] finally evaluates the detailed region with DSW.
//!   The paper runs the passes as one process each over OS pipes; here
//!   each region's Scout → Explorers → Analyst chain is one independent
//!   unit on the region scheduler ([`DeLoreanRunner`]'s
//!   `SamplingStrategy::execute`), which gives the same overlap across
//!   regions.
//!
//! * **Design-space exploration** ([`dse`]) — a single Scout + Explorer
//!   set feeds many parallel Analysts with different cache
//!   configurations; warm-up cost is paid once because reuse distances
//!   are microarchitecture-independent (§3.3, Figure 14).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyst;
mod config;
pub mod dse;
pub mod dsw;
pub mod explorer;
mod keyset;
mod runner;
pub mod scout;
mod stats;

pub use config::DeLoreanConfig;
pub use keyset::{KeyInfo, KeySet};
pub use runner::{DeLoreanExtras, DeLoreanOutput, DeLoreanRunner};
pub use stats::TtStats;

/// Maximum number of Explorer passes (the paper's implementation uses 4).
pub const MAX_EXPLORERS: usize = 4;
