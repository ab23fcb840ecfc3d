//! On-disk trace tiles: the production trace-ingest path.
//!
//! The synthetic suite generates accesses with per-access pattern math.
//! This module materializes them: a compact binary **tile file** on
//! disk, memory-mapped on open, whose decoded tiles feed the warm loops
//! with plain `memcpy`s, so access *generation* stops being a cost at
//! all. It is the only materialized trace format, and
//! [`pack_workload`] (or [`pack_workload_with`]) is its one writer: any
//! [`Workload`] packs, a captured trace as well as a synthetic one.
//!
//! # File format (version 3)
//!
//! ```text
//! file   := file-header tile*
//! file-header (128 B, little-endian):
//!     magic       [u8;8] = "DLRNTILE"
//!     version     u32    = 3
//!     tile_records u32          records per full tile
//!     mem_period  u64
//!     record_count u64          total records in the file
//!     branch      u64+u32+u32+u64   BranchModel{period,pcs,biased_permille,seed}
//!     name_len    u32, name [u8;32]  workload name (UTF-8, ≤ 32 bytes)
//!     reserved    [u8;28]       zeros
//!     checksum    u64           tile_checksum of bytes 0..120
//! tile   := tile-header payload
//! tile-header (40 B):
//!     magic       u32 = "TILE"
//!     records     u32           ≤ tile_records; short only in the last tile
//!     first_index u64           global index of the first record
//!     start_instr u64           icount of the first record
//!     end_instr   u64           icount one past the last record
//!     checksum    u64           tile_checksum of the payload bytes
//! payload := record*            records × 16 B
//! record := pc u64, addr u64
//! ```
//!
//! Record `index`/`icount` are *implied by position* (`icount = index ×
//! mem_period`, the invariant every in-tree workload already obeys), so
//! they are never stored; a tile decodes straight into
//! [`MemAccess`] records whose fields match the source
//! workload byte for byte. All tiles but the last have the same byte
//! size, so seeking to any record — and therefore to any per-region
//! cursor slice a region-scheduler unit asks for — is O(1) pointer
//! arithmetic into the map.
//!
//! # Checksum (version 3)
//!
//! [`tile_checksum`] runs four independent [`mix64`] lanes over
//! 32-byte strides, so a payload is checked at memory speed rather than
//! at the latency of one serial chain; the lanes fold in order at the
//! end, and whatever the strides leave over chains onto the fold as
//! version 2's single chain did:
//!
//! ```text
//! seed   = 0x9e3779b97f4a7c15 ^ len
//! lane_i = mix64(seed, i)                        i = 0..4
//! for each whole 32-byte stride s:  lane_i = mix64(lane_i, word(s, i))
//! h      = mix64(mix64(mix64(mix64(seed, lane_0), lane_1), lane_2), lane_3)
//! for each 8-byte word left over:   h = mix64(h, word)
//! if 1..=7 bytes remain:            h = mix64(h, tail zero-padded to 8 bytes)
//! ```
//!
//! Words are little-endian. Version 2 files used the single chain and
//! are rejected with [`TileError::UnsupportedVersion`].
//!
//! # Packing and verifying on every core
//!
//! [`pack_workload_with`] and [`TileFile::verify`] split the file into
//! groups of whole tiles (about 1 MiB each) and run them on the host's
//! available parallelism ([`crate::host_parallelism`]) through
//! [`crate::claim::run_in_order`], each thread packing into one reused
//! group buffer. Results are taken in group order up to the first
//! error, so a packed file is byte-identical at any worker count, and
//! `verify` always reports the lowest-index bad tile.
//!
//! # Two consumers
//!
//! * [`TiledTrace::access_at`] — random access: decode one record in
//!   place (DSW key probes, tests).
//! * [`TiledCursor`] — the sequential cursor: decodes record spans
//!   straight out of the memory map into the caller's `fill` buffer,
//!   with zero validation in the loop: the file was verified at open.
//!
//! Corrupt or truncated files surface as typed [`TileError`]s — at
//! [`TileFile::open`] for structural damage, at [`TileFile::verify`] for
//! payload damage. [`TiledTrace::open`] is the only way to a
//! [`Workload`] over a tile file, and it verifies every checksum first,
//! so the infallible [`Workload`] surface can never observe a bad tile.
//!
//! # Example
//!
//! ```
//! use delorean_trace::tile::{pack_workload, TiledTrace};
//! use delorean_trace::{spec_workload, Scale, Workload};
//!
//! let w = spec_workload("mcf", Scale::tiny(), 7).unwrap();
//! let path = std::env::temp_dir().join(format!("doc-mcf-{}.dlt", std::process::id()));
//! pack_workload(&w, 0..10_000, &path).unwrap();
//!
//! let tiled = TiledTrace::open(&path).unwrap();
//! assert_eq!(tiled.name(), "mcf");
//! assert_eq!(tiled.access_at(1234), w.access_at(1234)); // byte-identical
//! std::fs::remove_file(&path).unwrap();
//! ```

use crate::branch::BranchModel;
use crate::claim::run_in_order;
use crate::cursor::AccessCursor;
use crate::rng::mix64;
use crate::types::{Addr, LineAddr, MemAccess, Pc};
use crate::Workload;
use memmap2::Mmap;
use std::fmt;
use std::fs::File;
use std::io;
use std::ops::ControlFlow;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// File magic: the first 8 bytes of every tile file.
pub const FILE_MAGIC: [u8; 8] = *b"DLRNTILE";
/// Per-tile magic ("TILE", little-endian).
pub const TILE_MAGIC: u32 = u32::from_le_bytes(*b"TILE");
/// Format version this module reads and writes.
pub const FORMAT_VERSION: u32 = 3;
/// Fixed file-header size in bytes.
pub const FILE_HEADER_BYTES: usize = 128;
/// Fixed tile-header size in bytes.
pub const TILE_HEADER_BYTES: usize = 40;
/// Packed record width: pc (8) + addr (8).
pub const RECORD_BYTES: usize = 16;
/// Default records per tile (64 KiB of payload: big enough to amortize
/// the header + checksum, small enough that a decoded tile stays
/// cache-friendly).
pub const DEFAULT_TILE_RECORDS: u32 = 4096;
/// Maximum workload-name length storable in the header.
pub const NAME_BYTES: usize = 32;

/// Offset of the header checksum field (it checks bytes `0..this`).
const HEADER_CHECKSUM_AT: usize = 120;
/// Target size of a tile group, the unit that packing and verifying
/// hand to a worker: whole tiles, at least one.
const GROUP_BYTES: usize = 1 << 20;

/// What went wrong reading, writing, or decoding a tile file.
#[derive(Debug)]
pub enum TileError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not start with [`FILE_MAGIC`].
    BadMagic {
        /// The 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The file is shorter (or longer) than its header implies.
    Truncated {
        /// Byte length the header implies.
        expected: u64,
        /// Byte length actually present.
        found: u64,
    },
    /// The file header fails validation (checksum or field sanity).
    HeaderCorrupt {
        /// Human-readable description of the failed check.
        detail: String,
    },
    /// A tile header or payload fails validation.
    TileCorrupt {
        /// Index of the offending tile.
        tile: u32,
        /// Human-readable description of the failed check.
        detail: String,
    },
    /// A tile payload's checksum does not match its header.
    ChecksumMismatch {
        /// Index of the offending tile.
        tile: u32,
        /// Checksum stored in the tile header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// A trace error raised on another process, carried across the
    /// shard wire as its display text (see
    /// `delorean_shard::wire::WireFault`): the remote error's variant
    /// does not survive the trip, only its description.
    Remote {
        /// The remote error's description.
        detail: String,
    },
    /// The file (or the range being packed) contains no records.
    EmptyTrace,
    /// Invalid packing parameters, or a workload that ends short of the
    /// range being packed.
    Invalid {
        /// Human-readable description of the invalid parameter.
        detail: String,
    },
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::Io(e) => write!(f, "tile file I/O error: {e}"),
            TileError::BadMagic { found } => {
                write!(f, "not a tile file: bad magic {found:02x?}")
            }
            TileError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported tile format version {found} (expected {FORMAT_VERSION})"
                )
            }
            TileError::Truncated { expected, found } => {
                write!(
                    f,
                    "tile file truncated: header implies {expected} bytes, found {found}"
                )
            }
            TileError::HeaderCorrupt { detail } => write!(f, "tile file header corrupt: {detail}"),
            TileError::TileCorrupt { tile, detail } => write!(f, "tile {tile} corrupt: {detail}"),
            TileError::ChecksumMismatch {
                tile,
                stored,
                computed,
            } => write!(
                f,
                "tile {tile} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TileError::Remote { detail } => write!(f, "trace error on a shard worker: {detail}"),
            TileError::EmptyTrace => write!(f, "tile file contains no records"),
            TileError::Invalid { detail } => write!(f, "invalid tile parameters: {detail}"),
        }
    }
}

impl std::error::Error for TileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TileError {
    fn from(e: io::Error) -> Self {
        TileError::Io(e)
    }
}

/// 64-bit content checksum: four independent `mix64` lanes over 32-byte
/// strides, folded in lane order, then the leftover words and a
/// zero-padded tail chained onto the fold (see the module docs for the
/// exact definition). Seeded with the length so permuted-but-equal-sum
/// payloads and truncations both change the digest.
pub fn tile_checksum(bytes: &[u8]) -> u64 {
    let seed = 0x9e37_79b9_7f4a_7c15u64 ^ bytes.len() as u64;
    let mut lanes = [0u64, 1, 2, 3].map(|i| mix64(seed, i));
    let (strides, rest) = bytes.as_chunks::<32>();
    for stride in strides {
        for (lane, word) in lanes.iter_mut().zip(stride.as_chunks::<8>().0) {
            *lane = mix64(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = lanes.into_iter().fold(seed, mix64);
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        h = mix64(h, u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix64(h, u64::from_le_bytes(last));
    }
    h
}

#[inline]
pub(crate) fn read_u32(bytes: &[u8], at: usize) -> u32 {
    // lint:allow(no-unwrap): the slice is exactly 4 bytes by the range on this line
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
pub(crate) fn read_u64(bytes: &[u8], at: usize) -> u64 {
    // lint:allow(no-unwrap): the slice is exactly 8 bytes by the range on this line
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn encode_header(
    name: &str,
    mem_period: u64,
    branch: &BranchModel,
    tile_records: u32,
    record_count: u64,
) -> [u8; FILE_HEADER_BYTES] {
    let mut h = [0u8; FILE_HEADER_BYTES];
    h[0..8].copy_from_slice(&FILE_MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&tile_records.to_le_bytes());
    h[16..24].copy_from_slice(&mem_period.to_le_bytes());
    h[24..32].copy_from_slice(&record_count.to_le_bytes());
    h[32..40].copy_from_slice(&branch.period.to_le_bytes());
    h[40..44].copy_from_slice(&branch.pcs.to_le_bytes());
    h[44..48].copy_from_slice(&branch.biased_permille.to_le_bytes());
    h[48..56].copy_from_slice(&branch.seed.to_le_bytes());
    let name_bytes = name.as_bytes();
    h[56..60].copy_from_slice(&crate::cast::u32_exact(name_bytes.len() as u64).to_le_bytes());
    h[60..60 + name_bytes.len()].copy_from_slice(name_bytes);
    let sum = tile_checksum(&h[..HEADER_CHECKSUM_AT]);
    h[HEADER_CHECKSUM_AT..HEADER_CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
    h
}

/// The 40-byte header of the tile whose records start at global index
/// `first`, stamped with `payload`'s record count and checksum.
fn encode_tile_header(first: u64, mem_period: u64, payload: &[u8]) -> [u8; TILE_HEADER_BYTES] {
    let records = crate::cast::u32_exact((payload.len() / RECORD_BYTES) as u64);
    let mut h = [0u8; TILE_HEADER_BYTES];
    h[0..4].copy_from_slice(&TILE_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&records.to_le_bytes());
    h[8..16].copy_from_slice(&first.to_le_bytes());
    h[16..24].copy_from_slice(&(first * mem_period).to_le_bytes());
    h[24..32].copy_from_slice(&((first + u64::from(records)) * mem_period).to_le_bytes());
    h[32..40].copy_from_slice(&tile_checksum(payload).to_le_bytes());
    h
}

/// Reject writer parameters no reader could use.
fn check_params(
    name: &str,
    mem_period: u64,
    branch: &BranchModel,
    tile_records: u32,
) -> Result<(), TileError> {
    let detail = if mem_period == 0 {
        "mem_period must be ≥ 1".to_string()
    } else if tile_records == 0 {
        "tile_records must be ≥ 1".to_string()
    } else if branch.period == 0 {
        "branch period must be ≥ 1".to_string()
    } else if name.len() > NAME_BYTES {
        format!("name '{name}' exceeds {NAME_BYTES} bytes")
    } else {
        return Ok(());
    };
    Err(TileError::Invalid { detail })
}

/// Tiles per group: as many whole tiles as fit in [`GROUP_BYTES`], at
/// least one.
fn group_tiles(tile_records: u32) -> u32 {
    let tile_bytes = TILE_HEADER_BYTES + tile_records as usize * RECORD_BYTES;
    crate::cast::u32_exact((GROUP_BYTES / tile_bytes).max(1) as u64)
}

/// The consumer of a run of tile groups: keep `group`'s result in
/// `slot` and stop at the first error, which in group order is the
/// lowest bad group's.
fn stop_at_err(slot: &mut Result<(), TileError>, group: Result<(), TileError>) -> ControlFlow<()> {
    *slot = group;
    if slot.is_ok() {
        ControlFlow::Continue(())
    } else {
        ControlFlow::Break(())
    }
}

/// Summary of a finished pack: what [`pack_workload`] reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PackSummary {
    /// Records written.
    pub records: u64,
    /// Tiles written.
    pub tiles: u32,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// Pack the accesses of `workload` with indices in `range` into a tile
/// file at `path` (default tile size).
///
/// The packed trace is re-based to start at index 0: record `i` of the
/// file is access `range.start + i` of the source, whose `index` and
/// `icount` are implied by position and not stored. Generation streams
/// through the workload's own [`cursor`](Workload::cursor).
///
/// # Errors
///
/// [`TileError::Invalid`] for a zero `mem_period` or branch period or a
/// name longer than [`NAME_BYTES`], or if the workload's cursor ends
/// before `range.end`; [`TileError::EmptyTrace`] for an empty range;
/// [`TileError::Io`] if the file cannot be written.
pub fn pack_workload(
    workload: &dyn Workload,
    range: Range<u64>,
    path: impl AsRef<Path>,
) -> Result<PackSummary, TileError> {
    pack_workload_with(workload, range, path, DEFAULT_TILE_RECORDS)
}

/// [`pack_workload`] with an explicit records-per-tile.
///
/// The range is packed in groups of whole tiles on the host's available
/// parallelism: each worker generates its group through the workload's
/// cursor straight into the tile payloads and writes the group at its
/// fixed offset; the file header goes last. The file is byte-identical
/// at any worker count.
///
/// # Errors
///
/// As [`pack_workload`], plus [`TileError::Invalid`] for a zero
/// `tile_records`.
pub fn pack_workload_with(
    workload: &dyn Workload,
    range: Range<u64>,
    path: impl AsRef<Path>,
    tile_records: u32,
) -> Result<PackSummary, TileError> {
    pack_on(
        workload,
        range,
        path.as_ref(),
        tile_records,
        crate::host_parallelism(),
    )
}

/// [`pack_workload_with`] on at most `workers` threads.
pub(crate) fn pack_on(
    workload: &dyn Workload,
    range: Range<u64>,
    path: &Path,
    tile_records: u32,
    workers: usize,
) -> Result<PackSummary, TileError> {
    let (name, mem_period, branch) = (
        workload.name(),
        workload.mem_period(),
        workload.branch_model(),
    );
    check_params(name, mem_period, &branch, tile_records)?;
    let records = range.end.saturating_sub(range.start);
    if records == 0 {
        return Err(TileError::EmptyTrace);
    }
    let per_tile = u64::from(tile_records);
    let tiles: u32 = records
        .div_ceil(per_tile)
        .try_into()
        .map_err(|_| TileError::Invalid {
            detail: "tile count overflows u32".into(),
        })?;
    // Bytes of the tiles holding `n` records from a tile boundary on.
    let tiled_len =
        |n: u64| n.div_ceil(per_tile) * TILE_HEADER_BYTES as u64 + n * RECORD_BYTES as u64;
    let group_records = u64::from(group_tiles(tile_records)) * per_tile;
    let file = File::create(path)?;
    let mut packed = Ok(());
    run_in_order(
        workers,
        0..crate::cast::idx(records.div_ceil(group_records)),
        || (Vec::new(), Vec::with_capacity(crate::cursor::CURSOR_BATCH)),
        |(bytes, batch): &mut (Vec<u8>, Vec<MemAccess>), _, g| {
            let first = g as u64 * group_records;
            let end = (first + group_records).min(records);
            let mut cursor = workload.cursor(range.start + first..range.start + end);
            // The group is its tiles back to back, each a header and its
            // payload; every byte is overwritten, so a reused buffer
            // needs no clearing.
            bytes.resize(crate::cast::idx(tiled_len(end - first)), 0);
            let tile_bytes = TILE_HEADER_BYTES + tile_records as usize * RECORD_BYTES;
            for (tile_first, tile) in (first..end)
                .step_by(crate::cast::idx(per_tile))
                .zip(bytes.chunks_mut(tile_bytes))
            {
                let (header, payload) = tile.split_at_mut(TILE_HEADER_BYTES);
                let mut slots = payload.chunks_exact_mut(RECORD_BYTES);
                while slots.len() > 0 {
                    if cursor.fill(batch, slots.len().min(crate::cursor::CURSOR_BATCH)) == 0 {
                        return Err(TileError::Invalid {
                            detail: format!("workload cursor ended before index {end}"),
                        });
                    }
                    for (a, rec) in batch.iter().zip(&mut slots) {
                        rec[..8].copy_from_slice(&a.pc.0.to_le_bytes());
                        rec[8..].copy_from_slice(&a.addr.0.to_le_bytes());
                    }
                }
                header.copy_from_slice(&encode_tile_header(tile_first, mem_period, payload));
            }
            file.write_all_at(bytes, FILE_HEADER_BYTES as u64 + tiled_len(first))?;
            Ok(())
        },
        |_, group| stop_at_err(&mut packed, group),
    );
    packed?;
    file.write_all_at(
        &encode_header(name, mem_period, &branch, tile_records, records),
        0,
    )?;
    Ok(PackSummary {
        records,
        tiles,
        bytes: FILE_HEADER_BYTES as u64 + tiled_len(records),
    })
}

/// A memory-mapped, seekable tile file.
///
/// [`open`](TileFile::open) validates the structure (magic, version,
/// header checksum, field sanity, exact file length) but not tile
/// payloads; [`verify`](TileFile::verify) adds the full checksum pass.
#[derive(Debug)]
pub struct TileFile {
    map: Mmap,
    name: String,
    mem_period: u64,
    branch: BranchModel,
    tile_records: u32,
    record_count: u64,
    tile_count: u32,
}

impl TileFile {
    /// Open and structurally validate a tile file.
    ///
    /// # Errors
    ///
    /// [`TileError::Io`] if the file cannot be opened or mapped, and the
    /// structural variants ([`BadMagic`](TileError::BadMagic),
    /// [`UnsupportedVersion`](TileError::UnsupportedVersion),
    /// [`Truncated`](TileError::Truncated),
    /// [`HeaderCorrupt`](TileError::HeaderCorrupt),
    /// [`EmptyTrace`](TileError::EmptyTrace)) if it does not parse.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TileError> {
        let file = File::open(path)?;
        // SAFETY: packed tile files are treated as immutable once
        // written (the `Mmap::map` contract).
        let map = unsafe { Mmap::map(&file) }?;
        Self::parse(map)
    }

    fn parse(map: Mmap) -> Result<Self, TileError> {
        if map.len() < FILE_HEADER_BYTES {
            return Err(TileError::Truncated {
                expected: FILE_HEADER_BYTES as u64,
                found: map.len() as u64,
            });
        }
        let h = &map[..FILE_HEADER_BYTES];
        if h[0..8] != FILE_MAGIC {
            return Err(TileError::BadMagic {
                // lint:allow(no-unwrap): the slice is exactly 8 bytes by the range on this line
                found: h[0..8].try_into().expect("8 bytes"),
            });
        }
        let version = read_u32(h, 8);
        if version != FORMAT_VERSION {
            return Err(TileError::UnsupportedVersion { found: version });
        }
        let stored = read_u64(h, HEADER_CHECKSUM_AT);
        let computed = tile_checksum(&h[..HEADER_CHECKSUM_AT]);
        if stored != computed {
            return Err(TileError::HeaderCorrupt {
                detail: format!(
                    "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                ),
            });
        }
        let tile_records = read_u32(h, 12);
        let mem_period = read_u64(h, 16);
        let record_count = read_u64(h, 24);
        if tile_records == 0 || mem_period == 0 {
            return Err(TileError::HeaderCorrupt {
                detail: format!(
                    "tile_records {tile_records} / mem_period {mem_period} must be ≥ 1"
                ),
            });
        }
        if record_count == 0 {
            return Err(TileError::EmptyTrace);
        }
        let branch = BranchModel {
            period: read_u64(h, 32),
            pcs: read_u32(h, 40),
            biased_permille: read_u32(h, 44),
            seed: read_u64(h, 48),
        };
        // `BranchModel::branch_at` divides by the period.
        if branch.period == 0 {
            return Err(TileError::HeaderCorrupt {
                detail: "branch period must be ≥ 1".into(),
            });
        }
        let name_len = read_u32(h, 56) as usize;
        if name_len > NAME_BYTES {
            return Err(TileError::HeaderCorrupt {
                detail: format!("name length {name_len} exceeds {NAME_BYTES}"),
            });
        }
        let name = std::str::from_utf8(&h[60..60 + name_len])
            .map_err(|e| TileError::HeaderCorrupt {
                detail: format!("name is not UTF-8: {e}"),
            })?
            .to_string();
        let tile_count_u64 = record_count.div_ceil(tile_records as u64);
        let tile_count: u32 = tile_count_u64
            .try_into()
            .map_err(|_| TileError::HeaderCorrupt {
                detail: format!("tile count {tile_count_u64} overflows u32"),
            })?;
        let full_tile_bytes = TILE_HEADER_BYTES as u64 + tile_records as u64 * RECORD_BYTES as u64;
        let last_records = record_count - (tile_count_u64 - 1) * tile_records as u64;
        let expected = FILE_HEADER_BYTES as u64
            + (tile_count_u64 - 1) * full_tile_bytes
            + TILE_HEADER_BYTES as u64
            + last_records * RECORD_BYTES as u64;
        if map.len() as u64 != expected {
            return Err(TileError::Truncated {
                expected,
                found: map.len() as u64,
            });
        }
        Ok(TileFile {
            map,
            name,
            mem_period,
            branch,
            tile_records,
            record_count,
            tile_count,
        })
    }

    /// Workload name stored in the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions per access.
    pub fn mem_period(&self) -> u64 {
        self.mem_period
    }

    /// Branch model stored in the header.
    pub fn branch_model(&self) -> BranchModel {
        self.branch
    }

    /// Total records in the file.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Records per full tile.
    pub fn tile_records(&self) -> u32 {
        self.tile_records
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> u32 {
        self.tile_count
    }

    /// Mapped file size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.map.len() as u64
    }

    #[inline]
    fn tile_offset(&self, tile: u32) -> usize {
        FILE_HEADER_BYTES
            + tile as usize * (TILE_HEADER_BYTES + self.tile_records as usize * RECORD_BYTES)
    }

    #[inline]
    fn tile_len(&self, tile: u32) -> u32 {
        if tile + 1 == self.tile_count {
            crate::cast::u32_exact(self.record_count - tile as u64 * self.tile_records as u64)
        } else {
            self.tile_records
        }
    }

    /// Validate `tile`'s header and return its payload slice.
    fn tile_payload(&self, tile: u32) -> Result<&[u8], TileError> {
        debug_assert!(tile < self.tile_count);
        let at = self.tile_offset(tile);
        let h = &self.map[at..at + TILE_HEADER_BYTES];
        if read_u32(h, 0) != TILE_MAGIC {
            return Err(TileError::TileCorrupt {
                tile,
                detail: format!("bad tile magic {:#010x}", read_u32(h, 0)),
            });
        }
        let records = read_u32(h, 4);
        let first = read_u64(h, 8);
        let expected_records = self.tile_len(tile);
        let expected_first = tile as u64 * self.tile_records as u64;
        if records != expected_records || first != expected_first {
            return Err(TileError::TileCorrupt {
                tile,
                detail: format!(
                    "header says {records} records from index {first}, \
                     directory implies {expected_records} from {expected_first}"
                ),
            });
        }
        let start_instr = read_u64(h, 16);
        let end_instr = read_u64(h, 24);
        if start_instr != first * self.mem_period
            || end_instr != (first + records as u64) * self.mem_period
        {
            return Err(TileError::TileCorrupt {
                tile,
                detail: format!("instruction range {start_instr}..{end_instr} inconsistent"),
            });
        }
        let payload = &self.map[at + TILE_HEADER_BYTES
            ..at + TILE_HEADER_BYTES + crate::cast::idx(u64::from(records)) * RECORD_BYTES];
        let stored = read_u64(h, 32);
        let computed = tile_checksum(payload);
        if stored != computed {
            return Err(TileError::ChecksumMismatch {
                tile,
                stored,
                computed,
            });
        }
        Ok(payload)
    }

    /// Checksum-validate every tile (the eager integrity pass), so the
    /// warm-loop hot path pays for the checksums exactly once, at open.
    /// Groups of tiles are checked on the host's available parallelism.
    ///
    /// # Errors
    ///
    /// The [`TileError::TileCorrupt`] / [`TileError::ChecksumMismatch`]
    /// of the lowest-index bad tile, at any worker count.
    pub fn verify(&self) -> Result<(), TileError> {
        self.verify_on(crate::host_parallelism())
    }

    /// [`verify`](TileFile::verify) on at most `workers` threads.
    pub(crate) fn verify_on(&self, workers: usize) -> Result<(), TileError> {
        let group = group_tiles(self.tile_records);
        let mut verified = Ok(());
        run_in_order(
            workers,
            0..self.tile_count.div_ceil(group) as usize,
            || (),
            |(), _, g| {
                let first = crate::cast::u32_exact(g as u64) * group;
                let end = first.saturating_add(group).min(self.tile_count);
                (first..end).try_for_each(|t| self.tile_payload(t).map(drop))
            },
            |_, group| stop_at_err(&mut verified, group),
        );
        verified
    }

    /// Decode `n` records starting `within` records into `tile`,
    /// appending them to `out` with `index`/`icount` rebased to start at
    /// `base` — the validation-free hot path. Callers must have
    /// [verified](TileFile::verify) the file first.
    #[inline]
    fn decode_span(&self, tile: u32, within: usize, n: usize, base: u64, out: &mut Vec<MemAccess>) {
        let period = self.mem_period;
        out.reserve(n);
        for (i, rec) in self.span_records(tile, within, n).enumerate() {
            let k = base + i as u64;
            out.push(MemAccess {
                index: k,
                icount: k * period,
                pc: Pc(read_u64(rec, 0)),
                addr: Addr(read_u64(rec, 8)),
            });
        }
    }

    /// Like [`decode_span`](TileFile::decode_span), but appends only the
    /// cacheline of each record: one 8-byte `addr` read per record.
    #[inline]
    fn decode_span_lines(&self, tile: u32, within: usize, n: usize, out: &mut Vec<LineAddr>) {
        out.extend(
            self.span_records(tile, within, n)
                .map(|rec| Addr(read_u64(rec, 8)).line()),
        );
    }

    /// The raw records `within..within + n` of a validated `tile`.
    #[inline]
    fn span_records(&self, tile: u32, within: usize, n: usize) -> std::slice::ChunksExact<'_, u8> {
        debug_assert!(within + n <= self.tile_len(tile) as usize);
        let at = self.tile_offset(tile) + TILE_HEADER_BYTES + within * RECORD_BYTES;
        self.map[at..at + n * RECORD_BYTES].chunks_exact(RECORD_BYTES)
    }

    /// Decode the single record at position `k` (no checksum pass — the
    /// O(1) random-access path).
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ record_count`.
    #[inline]
    fn record_at(&self, k: u64) -> MemAccess {
        assert!(k < self.record_count, "record {k} out of range");
        let tile = crate::cast::u32_exact(k / self.tile_records as u64);
        let within = crate::cast::idx(k % self.tile_records as u64);
        let at = self.tile_offset(tile) + TILE_HEADER_BYTES + within * RECORD_BYTES;
        let rec = &self.map[at..at + RECORD_BYTES];
        MemAccess {
            index: k,
            icount: k * self.mem_period,
            pc: Pc(read_u64(rec, 0)),
            addr: Addr(read_u64(rec, 8)),
        }
    }
}

/// A tile file exposed as a [`Workload`]: the production ingest path.
///
/// The trace extends cyclically past its recorded length so longer
/// region plans stay valid. Sequential consumers get a [`TiledCursor`],
/// byte-identical to [`access_at`](Workload::access_at), so strategies
/// and their region-scheduler units consume it transparently.
#[derive(Clone, Debug)]
pub struct TiledTrace {
    file: Arc<TileFile>,
}

impl TiledTrace {
    /// Open a tile file and eagerly [`verify`](TileFile::verify) every
    /// checksum, so the infallible [`Workload`] surface can never
    /// observe a corrupt tile.
    ///
    /// # Errors
    ///
    /// Anything [`TileFile::open`] or [`TileFile::verify`] returns.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TileError> {
        let file = TileFile::open(path)?;
        file.verify()?;
        Ok(TiledTrace {
            file: Arc::new(file),
        })
    }

    /// The underlying tile file.
    pub fn file(&self) -> &TileFile {
        &self.file
    }

    /// Number of recorded accesses before the cyclic extension.
    pub fn recorded_len(&self) -> u64 {
        self.file.record_count()
    }
}

impl Workload for TiledTrace {
    fn name(&self) -> &str {
        self.file.name()
    }

    fn mem_period(&self) -> u64 {
        self.file.mem_period()
    }

    fn branch_model(&self) -> BranchModel {
        self.file.branch_model()
    }

    #[inline]
    fn access_at(&self, k: u64) -> MemAccess {
        let rec = self.file.record_at(k % self.file.record_count());
        MemAccess {
            index: k,
            icount: k * self.file.mem_period(),
            ..rec
        }
    }

    fn cursor<'a>(&'a self, range: Range<u64>) -> Box<dyn AccessCursor + 'a> {
        Box::new(TiledCursor::new(Arc::clone(&self.file), range))
    }
}

/// The sequential cursor over a [`TiledTrace`]: serves
/// [`fill`](AccessCursor::fill) by decoding record spans straight out
/// of the memory map into the caller's buffer — no intermediate copy,
/// and no validation in the loop: [`TiledTrace::open`] verified the
/// file.
#[derive(Debug)]
pub struct TiledCursor {
    file: Arc<TileFile>,
    next: u64,
    end: u64,
}

impl TiledCursor {
    /// A cursor over the verified `file`'s accesses with
    /// `index ∈ range` (cyclic past the recorded length).
    pub(crate) fn new(file: Arc<TileFile>, range: Range<u64>) -> Self {
        TiledCursor {
            file,
            next: range.start,
            end: range.end.max(range.start),
        }
    }
}

impl AccessCursor for TiledCursor {
    fn position(&self) -> u64 {
        self.next
    }

    fn end(&self) -> u64 {
        self.end
    }

    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
        // Decode rebases index/icount from `next` directly, so the
        // cyclic wrap needs no separate fix-up pass.
        self.walk(out, max, |file, tile, within, take, base, out| {
            file.decode_span(tile, within, take, base, out)
        })
    }

    /// Reads only the `addr` word of each 16-byte record.
    fn fill_lines(&mut self, out: &mut Vec<LineAddr>, max: usize) -> usize {
        self.walk(out, max, |file, tile, within, take, _, out| {
            file.decode_span_lines(tile, within, take, out)
        })
    }
}

impl TiledCursor {
    /// The tile walk shared by both outputs: hands each in-tile span to
    /// `decode(file, tile, within, take, base, out)`.
    #[inline(always)]
    fn walk<T>(
        &mut self,
        out: &mut Vec<T>,
        max: usize,
        decode: impl Fn(&TileFile, u32, usize, usize, u64, &mut Vec<T>),
    ) -> usize {
        out.clear();
        let count = self.file.record_count();
        let tile_records = self.file.tile_records() as u64;
        let mut produced = 0usize;
        while produced < max && self.next < self.end {
            let rec = self.next % count;
            let tile = (rec / tile_records) as u32;
            let within = crate::cast::idx(rec - tile as u64 * tile_records);
            let take = (self.file.tile_len(tile) as usize - within)
                .min(max - produced)
                .min((self.end - self.next).min(usize::MAX as u64) as usize);
            decode(&self.file, tile, within, take, self.next, out);
            produced += take;
            self.next += take as u64;
        }
        produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec_workload, Scale, WorkloadExt};
    use std::path::PathBuf;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("delorean-tile-{}-{tag}.dlt", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_every_record() {
        let w = spec_workload("hmmer", Scale::tiny(), 3).unwrap();
        let path = temp("roundtrip");
        let summary = pack_workload_with(&w, 0..10_000, &path, 256).unwrap();
        assert_eq!(summary.records, 10_000);
        assert_eq!(summary.tiles, 10_000u32.div_ceil(256));
        let t = TiledTrace::open(&path).unwrap();
        assert_eq!(t.name(), "hmmer");
        assert_eq!(t.mem_period(), w.mem_period());
        assert_eq!(t.branch_model(), w.branch_model());
        assert_eq!(t.recorded_len(), 10_000);
        for k in [0u64, 1, 255, 256, 257, 5_000, 9_999] {
            assert_eq!(t.access_at(k), w.access_at(k), "index {k}");
        }
        // Cyclic extension: the record wraps, the position stays global.
        let wrapped = t.access_at(10_003);
        assert_eq!(wrapped.index, 10_003);
        assert_eq!(wrapped.icount, 10_003 * w.mem_period());
        assert_eq!(wrapped.addr, w.access_at(3).addr);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cursors_match_access_at_across_tile_boundaries_and_wrap() {
        let w = spec_workload("mcf", Scale::tiny(), 9).unwrap();
        let path = temp("cursors");
        pack_workload_with(&w, 0..1_000, &path, 128).unwrap();
        let t = TiledTrace::open(&path).unwrap();
        for range in [0..1_000u64, 100..137, 120..130, 900..2_300, 5..5] {
            let mut cur = t.cursor(range.clone());
            let mut buf = Vec::new();
            let mut k = range.start;
            while cur.fill(&mut buf, 97) > 0 {
                for a in &buf {
                    assert_eq!(*a, t.access_at(k), "index {k}");
                    k += 1;
                }
            }
            assert_eq!(k, range.end.max(range.start));
            assert_eq!(cur.position(), cur.end());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_structural_damage() {
        let w = spec_workload("lbm", Scale::tiny(), 1).unwrap();
        let path = temp("damage");
        pack_workload_with(&w, 0..500, &path, 64).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = pristine.clone();
        bad[0] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            TileFile::open(&path),
            Err(TileError::BadMagic { .. })
        ));

        // Unsupported versions, the retired 17-byte-record format 1 and
        // the single-chain-checksum format 2 among them (checksum
        // re-stamped so the version check is what fires).
        for version in [1u32, 2, 99] {
            let mut bad = pristine.clone();
            bad[8..12].copy_from_slice(&version.to_le_bytes());
            let sum = tile_checksum(&bad[..HEADER_CHECKSUM_AT]);
            bad[HEADER_CHECKSUM_AT..HEADER_CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            assert!(matches!(
                TileFile::open(&path),
                Err(TileError::UnsupportedVersion { found }) if found == version
            ));
        }

        // Header bit-flip → checksum mismatch.
        let mut bad = pristine.clone();
        bad[24] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            TileFile::open(&path),
            Err(TileError::HeaderCorrupt { .. })
        ));

        // A zero branch period (checksum re-stamped): `branch_at` would
        // divide by it.
        let mut bad = pristine.clone();
        bad[32..40].copy_from_slice(&0u64.to_le_bytes());
        let sum = tile_checksum(&bad[..HEADER_CHECKSUM_AT]);
        bad[HEADER_CHECKSUM_AT..HEADER_CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            TileFile::open(&path),
            Err(TileError::HeaderCorrupt { detail }) if detail.contains("branch period")
        ));

        // Short read.
        std::fs::write(&path, &pristine[..pristine.len() - 10]).unwrap();
        let err = TileFile::open(&path).unwrap_err();
        assert!(matches!(err, TileError::Truncated { .. }), "{err}");
        assert!(!err.to_string().is_empty());

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn payload_corruption_is_typed_not_a_panic() {
        let w = spec_workload("lbm", Scale::tiny(), 1).unwrap();
        let path = temp("payload");
        pack_workload_with(&w, 0..500, &path, 64).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of tile 2's payload.
        let tile2 = FILE_HEADER_BYTES + 2 * (TILE_HEADER_BYTES + 64 * RECORD_BYTES);
        bytes[tile2 + TILE_HEADER_BYTES + 30] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        // Eager open reports it.
        assert!(matches!(
            TiledTrace::open(&path),
            Err(TileError::ChecksumMismatch { tile: 2, .. })
        ));

        std::fs::remove_file(&path).unwrap();
    }

    /// `inner`'s accesses under another name, memory period and branch
    /// period.
    struct Relabelled<'w> {
        inner: &'w dyn Workload,
        name: String,
        mem_period: u64,
        branch_period: u64,
    }

    impl Workload for Relabelled<'_> {
        fn name(&self) -> &str {
            &self.name
        }

        fn mem_period(&self) -> u64 {
            self.mem_period
        }

        fn access_at(&self, k: u64) -> MemAccess {
            self.inner.access_at(k)
        }

        fn branch_model(&self) -> BranchModel {
            BranchModel {
                period: self.branch_period,
                ..self.inner.branch_model()
            }
        }
    }

    #[test]
    fn packing_rejects_invalid_parameters_and_empty_ranges() {
        let mcf = spec_workload("mcf", Scale::tiny(), 5).unwrap();
        let (period, branch) = (mcf.mem_period(), mcf.branch_model().period);
        let relabel = |name: &str, mem_period, branch_period| Relabelled {
            inner: &mcf,
            name: name.to_string(),
            mem_period,
            branch_period,
        };
        let path = temp("invalid");
        let long = "n".repeat(NAME_BYTES + 1);
        for (w, tile_records, says) in [
            (relabel("x", 0, branch), 64, "mem_period must be"),
            (relabel("x", period, branch), 0, "tile_records must be"),
            (relabel("x", period, 0), 64, "branch period must be"),
            (relabel(&long, period, branch), 64, "exceeds 32 bytes"),
        ] {
            match pack_workload_with(&w, 0..100, &path, tile_records) {
                Err(TileError::Invalid { detail }) => assert!(detail.contains(says), "{detail}"),
                other => panic!("{says}: unexpected {other:?}"),
            }
            assert!(!path.exists(), "{says}: a rejected pack creates no file");
        }
        for range in [0..0, 100..100] {
            assert!(matches!(
                pack_workload_with(&mcf, range.clone(), &path, 64),
                Err(TileError::EmptyTrace)
            ));
            assert!(!path.exists(), "{range:?}: an empty pack creates no file");
        }
        // A name of exactly `NAME_BYTES` packs and reopens.
        let full = relabel(&"n".repeat(NAME_BYTES), period, branch);
        pack_workload_with(&full, 0..100, &path, 64).unwrap();
        assert_eq!(TiledTrace::open(&path).unwrap().name(), full.name());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn warm_loops_see_identical_streams() {
        // The consumer-level contract: for_each_access over a tiled
        // trace equals the source workload's stream, batch splits and
        // tile boundaries notwithstanding.
        let w = spec_workload("povray", Scale::tiny(), 4).unwrap();
        let path = temp("warmloop");
        pack_workload_with(&w, 0..3_000, &path, 100).unwrap();
        let t = TiledTrace::open(&path).unwrap();
        let mut source = Vec::new();
        w.for_each_access(50..2_950, |a| source.push(*a));
        let mut tiled = Vec::new();
        t.for_each_access(50..2_950, |a| tiled.push(*a));
        assert_eq!(source, tiled);
        std::fs::remove_file(&path).unwrap();
    }

    /// `tile_checksum` as the module docs define it, one word at a time.
    fn documented_checksum(bytes: &[u8]) -> u64 {
        let seed = 0x9e37_79b9_7f4a_7c15u64 ^ bytes.len() as u64;
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len().div_ceil(8) * 8, 0);
        let words: Vec<u64> = padded
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let strided = bytes.len() / 32 * 4;
        let mut lanes: Vec<u64> = (0..4).map(|i| mix64(seed, i)).collect();
        for (k, &w) in words[..strided].iter().enumerate() {
            lanes[k % 4] = mix64(lanes[k % 4], w);
        }
        let h = lanes.iter().fold(seed, |h, &l| mix64(h, l));
        words[strided..].iter().fold(h, |h, &w| mix64(h, w))
    }

    fn sample_bytes(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (mix64(0xc0ffee, i) & 0xff) as u8)
            .collect()
    }

    #[test]
    fn checksum_matches_its_documented_definition() {
        for len in (0..=200).chain([4_096, 65_536 + 13]) {
            let bytes = sample_bytes(len);
            assert_eq!(
                tile_checksum(&bytes),
                documented_checksum(&bytes),
                "len {len}"
            );
        }
    }

    #[test]
    fn checksum_sees_swaps_flips_and_appended_zeros() {
        let word_swapped = |a: usize, b: usize| {
            let mut bytes = sample_bytes(128);
            for i in 0..8 {
                bytes.swap(a * 8 + i, b * 8 + i);
            }
            bytes
        };
        let base = tile_checksum(&sample_bytes(128));
        // Words 0 and 4 feed lane 0 in consecutive strides; words 0 and 1
        // (and 2 and 7) feed different lanes.
        for (a, b) in [(0, 4), (1, 13), (0, 1), (2, 7), (3, 15)] {
            assert_ne!(
                tile_checksum(&word_swapped(a, b)),
                base,
                "swap of words {a} and {b}"
            );
        }
        for len in 0..=72usize {
            let bytes = sample_bytes(len);
            let sum = tile_checksum(&bytes);
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(tile_checksum(&flipped), sum, "len {len}, bit {bit}");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(tile_checksum(&longer), sum, "len {len} + a zero byte");
        }
    }

    #[test]
    fn packed_files_are_byte_identical_at_every_worker_count() {
        let w = spec_workload("mcf", Scale::tiny(), 5).unwrap();
        // Nonzero starts, short last tiles, and tile counts the group
        // size does not divide (985 tiles of 64 records, or 15 of 4096,
        // to a group); the last case is one short tile. Each file's
        // `tile_checksum` digest pins its bytes.
        let g64 = u64::from(group_tiles(64));
        let g4096 = u64::from(group_tiles(4096));
        assert_eq!((g64, g4096), (985, 15));
        for (tile_records, range, digest) in [
            (
                64u32,
                1_000..1_000 + (2 * g64 + 7) * 64 + 13,
                0xbe73_e4be_b083_25a6,
            ),
            (
                4_096,
                5..5 + (3 * g4096 + 4) * 4_096 + 100,
                0x7169_d687_a73d_a451,
            ),
            (4_096, 17..117, 0xb83d_6c12_3136_bfa1),
        ] {
            let path = temp(&format!("bytes-{tile_records}-{}", range.start));
            let mut first = None;
            for workers in [1, 2, 3] {
                let summary = pack_on(&w, range.clone(), &path, tile_records, workers).unwrap();
                let got = std::fs::read(&path).unwrap();
                assert_eq!(
                    tile_checksum(&got),
                    digest,
                    "tile {tile_records}, {workers} workers"
                );
                let first = first.get_or_insert_with(|| got.clone());
                assert!(
                    got == *first,
                    "tile {tile_records}, {workers} workers: bytes differ"
                );
                assert_eq!(summary.bytes, got.len() as u64);
                assert_eq!(summary.records, range.end - range.start);
                assert_eq!(summary.tiles, TileFile::open(&path).unwrap().tile_count());
            }
            // Record by record, the file holds the range re-based to 0.
            let tiled = TiledTrace::open(&path).unwrap();
            assert_eq!(tiled.recorded_len(), range.end - range.start);
            for (k, src) in (range.clone()).enumerate() {
                let src = w.access_at(src);
                let got = tiled.access_at(k as u64);
                assert_eq!(
                    (got.index, got.icount, got.pc, got.addr),
                    (k as u64, k as u64 * w.mem_period(), src.pc, src.addr),
                    "tile {tile_records}, record {k}"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn verify_names_the_lowest_bad_tile_at_every_worker_count() {
        let w = spec_workload("lbm", Scale::tiny(), 2).unwrap();
        let path = temp("lowest");
        let g = group_tiles(64);
        pack_workload_with(&w, 0..u64::from(3 * g) * 64, &path, 64).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let tile_at =
            |t: u32| FILE_HEADER_BYTES + t as usize * (TILE_HEADER_BYTES + 64 * RECORD_BYTES);
        let payload_flip =
            |bytes: &mut Vec<u8>, t: u32| bytes[tile_at(t) + TILE_HEADER_BYTES + 9] ^= 0x04;
        let magic_flip = |bytes: &mut Vec<u8>, t: u32| bytes[tile_at(t)] ^= 0x01;

        // Two bad tiles in different groups, the lower one a checksum
        // mismatch; then two in one group, the lower one a bad header.
        let mut apart = pristine.clone();
        payload_flip(&mut apart, g + 5);
        magic_flip(&mut apart, 2 * g + 1);
        let mut together = pristine.clone();
        magic_flip(&mut together, 3);
        payload_flip(&mut together, g - 1);
        let named = |r: Result<(), TileError>| match r {
            Err(TileError::ChecksumMismatch { tile, .. }) => ("checksum", tile),
            Err(TileError::TileCorrupt { tile, .. }) => ("header", tile),
            other => panic!("unexpected {other:?}"),
        };
        for (bytes, lowest) in [(apart, ("checksum", g + 5)), (together, ("header", 3))] {
            std::fs::write(&path, &bytes).unwrap();
            let file = TileFile::open(&path).unwrap();
            for workers in [1, 2] {
                assert_eq!(named(file.verify_on(workers)), lowest, "{workers} workers");
            }
        }
        std::fs::write(&path, &pristine).unwrap();
        for workers in [1, 2, 3] {
            TileFile::open(&path).unwrap().verify_on(workers).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A workload whose cursors stop at index `ends`, whatever range
    /// they are asked for.
    struct EndsEarly<W> {
        inner: W,
        ends: u64,
    }

    impl<W: Workload> Workload for EndsEarly<W> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn mem_period(&self) -> u64 {
            self.inner.mem_period()
        }

        fn access_at(&self, k: u64) -> MemAccess {
            self.inner.access_at(k)
        }

        fn branch_model(&self) -> BranchModel {
            self.inner.branch_model()
        }

        fn cursor<'a>(&'a self, range: Range<u64>) -> Box<dyn AccessCursor + 'a> {
            let end = range.end.min(self.ends).max(range.start);
            self.inner.cursor(range.start..end)
        }
    }

    #[test]
    fn a_cursor_that_ends_early_names_the_lowest_short_group() {
        let mcf = spec_workload("mcf", Scale::tiny(), 5).unwrap();
        let group_records = u64::from(group_tiles(64)) * 64;
        let path = temp("short");
        // Every group from the one holding `ends` on comes up short; the
        // error names the lowest of them by its end index.
        for (ends, lowest_end) in [
            (group_records + 100, 2 * group_records),
            (10, group_records),
        ] {
            let w = EndsEarly { inner: &mcf, ends };
            for workers in [1, 2, 3] {
                match pack_on(&w, 0..3 * group_records + 5, &path, 64, workers) {
                    Err(TileError::Invalid { detail }) => assert!(
                        detail.ends_with(&format!("before index {lowest_end}")),
                        "{workers} workers: {detail}"
                    ),
                    other => panic!("{workers} workers: unexpected {other:?}"),
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
