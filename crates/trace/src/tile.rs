//! On-disk trace tiles: the production trace-ingest path.
//!
//! The synthetic suite generates accesses with per-access pattern math.
//! This module materializes them: a compact binary **tile file** on
//! disk, memory-mapped on open, whose decoded tiles feed the warm loops
//! with plain `memcpy`s, so access *generation* stops being a cost at
//! all. It is the only materialized trace format: a packed synthetic
//! workload ([`pack_workload`]) and a captured trace pushed record by
//! record ([`TileFileWriter::push`]) are both tile files.
//!
//! # File format (version 2)
//!
//! ```text
//! file   := file-header tile*
//! file-header (128 B, little-endian):
//!     magic       [u8;8] = "DLRNTILE"
//!     version     u32    = 2
//!     tile_records u32          records per full tile
//!     mem_period  u64
//!     record_count u64          total records in the file
//!     branch      u64+u32+u32+u64   BranchModel{period,pcs,biased_permille,seed}
//!     name_len    u32, name [u8;32]  workload name (UTF-8, ≤ 32 bytes)
//!     reserved    [u8;28]       zeros
//!     checksum    u64           over bytes 0..120
//! tile   := tile-header payload
//! tile-header (40 B):
//!     magic       u32 = "TILE"
//!     records     u32           ≤ tile_records; short only in the last tile
//!     first_index u64           global index of the first record
//!     start_instr u64           icount of the first record
//!     end_instr   u64           icount one past the last record
//!     checksum    u64           over the payload bytes
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
use crate::cursor::AccessCursor;
use crate::rng::mix64;
use crate::types::{Addr, LineAddr, MemAccess, Pc};
use crate::Workload;
use memmap2::Mmap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic: the first 8 bytes of every tile file.
pub const FILE_MAGIC: [u8; 8] = *b"DLRNTILE";
/// Per-tile magic ("TILE", little-endian).
pub const TILE_MAGIC: u32 = u32::from_le_bytes(*b"TILE");
/// Format version this module reads and writes.
pub const FORMAT_VERSION: u32 = 2;
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
    /// Invalid construction parameters (writer side).
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

/// 64-bit content checksum: `mix64`-folded over 8-byte words (plus a
/// zero-padded tail), seeded with the length so permuted-but-equal-sum
/// payloads and truncations both change the digest.
pub fn tile_checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        // lint:allow(no-unwrap): chunks_exact(8) yields exactly 8-byte slices, so the array conversion is infallible
        h = mix64(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
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

/// Summary of a finished pack: what [`TileFileWriter::finish`] and
/// [`pack_workload`] report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PackSummary {
    /// Records written.
    pub records: u64,
    /// Tiles written.
    pub tiles: u32,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// Streaming writer producing a tile file record by record.
///
/// Records are buffered into tile payloads and flushed with their header
/// (record count, instruction range, checksum) as each tile fills; the
/// file header is patched with the final record count on
/// [`finish`](TileFileWriter::finish).
#[derive(Debug)]
pub struct TileFileWriter {
    out: BufWriter<File>,
    path: PathBuf,
    name: String,
    mem_period: u64,
    branch: BranchModel,
    tile_records: u32,
    payload: Vec<u8>,
    tile_first_index: u64,
    total: u64,
    tiles: u32,
}

impl TileFileWriter {
    /// Create a tile file at `path` with the default tile size.
    ///
    /// # Errors
    ///
    /// [`TileError::Invalid`] for a zero `mem_period` or a name longer
    /// than [`NAME_BYTES`]; [`TileError::Io`] if the file cannot be
    /// created.
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        mem_period: u64,
        branch: BranchModel,
    ) -> Result<Self, TileError> {
        Self::create_with(path, name, mem_period, branch, DEFAULT_TILE_RECORDS)
    }

    /// Create a tile file with an explicit records-per-tile.
    ///
    /// # Errors
    ///
    /// As [`create`](Self::create), plus [`TileError::Invalid`] for a
    /// zero `tile_records`.
    pub fn create_with(
        path: impl AsRef<Path>,
        name: &str,
        mem_period: u64,
        branch: BranchModel,
        tile_records: u32,
    ) -> Result<Self, TileError> {
        if mem_period == 0 {
            return Err(TileError::Invalid {
                detail: "mem_period must be ≥ 1".into(),
            });
        }
        if tile_records == 0 {
            return Err(TileError::Invalid {
                detail: "tile_records must be ≥ 1".into(),
            });
        }
        if name.len() > NAME_BYTES {
            return Err(TileError::Invalid {
                detail: format!("name '{name}' exceeds {NAME_BYTES} bytes"),
            });
        }
        let path = path.as_ref().to_path_buf();
        let mut out = BufWriter::new(File::create(&path)?);
        // Placeholder header; the record count is patched in `finish`.
        out.write_all(&encode_header(name, mem_period, &branch, tile_records, 0))?;
        Ok(TileFileWriter {
            out,
            path,
            name: name.to_string(),
            mem_period,
            branch,
            tile_records,
            payload: Vec::with_capacity(tile_records as usize * RECORD_BYTES),
            tile_first_index: 0,
            total: 0,
            tiles: 0,
        })
    }

    /// Path this writer is producing.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record.
    ///
    /// # Errors
    ///
    /// [`TileError::Io`] if flushing a completed tile fails.
    pub fn push(&mut self, pc: Pc, addr: Addr) -> Result<(), TileError> {
        self.payload.extend_from_slice(&pc.0.to_le_bytes());
        self.payload.extend_from_slice(&addr.0.to_le_bytes());
        self.total += 1;
        if self.payload.len() >= self.tile_records as usize * RECORD_BYTES {
            self.flush_tile()?;
        }
        Ok(())
    }

    fn flush_tile(&mut self) -> Result<(), TileError> {
        let records = (self.payload.len() / RECORD_BYTES) as u32;
        if records == 0 {
            return Ok(());
        }
        let first = self.tile_first_index;
        let mut h = [0u8; TILE_HEADER_BYTES];
        h[0..4].copy_from_slice(&TILE_MAGIC.to_le_bytes());
        h[4..8].copy_from_slice(&records.to_le_bytes());
        h[8..16].copy_from_slice(&first.to_le_bytes());
        h[16..24].copy_from_slice(&(first * self.mem_period).to_le_bytes());
        h[24..32].copy_from_slice(&((first + records as u64) * self.mem_period).to_le_bytes());
        h[32..40].copy_from_slice(&tile_checksum(&self.payload).to_le_bytes());
        self.out.write_all(&h)?;
        self.out.write_all(&self.payload)?;
        self.payload.clear();
        self.tile_first_index = first + records as u64;
        self.tiles = self
            .tiles
            .checked_add(1)
            .ok_or_else(|| TileError::Invalid {
                detail: "tile count overflows u32".into(),
            })?;
        Ok(())
    }

    /// Flush the final (possibly short) tile, patch the header with the
    /// record count, and close the file.
    ///
    /// # Errors
    ///
    /// [`TileError::EmptyTrace`] if no records were pushed;
    /// [`TileError::Io`] on write failure.
    pub fn finish(mut self) -> Result<PackSummary, TileError> {
        if self.total == 0 {
            return Err(TileError::EmptyTrace);
        }
        self.flush_tile()?;
        self.out.flush()?;
        let mut file = self
            .out
            .into_inner()
            .map_err(|e| TileError::Io(io::Error::other(e.to_string())))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&encode_header(
            &self.name,
            self.mem_period,
            &self.branch,
            self.tile_records,
            self.total,
        ))?;
        let bytes = file.seek(SeekFrom::End(0))?;
        Ok(PackSummary {
            records: self.total,
            tiles: self.tiles,
            bytes,
        })
    }
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
/// [`TileError::EmptyTrace`] for an empty range, plus anything
/// [`TileFileWriter`] can return.
pub fn pack_workload(
    workload: &dyn Workload,
    range: Range<u64>,
    path: impl AsRef<Path>,
) -> Result<PackSummary, TileError> {
    pack_workload_with(workload, range, path, DEFAULT_TILE_RECORDS)
}

/// [`pack_workload`] with an explicit records-per-tile.
///
/// # Errors
///
/// As [`pack_workload`].
pub fn pack_workload_with(
    workload: &dyn Workload,
    range: Range<u64>,
    path: impl AsRef<Path>,
    tile_records: u32,
) -> Result<PackSummary, TileError> {
    let mut w = TileFileWriter::create_with(
        path,
        workload.name(),
        workload.mem_period(),
        workload.branch_model(),
        tile_records,
    )?;
    let mut cursor = workload.cursor(range);
    let mut buf = Vec::with_capacity(crate::cursor::CURSOR_BATCH);
    while cursor.fill(&mut buf, crate::cursor::CURSOR_BATCH) > 0 {
        for a in &buf {
            w.push(a.pc, a.addr)?;
        }
    }
    w.finish()
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
    ///
    /// # Errors
    ///
    /// The first [`TileError::TileCorrupt`] /
    /// [`TileError::ChecksumMismatch`] encountered.
    pub fn verify(&self) -> Result<(), TileError> {
        for t in 0..self.tile_count {
            self.tile_payload(t)?;
        }
        Ok(())
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

        // Unsupported versions, the retired 17-byte-record format 1
        // among them (checksum re-stamped so the version check is what
        // fires).
        for version in [1u32, 99] {
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

    #[test]
    fn writer_rejects_invalid_parameters_and_empty_traces() {
        let path = temp("invalid");
        assert!(matches!(
            TileFileWriter::create(&path, "x", 0, BranchModel::new(1)),
            Err(TileError::Invalid { .. })
        ));
        assert!(matches!(
            TileFileWriter::create_with(&path, "x", 1, BranchModel::new(1), 0),
            Err(TileError::Invalid { .. })
        ));
        let long = "n".repeat(NAME_BYTES + 1);
        assert!(matches!(
            TileFileWriter::create(&path, &long, 1, BranchModel::new(1)),
            Err(TileError::Invalid { .. })
        ));
        let w = TileFileWriter::create(&path, "x", 1, BranchModel::new(1)).unwrap();
        assert!(matches!(w.finish(), Err(TileError::EmptyTrace)));
        let _ = std::fs::remove_file(&path);
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
}
