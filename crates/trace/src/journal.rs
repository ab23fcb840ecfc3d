//! The durable run journal: an append-only, checksummed record of
//! completed units of work, with torn-tail recovery.
//!
//! A long sweep writes one entry per completed unit (the bench layer
//! journals each finished strategy×workload cell's reduced report);
//! after a crash or kill, reopening the journal yields the longest
//! valid prefix of completed entries, and the runtime re-executes only
//! what is missing. The format reuses the tile file's idioms
//! ([`crate::tile::tile_checksum`] content digests,
//! a fixed checksummed little-endian header):
//!
//! ```text
//! file   := header entry*                      (little-endian)
//! header (64 B): magic "DLRNJRNL", version u32 (= 2), reserved u32,
//!     tag u64 (caller-defined binding), 32 B reserved,
//!     checksum u64 over bytes 0..56
//! entry  := len u32, kind u32, checksum u64 (over payload),
//!     payload (len B)
//! ```
//!
//! Version 2 is version 1 with the four-lane [`crate::tile::tile_checksum`]
//! of tile format version 3; a version-1 journal is rejected with
//! [`JournalError::UnsupportedVersion`] before any checksum is read.
//!
//! **Recovery semantics.** Structural damage to the header (bad magic,
//! version, checksum) is a hard [`JournalError`] — the file is not a
//! journal, or not ours (`tag` mismatch). Damage *past* the header —
//! a truncated final entry from a mid-append kill, or a bit flip in
//! any entry — ends the valid prefix at the last intact entry:
//! [`JournalReader::open`] returns the prefix with
//! [`torn`](JournalReader::torn) set, never an error and never a
//! corrupt payload. Entries after a damaged one are dropped even if
//! intact (their order in the prefix can no longer be trusted);
//! re-executing them costs work, not correctness.
//!
//! Journal appends are a named fault-injection site
//! ([`FaultSite::JournalWrite`]) that surfaces as a typed
//! [`JournalError::Injected`] — a failed append must never unwind
//! through (or corrupt) the run it is recording.

use crate::fault::{self, FaultSite, InjectedFault};
use crate::tile::{read_u32, read_u64, tile_checksum};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Journal file magic: the first 8 bytes.
pub const JOURNAL_MAGIC: [u8; 8] = *b"DLRNJRNL";
/// Format version this module reads and writes.
pub const JOURNAL_VERSION: u32 = 2;
/// Fixed header size in bytes.
pub const JOURNAL_HEADER_BYTES: usize = 64;
/// Fixed per-entry header size in bytes (len + kind + checksum).
pub const ENTRY_HEADER_BYTES: usize = 16;

/// Offset of the header checksum (it checks bytes `0..this`).
const HEADER_CHECKSUM_AT: usize = 56;

/// What went wrong opening, reading, or appending to a journal.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not start with [`JOURNAL_MAGIC`].
    BadMagic {
        /// The 8 bytes actually found.
        found: [u8; 8],
    },
    /// The journal's format version is not [`JOURNAL_VERSION`].
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The header fails validation (truncation or checksum).
    HeaderCorrupt {
        /// Human-readable description of the failed check.
        detail: String,
    },
    /// The journal belongs to a different run configuration.
    TagMismatch {
        /// Tag the caller expected.
        expected: u64,
        /// Tag stored in the journal.
        found: u64,
    },
    /// An injected fault aborted the append (fault harness only).
    Injected {
        /// Entry sequence number the fault fired on.
        seq: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic { found } => {
                write!(f, "not a journal file: bad magic {found:02x?}")
            }
            JournalError::UnsupportedVersion { found } => write!(
                f,
                "unsupported journal version {found} (expected {JOURNAL_VERSION})"
            ),
            JournalError::HeaderCorrupt { detail } => {
                write!(f, "journal header corrupt: {detail}")
            }
            JournalError::TagMismatch { expected, found } => write!(
                f,
                "journal tag mismatch: expected {expected:#018x}, found {found:#018x}"
            ),
            JournalError::Injected { seq } => {
                write!(f, "injected journal-write fault at entry {seq}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One decoded journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Caller-defined entry kind.
    pub kind: u32,
    /// Verbatim payload bytes.
    pub payload: Vec<u8>,
}

fn encode_journal_header(tag: u64) -> [u8; JOURNAL_HEADER_BYTES] {
    let mut h = [0u8; JOURNAL_HEADER_BYTES];
    h[0..8].copy_from_slice(&JOURNAL_MAGIC);
    h[8..12].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    h[16..24].copy_from_slice(&tag.to_le_bytes());
    let sum = tile_checksum(&h[..HEADER_CHECKSUM_AT]);
    h[HEADER_CHECKSUM_AT..HEADER_CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Encode the entry header that precedes `payload` as a `kind` entry:
/// `len u32, kind u32, checksum u64` (over the payload). Journal
/// entries on disk and shard wire frames share this header.
pub fn encode_entry_header(kind: u32, payload: &[u8]) -> [u8; ENTRY_HEADER_BYTES] {
    let mut head = [0u8; ENTRY_HEADER_BYTES];
    head[0..4].copy_from_slice(&crate::cast::u32_exact(payload.len() as u64).to_le_bytes());
    head[4..8].copy_from_slice(&kind.to_le_bytes());
    head[8..16].copy_from_slice(&tile_checksum(payload).to_le_bytes());
    head
}

/// Parse an [`encode_entry_header`] header into
/// `(len, kind, checksum)`.
pub fn parse_entry_header(head: &[u8; ENTRY_HEADER_BYTES]) -> (u32, u32, u64) {
    (read_u32(head, 0), read_u32(head, 4), read_u64(head, 8))
}

/// Append-only journal writer.
///
/// Every [`append`](JournalWriter::append) writes one complete entry
/// (header + checksummed payload) straight to the file, so a killed
/// process loses at most the entry being written — which the reader's
/// torn-tail recovery drops cleanly.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    seq: u64,
}

impl JournalWriter {
    /// Create (or truncate) a journal at `path` bound to `tag`.
    pub fn create(path: &Path, tag: u64) -> Result<JournalWriter, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&encode_journal_header(tag))?;
        file.flush()?;
        Ok(JournalWriter { file, seq: 0 })
    }

    /// Reopen `path` for appending after validating it against `tag`,
    /// truncating any torn tail. Returns the writer positioned after
    /// the valid prefix plus the prefix's decoded entries.
    pub fn resume(
        path: &Path,
        tag: u64,
    ) -> Result<(JournalWriter, Vec<JournalEntry>), JournalError> {
        let reader = JournalReader::open(path, Some(tag))?;
        let valid = reader.valid_bytes;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid)?;
        file.seek(SeekFrom::End(0))?;
        Ok((
            JournalWriter {
                file,
                seq: reader.entries.len() as u64,
            },
            reader.entries,
        ))
    }

    /// Entries written (or resumed past) so far.
    pub fn entries(&self) -> u64 {
        self.seq
    }

    /// Append one entry. The injected-fault site
    /// [`FaultSite::JournalWrite`] fires here as a typed error before
    /// any byte is written, so a faulted append leaves the journal
    /// exactly as it was.
    pub fn append(&mut self, kind: u32, payload: &[u8]) -> Result<(), JournalError> {
        let seq = self.seq;
        match fault::injected_failure(FaultSite::JournalWrite, seq) {
            Some(InjectedFault::Delay { spins }) => {
                for _ in 0..spins {
                    std::thread::yield_now();
                }
            }
            Some(_) => return Err(JournalError::Injected { seq }),
            None => {}
        }
        self.file.write_all(&encode_entry_header(kind, payload))?;
        self.file.write_all(payload)?;
        self.file.flush()?;
        self.seq = seq + 1;
        Ok(())
    }
}

/// The decoded valid prefix of a journal file.
#[derive(Debug)]
pub struct JournalReader {
    /// Caller-defined tag stored in the header.
    pub tag: u64,
    /// The longest valid prefix of entries.
    pub entries: Vec<JournalEntry>,
    /// `true` if damage (truncation or a corrupt entry) ended the
    /// prefix before the end of the file.
    pub torn: bool,
    /// Byte offset at which the valid prefix ends (where
    /// [`JournalWriter::resume`] truncates to).
    pub valid_bytes: u64,
}

impl JournalReader {
    /// Read and validate the journal at `path`. Header damage and a
    /// tag mismatch (when `expected_tag` is given) are hard errors;
    /// entry damage ends the prefix with [`torn`](Self::torn) set.
    pub fn open(path: &Path, expected_tag: Option<u64>) -> Result<JournalReader, JournalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < JOURNAL_HEADER_BYTES {
            return Err(JournalError::HeaderCorrupt {
                detail: format!(
                    "file is {} bytes, shorter than the {JOURNAL_HEADER_BYTES}-byte header",
                    bytes.len()
                ),
            });
        }
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&bytes[0..8]);
        if magic != JOURNAL_MAGIC {
            return Err(JournalError::BadMagic { found: magic });
        }
        let version = read_u32(&bytes, 8);
        if version != JOURNAL_VERSION {
            return Err(JournalError::UnsupportedVersion { found: version });
        }
        let stored = read_u64(&bytes, HEADER_CHECKSUM_AT);
        let computed = tile_checksum(&bytes[..HEADER_CHECKSUM_AT]);
        if stored != computed {
            return Err(JournalError::HeaderCorrupt {
                detail: format!("checksum stored {stored:#018x}, computed {computed:#018x}"),
            });
        }
        let tag = read_u64(&bytes, 16);
        if let Some(expected) = expected_tag {
            if tag != expected {
                return Err(JournalError::TagMismatch {
                    expected,
                    found: tag,
                });
            }
        }
        let mut entries = Vec::new();
        let mut at = JOURNAL_HEADER_BYTES;
        let mut torn = false;
        while at < bytes.len() {
            let Some(head) = bytes[at..].first_chunk() else {
                torn = true;
                break;
            };
            let (len, kind, sum) = parse_entry_header(head);
            let len = len as usize;
            let body_at = at + ENTRY_HEADER_BYTES;
            if bytes.len() - body_at < len {
                torn = true;
                break;
            }
            let payload = &bytes[body_at..body_at + len];
            if tile_checksum(payload) != sum {
                torn = true;
                break;
            }
            entries.push(JournalEntry {
                kind,
                payload: payload.to_vec(),
            });
            at = body_at + len;
        }
        Ok(JournalReader {
            tag,
            entries,
            torn,
            valid_bytes: at as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("delorean-journal-{}-{tag}.dlj", std::process::id()))
    }

    fn write_three(path: &Path) {
        let mut w = JournalWriter::create(path, 0xfeed).unwrap();
        w.append(1, b"alpha").unwrap();
        w.append(2, b"").unwrap();
        w.append(1, &[7u8; 300]).unwrap();
        assert_eq!(w.entries(), 3);
    }

    #[test]
    fn round_trips_entries_in_order() {
        let path = temp("roundtrip");
        write_three(&path);
        let r = JournalReader::open(&path, Some(0xfeed)).unwrap();
        assert!(!r.torn);
        assert_eq!(r.tag, 0xfeed);
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.entries[0].kind, 1);
        assert_eq!(r.entries[0].payload, b"alpha");
        assert_eq!(r.entries[1].payload, b"");
        assert_eq!(r.entries[2].payload, vec![7u8; 300]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_yields_the_valid_prefix() {
        let path = temp("truncated");
        write_three(&path);
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the last entry's payload.
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        let r = JournalReader::open(&path, Some(0xfeed)).unwrap();
        assert!(r.torn);
        assert_eq!(r.entries.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_ends_the_prefix_at_the_damaged_entry() {
        let path = temp("bitflip");
        write_three(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the first entry's payload.
        let at = JOURNAL_HEADER_BYTES + ENTRY_HEADER_BYTES + 2;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = JournalReader::open(&path, Some(0xfeed)).unwrap();
        assert!(r.torn);
        assert_eq!(r.entries.len(), 0, "damage drops the entry and its suffix");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_damage_and_tag_mismatch_are_hard_errors() {
        let path = temp("header");
        write_three(&path);
        assert!(matches!(
            JournalReader::open(&path, Some(0xbeef)),
            Err(JournalError::TagMismatch { .. })
        ));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            JournalReader::open(&path, None),
            Err(JournalError::BadMagic { .. })
        ));
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            JournalReader::open(&path, None),
            Err(JournalError::HeaderCorrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_one_journal_is_rejected_by_its_version() {
        // Version 1 checksummed with the single-chain digest; re-stamped
        // here, so the version check is what fires.
        let path = temp("version1");
        write_three(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let sum = tile_checksum(&bytes[..HEADER_CHECKSUM_AT]);
        bytes[HEADER_CHECKSUM_AT..HEADER_CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            JournalReader::open(&path, None),
            Err(JournalError::UnsupportedVersion { found: 1 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_the_torn_tail_and_appends() {
        let path = temp("resume");
        write_three(&path);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        let (mut w, prefix) = JournalWriter::resume(&path, 0xfeed).unwrap();
        assert_eq!(prefix.len(), 2);
        assert_eq!(w.entries(), 2);
        w.append(9, b"recovered").unwrap();
        let r = JournalReader::open(&path, Some(0xfeed)).unwrap();
        assert!(!r.torn);
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.entries[2].kind, 9);
        assert_eq!(r.entries[2].payload, b"recovered");
        std::fs::remove_file(&path).unwrap();
    }
}
