//! The broker↔worker wire protocol: length-prefixed, checksummed
//! frames over any byte stream.
//!
//! A frame is a run-journal entry on a stream: the same 16-byte header
//! ([`encode_entry_header`]) in front of its payload,
//!
//! ```text
//! frame := len u32, kind u32, checksum u64 (over payload), payload
//! ```
//!
//! so a frame on the wire and an entry on disk corrupt — and recover —
//! the same way. Every defect a hostile or dying peer can produce
//! (truncation mid-frame, a flipped bit, an oversized length, an
//! unknown kind, a payload that does not parse) surfaces as a typed
//! [`WireError`], never a panic; a clean EOF *between* frames decodes
//! as `None` (the peer hung up).
//!
//! Transports are anything `Read`/`Write`: worker child stdio, a Unix
//! socket, or an in-process pipe pair in tests.

use delorean_bench::journal::{push_bytes, push_str, push_u32, push_u8, Take};
use delorean_trace::journal::{encode_entry_header, parse_entry_header, ENTRY_HEADER_BYTES};
use delorean_trace::tile::tile_checksum;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version carried by [`Message::Hello`].
pub const WIRE_VERSION: u32 = 1;
/// Fixed frame-header size: len + kind + payload checksum.
pub const FRAME_HEADER_BYTES: usize = ENTRY_HEADER_BYTES;
/// Upper bound on a frame payload; larger lengths are corruption.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const MSG_HELLO: u32 = 1;
const MSG_JOB: u32 = 2;
const MSG_LEASE: u32 = 3;
const MSG_CELL_DONE: u32 = 4;
const MSG_SPAN_DONE: u32 = 5;
const MSG_CELL_FAILED: u32 = 6;
const MSG_SHUTDOWN: u32 = 7;

/// What went wrong reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The stream ended inside a frame (header or payload).
    Truncated {
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame header declares a payload beyond [`MAX_FRAME_BYTES`].
    Oversize {
        /// Declared payload length.
        len: u32,
    },
    /// The payload does not match its header checksum.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the received payload.
        computed: u64,
    },
    /// The frame kind is not part of this protocol version.
    UnknownKind {
        /// The kind actually found.
        kind: u32,
    },
    /// The payload checksummed clean but does not parse as its kind.
    Malformed {
        /// Frame kind whose payload failed to decode.
        kind: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Truncated { needed, got } => {
                write!(f, "frame truncated: needed {needed} bytes, got {got}")
            }
            WireError::Oversize { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}")
            }
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            WireError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            WireError::Malformed { kind } => {
                write!(f, "frame of kind {kind} has a malformed payload")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A typed unit fault on the wire (mirrors
/// [`delorean_trace::fault::UnitFault`], which is not serializable
/// itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFault {
    /// Fault discriminant: 0 panic, 1 trace error, 2 timeout, 3 chain
    /// poisoned.
    pub kind: u32,
    /// Kind-specific auxiliary value (the poisoning upstream unit for
    /// kind 3, otherwise 0).
    pub aux: u32,
    /// Human-readable detail (panic message / trace-error display).
    pub detail: String,
}

impl WireFault {
    /// Encode a classified unit fault for the wire.
    pub fn from_unit_fault(fault: &delorean_trace::fault::UnitFault) -> WireFault {
        use delorean_trace::fault::UnitFault;
        match fault {
            UnitFault::Panicked { message } => WireFault {
                kind: 0,
                aux: 0,
                detail: message.clone(),
            },
            UnitFault::TraceError(e) => WireFault {
                kind: 1,
                aux: 0,
                detail: e.to_string(),
            },
            UnitFault::Timeout => WireFault {
                kind: 2,
                aux: 0,
                detail: String::new(),
            },
            UnitFault::ChainPoisoned { upstream } => WireFault {
                kind: 3,
                aux: *upstream,
                detail: String::new(),
            },
        }
    }

    /// Decode back into the trace-layer fault vocabulary. Trace errors
    /// lose their structure (only the display string travels); they
    /// come back as [`TileError::Remote`](delorean_trace::TileError::Remote)
    /// carrying that string.
    pub fn to_unit_fault(&self) -> delorean_trace::fault::UnitFault {
        use delorean_trace::fault::UnitFault;
        match self.kind {
            1 => UnitFault::TraceError(delorean_trace::TileError::Remote {
                detail: self.detail.clone(),
            }),
            2 => UnitFault::Timeout,
            3 => UnitFault::ChainPoisoned { upstream: self.aux },
            _ => UnitFault::Panicked {
                message: self.detail.clone(),
            },
        }
    }
}

/// One protocol message.
///
/// Result payloads (`report` in `CellDone`, `units` in `SpanDone`)
/// travel as opaque byte blocks: a `CellDone` report is *exactly* the
/// bench journal's [`encode_cell`](delorean_bench::journal::encode_cell)
/// bytes, so the broker journals it verbatim and a shard journal is
/// mutually resumable with an in-process
/// [`run_matrix_journaled`](delorean_bench::BatchExecutor::run_matrix_journaled)
/// one.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Worker greeting with its protocol version.
    Hello {
        /// The worker's [`WIRE_VERSION`].
        version: u32,
    },
    /// Broker announces a job's sweep configuration.
    Job {
        /// Broker-assigned job id.
        job: u32,
        /// Serialized [`SweepSpec`](crate::SweepSpec).
        spec: Vec<u8>,
    },
    /// Broker leases one work item to this worker.
    Lease {
        /// Job the cell belongs to.
        job: u32,
        /// Flat cell index (`w * strategies + s`).
        cell: u32,
        /// Cell-level attempt number (drives deterministic
        /// fault-injection decisions worker-side).
        attempt: u32,
        /// `Some(lo..hi)` region span for decomposed cells; `None`
        /// leases the whole cell.
        span: Option<(u32, u32)>,
    },
    /// Worker completed a whole cell.
    CellDone {
        /// Job the cell belongs to.
        job: u32,
        /// Flat cell index.
        cell: u32,
        /// Attempt number echoed from the lease.
        attempt: u32,
        /// Journal-codec cell bytes (`encode_cell(cell, report)`).
        report: Vec<u8>,
    },
    /// Worker completed a region span of a decomposed cell.
    SpanDone {
        /// Job the cell belongs to.
        job: u32,
        /// Flat cell index.
        cell: u32,
        /// Attempt number echoed from the lease.
        attempt: u32,
        /// First region index of the span.
        lo: u32,
        /// One past the last region index.
        hi: u32,
        /// [`encode_units`](delorean_bench::journal::encode_units) bytes.
        units: Vec<u8>,
    },
    /// Worker's leased item failed (guarded, classified).
    CellFailed {
        /// Job the cell belongs to.
        job: u32,
        /// Flat cell index.
        cell: u32,
        /// Attempt number echoed from the lease.
        attempt: u32,
        /// The classified fault.
        fault: WireFault,
    },
    /// Broker tells the worker to exit cleanly.
    Shutdown,
}

impl Message {
    fn encode(&self) -> (u32, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Message::Hello { version } => {
                push_u32(&mut p, *version);
                (MSG_HELLO, p)
            }
            Message::Job { job, spec } => {
                push_u32(&mut p, *job);
                push_bytes(&mut p, spec);
                (MSG_JOB, p)
            }
            Message::Lease {
                job,
                cell,
                attempt,
                span,
            } => {
                push_u32(&mut p, *job);
                push_u32(&mut p, *cell);
                push_u32(&mut p, *attempt);
                match span {
                    Some((lo, hi)) => {
                        push_u8(&mut p, 1);
                        push_u32(&mut p, *lo);
                        push_u32(&mut p, *hi);
                    }
                    None => push_u8(&mut p, 0),
                }
                (MSG_LEASE, p)
            }
            Message::CellDone {
                job,
                cell,
                attempt,
                report,
            } => {
                push_u32(&mut p, *job);
                push_u32(&mut p, *cell);
                push_u32(&mut p, *attempt);
                push_bytes(&mut p, report);
                (MSG_CELL_DONE, p)
            }
            Message::SpanDone {
                job,
                cell,
                attempt,
                lo,
                hi,
                units,
            } => {
                push_u32(&mut p, *job);
                push_u32(&mut p, *cell);
                push_u32(&mut p, *attempt);
                push_u32(&mut p, *lo);
                push_u32(&mut p, *hi);
                push_bytes(&mut p, units);
                (MSG_SPAN_DONE, p)
            }
            Message::CellFailed {
                job,
                cell,
                attempt,
                fault,
            } => {
                push_u32(&mut p, *job);
                push_u32(&mut p, *cell);
                push_u32(&mut p, *attempt);
                push_u32(&mut p, fault.kind);
                push_u32(&mut p, fault.aux);
                push_str(&mut p, &fault.detail);
                (MSG_CELL_FAILED, p)
            }
            Message::Shutdown => (MSG_SHUTDOWN, p),
        }
    }

    fn decode(kind: u32, payload: &[u8]) -> Result<Message, WireError> {
        if !(MSG_HELLO..=MSG_SHUTDOWN).contains(&kind) {
            return Err(WireError::UnknownKind { kind });
        }
        let mut r = Take::new(payload);
        // Struct fields evaluate in source order, i.e. in wire order.
        let mut fields = || {
            Some(match kind {
                MSG_HELLO => Message::Hello { version: r.u32()? },
                MSG_JOB => Message::Job {
                    job: r.u32()?,
                    spec: r.byte_block()?,
                },
                MSG_LEASE => Message::Lease {
                    job: r.u32()?,
                    cell: r.u32()?,
                    attempt: r.u32()?,
                    span: match r.u8()? {
                        0 => None,
                        1 => Some((r.u32()?, r.u32()?)),
                        _ => return None,
                    },
                },
                MSG_CELL_DONE => Message::CellDone {
                    job: r.u32()?,
                    cell: r.u32()?,
                    attempt: r.u32()?,
                    report: r.byte_block()?,
                },
                MSG_SPAN_DONE => Message::SpanDone {
                    job: r.u32()?,
                    cell: r.u32()?,
                    attempt: r.u32()?,
                    lo: r.u32()?,
                    hi: r.u32()?,
                    units: r.byte_block()?,
                },
                MSG_CELL_FAILED => Message::CellFailed {
                    job: r.u32()?,
                    cell: r.u32()?,
                    attempt: r.u32()?,
                    fault: WireFault {
                        kind: r.u32()?,
                        aux: r.u32()?,
                        detail: r.string()?,
                    },
                },
                MSG_SHUTDOWN => Message::Shutdown,
                _ => return None,
            })
        };
        match fields() {
            Some(m) if r.done() => Ok(m),
            _ => Err(WireError::Malformed { kind }),
        }
    }
}

/// Write one raw frame.
fn write_frame(w: &mut dyn Write, kind: u32, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversize {
            len: payload.len() as u32,
        });
    }
    w.write_all(&encode_entry_header(kind, payload))?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read into `buf` until it is full or the reader reports EOF, and
/// return the byte count read. `Interrupted` is retried, as
/// [`Read::read_exact`] does: it reports no failure of the transport.
fn read_full(r: &mut dyn Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut at = 0usize;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => break,
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(at)
}

/// Read one raw frame. `Ok(None)` is a clean EOF at a frame boundary;
/// an EOF *inside* a frame is [`WireError::Truncated`].
fn read_frame(r: &mut dyn Read) -> Result<Option<(u32, Vec<u8>)>, WireError> {
    let mut head = [0u8; FRAME_HEADER_BYTES];
    match read_full(r, &mut head)? {
        0 => return Ok(None),
        FRAME_HEADER_BYTES => {}
        got => {
            return Err(WireError::Truncated {
                needed: FRAME_HEADER_BYTES,
                got,
            })
        }
    }
    let (len, kind, stored) = parse_entry_header(&head);
    if len as usize > MAX_FRAME_BYTES {
        return Err(WireError::Oversize { len });
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Err(WireError::Truncated {
            needed: payload.len(),
            got,
        });
    }
    let computed = tile_checksum(&payload);
    if computed != stored {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok(Some((kind, payload)))
}

/// Send one message.
pub fn send(w: &mut dyn Write, msg: &Message) -> Result<(), WireError> {
    let (kind, payload) = msg.encode();
    write_frame(w, kind, &payload)
}

/// Receive one message. `Ok(None)` is a clean hang-up.
pub fn recv(r: &mut dyn Read) -> Result<Option<Message>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((kind, payload)) => Message::decode(kind, &payload).map(Some),
    }
}
