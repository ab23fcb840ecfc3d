//! The shard layer as the benchmark drives it: worker processes, a
//! broker per fleet, and — in traced runs only — frame taps on both
//! ends of every pipe.
//!
//! Worker processes are this benchmark's own binary re-executed in
//! worker mode ([`worker_main`]): each serves
//! [`delorean_shard::worker_loop`] over its stdio. A plain fleet hands
//! the loop the raw stdio and the broker the raw child pipes, so the
//! untraced end-to-end passes pay for no tracing. A tapped fleet wraps
//! both ends: the worker times how long it was busy on each lease and
//! logs it with the lease's cell, and the broker side times each lease
//! from the moment its frame is written to the moment the reply frame
//! has been read. The difference between the two is the lease
//! overhead: framing, pipe transfer, the broker's scheduling and result
//! folding. No code in `crates/shard` is touched; the taps only watch
//! the bytes go by.

use crate::clock;
use delorean_shard::wire::FRAME_HEADER_BYTES;
use delorean_shard::{
    worker_loop, Broker, BrokerConfig, JobRequest, ShardRun, SweepSpec, WorkerOptions,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// First argument that switches the binary into worker mode; an
/// optional second argument names the busy log and turns the taps on.
pub const WORKER_FLAG: &str = "--shard-worker";

// Message kinds of the frames the taps react to. `crates/shard` keeps
// its kind numbers private; the tests below pin these against frames
// its public `wire::send` encodes.
const MSG_LEASE: u32 = 3;
const MSG_CELL_DONE: u32 = 4;
const MSG_SPAN_DONE: u32 = 5;
const MSG_CELL_FAILED: u32 = 6;

/// Payload bytes a scan keeps from the front of each frame: a lease's
/// `job` and `cell` words.
const LEAD: usize = 8;

fn is_reply(kind: u32) -> bool {
    matches!(kind, MSG_CELL_DONE | MSG_SPAN_DONE | MSG_CELL_FAILED)
}

/// The flat cell index of a lease, from its payload's first bytes.
fn lease_cell(lead: &[u8; LEAD]) -> u32 {
    u32::from_le_bytes([lead[4], lead[5], lead[6], lead[7]])
}

/// Incremental frame-boundary scanner over one direction of a stream
/// (`len u32, kind u32, checksum u64, payload`).
#[derive(Default)]
struct FrameScan {
    head: [u8; FRAME_HEADER_BYTES],
    have: usize,
    payload_left: u64,
    lead: [u8; LEAD],
    lead_have: usize,
    kind: u32,
}

/// A frame boundary seen by a [`FrameScan`].
enum FrameEvent {
    /// A header completed: the frame's kind.
    Start(u32),
    /// A frame's last byte went by: its kind and the first [`LEAD`]
    /// payload bytes (zero-padded).
    End(u32, [u8; LEAD]),
}

impl FrameScan {
    fn feed(&mut self, mut bytes: &[u8], mut event: impl FnMut(FrameEvent)) {
        while !bytes.is_empty() {
            if self.have < FRAME_HEADER_BYTES {
                let take = (FRAME_HEADER_BYTES - self.have).min(bytes.len());
                self.head[self.have..self.have + take].copy_from_slice(&bytes[..take]);
                self.have += take;
                bytes = &bytes[take..];
                if self.have == FRAME_HEADER_BYTES {
                    let word = |at: usize| {
                        u32::from_le_bytes([
                            self.head[at],
                            self.head[at + 1],
                            self.head[at + 2],
                            self.head[at + 3],
                        ])
                    };
                    self.kind = word(4);
                    self.payload_left = u64::from(word(0));
                    self.lead = [0; LEAD];
                    self.lead_have = 0;
                    event(FrameEvent::Start(self.kind));
                    if self.payload_left == 0 {
                        self.have = 0;
                        event(FrameEvent::End(self.kind, self.lead));
                    }
                }
            } else {
                let take = self.payload_left.min(bytes.len() as u64) as usize;
                let keep = (LEAD - self.lead_have).min(take);
                self.lead[self.lead_have..self.lead_have + keep].copy_from_slice(&bytes[..keep]);
                self.lead_have += keep;
                self.payload_left -= take as u64;
                bytes = &bytes[take..];
                if self.payload_left == 0 {
                    self.have = 0;
                    event(FrameEvent::End(self.kind, self.lead));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- worker

/// Worker-side tap state: the lease being served and when it finished
/// arriving.
struct WorkerTap {
    lease: Option<(u32, Instant)>,
    busy_log: File,
    read_scan: FrameScan,
    write_scan: FrameScan,
}

struct WorkerRead<R> {
    inner: R,
    tap: Rc<RefCell<WorkerTap>>,
}

impl<R: Read> Read for WorkerRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let mut tap = self.tap.borrow_mut();
        let mut lease = tap.lease;
        tap.read_scan.feed(&buf[..n], |e| {
            if let FrameEvent::End(MSG_LEASE, lead) = e {
                lease = Some((lease_cell(&lead), clock::now()));
            }
        });
        tap.lease = lease;
        Ok(n)
    }
}

struct WorkerWrite<W> {
    inner: W,
    tap: Rc<RefCell<WorkerTap>>,
}

impl<W: Write> Write for WorkerWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Scan (and log the busy time) before forwarding, so the line
        // is in the log before the broker can see the reply.
        let mut tap = self.tap.borrow_mut();
        let mut busy = None;
        let lease = tap.lease;
        tap.write_scan.feed(buf, |e| {
            if let FrameEvent::Start(kind) = e {
                if is_reply(kind) {
                    busy = lease.map(|(cell, start)| (cell, clock::secs_since(start)));
                }
            }
        });
        if let Some((cell, busy)) = busy {
            tap.lease = None;
            writeln!(tap.busy_log, "{cell} {busy:.9}")?;
            tap.busy_log.flush()?;
        }
        drop(tap);
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Worker mode: serve leases over stdio. With a `busy_log`, log each
/// lease's cell and busy seconds (one line each) to it.
pub fn worker_main(busy_log: Option<&Path>) -> Result<(), String> {
    // One region worker per process: the fleet, not the cell, is what
    // spreads work over the host's cores.
    let opts = WorkerOptions {
        region_workers: Some(1),
        ..WorkerOptions::default()
    };
    let (stdin, stdout) = (io::stdin().lock(), io::stdout().lock());
    let served = match busy_log {
        None => worker_loop(stdin, stdout, &opts),
        Some(path) => {
            let log = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            let tap = Rc::new(RefCell::new(WorkerTap {
                lease: None,
                busy_log: log,
                read_scan: FrameScan::default(),
                write_scan: FrameScan::default(),
            }));
            let read = WorkerRead {
                inner: stdin,
                tap: Rc::clone(&tap),
            };
            worker_loop(read, WorkerWrite { inner: stdout, tap }, &opts)
        }
    };
    served.map(|_| ()).map_err(|e| format!("worker loop: {e}"))
}

// ---------------------------------------------------------------- broker

/// Broker-side counters of one worker's pipes.
#[derive(Default)]
struct PipeLog {
    frames: u64,
    bytes: u64,
    leases: u64,
    sent: VecDeque<Instant>,
    rtts: Vec<f64>,
}

struct BrokerRead<R> {
    inner: R,
    log: Arc<Mutex<PipeLog>>,
    scan: FrameScan,
}

impl<R: Read> Read for BrokerRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let mut log = self
            .log
            .lock()
            .map_err(|_| io::Error::other("pipe log poisoned"))?;
        log.bytes += n as u64;
        let log = &mut *log;
        self.scan.feed(&buf[..n], |e| {
            if let FrameEvent::End(kind, _) = e {
                log.frames += 1;
                if is_reply(kind) {
                    if let Some(sent) = log.sent.pop_front() {
                        log.rtts.push(clock::secs_since(sent));
                    }
                }
            }
        });
        Ok(n)
    }
}

struct BrokerWrite<W> {
    inner: W,
    log: Arc<Mutex<PipeLog>>,
    scan: FrameScan,
}

impl<W: Write> Write for BrokerWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        {
            let mut log = self
                .log
                .lock()
                .map_err(|_| io::Error::other("pipe log poisoned"))?;
            log.bytes += buf.len() as u64;
            let log = &mut *log;
            self.scan.feed(buf, |e| match e {
                FrameEvent::Start(MSG_LEASE) => {
                    log.leases += 1;
                    log.sent.push_back(clock::now());
                }
                FrameEvent::End(..) => log.frames += 1,
                FrameEvent::Start(_) => {}
            });
        }
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What the taps saw since the last [`Fleet::take_stats`] (all zero
/// for a plain fleet).
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// Lease frames sent.
    pub leases: u64,
    /// Frames in both directions.
    pub frames: u64,
    /// Bytes in both directions.
    pub wire_bytes: u64,
    /// Broker-side lease round trip minus worker-side busy time, per
    /// lease, seconds.
    pub overheads_s: Vec<f64>,
    /// Worker-side busy seconds, summed per worker.
    pub busy_s: Vec<f64>,
    /// Worker-side `(cell, busy seconds)` of every lease.
    pub lease_busy: Vec<(u32, f64)>,
}

/// The taps of one worker process.
struct Tap {
    log: Arc<Mutex<PipeLog>>,
    busy_log: PathBuf,
    busy_lines_seen: usize,
}

struct Member {
    child: Child,
    tap: Option<Tap>,
}

/// A broker with its worker processes.
pub struct Fleet {
    broker: Option<Broker>,
    members: Vec<Member>,
}

impl Fleet {
    /// Spawn `n` worker processes and attach them to a fresh broker.
    /// With `tapped`, both ends of every pipe are tapped and each
    /// worker's busy log (named after `tag`) goes to `work`.
    pub fn spawn(n: usize, work: &Path, tag: &str, tapped: bool) -> Result<Fleet, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // The fleet owns the broker from the start, so an early return
        // shuts it down (closing every pipe) before reaping the workers.
        let mut fleet = Fleet {
            broker: Some(Broker::new(BrokerConfig::default())),
            members: Vec::new(),
        };
        for i in 0..n {
            let mut cmd = Command::new(&exe);
            cmd.arg(WORKER_FLAG);
            let busy_log = work.join(format!("{tag}-worker{i}.busy"));
            if tapped {
                // A fresh log per process; a stale one would misalign
                // leases.
                File::create(&busy_log)
                    .map_err(|e| format!("create {}: {e}", busy_log.display()))?;
                cmd.arg(&busy_log);
            }
            let mut child = cmd
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn worker: {e}"))?;
            let (Some(stdout), Some(stdin)) = (child.stdout.take(), child.stdin.take()) else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("worker stdio not piped".to_string());
            };
            let broker = fleet.broker.as_ref().ok_or("broker missing")?;
            let tap = if tapped {
                let log = Arc::new(Mutex::new(PipeLog::default()));
                broker.attach(
                    BrokerRead {
                        inner: stdout,
                        log: Arc::clone(&log),
                        scan: FrameScan::default(),
                    },
                    BrokerWrite {
                        inner: stdin,
                        log: Arc::clone(&log),
                        scan: FrameScan::default(),
                    },
                );
                Some(Tap {
                    log,
                    busy_log,
                    busy_lines_seen: 0,
                })
            } else {
                broker.attach(stdout, stdin);
                None
            };
            fleet.members.push(Member { child, tap });
        }
        Ok(fleet)
    }

    /// Run one sweep to completion, journaling to `journal` (replaced
    /// if it exists). Returns the run and its host wall seconds.
    pub fn run(&self, spec: SweepSpec, journal: &Path) -> Result<(ShardRun, f64), String> {
        let broker = self.broker.as_ref().ok_or("fleet already shut down")?;
        if journal.exists() {
            std::fs::remove_file(journal).map_err(|e| format!("remove old journal: {e}"))?;
        }
        let (run, wall) = clock::timed(|| {
            broker
                .submit(JobRequest::new(spec).with_journal(journal.to_path_buf()))
                .wait()
        });
        Ok((run.map_err(|e| format!("shard job: {e}"))?, wall))
    }

    /// Drain the tap counters accumulated since the last call.
    pub fn take_stats(&mut self) -> Result<FleetStats, String> {
        let mut stats = FleetStats::default();
        for tap in self.members.iter_mut().filter_map(|m| m.tap.as_mut()) {
            let mut log = tap.log.lock().map_err(|_| "pipe log poisoned")?;
            let text = std::fs::read_to_string(&tap.busy_log)
                .map_err(|e| format!("read {}: {e}", tap.busy_log.display()))?;
            let busy: Vec<(u32, f64)> = text
                .lines()
                .skip(tap.busy_lines_seen)
                .filter_map(|l| {
                    let (cell, secs) = l.trim().split_once(' ')?;
                    Some((cell.parse().ok()?, secs.parse().ok()?))
                })
                .collect();
            tap.busy_lines_seen += busy.len();
            stats.leases += log.leases;
            stats.frames += log.frames;
            stats.wire_bytes += log.bytes;
            stats
                .overheads_s
                .extend(log.rtts.iter().zip(&busy).map(|(rtt, (_, b))| rtt - b));
            stats.busy_s.push(busy.iter().map(|(_, b)| b).sum());
            stats.lease_busy.extend(busy);
            let sent = std::mem::take(&mut log.sent);
            *log = PipeLog {
                sent,
                ..PipeLog::default()
            };
        }
        Ok(stats)
    }

    /// Summed peak resident set of the worker processes, MiB.
    pub fn workers_peak_rss_mb(&self) -> f64 {
        self.members
            .iter()
            .map(|m| clock::peak_rss_mb(&m.child.id().to_string()))
            .sum()
    }

    /// Shut the broker down and wait for every worker to exit.
    fn stop(&mut self) {
        if let Some(broker) = self.broker.take() {
            broker.shutdown();
        }
        for m in &mut self.members {
            // The broker's Shutdown frame (or the closed pipe) ends the
            // worker loop; waiting reaps the process.
            if m.child.wait().is_err() {
                let _ = m.child.kill();
                let _ = m.child.wait();
            }
        }
        self.members.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delorean_shard::wire::{self, Message, WireFault};

    fn encode(msg: &Message) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::send(&mut bytes, msg).expect("encode a frame");
        bytes
    }

    fn kind_word(frame: &[u8]) -> u32 {
        u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]])
    }

    fn lease(cell: u32) -> Message {
        Message::Lease {
            job: 2,
            cell,
            attempt: 1,
            span: Some((0, 1)),
        }
    }

    #[test]
    fn local_kind_numbers_match_the_wire_encoding() {
        assert_eq!(kind_word(&encode(&lease(7))), MSG_LEASE);
        let done = Message::CellDone {
            job: 2,
            cell: 7,
            attempt: 1,
            report: vec![1, 2, 3],
        };
        assert_eq!(kind_word(&encode(&done)), MSG_CELL_DONE);
        let span = Message::SpanDone {
            job: 2,
            cell: 7,
            attempt: 1,
            lo: 0,
            hi: 1,
            units: vec![4; 5],
        };
        assert_eq!(kind_word(&encode(&span)), MSG_SPAN_DONE);
        let failed = Message::CellFailed {
            job: 2,
            cell: 7,
            attempt: 1,
            fault: WireFault {
                kind: 0,
                aux: 0,
                detail: "x".to_string(),
            },
        };
        assert_eq!(kind_word(&encode(&failed)), MSG_CELL_FAILED);
        for other in [
            Message::Hello { version: 1 },
            Message::Shutdown,
            Message::Job {
                job: 2,
                spec: vec![0; 3],
            },
        ] {
            let kind = kind_word(&encode(&other));
            assert!(kind != MSG_LEASE && !is_reply(kind), "{other:?}");
        }
    }

    #[test]
    fn scanner_finds_boundaries_and_lease_cells_in_any_chunking() {
        let mut bytes = encode(&lease(41));
        bytes.extend(encode(&Message::Shutdown));
        bytes.extend(encode(&Message::SpanDone {
            job: 2,
            cell: 41,
            attempt: 1,
            lo: 0,
            hi: 1,
            units: vec![9; 40],
        }));
        for chunk in [1usize, 3, 16, 17, 1000] {
            let mut scan = FrameScan::default();
            let mut events = Vec::new();
            let mut cells = Vec::new();
            for piece in bytes.chunks(chunk) {
                scan.feed(piece, |e| {
                    events.push(match e {
                        FrameEvent::Start(k) => (true, k),
                        FrameEvent::End(k, lead) => {
                            if k == MSG_LEASE {
                                cells.push(lease_cell(&lead));
                            }
                            (false, k)
                        }
                    })
                });
            }
            let shutdown = kind_word(&encode(&Message::Shutdown));
            assert_eq!(
                events,
                [
                    (true, MSG_LEASE),
                    (false, MSG_LEASE),
                    (true, shutdown),
                    (false, shutdown),
                    (true, MSG_SPAN_DONE),
                    (false, MSG_SPAN_DONE)
                ],
                "chunk {chunk}"
            );
            assert_eq!(cells, [41], "chunk {chunk}");
        }
    }
}
