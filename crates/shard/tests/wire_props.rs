//! Wire-protocol properties: every message kind round-trips bit for
//! bit; transport damage (flipped bits, truncation) is a typed
//! [`WireError`], never a panic; duplicate deliveries dedup broker-side
//! to one identical report; results that disagree with their lease are
//! quarantined; and only decomposing strategies lease as region spans.

use delorean_bench::journal::{decode_cell, decode_units, encode_cell, encode_units};
use delorean_shard::wire::{self, Message, WireError, WireFault, FRAME_HEADER_BYTES};
use delorean_shard::{Broker, BrokerConfig, ShardRun, SweepSpec};
use delorean_trace::fault::UnitFault;
use delorean_trace::{Scale, TileError};
use std::io::{self, Read, Write};

fn sample_messages() -> Vec<Message> {
    vec![
        Message::Hello { version: 1 },
        Message::Job {
            job: 3,
            spec: SweepSpec::new(Scale::tiny(), 3)
                .with_workloads(&["hmmer"])
                .with_strategies(&["smarts", "delorean"])
                .encode(),
        },
        Message::Lease {
            job: 3,
            cell: 7,
            attempt: 2,
            span: None,
        },
        Message::Lease {
            job: 3,
            cell: 7,
            attempt: 0,
            span: Some((1, 3)),
        },
        Message::CellDone {
            job: 3,
            cell: 7,
            attempt: 1,
            report: vec![1, 2, 3, 4, 5],
        },
        Message::SpanDone {
            job: 3,
            cell: 7,
            attempt: 0,
            lo: 1,
            hi: 3,
            units: vec![9, 8, 7],
        },
        Message::CellFailed {
            job: 3,
            cell: 7,
            attempt: 2,
            fault: WireFault {
                kind: 1,
                aux: 0,
                detail: "tile 7 corrupt".to_string(),
            },
        },
        Message::Shutdown,
    ]
}

fn encode(msg: &Message) -> Vec<u8> {
    let mut bytes = Vec::new();
    wire::send(&mut bytes, msg).expect("send to Vec");
    bytes
}

#[test]
fn every_message_kind_round_trips() {
    for msg in sample_messages() {
        let bytes = encode(&msg);
        let back = wire::recv(&mut bytes.as_slice())
            .expect("recv")
            .expect("one frame");
        assert_eq!(back, msg);
    }
}

/// Every `UnitFault` kind survives a trip through a `CellFailed` frame:
/// a panic keeps its message, chain poisoning its upstream, a timeout
/// stays a timeout, and a trace error comes back as text that carries
/// the original detail and says it came from a shard worker.
#[test]
fn every_unit_fault_kind_survives_the_wire() {
    let via_wire = |fault: &UnitFault| {
        let msg = Message::CellFailed {
            job: 1,
            cell: 2,
            attempt: 0,
            fault: WireFault::from_unit_fault(fault),
        };
        match wire::recv(&mut encode(&msg).as_slice()) {
            Ok(Some(Message::CellFailed { fault, .. })) => fault.to_unit_fault(),
            other => panic!("expected a CellFailed frame, got {other:?}"),
        }
    };
    let panicked = UnitFault::Panicked {
        message: "boom in unit 4".to_string(),
    };
    assert!(
        matches!(via_wire(&panicked), UnitFault::Panicked { message } if message == "boom in unit 4")
    );
    let poisoned = UnitFault::ChainPoisoned { upstream: 3 };
    assert!(matches!(
        via_wire(&poisoned),
        UnitFault::ChainPoisoned { upstream: 3 }
    ));
    assert!(matches!(via_wire(&UnitFault::Timeout), UnitFault::Timeout));
    let original = TileError::ChecksumMismatch {
        tile: 2,
        stored: 0x11,
        computed: 0x22,
    };
    let UnitFault::TraceError(remote) = via_wire(&UnitFault::TraceError(original)) else {
        panic!("a trace error must stay a trace error");
    };
    let text = remote.to_string();
    assert!(
        text.contains("tile 2 checksum mismatch"),
        "original detail lost: {text}"
    );
    assert!(text.contains("shard worker"), "origin not named: {text}");
}

#[test]
fn back_to_back_frames_stream_cleanly() {
    let messages = sample_messages();
    let mut bytes = Vec::new();
    for msg in &messages {
        wire::send(&mut bytes, msg).expect("send");
    }
    let mut read = bytes.as_slice();
    for msg in &messages {
        assert_eq!(wire::recv(&mut read).expect("recv").as_ref(), Some(msg));
    }
    assert!(wire::recv(&mut read).expect("clean EOF").is_none());
}

/// A transport whose every successful `read` (EOF included) follows one
/// that fails with `Interrupted`, and which delivers at most 3 bytes a
/// read, so both the header and the payload loop meet interruptions.
struct Interrupting<'a> {
    bytes: &'a [u8],
    interrupt: bool,
}

impl Read for Interrupting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.interrupt = !self.interrupt;
        if self.interrupt {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = buf.len().min(3).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn interrupted_reads_are_retried() {
    let messages = sample_messages();
    let mut bytes = Vec::new();
    for msg in &messages {
        wire::send(&mut bytes, msg).expect("send");
    }
    let mut read = Interrupting {
        bytes: &bytes,
        interrupt: false,
    };
    for msg in &messages {
        assert_eq!(wire::recv(&mut read).expect("recv").as_ref(), Some(msg));
    }
    assert!(wire::recv(&mut read).expect("clean EOF").is_none());
}

#[test]
fn every_single_bit_flip_is_a_typed_error_or_a_different_message() {
    for msg in sample_messages() {
        let bytes = encode(&msg);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                // Must never panic. Flips in the kind field (header
                // bytes 4..8) may still decode — as a *different*
                // message; any other flip breaks length or checksum
                // integrity and must be a typed error.
                match wire::recv(&mut damaged.as_slice()) {
                    Ok(decoded) => {
                        assert!(
                            (4..8).contains(&byte),
                            "flip at byte {byte} bit {bit} of {msg:?} was silently accepted"
                        );
                        assert_ne!(
                            decoded.as_ref(),
                            Some(&msg),
                            "kind flip at byte {byte} decoded back to the original"
                        );
                    }
                    Err(
                        WireError::ChecksumMismatch { .. }
                        | WireError::Truncated { .. }
                        | WireError::Oversize { .. }
                        | WireError::UnknownKind { .. }
                        | WireError::Malformed { .. },
                    ) => {}
                    Err(other) => {
                        panic!("flip at byte {byte} bit {bit}: unexpected error class {other:?}")
                    }
                }
            }
        }
    }
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    for msg in sample_messages() {
        let bytes = encode(&msg);
        // Zero bytes is a clean EOF (no frame started) …
        assert!(wire::recv(&mut &bytes[..0])
            .expect("empty stream")
            .is_none());
        // … every other prefix is a torn frame.
        for cut in 1..bytes.len() {
            match wire::recv(&mut &bytes[..cut]) {
                Err(WireError::Truncated { needed, got }) => {
                    assert!(got < needed, "cut at {cut}: got {got} needed {needed}")
                }
                other => panic!("cut at {cut} of {msg:?}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn oversize_frames_are_rejected_without_allocation() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(bytes.len(), FRAME_HEADER_BYTES);
    match wire::recv(&mut bytes.as_slice()) {
        Err(WireError::Oversize { len }) => assert_eq!(len, u32::MAX),
        other => panic!("expected Oversize, got {other:?}"),
    }
}

/// A scripted worker that answers every lease **twice** — the broker
/// must dedup on the cell slot and produce one identical report.
#[test]
fn duplicate_deliveries_dedup_to_one_identical_report() {
    let spec = SweepSpec::new(Scale::tiny(), 3)
        .with_suite_seed(7)
        .with_workloads(&["hmmer"])
        .with_strategies(&["smarts", "delorean"]);
    let plan = spec.plan();
    let strategies = spec.build_strategies().expect("strategies");
    let workloads = spec.build_workloads().expect("workloads");
    let reference = delorean_bench::BatchExecutor::new().run_matrix(&strategies, &workloads, &plan);

    let broker = Broker::new(BrokerConfig::default());
    let (worker_read, broker_write) = std::io::pipe().expect("pipe");
    let (broker_read, worker_write) = std::io::pipe().expect("pipe");
    broker.attach(broker_read, broker_write);
    let echoer = std::thread::spawn(move || duplicate_everything(worker_read, worker_write));

    let run = broker.run_matrix(spec.clone()).expect("shard run");
    broker.shutdown();
    echoer.join().expect("worker thread");

    assert!(run.run.quarantined.is_empty());
    assert_eq!(run.run.executed_cells, spec.n_cells());
    for (row, ref_row) in run.run.matrix.iter().zip(&reference) {
        for (cell, ref_cell) in row.iter().zip(ref_row) {
            assert_eq!(cell.as_ref().expect("cell").report, ref_cell.report);
        }
    }
}

fn duplicate_everything(mut read: impl std::io::Read, mut write: impl Write) {
    use delorean_bench::journal::encode_cell;
    wire::send(&mut write, &Message::Hello { version: 1 }).expect("hello");
    let mut job_ctx = None;
    loop {
        let msg = match wire::recv(&mut read) {
            Ok(Some(m)) => m,
            Ok(None) | Err(_) => return,
        };
        match msg {
            Message::Shutdown => return,
            Message::Job { spec, .. } => {
                let spec = SweepSpec::decode(&spec).expect("spec");
                let strategies = spec.build_strategies().expect("strategies");
                let workloads = spec.build_workloads().expect("workloads");
                let plan = spec.plan();
                job_ctx = Some((spec, plan, strategies, workloads));
            }
            Message::Lease {
                job,
                cell,
                attempt,
                span: _,
            } => {
                let (spec, plan, strategies, workloads) =
                    job_ctx.as_ref().expect("job announced before lease");
                let s = cell as usize % spec.strategies.len();
                let w = cell as usize / spec.strategies.len();
                let report = strategies[s].run(&workloads[w], plan).into_report();
                let done = Message::CellDone {
                    job,
                    cell,
                    attempt,
                    report: encode_cell(cell, &report),
                };
                // Deliver twice: the duplicate must be deduped.
                wire::send(&mut write, &done).expect("send");
                wire::send(&mut write, &done).expect("send duplicate");
            }
            _ => {}
        }
    }
}

/// Tampered worker results are unchecked input from another process:
/// span units shifted off their lease's regions and a whole-cell report
/// renamed to another strategy must each fail their attempt (and so
/// quarantine), never land in a slot.
#[test]
fn results_that_disagree_with_their_lease_are_quarantined() {
    let spec = SweepSpec::new(Scale::tiny(), 3)
        .with_suite_seed(7)
        .with_workloads(&["hmmer"])
        .with_strategies(&["smarts", "coolsim", "mrrl"])
        .with_split_regions(2);
    let (run, _) = run_scripted(&spec, |spec, msg| match msg {
        Message::SpanDone { cell, units, .. } if spec.strategy_name(*cell) == "coolsim" => {
            let mut decoded = decode_units(units).expect("units");
            for unit in &mut decoded {
                unit.report.region += 1;
            }
            *units = encode_units(&decoded);
        }
        Message::CellDone { cell, report, .. } if spec.strategy_name(*cell) == "smarts" => {
            let (c, mut decoded) = decode_cell(report).expect("cell");
            decoded.strategy = "mrrl".to_string();
            *report = encode_cell(c, &decoded);
        }
        _ => {}
    });
    let quarantined: Vec<u32> = run.run.quarantined.iter().map(|f| f.unit).collect();
    assert_eq!(quarantined, vec![0, 1], "the smarts and coolsim cells");
    assert!(run.run.matrix[0][2].is_some(), "the honest mrrl cell lands");
    assert_filled_slots_match(&spec, &run);
}

/// Which cells lease as region spans is each strategy's own decision
/// (`run_unit_span`): with `split_regions` set, exactly the CoolSim and
/// MRRL cells arrive as spans, every other cell whole.
#[test]
fn split_sweeps_lease_spans_for_exactly_the_decomposing_strategies() {
    let spec = SweepSpec::new(Scale::tiny(), 3)
        .with_suite_seed(7)
        .with_workloads(&["hmmer"])
        .with_strategies(&["smarts", "coolsim", "mrrl", "checkpoint", "delorean"])
        .with_split_regions(1);
    let (run, leases) = run_scripted(&spec, |_, _| {});
    for &(cell, span) in &leases {
        let name = spec.strategy_name(cell);
        let decomposes = matches!(name, "coolsim" | "mrrl");
        assert_eq!(
            span.is_some(),
            decomposes,
            "cell {cell} ({name}) lease {span:?}"
        );
    }
    let mut leased: Vec<u32> = leases.iter().map(|&(cell, _)| cell).collect();
    leased.dedup();
    assert_eq!(leased, vec![0, 1, 2, 3, 4], "every cell leased");
    assert!(run.run.is_complete());
    assert_filled_slots_match(&spec, &run);
}

/// Every filled slot of `run` holds the in-process executor's report.
fn assert_filled_slots_match(spec: &SweepSpec, run: &ShardRun) {
    let strategies = spec.build_strategies().expect("strategies");
    let workloads = spec.build_workloads().expect("workloads");
    let reference =
        delorean_bench::BatchExecutor::new().run_matrix(&strategies, &workloads, &spec.plan());
    for (row, ref_row) in run.run.matrix.iter().zip(&reference) {
        for (cell, ref_cell) in row.iter().zip(ref_row) {
            if let Some(cell) = cell {
                assert_eq!(cell.report, ref_cell.report);
            }
        }
    }
}

/// A lease as a scripted worker saw it: `(cell, span)`.
type Lease = (u32, Option<(u32, u32)>);

/// Run `spec` on a broker with one [`scripted_worker`]; returns the run
/// and every lease the worker received.
fn run_scripted(spec: &SweepSpec, tamper: fn(&SweepSpec, &mut Message)) -> (ShardRun, Vec<Lease>) {
    let broker = Broker::new(BrokerConfig::default());
    let (worker_read, broker_write) = std::io::pipe().expect("pipe");
    let (broker_read, worker_write) = std::io::pipe().expect("pipe");
    broker.attach(broker_read, broker_write);
    let worker = std::thread::spawn(move || scripted_worker(worker_read, worker_write, tamper));
    let run = broker.run_matrix(spec.clone()).expect("shard run");
    broker.shutdown();
    (run, worker.join().expect("worker thread"))
}

/// A worker that answers every lease honestly — spans through
/// `run_unit_span`, whole cells through `run` — then passes each reply
/// through `tamper` before sending it. Returns the leases it served.
fn scripted_worker(
    mut read: impl std::io::Read,
    mut write: impl Write,
    tamper: fn(&SweepSpec, &mut Message),
) -> Vec<Lease> {
    wire::send(&mut write, &Message::Hello { version: 1 }).expect("hello");
    let mut job_ctx = None;
    let mut leases = Vec::new();
    loop {
        let msg = match wire::recv(&mut read) {
            Ok(Some(m)) => m,
            Ok(None) | Err(_) => return leases,
        };
        match msg {
            Message::Shutdown => return leases,
            Message::Job { spec, .. } => {
                let spec = SweepSpec::decode(&spec).expect("spec");
                let strategies = spec.build_strategies().expect("strategies");
                let workloads = spec.build_workloads().expect("workloads");
                let plan = spec.plan();
                job_ctx = Some((spec, plan, strategies, workloads));
            }
            Message::Lease {
                job,
                cell,
                attempt,
                span,
            } => {
                leases.push((cell, span));
                let (spec, plan, strategies, workloads) =
                    job_ctx.as_ref().expect("job announced before lease");
                let strategy = &strategies[cell as usize % spec.strategies.len()];
                let workload = &workloads[cell as usize / spec.strategies.len()];
                let mut reply = match span {
                    Some((lo, hi)) => Message::SpanDone {
                        job,
                        cell,
                        attempt,
                        lo,
                        hi,
                        units: encode_units(
                            &strategy
                                .run_unit_span(workload, plan, lo..hi)
                                .expect("a span lease decomposes"),
                        ),
                    },
                    None => Message::CellDone {
                        job,
                        cell,
                        attempt,
                        report: encode_cell(cell, &strategy.run(workload, plan).into_report()),
                    },
                };
                tamper(spec, &mut reply);
                wire::send(&mut write, &reply).expect("send");
            }
            _ => {}
        }
    }
}
