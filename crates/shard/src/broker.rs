//! The shard broker: leases sweep cells to attached workers and
//! reduces their results into a [`MatrixRun`].
//!
//! One scheduler thread owns all state; per-worker reader threads only
//! forward decoded frames (or a hang-up) into its event channel, so
//! there is no shared mutable state to lock. The scheduler wakes on
//! events or on a fixed tick ([`BrokerConfig::lease_tick`]) to age
//! outstanding leases — deadlines are counted in ticks, never read
//! from a wall clock, so the broker obeys the workspace's no-wallclock
//! discipline.
//!
//! # Determinism
//!
//! Scheduling is never semantics. Whatever the worker count, kill
//! pattern, or delivery order:
//!
//! * results land in **cell-indexed slots** and are assembled in plan
//!   order, exactly like the in-process executor;
//! * duplicate deliveries dedup on the slot (first result wins; both
//!   are bitwise identical anyway, being pure functions of the cell);
//! * failure retries are counted **per cell** (`attempt` rides the
//!   lease so worker-side injected faults are pure in
//!   `(cell, attempt)`), making the quarantined set independent of
//!   scheduling;
//! * worker deaths and lease expiries are *lease losses*, tracked
//!   separately from failures — a lost lease re-leases at the same
//!   attempt number and cannot perturb the quarantine decision.
//!
//! Worker results are unchecked input from another process: a report
//! must name its cell's strategy and workload and cover the plan's
//! regions in order, and a span's units must be exactly the span's
//! regions in order. Anything else counts as a failed attempt.
//!
//! Completed cells are journaled verbatim through the same
//! [`CellJournal`] (and under the same tag) the in-process executor
//! uses, so broker restarts resume from the journal's valid prefix —
//! in either direction between a shard run and
//! [`run_matrix_journaled`](delorean_bench::BatchExecutor::run_matrix_journaled).

use crate::wire::{self, Message, WireError, WireFault, WIRE_VERSION};
use crate::{ShardError, SweepSpec};
use delorean_bench::journal::{decode_cell, decode_units, encode_cell, CellJournal};
use delorean_bench::MatrixRun;
use delorean_sampling::{
    reduce_region_units, FaultPolicy, RegionPlan, RegionUnit, SimulationReport, StrategyReport,
    UnitFailure, UnitFault,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Broker tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct BrokerConfig {
    /// Per-cell deterministic-failure retry discipline: a cell whose
    /// attempts reach [`FaultPolicy::max_attempts`] is quarantined.
    pub policy: FaultPolicy,
    /// Lease re-issues a cell survives from worker deaths or expiries
    /// before being quarantined as timed out. Losses are scheduling,
    /// not determinism, so this budget is generous by default.
    pub lease_loss_budget: u32,
    /// Scheduler wake-up period for lease aging.
    pub lease_tick: Duration,
    /// Ticks an outstanding lease lives before expiring.
    pub lease_ticks: u32,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            policy: FaultPolicy::default(),
            lease_loss_budget: 16,
            lease_tick: Duration::from_millis(250),
            lease_ticks: 240,
        }
    }
}

/// One job submission: the sweep, plus durability and halting knobs.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The sweep to run.
    pub spec: SweepSpec,
    /// Journal path: created fresh, or **resumed** if the file exists
    /// (its valid prefix restores completed cells verbatim).
    pub journal: Option<PathBuf>,
    /// Halt after this many newly-executed cell completions — the
    /// broker stops leasing, drains in-flight work, and returns a
    /// partial [`ShardRun`] with [`halted`](ShardRun::halted) set.
    /// Together with `journal`, this simulates a broker kill: a fresh
    /// broker resuming the same journal finishes the sweep.
    pub cell_budget: Option<usize>,
}

impl JobRequest {
    /// A plain run-to-completion request.
    pub fn new(spec: SweepSpec) -> JobRequest {
        JobRequest {
            spec,
            journal: None,
            cell_budget: None,
        }
    }

    /// Journal completed cells to (or resume from) `path`.
    pub fn with_journal(mut self, path: PathBuf) -> JobRequest {
        self.journal = Some(path);
        self
    }

    /// Halt after `n` newly-executed completions.
    pub fn with_cell_budget(mut self, n: usize) -> JobRequest {
        self.cell_budget = Some(n);
        self
    }
}

/// The outcome of one shard job.
#[derive(Debug)]
pub struct ShardRun {
    /// The matrix, bit-compatible with the in-process executor's
    /// [`MatrixRun`] (quarantined cells are `None` slots with typed
    /// failures in cell order).
    pub run: MatrixRun,
    /// `true` if a [`cell_budget`](JobRequest::cell_budget) halted the
    /// job before completion.
    pub halted: bool,
    /// Leases lost to worker deaths or deadline expiries (scheduling
    /// noise — never affects result bytes or the quarantined set).
    pub lease_losses: usize,
}

/// Handle to a submitted job.
#[derive(Debug)]
pub struct JobTicket {
    rx: Receiver<Result<ShardRun, ShardError>>,
}

impl JobTicket {
    /// Block until the job finishes (or the broker shuts down).
    pub fn wait(self) -> Result<ShardRun, ShardError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(ShardError::BrokerClosed),
        }
    }
}

/// The shard broker: accepts jobs from any number of clients, leases
/// cells to attached workers, reduces plan-ordered matrices.
#[derive(Debug)]
pub struct Broker {
    tx: Sender<Event>,
    thread: Option<JoinHandle<()>>,
}

impl Broker {
    /// Start a broker with its scheduler thread.
    pub fn new(config: BrokerConfig) -> Broker {
        let (tx, rx) = channel();
        let scheduler_tx = tx.clone();
        let thread = std::thread::spawn(move || Scheduler::new(config, scheduler_tx, rx).run());
        Broker {
            tx,
            thread: Some(thread),
        }
    }

    /// Attach a worker over a byte-stream transport (child stdio, a
    /// Unix socket, an in-process pipe pair).
    pub fn attach(&self, read: impl Read + Send + 'static, write: impl Write + Send + 'static) {
        let _ = self.tx.send(Event::Attach(Box::new(read), Box::new(write)));
    }

    /// Submit a job; returns immediately with a ticket. Any number of
    /// clients may submit concurrently — jobs share the worker pool.
    pub fn submit(&self, request: JobRequest) -> JobTicket {
        let (reply, rx) = channel();
        let _ = self.tx.send(Event::Submit(Box::new(request), reply));
        JobTicket { rx }
    }

    /// Submit and wait: the shard-side equivalent of
    /// [`BatchExecutor::run_matrix`](delorean_bench::BatchExecutor::run_matrix).
    pub fn run_matrix(&self, spec: SweepSpec) -> Result<ShardRun, ShardError> {
        self.submit(JobRequest::new(spec)).wait()
    }

    /// Shut down: workers get a `Shutdown` frame, unfinished tickets
    /// resolve to [`ShardError::BrokerClosed`].
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        let _ = self.tx.send(Event::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.finish();
    }
}

enum Event {
    Attach(Box<dyn Read + Send>, Box<dyn Write + Send>),
    Submit(Box<JobRequest>, Sender<Result<ShardRun, ShardError>>),
    FromWorker(usize, Message),
    WorkerGone(usize),
    Shutdown,
}

/// A leased work item: a whole cell, or one region-span part of a
/// decomposed cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct WorkItem {
    cell: u32,
    part: Option<u32>,
}

struct LeaseSlot {
    job: u32,
    item: WorkItem,
}

struct WorkerSlot {
    writer: Option<Box<dyn Write + Send>>,
    announced: Vec<u32>,
    lease: Option<LeaseSlot>,
    ticks_left: u32,
}

struct SpanParts {
    bounds: Vec<(u32, u32)>,
    units: Vec<Option<Vec<RegionUnit>>>,
}

#[derive(Default)]
struct CellState {
    fail_attempts: u32,
    lease_losses: u32,
    quarantined: Option<UnitFailure>,
    parts: Option<SpanParts>,
}

struct JobState {
    spec: SweepSpec,
    spec_bytes: Vec<u8>,
    plan: RegionPlan,
    slots: Vec<Option<StrategyReport>>,
    cells: Vec<CellState>,
    pending: VecDeque<WorkItem>,
    outstanding: usize,
    journal: Option<CellJournal>,
    resumed_cells: usize,
    executed_cells: usize,
    budget: Option<usize>,
    halted: bool,
    lease_losses: usize,
    reply: Option<Sender<Result<ShardRun, ShardError>>>,
}

impl JobState {
    /// Validate `request`'s spec, open (or resume) its journal, and
    /// queue every cell the journal did not restore. A strategy's cells
    /// are leased as region spans when the spec splits regions and the
    /// strategy decomposes.
    fn open(request: JobRequest) -> Result<JobState, ShardError> {
        let spec = request.spec;
        let decomposes = spec.validate()?;
        let plan = spec.plan();
        let n_cells = spec.n_cells();
        let (journal, restored) = match request.journal {
            Some(path) => {
                let (journal, restored) = CellJournal::open(&path, spec.tag(&plan), n_cells)?;
                (Some(journal), restored)
            }
            None => (None, (0..n_cells).map(|_| None).collect()),
        };
        let slots: Vec<Option<StrategyReport>> = restored
            .into_iter()
            .map(|r| r.map(StrategyReport::new))
            .collect();
        let mut cells = Vec::with_capacity(n_cells);
        let mut pending = VecDeque::new();
        for cell in 0..n_cells as u32 {
            let open = slots[cell as usize].is_none();
            let split = spec
                .split_regions
                .filter(|_| open && decomposes[cell as usize % decomposes.len()]);
            let parts = split.map(|k| {
                let k = k.max(1) as usize;
                let n = plan.regions.len();
                let bounds: Vec<(u32, u32)> = (0..n)
                    .step_by(k)
                    .map(|lo| (lo as u32, (lo + k).min(n) as u32))
                    .collect();
                SpanParts {
                    units: vec![None; bounds.len()],
                    bounds,
                }
            });
            match &parts {
                Some(p) => pending.extend((0..p.bounds.len() as u32).map(|part| WorkItem {
                    cell,
                    part: Some(part),
                })),
                None if open => pending.push_back(WorkItem { cell, part: None }),
                None => {}
            }
            cells.push(CellState {
                parts,
                ..CellState::default()
            });
        }
        Ok(JobState {
            spec_bytes: spec.encode(),
            spec,
            plan,
            resumed_cells: slots.iter().filter(|s| s.is_some()).count(),
            slots,
            cells,
            pending,
            outstanding: 0,
            journal,
            executed_cells: 0,
            budget: request.cell_budget,
            halted: false,
            lease_losses: 0,
            reply: None,
        })
    }

    /// Whether `cell` has its outcome — a result or a quarantine. A
    /// cell outside the matrix counts as resolved, so deliveries for it
    /// are dropped.
    fn resolved(&self, cell: u32) -> bool {
        let cell = cell as usize;
        self.slots.get(cell).is_none_or(Option::is_some) || self.cells[cell].quarantined.is_some()
    }

    /// Whether a worker's `report` is `cell`'s: its strategy and
    /// workload, with one region per plan region, in plan order.
    fn is_cell_report(&self, cell: u32, report: &SimulationReport) -> bool {
        report.strategy == self.spec.strategy_name(cell)
            && report.workload == self.spec.workload_name(cell)
            && report
                .regions
                .iter()
                .map(|r| r.region)
                .eq(self.plan.regions.iter().map(|r| r.index))
    }

    /// Reply with the job's [`ShardRun`] once every cell is resolved, or
    /// once a halted job has drained its in-flight leases.
    fn try_finish(&mut self) {
        let resolved = (0..self.slots.len() as u32).all(|cell| self.resolved(cell));
        if self.reply.is_none() || !(resolved || (self.halted && self.outstanding == 0)) {
            return;
        }
        let quarantined = self
            .cells
            .iter_mut()
            .filter_map(|c| c.quarantined.take())
            .collect();
        let n_strategies = self.spec.strategies.len().max(1);
        let mut slots = std::mem::take(&mut self.slots).into_iter();
        let matrix = (0..self.spec.workloads.len())
            .map(|_| slots.by_ref().take(n_strategies).collect())
            .collect();
        // Close the journal before replying so a successor broker can
        // reopen the file immediately.
        let journal_faults = self.journal.take().map_or(0, |j| j.faults());
        self.pending.clear();
        let run = ShardRun {
            run: MatrixRun {
                matrix,
                quarantined,
                resumed_cells: self.resumed_cells,
                executed_cells: self.executed_cells,
                journal_faults,
            },
            halted: self.halted,
            lease_losses: self.lease_losses,
        };
        if let Some(reply) = self.reply.take() {
            let _ = reply.send(Ok(run));
        }
    }
}

/// The fault a malformed worker result counts as.
fn bad_result(detail: String) -> WireFault {
    WireFault {
        kind: 0,
        aux: 0,
        detail,
    }
}

struct Scheduler {
    config: BrokerConfig,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    workers: Vec<WorkerSlot>,
    jobs: Vec<JobState>,
}

impl Scheduler {
    fn new(config: BrokerConfig, tx: Sender<Event>, rx: Receiver<Event>) -> Scheduler {
        Scheduler {
            config,
            tx,
            rx,
            workers: Vec::new(),
            jobs: Vec::new(),
        }
    }

    fn run(mut self) {
        loop {
            match self.rx.recv_timeout(self.config.lease_tick) {
                Ok(Event::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(event) => self.handle(event),
                Err(RecvTimeoutError::Timeout) => self.tick(),
            }
            // Any event may resolve a job's last cell or drain a halted
            // job's last lease.
            for job in &mut self.jobs {
                job.try_finish();
            }
            self.dispatch();
        }
        for slot in &mut self.workers {
            if let Some(mut writer) = slot.writer.take() {
                let _ = wire::send(&mut *writer, &Message::Shutdown);
            }
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Attach(read, write) => self.attach(read, write),
            Event::Submit(request, reply) => self.submit(*request, reply),
            Event::FromWorker(idx, msg) => self.worker_message(idx, msg),
            Event::WorkerGone(idx) => self.worker_gone(idx),
            Event::Shutdown => {}
        }
    }

    fn attach(&mut self, read: Box<dyn Read + Send>, write: Box<dyn Write + Send>) {
        let idx = self.workers.len();
        self.workers.push(WorkerSlot {
            writer: Some(write),
            announced: Vec::new(),
            lease: None,
            ticks_left: 0,
        });
        let tx = self.tx.clone();
        std::thread::spawn(move || read_loop(idx, read, tx));
    }

    fn submit(&mut self, request: JobRequest, reply: Sender<Result<ShardRun, ShardError>>) {
        match JobState::open(request) {
            Ok(job) => self.jobs.push(JobState {
                reply: Some(reply),
                ..job
            }),
            Err(e) => {
                let _ = reply.send(Err(e));
            }
        }
    }

    fn worker_message(&mut self, idx: usize, msg: Message) {
        match msg {
            Message::Hello { version } => {
                if version != WIRE_VERSION {
                    self.worker_gone(idx);
                }
            }
            Message::CellDone {
                job, cell, report, ..
            } => self.cell_done(idx, job, cell, report),
            Message::SpanDone {
                job,
                cell,
                lo,
                hi,
                units,
                ..
            } => self.span_done(idx, job, cell, lo, hi, units),
            Message::CellFailed {
                job, cell, fault, ..
            } => self.cell_failed(idx, job, cell, fault),
            // Broker-role messages from a confused peer are ignored.
            Message::Job { .. } | Message::Lease { .. } | Message::Shutdown => {}
        }
    }

    /// Clear `idx`'s lease if it matches `(job, cell)`; returns the
    /// leased item for requeueing. `None` means the delivery is stale
    /// (duplicate, or the lease already expired/re-leased elsewhere).
    fn take_lease(&mut self, idx: usize, job: u32, cell: u32) -> Option<WorkItem> {
        let slot = self.workers.get_mut(idx)?;
        let matches = slot
            .lease
            .as_ref()
            .is_some_and(|l| l.job == job && l.item.cell == cell);
        if !matches {
            return None;
        }
        let lease = slot.lease.take()?;
        if let Some(j) = self.jobs.get_mut(lease.job as usize) {
            j.outstanding = j.outstanding.saturating_sub(1);
        }
        Some(lease.item)
    }

    fn cell_done(&mut self, idx: usize, job: u32, cell: u32, bytes: Vec<u8>) {
        let item = self.take_lease(idx, job, cell);
        let Some(j) = self.jobs.get(job as usize) else {
            return;
        };
        if j.reply.is_none() || j.resolved(cell) {
            // Duplicate delivery or post-quarantine straggler: the
            // first result (or the quarantine decision) stands.
            return;
        }
        match decode_cell(&bytes).filter(|(c, report)| *c == cell && j.is_cell_report(cell, report))
        {
            // The wire payload IS the journal payload: append it
            // verbatim, bit for bit.
            Some((_, report)) => self.complete(job as usize, cell, report, &bytes),
            // A result that checksummed clean on the wire but is not
            // this cell's report is a worker defect: count it as a
            // failed attempt so a persistent offender quarantines.
            None => {
                if let Some(item) = item {
                    let detail = format!("cell {cell} returned a report that is not this cell's");
                    self.fail_item(job, item, bad_result(detail));
                }
            }
        }
    }

    fn span_done(&mut self, idx: usize, job: u32, cell: u32, lo: u32, hi: u32, units: Vec<u8>) {
        let item = self.take_lease(idx, job, cell);
        let Some(j) = self.jobs.get_mut(job as usize) else {
            return;
        };
        if j.reply.is_none() || j.resolved(cell) {
            return;
        }
        // A span's units must be exactly its plan regions, in order.
        let expected = j.plan.regions.get(lo as usize..hi as usize);
        let decoded = decode_units(&units).filter(|units| {
            expected.is_some_and(|regions| {
                units
                    .iter()
                    .map(|u| u.report.region)
                    .eq(regions.iter().map(|r| r.index))
            })
        });
        let part = j.cells[cell as usize]
            .parts
            .as_mut()
            .and_then(|parts| Some((parts.bounds.iter().position(|&b| b == (lo, hi))?, parts)));
        match (part, decoded) {
            // Duplicate span delivery: first wins.
            (Some((p, parts)), _) if parts.units[p].is_some() => {}
            (Some((p, parts)), Some(decoded)) => {
                parts.units[p] = Some(decoded);
                if parts.units.iter().all(Option::is_some) {
                    // All spans landed: fold in plan order, exactly
                    // like the in-process reduce.
                    let all = std::mem::take(&mut parts.units)
                        .into_iter()
                        .flatten()
                        .flatten()
                        .map(Some)
                        .collect();
                    let report = reduce_region_units(
                        j.spec.workload_name(cell),
                        &j.plan,
                        j.spec.strategy_name(cell),
                        all,
                    );
                    let bytes = encode_cell(cell, &report);
                    self.complete(job as usize, cell, report, &bytes);
                }
            }
            _ => {
                if let Some(item) = item {
                    let detail = format!("cell {cell} span {lo}..{hi} returned bad units");
                    self.fail_item(job, item, bad_result(detail));
                }
            }
        }
    }

    /// The one completion step for a whole-cell result and a fully
    /// landed span fold: store the slot, count it, journal its
    /// [`encode_cell`] `bytes`, and halt the job if its budget is spent
    /// (the run loop then finishes it once it is ready).
    fn complete(&mut self, job_idx: usize, cell: u32, report: SimulationReport, bytes: &[u8]) {
        let j = &mut self.jobs[job_idx];
        j.slots[cell as usize] = Some(StrategyReport::new(report));
        j.executed_cells += 1;
        if let Some(journal) = j.journal.as_mut() {
            journal.append(bytes);
        }
        if j.budget.is_some_and(|budget| j.executed_cells >= budget) {
            j.halted = true;
        }
    }

    fn cell_failed(&mut self, idx: usize, job: u32, cell: u32, fault: WireFault) {
        // Only a failure matching a live lease advances the attempt
        // counter — stale duplicates must not perturb the
        // deterministic quarantine decision.
        let Some(item) = self.take_lease(idx, job, cell) else {
            return;
        };
        let live = self.jobs.get(job as usize);
        if live.is_some_and(|j| j.reply.is_some() && !j.resolved(cell)) {
            self.fail_item(job, item, fault);
        }
    }

    /// Count one failed attempt against `item`'s cell: requeue within
    /// the policy budget, quarantine on exhaustion.
    fn fail_item(&mut self, job: u32, item: WorkItem, fault: WireFault) {
        let max_attempts = self.config.policy.max_attempts();
        let Some(j) = self.jobs.get_mut(job as usize) else {
            return;
        };
        let Some(cell_state) = j.cells.get_mut(item.cell as usize) else {
            return;
        };
        cell_state.fail_attempts += 1;
        if cell_state.fail_attempts >= max_attempts {
            cell_state.quarantined = Some(UnitFailure {
                unit: item.cell,
                attempts: cell_state.fail_attempts,
                fault: fault.to_unit_fault(),
            });
            // Sibling span parts of a quarantined cell are dead work:
            // drop them from the queue (in-flight ones are ignored on
            // arrival).
            j.pending.retain(|it| it.cell != item.cell);
        } else {
            j.pending.push_back(item);
        }
    }

    fn worker_gone(&mut self, idx: usize) {
        let Some(slot) = self.workers.get_mut(idx) else {
            return;
        };
        slot.writer = None;
        if let Some(lease) = slot.lease.take() {
            self.lease_lost(lease);
        }
    }

    /// A lease died with its worker (or expired): re-lease the item at
    /// the *same* attempt number, or quarantine past the loss budget.
    fn lease_lost(&mut self, lease: LeaseSlot) {
        let budget = self.config.lease_loss_budget;
        let Some(j) = self.jobs.get_mut(lease.job as usize) else {
            return;
        };
        j.outstanding = j.outstanding.saturating_sub(1);
        if j.reply.is_none() {
            return;
        }
        j.lease_losses += 1;
        let cell = lease.item.cell;
        if !j.resolved(cell) {
            let cell_state = &mut j.cells[cell as usize];
            cell_state.lease_losses += 1;
            if cell_state.lease_losses > budget {
                cell_state.quarantined = Some(UnitFailure {
                    unit: cell,
                    attempts: cell_state.fail_attempts,
                    fault: UnitFault::Timeout,
                });
                j.pending.retain(|it| it.cell != cell);
            } else {
                j.pending.push_back(lease.item);
            }
        }
    }

    /// Age outstanding leases by one tick; expire the overdue. An
    /// expired worker stays attached (it may just be slow — its late
    /// result is still pure and acceptable), but the item re-leases
    /// elsewhere.
    fn tick(&mut self) {
        for idx in 0..self.workers.len() {
            let slot = &mut self.workers[idx];
            if slot.ticks_left > 0 {
                slot.ticks_left -= 1;
            } else if let Some(lease) = slot.lease.take() {
                self.lease_lost(lease);
            }
        }
    }

    /// Hand pending items to idle workers until one side runs out.
    fn dispatch(&mut self) {
        loop {
            let Some(widx) = self
                .workers
                .iter()
                .position(|w| w.writer.is_some() && w.lease.is_none())
            else {
                return;
            };
            let Some(job_idx) = self
                .jobs
                .iter()
                .position(|j| j.reply.is_some() && !j.halted && !j.pending.is_empty())
            else {
                return;
            };
            let Some(item) = self.jobs[job_idx].pending.pop_front() else {
                continue;
            };
            let job = job_idx as u32;
            let attempt = self.jobs[job_idx]
                .cells
                .get(item.cell as usize)
                .map(|c| c.fail_attempts)
                .unwrap_or(0);
            let span = item.part.and_then(|p| {
                self.jobs[job_idx].cells[item.cell as usize]
                    .parts
                    .as_ref()
                    .and_then(|parts| parts.bounds.get(p as usize).copied())
            });
            let announce = if self.workers[widx].announced.contains(&job) {
                None
            } else {
                Some(Message::Job {
                    job,
                    spec: self.jobs[job_idx].spec_bytes.clone(),
                })
            };
            let mut sent = true;
            if let Some(msg) = announce {
                sent = self.send_to(widx, &msg);
                if sent {
                    self.workers[widx].announced.push(job);
                }
            }
            if sent {
                sent = self.send_to(
                    widx,
                    &Message::Lease {
                        job,
                        cell: item.cell,
                        attempt,
                        span,
                    },
                );
            }
            if sent {
                let slot = &mut self.workers[widx];
                slot.lease = Some(LeaseSlot { job, item });
                slot.ticks_left = self.config.lease_ticks;
                self.jobs[job_idx].outstanding += 1;
            } else {
                // Dead transport: detach the worker, requeue the item
                // at the front (no attempt consumed — the lease never
                // existed).
                self.jobs[job_idx].pending.push_front(item);
                self.workers[widx].writer = None;
            }
        }
    }

    fn send_to(&mut self, idx: usize, msg: &Message) -> bool {
        let Some(slot) = self.workers.get_mut(idx) else {
            return false;
        };
        let Some(writer) = slot.writer.as_mut() else {
            return false;
        };
        wire::send(&mut **writer, msg).is_ok()
    }
}

/// Per-worker reader thread: forwards frames to the scheduler until
/// the stream ends (cleanly or not — either way the worker is gone).
fn read_loop(idx: usize, mut read: Box<dyn Read + Send>, tx: Sender<Event>) {
    loop {
        match wire::recv(&mut *read) {
            Ok(Some(msg)) => {
                if tx.send(Event::FromWorker(idx, msg)).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(Event::WorkerGone(idx));
                return;
            }
            Err(WireError::Io(_)) | Err(_) => {
                let _ = tx.send(Event::WorkerGone(idx));
                return;
            }
        }
    }
}
