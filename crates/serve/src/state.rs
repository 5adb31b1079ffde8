//! Shared service state: the durable queue, admission control, breakers,
//! deadline registry, and the job/sweep tables every connection handler
//! and worker thread reads through one `Arc`. All of it but the journal
//! sits in one book behind one lock, and each transition of a job (submit,
//! dequeue, finish, commit, a status read) is a short section over it.

use crate::spec::JobSpec;
use rvv_ckpt::queue::{QueueJournal, QueueRecovery};
use rvv_ckpt::{fnv1a, fs_backend, write_atomic_on, StorageBackend};
use rvv_fault::ServeFault;
use scanvec::{CancelToken, Engine, EnvConfig, ExecEngine};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The journal tag binding a queue file to this service (see
/// [`QueueJournal::create`]): a resume against a journal some other tool
/// wrote is refused instead of misinterpreted.
pub const JOURNAL_TAG: &str = "rvv-serve/v1";

/// Everything the service is configured with at startup. Immutable once
/// the server is running — tenants share one policy.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads draining the queue.
    pub threads: usize,
    /// Admission-control queue depth: submissions beyond this many
    /// outstanding jobs are shed with 429 + Retry-After.
    pub queue_depth: usize,
    /// Durable queue journal path (`None` = in-memory only: no crash
    /// survival, used by throughput tests).
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of truncating it.
    pub resume: bool,
    /// Per-job wall-clock deadline, measured from the moment a worker
    /// starts the job; the deadline supervisor cancels overdue jobs
    /// cooperatively.
    pub deadline: Option<Duration>,
    /// Retries per failed job (attempts = retries + 1), spaced by the
    /// deterministic backoff schedule.
    pub retries: u32,
    /// Chaos seed: derive a [`ServeFault`] per submission/job (shed,
    /// latency, machine faults). `None` = no injected chaos.
    pub inject_seed: Option<u64>,
    /// Crash harness: `std::process::abort()` once this many *done*
    /// records have been journaled — a deterministic stand-in for
    /// `kill -9` mid-drain that the recovery tests drive.
    pub crash_after: Option<NonZeroU64>,
    /// Execution tier sessions run on.
    pub exec: ExecEngine,
    /// Consecutive poisoned (panicked) jobs on one configuration before
    /// its circuit breaker opens and further jobs are quarantined.
    pub breaker_threshold: u32,
    /// Engine-default instruction watchdog per attempt.
    pub watchdog: Option<u64>,
    /// Storage backend the journal runs on. `None` = the real filesystem;
    /// tests hand in a chaos backend to drive the degradation ladder
    /// deterministically.
    pub storage: Option<Arc<dyn StorageBackend>>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 2,
            queue_depth: 256,
            journal: None,
            resume: false,
            deadline: None,
            retries: 1,
            inject_seed: None,
            crash_after: None,
            exec: ExecEngine::Plan,
            breaker_threshold: 3,
            watchdog: Some(1_000_000_000),
            storage: None,
        }
    }
}

/// One job sitting in (or recovered into) the run queue.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Queue-assigned id (monotonic, journal-stable).
    pub id: u64,
    /// The sweep this job belongs to.
    pub sweep: u64,
    /// What to run.
    pub spec: JobSpec,
}

/// Where a job is in its lifecycle. `Done` holds the stable report line —
/// the only result form the service keeps (and journals).
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Accepted and journaled, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; the stable line is final.
    Done(String),
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The service is shutting down; nothing new is accepted.
    Draining,
    /// Admission control shed the submission (genuine overload or
    /// injected chaos): 429 + Retry-After.
    Overloaded,
    /// The spec failed validation; the message names the field.
    Invalid(String),
    /// Storage is degraded (a journal append failed now or earlier): the
    /// job is NOT accepted — the durability contract is
    /// journal-before-acknowledge, and acknowledging without a journal
    /// would be a silent lie. Clients see 503 and should retry elsewhere
    /// or later; in-flight jobs keep draining.
    Storage(String),
}

#[derive(Debug, Default)]
struct Breaker {
    consecutive_poisoned: u32,
    open: bool,
}

/// Monotonic service counters, all quarantined from job results: they
/// describe the service's behavior, not the sweeps'.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Jobs accepted (journaled and queued).
    pub submitted: AtomicU64,
    /// Jobs finished, any outcome.
    pub completed: AtomicU64,
    /// Jobs whose outcome was `Cancelled` (deadline or shutdown).
    pub cancelled: AtomicU64,
    /// Jobs refused by an open circuit breaker.
    pub quarantined: AtomicU64,
    /// Submissions shed by injected chaos (`/stats` `shed` counts only
    /// the groups refused for want of room).
    pub injected_shed: AtomicU64,
    /// Retry attempts consumed across all jobs.
    pub retries: AtomicU64,
    /// Done records journaled (the crash harness counts these).
    pub done_records: AtomicU64,
    /// Done-record batches written to the journal, one write and one
    /// fsync each.
    pub done_commits: AtomicU64,
    /// Journal appends that failed (each one trips or re-confirms the
    /// storage breaker).
    pub journal_errors: AtomicU64,
    /// Times a poisoned lock was recovered instead of propagating the
    /// panic to the next caller.
    pub lock_poisoned: AtomicU64,
    /// Journal records quarantined by salvage during the last resume.
    pub salvaged: AtomicU64,
}

/// A finished job whose done record waits for the commit stage.
#[derive(Debug)]
struct Completion {
    id: u64,
    sweep: u64,
    line: String,
    attempts: u32,
    cancelled: bool,
}

/// The done records [`ServeState::finish`] queued for the committer.
#[derive(Debug, Default)]
struct CommitQueue {
    pending: Vec<Completion>,
    /// A committer thread runs: `finish` queues instead of committing.
    running: bool,
    /// The committer exits once `pending` is empty.
    stop: bool,
}

/// Every piece of the service's bookkeeping, behind the one book lock.
/// Each transition of a job is one critical section over it.
#[derive(Debug, Default)]
struct Book {
    queue: VecDeque<QueuedJob>,
    commits: CommitQueue,
    jobs: BTreeMap<u64, JobStatus>,
    sweeps: BTreeMap<u64, Vec<u64>>,
    breakers: HashMap<EnvConfig, Breaker>,
    deadlines: Vec<(Instant, u64, CancelToken)>,
    /// Admission: at most `capacity` jobs admitted and not yet committed.
    capacity: usize,
    depth: usize,
    admitted: u64,
    /// Admission groups refused because they would exceed `capacity`.
    shed: u64,
    high_water: usize,
    next_job_id: u64,
    next_sweep_id: u64,
    /// Submissions seen (the chaos shed's ordinal).
    submissions: u64,
    draining: bool,
    storage_degraded: bool,
}

impl Book {
    /// Admit `n` jobs all or nothing: a sweep is never half-accepted. A
    /// refused group counts as shed.
    fn admit(&mut self, n: usize) -> bool {
        if self.depth + n > self.capacity {
            self.shed += 1;
            return false;
        }
        self.depth += n;
        self.admitted += n as u64;
        self.high_water = self.high_water.max(self.depth);
        true
    }

    /// Pop the next job and mark it running.
    fn dequeue(&mut self) -> Option<QueuedJob> {
        let job = self.queue.pop_front()?;
        self.jobs.insert(job.id, JobStatus::Running);
        Some(job)
    }

    fn note_breaker(&mut self, cfg: &EnvConfig, poisoned: bool, threshold: u32) {
        let b = self.breakers.entry(*cfg).or_default();
        if poisoned {
            b.consecutive_poisoned += 1;
            if b.consecutive_poisoned >= threshold {
                b.open = true;
            }
        } else {
            b.consecutive_poisoned = 0;
        }
    }
}

/// The shared state behind one service instance.
///
/// Two locks: the book and the journal. They are never held together,
/// and the book is never held across I/O, simulation, or the
/// acknowledgment; the journal lock is the only one held across a write
/// and fsync.
pub struct ServeState {
    /// The engine every worker session comes from.
    pub engine: Arc<Engine>,
    /// Startup configuration.
    pub opts: ServeOptions,
    /// Service counters.
    pub counters: ServeCounters,
    book: Mutex<Book>,
    /// Signalled on the book when jobs enter the run queue or a drain
    /// begins.
    available: Condvar,
    /// Signalled on the book when a done record is queued or the
    /// committer is told to stop.
    commit_ready: Condvar,
    journal: Option<Mutex<QueueJournal>>,
    storage: Arc<dyn StorageBackend>,
}

fn encode_payload(sweep: u64, text: &str) -> Vec<u8> {
    format!("sweep={sweep} {text}").into_bytes()
}

/// Split a replayed payload into its sweep id and its text. The
/// `sweep=<id> ` prefix is drained in place, so the text keeps the
/// payload's allocation.
fn decode_payload(payload: Vec<u8>) -> io::Result<(u64, String)> {
    let bad = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "queue payload missing sweep= prefix",
        )
    };
    let mut text = String::from_utf8(payload).map_err(|_| bad())?;
    let rest = text.strip_prefix("sweep=").ok_or_else(bad)?;
    let (sid, body) = rest.split_once(' ').ok_or_else(bad)?;
    let sid: u64 = sid.parse().map_err(|_| bad())?;
    let body_at = text.len() - body.len();
    text.drain(..body_at);
    Ok((sid, text))
}

impl ServeState {
    /// Build the state: construct the engine, open (or resume) the
    /// journal, and re-enqueue any pending work a crash left behind.
    pub fn new(opts: ServeOptions) -> io::Result<Arc<ServeState>> {
        let mut builder = Engine::builder().default_exec_engine(opts.exec);
        if let Some(fuel) = opts.watchdog {
            builder = builder.default_fuel_budget(fuel);
        }
        let engine = Arc::new(builder.build());
        let storage = opts.storage.clone().unwrap_or_else(fs_backend);
        let mut journal = None;
        let mut recovery = QueueRecovery::default();
        if let Some(path) = &opts.journal {
            if opts.resume && storage.exists(path) {
                let (j, r) = QueueJournal::resume_on(&storage, path, JOURNAL_TAG, 1)?;
                journal = Some(Mutex::new(j));
                recovery = r;
            } else {
                journal = Some(Mutex::new(QueueJournal::create_on(
                    &storage,
                    path,
                    JOURNAL_TAG,
                    1,
                )?));
            }
        }
        let state = ServeState {
            engine,
            counters: ServeCounters::default(),
            book: Mutex::new(Book {
                capacity: opts.queue_depth.max(1),
                next_job_id: 1,
                next_sweep_id: 1,
                ..Book::default()
            }),
            opts,
            available: Condvar::new(),
            commit_ready: Condvar::new(),
            journal,
            storage,
        };
        state.restore(recovery)?;
        Ok(Arc::new(state))
    }

    /// Lock one of the state's two mutexes, recovering from poison
    /// instead of propagating it: one panicking handler thread must not
    /// brick every subsequent request. The book a panicked holder may
    /// have left half-updated describes *job bookkeeping*, not results —
    /// recovered state is at worst missing one status transition, which
    /// the counters surface via `lock_poisoned` in `/stats`.
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|poisoned| self.recovered(poisoned))
    }

    fn recovered<G>(&self, poisoned: PoisonError<G>) -> G {
        self.counters.lock_poisoned.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    }

    fn book(&self) -> MutexGuard<'_, Book> {
        self.lock(&self.book)
    }

    /// Fold a journal replay back into live state, consuming it: completed
    /// jobs keep their recorded lines verbatim, each in the allocation the
    /// replay made (this is what makes post-crash digests byte-identical),
    /// and pending jobs re-enter the queue. The book is filled in one
    /// section, before any thread exists.
    /// Quarantined (salvaged) ranges are surfaced — counted in `/stats`,
    /// logged, and written to a `<journal>.salvage.txt` manifest — and
    /// their lost work is already accounted for by the queue replay: a
    /// lost done re-pends its job for deterministic re-execution, a lost
    /// submit is reconstructed from its surviving done.
    fn restore(&self, recovery: QueueRecovery) -> io::Result<()> {
        if !recovery.salvage.is_empty() {
            self.counters
                .salvaged
                .fetch_add(recovery.salvage.len() as u64, Ordering::Relaxed);
            let mut manifest = String::new();
            for entry in &recovery.salvage {
                eprintln!("serve: journal salvage: {entry}");
                manifest.push_str(&entry.to_string());
                manifest.push('\n');
            }
            if let Some(path) = &self.opts.journal {
                let mut name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                name.push_str(".salvage.txt");
                let manifest_path = path.with_file_name(name);
                if let Err(e) = write_atomic_on(&self.storage, &manifest_path, manifest.as_bytes())
                {
                    eprintln!(
                        "serve: could not write salvage manifest {}: {e}",
                        manifest_path.display()
                    );
                }
            }
        }
        if recovery.max_id == 0 {
            return Ok(());
        }
        let mut book = self.book();
        let book = &mut *book;
        let mut max_sweep = 0u64;
        for item in recovery.completed {
            let (sid, line) = decode_payload(item.payload)?;
            book.jobs.insert(item.id, JobStatus::Done(line));
            book.sweeps.entry(sid).or_default().push(item.id);
            max_sweep = max_sweep.max(sid);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        let pending = recovery.pending.len();
        if pending > 0 && !book.admit(pending) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "journal has {pending} pending jobs but --queue-depth is {}; restart with a deeper queue",
                    book.capacity
                ),
            ));
        }
        for item in recovery.pending {
            let (sid, text) = decode_payload(item.payload)?;
            let spec: JobSpec = text.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journaled spec `{text}`: {e}"),
                )
            })?;
            book.jobs.insert(item.id, JobStatus::Queued);
            book.sweeps.entry(sid).or_default().push(item.id);
            max_sweep = max_sweep.max(sid);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            book.queue.push_back(QueuedJob {
                id: item.id,
                sweep: sid,
                spec,
            });
        }
        // Job ids inside a sweep are assigned in submit order; the maps
        // above were folded from (completed, pending) partitions, so
        // re-sort for stable digest ordering.
        for ids in book.sweeps.values_mut() {
            ids.sort_unstable();
        }
        book.next_job_id = recovery.max_id + 1;
        book.next_sweep_id = max_sweep + 1;
        Ok(())
    }

    /// Admit one sweep of `specs` all-or-nothing: validate, (maybe) shed,
    /// journal every submit record durably, then queue. The acknowledged
    /// ids are durable before this returns.
    pub fn submit(&self, specs: &[JobSpec]) -> Result<(u64, Vec<u64>), SubmitError> {
        self.submit_with_ack(specs, |_, _| {})
    }

    /// [`ServeState::submit`], calling `ack(sweep, ids)` once the submit
    /// records are durable and the sweep is visible to status queries,
    /// but before its jobs enter the run queue. The server writes its 202
    /// there, holding no lock: no job of the sweep can run, finish, or
    /// trip the crash harness before the client has its acknowledgment.
    pub fn submit_with_ack(
        &self,
        specs: &[JobSpec],
        ack: impl FnOnce(u64, &[u64]),
    ) -> Result<(u64, Vec<u64>), SubmitError> {
        if specs.is_empty() {
            return Err(SubmitError::Invalid("empty submission".to_string()));
        }
        let (sweep, ids) = self.admit(specs)?;
        // Journal-before-acknowledge: all submit records are on disk
        // before the client hears "accepted" — one write and one fsync for
        // the whole sweep. A failed append un-admits the whole sweep and
        // trips the storage breaker.
        if let Some(journal) = &self.journal {
            let payloads: Vec<Vec<u8>> = specs
                .iter()
                .map(|spec| encode_payload(sweep, &spec.to_string()))
                .collect();
            let appended = self
                .lock(journal)
                .submit_all(ids.iter().copied().zip(payloads.iter().map(Vec::as_slice)));
            if let Err(e) = appended {
                self.trip_storage(&e, specs.len());
                return Err(SubmitError::Storage(e.to_string()));
            }
        }
        {
            let mut book = self.book();
            for id in &ids {
                book.jobs.insert(*id, JobStatus::Queued);
            }
            book.sweeps.insert(sweep, ids.clone());
        }
        ack(sweep, &ids);
        {
            let mut book = self.book();
            for (id, spec) in ids.iter().zip(specs) {
                book.queue.push_back(QueuedJob {
                    id: *id,
                    sweep,
                    spec: *spec,
                });
            }
            self.counters
                .submitted
                .fetch_add(specs.len() as u64, Ordering::Relaxed);
        }
        self.available.notify_all();
        Ok((sweep, ids))
    }

    /// The submit's first section: refuse while draining or degraded,
    /// validate, run the chaos shed, admit the sweep and assign its ids.
    fn admit(&self, specs: &[JobSpec]) -> Result<(u64, Vec<u64>), SubmitError> {
        let mut book = self.book();
        if book.draining {
            return Err(SubmitError::Draining);
        }
        if book.storage_degraded {
            // The storage breaker is open: new work cannot be made
            // durable, so it is shed *before* admission — no slot, no
            // journal attempt, no false acknowledgment.
            return Err(SubmitError::Storage(
                "storage degraded: journal unavailable".to_string(),
            ));
        }
        for spec in specs {
            self.engine
                .validate(&spec.config())
                .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        }
        // Injected chaos sheds whole submissions by ordinal — the
        // deterministic stand-in for overload (see `ServeFault`).
        let ordinal = book.submissions;
        book.submissions += 1;
        if let Some(seed) = self.opts.inject_seed {
            if ServeFault::derive(seed, ordinal).shed {
                self.counters.injected_shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded);
            }
        }
        if !book.admit(specs.len()) {
            return Err(SubmitError::Overloaded);
        }
        let sweep = book.next_sweep_id;
        book.next_sweep_id += 1;
        let first = book.next_job_id;
        book.next_job_id += specs.len() as u64;
        Ok((sweep, (first..book.next_job_id).collect()))
    }

    /// Pop the next queued job and mark it running, if there is one.
    pub(crate) fn try_next_job(&self) -> Option<QueuedJob> {
        self.book().dequeue()
    }

    /// Block until a job is available or the service is draining with an
    /// empty queue (then `None`: the worker exits).
    pub fn next_job(&self) -> Option<QueuedJob> {
        loop {
            if let Some(job) = self.try_next_job() {
                return Some(job);
            }
            let book = self.book();
            if book.queue.is_empty() {
                if book.draining {
                    return None;
                }
                let waited = self.available.wait_timeout(book, Duration::from_millis(50));
                drop(waited.unwrap_or_else(|poisoned| self.recovered(poisoned)));
            }
        }
    }

    /// Open the storage circuit breaker: note the failure, return
    /// `release` admission slots, flip `/healthz` to degraded, and start
    /// shedding new submissions while in-flight jobs drain.
    fn trip_storage(&self, err: &io::Error, release: usize) {
        self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
        let tripped = {
            let mut book = self.book();
            book.depth -= release;
            !std::mem::replace(&mut book.storage_degraded, true)
        };
        if tripped {
            eprintln!("serve: storage degraded (journal append failed): {err}");
        }
    }

    /// Is the storage breaker open?
    pub fn storage_is_degraded(&self) -> bool {
        self.book().storage_degraded
    }

    /// The per-job chaos decisions (latency, machine faults), or quiet.
    pub fn chaos_for(&self, job_id: u64) -> ServeFault {
        match self.opts.inject_seed {
            Some(seed) => ServeFault::derive(seed, job_id),
            None => ServeFault::none(),
        }
    }

    /// Register a running job with the deadline supervisor; returns the
    /// token the job must run under (or `None` when no deadline is set).
    pub fn arm_deadline(&self, job_id: u64) -> Option<CancelToken> {
        let deadline = self.opts.deadline?;
        let token = CancelToken::new();
        self.book()
            .deadlines
            .push((Instant::now() + deadline, job_id, token.clone()));
        Some(token)
    }

    /// Supervisor tick: cancel every registered token whose deadline has
    /// passed. Cancellation is cooperative — the worker observes the token
    /// at the next instruction boundary and reports `Cancelled`.
    pub fn cancel_overdue(&self, now: Instant) -> usize {
        let mut fired = 0;
        self.book().deadlines.retain(|(at, _, token)| {
            if *at <= now {
                token.cancel();
                fired += 1;
                false
            } else {
                true
            }
        });
        fired
    }

    /// Record a finished job. In one section the job's deadline is
    /// disarmed, its configuration's breaker sees the outcome, and the
    /// done record goes to the commit stage: queued for the committer
    /// thread while a server runs one. Otherwise it is committed here,
    /// durably. Either way the job flips to done only once its record is
    /// durable.
    pub fn finish(
        &self,
        job: &QueuedJob,
        line: String,
        attempts: u32,
        poisoned: bool,
        cancelled: bool,
    ) {
        let done = Completion {
            id: job.id,
            sweep: job.sweep,
            line,
            attempts,
            cancelled,
        };
        let cfg = job.spec.config();
        let inline = {
            let mut book = self.book();
            book.deadlines.retain(|(_, id, _)| *id != job.id);
            book.note_breaker(&cfg, poisoned, self.opts.breaker_threshold);
            if book.commits.running {
                book.commits.pending.push(done);
                None
            } else {
                Some(done)
            }
        };
        match inline {
            Some(done) => self.commit(vec![done]),
            None => self.commit_ready.notify_one(),
        }
    }

    /// The commit stage: journal `batch`'s done records with one write and
    /// one fsync, and only then, in one book section, count the jobs,
    /// flip them to `Done` and release their admission slots. When the
    /// crash harness is armed, the batch is cut at the configured done
    /// record and the process aborts the instant that record is durable.
    ///
    /// Infallible by design: a failed append trips the storage breaker
    /// (new submissions shed with 503) but every completion in the batch
    /// still lands in memory, so in-flight work drains to clients instead
    /// of wedging. An un-journaled completion is the safe loss: after a
    /// crash the job replays as pending and re-runs deterministically.
    fn commit(&self, batch: Vec<Completion>) {
        let mut failed = None;
        if let Some(journal) = &self.journal {
            let mut journal = self.lock(journal);
            let done = self.counters.done_records.load(Ordering::SeqCst);
            let crash_after = self.opts.crash_after.map(NonZeroU64::get);
            let cut = match crash_after {
                Some(n) if n > done => {
                    usize::try_from(n - done).map_or(batch.len(), |k| k.min(batch.len()))
                }
                _ => batch.len(),
            };
            let payloads: Vec<Vec<u8>> = batch[..cut]
                .iter()
                .map(|c| encode_payload(c.sweep, &c.line))
                .collect();
            let records = batch
                .iter()
                .zip(&payloads)
                .map(|(c, p)| (c.id, p.as_slice()));
            match journal.complete_all(records) {
                Ok(()) => {
                    let done = self
                        .counters
                        .done_records
                        .fetch_add(cut as u64, Ordering::SeqCst)
                        + cut as u64;
                    self.counters.done_commits.fetch_add(1, Ordering::Relaxed);
                    if crash_after == Some(done) {
                        // The crash harness: die as unceremoniously as
                        // `kill -9` (no unwinding, no drop glue, no drain)
                        // the instant the configured done record is durable.
                        std::process::abort();
                    }
                }
                Err(e) => failed = Some(e),
            }
        } else {
            self.counters
                .done_records
                .fetch_add(batch.len() as u64, Ordering::SeqCst);
        }
        if let Some(e) = failed {
            self.trip_storage(&e, 0);
        }
        // Counted in the section that flips the jobs, so a client that
        // sees its sweep complete reads counters that include it.
        let count = batch.len();
        let retries = batch
            .iter()
            .map(|c| u64::from(c.attempts.saturating_sub(1)))
            .sum();
        let cancelled = batch.iter().filter(|c| c.cancelled).count();
        let mut book = self.book();
        self.counters
            .completed
            .fetch_add(count as u64, Ordering::Relaxed);
        self.counters.retries.fetch_add(retries, Ordering::Relaxed);
        self.counters
            .cancelled
            .fetch_add(cancelled as u64, Ordering::Relaxed);
        for c in batch {
            book.jobs.insert(c.id, JobStatus::Done(c.line));
        }
        book.depth -= count;
    }

    /// Take every done record queued since the last commit and commit
    /// them together. Returns whether there was anything to commit.
    pub(crate) fn commit_pending(&self) -> bool {
        let batch = std::mem::take(&mut self.book().commits.pending);
        if batch.is_empty() {
            return false;
        }
        self.commit(batch);
        true
    }

    /// Start the commit stage's thread: from now on
    /// [`ServeState::finish`] queues done records for it. End it with
    /// [`ServeState::join_committer`].
    pub(crate) fn spawn_committer(self: &Arc<Self>) -> JoinHandle<()> {
        {
            let mut book = self.book();
            book.commits.running = true;
            book.commits.stop = false;
        }
        let state = Arc::clone(self);
        thread::spawn(move || state.commit_loop())
    }

    /// The committer: commit whatever is queued, until told to stop with
    /// nothing queued; then, in the same section, hand `finish` back its
    /// inline commit.
    fn commit_loop(&self) {
        loop {
            {
                let mut book = self.book();
                while book.commits.pending.is_empty() && !book.commits.stop {
                    book = self
                        .commit_ready
                        .wait(book)
                        .unwrap_or_else(|poisoned| self.recovered(poisoned));
                }
                if book.commits.pending.is_empty() {
                    book.commits.running = false;
                    return;
                }
            }
            self.commit_pending();
        }
    }

    /// Stop the committer once it has committed everything queued, and
    /// join it. Later calls to `finish` commit inline again.
    pub(crate) fn join_committer(&self, committer: JoinHandle<()>) {
        self.book().commits.stop = true;
        self.commit_ready.notify_all();
        let _ = committer.join();
    }

    /// Is the breaker for `cfg` open (jobs on it quarantined)?
    pub fn breaker_open(&self, cfg: &EnvConfig) -> bool {
        self.book().breakers.get(cfg).is_some_and(|b| b.open)
    }

    /// The quarantine line for a breaker-refused job: stable (pure
    /// function of the spec) so quarantined sweeps still digest
    /// deterministically when the poisons themselves are deterministic.
    pub fn quarantine_line(&self, job: &QueuedJob) -> String {
        let cfg = job.spec.config();
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        format!(
            "job-{} cfg=vlen{}/{:?}/{:?} quarantined=breaker-open",
            job.id, cfg.vlen, cfg.lmul, cfg.spill_profile
        )
    }

    /// Close every breaker and zero its failure count (the operator's
    /// `POST /breakers/reset`). The storage breaker resets too — if the
    /// journal is still broken, the next append re-trips it. Returns how
    /// many were open (counting storage).
    pub fn reset_breakers(&self) -> usize {
        let mut book = self.book();
        let open = book.breakers.values().filter(|b| b.open).count();
        book.breakers.clear();
        open + usize::from(std::mem::take(&mut book.storage_degraded))
    }

    /// Stop accepting work; wake every worker so the drain can finish.
    pub fn begin_drain(&self) {
        self.book().draining = true;
        self.available.notify_all();
    }

    /// Is the service draining?
    pub fn is_draining(&self) -> bool {
        self.book().draining
    }

    /// Force the journal to disk (graceful-shutdown path).
    pub fn sync_journal(&self) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            let synced = self.lock(journal).sync();
            if let Err(e) = synced {
                self.trip_storage(&e, 0);
                return Err(e);
            }
        }
        Ok(())
    }

    /// One job's status line, or `None` for an unknown id.
    pub fn job_text(&self, id: u64) -> Option<String> {
        let book = self.book();
        Some(match book.jobs.get(&id)? {
            JobStatus::Queued => format!("job {id} queued\n"),
            JobStatus::Running => format!("job {id} running\n"),
            JobStatus::Done(line) => format!("job {id} done\n{line}\n"),
        })
    }

    /// One sweep's status: progress while running; on completion the
    /// stable lines in job-id order plus their FNV-1a digest — the bytes
    /// the crash-recovery contract compares. The lines are copied in one
    /// section and formatted and hashed outside it.
    pub fn sweep_text(&self, id: u64) -> Option<String> {
        let (jobs, body) = {
            let book = self.book();
            let ids = book.sweeps.get(&id)?;
            let mut lines = Vec::with_capacity(ids.len());
            for job_id in ids {
                match book.jobs.get(job_id) {
                    Some(JobStatus::Done(line)) => lines.push(line.as_str()),
                    _ => {
                        return Some(format!("pending {}/{} jobs done\n", lines.len(), ids.len()));
                    }
                }
            }
            let mut body = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
            for line in lines {
                body.push_str(line);
                body.push('\n');
            }
            (ids.len(), body)
        };
        Some(format!(
            "complete jobs={jobs}\ndigest={:#018x}\n{body}",
            fnv1a(body.as_bytes())
        ))
    }

    /// The `/stats` body: service counters, queue state, engine health,
    /// read in one book section.
    pub fn stats_text(&self) -> String {
        let health = self.engine.health();
        let book = self.book();
        format!(
            "submitted={}\ncompleted={}\ncancelled={}\nquarantined={}\nretries={}\n\
             queue_depth={}\nqueue_capacity={}\nqueue_high_water={}\n\
             shed={}\ninjected_shed={}\nadmitted={}\n\
             sessions_created={}\nsessions_poisoned={}\nbreakers_open={}\ndraining={}\n\
             storage_degraded={}\njournal_errors={}\ndone_records={}\ndone_commits={}\n\
             salvaged_records={}\nlock_poisoned={}\n",
            self.counters.submitted.load(Ordering::Relaxed),
            self.counters.completed.load(Ordering::Relaxed),
            self.counters.cancelled.load(Ordering::Relaxed),
            self.counters.quarantined.load(Ordering::Relaxed),
            self.counters.retries.load(Ordering::Relaxed),
            book.depth,
            book.capacity,
            book.high_water,
            book.shed,
            self.counters.injected_shed.load(Ordering::Relaxed),
            book.admitted,
            health.sessions_created(),
            health.sessions_poisoned(),
            book.breakers.values().filter(|b| b.open).count(),
            book.draining,
            book.storage_degraded,
            self.counters.journal_errors.load(Ordering::Relaxed),
            self.counters.done_records.load(Ordering::Relaxed),
            self.counters.done_commits.load(Ordering::Relaxed),
            self.counters.salvaged.load(Ordering::Relaxed),
            self.counters.lock_poisoned.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    use super::*;

    impl ServeState {
        fn note_breaker(&self, cfg: &EnvConfig, poisoned: bool) {
            let threshold = self.opts.breaker_threshold;
            self.book().note_breaker(cfg, poisoned, threshold);
        }
    }

    fn specs(texts: &[&str]) -> Vec<JobSpec> {
        texts.iter().map(|t| t.parse().unwrap()).collect()
    }

    #[test]
    fn submit_assigns_monotonic_ids_and_tracks_status() {
        let state = ServeState::new(ServeOptions::default()).unwrap();
        let (s1, ids1) = state
            .submit(&specs(&["plus_scan n=64", "p_add n=32"]))
            .unwrap();
        let (s2, ids2) = state.submit(&specs(&["radix_sort n=16"])).unwrap();
        assert_eq!(ids1, vec![1, 2]);
        assert_eq!(ids2, vec![3]);
        assert_ne!(s1, s2);
        assert_eq!(state.book().depth, 3);
        assert!(state.job_text(1).unwrap().contains("queued"));
        assert!(state.job_text(99).is_none());
        assert!(state.sweep_text(s1).unwrap().starts_with("pending 0/2"));
    }

    #[test]
    fn the_acknowledgment_comes_before_the_jobs_can_run() {
        let state = ServeState::new(ServeOptions::default()).unwrap();
        let mut acked = None;
        let (sweep, ids) = state
            .submit_with_ack(&specs(&["p_add n=8", "p_add n=16"]), |sweep, ids| {
                // A client polling right after its 202 finds the sweep…
                assert_eq!(state.sweep_text(sweep).unwrap(), "pending 0/2 jobs done\n");
                // …but no worker can have dequeued a job of it yet.
                assert!(state.book().queue.is_empty());
                acked = Some((sweep, ids.to_vec()));
            })
            .unwrap();
        assert_eq!(acked, Some((sweep, ids)));
        assert_eq!(state.book().queue.len(), 2);
    }

    #[test]
    fn overload_and_drain_refuse_submissions() {
        let state = ServeState::new(ServeOptions {
            queue_depth: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        assert!(state.submit(&specs(&["p_add n=8", "p_add n=8"])).is_ok());
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Overloaded)
        ));
        assert_eq!(state.book().shed, 1);
        state.begin_drain();
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Draining)
        ));
    }

    #[test]
    fn invalid_specs_are_refused_before_admission() {
        let state = ServeState::new(ServeOptions::default()).unwrap();
        let bad = JobSpec {
            vlen: 48, // not a power of two: Engine::validate refuses
            ..JobSpec::default()
        };
        assert!(matches!(state.submit(&[bad]), Err(SubmitError::Invalid(_))));
        assert_eq!(state.book().depth, 0, "nothing admitted");
    }

    #[test]
    fn breakers_open_after_consecutive_poisons_and_reset() {
        let state = ServeState::new(ServeOptions {
            breaker_threshold: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        let cfg = JobSpec::default().config();
        state.note_breaker(&cfg, true);
        assert!(!state.breaker_open(&cfg));
        state.note_breaker(&cfg, true);
        assert!(state.breaker_open(&cfg));
        // A success on a *different* config does not close it.
        let other = JobSpec {
            vlen: 128,
            ..JobSpec::default()
        }
        .config();
        state.note_breaker(&other, false);
        assert!(state.breaker_open(&cfg));
        assert_eq!(state.reset_breakers(), 1);
        assert!(!state.breaker_open(&cfg));
    }

    #[test]
    fn deadline_supervisor_cancels_only_overdue_tokens() {
        let state = ServeState::new(ServeOptions {
            deadline: Some(Duration::from_secs(3600)),
            ..ServeOptions::default()
        })
        .unwrap();
        let token = state.arm_deadline(7).unwrap();
        assert_eq!(state.cancel_overdue(Instant::now()), 0);
        assert!(!token.is_cancelled());
        assert_eq!(
            state.cancel_overdue(Instant::now() + Duration::from_secs(7200)),
            1
        );
        assert!(token.is_cancelled());
        // Disarmed on finish: a second tick has nothing left.
        assert_eq!(
            state.cancel_overdue(Instant::now() + Duration::from_secs(7200)),
            0
        );
    }

    #[test]
    fn poisoned_locks_recover_instead_of_bricking_the_service() {
        let state = ServeState::new(ServeOptions::default()).unwrap();
        state.submit(&specs(&["p_add n=8"])).unwrap();
        // Poison the jobs mutex: a handler thread panics while holding it.
        let s = Arc::clone(&state);
        std::thread::spawn(move || {
            let _guard = s.book.lock().unwrap();
            panic!("injected handler panic");
        })
        .join()
        .unwrap_err();
        assert!(state.book.is_poisoned());
        // Every subsequent request still works, and the recovery is
        // surfaced in the counters + /stats.
        assert!(state.job_text(1).unwrap().contains("queued"));
        assert!(state.sweep_text(1).is_some());
        assert!(state.submit(&specs(&["p_add n=8"])).is_ok());
        assert!(state.counters.lock_poisoned.load(Ordering::Relaxed) >= 1);
        let stats = state.stats_text();
        assert!(stats.contains("lock_poisoned="), "{stats}");
        assert!(!stats.contains("lock_poisoned=0"), "{stats}");
    }

    #[test]
    fn journal_failure_trips_the_storage_breaker_and_sheds() {
        use rvv_ckpt::{ChaosBackend, ChaosPlan};
        // Write op 0 is the journal header; op 1 is the first submit
        // record; everything after fails hard (the disk went away).
        let chaos = Arc::new(ChaosBackend::new(ChaosPlan {
            fail_writes_after: Some(2),
            ..ChaosPlan::quiet()
        }));
        let state = ServeState::new(ServeOptions {
            journal: Some(PathBuf::from("/j/q.journal")),
            storage: Some(chaos as Arc<dyn StorageBackend>),
            queue_depth: 16,
            ..ServeOptions::default()
        })
        .unwrap();
        let (_sweep, ids) = state.submit(&specs(&["p_add n=8"])).unwrap();
        assert!(!state.storage_is_degraded());
        // The second submit's journal append fails: un-admitted, breaker
        // trips, the client hears Storage (503), never a false "accepted".
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Storage(_))
        ));
        assert!(state.storage_is_degraded());
        assert_eq!(state.book().depth, 1, "failed sweep released its slot");
        // While degraded, submissions are shed before admission…
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Storage(_))
        ));
        // …but the accepted in-flight job still drains: its done-record
        // append fails too, yet the completion lands in memory.
        let job = QueuedJob {
            id: ids[0],
            sweep: 1,
            spec: "p_add n=8".parse().unwrap(),
        };
        state.finish(&job, "job-1 ok".to_string(), 1, false, false);
        assert!(state.job_text(ids[0]).unwrap().contains("done"));
        assert_eq!(state.book().depth, 0, "drained");
        let stats = state.stats_text();
        assert!(stats.contains("storage_degraded=true"), "{stats}");
        assert!(state.counters.journal_errors.load(Ordering::Relaxed) >= 2);
        // The operator reset closes the storage breaker too.
        assert!(state.reset_breakers() >= 1);
        assert!(!state.storage_is_degraded());
    }

    #[test]
    fn chaos_sheds_are_deterministic_per_seed() {
        let run = || {
            let state = ServeState::new(ServeOptions {
                inject_seed: Some(42),
                queue_depth: 4096,
                ..ServeOptions::default()
            })
            .unwrap();
            let spec = specs(&["p_add n=8"]);
            (0..64)
                .map(|_| matches!(state.submit(&spec), Err(SubmitError::Overloaded)))
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same shed pattern");
        assert!(a.iter().any(|&s| s), "seed 42 sheds at least once in 64");
        assert!(!a.iter().all(|&s| s), "and accepts at least once");
    }

    /// Eight specs, one per body line of a typical sweep.
    const SWEEP: [&str; 8] = [
        "p_add n=8 seed=1",
        "plus_scan n=64 vlen=256 seed=2",
        "seg_scan n=40 vlen=128 seed=3",
        "radix_sort n=16 seed=4",
        "p_add n=100 vlen=512 lmul=m2 seed=5",
        "plus_scan n=7 seed=6",
        "seg_scan n=90 lmul=m4 seed=7",
        "radix_sort n=33 vlen=1024 seed=8",
    ];

    fn chaos_options(chaos: &Arc<rvv_ckpt::ChaosBackend>, resume: bool) -> ServeOptions {
        ServeOptions {
            journal: Some(PathBuf::from("/j/q.journal")),
            storage: Some(Arc::clone(chaos) as Arc<dyn StorageBackend>),
            resume,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn a_sweep_is_journaled_with_one_write_and_one_sync() {
        use rvv_ckpt::{ChaosBackend, ChaosPlan};
        let path = PathBuf::from("/j/q.journal");
        let sweep = specs(&SWEEP);
        let chaos = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        let state = ServeState::new(chaos_options(&chaos, false)).unwrap();
        let before = chaos.ops();
        let (sweep_id, ids) = state.submit(&sweep).unwrap();
        assert_eq!(chaos.ops() - before, 2, "one write, one fsync");
        // The bytes are those of one single-record submit per job.
        let single = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        let backend: Arc<dyn StorageBackend> = single.clone();
        let mut q = QueueJournal::create_on(&backend, &path, JOURNAL_TAG, 1).unwrap();
        for (id, spec) in ids.iter().zip(&sweep) {
            q.submit(*id, &encode_payload(sweep_id, &spec.to_string()))
                .unwrap();
        }
        assert_eq!(chaos.contents(&path), single.contents(&path));
    }

    /// Finish every queued job as if a commit were running, so that
    /// their done records wait in the commit queue; returns their lines.
    /// [`ServeState::commit_loop`] then commits them in one batch and
    /// returns.
    fn finish_during_a_commit(state: &ServeState) -> Vec<(u64, String)> {
        {
            let mut book = state.book();
            book.commits.running = true;
            book.commits.stop = true;
        }
        let jobs: Vec<QueuedJob> = state.book().queue.drain(..).collect();
        jobs.iter()
            .map(|job| {
                let line = format!("job-{} ok", job.id);
                state.finish(job, line.clone(), 1, false, false);
                (job.id, line)
            })
            .collect()
    }

    #[test]
    fn done_records_queued_during_a_commit_go_out_in_one_write_and_one_sync() {
        use rvv_ckpt::{ChaosBackend, ChaosPlan};
        let path = PathBuf::from("/j/q.journal");
        let sweep = specs(&SWEEP);
        let chaos = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        let state = ServeState::new(chaos_options(&chaos, false)).unwrap();
        let (sweep_id, ids) = state.submit(&sweep).unwrap();
        let before = chaos.ops();
        let lines = finish_during_a_commit(&state);
        // Until the commit, no job is done: nothing is on disk, the sweep
        // reads pending and every job still holds its admission slot.
        assert_eq!(chaos.ops(), before);
        assert_eq!(
            state.sweep_text(sweep_id).unwrap(),
            "pending 0/8 jobs done\n"
        );
        assert_eq!(state.book().depth, 8);
        assert_eq!(state.counters.completed.load(Ordering::Relaxed), 0);

        state.commit_loop();
        assert_eq!(chaos.ops() - before, 2, "one write, one fsync");
        assert!(state
            .sweep_text(sweep_id)
            .unwrap()
            .starts_with("complete jobs=8\n"));
        assert_eq!(state.book().depth, 0);
        let stats = state.stats_text();
        assert!(
            stats.contains("\ndone_records=8\ndone_commits=1\n"),
            "{stats}"
        );
        // The bytes are those of one single-record complete per job.
        let single = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        let backend: Arc<dyn StorageBackend> = single.clone();
        let mut q = QueueJournal::create_on(&backend, &path, JOURNAL_TAG, 1).unwrap();
        for (id, spec) in ids.iter().zip(&sweep) {
            q.submit(*id, &encode_payload(sweep_id, &spec.to_string()))
                .unwrap();
        }
        for (id, line) in &lines {
            q.complete(*id, &encode_payload(sweep_id, line)).unwrap();
        }
        assert_eq!(chaos.contents(&path), single.contents(&path));
    }

    #[test]
    fn a_failed_batch_append_trips_the_breaker_and_every_completion_lands() {
        use rvv_ckpt::{ChaosBackend, ChaosPlan};
        // Write op 0 is the journal header, op 1 the sweep's submits; the
        // batch of done records fails hard.
        let chaos = Arc::new(ChaosBackend::new(ChaosPlan {
            fail_writes_after: Some(2),
            ..ChaosPlan::quiet()
        }));
        let state = ServeState::new(chaos_options(&chaos, false)).unwrap();
        let (sweep_id, _) = state.submit(&specs(&SWEEP)).unwrap();
        finish_during_a_commit(&state);
        state.commit_loop();
        assert!(state.storage_is_degraded());
        assert_eq!(state.counters.journal_errors.load(Ordering::Relaxed), 1);
        assert_eq!(state.counters.done_records.load(Ordering::Relaxed), 0);
        assert_eq!(state.counters.done_commits.load(Ordering::Relaxed), 0);
        assert!(state
            .sweep_text(sweep_id)
            .unwrap()
            .starts_with("complete jobs=8\n"));
        assert_eq!(state.counters.completed.load(Ordering::Relaxed), 8);
        assert_eq!(state.book().depth, 0, "every slot released");
    }

    #[test]
    fn the_committer_commits_everything_queued_before_it_joins() {
        use rvv_ckpt::{ChaosBackend, ChaosPlan};
        let chaos = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        let state = ServeState::new(chaos_options(&chaos, false)).unwrap();
        let (first, ids) = state.submit(&specs(&SWEEP)).unwrap();
        let committer = state.spawn_committer();
        for _ in &ids {
            let job = state.next_job().unwrap();
            state.finish(&job, format!("job-{} ok", job.id), 1, false, false);
        }
        state.join_committer(committer);
        assert!(state
            .sweep_text(first)
            .unwrap()
            .starts_with("complete jobs=8\n"));
        let commits = state.counters.done_commits.load(Ordering::Relaxed);
        assert!((1..=8).contains(&commits), "{commits} commits");
        // With the committer joined, `finish` commits inline again.
        let (second, _) = state.submit(&specs(&["p_add n=8"])).unwrap();
        let job = state.next_job().unwrap();
        state.finish(&job, "job-9 ok".to_string(), 1, false, false);
        assert!(state
            .sweep_text(second)
            .unwrap()
            .starts_with("complete jobs=1\n"));
        assert_eq!(state.counters.done_records.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn a_torn_batched_submit_resumes_to_a_whole_record_prefix() {
        use rvv_ckpt::{ChaosBackend, ChaosPlan};
        let sweep = specs(&SWEEP);
        let mut torn_lengths = std::collections::BTreeSet::new();
        for seed in 0..16 {
            // Write op 0 is the journal header, ops 1-2 two acknowledged
            // sweeps; op 3, the third sweep's batched write, dies after a
            // seeded prefix of its bytes, and the crash tears that
            // unsynced tail again.
            let chaos = Arc::new(ChaosBackend::new(ChaosPlan {
                seed,
                fail_writes_after: Some(3),
                short_writes: true,
                torn_crash: true,
                ..ChaosPlan::quiet()
            }));
            let state = ServeState::new(chaos_options(&chaos, false)).unwrap();
            let acked: Vec<(u64, Vec<u64>)> =
                (0..2).map(|_| state.submit(&sweep).unwrap()).collect();
            assert!(matches!(state.submit(&sweep), Err(SubmitError::Storage(_))));
            drop(state);
            chaos.crash();

            let resumed = ServeState::new(chaos_options(&chaos, true)).unwrap();
            assert_eq!(resumed.counters.salvaged.load(Ordering::Relaxed), 0);
            // Every acknowledged sweep survives whole, as pending work.
            for (sweep_id, ids) in &acked {
                assert_eq!(
                    resumed.sweep_text(*sweep_id).unwrap(),
                    "pending 0/8 jobs done\n"
                );
                for id in ids {
                    assert!(resumed.job_text(*id).unwrap().contains("queued"));
                }
            }
            // The torn sweep was never acknowledged; what replays of it is
            // a prefix of its jobs, each one whole.
            let torn = (17..=24u64)
                .take_while(|id| resumed.job_text(*id).is_some())
                .count();
            assert!(torn < 8, "a short write never lands the whole batch");
            assert!((17 + torn as u64..=24).all(|id| resumed.job_text(id).is_none()));
            assert_eq!(resumed.book().depth, 16 + torn);
            torn_lengths.insert(torn);
        }
        assert!(
            torn_lengths.len() > 1,
            "the seeds tear at different records: {torn_lengths:?}"
        );
    }
}
