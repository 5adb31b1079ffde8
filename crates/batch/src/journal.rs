//! Write-ahead journaling for batch sweeps: every completed job's report
//! is appended to an on-disk journal the moment it finishes, so a sweep
//! killed at *any* point — `kill -9` included — resumes by replaying the
//! journal and running only the jobs that never completed. The resumed
//! batch's [`BatchResult::stable_digest`] is byte-identical to an
//! uninterrupted run's, at any thread count, interrupted any number of
//! times.
//!
//! ## File format
//!
//! A batch journal is a durable queue ([`QueueJournal`]), the same
//! `rvv-queue-journal` format the sweep service writes, so salvage,
//! torn-tail truncation and `rvv-doctor` verdicts are one code path for
//! both. The queue tag `rvv-batch/v3 jobs=<n> digest=<fnv1a>` binds the
//! journal to its job list (a digest over every job's name,
//! configuration, and weight); resume refuses a journal whose tag does
//! not match the jobs being resumed: a journal is a claim about *one*
//! specific sweep.
//!
//! A fresh run submits every job up front in one batch (id = job index,
//! payload = job name). Each completed job then appends a done record
//! for its index carrying its attempt bookkeeping, per-class counters,
//! the stable outcome text, and — for successful jobs — the measurement
//! payload itself, encoded via [`JournalPayload`]. Successful jobs
//! therefore replay as real [`JobOutcome::Ok`] values (decoders like
//! table folding keep working on a resumed run); failures replay as
//! [`JobOutcome::Replayed`] carrying their stable text verbatim, so
//! manifests and digests survive the crash/resume boundary byte-for-byte.
//!
//! A kill inside the submit batch leaves a prefix of it. On resume, a job
//! that is neither pending nor completed lost its submit record that way
//! and is submitted again before anything runs: its done record would
//! otherwise be an orphan, which the next resume refuses.
//!
//! ## What is deliberately not journaled
//!
//! Trace profiles (host-side structures tied to a tracer attachment;
//! journaled sweeps and traced sweeps are separate experiments — a traced
//! job's *measurement* replays fine, its profile does not survive) and
//! the scheduling fields `worker`/`wall` (replayed reports get worker 0
//! and zero wall — both are quarantined from every stable serialization).

use crate::job::{BatchJob, BatchResult, JobOutcome, JobReport};
use crate::runner::{assemble, BatchRunner};
use rvv_ckpt::queue::QueueJournal;
use rvv_ckpt::{fnv1a, ByteReader, ByteWriter, CodecError};
use rvv_cost::CycleCounters;
use rvv_sim::Counters;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::num::NonZeroU64;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A measurement type that can ride in a journal record. Implementations
/// must round-trip exactly: `decode(encode(x)) == x`, including through
/// the `Debug` form [`JobReport::stable_line`] prints — a decoded payload
/// that renders differently would change the resumed digest.
pub trait JournalPayload: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);
    /// Decode a value previously written by [`JournalPayload::encode`].
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

impl JournalPayload for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<u64, CodecError> {
        r.get_u64()
    }
}

/// The length, then the elements. The length comes off disk, so decode
/// reserves nothing from it: it reads the elements one at a time, and a
/// length the record cannot hold fails at the record's end.
impl JournalPayload for Vec<u64> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.len()).expect("at most u32::MAX elements"));
        for &x in self {
            w.put_u64(x);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Vec<u64>, CodecError> {
        let mut v = Vec::new();
        for _ in 0..r.get_u32()? {
            v.push(r.get_u64()?);
        }
        Ok(v)
    }
}

/// Options for [`run_journaled`]. The journal fsyncs every record.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalOptions {
    /// Resume from an existing journal at the path (replaying completed
    /// records and running the remainder) instead of starting fresh. With
    /// `resume = false` any existing journal is overwritten.
    pub resume: bool,
    /// Crash harness: abort the process (SIGABRT, no unwinding, no
    /// cleanup — the deterministic stand-in for `kill -9`) immediately
    /// after this many done records have been appended *by this process*
    /// ([`QueueJournal::set_crash_after`]). `None` runs to completion.
    pub crash_after: Option<NonZeroU64>,
}

/// The queue tag binding a journal to its job list: resume must be
/// handed the *same* sweep (names, configurations, weights, order).
/// The thread count is deliberately excluded — a journal written at
/// `--threads 8` resumes fine at `--threads 1`.
fn queue_tag<T>(jobs: &[BatchJob<T>]) -> String {
    let mut digest_src = ByteWriter::new();
    for job in jobs {
        digest_src.put_str(&job.name);
        digest_src.put_str(&format!("{:?}", job.config));
        digest_src.put_u64(job.weight);
    }
    format!(
        "rvv-batch/v3 jobs={} digest={:#018x}",
        jobs.len(),
        fnv1a(&digest_src.into_bytes())
    )
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Encode one completed job as a done-record payload. The job's index is
/// the queue id and its name is bound by the tag, so neither is stored.
fn encode_record<T: JournalPayload + fmt::Debug>(report: &JobReport<T>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(report.attempts);
    w.put_u32(report.poisoned);
    let counts: Vec<u64> = report.counters.iter().map(|(_, c)| c).collect();
    w.put_u32(counts.len() as u32);
    for c in counts {
        w.put_u64(c);
    }
    // Cycle estimates are not derivable from the counters (the modeled
    // total reflects unit overlap), so costed reports persist the whole
    // block: total plus per-class busy cycles.
    match &report.cycles {
        Some(cy) => {
            w.put_bool(true);
            w.put_u64(cy.total());
            for (_, c) in cy.iter() {
                w.put_u64(c);
            }
        }
        None => w.put_bool(false),
    }
    w.put_str(&report.outcome.stable());
    match report.outcome.output() {
        Some(v) => {
            w.put_bool(true);
            v.encode(&mut w);
        }
        None => w.put_bool(false),
    }
    w.into_bytes()
}

/// One decoded done record: everything needed to rebuild the report
/// once the job list supplies the name and configuration.
struct Replayed<T> {
    attempts: u32,
    poisoned: u32,
    counters: Counters,
    cycles: Option<CycleCounters>,
    stable: String,
    output: Option<T>,
}

fn decode_record<T: JournalPayload>(payload: &[u8]) -> Result<Replayed<T>, CodecError> {
    let mut r = ByteReader::new(payload);
    let attempts = r.get_u32()?;
    let poisoned = r.get_u32()?;
    let n = r.get_u32()? as usize;
    if n != rvv_isa::InstrClass::ALL.len() {
        return Err(CodecError::BadValue {
            what: "counter class count",
            value: n as u64,
        });
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.get_u64()?);
    }
    let counters = Counters::from_class_counts(&counts);
    let cycles = if r.get_bool()? {
        let total = r.get_u64()?;
        let mut by_class = Vec::with_capacity(rvv_isa::InstrClass::ALL.len());
        for _ in 0..rvv_isa::InstrClass::ALL.len() {
            by_class.push(r.get_u64()?);
        }
        Some(CycleCounters::from_parts(total, &by_class))
    } else {
        None
    };
    let stable = r.get_str()?.to_string();
    let output = if r.get_bool()? {
        Some(T::decode(&mut r)?)
    } else {
        None
    };
    r.finish()?;
    Ok(Replayed {
        attempts,
        poisoned,
        counters,
        cycles,
        stable,
        output,
    })
}

impl<T: fmt::Debug> Replayed<T> {
    fn into_report(self, job: &BatchJob<T>) -> JobReport<T> {
        let outcome = match self.output {
            Some(v) => {
                let replayed = JobOutcome::Ok(v);
                debug_assert_eq!(
                    replayed.stable(),
                    self.stable,
                    "journaled payload re-renders differently (JournalPayload impl broken?)"
                );
                replayed
            }
            None => JobOutcome::Replayed(self.stable),
        };
        JobReport {
            name: job.name.clone(),
            config: job.config,
            outcome,
            attempts: self.attempts,
            poisoned: self.poisoned,
            retired: self.counters.total(),
            counters: self.counters,
            cycles: self.cycles,
            profile: None,
            worker: 0,
            wall: Duration::ZERO,
            backoff: Duration::ZERO,
        }
    }
}

/// Run `jobs` under a write-ahead journal at `path`.
///
/// Fresh runs (`resume: false`) create the journal, submit every job, and
/// then append one done record per completed job, as jobs complete.
/// Resumed runs (`resume: true`) read the journal back (verifying its tag
/// against `jobs`, salvaging around corrupt records and dropping a torn
/// tail), replay every completed job, and run **only the remainder** —
/// appending to the same journal, so a resumed run that crashes again
/// resumes again.
///
/// The returned [`BatchResult`] is in job order and its
/// [`BatchResult::stable_digest`] is byte-identical to an uninterrupted
/// (or never-journaled) run of the same jobs, at any thread count. Only
/// the quarantined fields differ: replayed reports carry no profile,
/// worker 0, zero wall, and `plan_compiles` counts this process only.
pub fn run_journaled<T>(
    runner: &BatchRunner,
    jobs: Vec<BatchJob<T>>,
    path: &Path,
    opts: &JournalOptions,
) -> io::Result<BatchResult<T>>
where
    T: Send + fmt::Debug + JournalPayload,
{
    let started = Instant::now();
    let compiles_before = runner.plan_cache().compiles();
    let tag = queue_tag(&jobs);

    // Replay phase: collect completed jobs, find the journal tail, and
    // list the jobs the journal holds no submit record for.
    let mut replayed: HashMap<usize, Replayed<T>> = HashMap::new();
    let (mut queue, unsubmitted) = if opts.resume {
        let (queue, recovery) = QueueJournal::resume(path, &tag, 1)?;
        // Mid-stream corruption is quarantined, not fatal: a lost done
        // record held one completed job's report, and that job simply
        // re-runs below (it never lands in `replayed`). Surface the damage
        // so the operator knows the disk misbehaved.
        for entry in &recovery.salvage {
            eprintln!("rvv-batch: {}: journal salvage: {entry}", path.display());
        }
        for item in &recovery.completed {
            if item.id >= jobs.len() as u64 {
                return Err(bad(format!(
                    "journal record for job {} out of range",
                    item.id
                )));
            }
            let index = item.id as usize;
            let rec = decode_record::<T>(&item.payload)
                .map_err(|e| bad(format!("journal record for job {index}: {e}")))?;
            replayed.insert(index, rec);
        }
        // A job neither pending nor completed lost its submit record to
        // a submit batch torn mid-write.
        let pending: HashSet<u64> = recovery.pending.iter().map(|item| item.id).collect();
        let lost: Vec<usize> = (0..jobs.len())
            .filter(|i| !replayed.contains_key(i) && !pending.contains(&(*i as u64)))
            .collect();
        (queue, lost)
    } else {
        let queue = QueueJournal::create(path, &tag, 1)?;
        (queue, (0..jobs.len()).collect())
    };
    // Every job is submitted before anything runs, so each done record
    // appended below pairs a submit record.
    queue.submit_all(
        unsubmitted
            .iter()
            .map(|&i| (i as u64, jobs[i].name.as_bytes())),
    )?;

    let remaining: Vec<usize> = (0..jobs.len())
        .filter(|i| !replayed.contains_key(i))
        .collect();

    // Execute the remainder, journaling each completion as it happens.
    // The observer runs on worker threads in completion order; the queue
    // is a single append stream behind a mutex (append order does not
    // matter — done records are keyed by job index), and it aborts the
    // process at the crash point. A failed append degrades instead of
    // dying: journaling stops (warned once), the sweep itself finishes and
    // returns its full result — the only thing lost is resumability from
    // this point on.
    queue.set_crash_after(opts.crash_after);
    let slot = Mutex::new(Some(queue));
    let live = runner.run_subset(&jobs, &remaining, &|index, report| {
        let mut slot = slot.lock().expect("journal writer poisoned");
        let Some(queue) = slot.as_mut() else { return };
        if let Err(e) = queue.complete(index as u64, &encode_record(report)) {
            eprintln!(
                "rvv-batch: {}: journal append failed, journaling disabled \
                 for the rest of this run: {e}",
                path.display()
            );
            *slot = None;
        }
    });
    drop(slot);

    // Merge replayed and live reports in job order.
    let mut live = live.into_iter().peekable();
    let mut reports = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        if let Some(rec) = replayed.remove(&i) {
            reports.push(rec.into_report(job));
        } else {
            let (j, report) = live.next().expect("every job replayed or run");
            debug_assert_eq!(i, j, "live reports out of order");
            reports.push(report);
        }
    }
    Ok(assemble(
        reports,
        runner.threads(),
        runner.plan_cache().compiles() - compiles_before,
        started.elapsed(),
    ))
}
