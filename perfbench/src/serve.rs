//! The `serve` workload: `rvv-serve` in-process on loopback with a durable
//! journal (one fsync per record) and 2 workers, driven in a closed loop
//! by 2 client connections. Each client submits a sweep of 8 specs, waits
//! for its digest, then sends the next.

use crate::gen::{serve_cycle, serve_specs, warmup_sweep, SWEEP_JOBS};
use crate::spans::Tracer;
use crate::stats::{http_ok, median, min_samples_for, quantile, self_ns, unattributed_frac, Tally};
use crate::{Metrics, Outcome, Res};
use rvv_batch::{
    execute_job, BackoffPolicy, BatchRunner, CostModel, Engine, JobOutcome, SessionPool,
};
use rvv_ckpt::queue::QueueJournal;
use rvv_ckpt::{fnv1a, fs_backend};
use rvv_serve::http::request;
use rvv_serve::{JobSpec, RunningServer, ServeOptions, ServeState, Server, JOURNAL_TAG};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Closed-loop clients (and connections).
pub const CLIENTS: u64 = 2;
/// Worker threads in the service.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Sleep between status polls of one sweep.
pub const POLL: Duration = Duration::from_millis(1);
/// Give up on a sweep that has not completed after this long.
const SWEEP_TIMEOUT: Duration = Duration::from_secs(60);
/// Completed sweeps after which `peak_rss_mb` is read.
const RSS_AT_SWEEPS: usize = 1000;
/// Tolerance of the layer-sum check: stage self times must cover the
/// traced per-job wall time to within this share.
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// The options every benchmark server runs with: durable journal, one
/// fsync per record, 2 workers, a queue deep enough never to shed.
pub fn options(journal: PathBuf, resume: bool) -> ServeOptions {
    ServeOptions {
        threads: WORKERS,
        queue_depth: 1 << 20,
        journal: Some(journal),
        resume,
        ..ServeOptions::default()
    }
}

fn body_of(specs: &[JobSpec]) -> String {
    specs.iter().map(|s| format!("{s}\n")).collect()
}

/// The acknowledged `(sweep, first job id, last job id)` of a 202 reply.
fn parse_ack(reply: &str) -> Option<(u64, u64, u64)> {
    let mut lines = reply.lines();
    let sweep = lines.next()?.strip_prefix("sweep ")?.parse().ok()?;
    let (a, b) = lines.next()?.strip_prefix("jobs ")?.split_once("..=")?;
    Some((sweep, a.parse().ok()?, b.parse().ok()?))
}

/// Poll `GET /sweeps/<id>` until it reports `complete`. `Err` carries the
/// failing status (0 for a transport error or a timeout).
pub fn wait_complete(
    addr: &str,
    sweep: u64,
    tracer: Option<(&Tracer, u64, usize)>,
) -> Result<String, u16> {
    let deadline = Instant::now() + SWEEP_TIMEOUT;
    loop {
        let start = tracer.map(|(t, ..)| t.now());
        let (status, body) =
            request(addr, "GET", &format!("/sweeps/{sweep}"), "").map_err(|_| 0u16)?;
        if !http_ok(status) {
            return Err(status);
        }
        let complete = body.starts_with("complete");
        if let (Some((t, job, parent)), Some(start)) = (tracer, start) {
            let name = if complete {
                "serve.poll_complete"
            } else {
                "serve.poll"
            };
            t.record(name, job, Some(parent), start, t.now());
        }
        if complete {
            return Ok(body);
        }
        if Instant::now() > deadline {
            return Err(0);
        }
        thread::sleep(POLL);
    }
}

/// Submit one sweep over HTTP and wait for it; for set-up warm-ups.
fn submit_and_wait(addr: &str, specs: &[JobSpec]) -> Res<()> {
    let (status, reply) = request(addr, "POST", "/sweeps", &body_of(specs))?;
    let (sweep, ..) = parse_ack(&reply)
        .filter(|_| status == 202)
        .ok_or(format!("warm-up refused ({status}): {reply}"))?;
    wait_complete(addr, sweep, None)
        .map(drop)
        .map_err(|s| format!("warm-up sweep {sweep} failed ({s})").into())
}

/// A served sweep status, reduced to what verification needs so a long
/// run does not hold every body in memory.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// FNV-1a of the whole `GET /sweeps/<id>` body.
    pub hash: u64,
    /// Every job line reports an `ok` outcome.
    pub all_ok: bool,
}

impl Served {
    pub fn of(body: &str) -> Served {
        Served {
            hash: fnv1a(body.as_bytes()),
            all_ok: body.lines().skip(2).all(|l| l.contains(" output=ok ")),
        }
    }
}

/// One completed (or failed) closed-loop operation.
#[derive(Debug)]
pub struct SweepRecord {
    pub specs: Arc<[JobSpec]>,
    pub first: u64,
    pub last: u64,
    pub served: Option<Served>,
    pub latency_ms: f64,
    /// When the sweep completed, in seconds since its loop started.
    pub done_s: f64,
}

impl SweepRecord {
    fn refused(specs: Arc<[JobSpec]>) -> SweepRecord {
        SweepRecord {
            specs,
            first: 0,
            last: 0,
            served: None,
            latency_ms: 0.0,
            done_s: 0.0,
        }
    }
}

/// A client's endless sequence of sweeps: cycle after cycle of its specs.
pub struct SweepStream {
    seed: u64,
    client: u64,
    cycle: u64,
    pending: std::vec::IntoIter<Vec<JobSpec>>,
}

impl SweepStream {
    pub fn new(seed: u64, client: u64) -> SweepStream {
        SweepStream {
            seed,
            client,
            cycle: 0,
            pending: Vec::new().into_iter(),
        }
    }

    pub fn next(&mut self) -> Arc<[JobSpec]> {
        loop {
            if let Some(sweep) = self.pending.next() {
                return sweep.into();
            }
            self.pending = serve_cycle(self.seed, self.client, self.cycle).into_iter();
            self.cycle += 1;
        }
    }
}

/// What the clients of one closed loop share.
struct Loop {
    origin: Instant,
    deadline: Instant,
    /// Keep going past the deadline until this many sweeps completed.
    min_sweeps: usize,
    /// Sweeps completed so far.
    done: AtomicUsize,
    /// Peak RSS in MB (as `f64` bits) once `RSS_AT_SWEEPS` completed.
    rss_mb: AtomicU64,
}

/// One client's closed loop: submit the next sweep of its stream, wait
/// for the digest, repeat until the deadline has passed and the clients
/// together completed `min_sweeps`. Traced runs time the healthz, submit
/// and poll calls as spans.
fn client(
    addr: &str,
    sweeps: &mut SweepStream,
    shared: &Loop,
    tracer: Option<(&Tracer, u64)>,
) -> Vec<SweepRecord> {
    let hard_stop = shared.deadline + Duration::from_secs(60);
    let mut records = Vec::new();
    for k in 0.. {
        let now = Instant::now();
        let enough = shared.done.load(Ordering::SeqCst) >= shared.min_sweeps;
        if now >= hard_stop || (now >= shared.deadline && enough) {
            break;
        }
        let specs = sweeps.next();
        let job = tracer.map_or(0, |(_, c)| c << 32 | k as u64);
        let op_start = tracer.map(|(t, _)| t.now());
        if let Some((t, _)) = tracer {
            t.time("serve.healthz", job, None, || {
                request(addr, "GET", "/healthz", "")
            })
            .ok();
        }
        let started = Instant::now();
        let submit_start = tracer.map(|(t, _)| t.now());
        let reply = request(addr, "POST", "/sweeps", &body_of(&specs));
        let mut record = SweepRecord::refused(specs);
        let ack = match reply {
            Ok((202, text)) => parse_ack(&text),
            _ => None,
        };
        if let Some((sweep, first, last)) = ack {
            record.first = first;
            record.last = last;
            let parent = tracer.map(|(t, _)| {
                let start = op_start.unwrap_or(0);
                let sweep_span = t.record("serve.sweep", job, None, start, start);
                t.record(
                    "serve.submit",
                    job,
                    Some(sweep_span),
                    submit_start.unwrap_or(0),
                    t.now(),
                );
                sweep_span
            });
            let traced = tracer.zip(parent).map(|((t, _), p)| (t, job, p));
            record.served = wait_complete(addr, sweep, traced)
                .ok()
                .map(|b| Served::of(&b));
            record.latency_ms = started.elapsed().as_secs_f64() * 1e3;
            record.done_s = shared.origin.elapsed().as_secs_f64();
            if let (Some((t, _)), Some(p)) = (tracer, parent) {
                t.close(p, t.now());
            }
        } else {
            // A refusal: count it and back off briefly before the next.
            thread::sleep(POLL);
        }
        if record.served.is_some()
            && shared.done.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AT_SWEEPS
        {
            let rss = crate::sys::peak_rss_mb();
            shared.rss_mb.store(rss.to_bits(), Ordering::SeqCst);
        }
        records.push(record);
    }
    records
}

/// Run the closed loop: `CLIENTS` threads, until `seconds` have passed and
/// at least `min_sweeps` completed. Returns the records, the wall time,
/// and the process's peak RSS in MB once `RSS_AT_SWEEPS` sweeps completed
/// (0 if fewer did). The service keeps every result in memory, so its
/// footprint grows with the jobs done; reading it after a fixed count
/// keeps a faster service from reading as a bigger one.
fn closed_loop(
    addr: &str,
    seed: u64,
    seconds: f64,
    min_sweeps: usize,
    tracer: Option<&Tracer>,
) -> (Vec<SweepRecord>, f64, f64) {
    let origin = Instant::now();
    let shared = Loop {
        origin,
        deadline: origin + Duration::from_secs_f64(seconds),
        min_sweeps,
        done: AtomicUsize::new(0),
        rss_mb: AtomicU64::new(0),
    };
    let records = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let shared = &shared;
                s.spawn(move || {
                    let mut sweeps = SweepStream::new(seed, c);
                    client(addr, &mut sweeps, shared, tracer.map(|t| (t, c)))
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = origin.elapsed().as_secs_f64();
    (records, wall, f64::from_bits(shared.rss_mb.into_inner()))
}

/// Serial in-process reference for served sweeps: every distinct spec
/// runs once through a 1-worker `BatchRunner`, named after the first job
/// id it was acknowledged under. A stable line depends on the job only
/// through its leading name, so the line for a later id is the same line
/// under that id's name.
pub struct Reference {
    engine: Arc<Engine>,
    lines: HashMap<String, (String, u64)>,
}

impl Reference {
    pub fn new() -> Reference {
        // The service's engine policy: the default watchdog budget.
        let fuel = ServeOptions::default().watchdog.unwrap_or(u64::MAX);
        Reference {
            engine: Arc::new(Engine::builder().default_fuel_budget(fuel).build()),
            lines: HashMap::new(),
        }
    }

    /// Compute the reference line of every not-yet-seen spec, named by
    /// the job id it was first acknowledged under.
    pub fn prime(&mut self, specs: impl IntoIterator<Item = (JobSpec, u64)>) {
        let mut queued = HashSet::new();
        let mut todo: Vec<(JobSpec, u64)> = Vec::new();
        for (spec, id) in specs {
            let key = spec.to_string();
            if !self.lines.contains_key(&key) && queued.insert(key) {
                todo.push((spec, id));
            }
        }
        if todo.is_empty() {
            return;
        }
        let jobs = todo
            .iter()
            .map(|(s, id)| s.to_job(format!("job-{id}")))
            .collect();
        let result = BatchRunner::with_engine(1, Arc::clone(&self.engine)).run(jobs);
        for ((spec, id), report) in todo.iter().zip(&result.reports) {
            let line = report.stable_line();
            let rest = line
                .strip_prefix(&format!("job-{id} "))
                .expect("a stable line starts with the job name")
                .to_string();
            self.lines.insert(spec.to_string(), (rest, report.retired));
        }
    }

    /// The stable line of `spec` run as job `id`.
    pub fn line(&mut self, spec: &JobSpec, id: u64) -> String {
        let key = spec.to_string();
        if !self.lines.contains_key(&key) {
            self.prime([(*spec, id)]);
        }
        format!("job-{id} {}", self.lines[&key].0)
    }

    /// Retired instructions of a primed spec.
    pub fn retired(&self, spec: &JobSpec) -> u64 {
        self.lines.get(&spec.to_string()).map_or(0, |(_, r)| *r)
    }

    /// What `GET /sweeps/<id>` must return for `specs` acknowledged as
    /// jobs `first..`: the stable lines in id order and their digest.
    pub fn sweep_text(&mut self, specs: &[JobSpec], first: u64) -> String {
        let mut body = String::new();
        for (spec, id) in specs.iter().zip(first..) {
            body.push_str(&self.line(spec, id));
            body.push('\n');
        }
        format!(
            "complete jobs={}\ndigest={:#018x}\n{body}",
            specs.len(),
            fnv1a(body.as_bytes())
        )
    }
}

/// Is a served sweep correct: acknowledged with one id per spec, every
/// job `ok`, and byte-identical to the reference?
pub fn verify(reference: &mut Reference, r: &SweepRecord) -> bool {
    r.served.is_some_and(|served| {
        served.all_ok
            && r.last + 1 - r.first == r.specs.len() as u64
            && served.hash == fnv1a(reference.sweep_text(&r.specs, r.first).as_bytes())
    })
}

/// Modeled ara-like cycles of `specs`, in millions (a costed pass on 2
/// workers; the cycle estimate does not depend on scheduling).
pub fn costed_mcycles(specs: &[JobSpec]) -> f64 {
    let jobs = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.to_job(format!("job-{i}")).costed(CostModel::ara_like()))
        .collect();
    let result = BatchRunner::with_engine(WORKERS, Arc::new(Engine::new())).run(jobs);
    result.cycles.map_or(0.0, |c| c.total() as f64 / 1e6)
}

/// Spawn a fresh server on `journal` and warm it: one sweep that touches
/// every configuration, twice, so both workers' pools hold every session.
fn setup(journal: &Path) -> Res<(RunningServer, f64)> {
    let t = Instant::now();
    let server = Server::spawn("127.0.0.1:0", options(journal.to_path_buf(), false))?;
    let addr = server.addr.to_string();
    for _ in 0..2 {
        submit_and_wait(&addr, &warmup_sweep())?;
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// The median of `SETUP_REPS` set-ups, each on a fresh journal.
fn setup_median(dir: &Path) -> Res<f64> {
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let journal = dir.join(format!("setup-{rep}.journal"));
        let (server, secs) = setup(&journal)?;
        setups.push(secs);
        server.shutdown()?;
        std::fs::remove_file(&journal)?;
    }
    Ok(median(&setups))
}

/// Verify records, returning the tally and the verified records.
fn score<'a>(
    reference: &mut Reference,
    records: &'a [SweepRecord],
) -> (Tally, Vec<&'a SweepRecord>) {
    let mut tally = Tally::default();
    let mut verified = Vec::new();
    for r in records {
        let ok = verify(reference, r);
        tally.record(ok);
        if ok {
            verified.push(r);
        }
    }
    (tally, verified)
}

fn jobs_of(verified: &[&SweepRecord]) -> f64 {
    verified.iter().map(|r| r.specs.len() as f64).sum()
}

/// Length of one window of the measured phase.
const WINDOW_S: f64 = 5.0;
/// Most windows a run is cut into.
const MAX_WINDOWS: usize = 6;

/// One window of the measured phase.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Verified jobs completed in the window, per second.
    rate: f64,
    /// Latencies of the sweeps completed in the window.
    latencies: Vec<f64>,
}

/// The measured phase cut by sweep completion time into equal windows
/// of about `WINDOW_S` (at least one, at most `MAX_WINDOWS`).
fn windows(verified: &[&SweepRecord], seconds: f64, wall: f64) -> Vec<Window> {
    let count = ((seconds / WINDOW_S) as usize).clamp(1, MAX_WINDOWS);
    let width = wall / count as f64;
    let mut out = vec![Window::default(); count];
    for r in verified {
        let w = &mut out[((r.done_s / width) as usize).min(count - 1)];
        w.rate += r.specs.len() as f64 / width;
        w.latencies.push(r.latency_ms);
    }
    out
}

/// One pass: both clients' specs, each once.
fn catalogue_specs(seed: u64) -> Vec<JobSpec> {
    (0..CLIENTS).flat_map(|c| serve_specs(seed, c)).collect()
}

/// The untraced `serve` run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64, dir: &Path) -> Res<Outcome> {
    let (server, _) = setup(&dir.join("serve.journal"))?;
    let addr = server.addr.to_string();
    // Enough sweeps in every window that 10 latencies lie beyond its p95.
    let need = min_samples_for(0.95, 10);
    let count = ((seconds as f64 / WINDOW_S) as usize).clamp(1, MAX_WINDOWS);
    let (records, wall, rss) = closed_loop(&addr, seed, seconds as f64, count * need, None);
    server.shutdown()?;
    // Set-up is timed after the measured phase, on a host in the same
    // (busy) state for every repetition.
    let setup_s = setup_median(dir)?;

    let mut out = Outcome::default();
    let mut reference = Reference::new();
    let (tally, verified) = score(&mut reference, &records);
    out.tally = tally;
    // Each metric is the median over the windows, so a burst of host
    // noise in one or two windows does not move it.
    let windows = windows(&verified, seconds as f64, wall);
    let thin = windows.iter().map(|w| w.latencies.len()).min().unwrap_or(0);
    out.check(thin >= need, || {
        format!("a window holds only {thin} sweeps of the {need} its p95 needs")
    });
    let rates: Vec<f64> = windows.iter().map(|w| w.rate).collect();
    let p50s: Vec<f64> = windows.iter().map(|w| median(&w.latencies)).collect();
    let p95s: Vec<f64> = windows
        .iter()
        .map(|w| quantile(&w.latencies, 0.95).unwrap_or(0.0))
        .collect();
    let catalogue = catalogue_specs(seed);
    reference.prime(catalogue.iter().map(|s| (*s, 1)));
    let retired: u64 = catalogue.iter().map(|s| reference.retired(s)).sum();
    let m = &mut out.metrics;
    m.push("jobs_per_s", median(&rates), "jobs/s");
    m.push("latency_p50_ms", median(&p50s), "ms");
    m.push("latency_p95_ms", median(&p95s), "ms");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", rss, "MB");
    m.push("guest_minstr", retired as f64 / 1e6, "Minstr");
    m.push("guest_mcycles", costed_mcycles(&catalogue), "Mcycles");
    Ok(out)
}

/// Per-job timestamps of the benchmark-side worker copy.
#[derive(Debug, Clone, Copy, Default)]
struct JobTimes {
    id: u64,
    dequeued: u64,
    to_job: (u64, u64),
    execute: (u64, u64),
    body_start: u64,
    finish: (u64, u64),
}

/// A copy of the service's `worker_loop` over a `ServeState`, with every
/// call into the program timed: `next_job` -> `to_job` -> `execute_job`
/// -> `finish`.
fn worker_copy(state: &Arc<ServeState>, worker: usize, tracer: &Arc<Tracer>) -> Vec<JobTimes> {
    let mut pool = SessionPool::new(&state.engine);
    let backoff = BackoffPolicy::new(state.opts.inject_seed.unwrap_or(0));
    let mut times = Vec::new();
    while let Some(job) = state.next_job() {
        let mut t = JobTimes {
            id: job.id,
            dequeued: tracer.now(),
            ..JobTimes::default()
        };
        let chaos = state.chaos_for(job.id);
        if chaos.latency_ms > 0 {
            thread::sleep(Duration::from_millis(chaos.latency_ms));
        }
        if state.breaker_open(&job.spec.config()) {
            let line = state.quarantine_line(&job);
            state.finish(&job, line, 0, false, false);
            continue;
        }
        let start = tracer.now();
        let batch_job = job
            .spec
            .to_job(format!("job-{}", job.id))
            .retries(state.opts.retries);
        t.to_job = (start, tracer.now());
        // The set-up hook runs right before the job body: its timestamp
        // splits `execute_job` into pool/attempt overhead and body.
        let body_start = Arc::new(AtomicU64::new(0));
        let (mark, clock) = (Arc::clone(&body_start), Arc::clone(tracer));
        let mut batch_job =
            batch_job.with_setup(move |_| mark.store(clock.now(), Ordering::SeqCst));
        if let Some(token) = state.arm_deadline(job.id) {
            batch_job = batch_job.cancel_token(token);
        }
        let start = tracer.now();
        let report = execute_job(&batch_job, job.id, &mut pool, worker, &backoff);
        t.execute = (start, tracer.now());
        t.body_start = body_start.load(Ordering::SeqCst);
        let cancelled = matches!(report.outcome, JobOutcome::Cancelled { .. });
        let start = tracer.now();
        state.finish(
            &job,
            report.stable_line(),
            report.attempts,
            report.poisoned > 0,
            cancelled,
        );
        t.finish = (start, tracer.now());
        times.push(t);
    }
    times
}

/// Closed-loop clients straight on a `ServeState` (no HTTP): submit one
/// sweep, wait until `sweep_text` reports it complete, repeat.
fn state_client(
    state: &ServeState,
    sweeps: &mut SweepStream,
    deadline: Instant,
    submitted: &Mutex<HashMap<u64, u64>>,
    tracer: &Tracer,
) -> Vec<SweepRecord> {
    let mut records = Vec::new();
    while Instant::now() < deadline {
        let specs = sweeps.next();
        let started = Instant::now();
        let Ok((sweep, ids)) = state.submit(&specs) else {
            records.push(SweepRecord::refused(specs));
            continue;
        };
        let at = tracer.now();
        submitted
            .lock()
            .expect("submit map poisoned")
            .extend(ids.iter().map(|id| (*id, at)));
        let give_up = Instant::now() + SWEEP_TIMEOUT;
        let served = loop {
            match state.sweep_text(sweep) {
                Some(text) if text.starts_with("complete") => break Some(Served::of(&text)),
                _ if Instant::now() > give_up => break None,
                _ => thread::sleep(POLL / 4),
            }
        };
        records.push(SweepRecord {
            specs,
            first: ids[0],
            last: ids[ids.len() - 1],
            served,
            latency_ms: started.elapsed().as_secs_f64() * 1e3,
            done_s: 0.0,
        });
    }
    records
}

fn p50_us(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

/// The traced serve layers: HTTP round trips against the real server,
/// the post-acknowledgment stages through a worker copy, journal appends,
/// and pool checkouts.
pub fn layers(seed: u64, seconds: u64, dir: &Path, tracer: &Arc<Tracer>) -> Res<Outcome> {
    let phase = (seconds as f64 / 4.0).max(1.0);
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let mut reference = Reference::new();

    // Real server, untraced then traced: the gap is the tracing overhead.
    let mut rate = |traced: bool, out: &mut Outcome| -> Res<f64> {
        let journal = dir.join(format!("layers-{traced}.journal"));
        let (server, _) = setup(&journal)?;
        let addr = server.addr.to_string();
        let (records, wall, _) = closed_loop(&addr, seed, phase, 0, traced.then_some(&**tracer));
        server.shutdown()?;
        let (tally, verified) = score(&mut reference, &records);
        out.tally.add(tally);
        Ok(jobs_of(&verified) / wall)
    };
    let untraced = rate(false, &mut out)?;
    let traced = rate(true, &mut out)?;
    m.push("serve.server_jobs_per_s", traced, "jobs/s");
    m.push(
        "serve.trace_overhead_frac",
        1.0 - traced / untraced,
        "fraction",
    );
    m.push(
        "serve.http_rtt_us",
        p50_us(&tracer.durations("serve.healthz")),
        "us",
    );
    m.push(
        "serve.submit_us",
        p50_us(&tracer.durations("serve.submit")),
        "us",
    );
    m.push(
        "serve.poll_us",
        p50_us(&tracer.durations("serve.poll_complete")),
        "us",
    );

    // The worker copy over a ServeState with the same journal policy.
    let journal = dir.join("copy.journal");
    let state = ServeState::new(options(journal.clone(), false))?;
    let submitted = Mutex::new(HashMap::new());
    let deadline = Instant::now() + Duration::from_secs_f64(phase);
    let started = Instant::now();
    let (records, times) = thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let state = Arc::clone(&state);
                s.spawn(move || worker_copy(&state, w, tracer))
            })
            .collect();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (state, submitted) = (&state, &submitted);
                s.spawn(move || {
                    state_client(
                        state,
                        &mut SweepStream::new(seed, c),
                        deadline,
                        submitted,
                        tracer,
                    )
                })
            })
            .collect();
        let records: Vec<SweepRecord> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        state.begin_drain();
        let times: Vec<JobTimes> = workers
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (records, times)
    });
    let wall = started.elapsed().as_secs_f64();
    let (tally, verified) = score(&mut reference, &records);
    out.tally.add(tally);
    m.push("serve.copy_jobs_per_s", jobs_of(&verified) / wall, "jobs/s");
    m.push(
        "ckpt.bytes_per_job",
        std::fs::metadata(&journal)?.len() as f64
            / state.counters.submitted.load(Ordering::SeqCst).max(1) as f64,
        "bytes",
    );

    // Spans per job, then the stage split and the layer-sum check.
    let submitted = submitted.into_inner().expect("submit map poisoned");
    let (mut queue_ms, mut finish_ns, mut overhead_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_ns, mut stage_ns) = (0u64, 0u64);
    for t in &times {
        let Some(&at) = submitted.get(&t.id) else {
            continue;
        };
        // A worker can dequeue a job before its client hears back.
        let begin = at.min(t.dequeued);
        let job = tracer.record("serve.job", t.id, None, begin, t.finish.1);
        let body = (t.body_start, t.execute.1);
        let stages = [
            ("serve.queue_wait", (begin, t.dequeued), None),
            ("serve.to_job", t.to_job, None),
            ("batch.execute_job", t.execute, Some(body)),
            ("serve.finish", t.finish, None),
        ];
        for (name, (s, e), child) in stages {
            let span = tracer.record(name, t.id, Some(job), s, e);
            if let Some((cs, ce)) = child {
                tracer.record("batch.body", t.id, Some(span), cs, ce);
                stage_ns += ce - cs;
            }
            stage_ns += self_ns(s, e, child.as_slice());
        }
        wall_ns += t.finish.1 - begin;
        queue_ms.push((t.dequeued - begin) as f64 / 1e6);
        finish_ns.push((t.finish.1 - t.finish.0) as f64);
        overhead_ns.push(t.body_start.saturating_sub(t.execute.0) as f64);
    }
    let unattributed = unattributed_frac(wall_ns, &[stage_ns]);
    out.check(unattributed.abs() <= LAYER_SUM_TOLERANCE, || {
        format!(
            "serve stages cover {:.1}% of job wall time",
            (1.0 - unattributed) * 100.0
        )
    });
    m.push("serve.unattributed_frac", unattributed, "fraction");
    m.push("serve.queue_wait_ms_p50", median(&queue_ms), "ms");
    m.push(
        "serve.queue_wait_ms_p99",
        quantile(&queue_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    m.push("serve.finish_us", p50_us(&finish_ns), "us");
    m.push("batch.overhead_us", p50_us(&overhead_ns), "us");

    // ckpt: journal appends on the real filesystem, one fsync each.
    let path = dir.join("append.journal");
    let mut q = QueueJournal::create_on(&fs_backend(), &path, JOURNAL_TAG, 1)?;
    let mut appends = Vec::new();
    for (i, spec) in catalogue_specs(seed).iter().enumerate() {
        let id = i as u64 + 1;
        let line = reference.line(spec, id);
        let payload = format!("sweep={} {spec}", id / SWEEP_JOBS as u64 + 1);
        appends.push(tracer.time("ckpt.append", id, None, || q.submit(id, payload.as_bytes())));
        appends.push(tracer.time("ckpt.append", id, None, || q.complete(id, line.as_bytes())));
    }
    out.check(appends.iter().all(Result::is_ok), || {
        "journal append failed".to_string()
    });
    let append_ns = tracer.durations("ckpt.append");
    m.push("ckpt.append_us_p50", p50_us(&append_ns), "us");
    m.push(
        "ckpt.append_us_p99",
        quantile(&append_ns, 0.99).unwrap_or(0.0) / 1e3,
        "us",
    );

    // batch: pool checkouts that hit (lookup plus reset).
    let engine = Arc::clone(&state.engine);
    let mut pool = SessionPool::new(&engine);
    let configs: Vec<_> = warmup_sweep().iter().map(JobSpec::config).collect();
    for cfg in &configs {
        pool.session_for(cfg);
    }
    for _ in 0..20 {
        for cfg in &configs {
            tracer.time("batch.checkout", 0, None, || {
                pool.session_for(cfg);
            });
        }
    }
    m.push(
        "batch.checkout_us",
        p50_us(&tracer.durations("batch.checkout")),
        "us",
    );
    out.metrics = m;
    Ok(out)
}
