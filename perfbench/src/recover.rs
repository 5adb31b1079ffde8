//! The `recover` workload: restart `rvv-serve` with `resume` over a
//! prepared journal on a cold `Engine`, then drain the pending jobs to
//! verified digests. The journal holds a long history of completed jobs
//! plus a pending set of serve-style sweeps.

use crate::gen::{history_specs, pending_sweeps};
use crate::serve::{self, Reference, Served, POLL};
use crate::stats::{median, min_samples_for, quantile};
use crate::{Outcome, Res};
use rvv_batch::{execute_job, BackoffPolicy, SessionPool};
use rvv_ckpt::queue::QueueJournal;
use rvv_ckpt::{fnv1a, fs_backend, ChaosBackend, ChaosPlan, StorageBackend};
use rvv_serve::http::request;
use rvv_serve::{JobSpec, ServeOptions, ServeState, Server, JOURNAL_TAG};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First argument of the child process that prepares the journal.
pub const PREPARE_FLAG: &str = "--prepare-journal";
/// Completed jobs in the prepared history (two records each).
const HISTORY_JOBS: usize = 50_000;
/// Pending sweeps: this many serve cycles (32 sweeps of 8 each). 256
/// sweeps leave 12 latencies of each restart beyond its p95.
const PENDING_CYCLES: u64 = 8;
/// Restarts per run at the least; `setup_s` is their median.
const MIN_REPS: usize = 3;
const JOURNAL: &str = "recover.journal";
const MANIFEST: &str = "pending.txt";

/// Child-process entry: `--prepare-journal <dir> <seed>`. Builds the
/// journal through the public `ServeState` API: submit the history, run
/// each job through `execute_job` and `finish` it, then submit the
/// pending sweeps and stop. The journal is built on a fault-free
/// in-memory backend (an fsync per record would only slow down a file
/// that is never crashed) and then written out, with a manifest of the
/// acknowledged pending sweeps next to it.
pub fn prepare_main(args: &[String]) -> Res<()> {
    let [dir, seed] = args else {
        return Err(format!("usage: {PREPARE_FLAG} <dir> <seed>").into());
    };
    let dir = Path::new(dir);
    let seed: u64 = seed.parse()?;
    let journal = dir.join(JOURNAL);
    let memory = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
    let state = ServeState::new(ServeOptions {
        storage: Some(Arc::clone(&memory) as Arc<dyn StorageBackend>),
        ..serve::options(journal.clone(), false)
    })?;
    let mut pool = SessionPool::new(&state.engine);
    let backoff = BackoffPolicy::new(0);
    for chunk in history_specs(seed, HISTORY_JOBS).chunks(64) {
        state
            .submit(chunk)
            .map_err(|e| format!("history submit: {e:?}"))?;
        for _ in chunk {
            let job = state
                .next_job()
                .ok_or("history job missing from the queue")?;
            let batch_job = job
                .spec
                .to_job(format!("job-{}", job.id))
                .retries(state.opts.retries);
            let report = execute_job(&batch_job, job.id, &mut pool, 0, &backoff);
            state.finish(
                &job,
                report.stable_line(),
                report.attempts,
                report.poisoned > 0,
                false,
            );
        }
    }
    let mut manifest = String::new();
    for specs in pending_sweeps(seed, PENDING_CYCLES) {
        let (sweep, ids) = state
            .submit(&specs)
            .map_err(|e| format!("pending submit: {e:?}"))?;
        let texts: Vec<String> = specs.iter().map(JobSpec::to_string).collect();
        let _ = writeln!(manifest, "{sweep} {} {}", ids[0], texts.join(";"));
    }
    drop(state);
    fs::write(
        &journal,
        memory.contents(&journal).ok_or("journal missing")?,
    )?;
    fs::write(dir.join(MANIFEST), manifest)?;
    Ok(())
}

/// One pending sweep as acknowledged at preparation.
struct Pending {
    sweep: u64,
    first: u64,
    specs: Vec<JobSpec>,
}

/// Prepare the journal in a child process and read back its manifest.
fn prepared(dir: &Path, seed: u64) -> Res<Vec<Pending>> {
    let status = Command::new(std::env::current_exe()?)
        .arg(PREPARE_FLAG)
        .arg(dir)
        .arg(seed.to_string())
        .status()?;
    if !status.success() {
        return Err(format!("journal preparation exited with {status}").into());
    }
    let manifest = fs::read_to_string(dir.join(MANIFEST))?;
    manifest
        .lines()
        .map(|line| {
            let mut f = line.splitn(3, ' ');
            let (sweep, first, specs) = (f.next(), f.next(), f.next());
            let bad = || format!("bad manifest line {line:?}");
            Ok(Pending {
                sweep: sweep.and_then(|s| s.parse().ok()).ok_or_else(bad)?,
                first: first.and_then(|s| s.parse().ok()).ok_or_else(bad)?,
                specs: specs
                    .ok_or_else(bad)?
                    .split(';')
                    .map(str::parse)
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

/// What one restart measured.
struct Restart {
    setup_s: f64,
    drain_s: f64,
    latencies_ms: Vec<f64>,
    served: Vec<Option<Served>>,
    compiles: u64,
}

/// Restart on a fresh copy of the prepared journal: spawn with `resume`
/// until `/healthz` answers 200, then wait for every pending sweep in
/// submit order. Each latency runs from the restart to that sweep's
/// completion.
fn restart(dir: &Path, pending: &[Pending]) -> Res<Restart> {
    let journal = dir.join("restart.journal");
    fs::copy(dir.join(JOURNAL), &journal)?;
    let t0 = Instant::now();
    let server = Server::spawn("127.0.0.1:0", serve::options(journal.clone(), true))?;
    let addr = server.addr.to_string();
    while !matches!(request(&addr, "GET", "/healthz", ""), Ok((200, _))) {
        if t0.elapsed() > Duration::from_secs(60) {
            return Err("restarted server never became healthy".into());
        }
        std::thread::sleep(POLL);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut latencies_ms = Vec::with_capacity(pending.len());
    let mut served = Vec::with_capacity(pending.len());
    for p in pending {
        served.push(
            serve::wait_complete(&addr, p.sweep, None)
                .ok()
                .map(|b| Served::of(&b)),
        );
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let drain_s = t0.elapsed().as_secs_f64() - setup_s;
    let compiles = server.state.engine.plan_cache().compiles();
    server.shutdown()?;
    fs::remove_file(&journal)?;
    Ok(Restart {
        setup_s,
        drain_s,
        latencies_ms,
        served,
        compiles,
    })
}

fn verify(out: &mut Outcome, reference: &mut Reference, pending: &[Pending], rep: &Restart) {
    for (p, served) in pending.iter().zip(&rep.served) {
        let ok = served.is_some_and(|s| {
            s.all_ok && s.hash == fnv1a(reference.sweep_text(&p.specs, p.first).as_bytes())
        });
        out.tally.record(ok);
        out.check(ok, || {
            format!("recovered sweep {} differs from its reference", p.sweep)
        });
    }
}

/// The untraced `recover` run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64, dir: &Path) -> Res<Outcome> {
    let pending = prepared(dir, seed)?;
    let budget = Duration::from_secs(seconds);
    let hard_stop = budget + Duration::from_secs(60);
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        reps.push(restart(dir, &pending)?);
        if started.elapsed() > hard_stop {
            break;
        }
    }
    let rss = crate::sys::peak_rss_mb();

    let mut out = Outcome::default();
    out.check(pending.len() >= min_samples_for(0.95, 10), || {
        format!(
            "{} pending sweeps leave fewer than 10 beyond p95",
            pending.len()
        )
    });
    let mut reference = Reference::new();
    for rep in &reps {
        verify(&mut out, &mut reference, &pending, rep);
    }
    let specs: Vec<JobSpec> = pending
        .iter()
        .flat_map(|p| p.specs.iter().copied())
        .collect();
    // Throughput and latency are the median restart's: robust to a burst
    // of host noise during one restart.
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| specs.len() as f64 / r.drain_s)
        .collect();
    let per_rep = |q: f64| -> Vec<f64> {
        reps.iter()
            .map(|r| quantile(&r.latencies_ms, q).unwrap_or(0.0))
            .collect()
    };
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let retired: u64 = specs.iter().map(|s| reference.retired(s)).sum();
    let m = &mut out.metrics;
    m.push("jobs_per_s", median(&rates), "jobs/s");
    m.push("latency_p50_ms", median(&per_rep(0.5)), "ms");
    m.push("latency_p95_ms", median(&per_rep(0.95)), "ms");
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", rss, "MB");
    m.push("guest_minstr", retired as f64 / 1e6, "Minstr");
    m.push("guest_mcycles", serve::costed_mcycles(&specs), "Mcycles");
    Ok(out)
}

/// The traced recover layers: journal replay, service restore, and the
/// plan compiles a cold engine pays while draining.
pub fn layers(seed: u64, dir: &Path) -> Res<Outcome> {
    let pending = prepared(dir, seed)?;
    let copy = dir.join("layers.journal");
    let (mut replay_us, mut restore_ms, mut salvaged) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        fs::copy(dir.join(JOURNAL), &copy)?;
        let t = Instant::now();
        let (_journal, recovery) = QueueJournal::resume_on(&fs_backend(), &copy, JOURNAL_TAG, 1)?;
        let secs = t.elapsed().as_secs_f64();
        let records = 2 * recovery.completed.len() + recovery.pending.len();
        replay_us.push(secs * 1e6 / records.max(1) as f64);
        salvaged = recovery.salvage.len();

        fs::copy(dir.join(JOURNAL), &copy)?;
        let t = Instant::now();
        let state = ServeState::new(serve::options(copy.clone(), true))?;
        restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(state);
    }
    fs::remove_file(&copy)?;
    let rep = restart(dir, &pending)?;
    let mut out = Outcome::default();
    verify(&mut out, &mut Reference::new(), &pending, &rep);
    let m = &mut out.metrics;
    m.push("ckpt.replay_us_per_record", median(&replay_us), "us");
    m.push("ckpt.salvaged", salvaged as f64, "count");
    m.push("serve.restore_ms", median(&restore_ms), "ms");
    m.push("core.compiles", rep.compiles as f64, "count");
    Ok(out)
}
