//! The determinism gate over the paper's table grid: Tables 1–5 and 7 and
//! the scan-LMUL sweep as one batch (`scanvec_bench::sweep`), printed
//! through the same manifest rows `repro` prints (Table 6 and Figure 5
//! render from Tables 5 and 7). Accepts `--max-n` to cap the sizes,
//! `--threads <N>` to run the sweep through the `rvv-batch` parallel
//! engine, and `--exec-engine <plan|legacy|fused>` to select the run-loop
//! tier for every job (the tiers are architecturally indistinguishable, so
//! every table and digest must be identical whichever is selected).
//!
//! With `--threads N > 1` the sweep runs **twice** — once serially as the
//! reference, once across N workers — and the two runs' stable digests
//! (per-point outputs, retired counts, merged counters; no timing) are
//! compared byte for byte. Any divergence is a determinism bug: the binary
//! reports it and exits nonzero. `results/parallel_sweep.json` records the
//! wall clocks and the speedup either way.
//!
//! Robustness flags:
//!
//! * `--inject-seed <S>` arms a deterministic [`FaultPlan`] on every sweep
//!   job (plan derived from `(S, job_index)`), plus a generous instruction
//!   watchdog — a chaos-hardened run of the full evaluation.
//! * `--keep-going` turns job failures from a fatal error into a degraded
//!   run: the sweep still completes every point, the failures are written
//!   to `results/failure_manifest.txt` (deterministic — byte-identical
//!   across thread counts and reruns), the tables are skipped, and the
//!   binary exits nonzero.
//!
//! Crash-safety flags (the checkpoint/recovery subsystem):
//!
//! * `--journal` runs the sweep under a write-ahead journal
//!   (`results/run_all.journal`): every completed point is persisted before
//!   the sweep moves on, and `results/parallel_sweep.json` switches to a
//!   deterministic variant (point counts and the batch stable digest, no
//!   wall clocks) so interrupted-and-resumed runs can be compared byte for
//!   byte against uninterrupted ones.
//! * `--resume` (with `--journal`) replays the journal's completed points
//!   and runs only the remainder.
//! * `--fsync-every <N>` sets the journal fsync granularity (default 1).
//! * `--crash-at <N>` aborts the process — `kill -9` semantics — after N
//!   points have been journaled by this process; `--crash-seed <S>`
//!   derives that ordinal deterministically via
//!   [`rvv_fault::CrashPoint::derive`]. Both exist for the recovery tests.
//!
//! An unknown flag, a stray argument, a malformed flag value, and a
//! crash-safety flag without `--journal` are usage errors (exit 2).

use rvv_batch::journal::{run_journaled, JournalOptions};
use rvv_batch::{BatchJob, BatchResult, BatchRunner, Engine};
use rvv_fault::{ArmedFaults, CrashPoint, FaultPlan};
use scanvec::HEAP_BASE;
use scanvec_bench::sweep::{self, sweep_jobs, Measurement, SweepShape};
use scanvec_bench::{
    cost_preset_arg, exec_engine_arg, flag_arg, num_arg, positional_args, threads_arg, usage_error,
};
use std::path::Path;
use std::sync::Arc;

const USAGE: &str = "usage: run_all [--max-n N] [--threads T] [--exec-engine plan|legacy|fused] \
     [--cost-preset P] [--inject-seed S] [--keep-going] \
     [--journal [--resume] [--fsync-every K] [--crash-at N | --crash-seed S]]";
/// The flags that take a value, then the ones that stand alone.
const VALUED: [&str; 8] = [
    "--max-n",
    "--threads",
    "--exec-engine",
    "--cost-preset",
    "--inject-seed",
    "--fsync-every",
    "--crash-at",
    "--crash-seed",
];
const BARE: [&str; 3] = ["--keep-going", "--journal", "--resume"];
/// The crash-safety flags, which only `--journal` reads.
const JOURNAL_ONLY: [&str; 4] = ["--resume", "--fsync-every", "--crash-at", "--crash-seed"];

/// Refuse, before any work, a command line with an unknown flag, a
/// stray argument, or a crash-safety flag without `--journal`; return
/// the journal's fsync granularity (`--fsync-every`, default 1).
fn check_args() -> u32 {
    if let Some(stray) = positional_args(&VALUED, &BARE, USAGE).first() {
        usage_error(&format!("unknown argument `{stray}`\n{USAGE}"));
    }
    if !flag_arg("--journal") {
        if let Some(flag) = JOURNAL_ONLY.iter().find(|f| flag_arg(f)) {
            usage_error(&format!("{flag} needs --journal\n{USAGE}"));
        }
    }
    num_arg("--fsync-every").map_or(1, |k| {
        u32::try_from(k).unwrap_or_else(|_| usage_error("--fsync-every must be at most 4294967295"))
    })
}

/// Instruction watchdog for injected runs: far above the largest legit
/// sweep point (~2×10⁸ retired at n=10⁶), far below `DEFAULT_FUEL` — a
/// fault that turns a loop infinite burns 10⁹ instructions, not 4×10⁹.
/// Installed as the engine's default fuel budget, not per job.
const INJECT_WATCHDOG: u64 = 1_000_000_000;

/// Arm `FaultPlan::derive(seed, index)` on every job: guard regions on the
/// device heap plus the [`ArmedFaults`] hook, installed by a per-attempt
/// setup closure (the environment reset between jobs clears both). The
/// matching instruction watchdog is the engine's default fuel budget.
fn arm_injection(jobs: Vec<BatchJob<Measurement>>, seed: u64) -> Vec<BatchJob<Measurement>> {
    jobs.into_iter()
        .enumerate()
        .map(|(i, job)| {
            let plan = FaultPlan::derive(seed, i as u64);
            job.with_setup(move |env| {
                for r in plan.guard_ranges(HEAP_BASE) {
                    env.machine_mut().mem.add_guard(r);
                }
                env.attach_fault_hook(Box::new(ArmedFaults::new(&plan)));
            })
        })
        .collect()
}

fn write_sweep_json(
    threads: usize,
    jobs: usize,
    retired: u64,
    serial_secs: f64,
    parallel_secs: Option<f64>,
    identical: bool,
) {
    let (parallel, speedup) = match parallel_secs {
        Some(p) => (format!("{p:.6}"), format!("{:.3}", serial_secs / p)),
        None => ("null".to_string(), "null".to_string()),
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"threads\": {},\n",
            "  \"jobs\": {},\n",
            "  \"retired\": {},\n",
            "  \"serial_secs\": {:.6},\n",
            "  \"parallel_secs\": {},\n",
            "  \"speedup\": {},\n",
            "  \"identical\": {}\n",
            "}}\n"
        ),
        threads, jobs, retired, serial_secs, parallel, speedup, identical
    );
    std::fs::create_dir_all("results").expect("results dir");
    rvv_ckpt::write_atomic("results/parallel_sweep.json", json).expect("write parallel_sweep.json");
    println!("-> results/parallel_sweep.json");
}

/// The `--journal` variant of `results/parallel_sweep.json`: everything
/// wall-clock is dropped and the batch stable digest is recorded instead,
/// so the file is byte-identical between an uninterrupted run and a
/// crashed-then-resumed one — the crash-recovery tests and the CI smoke
/// job `cmp` exactly this file.
fn write_journal_sweep_json(threads: usize, result: &BatchResult<Measurement>) {
    let json = format!(
        concat!(
            "{{\n",
            "  \"threads\": {},\n",
            "  \"jobs\": {},\n",
            "  \"retired\": {},\n",
            "  \"stable_digest\": \"{:#018x}\"\n",
            "}}\n"
        ),
        threads,
        result.reports.len(),
        result.retired(),
        rvv_ckpt::fnv1a(result.stable_digest().as_bytes())
    );
    std::fs::create_dir_all("results").expect("results dir");
    rvv_ckpt::write_atomic("results/parallel_sweep.json", json).expect("write parallel_sweep.json");
    println!("-> results/parallel_sweep.json");
}

/// Format the degraded-run failure manifest (deterministic: job order,
/// stable outcome forms, attempt/poison bookkeeping — no timing).
fn failure_manifest(summary: &rvv_batch::DegradedSummary, inject_seed: Option<u64>) -> String {
    format!(
        "# run_all failure manifest\n# fault injection seed={}\n{summary}",
        match inject_seed {
            Some(s) => format!("{s:#x}"),
            None => "none".to_string(),
        }
    )
}

/// The `--journal` code path: one journaled run at the requested thread
/// count. There is no serial-reference double-run here — the determinism
/// gate in journal mode is crash/resume digest identity (an interrupted
/// and resumed sweep must reproduce the uninterrupted file byte for
/// byte), exercised by the crash-recovery tests and the CI smoke job.
fn journal_main(
    engine: Arc<Engine>,
    threads: usize,
    keep_going: bool,
    inject_seed: Option<u64>,
    fsync_every: u32,
    shape: &SweepShape,
    jobs: Vec<BatchJob<Measurement>>,
) {
    let resume = flag_arg("--resume");
    // An explicit `--crash-at` ordinal wins; otherwise `--crash-seed`
    // derives one from the job count, the host-level analogue of
    // `FaultPlan::derive` for the chaos suite.
    let crash_after = num_arg("--crash-at").or_else(|| {
        num_arg("--crash-seed").map(|s| {
            let cp = CrashPoint::derive(s, jobs.len() as u64);
            println!("crash point derived: {cp}");
            cp.ordinal
        })
    });
    if let Some(n) = crash_after {
        println!("crash point armed: abort after {n} journaled point(s)");
    }
    let path = Path::new("results/run_all.journal");
    println!(
        "journal: {} ({})",
        path.display(),
        if resume { "resume" } else { "fresh" }
    );
    let result = run_journaled(
        &BatchRunner::with_engine(threads, engine),
        jobs,
        path,
        &JournalOptions {
            fsync_every,
            resume,
            crash_after,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("ERROR: journaled sweep failed: {e}");
        std::process::exit(1);
    });

    if let Some(summary) = result.degraded() {
        if !keep_going {
            eprintln!("ERROR: {summary}");
            eprintln!("(re-run with --keep-going for a failure manifest)");
            std::process::exit(1);
        }
        let manifest = failure_manifest(&summary, inject_seed);
        std::fs::create_dir_all("results").expect("results dir");
        rvv_ckpt::write_atomic("results/failure_manifest.txt", &manifest)
            .expect("write failure_manifest.txt");
        print!("{manifest}");
        println!("-> results/failure_manifest.txt (tables skipped)");
        write_journal_sweep_json(threads, &result);
        std::process::exit(2);
    }

    print!("{}", sweep::render(shape, &result.reports));
    println!(
        "{} jobs, {} instructions simulated, {} plan compiles, {} thread(s)",
        result.reports.len(),
        result.retired(),
        result.plan_compiles,
        result.threads,
    );
    if let Some(c) = &result.cycles {
        print!("modeled {c}");
    }
    write_journal_sweep_json(threads, &result);
}

fn main() {
    let fsync_every = check_args();
    let threads = threads_arg();
    let keep_going = flag_arg("--keep-going");
    let inject_seed = num_arg("--inject-seed");
    let cost = cost_preset_arg();
    let shape = SweepShape::from_args();
    let wall = std::time::Instant::now();

    // One engine for the whole evaluation — serial reference, parallel
    // sweep, and journal mode all share its plan registry and inherit its
    // policy defaults. With a cost preset the whole sweep is costed:
    // cycles fold into every stable line and the merged digest, so the
    // serial-vs-parallel comparison below (and the crash/resume comparison
    // in journal mode) gates the cycle metric's determinism too. With
    // fault injection armed, every job inherits the watchdog budget.
    let exec = exec_engine_arg();
    let engine = {
        let mut b = Engine::builder();
        if let Some(model) = &cost {
            b = b.cost_model(model.clone());
        }
        if inject_seed.is_some() {
            b = b.default_fuel_budget(INJECT_WATCHDOG);
        }
        // `--exec-engine` selects the run-loop tier for every sweep job
        // (sessions inherit the engine default, and `reset()` reverts to
        // it). All tiers are architecturally indistinguishable, so the
        // stable digest must not change — the CI parity job compares a
        // fused sweep's digest against a plan sweep's byte for byte.
        if let Some(exec) = exec {
            b = b.default_exec_engine(exec);
        }
        Arc::new(b.build())
    };

    let build_jobs = || {
        let jobs = sweep_jobs(&shape);
        match inject_seed {
            Some(seed) => arm_injection(jobs, seed),
            None => jobs,
        }
    };
    if let Some(seed) = inject_seed {
        println!("fault injection armed: seed={seed:#x}");
    }
    if let Some(model) = &cost {
        println!("cost model armed: {}", model.name());
    }
    if let Some(exec) = exec {
        println!("exec engine: {}", exec.name());
    }
    if flag_arg("--journal") {
        journal_main(
            engine,
            threads,
            keep_going,
            inject_seed,
            fsync_every,
            &shape,
            build_jobs(),
        );
        return;
    }

    // Serial reference run: job order on one thread.
    let serial = BatchRunner::with_engine(1, Arc::clone(&engine)).run(build_jobs());
    let serial_secs = serial.wall.as_secs_f64();

    // Parallel run of the *same* jobs — same shared engine, so every plan
    // compiled by the reference run is reused — then the byte-for-byte
    // comparison.
    let (result, parallel_secs, identical) = if threads > 1 {
        let parallel = BatchRunner::with_engine(threads, Arc::clone(&engine)).run(build_jobs());
        let identical = parallel.stable_digest() == serial.stable_digest();
        let secs = parallel.wall.as_secs_f64();
        (parallel, Some(secs), identical)
    } else {
        (serial, None, true)
    };

    // A degraded batch can't be folded into tables (`sweep::runs` demands
    // every point). With `--keep-going` the run still counts: write the
    // deterministic failure manifest and exit nonzero after the bookkeeping.
    if let Some(summary) = result.degraded() {
        if !keep_going {
            eprintln!("ERROR: {summary}");
            eprintln!("(re-run with --keep-going for a failure manifest)");
            std::process::exit(1);
        }
        let manifest = failure_manifest(&summary, inject_seed);
        std::fs::create_dir_all("results").expect("results dir");
        rvv_ckpt::write_atomic("results/failure_manifest.txt", &manifest)
            .expect("write failure_manifest.txt");
        print!("{manifest}");
        println!("-> results/failure_manifest.txt (tables skipped)");
        println!(
            "\n{} jobs, {} instructions simulated, {} plan compiles, {} thread(s)",
            result.reports.len(),
            result.retired(),
            result.plan_compiles,
            result.threads,
        );
        write_sweep_json(
            threads,
            result.reports.len(),
            result.retired(),
            serial_secs,
            parallel_secs,
            identical,
        );
        if !identical {
            eprintln!("ERROR: parallel sweep diverged from the serial reference");
        }
        std::process::exit(if identical { 2 } else { 1 });
    }

    print!("{}", sweep::render(&shape, &result.reports));
    println!(
        "{} jobs, {} instructions simulated, {} plan compiles, {} thread(s)",
        result.reports.len(),
        result.retired(),
        result.plan_compiles,
        result.threads,
    );
    if let Some(c) = &result.cycles {
        print!("modeled {c}");
    }
    if let Some(p) = parallel_secs {
        println!(
            "serial {serial_secs:.1}s, parallel {p:.1}s -> {:.2}x",
            serial_secs / p
        );
    }
    println!(
        "total host wall-clock: {:.1}s",
        wall.elapsed().as_secs_f64()
    );
    write_sweep_json(
        threads,
        result.reports.len(),
        result.retired(),
        serial_secs,
        parallel_secs,
        identical,
    );

    if !identical {
        eprintln!("ERROR: parallel sweep diverged from the serial reference");
        std::process::exit(1);
    }
}
