//! Print the paper's tables, figure and ablations from the reproduction
//! manifest (`scanvec_bench::manifest`): every row, or the rows named on
//! the command line, each ending with its shape claim and verdict.
//! `results/full_run.txt` is this binary's output with no row names. The
//! two rows with traced profiles also write them to
//! `results/<row>_m{1,8}.{json,txt}`.
//!
//! `--max-n <N>` caps the sizes, `--threads <T>` runs the jobs on T
//! workers, and `--exec-engine <plan|legacy|fused>` picks the run-loop
//! tier; the output is byte-identical at any thread count and on any tier.
//!
//! The rows' point jobs run as one batch, and three gates check it:
//!
//! * Determinism. At `--threads` above 1 the batch also runs serially, as
//!   the reference, and the two runs' stable digests (every point, retired
//!   count and counter, and a costed job's cycles; no timing) must be
//!   equal. A divergence prints both on stderr and exits 1.
//! * Faults. `--inject-seed <S>` arms `FaultPlan::derive(S, job index)` on
//!   every point job, under an instruction watchdog. The failed jobs go to
//!   `results/failure_manifest.txt`, which is printed in place of the
//!   tables, and the run exits 2. Without injection a failed job is a bug:
//!   its summary goes to stderr and the run exits 1.
//! * Crashes. `--journal` runs the batch under the write-ahead journal
//!   `results/repro.journal`, or `results/repro-inject-<S>.journal` under
//!   `--inject-seed <S>`: the journal's tag binds the job list but not the
//!   armed faults, so each seed resumes only its own journal, and a
//!   resume under a seed that has none exits 1. `--resume` replays it and
//!   runs the rest;
//!   `--crash-at <N>` aborts the process after N journaled points, and
//!   `--crash-seed <S>` derives N from S. The serial reference does not run
//!   under `--journal`, so a resume never runs a journaled point again.
//!
//! Every run writes `results/parallel_sweep.json`: the batch's jobs,
//! retired instructions and stable digest, the same at any thread count,
//! on any tier, and after any crash and resume. Exits 1 after printing if
//! a claim fails, and 2 on a usage error: an unknown flag or row, a
//! malformed value, or a journal flag without `--journal`.

use rvv_batch::journal::{run_journaled, JournalOptions};
use rvv_batch::{BatchJob, BatchResult, BatchRunner, Engine};
use rvv_ckpt::{fnv1a, write_atomic};
use rvv_fault::{ArmedFaults, CrashPoint, FaultPlan};
use scanvec::HEAP_BASE;
use scanvec_bench::manifest::{self, Point, Sweep, MANIFEST};
use scanvec_bench::{
    exec_engine_arg, flag_arg, max_n_arg, num_arg, positional_args, threads_arg, usage_error,
};
use std::num::NonZeroU64;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;

/// The flags that take a value, then the ones that stand alone.
const VALUED: [&str; 6] = [
    "--max-n",
    "--threads",
    "--exec-engine",
    "--inject-seed",
    "--crash-at",
    "--crash-seed",
];
const BARE: [&str; 2] = ["--journal", "--resume"];
/// The flags only `--journal` reads.
const JOURNAL_ONLY: [&str; 3] = ["--resume", "--crash-at", "--crash-seed"];

/// Instruction watchdog for injected runs: far above the largest point
/// (~2.4×10⁸ retired, Table 1 at n=10⁶), far below `DEFAULT_FUEL` — a
/// fault that turns a loop infinite burns 10⁹ instructions, not 4×10⁹.
/// Installed as the engine's default fuel budget, not per job.
const INJECT_WATCHDOG: u64 = 1_000_000_000;

/// Arm `FaultPlan::derive(seed, index)` on every job: guard regions on the
/// device heap plus the [`ArmedFaults`] hook, installed by a per-attempt
/// setup closure (the environment reset between jobs clears both).
fn arm_injection(jobs: Vec<BatchJob<Point>>, seed: u64) -> Vec<BatchJob<Point>> {
    let armed = jobs.into_iter().enumerate().map(|(i, job)| {
        let plan = FaultPlan::derive(seed, i as u64);
        job.with_setup(move |env| {
            for r in plan.guard_ranges(HEAP_BASE) {
                env.machine_mut().mem.add_guard(r);
            }
            env.attach_fault_hook(Box::new(ArmedFaults::new(&plan)));
        })
    });
    armed.collect()
}

fn digest(result: &BatchResult<Point>) -> u64 {
    fnv1a(result.stable_digest().as_bytes())
}

fn write(path: &str, contents: &str) {
    write_atomic(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn main() {
    let mut usage = String::from(
        "usage: repro [--max-n N] [--threads T] [--exec-engine plan|legacy|fused] \
         [--inject-seed S] [--journal [--resume] [--crash-at N | --crash-seed S]] [ROW...]\nrows:",
    );
    for row in MANIFEST {
        usage += &format!("\n  {:<20} {}", row.name, row.section);
    }
    let names = positional_args(&VALUED, &BARE, &usage);
    if let Some(name) = names.iter().find(|n| manifest::row(n).is_none()) {
        usage_error(&format!("unknown row `{name}`\n{usage}"));
    }
    let journal = flag_arg("--journal");
    if let Some(flag) = JOURNAL_ONLY.iter().find(|f| !journal && flag_arg(f)) {
        usage_error(&format!("{flag} needs --journal\n{usage}"));
    }
    let (max_n, threads, exec) = (max_n_arg(), threads_arg(), exec_engine_arg());
    let inject_seed = num_arg("--inject-seed");
    let crash_at = num_arg("--crash-at").map(|n| {
        NonZeroU64::new(n).unwrap_or_else(|| usage_error("--crash-at must be at least 1"))
    });
    let crash_seed = num_arg("--crash-seed");
    let rows: Vec<_> = MANIFEST
        .iter()
        .filter(|r| names.is_empty() || names.iter().any(|n| n == r.name))
        .collect();
    let sweep = Sweep::new(&rows, max_n);
    let jobs = || match inject_seed {
        Some(seed) => arm_injection(sweep.jobs(), seed),
        None => sweep.jobs(),
    };

    let mut engine = Engine::builder();
    if let Some(exec) = exec {
        engine = engine.default_exec_engine(exec);
    }
    if inject_seed.is_some() {
        engine = engine.default_fuel_budget(INJECT_WATCHDOG);
    }
    let engine = Arc::new(engine.build());
    let runner = BatchRunner::with_engine(threads, Arc::clone(&engine));
    std::fs::create_dir_all("results").expect("results dir");

    let points = if journal {
        let jobs = jobs();
        // An explicit `--crash-at` wins; otherwise `--crash-seed` derives
        // the ordinal from the job count.
        let crash_after = crash_at.or_else(|| {
            crash_seed.map(|seed| {
                let point = CrashPoint::derive(seed, jobs.len() as u64);
                eprintln!("crash point derived: {point}");
                NonZeroU64::new(point.ordinal).expect("derived crash points are at least 1")
            })
        });
        let opts = JournalOptions {
            resume: flag_arg("--resume"),
            crash_after,
        };
        let path = match inject_seed {
            Some(seed) => format!("results/repro-inject-{seed:#x}.journal"),
            None => "results/repro.journal".to_string(),
        };
        run_journaled(&runner, jobs, Path::new(&path), &opts).unwrap_or_else(|e| {
            eprintln!("ERROR: journaled run failed: {e}");
            exit(1)
        })
    } else {
        let reference = (threads > 1).then(|| {
            let serial = BatchRunner::with_engine(1, Arc::clone(&engine)).run(jobs());
            digest(&serial)
        });
        let points = runner.run(jobs());
        if let Some(serial) = reference.filter(|&d| d != digest(&points)) {
            eprintln!(
                "ERROR: the run on {threads} workers has stable digest {:#018x}, \
                 the serial reference {serial:#018x}",
                digest(&points)
            );
            exit(1);
        }
        points
    };
    let json = format!(
        "{{\n  \"jobs\": {},\n  \"retired\": {},\n  \"stable_digest\": \"{:#018x}\"\n}}\n",
        points.reports.len(),
        points.retired(),
        digest(&points),
    );
    write("results/parallel_sweep.json", &json);

    if let Some(summary) = points.degraded() {
        let Some(seed) = inject_seed else {
            eprintln!("ERROR: {summary}");
            exit(1)
        };
        let failures =
            format!("# repro failure manifest\n# fault injection seed={seed:#x}\n{summary}");
        write("results/failure_manifest.txt", &failures);
        print!("{failures}");
        eprintln!("-> results/failure_manifest.txt (tables skipped)");
        exit(2);
    }
    let runs = sweep.runs(&points.reports, &runner);
    for (path, contents) in manifest::profile_files(&rows, &runs) {
        write(&path, &contents);
    }
    let (text, failed) = manifest::render(&rows, &runs);
    print!("{text}");
    if !failed.is_empty() {
        eprintln!("claims failed: {}", failed.join(", "));
        exit(1);
    }
}
