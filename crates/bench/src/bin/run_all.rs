//! Run every table, figure, and ablation in sequence — regenerates the
//! full evaluation (`results/full_run.txt` in the repository was produced
//! by this). Accepts `--max-n` like the individual binaries,
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

use rvv_batch::journal::{run_journaled, JournalOptions};
use rvv_batch::{BatchJob, BatchResult, BatchRunner, Engine};
use rvv_fault::{ArmedFaults, CrashPoint, FaultPlan};
use scanvec::HEAP_BASE;
use scanvec_bench::sweep::{decode_sweep, sweep_jobs, Measurement, SweepShape};
use scanvec_bench::{
    cost_preset_arg, exec_engine_arg, experiments, flag_arg, fmt_ratio, fmt_speedup, num_arg,
    print_table, threads_arg,
};
use std::path::Path;
use std::sync::Arc;

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

fn pairs_table(title: &str, rows: &[experiments::Pair]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                p.ours.to_string(),
                p.baseline.to_string(),
                fmt_speedup(p.baseline, p.ours),
            ]
        })
        .collect();
    print_table(
        title,
        &["N", "scan-vector-model", "baseline", "speedup"],
        &body,
    );
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
    shape: &SweepShape,
    jobs: Vec<BatchJob<Measurement>>,
) {
    let resume = flag_arg("--resume");
    let fsync_every = num_arg("--fsync-every").unwrap_or(1) as u32;
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

    print_tables(shape, &result);
    println!(
        "\n{} jobs, {} instructions simulated, {} plan compiles, {} thread(s)",
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

    // A degraded batch can't be folded into tables (`decode_sweep` demands
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

    print_tables(&shape, &result);

    println!(
        "\n{} jobs, {} instructions simulated, {} plan compiles, {} thread(s)",
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

/// Print every table and figure from a fully-successful sweep.
fn print_tables(shape: &SweepShape, result: &BatchResult<Measurement>) {
    let tables = decode_sweep(shape, &result.reports);
    pairs_table("Table 1 — split radix sort vs qsort", &tables.t1);
    pairs_table("Table 2 — p_add", &tables.t2);
    pairs_table("Table 3 — plus_scan", &tables.t3);
    pairs_table("Table 4 — seg_plus_scan", &tables.t4);

    let body: Vec<Vec<String>> = tables
        .t5
        .iter()
        .map(|&(n, c)| {
            vec![
                n.to_string(),
                c[0].to_string(),
                c[1].to_string(),
                c[2].to_string(),
                c[3].to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 5 — seg_plus_scan across LMUL",
        &["N", "m1", "m2", "m4", "m8"],
        &body,
    );

    let body: Vec<Vec<String>> = experiments::table6(&tables.t5)
        .iter()
        .map(|&(n, r)| {
            vec![
                n.to_string(),
                fmt_ratio(r[0]),
                fmt_ratio(r[1]),
                fmt_ratio(r[2]),
            ]
        })
        .collect();
    print_table(
        "Table 6 — (speedup/LMUL) ratios",
        &["N", "m2", "m4", "m8"],
        &body,
    );

    let body: Vec<Vec<String>> = tables
        .t7
        .iter()
        .map(|&(vlen, seg, padd)| vec![vlen.to_string(), seg.to_string(), padd.to_string()])
        .collect();
    print_table(
        "Table 7 — VLEN sweep",
        &["vlen", "seg_plus_scan", "p_add"],
        &body,
    );

    let body: Vec<Vec<String>> = experiments::figure5_from(tables.t7.clone())
        .iter()
        .map(|&(vlen, seg, padd, ideal)| {
            vec![
                vlen.to_string(),
                fmt_ratio(seg),
                fmt_ratio(padd),
                fmt_ratio(ideal),
            ]
        })
        .collect();
    print_table(
        "Figure 5 — speedup vs vlen=128",
        &["vlen", "seg", "p_add", "ideal"],
        &body,
    );

    let body: Vec<Vec<String>> = tables
        .scan_lmul
        .iter()
        .map(|&(l, ours, base)| vec![format!("m{l}"), ours.to_string(), fmt_speedup(base, ours)])
        .collect();
    print_table(
        "Unsegmented scan across LMUL (abstract claim)",
        &["LMUL", "count", "speedup"],
        &body,
    );
}
