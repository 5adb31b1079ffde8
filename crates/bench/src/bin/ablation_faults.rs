//! Fault-injection ablation: the eight scan-vector algorithms under
//! seeded fault plans, driven through the `rvv-batch` engine with
//! panic isolation, retries, and the instruction watchdog armed.
//!
//! The same scenario grid runs at 1, 2, and `--threads` workers and the
//! three stable digests are compared byte for byte: fault firing, trap
//! classification, and retry behaviour must be scheduling-independent.
//! The run writes:
//!
//! * `results/fault_manifest.txt` — one stable line per scenario
//!   (deterministic: byte-identical across thread counts and reruns), plus
//!   the failure summary.
//! * `results/fault_ablation.json` — scenario counts by outcome and the
//!   determinism verdict.
//!
//! `--inject-seed <S>` picks the fault seed (default below); any seed must
//! satisfy the same contract — zero panics, identical digests.

use rvv_batch::{BatchJob, BatchRunner, Engine, JobOutcome};
use rvv_fault::chaos::{chaos_config, run_algo, ChaosAlgo, CHAOS_FUEL};
use rvv_fault::{ArmedFaults, FaultPlan};
use scanvec::{ScanEnv, HEAP_BASE};
use scanvec_bench::{num_arg, threads_arg};
use std::sync::Arc;

/// Default fault seed: the chaos suite's, so CI exercises a fixed grid.
const DEFAULT_SEED: u64 = 0x5eed_fa17_2026_0807;

/// Scenarios per algorithm (× 8 algorithms = the grid).
const PER_ALGO: u64 = 28;

fn scenario_jobs(seed: u64) -> Vec<BatchJob<String>> {
    let mut jobs = Vec::new();
    for (a, &algo) in ChaosAlgo::ALL.iter().enumerate() {
        for i in 0..PER_ALGO {
            let index = a as u64 * PER_ALGO + i;
            // Size varies with the scenario so faults meet different
            // workload shapes; data depends on (seed, algo) only.
            let n = 64 + (index as usize % 4) * 32;
            let data_seed = seed ^ (0x5ca1_ab1e_0000_0000 | algo as u64);
            let plan = FaultPlan::derive(seed, index);
            jobs.push(
                BatchJob::new(
                    format!("fault/{}/{index:03}", algo.name()),
                    chaos_config(),
                    move |env: &mut ScanEnv| run_algo(env, algo, data_seed, n),
                )
                // One retry: the plan re-arms each attempt (setup runs per
                // attempt), so a faulted job fails identically twice —
                // exercising the retry path without changing the outcome.
                .retries(1)
                .with_setup(move |env| {
                    for r in plan.guard_ranges(HEAP_BASE) {
                        env.machine_mut().mem.add_guard(r);
                    }
                    env.attach_fault_hook(Box::new(ArmedFaults::new(&plan)));
                }),
            );
        }
    }
    jobs
}

fn main() {
    let seed = num_arg("--inject-seed").unwrap_or(DEFAULT_SEED);
    let max_threads = threads_arg();
    let total = ChaosAlgo::ALL.len() as u64 * PER_ALGO;
    println!("fault ablation: seed={seed:#x}, {total} scenarios, 8 algorithms");

    // The same grid at every worker count; digests must agree byte for
    // byte — that's the determinism-under-injection claim. Every run
    // shares one engine, whose default fuel budget is the chaos
    // watchdog: each scenario inherits it instead of carrying its own.
    let engine = Arc::new(Engine::builder().default_fuel_budget(CHAOS_FUEL).build());
    let mut counts: Vec<usize> = vec![1, 2];
    if max_threads > 2 {
        counts.push(max_threads);
    }
    let runs: Vec<_> = counts
        .iter()
        .map(|&t| {
            let r = BatchRunner::with_engine(t, Arc::clone(&engine)).run(scenario_jobs(seed));
            println!(
                "  threads={t}: {} scenarios, {} retired, {:.2}s",
                r.reports.len(),
                r.retired(),
                r.wall.as_secs_f64()
            );
            r
        })
        .collect();
    let reference = runs[0].stable_digest();
    let identical = runs.iter().all(|r| r.stable_digest() == reference);

    // Zero-panic contract: every failure must be a classified trap or a
    // timeout, never an escaped panic.
    let result = &runs[0];
    let (mut ok, mut trapped, mut timed_out, mut other) = (0u64, 0u64, 0u64, 0u64);
    for r in &result.reports {
        match &r.outcome {
            JobOutcome::Ok(_) => ok += 1,
            JobOutcome::Trapped(_) => trapped += 1,
            JobOutcome::TimedOut { .. } => timed_out += 1,
            JobOutcome::Panicked(msg) => {
                panic!("PANIC escaped fault injection in {}: {msg}", r.name)
            }
            JobOutcome::Failed(_) => other += 1,
            // This driver never journals, so nothing can replay here.
            JobOutcome::Replayed(s) => {
                panic!("replayed outcome in a live run at {}: {s}", r.name)
            }
            // And it attaches no cancel tokens, so nothing can cancel.
            JobOutcome::Cancelled { at } => {
                panic!("cancelled outcome without a token at {}: at={at}", r.name)
            }
        }
    }
    let faulted = trapped + timed_out + other;
    assert!(
        faulted >= total / 4,
        "only {faulted}/{total} scenarios faulted — injection is miswired"
    );
    // Retries are bounded and deterministic: a faulted job burns exactly
    // its retry budget, a clean job exactly one attempt.
    for r in &result.reports {
        let expect = if r.outcome.is_ok() { 1 } else { 2 };
        assert_eq!(r.attempts, expect, "{}: attempts", r.name);
    }

    std::fs::create_dir_all("results").expect("results dir");
    let mut manifest = format!("# fault ablation manifest\n# seed={seed:#x}\n");
    manifest.push_str(&reference);
    if let Some(summary) = result.degraded() {
        manifest.push_str(&format!("{summary}"));
    }
    rvv_ckpt::write_atomic("results/fault_manifest.txt", &manifest)
        .expect("write fault_manifest.txt");

    let json = format!(
        concat!(
            "{{\n",
            "  \"seed\": \"{:#x}\",\n",
            "  \"scenarios\": {},\n",
            "  \"ok\": {},\n",
            "  \"trapped\": {},\n",
            "  \"timed_out\": {},\n",
            "  \"host_failed\": {},\n",
            "  \"panicked\": 0,\n",
            "  \"thread_counts\": {:?},\n",
            "  \"identical\": {}\n",
            "}}\n"
        ),
        seed, total, ok, trapped, timed_out, other, counts, identical
    );
    rvv_ckpt::write_atomic("results/fault_ablation.json", json).expect("write fault_ablation.json");

    println!("\n{ok} ok, {trapped} trapped, {timed_out} timed out, {other} host-failed, 0 panics");
    println!(
        "digests at threads {counts:?}: {}",
        if identical { "identical" } else { "DIVERGED" }
    );
    println!("-> results/fault_manifest.txt, results/fault_ablation.json");
    if !identical {
        eprintln!("ERROR: fault injection outcomes diverged across thread counts");
        std::process::exit(1);
    }
}
