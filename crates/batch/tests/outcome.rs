//! Failure containment: every way a job can end is classified, isolated,
//! and reported deterministically — and a simulator trap's full detail
//! (byte addresses, fuel values) survives the trip through
//! [`ScanError::Sim`] into [`JobReport::stable_line`] and the degraded
//! manifest.

use rvv_batch::{BatchJob, BatchRunner, Engine, EnvConfig, JobOutcome, ScanEnv};
use rvv_sim::SimError;
use scanvec::primitives::{plus_scan, seg_plus_scan};
use scanvec::{ScanError, HEAP_BASE};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

// A reset environment's first allocation lands at `HEAP_BASE`, so a guard
// over it fires on the kernel's first access.
fn cfg() -> EnvConfig {
    EnvConfig {
        mem_bytes: 1 << 22,
        ..EnvConfig::with_vlen(256)
    }
}

fn ok_job(name: &str) -> BatchJob<u64> {
    BatchJob::new(name, cfg(), |env: &mut ScanEnv| {
        let v = env.from_u32(&[1; 100])?;
        plus_scan(env, &v)
    })
}

fn trapped_job(name: &str) -> BatchJob<u64> {
    BatchJob::new(name, cfg(), |env: &mut ScanEnv| {
        env.machine_mut().mem.add_guard(HEAP_BASE..HEAP_BASE + 64);
        let v = env.from_u32(&[1; 100])?;
        plus_scan(env, &v)
    })
}

fn host_failed_job(name: &str) -> BatchJob<u64> {
    BatchJob::new(name, cfg(), |env: &mut ScanEnv| {
        let v = env.from_u32(&[1; 100])?;
        let f = env.from_u32(&[1; 50])?;
        seg_plus_scan(env, &v, &f) // length mismatch: host-side error
    })
}

fn panicking_job(name: &str) -> BatchJob<u64> {
    BatchJob::new(name, cfg(), |_: &mut ScanEnv| -> scanvec::ScanResult<u64> {
        panic!("deliberate test panic")
    })
}

fn timed_out_job(name: &str) -> BatchJob<u64> {
    BatchJob::new(name, cfg(), |env: &mut ScanEnv| {
        let v = env.from_u32(&[1; 1000])?;
        plus_scan(env, &v)
    })
    .watchdog(50)
}

fn mixed_jobs() -> Vec<BatchJob<u64>> {
    vec![
        ok_job("ok"),
        trapped_job("trapped"),
        host_failed_job("host-failed"),
        panicking_job("panicking"),
        timed_out_job("timed-out"),
        // A clean job *after* the panic, on the same config: the pool must
        // hand it a non-poisoned environment.
        ok_job("ok-after-panic"),
    ]
}

#[test]
fn every_failure_mode_is_classified() {
    let result = BatchRunner::with_engine(1, Arc::new(Engine::new())).run(mixed_jobs());
    assert_eq!(
        result.reports.len(),
        6,
        "failures must not shorten the batch"
    );
    assert!(!result.all_ok());

    let r = &result.reports;
    assert!(matches!(r[0].outcome, JobOutcome::Ok(_)));
    match &r[1].outcome {
        JobOutcome::Trapped(SimError::GuardHit { addr }) => {
            assert_eq!(*addr, HEAP_BASE, "trap detail must survive classification")
        }
        other => panic!("expected a guard trap, got {other:?}"),
    }
    assert!(matches!(
        r[2].outcome,
        JobOutcome::Failed(ScanError::LengthMismatch { .. })
    ));
    match &r[3].outcome {
        JobOutcome::Panicked(msg) => assert!(msg.contains("deliberate test panic")),
        other => panic!("expected a panic, got {other:?}"),
    }
    assert!(matches!(r[4].outcome, JobOutcome::TimedOut { budget: 50 }));
    assert!(
        matches!(r[5].outcome, JobOutcome::Ok(_)),
        "a panic must not contaminate later jobs on the same config"
    );
    for report in r {
        assert_eq!(report.attempts, 1);
    }
}

#[test]
fn stable_lines_carry_full_failure_detail_but_no_scheduling_data() {
    let result = BatchRunner::with_engine(1, Arc::new(Engine::new())).run(mixed_jobs());
    let lines: Vec<String> = result.reports.iter().map(|r| r.stable_line()).collect();
    // The trap's Display — byte address included — lands verbatim in the
    // stable serialization, in the same `err …` form ScanResult used.
    assert!(
        lines[1].contains("err simulator trap: guard region hit at 0x1000"),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("err length mismatch"), "{}", lines[2]);
    assert!(
        lines[3].contains("panicked deliberate test panic"),
        "{}",
        lines[3]
    );
    assert!(lines[4].contains("timed-out budget=50"), "{}", lines[4]);
    for line in &lines {
        assert!(!line.contains("attempts"), "attempt count leaked: {line}");
        assert!(!line.contains("worker"), "worker id leaked: {line}");
    }
}

#[test]
fn degraded_summary_is_thread_count_invariant() {
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|t| BatchRunner::with_engine(t, Arc::new(Engine::new())).run(mixed_jobs()))
        .collect();
    let reference = runs[0].degraded().expect("mixed batch has failures");
    assert_eq!(reference.total, 6);
    assert_eq!(reference.failed.len(), 4);
    assert_eq!(
        reference.failed.iter().map(|f| f.index).collect::<Vec<_>>(),
        vec![1, 2, 3, 4]
    );
    for run in &runs {
        let summary = run.degraded().expect("same failures at any thread count");
        assert_eq!(summary, reference);
        assert_eq!(summary.to_string(), reference.to_string());
        assert_eq!(run.stable_digest(), runs[0].stable_digest());
    }
    // The manifest names every failure in job order with its stable form.
    let text = reference.to_string();
    assert!(text.starts_with("4 of 6 jobs failed\n"), "{text}");
    assert!(text.contains("0001 trapped: err simulator trap"), "{text}");
    assert!(
        text.contains("0004 timed-out: timed-out budget=50"),
        "{text}"
    );
}

#[test]
fn retries_rerun_failed_attempts_in_a_fresh_environment() {
    // Fails on the first attempt, succeeds on the second — only possible
    // to observe if the retry actually runs.
    let tries = Arc::new(AtomicU32::new(0));
    let t = Arc::clone(&tries);
    let flaky = BatchJob::new("flaky", cfg(), move |env: &mut ScanEnv| {
        if t.fetch_add(1, Ordering::SeqCst) == 0 {
            // Poison the attempt with a guard trap; the retry's fresh
            // environment must not inherit the guard.
            env.machine_mut().mem.add_guard(HEAP_BASE..HEAP_BASE + 64);
        }
        let v = env.from_u32(&[1; 100])?;
        plus_scan(env, &v)
    })
    .retries(2);
    let hopeless = trapped_job("hopeless").retries(2);

    let result = BatchRunner::with_engine(1, Arc::new(Engine::new())).run(vec![flaky, hopeless]);
    let r = &result.reports;
    assert!(r[0].outcome.is_ok(), "retry must recover the flaky job");
    assert_eq!(
        r[0].attempts, 2,
        "success on the second attempt stops retrying"
    );
    assert!(matches!(r[1].outcome, JobOutcome::Trapped(_)));
    assert_eq!(
        r[1].attempts, 3,
        "deterministic failures burn the whole budget"
    );

    // Attempt counts are reported but quarantined: the flaky job's stable
    // line equals a never-failing twin's.
    let clean = BatchRunner::with_engine(1, Arc::new(Engine::new())).run(vec![ok_job("flaky")]);
    assert_eq!(r[0].stable_line(), clean.reports[0].stable_line());
}

#[test]
fn panicked_jobs_poison_only_their_own_environment() {
    // Panic and clean jobs interleaved on one config across 4 workers:
    // every clean job must still succeed, every panic must be contained.
    let mut jobs = Vec::new();
    for i in 0..12 {
        if i % 3 == 1 {
            jobs.push(panicking_job(&format!("boom/{i}")));
        } else {
            jobs.push(ok_job(&format!("fine/{i}")));
        }
    }
    let result = BatchRunner::with_engine(4, Arc::new(Engine::new())).run(jobs);
    for (i, r) in result.reports.iter().enumerate() {
        if i % 3 == 1 {
            assert!(matches!(r.outcome, JobOutcome::Panicked(_)), "{}", r.name);
        } else {
            assert!(r.outcome.is_ok(), "{} was contaminated", r.name);
        }
    }
    let serial = BatchRunner::with_engine(1, Arc::new(Engine::new())).run(
        (0..12)
            .map(|i| {
                if i % 3 == 1 {
                    panicking_job(&format!("boom/{i}"))
                } else {
                    ok_job(&format!("fine/{i}"))
                }
            })
            .collect(),
    );
    assert_eq!(result.stable_digest(), serial.stable_digest());
}
