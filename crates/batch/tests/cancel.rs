//! Cross-tier cancellation parity: a deterministically-tripped
//! [`CancelToken`] must stop a job at the *same* instruction boundary on
//! every execution tier, reporting `JobOutcome::Cancelled` with identical
//! partial counters — the contract that makes deadline supervision
//! tier-agnostic. The boundary ordinal counts within the launch that
//! stopped, and a token composes with tracing and cost estimation: one
//! that never fires changes nothing a job reports.

use rvv_batch::{BatchJob, BatchRunner, CostModel, JobReport};
use scanvec::primitives::plus_scan;
use scanvec::{CancelToken, Engine, EnvConfig, ExecEngine};
use std::sync::Arc;

fn cancelled_report(exec: ExecEngine, trip_at: u64) -> (String, u64) {
    let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
    let token = CancelToken::after_checks(trip_at);
    let job = BatchJob::new("cancel-parity", EnvConfig::paper_default(), |env| {
        let v = env.from_u32(&[7u32; 512])?;
        plus_scan(env, &v)
    })
    .cancel_token(token);
    let result = BatchRunner::with_engine(1, engine).run(vec![job]);
    let report = &result.reports[0];
    (report.stable_line(), report.retired)
}

#[test]
fn cancellation_trips_at_the_same_boundary_on_every_tier() {
    let reports: Vec<(String, u64)> = ExecEngine::ALL
        .iter()
        .map(|&exec| cancelled_report(exec, 50))
        .collect();
    let (line, retired) = &reports[0];
    assert!(line.contains("cancelled at=50"), "{line}");
    // 49 boundaries passed the check before the 50th tripped it.
    assert_eq!(*retired, 49, "{line}");
    for (other, _) in &reports[1..] {
        assert_eq!(line, other, "tiers disagree on the cancelled report");
    }
}

#[test]
fn a_pre_cancelled_token_retires_nothing_on_any_tier() {
    for &exec in &ExecEngine::ALL {
        let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
        let token = CancelToken::new();
        token.cancel();
        let job = BatchJob::new("pre-cancelled", EnvConfig::paper_default(), |env| {
            let v = env.from_u32(&[1u32; 64])?;
            plus_scan(env, &v)
        })
        .cancel_token(token);
        let result = BatchRunner::with_engine(1, engine).run(vec![job]);
        let report = &result.reports[0];
        assert!(
            report.stable_line().contains("cancelled at=1"),
            "{exec:?}: {}",
            report.stable_line()
        );
        assert_eq!(report.retired, 0, "{exec:?} retired work after cancel");
    }
}

/// Run one `plus_scan` job over 512 elements (`launches` kernel launches)
/// on `exec`, costed under the ara-like preset and traced when asked,
/// under `token` if given.
fn scan_report(
    exec: ExecEngine,
    launches: usize,
    traced: bool,
    token: Option<CancelToken>,
) -> JobReport<u64> {
    let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
    let mut job = BatchJob::new("scan", EnvConfig::paper_default(), move |env| {
        let v = env.from_u32(&[7u32; 512])?;
        let mut last = 0;
        for _ in 0..launches {
            last = plus_scan(env, &v)?;
        }
        Ok(last)
    })
    .costed(CostModel::ara_like())
    .traced(traced);
    if let Some(token) = token {
        job = job.cancel_token(token);
    }
    let mut result = BatchRunner::with_engine(1, engine).run(vec![job]);
    result.reports.remove(0)
}

#[test]
fn a_token_that_never_fires_changes_nothing_on_any_tier() {
    for &exec in &ExecEngine::ALL {
        let plain = scan_report(exec, 1, true, None);
        let watched = scan_report(exec, 1, true, Some(CancelToken::new()));
        assert!(plain.outcome.is_ok(), "{exec:?}: {}", plain.stable_line());
        assert_eq!(plain.stable_line(), watched.stable_line(), "{exec:?}");
        assert_eq!(plain.cycles, watched.cycles, "{exec:?}");
        let retired = |r: &JobReport<u64>| r.profile.as_ref().map(|p| p.total_retired());
        assert_eq!(retired(&plain), Some(plain.retired), "{exec:?}");
        assert_eq!(retired(&watched), Some(plain.retired), "{exec:?}");
    }
}

#[test]
fn a_cancelled_costed_job_reports_the_same_cycles_on_every_tier() {
    let reports: Vec<JobReport<u64>> = ExecEngine::ALL
        .iter()
        .map(|&exec| scan_report(exec, 1, false, Some(CancelToken::after_checks(50))))
        .collect();
    let cycles = reports[0].cycles.as_ref().map(|c| c.total());
    assert!(cycles.is_some_and(|c| c > 0), "{cycles:?}");
    for r in &reports {
        assert!(
            r.stable_line().contains("cancelled at=50"),
            "{}",
            r.stable_line()
        );
        assert_eq!(r.cycles.as_ref().map(|c| c.total()), cycles);
    }
}

#[test]
fn the_cancel_ordinal_counts_within_the_launch() {
    // One launch consults the token once per retired instruction.
    let once = CancelToken::new();
    let first = scan_report(ExecEngine::Plan, 1, false, Some(once.clone()));
    assert_eq!(once.checks(), first.retired);
    for &exec in &ExecEngine::ALL {
        // Trip at the 10th boundary of the second launch.
        let token = CancelToken::after_checks(first.retired + 10);
        let r = scan_report(exec, 2, false, Some(token.clone()));
        assert!(
            r.stable_line().ends_with("output=cancelled at=10"),
            "{exec:?}: {}",
            r.stable_line()
        );
        assert_eq!(r.retired, first.retired + 9, "{exec:?}");
        assert_eq!(token.checks(), first.retired + 10, "{exec:?}");
    }
}
