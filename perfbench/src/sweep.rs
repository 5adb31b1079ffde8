//! The `sweep` workload: the 14 job shapes through an in-process
//! `BatchRunner` on 2 workers over one warm `Engine` at its default tier.
//! No journal, no HTTP: simulator execution and data staging do the work.

use crate::gen::{shapes, App, Shape, Sizes, SweepInputs};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::{Metrics, Outcome, Res};
use rvv_batch::{
    execute_job, BackoffPolicy, BatchJob, BatchResult, BatchRunner, CostModel, Engine, SessionPool,
};
use rvv_ckpt::fnv1a;
use scanvec::primitives::{plus_scan, seg_plus_scan};
use scanvec::{ExecEngine, ScanEnv, ScanResult, SvVector};
use scanvec_algos::{bitonic_sort, histogram, seg_quicksort, split_radix_sort, spmv};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Timings taken inside a job closure: staging (`from_u32` + `to_u32`)
/// and the application call, kept apart.
#[derive(Debug, Default, Clone, Copy)]
struct Probe {
    stage_ns: u64,
    staged: u64,
    app_ns: u64,
    fused_ops: u64,
}

type Probes = Arc<Mutex<Vec<Probe>>>;

fn stage_in(env: &mut ScanEnv, data: &[u32], p: &mut Probe) -> ScanResult<SvVector> {
    let t = Instant::now();
    let v = env.from_u32(data)?;
    p.stage_ns += t.elapsed().as_nanos() as u64;
    p.staged += data.len() as u64;
    Ok(v)
}

fn stage_out(env: &ScanEnv, v: &SvVector, p: &mut Probe) -> Vec<u32> {
    let t = Instant::now();
    let out = env.to_u32(v);
    p.stage_ns += t.elapsed().as_nanos() as u64;
    p.staged += out.len() as u64;
    out
}

fn app<R>(p: &mut Probe, f: impl FnOnce() -> ScanResult<R>) -> ScanResult<R> {
    let t = Instant::now();
    let r = f();
    p.app_ns += t.elapsed().as_nanos() as u64;
    r
}

/// The body of one shape: stage the input, run the application, read the
/// output back, and return the output's FNV-1a digest.
fn body(
    env: &mut ScanEnv,
    app_kind: App,
    inp: &SweepInputs,
    p: &mut Probe,
) -> ScanResult<Vec<u32>> {
    Ok(match app_kind {
        App::Scan => {
            let v = stage_in(env, &inp.scan, p)?;
            app(p, || plus_scan(env, &v))?;
            stage_out(env, &v, p)
        }
        App::SegScan => {
            let v = stage_in(env, &inp.scan, p)?;
            let f = stage_in(env, &inp.flags, p)?;
            app(p, || seg_plus_scan(env, &v, &f))?;
            stage_out(env, &v, p)
        }
        App::Radix => {
            let v = stage_in(env, &inp.radix, p)?;
            app(p, || split_radix_sort(env, &v, inp.sizes.radix_bits))?;
            stage_out(env, &v, p)
        }
        // These two take host slices and stage internally.
        App::Histogram => app(p, || histogram(env, &inp.hist, inp.sizes.buckets))?.0,
        App::Spmv => app(p, || spmv(env, &inp.csr, &inp.x))?.0,
        App::Bitonic => {
            let v = stage_in(env, &inp.bitonic, p)?;
            app(p, || bitonic_sort(env, &v))?;
            stage_out(env, &v, p)
        }
        App::SegQsort => {
            let v = stage_in(env, &inp.qsort, p)?;
            app(p, || seg_quicksort(env, &v))?;
            stage_out(env, &v, p)
        }
    })
}

/// One shape as a batch job. `exec` overrides the engine's default tier;
/// `probes` (traced runs only) receives the closure's timings.
fn job(
    shape: Shape,
    inputs: &Arc<SweepInputs>,
    exec: Option<ExecEngine>,
    probes: Option<Probes>,
) -> BatchJob<u64> {
    let inputs = Arc::clone(inputs);
    BatchJob::new(shape.name(), shape.config(), move |env: &mut ScanEnv| {
        if let Some(e) = exec {
            env.set_exec_engine(e);
        }
        let mut p = Probe::default();
        let out = body(env, shape.app, &inputs, &mut p)?;
        if let Some(probes) = &probes {
            p.fused_ops = env.fused_stats().ops;
            probes.lock().expect("probe store poisoned").push(p);
        }
        let bytes: Vec<u8> = out.iter().flat_map(|x| x.to_le_bytes()).collect();
        Ok(fnv1a(&bytes))
    })
    .weight(weight(shape.app))
}

/// Relative job cost (about its milliseconds at the full sizes) for the
/// runner's longest-job-first schedule.
fn weight(app: App) -> u64 {
    match app {
        App::Scan => 4,
        App::SegScan => 11,
        App::Radix => 18,
        App::Histogram => 10,
        App::Spmv => 13,
        App::Bitonic => 25,
        App::SegQsort => 30,
    }
}

fn jobs(inputs: &Arc<SweepInputs>) -> Vec<BatchJob<u64>> {
    shapes()
        .into_iter()
        .map(|s| job(s, inputs, None, None))
        .collect()
}

/// Engine build plus a small-size pass that compiles every plan the full
/// pass launches. Returns the warm runner and the set-up time.
fn setup(warmup: &Arc<SweepInputs>) -> (BatchRunner, f64) {
    let t = Instant::now();
    let runner = BatchRunner::with_engine(WORKERS, Arc::new(Engine::new()));
    let result = runner.run(jobs(warmup));
    assert!(result.all_ok(), "warm-up pass failed");
    (runner, t.elapsed().as_secs_f64())
}

fn check_pass(out: &mut Outcome, pass: &BatchResult<u64>, reference: &BatchResult<u64>) {
    for (r, want) in pass.reports.iter().zip(&reference.reports) {
        let ok = r.outcome.is_ok() && r.stable_line() == want.stable_line();
        out.tally.record(ok);
        out.check(ok, || {
            format!("sweep job {} diverged from the 1-worker reference", r.name)
        });
    }
    out.check(pass.stable_digest() == reference.stable_digest(), || {
        "sweep pass digest differs from the 1-worker reference".to_string()
    });
}

fn costed_mcycles(runner: &BatchRunner, inputs: &Arc<SweepInputs>) -> f64 {
    let jobs = jobs(inputs)
        .into_iter()
        .map(|j| j.costed(CostModel::ara_like()))
        .collect();
    let result = runner.run(jobs);
    result.cycles.map_or(0.0, |c| c.total() as f64 / 1e6)
}

/// The untraced `sweep` run: end-to-end metrics only.
pub fn run(seed: u64, seconds: u64) -> Res<Outcome> {
    let inputs = Arc::new(SweepInputs::generate(seed, Sizes::FULL));
    let warmup = Arc::new(SweepInputs::generate(seed, Sizes::WARMUP));
    let (runner, _) = setup(&warmup);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed() < budget {
        passes.push(runner.run(jobs(&inputs)));
    }
    let rss = crate::sys::peak_rss_mb();
    // Set-up is timed after the measured phase, on a host in the same
    // (busy) state for every repetition.
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup(&warmup).1).collect();

    let mut out = Outcome::default();
    let reference = BatchRunner::with_engine(1, Arc::clone(runner.engine())).run(jobs(&inputs));
    out.check(reference.all_ok(), || {
        "sweep reference run failed".to_string()
    });
    // A job's latency is its shape's median wall over the passes: about
    // a hundred jobs run, so a raw tail percentile would rest on one or
    // two slow samples.
    let mut latencies = Vec::new();
    for pass in &passes {
        check_pass(&mut out, pass, &reference);
    }
    for i in 0..reference.reports.len() {
        let walls: Vec<f64> = passes
            .iter()
            .map(|p| p.reports[i].wall.as_secs_f64() * 1e3)
            .collect();
        latencies.push(median(&walls));
    }
    // Throughput is the median pass's: robust to a burst of host noise.
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.reports.len() as f64 / p.wall.as_secs_f64())
        .collect();
    let m = &mut out.metrics;
    m.push("jobs_per_s", median(&rates), "jobs/s");
    m.push("latency_p50_ms", median(&latencies), "ms");
    m.push(
        "latency_p95_ms",
        quantile(&latencies, 0.95).unwrap_or(0.0),
        "ms",
    );
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", rss, "MB");
    m.push("guest_minstr", reference.retired() as f64 / 1e6, "Minstr");
    m.push("guest_mcycles", costed_mcycles(&runner, &inputs), "Mcycles");
    Ok(out)
}

/// One job run on its own, serially, with its closure timings.
struct Solo {
    retired: u64,
    cycles: u64,
    probe: Probe,
}

fn solo(pool: &mut SessionPool<'_>, job: BatchJob<u64>, probes: &Probes) -> Result<Solo, String> {
    let report = execute_job(&job, 0, pool, 0, &BackoffPolicy::none());
    if !report.outcome.is_ok() {
        return Err(format!("{} failed: {}", job.name, report.stable_line()));
    }
    let probe = probes
        .lock()
        .expect("probe store poisoned")
        .pop()
        .unwrap_or_default();
    Ok(Solo {
        retired: report.retired,
        cycles: report.cycles.map_or(0, |c| c.total()),
        probe,
    })
}

fn ns_per(ns: u64, count: u64) -> f64 {
    ns as f64 / count.max(1) as f64
}

/// The traced sweep layers: `sim` (every shape on every tier), `cost`
/// and `trace` overheads, `core` staging and compiles, `batch` worker
/// occupancy. Also checks three-tier parity of retired instructions and
/// modeled cycles; a mismatch fails the run.
pub fn layers(seed: u64, tracer: &Arc<Tracer>) -> Res<Outcome> {
    let inputs = Arc::new(SweepInputs::generate(seed, Sizes::FULL));
    let warmup = Arc::new(SweepInputs::generate(seed, Sizes::WARMUP));
    let mut out = Outcome::default();
    let mut m = Metrics::default();

    // core: plan compiles, the small-size pass on a cold engine minus the
    // same pass once warm, per compile (median over fresh engines).
    let mut compile_ms = Vec::new();
    for _ in 0..5 {
        let runner = BatchRunner::with_engine(1, Arc::new(Engine::new()));
        let cold = tracer.time("core.cold_pass", 0, None, || runner.run(jobs(&warmup)));
        let warm = tracer.time("core.warm_pass", 0, None, || runner.run(jobs(&warmup)));
        let saved = cold.wall.as_secs_f64() - warm.wall.as_secs_f64();
        compile_ms.push(saved * 1e3 / cold.plan_compiles.max(1) as f64);
    }
    m.push("core.compile_ms", median(&compile_ms), "ms");
    let engine = Arc::new(Engine::new());

    // batch: occupancy of the 2 workers over one full pass.
    let runner = BatchRunner::with_engine(WORKERS, Arc::clone(&engine));
    let pass = tracer.time("batch.pass", 0, None, || runner.run(jobs(&inputs)));
    let busy: f64 = pass.reports.iter().map(|r| r.wall.as_secs_f64()).sum();
    m.push(
        "batch.worker_busy_frac",
        busy / (WORKERS as f64 * pass.wall.as_secs_f64()),
        "fraction",
    );
    out.tally.record(pass.all_ok());

    // batch: session creation (pool miss) for the sweep configurations.
    let mut creates = Vec::new();
    for shape in shapes() {
        let t = Instant::now();
        let s = engine.session(shape.config())?;
        creates.push(t.elapsed().as_secs_f64() * 1e3);
        drop(s);
    }
    m.push("batch.session_create_ms", median(&creates), "ms");

    // sim / cost / trace: every shape alone on every tier, uncosted for
    // timing and costed for the cycle parity check, plus a traced run.
    let probes: Probes = Arc::default();
    let mut pool = SessionPool::new(&engine);
    let (mut stage_ns, mut staged) = (0u64, 0u64);
    let (mut cost_ns, mut trace_ns, mut retired_all) = (0i64, 0i64, 0u64);
    for (i, shape) in shapes().into_iter().enumerate() {
        let name = shape.name();
        let mut per_tier = Vec::new();
        for tier in [ExecEngine::Plan, ExecEngine::Fused, ExecEngine::Legacy] {
            let timed = job(shape, &inputs, Some(tier), Some(Arc::clone(&probes)));
            let run = tracer.time("sim.run", i as u64, None, || {
                solo(&mut pool, timed, &probes)
            })?;
            let costed = job(shape, &inputs, Some(tier), Some(Arc::clone(&probes)))
                .costed(CostModel::ara_like());
            let costed = tracer.time("cost.run", i as u64, None, || {
                solo(&mut pool, costed, &probes)
            })?;
            out.tally.record(true);
            m.push(
                format!("sim.{}.ns_per_instr.{name}", tier.name()),
                ns_per(run.probe.app_ns, run.retired),
                "ns",
            );
            if tier == ExecEngine::Fused {
                m.push(
                    format!("sim.fused.coverage.{name}"),
                    run.probe.fused_ops as f64 / run.retired.max(1) as f64,
                    "fraction",
                );
            }
            per_tier.push((tier, run, costed));
        }
        let (_, plan, plan_costed) = &per_tier[0];
        for (tier, run, costed) in &per_tier {
            let same = run.retired == plan.retired
                && costed.retired == plan.retired
                && costed.cycles == plan_costed.cycles;
            out.check(same, || {
                format!(
                    "three-tier parity broken on {name}: {} retired {} / cycles {} vs plan {} / {}",
                    tier.name(),
                    run.retired,
                    costed.cycles,
                    plan.retired,
                    plan_costed.cycles
                )
            });
        }
        let traced = job(
            shape,
            &inputs,
            Some(ExecEngine::Plan),
            Some(Arc::clone(&probes)),
        )
        .traced(true);
        let traced = tracer.time("trace.run", i as u64, None, || {
            solo(&mut pool, traced, &probes)
        })?;
        stage_ns += plan.probe.stage_ns;
        staged += plan.probe.staged;
        cost_ns += plan_costed.probe.app_ns as i64 - plan.probe.app_ns as i64;
        trace_ns += traced.probe.app_ns as i64 - plan.probe.app_ns as i64;
        retired_all += plan.retired;
    }
    m.push("core.stage_ns_per_elem", ns_per(stage_ns, staged), "ns");
    m.push(
        "cost.overhead_ns_per_instr",
        cost_ns as f64 / retired_all.max(1) as f64,
        "ns",
    );
    m.push(
        "trace.overhead_ns_per_instr",
        trace_ns as f64 / retired_all.max(1) as f64,
        "ns",
    );
    out.metrics = m;
    Ok(out)
}
