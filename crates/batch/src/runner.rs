//! The runner: up-front sharding, scoped workers, in-order emission,
//! panic-isolated and retrying job execution.

use crate::backoff::BackoffPolicy;
use crate::job::{BatchJob, BatchResult, JobOutcome, JobReport};
use rvv_cost::{CostModel, CycleCounters, CycleEstimator};
use rvv_sim::TraceSink;
use rvv_trace::TraceProfiler;
use scanvec::{Engine, EnvConfig, PlanCache, ScanEnv, Session};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs batches of [`BatchJob`]s across `threads` scoped worker threads
/// (serially on the calling thread for `threads == 1`), all workers
/// creating sessions from one shared [`Engine`].
///
/// The runner is reusable: every [`BatchRunner::run`] call shards its own
/// jobs, but the engine (and its plan registry) persists across calls, so
/// a warm-up batch pays the compiles and later batches launch cached plans
/// only. The engine's policy defaults apply to every job: a job without
/// its own [`BatchJob::costed`] model inherits [`Engine::cost_model`], and
/// one without its own [`BatchJob::watchdog`] inherits
/// [`Engine::default_fuel_budget`].
#[derive(Debug)]
pub struct BatchRunner {
    threads: usize,
    engine: Arc<Engine>,
}

impl BatchRunner {
    /// A runner with `threads` workers (clamped to at least 1) whose
    /// workers create their sessions from `engine` — share one
    /// `Arc<Engine>` across runners, serial sessions, and harnesses, and a
    /// kernel configuration is compiled once process-wide while every
    /// consumer inherits the same policy defaults.
    pub fn with_engine(threads: usize, engine: Arc<Engine>) -> BatchRunner {
        BatchRunner {
            threads: threads.max(1),
            engine,
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared engine workers create their sessions from.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The shared plan registry (the engine's).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        self.engine.plan_cache()
    }

    /// Run every job and emit reports **in job order**, with merged
    /// counters and (if any job traced) a merged profile. See the crate
    /// docs for the determinism contract; the short version is that
    /// nothing in the output depends on scheduling, only `wall` and
    /// `worker` fields (both excluded from the stable serialization)
    /// reflect the actual execution.
    pub fn run<T: Send + std::fmt::Debug>(&self, jobs: Vec<BatchJob<T>>) -> BatchResult<T> {
        let started = Instant::now();
        let compiles_before = self.plan_cache().compiles();
        let include: Vec<usize> = (0..jobs.len()).collect();
        let reports = self
            .run_subset(&jobs, &include, &|_, _| {})
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assemble(
            reports,
            self.threads,
            self.plan_cache().compiles() - compiles_before,
            started.elapsed(),
        )
    }

    /// Run only the jobs at `include` (job indices, any order; deduplicated
    /// and sorted internally) and return `(index, report)` pairs **in job
    /// order**. `observer` is called once per completed job, from the
    /// worker thread that finished it, *in completion order* — this is the
    /// journaling hook (see [`crate::journal`]): the observer can persist
    /// the report before the batch moves on, so a crash loses at most the
    /// jobs still in flight.
    ///
    /// Determinism: the reports depend only on `(jobs, include)` — the
    /// subset is sharded by the same weight-LPT rule as a full run, and
    /// every report is scheduling-independent apart from the quarantined
    /// `worker`/`wall` fields. Observer *call order* is scheduling-
    /// dependent by nature; anything derived from it must be
    /// order-insensitive (a journal keyed by job index is).
    pub fn run_subset<T: Send + std::fmt::Debug>(
        &self,
        jobs: &[BatchJob<T>],
        include: &[usize],
        observer: &(dyn Fn(usize, &JobReport<T>) + Sync),
    ) -> Vec<(usize, JobReport<T>)> {
        let mut include: Vec<usize> = include.to_vec();
        include.sort_unstable();
        include.dedup();
        assert!(
            include.last().is_none_or(|&i| i < jobs.len()),
            "job index out of range"
        );
        let backoff = &BackoffPolicy::default();
        if self.threads == 1 {
            // Serial reference path: caller's thread, job order, one pool.
            let mut pool = SessionPool::new(&self.engine);
            return include
                .into_iter()
                .map(|i| {
                    let report = execute_job(&jobs[i], i as u64, &mut pool, 0, backoff);
                    observer(i, &report);
                    (i, report)
                })
                .collect();
        }
        let shards = shard(jobs, &include, self.threads);
        let mut slots: Vec<Option<JobReport<T>>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        // (completed reports, panicked workers). Job bodies are panic-
        // isolated inside `run_one`, so a worker thread dying is a bug
        // in the runner itself — but even then the batch must degrade,
        // not abort: the dead worker's unfinished jobs are reported as
        // panicked, naming the worker and job.
        let (completed, dead_workers) = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .cloned()
                .enumerate()
                .map(|(worker, shard)| {
                    let engine = Arc::clone(&self.engine);
                    s.spawn(move || {
                        let mut pool = SessionPool::new(&engine);
                        shard
                            .into_iter()
                            .map(|i| {
                                let report =
                                    execute_job(&jobs[i], i as u64, &mut pool, worker, backoff);
                                observer(i, &report);
                                (i, report)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut completed = Vec::new();
            let mut dead = Vec::new();
            for (worker, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(pairs) => completed.extend(pairs),
                    Err(payload) => dead.push((worker, panic_text(payload.as_ref()))),
                }
            }
            (completed, dead)
        });
        for (i, report) in completed {
            debug_assert!(slots[i].is_none(), "job {i} ran twice");
            slots[i] = Some(report);
        }
        for (worker, msg) in dead_workers {
            for &i in &shards[worker] {
                if slots[i].is_none() {
                    slots[i] = Some(JobReport {
                        name: jobs[i].name.clone(),
                        config: jobs[i].config,
                        outcome: JobOutcome::Panicked(format!(
                            "worker {worker} died before job {i}: {msg}"
                        )),
                        attempts: 0,
                        poisoned: 0,
                        counters: rvv_sim::Counters::new(),
                        retired: 0,
                        cycles: None,
                        profile: None,
                        worker,
                        wall: Duration::ZERO,
                        backoff: Duration::ZERO,
                    });
                }
            }
        }
        include
            .into_iter()
            .map(|i| (i, slots[i].take().expect("job never ran")))
            .collect()
    }
}

/// Fold in-order reports into a [`BatchResult`] (scheduling-independent
/// merges: counters and profiles fold in job order).
pub(crate) fn assemble<T>(
    reports: Vec<JobReport<T>>,
    threads: usize,
    plan_compiles: u64,
    wall: Duration,
) -> BatchResult<T> {
    let mut counters = rvv_sim::Counters::new();
    let mut cycles: Option<CycleCounters> = None;
    let mut profile: Option<TraceProfiler> = None;
    for r in &reports {
        counters.merge(&r.counters);
        if let Some(c) = &r.cycles {
            cycles.get_or_insert_with(CycleCounters::new).merge(c);
        }
        if let Some(p) = &r.profile {
            match &mut profile {
                Some(merged) => merged.merge(p),
                None => {
                    let mut merged = TraceProfiler::new(p.stack_region());
                    merged.merge(p);
                    profile = Some(merged);
                }
            }
        }
    }
    BatchResult {
        reports,
        counters,
        cycles,
        profile,
        threads,
        plan_compiles,
        wall,
    }
}

/// Per-worker session pool: one reusable [`Session`] per distinct
/// configuration, reset between jobs, all created from the shared
/// [`Engine`]. Public so long-running consumers (the serve layer's
/// workers) can drain jobs through [`execute_job`] with the same pooling,
/// poisoning, and reset discipline the batch runner uses.
pub struct SessionPool<'a> {
    engine: &'a Arc<Engine>,
    sessions: HashMap<EnvConfig, Session>,
}

impl<'a> SessionPool<'a> {
    /// An empty pool over `engine`.
    pub fn new(engine: &'a Arc<Engine>) -> SessionPool<'a> {
        SessionPool {
            engine,
            sessions: HashMap::new(),
        }
    }

    /// The engine sessions are created from.
    pub fn engine(&self) -> &Arc<Engine> {
        self.engine
    }

    /// The pooled session for `cfg`, reset and ready to run a job: reused
    /// when one exists and is healthy, rebuilt when the last job in it
    /// panicked.
    ///
    /// # Panics
    ///
    /// When `cfg` fails [`Engine::validate`] — batch callers construct
    /// jobs from validated configurations; service layers must validate at
    /// admission.
    pub fn session_for(&mut self, cfg: &EnvConfig) -> &mut Session {
        // A poisoned session (a previous job panicked inside it) is
        // discarded, not reset — the unwind may have left host-side state
        // inconsistent in ways reset cannot repair. Checking first keeps
        // the hot hit path a single borrow-keyed lookup: the key is only
        // materialized on a miss or a rebuild.
        if self.sessions.get(cfg).is_none_or(|s| s.is_poisoned()) {
            let fresh = self
                .engine
                .session(*cfg)
                .expect("job config rejected by Engine::validate");
            self.sessions.insert(*cfg, fresh);
        }
        let session = self.sessions.get_mut(cfg).expect("present by construction");
        session.reset();
        session
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one attempt of `job` in `env`, isolating panics: a panicking job
/// body poisons the environment (so the pool rebuilds it) and becomes
/// [`JobOutcome::Panicked`] instead of unwinding the worker.
fn attempt<T>(
    job: &BatchJob<T>,
    env: &mut ScanEnv,
) -> (
    JobOutcome<T>,
    rvv_sim::Counters,
    Option<TraceProfiler>,
    Option<CycleCounters>,
) {
    // The job's own instrumentation wins; absent that, the engine's
    // defaults apply — so one engine configured with a cost model or a
    // fuel policy governs every job of every runner sharing it.
    let cost: Option<CostModel> = job
        .cost
        .clone()
        .or_else(|| env.engine().cost_model().cloned());
    let watchdog = job.watchdog.or_else(|| env.engine().default_fuel_budget());
    // One tracer slot, three instrumented shapes: traced jobs get the
    // profiler (carrying the estimator too when also costed, for
    // per-phase cycle attribution); costed-only jobs get the bare
    // estimator sink, which skips all phase/hotspot bookkeeping.
    match (job.trace, &cost) {
        (true, Some(m)) => {
            env.attach_tracer(Box::new(TraceProfiler::with_cost(
                env.stack_region(),
                m.clone(),
            )));
        }
        (true, None) => {
            env.attach_tracer(Box::new(TraceProfiler::new(env.stack_region())));
        }
        (false, Some(m)) => {
            env.attach_tracer(Box::new(CycleEstimator::new(m.clone(), env.stack_region())));
        }
        (false, None) => {}
    }
    env.set_fuel_budget(watchdog);
    if let Some(token) = &job.cancel {
        env.attach_cancel_token(token.clone());
    }
    let before = env.machine().counters.clone();
    // `&mut ScanEnv` is not unwind-safe by type, which is exactly the
    // point: on panic we poison it and never run a job in it again.
    let result = catch_unwind(AssertUnwindSafe(|| job.execute(env)));
    let outcome = match result {
        Ok(r) => JobOutcome::classify(r, watchdog),
        Err(payload) => {
            env.poison();
            JobOutcome::Panicked(panic_text(payload.as_ref()))
        }
    };
    let counters = env.machine().counters.since(&before);
    env.detach_cancel_token();
    let (profile, cycles) = match env.detach_tracer() {
        Some(sink) => recover(sink),
        None => (None, None),
    };
    (outcome, counters, profile, cycles)
}

/// Recover the concrete sink a job ran under: a profiler (whose estimate,
/// if costed, is extracted alongside) or a bare estimator.
fn recover(sink: Box<dyn TraceSink>) -> (Option<TraceProfiler>, Option<CycleCounters>) {
    let any: Box<dyn std::any::Any> = sink;
    match any.downcast::<TraceProfiler>() {
        Ok(p) => {
            let cycles = p.cycles();
            (Some(*p), cycles)
        }
        Err(any) => match any.downcast::<CycleEstimator>() {
            Ok(e) => (None, Some(e.counters())),
            Err(_) => (None, None),
        },
    }
}

/// Run one job to completion — attempts, retries with backoff, panic
/// isolation — inside `pool`, exactly as a [`BatchRunner`] worker would.
/// Public for long-running consumers (the serve layer) that drain jobs
/// one at a time instead of in sharded batches; `index` keys the backoff
/// jitter (the runner passes the job's batch index, a service its queue
/// ordinal) and `worker` only labels the report.
pub fn execute_job<T>(
    job: &BatchJob<T>,
    index: u64,
    pool: &mut SessionPool<'_>,
    worker: usize,
    backoff: &BackoffPolicy,
) -> JobReport<T> {
    let started = Instant::now();
    let max_attempts = 1 + job.retries;
    let mut attempts = 0;
    let mut poisoned = 0;
    let mut slept = Duration::ZERO;
    let (outcome, counters, profile, cycles) = loop {
        attempts += 1;
        // First try uses the pooled session; retries get a fresh one
        // (the pool discards poisoned sessions, and `session_for` resets
        // between uses, but a *retry* must not trust even a reset session
        // — the failed attempt is evidence something is off).
        let result = if attempts == 1 {
            attempt(job, pool.session_for(&job.config))
        } else {
            let mut env = pool
                .engine
                .session(job.config)
                .expect("job config rejected by Engine::validate");
            attempt(job, &mut env)
        };
        if matches!(result.0, JobOutcome::Panicked(_)) {
            poisoned += 1;
        }
        if result.0.is_terminal() || attempts >= max_attempts {
            break result;
        }
        // A retry is coming: space it out by the deterministic schedule.
        // A cancellable job keeps watching its token while it waits — a
        // supervisor cancelling a job that is between attempts should not
        // have to wait out the backoff.
        let delay = backoff.delay(index, attempts);
        if !delay.is_zero() {
            match &job.cancel {
                Some(token) if token.is_cancelled() => {
                    break (
                        JobOutcome::Cancelled { at: 0 },
                        result.1,
                        result.2,
                        result.3,
                    );
                }
                _ => {
                    slept += delay;
                    std::thread::sleep(delay);
                }
            }
        }
    };
    JobReport {
        name: job.name.clone(),
        config: job.config,
        outcome,
        attempts,
        poisoned,
        retired: counters.total(),
        counters,
        cycles,
        profile,
        worker,
        wall: started.elapsed(),
        backoff: slept,
    }
}

/// Deterministic longest-processing-time sharding over the `include`d job
/// indices: jobs sorted by (weight desc, index asc) are greedily assigned
/// to the least-loaded worker, ties broken by worker index; each worker
/// then runs its shard in job-index order. Depends only on
/// `(weights, include, threads)` — never on execution timing.
fn shard<T>(jobs: &[BatchJob<T>], include: &[usize], threads: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = include.to_vec();
    order.sort_by(|&a, &b| jobs[b].weight.cmp(&jobs[a].weight).then_with(|| a.cmp(&b)));
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut load = vec![0u64; threads];
    for i in order {
        let w = (0..threads)
            .min_by_key(|&w| (load[w], w))
            .expect("at least one worker");
        load[w] += jobs[i].weight.max(1);
        shards[w].push(i);
    }
    for s in &mut shards {
        s.sort_unstable();
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(weight: u64) -> BatchJob<u64> {
        BatchJob::new(format!("w{weight}"), EnvConfig::paper_default(), |_| Ok(0)).weight(weight)
    }

    #[test]
    fn sharding_is_balanced_and_deterministic() {
        let jobs: Vec<_> = [8u64, 1, 7, 2, 6, 3, 5, 4].into_iter().map(job).collect();
        let all: Vec<usize> = (0..jobs.len()).collect();
        let a = shard(&jobs, &all, 2);
        let b = shard(&jobs, &all, 2);
        assert_eq!(a, b, "same inputs, same shards");
        // LPT on this grid balances perfectly: 8+1+4+5 vs 7+2+3+6.
        let w = |s: &Vec<usize>| s.iter().map(|&i| jobs[i].weight).sum::<u64>();
        assert_eq!(w(&a[0]), w(&a[1]));
        // Every job appears exactly once, shards in job-index order.
        let mut all: Vec<usize> = a.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..jobs.len()).collect::<Vec<_>>());
        assert!(a.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn sharding_handles_more_workers_than_jobs() {
        let jobs: Vec<_> = [5u64, 3].into_iter().map(job).collect();
        let shards = shard(&jobs, &[0, 1], 8);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(shards.len(), 8);
    }

    #[test]
    fn zero_weight_jobs_still_round_robin() {
        let jobs: Vec<_> = (0..6).map(|_| job(0)).collect();
        let shards = shard(&jobs, &(0..6).collect::<Vec<_>>(), 3);
        assert!(shards.iter().all(|s| s.len() == 2), "{shards:?}");
    }
}
