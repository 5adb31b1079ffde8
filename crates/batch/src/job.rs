//! Jobs and reports: the units the runner shards and the records it emits.

use rvv_cost::{CostModel, CycleCounters};
use rvv_sim::{Counters, SimError};
use rvv_trace::TraceProfiler;
use scanvec::{CancelToken, EnvConfig, ScanEnv, ScanError, ScanResult};
use std::fmt;
use std::time::Duration;

/// The measurement closure a [`BatchJob`] runs inside its environment.
pub type JobFn<T> = Box<dyn Fn(&mut ScanEnv) -> ScanResult<T> + Send + Sync>;

/// One sweep point: a named, weighted, self-contained measurement to run
/// inside a (pooled, reset) [`ScanEnv`] of the given configuration.
///
/// The closure must derive everything it does from its arguments and the
/// environment — the engine may run it on any worker thread, in any order
/// relative to other jobs, inside a recycled environment. Determinism of
/// the sweep is exactly determinism of the closures.
pub struct BatchJob<T> {
    /// Stable identifier, unique within a batch (e.g. `"table1/bitonic/n=1000"`).
    pub name: String,
    /// Environment configuration the job runs under.
    pub config: EnvConfig,
    /// Relative cost hint for load balancing (e.g. the point's `n`).
    /// Only the *ordering* of weights matters; equal weights degrade to
    /// round-robin by job index. Never affects results, only wall clock.
    pub weight: u64,
    /// Attach a [`TraceProfiler`] for this job's run?
    pub trace: bool,
    /// Estimate cycles for this job's run under a cost model? Composes
    /// with `trace`: a traced+costed job gets per-phase cycle
    /// attribution, a costed-only job a bare estimator sink.
    pub cost: Option<CostModel>,
    /// How many times a failed attempt is retried (0 = run once). Retries
    /// run in a **fresh** environment — not the pooled one — so an attempt
    /// that corrupted its environment cannot contaminate the next.
    pub retries: u32,
    /// Deterministic per-attempt watchdog: abort the attempt once this many
    /// instructions have retired (the fuel-based stand-in for a wall-clock
    /// timeout — fires at the same instruction on every run). Exhausting it
    /// reports [`JobOutcome::TimedOut`].
    pub watchdog: Option<u64>,
    /// Cooperative cancellation: when set, the token is attached to the
    /// session for every attempt, and a launch that observes it cancelled
    /// reports [`JobOutcome::Cancelled`]. Cancellation is terminal — a
    /// cancelled job is never retried (the supervisor asked it to stop;
    /// re-running would defeat the deadline).
    pub cancel: Option<CancelToken>,
    run: JobFn<T>,
}

impl<T> BatchJob<T> {
    /// A job with weight 1 and no tracing.
    pub fn new(
        name: impl Into<String>,
        config: EnvConfig,
        run: impl Fn(&mut ScanEnv) -> ScanResult<T> + Send + Sync + 'static,
    ) -> BatchJob<T> {
        BatchJob {
            name: name.into(),
            config,
            weight: 1,
            trace: false,
            cost: None,
            retries: 0,
            watchdog: None,
            cancel: None,
            run: Box::new(run),
        }
    }

    /// Set the load-balancing weight (builder style).
    pub fn weight(mut self, weight: u64) -> BatchJob<T> {
        self.weight = weight;
        self
    }

    /// Request a per-job trace profile (builder style).
    pub fn traced(mut self, trace: bool) -> BatchJob<T> {
        self.trace = trace;
        self
    }

    /// Estimate cycles for this job under `model` (builder style). The
    /// estimate rides the retire-event stream, so it is deterministic at
    /// any thread count and identical across engines; uncosted jobs pay
    /// nothing.
    pub fn costed(mut self, model: CostModel) -> BatchJob<T> {
        self.cost = Some(model);
        self
    }

    /// Retry a failed job up to `retries` more times, each attempt in a
    /// fresh environment (builder style).
    pub fn retries(mut self, retries: u32) -> BatchJob<T> {
        self.retries = retries;
        self
    }

    /// Arm the deterministic instruction-budget watchdog (builder style).
    pub fn watchdog(mut self, fuel: u64) -> BatchJob<T> {
        self.watchdog = Some(fuel);
        self
    }

    /// Attach a [`CancelToken`] every attempt runs under (builder style).
    /// A supervisor holding a clone can stop the job mid-flight — see
    /// [`JobOutcome::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> BatchJob<T> {
        self.cancel = Some(token);
        self
    }

    /// Run `setup` on the environment before the job body, every attempt
    /// (builder style). This is how drivers attach per-job instrumentation
    /// the closure itself doesn't know about — e.g. arming a fault plan's
    /// guards and hook for an injection sweep. The environment reset
    /// between jobs clears whatever `setup` installed.
    pub fn with_setup(mut self, setup: impl Fn(&mut ScanEnv) + Send + Sync + 'static) -> BatchJob<T>
    where
        T: 'static,
    {
        let run = self.run;
        self.run = Box::new(move |env| {
            setup(env);
            run(env)
        });
        self
    }

    pub(crate) fn execute(&self, env: &mut ScanEnv) -> ScanResult<T> {
        (self.run)(env)
    }
}

impl<T> fmt::Debug for BatchJob<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchJob")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("weight", &self.weight)
            .field("trace", &self.trace)
            .field("cost", &self.cost.as_ref().map(CostModel::name))
            .finish_non_exhaustive()
    }
}

/// How one [`BatchJob`] ended. Failures are *reported*, never propagated —
/// one failing point must not take down a 100-point sweep — and every
/// failure mode is distinguishable in the report.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The closure returned `Ok`.
    Ok(T),
    /// The simulated machine trapped ([`scanvec::ScanError::Sim`]): a guard
    /// hit, an injected fault, out-of-bounds access, an illegal
    /// instruction, …
    Trapped(SimError),
    /// The closure failed on the host side (allocation, validation — any
    /// non-trap [`ScanError`]).
    Failed(ScanError),
    /// The closure panicked; the payload text. The environment it ran in
    /// was poisoned and discarded.
    Panicked(String),
    /// The job's [`BatchJob::watchdog`] instruction budget ran out.
    TimedOut {
        /// The exhausted budget.
        budget: u64,
    },
    /// The job's [`BatchJob::cancel`] token tripped mid-run: a supervisor
    /// (deadline, shutdown, client disconnect) asked it to stop. Terminal —
    /// never retried. For a deterministic trip point
    /// ([`CancelToken::after_checks`]) the boundary ordinal and the
    /// partial counters are identical on every engine tier; wall-clock
    /// cancels are inherently timing-dependent, so digests over
    /// deadline-cancelled sweeps are not replay-comparable.
    Cancelled {
        /// The instruction-boundary ordinal where the token was observed:
        /// 1-based within the kernel launch that stopped, so a job
        /// cancelled in its second launch reports the ordinal within that
        /// launch, not the token's [`CancelToken::checks`] across the job;
        /// 0 when the token was observed between attempts, before any
        /// launch started.
        at: u64,
    },
    /// A failure replayed from a journal (see [`crate::journal`]): the
    /// stored stable form of the original outcome. Successful jobs replay
    /// as real [`JobOutcome::Ok`] values — their payloads are journaled —
    /// but a failure's typed error is not reconstructible from its stable
    /// text, so it replays as this variant, whose stable serialization is
    /// the stored string *verbatim* (keeping manifests and digests
    /// byte-identical across a crash/resume boundary).
    Replayed(String),
}

impl<T> JobOutcome<T> {
    /// Did the job succeed?
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// The success value, if any.
    pub fn output(&self) -> Option<&T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Classify a closure result against the watchdog that was armed for
    /// the attempt: a fuel trap matching the armed budget is a timeout, any
    /// other sim trap is [`JobOutcome::Trapped`], other errors are
    /// [`JobOutcome::Failed`].
    pub(crate) fn classify(result: ScanResult<T>, watchdog: Option<u64>) -> JobOutcome<T> {
        match result {
            Ok(v) => JobOutcome::Ok(v),
            Err(ScanError::Sim(SimError::FuelExhausted { fuel })) if watchdog == Some(fuel) => {
                JobOutcome::TimedOut { budget: fuel }
            }
            Err(ScanError::Sim(SimError::Cancelled { seq })) => JobOutcome::Cancelled { at: seq },
            Err(ScanError::Sim(e)) => JobOutcome::Trapped(e),
            Err(e) => JobOutcome::Failed(e),
        }
    }

    /// Is this outcome one retries cannot improve? Success needs no retry;
    /// a cancellation must not be retried (the supervisor asked the job to
    /// stop — re-running would defeat the deadline or the shutdown).
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(self, JobOutcome::Ok(_) | JobOutcome::Cancelled { .. })
    }

    /// The stable, scheduling-independent serialization used by
    /// [`JobReport::stable_line`]. `Ok`/`Trapped`/`Failed` match the forms
    /// the previous `ScanResult` field produced (`ok {v:?}` / `err {e}`),
    /// so existing golden digests stay valid.
    pub(crate) fn stable(&self) -> String
    where
        T: fmt::Debug,
    {
        match self {
            JobOutcome::Ok(v) => format!("ok {v:?}"),
            JobOutcome::Trapped(e) => format!("err {}", ScanError::Sim(e.clone())),
            JobOutcome::Failed(e) => format!("err {e}"),
            JobOutcome::Panicked(msg) => {
                // Panic payloads can embed host line numbers etc.; first
                // line only keeps the manifest stable and readable.
                let first = msg.lines().next().unwrap_or("");
                format!("panicked {first}")
            }
            JobOutcome::TimedOut { budget } => format!("timed-out budget={budget}"),
            JobOutcome::Cancelled { at } => format!("cancelled at={at}"),
            JobOutcome::Replayed(stable) => stable.clone(),
        }
    }
}

/// What one [`BatchJob`] produced.
#[derive(Debug)]
pub struct JobReport<T> {
    /// The job's name.
    pub name: String,
    /// The configuration it ran under.
    pub config: EnvConfig,
    /// How the job ended (after retries, if any were configured).
    pub outcome: JobOutcome<T>,
    /// Attempts made (1 = first try succeeded or no retries configured;
    /// 0 = the job never ran because its worker thread died). Quarantined
    /// from [`JobReport::stable_line`] like `wall`/`worker`: retry counts
    /// are deterministic for deterministic jobs, but they are bookkeeping,
    /// not results.
    pub attempts: u32,
    /// How many of this job's attempts panicked and poisoned their
    /// environment — each one costs the pool a rebuild. Deterministic for
    /// deterministic jobs, but bookkeeping like `attempts`: surfaced in
    /// the degraded manifest, quarantined from [`JobReport::stable_line`].
    pub poisoned: u32,
    /// Dynamic instructions this job retired, by class (final attempt).
    pub counters: Counters,
    /// Total dynamic instructions this job retired.
    pub retired: u64,
    /// Estimated cycles (final attempt), when the job was created with
    /// [`BatchJob::costed`]. Part of [`JobReport::stable_line`] — the
    /// estimate is a pure function of the retire stream, so it is as
    /// scheduling-independent as the counters.
    pub cycles: Option<CycleCounters>,
    /// The job's trace profile, when it was created with
    /// [`BatchJob::traced`].
    pub profile: Option<TraceProfiler>,
    /// Which worker ran the job. Deterministic given `(jobs, threads)` —
    /// sharding is computed before execution — but *not* stable across
    /// thread counts, so it is excluded from [`JobReport::stable_line`].
    pub worker: usize,
    /// Host wall-clock time of the closure. Timing only — excluded from
    /// the stable serialization.
    pub wall: Duration,
    /// Total retry backoff this job slept (see
    /// [`crate::BackoffPolicy`]). The *delays* are deterministic for a
    /// fixed policy, but like `attempts` this is bookkeeping, not results —
    /// quarantined from [`JobReport::stable_line`].
    pub backoff: Duration,
}

impl<T> JobReport<T> {
    /// The success value, if the job succeeded.
    pub fn output(&self) -> Option<&T> {
        self.outcome.output()
    }
}

impl<T: fmt::Debug> JobReport<T> {
    /// The determinism-comparable serialization of this report: name,
    /// configuration, retired count, per-class counters, and the outcome.
    /// Everything scheduling-dependent (worker id, wall clock, attempt
    /// count) is excluded, so serial and parallel runs of the same jobs
    /// produce byte-identical lines.
    pub fn stable_line(&self) -> String {
        // The cycles field rides between counters and output, but only
        // for costed jobs — uncosted sweeps keep their recorded digests.
        let cycles = match &self.cycles {
            Some(c) => format!(" cycles={}", c.to_json()),
            None => String::new(),
        };
        format!(
            "{} cfg=vlen{}/{:?}/{:?} retired={} counters={}{cycles} output={}",
            self.name,
            self.config.vlen,
            self.config.lmul,
            self.config.spill_profile,
            self.retired,
            self.counters.to_json(),
            self.outcome.stable()
        )
    }
}

/// Everything a [`crate::BatchRunner::run`] call produced, in job order.
#[derive(Debug)]
pub struct BatchResult<T> {
    /// One report per job, **in job order** regardless of scheduling.
    pub reports: Vec<JobReport<T>>,
    /// All job counters merged (commutative fold, scheduling-independent).
    pub counters: Counters,
    /// All per-job cycle estimates merged (`None` when no job was costed).
    pub cycles: Option<CycleCounters>,
    /// All per-job profiles merged in job order (`None` when no job traced).
    pub profile: Option<TraceProfiler>,
    /// Worker threads the batch ran with.
    pub threads: usize,
    /// Kernel plans compiled into the shared registry during this batch.
    pub plan_compiles: u64,
    /// Wall clock of the whole batch. Timing only — excluded from
    /// [`BatchResult::stable_digest`].
    pub wall: Duration,
}

impl<T: fmt::Debug> BatchResult<T> {
    /// The determinism-comparable serialization of the whole batch: every
    /// report's [`JobReport::stable_line`] in job order, then the merged
    /// counters. Byte-identical across thread counts for deterministic
    /// jobs — the concurrency tests and the CI serial-vs-parallel gate
    /// compare exactly this string.
    pub fn stable_digest(&self) -> String {
        let mut s = String::new();
        for r in &self.reports {
            s.push_str(&r.stable_line());
            s.push('\n');
        }
        s.push_str(&format!("merged={}\n", self.counters.to_json()));
        if let Some(c) = &self.cycles {
            s.push_str(&format!("cycles={}\n", c.to_json()));
        }
        s
    }

    /// Total dynamic instructions retired across all jobs.
    pub fn retired(&self) -> u64 {
        self.counters.total()
    }

    /// Did every job succeed?
    pub fn all_ok(&self) -> bool {
        self.reports.iter().all(|r| r.outcome.is_ok())
    }

    /// `None` when every job succeeded; otherwise a summary of the failed
    /// jobs, suitable for a failure manifest. The summary's
    /// `Display` is deterministic: job order, stable outcome forms, no
    /// timing or scheduling data.
    pub fn degraded(&self) -> Option<DegradedSummary> {
        let failed: Vec<FailedJob> = self
            .reports
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.outcome.is_ok())
            .map(|(index, r)| FailedJob {
                index,
                name: r.name.clone(),
                outcome: r.outcome.stable(),
                attempts: r.attempts,
            })
            .collect();
        if failed.is_empty() {
            None
        } else {
            Some(DegradedSummary {
                total: self.reports.len(),
                failed,
                retries: self
                    .reports
                    .iter()
                    .map(|r| u64::from(r.attempts.saturating_sub(1)))
                    .sum(),
                poisoned: self.reports.iter().map(|r| u64::from(r.poisoned)).sum(),
            })
        }
    }
}

/// One failed job inside a [`DegradedSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedJob {
    /// The job's index in the batch (job order, not schedule order).
    pub index: usize,
    /// The job's name.
    pub name: String,
    /// The stable form of the failure (`err …`, `panicked …`,
    /// `timed-out …`).
    pub outcome: String,
    /// Attempts the job made (1 + retries consumed). Deterministic, but
    /// bookkeeping — shown in the manifest, excluded from stable digests.
    pub attempts: u32,
}

/// A degraded batch: the sweep completed, some jobs failed. Produced by
/// [`BatchResult::degraded`]; its `Display` is the failure manifest
/// `repro --inject-seed` writes (deterministic — byte-identical across
/// thread counts and reruns for deterministic jobs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedSummary {
    /// Jobs in the batch.
    pub total: usize,
    /// The failures, in job order.
    pub failed: Vec<FailedJob>,
    /// Retries consumed across the *whole* batch (every attempt beyond
    /// each job's first, successful jobs included — a flaky-but-recovered
    /// job consumed a retry too).
    pub retries: u64,
    /// Environments poisoned (and so rebuilt by the worker pools) across
    /// the whole batch — one per panicking attempt.
    pub poisoned: u64,
}

impl fmt::Display for DegradedSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} of {} jobs failed", self.failed.len(), self.total)?;
        for j in &self.failed {
            writeln!(
                f,
                "  {:04} {}: {} [attempts={}]",
                j.index, j.name, j.outcome, j.attempts
            )?;
        }
        writeln!(
            f,
            "retries consumed: {}, environments poisoned: {}",
            self.retries, self.poisoned
        )?;
        Ok(())
    }
}
