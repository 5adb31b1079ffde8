//! # rvv-batch — the deterministic parallel sweep engine
//!
//! Every experiment in this workspace is a *sweep*: the same measurement
//! repeated over a grid of `(algorithm, n, VLEN, LMUL, spill profile)`
//! points, each point a fully independent simulation. This crate runs such
//! sweeps across OS threads with one hard guarantee: **the output is
//! byte-identical at any thread count**, including `--threads 1`.
//!
//! ## How determinism survives parallelism
//!
//! * **The unit of work is a whole sweep point.** A [`BatchJob`] owns its
//!   closure; nothing inside a simulation is ever split across threads, so
//!   per-point results are trivially the serial results.
//! * **Sharding is computed up front**, before any worker starts:
//!   longest-processing-time assignment over the declared job weights, with
//!   all ties broken by job index. Scheduling jitter cannot move a job
//!   between workers.
//! * **Results are emitted in job order**, not completion order: each
//!   report is placed into its job's slot, and merged [`rvv_sim::Counters`]
//!   / [`rvv_trace::TraceProfiler`] aggregates fold in job order too.
//! * **Workers share one [`Engine`]**, so a kernel configuration is
//!   compiled exactly once per process into its [`PlanCache`] no matter
//!   which worker touches it first — and compiled code is immutable
//!   ([`rvv_sim::CompiledPlan`] is `Send + Sync`), so sharing cannot
//!   perturb execution. The engine also carries the policy defaults every
//!   job inherits: its cost model (unless the job is [`BatchJob::costed`]
//!   itself) and its fuel budget (unless the job sets a
//!   [`BatchJob::watchdog`]).
//! * **Wall-clock timing is quarantined.** [`JobReport`] carries timing for
//!   the speedup tables, but the [`JobReport::stable_line`] /
//!   [`BatchResult::stable_digest`] serialization — what the determinism
//!   tests and the CI serial-vs-parallel comparison hash — excludes it.
//!
//! Each worker keeps a session pool: one [`Session`] per distinct
//! [`EnvConfig`], created from the shared engine and recycled with
//! [`Session::reset`] between jobs, so a 40-point sweep at 4
//! configurations allocates 4 machines, not 40.
//!
//! ## How failure stays contained
//!
//! Every job body runs inside `catch_unwind`: a panicking job becomes
//! [`JobOutcome::Panicked`] in its report (and poisons its pooled
//! environment, which the pool then discards) instead of unwinding the
//! worker. Simulated traps surface as [`JobOutcome::Trapped`], host-side
//! errors as [`JobOutcome::Failed`], and an exhausted
//! [`BatchJob::watchdog`] budget as [`JobOutcome::TimedOut`]. Jobs may be
//! given bounded [`BatchJob::retries`], each retry in a fresh environment;
//! the attempt count is reported but — like `wall` and `worker` —
//! quarantined out of the stable serialization. A batch with failures
//! still completes every job; [`BatchResult::degraded`] summarizes the
//! failures as a deterministic manifest.
//!
//! ## How a sweep survives its process dying
//!
//! [`journal::run_journaled`] wraps a run in a write-ahead journal: every
//! completed job is persisted before the sweep moves on, and a killed
//! process (`kill -9` included) resumes by replaying the journal and
//! running only the remainder — with a stable digest byte-identical to an
//! uninterrupted run's. See the [`journal`] module docs.
//!
//! ```
//! use rvv_batch::{BatchJob, BatchRunner, Engine};
//! use scanvec::EnvConfig;
//! use scanvec::primitives::plus_scan;
//! use std::sync::Arc;
//!
//! let jobs: Vec<BatchJob<Vec<u32>>> = [100usize, 1000]
//!     .iter()
//!     .map(|&n| {
//!         BatchJob::new(format!("scan/n={n}"), EnvConfig::paper_default(), move |env| {
//!             let v = env.from_u32(&vec![1; n])?;
//!             plus_scan(env, &v)?;
//!             Ok(env.to_u32(&v))
//!         })
//!         .weight(n as u64)
//!     })
//!     .collect();
//! let serial = BatchRunner::with_engine(1, Arc::new(Engine::new())).run(jobs);
//! assert_eq!(serial.reports[0].output().unwrap().last(), Some(&100));
//! // One plan registry, every kernel compiled once across the whole sweep.
//! assert!(serial.plan_compiles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod job;
pub mod journal;
mod queue;
mod runner;

pub use backoff::BackoffPolicy;
pub use job::{BatchJob, BatchResult, DegradedSummary, FailedJob, JobOutcome, JobReport};
pub use journal::{run_journaled, JournalOptions, JournalPayload};
pub use queue::AdmissionGate;
pub use runner::{execute_job, BatchRunner, SessionPool};

// Re-exported so bins depending on `rvv-batch` can name the shared pieces
// without importing the crates behind them.
pub use rvv_cost::{CostModel, CycleCounters};
pub use scanvec::{CancelToken, Engine, EngineBuilder, EnvConfig, PlanCache, ScanEnv, Session};
