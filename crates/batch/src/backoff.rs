//! Deterministic retry backoff: exponential delay with seeded jitter.
//!
//! Retries used to re-execute immediately, which turns a transiently
//! overloaded resource into a thundering herd. A [`BackoffPolicy`] spaces
//! attempts out exponentially and jitters each delay with `rvv_ckpt`'s
//! [`mix64`] keyed by `(seed, job_index, attempt)` — the mixer every
//! per-job fault plan is keyed through — so a degraded run's delay schedule
//! is a pure function of the policy, reproducible across reruns and
//! thread counts. The *delays* are deterministic; only whether a given
//! attempt fails (and therefore whether a delay is consumed) depends on
//! the jobs themselves.
//!
//! Delays are bookkeeping, never results: the total slept rides the
//! quarantined [`JobReport::backoff`](crate::JobReport::backoff) field and
//! stays out of every stable digest.

use rvv_ckpt::mix64;
use std::time::Duration;

/// How failed attempts are spaced (see the module docs).
///
/// The delay before retry `attempt` (1-based: the delay after the
/// `attempt`th failure) of job `job_index` is
/// `base * factor^(attempt-1)`, capped at `cap`, then jittered into
/// `[½, 1]` of itself by the keyed PRNG. [`BackoffPolicy::none`] keeps
/// the old run-again-immediately behavior for callers that want it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay.
    pub base: Duration,
    /// Multiplier per further attempt.
    pub factor: u32,
    /// Upper bound any single delay is clamped to.
    pub cap: Duration,
    /// Jitter seed (keyed with the job index and attempt number).
    pub seed: u64,
}

impl BackoffPolicy {
    /// The default schedule: 2 ms base, doubling, capped at 250 ms.
    /// Gentle enough that test sweeps with a couple of retries stay fast,
    /// spread enough that a whole batch of simultaneous failures
    /// de-synchronizes.
    pub fn new(seed: u64) -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(2),
            factor: 2,
            cap: Duration::from_millis(250),
            seed,
        }
    }

    /// No delays at all — every retry runs immediately.
    pub fn none() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::ZERO,
            factor: 1,
            cap: Duration::ZERO,
            seed: 0,
        }
    }

    /// The delay to sleep after the `attempt`th failure (1-based) of the
    /// job at `job_index`. Pure: same `(policy, job_index, attempt)`,
    /// same delay.
    pub fn delay(&self, job_index: u64, attempt: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let cap = self.cap.as_nanos().max(self.base.as_nanos());
        let exp = u128::from(self.factor.max(1)).saturating_pow(attempt.saturating_sub(1));
        let nanos = self.base.as_nanos().saturating_mul(exp).min(cap);
        // Jitter into [½, 1] of the exponential delay: full jitter keeps
        // herds apart, the ½ floor keeps the schedule recognizably
        // exponential.
        let r = mix64(self.seed ^ mix64(job_index) ^ (u64::from(attempt) << 32));
        let half = nanos / 2;
        let jittered = half + (half * u128::from(r % 1024)) / 1023;
        Duration::from_nanos(u64::try_from(jittered).unwrap_or(u64::MAX))
    }
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_keyed() {
        let p = BackoffPolicy::new(7);
        assert_eq!(p.delay(3, 1), p.delay(3, 1));
        // Different jobs and different attempts draw different jitter.
        assert_ne!(p.delay(3, 1), p.delay(4, 1));
        assert_ne!(p.delay(3, 1), p.delay(3, 2));
        // A different seed reshuffles the schedule.
        assert_ne!(BackoffPolicy::new(8).delay(3, 1), p.delay(3, 1));
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds() {
        let p = BackoffPolicy::new(1);
        for attempt in 1..=5u32 {
            let nominal = p.base * p.factor.pow(attempt - 1);
            let d = p.delay(0, attempt);
            assert!(d >= nominal / 2, "attempt {attempt}: {d:?} < {nominal:?}/2");
            assert!(d <= nominal, "attempt {attempt}: {d:?} > {nominal:?}");
        }
    }

    #[test]
    fn cap_bounds_every_delay() {
        let p = BackoffPolicy::new(2);
        for attempt in 1..=40u32 {
            assert!(p.delay(9, attempt) <= p.cap);
        }
    }

    #[test]
    fn none_never_sleeps() {
        let p = BackoffPolicy::none();
        for attempt in 1..=4u32 {
            assert_eq!(p.delay(0, attempt), Duration::ZERO);
        }
    }
}
