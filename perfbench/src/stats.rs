//! Sample statistics, failure accounting, and the layer-sum arithmetic.

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks (the default of numpy and of Python's `statistics.quantiles`
/// "inclusive" method). `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (0 for an empty slice, which callers rule out).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// How many of `n` samples lie strictly beyond the `p`-quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let at = (p * n as f64).ceil() as usize;
    n.saturating_sub(at)
}

/// The fewest samples for which at least `tail` lie beyond the
/// `p`-quantile: a run reporting p99 with ten samples beyond it needs
/// `min_samples_for(0.99, 10)` = 1000.
pub fn min_samples_for(p: f64, tail: usize) -> usize {
    let mut n = tail;
    while samples_beyond(n, p) < tail {
        n += 1;
    }
    n
}

/// Operations attempted and failed. A failure is anything a user would
/// count against the service: a non-2xx reply, a refusal (429/503), a job
/// outcome other than `ok`, or a digest that does not match the reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, for any of the reasons above.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` says whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Is an HTTP status a success? Refusals (429, 503) and every other
/// non-2xx status are failures.
pub fn http_ok(status: u16) -> bool {
    (200..300).contains(&status)
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the parent interval).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut spans: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in spans {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered_ns(start, end, children)
}

/// The share of a job's wall time no stage accounts for:
/// `1 - sum(stage self times) / wall`. Near 0 when the stages add up;
/// negative when they overlap (double counting).
pub fn unattributed_frac(wall_ns: u64, stage_self_ns: &[u64]) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    1.0 - stage_self_ns.iter().sum::<u64>() as f64 / wall_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(min_samples_for(0.99, 10), 1000);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(min_samples_for(0.5, 10), 20);
        assert_eq!(min_samples_for(0.95, 50), 1000);
        for p in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let n = min_samples_for(p, 10);
            assert!(samples_beyond(n, p) >= 10, "p={p} n={n}");
            assert!(samples_beyond(n - 1, p) < 10, "p={p}: {n} is the fewest");
        }
    }

    #[test]
    fn failed_frac_counts_refusals_and_mismatches() {
        let mut t = Tally::default();
        for status in [202, 200, 429, 503, 500, 404] {
            t.record(http_ok(status));
        }
        assert_eq!((t.attempted, t.failed), (6, 4));
        // A sweep whose digest mismatched its reference failed too.
        let digest_matches = false;
        t.record(digest_matches);
        assert_eq!(t.failed, 5);
        assert!((t.failed_frac() - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn layer_sum_arithmetic() {
        // Parent [0, 100) with children [10, 30) and an overlapping
        // [20, 50): the union covers 40 ns, so self time is 60.
        assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 50)]), 40);
        assert_eq!(self_ns(0, 100, &[(10, 30), (20, 50)]), 60);
        // Children outside the parent are clipped.
        assert_eq!(self_ns(10, 20, &[(0, 15), (18, 40)]), 3);
        // Stages that tile the wall leave nothing unattributed...
        assert_eq!(unattributed_frac(100, &[25, 25, 50]), 0.0);
        // ...a gap shows as a positive share, double counting as negative.
        assert!((unattributed_frac(100, &[25, 25, 40]) - 0.1).abs() < 1e-12);
        assert!(unattributed_frac(100, &[60, 60]) < 0.0);
    }
}
