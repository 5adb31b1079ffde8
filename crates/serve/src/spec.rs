//! Job specifications: the client-facing, journal-stable description of
//! one sweep point.
//!
//! A [`JobSpec`] is everything needed to rebuild a job from scratch —
//! workload, size, machine configuration, data seed. Its `Display` form is
//! what goes into the durable queue's submit records, and `FromStr` must
//! round-trip it exactly: after `kill -9`, the restarted service re-parses
//! the journal payloads and rebuilds byte-identical [`BatchJob`]s. Nothing
//! about a job may live only in process memory.

use rvv_batch::BatchJob;
use rvv_ckpt::XorShift64;
use rvv_isa::Lmul;
use scanvec::primitives::{p_add, plus_scan, seg_plus_scan};
use scanvec::EnvConfig;
use scanvec_algos::split_radix_sort;
use std::fmt;
use std::str::FromStr;

/// Largest `n` a spec may request — bounds per-job device memory so a
/// tenant cannot exhaust the host by submitting one giant job.
pub const MAX_N: usize = 1_000_000;

/// The workloads the service knows how to run. A closed set on purpose:
/// clients name computations, they do not ship them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Elementwise add of a constant ([`p_add`]).
    PAdd,
    /// Inclusive `+`-scan ([`plus_scan`]).
    PlusScan,
    /// Segmented `+`-scan with seeded head flags ([`seg_plus_scan`]).
    SegScan,
    /// Split radix sort over the low 8 bits ([`split_radix_sort`]).
    RadixSort,
}

impl Workload {
    /// Every workload, for listings in error messages.
    pub const ALL: [Workload; 4] = [
        Workload::PAdd,
        Workload::PlusScan,
        Workload::SegScan,
        Workload::RadixSort,
    ];

    /// The wire name (`Display` uses this too).
    pub fn name(self) -> &'static str {
        match self {
            Workload::PAdd => "p_add",
            Workload::PlusScan => "plus_scan",
            Workload::SegScan => "seg_scan",
            Workload::RadixSort => "radix_sort",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{s}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// One sweep point, as submitted by a client and journaled by the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// What to compute.
    pub workload: Workload,
    /// Input size (elements), `1..=`[`MAX_N`].
    pub n: usize,
    /// Vector register length in bits.
    pub vlen: u32,
    /// Register-group multiplier.
    pub lmul: Lmul,
    /// Seed for the deterministic input data.
    pub seed: u64,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            workload: Workload::PlusScan,
            n: 1000,
            vlen: 256,
            lmul: Lmul::M1,
            seed: 0,
        }
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} n={} vlen={} lmul={} seed={}",
            self.workload, self.n, self.vlen, self.lmul, self.seed
        )
    }
}

fn parse_lmul(s: &str) -> Result<Lmul, String> {
    // `Lmul` has `Display` but deliberately no `FromStr` (the simulator
    // never parses it); the service maps the whole-register forms it
    // accepts from tenants by hand. Fractional LMUL is not sweepable here.
    match s {
        "m1" => Ok(Lmul::M1),
        "m2" => Ok(Lmul::M2),
        "m4" => Ok(Lmul::M4),
        "m8" => Ok(Lmul::M8),
        other => Err(format!(
            "unknown lmul `{other}` (expected m1, m2, m4, or m8)"
        )),
    }
}

impl FromStr for JobSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<JobSpec, String> {
        let mut parts = s.split_ascii_whitespace();
        let workload: Workload = parts
            .next()
            .ok_or_else(|| "empty job spec".to_string())?
            .parse()?;
        let mut spec = JobSpec {
            workload,
            ..JobSpec::default()
        };
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad spec field `{part}` (expected key=value)"))?;
            match key {
                "n" => {
                    spec.n = value.parse().map_err(|e| format!("bad n `{value}`: {e}"))?;
                }
                "vlen" => {
                    spec.vlen = value
                        .parse()
                        .map_err(|e| format!("bad vlen `{value}`: {e}"))?;
                }
                "lmul" => spec.lmul = parse_lmul(value)?,
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|e| format!("bad seed `{value}`: {e}"))?;
                }
                other => return Err(format!("unknown spec field `{other}`")),
            }
        }
        if spec.n == 0 || spec.n > MAX_N {
            return Err(format!("n must be in 1..={MAX_N}, got {}", spec.n));
        }
        Ok(spec)
    }
}

impl JobSpec {
    /// The environment configuration this spec runs under: the paper
    /// profile with the spec's vlen/lmul, device memory scaled to the
    /// input so small jobs pool small sessions.
    pub fn config(&self) -> EnvConfig {
        EnvConfig {
            vlen: self.vlen,
            lmul: self.lmul,
            mem_bytes: if self.n <= 100_000 {
                64 << 20
            } else {
                192 << 20
            },
            ..EnvConfig::paper_default()
        }
    }

    /// Deterministic input data: a pure function of `(seed, n, workload)`,
    /// so a job rebuilt from its journaled spec recomputes the same bytes.
    fn data(&self) -> Vec<u32> {
        let mut rng = XorShift64::from_pair(self.seed, 0xda7a);
        // Radix sort runs over the low 8 bits; keep values inside them.
        let limit = match self.workload {
            Workload::RadixSort => 256,
            _ => 1 << 20,
        };
        (0..self.n).map(|_| rng.below(limit) as u32).collect()
    }

    /// Segment head flags for [`Workload::SegScan`] (~1 head in 8,
    /// element 0 always a head).
    fn flags(&self) -> Vec<u32> {
        let mut rng = XorShift64::from_pair(self.seed, 0xf1a6);
        (0..self.n)
            .map(|i| u32::from(i == 0 || rng.below(8) == 0))
            .collect()
    }

    /// Build the runnable job. The closure regenerates its input from the
    /// spec every attempt, so retries and crash-replays see identical
    /// data; `weight` is `n` so the batch runner's LPT sharding balances
    /// mixed-size sweeps.
    pub fn to_job(&self, name: impl Into<String>) -> BatchJob<u64> {
        let spec = *self;
        BatchJob::new(name, spec.config(), move |env| {
            let v = env.from_u32(&spec.data())?;
            match spec.workload {
                Workload::PAdd => p_add(env, &v, 1),
                Workload::PlusScan => plus_scan(env, &v),
                Workload::SegScan => {
                    let f = env.from_u32(&spec.flags())?;
                    seg_plus_scan(env, &v, &f)
                }
                Workload::RadixSort => split_radix_sort(env, &v, 8),
            }
        })
        .weight(self.n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_display() {
        let specs = [
            JobSpec::default(),
            "p_add n=5000 vlen=512 lmul=m4 seed=9"
                .parse::<JobSpec>()
                .unwrap(),
            "radix_sort n=100 vlen=128 lmul=m8 seed=123"
                .parse::<JobSpec>()
                .unwrap(),
            "seg_scan n=777 vlen=1024 lmul=m2 seed=42"
                .parse::<JobSpec>()
                .unwrap(),
        ];
        for spec in specs {
            let text = spec.to_string();
            let back: JobSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(spec, back, "{text}");
        }
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let spec: JobSpec = "plus_scan n=64".parse().unwrap();
        assert_eq!(spec.vlen, 256);
        assert_eq!(spec.lmul, Lmul::M1);
        assert_eq!(spec.seed, 0);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (text, needle) in [
            ("", "empty"),
            ("fizz n=10", "unknown workload"),
            ("p_add n=0", "1..="),
            ("p_add n=10000001", "1..="),
            ("p_add n=ten", "bad n"),
            ("p_add lmul=mf2", "unknown lmul"),
            ("p_add bogus=1", "unknown spec field"),
            ("p_add n", "key=value"),
        ] {
            let err = text.parse::<JobSpec>().unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn jobs_are_deterministic_across_rebuilds() {
        use rvv_batch::{BatchRunner, Engine};
        use std::sync::Arc;
        let spec: JobSpec = "seg_scan n=500 vlen=256 lmul=m2 seed=3".parse().unwrap();
        let run = |spec: JobSpec| {
            BatchRunner::with_engine(1, Arc::new(Engine::new()))
                .run(vec![spec.to_job("job-1")])
                .stable_digest()
        };
        assert_eq!(run(spec), run(spec.to_string().parse().unwrap()));
    }
}
