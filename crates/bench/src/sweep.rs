//! The full-evaluation sweep as a batch: every `run_all` table point as an
//! independent [`BatchJob`], plus the decoder that hands the in-order
//! reports to the [`crate::manifest`] rows that render them.
//!
//! The job list is a pure function of [`SweepShape`], so `run_all` can
//! build it twice — once for the serial reference, once for the parallel
//! run — and compare the two [`rvv_batch::BatchResult::stable_digest`]s
//! byte for byte.

use crate::experiments::{self, Pair};
use crate::manifest::{self, Point, Run, Runs, Sizes};
use rvv_batch::{BatchJob, JobReport, JournalPayload};
use rvv_ckpt::{ByteReader, ByteWriter, CodecError};
use rvv_isa::Lmul;
use scanvec::{EnvConfig, ScanEnv, ScanResult};

/// The sweep grid: the `--max-n`-capped paper sizes, and the size used by
/// the fixed-N experiments (Table 7 / the scan-LMUL sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepShape {
    /// Sizes for Tables 1–5.
    pub sizes: Vec<usize>,
    /// N for Table 7 and the scan-LMUL sweep.
    pub n7: usize,
}

impl SweepShape {
    /// The shape the command line asks for (`--max-n`).
    pub fn from_args() -> SweepShape {
        SweepShape {
            sizes: crate::sweep_sizes(),
            n7: 10_000.min(crate::max_n_arg()),
        }
    }
}

/// What one sweep job measured. One variant per experiment family so a
/// single batch carries the whole evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measurement {
    /// A vectorized-vs-baseline pair (Tables 1–4).
    Pair(Pair),
    /// A Table 5 point: segmented-scan count plus result checksum.
    Seg {
        /// Dynamic instruction count.
        count: u64,
        /// [`experiments::checksum`] of the scanned vector.
        checksum: u64,
    },
    /// A Table 7 point at one VLEN.
    Vlen {
        /// Segmented-scan count.
        seg: u64,
        /// `p_add` count.
        padd: u64,
    },
    /// A scan-LMUL-sweep point at one LMUL.
    Scan {
        /// Vectorized scan count.
        ours: u64,
        /// Scalar baseline count.
        base: u64,
    },
}

/// Journal encoding for sweep measurements (`run_all --journal`): one tag
/// byte per variant, then the fields in declaration order. A decoded
/// measurement is `==` and `Debug`-identical to the encoded one, so a
/// crash/resume run's stable digest matches an uninterrupted run's.
impl JournalPayload for Measurement {
    fn encode(&self, w: &mut ByteWriter) {
        match *self {
            Measurement::Pair(Pair { n, ours, baseline }) => {
                w.put_u8(0);
                w.put_u64(n as u64);
                w.put_u64(ours);
                w.put_u64(baseline);
            }
            Measurement::Seg { count, checksum } => {
                w.put_u8(1);
                w.put_u64(count);
                w.put_u64(checksum);
            }
            Measurement::Vlen { seg, padd } => {
                w.put_u8(2);
                w.put_u64(seg);
                w.put_u64(padd);
            }
            Measurement::Scan { ours, base } => {
                w.put_u8(3);
                w.put_u64(ours);
                w.put_u64(base);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Measurement, CodecError> {
        Ok(match r.get_u8()? {
            0 => Measurement::Pair(Pair {
                n: r.get_u64()? as usize,
                ours: r.get_u64()?,
                baseline: r.get_u64()?,
            }),
            1 => Measurement::Seg {
                count: r.get_u64()?,
                checksum: r.get_u64()?,
            },
            2 => Measurement::Vlen {
                seg: r.get_u64()?,
                padd: r.get_u64()?,
            },
            3 => Measurement::Scan {
                ours: r.get_u64()?,
                base: r.get_u64()?,
            },
            tag => {
                return Err(CodecError::BadValue {
                    what: "measurement tag",
                    value: u64::from(tag),
                })
            }
        })
    }
}

impl Measurement {
    /// The point the manifest row of this measurement reads: its counts
    /// in the order the row's point function returns them.
    pub fn counts(&self) -> Point {
        match *self {
            Measurement::Pair(p) => p.into(),
            Measurement::Seg { count, checksum } => vec![count, checksum],
            Measurement::Vlen { seg, padd } => vec![seg, padd],
            Measurement::Scan { ours, base } => vec![ours, base],
        }
    }
}

type PairPoint = fn(&mut ScanEnv, usize) -> ScanResult<Pair>;

/// Every point of the full evaluation as an independent job, in table
/// order. Deterministic in `shape`; [`runs`] expects exactly this layout.
pub fn sweep_jobs(shape: &SweepShape) -> Vec<BatchJob<Measurement>> {
    let mut jobs = Vec::new();
    let paper = EnvConfig::paper_default();
    let points: [(&str, PairPoint); 4] = [
        ("table1", experiments::table1_point),
        ("table2", experiments::table2_point),
        ("table3", experiments::table3_point),
        ("table4", experiments::table4_point),
    ];
    for (table, point) in points {
        for &n in &shape.sizes {
            jobs.push(
                BatchJob::new(format!("{table}/n={n}"), paper, move |env: &mut ScanEnv| {
                    point(env, n).map(Measurement::Pair)
                })
                // Table 1 sorts cost ~bits× more than the linear points;
                // weights only steer load balancing, so coarse is fine.
                .weight(n as u64 * if table == "table1" { 16 } else { 1 }),
            );
        }
    }
    for &n in &shape.sizes {
        for lmul in Lmul::ALL {
            jobs.push(
                BatchJob::new(
                    format!("table5/m{}/n={n}", lmul.regs()),
                    EnvConfig::with_lmul(lmul),
                    move |env: &mut ScanEnv| {
                        experiments::table5_point(env, n)
                            .map(|(count, checksum)| Measurement::Seg { count, checksum })
                    },
                )
                .weight(n as u64),
            );
        }
    }
    for vlen in [128u32, 256, 512, 1024] {
        let n = shape.n7;
        jobs.push(
            BatchJob::new(
                format!("table7/vlen{vlen}"),
                EnvConfig::with_vlen(vlen),
                move |env: &mut ScanEnv| {
                    experiments::table7_point(env, n)
                        .map(|(seg, padd)| Measurement::Vlen { seg, padd })
                },
            )
            .weight(n as u64),
        );
    }
    for lmul in Lmul::ALL {
        let n = shape.n7;
        jobs.push(
            BatchJob::new(
                format!("scan_lmul/m{}", lmul.regs()),
                EnvConfig::with_lmul(lmul),
                move |env: &mut ScanEnv| {
                    experiments::scan_lmul_point(env, n)
                        .map(|(ours, base)| Measurement::Scan { ours, base })
                },
            )
            .weight(n as u64),
        );
    }
    jobs
}

/// The manifest rows the sweep renders, in job order. Table 6 and
/// Figure 5 have no jobs of their own: they render Table 5's and Table 7's.
pub const SWEEP_ROWS: [&str; 9] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure5",
    "ablation_scan_lmul",
];

/// Hand the in-order reports of a [`sweep_jobs`] batch to the
/// [`SWEEP_ROWS`] as their runs. The rows with one size run at `n7`.
///
/// Panics on any failed job or on a batch that does not match `shape`.
pub fn runs(shape: &SweepShape, reports: &[JobReport<Measurement>]) -> Runs {
    let mut points = reports.iter().map(|r| {
        r.output()
            .unwrap_or_else(|| panic!("{} failed: {:?}", r.name, r.outcome))
            .counts()
    });
    let runs = SWEEP_ROWS.map(|name| {
        let row = manifest::row(name).expect("a manifest row");
        let sizes = match row.sizes {
            Sizes::Upto(..) => shape.sizes.clone(),
            Sizes::Capped(_) => vec![shape.n7],
        };
        let count = (row.jobs)(&sizes).len();
        let points: Vec<Point> = points.by_ref().take(count).collect();
        assert_eq!(points.len(), count, "sweep too short at {name}");
        let profiles = Vec::new();
        let run = Run {
            sizes,
            points,
            profiles,
        };
        (row.name, run)
    });
    assert!(points.next().is_none(), "sweep longer than its shape");
    runs.into_iter().collect()
}

/// Render a fully successful sweep as the manifest sections of the
/// [`SWEEP_ROWS`].
pub fn render(shape: &SweepShape, reports: &[JobReport<Measurement>]) -> String {
    let rows = SWEEP_ROWS.map(|name| manifest::row(name).expect("a manifest row"));
    manifest::render(&rows, &runs(shape, reports)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvv_batch::BatchRunner;

    fn small() -> SweepShape {
        SweepShape {
            sizes: vec![100, 1000],
            n7: 1000,
        }
    }

    #[test]
    fn sweep_measures_the_manifest_points() {
        let shape = small();
        let runner = BatchRunner::new(1);
        let result = runner.run(sweep_jobs(&shape));
        assert!(result.all_ok());
        let swept = runs(&shape, &result.reports);
        let rows = SWEEP_ROWS.map(|name| manifest::row(name).unwrap());
        let measured = manifest::measure(&rows, shape.n7, &runner);
        for name in SWEEP_ROWS {
            assert_eq!(swept[name].sizes, measured[name].sizes, "{name}");
            assert_eq!(swept[name].points, measured[name].points, "{name}");
        }
    }

    #[test]
    fn measurements_round_trip_through_the_journal_codec() {
        let samples = [
            Measurement::Pair(Pair {
                n: 1_000_000,
                ours: 7,
                baseline: 42,
            }),
            Measurement::Seg {
                count: 1,
                checksum: u64::MAX,
            },
            Measurement::Vlen { seg: 3, padd: 4 },
            Measurement::Scan { ours: 5, base: 6 },
        ];
        for m in samples {
            let mut w = ByteWriter::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(Measurement::decode(&mut r).unwrap(), m);
            r.finish().unwrap();
        }
        let mut r = ByteReader::new(&[9]);
        assert!(Measurement::decode(&mut r).is_err(), "bad tag must error");
    }

    #[test]
    fn job_list_is_deterministic_and_sized_by_shape() {
        let shape = small();
        let a = sweep_jobs(&shape);
        let b = sweep_jobs(&shape);
        assert_eq!(a.len(), 4 * 2 + 2 * 4 + 4 + 4);
        let names = |jobs: &[BatchJob<Measurement>]| {
            jobs.iter().map(|j| j.name.clone()).collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
        assert!(a.iter().all(|j| j.weight > 0));
    }
}
