//! The reproduction manifest: every table, figure and ablation of the
//! evaluation as one row of data, in the order `results/full_run.txt`
//! prints them.
//!
//! A row is the only place its experiment is declared: its sizes and how
//! `--max-n` caps them, the batch jobs that run its point function from
//! [`crate::experiments`], the paper's published numbers, its notes, and
//! its shape claim with the predicate that checks it. A [`Sweep`] runs the
//! point jobs of any subset of rows as one batch, so every row honours
//! `--threads` and `--exec-engine`, and the `repro` binary's determinism,
//! fault and crash gates cover every row; [`render`] prints each row as an
//! `=== name ===` section that ends with its claim and verdict.

use crate::experiments::{self, CLASSES, PROFILE_N};
use crate::{table, PAPER_SIZES};
use rvv_asm::SpillProfile;
use rvv_batch::{BatchJob, BatchRunner, CostModel, CycleCounters, JobReport};
use rvv_isa::{InstrClass, Lmul};
use rvv_trace::TraceProfiler;
use scanvec::{EnvConfig, ScanEnv, ScanResult};
use std::collections::BTreeMap;

/// What one job measured: the counts its point function returns, in order,
/// then the modeled cycle total if the job is costed.
pub type Point = Vec<u64>;

/// The sizes a row runs at, and how `--max-n` caps them.
#[derive(Debug, Clone, Copy)]
pub enum Sizes {
    /// The listed sizes up to `--max-n`, or up to the floor (the second
    /// field) when `--max-n` is smaller.
    Upto(&'static [usize], usize),
    /// One size: the given N, or `--max-n` when that is smaller.
    Capped(usize),
}

impl Sizes {
    /// The sizes at `--max-n = max_n`.
    pub fn at(self, max_n: usize) -> Vec<usize> {
        match self {
            Sizes::Upto(sizes, floor) => {
                let cap = max_n.max(floor);
                sizes.iter().copied().filter(|&n| n <= cap).collect()
            }
            Sizes::Capped(n) => vec![n.min(max_n)],
        }
    }
}

/// Traced launches at LMUL 1 and 8 under the ara-like cost model, written
/// to `results/<row>_m<lmul>.{json,txt}`.
#[derive(Clone, Copy)]
pub struct Profile {
    /// The traced launch.
    pub point: fn(&mut ScanEnv) -> ScanResult<()>,
    /// The spill summary on the row's `profile` lines.
    pub spill: fn(&TraceProfiler) -> String,
}

/// Why a row's claim is not confirmed.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The measured numbers contradict the claim.
    Fails(String),
    /// The claim needs this size, which the run did not measure.
    NotMeasured(usize),
}

/// One row's points, as its body and its predicate read them.
pub struct Measured<'a> {
    /// The row.
    pub row: &'a Row,
    /// The sizes it ran at.
    pub sizes: &'a [usize],
    /// Its jobs' points, in job order.
    pub points: &'a [Point],
    /// The points of its `source` row (empty without one).
    pub source: &'a [Point],
}

/// One experiment.
pub struct Row {
    /// The row's `=== name ===` section in `results/full_run.txt` and its
    /// name on the `repro` command line.
    pub name: &'static str,
    /// Where the experiment comes from in the paper.
    pub section: &'static str,
    /// The sizes it runs at.
    pub sizes: Sizes,
    /// A row whose points this one renders too, measured at the same sizes
    /// (Table 6 renders Table 5's).
    pub source: Option<&'static str>,
    /// The jobs that run its point function at the given sizes.
    pub jobs: fn(&[usize]) -> Vec<BatchJob<Point>>,
    /// Its traced profiles, if any.
    pub profile: Option<Profile>,
    /// The paper's published numbers: one line per paper size, or per
    /// VLEN for Table 7 and Figure 5.
    pub paper: &'static [&'static [f64]],
    /// The table title; `{n}` stands for the row's size.
    pub title: &'static str,
    /// The table's column headers, separated by `" | "`.
    pub headers: &'static str,
    /// The table's rows.
    pub body: fn(&Measured) -> Vec<Vec<String>>,
    /// Printed under the table.
    pub notes: &'static str,
    /// The shape claim.
    pub claim: &'static str,
    /// Checks the claim against the measured points.
    pub holds: fn(&Measured) -> Result<(), Verdict>,
}

/// One row's measurements.
#[derive(Debug, Default)]
pub struct Run {
    /// The sizes it ran at.
    pub sizes: Vec<usize>,
    /// Its jobs' points, in job order.
    pub points: Vec<Point>,
    /// Its traced profiles at LMUL 1 and 8.
    pub profiles: Vec<TraceProfiler>,
}

/// Measurements by row name.
pub type Runs = BTreeMap<&'static str, Run>;

/// The row named `name`.
pub fn row(name: &str) -> Option<&'static Row> {
    MANIFEST.iter().find(|r| r.name == name)
}

/// The rows one run measures, each at its sizes: the rows asked for and
/// the rows they render from, in manifest order.
pub struct Sweep {
    /// Each row, its sizes, and how many point jobs it has.
    rows: Vec<(&'static Row, Vec<usize>, usize)>,
}

impl Sweep {
    /// The sweep that renders `rows` at `--max-n = max_n`.
    pub fn new(rows: &[&Row], max_n: usize) -> Sweep {
        let needed = |r: &Row| {
            rows.iter()
                .any(|s| s.name == r.name || s.source == Some(r.name))
        };
        let rows = MANIFEST.iter().filter(|r| needed(r)).map(|row| {
            let sizes = row.sizes.at(max_n);
            let count = (row.jobs)(&sizes).len();
            (row, sizes, count)
        });
        Sweep {
            rows: rows.collect(),
        }
    }

    /// The rows' point jobs as one batch, in row order, each named
    /// `row/job`. The list depends only on the rows and sizes, so it can
    /// be built again for a serial reference run or a resumed journal.
    pub fn jobs(&self) -> Vec<BatchJob<Point>> {
        let mut jobs = Vec::new();
        for (row, sizes, _) in &self.rows {
            for mut job in (row.jobs)(sizes) {
                job.name = format!("{}/{}", row.name, job.name);
                jobs.push(job);
            }
        }
        jobs
    }

    /// Fold `points`, the in-order reports of a [`Sweep::jobs`] batch, into
    /// runs, after running the profiled rows' traced launches on `runner`
    /// as a second batch: a journal cannot carry a profile, so the
    /// profiles stay out of the first. Panics if a job failed: every point
    /// is a known-good launch, so a failure is a bug.
    pub fn runs(&self, points: &[JobReport<Point>], runner: &BatchRunner) -> Runs {
        let mut traced = Vec::new();
        for (row, ..) in &self.rows {
            let Some(profile) = row.profile else { continue };
            traced.extend(PROFILE_LMULS.map(|lmul| {
                BatchJob::new(
                    format!("{}/profile/m{}", row.name, lmul.regs()),
                    EnvConfig::with_lmul(lmul),
                    move |e: &mut ScanEnv| (profile.point)(e).map(|()| Point::new()),
                )
                .traced(true)
                .costed(CostModel::ara_like())
                .weight(PROFILE_N as u64)
            }));
        }
        let mut profiles = runner.run(traced).reports.into_iter().map(|r| {
            expect_ok(&r);
            r.profile.expect("a traced job")
        });
        let mut points = points.iter().map(expect_ok);
        let runs = self.rows.iter().map(|(row, sizes, count)| {
            let run = Run {
                sizes: sizes.clone(),
                points: points.by_ref().take(*count).collect(),
                profiles: match row.profile {
                    Some(_) => profiles.by_ref().take(PROFILE_LMULS.len()).collect(),
                    None => Vec::new(),
                },
            };
            (row.name, run)
        });
        runs.collect()
    }
}

/// The point of a job that must not fail: its output, then its modeled
/// cycle total if the job was costed.
fn expect_ok(r: &JobReport<Point>) -> Point {
    let point = r.output().cloned();
    let mut point = point.unwrap_or_else(|| panic!("{} failed: {:?}", r.name, r.outcome));
    point.extend(r.cycles.as_ref().map(CycleCounters::total));
    point
}

fn measured<'a>(row: &'a Row, runs: &'a Runs) -> Measured<'a> {
    let run = &runs[row.name];
    Measured {
        row,
        sizes: &run.sizes,
        points: &run.points,
        source: row.source.map_or(&[][..], |s| &runs[s].points),
    }
}

/// Check `row`'s claim against `runs`.
pub fn check(row: &Row, runs: &Runs) -> Result<(), Verdict> {
    (row.holds)(&measured(row, runs))
}

/// Render `rows` from `runs`, one `=== name ===` section each, and name
/// the rows whose claims fail.
pub fn render(rows: &[&Row], runs: &Runs) -> (String, Vec<&'static str>) {
    let mut out = String::new();
    let mut failed = Vec::new();
    for &row in rows {
        let run = &runs[row.name];
        let size = run.sizes.first().map_or(String::new(), usize::to_string);
        out += &format!("=== {} ===\n", row.name);
        let headers: Vec<&str> = row.headers.split(" | ").collect();
        let title = row.title.replace("{n}", &size);
        out += &table(&title, &headers, &(row.body)(&measured(row, runs)));
        if !row.notes.is_empty() {
            out += &format!("\n{}\n", row.notes);
        }
        if !run.profiles.is_empty() {
            let spill = row.profile.expect("a profiled row").spill;
            out.push('\n');
            for (p, lmul) in run.profiles.iter().zip(PROFILE_LMULS) {
                out += &format!(
                    "profile m{}: {} retired, {} est. cycles (ara-like), {} -> {}.json/.txt\n",
                    lmul.regs(),
                    p.total_retired(),
                    p.cycles().expect("costed profile").total(),
                    spill(p),
                    profile_stem(row.name, lmul),
                );
            }
        }
        let verdict = match check(row, runs) {
            Ok(()) => "holds".to_string(),
            Err(Verdict::Fails(why)) => {
                failed.push(row.name);
                format!("FAILS: {why}")
            }
            Err(Verdict::NotMeasured(n)) => format!("not measured (needs N = {n})"),
        };
        out += &format!("\nClaim: {}\nVerdict: {verdict}\n\n", row.claim);
    }
    (out, failed)
}

/// The files `rows`' profiles go to, as `(path, contents)`.
pub fn profile_files(rows: &[&Row], runs: &Runs) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for row in rows {
        for (p, lmul) in runs[row.name].profiles.iter().zip(PROFILE_LMULS) {
            let stem = profile_stem(row.name, lmul);
            files.push((format!("{stem}.json"), p.chrome_trace_json()));
            files.push((format!("{stem}.txt"), p.text_report()));
        }
    }
    files
}

const PROFILE_LMULS: [Lmul; 2] = [Lmul::M1, Lmul::M8];

fn profile_stem(row: &str, lmul: Lmul) -> String {
    format!("results/{row}_m{}", lmul.regs())
}

// ---- jobs ----

const VLENS: [u32; 4] = [128, 256, 512, 1024];
const DENSITIES: [u32; 6] = [1, 10, 50, 200, 500, 1000];
const PAPER_SWEEP: Sizes = Sizes::Upto(&PAPER_SIZES, 0);

fn paper_config() -> [EnvConfig; 1] {
    [EnvConfig::paper_default()]
}

fn lmuls(spill_profile: SpillProfile) -> [EnvConfig; 4] {
    Lmul::ALL.map(|lmul| EnvConfig {
        lmul,
        spill_profile,
        ..EnvConfig::paper_default()
    })
}

fn vlens() -> [EnvConfig; 4] {
    VLENS.map(EnvConfig::with_vlen)
}

/// One job per (size, configuration), sizes outermost.
fn grid<T: Into<Point> + 'static>(
    sizes: &[usize],
    configs: &[EnvConfig],
    point: fn(&mut ScanEnv, usize) -> ScanResult<T>,
) -> Vec<BatchJob<Point>> {
    let mut jobs = Vec::new();
    for &n in sizes {
        for &config in configs {
            let name = format!("vlen{}/m{}/n={n}", config.vlen, config.lmul.regs());
            let job = BatchJob::new(name, config, move |e: &mut ScanEnv| {
                point(e, n).map(T::into)
            });
            jobs.push(job.weight(n as u64));
        }
    }
    jobs
}

fn two((a, b): (u64, u64)) -> [u64; 2] {
    [a, b]
}

/// The cost row's kernels, in job order.
const COST_KERNELS: [&str; 2] = ["scan", "seg_scan"];

/// The cost row's jobs: each kernel at every size and LMUL, costed under
/// the ara-like model, the scan's jobs first.
fn costed_lmul_jobs(sizes: &[usize]) -> Vec<BatchJob<Point>> {
    let configs = lmuls(SpillProfile::llvm14());
    let scan = grid(sizes, &configs, |e, n| {
        experiments::scan_point(e, n).map(two)
    });
    let seg = grid(sizes, &configs, |e, n| {
        experiments::table5_point(e, n).map(two)
    });
    let kernels = COST_KERNELS.into_iter().zip([scan, seg]);
    let jobs = kernels.flat_map(|(kernel, jobs)| {
        jobs.into_iter().map(move |mut job| {
            job.name = format!("{kernel}/{}", job.name);
            job.costed(CostModel::ara_like())
        })
    });
    jobs.collect()
}

// ---- bodies ----

/// `base / ours` to three places, the tables' speedup format.
fn fmt_speedup(base: u64, ours: u64) -> String {
    format!("{:.3}", base as f64 / ours as f64)
}

fn fmt_ratio(x: f64) -> String {
    format!("{x:.4}")
}

/// The paper's line for paper size `n`.
fn paper_line(m: &Measured, n: usize) -> &'static [f64] {
    let i = PAPER_SIZES.iter().position(|&s| s == n);
    m.row.paper[i.expect("a paper size")]
}

/// A table row: `label`, then each of `counts`.
fn counts_row(label: impl ToString, counts: &[u64]) -> Vec<String> {
    let counts = counts.iter().map(u64::to_string);
    std::iter::once(label.to_string()).chain(counts).collect()
}

/// Rows of `label, a, b, b / a` from `[a, b, ...]` points.
fn speedup_rows<'a>(
    labels: impl IntoIterator<Item = String>,
    points: impl IntoIterator<Item = &'a [u64]>,
) -> Vec<Vec<String>> {
    let rows = labels.into_iter().zip(points).map(|(label, p)| {
        let mut row = counts_row(label, &p[..2]);
        row.push(fmt_speedup(p[1], p[0]));
        row
    });
    rows.collect()
}

/// A row per size of `n, a, b, b / a` from `[a, b, ...]` points.
fn speedup_body(m: &Measured) -> Vec<Vec<String>> {
    let sizes = m.sizes.iter().map(usize::to_string);
    speedup_rows(sizes, m.points.iter().map(Vec::as_slice))
}

/// A pair row: `[ours, baseline]` points next to the paper's pair.
fn pair_body(m: &Measured) -> Vec<Vec<String>> {
    let mut rows = speedup_body(m);
    for (row, &n) in rows.iter_mut().zip(m.sizes) {
        let paper = paper_line(m, n);
        row.extend([paper[0].to_string(), paper[1].to_string()]);
        row.push(format!("{:.3}", paper[1] / paper[0]));
    }
    rows
}

/// Table 5's grid, `(n, counts at m1/m2/m4/m8)`, from `[count, checksum]`
/// points; panics if LMUL changed a size's result.
fn lmul_grid(sizes: &[usize], points: &[Point]) -> Vec<(usize, [u64; 4])> {
    let grid = sizes.iter().zip(points.chunks(4)).map(|(&n, four)| {
        assert!(
            four.iter().all(|p| p[1] == four[0][1]),
            "LMUL changed the result at n={n}"
        );
        (n, [0, 1, 2, 3].map(|i| four[i][0]))
    });
    grid.collect()
}

/// The cost row's `(kernel, n, counts, cycles)` at m1/m2/m4/m8, from
/// `[count, checksum, cycles]` points; panics if LMUL changed a result.
fn cost_grid(m: &Measured) -> Vec<(&'static str, usize, [u64; 4], [u64; 4])> {
    let (scan, seg) = m.points.split_at(m.points.len() / 2);
    let mut lines = Vec::new();
    for (kernel, points) in COST_KERNELS.into_iter().zip([scan, seg]) {
        let counts = lmul_grid(m.sizes, points);
        for ((n, count), four) in counts.into_iter().zip(points.chunks(4)) {
            lines.push((kernel, n, count, [0, 1, 2, 3].map(|i| four[i][2])));
        }
    }
    lines
}

/// The cheapest LMUL under one metric; a tie goes to the smaller LMUL.
fn best_lmul(values: [u64; 4]) -> Lmul {
    let best = (0..4).min_by_key(|&i| values[i]).expect("four LMULs");
    Lmul::ALL[best]
}

/// Table 6's `(speedup over LMUL=1) / LMUL` for LMUL 2, 4 and 8.
fn lmul_ratios(c: [u64; 4]) -> [f64; 3] {
    [1, 2, 3].map(|i| c[0] as f64 / c[i] as f64 / f64::from(1u32 << i))
}

/// The percentage of a class-mix point's total that `class` retired.
fn class_percent(p: &Point, class: InstrClass) -> f64 {
    let i = CLASSES.iter().position(|&c| c == class);
    100.0 * p[1 + i.expect("a listed class")] as f64 / p[0] as f64
}

// ---- predicates ----

/// Fails as not measured unless the row ran at size `n`.
fn need(m: &Measured, n: usize) -> Result<(), Verdict> {
    if m.sizes.contains(&n) {
        Ok(())
    } else {
        Err(Verdict::NotMeasured(n))
    }
}

/// Fails as not measured unless a one-size row ran at `n` or more.
fn at_least(m: &Measured, n: usize) -> Result<(), Verdict> {
    match m.sizes {
        [size] if *size >= n => Ok(()),
        _ => Err(Verdict::NotMeasured(n)),
    }
}

fn ensure(ok: bool, why: String) -> Result<(), Verdict> {
    if ok {
        Ok(())
    } else {
        Err(Verdict::Fails(why))
    }
}

/// `(n, second count / first count)` per size: the speedup of the first
/// count over the second.
fn speedups(m: &Measured) -> Vec<(usize, f64)> {
    let s = m.sizes.iter().zip(m.points);
    s.map(|(&n, p)| (n, p[1] as f64 / p[0] as f64)).collect()
}

fn above(xs: &[(usize, f64)], min: f64) -> Result<(), Verdict> {
    for &(n, x) in xs {
        ensure(x > min, format!("{x:.3}x at N = {n} is not above {min}x"))?;
    }
    Ok(())
}

fn rising(xs: &[(usize, f64)]) -> Result<(), Verdict> {
    for w in xs.windows(2) {
        let ((n0, x0), (n1, x1)) = (w[0], w[1]);
        ensure(
            x1 > x0,
            format!("{x0:.3}x at N = {n0} falls to {x1:.3}x at N = {n1}"),
        )?;
    }
    Ok(())
}

/// Every row, in `results/full_run.txt` order.
pub static MANIFEST: &[Row] = &[
    Row {
        name: "table1",
        section: "§6.2, Table 1",
        sizes: PAPER_SWEEP,
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::table1_point),
        profile: None,
        paper: &[
            &[23_988.0, 17_158.0],
            &[94_842.0, 277_480.0],
            &[803_690.0, 3_470_344.0],
            &[19_603_490.0, 43_004_753.0],
            &[195_102_988.0, 511_107_188.0],
        ],
        title: "Table 1 — split radix sort vs qsort \
                (dynamic instructions, VLEN=1024, LMUL=1)",
        headers:
            "N | split_radix_sort | qsort | speedup | paper radix | paper qsort | paper speedup",
        body: pair_body,
        notes: "Note: the paper's qsort is glibc's (mergesort + comparator calls, ~511\n\
                instr/elem at 10^6); ours is a lean EDSL quicksort (~174 instr/elem), so\n\
                our baseline is stronger and speedups conservative.",
        claim: "qsort wins at N = 10^2; from 10^3 on the radix sort leads, by a margin\n\
                that grows with N.",
        holds: |m| {
            need(m, 100)?;
            need(m, 1_000)?;
            let s = speedups(m);
            ensure(
                s[0].1 < 1.0,
                format!("radix sort wins at N = 100 ({:.3}x)", s[0].1),
            )?;
            above(&s[1..], 1.0)?;
            rising(&s[1..])
        },
    },
    Row {
        name: "table2",
        section: "§6.2, Table 2",
        sizes: PAPER_SWEEP,
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::table2_point),
        profile: None,
        paper: &[
            &[66.0, 632.0],
            &[297.0, 6_002.0],
            &[2_826.0, 60_001.0],
            &[28_134.0, 600_001.0],
            &[281_259.0, 6_000_001.0],
        ],
        title: "Table 2 — p_add vs sequential baseline \
                (dynamic instructions, VLEN=1024, LMUL=1)",
        headers: "N | p_add | baseline | speedup | paper p_add | paper base | paper speedup",
        body: pair_body,
        notes: "",
        claim: "p_add beats the baseline by more than 5x at N = 10^2 and by more than 15x\n\
                from 10^3 on, and its speedup grows with N.",
        holds: |m| {
            need(m, 100)?;
            need(m, 1_000)?;
            let s = speedups(m);
            above(&s[..1], 5.0)?;
            above(&s[1..], 15.0)?;
            rising(&s)
        },
    },
    Row {
        name: "table3",
        section: "§6.2, Table 3",
        sizes: PAPER_SWEEP,
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::table3_point),
        profile: None,
        paper: &[
            &[311.0, 626.0],
            &[2_670.0, 6_026.0],
            &[26_281.0, 60_026.0],
            &[262_531.0, 600_026.0],
            &[2_625_031.0, 6_000_026.0],
        ],
        title: "Table 3 — plus_scan vs sequential baseline \
                (dynamic instructions, VLEN=1024, LMUL=1)",
        headers: "N | plus_scan | baseline | speedup | paper scan | paper base | paper speedup",
        body: pair_body,
        notes: "Note: our generated scan ladder is tighter than the paper's LLVM-14\n\
                codegen (~6 vs ~14 instructions per ladder step), so our speedups run\n\
                higher than the paper's ~2.3x.",
        claim: "plus_scan beats the baseline by more than 2x at every N.",
        holds: |m| {
            need(m, 100)?;
            above(&speedups(m), 2.0)
        },
    },
    Row {
        name: "table4",
        section: "§6.2, Table 4",
        sizes: PAPER_SWEEP,
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::table4_point),
        profile: None,
        paper: &[
            &[331.0, 1_124.0],
            &[2_639.0, 11_024.0],
            &[25_693.0, 110_024.0],
            &[256_289.0, 1_100_024.0],
            &[2_562_539.0, 11_000_024.0],
        ],
        title: "Table 4 — seg_plus_scan vs sequential baseline \
                (dynamic instructions, VLEN=1024, LMUL=1)",
        headers: "N | seg_plus_scan | baseline | speedup | paper seg | paper base | paper speedup",
        body: pair_body,
        notes: "",
        claim: "seg_plus_scan beats the baseline by more than 3x at every N.",
        holds: |m| {
            need(m, 100)?;
            above(&speedups(m), 3.0)
        },
    },
    Row {
        name: "table5",
        section: "§6.3, Table 5",
        sizes: PAPER_SWEEP,
        source: None,
        jobs: |s| {
            let configs = lmuls(SpillProfile::llvm14());
            grid(s, &configs, |e, n| experiments::table5_point(e, n).map(two))
        },
        profile: None,
        // The published LMUL=2 column is an erratum (see the notes).
        paper: &[
            &[331.0, 1_124.0, 145.0, 2_090.0],
            &[2_639.0, 11_024.0, 887.0, 2_668.0],
            &[25_693.0, 110_024.0, 8_377.0, 9_284.0],
            &[256_289.0, 1_100_024.0, 82_907.0, 74_650.0],
            &[2_562_539.0, 11_000_024.0, 828_205.0, 728_586.0],
        ],
        title: "Table 5 — seg_plus_scan across LMUL (dynamic instructions, VLEN=1024)",
        headers: "N | m1 | m2 | m4 | m8 | paper m1 | paper m2* | paper m4 | paper m8",
        body: |m| {
            let rows = lmul_grid(m.sizes, m.points).into_iter().map(|(n, c)| {
                let p = paper_line(m, n);
                let mut row = counts_row(n, &c);
                row.extend([p[0].to_string(), format!("{}*", p[1])]);
                row.extend([p[2].to_string(), p[3].to_string()]);
                row
            });
            rows.collect()
        },
        notes: "(*) The paper's LMUL=2 column is an erratum: it reprints Table 4's\n\
                baseline column. Table 6's published ratios (~0.87) confirm the real\n\
                LMUL=2 counts are ≈ LMUL=1 / 1.74 — which is what we measure.",
        claim: "LMUL=8 is slower than LMUL=1 at N ≤ 10^3 (spill-frame overhead), faster\n\
                from 10^4 on, and the fastest setting from 10^5 on.",
        holds: |m| {
            need(m, 100)?;
            need(m, 10_000)?;
            for (n, c) in lmul_grid(m.sizes, m.points) {
                let (m1, m8) = (c[0], c[3]);
                if n <= 1_000 {
                    ensure(m8 > m1, format!("LMUL=8 beats LMUL=1 at N = {n}"))?;
                } else {
                    ensure(m8 < m1, format!("LMUL=8 loses to LMUL=1 at N = {n}"))?;
                }
                if n >= 100_000 {
                    let fastest = c.into_iter().min() == Some(m8);
                    ensure(fastest, format!("LMUL=8 is not the fastest at N = {n}"))?;
                }
            }
            Ok(())
        },
    },
    Row {
        name: "table6",
        section: "§6.3, Table 6",
        sizes: PAPER_SWEEP,
        source: Some("table5"),
        jobs: |_| Vec::new(),
        profile: None,
        paper: &[
            &[0.7290748899, 0.5706896552, 0.01979665072],
            &[0.8551523007, 0.7437993236, 0.1236413043],
            &[0.8695931767, 0.7667721141, 0.3459311719],
            &[0.8720338349, 0.772820751, 0.4291510382],
            &[0.872330539, 0.7735219541, 0.4396425062],
        ],
        title: "Table 6 — (speedup over LMUL=1)/LMUL for seg_plus_scan (VLEN=1024)",
        headers: "N | m2 | m4 | m8 | paper m2 | paper m4 | paper m8",
        body: |m| {
            let rows = lmul_grid(m.sizes, m.source).into_iter().map(|(n, c)| {
                let mut row = vec![n.to_string()];
                row.extend(lmul_ratios(c).map(fmt_ratio));
                row.extend(paper_line(m, n).iter().map(|&p| fmt_ratio(p)));
                row
            });
            rows.collect()
        },
        notes: "The realized fraction of the LMUL factor falls as register pressure\n\
                grows, and collapses at LMUL=8 for small N, where the spill frame\n\
                dominates.",
        claim: "At every N the realized fraction falls as LMUL grows; from 10^4 on, m2\n\
                and m4 land within 0.06 of the paper's 0.87 and 0.77.",
        holds: |m| {
            need(m, 10_000)?;
            for (n, c) in lmul_grid(m.sizes, m.source) {
                let r = lmul_ratios(c);
                let falling = r[0] > r[1] && r[1] > r[2];
                ensure(falling, format!("ratios {r:.4?} at N = {n}"))?;
                if n >= 10_000 {
                    let near = (r[0] - 0.87).abs() < 0.06 && (r[1] - 0.77).abs() < 0.06;
                    ensure(
                        near,
                        format!("m2/m4 read {:.4}/{:.4} at N = {n}", r[0], r[1]),
                    )?;
                }
            }
            Ok(())
        },
    },
    Row {
        name: "table7",
        section: "§6.4, Table 7",
        sizes: Sizes::Capped(10_000),
        source: None,
        jobs: |s| grid(s, &vlens(), |e, n| experiments::table7_point(e, n).map(two)),
        profile: None,
        paper: &[
            &[115_039.0, 22_534.0],
            &[72_539.0, 11_284.0],
            &[43_789.0, 5_659.0],
            &[25_693.0, 2_851.0],
        ],
        title: "Table 7 — instruction count over VLEN (N = {n}, LMUL=1)",
        headers: "vlen | seg_plus_scan | p_add | paper seg | paper p_add",
        body: |m| {
            let rows = m.points.iter().zip(VLENS).zip(m.row.paper);
            rows.map(|((p, vlen), paper)| {
                let mut row = counts_row(vlen, p);
                row.extend(paper.iter().map(f64::to_string));
                row
            })
            .collect()
        },
        notes: "",
        claim: "Both kernels' counts fall at every doubling of VLEN.",
        holds: |m| {
            need(m, 10_000)?;
            for (w, vlen) in m.points.windows(2).zip(&VLENS[1..]) {
                let fall = w[1][0] < w[0][0] && w[1][1] < w[0][1];
                ensure(fall, format!("a count does not fall at vlen = {vlen}"))?;
            }
            Ok(())
        },
    },
    Row {
        name: "figure5",
        section: "§6.4, Figure 5",
        sizes: Sizes::Capped(10_000),
        source: Some("table7"),
        jobs: |_| Vec::new(),
        profile: None,
        // Derived from the paper's Table 7 counts.
        paper: &[
            &[1.0, 1.0],
            &[1.586, 1.997],
            &[2.627, 3.982],
            &[4.477, 7.904],
        ],
        title: "Figure 5 — speedup vs vlen=128 (N = {n}, LMUL=1)",
        headers: "vlen | seg scan | p_add | ideal | paper seg | paper p_add",
        body: |m| {
            let base = &m.source[0];
            let rows = m.source.iter().zip(VLENS).zip(m.row.paper);
            rows.map(|((p, vlen), paper)| {
                vec![
                    vlen.to_string(),
                    fmt_ratio(base[0] as f64 / p[0] as f64),
                    fmt_ratio(base[1] as f64 / p[1] as f64),
                    fmt_ratio(vlen as f64 / 128.0),
                    fmt_ratio(paper[0]),
                    fmt_ratio(paper[1]),
                ]
            })
            .collect()
        },
        notes: "The in-register ladder costs lg(vl) rounds per strip, so bigger strips\n\
                do proportionally more work.",
        claim: "p_add tracks the ideal vlen/128 line (above 6x at vlen=1024); the\n\
                segmented scan falls short of p_add but stays above 2x.",
        holds: |m| {
            need(m, 10_000)?;
            let (base, top) = (&m.source[0], &m.source[3]);
            let seg = base[0] as f64 / top[0] as f64;
            let padd = base[1] as f64 / top[1] as f64;
            ensure(padd > 6.0, format!("p_add reaches only {padd:.3}x"))?;
            ensure(
                seg < padd && seg > 2.0,
                format!("the scan reaches {seg:.3}x"),
            )
        },
    },
    Row {
        name: "ablation_spill",
        section: "§6.3, ablation",
        sizes: PAPER_SWEEP,
        source: Some("table5"),
        jobs: |s| {
            let configs = lmuls(SpillProfile::ideal());
            grid(s, &configs, |e, n| experiments::table5_point(e, n).map(two))
        },
        profile: Some(Profile {
            point: experiments::seg_scan_profile_point,
            spill: |p| {
                let s = p.spill();
                format!(
                    "{} vector spill ops ({} bytes)",
                    s.vector_ops(),
                    s.vector_bytes
                )
            },
        }),
        paper: &[],
        title: "Ablation — spill cost profile for seg_plus_scan at LMUL=8 (VLEN=1024)",
        headers: "N | m1 | m8 (llvm14) | m8 (ideal) | m8 speedup (llvm14) | m8 speedup (ideal)",
        body: |m| {
            let llvm14 = lmul_grid(m.sizes, m.source);
            let rows = llvm14.into_iter().zip(lmul_grid(m.sizes, m.points));
            rows.map(|((n, c), (_, i))| {
                let mut row = counts_row(n, &[c[0], c[3], i[3]]);
                row.extend([fmt_speedup(c[0], c[3]), fmt_speedup(i[0], i[3])]);
                row
            })
            .collect()
        },
        notes: "The small-N anomaly needs the conservative frame: with an ideal compiler\n\
                the spill traffic alone is amortizable and LMUL=8 wins much earlier.",
        claim: "Under llvm14, LMUL=8 loses to LMUL=1 at N = 10^2; under the ideal profile\n\
                it wins at every N; and llvm14's m8 count exceeds the ideal one by the\n\
                same fixed frame cost at every N.",
        holds: |m| {
            need(m, 100)?;
            let llvm14 = lmul_grid(m.sizes, m.source);
            let ideal = lmul_grid(m.sizes, m.points);
            let [m1, .., m8] = llvm14[0].1;
            ensure(m8 > m1, "under llvm14 LMUL=8 wins at N = 100".into())?;
            let frame = |c: [u64; 4], i: [u64; 4]| c[3] as i64 - i[3] as i64;
            let first = frame(llvm14[0].1, ideal[0].1);
            for ((n, c), (_, i)) in llvm14.into_iter().zip(ideal) {
                ensure(i[3] < i[0], format!("under ideal LMUL=8 loses at N = {n}"))?;
                let cost = frame(c, i);
                ensure(
                    cost == first,
                    format!("the frame costs {cost} at N = {n}, {first} at 100"),
                )?;
            }
            Ok(())
        },
    },
    Row {
        name: "ablation_enumerate",
        section: "§4.4, ablation",
        sizes: PAPER_SWEEP,
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::enumerate_point),
        profile: None,
        paper: &[],
        title: "Ablation — enumerate via viota (paper §4.4) vs generic exclusive scan",
        headers: "N | viota | generic scan | viota advantage",
        body: speedup_body,
        notes: "",
        claim: "enumerate via viota retires fewer instructions than via the generic\n\
                exclusive scan at every N.",
        holds: |m| {
            need(m, 100)?;
            above(&speedups(m), 1.0)
        },
    },
    Row {
        name: "ablation_scan_lmul",
        section: "abstract, ablation",
        sizes: Sizes::Capped(1_000_000),
        source: None,
        jobs: |s| {
            let configs = lmuls(SpillProfile::llvm14());
            grid(s, &configs, |e, n| {
                experiments::scan_lmul_point(e, n).map(two)
            })
        },
        profile: Some(Profile {
            point: experiments::scan_profile_point,
            spill: |p| format!("{} spill ops", p.spill().total_ops()),
        }),
        paper: &[],
        title: "Unsegmented plus-scan across LMUL (N = {n}, VLEN=1024)",
        headers: "LMUL | plus_scan | baseline | speedup",
        body: |m| {
            let rows = m.points.iter().zip(Lmul::ALL);
            rows.map(|(p, lmul)| {
                let mut row = counts_row(format!("m{}", lmul.regs()), p);
                row.push(format!("{:.2}", p[1] as f64 / p[0] as f64));
                row
            })
            .collect()
        },
        notes: "No spilling at any LMUL (3 live values ≤ 3 groups at m8): the speedup\n\
                scales with the group size, unlike the segmented scan of Table 5.",
        claim: "From N = 10^4 on, the count falls at every LMUL step and LMUL=8 lifts the\n\
                speedup past 15x.",
        holds: |m| {
            at_least(m, 10_000)?;
            for (w, lmul) in m.points.windows(2).zip(&Lmul::ALL[1..]) {
                ensure(w[1][0] < w[0][0], format!("the count rises at {lmul:?}"))?;
            }
            let m8 = m.points[3][1] as f64 / m.points[3][0] as f64;
            ensure(m8 > 15.0, format!("LMUL=8 reaches only {m8:.2}x"))
        },
    },
    Row {
        name: "ablation_segdesc",
        section: "§5, ablation",
        sizes: PAPER_SWEEP,
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::segdesc_point),
        profile: None,
        paper: &[],
        title: "Ablation — segment descriptor: head-flags vs lengths vs head-pointers",
        headers: "N | head-flags | lengths | head-pointers | lengths/flags | ptrs/flags",
        body: |m| {
            let rows = m.sizes.iter().zip(m.points);
            rows.map(|(n, p)| {
                let mut row = counts_row(n, p);
                row.extend([fmt_speedup(p[1], p[0]), fmt_speedup(p[2], p[0])]);
                row
            })
            .collect()
        },
        notes: "Head-flags need no interpretation (the paper's choice). The sparse\n\
                descriptors cost one extra conversion pass; with segments averaging ~50\n\
                elements the overhead is small.",
        claim: "Neither sparse descriptor is cheaper than head-flags, and head-pointers\n\
                never cost more than lengths.",
        holds: |m| {
            need(m, 100)?;
            for (n, p) in m.sizes.iter().zip(m.points) {
                let (flags, lengths, pointers) = (p[0], p[1], p[2]);
                let ordered = flags <= pointers && pointers <= lengths;
                ensure(ordered, format!("{flags}/{pointers}/{lengths} at N = {n}"))?;
            }
            Ok(())
        },
    },
    Row {
        name: "ablation_vla_vls",
        section: "§3.1, ablation",
        // VLMAX is 32 at VLEN=1024/e32; 13 is the paper's own example
        // ("when it processes 13 elements...").
        sizes: Sizes::Upto(&[13, 31, 32, 100, 1_000, 10_000, 100_001], 100),
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::vla_vls_point),
        profile: None,
        paper: &[],
        title: "Ablation — VLA (vsetvli) vs VLS (fixed width + remainder loop), p_add",
        headers: "N | VLA dyn | VLS dyn | VLS overhead | VLA code (instrs) | VLS code (instrs)",
        body: |m| {
            let rows = m.sizes.iter().zip(m.points);
            rows.map(|(n, p)| {
                let mut row = counts_row(n, p);
                let overhead = (p[1] as f64 / p[0] as f64 - 1.0) * 100.0;
                row.insert(3, format!("{overhead:+.1}%"));
                row
            })
            .collect()
        },
        notes: "The remainder loop costs ~6 scalar instructions per leftover element —\n\
                ruinous for short or ragged vectors (n < VLMAX runs fully scalar: the\n\
                paper's 13-element example). On huge exact-multiple inputs VLS edges\n\
                ahead by skipping the per-strip vsetvli, but the VLS kernel is 1.8x\n\
                larger (the remainder loop is dead weight on exact multiples) — the\n\
                paper's code-size point — and cannot retarget other vector lengths.",
        claim: "VLS retires more instructions than VLA at every N ≤ 10^2, and its kernel\n\
                is larger.",
        holds: |m| {
            need(m, 13)?;
            for (&n, p) in m.sizes.iter().zip(m.points) {
                let (vla, vls) = (p[0], p[1]);
                ensure(
                    n > 100 || vls > vla,
                    format!("VLS retires {vls} vs {vla} at N = {n}"),
                )?;
                ensure(p[3] > p[2], "the VLS kernel is not larger".into())?;
            }
            Ok(())
        },
    },
    Row {
        name: "ablation_sorts",
        section: "§4.4, ablation",
        // Bitonic is O(n·lg²n) primitive launches; the sweep stops at 10⁵.
        sizes: Sizes::Upto(&[100, 1_000, 10_000, 100_000], 0),
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::sorts_point),
        profile: None,
        paper: &[],
        title: "Ablation — split radix sort vs bitonic network (dynamic instructions)",
        headers: "N | radix (32 passes) | bitonic | bitonic/radix",
        body: speedup_body,
        notes: "Radix does 32 passes regardless of N; bitonic pays lg²(N) stages. For\n\
                32-bit keys that is why §4.4 builds split radix sort rather than a\n\
                merging network.",
        claim: "The radix sort beats the bitonic network at every N, by a margin that\n\
                grows with N.",
        holds: |m| {
            need(m, 100)?;
            need(m, 1_000)?;
            let s = speedups(m);
            above(&s, 1.0)?;
            rising(&s)
        },
    },
    Row {
        name: "primitives_table",
        section: "§6.2, supplementary",
        sizes: Sizes::Capped(100_000),
        source: None,
        jobs: |s| grid(s, &paper_config(), experiments::primitives_point),
        profile: None,
        paper: &[],
        title: "Supplementary — primitive costs (N = {n}, VLEN=1024, LMUL=1)",
        headers: "primitive | vectorized | baseline | speedup",
        body: |m| {
            let names = ["p_add", "p_select", "enumerate", "permute"];
            speedup_rows(names.map(String::from), m.points[0].chunks(2))
        },
        notes: "",
        claim: "Every primitive's vectorized form retires fewer instructions than its\n\
                scalar baseline.",
        holds: |m| {
            at_least(m, 100)?;
            for p in m.points[0].chunks(2) {
                ensure(
                    p[0] < p[1],
                    format!("{} vectorized vs {} scalar", p[0], p[1]),
                )?;
            }
            Ok(())
        },
    },
    Row {
        name: "sweep_density",
        section: "§6.2, supplementary",
        sizes: Sizes::Capped(100_000),
        source: None,
        jobs: |s| {
            let n = s[0];
            let jobs = DENSITIES.map(|per_mille| {
                BatchJob::new(
                    format!("{per_mille}/n={n}"),
                    EnvConfig::paper_default(),
                    move |e: &mut ScanEnv| {
                        experiments::density_point(e, n, per_mille).map(Vec::from)
                    },
                )
                .weight(n as u64)
            });
            jobs.into()
        },
        profile: None,
        paper: &[],
        title: "Supplementary — seg_plus_scan vs head density (N = {n}, VLEN=1024)",
        headers: "head density | vectorized | baseline | speedup",
        body: |m| {
            let labels = DENSITIES.map(|per_mille| format!("{:.1}%", per_mille as f64 / 10.0));
            speedup_rows(labels, m.points.iter().map(Vec::as_slice))
        },
        notes: "The vector kernel runs the same ladder regardless of where heads fall;\n\
                only the baseline's reset branch sees the density. The paper's choice of\n\
                segment distribution therefore cannot change its Table 4 conclusions.",
        claim: "The vectorized cost stays within 5% across head densities, while the\n\
                baseline's grows from the sparsest to the densest.",
        holds: |m| {
            at_least(m, 100)?;
            let vector = m.points.iter().map(|p| p[0]);
            let (lo, hi) = (vector.clone().min(), vector.max());
            let (lo, hi) = (lo.expect("six densities"), hi.expect("six densities"));
            ensure(
                hi - lo <= lo / 20,
                format!("the vector cost ranges {lo}..={hi}"),
            )?;
            let (sparse, dense) = (m.points[0][1], m.points[DENSITIES.len() - 1][1]);
            ensure(
                dense > sparse,
                format!("the baseline goes {sparse} -> {dense}"),
            )
        },
    },
    Row {
        name: "profile_classes",
        section: "§6.3, supplementary",
        sizes: Sizes::Capped(100_000),
        source: None,
        jobs: |s| {
            let configs = lmuls(SpillProfile::llvm14());
            grid(s, &configs, experiments::class_mix_point)
        },
        profile: None,
        paper: &[],
        title: "seg_plus_scan instruction-class mix (N = {n}, VLEN=1024)",
        headers: "LMUL | total | v-alu | v-perm | v-mask | v-mem | v-cfg | s-alu | s-mem | s-ctrl",
        body: |m| {
            let rows = m.points.iter().zip(Lmul::ALL);
            rows.map(|(p, lmul)| {
                let mut row = counts_row(format!("m{}", lmul.regs()), &p[..1]);
                row.extend(CLASSES.map(|c| format!("{:.1}%", class_percent(p, c))));
                row
            })
            .collect()
        },
        notes: "At m8 the whole-register spill reloads and stores land in vector-mem and\n\
                the frame initialization in scalar-mem: the paper's \"more register\n\
                spilling\" observation, made visible by the class histogram.",
        claim: "From N = 10^4 on, scalar memory traffic appears only at LMUL=8, where\n\
                vector memory takes a larger share of the mix than at any smaller LMUL.",
        holds: |m| {
            at_least(m, 10_000)?;
            let m8 = &m.points[3];
            let smem = |p: &Point| class_percent(p, InstrClass::ScalarMem);
            let vmem = |p: &Point| class_percent(p, InstrClass::VectorMem);
            ensure(smem(m8) > 0.0, "no scalar memory traffic at LMUL=8".into())?;
            for (p, lmul) in m.points.iter().zip(Lmul::ALL).take(3) {
                let (s, v) = (smem(p), vmem(p));
                let ok = s == 0.0 && v < vmem(m8);
                ensure(ok, format!("{lmul:?} has s-mem {s:.1}% and v-mem {v:.1}%"))?;
            }
            Ok(())
        },
    },
    Row {
        name: "ablation_cost",
        section: "§6.3, ablation",
        // The segmented scan's pick first differs between the metrics at
        // 10⁵, so the row measures that size whatever `--max-n` says.
        sizes: Sizes::Upto(&PAPER_SIZES, 100_000),
        source: None,
        jobs: costed_lmul_jobs,
        profile: None,
        paper: &[],
        title: "Ablation — best LMUL by dynamic count vs by modeled cycles \
                (ara-like, VLEN=1024)",
        headers: "kernel | N | metric | m1 | m2 | m4 | m8 | best",
        body: |m| {
            let mut rows = Vec::new();
            for (kernel, n, counts, cycles) in cost_grid(m) {
                for (metric, values) in [("count", counts), ("cycles", cycles)] {
                    let mut row = vec![kernel.to_string(), n.to_string()];
                    row.extend(counts_row(metric, &values));
                    row.push(format!("m{}", best_lmul(values).regs()));
                    rows.push(row);
                }
            }
            rows
        },
        notes: "The paper picks LMUL by dynamic count, which charges every instruction\n\
                alike. The ara-like model (after Ara2) charges LMUL-proportional vector\n\
                occupancy, memory-port contention and a per-op spill penalty, so the\n\
                segmented scan's m8 spill traffic costs far more in cycles than in\n\
                instructions. A tie goes to the smaller LMUL.",
        claim: "The unsegmented scan picks the same best LMUL by count and by cycles at\n\
                every N; the segmented scan's best LMUL moves from m8 (count) to m4\n\
                (cycles) from N = 10^5 on.",
        holds: |m| {
            need(m, 100_000)?;
            for (kernel, n, counts, cycles) in cost_grid(m) {
                let picks = [best_lmul(counts), best_lmul(cycles)];
                let ok = match kernel {
                    "scan" => picks[0] == picks[1],
                    _ => n < 100_000 || picks == [Lmul::M8, Lmul::M4],
                };
                ensure(
                    ok,
                    format!(
                        "{kernel} picks {:?} by count and {:?} by cycles at N = {n}",
                        picks[0], picks[1]
                    ),
                )?;
            }
            Ok(())
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use rvv_batch::Engine;
    use scanvec::ExecEngine;
    use std::sync::Arc;

    fn all() -> Vec<&'static Row> {
        MANIFEST.iter().collect()
    }

    fn runner(exec: ExecEngine) -> BatchRunner {
        let engine = Engine::builder().default_exec_engine(exec).build();
        BatchRunner::with_engine(2, Arc::new(engine))
    }

    fn measure(rows: &[&Row], max_n: usize, runner: &BatchRunner) -> Runs {
        let sweep = Sweep::new(rows, max_n);
        sweep.runs(&runner.run(sweep.jobs()).reports, runner)
    }

    #[test]
    fn every_claim_holds_at_the_golden_sizes() {
        let runs = measure(&all(), 10_000, &runner(ExecEngine::Plan));
        for row in MANIFEST {
            assert_eq!(check(row, &runs), Ok(()), "{}", row.name);
        }
    }

    #[test]
    fn every_tier_renders_the_same_rows() {
        let render_on = |exec| {
            let runs = measure(&all(), 1_000, &runner(exec));
            (render(&all(), &runs).0, profile_files(&all(), &runs))
        };
        let (plan, plan_files) = render_on(ExecEngine::Plan);
        for exec in [ExecEngine::Fused, ExecEngine::Legacy] {
            let (text, files) = render_on(exec);
            for (a, b) in plan.lines().zip(text.lines()) {
                assert_eq!(a, b, "{exec:?}");
            }
            assert_eq!(plan.len(), text.len(), "{exec:?}");
            assert!(files == plan_files, "{exec:?} profiles differ");
        }
    }

    #[test]
    fn sizes_cap_at_max_n() {
        assert_eq!(PAPER_SWEEP.at(1_000), [100, 1_000]);
        assert_eq!(Sizes::Upto(&[13, 100, 1_000], 100).at(50), [13, 100]);
        let cost = row("ablation_cost").expect("the cost row").sizes;
        assert_eq!(cost.at(1_000), [100, 1_000, 10_000, 100_000]);
        assert_eq!(cost.at(1_000_000), PAPER_SIZES);
        assert_eq!(Sizes::Capped(10_000).at(500), [500]);
        assert_eq!(Sizes::Capped(10_000).at(1_000_000), [10_000]);
    }
}
