//! The repository benchmark: three workloads driven from outside the
//! program, every output checked, one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|serve|recover --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload with no
//! tracing. `--trace 1` is a separate run that times the calls into each
//! crate's public functions and prints every per-layer metric (`README.md`
//! says which end-to-end metric each should move). The last line of
//! standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod gen;
mod recover;
mod serve;
mod spans;
mod stats;
mod sweep;
mod sys;

use stats::Tally;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Errors that abort a run (as opposed to failed checks, which are
/// reported in the result).
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Metrics in report order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one workload (or layer pass) produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Failed correctness checks, one line each (empty = all held).
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a check; a false `ok` fails the run with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.tally.add(other.tally);
        self.errors.extend(other.errors);
        self.metrics.0.extend(other.metrics.0);
    }
}

/// Scratch space for journals, inside the checkout.
fn work_dir(workload: &str) -> PathBuf {
    Path::new(".bench_build")
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload sweep|serve|recover --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep", "serve", "recover"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace,
    })
}

/// A traced run prints every per-layer metric, so whatever `--workload`
/// says it times each layer on the workload that layer is measured on.
fn traced(seed: u64, seconds: u64, dir: &Path, tracer: &Arc<spans::Tracer>) -> Res<Outcome> {
    let mut out = sweep::layers(seed, tracer)?;
    out.absorb(serve::layers(seed, seconds, dir, tracer)?);
    out.absorb(recover::layers(seed, dir)?);
    Ok(out)
}

fn json_line(out: &Outcome, correct: bool) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in out.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.tally.attempted, out.tally.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The `recover` workload prepares its journal in a child process of
    // this binary, so the measured process holds only the restart.
    if argv.first().map(String::as_str) == Some(recover::PREPARE_FLAG) {
        return match recover::prepare_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: journal preparation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let stamp = sys::stamp(args.seed, &dir);
    let tracer = Arc::new(spans::Tracer::new());
    let result = if args.trace {
        traced(args.seed, args.seconds, &dir, &tracer)
    } else {
        match args.workload.as_str() {
            "sweep" => sweep::run(args.seed, args.seconds),
            "serve" => serve::run(args.seed, args.seconds, &dir),
            _ => recover::run(args.seed, args.seconds, &dir),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, _) in &out.metrics.0 {
        if !value.is_finite() {
            out.errors.push(format!("metric {name} is not finite"));
        }
    }
    out.metrics.0.retain(|(_, v, _)| v.is_finite());
    let correct = out.errors.is_empty() && out.tally.failed == 0;
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("env: {stamp}");
    println!(
        "workload={} seed={} trace={} attempted={} failed={} failed_frac={} (fraction)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.tally.attempted,
        out.tally.failed,
        out.tally.failed_frac()
    );
    for (name, value, unit) in &out.metrics.0 {
        println!("  {name} = {value} {unit}");
    }
    let line = json_line(&out, correct);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    sys::save(&stem, &stamp, &line, args.trace.then(|| tracer.to_jsonl()));
    println!("{line}");
    ExitCode::SUCCESS
}
