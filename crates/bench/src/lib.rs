//! Shared infrastructure for the experiment harness.
//!
//! Every table, figure and ablation of the paper's evaluation (§6) is one
//! row of the reproduction [`manifest`]. The `repro` binary measures the
//! rows on the simulated machine and prints them next to the paper's
//! published numbers; its output at full size is `results/full_run.txt`.
//! The workloads, environment construction, argument parsing and table
//! formatting live here so every experiment is driven identically.
//!
//! Run e.g. `cargo run --release -p scanvec-bench --bin repro -- table4`.
//! `--max-n <N>` caps the sweep (the full 10⁶ rows simulate a few hundred
//! million instructions).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod manifest;

use rand::prelude::*;
use rvv_isa::Lmul;
use scanvec::{EnvConfig, ScanEnv};

/// The paper's size sweep: 10² … 10⁶.
pub const PAPER_SIZES: [usize; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Deterministic random `u32` workload (full range, like the paper's
/// radix-sort inputs).
pub fn random_u32s(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

/// Head-flag workload for the segmented experiments: heads drawn with
/// density 1/50 (the paper does not publish its segment distribution; its
/// baseline counts imply segments long enough that the per-head reset cost
/// is negligible, which holds here).
pub fn random_head_flags(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e65);
    let mut flags = vec![0u32; n];
    if n == 0 {
        return flags;
    }
    flags[0] = 1;
    for f in flags.iter_mut().skip(1) {
        if rng.random_range(0..50u32) == 0 {
            *f = 1;
        }
    }
    flags
}

/// Environment at the paper's headline config (VLEN=1024, LMUL=1) with
/// enough device memory for the 10⁶-element experiments.
pub fn paper_env() -> ScanEnv {
    ScanEnv::new(EnvConfig::paper_default())
}

/// Environment with an explicit VLEN/LMUL (spill profile = calibrated
/// LLVM-14).
pub fn env_with(vlen: u32, lmul: Lmul) -> ScanEnv {
    ScanEnv::new(EnvConfig {
        vlen,
        lmul,
        ..EnvConfig::paper_default()
    })
}

/// Report a usage error on stderr and exit 2. A malformed command line
/// is the operator's mistake, not a harness bug, and scripts key on the
/// exit code.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The value after `name` on the command line; `None` when `name` is
/// absent. A `name` with nothing after it is a usage error.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != name);
    args.next()?;
    let value = args.next();
    Some(value.unwrap_or_else(|| usage_error(&format!("{name} takes a value"))))
}

/// The command line's positional arguments, after checking its flags:
/// each flag in `valued` takes the next argument as its value, each in
/// `bare` stands alone, and any other `--` argument is a usage error that
/// prints `usage`.
pub fn positional_args(valued: &[&str], bare: &[&str], usage: &str) -> Vec<String> {
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if valued.contains(&a.as_str()) {
            if args.next().is_none() {
                usage_error(&format!("{a} takes a value\n{usage}"));
            }
        } else if a.starts_with("--") {
            if !bare.contains(&a.as_str()) {
                usage_error(&format!("unknown argument `{a}`\n{usage}"));
            }
        } else {
            positional.push(a);
        }
    }
    positional
}

/// Check a command line that takes no positional arguments, as
/// [`positional_args`] does: a stray argument is a usage error too.
pub fn check_flags(valued: &[&str], bare: &[&str], usage: &str) {
    if let Some(stray) = positional_args(valued, bare, usage).first() {
        usage_error(&format!("unknown argument `{stray}`\n{usage}"));
    }
}

/// Parse `--max-n <N>` from the command line; defaults to 10⁶ (the full
/// paper sweep).
pub fn max_n_arg() -> usize {
    num_arg("--max-n").map_or(1_000_000, |n| usize::try_from(n).unwrap_or(usize::MAX))
}

/// Parse `--threads <N>` from the command line; defaults to 1 (serial).
/// Every binary runs its jobs through `rvv-batch` at this worker count;
/// the engine guarantees the output is identical at any value.
pub fn threads_arg() -> usize {
    match num_arg("--threads").map(usize::try_from) {
        None => 1,
        Some(Ok(0)) => usage_error("--threads must be at least 1"),
        Some(t) => t.unwrap_or_else(|_| usage_error("--threads is too large")),
    }
}

/// Is the bare flag `name` (e.g. `--journal`) present on the command
/// line?
pub fn flag_arg(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parse `--exec-engine <plan|legacy|fused>` (case-insensitive); `None`
/// when the option is absent (the engine default, `plan`, applies).
pub fn exec_engine_arg() -> Option<scanvec::ExecEngine> {
    arg_value("--exec-engine").map(|v| {
        scanvec::ExecEngine::parse(&v).unwrap_or_else(|| {
            let valid: Vec<&str> = scanvec::ExecEngine::ALL.iter().map(|e| e.name()).collect();
            usage_error(&format!(
                "unknown --exec-engine `{v}` (expected one of: {})",
                valid.join(", ")
            ))
        })
    })
}

/// Parse `name <N>` (decimal or `0x…` hex) from the command line; `None`
/// when the option is absent.
pub fn num_arg(name: &str) -> Option<u64> {
    arg_value(name).map(|v| {
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        parsed.unwrap_or_else(|_| usage_error(&format!("{name} takes an integer, got `{v}`")))
    })
}

/// Render a table: a `## title` line, then the header row and aligned
/// columns.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut widths = vec![0; headers.len()];
    for row in std::iter::once(&headers).chain(rows) {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = cell.len().max(*w);
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (cell, &width) in cells.iter().zip(&widths) {
            s.push_str(&format!(" {cell:>width$} |"));
        }
        s + "\n"
    };
    let mut out = format!("\n## {title}\n\n{}|", line(&headers));
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(random_u32s(100, 1), random_u32s(100, 1));
        assert_ne!(random_u32s(100, 1), random_u32s(100, 2));
        let f = random_head_flags(1000, 3);
        assert_eq!(f[0], 1);
        assert!(f.iter().all(|&x| x <= 1));
        assert!(f.iter().filter(|&&x| x == 1).count() > 5);
        assert!(random_head_flags(0, 1).is_empty());
    }
}
