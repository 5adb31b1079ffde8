//! Shared infrastructure for the experiment harness.
//!
//! Each table and figure of the paper's evaluation (§6) has a binary in
//! `src/bin/` that regenerates it on the simulated machine and prints the
//! measured rows next to the paper's published numbers. The workloads,
//! environment construction, and table formatting live here so every
//! experiment is driven identically.
//!
//! Run e.g. `cargo run --release -p scanvec-bench --bin table4`.
//! Every binary accepts `--max-n <N>` to cap the sweep (the full 10⁶ rows
//! simulate a few hundred million instructions and take a few seconds
//! each).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod sweep;

use rand::prelude::*;
use rvv_asm::SpillProfile;
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

/// Deterministic random values bounded below `limit`.
pub fn random_bounded(n: usize, limit: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0..limit)).collect()
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
        spill_profile: SpillProfile::llvm14(),
        mem_bytes: 192 << 20,
    })
}

/// Environment with an explicit spill profile (for the ablations).
pub fn env_with_profile(vlen: u32, lmul: Lmul, profile: SpillProfile) -> ScanEnv {
    ScanEnv::new(EnvConfig {
        vlen,
        lmul,
        spill_profile: profile,
        mem_bytes: 192 << 20,
    })
}

/// Parse `--max-n <N>` from the command line; defaults to 10⁶ (the full
/// paper sweep).
pub fn max_n_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--max-n" {
            return w[1].parse().expect("--max-n takes an integer");
        }
    }
    1_000_000
}

/// Parse `--threads <N>` from the command line; defaults to 1 (serial).
/// Every ported binary runs its jobs through `rvv-batch` at this worker
/// count; the engine guarantees the output is identical at any value.
pub fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--threads" {
            let t: usize = w[1].parse().expect("--threads takes an integer");
            assert!(t >= 1, "--threads must be at least 1");
            return t;
        }
    }
    1
}

/// Parse `--cost-preset <name>` from the command line: the cycle-model
/// preset (`unit`, `ara-like`, `vitruvius-like`) to attach to the sweep's
/// jobs. `None` when absent — cost modeling is strictly opt-in, so the
/// default run stays count-only and byte-identical to earlier releases.
pub fn cost_preset_arg() -> Option<rvv_cost::CostModel> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--cost-preset" {
            // Usage errors exit 2 (the usage-error convention) instead of
            // panicking: a typo'd preset is the operator's mistake, not a
            // harness bug, and scripts key on the exit code.
            return Some(rvv_cost::CostModel::preset(&w[1]).unwrap_or_else(|| {
                eprintln!(
                    "unknown --cost-preset `{}` (expected one of: {})",
                    w[1],
                    rvv_cost::CostModel::PRESETS.join(", ")
                );
                std::process::exit(2)
            }));
        }
    }
    None
}

/// Is the bare flag `name` (e.g. `--keep-going`) present on the command
/// line?
pub fn flag_arg(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parse `--exec-engine <plan|legacy|fused>`; `None` when the option is
/// absent (the engine default, `plan`, applies).
pub fn exec_engine_arg() -> Option<scanvec::ExecEngine> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--exec-engine" {
            // Case-insensitive (`ExecEngine::parse` lowercases); unknown
            // names exit 2 listing the valid set, like `--cost-preset`.
            return Some(scanvec::ExecEngine::parse(&w[1]).unwrap_or_else(|| {
                let valid: Vec<String> = scanvec::ExecEngine::ALL
                    .iter()
                    .map(|e| format!("{e:?}").to_ascii_lowercase())
                    .collect();
                eprintln!(
                    "unknown --exec-engine `{}` (expected one of: {})",
                    w[1],
                    valid.join(", ")
                );
                std::process::exit(2)
            }));
        }
    }
    None
}

/// Parse `name <N>` (decimal or `0x…` hex) from the command line; `None`
/// when the option is absent.
pub fn num_arg(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == name {
            let t = &w[1];
            let parsed = if let Some(hex) = t.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                t.parse()
            };
            return Some(parsed.unwrap_or_else(|_| panic!("{name} takes an integer")));
        }
    }
    None
}

/// The paper's sizes, capped by `--max-n`.
pub fn sweep_sizes() -> Vec<usize> {
    let cap = max_n_arg();
    PAPER_SIZES.iter().copied().filter(|&n| n <= cap).collect()
}

/// Render a table: header row plus aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:>width$} |", c, width = widths[i]));
        }
        s
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&headers));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    println!("{sep}");
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a speedup to the paper's style.
pub fn fmt_speedup(baseline: u64, ours: u64) -> String {
    format!("{:.3}", baseline as f64 / ours as f64)
}

/// Format a ratio.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.4}")
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

    #[test]
    fn bounded_workload_respects_limit() {
        assert!(random_bounded(500, 64, 9).iter().all(|&x| x < 64));
    }

    #[test]
    fn sweep_caps() {
        // No --max-n in the test harness: full sweep.
        assert_eq!(sweep_sizes(), PAPER_SIZES.to_vec());
    }
}
