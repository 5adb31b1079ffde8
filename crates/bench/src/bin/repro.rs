//! Print the paper's tables, figure and ablations from the reproduction
//! manifest (`scanvec_bench::manifest`): every row, or the rows named on
//! the command line, each ending with its shape claim and verdict.
//! `results/full_run.txt` is this binary's output with no row names. The
//! two rows with traced profiles also write them to
//! `results/<row>_m{1,8}.{json,txt}`.
//!
//! `--max-n <N>` caps the sizes, `--threads <T>` runs the jobs on T
//! workers, and `--exec-engine <plan|legacy|fused>` picks the run-loop
//! tier; the output is byte-identical at any thread count and on any tier.
//! Exits 1 after printing if a claim fails, and 2 on a usage error.

use rvv_batch::{BatchRunner, Engine};
use scanvec_bench::manifest::{self, MANIFEST};
use scanvec_bench::{exec_engine_arg, max_n_arg, positional_args, threads_arg, usage_error};
use std::sync::Arc;

fn main() {
    let mut usage = String::from(
        "usage: repro [--max-n N] [--threads T] [--exec-engine plan|legacy|fused] [ROW...]\nrows:",
    );
    for row in MANIFEST {
        usage += &format!("\n  {:<20} {}", row.name, row.section);
    }
    let names = positional_args(&["--max-n", "--threads", "--exec-engine"], &[], &usage);
    if let Some(name) = names.iter().find(|n| manifest::row(n).is_none()) {
        usage_error(&format!("unknown row `{name}`\n{usage}"));
    }
    let rows: Vec<_> = MANIFEST
        .iter()
        .filter(|r| names.is_empty() || names.iter().any(|n| n == r.name))
        .collect();

    let mut engine = Engine::builder();
    if let Some(exec) = exec_engine_arg() {
        engine = engine.default_exec_engine(exec);
    }
    let runner = BatchRunner::with_engine(threads_arg(), Arc::new(engine.build()));
    let runs = manifest::measure(&rows, max_n_arg(), &runner);

    for (path, contents) in manifest::profile_files(&rows, &runs) {
        std::fs::create_dir_all("results").expect("results dir");
        rvv_ckpt::write_atomic(&path, contents).expect("write a profile");
    }
    let (text, failed) = manifest::render(&rows, &runs);
    print!("{text}");
    if !failed.is_empty() {
        eprintln!("claims failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}
