//! Host facts: the environment stamp every result carries, peak resident
//! memory, and where results and spans are written.

use std::path::Path;
use std::process::Command;

/// Where each run's result, environment stamp and spans are kept.
const OUT_DIR: &str = ".bench_build/perfbench-out";

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir` (the longest mount point
/// that prefixes its canonical path, from `/proc/mounts`).
fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The environment stamp: enough to tell whether two results came from
/// comparable hosts and builds.
pub fn stamp(seed: u64, journal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    format!(
        "{{\"nproc\": {nproc}, \"journal_fs\": \"{}\", \"commit\": \"{commit}\", \"seed\": {seed}, \"rustc\": \"{}\"}}",
        fs_type(journal_dir),
        command_line("rustc", &["-V"]),
    )
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Keep the result line with its stamp, and the spans of a traced run.
pub fn save(stem: &str, stamp: &str, result: &str, spans: Option<String>) {
    let dir = Path::new(OUT_DIR);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{{\"env\": {stamp}, \"result\": {result}}}\n"),
    );
    if let Some(spans) = spans {
        let _ = std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans);
    }
}
