//! Kill-based recovery tests against the real `repro` binary: a
//! journaled sweep interrupted by a deterministic abort — or by an actual
//! `SIGKILL` delivered mid-sweep — and then resumed must reproduce the
//! uninterrupted run's deterministic outputs byte for byte.
//!
//! These are child-process tests (`CARGO_BIN_EXE_repro`): the
//! in-process truncation/resume coverage lives in `rvv-batch`'s
//! `journaled` suite; what only a separate process can prove is that the
//! on-disk journal a *dead* process leaves behind is resumable.

use rvv_ckpt::parse_journal;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "rvv-crash-recovery-{tag}-{}-{:p}",
        std::process::id(),
        &tag as *const _
    ));
    fs::create_dir_all(&d).unwrap();
    d
}

/// `repro <args>` in `dir` (the binary writes relative `results/` paths,
/// so the working directory isolates the run); returns the exit code and
/// stderr.
fn run(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(REPRO)
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::null())
        .output()
        .expect("spawn repro");
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

/// `repro --max-n 1000 --journal <extra>` in `dir`.
fn repro(dir: &Path, extra: &[&str]) -> std::process::ExitStatus {
    Command::new(REPRO)
        .current_dir(dir)
        .args(["--max-n", "1000", "--journal"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn repro")
}

fn sweep_json(dir: &Path) -> Vec<u8> {
    fs::read(dir.join("results/parallel_sweep.json")).expect("parallel_sweep.json")
}

/// The `jobs` count of a `parallel_sweep.json`.
fn sweep_jobs(json: &[u8]) -> usize {
    let text = std::str::from_utf8(json).unwrap();
    let (_, rest) = text.split_once("\"jobs\": ").expect("a jobs field");
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

/// Data records in the journal at `path` (0 while it has no header).
fn journal_records(path: &Path) -> usize {
    let bytes = fs::read(path).unwrap_or_default();
    parse_journal(&bytes, "repro.journal").map_or(0, |j| j.records.len())
}

#[test]
fn crash_at_every_stage_then_resume_matches_the_uninterrupted_run() {
    for threads in ["1", "4"] {
        let dir = tmpdir("crash-at");
        // Uninterrupted reference.
        assert!(repro(&dir, &["--threads", threads]).success());
        let golden = sweep_json(&dir);
        fs::remove_dir_all(dir.join("results")).unwrap();

        // Crash after 5 journaled points (SIGABRT — same on-disk state as
        // kill -9), crash *again* on the resume, then finish: the journal
        // must survive repeated interruption.
        let st = repro(&dir, &["--threads", threads, "--crash-at", "5"]);
        assert!(!st.success(), "crash run must die");
        let st = repro(&dir, &["--threads", threads, "--resume", "--crash-at", "5"]);
        assert!(!st.success(), "second crash run must die");
        assert!(repro(&dir, &["--threads", threads, "--resume"]).success());

        assert_eq!(
            sweep_json(&dir),
            golden,
            "resumed run diverged at --threads {threads}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn derived_crash_points_behave_like_explicit_ones() {
    let dir = tmpdir("crash-seed");
    assert!(repro(&dir, &["--threads", "2"]).success());
    let golden = sweep_json(&dir);
    fs::remove_dir_all(dir.join("results")).unwrap();

    // `--crash-seed` derives the abort ordinal (1..=jobs) from the seed,
    // the host-level analogue of the chaos suite's derived fault plans.
    let st = repro(&dir, &["--threads", "2", "--crash-seed", "0xc4a5"]);
    assert!(!st.success(), "derived crash must die");
    assert!(repro(&dir, &["--threads", "2", "--resume"]).success());
    assert_eq!(sweep_json(&dir), golden);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigkill_mid_sweep_resumes_to_the_uninterrupted_outputs() {
    let dir = tmpdir("sigkill");
    assert!(repro(&dir, &["--threads", "4"]).success());
    let golden = sweep_json(&dir);
    let jobs = sweep_jobs(&golden);
    fs::remove_dir_all(dir.join("results")).unwrap();

    // Race a real kill against the sweep: spawn, wait until the journal
    // holds at least one done record (the whole sweep is submitted up
    // front, one record per job, so any record past `jobs` is a done
    // record), then SIGKILL (`Child::kill` on unix). The resume then
    // replays at least one point. The child may win the race and exit
    // cleanly — that's fine, resume over a complete journal is also a
    // supported path, and it replays every point.
    let mut child = Command::new(REPRO)
        .current_dir(&dir)
        .args(["--max-n", "1000", "--journal", "--threads", "4"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
    let journal = dir.join("results/repro.journal");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            break; // child finished before the kill landed
        }
        if journal_records(&journal) > jobs {
            child.kill().expect("SIGKILL");
            break;
        }
        assert!(Instant::now() < deadline, "no done record was journaled");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.wait().expect("reap child");

    assert!(repro(&dir, &["--threads", "4", "--resume"]).success());
    assert_eq!(sweep_json(&dir), golden, "post-SIGKILL resume diverged");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_plain_run_and_a_journaled_run_write_the_same_digest_file() {
    let dir = tmpdir("plain");
    assert!(repro(&dir, &["--threads", "2"]).success());
    let journaled = sweep_json(&dir);
    fs::remove_dir_all(dir.join("results")).unwrap();

    // The plain run on 2 workers also runs the serial reference and
    // compares the two digests before it writes the file.
    assert_eq!(run(&dir, &["--max-n", "1000", "--threads", "2"]).0, Some(0));
    assert_eq!(sweep_json(&dir), journaled);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_refuses_a_journal_of_another_job_list() {
    let dir = tmpdir("other-list");
    assert!(repro(&dir, &[]).success());
    let golden = sweep_json(&dir);
    fs::remove_dir_all(dir.join("results")).unwrap();
    assert!(!repro(&dir, &["--crash-at", "5"]).success());

    // The queue tag digests every job's name, configuration and weight,
    // so other sizes or another row list name another job list.
    for other in [
        &["--max-n", "100"][..],
        &["--max-n", "1000", "table1", "table2"],
    ] {
        let args = [&["--journal", "--resume"][..], other].concat();
        let (code, stderr) = run(&dir, &args);
        assert_eq!(code, Some(1), "{other:?}: {stderr}");
        assert!(stderr.contains("belongs to"), "{other:?}: {stderr}");
    }
    // A refusal leaves the journal as it was: its own job list resumes it.
    assert!(repro(&dir, &["--resume"]).success());
    assert_eq!(sweep_json(&dir), golden);
    fs::remove_dir_all(&dir).unwrap();
}
