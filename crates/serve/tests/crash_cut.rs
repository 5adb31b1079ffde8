//! The crash harness against the commit stage, in a child process:
//! `rvv-serve --crash-after N` must die with exactly N done records
//! durable however many workers fed the committer, because the committer
//! cuts its batch at record N.

use rvv_ckpt::queue::QueueJournal;
use rvv_serve::http::request;
use rvv_serve::JOURNAL_TAG;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_rvv-serve");
const CRASH_AFTER: usize = 5;
const JOBS: usize = 40;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "rvv-serve-crash-cut-{tag}-{}-{:p}",
        std::process::id(),
        &tag as *const _
    ));
    fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn crash_after_n_leaves_exactly_n_completed_jobs_at_every_thread_count() {
    let body: String = (0..JOBS)
        .map(|i| format!("plus_scan n={} vlen=256 seed={i}\n", 64 + i * 7))
        .collect();
    for threads in ["1", "2", "4"] {
        let dir = tmpdir(threads);
        let crash_after = CRASH_AFTER.to_string();
        let mut child = Command::new(SERVE)
            .current_dir(&dir)
            .args(["--addr", "127.0.0.1:0", "--journal", "q.journal"])
            .args(["--crash-after", &crash_after, "--threads", threads])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rvv-serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("listening line");
        let addr = banner
            .trim()
            .strip_prefix("rvv-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        let (status, reply) = request(&addr, "POST", "/sweeps", &body).unwrap();
        assert_eq!(status, 202, "{reply}");
        // A batch that ran past record N would never meet the abort: the
        // server would idle with every job done.
        let deadline = Instant::now() + Duration::from_secs(60);
        let exit = loop {
            if let Some(exit) = child.try_wait().expect("poll rvv-serve") {
                break exit;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("rvv-serve never aborted (threads={threads})");
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let _ = stdout.read_to_string(&mut String::new());
        assert!(
            !exit.success(),
            "the crash run must die (threads={threads})"
        );

        let (_, recovery) = QueueJournal::resume(&dir.join("q.journal"), JOURNAL_TAG, 1).unwrap();
        assert!(recovery.salvage.is_empty(), "threads={threads}");
        assert_eq!(
            recovery.completed.len(),
            CRASH_AFTER,
            "done records durable at the abort (threads={threads})"
        );
        assert_eq!(recovery.pending.len(), JOBS - CRASH_AFTER);
        fs::remove_dir_all(&dir).unwrap();
    }
}
