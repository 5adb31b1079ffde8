//! Malformed command lines exit 2 with a message, before any work, for
//! the `repro` and `run_all` binaries.

use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const RUN_ALL: &str = env!("CARGO_BIN_EXE_run_all");

/// Run `bin args` in a scratch directory (both binaries write relative
/// `results/` paths); returns the exit code, stdout and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let dir = std::env::temp_dir().join(format!("scanvec-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn");
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn bad_arguments_exit_2_with_a_message() {
    let cases = [
        ("repro --max-n abc", "--max-n takes an integer, got `abc`"),
        ("repro --max-n", "--max-n takes a value"),
        ("repro --threads 0", "--threads must be at least 1"),
        ("repro --threads -1", "--threads takes an integer"),
        ("repro --exec-engine turbo", "unknown --exec-engine `turbo`"),
        ("repro --bogus-flag", "unknown argument `--bogus-flag`"),
        ("repro table1 table9", "unknown row `table9`"),
        ("run_all --threads 0", "--threads must be at least 1"),
        ("run_all --max-n 1e4", "--max-n takes an integer"),
        (
            "run_all --journal --crash-at x",
            "--crash-at takes an integer",
        ),
        (
            "run_all --inject-seed 0xzz",
            "--inject-seed takes an integer",
        ),
        ("run_all --cost-preset warp", "unknown --cost-preset `warp`"),
        (
            "run_all --max-n 100 --thread 4",
            "unknown argument `--thread`",
        ),
        ("run_all --max-n 100 table1", "unknown argument `table1`"),
        ("run_all --crash-at 3", "--crash-at needs --journal"),
        ("run_all --crash-seed 7", "--crash-seed needs --journal"),
        ("run_all --fsync-every 4", "--fsync-every needs --journal"),
        ("run_all --resume", "--resume needs --journal"),
        (
            "run_all --journal --fsync-every 4294967296",
            "--fsync-every must be at most 4294967295",
        ),
    ];
    for (command, message) in cases {
        let mut words = command.split(' ');
        let bin = if words.next() == Some("repro") {
            REPRO
        } else {
            RUN_ALL
        };
        let args: Vec<&str> = words.collect();
        let (code, stdout, stderr) = run(bin, &args);
        assert_eq!(code, Some(2), "{command}: {stderr}");
        assert!(stderr.contains(message), "{command}: {stderr}");
        assert!(stdout.is_empty(), "{command} did work: {stdout}");
    }
}

#[test]
fn repro_lists_the_rows_on_a_usage_error_and_runs_a_named_one() {
    let (_, _, stderr) = run(REPRO, &["--bogus-flag"]);
    for row in ["table1", "figure5", "ablation_spill", "profile_classes"] {
        assert!(stderr.contains(row), "{stderr}");
    }
    let (code, stdout, _) = run(REPRO, &["table2", "--max-n", "1000"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("=== table2 ===\n"), "{stdout}");
    assert!(stdout.contains("Verdict: holds"), "{stdout}");
    assert_eq!(stdout.matches("===").count(), 2, "one section only");
}
