//! Malformed command lines exit 2 with a message, before any work, for
//! every bench binary.

use std::process::Command;

/// Run `bin args` in a scratch directory (the binaries write relative
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
        ("repro --max-n 1e4", "--max-n takes an integer"),
        (
            "repro --journal --crash-at x",
            "--crash-at takes an integer",
        ),
        ("repro --inject-seed 0xzz", "--inject-seed takes an integer"),
        (
            "repro --max-n 100 --thread 4",
            "unknown argument `--thread`",
        ),
        (
            "repro --journal --crash-at 0",
            "--crash-at must be at least 1",
        ),
        ("repro --crash-at 3", "--crash-at needs --journal"),
        ("repro --crash-seed 7", "--crash-seed needs --journal"),
        ("repro --resume", "--resume needs --journal"),
        ("repro --keep-going", "unknown argument `--keep-going`"),
        (
            "repro --cost-preset warp",
            "unknown argument `--cost-preset`",
        ),
        (
            "repro --cost-preset ara-like",
            "unknown argument `--cost-preset`",
        ),
        ("repro --fsync-every 4", "unknown argument `--fsync-every`"),
        (
            "repro --journal --fsync-every 4294967296",
            "unknown argument `--fsync-every`",
        ),
        ("serve_load --job 4", "unknown argument `--job`"),
        ("serve_load --addr", "--addr takes a value"),
        ("serve_load --jobs 4 stray", "unknown argument `stray`"),
        ("ablation_faults --thread 4", "unknown argument `--thread`"),
        (
            "ablation_faults --threads 0",
            "--threads must be at least 1",
        ),
        (
            "dump_kernels --vlen abc",
            "--vlen takes an integer, got `abc`",
        ),
        (
            "dump_kernels --lmul 3",
            "--lmul must be 1, 2, 4 or 8, got 3",
        ),
        ("dump_kernels --vlen 100", "vlen must be a power of two"),
        (
            "ablation_storage --bogus-flag",
            "unknown argument `--bogus-flag`",
        ),
        (
            "ablation_storage --inject-seed x",
            "--inject-seed takes an integer",
        ),
    ];
    for (command, message) in cases {
        let mut words = command.split(' ');
        let bin = match words.next() {
            Some("repro") => env!("CARGO_BIN_EXE_repro"),
            Some("serve_load") => env!("CARGO_BIN_EXE_serve_load"),
            Some("ablation_faults") => env!("CARGO_BIN_EXE_ablation_faults"),
            Some("dump_kernels") => env!("CARGO_BIN_EXE_dump_kernels"),
            _ => env!("CARGO_BIN_EXE_ablation_storage"),
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
    let repro = env!("CARGO_BIN_EXE_repro");
    let (_, _, stderr) = run(repro, &["--bogus-flag"]);
    let rows = [
        "table1",
        "figure5",
        "ablation_spill",
        "profile_classes",
        "ablation_cost",
    ];
    for row in rows {
        assert!(stderr.contains(row), "{stderr}");
    }
    let (code, stdout, _) = run(repro, &["table2", "--max-n", "1000"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("=== table2 ===\n"), "{stdout}");
    assert!(stdout.contains("Verdict: holds"), "{stdout}");
    assert_eq!(stdout.matches("===").count(), 2, "one section only");
}
