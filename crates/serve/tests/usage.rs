//! Malformed `rvv-serve` command lines exit 2 with a message, before the
//! server binds.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn bad_arguments_exit_2_with_a_message() {
    let cases = [
        ("--crash-after 0", "--crash-after must be at least 1"),
        ("--crash-after x", "bad --crash-after value `x`"),
        ("--crash-after", "--crash-after needs a value"),
        ("--bogus-flag", "unknown flag `--bogus-flag`"),
    ];
    for (args, message) in cases {
        // On an ephemeral port, so that a command line accepted by mistake
        // serves nowhere in particular until it is killed below.
        let mut child = Command::new(env!("CARGO_BIN_EXE_rvv-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args.split(' '))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rvv-serve");
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("try_wait").is_none() {
            if Instant::now() > deadline {
                child.kill().expect("kill rvv-serve");
                panic!("rvv-serve {args}: still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("reap rvv-serve");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(message), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "rvv-serve {args} started serving");
    }
}
