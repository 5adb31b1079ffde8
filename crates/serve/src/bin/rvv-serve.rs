//! The rvv-serve daemon.
//!
//! Binds the sweep service and runs until SIGTERM/SIGINT (graceful drain,
//! exit 0) or a client posts `/shutdown`. The only unsafe in the whole
//! crate is the two `signal(2)` registrations below — the library proper
//! is `#![forbid(unsafe_code)]`.
//!
//! ```text
//! rvv-serve --addr 127.0.0.1:7190 --threads 4 --journal /tmp/q.journal
//! curl -X POST --data-binary 'plus_scan n=1000 vlen=256' http://127.0.0.1:7190/sweeps
//! ```

use rvv_serve::{ServeOptions, Server};
use scanvec::ExecEngine;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Async-signal-safe: one relaxed-ordering-free store, nothing else.
    TERM.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    // Minimal libc binding — the environment has no libc crate, and the C
    // runtime is linked anyway. `signal` suffices for one boolean flag.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn usage() -> ! {
    eprintln!(
        "usage: rvv-serve [flags]\n\
         \x20 --addr HOST:PORT        bind address (default 127.0.0.1:7190, :0 = ephemeral)\n\
         \x20 --threads N             worker threads (default 2)\n\
         \x20 --queue-depth N         admission-control capacity (default 256)\n\
         \x20 --journal PATH          durable queue journal (omit = in-memory)\n\
         \x20 --resume                resume an existing journal instead of truncating\n\
         \x20 --deadline-ms N         per-job wall-clock deadline\n\
         \x20 --retries N             retries per failed job (default 1)\n\
         \x20 --inject-seed N         chaos seed (deterministic shed/latency/faults)\n\
         \x20 --crash-after N         abort() after the Nth journaled completion (test harness)\n\
         \x20 --exec-engine NAME      execution tier (plan, legacy, fused)\n\
         \x20 --breaker-threshold N   consecutive poisons before quarantine (default 3)\n\
         \x20 --watchdog FUEL         per-attempt instruction budget (default 1000000000)"
    );
    exit(2)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        eprintln!("rvv-serve: {flag} needs a value");
        exit(2)
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("rvv-serve: bad {flag} value `{value}`");
            exit(2)
        }
    }
}

fn main() {
    let mut opts = ServeOptions::default();
    let mut addr = "127.0.0.1:7190".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_num::<String>("--addr", args.next()),
            "--threads" => opts.threads = parse_num("--threads", args.next()),
            "--queue-depth" => opts.queue_depth = parse_num("--queue-depth", args.next()),
            "--journal" => opts.journal = Some(parse_num::<PathBuf>("--journal", args.next())),
            "--resume" => opts.resume = true,
            "--deadline-ms" => {
                opts.deadline = Some(Duration::from_millis(parse_num(
                    "--deadline-ms",
                    args.next(),
                )))
            }
            "--retries" => opts.retries = parse_num("--retries", args.next()),
            "--inject-seed" => opts.inject_seed = Some(parse_num("--inject-seed", args.next())),
            "--crash-after" => {
                let n: u64 = parse_num("--crash-after", args.next());
                let Some(n) = NonZeroU64::new(n) else {
                    eprintln!("rvv-serve: --crash-after must be at least 1");
                    exit(2)
                };
                opts.crash_after = Some(n);
            }
            "--exec-engine" => {
                let value = parse_num::<String>("--exec-engine", args.next());
                opts.exec = match ExecEngine::parse(&value) {
                    Some(e) => e,
                    None => {
                        let valid: Vec<String> = ExecEngine::ALL
                            .iter()
                            .map(|e| format!("{e:?}").to_ascii_lowercase())
                            .collect();
                        eprintln!(
                            "rvv-serve: unknown --exec-engine `{value}` (expected one of: {})",
                            valid.join(", ")
                        );
                        exit(2)
                    }
                }
            }
            "--breaker-threshold" => {
                opts.breaker_threshold = parse_num("--breaker-threshold", args.next())
            }
            "--watchdog" => opts.watchdog = Some(parse_num("--watchdog", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("rvv-serve: unknown flag `{other}`");
                usage()
            }
        }
    }
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    let server = match Server::bind(&addr, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rvv-serve: {e}");
            exit(1)
        }
    };
    // The harness (CI smoke, crash tests) parses this line for the port.
    println!("rvv-serve listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    match server.serve_until(|| TERM.load(Ordering::SeqCst)) {
        Ok(()) => {
            println!("rvv-serve: drained, journal synced, exiting");
        }
        Err(e) => {
            eprintln!("rvv-serve: {e}");
            exit(1)
        }
    }
}
