//! Load client for a running `rvv-serve` instance: submit a mixed sweep,
//! poll it to completion, and verify the served digest against an
//! in-process serial reference. The CI `serve-smoke` job drives this
//! against a server it kills and restarts mid-drain — the digest check is
//! what proves the crash changed nothing. It times nothing: host timings
//! come from the repository benchmark (`perfbench/`).
//!
//! ```text
//! serve_load --addr 127.0.0.1:7190 --jobs 40 [--submit-only] [--verify-only]
//! ```
//!
//! `--submit-only` submits and exits (the smoke job kills the server
//! while the sweep is draining); `--verify-only` skips submission and
//! polls sweep 1, jobs 1 onward (after the restart, on a fresh journal).
//! The default does both, and names the reference jobs from the first id
//! the server acknowledged, so repeated runs against one server verify.

use rvv_batch::BatchRunner;
use rvv_ckpt::fnv1a;
use rvv_serve::http::request;
use rvv_serve::JobSpec;
use scanvec::Engine;
use scanvec_bench::{flag_arg, num_arg};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn addr_arg() -> String {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--addr" {
            return w[1].clone();
        }
    }
    "127.0.0.1:7190".to_string()
}

/// The smoke sweep: `jobs` small mixed-workload specs, pure function of
/// the count so client and reference always agree.
fn specs(jobs: u64) -> Vec<JobSpec> {
    let workloads = ["p_add", "plus_scan", "seg_scan", "radix_sort"];
    let vlens = [128u32, 256, 512];
    let lmuls = ["m1", "m2", "m4"];
    (0..jobs)
        .map(|i| {
            format!(
                "{} n={} vlen={} lmul={} seed={i}",
                workloads[(i % 4) as usize],
                50 + i * 13,
                vlens[(i % 3) as usize],
                lmuls[(i % 3) as usize],
            )
            .parse()
            .expect("generated spec")
        })
        .collect()
}

/// What the server must serve for a sweep whose jobs were assigned ids
/// `first..`: the same jobs through the serial batch runner, formatted
/// like `GET /sweeps/<id>`.
fn serial_reference(specs: &[JobSpec], first: u64) -> String {
    let engine = Arc::new(Engine::builder().default_fuel_budget(1_000_000_000).build());
    let jobs = specs
        .iter()
        .zip(first..)
        .map(|(s, id)| s.to_job(format!("job-{id}")))
        .collect();
    let result = BatchRunner::with_engine(1, engine).run(jobs);
    let mut body = String::new();
    for r in &result.reports {
        body.push_str(&r.stable_line());
        body.push('\n');
    }
    format!(
        "complete jobs={}\ndigest={:#018x}\n{body}",
        result.reports.len(),
        fnv1a(body.as_bytes())
    )
}

/// The sweep id and first job id of a 202 reply
/// (`sweep <id>\njobs <a>..=<b>\n`).
fn parse_ack(reply: &str) -> Option<(u64, u64)> {
    let mut lines = reply.lines();
    let sweep = lines.next()?.strip_prefix("sweep ")?.parse().ok()?;
    let (first, _) = lines.next()?.strip_prefix("jobs ")?.split_once("..=")?;
    Some((sweep, first.parse().ok()?))
}

fn main() {
    let addr = addr_arg();
    let jobs = num_arg("--jobs").unwrap_or(40);
    let specs = specs(jobs);

    let (sweep, first) = if flag_arg("--verify-only") {
        (1, 1)
    } else {
        let body: String = specs.iter().map(|s| format!("{s}\n")).collect();
        let (status, reply) = match request(&addr, "POST", "/sweeps", &body) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve_load: cannot reach {addr}: {e}");
                std::process::exit(1)
            }
        };
        if status != 202 {
            eprintln!("serve_load: submission refused ({status}): {reply}");
            std::process::exit(1)
        }
        let (sweep, first) = parse_ack(&reply).unwrap_or_else(|| {
            eprintln!("serve_load: unparseable acknowledgment: {reply}");
            std::process::exit(1)
        });
        println!("submitted sweep {sweep} ({jobs} jobs from job-{first}) to {addr}");
        if flag_arg("--submit-only") {
            return;
        }
        (sweep, first)
    };

    let deadline = Instant::now() + Duration::from_secs(300);
    let body = loop {
        match request(&addr, "GET", &format!("/sweeps/{sweep}"), "") {
            Ok((200, body)) if body.starts_with("complete") => break body,
            Ok((200, _)) => {}
            Ok((status, body)) => {
                eprintln!("serve_load: poll failed ({status}): {body}");
                std::process::exit(1)
            }
            Err(e) => {
                eprintln!("serve_load: poll failed: {e}");
                std::process::exit(1)
            }
        }
        if Instant::now() > deadline {
            eprintln!("serve_load: sweep {sweep} never completed");
            std::process::exit(1)
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    let expected = serial_reference(&specs, first);
    if body != expected {
        eprintln!(
            "serve_load: DIGEST MISMATCH\n--- served ---\n{body}\n--- expected ---\n{expected}"
        );
        std::process::exit(1)
    }
    let digest = body.lines().nth(1).unwrap_or("");
    println!("verified {jobs} jobs, {digest}");
    if let Ok((200, stats)) = request(&addr, "GET", "/stats", "") {
        print!("{stats}");
    }
}
