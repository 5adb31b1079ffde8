//! Storage-chaos ablation: the sweep service's journal under a seeded
//! fault-type matrix, resumed at 1/2/4 workers — the rvv-scrub
//! acceptance contract run as an experiment.
//!
//! Phase 1 runs one sweep to completion on a clean disk and records the
//! reference `GET /sweeps/1` body (stable lines + FNV-1a digest) and the
//! fully-drained journal bytes. Phase 2 derives a [`StorageFault`] per
//! matrix cell ([`StorageFaultKind`] × repetitions, skews seeded like
//! the machine-fault plans), applies it to a copy of the journal —
//! record bitflips, length-prefix bitflips, mid-record tail truncation
//! (the `kill -9` artifact) — and resumes a server over the damage at
//! every worker count. The contract, every cell:
//!
//! * zero panics, zero refusals: salvage quarantines, never gives up;
//! * the re-served sweep body is **byte-identical** to the reference —
//!   lost done records re-run deterministically, lost submit records are
//!   reconstructed from their surviving dones.
//!
//! The lying-fsync leg runs on the in-memory [`ChaosBackend`] instead of
//! file surgery: a durable journal plus a second sweep written through
//! lying fsyncs, a seeded crash, then a resume — durable data must still
//! serve byte-identically, whatever the liar lost must replay cleanly.
//!
//! Writes `results/storage_chaos.json` (deterministic) and exits
//! nonzero on any contract violation.

use rvv_ckpt::{ChaosBackend, ChaosPlan, StorageBackend};
use rvv_fault::{StorageFault, StorageFaultKind};
use rvv_serve::http::request;
use rvv_serve::{ServeOptions, Server};
use scanvec_bench::{check_flags, num_arg};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default matrix seed (any seed must satisfy the same contract).
const DEFAULT_SEED: u64 = 0x5c7b_fa11_2026_0808;
/// Cells per fault kind.
const REPS: u64 = 3;
/// Worker counts every damaged journal is resumed at.
const WORKERS: [usize; 3] = [1, 2, 4];

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rvv-ablation-storage-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("tmpdir");
    d
}

/// The reference sweep: ten small mixed-workload specs.
fn sweep_body() -> String {
    let workloads = ["p_add", "plus_scan", "seg_scan", "radix_sort"];
    (0..10u64)
        .map(|i| {
            format!(
                "{} n={} vlen={} lmul=m{} seed={i}\n",
                workloads[(i % 4) as usize],
                40 + i * 17,
                if i % 2 == 0 { 128 } else { 256 },
                1 << (i % 3),
            )
        })
        .collect()
}

fn submit(addr: &str, body: &str) -> (u16, String) {
    request(addr, "POST", "/sweeps", body).expect("submit")
}

fn wait_sweep(addr: &str, sweep: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) =
            request(addr, "GET", &format!("/sweeps/{sweep}"), "").expect("poll sweep");
        assert_eq!(status, 200, "{body}");
        if body.starts_with("complete") {
            return body;
        }
        assert!(Instant::now() < deadline, "sweep {sweep} never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `(offset, size)` of each record frame, header first.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        spans.push((pos, 12 + len));
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "clean journal parses into whole records");
    spans
}

/// Apply one derived fault to a copy of the clean journal. The skews
/// pick a *data* record (never the header) and a byte inside it.
fn damage(clean: &[u8], fault: &StorageFault) -> Vec<u8> {
    let spans = record_spans(clean);
    let data = &spans[1..]; // never the header: that damage is Fatal by design
    let (start, size) = data[(fault.record_skew % data.len() as u64) as usize];
    let mut bytes = clean.to_vec();
    match fault.kind {
        StorageFaultKind::BitflipRecord => {
            // One bit somewhere in the record's payload.
            let at = start + 12 + (fault.byte_skew % (size as u64 - 12)) as usize;
            bytes[at] ^= 1 << (fault.byte_skew % 8);
        }
        StorageFaultKind::BitflipLength => {
            // One bit in the length prefix: the frame now claims a
            // different extent and the reader must resync by scanning.
            let at = start + (fault.byte_skew % 4) as usize;
            bytes[at] ^= 1 << (fault.byte_skew % 8);
        }
        StorageFaultKind::TornTail => {
            // Truncate mid-way through the last record — the on-disk
            // artifact of a kill between append and fsync.
            let (last, lsize) = *spans.last().unwrap();
            bytes.truncate(last + 1 + (fault.byte_skew % (lsize as u64 - 1)) as usize);
        }
        StorageFaultKind::LyingFsync => unreachable!("runs on the chaos backend"),
    }
    bytes
}

/// Resume a server over `journal` at `threads` workers and return the
/// sweep-1 body plus the salvaged-record count from `/stats`.
fn resume_and_serve(dir: &Path, journal: &[u8], threads: usize) -> (String, u64) {
    fs::write(dir.join("q.journal"), journal).expect("write damaged journal");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeOptions {
            journal: Some(dir.join("q.journal")),
            resume: true,
            threads,
            ..ServeOptions::default()
        },
    )
    .expect("resume over damaged journal");
    let addr = server.addr.to_string();
    let body = wait_sweep(&addr, 1);
    let (_, stats) = request(&addr, "GET", "/stats", "").expect("stats");
    let salvaged = stats
        .lines()
        .find_map(|l| l.strip_prefix("salvaged_records="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    server.shutdown().expect("graceful shutdown");
    (body, salvaged)
}

/// The lying-fsync leg: a durable reference journal on the chaos
/// backend, a second sweep journaled through lying fsyncs, a seeded
/// crash, then a resume. Returns whether the durable sweep survived
/// byte-identically.
fn lying_fsync_cell(clean: &[u8], reference: &str, fault: &StorageFault, seed: u64) -> bool {
    let chaos = Arc::new(ChaosBackend::new(ChaosPlan {
        seed: seed ^ fault.byte_skew,
        drop_fsync_period: Some(2 + fault.record_skew % 3),
        torn_crash: true,
        ..ChaosPlan::quiet()
    }));
    let path = Path::new("/j/q.journal");
    chaos.install(path, clean);
    let storage: Arc<dyn StorageBackend> = Arc::clone(&chaos) as _;
    let opts = |threads| ServeOptions {
        journal: Some(path.to_path_buf()),
        storage: Some(Arc::clone(&storage)),
        resume: true,
        threads,
        ..ServeOptions::default()
    };
    {
        let server = Server::spawn("127.0.0.1:0", opts(2)).expect("resume on chaos backend");
        let addr = server.addr.to_string();
        assert_eq!(wait_sweep(&addr, 1), reference, "durable sweep replay");
        let (status, _) = submit(&addr, "p_add n=32 seed=7\nplus_scan n=48 seed=8\n");
        assert_eq!(status, 202);
        wait_sweep(&addr, 2);
        let _ = server.shutdown(); // the final sync may honestly fail
    }
    chaos.crash();
    // Whatever the lying fsyncs lost, the resume must not panic and the
    // durable sweep must still serve byte-identically.
    let server = Server::spawn("127.0.0.1:0", opts(2)).expect("post-crash resume");
    let addr = server.addr.to_string();
    let survived = wait_sweep(&addr, 1) == reference;
    // Sweep 2 either replays/re-runs to completion or was never durable.
    let (status, body) = request(&addr, "GET", "/sweeps/2", "").expect("sweep 2");
    if status == 200 {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut body = body;
        while !body.starts_with("complete") {
            assert!(Instant::now() < deadline, "sweep 2 never completed");
            std::thread::sleep(Duration::from_millis(5));
            body = request(&addr, "GET", "/sweeps/2", "").expect("sweep 2").1;
        }
    }
    server.shutdown().expect("graceful shutdown");
    survived
}

fn main() {
    check_flags(
        &["--inject-seed"],
        &[],
        "usage: ablation_storage [--inject-seed S]",
    );
    let seed = num_arg("--inject-seed").unwrap_or(DEFAULT_SEED);
    println!("storage-chaos ablation: seed={seed:#x}, {REPS} cells/kind, workers {WORKERS:?}");

    // Phase 1: the clean reference run.
    let dir = tmpdir("reference");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeOptions {
            journal: Some(dir.join("q.journal")),
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .expect("reference server");
    let addr = server.addr.to_string();
    let (status, reply) = submit(&addr, &sweep_body());
    assert_eq!(status, 202, "{reply}");
    let reference = wait_sweep(&addr, 1);
    server.shutdown().expect("reference shutdown");
    let clean = fs::read(dir.join("q.journal")).expect("clean journal");
    println!(
        "  reference: {} records, {}",
        record_spans(&clean).len(),
        reference.lines().nth(1).unwrap_or("")
    );

    // Phase 2: the fault matrix.
    let mut cells = 0u64;
    let mut salvaged_total = 0u64;
    let mut diverged: Vec<String> = Vec::new();
    for (k, &kind) in StorageFaultKind::ALL.iter().enumerate() {
        for rep in 0..REPS {
            let derived = StorageFault::derive(seed, k as u64 * REPS + rep);
            let fault = StorageFault { kind, ..derived };
            cells += 1;
            if kind == StorageFaultKind::LyingFsync {
                let ok = lying_fsync_cell(&clean, &reference, &fault, seed);
                println!(
                    "  {fault}: durable sweep {}",
                    if ok { "identical" } else { "DIVERGED" }
                );
                if !ok {
                    diverged.push(fault.to_string());
                }
                continue;
            }
            let damaged = damage(&clean, &fault);
            for threads in WORKERS {
                let cell_dir = tmpdir(&format!("{kind}-{rep}-t{threads}"));
                let (body, salvaged) = resume_and_serve(&cell_dir, &damaged, threads);
                salvaged_total += salvaged;
                if body != reference {
                    diverged.push(format!("{fault} threads={threads}"));
                }
                let _ = fs::remove_dir_all(&cell_dir);
            }
            println!("  {fault}: resumed at {WORKERS:?} workers");
        }
    }
    let _ = fs::remove_dir_all(&dir);

    fs::create_dir_all("results").expect("results dir");
    let json = format!(
        concat!(
            "{{\n",
            "  \"seed\": \"{:#x}\",\n",
            "  \"cells\": {},\n",
            "  \"reps_per_kind\": {},\n",
            "  \"workers\": {:?},\n",
            "  \"kinds\": [\"bitflip-record\", \"bitflip-length\", \"torn-tail\", \"lying-fsync\"],\n",
            "  \"salvaged_records\": {},\n",
            "  \"panics\": 0,\n",
            "  \"diverged\": {},\n",
            "  \"identical\": {}\n",
            "}}\n"
        ),
        seed,
        cells,
        REPS,
        WORKERS,
        salvaged_total,
        diverged.len(),
        diverged.is_empty()
    );
    rvv_ckpt::write_atomic("results/storage_chaos.json", json).expect("write storage_chaos.json");

    println!(
        "\n{cells} cells, {salvaged_total} records salvaged, 0 panics -> results/storage_chaos.json"
    );
    if diverged.is_empty() {
        println!("post-salvage digests identical at {WORKERS:?} workers in every cell");
    } else {
        eprintln!("ERROR: post-salvage digests diverged in: {diverged:?}");
        std::process::exit(1);
    }
}
