//! The storage-integrity acceptance contract, end to end:
//!
//! * a journal with one corrupted interior record salvages all the
//!   others and a `--resume` reaches a byte-identical sweep digest at
//!   worker counts {1, 2, 4} after deterministic re-execution;
//! * a journal append failure walks the degradation ladder — `/healthz`
//!   flips to `storage=degraded`, new submissions shed with 503, the
//!   in-flight sweep still drains — with zero panics.

use rvv_serve::http::request;
use rvv_serve::{ServeOptions, Server};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "rvv-serve-storage-{tag}-{}-{:p}",
        std::process::id(),
        &tag as *const _
    ));
    fs::create_dir_all(&d).unwrap();
    d
}

/// A small mixed sweep: enough records that an interior one can be
/// corrupted with live records after it.
fn sweep_body() -> String {
    let workloads = ["p_add", "plus_scan", "seg_scan", "radix_sort"];
    (0..8u64)
        .map(|i| {
            format!(
                "{} n={} vlen={} lmul=m{} seed={i}\n",
                workloads[(i % 4) as usize],
                40 + i * 11,
                if i % 2 == 0 { 128 } else { 256 },
                1 << (i % 2),
            )
        })
        .collect()
}

fn submit(addr: &str, body: &str) -> (u16, String) {
    request(addr, "POST", "/sweeps", body).unwrap()
}

fn wait_sweep(addr: &str, sweep: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/sweeps/{sweep}"), "").unwrap();
        assert_eq!(status, 200, "{body}");
        if body.starts_with("complete") {
            return body;
        }
        assert!(Instant::now() < deadline, "sweep {sweep} never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `(offset, size)` of each record frame in the journal, header first.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        spans.push((pos, 12 + len));
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "journal parses into whole records");
    spans
}

#[test]
fn corrupted_interior_record_salvages_and_resumes_byte_identical() {
    // Phase 1: an uninterrupted run builds the reference digest and a
    // fully-drained journal.
    let dir = tmpdir("salvage");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeOptions {
            journal: Some(dir.join("q.journal")),
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr.to_string();
    let (status, reply) = submit(&addr, &sweep_body());
    assert_eq!(status, 202, "{reply}");
    let reference = wait_sweep(&addr, 1);
    server.shutdown().unwrap();

    // Corrupt one *interior* done record (payload tag 2, not the last
    // record in the file): the jobs after it must survive salvage.
    let clean = fs::read(dir.join("q.journal")).unwrap();
    let spans = record_spans(&clean);
    let (start, size) = spans[1..spans.len() - 1]
        .iter()
        .copied()
        .find(|&(s, _)| clean[s + 12] == 2)
        .expect("an interior done record");
    let mut corrupt = clean.clone();
    corrupt[start + size / 2] ^= 0x40;

    // Phase 2: resume over the damaged journal at every worker count.
    // The lost completion re-runs deterministically; everything else
    // replays verbatim — so the digest is byte-identical every time.
    for threads in [1usize, 2, 4] {
        let dir2 = tmpdir(&format!("salvage-t{threads}"));
        fs::write(dir2.join("q.journal"), &corrupt).unwrap();
        let resumed = Server::spawn(
            "127.0.0.1:0",
            ServeOptions {
                journal: Some(dir2.join("q.journal")),
                resume: true,
                threads,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = resumed.addr.to_string();
        let body = wait_sweep(&addr, 1);
        assert_eq!(body, reference, "digest diverged (threads={threads})");
        let (_, stats) = request(&addr, "GET", "/stats", "").unwrap();
        assert!(stats.contains("salvaged_records=1"), "{stats}");
        assert!(
            dir2.join("q.journal.salvage.txt").exists(),
            "salvage manifest written"
        );
        let manifest = fs::read_to_string(dir2.join("q.journal.salvage.txt")).unwrap();
        assert!(manifest.contains(&format!("offset {start}")), "{manifest}");
        resumed.shutdown().unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn append_failure_degrades_storage_sheds_and_drains() {
    use rvv_ckpt::{ChaosBackend, ChaosPlan, StorageBackend};
    // Write op 0 is the journal header, op 1 the first sweep's two submit
    // records (one batched write); every later append (the done records,
    // the next submit) fails hard.
    let chaos = Arc::new(ChaosBackend::new(ChaosPlan {
        fail_writes_after: Some(2),
        ..ChaosPlan::quiet()
    }));
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeOptions {
            journal: Some(PathBuf::from("/j/q.journal")),
            storage: Some(Arc::clone(&chaos) as Arc<dyn StorageBackend>),
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr.to_string();
    let (status, _) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);

    // The first sweep is journaled and acknowledged before the disk dies.
    let (status, reply) = submit(&addr, "p_add n=32 seed=1\nplus_scan n=48 seed=2\n");
    assert_eq!(status, 202, "{reply}");
    // Its done-record appends fail, but the in-flight jobs still drain
    // to completion in memory — degrade, don't die.
    let body = wait_sweep(&addr, 1);
    assert!(body.starts_with("complete jobs=2"), "{body}");

    // The ladder: degraded healthz, 503 sheds, stats tell the story.
    let (status, health) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, health.as_str()), (503, "storage=degraded\n"));
    let (status, reply) = submit(&addr, "p_add n=8 seed=3\n");
    assert_eq!(status, 503, "{reply}");
    assert!(reply.contains("storage degraded"), "{reply}");
    let (_, stats) = request(&addr, "GET", "/stats", "").unwrap();
    assert!(stats.contains("storage_degraded=true"), "{stats}");
    assert!(!stats.contains("journal_errors=0"), "{stats}");

    // An operator reset closes the breaker; the still-broken disk
    // re-trips it on the next append, again without a false ack.
    let (status, _) = request(&addr, "POST", "/breakers/reset", "").unwrap();
    assert_eq!(status, 200);
    let (status, _) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let (status, _) = submit(&addr, "p_add n=8 seed=4\n");
    assert_eq!(status, 503);
    let (status, _) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 503);

    // Shutdown still drains; the final journal sync may honestly report
    // the broken disk, but nothing panics.
    let _ = server.shutdown();
}
