//! End-to-end durability drills on the chaos backend: the queue journal
//! driven through seeded storage faults — crashes, lying fsyncs, short
//! writes — must never panic, never corrupt silently, and always recover
//! exactly what was durable.

use rvv_ckpt::queue::QueueJournal;
use rvv_ckpt::{parse_journal, ChaosBackend, ChaosPlan, StorageBackend};
use std::path::Path;
use std::sync::Arc;

const TAG: &str = "chaos-test";
const PATH: &str = "/q/q.journal";

fn pair(plan: ChaosPlan) -> (Arc<ChaosBackend>, Arc<dyn StorageBackend>) {
    let c = Arc::new(ChaosBackend::new(plan));
    let b: Arc<dyn StorageBackend> = Arc::clone(&c) as _;
    (c, b)
}

#[test]
fn acknowledged_submits_survive_a_torn_crash() {
    for seed in [1u64, 2, 3, 4, 5] {
        let (chaos, backend) = pair(ChaosPlan {
            seed,
            torn_crash: true,
            ..ChaosPlan::quiet()
        });
        {
            let mut q = QueueJournal::create_on(&backend, Path::new(PATH), TAG, 1).unwrap();
            for id in 1..=6u64 {
                q.submit(id, format!("job-{id}").as_bytes()).unwrap();
            }
            q.complete(3, b"result-3").unwrap();
            // Unsynced garbage after the last durable record: an append
            // that never reached its fsync.
            let _ = q; // writer dropped without further syncs
        }
        chaos.crash();
        let (_q, rec) = QueueJournal::resume_on(&backend, Path::new(PATH), TAG, 1)
            .unwrap_or_else(|e| panic!("seed {seed}: resume failed: {e}"));
        // fsync_every = 1: every acknowledged record was durable.
        let pending: Vec<u64> = rec.pending.iter().map(|i| i.id).collect();
        assert_eq!(pending, vec![1, 2, 4, 5, 6], "seed {seed}");
        assert_eq!(rec.completed.len(), 1, "seed {seed}");
        assert_eq!(rec.max_id, 6, "seed {seed}");
    }
}

#[test]
fn lying_fsyncs_lose_a_tail_but_never_a_parse() {
    // With fsyncs randomly lying, a crash may drop acknowledged records —
    // that is the *storage* breaking its contract, not ours. What must
    // still hold: the reader never panics and recovers a clean prefix of
    // what was submitted, and the journal resumes or refuses loudly.
    for seed in 0u64..8 {
        let (chaos, backend) = pair(ChaosPlan {
            seed,
            drop_fsync_period: Some(2),
            torn_crash: true,
            ..ChaosPlan::quiet()
        });
        let created = QueueJournal::create_on(&backend, Path::new(PATH), TAG, 1);
        let mut submitted = Vec::new();
        if let Ok(mut q) = created {
            for id in 1..=5u64 {
                if q.submit(id, format!("job-{id}").as_bytes()).is_ok() {
                    submitted.push(id);
                }
            }
        }
        chaos.crash();
        if !backend.exists(Path::new(PATH)) {
            continue; // the journal's directory entry was never durable
        }
        match QueueJournal::resume_on(&backend, Path::new(PATH), TAG, 1) {
            Ok((_q, rec)) => {
                let pending: Vec<u64> = rec.pending.iter().map(|i| i.id).collect();
                assert_eq!(
                    pending,
                    submitted[..pending.len()].to_vec(),
                    "seed {seed}: recovered records are a prefix of submissions"
                );
            }
            Err(e) => {
                // Header never became durable: refusing is correct as
                // long as the refusal names the file.
                assert!(e.to_string().contains("q.journal"), "seed {seed}: {e}");
            }
        }
    }
}

#[test]
fn short_writes_are_quarantined_and_later_records_salvaged() {
    for seed in [21u64, 22, 23] {
        let (chaos, backend) = pair(ChaosPlan {
            seed,
            write_error_period: Some(4),
            short_writes: true,
            ..ChaosPlan::quiet()
        });
        let mut q = match QueueJournal::create_on(&backend, Path::new(PATH), TAG, 0) {
            Ok(q) => q,
            Err(_) => continue, // header write itself faulted; nothing to test
        };
        let mut ok = Vec::new();
        for id in 1..=12u64 {
            if q.submit(id, format!("job-{id}").as_bytes()).is_ok() {
                ok.push(id);
            }
        }
        drop(q);
        assert!(!ok.is_empty(), "seed {seed}: some submits should succeed");
        let bytes = backend.read(Path::new(PATH)).unwrap();
        let j =
            parse_journal(&bytes, PATH).unwrap_or_else(|e| panic!("seed {seed}: read failed: {e}"));
        // Every fully-written record is recovered, in order, with short
        // writes quarantined around (or torn off the tail).
        let recovered: Vec<u64> = j
            .records
            .iter()
            .map(|r| {
                // Queue record layout: [tag u8][id u64][len u32][payload].
                let s = std::str::from_utf8(&r[13..]).unwrap();
                s.trim_start_matches("job-").parse::<u64>().unwrap()
            })
            .collect();
        let expect: Vec<u64> = ok
            .iter()
            .copied()
            .filter(|id| recovered.contains(id) || *id > *recovered.last().unwrap_or(&0))
            .collect();
        assert_eq!(
            recovered,
            expect[..recovered.len()].to_vec(),
            "seed {seed}: recovered = successful submits (maybe minus a torn tail)"
        );
        if chaos
            .contents(Path::new(PATH))
            .map(|b| b.len() as u64 > j.valid_len)
            .unwrap_or(false)
        {
            // Trailing garbage exists; salvage or tear explains it.
        } else if !j.salvage.is_empty() {
            for s in &j.salvage {
                assert!(s.len > 0, "seed {seed}: quarantine ranges are non-empty");
            }
        }
    }
}
