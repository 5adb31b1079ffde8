//! Crash/resume determinism for journaled batch runs: a sweep interrupted
//! after any prefix of completions and resumed (any number of times, at
//! any thread count) produces a [`BatchResult::stable_digest`] that is
//! byte-identical to an uninterrupted, never-journaled run.
//!
//! The in-process stand-in for a crash here is *truncating the journal* to
//! a record prefix before resuming — exactly the on-disk state a `kill -9`
//! leaves behind (the real SIGKILL test lives in the bench crate, where a
//! child process can actually be killed). The `crash_after` abort path is
//! also exercised there.

use rvv_batch::journal::{run_journaled, JournalOptions};
use rvv_batch::{
    BatchJob, BatchResult, BatchRunner, CostModel, Engine, JobOutcome, JournalPayload,
};
use rvv_ckpt::{parse_journal, ByteReader, ByteWriter};
use scanvec::primitives::{plus_scan, seg_plus_scan};
use scanvec::{EnvConfig, HEAP_BASE};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "rvv-batch-journal-{tag}-{}-{:p}",
        std::process::id(),
        &tag as *const _
    ));
    fs::create_dir_all(&d).unwrap();
    d
}

/// A small mixed sweep: successes (checksum payloads), one of them costed,
/// one sim trap, one host-side failure, one panic with a retry — every
/// outcome class a journal must carry across a crash. The costed job's
/// cycles are in its stable line, so every digest comparison below also
/// checks the journal's cycle block.
fn cfg() -> EnvConfig {
    EnvConfig {
        mem_bytes: 1 << 22,
        ..EnvConfig::with_vlen(256)
    }
}

fn jobs() -> Vec<BatchJob<u64>> {
    let mut jobs: Vec<BatchJob<u64>> = (1..=6u64)
        .map(|k| {
            let job = BatchJob::new(format!("scan/n={}", 50 * k), cfg(), move |env| {
                let v = env.from_u32(&vec![1; 50 * k as usize])?;
                plus_scan(env, &v)
            });
            let job = job.weight(50 * k);
            if k == 3 {
                job.costed(CostModel::ara_like())
            } else {
                job
            }
        })
        .collect();
    jobs.push(BatchJob::new("trap/guard", cfg(), |env| {
        env.machine_mut().mem.add_guard(HEAP_BASE..HEAP_BASE + 64);
        let v = env.from_u32(&[1; 100])?;
        plus_scan(env, &v)
    }));
    jobs.push(BatchJob::new("fail/host", cfg(), |env| {
        let v = env.from_u32(&[1; 100])?;
        let f = env.from_u32(&[1; 50])?;
        seg_plus_scan(env, &v, &f) // length mismatch: host-side error
    }));
    jobs.push(
        BatchJob::new("panic/retry", cfg(), |_| -> scanvec::ScanResult<u64> {
            panic!("deliberate panic")
        })
        .retries(1),
    );
    jobs
}

fn digest_of(result: &BatchResult<u64>) -> String {
    result.stable_digest()
}

#[test]
fn journaled_run_matches_plain_run_and_journal_is_replayable() {
    let dir = tmpdir("plain");
    let path = dir.join("sweep.journal");
    let golden = digest_of(&BatchRunner::with_engine(2, Arc::new(Engine::new())).run(jobs()));

    // A fresh journaled run produces the same digest...
    let journaled = run_journaled(
        &BatchRunner::with_engine(2, Arc::new(Engine::new())),
        jobs(),
        &path,
        &JournalOptions::default(),
    )
    .unwrap();
    assert_eq!(digest_of(&journaled), golden);
    assert!(journaled.degraded().is_some(), "the sweep has failures");

    // ...and left a submit and a done record per job behind it.
    let bytes = fs::read(&path).unwrap();
    let journal = parse_journal(&bytes, "journal").unwrap();
    assert_eq!(journal.records.len(), 2 * jobs().len());

    // Resuming a *complete* journal replays everything and runs nothing;
    // the digest still matches, and failures come back as Replayed.
    let resumed = run_journaled(
        &BatchRunner::with_engine(2, Arc::new(Engine::new())),
        jobs(),
        &path,
        &JournalOptions {
            resume: true,
            ..JournalOptions::default()
        },
    )
    .unwrap();
    assert_eq!(digest_of(&resumed), golden);
    assert!(resumed
        .reports
        .iter()
        .filter(|r| !r.outcome.is_ok())
        .all(|r| matches!(r.outcome, JobOutcome::Replayed(_))));
    // Replay preserves the bookkeeping the manifest surfaces.
    let panic_job = resumed
        .reports
        .iter()
        .find(|r| r.name == "panic/retry")
        .unwrap();
    assert_eq!((panic_job.attempts, panic_job.poisoned), (2, 2));

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_truncation_point_resumes_to_the_golden_digest_at_any_thread_count() {
    let dir = tmpdir("truncate");
    let golden = digest_of(&BatchRunner::with_engine(1, Arc::new(Engine::new())).run(jobs()));
    let path = dir.join("full.journal");
    run_journaled(
        &BatchRunner::with_engine(1, Arc::new(Engine::new())),
        jobs(),
        &path,
        &JournalOptions::default(),
    )
    .unwrap();
    let full = fs::read(&path).unwrap();
    let journal = parse_journal(&full, "full.journal").unwrap();

    // Record boundaries in the file: header end, then each record end.
    let mut boundaries = Vec::new();
    let mut pos = 0usize;
    for payload_len in std::iter::once(journal.header)
        .chain(journal.records)
        .map(<[u8]>::len)
    {
        pos += 4 + 8 + payload_len;
        boundaries.push(pos);
    }

    for (cut, &end) in boundaries.iter().enumerate() {
        for threads in [1, 2, 4] {
            let p = dir.join(format!("cut{cut}-t{threads}.journal"));
            // Crash simulation: the journal survives only up to this
            // record, plus a torn fragment of the next one.
            let torn = (end + 7).min(full.len());
            fs::write(&p, &full[..torn]).unwrap();
            let resumed = run_journaled(
                &BatchRunner::with_engine(threads, Arc::new(Engine::new())),
                jobs(),
                &p,
                &JournalOptions {
                    resume: true,
                    ..JournalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                digest_of(&resumed),
                golden,
                "cut after record {cut} at {threads} threads"
            );
            // The resumed journal is whole again: resumable once more,
            // also after a cut inside the submit batch.
            let again = run_journaled(
                &BatchRunner::with_engine(threads, Arc::new(Engine::new())),
                jobs(),
                &p,
                &JournalOptions {
                    resume: true,
                    ..JournalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                digest_of(&again),
                golden,
                "second resume after record {cut} at {threads} threads"
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_refuses_a_journal_for_a_different_sweep() {
    let dir = tmpdir("mismatch");
    let path = dir.join("sweep.journal");
    run_journaled(
        &BatchRunner::with_engine(1, Arc::new(Engine::new())),
        jobs(),
        &path,
        &JournalOptions::default(),
    )
    .unwrap();

    // Same path, different job list: refused before anything runs.
    let mut other = jobs();
    other.truncate(3);
    let err = run_journaled(
        &BatchRunner::with_engine(1, Arc::new(Engine::new())),
        other,
        &path,
        &JournalOptions {
            resume: true,
            ..JournalOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("journal belongs to"),
        "unexpected error: {err}"
    );

    // Garbage at the path: refused, not misread.
    fs::write(&path, b"not a journal at all").unwrap();
    assert!(run_journaled(
        &BatchRunner::with_engine(1, Arc::new(Engine::new())),
        jobs(),
        &path,
        &JournalOptions {
            resume: true,
            ..JournalOptions::default()
        },
    )
    .is_err());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_done_record_is_salvaged_and_its_job_reruns() {
    let dir = tmpdir("salvage");
    let golden = digest_of(&BatchRunner::with_engine(1, Arc::new(Engine::new())).run(jobs()));
    let path = dir.join("full.journal");
    run_journaled(
        &BatchRunner::with_engine(1, Arc::new(Engine::new())),
        jobs(),
        &path,
        &JournalOptions::default(),
    )
    .unwrap();
    let mut bytes = fs::read(&path).unwrap();
    let journal = parse_journal(&bytes, "full.journal").unwrap();

    // Flip a byte in the middle of the third done record (the submits
    // come first, one per job): an interior record, not the tail.
    let victim = jobs().len() + 2;
    let start: usize = std::iter::once(&journal.header)
        .chain(&journal.records[..victim])
        .map(|payload| 4 + 8 + payload.len())
        .sum();
    let flip = start + 12 + journal.records[victim].len() / 2;
    bytes[flip] ^= 0x40;

    for threads in [1, 2, 4] {
        let p = dir.join(format!("flipped-t{threads}.journal"));
        fs::write(&p, &bytes).unwrap();
        let flipped_bytes = fs::read(&p).unwrap();
        let flipped = parse_journal(&flipped_bytes, "flipped.journal").unwrap();
        assert_eq!(flipped.salvage.len(), 1, "the flip is quarantined");
        for pass in ["first", "second"] {
            let resumed = run_journaled(
                &BatchRunner::with_engine(threads, Arc::new(Engine::new())),
                jobs(),
                &p,
                &JournalOptions {
                    resume: true,
                    ..JournalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                digest_of(&resumed),
                golden,
                "{pass} resume at {threads} threads"
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn points_round_trip_and_a_cut_point_errors() {
    for point in [vec![], vec![7], vec![0, u64::MAX, 42]] {
        let mut w = ByteWriter::new();
        point.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), point);
        r.finish().unwrap();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                Vec::<u64>::decode(&mut r).is_err(),
                "{point:?} cut at {cut}"
            );
        }
    }
}

#[test]
fn a_point_longer_than_its_record_errors_without_reserving_its_length() {
    let mut w = ByteWriter::new();
    w.put_u32(u32::MAX);
    w.put_u64(1);
    let bytes = w.into_bytes();
    assert!(Vec::<u64>::decode(&mut ByteReader::new(&bytes)).is_err());
}
