//! Differential tests of the journal reader and the queue fold against
//! the versions they replaced (`reference`, kept verbatim): the reader
//! that borrows its records and verifies four checksums at a time, and
//! the fold that copies each surviving payload once. Every input must give
//! the same header, records, `valid_len` and salvage entries (reasons
//! included), and the same recovery or the same error:
//!
//! - arbitrary bytes, bare or behind a valid header record;
//! - well-formed journals of 1–40 records with payloads of 0–80 bytes, so
//!   that a group of four mixes lengths, each damaged 1–3 times;
//! - every single-byte flip of a 12-record queue journal, so that a bad
//!   record sits at each of the four lanes;
//! - queue journals that exercise the fold's rules: a duplicate `Done`, a
//!   `Done` before its `Submit`, and an orphan `Done` beside salvage.

mod reference;

use proptest::collection::vec;
use proptest::prelude::*;
use rvv_ckpt::queue::{QueueJournal, QueueRecovery};
use rvv_ckpt::{parse_journal, ChaosBackend, ChaosPlan, JournalWriter, StorageBackend};
use std::io;
use std::path::Path;
use std::sync::Arc;

const TAG: &str = "differential";
const PATH: &str = "/d/q.journal";

/// A fresh in-memory backend, as both its concrete and its trait type.
fn memory() -> (Arc<ChaosBackend>, Arc<dyn StorageBackend>) {
    let chaos = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
    let backend: Arc<dyn StorageBackend> = Arc::clone(&chaos) as _;
    (chaos, backend)
}

/// The reader's result on `bytes` equals the reference's, field by field.
fn assert_same_parse(bytes: &[u8]) {
    match (
        parse_journal(bytes, PATH),
        reference::parse_journal(bytes, PATH),
    ) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.header, &old.header[..], "header");
            assert_eq!(new.records, old.records, "records");
            assert_eq!(new.valid_len, old.valid_len, "valid_len");
            assert_eq!(new.salvage, old.salvage, "salvage");
        }
        (Err(new), Err(old)) => {
            assert_eq!((new.kind(), new.to_string()), (old.kind(), old.to_string()))
        }
        (new, old) => panic!(
            "reader {:?}, reference {:?}",
            new.map(|j| j.records.len()),
            old.map(|j| j.records.len())
        ),
    }
}

/// The queue fold's result on `bytes` under `tag` equals the
/// reference's, field by field, or both fail with the same error. Returns
/// the agreed result.
fn same_fold(bytes: &[u8], tag: &str) -> io::Result<QueueRecovery> {
    let (chaos, backend) = memory();
    chaos.install(Path::new(PATH), bytes);
    let new = QueueJournal::resume_on(&backend, Path::new(PATH), tag, 1).map(|(_, rec)| rec);
    let old = reference::resume_fold(bytes, Path::new(PATH), tag);
    match (&new, &old) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.pending, old.pending, "pending");
            assert_eq!(new.completed, old.completed, "completed");
            assert_eq!(new.max_id, old.max_id, "max_id");
            assert_eq!(new.salvage, old.salvage, "salvage");
        }
        (Err(new), Err(old)) => {
            assert_eq!((new.kind(), new.to_string()), (old.kind(), old.to_string()))
        }
        (new, old) => panic!("fold {new:?}, reference {old:?}"),
    }
    new
}

/// A journal written by `JournalWriter`: `header`, then `records`.
fn journal_bytes(header: &[u8], records: &[Vec<u8>]) -> Vec<u8> {
    let (chaos, backend) = memory();
    let mut w = JournalWriter::create_on(&backend, Path::new(PATH), header, 0).unwrap();
    w.append_all(records.iter().map(Vec::as_slice)).unwrap();
    drop(w);
    chaos.contents(Path::new(PATH)).unwrap()
}

/// One queue record to write.
#[derive(Debug, Clone)]
enum Op {
    Submit(u64, Vec<u8>),
    Done(u64, Vec<u8>),
}

/// A queue journal written by `QueueJournal`, one append per op.
fn queue_bytes(ops: &[Op]) -> Vec<u8> {
    let (chaos, backend) = memory();
    let mut q = QueueJournal::create_on(&backend, Path::new(PATH), TAG, 0).unwrap();
    for op in ops {
        match op {
            Op::Submit(id, payload) => q.submit(*id, payload).unwrap(),
            Op::Done(id, payload) => q.complete(*id, payload).unwrap(),
        }
    }
    drop(q);
    chaos.contents(Path::new(PATH)).unwrap()
}

/// `(offset, size)` of each whole frame of a well-formed journal.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        spans.push((pos, 12 + len));
        pos += 12 + len;
    }
    spans
}

/// One way to damage a journal. Positions are taken modulo the current
/// length, frames modulo the frame count.
#[derive(Debug, Clone)]
enum Damage {
    Flip {
        at: usize,
        bit: u8,
    },
    Overwrite {
        at: usize,
        byte: u8,
    },
    Truncate {
        at: usize,
    },
    /// Rewrite a frame's length prefix to run `past + 1` bytes past the
    /// end of the file.
    LongPrefix {
        frame: usize,
        past: u32,
    },
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::Flip { at, bit }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::Overwrite { at, byte }),
        any::<usize>().prop_map(|at| Damage::Truncate { at }),
        (any::<usize>(), 0u32..64).prop_map(|(frame, past)| Damage::LongPrefix { frame, past }),
    ]
}

fn apply(bytes: &mut Vec<u8>, spans: &[(usize, usize)], damage: &Damage) {
    if bytes.is_empty() {
        return;
    }
    let n = bytes.len();
    match *damage {
        Damage::Flip { at, bit } => bytes[at % n] ^= 1 << bit,
        Damage::Overwrite { at, byte } => bytes[at % n] = byte,
        Damage::Truncate { at } => bytes.truncate(at % n),
        Damage::LongPrefix { frame, past } => {
            let (start, _) = spans[frame % spans.len()];
            if start + 12 <= n {
                let len = (n - start - 12) as u64 + 1 + u64::from(past);
                let len = u32::try_from(len).unwrap_or(u32::MAX);
                bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
            }
        }
    }
}

/// Queue ops that keep the writer protocol: a `Done` names a job already
/// submitted (or is written as that job's submit), so a clean journal
/// folds. Duplicate submits and dones carry their own payloads.
fn protocol_ops(raw: &[(bool, u64, Vec<u8>)]) -> Vec<Op> {
    let mut submitted = std::collections::BTreeSet::new();
    raw.iter()
        .map(|(done, id, payload)| {
            if *done && submitted.contains(id) {
                Op::Done(*id, payload.clone())
            } else {
                submitted.insert(*id);
                Op::Submit(*id, payload.clone())
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_as_the_reference_does(
        tail in vec(any::<u8>(), 0..512),
        behind_a_header in any::<bool>(),
    ) {
        let mut bytes = if behind_a_header {
            journal_bytes(b"header", &[])
        } else {
            Vec::new()
        };
        bytes.extend_from_slice(&tail);
        assert_same_parse(&bytes);
    }

    #[test]
    fn damaged_journals_parse_as_the_reference_does(
        header in vec(any::<u8>(), 0..24),
        records in vec(vec(any::<u8>(), 0..=80), 1..=40),
        damages in vec(damage(), 1..=3),
    ) {
        let mut bytes = journal_bytes(&header, &records);
        let spans = frame_spans(&bytes);
        assert_same_parse(&bytes);
        for d in &damages {
            apply(&mut bytes, &spans, d);
        }
        assert_same_parse(&bytes);
    }

    #[test]
    fn queue_journals_fold_as_the_reference_does(
        raw in vec((any::<bool>(), 1u64..10, vec(any::<u8>(), 0..24)), 0..40),
        orphan in (any::<bool>(), any::<usize>(), 10u64..20),
        damages in vec(damage(), 0..=2),
    ) {
        let mut ops = protocol_ops(&raw);
        if let (true, at, id) = orphan {
            ops.insert(at % (ops.len() + 1), Op::Done(id, b"orphan".to_vec()));
        }
        let mut bytes = queue_bytes(&ops);
        let spans = frame_spans(&bytes);
        for d in &damages {
            apply(&mut bytes, &spans, d);
        }
        assert_same_parse(&bytes);
        let _ = same_fold(&bytes, TAG);
    }
}

#[test]
fn every_byte_flip_of_a_twelve_record_journal_matches_the_reference() {
    // Header, then 12 records whose payloads mix lengths: each group of
    // four frames the reader checks in lockstep holds short and long ones.
    let ops = [
        Op::Submit(1, b"a".to_vec()),
        Op::Submit(2, vec![b'b'; 80]),
        Op::Submit(3, Vec::new()),
        Op::Done(2, b"result-two".to_vec()),
        Op::Submit(4, vec![b'd'; 33]),
        Op::Done(1, vec![b'r'; 64]),
        Op::Submit(5, b"job-five".to_vec()),
        Op::Done(4, Vec::new()),
        Op::Submit(6, vec![b'f'; 17]),
        Op::Done(2, b"result-two-again".to_vec()),
        Op::Done(5, vec![b'x'; 45]),
        Op::Submit(7, b"seven".to_vec()),
    ];
    let clean = queue_bytes(&ops);
    assert_eq!(frame_spans(&clean).len(), 13, "header + 12 records");
    let rec = same_fold(&clean, TAG).unwrap();
    assert_eq!(rec.max_id, 7);
    for offset in 0..clean.len() {
        for mask in [0x01u8, 0x80] {
            let mut bytes = clean.clone();
            bytes[offset] ^= mask;
            assert_same_parse(&bytes);
            let _ = same_fold(&bytes, TAG);
        }
    }
}

#[test]
fn the_committed_fixtures_resume_as_the_reference_does() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for name in [
        "clean.queuejournal",
        "interior-bitflip.queuejournal",
        "no-header.queuejournal",
    ] {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        assert_same_parse(&bytes);
        let folded = same_fold(&bytes, "rvv-fixture");
        assert_eq!(folded.is_ok(), name != "no-header.queuejournal", "{name}");
    }
}

#[test]
fn a_duplicate_done_keeps_the_first_result() {
    let bytes = queue_bytes(&[
        Op::Submit(1, b"job".to_vec()),
        Op::Done(1, b"first".to_vec()),
        Op::Done(1, b"second".to_vec()),
    ]);
    let rec = same_fold(&bytes, TAG).unwrap();
    assert_eq!(rec.completed.len(), 1);
    assert_eq!(rec.completed[0].payload, b"first");
}

#[test]
fn a_done_before_its_submit_is_refused_in_a_clean_journal() {
    let bytes = queue_bytes(&[
        Op::Done(1, b"early".to_vec()),
        Op::Submit(1, b"job".to_vec()),
    ]);
    let err = same_fold(&bytes, TAG).unwrap_err();
    assert!(err.to_string().contains("without a submit"), "{err}");
}

#[test]
fn an_orphan_done_beside_salvage_is_recovered() {
    // Job 99 was never submitted; the flipped S2 gives the journal a
    // quarantined range, and with salvage an orphan done is evidence of a
    // lost submit, so it is recovered as completed.
    let ops = [
        Op::Submit(1, b"job-one".to_vec()),
        Op::Submit(2, b"job-two".to_vec()),
        Op::Done(99, b"orphan".to_vec()),
        Op::Submit(3, b"job-three".to_vec()),
    ];
    let mut bytes = queue_bytes(&ops);
    let (start, _) = frame_spans(&bytes)[2];
    bytes[start + 14] ^= 0x08;
    let rec = same_fold(&bytes, TAG).unwrap();
    assert_eq!(rec.salvage.len(), 1);
    let pending: Vec<u64> = rec.pending.iter().map(|i| i.id).collect();
    assert_eq!(pending, [1, 3]);
    assert_eq!(rec.completed.len(), 1);
    assert_eq!(rec.completed[0].id, 99);
    assert_eq!(rec.max_id, 99);
}
