//! The journal reader and the queue fold as they stood before the reader
//! borrowed its records: one checksum per step, and every payload copied
//! into the journal, into the fold's maps and into the recovery. The loop
//! bodies are kept verbatim as the oracle of `tests/differential.rs`.

use rvv_ckpt::queue::{QueueItem, QueueRecovery};
use rvv_ckpt::{fnv1a, open, ByteReader, SalvageEntry};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One journal record on disk: `[len: u32][digest: u64][payload: len bytes]`,
/// all little-endian, digest = FNV-1a over the payload.
const RECORD_HEADER: usize = 4 + 8;

const HEADER_KIND: &str = "rvv-queue-journal";
const HEADER_VERSION: u16 = 1;
const TAG_SUBMIT: u8 = 1;
const TAG_DONE: u8 = 2;

/// A journal read back with every record copied out of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    /// Payload of the header record.
    pub header: Vec<u8>,
    /// Data-record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the parsed prefix of the file.
    pub valid_len: u64,
    /// Quarantined mid-stream ranges, in file order (empty = clean read).
    pub salvage: Vec<SalvageEntry>,
}

/// Is there a well-formed record at `bytes[pos..]`?
fn record_at(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let rest = &bytes[pos..];
    if rest.len() < RECORD_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let stamped = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    let payload = rest.get(RECORD_HEADER..RECORD_HEADER + len)?;
    if fnv1a(payload) != stamped {
        return None;
    }
    Some((payload, RECORD_HEADER + len))
}

/// Parse journal bytes, salvaging around corruption (see `Journal`).
///
/// Errors only when even the header record is absent or corrupt — the
/// bytes are not a journal, or the writer was killed before the header
/// fsync completed; nothing can be resumed from them.
pub fn parse_journal(bytes: &[u8], label: &str) -> io::Result<Journal> {
    let mut records = Vec::new();
    let mut salvage = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER {
        if let Some((payload, sz)) = record_at(bytes, pos) {
            records.push(payload.to_vec());
            pos += sz;
            continue;
        }
        // Bad record. Distinguish a torn tail (nothing valid follows —
        // truncate and resume) from mid-stream corruption (a later record
        // still verifies — quarantine this range and resynchronize). The
        // 64-bit payload checksum makes a false resync vanishingly
        // unlikely: a candidate must checksum-verify to be accepted.
        let reason = {
            let rest = &bytes[pos..];
            let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            if rest.len() < RECORD_HEADER + len {
                format!(
                    "length prefix {len} outruns the file ({} bytes remain)",
                    rest.len() - RECORD_HEADER
                )
            } else {
                let stamped = u64::from_le_bytes(rest[4..12].try_into().unwrap());
                let computed = fnv1a(&rest[RECORD_HEADER..RECORD_HEADER + len]);
                format!("payload checksum mismatch (stamped {stamped:#018x}, computed {computed:#018x})")
            }
        };
        let resync = (pos + 1..=bytes.len().saturating_sub(RECORD_HEADER))
            .find(|&cand| record_at(bytes, cand).is_some());
        match resync {
            Some(cand) => {
                if records.is_empty() {
                    // The *header* record is the corrupt one: the journal
                    // cannot be bound to an owner, so nothing after it can
                    // be trusted either.
                    break;
                }
                salvage.push(SalvageEntry {
                    offset: pos as u64,
                    len: (cand - pos) as u64,
                    reason,
                });
                pos = cand;
            }
            None => break, // torn tail: truncate here on resume
        }
    }
    if records.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{label}: no valid journal header record"),
        ));
    }
    let header = records.remove(0);
    Ok(Journal {
        header,
        records,
        valid_len: pos as u64,
        salvage,
    })
}

/// One decoded queue record, its payload copied.
enum QueueEntry {
    Submit { id: u64, payload: Vec<u8> },
    Done { id: u64, payload: Vec<u8> },
}

fn decode_entry(record: &[u8]) -> io::Result<QueueEntry> {
    let mut r = ByteReader::new(record);
    let entry = (|| {
        let tag = r.get_u8()?;
        let id = r.get_u64()?;
        let payload = r.get_bytes()?.to_vec();
        Ok::<_, rvv_ckpt::CodecError>((tag, id, payload))
    })()
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("queue record: {e}")))?;
    r.finish()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("queue record: {e}")))?;
    match entry {
        (TAG_SUBMIT, id, payload) => Ok(QueueEntry::Submit { id, payload }),
        (TAG_DONE, id, payload) => Ok(QueueEntry::Done { id, payload }),
        (tag, id, _) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("queue record for job {id} has unknown tag {tag}"),
        )),
    }
}

/// `QueueJournal::resume_on`'s header check and fold over `bytes`, read
/// from `path`; the writer it reopens is left out.
pub fn resume_fold(bytes: &[u8], path: &Path, tag: &str) -> io::Result<QueueRecovery> {
    let journal = parse_journal(bytes, &path.display().to_string())?;
    let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let payload = open(HEADER_KIND, HEADER_VERSION, &journal.header)
        .map_err(|e| bad(format!("{}: {e}", path.display())))?;
    let mut r = ByteReader::new(payload);
    let found = r
        .get_str()
        .map_err(|e| bad(format!("{}: {e}", path.display())))?;
    if found != tag {
        return Err(bad(format!(
            "{}: journal belongs to {found:?}, expected {tag:?}",
            path.display()
        )));
    }
    let mut submitted: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut completed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut max_id = 0u64;
    for record in &journal.records {
        match decode_entry(record)? {
            QueueEntry::Submit { id, payload } => {
                if submitted.insert(id, payload).is_none() {
                    order.push(id);
                }
                max_id = max_id.max(id);
            }
            QueueEntry::Done { id, payload } => {
                if !submitted.contains_key(&id) && journal.salvage.is_empty() {
                    // A clean journal with an orphan done means the
                    // writer protocol was violated; replay refuses
                    // rather than inventing history.
                    return Err(bad(format!(
                        "{}: done record for job {id} without a submit",
                        path.display()
                    )));
                }
                // The submit record was evidently inside a
                // quarantined range: the completion is the proof
                // the job was accepted *and* finished, so recover
                // it as completed rather than discarding it.
                // First completion wins: a crash can land between a
                // re-run and its done append, so duplicates are legal
                // — and byte-identical for deterministic jobs anyway.
                completed.entry(id).or_insert(payload);
                max_id = max_id.max(id);
            }
        }
    }
    let recovery = QueueRecovery {
        pending: order
            .iter()
            .filter(|id| !completed.contains_key(id))
            .map(|id| QueueItem {
                id: *id,
                payload: submitted[id].clone(),
            })
            .collect(),
        completed: completed
            .into_iter()
            .map(|(id, payload)| QueueItem { id, payload })
            .collect(),
        max_id,
        salvage: journal.salvage,
    };
    Ok(recovery)
}
