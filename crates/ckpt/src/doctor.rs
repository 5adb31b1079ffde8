//! Health checks and repair for durable state — the library behind the
//! `rvv-doctor` bin.
//!
//! [`inspect`] classifies a file by sniffing its bytes (an `RVCK` sealed
//! frame, a record-framed journal, or a plain `results/` artifact) and
//! grades it on a three-step ladder:
//!
//! - [`Health::Clean`] — every byte verifies.
//! - [`Health::Salvageable`] — damaged but recoverable: a torn tail to
//!   truncate, or quarantined mid-stream ranges with every other record
//!   intact. The salvage manifest says exactly what was lost.
//! - [`Health::Fatal`] — nothing trustworthy can be read (corrupt journal
//!   header, broken frame, empty artifact).
//!
//! [`scrub`] additionally writes a `<path>.salvage.txt` manifest next to
//! a damaged file, and [`repair`] rewrites a salvageable journal
//! compacted to its verified records (atomically — a crash mid-repair
//! leaves the original untouched). `records_digest` is an FNV-1a digest
//! over the length-framed record payloads, stable across compaction, so
//! CI can pin that a salvaged journal matches a golden copy.

use crate::{
    fnv1a, parse_journal, write_atomic_on, ByteReader, ByteWriter, CodecError, SalvageEntry,
    StorageBackend,
};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Verdict of an [`inspect`] pass, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Every byte verifies.
    Clean,
    /// Damaged but recoverable; see the report's salvage entries/notes.
    Salvageable,
    /// Nothing trustworthy can be read from the file.
    Fatal,
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Health::Clean => write!(f, "clean"),
            Health::Salvageable => write!(f, "salvageable"),
            Health::Fatal => write!(f, "FATAL"),
        }
    }
}

/// What [`inspect`] found out about one file.
#[derive(Debug, Clone)]
pub struct Report {
    /// The inspected path.
    pub path: PathBuf,
    /// Sniffed file class: `journal(<kind>)`, `snapshot(<kind> v<n>)`,
    /// or `artifact`.
    pub kind: String,
    /// The verdict.
    pub health: Health,
    /// Human-readable findings, one per line.
    pub notes: Vec<String>,
    /// Verified data records (journals only).
    pub records: usize,
    /// Quarantined ranges (journals only; empty = none).
    pub salvage: Vec<SalvageEntry>,
    /// FNV-1a over the length-framed verified record payloads (header
    /// first). Stable across compaction — the anchor for golden digests.
    pub records_digest: Option<u64>,
}

impl Report {
    fn artifact(path: &Path, health: Health, note: String) -> Report {
        Report {
            path: path.to_path_buf(),
            kind: "artifact".to_owned(),
            health,
            notes: vec![note],
            records: 0,
            salvage: Vec::new(),
            records_digest: None,
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} {}", self.path.display(), self.health, self.kind)?;
        if let Some(d) = self.records_digest {
            write!(f, " records={} records_digest={d:#018x}", self.records)?;
        }
        for n in &self.notes {
            write!(f, "\n  {n}")?;
        }
        for s in &self.salvage {
            write!(f, "\n  {s}")?;
        }
        Ok(())
    }
}

/// Digest stable across journal compaction: FNV-1a over each verified
/// record payload framed by its `u32` length, header record first.
fn records_digest(header: &[u8], records: &[&[u8]]) -> u64 {
    let mut w = ByteWriter::new();
    w.put_bytes(header);
    for r in records {
        w.put_bytes(r);
    }
    fnv1a(&w.into_bytes())
}

/// Parse an `RVCK` frame without knowing its kind/version up front.
fn sniff_frame(bytes: &[u8]) -> Result<(String, u16, u64), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(4)? != crate::FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let kind = r.get_str()?;
    let version = r.get_u16()?;
    let stamped = r.get_u64()?;
    let payload = r.get_bytes()?;
    r.finish()?;
    let computed = fnv1a(payload);
    if computed != stamped {
        return Err(CodecError::DigestMismatch {
            expected: stamped,
            found: computed,
        });
    }
    Ok((kind, version, computed))
}

/// The journal header payload is usually itself a sealed frame; name its
/// kind when it is.
fn header_kind(header: &[u8]) -> String {
    match sniff_frame(header) {
        Ok((kind, version, _)) => format!("{kind} v{version}"),
        Err(_) => "raw header".to_owned(),
    }
}

/// Classify and grade one file. Never errors: an unreadable file is a
/// [`Health::Fatal`] report, not an `Err`.
pub fn inspect(backend: &Arc<dyn StorageBackend>, path: &Path) -> Report {
    if !backend.exists(path) {
        return Report::artifact(path, Health::Fatal, "file does not exist".to_owned());
    }
    let bytes = match backend.read(path) {
        Ok(b) => b,
        Err(e) => return Report::artifact(path, Health::Fatal, format!("read failed: {e}")),
    };
    if bytes.starts_with(crate::FRAME_MAGIC) {
        return match sniff_frame(&bytes) {
            Ok((kind, version, digest)) => Report {
                path: path.to_path_buf(),
                kind: format!("snapshot({kind} v{version})"),
                health: Health::Clean,
                notes: vec![format!("payload digest {digest:#018x}")],
                records: 0,
                salvage: Vec::new(),
                records_digest: None,
            },
            Err(e) => Report {
                path: path.to_path_buf(),
                kind: "snapshot".to_owned(),
                health: Health::Fatal,
                notes: vec![format!("frame does not verify: {e}")],
                records: 0,
                salvage: Vec::new(),
                records_digest: None,
            },
        };
    }
    match parse_journal(&bytes, &path.display().to_string()) {
        Ok(j) => {
            let torn = j.valid_len < bytes.len() as u64;
            let mut notes = Vec::new();
            if torn {
                notes.push(format!(
                    "torn tail: {} trailing bytes past the valid prefix (truncated on resume)",
                    bytes.len() as u64 - j.valid_len
                ));
            }
            let health = if torn || !j.salvage.is_empty() {
                Health::Salvageable
            } else {
                Health::Clean
            };
            Report {
                path: path.to_path_buf(),
                kind: format!("journal({})", header_kind(j.header)),
                health,
                records: j.records.len(),
                records_digest: Some(records_digest(j.header, &j.records)),
                salvage: j.salvage,
                notes,
            }
        }
        Err(e) => {
            // Not a parsable journal. Plain-text artifacts (manifests,
            // results tables) are fine as long as they hold valid UTF-8.
            if looks_like_journal(&bytes) {
                Report::artifact(path, Health::Fatal, e.to_string())
            } else if bytes.is_empty() {
                Report::artifact(path, Health::Fatal, "empty file".to_owned())
            } else if std::str::from_utf8(&bytes).is_err() {
                Report::artifact(
                    path,
                    Health::Fatal,
                    "binary file is neither a frame nor a journal".to_owned(),
                )
            } else {
                Report::artifact(
                    path,
                    Health::Clean,
                    format!("text artifact, {} bytes", bytes.len()),
                )
            }
        }
    }
}

/// Heuristic: did these bytes *intend* to be a journal? A journal's
/// first record payload is a sealed frame, so the `RVCK` magic appears
/// at byte 12 even when the record checksum around it was destroyed.
fn looks_like_journal(bytes: &[u8]) -> bool {
    bytes.len() > crate::FRAME_MAGIC.len() + 12 && &bytes[12..16] == crate::FRAME_MAGIC
}

/// Render the salvage manifest for a damaged file.
fn manifest_text(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# salvage manifest for {}\nhealth={} kind={}\n",
        report.path.display(),
        report.health,
        report.kind
    ));
    if let Some(d) = report.records_digest {
        out.push_str(&format!(
            "records={} records_digest={d:#018x}\n",
            report.records
        ));
    }
    for n in &report.notes {
        out.push_str(n);
        out.push('\n');
    }
    for s in &report.salvage {
        out.push_str(&s.to_string());
        out.push('\n');
    }
    out
}

/// [`inspect`], plus: when the file is damaged (salvageable or fatal),
/// write a `<path>.salvage.txt` manifest beside it describing the damage.
pub fn scrub(backend: &Arc<dyn StorageBackend>, path: &Path) -> io::Result<Report> {
    let report = inspect(backend, path);
    if report.health != Health::Clean {
        let manifest = manifest_path(path);
        write_atomic_on(backend, &manifest, manifest_text(&report).as_bytes())?;
    }
    Ok(report)
}

/// Where [`scrub`] writes its manifest for `path`.
pub fn manifest_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".salvage.txt");
    path.with_file_name(name)
}

/// Repair a salvageable journal in place: rewrite it compacted to its
/// header plus verified records (atomic — the original survives a crash
/// mid-repair), dropping quarantined ranges and the torn tail. Returns
/// the post-repair report. Clean files are left untouched; fatal files
/// are returned as-is (there is nothing trustworthy to rewrite).
pub fn repair(backend: &Arc<dyn StorageBackend>, path: &Path) -> io::Result<Report> {
    let before = inspect(backend, path);
    if before.health != Health::Salvageable || !before.kind.starts_with("journal") {
        return Ok(before);
    }
    let bytes = backend.read(path)?;
    let j = parse_journal(&bytes, &path.display().to_string())?;
    let mut compact = Vec::new();
    let mut put = |payload: &[u8]| {
        let len = payload.len() as u32;
        compact.extend_from_slice(&len.to_le_bytes());
        compact.extend_from_slice(&fnv1a(payload).to_le_bytes());
        compact.extend_from_slice(payload);
    };
    for payload in std::iter::once(j.header).chain(j.records) {
        put(payload);
    }
    write_atomic_on(backend, path, &compact)?;
    Ok(inspect(backend, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{seal, ChaosBackend, ChaosPlan, JournalWriter};

    fn chaos() -> (Arc<ChaosBackend>, Arc<dyn StorageBackend>) {
        let c = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        let b: Arc<dyn StorageBackend> = Arc::clone(&c) as _;
        (c, b)
    }

    fn journal_on(b: &Arc<dyn StorageBackend>, path: &Path, n: u8) {
        let header = seal("doctor-test", 1, b"jobs");
        let mut w = JournalWriter::create_on(b, path, &header, 1).unwrap();
        for i in 0..n {
            w.append(format!("record-{i}").as_bytes()).unwrap();
        }
    }

    #[test]
    fn clean_journal_reports_clean_with_a_digest() {
        let (_, b) = chaos();
        let path = Path::new("/j/clean.journal");
        journal_on(&b, path, 4);
        let r = inspect(&b, path);
        assert_eq!(r.health, Health::Clean);
        assert_eq!(r.records, 4);
        assert!(r.kind.starts_with("journal(doctor-test v1"), "{}", r.kind);
        assert!(r.records_digest.is_some());
    }

    #[test]
    fn interior_corruption_is_salvageable_and_repair_compacts_it() {
        let (c, b) = chaos();
        let path = Path::new("/j/mid.journal");
        journal_on(&b, path, 4);
        let clean = inspect(&b, path);

        // Corrupt an interior record's payload byte (the header record is
        // long; aim well past it, inside record 1's payload).
        let bytes = c.contents(path).unwrap();
        let hdr_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let rec1_payload = 12 + hdr_len + 12 + 2; // into "record-0"
        c.flip_at_rest(path, rec1_payload as u64, 0x40);

        let r = inspect(&b, path);
        assert_eq!(r.health, Health::Salvageable);
        assert_eq!(r.records, 3, "three of four records survive");
        assert_eq!(r.salvage.len(), 1);
        assert_ne!(r.records_digest, clean.records_digest);

        let repaired = repair(&b, path).unwrap();
        assert_eq!(repaired.health, Health::Clean);
        assert_eq!(repaired.records, 3);
        assert_eq!(repaired.records_digest, r.records_digest);
    }

    #[test]
    fn torn_tail_is_salvageable_and_scrub_writes_a_manifest() {
        let (c, b) = chaos();
        let path = Path::new("/j/torn.journal");
        journal_on(&b, path, 3);
        let len = c.contents(path).unwrap().len();
        let truncated = c.contents(path).unwrap()[..len - 3].to_vec();
        c.install(path, &truncated);

        let r = scrub(&b, path).unwrap();
        assert_eq!(r.health, Health::Salvageable);
        assert_eq!(r.records, 2);
        let manifest = c.contents(&manifest_path(path)).unwrap();
        let text = String::from_utf8(manifest).unwrap();
        assert!(text.contains("torn tail"), "{text}");
    }

    #[test]
    fn destroyed_header_is_fatal() {
        let (c, b) = chaos();
        let path = Path::new("/j/hdr.journal");
        journal_on(&b, path, 2);
        c.flip_at_rest(path, 16, 0xff); // inside the header record payload
        let r = inspect(&b, path);
        assert_eq!(r.health, Health::Fatal);
    }

    #[test]
    fn snapshots_and_artifacts_classify_correctly() {
        let (c, b) = chaos();
        let snap = Path::new("/s/state.g0");
        c.install(snap, &seal("snap-kind", 2, b"state"));
        let r = inspect(&b, snap);
        assert_eq!(r.health, Health::Clean);
        assert_eq!(r.kind, "snapshot(snap-kind v2)");

        c.flip_at_rest(snap, 20, 0x01);
        assert_eq!(inspect(&b, snap).health, Health::Fatal);

        let txt = Path::new("/s/results.txt");
        c.install(txt, b"algo,n,cycles\nplus_scan,1024,99\n");
        assert_eq!(inspect(&b, txt).health, Health::Clean);

        let empty = Path::new("/s/empty.txt");
        c.install(empty, b"");
        assert_eq!(inspect(&b, empty).health, Health::Fatal);

        assert_eq!(
            inspect(&b, Path::new("/s/nope")).health,
            Health::Fatal,
            "missing file"
        );
    }
}
