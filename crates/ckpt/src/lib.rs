//! Checkpoint record formats for the scan-vector workspace.
//!
//! Everything here is dependency-free and hand-rolled: a little-endian
//! byte codec ([`ByteWriter`]/[`ByteReader`]), a versioned digest-stamped frame
//! ([`seal`]/[`open`]) used by machine and environment snapshots, a
//! length-prefixed FNV-checksummed write-ahead journal
//! ([`JournalWriter`]/[`parse_journal`]) whose reader tolerates a torn
//! tail *and salvages around mid-stream corruption* (see
//! [`SalvageEntry`]) and borrows every record from the bytes the storage
//! backend returned, the durable job queue built on it
//! ([`queue::QueueJournal`], which the sweep service and journaled batch
//! sweeps both write), and [`write_atomic`] (write-temp-then-rename) so a
//! crash never leaves a truncated manifest.
//!
//! All of it runs over a pluggable [`StorageBackend`] — the real
//! filesystem in production, a deterministic fault-injecting
//! [`ChaosBackend`] under test — so the durability contracts are
//! *exercised*, not assumed.
//!
//! The design contract shared by all the pieces: **a reader either
//! reproduces exactly what the writer recorded or reports why it cannot**
//! — never a silently corrupt value. With salvage, "reports why" is
//! per-record: a flipped byte quarantines one record (offset + reason in
//! the salvage manifest), never the rest of the journal.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub mod doctor;
pub mod queue;
mod storage;

pub use storage::{fs_backend, ChaosBackend, ChaosPlan, FsBackend, StorageBackend, StorageFile};

/// Directory-entry syncs performed (test observability for the
/// rename-durability contract — see [`sync_dir`]).
#[cfg(test)]
pub(crate) static DIR_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Fsync a directory so metadata operations inside it — a rename, a file
/// creation — survive power loss. POSIX makes renames atomic but not
/// durable: until the directory entry itself is synced, a crash can
/// resurrect the old name even though the renamed file's *contents* were
/// fsynced. Called after [`write_atomic`]'s rename and after
/// [`JournalWriter::create_on`] materializes a new journal.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(test)]
    DIR_SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    File::open(dir)?.sync_all()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — the same function (and constants) the batch
/// engine's stable digests are built on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash whose state is `h` over `bytes`.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a`] of four byte strings at once. Over their common length the
/// four lanes are independent multiply chains the CPU overlaps; each lane
/// then finishes its own tail. Lane `i` equals `fnv1a(bytes[i])`.
fn fnv1a_x4(bytes: [&[u8]; 4]) -> [u64; 4] {
    let [a, b, c, d] = bytes;
    let n = a.len().min(b.len()).min(c.len()).min(d.len());
    let mut h = [FNV_OFFSET; 4];
    for (((&x, &y), &z), &w) in a[..n].iter().zip(&b[..n]).zip(&c[..n]).zip(&d[..n]) {
        h[0] = (h[0] ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(y)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(z)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(w)).wrapping_mul(FNV_PRIME);
    }
    [
        fnv1a_from(h[0], &a[n..]),
        fnv1a_from(h[1], &b[n..]),
        fnv1a_from(h[2], &c[n..]),
        fnv1a_from(h[3], &d[n..]),
    ]
}

/// Why a decode failed. Every variant names what was being read, so the
/// error is actionable without a hex dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the field needs.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the field needs.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The frame does not start with the `RVCK` magic.
    BadMagic,
    /// The frame's kind tag differs from the expected one.
    WrongKind {
        /// Kind the caller asked for.
        expected: String,
        /// Kind found in the frame.
        found: String,
    },
    /// The frame's layout version differs from the expected one.
    WrongVersion {
        /// Version the caller understands.
        expected: u16,
        /// Version found in the frame.
        found: u16,
    },
    /// The payload's FNV-1a digest does not match the stamped one.
    DigestMismatch {
        /// Digest stamped in the frame.
        expected: u64,
        /// Digest of the payload actually read.
        found: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A decoded discriminant or field value is outside its domain.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// Bytes remained after the decoder consumed the full structure.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            CodecError::BadMagic => write!(f, "bad frame magic (not an RVCK frame)"),
            CodecError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong frame kind: expected {expected:?}, found {found:?}"
                )
            }
            CodecError::WrongVersion { expected, found } => {
                write!(f, "wrong frame version: expected {expected}, found {found}")
            }
            CodecError::DigestMismatch { expected, found } => write!(
                f,
                "payload digest mismatch: stamped {expected:#018x}, computed {found:#018x}"
            ),
            CodecError::BadUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
            CodecError::BadValue { what, value } => {
                write!(f, "bad value for {what}: {value}")
            }
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Append-only little-endian encoder. All multi-byte integers are LE;
/// byte strings are `u32` length-prefixed.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append raw bytes with no length prefix (fixed-size fields).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32` length prefix followed by the bytes.
    ///
    /// # Panics
    /// If `bytes.len()` exceeds `u32::MAX` (no checkpoint field does).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("field under 4 GiB"));
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over an encoded byte slice; the mirror of [`ByteWriter`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                what,
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take("u8", 1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take("u16", 2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take("u32", 4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take("u64", 8)?.try_into().unwrap()))
    }

    /// Read a bool byte, rejecting anything other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::BadValue {
                what: "bool",
                value: u64::from(v),
            }),
        }
    }

    /// Read `n` raw bytes (fixed-size fields).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take("raw bytes", n)
    }

    /// Read a `u32` length prefix followed by that many bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_u32()? as usize;
        self.take("length-prefixed bytes", n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadUtf8)
    }

    /// Assert every byte was consumed — catches layout drift between
    /// writer and reader versions.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// Frame magic: every sealed snapshot starts with these four bytes.
pub const FRAME_MAGIC: &[u8; 4] = b"RVCK";

/// Wrap `payload` in a versioned, digest-stamped frame:
///
/// ```text
/// [magic "RVCK"][kind: str][version: u16][digest: u64][payload: bytes]
/// ```
///
/// `kind` names the payload layout (e.g. `"rvv-env-snapshot"`); `version`
/// is bumped on any layout change; the digest is FNV-1a over the payload
/// so bit rot is detected before a corrupt snapshot is restored.
pub fn seal(kind: &str, version: u16, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(FRAME_MAGIC);
    w.put_str(kind);
    w.put_u16(version);
    w.put_u64(fnv1a(payload));
    w.put_bytes(payload);
    w.into_bytes()
}

/// Unwrap a frame produced by [`seal`], verifying magic, kind, version,
/// and digest. Returns the payload slice.
pub fn open<'a>(kind: &str, version: u16, bytes: &'a [u8]) -> Result<&'a [u8], CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(4)? != FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let found_kind = r.get_str()?;
    if found_kind != kind {
        return Err(CodecError::WrongKind {
            expected: kind.to_owned(),
            found: found_kind,
        });
    }
    let found_version = r.get_u16()?;
    if found_version != version {
        return Err(CodecError::WrongVersion {
            expected: version,
            found: found_version,
        });
    }
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
    Ok(payload)
}

/// One journal record on disk: `[len: u32][digest: u64][payload: len bytes]`,
/// all little-endian, digest = FNV-1a over the payload.
const RECORD_HEADER: usize = 4 + 8;

/// One quarantined byte range of a journal: a record (or what was left of
/// one) that failed its checksum mid-stream and was skipped, not trusted.
///
/// A salvage entry is *evidence*: the reader keeps the corrupt bytes in
/// place (resume does not truncate them — they sit before `valid_len`),
/// records exactly where and why it skipped, and the layers above decide
/// what the loss means (a lost `Done` record re-runs its job; a lost
/// `Submit` is reconstructed from its surviving `Done`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageEntry {
    /// Byte offset of the quarantined range in the file.
    pub offset: u64,
    /// Length of the quarantined range.
    pub len: u64,
    /// Why the range was quarantined (checksum mismatch, bad length…).
    pub reason: String,
}

impl fmt::Display for SalvageEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quarantined {} bytes at offset {}: {}",
            self.len, self.offset, self.reason
        )
    }
}

/// A write-ahead journal read back from its bytes, borrowing every
/// record from them.
///
/// The first record is the caller's header (typically a [`seal`]ed
/// description of the job list); the rest are data records in append
/// order. `valid_len` is the byte length of the parsed prefix (valid
/// records plus any quarantined ranges) — a torn tail (the expected
/// result of killing a writer mid-append) is dropped, and a resuming
/// writer truncates to `valid_len` before appending. Mid-stream
/// corruption does **not** end the parse: the reader quarantines the bad
/// range into `salvage` and resynchronizes on the next record whose
/// checksum verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal<'a> {
    /// Payload of the header record.
    pub header: &'a [u8],
    /// Data-record payloads, in append order.
    pub records: Vec<&'a [u8]>,
    /// Byte length of the parsed prefix of the file.
    pub valid_len: u64,
    /// Quarantined mid-stream ranges, in file order (empty = clean read).
    pub salvage: Vec<SalvageEntry>,
}

/// The whole frame at `bytes[pos..]`: its payload and stamped digest, or
/// `None` when its header or payload runs past the end of `bytes`.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], u64)> {
    let rest = &bytes[pos..];
    if rest.len() < RECORD_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let stamped = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    Some((rest.get(RECORD_HEADER..RECORD_HEADER + len)?, stamped))
}

/// Is there a well-formed record at `bytes[pos..]`?
fn record_at(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let (payload, stamped) = frame_at(bytes, pos)?;
    (fnv1a(payload) == stamped).then_some((payload, RECORD_HEADER + payload.len()))
}

/// Four well-formed records in a row at `bytes[pos..]`, and the bytes
/// they span. The four checksums run in lockstep ([`fnv1a_x4`]); `None`
/// when a frame is not whole or any checksum fails, and the caller then
/// takes the one-record step. Each frame is judged by its own bytes, as
/// [`record_at`] judges it, so four records taken here are the four the
/// one-record step would take in turn.
fn four_records_at(bytes: &[u8], pos: usize) -> Option<([&[u8]; 4], usize)> {
    let mut frames = [(&bytes[..0], 0u64); 4];
    let mut end = pos;
    for frame in &mut frames {
        *frame = frame_at(bytes, end)?;
        end += RECORD_HEADER + frame.0.len();
    }
    let payloads = frames.map(|(payload, _)| payload);
    let computed = fnv1a_x4(payloads);
    let verified = frames
        .iter()
        .zip(computed)
        .all(|(&(_, stamped), h)| h == stamped);
    verified.then_some((payloads, end - pos))
}

/// Parse journal bytes, salvaging around corruption (see [`Journal`]).
/// Every record is a slice of `bytes`; nothing is copied. Read the bytes
/// through the storage backend ([`StorageBackend::read`]) first.
///
/// Errors only when even the header record is absent or corrupt — the
/// bytes are not a journal, or the writer was killed before the header
/// fsync completed; nothing can be resumed from them.
pub fn parse_journal<'a>(bytes: &'a [u8], label: &str) -> io::Result<Journal<'a>> {
    let mut records = Vec::new();
    let mut salvage = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER {
        if let Some((four, sz)) = four_records_at(bytes, pos) {
            records.extend(four);
            pos += sz;
            continue;
        }
        if let Some((payload, sz)) = record_at(bytes, pos) {
            records.push(payload);
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

/// Appending side of the write-ahead journal.
///
/// `fsync_every = K` syncs the file after every Kth appended record
/// (K = 1, the default in callers, makes every record durable before the
/// append returns); `K = 0` never syncs except in [`JournalWriter::sync`].
/// The header record is always synced immediately so a resumable file
/// exists from the first instant.
#[derive(Debug)]
pub struct JournalWriter {
    file: Box<dyn StorageFile>,
    fsync_every: u32,
    unsynced: u32,
    appended: u64,
}

/// The parent directory of `path` for dir-sync purposes (`.` when the
/// path has no parent component).
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

impl JournalWriter {
    /// Create (truncate) `path` through `backend` and write + fsync the
    /// header record.
    pub fn create_on(
        backend: &Arc<dyn StorageBackend>,
        path: &Path,
        header: &[u8],
        fsync_every: u32,
    ) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                backend.create_dir_all(dir)?;
            }
        }
        let file = backend.create(path)?;
        let mut w = Self {
            file,
            fsync_every,
            unsynced: 0,
            appended: 0,
        };
        w.write_records([header])?;
        w.file.sync_all()?;
        // The journal's directory entry must be durable too, or a crash
        // right after create could lose the whole (fsynced) file.
        backend.sync_dir(&parent_dir(path))?;
        Ok(w)
    }

    /// Reopen an existing journal for appending through `backend`,
    /// truncating the torn tail first: `valid_len` comes from
    /// [`parse_journal`]. The truncation is fsynced before this returns —
    /// without that, a crash immediately after resume could resurrect
    /// the discarded tail and interleave it with freshly appended
    /// records.
    pub fn resume_on(
        backend: &Arc<dyn StorageBackend>,
        path: &Path,
        valid_len: u64,
        fsync_every: u32,
    ) -> io::Result<Self> {
        let mut file = backend.open_append(path, valid_len)?;
        file.sync_all()?;
        Ok(Self {
            file,
            fsync_every,
            unsynced: 0,
            appended: 0,
        })
    }

    /// Frame every payload into one buffer and hand it to the file in a
    /// single write. Returns how many records went out.
    fn write_records<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> io::Result<u32> {
        let mut frames = Vec::new();
        let mut count = 0u32;
        for payload in payloads {
            let len = u32::try_from(payload.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record over 4 GiB"))?;
            frames.extend_from_slice(&len.to_le_bytes());
            frames.extend_from_slice(&fnv1a(payload).to_le_bytes());
            frames.extend_from_slice(payload);
            count += 1;
        }
        if count > 0 {
            self.file.write_all(&frames)?;
        }
        Ok(count)
    }

    /// Append one data record, honouring the fsync granularity. Returns
    /// the number of data records appended through this writer.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.append_all([payload])
    }

    /// Append several data records with one write and at most one fsync:
    /// the records count towards `fsync_every` together, so with K = 1
    /// the whole batch is durable before this returns. A crash mid-write
    /// leaves a torn tail whose whole records are a prefix of the batch.
    /// Returns the number of data records appended through this writer.
    pub fn append_all<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> io::Result<u64> {
        let count = self.write_records(payloads)?;
        self.appended += u64::from(count);
        self.unsynced = self.unsynced.saturating_add(count);
        if self.fsync_every != 0 && self.unsynced >= self.fsync_every {
            self.file.sync_all()?;
            self.unsynced = 0;
        }
        Ok(self.appended)
    }

    /// Data records appended through this writer (excludes replayed ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Force everything written so far to disk.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// Write `bytes` to `path` atomically: write a temp file in the same
/// directory, fsync it, then rename over the target. A crash at any
/// point leaves either the old file or the new one — never a truncated
/// hybrid.
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    write_atomic_on(&fs_backend(), path.as_ref(), bytes.as_ref())
}

/// [`write_atomic`] through an explicit [`StorageBackend`].
pub fn write_atomic_on(
    backend: &Arc<dyn StorageBackend>,
    path: &Path,
    bytes: &[u8],
) -> io::Result<()> {
    let dir = parent_dir(path);
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = backend.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        backend.rename(&tmp, path)?;
        // The rename is atomic but not durable until the directory entry
        // is synced — without this, power loss after `write_atomic`
        // returns could resurrect the old file.
        backend.sync_dir(&dir)
    })();
    if result.is_err() {
        let _ = backend.remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rvv-ckpt-{tag}-{}-{:p}",
            std::process::id(),
            &tag as *const _
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn codec_round_trips_every_field_kind() {
        let mut w = ByteWriter::new();
        w.put_u8(0xab);
        w.put_u16(0xbeef);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"hello");
        w.put_str("scan-vector \u{2714}");
        w.put_raw(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u16().unwrap(), 0xbeef);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "scan-vector \u{2714}");
        assert_eq!(r.get_raw(3).unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_reports_truncation_not_garbage() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(
            r.get_u64(),
            Err(CodecError::Truncated {
                what: "u64",
                need: 8,
                have: 5
            })
        );
    }

    #[test]
    fn bool_rejects_out_of_domain_bytes() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(
            r.get_bool(),
            Err(CodecError::BadValue {
                what: "bool",
                value: 2
            })
        );
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let r = ByteReader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { count: 2 }));
    }

    #[test]
    fn frame_seal_open_round_trip() {
        let sealed = seal("test-kind", 3, b"payload bytes");
        assert_eq!(open("test-kind", 3, &sealed).unwrap(), b"payload bytes");
    }

    #[test]
    fn frame_rejects_wrong_kind_version_magic_and_corruption() {
        let sealed = seal("test-kind", 3, b"payload bytes");
        assert!(matches!(
            open("other", 3, &sealed),
            Err(CodecError::WrongKind { .. })
        ));
        assert!(matches!(
            open("test-kind", 4, &sealed),
            Err(CodecError::WrongVersion {
                expected: 4,
                found: 3
            })
        ));
        let mut bad_magic = sealed.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(open("test-kind", 3, &bad_magic), Err(CodecError::BadMagic));
        // Flip each payload byte in turn: every corruption is caught.
        for i in sealed.len() - b"payload bytes".len()..sealed.len() {
            let mut corrupt = sealed.clone();
            corrupt[i] ^= 0x01;
            assert!(matches!(
                open("test-kind", 3, &corrupt),
                Err(CodecError::DigestMismatch { .. })
            ));
        }
    }

    #[test]
    fn journal_round_trip_and_torn_tail_recovery() {
        let dir = tmpdir("journal");
        let path = dir.join("t.journal");
        let records: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 3 + i as usize]).collect();
        {
            let mut w = JournalWriter::create_on(&fs_backend(), &path, b"HDR", 1).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            assert_eq!(w.appended(), 5);
        }
        let bytes = fs_backend().read(&path).unwrap();
        let j = parse_journal(&bytes, "t.journal").unwrap();
        assert_eq!(j.header, b"HDR");
        assert_eq!(j.records, records);
        assert_eq!(j.valid_len, fs::metadata(&path).unwrap().len());

        // Tear the tail mid-record: the valid prefix survives.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        let bytes = fs_backend().read(&path).unwrap();
        let torn = parse_journal(&bytes, "t.journal").unwrap();
        assert_eq!(torn.records, records[..4].to_vec());

        // Resume truncates the tear and appends cleanly.
        {
            let mut w = JournalWriter::resume_on(&fs_backend(), &path, torn.valid_len, 1).unwrap();
            w.append(&records[4]).unwrap();
        }
        let bytes = fs_backend().read(&path).unwrap();
        let healed = parse_journal(&bytes, "t.journal").unwrap();
        assert_eq!(healed.records, records);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_append_is_one_write_one_sync_and_tears_to_a_prefix() {
        let records: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 5 + i as usize]).collect();
        let path = Path::new("/j/t.journal");
        let single = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        {
            let backend: Arc<dyn StorageBackend> = single.clone();
            let mut w = JournalWriter::create_on(&backend, path, b"HDR", 1).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let batched = Arc::new(ChaosBackend::new(ChaosPlan::quiet()));
        let backend: Arc<dyn StorageBackend> = batched.clone();
        let mut w = JournalWriter::create_on(&backend, path, b"HDR", 1).unwrap();
        let before = batched.ops();
        assert_eq!(w.append_all(records.iter().map(Vec::as_slice)).unwrap(), 6);
        assert_eq!(batched.ops() - before, 2, "one write, one fsync");
        assert_eq!(single.contents(path), batched.contents(path));

        // A crash between the batch's write and its fsync keeps a seeded
        // byte prefix of the batch: replay sees a whole-record prefix.
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let chaos = Arc::new(ChaosBackend::new(ChaosPlan {
                seed,
                torn_crash: true,
                ..ChaosPlan::quiet()
            }));
            let backend: Arc<dyn StorageBackend> = chaos.clone();
            let mut w = JournalWriter::create_on(&backend, path, b"HDR", 0).unwrap();
            w.append_all(records.iter().map(Vec::as_slice)).unwrap();
            chaos.crash();
            let bytes = backend.read(path).unwrap();
            let j = parse_journal(&bytes, "t.journal").unwrap();
            assert!(j.salvage.is_empty());
            assert_eq!(j.records, records[..j.records.len()].to_vec());
            seen.insert(j.records.len());
        }
        assert!(
            seen.len() > 1,
            "the seeds tear at different records: {seen:?}"
        );
    }

    #[test]
    fn journal_with_corrupt_record_keeps_the_prefix() {
        let dir = tmpdir("corrupt");
        let path = dir.join("t.journal");
        {
            let mut w = JournalWriter::create_on(&fs_backend(), &path, b"H", 0).unwrap();
            w.append(b"first").unwrap();
            w.append(b"second").unwrap();
            w.sync().unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // corrupt the last record's payload
        fs::write(&path, &bytes).unwrap();
        let j = parse_journal(&bytes, "t.journal").unwrap();
        assert_eq!(j.records, vec![b"first".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_without_header_is_an_error() {
        let dir = tmpdir("nohdr");
        let path = dir.join("t.journal");
        fs::write(&path, [0u8; 7]).unwrap();
        assert!(parse_journal(&fs_backend().read(&path).unwrap(), "t.journal").is_err());
        fs::write(&path, b"").unwrap();
        assert!(parse_journal(&fs_backend().read(&path).unwrap(), "t.journal").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = tmpdir("atomic");
        let path = dir.join("out.txt");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_syncs_the_directory_entry() {
        use std::sync::atomic::Ordering;
        // The file was always fsynced; the *rename* wasn't durable until
        // the parent directory fd was synced too. Pin that every
        // write_atomic performs the dir sync (JournalWriter::create_on pins
        // the same contract for journal creation).
        let dir = tmpdir("dirsync");
        let path = dir.join("out.txt");
        let before = DIR_SYNCS.load(Ordering::Relaxed);
        write_atomic(&path, b"payload").unwrap();
        let after_write = DIR_SYNCS.load(Ordering::Relaxed);
        assert!(
            after_write > before,
            "write_atomic must fsync the parent directory after the rename"
        );
        JournalWriter::create_on(&fs_backend(), &dir.join("t.journal"), b"H", 1).unwrap();
        assert!(
            DIR_SYNCS.load(Ordering::Relaxed) > after_write,
            "JournalWriter::create_on must fsync the parent directory"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
