//! Storage backends: the file operations the journal/snapshot layer is
//! written against, abstracted so the *same* durability code runs on the
//! real filesystem and on a deterministic fault-injecting stand-in.
//!
//! Two implementations ship:
//!
//! * [`FsBackend`] — thin `std::fs` passthrough; what production uses.
//! * [`ChaosBackend`] — an in-memory filesystem with an explicit model of
//!   what is *durable* (would survive power loss) versus merely *visible*
//!   (in the page cache), plus seeded fault injection: transient write
//!   errors, short writes, read bitflips, lying fsyncs, and
//!   not-yet-durable directory entries (rename reordering). A
//!   [`ChaosBackend::crash`] call drops everything non-durable — the
//!   storage-layer analogue of `kill -9` plus power loss — with a seeded
//!   torn tail, so crash/recovery properties are testable without real
//!   power cuts.
//!
//! Fault points are keyed `(seed, op ordinal)` through the crate's
//! [`XorShift64`] and [`mix64`], the stream `rvv-fault`'s plans draw from:
//! a given plan faults the same operations on every run, which is what
//! makes the storage-chaos ablation reproducible.

use crate::{mix64, XorShift64};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// A writable file handle vended by a [`StorageBackend`]. Only the two
/// operations the journal layer needs: append bytes, force them durable.
pub trait StorageFile: fmt::Debug + Send {
    /// Append `buf` at the current position (journal files are only ever
    /// written sequentially).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Make everything written so far durable (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The file operations [`crate::JournalWriter`], [`crate::queue::QueueJournal`],
/// and [`crate::write_atomic_on`] are written against. Implementations
/// must be shareable across threads (the serve layer holds one behind an
/// `Arc` for its whole lifetime).
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create (truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Open an existing file for appending, truncating it to
    /// `truncate_to` bytes first and positioning at the new end.
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn StorageFile>>;
    /// Atomically rename `from` to `to` (visible immediately; durable
    /// only after [`StorageBackend::sync_dir`] on the parent).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory so renames/creations inside it are durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Does `path` currently exist (visibly)?
    fn exists(&self, path: &Path) -> bool;
}

/// The shared `std::fs` backend (zero-sized; one `Arc` serves everyone).
pub fn fs_backend() -> Arc<dyn StorageBackend> {
    static FS: OnceLock<Arc<dyn StorageBackend>> = OnceLock::new();
    Arc::clone(FS.get_or_init(|| Arc::new(FsBackend)))
}

/// The real filesystem: every trait method is a direct `std::fs` call.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsBackend;

#[derive(Debug)]
struct FsFile(File);

impl StorageFile for FsFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl StorageBackend for FsBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(FsFile(File::create(path)?)))
    }
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn StorageFile>> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(truncate_to)?;
        file.seek(SeekFrom::Start(truncate_to))?;
        Ok(Box::new(FsFile(file)))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        crate::sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ------------------------------------------------------------- chaos --

/// The per-op decision stream for every injected storage fault, keyed by
/// `(seed, ordinal)`. Its state is `mix64(seed) ^ mix64(ordinal + 1)`,
/// not [`XorShift64::from_pair`]'s keying, so every committed storage
/// draw stays where it was.
fn op_rng(seed: u64, ordinal: u64) -> XorShift64 {
    XorShift64::from_state(mix64(seed) ^ mix64(ordinal.wrapping_add(1)))
}

/// Does a seeded periodic fault fire at this op ordinal? `period = 0`
/// never fires; `period = 1` always fires; period `p` fires on roughly
/// one op in `p`, at ordinals that are a pure function of the seed.
fn fires(seed: u64, salt: u64, ordinal: u64, period: u64) -> bool {
    period != 0
        && op_rng(seed ^ mix64(salt), ordinal)
            .next_u64()
            .is_multiple_of(period)
}

const SALT_WRITE: u64 = 0x57;
const SALT_READ: u64 = 0x52;
const SALT_FSYNC: u64 = 0x46;
const SALT_TORN: u64 = 0x54;

/// What a [`ChaosBackend`] injects, and when. Everything is keyed off
/// `seed` and the backend's monotonically increasing op ordinal, so a
/// plan's faults land identically on every run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Seed for every periodic decision below.
    pub seed: u64,
    /// Fail roughly one write in `N` with a transient `io::Error`
    /// (`Some(1)` fails every write). `None` = writes never error.
    pub write_error_period: Option<u64>,
    /// Hard device failure: every write op *after* this many write ops
    /// fails. Models a disk going away mid-service — the trigger for the
    /// serve layer's storage circuit breaker.
    pub fail_writes_after: Option<u64>,
    /// Failing writes first persist a seeded prefix of the buffer (a
    /// short write), instead of nothing, before returning the error.
    pub short_writes: bool,
    /// Flip one seeded bit in roughly one read in `N` (the *returned*
    /// bytes only — at-rest corruption is [`ChaosBackend::flip_at_rest`]).
    pub read_bitflip_period: Option<u64>,
    /// Roughly one fsync in `N` lies: returns `Ok` without advancing
    /// durability. A later [`ChaosBackend::crash`] exposes the lie.
    pub drop_fsync_period: Option<u64>,
    /// On [`ChaosBackend::crash`], keep a seeded prefix of each file's
    /// non-durable tail (a torn write) instead of dropping it whole.
    pub torn_crash: bool,
}

impl ChaosPlan {
    /// A plan that injects nothing: the backend behaves as a perfectly
    /// reliable in-memory filesystem (useful on its own for hermetic
    /// tests and fixture generation).
    pub fn quiet() -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            write_error_period: None,
            fail_writes_after: None,
            short_writes: false,
            read_bitflip_period: None,
            drop_fsync_period: None,
            torn_crash: false,
        }
    }
}

impl Default for ChaosPlan {
    fn default() -> ChaosPlan {
        ChaosPlan::quiet()
    }
}

/// One in-memory inode. `flushed` is the durable prefix length: bytes
/// beyond it exist only in the "page cache" and die in a crash (modulo
/// the seeded torn tail).
#[derive(Debug, Clone, Default)]
struct Inode {
    data: Vec<u8>,
    flushed: usize,
}

#[derive(Debug, Default)]
struct ChaosState {
    /// The visible namespace: what `open`/`read`/`exists` see now.
    visible: BTreeMap<PathBuf, u64>,
    /// The durable namespace: the directory entries that are on "disk".
    /// A crash restores exactly these names.
    durable: BTreeMap<PathBuf, u64>,
    inodes: BTreeMap<u64, Inode>,
    dirs: Vec<PathBuf>,
    next_inode: u64,
    write_ops: u64,
    ops: u64,
    crashes: u64,
}

impl ChaosState {
    fn inode(&mut self, path: &Path) -> Option<&mut Inode> {
        let id = *self.visible.get(path)?;
        self.inodes.get_mut(&id)
    }
}

/// The deterministic fault-injecting in-memory backend (see the module
/// docs). All state sits behind one mutex; handles share it by `Arc`.
#[derive(Debug)]
pub struct ChaosBackend {
    plan: ChaosPlan,
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosBackend {
    /// An empty in-memory filesystem injecting `plan`'s faults.
    pub fn new(plan: ChaosPlan) -> ChaosBackend {
        ChaosBackend {
            plan,
            state: Arc::new(Mutex::new(ChaosState::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total backend operations so far (the fault ordinal clock).
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// The visible bytes of `path`, fault-free (test observability).
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        let mut st = self.lock();
        st.inode(path).map(|i| i.data.clone())
    }

    /// The durable bytes of `path`: what a crash without a torn tail
    /// would leave of it (test observability).
    pub fn durable(&self, path: &Path) -> Option<Vec<u8>> {
        let st = self.lock();
        let inode = st.inodes.get(st.durable.get(path)?)?;
        Some(inode.data[..inode.flushed].to_vec())
    }

    /// Install a file as fully durable content (fixture setup).
    pub fn install(&self, path: &Path, bytes: &[u8]) {
        let mut st = self.lock();
        let id = st.next_inode;
        st.next_inode += 1;
        st.inodes.insert(
            id,
            Inode {
                data: bytes.to_vec(),
                flushed: bytes.len(),
            },
        );
        st.visible.insert(path.to_path_buf(), id);
        st.durable.insert(path.to_path_buf(), id);
    }

    /// Flip bits of the byte at `offset` in the *stored* file — at-rest
    /// corruption (bit rot), visible to every subsequent reader.
    ///
    /// # Panics
    /// If the path does not exist or `offset` is out of range (a test
    /// asking to corrupt nothing is a broken test).
    pub fn flip_at_rest(&self, path: &Path, offset: u64, mask: u8) {
        let mut st = self.lock();
        let inode = st.inode(path).expect("flip_at_rest: no such file");
        inode.data[offset as usize] ^= mask;
        // Bit rot corrupts the platter, not the cache: the durable copy
        // is the same bytes.
    }

    /// Power loss + restart: every non-durable directory entry vanishes,
    /// every file reverts to its durable prefix (plus a seeded torn tail
    /// when the plan says so). Returns the number of files that lost
    /// visible bytes or vanished.
    pub fn crash(&self) -> usize {
        let mut st = self.lock();
        st.crashes += 1;
        let crash_no = st.crashes;
        let mut lost = 0usize;
        let durable = st.durable.clone();
        for (path, id) in &st.visible {
            if durable.get(path) != Some(id) {
                lost += 1;
                continue;
            }
            let inode = st.inodes.get(id).expect("durable inode exists");
            if inode.data.len() > inode.flushed {
                lost += 1;
            }
            let _ = path;
        }
        // Rebuild visibility from the durable namespace.
        let torn = self.plan.torn_crash;
        let seed = self.plan.seed;
        st.visible = durable.clone();
        for (seq, id) in durable.values().enumerate() {
            let inode = st.inodes.get_mut(id).expect("durable inode exists");
            let tail = inode.data.len() - inode.flushed;
            let keep = if torn && tail > 0 {
                op_rng(
                    seed ^ mix64(SALT_TORN),
                    crash_no.wrapping_mul(1031) + seq as u64,
                )
                .below(tail as u64 + 1) as usize
            } else {
                0
            };
            inode.data.truncate(inode.flushed + keep);
            inode.flushed = inode.data.len();
        }
        st.durable = durable;
        lost
    }

    fn bump(st: &mut ChaosState) -> u64 {
        let n = st.ops;
        st.ops += 1;
        n
    }
}

#[derive(Debug)]
struct ChaosFile {
    backend_state: Arc<Mutex<ChaosState>>,
    plan: ChaosPlan,
    inode: u64,
}

impl ChaosFile {
    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        self.backend_state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StorageFile for ChaosFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        let op = ChaosBackend::bump(&mut st);
        let write_op = st.write_ops;
        st.write_ops += 1;
        let hard_fail = self.plan.fail_writes_after.is_some_and(|n| write_op >= n);
        let transient = self
            .plan
            .write_error_period
            .is_some_and(|p| fires(self.plan.seed, SALT_WRITE, op, p));
        let inode = st.inodes.get_mut(&self.inode).expect("open inode exists");
        if hard_fail || transient {
            if self.plan.short_writes && !buf.is_empty() {
                let keep =
                    op_rng(self.plan.seed ^ mix64(SALT_WRITE), op).below(buf.len() as u64) as usize;
                inode.data.extend_from_slice(&buf[..keep]);
            }
            return Err(io::Error::other(if hard_fail {
                format!("injected storage failure (write op {write_op})")
            } else {
                format!("injected transient write error (op {op})")
            }));
        }
        inode.data.extend_from_slice(buf);
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = self.lock();
        let op = ChaosBackend::bump(&mut st);
        if self
            .plan
            .drop_fsync_period
            .is_some_and(|p| fires(self.plan.seed, SALT_FSYNC, op, p))
        {
            return Ok(()); // the lying fsync: success reported, nothing durable
        }
        let inode = st.inodes.get_mut(&self.inode).expect("open inode exists");
        inode.flushed = inode.data.len();
        Ok(())
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file (chaos backend)", path.display()),
    )
}

impl StorageBackend for ChaosBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.lock();
        let op = ChaosBackend::bump(&mut st);
        let mut bytes = st.inode(path).ok_or_else(|| not_found(path))?.data.clone();
        if !bytes.is_empty()
            && self
                .plan
                .read_bitflip_period
                .is_some_and(|p| fires(self.plan.seed, SALT_READ, op, p))
        {
            let mut rng = op_rng(self.plan.seed ^ mix64(SALT_READ), op);
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        Ok(bytes)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut st = self.lock();
        ChaosBackend::bump(&mut st);
        let id = st.next_inode;
        st.next_inode += 1;
        st.inodes.insert(id, Inode::default());
        st.visible.insert(path.to_path_buf(), id);
        // The new directory entry is NOT durable until sync_dir.
        Ok(Box::new(ChaosFile {
            backend_state: Arc::clone(&self.state),
            plan: self.plan,
            inode: id,
        }))
    }

    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn StorageFile>> {
        let mut st = self.lock();
        ChaosBackend::bump(&mut st);
        let id = *st.visible.get(path).ok_or_else(|| not_found(path))?;
        let inode = st.inodes.get_mut(&id).expect("visible inode exists");
        inode.data.truncate(truncate_to as usize);
        inode.flushed = inode.flushed.min(inode.data.len());
        Ok(Box::new(ChaosFile {
            backend_state: Arc::clone(&self.state),
            plan: self.plan,
            inode: id,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        ChaosBackend::bump(&mut st);
        let id = st.visible.remove(from).ok_or_else(|| not_found(from))?;
        st.visible.insert(to.to_path_buf(), id);
        // Durable namespace unchanged: a crash before sync_dir shows the
        // old entries (rename reordering).
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        ChaosBackend::bump(&mut st);
        st.visible.remove(path).ok_or_else(|| not_found(path))?;
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        ChaosBackend::bump(&mut st);
        let p = path.to_path_buf();
        if !st.dirs.contains(&p) {
            st.dirs.push(p);
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let op = ChaosBackend::bump(&mut st);
        if self
            .plan
            .drop_fsync_period
            .is_some_and(|p| fires(self.plan.seed, SALT_FSYNC, op, p))
        {
            return Ok(()); // lying directory fsync
        }
        // Commit the directory's visible entries (creations, renames,
        // removals) to the durable namespace.
        let in_dir = |p: &Path| p.parent().map(Path::to_path_buf).unwrap_or_default() == *dir;
        st.durable.retain(|p, _| !in_dir(p));
        let committed: Vec<(PathBuf, u64)> = st
            .visible
            .iter()
            .filter(|(p, _)| in_dir(p))
            .map(|(p, id)| (p.clone(), *id))
            .collect();
        st.durable.extend(committed);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().visible.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_chaos_behaves_like_a_filesystem() {
        let b = ChaosBackend::new(ChaosPlan::quiet());
        let p = Path::new("/d/f");
        b.create_dir_all(Path::new("/d")).unwrap();
        {
            let mut f = b.create(p).unwrap();
            f.write_all(b"hello ").unwrap();
            f.write_all(b"world").unwrap();
            f.sync_all().unwrap();
        }
        b.sync_dir(Path::new("/d")).unwrap();
        assert!(b.exists(p));
        assert_eq!(b.read(p).unwrap(), b"hello world");
        assert_eq!(b.crash(), 0, "everything was durable");
        assert_eq!(b.read(p).unwrap(), b"hello world");
    }

    #[test]
    fn crash_drops_unsynced_data_and_undurable_names() {
        let b = ChaosBackend::new(ChaosPlan::quiet());
        let dir = Path::new("/d");
        b.create_dir_all(dir).unwrap();
        // Synced file with a synced name, then unsynced extra bytes.
        let mut f = b.create(Path::new("/d/a")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_all().unwrap();
        b.sync_dir(dir).unwrap();
        f.write_all(b" lost").unwrap();
        // A file whose name was never synced.
        let mut g = b.create(Path::new("/d/b")).unwrap();
        g.write_all(b"gone").unwrap();
        g.sync_all().unwrap();
        assert!(b.crash() >= 1);
        assert_eq!(b.read(Path::new("/d/a")).unwrap(), b"durable");
        assert!(!b.exists(Path::new("/d/b")), "name never made it to disk");
    }

    #[test]
    fn lying_fsync_is_exposed_by_crash() {
        let b = ChaosBackend::new(ChaosPlan {
            seed: 7,
            drop_fsync_period: Some(1), // every fsync lies
            ..ChaosPlan::quiet()
        });
        let dir = Path::new("/d");
        b.create_dir_all(dir).unwrap();
        let mut f = b.create(Path::new("/d/a")).unwrap();
        f.write_all(b"data").unwrap();
        f.sync_all().unwrap(); // lies
        b.sync_dir(dir).unwrap(); // lies
        b.crash();
        assert!(!b.exists(Path::new("/d/a")), "nothing was actually durable");
    }

    #[test]
    fn rename_is_visible_immediately_but_durable_only_after_dir_sync() {
        let b = ChaosBackend::new(ChaosPlan::quiet());
        let dir = Path::new("/d");
        b.create_dir_all(dir).unwrap();
        let mut old = b.create(Path::new("/d/t")).unwrap();
        old.write_all(b"old").unwrap();
        old.sync_all().unwrap();
        b.rename(Path::new("/d/t"), Path::new("/d/final")).unwrap();
        assert!(b.exists(Path::new("/d/final")));
        b.crash();
        // Neither name was ever committed by a dir sync.
        assert!(!b.exists(Path::new("/d/final")));
        assert!(!b.exists(Path::new("/d/t")));
    }

    #[test]
    fn seeded_faults_are_deterministic() {
        let run = |seed| {
            let b = ChaosBackend::new(ChaosPlan {
                seed,
                write_error_period: Some(3),
                ..ChaosPlan::quiet()
            });
            let mut f = b.create(Path::new("/f")).unwrap();
            (0..32)
                .map(|_| f.write_all(b"x").is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(11), run(11), "same seed, same faults");
        assert_ne!(run(11), run(12), "different seed, different faults");
        assert!(run(11).iter().any(|&e| e) && !run(11).iter().all(|&e| e));
    }

    #[test]
    fn hard_failure_starts_at_the_configured_write_op() {
        let b = ChaosBackend::new(ChaosPlan {
            fail_writes_after: Some(2),
            ..ChaosPlan::quiet()
        });
        let mut f = b.create(Path::new("/f")).unwrap();
        assert!(f.write_all(b"a").is_ok());
        assert!(f.write_all(b"b").is_ok());
        assert!(f.write_all(b"c").is_err());
        assert!(f.write_all(b"d").is_err(), "hard failure is sticky");
        assert_eq!(b.contents(Path::new("/f")).unwrap(), b"ab");
    }

    #[test]
    fn read_bitflips_touch_the_copy_not_the_store() {
        let b = ChaosBackend::new(ChaosPlan {
            seed: 3,
            read_bitflip_period: Some(1), // every read is flipped
            ..ChaosPlan::quiet()
        });
        b.install(Path::new("/f"), b"stable bytes");
        let flipped = b.read(Path::new("/f")).unwrap();
        assert_ne!(flipped, b"stable bytes");
        assert_eq!(b.contents(Path::new("/f")).unwrap(), b"stable bytes");
    }

    #[test]
    fn flip_at_rest_corrupts_the_store() {
        let b = ChaosBackend::new(ChaosPlan::quiet());
        b.install(Path::new("/f"), b"abc");
        b.flip_at_rest(Path::new("/f"), 1, 0xff);
        assert_eq!(b.read(Path::new("/f")).unwrap(), [b'a', b'b' ^ 0xff, b'c']);
    }
}
