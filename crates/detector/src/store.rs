//! Durable checkpoint store: crash-safe persistence for the online
//! daemons' sliding-window state.
//!
//! The plain-text checkpoints of [`crate::trace`] are human-inspectable but
//! fragile as *stored* state: a torn write, a truncated disk flush, or a
//! flipped bit silently yields a file that parses wrong — or not at all —
//! and an always-on auditor that loses its observation window to a bad
//! restart also loses the recurrence evidence it spent up to 512 quanta
//! accumulating. This module wraps any checkpoint payload in a durable
//! envelope:
//!
//! * **length-framed, CRC32-checksummed, versioned** binary frames
//!   ([`encode_frame`] / [`decode_frame`]) so corruption is *detected*
//!   rather than misparsed;
//! * **temp-file + atomic rename** writes ([`CheckpointStore::save`]) so a
//!   crash mid-write can never destroy the previous good state;
//! * **generational retention** — the last `keep` generations of every
//!   named entry are kept on disk, and [`CheckpointStore::load_latest`]
//!   automatically rolls back to the newest generation that still validates,
//!   reporting how many corrupt generations it skipped.
//!
//! Nothing in the recovery path panics: every failure is a typed
//! [`CorruptCheckpoint`] (chained through
//! [`DetectorError::CorruptCheckpoint`](crate::DetectorError)) or an I/O
//! error.
//!
//! ## Frame layout (version 2)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CCHKPT\r\n"
//! 8       4     format version, u32 LE (currently 2)
//! 12      8     payload length in bytes, u64 LE
//! 20      4     CRC32 (IEEE) of the payload, u32 LE
//! 24      n     payload (e.g. a crate::trace plain-text checkpoint)
//! ```
//!
//! Trailing bytes after the payload are rejected (a longer stale file
//! renamed over a shorter one would otherwise hide corruption), and the
//! declared length is bounded by [`MAX_PAYLOAD_BYTES`] so an absurd length
//! field cannot trigger an unbounded allocation.

use crate::policy::{backoff_delay, BackoffConfig};
use crate::DetectorError;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Magic prefix of every stored frame. The `\r\n` tail catches text-mode
/// line-ending translation the same way PNG's magic does.
pub const FRAME_MAGIC: [u8; 8] = *b"CCHKPT\r\n";

/// Current frame format version.
pub const FRAME_VERSION: u32 = 2;

/// Upper bound on a frame's declared payload length. A full 512-slot
/// contention checkpoint with dense histograms is well under 1 MiB; 64 MiB
/// leaves two orders of magnitude of headroom while keeping a corrupted
/// length field from allocating unboundedly.
pub const MAX_PAYLOAD_BYTES: u64 = 64 << 20;

const HEADER_BYTES: usize = 24;

/// Seed of the write-path retry jitter: delays are *virtual*,
/// deterministic, recorded in [`RetryStats`] and never slept.
const RETRY_SEED: u64 = 0xD15C_FA17;

/// How a stored checkpoint failed validation.
#[derive(Debug)]
pub enum CorruptKind {
    /// The file is shorter than a frame header.
    TruncatedHeader {
        /// Bytes actually present.
        found: usize,
    },
    /// The magic prefix does not match [`FRAME_MAGIC`].
    BadMagic,
    /// The frame carries an unsupported format version.
    BadVersion(u32),
    /// The declared payload length exceeds [`MAX_PAYLOAD_BYTES`].
    OversizedPayload(u64),
    /// The file's byte count disagrees with the declared payload length
    /// (truncated payload or trailing garbage).
    LengthMismatch {
        /// Payload bytes the header declared.
        declared: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// The payload's CRC32 does not match the header.
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        found: u32,
    },
    /// Every retained generation failed validation.
    AllGenerationsCorrupt {
        /// Generations that were tried, newest first.
        tried: Vec<u64>,
    },
    /// The store directory could not be read or written.
    Io(std::io::Error),
}

/// A corrupt (or unreadable) stored checkpoint, with enough context to
/// report which entry and generation failed and why. Chains through
/// [`std::error::Error::source`] when an underlying I/O error exists.
#[derive(Debug)]
pub struct CorruptCheckpoint {
    /// The store entry name, when the failure is tied to one.
    pub name: Option<String>,
    /// The generation that failed validation, when known.
    pub generation: Option<u64>,
    /// What failed.
    pub kind: CorruptKind,
}

impl CorruptCheckpoint {
    fn frame(kind: CorruptKind) -> Self {
        CorruptCheckpoint {
            name: None,
            generation: None,
            kind,
        }
    }

    fn locate(mut self, name: &str, generation: u64) -> Self {
        self.name = Some(name.to_string());
        self.generation = Some(generation);
        self
    }
}

impl fmt::Display for CorruptCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt checkpoint")?;
        if let Some(name) = &self.name {
            write!(f, " {name:?}")?;
        }
        if let Some(generation) = self.generation {
            write!(f, " generation {generation}")?;
        }
        match &self.kind {
            CorruptKind::TruncatedHeader { found } => {
                write!(f, ": truncated header ({found} of {HEADER_BYTES} bytes)")
            }
            CorruptKind::BadMagic => write!(f, ": bad magic"),
            CorruptKind::BadVersion(v) => {
                write!(
                    f,
                    ": unsupported format version {v} (expected {FRAME_VERSION})"
                )
            }
            CorruptKind::OversizedPayload(len) => {
                write!(
                    f,
                    ": declared payload of {len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte bound"
                )
            }
            CorruptKind::LengthMismatch { declared, found } => {
                write!(f, ": declared {declared} payload bytes, found {found}")
            }
            CorruptKind::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    ": CRC32 mismatch (header {expected:#010x}, payload {found:#010x})"
                )
            }
            CorruptKind::AllGenerationsCorrupt { tried } => {
                write!(
                    f,
                    ": all retained generations failed validation ({tried:?})"
                )
            }
            CorruptKind::Io(e) => write!(f, ": i/o failure: {e}"),
        }
    }
}

impl std::error::Error for CorruptCheckpoint {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            CorruptKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CorruptCheckpoint> for DetectorError {
    fn from(e: CorruptCheckpoint) -> Self {
        DetectorError::CorruptCheckpoint(Box::new(e))
    }
}

/// The typed classification of a storage-layer failure: what actually went
/// wrong, independent of how the platform spelled it as an
/// [`io::ErrorKind`]. Carried (with a retryability tag) by
/// [`DetectorError::StorageFault`](crate::DetectorError), so callers can
/// distinguish a full disk from a vanished one without string-matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFaultKind {
    /// The medium is out of space (`ENOSPC` / quota exhaustion).
    /// Retryable: space is routinely reclaimed out from under a bounded
    /// retry loop (log rotation, prune, another tenant freeing blocks).
    NoSpace,
    /// A generic read/write failure (`EIO` and relatives). Retryable —
    /// transient controller hiccups are the canonical gray failure.
    Io,
    /// `sync_all` on a file or directory failed: bytes may sit in the page
    /// cache but are **not durable**. Retryable, but a success after a
    /// failed fsync must be treated as a fresh write, never as proof the
    /// earlier data landed.
    SyncFailed,
    /// A write finished short (torn): fewer bytes reached the medium than
    /// were submitted. Retryable — and even when a torn frame slips
    /// through silently, the CRC envelope catches it at load and rollback
    /// recovers the previous generation.
    TornWrite,
    /// The operation stalled past its deadline (timeouts, `EAGAIN`
    /// loops). Retryable.
    Stalled,
    /// The medium is gone: path missing, permission revoked, device
    /// unmounted. Not retryable — retrying cannot conjure the directory
    /// back; the caller must degrade durability instead.
    Unavailable,
}

impl StorageFaultKind {
    /// Stable kebab-case label (used in logs, traces, and metrics).
    pub fn name(self) -> &'static str {
        match self {
            StorageFaultKind::NoSpace => "no-space",
            StorageFaultKind::Io => "io",
            StorageFaultKind::SyncFailed => "sync-failed",
            StorageFaultKind::TornWrite => "torn-write",
            StorageFaultKind::Stalled => "stalled",
            StorageFaultKind::Unavailable => "unavailable",
        }
    }
}

impl fmt::Display for StorageFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Maps an [`io::Error`] raised by storage operation `op` (one of the
/// [`StorageMedium`] method names, kebab-case) onto the typed fault
/// taxonomy, returning the kind and whether a bounded retry is worthwhile.
///
/// Sync failures are classified by *operation*, not error kind: whatever
/// errno an fsync fails with, the meaning is "not durable yet".
pub fn classify_io(op: &'static str, e: &io::Error) -> (StorageFaultKind, bool) {
    use io::ErrorKind as K;
    if matches!(op, "sync-file" | "sync-dir") {
        return (StorageFaultKind::SyncFailed, true);
    }
    match e.kind() {
        K::StorageFull | K::QuotaExceeded => (StorageFaultKind::NoSpace, true),
        K::TimedOut | K::WouldBlock | K::Interrupted => (StorageFaultKind::Stalled, true),
        K::WriteZero | K::UnexpectedEof => (StorageFaultKind::TornWrite, true),
        K::NotFound | K::PermissionDenied => (StorageFaultKind::Unavailable, false),
        _ => (StorageFaultKind::Io, true),
    }
}

/// The narrow filesystem surface [`CheckpointStore`] performs all I/O
/// through.
///
/// Production uses [`DiskMedium`] (thin `std::fs` wrappers). Soak
/// scenarios and tests substitute
/// [`StorageFaultInjector`](crate::fault::StorageFaultInjector) to inject
/// ENOSPC, EIO, failed fsyncs, torn writes, and stalls without touching a
/// real disk. The trait is object-safe on purpose: the store holds an
/// `Arc<dyn StorageMedium>` so a fleet can thread one injector handle
/// through every shard's store.
pub trait StorageMedium: fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (truncating) `path` and writes all of `bytes` into it.
    /// No durability is implied until [`StorageMedium::sync_file`].
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `path`'s contents to stable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Reads the full contents of `path`.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The file names (not full paths) of `dir`'s entries; non-UTF-8
    /// names are skipped.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Flushes `dir`'s entry table to stable storage. A no-op on
    /// platforms that cannot open directories as sync handles.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The real disk: direct `std::fs` pass-through, the default medium of
/// every store opened without an explicit one.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskMedium;

impl StorageMedium for DiskMedium {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = fs::File::create(path)?;
        file.write_all(bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        // fsync flushes the file, not the handle's userspace state, so a
        // fresh read-only handle is sufficient.
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }
}

/// Shared write-path retry bookkeeping (clones of a store observe one
/// running total, like the owner token).
#[derive(Debug, Default)]
struct RetryStats {
    retries: AtomicU64,
    backoff_us: AtomicU64,
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Wraps `payload` in a version-2 frame (magic, version, length, CRC32).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.resize(HEADER_BYTES, 0);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Fills in the header of `frame`: its first [`HEADER_BYTES`] are
/// reserved for it, and the rest is the payload.
fn seal_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(HEADER_BYTES);
    header[..8].copy_from_slice(&FRAME_MAGIC);
    header[8..12].copy_from_slice(&FRAME_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Validates a frame and returns its payload.
///
/// # Errors
///
/// Returns [`CorruptCheckpoint`] on a truncated header, wrong magic,
/// unsupported version, oversized or mismatched length, trailing bytes, or
/// a CRC32 mismatch. Never panics, and never allocates.
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8], CorruptCheckpoint> {
    if bytes.len() < HEADER_BYTES {
        return Err(CorruptCheckpoint::frame(CorruptKind::TruncatedHeader {
            found: bytes.len(),
        }));
    }
    if bytes[..8] != FRAME_MAGIC {
        return Err(CorruptCheckpoint::frame(CorruptKind::BadMagic));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if version != FRAME_VERSION {
        return Err(CorruptCheckpoint::frame(CorruptKind::BadVersion(version)));
    }
    let declared = u64::from_le_bytes(bytes[12..20].try_into().expect("8-byte slice"));
    if declared > MAX_PAYLOAD_BYTES {
        return Err(CorruptCheckpoint::frame(CorruptKind::OversizedPayload(
            declared,
        )));
    }
    let expected_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4-byte slice"));
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() as u64 != declared {
        return Err(CorruptCheckpoint::frame(CorruptKind::LengthMismatch {
            declared,
            found: payload.len() as u64,
        }));
    }
    let found_crc = crc32(payload);
    if found_crc != expected_crc {
        return Err(CorruptCheckpoint::frame(CorruptKind::ChecksumMismatch {
            expected: expected_crc,
            found: found_crc,
        }));
    }
    Ok(payload)
}

/// A checkpoint successfully loaded from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedCheckpoint {
    /// The generation the payload came from.
    pub generation: u64,
    /// Corrupt newer generations that were skipped to reach it. Zero means
    /// the newest generation validated; anything higher is a rollback the
    /// supervisor surfaces in its status.
    pub rolled_back: usize,
    /// The validated payload.
    pub payload: Vec<u8>,
}

/// A directory of named, generational, CRC-framed checkpoint files.
///
/// Every entry name maps to files `<name>.g<generation>.ckpt`; saves write a
/// temp file in the same directory and atomically rename it into place, then
/// prune generations beyond the retention count. Loads walk generations
/// newest-first and return the first one that validates.
///
/// ```
/// use cchunter_detector::store::CheckpointStore;
/// let dir = std::env::temp_dir().join(format!("cchunter-doc-{}", std::process::id()));
/// let store = CheckpointStore::open(&dir, 3).unwrap();
/// store.save("pair-0", b"state v1").unwrap();
/// store.save("pair-0", b"state v2").unwrap();
/// let loaded = store.load_latest("pair-0").unwrap().unwrap();
/// assert_eq!(loaded.payload, b"state v2");
/// assert_eq!(loaded.rolled_back, 0);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    /// The filesystem the store performs all I/O through: the real disk
    /// by default, a fault injector under soak scenarios.
    medium: Arc<dyn StorageMedium>,
    retry_stats: Arc<RetryStats>,
    /// Exclusive-ownership token, held only by stores opened through
    /// [`CheckpointStore::open_exclusive`]. Clones share the token; the
    /// registration is released when the last clone drops.
    guard: Option<Arc<OwnerToken>>,
}

/// Process-wide registry of exclusively owned store directories, keyed by
/// canonicalized path. Guards the migration window: two shard supervisors
/// racing for the same pair store would interleave generations and corrupt
/// the rollback chain, so the second opener gets a typed refusal instead.
fn owner_registry() -> &'static Mutex<HashMap<PathBuf, String>> {
    static OWNERS: OnceLock<Mutex<HashMap<PathBuf, String>>> = OnceLock::new();
    OWNERS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_owner_registry() -> std::sync::MutexGuard<'static, HashMap<PathBuf, String>> {
    // Ownership bookkeeping must survive a panicked holder: the map itself
    // is always structurally valid, so poison is ignorable.
    owner_registry()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII registration of one store directory's exclusive owner.
#[derive(Debug)]
struct OwnerToken {
    key: PathBuf,
    owner: String,
}

impl Drop for OwnerToken {
    fn drop(&mut self) {
        lock_owner_registry().remove(&self.key);
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`, retaining the
    /// last `keep` generations of every entry.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] if `keep` is zero and any
    /// I/O error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, DetectorError> {
        Self::open_with_medium(dir, keep, Arc::new(DiskMedium))
    }

    /// Like [`CheckpointStore::open`], but all I/O goes through `medium`
    /// instead of the real disk — the injection point for storage faults
    /// ([`crate::fault::StorageFaultInjector`]).
    ///
    /// # Errors
    ///
    /// As for [`CheckpointStore::open`]; directory-creation failures are
    /// reported as typed [`DetectorError::StorageFault`]s.
    pub fn open_with_medium(
        dir: impl Into<PathBuf>,
        keep: usize,
        medium: Arc<dyn StorageMedium>,
    ) -> Result<Self, DetectorError> {
        if keep == 0 {
            return Err(DetectorError::invalid(
                "checkpoint store must keep at least one generation",
            ));
        }
        let dir = dir.into();
        let store = CheckpointStore {
            dir,
            keep,
            medium,
            retry_stats: Arc::new(RetryStats::default()),
            guard: None,
        };
        store.retried("create-dir", &store.dir, || {
            store.medium.create_dir_all(&store.dir)
        })?;
        Ok(store)
    }

    /// Like [`CheckpointStore::open`], but also registers `owner` as the
    /// directory's exclusive owner in a process-wide registry. While any
    /// clone of the returned store is alive, a second `open_exclusive` on
    /// the same directory (under any path spelling — keys are
    /// canonicalized) fails with [`DetectorError::StoreBusy`], so two
    /// shard supervisors can never interleave generations in one pair's
    /// store during a migration. Dropping the last clone releases the
    /// claim. Plain [`CheckpointStore::open`] stores are unguarded.
    ///
    /// # Errors
    ///
    /// As for [`CheckpointStore::open`], plus
    /// [`DetectorError::StoreBusy`] when the directory is already owned.
    pub fn open_exclusive(
        dir: impl Into<PathBuf>,
        keep: usize,
        owner: impl Into<String>,
    ) -> Result<Self, DetectorError> {
        Self::open_exclusive_with_medium(dir, keep, owner, Arc::new(DiskMedium))
    }

    /// [`CheckpointStore::open_exclusive`] with an explicit
    /// [`StorageMedium`] (see [`CheckpointStore::open_with_medium`]).
    ///
    /// # Errors
    ///
    /// As for [`CheckpointStore::open_exclusive`].
    pub fn open_exclusive_with_medium(
        dir: impl Into<PathBuf>,
        keep: usize,
        owner: impl Into<String>,
        medium: Arc<dyn StorageMedium>,
    ) -> Result<Self, DetectorError> {
        let mut store = Self::open_with_medium(dir, keep, medium)?;
        let owner = owner.into();
        // open() just created the directory, so canonicalize only fails on
        // exotic filesystems; the raw path is a safe (if weaker) key.
        let key = store
            .dir
            .canonicalize()
            .unwrap_or_else(|_| store.dir.clone());
        let mut owners = lock_owner_registry();
        if let Some(holder) = owners.get(&key) {
            return Err(DetectorError::StoreBusy {
                dir: store.dir.clone(),
                owner: holder.clone(),
            });
        }
        owners.insert(key.clone(), owner.clone());
        drop(owners);
        store.guard = Some(Arc::new(OwnerToken { key, owner }));
        Ok(store)
    }

    /// The exclusive owner registered for this store handle, if it was
    /// opened through [`CheckpointStore::open_exclusive`].
    pub fn owner(&self) -> Option<&str> {
        self.guard.as_deref().map(|g| g.owner.as_str())
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generations retained per entry.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// The medium this store performs its I/O through.
    pub fn medium(&self) -> &Arc<dyn StorageMedium> {
        &self.medium
    }

    /// Transient write-path faults absorbed by retries so far, across all
    /// clones of this store.
    pub fn write_retries(&self) -> u64 {
        self.retry_stats.retries.load(Ordering::Relaxed)
    }

    /// Total virtual backoff (µs) those retries would have waited.
    pub fn write_backoff_us(&self) -> u64 {
        self.retry_stats.backoff_us.load(Ordering::Relaxed)
    }

    /// Runs `attempt_io` with the store's bounded seeded retry policy.
    /// Retryable faults ([`classify_io`]) are retried up to the backoff
    /// budget with deterministic *virtual* delays (recorded, not slept);
    /// non-retryable faults and exhausted budgets surface as
    /// [`DetectorError::StorageFault`].
    fn retried<T>(
        &self,
        op: &'static str,
        path: &Path,
        mut attempt_io: impl FnMut() -> io::Result<T>,
    ) -> Result<T, DetectorError> {
        let mut attempt: u32 = 0;
        loop {
            match attempt_io() {
                Ok(value) => return Ok(value),
                Err(e) => {
                    let (kind, retryable) = classify_io(op, &e);
                    if retryable {
                        if let Some(delay_us) =
                            backoff_delay(&BackoffConfig::default(), RETRY_SEED, attempt)
                        {
                            self.retry_stats.retries.fetch_add(1, Ordering::Relaxed);
                            self.retry_stats
                                .backoff_us
                                .fetch_add(delay_us, Ordering::Relaxed);
                            attempt += 1;
                            continue;
                        }
                    }
                    return Err(DetectorError::StorageFault {
                        kind,
                        retryable,
                        op,
                        path: path.to_path_buf(),
                        message: e.to_string(),
                    });
                }
            }
        }
    }

    fn validate_name(name: &str) -> Result<(), DetectorError> {
        let ok = !name.is_empty()
            && name.len() <= 128
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        if ok {
            Ok(())
        } else {
            Err(DetectorError::invalid(format!(
                "checkpoint entry name {name:?} must be 1..=128 chars of [A-Za-z0-9._-]"
            )))
        }
    }

    fn path_for(&self, name: &str, generation: u64) -> PathBuf {
        self.dir.join(format!("{name}.g{generation:08}.ckpt"))
    }

    /// Every on-disk generation of `name`, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an invalid name and a
    /// typed [`DetectorError::StorageFault`] when the directory cannot be
    /// listed (after bounded retries).
    pub fn generations(&self, name: &str) -> Result<Vec<u64>, DetectorError> {
        Self::validate_name(name)?;
        let prefix = format!("{name}.g");
        let names = self.retried("list-dir", &self.dir, || self.medium.list_dir(&self.dir))?;
        let mut generations = Vec::new();
        for file_name in names {
            if let Some(rest) = file_name
                .strip_prefix(&prefix)
                .and_then(|r| r.strip_suffix(".ckpt"))
            {
                if let Ok(generation) = rest.parse::<u64>() {
                    generations.push(generation);
                }
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }

    /// Frames `payload` and durably writes it as the next generation of
    /// `name` (temp file in the same directory, flush, atomic rename,
    /// directory fsync), then prunes generations beyond the retention
    /// count. Returns the new generation number.
    ///
    /// ## Durability contract
    ///
    /// When `save` returns `Ok`, the generation survives power loss: the
    /// file *contents* were `fsync`ed before the rename made them
    /// reachable, and the *parent directory* is `fsync`ed after the rename
    /// so the new directory entry itself is on stable storage — on POSIX
    /// filesystems a rename is only durable once the containing directory
    /// has been synced. A crash at any point leaves either the previous
    /// generations untouched (plus at most a stale temp file) or the new
    /// generation fully present; never a torn or dangling entry.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::InvalidConfig`] for an invalid name and a
    /// typed, retryability-tagged [`DetectorError::StorageFault`] when the
    /// write path fails persistently (each step is retried with the
    /// store's bounded seeded backoff first). A failed save never disturbs
    /// the previously stored generations.
    pub fn save(&self, name: &str, payload: &[u8]) -> Result<u64, DetectorError> {
        self.save_with(name, |out| {
            out.extend_from_slice(payload);
            Ok(())
        })
    }

    /// [`CheckpointStore::save`] of the payload `write` appends to the
    /// frame buffer it is handed, so a large payload is serialized in
    /// place rather than copied into its frame. An error from `write`
    /// returns before any I/O.
    ///
    /// # Errors
    ///
    /// As for [`CheckpointStore::save`], plus whatever `write` returns.
    pub fn save_with(
        &self,
        name: &str,
        write: impl FnOnce(&mut Vec<u8>) -> Result<(), DetectorError>,
    ) -> Result<u64, DetectorError> {
        Self::validate_name(name)?;
        let generations = self.generations(name)?;
        let generation = generations.last().map_or(0, |g| g + 1);
        let mut framed = vec![0; HEADER_BYTES];
        write(&mut framed)?;
        seal_frame(&mut framed);
        let tmp = self.dir.join(format!(".{name}.g{generation:08}.tmp"));
        // Write then flush the temp file before the rename makes it
        // reachable; a crash (or persistent fault) between the two leaves
        // only a stale temp file. Each step retries transient faults
        // independently — re-running `write_file` is idempotent.
        let target = self.path_for(name, generation);
        let placed = self
            .retried("write-file", &tmp, || self.medium.write_file(&tmp, &framed))
            .and_then(|()| self.retried("sync-file", &tmp, || self.medium.sync_file(&tmp)))
            .and_then(|()| self.retried("rename", &target, || self.medium.rename(&tmp, &target)));
        if let Err(e) = placed {
            let _ = self.medium.remove_file(&tmp);
            return Err(e);
        }
        self.sync_dir()?;
        // The new generation and the newest `keep - 1` listed before it
        // stay.
        let stale = (generations.len() + 1).saturating_sub(self.keep);
        for &old in &generations[..stale] {
            // Best-effort: a prune race or permission hiccup must not
            // fail the save that triggered it.
            let _ = self.medium.remove_file(&self.path_for(name, old));
        }
        Ok(generation)
    }

    /// Deletes every generation of every entry whose name `doomed`
    /// accepts, from one directory listing, and returns how many files
    /// went. Past the listing it is best-effort, like the pruning in
    /// [`CheckpointStore::save`]: a file that cannot be removed stays.
    ///
    /// # Errors
    ///
    /// A typed [`DetectorError::StorageFault`] when the directory cannot
    /// be listed (after bounded retries).
    pub fn remove_entries(&self, doomed: impl Fn(&str) -> bool) -> Result<usize, DetectorError> {
        let names = self.retried("list-dir", &self.dir, || self.medium.list_dir(&self.dir))?;
        let mut removed = 0;
        for file_name in names {
            let entry = file_name
                .strip_suffix(".ckpt")
                .and_then(|rest| rest.rsplit_once(".g"))
                .filter(|(_, generation)| generation.parse::<u64>().is_ok());
            if let Some((name, _)) = entry {
                if doomed(name) && self.medium.remove_file(&self.dir.join(&file_name)).is_ok() {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Writes an unframed advisory sidecar file (e.g. `metrics.prom`) into
    /// the store directory through the same medium and retry policy as
    /// checkpoint frames. Sidecars are observability exhaust: no
    /// generations, no CRC envelope, no directory fsync.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::StorageFault`] on persistent failure.
    pub fn write_sidecar(&self, file_name: &str, bytes: &[u8]) -> Result<(), DetectorError> {
        let path = self.dir.join(file_name);
        self.retried("write-file", &path, || self.medium.write_file(&path, bytes))
    }

    /// Fsyncs the store directory so a just-renamed generation's directory
    /// entry is durable (see the contract on [`CheckpointStore::save`]).
    /// Windows cannot open directories as sync handles, so there the
    /// medium makes this a no-op and durability relies on the file-content
    /// sync alone.
    fn sync_dir(&self) -> Result<(), DetectorError> {
        self.retried("sync-dir", &self.dir, || self.medium.sync_dir(&self.dir))
    }

    /// Loads the newest generation of `name` that validates, rolling back
    /// over corrupt newer generations. Returns `Ok(None)` when the entry
    /// has no generations at all (a cold start).
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::CorruptCheckpoint`] when generations exist
    /// but none validates (the error lists every generation tried), and
    /// [`DetectorError::InvalidConfig`] for an invalid name. Never panics.
    pub fn load_latest(&self, name: &str) -> Result<Option<LoadedCheckpoint>, DetectorError> {
        Self::validate_name(name)?;
        let mut generations = self.generations(name)?;
        if generations.is_empty() {
            return Ok(None);
        }
        generations.reverse();
        for (skipped, &generation) in generations.iter().enumerate() {
            match self.load_generation(name, generation) {
                Ok(payload) => {
                    return Ok(Some(LoadedCheckpoint {
                        generation,
                        rolled_back: skipped,
                        payload,
                    }))
                }
                Err(_corrupt) => continue,
            }
        }
        Err(CorruptCheckpoint {
            name: Some(name.to_string()),
            generation: None,
            kind: CorruptKind::AllGenerationsCorrupt { tried: generations },
        }
        .into())
    }

    /// Loads and validates one specific generation of `name`.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptCheckpoint`] when the file is unreadable or fails
    /// frame validation.
    pub fn load_generation(
        &self,
        name: &str,
        generation: u64,
    ) -> Result<Vec<u8>, CorruptCheckpoint> {
        // No retry loop on the read side: generational rollback *is* the
        // recovery path for an unreadable generation.
        let mut bytes = self
            .medium
            .read_file(&self.path_for(name, generation))
            .map_err(|e| CorruptCheckpoint::frame(CorruptKind::Io(e)).locate(name, generation))?;
        decode_frame(&bytes).map_err(|e| e.locate(name, generation))?;
        // The payload moves down over the header in place, not copied.
        bytes.drain(..HEADER_BYTES);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!(
            "cchunter-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, keep).unwrap()
    }

    fn cleanup(store: &CheckpointStore) {
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips() {
        let payload = b"cchunter-checkpoint,v1\nkind,contention\ncapacity,8\nend\n";
        let framed = encode_frame(payload);
        assert_eq!(decode_frame(&framed).unwrap(), payload);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload = b"slot,1,missed";
        let framed = encode_frame(payload);
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} must not validate"
                );
            }
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_detected() {
        let framed = encode_frame(b"some payload bytes");
        for cut in 0..framed.len() {
            assert!(decode_frame(&framed[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = framed.clone();
        longer.push(0);
        assert!(matches!(
            decode_frame(&longer).unwrap_err().kind,
            CorruptKind::LengthMismatch { .. }
        ));
    }

    #[test]
    fn absurd_length_is_bounded_not_allocated() {
        let mut framed = encode_frame(b"x");
        framed[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&framed).unwrap_err().kind,
            CorruptKind::OversizedPayload(_)
        ));
    }

    #[test]
    fn save_load_and_generations() {
        let store = temp_store("basic", 3);
        assert_eq!(store.load_latest("a").unwrap(), None);
        assert_eq!(store.save("a", b"v0").unwrap(), 0);
        assert_eq!(store.save("a", b"v1").unwrap(), 1);
        let loaded = store.load_latest("a").unwrap().unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.rolled_back, 0);
        assert_eq!(loaded.payload, b"v1");
        assert_eq!(store.generations("a").unwrap(), vec![0, 1]);
        cleanup(&store);
    }

    #[test]
    fn retention_prunes_old_generations() {
        let store = temp_store("prune", 2);
        for i in 0..5u8 {
            store.save("p", &[i]).unwrap();
        }
        assert_eq!(store.generations("p").unwrap(), vec![3, 4]);
        cleanup(&store);
    }

    #[test]
    fn corrupt_newest_generation_rolls_back() {
        let store = temp_store("rollback", 3);
        store.save("pair", b"good old state").unwrap();
        let newest = store.save("pair", b"good new state").unwrap();
        // Flip one payload bit of the newest generation on disk.
        let path = store.path_for("pair", newest);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&path, bytes).unwrap();

        let loaded = store.load_latest("pair").unwrap().unwrap();
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.rolled_back, 1, "the corrupt newest was skipped");
        assert_eq!(loaded.payload, b"good old state");
        cleanup(&store);
    }

    #[test]
    fn truncated_newest_generation_rolls_back() {
        let store = temp_store("truncate", 3);
        store.save("pair", b"generation zero").unwrap();
        let newest = store.save("pair", b"generation one").unwrap();
        let path = store.path_for("pair", newest);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let loaded = store.load_latest("pair").unwrap().unwrap();
        assert_eq!(loaded.generation, 0);
        assert_eq!(loaded.rolled_back, 1);
        assert_eq!(loaded.payload, b"generation zero");
        cleanup(&store);
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let store = temp_store("allbad", 2);
        for payload in [b"a".as_slice(), b"bb"] {
            let generation = store.save("x", payload).unwrap();
            let path = store.path_for("x", generation);
            fs::write(&path, b"garbage").unwrap();
        }
        let err = store.load_latest("x").unwrap_err();
        let DetectorError::CorruptCheckpoint(corrupt) = &err else {
            panic!("wrong error: {err}");
        };
        assert!(matches!(
            corrupt.kind,
            CorruptKind::AllGenerationsCorrupt { .. }
        ));
        // The chain renders and sources sanely.
        assert!(err.to_string().contains("corrupt checkpoint"));
        cleanup(&store);
    }

    #[test]
    fn names_are_validated() {
        let store = temp_store("names", 1);
        assert!(store.save("../escape", b"x").is_err());
        assert!(store.save("", b"x").is_err());
        assert!(store.save("has space", b"x").is_err());
        assert!(store.save("pair-0_ok.v1", b"x").is_ok());
        cleanup(&store);
    }

    #[test]
    fn zero_retention_rejected() {
        let dir = std::env::temp_dir().join("cchunter-store-zero");
        assert!(matches!(
            CheckpointStore::open(dir, 0),
            Err(DetectorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn exclusive_open_refuses_second_owner() {
        let base = temp_store("excl-double", 2);
        let dir = base.dir().to_path_buf();
        let first = CheckpointStore::open_exclusive(&dir, 2, "shard-00").unwrap();
        assert_eq!(first.owner(), Some("shard-00"));
        match CheckpointStore::open_exclusive(&dir, 2, "shard-01") {
            Err(DetectorError::StoreBusy { owner, .. }) => assert_eq!(owner, "shard-00"),
            other => panic!("expected StoreBusy, got {other:?}"),
        }
        // Unguarded opens stay allowed (read-side tooling, tests).
        assert!(CheckpointStore::open(&dir, 2).is_ok());
        cleanup(&base);
    }

    #[test]
    fn exclusive_claim_released_on_last_drop() {
        let base = temp_store("excl-release", 2);
        let dir = base.dir().to_path_buf();
        let first = CheckpointStore::open_exclusive(&dir, 2, "migrator").unwrap();
        let clone = first.clone();
        drop(first);
        // A surviving clone still holds the claim.
        assert!(matches!(
            CheckpointStore::open_exclusive(&dir, 2, "thief"),
            Err(DetectorError::StoreBusy { .. })
        ));
        drop(clone);
        let reopened = CheckpointStore::open_exclusive(&dir, 2, "successor").unwrap();
        assert_eq!(reopened.owner(), Some("successor"));
        cleanup(&base);
    }
}
