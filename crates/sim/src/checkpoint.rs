//! Crash-safe checkpoint storage for sharded campaigns.
//!
//! A mega-campaign (100k seeds, a full placement × pressure grid) runs for
//! long enough that being killed mid-flight is the expected case, not the
//! exception.  This module provides the persistence half of the shard
//! protocol (see [`crate::run`]): a versioned, checksummed, atomically
//! replaced checkpoint file that records every completed shard, so a
//! resumed campaign re-runs only the shards that are missing, partial or
//! corrupt.
//!
//! The design leans on the repo's strongest asset — every run is a pure
//! function of its seed — so a checkpoint never needs to capture engine
//! state, only *results*.  Three layers:
//!
//! * **Container format** ([`encode_checkpoint`] / [`decode_checkpoint`]):
//!   a fixed header (magic + version, campaign fingerprint, seed-schedule
//!   shape, header checksum) followed by one length-prefixed, individually
//!   checksummed record per completed shard.  A corrupt record is detected
//!   and *dropped* — never silently merged — while the records before it
//!   stay usable; corruption that reaches the header condemns the whole
//!   file.
//! * **Stores** ([`CheckpointStore`]): where the bytes live.
//!   [`FileCheckpointStore`] persists via the classic temp-file + rename
//!   dance, so a crash mid-save leaves the previous complete checkpoint in
//!   place, never a torn one.  [`MemoryCheckpointStore`] backs the test
//!   suites.
//! * **Fault injection** ([`FaultPlan`] / [`FaultyStore`]): a deterministic
//!   harness that kills the campaign at chosen shard boundaries, injects
//!   IO errors, and truncates or bit-flips persisted bytes — the
//!   interruption scenarios `crates/sim/tests/fault_injection.rs` drives to
//!   prove that every resume path converges to the bit-identical result of
//!   an uninterrupted campaign.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher: the checksum of the checkpoint and
/// trace-file formats and the campaign fingerprint.  Chosen over a generic
/// `Hasher` because its output is specified byte-for-byte — checkpoint
/// files must stay readable across Rust versions.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(FNV_OFFSET)
    }
}

impl Fingerprint {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a byte slice into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one little-endian `u64` into the hash.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a byte slice (the one-shot form of
/// [`Fingerprint`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fingerprint::new();
    hash.write(bytes);
    hash.finish()
}

/// Errors of the checkpoint layer.
///
/// Every variant carries the store's location so a failed campaign
/// degrades into a diagnosable message ("checkpoint /tmp/x.ckpt: …")
/// instead of a bare backtrace.
#[derive(Debug)]
pub enum CheckpointError {
    /// An IO operation on the underlying store failed.
    Io {
        /// Where the store lives (a path, or a description for in-memory
        /// stores).
        location: String,
        /// The operation that failed (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The checkpoint bytes are damaged beyond record-level recovery (bad
    /// magic, unsupported version, or a header that fails its checksum).
    Corrupt {
        /// Where the store lives.
        location: String,
        /// What failed to validate.
        detail: String,
    },
    /// The checkpoint is intact but belongs to a different campaign (its
    /// fingerprint of packed trace + config + seed schedule + shard count
    /// does not match); refusing to touch it rather than clobbering
    /// another job's progress.
    Mismatch {
        /// Where the store lives.
        location: String,
        /// The fingerprints that disagreed.
        detail: String,
    },
    /// The campaign was interrupted by the fault-injection harness (the
    /// in-process stand-in for an OOM-kill or preemption at a shard
    /// boundary).
    Interrupted {
        /// Where the store lives.
        location: String,
        /// Which planned fault fired.
        detail: String,
    },
}

impl CheckpointError {
    /// The store location the error refers to.
    pub fn location(&self) -> &str {
        match self {
            CheckpointError::Io { location, .. }
            | CheckpointError::Corrupt { location, .. }
            | CheckpointError::Mismatch { location, .. }
            | CheckpointError::Interrupted { location, .. } => location,
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { location, op, source } => {
                write!(f, "checkpoint {location}: {op} failed: {source}")
            }
            CheckpointError::Corrupt { location, detail } => {
                write!(f, "checkpoint {location}: corrupt: {detail}")
            }
            CheckpointError::Mismatch { location, detail } => {
                write!(
                    f,
                    "checkpoint {location}: belongs to a different campaign ({detail}); \
                     remove it or store this campaign elsewhere"
                )
            }
            CheckpointError::Interrupted { location, detail } => {
                write!(f, "checkpoint {location}: campaign interrupted: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

/// Magic + version prefix of a checkpoint file.  Bump the trailing digit on
/// any layout change: the loader rejects unknown versions outright instead
/// of misreading them.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"RMCKPT01";

/// Byte length of the fixed checkpoint header.
const HEADER_LEN: usize = 8 + 8 * 5;

/// The validated identity of a checkpoint: which campaign it belongs to
/// and how its seed schedule was split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Hash of the packed trace(s), platform config, seed schedule, task
    /// count and shard count — the resume-safety rule: a checkpoint is
    /// only reused when every one of those matches bit for bit.
    pub fingerprint: u64,
    /// Total number of runs in the campaign's seed schedule.
    pub total_runs: u64,
    /// Number of shards the schedule was split into.
    pub shard_count: u64,
}

/// One persisted shard: its index plus the serialized runs (the wire
/// encoding lives in [`crate::run`], next to the result types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Which shard of the [`CheckpointHeader::shard_count`]-way split this
    /// record holds.
    pub shard_index: u64,
    /// The shard's serialized runs.
    pub payload: Vec<u8>,
}

/// A decoded checkpoint: the validated header, every record that survived
/// its checksum, and a diagnostic line per dropped record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedCheckpoint {
    /// The validated header.
    pub header: CheckpointHeader,
    /// The records whose checksums validated, in file order.
    pub records: Vec<ShardRecord>,
    /// One human-readable line per record that was dropped (truncated,
    /// checksum mismatch, inconsistent framing).
    pub diagnostics: Vec<String>,
}

/// Checksum of one record: its index, length and payload bytes.
fn record_checksum(shard_index: u64, payload: &[u8]) -> u64 {
    let mut hash = Fingerprint::new();
    hash.write_u64(shard_index);
    hash.write_u64(payload.len() as u64);
    hash.write(payload);
    hash.finish()
}

/// Serializes a checkpoint: header (with its own checksum) followed by one
/// checksummed record per completed shard.
///
/// ```text
/// magic+version (8B) | fingerprint | total_runs | shard_count |
/// record_count | header_checksum
/// then per record:
/// shard_index | payload_len | payload … | record_checksum
/// ```
///
/// All integers are little-endian `u64`s.
pub fn encode_checkpoint(header: &CheckpointHeader, records: &[ShardRecord]) -> Vec<u8> {
    let payload_bytes: usize = records.iter().map(|r| r.payload.len() + 24).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + payload_bytes);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&header.fingerprint.to_le_bytes());
    out.extend_from_slice(&header.total_runs.to_le_bytes());
    out.extend_from_slice(&header.shard_count.to_le_bytes());
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&out).to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    for record in records {
        out.extend_from_slice(&record.shard_index.to_le_bytes());
        out.extend_from_slice(&(record.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&record.payload);
        out.extend_from_slice(&record_checksum(record.shard_index, &record.payload).to_le_bytes());
    }
    out
}

use crate::wire::read_u64;

/// Parses checkpoint bytes.
///
/// Header-level damage (wrong magic/version, failed header checksum) is
/// fatal: nothing in the file can be trusted, so the caller gets
/// [`CheckpointError::Corrupt`] and should treat the checkpoint as absent.
/// Record-level damage is *contained*: the loader keeps every record whose
/// framing and checksum validate, drops the rest, and explains each drop in
/// [`DecodedCheckpoint::diagnostics`] — a truncated or bit-flipped shard is
/// re-run, never silently merged.
///
/// # Errors
///
/// Returns [`CheckpointError::Corrupt`] when the header cannot be
/// validated.
pub fn decode_checkpoint(
    bytes: &[u8],
    location: &str,
) -> Result<DecodedCheckpoint, CheckpointError> {
    let corrupt = |detail: String| CheckpointError::Corrupt {
        location: location.to_string(),
        detail,
    };
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    let magic = bytes.get(..8).unwrap_or_default();
    if magic != CHECKPOINT_MAGIC.as_slice() {
        return Err(corrupt(format!(
            "bad magic {magic:?} (expected {CHECKPOINT_MAGIC:?})"
        )));
    }
    // The length was checked above, but a miscounted HEADER_LEN must
    // surface as a Corrupt error, not a panic inside a resume path.
    let mut pos = 8;
    let mut header_words = [0u64; 5];
    for word in &mut header_words {
        *word =
            read_u64(bytes, &mut pos).ok_or_else(|| corrupt("header truncated".to_string()))?;
    }
    let [fingerprint, total_runs, shard_count, record_count, stored_header_checksum] =
        header_words;
    let checksummed = bytes
        .get(..HEADER_LEN - 8)
        .ok_or_else(|| corrupt("header truncated".to_string()))?;
    if fnv1a(checksummed) != stored_header_checksum {
        return Err(corrupt("header checksum mismatch".to_string()));
    }
    let header = CheckpointHeader {
        fingerprint,
        total_runs,
        shard_count,
    };
    let mut records = Vec::new();
    let mut diagnostics = Vec::new();
    for n in 0..record_count {
        let start = pos;
        let framing = (|| {
            let shard_index = read_u64(bytes, &mut pos)?;
            let payload_len = usize::try_from(read_u64(bytes, &mut pos)?).ok()?;
            let payload = bytes.get(pos..pos.checked_add(payload_len)?)?;
            pos += payload_len;
            let stored = read_u64(bytes, &mut pos)?;
            Some((shard_index, payload, stored))
        })();
        let Some((shard_index, payload, stored)) = framing else {
            // Framing broke: lengths no longer line up, so every later
            // record offset is untrustworthy too.  Keep what validated.
            diagnostics.push(format!(
                "record {n} at byte {start} is truncated or mis-framed; \
                 dropping it and the {} record(s) after it",
                record_count - n - 1
            ));
            break;
        };
        if record_checksum(shard_index, payload) != stored {
            diagnostics.push(format!(
                "record {n} (shard {shard_index}) failed its checksum; shard will re-run"
            ));
            continue;
        }
        if shard_index >= shard_count {
            diagnostics.push(format!(
                "record {n} names shard {shard_index} of a {shard_count}-shard campaign; dropped"
            ));
            continue;
        }
        records.push(ShardRecord {
            shard_index,
            payload: payload.to_vec(),
        });
    }
    if pos != bytes.len() && diagnostics.is_empty() {
        diagnostics.push(format!(
            "{} trailing byte(s) after the last record; ignored",
            bytes.len() - pos
        ));
    }
    Ok(DecodedCheckpoint {
        header,
        records,
        diagnostics,
    })
}

// ---------------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------------

/// Where checkpoint bytes live.
///
/// The campaign driver treats a store as a single replaceable blob: it
/// loads at most once (on resume) and saves the *complete* checkpoint after
/// every finished shard.  Implementations must make [`save`](Self::save)
/// all-or-nothing — a crash mid-save must leave either the previous bytes
/// or the new ones, never a mixture ([`FileCheckpointStore`] gets this from
/// temp-file + rename).  The trait is deliberately small so the
/// fault-injection harness ([`FaultyStore`]) can wrap any store.
pub trait CheckpointStore {
    /// Reads the current checkpoint bytes, or `None` when no checkpoint
    /// exists yet.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the underlying storage fails.
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError>;

    /// Atomically replaces the checkpoint bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the underlying storage fails.
    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// A human-readable location for error messages (a path, or a
    /// description for in-memory stores).
    fn location(&self) -> String;
}

impl<S: CheckpointStore + ?Sized> CheckpointStore for &mut S {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        (**self).load()
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        (**self).save(bytes)
    }

    fn location(&self) -> String {
        (**self).location()
    }
}

/// Writes `bytes` to `path` atomically: write a sibling temp file, flush
/// it, rename it over the destination, then flush the parent directory.
/// Rename is atomic on POSIX filesystems, so readers (and crashes) see
/// either the old file or the new one — never a torn write.  On Unix the
/// final directory flush makes the rename itself durable, so once this
/// returns `Ok` a power loss cannot roll the file back to its old
/// contents; elsewhere the directory flush is a no-op.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Push the payload to disk before the rename publishes it; without
        // this a power loss can leave a renamed-but-empty file.
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        // The rename is an update of the parent directory's entries.
        sync_dir(parent_dir(path))
    })();
    if result.is_err() {
        // Best effort: don't leave the temp file behind on failure.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The directory holding `path`'s entry: its parent, with the empty
/// parent of a bare file name read as the current directory.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

/// Flushes `dir`'s entries to disk, so a rename inside it survives a power
/// loss.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Other platforms have no portable directory flush; the rename's
/// durability is left to the filesystem.
#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> std::io::Result<()> {
    Ok(())
}

/// A checkpoint file on disk, replaced atomically on every save (temp file
/// then rename), so a kill at any instant leaves either the previous complete
/// checkpoint or the new one.
#[derive(Debug, Clone)]
pub struct FileCheckpointStore {
    path: PathBuf,
}

impl FileCheckpointStore {
    /// A store backed by the given file path (created on first save).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }

    /// The file the store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes any existing checkpoint file (a fresh, non-resuming
    /// campaign starts here so stale progress is never merged).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file exists but cannot be
    /// removed.
    pub fn clear(&mut self) -> Result<(), CheckpointError> {
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(CheckpointError::Io {
                location: self.location(),
                op: "remove",
                source: err,
            }),
        }
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(CheckpointError::Io {
                location: self.location(),
                op: "read",
                source: err,
            }),
        }
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        atomic_write(&self.path, bytes).map_err(|err| CheckpointError::Io {
            location: self.location(),
            op: "write",
            source: err,
        })
    }

    fn location(&self) -> String {
        self.path.display().to_string()
    }
}

/// An in-memory store for tests: the bytes survive across driver calls
/// within one process, and [`Self::mutate`] lets the fault suites corrupt
/// them between a crash and a resume exactly as a damaged disk would.
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpointStore {
    bytes: Option<Vec<u8>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `f` to the stored bytes (no-op when nothing is stored):
    /// the test-suite hook for simulating on-disk corruption.
    pub fn mutate(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        if let Some(bytes) = &mut self.bytes {
            f(bytes);
        }
    }

    /// The stored bytes, if any.
    pub fn bytes(&self) -> Option<&[u8]> {
        self.bytes.as_deref()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        Ok(self.bytes.clone())
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.bytes = Some(bytes.to_vec());
        Ok(())
    }

    fn location(&self) -> String {
        "<memory>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A deterministic plan of storage faults, applied by [`FaultyStore`].
///
/// Save operations are counted from 0 in driver order — the driver saves
/// once per executed shard, so "save `n`" is exactly "the boundary after
/// the `n`-th shard executed this invocation", which is what lets tests
/// name interruption points precisely.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    kill_before_save: Option<usize>,
    kill_after_save: Option<usize>,
    error_on_save: Option<usize>,
    error_on_load: bool,
    truncate_after_save: Option<(usize, usize)>,
    bit_flip_after_save: Option<(usize, usize)>,
}

impl FaultPlan {
    /// No faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill the campaign at save `n`, *before* the bytes persist: the
    /// shard that just executed is lost and must re-run on resume.
    pub fn kill_before_save(mut self, n: usize) -> Self {
        self.kill_before_save = Some(n);
        self
    }

    /// Kill the campaign at save `n`, *after* the bytes persist: the
    /// worker dies at the shard boundary but its work survives.
    pub fn kill_after_save(mut self, n: usize) -> Self {
        self.kill_after_save = Some(n);
        self
    }

    /// Fail save `n` with an IO error (disk full, permission lost).
    pub fn error_on_save(mut self, n: usize) -> Self {
        self.error_on_save = Some(n);
        self
    }

    /// Fail every load with an IO error (unreadable checkpoint).
    pub fn error_on_load(mut self) -> Self {
        self.error_on_load = true;
        self
    }

    /// After save `n` persists, truncate the stored bytes to `keep` bytes
    /// (a torn write on a filesystem without atomic rename).
    pub fn truncate_after_save(mut self, n: usize, keep: usize) -> Self {
        self.truncate_after_save = Some((n, keep));
        self
    }

    /// After save `n` persists, flip one bit of stored byte `byte_index`
    /// (silent media corruption).
    pub fn bit_flip_after_save(mut self, n: usize, byte_index: usize) -> Self {
        self.bit_flip_after_save = Some((n, byte_index));
        self
    }
}

/// Wraps any [`CheckpointStore`] and applies a [`FaultPlan`] to its
/// operations — the deterministic stand-in for kills, IO failures and
/// media corruption that the fault-injection suite drives.
#[derive(Debug)]
pub struct FaultyStore<S> {
    inner: S,
    plan: FaultPlan,
    saves: usize,
}

impl<S: CheckpointStore> FaultyStore<S> {
    /// Wraps `inner`, applying `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyStore {
            inner,
            plan,
            saves: 0,
        }
    }

    /// Number of save operations attempted so far.
    pub fn saves(&self) -> usize {
        self.saves
    }

    /// Consumes the wrapper, returning the underlying store.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CheckpointStore> CheckpointStore for FaultyStore<S> {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        if self.plan.error_on_load {
            return Err(CheckpointError::Io {
                location: self.location(),
                op: "read",
                source: std::io::Error::other("injected load fault"),
            });
        }
        self.inner.load()
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let n = self.saves;
        self.saves += 1;
        if self.plan.kill_before_save == Some(n) {
            return Err(CheckpointError::Interrupted {
                location: self.location(),
                detail: format!("killed before save {n}; the shard's record is lost"),
            });
        }
        if self.plan.error_on_save == Some(n) {
            return Err(CheckpointError::Io {
                location: self.location(),
                op: "write",
                source: std::io::Error::other(format!("injected write fault at save {n}")),
            });
        }
        self.inner.save(bytes)?;
        if let Some((at, keep)) = self.plan.truncate_after_save {
            if at == n {
                let truncated: Vec<u8> = bytes.get(..keep).unwrap_or(bytes).to_vec();
                self.inner.save(&truncated)?;
            }
        }
        if let Some((at, byte_index)) = self.plan.bit_flip_after_save {
            if at == n {
                let mut flipped = bytes.to_vec();
                if !flipped.is_empty() {
                    let at = byte_index % flipped.len();
                    if let Some(byte) = flipped.get_mut(at) {
                        *byte ^= 1 << (byte_index % 8);
                    }
                }
                self.inner.save(&flipped)?;
            }
        }
        if self.plan.kill_after_save == Some(n) {
            return Err(CheckpointError::Interrupted {
                location: self.location(),
                detail: format!("killed after save {n}; the shard's record persisted"),
            });
        }
        Ok(())
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> CheckpointHeader {
        CheckpointHeader {
            fingerprint: 0xDEAD_BEEF_F00D_CAFE,
            total_runs: 100,
            shard_count: 4,
        }
    }

    fn sample_records() -> Vec<ShardRecord> {
        vec![
            ShardRecord {
                shard_index: 0,
                payload: vec![1, 2, 3, 4],
            },
            ShardRecord {
                shard_index: 2,
                payload: vec![],
            },
            ShardRecord {
                shard_index: 3,
                payload: (0..64).collect(),
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let header = sample_header();
        let records = sample_records();
        let bytes = encode_checkpoint(&header, &records);
        let decoded = decode_checkpoint(&bytes, "<test>").unwrap();
        assert_eq!(decoded.header, header);
        assert_eq!(decoded.records, records);
        assert!(decoded.diagnostics.is_empty(), "{:?}", decoded.diagnostics);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let bytes = encode_checkpoint(&sample_header(), &[]);
        let decoded = decode_checkpoint(&bytes, "<test>").unwrap();
        assert_eq!(decoded.header, sample_header());
        assert!(decoded.records.is_empty());
    }

    #[test]
    fn short_file_is_corrupt() {
        let err = decode_checkpoint(&[1, 2, 3], "<test>").unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("shorter"), "{err}");
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = encode_checkpoint(&sample_header(), &[]);
        bytes[0] ^= 0xFF;
        let err = decode_checkpoint(&bytes, "<test>").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn header_bit_flip_is_corrupt() {
        let mut bytes = encode_checkpoint(&sample_header(), &sample_records());
        bytes[12] ^= 0x10; // inside the fingerprint field
        let err = decode_checkpoint(&bytes, "<test>").unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");
    }

    #[test]
    fn record_bit_flip_drops_only_that_record() {
        let records = sample_records();
        let bytes = encode_checkpoint(&sample_header(), &records);
        // Flip a payload bit of the *first* record (its payload starts
        // after the header plus the record's two length fields).
        let mut damaged = bytes.clone();
        damaged[HEADER_LEN + 16] ^= 0x04;
        let decoded = decode_checkpoint(&damaged, "<test>").unwrap();
        assert_eq!(decoded.records, records[1..]);
        assert_eq!(decoded.diagnostics.len(), 1);
        assert!(decoded.diagnostics[0].contains("checksum"), "{:?}", decoded.diagnostics);
    }

    #[test]
    fn truncation_keeps_the_valid_prefix() {
        let records = sample_records();
        let bytes = encode_checkpoint(&sample_header(), &records);
        // Cut into the final record: the first two stay usable.
        let damaged = &bytes[..bytes.len() - 20];
        let decoded = decode_checkpoint(damaged, "<test>").unwrap();
        assert_eq!(decoded.records, records[..2]);
        assert_eq!(decoded.diagnostics.len(), 1);
        assert!(decoded.diagnostics[0].contains("truncated"), "{:?}", decoded.diagnostics);
    }

    #[test]
    fn out_of_range_shard_index_is_dropped() {
        let header = sample_header();
        let records = vec![ShardRecord {
            shard_index: 9,
            payload: vec![1],
        }];
        let decoded =
            decode_checkpoint(&encode_checkpoint(&header, &records), "<test>").unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.diagnostics.len(), 1);
    }

    #[test]
    fn fnv_is_stable() {
        // Published FNV-1a test vectors: the format must hash identically
        // forever, or old checkpoints stop validating.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn memory_store_round_trips_and_mutates() {
        let mut store = MemoryCheckpointStore::new();
        assert_eq!(store.load().unwrap(), None);
        store.save(&[1, 2, 3]).unwrap();
        assert_eq!(store.load().unwrap(), Some(vec![1, 2, 3]));
        store.mutate(|b| b.truncate(1));
        assert_eq!(store.load().unwrap(), Some(vec![1]));
        assert_eq!(store.location(), "<memory>");
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("randmod-ckpt-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn file_store_round_trips_and_clears() {
        let path = temp_path("roundtrip.ckpt");
        let mut store = FileCheckpointStore::new(&path);
        store.clear().unwrap(); // idempotent on a missing file
        assert_eq!(store.load().unwrap(), None);
        store.save(&[7, 8, 9]).unwrap();
        assert_eq!(store.load().unwrap(), Some(vec![7, 8, 9]));
        // Saves replace, never append.
        store.save(&[1]).unwrap();
        assert_eq!(store.load().unwrap(), Some(vec![1]));
        assert!(store.location().contains("roundtrip.ckpt"));
        store.clear().unwrap();
        assert_eq!(store.load().unwrap(), None);
    }

    #[test]
    fn atomic_write_flushes_the_parent_of_a_nested_path() {
        let dir = temp_path("nested");
        let path = dir.join("fig1").join("ckpt.bin");
        assert_eq!(parent_dir(&path), dir.join("fig1"));
        fs::create_dir_all(dir.join("fig1")).unwrap();
        atomic_write(&path, &[4, 2]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![4, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bare_file_name_lives_in_the_current_directory() {
        assert_eq!(parent_dir(Path::new("ckpt.bin")), Path::new("."));
        assert_eq!(parent_dir(Path::new("./ckpt.bin")), Path::new("."));
        assert_eq!(parent_dir(Path::new("/ckpt.bin")), Path::new("/"));
        // The directory the bare name resolves to is flushable.
        sync_dir(parent_dir(Path::new("ckpt.bin"))).unwrap();
    }

    #[test]
    fn file_store_errors_name_the_path() {
        let path = temp_path("no-such-dir").join("x.ckpt");
        let mut store = FileCheckpointStore::new(&path);
        let err = store.save(&[1]).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(err.to_string().contains("no-such-dir"), "{err}");
    }

    #[test]
    fn faulty_store_kills_and_errors_on_schedule() {
        let mut store = FaultyStore::new(
            MemoryCheckpointStore::new(),
            FaultPlan::new().kill_before_save(1).error_on_save(0),
        );
        // Save 0: injected IO error, nothing persisted.
        let err = store.save(&[1]).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        // Save 1: killed before persisting.
        let err = store.save(&[2]).unwrap_err();
        assert!(matches!(err, CheckpointError::Interrupted { .. }), "{err}");
        assert_eq!(store.saves(), 2);
        assert_eq!(store.into_inner().load().unwrap(), None);
    }

    #[test]
    fn faulty_store_kill_after_save_persists_first() {
        let mut store =
            FaultyStore::new(MemoryCheckpointStore::new(), FaultPlan::new().kill_after_save(0));
        let err = store.save(&[5, 6]).unwrap_err();
        assert!(matches!(err, CheckpointError::Interrupted { .. }), "{err}");
        assert_eq!(store.into_inner().load().unwrap(), Some(vec![5, 6]));
    }

    #[test]
    fn faulty_store_corrupts_after_save() {
        let mut store = FaultyStore::new(
            MemoryCheckpointStore::new(),
            FaultPlan::new().truncate_after_save(0, 2).bit_flip_after_save(1, 0),
        );
        store.save(&[1, 2, 3, 4]).unwrap();
        assert_eq!(store.inner.load().unwrap(), Some(vec![1, 2]));
        store.save(&[1, 2, 3, 4]).unwrap();
        let flipped = store.into_inner().load().unwrap().unwrap();
        assert_ne!(flipped, vec![1, 2, 3, 4]);
        assert_eq!(flipped.len(), 4);
    }

    #[test]
    fn faulty_store_load_error() {
        let mut inner = MemoryCheckpointStore::new();
        inner.save(&[1]).unwrap();
        let mut store = FaultyStore::new(&mut inner, FaultPlan::new().error_on_load());
        assert!(matches!(store.load(), Err(CheckpointError::Io { .. })));
        // The backing bytes are untouched.
        assert_eq!(inner.load().unwrap(), Some(vec![1]));
    }
}
