//! The content-addressed result cache.
//!
//! Finished campaigns are keyed by their fingerprint (the same
//! resume-safety hash the crash-safe sharded drivers use — platform
//! config, seed schedule, run count and trace bodies, bit for bit,
//! through [`randmod_sim::checkpoint::Fingerprint`]) and persisted through
//! the checksummed [`randmod_sim::checkpoint`] container.  A warm hit
//! therefore returns the byte-identical payload the cold run produced,
//! and a damaged entry — truncated file, flipped bit, wrong fingerprint,
//! a container version other than `RMCKPT02` — fails checksum or header
//! validation and is treated as a miss: the service recomputes and
//! overwrites rather than ever serving bad bytes.

use randmod_sim::checkpoint::{
    decode_checkpoint, encode_checkpoint, CheckpointHeader, ShardRecord,
};
use randmod_sim::{CheckpointStore, FileCheckpointStore};
use std::path::PathBuf;

/// Builds the backing [`CheckpointStore`] for one cache key.  Boxed so
/// tests can swap in fault-injecting stores.
type EntryFactory = Box<dyn Fn(u64) -> Box<dyn CheckpointStore + Send> + Send + Sync>;

/// A content-addressed store of finished campaign payloads.
///
/// Each key gets its own single-record checkpoint container; the store
/// itself holds no state beyond the factory that maps a key to its
/// backing [`CheckpointStore`], so cloning keys across restarts is free
/// — the fingerprint in the container header re-validates every load.
pub struct ResultStore {
    entries: EntryFactory,
    description: String,
}

impl ResultStore {
    /// A disk-backed store: key `k` lives at `<dir>/res_<k:016x>.ckpt`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn in_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let description = dir.display().to_string();
        Ok(ResultStore {
            entries: Box::new(move |key| {
                Box::new(FileCheckpointStore::new(
                    dir.join(format!("res_{key:016x}.ckpt")),
                ))
            }),
            description,
        })
    }

    /// A store over arbitrary per-key backends — the fault-injection
    /// hook: tests wrap [`randmod_sim::FaultyStore`] around the real
    /// files to prove damaged entries are recomputed, never served.
    pub fn with_entries<F>(description: impl Into<String>, entries: F) -> Self
    where
        F: Fn(u64) -> Box<dyn CheckpointStore + Send> + Send + Sync + 'static,
    {
        ResultStore {
            entries: Box::new(entries),
            description: description.into(),
        }
    }

    /// A human-readable description of where entries live.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Fetches the cached payload for `key`, or `None` on a miss.
    ///
    /// Every failure mode — absent entry, I/O error, checksum mismatch,
    /// fingerprint or run-count disagreement, unexpected record shape —
    /// collapses to a miss: the caller recomputes.  The store never
    /// returns bytes that did not validate end to end.
    pub fn load(&self, key: u64, total_runs: u64) -> Option<Vec<u8>> {
        let mut entry = (self.entries)(key);
        let bytes = entry.load().ok()??;
        let decoded = decode_checkpoint(&bytes, &entry.location()).ok()?;
        if decoded.header.fingerprint != key || decoded.header.total_runs != total_runs {
            return None;
        }
        let mut records = decoded.records;
        match (records.pop(), records.is_empty()) {
            (Some(record), true) if record.shard_index == 0 => Some(record.payload),
            _ => None,
        }
    }

    /// Persists `payload` under `key`.
    ///
    /// A save failure is reported but non-fatal to the submission that
    /// produced the payload — the response was computed either way; the
    /// next identical submission simply recomputes.
    pub fn save(&self, key: u64, total_runs: u64, payload: &[u8]) -> Result<(), String> {
        let header = CheckpointHeader {
            fingerprint: key,
            total_runs,
            shard_count: 1,
        };
        let records = [ShardRecord {
            shard_index: 0,
            payload: payload.to_vec(),
        }];
        let bytes = encode_checkpoint(&header, &records);
        let mut entry = (self.entries)(key);
        entry.save(&bytes).map_err(|err| err.to_string())
    }
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("description", &self.description)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("randmod_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_misses() {
        let dir = temp_dir("roundtrip");
        let store = ResultStore::in_dir(&dir).unwrap();
        assert_eq!(store.load(7, 10), None);
        store.save(7, 10, b"payload bytes").unwrap();
        assert_eq!(store.load(7, 10).as_deref(), Some(&b"payload bytes"[..]));
        // A different key or run count is a miss, not a wrong answer.
        assert_eq!(store.load(8, 10), None);
        assert_eq!(store.load(7, 11), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_become_misses() {
        let dir = temp_dir("damage");
        let store = ResultStore::in_dir(&dir).unwrap();
        store.save(3, 5, b"good bytes").unwrap();
        let path = dir.join(format!("res_{:016x}.ckpt", 3));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(3, 5), None, "a flipped bit must not be served");
        // Truncation likewise.
        store.save(3, 5, b"good bytes").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load(3, 5), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
