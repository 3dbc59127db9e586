//! The shard protocol: crash-safe, resumable mega-campaigns.
//!
//! A campaign's seed schedule is a pure function of its campaign seed, and
//! every run is a pure function of its placement seed — so a campaign can
//! be split into deterministic contiguous sub-ranges (*shards*), each shard
//! executed through the existing lane/thread pool, and the results
//! reassembled in shard order, bit-for-bit equal to the unsharded run
//! (pinned by the `shard_equivalence` proptests over shard counts ×
//! placements × lane widths).
//!
//! On top of that split, the checkpointed drivers persist every completed
//! shard through a [`CheckpointStore`] (see [`crate::checkpoint`]): after
//! each shard the *complete* checkpoint — header plus one checksummed
//! record per finished shard — is atomically replaced, so a campaign
//! killed at any instant resumes by re-running only the shards that are
//! missing, partial or corrupt.  Resume safety rests on the **campaign
//! fingerprint**: a hash of the packed trace(s), the platform
//! configuration, the seed schedule, the task count and the shard count.  A checkpoint whose header fingerprint
//! disagrees is refused ([`CheckpointError::Mismatch`]) rather than merged
//! or clobbered; a checkpoint whose *records* are damaged keeps its valid
//! records and re-runs the rest.

use super::{Campaign, CampaignResult, ContendedResult, ContendedRun, RunResult, TaskRun};
use crate::checkpoint::{
    decode_checkpoint, encode_checkpoint, CheckpointError, CheckpointHeader, CheckpointStore,
    Fingerprint, ShardRecord,
};
use crate::hierarchy::HierarchyStats;
use crate::packed;
use crate::trace::EventSource;
use randmod_core::{CacheStats, ConfigError};
use std::fmt;
use std::ops::Range;

/// A deterministic split of a campaign's seed schedule into contiguous
/// sub-ranges.
///
/// The split is balanced: with `total` runs over `n` shards, the first
/// `total % n` shards hold `total / n + 1` seeds and the rest `total / n`,
/// so no shard is ever empty (the shard count is clamped to the run count,
/// and to 1 for an empty schedule).  Contiguity is what makes shard-merge
/// trivially order-preserving: concatenating shard results in index order
/// *is* the campaign order.
///
/// ```
/// use randmod_sim::run::ShardSpec;
///
/// let spec = ShardSpec::new(10, 4);
/// let ranges: Vec<_> = spec.ranges().collect();
/// assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    total_runs: usize,
    shard_count: usize,
}

impl ShardSpec {
    /// Splits `total_runs` into `shard_count` contiguous shards
    /// (`shard_count` is clamped to `1..=total_runs`, or to 1 when the
    /// schedule is empty).
    pub fn new(total_runs: usize, shard_count: usize) -> Self {
        ShardSpec {
            total_runs,
            shard_count: shard_count.clamp(1, total_runs.max(1)),
        }
    }

    /// Total number of runs split across the shards.
    pub fn total_runs(&self) -> usize {
        self.total_runs
    }

    /// Number of shards (after clamping).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The seed-schedule sub-range of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn range(&self, index: usize) -> Range<usize> {
        assert!(
            index < self.shard_count,
            "shard index {index} out of range for {} shards",
            self.shard_count
        );
        let base = self.total_runs / self.shard_count;
        let extra = self.total_runs % self.shard_count;
        let start = index * base + index.min(extra);
        let len = base + usize::from(index < extra);
        start..start + len
    }

    /// [`Self::range`] without the panic: `None` for an out-of-range
    /// index.  The checkpoint-restore path uses this so a hostile or
    /// corrupt shard index degrades into a diagnostic, never a panic.
    pub fn checked_range(&self, index: usize) -> Option<Range<usize>> {
        (index < self.shard_count).then(|| self.range(index))
    }

    /// Iterates every shard's sub-range, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shard_count).map(|i| self.range(i))
    }
}

/// Errors of the sharded campaign drivers: an invalid platform
/// configuration, or a checkpoint-layer failure.
#[derive(Debug)]
pub enum CampaignError {
    /// The platform configuration failed validation.
    Config(ConfigError),
    /// The checkpoint store failed, was corrupt beyond use, belonged to a
    /// different campaign, or an injected fault interrupted the campaign.
    Checkpoint(CheckpointError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(err) => write!(f, "{err}"),
            CampaignError::Checkpoint(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Config(err) => Some(err),
            CampaignError::Checkpoint(err) => Some(err),
        }
    }
}

impl From<ConfigError> for CampaignError {
    fn from(err: ConfigError) -> Self {
        CampaignError::Config(err)
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(err: CheckpointError) -> Self {
        CampaignError::Checkpoint(err)
    }
}

/// The outcome of a checkpointed sharded campaign: the merged result plus
/// the resume accounting the caller (and the fault-injection suite) can
/// assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedReport<R> {
    /// The merged campaign result, bit-identical to the unsharded run.
    pub result: R,
    /// Number of shards the schedule was split into.
    pub shard_count: usize,
    /// Shards restored from the checkpoint instead of re-executed.
    pub resumed: usize,
    /// Shards executed (and persisted) by this invocation.
    pub executed: usize,
    /// Human-readable notes about dropped or rejected checkpoint state
    /// (corrupt records, an unusable pre-existing file, …).
    pub diagnostics: Vec<String>,
}

// ---------------------------------------------------------------------------
// Wire encoding of shard payloads
// ---------------------------------------------------------------------------

fn push_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

use crate::wire::read_u64;

fn push_cache_stats(buf: &mut Vec<u8>, stats: &CacheStats) {
    for v in [
        stats.accesses,
        stats.hits,
        stats.misses,
        stats.fills,
        stats.evictions,
        stats.writebacks,
        stats.stores,
        stats.flushes,
    ] {
        push_u64(buf, v);
    }
}

fn read_cache_stats(bytes: &[u8], pos: &mut usize) -> Option<CacheStats> {
    Some(CacheStats {
        accesses: read_u64(bytes, pos)?,
        hits: read_u64(bytes, pos)?,
        misses: read_u64(bytes, pos)?,
        fills: read_u64(bytes, pos)?,
        evictions: read_u64(bytes, pos)?,
        writebacks: read_u64(bytes, pos)?,
        stores: read_u64(bytes, pos)?,
        flushes: read_u64(bytes, pos)?,
    })
}

fn push_hierarchy_stats(buf: &mut Vec<u8>, stats: &HierarchyStats) {
    push_cache_stats(buf, &stats.il1);
    push_cache_stats(buf, &stats.dl1);
    push_cache_stats(buf, &stats.l2);
    push_u64(buf, stats.memory_accesses);
}

fn read_hierarchy_stats(bytes: &[u8], pos: &mut usize) -> Option<HierarchyStats> {
    Some(HierarchyStats {
        il1: read_cache_stats(bytes, pos)?,
        dl1: read_cache_stats(bytes, pos)?,
        l2: read_cache_stats(bytes, pos)?,
        memory_accesses: read_u64(bytes, pos)?,
    })
}

/// Serializes a slice of solo runs (seed, cycles, stats per run) in the
/// shard-record wire encoding.  Public so external result caches (the
/// `randmod-server` content-addressed store) persist campaign results in
/// exactly the format the checkpoint protocol already pins down.
pub fn encode_solo_runs(runs: &[RunResult]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(runs.len() * 30 * 8);
    for run in runs {
        push_u64(&mut buf, run.seed);
        push_u64(&mut buf, run.cycles);
        push_hierarchy_stats(&mut buf, &run.stats);
    }
    buf
}

/// Deserializes a slice of solo runs, validating that the payload holds
/// exactly the expected seed schedule in order.  `None` means the
/// payload does not belong to this schedule (wrong length, wrong seeds)
/// and the campaign must re-run.  The inverse of [`encode_solo_runs`].
pub fn decode_solo_runs(payload: &[u8], expected_seeds: &[u64]) -> Option<Vec<RunResult>> {
    let mut pos = 0;
    let mut runs = Vec::with_capacity(expected_seeds.len());
    for &expected in expected_seeds {
        let seed = read_u64(payload, &mut pos)?;
        if seed != expected {
            return None;
        }
        let cycles = read_u64(payload, &mut pos)?;
        let stats = read_hierarchy_stats(payload, &mut pos)?;
        runs.push(RunResult {
            seed,
            cycles,
            stats,
        });
    }
    (pos == payload.len()).then_some(runs)
}

/// Serializes one contended shard's runs (seed, then cycles + stats per
/// task).
fn encode_contended_runs(runs: &[ContendedRun]) -> Vec<u8> {
    let tasks = runs.first().map_or(0, |r| r.tasks.len());
    let mut buf = Vec::with_capacity(runs.len() * (1 + 27 * tasks) * 8);
    for run in runs {
        push_u64(&mut buf, run.seed);
        for task in &run.tasks {
            push_u64(&mut buf, task.cycles);
            push_hierarchy_stats(&mut buf, &task.stats);
        }
    }
    buf
}

/// Deserializes one contended shard's runs, validating seed order and the
/// task count.
fn decode_contended_runs(
    payload: &[u8],
    expected_seeds: &[u64],
    tasks: usize,
) -> Option<Vec<ContendedRun>> {
    let mut pos = 0;
    let mut runs = Vec::with_capacity(expected_seeds.len());
    for &expected in expected_seeds {
        let seed = read_u64(payload, &mut pos)?;
        if seed != expected {
            return None;
        }
        let mut task_runs = Vec::with_capacity(tasks);
        for _ in 0..tasks {
            let cycles = read_u64(payload, &mut pos)?;
            let stats = read_hierarchy_stats(payload, &mut pos)?;
            task_runs.push(TaskRun { cycles, stats });
        }
        runs.push(ContendedRun {
            seed,
            tasks: task_runs,
        });
    }
    (pos == payload.len()).then_some(runs)
}

// ---------------------------------------------------------------------------
// Campaign fingerprints
// ---------------------------------------------------------------------------

/// Protocol tag folded into solo fingerprints.
const KIND_SOLO: u64 = 0;
/// Protocol tag folded into contended fingerprints.
const KIND_CONTENDED: u64 = 1;

impl Campaign {
    /// Folds everything the result depends on — but nothing it doesn't
    /// (threads and lanes are bit-invariant throughput knobs) — plus the
    /// shard layout into one hash.
    fn fingerprint_base(&self, kind: u64, seeds: &[u64], spec: &ShardSpec) -> Fingerprint {
        let mut hash = Fingerprint::new();
        hash.write_u64(kind);
        // The config's Debug form covers every geometry/policy/latency
        // field; CHECKPOINT_MAGIC's version digit guards against the form
        // changing across releases.
        hash.write(format!("{:?}", self.config()).as_bytes());
        // Round-robin's arbitration tag, kept so existing store keys hold.
        hash.write_u64(0);
        hash.write_u64(spec.total_runs() as u64);
        hash.write_u64(spec.shard_count() as u64);
        hash.write_words(seeds);
        hash
    }

    /// Folds one trace into the fingerprint via its packed 8-byte words
    /// (the same encoding [`crate::packed::PackedTrace`] stores), preceded
    /// by its event count so trace boundaries cannot alias.  A packed
    /// source's stored words are hashed in place; any other source is
    /// encoded a fixed-size block at a time, so hashing it takes constant
    /// memory.  Both give one trace the same value.
    fn fold_trace<S>(hash: &mut Fingerprint, source: &S)
    where
        S: EventSource + ?Sized,
    {
        let mut body = Fingerprint::new();
        let count = match source.packed_words() {
            Some(words) => {
                body.write_words(words);
                words.len()
            }
            None => {
                let mut words = source.events().map(packed::encode);
                let mut block = [0u64; 256];
                let mut count = 0;
                loop {
                    let mut filled = 0;
                    for (slot, word) in block.iter_mut().zip(&mut words) {
                        *slot = word;
                        filled += 1;
                    }
                    body.write_words(block.get(..filled).unwrap_or_default());
                    count += filled;
                    if filled < block.len() {
                        break count;
                    }
                }
            }
        };
        hash.write_u64(count as u64);
        hash.write_u64(body.finish());
    }

    /// The resume-safety fingerprint of a sharded solo campaign over an
    /// explicit seed schedule: hash of packed trace + config + seed
    /// schedule + shard count.  [`Self::run_sharded_checkpointed`] refuses
    /// any checkpoint whose header disagrees.  With `shards = 1` it is the
    /// content-address the `randmod-server` result cache files results
    /// under — any change to the trace, the platform configuration or the
    /// seed schedule changes the key.
    pub fn sharded_fingerprint<S>(&self, source: &S, seeds: &[u64], shards: usize) -> u64
    where
        S: EventSource + ?Sized,
    {
        let spec = ShardSpec::new(seeds.len(), shards);
        let mut hash = self.fingerprint_base(KIND_SOLO, seeds, &spec);
        hash.write_u64(1); // task count
        Self::fold_trace(&mut hash, source);
        hash.finish()
    }

    /// The resume-safety fingerprint of a sharded contended campaign:
    /// additionally covers the task count and every task's trace.
    pub fn contended_sharded_fingerprint<S>(
        &self,
        sources: &[S],
        seeds: &[u64],
        shards: usize,
    ) -> u64
    where
        S: EventSource,
    {
        let spec = ShardSpec::new(seeds.len(), shards);
        let mut hash = self.fingerprint_base(KIND_CONTENDED, seeds, &spec);
        hash.write_u64(sources.len() as u64);
        for source in sources {
            Self::fold_trace(&mut hash, source);
        }
        hash.finish()
    }
}

// ---------------------------------------------------------------------------
// Checkpointed drivers
// ---------------------------------------------------------------------------

impl<R> ShardedReport<R> {
    fn map<U>(self, f: impl FnOnce(R) -> U) -> ShardedReport<U> {
        ShardedReport {
            result: f(self.result),
            shard_count: self.shard_count,
            resumed: self.resumed,
            executed: self.executed,
            diagnostics: self.diagnostics,
        }
    }
}

/// The generic checkpointed driver: `execute` runs one shard's seed
/// sub-range, `encode`/`decode` translate a shard's runs to and from a
/// record payload.  Solo and contended campaigns share every line of the
/// resume logic, so their crash-safety guarantees cannot drift apart.
fn run_checkpointed<T, E, Enc, Dec>(
    seeds: &[u64],
    shard_count: usize,
    fingerprint: u64,
    store: &mut dyn CheckpointStore,
    mut execute: E,
    encode: Enc,
    decode: Dec,
) -> Result<ShardedReport<Vec<T>>, CampaignError>
where
    E: FnMut(&[u64]) -> Result<Vec<T>, ConfigError>,
    Enc: Fn(&[T]) -> Vec<u8>,
    Dec: Fn(&[u8], &[u64]) -> Option<Vec<T>>,
{
    let spec = ShardSpec::new(seeds.len(), shard_count);
    let header = CheckpointHeader {
        fingerprint,
        total_runs: spec.total_runs() as u64,
        shard_count: spec.shard_count() as u64,
    };
    let location = store.location();
    let mut diagnostics = Vec::new();
    let mut shards: Vec<Option<Vec<T>>> = (0..spec.shard_count()).map(|_| None).collect();
    if let Some(bytes) = store.load()? {
        match decode_checkpoint(&bytes, &location) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                // Header-level damage: nothing in the file is trustworthy,
                // so restart from run 0 — but say so, loudly.
                diagnostics.push(format!(
                    "existing checkpoint unusable ({detail}); starting fresh"
                ));
            }
            Err(other) => return Err(other.into()),
            Ok(decoded) => {
                if decoded.header != header {
                    return Err(CheckpointError::Mismatch {
                        location,
                        detail: format!(
                            "header fingerprint {:#018x} / {} runs / {} shards vs this campaign's \
                             {:#018x} / {} runs / {} shards",
                            decoded.header.fingerprint,
                            decoded.header.total_runs,
                            decoded.header.shard_count,
                            header.fingerprint,
                            header.total_runs,
                            header.shard_count,
                        ),
                    }
                    .into());
                }
                diagnostics.extend(decoded.diagnostics);
                for record in decoded.records {
                    // decode_checkpoint validated shard_index against the
                    // header, but restore stays total anyway: anything
                    // inconsistent becomes a diagnostic and a re-run.
                    let index = usize::try_from(record.shard_index).unwrap_or(usize::MAX);
                    let restored = spec
                        .checked_range(index)
                        .and_then(|range| seeds.get(range))
                        .and_then(|shard_seeds| decode(&record.payload, shard_seeds));
                    match (restored, shards.get_mut(index)) {
                        (Some(runs), Some(slot)) => *slot = Some(runs),
                        _ => diagnostics.push(format!(
                            "shard {} record does not match the seed schedule; \
                             shard will re-run",
                            record.shard_index
                        )),
                    }
                }
            }
        }
    }
    let resumed = shards.iter().filter(|s| s.is_some()).count();
    let mut executed = 0;
    // randmod: allow(P1, index ranges over 0..spec.shard_count() == shards.len(), and ShardSpec::new(seeds.len(), ..) yields ranges inside 0..seeds.len() by construction — pinned by the shard_equivalence proptests)
    for index in 0..spec.shard_count() {
        if shards[index].is_some() {
            continue;
        }
        let runs = execute(&seeds[spec.range(index)])?;
        shards[index] = Some(runs);
        executed += 1;
        // Persist the complete checkpoint — every finished shard, loaded
        // or fresh — after each shard boundary.
        let records: Vec<ShardRecord> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, shard)| {
                shard.as_ref().map(|runs| ShardRecord {
                    shard_index: i as u64,
                    payload: encode(runs),
                })
            })
            .collect();
        store.save(&encode_checkpoint(&header, &records))?;
    }
    let result: Vec<T> = shards.into_iter().flatten().flatten().collect();
    Ok(ShardedReport {
        result,
        shard_count: spec.shard_count(),
        resumed,
        executed,
        diagnostics,
    })
}

impl Campaign {
    /// The crash-safe sharded campaign: [`Self::run`]'s seed schedule
    /// split into `shards` deterministic contiguous shards, each executed
    /// through the existing lane/thread pool and merged in shard order —
    /// bit-identical to the unsharded campaign (pinned by the
    /// `shard_equivalence` proptests).  Every completed shard is persisted
    /// to `store`, and shards already recorded there (under a matching
    /// campaign fingerprint) are restored instead of re-executed.  Corrupt
    /// or partial records are detected by checksum and re-run; a
    /// checkpoint from a *different* campaign is refused with
    /// [`CheckpointError::Mismatch`].
    ///
    /// Interruption-safety: the store is atomically replaced after each
    /// shard, so killing the process at any instant loses at most the
    /// in-flight shard.  Re-invoking this method with the same campaign
    /// and store converges to the bit-identical uninterrupted result
    /// (pinned by `crates/sim/tests/fault_injection.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] for an invalid platform configuration or
    /// a checkpoint-layer failure.
    pub fn run_sharded_checkpointed<S>(
        &self,
        source: &S,
        shards: usize,
        store: &mut dyn CheckpointStore,
    ) -> Result<ShardedReport<CampaignResult>, CampaignError>
    where
        S: EventSource + ?Sized,
    {
        self.config().validate()?;
        let seeds = self.seed_schedule();
        let report = run_checkpointed(
            &seeds,
            shards,
            self.sharded_fingerprint(source, &seeds, shards),
            store,
            |shard_seeds| Ok(self.run_seeds_validated(source, shard_seeds)?.into_runs()),
            encode_solo_runs,
            decode_solo_runs,
        )?;
        Ok(report.map(CampaignResult::from_runs))
    }

    /// The crash-safe contended campaign over this campaign's default
    /// seed schedule: the contended analogue of
    /// [`Self::run_sharded_checkpointed`], with the same shard-merge,
    /// resume, checksum and fingerprint guarantees (per-task cycles *and*
    /// stats round-trip bit-for-bit).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] for an invalid platform configuration or
    /// a checkpoint-layer failure.
    pub fn run_contended_sharded_checkpointed<S>(
        &self,
        sources: &[S],
        shards: usize,
        store: &mut dyn CheckpointStore,
    ) -> Result<ShardedReport<ContendedResult>, CampaignError>
    where
        S: EventSource,
    {
        self.config().validate()?;
        let seeds = self.seed_schedule();
        if sources.is_empty() || seeds.is_empty() {
            return Ok(ShardedReport {
                result: ContendedResult::default(),
                shard_count: 0,
                resumed: 0,
                executed: 0,
                diagnostics: Vec::new(),
            });
        }
        let tasks = sources.len();
        let report = run_checkpointed(
            &seeds,
            shards,
            self.contended_sharded_fingerprint(sources, &seeds, shards),
            store,
            |shard_seeds| {
                Ok(self
                    .run_contended_validated(sources, shard_seeds)?
                    .into_runs())
            },
            encode_contended_runs,
            |payload, shard_seeds| decode_contended_runs(payload, shard_seeds, tasks),
        )?;
        Ok(report.map(ContendedResult::from_runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemoryCheckpointStore;
    use crate::config::PlatformConfig;
    use crate::packed::PackedTrace;
    use crate::trace::{MemEvent, Trace};
    use randmod_core::{Address, PlacementKind};

    #[test]
    fn shard_spec_balances_contiguously() {
        let spec = ShardSpec::new(11, 3);
        assert_eq!(spec.shard_count(), 3);
        assert_eq!(spec.range(0), 0..4);
        assert_eq!(spec.range(1), 4..8);
        assert_eq!(spec.range(2), 8..11);
        // The ranges partition the schedule exactly.
        let covered: usize = spec.ranges().map(|r| r.len()).sum();
        assert_eq!(covered, 11);
        let mut next = 0;
        for range in spec.ranges() {
            assert_eq!(range.start, next);
            assert!(!range.is_empty());
            next = range.end;
        }
    }

    #[test]
    fn shard_spec_clamps_to_the_run_count() {
        assert_eq!(ShardSpec::new(3, 100).shard_count(), 3);
        assert_eq!(ShardSpec::new(3, 0).shard_count(), 1);
        let empty = ShardSpec::new(0, 8);
        assert_eq!(empty.shard_count(), 1);
        assert_eq!(empty.range(0), 0..0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_spec_range_panics_out_of_bounds() {
        ShardSpec::new(4, 2).range(2);
    }

    fn small_trace() -> Trace {
        let mut trace = Trace::new();
        for i in 0..200u64 {
            trace.fetch(Address::new(0x1000 + (i % 8) * 32));
            trace.load(Address::new(0x2_0000 + i * 32));
            if i % 5 == 0 {
                trace.store(Address::new(0x4_0000 + i * 32));
            }
        }
        trace
    }

    fn campaign(runs: usize) -> Campaign {
        Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            runs,
        )
        .with_campaign_seed(123)
        .with_threads(2)
    }

    #[test]
    fn sharded_run_matches_unsharded() {
        let trace = small_trace();
        let campaign = campaign(13);
        let reference = campaign.run(&trace).unwrap();
        for shards in [1, 2, 3, 5, 13, 40] {
            let mut store = MemoryCheckpointStore::new();
            let report = campaign
                .run_sharded_checkpointed(&trace, shards, &mut store)
                .unwrap();
            assert_eq!(report.result, reference, "{shards}");
        }
    }

    #[test]
    fn solo_runs_round_trip_the_wire_format() {
        let trace = small_trace();
        let result = campaign(5).run(&trace).unwrap();
        let seeds: Vec<u64> = result.runs().iter().map(|r| r.seed).collect();
        let payload = encode_solo_runs(result.runs());
        let decoded = decode_solo_runs(&payload, &seeds).unwrap();
        assert_eq!(decoded, result.runs());
        // Wrong seeds, truncated payload and trailing bytes are rejected.
        assert!(decode_solo_runs(&payload, &[1, 2, 3, 4, 5]).is_none());
        assert!(decode_solo_runs(&payload[..payload.len() - 1], &seeds).is_none());
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_solo_runs(&padded, &seeds).is_none());
    }

    #[test]
    fn contended_runs_round_trip_the_wire_format() {
        let mut opponent = Trace::new();
        for i in 0..150u64 {
            opponent.load(Address::new(0x40_0000 + (i % 512) * 32));
        }
        let sources = [small_trace(), opponent];
        let seeds = [3u64, 9, 27];
        let result = campaign(0).run_contended(&sources, &seeds).unwrap();
        let payload = encode_contended_runs(result.runs());
        let decoded = decode_contended_runs(&payload, &seeds, 2).unwrap();
        assert_eq!(decoded, result.runs());
        assert!(decode_contended_runs(&payload, &seeds, 3).is_none());
        assert!(decode_contended_runs(&payload, &[1, 2, 3], 2).is_none());
    }

    #[test]
    fn checkpointed_run_from_empty_store_matches_and_persists() {
        let trace = small_trace();
        let campaign = campaign(10);
        let reference = campaign.run(&trace).unwrap();
        let mut store = MemoryCheckpointStore::new();
        let report = campaign
            .run_sharded_checkpointed(&trace, 4, &mut store)
            .unwrap();
        assert_eq!(report.result, reference);
        assert_eq!(report.shard_count, 4);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.executed, 4);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        // A second invocation restores everything.
        let resumed = campaign
            .run_sharded_checkpointed(&trace, 4, &mut store)
            .unwrap();
        assert_eq!(resumed.result, reference);
        assert_eq!(resumed.resumed, 4);
        assert_eq!(resumed.executed, 0);
    }

    #[test]
    fn fingerprint_distinguishes_campaigns() {
        let trace = small_trace();
        let seeds: Vec<u64> = (0..10).collect();
        let a = campaign(10);
        let base = a.sharded_fingerprint(&trace, &seeds, 4);
        // Shard count, seeds, config and protocol kind all matter.
        assert_ne!(base, a.sharded_fingerprint(&trace, &seeds, 5));
        assert_ne!(base, a.sharded_fingerprint(&trace, &seeds[..9], 4));
        let other_config = Campaign::new(PlatformConfig::leon3(), 10).with_campaign_seed(123);
        assert_ne!(base, other_config.sharded_fingerprint(&trace, &seeds, 4));
        assert_ne!(
            base,
            a.contended_sharded_fingerprint(std::slice::from_ref(&trace), &seeds, 4)
        );
        // Trace contents matter.
        let mut longer = small_trace();
        longer.load(Address::new(0x9000));
        assert_ne!(base, a.sharded_fingerprint(&longer, &seeds, 4));
        // Threads and lanes do not (they are bit-invariant).
        assert_eq!(
            base,
            a.clone()
                .with_threads(7)
                .with_lanes(1)
                .sharded_fingerprint(&trace, &seeds, 4)
        );
    }

    /// `n` events cycling through the kinds that carry an address.
    fn addressed_events(n: u64) -> Vec<MemEvent> {
        (0..n)
            .map(|i| {
                let addr = Address::new(0x4000 + i * 36);
                match i % 3 {
                    0 => MemEvent::InstrFetch(addr),
                    1 => MemEvent::Load(addr),
                    _ => MemEvent::Store(addr),
                }
            })
            .collect()
    }

    #[test]
    fn a_trace_fingerprints_the_same_whatever_holds_it() {
        let a = campaign(10);
        let seeds: Vec<u64> = (0..10).collect();
        for n in [0, 1, 3, 4, 5, 31, 32, 33, 1_000] {
            let events = addressed_events(n);
            let trace: Trace = events.iter().copied().collect();
            let packed = PackedTrace::from(&trace);
            let slice: &[MemEvent] = &events;
            let solo = a.sharded_fingerprint(&packed, &seeds, 4);
            assert_eq!(solo, a.sharded_fingerprint(&trace, &seeds, 4), "{n}");
            assert_eq!(solo, a.sharded_fingerprint(&slice, &seeds, 4), "{n}");
            assert_eq!(solo, a.sharded_fingerprint(&events, &seeds, 4), "{n}");
            let contended =
                a.contended_sharded_fingerprint(&[packed.clone(), packed.clone()], &seeds, 4);
            for other in [
                a.contended_sharded_fingerprint(&[trace.clone(), trace.clone()], &seeds, 4),
                a.contended_sharded_fingerprint(&[slice, slice], &seeds, 4),
                a.contended_sharded_fingerprint(&[events.clone(), events.clone()], &seeds, 4),
            ] {
                assert_eq!(contended, other, "{n}");
            }
            // One flipped address bit in any single event changes both.
            for (i, event) in events.iter().enumerate() {
                let flip = |addr: Address| Address::new(addr.raw() ^ (1 << (i % 32)));
                let mut flipped = events.clone();
                flipped[i] = match *event {
                    MemEvent::InstrFetch(addr) => MemEvent::InstrFetch(flip(addr)),
                    MemEvent::Load(addr) => MemEvent::Load(flip(addr)),
                    MemEvent::Store(addr) => MemEvent::Store(flip(addr)),
                    MemEvent::Compute(cycles) => MemEvent::Compute(cycles),
                };
                let flipped_packed: PackedTrace = flipped.iter().copied().collect();
                assert_ne!(solo, a.sharded_fingerprint(&flipped_packed, &seeds, 4));
                assert_ne!(solo, a.sharded_fingerprint(&flipped, &seeds, 4));
                assert_ne!(
                    contended,
                    a.contended_sharded_fingerprint(&[packed.clone(), flipped_packed], &seeds, 4)
                );
            }
        }
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let trace = small_trace();
        let a = campaign(10);
        let mut store = MemoryCheckpointStore::new();
        a.run_sharded_checkpointed(&trace, 2, &mut store).unwrap();
        // Different campaign seed → different fingerprint → refusal.
        let b = a.clone().with_campaign_seed(999);
        let err = b
            .run_sharded_checkpointed(&trace, 2, &mut store)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::Mismatch { .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("different campaign"), "{err}");
    }

    #[test]
    fn empty_contended_checkpointed_campaign_is_empty() {
        let mut store = MemoryCheckpointStore::new();
        let report = campaign(0)
            .run_contended_sharded_checkpointed::<Trace>(&[], 4, &mut store)
            .unwrap();
        assert!(report.result.is_empty());
        assert_eq!(report.executed, 0);
        assert!(store.bytes().is_none());
    }

    #[test]
    fn campaign_error_display_and_sources() {
        let config_err: CampaignError = ConfigError::Zero { parameter: "sets" }.into();
        assert!(std::error::Error::source(&config_err).is_some());
        let ckpt_err: CampaignError = CheckpointError::Corrupt {
            location: "x".into(),
            detail: "y".into(),
        }
        .into();
        assert!(ckpt_err.to_string().contains("corrupt"));
        assert!(std::error::Error::source(&ckpt_err).is_some());
    }
}
