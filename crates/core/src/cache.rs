//! A set-associative cache model with pluggable placement and replacement.
//!
//! The model is *functional*: it tracks which lines are resident and reports
//! hits, misses, evictions and write-backs.  Timing (hit/miss latencies,
//! multi-level hierarchies) is layered on top by `randmod-sim`.
//!
//! Two aspects mirror the paper's hardware discussion:
//!
//! * **Seed changes flush the cache.**  Every new seed selects a new cache
//!   layout, so resident contents become unreachable; [`SetAssocCache::reseed`]
//!   therefore invalidates everything, like the real design.
//! * **Index storage in the tag array.**  With hRP the set a line sits in is
//!   not recoverable from its tag, so the index bits must be stored with the
//!   tag (extra area, modelled in `randmod-hwcost`).  The functional model
//!   stores the full line address for all policies so hit/miss behaviour is
//!   exact regardless of policy.

use crate::address::{Address, CacheGeometry, LineAddr};
use crate::error::ConfigError;
use crate::placement::{Placement, PlacementKind, PlacementLanes, PlacementPolicy};
use crate::prng::{CombinedLfsr, CombinedLfsrLanes};
use crate::replacement::{ReplacementKind, ReplacementState};
use std::fmt;

/// What kind of memory access is being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (goes to the instruction cache).
    InstructionFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessKind {
    /// Whether this access writes data.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// Write policy of the cache.
///
/// The paper notes that safety-critical first-level caches are typically
/// write-through (no dirty lines, no index bits needed in the tag array for
/// RM), while write-back caches additionally need the index to rebuild the
/// victim address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Stores update memory immediately; store misses do not allocate.
    WriteThrough,
    /// Stores dirty the line; dirty victims are written back on eviction.
    WriteBack,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The line address that was evicted.
    pub line: LineAddr,
    /// Whether the line was dirty (requires a write-back on a write-back
    /// cache).
    pub dirty: bool,
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit {
        /// The way it was found in.
        way: u32,
    },
    /// The line was not resident.
    Miss {
        /// Whether the line was brought into the cache (write-through
        /// store misses do not allocate).
        allocated: bool,
        /// The line that was displaced, if any.
        evicted: Option<EvictedLine>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    pub const fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }

    /// Whether the access missed.
    pub const fn is_miss(&self) -> bool {
        !self.is_hit()
    }

    /// Whether the access caused a dirty eviction (a write-back).
    pub fn caused_writeback(&self) -> bool {
        matches!(
            self,
            AccessOutcome::Miss {
                evicted: Some(EvictedLine { dirty: true, .. }),
                ..
            }
        )
    }
}

/// Hit/miss statistics accumulated by a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Misses that allocated a line.
    pub fills: u64,
    /// Evictions of valid lines.
    pub evictions: u64,
    /// Dirty evictions (write-backs).
    pub writebacks: u64,
    /// Store accesses.
    pub stores: u64,
    /// Whole-cache flushes (seed changes).
    pub flushes: u64,
}

impl CacheStats {
    /// Element-wise sum of two statistics blocks.
    ///
    /// Contention campaigns track a *per-task* view of each shared cache
    /// level; merging the per-task blocks reconstructs the level's
    /// aggregate traffic.
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses + other.accesses,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            fills: self.fills + other.fills,
            evictions: self.evictions + other.evictions,
            writebacks: self.writebacks + other.writebacks,
            stores: self.stores + other.stores,
            flushes: self.flushes + other.flushes,
        }
    }

    /// Miss ratio (0 when there were no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio (0 when there were no accesses).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits, {} misses ({:.2}% miss ratio)",
            self.accesses,
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

/// Compact outcome of one lane of a [`SetAssocCacheLanes`] access: the
/// same information as [`AccessOutcome`] minus the evicted line address,
/// packed into one byte so batched replay lanes can accumulate statistics
/// with branch-free adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessFlags(u8);

impl AccessFlags {
    const HIT: u8 = 1 << 0;
    const FILLED: u8 = 1 << 1;
    const EVICTED: u8 = 1 << 2;
    const WRITEBACK: u8 = 1 << 3;

    /// Whether the access hit.
    #[inline]
    pub const fn is_hit(self) -> bool {
        self.0 & Self::HIT != 0
    }

    /// Whether the access missed.
    #[inline]
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// Whether the miss allocated a line.
    #[inline]
    pub const fn filled(self) -> bool {
        self.0 & Self::FILLED != 0
    }

    /// Whether the fill displaced a valid line.
    #[inline]
    pub const fn evicted(self) -> bool {
        self.0 & Self::EVICTED != 0
    }

    /// Whether the displaced line was dirty (a write-back).
    #[inline]
    pub const fn wrote_back(self) -> bool {
        self.0 & Self::WRITEBACK != 0
    }
}

impl From<AccessOutcome> for AccessFlags {
    /// Packs a full outcome, dropping the evicted line address.
    fn from(outcome: AccessOutcome) -> Self {
        AccessFlags(match outcome {
            AccessOutcome::Hit { .. } => Self::HIT,
            AccessOutcome::Miss { allocated, evicted } => {
                let mut flags = if allocated { Self::FILLED } else { 0 };
                if let Some(victim) = evicted {
                    flags |= Self::EVICTED | if victim.dirty { Self::WRITEBACK } else { 0 };
                }
                flags
            }
        })
    }
}

/// Sentinel stored in the flat tag array for an invalid way.  Line
/// addresses are byte addresses shifted right by the offset bits, and the
/// trace pipeline caps addresses at 2⁶² − 1, so the all-ones value can
/// never be a real line.
const INVALID_TAG: u64 = u64::MAX;

#[inline]
fn bit_get(words: &[u64], index: usize) -> bool {
    (words[index >> 6] >> (index & 63)) & 1 == 1
}

#[inline]
fn bit_set(words: &mut [u64], index: usize) {
    words[index >> 6] |= 1 << (index & 63);
}

#[inline]
fn bit_clear(words: &mut [u64], index: usize) {
    words[index >> 6] &= !(1 << (index & 63));
}

/// A set-associative cache with pluggable placement and replacement.
///
/// ```
/// use randmod_core::{CacheGeometry, Address, PlacementKind, ReplacementKind};
/// use randmod_core::cache::{SetAssocCache, AccessKind, WritePolicy};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let mut cache = SetAssocCache::with_kinds(
///     CacheGeometry::leon3_l1(),
///     PlacementKind::RandomModulo,
///     ReplacementKind::Random,
///     WritePolicy::WriteThrough,
/// )?;
/// cache.reseed(7);
/// assert!(cache.access(Address::new(0x100), AccessKind::Load).is_miss());
/// assert!(cache.access(Address::new(0x100), AccessKind::Load).is_hit());
/// assert_eq!(cache.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    placement: Placement,
    write_policy: WritePolicy,
    /// Associativity, cached as `usize` for the indexing hot path.
    ways: usize,
    /// Flat tag array: `tags[set * ways + way]` holds the resident line
    /// address, or [`INVALID_TAG`] for an empty way.  One L1's worth fits
    /// in a few KiB of contiguous memory.
    tags: Vec<u64>,
    /// Packed valid bits, one per line (mirrors `tags != INVALID_TAG`;
    /// kept for cheap occupancy queries).
    valid: Vec<u64>,
    /// Packed dirty bits, one per line.
    dirty: Vec<u64>,
    /// Flat replacement state for every set.
    replacement: ReplacementState,
    rng: CombinedLfsr,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache from an already-built boxed placement policy (the
    /// extension point for policies implemented outside this crate; the
    /// built-in policies go through [`Self::with_kinds`] or
    /// [`Self::with_placement`] and are statically dispatched).
    ///
    /// # Panics
    ///
    /// Panics if the placement policy was built for a different geometry.
    pub fn new(
        geometry: CacheGeometry,
        placement: Box<dyn PlacementPolicy>,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
    ) -> Self {
        Self::with_placement(geometry, Placement::from(placement), replacement, write_policy)
    }

    /// Creates a cache from a statically dispatched [`Placement`].
    ///
    /// # Panics
    ///
    /// Panics if the placement policy was built for a different geometry.
    pub fn with_placement(
        geometry: CacheGeometry,
        placement: Placement,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
    ) -> Self {
        assert_eq!(
            placement.geometry(),
            geometry,
            "placement policy geometry does not match the cache geometry"
        );
        let lines = geometry.sets() as usize * geometry.ways() as usize;
        let words = lines.div_ceil(64);
        SetAssocCache {
            geometry,
            placement,
            write_policy,
            ways: geometry.ways() as usize,
            tags: vec![INVALID_TAG; lines],
            valid: vec![0; words],
            dirty: vec![0; words],
            replacement: ReplacementState::new(replacement, geometry.sets(), geometry.ways()),
            rng: CombinedLfsr::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache from policy identifiers.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the placement policy cannot be built for
    /// this geometry.
    pub fn with_kinds(
        geometry: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
    ) -> Result<Self, ConfigError> {
        Ok(Self::with_placement(
            geometry,
            Placement::new(placement, geometry)?,
            replacement,
            write_policy,
        ))
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The placement policy in use.
    pub fn placement(&self) -> &dyn PlacementPolicy {
        self.placement.as_dyn()
    }

    /// The write policy in use.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the statistics (the contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Installs a new placement seed and flushes the contents, as the
    /// hardware does on a seed change.
    pub fn reseed(&mut self, seed: u64) {
        self.placement.reseed(seed);
        self.rng = CombinedLfsr::new(seed ^ 0x5EED_5EED_5EED_5EED);
        self.flush();
    }

    /// Invalidates every line (dirty contents are discarded; the caller is
    /// responsible for modelling any write-back traffic if needed).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.valid.fill(0);
        self.dirty.fill(0);
        self.replacement.reset();
        self.stats.flushes += 1;
    }

    /// Checks whether the line holding `addr` is resident, without updating
    /// any state or statistics.
    pub fn contains(&self, addr: Address) -> bool {
        let line = self.geometry.line_addr(addr);
        let base = self.placement.set_index_of_line(line) as usize * self.ways;
        self.tags[base..base + self.ways].contains(&line.raw())
    }

    /// Number of valid lines currently resident in set `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= sets`.
    pub fn set_occupancy(&self, index: u32) -> u32 {
        assert!(index < self.geometry.sets(), "set index out of range");
        let base = index as usize * self.ways;
        (base..base + self.ways)
            .filter(|&i| bit_get(&self.valid, i))
            .count() as u32
    }

    /// Performs one access and returns its outcome: probes the set in a
    /// single pass (recording the first invalid way while looking for a
    /// hit), fills on an allocating miss, and books the statistics.
    pub fn access(&mut self, addr: Address, kind: AccessKind) -> AccessOutcome {
        let line = self.geometry.line_addr(addr);
        let raw = line.raw();
        debug_assert_ne!(
            raw, INVALID_TAG,
            "line address collides with the invalid-tag sentinel"
        );
        let is_write = kind.is_write();
        self.stats.accesses += 1;
        self.stats.stores += is_write as u64;
        let set = self.placement.set_index_of_line_mut(line);
        let base = set as usize * self.ways;

        // One pass over the ways: probe for a hit and remember the first
        // invalid way for a potential fill.  Invalid ways hold the sentinel,
        // which never equals a real line address, so hit detection needs no
        // separate valid check.
        let mut invalid_way = usize::MAX;
        let mut hit_way = usize::MAX;
        for (way, &tag) in self.tags[base..base + self.ways].iter().enumerate() {
            if tag == raw {
                hit_way = way;
                break;
            }
            if tag == INVALID_TAG && invalid_way == usize::MAX {
                invalid_way = way;
            }
        }

        if hit_way != usize::MAX {
            self.replacement.touch(set, hit_way as u32);
            if is_write && self.write_policy == WritePolicy::WriteBack {
                bit_set(&mut self.dirty, base + hit_way);
            }
            self.stats.hits += 1;
            return AccessOutcome::Hit {
                way: hit_way as u32,
            };
        }

        self.stats.misses += 1;
        // Write-through caches do not allocate on store misses: the store
        // goes straight to the next level.
        if is_write && self.write_policy == WritePolicy::WriteThrough {
            return AccessOutcome::Miss {
                allocated: false,
                evicted: None,
            };
        }

        // Prefer the invalid way found during the probe; otherwise ask the
        // replacement policy for a victim.
        let way = if invalid_way != usize::MAX {
            invalid_way
        } else {
            self.replacement.victim(set, &mut self.rng) as usize
        };
        let index = base + way;
        let old_tag = self.tags[index];
        let evicted = (old_tag != INVALID_TAG).then(|| EvictedLine {
            line: LineAddr::new(old_tag),
            dirty: bit_get(&self.dirty, index),
        });
        if let Some(victim) = evicted {
            self.stats.evictions += 1;
            self.stats.writebacks += victim.dirty as u64;
        }
        self.stats.fills += 1;
        self.tags[index] = raw;
        bit_set(&mut self.valid, index);
        if is_write && self.write_policy == WritePolicy::WriteBack {
            bit_set(&mut self.dirty, index);
        } else {
            bit_clear(&mut self.dirty, index);
        }
        self.replacement.touch(set, way as u32);
        AccessOutcome::Miss {
            allocated: true,
            evicted,
        }
    }

    /// Returns the set index the current layout assigns to `addr`.
    pub fn set_index_of(&self, addr: Address) -> u32 {
        self.placement.set_index(addr)
    }

    /// Total number of valid lines in the cache.
    pub fn resident_lines(&self) -> u32 {
        (0..self.geometry.sets()).map(|s| self.set_occupancy(s)).sum()
    }
}

/// `u32::MAX` as a way sentinel in the wavefront probe's select chains
/// ("no hit way found yet" / "no invalid way found yet").
const NO_WAY: u32 = u32::MAX;

/// Slot count of the wave residency filter (direct-mapped on the low line
/// address bits; must be a power of two).  Sized to cover a hot loop's
/// instruction lines plus its resident data working set without slot
/// collisions (the cacheb kernel revisits ~800 distinct lines).
const FILTER_SLOTS: usize = 1024;

/// All-ones bitmask over the low `n` lane bits (`n <= 64`).
fn mask_of(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// K per-seed caches probed as one wavefront.
///
/// The lane-batched replay engine applies each decoded trace op to K
/// independent per-seed cache hierarchies.  `SetAssocCacheLanes` stores
/// those K caches' tags *lane-major* — `tags[(set * ways + way) * K + lane]`
/// — so the K tags a probe must compare for one way sit in one contiguous
/// block, and processes one op across all lanes as fixed-width chunks:
///
/// * **Uniform placement** (Modulo/XOR — the set index is seed-independent):
///   every lane probes the same set, so the probe sweeps `ways` contiguous
///   K-wide rows with a branch-free select chain the compiler
///   autovectorizes (compare a row against the broadcast line address, blend
///   the way number into the per-lane hit/invalid accumulators).
/// * **Per-lane placement** (hRP/RM/custom): [`PlacementLanes::index_lanes`]
///   produces K set indices in one sweep, then the same select chain runs
///   with per-lane strides.
/// * **Replacement draws are batched**: a miss wave collects the lanes that
///   need a victim (full set, Random replacement) and draws all of them
///   with one [`CombinedLfsrLanes::next_below_lanes`] sweep.
///
/// Ways are scanned *highest first* with "last write wins" selects, so the
/// accumulated hit way and invalid way are the **lowest** matching way —
/// exactly what the scalar early-exit probe finds (at most one way can
/// match a line, and the scalar invalid-way choice is the first one seen).
/// Each lane's hit/miss/eviction sequence — and therefore its cycles and
/// statistics — is bit-identical to a scalar [`SetAssocCache`] reseeded
/// with the same value; the lane-bank unit tests pin this access by
/// access, and the reference-model suite pins the hierarchies built on it.
///
/// Repeat reads short-circuit through a *wave residency filter*: a small
/// direct-mapped table of recently read lines and their K per-lane cell
/// indices.  Every lane replays the same
/// line stream, so one table serves the whole wave: a repeat read whose
/// line is still resident in *every* lane short-circuits placement and
/// probe entirely, which is what makes hot-loop instruction fetch and
/// in-cache data reuse nearly free per lane.  It is armed only under
/// Random replacement, where a read hit mutates no
/// state, so taking or missing the fast path changes no outcome.  The
/// per-lane valid bits are *authoritative*: every fill that evicts a line
/// also clears the victim's bit in the victim's filter slot, so a set bit
/// proves residency and the fast path needs no tag re-check (fills are
/// rare; filter hits are the steady state).  Idempotent repeat stores
/// short-circuit too — a write-through store hit mutates nothing, and a
/// write-back store hit whose dirty bits are already set mutates nothing.
#[derive(Debug, Clone)]
pub struct SetAssocCacheLanes {
    geometry: CacheGeometry,
    placement: PlacementLanes,
    write_policy: WritePolicy,
    replacement_kind: ReplacementKind,
    ways: usize,
    /// Lane capacity K (the stride of the lane-major layout).
    lanes: usize,
    /// Lanes in use (`reseed_wave` seeds a prefix of the capacity).
    active: usize,
    /// Whether every lane maps a line to the same set (Modulo/XOR).
    uniform: bool,
    /// Lane-major tag array; see the struct docs for the layout.
    tags: Vec<u64>,
    /// Packed dirty bits, one per (line, lane) in the same linear order.
    dirty: Vec<u64>,
    /// Per-lane replacement state (same policy logic as the scalar cache).
    replacement: Vec<ReplacementState>,
    /// Per-lane PRNG bank for victim draws.
    rng: CombinedLfsrLanes,
    /// Per-lane set index of the current wave.
    set_scratch: Vec<u32>,
    /// Per-lane linear index of `(set, way 0, lane)` for the current wave.
    lane_base: Vec<usize>,
    /// Per-lane lowest hitting way ([`NO_WAY`] = miss).
    hit_way: Vec<u32>,
    /// Per-lane lowest invalid way ([`NO_WAY`] = set full).
    inv_way: Vec<u32>,
    /// Lanes whose miss needs a random victim draw this wave.
    draw_lanes: Vec<u32>,
    /// The batched draws for `draw_lanes`.
    draws: Vec<u32>,
    /// Wave residency filter: line address per slot ([`FILTER_SLOTS`]
    /// direct-mapped entries, [`INVALID_TAG`] = empty).  Armed only under
    /// Random replacement, where a read hit mutates no per-lane state.
    filter_tags: Vec<u64>,
    /// Per-slot bitmask of lanes in which the slot's line is resident (bit
    /// `lane` set).  Authoritative: set when a wave or sparse access
    /// leaves the line resident, cleared when a fill evicts it, so the
    /// fast paths trust it without a tag re-check.
    filter_valid: Vec<u64>,
    /// Per-slot, per-lane flat tag index of the filtered line
    /// (`filter_index[slot * K + lane]`; only consulted by the write-back
    /// repeat-store fast path to test dirty bits).  Stored as `u32` to
    /// halve the table's cache footprint.
    filter_index: Vec<u32>,
    /// Whether the residency filter may be armed (replacement is Random,
    /// the lane count fits the per-slot valid bitmask, and every tag index
    /// fits `u32`).
    filter_enabled: bool,
    /// Bitmask of the active lanes (`(1 << active) - 1`), the full-wave
    /// residency requirement.
    active_mask: u64,
}

impl SetAssocCacheLanes {
    /// Creates a K-lane cache bank from policy identifiers.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the placement policy cannot be built for
    /// this geometry.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn with_kinds(
        geometry: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
        lanes: usize,
    ) -> Result<Self, ConfigError> {
        Ok(Self::from_lane_placement(
            geometry,
            PlacementLanes::new(placement, geometry, lanes)?,
            replacement,
            write_policy,
        ))
    }

    /// Creates a K-lane cache bank over per-lane scalar placements (the
    /// [`Placement::Custom`] fallback: every lane dispatches through its
    /// boxed policy's scalar path).
    ///
    /// # Panics
    ///
    /// Panics if `placements` is empty, the geometries disagree, or a
    /// policy's geometry differs from `geometry`.
    pub fn with_placements(
        geometry: CacheGeometry,
        placements: Vec<Placement>,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
    ) -> Self {
        Self::from_lane_placement(
            geometry,
            PlacementLanes::from_placements(placements),
            replacement,
            write_policy,
        )
    }

    fn from_lane_placement(
        geometry: CacheGeometry,
        placement: PlacementLanes,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
    ) -> Self {
        assert_eq!(
            placement.geometry(),
            geometry,
            "placement policy geometry does not match the cache geometry"
        );
        let lanes = placement.lane_count();
        let ways = geometry.ways() as usize;
        let cells = geometry.sets() as usize * ways * lanes;
        let uniform = placement.is_uniform();
        SetAssocCacheLanes {
            geometry,
            placement,
            write_policy,
            replacement_kind: replacement,
            ways,
            lanes,
            active: lanes,
            uniform,
            tags: vec![INVALID_TAG; cells],
            dirty: vec![0; cells.div_ceil(64)],
            replacement: (0..lanes)
                .map(|_| ReplacementState::new(replacement, geometry.sets(), geometry.ways()))
                .collect(),
            rng: CombinedLfsrLanes::new(lanes),
            set_scratch: vec![0; lanes],
            lane_base: vec![0; lanes],
            hit_way: vec![NO_WAY; lanes],
            inv_way: vec![NO_WAY; lanes],
            draw_lanes: Vec::with_capacity(lanes),
            draws: vec![0; lanes],
            filter_tags: vec![INVALID_TAG; FILTER_SLOTS],
            filter_valid: vec![0; FILTER_SLOTS],
            filter_index: vec![0; FILTER_SLOTS * lanes],
            filter_enabled: replacement == ReplacementKind::Random
                && lanes <= 64
                && cells <= u32::MAX as usize,
            active_mask: mask_of(lanes.min(64)),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Lane capacity K.
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Lanes seeded by the last [`Self::reseed_wave`].
    pub fn active_lanes(&self) -> usize {
        self.active
    }

    /// Whether the bank dispatches placement through boxed scalar policies.
    pub fn uses_custom_placement(&self) -> bool {
        self.placement.is_custom()
    }

    /// Reseeds lanes `0..seeds.len()` (one layout per seed) and flushes
    /// every lane's contents, exactly as [`SetAssocCache::reseed`] does per
    /// cache.  Subsequent waves step `seeds.len()` active lanes.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is longer than the lane capacity.
    pub fn reseed_wave(&mut self, seeds: &[u64]) {
        assert!(
            seeds.len() <= self.lanes,
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lanes
        );
        self.active = seeds.len();
        self.filter_tags.fill(INVALID_TAG);
        self.filter_valid.fill(0);
        self.active_mask = mask_of(self.active.min(64));
        self.tags.fill(INVALID_TAG);
        self.dirty.fill(0);
        for state in &mut self.replacement {
            state.reset();
        }
        for (lane, &seed) in seeds.iter().enumerate() {
            self.placement.reseed_lane(lane, seed);
            self.rng.reseed_lane(lane, seed ^ 0x5EED_5EED_5EED_5EED);
        }
    }

    /// Applies one access to every active lane, writing lane `i`'s
    /// [`AccessFlags`] into `flags[i]`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `flags.len()` differs from the active lane count.
    #[inline]
    pub fn access_lean_lanes(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        flags: &mut [AccessFlags],
    ) {
        debug_assert_eq!(flags.len(), self.active, "one flags slot per active lane");
        debug_assert_ne!(
            line.raw(),
            INVALID_TAG,
            "line address collides with the invalid-tag sentinel"
        );
        let raw = line.raw();
        let is_write = kind.is_write();
        let a = self.active;
        let k = self.lanes;
        let row = self.ways * k;

        // Residency-filter fast path: a repeat access to a recently seen
        // line, still resident in every lane, needs no placement indices
        // and no probe (armed only under Random replacement).  A read hit
        // mutates no state; a write-through store hit mutates none either;
        // a write-back store hit only sets the dirty bit, so it may
        // short-circuit when every lane's dirty bit is *already* set (the
        // common repeat store).  The valid bits are authoritative: every
        // fill that evicts a line clears the victim's bit in its filter
        // slot, so a set bit *proves* residency and no tag re-check is
        // needed.  Every lane replays the same line stream, so one table
        // serves the whole wave.
        let wb = self.write_policy == WritePolicy::WriteBack;
        let slot = (raw as usize) & (FILTER_SLOTS - 1);
        if self.filter_tags[slot] == raw
            && self.filter_valid[slot] & self.active_mask == self.active_mask
        {
            if !(is_write && wb) {
                flags.fill(AccessFlags(AccessFlags::HIT));
                return;
            }
            let indices = &self.filter_index[slot * k..slot * k + a];
            let mut dirty = true;
            for &index in indices {
                dirty &= bit_get(&self.dirty, index as usize);
            }
            if dirty {
                flags.fill(AccessFlags(AccessFlags::HIT));
                return;
            }
        }

        // Placement stage: one index for a uniform wave, K for a scattered
        // one, plus each lane's base cell in the lane-major tag array.
        if self.uniform {
            let set = self.placement.index_uniform(line);
            let base = set as usize * row;
            if self.replacement_kind != ReplacementKind::Random {
                // Only LRU touches and FIFO victim picks read the per-lane
                // set scratch; Random resolution never does.
                self.set_scratch[..a].fill(set);
            }
            for (lane, slot) in self.lane_base[..a].iter_mut().enumerate() {
                *slot = base + lane;
            }
        } else {
            self.placement.index_lanes(line, &mut self.set_scratch[..a]);
            for (lane, slot) in self.lane_base[..a].iter_mut().enumerate() {
                *slot = self.set_scratch[lane] as usize * row + lane;
            }
        }

        // Probe stage: accumulate per-lane hit/invalid *way bitmasks* in a
        // branch-free forward sweep (bit `w` set when way `w` matches),
        // then convert each mask's lowest set bit to a way number — the
        // lowest matching way is exactly what the scalar early-exit probe
        // finds (at most one way can hit a line, and the scalar
        // invalid-way choice is the first one seen).  The uniform sweep
        // reads contiguous K-wide rows the compiler vectorizes; banks
        // wider than 32 ways (none in practice) fall back to select
        // chains.
        let hit_way = &mut self.hit_way[..a];
        let inv_way = &mut self.inv_way[..a];
        if self.ways <= 32 {
            hit_way.fill(0);
            inv_way.fill(0);
            if self.uniform {
                let base = self.lane_base[0];
                for w in 0..self.ways {
                    let tag_row = &self.tags[base + w * k..base + w * k + a];
                    let bit = 1u32 << w;
                    for (lane, &tag) in tag_row.iter().enumerate() {
                        hit_way[lane] |= if tag == raw { bit } else { 0 };
                        inv_way[lane] |= if tag == INVALID_TAG { bit } else { 0 };
                    }
                }
            } else {
                for w in 0..self.ways {
                    let offset = w * k;
                    let bit = 1u32 << w;
                    for lane in 0..a {
                        let tag = self.tags[self.lane_base[lane] + offset];
                        hit_way[lane] |= if tag == raw { bit } else { 0 };
                        inv_way[lane] |= if tag == INVALID_TAG { bit } else { 0 };
                    }
                }
            }
            for lane in 0..a {
                let hit_mask = hit_way[lane];
                hit_way[lane] = if hit_mask == 0 {
                    NO_WAY
                } else {
                    hit_mask.trailing_zeros()
                };
                let inv_mask = inv_way[lane];
                inv_way[lane] = if inv_mask == 0 {
                    NO_WAY
                } else {
                    inv_mask.trailing_zeros()
                };
            }
        } else {
            hit_way.fill(NO_WAY);
            inv_way.fill(NO_WAY);
            for w in (0..self.ways).rev() {
                let offset = w * k;
                let way = w as u32;
                for lane in 0..a {
                    let tag = self.tags[self.lane_base[lane] + offset];
                    hit_way[lane] = if tag == raw { way } else { hit_way[lane] };
                    inv_way[lane] = if tag == INVALID_TAG { way } else { inv_way[lane] };
                }
            }
        }

        // One pass over the converted ways: detect the all-hit wave and
        // collect the lanes whose miss needs a random victim draw (full
        // set, Random replacement, and never a write-through store miss —
        // those allocate nothing and must not advance the lane's PRNG).
        let wt_store = is_write && !wb;
        let collect = self.replacement_kind == ReplacementKind::Random && !wt_store;
        self.draw_lanes.clear();
        let mut all_hit = true;
        for lane in 0..a {
            let hw = hit_way[lane];
            all_hit &= hw != NO_WAY;
            if collect && hw == NO_WAY && inv_way[lane] == NO_WAY {
                self.draw_lanes.push(lane as u32);
            }
        }

        // All-lanes-hit fast path: under Random replacement (the only mode
        // that arms the filter) a read hit mutates nothing, and a
        // write-through store hit mutates nothing either, so those waves
        // resolve to all-HIT without per-lane work.  Write-back store hits
        // still need their dirty bits set and take the resolution loop.
        if all_hit && self.filter_enabled && !(is_write && wb) {
            for (lane, &hw) in hit_way.iter().enumerate() {
                self.filter_index[slot * k + lane] =
                    (self.lane_base[lane] + hw as usize * k) as u32;
            }
            self.filter_tags[slot] = raw;
            self.filter_valid[slot] = self.active_mask;
            flags.fill(AccessFlags(AccessFlags::HIT));
            return;
        }

        // Miss wave: batch the victim draws in one PRNG sweep instead of
        // one call per lane (ascending lane order, matching each lane's
        // scalar `SetAssocCache` draw stream).
        if !self.draw_lanes.is_empty() {
            self.rng.next_below_lanes(
                self.geometry.ways(),
                &self.draw_lanes,
                &mut self.draws,
            );
        }

        // Hot read-wave resolution (Random replacement with the filter
        // armed): hits mutate nothing but their filter booking, so the
        // first pass books every lane branch-free — predicated flag and
        // filter-index writes plus a branch-free compaction of the lanes
        // that missed — and a second, short loop fills only those lanes.
        // The data-dependent hit/miss branch of the generic loop
        // mispredicts roughly once per mixed wave on a ~50% miss-rate
        // workload; compaction moves that cost to a predictable loop
        // bound.  The set scratch doubles as the miss list: under Random
        // replacement nothing reads it as a set index (LRU touches are
        // skipped and `victim_with` is unreachable).  After a read wave
        // every lane holds the line, so the filter slot is retagged with
        // the full active mask unconditionally.
        if !is_write && self.filter_enabled {
            let mut misses = 0usize;
            for (lane, (&hw, flag)) in hit_way.iter().zip(flags.iter_mut()).enumerate() {
                let hit = hw != NO_WAY;
                *flag = AccessFlags(if hit { AccessFlags::HIT } else { 0 });
                let way = if hit { hw as usize } else { 0 };
                self.filter_index[slot * k + lane] = (self.lane_base[lane] + way * k) as u32;
                self.set_scratch[misses] = lane as u32;
                misses += usize::from(!hit);
            }
            let mut draw_cursor = 0;
            for i in 0..misses {
                let lane = self.set_scratch[i] as usize;
                let way = if inv_way[lane] != NO_WAY {
                    inv_way[lane]
                } else {
                    let draw = self.draws[draw_cursor];
                    draw_cursor += 1;
                    draw
                };
                let index = self.lane_base[lane] + way as usize * k;
                let old_tag = self.tags[index];
                let mut fl = AccessFlags::FILLED;
                if old_tag != INVALID_TAG {
                    fl |= AccessFlags::EVICTED;
                    if wb && bit_get(&self.dirty, index) {
                        fl |= AccessFlags::WRITEBACK;
                    }
                    // Keep the valid bits authoritative: the victim is no
                    // longer resident in this lane.
                    let old_slot = (old_tag as usize) & (FILTER_SLOTS - 1);
                    if self.filter_tags[old_slot] == old_tag {
                        self.filter_valid[old_slot] &= !(1u64 << lane);
                    }
                }
                self.tags[index] = raw;
                if wb {
                    bit_clear(&mut self.dirty, index);
                }
                self.filter_index[slot * k + lane] = index as u32;
                flags[lane] = AccessFlags(fl);
            }
            self.filter_tags[slot] = raw;
            self.filter_valid[slot] = self.active_mask;
            return;
        }

        // Resolution stage: book each lane's outcome.  Every lane the wave
        // leaves resident — read hits and fills, write-back store hits and
        // fills, write-through store hits — arms its residency-filter bit
        // on the way out, so repeat reads *and* idempotent repeat stores
        // can short-circuit; a write-through store miss allocates nothing
        // and arms nothing.  `touch` only mutates LRU state, and the dirty
        // bitmap only matters under write-back, so both are skipped
        // wholesale when the policy makes them no-ops.
        let wb_write = is_write && wb;
        let do_touch = self.replacement_kind == ReplacementKind::Lru;
        let arm = self.filter_enabled;
        let mut armed_bits = 0u64;
        let mut draw_cursor = 0;
        for lane in 0..a {
            let set = self.set_scratch[lane];
            let base = self.lane_base[lane];
            let hw = hit_way[lane];
            flags[lane] = if hw != NO_WAY {
                if do_touch {
                    self.replacement[lane].touch(set, hw);
                }
                if wb_write {
                    bit_set(&mut self.dirty, base + hw as usize * k);
                }
                if arm {
                    self.filter_index[slot * k + lane] = (base + hw as usize * k) as u32;
                    armed_bits |= 1u64 << lane;
                }
                AccessFlags(AccessFlags::HIT)
            } else if wt_store {
                // Write-through store miss: goes straight to the next
                // level, no allocation.
                AccessFlags(0)
            } else {
                let way = if inv_way[lane] != NO_WAY {
                    inv_way[lane]
                } else if self.replacement_kind == ReplacementKind::Random {
                    let draw = self.draws[draw_cursor];
                    draw_cursor += 1;
                    draw
                } else {
                    self.replacement[lane]
                        .victim_with(set, |_| unreachable!("non-random replacement never draws"))
                };
                let index = base + way as usize * k;
                let old_tag = self.tags[index];
                let mut fl = AccessFlags::FILLED;
                if old_tag != INVALID_TAG {
                    fl |= AccessFlags::EVICTED;
                    if wb && bit_get(&self.dirty, index) {
                        fl |= AccessFlags::WRITEBACK;
                    }
                    if arm {
                        // Keep the valid bits authoritative: the victim is
                        // no longer resident in this lane.
                        let old_slot = (old_tag as usize) & (FILTER_SLOTS - 1);
                        if self.filter_tags[old_slot] == old_tag {
                            self.filter_valid[old_slot] &= !(1u64 << lane);
                        }
                    }
                }
                self.tags[index] = raw;
                if wb_write {
                    bit_set(&mut self.dirty, index);
                } else if wb {
                    bit_clear(&mut self.dirty, index);
                }
                if do_touch {
                    self.replacement[lane].touch(set, way);
                }
                if arm {
                    self.filter_index[slot * k + lane] = index as u32;
                    armed_bits |= 1u64 << lane;
                }
                AccessFlags(fl)
            };
        }
        if armed_bits != 0 {
            if self.filter_tags[slot] == raw {
                self.filter_valid[slot] |= armed_bits;
            } else {
                self.filter_tags[slot] = raw;
                self.filter_valid[slot] = armed_bits;
            }
        }
    }

    /// Applies one access to a single lane (the sparse path: an L2 read
    /// wave only probes the lanes whose L1 missed).  Bit-identical to that
    /// lane's scalar [`SetAssocCache::access`].
    #[inline]
    pub fn access_lean_lane(&mut self, lane: usize, line: LineAddr, kind: AccessKind) -> AccessFlags {
        debug_assert!(lane < self.active, "lane {lane} not active");
        debug_assert_ne!(
            line.raw(),
            INVALID_TAG,
            "line address collides with the invalid-tag sentinel"
        );
        let raw = line.raw();
        let is_write = kind.is_write();
        let k = self.lanes;
        // Residency-filter fast path, per lane: the slot's valid bitmask
        // lets a single lane trust (and arm) its own index without
        // touching the other lanes' entries.  Reads only, Random
        // replacement only — the same no-mutation argument as the wave
        // fast path.
        let slot = (raw as usize) & (FILTER_SLOTS - 1);
        let lane_bit = 1u64 << (lane & 63);
        if !is_write && self.filter_tags[slot] == raw && self.filter_valid[slot] & lane_bit != 0 {
            return AccessFlags(AccessFlags::HIT);
        }

        let set = self.placement.index_lane(lane, line);
        let base = set as usize * self.ways * k + lane;

        // Scalar-style probe over this lane's strided cells.
        let mut invalid_way = NO_WAY;
        let mut hit_way = NO_WAY;
        for w in 0..self.ways {
            let tag = self.tags[base + w * k];
            if tag == raw {
                hit_way = w as u32;
                break;
            }
            if tag == INVALID_TAG && invalid_way == NO_WAY {
                invalid_way = w as u32;
            }
        }

        let wb = self.write_policy == WritePolicy::WriteBack;
        let do_touch = self.replacement_kind == ReplacementKind::Lru;
        if hit_way != NO_WAY {
            if do_touch {
                self.replacement[lane].touch(set, hit_way);
            }
            if is_write && wb {
                bit_set(&mut self.dirty, base + hit_way as usize * k);
            } else if self.filter_enabled && !is_write {
                self.arm_filter_lane(slot, lane, lane_bit, raw, base + hit_way as usize * k);
            }
            return AccessFlags(AccessFlags::HIT);
        }
        if is_write && !wb {
            return AccessFlags(0);
        }
        let way = if invalid_way != NO_WAY {
            invalid_way
        } else {
            let rng = &mut self.rng;
            self.replacement[lane].victim_with(set, |ways| rng.next_below_lane(lane, ways))
        };
        let index = base + way as usize * k;
        let old_tag = self.tags[index];
        let mut fl = AccessFlags::FILLED;
        if old_tag != INVALID_TAG {
            fl |= AccessFlags::EVICTED;
            if wb && bit_get(&self.dirty, index) {
                fl |= AccessFlags::WRITEBACK;
            }
            if self.filter_enabled {
                // Keep the valid bits authoritative: the victim is no
                // longer resident in this lane.
                let old_slot = (old_tag as usize) & (FILTER_SLOTS - 1);
                if self.filter_tags[old_slot] == old_tag {
                    self.filter_valid[old_slot] &= !lane_bit;
                }
            }
        }
        self.tags[index] = raw;
        if is_write && wb {
            bit_set(&mut self.dirty, index);
        } else if wb {
            bit_clear(&mut self.dirty, index);
        }
        if do_touch {
            self.replacement[lane].touch(set, way);
        }
        if self.filter_enabled && !is_write {
            self.arm_filter_lane(slot, lane, lane_bit, raw, index);
        }
        AccessFlags(fl)
    }

    /// Arms one lane's residency-filter entry for `raw` at `slot` after a
    /// sparse read left the line resident at flat tag index `index`.  A
    /// slot holding a different line is retagged and its other lanes'
    /// valid bits dropped (they described the old line's residency).
    #[inline]
    fn arm_filter_lane(&mut self, slot: usize, lane: usize, lane_bit: u64, raw: u64, index: usize) {
        if self.filter_tags[slot] == raw {
            self.filter_valid[slot] |= lane_bit;
        } else {
            self.filter_tags[slot] = raw;
            self.filter_valid[slot] = lane_bit;
        }
        self.filter_index[slot * self.lanes + lane] = index as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(placement: PlacementKind, write_policy: WritePolicy) -> SetAssocCache {
        // 8 sets x 2 ways x 32B lines = 512B: small enough to force
        // evictions quickly in tests.
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        SetAssocCache::with_kinds(geometry, placement, ReplacementKind::Lru, write_policy).unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        let addr = Address::new(0x40);
        assert!(cache.access(addr, AccessKind::Load).is_miss());
        assert!(cache.access(addr, AccessKind::Load).is_hit());
        assert_eq!(cache.stats().accesses, 2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        assert!(cache.access(Address::new(0x100), AccessKind::Load).is_miss());
        assert!(cache.access(Address::new(0x11F), AccessKind::Load).is_hit());
    }

    #[test]
    fn capacity_eviction_with_lru() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        // Three lines that all map to set 0 (stride = 8 sets * 32B = 256B).
        let a = Address::new(0);
        let b = Address::new(256);
        let c = Address::new(512);
        cache.access(a, AccessKind::Load);
        cache.access(b, AccessKind::Load);
        let outcome = cache.access(c, AccessKind::Load);
        assert!(outcome.is_miss());
        assert!(matches!(outcome, AccessOutcome::Miss { evicted: Some(_), .. }));
        // `a` was the LRU line, so it must be gone while `b` survived.
        assert!(!cache.contains(a));
        assert!(cache.contains(b));
        assert!(cache.contains(c));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn write_through_store_miss_does_not_allocate() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        let addr = Address::new(0x80);
        let outcome = cache.access(addr, AccessKind::Store);
        assert_eq!(
            outcome,
            AccessOutcome::Miss {
                allocated: false,
                evicted: None
            }
        );
        assert!(!cache.contains(addr));
        assert_eq!(cache.stats().fills, 0);
    }

    #[test]
    fn write_back_store_miss_allocates_and_dirties() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteBack);
        let a = Address::new(0);
        let b = Address::new(256);
        let c = Address::new(512);
        cache.access(a, AccessKind::Store);
        cache.access(b, AccessKind::Load);
        // Evicting the dirty line must produce a write-back.
        let outcome = cache.access(c, AccessKind::Load);
        assert!(outcome.caused_writeback());
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn write_through_never_writes_back() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        for i in 0..64u64 {
            cache.access(Address::new(i * 32), AccessKind::Store);
            cache.access(Address::new(i * 32), AccessKind::Load);
        }
        assert_eq!(cache.stats().writebacks, 0);
    }

    #[test]
    fn reseed_flushes_contents() {
        let mut cache = small_cache(PlacementKind::RandomModulo, WritePolicy::WriteThrough);
        let addr = Address::new(0x40);
        cache.access(addr, AccessKind::Load);
        assert!(cache.contains(addr));
        cache.reseed(99);
        assert!(!cache.contains(addr));
        assert!(cache.access(addr, AccessKind::Load).is_miss());
        assert!(cache.stats().flushes >= 1);
    }

    #[test]
    fn flush_resets_occupancy() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        for i in 0..16u64 {
            cache.access(Address::new(i * 32), AccessKind::Load);
        }
        assert_eq!(cache.resident_lines(), 16);
        cache.flush();
        assert_eq!(cache.resident_lines(), 0);
    }

    #[test]
    fn reseed_disarms_the_mru_read_filter() {
        // The lane bank's residency filter is an MRU read filter widened to
        // the whole wave.  After a reseed (which flushes every lane and
        // moves the line to a new set under the seeded placements) the
        // previously filtered line must miss in every lane, under every
        // placement — a stale filter entry would answer with a phantom hit.
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        let line = geometry.line_addr(Address::new(0x40));
        for placement in PlacementKind::ALL {
            let mut bank = SetAssocCacheLanes::with_kinds(
                geometry,
                placement,
                ReplacementKind::Random,
                WritePolicy::WriteThrough,
                3,
            )
            .unwrap();
            let mut flags = vec![AccessFlags::default(); 3];
            bank.reseed_wave(&[1, 2, 3]);
            bank.access_lean_lanes(line, AccessKind::Load, &mut flags);
            bank.access_lean_lanes(line, AccessKind::Load, &mut flags);
            assert!(
                flags.iter().all(|f| f.is_hit()),
                "filter not armed under {placement}"
            );
            bank.reseed_wave(&[0xFEED_F00D, 5, 6]);
            bank.access_lean_lanes(line, AccessKind::Load, &mut flags);
            assert!(
                flags.iter().all(|f| f.is_miss()),
                "phantom filter hit after reseed under {placement}"
            );
            // The miss wave refilled (and re-armed) the line in every lane.
            assert!(bank.access_lean_lane(0, line, AccessKind::Load).is_hit());
        }
    }

    #[test]
    fn access_flags_pack_every_outcome_field() {
        let hit = AccessFlags::from(AccessOutcome::Hit { way: 3 });
        assert!(hit.is_hit() && !hit.filled() && !hit.evicted() && !hit.wrote_back());
        let bypass = AccessFlags::from(AccessOutcome::Miss {
            allocated: false,
            evicted: None,
        });
        assert!(bypass.is_miss() && !bypass.filled() && !bypass.evicted());
        let victim = |dirty| EvictedLine {
            line: LineAddr::new(9),
            dirty,
        };
        let clean = AccessFlags::from(AccessOutcome::Miss {
            allocated: true,
            evicted: Some(victim(false)),
        });
        assert!(clean.filled() && clean.evicted() && !clean.wrote_back());
        let dirty = AccessFlags::from(AccessOutcome::Miss {
            allocated: true,
            evicted: Some(victim(true)),
        });
        assert!(dirty.filled() && dirty.evicted() && dirty.wrote_back());
    }

    #[test]
    fn working_set_fitting_in_cache_has_no_conflict_misses_with_modulo() {
        // 8 sets x 2 ways: 16 consecutive lines fit exactly; after the cold
        // pass every access must hit.
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        let lines: Vec<Address> = (0..16u64).map(|i| Address::new(i * 32)).collect();
        for &a in &lines {
            cache.access(a, AccessKind::Load);
        }
        cache.reset_stats();
        for _ in 0..10 {
            for &a in &lines {
                assert!(cache.access(a, AccessKind::Load).is_hit());
            }
        }
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn working_set_fitting_in_cache_has_no_conflict_misses_with_rm() {
        // The headline property of RM: consecutive lines that fit in the
        // cache never conflict, for any seed.
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        for seed in [1u64, 2, 3, 0xFFFF, 0xABCD_EF01] {
            let mut cache = SetAssocCache::with_kinds(
                geometry,
                PlacementKind::RandomModulo,
                ReplacementKind::Lru,
                WritePolicy::WriteThrough,
            )
            .unwrap();
            cache.reseed(seed);
            let lines: Vec<Address> = (0..16u64).map(|i| Address::new(i * 32)).collect();
            for &a in &lines {
                cache.access(a, AccessKind::Load);
            }
            cache.reset_stats();
            for _ in 0..5 {
                for &a in &lines {
                    cache.access(a, AccessKind::Load);
                }
            }
            assert_eq!(cache.stats().misses, 0, "seed {seed}");
        }
    }

    #[test]
    fn stats_display_and_ratios() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        cache.access(Address::new(0), AccessKind::Load);
        cache.access(Address::new(0), AccessKind::Load);
        let stats = cache.stats();
        assert!((stats.miss_ratio() - 0.5).abs() < 1e-12);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
        assert!(stats.to_string().contains("2 accesses"));
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn merged_stats_sum_every_field() {
        let mut a = small_cache(PlacementKind::Modulo, WritePolicy::WriteBack);
        let mut b = small_cache(PlacementKind::Modulo, WritePolicy::WriteBack);
        for i in 0..40u64 {
            a.access(Address::new(i * 32), AccessKind::Store);
            b.access(Address::new((i % 8) * 32), AccessKind::Load);
        }
        let merged = a.stats().merged(b.stats());
        assert_eq!(merged.accesses, a.stats().accesses + b.stats().accesses);
        assert_eq!(merged.hits, a.stats().hits + b.stats().hits);
        assert_eq!(merged.misses, merged.accesses - merged.hits);
        assert_eq!(merged.stores, 40);
        assert_eq!(merged.fills, a.stats().fills + b.stats().fills);
        assert_eq!(
            CacheStats::default().merged(a.stats()),
            a.stats(),
            "merging with the identity must be a no-op"
        );
    }

    #[test]
    fn set_index_of_respects_placement() {
        let cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        assert_eq!(cache.set_index_of(Address::new(0)), 0);
        assert_eq!(cache.set_index_of(Address::new(32)), 1);
    }

    #[test]
    fn invalid_ways_are_filled_before_eviction() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        let a = Address::new(0);
        let b = Address::new(256);
        assert!(matches!(
            cache.access(a, AccessKind::Load),
            AccessOutcome::Miss { evicted: None, .. }
        ));
        assert!(matches!(
            cache.access(b, AccessKind::Load),
            AccessOutcome::Miss { evicted: None, .. }
        ));
        assert!(cache.contains(a) && cache.contains(b));
    }

    #[test]
    #[should_panic(expected = "does not match the cache geometry")]
    fn mismatched_placement_geometry_panics() {
        let g1 = CacheGeometry::new(8, 2, 32).unwrap();
        let g2 = CacheGeometry::new(16, 2, 32).unwrap();
        let placement = PlacementKind::Modulo.build(g2).unwrap();
        let _ = SetAssocCache::new(g1, placement, ReplacementKind::Lru, WritePolicy::WriteThrough);
    }

    /// Drives a lane bank and K scalar caches through the same access
    /// stream and asserts bit-identical flags on every access.
    fn assert_lane_bank_matches_scalars(
        geometry: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
        active: usize,
        capacity: usize,
    ) {
        use crate::prng::SplitMix64;
        let mut bank =
            SetAssocCacheLanes::with_kinds(geometry, placement, replacement, write_policy, capacity)
                .unwrap();
        let seeds: Vec<u64> = (0..active as u64).map(|i| i * 0x9E37_79B9 + 0xFEED).collect();
        bank.reseed_wave(&seeds);
        assert_eq!(bank.active_lanes(), active);
        let mut scalars: Vec<SetAssocCache> = seeds
            .iter()
            .map(|&seed| {
                let mut cache =
                    SetAssocCache::with_kinds(geometry, placement, replacement, write_policy)
                        .unwrap();
                cache.reseed(seed);
                cache
            })
            .collect();
        let mut sm = SplitMix64::new(0x1234);
        let mut flags = vec![AccessFlags::default(); active];
        for step in 0..4_000u64 {
            let addr = Address::new(sm.next_u64() & 0x3_FFFF);
            let line = geometry.line_addr(addr);
            let kind = match step % 5 {
                0 | 1 => AccessKind::Load,
                2 => AccessKind::Store,
                _ => AccessKind::InstructionFetch,
            };
            if step % 7 == 3 {
                // Sparse single-lane access (the L2 read-wave path).
                let lane = (step % active as u64) as usize;
                assert_eq!(
                    bank.access_lean_lane(lane, line, kind),
                    AccessFlags::from(scalars[lane].access(addr, kind)),
                    "{placement}/{replacement} sparse lane {lane} step {step}"
                );
            } else {
                bank.access_lean_lanes(line, kind, &mut flags);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    assert_eq!(
                        flags[lane],
                        AccessFlags::from(scalar.access(addr, kind)),
                        "{placement}/{replacement}/{write_policy:?} lane {lane} step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_bank_matches_scalar_caches_for_every_policy_mix() {
        let geometry = CacheGeometry::new(8, 4, 32).unwrap();
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                for write_policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                    assert_lane_bank_matches_scalars(
                        geometry,
                        placement,
                        replacement,
                        write_policy,
                        4,
                        4,
                    );
                }
            }
        }
    }

    #[test]
    fn lane_bank_partial_waves_match_scalar_caches() {
        // Non-multiple widths and partial final chunks: active < capacity,
        // including a single active lane and odd counts.
        let geometry = CacheGeometry::new(8, 4, 32).unwrap();
        for (active, capacity) in [(1usize, 8usize), (3, 8), (5, 8), (3, 3), (7, 16)] {
            for placement in [PlacementKind::Modulo, PlacementKind::HashRandom] {
                assert_lane_bank_matches_scalars(
                    geometry,
                    placement,
                    ReplacementKind::Random,
                    WritePolicy::WriteThrough,
                    active,
                    capacity,
                );
            }
        }
    }

    #[test]
    fn lane_bank_reseed_wave_flushes_every_lane() {
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        let mut bank = SetAssocCacheLanes::with_kinds(
            geometry,
            PlacementKind::RandomModulo,
            ReplacementKind::Random,
            WritePolicy::WriteThrough,
            4,
        )
        .unwrap();
        bank.reseed_wave(&[1, 2, 3, 4]);
        let mut flags = vec![AccessFlags::default(); 4];
        let line = geometry.line_addr(Address::new(0x40));
        bank.access_lean_lanes(line, AccessKind::Load, &mut flags);
        assert!(flags.iter().all(|f| f.is_miss()));
        bank.access_lean_lanes(line, AccessKind::Load, &mut flags);
        assert!(flags.iter().all(|f| f.is_hit()));
        // Reseeding flushes: the same line must miss again on every lane,
        // even with identical seeds (contents are gone).
        bank.reseed_wave(&[1, 2, 3, 4]);
        bank.access_lean_lanes(line, AccessKind::Load, &mut flags);
        assert!(flags.iter().all(|f| f.is_miss()), "phantom hit after reseed_wave");
    }

    #[test]
    fn lane_bank_custom_placement_matches_scalar_boxed_caches() {
        // The Placement::Custom fallback: boxed dyn policies still work,
        // dispatched per lane through the scalar path.
        use crate::prng::SplitMix64;
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        let seeds = [11u64, 22, 33];
        let placements: Vec<Placement> = seeds
            .iter()
            .map(|_| Placement::from(PlacementKind::HashRandom.build(geometry).unwrap()))
            .collect();
        let mut bank = SetAssocCacheLanes::with_placements(
            geometry,
            placements,
            ReplacementKind::Random,
            WritePolicy::WriteThrough,
        );
        assert!(bank.uses_custom_placement());
        bank.reseed_wave(&seeds);
        let mut scalars: Vec<SetAssocCache> = seeds
            .iter()
            .map(|&seed| {
                let mut cache = SetAssocCache::new(
                    geometry,
                    PlacementKind::HashRandom.build(geometry).unwrap(),
                    ReplacementKind::Random,
                    WritePolicy::WriteThrough,
                );
                cache.reseed(seed);
                cache
            })
            .collect();
        let mut sm = SplitMix64::new(5);
        let mut flags = vec![AccessFlags::default(); 3];
        for step in 0..3_000 {
            let addr = Address::new(sm.next_u64() & 0xFFFF);
            bank.access_lean_lanes(geometry.line_addr(addr), AccessKind::Load, &mut flags);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(
                    flags[lane],
                    AccessFlags::from(scalar.access(addr, AccessKind::Load)),
                    "custom lane {lane} step {step}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "seeds exceed the")]
    fn lane_bank_rejects_too_many_seeds() {
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        let mut bank = SetAssocCacheLanes::with_kinds(
            geometry,
            PlacementKind::Modulo,
            ReplacementKind::Random,
            WritePolicy::WriteThrough,
            2,
        )
        .unwrap();
        bank.reseed_wave(&[1, 2, 3]);
    }

    #[test]
    fn random_replacement_cache_is_deterministic_per_seed() {
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        let run = |seed: u64| -> (u64, u64) {
            let mut cache = SetAssocCache::with_kinds(
                geometry,
                PlacementKind::HashRandom,
                ReplacementKind::Random,
                WritePolicy::WriteThrough,
            )
            .unwrap();
            cache.reseed(seed);
            for i in 0..2000u64 {
                let addr = Address::new((i * 7919) % 4096 * 32);
                cache.access(addr, AccessKind::Load);
            }
            (cache.stats().hits, cache.stats().misses)
        };
        assert_eq!(run(42), run(42));
    }
}
