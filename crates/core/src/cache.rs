//! The set-associative cache model: [`SetAssocCacheLanes`], a bank of K
//! per-seed caches with pluggable placement and replacement.
//!
//! The model is *functional*: it tracks which lines are resident and reports
//! hits, misses, evictions and write-backs.  Timing (hit/miss latencies,
//! multi-level hierarchies) is layered on top by `randmod-sim`.
//!
//! Two aspects mirror the paper's hardware discussion:
//!
//! * **Seed changes flush the cache.**  Every new seed selects a new cache
//!   layout, so resident contents become unreachable;
//!   [`SetAssocCacheLanes::reseed_wave`] therefore invalidates every lane,
//!   like the real design.
//! * **Index storage in the tag array.**  With hRP the set a line sits in is
//!   not recoverable from its tag, so the index bits must be stored with the
//!   tag (extra area, modelled in `randmod-hwcost`).  The functional model
//!   stores the full line address for all policies so hit/miss behaviour is
//!   exact regardless of policy.

use crate::address::{CacheGeometry, LineAddr};
use crate::error::ConfigError;
use crate::placement::{PlacementKind, PlacementLanes};
use crate::prng::CombinedLfsrLanes;
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

/// Outcome of one [`SetAssocCacheLanes::access`] as four lane masks: bit
/// `i` of each is lane `i`'s outcome, and every bit outside the selected
/// active lanes is clear.  A selected lane missed exactly when its `hits`
/// bit is clear, and the masks nest: `fills` ⊆ ¬`hits` (write-through
/// store misses do not allocate), `evictions` ⊆ `fills` and `writebacks` ⊆
/// `evictions`.  A caller books what every lane shares once and walks only
/// the set bits of the miss side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessMasks {
    /// Lanes whose access hit.
    pub hits: u64,
    /// Lanes whose miss allocated a line.
    pub fills: u64,
    /// Lanes whose fill displaced a valid line.
    pub evictions: u64,
    /// Lanes whose displaced line was dirty (a write-back).
    pub writebacks: u64,
}

/// Sentinel stored in the flat tag array for an invalid way.  Line
/// addresses are byte addresses shifted right by the offset bits, and the
/// trace pipeline caps addresses at 2⁶² − 1, so the all-ones value can
/// never be a real line.
const INVALID_TAG: u64 = u64::MAX;

/// Bit `index` of a packed bitmap (the dirty bitmap covers every tag
/// cell, so an index past its end never occurs and reads as clear).
#[inline]
fn bit_get(words: &[u64], index: usize) -> bool {
    words
        .get(index >> 6)
        .is_some_and(|word| (word >> (index & 63)) & 1 == 1)
}

#[inline]
fn bit_set(words: &mut [u64], index: usize) {
    if let Some(word) = words.get_mut(index >> 6) {
        *word |= 1 << (index & 63);
    }
}

#[inline]
fn bit_clear(words: &mut [u64], index: usize) {
    if let Some(word) = words.get_mut(index >> 6) {
        *word &= !(1 << (index & 63));
    }
}

/// `u32::MAX` as a way sentinel of the probe ("no hit way found yet" /
/// "no invalid way found yet").
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

/// K per-seed caches behind one masked access.
///
/// The lane-batched replay engine applies each decoded trace op to K
/// independent per-seed cache hierarchies.  `SetAssocCacheLanes` holds
/// those K caches in one bank, tags stored *lane-major* —
/// `tags[(set * ways + way) * K + lane]` — and [`Self::access`] applies
/// one access to the lanes a *lane mask* selects (bit `i` = lane `i`) and
/// returns their outcomes as [`AccessMasks`], in three steps:
///
/// 1. **The wave residency filter** (below): when every selected lane
///    provably holds the line and the access would change nothing, the
///    call returns all-hit without placement, probe or any per-lane
///    write.
/// 2. **One placement sweep**: [`PlacementLanes::index_lanes`] maps the
///    line to a set for every active lane — one index for the
///    seed-independent Modulo/XOR, a memoised row copy for hRP and RM.
/// 3. **A per-lane probe**: each selected lane the filter does not already
///    place scans its set way by way, stops at the first match (or
///    remembers the first invalid way), and resolves its own outcome — LRU
///    touch, dirty bit, victim pick, eviction.  A lane whose Random victim
///    is due draws it from its own PRNG stream at the point of its miss.
///
/// A wave of L1s selects every active lane; the L2 behind it the lanes
/// whose L1 missed.  Lanes outside the mask are neither probed nor
/// written, and each lane draws only on its own full-set allocating
/// misses, so each lane's hit/miss/eviction sequence — and therefore its
/// cycles and statistics — is that of one independent cache reseeded with
/// the same value, whichever subsets of the access stream it takes part
/// in.  The reference model's lane-bank oracle
/// (`crates/sim/tests/reference_model.rs`) pins this access by access
/// against naive per-lane caches, on full and on random lane masks, and
/// its engine-level proptests pin the hierarchies built on the bank.
///
/// Repeat reads short-circuit through a *wave residency filter*: a small
/// direct-mapped table of recently accessed lines and their K per-lane
/// cell indices.  Every lane replays the same line stream, so one table
/// serves the whole bank: a repeat read whose line is resident in *every*
/// selected lane skips placement and probe entirely, which is what makes
/// hot-loop instruction fetch and in-cache data reuse nearly free per
/// lane, and in a mixed access only the lanes not known to hold the line
/// are probed.  It is armed only under Random replacement, where a read
/// hit mutates no state, so taking or missing the fast path changes no
/// outcome.  The per-lane valid bits are *authoritative*: every access
/// that leaves the line resident arms its lane's bit, and every fill that
/// evicts a line clears the victim's bit in the victim's filter slot, so
/// a set bit proves residency and the fast path needs no tag re-check
/// (fills are rare; filter hits are the steady state).  Idempotent repeat
/// stores short-circuit too — a write-through store hit mutates nothing,
/// and a write-back store hit whose dirty bits are already set mutates
/// nothing.
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
    /// Lane-major tag array; see the struct docs for the layout.
    tags: Vec<u64>,
    /// Packed dirty bits, one per (line, lane) in the same linear order.
    dirty: Vec<u64>,
    /// Per-lane replacement state.
    replacement: Vec<ReplacementState>,
    /// Per-lane PRNG bank for victim draws.
    rng: CombinedLfsrLanes,
    /// Per-lane set index of the current access (the placement sweep's
    /// output, `active` wide).
    set_scratch: Vec<u32>,
    /// Wave residency filter: line address per slot ([`FILTER_SLOTS`]
    /// direct-mapped entries, [`INVALID_TAG`] = empty).  Armed only under
    /// Random replacement, where a read hit mutates no per-lane state.
    filter_tags: Vec<u64>,
    /// Per-slot bitmask of lanes in which the slot's line is resident (bit
    /// `lane` set).  Authoritative: set when an access leaves the line
    /// resident in the lane, cleared when a fill evicts it, so the fast
    /// path trusts it without a tag re-check.
    filter_valid: Vec<u64>,
    /// Per-slot, per-lane flat tag index of the filtered line
    /// (`filter_index[slot * K + lane]`; only consulted by the write-back
    /// repeat-store fast path to test dirty bits).  Stored as `u32` to
    /// halve the table's cache footprint.
    filter_index: Vec<u32>,
    /// Whether the residency filter may be armed (replacement is Random
    /// and every tag index fits `u32`).
    filter_enabled: bool,
    /// Bitmask of the active lanes (`(1 << active) - 1`); access masks are
    /// clipped to it.
    active_mask: u64,
}

impl SetAssocCacheLanes {
    /// Widest bank: an access selects its lanes with one `u64` mask.
    pub const MAX_LANES: usize = 64;

    /// Creates a K-lane cache bank from policy identifiers.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the placement policy cannot be built for
    /// this geometry.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or above [`Self::MAX_LANES`].
    pub fn with_kinds(
        geometry: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
        lanes: usize,
    ) -> Result<Self, ConfigError> {
        assert!(
            lanes <= Self::MAX_LANES,
            "{lanes} lanes exceed the {}-lane mask",
            Self::MAX_LANES
        );
        let placement = PlacementLanes::new(placement, geometry, lanes)?;
        let ways = geometry.ways() as usize;
        let cells = geometry.sets() as usize * ways * lanes;
        Ok(SetAssocCacheLanes {
            geometry,
            placement,
            write_policy,
            replacement_kind: replacement,
            ways,
            lanes,
            active: lanes,
            tags: vec![INVALID_TAG; cells],
            dirty: vec![0; cells.div_ceil(64)],
            replacement: (0..lanes)
                .map(|_| ReplacementState::new(replacement, geometry.sets(), geometry.ways()))
                .collect(),
            rng: CombinedLfsrLanes::new(lanes),
            set_scratch: vec![0; lanes],
            filter_tags: vec![INVALID_TAG; FILTER_SLOTS],
            filter_valid: vec![0; FILTER_SLOTS],
            filter_index: vec![0; FILTER_SLOTS * lanes],
            filter_enabled: replacement == ReplacementKind::Random && cells <= u32::MAX as usize,
            active_mask: mask_of(lanes),
        })
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

    /// Reseeds lanes `0..seeds.len()` (one layout per seed) and flushes
    /// every lane's contents, as the hardware does on a seed change.
    /// Subsequent accesses step at most `seeds.len()` active lanes.
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
        self.active_mask = mask_of(self.active);
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

    /// Applies one access to every active lane selected by `mask` (bit `i`
    /// = lane `i`) and returns the lanes' outcomes.  Mask bits at or above
    /// the active lane count are ignored, so `u64::MAX` selects every
    /// active lane; lanes outside the mask are not accessed, and their
    /// bits are clear in every returned mask.
    // randmod: allow(P1, every index is in bounds by construction: slot < FILTER_SLOTS by the power-of-two mask and filter_tags/filter_valid hold FILTER_SLOTS entries, filter_index holds FILTER_SLOTS * lanes; lane is a set bit of a mask clipped to active_mask, so lane < active <= lanes = set_scratch.len() = replacement.len() = rng lanes; set < sets comes from the placement bank and way < ways from the probe or the victim pick, so base + way * lanes < sets * ways * lanes = tags.len() and the dirty bitmap covers every tag cell; an evicted tag is a real line, so its slot is masked like the accessed one)
    #[inline]
    pub fn access(&mut self, line: LineAddr, kind: AccessKind, mask: u64) -> AccessMasks {
        debug_assert_ne!(
            line.raw(),
            INVALID_TAG,
            "line address collides with the invalid-tag sentinel"
        );
        let raw = line.raw();
        let is_write = kind.is_write();
        let wb = self.write_policy == WritePolicy::WriteBack;
        let mask = mask & self.active_mask;
        let k = self.lanes;

        // Residency filter: a repeat access to a recently seen line, still
        // resident in every selected lane, needs no placement indices and
        // no probe (armed only under Random replacement).  A read hit
        // mutates no state; a write-through store hit mutates none either;
        // a write-back store hit only sets the dirty bit, so it may
        // short-circuit when every selected lane's dirty bit is *already*
        // set (the common repeat store).  The valid bits are
        // authoritative, so a set bit *proves* residency.
        let slot = (raw as usize) & (FILTER_SLOTS - 1);
        let resident = if self.filter_tags[slot] == raw {
            self.filter_valid[slot] & mask
        } else {
            0
        };
        if resident == mask {
            let mut idle = true;
            if is_write && wb {
                let mut bits = mask;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    idle &= bit_get(&self.dirty, self.filter_index[slot * k + lane] as usize);
                }
            }
            if idle {
                return AccessMasks {
                    hits: mask,
                    ..AccessMasks::default()
                };
            }
        }

        // Placement: one sweep maps the line for every active lane.
        self.placement
            .index_lanes(line, &mut self.set_scratch[..self.active]);

        // Per-lane probe and resolution.  The filter's resident lanes of a
        // read or write-through store hit without a probe, as on the fast
        // path above.  `touch` only mutates LRU state and the dirty bitmap
        // only matters under write-back, so both are skipped when the
        // policy makes them no-ops.  Every lane the access leaves resident
        // — hits and fills, but not a write-through store miss, which
        // allocates nothing — arms its filter bit.
        let skip = if is_write && wb { 0 } else { resident };
        let mut out = AccessMasks {
            hits: skip,
            ..AccessMasks::default()
        };
        let ways = self.ways;
        let row = ways * k;
        let do_touch = self.replacement_kind == ReplacementKind::Lru;
        let arm = self.filter_enabled;
        let mut armed = 0u64;
        let mut bits = mask & !skip;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            let lane_bit = 1u64 << lane;
            bits &= bits - 1;
            let set = self.set_scratch[lane];
            let base = set as usize * row + lane;
            let mut hit_way = NO_WAY;
            let mut inv_way = NO_WAY;
            for w in 0..ways {
                let tag = self.tags[base + w * k];
                if tag == raw {
                    hit_way = w as u32;
                    break;
                }
                if tag == INVALID_TAG && inv_way == NO_WAY {
                    inv_way = w as u32;
                }
            }
            let index = if hit_way != NO_WAY {
                let index = base + hit_way as usize * k;
                if do_touch {
                    self.replacement[lane].touch(set, hit_way);
                }
                if is_write && wb {
                    bit_set(&mut self.dirty, index);
                }
                out.hits |= lane_bit;
                index
            } else if is_write && !wb {
                // Write-through store miss: goes straight to the next
                // level, no allocation, no victim draw.
                continue;
            } else {
                let way = if inv_way != NO_WAY {
                    inv_way
                } else {
                    let rng = &mut self.rng;
                    self.replacement[lane].victim_with(set, |ways| rng.next_below_lane(lane, ways))
                };
                let index = base + way as usize * k;
                let old_tag = self.tags[index];
                out.fills |= lane_bit;
                if old_tag != INVALID_TAG {
                    out.evictions |= lane_bit;
                    if wb && bit_get(&self.dirty, index) {
                        out.writebacks |= lane_bit;
                    }
                    if arm {
                        // Keep the valid bits authoritative: the victim is
                        // no longer resident in this lane.
                        let old_slot = (old_tag as usize) & (FILTER_SLOTS - 1);
                        if self.filter_tags[old_slot] == old_tag {
                            self.filter_valid[old_slot] &= !lane_bit;
                        }
                    }
                }
                self.tags[index] = raw;
                if is_write {
                    bit_set(&mut self.dirty, index);
                } else if wb {
                    bit_clear(&mut self.dirty, index);
                }
                if do_touch {
                    self.replacement[lane].touch(set, way);
                }
                index
            };
            if arm {
                self.filter_index[slot * k + lane] = index as u32;
                armed |= lane_bit;
            }
        }
        if armed != 0 {
            if self.filter_tags[slot] == raw {
                self.filter_valid[slot] |= armed;
            } else {
                self.filter_tags[slot] = raw;
                self.filter_valid[slot] = armed;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;

    /// A one-lane LRU bank under seed 0: 8 sets x 2 ways x 32B lines =
    /// 512B, small enough to force evictions quickly in tests.
    fn small_cache(placement: PlacementKind, write_policy: WritePolicy) -> SetAssocCacheLanes {
        one_lane(placement, ReplacementKind::Lru, write_policy, 0)
    }

    /// A one-lane 8 x 2 x 32B bank reseeded with `seed`.
    fn one_lane(
        placement: PlacementKind,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
        seed: u64,
    ) -> SetAssocCacheLanes {
        let geometry = CacheGeometry::new(8, 2, 32).unwrap();
        let mut bank =
            SetAssocCacheLanes::with_kinds(geometry, placement, replacement, write_policy, 1)
                .unwrap();
        bank.reseed_wave(&[seed]);
        bank
    }

    /// One access of the byte address `addr` on a one-lane bank.
    fn access(bank: &mut SetAssocCacheLanes, addr: u64, kind: AccessKind) -> AccessMasks {
        let line = bank.geometry().line_addr(Address::new(addr));
        bank.access(line, kind, 1)
    }

    /// Lane-0 outcomes of a one-lane bank: a hit, a fill into an invalid
    /// way, a fill that evicts a clean line and one that writes back.
    const HIT: AccessMasks = outcome(1, 0, 0, 0);
    const FILL: AccessMasks = outcome(0, 1, 0, 0);
    const EVICT: AccessMasks = outcome(0, 1, 1, 0);
    const WRITEBACK: AccessMasks = outcome(0, 1, 1, 1);

    const fn outcome(hits: u64, fills: u64, evictions: u64, writebacks: u64) -> AccessMasks {
        AccessMasks {
            hits,
            fills,
            evictions,
            writebacks,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        assert_eq!(access(&mut cache, 0x40, AccessKind::Load), FILL);
        assert_eq!(access(&mut cache, 0x40, AccessKind::Load), HIT);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        assert_eq!(access(&mut cache, 0x100, AccessKind::Load), FILL);
        assert_eq!(access(&mut cache, 0x11F, AccessKind::Load), HIT);
    }

    #[test]
    fn capacity_eviction_with_lru() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        // Three lines that all map to set 0 (stride = 8 sets * 32B = 256B).
        let (a, b, c) = (0, 256, 512);
        access(&mut cache, a, AccessKind::Load);
        access(&mut cache, b, AccessKind::Load);
        assert_eq!(access(&mut cache, c, AccessKind::Load), EVICT);
        // `a` was the LRU line, so it must be gone while `b` and `c`
        // survived.
        assert_eq!(access(&mut cache, b, AccessKind::Load), HIT);
        assert_eq!(access(&mut cache, c, AccessKind::Load), HIT);
        assert_eq!(access(&mut cache, a, AccessKind::Load), EVICT);
    }

    #[test]
    fn write_through_store_miss_does_not_allocate() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        assert_eq!(
            access(&mut cache, 0x80, AccessKind::Store),
            AccessMasks::default()
        );
        assert_eq!(access(&mut cache, 0x80, AccessKind::Load), FILL);
    }

    #[test]
    fn write_back_store_miss_allocates_and_dirties() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteBack);
        assert_eq!(access(&mut cache, 0, AccessKind::Store), FILL);
        access(&mut cache, 256, AccessKind::Load);
        // Evicting the dirty line must produce a write-back.
        assert_eq!(access(&mut cache, 512, AccessKind::Load), WRITEBACK);
    }

    #[test]
    fn write_through_never_writes_back() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        for i in 0..64u64 {
            assert_eq!(access(&mut cache, i * 32, AccessKind::Store).writebacks, 0);
            assert_eq!(access(&mut cache, i * 32, AccessKind::Load).writebacks, 0);
        }
    }

    #[test]
    fn reseed_flushes_contents() {
        let mut cache = small_cache(PlacementKind::RandomModulo, WritePolicy::WriteThrough);
        access(&mut cache, 0x40, AccessKind::Load);
        assert_eq!(access(&mut cache, 0x40, AccessKind::Load), HIT);
        cache.reseed_wave(&[99]);
        assert_eq!(access(&mut cache, 0x40, AccessKind::Load), FILL);
    }

    #[test]
    fn flush_resets_occupancy() {
        // Reseeding is the bank's flush: a full cache's worth of resident
        // lines, one in every way of every set, is gone afterwards even
        // under the same seed.
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        for i in 0..16u64 {
            access(&mut cache, i * 32, AccessKind::Load);
        }
        for i in 0..16u64 {
            assert_eq!(access(&mut cache, i * 32, AccessKind::Load), HIT);
        }
        cache.reseed_wave(&[0]);
        for i in 0..16u64 {
            assert_eq!(
                access(&mut cache, i * 32, AccessKind::Load),
                FILL,
                "line {i}"
            );
        }
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
            bank.reseed_wave(&[1, 2, 3]);
            bank.access(line, AccessKind::Load, 0b111);
            assert_eq!(
                bank.access(line, AccessKind::Load, 0b111),
                outcome(0b111, 0, 0, 0),
                "filter not armed under {placement}"
            );
            bank.reseed_wave(&[0xFEED_F00D, 5, 6]);
            assert_eq!(
                bank.access(line, AccessKind::Load, 0b111),
                outcome(0, 0b111, 0, 0),
                "phantom filter hit after reseed under {placement}"
            );
            // The miss refilled (and re-armed) the line in every lane:
            // a one-lane access hits, and reports nothing for the others.
            assert_eq!(
                bank.access(line, AccessKind::Load, 0b001),
                outcome(0b001, 0, 0, 0)
            );
        }
    }

    #[test]
    fn access_masks_report_every_outcome_field() {
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteBack);
        assert_eq!(access(&mut cache, 0, AccessKind::Load), FILL);
        assert_eq!(access(&mut cache, 0, AccessKind::Load), HIT);
        // Set 0 now holds the clean line 0 and the dirty line 256.
        access(&mut cache, 256, AccessKind::Store);
        assert_eq!(access(&mut cache, 512, AccessKind::Load), EVICT);
        assert_eq!(access(&mut cache, 768, AccessKind::Load), WRITEBACK);
        let mut through = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        assert_eq!(
            access(&mut through, 0, AccessKind::Store),
            AccessMasks::default()
        );
    }

    #[test]
    fn working_set_fitting_in_cache_has_no_conflict_misses_with_modulo() {
        // 8 sets x 2 ways: 16 consecutive lines fit exactly; after the cold
        // pass every access must hit.
        let mut cache = small_cache(PlacementKind::Modulo, WritePolicy::WriteThrough);
        for i in 0..16u64 {
            access(&mut cache, i * 32, AccessKind::Load);
        }
        for _ in 0..10 {
            for i in 0..16u64 {
                assert_eq!(access(&mut cache, i * 32, AccessKind::Load), HIT);
            }
        }
    }

    #[test]
    fn working_set_fitting_in_cache_has_no_conflict_misses_with_rm() {
        // The headline property of RM: consecutive lines that fit in the
        // cache never conflict, for any seed.
        for seed in [1u64, 2, 3, 0xFFFF, 0xABCD_EF01] {
            let mut cache = one_lane(
                PlacementKind::RandomModulo,
                ReplacementKind::Lru,
                WritePolicy::WriteThrough,
                seed,
            );
            for i in 0..16u64 {
                access(&mut cache, i * 32, AccessKind::Load);
            }
            for _ in 0..5 {
                for i in 0..16u64 {
                    assert_eq!(
                        access(&mut cache, i * 32, AccessKind::Load),
                        HIT,
                        "seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_display_and_ratios() {
        let stats = CacheStats {
            accesses: 2,
            hits: 1,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((stats.miss_ratio() - 0.5).abs() < 1e-12);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
        assert!(stats.to_string().contains("2 accesses"));
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn merged_stats_sum_every_field() {
        let a = CacheStats {
            accesses: 40,
            hits: 10,
            misses: 30,
            fills: 28,
            evictions: 12,
            writebacks: 5,
            stores: 40,
            flushes: 1,
        };
        let b = CacheStats {
            accesses: 7,
            hits: 6,
            misses: 1,
            fills: 1,
            evictions: 0,
            writebacks: 0,
            stores: 2,
            flushes: 3,
        };
        assert_eq!(
            a.merged(b),
            CacheStats {
                accesses: 47,
                hits: 16,
                misses: 31,
                fills: 29,
                evictions: 12,
                writebacks: 5,
                stores: 42,
                flushes: 4,
            }
        );
        assert_eq!(a.merged(b), b.merged(a));
        assert_eq!(
            CacheStats::default().merged(a),
            a,
            "merging with the identity must be a no-op"
        );
    }

    #[test]
    fn invalid_ways_are_filled_before_eviction() {
        for replacement in ReplacementKind::ALL {
            let mut cache = one_lane(
                PlacementKind::Modulo,
                replacement,
                WritePolicy::WriteThrough,
                0,
            );
            // Two lines of set 0 fill its two ways without evicting.
            for addr in [0, 256] {
                assert_eq!(
                    access(&mut cache, addr, AccessKind::Load),
                    FILL,
                    "{replacement}"
                );
            }
            assert_eq!(
                access(&mut cache, 0, AccessKind::Load),
                HIT,
                "{replacement}"
            );
            assert_eq!(
                access(&mut cache, 256, AccessKind::Load),
                HIT,
                "{replacement}"
            );
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
        let line = geometry.line_addr(Address::new(0x40));
        assert_eq!(
            bank.access(line, AccessKind::Load, u64::MAX),
            outcome(0, 0b1111, 0, 0)
        );
        assert_eq!(
            bank.access(line, AccessKind::Load, u64::MAX),
            outcome(0b1111, 0, 0, 0)
        );
        // Reseeding flushes: the same line must miss again on every lane,
        // even with identical seeds (contents are gone).
        bank.reseed_wave(&[1, 2, 3, 4]);
        assert_eq!(
            bank.access(line, AccessKind::Load, u64::MAX),
            outcome(0, 0b1111, 0, 0),
            "phantom hit after reseed_wave"
        );
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
        let run = |seed: u64| -> (u64, u64) {
            let mut cache = one_lane(
                PlacementKind::HashRandom,
                ReplacementKind::Random,
                WritePolicy::WriteThrough,
                seed,
            );
            let mut hits = 0;
            for i in 0..2000u64 {
                let addr = (i * 7919) % 4096 * 32;
                hits += access(&mut cache, addr, AccessKind::Load).hits;
            }
            (hits, 2000 - hits)
        };
        assert_eq!(run(42), run(42));
    }
}
