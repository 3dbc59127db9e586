//! Cache placement policies: modulo, deterministic XOR hashing, hash-based
//! random placement (hRP) and Random Modulo (RM).
//!
//! A *placement policy* decides which cache set a memory address is mapped
//! to.  The paper compares:
//!
//! * [`ModuloPlacement`] — the conventional design: the set index is simply
//!   the low bits of the line address.  Contiguous lines never conflict while
//!   they fit in one way, but the cache layout is a deterministic function of
//!   where the program is placed in memory, which makes measurement-based
//!   timing analysis fragile (cache risk patterns may never show up in the
//!   analysis runs).
//! * [`XorPlacement`] — a deterministic XOR-folding hash (related work
//!   [González et al., ICS'97]).  It removes some pathological patterns but
//!   is still deterministic, hence not MBPTA-compliant.
//! * [`HashRandomPlacement`] (hRP) — the existing MBPTA-compliant design:
//!   a parametric hash of *all* upper address bits and a per-run random
//!   seed, built from rotate blocks and XOR gates.  Every address is mapped
//!   (pseudo-)uniformly to any set, so even a handful of contiguous lines
//!   can collide in the same set with non-negligible probability.
//! * [`RandomModuloPlacement`] (RM) — the paper's contribution: a per-run,
//!   per-segment *permutation* of the modulo index bits implemented with a
//!   Benes network whose control word is derived from the upper address bits
//!   and the seed.  Within one cache segment the mapping stays a bijection,
//!   so spatial locality is preserved exactly like modulo, while layouts
//!   still change randomly across runs as MBPTA requires.

use crate::address::{Address, CacheGeometry, LineAddr};
use crate::benes::BenesNetwork;
use crate::error::ConfigError;
use crate::prng::SplitMix64;
use std::fmt;
use std::str::FromStr;

/// Common interface of all placement policies.
///
/// Implementations are deterministic functions of `(line address, seed)`:
/// re-installing the same seed always reproduces the same cache layout,
/// which is what lets MBPTA reason probabilistically about layouts.
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// The geometry this policy was built for.
    fn geometry(&self) -> CacheGeometry;

    /// Maps a line address to a set index in `0..sets`.
    fn set_index_of_line(&self, line: LineAddr) -> u32;

    /// Maps a byte address to a set index in `0..sets`.
    fn set_index(&self, addr: Address) -> u32 {
        self.set_index_of_line(self.geometry().line_addr(addr))
    }

    /// Installs a new random seed, i.e. selects a new cache layout.
    /// Deterministic policies ignore the seed.
    fn reseed(&mut self, seed: u64);

    /// The currently installed seed.
    fn seed(&self) -> u64;

    /// Which policy this is.
    fn kind(&self) -> PlacementKind;

    /// Whether the layout depends on the seed (i.e. the policy is
    /// time-randomised and therefore a candidate for MBPTA).
    fn is_randomized(&self) -> bool {
        self.kind().is_randomized()
    }

    /// Whether the set index must be stored alongside the tag because it
    /// cannot be reconstructed from the tag bits alone (true for hRP; false
    /// for modulo and, on write-through caches, for RM).
    fn stores_index_in_tag(&self) -> bool {
        self.kind().stores_index_in_tag()
    }
}

/// Identifier of a placement policy, used to configure caches and
/// experiments.
///
/// ```
/// use randmod_core::{PlacementKind, CacheGeometry};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let policy = PlacementKind::RandomModulo.build(CacheGeometry::leon3_l1())?;
/// assert!(policy.is_randomized());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlacementKind {
    /// Conventional modulo placement (deterministic).
    Modulo,
    /// Deterministic XOR-folding hash placement.
    Xor,
    /// Hash-based random placement (hRP).
    HashRandom,
    /// Random Modulo placement (RM) — the paper's contribution.
    RandomModulo,
}

impl PlacementKind {
    /// All policy kinds, in the order used throughout the experiments.
    pub const ALL: [PlacementKind; 4] = [
        PlacementKind::Modulo,
        PlacementKind::Xor,
        PlacementKind::HashRandom,
        PlacementKind::RandomModulo,
    ];

    /// Whether the policy's layout depends on the per-run seed.
    pub const fn is_randomized(self) -> bool {
        matches!(
            self,
            PlacementKind::HashRandom | PlacementKind::RandomModulo
        )
    }

    /// Whether the policy requires index bits to be stored in the tag array
    /// (needed when the index is not a pure function of the tag bits and the
    /// set the line sits in).
    pub const fn stores_index_in_tag(self) -> bool {
        matches!(self, PlacementKind::HashRandom)
    }

    /// Short name used in experiment output.
    pub const fn short_name(self) -> &'static str {
        match self {
            PlacementKind::Modulo => "MOD",
            PlacementKind::Xor => "XOR",
            PlacementKind::HashRandom => "hRP",
            PlacementKind::RandomModulo => "RM",
        }
    }

    /// Builds a boxed policy instance for the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry cannot support the policy
    /// (currently never: all supported geometries work with all policies).
    pub fn build(self, geometry: CacheGeometry) -> Result<Box<dyn PlacementPolicy>, ConfigError> {
        Ok(match self {
            PlacementKind::Modulo => Box::new(ModuloPlacement::new(geometry)),
            PlacementKind::Xor => Box::new(XorPlacement::new(geometry)),
            PlacementKind::HashRandom => Box::new(HashRandomPlacement::new(geometry)),
            PlacementKind::RandomModulo => Box::new(RandomModuloPlacement::new(geometry)),
        })
    }
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PlacementKind::Modulo => "modulo",
            PlacementKind::Xor => "xor",
            PlacementKind::HashRandom => "hrp",
            PlacementKind::RandomModulo => "random-modulo",
        };
        f.pad(name)
    }
}

impl FromStr for PlacementKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "modulo" | "mod" => Ok(PlacementKind::Modulo),
            "xor" => Ok(PlacementKind::Xor),
            "hrp" | "hash" | "hash-random" => Ok(PlacementKind::HashRandom),
            "rm" | "random-modulo" | "randommodulo" => Ok(PlacementKind::RandomModulo),
            other => Err(ConfigError::Inconsistent {
                reason: format!("unknown placement policy '{other}'"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-batched placement (the lane cache's placement sweep)
// ---------------------------------------------------------------------------

/// Placement across K independent seed lanes, slice-in/slice-out.
///
/// The lane-batched replay engine simulates K per-seed cache hierarchies in
/// lock-step: one decoded trace op is applied to all lanes before the next
/// op is decoded.  `PlacementLanes` is the placement stage of each access
/// of the lane cache — one line address in, one set index per active lane
/// out, in one [`Self::index_lanes`] sweep:
///
/// * **Modulo / XOR** are seed-independent, so the sweep computes one
///   index and copies it to every lane.
/// * **hRP** keeps per-lane round keys; [`Self::index_lanes`] runs K
///   independent hash chains in one fixed-trip sweep, which the CPU
///   overlaps (one hash at a time serialises the ~20-operation dependency
///   chain per access — the main reason hRP trailed MOD by ~2x).
/// * **RM** shares one Benes network and memoizes each segment as two
///   half-index tables per lane (a lookup ORs one entry of each), built for
///   *all* lanes on a memo miss: 6 KiB per lane at the 128-set LEON3 L1,
///   16 KiB at the 1,024-set L2.
///
/// Every lane's mapping is bit-identical to the pure policy that
/// [`PlacementKind::build`] returns, reseeded with the same value; the
/// lane-placement unit tests pin this.
#[derive(Debug, Clone)]
pub struct PlacementLanes {
    lanes: usize,
    backend: LaneBackend,
}

#[derive(Debug, Clone)]
enum LaneBackend {
    /// Seed-independent: one scalar policy serves every lane.
    Modulo(ModuloPlacement),
    /// Seed-independent: one scalar policy serves every lane.
    Xor(XorPlacement),
    HashRandom(HashRandomLanes),
    RandomModulo(RandomModuloLanes),
}

impl PlacementLanes {
    /// Builds a lane bank for `kind` on `geometry` with `lanes` lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry cannot support the policy
    /// (currently never: all supported geometries work with all policies).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(
        kind: PlacementKind,
        geometry: CacheGeometry,
        lanes: usize,
    ) -> Result<Self, ConfigError> {
        assert!(lanes > 0, "a lane bank needs at least one lane");
        let backend = match kind {
            PlacementKind::Modulo => LaneBackend::Modulo(ModuloPlacement::new(geometry)),
            PlacementKind::Xor => LaneBackend::Xor(XorPlacement::new(geometry)),
            PlacementKind::HashRandom => {
                LaneBackend::HashRandom(HashRandomLanes::new(geometry, lanes))
            }
            PlacementKind::RandomModulo => {
                LaneBackend::RandomModulo(RandomModuloLanes::new(geometry, lanes))
            }
        };
        Ok(PlacementLanes { lanes, backend })
    }

    /// Number of lanes in the bank.
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// The geometry this bank was built for.
    pub fn geometry(&self) -> CacheGeometry {
        match &self.backend {
            LaneBackend::Modulo(p) => p.geometry(),
            LaneBackend::Xor(p) => p.geometry(),
            LaneBackend::HashRandom(p) => p.geometry,
            LaneBackend::RandomModulo(p) => p.geometry,
        }
    }

    /// Installs a new seed on lane `lane` (selects that lane's layout).
    pub fn reseed_lane(&mut self, lane: usize, seed: u64) {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        match &mut self.backend {
            // Deterministic policies: layout is seed-independent; record on
            // the shared scalar policy so `seed()`-style queries stay sane.
            LaneBackend::Modulo(p) => PlacementPolicy::reseed(p, seed),
            LaneBackend::Xor(p) => PlacementPolicy::reseed(p, seed),
            LaneBackend::HashRandom(p) => p.reseed_lane(lane, seed),
            LaneBackend::RandomModulo(p) => p.reseed_lane(lane, seed),
        }
    }

    /// Maps `line` to a set index for the first `out.len()` lanes, writing
    /// lane `i`'s index into `out[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the lane count.
    #[inline]
    pub fn index_lanes(&mut self, line: LineAddr, out: &mut [u32]) {
        assert!(
            out.len() <= self.lanes,
            "{} indices requested from a {}-lane bank",
            out.len(),
            self.lanes
        );
        match &mut self.backend {
            LaneBackend::Modulo(p) => out.fill(p.set_index_of_line(line)),
            LaneBackend::Xor(p) => out.fill(p.set_index_of_line(line)),
            LaneBackend::HashRandom(p) => p.index_lanes(line, out),
            LaneBackend::RandomModulo(p) => p.index_lanes(line, out),
        }
    }
}

/// Slot count of the hRP lane-hash memo (direct-mapped on the low line
/// address bits; must be a power of two).  Sized so a kernel's code lines
/// plus its data working set stay memoised across trace iterations.
const HRP_MEMO_SLOTS: usize = 1024;

/// hRP across lanes: per-lane round keys in one contiguous array, plus a
/// direct-mapped line → K-indices memo.
///
/// The four-round rotate/XOR hash has data-dependent rotation amounts, so
/// it cannot SIMD-vectorize; computing it K times per access is the single
/// most expensive stage of an hRP wave.  But every lane sees the *same*
/// line stream and the mapping depends only on `(line, seed)`, so the bank
/// memoises each line's K set indices in a lane-major LUT
/// (`memo_index[slot * K + lane]`, tagged by line address): a trace that
/// revisits its working set pays the K hashes once per line per reseed,
/// and every revisit is one contiguous K-wide copy.  A memo miss still
/// runs the K hash chains back-to-back, which at least overlaps their
/// ~20-operation dependency chains in the out-of-order window.
#[derive(Debug, Clone)]
struct HashRandomLanes {
    geometry: CacheGeometry,
    round_keys: Vec<[u64; 4]>,
    /// Line address memoised per slot (`u64::MAX` = empty; line addresses
    /// never reach it — they lose at least the offset bits).
    memo_tags: Vec<u64>,
    /// Per-slot, per-lane memoised set index, lane-major.
    memo_index: Vec<u32>,
}

/// The empty-slot sentinel of the hRP memo.
const HRP_MEMO_EMPTY: u64 = u64::MAX;

impl HashRandomLanes {
    fn new(geometry: CacheGeometry, lanes: usize) -> Self {
        HashRandomLanes {
            geometry,
            round_keys: vec![hrp_round_keys(0); lanes],
            memo_tags: vec![HRP_MEMO_EMPTY; HRP_MEMO_SLOTS],
            memo_index: vec![0; HRP_MEMO_SLOTS * lanes],
        }
    }

    fn reseed_lane(&mut self, lane: usize, seed: u64) {
        // randmod: allow(P1, PlacementLanes::reseed_lane asserts lane < lane_count == round_keys.len() before dispatching here)
        self.round_keys[lane] = hrp_round_keys(seed);
        // The memo caches (line, seed) products: a new seed invalidates it.
        self.memo_tags.fill(HRP_MEMO_EMPTY);
    }

    // randmod: allow(P1, memo arithmetic is in-bounds by construction: slot < HRP_MEMO_SLOTS via the power-of-two mask, memo_tags has HRP_MEMO_SLOTS entries, memo_index has HRP_MEMO_SLOTS * lanes entries so slot*lanes+lanes never overruns, and out.len() <= lanes is asserted by the PlacementLanes facade)
    #[inline]
    fn index_lanes(&mut self, line: LineAddr, out: &mut [u32]) {
        let n = self.geometry.index_bits();
        if n == 0 {
            out.fill(0);
            return;
        }
        let raw = line.raw();
        let lanes = self.round_keys.len();
        let slot = (raw as usize) & (HRP_MEMO_SLOTS - 1);
        let memo = &mut self.memo_index[slot * lanes..slot * lanes + lanes];
        if self.memo_tags[slot] != raw {
            let mask = (self.geometry.sets() - 1) as u64;
            for (cell, keys) in memo.iter_mut().zip(self.round_keys.iter()) {
                *cell = hrp_fold_index(hrp_parametric_hash(*keys, raw), n, mask);
            }
            self.memo_tags[slot] = raw;
        }
        out.copy_from_slice(&memo[..out.len()]);
    }
}

/// Slot count of the RM segment memo (a power of two).  A slot holds one
/// segment's half-index tables for every lane.
const RM_MEMO_SLOTS: usize = 64;

/// RM across lanes: one shared Benes network, per-lane seed material, and a
/// lane-major per-segment memo of half-index tables.
///
/// Under a fixed seed, RM maps each cache segment through one fixed
/// permutation of the index bits, and a program touches only a handful of
/// segments, so the bank memoizes each segment's permutation per lane
/// instead of walking the network on every access.  A switch only
/// exchanges two bit positions, so `perm(x)` is the OR of the images of
/// `x`'s set bits: per lane, a slot holds `lo`, every OR-combination of the
/// images of the `⌈n/2⌉` low index bits, and `hi`, the same for the
/// `⌊n/2⌋` high bits.  A lookup is `lo[x & lo_mask] | hi[x >> lo_bits]`,
/// bit-identical to the walk at every index width.  A slot miss builds both
/// tables from one network pass per lane, ~`2^(n/2+1)` entries, so
/// co-runners that keep swapping slots stay cheap.  Slots are picked by a
/// multiplicative hash of the segment id, so co-runners at power-of-two
/// offsets spread out; reseeding a lane drops every slot.
///
/// Memory per lane is `RM_MEMO_SLOTS` × (`2^⌈n/2⌉ + 2^⌊n/2⌋`) × 4 bytes: 6
/// KiB at the 128-set LEON3 L1 and 16 KiB at the 1,024-set L2.  Slot tags
/// are shared (every lane sees the same line stream), and each table row
/// keeps its K lanes adjacent (`tables[(slot * rows_per_slot + row) *
/// lanes + lane]`, `lo` rows first), so a lookup is two contiguous reads.
#[derive(Debug, Clone)]
struct RandomModuloLanes {
    geometry: CacheGeometry,
    network: BenesNetwork,
    lanes: usize,
    /// Per-lane control material and top bit (see [`rm_seed_material`]).
    seed_material: Vec<(u128, u128)>,
    /// Index bits the `lo` table resolves (`⌈n/2⌉`); `hi` takes the rest.
    lo_bits: u32,
    /// Rows per slot: `2^lo_bits` rows of `lo`, then `2^(n - lo_bits)`
    /// rows of `hi`.
    rows_per_slot: usize,
    /// Segment id resident in each slot (`u64::MAX` = empty).
    tags: Vec<u64>,
    /// Lane-major half-index tables; see the struct docs for the layout.
    tables: Vec<u32>,
    /// Slot-fill scratch: the bit images of the segment being filled,
    /// `images[bit * lanes + lane]`.
    images: Vec<u32>,
}

impl RandomModuloLanes {
    fn new(geometry: CacheGeometry, lanes: usize) -> Self {
        let network = BenesNetwork::new(geometry.index_bits().max(1) as usize);
        let n = geometry.index_bits();
        let lo_bits = n.div_ceil(2);
        let rows_per_slot = (1 << lo_bits) + (1 << (n - lo_bits));
        let mut bank = RandomModuloLanes {
            geometry,
            network,
            lanes,
            seed_material: vec![(0, 0); lanes],
            lo_bits,
            rows_per_slot,
            tags: vec![u64::MAX; RM_MEMO_SLOTS],
            tables: vec![0; RM_MEMO_SLOTS * rows_per_slot * lanes],
            images: vec![0; n as usize * lanes],
        };
        for lane in 0..lanes {
            bank.reseed_lane(lane, 0);
        }
        bank
    }

    fn reseed_lane(&mut self, lane: usize, seed: u64) {
        // randmod: allow(P1, PlacementLanes::reseed_lane asserts lane < lane_count before dispatching here, and the constructor sizes seed_material to exactly `lanes`)
        self.seed_material[lane] = rm_seed_material(seed);
        // A new seed on any lane selects new permutations for that lane;
        // tags are shared, so drop every slot.
        self.tags.fill(u64::MAX);
    }

    /// The slot a segment maps to (Fibonacci hashing on the high product
    /// bits, so segments at regular power-of-two strides spread out).
    #[inline]
    fn slot_of(segment: u64) -> usize {
        let hashed = segment.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hashed >> (u64::BITS - RM_MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// Retags `slot` to `segment` and builds its half-index tables for
    /// every lane.
    // randmod: allow(P1, slot < RM_MEMO_SLOTS via slot_of's top-bits shift and tags holds RM_MEMO_SLOTS entries; tables holds RM_MEMO_SLOTS * rows_per_slot * lanes entries, so the slot's row block is in bounds)
    fn fill_slot(&mut self, slot: usize, segment: u64) {
        self.tags[slot] = segment;
        let lanes = self.lanes;
        let needed = self.network.control_bits();
        for (lane, &(seed_controls, seed_top_bit)) in self.seed_material.iter().enumerate() {
            let controls = rm_control_word(needed, seed_controls, seed_top_bit, segment);
            // `images` holds n rows and the network yields at least n
            // images (one per wire, with a single wire at n = 0).
            let column = self.images.iter_mut().skip(lane).step_by(lanes);
            for (cell, image) in column.zip(self.network.bit_images(controls)) {
                *cell = image;
            }
        }
        let block = self.rows_per_slot * lanes;
        let rows = &mut self.tables[slot * block..(slot + 1) * block];
        let (lo, hi) = rows.split_at_mut((1 << self.lo_bits) * lanes);
        let (lo_images, hi_images) = self.images.split_at(self.lo_bits as usize * lanes);
        or_combinations(lo, lo_images, lanes);
        or_combinations(hi, hi_images, lanes);
    }

    // randmod: allow(P1, out.len() <= lanes is asserted by the PlacementLanes facade; slot < RM_MEMO_SLOTS, and modulo_index < 2^n splits into a lo row < 2^lo_bits and a hi row < 2^(n - lo_bits), so both row starts lie inside the slot's block of rows_per_slot lane-major rows)
    #[inline]
    fn index_lanes(&mut self, line: LineAddr, out: &mut [u32]) {
        let modulo_index = self.geometry.modulo_index_of_line(line) as usize;
        let segment = self.geometry.segment_of_line(line);
        let slot = Self::slot_of(segment);
        if self.tags[slot] != segment {
            self.fill_slot(slot, segment);
        }
        let slot_row = slot * self.rows_per_slot;
        let lo_row = slot_row + (modulo_index & ((1 << self.lo_bits) - 1));
        let hi_row = slot_row + (1 << self.lo_bits) + (modulo_index >> self.lo_bits);
        let lo = &self.tables[lo_row * self.lanes..];
        let hi = &self.tables[hi_row * self.lanes..];
        for ((index, &low), &high) in out.iter_mut().zip(lo).zip(hi) {
            *index = low | high;
        }
    }
}

/// Fills `table` with every OR-combination of `images`, both lane-major
/// with `lanes` entries per row: row `r` of `table` ORs the image rows of
/// `r`'s set bits.  `table` holds `2^b` rows for the `b` image rows.
fn or_combinations(table: &mut [u32], images: &[u32], lanes: usize) {
    // Row 0, the empty combination, is zero from construction and never
    // written.  After image row `bit`, the first 2^(bit+1) rows hold every
    // combination of bits 0..=bit: the upper half is the lower half with
    // that image OR-ed in.
    let mut done = lanes;
    for image in images.chunks_exact(lanes) {
        let (lower, upper) = table.split_at_mut(done);
        for (upper_row, lower_row) in upper.chunks_exact_mut(lanes).zip(lower.chunks_exact(lanes)) {
            for ((cell, &low), &bit) in upper_row.iter_mut().zip(lower_row).zip(image) {
                *cell = low | bit;
            }
        }
        done *= 2;
    }
}

// ---------------------------------------------------------------------------
// Modulo
// ---------------------------------------------------------------------------

/// Conventional modulo placement: the set index is the low bits of the line
/// address.  The layout is independent of the seed.
///
/// ```
/// use randmod_core::{ModuloPlacement, CacheGeometry, Address};
/// use randmod_core::placement::PlacementPolicy;
///
/// let policy = ModuloPlacement::new(CacheGeometry::leon3_l1());
/// assert_eq!(policy.set_index(Address::new(0x0)), 0);
/// assert_eq!(policy.set_index(Address::new(32)), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuloPlacement {
    geometry: CacheGeometry,
    seed: u64,
}

impl ModuloPlacement {
    /// Creates a modulo placement for the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        ModuloPlacement { geometry, seed: 0 }
    }
}

impl PlacementPolicy for ModuloPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        self.geometry.modulo_index_of_line(line)
    }

    fn reseed(&mut self, seed: u64) {
        // Modulo placement is deterministic: the seed is recorded only so
        // callers can query it uniformly across policies.
        self.seed = seed;
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::Modulo
    }
}

// ---------------------------------------------------------------------------
// Deterministic XOR placement
// ---------------------------------------------------------------------------

/// Deterministic XOR-folding placement (related work: XOR-based placement
/// functions).  All index-width chunks of the line address are XORed
/// together.  Like modulo it is a fixed hash, so pathological access
/// patterns repeat systematically for a given memory layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorPlacement {
    geometry: CacheGeometry,
    seed: u64,
}

impl XorPlacement {
    /// Creates an XOR placement for the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        XorPlacement { geometry, seed: 0 }
    }
}

impl PlacementPolicy for XorPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        let n = self.geometry.index_bits();
        if n == 0 {
            // One set: every line maps to it (and folding by zero-bit
            // chunks would never terminate).
            return 0;
        }
        let mask = (self.geometry.sets() - 1) as u64;
        let mut value = line.raw();
        let mut folded = 0u64;
        while value != 0 {
            folded ^= value & mask;
            value >>= n;
        }
        folded as u32
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::Xor
    }
}

// ---------------------------------------------------------------------------
// Hash-based random placement (hRP)
// ---------------------------------------------------------------------------

/// Hash-based random placement (hRP), the pre-existing MBPTA-compliant
/// design the paper compares against.
///
/// The hardware consists of rotate blocks driven by the address bits acting
/// on seed material, combined by a tree of 2-input XOR gates (Figure 2 of
/// the paper).  Behaviourally, every line address is mapped to a set
/// (pseudo-)uniformly and (pseudo-)independently for each seed, so:
///
/// * the distribution of addresses over sets is homogeneous (~`1/S` per
///   set), which keeps conflicts low *on average*, but
/// * even two *contiguous* lines can land in the same set with probability
///   of about `1/S` per run — the cache-risk-pattern inflation that Random
///   Modulo removes.
///
/// ```
/// use randmod_core::{HashRandomPlacement, CacheGeometry, Address};
/// use randmod_core::placement::PlacementPolicy;
///
/// let mut policy = HashRandomPlacement::new(CacheGeometry::leon3_l1());
/// policy.reseed(1);
/// let a = policy.set_index(Address::new(0x1000));
/// policy.reseed(2);
/// let b = policy.set_index(Address::new(0x1000));
/// // The mapping of a given address usually changes with the seed.
/// assert!(a < 128 && b < 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRandomPlacement {
    geometry: CacheGeometry,
    seed: u64,
    /// Round keys derived from the seed (the parametric part of the hash,
    /// the `RII` input of Figure 2).
    round_keys: [u64; 4],
}

/// Derives hRP's four round keys from a placement seed.
///
/// Shared by the scalar policy and the lane bank so both derive exactly the
/// same keys for the same seed.
#[inline]
fn hrp_round_keys(seed: u64) -> [u64; 4] {
    let mut sm = SplitMix64::new(seed ^ 0x6852_5EED_u64);
    let mut keys = [0u64; 4];
    for key in &mut keys {
        *key = sm.next_u64();
    }
    keys
}

/// The parametric rotate/XOR hash of hRP.
///
/// The hardware of Figure 2 is a layer of rotate blocks whose rotation
/// amounts depend on address bits and the random seed, combined by a
/// cascade of 2-input XOR gates.  This software model uses four
/// rotate/XOR rounds with data- and seed-driven rotation amounts, which
/// reproduces the statistical behaviour that matters for the paper's
/// evaluation: every address is mapped (pseudo-)uniformly to the sets,
/// and any pair of addresses — contiguous or not — collides in the same
/// set with probability of about `1/S` per seed.
#[inline]
fn hrp_parametric_hash(round_keys: [u64; 4], line: u64) -> u64 {
    let [k0, k1, k2, k3] = round_keys;
    let mut x = line ^ k0;
    x = x.rotate_left(((k1 as u32) ^ (x as u32)) & 63) ^ k1;
    x ^= x >> 31;
    x = x.rotate_left((((k2 >> 32) as u32) ^ ((x >> 7) as u32)) & 63) ^ k2;
    x ^= x >> 27;
    x = x.rotate_left(((k3 as u32) ^ ((x >> 13) as u32)) & 63) ^ k3;
    x ^= x >> 33;
    x = x.rotate_left((((k0 >> 17) as u32) ^ ((x >> 23) as u32)) & 63) ^ (k1 ^ k2);
    x ^= x >> 29;
    x
}

/// hRP's final XOR-folding cascade down to the index width.  The trip
/// count depends only on the index width, not on the hash value (folding
/// in the zero chunks above the topmost set bit is a no-op), which keeps
/// this per-access loop branch-predictable and fixed-trip, so the lane
/// bank's K hash chains overlap in the out-of-order window.
#[inline]
fn hrp_fold_index(hashed: u64, n: u32, mask: u64) -> u32 {
    let mut folded = 0u64;
    let mut shift = 0u32;
    while shift < u64::BITS {
        folded ^= (hashed >> shift) & mask;
        shift += n;
    }
    folded as u32
}

impl HashRandomPlacement {
    /// Creates an hRP placement for the given geometry (seed 0 installed).
    pub fn new(geometry: CacheGeometry) -> Self {
        let mut policy = HashRandomPlacement {
            geometry,
            seed: 0,
            round_keys: [0; 4],
        };
        policy.reseed(0);
        policy
    }

    /// The parametric rotate/XOR hash (see [`hrp_parametric_hash`]).
    #[inline]
    fn parametric_hash(&self, line: u64) -> u64 {
        hrp_parametric_hash(self.round_keys, line)
    }
}

impl PlacementPolicy for HashRandomPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        let n = self.geometry.index_bits();
        if n == 0 {
            return 0;
        }
        let mask = (self.geometry.sets() - 1) as u64;
        let hashed = self.parametric_hash(line.raw());
        hrp_fold_index(hashed, n, mask)
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.round_keys = hrp_round_keys(seed);
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::HashRandom
    }
}

// ---------------------------------------------------------------------------
// Random Modulo (RM)
// ---------------------------------------------------------------------------

/// Random Modulo placement — the paper's contribution.
///
/// RM permutes the modulo index bits of every address with a Benes network.
/// The control word of the network is derived from the upper address bits
/// (the cache-segment identity) combined with the per-run random seed, so:
///
/// * within a cache segment the mapping of index values is a *bijection*:
///   two addresses of the same segment that modulo places in different sets
///   are **always** placed in different sets (spatial locality is preserved,
///   exactly like modulo);
/// * across segments and across runs, layouts vary randomly, giving every
///   potential cache layout a probability of occurrence, as MBPTA requires;
/// * the added hardware is a thin layer of pass-gate switches plus one XOR
///   stage for the control word, which is why it is much smaller and faster
///   than the hRP hash (Table 1 of the paper, reproduced by
///   `randmod-hwcost`).
///
/// ```
/// use randmod_core::{RandomModuloPlacement, CacheGeometry, Address};
/// use randmod_core::placement::PlacementPolicy;
///
/// let geometry = CacheGeometry::leon3_l1();
/// let mut policy = RandomModuloPlacement::new(geometry);
/// policy.reseed(0xFEED_5EED);
///
/// // Two consecutive lines (same segment, different modulo index) never
/// // collide, whatever the seed.
/// let a = policy.set_index(Address::new(0x4000_0000));
/// let b = policy.set_index(Address::new(0x4000_0020));
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct RandomModuloPlacement {
    geometry: CacheGeometry,
    seed: u64,
    network: BenesNetwork,
    /// Seed material XORed into the control word (recomputed on reseed).
    seed_controls: u128,
    /// The seed bit concatenated above the upper-address bits.
    seed_top_bit: u128,
}

impl RandomModuloPlacement {
    /// Creates an RM placement for the given geometry (seed 0 installed).
    pub fn new(geometry: CacheGeometry) -> Self {
        let network = BenesNetwork::new(geometry.index_bits().max(1) as usize);
        let mut policy = RandomModuloPlacement {
            geometry,
            seed: 0,
            network,
            seed_controls: 0,
            seed_top_bit: 0,
        };
        policy.reseed(0);
        policy
    }

    /// Number of control bits of the underlying Benes network.
    pub fn control_bits(&self) -> usize {
        self.network.control_bits()
    }

    /// Computes the Benes control word for a given cache segment under the
    /// current seed.
    ///
    /// Following the paper: the upper address bits are concatenated with the
    /// uppermost bit of the seed and XORed with further seed bits, so that
    /// small changes in the upper address bits lead to different index
    /// permutations while the per-run seed decorrelates layouts across runs.
    pub fn control_word_for_segment(&self, segment: u64) -> u128 {
        rm_control_word(
            self.network.control_bits(),
            self.seed_controls,
            self.seed_top_bit,
            segment,
        )
    }
}

/// Computes RM's Benes control word for one cache segment from the
/// seed-derived material.  Shared by the scalar policy and the lane bank so
/// both derive exactly the same permutations for the same seed.
#[inline]
fn rm_control_word(needed: usize, seed_controls: u128, seed_top_bit: u128, segment: u64) -> u128 {
    if needed == 0 {
        return 0;
    }
    let mask: u128 = if needed >= 128 {
        u128::MAX
    } else {
        (1u128 << needed) - 1
    };
    let addr_part = (segment as u128) & (mask >> 1);
    let concatenated = addr_part | (seed_top_bit << (needed - 1));
    (concatenated ^ seed_controls) & mask
}

/// Expands an RM placement seed into its 128-bit control material and the
/// concatenated top bit, exactly as [`RandomModuloPlacement::reseed`] does.
#[inline]
fn rm_seed_material(seed: u64) -> (u128, u128) {
    let mut sm = SplitMix64::new(seed);
    let low = sm.next_u64() as u128;
    let high = sm.next_u64() as u128;
    ((high << 64) | low, (seed >> 63) as u128 & 1)
}

impl PlacementPolicy for RandomModuloPlacement {
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        let modulo_index = self.geometry.modulo_index_of_line(line);
        let segment = self.geometry.segment_of_line(line);
        let controls = self.control_word_for_segment(segment);
        self.network.permute_bits(modulo_index, controls)
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        // Expand the seed so networks needing more than 64 control bits
        // (index widths above 11) still get full-entropy control material.
        (self.seed_controls, self.seed_top_bit) = rm_seed_material(seed);
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::RandomModulo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn l1() -> CacheGeometry {
        CacheGeometry::leon3_l1()
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in PlacementKind::ALL {
            let parsed: PlacementKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<PlacementKind>().is_err());
    }

    #[test]
    fn kind_display_honours_width_and_alignment() {
        use crate::replacement::ReplacementKind;
        assert_eq!(
            format!("{:>14}|{:<8}|", PlacementKind::Modulo, ReplacementKind::Lru),
            "        modulo|lru     |"
        );
    }

    #[test]
    fn kind_properties() {
        assert!(!PlacementKind::Modulo.is_randomized());
        assert!(!PlacementKind::Xor.is_randomized());
        assert!(PlacementKind::HashRandom.is_randomized());
        assert!(PlacementKind::RandomModulo.is_randomized());
        assert!(PlacementKind::HashRandom.stores_index_in_tag());
        assert!(!PlacementKind::RandomModulo.stores_index_in_tag());
        assert_eq!(PlacementKind::RandomModulo.short_name(), "RM");
    }

    #[test]
    fn modulo_maps_consecutive_lines_to_consecutive_sets() {
        let policy = ModuloPlacement::new(l1());
        for i in 0..256u64 {
            let addr = Address::new(i * 32);
            assert_eq!(policy.set_index(addr), (i % 128) as u32);
        }
    }

    #[test]
    fn modulo_ignores_seed() {
        let mut policy = ModuloPlacement::new(l1());
        let addr = Address::new(0x1234_5660);
        let before = policy.set_index(addr);
        policy.reseed(0xABCDEF);
        assert_eq!(policy.set_index(addr), before);
        assert_eq!(policy.seed(), 0xABCDEF);
    }

    #[test]
    fn xor_is_deterministic_and_ignores_seed() {
        let mut policy = XorPlacement::new(l1());
        let addr = Address::new(0xDEAD_BEE0);
        let before = policy.set_index(addr);
        policy.reseed(77);
        assert_eq!(policy.set_index(addr), before);
        assert!(policy.set_index(addr) < 128);
    }

    #[test]
    fn xor_differs_from_modulo_for_far_addresses() {
        let xor = XorPlacement::new(l1());
        let modulo = ModuloPlacement::new(l1());
        let differing = (0..1024u64)
            .map(|i| Address::new(0x10_0000 + i * 4096))
            .filter(|&a| xor.set_index(a) != modulo.set_index(a))
            .count();
        assert!(differing > 0);
    }

    #[test]
    fn hrp_is_deterministic_per_seed() {
        let mut policy = HashRandomPlacement::new(l1());
        policy.reseed(1234);
        let addr = Address::new(0x8000_0400);
        let first = policy.set_index(addr);
        let second = policy.set_index(addr);
        assert_eq!(first, second);
        let mut other = HashRandomPlacement::new(l1());
        other.reseed(1234);
        assert_eq!(other.set_index(addr), first);
    }

    #[test]
    fn hrp_layout_changes_with_seed() {
        let mut policy = HashRandomPlacement::new(l1());
        let addrs: Vec<Address> = (0..64)
            .map(|i| Address::new(0x4000_0000 + i * 32))
            .collect();
        policy.reseed(1);
        let layout_a: Vec<u32> = addrs.iter().map(|&a| policy.set_index(a)).collect();
        policy.reseed(2);
        let layout_b: Vec<u32> = addrs.iter().map(|&a| policy.set_index(a)).collect();
        assert_ne!(layout_a, layout_b);
    }

    #[test]
    fn hrp_distribution_over_sets_is_roughly_uniform() {
        let geometry = l1();
        let mut policy = HashRandomPlacement::new(geometry);
        policy.reseed(0xFACE);
        let sets = geometry.sets() as usize;
        let mut counts = vec![0u32; sets];
        let lines = 128 * 1024u64;
        for i in 0..lines {
            counts[policy.set_index_of_line(LineAddr::new(i)) as usize] += 1;
        }
        let expected = lines as f64 / sets as f64;
        for (s, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.25, "set {s} has count {c}, expected ~{expected}");
        }
    }

    #[test]
    fn hrp_contiguous_lines_can_collide_with_probability_near_one_over_s() {
        // The core observation motivating RM: under hRP, two contiguous
        // lines (same segment, different modulo index) collide in the same
        // set with probability on the order of 1/S per run.
        let geometry = l1();
        let mut policy = HashRandomPlacement::new(geometry);
        let a = Address::new(0x4000_0000);
        let b = Address::new(0x4000_0020); // next line, same segment
        let runs = 20_000u32;
        let mut collisions = 0u32;
        for seed in 0..runs {
            policy.reseed(seed as u64 * 0x9E37_79B9 + 17);
            if policy.set_index(a) == policy.set_index(b) {
                collisions += 1;
            }
        }
        let p = collisions as f64 / runs as f64;
        let one_over_s = 1.0 / geometry.sets() as f64;
        assert!(
            p > one_over_s * 0.2 && p < one_over_s * 5.0,
            "collision probability {p} not in the expected band around {one_over_s}"
        );
    }

    #[test]
    fn hrp_pairs_far_apart_also_collide_near_one_over_s() {
        let geometry = l1();
        let mut policy = HashRandomPlacement::new(geometry);
        let a = Address::new(0x4000_0000);
        let b = Address::new(0x7354_1980);
        let runs = 20_000u32;
        let mut collisions = 0u32;
        for seed in 0..runs {
            policy.reseed(seed as u64 * 0xABCDE + 3);
            if policy.set_index(a) == policy.set_index(b) {
                collisions += 1;
            }
        }
        let p = collisions as f64 / runs as f64;
        let one_over_s = 1.0 / geometry.sets() as f64;
        assert!(
            p > one_over_s * 0.2 && p < one_over_s * 5.0,
            "collision probability {p} not in the expected band around {one_over_s}"
        );
    }

    #[test]
    fn rm_defining_property_no_intra_segment_conflicts() {
        // The defining equation of the paper: for addresses A, B in the same
        // cache segment, set_mod(A) != set_mod(B) implies
        // set_rm(A) != set_rm(B) for every seed.
        let geometry = l1();
        let mut policy = RandomModuloPlacement::new(geometry);
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            policy.reseed(seed);
            let segment_base = Address::new(0x4000_0000);
            let mut seen = HashSet::new();
            for i in 0..geometry.sets() as u64 {
                let addr = segment_base.offset(i * geometry.line_size() as u64);
                let set = policy.set_index(addr);
                assert!(
                    seen.insert(set),
                    "seed {seed:#x}: two same-segment lines mapped to set {set}"
                );
            }
            assert_eq!(seen.len(), geometry.sets() as usize);
        }
    }

    #[test]
    fn rm_is_deterministic_per_seed() {
        let mut a = RandomModuloPlacement::new(l1());
        let mut b = RandomModuloPlacement::new(l1());
        a.reseed(987);
        b.reseed(987);
        for i in 0..512u64 {
            let addr = Address::new(0x10_0000 + i * 32);
            assert_eq!(a.set_index(addr), b.set_index(addr));
        }
    }

    #[test]
    fn rm_layout_changes_with_seed() {
        let mut policy = RandomModuloPlacement::new(l1());
        let addrs: Vec<Address> = (0..128)
            .map(|i| Address::new(0x4000_0000 + i * 32))
            .collect();
        let mut distinct_layouts = HashSet::new();
        for seed in 0..200u64 {
            policy.reseed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
            let layout: Vec<u32> = addrs.iter().map(|&a| policy.set_index(a)).collect();
            distinct_layouts.insert(layout);
        }
        assert!(
            distinct_layouts.len() > 100,
            "only {} distinct layouts over 200 seeds",
            distinct_layouts.len()
        );
    }

    #[test]
    fn rm_different_segments_get_different_permutations() {
        // "small changes in address upper bits lead to different index
        // permutations" — check that two adjacent segments usually differ.
        let geometry = l1();
        let mut policy = RandomModuloPlacement::new(geometry);
        policy.reseed(0xC0FFEE);
        let mut differing_segment_pairs = 0;
        let total = 64;
        for s in 0..total {
            let seg_a = Address::new(s * geometry.way_size_bytes());
            let seg_b = Address::new((s + 1) * geometry.way_size_bytes());
            let layout_a: Vec<u32> = (0..geometry.sets() as u64)
                .map(|i| policy.set_index(seg_a.offset(i * 32)))
                .collect();
            let layout_b: Vec<u32> = (0..geometry.sets() as u64)
                .map(|i| policy.set_index(seg_b.offset(i * 32)))
                .collect();
            if layout_a != layout_b {
                differing_segment_pairs += 1;
            }
        }
        assert!(
            differing_segment_pairs > total / 2,
            "only {differing_segment_pairs} of {total} adjacent segment pairs differ"
        );
    }

    #[test]
    fn rm_covers_many_reachable_sets_for_one_address_across_seeds() {
        // A bit-position permutation preserves the popcount of the index, so
        // a given address can only ever reach the sets whose index has the
        // same number of set bits as its modulo index.  Across many seeds it
        // should visit a large fraction of those reachable sets, and never a
        // set outside that class.
        let geometry = l1();
        let mut policy = RandomModuloPlacement::new(geometry);
        let addr = Address::new(0x4000_0560);
        let modulo_index = geometry.modulo_index(addr);
        let popcount = modulo_index.count_ones();
        let reachable = (0..geometry.sets())
            .filter(|s| s.count_ones() == popcount)
            .count();
        let mut visited = HashSet::new();
        for seed in 0..4000u64 {
            policy.reseed(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(99));
            let set = policy.set_index(addr);
            assert_eq!(
                set.count_ones(),
                popcount,
                "bit permutation must preserve popcount"
            );
            visited.insert(set);
        }
        assert!(
            visited.len() * 2 > reachable,
            "address only visited {} of {} reachable sets",
            visited.len(),
            reachable
        );
    }

    #[test]
    fn rm_works_for_l2_geometry() {
        let geometry = CacheGeometry::leon3_l2_partition();
        let mut policy = RandomModuloPlacement::new(geometry);
        policy.reseed(31337);
        let mut seen = HashSet::new();
        let base = Address::new(0x2000_0000);
        for i in 0..geometry.sets() as u64 {
            let set = policy.set_index(base.offset(i * geometry.line_size() as u64));
            assert!(seen.insert(set));
        }
    }

    #[test]
    fn rm_control_bits_match_paper_for_eight_index_bits() {
        let policy = RandomModuloPlacement::new(CacheGeometry::eight_index_bits());
        assert_eq!(policy.control_bits(), 20);
    }

    #[test]
    fn build_factory_produces_matching_kinds() {
        for kind in PlacementKind::ALL {
            let policy = kind.build(l1()).unwrap();
            assert_eq!(policy.kind(), kind);
            assert_eq!(policy.geometry(), l1());
        }
    }

    /// One pure policy per lane — the plain hash or Benes walk that
    /// [`PlacementKind::build`] returns, with no memo — each reseeded like
    /// the matching lane of `bank`.
    fn pure_lanes(
        bank: &mut PlacementLanes,
        kind: PlacementKind,
        seeds: &[u64],
    ) -> Vec<Box<dyn PlacementPolicy>> {
        seeds
            .iter()
            .enumerate()
            .map(|(lane, &seed)| {
                let mut policy = kind.build(bank.geometry()).unwrap();
                policy.reseed(seed);
                bank.reseed_lane(lane, seed);
                policy
            })
            .collect()
    }

    #[test]
    fn rm_memoized_index_matches_the_pure_network_walk() {
        // The lane bank's per-segment memo must be invisible: for any mix
        // of lines (far more segments than memo slots, so slots are
        // evicted and refilled constantly) and across reseeds (which must
        // invalidate every slot), every lane returns exactly what the pure
        // Benes walk returns.
        for geometry in [
            CacheGeometry::leon3_l1(),
            CacheGeometry::leon3_l2_partition(),
            CacheGeometry::new(8, 2, 32).unwrap(),
        ] {
            let mut bank = PlacementLanes::new(PlacementKind::RandomModulo, geometry, 3).unwrap();
            let mut sm = SplitMix64::new(0x5EED_CAFE);
            let mut out = [0u32; 3];
            for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let seeds = [seed, seed ^ 0x55, seed.wrapping_add(1)];
                let pure = pure_lanes(&mut bank, PlacementKind::RandomModulo, &seeds);
                for _ in 0..5_000 {
                    // ~2^26 line space: thousands of distinct segments.
                    let line = LineAddr::new(sm.next_u64() & 0x3FF_FFFF);
                    bank.index_lanes(line, &mut out);
                    for (lane, policy) in pure.iter().enumerate() {
                        assert_eq!(
                            out[lane],
                            policy.set_index_of_line(line),
                            "memo diverged for line {line} under seed {seed:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rm_memo_matches_the_pure_walk_under_interleaved_co_runners() {
        // fig6's co-runner pattern: a victim region and three opponents at
        // the 64 MiB region offsets, interleaved access by access.  Each
        // region strides through 40 segments, so the stream touches more
        // segments than the memo has slots and live segments collide; a
        // quarter-way stride crosses segments every few accesses even at
        // the widest geometry.
        // Every lane must match the pure policy throughout, including after
        // one lane is reseeded mid-stream.
        const REGION_LINES: u64 = (64 << 20) / 32;
        const STEPS: u64 = 1_200;
        for index_bits in [0u32, 1, 7, 10, 13] {
            let geometry = CacheGeometry::new(1 << index_bits, 4, 32).unwrap();
            let span = 40 << index_bits;
            let stride = geometry.sets() as u64 / 4 + 97;
            let stream: Vec<LineAddr> = (0..STEPS)
                .flat_map(|step| {
                    (0..4u64).map(move |region| {
                        LineAddr::new(region * REGION_LINES + (step * stride + region * 13) % span)
                    })
                })
                .collect();
            let segments: HashSet<u64> = stream
                .iter()
                .map(|&line| geometry.segment_of_line(line))
                .collect();
            assert!(segments.len() > RM_MEMO_SLOTS, "{index_bits} bits");
            for lanes in [1usize, 3, 64] {
                let mut bank =
                    PlacementLanes::new(PlacementKind::RandomModulo, geometry, lanes).unwrap();
                let seeds: Vec<u64> = (0..lanes as u64)
                    .map(|lane| lane.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xC0FFEE)
                    .collect();
                let mut pure = pure_lanes(&mut bank, PlacementKind::RandomModulo, &seeds);
                let mut out = vec![0u32; lanes];
                for (access, &line) in stream.iter().enumerate() {
                    if access == stream.len() / 2 {
                        let lane = lanes / 2;
                        bank.reseed_lane(lane, u64::MAX - 5);
                        pure[lane].reseed(u64::MAX - 5);
                    }
                    bank.index_lanes(line, &mut out);
                    for (lane, policy) in pure.iter().enumerate() {
                        assert_eq!(
                            out[lane],
                            policy.set_index_of_line(line),
                            "{index_bits} bits, lane {lane} of {lanes}, access {access}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_set_geometry_maps_every_line_to_set_zero() {
        // A fully associative cache has no index bits, so every policy must
        // send every line to set 0, through the pure policy and the lane
        // bank alike.  XOR folding in zero-bit chunks never terminates on a
        // non-zero line, so that policy has to special-case the width.
        let geometry = CacheGeometry::new(1, 8, 32).unwrap();
        let lines = [0, 1, 5, 0xDEAD_BEEF, u64::MAX >> 6].map(LineAddr::new);
        for kind in PlacementKind::ALL {
            let mut bank = PlacementLanes::new(kind, geometry, 2).unwrap();
            let pure = pure_lanes(&mut bank, kind, &[7, u64::MAX]);
            let mut out = [u32::MAX; 2];
            for line in lines {
                bank.index_lanes(line, &mut out);
                assert_eq!(out, [0, 0], "{kind} line {line}");
                let mut first = [u32::MAX];
                bank.index_lanes(line, &mut first);
                assert_eq!(first, [0], "{kind} line {line}");
                for policy in &pure {
                    assert_eq!(policy.set_index_of_line(line), 0, "{kind} line {line}");
                }
            }
        }
    }

    #[test]
    fn lane_bank_matches_scalar_placements_per_lane() {
        // Every lane of the bank must be bit-identical to the pure policy
        // reseeded with the same value — for all four policies, partial
        // sweeps, and a full sweep right after a partial one.  The
        // 8,192-set geometry has an odd index width (13 bits), so RM's
        // low and high half tables differ in size.
        for geometry in [
            CacheGeometry::leon3_l1(),
            CacheGeometry::leon3_l2_partition(),
            CacheGeometry::new(8192, 2, 32).unwrap(),
        ] {
            for kind in PlacementKind::ALL {
                for lanes in [1usize, 3, 8] {
                    let mut bank = PlacementLanes::new(kind, geometry, lanes).unwrap();
                    assert_eq!(bank.lane_count(), lanes);
                    assert_eq!(bank.geometry(), geometry);
                    let seeds: Vec<u64> = (0..lanes as u64)
                        .map(|lane| lane * 0x9E37_79B9 + 0xC0FFEE)
                        .collect();
                    let pure = pure_lanes(&mut bank, kind, &seeds);
                    let mut sm = SplitMix64::new(0xABCD);
                    let mut out = vec![0u32; lanes];
                    for step in 0..3_000 {
                        let line = LineAddr::new(sm.next_u64() & 0x3FF_FFFF);
                        let active = 1 + step % lanes;
                        bank.index_lanes(line, &mut out[..active]);
                        for (lane, policy) in pure.iter().take(active).enumerate() {
                            assert_eq!(
                                out[lane],
                                policy.set_index_of_line(line),
                                "{kind} lane {lane} of {lanes}"
                            );
                        }
                        bank.index_lanes(line, &mut out);
                        for (lane, policy) in pure.iter().enumerate() {
                            assert_eq!(
                                out[lane],
                                policy.set_index_of_line(line),
                                "{kind} lane {lane} of {lanes}, full sweep"
                            );
                        }
                        if !kind.is_randomized() {
                            assert!(out.iter().all(|&set| set == out[0]), "{kind}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_bank_reseed_matches_scalar_reseed() {
        // Reseeding one lane mid-campaign (what every batch does) must
        // leave the other lanes' mappings untouched and bit-identical to
        // the pure policies, whatever the seed (both extremes included).
        let geometry = l1();
        for kind in [PlacementKind::HashRandom, PlacementKind::RandomModulo] {
            let mut bank = PlacementLanes::new(kind, geometry, 4).unwrap();
            let mut pure = pure_lanes(&mut bank, kind, &[7, 8, 9, 10]);
            let mut sm = SplitMix64::new(9);
            for round in 0..20 {
                let reseeded = round % 4;
                let seed = match round {
                    0 => 0,
                    1 => u64::MAX,
                    _ => sm.next_u64(),
                };
                bank.reseed_lane(reseeded, seed);
                pure[reseeded].reseed(seed);
                let mut out = [0u32; 4];
                for _ in 0..200 {
                    let line = LineAddr::new(sm.next_u64() & 0x3FF_FFFF);
                    bank.index_lanes(line, &mut out);
                    for (lane, policy) in pure.iter().enumerate() {
                        assert_eq!(out[lane], policy.set_index_of_line(line), "{kind}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_policies_map_within_bounds() {
        let geometry = l1();
        let mut sm = SplitMix64::new(1);
        for kind in PlacementKind::ALL {
            let mut policy = kind.build(geometry).unwrap();
            policy.reseed(9999);
            for _ in 0..2000 {
                let addr = Address::new(sm.next_u64() & 0xFFFF_FFFF);
                assert!(policy.set_index(addr) < geometry.sets());
            }
        }
    }
}
