//! Addresses, cache geometry and bit-field arithmetic.
//!
//! The paper works with 32-bit physical addresses, 32-byte cache lines and
//! LEON3-like cache dimensions (16KB 4-way L1 caches, a 128KB 4-way L2
//! partition).  [`CacheGeometry`] captures the dimensioning of one cache and
//! derives the offset / index / tag bit-field split as well as the *cache
//! segment* notion that Random Modulo is built around: all addresses with the
//! same cache-way alignment (`addr / way_size`) belong to the same segment,
//! and RM guarantees that two addresses of the same segment that modulo maps
//! to different sets are never mapped to the same set.

use crate::error::ConfigError;
use std::fmt;

/// A byte address as seen by the cache (the paper assumes 32-bit addresses,
/// but 64-bit values are accepted so larger synthetic footprints can be
/// modelled).
///
/// ```
/// use randmod_core::Address;
///
/// let a = Address::new(0x4000_1040);
/// assert_eq!(a.raw(), 0x4000_1040);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from its raw byte value.
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> Self {
        Address(self.0 + bytes)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl From<u32> for Address {
    fn from(raw: u32) -> Self {
        Address(raw as u64)
    }
}

impl From<Address> for u64 {
    fn from(addr: Address) -> Self {
        addr.0
    }
}

/// A cache-line address: the byte address with the line-offset bits removed.
///
/// Placement policies operate on line addresses; two byte addresses on the
/// same line always behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its raw (already shifted) value.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the line `n` lines after this one.
    pub const fn offset(self, lines: u64) -> Self {
        LineAddr(self.0 + lines)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

/// Dimensioning of one set-associative cache and the derived bit-field split.
///
/// ```
/// use randmod_core::CacheGeometry;
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// // LEON3 L1: 16KB, 4 ways, 32-byte lines.
/// let g = CacheGeometry::new(128, 4, 32)?;
/// assert_eq!(g.offset_bits(), 5);
/// assert_eq!(g.index_bits(), 7);
/// assert_eq!(g.way_size_bytes(), 4 * 1024);
/// assert_eq!(g.total_size_bytes(), 16 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
    line_size: u32,
    offset_bits: u32,
    index_bits: u32,
}

impl CacheGeometry {
    /// Maximum supported number of index bits.
    pub const MAX_INDEX_BITS: u32 = 24;

    /// Creates a geometry from the number of sets, ways and the line size in
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `sets` or `line_size` is not a power of
    /// two, if any parameter is zero, or if the number of sets exceeds
    /// 2^[`Self::MAX_INDEX_BITS`].
    pub fn new(sets: u32, ways: u32, line_size: u32) -> Result<Self, ConfigError> {
        if sets == 0 {
            return Err(ConfigError::Zero { parameter: "sets" });
        }
        if ways == 0 {
            return Err(ConfigError::Zero { parameter: "ways" });
        }
        if line_size == 0 {
            return Err(ConfigError::Zero {
                parameter: "line size",
            });
        }
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                parameter: "sets",
                value: sets as u64,
            });
        }
        if !line_size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                parameter: "line size",
                value: line_size as u64,
            });
        }
        let index_bits = sets.trailing_zeros();
        if index_bits > Self::MAX_INDEX_BITS {
            return Err(ConfigError::OutOfRange {
                parameter: "index bits",
                value: index_bits as u64,
                max: Self::MAX_INDEX_BITS as u64,
            });
        }
        Ok(CacheGeometry {
            sets,
            ways,
            line_size,
            offset_bits: line_size.trailing_zeros(),
            index_bits,
        })
    }

    /// Creates a geometry from a total capacity in bytes, associativity and
    /// line size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the capacity is not divisible into a
    /// power-of-two number of sets, or any parameter is invalid.
    pub fn from_capacity(
        capacity_bytes: u32,
        ways: u32,
        line_size: u32,
    ) -> Result<Self, ConfigError> {
        if ways == 0 {
            return Err(ConfigError::Zero { parameter: "ways" });
        }
        if line_size == 0 {
            return Err(ConfigError::Zero {
                parameter: "line size",
            });
        }
        let way_bytes = capacity_bytes / ways;
        if way_bytes * ways != capacity_bytes {
            return Err(ConfigError::Inconsistent {
                reason: format!("capacity {capacity_bytes} is not divisible by {ways} ways"),
            });
        }
        let sets = way_bytes / line_size;
        if sets * line_size != way_bytes {
            return Err(ConfigError::Inconsistent {
                reason: format!("way size {way_bytes} is not divisible by line size {line_size}"),
            });
        }
        Self::new(sets, ways, line_size)
    }

    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity (number of ways).
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub const fn line_size(&self) -> u32 {
        self.line_size
    }

    /// Number of byte-offset bits within a line.
    pub const fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Number of set-index bits (`log2(sets)`).
    pub const fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Size of one cache way in bytes (the *cache segment* size of the paper).
    pub const fn way_size_bytes(&self) -> u64 {
        self.sets as u64 * self.line_size as u64
    }

    /// Total cache capacity in bytes.
    pub const fn total_size_bytes(&self) -> u64 {
        self.way_size_bytes() * self.ways as u64
    }

    /// Number of lines in one way (equal to the number of sets).
    pub const fn lines_per_way(&self) -> u32 {
        self.sets
    }

    /// Converts a byte address to its cache-line address.
    pub const fn line_addr(&self, addr: Address) -> LineAddr {
        LineAddr::new(addr.raw() >> self.offset_bits)
    }

    /// Extracts the modulo set index of a byte address.
    pub const fn modulo_index(&self, addr: Address) -> u32 {
        (self.line_addr(addr).raw() & (self.sets as u64 - 1)) as u32
    }

    /// Extracts the modulo set index of a line address.
    pub const fn modulo_index_of_line(&self, line: LineAddr) -> u32 {
        (line.raw() & (self.sets as u64 - 1)) as u32
    }

    /// Returns the tag bits of a byte address (everything above the index).
    pub const fn tag_bits(&self, addr: Address) -> u64 {
        self.line_addr(addr).raw() >> self.index_bits
    }

    /// Returns the tag bits of a line address.
    pub const fn tag_bits_of_line(&self, line: LineAddr) -> u64 {
        line.raw() >> self.index_bits
    }

    /// Identifier of the *cache segment* an address belongs to.
    ///
    /// Two addresses `A`, `B` belong to the same segment iff
    /// `A / way_size == B / way_size` (the paper's `⌊A/CWb⌋ = ⌊B/CWb⌋`).
    /// Random Modulo guarantees that addresses of the same segment with
    /// distinct modulo indices never collide in a set.
    pub const fn segment_of(&self, addr: Address) -> u64 {
        addr.raw() / self.way_size_bytes()
    }

    /// Identifier of the cache segment a line address belongs to.
    pub const fn segment_of_line(&self, line: LineAddr) -> u64 {
        line.raw() >> self.index_bits
    }

    /// Whether two byte addresses belong to the same cache segment.
    pub const fn same_segment(&self, a: Address, b: Address) -> bool {
        self.segment_of(a) == self.segment_of(b)
    }

    /// Reconstructs a representative byte address from a line address
    /// (offset bits set to zero).
    pub const fn byte_addr_of_line(&self, line: LineAddr) -> Address {
        Address::new(line.raw() << self.offset_bits)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sets x {} ways x {}B lines ({}KB)",
            self.sets,
            self.ways,
            self.line_size,
            self.total_size_bytes() / 1024
        )
    }
}

/// Commonly used geometries of the paper's LEON3 evaluation platform.
impl CacheGeometry {
    /// The 16KB 4-way 32B-line first-level (instruction or data) cache.
    pub fn leon3_l1() -> Self {
        CacheGeometry::new(128, 4, 32).expect("static LEON3 L1 geometry is valid")
    }

    /// The 128KB 4-way 32B-line L2 cache partition of one core.
    pub fn leon3_l2_partition() -> Self {
        CacheGeometry::new(1024, 4, 32).expect("static LEON3 L2 geometry is valid")
    }

    /// The 256-set cache geometry used by the paper when sizing the 8-bit
    /// Benes network (8 index bits, 20 control bits).
    pub fn eight_index_bits() -> Self {
        CacheGeometry::new(256, 4, 32).expect("static 256-set geometry is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leon3_l1_dimensions() {
        let g = CacheGeometry::leon3_l1();
        assert_eq!(g.sets(), 128);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.line_size(), 32);
        assert_eq!(g.offset_bits(), 5);
        assert_eq!(g.index_bits(), 7);
        assert_eq!(g.way_size_bytes(), 4096);
        assert_eq!(g.total_size_bytes(), 16 * 1024);
    }

    #[test]
    fn leon3_l2_dimensions() {
        let g = CacheGeometry::leon3_l2_partition();
        assert_eq!(g.total_size_bytes(), 128 * 1024);
        assert_eq!(g.index_bits(), 10);
        assert_eq!(g.way_size_bytes(), 32 * 1024);
    }

    #[test]
    fn eight_index_bit_geometry() {
        let g = CacheGeometry::eight_index_bits();
        assert_eq!(g.index_bits(), 8);
    }

    #[test]
    fn from_capacity_matches_new() {
        let a = CacheGeometry::from_capacity(16 * 1024, 4, 32).unwrap();
        let b = CacheGeometry::new(128, 4, 32).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_capacity_rejects_indivisible() {
        assert!(CacheGeometry::from_capacity(10_000, 3, 32).is_err());
    }

    #[test]
    fn rejects_non_power_of_two_sets() {
        let err = CacheGeometry::new(100, 4, 32).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NotPowerOfTwo {
                parameter: "sets",
                ..
            }
        ));
    }

    #[test]
    fn rejects_non_power_of_two_line() {
        let err = CacheGeometry::new(128, 4, 48).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NotPowerOfTwo {
                parameter: "line size",
                ..
            }
        ));
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(CacheGeometry::new(0, 4, 32).is_err());
        assert!(CacheGeometry::new(128, 0, 32).is_err());
        assert!(CacheGeometry::new(128, 4, 0).is_err());
    }

    #[test]
    fn rejects_too_many_sets() {
        let err = CacheGeometry::new(1 << 25, 1, 32).unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { .. }));
    }

    #[test]
    // The literal is grouped by bit-field (tag | index | offset), not in
    // equal-width digit groups.
    #[allow(clippy::unusual_byte_groupings)]
    fn modulo_index_and_tag_split() {
        let g = CacheGeometry::leon3_l1();
        // Address layout: [tag | 7-bit index | 5-bit offset]
        let addr = Address::new(0b1011_0101010_11010);
        assert_eq!(g.modulo_index(addr), 0b0101010);
        assert_eq!(g.tag_bits(addr), 0b1011);
    }

    #[test]
    fn consecutive_lines_have_consecutive_modulo_indices() {
        let g = CacheGeometry::leon3_l1();
        let base = Address::new(0x4000_0000);
        for i in 0..g.sets() as u64 {
            let addr = base.offset(i * g.line_size() as u64);
            assert_eq!(g.modulo_index(addr), i as u32 % g.sets());
        }
    }

    #[test]
    fn segment_identity() {
        let g = CacheGeometry::leon3_l1();
        let a = Address::new(0x1000);
        let b = a.offset(g.way_size_bytes() - 1);
        let c = a.offset(g.way_size_bytes());
        assert!(g.same_segment(a, b));
        assert!(!g.same_segment(a, c));
    }

    #[test]
    fn segment_of_line_consistent_with_segment_of_addr() {
        let g = CacheGeometry::leon3_l1();
        for raw in [0u64, 0x1000, 0x3FFF, 0x4000, 0x1234_5678] {
            let addr = Address::new(raw & !0x1F); // line-aligned
            let line = g.line_addr(addr);
            assert_eq!(g.segment_of(addr), g.segment_of_line(line));
        }
    }

    #[test]
    fn line_addr_round_trip() {
        let g = CacheGeometry::leon3_l1();
        let addr = Address::new(0x4000_1040);
        let line = g.line_addr(addr);
        let back = g.byte_addr_of_line(line);
        assert_eq!(back.raw(), 0x4000_1040 & !0x1F);
    }

    #[test]
    fn address_display_and_conversion() {
        let a = Address::new(0x1234);
        assert_eq!(a.to_string(), "0x00001234");
        assert_eq!(u64::from(a), 0x1234);
        assert_eq!(Address::from(0x1234u32), a);
        assert_eq!(format!("{:x}", a), "1234");
    }

    #[test]
    fn line_addr_display_and_offset() {
        let l = LineAddr::new(0x10);
        assert_eq!(l.to_string(), "line 0x10");
        assert_eq!(l.offset(4).raw(), 0x14);
        assert_eq!(LineAddr::from(0x10u64), l);
    }

    #[test]
    fn geometry_display() {
        let g = CacheGeometry::leon3_l1();
        assert_eq!(g.to_string(), "128 sets x 4 ways x 32B lines (16KB)");
    }
}
