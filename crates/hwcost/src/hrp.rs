//! Structural cost model of the hRP parametric hash.
//!
//! Following Figure 2 of the paper, the hash receives every line-address
//! bit above the offset (27 bits for a 32-bit address and 32-byte lines)
//! together with a random seed, passes them through rotate blocks, and
//! folds the rotated values down to the `N`-bit set index with a cascade of
//! 2-input XOR gates.  In addition, because the index of a line can no
//! longer be reconstructed from its tag, the `N` index bits must be stored
//! alongside every tag in the tag array — an area cost charged to the cache,
//! not to the hash module, and reported separately.

use crate::gates::{AreaDelay, CellLibrary};
use std::fmt;

/// Cost model of the hRP hash module for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HrpModule {
    index_bits: u32,
    hashed_address_bits: u32,
    seed_bits: u32,
}

impl HrpModule {
    /// Creates the model for a cache with `index_bits` set-index bits,
    /// hashing `hashed_address_bits` of the line address (the paper uses all
    /// 27 non-offset bits of a 32-bit address) with a seed of `seed_bits`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(index_bits: u32, hashed_address_bits: u32, seed_bits: u32) -> Self {
        assert!(index_bits > 0, "index width must be non-zero");
        assert!(
            hashed_address_bits > 0,
            "hashed address width must be non-zero"
        );
        assert!(seed_bits > 0, "seed width must be non-zero");
        HrpModule {
            index_bits,
            hashed_address_bits,
            seed_bits,
        }
    }

    /// The configuration the paper synthesises: a 128-set (7-index-bit)
    /// instruction cache, 27 hashed address bits, a 64-bit seed register.
    pub fn paper_config(index_bits: u32) -> Self {
        Self::new(index_bits, 27, 64)
    }

    /// Number of rotate blocks: one per hashed address bit group feeding the
    /// XOR cascade (the dense structure of the parametric hash is what makes
    /// it an order of magnitude larger than RM).
    pub fn rotate_blocks(&self) -> u32 {
        self.hashed_address_bits
    }

    /// Number of 2:1 multiplexers: each rotate block is an `N`-bit barrel
    /// shifter with `ceil(log2 N)` stages of `N` multiplexers.
    pub fn mux_count(&self) -> u32 {
        let stages = barrel_stages(self.index_bits);
        self.rotate_blocks() * self.index_bits * stages
    }

    /// Number of 2-input XOR gates in the folding cascade: the rotate-block
    /// outputs and the seed contribution are reduced pairwise to one `N`-bit
    /// index.
    pub fn xor_count(&self) -> u32 {
        // (blocks - 1) XOR-reduction of N-bit vectors, plus one seed-mixing
        // layer of N XORs.
        (self.rotate_blocks() - 1) * self.index_bits + self.index_bits
    }

    /// Flip-flops holding the per-run seed.
    pub fn register_bits(&self) -> u32 {
        self.seed_bits
    }

    /// Extra SRAM bits the cache's tag array must add per line because the
    /// set index cannot be reconstructed from the tag under hRP.
    pub fn extra_tag_bits_per_line(&self) -> u32 {
        self.index_bits
    }

    /// Area and critical-path delay of the hash module.
    pub fn area_delay(&self, library: &CellLibrary) -> AreaDelay {
        let area_cells = self.mux_count() as f64 * library.mux2_area_um2
            + self.xor_count() as f64 * library.xor2_area_um2
            + self.register_bits() as f64 * library.dff_area_um2;
        let area = area_cells * library.routing_overhead;
        // Critical path: through one barrel shifter (its mux stages in
        // series) and the depth of the XOR reduction tree, plus the seed
        // register overhead.
        let xor_depth = ceil_log2(self.rotate_blocks() + 1).max(1);
        let delay = barrel_stages(self.index_bits) as f64 * library.mux2_delay_ns
            + xor_depth as f64 * library.xor2_delay_ns
            + library.dff_overhead_ns;
        AreaDelay::new(area, delay)
    }

    /// Tag-array area overhead for a cache with `lines` lines.
    pub fn tag_overhead_area(&self, lines: u32, library: &CellLibrary) -> f64 {
        lines as f64 * self.extra_tag_bits_per_line() as f64 * library.sram_bit_area_um2
    }
}

impl fmt::Display for HrpModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hRP hash: {} rotate blocks, {} muxes, {} XORs, {} seed bits",
            self.rotate_blocks(),
            self.mux_count(),
            self.xor_count(),
            self.register_bits()
        )
    }
}

/// Number of stages of an `n`-bit barrel shifter.
pub(crate) fn barrel_stages(n: u32) -> u32 {
    ceil_log2(n).max(1)
}

/// Ceiling of log2 for small positive integers.
pub(crate) fn ceil_log2(n: u32) -> u32 {
    assert!(n > 0);
    32 - (n - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(7), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(27), 5);
    }

    #[test]
    fn paper_config_structure() {
        let module = HrpModule::paper_config(7);
        assert_eq!(module.rotate_blocks(), 27);
        assert_eq!(module.extra_tag_bits_per_line(), 7);
        assert_eq!(module.register_bits(), 64);
        assert_eq!(module.mux_count(), 27 * 7 * 3);
        assert_eq!(module.xor_count(), 26 * 7 + 7);
        assert!(module.to_string().contains("27 rotate blocks"));
    }

    #[test]
    fn area_lands_in_the_papers_neighbourhood() {
        // The paper reports 3514.7 µm² for the hRP module; the structural
        // model should land within a factor of two of that.
        let module = HrpModule::paper_config(7);
        let cost = module.area_delay(&CellLibrary::generic_45nm());
        assert!(
            cost.area_um2 > 1_700.0 && cost.area_um2 < 7_000.0,
            "hRP area {} µm² outside the plausible band",
            cost.area_um2
        );
    }

    #[test]
    fn delay_lands_in_the_papers_neighbourhood() {
        // The paper reports 0.59 ns.
        let module = HrpModule::paper_config(7);
        let cost = module.area_delay(&CellLibrary::generic_45nm());
        assert!(
            cost.delay_ns > 0.3 && cost.delay_ns < 1.0,
            "hRP delay {} ns outside the plausible band",
            cost.delay_ns
        );
    }

    #[test]
    fn wider_indices_cost_more() {
        let lib = CellLibrary::generic_45nm();
        let narrow = HrpModule::paper_config(7).area_delay(&lib);
        let wide = HrpModule::paper_config(10).area_delay(&lib);
        assert!(wide.area_um2 > narrow.area_um2);
        assert!(wide.delay_ns >= narrow.delay_ns);
    }

    #[test]
    fn tag_overhead_scales_with_lines() {
        let module = HrpModule::paper_config(7);
        let lib = CellLibrary::generic_45nm();
        let small = module.tag_overhead_area(512, &lib);
        let large = module.tag_overhead_area(4096, &lib);
        assert!((large / small - 8.0).abs() < 1e-9);
        assert!(small > 0.0);
    }

    #[test]
    #[should_panic(expected = "index width")]
    fn zero_index_bits_panics() {
        HrpModule::new(0, 27, 64);
    }
}
