//! Structural cost model of the Random Modulo module.
//!
//! RM adds a Benes network of pass-gate switches on the `N` index bits plus
//! one XOR stage that combines the upper address bits with the seed to form
//! the network's control word (Figure 3 of the paper).  The index bits
//! travel through pass transistors only, which is why the module is both
//! small and fast; for a write-through cache no index bits need to be added
//! to the tag array.

use crate::gates::{AreaDelay, CellLibrary};
use randmod_core::benes::BenesNetwork;
use std::fmt;

/// Cost model of the RM module for one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RmModule {
    index_bits: u32,
    control_bits: u32,
    write_back: bool,
}

impl RmModule {
    /// Creates the model for a cache with `index_bits` set-index bits.
    /// `write_back` selects whether the cache keeps dirty lines (in which
    /// case the index bits must still be stored in the tag array so victim
    /// addresses can be rebuilt).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is zero.
    pub fn new(index_bits: u32, write_back: bool) -> Self {
        assert!(index_bits > 0, "index width must be non-zero");
        let control_bits = BenesNetwork::new(index_bits as usize).control_bits() as u32;
        RmModule {
            index_bits,
            control_bits,
            write_back,
        }
    }

    /// The write-through configuration used for the paper's first-level
    /// caches.
    pub fn paper_config(index_bits: u32) -> Self {
        Self::new(index_bits, false)
    }

    /// Number of 2x2 switches in the Benes network (equals the number of
    /// control bits).
    pub fn switch_count(&self) -> u32 {
        self.control_bits
    }

    /// Number of 2-input XOR gates deriving the control word from the upper
    /// address bits and the seed.
    pub fn xor_count(&self) -> u32 {
        self.control_bits
    }

    /// Flip-flops holding the seed bits consumed by the control derivation.
    pub fn register_bits(&self) -> u32 {
        self.control_bits + 1
    }

    /// Extra SRAM bits per line in the tag array (zero for write-through,
    /// the index width for write-back).
    pub fn extra_tag_bits_per_line(&self) -> u32 {
        if self.write_back {
            self.index_bits
        } else {
            0
        }
    }

    /// Area and critical-path delay of the RM module.
    pub fn area_delay(&self, library: &CellLibrary) -> AreaDelay {
        // Each 2x2 switch is two transmission-gate legs.
        let area_cells = self.switch_count() as f64 * 2.0 * library.passgate_area_um2
            + self.xor_count() as f64 * library.xor2_area_um2
            + self.register_bits() as f64 * library.dff_area_um2;
        let area = area_cells * library.routing_overhead;
        // The index traverses 2*ceil(log2 N) - 1 switch stages of pass
        // gates; the control word costs one XOR plus the register overhead,
        // in parallel with (and typically dominating) the first stages.
        let stages = (2 * crate::hrp::ceil_log2(self.index_bits).max(1))
            .saturating_sub(1)
            .max(1);
        let delay = stages as f64 * library.passgate_delay_ns
            + library.xor2_delay_ns
            + library.dff_overhead_ns;
        AreaDelay::new(area, delay)
    }

    /// Tag-array area overhead for a cache with `lines` lines.
    pub fn tag_overhead_area(&self, lines: u32, library: &CellLibrary) -> f64 {
        lines as f64 * self.extra_tag_bits_per_line() as f64 * library.sram_bit_area_um2
    }
}

impl fmt::Display for RmModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RM module: {}-bit index, {} switches, {} control XORs",
            self.index_bits,
            self.switch_count(),
            self.xor_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_bit_index_uses_twenty_control_bits() {
        let module = RmModule::paper_config(8);
        assert_eq!(module.switch_count(), 20);
        assert_eq!(module.xor_count(), 20);
        assert!(module.to_string().contains("20 switches"));
    }

    #[test]
    fn write_through_needs_no_extra_tag_bits() {
        assert_eq!(RmModule::new(7, false).extra_tag_bits_per_line(), 0);
        assert_eq!(RmModule::new(7, true).extra_tag_bits_per_line(), 7);
    }

    #[test]
    fn area_lands_in_the_papers_neighbourhood() {
        // The paper reports 336.6 µm² for the RM module.
        let cost = RmModule::paper_config(7).area_delay(&CellLibrary::generic_45nm());
        assert!(
            cost.area_um2 > 150.0 && cost.area_um2 < 700.0,
            "RM area {} µm² outside the plausible band",
            cost.area_um2
        );
    }

    #[test]
    fn delay_lands_in_the_papers_neighbourhood() {
        // The paper reports 0.46 ns.
        let cost = RmModule::paper_config(7).area_delay(&CellLibrary::generic_45nm());
        assert!(
            cost.delay_ns > 0.2 && cost.delay_ns < 0.7,
            "RM delay {} ns outside the plausible band",
            cost.delay_ns
        );
    }

    #[test]
    fn tag_overhead_is_zero_for_write_through() {
        let lib = CellLibrary::generic_45nm();
        assert_eq!(RmModule::new(7, false).tag_overhead_area(2048, &lib), 0.0);
        assert!(RmModule::new(7, true).tag_overhead_area(2048, &lib) > 0.0);
    }

    #[test]
    fn wider_indices_cost_more() {
        let lib = CellLibrary::generic_45nm();
        let narrow = RmModule::paper_config(7).area_delay(&lib);
        let wide = RmModule::paper_config(10).area_delay(&lib);
        assert!(wide.area_um2 > narrow.area_um2);
        assert!(wide.delay_ns >= narrow.delay_ns);
    }

    #[test]
    #[should_panic(expected = "index width")]
    fn zero_index_bits_panics() {
        RmModule::new(0, false);
    }
}
