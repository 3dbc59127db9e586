//! Table 1: ASIC and FPGA implementation results of the hRP and RM modules.

use randmod_hwcost::{CellLibrary, Table1Report};

/// Paper-reported reference values, used by EXPERIMENTS.md and the
/// comparison printout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTable1 {
    /// RM module area (µm², 45nm TSMC).
    pub rm_area_um2: f64,
    /// hRP module area (µm², 45nm TSMC).
    pub hrp_area_um2: f64,
    /// RM module delay (ns).
    pub rm_delay_ns: f64,
    /// hRP module delay (ns).
    pub hrp_delay_ns: f64,
    /// FPGA occupancy with RM in all caches (%).
    pub rm_occupancy_percent: f64,
    /// FPGA occupancy with hRP in all caches (%).
    pub hrp_occupancy_percent: f64,
    /// FPGA frequency with RM (MHz).
    pub rm_frequency_mhz: f64,
    /// FPGA frequency with hRP (MHz).
    pub hrp_frequency_mhz: f64,
}

/// The values reported in Table 1 of the paper.
pub const PAPER_TABLE1: PaperTable1 = PaperTable1 {
    rm_area_um2: 336.6,
    hrp_area_um2: 3514.7,
    rm_delay_ns: 0.46,
    hrp_delay_ns: 0.59,
    rm_occupancy_percent: 72.0,
    hrp_occupancy_percent: 80.0,
    rm_frequency_mhz: 100.0,
    hrp_frequency_mhz: 80.0,
};

/// Generates the reproduced Table 1 for the paper's 128-set (7-index-bit)
/// cache module using the generic 45nm library.
pub fn generate() -> Table1Report {
    Table1Report::generate(7, &CellLibrary::generic_45nm())
}

/// Generates the reproduced Table 1 for an arbitrary index width.
pub fn generate_for_index_bits(index_bits: u32) -> Table1Report {
    Table1Report::generate(index_bits, &CellLibrary::generic_45nm())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduction_matches_the_papers_shape() {
        let reproduced = generate();
        // Who wins and by roughly what factor.
        assert!(
            reproduced.area_ratio() > 5.0,
            "area ratio {}",
            reproduced.area_ratio()
        );
        assert!(reproduced.delay_reduction() > 0.10);
        // FPGA: RM keeps the baseline frequency, hRP loses it.
        assert_eq!(
            reproduced.fpga_rm.frequency_mhz,
            PAPER_TABLE1.rm_frequency_mhz
        );
        assert!(reproduced.fpga_hrp.frequency_mhz < 95.0);
        assert!(reproduced.fpga_rm.occupancy_percent < reproduced.fpga_hrp.occupancy_percent);
    }

    #[test]
    fn absolute_numbers_are_in_the_papers_order_of_magnitude() {
        let reproduced = generate();
        assert!(reproduced.asic_rm.area_um2 > PAPER_TABLE1.rm_area_um2 * 0.3);
        assert!(reproduced.asic_rm.area_um2 < PAPER_TABLE1.rm_area_um2 * 3.0);
        assert!(reproduced.asic_hrp.area_um2 > PAPER_TABLE1.hrp_area_um2 * 0.3);
        assert!(reproduced.asic_hrp.area_um2 < PAPER_TABLE1.hrp_area_um2 * 3.0);
    }

    #[test]
    fn wider_l2_index_is_also_supported() {
        let reproduced = generate_for_index_bits(10);
        assert!(reproduced.area_ratio() > 4.0);
    }
}
