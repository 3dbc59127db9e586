//! Table-1-shaped report generation.

use crate::fpga::{FpgaModel, FpgaReport};
use crate::gates::{AreaDelay, CellLibrary};
use crate::hrp::HrpModule;
use crate::rm::RmModule;
use std::fmt;

/// The reproduction of Table 1: ASIC area/delay of the two modules in
/// isolation, and FPGA occupancy/frequency of the full integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Report {
    /// ASIC cost of the RM module.
    pub asic_rm: AreaDelay,
    /// ASIC cost of the hRP module.
    pub asic_hrp: AreaDelay,
    /// FPGA integration of RM in all caches.
    pub fpga_rm: FpgaReport,
    /// FPGA integration of hRP in all caches.
    pub fpga_hrp: FpgaReport,
}

impl Table1Report {
    /// Generates the report for a cache with `index_bits` set-index bits
    /// (the paper synthesises the modules for a 128-set cache).
    pub fn generate(index_bits: u32, library: &CellLibrary) -> Self {
        let rm = RmModule::paper_config(index_bits);
        let hrp = HrpModule::paper_config(index_bits);
        let fpga = FpgaModel::stratix_iv();
        Table1Report {
            asic_rm: rm.area_delay(library),
            asic_hrp: hrp.area_delay(library),
            fpga_rm: fpga.integrate_rm(&rm, library),
            fpga_hrp: fpga.integrate_hrp(&hrp, library),
        }
    }

    /// The hRP-to-RM area ratio (the paper reports roughly 10x).
    pub fn area_ratio(&self) -> f64 {
        self.asic_hrp.area_um2 / self.asic_rm.area_um2
    }

    /// The relative delay reduction of RM over hRP (the paper reports
    /// roughly 27%).
    pub fn delay_reduction(&self) -> f64 {
        1.0 - self.asic_rm.delay_ns / self.asic_hrp.delay_ns
    }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: ASIC & FPGA implementation results")?;
        writeln!(
            f,
            "                       Area                    Delay/Frequency"
        )?;
        writeln!(
            f,
            "                RM           hRP           RM        hRP"
        )?;
        writeln!(
            f,
            "  ASIC 45nm     {:>8.1}um2  {:>8.1}um2   {:>6.2}ns  {:>6.2}ns",
            self.asic_rm.area_um2,
            self.asic_hrp.area_um2,
            self.asic_rm.delay_ns,
            self.asic_hrp.delay_ns
        )?;
        writeln!(
            f,
            "  FPGA Stratix  {:>5.0}% occ.  {:>5.0}% occ.   {:>5.0}MHz  {:>5.0}MHz",
            self.fpga_rm.occupancy_percent,
            self.fpga_hrp.occupancy_percent,
            self.fpga_rm.frequency_mhz,
            self.fpga_hrp.frequency_mhz
        )?;
        writeln!(
            f,
            "  (hRP/RM area ratio {:.1}x, RM delay reduction {:.0}%)",
            self.area_ratio(),
            self.delay_reduction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reproduces_the_papers_shape() {
        let report = Table1Report::generate(7, &CellLibrary::generic_45nm());
        // Paper: ~10.4x area ratio; accept a generous band since the
        // absolute numbers depend on the cell library.
        assert!(
            report.area_ratio() > 5.0 && report.area_ratio() < 16.0,
            "area ratio {}",
            report.area_ratio()
        );
        // Paper: ~27% lower delay for RM (ratio check keeps the shape).
        assert!(
            report.delay_reduction() > 0.10 && report.delay_reduction() < 0.45,
            "delay reduction {}",
            report.delay_reduction()
        );
        // FPGA: RM keeps 100 MHz, hRP does not; RM costs fewer points.
        assert_eq!(report.fpga_rm.frequency_mhz, 100.0);
        assert!(report.fpga_hrp.frequency_mhz < 95.0);
        assert!(report.fpga_rm.occupancy_percent < report.fpga_hrp.occupancy_percent);
    }

    #[test]
    fn report_shape_is_stable_across_library_corners() {
        let nominal = Table1Report::generate(7, &CellLibrary::generic_45nm());
        let slow = Table1Report::generate(7, &CellLibrary::slow_corner_45nm());
        for report in [nominal, slow] {
            assert!(report.area_ratio() > 5.0);
            assert!(report.asic_rm.delay_ns < report.asic_hrp.delay_ns);
        }
    }

    #[test]
    fn display_contains_both_rows() {
        let text = Table1Report::generate(8, &CellLibrary::generic_45nm()).to_string();
        assert!(text.contains("ASIC 45nm"));
        assert!(text.contains("FPGA Stratix"));
        assert!(text.contains("area ratio"));
    }
}
