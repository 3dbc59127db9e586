//! FPGA integration model.
//!
//! The FPGA half of Table 1 integrates the chosen placement module into all
//! cache memories of the 4-core LEON3 prototype (an instruction and a data
//! L1 per core plus the shared L2, nine caches in total) and reports the
//! logic occupancy of the Stratix-IV device and the maximum operating
//! frequency.  The baseline (modulo-placement) design occupies 70% of the
//! device and runs at 100 MHz; hRP pushes occupancy to 80% and forces the
//! clock down to 80 MHz, while RM costs two occupancy points and keeps the
//! full 100 MHz.
//!
//! This model derives both quantities from the structural ASIC costs: logic
//! occupancy grows proportionally to the added cell area, and the clock is
//! derated whenever the module's added delay exceeds the slack available in
//! the cache-access path of the baseline design.

use crate::gates::{AreaDelay, CellLibrary};
use crate::hrp::HrpModule;
use crate::rm::RmModule;
use std::fmt;

/// Occupancy and frequency of one FPGA integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaReport {
    /// Logic occupancy of the device, in percent.
    pub occupancy_percent: f64,
    /// Maximum operating frequency, in MHz.
    pub frequency_mhz: f64,
}

impl fmt::Display for FpgaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0}% occupation, {:.0} MHz",
            self.occupancy_percent, self.frequency_mhz
        )
    }
}

/// The FPGA prototype model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaModel {
    /// Logic occupancy of the baseline (modulo placement) design, percent.
    pub baseline_occupancy_percent: f64,
    /// Baseline operating frequency, MHz.
    pub baseline_frequency_mhz: f64,
    /// Number of caches the module is instantiated in (IL1 + DL1 per core
    /// on four cores, plus the shared L2).
    pub cache_instances: u32,
    /// Equivalent ASIC cell area corresponding to one occupancy point of
    /// the device, µm² (calibrated against the prototype).
    pub area_per_occupancy_point_um2: f64,
    /// Delay slack available in the baseline cache-access path before the
    /// clock must be stretched, ns.
    pub slack_ns: f64,
}

impl FpgaModel {
    /// The Stratix-IV prototype of the paper.
    pub fn stratix_iv() -> Self {
        FpgaModel {
            baseline_occupancy_percent: 70.0,
            baseline_frequency_mhz: 100.0,
            cache_instances: 9,
            area_per_occupancy_point_um2: 3_000.0,
            slack_ns: 0.47,
        }
    }

    /// Integrates a module with the given per-cache cost into every cache
    /// and reports occupancy and frequency.
    pub fn integrate(&self, module_cost: AreaDelay) -> FpgaReport {
        let added_area = module_cost.area_um2 * self.cache_instances as f64;
        let occupancy =
            self.baseline_occupancy_percent + added_area / self.area_per_occupancy_point_um2;
        let frequency = if module_cost.delay_ns <= self.slack_ns {
            self.baseline_frequency_mhz
        } else {
            // The cache access path sets the clock: stretching it by the
            // excess delay reduces the frequency proportionally.
            self.baseline_frequency_mhz * self.slack_ns / module_cost.delay_ns
        };
        FpgaReport {
            occupancy_percent: occupancy.min(100.0),
            frequency_mhz: frequency,
        }
    }

    /// Convenience: integrate the hRP module of every cache.
    pub fn integrate_hrp(&self, module: &HrpModule, library: &CellLibrary) -> FpgaReport {
        self.integrate(module.area_delay(library))
    }

    /// Convenience: integrate the RM module of every cache.
    pub fn integrate_rm(&self, module: &RmModule, library: &CellLibrary) -> FpgaReport {
        self.integrate(module.area_delay(library))
    }
}

impl Default for FpgaModel {
    fn default() -> Self {
        Self::stratix_iv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rm_keeps_the_baseline_frequency() {
        let model = FpgaModel::stratix_iv();
        let report = model.integrate_rm(&RmModule::paper_config(7), &CellLibrary::generic_45nm());
        assert_eq!(report.frequency_mhz, 100.0);
        // RM adds only a couple of occupancy points.
        assert!(report.occupancy_percent > 70.0);
        assert!(report.occupancy_percent < 75.0);
    }

    #[test]
    fn hrp_derates_the_clock_and_costs_more_logic() {
        let model = FpgaModel::stratix_iv();
        let lib = CellLibrary::generic_45nm();
        let hrp = model.integrate_hrp(&HrpModule::paper_config(7), &lib);
        let rm = model.integrate_rm(&RmModule::paper_config(7), &lib);
        assert!(
            hrp.frequency_mhz < 100.0,
            "hRP should not close timing at 100 MHz"
        );
        assert!(hrp.frequency_mhz > 60.0);
        assert!(hrp.occupancy_percent > rm.occupancy_percent + 4.0);
        assert!(hrp.occupancy_percent <= 100.0);
    }

    #[test]
    fn occupancy_is_capped_at_100_percent() {
        let model = FpgaModel {
            area_per_occupancy_point_um2: 1.0,
            ..FpgaModel::stratix_iv()
        };
        let report = model.integrate(AreaDelay::new(10_000.0, 0.1));
        assert_eq!(report.occupancy_percent, 100.0);
    }

    #[test]
    fn default_is_stratix_iv() {
        assert_eq!(FpgaModel::default(), FpgaModel::stratix_iv());
    }

    #[test]
    fn report_display() {
        let report = FpgaReport {
            occupancy_percent: 72.0,
            frequency_mhz: 100.0,
        };
        assert_eq!(report.to_string(), "72% occupation, 100 MHz");
    }
}
