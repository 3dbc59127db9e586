//! Figure 6 (beyond the paper): victim pWCET under shared-L2 contention.
//!
//! The paper evaluates a private L2 partition per core — the configuration
//! MBPTA likes best.  This experiment opens the harder, realistic
//! scenario: the 20KB synthetic victim co-scheduled against an escalating
//! ladder of opponents on **one shared L2** (see
//! [`randmod_workloads::CoSchedule::pressure_level`]), with the placement
//! policy under test installed at the shared level (Random Modulo kept in
//! every task's private L1s, as the paper's design point prescribes).
//!
//! For each L2 placement × pressure level the experiment reports the
//! victim's pWCET at 10⁻¹⁵ and its inflation relative to the idle
//! co-schedule under the same placement — how gracefully each policy
//! degrades when co-runners hammer the shared level.

use crate::cli::ExperimentOptions;
use crate::error::ExperimentError;
use crate::fig4::CUTOFF_PROBABILITY;
use crate::runner::{self, AdaptiveSummary};
use randmod_core::PlacementKind;
use randmod_workloads::{CoSchedule, SyntheticKernel};
use std::fmt;

/// One row of the contention sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Placement policy installed at the shared L2.
    pub l2_placement: PlacementKind,
    /// Pressure level (0 = idle co-runner .. 3 = three stress kernels).
    pub pressure: usize,
    /// Human-readable opponent set.
    pub opponents: String,
    /// Victim pWCET at 10⁻¹⁵ per run.
    pub victim_pwcet: f64,
    /// Victim mean execution time (cycles).
    pub victim_mean: f64,
    /// Victim pWCET inflation vs the idle co-schedule of the same
    /// placement, in percent (0 for the idle row itself).
    pub inflation_percent: f64,
    /// Number of runs behind the row.
    pub runs: usize,
    /// The convergence record (`None` without `--adaptive`).
    pub adaptive: Option<AdaptiveSummary>,
}

impl fmt::Display for Fig6Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>4} @L2  P{}  pWCET {:>12.0}  mean {:>12.0}  +{:>6.2}%",
            self.l2_placement.short_name(),
            self.pressure,
            self.victim_pwcet,
            self.victim_mean,
            self.inflation_percent
        )
    }
}

/// The victim workload of the sweep: the paper's 20KB synthetic kernel —
/// larger than the L1, dependent on the (now shared) L2.
pub fn victim() -> SyntheticKernel {
    SyntheticKernel::fits_l2()
}

/// Runs the contention sweep: every placement policy at the shared L2 ×
/// every pressure level of the standard opponent ladder.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn generate(options: &ExperimentOptions) -> Result<Vec<Fig6Row>, ExperimentError> {
    let mut rows = Vec::new();
    for l2_placement in PlacementKind::ALL {
        let mut idle_pwcet = f64::NAN;
        for pressure in 0..CoSchedule::<SyntheticKernel>::PRESSURE_LEVELS {
            let schedule = CoSchedule::pressure_level(victim(), pressure);
            let measurement = runner::measure_contended(
                &schedule,
                l2_placement,
                options,
                options.campaign_seed ^ ((l2_placement as u64) << 8),
            )?;
            let report = runner::analyze_with_block_size(
                measurement.victim(),
                if measurement.adaptive.is_some() {
                    runner::ADAPTIVE_BLOCK_SIZE
                } else {
                    (measurement.victim().len() / 20).clamp(5, 50)
                },
            );
            let victim_pwcet = report.pwcet_at(CUTOFF_PROBABILITY);
            if pressure == 0 {
                idle_pwcet = victim_pwcet;
            }
            let inflation_percent = if idle_pwcet > 0.0 {
                (victim_pwcet / idle_pwcet - 1.0) * 100.0
            } else {
                0.0
            };
            rows.push(Fig6Row {
                l2_placement,
                pressure,
                opponents: schedule
                    .opponents()
                    .iter()
                    .map(|o| o.label())
                    .collect::<Vec<_>>()
                    .join("+"),
                victim_pwcet,
                victim_mean: measurement.victim().mean(),
                inflation_percent,
                runs: measurement.victim().len(),
                adaptive: measurement.adaptive,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_every_placement_and_pressure() {
        let options = ExperimentOptions::parse(["--quick"]).with_campaign_seed(7);
        let rows = generate(&options).unwrap();
        assert_eq!(rows.len(), 16, "4 placements x 4 pressure levels");
        for placement in PlacementKind::ALL {
            let of_placement: Vec<&Fig6Row> = rows
                .iter()
                .filter(|r| r.l2_placement == placement)
                .collect();
            assert_eq!(of_placement.len(), 4);
            // The idle row is the normalisation baseline.
            assert_eq!(of_placement[0].pressure, 0);
            assert_eq!(of_placement[0].inflation_percent, 0.0);
            for row in &of_placement {
                assert!(
                    row.victim_pwcet.is_finite() && row.victim_pwcet > 0.0,
                    "{row}"
                );
                assert!(row.victim_mean > 0.0);
                assert!(row.adaptive.is_none());
            }
        }
    }

    #[test]
    fn contention_inflates_the_victim_mean() {
        // At every L2 placement, the heaviest co-schedule must cost the
        // victim more cycles on average than the idle one (the pWCET tail
        // is noisier at smoke-test run counts, so pin the mean).
        let options = ExperimentOptions::parse(["--quick"]).with_campaign_seed(3);
        let rows = generate(&options).unwrap();
        for placement in PlacementKind::ALL {
            let of_placement: Vec<&Fig6Row> = rows
                .iter()
                .filter(|r| r.l2_placement == placement)
                .collect();
            assert!(
                of_placement[3].victim_mean > of_placement[0].victim_mean,
                "{placement}: pressure 3 mean {} not above idle mean {}",
                of_placement[3].victim_mean,
                of_placement[0].victim_mean
            );
        }
    }
}
