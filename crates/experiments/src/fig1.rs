//! Figure 1: an illustrative pWCET curve (EVT projection in log scale).
//!
//! The figure in the paper is illustrative: it shows the complementary
//! cumulative distribution function produced by EVT, the cutoff exceedance
//! probability and the corresponding pWCET estimate.  This experiment
//! produces that curve from a real measurement campaign (the 20KB synthetic
//! kernel under RM) so the plotted object is the same one the rest of the
//! evaluation uses.

use crate::cli::ExperimentOptions;
use crate::error::ExperimentError;
use crate::runner::{self, AdaptiveSummary};
use randmod_core::PlacementKind;
use randmod_mbpta::PwcetCurve;
use randmod_workloads::SyntheticKernel;

/// One point of the pWCET CCDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Per-run exceedance probability.
    pub exceedance_probability: f64,
    /// Execution-time bound (cycles) exceeded with that probability.
    pub execution_time: f64,
}

/// The Figure 1 artefact: the projected curve plus the cutoff used in the
/// paper's illustration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Result {
    /// Points of the CCDF, from 10⁻¹ down to 10⁻¹⁸.
    pub points: Vec<CurvePoint>,
    /// The cutoff probability highlighted in the figure (10⁻¹⁵ per run).
    pub cutoff_probability: f64,
    /// The pWCET estimate at the cutoff.
    pub pwcet_at_cutoff: f64,
    /// Number of runs behind the curve (`--runs`, or the runs-to-
    /// convergence count under `--adaptive`).
    pub runs: usize,
    /// The convergence record of the campaign (`None` without
    /// `--adaptive`).
    pub adaptive: Option<AdaptiveSummary>,
}

/// Generates the Figure 1 curve from a campaign of the 20KB synthetic
/// kernel with Random Modulo L1 caches: `options.runs` fixed runs, or a
/// convergence-driven schedule under `--adaptive`.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn generate(options: &ExperimentOptions) -> Result<Fig1Result, ExperimentError> {
    let kernel = SyntheticKernel::fits_l2();
    let measurement = runner::measure_campaign(
        &kernel,
        PlacementKind::RandomModulo,
        options,
        options.campaign_seed,
    )?;
    let report = runner::analyze_measurement(&measurement);
    let cutoff_probability = 1e-15;
    let points = report
        .curve
        .points(&PwcetCurve::standard_probabilities())
        .into_iter()
        .map(|(p, x)| CurvePoint {
            exceedance_probability: p,
            execution_time: x,
        })
        .collect();
    Ok(Fig1Result {
        points,
        cutoff_probability,
        pwcet_at_cutoff: report.pwcet_at(cutoff_probability),
        runs: measurement.sample.len(),
        adaptive: measurement.adaptive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_and_reaches_the_cutoff() {
        let options = ExperimentOptions::default()
            .with_runs(120)
            .with_campaign_seed(11);
        let result = generate(&options).unwrap();
        assert_eq!(result.points.len(), 18);
        assert_eq!(result.runs, 120);
        assert!(result.adaptive.is_none());
        for pair in result.points.windows(2) {
            assert!(pair[0].exceedance_probability > pair[1].exceedance_probability);
            assert!(pair[0].execution_time <= pair[1].execution_time);
        }
        assert_eq!(result.cutoff_probability, 1e-15);
        let at_cutoff = result
            .points
            .iter()
            .find(|p| (p.exceedance_probability - 1e-15).abs() < 1e-20)
            .unwrap();
        assert!((at_cutoff.execution_time - result.pwcet_at_cutoff).abs() < 1e-6);
    }

    #[test]
    fn adaptive_curve_records_the_convergence_outcome() {
        let options = ExperimentOptions::default()
            .with_campaign_seed(11)
            .with_adaptive()
            .with_max_runs(250)
            .with_target_cv(0.05);
        let result = generate(&options).unwrap();
        let summary = result.adaptive.as_ref().expect("adaptive record missing");
        assert_eq!(summary.runs_used, result.runs);
        assert!(result.runs <= 250);
        assert!(summary.pwcet_estimate > 0.0);
        // The curve itself is still well-formed.
        assert_eq!(result.points.len(), 18);
        for pair in result.points.windows(2) {
            assert!(pair[0].execution_time <= pair[1].execution_time);
        }
    }
}
