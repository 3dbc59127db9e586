//! Figure 5: execution-time distributions and pWCET curves of the synthetic
//! kernel, plus the footprint sensitivity discussed in the text.
//!
//! Figure 5(a)(b) are the probability density functions of the execution
//! times of the 20KB-footprint synthetic kernel under RM and under hRP: RM
//! shows a tight distribution while hRP exhibits a long tail of runs whose
//! layouts map many lines to few sets.  Figure 5(c) overlays the resulting
//! pWCET curves.  The text further notes that the effect shrinks for the
//! 8KB footprint (fits in L1) and remains prominent for 160KB (exceeds the
//! L2 partition).

use crate::cli::ExperimentOptions;
use crate::error::ExperimentError;
use crate::runner;
use randmod_core::PlacementKind;
use randmod_mbpta::{ExecutionSample, Histogram, PwcetCurve};
use randmod_workloads::{EembcStress, SyntheticKernel, Workload};
use std::fmt;

/// The comparison of the two placement policies for one footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// The kernel (footprint/traversals) that was measured.
    pub kernel: SyntheticKernel,
    /// Execution-time sample under Random Modulo.
    pub rm_sample: ExecutionSample,
    /// Execution-time sample under hash-based random placement.
    pub hrp_sample: ExecutionSample,
    /// Histogram of the RM sample (Figure 5(a)).
    pub rm_histogram: Histogram,
    /// Histogram of the hRP sample (Figure 5(b)).
    pub hrp_histogram: Histogram,
    /// pWCET at 10⁻¹⁵ under RM (one point of Figure 5(c)).
    pub rm_pwcet: f64,
    /// pWCET at 10⁻¹⁵ under hRP (one point of Figure 5(c)).
    pub hrp_pwcet: f64,
    /// The full RM pWCET curve, `(probability, bound)` pairs.
    pub rm_curve: Vec<(f64, f64)>,
    /// The full hRP pWCET curve, `(probability, bound)` pairs.
    pub hrp_curve: Vec<(f64, f64)>,
}

/// The hRP-over-RM execution-time spread ratio (max - min, clamped to at
/// least one cycle): the quantitative form of "RM shows much lower
/// variability".
fn spread_ratio_of(rm_sample: &ExecutionSample, hrp_sample: &ExecutionSample) -> f64 {
    let rm_spread = (rm_sample.max() - rm_sample.min()).max(1) as f64;
    let hrp_spread = (hrp_sample.max() - hrp_sample.min()).max(1) as f64;
    hrp_spread / rm_spread
}

/// Formats the shared RM-vs-hRP comparison block of the Figure 5 results.
fn write_comparison(
    f: &mut fmt::Formatter<'_>,
    rm_sample: &ExecutionSample,
    hrp_sample: &ExecutionSample,
    rm_pwcet: f64,
    hrp_pwcet: f64,
) -> fmt::Result {
    writeln!(
        f,
        "  RM : min {:>10} max {:>10} pWCET(1e-15) {:>12.0}",
        rm_sample.min(),
        rm_sample.max(),
        rm_pwcet
    )?;
    writeln!(
        f,
        "  hRP: min {:>10} max {:>10} pWCET(1e-15) {:>12.0}",
        hrp_sample.min(),
        hrp_sample.max(),
        hrp_pwcet
    )?;
    writeln!(
        f,
        "  hRP/RM spread ratio: {:.2}",
        spread_ratio_of(rm_sample, hrp_sample)
    )
}

impl Fig5Result {
    /// The ratio of the hRP execution-time spread (max - min) to the RM
    /// spread: the quantitative form of "RM shows much lower variability".
    pub fn spread_ratio(&self) -> f64 {
        spread_ratio_of(&self.rm_sample, &self.hrp_sample)
    }
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.kernel)?;
        write_comparison(
            f,
            &self.rm_sample,
            &self.hrp_sample,
            self.rm_pwcet,
            self.hrp_pwcet,
        )
    }
}

/// Number of histogram bins used for the Figure 5 PDFs.
pub const HISTOGRAM_BINS: usize = 40;

/// Runs the Figure 5 experiment for one kernel footprint.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn compare(
    kernel: SyntheticKernel,
    options: &ExperimentOptions,
) -> Result<Fig5Result, ExperimentError> {
    let seed = options.campaign_seed ^ kernel.footprint_bytes();
    let rm = runner::measure_campaign(&kernel, PlacementKind::RandomModulo, options, seed)?;
    let hrp = runner::measure_campaign(&kernel, PlacementKind::HashRandom, options, seed)?;
    let rm_report = runner::analyze_measurement(&rm);
    let hrp_report = runner::analyze_measurement(&hrp);
    let probabilities = PwcetCurve::standard_probabilities();
    Ok(Fig5Result {
        kernel,
        rm_histogram: Histogram::from_sample(&rm.sample, HISTOGRAM_BINS),
        hrp_histogram: Histogram::from_sample(&hrp.sample, HISTOGRAM_BINS),
        rm_pwcet: rm_report.pwcet_at(1e-15),
        hrp_pwcet: hrp_report.pwcet_at(1e-15),
        rm_curve: rm_report.curve.points(&probabilities),
        hrp_curve: hrp_report.curve.points(&probabilities),
        rm_sample: rm.sample,
        hrp_sample: hrp.sample,
    })
}

/// Runs the 20KB comparison of Figure 5 proper.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn generate(options: &ExperimentOptions) -> Result<Fig5Result, ExperimentError> {
    compare(SyntheticKernel::fits_l2(), options)
}

/// Runs the footprint sweep (8KB, 20KB, 160KB) discussed in the text.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn footprint_sweep(options: &ExperimentOptions) -> Result<Vec<Fig5Result>, ExperimentError> {
    SyntheticKernel::paper_variants()
        .into_iter()
        .map(|kernel| compare(kernel, options))
        .collect()
}

/// Traversal count used by the large-footprint sweep under `--quick`: the
/// multi-MB vectors already exceed every cache level after one pass, so a
/// few traversals expose the placement behaviour at a fraction of the
/// full 50-traversal cost.
pub const LARGE_QUICK_TRAVERSALS: u32 = 3;

/// Runs the extended large-footprint sweep (1MB, 4MB) beyond the paper's
/// operating point — the scenario the packed streaming pipeline makes
/// practical: at 8 bytes/event a 4MB-footprint trace replays from a
/// ~50MB packed buffer instead of a ~100MB boxed one, and is never
/// duplicated across the campaign's worker threads.
///
/// Under `--quick` the kernels traverse [`LARGE_QUICK_TRAVERSALS`] times
/// instead of the paper's 50 so smoke tests complete in seconds.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn large_footprint_sweep(
    options: &ExperimentOptions,
) -> Result<Vec<Fig5Result>, ExperimentError> {
    SyntheticKernel::large_variants()
        .into_iter()
        .map(|kernel| {
            let kernel = if options.quick {
                SyntheticKernel::with_traversals(kernel.footprint_bytes(), LARGE_QUICK_TRAVERSALS)
            } else {
                kernel
            };
            compare(kernel, options)
        })
        .collect()
}

/// The RM-vs-hRP comparison of the L2-sized EEMBC-like stress kernel that
/// accompanies the large-footprint sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StressComparison {
    /// Name of the stress workload.
    pub workload: String,
    /// Execution-time sample under Random Modulo.
    pub rm_sample: ExecutionSample,
    /// Execution-time sample under hash-based random placement.
    pub hrp_sample: ExecutionSample,
    /// pWCET at 10⁻¹⁵ under RM.
    pub rm_pwcet: f64,
    /// pWCET at 10⁻¹⁵ under hRP.
    pub hrp_pwcet: f64,
}

impl StressComparison {
    /// The ratio of the hRP execution-time spread to the RM spread.
    pub fn spread_ratio(&self) -> f64 {
        spread_ratio_of(&self.rm_sample, &self.hrp_sample)
    }
}

impl fmt::Display for StressComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.workload)?;
        write_comparison(
            f,
            &self.rm_sample,
            &self.hrp_sample,
            self.rm_pwcet,
            self.hrp_pwcet,
        )
    }
}

/// Runs the L2-sized EEMBC-like stress comparison.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn l2_stress(options: &ExperimentOptions) -> Result<StressComparison, ExperimentError> {
    let stress = EembcStress::l2_sized();
    let seed = options.campaign_seed ^ stress.data_bytes();
    let rm = runner::measure_campaign(&stress, PlacementKind::RandomModulo, options, seed)?;
    let hrp = runner::measure_campaign(&stress, PlacementKind::HashRandom, options, seed)?;
    Ok(StressComparison {
        workload: stress.name(),
        rm_pwcet: runner::analyze_measurement(&rm).pwcet_at(1e-15),
        hrp_pwcet: runner::analyze_measurement(&hrp).pwcet_at(1e-15),
        rm_sample: rm.sample,
        hrp_sample: hrp.sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use randmod_workloads::Workload;

    #[test]
    fn twenty_kb_comparison_shows_hrp_long_tail() {
        // Reduced traversal count/runs to keep the test quick; the shape
        // (hRP has a wider spread and a larger pWCET) must already show.
        let kernel = SyntheticKernel::with_traversals(20 * 1024, 10);
        let options = ExperimentOptions::default()
            .with_runs(80)
            .with_campaign_seed(9);
        let result = compare(kernel, &options).unwrap();
        assert!(result.spread_ratio() > 1.0, "{result}");
        assert!(
            result.hrp_pwcet > result.rm_pwcet,
            "hRP pWCET {} should exceed RM pWCET {}",
            result.hrp_pwcet,
            result.rm_pwcet
        );
        assert_eq!(result.rm_curve.len(), 18);
        assert_eq!(result.hrp_curve.len(), 18);
        assert!(result.kernel.name().contains("20kb"));
        assert!(result.to_string().contains("spread ratio"));
    }

    #[test]
    fn l2_stress_produces_positive_pwcets() {
        let options = ExperimentOptions::default()
            .with_runs(30)
            .with_campaign_seed(2);
        let result = l2_stress(&options).unwrap();
        assert!(result.rm_pwcet > 0.0 && result.hrp_pwcet > 0.0);
        assert!(result.spread_ratio() > 0.0);
        assert!(result.workload.contains("eembc-stress"));
        assert!(result.to_string().contains("spread ratio"));
    }

    #[test]
    fn small_footprint_shrinks_the_absolute_gap() {
        // When the footprint fits in the L1, far fewer lines are exposed to
        // layout-induced conflicts, so the absolute pWCET gap between hRP
        // and RM is smaller than for the 20KB footprint (the paper's "the
        // effect reduces since almost all data fits in cache").
        let options = ExperimentOptions::default()
            .with_runs(80)
            .with_campaign_seed(9);
        let small = compare(SyntheticKernel::with_traversals(8 * 1024, 10), &options).unwrap();
        let medium = compare(SyntheticKernel::with_traversals(20 * 1024, 10), &options).unwrap();
        let small_gap = small.hrp_pwcet - small.rm_pwcet;
        let medium_gap = medium.hrp_pwcet - medium.rm_pwcet;
        assert!(
            medium_gap >= small_gap,
            "expected the 20KB absolute gap ({medium_gap:.0} cycles) to be at least as large as the 8KB gap ({small_gap:.0} cycles)"
        );
    }
}
