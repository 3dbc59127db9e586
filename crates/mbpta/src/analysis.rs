//! The end-to-end MBPTA procedure.
//!
//! [`MbptaAnalysis`] chains the steps the paper follows for every benchmark:
//!
//! 1. run the i.i.d. checks (Wald–Wolfowitz, split-sample Kolmogorov–Smirnov
//!    and the exponential-tail test for Gumbel convergence),
//! 2. extract block maxima and fit a Gumbel model,
//! 3. project the fitted model to the target exceedance probabilities
//!    (10⁻¹² and 10⁻¹⁵ per run in the paper) to obtain pWCET estimates,
//! 4. record the high-water mark for the comparison against the industrial
//!    practice of Figure 4(b).

use crate::evt::PwcetCurve;
use crate::hwm::HighWaterMark;
use crate::iid::{self, EtTest, KsTest, WwTest};
use crate::sample::ExecutionSample;
use std::fmt;

/// Configuration of an MBPTA analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MbptaConfig {
    /// Block size for block-maxima extraction.
    pub block_size: usize,
    /// Fraction of the sample treated as the tail by the ET test.
    pub tail_fraction: f64,
    /// Exceedance probabilities at which pWCET estimates are reported.
    pub exceedance_probabilities: Vec<f64>,
    /// Minimum number of observations required.
    pub minimum_runs: usize,
}

impl Default for MbptaConfig {
    fn default() -> Self {
        MbptaConfig {
            block_size: 25,
            tail_fraction: 0.1,
            exceedance_probabilities: vec![1e-12, 1e-15],
            minimum_runs: 100,
        }
    }
}

impl MbptaConfig {
    /// Overrides the block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Overrides the minimum number of runs.
    pub fn with_minimum_runs(mut self, minimum_runs: usize) -> Self {
        self.minimum_runs = minimum_runs;
        self
    }
}

/// The full result of one MBPTA analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MbptaReport {
    /// Independence test result.
    pub ww: WwTest,
    /// Identical-distribution test result (split-sample KS).
    pub ks: KsTest,
    /// Gumbel-convergence (exponential tail) test result.
    pub et: EtTest,
    /// The fitted pWCET curve.
    pub curve: PwcetCurve,
    /// The observed high-water mark.
    pub hwm: HighWaterMark,
    /// pWCET estimates at the configured exceedance probabilities, as
    /// `(probability, estimate)` pairs.
    pub pwcet_estimates: Vec<(f64, f64)>,
    /// Number of observations analysed.
    pub runs: usize,
}

impl MbptaReport {
    /// Whether all MBPTA applicability checks passed.
    pub fn iid_passed(&self) -> bool {
        self.ww.passed() && self.ks.passed() && self.et.passed()
    }

    /// The pWCET estimate at exceedance probability `p` (interpolating the
    /// fitted curve, not restricted to the configured probabilities).
    pub fn pwcet_at(&self, p: f64) -> f64 {
        self.curve.pwcet(p)
    }

    /// The ratio of the pWCET at `p` to the observed high-water mark.
    pub fn pwcet_over_hwm(&self, p: f64) -> f64 {
        self.hwm.ratio_of(self.pwcet_at(p))
    }
}

impl fmt::Display for MbptaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MBPTA report over {} runs", self.runs)?;
        writeln!(f, "  {}", self.ww)?;
        writeln!(f, "  {}", self.ks)?;
        writeln!(f, "  {}", self.et)?;
        writeln!(f, "  {}", self.hwm)?;
        for &(p, estimate) in &self.pwcet_estimates {
            writeln!(f, "  pWCET @ {p:.0e}: {estimate:.0} cycles")?;
        }
        Ok(())
    }
}

/// The MBPTA analysis driver.
///
/// ```
/// use randmod_mbpta::{ExecutionSample, MbptaAnalysis, MbptaConfig};
///
/// let times: Vec<u64> = (0..500).map(|i| 250_000 + (i * 6151) % 4_000).collect();
/// let report = MbptaAnalysis::new(MbptaConfig::default())
///     .analyze(&ExecutionSample::from_cycles(&times));
/// assert_eq!(report.runs, 500);
/// assert!(report.pwcet_at(1e-15) >= report.hwm.value() as f64);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MbptaAnalysis {
    config: MbptaConfig,
}

impl MbptaAnalysis {
    /// Creates an analysis driver with the given configuration.
    pub fn new(config: MbptaConfig) -> Self {
        MbptaAnalysis { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MbptaConfig {
        &self.config
    }

    /// Runs the full MBPTA procedure on a sample of execution times.
    ///
    /// # Panics
    ///
    /// Panics if the sample holds fewer than the configured minimum number
    /// of runs.
    pub fn analyze(&self, sample: &ExecutionSample) -> MbptaReport {
        assert!(
            sample.len() >= self.config.minimum_runs,
            "MBPTA needs at least {} runs, got {}",
            self.config.minimum_runs,
            sample.len()
        );
        let spread = sample.max().saturating_sub(sample.min());
        let degenerate = spread == 0 || sample.std_dev() == 0.0;

        // The runs test dichotomises around the median and drops ties; it
        // is undefined (not merely degenerate) whenever fewer than two
        // observations differ from the median — e.g. a constant sample
        // with a single outlier — so those samples take the trivial
        // "independent" verdict instead of panicking inside the test.
        let median = sample.median();
        let distinct_from_median = sample.values().iter().filter(|&&v| v != median).count();
        let ww = if degenerate || distinct_from_median < 2 {
            WwTest {
                statistic: 0.0,
                runs: 1,
                above: 0,
                below: 0,
            }
        } else {
            iid::wald_wolfowitz(sample)
        };
        let ks = if degenerate {
            KsTest {
                statistic: 0.0,
                p_value: 1.0,
            }
        } else {
            iid::kolmogorov_smirnov_split(sample)
        };
        let et = iid::exponential_tail(sample, self.config.tail_fraction);

        // `fit` is total: constant samples and all-identical block maxima
        // fall back to the degenerate curve internally.
        let curve = PwcetCurve::fit(sample, self.config.block_size);
        let hwm = HighWaterMark::from_sample(sample);
        let pwcet_estimates = self
            .config
            .exceedance_probabilities
            .iter()
            .map(|&p| (p, curve.pwcet(p)))
            .collect();
        MbptaReport {
            ww,
            ks,
            et,
            curve,
            hwm,
            pwcet_estimates,
            runs: sample.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_sample(seed: u64, n: usize, base: u64, spread: u64) -> ExecutionSample {
        // Exponentially distributed noise on top of a base time: a light
        // (Gumbel-domain) tail, the regime MBPTA targets.
        let mut state = seed.max(1);
        let values: Vec<u64> = (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let u =
                    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                base + (spread as f64 * 0.2 * -(1.0 - u).ln()) as u64
            })
            .collect();
        ExecutionSample::from_cycles(&values)
    }

    #[test]
    fn full_analysis_on_an_iid_sample_passes_all_tests() {
        let sample = noisy_sample(3, 1000, 600_000, 20_000);
        let report = MbptaAnalysis::new(MbptaConfig::default()).analyze(&sample);
        assert!(report.iid_passed(), "{report}");
        assert_eq!(report.runs, 1000);
        assert_eq!(report.pwcet_estimates.len(), 2);
        assert!(report.pwcet_at(1e-15) >= report.pwcet_at(1e-12));
        assert!(report.pwcet_over_hwm(1e-15) >= 1.0);
    }

    #[test]
    fn degenerate_sample_is_handled_gracefully() {
        let sample = ExecutionSample::from_cycles(&[77_777; 200]);
        let report = MbptaAnalysis::new(MbptaConfig::default()).analyze(&sample);
        assert!(report.iid_passed());
        assert!((report.pwcet_at(1e-15) - 77_777.0).abs() < 1e-3);
        assert_eq!(report.hwm.value(), 77_777);
    }

    #[test]
    fn nearly_degenerate_sample_does_not_panic() {
        // Two distinct values only: block maxima may all coincide.
        let values: Vec<u64> = (0..300).map(|i| 1000 + (i % 2)).collect();
        let report = MbptaAnalysis::new(MbptaConfig::default())
            .analyze(&ExecutionSample::from_cycles(&values));
        assert!(report.pwcet_at(1e-15) >= 1001.0);
    }

    #[test]
    fn single_outlier_sample_does_not_panic() {
        // One observation distinct from the median: the runs test is
        // undefined (it would panic after dropping ties), so the analysis
        // must take the trivial-independence branch.
        let mut values = vec![50_000u64; 200];
        values[137] = 50_001;
        let report = MbptaAnalysis::new(MbptaConfig::default())
            .analyze(&ExecutionSample::from_cycles(&values));
        assert!(report.ww.passed());
        assert!(report.pwcet_at(1e-15) >= 50_001.0);
    }

    #[test]
    #[should_panic(expected = "at least 100 runs")]
    fn too_few_runs_panics() {
        MbptaAnalysis::new(MbptaConfig::default())
            .analyze(&ExecutionSample::from_cycles(&[1, 2, 3]));
    }

    #[test]
    fn config_builders_apply() {
        let config = MbptaConfig::default()
            .with_block_size(10)
            .with_minimum_runs(50);
        assert_eq!(config.block_size, 10);
        assert_eq!(config.minimum_runs, 50);
        let analysis = MbptaAnalysis::new(config.clone());
        assert_eq!(analysis.config(), &config);
        let sample = noisy_sample(9, 60, 1_000, 100);
        let report = analysis.analyze(&sample);
        assert_eq!(report.curve.block_size(), 10);
    }

    #[test]
    fn report_display_lists_estimates() {
        let sample = noisy_sample(11, 500, 100_000, 5_000);
        let report = MbptaAnalysis::new(MbptaConfig::default()).analyze(&sample);
        let text = report.to_string();
        assert!(text.contains("pWCET @ 1e-12"));
        assert!(text.contains("pWCET @ 1e-15"));
        assert!(text.contains("MBPTA report over 500 runs"));
    }

    #[test]
    fn pwcet_tracks_sample_spread() {
        // A sample with a wider spread must yield a larger pWCET (same base).
        let narrow = MbptaAnalysis::new(MbptaConfig::default())
            .analyze(&noisy_sample(5, 800, 500_000, 1_000));
        let wide = MbptaAnalysis::new(MbptaConfig::default())
            .analyze(&noisy_sample(5, 800, 500_000, 100_000));
        assert!(wide.pwcet_at(1e-15) > narrow.pwcet_at(1e-15));
    }
}
