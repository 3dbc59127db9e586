//! Extreme Value Theory: the Gumbel distribution, block maxima and pWCET
//! curves.
//!
//! MBPTA approximates the tail of the execution-time distribution with an
//! extreme value distribution fitted to block maxima of the measured runs.
//! On time-randomised hardware the execution-time distribution is light
//! tailed, so the Gumbel family (shape parameter zero) is the appropriate
//! model — the ET test of [`crate::iid`] checks exactly this.  The fitted
//! model is then projected to very low exceedance probabilities (10⁻¹²,
//! 10⁻¹⁵ per run in the paper) to obtain the pWCET.

use crate::sample::ExecutionSample;
use std::f64::consts::PI;
use std::fmt;

/// The Euler–Mascheroni constant, used by the method-of-moments fit.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// A Gumbel (type-I extreme value) distribution.
///
/// ```
/// use randmod_mbpta::Gumbel;
///
/// let g = Gumbel::new(100.0, 10.0);
/// let x = g.quantile(0.999);
/// assert!((g.cdf(x) - 0.999).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gumbel {
    location: f64,
    scale: f64,
}

impl Gumbel {
    /// Creates a Gumbel distribution with the given location (mu) and scale
    /// (beta) parameters.
    ///
    /// # Panics
    ///
    /// Panics if the scale is not strictly positive or either parameter is
    /// not finite.
    pub fn new(location: f64, scale: f64) -> Self {
        assert!(location.is_finite(), "location must be finite");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        Gumbel { location, scale }
    }

    /// The location parameter (mu).
    pub fn location(&self) -> f64 {
        self.location
    }

    /// The scale parameter (beta).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.location + EULER_GAMMA * self.scale
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        (-(-(x - self.location) / self.scale).exp()).exp()
    }

    /// Survival function (1 - CDF), computed accurately for the far tail.
    pub fn survival(&self, x: f64) -> f64 {
        -(-(-(x - self.location) / self.scale).exp()).exp_m1()
    }

    /// Quantile function (inverse CDF).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly between 0 and 1.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile level must be in (0, 1)");
        self.location - self.scale * (-p.ln()).ln()
    }

    /// Quantile expressed through the log of the CDF value, which stays
    /// accurate when `ln p` is a tiny negative number (far tail
    /// projections).
    pub fn quantile_from_ln_p(&self, ln_p: f64) -> f64 {
        assert!(ln_p < 0.0, "ln of a probability must be negative");
        self.location - self.scale * (-ln_p).ln()
    }

    /// Fits a Gumbel distribution by the method of moments, or `None` when
    /// the fit is undefined: fewer than two values, zero variance (all
    /// values identical, so the scale would be zero), or moments that
    /// overflow to non-finite numbers.  This is the total entry point the
    /// adaptive refit loop uses; callers wanting the degenerate fallback
    /// should go through [`PwcetCurve::from_block_maxima`].
    pub fn try_fit_moments(values: &[f64]) -> Option<Self> {
        if values.len() < 2 {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        let std_dev = var.sqrt();
        let scale = std_dev * 6.0_f64.sqrt() / PI;
        let location = mean - EULER_GAMMA * scale;
        if !scale.is_finite() || scale <= 0.0 || !location.is_finite() {
            return None;
        }
        Some(Gumbel { location, scale })
    }

    /// Fits a Gumbel distribution by the method of moments.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two distinct values are provided (the scale
    /// would be zero); [`Self::try_fit_moments`] is the non-panicking
    /// variant.
    pub fn fit_moments(values: &[f64]) -> Self {
        assert!(values.len() >= 2, "fitting needs at least two values");
        Self::try_fit_moments(values).expect("fitting needs at least two distinct values")
    }
}

impl fmt::Display for Gumbel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Gumbel(mu = {:.1}, beta = {:.1})",
            self.location, self.scale
        )
    }
}

/// Extracts block maxima: the sample is cut into consecutive blocks of
/// `block_size` observations and the maximum of each complete block is
/// returned (a trailing partial block is discarded).
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn block_maxima(sample: &ExecutionSample, block_size: usize) -> Vec<f64> {
    assert!(block_size > 0, "block size must be non-zero");
    sample
        .values()
        .chunks_exact(block_size)
        .map(|block| block.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
        .collect()
}

/// A pWCET curve: the per-run exceedance probability as a function of the
/// execution-time bound (the CCDF of Figure 1, drawn in log scale).
///
/// The curve is backed by a Gumbel model of the distribution of the
/// maximum of `block_size` runs; per-run probabilities are obtained from
/// the identity `F_run(x) = F_block(x)^(1/B)`.
///
/// ```
/// use randmod_mbpta::{ExecutionSample, PwcetCurve};
///
/// let times: Vec<u64> = (0..500).map(|i| 1_000_000 + (i * 3557) % 20_000).collect();
/// let sample = ExecutionSample::from_cycles(&times);
/// let curve = PwcetCurve::fit(&sample, 25);
/// let p12 = curve.pwcet(1e-12);
/// let p15 = curve.pwcet(1e-15);
/// assert!(p15 > p12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwcetCurve {
    gumbel: Gumbel,
    block_size: usize,
    observed_max: f64,
}

impl PwcetCurve {
    /// Fits a pWCET curve to a sample using block maxima of `block_size`
    /// observations.  Samples whose block maxima leave nothing for EVT to
    /// model — fewer than two complete blocks, or maxima that are all
    /// identical — fall back to the degenerate curve (pWCET = observed
    /// maximum at every probability) instead of panicking, so this entry
    /// point is total for any sample and any non-zero block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn fit(sample: &ExecutionSample, block_size: usize) -> Self {
        Self::from_block_maxima(
            &block_maxima(sample, block_size),
            block_size,
            sample.max() as f64,
        )
    }

    /// Builds a curve from pre-extracted block maxima (the incremental
    /// refit path of [`crate::online::ConvergenceTracker`]): fits a Gumbel
    /// to `maxima`, or falls back to the degenerate curve at
    /// `observed_max` when the fit is undefined.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn from_block_maxima(maxima: &[f64], block_size: usize, observed_max: f64) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        match Gumbel::try_fit_moments(maxima) {
            Some(gumbel) => PwcetCurve {
                gumbel,
                block_size,
                observed_max,
            },
            None => Self::degenerate_at(observed_max),
        }
    }

    /// Builds a degenerate curve for samples with (near-)constant execution
    /// time: the pWCET equals the observed maximum at every exceedance
    /// probability.  Used by the full analysis as a fallback, since a zero
    /// sample variance leaves nothing for EVT to model.
    pub fn fit_degenerate(sample: &ExecutionSample) -> Self {
        Self::degenerate_at(sample.max() as f64)
    }

    /// The degenerate curve pinned at `max`.
    fn degenerate_at(max: f64) -> Self {
        PwcetCurve {
            gumbel: Gumbel::new(max, f64::MIN_POSITIVE.max(1e-9)),
            block_size: 1,
            observed_max: max,
        }
    }

    /// The underlying Gumbel model of the block maxima.
    pub fn gumbel(&self) -> Gumbel {
        self.gumbel
    }

    /// The block size used for the fit.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The largest observation of the sample the curve was fitted to.
    pub fn observed_max(&self) -> f64 {
        self.observed_max
    }

    /// The pWCET estimate at a per-run exceedance probability `p`
    /// (e.g. `1e-15`), never smaller than the observed maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly between 0 and 1.
    pub fn pwcet(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "exceedance probability must be in (0, 1)"
        );
        // F_block(x) = (1 - p)^B  =>  ln F_block = B * ln(1 - p).
        let ln_p_block = self.block_size as f64 * (-p).ln_1p();
        let projected = self.gumbel.quantile_from_ln_p(ln_p_block);
        projected.max(self.observed_max)
    }

    /// The per-run exceedance probability of the bound `x`.
    pub fn exceedance_probability(&self, x: f64) -> f64 {
        // p_run = 1 - F_block(x)^(1/B) = -expm1(ln F_block(x) / B).
        let ln_f_block = -(-(x - self.gumbel.location()) / self.gumbel.scale()).exp();
        (-(ln_f_block / self.block_size as f64).exp_m1()).clamp(0.0, 1.0)
    }

    /// Samples the curve at the given exceedance probabilities, returning
    /// `(probability, execution-time bound)` pairs — the data behind the
    /// log-scale CCDF plots of Figures 1 and 5(c).
    pub fn points(&self, probabilities: &[f64]) -> Vec<(f64, f64)> {
        probabilities.iter().map(|&p| (p, self.pwcet(p))).collect()
    }

    /// A standard set of exceedance probabilities, 10⁰ down to 10⁻¹⁸.
    pub fn standard_probabilities() -> Vec<f64> {
        (1..=18).map(|k| 10f64.powi(-k)).collect()
    }
}

impl fmt::Display for PwcetCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pWCET curve: {} over blocks of {}, pWCET(1e-15) = {:.0}",
            self.gumbel,
            self.block_size,
            self.pwcet(1e-15)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn gumbel_sample(g: Gumbel, seed: u64, n: usize) -> Vec<f64> {
        uniform_stream(seed, n)
            .into_iter()
            .map(|u| g.quantile(u.clamp(1e-12, 1.0 - 1e-12)))
            .collect()
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let g = Gumbel::new(500.0, 25.0);
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.999, 0.999999] {
            let x = g.quantile(p);
            assert!((g.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn survival_is_complement_of_cdf() {
        let g = Gumbel::new(0.0, 1.0);
        for &x in &[-2.0, 0.0, 1.0, 5.0, 20.0] {
            assert!((g.survival(x) - (1.0 - g.cdf(x))).abs() < 1e-12);
        }
        // Far tail: survival stays positive where 1 - cdf would round to 0.
        assert!(g.survival(40.0) > 0.0);
    }

    #[test]
    fn mean_matches_formula() {
        let g = Gumbel::new(10.0, 2.0);
        assert!((g.mean() - (10.0 + 0.5772156649 * 2.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn non_positive_scale_panics() {
        Gumbel::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn quantile_out_of_range_panics() {
        Gumbel::new(0.0, 1.0).quantile(1.0);
    }

    #[test]
    fn moments_fit_recovers_parameters() {
        let truth = Gumbel::new(1_000_000.0, 50_000.0);
        let sample = gumbel_sample(truth, 99, 20_000);
        let fitted = Gumbel::fit_moments(&sample);
        assert!((fitted.location() - truth.location()).abs() / truth.location() < 0.01);
        assert!((fitted.scale() - truth.scale()).abs() / truth.scale() < 0.05);
    }

    #[test]
    #[should_panic(expected = "distinct values")]
    fn fit_constant_values_panics() {
        Gumbel::fit_moments(&[5.0, 5.0, 5.0]);
    }

    #[test]
    fn try_fit_moments_is_total() {
        assert!(Gumbel::try_fit_moments(&[]).is_none());
        assert!(Gumbel::try_fit_moments(&[3.0]).is_none());
        assert!(Gumbel::try_fit_moments(&[5.0, 5.0, 5.0]).is_none());
        assert!(Gumbel::try_fit_moments(&[1.0, f64::INFINITY]).is_none());
        assert!(Gumbel::try_fit_moments(&[1.0, f64::NAN]).is_none());
        let fitted = Gumbel::try_fit_moments(&[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(
            Gumbel::fit_moments(&[10.0, 20.0, 30.0]),
            fitted,
            "try_fit_moments and fit_moments must agree on well-posed inputs"
        );
    }

    #[test]
    fn fit_falls_back_to_degenerate_on_constant_samples() {
        // Direct calls used to panic inside Gumbel::fit_moments; a constant
        // sample now yields the degenerate curve (pWCET = observed max).
        let constant = ExecutionSample::from_cycles(&[9_999; 120]);
        let curve = PwcetCurve::fit(&constant, 25);
        assert_eq!(curve, PwcetCurve::fit_degenerate(&constant));
        assert!((curve.pwcet(1e-15) - 9_999.0).abs() < 1e-3);
        // Too few observations for even two blocks: same fallback.
        let short = ExecutionSample::from_cycles(&[1, 2, 3]);
        let curve = PwcetCurve::fit(&short, 25);
        assert_eq!(curve.block_size(), 1);
        assert!((curve.pwcet(1e-12) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn from_block_maxima_matches_fit_on_well_posed_samples() {
        let times: Vec<u64> = (0..500).map(|i| 40_000 + (i * 7919) % 6_000).collect();
        let sample = ExecutionSample::from_cycles(&times);
        let direct = PwcetCurve::fit(&sample, 25);
        let via_maxima =
            PwcetCurve::from_block_maxima(&block_maxima(&sample, 25), 25, sample.max() as f64);
        assert_eq!(direct, via_maxima);
    }

    #[test]
    fn block_maxima_takes_per_block_maximum() {
        let sample = ExecutionSample::from_cycles(&[1, 5, 3, 9, 2, 4, 8, 7, 6]);
        assert_eq!(block_maxima(&sample, 3), vec![5.0, 9.0, 8.0]);
        // Trailing partial blocks are dropped.
        assert_eq!(block_maxima(&sample, 4), vec![9.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        block_maxima(&ExecutionSample::from_cycles(&[1]), 0);
    }

    #[test]
    fn pwcet_is_monotone_in_exceedance_probability() {
        let times: Vec<u64> = (0..1000).map(|i| 700_000 + (i * 7919) % 25_000).collect();
        let curve = PwcetCurve::fit(&ExecutionSample::from_cycles(&times), 50);
        let p9 = curve.pwcet(1e-9);
        let p12 = curve.pwcet(1e-12);
        let p15 = curve.pwcet(1e-15);
        assert!(p9 <= p12 && p12 <= p15);
        assert!(p15 >= curve.observed_max());
    }

    #[test]
    fn pwcet_never_below_observed_max() {
        let times: Vec<u64> = (0..500).map(|i| 1_000 + (i * 37) % 97).collect();
        let sample = ExecutionSample::from_cycles(&times);
        let curve = PwcetCurve::fit(&sample, 25);
        assert!(curve.pwcet(0.4) >= sample.max() as f64);
    }

    #[test]
    fn exceedance_probability_inverts_pwcet() {
        let times: Vec<u64> = (0..1000).map(|i| 500_000 + (i * 3571) % 40_000).collect();
        let curve = PwcetCurve::fit(&ExecutionSample::from_cycles(&times), 40);
        for &p in &[1e-6, 1e-9, 1e-12] {
            let x = curve.pwcet(p);
            let back = curve.exceedance_probability(x);
            assert!(
                (back.log10() - p.log10()).abs() < 0.05,
                "p = {p}, back = {back}"
            );
        }
    }

    #[test]
    fn exceedance_probability_decreases_with_bound() {
        let times: Vec<u64> = (0..800).map(|i| 100_000 + (i * 1237) % 9_000).collect();
        let curve = PwcetCurve::fit(&ExecutionSample::from_cycles(&times), 40);
        let base = curve.gumbel().location();
        let probs: Vec<f64> = (0..6)
            .map(|k| curve.exceedance_probability(base + k as f64 * 5_000.0))
            .collect();
        for pair in probs.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn gumbel_fit_projection_approximates_true_quantiles() {
        // Fit on 1,000 observations from a known Gumbel distribution and
        // check the projected 1e-6 per-run quantile is close to the truth.
        let truth = Gumbel::new(2_000_000.0, 30_000.0);
        let values = gumbel_sample(truth, 7, 1000);
        let sample = ExecutionSample::from_values(values);
        let curve = PwcetCurve::fit(&sample, 50);
        let projected = curve.pwcet(1e-6);
        let true_quantile = truth.quantile(1.0 - 1e-6);
        let rel = (projected - true_quantile).abs() / true_quantile;
        assert!(rel < 0.02, "projection off by {:.3}%", rel * 100.0);
    }

    #[test]
    fn degenerate_curve_returns_observed_max_everywhere() {
        let sample = ExecutionSample::from_cycles(&[42_000; 100]);
        let curve = PwcetCurve::fit_degenerate(&sample);
        assert!((curve.pwcet(1e-15) - 42_000.0).abs() < 1e-3);
        assert!((curve.pwcet(1e-3) - 42_000.0).abs() < 1e-3);
    }

    #[test]
    fn points_and_standard_probabilities() {
        let times: Vec<u64> = (0..500).map(|i| 10_000 + (i * 97) % 500).collect();
        let curve = PwcetCurve::fit(&ExecutionSample::from_cycles(&times), 25);
        let probs = PwcetCurve::standard_probabilities();
        assert_eq!(probs.len(), 18);
        let points = curve.points(&probs);
        assert_eq!(points.len(), 18);
        for pair in points.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "curve must be monotone");
        }
        assert!(curve.to_string().contains("pWCET curve"));
    }
}
