//! Independence and identical-distribution tests.
//!
//! Before EVT can be applied, MBPTA checks that the execution-time
//! observations behave like an i.i.d. sample (Cucu-Grosjean et al.,
//! ECRTS 2012).  The paper applies, and this module implements:
//!
//! * the **Wald–Wolfowitz runs test** for independence — values below 1.96
//!   (the 5% two-sided critical value of the standard normal) pass;
//! * the **two-sample Kolmogorov–Smirnov test** for identical distribution
//!   — p-values at or above 0.05 pass;
//! * the **ET (exponential-tail) test** of Garrido & Diebolt for Gumbel
//!   convergence of the tail.

use crate::sample::ExecutionSample;
use std::fmt;

/// Significance level used throughout the paper (5%).
pub const SIGNIFICANCE: f64 = 0.05;

/// Two-sided 5% critical value of the standard normal distribution, the
/// pass threshold of the Wald–Wolfowitz statistic quoted in the paper.
pub const WW_CRITICAL_VALUE: f64 = 1.96;

/// Result of the Wald–Wolfowitz runs test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WwTest {
    /// Absolute value of the normal-approximation statistic.
    pub statistic: f64,
    /// Number of runs observed.
    pub runs: u64,
    /// Number of observations above the median.
    pub above: u64,
    /// Number of observations below the median.
    pub below: u64,
}

impl WwTest {
    /// Whether the independence hypothesis is accepted at the 5% level
    /// (statistic below 1.96).
    pub fn passed(&self) -> bool {
        self.statistic < WW_CRITICAL_VALUE
    }
}

impl fmt::Display for WwTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WW statistic {:.2} ({} runs) -> {}",
            self.statistic,
            self.runs,
            if self.passed() {
                "independent"
            } else {
                "dependent"
            }
        )
    }
}

/// Runs the Wald–Wolfowitz (runs) test for independence.
///
/// Observations are dichotomised around the sample median; ties (values
/// equal to the median) are discarded, as is standard.  The number of runs
/// of consecutive same-side observations is compared against its
/// expectation under independence using the normal approximation.
///
/// # Panics
///
/// Panics if fewer than 2 observations remain after removing ties.
pub fn wald_wolfowitz(sample: &ExecutionSample) -> WwTest {
    let median = sample.median();
    let signs: Vec<bool> = sample
        .values()
        .iter()
        .filter(|&&v| v != median)
        .map(|&v| v > median)
        .collect();
    assert!(
        signs.len() >= 2,
        "the runs test needs at least two observations distinct from the median"
    );
    let n_above = signs.iter().filter(|&&s| s).count() as f64;
    let n_below = signs.len() as f64 - n_above;
    let mut runs = 1u64;
    for pair in signs.windows(2) {
        if pair[0] != pair[1] {
            runs += 1;
        }
    }
    let n = n_above + n_below;
    let expected = 2.0 * n_above * n_below / n + 1.0;
    let variance = (2.0 * n_above * n_below * (2.0 * n_above * n_below - n)) / (n * n * (n - 1.0));
    let statistic = if variance <= 0.0 {
        0.0
    } else {
        ((runs as f64 - expected) / variance.sqrt()).abs()
    };
    WwTest {
        statistic,
        runs,
        above: n_above as u64,
        below: n_below as u64,
    }
}

/// Result of the two-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic (maximum distance between the two empirical CDFs).
    pub statistic: f64,
    /// Asymptotic p-value.
    pub p_value: f64,
}

impl KsTest {
    /// Whether the identical-distribution hypothesis is accepted at the 5%
    /// level (p-value at or above 0.05).
    pub fn passed(&self) -> bool {
        self.p_value >= SIGNIFICANCE
    }
}

impl fmt::Display for KsTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KS statistic {:.3}, p = {:.3} -> {}",
            self.statistic,
            self.p_value,
            if self.passed() {
                "identically distributed"
            } else {
                "distributions differ"
            }
        )
    }
}

/// Kolmogorov distribution survival function `Q(lambda)`, the asymptotic
/// p-value of the KS statistic.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64) * (j as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Runs the two-sample Kolmogorov–Smirnov test.
///
/// # Panics
///
/// Panics if either sample is empty.
pub fn kolmogorov_smirnov(a: &ExecutionSample, b: &ExecutionSample) -> KsTest {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "KS test needs non-empty samples"
    );
    let xs = a.sorted();
    let ys = b.sorted();
    let (n, m) = (xs.len(), ys.len());
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = xs[i];
        let y = ys[j];
        let value = x.min(y);
        while i < n && xs[i] <= value {
            i += 1;
        }
        while j < m && ys[j] <= value {
            j += 1;
        }
        let f1 = i as f64 / n as f64;
        let f2 = j as f64 / m as f64;
        d = d.max((f1 - f2).abs());
    }
    let en = (n as f64 * m as f64) / (n as f64 + m as f64);
    let lambda = (en.sqrt() + 0.12 + 0.11 / en.sqrt()) * d;
    KsTest {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

/// Splits the sample into its two halves and tests them against each other —
/// the standard way the identical-distribution check is applied in MBPTA.
///
/// # Panics
///
/// Panics if the sample has fewer than 4 observations.
pub fn kolmogorov_smirnov_split(sample: &ExecutionSample) -> KsTest {
    assert!(
        sample.len() >= 4,
        "split KS test needs at least 4 observations"
    );
    let (a, b) = sample.halves();
    kolmogorov_smirnov(&a, &b)
}

/// Result of the exponential-tail (ET) test for Gumbel convergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtTest {
    /// One-sample KS distance between the empirical distribution of the
    /// threshold excesses and the fitted exponential.
    pub statistic: f64,
    /// Asymptotic p-value of that distance.
    pub p_value: f64,
    /// Number of tail observations used.
    pub tail_size: usize,
    /// The threshold above which excesses were taken.
    pub threshold: f64,
}

impl EtTest {
    /// Whether the exponential-tail (Gumbel domain of attraction)
    /// hypothesis is accepted at the 5% level.
    pub fn passed(&self) -> bool {
        self.p_value >= SIGNIFICANCE
    }
}

impl fmt::Display for EtTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ET statistic {:.3}, p = {:.3} over {} tail points -> {}",
            self.statistic,
            self.p_value,
            self.tail_size,
            if self.passed() {
                "Gumbel tail plausible"
            } else {
                "tail not exponential"
            }
        )
    }
}

/// Smallest sample the exponential-tail test accepts — and therefore the
/// floor on MBPTA campaign sizes (the other tests need less).  Consumers
/// that clamp user-provided run counts should clamp to this.
pub const ET_MIN_OBSERVATIONS: usize = 20;

/// Runs the exponential-tail test: the excesses over a high threshold
/// (by default the 1 - `tail_fraction` quantile) are compared against an
/// exponential distribution fitted by maximum likelihood, using a
/// one-sample Kolmogorov–Smirnov distance.
///
/// A distribution lies in the Gumbel (light-tailed) domain of attraction
/// exactly when its excesses over high thresholds become exponential, so
/// passing this test supports applying the Gumbel fit of [`crate::evt`].
///
/// # Panics
///
/// Panics if the sample has fewer than [`ET_MIN_OBSERVATIONS`]
/// observations or `tail_fraction` is not in `(0, 0.5]`.
pub fn exponential_tail(sample: &ExecutionSample, tail_fraction: f64) -> EtTest {
    assert!(
        sample.len() >= ET_MIN_OBSERVATIONS,
        "ET test needs at least {ET_MIN_OBSERVATIONS} observations"
    );
    assert!(
        tail_fraction > 0.0 && tail_fraction <= 0.5,
        "tail fraction must be in (0, 0.5]"
    );
    let threshold = sample.quantile(1.0 - tail_fraction);
    let excesses: Vec<f64> = sample
        .sorted()
        .into_iter()
        .filter(|&v| v > threshold)
        .map(|v| v - threshold)
        .collect();
    if excesses.is_empty() || excesses.iter().all(|&e| e == 0.0) {
        // A degenerate (constant) tail is trivially compatible with any
        // light-tailed model: report a pass with zero distance.
        return EtTest {
            statistic: 0.0,
            p_value: 1.0,
            tail_size: excesses.len(),
            threshold,
        };
    }
    let mean_excess = excesses.iter().sum::<f64>() / excesses.len() as f64;
    let rate = 1.0 / mean_excess;
    // One-sample KS distance against Exp(rate).
    let n = excesses.len();
    let mut d: f64 = 0.0;
    for (k, &e) in excesses.iter().enumerate() {
        let model = 1.0 - (-rate * e).exp();
        let emp_hi = (k + 1) as f64 / n as f64;
        let emp_lo = k as f64 / n as f64;
        d = d.max((model - emp_hi).abs()).max((model - emp_lo).abs());
    }
    let en = n as f64;
    let lambda = (en.sqrt() + 0.12 + 0.11 / en.sqrt()) * d;
    EtTest {
        statistic: d,
        p_value: kolmogorov_q(lambda),
        tail_size: n,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random uniform stream for test data.
    fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                (v >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn iid_sample(seed: u64, n: usize) -> ExecutionSample {
        ExecutionSample::from_values(
            uniform_stream(seed, n)
                .into_iter()
                .map(|u| 100_000.0 + 5_000.0 * u)
                .collect(),
        )
    }

    #[test]
    fn ww_accepts_an_iid_sample() {
        let test = wald_wolfowitz(&iid_sample(7, 1000));
        assert!(test.passed(), "statistic {}", test.statistic);
        assert!(test.above > 400 && test.below > 400);
    }

    #[test]
    fn ww_rejects_a_strongly_trending_sample() {
        // A monotonically increasing sequence has exactly 2 runs around the
        // median: maximal dependence.
        let values: Vec<u64> = (0..500).map(|i| 1000 + i).collect();
        let test = wald_wolfowitz(&ExecutionSample::from_cycles(&values));
        assert!(!test.passed());
        assert_eq!(test.runs, 2);
    }

    #[test]
    fn ww_rejects_a_perfectly_alternating_sample() {
        // Perfect alternation produces the maximum number of runs, which is
        // also inconsistent with independence.
        let values: Vec<u64> = (0..500).map(|i| if i % 2 == 0 { 10 } else { 20 }).collect();
        let test = wald_wolfowitz(&ExecutionSample::from_cycles(&values));
        assert!(!test.passed());
    }

    #[test]
    fn ww_display_mentions_verdict() {
        let text = wald_wolfowitz(&iid_sample(3, 500)).to_string();
        assert!(text.contains("WW statistic"));
    }

    #[test]
    #[should_panic(expected = "at least two observations")]
    fn ww_panics_on_constant_sample() {
        wald_wolfowitz(&ExecutionSample::from_cycles(&[5, 5, 5, 5]));
    }

    #[test]
    fn ks_accepts_two_samples_from_the_same_distribution() {
        let test = kolmogorov_smirnov(&iid_sample(11, 500), &iid_sample(23, 500));
        assert!(test.passed(), "p = {}", test.p_value);
    }

    #[test]
    fn ks_rejects_shifted_distributions() {
        let a = iid_sample(11, 500);
        let shifted =
            ExecutionSample::from_values(a.values().iter().map(|v| v + 3_000.0).collect());
        let b = iid_sample(23, 500);
        let test = kolmogorov_smirnov(&shifted, &b);
        assert!(!test.passed());
        assert!(test.statistic > 0.3);
    }

    #[test]
    fn ks_split_matches_manual_split() {
        let sample = iid_sample(5, 600);
        let (a, b) = sample.halves();
        assert_eq!(
            kolmogorov_smirnov_split(&sample),
            kolmogorov_smirnov(&a, &b)
        );
    }

    #[test]
    fn ks_statistic_is_zero_for_identical_samples() {
        let a = iid_sample(9, 300);
        let test = kolmogorov_smirnov(&a, &a.clone());
        assert!(test.statistic.abs() < 1e-12);
        assert!((test.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ks_panics_on_empty_sample() {
        kolmogorov_smirnov(&ExecutionSample::from_cycles(&[]), &iid_sample(1, 10));
    }

    #[test]
    fn kolmogorov_q_is_monotone_and_bounded() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        let q1 = kolmogorov_q(0.5);
        let q2 = kolmogorov_q(1.0);
        let q3 = kolmogorov_q(2.0);
        assert!(q1 > q2 && q2 > q3);
        assert!(q3 > 0.0 && q1 <= 1.0);
        // Reference value: Q(1.0) ~= 0.27.
        assert!((q2 - 0.27).abs() < 0.01);
    }

    #[test]
    fn et_accepts_an_exponential_like_tail() {
        // Exponentially distributed values are their own excess
        // distribution, so the ET test should comfortably pass.
        let values: Vec<f64> = uniform_stream(17, 2000)
            .into_iter()
            .map(|u| 50_000.0 + 1_000.0 * (-(1.0 - u).ln()))
            .collect();
        let test = exponential_tail(&ExecutionSample::from_values(values), 0.1);
        assert!(test.passed(), "p = {}", test.p_value);
        assert!(test.tail_size > 150);
    }

    #[test]
    fn et_rejects_a_heavy_tail() {
        // A Pareto-like (heavy) tail is not exponential.
        let values: Vec<f64> = uniform_stream(29, 4000)
            .into_iter()
            .map(|u| 50_000.0 * (1.0 - u).powf(-1.5))
            .collect();
        let test = exponential_tail(&ExecutionSample::from_values(values), 0.1);
        assert!(!test.passed(), "p = {}", test.p_value);
    }

    #[test]
    fn et_handles_degenerate_constant_tail() {
        let values = vec![100.0; 200];
        let test = exponential_tail(&ExecutionSample::from_values(values), 0.1);
        assert!(test.passed());
        assert_eq!(test.statistic, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 20 observations")]
    fn et_panics_on_tiny_sample() {
        exponential_tail(&iid_sample(1, 10), 0.1);
    }

    #[test]
    #[should_panic(expected = "tail fraction")]
    fn et_panics_on_bad_fraction() {
        exponential_tail(&iid_sample(1, 100), 0.9);
    }

    #[test]
    fn displays_are_informative() {
        let sample = iid_sample(2, 200);
        assert!(kolmogorov_smirnov_split(&sample).to_string().contains("KS"));
        assert!(exponential_tail(&sample, 0.2).to_string().contains("ET"));
    }
}
