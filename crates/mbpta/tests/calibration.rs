//! Calibration of the i.i.d. battery: size and power of the
//! Wald–Wolfowitz, split Kolmogorov–Smirnov and exponential-tail tests.
//!
//! Every MBPTA verdict rests on these three tests rejecting at their
//! nominal rate on i.i.d. samples and rejecting reliably when the
//! property they check is broken.  Both halves are measured here on
//! samples of 1,000 observations drawn from `SplitMix64` streams with
//! fixed seeds, so the suite is deterministic:
//!
//! * **Size.**  Over 400 i.i.d. samples, the WW and split-KS rejection
//!   counts must fall inside the exact binomial 99.9% interval around
//!   α = 0.05.  ET fits its exponential's rate to the tail it tests, which
//!   makes its nominal level conservative, so on exponential samples (whose
//!   excesses over any threshold are exponential) it must reject at most
//!   that interval's upper end.
//! * **Power.**  Over 200 samples each, WW must reject ≥90% of AR(1)
//!   samples with φ = 0.5, split-KS ≥90% of samples whose level shifts by
//!   15% of the range at mid-sample, and ET ≥90% of Pareto(α = 1.5)
//!   samples (a heavy tail, outside the Gumbel domain).

use randmod_core::prng::SplitMix64;
use randmod_mbpta::iid::{
    exponential_tail, kolmogorov_smirnov_split, wald_wolfowitz, SIGNIFICANCE,
};
use randmod_mbpta::{ExecutionSample, MbptaConfig};

/// Observations per sample (the paper's campaign size).
const RUNS: usize = 1_000;
/// Samples per size check.
const SIZE_TRIALS: usize = 400;
/// Samples per power check.
const POWER_TRIALS: usize = 200;
/// Smallest acceptable rejection rate on the power checks.
const MIN_POWER: f64 = 0.9;

/// A uniform draw in `(0, 1)` from the top 53 bits of the stream.
fn uniform(rng: &mut SplitMix64) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// A standard normal draw (Box–Muller, one of the pair).
fn normal(rng: &mut SplitMix64) -> f64 {
    let (u, v) = (uniform(rng), uniform(rng));
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// A sample of `RUNS` observations offset to cycle-count magnitudes.
fn sample(values: impl Iterator<Item = f64>) -> ExecutionSample {
    ExecutionSample::from_values(values.map(|v| 100_000.0 + v).take(RUNS).collect())
}

/// The exact two-sided `1 - 2 * tail` binomial interval of the number of
/// rejections in `n` trials at rate `p`: the largest `lo` with
/// `P(X < lo) <= tail` and the smallest `hi` with `P(X > hi) <= tail`.
fn binomial_interval(n: usize, p: f64, tail: f64) -> (usize, usize) {
    let mut pmf = (1.0 - p).powi(n as i32);
    let mut cdf = Vec::with_capacity(n + 1);
    let mut total = 0.0;
    for k in 0..=n {
        total += pmf;
        cdf.push(total);
        pmf *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
    }
    let below = |k: usize| if k == 0 { 0.0 } else { cdf[k - 1] };
    let lo = (0..=n)
        .take_while(|&k| below(k) <= tail)
        .last()
        .unwrap_or(0);
    let hi = (0..=n).find(|&k| 1.0 - cdf[k] <= tail).unwrap_or(n);
    (lo, hi)
}

/// The 99.9% interval of rejections over `SIZE_TRIALS` at α.
fn size_interval() -> (usize, usize) {
    binomial_interval(SIZE_TRIALS, SIGNIFICANCE, 0.0005)
}

/// How many of `trials` samples drawn by `draw` the test `rejects`.
fn rejections(
    seed: u64,
    trials: usize,
    mut draw: impl FnMut(&mut SplitMix64) -> ExecutionSample,
    rejects: impl Fn(&ExecutionSample) -> bool,
) -> usize {
    let mut rng = SplitMix64::new(seed);
    (0..trials).filter(|_| rejects(&draw(&mut rng))).count()
}

fn iid_uniform(rng: &mut SplitMix64) -> ExecutionSample {
    sample(std::iter::repeat_with(|| 10_000.0 * uniform(rng)))
}

fn ww_rejects(sample: &ExecutionSample) -> bool {
    !wald_wolfowitz(sample).passed()
}

fn ks_rejects(sample: &ExecutionSample) -> bool {
    !kolmogorov_smirnov_split(sample).passed()
}

fn et_rejects(sample: &ExecutionSample) -> bool {
    !exponential_tail(sample, MbptaConfig::default().tail_fraction).passed()
}

#[test]
fn binomial_interval_brackets_the_mean() {
    // 400 trials at 5%: mean 20, and the binomial's right skew puts the
    // 99.9% interval at rates 1.75%..9%.
    assert_eq!(size_interval(), (7, 36));
    assert_eq!(binomial_interval(10, 0.5, 0.0), (0, 10));
}

#[test]
fn ww_rejects_iid_samples_at_its_nominal_rate() {
    let (lo, hi) = size_interval();
    let rejected = rejections(0x5EED_0001, SIZE_TRIALS, iid_uniform, ww_rejects);
    assert!(
        (lo..=hi).contains(&rejected),
        "WW rejected {rejected} of {SIZE_TRIALS} i.i.d. samples, outside [{lo}, {hi}]"
    );
}

#[test]
fn split_ks_rejects_iid_samples_at_its_nominal_rate() {
    let (lo, hi) = size_interval();
    let rejected = rejections(0x5EED_0002, SIZE_TRIALS, iid_uniform, ks_rejects);
    assert!(
        (lo..=hi).contains(&rejected),
        "split KS rejected {rejected} of {SIZE_TRIALS} i.i.d. samples, outside [{lo}, {hi}]"
    );
}

#[test]
fn et_is_conservative_on_exponential_samples() {
    let (_, hi) = size_interval();
    let exponential =
        |rng: &mut SplitMix64| sample(std::iter::repeat_with(|| -2_000.0 * uniform(rng).ln()));
    let rejected = rejections(0x5EED_0003, SIZE_TRIALS, exponential, et_rejects);
    assert!(
        rejected <= hi,
        "ET rejected {rejected} of {SIZE_TRIALS} exponential samples, above {hi}"
    );
}

#[test]
fn ww_detects_autocorrelation() {
    let ar1 = |rng: &mut SplitMix64| {
        let mut level = 0.0;
        sample(std::iter::repeat_with(|| {
            level = 0.5 * level + normal(rng);
            1_000.0 * level
        }))
    };
    let rejected = rejections(0x5EED_0004, POWER_TRIALS, ar1, ww_rejects);
    let power = rejected as f64 / POWER_TRIALS as f64;
    assert!(
        power >= MIN_POWER,
        "WW power {power:.3} on AR(1), phi = 0.5"
    );
}

#[test]
fn split_ks_detects_a_mid_sample_level_shift() {
    let shifted = |rng: &mut SplitMix64| {
        let mut index = 0;
        sample(std::iter::repeat_with(|| {
            index += 1;
            let shift = if index > RUNS / 2 { 1_500.0 } else { 0.0 };
            10_000.0 * uniform(rng) + shift
        }))
    };
    let rejected = rejections(0x5EED_0005, POWER_TRIALS, shifted, ks_rejects);
    let power = rejected as f64 / POWER_TRIALS as f64;
    assert!(
        power >= MIN_POWER,
        "split KS power {power:.3} on a 15% level shift"
    );
}

#[test]
fn et_detects_a_heavy_tail() {
    let pareto = |rng: &mut SplitMix64| {
        sample(std::iter::repeat_with(|| {
            1_000.0 * uniform(rng).powf(-1.0 / 1.5)
        }))
    };
    let rejected = rejections(0x5EED_0006, POWER_TRIALS, pareto, et_rejects);
    let power = rejected as f64 / POWER_TRIALS as f64;
    assert!(power >= MIN_POWER, "ET power {power:.3} on Pareto(1.5)");
}
