//! Execution-time histograms.
//!
//! Figure 5(a)(b) of the paper shows the probability density functions of
//! the execution times collected for the synthetic kernel under RM and hRP.
//! [`Histogram`] bins a sample into equal-width bins and exposes counts and
//! empirical densities for exactly that kind of plot.

use crate::sample::ExecutionSample;
use std::fmt;

/// One bin of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Lower edge (inclusive).
    pub lower: f64,
    /// Upper edge (exclusive, except for the last bin).
    pub upper: f64,
    /// Number of observations in the bin.
    pub count: u64,
    /// Empirical probability density over the bin.
    pub density: f64,
}

impl Bin {
    /// The centre of the bin.
    pub fn center(&self) -> f64 {
        (self.lower + self.upper) / 2.0
    }
}

/// An equal-width histogram of an execution-time sample.
///
/// ```
/// use randmod_mbpta::{ExecutionSample, Histogram};
///
/// let sample = ExecutionSample::from_cycles(&[10, 11, 12, 20, 21, 30]);
/// let histogram = Histogram::from_sample(&sample, 4);
/// assert_eq!(histogram.bins().len(), 4);
/// assert_eq!(histogram.total_count(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<Bin>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins spanning the sample
    /// range.  A sample whose values are all identical produces a single
    /// bin of width 1 centred on that value.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `bins` is zero.
    pub fn from_sample(sample: &ExecutionSample, bins: usize) -> Self {
        assert!(
            !sample.is_empty(),
            "cannot build a histogram of an empty sample"
        );
        assert!(bins > 0, "a histogram needs at least one bin");
        let min = sample.min() as f64;
        let max = sample.max() as f64;
        if max <= min {
            let count = sample.len() as u64;
            return Histogram {
                bins: vec![Bin {
                    lower: min - 0.5,
                    upper: min + 0.5,
                    count,
                    density: 1.0,
                }],
                total: count,
            };
        }
        let width = (max - min) / bins as f64;
        let mut counts = vec![0u64; bins];
        for &v in sample.values() {
            let mut idx = ((v - min) / width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        let total = sample.len() as u64;
        let bins = counts
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let lower = min + i as f64 * width;
                Bin {
                    lower,
                    upper: lower + width,
                    count,
                    density: count as f64 / (total as f64 * width),
                }
            })
            .collect();
        Histogram { bins, total }
    }

    /// The bins, in increasing order of execution time.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Total number of observations.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// The bin with the largest count (the mode of the distribution).
    pub fn mode(&self) -> &Bin {
        self.bins
            .iter()
            .max_by_key(|b| b.count)
            .expect("histogram has at least one bin")
    }

    /// Fraction of observations strictly above `threshold` — used to
    /// quantify the long tail hRP exhibits in Figure 5(b).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        let above: u64 = self
            .bins
            .iter()
            .filter(|b| b.lower >= threshold)
            .map(|b| b.count)
            .sum();
        above as f64 / self.total as f64
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram of {} observations:", self.total)?;
        let max_count = self.bins.iter().map(|b| b.count).max().unwrap_or(1).max(1);
        for bin in &self.bins {
            let bar = "#".repeat(((bin.count * 50) / max_count) as usize);
            writeln!(
                f,
                "  [{:>12.0}, {:>12.0})  {:>7}  {bar}",
                bin.lower, bin.upper, bin.count
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_range_and_counts_sum() {
        let sample = ExecutionSample::from_cycles(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let h = Histogram::from_sample(&sample, 5);
        assert_eq!(h.bins().len(), 5);
        assert_eq!(h.total_count(), 10);
        let total: u64 = h.bins().iter().map(|b| b.count).sum();
        assert_eq!(total, 10);
        assert_eq!(h.bins()[0].lower, 0.0);
        assert_eq!(h.bins()[4].upper, 9.0);
    }

    #[test]
    fn densities_integrate_to_one() {
        let values: Vec<u64> = (0..1000).map(|i| (i * 37) % 500).collect();
        let h = Histogram::from_sample(&ExecutionSample::from_cycles(&values), 20);
        let integral: f64 = h
            .bins()
            .iter()
            .map(|b| b.density * (b.upper - b.lower))
            .sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn maximum_value_lands_in_last_bin() {
        let sample = ExecutionSample::from_cycles(&[0, 100]);
        let h = Histogram::from_sample(&sample, 4);
        assert_eq!(h.bins().last().unwrap().count, 1);
        assert_eq!(h.bins().first().unwrap().count, 1);
    }

    #[test]
    fn constant_sample_yields_single_bin() {
        let sample = ExecutionSample::from_cycles(&[42; 10]);
        let h = Histogram::from_sample(&sample, 8);
        assert_eq!(h.bins().len(), 1);
        assert_eq!(h.total_count(), 10);
        assert_eq!(h.mode().count, 10);
        assert!((h.bins()[0].center() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn mode_and_fraction_above() {
        let mut values = vec![100u64; 90];
        values.extend(vec![1000u64; 10]);
        let h = Histogram::from_sample(&ExecutionSample::from_cycles(&values), 9);
        assert_eq!(h.mode().count, 90);
        let frac = h.fraction_above(500.0);
        assert!((frac - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        Histogram::from_sample(&ExecutionSample::from_cycles(&[]), 3);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::from_sample(&ExecutionSample::from_cycles(&[1]), 0);
    }

    #[test]
    fn display_draws_bars() {
        let h = Histogram::from_sample(&ExecutionSample::from_cycles(&[1, 2, 2, 3]), 3);
        let text = h.to_string();
        assert!(text.contains("histogram of 4 observations"));
        assert!(text.contains('#'));
    }
}
