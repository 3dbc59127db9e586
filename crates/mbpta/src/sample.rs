//! Execution-time samples.

use std::fmt;

/// A sample of execution-time observations (cycles), the raw input of
/// MBPTA.
///
/// ```
/// use randmod_mbpta::ExecutionSample;
///
/// let sample = ExecutionSample::from_cycles(&[10, 20, 30, 40]);
/// assert_eq!(sample.len(), 4);
/// assert_eq!(sample.max(), 40);
/// assert_eq!(sample.mean(), 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionSample {
    values: Vec<f64>,
}

impl ExecutionSample {
    /// Creates a sample from raw cycle counts.
    pub fn from_cycles(cycles: &[u64]) -> Self {
        Self::from_cycles_iter(cycles.iter().copied())
    }

    /// Creates a sample by draining an iterator of cycle counts, without
    /// an intermediate `Vec<u64>` (feed it `CampaignResult::cycles_iter`).
    pub fn from_cycles_iter<I: IntoIterator<Item = u64>>(cycles: I) -> Self {
        cycles.into_iter().collect()
    }

    /// Splits a run-major interleaved cycle stream into one sample per
    /// task — the extraction step for contended (multi-task) campaigns,
    /// whose engines report `runs × tasks` observations flattened as
    /// `run0·task0, run0·task1, …, run1·task0, …`.  Task 0 (the victim)
    /// comes first; observation order within each task is campaign order,
    /// so every per-task sample feeds the i.i.d. tests and EVT fit
    /// unchanged.
    ///
    /// ```
    /// use randmod_mbpta::ExecutionSample;
    ///
    /// let per_task = ExecutionSample::split_interleaved([10, 99, 11, 98], 2);
    /// assert_eq!(per_task[0], ExecutionSample::from_cycles(&[10, 11]));
    /// assert_eq!(per_task[1], ExecutionSample::from_cycles(&[99, 98]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is zero or the stream length is not a multiple of
    /// `tasks` (a truncated run).
    pub fn split_interleaved<I: IntoIterator<Item = u64>>(cycles: I, tasks: usize) -> Vec<Self> {
        assert!(tasks > 0, "a contended sample needs at least one task");
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); tasks];
        let mut next = 0usize;
        for value in cycles {
            samples[next].push(value as f64);
            next = (next + 1) % tasks;
        }
        assert_eq!(
            next, 0,
            "interleaved stream length is not a multiple of the task count"
        );
        samples
            .into_iter()
            .map(|values| ExecutionSample { values })
            .collect()
    }

    /// Creates a sample from floating-point observations.
    ///
    /// # Panics
    ///
    /// Panics if any observation is not finite.
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "execution times must be finite"
        );
        ExecutionSample { values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The observations in collection order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The observations sorted ascending.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
        v
    }

    /// Arithmetic mean (0 for an empty sample).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sample standard deviation (unbiased, 0 for fewer than two values).
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (self.values.len() - 1) as f64;
        var.sqrt()
    }

    /// Smallest observation (0 for an empty sample).
    pub fn min(&self) -> u64 {
        self.values.iter().cloned().fold(f64::INFINITY, f64::min) as u64
    }

    /// Largest observation — the *high-water mark* (0 for an empty sample).
    pub fn max(&self) -> u64 {
        if self.values.is_empty() {
            0
        } else {
            self.values
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max) as u64
        }
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation of the sorted
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of an empty sample");
        assert!((0.0..=1.0).contains(&p), "quantile level must be in [0, 1]");
        let sorted = self.sorted();
        if sorted.len() == 1 {
            return sorted[0];
        }
        let pos = p * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    /// The median.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Splits the sample in two halves (first half, second half), the shape
    /// the two-sample Kolmogorov–Smirnov identical-distribution test
    /// consumes.
    pub fn halves(&self) -> (ExecutionSample, ExecutionSample) {
        let mid = self.values.len() / 2;
        (
            ExecutionSample {
                values: self.values[..mid].to_vec(),
            },
            ExecutionSample {
                values: self.values[mid..].to_vec(),
            },
        )
    }
}

impl fmt::Display for ExecutionSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "empty sample");
        }
        write!(
            f,
            "{} observations: min {}, mean {:.0}, max {}",
            self.len(),
            self.min(),
            self.mean(),
            self.max()
        )
    }
}

impl FromIterator<u64> for ExecutionSample {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        ExecutionSample {
            values: iter.into_iter().map(|c| c as f64).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = ExecutionSample::from_cycles(&[10, 20, 30, 40, 50]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.mean(), 30.0);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 50);
        assert_eq!(s.median(), 30.0);
        assert!((s.std_dev() - 15.811388).abs() < 1e-5);
    }

    #[test]
    fn empty_sample_is_well_behaved() {
        let s = ExecutionSample::from_cycles(&[]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.to_string(), "empty sample");
    }

    #[test]
    fn quantile_interpolates() {
        let s = ExecutionSample::from_cycles(&[0, 10, 20, 30, 40]);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert_eq!(s.quantile(0.5), 20.0);
        assert_eq!(s.quantile(0.125), 5.0);
    }

    #[test]
    fn quantile_of_single_value() {
        let s = ExecutionSample::from_cycles(&[7]);
        assert_eq!(s.quantile(0.3), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_of_empty_panics() {
        ExecutionSample::from_cycles(&[]).quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn quantile_out_of_range_panics() {
        ExecutionSample::from_cycles(&[1, 2]).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_values_panic() {
        ExecutionSample::from_values(vec![1.0, f64::NAN]);
    }

    #[test]
    fn halves_split_in_order() {
        let s = ExecutionSample::from_cycles(&[1, 2, 3, 4, 5]);
        let (a, b) = s.halves();
        assert_eq!(a.values(), &[1.0, 2.0]);
        assert_eq!(b.values(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn sorted_does_not_mutate_order() {
        let s = ExecutionSample::from_cycles(&[3, 1, 2]);
        assert_eq!(s.sorted(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.values(), &[3.0, 1.0, 2.0]);
    }

    #[test]
    fn collect_from_iterator() {
        let s: ExecutionSample = (1u64..=4).collect();
        assert_eq!(s.len(), 4);
        assert_eq!(s.max(), 4);
        assert!(s.to_string().contains("4 observations"));
    }

    #[test]
    fn from_cycles_iter_matches_from_cycles() {
        let cycles = [10u64, 20, 30];
        assert_eq!(
            ExecutionSample::from_cycles_iter(cycles.iter().copied()),
            ExecutionSample::from_cycles(&cycles)
        );
    }

    #[test]
    fn split_interleaved_extracts_per_task_samples() {
        let per_task = ExecutionSample::split_interleaved([1, 10, 100, 2, 20, 200], 3);
        assert_eq!(per_task.len(), 3);
        assert_eq!(per_task[0], ExecutionSample::from_cycles(&[1, 2]));
        assert_eq!(per_task[1], ExecutionSample::from_cycles(&[10, 20]));
        assert_eq!(per_task[2], ExecutionSample::from_cycles(&[100, 200]));
        // One task degenerates to the identity.
        assert_eq!(
            ExecutionSample::split_interleaved([5, 6, 7], 1),
            vec![ExecutionSample::from_cycles(&[5, 6, 7])]
        );
        // An empty stream yields empty per-task samples.
        assert!(ExecutionSample::split_interleaved([], 2)
            .iter()
            .all(|s| s.is_empty()));
    }

    #[test]
    #[should_panic(expected = "multiple of the task count")]
    fn split_interleaved_rejects_truncated_runs() {
        ExecutionSample::split_interleaved([1, 2, 3], 2);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn split_interleaved_rejects_zero_tasks() {
        ExecutionSample::split_interleaved([1, 2], 0);
    }
}
