//! Incremental (online) MBPTA analysis for adaptive campaigns.
//!
//! The paper's measurement protocol does not run a fixed number of
//! experiments: runs are collected *until the EVT fit stabilises*, and the
//! quoted ~1,000-run campaigns are the outcome of that convergence loop,
//! not an input.  This module provides the streaming counterpart of the
//! batch statistics in [`crate::sample`] and [`crate::evt`]:
//!
//! * [`OnlineSample`] — count / mean / variance (Welford) and the extremes
//!   of a growing sample, mergeable across lanes or threads;
//! * [`BlockMaxima`] — incremental block-maxima maintenance, so the Gumbel
//!   refit at each checkpoint touches only the completed blocks instead of
//!   re-scanning the whole sample;
//! * [`ConvergenceCriterion`] / [`ConvergenceTracker`] — the stopping rule:
//!   refit the Gumbel on the growing block maxima at regular checkpoints
//!   and declare convergence once the pWCET estimate at the target
//!   exceedance probability stays put (within a relative tolerance) over a
//!   number of consecutive checkpoints.  Degenerate zero-variance samples
//!   converge at the first checkpoint instead of looping to the cap.
//!
//! The simulation crate's adaptive campaign engine drives a
//! [`ConvergenceTracker`] with one observation per run; see
//! `randmod_sim::Campaign::run_adaptive`.

use crate::evt::PwcetCurve;

/// Streaming summary statistics of an execution-time sample: count, mean,
/// variance (Welford's algorithm, numerically stable for long campaigns)
/// and the extremes, in constant space.
///
/// Two `OnlineSample`s accumulated over disjoint observation streams can
/// be [`merge`](Self::merge)d into the summary of the concatenated stream
/// (Chan et al.'s parallel variance update), which is what per-lane or
/// per-thread accumulation needs.
///
/// ```
/// use randmod_mbpta::OnlineSample;
///
/// let mut s = OnlineSample::new();
/// for c in [10u64, 20, 30, 40, 50] {
///     s.push(c);
/// }
/// assert_eq!(s.count(), 5);
/// assert_eq!(s.mean(), 30.0);
/// assert_eq!(s.max(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineSample {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: u64,
    max: u64,
}

impl OnlineSample {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineSample {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Accumulates one observation (a cycle count).
    pub fn push(&mut self, cycles: u64) {
        self.count += 1;
        let value = cycles as f64;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
    }

    /// Merges two accumulators built over disjoint streams into the
    /// summary of the concatenated stream.
    pub fn merge(&self, other: &Self) -> Self {
        if self.count == 0 {
            return *other;
        }
        if other.count == 0 {
            return *self;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        OnlineSample {
            count: self.count + other.count,
            mean: self.mean + delta * n2 / n,
            m2: self.m2 + other.m2 + delta * delta * n1 * n2 / n,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Number of observations accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation so far (0 for an empty accumulator).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation so far — the running high-water mark (0 for an
    /// empty accumulator).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether every observation so far is identical (also true for empty
    /// and single-observation accumulators).  Decided on the exact integer
    /// extremes, not the floating-point variance, so merged accumulators
    /// cannot mis-report a constant stream as noisy.
    pub fn is_degenerate(&self) -> bool {
        self.min() == self.max
    }
}

/// Incrementally maintained block maxima: observations are pushed one at a
/// time and the maximum of every completed block of `block_size`
/// observations is retained (the trailing partial block is excluded,
/// matching [`crate::evt::block_maxima`]).
///
/// ```
/// use randmod_mbpta::BlockMaxima;
///
/// let mut blocks = BlockMaxima::new(3);
/// for c in [1u64, 5, 3, 9, 2, 4, 8] {
///     blocks.push(c as f64);
/// }
/// // Two complete blocks; the trailing [8] is still open.
/// assert_eq!(blocks.completed(), &[5.0, 9.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMaxima {
    block_size: usize,
    completed: Vec<f64>,
    current_max: f64,
    current_len: usize,
}

impl BlockMaxima {
    /// Creates an accumulator with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        BlockMaxima {
            block_size,
            completed: Vec::new(),
            current_max: f64::NEG_INFINITY,
            current_len: 0,
        }
    }

    /// The block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Accumulates one observation.
    pub fn push(&mut self, value: f64) {
        self.current_max = self.current_max.max(value);
        self.current_len += 1;
        if self.current_len == self.block_size {
            self.completed.push(self.current_max);
            self.current_max = f64::NEG_INFINITY;
            self.current_len = 0;
        }
    }

    /// The maxima of every completed block, in arrival order.
    pub fn completed(&self) -> &[f64] {
        &self.completed
    }

    /// Total number of observations pushed.
    pub fn observations(&self) -> usize {
        self.completed.len() * self.block_size + self.current_len
    }
}

/// The stopping rule of an adaptive MBPTA campaign.
///
/// At every checkpoint (every [`check_interval`](Self::check_interval)
/// runs once [`min_runs`](Self::min_runs) have been collected) the Gumbel
/// model is refitted on the block maxima accumulated so far and projected
/// to [`target_probability`](Self::target_probability).  The campaign has
/// converged once [`stable_checkpoints`](Self::stable_checkpoints)
/// consecutive checkpoints each move the estimate by at most
/// [`relative_tolerance`](Self::relative_tolerance) relative to the
/// previous checkpoint.  A degenerate (zero-variance) sample converges at
/// its first checkpoint: its pWCET is the observed value at every
/// probability, so waiting for more runs cannot change the answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriterion {
    /// Per-run exceedance probability the estimates are projected to
    /// (the paper quotes pWCET at 10⁻¹² and 10⁻¹⁵).
    pub target_probability: f64,
    /// Maximum relative movement between consecutive checkpoint estimates
    /// that still counts as "stable".
    pub relative_tolerance: f64,
    /// Number of consecutive stable checkpoints required to declare
    /// convergence.
    pub stable_checkpoints: usize,
    /// Number of runs between checkpoints.
    pub check_interval: usize,
    /// Runs collected before the first checkpoint (the statistical floor
    /// of the pipeline; the i.i.d. tests and the Gumbel fit need a
    /// non-trivial sample).
    pub min_runs: usize,
    /// Hard cap on the campaign size: the engine stops here even if the
    /// estimate never stabilises (and reports non-convergence).
    pub max_runs: usize,
    /// Block size of the incremental block-maxima extraction.
    pub block_size: usize,
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        ConvergenceCriterion {
            target_probability: 1e-12,
            relative_tolerance: 0.01,
            stable_checkpoints: 3,
            check_interval: 50,
            min_runs: 100,
            max_runs: 2_000,
            block_size: 25,
        }
    }
}

impl ConvergenceCriterion {
    /// Overrides the target exceedance probability.
    pub fn with_target_probability(mut self, p: f64) -> Self {
        self.target_probability = p;
        self
    }

    /// Overrides the relative tolerance.
    pub fn with_relative_tolerance(mut self, tolerance: f64) -> Self {
        self.relative_tolerance = tolerance;
        self
    }

    /// Overrides the run cap.
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// Overrides the pre-checkpoint floor.
    pub fn with_min_runs(mut self, min_runs: usize) -> Self {
        self.min_runs = min_runs;
        self
    }

    /// Overrides the checkpoint interval.
    pub fn with_check_interval(mut self, interval: usize) -> Self {
        self.check_interval = interval;
        self
    }

    /// Overrides the number of consecutive stable checkpoints required.
    pub fn with_stable_checkpoints(mut self, checkpoints: usize) -> Self {
        self.stable_checkpoints = checkpoints;
        self
    }

    /// Overrides the block size of the block-maxima extraction.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }
}

/// One refit of the convergence loop: how many runs backed it, what the
/// pWCET estimate was, and how far it moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCheckpoint {
    /// Number of runs collected when this checkpoint fired.
    pub runs: usize,
    /// pWCET estimate at the criterion's target probability.
    pub pwcet: f64,
    /// Relative movement against the previous checkpoint
    /// (`f64::INFINITY` for the first checkpoint, which has no
    /// predecessor to compare against).
    pub relative_delta: f64,
}

/// Drives a [`ConvergenceCriterion`] over a stream of per-run execution
/// times.
///
/// ```
/// use randmod_mbpta::{ConvergenceCriterion, ConvergenceTracker};
///
/// // A constant-time workload converges at the first checkpoint.
/// let criterion = ConvergenceCriterion::default().with_min_runs(30);
/// let mut tracker = ConvergenceTracker::new(criterion);
/// for _ in 0..criterion.max_runs {
///     if tracker.is_converged() {
///         break;
///     }
///     tracker.push(42_000);
/// }
/// assert!(tracker.is_converged());
/// assert_eq!(tracker.runs(), 30);
/// assert_eq!(tracker.current_estimate(), 42_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTracker {
    criterion: ConvergenceCriterion,
    sample: OnlineSample,
    maxima: BlockMaxima,
    since_last_check: usize,
    stable: usize,
    trajectory: Vec<ConvergenceCheckpoint>,
    converged: bool,
}

impl ConvergenceTracker {
    /// Creates a tracker for the given criterion.
    ///
    /// # Panics
    ///
    /// Panics if the criterion is malformed: target probability outside
    /// `(0, 1)`, non-positive or non-finite tolerance, or a zero block
    /// size, checkpoint interval or stable-checkpoint count.
    pub fn new(criterion: ConvergenceCriterion) -> Self {
        assert!(
            criterion.target_probability > 0.0 && criterion.target_probability < 1.0,
            "target exceedance probability must be in (0, 1)"
        );
        assert!(
            criterion.relative_tolerance > 0.0 && criterion.relative_tolerance.is_finite(),
            "relative tolerance must be positive and finite"
        );
        assert!(
            criterion.stable_checkpoints > 0,
            "stable checkpoint count must be non-zero"
        );
        assert!(
            criterion.check_interval > 0,
            "checkpoint interval must be non-zero"
        );
        assert!(criterion.block_size > 0, "block size must be non-zero");
        ConvergenceTracker {
            criterion,
            sample: OnlineSample::new(),
            maxima: BlockMaxima::new(criterion.block_size),
            since_last_check: 0,
            stable: 0,
            trajectory: Vec::new(),
            converged: false,
        }
    }

    /// The criterion being tracked.
    pub fn criterion(&self) -> &ConvergenceCriterion {
        &self.criterion
    }

    /// Accumulates one run's execution time; fires a checkpoint when due.
    /// Observations pushed after convergence still update the summary
    /// statistics but no longer move the verdict.
    pub fn push(&mut self, cycles: u64) {
        self.sample.push(cycles);
        self.maxima.push(cycles as f64);
        if self.converged {
            return;
        }
        self.since_last_check += 1;
        // The first checkpoint fires as soon as the floor is reached; the
        // following ones every `check_interval` runs.
        let due = if self.trajectory.is_empty() {
            self.runs() >= self.criterion.min_runs.max(1)
        } else {
            self.since_last_check >= self.criterion.check_interval
        };
        if due {
            self.checkpoint();
        }
    }

    /// Forces a final checkpoint at the current run count (unless the last
    /// checkpoint is already current).  The adaptive engine calls this
    /// when it stops at the run cap, so the trajectory always ends with an
    /// estimate over the full collected sample.  The convergence verdict
    /// is *not* updated: the trailing checkpoint can cover an arbitrarily
    /// short interval (whatever remained before the cap), and a near-zero
    /// delta over a handful of runs must not retroactively turn a
    /// cap-terminated campaign into a "converged" one.
    pub fn finalize(&mut self) {
        let current = self.runs();
        if current == 0 || self.trajectory.last().is_some_and(|c| c.runs == current) {
            return;
        }
        self.checkpoint_with_verdict(false);
    }

    /// Whether the stopping rule has been met.
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// Number of observations pushed so far.
    pub fn runs(&self) -> usize {
        self.sample.count() as usize
    }

    /// The checkpoint history, oldest first.
    pub fn trajectory(&self) -> &[ConvergenceCheckpoint] {
        &self.trajectory
    }

    /// The streaming summary statistics of the observations so far.
    pub fn sample(&self) -> &OnlineSample {
        &self.sample
    }

    /// The current pWCET estimate at the criterion's target probability:
    /// a Gumbel refit over the completed block maxima, or the observed
    /// maximum when the sample (or its maxima) is degenerate.
    pub fn current_estimate(&self) -> f64 {
        if self.sample.is_degenerate() {
            // A constant sample's pWCET is the observed value, exactly.
            return self.sample.max() as f64;
        }
        self.current_curve()
            .pwcet(self.criterion.target_probability)
    }

    /// The pWCET curve behind [`Self::current_estimate`].
    pub fn current_curve(&self) -> PwcetCurve {
        let observed_max = self.sample.max() as f64;
        if self.sample.is_degenerate() {
            return PwcetCurve::from_block_maxima(&[], 1, observed_max);
        }
        PwcetCurve::from_block_maxima(
            self.maxima.completed(),
            self.criterion.block_size,
            observed_max,
        )
    }

    /// Refits, records a checkpoint and updates the convergence verdict.
    fn checkpoint(&mut self) {
        self.checkpoint_with_verdict(true);
    }

    /// Refits and records a checkpoint; updates the stability counter and
    /// the convergence verdict only when `update_verdict` is set (regular
    /// cadenced checkpoints — a forced trailing checkpoint keeps the
    /// verdict untouched).
    fn checkpoint_with_verdict(&mut self, update_verdict: bool) {
        self.since_last_check = 0;
        let pwcet = self.current_estimate();
        let relative_delta = match self.trajectory.last() {
            None => f64::INFINITY,
            Some(prev) if prev.pwcet == 0.0 && pwcet == 0.0 => 0.0,
            Some(prev) if prev.pwcet == 0.0 => f64::INFINITY,
            Some(prev) => ((pwcet - prev.pwcet) / prev.pwcet).abs(),
        };
        self.trajectory.push(ConvergenceCheckpoint {
            runs: self.runs(),
            pwcet,
            relative_delta,
        });
        if !update_verdict {
            return;
        }
        self.stable = if relative_delta <= self.criterion.relative_tolerance {
            self.stable + 1
        } else {
            0
        };
        // Zero-variance samples converge immediately: every refit would
        // return the same observed value, so looping to the cap is waste.
        if self.sample.is_degenerate() || self.stable >= self.criterion.stable_checkpoints {
            self.converged = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evt::block_maxima;
    use crate::sample::ExecutionSample;

    fn noisy_cycles(seed: u64, n: usize, base: u64, spread: u64) -> Vec<u64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let u =
                    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                base + (spread as f64 * 0.2 * -(1.0 - u).ln()) as u64
            })
            .collect()
    }

    #[test]
    fn online_sample_matches_batch_statistics() {
        let cycles = noisy_cycles(5, 500, 100_000, 10_000);
        let batch = ExecutionSample::from_cycles(&cycles);
        let mut online = OnlineSample::new();
        for &c in &cycles {
            online.push(c);
        }
        assert_eq!(online.count(), 500);
        assert_eq!(online.min(), batch.min());
        assert_eq!(online.max(), batch.max());
        assert!((online.mean() - batch.mean()).abs() / batch.mean() < 1e-12);
        assert!((online.std_dev() - batch.std_dev()).abs() / batch.std_dev() < 1e-9);
    }

    #[test]
    fn merged_accumulators_match_the_concatenated_stream() {
        let cycles = noisy_cycles(9, 301, 50_000, 5_000);
        for split in [0usize, 1, 150, 300, 301] {
            let mut a = OnlineSample::new();
            let mut b = OnlineSample::new();
            for &c in &cycles[..split] {
                a.push(c);
            }
            for &c in &cycles[split..] {
                b.push(c);
            }
            let merged = a.merge(&b);
            let mut whole = OnlineSample::new();
            for &c in &cycles {
                whole.push(c);
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.min(), whole.min());
            assert_eq!(merged.max(), whole.max());
            assert!((merged.mean() - whole.mean()).abs() / whole.mean() < 1e-12);
            assert!(
                (merged.variance() - whole.variance()).abs() / whole.variance() < 1e-9,
                "split at {split}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_accumulators_are_well_behaved() {
        let empty = OnlineSample::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);
        assert!(empty.is_degenerate());
        let mut one = OnlineSample::new();
        one.push(7);
        assert_eq!(one.variance(), 0.0);
        assert!(one.is_degenerate());
        assert_eq!(one.merge(&empty), one);
        assert_eq!(empty.merge(&one), one);
    }

    #[test]
    fn constant_stream_is_degenerate_noisy_stream_is_not() {
        let mut constant = OnlineSample::new();
        let mut noisy = OnlineSample::new();
        for i in 0..100u64 {
            constant.push(500);
            noisy.push(500 + i % 3);
        }
        assert!(constant.is_degenerate());
        assert_eq!(constant.variance(), 0.0);
        assert!(!noisy.is_degenerate());
    }

    #[test]
    fn incremental_block_maxima_match_the_batch_extraction() {
        let cycles = noisy_cycles(13, 333, 70_000, 9_000);
        let sample = ExecutionSample::from_cycles(&cycles);
        for block_size in [1usize, 7, 25, 100] {
            let mut incremental = BlockMaxima::new(block_size);
            for &c in &cycles {
                incremental.push(c as f64);
            }
            assert_eq!(
                incremental.completed(),
                block_maxima(&sample, block_size).as_slice(),
                "block size {block_size}"
            );
            assert_eq!(incremental.observations(), cycles.len());
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        BlockMaxima::new(0);
    }

    #[test]
    fn degenerate_stream_converges_at_the_first_checkpoint() {
        let criterion = ConvergenceCriterion::default().with_min_runs(40);
        let mut tracker = ConvergenceTracker::new(criterion);
        for _ in 0..criterion.max_runs {
            if tracker.is_converged() {
                break;
            }
            tracker.push(123_456);
        }
        assert!(tracker.is_converged());
        assert_eq!(tracker.runs(), 40);
        assert_eq!(tracker.trajectory().len(), 1);
        assert_eq!(tracker.current_estimate(), 123_456.0);
        assert!(tracker.trajectory()[0].relative_delta.is_infinite());
    }

    #[test]
    fn stationary_noise_converges_before_the_cap() {
        let criterion = ConvergenceCriterion::default()
            .with_relative_tolerance(0.05)
            .with_max_runs(5_000);
        let mut tracker = ConvergenceTracker::new(criterion);
        for c in noisy_cycles(21, criterion.max_runs, 200_000, 4_000) {
            if tracker.is_converged() {
                break;
            }
            tracker.push(c);
        }
        assert!(
            tracker.is_converged(),
            "trajectory: {:?}",
            tracker.trajectory()
        );
        assert!(tracker.runs() < criterion.max_runs);
        // The estimate is a plausible pWCET: above the observed maximum.
        assert!(tracker.current_estimate() >= tracker.sample().max() as f64);
    }

    #[test]
    fn impossible_tolerance_never_converges() {
        // A tolerance below f64 resolution cannot be met by a noisy
        // stream, so the tracker must still be unconverged at the cap.
        let criterion = ConvergenceCriterion::default()
            .with_relative_tolerance(1e-300)
            .with_max_runs(400);
        let mut tracker = ConvergenceTracker::new(criterion);
        for c in noisy_cycles(3, criterion.max_runs, 900_000, 50_000) {
            tracker.push(c);
        }
        assert!(!tracker.is_converged());
        assert!(tracker.trajectory().len() > 2);
    }

    #[test]
    fn checkpoints_fire_at_the_configured_cadence() {
        let criterion = ConvergenceCriterion::default()
            .with_min_runs(60)
            .with_check_interval(30)
            .with_relative_tolerance(1e-300);
        let mut tracker = ConvergenceTracker::new(criterion);
        for c in noisy_cycles(7, 180, 400_000, 30_000) {
            tracker.push(c);
        }
        let runs: Vec<usize> = tracker.trajectory().iter().map(|c| c.runs).collect();
        assert_eq!(runs, vec![60, 90, 120, 150, 180]);
        // Deltas after the first are finite and recorded.
        for checkpoint in &tracker.trajectory()[1..] {
            assert!(checkpoint.relative_delta.is_finite());
        }
    }

    #[test]
    fn finalize_records_a_trailing_checkpoint_once() {
        let criterion = ConvergenceCriterion::default().with_min_runs(50);
        let mut tracker = ConvergenceTracker::new(criterion);
        for c in noisy_cycles(11, 75, 100_000, 8_000) {
            tracker.push(c);
        }
        assert_eq!(tracker.trajectory().len(), 1); // at 50 runs
        tracker.finalize();
        assert_eq!(tracker.trajectory().len(), 2);
        assert_eq!(tracker.trajectory().last().unwrap().runs, 75);
        tracker.finalize(); // idempotent
        assert_eq!(tracker.trajectory().len(), 2);
        let mut empty = ConvergenceTracker::new(criterion);
        empty.finalize(); // no observations, nothing to record
        assert!(empty.trajectory().is_empty());
    }

    #[test]
    fn finalize_never_upgrades_the_verdict_to_converged() {
        // Every delta is within this tolerance, but only two cadenced
        // checkpoints fit before the engine would stop at 210 runs:
        // stable = 2 of the required 3.  The forced trailing checkpoint
        // over the last 10 runs must not count as the third.
        let criterion = ConvergenceCriterion::default()
            .with_min_runs(100)
            .with_check_interval(50)
            .with_stable_checkpoints(3)
            .with_relative_tolerance(1e9);
        let mut tracker = ConvergenceTracker::new(criterion);
        for c in noisy_cycles(17, 210, 300_000, 20_000) {
            tracker.push(c);
        }
        assert!(!tracker.is_converged());
        tracker.finalize();
        assert!(
            !tracker.is_converged(),
            "a short trailing checkpoint must not satisfy the stopping rule"
        );
        // The trailing estimate is still recorded.
        assert_eq!(tracker.trajectory().last().unwrap().runs, 210);
    }

    #[test]
    fn pushes_after_convergence_keep_statistics_but_not_checkpoints() {
        let criterion = ConvergenceCriterion::default().with_min_runs(30);
        let mut tracker = ConvergenceTracker::new(criterion);
        for _ in 0..30 {
            tracker.push(10);
        }
        assert!(tracker.is_converged());
        let checkpoints = tracker.trajectory().len();
        for _ in 0..100 {
            tracker.push(10);
        }
        assert_eq!(tracker.runs(), 130);
        assert_eq!(tracker.trajectory().len(), checkpoints);
    }

    #[test]
    fn all_zero_stream_converges_without_dividing_by_zero() {
        let criterion = ConvergenceCriterion::default().with_min_runs(25);
        let mut tracker = ConvergenceTracker::new(criterion);
        for _ in 0..25 {
            tracker.push(0);
        }
        assert!(tracker.is_converged());
        assert_eq!(tracker.current_estimate(), 0.0);
    }

    #[test]
    fn criterion_builders_apply() {
        let criterion = ConvergenceCriterion::default()
            .with_target_probability(1e-15)
            .with_relative_tolerance(0.02)
            .with_max_runs(777)
            .with_min_runs(33)
            .with_check_interval(11)
            .with_stable_checkpoints(5)
            .with_block_size(10);
        assert_eq!(criterion.target_probability, 1e-15);
        assert_eq!(criterion.relative_tolerance, 0.02);
        assert_eq!(criterion.max_runs, 777);
        assert_eq!(criterion.min_runs, 33);
        assert_eq!(criterion.check_interval, 11);
        assert_eq!(criterion.stable_checkpoints, 5);
        assert_eq!(criterion.block_size, 10);
        assert_eq!(ConvergenceTracker::new(criterion).criterion(), &criterion);
    }

    #[test]
    #[should_panic(expected = "target exceedance probability")]
    fn malformed_target_probability_panics() {
        ConvergenceTracker::new(ConvergenceCriterion::default().with_target_probability(0.0));
    }

    #[test]
    #[should_panic(expected = "relative tolerance")]
    fn malformed_tolerance_panics() {
        ConvergenceTracker::new(ConvergenceCriterion::default().with_relative_tolerance(0.0));
    }
}
