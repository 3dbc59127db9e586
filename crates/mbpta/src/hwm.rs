//! The industrial high-water-mark baseline.
//!
//! The common measurement-based practice in safety-critical industry (the
//! comparison point of Section 4.4 of the paper) is to record the largest
//! execution time observed across stress tests — the *high-water mark* —
//! and add an engineering margin, usually 20%, to obtain the WCET bound.
//! The margin has no scientific basis, which is precisely the weakness
//! MBPTA addresses.

use crate::sample::ExecutionSample;
use std::fmt;

/// The default engineering margin applied on top of the high-water mark
/// (20%, the value quoted in the paper).
pub const DEFAULT_ENGINEERING_MARGIN: f64 = 0.20;

/// A high-water-mark record.
///
/// ```
/// use randmod_mbpta::{ExecutionSample, HighWaterMark};
///
/// let sample = ExecutionSample::from_cycles(&[900, 1000, 950]);
/// let hwm = HighWaterMark::from_sample(&sample);
/// assert_eq!(hwm.value(), 1000);
/// assert_eq!(hwm.with_default_margin(), 1200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HighWaterMark {
    value: u64,
    observations: usize,
}

impl HighWaterMark {
    /// Records the high-water mark of a sample.
    pub fn from_sample(sample: &ExecutionSample) -> Self {
        HighWaterMark {
            value: sample.max(),
            observations: sample.len(),
        }
    }

    /// Creates a high-water mark from a raw value.
    pub fn new(value: u64, observations: usize) -> Self {
        HighWaterMark {
            value,
            observations,
        }
    }

    /// The largest observed execution time.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of observations behind this high-water mark.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// The WCET bound obtained by adding an engineering margin
    /// (e.g. `0.20` for +20%).
    ///
    /// A WCET bound must never shrink, so every lossy step rounds up: the
    /// `u64 -> f64` conversion of the high-water mark (exact only below
    /// 2⁵³ cycles) is bumped to the next representable value when it
    /// rounds down, and the margin is charged in whole cycles, rounded up.
    /// The result is therefore always at least the observed high-water
    /// mark, for every cycle count.
    ///
    /// # Panics
    ///
    /// Panics if the margin is negative or not finite.
    pub fn with_margin(&self, margin: f64) -> f64 {
        assert!(
            margin >= 0.0 && margin.is_finite(),
            "the engineering margin cannot be negative"
        );
        let nearest = self.value as f64;
        // `as` rounds to nearest: detect a round-down (possible from 2^53
        // cycles up) and take the next representable value instead.
        let base = if (nearest as u64) < self.value {
            f64::from_bits(nearest.to_bits() + 1)
        } else {
            nearest
        };
        base + (base * margin).ceil()
    }

    /// The WCET bound with the customary 20% margin.
    pub fn with_default_margin(&self) -> f64 {
        self.with_margin(DEFAULT_ENGINEERING_MARGIN)
    }

    /// The ratio of a pWCET estimate to this high-water mark (the metric of
    /// Figure 4(b): RM pWCET estimates stay within a few percent of the
    /// deterministic hwm).
    ///
    /// # Panics
    ///
    /// Panics if the high-water mark is zero.
    pub fn ratio_of(&self, pwcet: f64) -> f64 {
        assert!(
            self.value > 0,
            "cannot normalise against a zero high-water mark"
        );
        pwcet / self.value as f64
    }
}

impl fmt::Display for HighWaterMark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hwm {} cycles over {} observations (+20% margin: {:.0})",
            self.value,
            self.observations,
            self.with_default_margin()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_sample_maximum() {
        let sample = ExecutionSample::from_cycles(&[5, 9, 7]);
        let hwm = HighWaterMark::from_sample(&sample);
        assert_eq!(hwm.value(), 9);
        assert_eq!(hwm.observations(), 3);
    }

    #[test]
    fn margin_arithmetic() {
        let hwm = HighWaterMark::new(1000, 10);
        assert_eq!(hwm.with_margin(0.0), 1000.0);
        assert_eq!(hwm.with_margin(0.5), 1500.0);
        assert_eq!(hwm.with_default_margin(), 1200.0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_margin_panics() {
        HighWaterMark::new(1000, 1).with_margin(-0.1);
    }

    #[test]
    fn margin_rounds_up_to_whole_cycles() {
        // 999 * 0.1 = 99.9 cycles of margin: the bound charges 100.
        assert_eq!(HighWaterMark::new(999, 1).with_margin(0.1), 1099.0);
        assert_eq!(HighWaterMark::new(3, 1).with_margin(0.2), 4.0);
    }

    #[test]
    fn bound_never_shrinks_below_the_hwm_near_2_pow_53() {
        // (2^53 + 1) is the first u64 the f64 conversion rounds *down*;
        // the old `value as f64 * (1 + m)` returned a bound below the
        // observed high-water mark for margin 0.
        let value = (1u64 << 53) + 1;
        assert!(
            ((value as f64) as u64) < value,
            "test premise: conversion rounds down"
        );
        for margin in [0.0, 0.1, 0.2, 1.0] {
            let bound = HighWaterMark::new(value, 1).with_margin(margin);
            assert!(
                bound as u64 >= value,
                "bound {bound} shrank below hwm {value} at margin {margin}"
            );
        }
        // Exactly representable values stay exact.
        assert_eq!(
            HighWaterMark::new(1u64 << 53, 1).with_margin(0.0),
            (1u64 << 53) as f64
        );
    }

    #[test]
    fn ratio_of_pwcet() {
        let hwm = HighWaterMark::new(1000, 1);
        assert!((hwm.ratio_of(1070.0) - 1.07).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero high-water mark")]
    fn ratio_against_zero_panics() {
        HighWaterMark::new(0, 0).ratio_of(10.0);
    }

    #[test]
    fn display_mentions_margin() {
        let text = HighWaterMark::new(1000, 5).to_string();
        assert!(text.contains("1200"));
    }
}
