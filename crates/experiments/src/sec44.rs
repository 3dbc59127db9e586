//! Section 4.4 (text): average performance of Random Modulo versus
//! conventional modulo placement.
//!
//! The paper reports that RM's average execution time is only 1.6% worse
//! than modulo placement on average across the EEMBC suite, with a maximum
//! degradation of 8% — i.e. the MBPTA compliance comes at essentially no
//! average-performance cost.

use crate::cli::ExperimentOptions;
use crate::runner;
use crate::error::ExperimentError;
use randmod_core::{PlacementKind, ReplacementKind};
use randmod_sim::PlatformConfig;
use randmod_workloads::{EembcBenchmark, MemoryLayout, Workload};
use std::fmt;

/// One row of the average-performance comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgPerformanceRow {
    /// The benchmark.
    pub benchmark: EembcBenchmark,
    /// Mean execution time with RM placement (random replacement), cycles.
    pub rm_mean_cycles: f64,
    /// Execution time with modulo placement and LRU replacement, cycles.
    pub modulo_cycles: f64,
    /// Number of RM runs behind the mean (`--runs`, or the benchmark's
    /// runs-to-convergence count under `--adaptive`).
    pub rm_runs: usize,
    /// Whether the adaptive RM campaign converged before its run cap
    /// (`None` without `--adaptive`).
    pub rm_converged: Option<bool>,
}

impl AvgPerformanceRow {
    /// Relative degradation of RM over modulo (positive means RM is slower).
    pub fn degradation(&self) -> f64 {
        self.rm_mean_cycles / self.modulo_cycles - 1.0
    }
}

impl fmt::Display for AvgPerformanceRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<7}  RM mean {:>12.0}  modulo {:>12.0}  degradation {:>6.2}%",
            self.benchmark.label(),
            self.rm_mean_cycles,
            self.modulo_cycles,
            self.degradation() * 100.0
        )
    }
}

/// Summary over the rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgPerformanceSummary {
    /// Mean degradation across benchmarks (paper: 1.6%).
    pub mean_degradation: f64,
    /// Maximum degradation (paper: 8%).
    pub max_degradation: f64,
}

/// Computes the summary over the rows.
pub fn summarize(rows: &[AvgPerformanceRow]) -> AvgPerformanceSummary {
    let degradations: Vec<f64> = rows.iter().map(AvgPerformanceRow::degradation).collect();
    AvgPerformanceSummary {
        mean_degradation: degradations.iter().sum::<f64>() / degradations.len().max(1) as f64,
        max_degradation: degradations.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Computes one row: the benchmark's mean execution time over
/// `options.runs` RM runs against a single run on the conventional
/// deterministic platform.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn row_for(
    benchmark: EembcBenchmark,
    options: &ExperimentOptions,
) -> Result<AvgPerformanceRow, ExperimentError> {
    let rm_measurement = runner::measure_campaign(
        &benchmark,
        PlacementKind::RandomModulo,
        options,
        options.campaign_seed,
    )?;
    let rm_sample = &rm_measurement.sample;
    // The modulo baseline keeps random replacement (as the LEON-family
    // caches the paper builds on do), so the comparison isolates the effect
    // of the placement function; one run suffices per layout since modulo
    // placement ignores the seed and the replacement draws average out.
    let trace = benchmark.packed_trace(&MemoryLayout::default());
    let deterministic =
        PlatformConfig::leon3_deterministic().with_replacement(ReplacementKind::Random);
    let result = runner::campaign(deterministic, 0, 0, options.threads, options.lanes)
        .run_seeds(&trace, &[0])?;
    Ok(AvgPerformanceRow {
        benchmark,
        rm_mean_cycles: rm_sample.mean(),
        modulo_cycles: result.runs()[0].cycles as f64,
        rm_runs: rm_sample.len(),
        rm_converged: rm_measurement.adaptive.as_ref().map(|a| a.converged),
    })
}

/// Computes every row of the comparison.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn generate(options: &ExperimentOptions) -> Result<Vec<AvgPerformanceRow>, ExperimentError> {
    EembcBenchmark::ALL
        .iter()
        .map(|&benchmark| row_for(benchmark, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rm_average_performance_is_close_to_modulo_for_a_small_kernel() {
        let options = ExperimentOptions::default().with_runs(60).with_campaign_seed(4);
        let row = row_for(EembcBenchmark::Rspeed, &options).unwrap();
        assert_eq!(row.rm_runs, 60);
        assert_eq!(row.rm_converged, None);
        assert!(row.rm_mean_cycles > 0.0 && row.modulo_cycles > 0.0);
        // rspeed fits comfortably in the L1: RM should be within ~15% of
        // modulo even with a reduced run count.
        assert!(
            row.degradation().abs() < 0.15,
            "unexpected degradation: {row}"
        );
    }

    #[test]
    fn an_adaptive_row_records_the_convergence_outcome() {
        let options = ExperimentOptions::default()
            .with_campaign_seed(4)
            .with_adaptive()
            .with_max_runs(120);
        let row = row_for(EembcBenchmark::Rspeed, &options).unwrap();
        assert_eq!(row.rm_converged, Some(true));
        assert!(row.rm_runs <= 120);
    }

    #[test]
    fn summary_mean_and_max() {
        let rows = vec![
            AvgPerformanceRow {
                benchmark: EembcBenchmark::A2time,
                rm_mean_cycles: 102.0,
                modulo_cycles: 100.0,
                rm_runs: 60,
                rm_converged: None,
            },
            AvgPerformanceRow {
                benchmark: EembcBenchmark::Matrix,
                rm_mean_cycles: 108.0,
                modulo_cycles: 100.0,
                rm_runs: 60,
                rm_converged: None,
            },
        ];
        let summary = summarize(&rows);
        assert!((summary.mean_degradation - 0.05).abs() < 1e-12);
        assert!((summary.max_degradation - 0.08).abs() < 1e-12);
        assert!(rows[0].to_string().contains("a2time"));
    }
}
