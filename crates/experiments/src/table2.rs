//! Table 2: MBPTA-compliance (i.i.d.) tests for the EEMBC benchmarks under
//! Random Modulo.
//!
//! The paper runs every EEMBC benchmark 1,000 times with a fresh seed per
//! run, RM in the L1 caches and hRP in the L2, and applies the
//! Wald–Wolfowitz independence test and the two-sample Kolmogorov–Smirnov
//! identical-distribution test; all benchmarks pass (WW < 1.96,
//! KS p ≥ 0.05).  This experiment reproduces the table and additionally
//! reports the ET (Gumbel convergence) test the paper mentions in the text.

use crate::cli::ExperimentOptions;
use crate::runner;
use crate::error::ExperimentError;
use randmod_core::PlacementKind;
use randmod_workloads::EembcBenchmark;
use std::fmt;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The benchmark.
    pub benchmark: EembcBenchmark,
    /// Wald–Wolfowitz statistic (pass when below 1.96).
    pub ww_statistic: f64,
    /// Two-sample KS p-value (pass when at or above 0.05).
    pub ks_p_value: f64,
    /// ET test p-value (Gumbel convergence of the tail).
    pub et_p_value: f64,
    /// Whether both Table-2 tests passed.
    pub passed: bool,
    /// Number of runs behind the row (`--runs`, or the benchmark's
    /// runs-to-convergence count under `--adaptive`).
    pub runs: usize,
    /// Whether the adaptive campaign converged before its run cap
    /// (`None` without `--adaptive`).
    pub converged: Option<bool>,
}

impl fmt::Display for Table2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>2}  WW {:>5.2}  KS {:>5.2}  ET {:>5.2}  {}",
            self.benchmark.initials(),
            self.ww_statistic,
            self.ks_p_value,
            self.et_p_value,
            if self.passed { "pass" } else { "FAIL" }
        )
    }
}

/// Runs the Table 2 campaign: every EEMBC benchmark, `options.runs` runs,
/// RM in the L1 caches.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn generate(options: &ExperimentOptions) -> Result<Vec<Table2Row>, ExperimentError> {
    EembcBenchmark::ALL
        .iter()
        .map(|&benchmark| row_for(benchmark, options))
        .collect()
}

/// Computes one row of Table 2.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn row_for(
    benchmark: EembcBenchmark,
    options: &ExperimentOptions,
) -> Result<Table2Row, ExperimentError> {
    let measurement = runner::measure_campaign(
        &benchmark,
        PlacementKind::RandomModulo,
        options,
        options.campaign_seed ^ benchmark.initials().as_bytes()[0] as u64,
    )?;
    let report = runner::analyze_measurement(&measurement);
    Ok(Table2Row {
        benchmark,
        ww_statistic: report.ww.statistic,
        ks_p_value: report.ks.p_value,
        et_p_value: report.et.p_value,
        passed: report.ww.passed() && report.ks.passed(),
        runs: measurement.sample.len(),
        converged: measurement.adaptive.map(|a| a.converged),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_benchmark_row_passes_the_iid_tests() {
        // A reduced-run sanity check on one benchmark; the full table is
        // exercised by the integration tests and the experiment binary.
        let options = ExperimentOptions::default().with_runs(150).with_campaign_seed(3);
        let row = row_for(EembcBenchmark::A2time, &options).unwrap();
        assert_eq!(row.runs, 150);
        assert_eq!(row.converged, None);
        assert!(row.ww_statistic.is_finite());
        assert!(row.passed, "{row}");
        assert!(row.to_string().contains("A2"));
    }

    #[test]
    fn an_adaptive_row_records_runs_to_convergence() {
        // A low-variance benchmark under RM converges at the criterion
        // floor instead of paying the full fixed-run schedule.
        let options = ExperimentOptions::default()
            .with_campaign_seed(3)
            .with_adaptive()
            .with_max_runs(300);
        let row = row_for(EembcBenchmark::A2time, &options).unwrap();
        assert_eq!(row.converged, Some(true));
        assert!(
            row.runs < 300,
            "expected convergence below the cap, used {} runs",
            row.runs
        );
    }
}
