//! Figure 4: pWCET estimates of Random Modulo versus hash-based random
//! placement (a) and versus the deterministic high-water-mark practice (b).
//!
//! Figure 4(a): for every EEMBC benchmark, the pWCET at an exceedance
//! probability of 10⁻¹⁵ is computed for two hardware setups — IL1/DL1 with
//! hRP, and IL1/DL1 with RM (the L2 keeps hRP in both) — and the RM value is
//! normalised to the hRP one.  The paper reports RM pWCETs 25–62% tighter,
//! 43% on average.
//!
//! Figure 4(b): the RM pWCET is normalised to the high-water mark obtained
//! on a fully deterministic platform (modulo placement, LRU) across a sweep
//! of memory layouts.  The paper reports RM pWCETs never more than 7% above
//! the hwm, and below 1% for most benchmarks.

use crate::cli::ExperimentOptions;
use crate::error::ExperimentError;
use crate::runner;
use randmod_core::PlacementKind;
use randmod_mbpta::HighWaterMark;
use randmod_workloads::EembcBenchmark;
use std::fmt;

/// The exceedance probability used by Figure 4 (valid for the highest
/// criticality levels in automotive and avionics).
pub const CUTOFF_PROBABILITY: f64 = 1e-15;

/// Number of memory layouts swept on the deterministic platform for
/// Figure 4(b).
pub const FIG4B_LAYOUTS: usize = 32;

/// Reduced layout-sweep size used under `--quick`.
pub const FIG4B_QUICK_LAYOUTS: usize = 8;

/// The Figure 4(b) layout-sweep size for the given mode, shared by the
/// `fig4b_rm_vs_det` and `run_all` binaries.
pub fn fig4b_layouts(quick: bool) -> usize {
    if quick {
        FIG4B_QUICK_LAYOUTS
    } else {
        FIG4B_LAYOUTS
    }
}

/// One bar of Figure 4(a).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4aRow {
    /// The benchmark.
    pub benchmark: EembcBenchmark,
    /// pWCET at 10⁻¹⁵ with RM in the L1 caches.
    pub pwcet_rm: f64,
    /// pWCET at 10⁻¹⁵ with hRP in the L1 caches.
    pub pwcet_hrp: f64,
}

impl Fig4aRow {
    /// RM pWCET normalised to hRP (below 1.0 means RM is tighter).
    pub fn normalized(&self) -> f64 {
        self.pwcet_rm / self.pwcet_hrp
    }

    /// The relative tightening RM achieves over hRP (the quantity the paper
    /// reports as "X% tighter").
    pub fn tightening(&self) -> f64 {
        1.0 - self.normalized()
    }
}

impl fmt::Display for Fig4aRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<7}  RM {:>12.0}  hRP {:>12.0}  RM/hRP {:>5.2}  ({:>4.1}% tighter)",
            self.benchmark.label(),
            self.pwcet_rm,
            self.pwcet_hrp,
            self.normalized(),
            self.tightening() * 100.0
        )
    }
}

/// One bar of Figure 4(b).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4bRow {
    /// The benchmark.
    pub benchmark: EembcBenchmark,
    /// pWCET at 10⁻¹⁵ with RM in the L1 caches.
    pub pwcet_rm: f64,
    /// High-water mark on the deterministic platform across the layout
    /// sweep.
    pub deterministic_hwm: HighWaterMark,
}

impl Fig4bRow {
    /// RM pWCET normalised to the deterministic high-water mark.
    pub fn normalized(&self) -> f64 {
        self.deterministic_hwm.ratio_of(self.pwcet_rm)
    }
}

impl fmt::Display for Fig4bRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<7}  RM pWCET {:>12.0}  det. hwm {:>12}  ratio {:>5.3}",
            self.benchmark.label(),
            self.pwcet_rm,
            self.deterministic_hwm.value(),
            self.normalized()
        )
    }
}

/// Summary statistics over the Figure 4(a) rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4aSummary {
    /// Mean tightening across benchmarks (the paper reports 43%).
    pub mean_tightening: f64,
    /// Largest tightening (the paper reports 62%, for a2time).
    pub max_tightening: f64,
    /// Smallest tightening (the paper reports 25%, for pntrch).
    pub min_tightening: f64,
}

/// Computes the Figure 4(a) summary from its rows.
pub fn summarize_fig4a(rows: &[Fig4aRow]) -> Fig4aSummary {
    let tightenings: Vec<f64> = rows.iter().map(Fig4aRow::tightening).collect();
    let mean = tightenings.iter().sum::<f64>() / tightenings.len().max(1) as f64;
    Fig4aSummary {
        mean_tightening: mean,
        max_tightening: tightenings
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max),
        min_tightening: tightenings.iter().cloned().fold(f64::INFINITY, f64::min),
    }
}

/// Computes one Figure 4(a) row.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn fig4a_row(
    benchmark: EembcBenchmark,
    options: &ExperimentOptions,
) -> Result<Fig4aRow, ExperimentError> {
    let seed = options.campaign_seed ^ (benchmark.initials().as_bytes()[1] as u64) << 8;
    let rm = runner::measure_campaign(&benchmark, PlacementKind::RandomModulo, options, seed)?;
    let hrp = runner::measure_campaign(&benchmark, PlacementKind::HashRandom, options, seed)?;
    Ok(Fig4aRow {
        benchmark,
        pwcet_rm: runner::analyze_measurement(&rm).pwcet_at(CUTOFF_PROBABILITY),
        pwcet_hrp: runner::analyze_measurement(&hrp).pwcet_at(CUTOFF_PROBABILITY),
    })
}

/// Computes every Figure 4(a) row.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn fig4a(options: &ExperimentOptions) -> Result<Vec<Fig4aRow>, ExperimentError> {
    EembcBenchmark::ALL
        .iter()
        .map(|&benchmark| fig4a_row(benchmark, options))
        .collect()
}

/// Computes one Figure 4(b) row, using `layouts` memory layouts for the
/// deterministic sweep.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn fig4b_row(
    benchmark: EembcBenchmark,
    layouts: usize,
    options: &ExperimentOptions,
) -> Result<Fig4bRow, ExperimentError> {
    let seed = options.campaign_seed ^ (benchmark.initials().as_bytes()[0] as u64) << 16;
    let rm = runner::measure_campaign(&benchmark, PlacementKind::RandomModulo, options, seed)?;
    let det_sample = runner::measure_deterministic_sweep(&benchmark, layouts, options.threads)?;
    Ok(Fig4bRow {
        benchmark,
        pwcet_rm: runner::analyze_measurement(&rm).pwcet_at(CUTOFF_PROBABILITY),
        deterministic_hwm: HighWaterMark::from_sample(&det_sample),
    })
}

/// Computes every Figure 4(b) row.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid
/// or a stored measurement fails.
pub fn fig4b(
    layouts: usize,
    options: &ExperimentOptions,
) -> Result<Vec<Fig4bRow>, ExperimentError> {
    EembcBenchmark::ALL
        .iter()
        .map(|&benchmark| fig4b_row(benchmark, layouts, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_row_shows_rm_no_worse_than_hrp_for_a_cache_stressing_benchmark() {
        // cacheb stresses the caches the most, where the RM advantage is
        // clearest even with a reduced run count.
        let options = ExperimentOptions::default()
            .with_runs(120)
            .with_campaign_seed(5);
        let row = fig4a_row(EembcBenchmark::Cacheb, &options).unwrap();
        assert!(row.pwcet_rm > 0.0 && row.pwcet_hrp > 0.0);
        assert!(
            row.normalized() < 1.05,
            "RM pWCET should not be meaningfully above hRP: {row}"
        );
    }

    #[test]
    fn fig4b_row_ratio_is_close_to_one() {
        let options = ExperimentOptions::default()
            .with_runs(120)
            .with_campaign_seed(5);
        let row = fig4b_row(EembcBenchmark::Rspeed, 8, &options).unwrap();
        assert!(row.deterministic_hwm.value() > 0);
        // RM pWCET should be within a few tens of percent of the
        // deterministic hwm even with reduced runs.
        assert!(row.normalized() > 0.8 && row.normalized() < 1.5, "{row}");
    }

    #[test]
    fn summary_computes_mean_and_extremes() {
        let rows = vec![
            Fig4aRow {
                benchmark: EembcBenchmark::A2time,
                pwcet_rm: 40.0,
                pwcet_hrp: 100.0,
            },
            Fig4aRow {
                benchmark: EembcBenchmark::Pntrch,
                pwcet_rm: 80.0,
                pwcet_hrp: 100.0,
            },
        ];
        let summary = summarize_fig4a(&rows);
        assert!((summary.mean_tightening - 0.4).abs() < 1e-12);
        assert!((summary.max_tightening - 0.6).abs() < 1e-12);
        assert!((summary.min_tightening - 0.2).abs() < 1e-12);
        assert!(rows[0].to_string().contains("a2time"));
    }
}
