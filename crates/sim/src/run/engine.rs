//! The solo protocols: the MBPTA seed sweep (a one-task co-schedule of the
//! contended worker pool) and the deterministic layout sweep, plus their
//! result types.

use super::schedule::scoped_chunks;
use super::Campaign;
use crate::batch::BatchCore;
use crate::hierarchy::HierarchyStats;
use crate::trace::EventSource;
use randmod_core::ConfigError;
use std::fmt;

/// The outcome of one run of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// The placement seed installed for this run (or the layout index for a
    /// deterministic sweep).
    pub seed: u64,
    /// End-to-end execution time in cycles.
    pub cycles: u64,
    /// Per-level cache statistics of the run.
    pub stats: HierarchyStats,
}

/// The collected results of a measurement campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignResult {
    runs: Vec<RunResult>,
}

impl CampaignResult {
    /// Creates a result from individual runs.
    pub fn from_runs(runs: Vec<RunResult>) -> Self {
        CampaignResult { runs }
    }

    /// The individual runs, in campaign order.
    pub fn runs(&self) -> &[RunResult] {
        &self.runs
    }

    /// Consumes the result, keeping the runs (the inverse of
    /// [`Self::from_runs`]).
    pub fn into_runs(self) -> Vec<RunResult> {
        self.runs
    }

    /// The execution times, in campaign order (the input MBPTA consumes).
    pub fn cycles(&self) -> Vec<u64> {
        self.cycles_iter().collect()
    }

    /// Iterates the execution times in campaign order without allocating
    /// an intermediate `Vec` (feed it straight into
    /// `ExecutionSample::from_cycles_iter`).
    pub fn cycles_iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().map(|r| r.cycles)
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the campaign produced no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Arithmetic mean of the execution times (0 for an empty campaign).
    pub fn mean_cycles(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.runs.iter().map(|r| r.cycles as f64).sum::<f64>() / self.runs.len() as f64
        }
    }

    /// Largest observed execution time (the high-water mark).
    pub fn max_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).max().unwrap_or(0)
    }

    /// Smallest observed execution time.
    pub fn min_cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).min().unwrap_or(0)
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs: min {}, mean {:.0}, max {} cycles",
            self.len(),
            self.min_cycles(),
            self.mean_cycles(),
            self.max_cycles()
        )
    }
}

impl Campaign {
    /// Runs the MBPTA measurement protocol: replay `source` once per run,
    /// with a fresh placement seed installed (and caches flushed) before
    /// each run.  Accepts any [`EventSource`] — `&Trace`, `&PackedTrace`,
    /// or an event slice.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the platform configuration is invalid.
    pub fn run<S>(&self, source: &S) -> Result<CampaignResult, ConfigError>
    where
        S: EventSource + ?Sized,
    {
        self.config.validate()?;
        self.run_seeds_validated(source, &self.seed_schedule())
    }

    /// Runs the program once for every provided seed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the platform configuration is invalid.
    pub fn run_seeds<S>(&self, source: &S, seeds: &[u64]) -> Result<CampaignResult, ConfigError>
    where
        S: EventSource + ?Sized,
    {
        self.config.validate()?;
        self.run_seeds_validated(source, seeds)
    }

    /// The seed sweep: the one-task case of the contended worker pool,
    /// whose idle-co-schedule route replays a lone task at the full
    /// [`Campaign::lanes`] width.  The configuration is already validated
    /// by the public entry points (exactly once per campaign).
    pub(super) fn run_seeds_validated<S>(
        &self,
        source: &S,
        seeds: &[u64],
    ) -> Result<CampaignResult, ConfigError>
    where
        S: EventSource + ?Sized,
    {
        Ok(self
            .run_contended_validated(&[source], seeds)?
            .victim_result())
    }

    /// Runs the deterministic-platform protocol of Figure 4(b) in streaming
    /// form: `build(i)` produces the trace of the `i`-th memory layout, and
    /// each worker thread holds at most one layout's trace alive at a time
    /// — the sweep's memory footprint does not grow with the number of
    /// layouts.  Each layout replays as a one-task, one-lane [`BatchCore`]
    /// wave under seed 0, streamed straight from its trace (no per-layout
    /// schedule is built).  The result's `seed` field records the layout
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the platform configuration is invalid.
    pub fn run_layout_sweep_with<S, F>(
        &self,
        layouts: usize,
        build: F,
    ) -> Result<CampaignResult, ConfigError>
    where
        S: EventSource,
        F: Fn(usize) -> S + Sync,
    {
        self.config.validate()?;
        let config = self.config;
        let indices: Vec<usize> = (0..layouts).collect();
        let runs = scoped_chunks(&indices, self.threads, |chunk| {
            let mut core = BatchCore::new(&config, 1, 1)?;
            let mut out = Vec::with_capacity(chunk.len());
            for &index in chunk {
                let layout_trace = build(index);
                for (cycles, stats) in core.execute_batch(layout_trace.events(), &[0]) {
                    out.push(RunResult {
                        seed: index as u64,
                        cycles,
                        stats,
                    });
                }
            }
            Ok(out)
        })?;
        Ok(CampaignResult::from_runs(runs))
    }
}
