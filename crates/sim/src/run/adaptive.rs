//! The convergence-driven campaign drivers: grow the seed schedule until
//! the pWCET estimate stabilises, instead of executing a fixed run count.
//!
//! Both adaptive protocols (solo and contended) share one schedule loop,
//! so their stopping semantics — floor, checkpoint cadence, run cap,
//! finalize — are identical by construction; each one's collected runs
//! are a bit-identical prefix of the corresponding fixed-size campaign.

use super::{Campaign, CampaignResult, ContendedResult};
use crate::trace::EventSource;
use randmod_core::prng::SeedSequence;
use randmod_core::ConfigError;
use randmod_mbpta::online::{ConvergenceCheckpoint, ConvergenceCriterion, ConvergenceTracker};
use std::fmt;

/// The outcome of an adaptive contended campaign: the collected runs plus
/// the convergence trajectory of the victim's pWCET estimate.  Produced by
/// [`Campaign::run_contended_adaptive`].
#[derive(Debug, Clone, PartialEq)]
pub struct ContendedAdaptiveResult {
    result: ContendedResult,
    trajectory: Vec<ConvergenceCheckpoint>,
    converged: bool,
    pwcet_estimate: f64,
}

impl ContendedAdaptiveResult {
    /// The collected runs, exactly as a fixed-size contended campaign over
    /// the same seed prefix would have produced them.
    pub fn result(&self) -> &ContendedResult {
        &self.result
    }

    /// Number of runs the campaign needed.
    pub fn runs_used(&self) -> usize {
        self.result.len()
    }

    /// Whether the stopping rule was met before the run cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The checkpoint history of the convergence loop, oldest first.
    pub fn trajectory(&self) -> &[ConvergenceCheckpoint] {
        &self.trajectory
    }

    /// The final victim pWCET estimate at the criterion's target
    /// probability.
    pub fn pwcet_estimate(&self) -> f64 {
        self.pwcet_estimate
    }
}

/// The outcome of an adaptive (convergence-driven) measurement campaign:
/// the collected runs plus the convergence trajectory that decided when to
/// stop.  Produced by [`Campaign::run_adaptive`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveResult {
    result: CampaignResult,
    trajectory: Vec<ConvergenceCheckpoint>,
    converged: bool,
    pwcet_estimate: f64,
}

impl AdaptiveResult {
    /// The collected runs, exactly as a fixed-size campaign over the same
    /// seed prefix would have produced them.
    pub fn result(&self) -> &CampaignResult {
        &self.result
    }

    /// Number of runs the campaign needed (the runs-to-convergence count,
    /// or the cap when the estimate never stabilised).
    pub fn runs_used(&self) -> usize {
        self.result.len()
    }

    /// Whether the stopping rule was met before the run cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The checkpoint history of the convergence loop, oldest first.
    pub fn trajectory(&self) -> &[ConvergenceCheckpoint] {
        &self.trajectory
    }

    /// The final pWCET estimate at the criterion's target probability.
    pub fn pwcet_estimate(&self) -> f64 {
        self.pwcet_estimate
    }
}

impl fmt::Display for AdaptiveResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} runs ({} checkpoints): pWCET estimate {:.0} cycles",
            if self.converged {
                "converged"
            } else {
                "run cap reached"
            },
            self.runs_used(),
            self.trajectory.len(),
            self.pwcet_estimate
        )
    }
}

impl Campaign {
    /// The shared convergence-loop driver of [`Self::run_adaptive`] and
    /// [`Self::run_contended_adaptive`]: draws seeds from this campaign's
    /// [`SeedSequence`], executes them in checkpoint-sized batches through
    /// `execute`, and feeds `cycles_of` of every produced run to the
    /// tracker.  One implementation keeps the two protocols' stopping
    /// semantics (floor, cadence, cap, finalize) identical by
    /// construction — both bit-identical-prefix guarantees depend on it.
    fn run_adaptive_schedule<R>(
        &self,
        criterion: &ConvergenceCriterion,
        mut execute: impl FnMut(&[u64]) -> Result<Vec<R>, ConfigError>,
        cycles_of: impl Fn(&R) -> u64,
    ) -> Result<(Vec<R>, ConvergenceTracker), ConfigError> {
        let mut tracker = ConvergenceTracker::new(*criterion);
        let max_runs = criterion.max_runs.max(1);
        let mut seeds = SeedSequence::new(self.campaign_seed);
        let mut runs: Vec<R> = Vec::new();
        // First batch: everything up to the criterion's floor (the first
        // possible checkpoint); afterwards one checkpoint interval at a
        // time.
        let mut planned = criterion.min_runs.max(1).min(max_runs);
        loop {
            let batch: Vec<u64> = seeds.by_ref().take(planned - runs.len()).collect();
            let batch_runs = execute(&batch)?;
            for run in &batch_runs {
                tracker.push(cycles_of(run));
            }
            // An engine may legitimately produce nothing (a contended
            // campaign with no sources); stop rather than spin.
            let produced = batch_runs.len();
            runs.extend(batch_runs);
            if tracker.is_converged() || runs.len() >= max_runs || produced == 0 {
                break;
            }
            planned = (runs.len() + criterion.check_interval.max(1)).min(max_runs);
        }
        // Make sure the trajectory ends with an estimate over the full
        // sample (the cap can land between checkpoints).
        tracker.finalize();
        Ok((runs, tracker))
    }

    /// Convergence-driven contended campaign: grows the seed schedule (in
    /// the same deterministic [`SeedSequence`] order as [`Self::run`])
    /// until the *victim's* pWCET estimate stabilises under `criterion`,
    /// mirroring [`Self::run_adaptive`] for the shared-L2 platform.  The
    /// collected runs are a bit-identical prefix of a fixed-size
    /// [`Self::run_contended`] schedule with the same campaign seed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the platform configuration is invalid.
    ///
    /// # Panics
    ///
    /// Panics if the criterion is malformed (see
    /// [`ConvergenceTracker::new`]).
    pub fn run_contended_adaptive<S>(
        &self,
        sources: &[S],
        criterion: &ConvergenceCriterion,
    ) -> Result<ContendedAdaptiveResult, ConfigError>
    where
        S: EventSource,
    {
        self.config.validate()?;
        let (runs, tracker) = self.run_adaptive_schedule(
            criterion,
            |batch| {
                self.run_contended_validated(sources, batch)
                    .map(ContendedResult::into_runs)
            },
            |run| run.tasks.first().map_or(0, |victim| victim.cycles),
        )?;
        Ok(ContendedAdaptiveResult {
            result: ContendedResult::from_runs(runs),
            converged: tracker.is_converged(),
            pwcet_estimate: tracker.current_estimate(),
            trajectory: tracker.trajectory().to_vec(),
        })
    }

    /// Runs the convergence-driven variant of the MBPTA protocol: the seed
    /// schedule grows in batches until `criterion` declares the pWCET
    /// estimate stable (or its run cap is hit), instead of executing a
    /// fixed run count.
    ///
    /// Seeds are drawn in the same deterministic order as [`Self::run`],
    /// and each batch goes through the same seed-batched worker pool
    /// ([`crate::batch::BatchCore`] lanes across threads), so an adaptive
    /// campaign's first `N` runs are **bit-identical** to `run_seeds` with
    /// the first `N` seeds of the campaign's [`SeedSequence`] — the
    /// adaptive engine only chooses where the schedule *stops*, never what
    /// any run computes.  The tracker is fed between batches, so the
    /// campaign can overshoot the exact convergence run by at most one
    /// checkpoint interval's worth of runs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the platform configuration is invalid.
    ///
    /// # Panics
    ///
    /// Panics if the criterion is malformed (see
    /// [`ConvergenceTracker::new`]).
    pub fn run_adaptive<S>(
        &self,
        source: &S,
        criterion: &ConvergenceCriterion,
    ) -> Result<AdaptiveResult, ConfigError>
    where
        S: EventSource + ?Sized,
    {
        self.config.validate()?;
        let (runs, tracker) = self.run_adaptive_schedule(
            criterion,
            |batch| {
                self.run_seeds_validated(source, batch)
                    .map(CampaignResult::into_runs)
            },
            |run| run.cycles,
        )?;
        Ok(AdaptiveResult {
            result: CampaignResult::from_runs(runs),
            converged: tracker.is_converged(),
            pwcet_estimate: tracker.current_estimate(),
            trajectory: tracker.trajectory().to_vec(),
        })
    }
}
