//! The contended (multi-task, shared-L2) campaign protocol and its result
//! types, and the one worker pool every MBPTA seed sweep runs on.
//!
//! [`Campaign::run_contended`] replays its co-schedule on the lane engine
//! ([`BatchCore`]) by one route: the round-robin schedule is
//! seed-independent, so it is computed once per campaign, shared read-only
//! across worker threads and replayed across placement-seed lanes at the
//! [`Campaign::lanes`] width (`with_lanes(1)` just makes every wave one
//! lane wide).  A solo campaign ([`Campaign::run_seeds`]) is the one-task
//! co-schedule, and an idle co-schedule replays its victim as that one
//! task while the idle tasks get zero runs.
//!
//! Every width and thread count produces a bit-identical
//! [`ContendedResult`] — pinned by the `contention_equivalence` suite, the
//! differential reference model and the unit grid tests.

use super::schedule::scoped_chunks;
use super::{Campaign, CampaignResult, RunResult};
use crate::batch::BatchCore;
use crate::contention::ContendedSchedule;
use crate::hierarchy::HierarchyStats;
use crate::trace::EventSource;
use randmod_core::ConfigError;
use std::fmt;

/// One task's share of a contended run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRun {
    /// The task's end-to-end execution time in cycles.
    pub cycles: u64,
    /// The task's own view of the hierarchy: its private L1s plus its
    /// share of the shared-L2 traffic.
    pub stats: HierarchyStats,
}

/// One run of a contended campaign: the seed plus every task's outcome,
/// task 0 (the victim) first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContendedRun {
    /// The placement seed installed for this run.
    pub seed: u64,
    /// Per-task outcomes, in task order.
    pub tasks: Vec<TaskRun>,
}

impl ContendedRun {
    /// The aggregate hierarchy view of the run (per-task stats summed; the
    /// L2 half is the shared partition's total traffic).
    pub fn aggregate_stats(&self) -> HierarchyStats {
        self.tasks
            .iter()
            .fold(HierarchyStats::default(), |acc, task| {
                acc.merged(task.stats)
            })
    }
}

/// The collected results of a contended (multi-task, shared-L2)
/// measurement campaign.  Produced by [`Campaign::run_contended`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContendedResult {
    runs: Vec<ContendedRun>,
}

impl ContendedResult {
    /// Creates a result from individual contended runs.
    pub fn from_runs(runs: Vec<ContendedRun>) -> Self {
        ContendedResult { runs }
    }

    /// The individual runs, in campaign order.
    pub fn runs(&self) -> &[ContendedRun] {
        &self.runs
    }

    /// Consumes the result, keeping the runs (the inverse of
    /// [`Self::from_runs`]).
    pub fn into_runs(self) -> Vec<ContendedRun> {
        self.runs
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the campaign produced no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of tasks per run (0 for an empty campaign).
    pub fn task_count(&self) -> usize {
        self.runs.first().map_or(0, |run| run.tasks.len())
    }

    /// Iterates one task's execution times in campaign order (task 0 is
    /// the victim — the sample MBPTA consumes).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range for a non-empty campaign.
    pub fn task_cycles_iter(&self, task: usize) -> impl Iterator<Item = u64> + '_ {
        // randmod: allow(P1, the documented Panics contract: callers index by task_count(), and every run carries the same task vector by construction)
        self.runs.iter().map(move |run| run.tasks[task].cycles)
    }

    /// Iterates the per-run cycles of every task in run-major order
    /// (`run0·task0, run0·task1, …, run1·task0, …`) — the flat layout
    /// `randmod_mbpta`'s per-task sample extraction splits back apart.
    pub fn flat_cycles_iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs
            .iter()
            .flat_map(|run| run.tasks.iter().map(|t| t.cycles))
    }

    /// The victim's (task 0's) runs as a single-task [`CampaignResult`],
    /// for code written against the solo campaign API.
    pub fn victim_result(&self) -> CampaignResult {
        CampaignResult::from_runs(
            self.runs
                .iter()
                .filter_map(|run| {
                    let victim = run.tasks.first()?;
                    Some(RunResult {
                        seed: run.seed,
                        cycles: victim.cycles,
                        stats: victim.stats,
                    })
                })
                .collect(),
        )
    }
}

impl fmt::Display for ContendedResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} contended runs x {} tasks: victim max {} cycles",
            self.len(),
            self.task_count(),
            self.runs
                .iter()
                .filter_map(|run| run.tasks.first().map(|t| t.cycles))
                .max()
                .unwrap_or(0)
        )
    }
}

impl Campaign {
    /// Runs the contended (multi-task, shared-L2) MBPTA protocol: every
    /// seed executes one run of `sources[0]` (the victim) co-scheduled
    /// against `sources[1..]` (the opponents) in front of one shared L2,
    /// under round-robin arbitration.  Runs are distributed over the same
    /// worker thread pool as [`Self::run_seeds`]; each run is a pure
    /// function of its seed, so results are thread-invariant.
    ///
    /// **Idle co-schedule**: when every opponent trace is empty, the
    /// victim replays as the one task of the schedule, exactly as
    /// [`Self::run_seeds`] replays it, and the idle tasks get zero runs —
    /// so a solo contended campaign is *bit-identical* to the single-task
    /// protocol (and runs at its throughput).
    ///
    /// The interleaved co-schedule never depends on the placement seed, so
    /// it is computed once per campaign ([`ContendedSchedule::round_robin`])
    /// and replayed across placement-seed lanes — [`Self::lanes`] per
    /// schedule pass, as a solo campaign steps them — by a [`BatchCore`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the platform configuration is invalid.
    pub fn run_contended<S>(
        &self,
        sources: &[S],
        seeds: &[u64],
    ) -> Result<ContendedResult, ConfigError>
    where
        S: EventSource,
    {
        self.config.validate()?;
        self.run_contended_validated(sources, seeds)
    }

    /// [`Self::run_contended`] over this campaign's default seed schedule
    /// — the same `runs`-long `SeedSequence` draw as [`Self::run`], so a
    /// solo co-schedule reproduces `run()` bit for bit and a fixed
    /// contended campaign is the documented superset of
    /// [`Self::run_contended_adaptive`]'s prefix.  The schedule convention
    /// lives here, in one place, rather than in every caller.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the platform configuration is invalid.
    pub fn run_contended_campaign<S>(&self, sources: &[S]) -> Result<ContendedResult, ConfigError>
    where
        S: EventSource,
    {
        self.config.validate()?;
        self.run_contended_validated(sources, &self.seed_schedule())
    }

    /// The worker pool of every MBPTA seed sweep, solo and contended; the
    /// configuration is already validated by the public entry points.
    pub(super) fn run_contended_validated<S>(
        &self,
        sources: &[S],
        seeds: &[u64],
    ) -> Result<ContendedResult, ConfigError>
    where
        S: EventSource,
    {
        let Some((victim, opponents)) = sources.split_first() else {
            return Ok(ContendedResult::default());
        };
        if seeds.is_empty() {
            return Ok(ContendedResult::default());
        }
        // Idle co-schedule: no opponent emits an event, so the victim
        // replays alone and the idle tasks are padded with zero runs.
        let active = if opponents.iter().all(|s| s.events().next().is_none()) {
            std::slice::from_ref(victim)
        } else {
            sources
        };
        let (tasks, padded) = (active.len(), sources.len());
        // The round-robin schedule is a pure function of the traces:
        // interleave (and run-collapse) once, then replay it across
        // placement-seed lanes, shared read-only across the workers.
        let schedule = ContendedSchedule::round_robin(
            &self.config,
            tasks,
            active.iter().map(|s| s.events()).collect(),
        );
        let runs = scoped_chunks(seeds, self.threads, |chunk| {
            let mut core = BatchCore::new(&self.config, tasks, self.lanes.min(chunk.len()))?;
            let mut out = Vec::with_capacity(chunk.len());
            for group in chunk.chunks(core.lane_count()) {
                let lane_results = core.execute_schedule(&schedule, group);
                out.extend(contended_runs(group, lane_results, padded));
            }
            Ok(out)
        })?;
        Ok(ContendedResult::from_runs(runs))
    }
}

/// Pairs each seed of one lane group with its per-task `(cycles, stats)`
/// results, as [`BatchCore::execute_schedule`] returns them, padded with
/// zero runs up to `tasks` (the idle tasks of an idle co-schedule).
fn contended_runs(
    seeds: &[u64],
    lane_results: Vec<Vec<(u64, HierarchyStats)>>,
    tasks: usize,
) -> impl Iterator<Item = ContendedRun> + '_ {
    let idle = TaskRun {
        cycles: 0,
        stats: HierarchyStats::default(),
    };
    seeds
        .iter()
        .zip(lane_results)
        .map(move |(&seed, task_results)| {
            let mut runs: Vec<TaskRun> = task_results
                .into_iter()
                .map(|(cycles, stats)| TaskRun { cycles, stats })
                .collect();
            runs.resize(tasks, idle);
            ContendedRun { seed, tasks: runs }
        })
}
