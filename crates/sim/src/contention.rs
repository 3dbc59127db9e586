//! Multi-task contention on a shared L2 partition.
//!
//! The paper's single-core model gives every task a private L2 partition,
//! which is the configuration MBPTA likes best — and the one real
//! multicores rarely ship.  This module adds the harder platform: `K`
//! tasks, each with its own private IL1/DL1 pair and its own in-order
//! core, all in front of **one shared L2**.  Opponent tasks evict the
//! victim's L2 lines, so the victim's execution-time distribution inflates
//! with co-runner pressure — the scenario the `fig6_contention` experiment
//! sweeps per placement policy.
//!
//! A [`ContendedSchedule`] interleaves the K task traces event by event
//! under a deterministic [`Arbitration`] policy:
//!
//! * [`Arbitration::RoundRobin`] — tasks take turns in index order,
//!   skipping exhausted traces;
//! * [`Arbitration::SeededRandom`] — each step picks a uniformly random
//!   ready task from a [`SplitMix64`](randmod_core::prng::SplitMix64)
//!   stream derived from the run seed.
//!
//! Both are pure functions of `(traces, run seed)`: no wall-clock, no
//! thread scheduling, no global state.  Replaying the same co-schedule
//! under the same seed reproduces every interleaving decision, every cache
//! state and every cycle count bit-for-bit, which is what lets
//! [`crate::run::Campaign::run_contended`] parallelise contended runs
//! across threads without changing any result.
//!
//! Timing model: each task runs on its own core, so per-task cycle counts
//! advance independently (there is no bus arbitration stall in this
//! model); the contention effect is carried entirely by the shared L2
//! state — extra victim misses caused by opponent fills.  The
//! interleaving granularity is one trace event per arbitration step.
//!
//! **One engine.**  [`crate::batch::BatchCore`] replays a schedule across up to `K`
//! placement-seed lanes per pass, whatever its task count; a solo
//! campaign is the one-task schedule.  A round-robin schedule never
//! consults the placement seed, so [`ContendedSchedule::round_robin`]
//! builds it once per campaign and every lane group replays it; a
//! seeded-random schedule is drawn per run
//! ([`ContendedSchedule::seeded_random`]) and replays as a one-lane wave.
//! The naive `RefContentionCore` of the reference-model suite pins both
//! against an independent implementation.
//!
//! **Solo-task equivalence.**  A contended run with one task and idle
//! (empty-trace) opponents reproduces the one-task run exactly: per lane,
//! the seed→layout derivation draws the victim's IL1, DL1 and the L2
//! seeds first, whatever the task count, and idle tasks emit no events.
//! `tests/contention_equivalence.rs` pins this bit-identity against
//! `BatchCore::execute_batch` and `Campaign::run_seeds`.

use crate::config::PlatformConfig;
use crate::lanes::{interleave, Op};
use crate::trace::MemEvent;
use randmod_core::ConfigError;
use std::fmt;
use std::str::FromStr;

/// Salt folded into the run seed for the arbitration RNG, so interleaving
/// decisions and cache layouts are decorrelated.
pub(crate) const ARBITRATION_SALT: u64 = 0xA12B_1748_C0DE_5EED;

/// How a [`ContendedSchedule`] picks the next task to issue an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Tasks take turns in index order, skipping exhausted traces.
    #[default]
    RoundRobin,
    /// Each step picks a uniformly random ready task, from a per-run
    /// seeded stream (deterministic for a given run seed).
    SeededRandom,
}

impl Arbitration {
    /// Both arbitration policies.
    pub const ALL: [Arbitration; 2] = [Arbitration::RoundRobin, Arbitration::SeededRandom];
}

impl fmt::Display for Arbitration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Arbitration::RoundRobin => "round-robin",
            Arbitration::SeededRandom => "seeded-random",
        })
    }
}

impl FromStr for Arbitration {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "round-robin" | "roundrobin" | "rr" => Ok(Arbitration::RoundRobin),
            "seeded-random" | "random" => Ok(Arbitration::SeededRandom),
            other => Err(ConfigError::Inconsistent {
                reason: format!("unknown arbitration policy '{other}'"),
            }),
        }
    }
}

/// A precomputed, collapsed interleaving of one co-schedule — the input
/// [`crate::batch::BatchCore::execute_schedule`] replays.
///
/// Under round-robin arbitration the merged event stream is a pure
/// function of the task traces: the cursor visits ready tasks in index
/// order and the placement seed never enters an arbitration decision.  A
/// campaign therefore interleaves (and run-collapses) the co-schedule
/// **once**, shares the schedule read-only across its worker threads, and
/// replays it under every placement seed.  Seeded-random arbitration
/// draws its interleave from the run seed, so its campaigns build one
/// schedule per run and replay each under that run's seed alone.
#[derive(Debug, Clone)]
pub struct ContendedSchedule {
    pub(crate) ops: Vec<Op>,
    pub(crate) tasks: usize,
}

impl ContendedSchedule {
    /// Interleaves `streams` under round-robin arbitration for a
    /// `tasks`-task platform described by `config`, collapsing per-task
    /// same-line read runs at interleave time.  `tasks` is clamped to at
    /// least one; streams beyond `tasks` are ignored and missing streams
    /// behave as idle tasks.
    pub fn round_robin<I>(config: &PlatformConfig, tasks: usize, streams: Vec<I>) -> Self
    where
        I: Iterator<Item = MemEvent>,
    {
        Self::interleaved(config, tasks, streams, Arbitration::RoundRobin, 0)
    }

    /// [`Self::round_robin`] under seeded-random arbitration: each step
    /// issues the next event of a uniformly random ready task, drawn from
    /// a stream seeded by the run `seed`.  The schedule is only valid for
    /// the run that replays it under that same seed.
    pub fn seeded_random<I>(
        config: &PlatformConfig,
        tasks: usize,
        streams: Vec<I>,
        seed: u64,
    ) -> Self
    where
        I: Iterator<Item = MemEvent>,
    {
        Self::interleaved(config, tasks, streams, Arbitration::SeededRandom, seed)
    }

    fn interleaved<I>(
        config: &PlatformConfig,
        tasks: usize,
        streams: Vec<I>,
        arbitration: Arbitration,
        seed: u64,
    ) -> Self
    where
        I: Iterator<Item = MemEvent>,
    {
        let tasks = tasks.max(1);
        ContendedSchedule {
            ops: interleave(
                streams,
                tasks,
                arbitration,
                seed,
                config.il1.geometry.offset_bits(),
                config.dl1.geometry.offset_bits(),
            ),
            tasks,
        }
    }

    /// Number of tasks the schedule interleaves.
    pub fn task_count(&self) -> usize {
        self.tasks
    }

    /// Number of collapsed operations in the schedule.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule holds no operations (every task idle).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchCore;
    use crate::hierarchy::HierarchyStats;
    use crate::trace::Trace;
    use randmod_core::{Address, PlacementKind};

    fn config() -> PlatformConfig {
        PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo)
    }

    fn victim_trace() -> Trace {
        let mut trace = Trace::new();
        for repeat in 0..3u64 {
            for i in 0..600u64 {
                trace.fetch(Address::new(0x1000 + (i % 16) * 32));
                trace.load(Address::new(0x10_0000 + i * 32 + repeat));
                if i % 9 == 0 {
                    trace.store(Address::new(0x18_0000 + (i % 128) * 32));
                }
            }
        }
        trace
    }

    fn opponent_trace() -> Trace {
        let mut trace = Trace::new();
        for i in 0..4000u64 {
            trace.load(Address::new(0x40_0000 + (i % 4096) * 32));
        }
        trace
    }

    /// One contended run of `traces` on a `tasks`-task platform under
    /// `seed`: the schedule the arbitration policy draws, replayed as a
    /// one-lane wave (the shape a campaign gives every seeded-random run).
    fn run_once(
        config: &PlatformConfig,
        tasks: usize,
        arbitration: Arbitration,
        traces: &[Trace],
        seed: u64,
    ) -> Vec<(u64, HierarchyStats)> {
        let streams = traces.iter().map(|t| t.iter().copied()).collect();
        let schedule = match arbitration {
            Arbitration::RoundRobin => ContendedSchedule::round_robin(config, tasks, streams),
            Arbitration::SeededRandom => {
                ContendedSchedule::seeded_random(config, tasks, streams, seed)
            }
        };
        let mut core = BatchCore::new(config, tasks, 1).unwrap();
        core.execute_schedule(&schedule, &[seed]).remove(0)
    }

    #[test]
    fn arbitration_parses_and_displays() {
        for arbitration in Arbitration::ALL {
            let parsed: Arbitration = arbitration.to_string().parse().unwrap();
            assert_eq!(parsed, arbitration);
        }
        assert_eq!("rr".parse::<Arbitration>().unwrap(), Arbitration::RoundRobin);
        assert!("fcfs".parse::<Arbitration>().is_err());
        assert_eq!(Arbitration::default(), Arbitration::RoundRobin);
    }

    #[test]
    fn task_count_is_clamped_to_one() {
        let core = BatchCore::new(&config(), 0, 1).unwrap();
        assert_eq!(core.task_count(), 1);
        let schedule =
            ContendedSchedule::seeded_random(&config(), 0, vec![victim_trace().into_iter()], 3);
        assert_eq!(schedule.task_count(), 1);
    }

    #[test]
    fn contended_run_is_reproducible_per_seed() {
        let traces = [victim_trace(), opponent_trace()];
        for arbitration in Arbitration::ALL {
            assert_eq!(
                run_once(&config(), 2, arbitration, &traces, 99),
                run_once(&config(), 2, arbitration, &traces, 99),
                "{arbitration}"
            );
        }
    }

    #[test]
    fn opponent_pressure_inflates_victim_l2_misses() {
        // The defining contention effect: a streaming opponent evicts the
        // victim's shared-L2 lines, so the victim sees more L2 misses (and
        // more cycles) than it does next to an idle opponent.
        let rr = Arbitration::RoundRobin;
        let solo = run_once(&config(), 2, rr, &[victim_trace(), Trace::new()], 7);
        let contended = run_once(&config(), 2, rr, &[victim_trace(), opponent_trace()], 7);
        assert!(
            contended[0].1.l2.misses > solo[0].1.l2.misses,
            "opponent did not inflate victim L2 misses ({} vs {})",
            contended[0].1.l2.misses,
            solo[0].1.l2.misses
        );
        assert!(contended[0].0 > solo[0].0, "victim cycles did not inflate");
        // The victim's own event stream is unchanged: same L1 traffic.
        assert_eq!(contended[0].1.il1.accesses, solo[0].1.il1.accesses);
        assert_eq!(contended[0].1.dl1.accesses, solo[0].1.dl1.accesses);
    }

    #[test]
    fn per_task_l2_views_sum_to_the_aggregate() {
        let traces = [victim_trace(), opponent_trace(), opponent_trace()];
        let results = run_once(&config(), 3, Arbitration::SeededRandom, &traces, 21);
        let aggregate = results
            .iter()
            .fold(HierarchyStats::default(), |acc, (_, stats)| acc.merged(*stats));
        assert_eq!(
            aggregate.l2.accesses,
            results.iter().map(|(_, s)| s.l2.accesses).sum::<u64>()
        );
        assert_eq!(
            aggregate.memory_accesses,
            results.iter().map(|(_, s)| s.memory_accesses).sum::<u64>()
        );
        // Every task's L2 traffic is its instruction-side read misses plus
        // all of its stores plus its data-side read misses; the write-
        // through DL1 forwards every store to the L2, so per task:
        // l2.accesses >= stores, and l2.stores == dl1.stores exactly.
        for (_, stats) in &results {
            assert_eq!(stats.l2.stores, stats.dl1.stores);
            assert!(stats.l2.accesses >= stats.l2.stores);
        }
    }

    #[test]
    fn round_robin_with_equal_streams_alternates_fairly() {
        // Two identical single-level streams: round-robin must give both
        // tasks identical traffic counts.
        let traces = [opponent_trace(), opponent_trace()];
        let results = run_once(&config(), 2, Arbitration::RoundRobin, &traces, 5);
        assert_eq!(results[0].1.dl1.accesses, results[1].1.dl1.accesses);
    }

    #[test]
    fn missing_streams_behave_as_idle_tasks() {
        let trace = victim_trace();
        for arbitration in Arbitration::ALL {
            let padded = run_once(
                &config(),
                3,
                arbitration,
                &[trace.clone(), Trace::new(), Trace::new()],
                13,
            );
            let missing = run_once(&config(), 3, arbitration, std::slice::from_ref(&trace), 13);
            assert_eq!(padded, missing, "{arbitration}");
            assert_eq!(missing[1], (0, HierarchyStats::default()));
            assert_eq!(missing[2], (0, HierarchyStats::default()));
        }
    }

    #[test]
    fn extra_streams_beyond_the_task_count_are_ignored() {
        let trace = victim_trace();
        for arbitration in Arbitration::ALL {
            let clipped = run_once(
                &config(),
                1,
                arbitration,
                &[trace.clone(), opponent_trace()],
                3,
            );
            let solo = run_once(&config(), 1, arbitration, std::slice::from_ref(&trace), 3);
            assert_eq!(clipped, solo, "{arbitration}");
            assert_eq!(clipped.len(), 1);
        }
    }

    #[test]
    fn batched_contended_replay_matches_scalar_per_seed() {
        // A K-lane pass equals K single-lane ("scalar") replays of the same
        // schedule, one per seed: lanes never interact.
        let seeds = [0u64, 1, 7, 42, 0xDEAD_BEEF];
        for placement in PlacementKind::ALL {
            let config = PlatformConfig::leon3().with_l1_placement(placement);
            let traces = [victim_trace(), opponent_trace(), opponent_trace()];
            let schedule = ContendedSchedule::round_robin(
                &config,
                3,
                traces.iter().map(|t| t.iter().copied()).collect(),
            );
            let mut batch = BatchCore::new(&config, 3, seeds.len()).unwrap();
            let batched = batch.execute_schedule(&schedule, &seeds);
            for (&seed, runs) in seeds.iter().zip(&batched) {
                let reference = run_once(&config, 3, Arbitration::RoundRobin, &traces, seed);
                assert_eq!(runs, &reference, "lane diverged for seed {seed} under {placement}");
            }
        }
    }

    #[test]
    fn batched_contended_partial_batches_use_a_lane_prefix() {
        let config = config();
        let schedule = ContendedSchedule::round_robin(
            &config,
            2,
            vec![victim_trace().into_iter(), opponent_trace().into_iter()],
        );
        let mut batch = BatchCore::new(&config, 2, 8).unwrap();
        assert_eq!(batch.lane_count(), 8);
        assert_eq!(batch.task_count(), 2);
        let results = batch.execute_schedule(&schedule, &[1, 2]);
        assert_eq!(results.len(), 2);
        // A later, different-sized batch reuses the lanes cleanly.
        let again = batch.execute_schedule(&schedule, &[1]);
        assert_eq!(again[0], results[0]);
    }

    #[test]
    #[should_panic(expected = "exceed the")]
    fn batched_contended_too_many_seeds_panic() {
        let config = config();
        let schedule =
            ContendedSchedule::round_robin(&config, 2, vec![victim_trace().into_iter()]);
        let mut batch = BatchCore::new(&config, 2, 2).unwrap();
        batch.execute_schedule(&schedule, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "different task count")]
    fn batched_contended_task_count_mismatch_panics() {
        let config = config();
        let schedule =
            ContendedSchedule::round_robin(&config, 3, vec![victim_trace().into_iter()]);
        let mut batch = BatchCore::new(&config, 2, 2).unwrap();
        batch.execute_schedule(&schedule, &[1]);
    }

    #[test]
    fn empty_schedule_is_an_idle_run() {
        let config = config();
        let schedule =
            ContendedSchedule::round_robin(&config, 2, Vec::<std::vec::IntoIter<MemEvent>>::new());
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
        let mut batch = BatchCore::new(&config, 2, 1).unwrap();
        let results = batch.execute_schedule(&schedule, &[9]);
        assert_eq!(results[0][0], (0, HierarchyStats::default()));
        assert_eq!(results[0][1], (0, HierarchyStats::default()));
    }

    #[test]
    fn arbitration_policies_agree_on_totals_but_may_differ_in_timing() {
        // Both policies replay the same per-task event streams, so the
        // per-task L1 access counts must agree; the interleaving (and thus
        // the shared-L2 hit pattern) may legitimately differ.
        let traces = [victim_trace(), opponent_trace()];
        let a = run_once(&config(), 2, Arbitration::RoundRobin, &traces, 77);
        let b = run_once(&config(), 2, Arbitration::SeededRandom, &traces, 77);
        for task in 0..2 {
            assert_eq!(a[task].1.il1.accesses, b[task].1.il1.accesses);
            assert_eq!(a[task].1.dl1.accesses, b[task].1.dl1.accesses);
        }
    }
}
