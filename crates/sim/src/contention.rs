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
//!   ready task from a [`SplitMix64`] stream derived from the run seed.
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
//! **One engine.**  [`BatchContentionCore`] replays a schedule across up
//! to `K` placement-seed lanes per pass, exactly as
//! [`crate::batch::BatchCore`] does for solo campaigns.  A round-robin
//! schedule never consults the placement seed, so
//! [`ContendedSchedule::round_robin`] builds it once per campaign and
//! every lane group replays it; a seeded-random schedule is drawn per run
//! ([`ContendedSchedule::seeded_random`]) and replays as a one-lane wave.
//! The naive `RefContentionCore` of the reference-model suite pins both
//! against an independent implementation.
//!
//! **Solo-task equivalence.**  A contended run with one task and idle
//! (empty-trace) opponents reproduces the single-task engine exactly: per
//! lane, the seed→layout derivation draws the victim's IL1, DL1 and the
//! shared L2 seeds in the same order as the solo hierarchy, and both
//! engines step the same lane-banked caches through the same wave helpers.
//! `tests/contention_equivalence.rs` pins this bit-identity against
//! `BatchCore` and `Campaign::run_seeds`.

use crate::config::PlatformConfig;
use crate::hierarchy::{read_lean_wave, store_lean_wave, HierarchyStats, RunCounters};
use crate::lanes::{interleave, replay_ops, LaneStepper, Op};
use crate::trace::MemEvent;
use randmod_core::cache::{AccessKind, SetAssocCacheLanes};
use randmod_core::prng::SplitMix64;
use randmod_core::{AccessFlags, Address, ConfigError, LineAddr};
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
/// [`BatchContentionCore::execute_schedule`] replays.
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
    ops: Vec<Op>,
    tasks: usize,
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

/// One task's private lane-banked first-level caches.
#[derive(Debug, Clone)]
struct TaskL1Lanes {
    il1: SetAssocCacheLanes,
    dl1: SetAssocCacheLanes,
}

/// The lane-banked shared-L2 hierarchy: per-task IL1/DL1
/// [`SetAssocCacheLanes`] pairs in front of one lane-banked shared L2,
/// stepping up to `K` placement seeds per collapsed schedule operation —
/// the wavefront engine behind [`BatchContentionCore`].  Lanes never
/// interact: lane `i` holds the whole platform's cache state under
/// placement seed `seeds[i]`.
#[derive(Debug, Clone)]
struct SharedL2LaneHierarchy {
    latencies: crate::config::LatencyConfig,
    tasks: Vec<TaskL1Lanes>,
    l2: SetAssocCacheLanes,
    /// Per-wave outcome scratch, truncated to the active lane count.
    flags: Vec<AccessFlags>,
    active: usize,
}

impl SharedL2LaneHierarchy {
    fn new(config: &PlatformConfig, tasks: usize, lanes: usize) -> Result<Self, ConfigError> {
        config.validate()?;
        let lanes = lanes.max(1);
        let build = |c: &crate::config::CacheConfig| -> Result<SetAssocCacheLanes, ConfigError> {
            SetAssocCacheLanes::with_kinds(c.geometry, c.placement, c.replacement, c.write_policy, lanes)
        };
        let tasks = (0..tasks.max(1))
            .map(|_| {
                Ok(TaskL1Lanes {
                    il1: build(&config.il1)?,
                    dl1: build(&config.dl1)?,
                })
            })
            .collect::<Result<Vec<_>, ConfigError>>()?;
        Ok(SharedL2LaneHierarchy {
            latencies: config.latencies,
            tasks,
            l2: build(&config.l2)?,
            flags: vec![AccessFlags::default(); lanes],
            active: 0,
        })
    }

    fn task_count(&self) -> usize {
        self.tasks.len()
    }

    fn lane_count(&self) -> usize {
        self.flags.len()
    }

    /// Reseeds lanes `0..seeds.len()` and flushes every lane's contents.
    /// Per lane, the per-cache seeds are drawn from `SplitMix64(seed)` in
    /// the order task 0's IL1, task 0's DL1, the shared L2, then the
    /// remaining tasks' L1 pairs — so task 0's three cache seeds are
    /// exactly the solo hierarchy's for the same run seed, whatever the
    /// task count.  That ordering is what makes a solo victim
    /// bit-identical to the single-task engine.
    fn reseed_wave(&mut self, seeds: &[u64]) {
        self.active = seeds.len();
        let mut streams: Vec<SplitMix64> = seeds.iter().map(|&s| SplitMix64::new(s)).collect();
        let draw = |streams: &mut [SplitMix64]| -> Vec<u64> {
            streams.iter_mut().map(SplitMix64::next_u64).collect()
        };
        let (first, rest) = self.tasks.split_first_mut().expect("at least one task");
        first.il1.reseed_wave(&draw(&mut streams));
        first.dl1.reseed_wave(&draw(&mut streams));
        self.l2.reseed_wave(&draw(&mut streams));
        for task in rest {
            task.il1.reseed_wave(&draw(&mut streams));
            task.dl1.reseed_wave(&draw(&mut streams));
        }
    }

    /// One instruction fetch of `task` across all active lanes (plus
    /// `repeats` collapsed repeat fetches); see
    /// [`crate::hierarchy::read_lean_wave`].
    #[inline]
    fn fetch_wave(
        &mut self,
        task: usize,
        addr: Address,
        line: LineAddr,
        repeats: u64,
        cycles: &mut [u64],
        counters: &mut [RunCounters],
    ) {
        read_lean_wave(
            &mut self.tasks[task].il1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            AccessKind::InstructionFetch,
            repeats,
            &mut self.flags[..self.active],
            cycles,
            counters,
        );
    }

    /// One data load of `task` across all active lanes (plus `repeats`
    /// collapsed repeat loads); see [`crate::hierarchy::read_lean_wave`].
    #[inline]
    fn load_wave(
        &mut self,
        task: usize,
        addr: Address,
        line: LineAddr,
        repeats: u64,
        cycles: &mut [u64],
        counters: &mut [RunCounters],
    ) {
        read_lean_wave(
            &mut self.tasks[task].dl1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            AccessKind::Load,
            repeats,
            &mut self.flags[..self.active],
            cycles,
            counters,
        );
    }

    /// One data store of `task` across all active lanes; see
    /// [`crate::hierarchy::store_lean_wave`].
    #[inline]
    fn store_wave(
        &mut self,
        task: usize,
        addr: Address,
        line: LineAddr,
        cycles: &mut [u64],
        counters: &mut [RunCounters],
    ) {
        store_lean_wave(
            &mut self.tasks[task].dl1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            &mut self.flags[..self.active],
            cycles,
            counters,
        );
    }
}

/// The lane-batched contended engine: replays one precomputed
/// [`ContendedSchedule`] across up to `K` placement-seed lanes per pass —
/// the contended counterpart of [`crate::batch::BatchCore`], driven by
/// the same `crate::lanes` machinery.
///
/// ```
/// use randmod_sim::contention::{BatchContentionCore, ContendedSchedule};
/// use randmod_sim::{PlatformConfig, Trace};
/// use randmod_core::Address;
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let config = PlatformConfig::leon3();
/// let mut victim = Trace::new();
/// let mut opponent = Trace::new();
/// for i in 0..256u64 {
///     victim.load(Address::new(0x1000 + i * 32));
///     opponent.load(Address::new(0x8_0000 + (i % 64) * 32));
/// }
///
/// // One interleave, four placement seeds replayed.
/// let schedule = ContendedSchedule::round_robin(
///     &config,
///     2,
///     vec![victim.iter().copied(), opponent.iter().copied()],
/// );
/// let mut batch = BatchContentionCore::new(&config, 2, 4)?;
/// let results = batch.execute_schedule(&schedule, &[1, 2, 3, 4]);
///
/// // Lanes never interact: each matches a one-lane replay of its seed.
/// let mut one_lane = BatchContentionCore::new(&config, 2, 1)?;
/// for (&seed, runs) in [1u64, 2, 3, 4].iter().zip(&results) {
///     assert_eq!(runs, &one_lane.execute_schedule(&schedule, &[seed])[0]);
///     assert!(runs[0].0 > 0 && runs[1].0 > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchContentionCore {
    hierarchy: SharedL2LaneHierarchy,
    /// Per-task, per-lane cycle counters and statistics blocks, laid out
    /// task-major: entry `task * lane_capacity + lane`.
    cycles: Vec<u64>,
    counters: Vec<RunCounters>,
}

impl BatchContentionCore {
    /// Builds a batched contended core with `lanes` placement-seed lanes
    /// for `tasks` tasks (both clamped to at least one).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: &PlatformConfig, tasks: usize, lanes: usize) -> Result<Self, ConfigError> {
        let hierarchy = SharedL2LaneHierarchy::new(config, tasks, lanes)?;
        let slots = hierarchy.task_count() * hierarchy.lane_count();
        Ok(BatchContentionCore {
            hierarchy,
            cycles: vec![0; slots],
            counters: vec![RunCounters::default(); slots],
        })
    }

    /// Number of placement-seed lanes.
    pub fn lane_count(&self) -> usize {
        self.hierarchy.lane_count()
    }

    /// Number of tasks each lane interleaves.
    pub fn task_count(&self) -> usize {
        self.hierarchy.task_count()
    }

    /// Replays `schedule` once, simulating one contended run per seed in
    /// `seeds` (cold caches, fresh placement layout per lane).  Returns,
    /// per seed in seed order, `(cycles, stats)` per task in task order;
    /// the stats are each task's own view (its private L1s plus its share
    /// of the shared-L2 traffic).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` holds more seeds than there are lanes, or if the
    /// schedule was built for a different task count.
    pub fn execute_schedule(
        &mut self,
        schedule: &ContendedSchedule,
        seeds: &[u64],
    ) -> Vec<Vec<(u64, HierarchyStats)>> {
        assert!(
            seeds.len() <= self.lane_count(),
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lane_count()
        );
        assert_eq!(
            schedule.task_count(),
            self.task_count(),
            "schedule interleaves a different task count than this core"
        );
        let active = seeds.len();
        let capacity = self.lane_count();
        self.hierarchy.reseed_wave(seeds);
        self.cycles.fill(0);
        self.counters.fill(RunCounters::default());
        let mut stepper = ContendedLanes {
            hierarchy: &mut self.hierarchy,
            cycles: &mut self.cycles,
            counters: &mut self.counters,
            capacity,
            active,
        };
        replay_ops(&schedule.ops, &mut stepper);
        (0..active)
            .map(|lane| {
                (0..self.task_count())
                    .map(|task| {
                        let slot = task * capacity + lane;
                        (self.cycles[slot], self.counters[slot].into_stats())
                    })
                    .collect()
            })
            .collect()
    }
}

/// The contended engine's lane fan-out: every collapsed operation of the
/// shared schedule becomes one wave through the issuing task's lane-banked
/// L1 pair (and the shared lane-banked L2), booked against the task's
/// per-lane cycle and statistics slices.  Collapsed repeats — each a
/// guaranteed private-L1 hit (an opponent can never evict the line a
/// task's repeat read is about to hit) — are booked inside the wave
/// helpers.
struct ContendedLanes<'a> {
    hierarchy: &'a mut SharedL2LaneHierarchy,
    /// Task-major per-lane slots (see [`BatchContentionCore`]).
    cycles: &'a mut [u64],
    counters: &'a mut [RunCounters],
    capacity: usize,
    active: usize,
}

impl LaneStepper for ContendedLanes<'_> {
    #[inline]
    fn fetch(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64) {
        let slots = task * self.capacity..task * self.capacity + self.active;
        self.hierarchy.fetch_wave(
            task,
            addr,
            line,
            repeats,
            &mut self.cycles[slots.clone()],
            &mut self.counters[slots],
        );
    }

    #[inline]
    fn load(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64) {
        let slots = task * self.capacity..task * self.capacity + self.active;
        self.hierarchy.load_wave(
            task,
            addr,
            line,
            repeats,
            &mut self.cycles[slots.clone()],
            &mut self.counters[slots],
        );
    }

    #[inline]
    fn store(&mut self, task: usize, addr: Address, line: LineAddr) {
        let slots = task * self.capacity..task * self.capacity + self.active;
        self.hierarchy.store_wave(
            task,
            addr,
            line,
            &mut self.cycles[slots.clone()],
            &mut self.counters[slots],
        );
    }

    #[inline]
    fn compute(&mut self, task: usize, cycles: u64) {
        let slots = task * self.capacity..task * self.capacity + self.active;
        for lane in &mut self.cycles[slots] {
            *lane += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use randmod_core::PlacementKind;

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
        let mut core = BatchContentionCore::new(config, tasks, 1).unwrap();
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
        let core = BatchContentionCore::new(&config(), 0, 1).unwrap();
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
            let mut batch = BatchContentionCore::new(&config, 3, seeds.len()).unwrap();
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
        let mut batch = BatchContentionCore::new(&config, 2, 8).unwrap();
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
        let mut batch = BatchContentionCore::new(&config, 2, 2).unwrap();
        batch.execute_schedule(&schedule, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "different task count")]
    fn batched_contended_task_count_mismatch_panics() {
        let config = config();
        let schedule =
            ContendedSchedule::round_robin(&config, 3, vec![victim_trace().into_iter()]);
        let mut batch = BatchContentionCore::new(&config, 2, 2).unwrap();
        batch.execute_schedule(&schedule, &[1]);
    }

    #[test]
    fn empty_schedule_is_an_idle_run() {
        let config = config();
        let schedule =
            ContendedSchedule::round_robin(&config, 2, Vec::<std::vec::IntoIter<MemEvent>>::new());
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
        let mut batch = BatchContentionCore::new(&config, 2, 1).unwrap();
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
