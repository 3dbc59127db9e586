//! The lane engine: decode once, simulate many seeds.
//!
//! An MBPTA campaign replays one immutable program under ~1,000 placement
//! seeds.  The sequential protocol pays the decode (and its memory
//! traffic) once *per run*; [`BatchCore`] instead steps `K` independent
//! *seed lanes* through every operation, so a campaign of `N` runs
//! replays the program `N / K` times instead of `N`.  The lanes are not
//! `K` separate hierarchies but one `LaneHierarchy` (crate-private, in
//! `crate::hierarchy`) of lane-banked caches
//! ([`randmod_core::cache::SetAssocCacheLanes`]): each operation is
//! pushed through all `K` lanes as one masked access per cache level —
//! one placement sweep, then a per-lane probe over lane-major tag storage
//! — and the L2 behind an L1 wave is accessed once, with the mask of the
//! lanes whose L1 missed.
//!
//! The platform has `T` tasks, each with its own core and private L1
//! pair, in front of one L2.  A solo program is the one-task case, where
//! the L2 is the task's private partition — the paper's platform; with
//! more tasks the L2 is shared (the `fig6_contention` scenario).  Each
//! lane draws task 0's cache seeds first, so a task next to idle tasks
//! is bit-identical to the task alone.
//!
//! Lanes never interact: each lane is reseeded with its own placement
//! seed and observes exactly the operation sequence a one-lane replay
//! would feed it, so batched results are bit-identical to running the
//! lanes one at a time (pinned by the `batch_equivalence` proptest suite
//! and the campaign tests) and to the naive reference model (the
//! `reference_model` suite).  Per-run statistics are accumulated in each
//! lane's compact counter block and expanded to [`HierarchyStats`] once
//! per run, instead of read-modify-writing the per-cache statistics
//! structs on every event.
//!
//! Two entry points feed the lanes.  [`BatchCore::execute_schedule`]
//! replays a precollapsed [`ContendedSchedule`] of any task count: every
//! MBPTA campaign of [`crate::run::Campaign`], solo or contended, builds
//! one and replays it for each lane group.  [`BatchCore::execute_batch`]
//! streams one task's events, collapsing same-line read runs as it
//! decodes, so the deterministic layout sweep replays each layout in
//! constant memory.

use crate::config::PlatformConfig;
use crate::contention::ContendedSchedule;
use crate::hierarchy::{HierarchyStats, LaneHierarchy};
use crate::lanes::{replay_collapsed, replay_ops};
use crate::trace::MemEvent;
use randmod_core::ConfigError;

/// A replay engine stepping up to `K` placement seeds of a `T`-task
/// platform per pass.
///
/// ```
/// use randmod_sim::{BatchCore, ContendedSchedule, PlatformConfig, Trace};
/// use randmod_core::{Address, PlacementKind};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
/// let mut victim = Trace::new();
/// let mut opponent = Trace::new();
/// for i in 0..256u64 {
///     victim.load(Address::new(0x1000 + i * 32));
///     opponent.load(Address::new(0x8_0000 + (i % 64) * 32));
/// }
///
/// // One task: one decode pass, four seeds simulated, each bit-identical
/// // to replaying its seed on a one-lane wave.
/// let mut batch = BatchCore::new(&config, 1, 4)?;
/// let results = batch.execute_batch(&victim, &[1, 2, 3, 4]);
/// let mut one_lane = BatchCore::new(&config, 1, 1)?;
/// for (seed, run) in [1u64, 2, 3, 4].into_iter().zip(&results) {
///     assert_eq!(one_lane.execute_batch(&victim, &[seed])[0], *run);
/// }
///
/// // Two tasks in front of one L2: one interleave, four seeds replayed.
/// let schedule = ContendedSchedule::round_robin(
///     &config,
///     2,
///     vec![victim.iter().copied(), opponent.iter().copied()],
/// );
/// let mut shared = BatchCore::new(&config, 2, 4)?;
/// let results = shared.execute_schedule(&schedule, &[1, 2, 3, 4]);
/// let mut one_lane = BatchCore::new(&config, 2, 1)?;
/// for (&seed, runs) in [1u64, 2, 3, 4].iter().zip(&results) {
///     assert_eq!(runs, &one_lane.execute_schedule(&schedule, &[seed])[0]);
///     assert!(runs[0].0 > 0 && runs[1].0 > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchCore {
    hierarchy: LaneHierarchy,
    /// Offset bits of the IL1 / DL1 geometry, used to detect runs of
    /// consecutive same-line reads in the streaming decode loop.
    il1_shift: u32,
    dl1_shift: u32,
}

impl BatchCore {
    /// Builds a core with `lanes` seed lanes for `tasks` tasks (both
    /// clamped to at least one, and `lanes` to at most
    /// [`SetAssocCacheLanes::MAX_LANES`](randmod_core::SetAssocCacheLanes::MAX_LANES))
    /// on the given platform.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: &PlatformConfig, tasks: usize, lanes: usize) -> Result<Self, ConfigError> {
        Ok(BatchCore {
            hierarchy: LaneHierarchy::new(config, tasks, lanes)?,
            il1_shift: config.il1.geometry.offset_bits(),
            dl1_shift: config.dl1.geometry.offset_bits(),
        })
    }

    /// Number of seed lanes.
    pub fn lane_count(&self) -> usize {
        self.hierarchy.lane_count()
    }

    /// Number of tasks each lane runs.
    pub fn task_count(&self) -> usize {
        self.hierarchy.task_count()
    }

    /// Replays `schedule` once, simulating one run per seed in `seeds`
    /// (cold caches, fresh placement layout per lane, statistics from
    /// zero) — the "run to completion" unit of analysis the paper uses.
    /// Returns, per seed in seed order, `(cycles, stats)` per task in task
    /// order; the stats are each task's own view (its private L1s plus its
    /// share of the L2 traffic).
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
        assert_eq!(
            schedule.task_count(),
            self.task_count(),
            "schedule interleaves a different task count than this core"
        );
        self.hierarchy.reseed_wave(seeds);
        replay_ops(&schedule.ops, &mut self.hierarchy);
        (0..seeds.len())
            .map(|lane| {
                (0..self.task_count())
                    .map(|task| self.hierarchy.outcome(task, lane))
                    .collect()
            })
            .collect()
    }

    /// Streams `events` once as task 0 (any other task stays idle),
    /// simulating one run per seed in `seeds`.  Accepts anything that
    /// iterates [`MemEvent`]s by value (`&Trace`, `&PackedTrace`, a
    /// decoding or generating iterator); the stream is consumed on the
    /// fly, never materialised.  Returns task 0's `(cycles, stats)` per
    /// seed, in seed order.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` holds more seeds than there are lanes.
    pub fn execute_batch<I>(&mut self, events: I, seeds: &[u64]) -> Vec<(u64, HierarchyStats)>
    where
        I: IntoIterator<Item = MemEvent>,
    {
        self.hierarchy.reseed_wave(seeds);
        replay_collapsed(events, self.il1_shift, self.dl1_shift, &mut self.hierarchy);
        (0..seeds.len())
            .map(|lane| self.hierarchy.outcome(0, lane))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Op;
    use crate::packed::PackedTrace;
    use crate::trace::{EventSource, Trace};
    use randmod_core::{Address, LineAddr, PlacementKind, ReplacementKind, WritePolicy};

    /// The sequential replay of one seed: a one-lane wave stepping every
    /// event as its own operation — no lane batching and no same-line run
    /// collapsing.
    fn sequential(config: &PlatformConfig, trace: &Trace, seed: u64) -> (u64, HierarchyStats) {
        let il1 = config.il1.geometry.offset_bits();
        let dl1 = config.dl1.geometry.offset_bits();
        let ops: Vec<Op> = trace
            .iter()
            .map(|&event| match event {
                MemEvent::InstrFetch(addr) => Op::Fetch {
                    task: 0,
                    addr,
                    line: LineAddr::new(addr.raw() >> il1),
                    repeats: 0,
                },
                MemEvent::Load(addr) => Op::Load {
                    task: 0,
                    addr,
                    line: LineAddr::new(addr.raw() >> dl1),
                    repeats: 0,
                },
                MemEvent::Store(addr) => Op::Store {
                    task: 0,
                    addr,
                    line: LineAddr::new(addr.raw() >> dl1),
                },
                MemEvent::Compute(cycles) => Op::Compute {
                    task: 0,
                    cycles: cycles as u64,
                },
            })
            .collect();
        let schedule = ContendedSchedule { ops, tasks: 1 };
        BatchCore::new(config, 1, 1)
            .unwrap()
            .execute_schedule(&schedule, &[seed])[0][0]
    }

    fn stress_trace() -> Trace {
        let mut trace = Trace::new();
        for repeat in 0..3u64 {
            for i in 0..800u64 {
                trace.fetch(Address::new(0x1000 + (i % 24) * 32));
                trace.load(Address::new(0x10_0000 + i * 32 + repeat));
                if i % 5 == 0 {
                    trace.store(Address::new(0x20_0000 + (i % 512) * 32));
                }
                if i % 7 == 0 {
                    trace.compute(2);
                }
            }
        }
        trace
    }

    #[test]
    fn batched_replay_matches_sequential_replay() {
        // A K-lane wave at one task equals the uncollapsed sequential
        // replay of each seed (the several-task case is
        // `contention::tests::batched_contended_replay_matches_scalar_per_seed`).
        let seeds = [0u64, 1, 7, 42, 0xDEAD_BEEF];
        for placement in PlacementKind::ALL {
            let config = PlatformConfig::leon3().with_l1_placement(placement);
            let trace = stress_trace();
            let mut batch = BatchCore::new(&config, 1, seeds.len()).unwrap();
            let batched = batch.execute_batch(&trace, &seeds);
            for (&seed, &(cycles, stats)) in seeds.iter().zip(&batched) {
                assert_eq!(
                    sequential(&config, &trace, seed),
                    (cycles, stats),
                    "lane diverged for seed {seed} under {placement}"
                );
            }
        }
    }

    #[test]
    fn collapsed_read_runs_match_sequential_replay() {
        // Exercise the same-line read-run collapse hard: long straight-
        // line fetch runs stepping 4 bytes through 32-byte lines, loads
        // striding within lines, runs crossing line boundaries, and runs
        // interrupted by stores and computes — checked against the
        // uncollapsed sequential replay, for hitting *and* missing first
        // accesses and both replacement behaviours of the L1.
        let mut trace = Trace::new();
        for block in 0..400u64 {
            let code = 0x1000 + (block % 29) * 4;
            for i in 0..12u64 {
                trace.fetch(Address::new(code + i * 4));
            }
            // Data footprint beyond the 16KB DL1 so run-leading loads miss
            // regularly.
            let data = 0x10_0000 + (block % 900) * 40;
            for i in 0..10u64 {
                trace.load(Address::new(data + i * 4));
            }
            if block % 3 == 0 {
                trace.store(Address::new(data + 4));
            }
            if block % 4 == 0 {
                trace.compute(2);
            }
        }
        let seeds = [0u64, 5, 77];
        for placement in PlacementKind::ALL {
            for replacement in [ReplacementKind::Random, ReplacementKind::Lru] {
                let config = PlatformConfig::leon3()
                    .with_l1_placement(placement)
                    .with_replacement(replacement);
                let mut batch = BatchCore::new(&config, 1, seeds.len()).unwrap();
                let batched = batch.execute_batch(&trace, &seeds);
                for (&seed, &(cycles, stats)) in seeds.iter().zip(&batched) {
                    assert_eq!(
                        sequential(&config, &trace, seed),
                        (cycles, stats),
                        "collapse diverged for seed {seed} under {placement}/{replacement}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_replay_matches_sequential_for_write_back_l1_and_lru() {
        // Exercise dirty-line bookkeeping and the LRU full path (where the
        // residency-filter fast path must stay disarmed).
        let mut config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
        config.dl1.write_policy = WritePolicy::WriteBack;
        config.il1.replacement = ReplacementKind::Lru;
        config.dl1.replacement = ReplacementKind::Lru;
        config.l2.replacement = ReplacementKind::RoundRobin;
        let trace = stress_trace();
        let seeds = [3u64, 9, 12];
        let mut batch = BatchCore::new(&config, 1, 4).unwrap();
        let batched = batch.execute_batch(&trace, &seeds);
        for (&seed, &(cycles, stats)) in seeds.iter().zip(&batched) {
            assert_eq!(sequential(&config, &trace, seed), (cycles, stats));
        }
    }

    #[test]
    fn packed_and_boxed_sources_are_interchangeable() {
        let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::HashRandom);
        let trace = stress_trace();
        let packed = PackedTrace::from(&trace);
        let seeds = [5u64, 6];
        let mut batch = BatchCore::new(&config, 1, 2).unwrap();
        let from_boxed = batch.execute_batch(EventSource::events(&trace), &seeds);
        let from_packed = batch.execute_batch(EventSource::events(&packed), &seeds);
        assert_eq!(from_boxed, from_packed);
    }

    #[test]
    fn identical_seeds_in_one_batch_produce_identical_lanes() {
        let config = PlatformConfig::leon3();
        let trace = stress_trace();
        let mut batch = BatchCore::new(&config, 1, 3).unwrap();
        let results = batch.execute_batch(&trace, &[11, 11, 11]);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn partial_batches_use_a_lane_prefix() {
        let config = PlatformConfig::leon3();
        let trace = stress_trace();
        let mut batch = BatchCore::new(&config, 1, 8).unwrap();
        assert_eq!(batch.lane_count(), 8);
        let results = batch.execute_batch(&trace, &[1, 2]);
        assert_eq!(results.len(), 2);
        // A later, different-sized batch reuses the lanes cleanly.
        let again = batch.execute_batch(&trace, &[1]);
        assert_eq!(again[0], results[0]);
    }

    #[test]
    fn empty_seed_list_is_a_no_op() {
        let config = PlatformConfig::leon3();
        let mut batch = BatchCore::new(&config, 1, 2).unwrap();
        assert!(batch.execute_batch(stress_trace(), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed the")]
    fn too_many_seeds_panic() {
        let mut batch = BatchCore::new(&PlatformConfig::leon3(), 1, 2).unwrap();
        batch.execute_batch(Trace::new(), &[1, 2, 3]);
    }

    #[test]
    fn zero_lanes_is_clamped_to_one() {
        for tasks in [1, 3] {
            let batch = BatchCore::new(&PlatformConfig::leon3(), tasks, 0).unwrap();
            assert_eq!((batch.lane_count(), batch.task_count()), (1, tasks));
        }
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let mut core = BatchCore::new(&PlatformConfig::leon3(), 1, 1).unwrap();
        assert_eq!(core.execute_batch(Trace::new(), &[3])[0].0, 0);
    }

    #[test]
    fn cycles_are_sum_of_event_latencies() {
        let config = PlatformConfig::leon3_deterministic();
        let lat = config.latencies;
        let mut trace = Trace::new();
        trace.load(Address::new(0x9000)); // cold miss -> memory
        trace.load(Address::new(0x9000)); // L1 hit
        trace.compute(5);
        let mut core = BatchCore::new(&config, 1, 1).unwrap();
        let expected = (lat.l1_hit + lat.l2_hit + lat.memory) as u64 + lat.l1_hit as u64 + 5;
        assert_eq!(core.execute_batch(&trace, &[0])[0].0, expected);
    }

    #[test]
    fn warm_loop_iterations_are_faster_than_cold_ones() {
        let loop_trace = |iterations: u64| {
            let mut trace = Trace::new();
            for _ in 0..iterations {
                for i in 0..256u64 {
                    trace.fetch(Address::new(0x1000 + (i % 8) * 32));
                    trace.load(Address::new(0x10_0000 + i * 32));
                    trace.compute(1);
                }
            }
            trace
        };
        let mut core = BatchCore::new(&PlatformConfig::leon3_deterministic(), 1, 1).unwrap();
        let cold = core.execute_batch(loop_trace(1), &[0])[0].0;
        let both = core.execute_batch(loop_trace(2), &[0])[0].0;
        assert!(
            both - cold < cold,
            "the second, warm iteration was not faster"
        );
    }

    #[test]
    fn runs_differ_across_seeds_for_stressing_footprint() {
        // 20KB data footprint: larger than the L1, the regime where layouts
        // matter most (Figure 5 of the paper).
        let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::HashRandom);
        let mut trace = Trace::new();
        for _ in 0..4 {
            for i in 0..640u64 {
                trace.fetch(Address::new(0x1000 + (i % 8) * 32));
                trace.load(Address::new(0x10_0000 + i * 32));
            }
        }
        let seeds: Vec<u64> = (0..10u64).map(|s| s * 7 + 1).collect();
        let mut batch = BatchCore::new(&config, 1, seeds.len()).unwrap();
        let distinct: std::collections::BTreeSet<u64> = batch
            .execute_batch(&trace, &seeds)
            .iter()
            .map(|run| run.0)
            .collect();
        assert!(
            distinct.len() > 1,
            "execution time never varied across seeds"
        );
    }

    #[test]
    fn stats_reflect_trace_composition() {
        let mut trace = Trace::new();
        trace.fetch(Address::new(0));
        trace.load(Address::new(0x100));
        trace.store(Address::new(0x200));
        let mut core = BatchCore::new(&PlatformConfig::leon3_deterministic(), 1, 1).unwrap();
        let (_, stats) = core.execute_batch(&trace, &[0])[0];
        assert_eq!(stats.il1.accesses, 1);
        assert_eq!(stats.dl1.accesses, 2);
        assert_eq!(stats.dl1.stores, 1);
    }
}
