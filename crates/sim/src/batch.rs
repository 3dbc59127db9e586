//! Seed-batched replay: decode the trace once, simulate many seeds.
//!
//! An MBPTA campaign replays one immutable trace under ~1,000 placement
//! seeds.  The sequential protocol pays the trace decode (and its memory
//! traffic) once *per run*; [`BatchCore`] instead steps `K` independent
//! *seed lanes* through every event as it is decoded, so a campaign of
//! `N` runs streams the trace `N / K` times instead of `N`.  Since the
//! wavefront rewrite the lanes are not `K` separate hierarchies but one
//! `LaneHierarchy` (crate-private, in `crate::hierarchy`) of lane-banked caches
//! ([`randmod_core::cache::SetAssocCacheLanes`]): each decoded operation
//! is pushed through all `K` lanes as one probe wave over lane-major tag
//! storage, with the per-lane placement indices, tag compares, victim
//! draws and statistics updates evaluated in chunked cross-lane sweeps.
//!
//! Lanes never interact: each lane is reseeded with its own placement
//! seed and observes exactly the event sequence a sequential replay would
//! feed it, so batched results are bit-identical to running the lanes one
//! at a time (pinned by the `batch_equivalence` proptest suite and the
//! campaign tests) and to the naive reference model (the
//! `reference_model` suite).  Per-run statistics are accumulated in each
//! lane's compact counter block and expanded to [`HierarchyStats`] once
//! per run, instead of read-modify-writing the per-cache statistics
//! structs on every event.
//!
//! Every solo protocol of [`crate::run::Campaign`] runs on `BatchCore`:
//! the MBPTA seed sweep steps `Campaign::lanes` seeds per pass
//! (`with_lanes(1)` gives one-lane waves, the comparison baseline of the
//! `campaign_throughput` benchmark), and the deterministic layout sweep
//! replays each layout as a one-lane wave under seed 0.

use crate::config::PlatformConfig;
use crate::hierarchy::{HierarchyStats, LaneHierarchy, RunCounters};
use crate::lanes::{collapse_solo, replay_collapsed, replay_ops, LaneStepper, Op};
use crate::trace::MemEvent;
use randmod_core::{Address, ConfigError, LineAddr};

/// A replay engine stepping up to `K` independent placement seeds per
/// trace decode.
///
/// ```
/// use randmod_sim::{BatchCore, PlatformConfig, Trace};
/// use randmod_core::{Address, PlacementKind};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
/// let mut trace = Trace::new();
/// for i in 0..256u64 {
///     trace.load(Address::new(0x1000 + i * 32));
/// }
///
/// // One decode pass, four seeds simulated.
/// let mut batch = BatchCore::new(&config, 4)?;
/// let results = batch.execute_batch(&trace, &[1, 2, 3, 4]);
///
/// // Bit-identical to replaying each seed on its own one-lane wave.
/// let mut sequential = BatchCore::new(&config, 1)?;
/// for (seed, run) in [1u64, 2, 3, 4].into_iter().zip(&results) {
///     assert_eq!(sequential.execute_batch(&trace, &[seed])[0], *run);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchCore {
    hierarchy: LaneHierarchy,
    /// Per-lane cycle counters and statistics blocks (lane capacity long;
    /// the active prefix is in use during a batch).
    cycles: Vec<u64>,
    counters: Vec<RunCounters>,
    /// Offset bits of the IL1 / DL1 geometry, used to detect runs of
    /// consecutive same-line reads in the decode loop.
    il1_shift: u32,
    dl1_shift: u32,
}

impl BatchCore {
    /// Builds a batched core with `lanes` seed lanes (clamped to at least
    /// one) on the given platform.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: &PlatformConfig, lanes: usize) -> Result<Self, ConfigError> {
        let hierarchy = LaneHierarchy::new(config, lanes)?;
        let capacity = hierarchy.lane_count();
        Ok(BatchCore {
            hierarchy,
            cycles: vec![0; capacity],
            counters: vec![RunCounters::default(); capacity],
            il1_shift: config.il1.geometry.offset_bits(),
            dl1_shift: config.dl1.geometry.offset_bits(),
        })
    }

    /// Number of seed lanes.
    pub fn lane_count(&self) -> usize {
        self.cycles.len()
    }

    /// Replays `events` once, simulating one run per seed in `seeds` (cold
    /// caches, fresh placement layout per lane, statistics from zero) —
    /// the "run to completion" unit of analysis the paper uses.  Accepts
    /// anything that iterates [`MemEvent`]s by value (`&Trace`,
    /// `&PackedTrace`, a decoding or generating iterator); the stream is
    /// consumed on the fly, never materialised.  Returns `(cycles, stats)`
    /// per seed, in seed order.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` holds more seeds than there are lanes.
    pub fn execute_batch<I>(&mut self, events: I, seeds: &[u64]) -> Vec<(u64, HierarchyStats)>
    where
        I: IntoIterator<Item = MemEvent>,
    {
        assert!(
            seeds.len() <= self.lane_count(),
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lane_count()
        );
        let active = seeds.len();
        self.hierarchy.reseed_wave(seeds);
        self.cycles[..active].fill(0);
        self.counters[..active].fill(RunCounters::default());
        // The hot loop lives in `crate::lanes::replay_collapsed`: each
        // event is decoded exactly once — with same-line read runs
        // collapsed at decode time — before fanning out as one wave over
        // all active lanes through the stepper below.
        let mut stepper = SoloLanes {
            hierarchy: &mut self.hierarchy,
            cycles: &mut self.cycles[..active],
            counters: &mut self.counters[..active],
        };
        replay_collapsed(events, self.il1_shift, self.dl1_shift, &mut stepper);
        self.cycles[..active]
            .iter()
            .zip(&self.counters[..active])
            .map(|(&cycles, counters)| (cycles, counters.into_stats()))
            .collect()
    }

    /// Collapses `events` into the [`Op`] schedule [`Self::execute_batch`]
    /// would derive on the fly, for replay via
    /// [`Self::execute_batch_ops`].  A campaign collapses the trace once
    /// per worker and replays the schedule for every lane group, instead
    /// of re-decoding the packed trace `runs / K` times.
    pub(crate) fn collapse<I>(&self, events: I) -> Vec<Op>
    where
        I: IntoIterator<Item = MemEvent>,
    {
        collapse_solo(events, self.il1_shift, self.dl1_shift)
    }

    /// [`Self::execute_batch`] over a precollapsed schedule from
    /// [`Self::collapse`]: bit-identical results, no per-batch decode.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` holds more seeds than there are lanes.
    pub(crate) fn execute_batch_ops(
        &mut self,
        ops: &[Op],
        seeds: &[u64],
    ) -> Vec<(u64, HierarchyStats)> {
        assert!(
            seeds.len() <= self.lane_count(),
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lane_count()
        );
        let active = seeds.len();
        self.hierarchy.reseed_wave(seeds);
        self.cycles[..active].fill(0);
        self.counters[..active].fill(RunCounters::default());
        let mut stepper = SoloLanes {
            hierarchy: &mut self.hierarchy,
            cycles: &mut self.cycles[..active],
            counters: &mut self.counters[..active],
        };
        replay_ops(ops, &mut stepper);
        self.cycles[..active]
            .iter()
            .zip(&self.counters[..active])
            .map(|(&cycles, counters)| (cycles, counters.into_stats()))
            .collect()
    }
}

/// The solo engine's lane fan-out: every collapsed operation becomes one
/// wave through the lane-banked hierarchy (task indices are always 0 on
/// this path).  Collapsed repeats — each a guaranteed L1 hit — are booked
/// inside the wave helpers.
struct SoloLanes<'a> {
    hierarchy: &'a mut LaneHierarchy,
    cycles: &'a mut [u64],
    counters: &'a mut [RunCounters],
}

impl LaneStepper for SoloLanes<'_> {
    #[inline]
    fn fetch(&mut self, _task: usize, addr: Address, line: LineAddr, repeats: u64) {
        self.hierarchy.fetch_wave(addr, line, repeats, self.cycles, self.counters);
    }

    #[inline]
    fn load(&mut self, _task: usize, addr: Address, line: LineAddr, repeats: u64) {
        self.hierarchy.load_wave(addr, line, repeats, self.cycles, self.counters);
    }

    #[inline]
    fn store(&mut self, _task: usize, addr: Address, line: LineAddr) {
        self.hierarchy.store_wave(addr, line, self.cycles, self.counters);
    }

    #[inline]
    fn compute(&mut self, _task: usize, cycles: u64) {
        for lane in self.cycles.iter_mut() {
            *lane += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedTrace;
    use crate::trace::{EventSource, Trace};
    use randmod_core::{Address, PlacementKind, ReplacementKind, WritePolicy};

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
        BatchCore::new(config, 1)
            .unwrap()
            .execute_batch_ops(&ops, &[seed])[0]
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
        let seeds = [0u64, 1, 7, 42, 0xDEAD_BEEF];
        for placement in PlacementKind::ALL {
            let config = PlatformConfig::leon3().with_l1_placement(placement);
            let trace = stress_trace();
            let mut batch = BatchCore::new(&config, seeds.len()).unwrap();
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
                let mut batch = BatchCore::new(&config, seeds.len()).unwrap();
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
        let mut batch = BatchCore::new(&config, 4).unwrap();
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
        let mut batch = BatchCore::new(&config, 2).unwrap();
        let from_boxed = batch.execute_batch(EventSource::events(&trace), &seeds);
        let from_packed = batch.execute_batch(EventSource::events(&packed), &seeds);
        assert_eq!(from_boxed, from_packed);
    }

    #[test]
    fn identical_seeds_in_one_batch_produce_identical_lanes() {
        let config = PlatformConfig::leon3();
        let trace = stress_trace();
        let mut batch = BatchCore::new(&config, 3).unwrap();
        let results = batch.execute_batch(&trace, &[11, 11, 11]);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn partial_batches_use_a_lane_prefix() {
        let config = PlatformConfig::leon3();
        let trace = stress_trace();
        let mut batch = BatchCore::new(&config, 8).unwrap();
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
        let mut batch = BatchCore::new(&config, 2).unwrap();
        assert!(batch.execute_batch(stress_trace(), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed the")]
    fn too_many_seeds_panic() {
        let mut batch = BatchCore::new(&PlatformConfig::leon3(), 2).unwrap();
        batch.execute_batch(Trace::new(), &[1, 2, 3]);
    }

    #[test]
    fn zero_lanes_is_clamped_to_one() {
        let batch = BatchCore::new(&PlatformConfig::leon3(), 0).unwrap();
        assert_eq!(batch.lane_count(), 1);
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let mut core = BatchCore::new(&PlatformConfig::leon3(), 1).unwrap();
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
        let mut core = BatchCore::new(&config, 1).unwrap();
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
        let mut core = BatchCore::new(&PlatformConfig::leon3_deterministic(), 1).unwrap();
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
        let mut batch = BatchCore::new(&config, seeds.len()).unwrap();
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
        let mut core = BatchCore::new(&PlatformConfig::leon3_deterministic(), 1).unwrap();
        let (_, stats) = core.execute_batch(&trace, &[0])[0];
        assert_eq!(stats.il1.accesses, 1);
        assert_eq!(stats.dl1.accesses, 2);
        assert_eq!(stats.dl1.stores, 1);
    }
}
