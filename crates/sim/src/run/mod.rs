//! Measurement campaigns.
//!
//! MBPTA collects execution-time observations by running the program many
//! times (the paper uses 1,000 runs per benchmark), installing a fresh
//! placement seed before each run so that every run samples a new random
//! cache layout.  [`Campaign`] automates this protocol, executing runs in
//! parallel across threads *and* in batches of seed lanes within each
//! thread (each run is independent by construction): the program is
//! decoded and run-collapsed once per campaign into a schedule, and every
//! worker owns a [`crate::batch::BatchCore`] that replays it once per
//! group of [`Campaign::lanes`] seeds instead of once per run.  The
//! program is any [`EventSource`](crate::trace::EventSource) — a boxed
//! [`Trace`](crate::trace::Trace), a packed [`crate::packed::PackedTrace`],
//! or a slice of events — shared read-only across the worker threads.
//!
//! A solo campaign is the one-task case of a contended one: both run on
//! one worker pool ([`Campaign::run_contended`]).  The round-robin
//! co-schedule is seed-independent, so it is computed once per campaign
//! and replayed across placement-seed lanes by each worker.
//!
//! For the deterministic baseline of Figure 4(b), the execution time does
//! not vary with a seed but with the *memory layout* of the program; the
//! corresponding protocol, sweeping layouts and recording the high-water
//! mark, is provided by [`Campaign::run_layout_sweep_with`], which builds
//! one layout's trace at a time and streams it through a one-task,
//! one-lane [`crate::batch::BatchCore`] wave, keeping the sweep's memory
//! footprint constant.
//!
//! Every protocol therefore runs on the one lane engine; the naive model
//! in the `reference_model` test suite is its independent oracle.
//!
//! The module is organised by protocol:
//!
//! * [`schedule`](self) — the scaffolding every protocol shares: the
//!   scoped worker-thread fan-out and the campaign's deterministic seed
//!   schedule.
//! * [`engine`](self) — the solo seed sweep ([`Campaign::run`],
//!   [`Campaign::run_seeds`]) and the deterministic layout sweep, plus
//!   [`RunResult`] / [`CampaignResult`].
//! * [`contended`](self) — the worker pool every seed sweep runs on and
//!   the shared-L2 multi-task sweep ([`Campaign::run_contended`]), plus
//!   [`TaskRun`] / [`ContendedRun`] / [`ContendedResult`].
//! * [`adaptive`](self) — the convergence-driven drivers
//!   ([`Campaign::run_adaptive`], [`Campaign::run_contended_adaptive`]),
//!   plus [`AdaptiveResult`] / [`ContendedAdaptiveResult`].
//! * [`shard`](self) — the crash-safe sharded drivers
//!   ([`Campaign::run_sharded_checkpointed`],
//!   [`Campaign::run_contended_sharded_checkpointed`]): deterministic
//!   contiguous shards over the seed schedule, merged bit-identical to the
//!   unsharded run, with checkpoint/resume through a
//!   [`crate::checkpoint::CheckpointStore`]; plus [`ShardSpec`] /
//!   [`ShardedReport`] / [`CampaignError`].

mod adaptive;
mod contended;
mod engine;
mod schedule;
mod shard;

pub use adaptive::{AdaptiveResult, ContendedAdaptiveResult};
pub use contended::{ContendedResult, ContendedRun, TaskRun};
pub use engine::{CampaignResult, RunResult};
pub use shard::{decode_solo_runs, encode_solo_runs, CampaignError, ShardSpec, ShardedReport};

use crate::config::PlatformConfig;
use randmod_core::SetAssocCacheLanes;

/// A measurement campaign: a platform configuration plus a run count.
///
/// ```
/// use randmod_sim::{Campaign, PlatformConfig, Trace};
/// use randmod_core::{Address, PlacementKind};
///
/// # fn main() -> Result<(), randmod_core::ConfigError> {
/// let mut trace = Trace::new();
/// for i in 0..64u64 {
///     trace.load(Address::new(0x1000 + i * 32));
/// }
/// let campaign = Campaign::new(
///     PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
///     10,
/// );
/// let result = campaign.run(&trace)?;
/// assert_eq!(result.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    config: PlatformConfig,
    runs: usize,
    campaign_seed: u64,
    threads: usize,
    lanes: usize,
}

impl Campaign {
    /// Default number of seed lanes stepped per trace decode (see
    /// [`Self::with_lanes`]), the one width of every seeded protocol: solo,
    /// idle and round-robin contended, adaptive and sharded.
    ///
    /// Measured with lane outcomes booked as masks, byte-identical output
    /// at every width: `fig4a_rm_vs_hrp --threads 1 --lanes K` (the seeded
    /// placements, RM and hRP, that MBPTA campaigns sweep) ran in a median
    /// 4.82 s at K = 1, 2.97 s at 2, 1.99 s at 4, 1.67 s at 8 and 1.31 s
    /// at 16 over 5 alternating rounds; `fig6_contention --runs 300
    /// --threads 1 --lanes 8` ran in 9.09 s with contended groups held to
    /// two lanes, 6.06 s at four and 5.08 s at eight.  Wider waves
    /// amortise the per-operation decode, dispatch and shared booking over
    /// more lanes, while the lane-major tag arrays and per-lane placement
    /// state grow linearly with K, most steeply for a contended lane, which
    /// holds a whole co-schedule (per-task L1 pairs plus a shared L2).
    /// Memory sets the limit: against four lanes, eight added 5.6% to the
    /// `contended_l2` benchmark's peak RSS and sixteen over 14%, past the
    /// benchmark's 10% bound (EXPERIMENTS.md records the sweeps and the
    /// A/B that set this value).
    pub const DEFAULT_LANES: usize = 8;

    /// Creates a campaign of `runs` runs on the given platform.
    pub fn new(config: PlatformConfig, runs: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Campaign {
            config,
            runs,
            campaign_seed: 0x00C0_FFEE,
            threads,
            lanes: Self::DEFAULT_LANES,
        }
    }

    /// Overrides the campaign-level seed from which per-run seeds are drawn.
    pub fn with_campaign_seed(mut self, seed: u64) -> Self {
        self.campaign_seed = seed;
        self
    }

    /// Overrides the number of worker threads (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the number of seed lanes each worker steps per trace
    /// decode (clamped to 1..=[`SetAssocCacheLanes::MAX_LANES`], the width
    /// of a lane mask; the default is [`Self::DEFAULT_LANES`]).
    ///
    /// Lanes compose with threads: a campaign of `N` runs on `T` threads
    /// replays its schedule `N / (T * lanes)` times per thread.  Results
    /// are bit-identical for every `(threads, lanes)` combination, for
    /// solo *and* contended campaigns, each of which steps `lanes`
    /// placement seeds per schedule pass.  `with_lanes(1)` runs every
    /// protocol as one-lane waves on the one engine — the reference every
    /// width must reproduce bit for bit, not a different engine.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.clamp(1, SetAssocCacheLanes::MAX_LANES);
        self
    }

    /// Number of seed lanes per worker.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The platform configuration of this campaign.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Number of runs this campaign performs.
    pub fn runs(&self) -> usize {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyStats;
    use crate::trace::{MemEvent, Trace};
    use randmod_core::prng::SeedSequence;
    use randmod_core::{Address, PlacementKind};

    fn stress_trace() -> Trace {
        let mut trace = Trace::new();
        for repeat in 0..3 {
            for i in 0..640u64 {
                trace.fetch(Address::new(0x1000 + (i % 16) * 32));
                trace.load(Address::new(0x10_0000 + i * 32 + repeat));
            }
        }
        trace
    }

    #[test]
    fn campaign_produces_requested_number_of_runs() {
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            8,
        )
        .with_threads(2);
        let result = campaign.run(&stress_trace()).unwrap();
        assert_eq!(result.len(), 8);
        assert!(result.min_cycles() > 0);
        assert!(result.max_cycles() >= result.min_cycles());
        assert!(result.mean_cycles() >= result.min_cycles() as f64);
    }

    #[test]
    fn campaign_is_reproducible_for_a_given_campaign_seed() {
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::HashRandom),
            6,
        )
        .with_campaign_seed(42)
        .with_threads(3);
        let trace = stress_trace();
        let a = campaign.run(&trace).unwrap();
        let b = campaign.run(&trace).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let trace = stress_trace();
        let single = Campaign::new(PlatformConfig::leon3(), 6)
            .with_campaign_seed(7)
            .with_threads(1)
            .run(&trace)
            .unwrap();
        let multi = Campaign::new(PlatformConfig::leon3(), 6)
            .with_campaign_seed(7)
            .with_threads(4)
            .run(&trace)
            .unwrap();
        assert_eq!(single.cycles(), multi.cycles());
    }

    #[test]
    fn lanes_and_threads_do_not_change_results() {
        // The full grid of the batching knobs must reproduce one
        // CampaignResult bit-for-bit (including per-run HierarchyStats) for
        // a fixed campaign seed.
        let trace = stress_trace();
        let reference = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            13,
        )
        .with_campaign_seed(99)
        .with_threads(1)
        .with_lanes(1)
        .run(&trace)
        .unwrap();
        for lanes in [1usize, 2, 7] {
            for threads in [1usize, 4] {
                let result = Campaign::new(
                    PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
                    13,
                )
                .with_campaign_seed(99)
                .with_threads(threads)
                .with_lanes(lanes)
                .run(&trace)
                .unwrap();
                assert_eq!(
                    result, reference,
                    "lanes={lanes} threads={threads} diverged from the sequential reference"
                );
            }
        }
    }

    #[test]
    fn lane_accessors_and_clamping() {
        let campaign = Campaign::new(PlatformConfig::leon3(), 4);
        assert_eq!(campaign.lanes(), Campaign::DEFAULT_LANES);
        assert_eq!(campaign.clone().with_lanes(0).lanes(), 1);
        assert_eq!(campaign.clone().with_lanes(1000).lanes(), 64);
        assert_eq!(campaign.with_lanes(3).lanes(), 3);
    }

    #[test]
    fn empty_campaign_is_empty() {
        let campaign = Campaign::new(PlatformConfig::leon3(), 0);
        let result = campaign.run(&stress_trace()).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.mean_cycles(), 0.0);
        assert_eq!(result.max_cycles(), 0);
    }

    #[test]
    fn run_seeds_uses_exactly_the_given_seeds() {
        let campaign = Campaign::new(PlatformConfig::leon3(), 0).with_threads(2);
        let trace = stress_trace();
        let seeds = [3u64, 1, 4, 1, 5];
        let result = campaign.run_seeds(&trace, &seeds).unwrap();
        let recorded: Vec<u64> = result.runs().iter().map(|r| r.seed).collect();
        assert_eq!(recorded, seeds);
        // Identical seeds must give identical execution times.
        assert_eq!(result.runs()[1].cycles, result.runs()[3].cycles);
    }

    #[test]
    fn deterministic_layout_sweep_records_layout_indices() {
        let campaign = Campaign::new(PlatformConfig::leon3_deterministic(), 0).with_threads(2);
        let base = stress_trace();
        let layouts: Vec<Trace> = (0..5u64)
            .map(|i| base.with_offsets(i * 64, i * 4096))
            .collect();
        let sweep = || {
            campaign
                .run_layout_sweep_with(layouts.len(), |i| &layouts[i])
                .unwrap()
        };
        let result = sweep();
        assert_eq!(result.len(), 5);
        let indices: Vec<u64> = result.runs().iter().map(|r| r.seed).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        // Deterministic platform: re-running the sweep reproduces it.
        assert_eq!(result, sweep());
    }

    #[test]
    fn empty_layout_sweep_is_empty() {
        let campaign = Campaign::new(PlatformConfig::leon3_deterministic(), 0);
        assert!(campaign
            .run_layout_sweep_with(0, |_| Trace::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn streamed_layout_sweep_matches_collected_sweep() {
        let campaign = Campaign::new(PlatformConfig::leon3_deterministic(), 0).with_threads(3);
        let base = stress_trace();
        let layouts: Vec<Trace> = (0..7u64)
            .map(|i| base.with_offsets(i * 64, i * 4096))
            .collect();
        let collected = campaign
            .run_layout_sweep_with(layouts.len(), |i| &layouts[i])
            .unwrap();
        let streamed = campaign
            .run_layout_sweep_with(7, |i| base.with_offsets(i as u64 * 64, i as u64 * 4096))
            .unwrap();
        assert_eq!(collected, streamed);
    }

    #[test]
    fn packed_replay_matches_boxed_replay() {
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            10,
        )
        .with_campaign_seed(11)
        .with_threads(2);
        let trace = stress_trace();
        let packed = crate::packed::PackedTrace::from(&trace);
        assert_eq!(
            campaign.run(&trace).unwrap(),
            campaign.run(&packed).unwrap()
        );
    }

    #[test]
    fn campaign_accepts_event_slices() {
        let events: Vec<MemEvent> = stress_trace().into_iter().collect();
        let campaign = Campaign::new(PlatformConfig::leon3(), 4).with_threads(2);
        let from_slice = campaign.run(&events[..]).unwrap();
        let from_trace = campaign.run(&stress_trace()).unwrap();
        assert_eq!(from_slice, from_trace);
    }

    #[test]
    fn random_placement_produces_execution_time_variability() {
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::HashRandom),
            20,
        )
        .with_threads(4);
        let result = campaign.run(&stress_trace()).unwrap();
        assert!(
            result.max_cycles() > result.min_cycles(),
            "no execution-time variability across 20 random layouts"
        );
    }

    fn opponent_trace() -> Trace {
        let mut trace = Trace::new();
        for i in 0..3000u64 {
            trace.load(Address::new(0x40_0000 + (i % 4096) * 32));
        }
        trace
    }

    #[test]
    fn contended_campaign_produces_per_task_runs() {
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            0,
        )
        .with_threads(2);
        let sources = [stress_trace(), opponent_trace()];
        let seeds = [1u64, 2, 3, 4, 5];
        let result = campaign.run_contended(&sources, &seeds).unwrap();
        assert_eq!(result.len(), 5);
        assert_eq!(result.task_count(), 2);
        let recorded: Vec<u64> = result.runs().iter().map(|r| r.seed).collect();
        assert_eq!(recorded, seeds);
        for run in result.runs() {
            assert!(run.tasks[0].cycles > 0 && run.tasks[1].cycles > 0);
            let aggregate = run.aggregate_stats();
            assert_eq!(
                aggregate.l2.accesses,
                run.tasks[0].stats.l2.accesses + run.tasks[1].stats.l2.accesses
            );
        }
        assert!(result.to_string().contains("contended runs"));
    }

    #[test]
    fn contended_campaign_is_thread_invariant() {
        let sources = [stress_trace(), opponent_trace()];
        let seeds: Vec<u64> = (0..7).collect();
        let run = |threads: usize| {
            Campaign::new(PlatformConfig::leon3(), 0)
                .with_threads(threads)
                .run_contended(&sources, &seeds)
                .unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn contended_lanes_and_threads_do_not_change_results() {
        // The contended analogue of `lanes_and_threads_do_not_change_results`:
        // the full grid of the batching knobs must reproduce one
        // ContendedResult bit-for-bit (per-task cycles *and* stats) against
        // the single-thread one-lane reference.
        let sources = [stress_trace(), opponent_trace()];
        let seeds: Vec<u64> = (0..11).map(|i| 0xFEED ^ (i * 0x9E37_79B9)).collect();
        let reference = Campaign::new(PlatformConfig::leon3(), 0)
            .with_threads(1)
            .with_lanes(1)
            .run_contended(&sources, &seeds)
            .unwrap();
        for lanes in [1usize, 2, 7, Campaign::DEFAULT_LANES] {
            for threads in [1usize, 4] {
                let result = Campaign::new(PlatformConfig::leon3(), 0)
                    .with_threads(threads)
                    .with_lanes(lanes)
                    .run_contended(&sources, &seeds)
                    .unwrap();
                assert_eq!(
                    result, reference,
                    "lanes={lanes} threads={threads} diverged"
                );
            }
        }
    }

    #[test]
    fn with_lanes_one_contended_runs_one_lane_waves() {
        // `with_lanes(1)` is not a different engine: every run is a
        // one-lane replay of the round-robin schedule.
        use crate::batch::BatchCore;
        use crate::contention::ContendedSchedule;
        let config = PlatformConfig::leon3();
        let sources = [stress_trace(), opponent_trace()];
        let seeds = [4u64, 18, 0xC0FFEE];
        let result = Campaign::new(config, 0)
            .with_threads(1)
            .with_lanes(1)
            .run_contended(&sources, &seeds)
            .unwrap();
        let streams = sources.iter().map(|s| s.iter().copied()).collect();
        let schedule = ContendedSchedule::round_robin(&config, 2, streams);
        let mut one_lane = BatchCore::new(&config, 2, 1).unwrap();
        for (run, &seed) in result.runs().iter().zip(&seeds) {
            let reference = one_lane.execute_schedule(&schedule, &[seed]).remove(0);
            assert_eq!(run.seed, seed);
            let tasks: Vec<(u64, HierarchyStats)> =
                run.tasks.iter().map(|t| (t.cycles, t.stats)).collect();
            assert_eq!(tasks, reference, "seed {seed}");
        }
    }

    #[test]
    fn solo_contended_campaign_matches_run_seeds_bit_for_bit() {
        // The acceptance criterion: one task plus an idle opponent must
        // reproduce the single-task batched protocol exactly.
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            0,
        )
        .with_threads(2);
        let victim = stress_trace();
        let seeds = [9u64, 8, 7, 6];
        let solo = campaign.run_seeds(&victim, &seeds).unwrap();
        let contended = campaign
            .run_contended(&[victim.clone(), Trace::new()], &seeds)
            .unwrap();
        assert_eq!(contended.victim_result(), solo);
        for run in contended.runs() {
            assert_eq!(
                run.tasks[1],
                TaskRun {
                    cycles: 0,
                    stats: HierarchyStats::default()
                }
            );
        }
    }

    #[test]
    fn contended_campaign_default_schedule_matches_run() {
        // `run_contended_campaign` owns the default-schedule convention:
        // a solo co-schedule must reproduce `run()` bit for bit.
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            7,
        )
        .with_campaign_seed(17)
        .with_threads(2);
        let victim = stress_trace();
        let solo = campaign.run(&victim).unwrap();
        let contended = campaign
            .run_contended_campaign(&[victim.clone(), Trace::new()])
            .unwrap();
        assert_eq!(contended.victim_result(), solo);
        assert_eq!(contended.len(), 7);
    }

    #[test]
    fn contended_result_accessors_and_empty_cases() {
        let campaign = Campaign::new(PlatformConfig::leon3(), 0);
        assert!(campaign
            .run_contended::<Trace>(&[], &[1, 2])
            .unwrap()
            .is_empty());
        assert!(campaign
            .run_contended(&[stress_trace()], &[])
            .unwrap()
            .is_empty());
        assert_eq!(ContendedResult::default().task_count(), 0);
        let flat: Vec<u64> = ContendedResult::from_runs(vec![ContendedRun {
            seed: 1,
            tasks: vec![
                TaskRun {
                    cycles: 10,
                    stats: HierarchyStats::default(),
                },
                TaskRun {
                    cycles: 20,
                    stats: HierarchyStats::default(),
                },
            ],
        }])
        .flat_cycles_iter()
        .collect();
        assert_eq!(flat, vec![10, 20]);
    }

    #[test]
    fn contended_adaptive_runs_are_a_prefix_of_the_fixed_schedule() {
        use randmod_mbpta::online::ConvergenceCriterion;
        let campaign = Campaign::new(
            PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            0,
        )
        .with_campaign_seed(31)
        .with_threads(2);
        let sources = [stress_trace(), opponent_trace()];
        let criterion = ConvergenceCriterion::default()
            .with_min_runs(10)
            .with_check_interval(5)
            .with_max_runs(25)
            .with_block_size(5);
        let adaptive = campaign
            .run_contended_adaptive(&sources, &criterion)
            .unwrap();
        assert!(adaptive.runs_used() >= 10 && adaptive.runs_used() <= 25);
        assert!(!adaptive.trajectory().is_empty());
        assert!(adaptive.pwcet_estimate() > 0.0);
        // Prefix identity against the fixed schedule.
        let seeds: Vec<u64> = SeedSequence::new(31).take(adaptive.runs_used()).collect();
        let fixed = campaign.run_contended(&sources, &seeds).unwrap();
        assert_eq!(adaptive.result(), &fixed);
    }

    #[test]
    fn campaign_result_display() {
        let result = CampaignResult::from_runs(vec![RunResult {
            seed: 1,
            cycles: 100,
            stats: HierarchyStats::default(),
        }]);
        assert!(result.to_string().contains("1 runs"));
    }

    #[test]
    fn accessors_expose_configuration() {
        let campaign = Campaign::new(PlatformConfig::leon3(), 12);
        assert_eq!(campaign.runs(), 12);
        assert_eq!(campaign.config(), &PlatformConfig::leon3());
    }
}
