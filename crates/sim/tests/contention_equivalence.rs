//! Solo-task equivalence of the contention engine.
//!
//! The acceptance property of the shared-L2 platform: a contended campaign
//! with one real task and idle (empty-trace) opponents must reproduce the
//! single-task protocol **bit-identically** — same cycles, same per-run
//! `HierarchyStats` — for every placement policy.  Two layers are pinned:
//!
//! * the engine itself: `BatchCore` replaying a K-task schedule with idle
//!   opponents (the interleave-and-replay path, no idle routing) against
//!   the same engine streaming the one task, and
//! * `Campaign::run_contended` (which replays an idle co-schedule's
//!   victim as the one task of the schedule) against
//!   `Campaign::run_seeds`.
//!
//! A third property pins the execution-geometry invariance of contended
//! campaigns: one `ContendedResult`, reproduced bit-for-bit across every
//! lanes × threads grid point (the lane knob sizes the lane groups that
//! replay the shared schedule).

mod common;

use common::{event_strategy, expand};
use proptest::prelude::*;
use randmod_core::{Address, PlacementKind};
use randmod_sim::contention::ContendedSchedule;
use randmod_sim::{BatchCore, Campaign, PlatformConfig, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// K tasks with idle opponents are the one task alone, for every
    /// placement and arbitrary traces/seeds — one lane per seed and all
    /// seeds in one wave.
    #[test]
    fn contended_engine_with_idle_opponents_matches_the_solo_engine(
        events in prop::collection::vec(event_strategy(), 1..300),
        seeds in prop::collection::vec(any::<u64>(), 1..5),
        placement_index in 0usize..4,
        opponents in 1usize..3,
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let trace = expand(&events);
        let tasks = 1 + opponents;
        let streams = || {
            let mut streams = vec![trace.iter().copied()];
            streams.extend((0..opponents).map(|_| [].iter().copied()));
            streams
        };
        let solo = BatchCore::new(&config, 1, seeds.len()).unwrap().execute_batch(&trace, &seeds);
        let schedule = ContendedSchedule::round_robin(&config, tasks, streams());
        let mut one_lane = BatchCore::new(&config, tasks, 1).unwrap();
        for (&seed, &expected) in seeds.iter().zip(&solo) {
            let results = one_lane.execute_schedule(&schedule, &[seed]).remove(0);
            prop_assert_eq!(results[0], expected);
            for idle in &results[1..] {
                prop_assert_eq!(idle.0, 0);
            }
        }
        let wave = BatchCore::new(&config, tasks, seeds.len())
            .unwrap()
            .execute_schedule(&schedule, &seeds);
        for (runs, &expected) in wave.iter().zip(&solo) {
            prop_assert_eq!(runs[0], expected);
        }
    }

    /// One contended campaign, every lanes × threads grid point: the
    /// `ContendedResult` must reproduce bit-for-bit — per-task cycles,
    /// per-task statistics, run order — whatever the execution geometry:
    /// one-lane waves (`lanes == 1`), partial batches and full lane groups.
    #[test]
    fn contended_results_are_lane_and_thread_invariant(
        victim_events in prop::collection::vec(event_strategy(), 1..200),
        opponent_events in prop::collection::vec(event_strategy(), 1..200),
        campaign_seed in any::<u64>(),
        placement_index in 0usize..4,
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let sources = [expand(&victim_events), expand(&opponent_events)];
        let seeds: Vec<u64> = (0..11u64).map(|i| campaign_seed ^ (i * 0x9E37_79B9)).collect();
        let reference = Campaign::new(config, 0)
            .with_threads(1)
            .with_lanes(1)
            .run_contended(&sources, &seeds)
            .unwrap();
        // A campaign of several tasks steps every width as given: 2 and 3
        // split each chunk into several full groups, 7 adds ragged thread
        // chunks, and the default width fills one whole group of a
        // single-thread chunk; 11 seeds make every width end on a partial
        // final group (11 = 5x2+1 = 3x3+2 = 7+4 = 8+3).
        for lanes in [2, 3, 7, Campaign::DEFAULT_LANES] {
            for threads in [1usize, 3] {
                let result = Campaign::new(config, 0)
                    .with_threads(threads)
                    .with_lanes(lanes)
                    .run_contended(&sources, &seeds)
                    .unwrap();
                prop_assert_eq!(&result, &reference);
            }
        }
    }

    /// `run_contended` with an idle co-schedule is `run_seeds`, across the
    /// threads knob and one-lane and default-width waves.
    #[test]
    fn run_contended_solo_matches_run_seeds(
        events in prop::collection::vec(event_strategy(), 1..250),
        campaign_seed in any::<u64>(),
        placement_index in 0usize..4,
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let trace = expand(&events);
        let seeds: Vec<u64> = (0..9u64).map(|i| campaign_seed ^ (i * 0x9E37_79B9)).collect();
        let reference = Campaign::new(config, 0)
            .with_threads(2)
            .run_seeds(&trace, &seeds)
            .unwrap();
        for threads in [1usize, 3] {
            for lanes in [1, Campaign::DEFAULT_LANES] {
                let contended = Campaign::new(config, 0)
                    .with_threads(threads)
                    .with_lanes(lanes)
                    .run_contended(&[trace.clone(), Trace::new()], &seeds)
                    .unwrap();
                prop_assert_eq!(contended.victim_result(), reference.clone());
            }
        }
    }
}

/// A contended campaign is a pure function of its seeds: identical seeds
/// give identical per-task outcomes within one campaign, and re-running
/// the campaign reproduces every run exactly (nothing depends on thread
/// timing).
#[test]
fn contended_schedule_is_a_pure_function_of_the_seed() {
    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let mut victim = Trace::new();
    let mut opponent = Trace::new();
    for i in 0..2_000u64 {
        victim.fetch(Address::new(0x1000 + (i % 32) * 32));
        victim.load(Address::new(0x10_0000 + (i % 1024) * 32));
        opponent.load(Address::new(0x80_0000 + (i % 4096) * 32));
    }
    let sources = [victim, opponent];
    let campaign = Campaign::new(config, 0);
    let result = campaign.run_contended(&sources, &[5, 5, 9]).unwrap();
    // Identical seeds → identical task outcomes within one campaign.
    assert_eq!(result.runs()[0].tasks, result.runs()[1].tasks);
    // A different seed changes the layout (and generally the outcome),
    // but re-running the campaign reproduces everything.
    let again = campaign.run_contended(&sources, &[5, 5, 9]).unwrap();
    assert_eq!(result, again);
}
