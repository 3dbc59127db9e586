//! Property-based equivalence of batched and sequential replay.
//!
//! The seed-batched engine must be *bit-identical* to sequential replay —
//! each seed alone on a one-lane wave, same cycle counts and same
//! per-level statistics — for every placement policy, replacement policy
//! and write policy, on arbitrary traces and seed sets: lanes never
//! interact.  (The naive reference model of the `reference_model` suite is
//! the independent oracle both shapes answer to.)

mod common;

use common::{event_strategy, expand, platform};
use proptest::prelude::*;
use randmod_core::{Address, PlacementKind, ReplacementKind, WritePolicy};
use randmod_sim::{BatchCore, Campaign, PackedTrace, PlatformConfig, Trace};

/// A fixed cache-stressing trace for the deterministic edge-case tests.
fn stress_trace() -> Trace {
    let mut trace = Trace::new();
    for repeat in 0..2u64 {
        for i in 0..700u64 {
            trace.fetch(Address::new(0x1000 + (i % 20) * 32));
            trace.load(Address::new(0x10_0000 + i * 36 + repeat));
            if i % 6 == 0 {
                trace.store(Address::new(0x20_0000 + (i % 300) * 32));
            }
        }
    }
    trace
}

/// The sequential single-thread single-lane reference for `runs` runs.
fn sequential_reference(
    config: PlatformConfig,
    runs: usize,
    seed: u64,
) -> randmod_sim::CampaignResult {
    Campaign::new(config, runs)
        .with_campaign_seed(seed)
        .with_threads(1)
        .with_lanes(1)
        .run(&stress_trace())
        .unwrap()
}

#[test]
fn more_lanes_than_runs_matches_the_sequential_path() {
    // A worker sized for 16 lanes receiving a 3-run campaign must use a
    // lane prefix and still be bit-identical to the sequential engine.
    for placement in [PlacementKind::RandomModulo, PlacementKind::HashRandom] {
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let reference = sequential_reference(config, 3, 0x1EAF);
        let wide = Campaign::new(config, 3)
            .with_campaign_seed(0x1EAF)
            .with_threads(1)
            .with_lanes(16)
            .run(&stress_trace())
            .unwrap();
        assert_eq!(wide, reference, "lanes > runs diverged under {placement}");
    }
}

#[test]
fn non_multiple_lane_widths_pin_partial_final_chunks() {
    // 13 runs at widths 3, 5, the default 8 and 16: every width leaves a
    // partial final lane group (13 = 4x3+1 = 2x5+3 = 8+5, and 13 < 16
    // never fills a group), so the wave engine's active-prefix masking —
    // partial `active_mask`, outcome masks clipped to it, filter arming
    // restricted to live lanes — is exercised at the chunk boundary for
    // every placement kind, at the width every campaign runs by default.
    for placement in randmod_core::PlacementKind::ALL {
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let reference = sequential_reference(config, 13, 0xC0DE);
        for lanes in [3usize, 5, Campaign::DEFAULT_LANES, 16] {
            let partial = Campaign::new(config, 13)
                .with_campaign_seed(0xC0DE)
                .with_threads(1)
                .with_lanes(lanes)
                .run(&stress_trace())
                .unwrap();
            assert_eq!(
                partial, reference,
                "partial final chunk diverged at {lanes} lanes under {placement}"
            );
        }
    }
}

#[test]
fn run_count_not_divisible_by_threads_times_lanes_matches_sequential() {
    // 23 runs across 3 threads x 4 lanes: ragged chunks and a partial
    // trailing lane group on every worker.
    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let reference = sequential_reference(config, 23, 0x0DD);
    let ragged = Campaign::new(config, 23)
        .with_campaign_seed(0x0DD)
        .with_threads(3)
        .with_lanes(4)
        .run(&stress_trace())
        .unwrap();
    assert_eq!(ragged, reference);
}

#[test]
fn reseed_between_runs_disarms_the_mru_read_filter() {
    // The lane banks' residency filter (an MRU read filter widened to the
    // whole wave) is armed only under Random replacement, where a repeat
    // read hit mutates no state.  Reseeding between runs flushes every
    // cache; a stale filter entry surviving the flush would turn the first
    // read of the new run into a phantom hit — a silent wrong result.
    // Replaying the same batch twice (execute_batch reseeds every lane)
    // and checking each run against a freshly constructed one-lane core
    // pins the disarm.
    let config = PlatformConfig::leon3()
        .with_l1_placement(PlacementKind::RandomModulo)
        .with_replacement(ReplacementKind::Random);
    let trace = stress_trace();
    let mut batch = BatchCore::new(&config, 1, 4).unwrap();
    // First batch leaves every lane's filter armed on some line.
    let first = batch.execute_batch(&trace, &[11, 22, 33, 44]);
    // Second batch with different seeds reuses the same (warm, armed)
    // lanes; results must match fresh sequential runs exactly.
    let seeds = [55u64, 66, 77, 88];
    let second = batch.execute_batch(&trace, &seeds);
    for (&seed, &(cycles, stats)) in seeds.iter().zip(&second) {
        let mut fresh = BatchCore::new(&config, 1, 1).unwrap();
        assert_eq!(
            fresh.execute_batch(&trace, &[seed])[0],
            (cycles, stats),
            "stale filter state leaked across the reseed for seed {seed}"
        );
    }
    // And re-running the first seeds reproduces the first results.
    assert_eq!(batch.execute_batch(&trace, &[11, 22, 33, 44]), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched replay reproduces sequential replay exactly — cycles and
    /// per-run `HierarchyStats` — across random traces, all four placement
    /// kinds, LRU and Random replacement, and both write policies.
    #[test]
    fn batched_replay_is_bit_identical_to_sequential(
        events in prop::collection::vec(event_strategy(), 1..400),
        seeds in prop::collection::vec(any::<u64>(), 1..9),
        placement_index in 0usize..4,
        replacement_is_lru in any::<bool>(),
        write_back_l1 in any::<bool>(),
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let replacement = if replacement_is_lru {
            ReplacementKind::Lru
        } else {
            ReplacementKind::Random
        };
        let l1_write = if write_back_l1 {
            WritePolicy::WriteBack
        } else {
            WritePolicy::WriteThrough
        };
        let config = platform(placement, replacement, l1_write);
        let trace = expand(&events);

        let mut batch = BatchCore::new(&config, 1, seeds.len()).unwrap();
        let batched = batch.execute_batch(&trace, &seeds);

        let mut sequential = BatchCore::new(&config, 1, 1).unwrap();
        for (&seed, &run) in seeds.iter().zip(&batched) {
            prop_assert_eq!(run, sequential.execute_batch(&trace, &[seed])[0]);
        }
    }

    /// The campaign produces one bit-identical `CampaignResult` for every
    /// `(lanes, threads)` combination, from packed and boxed sources alike.
    #[test]
    fn campaign_result_is_invariant_under_lanes_and_threads(
        events in prop::collection::vec(event_strategy(), 1..250),
        campaign_seed in any::<u64>(),
        placement_index in 0usize..4,
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let trace = expand(&events);
        let packed = PackedTrace::from(&trace);
        let runs = 10;
        let reference = Campaign::new(config, runs)
            .with_campaign_seed(campaign_seed)
            .with_threads(1)
            .with_lanes(1)
            .run(&trace)
            .unwrap();
        // 10 runs make 3, 5 and 16 the non-multiple widths (partial final
        // lane groups); 2 and 7 add ragged thread chunks on top.
        for (lanes, threads) in [(2usize, 1usize), (7, 1), (3, 4), (5, 2), (16, 2)] {
            let result = Campaign::new(config, runs)
                .with_campaign_seed(campaign_seed)
                .with_threads(threads)
                .with_lanes(lanes)
                .run(&packed)
                .unwrap();
            prop_assert_eq!(&result, &reference);
        }
    }
}
