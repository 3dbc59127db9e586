//! Property-based equivalence of sharded and unsharded campaigns.
//!
//! The shard protocol's acceptance criterion: splitting a campaign into
//! deterministic contiguous shards, persisting each through a checkpoint
//! store and merging them in shard order must be **bit-identical** to the
//! unsharded run — same per-run cycles *and* per-run `HierarchyStats` —
//! across shard counts × placements × lane widths, for solo and contended
//! campaigns, whether the shards were just executed or restored.  These properties are what
//! make checkpoint/resume sound: if shard-merge ≡ single-run, then
//! re-running only the missing shards after a crash reconstructs the
//! uninterrupted result exactly.

mod common;

use common::{event_strategy, expand};
use proptest::prelude::*;
use randmod_core::PlacementKind;
use randmod_sim::{Campaign, MemoryCheckpointStore, PlatformConfig, ShardSpec, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every shard layout partitions the seed schedule exactly: contiguous,
    /// non-empty, in order, covering every index once.
    #[test]
    fn shard_spec_partitions_any_schedule(
        total in 0usize..10_000,
        shards in 0usize..64,
    ) {
        let spec = ShardSpec::new(total, shards);
        prop_assert!(spec.shard_count() >= 1);
        prop_assert!(spec.shard_count() <= total.max(1));
        let mut next = 0;
        for range in spec.ranges() {
            prop_assert_eq!(range.start, next);
            prop_assert!(total == 0 || !range.is_empty());
            next = range.end;
        }
        prop_assert_eq!(next, total);
    }

    /// Shard-merge ≡ unsharded `run`, bit-for-bit (cycles and stats),
    /// across shard counts × placements × lane widths — both for the run
    /// that fills a fresh store and for the rerun that restores every
    /// shard from it.
    #[test]
    fn sharded_solo_campaign_matches_unsharded(
        events in prop::collection::vec(event_strategy(), 1..250),
        campaign_seed in any::<u64>(),
        placement_index in 0usize..4,
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let trace = expand(&events);
        let campaign = Campaign::new(config, 13)
            .with_campaign_seed(campaign_seed)
            .with_threads(2);
        let reference = campaign.run(&trace).unwrap();
        // 1 shard is the degenerate identity, 13 puts one seed per shard,
        // 40 over-shards (clamped back to 13); 3 and 5 leave ragged tails.
        for shards in [1usize, 3, 5, 13, 40] {
            for lanes in [1usize, 4, 7] {
                let sharded = campaign.clone().with_lanes(lanes);
                let mut store = MemoryCheckpointStore::new();
                for pass in ["fresh", "restored"] {
                    let report = sharded
                        .run_sharded_checkpointed(&trace, shards, &mut store)
                        .unwrap();
                    prop_assert!(
                        report.result == reference,
                        "{pass}: shards={shards} lanes={lanes} diverged from the unsharded run"
                    );
                }
            }
        }
    }

    /// The contended analogue: sharded contended campaigns reproduce the
    /// unsharded `ContendedResult` — per-task cycles and stats — across
    /// shard counts and lane widths, fresh and restored.
    #[test]
    fn sharded_contended_campaign_matches_unsharded(
        victim_events in prop::collection::vec(event_strategy(), 1..150),
        opponent_events in prop::collection::vec(event_strategy(), 1..150),
        campaign_seed in any::<u64>(),
        placement_index in 0usize..4,
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let sources = [expand(&victim_events), expand(&opponent_events)];
        let campaign = Campaign::new(config, 9)
            .with_campaign_seed(campaign_seed)
            .with_threads(2);
        let reference = campaign.run_contended_campaign(&sources).unwrap();
        for shards in [1usize, 2, 4, 9] {
            for lanes in [1usize, Campaign::DEFAULT_LANES, 5] {
                let sharded = campaign.clone().with_lanes(lanes);
                let mut store = MemoryCheckpointStore::new();
                for pass in ["fresh", "restored"] {
                    let report = sharded
                        .run_contended_sharded_checkpointed(&sources, shards, &mut store)
                        .unwrap();
                    prop_assert!(
                        report.result == reference,
                        "{pass}: shards={shards} lanes={lanes} diverged from the unsharded run"
                    );
                }
            }
        }
    }

    /// Putting a checkpoint store in the loop changes nothing: the wire
    /// round-trip of every shard record is lossless, a fresh store
    /// executes every shard, and an immediate re-run restores every shard
    /// — all three results bit-identical to the unsharded campaign.
    #[test]
    fn checkpointed_campaign_matches_unsharded(
        events in prop::collection::vec(event_strategy(), 1..200),
        campaign_seed in any::<u64>(),
        placement_index in 0usize..4,
        shards in 1usize..8,
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let config = PlatformConfig::leon3().with_l1_placement(placement);
        let trace = expand(&events);
        let campaign = Campaign::new(config, 11)
            .with_campaign_seed(campaign_seed)
            .with_threads(2);
        let reference = campaign.run(&trace).unwrap();
        let mut store = MemoryCheckpointStore::new();
        let fresh = campaign.run_sharded_checkpointed(&trace, shards, &mut store).unwrap();
        prop_assert_eq!(&fresh.result, &reference);
        prop_assert_eq!(fresh.resumed, 0);
        prop_assert_eq!(fresh.executed, fresh.shard_count);
        let resumed = campaign.run_sharded_checkpointed(&trace, shards, &mut store).unwrap();
        prop_assert_eq!(&resumed.result, &reference);
        prop_assert_eq!(resumed.resumed, fresh.shard_count);
        prop_assert_eq!(resumed.executed, 0);
        prop_assert!(resumed.diagnostics.is_empty());
    }
}

/// Both checkpointed drivers agree with the unsharded protocols over the
/// campaign's default seed schedule, and a rerun restores every shard.
#[test]
fn default_schedule_sharded_drivers_match_run() {
    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let mut victim = Trace::new();
    let mut opponent = Trace::new();
    for i in 0..1_500u64 {
        victim.fetch(randmod_core::Address::new(0x1000 + (i % 24) * 32));
        victim.load(randmod_core::Address::new(0x10_0000 + (i % 768) * 32));
        opponent.load(randmod_core::Address::new(0x80_0000 + (i % 2048) * 32));
    }
    let campaign = Campaign::new(config, 10)
        .with_campaign_seed(77)
        .with_threads(2);
    let mut store = MemoryCheckpointStore::new();
    let report = campaign
        .run_sharded_checkpointed(&victim, 4, &mut store)
        .unwrap();
    assert_eq!(report.result, campaign.run(&victim).unwrap());
    assert_eq!(report.executed, 4);
    let sources = [victim, opponent];
    let mut store = MemoryCheckpointStore::new();
    let report = campaign
        .run_contended_sharded_checkpointed(&sources, 4, &mut store)
        .unwrap();
    assert_eq!(
        report.result,
        campaign.run_contended_campaign(&sources).unwrap()
    );
    assert_eq!(report.executed, 4);
    let restored = campaign
        .run_contended_sharded_checkpointed(&sources, 4, &mut store)
        .unwrap();
    assert_eq!(restored.result, report.result);
    assert_eq!((restored.resumed, restored.executed), (4, 0));
}
