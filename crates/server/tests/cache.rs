//! Cache-correctness battery: the served bytes are the computed bytes.
//!
//! For a grid of campaign specs, three paths must agree byte for byte:
//! (a) direct [`Campaign::run_seeds`] through [`encode_solo_runs`],
//! (b) a cold server submission (cache miss, computed in-process), and
//! (c) the warm resubmission (cache hit, served from the store).  The
//! fingerprint-sensitivity tests pin the cache-key discipline — any
//! semantically meaningful change to the spec must address a different
//! entry — and the corruption tests prove a damaged store entry is
//! recomputed, never served: the checksummed container is the last line
//! of defence between the disk and the response body.

use randmod_core::{Address, PlacementKind, ReplacementKind};
use randmod_server::{
    encode_spec, start, CampaignSpec, Client, ResultStore, ServerConfig, SpecMode,
};
use randmod_sim::checkpoint::{FaultPlan, FaultyStore, FileCheckpointStore, CHECKPOINT_MAGIC};
use randmod_sim::config::PlatformConfig;
use randmod_sim::trace::{MemEvent, Trace};
use randmod_sim::{encode_solo_runs, Campaign, PackedTrace};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("randmod_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kernel_trace(stride: u64, loads: u64) -> PackedTrace {
    let mut trace = Trace::new();
    for rep in 0..6u64 {
        for i in 0..120u64 {
            trace.push(MemEvent::InstrFetch(Address::new(0x4000 + (i % 48) * 4)));
            if i % 2 == 0 {
                trace.push(MemEvent::Load(Address::new(
                    0x2_0000 + ((i + rep) % loads) * stride,
                )));
            }
            if i % 9 == 0 {
                trace.push(MemEvent::Store(Address::new(0x9_0000 + (i % 8) * 64)));
            }
        }
    }
    PackedTrace::from(&trace)
}

fn spec(config: PlatformConfig, seeds: Vec<u64>, trace: PackedTrace) -> CampaignSpec {
    CampaignSpec {
        config,
        campaign_seed: 7,
        mode: SpecMode::Fixed(seeds),
        trace,
    }
}

#[test]
fn direct_cold_and_warm_agree_bit_for_bit_across_a_grid() {
    let (handle, dir) = {
        let dir = temp_dir("grid");
        let store = ResultStore::in_dir(&dir).unwrap();
        (start(ServerConfig::default(), store).unwrap(), dir)
    };
    let mut client = Client::connect(handle.addr()).unwrap();

    let grid = [
        (
            PlacementKind::RandomModulo,
            ReplacementKind::Random,
            256u64,
            64u64,
        ),
        (PlacementKind::RandomModulo, ReplacementKind::Lru, 512, 96),
        (PlacementKind::HashRandom, ReplacementKind::Random, 256, 64),
        (PlacementKind::Modulo, ReplacementKind::RoundRobin, 128, 48),
    ];
    for (index, &(placement, replacement, stride, loads)) in grid.iter().enumerate() {
        let config = PlatformConfig::leon3()
            .with_l1_placement(placement)
            .with_replacement(replacement);
        let seeds: Vec<u64> = (0..25u64).map(|s| s * 31 + index as u64).collect();
        let trace = kernel_trace(stride, loads);
        let submission = spec(config, seeds.clone(), trace.clone());

        // (a) the direct engine path
        let campaign = Campaign::new(config, seeds.len()).with_campaign_seed(7);
        let direct = encode_solo_runs(campaign.run_seeds(&trace, &seeds).unwrap().runs());

        // (b) cold, (c) warm
        let body = encode_spec(&submission);
        let cold = client.post("/campaign", &body).unwrap();
        let warm = client.post("/campaign", &body).unwrap();
        assert_eq!(cold.status, 200);
        assert_eq!(warm.status, 200);
        assert_eq!(
            cold.header("X-Randmod-Cache"),
            Some("miss"),
            "grid point {index}"
        );
        assert_eq!(
            warm.header("X-Randmod-Cache"),
            Some("hit"),
            "grid point {index}"
        );
        assert_eq!(
            cold.body, direct,
            "cold response differs from run_seeds at {index}"
        );
        assert_eq!(
            warm.body, direct,
            "warm response differs from run_seeds at {index}"
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_meaningful_spec_change_addresses_a_distinct_key() {
    let dir = temp_dir("keys");
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(ServerConfig::default(), store).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let base_config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let base = spec(base_config, vec![1, 2, 3, 4, 5], kernel_trace(256, 64));

    let mut key_of = |submission: &CampaignSpec| -> String {
        let response = client.post("/campaign", &encode_spec(submission)).unwrap();
        assert_eq!(response.status, 200);
        response.header("X-Randmod-Key").unwrap().to_string()
    };

    let base_key = key_of(&base);
    // Identical resubmission: same key (and necessarily a hit).
    assert_eq!(key_of(&base), base_key);

    let mut variants: Vec<(&str, CampaignSpec)> = Vec::new();
    variants.push(("seed value", {
        let mut v = base.clone();
        v.mode = SpecMode::Fixed(vec![1, 2, 3, 4, 6]);
        v
    }));
    variants.push(("seed order", {
        let mut v = base.clone();
        v.mode = SpecMode::Fixed(vec![5, 4, 3, 2, 1]);
        v
    }));
    variants.push(("seed count", {
        let mut v = base.clone();
        v.mode = SpecMode::Fixed(vec![1, 2, 3, 4]);
        v
    }));
    variants.push(("placement", {
        let mut v = base.clone();
        v.config = base_config.with_l1_placement(PlacementKind::HashRandom);
        v
    }));
    variants.push(("replacement", {
        let mut v = base.clone();
        v.config = base_config.with_replacement(ReplacementKind::Lru);
        v
    }));
    variants.push(("latency", {
        let mut v = base.clone();
        v.config.latencies.memory += 1;
        v
    }));
    variants.push(("trace body", {
        let mut v = base.clone();
        v.trace = kernel_trace(256, 65);
        v
    }));

    let mut seen = vec![base_key];
    for (what, variant) in variants {
        let key = key_of(&variant);
        assert!(
            !seen.contains(&key),
            "changing the {what} must change the cache key (collided on {key})"
        );
        seen.push(key);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_entry_is_recomputed_not_served() {
    // Silent media corruption: every save persists, then gets one bit
    // flipped on disk.  Every subsequent load must fail validation and
    // recompute — the response stays correct, the cache just never
    // warms up.
    let dir = temp_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let entry_dir = dir.clone();
    let store = ResultStore::with_entries("bit-flipping store", move |key| {
        Box::new(FaultyStore::new(
            FileCheckpointStore::new(entry_dir.join(format!("res_{key:016x}.ckpt"))),
            FaultPlan::new().bit_flip_after_save(0, 97),
        ))
    });
    let handle = start(ServerConfig::default(), store).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let seeds: Vec<u64> = (0..10u64).collect();
    let trace = kernel_trace(256, 64);
    let submission = spec(config, seeds.clone(), trace.clone());
    let body = encode_spec(&submission);

    let campaign = Campaign::new(config, seeds.len()).with_campaign_seed(7);
    let direct = encode_solo_runs(campaign.run_seeds(&trace, &seeds).unwrap().runs());

    for round in 0..3 {
        let response = client.post("/campaign", &body).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header("X-Randmod-Cache"),
            Some("miss"),
            "round {round}: a corrupted entry must read as a miss"
        );
        assert_eq!(
            response.body, direct,
            "round {round}: served bytes must be correct"
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_entry_on_disk_is_recomputed() {
    let dir = temp_dir("truncated");
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(ServerConfig::default(), store).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let seeds: Vec<u64> = (0..8u64).collect();
    let trace = kernel_trace(512, 48);
    let body = encode_spec(&spec(config, seeds.clone(), trace.clone()));

    let cold = client.post("/campaign", &body).unwrap();
    assert_eq!(cold.header("X-Randmod-Cache"), Some("miss"));
    let key = cold.header("X-Randmod-Key").unwrap().to_string();

    // Damage the entry behind the server's back: tear it in half, or
    // stamp it `RMCKPT01`, the container version before the current
    // checksums.
    let path = dir.join(format!("res_{key}.ckpt"));
    let tear = |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 2);
    let old_version = |bytes: &mut Vec<u8>| bytes[..8].copy_from_slice(b"RMCKPT01");
    for damage in [tear, old_version] {
        let mut bytes = std::fs::read(&path).unwrap();
        damage(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let after = client.post("/campaign", &body).unwrap();
        assert_eq!(after.status, 200);
        assert_eq!(
            after.header("X-Randmod-Cache"),
            Some("miss"),
            "damaged entry must recompute"
        );
        assert_eq!(after.body, cold.body);

        // The recompute healed the entry: the next submission hits.
        let healed = client.post("/campaign", &body).unwrap();
        assert_eq!(healed.header("X-Randmod-Cache"), Some("hit"));
        assert_eq!(healed.body, cold.body);
        assert_eq!(&std::fs::read(&path).unwrap()[..8], CHECKPOINT_MAGIC);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
