//! Concurrency battery: backpressure under saturation and graceful
//! shutdown.
//!
//! With a single worker slot, a long-running submission must push
//! concurrent cache *misses* into the `429 Retry-After` path while
//! cache *hits* keep flowing (hits never take a permit — that asymmetry
//! is the design).  And a shutdown issued while a campaign is in flight
//! must drain: the accepted campaign finishes, its response is
//! delivered in full, and the store entry it persisted validates
//! afterwards.

use randmod_core::{Address, PlacementKind};
use randmod_server::{
    encode_spec, start, CampaignSpec, Client, ResultStore, ServerConfig, SpecMode,
};
use randmod_sim::checkpoint::decode_checkpoint;
use randmod_sim::config::PlatformConfig;
use randmod_sim::trace::{MemEvent, Trace};
use randmod_sim::{encode_solo_runs, Campaign, PackedTrace};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("randmod_conc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trace_of(events: u64, salt: u64) -> PackedTrace {
    let mut trace = Trace::new();
    for i in 0..events {
        trace.push(MemEvent::InstrFetch(Address::new(0x4000 + (i % 64) * 4)));
        if i % 2 == 0 {
            trace.push(MemEvent::Load(Address::new(
                0x2_0000 + ((i * 13 + salt) % 80) * 256,
            )));
        }
    }
    PackedTrace::from(&trace)
}

fn fixed_spec(salt: u64, runs: u64, events: u64) -> CampaignSpec {
    CampaignSpec {
        config: PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
        campaign_seed: 7,
        mode: SpecMode::Fixed((0..runs).map(|s| s * 17 + salt).collect()),
        trace: trace_of(events, salt),
    }
}

#[test]
fn saturation_yields_429_for_misses_while_hits_keep_flowing() {
    let dir = temp_dir("saturate");
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        store,
    )
    .unwrap();
    let addr = handle.addr();

    // Warm one cheap entry while the server is idle.
    let cheap = encode_spec(&fixed_spec(1, 5, 500));
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.post("/campaign", &cheap).unwrap().status, 200);

    // Occupy the single worker with a heavyweight submission (retrying
    // through 429s: a probe below may win the permit race first).
    let slow = encode_spec(&fixed_spec(2, 600, 20_000));
    let slow_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        loop {
            let response = client.post("/campaign", &slow).unwrap();
            if response.status != 429 {
                return response;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    // While it runs: distinct specs (misses) must eventually see 429,
    // and the warmed entry must still hit.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_429 = false;
    let mut saw_hit_during_saturation = false;
    let mut salt = 100u64;
    while Instant::now() < deadline && !(saw_429 && saw_hit_during_saturation) {
        let probe = encode_spec(&fixed_spec(salt, 3, 200));
        salt += 1;
        let response = client.post("/campaign", &probe).unwrap();
        match response.status {
            429 => {
                assert_eq!(response.header("Retry-After"), Some("1"));
                saw_429 = true;
                let hit = client.post("/campaign", &cheap).unwrap();
                if hit.status == 200 && hit.header("X-Randmod-Cache") == Some("hit") {
                    saw_hit_during_saturation = true;
                }
            }
            200 => {
                // The worker was momentarily free; keep probing.
            }
            other => panic!("unexpected status {other}"),
        }
        if slow_thread.is_finished() {
            break;
        }
    }
    let slow_response = slow_thread.join().unwrap();
    assert_eq!(slow_response.status, 200, "the slow campaign must complete");
    assert!(saw_429, "saturating one worker must produce a 429");
    assert!(
        saw_hit_during_saturation,
        "cache hits must not need a worker permit"
    );

    // After the drain the pool is free again: a fresh miss computes.
    let fresh = encode_spec(&fixed_spec(9999, 3, 200));
    assert_eq!(client.post("/campaign", &fresh).unwrap().status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_inflight_campaigns_and_keeps_the_store_valid() {
    let dir = temp_dir("drain");
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(ServerConfig::default(), store).unwrap();
    let addr = handle.addr();

    let spec = fixed_spec(5, 400, 20_000);
    let body = encode_spec(&spec);
    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.post("/campaign", &body).unwrap()
    });

    // Give the submission time to be accepted, then pull the plug.
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();

    // The accepted campaign was not dropped: its full response arrived.
    let response = inflight.join().unwrap();
    assert_eq!(response.status, 200);
    let key = response.header("X-Randmod-Key").unwrap().to_string();

    // The bytes match the direct engine path...
    let SpecMode::Fixed(seeds) = &spec.mode else {
        unreachable!()
    };
    let campaign = Campaign::new(spec.config, seeds.len()).with_campaign_seed(7);
    let direct = encode_solo_runs(campaign.run_seeds(&spec.trace, seeds).unwrap().runs());
    assert_eq!(response.body, direct);

    // ...and the entry the drain persisted validates end to end.
    let entry = std::fs::read(dir.join(format!("res_{key}.ckpt"))).unwrap();
    let decoded = decode_checkpoint(&entry, "drained entry").unwrap();
    assert_eq!(decoded.records.len(), 1);
    assert_eq!(decoded.records[0].payload, direct);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_identical_submissions_converge_on_one_entry() {
    // Several clients race the same spec: whatever interleaving of
    // misses and hits they observe, every response carries the same
    // bytes and the store ends with one valid entry.
    let dir = temp_dir("race");
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        store,
    )
    .unwrap();
    let addr = handle.addr();

    let body = encode_spec(&fixed_spec(11, 20, 2_000));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Retry through transient 429s: the race partners hold
                // permits only briefly.
                loop {
                    let response = client.post("/campaign", &body).unwrap();
                    if response.status == 200 {
                        return response.body;
                    }
                    assert_eq!(response.status, 429);
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        })
        .collect();
    let bodies: Vec<Vec<u8>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for body in &bodies[1..] {
        assert_eq!(
            body, &bodies[0],
            "racing clients must all see the same bytes"
        );
    }

    handle.shutdown();

    // Exactly one entry, and it validates.
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(entries.len(), 1, "one spec must produce one store entry");
    let entry = std::fs::read(entries[0].as_ref().unwrap().path()).unwrap();
    let decoded = decode_checkpoint(&entry, "raced entry").unwrap();
    assert_eq!(decoded.records[0].payload, bodies[0]);

    let _ = std::fs::remove_dir_all(&dir);
}
