//! Load-test harness for the campaign server: measures cold
//! (compute-bound) and warm (cache-hit) submission throughput.
//!
//! ```text
//! server_load [--addr HOST:PORT] [--specs N] [--repeat R] [--runs K] [--quick]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral
//! port with a temporary store.  The harness submits `N` distinct
//! fixed-schedule campaign specs (cold phase: every one a cache miss),
//! then re-submits the same specs `R` times (warm phase: every one a
//! hit), and reports campaigns/sec for both phases plus the measured
//! hit rate.  `--quick` shrinks the matrix for CI smoke use and exits
//! nonzero if the warm phase saw no cache hit.

use randmod_core::{Address, PlacementKind};
use randmod_server::{
    encode_spec, start, CampaignSpec, Client, ResultStore, ServerConfig, SpecMode,
};
use randmod_sim::config::PlatformConfig;
use randmod_sim::trace::{MemEvent, Trace};
use randmod_sim::PackedTrace;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: server_load [--addr HOST:PORT] [--specs N] [--repeat R] [--runs K] [--quick]"
    );
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|raw| raw.parse().ok()) {
        Some(parsed) => parsed,
        None => {
            eprintln!("error: {flag} needs a valid value");
            usage();
        }
    }
}

/// A small synthetic kernel: a sequential instruction stream over a
/// loop body plus a strided data working set that overflows a few L1
/// sets, so placement randomisation has something to randomise.
fn synthetic_trace() -> PackedTrace {
    let mut trace = Trace::new();
    for rep in 0..8u64 {
        for i in 0..200u64 {
            trace.push(MemEvent::InstrFetch(Address::new(0x4000 + (i % 64) * 4)));
            if i % 3 == 0 {
                trace.push(MemEvent::Load(Address::new(
                    0x2_0000 + ((i * 7 + rep) % 96) * 256,
                )));
            }
            if i % 11 == 0 {
                trace.push(MemEvent::Store(Address::new(0x8_0000 + (i % 16) * 32)));
            }
        }
    }
    PackedTrace::from(&trace)
}

fn main() {
    let mut addr: Option<String> = None;
    let mut specs = 8usize;
    let mut repeat = 5usize;
    let mut runs = 40usize;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr = Some(parse_value(&flag, args.next())),
            "--specs" => specs = parse_value(&flag, args.next()),
            "--repeat" => repeat = parse_value(&flag, args.next()),
            "--runs" => runs = parse_value(&flag, args.next()),
            "--quick" => quick = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
        }
    }
    if quick {
        specs = specs.min(3);
        repeat = repeat.min(2);
        runs = runs.min(20);
    }

    // Spawn an in-process server unless pointed at a running one.
    let mut local = None;
    let target = match addr {
        Some(addr) => addr,
        None => {
            let dir =
                std::env::temp_dir().join(format!("randmod_server_load_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = ResultStore::in_dir(&dir).expect("create temp store");
            let handle = start(
                ServerConfig {
                    workers: 2,
                    ..ServerConfig::default()
                },
                store,
            )
            .expect("start in-process server");
            let target = handle.addr().to_string();
            local = Some((handle, dir));
            target
        }
    };

    let trace = synthetic_trace();
    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let bodies: Vec<Vec<u8>> = (0..specs)
        .map(|i| {
            let seeds: Vec<u64> = (0..runs as u64).map(|s| s * 1_000_003 + i as u64).collect();
            encode_spec(&CampaignSpec {
                config,
                campaign_seed: 0xC0FFEE + i as u64,
                mode: SpecMode::Fixed(seeds),
                trace: trace.clone(),
            })
        })
        .collect();

    let mut client = Client::connect(&target).expect("connect to server");
    let mut submit = |body: &[u8]| -> (u16, bool) {
        let response = client.post("/campaign", body).expect("submit campaign");
        let hit = response.header("X-Randmod-Cache") == Some("hit");
        (response.status, hit)
    };

    let cold_start = Instant::now();
    let mut cold_hits = 0usize;
    for body in &bodies {
        let (status, hit) = submit(body);
        assert_eq!(status, 200, "cold submission failed");
        cold_hits += usize::from(hit);
    }
    let cold_elapsed = cold_start.elapsed();

    let warm_start = Instant::now();
    let mut warm_hits = 0usize;
    let warm_total = specs * repeat;
    for _ in 0..repeat {
        for body in &bodies {
            let (status, hit) = submit(body);
            assert_eq!(status, 200, "warm submission failed");
            warm_hits += usize::from(hit);
        }
    }
    let warm_elapsed = warm_start.elapsed();

    let cold_rate = specs as f64 / cold_elapsed.as_secs_f64().max(1e-9);
    let warm_rate = warm_total as f64 / warm_elapsed.as_secs_f64().max(1e-9);
    println!(
        "cold: {specs} campaigns in {:.3}s ({cold_rate:.1} campaigns/s, {cold_hits} hits)",
        cold_elapsed.as_secs_f64()
    );
    println!(
        "warm: {warm_total} campaigns in {:.3}s ({warm_rate:.1} campaigns/s, {warm_hits} hits, {:.1}% hit rate)",
        warm_elapsed.as_secs_f64(),
        100.0 * warm_hits as f64 / warm_total.max(1) as f64
    );
    println!("warm/cold speedup: {:.1}x", warm_rate / cold_rate.max(1e-9));

    if let Some((handle, dir)) = local {
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    if quick && warm_hits == 0 {
        eprintln!("error: quick mode expected at least one cache hit");
        std::process::exit(1);
    }
}
