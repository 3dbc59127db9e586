//! Contended-campaign throughput: the shared-L2 engine's perf record.
//!
//! Replays the `fig6_contention` victim (the 20KB synthetic kernel)
//! co-scheduled against the stress opponent ladder through
//! [`Campaign::run_contended`], on one worker thread, in three
//! configurations per pressure level — all on the one contended engine,
//! `BatchContentionCore`:
//!
//! * `round-robin/batched` — the default lane count (one interleave per
//!   campaign, replayed across placement-seed lane groups);
//! * `round-robin/one-lane` — `with_lanes(1)`, the same schedule replayed
//!   one seed per pass (the lane-batching baseline);
//! * `seeded-random` — one schedule drawn per run, replayed as a one-lane
//!   wave.
//!
//! Before timing anything the bench asserts two equivalence gates, so it
//! doubles as the CI smoke check of the contention engine's defining
//! invariants: a contended campaign with an idle opponent must reproduce
//! `run_seeds` bit-for-bit (at the default width *and* at one lane, under
//! both arbitrations), and on a real co-schedule the default width must
//! reproduce one-lane waves bit-for-bit under both arbitrations.
//!
//! In bench mode it prints a `throughput:` line per configuration in
//! events/second (total interleaved events across all tasks).
//!
//! Environment knobs:
//!
//! * `CAMPAIGN_BENCH_QUICK=1` — 20-run campaigns (CI smoke mode).
//! * `CAMPAIGN_BENCH_RUNS=N` — explicit run count (default 200).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use randmod_core::PlacementKind;
use randmod_sim::contention::Arbitration;
use randmod_sim::{Campaign, PackedTrace, PlatformConfig};
use randmod_workloads::{CoSchedule, MemoryLayout, SyntheticKernel};
use std::hint::black_box;
use std::time::Instant;

const CAMPAIGN_SEED: u64 = 0xC0DE;

fn runs() -> usize {
    if std::env::var_os("CAMPAIGN_BENCH_QUICK").is_some() {
        return 20;
    }
    std::env::var("CAMPAIGN_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

fn platform() -> PlatformConfig {
    PlatformConfig::leon3()
        .with_l1_placement(PlacementKind::RandomModulo)
        .with_l2_placement(PlacementKind::RandomModulo)
}

fn seeds(runs: usize) -> Vec<u64> {
    (0..runs as u64).map(|i| i.wrapping_mul(0x9E37_79B9) ^ CAMPAIGN_SEED).collect()
}

fn contention_throughput(c: &mut Criterion) {
    let runs = runs();
    let seed_list = seeds(runs);
    let campaign = |arbitration: Arbitration| {
        Campaign::new(platform(), runs)
            .with_campaign_seed(CAMPAIGN_SEED)
            .with_threads(1)
            .with_arbitration(arbitration)
    };

    // Solo-equivalence gate: an idle co-schedule is the solo protocol —
    // at the default width and at one lane.
    let victim = SyntheticKernel::fits_l2();
    let solo_sources: Vec<PackedTrace> =
        CoSchedule::pressure_level(victim, 0).packed_traces(&MemoryLayout::default());
    let gate_seeds = &seed_list[..seed_list.len().min(20)];
    let reference = campaign(Arbitration::RoundRobin)
        .run_seeds(&solo_sources[0], gate_seeds)
        .expect("valid platform");
    for arbitration in Arbitration::ALL {
        for lanes in [None, Some(1)] {
            let mut solo_campaign = campaign(arbitration);
            if let Some(lanes) = lanes {
                solo_campaign = solo_campaign.with_lanes(lanes);
            }
            let contended = solo_campaign
                .run_contended(&solo_sources, gate_seeds)
                .expect("valid platform");
            assert_eq!(
                contended.victim_result(),
                reference,
                "solo contended campaign diverged from run_seeds under {arbitration} (lanes {lanes:?})"
            );
        }
    }

    // Width gate: on a real co-schedule, the default width must reproduce
    // one-lane waves bit-for-bit, under both arbitrations.
    let gate_sources: Vec<PackedTrace> =
        CoSchedule::pressure_level(victim, 2).packed_traces(&MemoryLayout::default());
    for arbitration in Arbitration::ALL {
        let batched = campaign(arbitration)
            .run_contended(&gate_sources, gate_seeds)
            .expect("valid platform");
        let one_lane = campaign(arbitration)
            .with_lanes(1)
            .run_contended(&gate_sources, gate_seeds)
            .expect("valid platform");
        assert_eq!(
            batched, one_lane,
            "{arbitration} contended campaign at the default width diverged from one-lane waves"
        );
    }

    let configurations: [(&str, Arbitration, Option<usize>); 3] = [
        ("round-robin/batched", Arbitration::RoundRobin, None),
        ("round-robin/one-lane", Arbitration::RoundRobin, Some(1)),
        ("seeded-random", Arbitration::SeededRandom, None),
    ];
    let mut group = c.benchmark_group("contention_throughput");
    group.sample_size(10);
    for pressure in [2usize, 3] {
        let sources: Vec<PackedTrace> =
            CoSchedule::pressure_level(victim, pressure).packed_traces(&MemoryLayout::default());
        let events: u64 = sources.iter().map(|t| t.len() as u64).sum();
        group.throughput(Throughput::Elements(events * runs as u64));
        for (label, arbitration, lanes) in configurations {
            let build = || {
                let mut c = campaign(arbitration);
                if let Some(lanes) = lanes {
                    c = c.with_lanes(lanes);
                }
                c
            };
            if bench_mode() {
                let start = Instant::now();
                black_box(
                    build().run_contended(&sources, &seed_list).expect("valid platform"),
                );
                let elapsed = start.elapsed().as_secs_f64();
                println!(
                    "throughput: contended/P{}/{} {:.3e} events/sec ({} runs x {} events)",
                    pressure,
                    label,
                    (events * runs as u64) as f64 / elapsed,
                    runs,
                    events
                );
            }
            group.bench_with_input(
                BenchmarkId::new(format!("P{pressure}"), label),
                &sources,
                |b, sources| {
                    b.iter(|| {
                        black_box(
                            build().run_contended(sources, &seed_list).expect("valid platform"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, contention_throughput);
criterion_main!(benches);
