//! Campaign throughput: the repo's recorded perf baseline.
//!
//! Replays the 1,000-seed EEMBC-style measurement campaign (the paper's
//! MBPTA protocol on the `cacheb` kernel) through [`Campaign`] in two
//! wave shapes on the one lane engine — `batched/<K>` (K seed lanes per
//! schedule pass, [`Campaign::DEFAULT_LANES`] by default) and
//! `sequential` (`with_lanes(1)`, one-lane waves) — for every placement
//! kind, on one worker thread so the numbers measure the replay engine
//! rather than the host's core count.
//!
//! Before timing anything the bench asserts that both shapes produce the
//! same `CampaignResult` bit-for-bit; a divergence aborts the bench (this
//! is the equivalence gate the CI bench step relies on).  In bench mode
//! every benchmark prints its median `time:` line and a `throughput:`
//! line in events/second derived from that same median — the numbers
//! recorded in `BENCH_baseline.json` and EXPERIMENTS.md.
//!
//! Environment knobs:
//!
//! * `CAMPAIGN_BENCH_QUICK=1` — 40-run campaigns (CI smoke mode).
//! * `CAMPAIGN_BENCH_RUNS=N` — explicit run count (default 1,000).
//! * `CAMPAIGN_BENCH_LANES=1,4,8,16` — lane-width sweep: the equivalence
//!   gate runs once per width (each width must reproduce the sequential
//!   shape bit-for-bit), and bench mode times one `batched/<K>` benchmark
//!   per width.  Defaults to [`Campaign::DEFAULT_LANES`] alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use randmod_bench::bench_platform;
use randmod_core::PlacementKind;
use randmod_sim::{Campaign, CampaignResult, PackedTrace, PlatformConfig};
use randmod_workloads::{EembcBenchmark, MemoryLayout, Workload};
use std::hint::black_box;

/// The campaign seed used by every timed configuration (fixed so recorded
/// numbers are comparable across machines and PRs).
const CAMPAIGN_SEED: u64 = 0xBEEF;

fn runs() -> usize {
    if std::env::var_os("CAMPAIGN_BENCH_QUICK").is_some() {
        return 40;
    }
    std::env::var("CAMPAIGN_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Lane widths to gate and time (`CAMPAIGN_BENCH_LANES`, comma-separated).
fn lane_widths() -> Vec<usize> {
    let Ok(spec) = std::env::var("CAMPAIGN_BENCH_LANES") else {
        return vec![Campaign::DEFAULT_LANES];
    };
    let widths: Vec<usize> = spec
        .split(',')
        .map(|tok| {
            let width = tok
                .trim()
                .parse()
                .expect("CAMPAIGN_BENCH_LANES takes comma-separated lane widths");
            assert!(width >= 1, "lane widths must be at least 1");
            width
        })
        .collect();
    assert!(!widths.is_empty(), "CAMPAIGN_BENCH_LANES must name at least one width");
    widths
}

fn campaign(platform: PlatformConfig, runs: usize, lanes: usize) -> Campaign {
    Campaign::new(platform, runs)
        .with_campaign_seed(CAMPAIGN_SEED)
        .with_threads(1)
        .with_lanes(lanes)
}

fn run_campaign(platform: PlatformConfig, runs: usize, lanes: usize, trace: &PackedTrace) -> CampaignResult {
    campaign(platform, runs, lanes)
        .run(trace)
        .expect("valid platform")
}

fn campaign_throughput(c: &mut Criterion) {
    let trace = EembcBenchmark::Cacheb.packed_trace(&MemoryLayout::default());
    let events = trace.len() as u64;
    let runs = runs();
    let widths = lane_widths();

    let mut group = c.benchmark_group("campaign_throughput");
    group.throughput(Throughput::Elements(events * runs as u64));
    group.sample_size(10);

    for kind in PlacementKind::ALL {
        let platform = bench_platform(kind);

        // Equivalence gate: the batched shape must reproduce the
        // sequential shape bit-for-bit before its throughput means
        // anything.  `assert_eq!` on the full CampaignResult covers cycles
        // and per-run HierarchyStats.  Under `cargo test` (no `--bench`)
        // the gate still runs, on a reduced campaign, so plain test runs
        // keep smoke-checking the equivalence cheaply.
        let gate_runs = if bench_mode() { runs } else { runs.min(40) };
        let sequential_result = run_campaign(platform, gate_runs, 1, &trace);
        for &width in &widths {
            let batched_result = run_campaign(platform, gate_runs, width, &trace);
            assert_eq!(
                batched_result, sequential_result,
                "batched ({width} lanes) and sequential campaigns diverged for {kind}"
            );
        }

        for &width in &widths {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}"), format!("batched/{width}")),
                &trace,
                |b, trace| b.iter(|| black_box(run_campaign(platform, runs, width, trace))),
            );
        }
        group.bench_with_input(
            BenchmarkId::new(format!("{kind}"), "sequential"),
            &trace,
            |b, trace| b.iter(|| black_box(run_campaign(platform, runs, 1, trace))),
        );
    }
    group.finish();
}

criterion_group!(benches, campaign_throughput);
criterion_main!(benches);
