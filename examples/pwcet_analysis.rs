//! pWCET analysis scenario: compare the pWCET estimates obtained with
//! Random Modulo and with hash-based random placement for one benchmark,
//! reproducing a single bar of Figure 4(a).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pwcet_analysis [-- <benchmark> [runs]]
//! ```

use randmod::core::PlacementKind;
use randmod::mbpta::{ExecutionSample, MbptaAnalysis, MbptaConfig};
use randmod::sim::{Campaign, PlatformConfig};
use randmod::workloads::{EembcBenchmark, MemoryLayout, Workload};

fn measure(
    benchmark: EembcBenchmark,
    placement: PlacementKind,
    runs: usize,
) -> Result<ExecutionSample, Box<dyn std::error::Error>> {
    let trace = benchmark.packed_trace(&MemoryLayout::default());
    let platform = PlatformConfig::leon3()
        .with_l1_placement(placement)
        .with_l2_placement(PlacementKind::HashRandom);
    let result = Campaign::new(platform, runs)
        .with_campaign_seed(0xFEED)
        .run(&trace)?;
    Ok(ExecutionSample::from_cycles_iter(result.cycles_iter()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let benchmark: EembcBenchmark = args
        .next()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(EembcBenchmark::Cacheb);
    let runs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);

    println!("benchmark: {benchmark}, {runs} runs per setup");
    let config = MbptaConfig::default().with_minimum_runs(runs.min(100));

    let mut pwcets = Vec::new();
    for placement in [PlacementKind::RandomModulo, PlacementKind::HashRandom] {
        let sample = measure(benchmark, placement, runs)?;
        let report = MbptaAnalysis::new(config.clone()).analyze(&sample);
        println!(
            "{:<14} mean {:>12.0}  hwm {:>12}  pWCET(1e-15) {:>12.0}  i.i.d. tests: WW {}, KS {}",
            placement.to_string(),
            sample.mean(),
            sample.max(),
            report.pwcet_at(1e-15),
            if report.ww.passed() { "pass" } else { "fail" },
            if report.ks.passed() { "pass" } else { "fail" },
        );
        pwcets.push(report.pwcet_at(1e-15));
    }
    println!(
        "RM pWCET is {:.1}% tighter than hRP for {benchmark}",
        (1.0 - pwcets[0] / pwcets[1]) * 100.0
    );
    Ok(())
}
