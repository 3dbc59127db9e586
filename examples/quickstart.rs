//! Quickstart: measure a workload on the MBPTA-compliant platform and
//! derive a pWCET estimate.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use randmod::core::PlacementKind;
use randmod::mbpta::{ExecutionSample, MbptaAnalysis, MbptaConfig};
use randmod::sim::{Campaign, PlatformConfig};
use randmod::workloads::{EembcBenchmark, MemoryLayout, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a workload: the EEMBC-like a2time kernel, streamed into the
    //    packed 8-byte-per-event replay representation.
    let benchmark = EembcBenchmark::A2time;
    let trace = benchmark.packed_trace(&MemoryLayout::default());
    println!(
        "workload: {} ({} trace events, {})",
        benchmark,
        trace.len(),
        trace
    );

    // 2. Describe the platform: a LEON3-like core with Random Modulo in the
    //    first-level caches and hash-based random placement in the L2.
    let platform = PlatformConfig::leon3()
        .with_l1_placement(PlacementKind::RandomModulo)
        .with_l2_placement(PlacementKind::HashRandom);

    // 3. Run the MBPTA measurement protocol: 300 runs, a fresh placement
    //    seed (and cache flush) before each run.
    let campaign = Campaign::new(platform, 300).with_campaign_seed(0xC0FFEE);
    let result = campaign.run(&trace)?;
    println!("campaign: {result}");

    // 4. Apply MBPTA: i.i.d. tests, Gumbel fit, pWCET projection.
    let sample = ExecutionSample::from_cycles_iter(result.cycles_iter());
    let report = MbptaAnalysis::new(MbptaConfig::default()).analyze(&sample);
    println!("{report}");
    println!(
        "pWCET(1e-15) is {:.2}% above the observed high-water mark",
        (report.pwcet_over_hwm(1e-15) - 1.0) * 100.0
    );
    Ok(())
}
