//! Footprint-sensitivity scenario: the synthetic vector-traversal kernel of
//! Figure 5 with footprints that fit in the L1, fit only in the L2, and
//! exceed both, under the three placement policies.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example footprint_sweep [-- runs]
//! ```

use randmod::core::PlacementKind;
use randmod::mbpta::ExecutionSample;
use randmod::sim::{Campaign, PlatformConfig};
use randmod::workloads::{MemoryLayout, SyntheticKernel, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    println!("synthetic kernel, {runs} runs per configuration");
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>14}",
        "kernel", "placement", "min cycles", "mean cycles", "max cycles"
    );

    for kernel in SyntheticKernel::paper_variants() {
        let trace = kernel.packed_trace(&MemoryLayout::default());
        for placement in [
            PlacementKind::Modulo,
            PlacementKind::HashRandom,
            PlacementKind::RandomModulo,
        ] {
            let platform = PlatformConfig::leon3()
                .with_l1_placement(placement)
                .with_l2_placement(PlacementKind::HashRandom);
            let result = Campaign::new(platform, runs)
                .with_campaign_seed(7)
                .run(&trace)?;
            let sample = ExecutionSample::from_cycles_iter(result.cycles_iter());
            println!(
                "{:<22} {:<14} {:>14} {:>14.0} {:>14}",
                kernel.name(),
                placement.to_string(),
                sample.min(),
                sample.mean(),
                sample.max()
            );
        }
    }
    println!();
    println!("Expected shape (paper, Section 4.3): the execution-time spread of hRP grows");
    println!("with the footprint, while RM stays close to modulo until capacity is exceeded.");
    Ok(())
}
