//! Integration tests of the MBPTA statistical pipeline against simulated
//! measurement campaigns.

use randmod::core::PlacementKind;
use randmod::mbpta::{ExecutionSample, HighWaterMark, Histogram, MbptaAnalysis, MbptaConfig};
use randmod::sim::{Campaign, PlatformConfig};
use randmod::workloads::{MemoryLayout, SyntheticKernel, Workload};

fn sample_for(placement: PlacementKind, runs: usize) -> ExecutionSample {
    let kernel = SyntheticKernel::with_traversals(20 * 1024, 8);
    let trace = kernel.packed_trace(&MemoryLayout::default());
    let platform = PlatformConfig::leon3()
        .with_l1_placement(placement)
        .with_l2_placement(PlacementKind::HashRandom);
    let result = Campaign::new(platform, runs)
        .with_campaign_seed(0x5A5A)
        .run(&trace)
        .expect("valid platform");
    ExecutionSample::from_cycles_iter(result.cycles_iter())
}

#[test]
fn pwcet_estimates_upper_bound_every_observation() {
    for placement in [PlacementKind::RandomModulo, PlacementKind::HashRandom] {
        let sample = sample_for(placement, 150);
        let report =
            MbptaAnalysis::new(MbptaConfig::default().with_minimum_runs(100)).analyze(&sample);
        let pwcet = report.pwcet_at(1e-12);
        assert!(
            pwcet >= sample.max() as f64,
            "{placement}: pWCET {pwcet} below observed maximum {}",
            sample.max()
        );
        // A lower exceedance probability can only raise the bound.
        assert!(report.pwcet_at(1e-15) >= pwcet);
    }
}

#[test]
fn histograms_of_simulated_campaigns_preserve_total_mass() {
    let sample = sample_for(PlacementKind::HashRandom, 120);
    let histogram = Histogram::from_sample(&sample, 30);
    assert_eq!(histogram.total_count(), 120);
    let integral: f64 = histogram
        .bins()
        .iter()
        .map(|b| b.density * (b.upper - b.lower))
        .sum();
    assert!((integral - 1.0).abs() < 1e-9);
}

#[test]
fn hwm_with_default_margin_exceeds_rm_pwcet_for_well_behaved_kernels() {
    // The paper's closing observation: RM pWCET estimates sit well below
    // hwm + 20%, the margin industry applies without probabilistic backing.
    let sample = sample_for(PlacementKind::RandomModulo, 150);
    let report = MbptaAnalysis::new(MbptaConfig::default().with_minimum_runs(100)).analyze(&sample);
    let hwm = HighWaterMark::from_sample(&sample);
    assert!(report.pwcet_at(1e-15) < hwm.with_default_margin());
}

#[test]
fn block_size_choice_does_not_change_the_qualitative_ranking() {
    let rm = sample_for(PlacementKind::RandomModulo, 150);
    let hrp = sample_for(PlacementKind::HashRandom, 150);
    for block_size in [10, 25, 30] {
        let config = MbptaConfig::default()
            .with_block_size(block_size)
            .with_minimum_runs(100);
        let rm_pwcet = MbptaAnalysis::new(config.clone())
            .analyze(&rm)
            .pwcet_at(1e-15);
        let hrp_pwcet = MbptaAnalysis::new(config).analyze(&hrp).pwcet_at(1e-15);
        assert!(
            rm_pwcet <= hrp_pwcet,
            "block size {block_size}: RM {rm_pwcet} vs hRP {hrp_pwcet}"
        );
    }
}
