//! Cross-crate integration tests: workloads -> simulator -> MBPTA, checking
//! that the qualitative claims of the paper emerge end-to-end.

use randmod::core::{PlacementKind, ReplacementKind};
use randmod::mbpta::{ExecutionSample, MbptaAnalysis, MbptaConfig};
use randmod::sim::{Campaign, PlatformConfig};
use randmod::workloads::{EembcBenchmark, LayoutSweep, MemoryLayout, SyntheticKernel, Workload};

fn measure<S>(trace: &S, placement: PlacementKind, runs: usize, seed: u64) -> ExecutionSample
where
    S: randmod::sim::trace::EventSource + ?Sized,
{
    let platform = PlatformConfig::leon3()
        .with_l1_placement(placement)
        .with_l2_placement(PlacementKind::HashRandom);
    let result = Campaign::new(platform, runs)
        .with_campaign_seed(seed)
        .run(trace)
        .expect("valid platform");
    ExecutionSample::from_cycles_iter(result.cycles_iter())
}

#[test]
fn rm_execution_times_pass_the_iid_tests_for_an_eembc_kernel() {
    let trace = EembcBenchmark::Canrdr.packed_trace(&MemoryLayout::default());
    let sample = measure(&trace, PlacementKind::RandomModulo, 200, 0xAB);
    let config = MbptaConfig::default()
        .with_block_size(10)
        .with_minimum_runs(100);
    let report = MbptaAnalysis::new(config).analyze(&sample);
    assert!(report.ww.passed(), "WW statistic {}", report.ww.statistic);
    assert!(report.ks.passed(), "KS p-value {}", report.ks.p_value);
}

#[test]
fn rm_pwcet_is_tighter_than_hrp_for_the_synthetic_20kb_kernel() {
    // The headline mechanism of the paper (Figure 5): for a footprint
    // between the L1 and L2 sizes, hRP's layouts occasionally pile many
    // lines into few sets, inflating both the spread and the pWCET.
    let kernel = SyntheticKernel::with_traversals(20 * 1024, 10);
    let trace = kernel.packed_trace(&MemoryLayout::default());
    let rm = measure(&trace, PlacementKind::RandomModulo, 150, 0x20);
    let hrp = measure(&trace, PlacementKind::HashRandom, 150, 0x20);
    let config = MbptaConfig::default().with_minimum_runs(100);
    let rm_pwcet = MbptaAnalysis::new(config.clone())
        .analyze(&rm)
        .pwcet_at(1e-15);
    let hrp_pwcet = MbptaAnalysis::new(config).analyze(&hrp).pwcet_at(1e-15);
    assert!(
        rm_pwcet < hrp_pwcet,
        "RM pWCET {rm_pwcet} should be tighter than hRP pWCET {hrp_pwcet}"
    );
    // And the observed spread is smaller too.
    assert!(rm.max() - rm.min() < hrp.max() - hrp.min());
}

#[test]
fn rm_average_performance_is_close_to_modulo_for_a_fitting_workload() {
    // Section 4.4: RM costs only a few percent over modulo on average.
    let kernel = SyntheticKernel::with_traversals(8 * 1024, 10);
    let trace = kernel.trace(&MemoryLayout::default());
    let rm = measure(&trace, PlacementKind::RandomModulo, 100, 0x44);

    let deterministic =
        PlatformConfig::leon3_deterministic().with_replacement(ReplacementKind::Lru);
    let modulo = Campaign::new(deterministic, 0)
        .run_seeds(&trace, &[0])
        .expect("valid platform");
    let modulo_cycles = modulo.runs()[0].cycles as f64;
    let degradation = rm.mean() / modulo_cycles - 1.0;
    assert!(
        degradation < 0.15,
        "RM mean {} vs modulo {} -> degradation {:.1}%",
        rm.mean(),
        modulo_cycles,
        degradation * 100.0
    );
}

#[test]
fn deterministic_platform_varies_with_memory_layout_but_not_with_seed() {
    // The classic cache risk pattern the paper discusses: several objects
    // accessed in alternation whose placement in memory decides whether
    // they pile up in the same L1 sets.  Five 4KB arrays need five ways
    // when they are way-aligned (conflict misses on a 4-way cache) but fit
    // when the linker staggers them.
    let build_trace = |stagger_lines: u64| {
        let mut trace = randmod::sim::Trace::new();
        let base = 0x4010_0000u64;
        for _ in 0..20 {
            for line in 0..128u64 {
                for array in 0..5u64 {
                    let addr = base + array * (64 * 1024 + stagger_lines * 32) + line * 32;
                    trace.load(randmod::core::Address::new(addr));
                }
            }
        }
        trace
    };
    let layouts: Vec<randmod::sim::Trace> = (0..6u64).map(build_trace).collect();
    let campaign = Campaign::new(PlatformConfig::leon3_deterministic(), 0);
    let sweep = campaign
        .run_layout_sweep_with(layouts.len(), |i| &layouts[i])
        .expect("valid platform");
    let distinct: std::collections::HashSet<u64> = sweep.cycles().into_iter().collect();
    assert!(
        distinct.len() > 1,
        "memory layout changes must affect a deterministic cache: {:?}",
        sweep.cycles()
    );
    // The aligned layout (stagger 0) is the pathological one.
    assert!(
        sweep.cycles()[0] > *sweep.cycles().iter().min().unwrap(),
        "the way-aligned layout should be the slow one"
    );

    // Re-running the same layout with different "seeds" changes nothing.
    let fixed = campaign
        .run_seeds(&layouts[0], &[1, 2, 3])
        .expect("valid platform");
    let unique: std::collections::HashSet<u64> = fixed.cycles().into_iter().collect();
    assert_eq!(unique.len(), 1);

    // An EEMBC-like kernel whose footprint fits in the caches, on the other
    // hand, is insensitive to where the linker puts it — the regime where
    // deterministic placement is unproblematic.  The sweep is streamed:
    // each layout's packed trace is generated on demand and dropped after
    // its run, never collected into a Vec<Trace>.
    let sweep_layouts = LayoutSweep::new(4);
    let benchmark_sweep = campaign
        .run_layout_sweep_with(sweep_layouts.len(), |i| {
            EembcBenchmark::Tblook.packed_trace(&sweep_layouts.layout(i))
        })
        .expect("valid platform");
    assert!(benchmark_sweep.max_cycles() > 0);
}

#[test]
fn reducing_cache_pressure_reduces_execution_time() {
    // Sanity of the whole stack: the 8KB kernel must run faster than the
    // 20KB kernel per traversal, which must run faster than the 160KB one.
    let platform = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let mut means = Vec::new();
    for kernel in [
        SyntheticKernel::with_traversals(8 * 1024, 5),
        SyntheticKernel::with_traversals(20 * 1024, 5),
        SyntheticKernel::with_traversals(160 * 1024, 5),
    ] {
        let trace = kernel.trace(&MemoryLayout::default());
        let result = Campaign::new(platform, 20)
            .run(&trace)
            .expect("valid platform");
        // Normalise per accessed line so footprints are comparable.
        let lines = kernel.footprint_bytes() / 32;
        means.push(result.mean_cycles() / lines as f64);
    }
    assert!(
        means[0] <= means[1] && means[1] <= means[2],
        "per-line cost should grow with footprint: {means:?}"
    );
}

#[test]
fn experiment_helpers_are_usable_from_the_facade() {
    // The experiments crate drives the same public APIs users see.
    let options = randmod_experiments::cli::ExperimentOptions::default()
        .with_runs(120)
        .with_campaign_seed(1);
    let row = randmod_experiments::table2::row_for(EembcBenchmark::Rspeed, &options)
        .expect("valid platform");
    assert_eq!(row.runs, 120);
    assert!(row.ww_statistic.is_finite());
}
