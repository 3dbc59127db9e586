//! The adaptive campaign engine's core guarantees.
//!
//! An adaptive campaign must be a *prefix* of the fixed-run campaign with
//! the same campaign seed: the convergence loop only decides where the
//! seed schedule stops, never what any run computes.  These tests pin that
//! prefix equivalence (bit-identical `RunResult`s against `run_seeds`),
//! the early stop on degenerate workloads, the run cap, and the
//! lanes/threads invariance of the adaptive path.

use randmod_core::prng::SeedSequence;
use randmod_core::{Address, PlacementKind};
use randmod_mbpta::ConvergenceCriterion;
use randmod_sim::{Campaign, PlatformConfig, Trace};

/// A trace whose data footprint stresses the caches, so random placement
/// produces genuine execution-time variance.
fn noisy_trace() -> Trace {
    let mut trace = Trace::new();
    for repeat in 0..3u64 {
        for i in 0..900u64 {
            trace.fetch(Address::new(0x1000 + (i % 24) * 32));
            trace.load(Address::new(0x10_0000 + i * 40 + repeat));
            if i % 5 == 0 {
                trace.store(Address::new(0x20_0000 + (i % 512) * 32));
            }
        }
    }
    trace
}

/// A tiny trace that fits entirely in the L1, so every seed produces the
/// same cycle count (the degenerate regime of the EEMBC kernels under RM).
fn constant_trace() -> Trace {
    let mut trace = Trace::new();
    for _ in 0..4u64 {
        for i in 0..32u64 {
            trace.load(Address::new(0x1000 + i * 32));
        }
    }
    trace
}

fn rm_campaign(seed: u64) -> Campaign {
    Campaign::new(
        PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
        0,
    )
    .with_campaign_seed(seed)
}

fn quick_criterion() -> ConvergenceCriterion {
    ConvergenceCriterion::default()
        .with_min_runs(24)
        .with_check_interval(8)
        .with_max_runs(120)
}

#[test]
fn adaptive_prefix_is_bit_identical_to_run_seeds() {
    let trace = noisy_trace();
    // Both seeded L1 placements an MBPTA campaign sweeps: RM and hRP.
    for placement in [PlacementKind::RandomModulo, PlacementKind::HashRandom] {
        let campaign = Campaign::new(PlatformConfig::leon3().with_l1_placement(placement), 0)
            .with_campaign_seed(0xADA7)
            .with_threads(3)
            .with_lanes(4);
        let adaptive = campaign.run_adaptive(&trace, &quick_criterion()).unwrap();
        let n = adaptive.runs_used();
        assert!(n > 0);
        // The same campaign executed as a fixed schedule over the first N
        // seeds of the campaign's seed sequence: every RunResult (seed,
        // cycles, per-level statistics) must match bit-for-bit.
        let seeds: Vec<u64> = SeedSequence::new(0xADA7).take(n).collect();
        let fixed = campaign.run_seeds(&trace, &seeds).unwrap();
        assert_eq!(
            adaptive.result(),
            &fixed,
            "adaptive prefix diverged under {placement}"
        );
    }
}

#[test]
fn degenerate_workload_converges_at_the_criterion_floor() {
    let trace = constant_trace();
    let criterion = quick_criterion();
    let adaptive = rm_campaign(7).run_adaptive(&trace, &criterion).unwrap();
    assert!(adaptive.converged());
    assert_eq!(adaptive.runs_used(), criterion.min_runs);
    assert_eq!(adaptive.trajectory().len(), 1);
    // Constant execution time: the estimate is the observed cycle count.
    let cycles = adaptive.result().runs()[0].cycles;
    assert_eq!(adaptive.pwcet_estimate(), cycles as f64);
    assert!(adaptive.to_string().contains("converged"));
}

#[test]
fn run_cap_is_respected_when_the_estimate_never_stabilises() {
    let trace = noisy_trace();
    // More consecutive stable checkpoints than the cap allows checkpoints:
    // convergence is unreachable by construction, whatever the estimates do.
    let criterion = quick_criterion()
        .with_stable_checkpoints(50)
        .with_max_runs(60);
    let adaptive = rm_campaign(3).run_adaptive(&trace, &criterion).unwrap();
    assert!(!adaptive.converged());
    assert_eq!(adaptive.runs_used(), 60);
    // The trajectory still ends with an estimate over the full sample.
    assert_eq!(adaptive.trajectory().last().unwrap().runs, 60);
    assert!(adaptive.to_string().contains("run cap reached"));
}

#[test]
fn adaptive_result_is_invariant_under_lanes_and_threads() {
    let trace = noisy_trace();
    let criterion = quick_criterion();
    let reference = rm_campaign(0xBEEF)
        .with_threads(1)
        .with_lanes(1)
        .run_adaptive(&trace, &criterion)
        .unwrap();
    for (threads, lanes) in [(1usize, 8usize), (4, 1), (3, 5)] {
        let result = rm_campaign(0xBEEF)
            .with_threads(threads)
            .with_lanes(lanes)
            .run_adaptive(&trace, &criterion)
            .unwrap();
        assert_eq!(
            result, reference,
            "adaptive campaign diverged for threads={threads} lanes={lanes}"
        );
    }
}

#[test]
fn converged_estimate_tracks_the_sample_high_water_mark() {
    let trace = noisy_trace();
    let criterion = ConvergenceCriterion::default()
        .with_min_runs(40)
        .with_check_interval(20)
        .with_relative_tolerance(0.05)
        .with_max_runs(400);
    let adaptive = rm_campaign(11).run_adaptive(&trace, &criterion).unwrap();
    let hwm = adaptive.result().max_cycles();
    assert!(adaptive.pwcet_estimate() >= hwm as f64);
    // Checkpoints are ordered and non-empty.
    let runs: Vec<usize> = adaptive.trajectory().iter().map(|c| c.runs).collect();
    assert!(!runs.is_empty());
    assert!(
        runs.windows(2).all(|w| w[0] < w[1]),
        "checkpoints out of order: {runs:?}"
    );
}
