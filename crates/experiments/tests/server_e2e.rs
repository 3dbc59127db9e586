//! End-to-end server pin: the Figure 1 campaign submitted to a live
//! campaign server reproduces the recorded EXPERIMENTS.md number bit for
//! bit.
//!
//! The headline assertion reproduces the Figure 1 golden value —
//! pWCET(10⁻¹⁵) = 171,639 cycles for the 20KB synthetic kernel under RM
//! at the default 300-run schedule — with every run simulated inside the
//! server process and the sample shipped back over the wire.  The warm
//! path then resubmits the same campaign and must be served from the
//! server's content-addressed store with byte-identical results.

use randmod_core::PlacementKind;
use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::{fig1, runner};
use randmod_mbpta::ExecutionSample;
use randmod_server::{encode_spec, start, CampaignSpec, Client, ResultStore, ServerConfig, SpecMode};
use randmod_sim::{decode_solo_runs, encode_solo_runs, Campaign};
use randmod_workloads::{MemoryLayout, SyntheticKernel, Workload};

#[test]
fn fig1_through_the_server_reproduces_the_golden_pwcet() {
    let dir = std::env::temp_dir().join(format!("randmod_e2e_fig1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(ServerConfig::default(), store).unwrap();

    // The exact fig1 campaign: the 20KB kernel at the default layout, RM
    // in the L1s, the golden schedule (300 runs, campaign seed 0xC0FFEE).
    let trace = SyntheticKernel::fits_l2().packed_trace(&MemoryLayout::default());
    let platform = runner::platform_with_l1(PlacementKind::RandomModulo);
    let campaign = Campaign::new(platform, 300).with_campaign_seed(0xC0FFEE);
    let seeds = campaign.seed_schedule();
    let spec = encode_spec(&CampaignSpec {
        config: platform,
        campaign_seed: 0xC0FFEE,
        mode: SpecMode::Fixed(seeds.clone()),
        trace: trace.clone(),
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let cold = client.post("/campaign", &spec).unwrap();
    assert_eq!(cold.status, 200);
    let runs = decode_solo_runs(&cold.body, &seeds).expect("payload matches the seed schedule");
    let sample = ExecutionSample::from_cycles_iter(runs.iter().map(|run| run.cycles));
    let pwcet = runner::analyze(&sample).pwcet_at(1e-15);
    assert_eq!(
        pwcet.round() as u64,
        171_639,
        "server-computed fig1 pWCET drifted from the EXPERIMENTS.md record: {pwcet}"
    );
    // Exactly the local pipeline's number, not just the same rounding.
    let local = fig1::generate(&ExperimentOptions::default()).unwrap();
    assert_eq!(pwcet, local.pwcet_at_cutoff, "the server must be invisible to the result");

    // Warm resubmission of the same spec: a cache hit whose body is
    // byte-identical to the direct engine path.
    let warm = client.post("/campaign", &spec).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.header("X-Randmod-Cache"),
        Some("hit"),
        "the fig1 campaign must already be in the store"
    );
    let direct = encode_solo_runs(campaign.run_seeds(&trace, &seeds).unwrap().runs());
    assert_eq!(warm.body, direct, "cached bytes must match the direct engine");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
