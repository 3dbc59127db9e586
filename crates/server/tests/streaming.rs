//! Adaptive-campaign streaming battery: the chunked trajectory the
//! server streams is exactly the convergence record the engine
//! produces, and a warm replay streams byte-identical lines.

use randmod_core::{Address, PlacementKind};
use randmod_mbpta::online::ConvergenceCriterion;
use randmod_server::{
    encode_spec, start, CampaignSpec, Client, ResultStore, ServerConfig, SpecMode,
};
use randmod_sim::config::PlatformConfig;
use randmod_sim::trace::{MemEvent, Trace};
use randmod_sim::{Campaign, PackedTrace};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("randmod_stream_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kernel() -> PackedTrace {
    let mut trace = Trace::new();
    for rep in 0..4u64 {
        for i in 0..150u64 {
            trace.push(MemEvent::InstrFetch(Address::new(0x4000 + (i % 56) * 4)));
            if i % 2 == 0 {
                trace.push(MemEvent::Load(Address::new(
                    0x2_0000 + ((i * 7 + rep) % 72) * 256,
                )));
            }
        }
    }
    PackedTrace::from(&trace)
}

fn quick_criterion() -> ConvergenceCriterion {
    ConvergenceCriterion::default()
        .with_min_runs(60)
        .with_check_interval(30)
        .with_block_size(10)
        .with_max_runs(300)
        .with_relative_tolerance(0.05)
}

#[test]
fn streamed_trajectory_matches_run_adaptive_and_replays_identically() {
    let dir = temp_dir("trajectory");
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(ServerConfig::default(), store).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let trace = kernel();
    let criterion = quick_criterion();
    let spec = CampaignSpec {
        config,
        campaign_seed: 0xC0FFEE,
        mode: SpecMode::Adaptive(criterion),
        trace: trace.clone(),
    };

    // The direct engine path the stream must mirror.  The server runs
    // campaigns single-threaded; the engine is bit-identical across
    // thread counts, but match it anyway so this test pins the exact
    // configuration the service uses.
    let campaign = Campaign::new(config, criterion.max_runs)
        .with_campaign_seed(0xC0FFEE)
        .with_threads(1);
    let direct = campaign.run_adaptive(&trace, &criterion).unwrap();

    let body = encode_spec(&spec);
    let cold = client.post("/campaign", &body).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("X-Randmod-Cache"), Some("miss"));
    assert_eq!(
        cold.header("Transfer-Encoding")
            .map(str::to_ascii_lowercase),
        Some("chunked".to_string())
    );

    let text = String::from_utf8(cold.body.clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        direct.trajectory().len() + 1,
        "one line per checkpoint plus the summary: {text}"
    );

    // Prefix: the checkpoint lines, in trajectory order with the exact
    // estimates (the first checkpoint's delta is infinite -> null).
    for (line, checkpoint) in lines.iter().zip(direct.trajectory()) {
        let delta = if checkpoint.relative_delta.is_finite() {
            format!("{}", checkpoint.relative_delta)
        } else {
            "null".to_string()
        };
        let expected = format!(
            "{{\"runs\":{},\"pwcet\":{},\"delta\":{}}}",
            checkpoint.runs, checkpoint.pwcet, delta
        );
        assert_eq!(*line, expected);
    }
    let first = lines.first().unwrap();
    assert!(
        first.contains("\"delta\":null"),
        "first checkpoint has no predecessor: {first}"
    );

    // Summary line carries the verdict and the final estimate.
    let summary = lines.last().unwrap();
    let expected_summary = format!(
        "{{\"converged\":{},\"runs_used\":{},\"pwcet\":{}}}",
        direct.converged(),
        direct.runs_used(),
        direct.pwcet_estimate()
    );
    assert_eq!(*summary, expected_summary);

    // Warm replay: a cache hit whose streamed bytes are identical.
    let warm = client.post("/campaign", &body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Randmod-Cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "warm stream must be byte-identical");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_criterion_changes_rekey_the_cache() {
    let dir = temp_dir("rekey");
    let store = ResultStore::in_dir(&dir).unwrap();
    let handle = start(ServerConfig::default(), store).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
    let trace = kernel();
    let mut key_of = |criterion: ConvergenceCriterion, campaign_seed: u64| {
        let spec = CampaignSpec {
            config,
            campaign_seed,
            mode: SpecMode::Adaptive(criterion),
            trace: trace.clone(),
        };
        let response = client.post("/campaign", &encode_spec(&spec)).unwrap();
        assert_eq!(response.status, 200);
        response.header("X-Randmod-Key").unwrap().to_string()
    };

    let base = key_of(quick_criterion(), 1);
    assert_eq!(
        key_of(quick_criterion(), 1),
        base,
        "identical spec, identical key"
    );
    let variants = [
        key_of(quick_criterion().with_relative_tolerance(0.04), 1),
        key_of(quick_criterion().with_max_runs(299), 1),
        key_of(quick_criterion().with_target_probability(1e-9), 1),
        key_of(quick_criterion(), 2),
    ];
    for (index, variant) in variants.iter().enumerate() {
        assert_ne!(variant, &base, "variant {index} must re-key");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
