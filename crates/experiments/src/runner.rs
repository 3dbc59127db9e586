//! Shared campaign-running helpers for all experiments.
//!
//! Campaigns replay the packed 8-byte-per-event trace representation
//! ([`randmod_sim::PackedTrace`]): workloads emit straight into the packed
//! form and the layout sweeps of Figure 4(b) stream one layout's trace at
//! a time, so no experiment ever materialises a boxed `Vec<MemEvent>` or a
//! whole `Vec<Trace>` family.

use crate::cli::ExperimentOptions;
use crate::error::ExperimentError;
use crate::MIN_RUNS;
use randmod_core::{ConfigError, PlacementKind};
use randmod_mbpta::{
    ConvergenceCriterion, ExecutionSample, MbptaAnalysis, MbptaConfig, MbptaReport,
};
use randmod_sim::checkpoint::{CheckpointError, CheckpointStore};
use randmod_sim::trace::EventSource;
use randmod_sim::{
    AdaptiveResult, Campaign, ContendedAdaptiveResult, FileCheckpointStore, PlatformConfig,
    ShardedReport,
};
use randmod_workloads::{CoSchedule, LayoutSweep, MemoryLayout, Workload};

/// The experimental platform of Section 4.3: the chosen placement policy in
/// the IL1 and DL1, hRP kept in the L2, random replacement everywhere.
pub fn platform_with_l1(placement: PlacementKind) -> PlatformConfig {
    PlatformConfig::leon3()
        .with_l1_placement(placement)
        .with_l2_placement(PlacementKind::HashRandom)
}

/// Builds a campaign, applying the `--threads` and `--lanes` overrides
/// when set.
pub fn campaign(
    platform: PlatformConfig,
    runs: usize,
    campaign_seed: u64,
    threads: Option<usize>,
    lanes: Option<usize>,
) -> Campaign {
    let mut campaign = Campaign::new(platform, runs).with_campaign_seed(campaign_seed);
    if let Some(threads) = threads {
        campaign = campaign.with_threads(threads);
    }
    if let Some(lanes) = lanes {
        campaign = campaign.with_lanes(lanes);
    }
    campaign
}

/// Runs an MBPTA measurement campaign for `workload` with the given L1
/// placement policy and returns the execution-time sample.
///
/// # Errors
///
/// Returns [`ConfigError`] if the platform configuration is invalid.
pub fn measure(
    workload: &dyn Workload,
    l1_placement: PlacementKind,
    runs: usize,
    campaign_seed: u64,
    threads: Option<usize>,
    lanes: Option<usize>,
) -> Result<ExecutionSample, ConfigError> {
    let trace = workload.packed_trace(&MemoryLayout::default());
    measure_source(
        &trace,
        platform_with_l1(l1_placement),
        runs,
        campaign_seed,
        threads,
        lanes,
    )
}

/// Runs an MBPTA measurement campaign for an already-generated event
/// source (packed or boxed) on an explicit platform.
///
/// # Errors
///
/// Returns [`ConfigError`] if the platform configuration is invalid.
pub fn measure_source<S>(
    source: &S,
    platform: PlatformConfig,
    runs: usize,
    campaign_seed: u64,
    threads: Option<usize>,
    lanes: Option<usize>,
) -> Result<ExecutionSample, ConfigError>
where
    S: EventSource + ?Sized,
{
    let result = campaign(platform, runs, campaign_seed, threads, lanes).run(source)?;
    Ok(ExecutionSample::from_cycles_iter(result.cycles_iter()))
}

/// Runs the deterministic-platform layout sweep (modulo placement, LRU
/// replacement) for a workload and returns the execution-time sample across
/// layouts — the input of the high-water-mark protocol.  The sweep is
/// streamed: each worker thread regenerates (and drops) one layout's
/// packed trace at a time, so memory stays constant in the sweep size.
///
/// # Errors
///
/// Returns [`ConfigError`] if the platform configuration is invalid.
pub fn measure_deterministic_sweep(
    workload: &(dyn Workload + Sync),
    layouts: usize,
    threads: Option<usize>,
) -> Result<ExecutionSample, ConfigError> {
    let sweep = LayoutSweep::new(layouts);
    let result = campaign(PlatformConfig::leon3_deterministic(), 0, 0, threads, None)
        .run_layout_sweep_with(sweep.len(), |i| workload.packed_trace(&sweep.layout(i)))?;
    Ok(ExecutionSample::from_cycles_iter(result.cycles_iter()))
}

/// Applies the standard MBPTA analysis (block size scaled to the sample) to
/// a measurement sample.
pub fn analyze(sample: &ExecutionSample) -> MbptaReport {
    // Keep roughly 20+ blocks even for reduced run counts.
    let block_size = (sample.len() / 20).clamp(5, 50);
    analyze_with_block_size(sample, block_size)
}

/// [`analyze`] with an explicit block-maxima block size.
pub fn analyze_with_block_size(sample: &ExecutionSample, block_size: usize) -> MbptaReport {
    let config = MbptaConfig::default()
        .with_block_size(block_size)
        .with_minimum_runs(sample.len().min(100));
    MbptaAnalysis::new(config).analyze(sample)
}

/// The analysis matching how a [`Measurement`] was collected: adaptive
/// samples are analysed at [`ADAPTIVE_BLOCK_SIZE`] — the block size whose
/// pWCET estimate the convergence loop actually declared stable — while
/// fixed-run samples keep the sample-scaled block size of [`analyze`].
pub fn analyze_measurement(measurement: &Measurement) -> MbptaReport {
    if measurement.adaptive.is_some() {
        analyze_with_block_size(&measurement.sample, ADAPTIVE_BLOCK_SIZE)
    } else {
        analyze(&measurement.sample)
    }
}

/// `measure` driven by [`ExperimentOptions`] (runs, threads), with a
/// per-experiment seed.
///
/// # Errors
///
/// Returns [`ConfigError`] if the platform configuration is invalid.
pub fn measure_opts(
    workload: &dyn Workload,
    l1_placement: PlacementKind,
    options: &ExperimentOptions,
    campaign_seed: u64,
) -> Result<ExecutionSample, ConfigError> {
    measure(
        workload,
        l1_placement,
        options.runs,
        campaign_seed,
        options.threads,
        options.lanes,
    )
}

/// How long the client keeps retrying a `429 Retry-After` backpressure
/// refusal before giving up: a saturated server is expected to drain —
/// campaigns are finite — but a wedged one must not hang an experiment
/// forever.
pub const SERVER_BUSY_PATIENCE: std::time::Duration = std::time::Duration::from_secs(300);

/// Submits one fixed-run campaign to a `randmod-server` (`--server`) and
/// decodes the returned sample.  The server replays exactly the seed
/// schedule the local engine would use, so the returned sample is
/// bit-identical to [`measure_source`] — warm submissions are just served
/// from the server's content-addressed cache instead of recomputed.
///
/// # Errors
///
/// Returns [`ExperimentError::Server`] if the server is unreachable,
/// stays saturated past [`SERVER_BUSY_PATIENCE`], refuses the campaign,
/// or returns a payload that fails seed-schedule validation.
pub fn measure_via_server(
    addr: &str,
    trace: &randmod_sim::PackedTrace,
    platform: PlatformConfig,
    runs: usize,
    campaign_seed: u64,
) -> Result<ExecutionSample, ExperimentError> {
    let server_error = |detail: String| ExperimentError::Server { detail };
    let seeds = Campaign::new(platform, runs)
        .with_campaign_seed(campaign_seed)
        .seed_schedule();
    let spec = randmod_server::CampaignSpec {
        config: platform,
        campaign_seed,
        mode: randmod_server::SpecMode::Fixed(seeds.clone()),
        trace: trace.clone(),
    };
    let body = randmod_server::encode_spec(&spec);
    let mut client = randmod_server::Client::connect(addr)
        .map_err(|err| server_error(format!("{addr}: connect failed: {err}")))?;
    let deadline = std::time::Instant::now() + SERVER_BUSY_PATIENCE;
    loop {
        let response = client
            .post("/campaign", &body)
            .map_err(|err| server_error(format!("{addr}: submission failed: {err}")))?;
        match response.status {
            200 => {
                let runs = randmod_sim::decode_solo_runs(&response.body, &seeds).ok_or_else(
                    || {
                        server_error(format!(
                            "{addr}: response payload does not match the campaign's seed schedule"
                        ))
                    },
                )?;
                return Ok(ExecutionSample::from_cycles_iter(
                    runs.iter().map(|run| run.cycles),
                ));
            }
            429 => {
                if std::time::Instant::now() >= deadline {
                    return Err(server_error(format!(
                        "{addr}: still saturated after {}s of 429 backpressure",
                        SERVER_BUSY_PATIENCE.as_secs()
                    )));
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            status => {
                return Err(server_error(format!(
                    "{addr}: campaign refused with status {status}: {}",
                    String::from_utf8_lossy(&response.body)
                )));
            }
        }
    }
}

/// Default shard count when `--checkpoint` asks for a resumable campaign
/// without an explicit `--shards`: enough shards that an interruption
/// loses at most a few percent of a long campaign, few enough that the
/// per-shard checkpoint rewrite stays negligible.
pub const DEFAULT_SHARDS: usize = 16;

/// Environment variable of the fault-injection smoke test: when set to
/// `N` (≥ 1), the process dies on the spot — no unwinding, no cleanup,
/// exactly as `kill -9` would — immediately after the `N`-th shard
/// checkpoint has persisted.
pub const KILL_AFTER_SHARD_ENV: &str = "RANDMOD_KILL_AFTER_SHARD";

/// The shard count the options imply: an explicit `--shards`, or
/// [`DEFAULT_SHARDS`] when `--checkpoint` requests a resumable campaign,
/// or `None` for the classic unsharded path (bit-identical either way —
/// that is the shard protocol's defining property).
pub fn sharding(options: &ExperimentOptions) -> Option<usize> {
    match (options.shards, options.checkpoint.as_deref()) {
        (Some(shards), _) => Some(shards),
        (None, Some(_)) => Some(DEFAULT_SHARDS),
        (None, None) => None,
    }
}

/// Opens the checkpoint store of a campaign: the file
/// `ckpt_<fingerprint>.bin` inside `dir` (the directory is created if
/// missing; the fingerprint in the name keeps concurrent experiments in
/// one directory from colliding).  Without `resume`, any existing file is
/// removed first so a re-run starts fresh instead of replaying stale
/// shards.
fn open_checkpoint_store(
    dir: &str,
    fingerprint: u64,
    resume: bool,
) -> Result<FileCheckpointStore, ExperimentError> {
    std::fs::create_dir_all(dir).map_err(|source| ExperimentError::Io {
        path: dir.to_string(),
        source,
    })?;
    let path = std::path::Path::new(dir).join(format!("ckpt_{fingerprint:016x}.bin"));
    let mut store = FileCheckpointStore::new(path);
    if !resume {
        store.clear()?;
    }
    Ok(store)
}

/// A store wrapper honouring [`KILL_AFTER_SHARD_ENV`] for the CI
/// fault-injection smoke test.
struct KillStore {
    inner: FileCheckpointStore,
    saves: usize,
    kill_after: usize,
}

impl CheckpointStore for KillStore {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        self.inner.load()
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.inner.save(bytes)?;
        self.saves += 1;
        if self.saves >= self.kill_after {
            eprintln!(
                "{KILL_AFTER_SHARD_ENV}: simulated crash after {} shard checkpoint(s)",
                self.saves
            );
            std::process::abort();
        }
        Ok(())
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

/// Boxes the store, arming the [`KILL_AFTER_SHARD_ENV`] crash hook when
/// the environment requests it.
fn with_kill_hook(store: FileCheckpointStore) -> Box<dyn CheckpointStore> {
    match std::env::var(KILL_AFTER_SHARD_ENV)
        .ok()
        .and_then(|value| value.parse::<usize>().ok())
    {
        Some(kill_after) if kill_after > 0 => Box::new(KillStore {
            inner: store,
            saves: 0,
            kill_after,
        }),
        _ => Box::new(store),
    }
}

/// Reports checkpoint diagnostics and resume progress on **stderr**, so
/// the CSV on stdout stays byte-identical to an uninterrupted run.
fn report_checkpoint_progress<R>(report: &ShardedReport<R>, location: &str) {
    for diagnostic in &report.diagnostics {
        eprintln!("checkpoint warning: {diagnostic}");
    }
    eprintln!(
        "checkpoint {location}: resumed {} shard(s), executed {} of {}",
        report.resumed, report.executed, report.shard_count
    );
}

/// Default run cap of adaptive campaigns (double the paper's fixed 1,000
/// runs, so a slow-to-stabilise scenario is detected rather than silently
/// under-sampled).
pub const DEFAULT_ADAPTIVE_MAX_RUNS: usize = 2_000;

/// Exceedance probability the convergence loop targets (the paper quotes
/// pWCET at 10⁻¹² per run alongside the 10⁻¹⁵ cutoff).
pub const ADAPTIVE_TARGET_PROBABILITY: f64 = 1e-12;

/// Block size of the adaptive refit loop.  Fixed, because blocks
/// accumulate incrementally and cannot be re-cut as the sample grows;
/// [`analyze_measurement`] analyses adaptive samples at this same block
/// size so the reported curve is the one whose stability the criterion
/// actually checked.
pub const ADAPTIVE_BLOCK_SIZE: usize = 25;

/// Builds the convergence criterion an experiment's `--adaptive` mode
/// uses: pWCET at 10⁻¹² tracked within `--target-cv` (default 1%) over
/// consecutive checkpoints, capped at `--max-runs`.  Quick mode shrinks
/// the floor, cadence and cap to smoke-test size.
pub fn convergence_criterion(options: &ExperimentOptions) -> ConvergenceCriterion {
    let max_runs = options
        .max_runs
        .unwrap_or(if options.quick { 40 } else { DEFAULT_ADAPTIVE_MAX_RUNS })
        .max(MIN_RUNS);
    let (min_runs, check_interval, stable_checkpoints) = if options.quick {
        (MIN_RUNS.min(max_runs), 10, 2)
    } else {
        (100.min(max_runs), 50, 3)
    };
    let mut criterion = ConvergenceCriterion::default()
        .with_target_probability(ADAPTIVE_TARGET_PROBABILITY)
        .with_block_size(ADAPTIVE_BLOCK_SIZE)
        .with_max_runs(max_runs)
        .with_min_runs(min_runs)
        .with_check_interval(check_interval)
        .with_stable_checkpoints(stable_checkpoints);
    if let Some(target_cv) = options.target_cv {
        criterion = criterion.with_relative_tolerance(target_cv);
    }
    criterion
}

/// How an adaptive campaign ended: the runs-to-convergence count and the
/// final state of the convergence loop, recorded next to the measured
/// sample so experiments can report it per benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSummary {
    /// Number of runs the campaign needed.
    pub runs_used: usize,
    /// Whether the stopping rule was met before the run cap.
    pub converged: bool,
    /// Number of convergence checkpoints (Gumbel refits) taken.
    pub checkpoints: usize,
    /// Final pWCET estimate at [`ADAPTIVE_TARGET_PROBABILITY`].
    pub pwcet_estimate: f64,
}

impl AdaptiveSummary {
    fn from_result(result: &AdaptiveResult) -> Self {
        AdaptiveSummary {
            runs_used: result.runs_used(),
            converged: result.converged(),
            checkpoints: result.trajectory().len(),
            pwcet_estimate: result.pwcet_estimate(),
        }
    }
}

/// A measured execution-time sample plus, for adaptive campaigns, the
/// convergence record behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The execution-time observations, in campaign order.
    pub sample: ExecutionSample,
    /// The convergence record (`None` for fixed-run campaigns).
    pub adaptive: Option<AdaptiveSummary>,
}

/// [`measure_opts`] that honours `options.adaptive`, `options.shards`,
/// `options.checkpoint` and `options.server`: a fixed-run campaign by
/// default, the convergence-driven protocol (whose collected runs are a
/// bit-identical prefix of the fixed schedule) under `--adaptive`, the
/// sharded — optionally checkpointed and resumable — protocol
/// (bit-identical to the unsharded campaign) under
/// `--shards`/`--checkpoint`, or — for fixed-run campaigns under
/// `--server` — a submission to a running campaign server via
/// [`measure_via_server`] (bit-identical again: the server runs the same
/// engine over the same seed schedule).
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid,
/// the checkpoint directory cannot be created, the checkpoint store
/// fails or belongs to a different campaign, or — in client mode — the
/// campaign server fails (see [`measure_via_server`]).
pub fn measure_campaign(
    workload: &dyn Workload,
    l1_placement: PlacementKind,
    options: &ExperimentOptions,
    campaign_seed: u64,
) -> Result<Measurement, ExperimentError> {
    if !options.adaptive {
        if let Some(addr) = options.server.as_deref() {
            let trace = workload.packed_trace(&MemoryLayout::default());
            let sample = measure_via_server(
                addr,
                &trace,
                platform_with_l1(l1_placement),
                options.runs,
                campaign_seed,
            )?;
            return Ok(Measurement { sample, adaptive: None });
        }
        let sample = match sharding(options) {
            None => measure_opts(workload, l1_placement, options, campaign_seed)?,
            Some(shards) => {
                let trace = workload.packed_trace(&MemoryLayout::default());
                let campaign = campaign(
                    platform_with_l1(l1_placement),
                    options.runs,
                    campaign_seed,
                    options.threads,
                    options.lanes,
                );
                let result = match options.checkpoint.as_deref() {
                    None => campaign.run_sharded(&trace, shards)?,
                    Some(dir) => {
                        let fingerprint = campaign.default_sharded_fingerprint(&trace, shards);
                        let mut store =
                            with_kill_hook(open_checkpoint_store(dir, fingerprint, options.resume)?);
                        let report =
                            campaign.run_sharded_checkpointed(&trace, shards, store.as_mut())?;
                        report_checkpoint_progress(&report, &store.location());
                        report.result
                    }
                };
                ExecutionSample::from_cycles_iter(result.cycles_iter())
            }
        };
        return Ok(Measurement { sample, adaptive: None });
    }
    let trace = workload.packed_trace(&MemoryLayout::default());
    let criterion = convergence_criterion(options);
    let result = campaign(
        platform_with_l1(l1_placement),
        0,
        campaign_seed,
        options.threads,
        options.lanes,
    )
    .run_adaptive(&trace, &criterion)?;
    Ok(Measurement {
        sample: ExecutionSample::from_cycles_iter(result.result().cycles_iter()),
        adaptive: Some(AdaptiveSummary::from_result(&result)),
    })
}

/// The contention platform of the `fig6_contention` experiment: the
/// placement policy under test at the **shared L2**, Random Modulo kept in
/// every task's L1s (the paper's design point), random replacement
/// everywhere.  The sweep isolates how the shared level's placement policy
/// shapes victim pWCET under co-runner pressure.
pub fn contention_platform(l2_placement: PlacementKind) -> PlatformConfig {
    PlatformConfig::leon3()
        .with_l1_placement(PlacementKind::RandomModulo)
        .with_l2_placement(l2_placement)
}

/// A contended campaign's extracted samples: one [`ExecutionSample`] per
/// task (victim first), plus the convergence record of an adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct ContendedMeasurement {
    /// Per-task execution-time samples, task 0 (the victim) first.
    pub per_task: Vec<ExecutionSample>,
    /// The convergence record (`None` for fixed-run campaigns).
    pub adaptive: Option<AdaptiveSummary>,
}

impl ContendedMeasurement {
    /// The victim's (task 0's) sample.
    pub fn victim(&self) -> &ExecutionSample {
        &self.per_task[0]
    }
}

impl AdaptiveSummary {
    fn from_contended(result: &ContendedAdaptiveResult) -> Self {
        AdaptiveSummary {
            runs_used: result.runs_used(),
            converged: result.converged(),
            checkpoints: result.trajectory().len(),
            pwcet_estimate: result.pwcet_estimate(),
        }
    }
}

/// Runs a contended (shared-L2) campaign for one co-schedule and splits
/// the result into per-task samples.  Honours `options.adaptive`: a
/// fixed-run schedule by default, or the convergence-driven protocol on
/// the victim's pWCET (whose collected runs are a bit-identical prefix of
/// the fixed schedule) under `--adaptive`.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid,
/// the checkpoint directory cannot be created, or the checkpoint store
/// fails or belongs to a different campaign.
pub fn measure_contended<W: Workload>(
    schedule: &CoSchedule<W>,
    l2_placement: PlacementKind,
    options: &ExperimentOptions,
    campaign_seed: u64,
) -> Result<ContendedMeasurement, ExperimentError> {
    let sources = schedule.packed_traces(&MemoryLayout::default());
    let tasks = sources.len();
    let campaign = campaign(
        contention_platform(l2_placement),
        options.runs,
        campaign_seed,
        options.threads,
        options.lanes,
    );
    let (result, adaptive) = if options.adaptive {
        let criterion = convergence_criterion(options);
        let adaptive = campaign.run_contended_adaptive(&sources, &criterion)?;
        let summary = AdaptiveSummary::from_contended(&adaptive);
        (adaptive.result().clone(), Some(summary))
    } else if let Some(shards) = sharding(options) {
        let result = match options.checkpoint.as_deref() {
            None => campaign.run_contended_sharded_campaign(&sources, shards)?,
            Some(dir) => {
                let fingerprint = campaign.contended_sharded_fingerprint(
                    &sources,
                    &campaign.seed_schedule(),
                    shards,
                );
                let mut store =
                    with_kill_hook(open_checkpoint_store(dir, fingerprint, options.resume)?);
                let report =
                    campaign.run_contended_sharded_checkpointed(&sources, shards, store.as_mut())?;
                report_checkpoint_progress(&report, &store.location());
                report.result
            }
        };
        (result, None)
    } else {
        (campaign.run_contended_campaign(&sources)?, None)
    };
    Ok(ContendedMeasurement {
        per_task: ExecutionSample::split_interleaved(result.flat_cycles_iter(), tasks),
        adaptive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use randmod_workloads::SyntheticKernel;

    #[test]
    fn measure_produces_requested_runs() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 3);
        let sample = measure(&kernel, PlacementKind::RandomModulo, 12, 1, None, None).unwrap();
        assert_eq!(sample.len(), 12);
        assert!(sample.min() > 0);
    }

    #[test]
    fn thread_override_does_not_change_the_sample() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 3);
        let default_threads =
            measure(&kernel, PlacementKind::RandomModulo, 10, 2, None, None).unwrap();
        let one_thread =
            measure(&kernel, PlacementKind::RandomModulo, 10, 2, Some(1), None).unwrap();
        let four_threads =
            measure(&kernel, PlacementKind::RandomModulo, 10, 2, Some(4), None).unwrap();
        assert_eq!(default_threads, one_thread);
        assert_eq!(default_threads, four_threads);
    }

    #[test]
    fn lane_override_does_not_change_the_sample() {
        // --lanes is a throughput knob: any lane count (including the
        // sequential escape hatch) reproduces the same sample.
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 3);
        let default_lanes =
            measure(&kernel, PlacementKind::RandomModulo, 10, 2, None, None).unwrap();
        let sequential =
            measure(&kernel, PlacementKind::RandomModulo, 10, 2, None, Some(1)).unwrap();
        let five_lanes =
            measure(&kernel, PlacementKind::RandomModulo, 10, 2, None, Some(5)).unwrap();
        assert_eq!(default_lanes, sequential);
        assert_eq!(default_lanes, five_lanes);
    }

    #[test]
    fn platform_uses_hrp_in_l2() {
        let platform = platform_with_l1(PlacementKind::RandomModulo);
        assert_eq!(platform.il1.placement, PlacementKind::RandomModulo);
        assert_eq!(platform.l2.placement, PlacementKind::HashRandom);
    }

    #[test]
    fn deterministic_sweep_runs_once_per_layout() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let sample = measure_deterministic_sweep(&kernel, 6, None).unwrap();
        assert_eq!(sample.len(), 6);
    }

    #[test]
    fn streamed_sweep_matches_the_collected_protocol() {
        use randmod_sim::Trace;
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let streamed = measure_deterministic_sweep(&kernel, 5, Some(2)).unwrap();
        // The pre-streaming protocol: collect every layout's boxed trace,
        // then sweep.
        let traces: Vec<Trace> = LayoutSweep::new(5)
            .iter()
            .map(|layout| kernel.trace(&layout))
            .collect();
        let collected = Campaign::new(PlatformConfig::leon3_deterministic(), 0)
            .run_layout_sweep(&traces)
            .unwrap();
        assert_eq!(
            streamed,
            ExecutionSample::from_cycles_iter(collected.cycles_iter())
        );
    }

    #[test]
    fn measure_opts_applies_runs_and_threads() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let options = crate::cli::ExperimentOptions::default()
            .with_runs(8)
            .with_threads(2)
            .with_lanes(4);
        let sample = measure_opts(&kernel, PlacementKind::RandomModulo, &options, 3).unwrap();
        assert_eq!(sample.len(), 8);
    }

    #[test]
    fn contended_solo_measurement_matches_the_single_task_protocol() {
        use randmod_workloads::CoSchedule;
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let schedule = CoSchedule::pressure_level(kernel, 0); // idle opponent
        let options = crate::cli::ExperimentOptions::default().with_runs(MIN_RUNS);
        let measurement =
            measure_contended(&schedule, PlacementKind::RandomModulo, &options, 5).unwrap();
        assert!(measurement.adaptive.is_none());
        assert_eq!(measurement.per_task.len(), 2);
        // The victim sample is bit-identical to the solo protocol on the
        // same platform; the idle opponent contributes all-zero cycles.
        let trace = kernel.packed_trace(&MemoryLayout::default());
        let solo = measure_source(
            &trace,
            contention_platform(PlacementKind::RandomModulo),
            MIN_RUNS,
            5,
            None,
            None,
        )
        .unwrap();
        assert_eq!(measurement.victim(), &solo);
        assert!(measurement.per_task[1].values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn contended_lane_override_does_not_change_the_sample() {
        use randmod_workloads::CoSchedule;
        // --lanes on a contended campaign switches between one-lane waves
        // (1), partial batches and full lane groups; every setting
        // must reproduce the same per-task samples bit for bit.
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let schedule = CoSchedule::pressure_level(kernel, 2);
        let measure_with = |lanes: Option<usize>| {
            let mut options = crate::cli::ExperimentOptions::default().with_runs(10);
            if let Some(lanes) = lanes {
                options = options.with_lanes(lanes);
            }
            measure_contended(&schedule, PlacementKind::HashRandom, &options, 7).unwrap()
        };
        let default_lanes = measure_with(None);
        assert_eq!(default_lanes, measure_with(Some(1)));
        assert_eq!(default_lanes, measure_with(Some(3)));
        assert_eq!(default_lanes, measure_with(Some(16)));
    }

    #[test]
    fn contended_adaptive_measurement_is_a_prefix_of_the_fixed_schedule() {
        use randmod_workloads::CoSchedule;
        let kernel = SyntheticKernel::with_traversals(20 * 1024, 3);
        let schedule = CoSchedule::pressure_level(kernel, 2);
        let options = crate::cli::ExperimentOptions::default()
            .with_adaptive()
            .with_max_runs(60)
            .with_target_cv(0.1);
        let adaptive =
            measure_contended(&schedule, PlacementKind::HashRandom, &options, 11).unwrap();
        let summary = adaptive.adaptive.clone().expect("adaptive summary missing");
        assert_eq!(summary.runs_used, adaptive.victim().len());
        let fixed = measure_contended(
            &schedule,
            PlacementKind::HashRandom,
            &crate::cli::ExperimentOptions::default().with_runs(summary.runs_used),
            11,
        )
        .unwrap();
        assert_eq!(adaptive.per_task, fixed.per_task);
    }

    #[test]
    fn sharding_follows_the_options() {
        let options = crate::cli::ExperimentOptions::default();
        assert_eq!(sharding(&options), None);
        assert_eq!(sharding(&options.clone().with_shards(6)), Some(6));
        assert_eq!(
            sharding(&options.clone().with_checkpoint("/tmp/x")),
            Some(DEFAULT_SHARDS)
        );
        assert_eq!(
            sharding(&options.with_shards(3).with_checkpoint("/tmp/x")),
            Some(3)
        );
    }

    #[test]
    fn sharded_measurement_is_bit_identical_to_the_unsharded_one() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let options = crate::cli::ExperimentOptions::default().with_runs(12);
        let reference =
            measure_campaign(&kernel, PlacementKind::RandomModulo, &options, 5).unwrap();
        for shards in [1, 3, 5] {
            let sharded = measure_campaign(
                &kernel,
                PlacementKind::RandomModulo,
                &options.clone().with_shards(shards),
                5,
            )
            .unwrap();
            assert_eq!(sharded, reference, "shards={shards}");
        }
    }

    #[test]
    fn checkpointed_measurement_round_trips_through_the_store() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let dir = std::env::temp_dir().join(format!(
            "randmod-runner-ckpt-test-{}",
            std::process::id()
        ));
        let dir_str = dir.to_str().unwrap().to_string();
        let options = crate::cli::ExperimentOptions::default()
            .with_runs(12)
            .with_shards(4)
            .with_checkpoint(dir_str.clone());
        let reference = measure_campaign(
            &kernel,
            PlacementKind::RandomModulo,
            &crate::cli::ExperimentOptions::default().with_runs(12),
            7,
        )
        .unwrap();
        // Fresh run populates the store and matches the unsharded result.
        let fresh = measure_campaign(&kernel, PlacementKind::RandomModulo, &options, 7).unwrap();
        assert_eq!(fresh, reference);
        // Resume replays every shard from the store — still bit-identical.
        let resumed = measure_campaign(
            &kernel,
            PlacementKind::RandomModulo,
            &options.clone().with_resume(),
            7,
        )
        .unwrap();
        assert_eq!(resumed, reference);
        // The contended driver shares the store plumbing.
        let schedule = CoSchedule::pressure_level(kernel, 1);
        let contended_options = crate::cli::ExperimentOptions::default()
            .with_runs(10)
            .with_shards(3)
            .with_checkpoint(dir_str);
        let contended_ref = measure_contended(
            &schedule,
            PlacementKind::HashRandom,
            &crate::cli::ExperimentOptions::default().with_runs(10),
            7,
        )
        .unwrap();
        let contended = measure_contended(
            &schedule,
            PlacementKind::HashRandom,
            &contended_options,
            7,
        )
        .unwrap();
        assert_eq!(contended, contended_ref);
        let contended_resumed = measure_contended(
            &schedule,
            PlacementKind::HashRandom,
            &contended_options.with_resume(),
            7,
        )
        .unwrap();
        assert_eq!(contended_resumed, contended_ref);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_uncreatable_checkpoint_directory_is_a_contextual_error() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        // A path under a regular *file* cannot be created as a directory.
        let blocker = std::env::temp_dir().join(format!(
            "randmod-runner-blocker-{}",
            std::process::id()
        ));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let dir = blocker.join("nested");
        let options = crate::cli::ExperimentOptions::default()
            .with_runs(12)
            .with_checkpoint(dir.to_str().unwrap());
        let err = measure_campaign(&kernel, PlacementKind::RandomModulo, &options, 7).unwrap_err();
        assert!(
            matches!(err, ExperimentError::Io { .. }),
            "expected an Io error, got {err}"
        );
        assert!(err.to_string().contains("nested"), "{err}");
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn analyze_adapts_block_size_to_sample_length() {
        let cycles: Vec<u64> = (0..200).map(|i| 10_000 + (i * 31) % 400).collect();
        let report = analyze(&ExecutionSample::from_cycles(&cycles));
        assert_eq!(report.curve.block_size(), 10);
        assert_eq!(report.runs, 200);
    }

    #[test]
    fn convergence_criterion_follows_the_options() {
        let defaults = convergence_criterion(&crate::cli::ExperimentOptions::default());
        assert_eq!(defaults.max_runs, DEFAULT_ADAPTIVE_MAX_RUNS);
        assert_eq!(defaults.min_runs, 100);
        assert_eq!(defaults.target_probability, ADAPTIVE_TARGET_PROBABILITY);
        let tuned = convergence_criterion(
            &crate::cli::ExperimentOptions::default()
                .with_max_runs(600)
                .with_target_cv(0.05),
        );
        assert_eq!(tuned.max_runs, 600);
        assert_eq!(tuned.relative_tolerance, 0.05);
        let quick = convergence_criterion(&crate::cli::ExperimentOptions::parse(["--quick"]));
        assert_eq!(quick.max_runs, 40);
        assert!(quick.min_runs <= quick.max_runs);
    }

    #[test]
    fn measure_campaign_without_adaptive_matches_measure_opts() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let options = crate::cli::ExperimentOptions::default().with_runs(10);
        let measurement =
            measure_campaign(&kernel, PlacementKind::RandomModulo, &options, 5).unwrap();
        assert!(measurement.adaptive.is_none());
        assert_eq!(
            measurement.sample,
            measure_opts(&kernel, PlacementKind::RandomModulo, &options, 5).unwrap()
        );
    }

    #[test]
    fn adaptive_measurement_is_a_prefix_of_the_fixed_campaign() {
        let kernel = SyntheticKernel::with_traversals(20 * 1024, 3);
        let options = crate::cli::ExperimentOptions::default()
            .with_adaptive()
            .with_max_runs(200)
            .with_target_cv(0.05);
        let measurement =
            measure_campaign(&kernel, PlacementKind::RandomModulo, &options, 9).unwrap();
        let summary = measurement.adaptive.expect("adaptive summary missing");
        assert_eq!(summary.runs_used, measurement.sample.len());
        assert!(summary.checkpoints >= 1);
        // The adaptive sample is exactly the first N observations of the
        // fixed-run campaign with the same seed.
        let fixed = measure(
            &kernel,
            PlacementKind::RandomModulo,
            summary.runs_used,
            9,
            None,
            None,
        )
        .unwrap();
        assert_eq!(measurement.sample, fixed);
    }

    #[test]
    fn adaptive_converges_within_one_percent_of_the_fixed_1000_run_value() {
        use randmod_workloads::EembcBenchmark;
        // The acceptance scenario: a low-variance EEMBC-like benchmark
        // under RM converges with far fewer runs than the paper's fixed
        // 1,000 while agreeing with the fixed-campaign pWCET at 1e-12.
        let benchmark = EembcBenchmark::A2time;
        let options = crate::cli::ExperimentOptions::default().with_adaptive();
        let measurement =
            measure_campaign(&benchmark, PlacementKind::RandomModulo, &options, 42).unwrap();
        let summary = measurement.adaptive.expect("adaptive summary missing");
        assert!(summary.converged, "adaptive campaign hit the run cap");
        assert!(
            summary.runs_used < 1000,
            "expected measurably fewer runs than the paper's 1,000, used {}",
            summary.runs_used
        );
        // Fixed-1000 reference, same seed stream, same block size as the
        // adaptive refit loop.
        let fixed = measure(&benchmark, PlacementKind::RandomModulo, 1000, 42, None, None).unwrap();
        let fixed_pwcet = randmod_mbpta::PwcetCurve::fit(&fixed, ADAPTIVE_BLOCK_SIZE)
            .pwcet(ADAPTIVE_TARGET_PROBABILITY);
        let delta = (summary.pwcet_estimate - fixed_pwcet).abs() / fixed_pwcet;
        assert!(
            delta <= 0.01,
            "adaptive pWCET {} vs fixed-1000 pWCET {} differ by {:.3}%",
            summary.pwcet_estimate,
            fixed_pwcet,
            delta * 100.0
        );
    }
}
