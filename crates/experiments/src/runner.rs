//! Shared campaign-running helpers for all experiments.
//!
//! Every MBPTA campaign of every experiment goes through one of two entry
//! points, [`measure_campaign`] (one task) and [`measure_contended`] (a
//! shared-L2 co-schedule).  Both run a fixed-run campaign by default and
//! the convergence-driven protocol under `--adaptive`.  Under
//! `--store DIR` a fixed-run campaign runs in [`STORE_SHARDS`] shards
//! through the checkpointed driver, into the entry
//! `DIR/ckpt_<fingerprint>.bin`: a rerun reuses whatever the entry holds,
//! so an interrupted campaign resumes and a finished one is never
//! simulated twice.  The deterministic layout sweep of Figure 4(b)
//! ([`measure_deterministic_sweep`]) has no seed schedule and is never
//! stored.
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
use randmod_sim::{
    AdaptiveResult, Campaign, CampaignError, ContendedAdaptiveResult, FileCheckpointStore,
    PlatformConfig, ShardedReport,
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

/// Shard count of every stored campaign: enough shards that an
/// interruption loses at most a few percent of a long campaign, few
/// enough that the per-shard checkpoint rewrite stays negligible.  The
/// shard count is part of an entry's fingerprint, so it is fixed rather
/// than an option: every run of a campaign finds the same entry.
pub const STORE_SHARDS: usize = 16;

/// Environment variable of the fault-injection smoke test: when set to
/// `N` (≥ 1), the process dies on the spot — no unwinding, no cleanup,
/// exactly as `kill -9` would — immediately after the `N`-th shard
/// checkpoint has persisted.
pub const KILL_AFTER_SHARD_ENV: &str = "RANDMOD_KILL_AFTER_SHARD";

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

/// Runs one campaign against its store entry, the file
/// `ckpt_<fingerprint>.bin` inside `dir` (the directory is created if
/// missing; the fingerprint in the name keeps the campaigns sharing a
/// directory apart).  An existing entry is never cleared: `run` restores
/// the shards it holds and executes the rest.  Resume progress and
/// checkpoint diagnostics go to **stderr**, so the CSV on stdout stays
/// byte-identical to an unstored run; the [`KILL_AFTER_SHARD_ENV`] crash
/// hook is armed when the environment requests it.
fn run_stored<R>(
    dir: &str,
    fingerprint: u64,
    run: impl FnOnce(&mut dyn CheckpointStore) -> Result<ShardedReport<R>, CampaignError>,
) -> Result<R, ExperimentError> {
    std::fs::create_dir_all(dir).map_err(|source| ExperimentError::Io {
        path: dir.to_string(),
        source,
    })?;
    let entry = FileCheckpointStore::new(
        std::path::Path::new(dir).join(format!("ckpt_{fingerprint:016x}.bin")),
    );
    let kill_after = std::env::var(KILL_AFTER_SHARD_ENV)
        .ok()
        .and_then(|value| value.parse::<usize>().ok())
        .filter(|&kill_after| kill_after > 0);
    let mut store: Box<dyn CheckpointStore> = match kill_after {
        Some(kill_after) => Box::new(KillStore { inner: entry, saves: 0, kill_after }),
        None => Box::new(entry),
    };
    let report = run(store.as_mut())?;
    for diagnostic in &report.diagnostics {
        eprintln!("checkpoint warning: {diagnostic}");
    }
    eprintln!(
        "checkpoint {}: resumed {} shard(s), executed {} of {}",
        store.location(),
        report.resumed,
        report.executed,
        report.shard_count
    );
    Ok(report.result)
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

/// Runs an MBPTA measurement campaign for `workload` (packed at the
/// default memory layout) with the given L1 placement policy, honouring
/// `options`: `--runs`, `--threads` and `--lanes` shape the campaign,
/// `--adaptive` switches to the convergence-driven protocol (whose
/// collected runs are a bit-identical prefix of the fixed schedule), and
/// `--store` runs a fixed-run campaign through its store entry (see
/// [`STORE_SHARDS`]) — bit-identical to the unstored campaign, as the
/// shard protocol guarantees.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid,
/// the store directory cannot be created, or the store entry fails or
/// belongs to a different campaign.
pub fn measure_campaign(
    workload: &dyn Workload,
    l1_placement: PlacementKind,
    options: &ExperimentOptions,
    campaign_seed: u64,
) -> Result<Measurement, ExperimentError> {
    let trace = workload.packed_trace(&MemoryLayout::default());
    let campaign = campaign(
        platform_with_l1(l1_placement),
        options.runs,
        campaign_seed,
        options.threads,
        options.lanes,
    );
    if options.adaptive {
        let result = campaign.run_adaptive(&trace, &convergence_criterion(options))?;
        return Ok(Measurement {
            sample: ExecutionSample::from_cycles_iter(result.result().cycles_iter()),
            adaptive: Some(AdaptiveSummary::from_result(&result)),
        });
    }
    let result = match options.store.as_deref() {
        None => campaign.run(&trace)?,
        Some(dir) => {
            let fingerprint =
                campaign.sharded_fingerprint(&trace, &campaign.seed_schedule(), STORE_SHARDS);
            run_stored(dir, fingerprint, |store| {
                campaign.run_sharded_checkpointed(&trace, STORE_SHARDS, store)
            })?
        }
    };
    Ok(Measurement {
        sample: ExecutionSample::from_cycles_iter(result.cycles_iter()),
        adaptive: None,
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
/// the result into per-task samples.  Honours `options` as
/// [`measure_campaign`] does: a fixed-run schedule by default, the
/// convergence-driven protocol on the victim's pWCET (whose collected runs
/// are a bit-identical prefix of the fixed schedule) under `--adaptive`,
/// and the campaign's store entry under `--store`.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the platform configuration is invalid,
/// the store directory cannot be created, or the store entry fails or
/// belongs to a different campaign.
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
        let adaptive = campaign.run_contended_adaptive(&sources, &convergence_criterion(options))?;
        let summary = AdaptiveSummary::from_contended(&adaptive);
        (adaptive.result().clone(), Some(summary))
    } else if let Some(dir) = options.store.as_deref() {
        let fingerprint =
            campaign.contended_sharded_fingerprint(&sources, &campaign.seed_schedule(), STORE_SHARDS);
        let result = run_stored(dir, fingerprint, |store| {
            campaign.run_contended_sharded_checkpointed(&sources, STORE_SHARDS, store)
        })?;
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

    /// A fixed-run measurement of the 4KB kernel with the given options.
    fn measure_small(options: ExperimentOptions, seed: u64) -> ExecutionSample {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 3);
        measure_campaign(&kernel, PlacementKind::RandomModulo, &options, seed)
            .unwrap()
            .sample
    }

    /// A fresh, empty store directory for one test.
    fn store_dir(tag: &str) -> String {
        let dir = std::env::temp_dir()
            .join(format!("randmod-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn measure_produces_requested_runs() {
        let sample = measure_small(ExperimentOptions::default().with_runs(12), 1);
        assert_eq!(sample.len(), 12);
        assert!(sample.min() > 0);
    }

    #[test]
    fn thread_override_does_not_change_the_sample() {
        let options = ExperimentOptions::default().with_runs(10);
        let default_threads = measure_small(options.clone(), 2);
        assert_eq!(default_threads, measure_small(options.clone().with_threads(1), 2));
        assert_eq!(default_threads, measure_small(options.with_threads(4), 2));
    }

    #[test]
    fn lane_override_does_not_change_the_sample() {
        // --lanes is a throughput knob: any lane count (including the
        // sequential escape hatch) reproduces the same sample.
        let options = ExperimentOptions::default().with_runs(10);
        let default_lanes = measure_small(options.clone(), 2);
        assert_eq!(default_lanes, measure_small(options.clone().with_lanes(1), 2));
        assert_eq!(default_lanes, measure_small(options.with_lanes(5), 2));
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
            .run_layout_sweep_with(traces.len(), |i| &traces[i])
            .unwrap();
        assert_eq!(
            streamed,
            ExecutionSample::from_cycles_iter(collected.cycles_iter())
        );
    }

    #[test]
    fn measure_opts_applies_runs_and_threads() {
        // The experiment options (runs, threads, lanes) reach the
        // measurement.
        let options = ExperimentOptions::default()
            .with_runs(8)
            .with_threads(2)
            .with_lanes(4);
        assert_eq!(measure_small(options, 3).len(), 8);
    }

    #[test]
    fn contended_solo_measurement_matches_the_single_task_protocol() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let schedule = CoSchedule::pressure_level(kernel, 0); // idle opponent
        let options = ExperimentOptions::default().with_runs(MIN_RUNS);
        let measurement =
            measure_contended(&schedule, PlacementKind::RandomModulo, &options, 5).unwrap();
        assert!(measurement.adaptive.is_none());
        assert_eq!(measurement.per_task.len(), 2);
        // The victim sample is bit-identical to the solo protocol on the
        // same platform; the idle opponent contributes all-zero cycles.
        let trace = kernel.packed_trace(&MemoryLayout::default());
        let solo = campaign(contention_platform(PlacementKind::RandomModulo), MIN_RUNS, 5, None, None)
            .run(&trace)
            .unwrap();
        assert_eq!(measurement.victim(), &ExecutionSample::from_cycles_iter(solo.cycles_iter()));
        assert!(measurement.per_task[1].values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn contended_lane_override_does_not_change_the_sample() {
        // --lanes on a contended campaign switches between one-lane waves
        // (1), partial batches and full lane groups; every setting
        // must reproduce the same per-task samples bit for bit.
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let schedule = CoSchedule::pressure_level(kernel, 2);
        let measure_with = |lanes: Option<usize>| {
            let mut options = ExperimentOptions::default().with_runs(10);
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
        let kernel = SyntheticKernel::with_traversals(20 * 1024, 3);
        let schedule = CoSchedule::pressure_level(kernel, 2);
        let options = ExperimentOptions::default()
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
            &ExperimentOptions::default().with_runs(summary.runs_used),
            11,
        )
        .unwrap();
        assert_eq!(adaptive.per_task, fixed.per_task);
    }

    #[test]
    fn sharded_measurement_is_bit_identical_to_the_unsharded_one() {
        // Under --store every campaign runs in STORE_SHARDS shards (clamped
        // to the run count): below, at and above that count the stored
        // sample equals the unstored one.
        let dir = store_dir("sharded");
        for runs in [12, STORE_SHARDS, 40] {
            let options = ExperimentOptions::default().with_runs(runs);
            let reference = measure_small(options.clone(), 5);
            assert_eq!(measure_small(options.with_store(dir.clone()), 5), reference, "runs={runs}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointed_measurement_round_trips_through_the_store() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let dir = store_dir("ckpt");
        let options = ExperimentOptions::default().with_runs(12);
        let stored = options.clone().with_store(dir.clone());
        let reference = measure_campaign(&kernel, PlacementKind::RandomModulo, &options, 7).unwrap();
        // The first run fills the store entry, the second restores every
        // shard from it: both match the unstored result.
        for pass in ["fresh", "restored"] {
            let measurement =
                measure_campaign(&kernel, PlacementKind::RandomModulo, &stored, 7).unwrap();
            assert_eq!(measurement, reference, "{pass}");
        }
        // One entry per campaign, named by its fingerprint.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        // The contended driver shares the store plumbing, and its entry
        // sits beside the solo one.
        let schedule = CoSchedule::pressure_level(kernel, 1);
        let options = ExperimentOptions::default().with_runs(10);
        let contended_ref =
            measure_contended(&schedule, PlacementKind::HashRandom, &options, 7).unwrap();
        let stored = options.with_store(dir.clone());
        for pass in ["fresh", "restored"] {
            let contended =
                measure_contended(&schedule, PlacementKind::HashRandom, &stored, 7).unwrap();
            assert_eq!(contended, contended_ref, "{pass}");
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
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
        let options = ExperimentOptions::default()
            .with_runs(12)
            .with_store(dir.to_str().unwrap());
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
        let defaults = convergence_criterion(&ExperimentOptions::default());
        assert_eq!(defaults.max_runs, DEFAULT_ADAPTIVE_MAX_RUNS);
        assert_eq!(defaults.min_runs, 100);
        assert_eq!(defaults.target_probability, ADAPTIVE_TARGET_PROBABILITY);
        let tuned = convergence_criterion(
            &ExperimentOptions::default()
                .with_max_runs(600)
                .with_target_cv(0.05),
        );
        assert_eq!(tuned.max_runs, 600);
        assert_eq!(tuned.relative_tolerance, 0.05);
        let quick = convergence_criterion(&ExperimentOptions::parse(["--quick"]));
        assert_eq!(quick.max_runs, 40);
        assert!(quick.min_runs <= quick.max_runs);
    }

    #[test]
    fn measure_campaign_without_adaptive_matches_campaign_run() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 2);
        let options = ExperimentOptions::default().with_runs(10);
        let measurement =
            measure_campaign(&kernel, PlacementKind::RandomModulo, &options, 5).unwrap();
        assert!(measurement.adaptive.is_none());
        let direct = Campaign::new(platform_with_l1(PlacementKind::RandomModulo), 10)
            .with_campaign_seed(5)
            .run(&kernel.packed_trace(&MemoryLayout::default()))
            .unwrap();
        assert_eq!(
            measurement.sample,
            ExecutionSample::from_cycles_iter(direct.cycles_iter())
        );
    }

    #[test]
    fn adaptive_measurement_is_a_prefix_of_the_fixed_campaign() {
        let kernel = SyntheticKernel::with_traversals(20 * 1024, 3);
        let options = ExperimentOptions::default()
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
        let fixed = measure_campaign(
            &kernel,
            PlacementKind::RandomModulo,
            &ExperimentOptions::default().with_runs(summary.runs_used),
            9,
        )
        .unwrap();
        assert_eq!(measurement.sample, fixed.sample);
    }

    #[test]
    fn adaptive_converges_within_one_percent_of_the_fixed_1000_run_value() {
        use randmod_workloads::EembcBenchmark;
        // The acceptance scenario: a low-variance EEMBC-like benchmark
        // under RM converges with far fewer runs than the paper's fixed
        // 1,000 while agreeing with the fixed-campaign pWCET at 1e-12.
        let benchmark = EembcBenchmark::A2time;
        let options = ExperimentOptions::default().with_adaptive();
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
        let fixed = measure_campaign(
            &benchmark,
            PlacementKind::RandomModulo,
            &ExperimentOptions::default().with_runs(1000),
            42,
        )
        .unwrap();
        let fixed_pwcet = randmod_mbpta::PwcetCurve::fit(&fixed.sample, ADAPTIVE_BLOCK_SIZE)
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
