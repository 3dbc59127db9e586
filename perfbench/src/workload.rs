//! The benchmark's three workloads: what each campaign set holds, how its
//! inputs are built, and one call per campaign through the engine's public
//! API, each wrapped in the span of the layer it calls.
//!
//! | Workload | Campaign set | Engine path |
//! |---|---|---|
//! | `solo_mbpta` | 11 EEMBC-like kernels + the 20KB synthetic kernel, × RM/hRP in the L1s (hRP L2) | idle co-schedule → solo wavefront engine |
//! | `contended_l2` | 20KB victim × pressure P0–P3 × MOD/XOR/hRP/RM at the shared L2 | round-robin → lane-batched contended engine |
//! | `layout_sweep` | 11 EEMBC-like kernels × 32 memory layouts on the deterministic platform | deterministic sweep → scalar `InOrderCore` |
//!
//! Campaign seeds follow the experiment binaries (`fig1`, `fig4a`,
//! `fig6`), so at the default seed and 300 runs the pinned paper numbers
//! come out of the benchmark's own calls.

use crate::spans::{CampaignTag, Tracer};
use randmod_core::PlacementKind;
use randmod_mbpta::{ExecutionSample, MbptaAnalysis, MbptaConfig};
use randmod_sim::checkpoint::{CheckpointError, CheckpointStore};
use randmod_sim::{
    Campaign, CampaignResult, ContendedResult, ContendedSchedule, FileCheckpointStore,
    HierarchyStats, PackedTrace, PlatformConfig,
};
use randmod_workloads::{
    CoSchedule, EembcBenchmark, LayoutSweep, MemoryLayout, SyntheticKernel, Workload,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The experiments' default campaign seed.
pub const DEFAULT_SEED: u64 = 0x00C0_FFEE;

/// The experiments' default runs per campaign; the pins hold at it.
pub const DEFAULT_RUNS: usize = 300;

/// Shards of a checkpointed campaign: what the experiment binaries use
/// under `--checkpoint`.
pub const SHARDS: usize = 16;

/// Layouts of the deterministic sweep (Figure 4(b)).
pub const LAYOUTS: usize = 32;

/// Worker threads per campaign: one caller, one worker, so the host's
/// second CPU does not enter the measurement.
pub const THREADS: usize = 1;

/// Exceedance probability of every pWCET the benchmark reads.
pub const CUTOFF_PROBABILITY: f64 = 1e-15;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Table 2 / Figure 1 / Figure 4(a) solo MBPTA campaigns.
    SoloMbpta,
    /// The `fig6_contention` shared-L2 sweep.
    ContendedL2,
    /// The deterministic half of Figure 4(b).
    LayoutSweep,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::SoloMbpta, Kind::ContendedL2, Kind::LayoutSweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SoloMbpta => "solo_mbpta",
            Kind::ContendedL2 => "contended_l2",
            Kind::LayoutSweep => "layout_sweep",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether the workload's campaigns go through the checkpoint store
    /// (the deterministic sweep keeps none).
    pub fn checkpointed(self) -> bool {
        self != Kind::LayoutSweep
    }
}

/// A recorded paper number a campaign must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// pWCET at [`CUTOFF_PROBABILITY`], rounded to cycles.
    pub pwcet: u64,
    /// Mean execution time, rounded to cycles.
    pub mean: Option<u64>,
}

/// What one campaign replays.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// A seeded campaign of solo trace `input`.
    Solo {
        input: usize,
        platform: PlatformConfig,
        seed: u64,
    },
    /// A seeded campaign of co-schedule `input`.
    Contended {
        input: usize,
        platform: PlatformConfig,
        seed: u64,
    },
    /// The layout sweep of an EEMBC-like kernel.
    Sweep { kernel: EembcBenchmark },
}

/// One campaign of a workload's set.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Span attributes.
    pub tag: CampaignTag,
    /// What the campaign replays.
    pub job: Job,
    /// The paper number this campaign reproduces at the default schedule.
    pub pin: Option<Pin>,
}

/// A solo kernel.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Eembc(EembcBenchmark),
    Synthetic(SyntheticKernel),
}

impl Kernel {
    fn workload(&self) -> &dyn Workload {
        match self {
            Kernel::Eembc(benchmark) => benchmark,
            Kernel::Synthetic(kernel) => kernel,
        }
    }
}

/// A workload's campaign set at one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Campaign seed every per-campaign seed derives from.
    pub seed: u64,
    /// Runs per seeded campaign.
    pub runs: usize,
    /// The campaigns of one pass, in pass order.
    pub campaigns: Vec<CampaignSpec>,
    kernels: Vec<Kernel>,
    coschedules: Vec<CoSchedule<SyntheticKernel>>,
}

/// The inputs a pass replays, built by [`Plan::setup`].
#[derive(Debug)]
pub enum Inputs {
    /// One packed trace per solo kernel.
    Solo(Vec<PackedTrace>),
    /// One set of task traces (victim first) per co-schedule.
    Contended(Vec<Vec<PackedTrace>>),
    /// The layouts; the sweep emits each layout's trace itself.
    Sweep(LayoutSweep),
}

/// The results of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum Runs {
    /// Per-run cycles and statistics of a solo campaign or sweep.
    Solo(CampaignResult),
    /// Per-run, per-task cycles and statistics of a contended campaign.
    Contended(ContendedResult),
}

/// What one campaign returns to its caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The simulated runs.
    pub runs: Runs,
    /// pWCET at [`CUTOFF_PROBABILITY`] and mean of the analysed sample
    /// (`None` for the sweep, which has no MBPTA).
    pub analysis: Option<(f64, f64)>,
}

/// A checkpointed campaign's resume accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCounts {
    /// Shards restored from the store.
    pub resumed: usize,
    /// Shards executed.
    pub executed: usize,
}

/// Work counts the benchmark observes at layer boundaries.  Atomic
/// because the sweep's build closure runs on a campaign worker thread.
#[derive(Debug, Default)]
pub struct Counters {
    /// Events emitted by `randmod-workloads`.
    pub emitted_events: AtomicU64,
    /// Heap bytes of the packed traces emitted.
    pub emitted_bytes: AtomicU64,
    /// Collapsed operations of the contention schedules built.
    pub schedule_ops: AtomicU64,
    /// Interleaved events those schedules cover.
    pub schedule_events: AtomicU64,
    /// Bytes loaded from checkpoint stores.
    pub bytes_read: AtomicU64,
    /// Bytes saved to checkpoint stores.
    pub bytes_written: AtomicU64,
}

impl Counters {
    fn add(counter: &AtomicU64, amount: usize) {
        counter.fetch_add(amount as u64, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for counter in [
            &self.emitted_events,
            &self.emitted_bytes,
            &self.schedule_ops,
            &self.schedule_events,
            &self.bytes_read,
            &self.bytes_written,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    fn emitted(&self, trace: &PackedTrace) {
        Self::add(&self.emitted_events, trace.len());
        Self::add(&self.emitted_bytes, trace.heap_bytes());
    }
}

/// A [`FileCheckpointStore`] whose loads and saves are spans and counted
/// bytes: the checkpoint layer seen from outside.
pub struct MeteredStore<'a> {
    inner: FileCheckpointStore,
    tracer: &'a Tracer,
    counters: &'a Counters,
}

impl<'a> MeteredStore<'a> {
    /// The store of campaign `index` under `dir`.
    pub fn new(dir: &Path, index: usize, tracer: &'a Tracer, counters: &'a Counters) -> Self {
        let path: PathBuf = dir.join(format!("ckpt_{index:02}.bin"));
        MeteredStore {
            inner: FileCheckpointStore::new(path),
            tracer,
            counters,
        }
    }

    /// Removes the stored checkpoint.
    pub fn clear(&mut self) -> Result<(), CheckpointError> {
        self.inner.clear()
    }
}

impl CheckpointStore for MeteredStore<'_> {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        let bytes = self
            .tracer
            .span("sim.checkpoint.load", || self.inner.load())?;
        Counters::add(
            &self.counters.bytes_read,
            bytes.as_ref().map_or(0, Vec::len),
        );
        Ok(bytes)
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.tracer
            .span("sim.checkpoint.save", || self.inner.save(bytes))?;
        Counters::add(&self.counters.bytes_written, bytes.len());
        Ok(())
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

/// The Section 4.3 platform: `placement` in both L1s, hRP in the L2,
/// random replacement everywhere.
fn solo_platform(placement: PlacementKind) -> PlatformConfig {
    PlatformConfig::leon3()
        .with_l1_placement(placement)
        .with_l2_placement(PlacementKind::HashRandom)
}

/// The `fig6_contention` platform: `placement` at the shared L2, RM in
/// every private L1.
fn contention_platform(placement: PlacementKind) -> PlatformConfig {
    PlatformConfig::leon3()
        .with_l1_placement(PlacementKind::RandomModulo)
        .with_l2_placement(placement)
}

fn error(context: &CampaignTag, detail: impl std::fmt::Display) -> String {
    let placement = context.placement.unwrap_or("-");
    match context.pressure {
        Some(pressure) => format!("{} {placement} P{pressure}: {detail}", context.kernel),
        None => format!("{} {placement}: {detail}", context.kernel),
    }
}

impl Plan {
    /// The campaign set of `kind` at `seed`, `runs` runs per seeded
    /// campaign.
    pub fn new(kind: Kind, seed: u64, runs: usize) -> Plan {
        let pinned = seed == DEFAULT_SEED && runs == DEFAULT_RUNS;
        let tag = |kernel: String, placement: PlacementKind, pressure| CampaignTag {
            workload: kind.name(),
            kernel,
            placement: Some(placement.short_name()),
            pressure,
        };
        let mut kernels = Vec::new();
        let mut coschedules = Vec::new();
        let mut campaigns = Vec::new();
        match kind {
            Kind::SoloMbpta => {
                kernels.extend(EembcBenchmark::ALL.map(Kernel::Eembc));
                kernels.push(Kernel::Synthetic(SyntheticKernel::fits_l2()));
                for (input, kernel) in kernels.iter().enumerate() {
                    // fig4a's per-benchmark seed; fig1 runs the 20KB kernel
                    // at the campaign seed itself.
                    let kernel_seed = match kernel {
                        Kernel::Eembc(b) => seed ^ (u64::from(b.initials().as_bytes()[1]) << 8),
                        Kernel::Synthetic(_) => seed,
                    };
                    for placement in [PlacementKind::RandomModulo, PlacementKind::HashRandom] {
                        let fig1 = matches!(kernel, Kernel::Synthetic(_))
                            && placement == PlacementKind::RandomModulo;
                        campaigns.push(CampaignSpec {
                            tag: tag(kernel.workload().name(), placement, None),
                            job: Job::Solo {
                                input,
                                platform: solo_platform(placement),
                                seed: kernel_seed,
                            },
                            pin: (pinned && fig1).then_some(Pin {
                                pwcet: 171_639,
                                mean: None,
                            }),
                        });
                    }
                }
            }
            Kind::ContendedL2 => {
                let levels = CoSchedule::<SyntheticKernel>::PRESSURE_LEVELS;
                coschedules
                    .extend((0..levels).map(|level| {
                        CoSchedule::pressure_level(SyntheticKernel::fits_l2(), level)
                    }));
                for placement in PlacementKind::ALL {
                    for (pressure, schedule) in coschedules.iter().enumerate() {
                        let fig6 = placement == PlacementKind::RandomModulo && pressure == 2;
                        campaigns.push(CampaignSpec {
                            tag: tag(schedule.victim().name(), placement, Some(pressure)),
                            job: Job::Contended {
                                input: pressure,
                                platform: contention_platform(placement),
                                seed: seed ^ ((placement as u64) << 8),
                            },
                            pin: (pinned && fig6).then_some(Pin {
                                pwcet: 169_328,
                                mean: Some(162_650),
                            }),
                        });
                    }
                }
            }
            Kind::LayoutSweep => {
                for benchmark in EembcBenchmark::ALL {
                    campaigns.push(CampaignSpec {
                        tag: tag(benchmark.name(), PlacementKind::Modulo, None),
                        job: Job::Sweep { kernel: benchmark },
                        pin: None,
                    });
                }
            }
        }
        Plan {
            kind,
            seed,
            runs,
            campaigns,
            kernels,
            coschedules,
        }
    }

    /// Builds the inputs of every campaign: each trace and co-schedule
    /// emitted and packed, each platform validated.  The sweep emits
    /// inside its campaigns, so its set-up only validates.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid platform.
    pub fn setup(&self, tracer: &Tracer, counters: &Counters) -> Result<Inputs, String> {
        for spec in &self.campaigns {
            let platform = match spec.job {
                Job::Solo { platform, .. } | Job::Contended { platform, .. } => platform,
                Job::Sweep { .. } => PlatformConfig::leon3_deterministic(),
            };
            platform.validate().map_err(|e| error(&spec.tag, e))?;
        }
        let layout = MemoryLayout::default();
        let tag = |kernel: String, pressure| CampaignTag {
            workload: self.kind.name(),
            kernel,
            placement: None,
            pressure,
        };
        Ok(match self.kind {
            Kind::SoloMbpta => Inputs::Solo(
                self.kernels
                    .iter()
                    .map(|kernel| {
                        let workload = kernel.workload();
                        let trace = tracer.campaign(&tag(workload.name(), None), || {
                            tracer.span("workloads.emit", || workload.packed_trace(&layout))
                        });
                        counters.emitted(&trace);
                        trace
                    })
                    .collect(),
            ),
            Kind::ContendedL2 => Inputs::Contended(
                self.coschedules
                    .iter()
                    .enumerate()
                    .map(|(pressure, schedule)| {
                        let traces = tracer
                            .campaign(&tag(schedule.victim().name(), Some(pressure)), || {
                                tracer.span("workloads.emit", || schedule.packed_traces(&layout))
                            });
                        traces.iter().for_each(|trace| counters.emitted(trace));
                        traces
                    })
                    .collect(),
            ),
            Kind::LayoutSweep => Inputs::Sweep(LayoutSweep::new(LAYOUTS)),
        })
    }

    fn campaign(&self, platform: PlatformConfig, seed: u64) -> Campaign {
        Campaign::new(platform, self.runs)
            .with_campaign_seed(seed)
            .with_threads(THREADS)
    }

    /// Runs one campaign cold — replay plus MBPTA — as the experiment
    /// binaries do.  In a traced run a contended campaign also builds its
    /// round-robin schedule once on the side, so the schedule gets a span
    /// of its own; the campaign builds the same schedule inside its replay.
    ///
    /// # Errors
    ///
    /// Returns a description of an engine error or of inputs that do not
    /// fit the campaign.
    pub fn run_cold(
        &self,
        spec: &CampaignSpec,
        inputs: &Inputs,
        tracer: &Tracer,
        counters: &Counters,
    ) -> Result<Output, String> {
        let fail = |detail: &dyn std::fmt::Display| error(&spec.tag, detail);
        tracer.campaign(&spec.tag, || match (spec.job, inputs) {
            (
                Job::Solo {
                    input,
                    platform,
                    seed,
                },
                Inputs::Solo(traces),
            ) => {
                let trace = traces.get(input).ok_or_else(|| fail(&"no such trace"))?;
                let campaign = self.campaign(platform, seed);
                let result = tracer
                    .span("sim.run", || campaign.run(trace))
                    .map_err(|e| fail(&e))?;
                let analysis = analyze(tracer, result.cycles_iter());
                Ok(Output {
                    runs: Runs::Solo(result),
                    analysis: Some(analysis),
                })
            }
            (
                Job::Contended {
                    input,
                    platform,
                    seed,
                },
                Inputs::Contended(sets),
            ) => {
                let sources = sets
                    .get(input)
                    .ok_or_else(|| fail(&"no such co-schedule"))?;
                let idle = sources.iter().skip(1).all(PackedTrace::is_empty);
                if tracer.enabled() && !idle {
                    let ops = tracer.span("sim.contention.schedule", || {
                        let streams = sources.iter().map(PackedTrace::iter).collect();
                        ContendedSchedule::round_robin(&platform, sources.len(), streams).len()
                    });
                    Counters::add(&counters.schedule_ops, ops);
                    Counters::add(
                        &counters.schedule_events,
                        sources.iter().map(PackedTrace::len).sum(),
                    );
                }
                let campaign = self.campaign(platform, seed);
                let result = tracer
                    .span("sim.run", || campaign.run_contended_campaign(sources))
                    .map_err(|e| fail(&e))?;
                let analysis = analyze(tracer, result.task_cycles_iter(0));
                Ok(Output {
                    runs: Runs::Contended(result),
                    analysis: Some(analysis),
                })
            }
            (Job::Sweep { kernel }, Inputs::Sweep(layouts)) => {
                // The deterministic platform draws no seeds: the sweep is
                // the same at every campaign seed.
                let campaign =
                    Campaign::new(PlatformConfig::leon3_deterministic(), 0).with_threads(THREADS);
                let result = tracer
                    .span("sim.run", || {
                        campaign.run_layout_sweep_with(layouts.len(), |i| {
                            let trace = tracer
                                .span("workloads.emit", || kernel.packed_trace(&layouts.layout(i)));
                            counters.emitted(&trace);
                            trace
                        })
                    })
                    .map_err(|e| fail(&e))?;
                Ok(Output {
                    runs: Runs::Solo(result),
                    analysis: None,
                })
            }
            _ => Err(fail(&"inputs of another workload")),
        })
    }

    /// Runs one campaign through the checkpointed, sharded entry point at
    /// [`SHARDS`] shards, as `--checkpoint … --resume` does: shards in
    /// `store` are restored, the rest executed and saved.  The span is
    /// `sim.checkpoint.fill` when `filling`, else `sim.checkpoint.resume`;
    /// only a filling call runs MBPTA on the result.
    ///
    /// # Errors
    ///
    /// Returns a description of an engine or checkpoint error, or of a
    /// workload without checkpoints.
    pub fn run_checkpointed(
        &self,
        spec: &CampaignSpec,
        inputs: &Inputs,
        store: &mut MeteredStore<'_>,
        filling: bool,
    ) -> Result<(Output, ShardCounts), String> {
        let fail = |detail: &dyn std::fmt::Display| error(&spec.tag, detail);
        let tracer = store.tracer;
        let name = if filling {
            "sim.checkpoint.fill"
        } else {
            "sim.checkpoint.resume"
        };
        tracer.campaign(&spec.tag, || {
            let (runs, victim, counts) = match (spec.job, inputs) {
                (
                    Job::Solo {
                        input,
                        platform,
                        seed,
                    },
                    Inputs::Solo(traces),
                ) => {
                    let trace = traces.get(input).ok_or_else(|| fail(&"no such trace"))?;
                    let campaign = self.campaign(platform, seed);
                    let report = tracer
                        .span(name, || {
                            campaign.run_sharded_checkpointed(trace, SHARDS, store)
                        })
                        .map_err(|e| fail(&e))?;
                    let counts = ShardCounts {
                        resumed: report.resumed,
                        executed: report.executed,
                    };
                    let victim: Vec<u64> = report.result.cycles();
                    (Runs::Solo(report.result), victim, counts)
                }
                (
                    Job::Contended {
                        input,
                        platform,
                        seed,
                    },
                    Inputs::Contended(sets),
                ) => {
                    let sources = sets
                        .get(input)
                        .ok_or_else(|| fail(&"no such co-schedule"))?;
                    let campaign = self.campaign(platform, seed);
                    let report = tracer
                        .span(name, || {
                            campaign.run_contended_sharded_checkpointed(sources, SHARDS, store)
                        })
                        .map_err(|e| fail(&e))?;
                    let counts = ShardCounts {
                        resumed: report.resumed,
                        executed: report.executed,
                    };
                    let victim: Vec<u64> = report.result.task_cycles_iter(0).collect();
                    (Runs::Contended(report.result), victim, counts)
                }
                _ => return Err(fail(&"workload keeps no checkpoints")),
            };
            let analysis = filling.then(|| analyze(tracer, victim));
            Ok((Output { runs, analysis }, counts))
        })
    }

    /// Checks what can be checked of a campaign's output at any seed —
    /// one run per scheduled seed (or layout) and a positive victim time
    /// in every run — and, at the default schedule, the campaign's pin.
    ///
    /// # Errors
    ///
    /// Returns a description of the first check that fails.
    pub fn check(&self, spec: &CampaignSpec, output: &Output) -> Result<(), String> {
        let fail = |detail: String| Err(error(&spec.tag, detail));
        let expected: Vec<u64> = match spec.job {
            Job::Solo { platform, seed, .. } | Job::Contended { platform, seed, .. } => {
                self.campaign(platform, seed).seed_schedule()
            }
            Job::Sweep { .. } => (0..LAYOUTS as u64).collect(),
        };
        let (seeds, victim): (Vec<u64>, Vec<u64>) = match &output.runs {
            Runs::Solo(result) => result.runs().iter().map(|r| (r.seed, r.cycles)).unzip(),
            Runs::Contended(result) => result
                .runs()
                .iter()
                .map(|r| (r.seed, r.tasks.first().map_or(0, |t| t.cycles)))
                .unzip(),
        };
        if seeds != expected {
            return fail(format!(
                "{} runs do not follow the {}-run schedule",
                seeds.len(),
                expected.len()
            ));
        }
        if victim.contains(&0) {
            return fail("a run took zero cycles".to_string());
        }
        if let (Some(pin), Some((pwcet, mean))) = (spec.pin, output.analysis) {
            if pwcet.round() as u64 != pin.pwcet {
                return fail(format!("pWCET {pwcet} is not the recorded {}", pin.pwcet));
            }
            if let Some(pinned_mean) = pin.mean.filter(|&m| mean.round() as u64 != m) {
                return fail(format!("mean {mean} is not the recorded {pinned_mean}"));
            }
        } else if spec.pin.is_some() {
            return fail("pinned campaign was not analysed".to_string());
        }
        Ok(())
    }

    /// Simulated events of one campaign: trace events × runs, summed over
    /// tasks.  The sweep's traces are emitted inside the campaign, so its
    /// events are counted there instead.
    pub fn events(&self, spec: &CampaignSpec, inputs: &Inputs) -> u64 {
        let traced: usize = match (spec.job, inputs) {
            (Job::Solo { input, .. }, Inputs::Solo(traces)) => {
                traces.get(input).map_or(0, PackedTrace::len)
            }
            (Job::Contended { input, .. }, Inputs::Contended(sets)) => sets
                .get(input)
                .map_or(0, |set| set.iter().map(PackedTrace::len).sum()),
            _ => 0,
        };
        (traced * self.runs) as u64
    }
}

/// The experiments' standard MBPTA analysis of one sample: block size
/// scaled to the sample, as `runner::analyze` does.
fn analyze(tracer: &Tracer, cycles: impl IntoIterator<Item = u64>) -> (f64, f64) {
    let sample = ExecutionSample::from_cycles_iter(cycles);
    let config = MbptaConfig::default()
        .with_block_size((sample.len() / 20).clamp(5, 50))
        .with_minimum_runs(sample.len().min(100));
    let report = tracer.span("mbpta.analyze", || {
        MbptaAnalysis::new(config).analyze(&sample)
    });
    (report.pwcet_at(CUTOFF_PROBABILITY), sample.mean())
}

/// Every run's statistics merged over tasks and campaigns.
pub fn total_stats(outputs: &[Output]) -> HierarchyStats {
    let mut total = HierarchyStats::default();
    for output in outputs {
        match &output.runs {
            Runs::Solo(result) => result
                .runs()
                .iter()
                .for_each(|r| total = total.merged(r.stats)),
            Runs::Contended(result) => result
                .runs()
                .iter()
                .for_each(|r| total = total.merged(r.aggregate_stats())),
        }
    }
    total
}

/// FNV-1a over every run's seed, cycles and statistics, campaign by
/// campaign: equal digests mean bit-identical simulated results.
pub fn digest(outputs: &[Output]) -> u64 {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for (index, output) in outputs.iter().enumerate() {
        fnv.word(index as u64);
        match &output.runs {
            Runs::Solo(result) => {
                for run in result.runs() {
                    fnv.word(run.seed);
                    fnv.word(run.cycles);
                    fnv.stats(&run.stats);
                }
            }
            Runs::Contended(result) => {
                for run in result.runs() {
                    fnv.word(run.seed);
                    for task in &run.tasks {
                        fnv.word(task.cycles);
                        fnv.stats(&task.stats);
                    }
                }
            }
        }
    }
    fnv.0
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, stats: &HierarchyStats) {
        for level in [stats.il1, stats.dl1, stats.l2] {
            for value in [
                level.accesses,
                level.hits,
                level.misses,
                level.fills,
                level.evictions,
                level.writebacks,
                level.stores,
                level.flushes,
            ] {
                self.word(value);
            }
        }
        self.word(stats.memory_accesses);
    }
}
