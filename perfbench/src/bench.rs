//! One benchmark run: set-up, the output gate, timed passes, resume, and
//! the metrics of either an untraced or a traced run.
//!
//! Each campaign is one operation.  An engine error, a panic, or an
//! output that differs from the gated reference counts as a failed
//! operation.  The reference is the first pass of the run: for
//! checkpointed workloads it is the untimed pass that fills the stores,
//! for the sweep an untimed warm-up.  Every later cold, traced and resumed
//! result must be bit-identical to it.

use crate::report::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::spans::{covered_ns, self_times, Trace, Tracer};
use crate::workload::{self, Counters, Inputs, Kind, MeteredStore, Output, Plan, SHARDS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up samples, and resume passes of checkpointed workloads, taken
/// before each timed pass and after the last; `setup_s` and `resume_s`
/// are the medians of all of them.
const SAMPLES_PER_SLOT: usize = 3;

/// Shortest set-up sample: set-ups faster than this are repeated within
/// a sample and averaged, so the clock's resolution does not dominate.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(2);

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub kind: Kind,
    /// Campaign seed.
    pub seed: u64,
    /// Runs per seeded campaign.
    pub runs: usize,
    /// Time the timed passes last at least.
    pub seconds: f64,
    /// Traced (per-layer) run instead of untraced (end-to-end).
    pub traced: bool,
    /// Directory for the checkpoint stores; removed afterwards.
    pub work_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Campaigns attempted.
    pub attempted: u64,
    /// Campaigns that failed, panicked or mismatched.
    pub failed: u64,
    /// The first failures, described.
    pub failures: Vec<String>,
    /// The metrics of the run's mode, in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Digest of the reference results (see [`workload::digest`]).
    pub digest: u64,
    /// Campaigns whose recorded paper numbers the run checked.
    pub pins_checked: usize,
    /// Wall time of each timed cold pass (untraced passes in a traced
    /// run).
    pub pass_s: Vec<f64>,
    /// Every set-up sample.
    pub setup_s: Vec<f64>,
    /// Every resume pass.
    pub resume_s: Vec<f64>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Operation accounting.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Runs one operation, counting it, and its failure if it errs or
    /// panics.
    fn op<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let failure = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(failure)) => failure,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                format!("panic: {message}")
            }
        };
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(failure);
        }
        None
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Whether the timed passes have yet to last `seconds`; a run times at
/// least one pass.
fn wants_another_pass(pass_s: &[f64], seconds: f64) -> bool {
    pass_s.is_empty() || pass_s.iter().sum::<f64>() < seconds
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// One benchmark run over a plan and its inputs.
struct Run<'a> {
    plan: &'a Plan,
    settings: &'a Settings,
    counters: &'a Counters,
    tally: Tally,
    reference: Vec<Option<Output>>,
}

impl Run<'_> {
    /// The untimed first pass: fill the stores (or warm up), check every
    /// output, keep it as the reference.
    fn reference_pass(&mut self, inputs: &Inputs, tracer: &Tracer) {
        let (plan, dir, counters) = (self.plan, &self.settings.work_dir, self.counters);
        self.reference = plan
            .campaigns
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                self.tally.op(|| {
                    let output = if plan.kind.checkpointed() {
                        let mut store = MeteredStore::new(dir, index, tracer, counters);
                        store.clear().map_err(|e| e.to_string())?;
                        let (output, counts) =
                            plan.run_checkpointed(spec, inputs, &mut store, true)?;
                        if counts.resumed != 0 || counts.executed != SHARDS.min(plan.runs) {
                            return Err(format!(
                                "filling pass resumed or skipped shards: {counts:?}"
                            ));
                        }
                        output
                    } else {
                        plan.run_cold(spec, inputs, tracer, counters)?
                    };
                    plan.check(spec, &output)?;
                    Ok(output)
                })
            })
            .collect();
    }

    /// One cold pass over the campaign set; returns its wall time.
    fn cold_pass(&mut self, inputs: &Inputs, tracer: &Tracer, counters: &Counters) -> f64 {
        let start = Instant::now();
        for (spec, reference) in self.plan.campaigns.iter().zip(&self.reference) {
            self.tally.op(|| {
                let output = self.plan.run_cold(spec, inputs, tracer, counters)?;
                match reference {
                    Some(reference) if *reference == output => Ok(()),
                    Some(_) => Err(format!(
                        "{}: cold result differs from the reference",
                        spec.tag.kernel
                    )),
                    None => Err(format!("{}: no reference to compare with", spec.tag.kernel)),
                }
            });
        }
        start.elapsed().as_secs_f64()
    }

    /// Returns every campaign from its filled store; returns the pass's
    /// wall time and the shards resumed and executed.
    fn resume_pass(&mut self, inputs: &Inputs, tracer: &Tracer) -> (f64, usize, usize) {
        let (plan, dir, counters) = (self.plan, &self.settings.work_dir, self.counters);
        let (mut resumed, mut executed) = (0, 0);
        let start = Instant::now();
        for (index, (spec, reference)) in plan.campaigns.iter().zip(&self.reference).enumerate() {
            self.tally.op(|| {
                let mut store = MeteredStore::new(dir, index, tracer, counters);
                let (output, counts) = plan.run_checkpointed(spec, inputs, &mut store, false)?;
                resumed += counts.resumed;
                executed += counts.executed;
                match reference {
                    Some(reference) if reference.runs == output.runs && counts.executed == 0 => {
                        Ok(())
                    }
                    Some(_) => Err(format!(
                        "{}: resumed result differs from the cold pass ({counts:?})",
                        spec.tag.kernel
                    )),
                    None => Err(format!("{}: no reference to compare with", spec.tag.kernel)),
                }
            });
        }
        (start.elapsed().as_secs_f64(), resumed, executed)
    }

    /// Simulated events of one pass.
    fn events_per_pass(&self, inputs: &Inputs, sweep_events: u64) -> u64 {
        match self.plan.kind {
            Kind::LayoutSweep => sweep_events,
            _ => self
                .plan
                .campaigns
                .iter()
                .map(|spec| self.plan.events(spec, inputs))
                .sum(),
        }
    }

    fn digest(&self) -> u64 {
        let outputs: Vec<Output> = self.reference.iter().flatten().cloned().collect();
        workload::digest(&outputs)
    }
}

/// Builds the inputs once, untimed, then finds how many back-to-back
/// set-ups one sample needs to last [`SETUP_SAMPLE_MIN`].
fn calibrate_setup(plan: &Plan, counters: &Counters) -> Result<(Inputs, u32), String> {
    let (mut inputs, mut seconds) = setup_sample(plan, counters, None, 1)?;
    let mut reps = 1;
    while seconds * f64::from(reps) < SETUP_SAMPLE_MIN.as_secs_f64() && reps < 1 << 20 {
        reps *= 2;
        (inputs, seconds) = setup_sample(plan, counters, Some(inputs), reps)?;
    }
    Ok((inputs, reps))
}

/// Frees `previous`, then builds the inputs `reps` times back to back;
/// returns the last set and the mean time of one set-up.  Freeing first
/// keeps the process from holding two sets, so peak memory stays that of
/// one.
fn setup_sample(
    plan: &Plan,
    counters: &Counters,
    previous: Option<Inputs>,
    reps: u32,
) -> Result<(Inputs, f64), String> {
    drop(previous);
    let off = Tracer::off();
    let start = Instant::now();
    let mut inputs = plan.setup(&off, counters)?;
    for _ in 1..reps {
        drop(black_box(inputs));
        inputs = plan.setup(&off, counters)?;
    }
    Ok((inputs, start.elapsed().as_secs_f64() / f64::from(reps)))
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Returns a description of a failure that leaves nothing to measure: an
/// invalid platform, or a work directory that cannot be created.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let plan = Plan::new(settings.kind, settings.seed, settings.runs);
    std::fs::create_dir_all(&settings.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", settings.work_dir.display()))?;
    let result = if settings.traced {
        traced(&plan, settings)
    } else {
        untraced(&plan, settings)
    };
    let _ = std::fs::remove_dir_all(&settings.work_dir);
    result
}

fn new_run<'a>(plan: &'a Plan, settings: &'a Settings, counters: &'a Counters) -> Run<'a> {
    Run {
        plan,
        settings,
        counters,
        tally: Tally::default(),
        reference: Vec::new(),
    }
}

fn finish(
    run: Run<'_>,
    metrics: Vec<(MetricDef, f64)>,
    times: [Vec<f64>; 3],
    trace: Option<Trace>,
) -> Outcome {
    let [pass_s, setup_s, resume_s] = times;
    Outcome {
        digest: run.digest(),
        pins_checked: run
            .plan
            .campaigns
            .iter()
            .filter(|spec| spec.pin.is_some())
            .count(),
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        failures: run.tally.failures,
        metrics,
        pass_s,
        setup_s,
        resume_s,
        trace,
    }
}

fn untraced(plan: &Plan, settings: &Settings) -> Result<Outcome, String> {
    let counters = Counters::default();
    let mut run = new_run(plan, settings, &counters);
    let (mut inputs, reps) = calibrate_setup(plan, &counters)?;
    let off = Tracer::off();
    counters.reset();
    run.reference_pass(&inputs, &off);
    let sweep_events = Counters::get(&counters.emitted_events);

    // Set-up and resume samples are taken before every timed pass and
    // after the last, so they are spread over the run as the passes are
    // and see the same host.  Each pass replays freshly set-up inputs.
    let (mut pass_s, mut setup_s, mut resume_s) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        for _ in 0..SAMPLES_PER_SLOT {
            let (next, seconds) = setup_sample(plan, &counters, Some(inputs), reps)?;
            inputs = next;
            setup_s.push(seconds);
            if plan.kind.checkpointed() {
                resume_s.push(run.resume_pass(&inputs, &off).0);
            }
        }
        if !wants_another_pass(&pass_s, settings.seconds) {
            break;
        }
        pass_s.push(run.cold_pass(&inputs, &off, &counters));
    }
    let events = run.events_per_pass(&inputs, sweep_events) as f64;
    let timed: f64 = pass_s.iter().sum();
    let wall_s = timed / pass_s.len() as f64;
    // The sweep keeps no checkpoint: on the `--checkpoint … --resume`
    // path it is recomputed, so returning it costs a cold pass.
    if !plan.kind.checkpointed() {
        resume_s.push(wall_s);
    }
    let peak_rss = report::peak_rss_mib().unwrap_or(0.0);
    let values = [
        wall_s,
        ratio(events * pass_s.len() as f64, timed) / 1e6,
        median(&setup_s),
        peak_rss,
        median(&resume_s),
    ];
    let metrics = END_TO_END.into_iter().zip(values).collect();
    Ok(finish(run, metrics, [pass_s, setup_s, resume_s], None))
}

fn traced(plan: &Plan, settings: &Settings) -> Result<Outcome, String> {
    let counters = Counters::default();
    let mut run = new_run(plan, settings, &counters);
    let tracer = Tracer::on();
    let inputs = tracer.span("bench.setup", || plan.setup(&tracer, &counters))?;
    let setup_events = Counters::get(&counters.emitted_events);
    let setup_bytes = Counters::get(&counters.emitted_bytes);
    counters.reset();

    tracer.span("bench.reference", || run.reference_pass(&inputs, &tracer));
    let sweep_events = Counters::get(&counters.emitted_events);
    let bytes_written = Counters::get(&counters.bytes_written);
    counters.reset();

    // Untraced and traced passes alternate, so host drift cancels out of
    // their difference.
    let off = Tracer::off();
    let untraced_counters = Counters::default();
    let (mut untraced_s, mut traced_s, mut pairs_s) = (Vec::new(), Vec::new(), Vec::new());
    while wants_another_pass(&pairs_s, settings.seconds) {
        let untraced = run.cold_pass(&inputs, &off, &untraced_counters);
        let traced = tracer.span("bench.pass", || run.cold_pass(&inputs, &tracer, &counters));
        untraced_s.push(untraced);
        traced_s.push(traced);
        pairs_s.push(untraced + traced);
    }
    let passes = traced_s.len() as f64;
    let pass_emitted = Counters::get(&counters.emitted_events) as f64 / passes;
    let pass_emitted_bytes = Counters::get(&counters.emitted_bytes) as f64 / passes;
    let schedule_ops = Counters::get(&counters.schedule_ops) as f64 / passes;
    let schedule_events = Counters::get(&counters.schedule_events) as f64 / passes;
    counters.reset();

    let (resumed, executed) = if plan.kind.checkpointed() {
        let (_, resumed, executed) =
            tracer.span("bench.resume", || run.resume_pass(&inputs, &tracer));
        (resumed, executed)
    } else {
        (0, 0)
    };
    let bytes_read = Counters::get(&counters.bytes_read);

    let trace = tracer.into_trace();
    let layers = LayerTimes::from_trace(&trace);
    let events = run.events_per_pass(&inputs, sweep_events) as f64;
    let replay_s = layers.seconds("bench.pass", "sim.run") / passes;
    let stats = workload::total_stats(&run.reference.iter().flatten().cloned().collect::<Vec<_>>());
    let values = [
        layers.seconds("bench.setup", "workloads.emit")
            + layers.seconds("bench.pass", "workloads.emit") / passes,
        setup_events as f64 + pass_emitted,
        (setup_bytes as f64 + pass_emitted_bytes) / f64::from(1 << 20),
        layers.seconds("bench.pass", "sim.contention.schedule") / passes,
        schedule_ops,
        ratio(schedule_ops, schedule_events),
        replay_s,
        ratio(events, replay_s) / 1e6,
        layers.count("bench.pass", "sim.run") / passes,
        ratio(stats.il1.misses as f64, stats.il1.accesses as f64),
        ratio(stats.dl1.misses as f64, stats.dl1.accesses as f64),
        ratio(stats.l2.misses as f64, stats.l2.accesses as f64),
        ratio(stats.memory_accesses as f64, events),
        layers.seconds("bench.pass", "mbpta.analyze") / passes,
        layers.count("bench.pass", "mbpta.analyze") / passes,
        layers.seconds("bench.resume", "sim.checkpoint.load"),
        bytes_read as f64,
        layers.seconds("bench.resume", "sim.checkpoint.resume"),
        resumed as f64,
        executed as f64,
        layers.seconds("bench.reference", "sim.checkpoint.save"),
        bytes_written as f64,
        mean(&traced_s) - mean(&untraced_s),
        layers.unattributed_s / passes,
    ];
    let metrics = PER_LAYER.into_iter().zip(values).collect();
    Ok(finish(
        run,
        metrics,
        [untraced_s, Vec::new(), Vec::new()],
        Some(trace),
    ))
}

/// Self time per benchmark phase and layer span, from one trace.
struct LayerTimes {
    self_ns: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    unattributed_s: f64,
}

impl LayerTimes {
    fn from_trace(trace: &Trace) -> LayerTimes {
        let spans = &trace.spans;
        let self_ns = self_times(spans);
        // Each span's phase is its root `bench.*` span.
        let mut root = Vec::with_capacity(spans.len());
        for span in spans {
            let phase = span
                .parent
                .and_then(|p| root.get(p).copied())
                .unwrap_or(span.id);
            root.push(phase);
        }
        let mut totals = BTreeMap::new();
        for (span, &ns) in spans.iter().zip(&self_ns) {
            let entry = totals
                .entry((spans[root[span.id]].name, span.name))
                .or_insert((0, 0));
            entry.0 += ns;
            entry.1 += 1;
        }
        // Time inside a cold pass that no layer span covers.
        let mut unattributed = 0;
        for pass in spans.iter().filter(|s| s.name == "bench.pass") {
            let outermost_layers = spans.iter().filter(|s| {
                root[s.id] == pass.id
                    && s.is_layer()
                    && s.parent.is_some_and(|p| !spans[p].is_layer())
            });
            let covered = covered_ns(
                (pass.start_ns, pass.end_ns),
                outermost_layers.map(|s| (s.start_ns, s.end_ns)),
            );
            unattributed += pass.duration_ns() - covered;
        }
        LayerTimes {
            self_ns: totals,
            unattributed_s: unattributed as f64 * 1e-9,
        }
    }

    fn seconds(&self, phase: &'static str, name: &'static str) -> f64 {
        self.self_ns
            .get(&(phase, name))
            .map_or(0.0, |&(ns, _)| ns as f64 * 1e-9)
    }

    fn count(&self, phase: &'static str, name: &'static str) -> f64 {
        self.self_ns
            .get(&(phase, name))
            .map_or(0.0, |&(_, count)| count as f64)
    }
}
