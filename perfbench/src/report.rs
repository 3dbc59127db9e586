//! Metric definitions, the host fingerprint and the JSON the benchmark
//! prints.

use std::fmt::Write as _;

/// A metric the benchmark reports, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    def("wall_s", "s", "lower"),
    def("sim_mev_per_s", "Mev/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("resume_s", "s", "lower"),
];

/// Metrics of a traced run.  Times are spans' self times, and each metric
/// covers one pass over the campaign set: replay, schedule, analysis,
/// overhead and unattributed time per cold pass; emission per set-up
/// plus cold pass (the sweep emits inside its passes); checkpoint loads
/// and verification over one resume pass, saves over the pass that fills
/// the stores; cache ratios over every run.  A layer that does no work on
/// a workload reports 0.
pub const PER_LAYER: [MetricDef; 24] = [
    def("workloads.emit_s", "s", "lower"),
    def("workloads.events", "count", "lower"),
    def("workloads.trace_mb", "MiB", "lower"),
    def("sim.contention.schedule_s", "s", "lower"),
    def("sim.contention.schedule_ops", "count", "lower"),
    def("sim.contention.collapse_ratio", "ratio", "lower"),
    def("sim.run.replay_s", "s", "lower"),
    def("sim.run.mev_per_s", "Mev/s", "higher"),
    def("sim.run.campaigns", "count", "higher"),
    def("core.il1_miss_ratio", "ratio", "lower"),
    def("core.dl1_miss_ratio", "ratio", "lower"),
    def("core.l2_miss_ratio", "ratio", "lower"),
    def("core.memory_accesses_per_event", "ratio", "lower"),
    def("mbpta.analyze_s", "s", "lower"),
    def("mbpta.samples", "count", "higher"),
    def("sim.checkpoint.load_s", "s", "lower"),
    def("sim.checkpoint.bytes_read", "bytes", "lower"),
    def("sim.checkpoint.verify_s", "s", "lower"),
    def("sim.checkpoint.shards_resumed", "count", "higher"),
    def("sim.checkpoint.shards_executed", "count", "lower"),
    def("sim.checkpoint.save_s", "s", "lower"),
    def("sim.checkpoint.bytes_written", "bytes", "lower"),
    def("bench.tracing_overhead_s", "s", "lower"),
    def("bench.unattributed_s", "s", "lower"),
];

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values, which JSON cannot hold, become 0.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(def.name),
                json_number(*value),
                json_string(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Where and how a result was measured, so results from different hosts
/// or builds are never compared unknowingly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// CPU model name, family and model.
    pub cpu: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Git revision of the checkout, if it is a git checkout.
    pub git: String,
}

impl Provenance {
    /// The fingerprint of this host and checkout.
    pub fn detect() -> Provenance {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|line| line.split(':').next().map(str::trim) == Some(key))
                .and_then(|line| line.split_once(':'))
                .map(|(_, value)| value.trim().to_string())
        };
        let cpu = format!(
            "{} (family {}, model {})",
            field("model name").unwrap_or_else(|| "unknown".to_string()),
            field("cpu family").unwrap_or_else(|| "?".to_string()),
            field("model").unwrap_or_else(|| "?".to_string()),
        );
        Provenance {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git: git_revision().unwrap_or_else(|| "none (not a git checkout)".to_string()),
        }
    }

    /// The fingerprint as JSON object members.
    pub fn json_members(&self) -> String {
        format!(
            "\"cpu\": {}, \"nproc\": {}, \"rustc\": {}, \"git\": {}",
            json_string(&self.cpu),
            self.nproc,
            json_string(&self.rustc),
            json_string(&self.git)
        )
    }
}

/// The commit `.git/HEAD` names in the working directory, read without
/// running git.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)
                .map(|commit| commit.trim().to_string())
        })
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
