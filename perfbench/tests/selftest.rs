//! The benchmark's own checks: span self-time arithmetic, metric names,
//! and a tiny run of every workload through the output gate.

use perfbench::bench::{self, Settings};
use perfbench::report::{valid_metric_name, END_TO_END, PER_LAYER};
use perfbench::spans::{covered_ns, self_times, Span, Tracer};
use perfbench::workload::{Counters, Kind, Plan, DEFAULT_RUNS, DEFAULT_SEED};
use std::path::PathBuf;

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "sim.run",
        start_ns,
        end_ns,
        campaign: None,
    }
}

#[test]
fn nested_spans_subtract_only_their_direct_children() {
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 40),
        span(2, Some(1), 20, 30),
    ];
    assert_eq!(self_times(&spans), vec![70, 20, 10]);
}

#[test]
fn sibling_spans_are_subtracted_as_a_union() {
    let adjacent = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 30),
        span(2, Some(0), 30, 60),
    ];
    assert_eq!(self_times(&adjacent), vec![50, 20, 30]);
    let overlapping = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 50),
        span(2, Some(0), 40, 70),
    ];
    assert_eq!(self_times(&overlapping), vec![40, 40, 30]);
    // A child reaching past its parent is clipped to the parent.
    let overhanging = [span(0, None, 10, 50), span(1, Some(0), 40, 90)];
    assert_eq!(self_times(&overhanging), vec![30, 50]);
}

#[test]
fn zero_length_spans_cost_nothing() {
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 50, 50),
        span(2, None, 7, 7),
        span(3, Some(2), 7, 7),
    ];
    assert_eq!(self_times(&spans), vec![100, 0, 0, 0]);
    assert_eq!(covered_ns((0, 10), []), 0);
    assert_eq!(covered_ns((0, 10), [(3, 3), (5, 5)]), 0);
    assert_eq!(covered_ns((0, 10), [(2, 4), (3, 6), (8, 20)]), 6);
}

#[test]
fn recorded_self_times_add_up_to_the_root() {
    let tracer = Tracer::on();
    tracer.span("bench.pass", || {
        tracer.span("sim.run", || {
            tracer.span("workloads.emit", || std::hint::black_box(1))
        });
        tracer.span("mbpta.analyze", || {});
    });
    let trace = tracer.into_trace();
    let parents: Vec<Option<usize>> = trace.spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
    assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
    let total: u64 = self_times(&trace.spans).iter().sum();
    assert_eq!(total, trace.spans[0].duration_ns());
}

#[test]
fn metric_names_are_valid_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    for name in &names {
        assert!(valid_metric_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a metric name is used twice");
    for bad in ["", "a b", "_lead", ".lead", "x/y", "é", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad:?} accepted");
    }
    assert!(valid_metric_name("sim.checkpoint.load_s") && valid_metric_name("9-a_b.c"));
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    // One metric per line, as BENCHMARK.json is laid out.
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            metric.name, metric.unit, metric.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"better\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    for kind in Kind::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", kind.name())),
            "{}",
            kind.name()
        );
    }
}

fn tiny(kind: Kind, traced: bool) -> Settings {
    let dir = format!(
        "selftest-{}-{}",
        kind.name(),
        if traced { "traced" } else { "untraced" }
    );
    Settings {
        kind,
        seed: 7,
        runs: 20,
        seconds: 0.0,
        traced,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

fn gate_tiny_run(kind: Kind, campaigns: u64) {
    let untraced = bench::run(&tiny(kind, false)).expect("untraced run");
    assert!(untraced.correct(), "{:?}", untraced.failures);
    // The reference pass, one cold pass, and the resume passes of
    // checkpointed workloads: every campaign once in each.
    assert_eq!(untraced.pass_s.len(), 1);
    let resumes = if kind.checkpointed() {
        untraced.resume_s.len() as u64
    } else {
        0
    };
    assert_eq!(untraced.attempted, campaigns * (2 + resumes));
    assert!(
        untraced.metrics.iter().all(|(_, value)| *value > 0.0),
        "{:?}",
        untraced.metrics
    );

    let traced = bench::run(&tiny(kind, true)).expect("traced run");
    assert!(traced.correct(), "{:?}", traced.failures);
    assert_eq!(
        traced.digest, untraced.digest,
        "tracing changed the simulated results"
    );
    assert_eq!(traced.metrics.len(), PER_LAYER.len());
    let value = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(value("sim.run.campaigns"), Some(campaigns as f64));
    assert_eq!(value("sim.checkpoint.shards_executed"), Some(0.0));
    assert!(value("sim.run.replay_s").is_some_and(|s| s > 0.0));
    let spans = traced.trace.expect("traced run keeps its spans");
    assert!(spans.spans.iter().any(|s| s.name == "workloads.emit"));
}

#[test]
fn tiny_solo_mbpta_run_passes_the_gate() {
    gate_tiny_run(Kind::SoloMbpta, 24);
}

#[test]
fn tiny_contended_l2_run_passes_the_gate() {
    gate_tiny_run(Kind::ContendedL2, 16);
}

#[test]
fn tiny_layout_sweep_run_passes_the_gate() {
    gate_tiny_run(Kind::LayoutSweep, 11);
}

#[test]
fn pinned_campaigns_reproduce_the_recorded_numbers() {
    // fig1 (20KB kernel, RM) and fig6 (RM shared L2, P2) at the default
    // 300-run schedule, through the benchmark's own calls.
    for kind in [Kind::SoloMbpta, Kind::ContendedL2] {
        let plan = Plan::new(kind, DEFAULT_SEED, DEFAULT_RUNS);
        let (tracer, counters) = (Tracer::off(), Counters::default());
        let inputs = plan.setup(&tracer, &counters).expect("valid platforms");
        let pinned: Vec<_> = plan
            .campaigns
            .iter()
            .filter(|spec| spec.pin.is_some())
            .collect();
        assert_eq!(pinned.len(), 1, "{}", kind.name());
        for spec in pinned {
            let output = plan
                .run_cold(spec, &inputs, &tracer, &counters)
                .expect("campaign runs");
            plan.check(spec, &output).expect("pin holds");
        }
    }
    // Away from the default schedule nothing is pinned.
    assert!(Plan::new(Kind::SoloMbpta, 7, DEFAULT_RUNS)
        .campaigns
        .iter()
        .all(|s| s.pin.is_none()));
}
