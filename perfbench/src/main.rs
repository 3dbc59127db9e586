//! Runs one benchmark workload and prints its metrics.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo_mbpta --seed 12648430 --seconds 10 --trace 0
//! ```
//!
//! `--workload` is `solo_mbpta`, `contended_l2` or `layout_sweep`;
//! `--seed` (decimal or `0x` hex) defaults to the experiments' `0xC0FFEE`;
//! `--seconds` (default 10) is how long the timed passes last at least;
//! `--trace 1` selects the traced run, which also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`.
//!
//! The output ends with a record line — host fingerprint, result digest,
//! every sample — and then the result line the benchmark's contract
//! defines: `{"correct", "attempted", "failed", "metrics"}`.

use perfbench::bench::{self, Settings};
use perfbench::report::{self, json_number, json_string, Provenance};
use perfbench::workload::{Kind, DEFAULT_RUNS, DEFAULT_SEED, THREADS};
use randmod_sim::Campaign;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload solo_mbpta|contended_l2|layout_sweep \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Where traced runs write their spans and runs keep their stores.
const OUT_DIR: &str = ".bench_out";

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Settings, String> {
    let mut settings = Settings {
        kind: Kind::SoloMbpta,
        seed: DEFAULT_SEED,
        runs: DEFAULT_RUNS,
        seconds: 10.0,
        traced: false,
        work_dir: PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id())),
    };
    let mut workload = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::from_name(&value).ok_or_else(bad)?),
            "--seed" => settings.seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                settings.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    settings.kind = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(settings)
}

fn json_list(values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", values.join(", "))
}

fn main() -> ExitCode {
    let settings = match parse(std::env::args().skip(1)) {
        Ok(settings) => settings,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::detect();
    let outcome = match bench::run(&settings) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mode = if settings.traced {
        "traced"
    } else {
        "untraced"
    };
    let spans_path = outcome.trace.as_ref().map(|_| {
        PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-{:#x}.jsonl",
            settings.kind.name(),
            settings.seed
        ))
    });
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_string(f)).collect();
    let record = format!(
        "{{\"record\": \"perfbench\", \"workload\": {}, \"mode\": \"{mode}\", \"seed\": {}, \
         \"runs\": {}, \"threads\": {THREADS}, \"lanes\": {}, {}, \"digest\": \"{:#018x}\", \
         \"pins_checked\": {}, \"passes\": {}, \"pass_s\": {}, \"setup_samples_s\": {}, \
         \"resume_samples_s\": {}, \"spans_file\": {}, \"failures\": [{}]}}",
        json_string(settings.kind.name()),
        settings.seed,
        settings.runs,
        Campaign::DEFAULT_LANES,
        provenance.json_members(),
        outcome.digest,
        outcome.pins_checked,
        outcome.pass_s.len(),
        json_list(&outcome.pass_s),
        json_list(&outcome.setup_s),
        json_list(&outcome.resume_s),
        spans_path
            .as_ref()
            .map_or("null".to_string(), |p| json_string(
                &p.display().to_string()
            )),
        failures.join(", "),
    );
    if let (Some(trace), Some(path)) = (&outcome.trace, &spans_path) {
        // The record heads the span file, so the spans carry their provenance.
        if let Err(error) = std::fs::write(path, format!("{record}\n{}", trace.to_json_lines())) {
            eprintln!("perfbench: cannot write {}: {error}", path.display());
        }
    }
    println!("{record}");
    println!(
        "{}",
        report::result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
