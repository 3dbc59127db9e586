//! Minimal command-line parsing shared by the experiment binaries: the
//! run-count, seed and throughput knobs, the adaptive-campaign options,
//! and `--store DIR`, the one persistence option.

use crate::{DEFAULT_CAMPAIGN_SEED, DEFAULT_RUNS, MIN_RUNS};

/// Options common to all experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Number of runs per benchmark (`--runs N`, clamped to at least
    /// [`MIN_RUNS`] so the statistical pipeline stays applicable).
    pub runs: usize,
    /// Campaign seed (`--seed N`).
    pub campaign_seed: u64,
    /// Quick mode (`--quick`): very small run counts for smoke testing.
    pub quick: bool,
    /// Worker-thread override for the campaigns (`--threads N`); `None`
    /// keeps the default of one worker per available core.
    pub threads: Option<usize>,
    /// Seed-lane override for the batched replay engine (`--lanes N`);
    /// `None` keeps [`randmod_sim::Campaign::DEFAULT_LANES`].  `--lanes 1`
    /// replays one seed per trace decode (one-lane waves, same engine).
    pub lanes: Option<usize>,
    /// Adaptive mode (`--adaptive`): grow each campaign until the pWCET
    /// estimate converges instead of executing a fixed run count.
    pub adaptive: bool,
    /// Convergence tolerance override (`--target-cv X`): the maximum
    /// relative movement between consecutive pWCET checkpoints that still
    /// counts as stable; `None` keeps the default of 1%.
    pub target_cv: Option<f64>,
    /// Adaptive run cap override (`--max-runs N`); `None` keeps
    /// [`crate::runner::DEFAULT_ADAPTIVE_MAX_RUNS`].
    pub max_runs: Option<usize>,
    /// Result-store directory (`--store DIR`): every fixed-run campaign
    /// runs in [`crate::runner::STORE_SHARDS`] shards, each persisted to
    /// the campaign's fingerprint-named entry there as it completes, and
    /// whatever an entry already holds is reused — an interrupted campaign
    /// resumes, a finished one is never simulated twice.
    pub store: Option<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            runs: DEFAULT_RUNS,
            campaign_seed: DEFAULT_CAMPAIGN_SEED,
            quick: false,
            threads: None,
            lanes: None,
            adaptive: false,
            target_cv: None,
            max_runs: None,
            store: None,
        }
    }
}

/// Consumes the value following a flag when it parses; otherwise records a
/// warning naming the flag and the rejected value and leaves the cursor on
/// the flag (so a following `--other-flag` is still scanned normally).
fn numeric_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
    warnings: &mut Vec<String>,
) -> Option<T> {
    match args.get(*i + 1) {
        None => {
            warnings.push(format!(
                "{flag} expects a value but none was given; flag ignored"
            ));
            None
        }
        Some(raw) => match raw.parse::<T>() {
            Ok(value) => {
                *i += 1;
                Some(value)
            }
            Err(_) => {
                warnings.push(format!("{flag}: invalid value {raw:?}; flag ignored"));
                None
            }
        },
    }
}

/// Consumes the value following a flag unless it is missing or looks like
/// another flag (starts with `--`), in which case a warning is recorded
/// and the cursor stays on the flag.
fn string_value(
    args: &[String],
    i: &mut usize,
    flag: &str,
    warnings: &mut Vec<String>,
) -> Option<String> {
    match args.get(*i + 1) {
        None => {
            warnings.push(format!(
                "{flag} expects a value but none was given; flag ignored"
            ));
            None
        }
        Some(raw) if raw.starts_with("--") => {
            warnings.push(format!(
                "{flag} expects a value but got the flag {raw:?}; flag ignored"
            ));
            None
        }
        Some(raw) => {
            *i += 1;
            Some(raw.clone())
        }
    }
}

impl ExperimentOptions {
    /// Parses options from an argument iterator (excluding the program
    /// name), printing a warning to stderr for every flag whose value was
    /// rejected.  Unknown arguments are ignored so binaries can add their
    /// own.
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let (options, warnings) = Self::parse_with_warnings(args);
        for warning in &warnings {
            eprintln!("warning: {warning}");
        }
        options
    }

    /// [`Self::parse`] returning the rejected-value warnings instead of
    /// printing them (the testable core of the parser).
    pub fn parse_with_warnings<I, S>(args: I) -> (Self, Vec<String>)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut options = ExperimentOptions::default();
        let mut warnings = Vec::new();
        let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--runs" => {
                    if let Some(value) = numeric_value(&args, &mut i, "--runs", &mut warnings) {
                        options.runs = value;
                    }
                }
                "--seed" => {
                    if let Some(value) = numeric_value(&args, &mut i, "--seed", &mut warnings) {
                        options.campaign_seed = value;
                    }
                }
                "--threads" => {
                    if let Some(value) = numeric_value(&args, &mut i, "--threads", &mut warnings) {
                        options.threads = Some(value);
                    }
                }
                "--lanes" => {
                    if let Some(value) = numeric_value(&args, &mut i, "--lanes", &mut warnings) {
                        options.lanes = Some(value);
                    }
                }
                "--max-runs" => {
                    if let Some(value) = numeric_value(&args, &mut i, "--max-runs", &mut warnings) {
                        options.max_runs = Some(value);
                    }
                }
                "--target-cv" => {
                    if let Some(value) =
                        numeric_value::<f64>(&args, &mut i, "--target-cv", &mut warnings)
                    {
                        if value > 0.0 && value.is_finite() {
                            options.target_cv = Some(value);
                        } else {
                            warnings.push(format!(
                                "--target-cv: tolerance must be positive and finite, got {value}; flag ignored"
                            ));
                        }
                    }
                }
                "--store" => {
                    if let Some(value) = string_value(&args, &mut i, "--store", &mut warnings) {
                        options.store = Some(value);
                    }
                }
                "--adaptive" => {
                    options.adaptive = true;
                }
                "--quick" => {
                    options.quick = true;
                }
                _ => {}
            }
            i += 1;
        }
        // Apply the quick cap and the pipeline floor after the scan so the
        // outcome does not depend on argument order.
        if options.quick {
            options.runs = options.runs.min(40);
            options.max_runs = options.max_runs.map(|m| m.min(40));
        }
        options.runs = options.runs.max(MIN_RUNS);
        // A zero thread / lane / run-cap count makes no sense; warn and
        // treat it as "no override" (Campaign clamps to 1 anyway).
        if options.threads == Some(0) {
            warnings.push("--threads: 0 is not a valid worker count; using the default".into());
            options.threads = None;
        }
        if options.lanes == Some(0) {
            warnings.push("--lanes: 0 is not a valid lane count; using the default".into());
            options.lanes = None;
        }
        if options.max_runs == Some(0) {
            warnings.push("--max-runs: 0 is not a valid run cap; using the default".into());
            options.max_runs = None;
        }
        if let Some(max_runs) = options.max_runs {
            if max_runs < MIN_RUNS {
                warnings.push(format!(
                    "--max-runs: {max_runs} is below the statistical floor of {MIN_RUNS} runs; clamped"
                ));
                options.max_runs = Some(MIN_RUNS);
            }
        }
        // The adaptive driver grows the campaign sequentially until the
        // pWCET estimate converges; its run count is not a pure function of
        // the options, so there is no fixed schedule to shard and store.
        if options.adaptive && options.store.is_some() {
            warnings.push(
                "--adaptive campaigns grow until convergence and cannot be stored; \
                 --store ignored"
                    .into(),
            );
            options.store = None;
        }
        (options, warnings)
    }

    /// Parses options from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Returns the options with the given run count (test helper).
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Returns the options with the given campaign seed (test helper).
    pub fn with_campaign_seed(mut self, seed: u64) -> Self {
        self.campaign_seed = seed;
        self
    }

    /// Returns the options with a worker-thread override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns the options with a seed-lane override.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes);
        self
    }

    /// Returns the options with adaptive mode enabled.
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Returns the options with an adaptive run-cap override.
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = Some(max_runs);
        self
    }

    /// Returns the options with a convergence-tolerance override.
    pub fn with_target_cv(mut self, target_cv: f64) -> Self {
        self.target_cv = Some(target_cv);
        self
    }

    /// Returns the options with a result-store directory.
    pub fn with_store(mut self, dir: impl Into<String>) -> Self {
        self.store = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_without_arguments() {
        let options = ExperimentOptions::parse(Vec::<String>::new());
        assert_eq!(options, ExperimentOptions::default());
        assert_eq!(options.runs, DEFAULT_RUNS);
        assert_eq!(options.threads, None);
        assert!(!options.adaptive);
        assert_eq!(options.target_cv, None);
        assert_eq!(options.max_runs, None);
    }

    #[test]
    fn runs_and_seed_are_parsed() {
        let options = ExperimentOptions::parse(["--runs", "1000", "--seed", "7"]);
        assert_eq!(options.runs, 1000);
        assert_eq!(options.campaign_seed, 7);
        assert!(!options.quick);
    }

    #[test]
    fn threads_flag_is_parsed() {
        let options = ExperimentOptions::parse(["--threads", "4"]);
        assert_eq!(options.threads, Some(4));
        // Combined with the other flags, in any position.
        let options = ExperimentOptions::parse(["--runs", "100", "--threads", "2", "--quick"]);
        assert_eq!(options.threads, Some(2));
        assert_eq!(options.runs, 40);
    }

    #[test]
    fn malformed_or_zero_thread_counts_warn_and_are_ignored() {
        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--threads", "lots"]);
        assert_eq!(options.threads, None);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("--threads"), "{warnings:?}");
        assert!(warnings[0].contains("lots"), "{warnings:?}");

        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--threads"]);
        assert_eq!(options.threads, None);
        assert!(warnings[0].contains("--threads"), "{warnings:?}");
        assert!(warnings[0].contains("expects a value"), "{warnings:?}");

        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--threads", "0"]);
        assert_eq!(options.threads, None);
        assert!(warnings[0].contains("--threads"), "{warnings:?}");
        assert!(warnings[0].contains('0'), "{warnings:?}");
    }

    #[test]
    fn lanes_flag_is_parsed() {
        assert_eq!(ExperimentOptions::parse(["--lanes", "4"]).lanes, Some(4));
        assert_eq!(ExperimentOptions::parse(["--lanes", "1"]).lanes, Some(1));
        let combined =
            ExperimentOptions::parse(["--runs", "50", "--lanes", "16", "--threads", "2"]);
        assert_eq!(combined.lanes, Some(16));
        assert_eq!(combined.threads, Some(2));
        assert_eq!(combined.runs, 50);
    }

    #[test]
    fn malformed_or_zero_lane_counts_warn_and_are_ignored() {
        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--lanes", "many"]);
        assert_eq!(options.lanes, None);
        assert!(
            warnings[0].contains("--lanes") && warnings[0].contains("many"),
            "{warnings:?}"
        );

        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--lanes"]);
        assert_eq!(options.lanes, None);
        assert!(warnings[0].contains("expects a value"), "{warnings:?}");

        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--lanes", "0"]);
        assert_eq!(options.lanes, None);
        assert!(warnings[0].contains("--lanes"), "{warnings:?}");
        assert_eq!(ExperimentOptions::default().lanes, None);
    }

    #[test]
    fn a_rejected_value_does_not_swallow_the_following_flag() {
        // The bad value is not consumed as a flag argument, so flags after
        // it still apply.
        let (options, warnings) =
            ExperimentOptions::parse_with_warnings(["--runs", "notanumber", "--quick"]);
        assert_eq!(options.runs, 40); // quick cap over the default
        assert!(options.quick);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("notanumber"), "{warnings:?}");
    }

    #[test]
    fn each_flag_warns_on_a_malformed_value() {
        for flag in [
            "--runs",
            "--seed",
            "--threads",
            "--lanes",
            "--max-runs",
            "--target-cv",
        ] {
            let (options, warnings) = ExperimentOptions::parse_with_warnings([flag, "bogus"]);
            assert_eq!(
                options,
                ExperimentOptions::default(),
                "{flag} changed the options"
            );
            assert_eq!(warnings.len(), 1, "{flag}: {warnings:?}");
            assert!(warnings[0].contains(flag), "{warnings:?}");
            assert!(warnings[0].contains("bogus"), "{warnings:?}");
        }
    }

    #[test]
    fn adaptive_flags_are_parsed() {
        let options =
            ExperimentOptions::parse(["--adaptive", "--target-cv", "0.05", "--max-runs", "500"]);
        assert!(options.adaptive);
        assert_eq!(options.target_cv, Some(0.05));
        assert_eq!(options.max_runs, Some(500));
    }

    #[test]
    fn malformed_adaptive_values_warn_and_are_ignored() {
        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--target-cv", "-0.5"]);
        assert_eq!(options.target_cv, None);
        assert!(warnings[0].contains("--target-cv"), "{warnings:?}");

        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--max-runs", "0"]);
        assert_eq!(options.max_runs, None);
        assert!(warnings[0].contains("--max-runs"), "{warnings:?}");

        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--max-runs", "5"]);
        assert_eq!(options.max_runs, Some(MIN_RUNS));
        assert!(warnings[0].contains("statistical floor"), "{warnings:?}");
    }

    #[test]
    fn quick_caps_the_adaptive_run_cap() {
        let options = ExperimentOptions::parse(["--quick", "--adaptive", "--max-runs", "500"]);
        assert_eq!(options.max_runs, Some(40));
        // Order independent.
        let options = ExperimentOptions::parse(["--max-runs", "500", "--adaptive", "--quick"]);
        assert_eq!(options.max_runs, Some(40));
    }

    #[test]
    fn builder_helpers_set_fields() {
        let options = ExperimentOptions::default()
            .with_runs(77)
            .with_campaign_seed(9)
            .with_threads(3)
            .with_adaptive()
            .with_max_runs(400)
            .with_target_cv(0.02)
            .with_store("/tmp/state");
        assert_eq!(options.runs, 77);
        assert_eq!(options.campaign_seed, 9);
        assert_eq!(options.threads, Some(3));
        assert!(options.adaptive);
        assert_eq!(options.max_runs, Some(400));
        assert_eq!(options.target_cv, Some(0.02));
        assert_eq!(options.store.as_deref(), Some("/tmp/state"));
    }

    #[test]
    fn quick_caps_the_run_count() {
        let options = ExperimentOptions::parse(["--quick"]);
        assert!(options.quick);
        assert!(options.runs <= 40);
    }

    #[test]
    fn quick_cap_is_order_independent() {
        let quick_first = ExperimentOptions::parse(["--quick", "--runs", "100"]);
        let runs_first = ExperimentOptions::parse(["--runs", "100", "--quick"]);
        assert_eq!(quick_first, runs_first);
        assert_eq!(quick_first.runs, 40);
    }

    #[test]
    fn unknown_arguments_are_ignored_without_warnings() {
        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--sweep", "--large"]);
        assert_eq!(options, ExperimentOptions::default());
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn store_flag_is_parsed() {
        let options = ExperimentOptions::parse(["--store", "/tmp/results", "--quick"]);
        assert_eq!(options.store.as_deref(), Some("/tmp/results"));
        assert!(options.quick);
        assert_eq!(ExperimentOptions::default().store, None);
    }

    #[test]
    fn checkpoint_does_not_swallow_a_following_flag() {
        // `--store` names the directory the campaigns' checkpoints live in.
        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--store", "--quick"]);
        assert_eq!(options.store, None);
        assert!(options.quick, "--quick must still be scanned");
        assert!(warnings[0].contains("--store"), "{warnings:?}");

        let (options, warnings) = ExperimentOptions::parse_with_warnings(["--store"]);
        assert_eq!(options.store, None);
        assert!(warnings[0].contains("expects a value"), "{warnings:?}");
    }

    #[test]
    fn adaptive_mode_rejects_sharding_and_checkpointing() {
        // The store shards and checkpoints fixed-run campaigns only; in
        // either argument order, --adaptive drops it with a warning.
        for args in [
            ["--adaptive", "--store", "dir"],
            ["--store", "dir", "--adaptive"],
        ] {
            let (options, warnings) = ExperimentOptions::parse_with_warnings(args);
            assert!(options.adaptive);
            assert_eq!(options.store, None);
            assert!(
                warnings
                    .iter()
                    .any(|w| w.contains("--adaptive") && w.contains("--store")),
                "{warnings:?}"
            );
        }
    }

    #[test]
    fn runs_below_the_pipeline_minimum_are_clamped() {
        let options = ExperimentOptions::parse(["--runs", "5"]);
        assert_eq!(options.runs, MIN_RUNS);
        let options = ExperimentOptions::parse(["--quick", "--runs", "1"]);
        assert_eq!(options.runs, MIN_RUNS);
    }
}
