//! Smoke tests: every experiment binary runs end-to-end with `--quick` and
//! prints non-empty, well-formed output.  These guard the argument parsing
//! in `cli.rs` and the wiring of each `[[bin]]` target, not the statistical
//! quality of the results (the paper-vs-measured record in EXPERIMENTS.md
//! tracks that).

use std::process::Command;

/// Runs one experiment binary with the given arguments and returns stdout
/// and stderr.
fn run_full(exe: &str, args: &[&str]) -> (String, String) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|err| panic!("failed to spawn {exe}: {err}"));
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "{exe} exited with {:?}\nstderr:\n{stderr}",
        output.status.code()
    );
    let stdout = String::from_utf8(output.stdout).expect("experiment output is UTF-8");
    assert!(!stdout.trim().is_empty(), "{exe} printed nothing");
    (stdout, stderr)
}

/// Runs one experiment binary with the given arguments and returns stdout.
fn run(exe: &str, args: &[&str]) -> String {
    run_full(exe, args).0
}

/// A fresh, empty `--store` directory for one test.
fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("randmod-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `checkpoint <path>: resumed N shard(s), executed M of K` lines a
/// stored run prints on stderr, one per campaign.
fn store_progress(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| l.starts_with("checkpoint ") && l.contains(": resumed "))
        .collect()
}

/// Runs `exe --quick` without a store, then twice with one: both stored
/// stdouts must equal the unstored one byte for byte, and the second run
/// must restore all `campaigns` campaigns from the store without
/// executing a single shard.
fn assert_warm_store_reruns_nothing(exe: &str, tag: &str, campaigns: usize) {
    let golden = run(exe, &["--quick"]);
    let dir = store_dir(tag);
    let store_args = ["--quick", "--store", dir.to_str().unwrap()];
    let (cold, cold_stderr) = run_full(exe, &store_args);
    assert_eq!(cold, golden, "a cold store changed the experiment output");
    assert_eq!(
        store_progress(&cold_stderr).len(),
        campaigns,
        "{cold_stderr}"
    );
    let (warm, warm_stderr) = run_full(exe, &store_args);
    assert_eq!(warm, golden, "a warm store changed the experiment output");
    let progress = store_progress(&warm_stderr);
    assert_eq!(progress.len(), campaigns, "{warm_stderr}");
    for line in progress {
        assert!(
            line.ends_with("resumed 16 shard(s), executed 0 of 16"),
            "a warm campaign re-simulated: {line}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("failed to clean up the store directory");
}

/// Asserts that every non-comment line below the CSV header splits into
/// `fields` comma-separated fields, and that at least `min_rows` such data
/// rows exist.
fn assert_csv_rows(stdout: &str, header: &str, fields: usize, min_rows: usize) {
    let mut lines = stdout.lines();
    assert!(
        lines.any(|l| l == header),
        "missing CSV header {header:?} in output:\n{stdout}"
    );
    let rows: Vec<&str> = lines
        .take_while(|l| !l.is_empty())
        .filter(|l| !l.starts_with('#'))
        .collect();
    assert!(
        rows.len() >= min_rows,
        "expected at least {min_rows} data rows after {header:?}, got {}",
        rows.len()
    );
    for row in rows {
        assert_eq!(
            row.split(',').count(),
            fields,
            "malformed CSV row {row:?} (expected {fields} fields)"
        );
    }
}

#[test]
fn fig1_pwcet_curve_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_fig1_pwcet_curve"), &["--quick"]);
    assert_csv_rows(
        &stdout,
        "exceedance_probability,execution_time_cycles",
        2,
        10,
    );
    assert!(stdout.contains("pWCET at the"), "missing cutoff summary");
}

#[test]
fn table1_hwcost_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_table1_hwcost"), &["--quick"]);
    assert!(stdout.contains("ASIC 45nm"), "missing ASIC row:\n{stdout}");
    assert!(stdout.contains("FPGA"), "missing FPGA row:\n{stdout}");
    assert!(
        stdout.contains("Paper-reported values"),
        "missing paper comparison:\n{stdout}"
    );
}

#[test]
fn table2_iid_tests_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_table2_iid_tests"), &["--quick"]);
    assert_csv_rows(
        &stdout,
        "benchmark,ww_statistic,ks_p_value,et_p_value,passed,runs",
        6,
        11,
    );
}

#[test]
fn table2_adaptive_quick() {
    // The convergence-driven protocol must cover all 11 benchmarks and
    // report the per-benchmark runs-to-convergence summary.
    let stdout = run(
        env!("CARGO_BIN_EXE_table2_iid_tests"),
        &["--adaptive", "--quick"],
    );
    assert_csv_rows(
        &stdout,
        "benchmark,ww_statistic,ks_p_value,et_p_value,passed,runs",
        6,
        11,
    );
    assert!(
        stdout.contains("# adaptive:"),
        "missing adaptive summary:\n{stdout}"
    );
}

#[test]
fn fig4a_rm_vs_hrp_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_fig4a_rm_vs_hrp"), &["--quick"]);
    assert_csv_rows(
        &stdout,
        "benchmark,pwcet_rm,pwcet_hrp,rm_over_hrp,tightening_percent",
        5,
        11,
    );
    assert!(stdout.contains("# tightening:"), "missing summary line");
}

#[test]
fn fig4a_adaptive_quick() {
    // fig4a honours --adaptive like the other MBPTA binaries: the same
    // CSV, from one adaptive campaign per benchmark and policy.
    let stdout = run(
        env!("CARGO_BIN_EXE_fig4a_rm_vs_hrp"),
        &["--quick", "--adaptive"],
    );
    assert_csv_rows(
        &stdout,
        "benchmark,pwcet_rm,pwcet_hrp,rm_over_hrp,tightening_percent",
        5,
        11,
    );
}

#[test]
fn fig4a_warm_store_reruns_nothing() {
    // 11 benchmarks x {RM, hRP}.
    assert_warm_store_reruns_nothing(env!("CARGO_BIN_EXE_fig4a_rm_vs_hrp"), "fig4a", 22);
}

#[test]
fn fig4b_rm_vs_det_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_fig4b_rm_vs_det"), &["--quick"]);
    assert_csv_rows(
        &stdout,
        "benchmark,pwcet_rm,deterministic_hwm,rm_over_hwm",
        4,
        11,
    );
}

#[test]
fn fig5_synthetic_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_fig5_synthetic"), &["--quick"]);
    assert!(
        stdout.contains("RM execution-time histogram"),
        "missing RM histogram:\n{stdout}"
    );
    assert!(
        stdout.contains("hRP execution-time histogram"),
        "missing hRP histogram:\n{stdout}"
    );
    assert!(stdout.contains("pWCET curves"), "missing curve section");
}

#[test]
fn fig5_adaptive_quick() {
    let stdout = run(
        env!("CARGO_BIN_EXE_fig5_synthetic"),
        &["--quick", "--adaptive"],
    );
    assert_csv_rows(
        &stdout,
        "## Figure 5(c): pWCET curves (probability, RM bound, hRP bound)",
        3,
        18,
    );
}

#[test]
fn fig5_large_footprint_quick() {
    // The multi-MB scenario the packed streaming pipeline enables: the 1MB
    // and 4MB synthetic sweeps plus the L2-sized EEMBC-like stress kernel
    // must run to completion under --quick.
    let stdout = run(
        env!("CARGO_BIN_EXE_fig5_synthetic"),
        &["--quick", "--large"],
    );
    assert!(
        stdout.contains("1024KB footprint"),
        "missing 1MB sweep:\n{stdout}"
    );
    assert!(
        stdout.contains("4096KB footprint"),
        "missing 4MB sweep:\n{stdout}"
    );
    assert!(
        stdout.contains("eembc-stress-128kb"),
        "missing L2-sized stress kernel:\n{stdout}"
    );
    assert!(
        stdout.contains("spread ratio"),
        "missing comparison:\n{stdout}"
    );
}

#[test]
fn thread_override_is_accepted_and_preserves_results() {
    // --threads must parse and must not change the measured sample (runs
    // are independent; partitioning them differently is invisible).
    let one = run(
        env!("CARGO_BIN_EXE_fig1_pwcet_curve"),
        &["--quick", "--threads", "1"],
    );
    let four = run(
        env!("CARGO_BIN_EXE_fig1_pwcet_curve"),
        &["--quick", "--threads", "4"],
    );
    assert_eq!(one, four, "thread count changed experiment output");
}

#[test]
fn sec44_avg_performance_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_sec44_avg_performance"), &["--quick"]);
    assert_csv_rows(
        &stdout,
        "benchmark,rm_mean_cycles,modulo_cycles,degradation_percent,rm_runs",
        5,
        11,
    );
    assert!(stdout.contains("# degradation:"), "missing summary line");
}

#[test]
fn fig1_adaptive_quick() {
    let stdout = run(
        env!("CARGO_BIN_EXE_fig1_pwcet_curve"),
        &["--adaptive", "--quick"],
    );
    assert_csv_rows(
        &stdout,
        "exceedance_probability,execution_time_cycles",
        2,
        10,
    );
    assert!(
        stdout.contains("# adaptive:"),
        "missing convergence record:\n{stdout}"
    );
}

#[test]
fn invalid_flag_values_warn_on_stderr_and_do_not_abort() {
    // `--threads lots` is rejected with a warning naming the flag and the
    // value, and the experiment still runs with the default.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fig1_pwcet_curve"))
        .args(["--quick", "--threads", "lots"])
        .output()
        .expect("failed to spawn fig1_pwcet_curve");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--threads") && stderr.contains("lots"),
        "missing rejected-value warning on stderr:\n{stderr}"
    );
}

#[test]
fn run_all_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_run_all"), &["--quick"]);
    for artefact in [
        "table1_hwcost",
        "fig1_pwcet_curve",
        "table2_iid_tests",
        "fig4a_rm_vs_hrp",
        "fig4b_rm_vs_det",
        "fig5_synthetic",
        "sec44_avg_performance",
        "fig6_contention",
    ] {
        assert!(
            stdout.contains(artefact),
            "missing {artefact} in:\n{stdout}"
        );
    }
    assert!(
        !stdout.contains("FAILED"),
        "an experiment failed:\n{stdout}"
    );
    assert!(stdout.contains("# all experiments completed"));
}

#[test]
fn fig6_contention_quick() {
    let stdout = run(env!("CARGO_BIN_EXE_fig6_contention"), &["--quick"]);
    assert_csv_rows(
        &stdout,
        "l2_placement,pressure,opponents,victim_pwcet,victim_mean,inflation_percent,runs",
        7,
        16,
    );
    // All four placement policies appear at the shared L2, and the idle
    // baseline rows report zero inflation.
    for placement in ["MOD", "XOR", "hRP", "RM"] {
        assert!(
            stdout.contains(&format!("{placement},0,idle")),
            "missing idle baseline for {placement}:\n{stdout}"
        );
    }
}

#[test]
fn fig6_warm_store_reruns_nothing() {
    // 4 shared-L2 placements x pressures P0-P3, the idle P0 cells
    // included.
    assert_warm_store_reruns_nothing(env!("CARGO_BIN_EXE_fig6_contention"), "fig6", 16);
}

#[test]
fn fig6_contention_adaptive_quick() {
    let stdout = run(
        env!("CARGO_BIN_EXE_fig6_contention"),
        &["--quick", "--adaptive"],
    );
    assert_csv_rows(
        &stdout,
        "l2_placement,pressure,opponents,victim_pwcet,victim_mean,inflation_percent,runs",
        7,
        16,
    );
    assert!(
        stdout.contains("# adaptive:"),
        "missing convergence record:\n{stdout}"
    );
}

#[test]
fn sharded_kill_and_resume_reproduces_the_uninterrupted_output() {
    // The crash-safety acceptance path, end to end through a real binary:
    // golden run → `kill -9`-style crash after the second of the store's
    // 16 shard checkpoints (nonzero exit, no CSV) → rerun on the same
    // store (byte-identical stdout, the 2 persisted shards reused) → a
    // third run that simulates nothing at all.
    let exe = env!("CARGO_BIN_EXE_fig1_pwcet_curve");
    let golden = run(exe, &["--quick"]);
    let dir = store_dir("kill");
    let dir_str = dir.to_str().unwrap();
    let store_args = ["--quick", "--store", dir_str];

    // Crash immediately after the second shard checkpoint persists.
    let crashed = Command::new(exe)
        .args(store_args)
        .env("RANDMOD_KILL_AFTER_SHARD", "2")
        .output()
        .expect("failed to spawn fig1_pwcet_curve");
    assert!(
        !crashed.status.success(),
        "the crash hook did not fire:\n{}",
        String::from_utf8_lossy(&crashed.stderr)
    );

    // The rerun completes the remaining shards and reproduces the golden
    // output bit for bit; the one after it only reads the store.
    for expected in [
        "resumed 2 shard(s), executed 14 of 16",
        "resumed 16 shard(s), executed 0 of 16",
    ] {
        let (stdout, stderr) = run_full(exe, &store_args);
        assert_eq!(
            stdout, golden,
            "the stored run diverged from the uninterrupted output"
        );
        assert!(
            stderr.contains(expected),
            "expected {expected:?} on stderr:\n{stderr}"
        );
    }

    // A different campaign (different seed) fingerprints to a *different*
    // entry in the same directory, so it can never replay the old
    // campaign's shards: it starts fresh instead.
    let (_, stderr) = run_full(exe, &["--quick", "--store", dir_str, "--seed", "99"]);
    assert!(
        stderr.contains("resumed 0 shard(s)"),
        "a different campaign must not resume the old campaign's shards:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("failed to clean up the store directory");
}

#[test]
fn quick_runs_override_is_clamped_not_fatal() {
    // `--runs 1` used to panic deep in the ET test; it must now clamp to
    // the pipeline minimum and complete.
    let stdout = run(
        env!("CARGO_BIN_EXE_fig1_pwcet_curve"),
        &["--quick", "--runs", "1"],
    );
    assert!(stdout.contains("runs = 20"), "runs not clamped:\n{stdout}");
}
