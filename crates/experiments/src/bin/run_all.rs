//! Runs every experiment of the paper's evaluation in sequence and prints a
//! one-line summary per artefact — the quickest way to regenerate the whole
//! evaluation (`--quick` for a smoke-test-sized pass, `--runs 1000` to match
//! the paper).

use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::{fig1, fig4, fig5, fig6, sec44, table1, table2};

fn main() {
    let options = ExperimentOptions::from_env();
    let layouts = fig4::fig4b_layouts(options.quick);
    println!(
        "# Full evaluation: runs = {}, campaign seed = {:#x}",
        options.runs, options.campaign_seed
    );

    let mut failures = 0usize;
    let mut check = |artefact: &str, outcome: Result<String, String>| match outcome {
        Ok(summary) => println!("{artefact}: {summary}"),
        Err(err) => {
            failures += 1;
            println!("{artefact}: FAILED ({err})");
        }
    };

    check(
        "table1_hwcost",
        Ok(format!(
            "hRP/RM area ratio {:.1}x",
            table1::generate().area_ratio()
        )),
    );
    check(
        "fig1_pwcet_curve",
        fig1::generate(&options)
            .map(|r| format!("pWCET at cutoff {:.0} cycles", r.pwcet_at_cutoff))
            .map_err(|e| e.to_string()),
    );
    check(
        "table2_iid_tests",
        table2::generate(&options)
            .map(|rows| {
                let passed = rows.iter().filter(|r| r.passed).count();
                format!("{passed}/{} benchmarks pass the i.i.d. tests", rows.len())
            })
            .map_err(|e| e.to_string()),
    );
    check(
        "fig4a_rm_vs_hrp",
        fig4::fig4a(&options)
            .map(|rows| {
                let summary = fig4::summarize_fig4a(&rows);
                format!("mean tightening {:.1}%", summary.mean_tightening * 100.0)
            })
            .map_err(|e| e.to_string()),
    );
    check(
        "fig4b_rm_vs_det",
        fig4::fig4b(layouts, &options)
            .map(|rows| {
                let worst = rows
                    .iter()
                    .map(|r| r.normalized())
                    .fold(f64::NEG_INFINITY, f64::max);
                format!("worst RM pWCET / hwm ratio {worst:.3}")
            })
            .map_err(|e| e.to_string()),
    );
    check(
        "fig5_synthetic",
        fig5::generate(&options)
            .map(|r| format!("RM pWCET {:.0}, hRP pWCET {:.0}", r.rm_pwcet, r.hrp_pwcet))
            .map_err(|e| e.to_string()),
    );
    check(
        "sec44_avg_performance",
        sec44::generate(&options)
            .map(|rows| {
                let summary = sec44::summarize(&rows);
                format!("mean degradation {:.2}%", summary.mean_degradation * 100.0)
            })
            .map_err(|e| e.to_string()),
    );

    check(
        "fig6_contention",
        fig6::generate(&options)
            .map(|rows| {
                let worst = rows
                    .iter()
                    .map(|r| r.inflation_percent)
                    .fold(f64::NEG_INFINITY, f64::max);
                format!("worst victim pWCET inflation {worst:.1}%")
            })
            .map_err(|e| e.to_string()),
    );

    if failures > 0 {
        eprintln!("error: {failures} experiment(s) failed");
        std::process::exit(1);
    }
    println!("# all experiments completed");
}
