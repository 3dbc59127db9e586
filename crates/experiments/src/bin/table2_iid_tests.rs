//! Regenerates Table 2: Wald–Wolfowitz and Kolmogorov–Smirnov results for
//! the EEMBC benchmarks under Random Modulo.

use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::table2;

fn main() {
    let options = ExperimentOptions::from_env();
    println!("# Table 2: i.i.d. tests under RM (WW passes below 1.96, KS passes at or above 0.05)");
    if options.adaptive {
        println!(
            "# adaptive campaigns (runs column = runs to convergence), campaign seed = {:#x}",
            options.campaign_seed
        );
    } else {
        println!(
            "# runs = {}, campaign seed = {:#x}",
            options.runs, options.campaign_seed
        );
    }
    match table2::generate(&options) {
        Ok(rows) => {
            println!("benchmark,ww_statistic,ks_p_value,et_p_value,passed,runs");
            for row in &rows {
                println!(
                    "{},{:.3},{:.3},{:.3},{},{}",
                    row.benchmark.initials(),
                    row.ww_statistic,
                    row.ks_p_value,
                    row.et_p_value,
                    row.passed,
                    row.runs
                );
            }
            let passed = rows.iter().filter(|r| r.passed).count();
            println!(
                "# {passed}/{} benchmarks pass both Table-2 tests",
                rows.len()
            );
            if options.adaptive {
                let converged = rows.iter().filter(|r| r.converged == Some(true)).count();
                let total_runs: usize = rows.iter().map(|r| r.runs).sum();
                println!(
                    "# adaptive: {converged}/{} benchmarks converged, {total_runs} total runs (fixed schedule would use {})",
                    rows.len(),
                    options.runs * rows.len()
                );
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
