//! Regenerates Figure 4(a): pWCET estimates of RM normalised to hRP for the
//! EEMBC benchmarks.

use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::fig4;

fn main() {
    let options = ExperimentOptions::from_env();
    println!("# Figure 4(a): pWCET at 1e-15, RM vs hRP in the L1 caches (L2 keeps hRP)");
    println!(
        "# runs = {}, campaign seed = {:#x}",
        options.runs, options.campaign_seed
    );
    match fig4::fig4a(&options) {
        Ok(rows) => {
            println!("benchmark,pwcet_rm,pwcet_hrp,rm_over_hrp,tightening_percent");
            for row in &rows {
                println!(
                    "{},{:.0},{:.0},{:.4},{:.1}",
                    row.benchmark.label(),
                    row.pwcet_rm,
                    row.pwcet_hrp,
                    row.normalized(),
                    row.tightening() * 100.0
                );
            }
            let summary = fig4::summarize_fig4a(&rows);
            println!(
                "# tightening: mean {:.1}%, max {:.1}%, min {:.1}% (paper: 43% / 62% / 25%)",
                summary.mean_tightening * 100.0,
                summary.max_tightening * 100.0,
                summary.min_tightening * 100.0
            );
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
