//! Regenerates the shared-L2 contention sweep (beyond the paper): victim
//! pWCET vs opponent pressure for every placement policy at the shared L2.
//!
//! Output: one CSV row per `(L2 placement, pressure level)`, the victim
//! pWCET at 10⁻¹⁵, its mean, and the inflation relative to the idle
//! co-schedule of the same placement.  `--adaptive` grows each campaign
//! until the victim's pWCET estimate converges instead of running a fixed
//! count.

use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::fig6;
use randmod_workloads::Workload;

fn main() {
    let options = ExperimentOptions::from_env();
    println!(
        "# Contention sweep: {} victim, shared L2",
        fig6::victim().name()
    );
    println!(
        "# runs = {}{}, campaign seed = {:#x}",
        options.runs,
        if options.adaptive { " (adaptive)" } else { "" },
        options.campaign_seed
    );
    match fig6::generate(&options) {
        Ok(rows) => {
            println!(
                "l2_placement,pressure,opponents,victim_pwcet,victim_mean,inflation_percent,runs"
            );
            for row in &rows {
                println!(
                    "{},{},{},{:.0},{:.0},{:.3},{}",
                    row.l2_placement.short_name(),
                    row.pressure,
                    row.opponents,
                    row.victim_pwcet,
                    row.victim_mean,
                    row.inflation_percent,
                    row.runs
                );
            }
            for row in &rows {
                if let Some(adaptive) = &row.adaptive {
                    println!(
                        "# adaptive: {} P{} {} after {} runs ({} checkpoints)",
                        row.l2_placement.short_name(),
                        row.pressure,
                        if adaptive.converged {
                            "converged"
                        } else {
                            "hit the run cap"
                        },
                        adaptive.runs_used,
                        adaptive.checkpoints
                    );
                }
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
