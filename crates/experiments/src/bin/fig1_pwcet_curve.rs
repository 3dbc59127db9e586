//! Regenerates Figure 1: the illustrative pWCET (EVT projection) curve.

use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::fig1;

fn main() {
    let options = ExperimentOptions::from_env();
    println!("# Figure 1: pWCET curve (CCDF, log scale) for the 20KB synthetic kernel under RM");
    if options.adaptive {
        println!(
            "# adaptive campaign, campaign seed = {:#x}",
            options.campaign_seed
        );
    } else {
        println!(
            "# runs = {}, campaign seed = {:#x}",
            options.runs, options.campaign_seed
        );
    }
    match fig1::generate(&options) {
        Ok(result) => {
            println!("exceedance_probability,execution_time_cycles");
            for point in &result.points {
                println!(
                    "{:e},{:.0}",
                    point.exceedance_probability, point.execution_time
                );
            }
            println!(
                "# pWCET at the {:.0e} cutoff: {:.0} cycles over {} runs",
                result.cutoff_probability, result.pwcet_at_cutoff, result.runs
            );
            if let Some(adaptive) = &result.adaptive {
                println!(
                    "# adaptive: {} after {} runs ({} checkpoints), pWCET(1e-12) estimate {:.0} cycles",
                    if adaptive.converged { "converged" } else { "run cap reached" },
                    adaptive.runs_used,
                    adaptive.checkpoints,
                    adaptive.pwcet_estimate
                );
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
