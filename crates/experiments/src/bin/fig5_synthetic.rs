//! Regenerates Figure 5: execution-time PDFs and pWCET curves for the
//! synthetic kernel, plus the 8KB/20KB/160KB footprint sweep (`--sweep`)
//! and the extended large-footprint scenario (`--large`): the 1MB and 4MB
//! synthetic sweeps and the L2-sized EEMBC-like stress kernel that the
//! packed streaming trace pipeline makes practical.

use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::fig5;

fn main() {
    let options = ExperimentOptions::from_env();
    let sweep = std::env::args().any(|a| a == "--sweep");
    let large = std::env::args().any(|a| a == "--large");
    println!("# Figure 5: synthetic kernel, RM vs hRP");
    println!(
        "# runs = {}, campaign seed = {:#x}",
        options.runs, options.campaign_seed
    );

    let results = if large {
        fig5::large_footprint_sweep(&options)
    } else if sweep {
        fig5::footprint_sweep(&options)
    } else {
        fig5::generate(&options).map(|r| vec![r])
    };

    match results {
        Ok(results) => {
            for result in &results {
                println!("{result}");
                println!("## Figure 5(a): RM execution-time histogram");
                println!("{}", result.rm_histogram);
                println!("## Figure 5(b): hRP execution-time histogram");
                println!("{}", result.hrp_histogram);
                println!("## Figure 5(c): pWCET curves (probability, RM bound, hRP bound)");
                for (rm_point, hrp_point) in result.rm_curve.iter().zip(&result.hrp_curve) {
                    println!("{:e},{:.0},{:.0}", rm_point.0, rm_point.1, hrp_point.1);
                }
                println!();
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }

    if large {
        println!("## L2-sized EEMBC-like stress kernel");
        match fig5::l2_stress(&options) {
            Ok(stress) => println!("{stress}"),
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(1);
            }
        }
    }
}
