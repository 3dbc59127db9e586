//! Regenerates Figure 4(b): pWCET estimates of RM normalised to the
//! high-water mark observed on a deterministic (modulo/LRU) platform.

use randmod_experiments::cli::ExperimentOptions;
use randmod_experiments::fig4;

fn main() {
    let options = ExperimentOptions::from_env();
    let layouts = fig4::fig4b_layouts(options.quick);
    println!(
        "# Figure 4(b): RM pWCET at 1e-15 vs deterministic high-water mark ({layouts} layouts)"
    );
    println!(
        "# runs = {}, campaign seed = {:#x}",
        options.runs, options.campaign_seed
    );
    match fig4::fig4b(layouts, &options) {
        Ok(rows) => {
            println!("benchmark,pwcet_rm,deterministic_hwm,rm_over_hwm");
            for row in &rows {
                println!(
                    "{},{:.0},{},{:.4}",
                    row.benchmark.label(),
                    row.pwcet_rm,
                    row.deterministic_hwm.value(),
                    row.normalized()
                );
            }
            let worst = rows
                .iter()
                .map(|r| r.normalized())
                .fold(f64::NEG_INFINITY, f64::max);
            println!(
                "# worst RM pWCET / hwm ratio: {:.3} (paper: at most 1.07, most benchmarks below 1.01)",
                worst
            );
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
