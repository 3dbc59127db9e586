//! Hardware-cost scenario: size the hRP and RM placement modules for a range
//! of cache geometries and reproduce the shape of Table 1.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example hardware_cost
//! ```

use randmod::core::CacheGeometry;
use randmod::hwcost::{CellLibrary, FpgaModel, HrpModule, RmModule, Table1Report};

fn main() {
    let library = CellLibrary::generic_45nm();

    println!("Per-module ASIC cost versus cache geometry (45nm-class library):");
    println!(
        "{:<28} {:>6} {:>14} {:>14} {:>10}",
        "cache", "index", "RM area (um2)", "hRP area (um2)", "area ratio"
    );
    for (name, geometry) in [
        ("LEON3 L1 (16KB, 4-way)", CacheGeometry::leon3_l1()),
        (
            "256-set cache (paper sizing)",
            CacheGeometry::eight_index_bits(),
        ),
        (
            "LEON3 L2 partition (128KB)",
            CacheGeometry::leon3_l2_partition(),
        ),
    ] {
        let rm = RmModule::paper_config(geometry.index_bits()).area_delay(&library);
        let hrp = HrpModule::paper_config(geometry.index_bits()).area_delay(&library);
        println!(
            "{:<28} {:>6} {:>14.1} {:>14.1} {:>9.1}x",
            name,
            geometry.index_bits(),
            rm.area_um2,
            hrp.area_um2,
            hrp.area_um2 / rm.area_um2
        );
    }

    println!();
    println!("{}", Table1Report::generate(7, &library));

    println!("FPGA integration (all nine caches of the 4-core prototype):");
    let fpga = FpgaModel::stratix_iv();
    let rm = fpga.integrate_rm(&RmModule::paper_config(7), &library);
    let hrp = fpga.integrate_hrp(&HrpModule::paper_config(7), &library);
    println!("  RM : {rm}");
    println!("  hRP: {hrp}");
}
