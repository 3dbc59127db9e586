//! EEMBC-AutoBench-like kernels.
//!
//! The paper's Table 2 and Figure 4 evaluate eleven EEMBC Automotive
//! benchmarks, identified by their initials: A2 (a2time), BA (basefp),
//! BI (bitmnp), CB (cacheb), CN (canrdr), MA (matrix), PN (pntrch),
//! PU (puwmod), RS (rspeed), TB (tblook) and TT (ttsprk).  The EEMBC sources
//! are proprietary, so each kernel here is a generator that reproduces the
//! benchmark's characteristic *access-pattern structure* — loop and code
//! sizes, data footprints, interpolation-table lookups, pointer chasing,
//! stack traffic — rather than its arithmetic.  The placement policies only
//! observe the address stream, which is what these generators model; see
//! DESIGN.md for the substitution rationale.

use crate::builder::KernelBuilder;
use crate::layout::MemoryLayout;
use crate::Workload;
use randmod_sim::trace::EventSink;
use std::fmt;
use std::str::FromStr;

/// One of the eleven EEMBC-AutoBench-like kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum EembcBenchmark {
    A2time,
    Basefp,
    Bitmnp,
    Cacheb,
    Canrdr,
    Matrix,
    Pntrch,
    Puwmod,
    Rspeed,
    Tblook,
    Ttsprk,
}

impl EembcBenchmark {
    /// All benchmarks, in the order of Table 2.
    pub const ALL: [EembcBenchmark; 11] = [
        EembcBenchmark::A2time,
        EembcBenchmark::Basefp,
        EembcBenchmark::Bitmnp,
        EembcBenchmark::Cacheb,
        EembcBenchmark::Canrdr,
        EembcBenchmark::Matrix,
        EembcBenchmark::Pntrch,
        EembcBenchmark::Puwmod,
        EembcBenchmark::Rspeed,
        EembcBenchmark::Tblook,
        EembcBenchmark::Ttsprk,
    ];

    /// The two-letter identifier used in Table 2 of the paper.
    pub const fn initials(self) -> &'static str {
        match self {
            EembcBenchmark::A2time => "A2",
            EembcBenchmark::Basefp => "BA",
            EembcBenchmark::Bitmnp => "BI",
            EembcBenchmark::Cacheb => "CB",
            EembcBenchmark::Canrdr => "CN",
            EembcBenchmark::Matrix => "MA",
            EembcBenchmark::Pntrch => "PN",
            EembcBenchmark::Puwmod => "PU",
            EembcBenchmark::Rspeed => "RS",
            EembcBenchmark::Tblook => "TB",
            EembcBenchmark::Ttsprk => "TT",
        }
    }

    /// The lowercase benchmark name.
    pub const fn label(self) -> &'static str {
        match self {
            EembcBenchmark::A2time => "a2time",
            EembcBenchmark::Basefp => "basefp",
            EembcBenchmark::Bitmnp => "bitmnp",
            EembcBenchmark::Cacheb => "cacheb",
            EembcBenchmark::Canrdr => "canrdr",
            EembcBenchmark::Matrix => "matrix",
            EembcBenchmark::Pntrch => "pntrch",
            EembcBenchmark::Puwmod => "puwmod",
            EembcBenchmark::Rspeed => "rspeed",
            EembcBenchmark::Tblook => "tblook",
            EembcBenchmark::Ttsprk => "ttsprk",
        }
    }

    /// A fixed per-benchmark seed for the kernel's internal (input-derived)
    /// choices, so every benchmark's trace is reproducible.
    const fn kernel_seed(self) -> u64 {
        match self {
            EembcBenchmark::A2time => 0xA2,
            EembcBenchmark::Basefp => 0xBA,
            EembcBenchmark::Bitmnp => 0xB1,
            EembcBenchmark::Cacheb => 0xCB,
            EembcBenchmark::Canrdr => 0xC4,
            EembcBenchmark::Matrix => 0x3A,
            EembcBenchmark::Pntrch => 0x94,
            EembcBenchmark::Puwmod => 0x90,
            EembcBenchmark::Rspeed => 0x55,
            EembcBenchmark::Tblook => 0x7B,
            EembcBenchmark::Ttsprk => 0x77,
        }
    }
}

impl fmt::Display for EembcBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for EembcBenchmark {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        EembcBenchmark::ALL
            .into_iter()
            .find(|b| b.label() == lower || b.initials().to_ascii_lowercase() == lower)
            .ok_or_else(|| format!("unknown EEMBC benchmark '{s}'"))
    }
}

impl Workload for EembcBenchmark {
    fn name(&self) -> String {
        self.label().to_string()
    }

    fn emit(&self, layout: &MemoryLayout, sink: &mut dyn EventSink) {
        let mut b = KernelBuilder::new(*layout, self.kernel_seed(), sink);
        match self {
            // Angle-to-time conversion: a large control loop (the EEMBC
            // kernel plus its test harness) reading sensor variables,
            // consulting a calibration table and spilling to the stack.
            EembcBenchmark::A2time => {
                b.straight_code(512); // init / setup code
                b.loop_with(1700, 130, |b, i| {
                    b.sequential_loads(0, 16, 4); // sensor variables
                    b.table_lookups(1024, 3 * 1024, 6); // calibration table
                    b.stack_frame(1, 8);
                    b.sequential_stores(256, 6, 4);
                    b.compute(20 + (i % 5) as u32);
                });
            }
            // Basic integer/floating arithmetic over a 16KB rotating window.
            EembcBenchmark::Basefp => {
                b.straight_code(384);
                b.loop_with(2200, 90, |b, i| {
                    b.sequential_loads((i % 4) * 4 * 1024, 128, 32); // 4KB window per pass
                    b.sequential_stores(17 * 1024, 12, 8);
                    b.compute(40);
                });
            }
            // Bit manipulation: small data, heavy compute, mid-sized loop.
            EembcBenchmark::Bitmnp => {
                b.straight_code(256);
                b.loop_with(1300, 150, |b, i| {
                    b.sequential_loads(0, 24, 4); // small working buffer
                    b.sequential_stores(512, 6, 4);
                    b.compute(60 + (i % 3) as u32);
                });
            }
            // Cache buster: line-stride sweeps over a 20KB buffer, larger
            // than the L1.
            EembcBenchmark::Cacheb => {
                b.straight_code(320);
                b.loop_with(900, 100, |b, i| {
                    let window = (i % 4) * 5 * 1024;
                    b.sequential_loads(window, 160, 32); // 5KB window, line stride
                    b.sequential_stores(window + 256, 32, 32);
                    b.compute(10);
                });
            }
            // CAN remote data request handling: message buffers plus a
            // routing table and per-message stack activity.
            EembcBenchmark::Canrdr => {
                b.straight_code(448);
                b.loop_with(1500, 120, |b, i| {
                    let message = (i % 16) * 256;
                    b.sequential_loads(message, 24, 8); // message payload
                    b.table_lookups(6 * 1024, 3 * 1024, 8); // routing table
                    b.sequential_stores(10 * 1024 + message, 10, 8);
                    b.stack_frame(2, 8);
                    b.compute(18);
                });
            }
            // Matrix arithmetic: row-major reads and column-major writes of
            // a matrix that does not fit in a single L1 way.
            EembcBenchmark::Matrix => {
                b.straight_code(400);
                b.loop_with(320, 16, |b, _| {
                    // Row-major pass over a 48x64 (12KB) operand matrix: the
                    // inner loop body is refetched per row, as compiled
                    // matrix code does.
                    b.loop_with(60, 48, |b, row| {
                        b.sequential_loads(row * 64 * 4, 64, 4);
                    });
                    // Column-major store pass over a 24x32 (3KB) result.
                    b.loop_with(40, 32, |b, col| {
                        for row in 0..24 {
                            b.sequential_stores(14 * 1024 + (row * 32 + col) * 4, 1, 4);
                        }
                    });
                    b.compute(30);
                });
            }
            // Pointer chasing over a linked structure of ~14KB.
            EembcBenchmark::Pntrch => {
                b.straight_code(288);
                b.loop_with(1100, 110, |b, _| {
                    b.pointer_chase(0, 224, 64, 96); // 224 nodes x 64B = 14KB
                    b.sequential_stores(15 * 1024, 2, 4); // search result
                    b.compute(12);
                });
            }
            // Pulse-width modulation: small data, periodic table consults.
            EembcBenchmark::Puwmod => {
                b.straight_code(224);
                b.loop_with(1400, 140, |b, i| {
                    b.sequential_loads(0, 12, 4);
                    b.table_lookups(512, 1024, 4);
                    b.sequential_stores(2048, 4, 4);
                    b.compute(16 + (i % 2) as u32);
                });
            }
            // Road-speed calculation: the smallest data footprint of the
            // suite.
            EembcBenchmark::Rspeed => {
                b.straight_code(192);
                b.loop_with(1200, 130, |b, _| {
                    b.sequential_loads(0, 10, 4);
                    b.sequential_stores(256, 3, 4);
                    b.compute(14);
                });
            }
            // Table lookup and interpolation over an 8KB table.
            EembcBenchmark::Tblook => {
                b.straight_code(352);
                b.loop_with(1600, 110, |b, _| {
                    b.table_lookups(0, 8 * 1024, 16);
                    b.sequential_loads(9 * 1024, 8, 4);
                    b.sequential_stores(9 * 1024 + 512, 3, 4);
                    b.compute(22);
                });
            }
            // Tooth-to-spark: engine control mixing table lookups with
            // moderate sequential buffers and deep call chains.
            EembcBenchmark::Ttsprk => {
                b.straight_code(480);
                b.loop_with(2000, 100, |b, i| {
                    b.table_lookups(0, 3 * 1024, 10);
                    b.table_lookups(4 * 1024, 2 * 1024, 6);
                    b.sequential_loads(7 * 1024 + (i % 8) * 512, 40, 8);
                    b.stack_frame(3, 12);
                    b.sequential_stores(12 * 1024, 8, 8);
                    b.compute(26);
                });
            }
        }
    }
}

/// An L2-partition-sized stress variant of the EEMBC cacheb access pattern:
/// windowed line-stride sweeps, whole-buffer table lookups and stack
/// traffic over a data buffer sized to the 128KB L2 partition — the
/// footprint regime the eleven Table-2 kernels (all L1-scale) never reach.
///
/// ```
/// use randmod_workloads::{EembcStress, MemoryLayout, Workload};
///
/// let stress = EembcStress::l2_sized();
/// let stats = stress.trace(&MemoryLayout::default()).stats(32);
/// assert!(stats.data_footprint_bytes() >= 128 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EembcStress {
    data_bytes: u64,
    passes: u64,
}

impl EembcStress {
    /// Size of one sweep window in bytes (a cache way of the L1).
    const WINDOW_BYTES: u64 = 4096;

    /// The L2-partition-sized variant: a 128KB buffer, enough passes to
    /// sweep it end to end twice.
    pub fn l2_sized() -> Self {
        Self::with_passes(128 * 1024, 64)
    }

    /// Creates a stress kernel over a `data_bytes` buffer with an explicit
    /// pass count.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is smaller than one 4KB sweep window or the
    /// pass count is zero.
    pub fn with_passes(data_bytes: u64, passes: u64) -> Self {
        assert!(
            data_bytes >= Self::WINDOW_BYTES,
            "the stress buffer must cover at least one 4KB window"
        );
        assert!(passes > 0, "the stress kernel must make at least one pass");
        EembcStress { data_bytes, passes }
    }

    /// The data buffer size in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The number of passes over the buffer.
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

impl fmt::Display for EembcStress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EEMBC-like stress kernel: {}KB buffer, {} passes",
            self.data_bytes / 1024,
            self.passes
        )
    }
}

impl Workload for EembcStress {
    fn name(&self) -> String {
        format!("eembc-stress-{}kb", self.data_bytes / 1024)
    }

    fn emit(&self, layout: &MemoryLayout, sink: &mut dyn EventSink) {
        let mut b = KernelBuilder::new(*layout, 0xCB00 ^ self.data_bytes, sink);
        let windows = self.data_bytes / Self::WINDOW_BYTES;
        let lines_per_window = Self::WINDOW_BYTES / 32;
        b.straight_code(384);
        b.loop_with(900, self.passes, |b, i| {
            let window = (i % windows) * Self::WINDOW_BYTES;
            b.sequential_loads(window, lines_per_window, 32); // line-stride sweep
            b.table_lookups(0, self.data_bytes, 8); // whole-buffer lookups
            b.sequential_stores(window + 16, 16, 32);
            b.stack_frame(1 + i % 3, 8);
            b.compute(12);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_produce_nonempty_reproducible_traces() {
        let layout = MemoryLayout::default();
        for benchmark in EembcBenchmark::ALL {
            let a = benchmark.trace(&layout);
            let b = benchmark.trace(&layout);
            assert!(!a.is_empty(), "{benchmark} produced an empty trace");
            assert_eq!(a, b, "{benchmark} trace is not reproducible");
        }
    }

    #[test]
    fn initials_match_table_2() {
        let initials: Vec<&str> = EembcBenchmark::ALL.iter().map(|b| b.initials()).collect();
        assert_eq!(
            initials,
            vec!["A2", "BA", "BI", "CB", "CN", "MA", "PN", "PU", "RS", "TB", "TT"]
        );
    }

    #[test]
    fn labels_are_unique_and_parseable() {
        for benchmark in EembcBenchmark::ALL {
            assert_eq!(
                benchmark.label().parse::<EembcBenchmark>().unwrap(),
                benchmark
            );
            assert_eq!(
                benchmark.initials().parse::<EembcBenchmark>().unwrap(),
                benchmark
            );
            assert_eq!(benchmark.to_string(), benchmark.label());
            assert_eq!(benchmark.name(), benchmark.label());
        }
        assert!("doesnotexist".parse::<EembcBenchmark>().is_err());
    }

    #[test]
    fn benchmarks_have_distinct_footprints() {
        let layout = MemoryLayout::default();
        let footprints: Vec<u64> = EembcBenchmark::ALL
            .iter()
            .map(|b| b.trace(&layout).stats(32).data_footprint_bytes())
            .collect();
        // The suite must span from small (< 2KB) to L1-stressing (> 8KB)
        // footprints so the placement comparison has both regimes.
        assert!(footprints.iter().any(|&f| f < 2 * 1024), "{footprints:?}");
        assert!(footprints.iter().any(|&f| f > 8 * 1024), "{footprints:?}");
    }

    #[test]
    fn traces_have_realistic_instruction_data_mix() {
        let layout = MemoryLayout::default();
        for benchmark in EembcBenchmark::ALL {
            let stats = benchmark.trace(&layout).stats(32);
            assert!(
                stats.instr_fetches > stats.loads + stats.stores,
                "{benchmark}: control code should fetch more instructions than data accesses"
            );
            assert!(stats.loads > 0 && stats.stores > 0, "{benchmark}");
        }
    }

    #[test]
    fn trace_sizes_are_within_simulation_budget() {
        let layout = MemoryLayout::default();
        for benchmark in EembcBenchmark::ALL {
            let len = benchmark.trace(&layout).len();
            assert!(
                (10_000..400_000).contains(&len),
                "{benchmark} trace has {len} events"
            );
        }
    }

    #[test]
    fn moving_the_program_preserves_the_trace_shape() {
        let base = EembcBenchmark::Tblook.trace(&MemoryLayout::default());
        let moved = EembcBenchmark::Tblook.trace(&MemoryLayout::default().with_offsets(4096, 8192));
        assert_eq!(base.len(), moved.len());
        assert_ne!(base, moved);
        assert_eq!(
            base.stats(32).memory_accesses(),
            moved.stats(32).memory_accesses()
        );
    }

    #[test]
    fn stress_variant_reaches_the_l2_partition_footprint() {
        let stress = EembcStress::l2_sized();
        let stats = stress.trace(&MemoryLayout::default()).stats(32);
        assert!(
            stats.data_footprint_bytes() >= 128 * 1024,
            "stress footprint {} below the 128KB L2 partition",
            stats.data_footprint_bytes()
        );
        assert!(stats.instr_fetches > 0 && stats.stores > 0);
        assert_eq!(stress.name(), "eembc-stress-128kb");
        assert!(stress.to_string().contains("128KB buffer"));
        assert_eq!(stress.data_bytes(), 128 * 1024);
        assert_eq!(stress.passes(), 64);
    }

    #[test]
    fn stress_variant_streams_identically_into_packed_and_boxed_sinks() {
        let stress = EembcStress::with_passes(8 * 1024, 6);
        let layout = MemoryLayout::default();
        assert_eq!(
            stress.packed_trace(&layout).to_trace(),
            stress.trace(&layout)
        );
    }

    #[test]
    #[should_panic(expected = "at least one 4KB window")]
    fn tiny_stress_buffer_panics() {
        EembcStress::with_passes(1024, 4);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_stress_passes_panics() {
        EembcStress::with_passes(8 * 1024, 0);
    }

    #[test]
    fn cacheb_stresses_more_data_than_rspeed() {
        let layout = MemoryLayout::default();
        let cacheb = EembcBenchmark::Cacheb.trace(&layout).stats(32);
        let rspeed = EembcBenchmark::Rspeed.trace(&layout).stats(32);
        assert!(cacheb.data_footprint_bytes() > 4 * rspeed.data_footprint_bytes());
    }
}
