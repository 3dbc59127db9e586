//! The synthetic vector-traversal kernel of Figure 5.
//!
//! To isolate the effect of the data footprint on the placement policies,
//! the paper uses a kernel that traverses a vector 50 times, with the
//! footprint chosen to (i) fit in the L1 (8KB), (ii) exceed the L1 but fit
//! in the L2 partition (20KB), and (iii) exceed both (160KB).
//! [`SyntheticKernel`] reproduces that kernel; the traversal issues one load
//! per cache line, which produces the same miss behaviour as a word-by-word
//! sweep at a fraction of the trace length.

use crate::builder::KernelBuilder;
use crate::layout::MemoryLayout;
use crate::Workload;
use randmod_sim::trace::EventSink;
use std::fmt;

/// The synthetic vector-traversal kernel.
///
/// ```
/// use randmod_workloads::{MemoryLayout, SyntheticKernel, Workload};
///
/// let kernel = SyntheticKernel::fits_l1();
/// let trace = kernel.trace(&MemoryLayout::default());
/// assert_eq!(trace.stats(32).data_footprint_bytes(), 8 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyntheticKernel {
    footprint_bytes: u64,
    traversals: u32,
}

impl SyntheticKernel {
    /// Number of vector traversals used in the paper.
    pub const PAPER_TRAVERSALS: u32 = 50;

    /// Creates a kernel with the given data footprint and the paper's 50
    /// traversals.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one cache line (32 bytes).
    pub fn new(footprint_bytes: u64) -> Self {
        Self::with_traversals(footprint_bytes, Self::PAPER_TRAVERSALS)
    }

    /// Creates a kernel with an explicit traversal count.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one cache line or the
    /// traversal count is zero.
    pub fn with_traversals(footprint_bytes: u64, traversals: u32) -> Self {
        assert!(
            footprint_bytes >= 32,
            "footprint must cover at least one cache line"
        );
        assert!(
            traversals > 0,
            "the kernel must traverse the vector at least once"
        );
        SyntheticKernel {
            footprint_bytes,
            traversals,
        }
    }

    /// The 8KB variant: fits in the 16KB L1.
    pub fn fits_l1() -> Self {
        Self::new(8 * 1024)
    }

    /// The 20KB variant: exceeds the L1, fits in the 128KB L2 partition.
    pub fn fits_l2() -> Self {
        Self::new(20 * 1024)
    }

    /// The 160KB variant: exceeds the L2 partition.
    pub fn exceeds_l2() -> Self {
        Self::new(160 * 1024)
    }

    /// The 1MB variant: 8x the L2 partition, beyond the paper's largest
    /// footprint.
    pub fn one_megabyte() -> Self {
        Self::new(1024 * 1024)
    }

    /// The 4MB variant: 32x the L2 partition, the largest footprint of the
    /// extended sweep.
    pub fn four_megabytes() -> Self {
        Self::new(4 * 1024 * 1024)
    }

    /// The three footprints evaluated in the paper, in increasing order.
    pub fn paper_variants() -> [SyntheticKernel; 3] {
        [Self::fits_l1(), Self::fits_l2(), Self::exceeds_l2()]
    }

    /// The multi-MB footprints of the extended sweep (1MB, 4MB), which the
    /// materialised `Vec<MemEvent>` representation made impractical to
    /// replay at campaign scale.
    pub fn large_variants() -> [SyntheticKernel; 2] {
        [Self::one_megabyte(), Self::four_megabytes()]
    }

    /// The data footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// The number of traversals.
    pub fn traversals(&self) -> u32 {
        self.traversals
    }
}

impl fmt::Display for SyntheticKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "synthetic kernel: {}KB footprint, {} traversals",
            self.footprint_bytes / 1024,
            self.traversals
        )
    }
}

impl Workload for SyntheticKernel {
    fn name(&self) -> String {
        format!("synthetic-{}kb", self.footprint_bytes / 1024)
    }

    fn emit(&self, layout: &MemoryLayout, sink: &mut dyn EventSink) {
        let mut b = KernelBuilder::new(*layout, 0x5EED ^ self.footprint_bytes, sink);
        let lines = self.footprint_bytes / 32;
        b.straight_code(64); // setup
        b.loop_with(24, self.traversals as u64, |b, _| {
            b.sequential_loads(0, lines, 32);
            b.compute(8);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variants_have_expected_footprints() {
        let [small, medium, large] = SyntheticKernel::paper_variants();
        assert_eq!(small.footprint_bytes(), 8 * 1024);
        assert_eq!(medium.footprint_bytes(), 20 * 1024);
        assert_eq!(large.footprint_bytes(), 160 * 1024);
        for kernel in [small, medium, large] {
            assert_eq!(kernel.traversals(), 50);
        }
    }

    #[test]
    fn trace_footprint_matches_configuration() {
        let layout = MemoryLayout::default();
        for kernel in SyntheticKernel::paper_variants() {
            let stats = kernel.trace(&layout).stats(32);
            assert_eq!(stats.data_footprint_bytes(), kernel.footprint_bytes());
            // 50 traversals, one load per line per traversal.
            assert_eq!(
                stats.loads,
                (kernel.footprint_bytes() / 32) * kernel.traversals() as u64
            );
        }
    }

    #[test]
    fn custom_traversal_count_is_respected() {
        let kernel = SyntheticKernel::with_traversals(4 * 1024, 3);
        let stats = kernel.trace(&MemoryLayout::default()).stats(32);
        assert_eq!(stats.loads, (4 * 1024 / 32) * 3);
    }

    #[test]
    fn name_and_display_include_footprint() {
        let kernel = SyntheticKernel::fits_l2();
        assert_eq!(kernel.name(), "synthetic-20kb");
        assert_eq!(
            kernel.to_string(),
            "synthetic kernel: 20KB footprint, 50 traversals"
        );
    }

    #[test]
    #[should_panic(expected = "at least one cache line")]
    fn tiny_footprint_panics() {
        SyntheticKernel::new(16);
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_traversals_panics() {
        SyntheticKernel::with_traversals(1024, 0);
    }

    #[test]
    fn traces_are_reproducible() {
        let layout = MemoryLayout::default();
        let kernel = SyntheticKernel::fits_l1();
        assert_eq!(kernel.trace(&layout), kernel.trace(&layout));
    }

    #[test]
    fn large_variants_have_multi_mb_footprints() {
        let [one_mb, four_mb] = SyntheticKernel::large_variants();
        assert_eq!(one_mb.footprint_bytes(), 1024 * 1024);
        assert_eq!(four_mb.footprint_bytes(), 4 * 1024 * 1024);
        // One traversal suffices to verify the footprint without building
        // a 50-traversal multi-MB trace in a unit test.
        let stats = SyntheticKernel::with_traversals(1024 * 1024, 1)
            .packed_trace(&MemoryLayout::default())
            .stats(32);
        assert_eq!(stats.data_footprint_bytes(), 1024 * 1024);
    }

    #[test]
    fn packed_emission_matches_boxed_emission() {
        let kernel = SyntheticKernel::with_traversals(8 * 1024, 2);
        let layout = MemoryLayout::default();
        let packed = kernel.packed_trace(&layout);
        assert_eq!(packed.to_trace(), kernel.trace(&layout));
        // 8 bytes per event, half the boxed representation.
        assert!(packed.heap_bytes() >= packed.len() * 8);
    }
}
