//! A toolbox for assembling kernel traces.
//!
//! [`KernelBuilder`] emits the access patterns real control software is made
//! of — straight-line code, loops, strided array sweeps, interpolation-table
//! lookups, pointer chasing, stack frames — into any [`EventSink`]: a boxed
//! [`randmod_sim::Trace`], a packed [`randmod_sim::PackedTrace`] or a
//! constant-memory counting sink.  The EEMBC-like kernels of
//! [`crate::eembc`] and the synthetic kernel of [`crate::synthetic`] are
//! thin compositions of these patterns.
//!
//! All "random" choices inside a kernel (table indices, pointer-chase
//! permutations) are drawn from a [`SplitMix64`] stream seeded per kernel, so
//! a kernel's trace is a pure function of the kernel parameters and the
//! memory layout: the program and its input do not change between the runs
//! of an MBPTA campaign — only the cache placement seed does.

use crate::layout::MemoryLayout;
use randmod_core::prng::SplitMix64;
use randmod_core::Address;
use randmod_sim::trace::EventSink;
use randmod_sim::MemEvent;

/// Word size of the modelled 32-bit target, in bytes.
const WORD: u64 = 4;

/// Builds a kernel's event stream from composable access patterns,
/// emitting into a borrowed [`EventSink`].
///
/// ```
/// use randmod_workloads::{KernelBuilder, MemoryLayout};
/// use randmod_sim::Trace;
///
/// let mut trace = Trace::new();
/// let mut builder = KernelBuilder::new(MemoryLayout::default(), 1, &mut trace);
/// builder.straight_code(8);
/// builder.sequential_loads(0, 256, 4);
/// assert!(trace.len() >= 8 + 64);
/// ```
pub struct KernelBuilder<'a> {
    layout: MemoryLayout,
    sink: &'a mut dyn EventSink,
    /// Current instruction pointer, as an offset into the code region.
    code_cursor: u64,
    rng: SplitMix64,
    emitted: usize,
}

impl<'a> KernelBuilder<'a> {
    /// Creates a builder emitting into `sink` for the given layout;
    /// `kernel_seed` fixes the kernel's internal (input-dependent) choices.
    pub fn new(layout: MemoryLayout, kernel_seed: u64, sink: &'a mut dyn EventSink) -> Self {
        KernelBuilder {
            layout,
            sink,
            code_cursor: 0,
            rng: SplitMix64::new(kernel_seed),
            emitted: 0,
        }
    }

    /// The layout the kernel is being built for.
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.emitted
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.emitted == 0
    }

    fn emit(&mut self, event: MemEvent) {
        self.sink.emit(event);
        self.emitted += 1;
    }

    fn code_addr(&self, offset: u64) -> Address {
        self.layout.code_base.offset(offset)
    }

    fn data_addr(&self, offset: u64) -> Address {
        self.layout.data_base.offset(offset)
    }

    fn stack_addr(&self, offset: u64) -> Address {
        self.layout.stack_base.offset(offset)
    }

    /// Emits `instructions` sequential instruction fetches, advancing the
    /// code cursor (straight-line code).
    pub fn straight_code(&mut self, instructions: u64) {
        for _ in 0..instructions {
            let addr = self.code_addr(self.code_cursor);
            self.emit(MemEvent::InstrFetch(addr));
            self.code_cursor += WORD;
        }
    }

    /// Emits a loop: `iterations` passes over a body of `body_instructions`
    /// sequential instructions starting at the current code cursor, calling
    /// `body` once per iteration to emit the loop's data accesses.
    pub fn loop_with<F>(&mut self, body_instructions: u64, iterations: u64, mut body: F)
    where
        F: FnMut(&mut Self, u64),
    {
        let loop_start = self.code_cursor;
        for iteration in 0..iterations {
            self.code_cursor = loop_start;
            for _ in 0..body_instructions {
                let addr = self.code_addr(self.code_cursor);
                self.emit(MemEvent::InstrFetch(addr));
                self.code_cursor += WORD;
            }
            body(self, iteration);
        }
    }

    /// Emits `count` loads from the data region starting at `offset` with
    /// the given byte `stride`.
    pub fn sequential_loads(&mut self, offset: u64, count: u64, stride: u64) {
        for i in 0..count {
            let addr = self.data_addr(offset + i * stride);
            self.emit(MemEvent::Load(addr));
        }
    }

    /// Emits `count` stores to the data region starting at `offset` with the
    /// given byte `stride`.
    pub fn sequential_stores(&mut self, offset: u64, count: u64, stride: u64) {
        for i in 0..count {
            let addr = self.data_addr(offset + i * stride);
            self.emit(MemEvent::Store(addr));
        }
    }

    /// Emits `lookups` loads at pseudo-random word-aligned positions inside
    /// a table of `table_bytes` bytes located at `table_offset` in the data
    /// region (interpolation-table behaviour).
    pub fn table_lookups(&mut self, table_offset: u64, table_bytes: u64, lookups: u64) {
        let entries = (table_bytes / WORD).max(1);
        for _ in 0..lookups {
            let entry = self.rng.next_u64() % entries;
            let addr = self.data_addr(table_offset + entry * WORD);
            self.emit(MemEvent::Load(addr));
        }
    }

    /// Emits a pointer chase: `steps` dependent loads following a fixed
    /// pseudo-random permutation of `nodes` nodes of `node_bytes` bytes each,
    /// starting at `offset` in the data region.
    pub fn pointer_chase(&mut self, offset: u64, nodes: u64, node_bytes: u64, steps: u64) {
        let nodes = nodes.max(1);
        // Build a fixed traversal order once (the "list layout" is part of
        // the program input, identical across runs).
        let mut order: Vec<u64> = (0..nodes).collect();
        for i in (1..nodes as usize).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for position in 0..steps {
            let node = order[(position % order.len() as u64) as usize];
            let addr = self.data_addr(offset + node * node_bytes);
            self.emit(MemEvent::Load(addr));
        }
    }

    /// Emits a function call's stack activity: `words` stores (spill at
    /// entry) followed by `words` loads (reload at return) within a frame at
    /// the given depth (frames are 64 bytes apart).
    pub fn stack_frame(&mut self, depth: u64, words: u64) {
        let frame = depth * 64;
        for w in 0..words {
            let addr = self.stack_addr(frame + w * WORD);
            self.emit(MemEvent::Store(addr));
        }
        for w in 0..words {
            let addr = self.stack_addr(frame + w * WORD);
            self.emit(MemEvent::Load(addr));
        }
    }

    /// Emits `cycles` of pure computation.
    pub fn compute(&mut self, cycles: u32) {
        if cycles > 0 {
            self.emit(MemEvent::Compute(cycles));
        }
    }

    /// Emits a row-major sweep over a `rows x cols` matrix of 4-byte
    /// elements located at `offset`, loading each element once.
    pub fn matrix_row_major(&mut self, offset: u64, rows: u64, cols: u64) {
        for r in 0..rows {
            for c in 0..cols {
                let addr = self.data_addr(offset + (r * cols + c) * WORD);
                self.emit(MemEvent::Load(addr));
            }
        }
    }

    /// Emits a column-major sweep over a `rows x cols` matrix of 4-byte
    /// elements located at `offset` (the stride pattern that stresses a
    /// cache's placement), storing each element once.
    pub fn matrix_col_major_store(&mut self, offset: u64, rows: u64, cols: u64) {
        for c in 0..cols {
            for r in 0..rows {
                let addr = self.data_addr(offset + (r * cols + c) * WORD);
                self.emit(MemEvent::Store(addr));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randmod_sim::{MemEvent, Trace};

    fn build(f: impl FnOnce(&mut KernelBuilder<'_>)) -> Trace {
        let mut trace = Trace::new();
        let mut b = KernelBuilder::new(MemoryLayout::default(), 42, &mut trace);
        f(&mut b);
        trace
    }

    #[test]
    fn straight_code_emits_sequential_fetches() {
        let trace = build(|b| b.straight_code(4));
        let addrs: Vec<u64> = trace
            .iter()
            .filter_map(|e| e.address())
            .map(|a| a.raw())
            .collect();
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[1] - addrs[0], 4);
        assert_eq!(addrs[3] - addrs[0], 12);
    }

    #[test]
    fn loop_with_refetches_the_body() {
        let trace = build(|b| b.loop_with(3, 5, |b, _| b.compute(1)));
        let stats = trace.stats(32);
        assert_eq!(stats.instr_fetches, 15);
        assert_eq!(stats.compute_cycles, 5);
        // The loop body is only 3 instructions: one cache line of code.
        assert_eq!(stats.unique_instr_lines, 1);
    }

    #[test]
    fn loop_body_receives_iteration_index() {
        let mut seen = Vec::new();
        build(|b| b.loop_with(1, 4, |_, i| seen.push(i)));
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sequential_loads_and_stores_cover_requested_range() {
        let trace = build(|b| {
            b.sequential_loads(0, 16, 32);
            b.sequential_stores(1024, 4, 8);
        });
        let stats = trace.stats(32);
        assert_eq!(stats.loads, 16);
        assert_eq!(stats.stores, 4);
        assert_eq!(stats.unique_data_lines, 16 + 1);
    }

    #[test]
    fn table_lookups_stay_inside_the_table() {
        let table_offset = 4096;
        let table_bytes = 1024;
        let trace = build(|b| b.table_lookups(table_offset, table_bytes, 500));
        for event in &trace {
            if let MemEvent::Load(addr) = event {
                let delta = addr.raw() - MemoryLayout::default().data_base.raw();
                assert!(delta >= table_offset && delta < table_offset + table_bytes);
            }
        }
        assert_eq!(trace.len(), 500);
    }

    #[test]
    fn table_lookups_are_deterministic_per_seed() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        KernelBuilder::new(MemoryLayout::default(), 7, &mut a).table_lookups(0, 2048, 100);
        KernelBuilder::new(MemoryLayout::default(), 7, &mut b).table_lookups(0, 2048, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn pointer_chase_visits_all_nodes_once_per_round() {
        let trace = build(|b| b.pointer_chase(0, 16, 64, 16));
        let unique: std::collections::HashSet<u64> = trace
            .iter()
            .filter_map(|e| e.address())
            .map(|a| a.raw())
            .collect();
        assert_eq!(unique.len(), 16);
    }

    #[test]
    fn stack_frame_stores_then_loads() {
        let trace = build(|b| b.stack_frame(2, 4));
        let stats = trace.stats(32);
        assert_eq!(stats.stores, 4);
        assert_eq!(stats.loads, 4);
        // All eight accesses sit in one 64-byte frame: at most 2 lines.
        assert!(stats.unique_data_lines <= 2);
    }

    #[test]
    fn matrix_sweeps_touch_every_element() {
        let trace = build(|b| {
            b.matrix_row_major(0, 8, 16);
            b.matrix_col_major_store(0, 8, 16);
        });
        let stats = trace.stats(32);
        assert_eq!(stats.loads, 128);
        assert_eq!(stats.stores, 128);
        assert_eq!(stats.data_footprint_bytes(), 8 * 16 * 4);
    }

    #[test]
    fn builder_len_and_layout_accessors() {
        let mut trace = Trace::new();
        let mut b = KernelBuilder::new(MemoryLayout::default(), 42, &mut trace);
        assert!(b.is_empty());
        b.compute(1);
        assert_eq!(b.len(), 1);
        b.compute(0); // dropped: does not count as an emitted event
        assert_eq!(b.len(), 1);
        assert_eq!(b.layout(), MemoryLayout::default());
    }

    #[test]
    fn packed_and_boxed_sinks_receive_identical_streams() {
        let emit = |b: &mut KernelBuilder<'_>| {
            b.straight_code(16);
            b.loop_with(4, 8, |b, i| {
                b.table_lookups(0, 2048, 4);
                b.stack_frame(i % 2, 4);
                b.compute(3);
            });
        };
        let mut boxed = Trace::new();
        emit(&mut KernelBuilder::new(
            MemoryLayout::default(),
            5,
            &mut boxed,
        ));
        let mut packed = randmod_sim::PackedTrace::new();
        emit(&mut KernelBuilder::new(
            MemoryLayout::default(),
            5,
            &mut packed,
        ));
        assert_eq!(packed.to_trace(), boxed);
    }

    #[test]
    fn traces_differ_across_layouts_but_not_across_identical_builders() {
        let make = |layout: MemoryLayout| {
            let mut trace = Trace::new();
            let mut b = KernelBuilder::new(layout, 3, &mut trace);
            b.straight_code(16);
            b.sequential_loads(0, 32, 16);
            trace
        };
        let base = make(MemoryLayout::default());
        let same = make(MemoryLayout::default());
        let moved = make(MemoryLayout::default().with_offsets(64, 128));
        assert_eq!(base, same);
        assert_ne!(base, moved);
        // Moving the program does not change the shape of the trace.
        assert_eq!(base.len(), moved.len());
    }
}
