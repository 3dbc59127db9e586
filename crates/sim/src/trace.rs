//! Memory-access traces.
//!
//! Workload generators emit the sequence of instruction fetches, loads,
//! stores and compute intervals a program performs.  The same trace is then
//! replayed once per run of the MBPTA campaign (the program and its inputs
//! do not change across runs; only the placement seed, and thus the cache
//! layout, does).
//!
//! Two abstractions decouple generation from replay:
//!
//! * [`EventSink`] — where a generator *writes* events.  Implemented by the
//!   boxed [`Trace`] (`Vec<MemEvent>`, 16 bytes/event) and by the packed
//!   [`crate::packed::PackedTrace`] (8 bytes/event).
//! * [`EventSource`] — where a replay *reads* events.  A source hands out a
//!   fresh iterator per run, which is what lets one shared trace feed the
//!   parallel runs of a [`crate::run::Campaign`] without being cloned.

use randmod_core::Address;
use std::fmt;

/// One event of a program trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEvent {
    /// Fetch of the instruction at the given address (served by the IL1).
    InstrFetch(Address),
    /// Data load from the given address (served by the DL1).
    Load(Address),
    /// Data store to the given address (write-through DL1).
    Store(Address),
    /// `n` cycles of computation with no memory activity.
    Compute(u32),
}

impl MemEvent {
    /// The address this event touches, if any.
    pub fn address(&self) -> Option<Address> {
        match self {
            MemEvent::InstrFetch(a) | MemEvent::Load(a) | MemEvent::Store(a) => Some(*a),
            MemEvent::Compute(_) => None,
        }
    }

    /// Whether this is a data access (load or store).
    pub const fn is_data(&self) -> bool {
        matches!(self, MemEvent::Load(_) | MemEvent::Store(_))
    }
}

/// A consumer of trace events: the write end of the streaming pipeline.
///
/// Workload generators emit into a sink instead of returning a
/// materialised `Vec`, so the same generator code can fill a boxed
/// [`Trace`] or a packed [`crate::packed::PackedTrace`].
pub trait EventSink {
    /// Receives one event.
    fn emit(&mut self, event: MemEvent);

    /// Emits an instruction fetch.
    fn fetch(&mut self, addr: Address) {
        self.emit(MemEvent::InstrFetch(addr));
    }

    /// Emits a data load.
    fn load(&mut self, addr: Address) {
        self.emit(MemEvent::Load(addr));
    }

    /// Emits a data store.
    fn store(&mut self, addr: Address) {
        self.emit(MemEvent::Store(addr));
    }

    /// Emits `cycles` of computation; zero-cycle intervals are dropped.
    fn compute(&mut self, cycles: u32) {
        if cycles > 0 {
            self.emit(MemEvent::Compute(cycles));
        }
    }
}

impl EventSink for Trace {
    fn emit(&mut self, event: MemEvent) {
        self.push(event);
    }
}

impl EventSink for Vec<MemEvent> {
    fn emit(&mut self, event: MemEvent) {
        self.push(event);
    }
}

/// A replayable stream of trace events: the read end of the pipeline.
///
/// A source hands out a *fresh* iterator per call, so one shared trace can
/// feed every parallel run of a campaign without being cloned or
/// re-decoded into a `Vec`.
pub trait EventSource: Sync {
    /// Iterates one full replay of the trace.
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_;

    /// The trace as the packed words of [`crate::packed`], when the source
    /// already stores them (`None` otherwise).  A campaign fingerprint
    /// hashes these words in one pass instead of re-encoding every event;
    /// either way a trace gets the same fingerprint.
    fn packed_words(&self) -> Option<&[u64]> {
        None
    }
}

impl<S: EventSource + ?Sized> EventSource for &S {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        (**self).events()
    }

    fn packed_words(&self) -> Option<&[u64]> {
        (**self).packed_words()
    }
}

impl EventSource for Trace {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        self.iter().copied()
    }
}

impl EventSource for [MemEvent] {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        self.iter().copied()
    }
}

impl EventSource for Vec<MemEvent> {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        self.iter().copied()
    }
}

/// A program's memory-access trace.
///
/// ```
/// use randmod_sim::trace::{MemEvent, Trace};
/// use randmod_core::Address;
///
/// let mut trace = Trace::new();
/// trace.push(MemEvent::InstrFetch(Address::new(0x1000)));
/// trace.push(MemEvent::Load(Address::new(0x2000)));
/// assert_eq!(trace.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<MemEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            events: Vec::with_capacity(n),
        }
    }

    /// Appends one event.
    pub fn push(&mut self, event: MemEvent) {
        self.events.push(event);
    }

    /// Appends an instruction fetch.
    pub fn fetch(&mut self, addr: Address) {
        self.push(MemEvent::InstrFetch(addr));
    }

    /// Appends a load.
    pub fn load(&mut self, addr: Address) {
        self.push(MemEvent::Load(addr));
    }

    /// Appends a store.
    pub fn store(&mut self, addr: Address) {
        self.push(MemEvent::Store(addr));
    }

    /// Appends `cycles` of computation.
    pub fn compute(&mut self, cycles: u32) {
        if cycles > 0 {
            self.push(MemEvent::Compute(cycles));
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, MemEvent> {
        self.events.iter()
    }

    /// The events as a slice.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Returns a copy of the trace with every address shifted by
    /// `code_offset` (instruction fetches) or `data_offset` (loads and
    /// stores).  Used by the deterministic-placement memory-layout sweeps.
    pub fn with_offsets(&self, code_offset: u64, data_offset: u64) -> Trace {
        let events = self
            .events
            .iter()
            .map(|e| match *e {
                MemEvent::InstrFetch(a) => MemEvent::InstrFetch(a.offset(code_offset)),
                MemEvent::Load(a) => MemEvent::Load(a.offset(data_offset)),
                MemEvent::Store(a) => MemEvent::Store(a.offset(data_offset)),
                MemEvent::Compute(c) => MemEvent::Compute(c),
            })
            .collect();
        Trace { events }
    }

    /// Computes summary statistics for a given cache-line size.
    pub fn stats(&self, line_size: u32) -> TraceStats {
        TraceStats::from_events(self.iter().copied(), line_size)
    }
}

impl Extend<MemEvent> for Trace {
    fn extend<T: IntoIterator<Item = MemEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl FromIterator<MemEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = MemEvent>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = MemEvent;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, MemEvent>>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter().copied()
    }
}

impl IntoIterator for Trace {
    type Item = MemEvent;
    type IntoIter = std::vec::IntoIter<MemEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Number of instruction fetches.
    pub instr_fetches: u64,
    /// Number of loads.
    pub loads: u64,
    /// Number of stores.
    pub stores: u64,
    /// Total explicit compute cycles.
    pub compute_cycles: u64,
    /// Distinct instruction cache lines touched.
    pub unique_instr_lines: u64,
    /// Distinct data cache lines touched.
    pub unique_data_lines: u64,
    /// Line size the footprint was computed for.
    pub line_size: u32,
}

impl TraceStats {
    /// Computes the statistics of any event stream for a given cache-line
    /// size, in one streaming pass.
    pub fn from_events<I>(events: I, line_size: u32) -> TraceStats
    where
        I: IntoIterator<Item = MemEvent>,
    {
        // Footprints are *cardinalities*: collect the touched lines and
        // count distinct values by sorting.  A hash set would be faster
        // asymptotically but iterates in unspecified order (rule D2);
        // sorted counting keeps every intermediate deterministic and is
        // plenty for a pass that runs once per trace, not once per run.
        let shift = line_size.trailing_zeros();
        let mut instr_lines = Vec::new();
        let mut data_lines = Vec::new();
        let mut stats = TraceStats {
            line_size,
            ..TraceStats::default()
        };
        for event in events {
            match event {
                MemEvent::InstrFetch(a) => {
                    stats.instr_fetches += 1;
                    instr_lines.push(a.raw() >> shift);
                }
                MemEvent::Load(a) => {
                    stats.loads += 1;
                    data_lines.push(a.raw() >> shift);
                }
                MemEvent::Store(a) => {
                    stats.stores += 1;
                    data_lines.push(a.raw() >> shift);
                }
                MemEvent::Compute(c) => stats.compute_cycles += c as u64,
            }
        }
        stats.unique_instr_lines = count_distinct(&mut instr_lines);
        stats.unique_data_lines = count_distinct(&mut data_lines);
        stats
    }

    /// Total number of memory accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.instr_fetches + self.loads + self.stores
    }

    /// Data footprint in bytes (unique data lines times line size).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.unique_data_lines * self.line_size as u64
    }

    /// Code footprint in bytes (unique instruction lines times line size).
    pub fn code_footprint_bytes(&self) -> u64 {
        self.unique_instr_lines * self.line_size as u64
    }
}

/// Counts distinct values by sorting in place — the deterministic
/// replacement for hash-set cardinality (see rule D2 in DESIGN.md).
fn count_distinct(values: &mut Vec<u64>) -> u64 {
    values.sort_unstable();
    values.dedup();
    values.len() as u64
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fetches, {} loads, {} stores; code {} B, data {} B",
            self.instr_fetches,
            self.loads,
            self.stores,
            self.code_footprint_bytes(),
            self.data_footprint_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.fetch(Address::new(0x1000));
        t.fetch(Address::new(0x1004));
        t.load(Address::new(0x8000));
        t.store(Address::new(0x8020));
        t.compute(3);
        t
    }

    #[test]
    fn push_helpers_record_expected_events() {
        let t = sample_trace();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.events()[0], MemEvent::InstrFetch(Address::new(0x1000)));
        assert_eq!(t.events()[3], MemEvent::Store(Address::new(0x8020)));
        assert_eq!(t.events()[4], MemEvent::Compute(3));
    }

    #[test]
    fn compute_zero_is_dropped() {
        let mut t = Trace::new();
        t.compute(0);
        assert!(t.is_empty());
    }

    #[test]
    fn stats_count_events_and_footprints() {
        let t = sample_trace();
        let s = t.stats(32);
        assert_eq!(s.instr_fetches, 2);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.compute_cycles, 3);
        // 0x1000 and 0x1004 share a line; 0x8000 and 0x8020 do not.
        assert_eq!(s.unique_instr_lines, 1);
        assert_eq!(s.unique_data_lines, 2);
        assert_eq!(s.memory_accesses(), 4);
        assert_eq!(s.data_footprint_bytes(), 64);
        assert_eq!(s.code_footprint_bytes(), 32);
        assert!(s.to_string().contains("2 fetches"));
    }

    #[test]
    fn with_offsets_shifts_code_and_data_independently() {
        let t = sample_trace();
        let shifted = t.with_offsets(0x100, 0x40);
        assert_eq!(
            shifted.events()[0],
            MemEvent::InstrFetch(Address::new(0x1100))
        );
        assert_eq!(shifted.events()[2], MemEvent::Load(Address::new(0x8040)));
        assert_eq!(shifted.events()[4], MemEvent::Compute(3));
        assert_eq!(shifted.len(), t.len());
    }

    #[test]
    fn event_address_and_is_data() {
        assert_eq!(
            MemEvent::Load(Address::new(4)).address(),
            Some(Address::new(4))
        );
        assert_eq!(MemEvent::Compute(2).address(), None);
        assert!(MemEvent::Store(Address::new(0)).is_data());
        assert!(!MemEvent::InstrFetch(Address::new(0)).is_data());
        assert!(!MemEvent::Compute(1).is_data());
    }

    #[test]
    fn trace_collect_and_extend() {
        let events = [MemEvent::Load(Address::new(0)), MemEvent::Compute(1)];
        let mut t: Trace = events.iter().copied().collect();
        assert_eq!(t.len(), 2);
        t.extend([MemEvent::Store(Address::new(32))]);
        assert_eq!(t.len(), 3);
        let collected: Vec<MemEvent> = (&t).into_iter().collect();
        assert_eq!(collected.len(), 3);
        let owned: Vec<MemEvent> = t.into_iter().collect();
        assert_eq!(owned.len(), 3);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let t = Trace::with_capacity(100);
        assert!(t.is_empty());
    }
}
