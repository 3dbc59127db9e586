//! Packed trace representation: one 8-byte word per event.
//!
//! A [`crate::trace::Trace`] stores `Vec<MemEvent>`, and the enum layout of
//! [`MemEvent`] costs 16 bytes per event (discriminant + padding + payload).
//! Replay campaigns stream the same trace hundreds of times, so the trace
//! representation sits on the memory-bandwidth hot path of every
//! experiment.  [`PackedTrace`] halves it: each event is a single `u64`
//! with a 2-bit kind tag in the low bits and the payload above —
//!
//! ```text
//! 63                                            2 1 0
//! +----------------------------------------------+---+
//! |                payload (62 bits)             |tag|
//! +----------------------------------------------+---+
//! ```
//!
//! The payload is the raw byte address for fetches, loads and stores (the
//! generators emit word-aligned addresses, so the two bits the tag occupies
//! are recovered by shifting rather than masking — unaligned addresses
//! round-trip too) and the cycle count for compute intervals.  Decoding is
//! a shift and a 4-way match, done on the fly by [`PackedEvents`]; no
//! intermediate `Vec<MemEvent>` is ever materialised during replay.
//!
//! The stored words are also what identifies a trace: a campaign
//! fingerprint hashes them in place through
//! [`EventSource::packed_words`], with the word-parallel
//! [`crate::checkpoint::Fingerprint`], and [`PackedTrace::to_bytes`] writes
//! them in a file format (magic `RMTRACE2`) checksummed by the same hash.

use crate::checkpoint::{checksum, magic_mismatch};
use crate::trace::{EventSink, EventSource, MemEvent, Trace};
use crate::wire::le_u64;
use randmod_core::Address;
use std::fmt;

/// Kind tag of an instruction fetch.
const TAG_FETCH: u64 = 0;
/// Kind tag of a data load.
const TAG_LOAD: u64 = 1;
/// Kind tag of a data store.
const TAG_STORE: u64 = 2;
/// Kind tag of a compute interval.
const TAG_COMPUTE: u64 = 3;
/// Mask selecting the kind tag.
const TAG_MASK: u64 = 0b11;
/// Number of payload bits available above the tag.
const PAYLOAD_BITS: u32 = 62;
/// Largest encodable payload (addresses and cycle counts).
pub const MAX_PAYLOAD: u64 = (1 << PAYLOAD_BITS) - 1;

/// Encodes one event into its packed word.
///
/// # Panics
///
/// Panics if an address exceeds [`MAX_PAYLOAD`] (2⁶² − 1); the modelled
/// targets use 32-bit physical addresses, so this is never hit in practice.
/// Crate-visible so the sharded campaign drivers can fingerprint a trace
/// by its packed words without materialising a [`PackedTrace`].
pub(crate) fn encode(event: MemEvent) -> u64 {
    let (payload, tag) = match event {
        MemEvent::InstrFetch(a) => (a.raw(), TAG_FETCH),
        MemEvent::Load(a) => (a.raw(), TAG_LOAD),
        MemEvent::Store(a) => (a.raw(), TAG_STORE),
        MemEvent::Compute(c) => (c as u64, TAG_COMPUTE),
    };
    assert!(
        payload <= MAX_PAYLOAD,
        "event payload {payload:#x} exceeds the 62-bit packed-trace range"
    );
    (payload << 2) | tag
}

/// Decodes one packed word back into its event.
fn decode(word: u64) -> MemEvent {
    let payload = word >> 2;
    match word & TAG_MASK {
        TAG_FETCH => MemEvent::InstrFetch(Address::new(payload)),
        TAG_LOAD => MemEvent::Load(Address::new(payload)),
        TAG_STORE => MemEvent::Store(Address::new(payload)),
        // randmod: allow(C1, compute payloads are encoded from a u32, so the low 32 bits are the whole value — pinned by the encode/decode round-trip proptest)
        _ => MemEvent::Compute(payload as u32),
    }
}

/// A program trace packed to 8 bytes per event.
///
/// Functionally equivalent to [`Trace`] — replaying a `PackedTrace`
/// produces cycle-identical campaigns — at half the memory footprint.
///
/// ```
/// use randmod_sim::packed::PackedTrace;
/// use randmod_sim::trace::MemEvent;
/// use randmod_core::Address;
///
/// let mut trace = PackedTrace::new();
/// trace.push(MemEvent::Load(Address::new(0x2000)));
/// trace.push(MemEvent::Compute(3));
/// let events: Vec<MemEvent> = trace.iter().collect();
/// assert_eq!(events[0], MemEvent::Load(Address::new(0x2000)));
/// assert_eq!(events[1], MemEvent::Compute(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedTrace {
    words: Vec<u64>,
}

impl PackedTrace {
    /// Creates an empty packed trace.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Creates an empty packed trace with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        PackedTrace {
            words: Vec::with_capacity(n),
        }
    }

    /// Appends one event.
    ///
    /// # Panics
    ///
    /// Panics if the event's address exceeds [`MAX_PAYLOAD`].
    pub fn push(&mut self, event: MemEvent) {
        self.words.push(encode(event));
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Bytes of heap memory holding the encoded events (8 per event).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Iterates over the events, decoding on the fly.
    pub fn iter(&self) -> PackedEvents<'_> {
        PackedEvents {
            words: self.words.iter(),
        }
    }

    /// Collects the events into a boxed [`Trace`] (compatibility adapter).
    pub fn to_trace(&self) -> Trace {
        self.iter().collect()
    }

    /// Computes summary statistics for a given cache-line size, decoding
    /// on the fly.
    pub fn stats(&self, line_size: u32) -> crate::trace::TraceStats {
        crate::trace::TraceStats::from_events(self.iter(), line_size)
    }
}

impl EventSink for PackedTrace {
    fn emit(&mut self, event: MemEvent) {
        self.push(event);
    }
}

impl EventSource for PackedTrace {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        self.iter()
    }

    fn packed_words(&self) -> Option<&[u64]> {
        Some(&self.words)
    }
}

impl Extend<MemEvent> for PackedTrace {
    fn extend<T: IntoIterator<Item = MemEvent>>(&mut self, iter: T) {
        self.words.extend(iter.into_iter().map(encode));
    }
}

impl FromIterator<MemEvent> for PackedTrace {
    fn from_iter<T: IntoIterator<Item = MemEvent>>(iter: T) -> Self {
        PackedTrace {
            words: iter.into_iter().map(encode).collect(),
        }
    }
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = MemEvent;
    type IntoIter = PackedEvents<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<&Trace> for PackedTrace {
    fn from(trace: &Trace) -> Self {
        trace.iter().copied().collect()
    }
}

impl fmt::Display for PackedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} packed events ({} bytes)", self.len(), self.len() * 8)
    }
}

// ---------------------------------------------------------------------------
// Checksummed byte round-trip
// ---------------------------------------------------------------------------

/// Magic + version prefix of a packed-trace file (bump the digit when the
/// word encoding or the checksum changes; a file of another version is
/// refused with an error naming its version).
pub const TRACE_FILE_MAGIC: &[u8; 8] = b"RMTRACE2";

/// Error produced while decoding a packed-trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// The file's bytes fail validation: wrong magic/version, a length
    /// that disagrees with the header, or a checksum mismatch (truncation
    /// or bit-flips).
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Corrupt { detail } => {
                write!(f, "trace file corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl PackedTrace {
    /// Serializes the trace into its self-validating file format: magic +
    /// version, event count, the packed words, and a trailing checksum
    /// ([`crate::checkpoint::Fingerprint`]) over everything before it.  [`Self::from_bytes`] rejects
    /// any truncation or bit-flip of the result.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(24 + self.words.len() * 8);
        bytes.extend_from_slice(TRACE_FILE_MAGIC);
        bytes.extend_from_slice(&(self.words.len() as u64).to_le_bytes());
        for &word in &self.words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Deserializes a trace written by [`Self::to_bytes`], validating the
    /// magic, the declared event count against the byte length, and the
    /// trailing checksum.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError::Corrupt`] naming the first check that
    /// failed; a damaged file is never partially decoded.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceFileError> {
        // Every read below goes through `get`: a truncated file must
        // become a `Corrupt` error, never a slice-bounds panic (rule P1).
        let corrupt = |detail: String| TraceFileError::Corrupt { detail };
        let truncated = || corrupt("file too short for its own framing".to_string());
        if bytes.len() < 24 {
            return Err(corrupt(format!(
                "{} bytes is shorter than the 24-byte minimum (magic + count + checksum)",
                bytes.len()
            )));
        }
        let magic = bytes.get(..8).ok_or_else(truncated)?;
        if magic != TRACE_FILE_MAGIC.as_slice() {
            return Err(corrupt(magic_mismatch(magic, TRACE_FILE_MAGIC)));
        }
        let count = le_u64(bytes.get(8..16).ok_or_else(truncated)?);
        let body_len = bytes.len() - 8;
        let expected_words = (body_len - 16) / 8;
        if body_len < 16 || (body_len - 16) % 8 != 0 || count != expected_words as u64 {
            return Err(corrupt(format!(
                "header declares {count} events but the file holds {} payload bytes \
                 (truncated or padded)",
                body_len.saturating_sub(16)
            )));
        }
        let stored = le_u64(bytes.get(body_len..).ok_or_else(truncated)?);
        let body = bytes.get(..body_len).ok_or_else(truncated)?;
        let computed = checksum(body);
        if stored != computed {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x} \
                 (truncated or bit-flipped)"
            )));
        }
        let words = body
            .get(16..)
            .ok_or_else(truncated)?
            .chunks_exact(8)
            .map(le_u64)
            .collect();
        Ok(PackedTrace { words })
    }
}

/// Decoding iterator over a [`PackedTrace`].
#[derive(Debug, Clone)]
pub struct PackedEvents<'a> {
    words: std::slice::Iter<'a, u64>,
}

impl Iterator for PackedEvents<'_> {
    type Item = MemEvent;

    fn next(&mut self) -> Option<MemEvent> {
        self.words.next().map(|&w| decode(w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
    }
}

impl ExactSizeIterator for PackedEvents<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_events() -> Vec<MemEvent> {
        vec![
            MemEvent::InstrFetch(Address::new(0x4000_0000)),
            MemEvent::Load(Address::new(0x4010_0004)),
            MemEvent::Store(Address::new(0x4020_0008)),
            MemEvent::Compute(7),
        ]
    }

    #[test]
    fn push_and_decode_round_trip() {
        let mut packed = PackedTrace::new();
        for event in sample_events() {
            packed.push(event);
        }
        let decoded: Vec<MemEvent> = packed.iter().collect();
        assert_eq!(decoded, sample_events());
        assert_eq!(packed.len(), 4);
        assert!(!packed.is_empty());
    }

    #[test]
    fn eight_bytes_per_event() {
        let packed: PackedTrace = sample_events().into_iter().collect();
        assert!(packed.heap_bytes() >= packed.len() * 8);
        // The display form advertises the payload size, not the capacity.
        assert_eq!(packed.to_string(), "4 packed events (32 bytes)");
    }

    #[test]
    fn from_trace_and_back() {
        let trace: Trace = sample_events().into_iter().collect();
        let packed = PackedTrace::from(&trace);
        assert_eq!(packed.to_trace(), trace);
        assert_eq!(packed.len(), trace.len());
    }

    #[test]
    fn extend_and_collect_match_push() {
        let mut a = PackedTrace::with_capacity(4);
        a.extend(sample_events());
        let b: PackedTrace = sample_events().into_iter().collect();
        assert_eq!(a, b);
        let via_ref: Vec<MemEvent> = (&a).into_iter().collect();
        assert_eq!(via_ref, sample_events());
    }

    #[test]
    fn iterator_is_exact_size() {
        let packed: PackedTrace = sample_events().into_iter().collect();
        let mut iter = packed.iter();
        assert_eq!(iter.len(), 4);
        iter.next();
        assert_eq!(iter.len(), 3);
    }

    #[test]
    fn unaligned_addresses_round_trip() {
        // The encoding shifts rather than masks, so addresses with nonzero
        // low bits survive (the builder never emits them, but the sim's own
        // tests do).
        let event = MemEvent::Load(Address::new(0x10_0003));
        let packed: PackedTrace = [event].into_iter().collect();
        assert_eq!(packed.iter().next(), Some(event));
    }

    #[test]
    fn compute_payload_round_trips_at_u32_max() {
        let event = MemEvent::Compute(u32::MAX);
        let packed: PackedTrace = [event].into_iter().collect();
        assert_eq!(packed.iter().next(), Some(event));
    }

    #[test]
    #[should_panic(expected = "62-bit packed-trace range")]
    fn oversized_address_panics() {
        PackedTrace::new().push(MemEvent::Load(Address::new(1 << 62)));
    }

    #[test]
    fn event_sink_parity_with_trace() {
        let mut packed = PackedTrace::new();
        let mut boxed = Trace::new();
        let sink: &mut dyn EventSink = &mut packed;
        sink.fetch(Address::new(0x1000));
        sink.load(Address::new(0x2000));
        sink.store(Address::new(0x3000));
        sink.compute(5);
        sink.compute(0); // dropped, as Trace::compute does
        boxed.fetch(Address::new(0x1000));
        boxed.load(Address::new(0x2000));
        boxed.store(Address::new(0x3000));
        boxed.compute(5);
        boxed.compute(0);
        assert_eq!(packed.to_trace(), boxed);
    }

    #[test]
    fn byte_round_trip_is_identity() {
        let packed: PackedTrace = sample_events().into_iter().collect();
        let bytes = packed.to_bytes();
        assert_eq!(&bytes[..8], TRACE_FILE_MAGIC);
        assert_eq!(PackedTrace::from_bytes(&bytes).unwrap(), packed);
        // The empty trace round-trips too.
        let empty = PackedTrace::new();
        assert_eq!(PackedTrace::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = PackedTrace::from_iter(sample_events()).to_bytes();
        for len in [0, 10, bytes.len() - 8, bytes.len() - 1] {
            let err = PackedTrace::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, TraceFileError::Corrupt { .. }),
                "{len}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected_everywhere() {
        let bytes = PackedTrace::from_iter(sample_events()).to_bytes();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x10;
            assert!(
                PackedTrace::from_bytes(&flipped).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_is_reported_as_such() {
        // A foreign prefix, a future version and the previous version
        // (`RMTRACE1`, checksummed before the word-parallel hash): each is
        // refused, and a version of this format is named.
        for (byte, value, named) in [
            (0, b'X', None),
            (7, b'9', Some("RMTRACE9")),
            (7, b'1', Some("RMTRACE1")),
        ] {
            let mut bytes = PackedTrace::from_iter(sample_events()).to_bytes();
            bytes[byte] = value;
            let err = PackedTrace::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, TraceFileError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("magic"), "{err}");
            if let Some(version) = named {
                assert!(err.to_string().contains(version), "{err}");
                assert!(err.to_string().contains("unsupported version"), "{err}");
            }
        }
    }

    /// Strategy: one arbitrary event with a payload inside the packed range.
    fn event_strategy() -> impl Strategy<Value = MemEvent> {
        (0u64..4, 0u64..=MAX_PAYLOAD).prop_map(|(kind, payload)| match kind {
            0 => MemEvent::InstrFetch(Address::new(payload)),
            1 => MemEvent::Load(Address::new(payload)),
            2 => MemEvent::Store(Address::new(payload)),
            _ => MemEvent::Compute((payload & u32::MAX as u64) as u32),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// events -> PackedTrace -> events is the identity for every kind
        /// and the full payload range.
        #[test]
        fn round_trip_is_lossless(events in prop::collection::vec(event_strategy(), 0..200)) {
            let packed: PackedTrace = events.iter().copied().collect();
            prop_assert_eq!(packed.len(), events.len());
            let decoded: Vec<MemEvent> = packed.iter().collect();
            prop_assert_eq!(decoded, events);
        }
    }
}
