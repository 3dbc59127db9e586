//! # randmod-core
//!
//! Core library of the *Random Modulo* reproduction (Hernández et al.,
//! DAC 2016): MBPTA-compliant cache placement policies and the
//! set-associative cache model they plug into.
//!
//! The crate provides:
//!
//! * [`CacheGeometry`] and [`Address`] — cache dimensioning and address
//!   bit-field arithmetic (offset / index / tag / cache segment).
//! * [`prng`] — hardware-style pseudo-random number generators used to draw
//!   the per-run placement seeds (a combined-LFSR generator in the spirit of
//!   the IEC-61508 SIL3 PRNG the paper relies on).
//! * [`benes`] — a general Benes permutation network with a routing
//!   algorithm, the hardware substrate of Random Modulo.
//! * [`placement`] — the placement policies compared in the paper:
//!   deterministic modulo, deterministic XOR hashing, hash-based random
//!   placement (hRP) and Random Modulo (RM).
//! * [`replacement`] — random / LRU / round-robin replacement.
//! * [`cache`] — the set-associative cache model: a bank of K per-seed
//!   caches accessed through one lane mask, with pluggable placement and
//!   replacement, outcomes returned as lane masks, and statistics.
//! * [`layout`] — cache-layout census utilities (conflict counting,
//!   per-set occupancy) used by the test-suite.
//!
//! ## Quick example
//!
//! ```
//! use randmod_core::{AccessMasks, CacheGeometry, Address, PlacementKind, ReplacementKind};
//! use randmod_core::cache::{SetAssocCacheLanes, AccessKind, WritePolicy};
//!
//! # fn main() -> Result<(), randmod_core::ConfigError> {
//! // Two seed lanes of a LEON3-like 16KB, 4-way, 32-byte-line first-level
//! // cache.
//! let geometry = CacheGeometry::new(128, 4, 32)?;
//! let mut cache = SetAssocCacheLanes::with_kinds(
//!     geometry,
//!     PlacementKind::RandomModulo,
//!     ReplacementKind::Random,
//!     WritePolicy::WriteThrough,
//!     2,
//! )?;
//! cache.reseed_wave(&[0xDEAD_BEEF_CAFE_F00D, 7]);
//! let line = geometry.line_addr(Address::new(0x4000_1040));
//! // One access to both lanes (bit `i` of the mask selects lane `i`, and
//! // of each returned mask reports lane `i`): both miss and fill cold...
//! let cold = cache.access(line, AccessKind::Load, 0b11);
//! assert_eq!((cold.hits, cold.fills, cold.evictions), (0, 0b11, 0));
//! // ...then both hit.
//! let warm = cache.access(line, AccessKind::Load, 0b11);
//! assert_eq!(warm, AccessMasks { hits: 0b11, ..AccessMasks::default() });
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod benes;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod cache;
pub mod error;
pub mod layout;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod placement;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod prng;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod replacement;

pub use address::{Address, CacheGeometry, LineAddr};
pub use cache::{AccessKind, AccessMasks, CacheStats, SetAssocCacheLanes, WritePolicy};
pub use error::ConfigError;
pub use placement::{
    HashRandomPlacement, ModuloPlacement, PlacementKind, PlacementLanes, PlacementPolicy,
    RandomModuloPlacement, XorPlacement,
};
pub use prng::{CombinedLfsr, CombinedLfsrLanes, SeedSequence, SplitMix64};
pub use replacement::{ReplacementKind, ReplacementState};
