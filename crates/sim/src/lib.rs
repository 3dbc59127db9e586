//! # randmod-sim
//!
//! A LEON3-like, trace-driven cache-hierarchy and timing simulator.
//!
//! The paper evaluates Random Modulo on an FPGA implementation of a 4-core
//! LEON3 with per-core 16KB 4-way instruction and data L1 caches and a
//! 128KB 4-way L2 partition per core.  This crate provides the equivalent
//! simulation substrate:
//!
//! * [`config`] — platform configuration (cache geometries, placement and
//!   replacement policies per level, latencies) with LEON3-like defaults.
//! * [`trace`] — memory-access traces ([`MemEvent`], [`Trace`]) produced by
//!   the workload generators of `randmod-workloads`, plus the streaming
//!   [`EventSink`] / [`EventSource`] pipeline abstractions.
//! * [`packed`] — [`PackedTrace`], the 8-byte-per-event replay format with
//!   an on-the-fly decoding iterator (half the memory of a boxed
//!   [`Trace`]).
//! * [`hierarchy`] — the two-level cache hierarchy (per-task IL1 + DL1
//!   pairs + one unified L2 partition + main memory): its latency model
//!   and per-level statistics.
//! * [`batch`] — the replay engine: in-order cores that step `K`
//!   independent seed lanes (lane-banked caches + cycle counters) per
//!   operation, each lane bit-identical to replaying its seed alone.  A
//!   solo program is the one-task case of the multi-task platform.
//! * [`contention`] — the multi-task shared-L2 platform: per-task private
//!   L1 pairs over one shared L2 partition, interleaved round-robin into
//!   a schedule that the engine replays across `K` placement seeds.
//! * [`run`] — measurement campaigns: run a program repeatedly with a fresh
//!   placement seed per run (the MBPTA protocol, batched across seeds by
//!   default), adaptively grow the campaign until the pWCET estimate
//!   converges ([`Campaign::run_adaptive`]), sweep memory layouts under
//!   deterministic placement (the industrial high-water-mark protocol), or
//!   split a fixed-run campaign into crash-safe shards persisted through a
//!   checkpoint store, so a rerun resumes or reuses them
//!   ([`Campaign::run_sharded_checkpointed`],
//!   [`Campaign::run_contended_sharded_checkpointed`]).
//! * [`checkpoint`] — the versioned, checksummed, atomically-written
//!   checkpoint container the sharded drivers persist completed shards
//!   through, plus the injectable [`CheckpointStore`] trait and the
//!   deterministic fault-injection harness ([`FaultPlan`] / [`FaultyStore`])
//!   that proves the crash-safety guarantees.
//!
//! ## Quick example
//!
//! ```
//! use randmod_sim::batch::BatchCore;
//! use randmod_sim::config::PlatformConfig;
//! use randmod_sim::trace::{MemEvent, Trace};
//! use randmod_core::{Address, PlacementKind};
//!
//! # fn main() -> Result<(), randmod_core::ConfigError> {
//! let config = PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo);
//! let mut trace = Trace::new();
//! trace.push(MemEvent::InstrFetch(Address::new(0x1000)));
//! trace.push(MemEvent::Load(Address::new(0x8000)));
//!
//! // One run under placement seed 42, on a one-task, one-lane core.
//! let mut core = BatchCore::new(&config, 1, 1)?;
//! let (cycles, stats) = core.execute_batch(&trace, &[42])[0];
//! assert!(cycles > 0);
//! assert_eq!(stats.l1_misses(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod checkpoint;
pub mod config;
pub mod contention;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod hierarchy;
#[warn(clippy::unwrap_used, clippy::expect_used)]
mod lanes;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod packed;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod run;
pub mod trace;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod wire;

pub use batch::BatchCore;
pub use checkpoint::{
    CheckpointError, CheckpointStore, FaultPlan, FaultyStore, FileCheckpointStore,
    MemoryCheckpointStore,
};
pub use config::{CacheConfig, LatencyConfig, PlatformConfig};
pub use contention::ContendedSchedule;
pub use hierarchy::HierarchyStats;
pub use packed::PackedTrace;
pub use run::{
    decode_solo_runs, encode_solo_runs, AdaptiveResult, Campaign, CampaignError, CampaignResult,
    ContendedAdaptiveResult, ContendedResult, ContendedRun, RunResult, ShardSpec, ShardedReport,
    TaskRun,
};
pub use trace::{EventSink, EventSource, MemEvent, Trace, TraceStats};
