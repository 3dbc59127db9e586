//! Micro-benchmark of the wavefront probe.
//!
//! Times `SetAssocCacheLanes::access_lean_lanes` on one synthetic L1-like
//! access stream, per placement kind, at K lanes — the per-wave probe cost
//! at the core of every campaign, without trace decode or hierarchy
//! booking.  End-to-end campaign cost is measured by `perfbench/`.
//!
//! Run with `cargo run --release -p randmod-core --example probe_microbench`.

use randmod_core::cache::{AccessKind, SetAssocCacheLanes, WritePolicy};
use randmod_core::{CacheGeometry, LineAddr, PlacementKind, ReplacementKind};
use std::hint::black_box;
use std::time::Instant;

const LANES: usize = 8;
const STEPS: usize = 2_000_000;

/// A synthetic L1-like access stream: a small hot code/data footprint with
/// a cold streaming component, similar in hit ratio to the collapsed
/// campaign replay.
fn access_stream() -> Vec<(u64, AccessKind)> {
    let mut stream = Vec::with_capacity(STEPS);
    for i in 0..STEPS as u64 {
        let (line, kind) = match i % 4 {
            0 => (0x40 + (i % 24), AccessKind::InstructionFetch),
            1 => (0x8000 + (i % 4096), AccessKind::Load),
            2 => (0x40 + (i % 24), AccessKind::InstructionFetch),
            _ => {
                if i % 20 == 3 {
                    (0x10_000 + (i % 128), AccessKind::Store)
                } else {
                    (0x8000 + ((i * 7) % 4096), AccessKind::Load)
                }
            }
        };
        stream.push((line, kind));
    }
    stream
}

fn main() {
    let geometry = CacheGeometry::new(128, 4, 32).unwrap();
    let stream = access_stream();
    let seeds: Vec<u64> = (0..LANES as u64).map(|l| 0xBEEF ^ (l * 0x9E37)).collect();

    for kind in PlacementKind::ALL {
        let mut bank = SetAssocCacheLanes::with_kinds(
            geometry,
            kind,
            ReplacementKind::Random,
            WritePolicy::WriteThrough,
            LANES,
        )
        .unwrap();
        bank.reseed_wave(&seeds);
        let mut flags = [Default::default(); LANES];
        let start = Instant::now();
        for &(line, access) in &stream {
            bank.access_lean_lanes(LineAddr::new(line), access, &mut flags);
            black_box(&flags);
        }
        let wave = start.elapsed().as_secs_f64();
        let per_wave = wave / STEPS as f64 * 1e9;
        println!(
            "{kind:>14}: wave {per_wave:7.1} ns/op  ({:.1} ns per lane-access at K = {LANES})",
            per_wave / LANES as f64
        );
    }
}
