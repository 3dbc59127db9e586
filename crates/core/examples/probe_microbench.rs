//! Micro-benchmark of the lane cache's one access entry point.
//!
//! Times `SetAssocCacheLanes::access` over every active lane, per
//! placement kind, at K = 1, 2, 4 and 8 lanes, on three access streams:
//!
//! * `hot` (16KB 4-way LEON3-like L1): a small hot code/data footprint with
//!   a cold streaming component, similar in hit ratio to the collapsed
//!   campaign replay;
//! * `sweep` (same L1): the fig6 victim's sweep — 640 consecutive lines
//!   (20KB) read in order, over and over, so 40–50% of the accesses miss
//!   under the randomised placements;
//! * `corun` (1,024-set 4-way L2 partition): the victim's sweep
//!   interleaved access by access with three 4,096-line (128KB) sweeps at
//!   the 64 MiB opponent offsets — the shape of fig6 P3's shared-L2
//!   traffic, where the co-runners alternate cache segments every access.
//!
//! It prints the time per lane-access in ns: the probe cost at the core of
//! every campaign, without trace decode or hierarchy booking.  End-to-end
//! campaign cost is measured by `perfbench/`.
//!
//! Run with `cargo run --release -p randmod-core --example probe_microbench`.

use randmod_core::cache::{AccessKind, SetAssocCacheLanes, WritePolicy};
use randmod_core::{AccessFlags, CacheGeometry, LineAddr, PlacementKind, ReplacementKind};
use std::hint::black_box;
use std::time::Instant;

/// Lane widths timed.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];
/// Accesses per timed cell.
const STEPS: usize = 1_000_000;

/// A synthetic L1-like access stream: a small hot code/data footprint with
/// a cold streaming component.
fn hot_stream() -> Vec<(u64, AccessKind)> {
    (0..STEPS as u64)
        .map(|i| match i % 4 {
            0 | 2 => (0x40 + (i % 24), AccessKind::InstructionFetch),
            1 => (0x8000 + (i % 4096), AccessKind::Load),
            _ if i % 20 == 3 => (0x10_000 + (i % 128), AccessKind::Store),
            _ => (0x8000 + ((i * 7) % 4096), AccessKind::Load),
        })
        .collect()
}

/// The fig6 victim's sweep: 640 consecutive 32-byte lines (20KB), loaded
/// in order, round after round.
fn sweep_stream() -> Vec<(u64, AccessKind)> {
    (0..STEPS as u64)
        .map(|i| (0x2_0000 + i % 640, AccessKind::Load))
        .collect()
}

/// fig6 P3's shared-L2 stream: the victim's 640-line sweep and three
/// 4,096-line opponent sweeps, each opponent offset by a further 64 MiB
/// (2^21 lines), one access from each task in turn.
fn corun_stream() -> Vec<(u64, AccessKind)> {
    const REGION_LINES: u64 = (64 << 20) / 32;
    (0..STEPS as u64)
        .map(|i| {
            let (task, round) = (i % 4, i / 4);
            let line = match task {
                0 => 0x2_0000 + round % 640,
                _ => 0x2_0000 + task * REGION_LINES + round % 4096,
            };
            (line, AccessKind::Load)
        })
        .collect()
}

/// Nanoseconds per lane-access of `stream` on a fresh `lanes`-lane bank.
fn time(
    kind: PlacementKind,
    (geometry, write_policy): (CacheGeometry, WritePolicy),
    lanes: usize,
    stream: &[(u64, AccessKind)],
) -> f64 {
    let mut bank = SetAssocCacheLanes::with_kinds(
        geometry,
        kind,
        ReplacementKind::Random,
        write_policy,
        lanes,
    )
    .unwrap();
    let seeds: Vec<u64> = (0..lanes as u64).map(|l| 0xBEEF ^ (l * 0x9E37)).collect();
    bank.reseed_wave(&seeds);
    let mut flags = vec![AccessFlags::default(); lanes];
    let start = Instant::now();
    for &(line, access) in stream {
        bank.access(LineAddr::new(line), access, u64::MAX, &mut flags);
        black_box(&flags);
    }
    start.elapsed().as_secs_f64() / (stream.len() * lanes) as f64 * 1e9
}

fn main() {
    println!("# ns per lane-access, {STEPS} accesses per cell");
    print!("{:<6}{:>14}", "stream", "placement");
    for lanes in WIDTHS {
        print!("{:>9}", format!("K={lanes}"));
    }
    println!();
    let l1 = (CacheGeometry::leon3_l1(), WritePolicy::WriteThrough);
    let l2 = (CacheGeometry::leon3_l2_partition(), WritePolicy::WriteBack);
    for (name, cache, stream) in [
        ("hot", l1, hot_stream()),
        ("sweep", l1, sweep_stream()),
        ("corun", l2, corun_stream()),
    ] {
        for kind in PlacementKind::ALL {
            print!("{name:<6}{kind:>14}");
            for lanes in WIDTHS {
                print!("{:>9.1}", time(kind, cache, lanes, &stream));
            }
            println!();
        }
    }
}
