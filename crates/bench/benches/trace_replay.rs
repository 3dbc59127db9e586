//! Packed versus boxed trace replay: the representation benchmark behind
//! the streaming pipeline.  Replays the same kernel through a one-lane
//! [`BatchCore`] from the boxed `Vec<MemEvent>` [`Trace`] (16
//! bytes/event) and from the 8-byte-per-event [`PackedTrace`], plus the
//! encode cost of producing each representation from the workload
//! generator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use randmod_bench::{bench_kernel, bench_packed_trace, bench_platform, bench_trace};
use randmod_core::PlacementKind;
use randmod_sim::{BatchCore, SinkFn};
use randmod_workloads::{MemoryLayout, Workload};
use std::hint::black_box;

fn replay(c: &mut Criterion) {
    let boxed = bench_trace();
    let packed = bench_packed_trace();
    assert_eq!(packed.to_trace(), boxed, "representations must agree");

    let mut group = c.benchmark_group("trace_replay/replay");
    group.throughput(Throughput::Elements(boxed.len() as u64));
    group.sample_size(20);

    let mut core =
        BatchCore::new(&bench_platform(PlacementKind::RandomModulo), 1).expect("valid platform");
    let mut seed = 0u64;
    group.bench_with_input(BenchmarkId::from_parameter("boxed"), &boxed, |b, trace| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let (cycles, _) = core.execute_batch(black_box(trace), &[seed])[0];
            black_box(cycles)
        })
    });
    let mut seed = 0u64;
    group.bench_with_input(BenchmarkId::from_parameter("packed"), &packed, |b, trace| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let (cycles, _) = core.execute_batch(black_box(trace), &[seed])[0];
            black_box(cycles)
        })
    });
    group.finish();
}

fn encode(c: &mut Criterion) {
    let kernel = bench_kernel();
    let layout = MemoryLayout::default();
    // Count the emission through the constant-memory sink instead of
    // boxing a throwaway Trace.
    let mut events = 0u64;
    kernel.emit(&layout, &mut SinkFn(|_| events += 1));

    let mut group = c.benchmark_group("trace_replay/encode");
    group.throughput(Throughput::Elements(events));
    group.sample_size(20);
    group.bench_function("boxed", |b| {
        b.iter(|| black_box(kernel.trace(black_box(&layout))))
    });
    group.bench_function("packed", |b| {
        b.iter(|| black_box(kernel.packed_trace(black_box(&layout))))
    });
    group.finish();
}

criterion_group!(benches, replay, encode);
criterion_main!(benches);
