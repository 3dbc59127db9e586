//! Microbenchmarks of the cache-hierarchy simulator: trace-replay
//! throughput for each placement policy, one seed per replay on a one-lane
//! [`BatchCore`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use randmod_bench::{bench_platform, bench_trace};
use randmod_core::PlacementKind;
use randmod_sim::BatchCore;
use std::hint::black_box;

fn trace_replay(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("simulator/trace_replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);
    for kind in [
        PlacementKind::Modulo,
        PlacementKind::HashRandom,
        PlacementKind::RandomModulo,
    ] {
        let mut core = BatchCore::new(&bench_platform(kind), 1).expect("valid platform");
        let mut seed = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(kind), &trace, |b, trace| {
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let (cycles, _) = core.execute_batch(black_box(trace), &[seed])[0];
                black_box(cycles)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, trace_replay);
criterion_main!(benches);
