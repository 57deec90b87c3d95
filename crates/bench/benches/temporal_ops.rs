//! Extension operators: coalescing throughput, timeslice via sorted scan,
//! and the concurrency profile sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb::stream::{concurrency_profile, timeslice};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal_ops");
    for n in [10_000usize, 40_000] {
        let data = IntervalGen::poisson(n, 3.0, 25.0, 47).generate();
        let mut sorted = data.clone();
        StreamOrder::TS_ASC.sort(&mut sorted);
        let mid = sorted[n / 2].period.start();

        group.bench_with_input(BenchmarkId::new("coalesce", n), &n, |b, _| {
            b.iter(|| coalesce_relation(data.clone()).unwrap().len())
        });

        group.bench_with_input(BenchmarkId::new("profile_sweep", n), &n, |b, _| {
            b.iter(|| concurrency_profile(&sorted).unwrap().1)
        });

        group.bench_with_input(BenchmarkId::new("timeslice_scan", n), &n, |b, _| {
            b.iter(|| timeslice(&sorted, mid, true).0.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
