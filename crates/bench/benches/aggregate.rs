//! E6 wall-clock (Figure 4): the streaming grouped sum.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;

fn rows(n_groups: usize, per_group: usize) -> Vec<(Value, i64)> {
    (0..n_groups)
        .flat_map(|g| (0..per_group).map(move |i| (Value::Int(g as i64), i as i64)))
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate");
    for n_groups in [1_000usize, 10_000] {
        let data = rows(n_groups, 50);
        group.bench_with_input(
            BenchmarkId::new("grouped_stream", n_groups),
            &n_groups,
            |b, _| {
                b.iter(|| {
                    grouped_sum(&data, |r| r.0.clone(), |r| r.1)
                        .unwrap()
                        .0
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
