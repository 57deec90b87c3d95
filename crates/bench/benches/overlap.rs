//! E2 wall-clock (Table 2): overlap join/semijoin in both modes vs the
//! nested-loop baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::Workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap");
    for n in [4_000usize, 16_000] {
        let w = Workload::poisson("ov", n, 3.0, 20.0, 3.0, 20.0, 19);
        let xs = w.xs_sorted(StreamOrder::TS_ASC);
        let ys = w.ys_sorted(StreamOrder::TS_ASC);

        for (label, mode) in [
            ("join_strict", OverlapMode::Strict),
            ("join_general", OverlapMode::General),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let mut j = OpConfig::new()
                        .with_mode(mode)
                        .overlap_join(
                            from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
                            from_sorted_vec(ys.clone(), StreamOrder::TS_ASC).unwrap(),
                        )
                        .unwrap();
                    let mut k = 0u64;
                    while j.next().unwrap().is_some() {
                        k += 1;
                    }
                    k
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("semijoin_general", n), &n, |b, _| {
            b.iter(|| {
                let mut op = OpConfig::new()
                    .overlap_semijoin(
                        from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
                        from_sorted_vec(ys.clone(), StreamOrder::TS_ASC).unwrap(),
                    )
                    .unwrap();
                let mut k = 0u64;
                while op.next().unwrap().is_some() {
                    k += 1;
                }
                k
            })
        });
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("nested_loop_general", n), &n, |b, _| {
                b.iter(|| {
                    let mut j = NestedLoopJoin::new(
                        from_vec(w.xs.clone()),
                        from_vec(w.ys.clone()),
                        |a: &TsTuple, b: &TsTuple| a.period.overlaps(&b.period),
                    )
                    .unwrap();
                    let mut k = 0u64;
                    while j.next().unwrap().is_some() {
                        k += 1;
                    }
                    k
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
