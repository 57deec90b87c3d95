//! E1 wall-clock: Contain-join stream configurations vs the conventional
//! nested-loop strategy, across input sizes (paper §3/§4.2.1, Table 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::Workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("contain_join");
    for n in [1_000usize, 4_000, 16_000] {
        let w = Workload::standard(n, 11);
        let xs_ts = w.xs_sorted(StreamOrder::TS_ASC);
        let ys_ts = w.ys_sorted(StreamOrder::TS_ASC);
        let ys_te = w.ys_sorted(StreamOrder::TE_ASC);

        group.bench_with_input(BenchmarkId::new("stream_ts_ts", n), &n, |b, _| {
            b.iter(|| {
                let mut j = ContainJoinTsTs::new(
                    from_sorted_vec(xs_ts.clone(), StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys_ts.clone(), StreamOrder::TS_ASC).unwrap(),
                    ReadPolicy::MinKey,
                )
                .unwrap();
                let mut n = 0u64;
                while j.next().unwrap().is_some() {
                    n += 1;
                }
                n
            })
        });
        group.bench_with_input(BenchmarkId::new("stream_ts_te", n), &n, |b, _| {
            b.iter(|| {
                let mut j = OpConfig::new()
                    .contain_join_ts_te(
                        from_sorted_vec(xs_ts.clone(), StreamOrder::TS_ASC).unwrap(),
                        from_sorted_vec(ys_te.clone(), StreamOrder::TE_ASC).unwrap(),
                    )
                    .unwrap();
                let mut n = 0u64;
                while j.next().unwrap().is_some() {
                    n += 1;
                }
                n
            })
        });
        // Nested loop is quadratic: keep it to the smaller sizes.
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |b, _| {
                b.iter(|| {
                    let mut j = NestedLoopJoin::new(
                        from_vec(w.xs.clone()),
                        from_vec(w.ys.clone()),
                        |a: &TsTuple, b: &TsTuple| a.period.contains(&b.period),
                    )
                    .unwrap();
                    let mut n = 0u64;
                    while j.next().unwrap().is_some() {
                        n += 1;
                    }
                    n
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
