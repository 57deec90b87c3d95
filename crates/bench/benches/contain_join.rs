//! E1 wall-clock: Contain-join stream configurations vs the conventional
//! nested-loop strategy, across input sizes (paper §3/§4.2.1, Table 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::{drain_count, Workload};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("contain_join");
    let cfg = OpConfig::new();
    for n in [1_000usize, 4_000, 16_000] {
        let w = Workload::standard(n, 11);
        let xs_ts = w.xs_sorted(StreamOrder::TS_ASC);
        let ys_ts = w.ys_sorted(StreamOrder::TS_ASC);
        let ys_te = w.ys_sorted(StreamOrder::TE_ASC);

        for (label, kind, ys) in [
            ("stream_ts_ts", StreamOpKind::ContainJoinTsTs, &ys_ts),
            ("stream_ts_te", StreamOpKind::ContainJoinTsTe, &ys_te),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let (xs, ys) = (xs_ts.clone(), ys.clone());
                    drain_count(|e| run_join(kind, cfg, xs, ys, e)).0
                })
            });
        }
        // Nested loop is quadratic: keep it to the smaller sizes.
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |b, _| {
                b.iter(|| {
                    let contains = |a: &TsTuple, b: &TsTuple| a.period.contains(&b.period);
                    nested_loop_join(&w.xs, &w.ys, contains).0.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
