//! E2 wall-clock (Table 2): overlap join/semijoin in both modes vs the
//! nested-loop baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::{drain_count, Workload};

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
            let cfg = OpConfig::new().with_mode(mode);
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let (xs, ys) = (xs.clone(), ys.clone());
                    drain_count(|e| run_join(StreamOpKind::OverlapJoin, cfg, xs, ys, e)).0
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("semijoin_general", n), &n, |b, _| {
            b.iter(|| {
                let (xs, ys, cfg) = (xs.clone(), ys.clone(), OpConfig::new());
                drain_count(|e| run_semijoin(StreamOpKind::OverlapSemijoin, cfg, xs, ys, e)).0
            })
        });
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("nested_loop_general", n), &n, |b, _| {
                b.iter(|| {
                    let overlaps = |a: &TsTuple, b: &TsTuple| a.period.overlaps(&b.period);
                    nested_loop_join(&w.xs, &w.ys, overlaps).0.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
