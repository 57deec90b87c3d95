//! E1 wall-clock (semijoin columns): the two-buffer stab semijoins of
//! Figure 6 and the sweep semijoins of Table 1 state (c), vs a nested-loop
//! exists-check baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::{drain_count, Workload};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("semijoins");
    let cfg = OpConfig::new();
    for n in [4_000usize, 16_000] {
        let w = Workload::standard(n, 13);
        let xs_ts = w.xs_sorted(StreamOrder::TS_ASC);
        let ys_ts = w.ys_sorted(StreamOrder::TS_ASC);
        let ys_te = w.ys_sorted(StreamOrder::TE_ASC);

        for (label, kind, ys) in [
            ("contain_stab", StreamOpKind::ContainSemijoinStab, &ys_te),
            ("contain_sweep", StreamOpKind::SweepSemijoin, &ys_ts),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let (xs, ys) = (xs_ts.clone(), ys.clone());
                    drain_count(|e| run_semijoin(kind, cfg, xs, ys, e)).0
                })
            });
        }
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("nested_exists", n), &n, |b, _| {
                b.iter(|| {
                    w.xs.iter()
                        .filter(|x| w.ys.iter().any(|y| x.period.contains(&y.period)))
                        .count()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
