//! E1 wall-clock (semijoin columns): the two-buffer stab semijoins of
//! Figure 6 and the sweep semijoins of Table 1 state (c), vs a nested-loop
//! exists-check baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::Workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("semijoins");
    for n in [4_000usize, 16_000] {
        let w = Workload::standard(n, 13);
        let xs_ts = w.xs_sorted(StreamOrder::TS_ASC);
        let ys_ts = w.ys_sorted(StreamOrder::TS_ASC);
        let ys_te = w.ys_sorted(StreamOrder::TE_ASC);

        group.bench_with_input(BenchmarkId::new("contain_stab", n), &n, |b, _| {
            b.iter(|| {
                let mut op = OpConfig::new()
                    .contain_semijoin_stab(
                        from_sorted_vec(xs_ts.clone(), StreamOrder::TS_ASC).unwrap(),
                        from_sorted_vec(ys_te.clone(), StreamOrder::TE_ASC).unwrap(),
                    )
                    .unwrap();
                let mut n = 0u64;
                while op.next().unwrap().is_some() {
                    n += 1;
                }
                n
            })
        });
        group.bench_with_input(BenchmarkId::new("contain_sweep", n), &n, |b, _| {
            b.iter(|| {
                let mut op = SweepSemijoin::contain(
                    from_sorted_vec(xs_ts.clone(), StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys_ts.clone(), StreamOrder::TS_ASC).unwrap(),
                    ReadPolicy::MinKey,
                )
                .unwrap();
                let mut n = 0u64;
                while op.next().unwrap().is_some() {
                    n += 1;
                }
                n
            })
        });
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
