//! E13 wall-clock (§4.2.4): Before-join counting via sorted-suffix
//! arithmetic vs the naive double loop; Before-semijoin single scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::{drain_count, Workload};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("before");
    let cfg = OpConfig::new();
    for n in [2_000usize, 8_000] {
        let w = Workload::poisson("bf", n, 3.0, 10.0, 3.0, 10.0, 23);

        group.bench_with_input(BenchmarkId::new("count_suffix", n), &n, |b, _| {
            b.iter(|| {
                let (xs, ys) = (w.xs.clone(), w.ys.clone());
                let kind = StreamOpKind::BeforeJoin;
                run_join(kind, cfg, xs, ys, Emit::Count)
                    .unwrap()
                    .1
                    .metrics
                    .emitted
            })
        });
        group.bench_with_input(BenchmarkId::new("count_naive", n), &n, |b, _| {
            b.iter(|| {
                let mut k = 0u64;
                for x in &w.xs {
                    for y in &w.ys {
                        if x.period.before(&y.period) {
                            k += 1;
                        }
                    }
                }
                k
            })
        });
        group.bench_with_input(BenchmarkId::new("semijoin_single_scan", n), &n, |b, _| {
            b.iter(|| {
                let (xs, ys) = (w.xs.clone(), w.ys.clone());
                drain_count(|e| run_semijoin(StreamOpKind::BeforeSemijoin, cfg, xs, ys, e)).0
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
