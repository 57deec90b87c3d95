//! E3 wall-clock (Table 3 / Figure 7): the single-scan self semijoins vs
//! the two-stream stab algorithm on the same data and vs a quadratic
//! reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;
use tdb_bench::drain_count;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("self_semijoin");
    let cfg = OpConfig::new();
    for n in [4_000usize, 16_000, 64_000] {
        let xs = tdb::gen::intervals::nested_stream(n, 0.5, 17);
        let mut xs_te = xs.clone();
        StreamOrder::TE_ASC.sort(&mut xs_te);

        group.bench_with_input(BenchmarkId::new("single_scan", n), &n, |b, _| {
            b.iter(|| {
                let kind = StreamOpKind::ContainedSelfSemijoin;
                drain_count(|e| run_self_semijoin(kind, cfg, xs.clone(), e)).0
            })
        });
        // The naive alternative the paper warns about: running the
        // two-stream algorithm with the operand scanned twice.
        group.bench_with_input(BenchmarkId::new("two_stream_stab", n), &n, |b, _| {
            b.iter(|| {
                let kind = StreamOpKind::ContainedSemijoinStab;
                drain_count(|e| run_semijoin(kind, cfg, xs_te.clone(), xs.clone(), e)).0
            })
        });
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("quadratic", n), &n, |b, _| {
                b.iter(|| {
                    xs.iter()
                        .enumerate()
                        .filter(|(i, x)| {
                            xs.iter()
                                .enumerate()
                                .any(|(j, y)| *i != j && y.period.contains(&x.period))
                        })
                        .count()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
