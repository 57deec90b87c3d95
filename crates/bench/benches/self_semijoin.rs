//! E3 wall-clock (Table 3 / Figure 7): the single-scan self semijoins vs
//! the two-stream stab algorithm on the same data and vs a quadratic
//! reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdb::prelude::*;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("self_semijoin");
    for n in [4_000usize, 16_000, 64_000] {
        let xs = tdb::gen::intervals::nested_stream(n, 0.5, 17);
        let mut xs_te = xs.clone();
        StreamOrder::TE_ASC.sort(&mut xs_te);

        group.bench_with_input(BenchmarkId::new("single_scan", n), &n, |b, _| {
            b.iter(|| {
                let mut op = ContainedSelfSemijoin::new(
                    from_sorted_vec(xs.clone(), StreamOrder::TS_ASC_TE_ASC).unwrap(),
                )
                .unwrap();
                let mut k = 0u64;
                while op.next().unwrap().is_some() {
                    k += 1;
                }
                k
            })
        });
        // The naive alternative the paper warns about: running the
        // two-stream algorithm with the operand scanned twice.
        group.bench_with_input(BenchmarkId::new("two_stream_stab", n), &n, |b, _| {
            b.iter(|| {
                let mut op = OpConfig::new()
                    .contained_semijoin_stab(
                        from_sorted_vec(xs_te.clone(), StreamOrder::TE_ASC).unwrap(),
                        from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
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
