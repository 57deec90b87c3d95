//! Randomized equivalence of partitioned-parallel execution.
//!
//! For every partitionable operator (Contains/During/GeneralOverlap/
//! AllenOverlaps, join and semijoin) under its supported input ordering,
//! the time-partitioned parallel run over `K ∈ 1..=8` partitions must
//! produce exactly the serial operator's output — which in turn must match
//! the quadratic nested-loop oracle. Inputs deliberately include
//! adversarial boundary-spanning tuples (span-everything giants,
//! one-tick slivers, duplicated periods) that stress fringe replication
//! and owner/ordinal deduplication.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tdb::prelude::*;

/// Distinct surrogates make multiset comparison exact even when periods
/// repeat.
fn tuples(raw: &[(i64, i64)]) -> Vec<TsTuple> {
    raw.iter()
        .enumerate()
        .map(|(i, &(start, dur))| TsTuple::new(i as i64, Value::Null, start, start + dur).unwrap())
        .collect()
}

/// Inject the adversarial shapes: a giant spanning every partition
/// boundary, a sliver hugging the left edge, and a duplicated period.
fn adversarial(mut xs: Vec<TsTuple>, tag: i64) -> Vec<TsTuple> {
    let n = xs.len() as i64;
    xs.push(TsTuple::new(1000 + tag, Value::Null, -5, 500).unwrap());
    xs.push(TsTuple::new(1001 + tag + n, Value::Null, 0, 1).unwrap());
    if let Some(first) = xs.first().cloned() {
        xs.push(
            TsTuple::new(
                1002 + tag + n,
                Value::Null,
                first.ts().ticks(),
                first.te().ticks(),
            )
            .unwrap(),
        );
    }
    xs
}

type Key = (i64, i64, i64);

fn key(t: &TsTuple) -> Key {
    let s = match t.surrogate {
        Value::Int(i) => i,
        _ => -1,
    };
    (s, t.ts().ticks(), t.te().ticks())
}

fn canon_pairs(mut v: Vec<(TsTuple, TsTuple)>) -> Vec<(Key, Key)> {
    let mut out: Vec<_> = v.drain(..).map(|(x, y)| (key(&x), key(&y))).collect();
    out.sort_unstable();
    out
}

fn canon(v: &[TsTuple]) -> Vec<Key> {
    let mut out: Vec<_> = v.iter().map(key).collect();
    out.sort_unstable();
    out
}

const PATTERNS: [ParallelPattern; 4] = [
    ParallelPattern::Contains,
    ParallelPattern::During,
    ParallelPattern::GeneralOverlap,
    ParallelPattern::AllenOverlaps,
];

fn join_oracle(xs: &[TsTuple], ys: &[TsTuple], pattern: ParallelPattern) -> Vec<(Key, Key)> {
    let mut out = Vec::new();
    for x in xs {
        for y in ys {
            if pattern.matches(&x.period, &y.period) {
                out.push((key(x), key(y)));
            }
        }
    }
    out.sort_unstable();
    out
}

fn semi_oracle(xs: &[TsTuple], ys: &[TsTuple], pattern: ParallelPattern) -> Vec<Key> {
    let mut out: Vec<_> = xs
        .iter()
        .filter(|x| ys.iter().any(|y| pattern.matches(&x.period, &y.period)))
        .map(key)
        .collect();
    out.sort_unstable();
    out
}

/// The X-side ordering each pattern's semijoin declares on its output.
fn x_order(pattern: ParallelPattern) -> StreamOrder {
    match pattern {
        ParallelPattern::During => StreamOrder::TE_ASC,
        _ => StreamOrder::TS_ASC,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn parallel_join_matches_serial_and_oracle_for_all_k(
        raw_x in proptest::collection::vec((0i64..150, 1i64..60), 0..24),
        raw_y in proptest::collection::vec((0i64..150, 1i64..60), 0..24),
    ) {
        let xs = adversarial(tuples(&raw_x), 0);
        let ys = adversarial(tuples(&raw_y), 5000);
        for pattern in PATTERNS {
            let oracle = join_oracle(&xs, &ys, pattern);
            // K = 1 is the serial operator itself; larger K must agree.
            for k in 1..=8 {
                let mut items = Vec::new();
                let mut collect = |chunk| {
                    items.extend(chunk);
                    Ok(true)
                };
                let cfg = OpConfig::new();
                let run = parallel_join(pattern, xs.clone(), ys.clone(), k, cfg, &mut collect)
                    .unwrap();
                prop_assert_eq!(
                    canon_pairs(items),
                    oracle.clone(),
                    "{:?} join, k={}", pattern, k
                );
                // Partitioning never inflates the per-worker peak beyond
                // the serial workspace plus the replicated fringe.
                prop_assert!(run.per_partition.len() <= k.max(1));
            }
        }
    }

    #[test]
    fn parallel_semijoin_matches_oracle_and_preserves_order(
        raw_x in proptest::collection::vec((0i64..150, 1i64..60), 0..24),
        raw_y in proptest::collection::vec((0i64..150, 1i64..60), 0..24),
    ) {
        let xs = adversarial(tuples(&raw_x), 0);
        let ys = adversarial(tuples(&raw_y), 5000);
        for pattern in PATTERNS {
            let oracle = semi_oracle(&xs, &ys, pattern);
            for k in 1..=8 {
                let mut items = Vec::new();
                let mut collect = |chunk| {
                    items.extend(chunk);
                    Ok(true)
                };
                let cfg = OpConfig::new();
                let run = parallel_semijoin(pattern, xs.clone(), ys.clone(), k, cfg, &mut collect)
                    .unwrap();
                prop_assert_eq!(
                    canon(&items),
                    oracle.clone(),
                    "{:?} semijoin, k={}", pattern, k
                );
                // Exactly-once: ordinal dedup removed every fringe copy.
                let distinct: BTreeSet<_> = items.iter().map(key).collect();
                prop_assert_eq!(distinct.len(), items.len(), "{:?} k={}", pattern, k);
                // Output re-emits the declared X-side order.
                let order = x_order(pattern);
                prop_assert!(
                    order.first_violation(&items).is_none(),
                    "{:?} k={} output violates {}", pattern, k, order
                );
                prop_assert_eq!(run.report.metrics.emitted, items.len());
            }
        }
    }
}

/// Plan-level equivalence: a parallel planner produces the same rows as
/// the serial stream planner and the naive nested-loop planner for every
/// temporal operator the front end can desugar.
#[test]
fn parallel_plans_agree_with_serial_for_every_temporal_op() {
    use tdb::quel::ast::TemporalOp;
    use tdb::quel::translate::desugar_temporal;

    let faculty = FacultyGen {
        n_faculty: 50,
        seed: 1234,
        continuous_employment: false,
        ..FacultyGen::default()
    }
    .generate();
    let dir = std::env::temp_dir().join(format!("tdb-parallel-eq-{}", std::process::id()));
    let catalog = tdb::faculty_catalog(dir, &faculty).unwrap();
    let attrs = ["Name", "Rank", "ValidFrom", "ValidTo"];

    let ops = [
        TemporalOp::Overlap,
        TemporalOp::Overlaps,
        TemporalOp::During,
        TemporalOp::Contains,
        TemporalOp::Before,
        TemporalOp::After,
    ];
    for op in ops {
        let q = LogicalPlan::scan("Faculty", "a", &attrs)
            .product(LogicalPlan::scan("Faculty", "b", &attrs))
            .select(desugar_temporal("a", op, "b"));
        let q = conventional_optimize(q);
        let run = |config: PlannerConfig| -> BTreeSet<String> {
            plan(&q, config)
                .unwrap()
                .execute(&catalog, ExecOptions::default())
                .unwrap()
                .rows
                .iter()
                .map(|r| r.to_string())
                .collect()
        };
        let serial = run(PlannerConfig::stream());
        let naive = run(PlannerConfig::naive());
        assert_eq!(serial, naive, "serial vs naive for {op:?}");
        for k in [2, 4, 8] {
            let par = run(PlannerConfig::stream().with_parallelism(k));
            assert_eq!(par, serial, "parallel k={k} vs serial for {op:?}");
        }
    }
}
