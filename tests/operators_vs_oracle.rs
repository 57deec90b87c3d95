//! Cross-crate operator correctness at scale: every §4 stream operator is
//! checked against the no-GC [`BufferedJoin`] oracle (and direct filters)
//! on thousands of generated tuples across several workload shapes.

use tdb::prelude::*;

fn workloads() -> Vec<(&'static str, Vec<TsTuple>, Vec<TsTuple>)> {
    vec![
        (
            "dense-overlap",
            IntervalGen::poisson(2_000, 2.0, 30.0, 10).generate(),
            IntervalGen::poisson(2_000, 2.0, 30.0, 11).generate(),
        ),
        (
            "sparse",
            IntervalGen::poisson(2_000, 50.0, 5.0, 12).generate(),
            IntervalGen::poisson(2_000, 50.0, 5.0, 13).generate(),
        ),
        (
            "nested",
            tdb::gen::intervals::nested_stream(1_500, 0.7, 14),
            tdb::gen::intervals::nested_stream(1_500, 0.7, 15),
        ),
        (
            "skewed-durations",
            IntervalGen {
                count: 1_500,
                arrivals: ArrivalProcess::Poisson { mean_gap: 4.0 },
                durations: DurationDist::Pareto {
                    scale: 2.0,
                    alpha: 1.3,
                },
                start_at: 0,
                seed: 16,
            }
            .generate(),
            IntervalGen::poisson(1_500, 4.0, 10.0, 17).generate(),
        ),
    ]
}

type Key = (i64, i64, i64);

fn key(t: &TsTuple) -> Key {
    (
        t.ts().ticks(),
        t.te().ticks(),
        t.value.as_int().unwrap_or(0),
    )
}

fn canon_pairs(mut v: Vec<(TsTuple, TsTuple)>) -> Vec<(Key, Key)> {
    let mut out: Vec<_> = v.drain(..).map(|(a, b)| (key(&a), key(&b))).collect();
    out.sort_unstable();
    out
}

fn canon(mut v: Vec<TsTuple>) -> Vec<Key> {
    let mut out: Vec<_> = v.drain(..).map(|t| key(&t)).collect();
    out.sort_unstable();
    out
}

fn oracle_pairs(
    xs: &[TsTuple],
    ys: &[TsTuple],
    pred: impl Fn(&Period, &Period) -> bool,
) -> Vec<(Key, Key)> {
    let mut j = BufferedJoin::new(from_vec(xs.to_vec()), from_vec(ys.to_vec()), |a, b| {
        pred(&a.period, &b.period)
    });
    canon_pairs(j.collect_vec().unwrap())
}

#[test]
fn contain_joins_match_oracle_on_all_workloads() {
    for (label, xs, ys) in workloads() {
        let expected = oracle_pairs(&xs, &ys, |a, b| a.contains(b));

        let mut xs_ts = xs.clone();
        StreamOrder::TS_ASC.sort(&mut xs_ts);
        let mut ys_ts = ys.clone();
        StreamOrder::TS_ASC.sort(&mut ys_ts);
        let mut j = ContainJoinTsTs::new(
            from_sorted_vec(xs_ts.clone(), StreamOrder::TS_ASC).unwrap(),
            from_sorted_vec(ys_ts, StreamOrder::TS_ASC).unwrap(),
            ReadPolicy::LambdaGuided {
                lambda_x: 0.5,
                lambda_y: 0.5,
            },
        )
        .unwrap();
        assert_eq!(
            canon_pairs(j.collect_vec().unwrap()),
            expected,
            "{label} TsTs"
        );

        let mut ys_te = ys.clone();
        StreamOrder::TE_ASC.sort(&mut ys_te);
        let mut j = OpConfig::new()
            .contain_join_ts_te(
                from_sorted_vec(xs_ts, StreamOrder::TS_ASC).unwrap(),
                from_sorted_vec(ys_te, StreamOrder::TE_ASC).unwrap(),
            )
            .unwrap();
        assert_eq!(
            canon_pairs(j.collect_vec().unwrap()),
            expected,
            "{label} TsTe"
        );
    }
}

#[test]
fn semijoins_match_direct_filters() {
    for (label, xs, ys) in workloads() {
        let expect_contain: Vec<_> = canon(
            xs.iter()
                .filter(|x| ys.iter().any(|y| x.period.contains(&y.period)))
                .cloned()
                .collect(),
        );
        let expect_contained: Vec<_> = canon(
            xs.iter()
                .filter(|x| ys.iter().any(|y| y.period.contains(&x.period)))
                .cloned()
                .collect(),
        );

        // Stab algorithms (Figure 6).
        let mut xs_ts = xs.clone();
        StreamOrder::TS_ASC.sort(&mut xs_ts);
        let mut ys_te = ys.clone();
        StreamOrder::TE_ASC.sort(&mut ys_te);
        let mut op = OpConfig::new()
            .contain_semijoin_stab(
                from_sorted_vec(xs_ts.clone(), StreamOrder::TS_ASC).unwrap(),
                from_sorted_vec(ys_te, StreamOrder::TE_ASC).unwrap(),
            )
            .unwrap();
        assert_eq!(
            canon(op.collect_vec().unwrap()),
            expect_contain,
            "{label} stab"
        );

        let mut xs_te = xs.clone();
        StreamOrder::TE_ASC.sort(&mut xs_te);
        let mut ys_ts = ys.clone();
        StreamOrder::TS_ASC.sort(&mut ys_ts);
        let mut op = OpConfig::new()
            .contained_semijoin_stab(
                from_sorted_vec(xs_te, StreamOrder::TE_ASC).unwrap(),
                from_sorted_vec(ys_ts.clone(), StreamOrder::TS_ASC).unwrap(),
            )
            .unwrap();
        assert_eq!(
            canon(op.collect_vec().unwrap()),
            expect_contained,
            "{label} contained stab"
        );

        // Sweep algorithms (TS↑/TS↑, Table 1 state (c)).
        let mut op = SweepSemijoin::contain(
            from_sorted_vec(xs_ts.clone(), StreamOrder::TS_ASC).unwrap(),
            from_sorted_vec(ys_ts.clone(), StreamOrder::TS_ASC).unwrap(),
            ReadPolicy::MinKey,
        )
        .unwrap();
        assert_eq!(
            canon(op.collect_vec().unwrap()),
            expect_contain,
            "{label} sweep"
        );

        let mut op = SweepSemijoin::contained(
            from_sorted_vec(xs_ts, StreamOrder::TS_ASC).unwrap(),
            from_sorted_vec(ys_ts, StreamOrder::TS_ASC).unwrap(),
            ReadPolicy::MinKey,
        )
        .unwrap();
        assert_eq!(
            canon(op.collect_vec().unwrap()),
            expect_contained,
            "{label} sweep contained"
        );
    }
}

#[test]
fn overlap_operators_match_oracle() {
    for (label, xs, ys) in workloads() {
        for mode in [OverlapMode::Strict, OverlapMode::General] {
            let expected = oracle_pairs(&xs, &ys, |a, b| mode.matches(a, b));
            let mut xs_ts = xs.clone();
            StreamOrder::TS_ASC.sort(&mut xs_ts);
            let mut ys_ts = ys.clone();
            StreamOrder::TS_ASC.sort(&mut ys_ts);
            let mut j = OpConfig::new()
                .with_mode(mode)
                .with_policy(ReadPolicy::Alternate)
                .overlap_join(
                    from_sorted_vec(xs_ts, StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys_ts, StreamOrder::TS_ASC).unwrap(),
                )
                .unwrap();
            assert_eq!(
                canon_pairs(j.collect_vec().unwrap()),
                expected,
                "{label} {mode:?}"
            );
        }
    }
}

#[test]
fn self_semijoins_match_quadratic_reference() {
    for (label, xs, _) in workloads() {
        let contained_ref: Vec<_> = canon(
            xs.iter()
                .enumerate()
                .filter(|(i, x)| {
                    xs.iter()
                        .enumerate()
                        .any(|(j, y)| *i != j && y.period.contains(&x.period))
                })
                .map(|(_, x)| x.clone())
                .collect(),
        );
        let mut sorted = xs.clone();
        StreamOrder::TS_ASC_TE_ASC.sort(&mut sorted);
        let mut op = ContainedSelfSemijoin::new(
            from_sorted_vec(sorted, StreamOrder::TS_ASC_TE_ASC).unwrap(),
        )
        .unwrap();
        assert_eq!(canon(op.collect_vec().unwrap()), contained_ref, "{label}");
        assert!(op.max_workspace() <= 1, "{label}: Table 3 state (a)");
    }
}

#[test]
fn before_join_count_matches_pair_arithmetic() {
    let xs = IntervalGen::poisson(3_000, 5.0, 10.0, 20).generate();
    let ys = IntervalGen::poisson(3_000, 5.0, 10.0, 21).generate();
    let expected: u64 = xs
        .iter()
        .map(|x| ys.iter().filter(|y| x.period.before(&y.period)).count() as u64)
        .sum();
    let op = BeforeJoin::new(from_vec(xs), from_vec(ys)).unwrap();
    assert_eq!(op.count().unwrap(), expected);
}

#[test]
fn event_joins_match_oracle_on_dense_keyspace() {
    // Dense integer key space so timestamp equalities are common.
    let xs: Vec<TsTuple> = (0..800)
        .map(|i| TsTuple::new(format!("x{i}"), i, i % 40, i % 40 + 1 + (i % 7)).unwrap())
        .collect();
    let ys: Vec<TsTuple> = (0..800)
        .map(|i| TsTuple::new(format!("y{i}"), i, i % 37, i % 37 + 1 + (i % 5)).unwrap())
        .collect();
    let expected = oracle_pairs(&xs, &ys, |a, b| a.meets(b));
    let mut xs_te = xs.clone();
    StreamOrder::TE_ASC.sort(&mut xs_te);
    let mut ys_ts = ys.clone();
    StreamOrder::TS_ASC.sort(&mut ys_ts);
    let mut j = EventMergeJoin::meets(
        from_sorted_vec(xs_te, StreamOrder::TE_ASC).unwrap(),
        from_sorted_vec(ys_ts, StreamOrder::TS_ASC).unwrap(),
    )
    .unwrap();
    assert_eq!(canon_pairs(j.collect_vec().unwrap()), expected);
    assert!(!expected.is_empty());
}
