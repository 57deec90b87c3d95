//! Cross-crate operator correctness at scale: every §4 stream kernel,
//! run through the dispatch, is checked against the no-GC
//! [`buffered_join`] reference (and direct filters) on thousands of
//! generated tuples across several workload shapes.

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
    canon_pairs(buffered_join(xs, ys, |a, b| pred(&a.period, &b.period)).0)
}

fn sorted(xs: &[TsTuple], order: StreamOrder) -> Vec<TsTuple> {
    let mut v = xs.to_vec();
    order.sort(&mut v);
    v
}

fn join(kind: StreamOpKind, cfg: OpConfig, xs: Vec<TsTuple>, ys: Vec<TsTuple>) -> Vec<(Key, Key)> {
    canon_pairs(collect(|e| run_join(kind, cfg, xs, ys, e)).unwrap().0)
}

fn semijoin(kind: StreamOpKind, xs: Vec<TsTuple>, ys: Vec<TsTuple>) -> Vec<Key> {
    let cfg = OpConfig::new();
    canon(collect(|e| run_semijoin(kind, cfg, xs, ys, e)).unwrap().0)
}

#[test]
fn contain_joins_match_oracle_on_all_workloads() {
    for (label, xs, ys) in workloads() {
        let expected = oracle_pairs(&xs, &ys, |a, b| a.contains(b));
        let xs_ts = sorted(&xs, StreamOrder::TS_ASC);
        let lambda = OpConfig::new().with_policy(ReadPolicy::LambdaGuided {
            lambda_x: 0.5,
            lambda_y: 0.5,
        });
        let kind = StreamOpKind::ContainJoinTsTs;
        let got = join(
            kind,
            lambda,
            xs_ts.clone(),
            sorted(&ys, StreamOrder::TS_ASC),
        );
        assert_eq!(got, expected, "{label} TsTs");
        let kind = StreamOpKind::ContainJoinTsTe;
        let got = join(
            kind,
            OpConfig::new(),
            xs_ts,
            sorted(&ys, StreamOrder::TE_ASC),
        );
        assert_eq!(got, expected, "{label} TsTe");
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
        let (xs_ts, ys_ts) = (
            sorted(&xs, StreamOrder::TS_ASC),
            sorted(&ys, StreamOrder::TS_ASC),
        );

        // Stab algorithms (Figure 6).
        let ys_te = sorted(&ys, StreamOrder::TE_ASC);
        let got = semijoin(StreamOpKind::ContainSemijoinStab, xs_ts.clone(), ys_te);
        assert_eq!(got, expect_contain, "{label} stab");
        let xs_te = sorted(&xs, StreamOrder::TE_ASC);
        let got = semijoin(StreamOpKind::ContainedSemijoinStab, xs_te, ys_ts.clone());
        assert_eq!(got, expect_contained, "{label} contained stab");

        // Sweep algorithms (TS↑/TS↑, Table 1 state (c)).
        let got = semijoin(StreamOpKind::SweepSemijoin, xs_ts.clone(), ys_ts.clone());
        assert_eq!(got, expect_contain, "{label} sweep");
        let ts = Some(StreamOrder::TS_ASC);
        let op = SweepSemijoin::contained(ReadPolicy::MinKey);
        let (got, _) = collect(|e| run_kernel(op, 256, xs_ts, ts, ys_ts, ts, e)).unwrap();
        assert_eq!(canon(got), expect_contained, "{label} sweep contained");
    }
}

#[test]
fn overlap_operators_match_oracle() {
    for (label, xs, ys) in workloads() {
        for mode in [OverlapMode::Strict, OverlapMode::General] {
            let expected = oracle_pairs(&xs, &ys, |a, b| mode.matches(a, b));
            let cfg = OpConfig::new()
                .with_mode(mode)
                .with_policy(ReadPolicy::Alternate);
            let (x, y) = (
                sorted(&xs, StreamOrder::TS_ASC),
                sorted(&ys, StreamOrder::TS_ASC),
            );
            let got = join(StreamOpKind::OverlapJoin, cfg, x, y);
            assert_eq!(got, expected, "{label} {mode:?}");
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
        let xs = sorted(&xs, StreamOrder::TS_ASC_TE_ASC);
        let kind = StreamOpKind::ContainedSelfSemijoin;
        let (got, report) = collect(|e| run_self_semijoin(kind, OpConfig::new(), xs, e)).unwrap();
        assert_eq!(canon(got), contained_ref, "{label}");
        assert!(report.max_workspace() <= 1, "{label}: Table 3 state (a)");
    }
}

#[test]
fn before_join_count_matches_pair_arithmetic() {
    let xs = IntervalGen::poisson(3_000, 5.0, 10.0, 20).generate();
    let ys = IntervalGen::poisson(3_000, 5.0, 10.0, 21).generate();
    let expected = xs
        .iter()
        .map(|x| ys.iter().filter(|y| x.period.before(&y.period)).count())
        .sum::<usize>();
    let cfg = OpConfig::new();
    let (_, report) = run_join(StreamOpKind::BeforeJoin, cfg, xs, ys, Emit::Count).unwrap();
    assert_eq!(report.metrics.emitted, expected);
}
