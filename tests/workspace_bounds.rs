//! Empirical validation of the paper's workspace characterizations
//! (Tables 1–3) at integration scale: measured high-water marks vs. the
//! analytic predictions of the cost model (Little's law).

use tdb::algebra::cost::{predict_workspace, WorkspaceKind};
use tdb::prelude::*;
use tdb_oracle::buffered_join;

/// Sort both sides into `kind`'s registry orders and run it (a join or
/// a semijoin) to the end: output size and report.
fn run(kind: StreamOpKind, cfg: OpConfig, xs: &[TsTuple], ys: &[TsTuple]) -> (usize, OpReport) {
    let req = kind.requirement();
    let (mut x, mut y) = (xs.to_vec(), ys.to_vec());
    req.left().unwrap().sort(&mut x);
    req.right().unwrap().sort(&mut y);
    let join = [
        StreamOpKind::ContainJoinTsTs,
        StreamOpKind::ContainJoinTsTe,
        StreamOpKind::OverlapJoin,
    ];
    if join.contains(&kind) {
        let (out, report) = collect(|e| run_join(kind, cfg, x, y, e)).unwrap();
        (out.len(), report)
    } else {
        let (out, report) = collect(|e| run_semijoin(kind, cfg, x, y, e)).unwrap();
        (out.len(), report)
    }
}

fn stream_pair(
    mean_gap: f64,
    mean_dur: f64,
    n: usize,
    seeds: (u64, u64),
) -> (Vec<TsTuple>, Vec<TsTuple>) {
    (
        IntervalGen::poisson(n, mean_gap, mean_dur, seeds.0).generate(),
        IntervalGen::poisson(n, mean_gap, mean_dur, seeds.1).generate(),
    )
}

#[test]
fn contain_join_ts_te_workspace_follows_littles_law() {
    // λ = 1/4, E[D] = 60 → ≈15 spanning tuples.
    let (xs, ys) = stream_pair(4.0, 60.0, 20_000, (1, 2));
    let stats_x = TemporalStats::compute(&xs);
    let predicted = predict_workspace(
        WorkspaceKind::ContainJoinTsTe,
        &stats_x,
        Some(&TemporalStats::compute(&ys)),
    );

    let (_, join) = run(StreamOpKind::ContainJoinTsTe, OpConfig::new(), &xs, &ys);
    let measured = join.max_workspace() as f64;

    // Max of a Poisson-ish occupancy overshoots its mean; allow generous
    // but structure-preserving slack: same order of magnitude, and far
    // below the Θ(n) degenerate regime.
    assert!(
        measured < predicted * 6.0 + 20.0,
        "measured {measured} vs predicted {predicted}"
    );
    assert!(
        measured > predicted * 0.5,
        "measured {measured} suspiciously below prediction {predicted}"
    );
    assert!((measured as usize) < 1_000, "must be nowhere near Θ(n)");
}

#[test]
fn stab_semijoin_and_general_overlap_semijoin_use_buffers_only() {
    let (xs, ys) = stream_pair(3.0, 25.0, 15_000, (3, 4));
    let (n, op) = run(StreamOpKind::ContainSemijoinStab, OpConfig::new(), &xs, &ys);
    // Workspace is exactly the two buffers — nothing else is stored by
    // construction; verify it reports no state and emits sanely.
    assert!(n <= 15_000);
    assert_eq!(op.max_workspace(), 0, "Table 1 state (d): buffers only");

    let (_, op) = run(StreamOpKind::OverlapSemijoin, OpConfig::new(), &xs, &ys);
    assert_eq!(op.max_workspace(), 0, "Table 2 state (b): buffers only");
}

#[test]
fn contained_self_semijoin_single_state_tuple_at_scale() {
    let xs = tdb::gen::intervals::nested_stream(30_000, 0.5, 5);
    let kind = StreamOpKind::ContainedSelfSemijoin;
    let (_, op) = run_self_semijoin(kind, OpConfig::new(), xs, Emit::Count).unwrap();
    assert!(op.metrics.emitted > 0);
    assert!(op.max_workspace() <= 1, "Table 3 state (a)");
}

#[test]
fn degenerate_ordering_grows_linear_state() {
    // The "-" rows of Table 1: with no usable ordering, nothing can be
    // garbage-collected.
    let (xs, ys) = stream_pair(3.0, 25.0, 5_000, (6, 7));
    let (_, op) = buffered_join(&xs, &ys, |a: &TsTuple, b: &TsTuple| {
        a.period.contains(&b.period)
    });
    assert_eq!(op.max_workspace(), 10_000, "all tuples retained");
}

#[test]
fn workspace_grows_with_duration_not_cardinality() {
    // Table 1 state (a)/(b) depends on λ·E[D], not on n: doubling n at
    // fixed λ, E[D] leaves workspace flat; doubling E[D] doubles it.
    let run = |n: usize, dur: f64| -> usize {
        let (xs, ys) = stream_pair(4.0, dur, n, (8, 9));
        run(StreamOpKind::ContainJoinTsTe, OpConfig::new(), &xs, &ys)
            .1
            .max_workspace()
    };
    let small_n = run(5_000, 40.0);
    let big_n = run(20_000, 40.0);
    let long_d = run(5_000, 160.0);
    assert!(
        (big_n as f64) < (small_n as f64) * 2.5,
        "4× n should not grow workspace much: {small_n} → {big_n}"
    );
    assert!(
        (long_d as f64) > (small_n as f64) * 2.0,
        "4× duration should grow workspace: {small_n} → {long_d}"
    );
}

#[test]
fn read_policy_changes_workspace_but_not_output() {
    let (xs, ys) = stream_pair(3.0, 30.0, 8_000, (10, 11));
    let mut results = Vec::new();
    for policy in [
        ReadPolicy::MinKey,
        ReadPolicy::Alternate,
        ReadPolicy::LambdaGuided {
            lambda_x: 1.0 / 3.0,
            lambda_y: 1.0 / 3.0,
        },
    ] {
        let cfg = OpConfig::new().with_policy(policy);
        let (n, join) = run(StreamOpKind::ContainJoinTsTs, cfg, &xs, &ys);
        results.push((n, join.max_workspace()));
    }
    assert!(
        results.windows(2).all(|w| w[0].0 == w[1].0),
        "output count must be policy-independent: {results:?}"
    );
}
