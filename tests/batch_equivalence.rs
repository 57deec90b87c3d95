//! Randomized batch-size invariance of the stream kernels, checked
//! against the nested-loop Allen oracle.
//!
//! The kernels of `tdb_stream::batch_ops` are the only implementation of
//! their operators, and the batch size they are fed at is a pure
//! execution knob: for every dispatchable operator kind, every batch
//! size, and every parallelism degree, a run must produce the **same
//! output sequence**, the **same read/comparison/emit counters**, the
//! **same GC discards** and the **same observed workspace peak**. The
//! workspace invariance is what lets the static analyzer's workspace-cap
//! proofs hold at whatever size a client sets — a batch-size-dependent
//! peak would invalidate every certificate.
//!
//! Invariance alone would accept a kernel that is wrong at every size, so
//! each output is also compared, as a set, with an independent
//! definition: a nested loop over all pairs that classifies each pair's
//! Allen relation from its endpoint order ([`AllenRelation::classify`])
//! and keeps the pairs whose relation the operator denotes.

use proptest::prelude::*;
use tdb::prelude::*;
use tdb::stream::{run_join, run_semijoin, Emit, StreamOpKind};

/// The batch sizes under test: degenerate (1, the pull adapter's feed),
/// sub-default (64), and the default (1024, larger than every generated
/// input so a whole side lands in one batch).
const BATCH_SIZES: [usize; 3] = [1, 64, 1024];

/// The parallelism degrees under test.
const PARTITIONS: [usize; 2] = [1, 4];

/// Distinct surrogates make sequence comparison exact even when periods
/// repeat.
fn tuples(raw: &[(i64, i64)]) -> Vec<TsTuple> {
    raw.iter()
        .enumerate()
        .map(|(i, &(start, dur))| {
            TsTuple::new(i as i64, Value::Null, start, start + dur.max(1)).unwrap()
        })
        .collect()
}

fn interval_vec() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..400, 1i64..60), 0..120)
}

fn sorted(mut v: Vec<TsTuple>, o: StreamOrder) -> Vec<TsTuple> {
    o.sort(&mut v);
    v
}

/// Does `x <pattern> y` hold, by Allen classification of the endpoint
/// order alone? General overlap is "the lifespans share a point": every
/// relation but the four with a gap or a bare touch between them.
fn allen_holds(pattern: ParallelPattern, x: &TsTuple, y: &TsTuple) -> bool {
    use AllenRelation::{After, Before, Contains, During, Meets, MetBy, Overlaps};
    let rel = AllenRelation::classify(&x.period, &y.period);
    match pattern {
        ParallelPattern::Contains => rel == Contains,
        ParallelPattern::During => rel == During,
        ParallelPattern::AllenOverlaps => rel == Overlaps,
        ParallelPattern::GeneralOverlap => !matches!(rel, Before | Meets | MetBy | After),
    }
}

/// The oracle: every matching pair, by nested loop, as `(x id, y id)`.
fn oracle_pairs(pattern: ParallelPattern, xs: &[TsTuple], ys: &[TsTuple]) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    for x in xs {
        for y in ys {
            if allen_holds(pattern, x, y) {
                out.push((id(x), id(y)));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The semijoin oracle: ids of the X tuples with at least one match.
fn oracle_kept(pattern: ParallelPattern, xs: &[TsTuple], ys: &[TsTuple]) -> Vec<i64> {
    let mut out: Vec<i64> = xs
        .iter()
        .filter(|x| ys.iter().any(|y| allen_holds(pattern, x, y)))
        .map(id)
        .collect();
    out.sort_unstable();
    out
}

fn id(t: &TsTuple) -> i64 {
    t.surrogate.as_int().unwrap()
}

fn pair_ids(pairs: &[(TsTuple, TsTuple)]) -> Vec<(i64, i64)> {
    let mut out: Vec<_> = pairs.iter().map(|(x, y)| (id(x), id(y))).collect();
    out.sort_unstable();
    out
}

fn kept_ids(kept: &[TsTuple]) -> Vec<i64> {
    let mut out: Vec<_> = kept.iter().map(id).collect();
    out.sort_unstable();
    out
}

/// One dispatchable operator: its kind, required input orders, config,
/// and the relationship it computes.
type Case = (
    StreamOpKind,
    StreamOrder,
    StreamOrder,
    OpConfig,
    ParallelPattern,
);

fn join_cases() -> Vec<Case> {
    vec![
        (
            StreamOpKind::ContainJoinTsTe,
            StreamOrder::TS_ASC,
            StreamOrder::TE_ASC,
            OpConfig::new(),
            ParallelPattern::Contains,
        ),
        (
            StreamOpKind::OverlapJoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::General),
            ParallelPattern::GeneralOverlap,
        ),
        (
            StreamOpKind::OverlapJoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::Strict),
            ParallelPattern::AllenOverlaps,
        ),
    ]
}

fn semijoin_cases() -> Vec<Case> {
    vec![
        (
            StreamOpKind::ContainSemijoinStab,
            StreamOrder::TS_ASC,
            StreamOrder::TE_ASC,
            OpConfig::new(),
            ParallelPattern::Contains,
        ),
        (
            StreamOpKind::ContainedSemijoinStab,
            StreamOrder::TE_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new(),
            ParallelPattern::During,
        ),
        (
            StreamOpKind::OverlapSemijoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::General),
            ParallelPattern::GeneralOverlap,
        ),
        (
            StreamOpKind::OverlapSemijoin,
            StreamOrder::TS_ASC,
            StreamOrder::TS_ASC,
            OpConfig::new().with_mode(OverlapMode::Strict),
            ParallelPattern::AllenOverlaps,
        ),
    ]
}

/// Reports must agree on every externally observable counter, not just
/// the output: reads, comparisons, emits, GC discards and the workspace
/// peak.
fn assert_reports_match(got: &OpReport, base: &OpReport, what: &str) {
    assert_eq!(
        got.metrics, base.metrics,
        "{what}: throughput counters diverged"
    );
    assert_eq!(
        got.max_workspace(),
        base.max_workspace(),
        "{what}: workspace peak must be batch-size-invariant"
    );
    assert_eq!(
        got.workspace.discarded, base.workspace.discarded,
        "{what}: GC eviction counts diverged"
    );
}

/// Run `f` with a chunk closure that collects everything it is handed.
fn collecting<T, R>(f: impl FnOnce(&mut dyn FnMut(Vec<T>) -> TdbResult<bool>) -> R) -> (Vec<T>, R) {
    let mut out = Vec::new();
    let result = f(&mut |chunk| {
        out.extend(chunk);
        Ok(true)
    });
    (out, result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Joins: one output sequence and one report across every batch
    /// size, and that output is the oracle's match set.
    #[test]
    fn joins_are_batch_size_invariant_and_match_the_oracle(
        xs in interval_vec(),
        ys in interval_vec(),
    ) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for (kind, xo, yo, cfg, pattern) in join_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let run = |rows: usize| {
                let cfg = cfg.with_batch_rows(rows);
                let (out, (done, rep)) = collecting(|c| {
                    run_join(kind, cfg, x.clone(), xo, y.clone(), yo, Emit::Chunks(c)).unwrap()
                });
                assert!(done);
                (out, rep)
            };
            let (base_out, base_rep) = run(BATCH_SIZES[0]);
            prop_assert_eq!(
                pair_ids(&base_out), oracle_pairs(pattern, &xs, &ys),
                "{} vs the Allen oracle", kind
            );
            for rows in &BATCH_SIZES[1..] {
                let (out, rep) = run(*rows);
                prop_assert_eq!(&out, &base_out, "{} batch {}", kind, rows);
                assert_reports_match(&rep, &base_rep, &format!("{kind} batch {rows}"));
            }
        }
    }

    /// Semijoins: one kept-tuple sequence and one report across every
    /// batch size, and the kept set is the oracle's.
    #[test]
    fn semijoins_are_batch_size_invariant_and_match_the_oracle(
        xs in interval_vec(),
        ys in interval_vec(),
    ) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for (kind, xo, yo, cfg, pattern) in semijoin_cases() {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let run = |rows: usize| {
                let cfg = cfg.with_batch_rows(rows);
                let (out, (done, rep)) = collecting(|c| {
                    run_semijoin(kind, cfg, x.clone(), xo, y.clone(), yo, Emit::Chunks(c)).unwrap()
                });
                assert!(done);
                (out, rep)
            };
            let (base_out, base_rep) = run(BATCH_SIZES[0]);
            prop_assert_eq!(
                kept_ids(&base_out), oracle_kept(pattern, &xs, &ys),
                "{} vs the Allen oracle", kind
            );
            for rows in &BATCH_SIZES[1..] {
                let (out, rep) = run(*rows);
                prop_assert_eq!(&out, &base_out, "{} batch {}", kind, rows);
                assert_reports_match(&rep, &base_rep, &format!("{kind} batch {rows}"));
            }
        }
    }

    /// Partitioned-parallel execution: for K ∈ {1, 4}, every batch size
    /// gives the same deduplicated output, the same aggregate and
    /// per-partition reports, and the oracle's match set.
    #[test]
    fn parallel_runs_are_batch_size_invariant_and_match_the_oracle(
        xs in interval_vec(),
        ys in interval_vec(),
    ) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for pattern in [
            ParallelPattern::Contains,
            ParallelPattern::During,
            ParallelPattern::GeneralOverlap,
            ParallelPattern::AllenOverlaps,
        ] {
            for k in PARTITIONS {
                let join = |rows: usize| {
                    let cfg = OpConfig::new().with_batch_rows(rows);
                    collecting(|c| parallel_join(pattern, xs.clone(), ys.clone(), k, cfg, c).unwrap())
                };
                let semi = |rows: usize| {
                    let cfg = OpConfig::new().with_batch_rows(rows);
                    collecting(|c| {
                        parallel_semijoin(pattern, xs.clone(), ys.clone(), k, cfg, c).unwrap()
                    })
                };
                let (base_pairs, base_join) = join(BATCH_SIZES[0]);
                let (base_kept, base_semi) = semi(BATCH_SIZES[0]);
                prop_assert_eq!(
                    pair_ids(&base_pairs), oracle_pairs(pattern, &xs, &ys),
                    "{:?} join K={} vs the Allen oracle", pattern, k
                );
                prop_assert_eq!(
                    kept_ids(&base_kept), oracle_kept(pattern, &xs, &ys),
                    "{:?} semijoin K={} vs the Allen oracle", pattern, k
                );
                for rows in &BATCH_SIZES[1..] {
                    let what = format!("{pattern:?} K={k} batch {rows}");
                    let (pairs, run) = join(*rows);
                    prop_assert_eq!(&pairs, &base_pairs, "join {}", what);
                    assert_reports_match(&run.report, &base_join.report, &format!("join {what}"));
                    prop_assert_eq!(&run.per_partition, &base_join.per_partition, "join {}", what);
                    let (kept, run) = semi(*rows);
                    prop_assert_eq!(&kept, &base_kept, "semijoin {}", what);
                    assert_reports_match(&run.report, &base_semi.report, &format!("semijoin {what}"));
                    prop_assert_eq!(&run.per_partition, &base_semi.per_partition, "semijoin {}", what);
                }
            }
        }
    }
}
