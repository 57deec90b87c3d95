//! Randomized batch-size invariance of every stream kernel, checked
//! against nested-loop oracles.
//!
//! The kernels are the only implementation of their operators, and the
//! batch size they are fed at is a pure execution knob: for every
//! [`StreamOpKind`] (the suite iterates `StreamOpKind::ALL`, and
//! [`cases`] names every kind, so a kind added without a case does not
//! compile), every batch size, and every parallelism degree, a run must
//! produce the **same output sequence**, the **same
//! read/comparison/emit counters**, the **same GC discards** and the
//! **same observed workspace peak**. The workspace invariance is what lets
//! the static analyzer's workspace-cap proofs hold at whatever size a
//! client sets — a batch-size-dependent peak would invalidate every
//! certificate.
//!
//! Invariance alone would accept a kernel that is wrong at every size, so
//! each output is also compared, as a set, with an independent
//! definition: a nested loop over all pairs that classifies each pair's
//! Allen relation from its endpoint order ([`AllenRelation::classify`])
//! and keeps the pairs whose relation the operator denotes — for the
//! self semijoins, over all pairs of distinct tuples of the one input.

use proptest::prelude::*;
use tdb::prelude::*;

/// The batch sizes under test: degenerate (1, the tuple-at-a-time
/// algorithm), sub-default (64), and the default (1024, larger than every
/// generated input so a whole side lands in one batch).
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

/// The input sorted as a kernel input must be (`None`: as it came).
fn sorted(mut v: Vec<TsTuple>, o: Option<StreamOrder>) -> Vec<TsTuple> {
    if let Some(o) = o {
        o.sort(&mut v);
    }
    v
}

/// The relationship an operator computes between `x` and its partner.
#[derive(Debug, Clone, Copy)]
enum Rel {
    /// One Allen relation.
    Allen(AllenRelation),
    /// The lifespans share a point: every relation but the four with a
    /// gap or a bare touch between them.
    GeneralOverlap,
}

impl Rel {
    fn holds(self, x: &TsTuple, y: &TsTuple) -> bool {
        use AllenRelation::{After, Before, Meets, MetBy};
        let rel = AllenRelation::classify(&x.period, &y.period);
        match self {
            Rel::Allen(r) => rel == r,
            Rel::GeneralOverlap => !matches!(rel, Before | Meets | MetBy | After),
        }
    }
}

/// Which entry point of the dispatch runs a kind.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Join,
    Semijoin,
    SelfSemijoin,
}

/// Every configuration a kind is checked under: entry point, config and
/// the relation it computes.
fn cases(kind: StreamOpKind) -> Vec<(Entry, OpConfig, Rel)> {
    use AllenRelation::{Before, Contains, During, Overlaps};
    let cfg = OpConfig::new();
    let policies = [ReadPolicy::MinKey, ReadPolicy::Alternate].map(|p| cfg.with_policy(p));
    let general = cfg.with_mode(OverlapMode::General);
    let strict = cfg.with_mode(OverlapMode::Strict);
    let contains = Rel::Allen(Contains);
    match kind {
        StreamOpKind::ContainJoinTsTs => policies.map(|c| (Entry::Join, c, contains)).to_vec(),
        StreamOpKind::ContainJoinTsTe => vec![(Entry::Join, cfg, contains)],
        StreamOpKind::OverlapJoin => vec![
            (Entry::Join, general, Rel::GeneralOverlap),
            (Entry::Join, strict, Rel::Allen(Overlaps)),
        ],
        StreamOpKind::BeforeJoin => vec![(Entry::Join, cfg, Rel::Allen(Before))],
        StreamOpKind::SweepSemijoin => policies.map(|c| (Entry::Semijoin, c, contains)).to_vec(),
        StreamOpKind::ContainSemijoinStab => vec![(Entry::Semijoin, cfg, contains)],
        StreamOpKind::ContainedSemijoinStab => vec![(Entry::Semijoin, cfg, Rel::Allen(During))],
        StreamOpKind::OverlapSemijoin => vec![
            (Entry::Semijoin, general, Rel::GeneralOverlap),
            (Entry::Semijoin, strict, Rel::Allen(Overlaps)),
        ],
        StreamOpKind::BeforeSemijoin => vec![(Entry::Semijoin, cfg, Rel::Allen(Before))],
        StreamOpKind::ContainedSelfSemijoin => {
            vec![(Entry::SelfSemijoin, cfg, Rel::Allen(During))]
        }
        StreamOpKind::ContainSelfSemijoin | StreamOpKind::ContainSelfSemijoinDesc => {
            vec![(Entry::SelfSemijoin, cfg, contains)]
        }
    }
}

/// The relation a partitioned-parallel pattern computes.
fn parallel_rel(pattern: ParallelPattern) -> Rel {
    match pattern {
        ParallelPattern::Contains => Rel::Allen(AllenRelation::Contains),
        ParallelPattern::During => Rel::Allen(AllenRelation::During),
        ParallelPattern::AllenOverlaps => Rel::Allen(AllenRelation::Overlaps),
        ParallelPattern::GeneralOverlap => Rel::GeneralOverlap,
    }
}

/// The oracle: every matching pair, by nested loop, as `(x id, y id)`.
fn oracle_pairs(rel: Rel, xs: &[TsTuple], ys: &[TsTuple]) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    for x in xs {
        for y in ys {
            if rel.holds(x, y) {
                out.push((id(x), id(y)));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The semijoin oracle: ids of the X tuples with at least one match.
fn oracle_kept(rel: Rel, xs: &[TsTuple], ys: &[TsTuple]) -> Vec<i64> {
    let mut out: Vec<i64> = xs
        .iter()
        .filter(|x| ys.iter().any(|y| rel.holds(x, y)))
        .map(id)
        .collect();
    out.sort_unstable();
    out
}

/// The self-semijoin oracle: ids of the tuples related to another tuple
/// of the same input.
fn oracle_self(rel: Rel, xs: &[TsTuple]) -> Vec<i64> {
    let mut out: Vec<i64> = xs
        .iter()
        .filter(|x| xs.iter().any(|y| id(x) != id(y) && rel.holds(x, y)))
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

    /// Every join kind: one output sequence and one report across every
    /// batch size, and that output is the oracle's match set.
    #[test]
    fn joins_are_batch_size_invariant_and_match_the_oracle(
        xs in interval_vec(),
        ys in interval_vec(),
    ) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for kind in StreamOpKind::ALL {
            for (_, cfg, rel) in cases(kind).into_iter().filter(|c| c.0 == Entry::Join) {
                let req = kind.requirement();
                let x = sorted(xs.clone(), req.left());
                let y = sorted(ys.clone(), req.right());
                let run = |rows: usize| {
                    let cfg = cfg.with_batch_rows(rows);
                    collect(|e| run_join(kind, cfg, x.clone(), y.clone(), e)).unwrap()
                };
                let (base_out, base_rep) = run(BATCH_SIZES[0]);
                prop_assert_eq!(
                    pair_ids(&base_out), oracle_pairs(rel, &xs, &ys),
                    "{} {:?} vs the Allen oracle", kind, rel
                );
                for rows in &BATCH_SIZES[1..] {
                    let (out, rep) = run(*rows);
                    prop_assert_eq!(&out, &base_out, "{} batch {}", kind, rows);
                    assert_reports_match(&rep, &base_rep, &format!("{kind} batch {rows}"));
                }
            }
        }
    }

    /// Every semijoin and self-semijoin kind: one kept-tuple sequence and
    /// one report across every batch size, and the kept set is the
    /// oracle's.
    #[test]
    fn semijoins_are_batch_size_invariant_and_match_the_oracle(
        xs in interval_vec(),
        ys in interval_vec(),
    ) {
        let xs = tuples(&xs);
        let ys = tuples(&ys);
        for kind in StreamOpKind::ALL {
            for (entry, cfg, rel) in cases(kind).into_iter().filter(|c| c.0 != Entry::Join) {
                let req = kind.requirement();
                let x = sorted(xs.clone(), req.left());
                let y = sorted(ys.clone(), req.right());
                let run = |rows: usize| {
                    let cfg = cfg.with_batch_rows(rows);
                    collect(|e| match entry {
                        Entry::SelfSemijoin => run_self_semijoin(kind, cfg, x.clone(), e),
                        _ => run_semijoin(kind, cfg, x.clone(), y.clone(), e),
                    })
                    .unwrap()
                };
                let (base_out, base_rep) = run(BATCH_SIZES[0]);
                let expected = match entry {
                    Entry::SelfSemijoin => oracle_self(rel, &xs),
                    _ => oracle_kept(rel, &xs, &ys),
                };
                prop_assert_eq!(
                    kept_ids(&base_out), expected,
                    "{} {:?} vs the oracle", kind, rel
                );
                for rows in &BATCH_SIZES[1..] {
                    let (out, rep) = run(*rows);
                    prop_assert_eq!(&out, &base_out, "{} batch {}", kind, rows);
                    assert_reports_match(&rep, &base_rep, &format!("{kind} batch {rows}"));
                }
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
                    pair_ids(&base_pairs), oracle_pairs(parallel_rel(pattern), &xs, &ys),
                    "{:?} join K={} vs the Allen oracle", pattern, k
                );
                prop_assert_eq!(
                    kept_ids(&base_kept), oracle_kept(parallel_rel(pattern), &xs, &ys),
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
