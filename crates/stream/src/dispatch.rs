//! The execution entry points over materialized, sorted inputs.
//!
//! Every call site that runs a stream temporal operator over vectors —
//! the query executor, the partitioned-parallel workers, the experiment
//! harness — goes through [`run_join`] or [`run_semijoin`]: slice the
//! inputs into [`VecBatchStream`] batches of [`OpConfig::batch_rows`]
//! rows, pick the kernel of [`crate::batch_ops`] for the
//! [`StreamOpKind`], and [`drive`] it into an [`Emit`] mode. A caller
//! that wants a vector extends one from the chunk closure.
//!
//! Inputs must already be sorted into the orders the operator's registry
//! entry requires ([`StreamOpKind::requirement`]); the claimed order is
//! re-verified in O(n) and a violation fails with `OrderViolation`.

use crate::batch::VecBatchStream;
use crate::batch_ops::{
    drive, BatchOp, ContainJoinTsTe, ContainSemijoinStab, ContainedSemijoinStab, OverlapJoin,
    OverlapSemijoin,
};
use crate::report::{OpConfig, OpReport};
use crate::required::StreamOpKind;
use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal};

/// What a run does with the operator's output.
pub enum Emit<'a, T> {
    /// Count it: nothing is handed over, and `report.metrics.emitted` is
    /// the result. Join kernels then run count-only — the probe pass sums
    /// hits over the endpoint columns and never clones a payload.
    Count,
    /// Hand each output chunk to the closure as the kernel drains.
    /// Returning `false` stops the run (the sink has seen enough).
    Chunks(&'a mut dyn FnMut(Vec<T>) -> TdbResult<bool>),
}

/// Drive `op` over the two inputs into `emit`. The flag is `false` when
/// the closure stopped the run early; the report then covers only the
/// work done up to that point.
fn run<K: BatchOp>(
    mut op: K,
    mut left: VecBatchStream<K::LeftItem>,
    mut right: VecBatchStream<K::RightItem>,
    emit: Emit<'_, K::Out>,
) -> TdbResult<(bool, OpReport)> {
    let completed = match emit {
        Emit::Count => drive(&mut op, &mut left, &mut right, &mut |_| Ok(true))?,
        Emit::Chunks(f) => drive(&mut op, &mut left, &mut right, f)?,
    };
    Ok((completed, op.report()))
}

/// Run a stream temporal **join** of `kind` over pre-sorted inputs.
///
/// Supported kinds: [`StreamOpKind::ContainJoinTsTe`] and
/// [`StreamOpKind::OverlapJoin`] (mode and read policy from `cfg`) — the
/// kinds the planner emits for two-sided joins. Side swaps (e.g. `During`
/// running the `Contains` operator) are the caller's concern. Returns
/// `(completed, report)`; the report's metrics do not depend on the emit
/// mode or the batch size.
pub fn run_join<X, Y>(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: Vec<X>,
    x_order: StreamOrder,
    y: Vec<Y>,
    y_order: StreamOrder,
    emit: Emit<'_, (X, Y)>,
) -> TdbResult<(bool, OpReport)>
where
    X: Temporal + Clone,
    Y: Temporal + Clone,
{
    let x = VecBatchStream::from_sorted_vec(x, x_order, cfg.batch_rows)?;
    let y = VecBatchStream::from_sorted_vec(y, y_order, cfg.batch_rows)?;
    let count = matches!(emit, Emit::Count);
    match kind {
        StreamOpKind::ContainJoinTsTe => run(ContainJoinTsTe::new().count_only(count), x, y, emit),
        StreamOpKind::OverlapJoin => {
            let op = OverlapJoin::new(cfg.mode, cfg.policy).count_only(count);
            run(op, x, y, emit)
        }
        other => Err(TdbError::Plan(format!("no join kernel for {other}"))),
    }
}

/// Run a stream temporal **semijoin** of `kind` (left rows kept) over
/// pre-sorted inputs.
///
/// Supported kinds: [`StreamOpKind::ContainSemijoinStab`],
/// [`StreamOpKind::ContainedSemijoinStab`] (X sorted `ValidTo ↑`, Y — the
/// containers — sorted `ValidFrom ↑`) and [`StreamOpKind::OverlapSemijoin`]
/// (mode and read policy from `cfg`). Returns `(completed, report)` as
/// [`run_join`] does.
pub fn run_semijoin<X, Y>(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: Vec<X>,
    x_order: StreamOrder,
    y: Vec<Y>,
    y_order: StreamOrder,
    emit: Emit<'_, X>,
) -> TdbResult<(bool, OpReport)>
where
    X: Temporal + Clone,
    Y: Temporal + Clone,
{
    let x = VecBatchStream::from_sorted_vec(x, x_order, cfg.batch_rows)?;
    let y = VecBatchStream::from_sorted_vec(y, y_order, cfg.batch_rows)?;
    match kind {
        StreamOpKind::ContainSemijoinStab => run(ContainSemijoinStab::new(), x, y, emit),
        // The kernel's left input is the container (Y) side.
        StreamOpKind::ContainedSemijoinStab => run(ContainedSemijoinStab::new(), y, x, emit),
        StreamOpKind::OverlapSemijoin => {
            run(OverlapSemijoin::new(cfg.mode, cfg.policy), x, y, emit)
        }
        other => Err(TdbError::Plan(format!("no semijoin kernel for {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap_join::OverlapMode;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn workload(n: i64) -> (Vec<TsTuple>, Vec<TsTuple>) {
        let xs: Vec<_> = (0..n)
            .map(|i| iv(i * 3 % 97, i * 3 % 97 + 5 + (i % 7) * 11))
            .collect();
        let ys: Vec<_> = (0..n)
            .map(|i| iv(i * 5 % 89, i * 5 % 89 + 1 + (i % 5) * 9))
            .collect();
        (xs, ys)
    }

    fn sorted(mut v: Vec<TsTuple>, o: StreamOrder) -> Vec<TsTuple> {
        o.sort(&mut v);
        v
    }

    fn collect_join(
        cfg: OpConfig,
        xs: &[TsTuple],
        ys: &[TsTuple],
    ) -> (Vec<(TsTuple, TsTuple)>, OpReport) {
        let mut out = Vec::new();
        let (completed, report) = run_join(
            StreamOpKind::ContainJoinTsTe,
            cfg,
            xs.to_vec(),
            StreamOrder::TS_ASC,
            ys.to_vec(),
            StreamOrder::TE_ASC,
            Emit::Chunks(&mut |chunk| {
                out.extend(chunk);
                Ok(true)
            }),
        )
        .unwrap();
        assert!(completed);
        (out, report)
    }

    #[test]
    fn join_is_batch_size_invariant_counts_and_stops_early() {
        let (xs, ys) = workload(80);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TE_ASC);
        let (pairs, report) = collect_join(OpConfig::new().with_batch_rows(1), &xs, &ys);
        assert!(!pairs.is_empty());
        for rows in [64usize, 1024] {
            let cfg = OpConfig::new().with_batch_rows(rows);
            let (streamed, sreport) = collect_join(cfg, &xs, &ys);
            assert_eq!(streamed, pairs, "rows {rows}");
            assert_eq!(sreport, report, "rows {rows}");
            // Count-only agrees with the collected emit count.
            let (completed, creport) = run_join(
                StreamOpKind::ContainJoinTsTe,
                cfg,
                xs.clone(),
                StreamOrder::TS_ASC,
                ys.clone(),
                StreamOrder::TE_ASC,
                Emit::Count,
            )
            .unwrap();
            assert!(completed);
            assert_eq!(creport, report, "rows {rows}");
            assert_eq!(creport.metrics.emitted, pairs.len(), "rows {rows}");
            // Early termination stops the producer mid-run.
            let mut seen = 0usize;
            let (completed, _) = run_join(
                StreamOpKind::ContainJoinTsTe,
                OpConfig::new().with_batch_rows(8),
                xs.clone(),
                StreamOrder::TS_ASC,
                ys.clone(),
                StreamOrder::TE_ASC,
                Emit::Chunks(&mut |chunk| {
                    seen += chunk.len();
                    Ok(false)
                }),
            )
            .unwrap();
            assert!(!completed);
            assert!(
                seen < pairs.len(),
                "stopped after {seen} of {}",
                pairs.len()
            );
        }
    }

    #[test]
    fn semijoin_is_batch_size_invariant_and_counts() {
        let (xs, ys) = workload(70);
        for (kind, xo, yo, mode) in [
            (
                StreamOpKind::ContainSemijoinStab,
                StreamOrder::TS_ASC,
                StreamOrder::TE_ASC,
                OverlapMode::General,
            ),
            (
                StreamOpKind::ContainedSemijoinStab,
                StreamOrder::TE_ASC,
                StreamOrder::TS_ASC,
                OverlapMode::General,
            ),
            (
                StreamOpKind::OverlapSemijoin,
                StreamOrder::TS_ASC,
                StreamOrder::TS_ASC,
                OverlapMode::Strict,
            ),
        ] {
            let x = sorted(xs.clone(), xo);
            let y = sorted(ys.clone(), yo);
            let run_with = |rows: usize| {
                let cfg = OpConfig::new().with_mode(mode).with_batch_rows(rows);
                let mut kept = Vec::new();
                let emit = Emit::Chunks(&mut |chunk| {
                    kept.extend(chunk);
                    Ok(true)
                });
                let (completed, report) =
                    run_semijoin(kind, cfg, x.clone(), xo, y.clone(), yo, emit).unwrap();
                assert!(completed);
                (kept, report)
            };
            let (kept, report) = run_with(1);
            assert_eq!(run_with(128), (kept.clone(), report), "{kind}");
            let cfg = OpConfig::new().with_mode(mode);
            let (_, counted) = run_semijoin(kind, cfg, x, xo, y, yo, Emit::Count).unwrap();
            assert_eq!(counted, report, "{kind}");
            assert_eq!(counted.metrics.emitted, kept.len(), "{kind}");
        }
    }

    #[test]
    fn unsorted_inputs_are_order_violations() {
        let err = run_join(
            StreamOpKind::ContainJoinTsTe,
            OpConfig::new(),
            vec![iv(5, 9), iv(0, 3)],
            StreamOrder::TS_ASC,
            vec![iv(1, 2)],
            StreamOrder::TE_ASC,
            Emit::Count,
        )
        .unwrap_err();
        assert!(matches!(err, TdbError::OrderViolation { .. }), "{err}");
    }

    #[test]
    fn unsupported_kinds_are_planning_errors() {
        let err = run_join::<TsTuple, TsTuple>(
            StreamOpKind::BeforeJoin,
            OpConfig::new(),
            vec![],
            StreamOrder::TS_ASC,
            vec![],
            StreamOrder::TS_ASC,
            Emit::Count,
        )
        .unwrap_err();
        assert!(matches!(err, TdbError::Plan(_)));
        let err = run_semijoin::<TsTuple, TsTuple>(
            StreamOpKind::BeforeSemijoin,
            OpConfig::new(),
            vec![],
            StreamOrder::TS_ASC,
            vec![],
            StreamOrder::TS_ASC,
            Emit::Count,
        )
        .unwrap_err();
        assert!(matches!(err, TdbError::Plan(_)));
    }
}
