//! The execution entry points over sorted inputs.
//!
//! Every stream temporal operator runs through here — the query
//! executor, the partitioned-parallel workers, the live engine, the
//! experiment harness: [`run_join`], [`run_semijoin`] and
//! [`run_self_semijoin`] pick the kernel for a [`StreamOpKind`] (each
//! `match kind` names all twelve kinds), and [`run_kernel`] turns each
//! input into batches of at most [`OpConfig::batch_rows`] rows
//! ([`KernelInput`]: a vector sliced into a [`crate::VecBatchStream`],
//! or a stored scan's [`crate::PageStream`]) and [`drive`]s the kernel
//! into an [`Emit`] mode. A caller that wants a vector uses [`collect`].
//!
//! Inputs must already be in the orders the kind's registry entry
//! requires ([`StreamOpKind::requirement`]): a vector is re-verified in
//! O(n), a page stream as its pages arrive, and a violation fails with
//! `OrderViolation`.

use crate::batch::KernelInput;
use crate::batch_ops::{
    drive, BatchOp, ContainJoinTsTe, ContainSemijoinStab, ContainedSemijoinStab, OverlapJoin,
    OverlapSemijoin,
};
use crate::before::{BeforeJoin, BeforeSemijoin};
use crate::contain_join::ContainJoinTsTs;
use crate::report::{OpConfig, OpReport};
use crate::required::StreamOpKind;
use crate::self_semijoin::{ContainSelfSemijoin, ContainSelfSemijoinDesc, ContainedSelfSemijoin};
use crate::sweep_semijoin::SweepSemijoin;
use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal};

/// What a run does with the operator's output.
pub enum Emit<'a, T> {
    /// Count it: nothing is handed over, and `report.metrics.emitted` is
    /// the result. The Before-join then adds up sorted suffixes and never
    /// builds a pair (E13 counts ≈ 4.5 · 10⁸ pairs this way); every other
    /// kernel drains its output and drops it.
    Count,
    /// Hand each output chunk to the closure as the kernel drains.
    /// Returning `false` stops the run (the sink has seen enough).
    Chunks(&'a mut dyn FnMut(Vec<T>) -> TdbResult<bool>),
}

/// Run `run` (one of the entry points, given its [`Emit`]) to completion
/// and collect every output chunk: `(output, report)`.
pub fn collect<T>(
    run: impl FnOnce(Emit<'_, T>) -> TdbResult<(bool, OpReport)>,
) -> TdbResult<(Vec<T>, OpReport)> {
    let mut out = Vec::new();
    let (_, report) = run(Emit::Chunks(&mut |chunk| {
        out.extend(chunk);
        Ok(true)
    }))?;
    Ok((out, report))
}

/// Drive kernel `op` over two inputs in batches of at most `batch_rows`
/// rows into `emit`, each verified against its claimed order (`None`:
/// any order). Returns `(completed, report)`: `completed` is `false` when
/// the closure stopped the run early, and the report then covers only the
/// work done up to that point. The report does not depend on the emit
/// mode or the batch size.
pub fn run_kernel<K: BatchOp>(
    mut op: K,
    batch_rows: usize,
    left: impl KernelInput<Item = K::LeftItem>,
    left_order: Option<StreamOrder>,
    right: impl KernelInput<Item = K::RightItem>,
    right_order: Option<StreamOrder>,
    emit: Emit<'_, K::Out>,
) -> TdbResult<(bool, OpReport)> {
    let mut left = left.into_batches(left_order, batch_rows)?;
    let mut right = right.into_batches(right_order, batch_rows)?;
    let completed = match emit {
        Emit::Count => drive(&mut op, &mut left, &mut right, &mut |_| Ok(true))?,
        Emit::Chunks(f) => drive(&mut op, &mut left, &mut right, f)?,
    };
    Ok((completed, op.report()))
}

/// `kind` is not an operator of the entry point called.
fn wrong_entry(kind: StreamOpKind, entry: &str) -> TdbResult<(bool, OpReport)> {
    Err(TdbError::Plan(format!("{kind} is not a {entry}")))
}

/// Run a stream temporal **join** of `kind` over inputs sorted as its
/// registry entry requires.
///
/// Join kinds: [`StreamOpKind::ContainJoinTsTs`] (read policy from
/// `cfg`), [`StreamOpKind::ContainJoinTsTe`], [`StreamOpKind::OverlapJoin`]
/// (mode and read policy from `cfg`) and [`StreamOpKind::BeforeJoin`] (any
/// order; pairs handed over at most `cfg.batch_rows` at a time). Side swaps
/// (e.g. `During` running the `Contains` operator) are the caller's
/// concern. Returns `(completed, report)` as [`run_kernel`] does.
pub fn run_join<X, Y>(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: impl KernelInput<Item = X>,
    y: impl KernelInput<Item = Y>,
    emit: Emit<'_, (X, Y)>,
) -> TdbResult<(bool, OpReport)>
where
    X: Temporal + Clone,
    Y: Temporal + Clone,
{
    let req = kind.requirement();
    let (xo, yo, rows) = (req.left(), req.right(), cfg.batch_rows);
    match kind {
        StreamOpKind::ContainJoinTsTs => {
            run_kernel(ContainJoinTsTs::new(cfg.policy), rows, x, xo, y, yo, emit)
        }
        StreamOpKind::ContainJoinTsTe => {
            run_kernel(ContainJoinTsTe::new(), rows, x, xo, y, yo, emit)
        }
        StreamOpKind::OverlapJoin => {
            let op = OverlapJoin::new(cfg.mode, cfg.policy);
            run_kernel(op, rows, x, xo, y, yo, emit)
        }
        StreamOpKind::BeforeJoin => {
            let op = BeforeJoin::new(rows).count_only(matches!(emit, Emit::Count));
            run_kernel(op, rows, x, xo, y, yo, emit)
        }
        StreamOpKind::SweepSemijoin
        | StreamOpKind::ContainSemijoinStab
        | StreamOpKind::ContainedSemijoinStab
        | StreamOpKind::ContainedSelfSemijoin
        | StreamOpKind::ContainSelfSemijoin
        | StreamOpKind::ContainSelfSemijoinDesc
        | StreamOpKind::OverlapSemijoin
        | StreamOpKind::BeforeSemijoin => wrong_entry(kind, "join"),
    }
}

/// Run a stream temporal **semijoin** of `kind` (left rows kept) over
/// inputs sorted as its registry entry requires.
///
/// Semijoin kinds: [`StreamOpKind::SweepSemijoin`] (Contain-semijoin;
/// the Contained direction is [`SweepSemijoin::contained`] through
/// [`run_kernel`]), [`StreamOpKind::ContainSemijoinStab`],
/// [`StreamOpKind::ContainedSemijoinStab`], [`StreamOpKind::OverlapSemijoin`]
/// (mode and read policy from `cfg`) and [`StreamOpKind::BeforeSemijoin`]
/// (any order; the After direction is [`BeforeSemijoin::after`]). Returns
/// `(completed, report)` as [`run_kernel`] does.
pub fn run_semijoin<X, Y>(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: impl KernelInput<Item = X>,
    y: impl KernelInput<Item = Y>,
    emit: Emit<'_, X>,
) -> TdbResult<(bool, OpReport)>
where
    X: Temporal + Clone,
    Y: Temporal + Clone,
{
    let req = kind.requirement();
    let (xo, yo, rows) = (req.left(), req.right(), cfg.batch_rows);
    match kind {
        StreamOpKind::SweepSemijoin => {
            run_kernel(SweepSemijoin::contain(cfg.policy), rows, x, xo, y, yo, emit)
        }
        StreamOpKind::ContainSemijoinStab => {
            run_kernel(ContainSemijoinStab::new(), rows, x, xo, y, yo, emit)
        }
        // The kernel's left input is the container (Y) side.
        StreamOpKind::ContainedSemijoinStab => {
            run_kernel(ContainedSemijoinStab::new(), rows, y, yo, x, xo, emit)
        }
        StreamOpKind::OverlapSemijoin => {
            let op = OverlapSemijoin::new(cfg.mode, cfg.policy);
            run_kernel(op, rows, x, xo, y, yo, emit)
        }
        StreamOpKind::BeforeSemijoin => {
            run_kernel(BeforeSemijoin::before(), rows, x, xo, y, yo, emit)
        }
        StreamOpKind::ContainJoinTsTs
        | StreamOpKind::ContainJoinTsTe
        | StreamOpKind::ContainedSelfSemijoin
        | StreamOpKind::ContainSelfSemijoin
        | StreamOpKind::ContainSelfSemijoinDesc
        | StreamOpKind::OverlapJoin
        | StreamOpKind::BeforeJoin => wrong_entry(kind, "semijoin"),
    }
}

/// Run a **self** semijoin of `kind` over one input sorted as its
/// registry entry requires (Table 3): [`StreamOpKind::ContainedSelfSemijoin`],
/// [`StreamOpKind::ContainSelfSemijoin`] and
/// [`StreamOpKind::ContainSelfSemijoinDesc`]. The kernel never asks for
/// its right input. Returns `(completed, report)` as [`run_kernel`] does.
pub fn run_self_semijoin<X>(
    kind: StreamOpKind,
    cfg: OpConfig,
    x: impl KernelInput<Item = X>,
    emit: Emit<'_, X>,
) -> TdbResult<(bool, OpReport)>
where
    X: Temporal + Clone,
{
    let (xo, rows) = (kind.requirement().left(), cfg.batch_rows);
    match kind {
        StreamOpKind::ContainedSelfSemijoin => run_kernel(
            ContainedSelfSemijoin::new(),
            rows,
            x,
            xo,
            vec![],
            None,
            emit,
        ),
        StreamOpKind::ContainSelfSemijoin => {
            run_kernel(ContainSelfSemijoin::new(), rows, x, xo, vec![], None, emit)
        }
        StreamOpKind::ContainSelfSemijoinDesc => run_kernel(
            ContainSelfSemijoinDesc::new(),
            rows,
            x,
            xo,
            vec![],
            None,
            emit,
        ),
        StreamOpKind::ContainJoinTsTs
        | StreamOpKind::ContainJoinTsTe
        | StreamOpKind::SweepSemijoin
        | StreamOpKind::ContainSemijoinStab
        | StreamOpKind::ContainedSemijoinStab
        | StreamOpKind::OverlapJoin
        | StreamOpKind::OverlapSemijoin
        | StreamOpKind::BeforeJoin
        | StreamOpKind::BeforeSemijoin => wrong_entry(kind, "self semijoin"),
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
        collect(|e| {
            run_join(
                StreamOpKind::ContainJoinTsTe,
                cfg,
                xs.to_vec(),
                ys.to_vec(),
                e,
            )
        })
        .unwrap()
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
            // A count agrees with the collected emit count.
            let (completed, creport) = run_join(
                StreamOpKind::ContainJoinTsTe,
                cfg,
                xs.clone(),
                ys.clone(),
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
                ys.clone(),
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
                collect(|e| run_semijoin(kind, cfg, x.clone(), y.clone(), e)).unwrap()
            };
            let (kept, report) = run_with(1);
            assert_eq!(run_with(128), (kept.clone(), report), "{kind}");
            let cfg = OpConfig::new().with_mode(mode);
            let (_, counted) = run_semijoin(kind, cfg, x, y, Emit::Count).unwrap();
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
            vec![iv(1, 2)],
            Emit::Count,
        )
        .unwrap_err();
        assert!(matches!(err, TdbError::OrderViolation { .. }), "{err}");
    }

    #[test]
    fn unsupported_kinds_are_planning_errors() {
        // Every kind has exactly one entry point; the other two refuse it.
        let cfg = OpConfig::new();
        for kind in StreamOpKind::ALL {
            let accepted = [
                run_join::<TsTuple, TsTuple>(kind, cfg, vec![], vec![], Emit::Count).is_ok(),
                run_semijoin::<TsTuple, TsTuple>(kind, cfg, vec![], vec![], Emit::Count).is_ok(),
                run_self_semijoin::<TsTuple>(kind, cfg, vec![], Emit::Count).is_ok(),
            ];
            assert_eq!(accepted.iter().filter(|a| **a).count(), 1, "{kind}");
        }
        let err = run_join::<TsTuple, TsTuple>(
            StreamOpKind::BeforeSemijoin,
            OpConfig::new(),
            vec![],
            vec![],
            Emit::Count,
        )
        .unwrap_err();
        assert!(matches!(err, TdbError::Plan(_)));
    }
}
