//! Sweep-based containment semijoins for the `(ValidFrom ↑, ValidFrom ↑)`
//! configuration — Table 1 state (c).
//!
//! When both inputs are sorted on `ValidFrom ↑` (instead of the stab
//! algorithm's mixed TS/TE orders), a containment semijoin still runs in a
//! single pass, but it must keep a state *set*: Table 1 characterizes it as
//! a subset of the Contain-join state (a), because a semijoin may discard a
//! tuple as soon as it is witnessed ("a stream processor can output a tuple
//! as soon as it finds the first matching tuple").
//!
//! [`SweepSemijoin`] handles both directions:
//! * [`SweepSemijoin::contain`] — emit `x ∈ X` containing some `y ∈ Y`;
//! * [`SweepSemijoin::contained`] — emit `x ∈ X` contained in some `y ∈ Y`.

use crate::batch::RowBatch;
use crate::batch_ops::{
    sweep_batch_op, visit_kept, witnessed, BatchOp, Buffered, Side, Sweep, Wants,
};
use crate::gapless::GaplessWorkspace;
use crate::read_policy::ReadPolicy;
use crate::report::OpReport;
use tdb_core::{TdbResult, Temporal};

/// Containment semijoin kernel over two `ValidFrom ↑` inputs, emitting the
/// X side: a witnessed arrival is emitted at once and never stored, an
/// unwitnessed x waits in the X state until a y witnesses it.
pub struct SweepSemijoin<X: Temporal + Clone, Y: Temporal + Clone> {
    sw: Sweep<X, Y>,
    /// `true`: emit x containing some y; `false`: x contained in some y.
    x_contains: bool,
    out: Vec<X>,
    comparisons: usize,
    emitted: usize,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> SweepSemijoin<X, Y> {
    /// `Contain-semijoin(X,Y)` under `(ValidFrom ↑, ValidFrom ↑)`.
    pub fn contain(policy: ReadPolicy) -> Self {
        Self::new(true, policy)
    }

    /// `Contained-semijoin(X,Y)` under `(ValidFrom ↑, ValidFrom ↑)`.
    pub fn contained(policy: ReadPolicy) -> Self {
        Self::new(false, policy)
    }

    fn new(x_contains: bool, policy: ReadPolicy) -> Self {
        SweepSemijoin {
            sw: Sweep::new(policy),
            x_contains,
            out: Vec::new(),
            comparisons: 0,
            emitted: 0,
        }
    }

    /// Does `(x, y)` match, as `(ts, te)` ticks, in this direction?
    #[inline]
    fn matches(x_contains: bool, x: (i64, i64), y: (i64, i64)) -> bool {
        let (outer, inner) = if x_contains { (x, y) } else { (y, x) };
        (outer.0 < inner.0) & (inner.1 < outer.1)
    }

    fn run(&mut self) {
        // A resident tuple is dead once no current-or-future partner can
        // satisfy the strict inequalities — the Contain-join rules with
        // the roles fixed per direction. The container must still span a
        // future partner's `TS` (`TE ≥` the partner buffer's `TS`); the
        // containee must not start before the next container (`TS ≥` it).
        let xc = self.x_contains;
        let gc = move |sx: &mut GaplessWorkspace<X>,
                       sy: &mut GaplessWorkspace<Y>,
                       hx: Buffered,
                       hy: Buffered| {
            match hy {
                Some((yts, _)) if xc => sx.gc_te_ge(yts),
                Some((yts, _)) => sx.gc(|ts, _| ts >= yts),
                None => sx.clear_discard(),
            }
            match hx {
                Some((xts, _)) if xc => sy.gc(|ts, _| ts >= xts),
                Some((xts, _)) => sy.gc_te_ge(xts),
                None => sy.clear_discard(),
            }
        };
        while let Some((side, ts, te)) = self.sw.next(gc) {
            match side {
                Side::Left => {
                    let x = self.sw.cx.clone_head();
                    self.sw.cx.advance();
                    let sy = &self.sw.sy;
                    self.comparisons += sy.len();
                    let m = |yts: i64, yte: i64| Self::matches(xc, (ts, te), (yts, yte));
                    if witnessed(sy.ts_col(), sy.te_col(), m) {
                        // Semijoin: emit immediately, never store.
                        self.out.push(x);
                        self.emitted += 1;
                    } else {
                        self.sw.sx.insert_raw(ts, te, x);
                    }
                }
                Side::Right => {
                    let y = self.sw.cy.clone_head();
                    self.sw.cy.advance();
                    self.comparisons += self.sw.sx.len();
                    let witnessed = self
                        .sw
                        .sx
                        .extract(|xts, xte| Self::matches(xc, (xts, xte), (ts, te)));
                    self.emitted += witnessed.len();
                    self.out.extend(witnessed);
                    self.sw.sy.insert_raw(ts, te, y);
                }
            }
        }
    }
}

sweep_batch_op!(SweepSemijoin, X, visit_kept);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{collect, run_join, run_kernel, run_semijoin, Emit};
    use crate::report::OpConfig;
    use crate::required::StreamOpKind;
    use proptest::prelude::*;
    use tdb_core::{StreamOrder, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn canon(mut v: Vec<TsTuple>) -> Vec<TsTuple> {
        v.sort_by_key(|t| (t.ts().ticks(), t.te().ticks(), t.value.clone()));
        v
    }

    fn run(
        mut xs: Vec<TsTuple>,
        mut ys: Vec<TsTuple>,
        contain: bool,
        policy: ReadPolicy,
    ) -> (Vec<TsTuple>, usize) {
        StreamOrder::TS_ASC.sort(&mut xs);
        StreamOrder::TS_ASC.sort(&mut ys);
        let ts = Some(StreamOrder::TS_ASC);
        let op = if contain {
            SweepSemijoin::contain(policy)
        } else {
            SweepSemijoin::contained(policy)
        };
        let (out, report) = collect(|e| run_kernel(op, 16, xs, ts, ys, ts, e)).unwrap();
        (canon(out), report.max_workspace())
    }

    fn contain_oracle(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        xs.iter()
            .filter(|x| ys.iter().any(|y| x.period.contains(&y.period)))
            .cloned()
            .collect()
    }

    fn contained_oracle(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        xs.iter()
            .filter(|x| ys.iter().any(|y| y.period.contains(&x.period)))
            .cloned()
            .collect()
    }

    #[test]
    fn basic_contain_and_contained() {
        let xs = vec![iv(0, 10), iv(2, 6), iv(12, 14)];
        let ys = vec![iv(1, 5), iv(11, 20)];
        let (got, _) = run(xs.clone(), ys.clone(), true, ReadPolicy::MinKey);
        assert_eq!(got, canon(contain_oracle(&xs, &ys))); // [0,10) ⊃ [1,5)
        assert_eq!(got.len(), 1);
        let (got, _) = run(xs.clone(), ys.clone(), false, ReadPolicy::MinKey);
        assert_eq!(got, canon(contained_oracle(&xs, &ys))); // [12,14) ⊂ [11,20)
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn emits_each_x_once() {
        let xs = vec![iv(0, 100)];
        let ys: Vec<_> = (1..20).map(|i| iv(i, i + 2)).collect();
        let (got, _) = run(xs, ys, true, ReadPolicy::MinKey);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn rejects_unsorted_inputs() {
        let x = vec![iv(5, 9), iv(0, 5)];
        let err = run_semijoin(
            StreamOpKind::SweepSemijoin,
            OpConfig::new(),
            x,
            vec![iv(0, 5)],
            Emit::Count,
        );
        assert!(err.is_err());
    }

    #[test]
    fn semijoin_state_is_subset_of_join_state() {
        // Table 1: state (c) ⊆ state (a). Compare against the contain-join
        // on identical data under the same policy.
        let xs: Vec<_> = (0..200).map(|i| iv(i, i + 30)).collect();
        let ys: Vec<_> = (0..200).map(|i| iv(i + 1, i + 5)).collect();
        let (_, semi_ws) = run(xs.clone(), ys.clone(), true, ReadPolicy::MinKey);
        let cfg = OpConfig::new();
        let (_, join) = run_join(StreamOpKind::ContainJoinTsTs, cfg, xs, ys, Emit::Count).unwrap();
        assert!(
            semi_ws <= join.max_workspace() + 1,
            "semijoin workspace {semi_ws} should not exceed join workspace {}",
            join.max_workspace()
        );
    }

    fn arb_intervals(n: usize) -> impl Strategy<Value = Vec<TsTuple>> {
        proptest::collection::vec((-60i64..60, 1i64..40), 0..n)
            .prop_map(|v| v.into_iter().map(|(s, d)| iv(s, s + d)).collect())
    }

    proptest! {
        #[test]
        fn matches_oracles(xs in arb_intervals(40), ys in arb_intervals(40)) {
            for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate] {
                let (got, _) = run(xs.clone(), ys.clone(), true, policy);
                prop_assert_eq!(got, canon(contain_oracle(&xs, &ys)));
                let (got, _) = run(xs.clone(), ys.clone(), false, policy);
                prop_assert_eq!(got, canon(contained_oracle(&xs, &ys)));
            }
        }
    }
}
