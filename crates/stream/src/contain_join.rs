//! Contain-join stream processors (paper §4.2.1, Figure 5, Table 1).
//!
//! `Contain-join(X, Y)` outputs the concatenation of tuples `x ∈ X`, `y ∈ Y`
//! whenever the lifespan of `x` strictly contains that of `y`:
//! `x.TS < y.TS ∧ y.TE < x.TE` (the *during* relationship of Figure 2 with
//! roles swapped). Note `Contain-join(X,Y)` and `Contain-join(Y,X)` are not
//! equivalent.
//!
//! Two sorted configurations admit single-pass evaluation with bounded
//! state:
//!
//! * [`ContainJoinTsTs`] (this module's kernel) — both inputs sorted
//!   `ValidFrom ↑` (Figure 5). State (a) of Table 1: `{X tuples whose lifespan span
//!   y_b.TS} ∪ {Y tuples whose TS lies in x_b's lifespan}`.
//! * [`crate::ContainJoinTsTe`] (a kernel of [`crate::batch_ops`]) — X
//!   sorted `ValidFrom ↑`, Y sorted `ValidTo ↑`. State (b) of Table 1:
//!   `{X tuples whose lifespan span y_b.TE}` (Y tuples are matched on
//!   arrival and never stored, so it realizes the X component of state
//!   (b) only).
//!
//! Mirrored orderings (`ValidTo ↓` / `ValidTo ↓`, etc.) are served by the
//! same operators after time reversal (Table 1's lower half "is the mirror
//! image of the upper half"); the algebra layer performs that reduction.
//!
//! ### Correctness of emit-on-arrival (proof sketch, any read policy)
//!
//! Each output pair is emitted exactly once: when the *later-processed*
//! partner arrives, it is joined against the opposite state, which still
//! holds the earlier partner because the GC rules only discard tuples that
//! can match no future arrival:
//!
//! * discarding `y` when `y.TS < x_b.TS` is safe — every future `x` has
//!   `x.TS ≥ x_b.TS > y.TS`, violating `x.TS < y.TS`;
//! * discarding `x` when `x.TE < y_b.TS` is safe — every future `y` has
//!   `y.TE > y.TS ≥ y_b.TS > x.TE`, violating `y.TE < x.TE`.
//!
//! The paper's misprinted GC rule for the `(ValidFrom ↑, ValidTo ↑)` case
//! is documented with its kernel in [`crate::batch_ops`]; the regression
//! test lives in this module's tests beside the Figure 5 cases.

use crate::batch::RowBatch;
use crate::batch_ops::{probe, sweep_batch_op, visit_pairs, BatchOp, Buffered, Side, Sweep, Wants};
use crate::gapless::GaplessWorkspace;
use crate::read_policy::ReadPolicy;
use crate::report::OpReport;
use tdb_core::{TdbResult, Temporal};

/// Contain-join with both inputs sorted `ValidFrom ↑` (Figure 5) — Table 1
/// state (a): the X tuples spanning `y_b.TS` plus the Y tuples whose `TS`
/// lies in `x_b`'s lifespan, both in gapless columns. Each arrival joins
/// the opposite state and is retained; the GC phase after every refill
/// applies the two rules of the proof sketch above.
///
/// ```
/// use tdb_stream::{collect, run_join, OpConfig, StreamOpKind};
/// use tdb_core::TsTuple;
///
/// let contracts = vec![TsTuple::interval(0, 10)?, TsTuple::interval(4, 6)?];
/// let tasks = vec![TsTuple::interval(1, 3)?, TsTuple::interval(5, 20)?];
/// let (pairs, report) = collect(|emit| {
///     run_join(StreamOpKind::ContainJoinTsTs, OpConfig::new(), contracts, tasks, emit)
/// })?;
/// assert_eq!(pairs.len(), 1); // [0,10) contains [1,3)
/// assert!(report.max_workspace() <= 3);
/// # Ok::<(), tdb_core::TdbError>(())
/// ```
pub struct ContainJoinTsTs<X: Temporal + Clone, Y: Temporal + Clone> {
    sw: Sweep<X, Y>,
    out: Vec<(X, Y)>,
    hits: Vec<u32>,
    comparisons: usize,
    emitted: usize,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> ContainJoinTsTs<X, Y> {
    /// An empty kernel advancing the inputs under `policy`.
    pub fn new(policy: ReadPolicy) -> Self {
        ContainJoinTsTs {
            sw: Sweep::new(policy),
            out: Vec::new(),
            hits: Vec::new(),
            comparisons: 0,
            emitted: 0,
        }
    }

    fn run(&mut self) {
        // Discard resident `x` with `x.TE < y_b.TS` and resident `y` with
        // `y.TS < x_b.TS`; an exhausted input empties the opposite state.
        let gc = |sx: &mut GaplessWorkspace<X>,
                  sy: &mut GaplessWorkspace<Y>,
                  hx: Buffered,
                  hy: Buffered| {
            match hy {
                Some((yts, _)) => sx.gc_te_ge(yts),
                None => sx.clear_discard(),
            }
            match hx {
                Some((xts, _)) => sy.gc(|ts, _| ts >= xts),
                None => sy.clear_discard(),
            }
        };
        while let Some((side, ts, te)) = self.sw.next(gc) {
            match side {
                Side::Left => {
                    let (xts, xte) = (ts, te);
                    let x = self.sw.cx.clone_head();
                    self.sw.cx.advance();
                    let sy = &self.sw.sy;
                    let (ts, te) = (sy.ts_col(), sy.te_col());
                    self.comparisons += ts.len();
                    let m = |yts: i64, yte: i64| (xts < yts) & (yte < xte);
                    probe(ts, te, &mut self.hits, m);
                    for &i in &self.hits {
                        self.out.push((x.clone(), sy.payload(i as usize).clone()));
                    }
                    self.emitted += self.hits.len();
                    self.sw.sx.insert_raw(xts, xte, x);
                }
                Side::Right => {
                    let (yts, yte) = (ts, te);
                    let y = self.sw.cy.clone_head();
                    self.sw.cy.advance();
                    let sx = &self.sw.sx;
                    let (ts, te) = (sx.ts_col(), sx.te_col());
                    self.comparisons += ts.len();
                    let m = |xts: i64, xte: i64| (xts < yts) & (yte < xte);
                    probe(ts, te, &mut self.hits, m);
                    for &i in &self.hits {
                        self.out.push((sx.payload(i as usize).clone(), y.clone()));
                    }
                    self.emitted += self.hits.len();
                    self.sw.sy.insert_raw(yts, yte, y);
                }
            }
        }
    }
}

sweep_batch_op!(ContainJoinTsTs, (X, Y), visit_pairs);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{collect, run_join, Emit};
    use crate::report::OpConfig;
    use crate::required::StreamOpKind;
    use proptest::prelude::*;
    use tdb_core::{StreamOrder, TdbError, TsTuple};
    use tdb_gen::IntervalGen;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    /// Nested-loop oracle for Contain-join.
    fn oracle(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<(TsTuple, TsTuple)> {
        let mut out = Vec::new();
        for x in xs {
            for y in ys {
                if x.period.contains(&y.period) {
                    out.push((x.clone(), y.clone()));
                }
            }
        }
        canon(out)
    }

    fn canon(mut pairs: Vec<(TsTuple, TsTuple)>) -> Vec<(TsTuple, TsTuple)> {
        pairs.sort_by_key(|(x, y)| {
            (
                x.ts().ticks(),
                x.te().ticks(),
                y.ts().ticks(),
                y.te().ticks(),
            )
        });
        pairs
    }

    fn run_ts_ts(
        xs: Vec<TsTuple>,
        ys: Vec<TsTuple>,
        policy: ReadPolicy,
    ) -> (Vec<(TsTuple, TsTuple)>, OpReport) {
        let cfg = OpConfig::new().with_policy(policy);
        let (out, report) =
            collect(|e| run_join(StreamOpKind::ContainJoinTsTs, cfg, xs, ys, e)).unwrap();
        (canon(out), report)
    }

    fn run_ts_te(xs: Vec<TsTuple>, mut ys: Vec<TsTuple>) -> (Vec<(TsTuple, TsTuple)>, usize) {
        StreamOrder::TE_ASC.sort(&mut ys);
        let cfg = OpConfig::new();
        let (out, report) =
            collect(|e| run_join(StreamOpKind::ContainJoinTsTe, cfg, xs, ys, e)).unwrap();
        (canon(out), report.max_workspace())
    }

    /// The workspace of each side, read back from a run with the other
    /// side kept empty of matches: the stacked report sums both states.
    fn x_state_peak(xs: Vec<TsTuple>, ys: Vec<TsTuple>) -> usize {
        let mut op = ContainJoinTsTs::new(ReadPolicy::MinKey);
        crate::dispatch::run_kernel(
            &mut op,
            1024,
            xs,
            Some(StreamOrder::TS_ASC),
            ys,
            Some(StreamOrder::TS_ASC),
            Emit::Count,
        )
        .unwrap();
        op.sw.sx.stats().max_resident
    }

    #[test]
    fn figure5_style_example() {
        // X tuples span broadly; Y tuples nest inside them.
        let xs = vec![iv(0, 10), iv(2, 20), iv(15, 18)];
        let ys = vec![iv(1, 5), iv(3, 9), iv(16, 17), iv(19, 25)];
        let expected = oracle(&xs, &ys);
        // (0,10)⊃{(1,5),(3,9)}; (2,20)⊃{(3,9),(16,17)}; (15,18)⊃(16,17).
        assert_eq!(expected.len(), 5);
        for policy in [
            ReadPolicy::MinKey,
            ReadPolicy::Alternate,
            ReadPolicy::LambdaGuided {
                lambda_x: 1.0,
                lambda_y: 1.0,
            },
        ] {
            let (got, _) = run_ts_ts(xs.clone(), ys.clone(), policy);
            assert_eq!(got, expected, "policy {policy:?}");
        }
        let (got, _) = run_ts_te(xs, ys);
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_inputs() {
        let (got, rep) = run_ts_ts(vec![], vec![iv(0, 5)], ReadPolicy::MinKey);
        assert!(got.is_empty());
        assert!(rep.max_workspace() <= 1);
        let (got, _) = run_ts_ts(vec![iv(0, 5)], vec![], ReadPolicy::MinKey);
        assert!(got.is_empty());
        let (got, _) = run_ts_te(vec![], vec![]);
        assert!(got.is_empty());
    }

    #[test]
    fn strictness_at_endpoints() {
        // Shared endpoints are starts/finishes, not containment.
        let xs = vec![iv(0, 10)];
        let ys = vec![iv(0, 5), iv(5, 10), iv(0, 10), iv(1, 9)];
        let mut ys_sorted = ys.clone();
        StreamOrder::TS_ASC.sort(&mut ys_sorted);
        let (got, _) = run_ts_ts(xs.clone(), ys_sorted, ReadPolicy::MinKey);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, iv(1, 9));
        let (got, _) = run_ts_te(xs, ys);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn rejects_wrong_input_orders() {
        // X must be ValidFrom ↑: a TE-sorted, TS-unsorted X is refused.
        let xs = vec![iv(5, 6), iv(0, 9)];
        for kind in [StreamOpKind::ContainJoinTsTs, StreamOpKind::ContainJoinTsTe] {
            let err = run_join(
                kind,
                OpConfig::new(),
                xs.clone(),
                vec![iv(0, 5)],
                Emit::Count,
            );
            assert!(
                matches!(err, Err(TdbError::OrderViolation { .. })),
                "{kind}"
            );
        }
    }

    #[test]
    fn erratum_regression_ts_te_gc_keeps_spanning_tuples() {
        // One long X tuple must survive across many Y tuples: the paper's
        // misprinted GC rule (discard x if x.TE > y.TE) would evict it
        // after the first y and lose all later matches.
        let xs = vec![iv(0, 100)];
        let ys: Vec<_> = (0..10).map(|i| iv(1 + i * 9, 4 + i * 9)).collect();
        let (got, _) = run_ts_te(xs.clone(), ys.clone());
        assert_eq!(got.len(), 10, "every nested y must match the long x");
        let (got, _) = run_ts_ts(xs, ys, ReadPolicy::MinKey);
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn min_key_policy_keeps_y_state_empty() {
        let xs = IntervalGen::poisson(300, 5.0, 40.0, 1).generate();
        let ys = IntervalGen::poisson(300, 5.0, 10.0, 2).generate();
        let mut op = ContainJoinTsTs::new(ReadPolicy::MinKey);
        crate::dispatch::run_kernel(
            &mut op,
            64,
            xs,
            Some(StreamOrder::TS_ASC),
            ys,
            Some(StreamOrder::TS_ASC),
            Emit::Count,
        )
        .unwrap();
        // Under the merge-like sweep, Y tuples join on arrival and are
        // GC'd at the next X arrival; residency stays tiny.
        let ys_stats = op.sw.sy.stats();
        assert!(
            ys_stats.max_resident <= 40,
            "y state should stay small, got {}",
            ys_stats.max_resident
        );
    }

    #[test]
    fn workspace_tracks_spanning_tuples() {
        // All X tuples span the whole axis: none can be GC'd until Y ends.
        let xs: Vec<_> = (0..20).map(|i| iv(i, 1000 + i)).collect();
        let (got, _) = run_ts_ts(xs.clone(), vec![iv(500, 510)], ReadPolicy::MinKey);
        assert_eq!(got.len(), 20);
        assert_eq!(
            x_state_peak(xs, vec![iv(500, 510)]),
            20,
            "every x spans y's TS and must be resident"
        );
    }

    #[test]
    fn metrics_count_reads_and_emits() {
        let xs = vec![iv(0, 10), iv(20, 30)];
        let ys = vec![iv(1, 2), iv(21, 22)];
        let (out, report) = run_ts_ts(xs, ys, ReadPolicy::MinKey);
        let metrics = report.metrics;
        assert_eq!(out.len(), 2);
        assert_eq!(metrics.emitted, 2);
        assert_eq!(metrics.read_left, 2);
        assert_eq!(metrics.read_right, 2);
        assert_eq!(metrics.passes, 1);
    }

    fn arb_intervals(n: usize) -> impl Strategy<Value = Vec<TsTuple>> {
        proptest::collection::vec((-60i64..60, 1i64..40), 0..n).prop_map(|v| {
            let mut tuples: Vec<_> = v.into_iter().map(|(s, d)| iv(s, s + d)).collect();
            StreamOrder::TS_ASC.sort(&mut tuples);
            tuples
        })
    }

    proptest! {
        /// Both configurations and all policies agree with the nested-loop
        /// oracle on arbitrary inputs.
        #[test]
        fn matches_oracle(xs in arb_intervals(40), ys in arb_intervals(40)) {
            let expected = oracle(&xs, &ys);
            for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate,
                           ReadPolicy::LambdaGuided { lambda_x: 0.5, lambda_y: 2.0 }] {
                let (got, _) = run_ts_ts(xs.clone(), ys.clone(), policy);
                prop_assert_eq!(&got, &expected);
            }
            let (got, _) = run_ts_te(xs.clone(), ys.clone());
            prop_assert_eq!(&got, &expected);
        }

        /// Under the MinKey sweep the X state holds only tuples whose
        /// closed lifespan covers the sweep point (Table 1 state (a)),
        /// so it is bounded by X's closed-interval max concurrency
        /// (computed here by treating `[TS, TE)` as `[TS, TE]`).
        #[test]
        fn x_state_bounded_by_concurrency(xs in arb_intervals(40), ys in arb_intervals(40)) {
            // Closed-interval concurrency: widen every interval by one tick.
            let widened: Vec<_> = xs
                .iter()
                .map(|t| iv(t.ts().ticks(), t.te().ticks() + 1))
                .collect();
            let bound = tdb_core::TemporalStats::compute(&widened).max_concurrency;
            let resident = x_state_peak(xs, ys);
            // +1: a newly inserted tuple is sampled before the GC phase
            // that may immediately discard it.
            prop_assert!(
                resident <= bound.max(1) + 1,
                "resident {} > bound {}",
                resident,
                bound
            );
        }
    }
}
