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
//! * [`ContainJoinTsTs`] (this module) — both inputs sorted `ValidFrom ↑`
//!   (Figure 5). State (a) of Table 1: `{X tuples whose lifespan span
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

use crate::metrics::OpMetrics;
use crate::progress::Progress;
use crate::read_policy::{Advance, PolicyState, ReadPolicy};
use crate::required::{check_stream_order, RequiredOrder, StreamOpKind};
use crate::stream::TupleStream;
use crate::workspace::{Workspace, WorkspaceStats};
use std::collections::VecDeque;
use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal};

/// Contain-join with both inputs sorted `ValidFrom ↑` (Figure 5).
///
/// ```
/// use tdb_stream::{from_sorted_vec, ContainJoinTsTs, ReadPolicy, TupleStream};
/// use tdb_core::{StreamOrder, TsTuple};
///
/// let contracts = vec![TsTuple::interval(0, 10)?, TsTuple::interval(4, 6)?];
/// let tasks = vec![TsTuple::interval(1, 3)?, TsTuple::interval(5, 20)?];
/// let mut join = ContainJoinTsTs::new(
///     from_sorted_vec(contracts, StreamOrder::TS_ASC)?,
///     from_sorted_vec(tasks, StreamOrder::TS_ASC)?,
///     ReadPolicy::MinKey,
/// )?;
/// let pairs = join.collect_vec()?;
/// assert_eq!(pairs.len(), 1); // [0,10) contains [1,3)
/// assert!(join.max_workspace() <= 3);
/// # Ok::<(), tdb_core::TdbError>(())
/// ```
pub struct ContainJoinTsTs<X: TupleStream, Y: TupleStream>
where
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    x: X,
    y: Y,
    x_buf: Option<X::Item>,
    y_buf: Option<Y::Item>,
    state_x: Workspace<X::Item>,
    state_y: Workspace<Y::Item>,
    pending: VecDeque<(X::Item, Y::Item)>,
    policy: ReadPolicy,
    policy_state: PolicyState,
    metrics: OpMetrics,
    progress: Option<Progress>,
    started: bool,
}

impl<X: TupleStream, Y: TupleStream> RequiredOrder for ContainJoinTsTs<X, Y>
where
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    const KIND: StreamOpKind = StreamOpKind::ContainJoinTsTs;
}

impl<X: TupleStream, Y: TupleStream> ContainJoinTsTs<X, Y>
where
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    /// Required ordering for both inputs.
    pub const REQUIRED: StreamOrder = StreamOrder::TS_ASC;

    /// Build the operator, verifying both inputs declare `ValidFrom ↑`.
    pub fn new(x: X, y: Y, policy: ReadPolicy) -> TdbResult<Self> {
        let req = Self::KIND.requirement();
        check_stream_order(&x, req.left(), req.operator, "X")?;
        check_stream_order(&y, req.right(), req.operator, "Y")?;
        Ok(ContainJoinTsTs {
            x,
            y,
            x_buf: None,
            y_buf: None,
            state_x: Workspace::new(),
            state_y: Workspace::new(),
            pending: VecDeque::new(),
            policy,
            policy_state: PolicyState::default(),
            metrics: OpMetrics {
                passes: 1,
                ..OpMetrics::default()
            },
            progress: None,
            started: false,
        })
    }

    /// Attach a shared [`Progress`] handle: the operator publishes its
    /// monotonic admitted/GC'd/emitted totals into it on every `next()`
    /// call, so a live subscriber can observe progress mid-run.
    pub fn with_progress(mut self, progress: &Progress) -> Self {
        self.progress = Some(progress.clone());
        self
    }

    fn publish_progress(&self) {
        if let Some(p) = &self.progress {
            let gc = self.state_x.stats().discarded + self.state_y.stats().discarded;
            p.publish(
                self.metrics.read_total() as u64,
                gc as u64,
                self.metrics.emitted as u64,
            );
        }
    }

    /// Execution metrics.
    pub fn metrics(&self) -> OpMetrics {
        self.metrics
    }

    /// Workspace statistics of the X and Y state sets.
    pub fn workspace(&self) -> (WorkspaceStats, WorkspaceStats) {
        (self.state_x.stats(), self.state_y.stats())
    }

    /// Combined maximum resident state tuples (both sides plus the two
    /// input buffers are the paper's "local workspace").
    pub fn max_workspace(&self) -> usize {
        self.state_x.stats().max_resident + self.state_y.stats().max_resident
    }

    fn refill_x(&mut self) -> TdbResult<()> {
        self.x_buf = self.x.next()?;
        if self.x_buf.is_some() {
            self.metrics.read_left += 1;
        }
        Ok(())
    }

    fn refill_y(&mut self) -> TdbResult<()> {
        self.y_buf = self.y.next()?;
        if self.y_buf.is_some() {
            self.metrics.read_right += 1;
        }
        Ok(())
    }

    /// Garbage-collection phase (paper step 3), keyed off the *buffered*
    /// tuples `x_b` / `y_b`:
    ///
    /// * discard resident `x` with `x.TE < y_b.TS` — no current or future
    ///   `y` can end inside it;
    /// * discard resident `y` with `y.TS < x_b.TS` — no current or future
    ///   `x` can start before it.
    ///
    /// When an input is exhausted its opposite state is useless and cleared.
    fn gc_phase(&mut self) {
        match &self.y_buf {
            Some(yb) => {
                let cutoff = yb.ts();
                self.state_x.gc(|x| x.te() >= cutoff);
            }
            None if self.started => self.state_x.gc(|_| false),
            None => {}
        }
        match &self.x_buf {
            Some(xb) => {
                let cutoff = xb.ts();
                self.state_y.gc(|y| y.ts() >= cutoff);
            }
            None if self.started => self.state_y.gc(|_| false),
            None => {}
        }
    }

    /// Process the buffered X tuple: join it against the Y state, retain it
    /// as X state, then run the GC phase against the refreshed buffers.
    fn process_x(&mut self) -> TdbResult<()> {
        let Some(x) = self.x_buf.take() else {
            return Err(TdbError::Eval(
                "contain-join advanced an empty X buffer".into(),
            ));
        };
        let xp = x.period();
        for y in &self.state_y {
            self.metrics.comparisons += 1;
            if xp.contains(&y.period()) {
                self.pending.push_back((x.clone(), y.clone()));
            }
        }
        self.state_x.insert(x);
        self.refill_x()?;
        self.gc_phase();
        Ok(())
    }

    fn process_y(&mut self) -> TdbResult<()> {
        let Some(y) = self.y_buf.take() else {
            return Err(TdbError::Eval(
                "contain-join advanced an empty Y buffer".into(),
            ));
        };
        let yp = y.period();
        for x in &self.state_x {
            self.metrics.comparisons += 1;
            if x.period().contains(&yp) {
                self.pending.push_back((x.clone(), y.clone()));
            }
        }
        self.state_y.insert(y);
        self.refill_y()?;
        self.gc_phase();
        Ok(())
    }
}

impl<X: TupleStream, Y: TupleStream> TupleStream for ContainJoinTsTs<X, Y>
where
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    type Item = (X::Item, Y::Item);

    fn next(&mut self) -> TdbResult<Option<Self::Item>> {
        let out = self.next_inner();
        self.publish_progress();
        out
    }

    fn order(&self) -> Option<StreamOrder> {
        None // pair output carries no single-period ordering
    }
}

impl<X: TupleStream, Y: TupleStream> ContainJoinTsTs<X, Y>
where
    X::Item: Temporal + Clone,
    Y::Item: Temporal + Clone,
{
    fn next_inner(&mut self) -> TdbResult<Option<(X::Item, Y::Item)>> {
        loop {
            if let Some(pair) = self.pending.pop_front() {
                self.metrics.emitted += 1;
                return Ok(Some(pair));
            }
            if !self.started {
                self.started = true;
                self.refill_x()?;
                self.refill_y()?;
            }
            match (&self.x_buf, &self.y_buf) {
                (None, None) => return Ok(None),
                (Some(_), None) => {
                    // No more Y arrivals: new X tuples can only match
                    // resident Y state.
                    if self.state_y.is_empty() {
                        return Ok(None);
                    }
                    self.process_x()?;
                }
                (None, Some(_)) => {
                    if self.state_x.is_empty() {
                        return Ok(None);
                    }
                    self.process_y()?;
                }
                (Some(x), Some(y)) => {
                    let decision = self.policy.decide(
                        &mut self.policy_state,
                        x,
                        y,
                        x.ts(),
                        y.ts(),
                        self.state_x.len(),
                        self.state_y.len(),
                    );
                    match decision {
                        Advance::Left => self.process_x()?,
                        Advance::Right => self.process_y()?,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Instrumented, OpConfig};
    use crate::stream::from_sorted_vec;
    use proptest::prelude::*;
    use tdb_core::{TdbError, TsTuple};
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
    ) -> (Vec<(TsTuple, TsTuple)>, usize) {
        let x = from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap();
        let y = from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap();
        let mut j = ContainJoinTsTs::new(x, y, policy).unwrap();
        let out = j.collect_vec().unwrap();
        (canon(out), j.max_workspace())
    }

    fn run_ts_te(xs: Vec<TsTuple>, mut ys: Vec<TsTuple>) -> (Vec<(TsTuple, TsTuple)>, usize) {
        StreamOrder::TE_ASC.sort(&mut ys);
        let x = from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap();
        let y = from_sorted_vec(ys, StreamOrder::TE_ASC).unwrap();
        let mut j = OpConfig::new().contain_join_ts_te(x, y).unwrap();
        let out = j.collect_vec().unwrap();
        (canon(out), j.max_workspace())
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
        let (got, ws) = run_ts_ts(vec![], vec![iv(0, 5)], ReadPolicy::MinKey);
        assert!(got.is_empty());
        assert!(ws <= 1);
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
        let x = from_sorted_vec(vec![iv(0, 5)], StreamOrder::TE_ASC).unwrap();
        let y = from_sorted_vec(vec![iv(0, 5)], StreamOrder::TS_ASC).unwrap();
        assert!(matches!(
            ContainJoinTsTs::new(x, y, ReadPolicy::MinKey),
            Err(TdbError::UnsupportedOrdering { .. })
        ));
        let x = crate::stream::from_vec(vec![iv(0, 5)]);
        let y = from_sorted_vec(vec![iv(0, 5)], StreamOrder::TE_ASC).unwrap();
        assert!(OpConfig::new().contain_join_ts_te(x, y).is_err());
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
        let gen_x = IntervalGen::poisson(300, 5.0, 40.0, 1);
        let gen_y = IntervalGen::poisson(300, 5.0, 10.0, 2);
        let x = from_sorted_vec(gen_x.generate(), StreamOrder::TS_ASC).unwrap();
        let y = from_sorted_vec(gen_y.generate(), StreamOrder::TS_ASC).unwrap();
        let mut j = ContainJoinTsTs::new(x, y, ReadPolicy::MinKey).unwrap();
        let _ = j.collect_vec().unwrap();
        let (_, ys_stats) = j.workspace();
        // Under the merge-like sweep, Y tuples join on arrival and are
        // GC'd at the next X arrival; residency stays tiny.
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
        let ys = vec![iv(500, 510)];
        let x = from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap();
        let y = from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap();
        let mut j = ContainJoinTsTs::new(x, y, ReadPolicy::MinKey).unwrap();
        assert_eq!(j.collect_vec().unwrap().len(), 20);
        let (xs_stats, _) = j.workspace();
        assert_eq!(
            xs_stats.max_resident, 20,
            "every x spans y's TS and must be resident"
        );
    }

    #[test]
    fn metrics_count_reads_and_emits() {
        let xs = vec![iv(0, 10), iv(20, 30)];
        let ys = vec![iv(1, 2), iv(21, 22)];
        let x_in = from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap();
        let y_in = from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap();
        let mut join = ContainJoinTsTs::new(x_in, y_in, ReadPolicy::MinKey).unwrap();
        let n_out = join.collect_vec().unwrap().len();
        let metrics = join.metrics();
        assert_eq!(n_out, 2);
        assert_eq!(metrics.emitted, 2);
        assert_eq!(metrics.read_left, 2);
        assert_eq!(metrics.read_right, 2);
        assert_eq!(metrics.passes, 1);
    }

    #[test]
    fn progress_is_readable_mid_run() {
        let xs: Vec<_> = (0..50).map(|i| iv(i * 3, i * 3 + 10)).collect();
        let ys: Vec<_> = (0..50).map(|i| iv(i * 3 + 1, i * 3 + 2)).collect();
        let progress = crate::progress::Progress::new();
        let left = from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap();
        let right = from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap();
        let mut join = ContainJoinTsTs::new(left, right, ReadPolicy::MinKey)
            .unwrap()
            .with_progress(&progress);
        let mut last = 0;
        for _ in 0..10 {
            let item = join.next().unwrap();
            assert!(item.is_some(), "50×50 workload has ≥10 matches");
            let snap = progress.snapshot();
            assert!(snap.admitted >= last, "admitted counter is monotonic");
            last = snap.admitted;
        }
        // The stream is far from exhausted, yet progress is visible.
        let snap = progress.snapshot();
        assert!(
            snap.admitted > 0 && snap.admitted < 100,
            "mid-run: {}",
            snap.admitted
        );
        assert!(snap.emitted >= 10);
    }

    #[test]
    fn errors_propagate_from_inputs() {
        let x = crate::stream::FailingStream::new(vec![iv(0, 5), iv(1, 6)], 1, || {
            TdbError::Eval("disk error".into())
        });
        // FailingStream declares no order; wrap the construction check by
        // using the TS/TS operator over an OrderChecked adapter instead.
        let x = crate::stream::OrderChecked::new(x, StreamOrder::TS_ASC);
        let y = from_sorted_vec(vec![iv(0, 5)], StreamOrder::TS_ASC).unwrap();
        let mut j = ContainJoinTsTs::new(x, y, ReadPolicy::MinKey).unwrap();
        let mut saw_error = false;
        loop {
            match j.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error);
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
            let x = from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap();
            let y = from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap();
            let mut j = ContainJoinTsTs::new(x, y, ReadPolicy::MinKey).unwrap();
            let _ = j.collect_vec().unwrap();
            let (xs_stats, _) = j.workspace();
            // +1: a newly inserted tuple is sampled before the GC phase
            // that may immediately discard it.
            prop_assert!(
                xs_stats.max_resident <= bound.max(1) + 1,
                "resident {} > bound {}",
                xs_stats.max_resident,
                bound
            );
        }
    }
}
