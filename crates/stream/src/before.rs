//! Before join and semijoin (§4.2.4).
//!
//! `Before-join(X,Y)` pairs `x` with every *later* `y`: `x.TE < y.TS`.
//! The paper observes that "there is no sort ordering that would
//! significantly limit the amount of state information required when the
//! Before-join is implemented by a stream processor" — the output itself is
//! Θ(|X|·|Y|) in the worst case — but that "with proper sort orders,
//! nested-loop join can avoid scanning the inner relation in its entirety."
//!
//! [`BeforeJoin`] exploits exactly that: with Y sorted `ValidFrom ↑`, the
//! matches of each `x` form a *suffix* of Y located by binary search, so the
//! inner relation is scanned only over actual matches (plus `log |Y|`
//! probes), and a count needs no pair at all. The inner relation must
//! still be materialized — that Θ(|Y|) workspace is the paper's point, and
//! the kernel's report carries it.
//!
//! `Before-semijoin(X,Y)` selects `x` with *some* later `y`, which only
//! requires the **maximum `ValidFrom` of Y**: one scan of each input, two
//! scalar cells of state, any input order — the paper's "simple algorithm
//! which scans both operand relations only once and is independent of any
//! sort orderings; we omit the detail for brevity." [`BeforeSemijoin`] is
//! that detail; mirrored (`y.TE < x.TS`, the minimum `ValidTo` of Y) it
//! serves After.

use crate::batch::RowBatch;
use crate::batch_ops::{metrics, visit_pairs, BatchOp, Cursor, Head, Side, Wants};
use crate::report::OpReport;
use crate::workspace::WorkspaceStats;
use tdb_core::{StreamOrder, TdbResult, Temporal, TimePoint};

/// Before-join: emits every pair `(x, y)` with `x.TE < y.TS`.
///
/// Y is read first, materialized and sorted on `ValidFrom ↑` internally;
/// X then streams through in its input order. Each x's matches are the Y
/// suffix past `x.TE`, handed over at most `chunk` pairs per
/// [`BatchOp::drain`], so a consumer that stops early never sees the
/// Θ(|X|·|Y|) result built. Count-only mode adds up suffix lengths.
pub struct BeforeJoin<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    /// Y sorted by `ValidFrom ↑` once it is complete; matches of an `x`
    /// are a suffix.
    ys: Vec<Y>,
    y_done: bool,
    /// The x being paired and the index of its next partner in `ys`.
    current: Option<(X, usize)>,
    chunk: usize,
    out: Vec<(X, Y)>,
    comparisons: usize,
    emitted: usize,
    count_only: bool,
    want: Wants,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BeforeJoin<X, Y> {
    /// An empty kernel handing over at most `chunk` pairs per drain.
    pub fn new(chunk: usize) -> Self {
        BeforeJoin {
            cx: Cursor::new(),
            ys: Vec::new(),
            y_done: false,
            current: None,
            chunk: chunk.max(1),
            out: Vec::new(),
            comparisons: 0,
            emitted: 0,
            count_only: false,
            want: Wants::Right,
        }
    }

    /// With `on`, count pairs by sorted-suffix arithmetic instead of
    /// building them.
    pub fn count_only(mut self, on: bool) -> Self {
        self.count_only = on;
        self
    }

    fn run(&mut self) {
        if !self.y_done {
            return;
        }
        loop {
            if let Some((x, next)) = &mut self.current {
                let end = self.ys.len().min(*next + self.chunk - self.out.len());
                for y in &self.ys[*next..end] {
                    self.out.push((x.clone(), y.clone()));
                }
                self.emitted += end - *next;
                *next = end;
                if end < self.ys.len() {
                    return; // a full chunk: the next drain resumes here
                }
                self.current = None;
            }
            let te = match self.cx.head() {
                Head::Starved => {
                    self.want = Wants::Left;
                    return;
                }
                Head::Exhausted => {
                    self.want = Wants::Done;
                    return;
                }
                Head::Row(_, te) => TimePoint::new(te),
            };
            // One binary search for the first y with `y.TS > x.TE`.
            self.comparisons += self.ys.len().max(2).ilog2() as usize;
            let suffix = self.ys.partition_point(|y| y.ts() <= te);
            if self.count_only {
                self.emitted += self.ys.len() - suffix;
            } else {
                self.current = Some((self.cx.clone_head(), suffix));
            }
            self.cx.advance();
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for BeforeJoin<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = (X, Y);

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.ys.extend(batch.into_rows());
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            Side::Right => {
                // The workspace is Θ(|Y|) whatever the input order — the
                // paper's point about Before-join.
                StreamOrder::TS_ASC.sort(&mut self.ys);
                self.y_done = true;
                self.want = Wants::Left;
            }
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<(X, Y)> {
        if self.out.is_empty() {
            self.run();
        }
        std::mem::take(&mut self.out)
    }

    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, self.ys.len(), self.comparisons, self.emitted),
            WorkspaceStats::of_resident(self.ys.len()),
        )
    }

    fn visit_held(&mut self, left: &mut dyn FnMut(&mut X), right: &mut dyn FnMut(&mut Y)) {
        self.cx.visit_held(left);
        if let Some((x, _)) = &mut self.current {
            left(x);
        }
        self.ys.iter_mut().for_each(&mut *right);
        visit_pairs(&mut self.out, left, right);
    }
}

/// Before-semijoin: emits each `x` with `x.TE < max(y.TS)`; mirrored,
/// the After-semijoin: each `x` with `x.TS > min(y.TE)`.
///
/// Y is read first, folding the one bound; then one pass over X in its
/// input order. O(1) state, independent of sort order.
pub struct BeforeSemijoin<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    /// `false`: Before (`bound` = max `y.TS`); `true`: After (min `y.TE`).
    after: bool,
    /// The folded bound; `None` while Y is empty.
    bound: Option<i64>,
    read_right: usize,
    out: Vec<X>,
    comparisons: usize,
    emitted: usize,
    want: Wants,
    _y: std::marker::PhantomData<Y>,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BeforeSemijoin<X, Y> {
    /// Keep `x` preceding some `y` (`x.TE < y.TS`).
    pub fn before() -> Self {
        Self::new(false)
    }

    /// Keep `x` following some `y` (`y.TE < x.TS`).
    pub fn after() -> Self {
        Self::new(true)
    }

    fn new(after: bool) -> Self {
        BeforeSemijoin {
            cx: Cursor::new(),
            after,
            bound: None,
            read_right: 0,
            out: Vec::new(),
            comparisons: 0,
            emitted: 0,
            want: Wants::Right,
            _y: std::marker::PhantomData,
        }
    }

    fn run(&mut self) {
        let Some(bound) = self.bound else { return };
        loop {
            let (ts, te) = match self.cx.head() {
                Head::Starved => {
                    self.want = Wants::Left;
                    return;
                }
                Head::Exhausted => {
                    self.want = Wants::Done;
                    return;
                }
                Head::Row(ts, te) => (ts, te),
            };
            self.comparisons += 1;
            if if self.after { bound < ts } else { te < bound } {
                self.out.push(self.cx.clone_head());
                self.emitted += 1;
            }
            self.cx.advance();
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for BeforeSemijoin<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = X;

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.read_right += batch.len();
        let col = if self.after {
            batch.te_ticks().iter().min()
        } else {
            batch.ts_ticks().iter().max()
        };
        if let Some(&v) = col {
            self.bound = Some(match self.bound {
                Some(b) if self.after => b.min(v),
                Some(b) => b.max(v),
                None => v,
            });
        }
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            // An empty Y keeps no x: X is never read.
            Side::Right if self.bound.is_none() => self.want = Wants::Done,
            Side::Right => self.want = Wants::Left,
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<X> {
        std::mem::take(&mut self.out)
    }

    /// State beyond the input buffer: a single time point.
    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(
                self.cx.reads,
                self.read_right,
                self.comparisons,
                self.emitted,
            ),
            WorkspaceStats::of_resident(1),
        )
    }

    fn visit_held(&mut self, left: &mut dyn FnMut(&mut X), _right: &mut dyn FnMut(&mut Y)) {
        self.cx.visit_held(left);
        self.out.iter_mut().for_each(left);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{collect, run_join, run_kernel, run_semijoin, Emit};
    use crate::report::OpConfig;
    use crate::required::StreamOpKind;
    use proptest::prelude::*;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn canon_pairs(mut v: Vec<(TsTuple, TsTuple)>) -> Vec<(TsTuple, TsTuple)> {
        v.sort_by_key(|(x, y)| {
            (
                x.ts().ticks(),
                x.te().ticks(),
                y.ts().ticks(),
                y.te().ticks(),
            )
        });
        v
    }

    fn join_oracle(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<(TsTuple, TsTuple)> {
        let mut out = Vec::new();
        for x in xs {
            for y in ys {
                if x.period.before(&y.period) {
                    out.push((x.clone(), y.clone()));
                }
            }
        }
        canon_pairs(out)
    }

    fn join(xs: Vec<TsTuple>, ys: Vec<TsTuple>) -> (Vec<(TsTuple, TsTuple)>, OpReport) {
        let cfg = OpConfig::new().with_batch_rows(3);
        collect(|e| run_join(StreamOpKind::BeforeJoin, cfg, xs, ys, e)).unwrap()
    }

    fn count(xs: Vec<TsTuple>, ys: Vec<TsTuple>) -> usize {
        let cfg = OpConfig::new();
        let (_, r) = run_join(StreamOpKind::BeforeJoin, cfg, xs, ys, Emit::Count).unwrap();
        r.metrics.emitted
    }

    fn semijoin(xs: Vec<TsTuple>, ys: Vec<TsTuple>) -> (Vec<TsTuple>, OpReport) {
        let cfg = OpConfig::new().with_batch_rows(2);
        collect(|e| run_semijoin(StreamOpKind::BeforeSemijoin, cfg, xs, ys, e)).unwrap()
    }

    #[test]
    fn join_basic() {
        let xs = vec![iv(0, 2), iv(5, 8)];
        let ys = vec![iv(3, 4), iv(9, 12), iv(1, 2)];
        let got = canon_pairs(join(xs.clone(), ys.clone()).0);
        assert_eq!(got, join_oracle(&xs, &ys));
        // [0,2) before [3,4) and [9,12); [5,8) before [9,12) → 3 pairs.
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn meets_is_not_before() {
        assert!(join(vec![iv(0, 3)], vec![iv(3, 5)]).0.is_empty());
    }

    #[test]
    fn count_avoids_materialization() {
        let xs: Vec<_> = (0..100).map(|i| iv(i, i + 1)).collect();
        let ys: Vec<_> = (0..100).map(|i| iv(i, i + 1)).collect();
        let expected = join_oracle(&xs, &ys).len();
        let op = BeforeJoin::new(8).count_only(true);
        let (out, report) = collect(|e| run_kernel(op, 8, xs, None, ys, None, e)).unwrap();
        assert!(out.is_empty(), "count-only builds no pair");
        assert_eq!(report.metrics.emitted, expected);
    }

    /// The kernel hands over at most one chunk per drain, so a consumer
    /// that stops after the first has not had the rest built.
    #[test]
    fn join_stops_after_the_first_chunk() {
        let xs = vec![iv(0, 1)];
        let ys: Vec<_> = (0..50).map(|i| iv(i + 2, i + 3)).collect();
        let mut chunks = Vec::new();
        let (completed, report) = run_join(
            StreamOpKind::BeforeJoin,
            OpConfig::new().with_batch_rows(8),
            xs,
            ys,
            Emit::Chunks(&mut |c| {
                chunks.push(c.len());
                Ok(false)
            }),
        )
        .unwrap();
        assert!(!completed);
        assert_eq!(chunks, vec![8]);
        assert_eq!(report.metrics.emitted, 8);
    }

    #[test]
    fn join_workspace_is_theta_y() {
        let ys: Vec<_> = (0..250).map(|i| iv(i, i + 1)).collect();
        assert_eq!(join(vec![iv(0, 1)], ys).1.max_workspace(), 250);
    }

    #[test]
    fn semijoin_is_order_independent() {
        let xs = vec![iv(5, 8), iv(0, 2), iv(30, 40)];
        let ys = vec![iv(9, 12), iv(3, 4)];
        // max y.TS = 9 → x qualifies iff x.TE < 9 → [5,8) and [0,2).
        let (got, report) = semijoin(xs, ys);
        assert_eq!(got, vec![iv(5, 8), iv(0, 2)]);
        assert_eq!(report.metrics.read_right, 2);
        assert_eq!(report.max_workspace(), 1);
    }

    #[test]
    fn semijoin_empty_y_short_circuits() {
        let (got, report) = semijoin(vec![iv(0, 1)], vec![]);
        assert!(got.is_empty());
        assert_eq!(report.metrics.read_left, 0, "X never read when Y empty");
    }

    #[test]
    fn semijoin_preserves_input_order_declaration() {
        // The output is a filtered subsequence of X, so X's order holds.
        let xs: Vec<_> = (0..40).map(|i| iv(i, i + 1 + i % 7)).collect();
        let (got, _) = semijoin(xs, vec![iv(30, 31)]);
        assert!(!got.is_empty());
        assert_eq!(StreamOrder::TS_ASC.first_violation(&got), None);
    }

    fn arb_intervals(n: usize) -> impl Strategy<Value = Vec<TsTuple>> {
        proptest::collection::vec((-60i64..60, 1i64..40), 0..n)
            .prop_map(|v| v.into_iter().map(|(s, d)| iv(s, s + d)).collect())
    }

    proptest! {
        #[test]
        fn join_matches_oracle(xs in arb_intervals(30), ys in arb_intervals(30)) {
            let got = canon_pairs(join(xs.clone(), ys.clone()).0);
            prop_assert_eq!(got, join_oracle(&xs, &ys));
        }

        #[test]
        fn semijoin_matches_oracle(xs in arb_intervals(30), ys in arb_intervals(30)) {
            let expected: Vec<_> = xs
                .iter()
                .filter(|x| ys.iter().any(|y| x.period.before(&y.period)))
                .cloned()
                .collect();
            prop_assert_eq!(semijoin(xs.clone(), ys.clone()).0, expected);
            // Mirrored: x after some y.
            let expected: Vec<_> = xs
                .iter()
                .filter(|x| ys.iter().any(|y| y.period.before(&x.period)))
                .cloned()
                .collect();
            let op = BeforeSemijoin::after();
            let (got, _) = collect(|e| run_kernel(op, 4, xs, None, ys, None, e)).unwrap();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn count_equals_materialized_length(xs in arb_intervals(25), ys in arb_intervals(25)) {
            let n = join(xs.clone(), ys.clone()).0.len();
            prop_assert_eq!(count(xs, ys), n);
        }
    }
}
