//! Self semijoins over a single stream (§4.2.3, Figure 7, Table 3).
//!
//! `Contained-semijoin(X,X)` selects every tuple whose lifespan is strictly
//! contained within *another* tuple of the same stream;
//! `Contain-semijoin(X,X)` selects every tuple that strictly contains
//! another. Applying the two-stream algorithms naively would scan the
//! operand twice; the paper shows a **single scan with one state tuple**
//! suffices for `Contained-semijoin(X,X)` when the stream is sorted
//! primarily on `ValidFrom ↑` with secondary `ValidTo ↑`.
//!
//! ### Why one state tuple suffices ([`ContainedSelfSemijoin`])
//!
//! Invariant: the state tuple `x_s` always has the **maximum `ValidTo`**
//! among tuples read so far. On reading `x_b`:
//!
//! * `x_s.TS = x_b.TS` — replace: the secondary `TE ↑` order makes
//!   `x_b.TE ≥ x_s.TE`, preserving the invariant; and no emission is missed
//!   because a hypothetical other container `z` would need
//!   `z.TE > x_b.TE ≥ x_s.TE`, contradicting the invariant;
//! * `x_s.TE ≤ x_b.TE` — replace (preserves the invariant; `x_s` cannot
//!   contain `x_b`, and nothing else can: `x_s.TE` was maximal);
//! * otherwise `x_s.TS < x_b.TS ∧ x_b.TE < x_s.TE` — `x_b` is contained:
//!   **emit** `x_b`, keep `x_s`.
//!
//! [`ContainSelfSemijoinDesc`] is the mirror image (sort `ValidFrom ↓` with
//! secondary `ValidTo ↓`, state keeps the *minimum* `ValidTo`), realizing
//! Table 3's row 2: `Contain-semijoin(X,X)` in (a)-state under descending
//! order. Under ascending order, `Contain-semijoin(X,X)` needs the larger
//! (b)-state `state(x_i) ⊆ {x_j | j > i and x_j overlaps x_i}` —
//! implemented by [`ContainSelfSemijoin`].

use crate::batch::RowBatch;
use crate::batch_ops::{metrics, BatchOp, Cursor, Head, Side, Wants};
use crate::gapless::GaplessWorkspace;
use crate::report::OpReport;
use crate::workspace::WorkspaceStats;
use tdb_core::{TdbResult, Temporal};

/// The one-state-tuple scan shared by [`ContainedSelfSemijoin`] and its
/// mirror [`ContainSelfSemijoinDesc`]: `x_b` replaces the state tuple
/// `x_s` on a tie in `ValidFrom` or when `x_s` cannot contain it,
/// otherwise `x_b` is emitted.
struct OneStateScan<X: Temporal + Clone> {
    cx: Cursor<X>,
    /// `(ts, te)` ticks and payload of the state tuple `x_s`.
    state: Option<(i64, i64, X)>,
    /// `false`: ascending order, `x_s` holds the maximum `ValidTo`;
    /// `true`: descending order, `x_s` holds the minimum.
    mirrored: bool,
    out: Vec<X>,
    comparisons: usize,
    emitted: usize,
    want: Wants,
}

impl<X: Temporal + Clone> OneStateScan<X> {
    fn new(mirrored: bool) -> Self {
        OneStateScan {
            cx: Cursor::new(),
            state: None,
            mirrored,
            out: Vec::new(),
            comparisons: 0,
            emitted: 0,
            want: Wants::Left,
        }
    }

    fn run(&mut self) {
        loop {
            let (ts, te) = match self.cx.head() {
                Head::Starved => return,
                Head::Exhausted => {
                    self.want = Wants::Done;
                    return;
                }
                Head::Row(ts, te) => (ts, te),
            };
            let xb = self.cx.clone_head();
            self.cx.advance();
            let Some((sts, ste, _)) = self.state else {
                self.state = Some((ts, te, xb));
                continue;
            };
            self.comparisons += 1;
            let replace = if self.mirrored { ste >= te } else { ste <= te };
            if sts == ts || replace {
                // Replace the state tuple (Figure 7 cases 1 and 2).
                self.state = Some((ts, te, xb));
            } else {
                // x_b's lifespan is contained within x_s's (ascending) or
                // contains it (descending): output x_b, keep x_s (case 3).
                self.out.push(xb);
                self.emitted += 1;
            }
        }
    }

    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, 0, self.comparisons, self.emitted),
            WorkspaceStats::of_resident(usize::from(self.state.is_some())),
        )
    }

    fn visit_held(&mut self, f: &mut dyn FnMut(&mut X)) {
        self.cx.visit_held(f);
        if let Some((_, _, x)) = &mut self.state {
            f(x);
        }
        self.out.iter_mut().for_each(f);
    }
}

/// Implement the unary [`BatchOp`] surface for a wrapper around a scan
/// with `cx`, `run()`, `out`, `want` and `report()`.
macro_rules! unary_batch_op {
    ($name:ident, $scan:ident) => {
        impl<X: Temporal + Clone> BatchOp for $name<X> {
            type LeftItem = X;
            type RightItem = X;
            type Out = X;

            fn wants(&self) -> Wants {
                self.$scan.want
            }

            fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
                self.$scan.cx.push(batch);
                self.$scan.run();
                Ok(())
            }

            /// Never asked for: a self semijoin reads one input.
            fn process_batch_right(&mut self, _batch: RowBatch<X>) -> TdbResult<()> {
                Ok(())
            }

            fn finish(&mut self, side: Side) -> TdbResult<()> {
                if side == Side::Left {
                    self.$scan.cx.finish();
                    self.$scan.run();
                }
                Ok(())
            }

            fn drain(&mut self) -> Vec<X> {
                std::mem::take(&mut self.$scan.out)
            }

            fn report(&self) -> OpReport {
                self.$scan.report()
            }

            fn visit_held(&mut self, left: &mut dyn FnMut(&mut X), _right: &mut dyn FnMut(&mut X)) {
                self.$scan.visit_held(left);
            }
        }
    };
}

/// `Contained-semijoin(X,X)`: emits tuples strictly contained in another
/// tuple of the same stream. Single scan, one state tuple (Figure 7).
///
/// Requires primary `ValidFrom ↑`, secondary `ValidTo ↑`.
///
/// ```
/// use tdb_stream::{collect, run_self_semijoin, OpConfig, StreamOpKind};
/// use tdb_core::TsTuple;
///
/// let xs = vec![
///     TsTuple::interval(0, 4)?,
///     TsTuple::interval(3, 20)?,
///     TsTuple::interval(5, 10)?, // inside [3,20)
/// ];
/// let kind = StreamOpKind::ContainedSelfSemijoin;
/// let (inside, report) =
///     collect(|emit| run_self_semijoin(kind, OpConfig::new(), xs, emit))?;
/// assert_eq!(inside.len(), 1);
/// assert!(report.max_workspace() <= 1); // Table 3 state (a)
/// # Ok::<(), tdb_core::TdbError>(())
/// ```
pub struct ContainedSelfSemijoin<X: Temporal + Clone> {
    scan: OneStateScan<X>,
}

impl<X: Temporal + Clone> ContainedSelfSemijoin<X> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        ContainedSelfSemijoin {
            scan: OneStateScan::new(false),
        }
    }

    /// The current state tuple `x_s` (exposed for the Figure 7 trace test).
    pub fn state_tuple(&self) -> Option<&X> {
        self.scan.state.as_ref().map(|(_, _, x)| x)
    }
}

impl<X: Temporal + Clone> Default for ContainedSelfSemijoin<X> {
    fn default() -> Self {
        Self::new()
    }
}

unary_batch_op!(ContainedSelfSemijoin, scan);

/// `Contain-semijoin(X,X)` under **descending** order (`ValidFrom ↓`,
/// secondary `ValidTo ↓`): emits tuples that strictly contain another tuple.
/// Single scan, one state tuple (Table 3 row 2, state (a)) — the mirror
/// image of [`ContainedSelfSemijoin`], with the state tuple holding the
/// *minimum* `ValidTo` seen so far.
pub struct ContainSelfSemijoinDesc<X: Temporal + Clone> {
    scan: OneStateScan<X>,
}

impl<X: Temporal + Clone> ContainSelfSemijoinDesc<X> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        ContainSelfSemijoinDesc {
            scan: OneStateScan::new(true),
        }
    }
}

impl<X: Temporal + Clone> Default for ContainSelfSemijoinDesc<X> {
    fn default() -> Self {
        Self::new()
    }
}

unary_batch_op!(ContainSelfSemijoinDesc, scan);

/// The candidate sweep of [`ContainSelfSemijoin`].
struct CandidateScan<X: Temporal + Clone> {
    cx: Cursor<X>,
    /// Candidate containers not yet witnessed, still alive at the sweep.
    candidates: GaplessWorkspace<X>,
    out: Vec<X>,
    comparisons: usize,
    emitted: usize,
    want: Wants,
}

impl<X: Temporal + Clone> CandidateScan<X> {
    fn run(&mut self) {
        loop {
            let (ts, te) = match self.cx.head() {
                Head::Starved => return,
                Head::Exhausted => {
                    self.want = Wants::Done;
                    return;
                }
                Head::Row(ts, te) => (ts, te),
            };
            let xb = self.cx.clone_head();
            self.cx.advance();
            // Candidates that died before the sweep can never be witnessed.
            self.candidates.gc_te_gt(ts);
            // Emit every candidate that strictly contains x_b (each exactly
            // once — extraction removes them).
            self.comparisons += self.candidates.len();
            let witnessed = self.candidates.extract(|cts, cte| (cts < ts) & (te < cte));
            self.emitted += witnessed.len();
            self.out.extend(witnessed);
            self.candidates.insert_raw(ts, te, xb);
        }
    }

    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, 0, self.comparisons, self.emitted),
            self.candidates.stats(),
        )
    }

    fn visit_held(&mut self, f: &mut dyn FnMut(&mut X)) {
        self.cx.visit_held(f);
        self.candidates.visit_held(f);
        self.out.iter_mut().for_each(f);
    }
}

/// `Contain-semijoin(X,X)` under **ascending** order (`ValidFrom ↑`,
/// secondary `ValidTo ↑`): emits tuples that strictly contain another.
///
/// Containers precede their containees in ascending order, so an emission
/// decision must be deferred: the workspace holds the not-yet-witnessed
/// candidates that still overlap the sweep point — Table 3 state (b),
/// `state(x_i) ⊆ {x_j | j > i and x_j overlaps x_i}`.
pub struct ContainSelfSemijoin<X: Temporal + Clone> {
    scan: CandidateScan<X>,
}

impl<X: Temporal + Clone> ContainSelfSemijoin<X> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        ContainSelfSemijoin {
            scan: CandidateScan {
                cx: Cursor::new(),
                candidates: GaplessWorkspace::new(),
                out: Vec::new(),
                comparisons: 0,
                emitted: 0,
                want: Wants::Left,
            },
        }
    }
}

impl<X: Temporal + Clone> Default for ContainSelfSemijoin<X> {
    fn default() -> Self {
        Self::new()
    }
}

unary_batch_op!(ContainSelfSemijoin, scan);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{collect, run_kernel, run_self_semijoin, Emit};
    use crate::report::OpConfig;
    use crate::required::{StreamOpKind, TS_DESC_TE_DESC};
    use proptest::prelude::*;
    use tdb_core::{StreamOrder, TdbError, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn canon(mut v: Vec<TsTuple>) -> Vec<TsTuple> {
        v.sort_by_key(|t| (t.ts().ticks(), t.te().ticks()));
        v
    }

    fn contained_oracle(xs: &[TsTuple]) -> Vec<TsTuple> {
        xs.iter()
            .enumerate()
            .filter(|(i, x)| {
                xs.iter()
                    .enumerate()
                    .any(|(j, y)| *i != j && y.period.contains(&x.period))
            })
            .map(|(_, x)| x.clone())
            .collect()
    }

    fn contain_oracle(xs: &[TsTuple]) -> Vec<TsTuple> {
        xs.iter()
            .enumerate()
            .filter(|(i, x)| {
                xs.iter()
                    .enumerate()
                    .any(|(j, y)| *i != j && x.period.contains(&y.period))
            })
            .map(|(_, x)| x.clone())
            .collect()
    }

    fn sorted_asc(mut xs: Vec<TsTuple>) -> Vec<TsTuple> {
        StreamOrder::TS_ASC_TE_ASC.sort(&mut xs);
        xs
    }

    fn run(kind: StreamOpKind, xs: Vec<TsTuple>) -> (Vec<TsTuple>, OpReport) {
        collect(|e| run_self_semijoin(kind, OpConfig::new().with_batch_rows(3), xs, e)).unwrap()
    }

    /// The Figure 7 walk: x1 read and kept; x2 replaces it; x3 replaces x2;
    /// x4 is contained in x3 and output; x3 remains in the state.
    #[test]
    fn figure7_trace() {
        let x1 = iv(0, 4);
        let x2 = iv(1, 8);
        let x3 = iv(3, 20);
        let x4 = iv(5, 10); // inside x3
        let mut op = ContainedSelfSemijoin::new();
        let order = Some(StreamOrder::TS_ASC_TE_ASC);
        let input = vec![x1, x2, x3.clone(), x4.clone()];
        let (out, report) =
            collect(|e| run_kernel(&mut op, 1, input, order, vec![], None, e)).unwrap();
        assert_eq!(out, vec![x4]);
        assert_eq!(op.state_tuple(), Some(&x3), "x3 remains in the state");
        assert!(report.max_workspace() <= 1, "at most one state tuple");
        assert_eq!(report.metrics.read_left, 4);
    }

    #[test]
    fn equal_ts_run_replaces_without_emitting() {
        // Identical TS: secondary TE ↑; none strictly contained.
        let xs = vec![iv(0, 3), iv(0, 5), iv(0, 9)];
        assert!(run(StreamOpKind::ContainedSelfSemijoin, xs).0.is_empty());
    }

    #[test]
    fn duplicate_periods_are_not_contained_in_each_other() {
        let xs = vec![iv(2, 7), iv(2, 7)];
        assert!(run(StreamOpKind::ContainedSelfSemijoin, xs).0.is_empty());
    }

    #[test]
    fn contain_self_desc_mirrors() {
        let mut xs = vec![iv(0, 100), iv(1, 90), iv(2, 5), iv(50, 60)];
        TS_DESC_TE_DESC.sort(&mut xs);
        let (got, report) = run(StreamOpKind::ContainSelfSemijoinDesc, xs.clone());
        let got = canon(got);
        assert_eq!(got, canon(contain_oracle(&xs)));
        assert_eq!(got.len(), 2); // [0,100) and [1,90) both contain [2,5)
        assert!(report.max_workspace() <= 1);
    }

    #[test]
    fn contain_self_asc_finds_all_containers() {
        let xs = sorted_asc(vec![iv(0, 100), iv(1, 90), iv(2, 5), iv(50, 60)]);
        let got = canon(run(StreamOpKind::ContainSelfSemijoin, xs.clone()).0);
        assert_eq!(got, canon(contain_oracle(&xs)));
    }

    #[test]
    fn rejects_missing_secondary_order() {
        // TS ↑ but not TE ↑ within the tie.
        let xs = vec![iv(0, 9), iv(0, 5)];
        let kind = StreamOpKind::ContainedSelfSemijoin;
        assert!(matches!(
            run_self_semijoin(kind, OpConfig::new(), xs, Emit::Count),
            Err(TdbError::OrderViolation { .. })
        ));
    }

    #[test]
    fn empty_and_singleton_streams() {
        let kind = StreamOpKind::ContainedSelfSemijoin;
        let (out, report) = run(kind, vec![]);
        assert!(out.is_empty());
        assert_eq!(report.max_workspace(), 0);
        let (out, report) = run(kind, vec![iv(0, 5)]);
        assert!(out.is_empty());
        assert_eq!(report.max_workspace(), 1);
    }

    fn arb_intervals(n: usize) -> impl Strategy<Value = Vec<TsTuple>> {
        proptest::collection::vec((-60i64..60, 1i64..50), 0..n)
            .prop_map(|v| v.into_iter().map(|(s, d)| iv(s, s + d)).collect())
    }

    proptest! {
        #[test]
        fn contained_self_matches_oracle(xs in arb_intervals(60)) {
            let xs = sorted_asc(xs);
            let (got, report) = run(StreamOpKind::ContainedSelfSemijoin, xs.clone());
            prop_assert_eq!(canon(got), canon(contained_oracle(&xs)));
            prop_assert!(report.max_workspace() <= 1);
        }

        #[test]
        fn contain_self_asc_matches_oracle(xs in arb_intervals(60)) {
            let xs = sorted_asc(xs);
            let got = canon(run(StreamOpKind::ContainSelfSemijoin, xs.clone()).0);
            prop_assert_eq!(got, canon(contain_oracle(&xs)));
        }

        #[test]
        fn contain_self_desc_matches_oracle(xs in arb_intervals(60)) {
            let mut xs = xs;
            TS_DESC_TE_DESC.sort(&mut xs);
            let (got, report) = run(StreamOpKind::ContainSelfSemijoinDesc, xs.clone());
            prop_assert_eq!(canon(got), canon(contain_oracle(&xs)));
            prop_assert!(report.max_workspace() <= 1);
        }
    }
}
