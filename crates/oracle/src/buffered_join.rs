//! The fallback stream join for inappropriate sort orderings.
//!
//! Table 1 marks several ordering combinations "-": "the sort ordering is
//! not appropriate for stream processing — no garbage-collection criteria."
//! A join over such inputs can still run in one pass, but *nothing may ever
//! be discarded*: every tuple read must be retained, so the workspace grows
//! to Θ(|X| + |Y|). [`buffered_join`] is that reference definition —
//! correct under any input orders and any join predicate, and instrumented
//! so experiments can exhibit the degenerate state growth (E1 and E2 print
//! its |X| + |Y| in their "–" cells) next to the bounded-state kernels.

use crate::workspace::Workspace;
use tdb_stream::{OpMetrics, OpReport};

/// Single-pass theta-join with no garbage collection: the inputs are read
/// alternately (falling back to the live one), each arrival is compared
/// with every retained tuple of the other side and then retained itself,
/// so every pair is compared exactly once and the workspace ends holding
/// both inputs.
pub fn buffered_join<X: Clone, Y: Clone>(
    xs: &[X],
    ys: &[Y],
    predicate: impl Fn(&X, &Y) -> bool,
) -> (Vec<(X, Y)>, OpReport) {
    let (mut sx, mut sy) = (Workspace::new(), Workspace::new());
    let mut out = Vec::new();
    let mut comparisons = 0;
    let (mut i, mut j) = (0, 0);
    while i < xs.len() || j < ys.len() {
        if i < xs.len() && (i <= j || j == ys.len()) {
            let x = &xs[i];
            for y in &sy {
                comparisons += 1;
                if predicate(x, y) {
                    out.push((x.clone(), y.clone()));
                }
            }
            sx.insert(x.clone());
            i += 1;
        } else {
            let y = &ys[j];
            for x in &sx {
                comparisons += 1;
                if predicate(x, y) {
                    out.push((x.clone(), y.clone()));
                }
            }
            sy.insert(y.clone());
            j += 1;
        }
    }
    let metrics = OpMetrics {
        read_left: xs.len(),
        read_right: ys.len(),
        comparisons,
        emitted: out.len(),
        passes: 1,
    };
    let workspace = sx.stats().combine_stacked(sy.stats());
    (out, OpReport::new(metrics, workspace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_core::{Temporal, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn canon(mut v: Vec<(TsTuple, TsTuple)>) -> Vec<(TsTuple, TsTuple)> {
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

    #[test]
    fn joins_under_any_order_and_predicate() {
        // Deliberately unsorted inputs.
        let xs = vec![iv(10, 20), iv(0, 100), iv(5, 6)];
        let ys = vec![iv(11, 19), iv(1, 2)];
        let (got, _) = buffered_join(&xs, &ys, |x, y| x.period.contains(&y.period));
        let got = canon(got);
        let mut expected = Vec::new();
        for x in &xs {
            for y in &ys {
                if x.period.contains(&y.period) {
                    expected.push((x.clone(), y.clone()));
                }
            }
        }
        assert_eq!(got, canon(expected));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn workspace_grows_to_input_size() {
        let xs: Vec<_> = (0..100).map(|i| iv(i, i + 1)).collect();
        let ys: Vec<_> = (0..80).map(|i| iv(i, i + 1)).collect();
        let (_, report) = buffered_join(&xs, &ys, |_, _| false);
        assert_eq!(report.max_workspace(), 180, "no GC: everything retained");
        assert_eq!(report.metrics.comparisons, 100 * 80, "each pair once");
    }

    #[test]
    fn uneven_stream_lengths_drain_fully() {
        let xs = vec![iv(0, 1)];
        let ys: Vec<_> = (0..10).map(|i| iv(0, i + 1)).collect();
        let (out, _) = buffered_join(&xs, &ys, |x, y| x.period().start() == y.period().start());
        assert_eq!(out.len(), 10);
    }

    fn arb_intervals(n: usize) -> impl Strategy<Value = Vec<TsTuple>> {
        proptest::collection::vec((-60i64..60, 1i64..40), 0..n)
            .prop_map(|v| v.into_iter().map(|(s, d)| iv(s, s + d)).collect())
    }

    proptest! {
        /// The buffered join is itself an oracle; check it against the direct
        /// double loop for the overlap predicate on unsorted data.
        #[test]
        fn matches_double_loop(xs in arb_intervals(30), ys in arb_intervals(30)) {
            let (got, _) = buffered_join(&xs, &ys, |x, y| x.period.overlaps(&y.period));
            let got = canon(got);
            let mut expected = Vec::new();
            for x in &xs {
                for y in &ys {
                    if x.period.overlaps(&y.period) {
                        expected.push((x.clone(), y.clone()));
                    }
                }
            }
            prop_assert_eq!(got, canon(expected));
        }
    }
}
