//! The conventional baseline: nested-loop theta-join.
//!
//! Paper §3: "Traditionally, the best strategy for processing less-than
//! joins appears to be the conventional nested-loop join method." This
//! reference definition is that baseline — the comparator every stream
//! algorithm is benchmarked against and the oracle the kernels are checked
//! against. The inner relation is materialized once and re-scanned per
//! outer tuple; [`OpMetrics::passes`] counts those rescans.

use tdb_stream::{OpMetrics, OpReport, WorkspaceStats};

/// Every pair of `xs × ys` satisfying `predicate`, in outer-major order,
/// with the report of the tuple-at-a-time nested loop: one comparison per
/// pair, one pass over the inner relation per outer tuple, and the inner
/// relation as the workspace.
pub fn nested_loop_join<X: Clone, Y: Clone>(
    xs: &[X],
    ys: &[Y],
    predicate: impl Fn(&X, &Y) -> bool,
) -> (Vec<(X, Y)>, OpReport) {
    let mut out = Vec::new();
    for x in xs {
        for y in ys {
            if predicate(x, y) {
                out.push((x.clone(), y.clone()));
            }
        }
    }
    let metrics = OpMetrics {
        read_left: xs.len(),
        read_right: ys.len(),
        comparisons: xs.len() * ys.len(),
        emitted: out.len(),
        passes: xs.len(),
    };
    (
        out,
        OpReport::new(metrics, WorkspaceStats::of_resident(ys.len())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::TsTuple;
    use tdb_stream::{collect, run_join, Emit, OpConfig, StreamOpKind};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    #[test]
    fn joins_with_arbitrary_predicate() {
        let xs = vec![iv(0, 10), iv(5, 6)];
        let ys = vec![iv(1, 2), iv(7, 8)];
        let (out, report) = nested_loop_join(&xs, &ys, |x, y| x.period.contains(&y.period));
        assert_eq!(out.len(), 2); // [0,10) contains both
        let m = report.metrics;
        assert_eq!(m.comparisons, 4);
        assert_eq!(m.passes, 2);
        assert_eq!(report.max_workspace(), 2);
    }

    #[test]
    fn empty_inputs() {
        let none: Vec<TsTuple> = Vec::new();
        assert!(nested_loop_join(&none, &[iv(0, 1)], |_, _| true)
            .0
            .is_empty());
        assert!(nested_loop_join(&[iv(0, 1)], &none, |_, _| true)
            .0
            .is_empty());
    }

    #[test]
    fn cartesian_product_under_true_predicate() {
        let xs: Vec<_> = (0..7).map(|i| iv(i, i + 1)).collect();
        let ys: Vec<_> = (0..5).map(|i| iv(i, i + 1)).collect();
        let (out, report) = nested_loop_join(&xs, &ys, |_, _| true);
        assert_eq!(out.len(), 35);
        assert_eq!(report.metrics.comparisons, 35);
    }

    #[test]
    fn before_and_nested_loop_report_materialized_inner() {
        let xs = vec![iv(0, 2)];
        let ys = vec![iv(7, 8), iv(5, 6)];
        let cfg = OpConfig::new();
        let (out, report) =
            collect(|e| run_join(StreamOpKind::BeforeJoin, cfg, xs.clone(), ys.clone(), e))
                .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(report.max_workspace(), 2);
        let (_, counted) = run_join(
            StreamOpKind::BeforeJoin,
            cfg,
            xs.clone(),
            ys.clone(),
            Emit::Count,
        )
        .unwrap();
        assert_eq!(counted, report);
        let (out, report) = nested_loop_join(&xs, &ys, |x, y| x.period.before(&y.period));
        assert_eq!(out.len(), 2);
        assert_eq!(report.max_workspace(), 2);
    }
}
