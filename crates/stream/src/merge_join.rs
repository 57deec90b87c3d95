//! Classic merge equi-join on arbitrary [`Value`] keys.
//!
//! §4.1 cites the merge-join as "a classical example of stream processing
//! operations": with both inputs sorted on the join key, each is read once
//! and "at any point we need only one tuple from each table as the state"
//! (plus the duplicate group). In the Superstar query this operator handles
//! `f1.Name = f2.Name`; the planner's `MergeEqui` node runs it.

use crate::metrics::OpMetrics;
use crate::report::OpReport;
use crate::workspace::WorkspaceStats;
use tdb_core::{TdbError, TdbResult, Value};

/// Fail unless `keys` never decreases.
fn check_sorted(keys: &[Value], side: &str) -> TdbResult<()> {
    match keys.windows(2).find(|w| w[0] > w[1]) {
        Some(w) => Err(TdbError::OrderViolation {
            context: "MergeEquiJoin",
            detail: format!("{side} key regressed from {} to {}", w[0], w[1]),
        }),
        None => Ok(()),
    }
}

/// Merge join of `xs` and `ys` on a `Value` key extracted from each side.
///
/// Both inputs must be in nondecreasing key order (verified up front:
/// a regression is an [`TdbError::OrderViolation`]). Each input is read
/// once; the Y tuples of the current key are the duplicate group, the
/// join's only state, and the scan ends early once Y is exhausted.
pub fn merge_equi_join<X: Clone, Y: Clone>(
    xs: &[X],
    ys: &[Y],
    key_x: impl Fn(&X) -> Value,
    key_y: impl Fn(&Y) -> Value,
) -> TdbResult<(Vec<(X, Y)>, OpReport)> {
    let xk: Vec<Value> = xs.iter().map(key_x).collect();
    let yk: Vec<Value> = ys.iter().map(key_y).collect();
    check_sorted(&xk, "X")?;
    check_sorted(&yk, "Y")?;
    let mut m = OpMetrics {
        passes: 1,
        ..OpMetrics::default()
    };
    let mut out = Vec::new();
    // `j` is the buffered Y tuple; `group` the current duplicate group.
    let (mut j, mut group, mut group_key) = (0, 0..0, None::<&Value>);
    let mut max_group = 0;
    m.read_right = usize::from(!ys.is_empty());
    let mut advance_y = |j: &mut usize| {
        *j += 1;
        if *j < ys.len() {
            m.read_right += 1;
        }
    };
    let mut read_left = 0;
    let mut comparisons = 0;
    for (x, k) in xs.iter().zip(&xk) {
        read_left += 1;
        if group_key != Some(k) {
            // Advance Y to the X key.
            while j < ys.len() && yk[j] < *k {
                comparisons += 1;
                advance_y(&mut j);
            }
            let start = j;
            while j < ys.len() && yk[j] == *k {
                advance_y(&mut j);
            }
            group = start..j;
            group_key = Some(k);
            max_group = max_group.max(group.len());
            if group.is_empty() && j == ys.len() {
                // Y exhausted with no group: no later X key can match.
                break;
            }
        }
        for y in &ys[group.clone()] {
            comparisons += 1;
            out.push((x.clone(), y.clone()));
        }
    }
    m.read_left = read_left;
    m.comparisons = comparisons;
    m.emitted = out.len();
    Ok((
        out,
        OpReport::new(m, WorkspaceStats::of_resident(max_group)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_core::TsTuple;

    fn t(name: &str, s: i64, e: i64) -> TsTuple {
        TsTuple::new(name, "", s, e).unwrap()
    }

    fn by_name(t: &TsTuple) -> Value {
        t.surrogate.clone()
    }

    fn canon(mut v: Vec<(TsTuple, TsTuple)>) -> Vec<(TsTuple, TsTuple)> {
        v.sort_by(|a, b| {
            (&a.0.surrogate, a.0.period.start(), a.1.period.start()).cmp(&(
                &b.0.surrogate,
                b.0.period.start(),
                b.1.period.start(),
            ))
        });
        v
    }

    #[test]
    fn equijoin_on_names() {
        let xs = vec![t("Brown", 0, 5), t("Jones", 0, 5), t("Smith", 0, 5)];
        let ys = vec![t("Jones", 9, 12), t("Smith", 9, 12), t("Smith", 20, 25)];
        let (out, report) = merge_equi_join(&xs, &ys, by_name, by_name).unwrap();
        assert_eq!(out.len(), 3); // Jones×1, Smith×2
        assert_eq!(report.max_workspace(), 2);
    }

    #[test]
    fn detects_unsorted_keys() {
        let xs = vec![t("Smith", 0, 5), t("Brown", 0, 5)];
        let ys = vec![t("Smith", 9, 12)];
        assert!(matches!(
            merge_equi_join(&xs, &ys, by_name, by_name),
            Err(TdbError::OrderViolation { .. })
        ));
    }

    #[test]
    fn early_termination_when_y_exhausted() {
        let xs = vec![t("A", 0, 1), t("Z", 0, 1)];
        let ys = vec![t("A", 0, 1)];
        let (out, report) = merge_equi_join(&xs, &ys, by_name, by_name).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            report.metrics.read_left, 2,
            "stops at Z once Y is exhausted"
        );
    }

    proptest! {
        #[test]
        fn matches_oracle(
            xk in proptest::collection::vec(0u8..6, 0..25),
            yk in proptest::collection::vec(0u8..6, 0..25),
        ) {
            let mut xs: Vec<_> = xk.iter().enumerate()
                .map(|(i, k)| t(&format!("K{k}"), i as i64, i as i64 + 1)).collect();
            let mut ys: Vec<_> = yk.iter().enumerate()
                .map(|(i, k)| t(&format!("K{k}"), 100 + i as i64, 101 + i as i64)).collect();
            xs.sort_by(|a, b| a.surrogate.cmp(&b.surrogate));
            ys.sort_by(|a, b| a.surrogate.cmp(&b.surrogate));
            let got = canon(merge_equi_join(&xs, &ys, by_name, by_name).unwrap().0);
            let mut expected = Vec::new();
            for x in &xs {
                for y in &ys {
                    if x.surrogate == y.surrogate {
                        expected.push((x.clone(), y.clone()));
                    }
                }
            }
            prop_assert_eq!(got, canon(expected));
        }
    }
}
