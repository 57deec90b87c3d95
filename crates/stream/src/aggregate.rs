//! Grouped aggregation — the paper's Figure 4 stream processor.
//!
//! "Let us consider a simple stream processor which lists all the
//! departments and computes the sum of all employees' salaries in each
//! department ... If the stream of tuples are grouped by the department
//! name, the local workspace simply contains the partial sum and a buffer
//! for the tuple just read."
//!
//! [`grouped_sum`] is that processor: O(1) state over grouped input, with
//! detection of ungrouped input.

use crate::metrics::OpMetrics;
use crate::report::OpReport;
use crate::workspace::WorkspaceStats;
use std::collections::HashSet;
use tdb_core::{TdbError, TdbResult, Value};

/// Sum `value` per `key` over input grouped by key, one `(key, sum)` per
/// group in input order. The state beyond the input buffer is one
/// `(key, partial sum)` cell; a key that reappears after its group closed
/// is an `OrderViolation`.
pub fn grouped_sum<T>(
    items: &[T],
    key: impl Fn(&T) -> Value,
    value: impl Fn(&T) -> i64,
) -> TdbResult<(Vec<(Value, i64)>, OpReport)> {
    let mut out: Vec<(Value, i64)> = Vec::new();
    // Keys of groups already closed, to detect ungrouped input.
    let mut closed = HashSet::new();
    for item in items {
        let (k, v) = (key(item), value(item));
        match out.last_mut() {
            Some((ck, sum)) if *ck == k => *sum += v,
            last => {
                if let Some((ck, _)) = last {
                    closed.insert(ck.clone());
                }
                if closed.contains(&k) {
                    return Err(TdbError::OrderViolation {
                        context: "GroupedSum",
                        detail: format!("input is not grouped: key {k} reappeared"),
                    });
                }
                out.push((k, v));
            }
        }
    }
    let metrics = OpMetrics {
        read_left: items.len(),
        emitted: out.len(),
        passes: 1,
        ..OpMetrics::default()
    };
    Ok((out, OpReport::new(metrics, WorkspaceStats::of_resident(1))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dept_rows() -> Vec<(Value, i64)> {
        vec![
            (Value::str("CS"), 100),
            (Value::str("CS"), 150),
            (Value::str("EE"), 90),
            (Value::str("Math"), 70),
            (Value::str("Math"), 30),
        ]
    }

    fn sum(rows: &[(Value, i64)]) -> TdbResult<(Vec<(Value, i64)>, OpReport)> {
        grouped_sum(rows, |r| r.0.clone(), |r| r.1)
    }

    #[test]
    fn figure4_department_sums() {
        let (out, report) = sum(&dept_rows()).unwrap();
        assert_eq!(
            out,
            vec![
                (Value::str("CS"), 250),
                (Value::str("EE"), 90),
                (Value::str("Math"), 100),
            ]
        );
        assert_eq!(report.max_workspace(), 1);
        assert_eq!(report.metrics.read_left, 5);
    }

    #[test]
    fn ungrouped_input_is_detected() {
        let rows = vec![
            (Value::str("CS"), 1),
            (Value::str("EE"), 2),
            (Value::str("CS"), 3), // CS reappears after closing
        ];
        assert!(matches!(sum(&rows), Err(TdbError::OrderViolation { .. })));
    }

    #[test]
    fn empty_and_single_group() {
        assert!(sum(&[]).unwrap().0.is_empty());
        let rows = vec![(Value::str("A"), 1), (Value::str("A"), 2)];
        assert_eq!(sum(&rows).unwrap().0, vec![(Value::str("A"), 3)]);
    }

    #[test]
    fn negative_values_sum_correctly() {
        let rows = vec![(Value::Int(1), -5), (Value::Int(1), 3)];
        assert_eq!(sum(&rows).unwrap().0, vec![(Value::Int(1), -2)]);
    }
}
