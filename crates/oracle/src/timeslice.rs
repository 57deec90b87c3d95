//! Timeslice (snapshot) and concurrency-profile operators.
//!
//! Two further stream processors in the §4.1 mold:
//!
//! * [`timeslice`] — the snapshot query "who/what was valid at time `t`?";
//!   a filter with **early termination** when the input is sorted
//!   `ValidFrom ↑` (once `TS > t`, nothing later can span `t`).
//! * [`concurrency_profile`] — the step function of how many tuples are
//!   valid at each instant, computed by a sweep over a `ValidFrom ↑`
//!   stream with a min-heap of pending `ValidTo`s as the workspace (the
//!   live set — exactly the "spanning tuples" state of Table 1(a), made
//!   into an output).

use std::collections::BinaryHeap;
use tdb_core::{TdbResult, Temporal, TimePoint};
use tdb_stream::{OpMetrics, OpReport, WorkspaceStats};

/// The snapshot at `at`: the items whose lifespan spans it, in input
/// order. With `ts_sorted` (the items are `ValidFrom ↑`) the scan stops at
/// the first item starting after `at`, and `read_left` shows the win. A
/// pure filter: no state beyond the slice point.
pub fn timeslice<T: Temporal + Clone>(
    items: &[T],
    at: TimePoint,
    ts_sorted: bool,
) -> (Vec<T>, OpReport) {
    let mut out = Vec::new();
    let mut read = 0;
    for t in items {
        read += 1;
        if ts_sorted && t.ts() > at {
            // No later tuple can span `at`.
            break;
        }
        if t.period().spans(at) {
            out.push(t.clone());
        }
    }
    let metrics = OpMetrics {
        read_left: read,
        comparisons: read,
        emitted: out.len(),
        passes: 1,
        ..OpMetrics::default()
    };
    (out, OpReport::new(metrics, WorkspaceStats::default()))
}

/// One step of the concurrency profile: `count` tuples are valid
/// throughout `[from, to)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStep {
    /// Step start (inclusive).
    pub from: TimePoint,
    /// Step end (exclusive).
    pub to: TimePoint,
    /// Number of valid tuples during the step.
    pub count: usize,
}

/// Sweep `ValidFrom ↑` items into their concurrency step function.
///
/// Returns the non-zero-length steps in time order; the maximum `count`
/// equals [`tdb_core::TemporalStats::max_concurrency`]. Workspace: the
/// live set (a heap of `ValidTo`s), i.e. Table 1(a)'s spanning-tuples
/// state.
pub fn concurrency_profile<T: Temporal>(items: &[T]) -> TdbResult<(Vec<ProfileStep>, usize)> {
    use std::cmp::Reverse;
    let mut live: BinaryHeap<Reverse<TimePoint>> = BinaryHeap::new();
    let mut steps = Vec::new();
    let mut max_live = 0usize;
    let mut cursor: Option<TimePoint> = None;
    let mut prev_ts: Option<TimePoint> = None;

    let emit = |from: TimePoint, to: TimePoint, count: usize, steps: &mut Vec<ProfileStep>| {
        if from < to && count > 0 {
            // Merge with the previous step when the count is unchanged.
            if let Some(last) = steps.last_mut() {
                let l: &mut ProfileStep = last;
                if l.to == from && l.count == count {
                    l.to = to;
                    return;
                }
            }
            steps.push(ProfileStep { from, to, count });
        }
    };

    for t in items {
        let ts = t.ts();
        if let Some(p) = prev_ts {
            if ts < p {
                return Err(tdb_core::TdbError::OrderViolation {
                    context: "concurrency_profile",
                    detail: format!("ValidFrom regressed from {p} to {ts}"),
                });
            }
        }
        prev_ts = Some(ts);
        // Drain endings before this arrival.
        while let Some(Reverse(te)) = live.peek().copied() {
            if te <= ts {
                live.pop();
                if let Some(c) = cursor {
                    emit(c, te, live.len() + 1, &mut steps);
                }
                cursor = Some(te);
            } else {
                break;
            }
        }
        if let Some(c) = cursor {
            emit(c, ts, live.len(), &mut steps);
        }
        cursor = Some(ts);
        live.push(Reverse(t.te()));
        max_live = max_live.max(live.len());
    }
    // Drain the tail.
    while let Some(Reverse(te)) = live.pop() {
        if let Some(c) = cursor {
            emit(c, te, live.len() + 1, &mut steps);
        }
        cursor = Some(te);
    }
    Ok((steps, max_live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_core::{StreamOrder, TemporalStats, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    #[test]
    fn timeslice_filters_and_terminates_early() {
        let xs: Vec<_> = (0..100).map(|i| iv(i, i + 5)).collect();
        assert_eq!(StreamOrder::TS_ASC.first_violation(&xs), None);
        let (out, report) = timeslice(&xs, TimePoint(10), true);
        assert_eq!(out.len(), 5); // starts 6..=10 span t=10
                                  // Early termination: reads stop shortly after TS passes 10.
        assert!(report.metrics.read_left <= 12);
    }

    #[test]
    fn timeslice_without_order_scans_everything() {
        let xs: Vec<_> = (0..100).map(|i| iv(i, i + 5)).collect();
        let (out, report) = timeslice(&xs, TimePoint(10), false);
        assert_eq!(out.len(), 5);
        assert_eq!(report.metrics.read_left, 100);
    }

    #[test]
    fn profile_of_disjoint_and_nested_intervals() {
        // [0,10) with [2,4) nested, then a gap, then [12,13).
        let xs = vec![iv(0, 10), iv(2, 4), iv(12, 13)];
        let (steps, max_live) = concurrency_profile(&xs).unwrap();
        assert_eq!(max_live, 2);
        assert_eq!(
            steps,
            vec![
                ProfileStep {
                    from: TimePoint(0),
                    to: TimePoint(2),
                    count: 1
                },
                ProfileStep {
                    from: TimePoint(2),
                    to: TimePoint(4),
                    count: 2
                },
                ProfileStep {
                    from: TimePoint(4),
                    to: TimePoint(10),
                    count: 1
                },
                ProfileStep {
                    from: TimePoint(12),
                    to: TimePoint(13),
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn profile_rejects_unsorted_input() {
        let xs = vec![iv(5, 9), iv(0, 3)];
        assert!(concurrency_profile(&xs).is_err());
    }

    #[test]
    fn empty_profile() {
        let (steps, max) = concurrency_profile::<TsTuple>(&[]).unwrap();
        assert!(steps.is_empty());
        assert_eq!(max, 0);
    }

    proptest! {
        /// The profile's maximum equals TemporalStats::max_concurrency and
        /// every step's count equals a direct point query at its start.
        #[test]
        fn profile_agrees_with_point_queries(
            periods in proptest::collection::vec((0i64..50, 1i64..15), 0..40)
        ) {
            let mut xs: Vec<TsTuple> =
                periods.iter().map(|(s, d)| iv(*s, s + d)).collect();
            StreamOrder::TS_ASC.sort(&mut xs);
            let stats = TemporalStats::compute(&xs);
            let (steps, max_live) = concurrency_profile(&xs).unwrap();
            prop_assert_eq!(max_live, stats.max_concurrency);
            for s in &steps {
                let direct = xs.iter().filter(|x| x.period.spans(s.from)).count();
                prop_assert_eq!(s.count, direct, "at {}", s.from);
            }
            // Steps are ordered, non-overlapping, with positive counts.
            for w in steps.windows(2) {
                prop_assert!(w[0].to <= w[1].from);
            }
        }
    }
}
