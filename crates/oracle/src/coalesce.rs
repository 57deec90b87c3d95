//! Coalescing: merging value-equivalent periods (paper §6 extension).
//!
//! The paper's §6 plans "a complete temporal data model" in which query
//! results remain well-formed Time Sequences. The missing primitive is
//! *coalescing*: when consecutive tuples of the same surrogate carry the
//! same value and their lifespans meet or overlap, they denote one fact and
//! should be one tuple. Coalescing is a textbook stream processor: over
//! input grouped by `(surrogate, value)` with periods sorted `ValidFrom ↑`
//! within each group, it needs exactly **one** state tuple — the pending
//! merged period.

use std::collections::HashSet;
use tdb_core::{Period, TdbError, TdbResult, TsTuple, Value};
use tdb_stream::{OpMetrics, OpReport, WorkspaceStats};

/// Coalesce [`TsTuple`]s grouped by `(surrogate, value)` (all equal pairs
/// adjacent) and sorted on `ValidFrom ↑` within each group; both are
/// verified. Tuples whose periods meet (`TE = next.TS`) or overlap are
/// merged; the output is one maximal tuple per run, and the state is the
/// one pending merged tuple.
pub fn coalesce(tuples: &[TsTuple]) -> TdbResult<(Vec<TsTuple>, OpReport)> {
    let mut out: Vec<TsTuple> = Vec::new();
    // Groups already closed (to detect ungrouped input).
    let mut closed: HashSet<(Value, Value)> = HashSet::new();
    let mut comparisons = 0;
    for t in tuples {
        match out.last_mut() {
            Some(p) if p.surrogate == t.surrogate && p.value == t.value => {
                comparisons += 1;
                // Same group: verify intra-group TS order.
                if t.period.start() < p.period.start() {
                    return Err(TdbError::OrderViolation {
                        context: "Coalesce",
                        detail: format!(
                            "group ({}, {}) not sorted on ValidFrom",
                            t.surrogate, t.value
                        ),
                    });
                }
                if t.period.start() <= p.period.end() {
                    // Meets or overlaps: extend the pending run.
                    let end = p.period.end().max_of(t.period.end());
                    p.period = Period::new_unchecked(p.period.start(), end);
                } else {
                    // Gap within the group: the pending run is final.
                    out.push(t.clone());
                }
            }
            last => {
                // Group boundary.
                if let Some(p) = last {
                    closed.insert((p.surrogate.clone(), p.value.clone()));
                }
                if closed.contains(&(t.surrogate.clone(), t.value.clone())) {
                    return Err(TdbError::OrderViolation {
                        context: "Coalesce",
                        detail: format!(
                            "input is not grouped: ({}, {}) reappeared",
                            t.surrogate, t.value
                        ),
                    });
                }
                out.push(t.clone());
            }
        }
    }
    let metrics = OpMetrics {
        read_left: tuples.len(),
        comparisons,
        emitted: out.len(),
        passes: 1,
        ..OpMetrics::default()
    };
    Ok((out, OpReport::new(metrics, WorkspaceStats::of_resident(1))))
}

/// Coalesce an in-memory relation, sorting it into the required grouping
/// first. Returns tuples grouped by `(surrogate, value)` in deterministic
/// order.
///
/// ```
/// use tdb_oracle::coalesce_relation;
/// use tdb_core::TsTuple;
///
/// let spells = vec![
///     TsTuple::new("Smith", "employed", 0, 5)?,
///     TsTuple::new("Smith", "employed", 5, 9)?,  // meets: same spell
/// ];
/// let merged = coalesce_relation(spells)?;
/// assert_eq!(merged.len(), 1);
/// assert_eq!(merged[0].period, tdb_core::Period::new(0, 9)?);
/// # Ok::<(), tdb_core::TdbError>(())
/// ```
pub fn coalesce_relation(mut tuples: Vec<TsTuple>) -> TdbResult<Vec<TsTuple>> {
    tuples.sort_by(|a, b| {
        (&a.surrogate, &a.value, a.period.start()).cmp(&(&b.surrogate, &b.value, b.period.start()))
    });
    Ok(coalesce(&tuples)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_core::Temporal;

    fn t(s: &str, v: &str, from: i64, to: i64) -> TsTuple {
        TsTuple::new(s, v, from, to).unwrap()
    }

    #[test]
    fn merges_meeting_and_overlapping_periods() {
        let input = vec![
            t("Smith", "Associate", 0, 5),
            t("Smith", "Associate", 5, 9),  // meets
            t("Smith", "Associate", 8, 12), // overlaps
        ];
        let (out, report) = coalesce(&input).unwrap();
        assert_eq!(out, vec![t("Smith", "Associate", 0, 12)]);
        assert_eq!(report.max_workspace(), 1);
    }

    #[test]
    fn preserves_gaps_within_a_group() {
        let input = vec![t("S", "A", 0, 3), t("S", "A", 5, 8)];
        assert_eq!(coalesce(&input).unwrap().0, input);
    }

    #[test]
    fn distinct_values_never_merge() {
        let input = vec![t("S", "Assistant", 0, 5), t("S", "Associate", 5, 9)];
        assert_eq!(coalesce(&input).unwrap().0, input);
    }

    #[test]
    fn contained_periods_absorb() {
        let input = vec![t("S", "A", 0, 10), t("S", "A", 2, 5)];
        assert_eq!(coalesce(&input).unwrap().0, vec![t("S", "A", 0, 10)]);
    }

    #[test]
    fn detects_ungrouped_and_unsorted_input() {
        let ungrouped = vec![t("S", "A", 0, 3), t("S", "B", 3, 5), t("S", "A", 6, 9)];
        assert!(matches!(
            coalesce(&ungrouped),
            Err(TdbError::OrderViolation { .. })
        ));
        let unsorted = vec![t("S", "A", 5, 9), t("S", "A", 0, 3)];
        assert!(matches!(
            coalesce(&unsorted),
            Err(TdbError::OrderViolation { .. })
        ));
    }

    #[test]
    fn coalesce_relation_sorts_first() {
        let input = vec![
            t("B", "A", 10, 12),
            t("A", "A", 5, 9),
            t("A", "A", 0, 5),
            t("B", "A", 12, 20),
        ];
        let out = coalesce_relation(input).unwrap();
        assert_eq!(out, vec![t("A", "A", 0, 9), t("B", "A", 10, 20)]);
    }

    proptest! {
        /// Coalescing is semantically lossless: a point is covered by some
        /// input tuple of a (surrogate, value) group iff it is covered by
        /// an output tuple of that group — and output periods of one group
        /// are disjoint and non-adjacent.
        #[test]
        fn coalescing_preserves_coverage(
            periods in proptest::collection::vec((0i64..40, 1i64..10), 1..30)
        ) {
            let input: Vec<TsTuple> = periods
                .iter()
                .map(|(s, d)| t("S", "A", *s, s + d))
                .collect();
            let out = coalesce_relation(input.clone()).unwrap();
            for p in 0..60i64 {
                let covered_in = input.iter().any(|x| x.period.spans(tdb_core::TimePoint(p)));
                let covered_out = out.iter().any(|x| x.period.spans(tdb_core::TimePoint(p)));
                prop_assert_eq!(covered_in, covered_out, "point {}", p);
            }
            // Output is maximal: no two output periods meet or overlap.
            for w in out.windows(2) {
                prop_assert!(w[0].te() < w[1].ts());
            }
        }
    }
}
