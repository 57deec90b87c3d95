//! The analyzer's intermediate form: one spec per stream operator, plus
//! the check that proves each spec against the [`StreamOpKind`] registry.
//!
//! Specs are deliberately plain data with public fields: property tests
//! build and *mutate* them to show the checker rejects every perturbation
//! of a valid plan.

use crate::error::{AnalyzeError, PlanPath};
use tdb_core::StreamOrder;
use tdb_stream::StreamOpKind;

/// One stream-temporal operator occurrence inside a physical plan, with
/// the input orderings that will hold when tuples reach it.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOpSpec {
    /// Which operator the executor will instantiate.
    pub kind: StreamOpKind,
    /// Ordering of each input at operator entry, in operand order (after
    /// any side swap the executor performs). `None` = no declared order.
    pub inputs: Vec<Option<StreamOrder>>,
    /// Whether the executor must insert a sort to establish each entry
    /// order (`false` = the child's inferred order already satisfies it).
    pub sorts_inserted: Vec<bool>,
    /// Position of the operator in the plan tree.
    pub path: PlanPath,
    /// Expected workspace λ·E[D] (Little's law) from input statistics, if
    /// known.
    pub workspace_expectation: Option<f64>,
    /// Sound workspace cap from the inputs' maximum concurrency, if known.
    /// Debug builds assert the runtime `OpReport.workspace` stays under it.
    pub workspace_cap: Option<usize>,
}

impl StreamOpSpec {
    /// A bare spec with the given entry orders and no statistics — the
    /// form hand-built by tests and the mutation harness.
    pub fn new(kind: StreamOpKind, inputs: Vec<Option<StreamOrder>>) -> StreamOpSpec {
        let sorts = vec![false; inputs.len()];
        StreamOpSpec {
            kind,
            inputs,
            sorts_inserted: sorts,
            path: PlanPath::root(),
            workspace_expectation: None,
            workspace_cap: None,
        }
    }
}

/// Prove one operator spec against the registry.
///
/// An entry passes when every input satisfies its required ordering
/// *directly*, or when every input satisfies the **mirror** of its
/// requirement simultaneously — the lower halves of Tables 1 and 2 are
/// "the mirror image of the upper half", and the algebra layer serves them
/// by reversing time on both streams at once. Mirroring only one side is
/// not a licensed entry and is rejected.
pub fn check_op(spec: &StreamOpSpec) -> Result<(), AnalyzeError> {
    let req = spec.kind.requirement();
    if spec.inputs.len() != req.arity() {
        return Err(AnalyzeError::ArityMismatch {
            path: spec.path.clone(),
            kind: spec.kind,
            given: spec.inputs.len(),
            expected: req.arity(),
        });
    }
    let holds = |declared: &Option<StreamOrder>, required: Option<StreamOrder>| match required {
        None => true,
        Some(r) => declared.map(|o| o.satisfies(&r)).unwrap_or(false),
    };
    let direct = spec
        .inputs
        .iter()
        .zip(req.inputs)
        .all(|(d, r)| holds(d, *r));
    let mirrored = spec
        .inputs
        .iter()
        .zip(req.inputs)
        .all(|(d, r)| holds(d, r.map(|o| o.mirror())));
    if direct || mirrored {
        return Ok(());
    }
    // Report the first side that fails the direct requirement.
    let side = |i: usize| match (req.arity(), i) {
        (1, _) => "input",
        (_, 0) => "X",
        _ => "Y",
    };
    for (i, (declared, required)) in spec.inputs.iter().zip(req.inputs).enumerate() {
        if !holds(declared, *required) {
            return Err(AnalyzeError::OrderMismatch {
                path: spec.path.clone(),
                kind: spec.kind,
                side: side(i),
                found: *declared,
                required: required.unwrap_or(StreamOrder::TS_ASC),
            });
        }
    }
    // Unreachable: !direct implies some side failed above.
    Err(AnalyzeError::OrderMismatch {
        path: spec.path.clone(),
        kind: spec.kind,
        side: "X",
        found: spec.inputs.first().copied().flatten(),
        required: req.left().unwrap_or(StreamOrder::TS_ASC),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::SortSpec;

    #[test]
    fn overlap_join_under_ts_te_is_rejected() {
        // The acceptance case: Overlap-join fed (TS ↑, TE ↑).
        let spec = StreamOpSpec::new(
            StreamOpKind::OverlapJoin,
            vec![Some(StreamOrder::TS_ASC), Some(StreamOrder::TE_ASC)],
        );
        let err = check_op(&spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Table 2 (a)"), "{msg}");
        assert!(msg.contains("Y input"), "{msg}");
    }

    #[test]
    fn contain_join_with_unsorted_input_is_rejected() {
        let spec = StreamOpSpec::new(
            StreamOpKind::ContainJoinTsTe,
            vec![Some(StreamOrder::TS_ASC), None],
        );
        let err = check_op(&spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("declares no sort order"), "{msg}");
        assert!(msg.contains("Table 1 (b)"), "{msg}");
    }

    #[test]
    fn direct_and_fully_mirrored_entries_pass() {
        let direct = StreamOpSpec::new(
            StreamOpKind::ContainJoinTsTe,
            vec![Some(StreamOrder::TS_ASC), Some(StreamOrder::TE_ASC)],
        );
        assert!(check_op(&direct).is_ok());
        // Mirror of (TS ↑, TE ↑) is (TE ↓, TS ↓): the lower half of
        // Table 1, served by time reversal.
        let mirrored = StreamOpSpec::new(
            StreamOpKind::ContainJoinTsTe,
            vec![
                Some(StreamOrder::TS_ASC.mirror()),
                Some(StreamOrder::TE_ASC.mirror()),
            ],
        );
        assert!(check_op(&mirrored).is_ok());
        // Mirroring only one side is NOT a licensed Table 1 entry.
        let half = StreamOpSpec::new(
            StreamOpKind::ContainJoinTsTe,
            vec![
                Some(StreamOrder::TS_ASC.mirror()),
                Some(StreamOrder::TE_ASC),
            ],
        );
        assert!(check_op(&half).is_err());
    }

    #[test]
    fn secondary_orders_satisfy_primary_requirements() {
        // (TS ↑, TE ↑) is a refinement of TS ↑ — Table 3's self-semijoin
        // input also satisfies any TS ↑ requirement.
        let spec = StreamOpSpec::new(
            StreamOpKind::OverlapJoin,
            vec![
                Some(StreamOrder::by_then(SortSpec::TS_ASC, SortSpec::TE_ASC)),
                Some(StreamOrder::TS_ASC),
            ],
        );
        assert!(check_op(&spec).is_ok());
    }

    #[test]
    fn before_family_accepts_any_order_but_never_parallel() {
        let spec = StreamOpSpec::new(StreamOpKind::BeforeJoin, vec![None, None]);
        assert!(check_op(&spec).is_ok());
        // Its matches share no time point, so no time partition owns them.
        assert!(!StreamOpKind::BeforeJoin.requirement().partition_safe);
    }

    #[test]
    fn arity_mismatch_is_structural() {
        let spec = StreamOpSpec::new(StreamOpKind::ContainedSelfSemijoin, vec![None, None]);
        assert!(matches!(
            check_op(&spec),
            Err(AnalyzeError::ArityMismatch { expected: 1, .. })
        ));
    }
}
