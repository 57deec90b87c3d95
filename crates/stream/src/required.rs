//! Declared input-ordering requirements — the single registry behind both
//! the kernel dispatch and the static plan verifier.
//!
//! Tables 1–3 of the paper index each stream operator by the input sort
//! orderings under which it is correct and bounded. Before this module
//! existed those preconditions lived as per-file `require_order` helpers and
//! scattered constants; the executor and the partition layer each kept their
//! own copies of the same table. Everything now reads from
//! [`StreamOpKind::requirement`]:
//!
//! * [`crate::dispatch`] verifies every input against its entry,
//! * the algebra executor derives its sort decisions from the same entry,
//! * `tdb-analyze` proves plans against it before a single tuple flows.
//!
//! Dispatch accepts only the *direct* orderings — the mirrored lower
//! halves of Tables 1/2 ("the mirror image of the upper half") are served by
//! time reversal in the algebra layer, so mirror acceptance is the
//! analyzer's job ([`StreamOrder::mirror`]), not the operator's.

use std::fmt;
use tdb_core::{SortSpec, StreamOrder};

/// The input-ordering contract of one stream operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderRequirement {
    /// Operator name as reported in diagnostics.
    pub operator: &'static str,
    /// Required ordering per input, in operand order. One entry for unary
    /// (self-semijoin) operators, two for binary ones. `None` means the
    /// operator is correct under any input order (Before-join — at the cost
    /// of unbounded state, which the workspace analyzer accounts for
    /// separately).
    pub inputs: &'static [Option<StreamOrder>],
    /// The Table 1/2/3 entry (or section) this precondition comes from.
    pub table_entry: &'static str,
    /// Whether the operator's predicate is intersection-witnessed and may
    /// therefore run under the time-partitioned drivers of
    /// [`crate::partition`] with fringe replication
    /// (Before/After are not: a match carries no shared time point, so no
    /// partition owns it).
    pub partition_safe: bool,
}

impl OrderRequirement {
    /// Requirement on the left (first) input.
    pub fn left(&self) -> Option<StreamOrder> {
        self.inputs.first().copied().flatten()
    }

    /// Requirement on the right (second) input, if the operator is binary.
    pub fn right(&self) -> Option<StreamOrder> {
        self.inputs.get(1).copied().flatten()
    }

    /// Number of inputs the operator consumes.
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }
}

/// `ValidFrom ↓` then `ValidTo ↓` — [`ContainSelfSemijoinDesc`]'s order
/// (Table 3 row 2, the mirror image of the ascending self-semijoin order).
///
/// [`ContainSelfSemijoinDesc`]: crate::self_semijoin::ContainSelfSemijoinDesc
pub const TS_DESC_TE_DESC: StreamOrder = StreamOrder::by_then(SortSpec::TS_DESC, SortSpec::TE_DESC);

/// Every stream-temporal operator kind known to the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamOpKind {
    /// Contain-join, both inputs `ValidFrom ↑` (Figure 5, Table 1 (a)).
    ContainJoinTsTs,
    /// Contain-join, X `ValidFrom ↑` / Y `ValidTo ↑` (Table 1 (b)).
    ContainJoinTsTe,
    /// Contain-/Contained-semijoin sweep under `(ValidFrom ↑, ValidFrom ↑)`
    /// (Table 1 (c)).
    SweepSemijoin,
    /// Contain-semijoin two-buffer stab, X `ValidFrom ↑` / Y `ValidTo ↑`
    /// (Figure 6, Table 1 (d)).
    ContainSemijoinStab,
    /// Contained-semijoin two-buffer stab, X `ValidTo ↑` / Y `ValidFrom ↑`
    /// (Figure 6, Table 1 (d)).
    ContainedSemijoinStab,
    /// Contained-semijoin(X,X), single scan, one state tuple (Figure 7,
    /// Table 3 (a)).
    ContainedSelfSemijoin,
    /// Contain-semijoin(X,X) under ascending order (Table 3 (b) state).
    ContainSelfSemijoin,
    /// Contain-semijoin(X,X) under descending order (Table 3 row 2 mirror).
    ContainSelfSemijoinDesc,
    /// Overlap join under `(ValidFrom ↑, ValidFrom ↑)` (Table 2 (a)).
    OverlapJoin,
    /// Overlap semijoin under `(ValidFrom ↑, ValidFrom ↑)` (Table 2 (b)).
    OverlapSemijoin,
    /// Before-join — correct under any order, workspace Θ(|Y|) (§4.2.4).
    BeforeJoin,
    /// Before-semijoin — one scan of each input, any order (§4.2.4).
    BeforeSemijoin,
}

impl StreamOpKind {
    /// All kinds, for exhaustive sweeps in tests and the analyzer.
    pub const ALL: [StreamOpKind; 12] = [
        StreamOpKind::ContainJoinTsTs,
        StreamOpKind::ContainJoinTsTe,
        StreamOpKind::SweepSemijoin,
        StreamOpKind::ContainSemijoinStab,
        StreamOpKind::ContainedSemijoinStab,
        StreamOpKind::ContainedSelfSemijoin,
        StreamOpKind::ContainSelfSemijoin,
        StreamOpKind::ContainSelfSemijoinDesc,
        StreamOpKind::OverlapJoin,
        StreamOpKind::OverlapSemijoin,
        StreamOpKind::BeforeJoin,
        StreamOpKind::BeforeSemijoin,
    ];

    /// The registry entry for this kind.
    pub const fn requirement(self) -> &'static OrderRequirement {
        const TS: Option<StreamOrder> = Some(StreamOrder::TS_ASC);
        const TE: Option<StreamOrder> = Some(StreamOrder::TE_ASC);
        const TS_TE: Option<StreamOrder> = Some(StreamOrder::TS_ASC_TE_ASC);
        const TS_TE_DESC: Option<StreamOrder> = Some(TS_DESC_TE_DESC);
        const NONE: Option<StreamOrder> = None;
        match self {
            StreamOpKind::ContainJoinTsTs => &OrderRequirement {
                operator: "ContainJoinTsTs",
                inputs: &[TS, TS],
                table_entry: "Table 1 (a): Contain-join under (ValidFrom ↑, ValidFrom ↑)",
                partition_safe: true,
            },
            StreamOpKind::ContainJoinTsTe => &OrderRequirement {
                operator: "ContainJoinTsTe",
                inputs: &[TS, TE],
                table_entry: "Table 1 (b): Contain-join under (ValidFrom ↑, ValidTo ↑)",
                partition_safe: true,
            },
            StreamOpKind::SweepSemijoin => &OrderRequirement {
                operator: "SweepSemijoin",
                inputs: &[TS, TS],
                table_entry: "Table 1 (c): Contain-semijoin under (ValidFrom ↑, ValidFrom ↑)",
                partition_safe: true,
            },
            StreamOpKind::ContainSemijoinStab => &OrderRequirement {
                operator: "ContainSemijoinStab",
                inputs: &[TS, TE],
                table_entry: "Table 1 (d): Contain-semijoin under (ValidFrom ↑, ValidTo ↑)",
                partition_safe: true,
            },
            StreamOpKind::ContainedSemijoinStab => &OrderRequirement {
                operator: "ContainedSemijoinStab",
                inputs: &[TE, TS],
                table_entry: "Table 1 (d): Contained-semijoin under (ValidTo ↑, ValidFrom ↑)",
                partition_safe: true,
            },
            StreamOpKind::ContainedSelfSemijoin => &OrderRequirement {
                operator: "ContainedSelfSemijoin",
                inputs: &[TS_TE],
                table_entry:
                    "Table 3 (a): Contained-semijoin(X,X) under ValidFrom ↑ then ValidTo ↑",
                partition_safe: true,
            },
            StreamOpKind::ContainSelfSemijoin => &OrderRequirement {
                operator: "ContainSelfSemijoin",
                inputs: &[TS_TE],
                table_entry: "Table 3 (b): Contain-semijoin(X,X) under ValidFrom ↑ then ValidTo ↑",
                partition_safe: true,
            },
            StreamOpKind::ContainSelfSemijoinDesc => &OrderRequirement {
                operator: "ContainSelfSemijoinDesc",
                inputs: &[TS_TE_DESC],
                table_entry:
                    "Table 3 row 2: Contain-semijoin(X,X) under ValidFrom ↓ then ValidTo ↓",
                partition_safe: true,
            },
            StreamOpKind::OverlapJoin => &OrderRequirement {
                operator: "OverlapJoin",
                inputs: &[TS, TS],
                table_entry: "Table 2 (a): Overlap-join under (ValidFrom ↑, ValidFrom ↑)",
                partition_safe: true,
            },
            StreamOpKind::OverlapSemijoin => &OrderRequirement {
                operator: "OverlapSemijoin",
                inputs: &[TS, TS],
                table_entry: "Table 2 (b): Overlap-semijoin under (ValidFrom ↑, ValidFrom ↑)",
                partition_safe: true,
            },
            StreamOpKind::BeforeJoin => &OrderRequirement {
                operator: "BeforeJoin",
                inputs: &[NONE, NONE],
                table_entry: "§4.2.4: Before-join — no sort ordering bounds its state",
                partition_safe: false,
            },
            StreamOpKind::BeforeSemijoin => &OrderRequirement {
                operator: "BeforeSemijoin",
                inputs: &[NONE, NONE],
                table_entry: "§4.2.4: Before-semijoin — order-independent single scan",
                partition_safe: false,
            },
        }
    }
}

impl fmt::Display for StreamOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.requirement().operator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        for kind in StreamOpKind::ALL {
            let req = kind.requirement();
            assert!(!req.operator.is_empty());
            assert!(req.table_entry.contains("Table") || req.table_entry.contains("§"));
            assert!(req.arity() == 1 || req.arity() == 2);
        }
    }

    #[test]
    fn before_ops_are_not_partition_safe() {
        assert!(!StreamOpKind::BeforeJoin.requirement().partition_safe);
        assert!(!StreamOpKind::BeforeSemijoin.requirement().partition_safe);
        assert!(StreamOpKind::OverlapJoin.requirement().partition_safe);
    }
}
