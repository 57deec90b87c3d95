//! Structured analyzer diagnostics.
//!
//! Every rejection names the plan node it anchors to (a [`PlanPath`]) and
//! the Table 1/2/3 precondition (or §4.2.4 property) it violates, so a
//! failed `tdb analyze` reads like a proof obligation, not a stack trace.

use std::fmt;
use tdb_core::{StreamOrder, TdbError};
use tdb_stream::StreamOpKind;

/// Dot-separated position of a node inside a [`PhysicalPlan`] tree, rooted
/// at `plan` — e.g. `plan.input.left` is the left input of the join under
/// a root projection or filter.
///
/// [`PhysicalPlan`]: tdb_algebra::PhysicalPlan
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PlanPath(Vec<&'static str>);

impl PlanPath {
    /// The root path (`plan`).
    pub fn root() -> PlanPath {
        PlanPath(Vec::new())
    }

    /// Extend the path by one child edge (`left`, `right`, `input`).
    pub fn child(&self, edge: &'static str) -> PlanPath {
        let mut segs = self.0.clone();
        segs.push(edge);
        PlanPath(segs)
    }

    /// The edges below the root.
    pub fn segments(&self) -> &[&'static str] {
        &self.0
    }
}

impl fmt::Display for PlanPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("plan")?;
        for seg in &self.0 {
            write!(f, ".{seg}")?;
        }
        Ok(())
    }
}

/// A statically detected plan defect.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// A stream operator's declared input ordering does not satisfy its
    /// registry requirement (directly or with both sides mirrored).
    OrderMismatch {
        /// Node position.
        path: PlanPath,
        /// The operator kind.
        kind: StreamOpKind,
        /// Which input (`X`, `Y`, or `input` for unary operators).
        side: &'static str,
        /// The ordering the input declares, if any.
        found: Option<StreamOrder>,
        /// The ordering the registry requires.
        required: StreamOrder,
    },
    /// A spec supplied the wrong number of inputs for its operator.
    ArityMismatch {
        /// Node position.
        path: PlanPath,
        /// The operator kind.
        kind: StreamOpKind,
        /// Inputs supplied.
        given: usize,
        /// Inputs the registry expects.
        expected: usize,
    },
    /// A live (continuous-query) plan uses an operator whose workspace is
    /// not provably bounded under unbounded arrival, or lacks the
    /// statistics needed to prove a bound at all.
    NotLiveSafe {
        /// Node position.
        path: PlanPath,
        /// The operator kind.
        kind: StreamOpKind,
        /// Why the operator cannot run under live arrival.
        detail: String,
    },
    /// An operator's expected workspace (λ·E[D], Little's law) exceeds the
    /// configured budget.
    WorkspaceOverBudget {
        /// Node position.
        path: PlanPath,
        /// The operator kind.
        kind: StreamOpKind,
        /// Predicted expected workspace in state tuples.
        expected: f64,
        /// The configured budget.
        budget: f64,
    },
}

impl AnalyzeError {
    /// The plan position this diagnostic anchors to.
    pub fn path(&self) -> &PlanPath {
        match self {
            AnalyzeError::OrderMismatch { path, .. }
            | AnalyzeError::ArityMismatch { path, .. }
            | AnalyzeError::NotLiveSafe { path, .. }
            | AnalyzeError::WorkspaceOverBudget { path, .. } => path,
        }
    }
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::OrderMismatch {
                path,
                kind,
                side,
                found,
                required,
            } => {
                write!(f, "at {path}: {kind} {side} input ")?;
                match found {
                    Some(o) => write!(f, "is sorted {o}")?,
                    None => f.write_str("declares no sort order")?,
                }
                write!(
                    f,
                    ", but {required} is required — violates {}",
                    kind.requirement().table_entry
                )
            }
            AnalyzeError::ArityMismatch {
                path,
                kind,
                given,
                expected,
            } => write!(
                f,
                "at {path}: {kind} takes {expected} input(s), spec declares {given}"
            ),
            AnalyzeError::NotLiveSafe { path, kind, detail } => {
                write!(f, "at {path}: {kind} is not live-safe — {detail}")
            }
            AnalyzeError::WorkspaceOverBudget {
                path,
                kind,
                expected,
                budget,
            } => write!(
                f,
                "at {path}: {kind} expected workspace λ·E[D] ≈ {expected:.1} \
                 state tuples exceeds the budget of {budget:.1}"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Render a batch of diagnostics, one per line.
pub fn render_errors(errors: &[AnalyzeError]) -> String {
    let mut out = String::new();
    for e in errors {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

impl From<AnalyzeError> for TdbError {
    fn from(e: AnalyzeError) -> TdbError {
        TdbError::Plan(format!("static analysis rejected the plan:\n{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_render_dotted() {
        let p = PlanPath::root().child("child").child("left");
        assert_eq!(p.to_string(), "plan.child.left");
        assert_eq!(PlanPath::root().to_string(), "plan");
        assert_eq!(p.segments(), ["child", "left"]);
    }

    #[test]
    fn order_mismatch_names_table_entry() {
        let e = AnalyzeError::OrderMismatch {
            path: PlanPath::root().child("child"),
            kind: StreamOpKind::OverlapJoin,
            side: "Y",
            found: Some(StreamOrder::TE_ASC),
            required: StreamOrder::TS_ASC,
        };
        let msg = e.to_string();
        assert!(msg.contains("plan.child"), "{msg}");
        assert!(msg.contains("Table 2 (a)"), "{msg}");
        assert!(msg.contains("ValidTo ↑"), "{msg}");
    }
}
