//! Overlap join and semijoin (§4.2.4, Table 2).
//!
//! Two notions of "overlap" appear in the paper:
//!
//! * [`OverlapMode::Strict`] — Allen's *overlaps* (Figure 2 row 6):
//!   `X.TS < Y.TS ∧ X.TE > Y.TS ∧ X.TE < Y.TE`;
//! * [`OverlapMode::General`] — TQuel's symmetric `overlap` (footnote 6,
//!   the operator the Superstar query uses): the lifespans share a point,
//!   `X.TS < Y.TE ∧ Y.TS < X.TE`.
//!
//! Table 2: the only orderings under which the overlap operators stream
//! efficiently are `(ValidFrom ↑, ValidFrom ↑)` (or its mirror
//! `(ValidTo ↓, ValidTo ↓)` — obtained here by time reversal in the algebra
//! layer). [`crate::OverlapJoin`] keeps both state sets of Table 2's state
//! (a); [`crate::OverlapSemijoin`] in general mode needs **only the two
//! input buffers** (state (b)), while strict mode degrades to a sweep with
//! state. Both are kernels of [`crate::batch_ops`]; this module holds the
//! predicate they share.

use tdb_core::Period;

/// Which overlap predicate the operator evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapMode {
    /// Allen's asymmetric *overlaps* (Figure 2 row 6).
    Strict,
    /// TQuel's symmetric `overlap` (paper footnote 6) — intervals intersect.
    General,
}

impl OverlapMode {
    /// Evaluate the predicate `x <overlap> y`.
    #[inline]
    pub fn matches(self, x: &Period, y: &Period) -> bool {
        match self {
            OverlapMode::Strict => x.allen_overlaps(y),
            OverlapMode::General => x.overlaps(y),
        }
    }
}
