//! Recognizing temporal operators inside inequality conjunctions.
//!
//! The Allen operators are "just syntactic sugar" for inequality
//! conjunctions (Figure 2) — and the optimizer must invert that sugar to
//! pick a §4 stream algorithm. Section 5 stresses why this matters: only
//! after redundant inequalities are eliminated can "the database system ...
//! recognize a Contained-semijoin", which "allows the database system to
//! make use of sort orderings and therefore the stream processing
//! technique".
//!
//! [`recognize_pattern`] scans a conjunction for a subset of atoms relating
//! the timestamps of one left-side variable and one right-side variable and
//! classifies it; the unmatched atoms become a residual filter.

use crate::expr::{Atom, CompOp, Term};
use tdb_core::{Period, SortKey, TimePoint};
use tdb_stream::StreamOpKind;

/// A recognized temporal relationship between a left variable and a right
/// variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalPattern {
    /// `L.TS < R.TE ∧ R.TS < L.TE` — TQuel's general `overlap`
    /// (footnote 6).
    GeneralOverlap,
    /// `L.TS < R.TS ∧ R.TE < L.TE` — L contains R (R *during* L).
    Contains,
    /// `R.TS < L.TS ∧ L.TE < R.TE` — L contained in R (L *during* R).
    During,
    /// `L.TS < R.TS ∧ L.TE > R.TS ∧ L.TE < R.TE` — Allen *overlaps*.
    AllenOverlaps,
    /// `R.TS < L.TS ∧ L.TS < R.TE ∧ R.TE < L.TE` — Allen *overlapped-by*
    /// (R overlaps L).
    OverlappedBy,
    /// `L.TE < R.TS` — *before*.
    Before,
    /// `R.TE < L.TS` — *after*.
    After,
}

impl TemporalPattern {
    /// The stream operator the executor instantiates for this pattern in a
    /// **join** context, plus whether the inputs are swapped first
    /// (`During`, `OverlappedBy` and `After` reuse their mirror operator
    /// with sides exchanged). Input sort orders follow from
    /// `StreamOpKind::requirement`.
    pub fn join_op(self) -> (StreamOpKind, bool) {
        match self {
            TemporalPattern::Contains => (StreamOpKind::ContainJoinTsTe, false),
            TemporalPattern::During => (StreamOpKind::ContainJoinTsTe, true),
            TemporalPattern::GeneralOverlap | TemporalPattern::AllenOverlaps => {
                (StreamOpKind::OverlapJoin, false)
            }
            TemporalPattern::OverlappedBy => (StreamOpKind::OverlapJoin, true),
            TemporalPattern::Before => (StreamOpKind::BeforeJoin, false),
            TemporalPattern::After => (StreamOpKind::BeforeJoin, true),
        }
    }

    /// The stream operator the executor instantiates for this pattern in a
    /// **semijoin** context (left side kept), plus whether the kernel runs
    /// mirrored; `None` when no semijoin kernel evaluates the pattern
    /// (`OverlappedBy` would keep the overlap kernel's right side).
    pub fn semijoin_op(self) -> Option<(StreamOpKind, bool)> {
        Some(match self {
            TemporalPattern::Contains => (StreamOpKind::ContainSemijoinStab, false),
            TemporalPattern::During => (StreamOpKind::ContainedSemijoinStab, false),
            TemporalPattern::GeneralOverlap | TemporalPattern::AllenOverlaps => {
                (StreamOpKind::OverlapSemijoin, false)
            }
            TemporalPattern::OverlappedBy => return None,
            TemporalPattern::Before => (StreamOpKind::BeforeSemijoin, false),
            TemporalPattern::After => (StreamOpKind::BeforeSemijoin, true),
        })
    }

    /// Can `t` — the left operand when `left`, else the right — still
    /// satisfy this pattern with a partner whose `key` is at least `from`?
    ///
    /// The paper's GC rules, inverted: a resident tuple is discarded once
    /// the other input's sort order proves no later tuple can match it.
    /// The pattern's atoms bound the partner's `TS` and `TE` from above
    /// by endpoints of `t` (a partner `TE` bound also bounds its `TS`,
    /// since `TS < TE`); the answer is `false` only when that bound on
    /// `key` is at or below `from`.
    pub fn admits_partner_from(self, left: bool, t: Period, key: SortKey, from: TimePoint) -> bool {
        let (mine, theirs) = if left {
            ([Stamp::LTs, Stamp::LTe], [Stamp::RTs, Stamp::RTe])
        } else {
            ([Stamp::RTs, Stamp::RTe], [Stamp::LTs, Stamp::LTe])
        };
        let atoms = PATTERNS
            .iter()
            .find(|(p, _)| *p == self)
            .map_or(&[][..], |(_, atoms)| *atoms);
        let (mut below_ts, mut below_te) = (None::<TimePoint>, None::<TimePoint>);
        for &(a, b) in atoms {
            let bound = match b {
                s if s == mine[0] => t.start(),
                s if s == mine[1] => t.end(),
                _ => continue,
            };
            let tighten = |u: &mut Option<TimePoint>| *u = Some(u.map_or(bound, |v| v.min(bound)));
            if a == theirs[0] {
                tighten(&mut below_ts);
            } else if a == theirs[1] {
                tighten(&mut below_te);
                tighten(&mut below_ts);
            }
        }
        let bound = match key {
            SortKey::ValidFrom => below_ts,
            SortKey::ValidTo => below_te,
        };
        bound.is_none_or(|u| u > from)
    }
}

/// A successful recognition: the pattern, the variables it binds, and which
/// atom indices it consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recognition {
    /// The recognized relationship.
    pub pattern: TemporalPattern,
    /// Left-side variable.
    pub left_var: String,
    /// Right-side variable.
    pub right_var: String,
    /// Indices (into the input conjunction) of the atoms consumed.
    pub consumed: Vec<usize>,
}

/// A normalized timestamp inequality `l_attr < r_attr` between two fixed
/// variables (Ts = ValidFrom, Te = ValidTo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stamp {
    LTs,
    LTe,
    RTs,
    RTe,
}

fn stamp(var: &str, attr: &str, l: &str, r: &str) -> Option<Stamp> {
    match (var, attr) {
        (v, "ValidFrom") if v == l => Some(Stamp::LTs),
        (v, "ValidTo") if v == l => Some(Stamp::LTe),
        (v, "ValidFrom") if v == r => Some(Stamp::RTs),
        (v, "ValidTo") if v == r => Some(Stamp::RTe),
        _ => None,
    }
}

/// Normalize an atom to `a < b` over the stamps of `(l, r)`, if possible.
fn as_strict_less(atom: &Atom, l: &str, r: &str) -> Option<(Stamp, Stamp)> {
    let (Term::Column(lc), Term::Column(rc)) = (&atom.left, &atom.right) else {
        return None;
    };
    let a = stamp(&lc.var, &lc.attr, l, r)?;
    let b = stamp(&rc.var, &rc.attr, l, r)?;
    match atom.op {
        CompOp::Lt => Some((a, b)),
        CompOp::Gt => Some((b, a)),
        _ => None,
    }
}

const PATTERNS: &[(TemporalPattern, &[(Stamp, Stamp)])] = &[
    // Most specific first: the two strict overlaps (3 atoms) before the
    // 2-atom patterns, which in turn beat Before/After (1 atom).
    (
        TemporalPattern::AllenOverlaps,
        &[
            (Stamp::LTs, Stamp::RTs),
            (Stamp::RTs, Stamp::LTe),
            (Stamp::LTe, Stamp::RTe),
        ],
    ),
    (
        TemporalPattern::OverlappedBy,
        &[
            (Stamp::RTs, Stamp::LTs),
            (Stamp::LTs, Stamp::RTe),
            (Stamp::RTe, Stamp::LTe),
        ],
    ),
    (
        TemporalPattern::Contains,
        &[(Stamp::LTs, Stamp::RTs), (Stamp::RTe, Stamp::LTe)],
    ),
    (
        TemporalPattern::During,
        &[(Stamp::RTs, Stamp::LTs), (Stamp::LTe, Stamp::RTe)],
    ),
    (
        TemporalPattern::GeneralOverlap,
        &[(Stamp::LTs, Stamp::RTe), (Stamp::RTs, Stamp::LTe)],
    ),
    (TemporalPattern::Before, &[(Stamp::LTe, Stamp::RTs)]),
    (TemporalPattern::After, &[(Stamp::RTe, Stamp::LTs)]),
];

/// Recognize the *best* (most atoms consumed) temporal pattern between any
/// variable of `left_vars` and any of `right_vars` within `atoms`.
///
/// Returns `None` if no pattern matches completely. Ties prefer earlier
/// variable pairs, keeping recognition deterministic.
pub fn recognize_pattern(
    atoms: &[Atom],
    left_vars: &[&str],
    right_vars: &[&str],
) -> Option<Recognition> {
    let mut best: Option<Recognition> = None;
    for l in left_vars {
        for r in right_vars {
            // Normalize every applicable atom for this variable pair.
            let normalized: Vec<(usize, (Stamp, Stamp))> = atoms
                .iter()
                .enumerate()
                .filter_map(|(i, a)| as_strict_less(a, l, r).map(|s| (i, s)))
                .collect();
            for (pattern, required) in PATTERNS {
                let mut consumed = Vec::with_capacity(required.len());
                let mut ok = true;
                for need in *required {
                    match normalized
                        .iter()
                        .find(|(i, s)| s == need && !consumed.contains(i))
                    {
                        Some((i, _)) => consumed.push(*i),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let better = best
                        .as_ref()
                        .map(|b| consumed.len() > b.consumed.len())
                        .unwrap_or(true);
                    if better {
                        best = Some(Recognition {
                            pattern: *pattern,
                            left_var: l.to_string(),
                            right_var: r.to_string(),
                            consumed: consumed.clone(),
                        });
                    }
                    // Patterns are ordered most-specific-first; the first
                    // hit for this pair is its best.
                    break;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt(lv: &str, la: &str, rv: &str, ra: &str) -> Atom {
        Atom::cols(lv, la, CompOp::Lt, rv, ra)
    }

    /// Does `(l, r)` satisfy every atom of `pattern`?
    fn holds(pattern: TemporalPattern, l: Period, r: Period) -> bool {
        let v = |s: Stamp| match s {
            Stamp::LTs => l.start(),
            Stamp::LTe => l.end(),
            Stamp::RTs => r.start(),
            Stamp::RTe => r.end(),
        };
        let (_, atoms) = PATTERNS.iter().find(|(p, _)| *p == pattern).unwrap();
        atoms.iter().all(|&(a, b)| v(a) < v(b))
    }

    #[test]
    fn a_refused_partner_bound_admits_no_matching_partner() {
        let periods: Vec<Period> = (0..7)
            .flat_map(|s| (s + 1..8).map(move |e| Period::new(s, e).unwrap()))
            .collect();
        for (pattern, _) in PATTERNS {
            for key in [SortKey::ValidFrom, SortKey::ValidTo] {
                for &t in &periods {
                    for from in -1..9 {
                        let from = TimePoint(from);
                        for left in [true, false] {
                            if pattern.admits_partner_from(left, t, key, from) {
                                continue;
                            }
                            for &u in periods.iter().filter(|u| key.extract(*u) >= from) {
                                let (l, r) = if left { (t, u) } else { (u, t) };
                                assert!(
                                    !holds(*pattern, l, r),
                                    "{pattern:?} left={left} {t:?} refused for {key:?} ≥ {from:?}, \
                                     but {u:?} matches"
                                );
                            }
                        }
                    }
                }
            }
        }
        // And the containment GC rule itself: a container is dropped once
        // the containees' TS frontier passes its TE.
        let x = Period::new(0, 10).unwrap();
        let c = TemporalPattern::Contains;
        assert!(c.admits_partner_from(true, x, SortKey::ValidFrom, TimePoint(9)));
        assert!(!c.admits_partner_from(true, x, SortKey::ValidFrom, TimePoint(10)));
        assert!(!TemporalPattern::During.admits_partner_from(
            false,
            x,
            SortKey::ValidTo,
            TimePoint(10)
        ));
    }

    #[test]
    fn recognizes_general_overlap_from_superstar_atoms() {
        // (f1 overlap f3) ≡ f1.TS < f3.TE ∧ f3.TS < f1.TE.
        let atoms = vec![
            lt("f1", "ValidFrom", "f3", "ValidTo"),
            lt("f3", "ValidFrom", "f1", "ValidTo"),
        ];
        let r = recognize_pattern(&atoms, &["f1"], &["f3"]).unwrap();
        assert_eq!(r.pattern, TemporalPattern::GeneralOverlap);
        assert_eq!(r.consumed.len(), 2);
    }

    #[test]
    fn recognizes_containment_both_directions() {
        // x contains y.
        let atoms = vec![
            lt("x", "ValidFrom", "y", "ValidFrom"),
            lt("y", "ValidTo", "x", "ValidTo"),
        ];
        let r = recognize_pattern(&atoms, &["x"], &["y"]).unwrap();
        assert_eq!(r.pattern, TemporalPattern::Contains);

        // Written with flipped operands (Gt) — still recognized.
        let atoms = vec![
            Atom::cols("y", "ValidFrom", CompOp::Gt, "x", "ValidFrom"),
            Atom::cols("x", "ValidTo", CompOp::Gt, "y", "ValidTo"),
        ];
        let r = recognize_pattern(&atoms, &["x"], &["y"]).unwrap();
        assert_eq!(r.pattern, TemporalPattern::Contains);

        // x during y (Figure 8(b): the Contained-semijoin condition).
        let atoms = vec![
            lt("y", "ValidFrom", "x", "ValidFrom"),
            lt("x", "ValidTo", "y", "ValidTo"),
        ];
        let r = recognize_pattern(&atoms, &["x"], &["y"]).unwrap();
        assert_eq!(r.pattern, TemporalPattern::During);
    }

    #[test]
    fn allen_overlap_beats_subpatterns() {
        let atoms = vec![
            lt("x", "ValidFrom", "y", "ValidFrom"),
            lt("y", "ValidFrom", "x", "ValidTo"),
            lt("x", "ValidTo", "y", "ValidTo"),
        ];
        let r = recognize_pattern(&atoms, &["x"], &["y"]).unwrap();
        assert_eq!(r.pattern, TemporalPattern::AllenOverlaps);
        assert_eq!(r.consumed.len(), 3);
    }

    #[test]
    fn before_and_after() {
        let atoms = vec![lt("x", "ValidTo", "y", "ValidFrom")];
        assert_eq!(
            recognize_pattern(&atoms, &["x"], &["y"]).unwrap().pattern,
            TemporalPattern::Before
        );
        let atoms = vec![lt("y", "ValidTo", "x", "ValidFrom")];
        assert_eq!(
            recognize_pattern(&atoms, &["x"], &["y"]).unwrap().pattern,
            TemporalPattern::After
        );
    }

    #[test]
    fn picks_the_pair_with_most_coverage() {
        // f2/f3 form a containment (2 atoms); f1/f3 only a before (1 atom).
        let atoms = vec![
            lt("f1", "ValidTo", "f3", "ValidFrom"),
            lt("f2", "ValidFrom", "f3", "ValidFrom"),
            lt("f3", "ValidTo", "f2", "ValidTo"),
        ];
        let r = recognize_pattern(&atoms, &["f1", "f2"], &["f3"]).unwrap();
        assert_eq!(r.pattern, TemporalPattern::Contains);
        assert_eq!(r.left_var, "f2");
    }

    #[test]
    fn ignores_non_temporal_and_non_strict_atoms() {
        let atoms = vec![
            Atom::cols("x", "Name", CompOp::Eq, "y", "Name"),
            Atom::cols("x", "ValidFrom", CompOp::Le, "y", "ValidTo"),
        ];
        assert!(recognize_pattern(&atoms, &["x"], &["y"]).is_none());
    }

    #[test]
    fn no_false_positive_on_half_patterns() {
        let atoms = vec![lt("x", "ValidFrom", "y", "ValidFrom")];
        assert!(recognize_pattern(&atoms, &["x"], &["y"]).is_none());
    }
}
