//! Logical → physical planning.
//!
//! The planner turns an (optimized) logical plan into a physical one. Its
//! join strategy reproduces the paper's argument:
//!
//! * equality atoms on ordinary attributes → **merge equi-join** (the §3
//!   observation that "the first join ... can be efficiently implemented as
//!   an equi-join using a conventional approach");
//! * a conjunction of timestamp inequalities that [`recognize_pattern`]
//!   maps onto a temporal operator → **§4 stream operator**, with residual
//!   atoms filtered after;
//! * otherwise → **nested-loop join**, the conventional fallback.
//!
//! For semijoins whose two inputs are *structurally identical* subplans and
//! whose predicate is pure containment, the planner emits the §4.2.3
//! **single-scan self semijoin** — the plan the semantically optimized
//! Superstar query runs (Section 5).
//!
//! [`PlannerConfig`] can disable the stream and merge strategies, yielding
//! the conventional plans the experiments compare against.

use crate::expr::{Atom, ColumnRef, CompOp, Term};
use crate::logical::LogicalPlan;
use crate::pattern::{recognize_pattern, TemporalPattern};
use crate::physical::PhysicalPlan;
use tdb_core::TdbResult;

/// Strategy toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Allow §4 stream temporal operators.
    pub use_stream_temporal: bool,
    /// Allow merge equi-joins (otherwise nested-loop).
    pub use_merge_equi: bool,
    /// Rows per columnar batch fed to the stream temporal kernels (≥ 1).
    /// Every size produces identical output and identical workspace
    /// statistics (`tests/oracle.rs`).
    pub batch_rows: usize,
}

impl PlannerConfig {
    /// Everything enabled: the full optimizer.
    pub fn stream() -> PlannerConfig {
        PlannerConfig {
            use_stream_temporal: true,
            use_merge_equi: true,
            batch_rows: tdb_stream::DEFAULT_BATCH_ROWS,
        }
    }

    /// The conventional system of §3: merge joins for equalities, but
    /// nested loops for every inequality (less-than) join.
    pub fn conventional() -> PlannerConfig {
        PlannerConfig {
            use_stream_temporal: false,
            use_merge_equi: true,
            batch_rows: tdb_stream::DEFAULT_BATCH_ROWS,
        }
    }

    /// Nested loops only (the unoptimized strawman).
    pub fn naive() -> PlannerConfig {
        PlannerConfig {
            use_stream_temporal: false,
            use_merge_equi: false,
            batch_rows: tdb_stream::DEFAULT_BATCH_ROWS,
        }
    }

    /// Set the rows-per-batch for stream operators (the executor floors
    /// a `0` to 1).
    pub fn with_batch_rows(mut self, rows: usize) -> PlannerConfig {
        self.batch_rows = rows;
        self
    }
}

/// Plan a logical tree under `config`.
pub fn plan(logical: &LogicalPlan, config: PlannerConfig) -> TdbResult<PhysicalPlan> {
    logical.check_columns()?;
    plan_node(logical, config)
}

fn plan_node(node: &LogicalPlan, config: PlannerConfig) -> TdbResult<PhysicalPlan> {
    Ok(match node {
        LogicalPlan::Scan { relation, var, .. } => PhysicalPlan::SeqScan {
            relation: relation.clone(),
            var: var.clone(),
        },
        LogicalPlan::Select { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(plan_node(input, config)?),
            atoms: predicate.clone(),
        },
        LogicalPlan::Project { input, columns } => PhysicalPlan::Project {
            input: Box::new(plan_node(input, config)?),
            columns: columns.clone(),
        },
        LogicalPlan::Product { left, right } => PhysicalPlan::Product {
            left: Box::new(plan_node(left, config)?),
            right: Box::new(plan_node(right, config)?),
        },
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => plan_join(left, right, predicate, config)?,
        LogicalPlan::Semijoin {
            left,
            right,
            predicate,
        } => plan_semijoin(left, right, predicate, config)?,
    })
}

/// Is this atom an equality between a left-scope column and a right-scope
/// column? A timestamp equality qualifies too: it pins one endpoint of an
/// Allen relation (`meets`, `starts`, `finishes`, `equal`), so the merge
/// join runs on it with the other endpoint as the residual (footnote 8).
fn as_equi_key(
    atom: &Atom,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Option<(ColumnRef, ColumnRef)> {
    if atom.op != CompOp::Eq {
        return None;
    }
    let (Term::Column(a), Term::Column(b)) = (&atom.left, &atom.right) else {
        return None;
    };
    let ls = left.scope();
    let rs = right.scope();
    let holds = |c: &ColumnRef, s: &crate::logical::Scope| s.index_of(c).is_ok();
    if holds(a, &ls) && holds(b, &rs) {
        Some((a.clone(), b.clone()))
    } else if holds(b, &ls) && holds(a, &rs) {
        Some((b.clone(), a.clone()))
    } else {
        None
    }
}

fn plan_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    predicate: &[Atom],
    config: PlannerConfig,
) -> TdbResult<PhysicalPlan> {
    let pleft = plan_node(left, config)?;
    let pright = plan_node(right, config)?;

    // 1. Merge equi-join on the first usable equality.
    if config.use_merge_equi {
        if let Some((i, (lk, rk))) = predicate
            .iter()
            .enumerate()
            .find_map(|(i, a)| as_equi_key(a, left, right).map(|k| (i, k)))
        {
            let residual: Vec<Atom> = predicate
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, a)| a.clone())
                .collect();
            return Ok(PhysicalPlan::MergeEqui {
                left: Box::new(pleft),
                right: Box::new(pright),
                left_key: lk,
                right_key: rk,
                residual,
            });
        }
    }

    // 2. Stream temporal operator on a recognized inequality pattern.
    if config.use_stream_temporal {
        let lscope = left.scope();
        let rscope = right.scope();
        let lvars = lscope.vars();
        let rvars = rscope.vars();
        if let Some(rec) = recognize_pattern(predicate, &lvars, &rvars) {
            let residual: Vec<Atom> = predicate
                .iter()
                .enumerate()
                .filter(|(j, _)| !rec.consumed.contains(j))
                .map(|(_, a)| a.clone())
                .collect();
            return Ok(PhysicalPlan::StreamTemporal {
                left: Box::new(pleft),
                right: Box::new(pright),
                left_var: rec.left_var,
                right_var: rec.right_var,
                pattern: rec.pattern,
                residual,
            });
        }
    }

    // 3. Conventional nested loop.
    Ok(PhysicalPlan::NestedLoop {
        left: Box::new(pleft),
        right: Box::new(pright),
        atoms: predicate.to_vec(),
    })
}

fn plan_semijoin(
    left: &LogicalPlan,
    right: &LogicalPlan,
    predicate: &[Atom],
    config: PlannerConfig,
) -> TdbResult<PhysicalPlan> {
    // A single-equality semijoin (e.g. the Name guard of the §5 plan) runs
    // as a merge semijoin.
    if config.use_merge_equi && predicate.len() == 1 {
        if let Some((lk, rk)) = as_equi_key(&predicate[0], left, right) {
            return Ok(PhysicalPlan::MergeSemijoin {
                left: Box::new(plan_node(left, config)?),
                right: Box::new(plan_node(right, config)?),
                left_key: lk,
                right_key: rk,
            });
        }
    }
    if config.use_stream_temporal {
        let lscope = left.scope();
        let rscope = right.scope();
        let lvars = lscope.vars();
        let rvars = rscope.vars();
        if let Some(rec) = recognize_pattern(predicate, &lvars, &rvars) {
            // Stream semijoins must cover the entire predicate — a residual
            // would make "emit on first match" unsound — and need a kernel
            // that keeps the pattern's left side.
            if rec.consumed.len() == predicate.len() && rec.pattern.semijoin_op().is_some() {
                // §4.2.3: identical subplans + containment ⇒ single scan.
                if plans_equal_modulo_var(left, right)
                    && matches!(
                        rec.pattern,
                        TemporalPattern::During | TemporalPattern::Contains
                    )
                {
                    return Ok(PhysicalPlan::SelfSemijoin {
                        input: Box::new(plan_node(left, config)?),
                        var: rec.left_var,
                        contained: rec.pattern == TemporalPattern::During,
                    });
                }
                return Ok(PhysicalPlan::StreamSemijoin {
                    left: Box::new(plan_node(left, config)?),
                    right: Box::new(plan_node(right, config)?),
                    left_var: rec.left_var,
                    right_var: rec.right_var,
                    pattern: rec.pattern,
                });
            }
        }
    }
    Ok(PhysicalPlan::NestedSemijoin {
        left: Box::new(plan_node(left, config)?),
        right: Box::new(plan_node(right, config)?),
        atoms: predicate.to_vec(),
    })
}

/// Structural equality of two plans up to a consistent renaming of range
/// variables — `σ_{Rank=Associate}(Faculty_i)` equals
/// `σ_{Rank=Associate}(Faculty_j)`.
fn plans_equal_modulo_var(a: &LogicalPlan, b: &LogicalPlan) -> bool {
    let va = a.scope().vars().first().map(|s| s.to_string());
    let vb = b.scope().vars().first().map(|s| s.to_string());
    let (Some(va), Some(vb)) = (va, vb) else {
        return false;
    };
    // Single-variable subplans only (sufficient for the Section 5 shape).
    if a.scope().vars().len() != 1 || b.scope().vars().len() != 1 {
        return a == b;
    }
    rename_var(a, &va, "§") == rename_var(b, &vb, "§")
}

fn rename_var(plan: &LogicalPlan, from: &str, to: &str) -> LogicalPlan {
    let rn_col = |c: &ColumnRef| -> ColumnRef {
        if c.var == from {
            ColumnRef::new(to, c.attr.clone())
        } else {
            c.clone()
        }
    };
    let rn_term = |t: &Term| -> Term {
        match t {
            Term::Column(c) => Term::Column(rn_col(c)),
            Term::Const(v) => Term::Const(v.clone()),
        }
    };
    let rn_atoms = |atoms: &[Atom]| -> Vec<Atom> {
        atoms
            .iter()
            .map(|a| Atom::new(rn_term(&a.left), a.op, rn_term(&a.right)))
            .collect()
    };
    match plan {
        LogicalPlan::Scan {
            relation,
            var,
            attrs,
        } => LogicalPlan::Scan {
            relation: relation.clone(),
            var: if var == from { to.into() } else { var.clone() },
            attrs: attrs.clone(),
        },
        LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
            input: Box::new(rename_var(input, from, to)),
            predicate: rn_atoms(predicate),
        },
        LogicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(rename_var(input, from, to)),
            columns: columns
                .iter()
                .map(|(c, n)| (rn_col(c), n.clone()))
                .collect(),
        },
        LogicalPlan::Product { left, right } => LogicalPlan::Product {
            left: Box::new(rename_var(left, from, to)),
            right: Box::new(rename_var(right, from, to)),
        },
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => LogicalPlan::Join {
            left: Box::new(rename_var(left, from, to)),
            right: Box::new(rename_var(right, from, to)),
            predicate: rn_atoms(predicate),
        },
        LogicalPlan::Semijoin {
            left,
            right,
            predicate,
        } => LogicalPlan::Semijoin {
            left: Box::new(rename_var(left, from, to)),
            right: Box::new(rename_var(right, from, to)),
            predicate: rn_atoms(predicate),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::FACULTY_ATTRS;

    fn scan(var: &str) -> LogicalPlan {
        LogicalPlan::scan("Faculty", var, &FACULTY_ATTRS)
    }

    fn contains_atoms(l: &str, r: &str) -> Vec<Atom> {
        vec![
            Atom::cols(l, "ValidFrom", CompOp::Lt, r, "ValidFrom"),
            Atom::cols(r, "ValidTo", CompOp::Lt, l, "ValidTo"),
        ]
    }

    #[test]
    fn equi_join_goes_to_merge() {
        let j = scan("f1").join(
            scan("f2"),
            vec![Atom::cols("f1", "Name", CompOp::Eq, "f2", "Name")],
        );
        let p = plan(&j, PlannerConfig::stream()).unwrap();
        assert!(matches!(p, PhysicalPlan::MergeEqui { .. }));
        // Naive config refuses merge.
        let p = plan(&j, PlannerConfig::naive()).unwrap();
        assert!(matches!(p, PhysicalPlan::NestedLoop { .. }));
    }

    #[test]
    fn containment_conjunction_goes_to_stream() {
        let j = scan("f1").join(scan("f2"), contains_atoms("f1", "f2"));
        let p = plan(&j, PlannerConfig::stream()).unwrap();
        let PhysicalPlan::StreamTemporal {
            pattern, residual, ..
        } = &p
        else {
            panic!("expected stream temporal, got\n{p}");
        };
        assert_eq!(*pattern, TemporalPattern::Contains);
        assert!(residual.is_empty());
        // The conventional config falls back to nested loop (the §3 claim).
        let p = plan(&j, PlannerConfig::conventional()).unwrap();
        assert!(matches!(p, PhysicalPlan::NestedLoop { .. }));
    }

    #[test]
    fn unconsumed_atoms_become_residual() {
        let mut atoms = contains_atoms("f1", "f2");
        atoms.push(Atom::col_const("f2", "Rank", CompOp::Eq, "Associate"));
        let j = scan("f1").join(scan("f2"), atoms);
        let p = plan(&j, PlannerConfig::stream()).unwrap();
        let PhysicalPlan::StreamTemporal { residual, .. } = &p else {
            panic!("expected stream temporal:\n{p}");
        };
        assert_eq!(residual.len(), 1);
    }

    #[test]
    fn self_semijoin_detected_for_identical_subplans() {
        let assoc =
            |v: &str| scan(v).select(vec![Atom::col_const(v, "Rank", CompOp::Eq, "Associate")]);
        // f_i contained in f_j: During pattern, identical subplans.
        let sj = assoc("fi").semijoin(
            assoc("fj"),
            vec![
                Atom::cols("fj", "ValidFrom", CompOp::Lt, "fi", "ValidFrom"),
                Atom::cols("fi", "ValidTo", CompOp::Lt, "fj", "ValidTo"),
            ],
        );
        let p = plan(&sj, PlannerConfig::stream()).unwrap();
        let PhysicalPlan::SelfSemijoin { contained, var, .. } = &p else {
            panic!("expected single-scan self semijoin, got\n{p}");
        };
        assert!(*contained);
        assert_eq!(var, "fi");
    }

    #[test]
    fn different_subplans_use_two_stream_semijoin() {
        let assistants =
            scan("fi").select(vec![Atom::col_const("fi", "Rank", CompOp::Eq, "Assistant")]);
        let fulls = scan("fj").select(vec![Atom::col_const("fj", "Rank", CompOp::Eq, "Full")]);
        let sj = assistants.semijoin(
            fulls,
            vec![
                Atom::cols("fj", "ValidFrom", CompOp::Lt, "fi", "ValidFrom"),
                Atom::cols("fi", "ValidTo", CompOp::Lt, "fj", "ValidTo"),
            ],
        );
        let p = plan(&sj, PlannerConfig::stream()).unwrap();
        assert!(matches!(p, PhysicalPlan::StreamSemijoin { .. }), "{p}");
    }

    #[test]
    fn semijoin_with_residual_falls_back_to_nested() {
        let mut atoms = contains_atoms("f2", "f1"); // f1 during f2
        atoms.push(Atom::cols("f1", "Name", CompOp::Eq, "f2", "Name"));
        let sj = scan("f1").semijoin(scan("f2"), atoms);
        let p = plan(&sj, PlannerConfig::stream()).unwrap();
        assert!(matches!(p, PhysicalPlan::NestedSemijoin { .. }), "{p}");
    }

    #[test]
    fn planning_rejects_bad_columns() {
        let j = scan("f1").join(
            scan("f2"),
            vec![Atom::cols("f1", "Name", CompOp::Eq, "f9", "Name")],
        );
        assert!(plan(&j, PlannerConfig::stream()).is_err());
    }
}
