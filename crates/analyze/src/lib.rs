//! # tdb-analyze — plan-time static verification
//!
//! The paper's stream operators are only correct *and* bounded under the
//! input sort orderings of Tables 1–3, and their workspaces obey Little's
//! law (`E[W] = λ·E[D]`, §4.1). The executor enforces those preconditions
//! dynamically — constructors reject mis-ordered streams, debug builds
//! assert runtime workspaces against static caps — but a bad plan should
//! not need to run to be found out. This crate proves the preconditions
//! **before a single tuple flows**:
//!
//! * **Sort-order inference** ([`infer_order`], [`lower_plan`]) propagates
//!   a [`StreamOrder`] bottom-up through every [`PhysicalPlan`] node —
//!   catalog *known orders* at the leaves, order-preserving filters,
//!   order-destroying joins — and records, per stream operator, the entry
//!   order each input will have and whether the executor must sort.
//! * **Registry proofs** ([`check_op`]) compare each operator occurrence
//!   against [`StreamOpKind::requirement`], accepting direct entries and
//!   fully-mirrored entries (the "mirror image of the upper half" rows of
//!   Tables 1/2), and rejecting everything else with a diagnostic naming
//!   the plan path and the violated table entry.
//! * **Workspace bounds** derive λ·E[D] expectations and sound
//!   max-concurrency caps from [`TemporalStats`] and flag plans over a
//!   configurable budget ([`AnalyzeConfig`]).
//!
//! [`plan_verified`] packages the pipeline: plan, verify, and hand back
//! the physical plan together with a renderable [`Analysis`] certificate
//! — or a batch of [`AnalyzeError`]s mapped into [`TdbError::Plan`].
//!
//! [`PhysicalPlan`]: tdb_algebra::PhysicalPlan
//! [`StreamOrder`]: tdb_core::StreamOrder
//! [`TemporalStats`]: tdb_core::TemporalStats
//! [`StreamOpKind::requirement`]: tdb_stream::StreamOpKind::requirement
//! [`TdbError::Plan`]: tdb_core::TdbError::Plan

pub mod error;
pub mod lower;
pub mod spec;
pub mod verify;

pub use error::{render_errors, AnalyzeError, PlanPath};
pub use lower::{infer_order, lower_plan, lower_plan_with_stats, Lowered};
pub use spec::{check_op, StreamOpSpec};
pub use verify::{
    plan_verified, plan_verified_live, verified_live, verify, verify_live, verify_lowered,
    Analysis, AnalyzeConfig,
};

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_algebra::{Atom, CompOp, LogicalPlan, PhysicalPlan, PlannerConfig};
    use tdb_core::Row;
    use tdb_gen::FacultyGen;
    use tdb_storage::{Catalog, IoStats};

    fn catalog(tag: &str) -> Catalog {
        let dir = std::env::temp_dir().join(format!("tdb-analyze-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = Catalog::open(dir, IoStats::new()).unwrap();
        let rows: Vec<Row> = FacultyGen {
            n_faculty: 40,
            seed: 11,
            continuous_employment: true,
            ..FacultyGen::default()
        }
        .generate()
        .iter()
        .map(|t| t.to_row())
        .collect();
        cat.create_relation(
            "Faculty",
            tdb_core::TemporalSchema::time_sequence("Name", "Rank"),
            &rows,
            vec![],
        )
        .unwrap();
        cat
    }

    fn scan(var: &str) -> LogicalPlan {
        LogicalPlan::scan("Faculty", var, &tdb_algebra::logical::FACULTY_ATTRS)
    }

    fn contains_atoms(l: &str, r: &str) -> Vec<Atom> {
        vec![
            Atom::cols(l, "ValidFrom", CompOp::Lt, r, "ValidFrom"),
            Atom::cols(r, "ValidTo", CompOp::Lt, l, "ValidTo"),
        ]
    }

    #[test]
    fn planner_emitted_plans_all_verify() {
        let cat = catalog("accept");
        let join = scan("f1").join(scan("f2"), contains_atoms("f1", "f2"));
        let (physical, analysis) = plan_verified(&join, PlannerConfig::stream(), &cat).unwrap();
        assert!(matches!(physical, PhysicalPlan::StreamTemporal { .. }));
        let cert = analysis.render();
        assert!(cert.contains("Table 1 (b)"), "{cert}");
        // Catalog statistics flowed into the certificate.
        assert!(cert.contains("λ·E[D]"), "{cert}");
    }

    #[test]
    fn workspace_budget_flags_heavy_plans() {
        let cat = catalog("budget");
        let join = scan("f1").join(scan("f2"), contains_atoms("f1", "f2"));
        let physical = tdb_algebra::plan(&join, PlannerConfig::stream()).unwrap();
        // A generous budget passes…
        assert!(verify(
            &physical,
            Some(&cat),
            &AnalyzeConfig::default().with_workspace_budget(1e9)
        )
        .is_ok());
        // …an impossible one is flagged with the plan path.
        let errors = verify(
            &physical,
            Some(&cat),
            &AnalyzeConfig::default().with_workspace_budget(0.0),
        )
        .unwrap_err();
        assert!(matches!(
            errors.as_slice(),
            [AnalyzeError::WorkspaceOverBudget { .. }]
        ));
        assert!(errors[0].to_string().contains("λ·E[D]"), "{}", errors[0]);
    }

    #[test]
    fn live_mode_demands_proven_caps_and_gc() {
        let cat = catalog("live");
        let contains = scan("f1").join(scan("f2"), contains_atoms("f1", "f2"));
        let no_overrides = std::collections::BTreeMap::new();

        // A GC'd operator with catalog statistics proves a finite cap.
        let physical = tdb_algebra::plan(&contains, PlannerConfig::stream()).unwrap();
        verify_live(&physical, Some(&cat), &no_overrides, &AnalyzeConfig::live()).unwrap();

        // The same plan with no statistics at all cannot prove a cap.
        let errors =
            verify_live(&physical, None, &no_overrides, &AnalyzeConfig::live()).unwrap_err();
        assert!(matches!(errors[0], AnalyzeError::NotLiveSafe { .. }));
        assert!(errors[0].to_string().contains("no input statistics"));

        // Live statistics overrides flow into the workspace expectation:
        // a hot-arrival override can push a plan over the budget that the
        // cold catalog statistics would have passed.
        let mut hot = std::collections::BTreeMap::new();
        let mut stats = cat.meta("Faculty").unwrap().stats.clone();
        stats.lambda = Some(1e6);
        stats.mean_duration *= 1e3;
        hot.insert("Faculty".to_string(), stats);
        let cfg = AnalyzeConfig::live().with_workspace_budget(1e6);
        assert!(verify_live(&physical, Some(&cat), &no_overrides, &cfg).is_ok());
        let errors = verify_live(&physical, Some(&cat), &hot, &cfg).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, AnalyzeError::WorkspaceOverBudget { .. })));

        // A Before-join never garbage-collects its inner input: rejected
        // for live execution even with statistics.
        let before = scan("f1").join(
            scan("f2"),
            vec![Atom::cols("f1", "ValidTo", CompOp::Lt, "f2", "ValidFrom")],
        );
        let physical = tdb_algebra::plan(&before, PlannerConfig::stream()).unwrap();
        let errors =
            verify_live(&physical, Some(&cat), &no_overrides, &AnalyzeConfig::live()).unwrap_err();
        assert!(matches!(errors[0], AnalyzeError::NotLiveSafe { .. }));
        assert!(errors[0].to_string().contains("§4.2.4"), "{}", errors[0]);
    }

    #[test]
    fn superstar_self_semijoin_verifies() {
        let cat = catalog("superstar");
        for (label, logical) in tdb_semantic_plans() {
            let (_, analysis) = plan_verified(&logical, PlannerConfig::stream(), &cat)
                .unwrap_or_else(|e| {
                    panic!("{label}: {e}");
                });
            assert!(!analysis.render().is_empty());
        }
    }

    /// The Section 5 Superstar formulations, via the semantic crate's
    /// public constructor (kept out of dev-deps by rebuilding the shape).
    fn tdb_semantic_plans() -> Vec<(&'static str, LogicalPlan)> {
        let assoc =
            |v: &str| scan(v).select(vec![Atom::col_const(v, "Rank", CompOp::Eq, "Associate")]);
        vec![
            (
                "self-semijoin (During)",
                assoc("fi").semijoin(
                    assoc("fj"),
                    vec![
                        Atom::cols("fj", "ValidFrom", CompOp::Lt, "fi", "ValidFrom"),
                        Atom::cols("fi", "ValidTo", CompOp::Lt, "fj", "ValidTo"),
                    ],
                ),
            ),
            (
                "overlap join",
                scan("f1").join(
                    scan("f2"),
                    vec![
                        Atom::cols("f1", "ValidFrom", CompOp::Lt, "f2", "ValidTo"),
                        Atom::cols("f2", "ValidFrom", CompOp::Lt, "f1", "ValidTo"),
                    ],
                ),
            ),
            (
                "before join",
                scan("f1").join(
                    scan("f2"),
                    vec![Atom::cols("f1", "ValidTo", CompOp::Lt, "f2", "ValidFrom")],
                ),
            ),
        ]
    }
}
