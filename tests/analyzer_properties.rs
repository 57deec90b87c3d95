//! Property tests for the plan-time static verifier: the analyzer accepts
//! every plan the planner emits (across random planner configurations),
//! and rejects every guaranteed-invalid mutation of a valid plan's
//! operator specs — the soundness/completeness contract of `tdb-analyze`.

use proptest::prelude::*;
use tdb::algebra::logical::FACULTY_ATTRS;
use tdb::analyze::{check_op, lower_plan, verify, AnalyzeConfig};
use tdb::prelude::*;
use tdb::stream::StreamOpKind;

type Mutation = Box<dyn Fn(&mut StreamOpSpec)>;

fn scan(var: &str) -> LogicalPlan {
    LogicalPlan::scan("Faculty", var, &FACULTY_ATTRS)
}

/// The temporal predicate shapes the Quel front end produces, as raw
/// inequality atoms (the planner recognizes the pattern itself).
fn atoms(shape: usize) -> Vec<Atom> {
    match shape {
        // f1 contains f2
        0 => vec![
            Atom::cols("f1", "ValidFrom", CompOp::Lt, "f2", "ValidFrom"),
            Atom::cols("f2", "ValidTo", CompOp::Lt, "f1", "ValidTo"),
        ],
        // f1 during f2
        1 => vec![
            Atom::cols("f2", "ValidFrom", CompOp::Lt, "f1", "ValidFrom"),
            Atom::cols("f1", "ValidTo", CompOp::Lt, "f2", "ValidTo"),
        ],
        // general overlap
        2 => vec![
            Atom::cols("f1", "ValidFrom", CompOp::Lt, "f2", "ValidTo"),
            Atom::cols("f2", "ValidFrom", CompOp::Lt, "f1", "ValidTo"),
        ],
        // f1 before f2
        3 => vec![Atom::cols("f1", "ValidTo", CompOp::Lt, "f2", "ValidFrom")],
        // f1 after f2
        _ => vec![Atom::cols("f2", "ValidTo", CompOp::Lt, "f1", "ValidFrom")],
    }
}

fn logical(shape: usize, semijoin: bool) -> LogicalPlan {
    if semijoin {
        scan("f1").semijoin(scan("f2"), atoms(shape))
    } else {
        scan("f1").join(scan("f2"), atoms(shape))
    }
}

fn planner_config(variant: usize) -> PlannerConfig {
    match variant {
        0 => PlannerConfig::stream(),
        1 => PlannerConfig::conventional(),
        _ => PlannerConfig::naive(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of the planner w.r.t. the verifier: no emitted plan is
    /// rejected, for any predicate shape × planner variant.
    #[test]
    fn analyzer_accepts_every_planner_emitted_plan(
        shape in 0usize..5,
        semijoin in proptest::bool::ANY,
        variant in 0usize..3,
    ) {
        let physical = tdb::algebra::plan(&logical(shape, semijoin), planner_config(variant))
            .expect("planner must handle every shape");
        let result = verify(&physical, None, &AnalyzeConfig::default());
        prop_assert!(
            result.is_ok(),
            "planner-emitted plan rejected: {}",
            tdb::analyze::render_errors(&result.unwrap_err())
        );
    }

    /// Completeness against perturbation: every applicable
    /// ordering/operator mutation of a verified plan's specs is rejected.
    #[test]
    fn analyzer_rejects_every_spec_mutation(
        shape in 0usize..5,
        semijoin in proptest::bool::ANY,
        which_op in 0usize..8,
        which_mutation in 0usize..8,
    ) {
        let physical = tdb::algebra::plan(&logical(shape, semijoin), planner_config(0)).unwrap();
        let lowered = lower_plan(&physical, None);
        prop_assert!(!lowered.ops.is_empty(), "stream planner emitted no stream ops");
        let spec = &lowered.ops[which_op % lowered.ops.len()];
        prop_assert!(check_op(spec).is_ok(), "pre-mutation spec must verify");

        let req = spec.kind.requirement();
        // Enumerate the mutations that are invalid *by construction* for
        // this operator, then apply one.
        let required_sides: Vec<usize> = (0..req.arity())
            .filter(|&i| req.inputs[i].is_some())
            .collect();
        let mut mutations: Vec<Mutation> = Vec::new();
        for &i in &required_sides {
            // Drop the declared order on a required side: unsorted input.
            mutations.push(Box::new(move |s| {
                s.inputs[i] = None;
            }));
            // Mirror one required side only: a half-mirrored entry is not
            // a licensed row of Tables 1/2. (Only invalid when another
            // side stays direct — mirroring a unary operator's single
            // input is the legitimate time-reversed variant.)
            if required_sides.len() >= 2 {
                let mirrored = req.inputs[i].map(|o| o.mirror());
                mutations.push(Box::new(move |s| {
                    s.inputs[i] = mirrored;
                }));
            }
        }
        // Operator mutation: swap in a kind of the wrong arity.
        let wrong_arity_kind = if req.arity() == 1 {
            StreamOpKind::OverlapJoin
        } else {
            StreamOpKind::ContainedSelfSemijoin
        };
        mutations.push(Box::new(move |s| {
            s.kind = wrong_arity_kind;
        }));

        let mut mutated = spec.clone();
        mutations[which_mutation % mutations.len()](&mut mutated);
        let err = check_op(&mutated);
        prop_assert!(
            err.is_err(),
            "mutation survived the checker: {mutated:?}"
        );
    }
}
