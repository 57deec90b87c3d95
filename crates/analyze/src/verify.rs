//! The whole-plan verifier and its human-readable certificate.

use crate::error::{render_errors, AnalyzeError};
use crate::lower::{lower_plan, lower_plan_with_stats, Lowered};
use crate::spec::check_op;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tdb_algebra::{plan, LogicalPlan, PhysicalPlan, PlannerConfig};
use tdb_core::{TdbError, TdbResult, TemporalStats};
use tdb_storage::Catalog;
use tdb_stream::StreamOpKind;

/// Verifier knobs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalyzeConfig {
    /// Reject plans whose per-operator expected workspace (λ·E[D] state
    /// tuples) exceeds this value. `None` = report bounds, never reject.
    pub workspace_budget: Option<f64>,
    /// Verify for *live* execution: every operator must additionally carry
    /// a proven finite workspace cap (statistics must be available), and
    /// operators that materialize an input without garbage collection —
    /// whose cap grows with the stream — are rejected outright.
    pub live: bool,
}

impl AnalyzeConfig {
    /// A live-mode configuration (see [`AnalyzeConfig::live`]).
    pub fn live() -> AnalyzeConfig {
        AnalyzeConfig {
            live: true,
            ..AnalyzeConfig::default()
        }
    }

    /// Set the workspace budget in expected state tuples.
    pub fn with_workspace_budget(mut self, budget: f64) -> AnalyzeConfig {
        self.workspace_budget = Some(budget);
        self
    }
}

/// Can `kind` run over an unbounded arrival stream? True for every
/// operator whose Table 1–3 GC rule bounds the workspace by concurrency;
/// false for the Before-join, which materializes its entire inner input
/// (§4.2.4 — no shared time point means no GC opportunity).
fn live_safe(kind: StreamOpKind) -> bool {
    kind != StreamOpKind::BeforeJoin
}

/// A successful analysis: the proven specs, renderable as a certificate.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The lowered plan the proofs ran over.
    pub lowered: Lowered,
}

impl Analysis {
    /// Render the certificate: one block per stream operator naming its
    /// Table 1/2/3 entry, entry orders, inserted sorts, and workspace
    /// bounds.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let n = self.lowered.ops.len();
        writeln!(
            out,
            "static analysis: {n} stream operator{} verified",
            if n == 1 { "" } else { "s" }
        )
        .ok();
        for op in &self.lowered.ops {
            let req = op.kind.requirement();
            writeln!(out, "  {}: {} — {}", op.path, op.kind, req.table_entry).ok();
            let side = |i: usize| match (req.arity(), i) {
                (1, _) => "input",
                (_, 0) => "X",
                _ => "Y",
            };
            for (i, order) in op.inputs.iter().enumerate() {
                let sorted = if op.sorts_inserted.get(i).copied().unwrap_or(false) {
                    " (sort inserted)"
                } else {
                    " (order reused)"
                };
                match order {
                    Some(o) => writeln!(out, "      {}: {o}{sorted}", side(i)).ok(),
                    None => writeln!(out, "      {}: any order", side(i)).ok(),
                };
            }
            match (op.workspace_expectation, op.workspace_cap) {
                (Some(e), Some(c)) => {
                    writeln!(out, "      workspace: E[W] = λ·E[D] ≈ {e:.1}, cap {c}").ok();
                }
                _ => {
                    writeln!(out, "      workspace: no input statistics").ok();
                }
            }
        }
        out
    }
}

/// Check an already-lowered plan, collecting every diagnostic.
pub fn verify_lowered(lowered: &Lowered, config: &AnalyzeConfig) -> Vec<AnalyzeError> {
    let mut errors = Vec::new();
    for op in &lowered.ops {
        if let Err(e) = check_op(op) {
            errors.push(e);
        }
        if config.live {
            if !live_safe(op.kind) {
                errors.push(AnalyzeError::NotLiveSafe {
                    path: op.path.clone(),
                    kind: op.kind,
                    detail: "it materializes its inner input without garbage collection, \
                             so its workspace grows with the stream (§4.2.4)"
                        .into(),
                });
            } else if op.workspace_cap.is_none() {
                errors.push(AnalyzeError::NotLiveSafe {
                    path: op.path.clone(),
                    kind: op.kind,
                    detail: "no input statistics reach this operator, so no finite \
                             workspace cap can be proven for unbounded arrival"
                        .into(),
                });
            }
        }
        if let (Some(budget), Some(expected)) = (config.workspace_budget, op.workspace_expectation)
        {
            if expected > budget {
                errors.push(AnalyzeError::WorkspaceOverBudget {
                    path: op.path.clone(),
                    kind: op.kind,
                    expected,
                    budget,
                });
            }
        }
    }
    errors
}

/// Statically verify a physical plan: lower it, prove every stream
/// operator against the registry, and apply the workspace budget. `catalog` supplies base-relation statistics and
/// known orders; without it ordering proofs still run (the executor's
/// inserted sorts are modeled) but workspace bounds are unavailable.
pub fn verify(
    physical: &PhysicalPlan,
    catalog: Option<&Catalog>,
    config: &AnalyzeConfig,
) -> Result<Analysis, Vec<AnalyzeError>> {
    let lowered = lower_plan(physical, catalog);
    let errors = verify_lowered(&lowered, config);
    if errors.is_empty() {
        Ok(Analysis { lowered })
    } else {
        Err(errors)
    }
}

/// Plan `logical` under `config` and refuse to return any physical plan
/// the static verifier rejects — the "planner runs the verifier on every
/// plan" entry point used by the CLI and facade (the analyzer depends on
/// the algebra crate, so the planner itself cannot call back into it).
pub fn plan_verified(
    logical: &LogicalPlan,
    config: PlannerConfig,
    catalog: &Catalog,
) -> TdbResult<(PhysicalPlan, Analysis)> {
    let physical = plan(logical, config)?;
    match verify(&physical, Some(catalog), &AnalyzeConfig::default()) {
        Ok(analysis) => Ok((physical, analysis)),
        Err(errors) => Err(TdbError::Plan(format!(
            "static analysis rejected the plan:\n{}",
            render_errors(&errors)
        ))),
    }
}

/// Verify a physical plan for live execution, substituting `live_stats`
/// (online λ/E[D] estimates, keyed by relation name) for the catalog's
/// stored statistics wherever present. Runs all the static proofs plus
/// the live-safety checks of [`AnalyzeConfig::live`].
pub fn verify_live(
    physical: &PhysicalPlan,
    catalog: Option<&Catalog>,
    live_stats: &BTreeMap<String, TemporalStats>,
    config: &AnalyzeConfig,
) -> Result<Analysis, Vec<AnalyzeError>> {
    let cfg = AnalyzeConfig {
        live: true,
        ..*config
    };
    let lowered = lower_plan_with_stats(physical, catalog, live_stats);
    let errors = verify_lowered(&lowered, &cfg);
    if errors.is_empty() {
        Ok(Analysis { lowered })
    } else {
        Err(errors)
    }
}

/// Plan `logical` for a *standing* (continuous) query: refuse any physical
/// plan the live verifier rejects — a subscription must prove its
/// workspace stays finite under the arrival rates in `live_stats` before
/// a single live tuple flows.
pub fn plan_verified_live(
    logical: &LogicalPlan,
    config: PlannerConfig,
    catalog: &Catalog,
    live_stats: &BTreeMap<String, TemporalStats>,
    analyze: &AnalyzeConfig,
) -> TdbResult<(PhysicalPlan, Analysis)> {
    let physical = plan(logical, config)?;
    let analysis = verified_live(&physical, catalog, live_stats, analyze)?;
    Ok((physical, analysis))
}

/// [`verify_live`] over `catalog`, with a rejection as a
/// [`TdbError::Plan`] — how a standing query re-proves its fixed plan at
/// every epoch.
pub fn verified_live(
    physical: &PhysicalPlan,
    catalog: &Catalog,
    live_stats: &BTreeMap<String, TemporalStats>,
    analyze: &AnalyzeConfig,
) -> TdbResult<Analysis> {
    verify_live(physical, Some(catalog), live_stats, analyze).map_err(|errors| {
        TdbError::Plan(format!(
            "live analysis rejected the standing query:\n{}",
            render_errors(&errors)
        ))
    })
}
