//! Lowering physical plans to analyzer specs, with bottom-up sort-order
//! and statistics inference.
//!
//! [`infer_order`] propagates a [`StreamOrder`] (or `None`) up through
//! every [`PhysicalPlan`] node, mirroring what the executor actually
//! delivers: base scans expose the catalog's *known orders* ("interesting
//! orders"), filters preserve row order, joins destroy it, and stream
//! semijoins emit kept rows in their left entry order. The executor sorts
//! lazily inside stream nodes, so at each operator the lowering records
//! both the order that *will* hold at entry and whether establishing it
//! costs a sort — the certificate `tdb analyze` prints.

use crate::error::PlanPath;
use crate::spec::StreamOpSpec;
use std::collections::BTreeMap;
use tdb_algebra::cost::{predict_workspace, workspace_cap, workspace_kind};
use tdb_algebra::PhysicalPlan;
use tdb_core::{StreamOrder, TemporalStats};
use tdb_storage::Catalog;
use tdb_stream::StreamOpKind;

/// Everything the verifier needs from one plan: the stream operators, in
/// preorder.
#[derive(Debug, Clone, Default)]
pub struct Lowered {
    /// One spec per stream-temporal operator occurrence.
    pub ops: Vec<StreamOpSpec>,
}

/// What inference knows about a node's output.
#[derive(Debug, Clone, Default)]
struct NodeFacts {
    /// Sort order the output rows are known to satisfy.
    order: Option<StreamOrder>,
    /// Temporal statistics of the output, when a sound estimate exists
    /// (base relations, and nodes whose output is a subset of one input).
    stats: Option<TemporalStats>,
}

/// Infer the output [`StreamOrder`] of a plan node, consulting the
/// catalog's known orders for base scans when available.
pub fn infer_order(plan: &PhysicalPlan, catalog: Option<&Catalog>) -> Option<StreamOrder> {
    let overrides = BTreeMap::new();
    let mut lowered = Lowered::default();
    walk(plan, PlanPath::root(), catalog, &overrides, &mut lowered).order
}

/// Lower a plan to its analyzer specs.
pub fn lower_plan(plan: &PhysicalPlan, catalog: Option<&Catalog>) -> Lowered {
    lower_plan_with_stats(plan, catalog, &BTreeMap::new())
}

/// Lower a plan substituting per-relation statistics `overrides` for the
/// catalog's stored statistics at base scans.
///
/// Live plans use this to feed *online* arrival estimates (λ and E[D]
/// tracked by EWMA over the live stream) into the workspace proofs, so a
/// continuous query is verified against the traffic it actually faces
/// rather than the statistics frozen at load time.
pub fn lower_plan_with_stats(
    plan: &PhysicalPlan,
    catalog: Option<&Catalog>,
    overrides: &BTreeMap<String, TemporalStats>,
) -> Lowered {
    let mut lowered = Lowered::default();
    walk(plan, PlanPath::root(), catalog, overrides, &mut lowered);
    lowered
}

/// The entry order a stream input will have: the child's inferred order
/// if it already satisfies the requirement (sort elided), otherwise the
/// required order itself (the executor sorts). Returns the effective
/// order and whether a sort is inserted.
fn entry(child: Option<StreamOrder>, required: Option<StreamOrder>) -> (Option<StreamOrder>, bool) {
    match required {
        None => (child, false),
        Some(r) => match child {
            Some(o) if o.satisfies(&r) => (Some(o), false),
            _ => (Some(r), true),
        },
    }
}

/// Push the spec for one stream join/semijoin node and return its output
/// facts.
fn lower_stream_op(
    kind: StreamOpKind,
    swap: bool,
    join: bool,
    left: NodeFacts,
    right: NodeFacts,
    path: PlanPath,
    out: &mut Lowered,
) -> NodeFacts {
    let req = kind.requirement();
    // Operand order after the executor's side normalization (During and
    // After run their mirror operator with sides exchanged).
    let (x, y) = if swap { (right, left) } else { (left, right) };
    let (x_order, x_sort) = entry(x.order, req.left());
    let (y_order, y_sort) = entry(y.order, req.right());
    let (expectation, cap) = match (&x.stats, &y.stats) {
        (Some(xs), Some(ys)) => (
            Some(predict_workspace(workspace_kind(kind), xs, Some(ys))),
            Some(workspace_cap(kind, xs, Some(ys))),
        ),
        _ => (None, None),
    };
    out.ops.push(StreamOpSpec {
        kind,
        inputs: vec![x_order, y_order],
        sorts_inserted: vec![x_sort, y_sort],
        path,
        workspace_expectation: expectation,
        workspace_cap: cap,
    });
    if join {
        // Join outputs are pair streams in no useful temporal order, and
        // their statistics are not a subset of either input.
        NodeFacts::default()
    } else {
        // Semijoins emit kept left rows in the left entry order; the
        // output is a subset of the left input, so its stats are a sound
        // upper bound. Before/After semijoins stream unsorted.
        let order = if req.left().is_some() { x_order } else { None };
        NodeFacts {
            order,
            stats: if swap { y.stats } else { x.stats },
        }
    }
}

fn walk(
    plan: &PhysicalPlan,
    path: PlanPath,
    catalog: Option<&Catalog>,
    overrides: &BTreeMap<String, TemporalStats>,
    out: &mut Lowered,
) -> NodeFacts {
    match plan {
        PhysicalPlan::SeqScan { relation, .. } => {
            let meta = catalog.and_then(|c| c.meta(relation).ok());
            NodeFacts {
                order: meta.as_ref().and_then(|m| m.known_orders.first().copied()),
                stats: overrides
                    .get(relation)
                    .cloned()
                    .or_else(|| meta.map(|m| m.stats.clone())),
            }
        }
        // A filter passes rows through in order; its output is a subset of
        // its input, so the input's statistics stay a sound upper bound.
        PhysicalPlan::Filter { input, .. } => {
            walk(input, path.child("input"), catalog, overrides, out)
        }
        // Projection may drop the timestamp columns the order speaks
        // about; be conservative.
        PhysicalPlan::Project { input, .. } => {
            walk(input, path.child("input"), catalog, overrides, out);
            NodeFacts::default()
        }
        PhysicalPlan::Product { left, right } | PhysicalPlan::NestedLoop { left, right, .. } => {
            walk(left, path.child("left"), catalog, overrides, out);
            walk(right, path.child("right"), catalog, overrides, out);
            NodeFacts::default()
        }
        // Merge joins order by the equi-key, not by time.
        PhysicalPlan::MergeEqui { left, right, .. } => {
            walk(left, path.child("left"), catalog, overrides, out);
            walk(right, path.child("right"), catalog, overrides, out);
            NodeFacts::default()
        }
        PhysicalPlan::MergeSemijoin { left, right, .. }
        | PhysicalPlan::NestedSemijoin { left, right, .. } => {
            let l = walk(left, path.child("left"), catalog, overrides, out);
            walk(right, path.child("right"), catalog, overrides, out);
            // Output ⊆ left input, but rows may be reordered by the merge.
            NodeFacts {
                order: None,
                stats: l.stats,
            }
        }
        PhysicalPlan::StreamTemporal {
            left,
            right,
            pattern,
            ..
        } => {
            let l = walk(left, path.child("left"), catalog, overrides, out);
            let r = walk(right, path.child("right"), catalog, overrides, out);
            let (kind, swap) = pattern.join_op();
            lower_stream_op(kind, swap, true, l, r, path, out)
        }
        PhysicalPlan::StreamSemijoin {
            left,
            right,
            pattern,
            ..
        } => {
            let l = walk(left, path.child("left"), catalog, overrides, out);
            let r = walk(right, path.child("right"), catalog, overrides, out);
            // A semijoin no kernel evaluates is refused when it runs.
            let Some((kind, swap)) = pattern.semijoin_op() else {
                return NodeFacts::default();
            };
            lower_stream_op(kind, swap, false, l, r, path, out)
        }
        PhysicalPlan::SelfSemijoin {
            input, contained, ..
        } => {
            let i = walk(input, path.child("input"), catalog, overrides, out);
            let kind = if *contained {
                StreamOpKind::ContainedSelfSemijoin
            } else {
                StreamOpKind::ContainSelfSemijoin
            };
            let req = kind.requirement();
            let (order, sort) = entry(i.order, req.left());
            let (expectation, cap) = match &i.stats {
                Some(s) => (
                    Some(predict_workspace(workspace_kind(kind), s, None)),
                    Some(workspace_cap(kind, s, None)),
                ),
                None => (None, None),
            };
            out.ops.push(StreamOpSpec {
                kind,
                inputs: vec![order],
                sorts_inserted: vec![sort],
                path,
                workspace_expectation: expectation,
                workspace_cap: cap,
            });
            NodeFacts {
                order,
                stats: i.stats,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_algebra::{Atom, CompOp, TemporalPattern};

    fn scan(var: &str) -> PhysicalPlan {
        PhysicalPlan::SeqScan {
            relation: "Faculty".into(),
            var: var.into(),
        }
    }

    fn stream_contains(l: &str, r: &str) -> PhysicalPlan {
        PhysicalPlan::StreamTemporal {
            left: Box::new(scan(l)),
            right: Box::new(scan(r)),
            left_var: l.into(),
            right_var: r.into(),
            pattern: TemporalPattern::Contains,
            residual: vec![],
        }
    }

    #[test]
    fn lowering_finds_stream_ops_with_paths() {
        let plan = PhysicalPlan::Filter {
            input: Box::new(stream_contains("f1", "f2")),
            atoms: vec![Atom::col_const("f1", "Rank", CompOp::Eq, "Full")],
        };
        let lowered = lower_plan(&plan, None);
        assert_eq!(lowered.ops.len(), 1);
        let op = &lowered.ops[0];
        assert_eq!(op.kind, StreamOpKind::ContainJoinTsTe);
        assert_eq!(op.path.to_string(), "plan.input");
        // No catalog: children declare no order, the executor sorts both
        // sides to the Table 1 (b) entry.
        assert_eq!(
            op.inputs,
            vec![Some(StreamOrder::TS_ASC), Some(StreamOrder::TE_ASC)]
        );
        assert_eq!(op.sorts_inserted, vec![true, true]);
    }

    #[test]
    fn during_swaps_sides_before_lowering() {
        let plan = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
            residual: vec![],
        };
        let lowered = lower_plan(&plan, None);
        // Normalized to Contain-join: X (container, the right child) gets
        // TS ↑, Y (containee) TE ↑ — same registry entry as Contains.
        assert_eq!(lowered.ops[0].kind, StreamOpKind::ContainJoinTsTe);
        assert_eq!(
            lowered.ops[0].inputs,
            vec![Some(StreamOrder::TS_ASC), Some(StreamOrder::TE_ASC)]
        );
    }

    #[test]
    fn infer_order_none_without_catalog() {
        assert_eq!(infer_order(&scan("f"), None), None);
        // Stream semijoin output order is its left entry order.
        let sj = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        assert_eq!(infer_order(&sj, None), Some(StreamOrder::TE_ASC));
    }
}
