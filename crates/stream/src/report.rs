//! The unified construction and instrumentation surface for stream
//! operators.
//!
//! * [`OpConfig`] holds the cross-cutting knobs — the [`ReadPolicy`] for
//!   two-sided sweeps, the [`OverlapMode`] for overlap operators and the
//!   batch size — that [`crate::dispatch`] builds every kernel from;
//! * [`OpReport`] is what every kernel reports: [`OpMetrics`] plus a single
//!   [`WorkspaceStats`] (two-state operators report the *stacked*
//!   combination, so `max_workspace()` is the peak of both states held at
//!   once).
//!
//! The executor, the experiments harness and the parallel partition driver
//! consume only this surface.

use crate::metrics::OpMetrics;
use crate::overlap_join::OverlapMode;
use crate::read_policy::ReadPolicy;
use crate::workspace::WorkspaceStats;
use std::fmt;

/// Everything an operator reports about one run: throughput counters plus
/// workspace statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpReport {
    /// Read/comparison/emit counters.
    pub metrics: OpMetrics,
    /// State-set statistics (stacked across a two-sided operator's states).
    pub workspace: WorkspaceStats,
}

impl OpReport {
    /// Bundle metrics and workspace stats.
    pub fn new(metrics: OpMetrics, workspace: WorkspaceStats) -> OpReport {
        OpReport { metrics, workspace }
    }

    /// Peak resident state tuples — the paper's workspace figure.
    pub fn max_workspace(&self) -> usize {
        self.workspace.max_resident
    }

    /// Aggregate the report of another instance of the *same* operator run
    /// over a disjoint partition in parallel: reads, comparisons and emits
    /// sum; workspace peaks take the max (each worker owns its state);
    /// passes take the max (the partitioned run is still one logical pass).
    pub fn combine_parallel(self, other: OpReport) -> OpReport {
        OpReport {
            metrics: OpMetrics {
                read_left: self.metrics.read_left + other.metrics.read_left,
                read_right: self.metrics.read_right + other.metrics.read_right,
                comparisons: self.metrics.comparisons + other.metrics.comparisons,
                emitted: self.metrics.emitted + other.metrics.emitted,
                passes: self.metrics.passes.max(other.metrics.passes),
            },
            workspace: self.workspace.combine_parallel(other.workspace),
        }
    }
}

impl fmt::Display for OpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; workspace {}", self.metrics, self.workspace)
    }
}

/// Builder for stream operators, holding the knobs shared across the
/// family; per-operator inputs are supplied to [`crate::dispatch`].
///
/// ```
/// use tdb_stream::{collect, run_join, OpConfig, ReadPolicy, StreamOpKind};
/// use tdb_core::TsTuple;
///
/// let xs = vec![TsTuple::interval(0, 10)?, TsTuple::interval(4, 6)?];
/// let ys = vec![TsTuple::interval(5, 6)?];
/// let cfg = OpConfig::new().with_policy(ReadPolicy::Alternate).with_batch_rows(64);
/// let (pairs, report) =
///     collect(|emit| run_join(StreamOpKind::ContainJoinTsTs, cfg, xs, ys, emit))?;
/// assert_eq!(pairs.len(), report.metrics.emitted);
/// # Ok::<(), tdb_core::TdbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpConfig {
    /// Which input a two-sided sweep advances when both buffers are full.
    pub policy: ReadPolicy,
    /// Which overlap predicate the overlap operators evaluate.
    pub mode: OverlapMode,
    /// Rows per columnar batch (≥ 1) when [`crate::dispatch`] or
    /// [`crate::partition`] feeds a kernel from materialized inputs.
    pub batch_rows: usize,
}

impl Default for OpConfig {
    fn default() -> OpConfig {
        OpConfig {
            policy: ReadPolicy::MinKey,
            mode: OverlapMode::General,
            batch_rows: crate::batch::DEFAULT_BATCH_ROWS,
        }
    }
}

impl OpConfig {
    /// The default configuration: `MinKey` policy, general overlap,
    /// batches of [`crate::batch::DEFAULT_BATCH_ROWS`] rows.
    pub fn new() -> OpConfig {
        OpConfig::default()
    }

    /// Set the read policy for two-sided sweeps.
    pub fn with_policy(mut self, policy: ReadPolicy) -> OpConfig {
        self.policy = policy;
        self
    }

    /// Set the overlap predicate mode.
    pub fn with_mode(mut self, mode: OverlapMode) -> OpConfig {
        self.mode = mode;
        self
    }

    /// Set the batch size; a size below 1 is floored to 1.
    pub fn with_batch_rows(mut self, batch_rows: usize) -> OpConfig {
        self.batch_rows = batch_rows.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{collect, run_join, run_semijoin};
    use crate::required::StreamOpKind;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn contain_ts_ts(xs: Vec<TsTuple>, ys: Vec<TsTuple>) -> (Vec<(TsTuple, TsTuple)>, OpReport) {
        let cfg = OpConfig::new();
        collect(|e| run_join(StreamOpKind::ContainJoinTsTs, cfg, xs, ys, e)).unwrap()
    }

    #[test]
    fn report_matches_legacy_accessors() {
        let xs = vec![iv(0, 10), iv(2, 8), iv(4, 6)];
        let ys = vec![iv(1, 3), iv(5, 6)];
        let (pairs, report) = contain_ts_ts(xs, ys);
        assert_eq!(report.max_workspace(), report.workspace.max_resident);
        assert_eq!(report.metrics.emitted, pairs.len());
        assert_eq!(report.metrics.emitted, 3);
    }

    #[test]
    fn overlap_config_controls_mode_and_policy() {
        let xs = vec![iv(0, 10)];
        let ys = vec![iv(3, 8)];
        let kind = StreamOpKind::OverlapJoin;
        // Containment matches general overlap but not strict Allen overlap.
        let cfg = OpConfig::new().with_mode(OverlapMode::Strict);
        let (out, _) = collect(|e| run_join(kind, cfg, xs.clone(), ys.clone(), e)).unwrap();
        assert!(out.is_empty());
        let cfg = cfg
            .with_mode(OverlapMode::General)
            .with_policy(ReadPolicy::Alternate);
        let (out, report) = collect(|e| run_join(kind, cfg, xs, ys, e)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(report.metrics.emitted, 1);
    }

    #[test]
    fn batch_rows_is_a_size_of_at_least_one() {
        assert_eq!(OpConfig::new().batch_rows, crate::batch::DEFAULT_BATCH_ROWS);
        assert_eq!(OpConfig::new().with_batch_rows(64).batch_rows, 64);
        assert_eq!(OpConfig::new().with_batch_rows(0).batch_rows, 1);
    }

    #[test]
    fn stab_semijoin_reports_zero_state() {
        let kind = StreamOpKind::ContainSemijoinStab;
        let (xs, ys) = (vec![iv(0, 10)], vec![iv(2, 5)]);
        let (out, report) = collect(|e| run_semijoin(kind, OpConfig::new(), xs, ys, e)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(report.max_workspace(), 0);
        assert_eq!(report.metrics.emitted, 1);
    }

    #[test]
    fn combine_parallel_sums_counters_and_maxes_workspace() {
        let a = contain_ts_ts(vec![iv(0, 10), iv(1, 9)], vec![iv(2, 3)]).1;
        let b = contain_ts_ts(vec![iv(20, 30)], vec![iv(21, 22)]).1;
        let c = a.combine_parallel(b);
        assert_eq!(c.metrics.emitted, a.metrics.emitted + b.metrics.emitted);
        assert_eq!(
            c.metrics.read_left,
            a.metrics.read_left + b.metrics.read_left
        );
        assert_eq!(
            c.workspace.max_resident,
            a.workspace.max_resident.max(b.workspace.max_resident)
        );
        assert_eq!(c.metrics.passes, 1);
    }
}
