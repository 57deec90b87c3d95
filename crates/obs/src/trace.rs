//! Structured query traces: predicted-vs-observed workspace telemetry.
//!
//! A [`QueryTrace`] is produced per executed query; each [`OpSpan`] pairs
//! one stream operator's *observed* run (rows in/out, comparisons, GC
//! evictions, workspace peak/mean/occupancy histogram) with the static
//! analyzer's *predictions* for the same operator occurrence — the proven
//! `workspace_cap` and the paper's λ·E\[D\] expectation. `observed > proven`
//! is not a performance anomaly but a verifier bug, surfaced by
//! [`OpSpan::cap_exceeded`] and counted by the engine's
//! `tdb_cap_exceeded_total` metric.

/// Workspace occupancy histogram bucket upper bounds (inclusive). The
/// ninth, implicit `+Inf` bucket catches everything larger. Mirrors the
/// fixed buckets `tdb-stream` workspaces record into.
pub const OCCUPANCY_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 64, 256, 1024];

/// One stream operator's span inside a query trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpSpan {
    /// Operator name (the stream-operator registry entry, e.g.
    /// `ContainJoin(TS↑/TE↑)`), or the executor node name for
    /// instrumented non-temporal operators.
    pub operator: String,
    /// Tuples read from both inputs.
    pub rows_in: u64,
    /// Tuples (or pairs) emitted.
    pub rows_out: u64,
    /// Predicate evaluations performed.
    pub comparisons: u64,
    /// Tuples evicted from the workspace by garbage collection.
    pub evicted: u64,
    /// Peak resident workspace tuples — the paper's workspace figure.
    pub workspace_peak: u64,
    /// Mean resident workspace tuples over the insertion samples.
    pub workspace_mean: f64,
    /// Occupancy histogram counts, one per [`OCCUPANCY_BOUNDS`] bucket
    /// plus the `+Inf` overflow bucket.
    pub occupancy: Vec<u64>,
    /// The analyzer's proven workspace cap for this operator occurrence,
    /// when statistics were available at plan time.
    pub predicted_cap: Option<u64>,
    /// The analyzer's λ·E\[D\] workspace expectation.
    pub predicted_expectation: Option<f64>,
}

impl OpSpan {
    /// Did the observed workspace peak exceed the proven cap? Always
    /// `false` when no cap was proven.
    pub fn cap_exceeded(&self) -> bool {
        self.predicted_cap
            .is_some_and(|cap| self.workspace_peak > cap)
    }
}

/// The trace of one executed query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// The engine-minted query id; correlates this trace with the reply
    /// frame on the wire and the client's round-trip sample. 0 for
    /// traces predating span support.
    pub query_id: u64,
    /// The query text (or a label for internally-generated evaluations).
    pub label: String,
    /// Wall-clock execution time in microseconds.
    pub elapsed_us: u64,
    /// Result rows offered to the result sink (before any client-side
    /// truncation; a lower bound when the sink stopped the producer early).
    pub rows: u64,
    /// Heap pages the query read.
    pub pages_read: u64,
    /// Rows the sink retained and delivered (`≤ rows` when a limit
    /// dropped rows or stopped the producer).
    pub sink_rows: u64,
    /// Approximate bytes of the rows that flowed through the sink.
    pub sink_bytes: u64,
    /// One span per instrumented operator, in execution (bottom-up) order.
    pub spans: Vec<OpSpan>,
    /// The timed span tree: where the wall-clock time went, stage by
    /// stage (parse/plan/analyze/execute/per-operator/sink/render).
    pub stages: Vec<crate::span::StageSpan>,
}

impl QueryTrace {
    /// Did any span observe a workspace peak above its proven cap?
    pub fn cap_exceeded(&self) -> bool {
        self.spans.iter().any(OpSpan::cap_exceeded)
    }
}

/// A bounded log retaining the N worst [`QueryTrace`]s at or above a
/// configurable latency threshold, ordered slowest first.
#[derive(Debug, Clone)]
pub struct SlowQueryLog {
    threshold_us: u64,
    cap: usize,
    worst: Vec<QueryTrace>,
}

impl SlowQueryLog {
    /// A log retaining up to `cap` traces that took `threshold_us` or
    /// longer.
    pub fn new(threshold_us: u64, cap: usize) -> SlowQueryLog {
        SlowQueryLog {
            threshold_us,
            cap,
            worst: Vec::new(),
        }
    }

    /// The current latency threshold in microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Change the latency threshold; already-retained traces stay.
    pub fn set_threshold_us(&mut self, threshold_us: u64) {
        self.threshold_us = threshold_us;
    }

    /// Offer a trace. Returns `true` when the trace was retained (it met
    /// the threshold and ranked among the worst `cap`).
    pub fn observe(&mut self, trace: &QueryTrace) -> bool {
        if trace.elapsed_us < self.threshold_us {
            return false;
        }
        let at = self
            .worst
            .partition_point(|t| t.elapsed_us >= trace.elapsed_us);
        if at >= self.cap {
            return false;
        }
        self.worst.insert(at, trace.clone());
        self.worst.truncate(self.cap);
        true
    }

    /// The retained traces, slowest first.
    pub fn worst(&self) -> &[QueryTrace] {
        &self.worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(label: &str, elapsed_us: u64) -> QueryTrace {
        QueryTrace {
            label: label.into(),
            elapsed_us,
            ..QueryTrace::default()
        }
    }

    #[test]
    fn cap_exceeded_needs_a_proven_cap() {
        let mut span = OpSpan {
            workspace_peak: 9,
            ..OpSpan::default()
        };
        assert!(!span.cap_exceeded());
        span.predicted_cap = Some(9);
        assert!(!span.cap_exceeded());
        span.predicted_cap = Some(8);
        assert!(span.cap_exceeded());
        let qt = QueryTrace {
            spans: vec![span],
            ..QueryTrace::default()
        };
        assert!(qt.cap_exceeded());
    }

    #[test]
    fn slow_log_keeps_the_n_worst_over_threshold() {
        let mut log = SlowQueryLog::new(100, 2);
        assert!(!log.observe(&trace("fast", 99)));
        assert!(log.observe(&trace("a", 300)));
        assert!(log.observe(&trace("b", 500)));
        assert!(log.observe(&trace("c", 400)));
        assert!(!log.observe(&trace("d", 150)));
        let labels: Vec<&str> = log.worst().iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, vec!["b", "c"]);
        log.set_threshold_us(600);
        assert!(!log.observe(&trace("e", 599)));
        assert_eq!(log.threshold_us(), 600);
    }
}
