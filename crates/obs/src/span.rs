//! Hierarchical timed spans: where one query's wall-clock time went.
//!
//! The counters PR 5 shipped say *how much* work an operator did; they do
//! not say where the time went. A [`StageSpan`] records one timed stage
//! of a query's life — parse, plan, analyze, execute, one per operator,
//! sink, render, plus the out-of-query-path `wal_fsync` and `net_write`
//! stages — as a flattened tree: `depth` reconstructs the hierarchy
//! (execute ⊃ operator), `start_us` orders siblings. Every query carries
//! a `query_id` minted by the engine's [`QueryIdGen`], so the same id
//! names the trace on the server, the reply frame on the wire, and the
//! client's round-trip sample.
//!
//! [`StageTimers`] owns one fixed-bucket latency histogram per stage
//! (`tdb_stage_duration_us{stage="…"}`), registered once and updated with
//! one atomic op per observation — cheap enough to leave on.

use crate::metrics::{Histogram, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Latency bucket upper bounds for the per-stage histograms, in
/// microseconds. Spans from a sub-50µs parse to a 1s+ stall all land in a
/// distinguishable bucket.
pub const STAGE_BOUNDS: [u64; 11] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 1_000_000,
];

/// A stage of a query's life that gets its own timed span and latency
/// histogram series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage {
    /// Lexing + parsing the statement text.
    Parse,
    /// Logical lowering and conventional optimization.
    Plan,
    /// Static verification (sort orders, workspace caps).
    Analyze,
    /// The whole physical execution, parent of the operator spans.
    #[default]
    Execute,
    /// One stream operator's share of execution (child of `Execute`).
    Operator,
    /// Pushing result rows through the sink.
    Sink,
    /// Rendering the response (text or wire codec).
    Render,
    /// A WAL `sync_data` call on the durability path.
    WalFsync,
    /// Encoding + writing one reply frame on a connection's writer.
    NetWrite,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Parse,
        Stage::Plan,
        Stage::Analyze,
        Stage::Execute,
        Stage::Operator,
        Stage::Sink,
        Stage::Render,
        Stage::WalFsync,
        Stage::NetWrite,
    ];

    /// The stage's label value in `tdb_stage_duration_us{stage="…"}`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::Analyze => "analyze",
            Stage::Execute => "execute",
            Stage::Operator => "operator",
            Stage::Sink => "sink",
            Stage::Render => "render",
            Stage::WalFsync => "wal_fsync",
            Stage::NetWrite => "net_write",
        }
    }

    /// Parse a stage label back (the inverse of [`Stage::name`]).
    pub fn parse_name(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// One timed stage of one query, in a flattened span tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageSpan {
    /// Which stage this span times.
    pub stage: Stage,
    /// Start offset in microseconds from the query's own t=0.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub elapsed_us: u64,
    /// Nesting depth: 0 for top-level stages, 1 for children of
    /// `Execute` (the per-operator spans).
    pub depth: u32,
    /// Free-form detail — the operator name for `Operator` spans, empty
    /// otherwise.
    pub detail: String,
}

impl StageSpan {
    /// A top-level span.
    pub fn top(stage: Stage, start_us: u64, elapsed_us: u64) -> StageSpan {
        StageSpan {
            stage,
            start_us,
            elapsed_us,
            depth: 0,
            detail: String::new(),
        }
    }
}

/// Render a span tree as one JSON array (used by `\trace export`): the
/// flattened list with explicit `depth`, so consumers can rebuild the
/// hierarchy without a recursive schema.
pub fn spans_to_json(query_id: u64, label: &str, spans: &[StageSpan]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"query_id\":{query_id},\"label\":{},\"spans\":[",
        json_str(label)
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stage\":\"{}\",\"start_us\":{},\"elapsed_us\":{},\"depth\":{}",
            s.stage.name(),
            s.start_us,
            s.elapsed_us,
            s.depth
        );
        if !s.detail.is_empty() {
            let _ = write!(out, ",\"detail\":{}", json_str(&s.detail));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Mints monotonically increasing query ids, starting at 1 (0 means "no
/// query", e.g. on non-query reply frames).
#[derive(Debug, Default)]
pub struct QueryIdGen(AtomicU64);

impl QueryIdGen {
    /// A generator whose first id is 1.
    pub fn new() -> QueryIdGen {
        QueryIdGen::default()
    }

    /// Mint the next id.
    pub fn next_id(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// How many late stage samples [`StageTimers::observe_late`] retains.
const LATE_SPAN_CAP: usize = 64;

/// A stage sample observed for a query after the engine had already
/// returned its reply (a connection writer's socket write).
#[derive(Debug, Clone, Copy)]
struct LateSpan {
    query_id: u64,
    stage: Stage,
    began: Instant,
    elapsed_us: u64,
}

/// One latency histogram per [`Stage`], all series of the single
/// `tdb_stage_duration_us` family. Register once, observe from anywhere.
#[derive(Debug, Clone)]
pub struct StageTimers {
    timers: [Histogram; 9],
    /// The most recent late samples, shared by every clone, so a trace
    /// export can show the stages that ran after the trace was built.
    late: Arc<Mutex<VecDeque<LateSpan>>>,
}

impl StageTimers {
    /// Register the nine stage series in `reg` (idempotent: re-register
    /// returns handles onto the same cells).
    pub fn register(reg: &Registry) -> StageTimers {
        let h = |stage: Stage| {
            reg.histogram_with(
                "tdb_stage_duration_us",
                &[("stage", stage.name())],
                "Per-stage query latency in microseconds.",
                &STAGE_BOUNDS,
            )
        };
        StageTimers {
            timers: Stage::ALL.map(h),
            late: Arc::default(),
        }
    }

    /// Record one stage duration.
    pub fn observe(&self, stage: Stage, elapsed_us: u64) {
        self.timers[Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .unwrap_or_default()]
        .observe(elapsed_us);
    }

    /// Record one stage duration of query `query_id` that began at
    /// `began`, after the engine had returned the query's reply to its
    /// transport. Feeds the histogram like [`StageTimers::observe`] and
    /// keeps the sample (the last few only) for
    /// [`StageTimers::late_spans`].
    pub fn observe_late(&self, query_id: u64, stage: Stage, began: Instant, elapsed_us: u64) {
        self.observe(stage, elapsed_us);
        let mut late = self.late.lock();
        if late.len() == LATE_SPAN_CAP {
            late.pop_front();
        }
        late.push_back(LateSpan {
            query_id,
            stage,
            began,
            elapsed_us,
        });
    }

    /// The retained late samples of query `query_id` as top-level spans,
    /// offset from the query's own start `t0`.
    pub fn late_spans(&self, query_id: u64, t0: Instant) -> Vec<StageSpan> {
        self.late
            .lock()
            .iter()
            .filter(|s| s.query_id == query_id)
            .map(|s| {
                let start_us = s.began.saturating_duration_since(t0).as_micros() as u64;
                StageSpan::top(s.stage, start_us, s.elapsed_us)
            })
            .collect()
    }

    /// The histogram backing one stage (for quantile summaries).
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.timers[Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .unwrap_or_default()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse_name(s.name()), Some(s));
        }
        assert_eq!(Stage::parse_name("nope"), None);
    }

    #[test]
    fn query_ids_are_unique_and_nonzero() {
        let g = QueryIdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn stage_timers_feed_labeled_series() {
        let reg = Registry::new();
        let t = StageTimers::register(&reg);
        t.observe(Stage::Parse, 40);
        t.observe(Stage::Execute, 900);
        t.observe(Stage::Execute, 1_200);
        assert_eq!(t.histogram(Stage::Execute).count(), 2);
        let text = reg.render();
        assert!(
            text.contains("tdb_stage_duration_us_bucket{stage=\"parse\",le=\"50\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tdb_stage_duration_us_count{stage=\"execute\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn late_samples_are_kept_per_query_and_bounded() {
        let t = StageTimers::register(&Registry::new());
        let t0 = Instant::now();
        let writer = t.clone();
        writer.observe_late(7, Stage::NetWrite, t0, 30);
        writer.observe_late(8, Stage::NetWrite, t0, 40);
        assert_eq!(t.histogram(Stage::NetWrite).count(), 2);
        let spans = t.late_spans(7, t0);
        assert_eq!(spans, vec![StageSpan::top(Stage::NetWrite, 0, 30)]);
        for _ in 0..LATE_SPAN_CAP {
            writer.observe_late(9, Stage::NetWrite, t0, 1);
        }
        assert!(t.late_spans(7, t0).is_empty(), "oldest samples age out");
        assert_eq!(t.late_spans(9, t0).len(), LATE_SPAN_CAP);
    }

    #[test]
    fn span_tree_exports_as_json_with_depth() {
        let spans = vec![
            StageSpan::top(Stage::Parse, 0, 12),
            StageSpan::top(Stage::Execute, 30, 400),
            StageSpan {
                stage: Stage::Operator,
                start_us: 35,
                elapsed_us: 390,
                depth: 1,
                detail: "ContainJoin(TS\u{2191}/TE\u{2191})".into(),
            },
        ];
        let json = spans_to_json(7, "select \"x\"", &spans);
        assert!(json.starts_with("{\"query_id\":7,\"label\":\"select \\\"x\\\"\""));
        assert!(json.contains("\"stage\":\"operator\""), "{json}");
        assert!(json.contains("\"depth\":1"), "{json}");
        assert!(json.contains("ContainJoin"), "{json}");
    }
}
