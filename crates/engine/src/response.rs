//! The typed engine response surface.
//!
//! Every [`Engine`](crate::Engine) method answers with a [`Response`]: a
//! structured value — result rows, plan reports, analyzer verdicts, live
//! progress, errors as typed variants — that a *renderer* turns into a
//! transport's native representation. The CLI renders text
//! ([`crate::render`]); `tdb-net` encodes binary frames through the
//! [`Codec`](tdb::storage::Codec) impls in [`crate::codec`]. Nothing in
//! here is pre-formatted for a terminal: widths, truncation markers and
//! glyphs are the renderer's business.

use tdb::prelude::*;

pub use tdb_obs::{OpSpan, QueryTrace};

/// A structured reply from the engine, one per request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Informational text: command acknowledgements, help, usage hints.
    Info(String),
    /// The client asked to end the session (`\quit`).
    Goodbye,
    /// Relation listing with per-relation temporal statistics.
    Tables(Vec<TableInfo>),
    /// A query executed: rows plus optional plan/verifier reports.
    Query(QueryReport),
    /// A query whose rows travel *separately* as chunk frames: the report
    /// here is the header with `rows.rows` empty. A serving layer sends
    /// it when the first chunk is cut — while the query is still running,
    /// so only the id, plans, certificate and columns are set — and
    /// closes the stream with a [`QueryTrailer`] carrying what is only
    /// known at the end (`rows.total`, stats, elapsed time, trace).
    /// Clients fold the trailer in ([`QueryTrailer::fold_into`]) and
    /// hand back the completed report under this same variant.
    QueryStream(QueryReport),
    /// A query statically analyzed without executing.
    Analysis(AnalysisReport),
    /// A live-ingest batch was admitted.
    Ingest(IngestReport),
    /// A standing query registered.
    Subscribed(SubscribeReport),
    /// Live-subsystem status: watermarks, staging, subscriptions.
    Live(LiveStatus),
    /// A live stream was sealed.
    Sealed(SealReport),
    /// Superstar formulation comparison rows.
    Superstar(Vec<SuperstarRow>),
    /// Observability snapshot: counters, slow-query log, live and network
    /// telemetry (`\stats`).
    Stats(StatsReport),
    /// The request failed; see the typed error taxonomy.
    Error(ErrorInfo),
}

impl Response {
    /// Build an error response from a [`TdbError`].
    pub fn error(e: &TdbError) -> Response {
        Response::Error(ErrorInfo::from(e))
    }

    /// Drain the subscription deltas out of this response, leaving the
    /// rest intact. Serving layers use this to route each delta to the
    /// connection that owns the subscription (as a push frame) instead of
    /// echoing every delta back to whichever client triggered the epoch.
    pub fn take_deltas(&mut self) -> Vec<DeltaFrame> {
        match self {
            Response::Ingest(r) => std::mem::take(&mut r.deltas),
            Response::Sealed(r) => std::mem::take(&mut r.deltas),
            _ => Vec::new(),
        }
    }
}

/// One relation's catalog entry, as listed by `\tables`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    /// Relation name.
    pub name: String,
    /// Stored row count.
    pub rows: u64,
    /// Rendered schema (field names and types).
    pub schema: String,
    /// Arrival-rate estimate λ, if statistics were collected.
    pub lambda: Option<f64>,
    /// Mean tuple duration E[D].
    pub mean_duration: f64,
    /// Maximum observed interval concurrency.
    pub max_concurrency: u64,
}

/// Result rows with their column header, possibly truncated by the
/// requesting client's row limit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowSet {
    /// Qualified output column names.
    pub columns: Vec<String>,
    /// The rows delivered (at most the client's row limit).
    pub rows: Vec<Row>,
    /// Rows the producer offered to the result sink. Exact when the whole
    /// result was scanned; a lower bound when the row limit stopped the
    /// producer early (the sink short-circuits the scan rather than
    /// truncating a fully materialized result).
    pub total: u64,
}

/// Executor counters for one query run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Base-relation rows read.
    pub rows_scanned: u64,
    /// Predicate evaluations / comparisons across all operators.
    pub comparisons: u64,
    /// Maximum stream-operator workspace (state tuples) observed.
    pub max_workspace: u64,
    /// Explicit sorts performed.
    pub sorts_performed: u64,
}

/// The full report for an executed query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryReport {
    /// The engine-minted query id, carried on the wire so a client's
    /// round-trip sample, the server's trace, and the slow-query log all
    /// name the same execution.
    pub query_id: u64,
    /// Translated logical plan (present when explain is on).
    pub logical: Option<String>,
    /// Optimized logical plan (present when explain is on).
    pub optimized: Option<String>,
    /// Physical plan (present when explain is on).
    pub physical: Option<String>,
    /// Rendered static-analysis certificate (present when verify is on).
    pub certificate: Option<String>,
    /// Result rows (truncated to the client's row limit).
    pub rows: RowSet,
    /// Executor counters.
    pub stats: QueryStats,
    /// Wall-clock execution time in microseconds.
    pub elapsed_us: u64,
    /// Per-operator trace — observed workspace next to the analyzer's
    /// predicted cap and λ·E[D] — when the client enabled `\trace on`.
    pub trace: Option<QueryTrace>,
}

/// The end of a streamed query result: the [`QueryReport`] fields that
/// only exist once the last row has been produced. The header left
/// while the query was still running; this closes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrailer {
    /// [`RowSet::total`].
    pub total: u64,
    /// [`QueryReport::stats`].
    pub stats: QueryStats,
    /// [`QueryReport::elapsed_us`].
    pub elapsed_us: u64,
    /// [`QueryReport::trace`].
    pub trace: Option<QueryTrace>,
    /// Set when execution failed after rows had already left: the rows
    /// delivered so far are not a valid result.
    pub error: Option<ErrorInfo>,
}

impl QueryTrailer {
    /// The trailer of a finished report.
    pub fn of(report: QueryReport) -> QueryTrailer {
        QueryTrailer {
            total: report.rows.total,
            stats: report.stats,
            elapsed_us: report.elapsed_us,
            trace: report.trace,
            error: None,
        }
    }

    /// The trailer of a stream that broke off with `error`.
    pub fn failed(error: ErrorInfo) -> QueryTrailer {
        QueryTrailer {
            error: Some(error),
            ..QueryTrailer::default()
        }
    }

    /// Complete a stream header with this trailer; a broken stream's
    /// error comes back instead.
    pub fn fold_into(self, mut header: QueryReport) -> Response {
        if let Some(error) = self.error {
            return Response::Error(error);
        }
        header.rows.total = self.total;
        header.stats = self.stats;
        header.elapsed_us = self.elapsed_us;
        header.trace = self.trace;
        Response::QueryStream(header)
    }
}

/// One stream operator's verdict from the static verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct OpVerdict {
    /// Plan path of the operator occurrence.
    pub path: String,
    /// Operator name.
    pub operator: String,
    /// The Table 1/2/3 entry that admits it.
    pub table_entry: String,
    /// Expected workspace E[W] = λ·E[D], when statistics allow.
    pub workspace_expectation: Option<f64>,
    /// Sound workspace cap, when statistics allow.
    pub workspace_cap: Option<u64>,
}

/// The static-analysis report for a plan (from `\analyze`).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The physical plan the proofs ran over.
    pub physical: String,
    /// Per-operator verdicts.
    pub ops: Vec<OpVerdict>,
    /// The rendered certificate (what `\explain verify` prints).
    pub certificate: String,
}

/// One subscription's newly final rows, stamped with the epoch and
/// watermark frontier they were finalized at.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFrame {
    /// Owning subscription id.
    pub subscription: u64,
    /// The subscription's label (its query text, typically).
    pub label: String,
    /// Engine epoch that finalized these rows (strictly increasing), so
    /// clients can correlate deltas with progress counters instead of
    /// relying on frame arrival order.
    pub epoch: u64,
    /// Watermark frontier at finalization, `None` before any arrival.
    pub watermark: Option<TimePoint>,
    /// The newly final rows, in plan output order. Never truncated: push
    /// consumers need every row; display truncation is the renderer's.
    pub rows: Vec<Row>,
}

impl From<Delta> for DeltaFrame {
    fn from(d: Delta) -> DeltaFrame {
        DeltaFrame {
            subscription: d.subscription as u64,
            label: d.label,
            epoch: d.epoch,
            watermark: d.watermark,
            rows: d.rows,
        }
    }
}

/// The outcome of one live-ingest batch.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Target relation.
    pub relation: String,
    /// Arrivals offered in this batch.
    pub offered: u64,
    /// Rows promoted (final) this epoch, across relations.
    pub promoted: u64,
    /// Rows staged but not yet final for this relation.
    pub staged: u64,
    /// The relation's watermark after admission.
    pub watermark: Option<TimePoint>,
    /// Deltas finalized by this batch's epoch (all subscriptions).
    pub deltas: Vec<DeltaFrame>,
}

/// A standing query registered.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeReport {
    /// The new subscription's id.
    pub id: u64,
    /// Rendered live-analysis certificate (present when verify is on).
    pub certificate: Option<String>,
    /// Rows already final at registration time.
    pub initial: DeltaFrame,
}

/// A live stream sealed: every staged row promoted.
#[derive(Debug, Clone, PartialEq)]
pub struct SealReport {
    /// The sealed relation.
    pub relation: String,
    /// Rows promoted by the sealing epoch.
    pub promoted: u64,
    /// Deltas flushed by the sealing epoch (all subscriptions).
    pub deltas: Vec<DeltaFrame>,
}

/// One live relation's status line.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRelationStatus {
    /// Relation name.
    pub name: String,
    /// Rendered arrival sort order.
    pub order: String,
    /// Has the stream been sealed?
    pub sealed: bool,
    /// Current watermark, `None` before any arrival.
    pub watermark: Option<TimePoint>,
    /// Rows admitted into staging.
    pub admitted: u64,
    /// Rows staged but not yet final.
    pub staged: u64,
    /// Rows promoted into the catalog heap.
    pub promoted: u64,
    /// Current watermark lag in ticks.
    pub watermark_lag: u64,
    /// Producer stalls against the bounded ingest queue.
    pub stalls: u64,
}

/// One subscription's status line.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionStatus {
    /// Subscription id.
    pub id: u64,
    /// Registration label.
    pub label: String,
    /// Evaluations performed.
    pub evaluations: u64,
    /// Result rows emitted over the subscription's lifetime.
    pub emitted: u64,
    /// Peak runtime workspace across evaluations.
    pub workspace_peak: u64,
    /// Largest statically proven workspace cap across evaluations.
    pub workspace_cap: u64,
    /// Has the subscription been cancelled?
    pub cancelled: bool,
}

/// The live subsystem's status (`\live`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveStatus {
    /// Per-relation status, in name order.
    pub relations: Vec<LiveRelationStatus>,
    /// Per-subscription status, in id order.
    pub subscriptions: Vec<SubscriptionStatus>,
}

/// One Superstar formulation's measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstarRow {
    /// Formulation label.
    pub label: String,
    /// Wall-clock execution time in microseconds.
    pub elapsed_us: u64,
    /// Comparisons performed.
    pub comparisons: u64,
    /// Distinct superstars found.
    pub superstars: u64,
}

/// One live relation's telemetry line in a [`StatsReport`]: queue and
/// promotion gauges plus the EWMA drift of the online λ/E[D] estimates
/// against the plan-time catalog statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRelationMetrics {
    /// Relation name.
    pub relation: String,
    /// Raw rows waiting in the bounded ingest queue.
    pub queue_depth: u64,
    /// The ingest queue's bound.
    pub queue_capacity: u64,
    /// Rows staged but not yet watermark-final (row lag).
    pub staged: u64,
    /// Current watermark lag in ticks (wall lag).
    pub watermark_lag: u64,
    /// Non-empty promotion batches drained so far.
    pub promotion_batches: u64,
    /// Largest single promotion batch.
    pub max_promotion_batch: u64,
    /// Plan-time catalog arrival rate λ, if statistics were collected.
    pub lambda_static: Option<f64>,
    /// Live EWMA arrival-rate estimate, `None` before the first arrival.
    pub lambda_live: Option<f64>,
    /// Plan-time catalog mean duration E[D].
    pub duration_static: Option<f64>,
    /// Live EWMA mean-duration estimate.
    pub duration_live: Option<f64>,
}

/// One network connection's counters in a [`NetMetrics`] block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnMetrics {
    /// Server-assigned connection id.
    pub id: u64,
    /// Frames received from this client.
    pub frames_in: u64,
    /// Bytes received from this client.
    pub bytes_in: u64,
    /// Frames written to this client (replies and pushes).
    pub frames_out: u64,
    /// Bytes written to this client.
    pub bytes_out: u64,
    /// High-water mark of this connection's push queue.
    pub push_highwater: u64,
}

/// Network-layer telemetry, present when stats were requested over
/// `tdb-net` (a CLI-embedded engine has no network face and reports
/// `None`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetMetrics {
    /// Currently open connections.
    pub connections: u64,
    /// Frames received across all connections, living and retired.
    pub frames_in: u64,
    /// Bytes received across all connections.
    pub bytes_in: u64,
    /// Frames written across all connections.
    pub frames_out: u64,
    /// Bytes written across all connections.
    pub bytes_out: u64,
    /// Largest push-queue depth any connection ever reached.
    pub push_queue_highwater: u64,
    /// Connections dropped because their push queue overflowed.
    pub slow_subscriber_disconnects: u64,
    /// Per-connection counters for the connections still open, in id
    /// order.
    pub conns: Vec<ConnMetrics>,
}

/// One fsync that crossed the slow threshold, in a [`WalReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowFsyncInfo {
    /// Relation whose log was being synced.
    pub relation: String,
    /// How long the fsync took, in microseconds.
    pub micros: u64,
}

/// Durability telemetry, present when the engine runs with a
/// write-ahead log (`tdb serve --data-dir`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalReport {
    /// The flush policy in force (`per-record`, `group-commit`, `off`).
    pub flush_policy: String,
    /// WAL records appended since open.
    pub appends: u64,
    /// Commit (group-flush) calls.
    pub commits: u64,
    /// fsync/fdatasync calls.
    pub fsyncs: u64,
    /// Bytes written to log files.
    pub bytes_written: u64,
    /// Checkpoint compactions performed.
    pub checkpoints: u64,
    /// Torn log tails truncated during replay.
    pub torn_truncations: u64,
    /// Records replayed at the last open.
    pub replayed_records: u64,
    /// Bytes replayed at the last open.
    pub replay_bytes: u64,
    /// Wall-clock replay time at the last open, in microseconds.
    pub replay_us: u64,
    /// The most recent fsyncs that crossed the slow threshold.
    pub slow_fsyncs: Vec<SlowFsyncInfo>,
}

/// One pipeline stage's latency summary in a [`StatsReport`], estimated
/// from the engine's fixed-bucket stage histograms (quantiles report the
/// bucket upper bound containing the rank, so they are conservative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLatency {
    /// Stage name (`parse`, `plan`, `execute`, `wal_fsync`, …).
    pub stage: String,
    /// Observations recorded for this stage.
    pub count: u64,
    /// Estimated median latency in microseconds.
    pub p50_us: u64,
    /// Estimated 99th-percentile latency in microseconds.
    pub p99_us: u64,
}

/// One SLO objective's burn-rate snapshot in a [`StatsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name (`latency`, `errors`).
    pub objective: String,
    /// Required good ratio, e.g. 0.99.
    pub target: f64,
    /// Fast evaluation window in seconds.
    pub fast_window_s: u64,
    /// Slow evaluation window in seconds.
    pub slow_window_s: u64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// This objective's verdict (`ok` / `degraded` / `critical`).
    pub health: String,
}

/// The observability snapshot a `\stats` request returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Queries executed since the engine opened.
    pub queries: u64,
    /// Result rows produced across all queries.
    pub rows_returned: u64,
    /// Times an observed workspace peak exceeded its statically proven
    /// cap — every increment is a verifier bug worth surfacing.
    pub cap_exceeded: u64,
    /// The slow-query log's current threshold in microseconds.
    pub slow_threshold_us: u64,
    /// The N worst traces above the slow threshold, slowest first.
    pub slow: Vec<QueryTrace>,
    /// The most recent query's trace, regardless of speed.
    pub last: Option<QueryTrace>,
    /// Per-relation live telemetry, in name order.
    pub live: Vec<LiveRelationMetrics>,
    /// Network counters, when the engine is being served over `tdb-net`.
    pub net: Option<NetMetrics>,
    /// Durability counters, when the engine write-ahead logs.
    pub wal: Option<WalReport>,
    /// Per-stage latency summaries (stages with observations only), in
    /// pipeline order.
    pub stages: Vec<StageLatency>,
    /// Per-objective SLO burn-rate snapshots.
    pub slo: Vec<SloStatus>,
    /// The folded health verdict across all objectives (`ok` /
    /// `degraded` / `critical`) — what `/healthz` serves.
    pub health: String,
}

/// The wire-level error taxonomy: every [`TdbError`] variant maps to a
/// stable code so remote clients can dispatch without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// `ValidFrom >= ValidTo` in a period.
    InvalidPeriod = 1,
    /// A stream violated its declared sort order (late arrival).
    OrderViolation = 2,
    /// An operator was configured with an unsupported ordering.
    UnsupportedOrdering = 3,
    /// Storage I/O failure.
    Io = 4,
    /// Malformed serialized data.
    Corrupt = 5,
    /// Schema-level problem.
    Schema = 6,
    /// Catalog-level problem (unknown/duplicate relation).
    Catalog = 7,
    /// Query-text parse error.
    Parse = 8,
    /// Plan construction/verification failure.
    Plan = 9,
    /// Runtime evaluation failure.
    Eval = 10,
    /// Integrity-constraint violation.
    ConstraintViolation = 11,
    /// Buffer pool exhausted.
    BufferExhausted = 12,
    /// Wire-protocol violation (bad frame, unsupported version).
    Protocol = 13,
    /// The server is shutting down or dropped the session.
    Unavailable = 14,
    /// A client configuration setting was rejected (unknown `\set` key,
    /// unparsable value, or out-of-range value).
    Config = 15,
    /// A write-ahead log frame passed its CRC but failed to decode, or
    /// its replay contradicted the catalog — real corruption, distinct
    /// from the torn tails recovery truncates silently.
    WalCorrupt = 16,
}

impl ErrorCode {
    /// Decode a wire byte back into a code.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::InvalidPeriod,
            2 => ErrorCode::OrderViolation,
            3 => ErrorCode::UnsupportedOrdering,
            4 => ErrorCode::Io,
            5 => ErrorCode::Corrupt,
            6 => ErrorCode::Schema,
            7 => ErrorCode::Catalog,
            8 => ErrorCode::Parse,
            9 => ErrorCode::Plan,
            10 => ErrorCode::Eval,
            11 => ErrorCode::ConstraintViolation,
            12 => ErrorCode::BufferExhausted,
            13 => ErrorCode::Protocol,
            14 => ErrorCode::Unavailable,
            15 => ErrorCode::Config,
            16 => ErrorCode::WalCorrupt,
            _ => return None,
        })
    }
}

/// A typed error: a taxonomy code plus the rendered diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorInfo {
    /// Stable error class.
    pub code: ErrorCode,
    /// Human-readable diagnostic (the [`TdbError`] display text).
    pub message: String,
}

impl ErrorInfo {
    /// Build an error with an explicit code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorInfo {
        ErrorInfo {
            code,
            message: message.into(),
        }
    }
}

impl From<&TdbError> for ErrorInfo {
    fn from(e: &TdbError) -> ErrorInfo {
        let code = match e {
            TdbError::InvalidPeriod { .. } => ErrorCode::InvalidPeriod,
            TdbError::OrderViolation { .. } => ErrorCode::OrderViolation,
            TdbError::UnsupportedOrdering { .. } => ErrorCode::UnsupportedOrdering,
            TdbError::Io(_) => ErrorCode::Io,
            TdbError::Corrupt(_) => ErrorCode::Corrupt,
            TdbError::Schema(_) => ErrorCode::Schema,
            TdbError::Catalog(_) => ErrorCode::Catalog,
            TdbError::Parse { .. } => ErrorCode::Parse,
            TdbError::Plan(_) => ErrorCode::Plan,
            TdbError::Eval(_) => ErrorCode::Eval,
            TdbError::ConstraintViolation(_) => ErrorCode::ConstraintViolation,
            TdbError::BufferExhausted { .. } => ErrorCode::BufferExhausted,
            TdbError::Config(_) => ErrorCode::Config,
            TdbError::WalCorrupt { .. } => ErrorCode::WalCorrupt,
        };
        ErrorInfo::new(code, e.to_string())
    }
}
