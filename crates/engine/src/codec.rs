//! Binary encoding of [`Response`] values — the wire face of the engine.
//!
//! Implements [`Codec`] (the `tdb-storage` byte-format trait) for every
//! response type, following the storage conventions: little-endian
//! integers, `u32` length prefixes, one leading tag byte per enum, and
//! defensive decoding that returns [`TdbError::Corrupt`] on truncated or
//! malformed input, never panics. Rows and values reuse the storage
//! codecs directly, so a result row is encoded identically in a heap
//! page and in a network frame.

use crate::response::{
    AnalysisReport, ConnMetrics, DeltaFrame, ErrorCode, ErrorInfo, IngestReport,
    LiveRelationMetrics, LiveRelationStatus, LiveStatus, NetMetrics, OpSpan, OpVerdict,
    QueryReport, QueryStats, QueryTrace, QueryTrailer, Response, RowSet, SealReport, SloStatus,
    SlowFsyncInfo, StageLatency, StatsReport, SubscribeReport, SubscriptionStatus, SuperstarRow,
    TableInfo, WalReport,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tdb::core::{TdbError, TdbResult, TimePoint};
use tdb::prelude::Row;
use tdb::storage::codec::decode_str;
use tdb::storage::Codec;
use tdb_obs::{Stage, StageSpan};

fn need(buf: &Bytes, n: usize, what: &str) -> TdbResult<()> {
    if buf.remaining() < n {
        Err(TdbError::Corrupt(format!(
            "truncated {what}: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> TdbResult<String> {
    decode_str(buf, str::to_owned)
}

fn put_u64(buf: &mut BytesMut, v: u64) {
    buf.put_u64_le(v);
}

fn get_u64(buf: &mut Bytes) -> TdbResult<u64> {
    need(buf, 8, "u64")?;
    Ok(buf.get_u64_le())
}

fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(u8::from(v));
}

fn get_bool(buf: &mut Bytes) -> TdbResult<bool> {
    need(buf, 1, "bool")?;
    Ok(buf.get_u8() != 0)
}

fn put_opt<T>(buf: &mut BytesMut, v: Option<&T>, f: impl FnOnce(&mut BytesMut, &T)) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            f(buf, v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt<T>(buf: &mut Bytes, f: impl FnOnce(&mut Bytes) -> TdbResult<T>) -> TdbResult<Option<T>> {
    need(buf, 1, "option tag")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => f(buf).map(Some),
        t => Err(TdbError::Corrupt(format!("bad option tag {t}"))),
    }
}

fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_u64_le(v.to_bits());
}

fn get_f64(buf: &mut Bytes) -> TdbResult<f64> {
    need(buf, 8, "f64")?;
    Ok(f64::from_bits(buf.get_u64_le()))
}

fn put_time(buf: &mut BytesMut, t: TimePoint) {
    buf.put_i64_le(t.ticks());
}

fn get_time(buf: &mut Bytes) -> TdbResult<TimePoint> {
    need(buf, 8, "time point")?;
    Ok(TimePoint::new(buf.get_i64_le()))
}

fn put_vec<T: Codec>(buf: &mut BytesMut, v: &[T]) {
    buf.put_u32_le(v.len() as u32);
    for item in v {
        item.encode(buf);
    }
}

fn get_vec<T: Codec>(buf: &mut Bytes) -> TdbResult<Vec<T>> {
    need(buf, 4, "vec length")?;
    let n = buf.get_u32_le() as usize;
    // Capacity is clamped so a corrupt length cannot force a huge
    // allocation before per-item decoding fails on truncation.
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(T::decode(buf)?);
    }
    Ok(out)
}

fn put_strs(buf: &mut BytesMut, v: &[String]) {
    buf.put_u32_le(v.len() as u32);
    for s in v {
        put_str(buf, s);
    }
}

fn get_strs(buf: &mut Bytes) -> TdbResult<Vec<String>> {
    need(buf, 4, "vec length")?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_str(buf)?);
    }
    Ok(out)
}

const TAG_INFO: u8 = 0;
const TAG_GOODBYE: u8 = 1;
const TAG_TABLES: u8 = 2;
const TAG_QUERY: u8 = 3;
const TAG_ANALYSIS: u8 = 4;
const TAG_INGEST: u8 = 5;
const TAG_SUBSCRIBED: u8 = 6;
const TAG_LIVE: u8 = 7;
const TAG_SEALED: u8 = 8;
const TAG_SUPERSTAR: u8 = 9;
const TAG_ERROR: u8 = 10;
const TAG_STATS: u8 = 11;
const TAG_QUERY_STREAM: u8 = 12;

// `OpSpan` and `QueryTrace` live in `tdb-obs`, which knows nothing of the
// storage `Codec` trait; the orphan rule keeps the impls out of here too,
// so traces go through these free functions instead.

fn put_span(buf: &mut BytesMut, s: &OpSpan) {
    put_str(buf, &s.operator);
    put_u64(buf, s.partitions);
    put_u64(buf, s.rows_in);
    put_u64(buf, s.rows_out);
    put_u64(buf, s.comparisons);
    put_u64(buf, s.evicted);
    put_u64(buf, s.workspace_peak);
    put_f64(buf, s.workspace_mean);
    buf.put_u32_le(s.occupancy.len() as u32);
    for &c in &s.occupancy {
        put_u64(buf, c);
    }
    put_opt(buf, s.predicted_cap.as_ref(), |b, v| put_u64(b, *v));
    put_opt(buf, s.predicted_expectation.as_ref(), |b, v| put_f64(b, *v));
}

fn get_span(buf: &mut Bytes) -> TdbResult<OpSpan> {
    let operator = get_str(buf)?;
    let partitions = get_u64(buf)?;
    let rows_in = get_u64(buf)?;
    let rows_out = get_u64(buf)?;
    let comparisons = get_u64(buf)?;
    let evicted = get_u64(buf)?;
    let workspace_peak = get_u64(buf)?;
    let workspace_mean = get_f64(buf)?;
    need(buf, 4, "occupancy length")?;
    let n = buf.get_u32_le() as usize;
    let mut occupancy = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        occupancy.push(get_u64(buf)?);
    }
    Ok(OpSpan {
        operator,
        partitions,
        rows_in,
        rows_out,
        comparisons,
        evicted,
        workspace_peak,
        workspace_mean,
        occupancy,
        predicted_cap: get_opt(buf, get_u64)?,
        predicted_expectation: get_opt(buf, get_f64)?,
    })
}

// Stage spans travel by stage *name* rather than a numeric discriminant,
// so a frame stays decodable even if the stage set is reordered later.

fn put_stage_span(buf: &mut BytesMut, s: &StageSpan) {
    put_str(buf, s.stage.name());
    put_u64(buf, s.start_us);
    put_u64(buf, s.elapsed_us);
    buf.put_u32_le(s.depth);
    put_str(buf, &s.detail);
}

fn get_stage_span(buf: &mut Bytes) -> TdbResult<StageSpan> {
    let name = get_str(buf)?;
    let stage = Stage::parse_name(&name)
        .ok_or_else(|| TdbError::Corrupt(format!("unknown stage name {name:?}")))?;
    let start_us = get_u64(buf)?;
    let elapsed_us = get_u64(buf)?;
    need(buf, 4, "stage depth")?;
    let depth = buf.get_u32_le();
    let detail = get_str(buf)?;
    Ok(StageSpan {
        stage,
        start_us,
        elapsed_us,
        depth,
        detail,
    })
}

/// Encode one [`QueryTrace`] with the storage conventions.
pub fn put_trace(buf: &mut BytesMut, t: &QueryTrace) {
    put_u64(buf, t.query_id);
    put_str(buf, &t.label);
    put_u64(buf, t.elapsed_us);
    put_u64(buf, t.rows);
    put_u64(buf, t.sink_rows);
    put_u64(buf, t.sink_bytes);
    buf.put_u32_le(t.spans.len() as u32);
    for s in &t.spans {
        put_span(buf, s);
    }
    buf.put_u32_le(t.stages.len() as u32);
    for s in &t.stages {
        put_stage_span(buf, s);
    }
}

/// Decode one [`QueryTrace`]; truncated input yields [`TdbError::Corrupt`].
pub fn get_trace(buf: &mut Bytes) -> TdbResult<QueryTrace> {
    let query_id = get_u64(buf)?;
    let label = get_str(buf)?;
    let elapsed_us = get_u64(buf)?;
    let rows = get_u64(buf)?;
    let sink_rows = get_u64(buf)?;
    let sink_bytes = get_u64(buf)?;
    need(buf, 4, "span count")?;
    let n = buf.get_u32_le() as usize;
    let mut spans = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        spans.push(get_span(buf)?);
    }
    need(buf, 4, "stage span count")?;
    let n = buf.get_u32_le() as usize;
    let mut stages = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        stages.push(get_stage_span(buf)?);
    }
    Ok(QueryTrace {
        query_id,
        label,
        elapsed_us,
        rows,
        sink_rows,
        sink_bytes,
        spans,
        stages,
    })
}

fn put_traces(buf: &mut BytesMut, v: &[QueryTrace]) {
    buf.put_u32_le(v.len() as u32);
    for t in v {
        put_trace(buf, t);
    }
}

fn get_traces(buf: &mut Bytes) -> TdbResult<Vec<QueryTrace>> {
    need(buf, 4, "trace count")?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_trace(buf)?);
    }
    Ok(out)
}

impl Codec for Response {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Response::Info(s) => {
                buf.put_u8(TAG_INFO);
                put_str(buf, s);
            }
            Response::Goodbye => buf.put_u8(TAG_GOODBYE),
            Response::Tables(t) => {
                buf.put_u8(TAG_TABLES);
                put_vec(buf, t);
            }
            Response::Query(q) => {
                buf.put_u8(TAG_QUERY);
                q.encode(buf);
            }
            Response::QueryStream(q) => {
                buf.put_u8(TAG_QUERY_STREAM);
                q.encode(buf);
            }
            Response::Analysis(a) => {
                buf.put_u8(TAG_ANALYSIS);
                a.encode(buf);
            }
            Response::Ingest(r) => {
                buf.put_u8(TAG_INGEST);
                r.encode(buf);
            }
            Response::Subscribed(r) => {
                buf.put_u8(TAG_SUBSCRIBED);
                r.encode(buf);
            }
            Response::Live(s) => {
                buf.put_u8(TAG_LIVE);
                s.encode(buf);
            }
            Response::Sealed(r) => {
                buf.put_u8(TAG_SEALED);
                r.encode(buf);
            }
            Response::Superstar(rows) => {
                buf.put_u8(TAG_SUPERSTAR);
                put_vec(buf, rows);
            }
            Response::Stats(s) => {
                buf.put_u8(TAG_STATS);
                s.encode(buf);
            }
            Response::Error(e) => {
                buf.put_u8(TAG_ERROR);
                e.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> TdbResult<Response> {
        need(buf, 1, "response tag")?;
        match buf.get_u8() {
            TAG_INFO => Ok(Response::Info(get_str(buf)?)),
            TAG_GOODBYE => Ok(Response::Goodbye),
            TAG_TABLES => Ok(Response::Tables(get_vec(buf)?)),
            TAG_QUERY => Ok(Response::Query(QueryReport::decode(buf)?)),
            TAG_QUERY_STREAM => Ok(Response::QueryStream(QueryReport::decode(buf)?)),
            TAG_ANALYSIS => Ok(Response::Analysis(AnalysisReport::decode(buf)?)),
            TAG_INGEST => Ok(Response::Ingest(IngestReport::decode(buf)?)),
            TAG_SUBSCRIBED => Ok(Response::Subscribed(SubscribeReport::decode(buf)?)),
            TAG_LIVE => Ok(Response::Live(LiveStatus::decode(buf)?)),
            TAG_SEALED => Ok(Response::Sealed(SealReport::decode(buf)?)),
            TAG_SUPERSTAR => Ok(Response::Superstar(get_vec(buf)?)),
            TAG_STATS => Ok(Response::Stats(StatsReport::decode(buf)?)),
            TAG_ERROR => Ok(Response::Error(ErrorInfo::decode(buf)?)),
            t => Err(TdbError::Corrupt(format!("unknown response tag {t}"))),
        }
    }
}

impl Codec for TableInfo {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.name);
        put_u64(buf, self.rows);
        put_str(buf, &self.schema);
        put_opt(buf, self.lambda.as_ref(), |b, v| put_f64(b, *v));
        put_f64(buf, self.mean_duration);
        put_u64(buf, self.max_concurrency);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<TableInfo> {
        Ok(TableInfo {
            name: get_str(buf)?,
            rows: get_u64(buf)?,
            schema: get_str(buf)?,
            lambda: get_opt(buf, get_f64)?,
            mean_duration: get_f64(buf)?,
            max_concurrency: get_u64(buf)?,
        })
    }
}

impl RowSet {
    /// The encoding, with the row vector (`u32` count, then the rows)
    /// written by `put_rows`.
    fn encode_with(&self, buf: &mut BytesMut, put_rows: impl FnOnce(&mut BytesMut)) {
        put_strs(buf, &self.columns);
        put_rows(buf);
        put_u64(buf, self.total);
    }
}

impl Codec for RowSet {
    fn encode(&self, buf: &mut BytesMut) {
        self.encode_with(buf, |b| put_vec::<Row>(b, &self.rows));
    }

    fn decode(buf: &mut Bytes) -> TdbResult<RowSet> {
        Ok(RowSet {
            columns: get_strs(buf)?,
            rows: get_vec(buf)?,
            total: get_u64(buf)?,
        })
    }
}

impl Codec for QueryStats {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.rows_scanned);
        put_u64(buf, self.comparisons);
        put_u64(buf, self.max_workspace);
        put_u64(buf, self.sorts_performed);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<QueryStats> {
        Ok(QueryStats {
            rows_scanned: get_u64(buf)?,
            comparisons: get_u64(buf)?,
            max_workspace: get_u64(buf)?,
            sorts_performed: get_u64(buf)?,
        })
    }
}

impl QueryReport {
    fn encode_with(&self, buf: &mut BytesMut, put_rows: impl FnOnce(&mut BytesMut)) {
        put_u64(buf, self.query_id);
        put_opt(buf, self.logical.as_ref(), |b, s| put_str(b, s));
        put_opt(buf, self.optimized.as_ref(), |b, s| put_str(b, s));
        put_opt(buf, self.physical.as_ref(), |b, s| put_str(b, s));
        put_opt(buf, self.certificate.as_ref(), |b, s| put_str(b, s));
        self.rows.encode_with(buf, put_rows);
        self.stats.encode(buf);
        put_u64(buf, self.elapsed_us);
        put_opt(buf, self.trace.as_ref(), put_trace);
    }
}

/// Encode `Response::Query(report)` with its row vector taken from
/// `rows` — `count` rows a sink already encoded as they were produced —
/// instead of `report.rows.rows`. Byte-identical to encoding the
/// response with those rows in place.
pub fn put_query_with_rows(buf: &mut BytesMut, report: &QueryReport, count: u32, rows: &[u8]) {
    buf.put_u8(TAG_QUERY);
    report.encode_with(buf, |b| {
        b.put_u32_le(count);
        b.put_slice(rows);
    });
}

impl Codec for QueryReport {
    fn encode(&self, buf: &mut BytesMut) {
        self.encode_with(buf, |b| put_vec::<Row>(b, &self.rows.rows));
    }

    fn decode(buf: &mut Bytes) -> TdbResult<QueryReport> {
        Ok(QueryReport {
            query_id: get_u64(buf)?,
            logical: get_opt(buf, get_str)?,
            optimized: get_opt(buf, get_str)?,
            physical: get_opt(buf, get_str)?,
            certificate: get_opt(buf, get_str)?,
            rows: RowSet::decode(buf)?,
            stats: QueryStats::decode(buf)?,
            elapsed_us: get_u64(buf)?,
            trace: get_opt(buf, get_trace)?,
        })
    }
}

impl Codec for QueryTrailer {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.total);
        self.stats.encode(buf);
        put_u64(buf, self.elapsed_us);
        put_opt(buf, self.trace.as_ref(), put_trace);
        put_opt(buf, self.error.as_ref(), |b, e| e.encode(b));
    }

    fn decode(buf: &mut Bytes) -> TdbResult<QueryTrailer> {
        Ok(QueryTrailer {
            total: get_u64(buf)?,
            stats: QueryStats::decode(buf)?,
            elapsed_us: get_u64(buf)?,
            trace: get_opt(buf, get_trace)?,
            error: get_opt(buf, ErrorInfo::decode)?,
        })
    }
}

impl Codec for OpVerdict {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.path);
        put_str(buf, &self.operator);
        put_str(buf, &self.table_entry);
        put_opt(buf, self.workspace_expectation.as_ref(), |b, v| {
            put_f64(b, *v)
        });
        put_opt(buf, self.workspace_cap.as_ref(), |b, v| put_u64(b, *v));
    }

    fn decode(buf: &mut Bytes) -> TdbResult<OpVerdict> {
        Ok(OpVerdict {
            path: get_str(buf)?,
            operator: get_str(buf)?,
            table_entry: get_str(buf)?,
            workspace_expectation: get_opt(buf, get_f64)?,
            workspace_cap: get_opt(buf, get_u64)?,
        })
    }
}

impl Codec for AnalysisReport {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.physical);
        put_vec(buf, &self.ops);
        put_str(buf, &self.certificate);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<AnalysisReport> {
        Ok(AnalysisReport {
            physical: get_str(buf)?,
            ops: get_vec(buf)?,
            certificate: get_str(buf)?,
        })
    }
}

impl Codec for DeltaFrame {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.subscription);
        put_str(buf, &self.label);
        put_u64(buf, self.epoch);
        put_opt(buf, self.watermark.as_ref(), |b, t| put_time(b, *t));
        put_vec::<Row>(buf, &self.rows);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<DeltaFrame> {
        Ok(DeltaFrame {
            subscription: get_u64(buf)?,
            label: get_str(buf)?,
            epoch: get_u64(buf)?,
            watermark: get_opt(buf, get_time)?,
            rows: get_vec(buf)?,
        })
    }
}

impl Codec for IngestReport {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.relation);
        put_u64(buf, self.offered);
        put_u64(buf, self.promoted);
        put_u64(buf, self.staged);
        put_opt(buf, self.watermark.as_ref(), |b, t| put_time(b, *t));
        put_vec(buf, &self.deltas);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<IngestReport> {
        Ok(IngestReport {
            relation: get_str(buf)?,
            offered: get_u64(buf)?,
            promoted: get_u64(buf)?,
            staged: get_u64(buf)?,
            watermark: get_opt(buf, get_time)?,
            deltas: get_vec(buf)?,
        })
    }
}

impl Codec for SubscribeReport {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.id);
        put_opt(buf, self.certificate.as_ref(), |b, s| put_str(b, s));
        self.initial.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<SubscribeReport> {
        Ok(SubscribeReport {
            id: get_u64(buf)?,
            certificate: get_opt(buf, get_str)?,
            initial: DeltaFrame::decode(buf)?,
        })
    }
}

impl Codec for SealReport {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.relation);
        put_u64(buf, self.promoted);
        put_vec(buf, &self.deltas);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<SealReport> {
        Ok(SealReport {
            relation: get_str(buf)?,
            promoted: get_u64(buf)?,
            deltas: get_vec(buf)?,
        })
    }
}

impl Codec for LiveRelationStatus {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.name);
        put_str(buf, &self.order);
        put_bool(buf, self.sealed);
        put_opt(buf, self.watermark.as_ref(), |b, t| put_time(b, *t));
        put_u64(buf, self.admitted);
        put_u64(buf, self.staged);
        put_u64(buf, self.promoted);
        put_u64(buf, self.watermark_lag);
        put_u64(buf, self.stalls);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<LiveRelationStatus> {
        Ok(LiveRelationStatus {
            name: get_str(buf)?,
            order: get_str(buf)?,
            sealed: get_bool(buf)?,
            watermark: get_opt(buf, get_time)?,
            admitted: get_u64(buf)?,
            staged: get_u64(buf)?,
            promoted: get_u64(buf)?,
            watermark_lag: get_u64(buf)?,
            stalls: get_u64(buf)?,
        })
    }
}

impl Codec for SubscriptionStatus {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.id);
        put_str(buf, &self.label);
        put_u64(buf, self.evaluations);
        put_u64(buf, self.emitted);
        put_u64(buf, self.workspace_peak);
        put_u64(buf, self.workspace_cap);
        put_bool(buf, self.cancelled);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<SubscriptionStatus> {
        Ok(SubscriptionStatus {
            id: get_u64(buf)?,
            label: get_str(buf)?,
            evaluations: get_u64(buf)?,
            emitted: get_u64(buf)?,
            workspace_peak: get_u64(buf)?,
            workspace_cap: get_u64(buf)?,
            cancelled: get_bool(buf)?,
        })
    }
}

impl Codec for LiveStatus {
    fn encode(&self, buf: &mut BytesMut) {
        put_vec(buf, &self.relations);
        put_vec(buf, &self.subscriptions);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<LiveStatus> {
        Ok(LiveStatus {
            relations: get_vec(buf)?,
            subscriptions: get_vec(buf)?,
        })
    }
}

impl Codec for SuperstarRow {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.label);
        put_u64(buf, self.elapsed_us);
        put_u64(buf, self.comparisons);
        put_u64(buf, self.superstars);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<SuperstarRow> {
        Ok(SuperstarRow {
            label: get_str(buf)?,
            elapsed_us: get_u64(buf)?,
            comparisons: get_u64(buf)?,
            superstars: get_u64(buf)?,
        })
    }
}

impl Codec for LiveRelationMetrics {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.relation);
        put_u64(buf, self.queue_depth);
        put_u64(buf, self.queue_capacity);
        put_u64(buf, self.staged);
        put_u64(buf, self.watermark_lag);
        put_u64(buf, self.promotion_batches);
        put_u64(buf, self.max_promotion_batch);
        put_opt(buf, self.lambda_static.as_ref(), |b, v| put_f64(b, *v));
        put_opt(buf, self.lambda_live.as_ref(), |b, v| put_f64(b, *v));
        put_opt(buf, self.duration_static.as_ref(), |b, v| put_f64(b, *v));
        put_opt(buf, self.duration_live.as_ref(), |b, v| put_f64(b, *v));
    }

    fn decode(buf: &mut Bytes) -> TdbResult<LiveRelationMetrics> {
        Ok(LiveRelationMetrics {
            relation: get_str(buf)?,
            queue_depth: get_u64(buf)?,
            queue_capacity: get_u64(buf)?,
            staged: get_u64(buf)?,
            watermark_lag: get_u64(buf)?,
            promotion_batches: get_u64(buf)?,
            max_promotion_batch: get_u64(buf)?,
            lambda_static: get_opt(buf, get_f64)?,
            lambda_live: get_opt(buf, get_f64)?,
            duration_static: get_opt(buf, get_f64)?,
            duration_live: get_opt(buf, get_f64)?,
        })
    }
}

impl Codec for ConnMetrics {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.id);
        put_u64(buf, self.frames_in);
        put_u64(buf, self.bytes_in);
        put_u64(buf, self.frames_out);
        put_u64(buf, self.bytes_out);
        put_u64(buf, self.push_highwater);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<ConnMetrics> {
        Ok(ConnMetrics {
            id: get_u64(buf)?,
            frames_in: get_u64(buf)?,
            bytes_in: get_u64(buf)?,
            frames_out: get_u64(buf)?,
            bytes_out: get_u64(buf)?,
            push_highwater: get_u64(buf)?,
        })
    }
}

impl Codec for NetMetrics {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.connections);
        put_u64(buf, self.frames_in);
        put_u64(buf, self.bytes_in);
        put_u64(buf, self.frames_out);
        put_u64(buf, self.bytes_out);
        put_u64(buf, self.push_queue_highwater);
        put_u64(buf, self.slow_subscriber_disconnects);
        put_vec(buf, &self.conns);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<NetMetrics> {
        Ok(NetMetrics {
            connections: get_u64(buf)?,
            frames_in: get_u64(buf)?,
            bytes_in: get_u64(buf)?,
            frames_out: get_u64(buf)?,
            bytes_out: get_u64(buf)?,
            push_queue_highwater: get_u64(buf)?,
            slow_subscriber_disconnects: get_u64(buf)?,
            conns: get_vec(buf)?,
        })
    }
}

impl Codec for SlowFsyncInfo {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.relation);
        put_u64(buf, self.micros);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<SlowFsyncInfo> {
        Ok(SlowFsyncInfo {
            relation: get_str(buf)?,
            micros: get_u64(buf)?,
        })
    }
}

impl Codec for WalReport {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.flush_policy);
        put_u64(buf, self.appends);
        put_u64(buf, self.commits);
        put_u64(buf, self.fsyncs);
        put_u64(buf, self.bytes_written);
        put_u64(buf, self.checkpoints);
        put_u64(buf, self.torn_truncations);
        put_u64(buf, self.replayed_records);
        put_u64(buf, self.replay_bytes);
        put_u64(buf, self.replay_us);
        put_vec(buf, &self.slow_fsyncs);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<WalReport> {
        Ok(WalReport {
            flush_policy: get_str(buf)?,
            appends: get_u64(buf)?,
            commits: get_u64(buf)?,
            fsyncs: get_u64(buf)?,
            bytes_written: get_u64(buf)?,
            checkpoints: get_u64(buf)?,
            torn_truncations: get_u64(buf)?,
            replayed_records: get_u64(buf)?,
            replay_bytes: get_u64(buf)?,
            replay_us: get_u64(buf)?,
            slow_fsyncs: get_vec(buf)?,
        })
    }
}

impl Codec for StageLatency {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.stage);
        put_u64(buf, self.count);
        put_u64(buf, self.p50_us);
        put_u64(buf, self.p99_us);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<StageLatency> {
        Ok(StageLatency {
            stage: get_str(buf)?,
            count: get_u64(buf)?,
            p50_us: get_u64(buf)?,
            p99_us: get_u64(buf)?,
        })
    }
}

impl Codec for SloStatus {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, &self.objective);
        put_f64(buf, self.target);
        put_u64(buf, self.fast_window_s);
        put_u64(buf, self.slow_window_s);
        put_f64(buf, self.fast_burn);
        put_f64(buf, self.slow_burn);
        put_str(buf, &self.health);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<SloStatus> {
        Ok(SloStatus {
            objective: get_str(buf)?,
            target: get_f64(buf)?,
            fast_window_s: get_u64(buf)?,
            slow_window_s: get_u64(buf)?,
            fast_burn: get_f64(buf)?,
            slow_burn: get_f64(buf)?,
            health: get_str(buf)?,
        })
    }
}

impl Codec for StatsReport {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.queries);
        put_u64(buf, self.rows_returned);
        put_u64(buf, self.cap_exceeded);
        put_u64(buf, self.slow_threshold_us);
        put_traces(buf, &self.slow);
        put_opt(buf, self.last.as_ref(), put_trace);
        put_vec(buf, &self.live);
        put_opt(buf, self.net.as_ref(), |b, n| n.encode(b));
        put_opt(buf, self.wal.as_ref(), |b, w| w.encode(b));
        put_vec(buf, &self.stages);
        put_vec(buf, &self.slo);
        put_str(buf, &self.health);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<StatsReport> {
        Ok(StatsReport {
            queries: get_u64(buf)?,
            rows_returned: get_u64(buf)?,
            cap_exceeded: get_u64(buf)?,
            slow_threshold_us: get_u64(buf)?,
            slow: get_traces(buf)?,
            last: get_opt(buf, get_trace)?,
            live: get_vec(buf)?,
            net: get_opt(buf, NetMetrics::decode)?,
            wal: get_opt(buf, WalReport::decode)?,
            stages: get_vec(buf)?,
            slo: get_vec(buf)?,
            health: get_str(buf)?,
        })
    }
}

impl Codec for ErrorInfo {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.code as u8);
        put_str(buf, &self.message);
    }

    fn decode(buf: &mut Bytes) -> TdbResult<ErrorInfo> {
        need(buf, 1, "error code")?;
        let raw = buf.get_u8();
        let code = ErrorCode::from_u8(raw)
            .ok_or_else(|| TdbError::Corrupt(format!("unknown error code {raw}")))?;
        Ok(ErrorInfo {
            code,
            message: get_str(buf)?,
        })
    }
}
