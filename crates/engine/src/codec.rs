//! Binary encoding of [`Response`] values — the wire face of the engine.
//!
//! Implements [`Codec`] (the `tdb-storage` byte-format trait) for every
//! response type, following the storage conventions: little-endian
//! integers, `u32` length prefixes, one leading tag byte per enum, and
//! defensive decoding that returns [`TdbError::Corrupt`] on truncated or
//! malformed input, never panics.
//!
//! Every row vector on the wire — a [`RowSet`], a reply chunk, a
//! [`DeltaFrame`] — is one *row list*: a `u32` row count, then each row
//! as a `u16` arity and its values under the storage value tags, except
//! that strings go through a table local to the list. A string's first
//! occurrence is written inline (`TAG_STR`, length, bytes) and becomes
//! the table's next entry; every later occurrence is `TAG_STR_REF` and a
//! `u32` entry number, which the decoder answers by cloning that entry's
//! `Arc<str>`. A join repeats each stored tuple once per partner, so a
//! reply then carries each of its strings once per list, and the client
//! allocates each once. [`RowListEncoder`] writes lists, [`get_rows`]
//! reads them. Heap pages keep the plain storage row codec, which has no
//! table and rejects `TAG_STR_REF`.

use crate::response::{
    AnalysisReport, ConnMetrics, DeltaFrame, ErrorCode, ErrorInfo, IngestReport,
    LiveRelationMetrics, LiveRelationStatus, LiveStatus, NetMetrics, OpSpan, OpVerdict,
    QueryReport, QueryStats, QueryTrace, QueryTrailer, Response, RowSet, SealReport, SloStatus,
    SlowFsyncInfo, StageLatency, StatsReport, SubscribeReport, SubscriptionStatus, SuperstarRow,
    TableInfo, WalReport,
};
use bytes::{Buf, BufMut, BytesMut};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use tdb::core::{TdbError, TdbResult, TimePoint, Value};
use tdb::prelude::Row;
use tdb::storage::codec::{decode_str, TAG_STR, TAG_STR_REF};
use tdb::storage::Codec;
use tdb::stream::PairBatch;
use tdb_obs::{Stage, StageSpan};

fn need(buf: &impl Buf, n: usize, what: &str) -> TdbResult<()> {
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

fn get_str(buf: &mut impl Buf) -> TdbResult<String> {
    decode_str(buf, str::to_owned)
}

fn put_u64(buf: &mut BytesMut, v: u64) {
    buf.put_u64_le(v);
}

fn get_u64(buf: &mut impl Buf) -> TdbResult<u64> {
    need(buf, 8, "u64")?;
    Ok(buf.get_u64_le())
}

fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(u8::from(v));
}

fn get_bool(buf: &mut impl Buf) -> TdbResult<bool> {
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

fn get_opt<B: Buf, T>(buf: &mut B, f: impl FnOnce(&mut B) -> TdbResult<T>) -> TdbResult<Option<T>> {
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

fn get_f64(buf: &mut impl Buf) -> TdbResult<f64> {
    need(buf, 8, "f64")?;
    Ok(f64::from_bits(buf.get_u64_le()))
}

fn put_time(buf: &mut BytesMut, t: TimePoint) {
    buf.put_i64_le(t.ticks());
}

fn get_time(buf: &mut impl Buf) -> TdbResult<TimePoint> {
    need(buf, 8, "time point")?;
    Ok(TimePoint::new(buf.get_i64_le()))
}

fn put_vec<T: Codec>(buf: &mut BytesMut, v: &[T]) {
    buf.put_u32_le(v.len() as u32);
    for item in v {
        item.encode(buf);
    }
}

fn get_vec<T: Codec>(buf: &mut impl Buf) -> TdbResult<Vec<T>> {
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

fn get_strs(buf: &mut impl Buf) -> TdbResult<Vec<String>> {
    need(buf, 4, "vec length")?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_str(buf)?);
    }
    Ok(out)
}

/// Hashes the row-list encoder's keys — `Arc` addresses this process
/// made, never input from outside — with one multiply. A served join
/// looks up every string it sends; against the standard SipHash hasher
/// this took `join_stream`'s served `latency_p50_ms` down 7.5 % (8 of 8
/// alternating runs won, 2 vCPUs).
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    #[inline]
    fn write_usize(&mut self, addr: usize) {
        self.0 = (self.0 ^ addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Buckets are picked by the low bits: bring the product's
        // well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

/// Writes one row list (see the module docs) row by row into a caller's
/// buffer; the `u32` row count in front is the caller's to write, since
/// only it knows where the list starts. A row is either owned
/// ([`RowListEncoder::push_row`]) or a join match read straight from its
/// two source rows ([`RowListEncoder::push_pair`]), so no output row is
/// built for it.
///
/// A string is keyed by the address of its `Arc`, and the encoder holds
/// each entry's `Arc` until [`RowListEncoder::reset`], so no address is
/// reused while the list is open. No string content is hashed, and the
/// state is bounded by the distinct strings in the list, not by the
/// relations behind it.
#[derive(Debug, Default)]
pub struct RowListEncoder {
    rows: u32,
    /// `Arc` address → entry number in the list's table.
    entries: HashMap<usize, u32, BuildHasherDefault<AddrHasher>>,
    /// Entry `i`'s string.
    held: Vec<Arc<str>>,
}

impl RowListEncoder {
    /// Rows written since the list was opened.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Close the list: the next row opens a new one with an empty table.
    /// Allocations are kept for it.
    pub fn reset(&mut self) {
        self.rows = 0;
        self.entries.clear();
        self.held.clear();
    }

    /// Append one owned row.
    pub fn push_row(&mut self, buf: &mut BytesMut, row: &Row) {
        buf.put_u16_le(row.arity() as u16);
        for v in row.values() {
            self.put_value(buf, v);
        }
        self.rows += 1;
    }

    /// Append the output row of join match `pair`, read from `batch`'s
    /// source rows. Returns the row's [`row_bytes`](tdb::stream::row_bytes).
    #[inline]
    pub fn push_pair(
        &mut self,
        buf: &mut BytesMut,
        batch: &PairBatch<'_>,
        pair: (u32, u32),
    ) -> u64 {
        buf.put_u16_le(batch.columns.len() as u16);
        let bytes = batch.visit(pair, |v| self.put_value(buf, v));
        self.rows += 1;
        bytes
    }

    /// Write one value: a string already in the table as a reference to
    /// its entry, a new one inline as the table's next entry, anything
    /// else under its storage tag.
    #[inline]
    fn put_value(&mut self, buf: &mut BytesMut, v: &Value) {
        let Value::Str(s) = v else {
            v.encode(buf);
            return;
        };
        match self.entries.entry(Arc::as_ptr(s).cast::<u8>() as usize) {
            Entry::Occupied(e) => {
                buf.put_u8(TAG_STR_REF);
                buf.put_u32_le(*e.get());
            }
            Entry::Vacant(e) => {
                e.insert(self.held.len() as u32);
                self.held.push(Arc::clone(s));
                buf.put_u8(TAG_STR);
                put_str(buf, s);
            }
        }
    }
}

/// Encode `rows` as one row list, count included.
pub fn put_rows(buf: &mut BytesMut, rows: &[Row]) {
    buf.put_u32_le(rows.len() as u32);
    let mut list = RowListEncoder::default();
    for row in rows {
        list.push_row(buf, row);
    }
}

/// Decode one row list. Truncation, an unknown tag, or a reference past
/// the entries read so far yield [`TdbError::Corrupt`].
pub fn get_rows(buf: &mut impl Buf) -> TdbResult<Vec<Row>> {
    need(buf, 4, "row count")?;
    let n = buf.get_u32_le() as usize;
    // Every row takes at least its 2-byte arity, so a count the bytes
    // cannot hold fails on truncation before it can size an allocation.
    let mut rows = Vec::with_capacity(n.min(buf.remaining() / 2));
    // Entry `i` is the list's `i`-th inline string.
    let mut table: Vec<Arc<str>> = Vec::new();
    for _ in 0..n {
        need(buf, 2, "row arity")?;
        let arity = buf.get_u16_le() as usize;
        let mut values = Vec::with_capacity(arity.min(buf.remaining()));
        for _ in 0..arity {
            values.push(get_value(buf, &mut table)?);
        }
        rows.push(Row::new(values));
    }
    Ok(rows)
}

/// One value of a row list: a string through the list's `table`, any
/// other tag through the storage codec.
fn get_value(buf: &mut impl Buf, table: &mut Vec<Arc<str>>) -> TdbResult<Value> {
    match buf.chunk().first() {
        Some(&TAG_STR) => {
            buf.advance(1);
            let s = decode_str(buf, |s| Arc::<str>::from(s))?;
            table.push(Arc::clone(&s));
            Ok(Value::Str(s))
        }
        Some(&TAG_STR_REF) => {
            buf.advance(1);
            need(buf, 4, "string reference")?;
            let entry = buf.get_u32_le();
            let s = table.get(entry as usize).ok_or_else(|| {
                TdbError::Corrupt(format!(
                    "string reference {entry} past the {} entries of its row list",
                    table.len()
                ))
            })?;
            Ok(Value::Str(Arc::clone(s)))
        }
        _ => Value::decode(buf),
    }
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

fn get_span(buf: &mut impl Buf) -> TdbResult<OpSpan> {
    let operator = get_str(buf)?;
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

fn get_stage_span(buf: &mut impl Buf) -> TdbResult<StageSpan> {
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
    put_u64(buf, t.pages_read);
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
pub fn get_trace(buf: &mut impl Buf) -> TdbResult<QueryTrace> {
    let query_id = get_u64(buf)?;
    let label = get_str(buf)?;
    let elapsed_us = get_u64(buf)?;
    let rows = get_u64(buf)?;
    let pages_read = get_u64(buf)?;
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
        pages_read,
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

fn get_traces(buf: &mut impl Buf) -> TdbResult<Vec<QueryTrace>> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<Response> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<TableInfo> {
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
        self.encode_with(buf, |b| put_rows(b, &self.rows));
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<RowSet> {
        Ok(RowSet {
            columns: get_strs(buf)?,
            rows: get_rows(buf)?,
            total: get_u64(buf)?,
        })
    }
}

impl Codec for QueryStats {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.rows_scanned);
        put_u64(buf, self.pages_read);
        put_u64(buf, self.comparisons);
        put_u64(buf, self.max_workspace);
        put_u64(buf, self.sorts_performed);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<QueryStats> {
        Ok(QueryStats {
            rows_scanned: get_u64(buf)?,
            pages_read: get_u64(buf)?,
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

/// Encode `Response::Query(report)` with its row list taken from `rows`
/// — `count` rows a sink already encoded into one list, as they were
/// produced — instead of `report.rows.rows`. Decodes to the response
/// with those rows in place.
pub fn put_query_with_rows(buf: &mut BytesMut, report: &QueryReport, count: u32, rows: &[u8]) {
    buf.put_u8(TAG_QUERY);
    report.encode_with(buf, |b| {
        b.put_u32_le(count);
        b.put_slice(rows);
    });
}

impl Codec for QueryReport {
    fn encode(&self, buf: &mut BytesMut) {
        self.encode_with(buf, |b| put_rows(b, &self.rows.rows));
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<QueryReport> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<QueryTrailer> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<OpVerdict> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<AnalysisReport> {
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
        put_rows(buf, &self.rows);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<DeltaFrame> {
        Ok(DeltaFrame {
            subscription: get_u64(buf)?,
            label: get_str(buf)?,
            epoch: get_u64(buf)?,
            watermark: get_opt(buf, get_time)?,
            rows: get_rows(buf)?,
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

    fn decode(buf: &mut impl Buf) -> TdbResult<IngestReport> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<SubscribeReport> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<SealReport> {
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
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<LiveRelationStatus> {
        Ok(LiveRelationStatus {
            name: get_str(buf)?,
            order: get_str(buf)?,
            sealed: get_bool(buf)?,
            watermark: get_opt(buf, get_time)?,
            admitted: get_u64(buf)?,
            staged: get_u64(buf)?,
            promoted: get_u64(buf)?,
            watermark_lag: get_u64(buf)?,
        })
    }
}

impl Codec for SubscriptionStatus {
    fn encode(&self, buf: &mut BytesMut) {
        put_u64(buf, self.id);
        put_str(buf, &self.label);
        put_str(buf, &self.mode);
        put_u64(buf, self.evaluations);
        put_u64(buf, self.emitted);
        put_u64(buf, self.workspace_peak);
        put_u64(buf, self.workspace_cap);
        put_bool(buf, self.cancelled);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<SubscriptionStatus> {
        Ok(SubscriptionStatus {
            id: get_u64(buf)?,
            label: get_str(buf)?,
            mode: get_str(buf)?,
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

    fn decode(buf: &mut impl Buf) -> TdbResult<LiveStatus> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<SuperstarRow> {
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
        put_u64(buf, self.staged);
        put_u64(buf, self.watermark_lag);
        put_u64(buf, self.promotion_batches);
        put_u64(buf, self.max_promotion_batch);
        put_opt(buf, self.lambda_static.as_ref(), |b, v| put_f64(b, *v));
        put_opt(buf, self.lambda_live.as_ref(), |b, v| put_f64(b, *v));
        put_opt(buf, self.duration_static.as_ref(), |b, v| put_f64(b, *v));
        put_opt(buf, self.duration_live.as_ref(), |b, v| put_f64(b, *v));
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<LiveRelationMetrics> {
        Ok(LiveRelationMetrics {
            relation: get_str(buf)?,
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

    fn decode(buf: &mut impl Buf) -> TdbResult<ConnMetrics> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<NetMetrics> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<SlowFsyncInfo> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<WalReport> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<StageLatency> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<SloStatus> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<StatsReport> {
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

    fn decode(buf: &mut impl Buf) -> TdbResult<ErrorInfo> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    /// Rows from `(kind, n)` cells: every scalar type and NULL, strings
    /// that share one `Arc` (`""` among them) and strings with equal
    /// content in separate `Arc`s, repeated across rows and columns.
    fn rows_of(cells: &[Vec<(u8, i64)>]) -> Vec<Row> {
        let pool: Vec<Value> = ["", "Smith", "Associate Professor 教授", "S1"]
            .into_iter()
            .map(Value::str)
            .collect();
        let cell = |&(kind, n): &(u8, i64)| match kind {
            0 => Value::Null,
            1 => Value::Bool(n % 2 == 0),
            2 => Value::Int(n),
            3 => Value::Time(TimePoint(n)),
            4 => pool[n.unsigned_abs() as usize % pool.len()].clone(),
            _ => Value::str(format!("s{}", n % 5)),
        };
        cells
            .iter()
            .map(|row| Row::new(row.iter().map(cell).collect()))
            .collect()
    }

    fn encoded(rows: &[Row]) -> Bytes {
        let mut buf = BytesMut::new();
        put_rows(&mut buf, rows);
        buf.freeze()
    }

    /// Decode a whole buffer as one row list.
    fn decoded(bytes: &Bytes) -> Vec<Row> {
        let mut buf = bytes.clone();
        let rows = get_rows(&mut buf).unwrap();
        assert!(buf.is_empty(), "{} bytes left over", buf.len());
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_lists_round_trip_and_re_encode_to_the_same_bytes(
            cells in proptest::collection::vec(
                proptest::collection::vec((0u8..6, -40i64..40), 0..6),
                0..30,
            ),
        ) {
            let rows = rows_of(&cells);
            let bytes = encoded(&rows);
            let back = decoded(&bytes);
            prop_assert_eq!(&back, &rows);
            prop_assert_eq!(encoded(&back), bytes);
        }

        /// The pair path encodes a match from its source rows into the
        /// very bytes of the row the default `push_pairs` would build,
        /// whatever repeats: both sides over one slice (one string under
        /// two ordinals) and a column projected twice.
        #[test]
        fn pairs_encode_as_the_rows_they_stand_for(
            cells in proptest::collection::vec(
                proptest::collection::vec((0u8..6, -40i64..40), 3..4),
                1..12,
            ),
            picks in proptest::collection::vec((0usize..64, 0usize..64), 0..60),
        ) {
            let side = rows_of(&cells);
            let n = side.len();
            let batch = PairBatch {
                left: &side,
                right: &side,
                columns: &[4, 0, 2, 0, 5],
                pairs: picks.iter().map(|&(l, r)| ((l % n) as u32, (r % n) as u32)).collect(),
            };
            let mut list = RowListEncoder::default();
            let mut buf = BytesMut::new();
            buf.put_u32_le(batch.pairs.len() as u32);
            for &pair in &batch.pairs {
                let bytes = list.push_pair(&mut buf, &batch, pair);
                prop_assert_eq!(bytes, tdb::stream::row_bytes(&batch.row(pair)));
            }
            prop_assert_eq!(list.rows() as usize, batch.pairs.len());
            let bytes = buf.freeze();
            let want: Vec<Row> = batch.pairs.iter().map(|&p| batch.row(p)).collect();
            prop_assert_eq!(&encoded(&want), &bytes);
            let back = decoded(&bytes);
            prop_assert_eq!(&back, &want);
            prop_assert_eq!(encoded(&back), bytes);
        }
    }

    #[test]
    fn repeated_strings_travel_once_per_list() {
        let shared = Value::str("S12345");
        let row = Row::new(vec![shared.clone(), Value::Int(7), shared]);
        let rows = vec![row.clone(), row.clone(), Row::new(vec![]), row];
        let bytes = encoded(&rows);
        let plain: usize = rows.iter().map(|r| r.to_bytes().len()).sum();
        // count + 4 × arity + ints, "S12345" once inline, 5 references.
        assert_eq!(bytes.len(), 4 + 4 * 2 + 3 * 9 + (1 + 4 + 6) + 5 * 5);
        assert!(bytes.len() < 4 + plain);
        assert_eq!(decoded(&bytes), rows);

        // A reset encoder opens a new list: its table starts empty.
        let mut list = RowListEncoder::default();
        let (mut first, mut second) = (BytesMut::new(), BytesMut::new());
        list.push_row(&mut first, &rows[0]);
        list.reset();
        list.push_row(&mut second, &rows[0]);
        assert_eq!(first, second);
        assert_eq!(list.rows(), 1);
    }

    /// Entry numbers are `u32`: a list with more distinct strings than a
    /// `u16` can count still references its late entries correctly.
    #[test]
    fn lists_past_65_536_distinct_strings_round_trip() {
        let mut rows: Vec<Row> = (0..70_000)
            .map(|i| Row::new(vec![Value::str(format!("id{i}")), Value::Int(i)]))
            .collect();
        rows.extend_from_within(65_530..65_545);
        rows.extend_from_within(..3);
        let bytes = encoded(&rows);
        let back = decoded(&bytes);
        assert_eq!(back, rows);
        assert_eq!(encoded(&back), bytes);
        // The copies decode to the entries' own strings, not fresh ones.
        let (Value::Str(a), Value::Str(b)) = (back[65_540].get(0), back[70_010].get(0)) else {
            panic!("string columns expected");
        };
        assert!(Arc::ptr_eq(a, b));
        assert!(bytes.len() < 4 + rows.iter().map(|r| r.to_bytes().len()).sum::<usize>());
    }

    #[test]
    fn every_prefix_of_a_list_is_corrupt() {
        let rows = rows_of(&[
            vec![(4, 1), (2, 5), (4, 1)],
            vec![],
            vec![(5, 3), (4, 1), (0, 0), (1, 1), (3, -9)],
        ]);
        let bytes = encoded(&rows);
        for cut in 0..bytes.len() {
            match get_rows(&mut Bytes::copy_from_slice(&bytes[..cut])) {
                Err(TdbError::Corrupt(_)) => {}
                other => panic!("prefix {cut}/{} decoded to {other:?}", bytes.len()),
            }
        }
    }
}
