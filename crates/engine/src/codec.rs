//! Binary encoding of [`Response`] values — the wire face of the engine.
//!
//! Every response type's layout is one field list, in wire order, given
//! to `tdb-storage`'s [`wire_struct!`] or [`wire_enum!`], which write
//! its [`Codec`] (encoder and decoder both) from it: little-endian
//! integers, `u32` length prefixes, one leading tag byte per enum, and
//! defensive decoding that returns [`TdbError::Corrupt`] on truncated or
//! malformed input, never panics. `OpSpan`, `StageSpan` and `QueryTrace`
//! belong to `tdb-obs`, where the orphan rule keeps `Codec` out, so the
//! same field lists write free functions for them instead.
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
//!
//! Row lists stay hand-written, and a `Vec<Row>` field names them in its
//! field list (`rows: with(put_rows, get_rows)`): the generic `Vec<T>`
//! codec writes no string table, so its bytes differ whenever a string
//! repeats. So do [`RowSet`] and [`QueryReport`], whose encoders take
//! the row list from a sink that encoded it while the query ran
//! ([`put_query_with_rows`]).

use crate::response::{
    AnalysisReport, ConnMetrics, DeltaFrame, ErrorInfo, IngestReport, LiveRelationMetrics,
    LiveRelationStatus, LiveStatus, NetMetrics, OpSpan, OpVerdict, QueryReport, QueryStats,
    QueryTrace, QueryTrailer, Response, RowSet, SealReport, SloStatus, SlowFsyncInfo, StageLatency,
    StatsReport, SubscribeReport, SubscriptionStatus, SuperstarRow, TableInfo, WalReport,
};
use bytes::{Buf, BufMut, BytesMut};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use tdb::core::{TdbError, TdbResult, Value};
use tdb::prelude::Row;
use tdb::storage::codec::{
    decode_str, get_opt_with, need, put_opt_with, put_str, TAG_STR, TAG_STR_REF,
};
use tdb::storage::{wire_enum, wire_struct, Codec};
use tdb::stream::PairBatch;
use tdb_obs::{Stage, StageSpan};

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
/// reused while the list is open, even once a stream node's arena has
/// dropped the row the string came from. No string content is hashed,
/// and what the encoder pins is bounded by the distinct strings of one
/// list — on the wire, one 64 KiB fragment of a reply — not by the
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

wire_enum!(Response {
    0 => Info(String),
    1 => Goodbye,
    2 => Tables(Vec<TableInfo>),
    3 => Query(QueryReport),
    4 => Analysis(AnalysisReport),
    5 => Ingest(IngestReport),
    6 => Subscribed(SubscribeReport),
    7 => Live(LiveStatus),
    8 => Sealed(SealReport),
    9 => Superstar(Vec<SuperstarRow>),
    10 => Error(ErrorInfo),
    11 => Stats(StatsReport),
    12 => QueryStream(QueryReport),
});

/// `Response::Query`'s tag in the list above.
const TAG_QUERY: u8 = 3;

wire_struct!(fn put_span, get_span: OpSpan {
    operator,
    rows_in,
    rows_out,
    comparisons,
    evicted,
    workspace_peak,
    workspace_mean,
    occupancy,
    predicted_cap,
    predicted_expectation,
});

// A stage travels by *name* rather than a numeric discriminant, so a
// frame stays decodable even if the stage set is reordered later. A
// field list hands every field to its encoder by reference.
#[allow(clippy::trivially_copy_pass_by_ref)]
fn put_stage(buf: &mut BytesMut, stage: &Stage) {
    put_str(buf, stage.name());
}

fn get_stage(buf: &mut impl Buf) -> TdbResult<Stage> {
    decode_str(buf, |name| {
        Stage::parse_name(name)
            .ok_or_else(|| TdbError::Corrupt(format!("unknown stage name {name:?}")))
    })?
}

wire_struct!(fn put_stage_span, get_stage_span: StageSpan {
    stage: with(put_stage, get_stage),
    start_us,
    elapsed_us,
    depth,
    detail,
});

wire_struct!(fn put_trace, get_trace: QueryTrace {
    query_id,
    label,
    elapsed_us,
    rows,
    pages_read,
    sink_rows,
    sink_bytes,
    spans: vec(put_span, get_span),
    stages: vec(put_stage_span, get_stage_span),
});

wire_struct!(TableInfo {
    name,
    rows,
    schema,
    lambda,
    mean_duration,
    max_concurrency,
});

impl RowSet {
    /// The encoding, with the row vector (`u32` count, then the rows)
    /// written by `put_rows`.
    fn encode_with(&self, buf: &mut BytesMut, put_rows: impl FnOnce(&mut BytesMut)) {
        self.columns.encode(buf);
        put_rows(buf);
        self.total.encode(buf);
    }
}

impl Codec for RowSet {
    fn encode(&self, buf: &mut BytesMut) {
        self.encode_with(buf, |b| put_rows(b, &self.rows));
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<RowSet> {
        Ok(RowSet {
            columns: Codec::decode(buf)?,
            rows: get_rows(buf)?,
            total: Codec::decode(buf)?,
        })
    }
}

wire_struct!(QueryStats {
    rows_scanned,
    pages_read,
    comparisons,
    max_workspace,
    sorts_performed,
});

impl QueryReport {
    fn encode_with(&self, buf: &mut BytesMut, put_rows: impl FnOnce(&mut BytesMut)) {
        self.query_id.encode(buf);
        self.logical.encode(buf);
        self.optimized.encode(buf);
        self.physical.encode(buf);
        self.certificate.encode(buf);
        self.rows.encode_with(buf, put_rows);
        self.stats.encode(buf);
        self.elapsed_us.encode(buf);
        put_opt_with(buf, self.trace.as_ref(), put_trace);
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
            query_id: Codec::decode(buf)?,
            logical: Codec::decode(buf)?,
            optimized: Codec::decode(buf)?,
            physical: Codec::decode(buf)?,
            certificate: Codec::decode(buf)?,
            rows: Codec::decode(buf)?,
            stats: Codec::decode(buf)?,
            elapsed_us: Codec::decode(buf)?,
            trace: get_opt_with(buf, get_trace)?,
        })
    }
}

wire_struct!(QueryTrailer {
    total,
    stats,
    elapsed_us,
    trace: opt(put_trace, get_trace),
    error,
});

wire_struct!(OpVerdict {
    path,
    operator,
    table_entry,
    workspace_expectation,
    workspace_cap,
});

wire_struct!(AnalysisReport {
    physical,
    ops,
    certificate,
});

wire_struct!(DeltaFrame {
    subscription,
    label,
    epoch,
    watermark,
    rows: with(put_rows, get_rows),
});

wire_struct!(IngestReport {
    relation,
    offered,
    promoted,
    staged,
    watermark,
    deltas,
});

wire_struct!(SubscribeReport {
    id,
    certificate,
    initial,
});

wire_struct!(SealReport {
    relation,
    promoted,
    deltas,
});

wire_struct!(LiveRelationStatus {
    name,
    order,
    sealed,
    watermark,
    admitted,
    staged,
    promoted,
    watermark_lag,
});

wire_struct!(SubscriptionStatus {
    id,
    label,
    mode,
    evaluations,
    emitted,
    workspace_peak,
    workspace_cap,
    cancelled,
});

wire_struct!(LiveStatus {
    relations,
    subscriptions,
});

wire_struct!(SuperstarRow {
    label,
    elapsed_us,
    comparisons,
    superstars,
});

wire_struct!(LiveRelationMetrics {
    relation,
    staged,
    watermark_lag,
    promotion_batches,
    max_promotion_batch,
    lambda_static,
    lambda_live,
    duration_static,
    duration_live,
});

wire_struct!(ConnMetrics {
    id,
    frames_in,
    bytes_in,
    frames_out,
    bytes_out,
    push_highwater,
});

wire_struct!(NetMetrics {
    connections,
    frames_in,
    bytes_in,
    frames_out,
    bytes_out,
    push_queue_highwater,
    slow_subscriber_disconnects,
    conns,
});

wire_struct!(SlowFsyncInfo { relation, micros });

wire_struct!(WalReport {
    flush_policy,
    appends,
    commits,
    fsyncs,
    bytes_written,
    checkpoints,
    torn_truncations,
    replayed_records,
    replay_bytes,
    replay_us,
    slow_fsyncs,
});

wire_struct!(StageLatency {
    stage,
    count,
    p50_us,
    p99_us,
});

wire_struct!(SloStatus {
    objective,
    target,
    fast_window_s,
    slow_window_s,
    fast_burn,
    slow_burn,
    health,
});

wire_struct!(StatsReport {
    queries,
    rows_returned,
    cap_exceeded,
    slow_threshold_us,
    slow: vec(put_trace, get_trace),
    last: opt(put_trace, get_trace),
    live,
    net,
    wal,
    stages,
    slo,
    health,
});

wire_struct!(ErrorInfo { code, message });

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use tdb::core::TimePoint;

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
