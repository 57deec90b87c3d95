//! The wire sink: a query's reply encoded as its rows are produced.
//!
//! [`WireSink`] is the [`ReplySink`] a connection hands to
//! [`Engine::execute_into`](tdb_engine::Engine::execute_into). Each
//! pushed row is encoded straight into a byte buffer and dropped, and
//! each join match offered as a pair is encoded from its two source rows
//! without an output row ever being built. A reply is cut into chunks by
//! the 4 MiB [`row_bytes`] budget: once a chunk's rows have reached it
//! and one more row arrives — proving the chunk is not the last — the
//! chunk is cut. Below the chunk, the rows leave as they are encoded:
//! each time the open buffer holds [`FRAGMENT_BYTES`] of encoded rows it
//! is sent ahead as a `ReplyRows` frame, so the client decodes the rows
//! while the plan is still producing the next ones, and the buffer the
//! encoder fills stays in cache. The frames of one reply are, in order:
//!
//! ```text
//! ReplyRows…                   rows sent ahead, each a row list of its own
//! Reply{QueryStream(header)}   when the first chunk is cut
//! ReplyChunk{seq, last}        the rest of the chunk's rows
//! (ReplyRows… ReplyChunk)…     `last` only on the final chunk
//! ReplyEnd{trailer}            totals, stats, timing, trace
//! ```
//!
//! or, for a result within the budget (and for every non-query reply),
//! one `Reply` frame, after the `ReplyRows` of a result past
//! [`FRAGMENT_BYTES`]. The client puts the rows sent ahead in front of
//! the rows of the chunk or reply that follows them, so chunks — their
//! count, `seq`, `last` and rows — are what they would be without them.
//!
//! Frames leave through the `emit` callback, which runs inside the
//! engine call and therefore must not block (see [`ReplySink`]).

use crate::wire::{ChunkEncoder, Frame};
use bytes::BytesMut;
use std::time::Instant;
use tdb::core::{Row, TdbResult};
use tdb::stream::{row_bytes, PairBatch, RowSink, SinkStats};
use tdb_engine::{QueryReport, QueryTrailer, ReplySink, Response};

/// Soft per-frame byte budget for streamed result chunks — far enough
/// under [`crate::wire::MAX_FRAME`] that encoding overhead and wide rows
/// never push a single chunk near the cap.
pub const CHUNK_BYTES: u64 = 4 << 20;

/// Encoded bytes of rows sent ahead of their chunk in one `ReplyRows`
/// frame. Small enough for the buffer being filled to stay in cache, and
/// for the client to decode a chunk's rows while the plan produces them
/// rather than after the chunk is cut.
pub const FRAGMENT_BYTES: usize = 64 << 10;

/// Encodes a reply into wire frames as the engine produces it; see the
/// module docs. `emit` receives each finished frame (length prefix
/// included) with the id of the query it belongs to (0 for non-query
/// replies).
pub struct WireSink<F: FnMut(u64, BytesMut)> {
    emit: F,
    /// The stream header, held back until the first chunk is cut.
    header: Option<QueryReport>,
    query_id: u64,
    chunk: ChunkEncoder,
    /// [`row_bytes`] of the rows in `chunk`.
    budget: u64,
    /// Chunks cut so far, i.e. the next chunk's `seq`.
    seq: u32,
    stats: SinkStats,
    /// Encode time per chunk; the last entry is the open chunk's.
    render_us: Vec<u64>,
}

impl<F: FnMut(u64, BytesMut)> WireSink<F> {
    /// A sink that hands its frames to `emit`.
    pub fn new(emit: F) -> WireSink<F> {
        WireSink {
            emit,
            header: None,
            query_id: 0,
            chunk: ChunkEncoder::new(),
            budget: 0,
            seq: 0,
            stats: SinkStats::default(),
            render_us: vec![0],
        }
    }

    fn emit_frame(&mut self, frame: &Frame) {
        let mut bytes = BytesMut::new();
        frame.encode(&mut bytes);
        (self.emit)(self.query_id, bytes);
    }

    /// Send the open chunk (after the stream header, if this is the
    /// first one) and start the next.
    fn cut(&mut self, last: bool) {
        if let Some(header) = self.header.take() {
            self.emit_frame(&Frame::Reply {
                query_id: self.query_id,
                response: Box::new(Response::QueryStream(header)),
            });
        }
        let frame = self.chunk.cut(self.query_id, self.seq, last);
        (self.emit)(self.query_id, frame);
        self.seq += 1;
        self.budget = 0;
        self.render_us.push(0);
    }

    /// Add one more row to the open chunk with `encode`, which returns
    /// the row's [`row_bytes`]. A full chunk is cut first: this row
    /// proves it is not the last. A full fragment is sent after it.
    fn admit(&mut self, since: &mut Instant, encode: impl FnOnce(&mut ChunkEncoder) -> u64) {
        if self.budget >= CHUNK_BYTES {
            self.charge(since);
            self.cut(false);
        }
        let bytes = encode(&mut self.chunk);
        self.stats.rows += 1;
        self.stats.bytes += bytes;
        self.budget += bytes;
        if self.chunk.encoded() >= FRAGMENT_BYTES {
            let frame = self.chunk.fragment(self.query_id);
            (self.emit)(self.query_id, frame);
        }
    }

    /// Charge the time since `*since` to the open chunk.
    fn charge(&mut self, since: &mut Instant) {
        let now = Instant::now();
        if let Some(us) = self.render_us.last_mut() {
            *us += now.duration_since(*since).as_micros() as u64;
        }
        *since = now;
    }

    /// Close the reply with what the engine call returned: the finished
    /// report of a query (rows empty: they came through the sink), or
    /// any other response. Emits the frames still owed.
    pub fn complete(mut self, response: Response) {
        match response {
            Response::Query(report) if self.seq == 0 && self.stats.bytes <= CHUNK_BYTES => {
                (self.emit)(self.query_id, self.chunk.into_reply(&report));
            }
            Response::Query(report) => self.end(QueryTrailer::of(report)),
            // Rows have left already: the client is owed the end of the
            // stream, and told not to trust what it got.
            Response::Error(error) if self.seq > 0 => self.end(QueryTrailer::failed(error)),
            // Not a query (nothing was pushed), or one that failed
            // before its first chunk was cut: whatever was buffered is
            // dropped, and so are the rows sent ahead, since the reply
            // that follows them is not their query's.
            other => {
                self.query_id = 0;
                self.emit_frame(&Frame::Reply {
                    query_id: 0,
                    response: Box::new(other),
                });
            }
        }
    }

    fn end(&mut self, trailer: QueryTrailer) {
        self.cut(true);
        self.emit_frame(&Frame::ReplyEnd {
            query_id: self.query_id,
            trailer: Box::new(trailer),
        });
    }
}

impl<F: FnMut(u64, BytesMut)> RowSink for WireSink<F> {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        let mut since = Instant::now();
        self.stats.batches += 1;
        for row in rows.drain(..) {
            self.admit(&mut since, |chunk| {
                chunk.push(&row);
                row_bytes(&row)
            });
        }
        self.charge(&mut since);
        Ok(true)
    }

    /// Join matches are encoded straight from their source rows: no
    /// output row is built.
    fn push_pairs(&mut self, batch: &mut PairBatch<'_>) -> TdbResult<bool> {
        let mut since = Instant::now();
        self.stats.batches += 1;
        for &pair in &batch.pairs {
            self.admit(&mut since, |chunk| chunk.push_pair(batch, pair));
        }
        self.charge(&mut since);
        Ok(true)
    }

    fn finish(&mut self) -> SinkStats {
        self.stats
    }
}

impl<F: FnMut(u64, BytesMut)> ReplySink for WireSink<F> {
    fn begin(&mut self, header: QueryReport) {
        self.query_id = header.query_id;
        self.header = Some(header);
    }

    fn render_us(&self) -> Vec<u64> {
        self.render_us.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FrameReader, ReadOutcome, RowsAhead};
    use tdb::core::Value;
    use tdb_engine::{ErrorCode, ErrorInfo, RowSet};

    fn report(query_id: u64) -> QueryReport {
        QueryReport {
            query_id,
            rows: RowSet {
                columns: vec!["P".into()],
                ..RowSet::default()
            },
            ..QueryReport::default()
        }
    }

    /// A row whose `row_bytes` is a little over 1 MiB.
    fn big_row(i: i64) -> Row {
        Row::new(vec![Value::str("x".repeat(1 << 20)), Value::Int(i)])
    }

    /// Row `i` of 1 036 `row_bytes`, its string its own (so it is
    /// encoded inline, in about as many bytes).
    fn kib_row(i: i64) -> Row {
        Row::new(vec![
            Value::str(format!("{i:08}{}", "x".repeat(1008))),
            Value::Int(i),
        ])
    }

    fn decode(wire: &[BytesMut]) -> Vec<Frame> {
        let bytes: Vec<u8> = wire.iter().flat_map(|f| f.iter().copied()).collect();
        let mut reader = FrameReader::new();
        let mut src = &bytes[..];
        let mut frames = Vec::new();
        while let ReadOutcome::Frame(f) = reader.read(&mut src).unwrap() {
            frames.push(f);
        }
        frames
    }

    /// `frames` as a client reads them.
    fn fold(frames: Vec<Frame>) -> Vec<Frame> {
        let mut ahead = RowsAhead::default();
        frames.into_iter().filter_map(|f| ahead.fold(f)).collect()
    }

    #[test]
    fn small_result_travels_as_one_reply() {
        let mut wire = Vec::new();
        let mut sink = WireSink::new(|_, f| wire.push(f));
        sink.begin(report(5));
        let rows = vec![Row::new(vec![Value::str("a")]), Row::new(vec![Value::Null])];
        sink.push(&mut rows.clone()).unwrap();
        let mut done = report(5);
        done.rows.total = 2;
        done.elapsed_us = 9;
        sink.complete(Response::Query(done.clone()));
        done.rows.rows = rows;
        assert_eq!(
            decode(&wire),
            vec![Frame::Reply {
                query_id: 5,
                response: Box::new(Response::Query(done)),
            }]
        );
    }

    /// A result under [`FRAGMENT_BYTES`] sends nothing ahead: its one
    /// frame is, byte for byte, `Frame::encode` of the whole reply.
    #[test]
    fn a_result_under_a_fragment_is_the_plain_reply_byte_for_byte() {
        let rows: Vec<Row> = (0..60).map(kib_row).collect();
        let mut wire = Vec::new();
        let mut sink = WireSink::new(|_, f| wire.push(f));
        sink.begin(report(4));
        for batch in rows.chunks(7) {
            sink.push(&mut batch.to_vec()).unwrap();
        }
        let mut done = report(4);
        done.rows.total = 60;
        sink.complete(Response::Query(done.clone()));
        done.rows.rows = rows;
        let mut want = BytesMut::new();
        Frame::Reply {
            query_id: 4,
            response: Box::new(Response::Query(done)),
        }
        .encode(&mut want);
        assert!(want.len() < FRAGMENT_BYTES && want.len() > FRAGMENT_BYTES * 7 / 8);
        assert_eq!(wire, vec![want]);
    }

    /// Past [`FRAGMENT_BYTES`] but within the chunk budget: rows go ahead,
    /// and the one `Reply` that follows carries the rest.
    #[test]
    fn a_result_within_the_budget_is_fragments_and_one_reply() {
        let rows: Vec<Row> = (0..1000).map(kib_row).collect();
        let mut wire = Vec::new();
        let mut sink = WireSink::new(|_, f| wire.push(f));
        sink.begin(report(6));
        sink.push(&mut rows.clone()).unwrap();
        let mut done = report(6);
        done.rows.total = 1000;
        sink.complete(Response::Query(done.clone()));
        let frames = decode(&wire);
        let (last, ahead) = frames.split_last().unwrap();
        assert_eq!(
            ahead.len(),
            1000 * 1036 / FRAGMENT_BYTES,
            "{} frames",
            frames.len()
        );
        assert!(ahead
            .iter()
            .all(|f| matches!(f, Frame::ReplyRows { query_id: 6, .. })));
        assert!(matches!(last, Frame::Reply { query_id: 6, .. }));
        done.rows.rows = rows;
        assert_eq!(
            fold(frames),
            vec![Frame::Reply {
                query_id: 6,
                response: Box::new(Response::Query(done)),
            }]
        );
    }

    #[test]
    fn large_result_streams_header_chunks_trailer() {
        let mut wire = Vec::new();
        let mut sink = WireSink::new(|id, f| wire.push((id, f)));
        sink.begin(report(7));
        // 4 rows fill the budget; the 5th proves the chunk is not last.
        for i in 0..4 {
            sink.push(&mut vec![big_row(i)]).unwrap();
        }
        assert_eq!(
            sink.seq, 0,
            "a full chunk waits for proof it is not the last"
        );
        sink.push(&mut vec![big_row(4), big_row(5)]).unwrap();
        assert_eq!(sink.seq, 1);
        assert_eq!(sink.render_us().len(), 2);
        let mut done = report(7);
        done.rows.total = 6;
        sink.complete(Response::Query(done.clone()));
        assert!(wire.iter().all(|(id, _)| *id == 7));
        let frames = decode(&wire.into_iter().map(|(_, f)| f).collect::<Vec<_>>());
        let ahead = |f: &Frame| matches!(f, Frame::ReplyRows { .. });
        assert_eq!(
            frames.iter().filter(|f| ahead(f)).count(),
            6,
            "each row past a fragment goes ahead on its own"
        );
        let chunk = |seq, last, rows: std::ops::Range<i64>| Frame::ReplyChunk {
            query_id: 7,
            seq,
            last,
            rows: rows.map(big_row).collect(),
        };
        assert_eq!(
            fold(frames),
            vec![
                Frame::Reply {
                    query_id: 7,
                    response: Box::new(Response::QueryStream(report(7))),
                },
                chunk(0, false, 0..4),
                chunk(1, true, 4..6),
                Frame::ReplyEnd {
                    query_id: 7,
                    trailer: Box::new(QueryTrailer::of(done)),
                },
            ]
        );
    }

    #[test]
    fn error_after_rows_left_ends_the_stream_with_it() {
        let mut wire = Vec::new();
        let mut sink = WireSink::new(|_, f| wire.push(f));
        sink.begin(report(3));
        for i in 0..5 {
            sink.push(&mut vec![big_row(i)]).unwrap();
        }
        let error = ErrorInfo::new(ErrorCode::Protocol, "broke");
        sink.complete(Response::Error(error.clone()));
        let frames = fold(decode(&wire));
        assert_eq!(frames.len(), 4, "header, two chunks, trailer");
        assert!(matches!(frames[2], Frame::ReplyChunk { last: true, .. }));
        assert_eq!(
            frames[3],
            Frame::ReplyEnd {
                query_id: 3,
                trailer: Box::new(QueryTrailer::failed(error)),
            }
        );
    }

    #[test]
    fn error_before_anything_left_is_a_plain_reply() {
        let mut wire = Vec::new();
        let mut sink = WireSink::new(|id, f| wire.push((id, f)));
        sink.begin(report(3));
        sink.push(&mut vec![big_row(0)]).unwrap();
        let error = Response::Error(ErrorInfo::new(ErrorCode::Protocol, "broke"));
        sink.complete(error.clone());
        // The row went ahead under the query's id; the error's reply is
        // not the query's, so a client drops it.
        let ids: Vec<u64> = wire.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [3, 0]);
        assert!(matches!(
            decode(&[wire.remove(0).1])[..],
            [Frame::ReplyRows { query_id: 3, .. }]
        ));
        assert_eq!(
            decode(&[wire.remove(0).1]),
            vec![Frame::Reply {
                query_id: 0,
                response: Box::new(error),
            }]
        );
    }
}
