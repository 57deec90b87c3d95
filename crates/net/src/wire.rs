//! Frame layout and incremental framing.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! [u32 LE payload length][u8 version = 9][u8 kind][body …]
//! ```
//!
//! The length counts everything after itself (version + kind + body), so
//! a reader can skip frames it cannot decode. Client→server kinds sit in
//! `1..=15`, server→client kinds in `16..=31`. The kind byte and the
//! body are written by `tdb-storage`'s [`wire_enum!`] from the one list
//! of kinds and fields below, with the storage
//! [`Codec`](tdb::storage::Codec) conventions (little-endian,
//! `u32`-prefixed strings, defensive decode to [`TdbError::Corrupt`]); a
//! payload with bytes left over after its body is `Corrupt` too. Rows
//! travel as the engine codec's row lists, each string once per list.
//!
//! The frames, by kind:
//!
//! ```text
//! client→server  1 Input   2 Ingest   3 Bye   4 Stats
//! server→client 16 Reply  17 Push    18 Shutdown
//!               19 ReplyChunk  20 ReplyEnd  21 ReplyRows
//! ```

use crate::sink::FRAGMENT_BYTES;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use tdb::core::{Row, TdbError, TdbResult};
use tdb::storage::wire_enum;
use tdb::stream::PairBatch;
use tdb_engine::codec::{get_rows, put_query_with_rows, put_rows, RowListEncoder};
use tdb_engine::{DeltaFrame, QueryReport, QueryTrailer, Response};

/// Wire protocol version stamped into every frame. A server or client
/// that sees a different version rejects the frame as corrupt rather
/// than guessing at the body layout. Version 2 added the `query_id`
/// correlation field to [`Frame::Reply`] and [`Frame::ReplyChunk`];
/// version 3 sends a streamed result's header before the query has
/// finished and closes the stream with [`Frame::ReplyEnd`]; version 4
/// writes every row vector as a row list, whose repeated strings are
/// references into a table local to the list; version 5 names each
/// subscription's mode in the live status; version 6 drops the ingest
/// queue's stall count, depth and capacity from the live status and the
/// live telemetry; version 7 drops the partition count from each
/// operator span of a query trace; version 8 adds the heap pages read
/// to a query's stats and its trace, and retires error code 12; version
/// 9 adds [`Frame::ReplyRows`], a query's rows sent ahead of the reply or
/// chunk they belong to.
pub const PROTOCOL_VERSION: u8 = 9;

/// Hard ceiling on a frame's declared payload length. A corrupt or
/// hostile length prefix fails fast instead of driving a giant
/// allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// `Frame::Reply`'s kind in the list below.
const KIND_REPLY: u8 = 16;
/// `Frame::ReplyRows`'s kind in the list below.
const KIND_REPLY_ROWS: u8 = 21;

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client→server: one complete shell input (`\command` or query
    /// text). Answered by exactly one [`Frame::Reply`].
    Input(String),
    /// Client→server: live-append arrival lines into a relation. The
    /// client resolves files and stdin locally; only text crosses the
    /// wire. Answered by exactly one [`Frame::Reply`].
    Ingest {
        /// Target relation (auto-registered on first ingest).
        relation: String,
        /// Arrival lines, `<ts> <te> [id [seq]]` each.
        lines: String,
    },
    /// Client→server: ask for the observability snapshot, with the
    /// serving layer's network counters merged in. Answered by exactly
    /// one [`Frame::Reply`] carrying `Response::Stats`.
    Stats,
    /// Client→server: orderly goodbye; the server drops the connection
    /// without replying.
    Bye,
    /// Server→client: the response to the client's oldest unanswered
    /// request. Boxed so queued [`Frame::Push`] values don't pay the
    /// largest variant's footprint.
    Reply {
        /// The server-minted id of the query this reply answers (0 for
        /// commands and other non-query replies), so a client RTT
        /// sample, the server's trace, and the slow-query log all name
        /// the same execution.
        query_id: u64,
        /// The response body.
        response: Box<Response>,
    },
    /// Server→client: one chunk of a streamed query result. Follows a
    /// [`Frame::Reply`] carrying `Response::QueryStream` (the header);
    /// chunks arrive in `seq` order and `last` marks the final one, so a
    /// result of any size crosses the wire without any single frame
    /// approaching [`MAX_FRAME`]. A [`Frame::ReplyEnd`] follows the last
    /// chunk.
    ReplyChunk {
        /// The id of the query being streamed (see [`Frame::Reply`]).
        query_id: u64,
        /// Chunk ordinal, starting at 0.
        seq: u32,
        /// `true` on the final chunk of the result (which may be empty).
        last: bool,
        /// The rows in this chunk, one row list on the wire.
        rows: Vec<Row>,
    },
    /// Server→client: closes a streamed query result with what was not
    /// yet known when its header left — the stream started while the
    /// query was still running.
    ReplyEnd {
        /// The id of the query that was streamed.
        query_id: u64,
        /// Final totals, stats, timing and trace (or the error that
        /// broke the stream off).
        trailer: Box<QueryTrailer>,
    },
    /// Server→client: rows of a query's reply sent ahead of the frame
    /// they belong to, so the client decodes them while the query runs.
    /// They go in front of the rows of the query's next
    /// [`Frame::Reply`] carrying `Response::Query`, or of its next
    /// [`Frame::ReplyChunk`]; a stream header between them and that
    /// chunk leaves them in place. Any other frame of a reply drops them
    /// (the query failed before they were owed to anyone).
    ReplyRows {
        /// The id of the query the rows belong to (see [`Frame::Reply`]).
        query_id: u64,
        /// The rows, one row list on the wire with its own string table.
        rows: Vec<Row>,
    },
    /// Server→client, unsolicited: rows finalized for a subscription
    /// this connection registered, stamped with the epoch and watermark
    /// that closed them.
    Push(DeltaFrame),
    /// Server→client, unsolicited: the server is draining for shutdown;
    /// no further requests will be answered.
    Shutdown,
}

wire_enum!(fn put_body, get_body: Frame {
    1 => Input(String),
    2 => Ingest { relation, lines },
    3 => Bye,
    4 => Stats,
    16 => Reply { query_id, response },
    17 => Push(DeltaFrame),
    18 => Shutdown,
    19 => ReplyChunk {
        query_id,
        seq,
        last,
        rows: with(put_rows, get_rows),
    },
    20 => ReplyEnd { query_id, trailer },
    21 => ReplyRows {
        query_id,
        rows: with(put_rows, get_rows),
    },
});

impl Frame {
    /// Encode this frame — length prefix included — onto a buffer.
    pub fn encode(&self, buf: &mut BytesMut) {
        let start = begin_frame(buf);
        put_body(buf, self);
        end_frame(buf, start);
    }

    /// Decode one frame from its payload (version + kind + body, the
    /// length prefix already consumed). Bytes left over after the body
    /// are `Corrupt`.
    pub fn decode_payload(mut payload: Bytes) -> TdbResult<Frame> {
        if payload.remaining() < 2 {
            return Err(TdbError::Corrupt("frame shorter than header".into()));
        }
        let version = payload.get_u8();
        if version != PROTOCOL_VERSION {
            return Err(TdbError::Corrupt(format!(
                "protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let frame = get_body(&mut payload)?;
        if !payload.is_empty() {
            return Err(TdbError::Corrupt(format!(
                "{} trailing bytes after the frame body",
                payload.len()
            )));
        }
        Ok(frame)
    }

    /// Encode and write this frame to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> TdbResult<()> {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        w.write_all(&buf)?;
        Ok(())
    }
}

/// Is `frame` — an encoded frame, length prefix included — a
/// [`Frame::ReplyRows`]?
pub(crate) fn is_reply_rows(frame: &[u8]) -> bool {
    frame.get(5) == Some(&KIND_REPLY_ROWS)
}

/// The rows a reader holds for the frame they were sent ahead of: the
/// one place the rule of [`Frame::ReplyRows`] is written.
#[derive(Debug, Default)]
pub struct RowsAhead {
    query_id: u64,
    rows: Vec<Row>,
}

impl RowsAhead {
    /// Take in `frame`, the next one read. A [`Frame::ReplyRows`] is held
    /// (`None`). Its query's next [`Frame::Reply`] carrying
    /// `Response::Query`, or next [`Frame::ReplyChunk`], comes back with
    /// the held rows in front of its own; the query's stream header, a
    /// [`Frame::Push`], or rows of the same query leave them held; any
    /// other frame drops them.
    pub fn fold(&mut self, mut frame: Frame) -> Option<Frame> {
        let rows = match &mut frame {
            Frame::ReplyRows { query_id, rows } => {
                if *query_id != self.query_id {
                    self.rows.clear();
                    self.query_id = *query_id;
                }
                self.rows.append(rows);
                return None;
            }
            Frame::Push(_) => return Some(frame),
            Frame::Reply { query_id, response } if *query_id == self.query_id => {
                match &mut **response {
                    Response::Query(report) => Some(&mut report.rows.rows),
                    Response::QueryStream(_) => return Some(frame),
                    _ => None,
                }
            }
            Frame::ReplyChunk { query_id, rows, .. } if *query_id == self.query_id => Some(rows),
            _ => None,
        };
        match rows {
            Some(rows) if !self.rows.is_empty() => {
                self.rows.append(rows);
                *rows = std::mem::take(&mut self.rows);
            }
            _ => self.rows.clear(),
        }
        Some(frame)
    }
}

/// Start a frame on `buf`: a length prefix to be filled in by
/// [`end_frame`] (so the body is written once, in place, behind it),
/// then the version. Returns where the frame starts.
fn begin_frame(buf: &mut BytesMut) -> usize {
    let start = buf.len();
    buf.put_u32_le(0);
    buf.put_u8(PROTOCOL_VERSION);
    start
}

/// Back-patch the length prefix of the frame begun at `start`.
fn end_frame(buf: &mut BytesMut, start: usize) {
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Bytes of a `ReplyRows` frame before its first row: length prefix,
/// version, kind, `query_id`, and the row count — the whole frame of a
/// fragment without rows.
const ROWS_PREFIX: usize = 4 + 2 + 8 + 4;

/// A chunk's rows encoded incrementally: rows are appended to a row list
/// as they are produced, and the frame that carries them — a
/// [`Frame::ReplyRows`] sent ahead, the chunk's [`Frame::ReplyChunk`],
/// or a whole `Reply` — is finished around them once it is known which
/// it is. Each frame's bytes are exactly what [`Frame::encode`] yields
/// for it, a pair standing for the row [`PairBatch::row`] builds.
#[derive(Debug)]
pub struct ChunkEncoder {
    /// A `ReplyRows` frame's prefix, reserved, then the open list's rows.
    buf: BytesMut,
    list: RowListEncoder,
}

impl Default for ChunkEncoder {
    fn default() -> ChunkEncoder {
        ChunkEncoder {
            buf: rows_buf(),
            list: RowListEncoder::default(),
        }
    }
}

/// An empty row list's buffer, the fragment prefix reserved: room for one
/// fragment, and for the row that takes it past [`FRAGMENT_BYTES`].
fn rows_buf() -> BytesMut {
    let mut buf = BytesMut::with_capacity(ROWS_PREFIX + FRAGMENT_BYTES + FRAGMENT_BYTES / 16);
    buf.put_slice(&[0; ROWS_PREFIX]);
    buf
}

impl ChunkEncoder {
    /// An empty chunk.
    pub fn new() -> ChunkEncoder {
        ChunkEncoder::default()
    }

    /// Append one row.
    pub fn push(&mut self, row: &Row) {
        self.list.push_row(&mut self.buf, row);
    }

    /// Append the output row of join match `pair`, encoded from
    /// `batch`'s source rows without building it. Returns the row's
    /// [`row_bytes`](tdb::stream::row_bytes).
    pub fn push_pair(&mut self, batch: &PairBatch<'_>, pair: (u32, u32)) -> u64 {
        self.list.push_pair(&mut self.buf, batch, pair)
    }

    /// Rows appended since the last frame was finished.
    pub fn rows(&self) -> u32 {
        self.list.rows()
    }

    /// Encoded bytes of those rows.
    pub fn encoded(&self) -> usize {
        self.buf.len() - ROWS_PREFIX
    }

    /// Send the rows appended so far ahead of the chunk: the finished
    /// [`Frame::ReplyRows`], length prefix included, written in place
    /// around them. The encoder is left empty; the next row opens a new
    /// list, with a new string table.
    pub fn fragment(&mut self, query_id: u64) -> BytesMut {
        let mut frame = std::mem::replace(&mut self.buf, rows_buf());
        let head = self.head(&Frame::ReplyRows {
            query_id,
            rows: Vec::new(),
        });
        frame[..ROWS_PREFIX].copy_from_slice(&head);
        end_frame(&mut frame, 0);
        frame
    }

    /// Cut the chunk: the finished [`Frame::ReplyChunk`] carrying the
    /// rows appended since the last fragment, length prefix included. The
    /// encoder is left empty, ready for the next chunk.
    pub fn cut(&mut self, query_id: u64, seq: u32, last: bool) -> BytesMut {
        let rows = std::mem::replace(&mut self.buf, rows_buf());
        let mut frame = self.head(&Frame::ReplyChunk {
            query_id,
            seq,
            last,
            rows: Vec::new(),
        });
        frame.put_slice(&rows[ROWS_PREFIX..]);
        end_frame(&mut frame, 0);
        frame
    }

    /// The frame `empty` — one whose row list is last and empty — with the
    /// open list's row count in place, to go in front of its rows. Closes
    /// the list.
    fn head(&mut self, empty: &Frame) -> BytesMut {
        let mut head = BytesMut::new();
        empty.encode(&mut head);
        let at = head.len() - 4;
        head[at..].copy_from_slice(&self.list.rows().to_le_bytes());
        self.list.reset();
        head
    }

    /// Finish as a whole `Reply` frame instead: `Response::Query(report)`
    /// with the rows appended since the last fragment as its `rows.rows`
    /// — a result small enough to travel in one piece.
    pub fn into_reply(self, report: &QueryReport) -> BytesMut {
        let rows = &self.buf[ROWS_PREFIX..];
        let mut frame = BytesMut::with_capacity(rows.len() + 256);
        let start = begin_frame(&mut frame);
        frame.put_u8(KIND_REPLY);
        frame.put_u64_le(report.query_id);
        put_query_with_rows(&mut frame, report, self.list.rows(), rows);
        end_frame(&mut frame, start);
        frame
    }
}

/// What one [`FrameReader::read`] call produced.
// A `ReadOutcome` lives only on the receive path's stack, one at a
// time; boxing frames to slim the enum would buy nothing but a per-frame
// allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(Frame),
    /// The read timed out (or would block) before a full frame arrived;
    /// partial bytes are retained for the next call.
    Idle,
    /// The peer closed the stream.
    Eof,
}

/// Incremental frame reader. Keeps partially-received frames across
/// read timeouts, so a server thread can poll its shutdown flag between
/// reads without ever losing bytes. Once a frame's length prefix is in,
/// the payload is read straight into a buffer of that size, which then
/// becomes the [`Bytes`] the decoder consumes — no staging copy.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The length prefix, as far as it has arrived.
    prefix: [u8; 4],
    prefix_len: usize,
    /// The payload buffer (sized from the complete prefix) and how much
    /// of it has arrived.
    payload: Option<Vec<u8>>,
    filled: usize,
}

impl FrameReader {
    /// Create an empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Pull bytes from `r` until a full frame is available, the read
    /// times out, or the stream ends.
    pub fn read(&mut self, r: &mut impl Read) -> TdbResult<ReadOutcome> {
        loop {
            if self.payload.is_none() && self.prefix_len == self.prefix.len() {
                let len = u32::from_le_bytes(self.prefix) as usize;
                if len > MAX_FRAME {
                    return Err(TdbError::Corrupt(format!(
                        "frame length {len} exceeds cap {MAX_FRAME}"
                    )));
                }
                self.payload = Some(vec![0; len]);
                self.filled = 0;
            }
            let dst = match &mut self.payload {
                Some(payload) if self.filled == payload.len() => {
                    let payload = std::mem::take(payload);
                    self.payload = None;
                    self.prefix_len = 0;
                    return Frame::decode_payload(Bytes::from(payload)).map(ReadOutcome::Frame);
                }
                Some(payload) => &mut payload[self.filled..],
                None => &mut self.prefix[self.prefix_len..],
            };
            match r.read(dst) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) if self.payload.is_some() => self.filled += n,
                Ok(n) => self.prefix_len += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(ReadOutcome::Idle)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_engine::{ErrorCode, ErrorInfo};

    #[test]
    fn frames_survive_byte_at_a_time_delivery() {
        // Deliver one byte per read: every partial prefix must be Idle.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let frames = vec![
            Frame::Input("\\tables".into()),
            Frame::Ingest {
                relation: "S".into(),
                lines: "10 20 a\n".into(),
            },
            Frame::Reply {
                query_id: 0,
                response: Box::new(Response::Error(ErrorInfo::new(ErrorCode::Protocol, "nope"))),
            },
            Frame::Stats,
            Frame::Reply {
                query_id: 99,
                response: Box::new(Response::Stats(tdb_engine::StatsReport::default())),
            },
            Frame::ReplyChunk {
                query_id: 99,
                seq: 7,
                last: false,
                rows: vec![tdb::prelude::Row::new(vec![
                    tdb::core::Value::str("chunked"),
                    tdb::core::Value::Int(42),
                ])],
            },
            Frame::ReplyRows {
                query_id: 99,
                rows: vec![tdb::prelude::Row::new(vec![
                    tdb::core::Value::str("ahead"),
                    tdb::core::Value::str("ahead"),
                ])],
            },
            Frame::ReplyChunk {
                query_id: 99,
                seq: 8,
                last: true,
                rows: Vec::new(),
            },
            Frame::ReplyEnd {
                query_id: 99,
                trailer: Box::new(QueryTrailer::failed(ErrorInfo::new(
                    ErrorCode::Protocol,
                    "broke off",
                ))),
            },
            Frame::Bye,
            Frame::Shutdown,
        ];
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut src = Trickle(&wire, 0);
        loop {
            match reader.read(&mut src).unwrap() {
                ReadOutcome::Frame(f) => decoded.push(f),
                ReadOutcome::Idle => unreachable!("trickle source never blocks"),
                ReadOutcome::Eof => break,
            }
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn chunk_encoder_yields_the_frame_encoding() {
        let row = |i: i64| {
            tdb::prelude::Row::new(vec![
                tdb::core::Value::str(format!("S{i}")),
                tdb::core::Value::Int(i),
                tdb::core::Value::Null,
            ])
        };
        let rows: Vec<tdb::prelude::Row> = (0..3).map(row).collect();
        let mut enc = ChunkEncoder::new();
        // Rows sent ahead, then the chunk's rest; each frame a list of
        // its own.
        for row in &rows {
            enc.push(row);
        }
        assert!(enc.encoded() > 0);
        let mut want = BytesMut::new();
        Frame::ReplyRows {
            query_id: 11,
            rows: rows.clone(),
        }
        .encode(&mut want);
        let ahead = enc.fragment(11);
        assert!(is_reply_rows(&ahead));
        assert_eq!(ahead, want);
        assert_eq!((enc.rows(), enc.encoded()), (0, 0));
        for (seq, last) in [(4u32, false), (5, true)] {
            for row in &rows {
                enc.push(row);
            }
            assert_eq!(enc.rows(), 3);
            let mut want = BytesMut::new();
            Frame::ReplyChunk {
                query_id: 11,
                seq,
                last,
                rows: rows.clone(),
            }
            .encode(&mut want);
            let chunk = enc.cut(11, seq, last);
            assert!(!is_reply_rows(&chunk));
            assert_eq!(chunk, want);
            assert_eq!(enc.rows(), 0);
        }
    }

    #[test]
    fn wrong_version_and_oversized_frames_are_corrupt() {
        let mut payload = BytesMut::new();
        payload.put_u8(PROTOCOL_VERSION + 1);
        payload.put_u8(3); // Bye
        let err = Frame::decode_payload(payload.freeze()).unwrap_err();
        assert!(matches!(err, TdbError::Corrupt(_)), "{err}");

        let mut reader = FrameReader::new();
        let err = reader.read(&mut &u32::MAX.to_le_bytes()[..]).unwrap_err();
        assert!(matches!(err, TdbError::Corrupt(_)), "{err}");
    }
}
