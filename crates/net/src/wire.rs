//! Frame layout and incremental framing.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! [u32 LE payload length][u8 version = 4][u8 kind][body …]
//! ```
//!
//! The length counts everything after itself (version + kind + body), so
//! a reader can skip frames it cannot decode. Client→server kinds sit in
//! `1..=15`, server→client kinds in `16..=31`; the body of each kind is
//! encoded with the same [`Codec`] conventions the storage layer uses
//! (little-endian, `u32`-prefixed strings, defensive decode to
//! [`TdbError::Corrupt`]). Rows travel as the engine codec's row lists,
//! each string once per list.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use tdb::core::{Row, TdbError, TdbResult};
use tdb::storage::codec::decode_str;
use tdb::storage::Codec;
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
/// references into a table local to the list.
pub const PROTOCOL_VERSION: u8 = 4;

/// Hard ceiling on a frame's declared payload length. A corrupt or
/// hostile length prefix fails fast instead of driving a giant
/// allocation.
pub const MAX_FRAME: usize = 64 << 20;

const KIND_INPUT: u8 = 1;
const KIND_INGEST: u8 = 2;
const KIND_BYE: u8 = 3;
const KIND_STATS: u8 = 4;
const KIND_REPLY: u8 = 16;
const KIND_PUSH: u8 = 17;
const KIND_SHUTDOWN: u8 = 18;
const KIND_REPLY_CHUNK: u8 = 19;
const KIND_REPLY_END: u8 = 20;

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
    /// Server→client, unsolicited: rows finalized for a subscription
    /// this connection registered, stamped with the epoch and watermark
    /// that closed them.
    Push(DeltaFrame),
    /// Server→client, unsolicited: the server is draining for shutdown;
    /// no further requests will be answered.
    Shutdown,
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Input(_) => KIND_INPUT,
            Frame::Ingest { .. } => KIND_INGEST,
            Frame::Stats => KIND_STATS,
            Frame::Bye => KIND_BYE,
            Frame::Reply { .. } => KIND_REPLY,
            Frame::ReplyChunk { .. } => KIND_REPLY_CHUNK,
            Frame::ReplyEnd { .. } => KIND_REPLY_END,
            Frame::Push(_) => KIND_PUSH,
            Frame::Shutdown => KIND_SHUTDOWN,
        }
    }

    /// Encode this frame — length prefix included — onto a buffer.
    pub fn encode(&self, buf: &mut BytesMut) {
        let start = begin_frame(buf, self.kind());
        match self {
            Frame::Input(text) => put_str(buf, text),
            Frame::Ingest { relation, lines } => {
                put_str(buf, relation);
                put_str(buf, lines);
            }
            Frame::Stats | Frame::Bye | Frame::Shutdown => {}
            Frame::Reply { query_id, response } => {
                buf.put_u64_le(*query_id);
                response.encode(buf);
            }
            Frame::ReplyChunk {
                query_id,
                seq,
                last,
                rows,
            } => {
                put_chunk_header(buf, *query_id, *seq, *last);
                put_rows(buf, rows);
            }
            Frame::ReplyEnd { query_id, trailer } => {
                buf.put_u64_le(*query_id);
                trailer.encode(buf);
            }
            Frame::Push(delta) => delta.encode(buf),
        }
        end_frame(buf, start);
    }

    /// Decode one frame from its payload (version + kind + body, the
    /// length prefix already consumed).
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
        match payload.get_u8() {
            KIND_INPUT => Ok(Frame::Input(get_str(&mut payload)?)),
            KIND_INGEST => Ok(Frame::Ingest {
                relation: get_str(&mut payload)?,
                lines: get_str(&mut payload)?,
            }),
            KIND_STATS => Ok(Frame::Stats),
            KIND_BYE => Ok(Frame::Bye),
            KIND_REPLY => {
                if payload.remaining() < 8 {
                    return Err(TdbError::Corrupt("truncated reply header".into()));
                }
                let query_id = payload.get_u64_le();
                Ok(Frame::Reply {
                    query_id,
                    response: Box::new(Response::decode(&mut payload)?),
                })
            }
            KIND_REPLY_CHUNK => {
                if payload.remaining() < 13 {
                    return Err(TdbError::Corrupt("truncated reply chunk header".into()));
                }
                let query_id = payload.get_u64_le();
                let seq = payload.get_u32_le();
                let last = payload.get_u8() != 0;
                Ok(Frame::ReplyChunk {
                    query_id,
                    seq,
                    last,
                    rows: get_rows(&mut payload)?,
                })
            }
            KIND_REPLY_END => {
                if payload.remaining() < 8 {
                    return Err(TdbError::Corrupt("truncated reply trailer header".into()));
                }
                let query_id = payload.get_u64_le();
                Ok(Frame::ReplyEnd {
                    query_id,
                    trailer: Box::new(QueryTrailer::decode(&mut payload)?),
                })
            }
            KIND_PUSH => Ok(Frame::Push(DeltaFrame::decode(&mut payload)?)),
            KIND_SHUTDOWN => Ok(Frame::Shutdown),
            k => Err(TdbError::Corrupt(format!("unknown frame kind {k}"))),
        }
    }

    /// Encode and write this frame to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> TdbResult<()> {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        w.write_all(&buf)?;
        Ok(())
    }
}

/// Start a frame on `buf`: a length prefix to be filled in by
/// [`end_frame`] (so the body is written once, in place, behind it),
/// then version and kind. Returns where the frame starts.
fn begin_frame(buf: &mut BytesMut, kind: u8) -> usize {
    let start = buf.len();
    buf.put_u32_le(0);
    buf.put_u8(PROTOCOL_VERSION);
    buf.put_u8(kind);
    start
}

/// Back-patch the length prefix of the frame begun at `start`.
fn end_frame(buf: &mut BytesMut, start: usize) {
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_chunk_header(buf: &mut BytesMut, query_id: u64, seq: u32, last: bool) {
    buf.put_u64_le(query_id);
    buf.put_u32_le(seq);
    buf.put_u8(u8::from(last));
}

/// Bytes of a `ReplyChunk` frame before its first row: length prefix,
/// version, kind, [`put_chunk_header`]'s fields, and the row count.
const CHUNK_PREFIX: usize = 4 + 2 + 8 + 4 + 1 + 4;

/// A [`Frame::ReplyChunk`] encoded incrementally: rows are appended to
/// its row list as they are produced, and the frame header — which
/// needs the row count and whether this is the last chunk — is written
/// into the space reserved for it when the chunk is cut. The bytes are
/// exactly what [`Frame::encode`] yields for the same chunk, a pair
/// standing for the row [`PairBatch::row`] builds.
#[derive(Debug)]
pub struct ChunkEncoder {
    buf: BytesMut,
    list: RowListEncoder,
}

impl Default for ChunkEncoder {
    fn default() -> ChunkEncoder {
        ChunkEncoder {
            buf: chunk_buf(0),
            list: RowListEncoder::default(),
        }
    }
}

/// An empty chunk's buffer: room for `bytes`, the prefix reserved.
fn chunk_buf(bytes: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(bytes.max(CHUNK_PREFIX));
    buf.put_slice(&[0; CHUNK_PREFIX]);
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

    /// Rows appended so far.
    pub fn rows(&self) -> u32 {
        self.list.rows()
    }

    /// Cut the chunk: the finished frame, length prefix included. The
    /// encoder is left empty, ready for the next chunk — which, unless
    /// this was the last, is sized like this one up front instead of
    /// being grown to it again.
    pub fn cut(&mut self, query_id: u64, seq: u32, last: bool) -> BytesMut {
        let next = chunk_buf(if last { 0 } else { self.buf.len() });
        let mut frame = std::mem::replace(&mut self.buf, next);
        let mut head = BytesMut::with_capacity(CHUNK_PREFIX);
        let start = begin_frame(&mut head, KIND_REPLY_CHUNK);
        put_chunk_header(&mut head, query_id, seq, last);
        head.put_u32_le(self.list.rows());
        self.list.reset();
        frame[..CHUNK_PREFIX].copy_from_slice(&head);
        end_frame(&mut frame, start);
        frame
    }

    /// Finish as a whole `Reply` frame instead: `Response::Query(report)`
    /// with the appended rows as its `rows.rows` — a result small enough
    /// to travel in one piece.
    pub fn into_reply(self, report: &QueryReport) -> BytesMut {
        let rows = &self.buf[CHUNK_PREFIX..];
        let mut frame = BytesMut::with_capacity(rows.len() + 256);
        let start = begin_frame(&mut frame, KIND_REPLY);
        frame.put_u64_le(report.query_id);
        put_query_with_rows(&mut frame, report, self.list.rows(), rows);
        end_frame(&mut frame, start);
        frame
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> TdbResult<String> {
    decode_str(buf, str::to_owned)
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
        let rows: Vec<tdb::prelude::Row> = (0..3)
            .map(|i| {
                tdb::prelude::Row::new(vec![
                    tdb::core::Value::str(format!("S{i}")),
                    tdb::core::Value::Int(i),
                    tdb::core::Value::Null,
                ])
            })
            .collect();
        let mut enc = ChunkEncoder::new();
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
            assert_eq!(enc.cut(11, seq, last), want);
            assert_eq!(enc.rows(), 0);
        }
    }

    #[test]
    fn wrong_version_and_oversized_frames_are_corrupt() {
        let mut payload = BytesMut::new();
        payload.put_u8(9);
        payload.put_u8(KIND_BYE);
        let err = Frame::decode_payload(payload.freeze()).unwrap_err();
        assert!(matches!(err, TdbError::Corrupt(_)), "{err}");

        let mut reader = FrameReader::new();
        let err = reader.read(&mut &u32::MAX.to_le_bytes()[..]).unwrap_err();
        assert!(matches!(err, TdbError::Corrupt(_)), "{err}");
    }
}
