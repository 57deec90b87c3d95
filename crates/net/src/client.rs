//! Blocking TCP client for the framed protocol.
//!
//! A background reader thread demultiplexes incoming frames into two
//! queues: replies (answers to this client's requests, in order) and
//! pushes (unsolicited subscription deltas). [`Client::request`] is
//! therefore a plain call-and-wait while deltas accumulate on the side,
//! to be drained with [`Client::try_push`] / [`Client::wait_push`].

use crate::wire::{Frame, FrameReader, ReadOutcome};
use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;
use tdb::core::{Row, TdbError, TdbResult};
use tdb_engine::{DeltaFrame, QueryReport, QueryTrailer, Response};

/// One query's client-observed round trip, correlated with the server's
/// execution by the id minted there. `rtt_us − server_us` approximates
/// the transport cost (encode + socket + decode + queueing) for that
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttSample {
    /// The server-minted query id this sample belongs to.
    pub query_id: u64,
    /// Wall-clock microseconds from sending the request to holding the
    /// complete reply (all chunks, for a streamed result).
    pub rtt_us: u64,
    /// The server's own execute-stage wall clock for the same query.
    pub server_us: u64,
}

/// Recent RTT samples retained per client.
const RTT_RING_CAP: usize = 64;

/// One event of a streamed query result, as seen by
/// [`Client::request_with`].
pub enum StreamEvent<'a> {
    /// The stream header arrived: id, plans and columns, with `rows.rows`
    /// empty. Emitted once, before any rows — the server may still be
    /// running the query, so totals, stats, timing and trace are not in
    /// it yet; they are in the report `request_with` returns.
    Header(&'a QueryReport),
    /// One chunk of result rows, in order.
    Rows(Vec<Row>),
}

/// What follows a stream header, in arrival order.
enum StreamPart {
    Rows {
        seq: u32,
        last: bool,
        rows: Vec<Row>,
    },
    End(QueryTrailer),
}

/// A connection to a `tdb serve` instance.
pub struct Client {
    stream: TcpStream,
    replies: Receiver<(u64, Response)>,
    chunks: Receiver<StreamPart>,
    pushes: Receiver<DeltaFrame>,
    reader: Option<JoinHandle<()>>,
    rtt: VecDeque<RttSample>,
}

/// Outstanding replies are bounded by the call-and-wait protocol (at
/// most one per in-flight request); the push queue bound is the
/// client-side analogue of the server's per-connection push queue — a
/// client that stops draining deltas eventually stops reading its
/// socket, and the server's slow-subscriber overflow handling takes it
/// from there.
const REPLY_QUEUE_BOUND: usize = 16;
const PUSH_QUEUE_BOUND: usize = 1024;
/// Result chunks in flight between the reader thread and the request
/// call draining them. A small bound suffices: once it fills, the reader
/// thread stalls and TCP backpressure reaches the server.
const CHUNK_QUEUE_BOUND: usize = 16;

fn reader_loop(
    mut stream: TcpStream,
    replies: &SyncSender<(u64, Response)>,
    chunks: &SyncSender<StreamPart>,
    pushes: &SyncSender<DeltaFrame>,
) {
    let mut reader = FrameReader::new();
    loop {
        match reader.read(&mut stream) {
            Ok(ReadOutcome::Frame(Frame::Reply { query_id, response })) => {
                if replies.send((query_id, *response)).is_err() {
                    break;
                }
            }
            Ok(ReadOutcome::Frame(Frame::ReplyChunk {
                seq, last, rows, ..
            })) => {
                if chunks.send(StreamPart::Rows { seq, last, rows }).is_err() {
                    break;
                }
            }
            Ok(ReadOutcome::Frame(Frame::ReplyEnd { trailer, .. })) => {
                if chunks.send(StreamPart::End(*trailer)).is_err() {
                    break;
                }
            }
            Ok(ReadOutcome::Frame(Frame::Push(delta))) => {
                let _ = pushes.send(delta);
            }
            // The server is draining; nothing more will arrive.
            Ok(ReadOutcome::Frame(Frame::Shutdown)) => break,
            // Client-direction frames are a server bug; bail out.
            Ok(ReadOutcome::Frame(_)) => break,
            Ok(ReadOutcome::Idle) => {}
            Ok(ReadOutcome::Eof) | Err(_) => break,
        }
    }
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> TdbResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (reply_tx, replies) = sync_channel(REPLY_QUEUE_BOUND);
        let (chunk_tx, chunks) = sync_channel(CHUNK_QUEUE_BOUND);
        let (push_tx, pushes) = sync_channel(PUSH_QUEUE_BOUND);
        let reader =
            std::thread::spawn(move || reader_loop(read_half, &reply_tx, &chunk_tx, &push_tx));
        Ok(Client {
            stream,
            replies,
            chunks,
            pushes,
            reader: Some(reader),
            rtt: VecDeque::new(),
        })
    }

    fn send(&mut self, frame: &Frame) -> TdbResult<()> {
        frame.write_to(&mut self.stream)
    }

    fn await_reply(&mut self) -> TdbResult<(u64, Response)> {
        self.replies
            .recv_timeout(Duration::from_secs(30))
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => {
                    TdbError::Eval("timed out waiting for server reply".into())
                }
                RecvTimeoutError::Disconnected => {
                    TdbError::Eval("server closed the connection".into())
                }
            })
    }

    /// Retain one RTT sample (queries only — command replies carry id 0).
    fn note_rtt(&mut self, query_id: u64, rtt_us: u64, response: &Response) {
        if query_id == 0 {
            return;
        }
        let server_us = match response {
            Response::Query(q) | Response::QueryStream(q) => q.elapsed_us,
            _ => 0,
        };
        if self.rtt.len() == RTT_RING_CAP {
            self.rtt.pop_front();
        }
        self.rtt.push_back(RttSample {
            query_id,
            rtt_us,
            server_us,
        });
    }

    /// The most recent query round trips, oldest first.
    pub fn rtt_samples(&self) -> Vec<RttSample> {
        self.rtt.iter().copied().collect()
    }

    /// Send one complete input (command or query) and wait for its
    /// typed reply. A streamed result (`Response::QueryStream` plus chunk
    /// frames) is reassembled into a plain `Response::Query`, so callers
    /// see one materialized reply regardless of how it crossed the wire.
    pub fn request(&mut self, text: &str) -> TdbResult<Response> {
        let mut collected: Vec<Row> = Vec::new();
        let resp = self.request_with(text, |ev| {
            if let StreamEvent::Rows(rows) = ev {
                collected.extend(rows);
            }
        })?;
        match resp {
            Response::QueryStream(mut q) => {
                q.rows.rows = collected;
                Ok(Response::Query(q))
            }
            other => Ok(other),
        }
    }

    /// Send one complete input and consume the reply incrementally: for a
    /// streamed result, `on_event` sees the header once and then each row
    /// chunk as it arrives off the socket — while the server is still
    /// producing the rest — and the returned response is the
    /// `Response::QueryStream` header completed by the stream's trailer
    /// (its `rows.rows` stays empty — the rows went to `on_event`). A
    /// stream the server broke off returns its `Response::Error`.
    /// Non-streamed replies are returned unchanged and `on_event` is
    /// never called.
    pub fn request_with(
        &mut self,
        text: &str,
        mut on_event: impl FnMut(StreamEvent<'_>),
    ) -> TdbResult<Response> {
        let sent = std::time::Instant::now();
        self.send(&Frame::Input(text.to_string()))?;
        let (query_id, resp) = self.await_reply()?;
        let Response::QueryStream(header) = resp else {
            self.note_rtt(query_id, sent.elapsed().as_micros() as u64, &resp);
            return Ok(resp);
        };
        on_event(StreamEvent::Header(&header));
        let mut expected: u32 = 0;
        let mut ended = false;
        let trailer = loop {
            let part = self
                .chunks
                .recv_timeout(Duration::from_secs(30))
                .map_err(|_| TdbError::Eval("result stream interrupted".into()))?;
            match part {
                StreamPart::Rows { seq, last, rows } if seq == expected && !ended => {
                    expected += 1;
                    ended = last;
                    on_event(StreamEvent::Rows(rows));
                }
                StreamPart::Rows { seq, .. } => {
                    return Err(TdbError::Corrupt(format!(
                        "result chunk {seq} arrived out of order \
                         (expected {expected}, last chunk seen: {ended})"
                    )));
                }
                StreamPart::End(trailer) if ended => break trailer,
                StreamPart::End(_) => {
                    return Err(TdbError::Corrupt(
                        "result stream ended before its last chunk".into(),
                    ));
                }
            }
        };
        let resp = trailer.fold_into(header);
        self.note_rtt(query_id, sent.elapsed().as_micros() as u64, &resp);
        Ok(resp)
    }

    /// Live-append arrival lines into `relation` and wait for the
    /// ingest report.
    pub fn ingest(&mut self, relation: &str, lines: &str) -> TdbResult<Response> {
        self.send(&Frame::Ingest {
            relation: relation.to_string(),
            lines: lines.to_string(),
        })?;
        Ok(self.await_reply()?.1)
    }

    /// Ask for the observability snapshot (engine counters, slow-query
    /// log, live telemetry) with the server's network counters merged in.
    pub fn stats(&mut self) -> TdbResult<Response> {
        self.send(&Frame::Stats)?;
        Ok(self.await_reply()?.1)
    }

    /// Drain one pending subscription delta, if any arrived.
    pub fn try_push(&mut self) -> Option<DeltaFrame> {
        self.pushes.try_recv().ok()
    }

    /// Wait up to `timeout` for the next subscription delta.
    pub fn wait_push(&mut self, timeout: Duration) -> Option<DeltaFrame> {
        self.pushes.recv_timeout(timeout).ok()
    }

    /// True once the server side has gone away (reader thread exited).
    pub fn is_closed(&self) -> bool {
        self.reader.as_ref().is_none_or(|r| r.is_finished())
    }

    /// Orderly goodbye: tell the server, close the socket, join the
    /// reader.
    pub fn close(mut self) {
        let _ = self.send(&Frame::Bye);
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}
