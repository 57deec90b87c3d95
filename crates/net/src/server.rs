//! The framed TCP server: many connections, one engine.
//!
//! Threading model: one accept thread (non-blocking, polling the
//! shutdown flag), one reader thread per connection, one writer thread
//! per connection. All request execution happens on the connection's
//! reader thread under the shared engine lock; the writer thread only
//! drains that connection's bounded outbound queue onto the socket.
//!
//! Replies leave while they are produced: the reader thread gives the
//! engine a [`WireSink`], which encodes result rows into chunk frames as
//! the plan pushes them and hands each finished chunk to the outbound
//! queue. Nothing under the engine lock ever waits for that queue — the
//! sink only `try_send`s, parks frames locally once the queue is full,
//! and the parked frames are sent (blocking) after the lock is released.
//!
//! Push routing and backpressure: when a request finalizes rows for
//! subscriptions (ingest or seal advancing the watermark), the executing
//! thread routes each delta frame to the queue of the connection that
//! owns the subscription, using a non-blocking `try_send`. A subscriber
//! that stops draining its socket eventually fills its TCP window, which
//! blocks its writer, which fills the bounded queue — at which point the
//! `try_send` fails and the server disconnects that client and cancels
//! its subscriptions. Ingestion never blocks on a slow subscriber.
//!
//! Graceful shutdown: the flag is only checked between requests, so
//! in-flight queries drain; each connection then receives a
//! [`Frame::Shutdown`] before its socket closes.

use crate::sink::WireSink;
use crate::wire::{Frame, FrameReader, ReadOutcome};
use crate::NetConfig;
use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tdb::core::TdbResult;
use tdb_engine::{
    ClientState, ConnMetrics, Engine, HealthState, NetMetrics, Response, Stage, StageTimers,
};

/// Per-connection counters, updated lock-free on the read/write hot
/// paths and folded into [`RetiredStats`] when the connection closes.
#[derive(Default)]
struct ConnStats {
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
    /// Frames currently sitting in the outbound queue (approximate
    /// upper bound: incremented before enqueue, decremented at dequeue).
    queue_depth: AtomicU64,
    push_highwater: AtomicU64,
}

impl ConnStats {
    /// Account one frame entering the outbound queue.
    fn enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.push_highwater.fetch_max(depth, Ordering::Relaxed);
    }

    /// Roll back an `enqueued` whose send failed.
    fn enqueue_failed(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Account one frame leaving the queue for the socket.
    fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn metrics(&self, id: u64) -> ConnMetrics {
        ConnMetrics {
            id,
            frames_in: self.frames_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            push_highwater: self.push_highwater.load(Ordering::Relaxed),
        }
    }
}

/// Totals carried over from closed connections, so server-lifetime
/// counters keep counting after their connections are gone.
#[derive(Default)]
struct RetiredStats {
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
    push_highwater: AtomicU64,
    slow_subscriber_disconnects: AtomicU64,
}

impl RetiredStats {
    fn absorb(&self, stats: &ConnStats) {
        self.frames_in
            .fetch_add(stats.frames_in.load(Ordering::Relaxed), Ordering::Relaxed);
        self.bytes_in
            .fetch_add(stats.bytes_in.load(Ordering::Relaxed), Ordering::Relaxed);
        self.frames_out
            .fetch_add(stats.frames_out.load(Ordering::Relaxed), Ordering::Relaxed);
        self.bytes_out
            .fetch_add(stats.bytes_out.load(Ordering::Relaxed), Ordering::Relaxed);
        self.push_highwater.fetch_max(
            stats.push_highwater.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
}

/// Counts bytes off the socket before the frame reader sees them.
struct CountingReader {
    inner: TcpStream,
    stats: Arc<ConnStats>,
}

impl Read for CountingReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(out)?;
        self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// What travels a connection's outbound queue.
enum Outbound {
    /// A frame for the writer thread to encode.
    Frame(Frame),
    /// A frame of query `query_id`'s reply that the [`WireSink`] already
    /// encoded while the query ran.
    Encoded { query_id: u64, bytes: BytesMut },
}

struct Conn {
    queue: SyncSender<Outbound>,
    stream: TcpStream,
    stats: Arc<ConnStats>,
}

impl Conn {
    /// Non-blocking enqueue with queue-depth accounting. `false` means
    /// the queue was full or the writer is gone.
    fn try_push(&self, frame: Frame) -> bool {
        try_enqueue(&self.queue, &self.stats, Outbound::Frame(frame)).is_ok()
    }
}

struct Shared {
    engine: Mutex<Engine>,
    conns: Mutex<HashMap<u64, Conn>>,
    /// subscription id → owning connection id.
    subs: Mutex<HashMap<u64, u64>>,
    shutdown: AtomicBool,
    config: NetConfig,
    retired: RetiredStats,
    /// Engine stage histograms, cloned here so writer threads can time
    /// `render` (reply encode) and `net_write` (socket flush) without
    /// taking the engine lock.
    stage_timers: StageTimers,
}

impl Shared {
    /// Drop a connection: close its socket (unblocking its threads),
    /// forget it, and cancel every subscription it owned so the live
    /// engine stops evaluating for a consumer that is gone.
    fn disconnect(&self, conn_id: u64) {
        if let Some(conn) = self.conns.lock().remove(&conn_id) {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.retired.absorb(&conn.stats);
        }
        let orphaned: Vec<u64> = {
            let mut subs = self.subs.lock();
            let ids: Vec<u64> = subs
                .iter()
                .filter(|(_, owner)| **owner == conn_id)
                .map(|(id, _)| *id)
                .collect();
            for id in &ids {
                subs.remove(id);
            }
            ids
        };
        if !orphaned.is_empty() {
            let mut engine = self.engine.lock();
            for id in orphaned {
                let _ = engine.cancel_subscription(id as usize);
            }
        }
    }

    /// Route freshly-finalized deltas to their subscribers. Never
    /// blocks: a full queue means the subscriber has fallen behind its
    /// bound, and it is disconnected rather than allowed to stall the
    /// ingesting client.
    fn route_deltas(&self, response: &mut Response) {
        let deltas = response.take_deltas();
        if deltas.is_empty() {
            return;
        }
        let mut overflowed: Vec<u64> = Vec::new();
        for delta in deltas {
            let Some(owner) = self.subs.lock().get(&delta.subscription).copied() else {
                continue;
            };
            let conns = self.conns.lock();
            let Some(conn) = conns.get(&owner) else {
                continue;
            };
            if !conn.try_push(Frame::Push(delta)) {
                overflowed.push(owner);
            }
        }
        for conn_id in overflowed {
            self.retired
                .slow_subscriber_disconnects
                .fetch_add(1, Ordering::Relaxed);
            self.disconnect(conn_id);
        }
    }

    /// Snapshot the network counters: retired totals plus every open
    /// connection, in id order.
    fn net_metrics(&self) -> NetMetrics {
        let conns = self.conns.lock();
        let mut per_conn: Vec<ConnMetrics> = conns
            .iter()
            .map(|(id, conn)| conn.stats.metrics(*id))
            .collect();
        drop(conns);
        per_conn.sort_by_key(|c| c.id);
        let mut out = NetMetrics {
            connections: per_conn.len() as u64,
            frames_in: self.retired.frames_in.load(Ordering::Relaxed),
            bytes_in: self.retired.bytes_in.load(Ordering::Relaxed),
            frames_out: self.retired.frames_out.load(Ordering::Relaxed),
            bytes_out: self.retired.bytes_out.load(Ordering::Relaxed),
            push_queue_highwater: self.retired.push_highwater.load(Ordering::Relaxed),
            slow_subscriber_disconnects: self
                .retired
                .slow_subscriber_disconnects
                .load(Ordering::Relaxed),
            conns: Vec::new(),
        };
        for c in &per_conn {
            out.frames_in += c.frames_in;
            out.bytes_in += c.bytes_in;
            out.frames_out += c.frames_out;
            out.bytes_out += c.bytes_out;
            out.push_queue_highwater = out.push_queue_highwater.max(c.push_highwater);
        }
        out.conns = per_conn;
        out
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the server running detached.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests, notify clients with a
    /// shutdown frame, and join the accept loop.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// A handle that renders the whole process's metrics — engine
    /// counters, live telemetry, network counters — as Prometheus text.
    /// Pass its `render` to an HTTP listener (`tdb serve --metrics`).
    pub fn metrics_source(&self) -> MetricsSource {
        MetricsSource {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Renders the served engine's metrics registry with the network
/// gauges refreshed, for scraping. Cheap to clone; outlives the
/// [`ServerHandle`] it came from.
#[derive(Clone)]
pub struct MetricsSource {
    shared: Arc<Shared>,
}

impl MetricsSource {
    /// One Prometheus text-exposition page covering engine, live, and
    /// network metric families.
    pub fn render(&self) -> String {
        let net = self.shared.net_metrics();
        let engine = self.shared.engine.lock();
        let reg = engine.metrics_registry();
        let set = |name: &str, help: &str, v: u64| {
            reg.gauge(name, help).set(v as f64);
        };
        set("tdb_net_connections", "Open connections.", net.connections);
        set("tdb_net_frames_in", "Frames received.", net.frames_in);
        set("tdb_net_bytes_in", "Bytes received.", net.bytes_in);
        set("tdb_net_frames_out", "Frames written.", net.frames_out);
        set("tdb_net_bytes_out", "Bytes written.", net.bytes_out);
        set(
            "tdb_net_push_queue_highwater",
            "Largest outbound queue depth any connection reached.",
            net.push_queue_highwater,
        );
        set(
            "tdb_net_slow_subscriber_disconnects",
            "Connections dropped because their push queue overflowed.",
            net.slow_subscriber_disconnects,
        );
        engine.prometheus()
    }

    /// The `/healthz` verdict for this process: `false` (HTTP 503) only
    /// when an SLO objective burns over both windows — a degraded server
    /// still answers probes OK so routers shed load gradually, guided by
    /// the burn-rate gauges, rather than all at once.
    pub fn health(&self) -> (bool, String) {
        let (state, body) = self.shared.engine.lock().health();
        (state != HealthState::Critical, body)
    }
}

/// Open the catalog at `dir` and serve it on `addr` (e.g.
/// `127.0.0.1:0`). Returns once the listener is bound.
pub fn serve(
    dir: impl AsRef<std::path::Path>,
    addr: &str,
    config: NetConfig,
) -> TdbResult<ServerHandle> {
    let engine = if config.durable {
        Engine::open_durable(dir, tdb::wal::FlushPolicy::default())?
    } else {
        Engine::open(dir)?
    };
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stage_timers = engine.stage_timers();
    let shared = Arc::new(Shared {
        engine: Mutex::new(engine),
        conns: Mutex::new(HashMap::new()),
        subs: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        config,
        retired: RetiredStats::default(),
        stage_timers,
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let next_id = AtomicU64::new(0);
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = next_id.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                workers.push(std::thread::spawn(move || {
                    serve_conn(conn_id, stream, &shared);
                    shared.disconnect(conn_id);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Drain: notify every connection, close its socket, join workers.
    let conn_ids: Vec<u64> = shared.conns.lock().keys().copied().collect();
    for conn_id in conn_ids {
        if let Some(conn) = shared.conns.lock().get(&conn_id) {
            conn.try_push(Frame::Shutdown);
        }
        // Give the writer a moment to flush the shutdown frame before
        // the socket closes under it.
        std::thread::sleep(Duration::from_millis(20));
        shared.disconnect(conn_id);
    }
    for w in workers {
        let _ = w.join();
    }
}

/// How long a write may stall on a peer that stopped reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The socket options every accepted connection runs with (they belong
/// to the socket, so the halves cloned from it share them):
///
/// * a read timeout of `poll`, so the reader thread notices the shutdown
///   flag between frames without dropping partial input;
/// * a write timeout, so joining the writer cannot hang on a peer that
///   stopped reading — a stalled write errors out instead of blocking;
/// * `TCP_NODELAY`: a reply's small last frame (a stream's `ReplyEnd`,
///   a short reply) goes out at once instead of waiting, under Nagle's
///   algorithm, for the client to acknowledge the chunk before it —
///   which a client's delayed ACK holds back for tens of milliseconds.
fn configure_conn(stream: &TcpStream, poll: Duration) -> std::io::Result<()> {
    stream.set_read_timeout(Some(poll))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true)
}

fn serve_conn(conn_id: u64, stream: TcpStream, shared: &Arc<Shared>) {
    if configure_conn(&stream, Duration::from_millis(shared.config.poll_ms)).is_err() {
        return;
    }
    let (Ok(write_half), Ok(conn_half)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let stats = Arc::new(ConnStats::default());
    let (queue, outbound) = sync_channel::<Outbound>(shared.config.push_queue);
    let writer_stats = Arc::clone(&stats);
    let writer_timers = shared.stage_timers.clone();
    let writer = std::thread::spawn(move || {
        writer_loop(write_half, &outbound, &writer_stats, &writer_timers)
    });
    shared.conns.lock().insert(
        conn_id,
        Conn {
            queue: queue.clone(),
            stream: conn_half,
            stats: Arc::clone(&stats),
        },
    );

    let mut read_half = CountingReader {
        inner: stream,
        stats: Arc::clone(&stats),
    };
    let mut reader = FrameReader::new();
    let mut ctx = ClientState::default();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let frame = match reader.read(&mut read_half) {
            Ok(ReadOutcome::Frame(f)) => f,
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Eof) | Err(_) => break,
        };
        stats.frames_in.fetch_add(1, Ordering::Relaxed);
        let reply = match frame {
            Frame::Bye => break,
            Frame::Input(text) => {
                // Frames the sink could not hand over without waiting.
                let mut parked: Vec<Outbound> = Vec::new();
                let mut sink = WireSink::new(|query_id, bytes| {
                    let frame = Outbound::Encoded { query_id, bytes };
                    // Once one frame is parked the rest must queue up
                    // behind it, or the reply would arrive out of order.
                    let unsent = if parked.is_empty() {
                        try_enqueue(&queue, &stats, frame).err()
                    } else {
                        Some(frame)
                    };
                    parked.extend(unsent);
                });
                let mut resp = shared
                    .engine
                    .lock()
                    .execute_into(&mut ctx, &text, &mut sink);
                // `\quit` over the wire behaves like Bye after the reply
                // is delivered.
                let goodbye = matches!(resp, Response::Goodbye);
                if let Response::Subscribed(ref sub) = resp {
                    shared.subs.lock().insert(sub.id, conn_id);
                }
                shared.route_deltas(&mut resp);
                let t = std::time::Instant::now();
                sink.complete(resp);
                shared
                    .stage_timers
                    .observe(Stage::Render, t.elapsed().as_micros() as u64);
                // The engine lock is released: now it is fine to wait for
                // the writer. A client slow to read its *own* reply only
                // stalls itself.
                let delivered = parked.into_iter().all(|f| enqueue(&queue, &stats, f));
                if goodbye || !delivered {
                    break;
                }
                continue;
            }
            Frame::Ingest { relation, lines } => {
                let mut resp = shared.engine.lock().ingest_text(&relation, &lines);
                shared.route_deltas(&mut resp);
                resp
            }
            Frame::Stats => {
                // Engine snapshot first (engine lock released at the
                // `;`), then the network counters merged in.
                let mut report = shared.engine.lock().stats_report();
                report.net = Some(shared.net_metrics());
                Response::Stats(report)
            }
            // Server-direction frames from a client are a protocol
            // violation; drop the connection.
            Frame::Reply { .. }
            | Frame::ReplyChunk { .. }
            | Frame::ReplyEnd { .. }
            | Frame::Push(_)
            | Frame::Shutdown => break,
        };
        // Replies block (bounded by queue depth + socket buffer) — a
        // client slow to read its *own* replies only stalls itself.
        let frame = Frame::Reply {
            query_id: 0,
            response: Box::new(reply),
        };
        if !enqueue(&queue, &stats, Outbound::Frame(frame)) {
            break;
        }
    }
    // Retire from the routing table first: the map holds a sender
    // clone, so only after removing it does dropping the local queue
    // disconnect the channel. The writer then drains what is already
    // enqueued (the Goodbye reply of a `\quit`, pending pushes) and
    // exits instead of blocking forever on a sender nothing will use
    // again; only then is the socket closed. The write timeout above
    // bounds the join, and a disconnect() from another thread
    // (slow-subscriber overflow, server drain) still unblocks a
    // mid-write writer by shutting the socket under it. The caller's
    // disconnect() cancels this connection's subscriptions.
    if let Some(conn) = shared.conns.lock().remove(&conn_id) {
        shared.retired.absorb(&conn.stats);
    }
    drop(queue);
    let _ = writer.join();
    let _ = read_half.inner.shutdown(Shutdown::Both);
}

/// Enqueue one frame, waiting for room, with queue-depth accounting;
/// `false` means the writer is gone.
fn enqueue(queue: &SyncSender<Outbound>, stats: &ConnStats, frame: Outbound) -> bool {
    stats.enqueued();
    if queue.send(frame).is_err() {
        stats.enqueue_failed();
        return false;
    }
    true
}

/// Enqueue one frame without waiting, with queue-depth accounting; a
/// full queue (or a writer that is gone) hands the frame back.
fn try_enqueue(
    queue: &SyncSender<Outbound>,
    stats: &ConnStats,
    frame: Outbound,
) -> Result<(), Outbound> {
    stats.enqueued();
    queue.try_send(frame).map_err(|e| {
        stats.enqueue_failed();
        let (TrySendError::Full(frame) | TrySendError::Disconnected(frame)) = e;
        frame
    })
}

fn writer_loop(
    mut stream: TcpStream,
    outbound: &Receiver<Outbound>,
    stats: &ConnStats,
    timers: &StageTimers,
) {
    while let Ok(item) = outbound.recv() {
        stats.dequeued();
        let last = matches!(item, Outbound::Frame(Frame::Shutdown));
        let (query_id, buf) = match item {
            Outbound::Frame(frame) => {
                let t = std::time::Instant::now();
                let mut buf = BytesMut::new();
                frame.encode(&mut buf);
                timers.observe(Stage::Render, t.elapsed().as_micros() as u64);
                (0, buf)
            }
            // Rendered by the sink, chunk by chunk, while the query ran.
            Outbound::Encoded { query_id, bytes } => (query_id, bytes),
        };
        let began = std::time::Instant::now();
        if stream.write_all(&buf).is_err() {
            break;
        }
        let write_us = began.elapsed().as_micros() as u64;
        if query_id == 0 {
            timers.observe(Stage::NetWrite, write_us);
        } else {
            // Kept by id as well, so the query's `\trace export` shows
            // the writes that happened after its trace was built.
            timers.observe_late(query_id, Stage::NetWrite, began, write_us);
        }
        stats.frames_out.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_out
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        if last {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_get_timeouts_and_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "the default this guards");
        // Whole seconds: the kernel rounds timeouts to its clock tick.
        let poll = Duration::from_secs(1);
        configure_conn(&accepted, poll).unwrap();
        // Options of the socket: a cloned half sees them too.
        let half = accepted.try_clone().unwrap();
        assert!(half.nodelay().unwrap());
        assert_eq!(half.read_timeout().unwrap(), Some(poll));
        assert_eq!(half.write_timeout().unwrap(), Some(WRITE_TIMEOUT));
        drop(client);
    }
}
