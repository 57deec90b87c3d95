//! # tdb-net — a framed TCP front end for the engine
//!
//! Serves one shared [`Engine`](tdb_engine::Engine) to many concurrent
//! clients over a length-prefixed binary protocol:
//!
//! ```text
//! [u32 LE length][u8 version][u8 kind][body]
//! ```
//!
//! Clients send complete inputs ([`wire::Frame::Input`]) or arrival
//! batches ([`wire::Frame::Ingest`]); each request is answered by
//! exactly one [`wire::Frame::Reply`] carrying the engine's typed
//! [`Response`](tdb_engine::Response), encoded with the same
//! [`Codec`](tdb::storage::Codec) conventions the storage layer uses.
//! Subscription deltas registered by a connection are *pushed* to it
//! ([`wire::Frame::Push`]) whenever any client's ingest finalizes rows —
//! two terminals pointed at the same server observe one live catalog.
//!
//! Per-connection planner settings (`\set parallelism`, `\set limit`,
//! `\config`, `\explain`) stay with the connection; the catalog and live
//! subsystem are shared. Slow subscribers get a bounded push queue and
//! are disconnected (their subscriptions cancelled) rather than allowed
//! to stall ingestion. Shutdown drains in-flight requests and sends each
//! client a [`wire::Frame::Shutdown`] notice.

pub mod client;
pub mod server;
pub mod sink;
pub mod wire;

pub use client::{Client, RttSample, StreamEvent};
pub use server::{serve, MetricsSource, ServerHandle};
pub use sink::{WireSink, CHUNK_BYTES};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Outbound frame queue depth per connection. A subscriber whose
    /// queue fills (because it stopped reading) is disconnected.
    pub push_queue: usize,
    /// Socket read timeout in milliseconds — the cadence at which
    /// connection threads re-check the shutdown flag.
    pub poll_ms: u64,
    /// Open the engine durably: the catalog manifest is persisted with
    /// fsync-and-rename and live ingestion is write-ahead logged, so an
    /// acknowledged `Ingest` reply means the rows survive a crash.
    pub durable: bool,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            push_queue: 64,
            poll_ms: 25,
            durable: false,
        }
    }
}
