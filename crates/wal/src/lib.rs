//! `tdb-wal` — write-ahead logging and checkpointed recovery.
//!
//! The paper's query machinery assumes relations survive; this crate
//! makes that true for live ingestion. Each live relation gets an
//! append-only log of CRC-framed [`WalRecord`]s — the DDL registration,
//! every admitted row (logged *before* it is staged), watermark
//! advances, the end-of-stream seal, and the checkpoint head naming the
//! heap file its promoted rows are counted in. A crash
//! then costs nothing that was acknowledged:
//!
//! * **Group commit** ([`FlushPolicy`]): an ingest batch is fsynced once
//!   before it is acknowledged, so acknowledged-means-durable holds at
//!   batch granularity (`PerRecord` tightens that to every row; `Off`
//!   trades the guarantee away for throughput).
//! * **Checkpoints bound replay by a constant plus the open window.**
//!   The epoch design makes finality first-class: promoted rows are final,
//!   so once the catalog holds them durably they can leave the log. When a
//!   log has grown by more than [`CHECKPOINT_BYTES`] since its last
//!   rewrite, [`WalLog::rewrite`] atomically replaces it with `Register` +
//!   [`WalRecord::Checkpoint`] + [`WalRecord::Heap`] + the still-open
//!   suffix. Replay cost is therefore bounded by that constant
//!   plus the watermark lag, not the stream length — cheaper than
//!   ARIES-style redo/undo because promoted rows never need undoing.
//! * **Torn tails are expected, not fatal.** [`replay`] stops at the
//!   first short or CRC-failing frame, truncates the file back to the
//!   last good boundary, and returns the acknowledged prefix. Only a
//!   CRC-valid frame that fails to decode raises
//!   [`TdbError::WalCorrupt`](tdb_core::TdbError::WalCorrupt).
//!
//! The live engine (`tdb-live`) drives these pieces with a no-force
//! policy: log-before-stage on ingest, one group commit per acknowledged
//! batch, and promotions appended to the catalog heap without a sync.
//! The heap and the manifest are forced only by the engine-wide
//! checkpoint, before any log is rewritten; replay reconciles by count,
//! since a live relation's catalog rows are always a prefix of its
//! admitted rows in sort order.

pub mod crc;
pub mod log;
pub mod metrics;
pub mod record;
pub mod store;

pub use crc::crc32;
pub use log::{replay, FlushPolicy, ReplayOutcome, WalLog, CHECKPOINT_BYTES, MAX_FRAME};
pub use metrics::{SlowFsync, WalMetrics, SLOW_FSYNC_THRESHOLD_US};
pub use record::WalRecord;
pub use store::WalStore;
