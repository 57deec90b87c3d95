//! Live ingestion and continuous queries for the temporal database.
//!
//! The batch pipeline loads a relation, computes its statistics, verifies
//! a plan, and runs it to completion. This crate closes the loop for
//! *unbounded* arrival streams, keeping every guarantee the paper proves
//! for the batch case:
//!
//! - **Atomic admission** — each live relation admits one batch in one
//!   pass: every row is checked before any state changes, so a batch is
//!   logged, staged and counted whole or not at all ([`relation`]).
//! - **Watermark finality** — a per-relation
//!   [`Watermark`](tdb_stream::Watermark) over the arrival sort key
//!   (`TS` for (TS↑) streams, `TE` for (TE↑) streams) proves which
//!   staged tuples can no longer be preceded by a later arrival; only
//!   that closed prefix is promoted into the catalog heap, mirroring the
//!   garbage-collection rules of the paper's Tables 1–3 ([`relation`]).
//! - **Online statistics** — λ and E[D] are estimated by EWMA as tuples
//!   arrive ([`ewma`]), replacing load-time statistics in the cost model
//!   so workspace proofs track live traffic.
//! - **Verified standing queries** — a subscription re-verifies through
//!   the live analyzer every epoch; plans whose workspace cannot be
//!   bounded under unbounded arrival are rejected before a tuple flows.
//!   A single stream join or semijoin keeps its held tuples between
//!   epochs and costs only its delta; other plans re-evaluate over the
//!   closed prefix ([`subscription`], [`engine`]).
//!
//! [`LiveEngine`] ties the pieces together; the CLI exposes it as
//! `\ingest` and `\subscribe`.

pub mod engine;
pub mod ewma;
mod held;
pub mod relation;
pub mod subscription;

pub use engine::{LiveConfig, LiveEngine, LiveReport, ReplaySummary};
pub use ewma::OnlineStats;
pub use relation::LiveRelation;
pub use subscription::{Delta, Subscription, SubscriptionMode};
