//! # tdb-oracle — the reference definitions
//!
//! The answers the stream kernels of `tdb-stream` are checked and measured
//! against, kept out of every served crate: no engine, server or CLI
//! depends on this one. Tests, the experiments binary and the examples do.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | conventional baseline (§3): the nested-loop theta-join | [`nested_loop`] |
//! | the no-GC "–" cells of Table 1: one pass, nothing discarded | [`mod@buffered_join`], [`workspace`] |
//! | snapshots and the concurrency profile (§6) | [`mod@timeslice`] |
//! | coalescing value-equivalent periods (§6) | [`mod@coalesce`] |
//!
//! Every function here is a plain loop over slices whose result follows
//! from the definition; each returns the same [`tdb_stream::OpReport`] the
//! kernels do, so a reference run and a kernel run can be compared on
//! comparisons and workspace as well as on output.

pub mod buffered_join;
pub mod coalesce;
pub mod nested_loop;
pub mod timeslice;
pub mod workspace;

pub use buffered_join::buffered_join;
pub use coalesce::{coalesce, coalesce_relation};
pub use nested_loop::nested_loop_join;
pub use timeslice::{concurrency_profile, timeslice, ProfileStep};
pub use workspace::Workspace;
