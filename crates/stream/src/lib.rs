//! # tdb-stream — stream-processing temporal operators
//!
//! This crate implements Section 4 of Leung & Muntz: temporal joins and
//! semijoins as *stream processors* — single-pass operators over properly
//! sorted inputs that keep a small, garbage-collected local workspace.
//!
//! Every paper operator is a push kernel ([`batch_ops::BatchOp`]) run
//! through [`dispatch`]. The reference definitions the kernels are
//! measured and checked against — the nested-loop and no-GC joins,
//! timeslice, the concurrency profile and coalescing — live in
//! `tdb-oracle`, which no served crate depends on.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | §4.1 stream paradigm: the push protocol, batches, Figure 4 sum processor | [`batch_ops`], [`batch`], [`aggregate`] |
//! | §4.2.1 Contain-join, Figure 5, Table 1 (a) | [`contain_join`] |
//! | §4.2.1 Contain-join Table 1 (b); §4.2.2 two-buffer semijoins, Figure 6, Table 1 (d); §4.2.4 Overlap operators, Table 2 | [`batch_ops`] (the kernels), [`overlap_join`] (the predicate) |
//! | §4.2.2 Contain-/Contained-semijoin, Table 1 (c) | [`sweep_semijoin`] |
//! | §4.2.3 self semijoins, Figure 7, Table 3 | [`self_semijoin`] |
//! | §4.2.4 Before operators | [`before`] |
//! | footnote 8: equality joins via merge join | [`merge_join`] |
//! | knobs and reports | [`report`] |
//! | running a kernel over sorted inputs into a sink | [`dispatch`] |
//! | stored inputs a page at a time; the bounded TS↑ → TE↑ re-sort | [`paged`] |
//! | time-partitioned parallel execution, fringe replication | [`partition`] |
//!
//! Every kernel is generic over items implementing [`tdb_core::Temporal`]
//! and [`Clone`], keeps its state in an instrumented
//! [`gapless::GaplessWorkspace`] whose high-water mark validates the
//! paper's Tables 1–3, and reports a unified [`report::OpReport`]
//! (throughput counters plus workspace statistics). Kernels are picked by
//! [`StreamOpKind`] and configured by [`report::OpConfig`];
//! [`partition`] runs any operator whose registry entry is
//! `partition_safe` across `K` disjoint time ranges in parallel.

pub mod aggregate;
pub mod batch;
pub mod batch_ops;
pub mod before;
pub mod contain_join;
pub mod dispatch;
pub mod gapless;
pub mod merge_join;
pub mod metrics;
pub mod overlap_join;
pub mod paged;
pub mod partition;
pub mod progress;
pub mod read_policy;
pub mod report;
pub mod required;
pub mod self_semijoin;
pub mod sink;
pub mod sweep_semijoin;
pub mod watermark;
pub mod workspace;

pub use aggregate::grouped_sum;
pub use batch::{
    BatchStream, KernelInput, RowBatch, ShowHeld, VecBatchStream, DEFAULT_BATCH_ROWS,
    MAX_BATCH_ROWS,
};
pub use batch_ops::{
    drive, BatchOp, ContainJoinTsTe, ContainSemijoinStab, ContainedSemijoinStab, OverlapJoin,
    OverlapSemijoin, Side, Wants,
};
pub use before::{BeforeJoin, BeforeSemijoin};
pub use contain_join::ContainJoinTsTs;
pub use dispatch::{collect, run_join, run_kernel, run_self_semijoin, run_semijoin, Emit};
pub use gapless::GaplessWorkspace;
pub use merge_join::merge_equi_join;
pub use metrics::OpMetrics;
pub use overlap_join::OverlapMode;
pub use paged::{PageSource, PageStream};
pub use partition::{
    merge_tagged, parallel_join, parallel_semijoin, partition_with_fringe, ParallelPush,
    PartitionSpec, Tagged,
};
pub use progress::{Progress, ProgressSnapshot};
pub use read_policy::ReadPolicy;
pub use report::{OpConfig, OpReport};
pub use required::{OrderRequirement, StreamOpKind};
pub use self_semijoin::{ContainSelfSemijoin, ContainSelfSemijoinDesc, ContainedSelfSemijoin};
pub use sink::{row_bytes, CollectSink, CountSink, LimitSink, PairBatch, RowSink, SinkStats};
pub use sweep_semijoin::SweepSemijoin;
pub use watermark::Watermark;
pub use workspace::{WorkspaceStats, OCCUPANCY_BOUNDS, OCCUPANCY_CELLS};
