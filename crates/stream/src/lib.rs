//! # tdb-stream — stream-processing temporal operators
//!
//! This crate implements Section 4 of Leung & Muntz: temporal joins and
//! semijoins as *stream processors* — single-pass operators over properly
//! sorted inputs that keep a small, garbage-collected local workspace.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | §4.1 stream paradigm, Figure 4 sum processor | [`stream`], [`aggregate`] |
//! | §4.2.1 Contain-join, Figure 5, Table 1 (a) | [`contain_join`] |
//! | §4.2.1 Contain-join Table 1 (b); §4.2.2 two-buffer semijoins, Figure 6, Table 1 (d); §4.2.4 Overlap operators, Table 2 | [`batch_ops`] (the kernels), [`overlap_join`] (the predicate) |
//! | §4.2.2 Contain-/Contained-semijoin, Table 1 (c) | [`sweep_semijoin`] |
//! | §4.2.3 self semijoins, Figure 7, Table 3 | [`self_semijoin`] |
//! | §4.2.4 Before operators | [`before`] |
//! | footnote 8: equality-temporal operators via merge join | [`event_join`], [`merge_join`] |
//! | conventional baseline (§3) | [`nested_loop`], [`buffered_join`] |
//! | unified construction & instrumentation surface | [`report`] |
//! | running a kernel over sorted vectors into a sink | [`dispatch`] |
//! | time-partitioned parallel execution, fringe replication | [`partition`] |
//!
//! Every operator is generic over items implementing
//! [`tdb_core::Temporal`] + [`Clone`], carries an instrumented workspace
//! ([`workspace::Workspace`], or [`gapless::GaplessWorkspace`] in the
//! kernels) whose high-water mark validates the paper's Tables 1–3, and
//! reports a unified [`report::OpReport`] (throughput counters plus
//! workspace statistics) through the [`report::Instrumented`] trait.
//! Operators are constructed through the [`report::OpConfig`] builder,
//! and [`partition`] runs any intersection-witnessed operator across `K`
//! disjoint time ranges in parallel.

pub mod aggregate;
pub mod batch;
pub mod batch_ops;
pub mod before;
pub mod buffered_join;
pub mod coalesce;
pub mod contain_join;
pub mod dispatch;
pub mod event_join;
pub mod gapless;
pub mod merge_join;
pub mod metrics;
pub mod nested_loop;
pub mod overlap_join;
pub mod partition;
pub mod progress;
pub mod read_policy;
pub mod report;
pub mod required;
pub mod self_semijoin;
pub mod sink;
pub mod stream;
pub mod sweep_semijoin;
pub mod timeslice;
pub mod watermark;
pub mod workspace;

pub use aggregate::{GroupedSum, HashSum};
pub use batch::{
    BatchStream, Batcher, RowBatch, VecBatchStream, DEFAULT_BATCH_ROWS, MAX_BATCH_ROWS,
};
pub use batch_ops::{
    drive, BatchOp, ContainJoinTsTe, ContainSemijoinStab, ContainedSemijoinStab, OverlapJoin,
    OverlapSemijoin, Side, Wants,
};
pub use before::{BeforeJoin, BeforeSemijoin};
pub use buffered_join::BufferedJoin;
pub use coalesce::{coalesce_relation, Coalesce};
pub use contain_join::ContainJoinTsTs;
pub use dispatch::{run_join, run_semijoin, Emit};
pub use event_join::EventMergeJoin;
pub use gapless::GaplessWorkspace;
pub use merge_join::MergeEquiJoin;
pub use metrics::OpMetrics;
pub use nested_loop::NestedLoopJoin;
pub use overlap_join::OverlapMode;
pub use partition::{
    merge_tagged, parallel_join, parallel_semijoin, partition_with_fringe, KWayMerge,
    ParallelPattern, ParallelPush, PartitionSpec, Tagged,
};
pub use progress::{Progress, ProgressSnapshot};
pub use read_policy::ReadPolicy;
pub use report::{timeslice, Instrumented, OpConfig, OpReport};
pub use required::{check_stream_order, OrderRequirement, RequiredOrder, StreamOpKind};
pub use self_semijoin::{ContainSelfSemijoin, ContainSelfSemijoinDesc, ContainedSelfSemijoin};
pub use sink::{row_bytes, CollectSink, CountSink, LimitSink, PairBatch, RowSink, SinkStats};
pub use stream::{from_sorted_vec, from_vec, OrderChecked, TupleStream, VecStream};
pub use sweep_semijoin::SweepSemijoin;
pub use timeslice::{concurrency_profile, ProfileStep, Timeslice};
pub use watermark::Watermark;
pub use workspace::{Workspace, WorkspaceStats, OCCUPANCY_BOUNDS, OCCUPANCY_CELLS};
