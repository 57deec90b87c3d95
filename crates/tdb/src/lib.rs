//! # tdb — temporal database query processing
//!
//! A full, executable reproduction of Leung & Muntz, *Query Processing for
//! Temporal Databases* (UCLA CSD-890024, ICDE 1990): the temporal data
//! model, the stream-processing join/semijoin algorithms of Section 4 with
//! their sort-order/workspace tradeoffs (Tables 1–3), the conventional
//! query-processing pipeline of Section 3 (Quel dialect → parse tree →
//! pushdown optimization), and the semantic query optimization of Section 5
//! culminating in the single-scan Superstar plan.
//!
//! This facade re-exports the public API of every subsystem crate:
//!
//! * [`core`] — time points, periods, Allen relations, tuples, schemas,
//!   sort orders, statistics;
//! * [`storage`] — slotted pages, heap files, buffer pool, external merge
//!   sort, catalog, I/O accounting;
//! * [`stream`] — the stream operators with instrumented workspaces;
//! * [`algebra`] — logical/physical plans, rewrites, planner, executor;
//! * [`analyze`] — the plan-time static verifier: sort-order inference,
//!   workspace-bound proofs, partition safety;
//! * [`live`] — bounded live ingestion with watermark-driven finality and
//!   verified standing queries;
//! * [`wal`] — write-ahead logging and checkpointed recovery for live
//!   ingestion;
//! * [`quel`] — the modified-Quel front end;
//! * [`semantic`] — integrity constraints, the inequality graph, the
//!   Superstar transformation;
//! * [`gen`] — seeded synthetic workloads.
//!
//! ## Quickstart
//!
//! ```
//! use tdb::prelude::*;
//!
//! // Load the paper's Figure 1 instance into a catalog.
//! let dir = std::env::temp_dir().join("tdb-doc-quickstart");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut catalog = Catalog::open(&dir, IoStats::new()).unwrap();
//! let rows: Vec<Row> = FacultyGen::figure1_instance()
//!     .iter()
//!     .map(|t| t.to_row())
//!     .collect();
//! catalog
//!     .create_relation(
//!         "Faculty",
//!         TemporalSchema::time_sequence("Name", "Rank"),
//!         &rows,
//!         vec![],
//!     )
//!     .unwrap();
//!
//! // Compile and run the paper's Superstar query.
//! let (logical, _query) = tdb::quel::compile(tdb::quel::parser::SUPERSTAR, &catalog).unwrap();
//! let optimized = tdb::algebra::conventional_optimize(logical);
//! let physical = tdb::algebra::plan(&optimized, PlannerConfig::stream()).unwrap();
//! let output = physical.execute(&catalog, ExecOptions::default()).unwrap();
//! assert_eq!(output.rows.len(), 1); // Smith is the superstar
//! ```

pub use tdb_algebra as algebra;
pub use tdb_analyze as analyze;
pub use tdb_core as core;
pub use tdb_gen as gen;
pub use tdb_live as live;
pub use tdb_quel as quel;
pub use tdb_semantic as semantic;
pub use tdb_storage as storage;
pub use tdb_stream as stream;
pub use tdb_wal as wal;

/// Commonly used items, importable with `use tdb::prelude::*`.
pub mod prelude {
    pub use tdb_algebra::{
        conventional_optimize, plan, Atom, ColumnRef, CompOp, ExecOptions, ExecStats, LogicalPlan,
        OpObservation, PhysicalPlan, PlannerConfig, QueryOutput, TemporalPattern, Term,
    };
    pub use tdb_analyze::{
        plan_verified, Analysis, AnalyzeConfig, AnalyzeError, PlanPath, StreamOpSpec,
    };
    pub use tdb_core::{
        jarr, jobj, AllenRelation, Direction, Json, Period, PeriodRow, Row, SortKey, SortSpec,
        StreamOrder, TdbError, TdbResult, Temporal, TemporalSchema, TemporalStats, TimeDelta,
        TimePoint, TsTuple, Value,
    };
    pub use tdb_gen::{ArrivalProcess, DurationDist, FacultyGen, IntervalGen, Rank};
    pub use tdb_live::{Delta, LiveConfig, LiveEngine, LiveReport, OnlineStats, ReplaySummary};
    pub use tdb_quel::{compile, parse_query};
    pub use tdb_semantic::{
        simplify_predicate, superstar_plans, Constraint, ConstraintSet, InequalityGraph,
    };
    pub use tdb_storage::{Catalog, ExternalSorter, HeapFile, IoStats};
    pub use tdb_stream::{
        from_sorted_vec, from_vec, parallel_join, parallel_semijoin, partition_with_fringe,
        BeforeJoin, BeforeSemijoin, BufferedJoin, CollectSink, ContainJoinTsTe, ContainJoinTsTs,
        ContainSelfSemijoin, ContainSemijoinStab, ContainedSelfSemijoin, ContainedSemijoinStab,
        CountSink, EventMergeJoin, GroupedSum, Instrumented, KWayMerge, LimitSink, MergeEquiJoin,
        NestedLoopJoin, OpConfig, OpReport, OverlapJoin, OverlapMode, OverlapSemijoin,
        ParallelPattern, ParallelPush, PartitionSpec, ReadPolicy, RowSink, SinkStats,
        SweepSemijoin, Tagged, TupleStream, Workspace, WorkspaceStats, DEFAULT_BATCH_ROWS,
        MAX_BATCH_ROWS,
    };
    pub use tdb_wal::{FlushPolicy, WalMetrics, WalRecord, WalStore};
}

/// Load the paper's `Faculty` example relation (or a generated variant)
/// into a fresh catalog directory — shared by examples, tests and benches.
pub fn faculty_catalog(
    dir: impl AsRef<std::path::Path>,
    tuples: &[tdb_gen::FacultyTuple],
) -> tdb_core::TdbResult<tdb_storage::Catalog> {
    let dir = dir.as_ref();
    let _ = std::fs::remove_dir_all(dir);
    let mut catalog = tdb_storage::Catalog::open(dir, tdb_storage::IoStats::new())?;
    let rows: Vec<tdb_core::Row> = tuples.iter().map(|t| t.to_row()).collect();
    catalog.create_relation(
        "Faculty",
        tdb_core::TemporalSchema::time_sequence("Name", "Rank"),
        &rows,
        vec![],
    )?;
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        use crate::prelude::*;
        let p = Period::new(0, 5).unwrap();
        assert!(p.spans(TimePoint(3)));
        let dir = std::env::temp_dir().join(format!("tdb-facade-{}", std::process::id()));
        let catalog = crate::faculty_catalog(&dir, &FacultyGen::figure1_instance()).unwrap();
        assert_eq!(catalog.scan("Faculty").unwrap().len(), 8);
    }
}
