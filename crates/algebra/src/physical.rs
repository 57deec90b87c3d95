//! Physical plans and the executor.
//!
//! A [`PhysicalPlan`] binds each logical operator to an implementation:
//! sequential scans over the catalog's heap files, filters, projections,
//! merge equi-joins, the §4 stream temporal operators, and nested-loop
//! fallbacks. Operators exchange materialized row vectors (simple,
//! measurable); the stream operators of `tdb-stream` run inside the join
//! nodes over `Copy` reference items (period + row ordinal), so output
//! rows are built once, late, from the scanned rows, and the operators
//! report their workspace high-water marks into [`ExecStats`].
//!
//! Sorting is performed lazily inside the nodes that need it: if the input
//! already satisfies the required order (verified in O(n)) the sort is
//! skipped and *not* counted — making "interesting orders" measurable, as
//! §4.1's tradeoff demands.

use crate::expr::{display_conjunction, eval_conjunction, resolve_all, Atom, ColumnRef};
use crate::logical::Scope;
use crate::pattern::TemporalPattern;
use std::fmt;
use tdb_core::{Period, Row, StreamOrder, TdbError, TdbResult, Temporal};
use tdb_storage::Catalog;
use tdb_stream::{
    from_sorted_vec, parallel_join, parallel_semijoin, run_join, run_semijoin, CollectSink, Emit,
    Instrumented, MergeEquiJoin, OpConfig, OpMetrics, OpReport, OverlapMode, PairBatch,
    ParallelPattern, RowSink, StreamOpKind, TupleStream, WorkspaceStats, DEFAULT_BATCH_ROWS,
};

/// Executor-level options: what to collect, how the stream temporal
/// operators execute, and where output rows go. Built fluently:
///
/// ```ignore
/// let mut sink = LimitSink::new(20);
/// plan.execute(&catalog, ExecOptions::new().with_sink(&mut sink))?;
/// ```
pub struct ExecOptions<'a> {
    /// Collect per-operator [`OpObservation`]s (disable for the
    /// instrumentation-overhead baseline).
    pub collect_trace: bool,
    /// Rows per columnar batch fed to the stream kernels (≥ 1; a `0` is
    /// floored to 1).
    pub batch_rows: usize,
    /// Push-mode output sink. When set, result rows are pushed into it as
    /// operators drain — chunk by chunk, honoring its early-termination
    /// signal — and [`QueryOutput::rows`] comes back empty. When `None`,
    /// the executor collects into an internal [`CollectSink`] and returns
    /// the rows, preserving the classic materializing behaviour.
    pub sink: Option<&'a mut dyn RowSink>,
}

impl<'a> Default for ExecOptions<'a> {
    fn default() -> ExecOptions<'a> {
        ExecOptions {
            collect_trace: true,
            batch_rows: DEFAULT_BATCH_ROWS,
            sink: None,
        }
    }
}

impl fmt::Debug for ExecOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecOptions")
            .field("collect_trace", &self.collect_trace)
            .field("batch_rows", &self.batch_rows)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<'a> ExecOptions<'a> {
    /// Default options: trace collection on, default batch size, no sink.
    pub fn new() -> ExecOptions<'a> {
        ExecOptions::default()
    }

    /// Set whether per-operator observations are collected.
    pub fn with_trace(mut self, collect_trace: bool) -> ExecOptions<'a> {
        self.collect_trace = collect_trace;
        self
    }

    /// Set the columnar batch size (floored to 1).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> ExecOptions<'a> {
        self.batch_rows = batch_rows;
        self
    }

    /// Push output rows into `sink` instead of materializing them.
    pub fn with_sink(mut self, sink: &'a mut dyn RowSink) -> ExecOptions<'a> {
        self.sink = Some(sink);
        self
    }

    /// The per-operator configuration these options induce
    /// ([`OpConfig::with_batch_rows`] floors a supplied `0` to 1).
    fn op_config(&self) -> OpConfig {
        OpConfig::new().with_batch_rows(self.batch_rows)
    }
}

/// Aggregate execution statistics of one query run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-relation rows read.
    pub rows_scanned: usize,
    /// Predicate evaluations / comparisons across all operators.
    pub comparisons: u64,
    /// Rows flowing between operators (intermediate result sizes).
    pub intermediate_rows: usize,
    /// Explicit sorts performed (inputs that were not already ordered).
    pub sorts_performed: usize,
    /// Rows passed through those sorts.
    pub sort_rows: usize,
    /// Maximum stream-operator workspace (state tuples) observed.
    pub max_workspace: usize,
    /// Rows in the final result.
    pub output_rows: usize,
}

/// The result of executing a physical plan.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows.
    pub rows: Vec<Row>,
    /// Qualified column names of the result.
    pub scope: Scope,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Per-operator observations, in execution (bottom-up) order; empty
    /// when collection was disabled via [`ExecOptions::with_trace`].
    pub trace: Vec<OpObservation>,
}

/// One instrumented operator occurrence observed during a query run: the
/// raw material of a query trace, before the engine pairs it with the
/// analyzer's predicted workspace cap and λ·E\[D\] expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpObservation {
    /// Display name of the operator.
    pub operator: String,
    /// The stream-operator registry kind this occurrence ran as, `None`
    /// for instrumented non-temporal operators (the merge equi-join).
    pub kind: Option<StreamOpKind>,
    /// Partition fan-out: 1 for a serial run, k under a parallel driver.
    pub partitions: usize,
    /// The operator's instrumented report (parallel runs report the
    /// partition-aggregated view: counters summed, workspace peak maxed).
    pub report: OpReport,
    /// Wall-clock microseconds this operator occurrence spent doing its
    /// own work (sorting, streaming, residual filtering) — child plans
    /// excluded, so the engine can build a stage span per operator.
    pub elapsed_us: u64,
}

impl OpObservation {
    fn serial(kind: StreamOpKind, report: OpReport, elapsed_us: u64) -> OpObservation {
        OpObservation {
            operator: kind.to_string(),
            kind: Some(kind),
            partitions: 1,
            report,
            elapsed_us,
        }
    }
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Sequential scan of a catalog relation, qualified by a range
    /// variable.
    SeqScan {
        /// Relation name.
        relation: String,
        /// Range variable.
        var: String,
    },
    /// Filter by a conjunction.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Conjunction of atoms.
        atoms: Vec<Atom>,
    },
    /// Projection with renaming.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Columns to keep and their output names.
        columns: Vec<(ColumnRef, String)>,
    },
    /// Cartesian product.
    Product {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Nested-loop theta-join (the conventional strategy of §3).
    NestedLoop {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join predicate.
        atoms: Vec<Atom>,
    },
    /// Merge equi-join on one column pair plus residual predicate.
    MergeEqui {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Left join key.
        left_key: ColumnRef,
        /// Right join key.
        right_key: ColumnRef,
        /// Residual atoms applied to joined rows.
        residual: Vec<Atom>,
    },
    /// A §4 stream temporal join on the periods of two range variables.
    StreamTemporal {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Variable whose period drives the left side.
        left_var: String,
        /// Variable whose period drives the right side.
        right_var: String,
        /// The recognized relationship.
        pattern: TemporalPattern,
        /// Residual atoms applied to joined rows.
        residual: Vec<Atom>,
    },
    /// A §4 stream temporal semijoin (left rows kept).
    StreamSemijoin {
        /// Left (output) input.
        left: Box<PhysicalPlan>,
        /// Right (existential) input.
        right: Box<PhysicalPlan>,
        /// Variable whose period drives the left side.
        left_var: String,
        /// Variable whose period drives the right side.
        right_var: String,
        /// The recognized relationship (must cover the whole predicate).
        pattern: TemporalPattern,
    },
    /// Time-partitioned parallel execution of a stream temporal join or
    /// semijoin: the time axis is split into `partitions` disjoint ranges,
    /// tuples are replicated into every range their lifespan intersects
    /// (*fringe replication*), one serial operator instance runs per range
    /// on its own thread, and boundary duplicates are removed
    /// deterministically. Only intersection-witnessed patterns
    /// (containment and overlap) are eligible; `Before`/`After` children
    /// run serially.
    Parallel {
        /// Number of time-range partitions (threads).
        partitions: usize,
        /// The stream temporal join/semijoin to parallelize.
        child: Box<PhysicalPlan>,
    },
    /// The §4.2.3 single-scan self semijoin.
    SelfSemijoin {
        /// The shared input (scanned once).
        input: Box<PhysicalPlan>,
        /// Variable whose period is compared.
        var: String,
        /// `true` = Contained-semijoin(X,X); `false` = Contain-semijoin.
        contained: bool,
    },
    /// Merge equi-semijoin: keep left rows whose key appears on the right.
    MergeSemijoin {
        /// Left (output) input.
        left: Box<PhysicalPlan>,
        /// Right (existential) input.
        right: Box<PhysicalPlan>,
        /// Left match key.
        left_key: ColumnRef,
        /// Right match key.
        right_key: ColumnRef,
    },
    /// Nested-loop semijoin fallback.
    NestedSemijoin {
        /// Left (output) input.
        left: Box<PhysicalPlan>,
        /// Right (existential) input.
        right: Box<PhysicalPlan>,
        /// Match predicate over the concatenated scope.
        atoms: Vec<Atom>,
    },
}

impl PhysicalPlan {
    /// The output scope of this plan.
    pub fn scope(&self, catalog: &Catalog) -> TdbResult<Scope> {
        Ok(match self {
            PhysicalPlan::SeqScan { relation, var } => {
                let meta = catalog.meta(relation)?;
                let attrs: Vec<String> = meta
                    .schema
                    .schema
                    .fields()
                    .iter()
                    .map(|f| f.name.clone())
                    .collect();
                Scope::for_var(var, &attrs)
            }
            PhysicalPlan::Filter { input, .. } => input.scope(catalog)?,
            PhysicalPlan::Project { columns, .. } => Scope::new(
                columns
                    .iter()
                    .map(|(_, name)| ColumnRef::new("", name.clone()))
                    .collect(),
            ),
            PhysicalPlan::Product { left, right }
            | PhysicalPlan::NestedLoop { left, right, .. }
            | PhysicalPlan::MergeEqui { left, right, .. }
            | PhysicalPlan::StreamTemporal { left, right, .. } => {
                left.scope(catalog)?.concat(&right.scope(catalog)?)
            }
            PhysicalPlan::StreamSemijoin { left, .. }
            | PhysicalPlan::MergeSemijoin { left, .. }
            | PhysicalPlan::NestedSemijoin { left, .. } => left.scope(catalog)?,
            PhysicalPlan::SelfSemijoin { input, .. } => input.scope(catalog)?,
            PhysicalPlan::Parallel { child, .. } => child.scope(catalog)?,
        })
    }

    /// Execute the plan against `catalog` under `opts` — the single
    /// execution entry point.
    ///
    /// Output rows flow through a push [`RowSink`]: the one in `opts`, or
    /// an internal [`CollectSink`] whose contents come back in
    /// [`QueryOutput::rows`] when none is given. Either way
    /// [`ExecStats::output_rows`] counts the rows offered to the sink
    /// (which a limiting sink may have declined to retain).
    pub fn execute(&self, catalog: &Catalog, opts: ExecOptions<'_>) -> TdbResult<QueryOutput> {
        let cfg = opts.op_config();
        let mut stats = ExecStats::default();
        let mut trace = Vec::new();
        let collect_trace = opts.collect_trace;
        let scope = self.scope(catalog)?;
        let rows = match opts.sink {
            Some(sink) => {
                let pushed = self.run_sink(
                    catalog,
                    cfg,
                    &mut stats,
                    collect_trace.then_some(&mut trace),
                    sink,
                )?;
                stats.output_rows = pushed;
                Vec::new()
            }
            None => {
                let mut collect = CollectSink::new();
                let pushed = self.run_sink(
                    catalog,
                    cfg,
                    &mut stats,
                    collect_trace.then_some(&mut trace),
                    &mut collect,
                )?;
                stats.output_rows = pushed;
                collect.into_rows()
            }
        };
        Ok(QueryOutput {
            rows,
            scope,
            stats,
            trace,
        })
    }

    fn run(
        &self,
        catalog: &Catalog,
        cfg: OpConfig,
        stats: &mut ExecStats,
        mut trace: Option<&mut Vec<OpObservation>>,
    ) -> TdbResult<(Vec<Row>, Scope)> {
        match self {
            PhysicalPlan::SeqScan { relation, var } => {
                let rows = catalog.scan(relation)?;
                stats.rows_scanned += rows.len();
                let scope = self.scope(catalog)?;
                let _ = var;
                Ok((rows, scope))
            }
            PhysicalPlan::Filter { input, atoms } => {
                let (rows, scope) = input.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                stats.comparisons += (rows.len() * atoms.len()) as u64;
                let rows: Vec<Row> = rows
                    .into_iter()
                    .filter(|r| eval_conjunction(&resolved, r))
                    .collect();
                stats.intermediate_rows += rows.len();
                Ok((rows, scope))
            }
            // Fused into the stream node's emission on the push path.
            PhysicalPlan::Project { input, .. } if input.is_stream_node() => {
                self.collect(catalog, cfg, stats, trace)
            }
            PhysicalPlan::Project { input, columns } => {
                let (rows, scope) = input.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let indices: Vec<usize> = columns
                    .iter()
                    .map(|(c, _)| scope.index_of(c))
                    .collect::<TdbResult<_>>()?;
                let rows: Vec<Row> = rows.iter().map(|r| r.project(&indices)).collect();
                stats.intermediate_rows += rows.len();
                Ok((rows, self.scope(catalog)?))
            }
            PhysicalPlan::Product { left, right } => {
                let (lrows, lscope) = left.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let mut out = Vec::with_capacity(lrows.len() * rrows.len());
                for l in &lrows {
                    for r in &rrows {
                        out.push(l.concat(r));
                    }
                }
                stats.intermediate_rows += out.len();
                Ok((out, lscope.concat(&rscope)))
            }
            PhysicalPlan::NestedLoop { left, right, atoms } => {
                let (lrows, lscope) = left.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let scope = lscope.concat(&rscope);
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let mut out = Vec::new();
                for l in &lrows {
                    for r in &rrows {
                        stats.comparisons += atoms.len().max(1) as u64;
                        let joined = l.concat(r);
                        if eval_conjunction(&resolved, &joined) {
                            out.push(joined);
                        }
                    }
                }
                stats.intermediate_rows += out.len();
                Ok((out, scope))
            }
            PhysicalPlan::MergeEqui {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                let (lrows, lscope) = left.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let op_t0 = std::time::Instant::now();
                let li = lscope.index_of(left_key)?;
                let ri = rscope.index_of(right_key)?;
                let lrows = sort_rows_by_key(lrows, li, stats);
                let rrows = sort_rows_by_key(rrows, ri, stats);
                let mut join = MergeEquiJoin::new(
                    tdb_stream::from_vec(lrows),
                    tdb_stream::from_vec(rrows),
                    move |r: &Row| r.get(li).clone(),
                    move |r: &Row| r.get(ri).clone(),
                );
                let scope = lscope.concat(&rscope);
                let resolved = resolve_all(residual, |c| scope.index_of(c))?;
                let mut out = Vec::new();
                while let Some((l, r)) = join.next()? {
                    stats.comparisons += residual.len() as u64;
                    let joined = l.concat(&r);
                    if eval_conjunction(&resolved, &joined) {
                        out.push(joined);
                    }
                }
                let report = join.report();
                stats.comparisons += report.metrics.comparisons as u64;
                stats.max_workspace = stats.max_workspace.max(report.max_workspace());
                stats.intermediate_rows += out.len();
                if let Some(t) = trace {
                    t.push(OpObservation {
                        operator: "MergeEquiJoin".into(),
                        kind: None,
                        partitions: 1,
                        report,
                        elapsed_us: op_t0.elapsed().as_micros() as u64,
                    });
                }
                Ok((out, scope))
            }
            // Stream nodes have one implementation, the push path; an
            // occurrence below the root collects what it pushes.
            PhysicalPlan::StreamTemporal { .. }
            | PhysicalPlan::StreamSemijoin { .. }
            | PhysicalPlan::Parallel { .. } => self.collect(catalog, cfg, stats, trace),
            PhysicalPlan::SelfSemijoin {
                input,
                var,
                contained,
            } => {
                let (rows, scope) = input.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let op_t0 = std::time::Instant::now();
                let p = scope.period_of_var(var)?;
                let wrapped = wrap_rows(&rows, p)?;
                let order = StreamOrder::TS_ASC_TE_ASC;
                let sorted = sort_wrapped(wrapped, order, stats);
                let input_stream = from_sorted_vec(sorted, order)?;
                let (kept, report): (Vec<RowRef>, OpReport) = if *contained {
                    let mut op = cfg.contained_self_semijoin(input_stream)?;
                    let v = op.collect_vec()?;
                    (v, op.report())
                } else {
                    let mut op = cfg.contain_self_semijoin(input_stream)?;
                    let v = op.collect_vec()?;
                    (v, op.report())
                };
                stats.comparisons += report.metrics.comparisons as u64;
                stats.max_workspace = stats.max_workspace.max(report.max_workspace());
                if let Some(t) = trace {
                    let kind = if *contained {
                        StreamOpKind::ContainedSelfSemijoin
                    } else {
                        StreamOpKind::ContainSelfSemijoin
                    };
                    t.push(OpObservation::serial(
                        kind,
                        report,
                        op_t0.elapsed().as_micros() as u64,
                    ));
                }
                let out: Vec<Row> = kept.iter().map(|x| rows[x.idx as usize].clone()).collect();
                stats.intermediate_rows += out.len();
                Ok((out, scope))
            }
            PhysicalPlan::MergeSemijoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let (lrows, lscope) = left.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let li = lscope.index_of(left_key)?;
                let ri = rscope.index_of(right_key)?;
                let lrows = sort_rows_by_key(lrows, li, stats);
                let mut rkeys: Vec<tdb_core::Value> =
                    rrows.iter().map(|r| r.get(ri).clone()).collect();
                rkeys.sort();
                rkeys.dedup();
                stats.comparisons += (lrows.len() as u64) * u64::from(rkeys.len().max(2).ilog2());
                let out: Vec<Row> = lrows
                    .into_iter()
                    .filter(|l| rkeys.binary_search(l.get(li)).is_ok())
                    .collect();
                stats.intermediate_rows += out.len();
                Ok((out, lscope))
            }
            PhysicalPlan::NestedSemijoin { left, right, atoms } => {
                let (lrows, lscope) = left.run(catalog, cfg, stats, trace.as_deref_mut())?;
                let (rrows, rscope) = right.run(catalog, cfg, stats, trace)?;
                let scope = lscope.concat(&rscope);
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let mut out = Vec::new();
                for l in &lrows {
                    let mut matched = false;
                    for r in &rrows {
                        stats.comparisons += atoms.len().max(1) as u64;
                        if eval_conjunction(&resolved, &l.concat(r)) {
                            matched = true;
                            break;
                        }
                    }
                    if matched {
                        out.push(l.clone());
                    }
                }
                stats.intermediate_rows += out.len();
                Ok((out, lscope))
            }
        }
    }

    /// [`PhysicalPlan::run`] for the nodes whose only implementation is
    /// the push path: run them into a [`CollectSink`].
    fn collect(
        &self,
        catalog: &Catalog,
        cfg: OpConfig,
        stats: &mut ExecStats,
        trace: Option<&mut Vec<OpObservation>>,
    ) -> TdbResult<(Vec<Row>, Scope)> {
        let mut sink = CollectSink::new();
        self.run_sink(catalog, cfg, stats, trace, &mut sink)?;
        Ok((sink.into_rows(), self.scope(catalog)?))
    }

    /// A stream temporal join or semijoin, bare or under `Parallel`.
    fn is_stream_node(&self) -> bool {
        match self {
            PhysicalPlan::StreamTemporal { .. } | PhysicalPlan::StreamSemijoin { .. } => true,
            PhysicalPlan::Parallel { child, .. } => child.is_stream_node(),
            _ => false,
        }
    }

    /// Push-mode execution: run the plan, streaming output rows into
    /// `sink` as the root operator drains instead of materializing them.
    ///
    /// Stream temporal joins/semijoins (serial and time-partitioned) emit
    /// chunk by chunk, honoring the sink's early-termination signal; a
    /// `Project` directly above one is fused into its emission, so a join
    /// offers its matches already projected ([`RowSink::push_pairs`]),
    /// and a row, if any, is built once; a sink that declines
    /// rows ([`RowSink::wants_rows`] `false`) with no residual predicate
    /// routes through the count-only kernels, building no row at all.
    /// Other roots materialize and hand the finished vector over in one
    /// push. Returns the number of rows offered to the sink.
    fn run_sink(
        &self,
        catalog: &Catalog,
        cfg: OpConfig,
        stats: &mut ExecStats,
        trace: Option<&mut Vec<OpObservation>>,
        sink: &mut dyn RowSink,
    ) -> TdbResult<usize> {
        match self {
            PhysicalPlan::Project { input, columns } if input.is_stream_node() => {
                let cscope = input.scope(catalog)?;
                let indices: Vec<usize> = columns
                    .iter()
                    .map(|(c, _)| cscope.index_of(c))
                    .collect::<TdbResult<_>>()?;
                let pushed = input.run_stream(catalog, cfg, stats, trace, Some(&indices), sink)?;
                stats.intermediate_rows += pushed;
                Ok(pushed)
            }
            // Non-partitionable child: degrade gracefully to the child's
            // own sink path.
            PhysicalPlan::Parallel { child, .. } if !child.is_stream_node() => {
                child.run_sink(catalog, cfg, stats, trace, sink)
            }
            _ if self.is_stream_node() => self.run_stream(catalog, cfg, stats, trace, None, sink),
            // Every other root materializes and hands the finished vector
            // to the sink in one push.
            _ => {
                let (mut rows, _scope) = self.run(catalog, cfg, stats, trace)?;
                let n = rows.len();
                if sink.wants_rows() {
                    if !rows.is_empty() {
                        sink.push(&mut rows)?;
                    }
                } else {
                    sink.push_count(n)?;
                }
                Ok(n)
            }
        }
    }

    /// Run a stream node ([`PhysicalPlan::is_stream_node`]) into `sink`.
    ///
    /// The operators never see a row: each side's scanned rows stay in
    /// place and the kernels sort, sweep and emit [`RowRef`]s (period +
    /// ordinal). A join hands its surviving matches to the sink as a
    /// [`PairBatch`] of ordinal pairs over those rows, projected onto
    /// `columns` (indices into the node's own output scope); the sink
    /// builds rows from it only if it keeps rows. A semijoin pushes its
    /// kept left rows.
    fn run_stream(
        &self,
        catalog: &Catalog,
        cfg: OpConfig,
        stats: &mut ExecStats,
        mut trace: Option<&mut Vec<OpObservation>>,
        columns: Option<&[usize]>,
        sink: &mut dyn RowSink,
    ) -> TdbResult<usize> {
        let (fanout, node) = match self {
            PhysicalPlan::Parallel { partitions, child } => (Some(*partitions), &**child),
            node => (None, node),
        };
        let (PhysicalPlan::StreamTemporal {
            left,
            right,
            left_var,
            right_var,
            pattern,
            ..
        }
        | PhysicalPlan::StreamSemijoin {
            left,
            right,
            left_var,
            right_var,
            pattern,
        }) = node
        else {
            return Err(TdbError::Plan(format!("not a stream node:\n{node}")));
        };
        let (lrows, lscope) = left.run(catalog, cfg, stats, trace.as_deref_mut())?;
        let (rrows, rscope) = right.run(catalog, cfg, stats, trace.as_deref_mut())?;
        let op_t0 = std::time::Instant::now();
        let l = wrap_rows(&lrows, lscope.period_of_var(left_var)?)?;
        let r = wrap_rows(&rrows, rscope.period_of_var(right_var)?)?;
        // `Before`/`After` have no time-range decomposition: serial.
        let parallel = fanout.and_then(|k| Some((k, parallel_pattern(*pattern)?)));
        let mut pushed = 0usize;
        let mut comparisons = 0u64;
        let (kind, report) = if let PhysicalPlan::StreamTemporal { residual, .. } = node {
            let scope = lscope.concat(&rscope);
            let residual = resolve_all(residual, |c| scope.index_of(c))?;
            let all: Vec<usize> = (0..scope.columns().len()).collect();
            let mut batch = PairBatch {
                left: &lrows,
                right: &rrows,
                columns: columns.unwrap_or(&all),
                pairs: Vec::new(),
            };
            let count_only = !sink.wants_rows() && residual.is_empty();
            // Matches reach the sink as ordinal pairs; the joined row is
            // only concatenated when a residual has to see it.
            let mut emit = |chunk: Vec<(RowRef, RowRef)>| -> TdbResult<bool> {
                if count_only {
                    pushed += chunk.len();
                    return sink.push_count(chunk.len());
                }
                comparisons += (residual.len() * chunk.len()) as u64;
                batch.pairs.clear();
                batch.pairs.extend(
                    chunk
                        .into_iter()
                        .filter(|(l, r)| {
                            residual.is_empty() || {
                                let joined = lrows[l.idx as usize].concat(&rrows[r.idx as usize]);
                                eval_conjunction(&residual, &joined)
                            }
                        })
                        .map(|(l, r)| (l.idx, r.idx)),
                );
                pushed += batch.pairs.len();
                if batch.pairs.is_empty() {
                    return Ok(true);
                }
                sink.push_pairs(&mut batch)
            };
            match parallel {
                Some((k, ppat)) => {
                    note_parallel_sorts(ppat, true, &l, &r, stats);
                    #[cfg(any(debug_assertions, feature = "check"))]
                    let ws_cap = parallel_ws_cap(ppat, true, &l, &r);
                    let run = parallel_join(ppat, l, r, k, cfg, &mut emit)?;
                    #[cfg(any(debug_assertions, feature = "check"))]
                    assert_under_cap(ppat.join_kind(), &run.report, ws_cap);
                    (ppat.join_kind(), run.report)
                }
                None if count_only => {
                    let (_, report) = run_stream_join(*pattern, cfg, l, r, stats, Emit::Count)?;
                    pushed = report.metrics.emitted;
                    sink.push_count(pushed)?;
                    (pattern.join_op().0, report)
                }
                None => {
                    let emit = Emit::Chunks(&mut emit);
                    let (_, report) = run_stream_join(*pattern, cfg, l, r, stats, emit)?;
                    (pattern.join_op().0, report)
                }
            }
        } else {
            let wants_rows = sink.wants_rows();
            let mut emit = |chunk: Vec<RowRef>| -> TdbResult<bool> {
                pushed += chunk.len();
                if !wants_rows {
                    return sink.push_count(chunk.len());
                }
                let mut out: Vec<Row> = chunk
                    .iter()
                    .map(|x| {
                        let row = &lrows[x.idx as usize];
                        columns.map_or_else(|| row.clone(), |ix| row.project(ix))
                    })
                    .collect();
                sink.push(&mut out)
            };
            match parallel {
                Some((k, ppat)) => {
                    note_parallel_sorts(ppat, false, &l, &r, stats);
                    #[cfg(any(debug_assertions, feature = "check"))]
                    let ws_cap = parallel_ws_cap(ppat, false, &l, &r);
                    let run = parallel_semijoin(ppat, l, r, k, cfg, &mut emit)?;
                    #[cfg(any(debug_assertions, feature = "check"))]
                    assert_under_cap(ppat.semijoin_kind(), &run.report, ws_cap);
                    (ppat.semijoin_kind(), run.report)
                }
                None => {
                    let (_, report) = run_stream_semijoin(*pattern, cfg, l, r, stats, &mut emit)?;
                    (pattern.semijoin_op().0, report)
                }
            }
        };
        stats.comparisons += comparisons + report.metrics.comparisons as u64;
        stats.max_workspace = stats.max_workspace.max(report.max_workspace());
        if let Some(t) = trace {
            t.push(OpObservation {
                operator: kind.to_string(),
                kind: Some(kind),
                partitions: parallel.map_or(1, |(k, _)| k),
                report,
                elapsed_us: op_t0.elapsed().as_micros() as u64,
            });
        }
        stats.intermediate_rows += pushed;
        Ok(pushed)
    }

    /// Render the physical plan as an indented tree (EXPLAIN output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out
    }

    fn render(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::SeqScan { relation, var } => {
                out.push_str(&format!("{pad}SeqScan {relation} as {var}\n"));
            }
            PhysicalPlan::Filter { input, atoms } => {
                out.push_str(&format!("{pad}Filter [{}]\n", display_conjunction(atoms)));
                input.render(out, depth + 1);
            }
            PhysicalPlan::Project { input, columns } => {
                let cols: Vec<String> = columns.iter().map(|(c, n)| format!("{c}→{n}")).collect();
                out.push_str(&format!("{pad}Project [{}]\n", cols.join(", ")));
                input.render(out, depth + 1);
            }
            PhysicalPlan::Product { left, right } => {
                out.push_str(&format!("{pad}Product\n"));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::NestedLoop { left, right, atoms } => {
                out.push_str(&format!(
                    "{pad}NestedLoopJoin [{}]\n",
                    display_conjunction(atoms)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::MergeEqui {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                out.push_str(&format!(
                    "{pad}MergeEquiJoin [{left_key} = {right_key}] residual [{}]\n",
                    display_conjunction(residual)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::StreamTemporal {
                left,
                right,
                left_var,
                right_var,
                pattern,
                residual,
            } => {
                out.push_str(&format!(
                    "{pad}StreamTemporalJoin {pattern:?}({left_var}, {right_var}) residual [{}]\n",
                    display_conjunction(residual)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::StreamSemijoin {
                left,
                right,
                left_var,
                right_var,
                pattern,
            } => {
                out.push_str(&format!(
                    "{pad}StreamSemijoin {pattern:?}({left_var}, {right_var})\n"
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::Parallel { partitions, child } => {
                out.push_str(&format!(
                    "{pad}Parallel ×{partitions} (time-partitioned, fringe replication)\n"
                ));
                child.render(out, depth + 1);
            }
            PhysicalPlan::SelfSemijoin {
                input,
                var,
                contained,
            } => {
                let kind = if *contained { "Contained" } else { "Contain" };
                out.push_str(&format!("{pad}{kind}SelfSemijoin({var}) — single scan\n"));
                input.render(out, depth + 1);
            }
            PhysicalPlan::MergeSemijoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                out.push_str(&format!("{pad}MergeSemijoin [{left_key} = {right_key}]\n"));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            PhysicalPlan::NestedSemijoin { left, right, atoms } => {
                out.push_str(&format!(
                    "{pad}NestedLoopSemijoin [{}]\n",
                    display_conjunction(atoms)
                ));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// What the stream operators sort, sweep and emit in place of a row: the
/// operand lifespan plus the row's ordinal in its side's scanned
/// `Vec<Row>`. `Copy`, so the kernels' payload clones are register moves
/// and no row is touched until a match is known to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowRef {
    period: Period,
    idx: u32,
}

impl Temporal for RowRef {
    #[inline]
    fn period(&self) -> Period {
        self.period
    }
}

fn wrap_rows(rows: &[Row], (ts, te): (usize, usize)) -> TdbResult<Vec<RowRef>> {
    if u32::try_from(rows.len()).is_err() {
        return Err(TdbError::Eval(format!(
            "{} rows on one side of a stream operator exceed the u32 ordinal space",
            rows.len()
        )));
    }
    rows.iter()
        .enumerate()
        .map(|(idx, row)| {
            let s = row
                .get(ts)
                .as_time()
                .ok_or_else(|| TdbError::Eval(format!("ValidFrom column holds {}", row.get(ts))))?;
            let e = row
                .get(te)
                .as_time()
                .ok_or_else(|| TdbError::Eval(format!("ValidTo column holds {}", row.get(te))))?;
            Ok(RowRef {
                period: Period::new(s, e)?,
                idx: idx as u32,
            })
        })
        .collect()
}

fn sort_rows_by_key(mut rows: Vec<Row>, key: usize, stats: &mut ExecStats) -> Vec<Row> {
    let sorted = rows.windows(2).all(|w| w[0].get(key) <= w[1].get(key));
    if !sorted {
        stats.sorts_performed += 1;
        stats.sort_rows += rows.len();
        rows.sort_by(|a, b| a.get(key).cmp(b.get(key)));
    }
    rows
}

fn sort_wrapped(mut rows: Vec<RowRef>, order: StreamOrder, stats: &mut ExecStats) -> Vec<RowRef> {
    if order.first_violation(&rows).is_some() {
        stats.sorts_performed += 1;
        stats.sort_rows += rows.len();
        order.sort(&mut rows);
    }
    rows
}

/// Map a planner pattern to its partitioned-parallel counterpart; `None`
/// for `Before`/`After`, which no time-range decomposition localizes.
pub(crate) fn parallel_pattern(pattern: TemporalPattern) -> Option<ParallelPattern> {
    match pattern {
        TemporalPattern::Contains => Some(ParallelPattern::Contains),
        TemporalPattern::During => Some(ParallelPattern::During),
        TemporalPattern::GeneralOverlap => Some(ParallelPattern::GeneralOverlap),
        TemporalPattern::AllenOverlaps => Some(ParallelPattern::AllenOverlaps),
        TemporalPattern::Before | TemporalPattern::After => None,
    }
}

/// Count the sorts the parallel driver will perform internally, mirroring
/// [`sort_wrapped`]'s "only if violated" accounting. The per-worker
/// orderings come from the operator registry, so this stays in lock-step
/// with what the driver actually requires.
fn note_parallel_sorts(
    pattern: ParallelPattern,
    join: bool,
    l: &[RowRef],
    r: &[RowRef],
    stats: &mut ExecStats,
) {
    let (lo, ro) = pattern.worker_orders(join);
    for (rows, order) in [(l, lo), (r, ro)] {
        if order.first_violation(rows).is_some() {
            stats.sorts_performed += 1;
            stats.sort_rows += rows.len();
        }
    }
}

/// Sound static workspace cap for `kind` over these concrete inputs,
/// derived from sweep statistics by [`crate::cost::workspace_cap`]. Debug
/// builds — and release builds with the `check` feature, as the CI soak
/// jobs run them — cross-check every stream operator's runtime
/// `OpReport.workspace` high-water mark against this bound.
#[cfg(any(debug_assertions, feature = "check"))]
fn static_ws_cap(kind: StreamOpKind, x: &[RowRef], y: &[RowRef]) -> usize {
    let xs = tdb_core::TemporalStats::compute(x);
    let ys = tdb_core::TemporalStats::compute(y);
    crate::cost::workspace_cap(kind, &xs, Some(&ys))
}

/// [`static_ws_cap`] for the parallel driver, normalizing the During swap
/// the same way [`tdb_stream::parallel_join`] does.
#[cfg(any(debug_assertions, feature = "check"))]
fn parallel_ws_cap(ppat: ParallelPattern, join: bool, l: &[RowRef], r: &[RowRef]) -> usize {
    let kind = if join {
        ppat.join_kind()
    } else {
        ppat.semijoin_kind()
    };
    let (x, y) = if join && ppat == ParallelPattern::During {
        (r, l)
    } else {
        (l, r)
    };
    static_ws_cap(kind, x, y)
}

#[cfg(any(debug_assertions, feature = "check"))]
fn assert_under_cap(kind: StreamOpKind, report: &OpReport, ws_cap: usize) {
    assert!(
        report.max_workspace() <= ws_cap,
        "{kind} workspace {} exceeded the static cap {ws_cap}",
        report.max_workspace()
    );
}

/// `Before`/`After` join: the one pattern with no streaming kernel, so
/// the matched pairs are materialized (as reference items) and then fed
/// on in chunks.
fn before_join_pairs(
    pattern: TemporalPattern,
    cfg: OpConfig,
    l: Vec<RowRef>,
    r: Vec<RowRef>,
) -> TdbResult<(Vec<(RowRef, RowRef)>, OpReport)> {
    // `kind` only feeds the debug-build cap assertion below.
    #[cfg_attr(not(any(debug_assertions, feature = "check")), allow(unused_variables))]
    let (kind, swap) = pattern.join_op();
    let (a, b) = if swap { (r, l) } else { (l, r) };
    #[cfg(any(debug_assertions, feature = "check"))]
    let ws_cap = static_ws_cap(kind, &a, &b);
    let mut op = cfg.before_join(tdb_stream::from_vec(a), tdb_stream::from_vec(b))?;
    let mut pairs = op.collect_vec()?;
    #[cfg(any(debug_assertions, feature = "check"))]
    assert_under_cap(kind, &op.report(), ws_cap);
    if swap {
        pairs = pairs.into_iter().map(|(x, y)| (y, x)).collect();
    }
    Ok((pairs, op.report()))
}

/// `cfg` with the overlap mode the two overlap patterns select.
fn with_overlap_mode(cfg: OpConfig, pattern: TemporalPattern) -> OpConfig {
    match pattern {
        TemporalPattern::GeneralOverlap => cfg.with_mode(OverlapMode::General),
        TemporalPattern::AllenOverlaps => cfg.with_mode(OverlapMode::Strict),
        _ => cfg,
    }
}

/// The operator, its registry input orders, the overlap mode it runs in
/// and whether the sides swap, for an intersection-witnessed join
/// pattern. The orderings come from the registry entry of the operator
/// the planner committed to, so the executor cannot drift from the
/// Table 1 preconditions the analyzer certifies.
fn join_dispatch(
    pattern: TemporalPattern,
    cfg: OpConfig,
) -> (StreamOpKind, OpConfig, StreamOrder, StreamOrder, bool) {
    let cfg = with_overlap_mode(cfg, pattern);
    let (kind, swap) = pattern.join_op();
    let req = kind.requirement();
    let x_ord = req.left().unwrap_or(StreamOrder::TS_ASC);
    let y_ord = req.right().unwrap_or(StreamOrder::TS_ASC);
    (kind, cfg, x_ord, y_ord, swap)
}

/// Run the stream join for `pattern` into `emit`: matched pairs chunk by
/// chunk, or only counted (`report.metrics.emitted`).
/// Intersection-witnessed patterns stream straight out of the kernels
/// (honoring a chunk closure's stop signal, or running count-only);
/// `Before`/`After` materialize internally and feed `emit` in chunks.
/// Returns `(completed, report)`.
fn run_stream_join(
    pattern: TemporalPattern,
    cfg: OpConfig,
    l: Vec<RowRef>,
    r: Vec<RowRef>,
    stats: &mut ExecStats,
    emit: Emit<'_, (RowRef, RowRef)>,
) -> TdbResult<(bool, OpReport)> {
    if matches!(pattern, TemporalPattern::Before | TemporalPattern::After) {
        let (pairs, report) = before_join_pairs(pattern, cfg, l, r)?;
        let completed = match emit {
            Emit::Count => true,
            Emit::Chunks(push) => feed_chunks(pairs, cfg, push)?,
        };
        return Ok((completed, report));
    }
    // Contains/During normalize to container ⊇ containee; During swaps
    // sides going in and un-swaps each emitted pair (a count needs no
    // un-swap, but the sides still go to the operator the planner
    // committed to).
    let (kind, cfg, x_ord, y_ord, swap) = join_dispatch(pattern, cfg);
    let (x, y) = if swap { (r, l) } else { (l, r) };
    let x = sort_wrapped(x, x_ord, stats);
    let y = sort_wrapped(y, y_ord, stats);
    #[cfg(any(debug_assertions, feature = "check"))]
    let ws_cap = static_ws_cap(kind, &x, &y);
    let (completed, report) = match emit {
        Emit::Chunks(push) if swap => {
            let mut unswap = |chunk: Vec<(RowRef, RowRef)>| {
                push(chunk.into_iter().map(|(a, b)| (b, a)).collect())
            };
            run_join(kind, cfg, x, x_ord, y, y_ord, Emit::Chunks(&mut unswap))?
        }
        emit => run_join(kind, cfg, x, x_ord, y, y_ord, emit)?,
    };
    #[cfg(any(debug_assertions, feature = "check"))]
    assert_under_cap(kind, &report, ws_cap);
    Ok((completed, report))
}

/// Feed an already-materialized result to `emit` in sink-sized chunks,
/// honoring the stop signal. Returns `false` if the consumer stopped
/// early.
fn feed_chunks<T>(
    items: Vec<T>,
    cfg: OpConfig,
    emit: &mut dyn FnMut(Vec<T>) -> TdbResult<bool>,
) -> TdbResult<bool> {
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(cfg.batch_rows).collect();
        if chunk.is_empty() {
            return Ok(true);
        }
        if !emit(chunk)? {
            return Ok(false);
        }
    }
}

/// `Before`/`After` semijoin (left rows kept): no streaming kernel, so
/// the kept items are materialized and then fed on in chunks.
fn before_semijoin_kept(
    pattern: TemporalPattern,
    cfg: OpConfig,
    l: Vec<RowRef>,
    r: Vec<RowRef>,
) -> TdbResult<(Vec<RowRef>, OpReport)> {
    if pattern == TemporalPattern::Before {
        let mut op = cfg.before_semijoin(tdb_stream::from_vec(l), tdb_stream::from_vec(r))?;
        let kept = op.collect_vec()?;
        return Ok((kept, op.report()));
    }
    // x after y ⇔ ∃y: y.TE < x.TS — keep x with x.TS > min(y.TE).
    let read_left = l.len();
    let read_right = r.len();
    let min_te = r.iter().map(|p| p.te()).min();
    let kept: Vec<RowRef> = match min_te {
        Some(m) => l.into_iter().filter(|x| m < x.ts()).collect(),
        None => Vec::new(),
    };
    let report = OpReport::new(
        OpMetrics {
            read_left,
            read_right,
            comparisons: 0,
            emitted: kept.len(),
            passes: 1,
        },
        WorkspaceStats::of_resident(1),
    );
    Ok((kept, report))
}

/// Run the stream semijoin for `pattern`, handing kept left items to
/// `emit` chunk by chunk. Intersection-witnessed patterns stream out of
/// the kernels; `Before`/`After` materialize internally and feed `emit`
/// in chunks.
fn run_stream_semijoin(
    pattern: TemporalPattern,
    cfg: OpConfig,
    l: Vec<RowRef>,
    r: Vec<RowRef>,
    stats: &mut ExecStats,
    emit: &mut dyn FnMut(Vec<RowRef>) -> TdbResult<bool>,
) -> TdbResult<(bool, OpReport)> {
    if matches!(pattern, TemporalPattern::Before | TemporalPattern::After) {
        let (kept, report) = before_semijoin_kept(pattern, cfg, l, r)?;
        let completed = feed_chunks(kept, cfg, emit)?;
        return Ok((completed, report));
    }
    let cfg = with_overlap_mode(cfg, pattern);
    let (kind, _) = pattern.semijoin_op();
    let req = kind.requirement();
    let l_ord = req.left().unwrap_or(StreamOrder::TS_ASC);
    let r_ord = req.right().unwrap_or(StreamOrder::TS_ASC);
    let l = sort_wrapped(l, l_ord, stats);
    let r = sort_wrapped(r, r_ord, stats);
    #[cfg(any(debug_assertions, feature = "check"))]
    let ws_cap = static_ws_cap(kind, &l, &r);
    let (completed, report) = run_semijoin(kind, cfg, l, l_ord, r, r_ord, Emit::Chunks(emit))?;
    #[cfg(any(debug_assertions, feature = "check"))]
    assert_under_cap(kind, &report, ws_cap);
    Ok((completed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CompOp;
    use tdb_core::{TemporalSchema, Value};
    use tdb_storage::IoStats;

    fn test_catalog(name: &str) -> Catalog {
        let dir =
            std::env::temp_dir().join(format!("tdb-algebra-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = Catalog::open(dir, IoStats::new()).unwrap();
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let rows: Vec<Row> = tdb_gen::FacultyGen::figure1_instance()
            .iter()
            .map(|t| t.to_row())
            .collect();
        cat.create_relation("Faculty", schema, &rows, vec![])
            .unwrap();
        cat
    }

    fn scan(var: &str) -> PhysicalPlan {
        PhysicalPlan::SeqScan {
            relation: "Faculty".into(),
            var: var.into(),
        }
    }

    #[test]
    fn seq_scan_and_filter() {
        let cat = test_catalog("scan");
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan("f")),
            atoms: vec![Atom::col_const("f", "Rank", CompOp::Eq, "Associate")],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 3); // Smith, Jones, Brown associates
        assert_eq!(out.stats.rows_scanned, 8);
    }

    #[test]
    fn project_renames() {
        let cat = test_catalog("proj");
        let plan = PhysicalPlan::Project {
            input: Box::new(scan("f")),
            columns: vec![(ColumnRef::new("f", "Name"), "who".into())],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows[0].arity(), 1);
        assert_eq!(out.scope.columns()[0], ColumnRef::new("", "who"));
    }

    #[test]
    fn nested_loop_equijoin() {
        let cat = test_catalog("nl");
        let plan = PhysicalPlan::NestedLoop {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![Atom::cols("f1", "Name", CompOp::Eq, "f2", "Name")],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        // Smith 3², Jones 3², Brown 2² = 9 + 9 + 4.
        assert_eq!(out.rows.len(), 22);
        assert_eq!(out.stats.comparisons, 64);
    }

    #[test]
    fn merge_equi_matches_nested_loop() {
        let cat = test_catalog("merge");
        let nl = PhysicalPlan::NestedLoop {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![Atom::cols("f1", "Name", CompOp::Eq, "f2", "Name")],
        };
        let me = PhysicalPlan::MergeEqui {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_key: ColumnRef::new("f1", "Name"),
            right_key: ColumnRef::new("f2", "Name"),
            residual: vec![],
        };
        let mut a = nl.execute(&cat, ExecOptions::default()).unwrap().rows;
        let mut b = me.execute(&cat, ExecOptions::default()).unwrap().rows;
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
    }

    #[test]
    fn stream_temporal_contains_join() {
        let cat = test_catalog("stream");
        // Pairs (f1, f2) where f1's lifespan contains f2's.
        let stream = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::Contains,
            residual: vec![],
        };
        let nl = PhysicalPlan::NestedLoop {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![
                Atom::cols("f1", "ValidFrom", CompOp::Lt, "f2", "ValidFrom"),
                Atom::cols("f2", "ValidTo", CompOp::Lt, "f1", "ValidTo"),
            ],
        };
        let mut a = stream.execute(&cat, ExecOptions::default()).unwrap().rows;
        let mut b = nl.execute(&cat, ExecOptions::default()).unwrap().rows;
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn parallel_stream_nodes_match_serial_results() {
        let cat = test_catalog("parallel");
        let join = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let serial = join.execute(&cat, ExecOptions::default()).unwrap();
        for partitions in [1, 2, 4, 7] {
            let par = PhysicalPlan::Parallel {
                partitions,
                child: Box::new(join.clone()),
            };
            let out = par.execute(&cat, ExecOptions::default()).unwrap();
            let mut a = out.rows.clone();
            let mut b = serial.rows.clone();
            a.sort_by_key(|r| format!("{r}"));
            b.sort_by_key(|r| format!("{r}"));
            assert_eq!(a, b, "partitions={partitions}");
            // Per-partition workspaces never exceed the serial peak (each
            // worker sees a subset of the spanning tuples).
            assert!(out.stats.max_workspace <= serial.stats.max_workspace);
        }
        let semi = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        let serial = semi.execute(&cat, ExecOptions::default()).unwrap();
        let par = PhysicalPlan::Parallel {
            partitions: 4,
            child: Box::new(semi),
        };
        let out = par.execute(&cat, ExecOptions::default()).unwrap();
        let mut a = out.rows;
        let mut b = serial.rows.clone();
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
        // A non-partitionable child degrades gracefully to serial.
        let before = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::Before,
            residual: vec![],
        };
        let serial = before.execute(&cat, ExecOptions::default()).unwrap();
        let par = PhysicalPlan::Parallel {
            partitions: 4,
            child: Box::new(before),
        };
        let out = par.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), serial.rows.len());
    }

    #[test]
    fn self_semijoin_runs_single_scan() {
        let cat = test_catalog("selfsj");
        // Associates contained in other associates' periods.
        let assoc = PhysicalPlan::Filter {
            input: Box::new(scan("f")),
            atoms: vec![Atom::col_const("f", "Rank", CompOp::Eq, "Associate")],
        };
        let plan = PhysicalPlan::SelfSemijoin {
            input: Box::new(assoc),
            var: "f".into(),
            contained: true,
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        // Smith's associate [5,9) ⊂ Jones's [4,12): Smith kept.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(0), &Value::str("Smith"));
        assert!(out.stats.max_workspace <= 1);
        // Only one scan of the 8-row base relation.
        assert_eq!(out.stats.rows_scanned, 8);
    }

    #[test]
    fn stream_semijoin_during() {
        let cat = test_catalog("sj");
        let plan = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        let nested = PhysicalPlan::NestedSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            atoms: vec![
                Atom::cols("f2", "ValidFrom", CompOp::Lt, "f1", "ValidFrom"),
                Atom::cols("f1", "ValidTo", CompOp::Lt, "f2", "ValidTo"),
            ],
        };
        let mut a = plan.execute(&cat, ExecOptions::default()).unwrap().rows;
        let mut b = nested.execute(&cat, ExecOptions::default()).unwrap().rows;
        a.sort_by_key(|r| format!("{r}"));
        b.sort_by_key(|r| format!("{r}"));
        assert_eq!(a, b);
    }

    #[test]
    fn explain_renders_operators() {
        let plan = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        let text = plan.explain();
        assert!(text.contains("StreamSemijoin During(f1, f2)"));
        assert!(text.contains("SeqScan Faculty as f1"));
    }

    #[test]
    fn sink_execution_matches_materialized_output_and_stats() {
        let cat = test_catalog("sink");
        let join = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let project = PhysicalPlan::Project {
            input: Box::new(join.clone()),
            columns: vec![(ColumnRef::new("f1", "Name"), "who".into())],
        };
        for plan in [&join, &project] {
            let baseline = plan.execute(&cat, ExecOptions::default()).unwrap();
            let mut sink = tdb_stream::CollectSink::new();
            let out = plan
                .execute(&cat, ExecOptions::new().with_sink(&mut sink))
                .unwrap();
            assert!(out.rows.is_empty(), "sink runs return no rows inline");
            assert_eq!(sink.rows(), &baseline.rows[..]);
            assert_eq!(out.stats, baseline.stats);
            // Wall-clock per-operator timings are nondeterministic; the
            // equivalence claim is about counters and workspace.
            let untimed = |trace: &[OpObservation]| -> Vec<OpObservation> {
                trace
                    .iter()
                    .cloned()
                    .map(|mut o| {
                        o.elapsed_us = 0;
                        o
                    })
                    .collect()
            };
            assert_eq!(untimed(&out.trace), untimed(&baseline.trace));
            assert_eq!(sink.finish().rows as usize, baseline.rows.len());
        }
    }

    #[test]
    fn limit_sink_stops_stream_join_early() {
        let cat = test_catalog("limitsink");
        let join = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let full = join.execute(&cat, ExecOptions::default()).unwrap();
        assert!(full.rows.len() > 2);
        // Tiny kernel batches so output chunks are small enough for the
        // limit to bite mid-run.
        let mut sink = tdb_stream::LimitSink::new(2);
        let out = join
            .execute(
                &cat,
                ExecOptions::new().with_batch_rows(2).with_sink(&mut sink),
            )
            .unwrap();
        assert_eq!(sink.rows().len(), 2);
        assert_eq!(&full.rows[..2], sink.rows());
        assert!(sink.full());
        assert!(
            out.stats.output_rows < full.rows.len(),
            "early termination stopped the producer ({} of {})",
            out.stats.output_rows,
            full.rows.len()
        );
    }

    /// A library caller's `batch_rows = 0` is a batch of one row, not a
    /// different execution path — including the `Before` pattern, whose
    /// materialized pairs are re-chunked by that size.
    #[test]
    fn zero_batch_rows_is_floored_to_one() {
        let cat = test_catalog("zerobatch");
        for pattern in [TemporalPattern::Contains, TemporalPattern::Before] {
            let join = PhysicalPlan::StreamTemporal {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
                left_var: "f1".into(),
                right_var: "f2".into(),
                pattern,
                residual: vec![],
            };
            let default = join.execute(&cat, ExecOptions::new()).unwrap();
            assert!(!default.rows.is_empty(), "{pattern:?}");
            let zero = join
                .execute(&cat, ExecOptions::new().with_batch_rows(0))
                .unwrap();
            assert_eq!(zero.rows, default.rows, "{pattern:?}");
            assert_eq!(zero.stats, default.stats, "{pattern:?}");
        }
    }

    #[test]
    fn count_sink_skips_widening_but_counts_exactly() {
        let cat = test_catalog("countsink");
        for plan in [
            PhysicalPlan::StreamTemporal {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
                left_var: "f1".into(),
                right_var: "f2".into(),
                pattern: TemporalPattern::Contains,
                residual: vec![],
            },
            PhysicalPlan::Parallel {
                partitions: 4,
                child: Box::new(PhysicalPlan::StreamSemijoin {
                    left: Box::new(scan("f1")),
                    right: Box::new(scan("f2")),
                    left_var: "f1".into(),
                    right_var: "f2".into(),
                    pattern: TemporalPattern::During,
                }),
            },
        ] {
            let baseline = plan.execute(&cat, ExecOptions::default()).unwrap();
            let mut sink = tdb_stream::CountSink::new();
            let out = plan
                .execute(&cat, ExecOptions::new().with_sink(&mut sink))
                .unwrap();
            assert_eq!(sink.count() as usize, baseline.rows.len());
            assert_eq!(out.stats.output_rows, baseline.rows.len());
            assert_eq!(out.stats.max_workspace, baseline.stats.max_workspace);
        }
    }

    #[test]
    fn fused_projection_and_residual_match_nested_loop() {
        let cat = test_catalog("fused");
        let columns = vec![
            (ColumnRef::new("f2", "Rank"), "r2".to_string()),
            (ColumnRef::new("f1", "Name"), "n1".to_string()),
        ];
        let temporal = [
            Atom::cols("f1", "ValidFrom", CompOp::Lt, "f2", "ValidTo"),
            Atom::cols("f2", "ValidFrom", CompOp::Lt, "f1", "ValidTo"),
        ];
        for residual in [
            vec![],
            vec![Atom::cols("f1", "Name", CompOp::Ne, "f2", "Name")],
        ] {
            let stream = PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::StreamTemporal {
                    left: Box::new(scan("f1")),
                    right: Box::new(scan("f2")),
                    left_var: "f1".into(),
                    right_var: "f2".into(),
                    pattern: TemporalPattern::GeneralOverlap,
                    residual: residual.clone(),
                }),
                columns: columns.clone(),
            };
            let nested = PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::NestedLoop {
                    left: Box::new(scan("f1")),
                    right: Box::new(scan("f2")),
                    atoms: temporal.iter().chain(&residual).cloned().collect(),
                }),
                columns: columns.clone(),
            };
            let mut a = stream.execute(&cat, ExecOptions::default()).unwrap().rows;
            let mut b = nested.execute(&cat, ExecOptions::default()).unwrap().rows;
            assert!(a.iter().all(|r| r.arity() == 2));
            a.sort_by_key(|r| format!("{r}"));
            b.sort_by_key(|r| format!("{r}"));
            assert_eq!(a, b, "residual {residual:?}");
            assert!(!a.is_empty());
            // The same fused node below the root (collected, not pushed).
            let filtered = PhysicalPlan::Filter {
                input: Box::new(stream),
                atoms: vec![],
            };
            let mut c = filtered.execute(&cat, ExecOptions::default()).unwrap().rows;
            c.sort_by_key(|r| format!("{r}"));
            assert_eq!(c, b);
        }
    }

    #[test]
    fn sorts_are_counted_only_when_needed() {
        let cat = test_catalog("sorts");
        let plan = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let out = plan.execute(&cat, ExecOptions::default()).unwrap();
        // Figure-1 data arrives grouped by name, not by time: both sides
        // need sorting.
        assert_eq!(out.stats.sorts_performed, 2);
        let _ = out.stats.comparisons;
        let filter_time = PhysicalPlan::Filter {
            input: Box::new(scan("f")),
            atoms: vec![Atom::col_const("f", "Rank", CompOp::Eq, "NoSuchRank")],
        };
        let out = filter_time.execute(&cat, ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 0);
    }
}
