//! Physical plans and the executor.
//!
//! A [`PhysicalPlan`] binds each logical operator to an implementation:
//! sequential scans over the catalog's heap files, filters, projections,
//! merge equi-joins, the §4 stream temporal operators, and nested-loop
//! fallbacks. One recursive walker runs every node: each pushes its
//! output chunk by chunk into a [`RowSink`] and stops as soon as the sink
//! says so, and a node that needs an input whole runs that child into a
//! collector. A scan offers its rows a page at a time. The stream
//! operators of `tdb-stream` run inside the join nodes over `Copy`
//! reference items (period + row ordinal), reading a stored input page
//! by page as the kernel asks (the `input` module), so output rows are
//! built once, late, from the scanned rows, a limit that stops the
//! kernel stops the scan, and the operators report their workspace
//! high-water marks into [`ExecStats`].
//!
//! Sorting is performed lazily inside the nodes that need it: if the input
//! already satisfies the required order (verified in O(n)) the sort is
//! skipped and *not* counted — making "interesting orders" measurable, as
//! §4.1's tradeoff demands.

use crate::expr::{display_conjunction, eval_conjunction, resolve_all, Atom, ColumnRef};
use crate::input::{Arena, Input, RowRef, StreamInput};
use crate::logical::Scope;
use crate::pattern::TemporalPattern;
use std::fmt;
use tdb_core::{Row, StreamOrder, TdbError, TdbResult, Temporal, TemporalStats};
use tdb_storage::Catalog;
use tdb_stream::{
    merge_equi_join, run_join, run_kernel, run_self_semijoin, run_semijoin, BeforeSemijoin, Emit,
    OpConfig, OpReport, OverlapMode, PairBatch, RowSink, SinkStats, StreamOpKind,
    DEFAULT_BATCH_ROWS,
};

/// Executor-level options: how the stream temporal operators execute,
/// and where output rows go. Built fluently:
///
/// ```ignore
/// let mut sink = LimitSink::new(20);
/// plan.execute(&catalog, ExecOptions::new().with_sink(&mut sink))?;
/// ```
pub struct ExecOptions<'a> {
    /// Rows per columnar batch fed to the stream kernels (≥ 1; a `0` is
    /// floored to 1).
    pub batch_rows: usize,
    /// Push-mode output sink. When set, result rows are pushed into it as
    /// operators drain — chunk by chunk, honoring its early-termination
    /// signal — and [`QueryOutput::rows`] comes back empty. When `None`,
    /// the executor collects into an internal collector and returns the
    /// rows.
    pub sink: Option<&'a mut dyn RowSink>,
}

impl<'a> Default for ExecOptions<'a> {
    fn default() -> ExecOptions<'a> {
        ExecOptions {
            batch_rows: DEFAULT_BATCH_ROWS,
            sink: None,
        }
    }
}

impl fmt::Debug for ExecOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecOptions")
            .field("batch_rows", &self.batch_rows)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<'a> ExecOptions<'a> {
    /// Default options: default batch size, no sink.
    pub fn new() -> ExecOptions<'a> {
        ExecOptions::default()
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
    /// Heap pages those rows were read from.
    pub pages_read: u64,
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
    /// The most rows one side's arena of a stream node held at once: a
    /// collected side's row count, a stored side's window.
    pub arena_peak: usize,
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
    /// Per-operator observations, in execution (bottom-up) order.
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
    /// The operator's instrumented report.
    pub report: OpReport,
    /// Wall-clock microseconds this operator occurrence spent doing its
    /// own work (sorting, streaming, residual filtering) — child plans
    /// excluded, so the engine can build a stage span per operator.
    pub elapsed_us: u64,
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
        })
    }

    /// Execute the plan against `catalog` under `opts` — the single
    /// execution entry point.
    ///
    /// Every node pushes its output chunk by chunk into a [`RowSink`]: the
    /// one in `opts`, or an internal collector whose contents come back in
    /// [`QueryOutput::rows`] when none is given. Either way
    /// [`ExecStats::output_rows`] counts the rows offered to the sink
    /// (which a limiting sink may have declined to retain), and a sink
    /// that says stop ends the scan, join or merge mid-stream.
    pub fn execute(&self, catalog: &Catalog, opts: ExecOptions<'_>) -> TdbResult<QueryOutput> {
        let scope = self.scope(catalog)?;
        let mut ex = Exec {
            catalog,
            cfg: opts.op_config(),
            stats: ExecStats::default(),
            trace: Vec::new(),
        };
        let mut rows = Collect::default();
        let sink: &mut dyn RowSink = match opts.sink {
            Some(sink) => sink,
            None => &mut rows,
        };
        ex.stats.output_rows = self.run_into(&mut ex, sink)?;
        Ok(QueryOutput {
            rows: rows.0,
            scope,
            stats: ex.stats,
            trace: ex.trace,
        })
    }

    /// Run this node into `sink` until it is done or the sink says stop;
    /// returns the rows it offered, which every node but a scan also adds
    /// to [`ExecStats::intermediate_rows`].
    ///
    /// A scan offers a page at a time. A node that needs an input whole —
    /// the binary nodes, and a stream-node side that cannot stream
    /// ([`crate::input`]) — runs that child into a collector
    /// ([`PhysicalPlan::input_rows`]); `Filter` and an unfused `Project`
    /// map each chunk their child offers on its way up. Every
    /// node hands its output on through [`offer`]; `Product`, `NestedLoop`
    /// and `NestedSemijoin` do so every `batch_rows` output rows
    /// ([`offer_chunks`]).
    fn run_into(&self, ex: &mut Exec<'_>, sink: &mut dyn RowSink) -> TdbResult<usize> {
        let offered = match self {
            // A page at a time, so a sink that says stop stops the read.
            PhysicalPlan::SeqScan { relation, .. } => {
                let mut pages = ex.catalog.scan_pages(relation)?;
                let mut offered = 0;
                let mut rows = Vec::new();
                while pages.next_page(&mut rows)? {
                    offered += rows.len();
                    ex.stats.rows_scanned += rows.len();
                    if !offer(sink, &mut rows)? {
                        break;
                    }
                    rows.clear();
                }
                ex.stats.pages_read += pages.pages_read();
                return Ok(offered);
            }
            PhysicalPlan::Filter { input, atoms } => {
                let scope = input.scope(ex.catalog)?;
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let mut filter = MapSink {
                    sink,
                    map: |rows: &mut Vec<Row>| rows.retain(|r| eval_conjunction(&resolved, r)),
                    offered: 0,
                };
                let seen = input.run_into(ex, &mut filter)?;
                ex.stats.comparisons += (seen * atoms.len()) as u64;
                filter.offered
            }
            PhysicalPlan::Project { input, columns } => {
                let scope = input.scope(ex.catalog)?;
                let indices: Vec<usize> = columns
                    .iter()
                    .map(|(c, _)| scope.index_of(c))
                    .collect::<TdbResult<_>>()?;
                // Fused into the stream node's emission.
                if input.is_stream_node() {
                    input.run_stream(ex, Some(&indices), sink)?
                } else {
                    let mut project = MapSink {
                        sink,
                        map: |rows: &mut Vec<Row>| {
                            *rows = rows.iter().map(|r| r.project(&indices)).collect();
                        },
                        offered: 0,
                    };
                    input.run_into(ex, &mut project)?;
                    project.offered
                }
            }
            PhysicalPlan::Product { left, right } => {
                let (lrows, rrows) = (left.input_rows(ex)?, right.input_rows(ex)?);
                let pairs = lrows.iter().flat_map(|l| rrows.iter().map(|r| l.concat(r)));
                offer_chunks(sink, pairs, ex.cfg.batch_rows)?
            }
            PhysicalPlan::NestedLoop { left, right, atoms } => {
                let (lrows, rrows) = (left.input_rows(ex)?, right.input_rows(ex)?);
                let scope = self.scope(ex.catalog)?;
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let matches = lrows
                    .iter()
                    .flat_map(|l| rrows.iter().map(|r| l.concat(r)))
                    .filter(|joined| {
                        ex.stats.comparisons += atoms.len().max(1) as u64;
                        eval_conjunction(&resolved, joined)
                    });
                offer_chunks(sink, matches, ex.cfg.batch_rows)?
            }
            PhysicalPlan::MergeEqui {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                let (lrows, rrows) = (left.input_rows(ex)?, right.input_rows(ex)?);
                let li = left.scope(ex.catalog)?.index_of(left_key)?;
                let ri = right.scope(ex.catalog)?.index_of(right_key)?;
                let scope = self.scope(ex.catalog)?;
                let resolved = resolve_all(residual, |c| scope.index_of(c))?;
                let op_t0 = std::time::Instant::now();
                let lrows = sort_rows_by_key(lrows, li, &mut ex.stats);
                let rrows = sort_rows_by_key(rrows, ri, &mut ex.stats);
                let (pairs, report) = merge_equi_join(
                    &lrows,
                    &rrows,
                    |r: &Row| r.get(li).clone(),
                    |r: &Row| r.get(ri).clone(),
                )?;
                let mut out: Vec<Row> = pairs
                    .into_iter()
                    .map(|(l, r)| l.concat(&r))
                    .filter(|joined| {
                        ex.stats.comparisons += residual.len() as u64;
                        eval_conjunction(&resolved, joined)
                    })
                    .collect();
                ex.stats.comparisons += report.metrics.comparisons as u64;
                ex.stats.max_workspace = ex.stats.max_workspace.max(report.max_workspace());
                ex.trace.push(OpObservation {
                    operator: "MergeEquiJoin".into(),
                    kind: None,
                    report,
                    elapsed_us: op_t0.elapsed().as_micros() as u64,
                });
                let n = out.len();
                offer(sink, &mut out)?;
                n
            }
            // Counts its own output into `intermediate_rows`.
            PhysicalPlan::StreamTemporal { .. }
            | PhysicalPlan::StreamSemijoin { .. }
            | PhysicalPlan::SelfSemijoin { .. } => return self.run_stream(ex, None, sink),
            PhysicalPlan::MergeSemijoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let (lrows, rrows) = (left.input_rows(ex)?, right.input_rows(ex)?);
                let li = left.scope(ex.catalog)?.index_of(left_key)?;
                let ri = right.scope(ex.catalog)?.index_of(right_key)?;
                let mut lrows = sort_rows_by_key(lrows, li, &mut ex.stats);
                let mut rkeys: Vec<tdb_core::Value> =
                    rrows.iter().map(|r| r.get(ri).clone()).collect();
                rkeys.sort();
                rkeys.dedup();
                ex.stats.comparisons +=
                    (lrows.len() as u64) * u64::from(rkeys.len().max(2).ilog2());
                lrows.retain(|l| rkeys.binary_search(l.get(li)).is_ok());
                let n = lrows.len();
                offer(sink, &mut lrows)?;
                n
            }
            PhysicalPlan::NestedSemijoin { left, right, atoms } => {
                let (lrows, rrows) = (left.input_rows(ex)?, right.input_rows(ex)?);
                let scope = left.scope(ex.catalog)?.concat(&right.scope(ex.catalog)?);
                let resolved = resolve_all(atoms, |c| scope.index_of(c))?;
                let kept = lrows.into_iter().filter(|l| {
                    rrows.iter().any(|r| {
                        ex.stats.comparisons += atoms.len().max(1) as u64;
                        eval_conjunction(&resolved, &l.concat(r))
                    })
                });
                offer_chunks(sink, kept, ex.cfg.batch_rows)?
            }
        };
        ex.stats.intermediate_rows += offered;
        Ok(offered)
    }

    /// Run this node into a collector: the input of a node that needs it
    /// whole.
    pub(crate) fn input_rows(&self, ex: &mut Exec<'_>) -> TdbResult<Vec<Row>> {
        let mut rows = Collect::default();
        self.run_into(ex, &mut rows)?;
        Ok(rows.0)
    }

    /// A stream temporal join, semijoin or self semijoin.
    fn is_stream_node(&self) -> bool {
        matches!(
            self,
            PhysicalPlan::StreamTemporal { .. }
                | PhysicalPlan::StreamSemijoin { .. }
                | PhysicalPlan::SelfSemijoin { .. }
        )
    }

    /// Run a stream node ([`PhysicalPlan::is_stream_node`]) into `sink`.
    ///
    /// The operators never see a row: each side is an [`Input`] of
    /// [`RowRef`]s (period + ordinal) over the side's arena of rows, read
    /// from storage as the kernel asks or collected whole, and the
    /// kernels sweep and emit those. A join hands its surviving matches
    /// to the sink as a [`PairBatch`] of ordinal pairs over the arenas,
    /// projected onto `columns` (indices into the node's own output
    /// scope). A semijoin or self semijoin pushes its kept left rows.
    fn run_stream(
        &self,
        ex: &mut Exec<'_>,
        columns: Option<&[usize]>,
        sink: &mut dyn RowSink,
    ) -> TdbResult<usize> {
        let (larena, rarena) = (Arena::default(), Arena::default());
        let mut pushed = 0usize;
        // Kept left rows (semijoins) go to the sink projected.
        let mut keep = |chunk: Vec<RowRef>| -> TdbResult<bool> {
            pushed += chunk.len();
            let rows = larena.rows();
            let mut out: Vec<Row> = chunk
                .iter()
                .map(|x| {
                    let row = &rows[x.idx as usize];
                    columns.map_or_else(|| row.clone(), |ix| row.project(ix))
                })
                .collect();
            sink.push(&mut out)
        };
        // Residual-predicate evaluations of a join, on top of the kernel's.
        let mut comparisons = 0u64;
        let (kind, report, op_t0, ws_cap) = match self {
            PhysicalPlan::SelfSemijoin {
                input,
                var,
                contained,
            } => {
                let kind = if *contained {
                    StreamOpKind::ContainedSelfSemijoin
                } else {
                    StreamOpKind::ContainSelfSemijoin
                };
                let order = kind.requirement().left();
                let mut x = Input::open(input, var, order, ex, &larena)?;
                let op_t0 = std::time::Instant::now();
                let ws_cap = static_ws_cap(kind, || (x.stats(), x.stats()));
                let x_in = (&mut x).into_order(order, &mut ex.stats);
                let (_, report) = run_self_semijoin(kind, ex.cfg, x_in, Emit::Chunks(&mut keep))?;
                x.account(&mut ex.stats);
                (kind, report, op_t0, ws_cap)
            }
            PhysicalPlan::StreamTemporal {
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
            } => {
                let join = matches!(self, PhysicalPlan::StreamTemporal { .. });
                let op = StreamOp::resolve(*pattern, join, ex.cfg)?;
                // A join's sides swap going in; a semijoin's do not.
                let [lorder, rorder] = match op.orders {
                    [x, y] if join && op.swap => [y, x],
                    orders => orders,
                };
                let mut l = Input::open(left, left_var, lorder, ex, &larena)?;
                let mut r = Input::open(right, right_var, rorder, ex, &rarena)?;
                let op_t0 = std::time::Instant::now();
                let ws_cap = static_ws_cap(op.kind, || {
                    if op.swap {
                        (r.stats(), l.stats())
                    } else {
                        (l.stats(), r.stats())
                    }
                });
                let report = if let PhysicalPlan::StreamTemporal { residual, .. } = self {
                    let scope = self.scope(ex.catalog)?;
                    let residual = resolve_all(residual, |c| scope.index_of(c))?;
                    let all: Vec<usize> = (0..scope.columns().len()).collect();
                    let columns = columns.unwrap_or(&all);
                    let mut pairs = Vec::new();
                    let mut pushed_pairs = 0usize;
                    // Matches reach the sink as ordinal pairs; the joined
                    // row is only concatenated when a residual has to see
                    // it.
                    let mut emit = |chunk: Vec<(RowRef, RowRef)>| -> TdbResult<bool> {
                        comparisons += (residual.len() * chunk.len()) as u64;
                        let (lrows, rrows) = (larena.rows(), rarena.rows());
                        pairs.clear();
                        pairs.extend(
                            chunk
                                .into_iter()
                                .filter(|(l, r)| {
                                    residual.is_empty() || {
                                        let joined =
                                            lrows[l.idx as usize].concat(&rrows[r.idx as usize]);
                                        eval_conjunction(&residual, &joined)
                                    }
                                })
                                .map(|(l, r)| (l.idx, r.idx)),
                        );
                        pushed_pairs += pairs.len();
                        if pairs.is_empty() {
                            return Ok(true);
                        }
                        let mut batch = PairBatch {
                            left: &lrows,
                            right: &rrows,
                            columns,
                            pairs: std::mem::take(&mut pairs),
                        };
                        let more = sink.push_pairs(&mut batch);
                        pairs = batch.pairs;
                        more
                    };
                    let report = op.join(&mut l, &mut r, &mut ex.stats, &mut emit)?;
                    pushed = pushed_pairs;
                    report
                } else {
                    op.semijoin(&mut l, &mut r, &mut ex.stats, &mut keep)?
                };
                l.account(&mut ex.stats);
                r.account(&mut ex.stats);
                (op.kind, report, op_t0, ws_cap)
            }
            _ => return Err(TdbError::Plan(format!("not a stream node:\n{self}"))),
        };
        assert_under_cap(kind, &report, ws_cap);
        ex.stats.comparisons += comparisons + report.metrics.comparisons as u64;
        ex.stats.max_workspace = ex.stats.max_workspace.max(report.max_workspace());
        ex.stats.arena_peak = ex.stats.arena_peak.max(larena.peak()).max(rarena.peak());
        ex.trace.push(OpObservation {
            operator: kind.to_string(),
            kind: Some(kind),
            report,
            elapsed_us: op_t0.elapsed().as_micros() as u64,
        });
        ex.stats.intermediate_rows += pushed;
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

fn sort_rows_by_key(mut rows: Vec<Row>, key: usize, stats: &mut ExecStats) -> Vec<Row> {
    let sorted = rows.windows(2).all(|w| w[0].get(key) <= w[1].get(key));
    if !sorted {
        stats.sorts_performed += 1;
        stats.sort_rows += rows.len();
        rows.sort_by(|a, b| a.get(key).cmp(b.get(key)));
    }
    rows
}

/// Sort `rows` into the order a kernel input requires, if it has one and
/// the rows are not in it already; only a performed sort is counted.
pub(crate) fn sort_by_requirement<T: Temporal>(
    mut rows: Vec<T>,
    order: Option<StreamOrder>,
    stats: &mut ExecStats,
) -> Vec<T> {
    if let Some(order) = order {
        if order.first_violation(&rows).is_some() {
            stats.sorts_performed += 1;
            stats.sort_rows += rows.len();
            order.sort(&mut rows);
        }
    }
    rows
}

/// What one execution carries down the plan: the catalog, the operator
/// configuration, and the counters and trace it accumulates.
pub(crate) struct Exec<'c> {
    pub(crate) catalog: &'c Catalog,
    cfg: OpConfig,
    pub(crate) stats: ExecStats,
    trace: Vec<OpObservation>,
}

/// Hand a chunk to `sink` and return its continue flag. An empty chunk
/// is not offered.
fn offer(sink: &mut dyn RowSink, rows: &mut Vec<Row>) -> TdbResult<bool> {
    if rows.is_empty() {
        Ok(true)
    } else {
        sink.push(rows)
    }
}

/// Collects the input of a node that needs it whole. The first chunk is
/// taken as it is; later chunks are appended.
#[derive(Default)]
struct Collect(Vec<Row>);

impl RowSink for Collect {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        if self.0.is_empty() {
            std::mem::swap(&mut self.0, rows);
        } else {
            self.0.append(rows);
        }
        Ok(true)
    }

    fn finish(&mut self) -> SinkStats {
        SinkStats::default()
    }
}

/// Offer what `rows` yields, `batch` rows at a time, until it runs dry or
/// the sink says stop; returns the rows offered. Rows past the last chunk
/// offered are never built.
fn offer_chunks(
    sink: &mut dyn RowSink,
    mut rows: impl Iterator<Item = Row>,
    batch: usize,
) -> TdbResult<usize> {
    let mut offered = 0;
    loop {
        let mut chunk: Vec<Row> = rows.by_ref().take(batch).collect();
        offered += chunk.len();
        if chunk.is_empty() || !offer(sink, &mut chunk)? {
            return Ok(offered);
        }
    }
}

/// `Filter` or an unfused `Project` as its child sees it: each chunk the
/// child offers is mapped in place and passed on, and the rows passed on
/// are counted.
struct MapSink<'s, F> {
    sink: &'s mut dyn RowSink,
    map: F,
    offered: usize,
}

impl<F: FnMut(&mut Vec<Row>)> RowSink for MapSink<'_, F> {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        (self.map)(rows);
        self.offered += rows.len();
        offer(self.sink, rows)
    }

    fn finish(&mut self) -> SinkStats {
        SinkStats::default()
    }
}

/// Sound static workspace cap for `kind` over inputs with statistics
/// `sides` (X, Y), derived by [`crate::cost::workspace_cap`]: a collected
/// side's own statistics, which do not depend on its order, or a stored
/// side's relation's, which bound any subset a filter keeps. Debug builds
/// — and release builds with the `check` feature, as the CI soak jobs run
/// them — check every stream operator's runtime workspace peak against
/// it ([`assert_under_cap`]); other builds skip the statistics and get no
/// cap.
fn static_ws_cap(
    kind: StreamOpKind,
    sides: impl FnOnce() -> (TemporalStats, TemporalStats),
) -> usize {
    if !cfg!(any(debug_assertions, feature = "check")) {
        return usize::MAX;
    }
    let (xs, ys) = sides();
    crate::cost::workspace_cap(kind, &xs, Some(&ys))
}

/// Check a stream operator's runtime workspace peak against its
/// [`static_ws_cap`].
fn assert_under_cap(kind: StreamOpKind, report: &OpReport, ws_cap: usize) {
    assert!(
        report.max_workspace() <= ws_cap,
        "{kind} workspace {} exceeded the static cap {ws_cap}",
        report.max_workspace()
    );
}

/// A temporal pattern resolved to the stream operator that evaluates it,
/// and the one place a stream node — executed or held between live
/// epochs — turns into a kernel run.
///
/// The kernel and its input orders come from the registry entry of the
/// operator the planner committed to, so no run can drift from the
/// Table 1 preconditions the analyzer certifies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOp {
    /// The operator that runs.
    pub(crate) kind: StreamOpKind,
    /// The configuration it runs under, overlap mode included.
    pub(crate) cfg: OpConfig,
    /// The orders the kernel's two inputs must arrive in (`None`: any),
    /// after the swap.
    pub(crate) orders: [Option<StreamOrder>; 2],
    /// A join exchanges its sides going in and back coming out (`During`
    /// runs the `Contains` kernel, `After` the `Before` one); a semijoin
    /// runs its kernel mirrored instead (`After`).
    pub(crate) swap: bool,
}

impl StreamOp {
    /// Resolve `pattern` in a join (`join`) or semijoin context, under
    /// `cfg`; a semijoin no kernel evaluates is a plan error.
    pub fn resolve(pattern: TemporalPattern, join: bool, cfg: OpConfig) -> TdbResult<StreamOp> {
        let (kind, swap) = if join {
            pattern.join_op()
        } else {
            pattern.semijoin_op().ok_or_else(|| {
                TdbError::Plan(format!("no stream semijoin evaluates {pattern:?}"))
            })?
        };
        let cfg = match pattern {
            TemporalPattern::GeneralOverlap => cfg.with_mode(OverlapMode::General),
            TemporalPattern::AllenOverlaps | TemporalPattern::OverlappedBy => {
                cfg.with_mode(OverlapMode::Strict)
            }
            _ => cfg,
        };
        let req = kind.requirement();
        Ok(StreamOp {
            kind,
            cfg,
            orders: [req.left(), req.right()],
            swap,
        })
    }

    /// Run as a join of the pattern's `left` and `right` sides into
    /// `emit`: each input is brought into its order (a vector sorted
    /// only if its order is violated, counted in `stats`), the sides swap
    /// going in and every pair is un-swapped coming out. Returns the
    /// operator's report.
    pub fn join<I, T>(
        &self,
        left: I,
        right: I,
        stats: &mut ExecStats,
        emit: &mut dyn FnMut(Vec<(T, T)>) -> TdbResult<bool>,
    ) -> TdbResult<OpReport>
    where
        I: StreamInput<Item = T>,
        T: Temporal + Clone,
    {
        let (x, y) = if self.swap {
            (right, left)
        } else {
            (left, right)
        };
        let x = x.into_order(self.orders[0], stats);
        let y = y.into_order(self.orders[1], stats);
        let mut unswap = |chunk: Vec<(T, T)>| {
            if self.swap {
                emit(chunk.into_iter().map(|(a, b)| (b, a)).collect())
            } else {
                emit(chunk)
            }
        };
        Ok(run_join(self.kind, self.cfg, x, y, Emit::Chunks(&mut unswap))?.1)
    }

    /// Run as a semijoin keeping the items of `left` that match one of
    /// `right`, handed to `emit` chunk by chunk; ordering and the result as
    /// for [`StreamOp::join`]. `After` runs the Before-semijoin kernel
    /// mirrored ([`BeforeSemijoin::after`]).
    pub fn semijoin<I, T>(
        &self,
        left: I,
        right: I,
        stats: &mut ExecStats,
        emit: &mut dyn FnMut(Vec<T>) -> TdbResult<bool>,
    ) -> TdbResult<OpReport>
    where
        I: StreamInput<Item = T>,
        T: Temporal + Clone,
    {
        let [x_ord, y_ord] = self.orders;
        let x = left.into_order(x_ord, stats);
        let y = right.into_order(y_ord, stats);
        let emit = Emit::Chunks(emit);
        let (_, report) = if self.swap {
            let op = BeforeSemijoin::after();
            run_kernel(op, self.cfg.batch_rows, x, x_ord, y, y_ord, emit)?
        } else {
            run_semijoin(self.kind, self.cfg, x, y, emit)?
        };
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CompOp;
    use tdb_core::{Period, TemporalSchema, Value};
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

    /// Every node kind, at a batch size that chunks the loop nodes'
    /// output and at the default: an external `CollectSink` gets the rows
    /// the default run returns, and it and a `CountSink` see the same
    /// counters and untimed per-operator reports.
    #[test]
    fn sink_execution_matches_materialized_output_and_stats() {
        let cat = test_catalog("sink");
        let name_eq = || vec![Atom::cols("f1", "Name", CompOp::Eq, "f2", "Name")];
        let join = PhysicalPlan::StreamTemporal {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::GeneralOverlap,
            residual: vec![],
        };
        let semijoin = PhysicalPlan::StreamSemijoin {
            left: Box::new(scan("f1")),
            right: Box::new(scan("f2")),
            left_var: "f1".into(),
            right_var: "f2".into(),
            pattern: TemporalPattern::During,
        };
        let who = || vec![(ColumnRef::new("f1", "Name"), "who".to_string())];
        let plans = [
            join.clone(),
            PhysicalPlan::Project {
                input: Box::new(join.clone()),
                columns: who(),
            },
            scan("f1"),
            PhysicalPlan::Filter {
                input: Box::new(scan("f1")),
                atoms: vec![Atom::col_const("f1", "Rank", CompOp::Eq, "Associate")],
            },
            PhysicalPlan::Project {
                input: Box::new(scan("f1")),
                columns: who(),
            },
            PhysicalPlan::Product {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
            },
            PhysicalPlan::NestedLoop {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
                atoms: name_eq(),
            },
            PhysicalPlan::MergeEqui {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
                left_key: ColumnRef::new("f1", "Name"),
                right_key: ColumnRef::new("f2", "Name"),
                residual: vec![Atom::cols("f1", "Rank", CompOp::Ne, "f2", "Rank")],
            },
            PhysicalPlan::MergeSemijoin {
                left: Box::new(scan("f1")),
                right: Box::new(PhysicalPlan::Filter {
                    input: Box::new(scan("f2")),
                    atoms: vec![Atom::col_const("f2", "Rank", CompOp::Eq, "Full")],
                }),
                left_key: ColumnRef::new("f1", "Name"),
                right_key: ColumnRef::new("f2", "Name"),
            },
            PhysicalPlan::NestedSemijoin {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
                atoms: name_eq(),
            },
            PhysicalPlan::SelfSemijoin {
                input: Box::new(scan("f1")),
                var: "f1".into(),
                contained: true,
            },
            semijoin,
        ];
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
        for batch_rows in [3, DEFAULT_BATCH_ROWS] {
            for plan in &plans {
                let opts = || ExecOptions::new().with_batch_rows(batch_rows);
                let baseline = plan.execute(&cat, opts()).unwrap();
                assert!(!baseline.rows.is_empty(), "{plan}");
                let mut collect = tdb_stream::CollectSink::new();
                let out = plan
                    .execute(
                        &cat,
                        ExecOptions {
                            sink: Some(&mut collect),
                            ..opts()
                        },
                    )
                    .unwrap();
                assert!(out.rows.is_empty(), "sink runs return no rows inline");
                assert_eq!(collect.rows(), &baseline.rows[..], "{plan}");
                assert_eq!(collect.finish().rows as usize, baseline.rows.len());
                let mut count = tdb_stream::CountSink::new();
                let counted = plan
                    .execute(
                        &cat,
                        ExecOptions {
                            sink: Some(&mut count),
                            ..opts()
                        },
                    )
                    .unwrap();
                assert_eq!(count.count() as usize, baseline.rows.len(), "{plan}");
                for run in [out, counted] {
                    assert_eq!(run.stats, baseline.stats, "{plan}");
                    assert_eq!(untimed(&run.trace), untimed(&baseline.trace), "{plan}");
                }
            }
        }
    }

    /// Relations `X` and `Y` of 2 000 Poisson-arrival tuples each.
    fn xy_catalog(tag: &str) -> Catalog {
        let dir = std::env::temp_dir().join(format!("tdb-algebra-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        for (name, seed) in [("X", 1u64), ("Y", 2)] {
            let rows: Vec<Row> = tdb_gen::IntervalGen::poisson(2000, 3.0, 10.0, seed)
                .generate()
                .iter()
                .map(|t| {
                    Row::new(vec![
                        Value::str(name),
                        Value::str(""),
                        Value::Time(t.ts()),
                        Value::Time(t.te()),
                    ])
                })
                .collect();
            cat.create_relation(name, schema.clone(), &rows, vec![])
                .unwrap();
        }
        cat
    }

    fn side(relation: &str, var: &str) -> Box<PhysicalPlan> {
        Box::new(PhysicalPlan::SeqScan {
            relation: relation.into(),
            var: var.into(),
        })
    }

    /// A limit stops the loop nodes after the chunk that fills it, though
    /// each reads its inputs whole.
    #[test]
    fn limit_stops_loop_nodes_after_one_chunk() {
        let cat = xy_catalog("loops");
        let earlier = || vec![Atom::cols("x", "ValidFrom", CompOp::Lt, "y", "ValidFrom")];
        let batch_rows = 64;
        for plan in [
            PhysicalPlan::Product {
                left: side("X", "x"),
                right: side("Y", "y"),
            },
            PhysicalPlan::NestedLoop {
                left: side("X", "x"),
                right: side("Y", "y"),
                atoms: earlier(),
            },
            PhysicalPlan::NestedSemijoin {
                left: side("X", "x"),
                right: side("Y", "y"),
                atoms: earlier(),
            },
        ] {
            let mut sink = tdb_stream::LimitSink::new(20);
            let out = plan
                .execute(
                    &cat,
                    ExecOptions::new()
                        .with_batch_rows(batch_rows)
                        .with_sink(&mut sink),
                )
                .unwrap();
            assert_eq!(sink.rows().len(), 20, "{plan}");
            assert!(
                out.stats.output_rows <= 20 + batch_rows,
                "{plan}: {} rows offered for a limit of 20",
                out.stats.output_rows
            );
        }
    }

    /// A scan offers a page at a time, so a limit over a scan or a
    /// filter stops reading the heap.
    #[test]
    fn limit_stops_a_scan_after_one_page() {
        let cat = xy_catalog("scanlimit");
        let pages = cat.meta("X").unwrap().pages.unwrap();
        let filtered = PhysicalPlan::Filter {
            input: side("X", "x"),
            atoms: vec![Atom::col_const("x", "Name", CompOp::Eq, "X")],
        };
        for plan in [*side("X", "x"), filtered] {
            let full = plan.execute(&cat, ExecOptions::default()).unwrap();
            assert_eq!(
                (full.stats.rows_scanned, full.stats.pages_read),
                (2000, pages)
            );
            let mut sink = tdb_stream::LimitSink::new(20);
            let out = plan
                .execute(&cat, ExecOptions::new().with_sink(&mut sink))
                .unwrap();
            assert_eq!(sink.rows(), &full.rows[..20], "{plan}");
            assert_eq!(out.stats.pages_read, 1, "{plan}");
            assert!(out.stats.rows_scanned < 2000, "{plan}");
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

    /// Before/After joins stream out of their kernel: a limit stops the
    /// run after the first chunk (the pairs are never all built), and a
    /// count sink sees every pair, as ordinals it never builds into rows.
    /// 2 000 tuples per side, ≈ 2 M pairs.
    #[test]
    fn before_and_after_joins_stop_at_a_limit_and_count_exactly() {
        let cat = xy_catalog("before");
        let periods = |relation: &str| -> Vec<Period> {
            let meta = cat.meta(relation).unwrap();
            let rows = cat.scan(relation).unwrap();
            rows.iter()
                .map(|r| meta.schema.period_of(r).unwrap())
                .collect()
        };
        let (xs, ys) = (periods("X"), periods("Y"));
        for pattern in [TemporalPattern::Before, TemporalPattern::After] {
            let join = PhysicalPlan::StreamTemporal {
                left: side("X", "x"),
                right: side("Y", "y"),
                left_var: "x".into(),
                right_var: "y".into(),
                pattern,
                residual: vec![],
            };
            let batch_rows = 64;
            let mut sink = tdb_stream::LimitSink::new(20);
            let out = join
                .execute(
                    &cat,
                    ExecOptions::new()
                        .with_batch_rows(batch_rows)
                        .with_sink(&mut sink),
                )
                .unwrap();
            assert_eq!(sink.rows().len(), 20, "{pattern:?}");
            let emitted = out.trace.last().unwrap().report.metrics.emitted;
            assert!(
                emitted <= 20 + batch_rows,
                "{pattern:?}: {emitted} pairs built for a limit of 20"
            );
            let mut sink = tdb_stream::CountSink::new();
            let out = join
                .execute(&cat, ExecOptions::new().with_sink(&mut sink))
                .unwrap();
            let nested = xs
                .iter()
                .flat_map(|x| ys.iter().map(move |y| (x, y)))
                .filter(|(x, y)| match pattern {
                    TemporalPattern::Before => x.before(y),
                    _ => y.before(x),
                })
                .count();
            assert!(nested > 1_000_000, "{pattern:?}: {nested}");
            assert_eq!(out.stats.output_rows, nested, "{pattern:?}");
        }
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
            PhysicalPlan::StreamSemijoin {
                left: Box::new(scan("f1")),
                right: Box::new(scan("f2")),
                left_var: "f1".into(),
                right_var: "f2".into(),
                pattern: TemporalPattern::During,
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
