//! What a stream node's kernel reads each side from.
//!
//! The kernels never see a row. Each side is a stream of `Copy`
//! [`RowRef`]s (period + ordinal) whose rows live in the side's
//! [`Arena`], which emission reads once a match is known to survive. A
//! stored side's arena is a window, not its input: before the scan reads
//! a page into it, it is compacted down to the rows the kernel and the
//! stream still hold once it has outgrown what it kept ([`Arena::due`]).
//! A side is one of three kinds:
//!
//! 1. **Stored, in order.** A `[Filter]* SeqScan` whose relation claims
//!    an order (`known_orders`) that meets the kernel's requirement, or
//!    whose kernel has none (Before/After), is read a page at a time as
//!    the kernel asks ([`PageStream::new`]), so a sink that stops the
//!    kernel also stops the scan.
//! 2. **Stored TS↑, read TE↑.** The same, through the bounded re-sort
//!    ([`PageStream::resorted`]), whose peak is at most the relation's
//!    `max_concurrency`.
//! 3. **Anything else** — no claimed order, another order, a join or
//!    merge below — is collected whole and sorted if its order is
//!    violated: the one pipeline breaker.
//!
//! The stored kinds verify the claimed order as pages arrive; a heap
//! that breaks it is an `OrderViolation`. Every kind hands the kernel the
//! same items in the same order as collecting and sorting would, so
//! answers, comparisons and workspace peaks do not depend on the kind.

use crate::expr::{eval_conjunction, resolve_all, Atom, ResolvedAtom};
use crate::physical::{sort_by_requirement, Exec, ExecStats, PhysicalPlan};
use std::cell::{Cell, Ref, RefCell};
use tdb_core::{Period, Row, StreamOrder, TdbError, TdbResult, Temporal, TemporalStats};
use tdb_storage::PageScan;
use tdb_stream::{
    BatchStream, KernelInput, PageSource, PageStream, RowBatch, ShowHeld, VecBatchStream,
};

/// What the stream operators sort, sweep and emit in place of a row: the
/// operand lifespan plus the row's ordinal in its side's arena. `Copy`,
/// so the kernels' payload clones are register moves and no row is
/// touched until a match is known to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowRef {
    pub(crate) period: Period,
    pub(crate) idx: u32,
}

impl Temporal for RowRef {
    #[inline]
    fn period(&self) -> Period {
        self.period
    }
}

/// The reference to `row`, ordinal `idx`, whose lifespan is in columns
/// `(ts, te)`.
fn row_ref(row: &Row, (ts, te): (usize, usize), idx: usize) -> TdbResult<RowRef> {
    let idx = u32::try_from(idx).map_err(|_| {
        TdbError::Eval(format!(
            "{} rows on one side of a stream operator exceed the u32 ordinal space",
            idx + 1
        ))
    })?;
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
        idx,
    })
}

/// A side's rows, indexed by [`RowRef::idx`]: the scan appends each page
/// it reads, emission reads matches between batches, and a compaction
/// ([`Arena::compact`]) keeps only the rows some `RowRef` still points
/// at. Its length between compactions is at most twice what the last one
/// kept plus a page, and one more page once the next is read.
#[derive(Default)]
pub(crate) struct Arena {
    rows: RefCell<Vec<Row>>,
    /// Rows the last compaction kept.
    kept: Cell<usize>,
    /// The most rows one page added.
    page: Cell<usize>,
    /// The most rows held at once.
    peak: Cell<usize>,
}

impl Arena {
    /// The rows, for emission.
    pub(crate) fn rows(&self) -> Ref<'_, Vec<Row>> {
        self.rows.borrow()
    }

    /// The most rows the arena held at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak.get()
    }

    /// Hold `rows`, whose lifespans are in columns `period`, handing their
    /// references to `refs`.
    fn extend(
        &self,
        rows: impl ExactSizeIterator<Item = Row>,
        period: (usize, usize),
        refs: &mut Vec<RowRef>,
    ) -> TdbResult<()> {
        let mut arena = self.rows.borrow_mut();
        self.page.set(self.page.get().max(rows.len()));
        refs.reserve(rows.len());
        for row in rows {
            refs.push(row_ref(&row, period, arena.len())?);
            arena.push(row);
        }
        self.peak.set(self.peak.get().max(arena.len()));
        Ok(())
    }

    /// Has the arena outgrown twice what its last compaction kept, plus a
    /// page? The same rule for every side, so the work of compacting is
    /// paid for by the rows read since.
    fn due(&self) -> bool {
        self.rows.borrow().len() > 2 * self.kept.get() + self.page.get()
    }

    /// Move every row that `held` shows a reference to into a fresh
    /// arena, in the order first shown, and point the reference at it;
    /// the rest are dropped. A forwarding table keeps two references to
    /// one row pointing at one row.
    fn compact(&self, held: &mut ShowHeld<'_, RowRef>) {
        const UNMOVED: u32 = u32::MAX;
        let mut old = self.rows.take();
        let mut forward = vec![UNMOVED; old.len()];
        let mut fresh = Vec::with_capacity(self.kept.get());
        held(&mut |r| {
            let to = &mut forward[r.idx as usize];
            if *to == UNMOVED {
                // `fresh` is shorter than `old`, whose ordinals are u32.
                *to = fresh.len() as u32;
                fresh.push(std::mem::take(&mut old[r.idx as usize]));
            }
            r.idx = *to;
        });
        self.kept.set(fresh.len());
        *self.rows.borrow_mut() = fresh;
    }
}

/// A `[Filter]* SeqScan` read a page at a time into its arena: the
/// [`PageSource`] of a stored side, counting what it read.
pub(crate) struct Scan<'a> {
    pages: PageScan,
    /// The page being read, one buffer for every page.
    rows: Vec<Row>,
    /// The filters' conjunctions, innermost first.
    filters: Vec<Vec<ResolvedAtom>>,
    period: (usize, usize),
    arena: &'a Arena,
    /// The relation's statistics: the side's rows are a subset, so they
    /// bound its workspace cap and re-sort peak.
    stats: TemporalStats,
    scanned: usize,
    comparisons: u64,
    /// Rows each filter passed on, summed over the filters.
    passed: usize,
}

impl PageSource for Scan<'_> {
    type Item = RowRef;

    fn next_page(&mut self, out: &mut Vec<RowRef>) -> TdbResult<bool> {
        let rows = &mut self.rows;
        if !self.pages.next_page(rows)? {
            return Ok(false);
        }
        self.scanned += rows.len();
        for atoms in &self.filters {
            self.comparisons += (rows.len() * atoms.len()) as u64;
            rows.retain(|r| eval_conjunction(atoms, r));
            self.passed += rows.len();
        }
        self.arena.extend(rows.drain(..), self.period, out)?;
        Ok(true)
    }

    fn compact(&mut self, held: &mut ShowHeld<'_, RowRef>) {
        if self.arena.due() {
            self.arena.compact(held);
        }
    }
}

/// One side of a stream node, as its kernel reads it.
pub(crate) enum Input<'a> {
    /// Collected whole (its rows already in the arena), sorted as needed
    /// on the way in.
    Collected(Vec<RowRef>),
    /// Read from storage as the kernel asks.
    Stored(Box<PageStream<Scan<'a>>>),
}

impl<'a> Input<'a> {
    /// Open side `plan`, whose lifespan is `var`'s, for a kernel input
    /// that needs `order` (`None`: any); its rows go to `arena`.
    pub(crate) fn open(
        plan: &PhysicalPlan,
        var: &str,
        order: Option<StreamOrder>,
        ex: &mut Exec<'_>,
        arena: &'a Arena,
    ) -> TdbResult<Input<'a>> {
        let period = plan.scope(ex.catalog)?.period_of_var(var)?;
        if let Some(stream) = stored(plan, period, order, ex, arena)? {
            return Ok(Input::Stored(Box::new(stream)));
        }
        let mut refs = Vec::new();
        arena.extend(plan.input_rows(ex)?.into_iter(), period, &mut refs)?;
        Ok(Input::Collected(refs))
    }

    /// Statistics that bound the side's workspace: its own for a
    /// collected side, the relation's for a stored one.
    pub(crate) fn stats(&self) -> TemporalStats {
        match self {
            Input::Collected(refs) => TemporalStats::compute(refs),
            Input::Stored(stream) => stream.source().stats.clone(),
        }
    }

    /// Add what reading a stored side cost to `stats`, and check its
    /// re-sort's peak against the relation's `max_concurrency` in debug
    /// and `check` builds. A collected side was counted as it was
    /// collected.
    pub(crate) fn account(&self, stats: &mut ExecStats) {
        let Input::Stored(stream) = self else { return };
        let scan = stream.source();
        stats.rows_scanned += scan.scanned;
        stats.pages_read += scan.pages.pages_read();
        stats.comparisons += scan.comparisons;
        stats.intermediate_rows += scan.passed;
        if cfg!(any(debug_assertions, feature = "check")) {
            let cap = scan.stats.max_concurrency;
            assert!(
                stream.peak() <= cap,
                "re-sort peak {} exceeded the relation's max concurrency {cap}",
                stream.peak()
            );
        }
    }
}

/// The stored stream `plan` reads from when it is a `[Filter]* SeqScan`
/// over the relation's own lifespan columns and the kernel can use the
/// stored order: it needs none (`order` is `None`), the relation claims
/// one that meets `order`, or it claims TS↑ and the kernel needs TE↑
/// (re-sorted). `None` otherwise.
fn stored<'a>(
    plan: &PhysicalPlan,
    period: (usize, usize),
    order: Option<StreamOrder>,
    ex: &Exec<'_>,
    arena: &'a Arena,
) -> TdbResult<Option<PageStream<Scan<'a>>>> {
    let mut filters: Vec<&[Atom]> = Vec::new();
    let mut node = plan;
    let relation = loop {
        match node {
            PhysicalPlan::Filter { input, atoms } => {
                filters.push(atoms);
                node = input;
            }
            PhysicalPlan::SeqScan { relation, .. } => break relation,
            _ => return Ok(None),
        }
    };
    let meta = ex.catalog.meta(relation)?;
    if (meta.schema.valid_from, meta.schema.valid_to) != period {
        return Ok(None);
    }
    let claims = |o: StreamOrder| meta.known_orders.iter().any(|k| k.satisfies(&o));
    let resort = match order {
        Some(o) if !claims(o) => {
            if o != StreamOrder::TE_ASC || !claims(StreamOrder::TS_ASC) {
                return Ok(None);
            }
            true
        }
        _ => false,
    };
    let scope = node.scope(ex.catalog)?;
    let filters = filters
        .iter()
        .rev()
        .map(|atoms| resolve_all(atoms, |c| scope.index_of(c)))
        .collect::<TdbResult<_>>()?;
    let scan = Scan {
        pages: ex.catalog.scan_pages(relation)?,
        rows: Vec::new(),
        filters,
        period,
        arena,
        stats: meta.stats.clone(),
        scanned: 0,
        comparisons: 0,
        passed: 0,
    };
    Ok(Some(if resort {
        PageStream::resorted(scan, StreamOrder::TS_ASC)?
    } else {
        PageStream::new(scan, order)
    }))
}

/// A stream node's input on its way into the kernel: a vector (a
/// collected side, or a live subscription's held rows) or a side the
/// executor reads from storage.
pub trait StreamInput: KernelInput {
    /// Bring the input into `order` (`None`: any): a vector is sorted if
    /// it breaks it, counted in `stats`; a stored side delivers it
    /// already.
    #[must_use]
    fn into_order(self, order: Option<StreamOrder>, stats: &mut ExecStats) -> Self;
}

impl<T: Temporal> StreamInput for Vec<T> {
    fn into_order(self, order: Option<StreamOrder>, stats: &mut ExecStats) -> Self {
        sort_by_requirement(self, order, stats)
    }
}

impl StreamInput for &mut Input<'_> {
    fn into_order(self, order: Option<StreamOrder>, stats: &mut ExecStats) -> Self {
        if let Input::Collected(refs) = self {
            *refs = sort_by_requirement(std::mem::take(refs), order, stats);
        }
        self
    }
}

impl<'s, 'a> KernelInput for &'s mut Input<'a> {
    type Item = RowRef;
    type Stream = Batches<'s, 'a>;

    fn into_batches(self, order: Option<StreamOrder>, rows: usize) -> TdbResult<Batches<'s, 'a>> {
        Ok(match self {
            Input::Collected(refs) => {
                Batches::Collected(VecBatchStream::new(std::mem::take(refs), order, rows)?)
            }
            Input::Stored(stream) => Batches::Stored(stream.as_mut().into_batches(order, rows)?),
        })
    }
}

/// The batches a kernel reads from an [`Input`].
pub(crate) enum Batches<'s, 'a> {
    Collected(VecBatchStream<RowRef>),
    Stored(&'s mut PageStream<Scan<'a>>),
}

impl BatchStream for Batches<'_, '_> {
    type Item = RowRef;

    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<RowRef>>> {
        match self {
            Batches::Collected(batches) => batches.next_batch(),
            Batches::Stored(batches) => batches.next_batch(),
        }
    }

    fn compact(&mut self, kernel: &mut ShowHeld<'_, RowRef>) {
        match self {
            Batches::Collected(batches) => batches.compact(kernel),
            Batches::Stored(batches) => batches.compact(kernel),
        }
    }
}
