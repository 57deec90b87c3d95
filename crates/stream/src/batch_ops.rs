//! The sweep kernels: one implementation per stream operator, over
//! columnar [`RowBatch`]es.
//!
//! | kernel | paper | workspace |
//! |---|---|---|
//! | [`ContainJoinTsTe`] | §4.2.1, Table 1 state (b) | gapless X state |
//! | [`OverlapJoin`] | §4.2.4, Table 2 state (a) | gapless X+Y states |
//! | [`OverlapSemijoin`] | §4.2.4, Table 2 state (b) | none / gapless (strict) |
//! | [`ContainSemijoinStab`] | §4.2.2, Figure 6, Table 1 state (d) | buffers only |
//! | [`ContainedSemijoinStab`] | §4.2.2, Figure 6, Table 1 state (d) | buffers only |
//!
//! The kernels are **push**-driven: the caller feeds batches via
//! [`BatchOp::process_batch_left`] / `_right` when [`BatchOp::wants`] asks
//! for that side, and collects output with [`BatchOp::drain`]. There are
//! two ways to run that protocol, and both run the same kernel code:
//! [`drive`] pushes each drained chunk to a closure (the executor's path,
//! through [`crate::dispatch`]), and the crate-private `PullOp` adapter
//! hides the protocol behind a [`TupleStream`] so callers that compose
//! streams keep pulling one tuple at a time (what [`crate::OpConfig`]'s
//! constructors return).
//!
//! The demand signal makes a kernel read exactly the tuples the paper's
//! algorithm needs and no more — a cursor counts a row as read when it
//! first becomes the visible head, never when its batch arrives — so
//! [`OpReport`]s (reads, comparisons, emits, workspace statistics) are
//! **identical for every batch size**. The hot loops run over the dense
//! endpoint columns of [`RowBatch`] and [`GaplessWorkspace`] (Piatov et
//! al.): branch-light integer comparisons the compiler can unroll and
//! vectorize, with payloads touched only on a match.
//! `tests/batch_equivalence.rs` pins the batch-size invariance and checks
//! every output against the nested-loop Allen oracle.
//!
//! ### Paper erratum (TS↑/TE↑ Contain-join)
//!
//! The paper's garbage-collection phase for the `(ValidFrom ↑, ValidTo ↑)`
//! configuration reads "dispose of X tuples if X.ValidTo **>** y_b.ValidTo",
//! which would discard exactly the tuples that still can contain future Y
//! tuples, contradicting the state characterization (b) "X tuples whose
//! lifespan *span* y_b.ValidTo". [`ContainJoinTsTe`] implements the
//! evidently intended condition `X.ValidTo < y_b.ValidTo` (every future
//! `y` has `y.TE ≥ y_b.TE > x.TE`, so such `x` is dead). A regression
//! test pins this down.

use crate::batch::{BatchStream, Batcher, RowBatch};
use crate::gapless::GaplessWorkspace;
use crate::metrics::OpMetrics;
use crate::overlap_join::OverlapMode;
use crate::read_policy::{Advance, PolicyState, ReadPolicy};
use crate::report::{Instrumented, OpReport};
use crate::stream::TupleStream;
use crate::workspace::WorkspaceStats;
use std::collections::VecDeque;
use tdb_core::{StreamOrder, TdbResult, Temporal, TimePoint};

/// Which input of a two-input kernel a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The X (left) input.
    Left,
    /// The Y (right) input.
    Right,
}

/// What a kernel needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wants {
    /// A batch (or end-of-stream notice) for the left input.
    Left,
    /// A batch (or end-of-stream notice) for the right input.
    Right,
    /// Nothing — the kernel has produced all output.
    Done,
}

/// A push-mode batched operator.
///
/// Protocol: while [`BatchOp::wants`] is not [`Wants::Done`], feed the
/// requested side one batch via `process_batch_*` or declare it finished
/// via [`BatchOp::finish`]; collect output with [`BatchOp::drain`] at any
/// point. [`drive`] and the pull adapter implement this loop.
pub trait BatchOp {
    /// Left input row type.
    type LeftItem: Temporal + Clone;
    /// Right input row type.
    type RightItem: Temporal + Clone;
    /// Output row type.
    type Out;

    /// Which input the kernel is blocked on.
    fn wants(&self) -> Wants;

    /// Feed a batch of left-input rows.
    fn process_batch_left(&mut self, batch: RowBatch<Self::LeftItem>) -> TdbResult<()>;

    /// Feed a batch of right-input rows.
    fn process_batch_right(&mut self, batch: RowBatch<Self::RightItem>) -> TdbResult<()>;

    /// Declare one input exhausted.
    fn finish(&mut self, side: Side) -> TdbResult<()>;

    /// Take the output produced so far.
    fn drain(&mut self) -> Vec<Self::Out>;

    /// Metrics and workspace statistics, batch-size invariant.
    fn report(&self) -> OpReport;
}

/// One step of the push protocol: give `op` the batch (or end-of-stream
/// notice) it asks for. Returns `false` once it wants nothing more.
fn feed<K, L, R>(op: &mut K, left: &mut L, right: &mut R) -> TdbResult<bool>
where
    K: BatchOp,
    L: BatchStream<Item = K::LeftItem>,
    R: BatchStream<Item = K::RightItem>,
{
    match op.wants() {
        Wants::Done => return Ok(false),
        Wants::Left => match left.next_batch()? {
            Some(b) => op.process_batch_left(b)?,
            None => op.finish(Side::Left)?,
        },
        Wants::Right => match right.next_batch()? {
            Some(b) => op.process_batch_right(b)?,
            None => op.finish(Side::Right)?,
        },
    }
    Ok(true)
}

/// Run a [`BatchOp`] to completion over two [`BatchStream`]s, honouring
/// its demand signal and handing each drained output chunk to `emit`.
/// `emit` returning `false` stops the run early (the sink has seen
/// enough); the function then returns `false` too, so callers can
/// distinguish a completed run from a truncated one.
pub fn drive<K, L, R>(
    op: &mut K,
    left: &mut L,
    right: &mut R,
    emit: &mut dyn FnMut(Vec<K::Out>) -> TdbResult<bool>,
) -> TdbResult<bool>
where
    K: BatchOp,
    L: BatchStream<Item = K::LeftItem>,
    R: BatchStream<Item = K::RightItem>,
{
    loop {
        let chunk = op.drain();
        if !chunk.is_empty() && !emit(chunk)? {
            return Ok(false);
        }
        if !feed(op, left, right)? {
            return Ok(true);
        }
    }
}

/// The pull adapter: a kernel fed from two [`TupleStream`]s, itself a
/// [`TupleStream`].
///
/// Inputs reach the kernel through a [`Batcher`] of **one** row, so the
/// adapter pulls from its inputs exactly when the paper's tuple-at-a-time
/// algorithm would read: nothing before the first `next()`, and after an
/// early drop the inputs have been advanced no further than the last
/// output needed. This is the form [`crate::OpConfig`]'s constructors
/// return; [`Instrumented::report`] is the kernel's.
pub(crate) struct PullOp<K, L, R>
where
    K: BatchOp,
    L: TupleStream<Item = K::LeftItem>,
    R: TupleStream<Item = K::RightItem>,
{
    op: K,
    left: Batcher<L>,
    right: Batcher<R>,
    ready: std::vec::IntoIter<K::Out>,
    order: Option<StreamOrder>,
}

impl<K, L, R> PullOp<K, L, R>
where
    K: BatchOp,
    L: TupleStream<Item = K::LeftItem>,
    R: TupleStream<Item = K::RightItem>,
{
    /// Wrap `op` over its two inputs; `order` is the ordering the output
    /// is declared with (semijoins preserve their kept input's order).
    pub(crate) fn new(op: K, left: L, right: R, order: Option<StreamOrder>) -> Self {
        PullOp {
            op,
            left: Batcher::new(left, 1),
            right: Batcher::new(right, 1),
            ready: Vec::new().into_iter(),
            order,
        }
    }
}

impl<K, L, R> TupleStream for PullOp<K, L, R>
where
    K: BatchOp,
    L: TupleStream<Item = K::LeftItem>,
    R: TupleStream<Item = K::RightItem>,
{
    type Item = K::Out;

    fn next(&mut self) -> TdbResult<Option<K::Out>> {
        loop {
            if let Some(item) = self.ready.next() {
                return Ok(Some(item));
            }
            let chunk = self.op.drain();
            if !chunk.is_empty() {
                self.ready = chunk.into_iter();
            } else if !feed(&mut self.op, &mut self.left, &mut self.right)? {
                return Ok(None);
            }
        }
    }

    fn order(&self) -> Option<StreamOrder> {
        self.order
    }
}

impl<K, L, R> Instrumented for PullOp<K, L, R>
where
    K: BatchOp,
    L: TupleStream<Item = K::LeftItem>,
    R: TupleStream<Item = K::RightItem>,
{
    fn report(&self) -> OpReport {
        self.op.report()
    }
}

/// Where a cursor's head stands.
enum Head {
    /// A row is buffered; its `(ts, te)` ticks.
    Row(i64, i64),
    /// The input is exhausted.
    Exhausted,
    /// The queue is empty but the input is not known to be exhausted — the
    /// kernel must suspend and ask the driver for more.
    Starved,
}

/// A read cursor over queued input batches.
///
/// The paper's one-tuple input buffer, over batches: `reads` counts a row
/// the first time it becomes the visible head — when the tuple-at-a-time
/// algorithm would refill its buffer — not when its batch arrives, so
/// read metrics are batch-size invariant as long as the kernel resolves
/// heads only where the algorithm reads.
struct Cursor<T> {
    queue: VecDeque<RowBatch<T>>,
    idx: usize,
    reads: usize,
    counted: bool,
    done: bool,
}

impl<T: Clone> Cursor<T> {
    fn new() -> Cursor<T> {
        Cursor {
            queue: VecDeque::new(),
            idx: 0,
            reads: 0,
            counted: false,
            done: false,
        }
    }

    fn push(&mut self, batch: RowBatch<T>) {
        if !batch.is_empty() {
            self.queue.push_back(batch);
        }
    }

    fn finish(&mut self) {
        self.done = true;
    }

    /// Resolve the head, counting a newly visible row as a read.
    #[inline]
    fn head(&mut self) -> Head {
        loop {
            match self.queue.front() {
                Some(b) if self.idx < b.len() => {
                    if !self.counted {
                        self.reads += 1;
                        self.counted = true;
                    }
                    let (ts, te) = b.endpoints(self.idx);
                    return Head::Row(ts, te);
                }
                Some(_) => {
                    self.queue.pop_front();
                    self.idx = 0;
                }
                None => {
                    return if self.done {
                        Head::Exhausted
                    } else {
                        Head::Starved
                    }
                }
            }
        }
    }

    /// Clone the head payload (head must be resolved to a row).
    fn clone_head(&self) -> T {
        self.queue
            .front()
            // Callers resolve the head before reading it. lint:allow(no-unwrap)
            .expect("resolved head")
            .row(self.idx)
            .clone()
    }

    /// Borrow the head payload (head must be resolved to a row).
    fn head_payload(&self) -> &T {
        // Callers resolve the head before reading it. lint:allow(no-unwrap)
        self.queue.front().expect("resolved head").row(self.idx)
    }

    /// Consume the head row.
    #[inline]
    fn advance(&mut self) {
        self.idx += 1;
        self.counted = false;
    }
}

fn metrics(read_left: usize, read_right: usize, comparisons: usize, emitted: usize) -> OpMetrics {
    OpMetrics {
        read_left,
        read_right,
        comparisons,
        emitted,
        passes: 1,
    }
}

// ---------------------------------------------------------------------------
// Contain-join, (ValidFrom ↑, ValidTo ↑).
// ---------------------------------------------------------------------------

/// Contain-join (`x.TS < y.TS ∧ y.TE < x.TE`) over X sorted
/// `ValidFrom ↑`, Y sorted `ValidTo ↑` — Table 1 state (b). Y-driven:
/// per y row it GCs the gapless X state on the `x.TE ≥ y.TE` cutoff,
/// admits X rows up to `y.TS` through the same condition, then probes
/// the state with one branch-light pass over the endpoint columns. Y
/// tuples are matched on arrival and never stored, so the workspace is
/// exactly `{x : x.TE ≥ y_b.TE}` among the read prefix.
pub struct ContainJoinTsTe<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    cy: Cursor<Y>,
    state: GaplessWorkspace<X>,
    cur_y: Option<(i64, i64, Y)>,
    out: Vec<(X, Y)>,
    hits: Vec<u32>,
    comparisons: usize,
    emitted: usize,
    count_only: bool,
    started: bool,
    want: Wants,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> ContainJoinTsTe<X, Y> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        ContainJoinTsTe {
            cx: Cursor::new(),
            cy: Cursor::new(),
            state: GaplessWorkspace::new(),
            cur_y: None,
            out: Vec::new(),
            hits: Vec::new(),
            comparisons: 0,
            emitted: 0,
            count_only: false,
            started: false,
            want: Wants::Left, // establish the X head first, like refill_x
        }
    }

    /// With `on`, count matches instead of materializing pairs: the probe
    /// pass sums hits over the endpoint columns and never touches
    /// payloads, so `report().metrics` stays identical while
    /// [`BatchOp::drain`] stays empty. The compact consumer for count-only
    /// sinks.
    pub fn count_only(mut self, on: bool) -> Self {
        self.count_only = on;
        self
    }

    fn run(&mut self) {
        // The algorithm buffers its first X tuple before reading any Y.
        if !self.started {
            if matches!(self.cx.head(), Head::Starved) {
                self.want = Wants::Left;
                return;
            }
            self.started = true;
        }
        loop {
            if self.cur_y.is_none() {
                match self.cy.head() {
                    Head::Starved => {
                        self.want = Wants::Right;
                        return;
                    }
                    Head::Exhausted => {
                        self.want = Wants::Done;
                        return;
                    }
                    Head::Row(yts, yte) => {
                        let y = self.cy.clone_head();
                        self.cy.advance();
                        // GC phase: x.TE < y.TE can contain no current or
                        // future y (paper-corrected rule).
                        self.state.gc_te_ge(yte);
                        self.cur_y = Some((yts, yte, y));
                    }
                }
            }
            let (yts, yte) = {
                // Set by the resolve loop just above. lint:allow(no-unwrap)
                let c = self.cur_y.as_ref().expect("current y");
                (c.0, c.1)
            };
            // Read/admit phase: pull X rows with x.TS < y.TS; the GC
            // condition doubles as the admission filter.
            loop {
                match self.cx.head() {
                    Head::Starved => {
                        self.want = Wants::Left;
                        return;
                    }
                    Head::Exhausted => break,
                    Head::Row(xts, xte) => {
                        self.comparisons += 1;
                        if xts < yts {
                            if xte >= yte {
                                let x = self.cx.clone_head();
                                self.state.insert_raw(xts, xte, x);
                            }
                            self.cx.advance();
                        } else {
                            break;
                        }
                    }
                }
            }
            // Join phase: one pass over the endpoint columns. `cur_y` is
            // still occupied — only this take clears it. lint:allow(no-unwrap)
            let (yts, yte, y) = self.cur_y.take().expect("current y");
            let ts = self.state.ts_col();
            let te = self.state.te_col();
            self.comparisons += ts.len();
            if self.count_only {
                let mut n = 0usize;
                for i in 0..ts.len() {
                    n += usize::from((ts[i] < yts) & (yte < te[i]));
                }
                self.emitted += n;
                let _ = y;
                continue;
            }
            self.hits.clear();
            for i in 0..ts.len() {
                if (ts[i] < yts) & (yte < te[i]) {
                    self.hits.push(i as u32);
                }
            }
            for &i in &self.hits {
                self.out
                    .push((self.state.payload(i as usize).clone(), y.clone()));
                self.emitted += 1;
            }
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> Default for ContainJoinTsTe<X, Y> {
    fn default() -> Self {
        Self::new()
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for ContainJoinTsTe<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = (X, Y);

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.cy.push(batch);
        self.run();
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            Side::Right => self.cy.finish(),
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<(X, Y)> {
        std::mem::take(&mut self.out)
    }

    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, self.cy.reads, self.comparisons, self.emitted),
            self.state.stats(),
        )
    }
}

// ---------------------------------------------------------------------------
// Overlap join.
// ---------------------------------------------------------------------------

/// Overlap join over two `ValidFrom ↑` inputs — Table 2 state (a). Both
/// state sets live in gapless columns; probes and GC cutoffs are single
/// passes over them.
pub struct OverlapJoin<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    cy: Cursor<Y>,
    sx: GaplessWorkspace<X>,
    sy: GaplessWorkspace<Y>,
    mode: OverlapMode,
    policy: ReadPolicy,
    policy_state: PolicyState,
    out: Vec<(X, Y)>,
    hits: Vec<u32>,
    comparisons: usize,
    emitted: usize,
    count_only: bool,
    gc_pending: bool,
    want: Wants,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> OverlapJoin<X, Y> {
    /// An empty kernel with the given overlap mode and read policy.
    pub fn new(mode: OverlapMode, policy: ReadPolicy) -> Self {
        OverlapJoin {
            cx: Cursor::new(),
            cy: Cursor::new(),
            sx: GaplessWorkspace::new(),
            sy: GaplessWorkspace::new(),
            mode,
            policy,
            policy_state: PolicyState::default(),
            out: Vec::new(),
            hits: Vec::new(),
            comparisons: 0,
            emitted: 0,
            count_only: false,
            gc_pending: false,
            want: Wants::Left,
        }
    }

    /// With `on`, count matches instead of materializing pairs — see
    /// [`ContainJoinTsTe::count_only`].
    pub fn count_only(mut self, on: bool) -> Self {
        self.count_only = on;
        self
    }

    /// GC keyed off the buffered (head) tuples, the cutoffs applied as
    /// single passes over the endpoint columns.
    ///
    /// General mode: `x` is dead once `x.TE ≤ y_b.TS` (no future `y` starts
    /// inside it) and symmetrically for `y`. Strict mode: the same cutoff
    /// kills `x` (Allen overlap needs `y.TS < x.TE`), while `y` is dead
    /// once `y.TS ≤ x_b.TS` (it needs an earlier-starting `x`, and future
    /// `x` only start later). An exhausted input empties the opposite
    /// state.
    fn gc(&mut self, hx: Option<(i64, i64)>, hy: Option<(i64, i64)>) {
        match hy {
            Some((yts, _)) => self.sx.gc_te_gt(yts),
            None => self.sx.clear_discard(),
        }
        match hx {
            Some((xts, _)) => match self.mode {
                OverlapMode::General => self.sy.gc_te_gt(xts),
                OverlapMode::Strict => self.sy.gc_ts_gt(xts),
            },
            None => self.sy.clear_discard(),
        }
    }

    fn process_x(&mut self, xts: i64, xte: i64) {
        let x = self.cx.clone_head();
        self.cx.advance();
        let (ts, te) = (self.sy.ts_col(), self.sy.te_col());
        self.comparisons += ts.len();
        if self.count_only {
            let mut n = 0usize;
            match self.mode {
                OverlapMode::General => {
                    for i in 0..ts.len() {
                        n += usize::from((xts < te[i]) & (ts[i] < xte));
                    }
                }
                OverlapMode::Strict => {
                    for i in 0..ts.len() {
                        n += usize::from((xts < ts[i]) & (xte > ts[i]) & (xte < te[i]));
                    }
                }
            }
            self.emitted += n;
            self.sx.insert_raw(xts, xte, x);
            return;
        }
        self.hits.clear();
        match self.mode {
            OverlapMode::General => {
                for i in 0..ts.len() {
                    if (xts < te[i]) & (ts[i] < xte) {
                        self.hits.push(i as u32);
                    }
                }
            }
            OverlapMode::Strict => {
                for i in 0..ts.len() {
                    if (xts < ts[i]) & (xte > ts[i]) & (xte < te[i]) {
                        self.hits.push(i as u32);
                    }
                }
            }
        }
        for &i in &self.hits {
            self.out
                .push((x.clone(), self.sy.payload(i as usize).clone()));
            self.emitted += 1;
        }
        self.sx.insert_raw(xts, xte, x);
    }

    fn process_y(&mut self, yts: i64, yte: i64) {
        let y = self.cy.clone_head();
        self.cy.advance();
        let (ts, te) = (self.sx.ts_col(), self.sx.te_col());
        self.comparisons += ts.len();
        if self.count_only {
            let mut n = 0usize;
            match self.mode {
                OverlapMode::General => {
                    for i in 0..ts.len() {
                        n += usize::from((ts[i] < yte) & (yts < te[i]));
                    }
                }
                OverlapMode::Strict => {
                    for i in 0..ts.len() {
                        n += usize::from((ts[i] < yts) & (te[i] > yts) & (te[i] < yte));
                    }
                }
            }
            self.emitted += n;
            self.sy.insert_raw(yts, yte, y);
            return;
        }
        self.hits.clear();
        match self.mode {
            OverlapMode::General => {
                for i in 0..ts.len() {
                    if (ts[i] < yte) & (yts < te[i]) {
                        self.hits.push(i as u32);
                    }
                }
            }
            OverlapMode::Strict => {
                for i in 0..ts.len() {
                    if (ts[i] < yts) & (te[i] > yts) & (te[i] < yte) {
                        self.hits.push(i as u32);
                    }
                }
            }
        }
        for &i in &self.hits {
            self.out
                .push((self.sx.payload(i as usize).clone(), y.clone()));
            self.emitted += 1;
        }
        self.sy.insert_raw(yts, yte, y);
    }

    fn run(&mut self) {
        loop {
            let hx = match self.cx.head() {
                Head::Starved => {
                    self.want = Wants::Left;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let hy = match self.cy.head() {
                Head::Starved => {
                    self.want = Wants::Right;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            // GC belongs right after the refill that follows a processed
            // tuple; the refill is this head resolution, so it runs here.
            if self.gc_pending {
                self.gc(hx, hy);
                self.gc_pending = false;
            }
            match (hx, hy) {
                (None, None) => {
                    self.want = Wants::Done;
                    return;
                }
                (Some((xts, xte)), None) => {
                    if self.sy.is_empty() {
                        self.want = Wants::Done;
                        return;
                    }
                    self.process_x(xts, xte);
                }
                (None, Some((yts, yte))) => {
                    if self.sx.is_empty() {
                        self.want = Wants::Done;
                        return;
                    }
                    self.process_y(yts, yte);
                }
                (Some((xts, xte)), Some((yts, yte))) => {
                    let d = self.policy.decide(
                        &mut self.policy_state,
                        self.cx.head_payload(),
                        self.cy.head_payload(),
                        TimePoint::new(xts),
                        TimePoint::new(yts),
                        self.sx.len(),
                        self.sy.len(),
                    );
                    match d {
                        Advance::Left => self.process_x(xts, xte),
                        Advance::Right => self.process_y(yts, yte),
                    }
                }
            }
            self.gc_pending = true;
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for OverlapJoin<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = (X, Y);

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.cy.push(batch);
        self.run();
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            Side::Right => self.cy.finish(),
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<(X, Y)> {
        std::mem::take(&mut self.out)
    }

    fn report(&self) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, self.cy.reads, self.comparisons, self.emitted),
            self.sx.stats().combine_stacked(self.sy.stats()),
        )
    }
}

// ---------------------------------------------------------------------------
// Overlap semijoin.
// ---------------------------------------------------------------------------

// One kernel exists per operator instance and is never stored in a
// collection, so the General/Strict size gap costs nothing; boxing the
// Strict state would put an indirection on the hot sweep path instead.
#[allow(clippy::large_enum_variant)]
enum SemiKernel<X: Temporal + Clone, Y: Temporal + Clone> {
    General,
    Strict {
        sx: GaplessWorkspace<X>,
        sy: GaplessWorkspace<Y>,
        policy: ReadPolicy,
        policy_state: PolicyState,
        gc_pending: bool,
    },
}

/// Overlap **semijoin**: emits each X tuple overlapping at least one Y
/// tuple. General mode is the two-buffer merge of Table 2 state (b):
/// general overlap is monotone in both sort keys, so the scan advances
/// whichever buffer ends first and never stores a tuple (zero workspace,
/// output in X order). Strict Allen mode sweeps with gapless state and
/// emit-once extraction.
pub struct OverlapSemijoin<X: Temporal + Clone, Y: Temporal + Clone> {
    cx: Cursor<X>,
    cy: Cursor<Y>,
    kernel: SemiKernel<X, Y>,
    out: Vec<X>,
    comparisons: usize,
    emitted: usize,
    started: bool,
    want: Wants,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> OverlapSemijoin<X, Y> {
    /// An empty kernel with the given overlap mode and read policy.
    pub fn new(mode: OverlapMode, policy: ReadPolicy) -> Self {
        let kernel = match mode {
            OverlapMode::General => SemiKernel::General,
            OverlapMode::Strict => SemiKernel::Strict {
                sx: GaplessWorkspace::new(),
                sy: GaplessWorkspace::new(),
                policy,
                policy_state: PolicyState::default(),
                gc_pending: false,
            },
        };
        OverlapSemijoin {
            cx: Cursor::new(),
            cy: Cursor::new(),
            kernel,
            out: Vec::new(),
            comparisons: 0,
            emitted: 0,
            started: false,
            want: Wants::Left,
        }
    }

    fn run(&mut self) {
        if !self.started {
            // The algorithm buffers one tuple from each input up front.
            if matches!(self.cx.head(), Head::Starved) {
                self.want = Wants::Left;
                return;
            }
            if matches!(self.cy.head(), Head::Starved) {
                self.want = Wants::Right;
                return;
            }
            self.started = true;
        }
        match &mut self.kernel {
            SemiKernel::General => loop {
                let hx = match self.cx.head() {
                    Head::Starved => {
                        self.want = Wants::Left;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                let hy = match self.cy.head() {
                    Head::Starved => {
                        self.want = Wants::Right;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                let (Some((xts, xte)), Some((yts, yte))) = (hx, hy) else {
                    self.want = Wants::Done;
                    return;
                };
                self.comparisons += 1;
                if (xts < yte) & (yts < xte) {
                    self.out.push(self.cx.clone_head());
                    self.emitted += 1;
                    self.cx.advance();
                } else if xte <= yts {
                    // x ends before y starts; future y start even later.
                    self.cx.advance();
                } else {
                    // y cannot witness this or any future x.
                    self.cy.advance();
                }
            },
            SemiKernel::Strict {
                sx,
                sy,
                policy,
                policy_state,
                gc_pending,
            } => loop {
                let hx = match self.cx.head() {
                    Head::Starved => {
                        self.want = Wants::Left;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                let hy = match self.cy.head() {
                    Head::Starved => {
                        self.want = Wants::Right;
                        return;
                    }
                    Head::Exhausted => None,
                    Head::Row(a, b) => Some((a, b)),
                };
                if *gc_pending {
                    match hy {
                        Some((yts, _)) => sx.gc_te_gt(yts),
                        None => sx.clear_discard(),
                    }
                    match hx {
                        Some((xts, _)) => sy.gc_ts_gt(xts),
                        None => sy.clear_discard(),
                    }
                    *gc_pending = false;
                }
                let advance = match (hx, hy) {
                    (None, None) => {
                        self.want = Wants::Done;
                        return;
                    }
                    (Some(_), None) => {
                        if sy.is_empty() {
                            self.want = Wants::Done;
                            return;
                        }
                        Advance::Left
                    }
                    (None, Some(_)) => {
                        if sx.is_empty() {
                            self.want = Wants::Done;
                            return;
                        }
                        Advance::Right
                    }
                    (Some((xts, _)), Some((yts, _))) => policy.decide(
                        policy_state,
                        self.cx.head_payload(),
                        self.cy.head_payload(),
                        TimePoint::new(xts),
                        TimePoint::new(yts),
                        sx.len(),
                        sy.len(),
                    ),
                };
                match advance {
                    Advance::Left => {
                        // The decide table only yields Left when hx is
                        // Some. lint:allow(no-unwrap)
                        let (xts, xte) = hx.expect("left head");
                        let x = self.cx.clone_head();
                        self.cx.advance();
                        self.comparisons += sy.len();
                        let (ts, te) = (sy.ts_col(), sy.te_col());
                        let witnessed =
                            (0..ts.len()).any(|i| (xts < ts[i]) & (xte > ts[i]) & (xte < te[i]));
                        if witnessed {
                            self.out.push(x);
                            self.emitted += 1;
                        } else {
                            sx.insert_raw(xts, xte, x);
                        }
                    }
                    Advance::Right => {
                        // The decide table only yields Right when hy is
                        // Some. lint:allow(no-unwrap)
                        let (yts, yte) = hy.expect("right head");
                        let y = self.cy.clone_head();
                        self.cy.advance();
                        self.comparisons += sx.len();
                        let witnessed = sx.extract(|ts, te| (ts < yts) & (te > yts) & (te < yte));
                        self.emitted += witnessed.len();
                        self.out.extend(witnessed);
                        sy.insert_raw(yts, yte, y);
                    }
                }
                *gc_pending = true;
            },
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for OverlapSemijoin<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = X;

    fn wants(&self) -> Wants {
        self.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.cx.push(batch);
        self.run();
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.cy.push(batch);
        self.run();
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        match side {
            Side::Left => self.cx.finish(),
            Side::Right => self.cy.finish(),
        }
        self.run();
        Ok(())
    }

    fn drain(&mut self) -> Vec<X> {
        std::mem::take(&mut self.out)
    }

    fn report(&self) -> OpReport {
        let workspace = match &self.kernel {
            SemiKernel::General => WorkspaceStats::default(),
            SemiKernel::Strict { sx, sy, .. } => sx.stats().combine_stacked(sy.stats()),
        };
        OpReport::new(
            metrics(self.cx.reads, self.cy.reads, self.comparisons, self.emitted),
            workspace,
        )
    }
}

// ---------------------------------------------------------------------------
// Stab semijoins.
// ---------------------------------------------------------------------------

/// Which side of the containment a stab scan emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StabEmit {
    Container,
    Containee,
}

/// The shared two-buffer stab scan (§4.2.2 / Figure 6): containers on the
/// left (`ValidFrom ↑`), containees on the right (`ValidTo ↑`), zero
/// workspace beyond the two cursor heads — "for semijoins, a stream
/// processor can output a tuple as soon as it finds the first matching
/// tuple", so one buffer per input suffices (Table 1 state (d)):
///
/// * a containee whose `TS ≤` the buffered container's `TS` can be
///   contained in **no** current or future container (containers' `TS`
///   only grows) — skip it;
/// * otherwise, if the containee ends strictly before the buffered
///   container (`e.TE < c.TE`), the pair matches (`c.TS < e.TS ∧
///   e.TE < c.TE`);
/// * otherwise (`e.TE ≥ c.TE`) the buffered container can contain **no**
///   current or future containee (containees' `TE` only grows) — advance
///   the container.
pub struct StabScan<C: Temporal + Clone, E: Temporal + Clone> {
    cc: Cursor<C>,
    ce: Cursor<E>,
    emit: StabEmit,
    out_c: Vec<C>,
    out_e: Vec<E>,
    comparisons: usize,
    emitted: usize,
    started: bool,
    want: Wants,
}

impl<C: Temporal + Clone, E: Temporal + Clone> StabScan<C, E> {
    fn with_emit(emit: StabEmit) -> Self {
        StabScan {
            cc: Cursor::new(),
            ce: Cursor::new(),
            emit,
            out_c: Vec::new(),
            out_e: Vec::new(),
            comparisons: 0,
            emitted: 0,
            started: false,
            want: Wants::Left,
        }
    }

    fn run(&mut self) {
        if !self.started {
            if matches!(self.cc.head(), Head::Starved) {
                self.want = Wants::Left;
                return;
            }
            if matches!(self.ce.head(), Head::Starved) {
                self.want = Wants::Right;
                return;
            }
            self.started = true;
        }
        loop {
            let hc = match self.cc.head() {
                Head::Starved => {
                    self.want = Wants::Left;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let he = match self.ce.head() {
                Head::Starved => {
                    self.want = Wants::Right;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let (Some((cts, cte)), Some((ets, ete))) = (hc, he) else {
                self.want = Wants::Done;
                return;
            };
            self.comparisons += 1;
            if ets <= cts {
                // Dead containee: no current or future container starts
                // before it.
                self.ce.advance();
            } else if ete < cte {
                // Match: c.TS < e.TS ∧ e.TE < c.TE — emit once per
                // container or containee depending on configuration.
                match self.emit {
                    StabEmit::Container => {
                        self.out_c.push(self.cc.clone_head());
                        self.emitted += 1;
                        self.cc.advance();
                    }
                    StabEmit::Containee => {
                        self.out_e.push(self.ce.clone_head());
                        self.emitted += 1;
                        self.ce.advance();
                    }
                }
            } else {
                // This container can contain no current or future containee.
                self.cc.advance();
            }
        }
    }

    fn push_left(&mut self, batch: RowBatch<C>) {
        self.cc.push(batch);
        self.run();
    }

    fn push_right(&mut self, batch: RowBatch<E>) {
        self.ce.push(batch);
        self.run();
    }

    fn finish_side(&mut self, side: Side) {
        match side {
            Side::Left => self.cc.finish(),
            Side::Right => self.ce.finish(),
        }
        self.run();
    }

    fn report(&self) -> OpReport {
        // Table 1 state (d): the workspace is the two cursor heads.
        OpReport::new(
            metrics(self.cc.reads, self.ce.reads, self.comparisons, self.emitted),
            WorkspaceStats::default(),
        )
    }
}

/// `Contain-semijoin(X, Y)` (X: `ValidFrom ↑` containers on the left, Y:
/// `ValidTo ↑` containees on the right): emits each X tuple containing at
/// least one Y tuple, one output per container, in X order.
pub struct ContainSemijoinStab<X: Temporal + Clone, Y: Temporal + Clone> {
    scan: StabScan<X, Y>,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> ContainSemijoinStab<X, Y> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        ContainSemijoinStab {
            scan: StabScan::with_emit(StabEmit::Container),
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> Default for ContainSemijoinStab<X, Y> {
    fn default() -> Self {
        Self::new()
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for ContainSemijoinStab<X, Y> {
    type LeftItem = X;
    type RightItem = Y;
    type Out = X;

    fn wants(&self) -> Wants {
        self.scan.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.scan.push_left(batch);
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.scan.push_right(batch);
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        self.scan.finish_side(side);
        Ok(())
    }

    fn drain(&mut self) -> Vec<X> {
        std::mem::take(&mut self.scan.out_c)
    }

    fn report(&self) -> OpReport {
        self.scan.report()
    }
}

/// `Contained-semijoin(X, Y)`: emits each X tuple contained in at least
/// one Y tuple, in X order. Y are the containers (the kernel's **left**
/// input, `ValidFrom ↑`), X the containees (right input, `ValidTo ↑`), so
/// `read_left` counts the container (Y) side.
pub struct ContainedSemijoinStab<X: Temporal + Clone, Y: Temporal + Clone> {
    scan: StabScan<Y, X>,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> ContainedSemijoinStab<X, Y> {
    /// An empty kernel awaiting input.
    pub fn new() -> Self {
        ContainedSemijoinStab {
            scan: StabScan::with_emit(StabEmit::Containee),
        }
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> Default for ContainedSemijoinStab<X, Y> {
    fn default() -> Self {
        Self::new()
    }
}

impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for ContainedSemijoinStab<X, Y> {
    type LeftItem = Y;
    type RightItem = X;
    type Out = X;

    fn wants(&self) -> Wants {
        self.scan.want
    }

    fn process_batch_left(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
        self.scan.push_left(batch);
        Ok(())
    }

    fn process_batch_right(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
        self.scan.push_right(batch);
        Ok(())
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        self.scan.finish_side(side);
        Ok(())
    }

    fn drain(&mut self) -> Vec<X> {
        std::mem::take(&mut self.scan.out_e)
    }

    fn report(&self) -> OpReport {
        self.scan.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::VecBatchStream;
    use crate::report::OpConfig;
    use crate::stream::{from_sorted_vec, from_vec};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn sorted(mut v: Vec<TsTuple>, o: StreamOrder) -> Vec<TsTuple> {
        o.sort(&mut v);
        v
    }

    fn canon(mut v: Vec<TsTuple>) -> Vec<TsTuple> {
        v.sort_by_key(|t| (t.ts().ticks(), t.te().ticks()));
        v
    }

    fn canon_pairs(mut v: Vec<(TsTuple, TsTuple)>) -> Vec<(TsTuple, TsTuple)> {
        v.sort_by_key(|(x, y)| {
            (
                x.ts().ticks(),
                x.te().ticks(),
                y.ts().ticks(),
                y.te().ticks(),
            )
        });
        v
    }

    fn workload(n: i64) -> (Vec<TsTuple>, Vec<TsTuple>) {
        let xs: Vec<_> = (0..n)
            .map(|i| iv(i * 3 % 97, i * 3 % 97 + 5 + (i % 7) * 11))
            .collect();
        let ys: Vec<_> = (0..n)
            .map(|i| iv(i * 5 % 89, i * 5 % 89 + 1 + (i % 5) * 9))
            .collect();
        (xs, ys)
    }

    /// Push `op` over the two sorted vectors in `rows`-row batches and
    /// collect everything it emits.
    fn driven<K: BatchOp>(
        mut op: K,
        left: (Vec<K::LeftItem>, StreamOrder),
        right: (Vec<K::RightItem>, StreamOrder),
        rows: usize,
    ) -> (Vec<K::Out>, OpReport) {
        let mut out = Vec::new();
        let completed = drive(
            &mut op,
            &mut VecBatchStream::from_sorted_vec(left.0, left.1, rows).unwrap(),
            &mut VecBatchStream::from_sorted_vec(right.0, right.1, rows).unwrap(),
            &mut |chunk| {
                out.extend(chunk);
                Ok(true)
            },
        )
        .unwrap();
        assert!(completed);
        (out, op.report())
    }

    /// Pull a kernel-backed operator dry.
    fn pulled<S: TupleStream + Instrumented>(mut op: S) -> (Vec<S::Item>, OpReport) {
        let out = op.collect_vec().unwrap();
        (out, op.report())
    }

    fn ts(v: &[TsTuple]) -> crate::stream::VecStream<TsTuple> {
        from_sorted_vec(sorted(v.to_vec(), StreamOrder::TS_ASC), StreamOrder::TS_ASC).unwrap()
    }

    fn te(v: &[TsTuple]) -> crate::stream::VecStream<TsTuple> {
        from_sorted_vec(sorted(v.to_vec(), StreamOrder::TE_ASC), StreamOrder::TE_ASC).unwrap()
    }

    // -- batch-size invariance: pushing batches of any size and pulling one
    // -- tuple at a time run the same kernel to the same output and report.

    #[test]
    fn contain_ts_te_is_batch_size_invariant() {
        let (xs, ys) = workload(120);
        let (pull_out, pull_rep) = pulled(
            OpConfig::new()
                .contain_join_ts_te(ts(&xs), te(&ys))
                .unwrap(),
        );
        assert!(!pull_out.is_empty());
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TE_ASC);
        for rows in [1usize, 7, 64, 1024] {
            let (got, rep) = driven(
                ContainJoinTsTe::new(),
                (xs.clone(), StreamOrder::TS_ASC),
                (ys.clone(), StreamOrder::TE_ASC),
                rows,
            );
            assert_eq!(got, pull_out, "batch size {rows}");
            assert_eq!(rep, pull_rep, "batch size {rows}");
        }
    }

    #[test]
    fn overlap_join_is_batch_size_invariant() {
        let (xs, ys) = workload(100);
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate] {
                let cfg = OpConfig::new().with_mode(mode).with_policy(policy);
                let (pull_out, pull_rep) = pulled(cfg.overlap_join(ts(&xs), ts(&ys)).unwrap());
                for rows in [1usize, 13, 256] {
                    let (got, rep) = driven(
                        OverlapJoin::new(mode, policy),
                        (sorted(xs.clone(), StreamOrder::TS_ASC), StreamOrder::TS_ASC),
                        (sorted(ys.clone(), StreamOrder::TS_ASC), StreamOrder::TS_ASC),
                        rows,
                    );
                    assert_eq!(got, pull_out, "mode {mode:?} policy {policy:?} rows {rows}");
                    assert_eq!(rep, pull_rep, "mode {mode:?} rows {rows}");
                }
            }
        }
    }

    #[test]
    fn overlap_semijoin_is_batch_size_invariant() {
        let (xs, ys) = workload(90);
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            let cfg = OpConfig::new().with_mode(mode);
            let (pull_out, pull_rep) = pulled(cfg.overlap_semijoin(ts(&xs), ts(&ys)).unwrap());
            for rows in [1usize, 32, 512] {
                let (got, rep) = driven(
                    OverlapSemijoin::new(mode, ReadPolicy::MinKey),
                    (sorted(xs.clone(), StreamOrder::TS_ASC), StreamOrder::TS_ASC),
                    (sorted(ys.clone(), StreamOrder::TS_ASC), StreamOrder::TS_ASC),
                    rows,
                );
                assert_eq!(got, pull_out, "mode {mode:?} rows {rows}");
                assert_eq!(rep, pull_rep, "mode {mode:?} rows {rows}");
            }
        }
    }

    #[test]
    fn stab_semijoins_are_batch_size_invariant() {
        let (xs, ys) = workload(110);
        // Contain: X containers TS↑ (left), Y containees TE↑ (right).
        let (pull_out, pull_rep) = pulled(
            OpConfig::new()
                .contain_semijoin_stab(ts(&xs), te(&ys))
                .unwrap(),
        );
        for rows in [1usize, 16, 128] {
            let (got, rep) = driven(
                ContainSemijoinStab::new(),
                (sorted(xs.clone(), StreamOrder::TS_ASC), StreamOrder::TS_ASC),
                (sorted(ys.clone(), StreamOrder::TE_ASC), StreamOrder::TE_ASC),
                rows,
            );
            assert_eq!(got, pull_out, "rows {rows}");
            assert_eq!(rep, pull_rep, "rows {rows}");
        }
        // Contained: X containees TE↑ (right input), Y containers TS↑ (left).
        let (pull_out, pull_rep) = pulled(
            OpConfig::new()
                .contained_semijoin_stab(te(&xs), ts(&ys))
                .unwrap(),
        );
        for rows in [1usize, 16, 128] {
            let (got, rep) = driven(
                ContainedSemijoinStab::new(),
                (sorted(ys.clone(), StreamOrder::TS_ASC), StreamOrder::TS_ASC),
                (sorted(xs.clone(), StreamOrder::TE_ASC), StreamOrder::TE_ASC),
                rows,
            );
            assert_eq!(got, pull_out, "rows {rows}");
            assert_eq!(rep, pull_rep, "rows {rows}");
        }
    }

    /// Empty Y: the Contain-join still buffers (reads) the first X tuple.
    #[test]
    fn empty_right_input_reads_one_left_tuple() {
        let xs = vec![iv(0, 5), iv(1, 9)];
        let (got, rep) = driven(
            ContainJoinTsTe::<TsTuple, TsTuple>::new(),
            (xs, StreamOrder::TS_ASC),
            (vec![], StreamOrder::TE_ASC),
            4,
        );
        assert!(got.is_empty());
        assert_eq!(rep.metrics.read_left, 1);
        assert_eq!(rep.metrics.read_right, 0);
    }

    // -- the pull adapter.

    /// Counts how often the operator above pulls from this input.
    struct Counting<S> {
        inner: S,
        pulls: Rc<Cell<usize>>,
    }

    impl<S: TupleStream> TupleStream for Counting<S> {
        type Item = S::Item;

        fn next(&mut self) -> TdbResult<Option<S::Item>> {
            self.pulls.set(self.pulls.get() + 1);
            self.inner.next()
        }

        fn order(&self) -> Option<StreamOrder> {
            self.inner.order()
        }
    }

    /// The adapter is as lazy as the tuple-at-a-time algorithm. The
    /// numbers were read off the row-at-a-time `ContainJoinTsTe` this
    /// adapter replaced, on these inputs: nothing is pulled at
    /// construction; the first `next()` reads y₁ and the four X tuples up
    /// to the first with `x.TS ≥ y₁.TS` (4 left, 1 right); the second
    /// output comes from the same y and reads nothing; dropping the
    /// operator pulls nothing further.
    #[test]
    fn pull_adapter_reads_no_further_than_the_next_output_needs() {
        let xs = vec![iv(0, 100), iv(2, 50), iv(4, 6), iv(20, 30), iv(40, 60)];
        let ys = vec![iv(5, 8), iv(21, 25), iv(45, 50)];
        let (px, py) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let x = Counting {
            inner: from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
            pulls: px.clone(),
        };
        let y = Counting {
            inner: from_sorted_vec(ys.clone(), StreamOrder::TE_ASC).unwrap(),
            pulls: py.clone(),
        };
        let mut op = OpConfig::new().contain_join_ts_te(x, y).unwrap();
        assert_eq!((px.get(), py.get()), (0, 0), "construction pulls nothing");

        assert_eq!(op.next().unwrap(), Some((xs[0].clone(), ys[0].clone())));
        let m = op.report().metrics;
        assert_eq!((m.read_left, m.read_right), (4, 1));
        assert_eq!((px.get(), py.get()), (4, 1));
        assert_eq!(m.comparisons, 6);
        assert_eq!(op.report().max_workspace(), 2);

        assert_eq!(op.next().unwrap(), Some((xs[1].clone(), ys[0].clone())));
        let m = op.report().metrics;
        assert_eq!((m.read_left, m.read_right), (4, 1));

        drop(op);
        assert_eq!((px.get(), py.get()), (4, 1), "early drop pulls nothing");
    }

    #[test]
    fn pull_adapter_propagates_input_errors() {
        let x = crate::stream::FailingStream::new(vec![iv(0, 5), iv(1, 6)], 1, || {
            tdb_core::TdbError::Eval("disk error".into())
        });
        let x = crate::stream::OrderChecked::new(x, StreamOrder::TS_ASC);
        let mut op = OpConfig::new()
            .overlap_join(x, ts(&[iv(0, 5), iv(2, 9)]))
            .unwrap();
        let mut saw_error = false;
        loop {
            match op.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error);
    }

    // -- overlap operators vs the nested-loop definition.

    fn overlap_join_oracle(
        xs: &[TsTuple],
        ys: &[TsTuple],
        mode: OverlapMode,
    ) -> Vec<(TsTuple, TsTuple)> {
        let mut out = Vec::new();
        for x in xs {
            for y in ys {
                if mode.matches(&x.period, &y.period) {
                    out.push((x.clone(), y.clone()));
                }
            }
        }
        canon_pairs(out)
    }

    fn overlap_semi_oracle(xs: &[TsTuple], ys: &[TsTuple], mode: OverlapMode) -> Vec<TsTuple> {
        xs.iter()
            .filter(|x| ys.iter().any(|y| mode.matches(&x.period, &y.period)))
            .cloned()
            .collect()
    }

    fn run_overlap_join(
        xs: &[TsTuple],
        ys: &[TsTuple],
        mode: OverlapMode,
        policy: ReadPolicy,
    ) -> Vec<(TsTuple, TsTuple)> {
        let cfg = OpConfig::new().with_mode(mode).with_policy(policy);
        canon_pairs(pulled(cfg.overlap_join(ts(xs), ts(ys)).unwrap()).0)
    }

    fn run_overlap_semi(
        xs: &[TsTuple],
        ys: &[TsTuple],
        mode: OverlapMode,
    ) -> (Vec<TsTuple>, usize) {
        let cfg = OpConfig::new().with_mode(mode);
        let (out, rep) = pulled(cfg.overlap_semijoin(ts(xs), ts(ys)).unwrap());
        (canon(out), rep.max_workspace())
    }

    #[test]
    fn strict_vs_general_semantics() {
        let min = ReadPolicy::MinKey;
        let (x, y) = (vec![iv(0, 5)], vec![iv(3, 8)]);
        assert_eq!(run_overlap_join(&x, &y, OverlapMode::Strict, min).len(), 1);
        // Containment is general-overlap but not strict Allen overlap.
        let (x, y) = (vec![iv(0, 10)], vec![iv(3, 8)]);
        assert!(run_overlap_join(&x, &y, OverlapMode::Strict, min).is_empty());
        assert_eq!(run_overlap_join(&x, &y, OverlapMode::General, min).len(), 1);
        // Meets shares no point under half-open semantics.
        let (x, y) = (vec![iv(0, 3)], vec![iv(3, 8)]);
        assert!(run_overlap_join(&x, &y, OverlapMode::General, min).is_empty());
    }

    #[test]
    fn general_semijoin_uses_buffers_only() {
        let xs: Vec<_> = (0..500).map(|i| iv(i * 2, i * 2 + 3)).collect();
        let ys: Vec<_> = (0..500).map(|i| iv(i * 2 + 1, i * 2 + 4)).collect();
        let (got, ws) = run_overlap_semi(&xs, &ys, OverlapMode::General);
        assert_eq!(
            got,
            canon(overlap_semi_oracle(&xs, &ys, OverlapMode::General))
        );
        assert_eq!(ws, 0, "Table 2 state (b): workspace = the two buffers");
    }

    #[test]
    fn general_semijoin_unmatched_x_skipped() {
        let xs = vec![iv(0, 2), iv(10, 12)];
        let ys = vec![iv(5, 6)];
        let (got, _) = run_overlap_semi(&xs, &ys, OverlapMode::General);
        assert!(got.is_empty());
    }

    #[test]
    fn overlap_semijoin_declares_its_output_order() {
        let xs = [iv(0, 5)];
        let general = OpConfig::new().overlap_semijoin(ts(&xs), ts(&xs)).unwrap();
        assert_eq!(general.order(), Some(StreamOrder::TS_ASC));
        let strict = OpConfig::new()
            .with_mode(OverlapMode::Strict)
            .overlap_semijoin(ts(&xs), ts(&xs))
            .unwrap();
        assert_eq!(strict.order(), None);
    }

    #[test]
    fn overlap_operators_reject_unsorted_inputs() {
        let cfg = OpConfig::new();
        assert!(cfg
            .overlap_join(from_vec(vec![iv(0, 5)]), ts(&[iv(0, 5)]))
            .is_err());
        assert!(cfg
            .overlap_semijoin(ts(&[iv(0, 5)]), te(&[iv(0, 5)]))
            .is_err());
    }

    // -- stab semijoins (§4.2.2 / Figure 6).

    fn contain_oracle(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        xs.iter()
            .filter(|x| ys.iter().any(|y| x.period.contains(&y.period)))
            .cloned()
            .collect()
    }

    fn contained_oracle(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        xs.iter()
            .filter(|x| ys.iter().any(|y| y.period.contains(&x.period)))
            .cloned()
            .collect()
    }

    fn run_contain(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        let op = OpConfig::new().contain_semijoin_stab(ts(xs), te(ys));
        canon(pulled(op.unwrap()).0)
    }

    fn run_contained(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        let op = OpConfig::new().contained_semijoin_stab(te(xs), ts(ys));
        canon(pulled(op.unwrap()).0)
    }

    /// The Figure 6 walk: X = {x1, x2} sorted TS↑, Y = {y1..y4} sorted TE↑.
    /// "When x1 is fetched, the local workspace contains ⟨x1, y2⟩ and for
    /// x2 it is ⟨x2, y4⟩." The workspace is the two cursor heads, so the
    /// read counters name them: the containee head is the last Y read.
    #[test]
    fn figure6_trace() {
        let x1 = iv(0, 10);
        let x2 = iv(8, 20);
        let y1 = iv(-2, 3); // TS ≤ x1.TS: dead
        let y2 = iv(1, 5); // contained in x1
        let y3 = iv(4, 7); // TS ≤ x2.TS: dead for x2
        let y4 = iv(9, 15); // contained in x2
        let x = from_sorted_vec(vec![x1.clone(), x2.clone()], StreamOrder::TS_ASC).unwrap();
        let y = from_sorted_vec(vec![y1, y2, y3, y4], StreamOrder::TE_ASC).unwrap();
        let mut op = OpConfig::new().contain_semijoin_stab(x, y).unwrap();

        // First emission: x1, with y2 in the containee buffer — y1 was
        // skipped, y2 is retained for the next container.
        assert_eq!(op.next().unwrap(), Some(x1));
        let m = op.report().metrics;
        assert_eq!((m.read_left, m.read_right), (1, 2));

        // Second emission: x2 against y4 — y2 and y3 start too early.
        assert_eq!(op.next().unwrap(), Some(x2));
        let m = op.report().metrics;
        assert_eq!((m.read_left, m.read_right), (2, 4));

        assert!(op.next().unwrap().is_none());
        assert_eq!(op.report().metrics.emitted, 2);
        assert_eq!(op.report().max_workspace(), 0, "Table 1 state (d)");
    }

    #[test]
    fn contained_semijoin_emits_containees() {
        let xs = vec![iv(1, 5), iv(9, 15), iv(0, 30)];
        let ys = vec![iv(0, 10), iv(8, 20)];
        let got = run_contained(&xs, &ys);
        assert_eq!(got, canon(contained_oracle(&xs, &ys)));
        assert_eq!(got.len(), 2); // [1,5) ⊂ [0,10); [9,15) ⊂ [8,20)
    }

    #[test]
    fn strict_containment_at_endpoints() {
        let xs = vec![iv(0, 10)];
        for y in [iv(0, 5), iv(5, 10), iv(0, 10)] {
            assert!(run_contain(&xs, &[y]).is_empty());
        }
        assert_eq!(run_contain(&xs, &[iv(1, 9)]).len(), 1);
    }

    #[test]
    fn each_tuple_emitted_once_despite_multiple_matches() {
        let xs = vec![iv(0, 100)];
        let ys: Vec<_> = (0..10).map(|i| iv(1 + i, 50 + i)).collect();
        assert_eq!(run_contain(&xs, &ys).len(), 1);
    }

    #[test]
    fn stab_semijoins_handle_empty_inputs() {
        assert!(run_contain(&[], &[iv(0, 1)]).is_empty());
        assert!(run_contain(&[iv(0, 1)], &[]).is_empty());
        assert!(run_contained(&[], &[]).is_empty());
    }

    #[test]
    fn stab_semijoins_reject_wrong_orders() {
        let one = [iv(0, 5)];
        assert!(OpConfig::new()
            .contain_semijoin_stab(te(&one), te(&one))
            .is_err());
        assert!(OpConfig::new()
            .contained_semijoin_stab(te(&one), te(&one))
            .is_err());
    }

    #[test]
    fn stab_semijoin_output_preserves_input_order() {
        let xs: Vec<_> = (0..50).map(|i| iv(i * 3, i * 3 + 10)).collect();
        let ys: Vec<_> = (0..50).map(|i| iv(i * 3 + 1, i * 3 + 5)).collect();
        let mut op = OpConfig::new()
            .contain_semijoin_stab(ts(&xs), te(&ys))
            .unwrap();
        assert_eq!(op.order(), Some(StreamOrder::TS_ASC));
        let out = op.collect_vec().unwrap();
        assert!(!out.is_empty());
        assert_eq!(StreamOrder::TS_ASC.first_violation(&out), None);
        let mut op = OpConfig::new()
            .contained_semijoin_stab(te(&ys), ts(&xs))
            .unwrap();
        assert_eq!(op.order(), Some(StreamOrder::TE_ASC));
        let out = op.collect_vec().unwrap();
        assert!(!out.is_empty());
        assert_eq!(StreamOrder::TE_ASC.first_violation(&out), None);
    }

    fn arb_intervals(n: usize) -> impl Strategy<Value = Vec<TsTuple>> {
        proptest::collection::vec((-60i64..60, 1i64..40), 0..n)
            .prop_map(|v| v.into_iter().map(|(s, d)| iv(s, s + d)).collect())
    }

    proptest! {
        #[test]
        fn overlap_join_matches_oracle(xs in arb_intervals(40), ys in arb_intervals(40)) {
            for mode in [OverlapMode::Strict, OverlapMode::General] {
                for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate] {
                    prop_assert_eq!(
                        run_overlap_join(&xs, &ys, mode, policy),
                        overlap_join_oracle(&xs, &ys, mode)
                    );
                }
            }
        }

        #[test]
        fn overlap_semijoin_matches_oracle(xs in arb_intervals(40), ys in arb_intervals(40)) {
            for mode in [OverlapMode::Strict, OverlapMode::General] {
                let (got, _) = run_overlap_semi(&xs, &ys, mode);
                prop_assert_eq!(got, canon(overlap_semi_oracle(&xs, &ys, mode)));
            }
        }

        #[test]
        fn contain_semijoin_matches_oracle(xs in arb_intervals(50), ys in arb_intervals(50)) {
            prop_assert_eq!(run_contain(&xs, &ys), canon(contain_oracle(&xs, &ys)));
        }

        #[test]
        fn contained_semijoin_matches_oracle(xs in arb_intervals(50), ys in arb_intervals(50)) {
            prop_assert_eq!(run_contained(&xs, &ys), canon(contained_oracle(&xs, &ys)));
        }
    }
}
