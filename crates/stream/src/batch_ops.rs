//! The push protocol every stream operator speaks, and the sweep kernels
//! of the operators the planner emits, over columnar [`RowBatch`]es.
//!
//! | kernel | paper | workspace |
//! |---|---|---|
//! | [`ContainJoinTsTe`] | §4.2.1, Table 1 state (b) | gapless X state |
//! | [`OverlapJoin`] | §4.2.4, Table 2 state (a) | gapless X+Y states |
//! | [`OverlapSemijoin`] | §4.2.4, Table 2 state (b) | none / gapless (strict) |
//! | [`ContainSemijoinStab`] | §4.2.2, Figure 6, Table 1 state (d) | buffers only |
//! | [`ContainedSemijoinStab`] | §4.2.2, Figure 6, Table 1 state (d) | buffers only |
//!
//! The other paper operators are kernels of the same protocol in the
//! module of their section: [`crate::contain_join`] (Table 1 (a)),
//! [`crate::sweep_semijoin`] (Table 1 (c)), [`crate::self_semijoin`]
//! (Table 3) and [`crate::before`] (§4.2.4).
//!
//! The kernels are **push**-driven: the caller feeds batches via
//! [`BatchOp::process_batch_left`] / `_right` when [`BatchOp::wants`] asks
//! for that side, and collects output with [`BatchOp::drain`]. [`drive`]
//! runs that protocol, handing each drained chunk to a closure;
//! [`crate::dispatch`] picks the kernel for a [`crate::StreamOpKind`] and
//! drives it over sorted vectors.
//!
//! The demand signal makes a kernel read exactly the tuples the paper's
//! algorithm needs and no more — a cursor counts a row as read when it
//! first becomes the visible head, never when its batch arrives — so
//! [`OpReport`]s (reads, comparisons, emits, workspace statistics) are
//! **identical for every batch size**. The hot loops run over the dense
//! endpoint columns of [`RowBatch`] and [`GaplessWorkspace`] (Piatov et
//! al.): branch-light integer comparisons the compiler can unroll and
//! vectorize, with payloads touched only on a match.
//! `tests/oracle.rs` pins the batch-size invariance and checks every
//! output against the nested-loop Allen oracle.
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

use crate::batch::{BatchStream, RowBatch};
use crate::gapless::GaplessWorkspace;
use crate::metrics::OpMetrics;
use crate::overlap_join::OverlapMode;
use crate::read_policy::{Advance, PolicyState, ReadPolicy};
use crate::report::OpReport;
use crate::workspace::WorkspaceStats;
use std::collections::VecDeque;
use tdb_core::{TdbResult, Temporal, TimePoint};

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
/// point. [`drive`] implements this loop. A unary kernel (a self
/// semijoin) is a `BatchOp` that never asks for its right side.
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

    /// Take the output produced so far. A kernel whose output per input
    /// row is unbounded (the Before-join) produces it a chunk at a time:
    /// each `drain` hands over one chunk, and an empty one means the
    /// kernel needs what [`BatchOp::wants`] names.
    fn drain(&mut self) -> Vec<Self::Out>;

    /// Metrics and workspace statistics, batch-size invariant.
    fn report(&self) -> OpReport;

    /// Show every item the kernel holds — its cursor queues, workspace,
    /// the item in hand and undrained output — to `left` or `right` by
    /// the input it came from. A visitor may rewrite an item in place (a
    /// compaction of the storage the items index) but must not change
    /// its period. [`drive`] calls this only between a drain and the
    /// next feed.
    fn visit_held(
        &mut self,
        left: &mut dyn FnMut(&mut Self::LeftItem),
        right: &mut dyn FnMut(&mut Self::RightItem),
    );
}

/// A borrowed kernel runs like an owned one, so a caller can read its
/// state back after the run.
impl<K: BatchOp> BatchOp for &mut K {
    type LeftItem = K::LeftItem;
    type RightItem = K::RightItem;
    type Out = K::Out;

    fn wants(&self) -> Wants {
        (**self).wants()
    }

    fn process_batch_left(&mut self, batch: RowBatch<Self::LeftItem>) -> TdbResult<()> {
        (**self).process_batch_left(batch)
    }

    fn process_batch_right(&mut self, batch: RowBatch<Self::RightItem>) -> TdbResult<()> {
        (**self).process_batch_right(batch)
    }

    fn finish(&mut self, side: Side) -> TdbResult<()> {
        (**self).finish(side)
    }

    fn drain(&mut self) -> Vec<Self::Out> {
        (**self).drain()
    }

    fn report(&self) -> OpReport {
        (**self).report()
    }

    fn visit_held(
        &mut self,
        left: &mut dyn FnMut(&mut Self::LeftItem),
        right: &mut dyn FnMut(&mut Self::RightItem),
    ) {
        (**self).visit_held(left, right);
    }
}

/// One step of the push protocol: give `op` the batch (or end-of-stream
/// notice) it asks for, after letting that input compact what its items
/// index ([`BatchStream::compact`]). Returns `false` once it wants
/// nothing more.
fn feed<K, L, R>(op: &mut K, left: &mut L, right: &mut R) -> TdbResult<bool>
where
    K: BatchOp,
    L: BatchStream<Item = K::LeftItem>,
    R: BatchStream<Item = K::RightItem>,
{
    match op.wants() {
        Wants::Done => return Ok(false),
        Wants::Left => {
            left.compact(&mut |f| op.visit_held(f, &mut |_| {}));
            match left.next_batch()? {
                Some(b) => op.process_batch_left(b)?,
                None => op.finish(Side::Left)?,
            }
        }
        Wants::Right => {
            right.compact(&mut |f| op.visit_held(&mut |_| {}, f));
            match right.next_batch()? {
                Some(b) => op.process_batch_right(b)?,
                None => op.finish(Side::Right)?,
            }
        }
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
        if chunk.is_empty() {
            if !feed(op, left, right)? {
                return Ok(true);
            }
        } else if !emit(chunk)? {
            return Ok(false);
        }
    }
}

/// Where a cursor's head stands.
pub(crate) enum Head {
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
pub(crate) struct Cursor<T> {
    queue: VecDeque<RowBatch<T>>,
    idx: usize,
    pub(crate) reads: usize,
    counted: bool,
    done: bool,
}

impl<T: Clone> Cursor<T> {
    pub(crate) fn new() -> Cursor<T> {
        Cursor {
            queue: VecDeque::new(),
            idx: 0,
            reads: 0,
            counted: false,
            done: false,
        }
    }

    pub(crate) fn push(&mut self, batch: RowBatch<T>) {
        if !batch.is_empty() {
            self.queue.push_back(batch);
        }
    }

    pub(crate) fn finish(&mut self) {
        self.done = true;
    }

    /// Resolve the head, counting a newly visible row as a read.
    #[inline]
    pub(crate) fn head(&mut self) -> Head {
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
    pub(crate) fn clone_head(&self) -> T {
        self.queue
            .front()
            // Callers resolve the head before reading it. lint:allow(no-unwrap)
            .expect("resolved head")
            .row(self.idx)
            .clone()
    }

    /// Consume the head row.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.idx += 1;
        self.counted = false;
    }

    /// Show `f` every queued row not consumed yet, the head included.
    pub(crate) fn visit_held(&mut self, f: &mut dyn FnMut(&mut T)) {
        let mut consumed = self.idx;
        for batch in &mut self.queue {
            for item in batch.rows_mut().iter_mut().skip(consumed) {
                f(item);
            }
            consumed = 0;
        }
    }
}

/// Show a join's undrained pairs to the visitors of their sides.
pub(crate) fn visit_pairs<X, Y>(
    out: &mut [(X, Y)],
    left: &mut dyn FnMut(&mut X),
    right: &mut dyn FnMut(&mut Y),
) {
    for (x, y) in out {
        left(x);
        right(y);
    }
}

/// Show a semijoin's undrained left items to the left visitor.
pub(crate) fn visit_kept<X, Y>(
    out: &mut [X],
    left: &mut dyn FnMut(&mut X),
    _right: &mut dyn FnMut(&mut Y),
) {
    out.iter_mut().for_each(left);
}

pub(crate) fn metrics(
    read_left: usize,
    read_right: usize,
    comparisons: usize,
    emitted: usize,
) -> OpMetrics {
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
            started: false,
            want: Wants::Left, // establish the X head first, like refill_x
        }
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

    fn visit_held(&mut self, left: &mut dyn FnMut(&mut X), right: &mut dyn FnMut(&mut Y)) {
        self.cx.visit_held(left);
        self.state.visit_held(left);
        self.cy.visit_held(right);
        if let Some((_, _, y)) = &mut self.cur_y {
            right(y);
        }
        visit_pairs(&mut self.out, left, right);
    }
}

// ---------------------------------------------------------------------------
// The two-state sweep skeleton.
// ---------------------------------------------------------------------------

/// The loop shared by the two-state sweeps — Table 1 (a) and (c), Table 2
/// (a) and the strict overlap semijoin: both inputs sorted `ValidFrom ↑`,
/// a resident state per side, a read policy choosing which buffered tuple
/// to process next, and the GC phase keyed off the two buffers right after
/// every refill.
pub(crate) struct Sweep<X: Temporal + Clone, Y: Temporal + Clone> {
    pub(crate) cx: Cursor<X>,
    pub(crate) cy: Cursor<Y>,
    pub(crate) sx: GaplessWorkspace<X>,
    pub(crate) sy: GaplessWorkspace<Y>,
    policy: ReadPolicy,
    policy_state: PolicyState,
    gc_pending: bool,
    pub(crate) want: Wants,
}

/// A buffered head's `(ts, te)` ticks; `None` once its input is exhausted.
pub(crate) type Buffered = Option<(i64, i64)>;

impl<X: Temporal + Clone, Y: Temporal + Clone> Sweep<X, Y> {
    pub(crate) fn new(policy: ReadPolicy) -> Self {
        Sweep {
            cx: Cursor::new(),
            cy: Cursor::new(),
            sx: GaplessWorkspace::new(),
            sy: GaplessWorkspace::new(),
            policy,
            policy_state: PolicyState::default(),
            gc_pending: false,
            want: Wants::Left,
        }
    }

    /// Resolve both buffers, run the pending GC phase (`gc` gets both
    /// states and both buffers; an exhausted input's buffer is `None`),
    /// and pick the side whose buffered tuple is processed next, with its
    /// ticks. `None` when the kernel must suspend or is done — `want`
    /// says which. The caller consumes the returned head.
    pub(crate) fn next(
        &mut self,
        gc: impl FnOnce(&mut GaplessWorkspace<X>, &mut GaplessWorkspace<Y>, Buffered, Buffered),
    ) -> Option<(Side, i64, i64)> {
        let hx = match self.cx.head() {
            Head::Starved => {
                self.want = Wants::Left;
                return None;
            }
            Head::Exhausted => None,
            Head::Row(a, b) => Some((a, b)),
        };
        let hy = match self.cy.head() {
            Head::Starved => {
                self.want = Wants::Right;
                return None;
            }
            Head::Exhausted => None,
            Head::Row(a, b) => Some((a, b)),
        };
        // GC belongs right after the refill that follows a processed
        // tuple; the refill is this head resolution, so it runs here.
        if self.gc_pending {
            gc(&mut self.sx, &mut self.sy, hx, hy);
            self.gc_pending = false;
        }
        let (side, (ts, te)) = match (hx, hy) {
            (Some(x), None) if !self.sy.is_empty() => (Side::Left, x),
            (None, Some(y)) if !self.sx.is_empty() => (Side::Right, y),
            (Some(x), Some(y)) => {
                let d = self.policy.decide(
                    &mut self.policy_state,
                    TimePoint::new(x.0),
                    TimePoint::new(y.0),
                    self.sx.len(),
                    self.sy.len(),
                );
                match d {
                    Advance::Left => (Side::Left, x),
                    Advance::Right => (Side::Right, y),
                }
            }
            // Both inputs done, or one done with nothing left for the
            // other's arrivals to match.
            _ => {
                self.want = Wants::Done;
                return None;
            }
        };
        self.gc_pending = true;
        Some((side, ts, te))
    }

    /// Metrics plus the stacked workspace of both states.
    pub(crate) fn report(&self, comparisons: usize, emitted: usize) -> OpReport {
        OpReport::new(
            metrics(self.cx.reads, self.cy.reads, comparisons, emitted),
            self.sx.stats().combine_stacked(self.sy.stats()),
        )
    }

    /// Show both cursors' queued rows and both states.
    pub(crate) fn visit_held(
        &mut self,
        left: &mut dyn FnMut(&mut X),
        right: &mut dyn FnMut(&mut Y),
    ) {
        self.cx.visit_held(left);
        self.sx.visit_held(left);
        self.cy.visit_held(right);
        self.sy.visit_held(right);
    }
}

/// Implement [`BatchOp`] for a two-state sweep kernel `$name<X, Y>` with
/// output `$out`: a `sw: Sweep<X, Y>`, a `run()` that advances it, an
/// `out` buffer whose items `$visit_out` shows ([`visit_pairs`] or
/// [`visit_kept`]) and `comparisons`/`emitted` counters.
macro_rules! sweep_batch_op {
    ($name:ident, $out:ty, $visit_out:ident) => {
        impl<X: Temporal + Clone, Y: Temporal + Clone> BatchOp for $name<X, Y> {
            type LeftItem = X;
            type RightItem = Y;
            type Out = $out;

            fn wants(&self) -> Wants {
                self.sw.want
            }

            fn process_batch_left(&mut self, batch: RowBatch<X>) -> TdbResult<()> {
                self.sw.cx.push(batch);
                self.run();
                Ok(())
            }

            fn process_batch_right(&mut self, batch: RowBatch<Y>) -> TdbResult<()> {
                self.sw.cy.push(batch);
                self.run();
                Ok(())
            }

            fn finish(&mut self, side: Side) -> TdbResult<()> {
                match side {
                    Side::Left => self.sw.cx.finish(),
                    Side::Right => self.sw.cy.finish(),
                }
                self.run();
                Ok(())
            }

            fn drain(&mut self) -> Vec<$out> {
                std::mem::take(&mut self.out)
            }

            fn report(&self) -> OpReport {
                self.sw.report(self.comparisons, self.emitted)
            }

            fn visit_held(&mut self, left: &mut dyn FnMut(&mut X), right: &mut dyn FnMut(&mut Y)) {
                self.sw.visit_held(left, right);
                $visit_out(&mut self.out, left, right);
            }
        }
    };
}
pub(crate) use sweep_batch_op;

/// Collect into `hits` the resident indices whose `(ts, te)` satisfy `m`:
/// one branch-light pass over the endpoint columns.
#[inline]
pub(crate) fn probe(ts: &[i64], te: &[i64], hits: &mut Vec<u32>, m: impl Fn(i64, i64) -> bool) {
    hits.clear();
    for i in 0..ts.len() {
        if m(ts[i], te[i]) {
            hits.push(i as u32);
        }
    }
}

/// Does any resident tuple's `(ts, te)` satisfy `m`? The same
/// branch-light pass as [`probe`], without collecting the hits.
#[inline]
pub(crate) fn witnessed(ts: &[i64], te: &[i64], m: impl Fn(i64, i64) -> bool) -> bool {
    let mut n = 0usize;
    for i in 0..ts.len() {
        n += usize::from(m(ts[i], te[i]));
    }
    n > 0
}

// ---------------------------------------------------------------------------
// Overlap join.
// ---------------------------------------------------------------------------

/// Overlap join over two `ValidFrom ↑` inputs — Table 2 state (a). Both
/// state sets live in gapless columns; probes and GC cutoffs are single
/// passes over them.
pub struct OverlapJoin<X: Temporal + Clone, Y: Temporal + Clone> {
    sw: Sweep<X, Y>,
    mode: OverlapMode,
    out: Vec<(X, Y)>,
    hits: Vec<u32>,
    comparisons: usize,
    emitted: usize,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> OverlapJoin<X, Y> {
    /// An empty kernel with the given overlap mode and read policy.
    pub fn new(mode: OverlapMode, policy: ReadPolicy) -> Self {
        OverlapJoin {
            sw: Sweep::new(policy),
            mode,
            out: Vec::new(),
            hits: Vec::new(),
            comparisons: 0,
            emitted: 0,
        }
    }

    /// An x arriving against the Y state: general overlap
    /// `x.TS < y.TE ∧ y.TS < x.TE`, strict `x.TS < y.TS < x.TE < y.TE`.
    fn process_x(&mut self, xts: i64, xte: i64) {
        let x = self.sw.cx.clone_head();
        self.sw.cx.advance();
        match self.mode {
            OverlapMode::General => self.join_x(&x, |yts, yte| (xts < yte) & (yts < xte)),
            OverlapMode::Strict => {
                self.join_x(&x, |yts, yte| (xts < yts) & (xte > yts) & (xte < yte))
            }
        }
        self.sw.sx.insert_raw(xts, xte, x);
    }

    fn join_x(&mut self, x: &X, m: impl Fn(i64, i64) -> bool) {
        let (ts, te) = (self.sw.sy.ts_col(), self.sw.sy.te_col());
        self.comparisons += ts.len();
        probe(ts, te, &mut self.hits, m);
        for &i in &self.hits {
            self.out
                .push((x.clone(), self.sw.sy.payload(i as usize).clone()));
        }
        self.emitted += self.hits.len();
    }

    /// A y arriving against the X state (the same predicates).
    fn process_y(&mut self, yts: i64, yte: i64) {
        let y = self.sw.cy.clone_head();
        self.sw.cy.advance();
        match self.mode {
            OverlapMode::General => self.join_y(&y, |xts, xte| (xts < yte) & (yts < xte)),
            OverlapMode::Strict => {
                self.join_y(&y, |xts, xte| (xts < yts) & (xte > yts) & (xte < yte))
            }
        }
        self.sw.sy.insert_raw(yts, yte, y);
    }

    fn join_y(&mut self, y: &Y, m: impl Fn(i64, i64) -> bool) {
        let (ts, te) = (self.sw.sx.ts_col(), self.sw.sx.te_col());
        self.comparisons += ts.len();
        probe(ts, te, &mut self.hits, m);
        for &i in &self.hits {
            self.out
                .push((self.sw.sx.payload(i as usize).clone(), y.clone()));
        }
        self.emitted += self.hits.len();
    }

    fn run(&mut self) {
        let mode = self.mode;
        // General mode: `x` is dead once `x.TE ≤ y_b.TS` (no future `y`
        // starts inside it) and symmetrically for `y`. Strict mode: the
        // same cutoff kills `x` (Allen overlap needs `y.TS < x.TE`), while
        // `y` is dead once `y.TS ≤ x_b.TS` (it needs an earlier-starting
        // `x`, and future `x` only start later). An exhausted input
        // empties the opposite state.
        let gc = |sx: &mut GaplessWorkspace<X>,
                  sy: &mut GaplessWorkspace<Y>,
                  hx: Buffered,
                  hy: Buffered| {
            match hy {
                Some((yts, _)) => sx.gc_te_gt(yts),
                None => sx.clear_discard(),
            }
            match hx {
                Some((xts, _)) => match mode {
                    OverlapMode::General => sy.gc_te_gt(xts),
                    OverlapMode::Strict => sy.gc_ts_gt(xts),
                },
                None => sy.clear_discard(),
            }
        };
        while let Some((side, ts, te)) = self.sw.next(gc) {
            match side {
                Side::Left => self.process_x(ts, te),
                Side::Right => self.process_y(ts, te),
            }
        }
    }
}

sweep_batch_op!(OverlapJoin, (X, Y), visit_pairs);

// ---------------------------------------------------------------------------
// Overlap semijoin.
// ---------------------------------------------------------------------------

/// Overlap **semijoin**: emits each X tuple overlapping at least one Y
/// tuple. General mode is the two-buffer merge of Table 2 state (b):
/// general overlap is monotone in both sort keys, so the scan advances
/// whichever buffer ends first and never stores a tuple (zero workspace,
/// output in X order). Strict Allen mode sweeps with gapless state and
/// emit-once extraction.
pub struct OverlapSemijoin<X: Temporal + Clone, Y: Temporal + Clone> {
    sw: Sweep<X, Y>,
    mode: OverlapMode,
    out: Vec<X>,
    comparisons: usize,
    emitted: usize,
    started: bool,
}

impl<X: Temporal + Clone, Y: Temporal + Clone> OverlapSemijoin<X, Y> {
    /// An empty kernel with the given overlap mode and read policy.
    pub fn new(mode: OverlapMode, policy: ReadPolicy) -> Self {
        OverlapSemijoin {
            sw: Sweep::new(policy),
            mode,
            out: Vec::new(),
            comparisons: 0,
            emitted: 0,
            started: false,
        }
    }

    fn run(&mut self) {
        if !self.started {
            // The algorithm buffers one tuple from each input up front.
            if matches!(self.sw.cx.head(), Head::Starved) {
                self.sw.want = Wants::Left;
                return;
            }
            if matches!(self.sw.cy.head(), Head::Starved) {
                self.sw.want = Wants::Right;
                return;
            }
            self.started = true;
        }
        match self.mode {
            OverlapMode::General => self.run_general(),
            OverlapMode::Strict => self.run_strict(),
        }
    }

    fn run_general(&mut self) {
        let (cx, cy) = (&mut self.sw.cx, &mut self.sw.cy);
        loop {
            let hx = match cx.head() {
                Head::Starved => {
                    self.sw.want = Wants::Left;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let hy = match cy.head() {
                Head::Starved => {
                    self.sw.want = Wants::Right;
                    return;
                }
                Head::Exhausted => None,
                Head::Row(a, b) => Some((a, b)),
            };
            let (Some((xts, xte)), Some((yts, yte))) = (hx, hy) else {
                self.sw.want = Wants::Done;
                return;
            };
            self.comparisons += 1;
            if (xts < yte) & (yts < xte) {
                self.out.push(cx.clone_head());
                self.emitted += 1;
                cx.advance();
            } else if xte <= yts {
                // x ends before y starts; future y start even later.
                cx.advance();
            } else {
                // y cannot witness this or any future x.
                cy.advance();
            }
        }
    }

    fn run_strict(&mut self) {
        // The strict-overlap GC rules of [`OverlapJoin`].
        let gc = |sx: &mut GaplessWorkspace<X>,
                  sy: &mut GaplessWorkspace<Y>,
                  hx: Buffered,
                  hy: Buffered| {
            match hy {
                Some((yts, _)) => sx.gc_te_gt(yts),
                None => sx.clear_discard(),
            }
            match hx {
                Some((xts, _)) => sy.gc_ts_gt(xts),
                None => sy.clear_discard(),
            }
        };
        while let Some((side, ts, te)) = self.sw.next(gc) {
            match side {
                Side::Left => {
                    let (xts, xte) = (ts, te);
                    let x = self.sw.cx.clone_head();
                    self.sw.cx.advance();
                    let sy = &self.sw.sy;
                    self.comparisons += sy.len();
                    let m = |yts: i64, yte: i64| (xts < yts) & (xte > yts) & (xte < yte);
                    if witnessed(sy.ts_col(), sy.te_col(), m) {
                        self.out.push(x);
                        self.emitted += 1;
                    } else {
                        self.sw.sx.insert_raw(xts, xte, x);
                    }
                }
                Side::Right => {
                    let (yts, yte) = (ts, te);
                    let y = self.sw.cy.clone_head();
                    self.sw.cy.advance();
                    self.comparisons += self.sw.sx.len();
                    let witnessed = self
                        .sw
                        .sx
                        .extract(|ts, te| (ts < yts) & (te > yts) & (te < yte));
                    self.emitted += witnessed.len();
                    self.out.extend(witnessed);
                    self.sw.sy.insert_raw(yts, yte, y);
                }
            }
        }
    }
}

sweep_batch_op!(OverlapSemijoin, X, visit_kept);

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

    fn visit_held(&mut self, c: &mut dyn FnMut(&mut C), e: &mut dyn FnMut(&mut E)) {
        self.cc.visit_held(c);
        self.ce.visit_held(e);
        self.out_c.iter_mut().for_each(&mut *c);
        self.out_e.iter_mut().for_each(e);
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

    fn visit_held(&mut self, left: &mut dyn FnMut(&mut X), right: &mut dyn FnMut(&mut Y)) {
        self.scan.visit_held(left, right);
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

    fn visit_held(&mut self, left: &mut dyn FnMut(&mut Y), right: &mut dyn FnMut(&mut X)) {
        self.scan.visit_held(left, right);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{collect, run_kernel, run_semijoin, Emit};
    use crate::report::OpConfig;
    use crate::required::StreamOpKind;
    use proptest::prelude::*;
    use tdb_core::{StreamOrder, TdbError, TsTuple};

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

    /// Push a fresh kernel from `make` over the two inputs (sorted into
    /// the given orders) in `rows`-row batches and collect everything it
    /// emits.
    fn driven<K: BatchOp>(
        make: impl Fn() -> K,
        left: (&[K::LeftItem], StreamOrder),
        right: (&[K::RightItem], StreamOrder),
        rows: usize,
    ) -> (Vec<K::Out>, OpReport) {
        let (l, r) = (left.0.to_vec(), right.0.to_vec());
        let (lo, ro) = (Some(left.1), Some(right.1));
        collect(|e| run_kernel(make(), rows, l, lo, r, ro, e)).unwrap()
    }

    /// The output sequence and report at batch size 1 — the
    /// tuple-at-a-time algorithm — and their equality at every other size.
    fn batch_size_invariant<K: BatchOp>(
        make: impl Fn() -> K,
        left: (&[K::LeftItem], StreamOrder),
        right: (&[K::RightItem], StreamOrder),
    ) -> (Vec<K::Out>, OpReport)
    where
        K::Out: PartialEq + std::fmt::Debug,
    {
        let one = driven(&make, left, right, 1);
        for rows in [7usize, 64, 1024] {
            let got = driven(&make, left, right, rows);
            assert_eq!(got, one, "batch size {rows}");
        }
        one
    }

    // -- batch-size invariance: pushing batches of any size runs the
    // -- kernel to the same output sequence and report.

    #[test]
    fn contain_ts_te_is_batch_size_invariant() {
        let (xs, ys) = workload(120);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TE_ASC);
        let (out, rep) = batch_size_invariant(
            ContainJoinTsTe::new,
            (&xs, StreamOrder::TS_ASC),
            (&ys, StreamOrder::TE_ASC),
        );
        assert!(!out.is_empty());
        assert_eq!(rep.metrics.emitted, out.len());
    }

    #[test]
    fn overlap_join_is_batch_size_invariant() {
        let (xs, ys) = workload(100);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TS_ASC);
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate] {
                let (out, rep) = batch_size_invariant(
                    || OverlapJoin::new(mode, policy),
                    (&xs, StreamOrder::TS_ASC),
                    (&ys, StreamOrder::TS_ASC),
                );
                assert_eq!(rep.metrics.emitted, out.len(), "{mode:?} {policy:?}");
            }
        }
    }

    #[test]
    fn overlap_semijoin_is_batch_size_invariant() {
        let (xs, ys) = workload(90);
        let xs = sorted(xs, StreamOrder::TS_ASC);
        let ys = sorted(ys, StreamOrder::TS_ASC);
        for mode in [OverlapMode::General, OverlapMode::Strict] {
            batch_size_invariant(
                || OverlapSemijoin::new(mode, ReadPolicy::MinKey),
                (&xs, StreamOrder::TS_ASC),
                (&ys, StreamOrder::TS_ASC),
            );
        }
    }

    #[test]
    fn stab_semijoins_are_batch_size_invariant() {
        let (xs, ys) = workload(110);
        // Contain: X containers TS↑ (left), Y containees TE↑ (right).
        batch_size_invariant(
            ContainSemijoinStab::new,
            (
                &sorted(xs.clone(), StreamOrder::TS_ASC),
                StreamOrder::TS_ASC,
            ),
            (
                &sorted(ys.clone(), StreamOrder::TE_ASC),
                StreamOrder::TE_ASC,
            ),
        );
        // Contained: X containees TE↑ (right input), Y containers TS↑ (left).
        batch_size_invariant(
            ContainedSemijoinStab::new,
            (&sorted(ys, StreamOrder::TS_ASC), StreamOrder::TS_ASC),
            (&sorted(xs, StreamOrder::TE_ASC), StreamOrder::TE_ASC),
        );
    }

    /// Empty Y: the Contain-join still buffers (reads) the first X tuple.
    #[test]
    fn empty_right_input_reads_one_left_tuple() {
        let xs = vec![iv(0, 5), iv(1, 9)];
        let (got, rep) = driven(
            ContainJoinTsTe::<TsTuple, TsTuple>::new,
            (&xs, StreamOrder::TS_ASC),
            (&[], StreamOrder::TE_ASC),
            4,
        );
        assert!(got.is_empty());
        assert_eq!(rep.metrics.read_left, 1);
        assert_eq!(rep.metrics.read_right, 0);
    }

    /// A kernel reads no further than its next output needs. The numbers
    /// are those of the tuple-at-a-time Contain-join on these inputs: the
    /// first output reads y₁ and the four X tuples up to the first with
    /// `x.TS ≥ y₁.TS` (4 left, 1 right); the second output comes from the
    /// same y and reads nothing more; a consumer that stops there leaves
    /// the rest unread.
    #[test]
    fn kernel_reads_no_further_than_the_next_output_needs() {
        let xs = vec![iv(0, 100), iv(2, 50), iv(4, 6), iv(20, 30), iv(40, 60)];
        let ys = vec![iv(5, 8), iv(21, 25), iv(45, 50)];
        let mut seen = Vec::new();
        let (completed, report) = run_kernel(
            ContainJoinTsTe::new(),
            1,
            xs.clone(),
            Some(StreamOrder::TS_ASC),
            ys.clone(),
            Some(StreamOrder::TE_ASC),
            Emit::Chunks(&mut |chunk| {
                seen.extend(chunk);
                Ok(seen.len() < 2)
            }),
        )
        .unwrap();
        assert!(!completed);
        assert_eq!(
            seen,
            vec![
                (xs[0].clone(), ys[0].clone()),
                (xs[1].clone(), ys[0].clone())
            ]
        );
        let m = report.metrics;
        assert_eq!((m.read_left, m.read_right), (4, 1));
        assert_eq!(m.comparisons, 6);
        assert_eq!(report.max_workspace(), 2);
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
        let (xs, ys) = (
            sorted(xs.to_vec(), StreamOrder::TS_ASC),
            sorted(ys.to_vec(), StreamOrder::TS_ASC),
        );
        let ts = StreamOrder::TS_ASC;
        canon_pairs(driven(|| OverlapJoin::new(mode, policy), (&xs, ts), (&ys, ts), 16).0)
    }

    fn run_overlap_semi(
        xs: &[TsTuple],
        ys: &[TsTuple],
        mode: OverlapMode,
    ) -> (Vec<TsTuple>, usize) {
        let (xs, ys) = (
            sorted(xs.to_vec(), StreamOrder::TS_ASC),
            sorted(ys.to_vec(), StreamOrder::TS_ASC),
        );
        let ts = StreamOrder::TS_ASC;
        let make = || OverlapSemijoin::new(mode, ReadPolicy::MinKey);
        let (out, rep) = driven(make, (&xs, ts), (&ys, ts), 16);
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

    /// General mode emits a subsequence of X, so X's `ValidFrom ↑` order
    /// holds on the output; strict mode emits in witness order.
    #[test]
    fn overlap_semijoin_declares_its_output_order() {
        let (xs, ys) = workload(90);
        let (xs, ys) = (
            sorted(xs, StreamOrder::TS_ASC),
            sorted(ys, StreamOrder::TS_ASC),
        );
        let ts = StreamOrder::TS_ASC;
        let make = || OverlapSemijoin::new(OverlapMode::General, ReadPolicy::MinKey);
        let (out, _) = driven(make, (&xs, ts), (&ys, ts), 8);
        assert!(!out.is_empty());
        assert_eq!(ts.first_violation(&out), None);
    }

    #[test]
    fn overlap_operators_reject_unsorted_inputs() {
        let cfg = OpConfig::new();
        let unsorted = vec![iv(5, 9), iv(0, 5)];
        for kind in [StreamOpKind::OverlapJoin, StreamOpKind::OverlapSemijoin] {
            let err =
                crate::dispatch::run_join(kind, cfg, unsorted.clone(), vec![iv(0, 5)], Emit::Count)
                    .err()
                    .or_else(|| {
                        run_semijoin(kind, cfg, unsorted.clone(), vec![iv(0, 5)], Emit::Count).err()
                    });
            assert!(err.is_some(), "{kind}");
        }
        let err = run_semijoin(
            StreamOpKind::OverlapSemijoin,
            cfg,
            vec![iv(0, 5)],
            unsorted,
            Emit::Count,
        );
        assert!(matches!(err, Err(TdbError::OrderViolation { .. })));
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

    fn stab(kind: StreamOpKind, xs: &[TsTuple], ys: &[TsTuple]) -> (Vec<TsTuple>, OpReport) {
        let req = kind.requirement();
        // Sort each side into its registry order (X, then Y).
        let xs = sorted(xs.to_vec(), req.left().unwrap());
        let ys = sorted(ys.to_vec(), req.right().unwrap());
        collect(|e| run_semijoin(kind, OpConfig::new().with_batch_rows(4), xs, ys, e)).unwrap()
    }

    fn run_contain(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        canon(stab(StreamOpKind::ContainSemijoinStab, xs, ys).0)
    }

    fn run_contained(xs: &[TsTuple], ys: &[TsTuple]) -> Vec<TsTuple> {
        canon(stab(StreamOpKind::ContainedSemijoinStab, xs, ys).0)
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
        let (x, y) = (vec![x1.clone(), x2.clone()], vec![y1, y2, y3, y4]);
        let mut emitted = Vec::new();
        let (_, report) = run_kernel(
            ContainSemijoinStab::new(),
            1,
            x,
            Some(StreamOrder::TS_ASC),
            y,
            Some(StreamOrder::TE_ASC),
            Emit::Chunks(&mut |chunk: Vec<TsTuple>| {
                emitted.push(chunk);
                Ok(true)
            }),
        )
        .unwrap();
        // First emission: x1, with y2 in the containee buffer — y1 was
        // skipped, y2 is retained for the next container. Second: x2
        // against y4 — y2 and y3 start too early.
        assert_eq!(emitted, vec![vec![x1], vec![x2]]);
        let m = report.metrics;
        assert_eq!((m.read_left, m.read_right), (2, 4));
        assert_eq!(m.emitted, 2);
        assert_eq!(report.max_workspace(), 0, "Table 1 state (d)");
        // After x1's emission only y1, y2 had been read: stop there.
        let (_, first) = run_kernel(
            ContainSemijoinStab::new(),
            1,
            vec![iv(0, 10), iv(8, 20)],
            Some(StreamOrder::TS_ASC),
            vec![iv(-2, 3), iv(1, 5), iv(4, 7), iv(9, 15)],
            Some(StreamOrder::TE_ASC),
            Emit::Chunks(&mut |_| Ok(false)),
        )
        .unwrap();
        assert_eq!((first.metrics.read_left, first.metrics.read_right), (1, 2));
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
        // X TE-sorted but not TS-sorted, for the TS-requiring side.
        let x = vec![iv(5, 6), iv(0, 9)];
        let cfg = OpConfig::new();
        for kind in [
            StreamOpKind::ContainSemijoinStab,
            StreamOpKind::ContainedSemijoinStab,
        ] {
            let (a, b) = if kind == StreamOpKind::ContainSemijoinStab {
                (x.clone(), vec![iv(1, 2)])
            } else {
                (vec![iv(1, 2)], x.clone())
            };
            let err = run_semijoin(kind, cfg, a, b, Emit::Count);
            assert!(
                matches!(err, Err(TdbError::OrderViolation { .. })),
                "{kind}"
            );
        }
    }

    #[test]
    fn stab_semijoin_output_preserves_input_order() {
        let xs: Vec<_> = (0..50).map(|i| iv(i * 3, i * 3 + 10)).collect();
        let ys: Vec<_> = (0..50).map(|i| iv(i * 3 + 1, i * 3 + 5)).collect();
        let (out, _) = stab(StreamOpKind::ContainSemijoinStab, &xs, &ys);
        assert!(!out.is_empty());
        assert_eq!(StreamOrder::TS_ASC.first_violation(&out), None);
        let (out, _) = stab(StreamOpKind::ContainedSemijoinStab, &ys, &xs);
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
