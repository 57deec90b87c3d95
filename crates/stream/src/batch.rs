//! Columnar row batches — the unit of work of the sweep kernels.
//!
//! Piatov et al. (PAPERS.md, cache-efficient sweeping) observe that
//! row-at-a-time pull loops leave sweep operators memory-bound: every
//! `next()` call touches a whole tuple (payload included) just to read two
//! timestamps, and the per-call dispatch dominates once the comparison
//! itself is a single integer compare. A [`RowBatch`] fixes both problems
//! structurally: the `ValidFrom`/`ValidTo` endpoint columns are stored as
//! dense `i64` arrays that stay cache-resident while the sweep runs, and
//! payloads are only touched when a tuple actually matches.
//!
//! [`BatchStream`] is the input surface a kernel is fed from;
//! [`VecBatchStream`] slices a sorted vector into it, and
//! [`crate::PageStream`] pulls a stored input into it a page at a time.
//! The push surface — `process_batch` — lives in [`crate::batch_ops`].

use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal};

/// Default number of rows per columnar batch. 1024 rows × two `i64`
/// endpoint columns = 16 KiB of sweep keys — half a typical L1d cache,
/// leaving room for the gapless workspace columns.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Upper bound accepted for a configured batch size (engine `\set batch`).
pub const MAX_BATCH_ROWS: usize = 1 << 20;

/// A columnar batch of temporal rows: the `ValidFrom` (TS) and `ValidTo`
/// (TE) endpoints of every row as dense `i64` columns, plus the row
/// payloads in matching positions.
///
/// The endpoint columns are *the* data the sweep loops of
/// [`crate::batch_ops`] iterate; payloads are cloned only on a match.
#[derive(Debug, Clone, Default)]
pub struct RowBatch<T> {
    ts: Vec<i64>,
    te: Vec<i64>,
    payload: Vec<T>,
}

impl<T> RowBatch<T> {
    /// An empty batch with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> RowBatch<T> {
        RowBatch {
            ts: Vec::with_capacity(rows),
            te: Vec::with_capacity(rows),
            payload: Vec::with_capacity(rows),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The `ValidFrom` column, in ticks.
    pub fn ts_ticks(&self) -> &[i64] {
        &self.ts
    }

    /// The `ValidTo` column, in ticks.
    pub fn te_ticks(&self) -> &[i64] {
        &self.te
    }

    /// Endpoints of row `i` as `(ts, te)` ticks.
    #[inline]
    pub fn endpoints(&self, i: usize) -> (i64, i64) {
        (self.ts[i], self.te[i])
    }

    /// Payload of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &T {
        &self.payload[i]
    }

    /// The payload column, owned.
    pub fn into_rows(self) -> Vec<T> {
        self.payload
    }

    /// The payload column, to rewrite in place. An item's period must not
    /// change: the endpoint columns would no longer be its own.
    pub(crate) fn rows_mut(&mut self) -> &mut [T] {
        &mut self.payload
    }
}

impl<T: Temporal> RowBatch<T> {
    /// Append a row, splitting its endpoints into the columns.
    pub fn push(&mut self, item: T) {
        self.ts.push(item.ts().ticks());
        self.te.push(item.te().ticks());
        self.payload.push(item);
    }

    /// Build a single batch holding all of `items`.
    pub fn from_rows(items: Vec<T>) -> RowBatch<T> {
        let mut b = RowBatch::with_capacity(items.len());
        for item in items {
            b.push(item);
        }
        b
    }
}

/// A fallible stream of columnar batches — what a kernel is fed from.
pub trait BatchStream {
    /// Row payload type.
    type Item;

    /// Pull the next batch, `Ok(None)` at end of stream. Batches are
    /// non-empty.
    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<Self::Item>>>;

    /// Called by [`crate::drive`] just before the kernel is fed this
    /// stream's next batch, when no output is pending; `kernel` shows a
    /// visitor every item of this input the kernel holds
    /// ([`crate::BatchOp::visit_held`]). A stream whose items index
    /// storage that grows as it reads may compact that storage here
    /// ([`crate::PageSource::compact`]). Nothing by default.
    fn compact(&mut self, kernel: &mut ShowHeld<'_, Self::Item>) {
        let _ = kernel;
    }
}

/// Shows the visitor it is given every item some holder still holds. The
/// visitor may rewrite an item in place — a compaction of the storage the
/// items index — but must not change its period.
pub type ShowHeld<'a, T> = dyn FnMut(&mut dyn FnMut(&mut T)) + 'a;

/// A stream borrowed is a stream: a caller can keep a stream it lends to
/// a kernel and read its state after the run.
impl<B: BatchStream + ?Sized> BatchStream for &mut B {
    type Item = B::Item;

    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<Self::Item>>> {
        (**self).next_batch()
    }

    fn compact(&mut self, kernel: &mut ShowHeld<'_, Self::Item>) {
        (**self).compact(kernel);
    }
}

/// What a kernel reads one of its inputs from: the entry points of
/// [`crate::dispatch`] take any `KernelInput` per side.
pub trait KernelInput {
    /// Row payload type.
    type Item;
    /// The batches the kernel is fed.
    type Stream: BatchStream<Item = Self::Item>;

    /// The input as batches of at most `rows` rows in `order` (`None`:
    /// any). A vector is verified up front ([`VecBatchStream::new`]); a
    /// [`crate::PageStream`] must deliver the order and verifies its
    /// source as it reads. A violation is an `OrderViolation`.
    fn into_batches(self, order: Option<StreamOrder>, rows: usize) -> TdbResult<Self::Stream>;
}

impl<T: Temporal> KernelInput for Vec<T> {
    type Item = T;
    type Stream = VecBatchStream<T>;

    fn into_batches(self, order: Option<StreamOrder>, rows: usize) -> TdbResult<Self::Stream> {
        VecBatchStream::new(self, order, rows)
    }
}

/// A [`BatchStream`] over an owned vector, slicing it into `rows`-row
/// batches without per-row indirection. Its items index nothing that
/// grows, so it compacts nothing.
pub struct VecBatchStream<T> {
    items: std::vec::IntoIter<T>,
    rows: usize,
}

impl<T> VecBatchStream<T> {
    /// Show `f` every item not handed out yet, in order, to rewrite in
    /// place; its period must not change.
    pub fn visit_held(&mut self, f: &mut dyn FnMut(&mut T)) {
        self.items.as_mut_slice().iter_mut().for_each(f);
    }
}

impl<T: Temporal> VecBatchStream<T> {
    /// Wrap `items` in batches of `rows` rows (`0` is treated as 1),
    /// verifying the claimed `order` up front; `None` claims none.
    pub fn new(items: Vec<T>, order: Option<StreamOrder>, rows: usize) -> TdbResult<Self> {
        if let Some(order) = order {
            if let Some(i) = order.first_violation(&items) {
                return Err(TdbError::OrderViolation {
                    context: "VecBatchStream",
                    detail: format!("claimed {order} violated at index {i}"),
                });
            }
        }
        Ok(VecBatchStream {
            items: items.into_iter(),
            rows: rows.max(1),
        })
    }
}

impl<T: Temporal> BatchStream for VecBatchStream<T> {
    type Item = T;

    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<T>>> {
        let mut batch = RowBatch::with_capacity(self.rows);
        while batch.len() < self.rows {
            match self.items.next() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    fn sizes(mut b: VecBatchStream<TsTuple>) -> Vec<usize> {
        std::iter::from_fn(|| b.next_batch().unwrap().map(|x| x.len())).collect()
    }

    #[test]
    fn batch_splits_columns() {
        let b = RowBatch::from_rows(vec![iv(0, 5), iv(2, 9)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.ts_ticks(), &[0, 2]);
        assert_eq!(b.te_ticks(), &[5, 9]);
        assert_eq!(b.endpoints(1), (2, 9));
        assert_eq!(b.row(0), &iv(0, 5));
        assert_eq!(b.into_rows(), vec![iv(0, 5), iv(2, 9)]);
    }

    #[test]
    fn batcher_chunks_a_row_stream() {
        let rows: Vec<TsTuple> = (0..10).map(|i| iv(i, i + 1)).collect();
        let b = VecBatchStream::new(rows, Some(StreamOrder::TS_ASC), 4).unwrap();
        assert_eq!(sizes(b), vec![4, 4, 2]);
    }

    #[test]
    fn vec_batch_stream_validates_order() {
        let bad = VecBatchStream::new(vec![iv(5, 9), iv(0, 1)], Some(StreamOrder::TS_ASC), 8);
        assert!(matches!(bad, Err(TdbError::OrderViolation { .. })));
        // No claimed order: any sequence is accepted as is.
        assert!(VecBatchStream::new(vec![iv(5, 9), iv(0, 1)], None, 8).is_ok());
        let ok = VecBatchStream::new(vec![iv(0, 1), iv(5, 9)], Some(StreamOrder::TS_ASC), 1);
        assert_eq!(sizes(ok.unwrap()), vec![1, 1]);
    }

    #[test]
    fn zero_rows_is_clamped() {
        let b = VecBatchStream::new(vec![iv(0, 1), iv(1, 2)], None, 0).unwrap();
        assert_eq!(sizes(b), vec![1, 1]);
    }
}
