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
//! [`BatchStream`] is the pull surface (batches instead of rows);
//! [`Batcher`] adapts any row [`TupleStream`]. The push surface —
//! `process_batch` — lives in [`crate::batch_ops`].

use crate::stream::TupleStream;
use tdb_core::{StreamOrder, TdbError, TdbResult, Temporal, TimePoint};

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

    /// The payload column.
    pub fn payload(&self) -> &[T] {
        &self.payload
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

/// A fallible, ordered stream of columnar batches — the batch counterpart
/// of [`TupleStream`].
pub trait BatchStream {
    /// Row payload type.
    type Item;

    /// Pull the next batch, `Ok(None)` at end of stream. Batches are
    /// non-empty.
    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<Self::Item>>>;

    /// The ordering the concatenated rows satisfy, if any.
    fn order(&self) -> Option<StreamOrder>;
}

/// Adapt a row [`TupleStream`] into a [`BatchStream`] of `rows`-row
/// batches.
pub struct Batcher<S: TupleStream> {
    inner: S,
    rows: usize,
}

impl<S: TupleStream> Batcher<S> {
    /// Wrap `inner`, emitting batches of up to `rows` rows (`rows == 0` is
    /// treated as 1).
    pub fn new(inner: S, rows: usize) -> Batcher<S> {
        Batcher {
            inner,
            rows: rows.max(1),
        }
    }
}

impl<S: TupleStream> BatchStream for Batcher<S>
where
    S::Item: Temporal,
{
    type Item = S::Item;

    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<S::Item>>> {
        let mut batch = RowBatch::with_capacity(self.rows);
        while batch.len() < self.rows {
            match self.inner.next()? {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }

    fn order(&self) -> Option<StreamOrder> {
        self.inner.order()
    }
}

/// A [`BatchStream`] over an owned, already-sorted vector, slicing it into
/// `rows`-row batches without per-row indirection.
pub struct VecBatchStream<T> {
    items: std::vec::IntoIter<T>,
    rows: usize,
    order: Option<StreamOrder>,
}

impl<T: Temporal> VecBatchStream<T> {
    /// Wrap `items`, verifying the claimed `order` up front (like
    /// [`crate::stream::from_sorted_vec`]).
    pub fn from_sorted_vec(
        items: Vec<T>,
        order: StreamOrder,
        rows: usize,
    ) -> TdbResult<VecBatchStream<T>> {
        if let Some(i) = order.first_violation(&items) {
            return Err(TdbError::OrderViolation {
                context: "VecBatchStream",
                detail: format!("claimed {order} violated at index {i}"),
            });
        }
        Ok(VecBatchStream {
            items: items.into_iter(),
            rows: rows.max(1),
            order: Some(order),
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

    fn order(&self) -> Option<StreamOrder> {
        self.order
    }
}

/// The epoch tick value used when an item's endpoints are needed as plain
/// integers (mirrors [`TimePoint::ticks`], kept here so batch kernels can
/// name it without importing `tdb_core::TimePoint`).
#[inline]
pub fn ticks(p: TimePoint) -> i64 {
    p.ticks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::from_sorted_vec;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    #[test]
    fn batch_splits_columns() {
        let b = RowBatch::from_rows(vec![iv(0, 5), iv(2, 9)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.ts_ticks(), &[0, 2]);
        assert_eq!(b.te_ticks(), &[5, 9]);
        assert_eq!(b.endpoints(1), (2, 9));
        assert_eq!(b.row(0), &iv(0, 5));
    }

    #[test]
    fn batcher_chunks_a_row_stream() {
        let rows: Vec<TsTuple> = (0..10).map(|i| iv(i, i + 1)).collect();
        let s = from_sorted_vec(rows, tdb_core::StreamOrder::TS_ASC).unwrap();
        let mut b = Batcher::new(s, 4);
        assert_eq!(b.order(), Some(tdb_core::StreamOrder::TS_ASC));
        let sizes: Vec<usize> =
            std::iter::from_fn(|| b.next_batch().unwrap().map(|x| x.len())).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn vec_batch_stream_validates_order() {
        let bad = VecBatchStream::from_sorted_vec(
            vec![iv(5, 9), iv(0, 1)],
            tdb_core::StreamOrder::TS_ASC,
            8,
        );
        assert!(matches!(bad, Err(TdbError::OrderViolation { .. })));
        let mut ok = VecBatchStream::from_sorted_vec(
            vec![iv(0, 1), iv(5, 9)],
            tdb_core::StreamOrder::TS_ASC,
            1,
        )
        .unwrap();
        let mut n = 0;
        while let Some(batch) = ok.next_batch().unwrap() {
            n += batch.len();
            assert_eq!(batch.len(), 1);
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn zero_rows_is_clamped() {
        let s = from_sorted_vec(vec![iv(0, 1)], tdb_core::StreamOrder::TS_ASC).unwrap();
        let mut b = Batcher::new(s, 0);
        assert_eq!(b.next_batch().unwrap().unwrap().len(), 1);
    }
}
