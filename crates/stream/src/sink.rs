//! Push-mode result sinks: the consumer side of streaming execution.
//!
//! The materializing execution path collects every output row into one
//! `Vec<Row>` before anything downstream sees it — at 40 k rows/side that
//! copy dominates the run (E21). A [`RowSink`] inverts the flow: the
//! executor *pushes* row chunks into the sink as operators drain, and the
//! sink decides what to keep. Three consumers cover the common shapes:
//!
//! * [`CollectSink`] — keep everything (the materializing behaviour,
//!   reimplemented on the push path);
//! * [`LimitSink`] — keep the first `limit` rows and signal early
//!   termination once full, so `\set limit` stops the producer instead of
//!   truncating a fully-built vector;
//! * [`CountSink`] — keep nothing; with [`RowSink::wants_rows`] `false`
//!   the executor can skip widening pairs into payload rows entirely and
//!   feed the sink bare counts ([`RowSink::push_count`]).
//!
//! Every push returns a *continue* flag; `false` means the sink has seen
//! enough and the producer should stop. [`RowSink::finish`] closes the
//! sink and reports what flowed through it ([`SinkStats`]).
//!
//! A stream join hands its matches over as a [`PairBatch`] — ordinal
//! pairs over the two sides' rows — through [`RowSink::push_pairs`].
//! By default that builds the rows and pushes them, so every sink above
//! sees exactly the rows a row-wise join would give it; a sink that can
//! read the output values from the source rows (the wire encoder)
//! overrides it and never builds one.

use tdb_core::{Row, TdbResult, Value};

/// Approximate in-memory footprint of one row, in bytes — the basis of the
/// sink-side byte counters surfaced in query traces. Deliberately cheap
/// (no encoding pass): scalar variants count their payload width, strings
/// count their length plus the length prefix, and each row pays a small
/// fixed header.
pub fn row_bytes(row: &Row) -> u64 {
    row.values().iter().map(value_bytes).sum::<u64>() + ROW_HEADER_BYTES
}

/// Each row's fixed share of [`row_bytes`].
const ROW_HEADER_BYTES: u64 = 8;

/// One value's share of [`row_bytes`].
fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Time(_) => 8,
        Value::Str(s) => s.len() as u64 + 4,
    }
}

/// A chunk of join matches as ordinal pairs over the two sides' rows,
/// offered through [`RowSink::push_pairs`] instead of built rows. The
/// output row of pair `(l, r)` is `left[l] ++ right[r]` projected onto
/// `columns`, which is the paper's join output ("the concatenation of
/// tuples X and Y") under any projection fused into the join.
#[derive(Debug)]
pub struct PairBatch<'a> {
    /// The left side's rows, indexed by each pair's first ordinal.
    pub left: &'a [Row],
    /// The right side's rows, indexed by each pair's second ordinal.
    pub right: &'a [Row],
    /// The output columns, as indices into the concatenated row.
    pub columns: &'a [usize],
    /// The matches, in output order. The sink may drain or truncate it;
    /// the producer refills it for the next chunk.
    pub pairs: Vec<(u32, u32)>,
}

impl<'a> PairBatch<'a> {
    /// The values of pair `(l, r)`'s output row, in column order.
    #[inline]
    fn values(&self, (l, r): (u32, u32)) -> impl Iterator<Item = &'a Value> + 'a {
        let (lrow, rrow): (&'a Row, &'a Row) = (&self.left[l as usize], &self.right[r as usize]);
        let split = lrow.arity();
        self.columns
            .iter()
            .map(move |&i| match i.checked_sub(split) {
                None => lrow.get(i),
                Some(j) => rrow.get(j),
            })
    }

    /// Hand each value of `pair`'s output row to `f`, in column order;
    /// returns the row's [`row_bytes`], so a sink reading the values
    /// once also has the row's footprint.
    #[inline]
    pub fn visit(&self, pair: (u32, u32), mut f: impl FnMut(&'a Value)) -> u64 {
        let mut bytes = ROW_HEADER_BYTES;
        for v in self.values(pair) {
            bytes += value_bytes(v);
            f(v);
        }
        bytes
    }

    /// The output row of `pair`.
    pub fn row(&self, pair: (u32, u32)) -> Row {
        Row::new(self.values(pair).cloned().collect())
    }

    /// [`row_bytes`] of `pair`'s output row, read off the source values.
    pub fn row_bytes(&self, pair: (u32, u32)) -> u64 {
        self.visit(pair, |_| {})
    }
}

/// What flowed through a sink, reported by [`RowSink::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Rows offered to the sink (including rows it chose to drop).
    pub rows: u64,
    /// Approximate bytes offered ([`row_bytes`] summed; zero for
    /// count-only pushes, which never materialize rows).
    pub bytes: u64,
    /// Number of `push`/`push_count` calls — the chunk granularity the
    /// producer ran at.
    pub batches: u64,
    /// `true` if the sink dropped rows (e.g. a [`LimitSink`] past its
    /// limit) or stopped the producer early — the observed row count is
    /// then a lower bound on the full result.
    pub truncated: bool,
}

/// A push-mode consumer of query output rows.
///
/// Producers call [`RowSink::push`] with each drained chunk (or
/// [`RowSink::push_count`] when the sink declared, via
/// [`RowSink::wants_rows`], that it only counts); a `false` return asks
/// the producer to stop. The chunk vector is passed `&mut` so sinks can
/// drain it without forcing the producer to reallocate per chunk.
pub trait RowSink {
    /// Does this sink need the actual rows? `false` lets the producer
    /// skip widening matches into payload rows and call
    /// [`RowSink::push_count`] instead.
    fn wants_rows(&self) -> bool {
        true
    }

    /// Offer a chunk of rows. The sink takes what it wants from `rows`
    /// (the producer discards whatever is left). Returns `false` when the
    /// sink has seen enough and the producer should stop.
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool>;

    /// Offer a chunk of join matches as ordinal pairs. The default builds
    /// each pair's output row and [`RowSink::push`]es them; a sink that
    /// can use the source values as they are overrides it. Returns
    /// `false` when the sink has seen enough.
    fn push_pairs(&mut self, batch: &mut PairBatch<'_>) -> TdbResult<bool> {
        let mut rows: Vec<Row> = batch.pairs.iter().map(|&p| batch.row(p)).collect();
        self.push(&mut rows)
    }

    /// Offer a bare match count (count-only consumers). Returns `false`
    /// when the sink has seen enough.
    fn push_count(&mut self, n: usize) -> TdbResult<bool>;

    /// Close the sink and report what flowed through it.
    fn finish(&mut self) -> SinkStats;
}

/// Collects every pushed row — the materializing consumer that keeps the
/// `QueryOutput`-returning entry points working on the push path.
#[derive(Debug, Default)]
pub struct CollectSink {
    rows: Vec<Row>,
    stats: SinkStats,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The rows collected so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume the sink, yielding the collected rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

impl RowSink for CollectSink {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.stats.rows += rows.len() as u64;
        self.stats.bytes += rows.iter().map(row_bytes).sum::<u64>();
        self.stats.batches += 1;
        self.rows.append(rows);
        Ok(true)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.stats.rows += n as u64;
        self.stats.batches += 1;
        Ok(true)
    }

    fn finish(&mut self) -> SinkStats {
        self.stats
    }
}

/// Counts rows without keeping any — `wants_rows` is `false`, so
/// producers that can count matches without widening them (the batch
/// kernels' count-only mode) skip payload materialization entirely.
#[derive(Debug, Default)]
pub struct CountSink {
    stats: SinkStats,
}

impl CountSink {
    /// A zeroed counter.
    pub fn new() -> CountSink {
        CountSink::default()
    }

    /// Rows counted so far.
    pub fn count(&self) -> u64 {
        self.stats.rows
    }
}

impl RowSink for CountSink {
    fn wants_rows(&self) -> bool {
        false
    }

    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.stats.rows += rows.len() as u64;
        self.stats.bytes += rows.iter().map(row_bytes).sum::<u64>();
        self.stats.batches += 1;
        rows.clear();
        Ok(true)
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.stats.rows += n as u64;
        self.stats.batches += 1;
        Ok(true)
    }

    fn finish(&mut self) -> SinkStats {
        self.stats
    }
}

/// Keeps the first `limit` rows and asks the producer to stop once full —
/// the `\set limit` consumer. Rows offered past the limit are still
/// *counted* (so a producer that materialized everything anyway reports
/// the true total) but not retained.
#[derive(Debug)]
pub struct LimitSink {
    limit: usize,
    rows: Vec<Row>,
    stats: SinkStats,
}

impl LimitSink {
    /// A sink retaining at most `limit` rows.
    pub fn new(limit: usize) -> LimitSink {
        LimitSink {
            limit,
            rows: Vec::new(),
            stats: SinkStats::default(),
        }
    }

    /// Is the sink at its limit?
    pub fn full(&self) -> bool {
        self.rows.len() >= self.limit
    }

    /// The retained rows (at most `limit`).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume the sink, yielding the retained rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

impl RowSink for LimitSink {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.stats.batches += 1;
        for row in rows.drain(..) {
            self.stats.rows += 1;
            self.stats.bytes += row_bytes(&row);
            if self.rows.len() < self.limit {
                self.rows.push(row);
            } else {
                self.stats.truncated = true;
            }
        }
        if self.full() && self.stats.rows > self.rows.len() as u64 {
            self.stats.truncated = true;
        }
        Ok(!self.full())
    }

    fn push_count(&mut self, n: usize) -> TdbResult<bool> {
        self.stats.rows += n as u64;
        self.stats.batches += 1;
        Ok(!self.full())
    }

    fn finish(&mut self) -> SinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::str("x")])
    }

    #[test]
    fn collect_sink_keeps_everything_and_counts() {
        let mut sink = CollectSink::new();
        let mut chunk = vec![row(1), row(2)];
        assert!(sink.push(&mut chunk).unwrap());
        assert!(chunk.is_empty());
        let mut chunk = vec![row(3)];
        assert!(sink.push(&mut chunk).unwrap());
        let stats = sink.finish();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.batches, 2);
        assert!(!stats.truncated);
        assert_eq!(stats.bytes, 3 * row_bytes(&row(0)));
        assert_eq!(sink.into_rows().len(), 3);
    }

    #[test]
    fn count_sink_discards_rows_but_counts_bytes() {
        let mut sink = CountSink::new();
        assert!(!sink.wants_rows());
        let mut chunk = vec![row(1), row(2)];
        assert!(sink.push(&mut chunk).unwrap());
        assert!(chunk.is_empty());
        assert!(sink.push_count(5).unwrap());
        assert_eq!(sink.count(), 7);
        let stats = sink.finish();
        assert_eq!(stats.rows, 7);
        assert_eq!(stats.bytes, 2 * row_bytes(&row(0)));
    }

    #[test]
    fn limit_sink_signals_early_termination() {
        let mut sink = LimitSink::new(3);
        let mut chunk = vec![row(1), row(2)];
        assert!(sink.push(&mut chunk).unwrap(), "still has room");
        // This chunk fills the sink: the producer is told to stop.
        let mut chunk = vec![row(3), row(4)];
        assert!(!sink.push(&mut chunk).unwrap());
        let stats = sink.finish();
        assert_eq!(sink.rows().len(), 3);
        assert_eq!(stats.rows, 4, "dropped rows are still counted");
        assert!(stats.truncated);
    }

    #[test]
    fn pair_batch_builds_the_projected_concatenation() {
        let left = vec![row(1), row(2)];
        let right = vec![Row::new(vec![Value::Null, Value::str("right")])];
        let mut batch = PairBatch {
            left: &left,
            right: &right,
            columns: &[3, 0, 1],
            pairs: vec![(1, 0), (0, 0)],
        };
        for &pair in &batch.pairs {
            let joined = left[pair.0 as usize].concat(&right[pair.1 as usize]);
            assert_eq!(batch.row(pair), joined.project(batch.columns));
            assert_eq!(batch.row_bytes(pair), row_bytes(&batch.row(pair)));
        }
        // `visit` lends the source values themselves, in column order.
        let mut seen: Vec<&Value> = Vec::new();
        batch.visit((1, 0), |v| seen.push(v));
        assert!(std::ptr::eq(seen[0], right[0].get(1)));
        assert!(std::ptr::eq(seen[1], left[1].get(0)));
        assert_eq!(seen.len(), 3);
        // The default `push_pairs` hands the built rows to `push`.
        let mut sink = CollectSink::new();
        assert!(sink.push_pairs(&mut batch).unwrap());
        assert_eq!(sink.rows(), [batch.row((1, 0)), batch.row((0, 0))]);
        assert_eq!(sink.finish().batches, 1);
    }

    #[test]
    fn limit_sink_exact_fit_is_not_truncated() {
        let mut sink = LimitSink::new(2);
        let mut chunk = vec![row(1), row(2)];
        assert!(!sink.push(&mut chunk).unwrap(), "full: stop the producer");
        let stats = sink.finish();
        assert_eq!(stats.rows, 2);
        assert!(!stats.truncated, "nothing was dropped");
    }
}
