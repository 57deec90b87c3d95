//! Stored inputs streamed into a kernel a page at a time.
//!
//! A [`PageStream`] pulls items from a [`PageSource`] — a heap scan, in
//! storage order — only when the kernel asks for a batch and the page in
//! hand is used up, so a kernel that stops early (a limit filled) also
//! stops the scan. The order the source claims is verified item by item
//! as its pages arrive, across page boundaries; a violation is an
//! `OrderViolation`, never a silently wrong answer.
//!
//! A kernel that needs `ValidTo ↑` from a source stored `ValidFrom ↑`
//! reads through a bounded re-sort ([`PageStream::resorted`]): a min-heap
//! keyed by (TE, read ordinal). Taking in an item that starts at `t`
//! first hands on every held item ending at or before `t` — every later
//! item ends after its own start, so after `t` — which makes the output
//! exactly the stable sort by TE. The heap is then the set of lifespans
//! open at the latest start: its size is the running concurrency of
//! [`tdb_core::StatsAccumulator`], and its peak equals the relation's
//! `max_concurrency`, a proven bound rather than a stored run.
//!
//! Batches are at most the kernel's batch size and never span a page (or
//! the items one page made ready), so which pages are read does not
//! depend on the batch size: a page is read only when the kernel needs
//! an item the pages read so far do not hold (or did not make ready).
//!
//! Just before such a read — the kernel has taken in every item the
//! stream held ready, so what it and the stream still hold is the same
//! at every batch size — the stream lets its source compact the storage
//! its items index ([`PageSource::compact`]), showing it every item
//! still held: the kernel's, the re-sort heap's and any left in hand.

use crate::batch::{BatchStream, KernelInput, RowBatch, ShowHeld, DEFAULT_BATCH_ROWS};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::VecDeque;
use tdb_core::{Period, StreamOrder, TdbError, TdbResult, Temporal, TimePoint};

/// Where a [`PageStream`] reads from: a stored input, a page at a time,
/// in storage order.
pub trait PageSource {
    /// The items a page holds.
    type Item;

    /// Append the next page's items onto `out` (a page may add none: a
    /// filter dropped every row). Returns `false`, adding nothing, once
    /// the source is exhausted.
    fn next_page(&mut self, out: &mut Vec<Self::Item>) -> TdbResult<bool>;

    /// Called by the [`PageStream`] just before it asks for the next
    /// page, when no output is pending: `held` shows a visitor every
    /// item read from this source that the stream or its kernel still
    /// holds. A source whose items index storage it fills may move what
    /// they index into fresh storage and rewrite them, periods unchanged.
    /// Nothing by default.
    fn compact(&mut self, held: &mut ShowHeld<'_, Self::Item>) {
        let _ = held;
    }
}

/// The source side of a [`PageStream`]: the page in hand and the claimed
/// order's check across pages.
struct Reader<S: PageSource> {
    source: S,
    claimed: Option<StreamOrder>,
    /// The page in hand, last item first, so batches pop from the end;
    /// one buffer, reused for every page.
    page: Vec<S::Item>,
    /// The last item read, for the order check.
    last: Option<Period>,
    /// Items read so far (the ordinal of the next).
    read: usize,
    exhausted: bool,
}

impl<S: PageSource> Reader<S>
where
    S::Item: Temporal,
{
    /// Make sure an item is in hand, reading pages as needed (each
    /// verified against the claimed order); `false` at the end.
    fn fill(&mut self) -> TdbResult<bool> {
        while self.page.is_empty() {
            if self.exhausted {
                return Ok(false);
            }
            if !self.source.next_page(&mut self.page)? {
                self.exhausted = true;
                return Ok(false);
            }
            for item in &self.page {
                let p = item.period();
                if let (Some(order), Some(last)) = (self.claimed, self.last) {
                    if order.compare(&last, &p) == Ordering::Greater {
                        return Err(TdbError::OrderViolation {
                            context: "PageStream",
                            detail: format!("stored order {order} violated at row {}", self.read),
                        });
                    }
                }
                self.last = Some(p);
                self.read += 1;
            }
            self.page.reverse();
        }
        Ok(true)
    }
}

/// An item held by the re-sort, ordered by (TE, read ordinal).
struct Held<T> {
    te: TimePoint,
    seq: u64,
    item: T,
}

impl<T> Held<T> {
    fn key(&self) -> (TimePoint, u64) {
        (self.te, self.seq)
    }
}

impl<T> PartialEq for Held<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Held<T> {}

impl<T> PartialOrd for Held<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Held<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The bounded TS↑ → TE↑ re-sort.
struct Resort<T> {
    open: BinaryHeap<Reverse<Held<T>>>,
    ready: VecDeque<T>,
    seq: u64,
    peak: usize,
}

impl<T: Temporal> Resort<T> {
    /// Take in the next item of a TS↑ source: hand on every held item
    /// that ends at or before its start, then hold it.
    fn push(&mut self, item: T) {
        let ts = item.ts();
        while let Some(top) = self.open.peek_mut() {
            if top.0.te > ts {
                break;
            }
            self.ready.push_back(PeekMut::pop(top).0.item);
        }
        let te = item.te();
        self.open.push(Reverse(Held {
            te,
            seq: self.seq,
            item,
        }));
        self.seq += 1;
        self.peak = self.peak.max(self.open.len());
    }

    /// The source is exhausted: every held item is ready, in order.
    fn close(&mut self) {
        while let Some(Reverse(held)) = self.open.pop() {
            self.ready.push_back(held.item);
        }
    }

    /// Show `f` every item held open or ready. Rewriting an item leaves
    /// its (TE, read ordinal) key, so the heap stays a heap.
    fn visit_held(&mut self, f: &mut dyn FnMut(&mut T)) {
        let mut open = std::mem::take(&mut self.open).into_vec();
        for held in &mut open {
            f(&mut held.0.item);
        }
        self.open = BinaryHeap::from(open);
        self.ready.iter_mut().for_each(f);
    }
}

/// A [`BatchStream`] over a [`PageSource`]: the source's items in its
/// claimed order, or — [`PageStream::resorted`] — re-sorted from TS↑ to
/// TE↑ through a bounded buffer. A kernel takes it as `&mut`
/// ([`KernelInput`]), so the caller can read [`PageStream::peak`] after
/// the run.
pub struct PageStream<S: PageSource> {
    reader: Reader<S>,
    resort: Option<Resort<S::Item>>,
    rows: usize,
}

impl<S: PageSource> PageStream<S>
where
    S::Item: Temporal,
{
    /// The source's items in the order it claims (`None`: no claim, and
    /// nothing checked).
    pub fn new(source: S, claimed: Option<StreamOrder>) -> PageStream<S> {
        PageStream {
            reader: Reader {
                source,
                claimed,
                page: Vec::new(),
                last: None,
                read: 0,
                exhausted: false,
            },
            resort: None,
            rows: DEFAULT_BATCH_ROWS,
        }
    }

    /// The items of a source claiming `claimed` — an order that must
    /// begin with TS↑, verified as pages arrive — handed on in TE↑: the
    /// stable sort by TE.
    pub fn resorted(source: S, claimed: StreamOrder) -> TdbResult<PageStream<S>> {
        if !claimed.satisfies(&StreamOrder::TS_ASC) {
            return Err(TdbError::Plan(format!(
                "a re-sort to {} needs a {} source, not {claimed}",
                StreamOrder::TE_ASC,
                StreamOrder::TS_ASC
            )));
        }
        let mut stream = PageStream::new(source, Some(claimed));
        stream.resort = Some(Resort {
            open: BinaryHeap::new(),
            ready: VecDeque::new(),
            seq: 0,
            peak: 0,
        });
        Ok(stream)
    }

    /// The order the stream delivers.
    fn order(&self) -> Option<StreamOrder> {
        match self.resort {
            Some(_) => Some(StreamOrder::TE_ASC),
            None => self.reader.claimed,
        }
    }

    /// The most items the re-sort held at once (0 without one).
    pub fn peak(&self) -> usize {
        self.resort.as_ref().map_or(0, |r| r.peak)
    }

    /// The source, for what reading it cost.
    pub fn source(&self) -> &S {
        &self.reader.source
    }

    /// Does the next batch read a page? Only once the kernel has taken
    /// every item the pages read so far hold (or made ready).
    fn reads_page(&self) -> bool {
        !self.reader.exhausted
            && self.reader.page.is_empty()
            && self.resort.as_ref().is_none_or(|r| r.ready.is_empty())
    }
}

/// Show `f` every item of a [`PageStream`] not handed out yet: the page
/// in hand and the re-sort's open and ready items.
fn visit_buffers<T: Temporal>(
    page: &mut [T],
    resort: &mut Option<Resort<T>>,
    f: &mut dyn FnMut(&mut T),
) {
    page.iter_mut().for_each(&mut *f);
    if let Some(resort) = resort {
        resort.visit_held(f);
    }
}

impl<S: PageSource> BatchStream for PageStream<S>
where
    S::Item: Temporal,
{
    type Item = S::Item;

    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<S::Item>>> {
        let Some(resort) = &mut self.resort else {
            if !self.reader.fill()? {
                return Ok(None);
            }
            let n = self.rows.min(self.reader.page.len());
            let page = &mut self.reader.page;
            return Ok(Some(batch(std::iter::from_fn(|| page.pop()), n)));
        };
        // Take in a page only while nothing is ready, so the source is
        // read no further than the kernel's demand.
        loop {
            if !resort.ready.is_empty() {
                let n = self.rows.min(resort.ready.len());
                return Ok(Some(batch(resort.ready.drain(..n), n)));
            }
            if self.reader.fill()? {
                while let Some(item) = self.reader.page.pop() {
                    resort.push(item);
                }
            } else if resort.open.is_empty() {
                return Ok(None);
            } else {
                resort.close();
            }
        }
    }

    fn compact(&mut self, kernel: &mut ShowHeld<'_, S::Item>) {
        if !self.reads_page() {
            return;
        }
        let (reader, resort) = (&mut self.reader, &mut self.resort);
        let page = &mut reader.page;
        reader.source.compact(&mut |f| {
            kernel(&mut *f);
            visit_buffers(page, resort, f);
        });
    }
}

/// The first `n` of `items` as one batch.
fn batch<T: Temporal>(items: impl Iterator<Item = T>, n: usize) -> RowBatch<T> {
    let mut batch = RowBatch::with_capacity(n);
    for item in items.take(n) {
        batch.push(item);
    }
    batch
}

/// A kernel reads the stream in place, in batches of its size, if the
/// stream delivers the order the kernel needs.
impl<'a, S: PageSource> KernelInput for &'a mut PageStream<S>
where
    S::Item: Temporal,
{
    type Item = S::Item;
    type Stream = &'a mut PageStream<S>;

    fn into_batches(self, order: Option<StreamOrder>, rows: usize) -> TdbResult<Self::Stream> {
        if let Some(order) = order {
            if !self.order().is_some_and(|o| o.satisfies(&order)) {
                return Err(TdbError::OrderViolation {
                    context: "PageStream",
                    detail: format!(
                        "the kernel needs {order}, the stream delivers {:?}",
                        self.order()
                    ),
                });
            }
        }
        self.rows = rows.max(1);
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_core::{TemporalStats, TsTuple};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    /// An item tagged with its position in the source.
    #[derive(Debug, Clone, PartialEq)]
    struct Tagged(TsTuple, usize);

    impl Temporal for Tagged {
        fn period(&self) -> Period {
            self.0.period
        }
    }

    /// A source over fixed pages, counting the pages it handed out.
    struct Pages {
        pages: std::vec::IntoIter<Vec<Tagged>>,
        read: usize,
    }

    impl PageSource for Pages {
        type Item = Tagged;

        fn next_page(&mut self, out: &mut Vec<Tagged>) -> TdbResult<bool> {
            let Some(page) = self.pages.next() else {
                return Ok(false);
            };
            self.read += 1;
            out.extend(page);
            Ok(true)
        }
    }

    /// `items`, tagged with their ordinals, in pages of `per_page`.
    fn pages(items: &[TsTuple], per_page: usize) -> Pages {
        let tagged: Vec<_> = items
            .iter()
            .cloned()
            .zip(0..)
            .map(|(t, i)| Tagged(t, i))
            .collect();
        let pages: Vec<Vec<_>> = tagged.chunks(per_page).map(<[_]>::to_vec).collect();
        Pages {
            pages: pages.into_iter(),
            read: 0,
        }
    }

    /// Everything a stream yields, in batches of `rows`.
    fn drain<S: PageSource>(stream: &mut PageStream<S>, rows: usize) -> TdbResult<Vec<S::Item>>
    where
        S::Item: Temporal,
    {
        let batches = stream.into_batches(None, rows)?;
        let mut out = Vec::new();
        while let Some(batch) = batches.next_batch()? {
            assert!(batch.len() <= rows.max(1));
            out.extend(batch.into_rows());
        }
        Ok(out)
    }

    /// TS-sorted intervals with many duplicate starts and ends.
    fn arb_ts_sorted(n: usize) -> impl Strategy<Value = Vec<TsTuple>> {
        proptest::collection::vec((0i64..4, 1i64..6), 0..n).prop_map(|v| {
            let mut ts = 0;
            v.into_iter()
                .map(|(gap, d)| {
                    ts += gap;
                    iv(ts, ts + d)
                })
                .collect()
        })
    }

    proptest! {
        /// The re-sort is the stable sort by TE, its peak is the input's
        /// max concurrency, and neither depends on the batch size.
        #[test]
        fn resort_is_the_stable_te_sort_with_a_concurrency_peak(
            items in arb_ts_sorted(120),
            per_page in 1usize..9,
        ) {
            let mut expected: Vec<_> = items.iter().cloned().zip(0..).map(|(t, i)| Tagged(t, i)).collect();
            expected.sort_by_key(Temporal::te);
            let concurrency = TemporalStats::compute(&items).max_concurrency;
            for rows in [1, 2, 7, 1024] {
                let mut stream =
                    PageStream::resorted(pages(&items, per_page), StreamOrder::TS_ASC).unwrap();
                prop_assert_eq!(drain(&mut stream, rows).unwrap(), expected.clone());
                prop_assert_eq!(stream.peak(), concurrency);
            }
        }
    }

    #[test]
    fn a_source_breaking_its_claimed_order_is_an_order_violation() {
        // The violation sits on the second page: caught across the page
        // boundary, with or without the re-sort.
        let items = [iv(0, 4), iv(2, 3), iv(1, 9)];
        let resorted = PageStream::resorted(pages(&items, 2), StreamOrder::TS_ASC).unwrap();
        let plain = PageStream::new(pages(&items, 2), Some(StreamOrder::TS_ASC));
        for mut stream in [resorted, plain] {
            let err = drain(&mut stream, 1024).unwrap_err();
            assert!(matches!(err, TdbError::OrderViolation { .. }), "{err}");
        }
        // No claim, no check.
        let mut unclaimed = PageStream::new(pages(&items, 2), None);
        assert_eq!(drain(&mut unclaimed, 1).unwrap().len(), 3);
    }

    #[test]
    fn pages_are_read_only_on_demand() {
        let items: Vec<_> = (0..40).map(|i| iv(i, i + 3)).collect();
        for rows in [1, 4, 1024] {
            let mut stream = PageStream::new(pages(&items, 5), Some(StreamOrder::TS_ASC));
            let batches = (&mut stream)
                .into_batches(Some(StreamOrder::TS_ASC), rows)
                .unwrap();
            let first = batches.next_batch().unwrap().unwrap();
            assert_eq!(first.len(), rows.min(5), "a batch never spans a page");
            assert_eq!(stream.reader.source.read, 1, "rows {rows}");
            // The re-sort takes in the first page, whose starts at 3 and
            // 4 close [0, 3) and [1, 4).
            let mut stream = PageStream::resorted(pages(&items, 5), StreamOrder::TS_ASC).unwrap();
            let batches = (&mut stream)
                .into_batches(Some(StreamOrder::TE_ASC), rows)
                .unwrap();
            assert_eq!(batches.next_batch().unwrap().unwrap().len(), rows.min(2));
            assert_eq!(stream.reader.source.read, 1, "rows {rows}");
        }
    }

    #[test]
    fn a_kernel_needing_another_order_is_refused() {
        let items = [iv(0, 4)];
        let mut stream = PageStream::new(pages(&items, 2), Some(StreamOrder::TS_ASC));
        assert!((&mut stream)
            .into_batches(Some(StreamOrder::TE_ASC), 8)
            .is_err());
        assert!(PageStream::resorted(pages(&items, 2), StreamOrder::TE_ASC).is_err());
    }
}
