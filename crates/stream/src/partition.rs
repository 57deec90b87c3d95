//! Time-range partitioned parallel execution with *fringe replication*.
//!
//! The paper's stream operators are single-pass sweeps over sorted inputs.
//! Such a sweep parallelizes along the time axis: split the data span into
//! `K` disjoint, contiguous ranges ([`PartitionSpec`]), run an independent
//! instance of the serial operator over each range, and recombine. Because
//! a tuple's lifespan may cross range boundaries, each tuple is replicated
//! into **every** partition its period intersects — the *fringe* — so each
//! partition locally sees every tuple that could participate in a match
//! inside its range, and per-partition results are exact.
//!
//! Replication creates duplicates, removed deterministically:
//!
//! * **joins** — a matching pair `(x, y)` is emitted only by the *owner*
//!   partition of the intersection start `max(x.TS, y.TS)`. Both periods
//!   span that point, so both tuples are present in the owner partition,
//!   and no other partition emits the pair;
//! * **semijoins** — the left input is tagged with its ordinal in the
//!   sorted input ([`Tagged`]); partitions report witnessed ordinals, and
//!   the K sorted result lists are recombined by an order-preserving K-way
//!   merge with boundary dedup ([`merge_tagged`]), re-emitting the
//!   operator's declared output order.
//!
//! How much work does replication add? By Little's law (paper §6), the
//! expected number of lifespans spanning any time point is `λ·E[D]`, so
//! each of the `K−1` interior boundaries replicates ≈`λ·E[D]` tuples:
//! total extra work is `(K−1)·λ·E[D]` tuples — independent of `n`, and
//! negligible exactly when the paper's workspaces are small.
//!
//! The predicates that partition this way are the *intersection-witnessed*
//! ones: containment and both overlap flavors. `Before`/`After` relate
//! tuples at arbitrary temporal distance (a match shares no time point), so
//! no time-range decomposition localizes them; the planner keeps those
//! serial.

use crate::dispatch::{run_join, run_semijoin, Emit};
use crate::overlap_join::OverlapMode;
use crate::report::{OpConfig, OpReport};
use crate::required::StreamOpKind;
use crate::stream::TupleStream;
use tdb_core::{Period, StreamOrder, TdbError, TdbResult, Temporal, TimePoint};

/// `K` disjoint, contiguous time ranges covering the data span.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    ranges: Vec<Period>,
}

impl PartitionSpec {
    /// Split `span` into (at most) `k` contiguous ranges.
    pub fn for_span(span: Period, k: usize) -> PartitionSpec {
        PartitionSpec {
            ranges: span.split_into(k),
        }
    }

    /// A spec covering the hull of every lifespan in `xs` and `ys`;
    /// `None` when both are empty.
    pub fn covering<A: Temporal, B: Temporal>(
        xs: &[A],
        ys: &[B],
        k: usize,
    ) -> Option<PartitionSpec> {
        let hull = xs
            .iter()
            .map(|t| t.period())
            .chain(ys.iter().map(|t| t.period()))
            .reduce(|a, b| a.hull(&b))?;
        Some(PartitionSpec::for_span(hull, k))
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Is the spec empty? (Never true for constructed specs.)
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The `i`-th time range.
    pub fn range(&self, i: usize) -> Period {
        self.ranges[i]
    }

    /// The partition whose range contains `t` (clamped to the first/last
    /// partition for points outside the covered span).
    pub fn owner_of(&self, t: TimePoint) -> usize {
        self.ranges
            .partition_point(|r| r.end() <= t)
            .min(self.ranges.len() - 1)
    }

    /// The contiguous run of partitions whose ranges intersect `p` — the
    /// partitions a tuple with lifespan `p` is replicated into.
    pub fn partitions_for(&self, p: &Period) -> std::ops::Range<usize> {
        let first = self.owner_of(p.start());
        // `end` is exclusive; the last covered point is `end − 1`.
        let last = self.owner_of(TimePoint(p.end().ticks() - 1));
        first..last + 1
    }
}

/// Distribute sorted `items` into per-partition vectors, replicating each
/// tuple into every partition its lifespan intersects. Relative order is
/// preserved, so sorted input yields sorted partitions.
pub fn partition_with_fringe<T: Temporal + Clone>(
    items: &[T],
    spec: &PartitionSpec,
) -> Vec<Vec<T>> {
    let mut parts: Vec<Vec<T>> = (0..spec.len()).map(|_| Vec::new()).collect();
    for item in items {
        for i in spec.partitions_for(&item.period()) {
            parts[i].push(item.clone());
        }
    }
    parts
}

/// A tuple tagged with its ordinal in the (sorted) input relation, used to
/// deduplicate fringe-replicated semijoin outputs across partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged<T> {
    /// Position in the sorted input.
    pub ordinal: usize,
    /// The underlying tuple.
    pub item: T,
}

impl<T: Temporal> Temporal for Tagged<T> {
    #[inline]
    fn period(&self) -> Period {
        self.item.period()
    }
}

/// Tag each item with its position.
pub fn tag<T>(items: Vec<T>) -> Vec<Tagged<T>> {
    items
        .into_iter()
        .enumerate()
        .map(|(ordinal, item)| Tagged { ordinal, item })
        .collect()
}

/// Order-preserving K-way merge of per-partition semijoin outputs with
/// boundary dedup: each list is merged by ordinal and tuples witnessed in
/// several partitions (fringe tuples) are emitted once. Because ordinals
/// are positions in the sorted input and semijoin outputs are subsequences
/// of their input, the merged output re-emits the declared input order.
///
/// The merged, deduplicated output is handed to `emit` in chunks of at
/// most `chunk_rows` rows. Returns `(completed, emitted)` — `completed` is
/// `false` when `emit` asked the merge to stop early, `emitted` counts the
/// rows actually handed over.
pub fn merge_tagged<T: Clone>(
    mut parts: Vec<Vec<Tagged<T>>>,
    chunk_rows: usize,
    emit: &mut dyn FnMut(Vec<T>) -> TdbResult<bool>,
) -> TdbResult<(bool, usize)> {
    let chunk_rows = chunk_rows.max(1);
    // The strict overlap semijoin can reorder around its pending queue, so
    // normalize each list before the merge.
    for part in &mut parts {
        part.sort_by_key(|t| t.ordinal);
    }
    let mut cursors = vec![0usize; parts.len()];
    let mut chunk = Vec::new();
    let mut emitted = 0usize;
    let mut last: Option<usize> = None;
    loop {
        let mut best: Option<(usize, usize)> = None; // (ordinal, partition)
        for (i, part) in parts.iter().enumerate() {
            // Skip duplicates of the ordinal just emitted.
            while cursors[i] < part.len() && Some(part[cursors[i]].ordinal) == last {
                cursors[i] += 1;
            }
            if let Some(t) = part.get(cursors[i]) {
                if best.is_none_or(|(o, _)| t.ordinal < o) {
                    best = Some((t.ordinal, i));
                }
            }
        }
        let Some((ordinal, i)) = best else {
            if !chunk.is_empty() {
                emitted += chunk.len();
                if !emit(chunk)? {
                    return Ok((false, emitted));
                }
            }
            return Ok((true, emitted));
        };
        chunk.push(parts[i][cursors[i]].item.clone());
        cursors[i] += 1;
        last = Some(ordinal);
        if chunk.len() >= chunk_rows {
            emitted += chunk.len();
            if !emit(std::mem::take(&mut chunk))? {
                return Ok((false, emitted));
            }
        }
    }
}

/// An order-preserving K-way merge of streams that all satisfy `order`:
/// the output is the sorted interleaving, declared with that order. Ties
/// break toward the lower-indexed input, making the merge deterministic.
pub struct KWayMerge<S: TupleStream>
where
    S::Item: Temporal + Clone,
{
    inputs: Vec<S>,
    bufs: Vec<Option<S::Item>>,
    order: StreamOrder,
    started: bool,
}

impl<S: TupleStream> KWayMerge<S>
where
    S::Item: Temporal + Clone,
{
    /// Build the merge; every input must declare an order satisfying
    /// `order`.
    pub fn new(inputs: Vec<S>, order: StreamOrder) -> TdbResult<Self> {
        for (i, input) in inputs.iter().enumerate() {
            match input.order() {
                Some(o) if o.satisfies(&order) => {}
                other => {
                    return Err(TdbError::UnsupportedOrdering {
                        operator: "KWayMerge",
                        detail: format!(
                            "input {i} declares {:?}, merge requires {order}",
                            other.map(|o| o.to_string())
                        ),
                    })
                }
            }
        }
        let bufs = (0..inputs.len()).map(|_| None).collect();
        Ok(KWayMerge {
            inputs,
            bufs,
            order,
            started: false,
        })
    }
}

impl<S: TupleStream> TupleStream for KWayMerge<S>
where
    S::Item: Temporal + Clone,
{
    type Item = S::Item;

    fn next(&mut self) -> TdbResult<Option<S::Item>> {
        if !self.started {
            self.started = true;
            for i in 0..self.inputs.len() {
                self.bufs[i] = self.inputs[i].next()?;
            }
        }
        let mut best: Option<usize> = None;
        for (i, buf) in self.bufs.iter().enumerate() {
            let Some(item) = buf else { continue };
            // Ties break toward the lower-indexed input: replace the
            // leader only on a strictly greater key.
            let better = match best.and_then(|b| self.bufs[b].as_ref()) {
                Some(leader) => self.order.compare(leader, item) == std::cmp::Ordering::Greater,
                None => true,
            };
            if better {
                best = Some(i);
            }
        }
        let Some(i) = best else {
            return Ok(None);
        };
        let out = self.bufs[i].take();
        self.bufs[i] = self.inputs[i].next()?;
        Ok(out)
    }

    fn order(&self) -> Option<StreamOrder> {
        Some(self.order)
    }
}

/// A temporal relationship a partitioned-parallel run can evaluate: the
/// intersection-witnessed predicates. `Before`/`After` are excluded by
/// construction (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelPattern {
    /// `x` strictly contains `y`.
    Contains,
    /// `x` strictly contained in `y`.
    During,
    /// TQuel's symmetric overlap.
    GeneralOverlap,
    /// Allen's strict *overlaps*.
    AllenOverlaps,
}

impl ParallelPattern {
    /// Evaluate the predicate (for oracles and tests).
    pub fn matches(self, x: &Period, y: &Period) -> bool {
        match self {
            ParallelPattern::Contains => x.contains(y),
            ParallelPattern::During => y.contains(x),
            ParallelPattern::GeneralOverlap => x.overlaps(y),
            ParallelPattern::AllenOverlaps => x.allen_overlaps(y),
        }
    }

    /// The serial join operator each partition worker instantiates.
    /// `During` reuses the `Contains` worker with swapped sides.
    pub fn join_kind(self) -> StreamOpKind {
        match self {
            ParallelPattern::Contains | ParallelPattern::During => StreamOpKind::ContainJoinTsTe,
            ParallelPattern::GeneralOverlap | ParallelPattern::AllenOverlaps => {
                StreamOpKind::OverlapJoin
            }
        }
    }

    /// The serial semijoin operator each partition worker instantiates.
    pub fn semijoin_kind(self) -> StreamOpKind {
        match self {
            ParallelPattern::Contains => StreamOpKind::ContainSemijoinStab,
            ParallelPattern::During => StreamOpKind::ContainedSemijoinStab,
            ParallelPattern::GeneralOverlap | ParallelPattern::AllenOverlaps => {
                StreamOpKind::OverlapSemijoin
            }
        }
    }

    /// The [`OpConfig`] a partition worker runs with: `cfg` with the
    /// overlap mode this pattern implies (containment patterns pass `cfg`
    /// through, batch size and read policy included).
    pub fn worker_config(self, cfg: OpConfig) -> OpConfig {
        match self {
            ParallelPattern::GeneralOverlap => cfg.with_mode(OverlapMode::General),
            ParallelPattern::AllenOverlaps => cfg.with_mode(OverlapMode::Strict),
            ParallelPattern::Contains | ParallelPattern::During => cfg,
        }
    }

    /// The orders the partitioned driver sorts its (left, right) inputs
    /// into before dispatch — read off the worker operator's registry
    /// entry, with `During` joins accounting for their side swap.
    pub fn worker_orders(self, join: bool) -> (StreamOrder, StreamOrder) {
        let kind = if join {
            self.join_kind()
        } else {
            self.semijoin_kind()
        };
        let req = kind.requirement();
        let l = req.left().unwrap_or(StreamOrder::TS_ASC);
        let r = req.right().unwrap_or(StreamOrder::TS_ASC);
        if join && self == ParallelPattern::During {
            (r, l)
        } else {
            (l, r)
        }
    }
}

/// Outcome of a partitioned-parallel run ([`parallel_join`] /
/// [`parallel_semijoin`]): the output went to the caller's emit closure,
/// so only the run's accounting is returned.
#[derive(Debug, Clone)]
pub struct ParallelPush {
    /// `false` when the emit closure stopped the run early (sink full).
    pub completed: bool,
    /// Aggregate report: reads/comparisons/emits summed across workers,
    /// workspace peak is the max over workers.
    pub report: OpReport,
    /// Per-worker reports, indexed by partition.
    pub per_partition: Vec<OpReport>,
    /// Total tuples dispatched to workers; the excess over `|X| + |Y|` is
    /// the fringe-replication overhead.
    pub dispatched: usize,
}

impl ParallelPush {
    fn empty(k: usize) -> ParallelPush {
        ParallelPush {
            completed: true,
            report: OpReport::default(),
            per_partition: vec![OpReport::default(); k.max(1)],
            dispatched: 0,
        }
    }
}

/// A drained worker's output: emitted items plus the operator's report.
type WorkerOutput<T> = TdbResult<(Vec<T>, OpReport)>;

fn join_results<T>(
    results: Vec<WorkerOutput<T>>,
) -> TdbResult<(Vec<Vec<T>>, Vec<OpReport>, OpReport)> {
    let mut items = Vec::with_capacity(results.len());
    let mut reports = Vec::with_capacity(results.len());
    let mut total = OpReport::default();
    for r in results {
        let (part, report) = r?;
        total = total.combine_parallel(report);
        items.push(part);
        reports.push(report);
    }
    Ok((items, reports, total))
}

/// Run a temporal join partitioned over `k` time ranges.
///
/// Inputs need not be pre-sorted; each is sorted once into the order its
/// serial operator requires, partitioned with fringe replication, and the
/// per-partition outputs are owner-deduplicated: the pairs handed to
/// `emit`, one partition at a time in partition order, are exactly the
/// serial operator's (and the nested-loop oracle's) match set. A `false`
/// return from `emit` stops the run; remaining partitions' outputs are
/// dropped.
pub fn parallel_join<T>(
    pattern: ParallelPattern,
    xs: Vec<T>,
    ys: Vec<T>,
    k: usize,
    cfg: OpConfig,
    emit: &mut dyn FnMut(Vec<(T, T)>) -> TdbResult<bool>,
) -> TdbResult<ParallelPush>
where
    T: Temporal + Clone + Send,
{
    // `During` means y contains x: run Contains with sides swapped and
    // un-swap each emitted pair.
    let swap = pattern == ParallelPattern::During;
    let (pattern, xs, ys) = if swap {
        (ParallelPattern::Contains, ys, xs)
    } else {
        (pattern, xs, ys)
    };
    let Some((parts, per_partition, report, dispatched)) =
        join_partitioned(pattern, xs, ys, k, cfg)?
    else {
        return Ok(ParallelPush::empty(k));
    };
    let mut completed = true;
    for part in parts {
        if part.is_empty() {
            continue;
        }
        let part = if swap {
            part.into_iter().map(|(y, x)| (x, y)).collect()
        } else {
            part
        };
        if !emit(part)? {
            completed = false;
            break;
        }
    }
    Ok(ParallelPush {
        completed,
        report,
        per_partition,
        dispatched,
    })
}

/// The shared worker phase of the parallel joins: sort, fringe-partition,
/// run K serial workers, owner-dedup. Returns the per-partition outputs
/// (not yet concatenated) or `None` for empty inputs. `pattern` must not
/// be `During` — callers normalize via side swap.
#[allow(clippy::type_complexity)]
fn join_partitioned<T>(
    pattern: ParallelPattern,
    xs: Vec<T>,
    ys: Vec<T>,
    k: usize,
    cfg: OpConfig,
) -> TdbResult<Option<(Vec<Vec<(T, T)>>, Vec<OpReport>, OpReport, usize)>>
where
    T: Temporal + Clone + Send,
{
    debug_assert!(pattern != ParallelPattern::During);
    let Some(spec) = PartitionSpec::covering(&xs, &ys, k) else {
        return Ok(None);
    };
    let (x_order, y_order) = pattern.worker_orders(true);
    let mut xs = xs;
    let mut ys = ys;
    x_order.sort(&mut xs);
    y_order.sort(&mut ys);
    let xparts = partition_with_fringe(&xs, &spec);
    let yparts = partition_with_fringe(&ys, &spec);
    drop((xs, ys));
    let dispatched: usize = xparts.iter().chain(yparts.iter()).map(Vec::len).sum();

    let spec = &spec;
    let results: Vec<WorkerOutput<(T, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = xparts
            .into_iter()
            .zip(yparts)
            .enumerate()
            .map(|(i, (xp, yp))| {
                scope.spawn(move || -> WorkerOutput<(T, T)> {
                    // Each worker runs the serial kernel through the one
                    // dispatch entry. Owner dedup: keep a pair only in the
                    // partition that owns the intersection start.
                    let mut owned = Vec::new();
                    let (_, report) = run_join(
                        pattern.join_kind(),
                        pattern.worker_config(cfg),
                        xp,
                        x_order,
                        yp,
                        y_order,
                        Emit::Chunks(&mut |chunk| {
                            owned.extend(
                                chunk
                                    .into_iter()
                                    .filter(|(x, y)| spec.owner_of(x.ts().max_of(y.ts())) == i),
                            );
                            Ok(true)
                        }),
                    )?;
                    Ok((owned, report))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(TdbError::Eval("parallel join worker panicked".into())))
            })
            .collect()
    });
    let (items, per_partition, report) = join_results(results)?;
    Ok(Some((items, per_partition, report, dispatched)))
}

/// Run a temporal semijoin (left side kept) partitioned over `k` time
/// ranges. The K-way ordinal merge streams its output to `emit` in chunks
/// of the configured batch size: the left input's sorted order, each kept
/// tuple exactly once. A `false` return from `emit` stops the merge.
pub fn parallel_semijoin<T>(
    pattern: ParallelPattern,
    xs: Vec<T>,
    ys: Vec<T>,
    k: usize,
    cfg: OpConfig,
    emit: &mut dyn FnMut(Vec<T>) -> TdbResult<bool>,
) -> TdbResult<ParallelPush>
where
    T: Temporal + Clone + Send,
{
    let Some((parts, per_partition, mut report, dispatched)) =
        semijoin_partitioned(pattern, xs, ys, k, cfg)?
    else {
        return Ok(ParallelPush::empty(k));
    };
    let (completed, emitted) = merge_tagged(parts, cfg.batch_rows, emit)?;
    // On an early stop `emitted` is what actually reached the sink — a
    // lower bound on the full result.
    report.metrics.emitted = emitted;
    Ok(ParallelPush {
        completed,
        report,
        per_partition,
        dispatched,
    })
}

/// The shared worker phase of the parallel semijoins: sort, tag the kept
/// side, fringe-partition, run K serial workers. Returns the per-partition
/// tagged outputs (not yet merged) or `None` for empty inputs.
#[allow(clippy::type_complexity)]
fn semijoin_partitioned<T>(
    pattern: ParallelPattern,
    xs: Vec<T>,
    ys: Vec<T>,
    k: usize,
    cfg: OpConfig,
) -> TdbResult<Option<(Vec<Vec<Tagged<T>>>, Vec<OpReport>, OpReport, usize)>>
where
    T: Temporal + Clone + Send,
{
    let Some(spec) = PartitionSpec::covering(&xs, &ys, k) else {
        return Ok(None);
    };
    let (x_order, y_order) = pattern.worker_orders(false);
    let mut xs = xs;
    let mut ys = ys;
    x_order.sort(&mut xs);
    y_order.sort(&mut ys);
    let xparts = partition_with_fringe(&tag(xs), &spec);
    let yparts = partition_with_fringe(&ys, &spec);
    drop(ys);
    let dispatched: usize =
        xparts.iter().map(Vec::len).sum::<usize>() + yparts.iter().map(Vec::len).sum::<usize>();

    let results: Vec<WorkerOutput<Tagged<T>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = xparts
            .into_iter()
            .zip(yparts)
            .map(|(xp, yp)| {
                scope.spawn(move || -> WorkerOutput<Tagged<T>> {
                    let mut kept = Vec::new();
                    let (_, report) = run_semijoin(
                        pattern.semijoin_kind(),
                        pattern.worker_config(cfg),
                        xp,
                        x_order,
                        yp,
                        y_order,
                        Emit::Chunks(&mut |mut chunk| {
                            kept.append(&mut chunk);
                            Ok(true)
                        }),
                    )?;
                    Ok((kept, report))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(TdbError::Eval("parallel semijoin worker panicked".into()))
                })
            })
            .collect()
    });
    let (parts, per_partition, report) = join_results(results)?;
    Ok(Some((parts, per_partition, report, dispatched)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::from_sorted_vec;
    use std::collections::BTreeSet;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
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

    fn canon(mut v: Vec<TsTuple>) -> Vec<TsTuple> {
        v.sort_by_key(|t| (t.ts().ticks(), t.te().ticks()));
        v
    }

    fn join_oracle(
        xs: &[TsTuple],
        ys: &[TsTuple],
        pattern: ParallelPattern,
    ) -> Vec<(TsTuple, TsTuple)> {
        let mut out = Vec::new();
        for x in xs {
            for y in ys {
                if pattern.matches(&x.period, &y.period) {
                    out.push((x.clone(), y.clone()));
                }
            }
        }
        canon_pairs(out)
    }

    fn semi_oracle(xs: &[TsTuple], ys: &[TsTuple], pattern: ParallelPattern) -> Vec<TsTuple> {
        canon(
            xs.iter()
                .filter(|x| ys.iter().any(|y| pattern.matches(&x.period, &y.period)))
                .cloned()
                .collect(),
        )
    }

    #[test]
    fn spec_owner_and_replication_ranges() {
        let spec = PartitionSpec::for_span(Period::new(0, 100).unwrap(), 4);
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.owner_of(TimePoint(0)), 0);
        assert_eq!(spec.owner_of(TimePoint(25)), 1);
        assert_eq!(spec.owner_of(TimePoint(99)), 3);
        // Clamping outside the span.
        assert_eq!(spec.owner_of(TimePoint(-5)), 0);
        assert_eq!(spec.owner_of(TimePoint(400)), 3);
        // A boundary-spanning tuple goes to every intersected partition.
        assert_eq!(spec.partitions_for(&Period::new(20, 60).unwrap()), 0..3);
        assert_eq!(spec.partitions_for(&Period::new(25, 50).unwrap()), 1..2);
        // `end` is exclusive: [25, 50) does not reach partition 2.
        assert_eq!(spec.partitions_for(&Period::new(49, 50).unwrap()), 1..2);
    }

    #[test]
    fn fringe_replication_covers_every_intersected_partition() {
        let spec = PartitionSpec::for_span(Period::new(0, 40).unwrap(), 4);
        let items = vec![iv(0, 40), iv(5, 6), iv(9, 11), iv(35, 40)];
        let parts = partition_with_fringe(&items, &spec);
        assert_eq!(parts[0], vec![iv(0, 40), iv(5, 6), iv(9, 11)]);
        assert_eq!(parts[1], vec![iv(0, 40), iv(9, 11)]);
        assert_eq!(parts[2], vec![iv(0, 40)]);
        assert_eq!(parts[3], vec![iv(0, 40), iv(35, 40)]);
    }

    #[test]
    fn kway_merge_restores_global_order() {
        let a = from_sorted_vec(vec![iv(0, 5), iv(6, 9)], StreamOrder::TS_ASC).unwrap();
        let b = from_sorted_vec(vec![iv(1, 2), iv(6, 7)], StreamOrder::TS_ASC).unwrap();
        let mut m = KWayMerge::new(vec![a, b], StreamOrder::TS_ASC).unwrap();
        assert_eq!(m.order(), Some(StreamOrder::TS_ASC));
        let out = m.collect_vec().unwrap();
        assert_eq!(out, vec![iv(0, 5), iv(1, 2), iv(6, 9), iv(6, 7)]);
        // Unordered inputs are rejected.
        let c = crate::stream::from_vec(vec![iv(0, 1)]);
        assert!(KWayMerge::new(vec![c], StreamOrder::TS_ASC).is_err());
    }

    /// Collect a parallel join's output; the caller's vector is the only
    /// materialization.
    fn join_all(
        pattern: ParallelPattern,
        xs: &[TsTuple],
        ys: &[TsTuple],
        k: usize,
    ) -> (Vec<(TsTuple, TsTuple)>, ParallelPush) {
        let mut out = Vec::new();
        let run = parallel_join(
            pattern,
            xs.to_vec(),
            ys.to_vec(),
            k,
            OpConfig::new(),
            &mut |chunk| {
                out.extend(chunk);
                Ok(true)
            },
        )
        .unwrap();
        assert!(run.completed);
        (out, run)
    }

    fn semijoin_all(
        pattern: ParallelPattern,
        xs: &[TsTuple],
        ys: &[TsTuple],
        k: usize,
    ) -> (Vec<TsTuple>, ParallelPush) {
        let mut out = Vec::new();
        let run = parallel_semijoin(
            pattern,
            xs.to_vec(),
            ys.to_vec(),
            k,
            OpConfig::new(),
            &mut |chunk| {
                out.extend(chunk);
                Ok(true)
            },
        )
        .unwrap();
        assert!(run.completed);
        (out, run)
    }

    #[test]
    fn merge_tagged_dedups_fringe_duplicates() {
        let t = |ordinal, s, e| Tagged {
            ordinal,
            item: iv(s, e),
        };
        let mut merged = Vec::new();
        let parts = vec![vec![t(0, 0, 9), t(2, 3, 4)], vec![t(0, 0, 9), t(5, 8, 9)]];
        let done = merge_tagged(parts, 2, &mut |chunk| {
            assert!(chunk.len() <= 2);
            merged.extend(chunk);
            Ok(true)
        })
        .unwrap();
        assert_eq!(done, (true, 3));
        assert_eq!(merged, vec![iv(0, 9), iv(3, 4), iv(8, 9)]);
        let done = merge_tagged::<TsTuple>(vec![vec![], vec![]], 8, &mut |_| Ok(false)).unwrap();
        assert_eq!(done, (true, 0));
    }

    #[test]
    fn merge_tagged_stops_when_the_consumer_declines() {
        let parts = vec![(0..10)
            .map(|i| Tagged {
                ordinal: i,
                item: iv(i as i64, i as i64 + 1),
            })
            .collect()];
        let mut chunks = 0usize;
        let done = merge_tagged(parts, 4, &mut |_| {
            chunks += 1;
            Ok(false)
        })
        .unwrap();
        assert_eq!(done, (false, 4), "stopped after the first chunk");
        assert_eq!(chunks, 1);
    }

    #[test]
    fn parallel_contain_join_handles_boundary_spanning_tuples() {
        // A giant container crossing every boundary plus containees in
        // each partition — the adversarial fringe case.
        let xs = vec![iv(0, 100), iv(10, 30), iv(60, 90)];
        let ys = vec![iv(5, 6), iv(24, 26), iv(25, 75), iv(70, 80), iv(99, 100)];
        for k in 1..=8 {
            let (pairs, run) = join_all(ParallelPattern::Contains, &xs, &ys, k);
            assert_eq!(
                canon_pairs(pairs),
                join_oracle(&xs, &ys, ParallelPattern::Contains),
                "k={k}"
            );
            assert_eq!(run.per_partition.len(), k.min(100));
        }
    }

    #[test]
    fn parallel_run_aggregates_reports() {
        let xs: Vec<_> = (0..50).map(|i| iv(i * 2, i * 2 + 5)).collect();
        let ys: Vec<_> = (0..50).map(|i| iv(i * 2 + 1, i * 2 + 2)).collect();
        let (pairs, run) = join_all(ParallelPattern::Contains, &xs, &ys, 4);
        let (serial_pairs, serial) = join_all(ParallelPattern::Contains, &xs, &ys, 1);
        assert_eq!(canon_pairs(pairs), canon_pairs(serial_pairs));
        // Fringe replication dispatches at least the raw inputs.
        assert!(run.dispatched >= 100, "dispatched {}", run.dispatched);
        // Partitioned workspaces are no larger than the serial peak.
        assert!(run.report.max_workspace() <= serial.report.max_workspace() + 1);
        let summed: usize = run
            .per_partition
            .iter()
            .map(|r| r.metrics.read_total())
            .sum();
        assert_eq!(summed, run.report.metrics.read_total());
    }

    #[test]
    fn parallel_semijoin_keeps_sorted_order_without_duplicates() {
        let xs = vec![iv(0, 100), iv(3, 4), iv(20, 22), iv(50, 80), iv(97, 99)];
        let ys = vec![iv(1, 2), iv(21, 60), iv(98, 99)];
        for pattern in [
            ParallelPattern::Contains,
            ParallelPattern::During,
            ParallelPattern::GeneralOverlap,
            ParallelPattern::AllenOverlaps,
        ] {
            for k in 1..=6 {
                let (kept, run) = semijoin_all(pattern, &xs, &ys, k);
                assert_eq!(
                    canon(kept.clone()),
                    semi_oracle(&xs, &ys, pattern),
                    "{pattern:?} k={k}"
                );
                // Exactly-once: no fringe duplicates survive the merge.
                let mut seen = BTreeSet::new();
                for t in &kept {
                    assert!(seen.insert((t.ts().ticks(), t.te().ticks(), t.value.clone())));
                }
                assert_eq!(run.report.metrics.emitted, kept.len());
            }
        }
    }

    #[test]
    fn parallel_joins_match_the_oracle_for_every_pattern() {
        let xs = vec![iv(0, 100), iv(3, 4), iv(10, 30), iv(50, 80), iv(97, 99)];
        let ys = vec![iv(1, 2), iv(21, 60), iv(24, 26), iv(70, 80), iv(98, 99)];
        for pattern in [
            ParallelPattern::Contains,
            ParallelPattern::During,
            ParallelPattern::GeneralOverlap,
            ParallelPattern::AllenOverlaps,
        ] {
            let (_, serial) = join_all(pattern, &xs, &ys, 1);
            for k in [1usize, 4] {
                let (pairs, run) = join_all(pattern, &xs, &ys, k);
                assert_eq!(
                    canon_pairs(pairs),
                    join_oracle(&xs, &ys, pattern),
                    "{pattern:?} k={k}"
                );
                assert_eq!(run.per_partition.len(), k);
                assert!(run.dispatched >= serial.dispatched, "{pattern:?} k={k}");
            }
        }
    }

    #[test]
    fn parallel_join_stops_early() {
        let xs: Vec<_> = (0..200).map(|i| iv(i, i + 10)).collect();
        let ys: Vec<_> = (0..200).map(|i| iv(i + 1, i + 2)).collect();
        let (full, _) = join_all(ParallelPattern::Contains, &xs, &ys, 4);
        let mut seen = 0usize;
        let push = parallel_join(
            ParallelPattern::Contains,
            xs,
            ys,
            4,
            OpConfig::new(),
            &mut |chunk| {
                seen += chunk.len();
                Ok(false)
            },
        )
        .unwrap();
        assert!(!push.completed);
        assert!(seen < full.len(), "stopped after {seen}");
    }

    #[test]
    fn empty_inputs_yield_empty_runs() {
        let (pairs, run) = join_all(ParallelPattern::GeneralOverlap, &[], &[], 4);
        assert!(pairs.is_empty());
        assert_eq!(run.dispatched, 0);
        let (kept, _) = semijoin_all(ParallelPattern::During, &[], &[], 4);
        assert!(kept.is_empty());
    }
}
