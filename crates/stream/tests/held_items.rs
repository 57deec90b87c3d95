//! Every kernel shows a compaction every item it holds
//! (`BatchOp::visit_held`): its cursor queues, its workspace, the item
//! in hand and its undrained output.
//!
//! Each input here compacts at every feed: it starts a new generation of
//! its side and stamps it on every item the kernel and the stream still
//! hold, as a compaction rewrites every reference it moves. Run so, every
//! kernel must give the output sequence and report of a run that never
//! compacts, at every batch size, and every item it emits must carry its
//! side's latest generation. A kernel that forgot a container would emit
//! an item stamped by an older compaction.

use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use tdb_core::{Period, StreamOrder, TdbResult, Temporal, TimePoint};
use tdb_stream::{
    run_kernel, BatchOp, BatchStream, BeforeJoin, BeforeSemijoin, ContainJoinTsTe, ContainJoinTsTs,
    ContainSelfSemijoin, ContainSelfSemijoinDesc, ContainSemijoinStab, ContainedSelfSemijoin,
    ContainedSemijoinStab, Emit, KernelInput, OpReport, OverlapJoin, OverlapMode, OverlapSemijoin,
    ReadPolicy, RowBatch, ShowHeld, Side, StreamOpKind, SweepSemijoin, VecBatchStream,
};

/// An input item: its lifespan, its side and position, and the
/// generation of the last compaction of its side that saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Item {
    period: Period,
    side: Side,
    id: usize,
    generation: u32,
}

impl Temporal for Item {
    fn period(&self) -> Period {
        self.period
    }
}

/// One side's generation counter; `None` never compacts.
type Generation = Option<Rc<Cell<u32>>>;

/// A side's items, as the kernel reads them.
struct Input {
    items: Vec<Item>,
    generation: Generation,
}

impl KernelInput for Input {
    type Item = Item;
    type Stream = Stamping;

    fn into_batches(self, order: Option<StreamOrder>, rows: usize) -> TdbResult<Stamping> {
        Ok(Stamping {
            batches: VecBatchStream::new(self.items, order, rows)?,
            generation: self.generation,
        })
    }
}

/// A vector stream whose every compaction starts a generation.
struct Stamping {
    batches: VecBatchStream<Item>,
    generation: Generation,
}

impl BatchStream for Stamping {
    type Item = Item;

    fn next_batch(&mut self) -> TdbResult<Option<RowBatch<Item>>> {
        self.batches.next_batch()
    }

    fn compact(&mut self, kernel: &mut ShowHeld<'_, Item>) {
        let Some(generation) = &self.generation else {
            return;
        };
        generation.set(generation.get() + 1);
        let now = generation.get();
        let mut stamp = |item: &mut Item| item.generation = now;
        kernel(&mut stamp);
        self.batches.visit_held(&mut stamp);
    }
}

/// What a kernel emits, as the input items it carries.
trait Emitted {
    fn items(&self) -> Vec<Item>;
}

impl Emitted for Item {
    fn items(&self) -> Vec<Item> {
        vec![*self]
    }
}

impl Emitted for (Item, Item) {
    fn items(&self) -> Vec<Item> {
        vec![self.0, self.1]
    }
}

/// `(ts, duration)` specs as items of `side`, sorted into `order`
/// (`None`: as generated).
fn side(spec: &[(i64, i64)], side: Side, order: Option<StreamOrder>) -> Vec<Item> {
    let mut items: Vec<Item> = spec
        .iter()
        .enumerate()
        .map(|(id, &(ts, d))| Item {
            period: Period::new(TimePoint::new(ts), TimePoint::new(ts + d)).unwrap(),
            side,
            id,
            generation: 0,
        })
        .collect();
    if let Some(order) = order {
        order.sort(&mut items);
    }
    items
}

/// Run the kernel `make` builds over `xs` and `ys` in `rows`-row
/// batches, compacting at every feed or never: the `(side, id)` of every
/// emitted item in order, and the report. A compacted run asserts that
/// every emitted item carries its side's latest generation.
fn run<K>(
    make: &dyn Fn() -> K,
    (xs, xo): (&[Item], Option<StreamOrder>),
    (ys, yo): (&[Item], Option<StreamOrder>),
    rows: usize,
    compacting: bool,
) -> (Vec<(Side, usize)>, OpReport)
where
    K: BatchOp<LeftItem = Item, RightItem = Item>,
    K::Out: Emitted,
{
    let generation = || compacting.then(|| Rc::new(Cell::new(0)));
    let (lg, rg) = (generation(), generation());
    let (l, r) = (
        Input {
            items: xs.to_vec(),
            generation: lg.clone(),
        },
        Input {
            items: ys.to_vec(),
            generation: rg.clone(),
        },
    );
    let mut out = Vec::new();
    let mut emit = |chunk: Vec<K::Out>| -> TdbResult<bool> {
        for item in chunk.iter().flat_map(Emitted::items) {
            let latest = match item.side {
                Side::Left => &lg,
                Side::Right => &rg,
            };
            if let Some(latest) = latest {
                assert_eq!(
                    item.generation,
                    latest.get(),
                    "{item:?} was emitted unstamped by the last compaction of its side"
                );
            }
            out.push((item.side, item.id));
        }
        Ok(true)
    };
    let (_, report) = run_kernel(make(), rows, l, xo, r, yo, Emit::Chunks(&mut emit)).unwrap();
    (out, report)
}

/// At every batch size, compacting at every feed changes nothing a
/// kernel emits or reports.
fn compaction_changes_nothing<K>(
    what: &str,
    make: &dyn Fn() -> K,
    (xs, xo): (&[(i64, i64)], Option<StreamOrder>),
    (ys, yo): (&[(i64, i64)], Option<StreamOrder>),
) where
    K: BatchOp<LeftItem = Item, RightItem = Item>,
    K::Out: Emitted,
{
    let (xs, ys) = (side(xs, Side::Left, xo), side(ys, Side::Right, yo));
    for rows in [1, 2, 7, 1024] {
        let plain = run(make, (&xs, xo), (&ys, yo), rows, false);
        let compacted = run(make, (&xs, xo), (&ys, yo), rows, true);
        assert_eq!(compacted, plain, "{what}, batch {rows}");
    }
}

/// TS-sorted-or-not `(ts, duration)` specs with many shared endpoints.
fn specs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..40, 1i64..12), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_kernel_shows_a_compaction_every_item_it_holds(xs in specs(), ys in specs()) {
        const TS: Option<StreamOrder> = Some(StreamOrder::TS_ASC);
        const TE: Option<StreamOrder> = Some(StreamOrder::TE_ASC);
        let (x, y) = (xs.as_slice(), ys.as_slice());
        compaction_changes_nothing("ContainJoinTsTe", &ContainJoinTsTe::new, (x, TS), (y, TE));
        compaction_changes_nothing("ContainSemijoinStab", &ContainSemijoinStab::new, (x, TS), (y, TE));
        compaction_changes_nothing(
            "ContainedSemijoinStab",
            &ContainedSemijoinStab::new,
            (y, TS),
            (x, TE),
        );
        for policy in [ReadPolicy::MinKey, ReadPolicy::Alternate] {
            let what = format!("{policy:?}");
            compaction_changes_nothing(
                &format!("ContainJoinTsTs {what}"),
                &|| ContainJoinTsTs::new(policy),
                (x, TS),
                (y, TS),
            );
            compaction_changes_nothing(
                &format!("SweepSemijoin contain {what}"),
                &|| SweepSemijoin::contain(policy),
                (x, TS),
                (y, TS),
            );
            compaction_changes_nothing(
                &format!("SweepSemijoin contained {what}"),
                &|| SweepSemijoin::contained(policy),
                (x, TS),
                (y, TS),
            );
            for mode in [OverlapMode::General, OverlapMode::Strict] {
                compaction_changes_nothing(
                    &format!("OverlapJoin {mode:?} {what}"),
                    &|| OverlapJoin::new(mode, policy),
                    (x, TS),
                    (y, TS),
                );
                compaction_changes_nothing(
                    &format!("OverlapSemijoin {mode:?} {what}"),
                    &|| OverlapSemijoin::new(mode, policy),
                    (x, TS),
                    (y, TS),
                );
            }
        }
        // Chunks of 3 pairs: the Before-join holds a partly paired x
        // across feeds of nothing.
        compaction_changes_nothing("BeforeJoin", &|| BeforeJoin::new(3), (x, None), (y, None));
        compaction_changes_nothing("BeforeSemijoin", &BeforeSemijoin::before, (x, None), (y, None));
        compaction_changes_nothing("AfterSemijoin", &BeforeSemijoin::after, (x, None), (y, None));
        // The self semijoins never ask for their right input.
        let order = |kind: StreamOpKind| kind.requirement().left();
        compaction_changes_nothing(
            "ContainedSelfSemijoin",
            &ContainedSelfSemijoin::new,
            (x, order(StreamOpKind::ContainedSelfSemijoin)),
            (&[], None),
        );
        compaction_changes_nothing(
            "ContainSelfSemijoin",
            &ContainSelfSemijoin::new,
            (x, order(StreamOpKind::ContainSelfSemijoin)),
            (&[], None),
        );
        compaction_changes_nothing(
            "ContainSelfSemijoinDesc",
            &ContainSelfSemijoinDesc::new,
            (x, order(StreamOpKind::ContainSelfSemijoinDesc)),
            (&[], None),
        );
    }
}
