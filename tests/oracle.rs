//! One differential oracle for every temporal operator and plan.
//!
//! The paper defines each operator by an Allen predicate over lifespans
//! (§2, Figure 2), so the answer to check against is a nested loop over
//! [`AllenRelation::classify`] ([`tdb_oracle::nested_loop_join`]). One
//! generator ([`cases`]) draws the configuration space; [`check_kernels`]
//! runs every stream kernel and partitioned pattern on each case, and
//! [`check_plans`] every planner config × batch size × sink. The
//! catalog, a live engine after seal and a durable engine recovered from
//! its WAL must agree; every general-overlap join is also checked for
//! **snapshot reducibility** against `timeslice`.

#[path = "support/wire.rs"]
mod wire;

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tdb::core::allen::ALL_RELATIONS;
use tdb::prelude::*;
use tdb_engine::{interval_schema, ClientState, Engine, QueryReport, Response};
use tdb_net::WireSink;
use tdb_oracle::{nested_loop_join, timeslice};
use wire::{decode_frames, reply_chunks};

/// Cases each property runs (a plan case runs 36 plans; a source case
/// opens two engines, one durable).
const KERNEL_CASES: u32 = 48;
const PLAN_CASES: u32 = 32;
const SOURCE_CASES: u32 = 8;

/// Tuple-at-a-time, sub-default, and the default (larger than any side).
const BATCH_SIZES: [usize; 3] = [1, 64, 1024];
const PARTITIONS: [usize; 2] = [1, 4];

/// Rows a generated side holds at most, before the adversarial shapes.
const MAX_ROWS: usize = 80;

/// Size of the `Id` domain: small, so the residual and a projection onto
/// the ids both bite.
const IDS: i64 = 4;

const ATTRS: [&str; 4] = ["Id", "Seq", "ValidFrom", "ValidTo"];

// ─── the relations ──────────────────────────────────────────────────────

/// The relationship an operator or a query computes between `x` and `y`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rel {
    Allen(AllenRelation),
    /// The lifespans share a point: every relation but the four with a
    /// gap or a bare touch between them.
    GeneralOverlap,
}

/// The 13 Allen relations, then the general overlap.
fn rel(i: usize) -> Rel {
    ALL_RELATIONS
        .get(i)
        .map_or(Rel::GeneralOverlap, |&r| Rel::Allen(r))
}

type Endpoint<'a> = (&'a str, &'a str);

fn lt(l: Endpoint, r: Endpoint) -> Atom {
    Atom::cols(l.0, l.1, CompOp::Lt, r.0, r.1)
}

fn eq(l: Endpoint, r: Endpoint) -> Atom {
    Atom::cols(l.0, l.1, CompOp::Eq, r.0, r.1)
}

impl Rel {
    fn holds(self, x: &Period, y: &Period) -> bool {
        use AllenRelation::{After, Before, Meets, MetBy};
        let rel = AllenRelation::classify(x, y);
        match self {
            Rel::Allen(r) => rel == r,
            Rel::GeneralOverlap => !matches!(rel, Before | Meets | MetBy | After),
        }
    }

    /// The relation as endpoint atoms over range variables `a` and `b`,
    /// the way the Quel front end desugars its temporal operators.
    fn atoms(self) -> Vec<Atom> {
        use AllenRelation::*;
        let Rel::Allen(rel) = self else {
            return vec![
                lt(("a", "ValidFrom"), ("b", "ValidTo")),
                lt(("b", "ValidFrom"), ("a", "ValidTo")),
            ];
        };
        // An inverse relation is its base relation with a and b swapped.
        let (rel, x, y) = match rel {
            MetBy | StartedBy | FinishedBy | Contains | OverlappedBy | After => {
                (rel.inverse(), "b", "a")
            }
            _ => (rel, "a", "b"),
        };
        let (s, e) = ("ValidFrom", "ValidTo");
        let (xs, xe, ys, ye) = ((x, s), (x, e), (y, s), (y, e));
        match rel {
            Equal => vec![eq(xs, ys), eq(xe, ye)],
            Meets => vec![eq(xe, ys)],
            Starts => vec![eq(xs, ys), lt(xe, ye)],
            Finishes => vec![eq(xe, ye), lt(ys, xs)],
            During => vec![lt(ys, xs), lt(xe, ye)],
            Overlaps => vec![lt(xs, ys), lt(ys, xe), lt(xe, ye)],
            Before => vec![lt(xe, ys)],
            _ => unreachable!("an inverse relation"),
        }
    }
}

// ─── the generator ──────────────────────────────────────────────────────

/// One side as generated: `(id, start, end)` per row, in stored order.
type Side = Vec<(i64, i64, i64)>;

#[derive(Debug, Clone)]
struct Case {
    x: Side,
    /// `None`: Y is X (a self-join).
    y: Option<Side>,
    rel: Rel,
    /// Add the residual `a.Id = b.Id`.
    same_id: bool,
    /// Project onto `(a.Id, b.Id)`.
    project: bool,
    /// Store X, Y sorted and claiming TS↑ (otherwise unsorted).
    sorted: [bool; 2],
}

fn side() -> impl Strategy<Value = Side> {
    proptest::collection::vec((0..IDS, 0i64..300, 1i64..60), 0..MAX_ROWS + 1)
        .prop_map(|v| v.into_iter().map(|(id, s, d)| (id, s, s + d)).collect())
}

/// With `adversarial`, mix in a giant spanning every partition boundary,
/// a one-tick sliver at the left edge and a duplicated period.
fn shaped(mut side: Side, adversarial: bool) -> Side {
    if adversarial {
        side.extend([(0, -5, 500), (1, 0, 1)]);
        side.extend(side.first().map(|&(_, s, e)| (2, s, e)));
    }
    side
}

fn cases() -> impl Strategy<Value = Case> {
    let shapes = (side(), side(), 0u8..4);
    let query = (0..ALL_RELATIONS.len() + 1, 0u8..4, any::<bool>(), 0u8..4);
    (shapes, query).prop_map(|((x, y, shapes), (r, join, project, sorted))| {
        Case {
            x: shaped(x, shapes & 1 != 0),
            // One case in four is a self-join.
            y: (join != 0).then(|| shaped(y, shapes & 2 != 0)),
            rel: rel(r),
            same_id: join == 1 || join == 3,
            project,
            sorted: [sorted & 1 != 0, sorted & 2 != 0],
        }
    })
}

fn row(seq: usize, &(id, s, e): &(i64, i64, i64)) -> Row {
    let (id, t) = (Value::str(format!("i{id}")), |p| Value::Time(TimePoint(p)));
    Row::new(vec![id, Value::Int(seq as i64), t(s), t(e)])
}

fn period(row: &Row, at: usize) -> Period {
    let t = |i| row.get(i).as_time().unwrap();
    Period::new(t(at), t(at + 1)).unwrap()
}

/// Rows sorted on `ValidFrom` (stable), as a TS↑ relation stores them.
fn ts_sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| r.get(2).as_time().unwrap());
    rows
}

fn stored_rows(side: &Side, sorted: bool) -> Vec<Row> {
    let rows = side.iter().enumerate().map(|(i, r)| row(i, r)).collect();
    if sorted {
        ts_sorted(rows)
    } else {
        rows
    }
}

/// A side as tuples whose value is their ordinal, which makes every
/// output sequence comparable exactly.
fn tuples(side: &Side) -> Vec<TsTuple> {
    let tuple =
        |(i, &(_, s, e)): (usize, &(i64, i64, i64))| TsTuple::new(Value::Null, i as i64, s, e);
    side.iter().enumerate().map(|t| tuple(t).unwrap()).collect()
}

impl Case {
    fn x_rows(&self) -> Vec<Row> {
        stored_rows(&self.x, self.sorted[0])
    }

    fn y_rows(&self) -> Vec<Row> {
        let y = self.y.as_ref().map(|y| stored_rows(y, self.sorted[1]));
        y.unwrap_or_else(|| self.x_rows())
    }

    /// The stored relations: X, and Y unless the case is a self-join.
    fn relations(&self) -> Vec<(&'static str, Vec<Row>, bool)> {
        let mut out = vec![("X", self.x_rows(), self.sorted[0])];
        if self.y.is_some() {
            out.push(("Y", self.y_rows(), self.sorted[1]));
        }
        out
    }

    fn query(&self) -> LogicalPlan {
        let y = if self.y.is_some() { "Y" } else { "X" };
        let mut atoms = self.rel.atoms();
        if self.same_id {
            atoms.push(eq(("a", "Id"), ("b", "Id")));
        }
        let q = LogicalPlan::scan("X", "a", &ATTRS)
            .product(LogicalPlan::scan(y, "b", &ATTRS))
            .select(atoms);
        conventional_optimize(if self.project {
            let col = |v: &str, name: &str| (ColumnRef::new(v, "Id"), name.into());
            q.project(vec![col("a", "A"), col("b", "B")])
        } else {
            q
        })
    }

    /// The oracle: the nested loop over X × Y keeping the pairs the
    /// relation and the residual accept, projected like the query.
    fn expected(&self) -> Vec<String> {
        let (pairs, _) = nested_loop_join(&self.x_rows(), &self.y_rows(), |a: &Row, b: &Row| {
            self.rel.holds(&period(a, 2), &period(b, 2)) && (!self.same_id || a.get(0) == b.get(0))
        });
        let rows: Vec<Row> = pairs
            .iter()
            .map(|(a, b)| {
                if self.project {
                    Row::new(vec![a.get(0).clone(), b.get(0).clone()])
                } else {
                    a.concat(b)
                }
            })
            .collect();
        bag(&rows)
    }

    fn stream_rows(&self, catalog: &Catalog) -> Vec<Row> {
        let physical = plan(&self.query(), PlannerConfig::stream()).unwrap();
        let out = physical.execute(catalog, ExecOptions::default());
        out.unwrap().rows
    }
}

/// Rows as a multiset (a bag): their renderings, sorted.
fn bag(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(ToString::to_string).collect();
    out.sort_unstable();
    out
}

/// A fresh directory, so parallel tests never share state.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tdb-oracle-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The case's relations in a fresh catalog, removed when dropped.
struct Stored {
    catalog: Catalog,
    dir: PathBuf,
}

impl Stored {
    fn new(case: &Case) -> Stored {
        let dir = scratch("catalog");
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        for (name, rows, sorted) in case.relations() {
            let orders = [StreamOrder::TS_ASC][..usize::from(sorted)].to_vec();
            let schema = interval_schema().unwrap();
            cat.create_relation(name, schema, &rows, orders).unwrap();
        }
        Stored { catalog: cat, dir }
    }
}

impl Drop for Stored {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ─── the kernel driver ──────────────────────────────────────────────────

/// Which entry point of the dispatch runs a kind.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Join,
    Semijoin,
    SelfSemijoin,
}

/// Every configuration a kind is checked under, naming every kind so a
/// kind added without a case does not compile.
fn kernel_cases(kind: StreamOpKind) -> Vec<(Entry, OpConfig, Rel)> {
    use AllenRelation::{Before, Contains, During, Overlaps};
    use Entry::{Join, SelfSemijoin, Semijoin};
    let cfg = OpConfig::new();
    let lambda = ReadPolicy::LambdaGuided {
        lambda_x: 0.5,
        lambda_y: 0.5,
    };
    let policies = [ReadPolicy::MinKey, ReadPolicy::Alternate, lambda].map(|p| cfg.with_policy(p));
    let (contains, during) = (Rel::Allen(Contains), Rel::Allen(During));
    let contain = |entry| policies.map(|c| (entry, c, contains)).to_vec();
    // The overlap kinds read under every policy in both modes.
    let overlap = |entry| {
        let modes = [
            (OverlapMode::General, Rel::GeneralOverlap),
            (OverlapMode::Strict, Rel::Allen(Overlaps)),
        ];
        let each = |c: OpConfig| modes.map(|(mode, rel)| (entry, c.with_mode(mode), rel));
        policies.into_iter().flat_map(each).collect()
    };
    match kind {
        StreamOpKind::ContainJoinTsTs => contain(Join),
        StreamOpKind::ContainJoinTsTe => vec![(Join, cfg, contains)],
        StreamOpKind::OverlapJoin => overlap(Join),
        StreamOpKind::BeforeJoin => vec![(Join, cfg, Rel::Allen(Before))],
        StreamOpKind::SweepSemijoin => contain(Semijoin),
        StreamOpKind::ContainSemijoinStab => vec![(Semijoin, cfg, contains)],
        StreamOpKind::ContainedSemijoinStab => vec![(Semijoin, cfg, during)],
        StreamOpKind::OverlapSemijoin => overlap(Semijoin),
        StreamOpKind::BeforeSemijoin => vec![(Semijoin, cfg, Rel::Allen(Before))],
        StreamOpKind::ContainedSelfSemijoin => vec![(SelfSemijoin, cfg, during)],
        StreamOpKind::ContainSelfSemijoin | StreamOpKind::ContainSelfSemijoinDesc => {
            vec![(SelfSemijoin, cfg, contains)]
        }
    }
}

/// An output as keys: `(x, y)` ordinals for a join, `(x, -1)` for a kept
/// tuple, in output order.
type Keys = Vec<(i64, i64)>;

fn id(t: &TsTuple) -> i64 {
    t.value.as_int().unwrap()
}

fn pair_keys(pairs: &[(TsTuple, TsTuple)]) -> Keys {
    pairs.iter().map(|(x, y)| (id(x), id(y))).collect()
}

fn kept_keys(kept: &[TsTuple]) -> Keys {
    kept.iter().map(|x| (id(x), -1)).collect()
}

fn sorted_keys(mut keys: Keys) -> Keys {
    keys.sort_unstable();
    keys
}

/// Every pair of `xs × ys` that `rel` accepts, by nested loop, sorted.
fn oracle_pairs(rel: Rel, xs: &[TsTuple], ys: &[TsTuple]) -> Keys {
    let holds = |x: &TsTuple, y: &TsTuple| rel.holds(&x.period, &y.period);
    sorted_keys(pair_keys(&nested_loop_join(xs, ys, holds).0))
}

/// What `entry` outputs given the sorted pairs its relation accepts (for
/// a self semijoin, of one input with itself): the pairs, or the X tuples
/// with a partner — for a self semijoin, a partner other than itself.
fn derive(entry: Entry, pairs: &Keys) -> Keys {
    let mut kept: Keys = match entry {
        Entry::Join => return pairs.clone(),
        Entry::Semijoin => pairs.iter().map(|&(x, _)| (x, -1)).collect(),
        Entry::SelfSemijoin => pairs
            .iter()
            .filter(|(x, y)| x != y)
            .map(|&(x, _)| (x, -1))
            .collect(),
    };
    kept.dedup();
    kept
}

/// What `entry` must output for `rel` over `xs` and `ys`, by nested loop.
fn oracle_keys(entry: Entry, rel: Rel, xs: &[TsTuple], ys: &[TsTuple]) -> Keys {
    let ys = if entry == Entry::SelfSemijoin { xs } else { ys };
    derive(entry, &oracle_pairs(rel, xs, ys))
}

/// The input sorted as a kernel input must be (`None`: as it came).
fn sorted(mut v: Vec<TsTuple>, o: Option<StreamOrder>) -> Vec<TsTuple> {
    if let Some(o) = o {
        o.sort(&mut v);
    }
    v
}

/// Run one kind under one configuration through the dispatch.
fn run_kind(
    kind: StreamOpKind,
    entry: Entry,
    cfg: OpConfig,
    xs: &[TsTuple],
    ys: &[TsTuple],
) -> (Keys, Vec<OpReport>) {
    let req = kind.requirement();
    let (x, y) = (
        sorted(xs.to_vec(), req.left()),
        sorted(ys.to_vec(), req.right()),
    );
    let kept = |(out, report): (Vec<TsTuple>, OpReport)| (kept_keys(&out), vec![report]);
    match entry {
        Entry::Join => {
            let (out, report) = collect(|e| run_join(kind, cfg, x, y, e)).unwrap();
            (pair_keys(&out), vec![report])
        }
        Entry::Semijoin => kept(collect(|e| run_semijoin(kind, cfg, x, y, e)).unwrap()),
        Entry::SelfSemijoin => kept(collect(|e| run_self_semijoin(kind, cfg, x, e)).unwrap()),
    }
}

/// Run at each of `batches`: the first run's output is `expected` as a
/// multiset, and every other run repeats its output sequence and its
/// reports exactly — counters, GC discards, workspace peak and occupancy
/// (a batch-size-dependent peak would void the analyzer's caps).
fn assert_batch_invariant(
    what: &str,
    expected: &Keys,
    batches: &[usize],
    run: impl Fn(usize) -> (Keys, Vec<OpReport>),
) {
    let (base, base_reports) = run(batches[0]);
    assert_eq!(
        sorted_keys(base.clone()),
        *expected,
        "{what} vs the nested loop"
    );
    for rows in &batches[1..] {
        let (out, reports) = run(*rows);
        assert_eq!(out, base, "{what} batch {rows}: output sequence");
        assert_eq!(reports, base_reports, "{what} batch {rows}: reports");
    }
}

/// Run a partition-safe kind through the partitioned driver over inputs
/// sorted as its registry entry requires, collecting its chunks.
fn run_parallel(
    kind: StreamOpKind,
    entry: Entry,
    cfg: OpConfig,
    (xs, ys): (&[TsTuple], &[TsTuple]),
    k: usize,
) -> (Keys, ParallelPush) {
    let req = kind.requirement();
    let (x, y) = (
        sorted(xs.to_vec(), req.left()),
        sorted(ys.to_vec(), req.right()),
    );
    let mut keys = Vec::new();
    let run = match entry {
        Entry::Join => parallel_join(kind, cfg, x, y, k, &mut |chunk| {
            keys.extend(pair_keys(&chunk));
            Ok(true)
        }),
        _ => parallel_semijoin(kind, cfg, x, y, k, &mut |chunk| {
            keys.extend(kept_keys(&chunk));
            Ok(true)
        }),
    };
    (keys, run.unwrap())
}

/// The kernel driver. Every kind runs under every configuration through
/// the serial dispatch; every partition-safe join and semijoin, in each
/// overlap mode, also runs partitioned at K = 1..=8 (every batch size at
/// K ∈ {1, 4}), where
/// fringe replication over the generator's giants, slivers and
/// duplicated periods must stay exactly-once, and a semijoin re-emits its
/// declared X order.
fn check_kernels(case: &Case) {
    let xs = tuples(&case.x);
    let ys = case.y.as_ref().map_or_else(|| xs.clone(), tuples);
    for kind in StreamOpKind::ALL {
        for (entry, cfg, rel) in kernel_cases(kind) {
            let expected = oracle_keys(entry, rel, &xs, &ys);
            assert_batch_invariant(
                &format!("{kind} {rel:?}"),
                &expected,
                &BATCH_SIZES,
                |rows| run_kind(kind, entry, cfg.with_batch_rows(rows), &xs, &ys),
            );
            // Partitioned: the two-input kinds the partitioned drivers
            // accept, under the executor's read policy.
            let partitioned = kind.requirement().partition_safe
                && entry != Entry::SelfSemijoin
                && cfg.policy == OpConfig::new().policy;
            if !partitioned {
                continue;
            }
            let order = kind.requirement().left().unwrap_or(StreamOrder::TS_ASC);
            for k in 1..=8 {
                let what = format!("{kind} {rel:?} K={k}");
                let batches = &BATCH_SIZES[if PARTITIONS.contains(&k) { 0 } else { 2 }..];
                assert_batch_invariant(&what, &expected, batches, |rows| {
                    let cfg = cfg.with_batch_rows(rows);
                    let (out, run) = run_parallel(kind, entry, cfg, (&xs, &ys), k);
                    let kept: Vec<TsTuple> =
                        out.iter().map(|&(x, _)| xs[x as usize].clone()).collect();
                    let ordered = entry == Entry::Join || order.first_violation(&kept).is_none();
                    assert!(ordered, "{what}: output breaks {order}");
                    (out, [vec![run.report], run.per_partition].concat())
                });
            }
        }
    }
}

// ─── the plan driver ────────────────────────────────────────────────────

/// A run's counters and per-operator reports, without wall-clock times.
fn untimed(out: &QueryOutput) -> (ExecStats, Vec<OpObservation>) {
    let mut trace = out.trace.clone();
    for o in &mut trace {
        o.elapsed_us = 0;
    }
    (out.stats, trace)
}

/// A [`CollectSink`] that also logs the size of every push: where a
/// limit may stop the producer.
#[derive(Default)]
struct LoggedCollect {
    inner: CollectSink,
    pushes: Vec<usize>,
}

impl RowSink for LoggedCollect {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        self.pushes.push(rows.len());
        self.inner.push(rows)
    }

    fn finish(&mut self) -> SinkStats {
        self.inner.finish()
    }
}

/// Snapshot reducibility of an unprojected join result: at every point
/// t of the span, the result pairs valid at t are the pairs of
/// `timeslice_t(X)` and `timeslice_t(Y)` the residual accepts.
fn assert_snapshot_reducible(case: &Case, rows: &[Row]) {
    let wrap = |rows: Vec<Row>| {
        rows.into_iter()
            .map(|r| PeriodRow::new(r.clone(), period(&r, 2)))
    };
    let wrap = |rows| wrap(rows).collect::<Vec<_>>();
    let (x, y) = (wrap(case.x_rows()), wrap(case.y_rows()));
    let span = x.iter().chain(&y).map(|r| (r.ts().ticks(), r.te().ticks()));
    let (from, to) = span.fold((i64::MAX, i64::MIN), |(f, t), (s, e)| (f.min(s), t.max(e)));
    for t in (from..to).map(TimePoint) {
        let valid_at = |r: &&Row| period(r, 2).spans(t) && period(r, 6).spans(t);
        let valid: Vec<Row> = rows.iter().filter(valid_at).cloned().collect();
        let (sx, sy) = (timeslice(&x, t, false).0, timeslice(&y, t, false).0);
        let product: Vec<Row> = sx
            .iter()
            .flat_map(|a| sy.iter().map(move |b| (&a.row, &b.row)))
            .filter(|(a, b)| !case.same_id || a.get(0) == b.get(0))
            .map(|(a, b)| a.concat(b))
            .collect();
        assert_eq!(bag(&valid), bag(&product), "snapshot at {t}");
    }
}

/// Run `physical` into each sink; returns the collected rows and the
/// collect, count and wire runs' outputs.
fn check_sinks(
    physical: &PhysicalPlan,
    catalog: &Catalog,
    batch_rows: usize,
    expected: &[String],
    what: &str,
) -> (Vec<Row>, [QueryOutput; 3]) {
    let run = |sink: &mut dyn RowSink| {
        let opts = ExecOptions::new().with_batch_rows(batch_rows);
        physical.execute(catalog, opts.with_sink(sink)).unwrap()
    };
    let mut collect = LoggedCollect::default();
    let out = run(&mut collect);
    let stats = collect.finish();
    let rows = collect.inner.rows().to_vec();
    assert_eq!(bag(&rows), expected, "{what}: rows vs the oracle");
    let counts = (out.stats.output_rows, stats.rows as usize);
    assert_eq!(counts, (rows.len(), rows.len()), "{what}: rows offered");

    let mut count = CountSink::new();
    let counted = run(&mut count);
    assert_eq!(count.count() as usize, rows.len(), "{what}: count sink");

    let mut frames = Vec::new();
    let mut wire = WireSink::new(|_, frame| frames.push(frame));
    let wired = run(&mut wire);
    assert_eq!(wire.finish(), stats, "{what}: wire SinkStats");
    wire.complete(Response::Query(QueryReport::default()));
    let decoded = reply_chunks(&decode_frames(&frames)).concat();
    assert_eq!(decoded, rows, "{what}: wire rows");

    let limit = 1 + rows.len() / 3;
    let mut sink = LimitSink::new(limit);
    let limited = run(&mut sink);
    let (prefix, offered) = (&rows[..limit.min(rows.len())], limited.stats.output_rows);
    assert_eq!(
        sink.rows(),
        prefix,
        "{what}: limit {limit} keeps the prefix"
    );
    // The producer stops at the push that fills the limit.
    let mut sums = collect
        .pushes
        .iter()
        .scan(0, |sum, n| Some(*sum + n).inspect(|s| *sum = *s));
    let stop = sums.find(|&sum| sum >= limit).unwrap_or(rows.len());
    assert_eq!(offered, stop, "{what}: limit {limit} stops the producer");
    (rows, [out, counted, wired])
}

fn check_plans(case: &Case) {
    let stored = Stored::new(case);
    let expected = case.expected();
    let q = case.query();
    let configs = [
        ("stream", PlannerConfig::stream()),
        ("conventional", PlannerConfig::conventional()),
        ("naive", PlannerConfig::naive()),
    ];
    for (label, config) in configs {
        let mut first = None;
        for batch_rows in BATCH_SIZES {
            let physical = plan(&q, config.with_batch_rows(batch_rows)).unwrap();
            let what = format!("{label} batch {batch_rows}");
            let (rows, [out, counted, wired]) =
                check_sinks(&physical, &stored.catalog, batch_rows, &expected, &what);
            if label != "stream" {
                continue;
            }
            // One answer, one set of counters and reports, whatever the
            // sink and the batch size.
            let base = first.get_or_insert_with(|| (rows.clone(), untimed(&out)));
            assert_eq!(rows, base.0, "{what}: rows by batch size");
            for (other, by) in [(&out, "batch"), (&counted, "count"), (&wired, "wire")] {
                assert_eq!(untimed(other), base.1, "{what}: stats and trace by {by}");
            }
        }
    }
    if case.rel == Rel::GeneralOverlap {
        let unprojected = Case {
            project: false,
            ..case.clone()
        };
        assert_snapshot_reducible(case, &unprojected.stream_rows(&stored.catalog));
    }
}

/// The case's rows ingested live into an engine (durable: then dropped
/// unsealed and reopened from its WAL), sealed, and queried.
fn engine_rows(case: &Case, durable: bool) -> Vec<String> {
    let dir = scratch(if durable { "wal" } else { "live" });
    let open = || {
        let engine = if durable {
            Engine::open_durable(&dir, FlushPolicy::default())
        } else {
            Engine::open(&dir)
        };
        engine.unwrap()
    };
    let mut engine = open();
    for (name, rows, _) in case.relations() {
        engine.ingest_rows(name, ts_sorted(rows)).unwrap();
    }
    if durable {
        drop(engine);
        engine = open();
        let (replayed, stored) = (
            engine.replay_summary().map(|r| r.relations),
            case.relations(),
        );
        assert_eq!(replayed, Some(stored.len()), "every relation replays");
    }
    for (name, _, _) in case.relations() {
        let reply = engine.execute(&mut ClientState::default(), &format!("\\live close {name}"));
        assert!(matches!(reply, Response::Sealed(_)), "{reply:?}");
    }
    let rows = case.stream_rows(engine.catalog());
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    bag(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(KERNEL_CASES))]

    #[test]
    fn kernels_match_the_nested_loop_oracle(case in cases()) {
        check_kernels(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PLAN_CASES))]

    #[test]
    fn plans_match_the_nested_loop_oracle(case in cases()) {
        check_plans(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SOURCE_CASES))]

    /// The catalog, a live engine after seal and a durable engine
    /// recovered from its WAL answer with the oracle's multiset.
    #[test]
    fn catalog_live_and_recovered_sources_agree(case in cases()) {
        let expected = case.expected();
        assert_eq!(bag(&case.stream_rows(&Stored::new(&case).catalog)), expected, "catalog");
        assert_eq!(engine_rows(&case, false), expected, "live after seal");
        assert_eq!(engine_rows(&case, true), expected, "recovered from the WAL");
    }
}

/// Non-vacuity: over the cases the generator draws, each of the 13 Allen
/// relations and the general overlap matches rows somewhere, and on that
/// case the stream plan finds exactly them.
#[test]
fn every_relation_matches_rows_on_some_generated_case() {
    let mut runner = proptest::TestRunner::deterministic("oracle-non-vacuity");
    let strategy = cases();
    let generated: Vec<Case> = (0..PLAN_CASES)
        .map(|_| strategy.generate(&mut runner))
        .collect();
    for rel in (0..=ALL_RELATIONS.len()).map(rel) {
        let (case, expected) = generated
            .iter()
            .map(|c| Case { rel, ..c.clone() })
            .map(|c| (c.expected(), c))
            .find_map(|(expected, c)| (!expected.is_empty()).then_some((c, expected)))
            .unwrap_or_else(|| panic!("{rel:?} matches nothing on {PLAN_CASES} cases"));
        let rows = case.stream_rows(&Stored::new(&case).catalog);
        assert_eq!(bag(&rows), expected, "{rel:?}");
    }
}

// ─── fixed-seed regressions ─────────────────────────────────────────────

/// Every kernel but the Before pair (quadratic output) on four interval
/// workload shapes of thousands of tuples, at the default batch size,
/// against one nested loop per relation and input pair; the contained
/// self semijoin holds Table 3's single state tuple, and the contained
/// sweep semijoin (no registry kind) runs as a bare kernel.
#[test]
fn workload_shapes_at_scale_match_the_oracle() {
    let p = |n, gap, dur, seed| IntervalGen::poisson(n, gap, dur, seed);
    let pareto = DurationDist::Pareto {
        scale: 2.0,
        alpha: 1.3,
    };
    let skewed = IntervalGen {
        durations: pareto,
        ..p(1_500, 4.0, 1.0, 16)
    }
    .generate();
    let nested = |seed| tdb::gen::intervals::nested_stream(1_500, 0.7, seed);
    let dense = (p(2_000, 2.0, 30.0, 10), p(2_000, 2.0, 30.0, 11));
    let sparse = (p(2_000, 50.0, 5.0, 12), p(2_000, 50.0, 5.0, 13));
    let workloads = [
        ("dense-overlap", dense.0.generate(), dense.1.generate()),
        ("sparse", sparse.0.generate(), sparse.1.generate()),
        ("nested", nested(14), nested(15)),
        (
            "skewed-durations",
            skewed,
            p(1_500, 4.0, 10.0, 17).generate(),
        ),
    ];
    for (label, xs, ys) in workloads {
        let mut loops: Vec<((Rel, bool), Keys)> = Vec::new();
        let mut expected = |entry: Entry, rel: Rel| {
            let key = (rel, entry == Entry::SelfSemijoin);
            if !loops.iter().any(|(k, _)| *k == key) {
                loops.push((key, oracle_pairs(rel, &xs, if key.1 { &xs } else { &ys })));
            }
            derive(entry, &loops.iter().find(|(k, _)| *k == key).unwrap().1)
        };
        let quadratic = [StreamOpKind::BeforeJoin, StreamOpKind::BeforeSemijoin];
        for kind in StreamOpKind::ALL
            .into_iter()
            .filter(|k| !quadratic.contains(k))
        {
            for (entry, cfg, rel) in kernel_cases(kind) {
                let (got, reports) = run_kind(kind, entry, cfg, &xs, &ys);
                let what = format!("{label}: {kind} {rel:?}");
                assert_eq!(sorted_keys(got), expected(entry, rel), "{what}");
                let peak = reports[0].max_workspace();
                let state_a = kind != StreamOpKind::ContainedSelfSemijoin || peak <= 1;
                assert!(
                    state_a,
                    "{what}: Table 3 state (a) holds one tuple, not {peak}"
                );
            }
        }
        let ts = Some(StreamOrder::TS_ASC);
        let (x, y) = (sorted(xs.clone(), ts), sorted(ys.clone(), ts));
        let op = SweepSemijoin::contained(ReadPolicy::MinKey);
        let (kept, _) = collect(|e| run_kernel(op, 256, x, ts, y, ts, e)).unwrap();
        let during = expected(Entry::Semijoin, Rel::Allen(AllenRelation::During));
        assert_eq!(
            sorted_keys(kept_keys(&kept)),
            during,
            "{label}: contained sweep"
        );
    }
}

/// The count-only Before-join (sorted suffix arithmetic) against the
/// double loop, on 3 000 tuples a side.
#[test]
fn before_join_count_matches_pair_arithmetic() {
    let xs = IntervalGen::poisson(3_000, 5.0, 10.0, 20).generate();
    let ys = IntervalGen::poisson(3_000, 5.0, 10.0, 21).generate();
    let expected = xs
        .iter()
        .map(|x| ys.iter().filter(|y| x.period.before(&y.period)).count())
        .sum::<usize>();
    let cfg = OpConfig::new();
    let (_, report) = run_join(StreamOpKind::BeforeJoin, cfg, xs, ys, Emit::Count).unwrap();
    assert_eq!(report.metrics.emitted, expected);
}
