//! Stored inputs stream into the kernels page by page, through the
//! engine.
//!
//! 1. **A limit stops the scan.** At 50 000 rows a side, a Contain-join
//!    and a During-join under `\set limit 20` read a few pages of each
//!    heap; with the limit lifted they read every row and answer the
//!    nested loop's pairs.
//! 2. **A heap that breaks its claimed order** answers a typed
//!    `OrderViolation`, in the stream's trailer when rows have already
//!    left, and never a wrong multiset.
//! 3. **Stored sides feed the kernels what collected ones do.** Every
//!    stream join and semijoin over relations that claim TS↑ — streamed
//!    as stored, or re-sorted to TE↑ — gives the output sequence, kernel
//!    reports and comparisons of the same rows collected and sorted, at
//!    every batch size, sorts nothing, reads no more rows and holds fewer
//!    rows than a side has.
//! 4. **A stored side's arena is a window.** A TS↑ Contain-join holds at
//!    most a constant times (proven cap + batch + page) rows a side, at
//!    10 000 and at 160 000 rows a side alike, and answers the nested
//!    loop's pairs.

// Only the frame decoder is needed here.
#[allow(dead_code)]
#[path = "support/wire.rs"]
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use tdb::algebra::cost::workspace_cap;
use tdb::prelude::*;
use tdb::storage::HeapFile;
use tdb::stream::PairBatch;
use tdb_engine::{interval_schema, ClientState, Engine, ErrorCode, QueryReport, Response};
use tdb_net::wire::Frame;
use tdb_net::WireSink;
use wire::{decode_frames, fold_fragments};

const ROWS: usize = 50_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdb-streamed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn query(engine: &mut Engine, ctx: &mut ClientState, text: &str) -> QueryReport {
    match engine.execute(ctx, text) {
        Response::Query(q) => q,
        other => panic!("`{text}` answered {other:?}"),
    }
}

/// `a` contains `b`, `a` ranging over `outer`.
fn contains(outer: &str, inner: &str) -> String {
    format!(
        "range of a is {outer} range of b is {inner} retrieve (P=a.Id, Q=b.Id) \
         where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo"
    )
}

/// `a` during `b`, `a` ranging over `inner`.
fn during(inner: &str, outer: &str) -> String {
    format!(
        "range of a is {inner} range of b is {outer} retrieve (P=a.Id, Q=b.Id) \
         where b.ValidFrom < a.ValidFrom and a.ValidTo < b.ValidTo"
    )
}

/// `(id, ts, te)` of every stored row of `relation`, sorted on `ts`.
fn stored(engine: &Engine, relation: &str) -> Vec<(String, i64, i64)> {
    let meta = engine.catalog().meta(relation).unwrap();
    let mut rows: Vec<_> = engine
        .catalog()
        .scan(relation)
        .unwrap()
        .iter()
        .map(|r| {
            let p = meta.schema.period_of(r).unwrap();
            (r.get(0).to_string(), p.start().ticks(), p.end().ticks())
        })
        .collect();
    rows.sort_by_key(|r| r.1);
    rows
}

/// The `(container, contained)` id pairs of the nested loop, as a
/// multiset. Each container visits only the rows that start inside it,
/// found by bisection on the TS-sorted inner side: no other can be
/// contained.
fn nested_contains(outer: &[(String, i64, i64)], inner: &[(String, i64, i64)]) -> Pairs {
    let mut pairs = Pairs::new();
    for (x, xs, xe) in outer {
        let from = inner.partition_point(|y| y.1 <= *xs);
        for (y, ys, ye) in inner[from..].iter().take_while(|y| y.1 < *xe) {
            if xs < ys && ye < xe {
                *pairs.entry((x.clone(), y.clone())).or_default() += 1;
            }
        }
    }
    pairs
}

type Pairs = BTreeMap<(String, String), usize>;

fn multiset(rows: &[Row], swap: bool) -> Pairs {
    let mut pairs = Pairs::new();
    for r in rows {
        let (p, q) = (r.get(0).to_string(), r.get(1).to_string());
        let key = if swap { (q, p) } else { (p, q) };
        *pairs.entry(key).or_default() += 1;
    }
    pairs
}

#[test]
fn a_limit_stops_the_scan_and_lifting_it_reads_every_row() {
    let dir = scratch("scale");
    let mut engine = Engine::open(&dir).unwrap();
    let mut ctx = ClientState::default();
    for (name, seed) in [("X", 1), ("Y", 2)] {
        let reply = engine.execute(
            &mut ctx,
            &format!("\\gen intervals {name} {ROWS} 3 8 {seed}"),
        );
        assert!(matches!(reply, Response::Info(_)), "{reply:?}");
    }
    let pages: u64 = ["X", "Y"]
        .iter()
        .map(|r| engine.catalog().meta(r).unwrap().pages.unwrap())
        .sum();
    let (x, y) = (stored(&engine, "X"), stored(&engine, "Y"));
    let expected = nested_contains(&x, &y);
    assert!(!expected.is_empty());
    // `X contains Y` streams X in TS↑ and re-sorts Y to TE↑; `Y during
    // X` runs the same kernel with its sides swapped.
    for (what, text, swap) in [
        ("contains", contains("X", "Y"), false),
        ("during", during("Y", "X"), true),
    ] {
        ctx.row_limit = 20;
        let limited = query(&mut engine, &mut ctx, &text);
        assert_eq!(limited.rows.rows.len(), 20, "{what}");
        assert!(
            limited.stats.rows_scanned <= 5_000,
            "{what}: {} rows scanned for 20",
            limited.stats.rows_scanned
        );
        assert!(
            limited.stats.pages_read * 20 <= pages,
            "{what}: {} of {pages} pages read for 20 rows",
            limited.stats.pages_read
        );
        assert_eq!(limited.stats.sorts_performed, 0, "{what}");

        ctx.row_limit = usize::MAX;
        let full = query(&mut engine, &mut ctx, &text);
        assert_eq!(multiset(&full.rows.rows, swap), expected, "{what}");
        assert_eq!(full.stats.rows_scanned, 2 * ROWS as u64, "{what}");
        assert_eq!(full.stats.pages_read, pages, "{what}");
        // The limited run's 20 rows are the full run's first 20.
        assert_eq!(limited.rows.rows[..], full.rows.rows[..20], "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An interval row of `interval_schema()`.
fn interval(id: &str, ts: i64, te: i64) -> Row {
    Row::new(vec![
        Value::str(id),
        Value::Int(0),
        Value::Time(TimePoint(ts)),
        Value::Time(TimePoint(te)),
    ])
}

#[test]
fn a_heap_breaking_its_claimed_order_is_an_order_violation() {
    let dir = scratch("violation");
    // X: 3 500 lifespans [i, i + 100), each containing ~98 of Y's
    // [j, j + 1): a quarter of a million pairs — past the first 4 MiB
    // chunk — before the kernel reaches X's row 3 000.
    let x: Vec<Row> = (0..3_500)
        .map(|i| interval(&format!("x{i}"), i, i + 100))
        .collect();
    let y: Vec<Row> = (0..3_500)
        .map(|j| interval(&format!("y{j}"), j, j + 1))
        .collect();
    {
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        for (name, rows) in [("X", &x), ("Y", &y)] {
            let ts = vec![StreamOrder::TS_ASC];
            cat.create_relation(name, interval_schema().unwrap(), rows, ts)
                .unwrap();
        }
        // Row 3 000 of X's heap now starts before its predecessor: the
        // manifest still claims TS↑ and the row count is unchanged.
        let mut broken = x.clone();
        broken[3_000] = interval("late", 0, 50);
        let path = dir.join(&cat.meta("X").unwrap().file);
        let mut heap = HeapFile::create(path, IoStats::new()).unwrap();
        for row in &broken {
            heap.append(row).unwrap();
        }
        heap.flush().unwrap();
    }
    let mut engine = Engine::open(&dir).unwrap();
    let mut ctx = ClientState {
        row_limit: usize::MAX,
        ..ClientState::default()
    };
    let text = contains("X", "Y");

    // Collected, the error is the reply.
    let reply = engine.execute(&mut ctx, &text);
    assert!(
        matches!(&reply, Response::Error(e) if e.code == ErrorCode::OrderViolation),
        "{reply:?}"
    );

    // Streamed, rows have left before the kernel reaches the late row:
    // the trailer carries the error.
    let mut frames = Vec::new();
    let mut sink = WireSink::new(|_, frame| frames.push(frame));
    let reply = engine.execute_into(&mut ctx, &text, &mut sink);
    sink.complete(reply);
    let frames = fold_fragments(&decode_frames(&frames));
    assert!(
        matches!(frames.first(), Some(Frame::Reply { response, .. })
            if matches!(**response, Response::QueryStream(_))),
        "the stream's header left first, after the rows sent ahead"
    );
    let chunks = frames
        .iter()
        .filter(|f| matches!(f, Frame::ReplyChunk { .. }))
        .count();
    assert!(chunks >= 1, "rows left before the violation");
    match frames.last() {
        Some(Frame::ReplyEnd { trailer, .. }) => {
            let error = trailer
                .error
                .as_ref()
                .expect("the trailer carries the error");
            assert_eq!(error.code, ErrorCode::OrderViolation, "{}", error.message);
        }
        other => panic!("the stream ends with {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run's per-operator reports, without wall-clock times.
fn untimed(trace: &[OpObservation]) -> Vec<OpObservation> {
    let mut trace = trace.to_vec();
    for o in &mut trace {
        o.elapsed_us = 0;
    }
    trace
}

#[test]
fn stored_and_collected_sides_feed_the_kernels_the_same_items() {
    let dir = scratch("kinds");
    let rows = |seed| -> Vec<Row> {
        IntervalGen::poisson(1_200, 3.0, 10.0, seed)
            .generate()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Row::new(vec![
                    t.surrogate.clone(),
                    Value::Int(i as i64),
                    Value::Time(t.ts()),
                    Value::Time(t.te()),
                ])
            })
            .collect()
    };
    let (x, y) = (rows(5), rows(6));
    let catalog = |tag: &str, orders: Vec<StreamOrder>| {
        let mut cat = Catalog::open(dir.join(tag), IoStats::new()).unwrap();
        for (name, rows) in [("X", &x), ("Y", &y)] {
            cat.create_relation(name, interval_schema().unwrap(), rows, orders.clone())
                .unwrap();
        }
        cat
    };
    let claimed = catalog("claimed", vec![StreamOrder::TS_ASC]);
    let unclaimed = catalog("unclaimed", vec![]);
    let scan = |relation: &str, var: &str| {
        Box::new(PhysicalPlan::SeqScan {
            relation: relation.into(),
            var: var.into(),
        })
    };
    let joins = [
        TemporalPattern::Contains,
        TemporalPattern::During,
        TemporalPattern::GeneralOverlap,
        TemporalPattern::AllenOverlaps,
        TemporalPattern::OverlappedBy,
    ]
    .map(|pattern| PhysicalPlan::StreamTemporal {
        left: scan("X", "x"),
        right: scan("Y", "y"),
        left_var: "x".into(),
        right_var: "y".into(),
        pattern,
        residual: vec![],
    });
    let semijoins = [
        TemporalPattern::Contains,
        TemporalPattern::During,
        TemporalPattern::GeneralOverlap,
        TemporalPattern::Before,
        TemporalPattern::After,
    ]
    .map(|pattern| PhysicalPlan::StreamSemijoin {
        left: scan("X", "x"),
        right: scan("Y", "y"),
        left_var: "x".into(),
        right_var: "y".into(),
        pattern,
    });
    // Filters over a stored side stream with it, and count as they did.
    let filtered = PhysicalPlan::StreamTemporal {
        left: Box::new(PhysicalPlan::Filter {
            input: scan("X", "x"),
            atoms: vec![Atom::col_const("x", "Seq", CompOp::Lt, Value::Int(800))],
        }),
        right: Box::new(PhysicalPlan::Filter {
            input: scan("Y", "y"),
            atoms: vec![Atom::col_const("y", "Seq", CompOp::Gt, Value::Int(100))],
        }),
        left_var: "x".into(),
        right_var: "y".into(),
        pattern: TemporalPattern::Contains,
        residual: vec![],
    };
    for plan in joins.iter().chain(&semijoins).chain([&filtered]) {
        let mut first: Option<ExecStats> = None;
        for batch in [1, 7, 1024] {
            let run = |cat: &Catalog| {
                plan.execute(cat, ExecOptions::new().with_batch_rows(batch))
                    .unwrap()
            };
            let (stored, collected) = (run(&claimed), run(&unclaimed));
            let what = format!("{plan}batch {batch}");
            assert!(!stored.rows.is_empty(), "{what}");
            assert_eq!(stored.rows, collected.rows, "{what}: output sequence");
            assert_eq!(untimed(&stored.trace), untimed(&collected.trace), "{what}");
            let (s, c) = (stored.stats, collected.stats);
            assert_eq!(
                (s.comparisons, s.max_workspace, s.output_rows),
                (c.comparisons, c.max_workspace, c.output_rows),
                "{what}"
            );
            assert_eq!(s.sorts_performed, 0, "{what}");
            assert!(s.rows_scanned <= c.rows_scanned, "{what}");
            assert!(s.arena_peak < x.len().min(y.len()), "{what}: {s:?}");
            assert_eq!(*first.get_or_insert(s), s, "{what}: stats by batch size");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `(Seq, Seq)` pair of every join match, read from the two source
/// rows without building the joined row.
#[derive(Default)]
struct SeqPairs(Vec<(i64, i64)>);

impl RowSink for SeqPairs {
    fn push(&mut self, rows: &mut Vec<Row>) -> TdbResult<bool> {
        panic!("a join offers pairs, not {} rows", rows.len())
    }

    fn push_pairs(&mut self, batch: &mut PairBatch<'_>) -> TdbResult<bool> {
        let seq = |row: &Row| row.get(1).as_int().unwrap();
        self.0.extend(
            batch
                .pairs
                .iter()
                .map(|&(l, r)| (seq(&batch.left[l as usize]), seq(&batch.right[r as usize]))),
        );
        Ok(true)
    }

    fn finish(&mut self) -> SinkStats {
        SinkStats::default()
    }
}

#[test]
fn a_stored_sides_arena_holds_a_window_not_its_input() {
    // The same constant at both sizes: the window does not grow with the
    // input.
    const C: usize = 2;
    for n in [10_000, 160_000] {
        let dir = scratch(&format!("window-{n}"));
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        let mut sides = Vec::new();
        for (name, seed) in [("X", 1), ("Y", 2)] {
            let rows: Vec<Row> = IntervalGen::poisson(n, 3.0, 8.0, seed)
                .generate()
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    Row::new(vec![
                        t.surrogate.clone(),
                        Value::Int(i as i64),
                        Value::Time(t.ts()),
                        Value::Time(t.te()),
                    ])
                })
                .collect();
            let ts = vec![StreamOrder::TS_ASC];
            cat.create_relation(name, interval_schema().unwrap(), &rows, ts)
                .unwrap();
            let side: Vec<_> = rows
                .iter()
                .map(|r| {
                    let p = |i: usize| r.get(i).as_time().unwrap().ticks();
                    (r.get(1).to_string(), p(2), p(3))
                })
                .collect();
            sides.push(side);
        }
        let (xm, ym) = (cat.meta("X").unwrap(), cat.meta("Y").unwrap());
        let cap = workspace_cap(StreamOpKind::ContainJoinTsTe, &xm.stats, Some(&ym.stats));
        let page = [xm, ym]
            .iter()
            .map(|m| m.rows.div_ceil(m.pages.unwrap() as usize))
            .max()
            .unwrap();
        let scan = |relation: &str, var: &str| {
            Box::new(PhysicalPlan::SeqScan {
                relation: relation.into(),
                var: var.into(),
            })
        };
        let join = PhysicalPlan::StreamTemporal {
            left: scan("X", "x"),
            right: scan("Y", "y"),
            left_var: "x".into(),
            right_var: "y".into(),
            pattern: TemporalPattern::Contains,
            residual: vec![],
        };
        let mut sink = SeqPairs::default();
        let stats = join
            .execute(&cat, ExecOptions::new().with_sink(&mut sink))
            .unwrap()
            .stats;
        let bound = C * (cap + DEFAULT_BATCH_ROWS + page);
        assert!(
            stats.arena_peak <= bound,
            "{n}/side: arena peak {} over {C} · ({cap} + {DEFAULT_BATCH_ROWS} + {page})",
            stats.arena_peak
        );
        assert_eq!(stats.rows_scanned, 2 * n, "{n}/side");
        let got = sink.0.iter().fold(Pairs::new(), |mut pairs, (x, y)| {
            *pairs.entry((x.to_string(), y.to_string())).or_default() += 1;
            pairs
        });
        let (mut x, mut y) = (sides[0].clone(), sides[1].clone());
        x.sort_by_key(|r| r.1);
        y.sort_by_key(|r| r.1);
        assert_eq!(got, nested_contains(&x, &y), "{n}/side");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
