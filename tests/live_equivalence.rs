//! Randomized equivalence of live incremental evaluation and batch
//! re-execution.
//!
//! Random sorted arrival streams for two relations are ingested through
//! [`LiveEngine`] in random-sized chunks. After every epoch — and finally
//! after sealing both streams — the union of the deltas each standing
//! query has emitted must equal, as a multiset, the batch execution of the
//! same logical plan over the *watermark-closed prefix* of the arrivals,
//! computed independently of the engine (all arrivals with sort key
//! strictly below the maximum key seen). Covered: containment, during,
//! general-overlap and Allen-overlaps joins and the containment semijoin,
//! which keep their held tuples between epochs, plus a Before semijoin,
//! which re-evaluates; subscribing before any data and after rows were
//! promoted;
//! both relations live, or a live `X` against a static `Y`. A steady
//! stream checks that the held state stays bounded, and epochs the live
//! verifier rejects after promotion must lose no rows. A Contain-join
//! over two Poisson streams keeps its runtime workspace peak under both
//! its live cap and the cap the final catalog statistics prove.

#[path = "support/live.rs"]
mod live;

use live::{batch_catalog, closed_prefix, interval_schema, multiset, ts_of};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use tdb::algebra::cost::workspace_cap;
use tdb::live::{LiveConfig, LiveEngine, SubscriptionMode};
use tdb::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

const ATTRS: [&str; 4] = ["Id", "Seq", "ValidFrom", "ValidTo"];

/// Turn `(gap, dur)` pairs into TS-ascending interval rows with unique
/// surrogates, so multiset comparison is exact.
fn rows(prefix: &str, raw: &[(i64, i64)]) -> Vec<Row> {
    let mut ts = 0i64;
    raw.iter()
        .enumerate()
        .map(|(i, &(gap, dur))| {
            ts += gap;
            Row::new(vec![
                Value::str(format!("{prefix}{i}")),
                Value::Int(i as i64),
                Value::Time(TimePoint(ts)),
                Value::Time(TimePoint(ts + dur)),
            ])
        })
        .collect()
}

fn contains() -> Vec<Atom> {
    vec![
        Atom::cols("x", "ValidFrom", CompOp::Lt, "y", "ValidFrom"),
        Atom::cols("y", "ValidTo", CompOp::Lt, "x", "ValidTo"),
    ]
}

/// The standing-query shapes under test, with the mode each must run in.
fn plans() -> Vec<(&'static str, LogicalPlan, SubscriptionMode)> {
    let x = || LogicalPlan::scan("X", "x", &ATTRS);
    let y = || LogicalPlan::scan("Y", "y", &ATTRS);
    let overlap = vec![
        Atom::cols("x", "ValidFrom", CompOp::Lt, "y", "ValidTo"),
        Atom::cols("y", "ValidFrom", CompOp::Lt, "x", "ValidTo"),
    ];
    let during = vec![
        Atom::cols("y", "ValidFrom", CompOp::Lt, "x", "ValidFrom"),
        Atom::cols("x", "ValidTo", CompOp::Lt, "y", "ValidTo"),
    ];
    let allen_overlaps = vec![
        Atom::cols("x", "ValidFrom", CompOp::Lt, "y", "ValidFrom"),
        Atom::cols("y", "ValidFrom", CompOp::Lt, "x", "ValidTo"),
        Atom::cols("x", "ValidTo", CompOp::Lt, "y", "ValidTo"),
    ];
    // Before has no kernel to resume: this one re-plans and re-runs
    // every epoch.
    let before = vec![Atom::cols("x", "ValidTo", CompOp::Lt, "y", "ValidFrom")];
    let held = SubscriptionMode::Held;
    vec![
        ("contain-join", x().join(y(), contains()), held),
        ("during-join", x().join(y(), during), held),
        ("overlap-join", x().join(y(), overlap), held),
        ("allen-overlaps-join", x().join(y(), allen_overlaps), held),
        ("contain-semijoin", x().semijoin(y(), contains()), held),
        (
            "before-semijoin",
            x().semijoin(y(), before),
            SubscriptionMode::Reevaluated,
        ),
    ]
}

/// How a case feeds the engine.
#[derive(Debug, Clone, Copy, Default)]
struct Case {
    /// Ingest rounds (one `X` and one `Y` chunk each) before subscribing.
    subscribe_after: usize,
    /// `Y` is a stored relation, never live: all of it is there from the
    /// start and only `X` streams.
    static_y: bool,
}

/// Batch-execute `logical` over a fresh catalog holding exactly the given
/// closed prefixes, with the same planner configuration the engine uses.
fn batch(
    dir: &std::path::Path,
    config: PlannerConfig,
    logical: &LogicalPlan,
    x_rows: &[Row],
    y_rows: &[Row],
) -> BTreeMap<Vec<u8>, usize> {
    let cat = batch_catalog(dir, x_rows, y_rows);
    let physical = plan(logical, config).unwrap();
    multiset(&physical.execute(&cat, ExecOptions::default()).unwrap().rows)
}

fn run_case(raw_x: &[(i64, i64)], raw_y: &[(i64, i64)], chunk: usize, case: Case) {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("tdb-live-equiv-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let config = PlannerConfig::stream();
    let x_rows = rows("x", raw_x);
    let y_rows = rows("y", raw_y);
    let mut catalog = Catalog::open(root.join("cat"), IoStats::new()).unwrap();
    let mut engine = LiveEngine::new(LiveConfig::default());
    engine
        .register(&mut catalog, "X", interval_schema(), StreamOrder::TS_ASC)
        .unwrap();
    if case.static_y {
        let mut sorted_y = y_rows.clone();
        sorted_y.sort_by_key(ts_of);
        catalog
            .create_relation("Y", interval_schema(), &sorted_y, vec![StreamOrder::TS_ASC])
            .unwrap();
    } else {
        engine
            .register(&mut catalog, "Y", interval_schema(), StreamOrder::TS_ASC)
            .unwrap();
    }

    let named = plans();
    let mut emitted: Vec<BTreeMap<Vec<u8>, usize>> = vec![BTreeMap::new(); named.len()];
    let mut arrived_x: Vec<Row> = Vec::new();
    let mut arrived_y: Vec<Row> = if case.static_y {
        y_rows.clone()
    } else {
        Vec::new()
    };

    let absorb = |emitted: &mut Vec<BTreeMap<Vec<u8>, usize>>, deltas: &[tdb::live::Delta]| {
        for delta in deltas {
            let bucket = &mut emitted[delta.subscription];
            for (key, n) in multiset(&delta.rows) {
                *bucket.entry(key).or_insert(0) += n;
            }
        }
    };

    // Interleave chunks: X then Y, `chunk` arrivals at a time, checking
    // the equivalence after every epoch once subscribed.
    let mut ix = 0;
    let mut iy = 0;
    let mut sealed = false;
    let mut subscribed = false;
    for round in 0.. {
        if round == case.subscribe_after {
            for (label, logical, mode) in &named {
                let (_analysis, delta) = engine
                    .subscribe(&catalog, *label, logical.clone(), config)
                    .unwrap();
                let sub = &engine.subscriptions()[delta.subscription];
                assert_eq!(sub.mode(), *mode, "{label}");
                absorb(&mut emitted, &[delta]);
            }
            subscribed = true;
        }
        let mut progressed = false;
        if ix < x_rows.len() {
            let batch_rows: Vec<Row> = x_rows[ix..(ix + chunk).min(x_rows.len())].to_vec();
            ix += batch_rows.len();
            arrived_x.extend(batch_rows.iter().cloned());
            let report = engine.ingest(&mut catalog, "X", batch_rows).unwrap();
            absorb(&mut emitted, &report.deltas);
            progressed = true;
        }
        if !case.static_y && iy < y_rows.len() {
            let batch_rows: Vec<Row> = y_rows[iy..(iy + chunk).min(y_rows.len())].to_vec();
            iy += batch_rows.len();
            arrived_y.extend(batch_rows.iter().cloned());
            let report = engine.ingest(&mut catalog, "Y", batch_rows).unwrap();
            absorb(&mut emitted, &report.deltas);
            progressed = true;
        }
        if !progressed {
            if sealed {
                break;
            }
            let live: &[&str] = if case.static_y { &["X"] } else { &["X", "Y"] };
            for name in live {
                let report = engine.seal(&mut catalog, name).unwrap();
                absorb(&mut emitted, &report.deltas);
            }
            sealed = true;
        }
        if !subscribed {
            continue;
        }
        // Equivalence at this epoch: emitted-so-far == batch over the
        // closed prefixes.
        let px = closed_prefix(&arrived_x, sealed);
        let py = closed_prefix(&arrived_y, sealed || case.static_y);
        for (s, (label, logical, _)) in named.iter().enumerate() {
            let expect = batch(&root.join("batch"), config, logical, &px, &py);
            assert_eq!(
                emitted[s],
                expect,
                "{label} ({case:?}): live deltas diverge from batch over closed prefix \
                 ({} X rows, {} Y rows, sealed={sealed})",
                px.len(),
                py.len()
            );
        }
    }

    // Final sanity: every subscription's runtime workspace stayed within
    // its statically proven cap, and its counter matches what it pushed.
    for (s, sub) in engine.subscriptions().iter().enumerate() {
        let (peak, cap) = sub.workspace_watermark();
        assert!(
            peak <= cap,
            "{}: runtime workspace {peak} exceeded proven cap {cap}",
            sub.label()
        );
        assert_eq!(sub.emitted_count(), emitted[s].values().sum::<usize>());
    }
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn live_deltas_match_batch_over_every_closed_prefix(
        raw_x in proptest::collection::vec((0i64..6, 1i64..40), 1..20),
        raw_y in proptest::collection::vec((0i64..6, 1i64..40), 1..20),
        chunk in 1usize..6,
        subscribe_after in 0usize..3,
    ) {
        run_case(&raw_x, &raw_y, chunk, Case::default());
        run_case(&raw_x, &raw_y, chunk, Case { subscribe_after, static_y: false });
        run_case(&raw_x, &raw_y, chunk, Case { subscribe_after, static_y: true });
    }
}

#[test]
fn duplicate_result_rows_are_emitted_with_multiplicity() {
    // Two identical Y intervals inside one X interval: the contain join
    // must emit the duplicate pair twice across the stream's lifetime.
    run_case(&[(0, 30)], &[(2, 5), (0, 5)], 1, Case::default());
}

#[test]
fn a_steady_stream_holds_a_bounded_state() {
    let root = std::env::temp_dir().join(format!("tdb-live-held-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut catalog = Catalog::open(root.join("cat"), IoStats::new()).unwrap();
    let mut engine = LiveEngine::new(LiveConfig::default());
    for name in ["X", "Y"] {
        engine
            .register(&mut catalog, name, interval_schema(), StreamOrder::TS_ASC)
            .unwrap();
    }
    let x = || LogicalPlan::scan("X", "x", &ATTRS);
    let y = || LogicalPlan::scan("Y", "y", &ATTRS);
    for (label, logical) in [
        ("join", x().join(y(), contains())),
        ("semijoin", x().semijoin(y(), contains())),
    ] {
        engine
            .subscribe(&catalog, label, logical, PlannerConfig::stream())
            .unwrap();
    }
    // Every frame is the same shape shifted in time: ten arrivals per
    // side, three ticks apart, durations cycling with period five.
    let frame = |side: &str, f: i64| -> Vec<Row> {
        (0..10)
            .map(|i| {
                let n = f * 10 + i;
                let ts = n * 3 + i64::from(side == "Y");
                let dur = if side == "X" {
                    20 + n % 5 * 4
                } else {
                    2 + n % 5
                };
                Row::new(vec![
                    Value::str(format!("{side}{n}")),
                    Value::Int(n),
                    Value::Time(TimePoint(ts)),
                    Value::Time(TimePoint(ts + dur)),
                ])
            })
            .collect()
    };
    let mut held_at = BTreeMap::new();
    for f in 0..400 {
        for side in ["X", "Y"] {
            engine.ingest(&mut catalog, side, frame(side, f)).unwrap();
        }
        if f + 1 == 40 || f + 1 == 400 {
            let held: Vec<usize> = engine
                .subscriptions()
                .iter()
                .map(|s| s.held_tuples().unwrap())
                .collect();
            held_at.insert(f + 1, held);
        }
    }
    let (early, late) = (&held_at[&40], &held_at[&400]);
    for (i, (e, l)) in early.iter().zip(late).enumerate() {
        assert!(
            l <= e,
            "subscription {i}: {l} held after 400 frames, {e} after 40"
        );
    }
    assert!(early.iter().sum::<usize>() > 0, "the open tuples are held");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_static_side_that_goes_live_switches_to_reevaluation() {
    let root = std::env::temp_dir().join(format!("tdb-live-golive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut catalog = Catalog::open(root.join("cat"), IoStats::new()).unwrap();
    let mut engine = LiveEngine::new(LiveConfig::default());
    engine
        .register(&mut catalog, "X", interval_schema(), StreamOrder::TS_ASC)
        .unwrap();
    let xs = rows("x", &[(0, 40), (2, 9), (3, 30), (4, 4), (5, 60), (9, 3)]);
    let ys = rows("y", &[(1, 2), (3, 5), (4, 3), (6, 2), (3, 1), (7, 4)]);
    let (stored_y, later_y) = ys.split_at(3);
    catalog
        .create_relation("Y", interval_schema(), stored_y, vec![StreamOrder::TS_ASC])
        .unwrap();
    let (_, delta) = engine
        .subscribe(
            &catalog,
            "contain-join",
            LogicalPlan::scan("X", "x", &ATTRS)
                .join(LogicalPlan::scan("Y", "y", &ATTRS), contains()),
            PlannerConfig::stream(),
        )
        .unwrap();
    let mut emitted = multiset(&delta.rows);
    let mut absorb = |deltas: &[tdb::live::Delta]| {
        for d in deltas {
            for (key, n) in multiset(&d.rows) {
                *emitted.entry(key).or_insert(0) += n;
            }
        }
    };
    absorb(
        &engine
            .ingest(&mut catalog, "X", xs[..3].to_vec())
            .unwrap()
            .deltas,
    );
    assert_eq!(engine.subscriptions()[0].mode(), SubscriptionMode::Held);

    // Y starts streaming: rows it never promoted before can now arrive.
    engine
        .register(&mut catalog, "Y", interval_schema(), StreamOrder::TS_ASC)
        .unwrap();
    assert_eq!(
        engine.subscriptions()[0].mode(),
        SubscriptionMode::Reevaluated
    );
    absorb(
        &engine
            .ingest(&mut catalog, "Y", later_y.to_vec())
            .unwrap()
            .deltas,
    );
    absorb(
        &engine
            .ingest(&mut catalog, "X", xs[3..].to_vec())
            .unwrap()
            .deltas,
    );
    for name in ["X", "Y"] {
        absorb(&engine.seal(&mut catalog, name).unwrap().deltas);
    }
    let logical =
        LogicalPlan::scan("X", "x", &ATTRS).join(LogicalPlan::scan("Y", "y", &ATTRS), contains());
    let expect = batch(
        &root.join("batch"),
        PlannerConfig::stream(),
        &logical,
        &xs,
        &ys,
    );
    assert!(!expect.is_empty());
    assert_eq!(emitted, expect);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_rejected_epoch_loses_no_rows() {
    rejected_epochs(false);
}

#[test]
fn going_live_after_a_rejected_epoch_loses_no_rows() {
    rejected_epochs(true);
}

/// The live verifier rejects epochs while a burst of long intervals
/// lifts the online E[D] past the workspace budget. Those epochs fail
/// after their rows are in the catalog; once the estimate decays the held
/// subscriptions must catch up on them. With `static_y`, `Y` starts as a
/// stored relation overlapping the burst and goes live right after the
/// first rejected epoch, switching the subscriptions to re-evaluation
/// with rows still pending.
fn rejected_epochs(static_y: bool) {
    let root =
        std::env::temp_dir().join(format!("tdb-live-reject-{}-{static_y}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut catalog = Catalog::open(root.join("cat"), IoStats::new()).unwrap();
    let config = LiveConfig {
        analyze: tdb::analyze::AnalyzeConfig::live().with_workspace_budget(4.0),
        ..LiveConfig::default()
    };
    let mut engine = LiveEngine::new(config);
    let interval = |side: &str, n: i64, dur: i64| {
        let ts = n * 4 + i64::from(side == "Y");
        Row::new(vec![
            Value::str(format!("{side}{n}")),
            Value::Int(n),
            Value::Time(TimePoint(ts)),
            Value::Time(TimePoint(ts + dur)),
        ])
    };
    // Frame `f` of a side: four arrivals, long `X` ones in frames 20..24.
    let frame = |side: &str, f: i64| -> Vec<Row> {
        (0..4)
            .map(|i| {
                let dur = match side {
                    "X" if (20..24).contains(&f) => 400,
                    "X" => 7,
                    _ => 1,
                };
                interval(side, f * 4 + i, dur)
            })
            .collect()
    };
    let mut xs = Vec::new();
    // A stored Y holds frames 0..23 and streams the rest once live.
    let stored = if static_y { 23 } else { 0 };
    let mut ys: Vec<Row> = (0..stored).flat_map(|f| frame("Y", f)).collect();
    engine
        .register(&mut catalog, "X", interval_schema(), StreamOrder::TS_ASC)
        .unwrap();
    if static_y {
        catalog
            .create_relation("Y", interval_schema(), &ys, vec![StreamOrder::TS_ASC])
            .unwrap();
    } else {
        engine
            .register(&mut catalog, "Y", interval_schema(), StreamOrder::TS_ASC)
            .unwrap();
    }
    let x = || LogicalPlan::scan("X", "x", &ATTRS);
    let y = || LogicalPlan::scan("Y", "y", &ATTRS);
    let named = [
        ("join", x().join(y(), contains())),
        ("semijoin", x().semijoin(y(), contains())),
    ];
    let mut emitted = vec![BTreeMap::new(); named.len()];
    let absorb = |emitted: &mut Vec<BTreeMap<Vec<u8>, usize>>, deltas: &[tdb::live::Delta]| {
        for d in deltas {
            for (key, n) in multiset(&d.rows) {
                *emitted[d.subscription].entry(key).or_insert(0) += n;
            }
        }
    };
    for (label, logical) in &named {
        let (_, delta) = engine
            .subscribe(&catalog, *label, logical.clone(), PlannerConfig::stream())
            .unwrap();
        let sub = &engine.subscriptions()[delta.subscription];
        assert_eq!(sub.mode(), SubscriptionMode::Held, "{label}");
        absorb(&mut emitted, &[delta]);
    }
    let mut rejected = 0;
    for f in 0..60i64 {
        for side in ["X", "Y"] {
            if side == "Y" && f < stored {
                continue;
            }
            let rows = frame(side, f);
            if side == "X" { &mut xs } else { &mut ys }.extend(rows.iter().cloned());
            match engine.ingest(&mut catalog, side, rows) {
                Ok(report) => absorb(&mut emitted, &report.deltas),
                Err(_) => rejected += 1,
            }
            if rejected > 0 && !engine.is_live("Y") {
                engine
                    .register(&mut catalog, "Y", interval_schema(), StreamOrder::TS_ASC)
                    .unwrap();
            }
        }
    }
    assert!(rejected > 0, "no epoch was rejected");
    for name in ["X", "Y"] {
        let report = engine.seal(&mut catalog, name).unwrap();
        absorb(&mut emitted, &report.deltas);
    }
    let mode = if static_y {
        SubscriptionMode::Reevaluated
    } else {
        SubscriptionMode::Held
    };
    for (s, (label, logical)) in named.iter().enumerate() {
        let expect = batch(
            &root.join("batch"),
            PlannerConfig::stream(),
            logical,
            &xs,
            &ys,
        );
        assert!(!expect.is_empty(), "{label}");
        assert_eq!(emitted[s], expect, "{label}: rows lost to a rejected epoch");
        assert_eq!(engine.subscriptions()[s].mode(), mode, "{label}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The paper's workspace bound, live: a Contain-join subscription over
/// two Poisson streams (an arrival every 3 ticks; durations 30 and 8)
/// never holds more state than its per-epoch live cap, nor than the cap
/// a static load of the final data proves, and emits exactly the batch
/// join.
#[test]
fn live_workspace_peak_stays_under_the_static_cap() {
    const N: usize = 2_000;
    const CHUNK: usize = 128;
    let poisson = |duration: f64, seed: u64| -> Vec<Row> {
        IntervalGen::poisson(N, 3.0, duration, seed)
            .generate()
            .iter()
            .map(|t| {
                Row::new(vec![
                    t.surrogate.clone(),
                    t.value.clone(),
                    Value::Time(t.ts()),
                    Value::Time(t.te()),
                ])
            })
            .collect()
    };
    let (xs, ys) = (poisson(30.0, 1601), poisson(8.0, 1602));
    let root = std::env::temp_dir().join(format!("tdb-live-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut catalog = Catalog::open(root.join("cat"), IoStats::new()).unwrap();
    let mut engine = LiveEngine::new(LiveConfig::default());
    for name in ["X", "Y"] {
        engine
            .register(&mut catalog, name, interval_schema(), StreamOrder::TS_ASC)
            .unwrap();
    }
    let logical =
        LogicalPlan::scan("X", "x", &ATTRS).join(LogicalPlan::scan("Y", "y", &ATTRS), contains());
    engine
        .subscribe(
            &catalog,
            "contain-join",
            logical.clone(),
            PlannerConfig::stream(),
        )
        .unwrap();
    for start in (0..N).step_by(CHUNK) {
        for (name, rows) in [("X", &xs), ("Y", &ys)] {
            let chunk = rows[start..(start + CHUNK).min(N)].to_vec();
            engine.ingest(&mut catalog, name, chunk).unwrap();
        }
    }
    for name in ["X", "Y"] {
        engine.seal(&mut catalog, name).unwrap();
    }

    let sub = &engine.subscriptions()[0];
    let (peak, live_cap) = sub.workspace_watermark();
    let stats = |name| catalog.meta(name).unwrap().stats.clone();
    let static_cap = workspace_cap(
        StreamOpKind::ContainJoinTsTe,
        &stats("X"),
        Some(&stats("Y")),
    );
    assert!(peak > 0, "the subscription held no state");
    assert!(peak <= live_cap, "peak {peak} over the live cap {live_cap}");
    assert!(
        peak <= static_cap,
        "peak {peak} over the static cap {static_cap}"
    );
    let expect = batch(
        &root.join("batch"),
        PlannerConfig::stream(),
        &logical,
        &xs,
        &ys,
    );
    assert_eq!(sub.emitted_count(), expect.values().sum::<usize>());
    let _ = std::fs::remove_dir_all(&root);
}
