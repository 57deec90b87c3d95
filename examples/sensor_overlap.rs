//! Interval analytics on sensor sessions: which alarms overlap which
//! maintenance windows? Demonstrates the §4.2.4 overlap operators, the
//! workspace instrumentation, and the stream-vs-nested-loop tradeoff on a
//! domain that is not the paper's faculty example.
//!
//! Run with: `cargo run --release -p tdb --example sensor_overlap`

use std::time::Instant;
use tdb::prelude::*;
use tdb_oracle::nested_loop_join;

fn main() -> TdbResult<()> {
    // Alarms: bursty short intervals. Maintenance windows: sparse, long.
    let alarms = IntervalGen::poisson(20_000, 3.0, 10.0, 41).generate();
    let windows = IntervalGen::poisson(2_000, 30.0, 120.0, 42).generate();
    println!(
        "alarms: {} tuples (λ≈1/3, mean duration 10); windows: {} tuples (λ≈1/30, mean duration 120)\n",
        alarms.len(),
        windows.len()
    );

    // ── Stream overlap join (both inputs ValidFrom ↑, Table 2 state (a)). ──
    // The generators emit ValidFrom ↑, the order the registry requires.
    let start = Instant::now();
    let cfg = OpConfig::new();
    let (x, y) = (alarms.clone(), windows.clone());
    let (pairs, report) = collect(|emit| run_join(StreamOpKind::OverlapJoin, cfg, x, y, emit))?;
    let stream_time = start.elapsed();
    println!(
        "stream overlap join:      {stream_time:>10.2?}  {} pairs",
        pairs.len()
    );
    println!(
        "  workspace: max {} resident alarms + windows ({} GC discards)",
        report.max_workspace(),
        report.workspace.discarded
    );
    println!("  metrics: {}", report.metrics);

    // ── Nested-loop baseline (the conventional strategy of §3). ──
    let start = Instant::now();
    let (nl_pairs, nl) = nested_loop_join(&alarms, &windows, |a: &TsTuple, w: &TsTuple| {
        a.period.overlaps(&w.period)
    });
    let nl_time = start.elapsed();
    println!(
        "\nnested-loop baseline:     {nl_time:>10.2?}  {} pairs",
        nl_pairs.len()
    );
    println!("  metrics: {}", nl.metrics);
    assert_eq!(pairs.len(), nl_pairs.len(), "operators must agree");

    // ── Semijoin: which alarms fall inside any window at all? ──
    let (x, y) = (alarms.clone(), windows.clone());
    let kind = StreamOpKind::OverlapSemijoin;
    let (covered, semi) = collect(|emit| run_semijoin(kind, cfg, x, y, emit))?;
    println!(
        "\noverlap semijoin (two-buffer, Table 2 state (b)): {} of {} alarms overlap a window; workspace = {} state tuples",
        covered.len(),
        alarms.len(),
        semi.max_workspace()
    );

    // ── Before-semijoin: alarms that fully precede some window. ──
    let kind = StreamOpKind::BeforeSemijoin;
    let (early, _) = collect(|emit| run_semijoin(kind, cfg, alarms.clone(), windows, emit))?;
    println!(
        "before-semijoin (single scan, order-independent): {} alarms precede some window",
        early.len()
    );

    println!(
        "\nstream join was {:.1}× faster than nested loop on this workload",
        nl_time.as_secs_f64() / stream_time.as_secs_f64().max(1e-9)
    );
    Ok(())
}
