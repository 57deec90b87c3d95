//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p tdb-bench --bin experiments            # everything
//! cargo run --release -p tdb-bench --bin experiments -- table1  # one artifact
//! cargo run --release -p tdb-bench --bin experiments -- all --json out.json
//! ```
//!
//! Experiment IDs follow DESIGN.md: E1=Table 1, E2=Table 2, E3=Table 3,
//! E5=Figure 3, E10=Figure 8/§5 Superstar, E11=sort-order crossover,
//! E12=read-policy ablation, E13=Before operators, E14=sort-vs-rescan
//! cost, E6=Figure 4 aggregation, E15=time-partitioned parallel scaling.
//! (E16–E22 are retired; EXPERIMENTS.md keeps their records.)
//!
//! `--json <path>` writes every selected experiment's results as one
//! document; no experiment writes a file of its own.

use std::collections::BTreeMap;
use tdb::algebra::cost::{
    nested_loop_cost, predict_workspace, stream_join_cost, workspace_cap, WorkspaceKind,
};
use tdb::prelude::*;
use tdb_bench::{
    bench_catalog, drain_count, measure_buffered_contain, measure_contain_ts_te,
    measure_contain_ts_ts, measure_nested_contain, row, Workload,
};
use tdb_oracle::buffered_join;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_value_idx = args.iter().position(|a| a == "--json").map(|i| i + 1);
    let mut which: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, s)| !s.starts_with("--") && Some(*i) != json_value_idx)
        .map(|(_, s)| s.as_str())
        .collect();
    if which.is_empty() || which == ["all"] {
        which = vec![
            "table1",
            "table2",
            "table3",
            "fig3",
            "superstar",
            "sweep",
            "policies",
            "before",
            "sortcost",
            "aggregate",
            "parallel",
        ];
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut json = BTreeMap::new();

    for w in which {
        println!("\n════════════════════════════════════════════════════════════════════");
        match w {
            "table1" => table1(&mut json),
            "table2" => table2(&mut json),
            "table3" => table3(&mut json),
            "fig3" => fig3(&mut json),
            "superstar" => superstar(&mut json),
            "sweep" => sweep(&mut json),
            "policies" => policies(&mut json),
            "before" => before(&mut json),
            "sortcost" => sortcost(&mut json),
            "aggregate" => aggregate(&mut json),
            "parallel" => parallel(&mut json),
            other => eprintln!("unknown experiment `{other}`"),
        }
    }
    if let Some(path) = json_path {
        let doc = Json::Object(json.into_iter().collect());
        std::fs::write(&path, doc.to_string_pretty()).unwrap();
        println!("\nJSON written to {path}");
    }
}

const N: usize = 20_000;

/// E1 — Table 1: workspace of Contain-join / Contain-semijoin /
/// Contained-semijoin under each sort-order combination, measured against
/// the Little's-law predictions of the cost model.
fn table1(json: &mut BTreeMap<String, Json>) {
    println!("E1 · Table 1 — containment operators: max workspace by sort order");
    println!(
        "    workload: {N} tuples/side, Poisson arrivals (1/λ=3), exp durations (X:30, Y:8)\n"
    );
    let w = Workload::poisson("t1", N, 3.0, 30.0, 3.0, 8.0, 101);
    let (sx, sy) = w.stats();

    let widths = [22usize, 18, 14, 20, 22];
    println!(
        "{}",
        row(
            &[
                "X order / Y order".into(),
                "Contain-join".into(),
                "(predicted)".into(),
                "Contain-semijoin".into(),
                "Contained-semijoin".into(),
            ],
            &widths
        )
    );

    let mut rows_json = Vec::new();

    // Row (TS↑, TS↑): join state (a), semijoins state (c).
    {
        let join = measure_contain_ts_ts(&w, ReadPolicy::MinKey);
        let pred = predict_workspace(WorkspaceKind::ContainJoinTsTs, &sx, Some(&sy));
        // Table 1 (c): both directions of the sweep semijoin.
        let sweep = |op: SweepSemijoin<TsTuple, TsTuple>| {
            let xs = w.xs_sorted(StreamOrder::TS_ASC);
            let ys = w.ys_sorted(StreamOrder::TS_ASC);
            let ts = Some(StreamOrder::TS_ASC);
            let rows = OpConfig::new().batch_rows;
            let run = drain_count(|e| run_kernel(op, rows, xs, ts, ys, ts, e));
            run.1.max_workspace()
        };
        let semi_contain = sweep(SweepSemijoin::contain(ReadPolicy::MinKey));
        let semi_contained = sweep(SweepSemijoin::contained(ReadPolicy::MinKey));
        println!(
            "{}",
            row(
                &[
                    "ValidFrom↑ ValidFrom↑".into(),
                    format!("{} (a)", join.max_workspace),
                    format!("{pred:.0}"),
                    format!("{semi_contain} (c)"),
                    format!("{semi_contained} (c)"),
                ],
                &widths
            )
        );
        rows_json.push(jobj! {
            "orders" => "TS↑/TS↑", "join_ws" => join.max_workspace, "join_pred" => pred,
            "contain_semi_ws" => semi_contain, "contained_semi_ws" => semi_contained,
        });
    }

    // Row (TS↑, TE↑): join state (b), Contain-semijoin state (d) buffers.
    {
        let join = measure_contain_ts_te(&w);
        let pred = predict_workspace(WorkspaceKind::ContainJoinTsTe, &sx, Some(&sy));
        let semi_contain = {
            let xs = w.xs_sorted(StreamOrder::TS_ASC);
            let ys = w.ys_sorted(StreamOrder::TE_ASC);
            let kind = StreamOpKind::ContainSemijoinStab;
            let (_, report) = drain_count(|e| run_semijoin(kind, OpConfig::new(), xs, ys, e));
            report.max_workspace() // two input buffers only
        };
        println!(
            "{}",
            row(
                &[
                    "ValidFrom↑ ValidTo↑".into(),
                    format!("{} (b)", join.max_workspace),
                    format!("{pred:.0}"),
                    format!("{semi_contain}+2buf (d)"),
                    "—".into(),
                ],
                &widths
            )
        );
        rows_json.push(jobj! {
            "orders" => "TS↑/TE↑", "join_ws" => join.max_workspace, "join_pred" => pred,
            "contain_semi_ws" => "buffers",
        });
    }

    // Row (TE↑, TS↑): Contained-semijoin state (d); join degenerate.
    {
        let buffered = measure_buffered_contain(&w);
        let contained = {
            let xs = w.xs_sorted(StreamOrder::TE_ASC);
            let ys = w.ys_sorted(StreamOrder::TS_ASC);
            let kind = StreamOpKind::ContainedSemijoinStab;
            let (_, report) = drain_count(|e| run_semijoin(kind, OpConfig::new(), xs, ys, e));
            report.max_workspace()
        };
        println!(
            "{}",
            row(
                &[
                    "ValidTo↑  ValidFrom↑".into(),
                    format!("{} = Θ(n) –", buffered.max_workspace),
                    format!("{}", N * 2),
                    "—".into(),
                    format!("{contained}+2buf (d)"),
                ],
                &widths
            )
        );
        rows_json.push(jobj! {
            "orders" => "TE↑/TS↑", "join_ws_degenerate" => buffered.max_workspace,
            "contained_semi_ws" => "buffers",
        });
    }

    // Row (TE↑, TE↑): everything degenerate.
    {
        let buffered = measure_buffered_contain(&w);
        println!(
            "{}",
            row(
                &[
                    "ValidTo↑  ValidTo↑".into(),
                    format!("{} = Θ(n) –", buffered.max_workspace),
                    format!("{}", N * 2),
                    "–".into(),
                    "–".into(),
                ],
                &widths
            )
        );
    }
    println!("\n    Lower half of the paper's Table 1 (descending orders) is the mirror");
    println!("    image under time reversal and is exercised by unit tests.");
    json.insert("table1".into(), Json::Array(rows_json));
}

/// E2 — Table 2: overlap operators.
fn table2(json: &mut BTreeMap<String, Json>) {
    println!("E2 · Table 2 — overlap operators: max workspace by sort order");
    let w = Workload::poisson("t2", N, 3.0, 20.0, 3.0, 20.0, 202);
    let (sx, sy) = w.stats();

    let xs = w.xs_sorted(StreamOrder::TS_ASC);
    let ys = w.ys_sorted(StreamOrder::TS_ASC);
    let strict = OpConfig::new().with_mode(OverlapMode::Strict);
    let (n_pairs, join) =
        drain_count(|e| run_join(StreamOpKind::OverlapJoin, strict, xs.clone(), ys.clone(), e));
    let pred = predict_workspace(WorkspaceKind::OverlapJoin, &sx, Some(&sy));

    let general = OpConfig::new().with_mode(OverlapMode::General);
    let (_, semi) =
        drain_count(|e| run_semijoin(StreamOpKind::OverlapSemijoin, general, xs, ys, e));

    // Degenerate ordering: no GC criteria.
    let (_, buffered) = buffered_join(&w.xs, &w.ys, |a: &TsTuple, b: &TsTuple| {
        a.period.allen_overlaps(&b.period)
    });

    println!(
        "    workload: {N} tuples/side, both exp(20) durations; {n_pairs} strict-overlap pairs\n"
    );
    println!(
        "    ValidFrom↑/ValidFrom↑  Overlap-join       max ws {:>6}   predicted {pred:.0}  (a)",
        join.max_workspace()
    );
    println!("    ValidFrom↑/ValidFrom↑  Overlap-semijoin   max ws {:>6}   (general mode: the two buffers)  (b)", semi.max_workspace());
    println!(
        "    other orderings        Overlap-join       max ws {:>6}   = Θ(n) — no GC criteria (–)",
        buffered.max_workspace()
    );
    json.insert(
        "table2".into(),
        jobj! {
            "join_ws" => join.max_workspace(), "join_pred" => pred,
            "semijoin_ws" => semi.max_workspace(),
            "degenerate_ws" => buffered.max_workspace(),
        },
    );
}

/// E3 — Table 3: self semijoins.
fn table3(json: &mut BTreeMap<String, Json>) {
    println!("E3 · Table 3 — self semijoins over one stream ({N} tuples, 60% nested)");
    let xs = tdb::gen::intervals::nested_stream(N, 0.6, 303);

    // Each kind over the input sorted as its registry entry requires.
    let run = |kind: StreamOpKind| {
        let mut xs = xs.clone();
        kind.requirement().left().unwrap().sort(&mut xs);
        drain_count(|e| run_self_semijoin(kind, OpConfig::new(), xs, e))
    };
    let (n1, contained) = run(StreamOpKind::ContainedSelfSemijoin);
    let (n2, contain_asc) = run(StreamOpKind::ContainSelfSemijoin);
    let (n3, contain_desc) = run(StreamOpKind::ContainSelfSemijoinDesc);

    println!("\n    ValidFrom↑ (TE↑ sec)  Contained-semijoin(X,X)  max state {:>3}  (a: one tuple)   {} emitted", contained.max_workspace(), n1);
    println!("    ValidFrom↑ (TE↑ sec)  Contain-semijoin(X,X)    max state {:>3}  (b: overlap set) {} emitted", contain_asc.max_workspace(), n2);
    println!("    ValidFrom↓ (TE↓ sec)  Contain-semijoin(X,X)    max state {:>3}  (a: one tuple)   {} emitted", contain_desc.max_workspace(), n3);
    assert_eq!(n2, n3, "ascending and descending contain-self must agree");
    json.insert(
        "table3".into(),
        jobj! {
            "contained_asc_ws" => contained.max_workspace(),
            "contain_asc_ws" => contain_asc.max_workspace(),
            "contain_desc_ws" => contain_desc.max_workspace(),
        },
    );
}

/// E5 — Figure 3: conventional optimization of the Superstar parse tree.
fn fig3(json: &mut BTreeMap<String, Json>) {
    println!("E5 · Figure 3 — Superstar parse trees and the effect of pushdown");
    let unopt = tdb::semantic::superstar::superstar_unoptimized();
    let opt = tdb::semantic::superstar::superstar_conventional();
    println!("\n(a) unoptimized:\n{}", unopt.parse_tree());
    println!("(b) conventionally optimized:\n{}", opt.parse_tree());

    // Measure both on a small population (the (a) plan is O(n³)).
    let catalog = bench_catalog("fig3", 40, 404);
    let run = |p: &LogicalPlan| {
        let phys = plan(p, PlannerConfig::naive()).unwrap();
        let out = phys.execute(&catalog, ExecOptions::default()).unwrap();
        (
            out.stats.comparisons,
            out.stats.intermediate_rows,
            out.rows.len(),
        )
    };
    let (c_a, i_a, n_a) = run(&unopt);
    let (c_b, i_b, n_b) = run(&opt);
    assert_eq!(n_a, n_b);
    println!("measured on 40 faculty (nested-loop physical ops for both):");
    println!("    (a) {c_a:>12} comparisons, {i_a:>9} intermediate rows");
    println!("    (b) {c_b:>12} comparisons, {i_b:>9} intermediate rows");
    println!(
        "    pushdown cut comparisons by {:.0}×",
        c_a as f64 / c_b.max(1) as f64
    );
    json.insert(
        "fig3".into(),
        jobj! {
            "unopt_comparisons" => c_a, "opt_comparisons" => c_b,
            "unopt_intermediate" => i_a, "opt_intermediate" => i_b,
        },
    );
}

/// E10 — Figure 8 / §5: the Superstar plans compared across population
/// sizes.
fn superstar(json: &mut BTreeMap<String, Json>) {
    println!("E10 · Figure 8 / §5 — Superstar formulations vs population size");
    println!("    comparisons per formulation\n");
    let widths = [10usize, 16, 16, 16];
    println!(
        "{}",
        row(
            &[
                "faculty".into(),
                "conventional".into(),
                "reduced(8b)".into(),
                "self-semijoin".into(),
            ],
            &widths
        )
    );
    let mut rows_json = Vec::new();
    for n in [200usize, 800, 3200] {
        let catalog = bench_catalog(&format!("ss{n}"), n, 505);
        let mut cells = vec![format!("{n}")];
        let mut comparisons = Vec::new();
        let plans = superstar_plans(true);
        // Formulations differ in duplicate multiplicity (join vs semijoin);
        // the answered *set* of names must agree.
        let mut reference: Option<std::collections::BTreeSet<String>> = None;
        for (label, logical) in &plans {
            if label.starts_with("unoptimized") {
                continue;
            }
            let config = if label.starts_with("conventional") {
                PlannerConfig::conventional()
            } else {
                PlannerConfig::stream()
            };
            let phys = plan(logical, config).unwrap();
            let out = phys.execute(&catalog, ExecOptions::default()).unwrap();
            let names: std::collections::BTreeSet<String> = out
                .rows
                .iter()
                .filter_map(|r| r.get(0).as_str().map(str::to_string))
                .collect();
            match &reference {
                None => reference = Some(names),
                Some(r) => assert_eq!(r, &names, "{label} at n={n}"),
            }
            cells.push(format!("{}", out.stats.comparisons));
            comparisons.push(out.stats.comparisons);
        }
        println!("{}", row(&cells, &widths));
        rows_json.push(jobj! {
            "n" => n, "conventional_comparisons" => comparisons[0],
            "reduced_comparisons" => comparisons[1], "selfsemijoin_comparisons" => comparisons[2],
        });
    }
    println!("\n    (conventional = Fig 3(b) with nested-loop less-than join;");
    println!("     reduced = Fig 8(b) semijoin after constraint-based elimination;");
    println!("     self-semijoin = §5 single-pass plan with Name guard)");
    json.insert("superstar".into(), Json::Array(rows_json));
}

/// E11 — the §4.2 claim: the optimal sort ordering depends on data
/// statistics. Sweep the Y-duration mix and watch the preferred
/// configuration flip.
fn sweep(json: &mut BTreeMap<String, Json>) {
    println!("E11 · sort-order choice depends on instance statistics");
    println!("    Contain-join workspace, (TS↑,TS↑) vs (TS↑,TE↑), sweeping Y mean duration\n");
    let widths = [14usize, 16, 16, 12];
    println!(
        "{}",
        row(
            &[
                "E[dur Y]".into(),
                "ws (TS↑,TS↑)".into(),
                "ws (TS↑,TE↑)".into(),
                "winner".into(),
            ],
            &widths
        )
    );
    let mut rows_json = Vec::new();
    for dur_y in [2.0, 8.0, 32.0, 128.0, 512.0] {
        let w = Workload::poisson("sweep", 10_000, 3.0, 30.0, 3.0, dur_y, 606);
        let a = measure_contain_ts_ts(&w, ReadPolicy::MinKey);
        let b = measure_contain_ts_te(&w);
        let winner = if a.max_workspace <= b.max_workspace {
            "TS/TS"
        } else {
            "TS/TE"
        };
        println!(
            "{}",
            row(
                &[
                    format!("{dur_y}"),
                    format!("{}", a.max_workspace),
                    format!("{}", b.max_workspace),
                    winner.into(),
                ],
                &widths
            )
        );
        rows_json.push(jobj! {
            "dur_y" => dur_y, "ws_tsts" => a.max_workspace, "ws_tste" => b.max_workspace,
        });
    }
    json.insert("sweep".into(), Json::Array(rows_json));
}

/// E12 — read-policy ablation (§4.2.1's λ-guided reading).
fn policies(json: &mut BTreeMap<String, Json>) {
    println!("E12 · read-policy ablation for Contain-join (TS↑,TS↑)");
    println!("    asymmetric arrivals: X 1/λ=2 dur 40, Y 1/λ=20 dur 10\n");
    let w = Workload::poisson("pol", 20_000, 2.0, 40.0, 20.0, 10.0, 707);
    let (sx, sy) = w.stats();
    let lambda_policy = ReadPolicy::LambdaGuided {
        lambda_x: sx.lambda.unwrap(),
        lambda_y: sy.lambda.unwrap(),
    };
    let mut rows_json = Vec::new();
    for (label, policy) in [
        ("Alternate", ReadPolicy::Alternate),
        ("MinKey", ReadPolicy::MinKey),
        ("LambdaGuided", lambda_policy),
    ] {
        let m = measure_contain_ts_ts(&w, policy);
        println!(
            "    {label:<14} max workspace {:>7}   {:>12} comparisons   {:>8} pairs",
            m.max_workspace, m.comparisons, m.output
        );
        rows_json.push(jobj! {
            "policy" => label, "ws" => m.max_workspace, "comparisons" => m.comparisons,
        });
    }
    json.insert("policies".into(), Json::Array(rows_json));
}

/// E13 — Before operators (§4.2.4).
fn before(json: &mut BTreeMap<String, Json>) {
    println!("E13 · Before-join and Before-semijoin");
    let w = Workload::poisson("before", 30_000, 3.0, 10.0, 3.0, 10.0, 808);

    let cfg = OpConfig::new();
    let (xs, ys) = (w.xs.clone(), w.ys.clone());
    let (_, report) = run_join(StreamOpKind::BeforeJoin, cfg, xs, ys, Emit::Count).unwrap();
    let count = report.metrics.emitted as u64;
    let naive =
        w.xs.iter()
            .map(|x| w.ys.iter().filter(|y| x.period.before(&y.period)).count() as u64)
            .sum::<u64>();
    assert_eq!(count, naive, "sorted suffix arithmetic vs the double loop");
    let (xs, ys) = (w.xs.clone(), w.ys.clone());
    let semi_n = drain_count(|e| run_semijoin(StreamOpKind::BeforeSemijoin, cfg, xs, ys, e)).0;
    println!("\n    Before-join result pairs: {count} (≈n²/2: the output itself is quadratic)");
    println!("    counted by sorted suffix arithmetic, equal to the naive double loop");
    println!("    Before-semijoin (single scan, O(1) state): {semi_n} tuples");
    json.insert("before".into(), jobj! { "pairs" => count });
}

/// E14 — §4.1's third axis: paying for a sort once vs rescanning forever.
fn sortcost(json: &mut BTreeMap<String, Json>) {
    println!("E14 · sort-then-stream vs nested-loop, with analytic cost model");
    let mut rows_json = Vec::new();
    for n in [2_000usize, 8_000, 32_000] {
        let w = Workload::poisson("sc", n, 3.0, 30.0, 3.0, 8.0, 909);
        let (sx, sy) = w.stats();

        // Stream plan: explicit external sorts (tight memory) + TsTe join.
        let io = IoStats::new();
        let stream = {
            let sorter = ExternalSorter::new(
                1024,
                |a: &TsTuple, b: &TsTuple| StreamOrder::TS_ASC.compare(a, b),
                io.clone(),
            );
            let (xs, _) = sorter.sort(w.xs.clone()).unwrap();
            let xs: Vec<_> = xs.map(|r| r.unwrap()).collect();
            let sorter = ExternalSorter::new(
                1024,
                |a: &TsTuple, b: &TsTuple| StreamOrder::TE_ASC.compare(a, b),
                io.clone(),
            );
            let (ys, _) = sorter.sort(w.ys.clone()).unwrap();
            let ys: Vec<_> = ys.map(|r| r.unwrap()).collect();
            let cfg = OpConfig::new();
            drain_count(|e| run_join(StreamOpKind::ContainJoinTsTe, cfg, xs, ys, e)).1
        };
        let nl = measure_nested_contain(&w);
        let model_stream = stream_join_cost(WorkspaceKind::ContainJoinTsTe, &sx, &sy);
        let model_nl = nested_loop_cost(&sx, &sy);
        println!(
            "    n={n:>6}: sort+stream {} spill pages   comparisons: model ratio {:.0}×  measured {:.1}×",
            io.snapshot().pages_written,
            model_nl.comparisons / model_stream.comparisons.max(1.0),
            nl.comparisons as f64 / stream.metrics.comparisons.max(1) as f64,
        );
        rows_json.push(jobj! {
            "n" => n, "spill_pages" => io.snapshot().pages_written,
        });
    }
    json.insert("sortcost".into(), Json::Array(rows_json));
}

/// E15 — time-partitioned parallel contain-join scaling.
///
/// Splits the timeline into K disjoint ranges with fringe replication and
/// runs one Contain-join instance per partition under `thread::scope`.
/// The speedup recorded is the critical path: serial comparisons ÷ max
/// per-partition comparisons, the architecture-independent bound that
/// multi-core wall-clock tracks (modulo the Little's-law fringe overhead
/// `(K−1)·λ·E[D]`). Wall-clock speedups are the served benchmark's
/// business, not this table's.
fn parallel(json: &mut BTreeMap<String, Json>) {
    println!("E15 · time-partitioned parallel Contain-join scaling");
    let w = Workload::poisson("par", 40_000, 3.0, 30.0, 3.0, 8.0, 1501);
    let (sx, sy) = w.stats();

    let serial_model = stream_join_cost(WorkspaceKind::ContainJoinTsTe, &sx, &sy);
    // Static workspace bound from the analyzer's cap table: each partition
    // runs a ContainJoinTsTe over a fringe-replicated subset of the input,
    // so its resident set is a subset of the globally concurrent intervals
    // and the whole-input cap dominates every partition.
    let static_cap = workspace_cap(StreamOpKind::ContainJoinTsTe, &sx, Some(&sy));
    // The driver takes its inputs in the kernel's entry orders: X comes
    // from the generator `ValidFrom ↑`, Y is sorted `ValidTo ↑`.
    let kind = StreamOpKind::ContainJoinTsTe;
    let (xs, mut ys) = (&w.xs, w.ys.clone());
    StreamOrder::TE_ASC.sort(&mut ys);
    let mut rows_json = Vec::new();
    let mut serial_cmp = 0usize;
    for k in [1usize, 2, 4, 8] {
        let mut pairs = Vec::new();
        let run = parallel_join(
            kind,
            OpConfig::new(),
            xs.clone(),
            ys.clone(),
            k,
            &mut |chunk| {
                pairs.extend(chunk);
                Ok(true)
            },
        )
        .unwrap();
        if k == 1 {
            serial_cmp = run.report.metrics.comparisons;
        }
        let critical = run
            .per_partition
            .iter()
            .map(|r| r.metrics.comparisons)
            .max()
            .unwrap_or(serial_cmp)
            .max(1);
        let speedup_cp = serial_cmp as f64 / critical as f64;
        let model = tdb::algebra::cost::parallel_join_cost(serial_model, k, &sx, &sy);
        // The analyzer's static bound must dominate the runtime peak that
        // OpReport::combine_parallel observed across all K partitions.
        let runtime_max = run.report.max_workspace();
        assert!(
            runtime_max <= static_cap,
            "K={k}: runtime workspace max {runtime_max} exceeded the static cap {static_cap}"
        );
        println!(
            "    K={k}: critical-path speedup {speedup_cp:>4.2}×   \
             {:>9} total comparisons   {} pairs",
            run.report.metrics.comparisons,
            pairs.len(),
        );
        rows_json.push(jobj! {
            "k" => k, "pairs" => pairs.len(),
            "comparisons" => run.report.metrics.comparisons,
            "critical_path_comparisons" => critical,
            "speedup_critical_path" => speedup_cp,
            "model_comparisons" => model.comparisons,
            "workspace_max" => runtime_max,
            "workspace_static_cap" => static_cap,
        });
    }
    json.insert("parallel".into(), Json::Array(rows_json));
}

/// E6 — Figure 4: grouped-sum stream processor vs hash aggregation.
fn aggregate(json: &mut BTreeMap<String, Json>) {
    println!("E6 · Figure 4 — grouped sum: streaming (O(1) state) vs hash (O(groups))");
    let n_groups = 5_000;
    let per_group = 40;
    let rows: Vec<(Value, i64)> = (0..n_groups)
        .flat_map(|g| (0..per_group).map(move |i| (Value::Int(i64::from(g)), i64::from(i))))
        .collect();

    let (out_stream, report) = grouped_sum(&rows, |r| r.0.clone(), |r| r.1).unwrap();
    let (n_stream, ws_stream) = (out_stream.len(), report.max_workspace());
    // The conventional baseline: one hash cell per group.
    let mut out_hash = std::collections::HashMap::new();
    for (k, v) in &rows {
        *out_hash.entry(k.clone()).or_insert(0i64) += v;
    }
    let ws_hash = out_hash.len();
    assert_eq!(n_stream, out_hash.len());
    println!("\n    streaming sum: {n_stream} groups, workspace {ws_stream} cell");
    println!(
        "    hash sum:      {} groups, workspace {ws_hash} cells",
        out_hash.len()
    );
    json.insert(
        "aggregate".into(),
        jobj! {
            "groups" => n_stream, "stream_ws" => ws_stream, "hash_ws" => ws_hash,
        },
    );
}
