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
//! cost, E6=Figure 4 aggregation, E15=time-partitioned parallel scaling,
//! E16=live ingestion soak, E17=framed-TCP network soak,
//! E18=observability overhead + metrics-scraped soak, E20=WAL durability:
//! fsync-policy throughput + recovery cost vs the open window,
//! E21=streaming result sinks vs output materialization,
//! E22=stage-span + SLO overhead and the burn-rate `/healthz` flip.
//! (E19 is retired; EXPERIMENTS.md keeps its record.)
//!
//! Standalone artifacts (`BENCH_*.json`) are written under `results/`.

use std::collections::BTreeMap;
use tdb::algebra::cost::{
    nested_loop_cost, predict_workspace, stream_join_cost, workspace_cap, WorkspaceKind,
};
use tdb::prelude::*;
use tdb_bench::{
    bench_catalog, measure_buffered_contain, measure_contain_ts_te, measure_contain_ts_ts,
    measure_nested_contain, row, timed, Workload,
};

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
            "sink",
            "live",
            "net",
            "obs",
            "wal",
            "slo",
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
            "sink" => sink(&mut json),
            "live" => live(&mut json),
            "net" => net(&mut json),
            "obs" => obs(&mut json),
            "wal" => wal(&mut json),
            "slo" => slo(&mut json),
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
        let semi_contain = {
            let xs = w.xs_sorted(StreamOrder::TS_ASC);
            let ys = w.ys_sorted(StreamOrder::TS_ASC);
            let mut op = OpConfig::new()
                .contain_semijoin(
                    from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap(),
                )
                .unwrap();
            while op.next().unwrap().is_some() {}
            op.report().max_workspace()
        };
        let semi_contained = {
            let xs = w.xs_sorted(StreamOrder::TS_ASC);
            let ys = w.ys_sorted(StreamOrder::TS_ASC);
            let mut op = OpConfig::new()
                .contained_semijoin(
                    from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap(),
                )
                .unwrap();
            while op.next().unwrap().is_some() {}
            op.report().max_workspace()
        };
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
            let mut op = OpConfig::new()
                .contain_semijoin_stab(
                    from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys, StreamOrder::TE_ASC).unwrap(),
                )
                .unwrap();
            while op.next().unwrap().is_some() {}
            0usize // two input buffers only
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
            let mut op = OpConfig::new()
                .contained_semijoin_stab(
                    from_sorted_vec(xs, StreamOrder::TE_ASC).unwrap(),
                    from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap(),
                )
                .unwrap();
            while op.next().unwrap().is_some() {}
            0usize
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
    let mut join = OpConfig::new()
        .with_mode(OverlapMode::Strict)
        .overlap_join(
            from_sorted_vec(xs.clone(), StreamOrder::TS_ASC).unwrap(),
            from_sorted_vec(ys.clone(), StreamOrder::TS_ASC).unwrap(),
        )
        .unwrap();
    let mut n_pairs = 0u64;
    while join.next().unwrap().is_some() {
        n_pairs += 1;
    }
    let pred = predict_workspace(WorkspaceKind::OverlapJoin, &sx, Some(&sy));

    let mut semi = OpConfig::new()
        .with_mode(OverlapMode::General)
        .overlap_semijoin(
            from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap(),
            from_sorted_vec(ys, StreamOrder::TS_ASC).unwrap(),
        )
        .unwrap();
    while semi.next().unwrap().is_some() {}

    // Degenerate ordering: no GC criteria.
    let mut buffered = OpConfig::new()
        .buffered_join(
            from_vec(w.xs.clone()),
            from_vec(w.ys.clone()),
            |a: &TsTuple, b: &TsTuple| a.period.allen_overlaps(&b.period),
        )
        .unwrap();
    while buffered.next().unwrap().is_some() {}

    println!(
        "    workload: {N} tuples/side, both exp(20) durations; {n_pairs} strict-overlap pairs\n"
    );
    println!(
        "    ValidFrom↑/ValidFrom↑  Overlap-join       max ws {:>6}   predicted {pred:.0}  (a)",
        join.report().max_workspace()
    );
    println!("    ValidFrom↑/ValidFrom↑  Overlap-semijoin   max ws {:>6}   (general mode: the two buffers)  (b)", semi.report().max_workspace());
    println!(
        "    other orderings        Overlap-join       max ws {:>6}   = Θ(n) — no GC criteria (–)",
        buffered.report().max_workspace()
    );
    json.insert(
        "table2".into(),
        jobj! {
            "join_ws" => join.report().max_workspace(), "join_pred" => pred,
            "semijoin_ws" => semi.report().max_workspace(),
            "degenerate_ws" => buffered.report().max_workspace(),
        },
    );
}

/// E3 — Table 3: self semijoins.
fn table3(json: &mut BTreeMap<String, Json>) {
    println!("E3 · Table 3 — self semijoins over one stream ({N} tuples, 60% nested)");
    let xs = tdb::gen::intervals::nested_stream(N, 0.6, 303);

    let mut contained = OpConfig::new()
        .contained_self_semijoin(from_sorted_vec(xs.clone(), StreamOrder::TS_ASC_TE_ASC).unwrap())
        .unwrap();
    let mut n1 = 0;
    while contained.next().unwrap().is_some() {
        n1 += 1;
    }

    let mut contain_asc = OpConfig::new()
        .contain_self_semijoin(from_sorted_vec(xs.clone(), StreamOrder::TS_ASC_TE_ASC).unwrap())
        .unwrap();
    let mut n2 = 0;
    while contain_asc.next().unwrap().is_some() {
        n2 += 1;
    }

    let desc_order =
        tdb::stream::ContainSelfSemijoinDesc::<tdb::stream::VecStream<TsTuple>>::REQUIRED;
    let mut xs_desc = xs.clone();
    desc_order.sort(&mut xs_desc);
    let mut contain_desc =
        tdb::stream::ContainSelfSemijoinDesc::new(from_sorted_vec(xs_desc, desc_order).unwrap())
            .unwrap();
    let mut n3 = 0;
    while contain_desc.next().unwrap().is_some() {
        n3 += 1;
    }

    println!("\n    ValidFrom↑ (TE↑ sec)  Contained-semijoin(X,X)  max state {:>3}  (a: one tuple)   {} emitted", contained.report().max_workspace(), n1);
    println!("    ValidFrom↑ (TE↑ sec)  Contain-semijoin(X,X)    max state {:>3}  (b: overlap set) {} emitted", contain_asc.report().max_workspace(), n2);
    println!("    ValidFrom↓ (TE↓ sec)  Contain-semijoin(X,X)    max state {:>3}  (a: one tuple)   {} emitted", contain_desc.report().max_workspace(), n3);
    assert_eq!(n2, n3, "ascending and descending contain-self must agree");
    json.insert(
        "table3".into(),
        jobj! {
            "contained_asc_ws" => contained.report().max_workspace(),
            "contain_asc_ws" => contain_asc.report().max_workspace(),
            "contain_desc_ws" => contain_desc.report().max_workspace(),
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
    println!("E10 · Figure 8 / §5 — Superstar formulations vs population size\n");
    let widths = [10usize, 16, 16, 16, 16];
    println!(
        "{}",
        row(
            &[
                "faculty".into(),
                "conventional".into(),
                "reduced(8b)".into(),
                "self-semijoin".into(),
                "speedup".into(),
            ],
            &widths
        )
    );
    let mut rows_json = Vec::new();
    for n in [200usize, 800, 3200] {
        let catalog = bench_catalog(&format!("ss{n}"), n, 505);
        let mut cells = vec![format!("{n}")];
        let mut micros = Vec::new();
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
            let (out, us) = timed(|| phys.execute(&catalog, ExecOptions::default()).unwrap());
            let names: std::collections::BTreeSet<String> = out
                .rows
                .iter()
                .filter_map(|r| r.get(0).as_str().map(str::to_string))
                .collect();
            match &reference {
                None => reference = Some(names),
                Some(r) => assert_eq!(r, &names, "{label} at n={n}"),
            }
            cells.push(format!("{:.1}ms", us as f64 / 1000.0));
            micros.push(us);
        }
        let speedup = micros[0] as f64 / *micros.last().unwrap() as f64;
        cells.push(format!("{speedup:.1}×"));
        println!("{}", row(&cells, &widths));
        rows_json.push(jobj! {
            "n" => n, "conventional_us" => micros[0], "reduced_us" => micros[1],
            "selfsemijoin_us" => micros[2], "speedup" => speedup,
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

    let (count, us_idx) = timed(|| {
        OpConfig::new()
            .before_join(from_vec(w.xs.clone()), from_vec(w.ys.clone()))
            .unwrap()
            .count()
            .unwrap()
    });
    let (naive, us_naive) = timed(|| {
        let mut c = 0u64;
        for x in &w.xs {
            for y in &w.ys {
                if x.period.before(&y.period) {
                    c += 1;
                }
            }
        }
        c
    });
    assert_eq!(count, naive);
    let (semi_n, us_semi) = timed(|| {
        let mut op = OpConfig::new()
            .before_semijoin(from_vec(w.xs.clone()), from_vec(w.ys.clone()))
            .unwrap();
        let mut n = 0;
        while op.next().unwrap().is_some() {
            n += 1;
        }
        n
    });
    println!("\n    Before-join result pairs: {count} (≈n²/2: the output itself is quadratic)");
    println!(
        "    count via sorted suffix arithmetic: {:>8.1} ms",
        us_idx as f64 / 1000.0
    );
    println!(
        "    count via naive double loop:        {:>8.1} ms",
        us_naive as f64 / 1000.0
    );
    println!(
        "    Before-semijoin (single scan, O(1) state): {semi_n} tuples in {:.1} ms",
        us_semi as f64 / 1000.0
    );
    json.insert(
        "before".into(),
        jobj! {
            "pairs" => count, "suffix_us" => us_idx, "naive_us" => us_naive, "semijoin_us" => us_semi,
        },
    );
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
        let ((), us_stream) = timed(|| {
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
            let mut j = OpConfig::new()
                .contain_join_ts_te(
                    from_sorted_vec(xs, StreamOrder::TS_ASC).unwrap(),
                    from_sorted_vec(ys, StreamOrder::TE_ASC).unwrap(),
                )
                .unwrap();
            while j.next().unwrap().is_some() {}
        });
        let nl = measure_nested_contain(&w);
        let model_stream = stream_join_cost(WorkspaceKind::ContainJoinTsTe, &sx, &sy);
        let model_nl = nested_loop_cost(&sx, &sy);
        println!(
            "    n={n:>6}: sort+stream {:>9.1} ms ({} spill pages)   nested-loop {:>9.1} ms   model ratio {:.0}×  measured {:.1}×",
            us_stream as f64 / 1000.0,
            io.snapshot().pages_written,
            nl.micros as f64 / 1000.0,
            model_nl.comparisons / model_stream.comparisons.max(1.0),
            nl.micros as f64 / us_stream.max(1) as f64,
        );
        rows_json.push(jobj! {
            "n" => n, "stream_us" => us_stream, "nested_us" => nl.micros,
            "spill_pages" => io.snapshot().pages_written,
        });
    }
    json.insert("sortcost".into(), Json::Array(rows_json));
}

/// E15 — time-partitioned parallel contain-join scaling.
///
/// Splits the timeline into K disjoint ranges with fringe replication and
/// runs one Contain-join instance per partition under `thread::scope`.
/// Two speedup figures are recorded:
///
/// * `critical_path` — serial comparisons ÷ max per-partition comparisons,
///   the architecture-independent bound that multi-core wall-clock tracks
///   (modulo the Little's-law fringe overhead `(K−1)·λ·E[D]`);
/// * `wall` — measured wall-clock ratio, which saturates at the number of
///   hardware cores on the machine running the bench.
///
/// Emits `results/BENCH_parallel.json`.
fn parallel(json: &mut BTreeMap<String, Json>) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("E15 · time-partitioned parallel Contain-join scaling ({cores} core(s))");
    let w = Workload::poisson("par", 40_000, 3.0, 30.0, 3.0, 8.0, 1501);
    let (sx, sy) = w.stats();

    let serial_model = stream_join_cost(WorkspaceKind::ContainJoinTsTe, &sx, &sy);
    // Static workspace bound from the analyzer's cap table: each partition
    // runs a ContainJoinTsTe over a fringe-replicated subset of the input,
    // so its resident set is a subset of the globally concurrent intervals
    // and the whole-input cap dominates every partition.
    let static_cap = workspace_cap(tdb::stream::StreamOpKind::ContainJoinTsTe, &sx, Some(&sy));
    let mut rows_json = Vec::new();
    let mut serial_us = 0u128;
    let mut serial_cmp = 0usize;
    for k in [1usize, 2, 4, 8] {
        let ((run, pairs), us) = timed(|| {
            let mut pairs = Vec::new();
            let run = parallel_join(
                ParallelPattern::Contains,
                w.xs.clone(),
                w.ys.clone(),
                k,
                OpConfig::new(),
                &mut |chunk| {
                    pairs.extend(chunk);
                    Ok(true)
                },
            )
            .unwrap();
            (run, pairs)
        });
        if k == 1 {
            serial_us = us;
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
        let speedup_wall = serial_us as f64 / us.max(1) as f64;
        let model = tdb::algebra::cost::parallel_join_cost(serial_model, k, &sx, &sy);
        // The analyzer's static bound must dominate the runtime peak that
        // OpReport::combine_parallel observed across all K partitions.
        let runtime_max = run.report.max_workspace();
        assert!(
            runtime_max <= static_cap,
            "K={k}: runtime workspace max {runtime_max} exceeded the static cap {static_cap}"
        );
        println!(
            "    K={k}: {:>8.1} ms wall ({speedup_wall:>4.2}×)   critical-path speedup {speedup_cp:>4.2}×   \
             {:>9} total comparisons   {} pairs",
            us as f64 / 1000.0,
            run.report.metrics.comparisons,
            pairs.len(),
        );
        rows_json.push(jobj! {
            "k" => k, "wall_us" => us, "pairs" => pairs.len(),
            "comparisons" => run.report.metrics.comparisons,
            "critical_path_comparisons" => critical,
            "speedup_critical_path" => speedup_cp,
            "speedup_wall" => speedup_wall,
            "model_comparisons" => model.comparisons,
            "workspace_max" => runtime_max,
            "workspace_static_cap" => static_cap,
        });
    }
    let doc = jobj! {
        "experiment" => "E15 parallel contain-join scaling",
        "cores" => cores,
        "n_per_side" => 40_000usize,
        "workspace_static_cap" => static_cap,
        "rows" => Json::Array(rows_json.clone()),
    };
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_parallel.json", doc.to_string_pretty()).unwrap();
    println!("\n    results/BENCH_parallel.json written");
    json.insert("parallel".into(), Json::Array(rows_json));
}

/// E21 — streaming result sinks vs output materialization, on the E15
/// 40k/side Contain-join point.
///
/// Three consumers of the identical kernel run through the one dispatch
/// entry (`run_join`): (a) a materializing consumer, which extends one
/// vector with every output pair; (b) a streaming consumer, which
/// processes each chunk and drops it — bounded residency, no
/// result-sized allocation; (c) `Emit::Count`, where the probe pass sums
/// hits without cloning a payload. Correctness first: the
/// chunk concatenation equals the materialized output, the count equals
/// its length, all three reports agree on comparisons and workspace
/// peak, and the peak stays under the analyzer's static cap
/// (`cap_exceeded == 0` — the sink never re-buffers what the kernel
/// streamed). An early-termination probe then confirms a limit-style
/// consumer stops the producer after one chunk. Timing is best-of-3
/// per path; the headline is the count-path speedup over
/// materialization. Emits `results/BENCH_sink.json`.
fn sink(json: &mut BTreeMap<String, Json>) {
    use tdb::stream::{run_join, Emit, StreamOpKind};
    const N_SIDE: usize = 40_000;
    println!(
        "E21 · streaming result sinks vs output materialization (Contain-join, {N_SIDE}/side)"
    );

    let w = Workload::poisson("par", N_SIDE, 3.0, 30.0, 3.0, 8.0, 1501);
    let (sx, sy) = w.stats();
    let cap = workspace_cap(StreamOpKind::ContainJoinTsTe, &sx, Some(&sy));
    let mut x = w.xs.clone();
    StreamOrder::TS_ASC.sort(&mut x);
    let mut y = w.ys.clone();
    StreamOrder::TE_ASC.sort(&mut y);
    // One run of the kernel at the default batch size into `emit`.
    let run = |emit: Emit<'_, (TsTuple, TsTuple)>| {
        run_join(
            StreamOpKind::ContainJoinTsTe,
            OpConfig::new(),
            x.clone(),
            StreamOrder::TS_ASC,
            y.clone(),
            StreamOrder::TE_ASC,
            emit,
        )
        .unwrap()
    };
    let materialize = || {
        let mut out = Vec::new();
        let (_, rep) = run(Emit::Chunks(&mut |mut chunk| {
            out.append(&mut chunk);
            Ok(true)
        }));
        (out, rep)
    };
    // The streaming consumer: tally each chunk, then drop it.
    let stream_path = || {
        let mut rows = 0usize;
        let mut chunks = 0usize;
        let (completed, rep) = run(Emit::Chunks(&mut |chunk| {
            rows += chunk.len();
            chunks += 1;
            Ok(true)
        }));
        assert!(completed, "unlimited consumer must drain the join");
        (rows, chunks, rep)
    };
    let count_path = || {
        let (_, rep) = run(Emit::Count);
        (rep.metrics.emitted, rep)
    };

    // Correctness pass (untimed): all three consumers see the same run.
    let mut cap_exceeded = 0usize;
    let (pairs, peak, comparisons, chunks) = {
        let (mat_out, mat_rep) = materialize();
        let (each_rows, each_chunks, each_rep) = stream_path();
        let (counted, count_rep) = count_path();
        assert_eq!(each_rows, mat_out.len(), "streamed row total diverged");
        assert_eq!(counted, mat_out.len(), "count-only total diverged");
        assert_eq!(
            each_rep.metrics, mat_rep.metrics,
            "push-path counters diverged"
        );
        assert_eq!(
            count_rep.metrics.comparisons, mat_rep.metrics.comparisons,
            "count-path comparisons diverged"
        );
        assert_eq!(
            each_rep.max_workspace(),
            mat_rep.max_workspace(),
            "push path must not change the workspace peak"
        );
        (
            mat_out.len(),
            mat_rep.max_workspace(),
            mat_rep.metrics.comparisons,
            each_chunks,
        )
    };
    if peak > cap {
        cap_exceeded += 1;
    }

    // Early termination: a limit-style consumer stops after one chunk.
    let early_offered = {
        let mut offered = 0usize;
        let (completed, _) = run(Emit::Chunks(&mut |chunk| {
            offered += chunk.len();
            Ok(false)
        }));
        assert!(!completed, "a declining consumer must stop the producer");
        assert!(
            offered < pairs / 2,
            "early stop offered {offered} of {pairs} pairs"
        );
        offered
    };

    // Timing pass: best-of-3 per path, outputs dropped per iteration.
    let best_of = |f: &dyn Fn() -> u128| (0..3).map(|_| f()).min().unwrap();
    let mat_us = best_of(&|| {
        let (out, us) = timed(materialize);
        std::hint::black_box(&out);
        us
    });
    let each_us = best_of(&|| {
        let (out, us) = timed(stream_path);
        std::hint::black_box(&out);
        us
    });
    let count_us = best_of(&|| {
        let (out, us) = timed(count_path);
        std::hint::black_box(&out);
        us
    });
    let speedup_each = mat_us as f64 / each_us.max(1) as f64;
    let speedup_count = mat_us as f64 / count_us.max(1) as f64;
    println!(
        "    materialized {:>8.1} ms   streamed {:>8.1} ms ({speedup_each:>4.2}×)   \
         count-only {:>8.1} ms ({speedup_count:>4.2}×)",
        mat_us as f64 / 1000.0,
        each_us as f64 / 1000.0,
        count_us as f64 / 1000.0,
    );
    println!(
        "    {pairs} pairs in {chunks} chunks   workspace {peak} ≤ cap {cap}   \
         early stop after {early_offered} rows"
    );
    assert_eq!(
        cap_exceeded, 0,
        "observed workspace peak exceeded the static cap"
    );
    assert!(
        speedup_count >= 1.8,
        "count-path speedup regressed below 1.8× ({speedup_count:.2}×): \
         the sink redesign's output-materialization win is gone"
    );

    let doc = jobj! {
        "experiment" => "E21 streaming result sinks vs output materialization",
        "n_per_side" => N_SIDE,
        "pairs" => pairs,
        "chunks" => chunks,
        "comparisons" => comparisons,
        "materialized_us" => mat_us,
        "streamed_us" => each_us,
        "count_us" => count_us,
        "speedup_streamed" => speedup_each,
        "speedup_count" => speedup_count,
        "early_stop_offered" => early_offered,
        "workspace_max" => peak,
        "workspace_static_cap" => cap,
        "cap_exceeded" => cap_exceeded,
    };
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_sink.json", doc.to_string_pretty()).unwrap();
    println!("\n    results/BENCH_sink.json written (cap_exceeded = {cap_exceeded})");
    json.insert("sink".into(), doc);
}

/// E6 — Figure 4: grouped-sum stream processor vs hash aggregation.
fn aggregate(json: &mut BTreeMap<String, Json>) {
    println!("E6 · Figure 4 — grouped sum: streaming (O(1) state) vs hash (O(groups))");
    let n_groups = 5_000;
    let per_group = 40;
    let rows: Vec<(Value, i64)> = (0..n_groups)
        .flat_map(|g| (0..per_group).map(move |i| (Value::Int(i64::from(g)), i64::from(i))))
        .collect();

    let ((n_stream, ws_stream), us_stream) = timed(|| {
        let mut op = GroupedSum::new(from_vec(rows.clone()), |r| r.0.clone(), |r| r.1);
        let mut n = 0;
        while op.next().unwrap().is_some() {
            n += 1;
        }
        (n, op.report().max_workspace())
    });
    let ((out_hash, ws_hash), us_hash) = timed(|| {
        tdb::stream::HashSum::run(from_vec(rows.clone()), |r| r.0.clone(), |r| r.1).unwrap()
    });
    assert_eq!(n_stream, out_hash.len());
    println!(
        "\n    streaming sum: {n_stream} groups, workspace {ws_stream} cell, {:.1} ms",
        us_stream as f64 / 1000.0
    );
    println!(
        "    hash sum:      {} groups, workspace {ws_hash} cells, {:.1} ms",
        out_hash.len(),
        us_hash as f64 / 1000.0
    );
    json.insert(
        "aggregate".into(),
        jobj! {
            "groups" => n_stream, "stream_ws" => ws_stream, "hash_ws" => ws_hash,
            "stream_us" => us_stream, "hash_us" => us_hash,
        },
    );
}

/// E16 — live ingestion soak: replay a generated Poisson workload through
/// the live engine with a contain-join standing query, measuring ingest
/// throughput, watermark lag, and the runtime workspace peak against the
/// statically proven cap. Emits `results/BENCH_live.json`.
fn live(json: &mut BTreeMap<String, Json>) {
    use tdb::live::{LiveConfig, LiveEngine};

    let n = 10_000usize;
    let chunk = 512usize;
    println!("E16 · live soak: {n}+{n} arrivals, chunk {chunk}, contain-join standing query");

    let interval_schema = || {
        TemporalSchema::new(
            tdb::core::Schema::new(vec![
                tdb::core::Field::new("Id", tdb::core::FieldType::Str),
                tdb::core::Field::new("Seq", tdb::core::FieldType::Int),
                tdb::core::Field::new("ValidFrom", tdb::core::FieldType::Time),
                tdb::core::Field::new("ValidTo", tdb::core::FieldType::Time),
            ]),
            2,
            3,
        )
        .unwrap()
    };
    let gen_rows = |gap: f64, dur: f64, seed: u64| -> Vec<Row> {
        IntervalGen::poisson(n, gap, dur, seed)
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
    // Containers arrive slowly with long lifespans; containees fast and
    // short — the same λ/E[D] contrast as the paper's workloads.
    let xs = gen_rows(3.0, 30.0, 1601);
    let ys = gen_rows(3.0, 8.0, 1602);

    let root = std::env::temp_dir().join(format!("tdb-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut catalog = Catalog::open(root.join("cat"), IoStats::new()).unwrap();
    let mut engine = LiveEngine::new(
        root.join("live"),
        LiveConfig {
            queue_capacity: 1024,
            stage_budget: 4096,
            ..LiveConfig::default()
        },
    );
    engine
        .register(&mut catalog, "X", interval_schema(), StreamOrder::TS_ASC)
        .unwrap();
    engine
        .register(&mut catalog, "Y", interval_schema(), StreamOrder::TS_ASC)
        .unwrap();

    let attrs = ["Id", "Seq", "ValidFrom", "ValidTo"];
    let logical = LogicalPlan::scan("X", "x", &attrs).join(
        LogicalPlan::scan("Y", "y", &attrs),
        vec![
            Atom::cols("x", "ValidFrom", CompOp::Lt, "y", "ValidFrom"),
            Atom::cols("y", "ValidTo", CompOp::Lt, "x", "ValidTo"),
        ],
    );
    engine.subscribe(&catalog, "contain-join", logical).unwrap();

    let start = std::time::Instant::now();
    let mut epochs = 0usize;
    let mut emitted = 0usize;
    let mut max_lag = 0u64;
    for i in (0..n).step_by(chunk) {
        for (name, rows_all) in [("X", &xs), ("Y", &ys)] {
            let batch: Vec<Row> = rows_all[i..(i + chunk).min(n)].to_vec();
            let report = engine.ingest(&mut catalog, name, batch).unwrap();
            emitted += report.deltas.iter().map(|d| d.rows.len()).sum::<usize>();
            max_lag = max_lag.max(
                engine
                    .relation(name)
                    .unwrap()
                    .progress()
                    .snapshot()
                    .watermark_lag,
            );
            epochs += 1;
        }
    }
    for name in ["X", "Y"] {
        let report = engine.seal(&mut catalog, name).unwrap();
        emitted += report.deltas.iter().map(|d| d.rows.len()).sum::<usize>();
        epochs += 1;
    }
    let wall_us = start.elapsed().as_micros();

    let sub = &engine.subscriptions()[0];
    let (peak, live_cap) = sub.workspace_watermark();
    assert!(
        peak <= live_cap,
        "live workspace peak {peak} exceeded the live-proven cap {live_cap}"
    );
    // The cap from the *final* full-stream statistics — the bound a static
    // load of the same data would have proven. Live execution must respect
    // it too: the soak never held more state than the batch proof allows.
    let sx = catalog.meta("X").unwrap().stats.clone();
    let sy = catalog.meta("Y").unwrap().stats.clone();
    let static_cap = workspace_cap(tdb::stream::StreamOpKind::ContainJoinTsTe, &sx, Some(&sy));
    assert!(
        peak <= static_cap,
        "live workspace peak {peak} exceeded the static batch cap {static_cap}"
    );

    let arrivals = 2 * n;
    let throughput = arrivals as f64 / (wall_us.max(1) as f64 / 1e6);
    println!(
        "    {arrivals} arrivals in {:.1} ms over {epochs} epochs — {:.0} arrivals/s",
        wall_us as f64 / 1000.0,
        throughput,
    );
    println!(
        "    {emitted} result rows emitted; workspace peak {peak} ≤ live cap {live_cap} ≤? static cap {static_cap}; max watermark lag {max_lag}"
    );

    let doc = jobj! {
        "experiment" => "E16 live ingestion soak",
        "arrivals" => arrivals,
        "epochs" => epochs,
        "wall_us" => wall_us,
        "throughput_per_s" => throughput,
        "rows_emitted" => emitted,
        "workspace_peak" => peak,
        "workspace_live_cap" => live_cap,
        "workspace_static_cap" => static_cap,
        "max_watermark_lag" => max_lag,
        "evaluations" => sub.evaluations(),
    };
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_live.json", doc.to_string_pretty()).unwrap();
    println!("\n    results/BENCH_live.json written");
    json.insert(
        "live".into(),
        jobj! {
            "throughput_per_s" => throughput, "workspace_peak" => peak,
            "workspace_live_cap" => live_cap, "workspace_static_cap" => static_cap,
            "max_watermark_lag" => max_lag, "rows_emitted" => emitted,
        },
    );
}

/// E20 — durability: WAL fsync-policy throughput, recovery cost against
/// the open-window size, and post-recovery query health. Recovery cost
/// is measured over a {window} × {log length} matrix: replayed bytes
/// must track the open window and stay flat as the log grows (the
/// checkpoint at every promotion truncates the replayed prefix). Emits
/// `results/BENCH_wal.json`.
fn wal(json: &mut BTreeMap<String, Json>) {
    use tdb::live::{LiveConfig, LiveEngine};
    use tdb::wal::FlushPolicy;
    use tdb_engine::{ClientState, Engine, Response};

    println!("E20 · durability: fsync policies, recovery vs open window, post-recovery queries");

    let root = std::env::temp_dir().join(format!("tdb-e20-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let schema = || {
        TemporalSchema::new(
            tdb::core::Schema::new(vec![
                tdb::core::Field::new("Id", tdb::core::FieldType::Str),
                tdb::core::Field::new("Seq", tdb::core::FieldType::Int),
                tdb::core::Field::new("ValidFrom", tdb::core::FieldType::Time),
                tdb::core::Field::new("ValidTo", tdb::core::FieldType::Time),
            ]),
            2,
            3,
        )
        .unwrap()
    };
    // Deterministic unit-gap arrivals: with slack w, exactly w + 1 rows
    // stay open, so the open window is a controlled variable.
    let mk_rows = |n: usize| -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::str(format!("t{i}")),
                    Value::Int(i as i64),
                    Value::Time(TimePoint(i as i64)),
                    Value::Time(TimePoint(i as i64 + 5)),
                ])
            })
            .collect()
    };
    let open = |dir: &std::path::Path, flush: FlushPolicy, slack: i64| {
        let cat = Catalog::open_durable(dir.join("cat"), IoStats::new()).unwrap();
        let config = LiveConfig {
            flush,
            slack,
            stage_budget: 4096,
            ..LiveConfig::default()
        };
        let (eng, replayed) = LiveEngine::open_durable(
            dir.join("live"),
            dir.join("wal"),
            config,
            &cat,
            &tdb_obs::Registry::new(),
        )
        .unwrap();
        (cat, eng, replayed)
    };

    // ── (a) acknowledged-ingest throughput per fsync policy ──
    let n = 4_000usize;
    let chunk = 64usize;
    let rows = mk_rows(n);
    let mut policies_json = Vec::new();
    for flush in [
        FlushPolicy::PerRecord,
        FlushPolicy::GroupCommit,
        FlushPolicy::Off,
    ] {
        let dir = root.join(format!("p-{}", flush.name()));
        let (mut cat, mut eng, _) = open(&dir, flush, 0);
        eng.register(&mut cat, "X", schema(), StreamOrder::TS_ASC)
            .unwrap();
        let start = std::time::Instant::now();
        for batch in rows.chunks(chunk) {
            eng.ingest(&mut cat, "X", batch.to_vec()).unwrap();
        }
        let wall_us = start.elapsed().as_micros().max(1);
        let per_s = n as f64 / (wall_us as f64 / 1e6);
        println!(
            "    {:>12}: {n} arrivals (chunk {chunk}) in {:>8.1} ms — {per_s:>9.0} arrivals/s",
            flush.name(),
            wall_us as f64 / 1000.0,
        );
        policies_json.push(jobj! {
            "policy" => flush.name(), "arrivals" => n, "chunk" => chunk,
            "wall_us" => wall_us, "arrivals_per_s" => per_s,
        });
    }

    // ── (b) recovery cost: open window × log length ──
    let mut recovery_json = Vec::new();
    let mut replay_bytes = BTreeMap::new();
    for window in [256usize, 1024] {
        for length in [4_000usize, 16_000] {
            let dir = root.join(format!("r-{window}-{length}"));
            {
                let (mut cat, mut eng, _) = open(&dir, FlushPolicy::GroupCommit, window as i64);
                eng.register(&mut cat, "X", schema(), StreamOrder::TS_ASC)
                    .unwrap();
                for batch in mk_rows(length).chunks(256) {
                    eng.ingest(&mut cat, "X", batch.to_vec()).unwrap();
                }
            }
            let (cat, eng, replayed) = open(&dir, FlushPolicy::GroupCommit, window as i64);
            let rel = eng.relation("X").unwrap();
            assert_eq!(
                rel.staged_len(),
                window + 1,
                "unit-gap arrivals with slack {window} leave {window}+1 rows open"
            );
            assert_eq!(
                rel.admitted() as usize,
                length,
                "recovery must restore every acknowledged arrival"
            );
            assert_eq!(cat.meta("X").unwrap().rows, length - window - 1);
            println!(
                "    window {window:>5} · log {length:>6} rows: replayed {:>7} bytes \
                 ({:>4} rows restaged) in {:>6} µs",
                replayed.bytes, replayed.rows_restaged, replayed.duration_us
            );
            replay_bytes.insert((window, length), replayed.bytes);
            recovery_json.push(jobj! {
                "open_window" => window, "log_rows" => length,
                "replay_bytes" => replayed.bytes,
                "rows_restaged" => replayed.rows_restaged,
                "recovery_us" => replayed.duration_us,
                "torn_truncations" => replayed.torn_truncations,
            });
        }
    }
    // Replay cost tracks the open window, not the log length: a 4× longer
    // log must not grow replayed bytes by more than the (tiny) variation
    // in row payload size, while a 4× wider window must show up ~4×.
    for window in [256usize, 1024] {
        let (short, long) = (
            replay_bytes[&(window, 4_000)],
            replay_bytes[&(window, 16_000)],
        );
        assert!(
            long <= short + short / 4,
            "window {window}: replay bytes grew with log length ({short} → {long})"
        );
    }
    for length in [4_000usize, 16_000] {
        let (narrow, wide) = (replay_bytes[&(256, length)], replay_bytes[&(1024, length)]);
        assert!(
            wide >= narrow * 2,
            "log {length}: widening the open window 4x must grow replay ({narrow} → {wide})"
        );
    }

    // ── (c) post-recovery query health: traced queries over a recovered
    // engine must stay within their proven workspace caps ──
    let dir = root.join("engine");
    {
        let mut e = Engine::open_durable(&dir, FlushPolicy::GroupCommit).unwrap();
        let lines: Vec<String> = (0..512).map(|i| format!("{} {} s{i}", i, i + 20)).collect();
        let resp = e.ingest_text("S", &lines.join("\n"));
        assert!(matches!(resp, Response::Ingest(_)), "{resp:?}");
    }
    let mut e = Engine::open_durable(&dir, FlushPolicy::GroupCommit).unwrap();
    let mut ctx = ClientState::default();
    let resp = e.execute(&mut ctx, "\\trace on");
    assert!(!matches!(resp, Response::Error(_)), "{resp:?}");
    let resp = e.execute(
        &mut ctx,
        "range of a is S range of b is S retrieve (P=a.Id, Q=b.Id) \
         where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
    );
    assert!(!matches!(resp, Response::Error(_)), "{resp:?}");
    let stats = e.stats_report();
    assert_eq!(
        stats.cap_exceeded, 0,
        "post-recovery queries exceeded a proven workspace cap"
    );
    let wal_stats = stats.wal.expect("durable engine reports wal stats");
    println!(
        "    post-recovery: replayed {} rows, traced self-join ran with cap_exceeded = {}",
        e.replay_summary().map_or(0, |r| r.rows_restaged),
        stats.cap_exceeded
    );

    let doc = jobj! {
        "experiment" => "E20 WAL durability",
        "fsync_policies" => Json::Array(policies_json.clone()),
        "recovery" => Json::Array(recovery_json.clone()),
        "post_recovery_cap_exceeded" => stats.cap_exceeded,
        "post_recovery_replay_bytes" => wal_stats.replay_bytes,
    };
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_wal.json", doc.to_string_pretty()).unwrap();
    println!("\n    results/BENCH_wal.json written");
    json.insert(
        "wal".into(),
        jobj! {
            "fsync_policies" => Json::Array(policies_json),
            "recovery" => Json::Array(recovery_json),
            "post_recovery_cap_exceeded" => stats.cap_exceeded,
        },
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// E17 — network soak: a client-driven workload through the framed TCP
/// server. One ingesting client streams two interval relations in
/// chunked `Ingest` requests while a second connection holds a standing
/// contain-join subscription and receives every delta as a pushed
/// frame. Reports request latency (p50/p95), arrival throughput, and
/// push delivery — the subscriber must receive exactly the rows the
/// server's subscription emitted.
fn net(json: &mut BTreeMap<String, Json>) {
    use tdb_engine::Response;
    use tdb_net::{serve, Client, NetConfig};

    let n = 4_000usize;
    let chunk = 200usize;
    println!("E17 · net soak: {n}+{n} arrivals over {chunk}-row framed requests, pushed deltas");

    let gen_lines = |gap: f64, dur: f64, seed: u64, tag: &str| -> Vec<String> {
        IntervalGen::poisson(n, gap, dur, seed)
            .generate()
            .iter()
            .enumerate()
            .map(|(i, t)| format!("{} {} {tag}{i} {i}", t.ts().ticks(), t.te().ticks()))
            .collect()
    };
    let xs = gen_lines(3.0, 30.0, 1701, "x");
    let ys = gen_lines(3.0, 8.0, 1702, "y");

    let root = std::env::temp_dir().join(format!("tdb-e17-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.addr();

    let mut ing = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();

    // First chunk of each relation registers it; then the standing query
    // can compile against the shared catalog.
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut timed_ingest = |client: &mut Client, rel: &str, lines: &[String]| {
        let text = lines.join("\n");
        let start = std::time::Instant::now();
        let reply = client.ingest(rel, &text).unwrap();
        latencies_us.push(start.elapsed().as_micros() as u64);
        assert!(
            matches!(reply, Response::Ingest(_)),
            "ingest failed mid-soak: {reply:?}"
        );
    };
    let wall = std::time::Instant::now();
    timed_ingest(&mut ing, "X", &xs[..chunk]);
    timed_ingest(&mut ing, "Y", &ys[..chunk]);

    let reply = sub
        .request(
            "\\subscribe range of a is X range of b is Y \
             retrieve (P=a.Id, Q=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
        )
        .unwrap();
    let Response::Subscribed(s) = reply else {
        panic!("subscription rejected: {reply:?}");
    };
    let mut delivered = s.initial.rows.len() as u64;

    for i in (chunk..n).step_by(chunk) {
        let hi = (i + chunk).min(n);
        timed_ingest(&mut ing, "X", &xs[i..hi]);
        timed_ingest(&mut ing, "Y", &ys[i..hi]);
    }
    for rel in ["X", "Y"] {
        let reply = ing.request(&format!("\\live close {rel}")).unwrap();
        assert!(matches!(reply, Response::Sealed(_)), "{reply:?}");
    }
    let wall_us = wall.elapsed().as_micros() as u64;

    // Delivery check: the subscriber must drain exactly as many rows as
    // the server's subscription emitted (initial reply + pushed frames).
    let status = ing.request("\\live").unwrap();
    let Response::Live(live) = status else {
        panic!("expected live status, got {status:?}");
    };
    let emitted = live.subscriptions[0].emitted;
    let mut frames = 0u64;
    while delivered < emitted {
        let delta = sub
            .wait_push(std::time::Duration::from_secs(10))
            .expect("push delivery stalled before all emitted rows arrived");
        assert!(
            delta.watermark.is_some(),
            "finalizing delta lost its watermark"
        );
        delivered += delta.rows.len() as u64;
        frames += 1;
    }
    assert_eq!(
        delivered, emitted,
        "subscriber received {delivered} rows, server emitted {emitted}"
    );

    latencies_us.sort_unstable();
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];
    let (p50, p95) = (pct(0.50), pct(0.95));
    let arrivals = 2 * n;
    let throughput = arrivals as f64 / (wall_us.max(1) as f64 / 1e6);
    println!(
        "    {arrivals} arrivals over {} requests in {:.1} ms — {:.0} arrivals/s",
        latencies_us.len(),
        wall_us as f64 / 1000.0,
        throughput,
    );
    println!(
        "    request latency p50 {p50} µs, p95 {p95} µs; {delivered} rows push-delivered in {frames} frames"
    );

    sub.close();
    ing.close();
    server.shutdown();

    let doc = jobj! {
        "experiment" => "E17 framed-TCP network soak",
        "arrivals" => arrivals,
        "requests" => latencies_us.len(),
        "wall_us" => wall_us,
        "throughput_per_s" => throughput,
        "latency_p50_us" => p50,
        "latency_p95_us" => p95,
        "rows_delivered" => delivered,
        "push_frames" => frames,
    };
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_net.json", doc.to_string_pretty()).unwrap();
    println!("\n    results/BENCH_net.json written");
    json.insert(
        "net".into(),
        jobj! {
            "throughput_per_s" => throughput, "latency_p50_us" => p50,
            "latency_p95_us" => p95, "rows_delivered" => delivered,
            "push_frames" => frames,
        },
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// E18 — observability: tracing overhead and a metrics-scraped soak.
///
/// Two parts:
///
/// * **Overhead** — the E15 contain-join workload executed through the
///   physical plan with trace collection off and on (min-of-k each).
///   Per-operator metrics are already maintained by the operators
///   themselves, so collecting a trace only snapshots them; the run
///   asserts the traced execution stays within 5% of the baseline.
/// * **Soak** — a live+net workload (chunked ingestion, one standing
///   contain-join subscription, batch queries on the side) served with
///   the Prometheus listener attached. `\stats` snapshots are taken
///   every chunk (tracking watermark-lag and queue-depth high-water);
///   at the end the `/metrics` page is scraped over plain HTTP and the
///   run asserts `tdb_cap_exceeded_total 0` — every observed workspace
///   peak stayed at or below its proven cap.
///
/// Emits `results/BENCH_obs.json`.
fn obs(json: &mut BTreeMap<String, Json>) {
    use tdb_engine::{interval_schema, Response};
    use tdb_net::{serve, Client, NetConfig};

    println!("E18 · observability: trace overhead on the E15 workload + scraped live/net soak");

    // ── (a) tracing overhead on the E15-style contain-join ──
    let w = Workload::poisson("obs", 20_000, 3.0, 30.0, 3.0, 8.0, 1801);
    let dir = std::env::temp_dir().join(format!("tdb-e18-cat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
    let to_rows = |ts: &[TsTuple]| -> Vec<Row> {
        ts.iter()
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
    cat.create_relation(
        "X",
        interval_schema().unwrap(),
        &to_rows(&w.xs_sorted(StreamOrder::TS_ASC)),
        vec![StreamOrder::TS_ASC],
    )
    .unwrap();
    let (logical, _q) = compile(
        "range of a is X range of b is X retrieve (P=a.Id, Q=b.Id) \
         where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
        &cat,
    )
    .unwrap();
    let optimized = conventional_optimize(logical);
    let physical = plan(&optimized, PlannerConfig::stream()).unwrap();
    // Warm-up run; also the span/pair counts reported below.
    let warm = physical
        .execute(&cat, ExecOptions::new().with_trace(true))
        .unwrap();
    let (pairs, spans) = (warm.rows.len(), warm.trace.len());
    let min_of = |traced: bool| -> u128 {
        (0..5)
            .map(|_| {
                timed(|| {
                    physical
                        .execute(&cat, ExecOptions::new().with_trace(traced))
                        .unwrap()
                })
                .1
            })
            .min()
            .unwrap()
    };
    let base_us = min_of(false).max(1);
    let traced_us = min_of(true);
    let overhead = traced_us as f64 / base_us as f64;
    println!(
        "    tracing off {base_us} µs, on {traced_us} µs — {overhead:.3}× \
         ({pairs} pairs, {spans} instrumented spans)"
    );
    assert!(
        overhead <= 1.05,
        "per-query tracing overhead {overhead:.3}× exceeds the 5% budget"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // ── (b) live+net soak with the Prometheus endpoint attached ──
    let n = 2_000usize;
    let chunk = 250usize;
    let gen_lines = |gap: f64, dur: f64, seed: u64, tag: &str| -> Vec<String> {
        IntervalGen::poisson(n, gap, dur, seed)
            .generate()
            .iter()
            .enumerate()
            .map(|(i, t)| format!("{} {} {tag}{i} {i}", t.ts().ticks(), t.te().ticks()))
            .collect()
    };
    let xs = gen_lines(3.0, 30.0, 1811, "x");
    let ys = gen_lines(3.0, 8.0, 1812, "y");

    let root = std::env::temp_dir().join(format!("tdb-e18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let source = server.metrics_source();
    let metrics = tdb_obs::serve_metrics("127.0.0.1:0", move || source.render()).unwrap();
    let addr = server.addr();

    let mut ing = Client::connect(addr).unwrap();
    let mut sub = Client::connect(addr).unwrap();
    let ingest = |client: &mut Client, rel: &str, lines: &[String]| {
        let reply = client.ingest(rel, &lines.join("\n")).unwrap();
        assert!(matches!(reply, Response::Ingest(_)), "{reply:?}");
    };
    let wall = std::time::Instant::now();
    ingest(&mut ing, "X", &xs[..chunk]);
    ingest(&mut ing, "Y", &ys[..chunk]);
    let reply = sub
        .request(
            "\\subscribe range of a is X range of b is Y \
             retrieve (P=a.Id, Q=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
        )
        .unwrap();
    assert!(matches!(reply, Response::Subscribed(_)), "{reply:?}");

    let mut max_lag = 0u64;
    let mut max_queue_depth = 0u64;
    for i in (chunk..n).step_by(chunk) {
        let hi = (i + chunk).min(n);
        ingest(&mut ing, "X", &xs[i..hi]);
        ingest(&mut ing, "Y", &ys[i..hi]);
        let Response::Stats(stats) = ing.stats().unwrap() else {
            panic!("stats frame must answer with a stats report");
        };
        assert_eq!(stats.cap_exceeded, 0, "cap exceeded mid-soak: {stats:?}");
        for rel in &stats.live {
            max_lag = max_lag.max(rel.watermark_lag);
            max_queue_depth = max_queue_depth.max(rel.queue_depth);
        }
    }
    // A few traced batch queries on the side, so query counters and the
    // predicted-vs-observed spans show up in the scrape.
    let reply = ing.request("\\trace on").unwrap();
    assert!(!matches!(reply, Response::Error(_)), "{reply:?}");
    let mut peak_vs_cap = Vec::new();
    for _ in 0..3 {
        let reply = ing
            .request(
                "range of a is X range of b is X retrieve (P=a.Id, Q=b.Id) \
                 where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
            )
            .unwrap();
        let Response::Query(q) = reply else {
            panic!("expected query report, got {reply:?}");
        };
        for span in &q.trace.expect("\\trace on attaches traces").spans {
            if let Some(cap) = span.predicted_cap {
                assert!(
                    span.workspace_peak <= cap,
                    "observed {} over proven cap {cap} in {}",
                    span.workspace_peak,
                    span.operator
                );
                peak_vs_cap.push((span.workspace_peak, cap));
            }
        }
    }
    for rel in ["X", "Y"] {
        let reply = ing.request(&format!("\\live close {rel}")).unwrap();
        assert!(matches!(reply, Response::Sealed(_)), "{reply:?}");
    }
    let wall_us = wall.elapsed().as_micros() as u64;

    // Scrape the Prometheus endpoint the way a collector would.
    let page = {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(metrics.addr()).unwrap();
        write!(
            s,
            "GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    assert!(
        page.contains("tdb_cap_exceeded_total 0"),
        "an observed workspace peak exceeded its proven cap:\n{page}"
    );
    assert!(page.contains("tdb_live_cap_violations 0"), "{page}");
    assert!(page.contains("tdb_queries_total 3"), "{page}");
    assert!(page.contains("tdb_net_connections 2"), "{page}");
    assert!(
        page.contains("# TYPE tdb_query_duration_us histogram"),
        "{page}"
    );

    let arrivals = 2 * n;
    let throughput = arrivals as f64 / (wall_us.max(1) as f64 / 1e6);
    let worst = peak_vs_cap.iter().copied().max().unwrap_or((0, 0));
    println!(
        "    soak: {arrivals} arrivals in {:.1} ms ({throughput:.0}/s), \
         max watermark lag {max_lag}, queue-depth high-water {max_queue_depth}",
        wall_us as f64 / 1000.0,
    );
    println!(
        "    scrape OK: cap_exceeded 0, worst observed workspace {} vs proven cap {}",
        worst.0, worst.1
    );

    sub.close();
    ing.close();
    metrics.shutdown();
    server.shutdown();

    let doc = jobj! {
        "experiment" => "E18 observability overhead + metrics-scraped soak",
        "trace_off_us" => base_us,
        "trace_on_us" => traced_us,
        "trace_overhead" => overhead,
        "overhead_budget" => 1.05f64,
        "join_pairs" => pairs,
        "instrumented_spans" => spans,
        "soak_arrivals" => arrivals,
        "soak_wall_us" => wall_us,
        "soak_throughput_per_s" => throughput,
        "max_watermark_lag" => max_lag,
        "max_queue_depth" => max_queue_depth,
        "worst_workspace_peak" => worst.0,
        "worst_workspace_cap" => worst.1,
        "cap_exceeded" => 0usize,
    };
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_obs.json", doc.to_string_pretty()).unwrap();
    println!("\n    results/BENCH_obs.json written");
    json.insert(
        "obs".into(),
        jobj! {
            "trace_overhead" => overhead, "max_watermark_lag" => max_lag,
            "worst_workspace_peak" => worst.0, "worst_workspace_cap" => worst.1,
            "cap_exceeded" => 0usize,
        },
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// E22 — stage spans + SLO engine: overhead, event-ring integrity, and
/// the burn-rate health flip observed through `/healthz`.
///
/// Three parts:
///
/// * **Overhead** — a contain-join executed through the full engine path
///   (parse → plan → execute → render) with stage spans off and on
///   (min-of-k each). Every query also classifies into the latency SLO
///   and appends to the event ring, so the measured ratio covers the
///   whole per-query bookkeeping; the run asserts it stays within the
///   same 5% budget E18 enforces for operator traces.
/// * **Burn-rate flip** — an impossible latency objective (1 µs) is
///   injected in-process; the run asserts `\stats` health goes critical,
///   the latency objective's fast burn crosses its threshold, and the
///   event ring recorded the transition.
/// * **Health surface** — the same injection against a framed-TCP server
///   whose `/healthz` endpoint (attached via
///   `serve_metrics_with_health`) is polled over raw HTTP; the run
///   measures the wall time until the probe answers 503 and asserts the
///   flip lands within the fast window. The scrape also checks
///   `tdb_cap_exceeded_total 0` and that the per-stage histograms and
///   SLO gauges are exported.
///
/// Emits `results/BENCH_slo.json`.
fn slo(json: &mut BTreeMap<String, Json>) {
    use tdb_engine::{ClientState, Engine, Response};
    use tdb_net::{serve, Client, NetConfig};

    println!("E22 · SLO engine: span overhead, burn-rate flip, and the /healthz surface");

    // ── (a) span + SLO bookkeeping overhead on the full engine path ──
    let dir = std::env::temp_dir().join(format!("tdb-e22-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = Engine::open(&dir).unwrap();
    let mut ctx = ClientState::default();
    let gen = e.execute(&mut ctx, "\\gen intervals X 20000 3 30 22");
    assert!(matches!(gen, Response::Info(_)), "{gen:?}");
    let query = "range of a is X range of b is X retrieve (P=a.Id, Q=b.Id) \
                 where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;";
    // Warm-up: touches the catalog cache and reports the pair count.
    let warm = e.execute(&mut ctx, query);
    let Response::Query(q) = warm else {
        panic!("expected query report, got {warm:?}");
    };
    let pairs = q.rows.total;
    // Interleave the off/on samples pairwise so slow drift (allocator
    // state, CPU frequency, noisy neighbours) hits both sides equally;
    // the min over the rounds then compares best-case against best-case.
    let mut spans_off_us = u128::MAX;
    let mut spans_on_us = u128::MAX;
    for _ in 0..9 {
        for (toggle, best) in [
            ("\\spans off", &mut spans_off_us),
            ("\\spans on", &mut spans_on_us),
        ] {
            let ack = e.execute(&mut ctx, toggle);
            assert!(matches!(ack, Response::Info(_)), "{ack:?}");
            let (resp, us) = timed(|| e.execute(&mut ctx, query));
            assert!(matches!(resp, Response::Query(_)), "{resp:?}");
            *best = (*best).min(us);
        }
    }
    let spans_off_us = spans_off_us.max(1);
    let overhead = spans_on_us as f64 / spans_off_us as f64;
    println!(
        "    spans off {spans_off_us} µs, on {spans_on_us} µs — {overhead:.3}× \
         ({pairs} pairs per query)"
    );
    assert!(
        overhead <= 1.05,
        "span + SLO bookkeeping overhead {overhead:.3}× exceeds the 5% budget"
    );

    // ── (b) burn-rate flip, observed in-process ──
    let set = e.execute(&mut ctx, "\\slo latency 1");
    assert!(matches!(set, Response::Info(_)), "{set:?}");
    let resp = e.execute(&mut ctx, query);
    assert!(matches!(resp, Response::Query(_)), "{resp:?}");
    let Response::Stats(stats) = e.execute(&mut ctx, "\\stats") else {
        panic!("\\stats must answer with a stats report");
    };
    assert_eq!(stats.cap_exceeded, 0, "cap exceeded: {stats:?}");
    assert_eq!(stats.health, "critical", "{stats:?}");
    let latency = stats
        .slo
        .iter()
        .find(|s| s.objective == "latency")
        .expect("latency objective in stats")
        .clone();
    assert!(
        latency.fast_burn >= 14.0,
        "fast burn {} under threshold",
        latency.fast_burn
    );
    let Response::Info(events) = e.execute(&mut ctx, "\\events") else {
        panic!("\\events must answer with an event listing");
    };
    assert!(events.contains("-> critical"), "{events}");
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);

    // ── (c) the /healthz surface over the wire ──
    let root = std::env::temp_dir().join(format!("tdb-e22-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let source = server.metrics_source();
    let health_source = source.clone();
    let metrics = tdb_obs::serve_metrics_with_health(
        "127.0.0.1:0",
        move || source.render(),
        move || health_source.health(),
    )
    .unwrap();
    let get = |path: &str| -> String {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(metrics.addr()).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };

    let mut client = Client::connect(server.addr()).unwrap();
    let gen = client.request("\\gen intervals X 2000 3 30 23").unwrap();
    assert!(matches!(gen, Response::Info(_)), "{gen:?}");
    let probe = "range of a is X retrieve (P=a.Id) where a.ValidFrom < 100;";
    let resp = client.request(probe).unwrap();
    assert!(matches!(resp, Response::Query(_)), "{resp:?}");
    let healthy = get("/healthz");
    assert!(healthy.starts_with("HTTP/1.1 200 OK"), "{healthy}");

    // Inject the stall: with a 1 µs objective every query misses, the
    // fast and slow windows both burn hot, and the probe must go 503.
    let fast_window_s = 60u64;
    let stall = std::time::Instant::now();
    let set = client.request("\\slo latency 1").unwrap();
    assert!(matches!(set, Response::Info(_)), "{set:?}");
    let flip_ms = loop {
        let resp = client.request(probe).unwrap();
        assert!(matches!(resp, Response::Query(_)), "{resp:?}");
        let reply = get("/healthz");
        if reply.starts_with("HTTP/1.1 503") {
            assert!(reply.contains("critical"), "{reply}");
            break stall.elapsed().as_millis() as u64;
        }
        assert!(
            stall.elapsed().as_secs() < fast_window_s,
            "/healthz never flipped inside the fast window:\n{reply}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    println!("    /healthz flipped to 503 {flip_ms} ms after the stall injection");

    let Response::Stats(stats) = client.stats().unwrap() else {
        panic!("stats frame must answer with a stats report");
    };
    assert_eq!(stats.cap_exceeded, 0, "cap exceeded: {stats:?}");
    let page = get("/metrics");
    assert!(page.contains("tdb_cap_exceeded_total 0"), "{page}");
    assert!(page.contains("tdb_slo_burn_rate_fast"), "{page}");
    assert!(
        page.contains("tdb_stage_duration_us_count{stage=\"execute\"}"),
        "{page}"
    );

    client.close();
    metrics.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    let doc = jobj! {
        "experiment" => "E22 span+SLO overhead and the burn-rate health flip",
        "spans_off_us" => spans_off_us,
        "spans_on_us" => spans_on_us,
        "span_overhead" => overhead,
        "overhead_budget" => 1.05f64,
        "join_pairs" => pairs,
        "fast_burn_at_flip" => latency.fast_burn,
        "healthz_flip_ms" => flip_ms,
        "fast_window_s" => fast_window_s,
        "cap_exceeded" => 0usize,
    };
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_slo.json", doc.to_string_pretty()).unwrap();
    println!("\n    results/BENCH_slo.json written");
    json.insert(
        "slo".into(),
        jobj! {
            "span_overhead" => overhead, "healthz_flip_ms" => flip_ms,
            "fast_burn_at_flip" => latency.fast_burn, "cap_exceeded" => 0usize,
        },
    );
}
