//! The whole suite: every workload, end to end and traced, each run a
//! process launch of its own, optionally several sets compared.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::server::{nproc, repo_root};
use crate::stats::{median, quartiles, relative_spread};
use crate::workload::Workload;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use tdb::core::Json;

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

/// Print what the numbers were measured on.
pub fn print_fingerprint() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let commit = first_line_of(
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(repo_root()),
    )
    .unwrap_or_else(|| "unknown".into());
    println!(
        "  machine: nproc {} · cpu {cpu} · kernel {kernel} · {rustc} · commit {commit}",
        nproc()
    );
}

/// The metrics one child run printed: name → value.
type Values = BTreeMap<String, f64>;

/// Launch this executable for one run and parse the last line it prints.
/// `Ok(None)`: the run reported a failed output check.
fn launch(workload: Workload, trace: bool, args: &Args) -> Result<Option<Values>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot launch a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} --trace {}: no result line ({e}); exit {:?}",
            workload.name(),
            u8::from(trace),
            out.status.code()
        )
    })?;
    let field = |k: &str| doc.get(k).and_then(Json::as_i64).unwrap_or(-1);
    println!(
        "    attempted {} · failed {} · correct {}",
        field("attempted"),
        field("failed"),
        doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
    );
    if doc.get("correct").and_then(Json::as_bool) != Some(true) || !out.status.success() {
        return Ok(None);
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?;
    Ok(Some(
        metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    ))
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.map(str::to_owned)
                .zip(bound)
                .ok_or_else(|| "an end_to_end metric lacks a name or bound".to_string())
        })
        .collect()
}

/// Run the suite `args.sets` times, print every metric, compare sets.
/// `Ok(false)`: an output check failed, or two sets disagree.
pub fn run(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    println!(
        "tdb benchmark · {} set(s) · seed {} · {} s per run{}",
        args.sets,
        args.seed,
        args.seconds,
        if args.quick {
            " · QUICK: a tenth of the operations, numbers not comparable"
        } else {
            ""
        }
    );
    print_fingerprint();

    // (workload, metric) → one value per set.
    let mut seen: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..args.sets {
        // Alternate the order, so that what runs before a workload varies.
        let mut order = Workload::ALL.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            for trace in [false, true] {
                println!(
                    "  set {} · {} · {}",
                    set + 1,
                    workload.name(),
                    if trace { "traced" } else { "end to end" }
                );
                match launch(workload, trace, args)? {
                    Some(values) => {
                        for (name, value) in values {
                            seen.entry((workload.name(), name)).or_default().push(value);
                        }
                    }
                    None => ok = false,
                }
            }
        }
    }

    for workload in Workload::ALL {
        println!("\n{}", workload.name());
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            // A layer the workload does not enter reports 0 in every set.
            let Some(values) = seen
                .get(&(workload.name(), def.name.to_string()))
                .filter(|values| values.iter().any(|&v| v != 0.0))
            else {
                continue;
            };
            ok &= report(
                workload,
                def,
                values,
                bounds.get(def.name).copied(),
                args.quick,
            );
        }
    }
    println!(
        "\n{}",
        if ok {
            "every output check passed and the sets agree"
        } else {
            "FAILED: see above"
        }
    );
    Ok(ok)
}

/// Print one metric of one workload over the sets; `false` if two sets
/// disagree by more than its bound, or an exact count did not repeat.
fn report(
    workload: Workload,
    def: &MetricDef,
    values: &[f64],
    bound: Option<f64>,
    quick: bool,
) -> bool {
    let tag = format!(
        " ({} is better){}",
        if def.higher_is_better {
            "higher"
        } else {
            "lower"
        },
        if quick { " quick" } else { "" }
    );
    let m = median(values);
    if values.len() < 2 {
        println!("  {:<34} {m:>16.4} {}{tag}", def.name, def.unit);
        return true;
    }
    let (q1, q3) = quartiles(values);
    let spread = relative_spread(values);
    println!(
        "  {:<34} median {m:>14.4} {:<6} q1 {q1:.4} q3 {q3:.4} spread {:.2}%{tag}",
        def.name,
        def.unit,
        spread * 100.0
    );
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if def.exact && lo != hi {
        println!(
            "    FAILED: {} on {} is a count and did not repeat: {values:?}",
            def.name,
            workload.name()
        );
        return false;
    }
    // Quick runs take too few samples to hold a bound.
    match bound {
        Some(bound) if !quick && m != 0.0 && (hi - lo) / m.abs() > bound => {
            println!(
                "    FAILED: sets disagree on {} of {} by {:.1}%, over its bound of {:.0}%",
                def.name,
                workload.name(),
                (hi - lo) / m.abs() * 100.0,
                bound * 100.0
            );
            false
        }
        _ => true,
    }
}
