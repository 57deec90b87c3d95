//! The repo benchmark (see `README.md` beside this package).
//!
//! ```text
//! tdb-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//!     one run of one workload; the last line of stdout is one JSON
//!     object {correct, attempted, failed, metrics}
//! tdb-benchmark [--seed <n>] [--seconds <n>] [--sets <N>] [--quick]
//!     the whole suite: every workload, end to end and traced, each run a
//!     process of its own; with --sets, N times over and compared
//! ```

mod check;
mod inputs;
mod layers;
mod metrics;
mod server;
mod speed;
mod stats;
mod suite;
mod trace;
mod workload;

use metrics::{Reported, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use tdb::core::{jobj, Json};
use workload::{RunSpec, Served, Workload};

const USAGE: &str = "usage: tdb-benchmark [--workload <name> --trace <0|1>] [--seed <n>] \
                     [--seconds <n>] [--sets <n>] [--quick]";

/// The command line.
pub struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: workload::REFERENCE_SECONDS as u64,
        trace: false,
        sets: 1,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--sets" => args.sets = number()?.max(1) as usize,
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(workload) => run_one(workload, &args),
        None => suite::run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run of one workload. `Ok(false)`: it ran, and an output check failed.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let tdb = server::build_tdb()?;
    let results = server::package_dir().join("results");
    let scratch = results
        .join("data")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let trace_ops = workload.trace_ops(args.seconds, args.quick);
    let spec = RunSpec {
        workload,
        seed: args.seed,
        // A traced query run serves only as many operations as it
        // traces; a traced live run needs the whole run's growth.
        ops: match args.trace && !workload.is_live() {
            true => trace_ops,
            false => workload.ops(args.seconds, args.quick),
        },
        trace_ops,
        single_setup: args.trace || args.quick,
        tdb,
        scratch: scratch.clone(),
    };
    let outcome = measure(&spec, args, &results);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn measure(spec: &RunSpec, args: &Args, results: &std::path::Path) -> Result<bool, String> {
    let workload = spec.workload;
    println!(
        "{} · seed {} · {} timed ops after {} warm-up · closed loop, {} · flush policy {}{}",
        workload.name(),
        spec.seed,
        spec.ops,
        workload::WARMUP_OPS,
        match workload {
            Workload::LiveSubscribe => "2 connections (ingester + subscriber)",
            _ => "1 connection",
        },
        tdb::wal::FlushPolicy::default().name(),
        if args.quick {
            " · QUICK (not comparable)"
        } else {
            ""
        },
    );
    suite::print_fingerprint();

    let (mut served, traced) = if workload.is_live() {
        let (served, inputs) = workload::serve_live(spec)?;
        let traced = args
            .trace
            .then(|| layers::trace_live(spec, &inputs, &served))
            .transpose()?;
        (served, traced)
    } else {
        let served = workload::serve_queries(spec)?;
        let traced = args
            .trace
            .then(|| layers::trace_queries(spec, &served))
            .transpose()?;
        (served, traced)
    };
    let metrics = match traced {
        None => end_to_end_json(&served)?,
        Some((tracer, layers)) => {
            // The copy of the server's chunking must cut as the server does.
            let (copy, wire) = (layers["net.chunks"], stats::median(&served.chunks));
            if copy != wire {
                served.violations.push(format!(
                    "the traced framing cut {copy} chunks, the server sent {wire}"
                ));
            }
            write_trace(results, workload, spec.seed, &tracer)?;
            per_layer_json(&layers)
        }
    };

    for v in &served.violations {
        eprintln!("output check failed: {v}");
    }
    let line = jobj! {
        "correct" => served.correct(),
        "attempted" => served.attempted,
        "failed" => served.failed,
        "metrics" => metrics,
    };
    println!("{}", line.to_string_compact());
    Ok(served.correct())
}

fn metric_json(value: f64, unit: &str) -> Json {
    jobj! { "value" => value, "unit" => unit }
}

/// Print and encode the end-to-end metrics of `served`.
fn end_to_end_json(served: &Served) -> Result<Json, String> {
    let reported = metrics::end_to_end(served)?;
    println!(
        "  attempted {} · failed {} · {:.2} s waiting on replies",
        served.attempted,
        served.failed,
        served.busy_s()
    );
    println!(
        "  times below are speed-normalised: the machine ran {:.4}× nominal over {} reference \
         passes; as timed, latency p50 was {:.4} ms and set-up {:.4} s",
        served.run_slowdown.0,
        served.run_slowdown.1,
        stats::median(&served.latency_ms),
        stats::median(&served.setup_s),
    );
    for Reported {
        def,
        value,
        samples,
    } in &reported
    {
        println!(
            "  {:<22} {:>14.4} {:<5} n={samples}",
            def.name, value, def.unit
        );
    }
    for (label, value) in metrics::extra_percentiles(served) {
        println!("  {label}: {value:.4} ms (not gated)");
    }
    Ok(Json::Object(
        reported
            .iter()
            .map(|r| (r.def.name.to_string(), metric_json(r.value, r.def.unit)))
            .collect(),
    ))
}

/// Print and encode every per-layer metric; a layer the workload does
/// not enter reports 0.
fn per_layer_json(layers: &layers::Layers) -> Json {
    Json::Object(
        PER_LAYER
            .iter()
            .map(|def| {
                let value = layers.get(def.name).copied().unwrap_or(0.0);
                println!("  {:<34} {:>16.4} {}", def.name, value, def.unit);
                (def.name.to_string(), metric_json(value, def.unit))
            })
            .collect(),
    )
}

fn write_trace(
    results: &std::path::Path,
    workload: Workload,
    seed: u64,
    tracer: &trace::Tracer,
) -> Result<(), String> {
    std::fs::create_dir_all(results).map_err(|e| format!("{}: {e}", results.display()))?;
    let path: PathBuf = results.join(format!("trace-{}.json", workload.name()));
    std::fs::write(
        &path,
        tracer.to_json(workload.name(), seed).to_string_compact(),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "  {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}
