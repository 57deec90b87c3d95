//! The benchmark's metric names, units and how the end-to-end ones are
//! computed from what a served run observed. `BENCHMARK.json` lists the
//! same names; a test keeps the two in step.

use crate::stats::{
    highest_supported_permille, median, median_of_part_medians, percentile, sorted,
};
use crate::workload::Served;

/// One named metric.
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Is a higher value the better one?
    pub higher_is_better: bool,
    /// A count the program makes itself: with one seed it must repeat
    /// exactly from run to run.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

/// What a user of the served system sees. Measured with tracing off.
pub const END_TO_END: [MetricDef; 8] = [
    lower("latency_p50_ms", "ms"),
    lower("latency_p90_ms", "ms"),
    higher("ops_per_s", "1/s"),
    higher("rows_per_s", "1/s"),
    lower("first_chunk_p50_ms", "ms"),
    lower("delta_lag_p50_ms", "ms"),
    lower("peak_rss_mib", "MiB"),
    lower("setup_s", "s"),
];

/// Single layers, from the traced run. Medians per operation unless a
/// count over the run.
pub const PER_LAYER: [MetricDef; 47] = [
    lower("quel.compile_us", "us"),
    lower("algebra.optimize_us", "us"),
    lower("analyze.plan_verified_us", "us"),
    lower("storage.scan_us", "us"),
    exact("storage.pages_read", "count"),
    exact("storage.bytes_read", "bytes"),
    lower("algebra.sort_us", "us"),
    lower("stream.kernel_us", "us"),
    exact("stream.comparisons", "count"),
    exact("stream.workspace_peak", "count"),
    exact("stream.rows_out", "count"),
    lower("stream.kernel_ns_per_comparison", "ns"),
    exact("analyze.cap_exceeded", "count"),
    lower("stream.emit_us", "us"),
    lower("engine.encode_us", "us"),
    exact("engine.reply_bytes", "bytes"),
    lower("net.frame_us", "us"),
    exact("net.chunks", "count"),
    lower("net.client_decode_us", "us"),
    lower("engine.execute_us", "us"),
    lower("engine.self_us", "us"),
    lower("net.rtt_us", "us"),
    lower("net.server_us", "us"),
    lower("net.transport_us", "us"),
    higher("trace.coverage_share", "share"),
    lower("trace.overhead_share", "share"),
    lower("engine.parse_arrivals_us", "us"),
    lower("engine.ingest_rows_us", "us"),
    lower("storage.append_us", "us"),
    lower("storage.append_growth", "ratio"),
    lower("live.ack_growth", "ratio"),
    exact("live.promoted_rows", "count"),
    exact("live.staged_peak", "count"),
    lower("wal.commit_us", "us"),
    exact("wal.appends", "count"),
    exact("wal.commits", "count"),
    exact("wal.fsyncs", "count"),
    exact("wal.bytes_written", "bytes"),
    exact("wal.checkpoints", "count"),
    lower("wal.bytes_per_user_byte", "ratio"),
    lower("live.subscription_us", "us"),
    lower("live.subscription_share", "share"),
    exact("live.evaluations", "count"),
    lower("wal.recovery_ms", "ms"),
    lower("wal.replay_us", "us"),
    exact("wal.replay_bytes", "bytes"),
    exact("wal.replayed_records", "count"),
];

/// Consecutive parts of a run whose median delta lags are combined.
const DELTA_LAG_PARTS: usize = 10;

/// One reported value with the number of samples behind it.
pub struct Reported {
    /// The metric.
    pub def: &'static MetricDef,
    /// Its value in the metric's unit.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Each duration as it would have been at nominal machine speed: divided
/// by the slowdown the reference task measured beside it (`speed.rs`).
pub fn normalised(durations: &[f64], slowdown: &[f64]) -> Vec<f64> {
    assert_eq!(
        durations.len(),
        slowdown.len(),
        "every duration has a slowdown measured beside it"
    );
    durations.iter().zip(slowdown).map(|(d, s)| d / s).collect()
}

/// The end-to-end metrics of a served run, in [`END_TO_END`] order.
/// Every time is speed-normalised; memory is as read. `Err` when no
/// operation succeeded, so there is nothing to summarize.
pub fn end_to_end(served: &Served) -> Result<Vec<Reported>, String> {
    if served.latency_ms.is_empty() {
        return Err(format!(
            "all {} operations failed: no latency to report",
            served.attempted
        ));
    }
    let latency = sorted(&normalised(&served.latency_ms, &served.slowdown));
    let n = latency.len();
    let busy_s = latency.iter().sum::<f64>() / 1000.0;
    let p50 = percentile(&latency, 500);
    let first_chunk = normalised(&served.first_chunk_ms, &served.slowdown);
    // Only `live_subscribe` has pushed deltas; elsewhere the reply is
    // the only delivery there is, and its latency stands in. Which
    // requests cause a delta is the data's choice (80 to 140 of 160,
    // by seed) and the lag grows tenfold over the run, so the median is
    // taken part by part of the run.
    let delta_lag = match served.delta_lag_ms.is_empty() {
        true => (p50, n),
        false => {
            let lags = normalised(&served.delta_lag_ms, &served.delta_slowdown);
            let by_op: Vec<(usize, f64)> = served.delta_op.iter().copied().zip(lags).collect();
            (
                median_of_part_medians(&by_op, served.attempted as usize, DELTA_LAG_PARTS),
                by_op.len(),
            )
        }
    };
    let values = [
        (p50, n),
        (percentile(&latency, 900), n),
        (n as f64 / busy_s, n),
        (served.rows as f64 / busy_s, n),
        (median(&first_chunk), first_chunk.len()),
        delta_lag,
        (served.peak_rss_mib, 1),
        (
            median(&normalised(&served.setup_s, &served.setup_slowdown)),
            served.setup_s.len(),
        ),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Reported {
            def,
            value,
            samples,
        })
        .collect())
}

/// Latency percentiles worth printing beside the gated ones: the highest
/// the sample supports (ten samples beyond it) and, from a thousand
/// samples on, p99. Informative, not gated.
pub fn extra_percentiles(served: &Served) -> Vec<(String, f64)> {
    let latency = sorted(&normalised(&served.latency_ms, &served.slowdown));
    let mut out = Vec::new();
    if latency.is_empty() {
        return out;
    }
    let top = highest_supported_permille(latency.len());
    out.push((
        format!("highest supported percentile (p{})", top as f64 / 10.0),
        percentile(&latency, top),
    ));
    if latency.len() >= 1000 {
        out.push(("latency_p99_ms".to_string(), percentile(&latency, 990)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb::core::Json;

    fn benchmark_json() -> Json {
        let path = crate::server::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.into(), d.unit.into(), better.into())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_reports() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), defined(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads_the_harness_runs() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn fallbacks_keep_every_end_to_end_metric_non_zero() {
        let served = Served {
            attempted: 3,
            latency_ms: vec![2.0, 1.0, 3.0],
            first_chunk_ms: vec![2.0, 1.0, 3.0],
            slowdown: vec![1.0; 3],
            rows: 600,
            setup_s: vec![0.5, 0.7, 0.6],
            setup_slowdown: vec![1.0; 3],
            peak_rss_mib: 12.0,
            ..Served::default()
        };
        let reported = end_to_end(&served).unwrap();
        assert_eq!(reported.len(), END_TO_END.len());
        assert!(reported.iter().all(|r| r.value > 0.0));
        let get = |name: &str| reported.iter().find(|r| r.def.name == name).unwrap().value;
        assert_eq!(get("latency_p50_ms"), 2.0);
        assert_eq!(get("delta_lag_p50_ms"), 2.0); // no deltas: the reply latency
        assert_eq!(get("setup_s"), 0.6);
        assert!((get("ops_per_s") - 500.0).abs() < 1e-9);
        assert!((get("rows_per_s") - 100_000.0).abs() < 1e-6);
        assert!(end_to_end(&Served::default()).is_err());
    }

    #[test]
    fn times_are_divided_by_the_slowdown_measured_beside_them() {
        // The machine ran twice as slow during the second half of the
        // run and its set-ups: the reported times do not show it.
        let served = Served {
            attempted: 4,
            latency_ms: vec![10.0, 10.0, 20.0, 20.0],
            first_chunk_ms: vec![5.0, 5.0, 10.0, 10.0],
            slowdown: vec![1.0, 1.0, 2.0, 2.0],
            delta_lag_ms: vec![12.0, 36.0],
            delta_slowdown: vec![1.0, 3.0],
            delta_op: vec![0, 3],
            rows: 400,
            setup_s: vec![1.0, 2.0, 2.0],
            setup_slowdown: vec![1.0, 2.0, 2.0],
            peak_rss_mib: 12.0,
            ..Served::default()
        };
        let reported = end_to_end(&served).unwrap();
        let get = |name: &str| reported.iter().find(|r| r.def.name == name).unwrap().value;
        assert_eq!(get("latency_p50_ms"), 10.0);
        assert_eq!(get("latency_p90_ms"), 10.0);
        assert_eq!(get("first_chunk_p50_ms"), 5.0);
        assert_eq!(get("delta_lag_p50_ms"), 12.0);
        assert_eq!(get("setup_s"), 1.0);
        assert!((get("ops_per_s") - 100.0).abs() < 1e-9);
        assert_eq!(get("peak_rss_mib"), 12.0); // memory is not a time
    }
}
