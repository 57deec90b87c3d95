//! Shared workload builders and measurement helpers for the `experiments`
//! binary. Every figure they report is a count (output, workspace,
//! comparisons); wall-clock timing is the served benchmark's job.
//!
//! Every table and figure of the paper maps to a function here or in
//! `src/bin/experiments.rs`; see DESIGN.md's experiment index (E1–E14) and
//! EXPERIMENTS.md for the recorded outcomes.

use tdb::prelude::*;
use tdb_oracle::{buffered_join, nested_loop_join};

/// A named interval workload with the statistics the paper's analysis is
/// parameterized by.
pub struct Workload {
    /// Human-readable label.
    pub label: String,
    /// X-side tuples.
    pub xs: Vec<TsTuple>,
    /// Y-side tuples.
    pub ys: Vec<TsTuple>,
}

impl Workload {
    /// Two Poisson streams with the given mean gaps and durations.
    pub fn poisson(
        label: impl Into<String>,
        n: usize,
        gap_x: f64,
        dur_x: f64,
        gap_y: f64,
        dur_y: f64,
        seed: u64,
    ) -> Workload {
        Workload {
            label: label.into(),
            xs: IntervalGen::poisson(n, gap_x, dur_x, seed).generate(),
            ys: IntervalGen::poisson(n, gap_y, dur_y, seed + 1).generate(),
        }
    }

    /// The default benchmark workload: moderately overlapping streams.
    pub fn standard(n: usize, seed: u64) -> Workload {
        Workload::poisson("standard", n, 3.0, 30.0, 3.0, 8.0, seed)
    }

    /// Statistics of both sides.
    pub fn stats(&self) -> (TemporalStats, TemporalStats) {
        (
            TemporalStats::compute(&self.xs),
            TemporalStats::compute(&self.ys),
        )
    }

    /// X side sorted under `order`.
    pub fn xs_sorted(&self, order: StreamOrder) -> Vec<TsTuple> {
        let mut v = self.xs.clone();
        order.sort(&mut v);
        v
    }

    /// Y side sorted under `order`.
    pub fn ys_sorted(&self, order: StreamOrder) -> Vec<TsTuple> {
        let mut v = self.ys.clone();
        order.sort(&mut v);
        v
    }
}

/// Measured outcome of one operator run.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Result tuples emitted.
    pub output: usize,
    /// Maximum workspace (state tuples).
    pub max_workspace: usize,
    /// Comparisons performed.
    pub comparisons: usize,
}

/// Run a dispatch entry (given its [`Emit`]), counting the output it
/// hands over chunk by chunk — built and dropped, as a consumer that only
/// counts would. Returns the count and the operator's report.
pub fn drain_count<T>(
    run: impl FnOnce(Emit<'_, T>) -> TdbResult<(bool, OpReport)>,
) -> (usize, OpReport) {
    let mut n = 0;
    let (_, report) = run(Emit::Chunks(&mut |chunk| {
        n += chunk.len();
        Ok(true)
    }))
    .unwrap();
    (n, report)
}

fn measurement((output, report): (usize, OpReport)) -> Measurement {
    Measurement {
        output,
        max_workspace: report.max_workspace(),
        comparisons: report.metrics.comparisons,
    }
}

/// Run the Contain-join under the `(TS↑, TS↑)` configuration.
pub fn measure_contain_ts_ts(w: &Workload, policy: ReadPolicy) -> Measurement {
    let xs = w.xs_sorted(StreamOrder::TS_ASC);
    let ys = w.ys_sorted(StreamOrder::TS_ASC);
    let cfg = OpConfig::new().with_policy(policy);
    measurement(drain_count(|e| {
        run_join(StreamOpKind::ContainJoinTsTs, cfg, xs, ys, e)
    }))
}

/// Run the Contain-join under the `(TS↑, TE↑)` configuration.
pub fn measure_contain_ts_te(w: &Workload) -> Measurement {
    let xs = w.xs_sorted(StreamOrder::TS_ASC);
    let ys = w.ys_sorted(StreamOrder::TE_ASC);
    let cfg = OpConfig::new();
    measurement(drain_count(|e| {
        run_join(StreamOpKind::ContainJoinTsTe, cfg, xs, ys, e)
    }))
}

fn contains(a: &TsTuple, b: &TsTuple) -> bool {
    a.period.contains(&b.period)
}

/// Run the no-GC buffered join (degenerate orderings, Table 1 "-" rows).
pub fn measure_buffered_contain(w: &Workload) -> Measurement {
    let (pairs, report) = buffered_join(&w.xs, &w.ys, contains);
    measurement((pairs.len(), report))
}

/// Run the conventional nested-loop contain join.
pub fn measure_nested_contain(w: &Workload) -> Measurement {
    let (pairs, report) = nested_loop_join(&w.xs, &w.ys, contains);
    measurement((pairs.len(), report))
}

/// Build a faculty catalog in a temp dir for query benchmarks.
pub fn bench_catalog(tag: &str, n_faculty: usize, seed: u64) -> Catalog {
    let faculty = FacultyGen {
        n_faculty,
        seed,
        continuous_employment: true,
        p_promote_associate: 0.85,
        p_promote_full: 0.75,
        ..FacultyGen::default()
    }
    .generate();
    let dir = std::env::temp_dir().join(format!("tdb-bench-{}-{tag}", std::process::id()));
    tdb::faculty_catalog(dir, &faculty).unwrap()
}

/// Format a table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_are_deterministic() {
        let a = Workload::standard(500, 1);
        let b = Workload::standard(500, 1);
        assert_eq!(a.xs, b.xs);
        let (sx, _) = a.stats();
        assert!(sx.lambda.unwrap() > 0.0);
    }

    #[test]
    fn measurements_agree_across_algorithms() {
        let w = Workload::standard(800, 2);
        let ts_ts = measure_contain_ts_ts(&w, ReadPolicy::MinKey);
        let ts_te = measure_contain_ts_te(&w);
        let buffered = measure_buffered_contain(&w);
        let nested = measure_nested_contain(&w);
        assert_eq!(ts_ts.output, ts_te.output);
        assert_eq!(ts_ts.output, buffered.output);
        assert_eq!(ts_ts.output, nested.output);
        // Degenerate buffered join retains everything.
        assert_eq!(buffered.max_workspace, 1600);
        assert!(ts_ts.max_workspace < 400);
    }
}
