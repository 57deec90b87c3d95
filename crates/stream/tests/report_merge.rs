//! Property tests for `OpReport` aggregation under partitioned-parallel
//! runs — the invariant the per-operator observability metrics rely on:
//! the merged report's throughput totals equal the **sum** over the
//! partitions' reports, and its workspace peak equals the **max** (each
//! worker owns its state).

use proptest::prelude::*;
use tdb_core::{StreamOrder, TsTuple};
use tdb_stream::{
    parallel_join, parallel_semijoin, OpConfig, OpMetrics, OpReport, ParallelPattern,
    WorkspaceStats,
};

fn workload(spec: &[(i64, i64)]) -> Vec<TsTuple> {
    spec.iter()
        .map(|(s, d)| TsTuple::interval(*s, *s + *d).expect("generated interval is valid"))
        .collect()
}

fn synthetic_report(seed: ((u8, u8), (u8, u8, u8))) -> OpReport {
    let ((rl, rr), (c, e, w)) = seed;
    OpReport::new(
        OpMetrics {
            read_left: usize::from(rl),
            read_right: usize::from(rr),
            comparisons: usize::from(c),
            emitted: usize::from(e),
            passes: 1,
        },
        WorkspaceStats::of_resident(usize::from(w)),
    )
}

/// `report` must relate to `per_partition` as sum-of-counters /
/// max-of-peaks. `emitted` is checked by the callers: joins keep the
/// workers' sum, semijoins rewrite it to the post-dedup output size.
fn assert_merged(report: &OpReport, parts: &[OpReport]) {
    let m = &report.metrics;
    let sum = |f: fn(&OpReport) -> usize| parts.iter().map(f).sum::<usize>();
    assert_eq!(m.read_left, sum(|p| p.metrics.read_left));
    assert_eq!(m.read_right, sum(|p| p.metrics.read_right));
    assert_eq!(m.comparisons, sum(|p| p.metrics.comparisons));
    assert_eq!(
        report.max_workspace(),
        parts.iter().map(OpReport::max_workspace).max().unwrap_or(0)
    );
    assert_eq!(
        report.workspace.occupancy_histogram().iter().sum::<u64>(),
        parts
            .iter()
            .flat_map(|p| p.workspace.occupancy_histogram())
            .sum::<u64>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combine_parallel_fold_sums_totals_and_maxes_peak(
        seeds in proptest::collection::vec(
            ((0u8..=255, 0u8..=255), (0u8..=255, 0u8..=255, 0u8..=255)), 1..8),
    ) {
        let parts: Vec<OpReport> = seeds.into_iter().map(synthetic_report).collect();
        let merged = parts
            .iter()
            .fold(OpReport::default(), |acc, r| acc.combine_parallel(*r));
        assert_merged(&merged, &parts);
        let emitted: usize = parts.iter().map(|p| p.metrics.emitted).sum();
        assert_eq!(merged.metrics.emitted, emitted);
    }

    #[test]
    fn parallel_driver_report_aggregates_its_partitions(
        xs in proptest::collection::vec((0i64..200, 1i64..40), 0..60),
        ys in proptest::collection::vec((0i64..200, 1i64..40), 0..60),
        k in 1usize..6,
        join in proptest::bool::ANY,
    ) {
        let (xs, ys) = (workload(&xs), workload(&ys));
        let cfg = OpConfig::new();
        let mut rows = 0usize;
        if join {
            let run = parallel_join(ParallelPattern::Contains, xs, ys, k, cfg, &mut |chunk| {
                rows += chunk.len();
                Ok(true)
            })
            .expect("parallel join runs");
            assert_merged(&run.report, &run.per_partition);
            // Joins are owner-deduplicated as the workers collect, so the
            // report keeps the workers' summed counter; what came out is
            // at most that.
            let emitted: usize = run.per_partition.iter().map(|p| p.metrics.emitted).sum();
            assert_eq!(run.report.metrics.emitted, emitted);
            assert!(rows <= emitted);
        } else {
            let run = parallel_semijoin(ParallelPattern::Contains, xs, ys, k, cfg, &mut |chunk| {
                rows += chunk.len();
                Ok(true)
            })
            .expect("parallel semijoin runs");
            assert_merged(&run.report, &run.per_partition);
            // Fringe tuples may be kept by several workers; the merged
            // report counts the post-dedup output.
            let emitted: usize = run.per_partition.iter().map(|p| p.metrics.emitted).sum();
            assert_eq!(run.report.metrics.emitted, rows);
            assert!(run.report.metrics.emitted <= emitted);
        }
    }
}

/// The executor's parallel arm consumes exactly `ParallelPush::report`;
/// pin the sorted-entry case too (no fringe, one partition) so the serial
/// and parallel reports coincide.
#[test]
fn single_partition_report_equals_its_only_worker() {
    let xs = workload(&[(0, 30), (5, 3), (12, 4)]);
    let ys = workload(&[(6, 1), (13, 2)]);
    let mut rows = 0usize;
    let run = parallel_join(
        ParallelPattern::Contains,
        xs,
        ys,
        1,
        OpConfig::new(),
        &mut |chunk| {
            rows += chunk.len();
            Ok(true)
        },
    )
    .expect("parallel join runs");
    assert_eq!(run.per_partition.len(), 1);
    assert_merged(&run.report, &run.per_partition);
    assert_eq!(run.report.metrics.emitted, rows);
    let _ = StreamOrder::TS_ASC; // order type participates via worker_orders
}
