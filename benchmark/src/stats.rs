//! Order statistics over latency samples and over repeated runs.

/// Percentiles the harness may report, lowest first, in permille so
/// that ranks are exact integers.
pub const PERMILLES: [u32; 5] = [500, 750, 900, 990, 999];

/// 1-based nearest rank of percentile `permille` among `n ≥ 1` samples.
fn rank(n: usize, permille: u32) -> usize {
    (permille as usize * n).div_ceil(1000).clamp(1, n)
}

/// The value at percentile `permille` of `sorted` (nearest rank).
/// Panics on an empty slice: every caller has counted its samples.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// The highest percentile of [`PERMILLES`] that still has at least ten
/// of `n` samples beyond it; the median when even it has fewer.
pub fn highest_supported_permille(n: usize) -> u32 {
    PERMILLES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
        .unwrap_or(500)
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    // j is clamped to 1..n-1 but delta is not, so the ends extrapolate,
    // exactly as CPython does.
    let at = |i: i64| {
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A median that does not depend on where in a run the samples fall.
/// `samples` are `(operation index, value)` of a run of `ops` operations;
/// the run is cut into `parts` consecutive equal parts, each part's
/// median is taken, and the median of those is returned (0 for no
/// samples). For a value that grows over the run and is sampled at
/// operations the data picks, the plain median moves with the picking.
pub fn median_of_part_medians(samples: &[(usize, f64)], ops: usize, parts: usize) -> f64 {
    let mut by_part: Vec<Vec<f64>> = vec![Vec::new(); parts];
    for &(op, value) in samples {
        by_part[(op * parts / ops.max(1)).min(parts - 1)].push(value);
    }
    let medians: Vec<f64> = by_part
        .iter()
        .filter(|part| !part.is_empty())
        .map(|part| median(part))
        .collect();
    median(&medians)
}

/// Median of the last tenth of `series` over the median of its first
/// tenth: how much a per-operation cost grew over a run. 1.0 for fewer
/// than ten points.
pub fn decile_growth(series: &[f64]) -> f64 {
    let k = series.len() / 10;
    if k == 0 {
        return 1.0;
    }
    let first = median(&series[..k]);
    let last = median(&series[series.len() - k..]);
    if first == 0.0 {
        1.0
    } else {
        last / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 leaves 1.
        assert_eq!(highest_supported_permille(100), 900);
        assert_eq!(highest_supported_permille(99), 750);
        assert_eq!(highest_supported_permille(1000), 990);
        assert_eq!(highest_supported_permille(10_000), 999);
        assert_eq!(highest_supported_permille(40), 750);
        assert_eq!(highest_supported_permille(20), 500);
        // Too few for any: fall back to the median.
        assert_eq!(highest_supported_permille(5), 500);
        assert_eq!(highest_supported_permille(0), 500);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn part_medians_ignore_which_operations_were_sampled() {
        // A ramp: operation i takes i. Sampled everywhere, at the even
        // operations only, or densely early and sparsely late, the
        // middle of the run stays the answer.
        let ramp = |keep: &dyn Fn(usize) -> bool| -> Vec<(usize, f64)> {
            (0..100)
                .filter(|&i| keep(i))
                .map(|i| (i, i as f64))
                .collect()
        };
        let all = median_of_part_medians(&ramp(&|_| true), 100, 10);
        let even = median_of_part_medians(&ramp(&|i| i % 2 == 0), 100, 10);
        let skewed = ramp(&|i| i < 50 || i % 10 == 0);
        assert_eq!(all, 49.5);
        assert!((even - all).abs() <= 1.0);
        assert!((median_of_part_medians(&skewed, 100, 10) - all).abs() <= 3.0);
        // The plain median follows the sampling.
        let plain = median(&skewed.iter().map(|s| s.1).collect::<Vec<_>>());
        assert!((plain - all).abs() > 15.0);
        assert_eq!(median_of_part_medians(&[], 100, 10), 0.0);
        assert_eq!(median_of_part_medians(&[(7, 3.0)], 0, 10), 3.0);
    }

    #[test]
    fn median_and_growth() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((decile_growth(&ramp) - 95.5 / 5.5).abs() < 1e-12);
        assert_eq!(decile_growth(&[1.0, 2.0]), 1.0);
    }
}
