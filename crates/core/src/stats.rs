//! Instance statistics for temporal relations.
//!
//! Paper Section 4.2.1 parameterizes its read policy by arrival rates: "on
//! the average, the ValidFrom (and ValidTo) values of two consecutive X
//! tuples differ by 1/λ_x units of time". Section 6 adds that for temporal
//! databases, "estimating the amount of local workspace becomes necessary"
//! statistical information for the optimizer.
//!
//! [`TemporalStats`] summarizes a stream: tuple count, arrival rate `λ`
//! (reciprocal of the mean gap between consecutive `ValidFrom`s in TS-sorted
//! order), lifespan duration moments, and the maximum number of concurrently
//! valid tuples. The cost model predicts stream-operator workspace from
//! these via **Little's law**: the expected number of tuples whose lifespan
//! spans a sweep point is `λ · E[duration]`.

use crate::jobj;
use crate::json::Json;
use crate::period::Period;
use crate::time::TimePoint;
use crate::tuple::Temporal;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Summary statistics of a temporal relation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalStats {
    /// Number of tuples.
    pub count: usize,
    /// Earliest `ValidFrom`.
    pub min_ts: Option<TimePoint>,
    /// Latest `ValidTo`.
    pub max_te: Option<TimePoint>,
    /// Arrival rate λ: `(count - 1) / (max TS - min TS)`; `None` when fewer
    /// than two tuples or all arrivals coincide.
    pub lambda: Option<f64>,
    /// Mean lifespan duration.
    pub mean_duration: f64,
    /// Maximum lifespan duration.
    pub max_duration: i64,
    /// Maximum number of tuples valid at any single time point — the exact
    /// upper bound for "tuples whose lifespan span t" states.
    pub max_concurrency: usize,
}

impl TemporalStats {
    /// Compute statistics from a collection of temporal items.
    pub fn compute<T: Temporal>(items: &[T]) -> TemporalStats {
        if items.is_empty() {
            return TemporalStats {
                count: 0,
                min_ts: None,
                max_te: None,
                lambda: None,
                mean_duration: 0.0,
                max_duration: 0,
                max_concurrency: 0,
            };
        }

        let mut min_ts = items[0].ts();
        let mut max_ts = items[0].ts();
        let mut max_te = items[0].te();
        let mut dur_sum: i128 = 0;
        let mut max_duration: i64 = 0;

        // Sweep events for max concurrency: +1 at TS, -1 at TE.
        let mut events: Vec<(TimePoint, i32)> = Vec::with_capacity(items.len() * 2);
        for it in items {
            let (ts, te) = (it.ts(), it.te());
            min_ts = min_ts.min_of(ts);
            max_ts = max_ts.max_of(ts);
            max_te = max_te.max_of(te);
            let d = (te - ts).ticks();
            dur_sum += i128::from(d);
            max_duration = max_duration.max(d);
            events.push((ts, 1));
            events.push((te, -1));
        }
        // Ends sort before starts at the same point (half-open intervals do
        // not overlap at a shared endpoint).
        events.sort_by_key(|&(t, delta)| (t, delta));
        let mut current = 0i64;
        let mut max_concurrency = 0i64;
        for (_, delta) in events {
            current += i64::from(delta);
            max_concurrency = max_concurrency.max(current);
        }

        let lambda = if items.len() >= 2 {
            let span = (max_ts - min_ts).ticks();
            (span > 0).then(|| (items.len() - 1) as f64 / span as f64)
        } else {
            None
        };

        TemporalStats {
            count: items.len(),
            min_ts: Some(min_ts),
            max_te: Some(max_te),
            lambda,
            mean_duration: dur_sum as f64 / items.len() as f64,
            max_duration,
            max_concurrency: max_concurrency as usize,
        }
    }

    /// Mean gap between consecutive arrivals, `1/λ` (the paper's notation).
    pub fn mean_interarrival(&self) -> Option<f64> {
        self.lambda.map(|l| 1.0 / l)
    }

    /// Little's-law prediction of the expected number of tuples whose
    /// lifespan spans a random sweep point: `λ · E[duration]`.
    ///
    /// This is the analytic counterpart of Table 1's state (a) component
    /// "{X tuples whose lifespan span y_b.ValidFrom}".
    pub fn expected_spanning(&self) -> Option<f64> {
        self.lambda.map(|l| l * self.mean_duration)
    }
}

/// The running terms of [`TemporalStats`] over a `TS`-sorted sequence,
/// extended one lifespan at a time in O(log concurrency).
///
/// Count, extrema and the duration sum fold directly. Max concurrency
/// needs the sweep of [`TemporalStats::compute`], which in `TS` order is
/// a min-heap of the open lifespans' `TE`s: a new start first closes every
/// lifespan ending at or before it (ends sort before starts at a shared
/// point), and the heap's size is then the concurrency just after it.
/// [`StatsAccumulator::stats`] equals `compute` over the same items, field
/// by field.
#[derive(Debug, Clone, Default)]
pub struct StatsAccumulator {
    count: usize,
    min_ts: Option<TimePoint>,
    max_ts: Option<TimePoint>,
    max_te: Option<TimePoint>,
    dur_sum: i128,
    max_duration: i64,
    max_concurrency: usize,
    open: BinaryHeap<Reverse<TimePoint>>,
}

impl StatsAccumulator {
    /// `items` folded in their given order, or `None` when they are not
    /// sorted on `TS` (the one order the accumulator extends).
    pub fn of_sorted<T: Temporal>(items: &[T]) -> Option<StatsAccumulator> {
        let mut acc = StatsAccumulator::default();
        items.iter().all(|it| acc.push(it.period())).then_some(acc)
    }

    /// Fold in one more lifespan. Returns `false`, folding nothing, when
    /// it starts before the latest start folded so far.
    pub fn push(&mut self, p: Period) -> bool {
        let (ts, te) = (p.start(), p.end());
        if self.max_ts.is_some_and(|m| ts < m) {
            return false;
        }
        while self.open.peek().is_some_and(|Reverse(end)| *end <= ts) {
            self.open.pop();
        }
        self.open.push(Reverse(te));
        self.max_concurrency = self.max_concurrency.max(self.open.len());
        self.count += 1;
        self.min_ts.get_or_insert(ts);
        self.max_ts = Some(ts);
        self.max_te = Some(self.max_te.map_or(te, |m| m.max_of(te)));
        let d = (te - ts).ticks();
        self.dur_sum += i128::from(d);
        self.max_duration = self.max_duration.max(d);
        true
    }

    /// How many folded lifespans are still open at the latest start: the
    /// size of the state [`StatsAccumulator::to_json`] writes beyond a
    /// fixed handful of numbers.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// The running terms as a JSON object, so a manifest can keep them
    /// and a reopened catalog extend them without re-reading its rows.
    /// The duration sum is a decimal string: it may exceed `i64`.
    pub fn to_json(&self) -> Json {
        let open: Vec<i64> = self.open.iter().map(|Reverse(te)| te.0).collect();
        jobj! {
            "count" => self.count,
            "min_ts" => self.min_ts.map(|t| t.0),
            "max_ts" => self.max_ts.map(|t| t.0),
            "max_te" => self.max_te.map(|t| t.0),
            "dur_sum" => self.dur_sum.to_string(),
            "max_duration" => self.max_duration,
            "max_concurrency" => self.max_concurrency,
            "open" => open,
        }
    }

    /// Read back what [`StatsAccumulator::to_json`] wrote; `None` for
    /// anything else.
    pub fn from_json(j: &Json) -> Option<StatsAccumulator> {
        let time = |key: &str| match j.get(key)? {
            Json::Null => Some(None),
            t => t.as_i64().map(|t| Some(TimePoint(t))),
        };
        Some(StatsAccumulator {
            count: j.get("count")?.as_usize()?,
            min_ts: time("min_ts")?,
            max_ts: time("max_ts")?,
            max_te: time("max_te")?,
            dur_sum: j.get("dur_sum")?.as_str()?.parse().ok()?,
            max_duration: j.get("max_duration")?.as_i64()?,
            max_concurrency: j.get("max_concurrency")?.as_usize()?,
            open: j
                .get("open")?
                .as_array()?
                .iter()
                .map(|te| te.as_i64().map(|te| Reverse(TimePoint(te))))
                .collect::<Option<_>>()?,
        })
    }

    /// The statistics of everything folded so far.
    pub fn stats(&self) -> TemporalStats {
        let (Some(min_ts), Some(max_ts)) = (self.min_ts, self.max_ts) else {
            return TemporalStats::compute::<Period>(&[]);
        };
        let span = (max_ts - min_ts).ticks();
        TemporalStats {
            count: self.count,
            min_ts: Some(min_ts),
            max_te: self.max_te,
            lambda: (self.count >= 2 && span > 0).then(|| (self.count - 1) as f64 / span as f64),
            mean_duration: self.dur_sum as f64 / self.count as f64,
            max_duration: self.max_duration,
            max_concurrency: self.max_concurrency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    #[test]
    fn empty_input() {
        let s = TemporalStats::compute::<TsTuple>(&[]);
        assert_eq!(s.count, 0);
        assert!(s.lambda.is_none());
        assert_eq!(s.max_concurrency, 0);
    }

    #[test]
    fn single_tuple() {
        let s = TemporalStats::compute(&[iv(5, 9)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.min_ts, Some(TimePoint(5)));
        assert_eq!(s.max_te, Some(TimePoint(9)));
        assert!(s.lambda.is_none());
        assert_eq!(s.mean_duration, 4.0);
        assert_eq!(s.max_concurrency, 1);
    }

    #[test]
    fn lambda_is_reciprocal_mean_gap() {
        // Arrivals at 0, 10, 20, 30 → mean gap 10 → λ = 0.1.
        let items: Vec<_> = (0..4).map(|i| iv(i * 10, i * 10 + 5)).collect();
        let s = TemporalStats::compute(&items);
        assert!((s.lambda.unwrap() - 0.1).abs() < 1e-12);
        assert!((s.mean_interarrival().unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn max_concurrency_counts_overlaps() {
        // [0,10) [2,8) [4,6): all three alive at t=4..6.
        let s = TemporalStats::compute(&[iv(0, 10), iv(2, 8), iv(4, 6)]);
        assert_eq!(s.max_concurrency, 3);
        // Disjoint intervals never overlap.
        let s = TemporalStats::compute(&[iv(0, 1), iv(2, 3), iv(4, 5)]);
        assert_eq!(s.max_concurrency, 1);
    }

    #[test]
    fn meeting_intervals_do_not_overlap() {
        // Half-open semantics: [0,5) and [5,9) share no point.
        let s = TemporalStats::compute(&[iv(0, 5), iv(5, 9)]);
        assert_eq!(s.max_concurrency, 1);
    }

    #[test]
    fn littles_law_prediction() {
        // λ = 1 arrival per tick, durations all 7 → ≈7 spanning tuples.
        let items: Vec<_> = (0..100).map(|i| iv(i, i + 7)).collect();
        let s = TemporalStats::compute(&items);
        let pred = s.expected_spanning().unwrap();
        assert!((pred - 7.0).abs() < 0.15, "prediction {pred}");
        // And the measured max concurrency is close to the prediction.
        assert!((s.max_concurrency as f64 - pred).abs() <= 1.0);
    }

    #[test]
    fn duration_moments() {
        let s = TemporalStats::compute(&[iv(0, 2), iv(0, 4), iv(0, 9)]);
        assert_eq!(s.max_duration, 9);
        assert!((s.mean_duration - 5.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_survives_its_json_and_keeps_extending() {
        let items: Vec<_> = (0..40).map(|i| iv(i * 2, i * 2 + 7 + i % 5)).collect();
        let (head, rest) = items.split_at(25);
        let acc = StatsAccumulator::of_sorted(head).unwrap();
        assert!(acc.open_len() > 1);
        let text = acc.to_json().to_string_compact();
        let mut back = StatsAccumulator::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.stats(), acc.stats());
        assert!(rest.iter().all(|it| back.push(it.period())));
        assert_eq!(back.stats(), TemporalStats::compute(&items));
        let empty = StatsAccumulator::default().to_json();
        assert_eq!(
            StatsAccumulator::from_json(&empty).unwrap().stats(),
            TemporalStats::compute::<TsTuple>(&[])
        );
        assert!(StatsAccumulator::from_json(&Json::Null).is_none());
    }
}
