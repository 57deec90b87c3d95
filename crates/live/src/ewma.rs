//! Online arrival statistics for live streams.
//!
//! Paper Section 6: workspace estimation needs λ (arrival rate) and E[D]
//! (mean lifespan duration). A loaded relation gets them from a full scan
//! ([`TemporalStats::compute`]); a *live* relation cannot wait for the
//! stream to end. [`OnlineStats`] tracks the same quantities incrementally
//! as tuples arrive: λ and E[D] by exponentially weighted moving averages
//! (recent traffic dominates, so a rate change re-verifies standing
//! queries against what the stream is doing *now*), extrema exactly, and
//! max concurrency exactly via a difference map over interval endpoints
//! whose prefix sums are refolded from each arrival's start onward.
//!
//! [`TemporalStats::compute`]: tdb_core::TemporalStats::compute

use std::collections::BTreeMap;
use tdb_core::{Period, SortKey, TemporalStats, TimePoint};

/// EWMA smoothing factor for λ and E[D]: the weight of the newest
/// arrival (higher = more weight on recent traffic).
const ALPHA: f64 = 0.25;

/// Incrementally maintained statistics of a live arrival stream,
/// convertible at any moment to the [`TemporalStats`] the planner and the
/// live verifier consume.
#[derive(Debug, Clone)]
pub struct OnlineStats {
    key: SortKey,
    count: usize,
    last_key: Option<TimePoint>,
    ewma_gap: Option<f64>,
    ewma_duration: Option<f64>,
    max_duration: i64,
    min_ts: Option<TimePoint>,
    max_te: Option<TimePoint>,
    /// Difference map over interval endpoints: +1 at each `TS`, −1 at each
    /// `TE`. Max concurrency is the running maximum of its prefix sums —
    /// exact for any arrival order, at O(distinct endpoints) memory.
    deltas: BTreeMap<i64, Endpoint>,
}

/// One key of the difference map, with the prefix terms through it.
#[derive(Debug, Clone, Copy, Default)]
struct Endpoint {
    delta: i64,
    /// Sum of every delta up to and including this key.
    running: i64,
    /// Largest `running` up to and including this key.
    peak: i64,
}

impl OnlineStats {
    /// Fresh statistics over arrivals ordered on `key`.
    pub fn new(key: SortKey) -> OnlineStats {
        OnlineStats {
            key,
            count: 0,
            last_key: None,
            ewma_gap: None,
            ewma_duration: None,
            max_duration: 0,
            min_ts: None,
            max_te: None,
            deltas: BTreeMap::new(),
        }
    }

    /// Arrivals observed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Observe one arrival's lifespan.
    pub fn observe(&mut self, p: &Period) {
        self.count += 1;
        let k = match self.key {
            SortKey::ValidFrom => p.start(),
            SortKey::ValidTo => p.end(),
        };
        if let Some(last) = self.last_key {
            let gap = (k - last).ticks().max(0) as f64;
            self.ewma_gap = Some(match self.ewma_gap {
                Some(g) => g + ALPHA * (gap - g),
                None => gap,
            });
        }
        self.last_key = Some(k);

        let dur = (p.end() - p.start()).ticks() as f64;
        self.ewma_duration = Some(match self.ewma_duration {
            Some(d) => d + ALPHA * (dur - d),
            None => dur,
        });
        self.max_duration = self.max_duration.max(dur as i64);

        self.min_ts = Some(match self.min_ts {
            Some(m) => m.min(p.start()),
            None => p.start(),
        });
        self.max_te = Some(match self.max_te {
            Some(m) => m.max(p.end()),
            None => p.end(),
        });
        self.deltas.entry(p.start().ticks()).or_default().delta += 1;
        self.deltas.entry(p.end().ticks()).or_default().delta -= 1;
        // Only the prefix terms from this start on change. In arrival
        // order that suffix is the lifespans still open, so an arrival
        // costs O(log n + concurrency), not O(n).
        let start = p.start().ticks();
        let (mut running, mut peak) = self
            .deltas
            .range(..start)
            .next_back()
            .map_or((0, 0), |(_, e)| (e.running, e.peak));
        for e in self.deltas.range_mut(start..).map(|(_, e)| e) {
            running += e.delta;
            peak = peak.max(running);
            e.running = running;
            e.peak = peak;
        }
    }

    /// The current smoothed arrival rate λ (arrivals per tick on the sort
    /// key), `None` until two arrivals with a positive mean gap exist.
    pub fn lambda(&self) -> Option<f64> {
        self.ewma_gap.filter(|g| *g > 0.0).map(|g| 1.0 / g)
    }

    /// The current smoothed mean duration E[D].
    pub fn mean_duration(&self) -> f64 {
        self.ewma_duration.unwrap_or(0.0)
    }

    /// Exact maximum concurrency over every arrival observed so far.
    pub fn max_concurrency(&self) -> usize {
        self.deltas
            .values()
            .next_back()
            .map_or(0, |e| e.peak.max(0) as usize)
    }

    /// Snapshot as the [`TemporalStats`] shape the cost model and the live
    /// verifier consume.
    pub fn to_stats(&self) -> TemporalStats {
        TemporalStats {
            count: self.count,
            min_ts: self.min_ts,
            max_te: self.max_te,
            lambda: self.lambda(),
            mean_duration: self.mean_duration(),
            max_duration: self.max_duration,
            max_concurrency: self.max_concurrency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: i64, e: i64) -> Period {
        Period::new(TimePoint(s), TimePoint(e)).unwrap()
    }

    #[test]
    fn uniform_arrivals_estimate_lambda_and_duration() {
        let mut st = OnlineStats::new(SortKey::ValidFrom);
        for i in 0..100 {
            st.observe(&p(i * 4, i * 4 + 10));
        }
        let lambda = st.lambda().unwrap();
        assert!((lambda - 0.25).abs() < 1e-9, "λ={lambda}");
        assert!((st.mean_duration() - 10.0).abs() < 1e-9);
        assert_eq!(st.count(), 100);
        let stats = st.to_stats();
        assert_eq!(stats.min_ts, Some(TimePoint(0)));
        assert_eq!(stats.max_te, Some(TimePoint(99 * 4 + 10)));
        assert_eq!(stats.max_duration, 10);
        // Duration 10, gap 4 → ⌈10/4⌉ = 3 overlapping at steady state.
        assert_eq!(stats.max_concurrency, 3);
    }

    #[test]
    fn ewma_tracks_rate_changes() {
        let mut st = OnlineStats::new(SortKey::ValidFrom);
        for i in 0..50 {
            st.observe(&p(i * 10, i * 10 + 1));
        }
        let slow = st.lambda().unwrap();
        let base = 50 * 10;
        for i in 0..50 {
            st.observe(&p(base + i, base + i + 1));
        }
        let fast = st.lambda().unwrap();
        assert!(
            fast > 5.0 * slow,
            "EWMA should chase the new rate: {slow} → {fast}"
        );
    }

    #[test]
    fn concurrency_is_exact_for_nested_intervals() {
        let mut st = OnlineStats::new(SortKey::ValidTo);
        // TE-ordered arrivals; three intervals all containing t=5.
        st.observe(&p(4, 6));
        st.observe(&p(2, 8));
        st.observe(&p(0, 10));
        st.observe(&p(20, 30));
        assert_eq!(st.max_concurrency(), 3);
    }

    #[test]
    fn concurrency_matches_a_full_sweep_in_any_arrival_order() {
        // A deterministic shuffle of nested, meeting and disjoint spans.
        let spans: Vec<Period> = (0..200i64)
            .map(|i| {
                let s = (i * 37) % 101;
                p(s, s + 1 + (i * 13) % 23)
            })
            .collect();
        let mut st = OnlineStats::new(SortKey::ValidFrom);
        for (i, span) in spans.iter().enumerate() {
            st.observe(span);
            assert_eq!(
                st.max_concurrency(),
                TemporalStats::compute(&spans[..=i]).max_concurrency,
                "after {} arrivals",
                i + 1
            );
        }
    }

    #[test]
    fn empty_and_single_arrival_edge_cases() {
        let st = OnlineStats::new(SortKey::ValidFrom);
        assert_eq!(st.lambda(), None);
        assert_eq!(st.max_concurrency(), 0);
        assert_eq!(st.to_stats().count, 0);
        let mut st = st;
        st.observe(&p(3, 7));
        assert_eq!(st.lambda(), None, "one arrival has no gap");
        assert_eq!(st.mean_duration(), 4.0);
        assert_eq!(st.max_concurrency(), 1);
    }
}
