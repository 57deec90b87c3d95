//! Interval-stream generators with controlled arrival rate and durations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdb_core::{StreamOrder, TsTuple, Value};

/// How successive `ValidFrom` values advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Deterministic gap of exactly `gap` ticks between arrivals.
    FixedGap {
        /// Ticks between consecutive `ValidFrom` values.
        gap: i64,
    },
    /// Exponentially distributed gaps with the given mean (a Poisson
    /// arrival process — the paper's `1/λ` mean inter-arrival time).
    Poisson {
        /// Mean inter-arrival gap, `1/λ`.
        mean_gap: f64,
    },
    /// Gaps drawn uniformly from `[min, max]`.
    UniformGap {
        /// Smallest possible gap.
        min: i64,
        /// Largest possible gap.
        max: i64,
    },
}

/// Distribution of lifespan durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationDist {
    /// Every lifespan lasts exactly `ticks`.
    Fixed {
        /// The constant duration.
        ticks: i64,
    },
    /// Durations drawn uniformly from `[min, max]`.
    Uniform {
        /// Shortest possible duration.
        min: i64,
        /// Longest possible duration.
        max: i64,
    },
    /// Exponentially distributed durations with the given mean.
    Exponential {
        /// Mean duration `E[D]`.
        mean: f64,
    },
    /// Pareto (heavy-tailed) durations: minimum `scale`, shape `alpha`.
    /// Small `alpha` (e.g. 1.2) yields occasional very long lifespans —
    /// the regime where long-lived tuples pin down stream-operator state.
    Pareto {
        /// Minimum duration (the Pareto scale parameter).
        scale: f64,
        /// Tail shape — smaller is heavier-tailed.
        alpha: f64,
    },
}

/// The largest multiple of its mean an exponential draw can reach: the
/// samplers draw `u` from `[ε, 1)`, so `−ln u ≤ −ln ε`.
fn max_exponential_draw() -> f64 {
    -f64::EPSILON.ln()
}

impl DurationDist {
    /// The longest duration [`DurationDist::sample`] can return.
    fn max(&self) -> f64 {
        let d = match *self {
            DurationDist::Fixed { ticks } => ticks as f64,
            DurationDist::Uniform { max, .. } => max as f64,
            DurationDist::Exponential { mean } => (max_exponential_draw() * mean).round(),
            DurationDist::Pareto { scale, alpha } => {
                (scale / f64::EPSILON.powf(1.0 / alpha)).round()
            }
        };
        d.max(1.0)
    }

    fn sample(&self, rng: &mut StdRng) -> i64 {
        let d = match *self {
            DurationDist::Fixed { ticks } => ticks,
            DurationDist::Uniform { min, max } => rng.gen_range(min..=max),
            DurationDist::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (-u.ln() * mean).round() as i64
            }
            DurationDist::Pareto { scale, alpha } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (scale / u.powf(1.0 / alpha)).round() as i64
            }
        };
        d.max(1) // Period invariant: duration must be strictly positive.
    }

    /// Analytic mean of this distribution (after the `max(1)` clamp this is
    /// approximate for distributions with mass near zero).
    pub fn mean(&self) -> f64 {
        match *self {
            DurationDist::Fixed { ticks } => ticks as f64,
            DurationDist::Uniform { min, max } => (min + max) as f64 / 2.0,
            DurationDist::Exponential { mean } => mean,
            DurationDist::Pareto { scale, alpha } => {
                if alpha > 1.0 {
                    alpha * scale / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

impl ArrivalProcess {
    /// The longest gap [`ArrivalProcess::sample_gap`] can return.
    fn max_gap(&self) -> f64 {
        let g = match *self {
            ArrivalProcess::FixedGap { gap } => gap as f64,
            ArrivalProcess::Poisson { mean_gap } => (max_exponential_draw() * mean_gap).round(),
            ArrivalProcess::UniformGap { max, .. } => max as f64,
        };
        g.max(0.0)
    }

    fn sample_gap(&self, rng: &mut StdRng) -> i64 {
        match *self {
            ArrivalProcess::FixedGap { gap } => gap,
            ArrivalProcess::Poisson { mean_gap } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (-u.ln() * mean_gap).round() as i64
            }
            ArrivalProcess::UniformGap { min, max } => rng.gen_range(min..=max),
        }
        .max(0)
    }

    /// Mean gap `1/λ` of this process.
    pub fn mean_gap(&self) -> f64 {
        match *self {
            ArrivalProcess::FixedGap { gap } => gap as f64,
            ArrivalProcess::Poisson { mean_gap } => mean_gap,
            ArrivalProcess::UniformGap { min, max } => (min + max) as f64 / 2.0,
        }
    }
}

/// Builder for a synthetic interval stream.
///
/// Produces tuples whose `ValidFrom`s are nondecreasing (the natural
/// "ordering by time" the paper observes temporal data has), with surrogate
/// `Sᵢ` and value `i` so every tuple is distinguishable in join outputs.
#[derive(Debug, Clone)]
pub struct IntervalGen {
    /// Number of tuples to generate.
    pub count: usize,
    /// Arrival process for `ValidFrom`s.
    pub arrivals: ArrivalProcess,
    /// Lifespan duration distribution.
    pub durations: DurationDist,
    /// First arrival time.
    pub start_at: i64,
    /// RNG seed.
    pub seed: u64,
}

impl IntervalGen {
    /// A stream of `count` tuples with Poisson arrivals (mean gap
    /// `mean_gap`) and exponential durations (mean `mean_duration`).
    pub fn poisson(count: usize, mean_gap: f64, mean_duration: f64, seed: u64) -> IntervalGen {
        IntervalGen {
            count,
            arrivals: ArrivalProcess::Poisson { mean_gap },
            durations: DurationDist::Exponential {
                mean: mean_duration,
            },
            start_at: 0,
            seed,
        }
    }

    /// A fully deterministic regular stream (fixed gaps, fixed durations).
    pub fn regular(count: usize, gap: i64, duration: i64) -> IntervalGen {
        IntervalGen {
            count,
            arrivals: ArrivalProcess::FixedGap { gap },
            durations: DurationDist::Fixed { ticks: duration },
            start_at: 0,
            seed: 0,
        }
    }

    /// Override the first arrival time.
    pub fn starting_at(mut self, t: i64) -> IntervalGen {
        self.start_at = t;
        self
    }

    /// An upper bound on every `ValidTo` [`IntervalGen::generate`] can
    /// produce, computed in floating point so it cannot overflow itself:
    /// `generate` is only sound while this stays below `i64::MAX`.
    pub fn max_end(&self) -> f64 {
        self.start_at as f64 + self.count as f64 * self.arrivals.max_gap() + self.durations.max()
    }

    /// Generate the stream, ordered by `ValidFrom ↑` (ties possible when a
    /// sampled gap is zero).
    pub fn generate(&self) -> Vec<TsTuple> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.count);
        let mut t = self.start_at;
        for i in 0..self.count {
            let d = self.durations.sample(&mut rng);
            out.push(
                TsTuple::new(Value::str(format!("S{i}")), Value::Int(i as i64), t, t + d)
                    .expect("duration >= 1"),
            );
            t += self.arrivals.sample_gap(&mut rng);
        }
        out
    }

    /// Generate and then re-sort under an arbitrary [`StreamOrder`] — the
    /// way experiments prepare each row of the paper's Tables 1 and 2.
    pub fn generate_sorted(&self, order: StreamOrder) -> Vec<TsTuple> {
        let mut v = self.generate();
        order.sort(&mut v);
        v
    }
}

/// Generate a stream where roughly `fraction` of tuples are strictly
/// contained inside the preceding "parent" tuple — exercising Contain-join
/// and the self-semijoins with a known containment density.
pub fn nested_stream(count: usize, fraction: f64, seed: u64) -> Vec<TsTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut t: i64 = 0;
    let mut i = 0usize;
    while i < count {
        let parent_len = rng.gen_range(20..60);
        let parent = TsTuple::new(
            Value::str(format!("S{i}")),
            Value::Int(i as i64),
            t,
            t + parent_len,
        )
        .unwrap();
        out.push(parent);
        i += 1;
        if i < count && rng.gen_bool(fraction) {
            // A strictly nested child: [t+a, t+parent_len-b) with a,b ≥ 1.
            let a = rng.gen_range(1..parent_len / 2);
            let b = rng.gen_range(1..parent_len / 2);
            let child = TsTuple::new(
                Value::str(format!("S{i}")),
                Value::Int(i as i64),
                t + a,
                t + parent_len - b,
            )
            .unwrap();
            out.push(child);
            i += 1;
        }
        t += rng.gen_range(5..40);
    }
    out.truncate(count);
    let mut v = out;
    StreamOrder::TS_ASC_TE_ASC.sort(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{Temporal, TemporalStats};

    #[test]
    fn regular_stream_is_exactly_spaced() {
        let v = IntervalGen::regular(5, 10, 3).generate();
        assert_eq!(v.len(), 5);
        for (i, t) in v.iter().enumerate() {
            assert_eq!(t.ts().ticks(), i as i64 * 10);
            assert_eq!(t.te().ticks(), i as i64 * 10 + 3);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = IntervalGen::poisson(100, 5.0, 20.0, 42).generate();
        let b = IntervalGen::poisson(100, 5.0, 20.0, 42).generate();
        let c = IntervalGen::poisson(100, 5.0, 20.0, 43).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn output_is_ts_sorted() {
        let v = IntervalGen::poisson(500, 3.0, 12.0, 7).generate();
        assert_eq!(StreamOrder::TS_ASC.first_violation(&v), None);
    }

    #[test]
    fn generate_sorted_respects_requested_order() {
        let gen = IntervalGen::poisson(200, 3.0, 25.0, 11);
        let v = gen.generate_sorted(StreamOrder::TE_ASC);
        assert_eq!(StreamOrder::TE_ASC.first_violation(&v), None);
        // With long durations, TE order differs from TS order.
        let by_ts = gen.generate_sorted(StreamOrder::TS_ASC);
        assert_ne!(v, by_ts);
    }

    #[test]
    fn empirical_stats_match_generator_parameters() {
        let gen = IntervalGen::poisson(5_000, 4.0, 40.0, 99);
        let s = TemporalStats::compute(&gen.generate());
        let lambda = s.lambda.unwrap();
        assert!(
            (lambda - 0.25).abs() < 0.05,
            "λ should be ≈ 1/mean_gap: {lambda}"
        );
        assert!(
            (s.mean_duration - 40.0).abs() < 3.0,
            "mean duration {}",
            s.mean_duration
        );
    }

    #[test]
    fn durations_always_positive() {
        for dist in [
            DurationDist::Exponential { mean: 0.5 },
            DurationDist::Uniform { min: 1, max: 2 },
            DurationDist::Pareto {
                scale: 0.4,
                alpha: 1.1,
            },
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..1000 {
                assert!(dist.sample(&mut rng) >= 1);
            }
        }
    }

    #[test]
    fn max_end_bounds_every_generated_end() {
        for gen in [
            IntervalGen::poisson(500, 3.0, 12.0, 7),
            IntervalGen::regular(50, 4, 9).starting_at(-100),
        ] {
            let last = gen.generate().iter().map(|t| t.te().ticks()).max().unwrap();
            assert!((last as f64) <= gen.max_end(), "{last} > {}", gen.max_end());
        }
        assert!(IntervalGen::poisson(3, 1e300, 1.0, 1).max_end() > i64::MAX as f64);
    }

    #[test]
    fn nested_stream_has_containment_pairs() {
        let v = nested_stream(400, 0.8, 3);
        assert_eq!(v.len(), 400);
        let contained = v
            .iter()
            .filter(|c| v.iter().any(|p| p.period.contains(&c.period)))
            .count();
        assert!(
            contained > 80,
            "expected plenty of contained tuples, got {contained}"
        );
        assert_eq!(StreamOrder::TS_ASC_TE_ASC.first_violation(&v), None);
    }

    #[test]
    fn pareto_produces_heavy_tail() {
        let gen = IntervalGen {
            count: 2000,
            arrivals: ArrivalProcess::FixedGap { gap: 1 },
            durations: DurationDist::Pareto {
                scale: 2.0,
                alpha: 1.2,
            },
            start_at: 0,
            seed: 5,
        };
        let s = TemporalStats::compute(&gen.generate());
        assert!(
            s.max_duration as f64 > 20.0 * s.mean_duration.max(1.0) / 4.0,
            "heavy tail expected: max {} mean {}",
            s.max_duration,
            s.mean_duration
        );
    }
}
