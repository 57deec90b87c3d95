//! Latency/error-rate SLOs with multi-window burn-rate evaluation.
//!
//! An objective says "`target` of events must be good" (good = under the
//! latency objective, or not an error). The burn rate over a window is
//! the observed bad ratio divided by the budgeted bad ratio
//! `1 − target`: burn 1.0 spends the error budget exactly at the rate
//! the objective allows, burn 14 exhausts a 30-day budget in ~2 days.
//! Following the multi-window alerting idiom, each objective is
//! evaluated over a *fast* window (catches acute regressions within
//! seconds) and a *slow* window (catches sustained slow burn), and the
//! two verdicts fold into a [`HealthState`] that `/healthz` reports so a
//! router can shed load from a sick backend.
//!
//! Time is injected (epoch-style seconds via `record_at`/`evaluate_at`),
//! so tests drive the clock deterministically;
//! the engine feeds it seconds elapsed since process start.

use crate::metrics::{Gauge, Registry};

/// One objective's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Required good ratio in (0, 1), e.g. 0.99 = "99% of queries good".
    pub target: f64,
    /// Fast evaluation window in seconds (acute burn).
    pub fast_window_s: u64,
    /// Slow evaluation window in seconds (sustained burn); also the
    /// retention horizon.
    pub slow_window_s: u64,
    /// Burn-rate threshold over the fast window that flags the objective.
    pub fast_burn: f64,
    /// Burn-rate threshold over the slow window that flags the objective.
    pub slow_burn: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            target: 0.99,
            fast_window_s: 60,
            slow_window_s: 600,
            fast_burn: 14.0,
            slow_burn: 6.0,
        }
    }
}

/// The health verdict `/healthz` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// No objective is burning.
    #[default]
    Ok,
    /// At least one objective burns over one window — shed load.
    Degraded,
    /// At least one objective burns over both windows — stop routing here.
    Critical,
}

impl HealthState {
    /// The lowercase name (`ok` / `degraded` / `critical`).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// The worse of two verdicts.
    pub fn worst(self, other: HealthState) -> HealthState {
        if self as u8 >= other as u8 {
            self
        } else {
            other
        }
    }
}

/// One objective's evaluation snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloReport {
    /// Events in the fast window.
    pub fast_total: u64,
    /// Bad events in the fast window.
    pub fast_bad: u64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Events in the slow window.
    pub slow_total: u64,
    /// Bad events in the slow window.
    pub slow_bad: u64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// The folded verdict for this objective.
    pub health: HealthState,
}

/// Per-second good/bad tallies.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    /// The second this bucket currently covers.
    at_s: u64,
    good: u64,
    bad: u64,
}

/// One objective's sliding windows: a ring of per-second buckets spanning
/// the slow window, evaluated lazily.
#[derive(Debug, Clone)]
pub struct SloEngine {
    config: SloConfig,
    ring: Vec<Bucket>,
}

impl SloEngine {
    /// A fresh engine for `config` (windows clamped to ≥ 1 s, fast ≤ slow).
    pub fn new(mut config: SloConfig) -> SloEngine {
        config.fast_window_s = config.fast_window_s.max(1);
        config.slow_window_s = config.slow_window_s.max(config.fast_window_s);
        let ring = vec![Bucket::default(); config.slow_window_s as usize];
        SloEngine { config, ring }
    }

    /// The active configuration.
    pub fn config(&self) -> SloConfig {
        self.config
    }

    /// Record one event at `now_s` (seconds on any monotone clock).
    pub fn record_at(&mut self, now_s: u64, good: bool) {
        let slot = (now_s % self.config.slow_window_s) as usize;
        let b = &mut self.ring[slot];
        if b.at_s != now_s {
            *b = Bucket {
                at_s: now_s,
                good: 0,
                bad: 0,
            };
        }
        if good {
            b.good += 1;
        } else {
            b.bad += 1;
        }
    }

    /// Sum `(total, bad)` over the last `window_s` seconds ending at
    /// `now_s` inclusive.
    fn window(&self, now_s: u64, window_s: u64) -> (u64, u64) {
        let from = now_s.saturating_sub(window_s.saturating_sub(1));
        let (mut total, mut bad) = (0u64, 0u64);
        for b in &self.ring {
            if b.at_s >= from && b.at_s <= now_s && (b.good | b.bad) != 0 {
                total += b.good + b.bad;
                bad += b.bad;
            }
        }
        (total, bad)
    }

    /// Evaluate both windows as of `now_s`. An empty window burns at 0.
    pub fn evaluate_at(&self, now_s: u64) -> SloReport {
        let budget = (1.0 - self.config.target).max(f64::EPSILON);
        let burn = |total: u64, bad: u64| {
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        let (fast_total, fast_bad) = self.window(now_s, self.config.fast_window_s);
        let (slow_total, slow_bad) = self.window(now_s, self.config.slow_window_s);
        let fast_burn = burn(fast_total, fast_bad);
        let slow_burn = burn(slow_total, slow_bad);
        let fast_hot = fast_burn >= self.config.fast_burn;
        let slow_hot = slow_burn >= self.config.slow_burn;
        let health = match (fast_hot, slow_hot) {
            (true, true) => HealthState::Critical,
            (true, false) | (false, true) => HealthState::Degraded,
            (false, false) => HealthState::Ok,
        };
        SloReport {
            fast_total,
            fast_bad,
            fast_burn,
            slow_total,
            slow_bad,
            slow_burn,
            health,
        }
    }
}

/// The exported `tdb_slo_*` gauges for one named objective.
#[derive(Debug, Clone)]
pub struct SloMetrics {
    burn_fast: Gauge,
    burn_slow: Gauge,
    health: Gauge,
}

impl SloMetrics {
    /// Register the three gauges for `objective` in `reg`.
    pub fn register(reg: &Registry, objective: &str) -> SloMetrics {
        let labels = [("objective", objective)];
        SloMetrics {
            burn_fast: reg.gauge_with(
                "tdb_slo_burn_rate_fast",
                &labels,
                "Burn rate over the fast SLO window.",
            ),
            burn_slow: reg.gauge_with(
                "tdb_slo_burn_rate_slow",
                &labels,
                "Burn rate over the slow SLO window.",
            ),
            health: reg.gauge_with(
                "tdb_slo_health",
                &labels,
                "Objective health: 0 ok, 1 degraded, 2 critical.",
            ),
        }
    }

    /// Publish one evaluation snapshot.
    pub fn publish(&self, report: &SloReport) {
        self.burn_fast.set(report.fast_burn);
        self.burn_slow.set(report.slow_burn);
        self.health.set(f64::from(report.health as u8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            target: 0.99,
            fast_window_s: 5,
            slow_window_s: 20,
            fast_burn: 14.0,
            slow_burn: 6.0,
        }
    }

    #[test]
    fn empty_windows_are_healthy() {
        let slo = SloEngine::new(cfg());
        let r = slo.evaluate_at(100);
        assert_eq!(r.health, HealthState::Ok);
        assert_eq!((r.fast_total, r.slow_total), (0, 0));
        assert_eq!(r.fast_burn, 0.0);
    }

    #[test]
    fn all_bad_burns_at_inverse_budget_and_goes_critical() {
        let mut slo = SloEngine::new(cfg());
        for s in 0..30u64 {
            slo.record_at(s, false);
        }
        let r = slo.evaluate_at(29);
        // All bad with a 1% budget: burn = 1.0 / 0.01 = 100 on both windows.
        assert!((r.fast_burn - 100.0).abs() < 1e-9, "{r:?}");
        assert!((r.slow_burn - 100.0).abs() < 1e-9, "{r:?}");
        assert_eq!(r.health, HealthState::Critical);
    }

    #[test]
    fn acute_spike_degrades_within_the_fast_window_only() {
        let mut slo = SloEngine::new(cfg());
        // A long healthy history…
        for s in 0..100u64 {
            for _ in 0..10 {
                slo.record_at(s, true);
            }
        }
        // …then one second of pure failure: 10/50 bad in the fast window
        // (burn 20 ≥ 14) but only 10/200 in the slow one (burn 5 < 6).
        for _ in 0..10 {
            slo.record_at(100, false);
        }
        let r = slo.evaluate_at(100);
        assert!(r.fast_burn >= 14.0, "{r:?}");
        assert!(r.slow_burn < 6.0, "{r:?}");
        assert_eq!(r.health, HealthState::Degraded);
    }

    #[test]
    fn events_age_out_of_the_windows() {
        let mut slo = SloEngine::new(cfg());
        for _ in 0..10 {
            slo.record_at(50, false);
        }
        assert_eq!(slo.evaluate_at(50).health, HealthState::Critical);
        // 5 s later the failures left the fast window but not the slow one.
        let r = slo.evaluate_at(55);
        assert_eq!(r.fast_total, 0, "{r:?}");
        assert_eq!(r.slow_bad, 10, "{r:?}");
        assert_eq!(r.health, HealthState::Degraded);
        // After the slow window they are gone entirely.
        let r = slo.evaluate_at(90);
        assert_eq!(r.slow_total, 0, "{r:?}");
        assert_eq!(r.health, HealthState::Ok);
    }

    #[test]
    fn health_folds_to_the_worst_verdict() {
        assert_eq!(
            HealthState::Ok.worst(HealthState::Degraded),
            HealthState::Degraded
        );
        assert_eq!(
            HealthState::Critical.worst(HealthState::Degraded),
            HealthState::Critical
        );
        assert_eq!(HealthState::Ok.worst(HealthState::Ok), HealthState::Ok);
        assert_eq!(HealthState::Degraded.name(), "degraded");
    }

    #[test]
    fn slo_gauges_publish_the_snapshot() {
        let reg = Registry::new();
        let m = SloMetrics::register(&reg, "latency");
        m.publish(&SloReport {
            fast_burn: 42.0,
            slow_burn: 3.5,
            health: HealthState::Degraded,
            ..SloReport::default()
        });
        let text = reg.render();
        assert!(
            text.contains("tdb_slo_burn_rate_fast{objective=\"latency\"} 42"),
            "{text}"
        );
        assert!(
            text.contains("tdb_slo_health{objective=\"latency\"} 1"),
            "{text}"
        );
    }
}
