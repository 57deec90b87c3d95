//! WAL observability: `tdb_wal_*` metric families plus a slow-fsync ring.
//!
//! All handles are registered once against a shared [`Registry`] and
//! cloned into each log writer; updates are lock-free atomics. The
//! slow-fsync ring mirrors the engine's slow-query log: the most recent
//! fsyncs that crossed the threshold, for `\stats`-style reporting.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use tdb_obs::{Counter, Gauge, Histogram, Registry, STAGE_BOUNDS};

/// Fsyncs slower than this many microseconds land in the slow ring.
pub const SLOW_FSYNC_THRESHOLD_US: u64 = 10_000;

/// The slow ring keeps this many entries.
const SLOW_RING_CAP: usize = 8;

/// One fsync that crossed [`SLOW_FSYNC_THRESHOLD_US`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowFsync {
    /// Relation whose log was being synced.
    pub relation: String,
    /// How long the fsync took.
    pub micros: u64,
}

/// Cloneable bundle of every WAL metric handle.
#[derive(Clone)]
pub struct WalMetrics {
    /// Records appended (`tdb_wal_appends_total`).
    pub appends: Counter,
    /// Commit calls (`tdb_wal_commits_total`).
    pub commits: Counter,
    /// Every sync on the durable path (`tdb_wal_fsyncs_total`): WAL
    /// commits, checkpoint rewrites and their directory, and the catalog's
    /// heap, manifest and directory syncs it reports here.
    pub fsyncs: Counter,
    /// fsync latency in microseconds (`tdb_wal_fsync_micros`).
    pub fsync_micros: Histogram,
    /// The same samples as the engine-wide per-stage series
    /// (`tdb_stage_duration_us{stage="wal_fsync"}`), so fsync time lines
    /// up against parse/plan/execute in one family. The registry dedups
    /// by name+labels, so this aliases the engine's cell when both
    /// register against the same registry.
    pub stage_fsync: Histogram,
    /// Bytes written to log files (`tdb_wal_bytes_written_total`).
    pub bytes_written: Counter,
    /// Checkpoint compactions (`tdb_wal_checkpoints_total`).
    pub checkpoints: Counter,
    /// Torn tails truncated during replay (`tdb_wal_torn_truncations_total`).
    pub torn_truncations: Counter,
    /// Records replayed on open (`tdb_wal_replayed_records_total`).
    pub replayed_records: Counter,
    /// Bytes replayed by the last recovery (`tdb_wal_replay_bytes`).
    pub replay_bytes: Gauge,
    /// Duration of the last recovery in µs (`tdb_wal_replay_duration_us`).
    pub replay_micros: Gauge,
    slow: Arc<Mutex<VecDeque<SlowFsync>>>,
}

impl WalMetrics {
    /// Register (or re-attach to) every `tdb_wal_*` family in `reg`.
    pub fn register(reg: &Registry) -> WalMetrics {
        WalMetrics {
            appends: reg.counter("tdb_wal_appends_total", "WAL records appended."),
            commits: reg.counter("tdb_wal_commits_total", "WAL commit calls."),
            fsyncs: reg.counter(
                "tdb_wal_fsyncs_total",
                "Syncs on the durable path: WAL, heap, manifest and directory.",
            ),
            fsync_micros: reg.histogram(
                "tdb_wal_fsync_micros",
                "WAL fsync latency in microseconds.",
                &[100, 500, 1_000, 5_000, 10_000, 50_000, 100_000],
            ),
            stage_fsync: reg.histogram_with(
                "tdb_stage_duration_us",
                &[("stage", "wal_fsync")],
                "Per-stage query latency in microseconds.",
                &STAGE_BOUNDS,
            ),
            bytes_written: reg.counter(
                "tdb_wal_bytes_written_total",
                "Bytes written to WAL log files.",
            ),
            checkpoints: reg.counter(
                "tdb_wal_checkpoints_total",
                "WAL checkpoint compactions performed.",
            ),
            torn_truncations: reg.counter(
                "tdb_wal_torn_truncations_total",
                "Torn WAL tails truncated during replay.",
            ),
            replayed_records: reg.counter(
                "tdb_wal_replayed_records_total",
                "WAL records replayed on open.",
            ),
            replay_bytes: reg.gauge(
                "tdb_wal_replay_bytes",
                "Bytes replayed by the most recent recovery.",
            ),
            replay_micros: reg.gauge(
                "tdb_wal_replay_duration_us",
                "Duration of the most recent recovery in microseconds.",
            ),
            slow: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// A detached bundle backed by a private registry (tests, tools).
    pub fn detached() -> WalMetrics {
        WalMetrics::register(&Registry::new())
    }

    /// Record one fsync: latency histogram, counter, and the slow ring
    /// when it crossed the threshold.
    pub fn observe_fsync(&self, relation: &str, micros: u64) {
        self.fsyncs.inc();
        self.fsync_micros.observe(micros);
        self.stage_fsync.observe(micros);
        if micros >= SLOW_FSYNC_THRESHOLD_US {
            let mut ring = self.slow.lock();
            if ring.len() == SLOW_RING_CAP {
                ring.pop_front();
            }
            ring.push_back(SlowFsync {
                relation: relation.to_string(),
                micros,
            });
        }
    }

    /// The most recent slow fsyncs, oldest first.
    pub fn slow_fsyncs(&self) -> Vec<SlowFsync> {
        self.slow.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_ring_is_bounded_and_thresholded() {
        let m = WalMetrics::detached();
        m.observe_fsync("X", 50);
        assert!(m.slow_fsyncs().is_empty(), "fast fsyncs stay out");
        for i in 0..20 {
            m.observe_fsync("X", SLOW_FSYNC_THRESHOLD_US + i);
        }
        let slow = m.slow_fsyncs();
        assert_eq!(slow.len(), 8);
        assert_eq!(slow.last().unwrap().micros, SLOW_FSYNC_THRESHOLD_US + 19);
        assert_eq!(m.fsyncs.get(), 21);
        assert_eq!(m.fsync_micros.count(), 21);
    }

    #[test]
    fn families_render_under_tdb_wal_prefix() {
        let reg = Registry::new();
        let m = WalMetrics::register(&reg);
        m.appends.add(3);
        m.replay_bytes.set(128.0);
        m.observe_fsync("X", 42);
        let text = reg.render();
        assert!(text.contains("tdb_wal_appends_total 3"), "{text}");
        assert!(text.contains("tdb_wal_replay_bytes 128"), "{text}");
        assert!(
            text.contains("# TYPE tdb_wal_fsync_micros histogram"),
            "{text}"
        );
        assert!(
            text.contains("tdb_stage_duration_us_count{stage=\"wal_fsync\"} 1"),
            "fsyncs feed the engine-wide stage family: {text}"
        );
    }
}
