//! How fast the machine is right now, measured beside every operation.
//!
//! The sandbox is a few vCPUs of a shared host, and its speed for the
//! work the server does moves in steps of up to a third that last from
//! seconds to minutes (README, "Why times are speed-normalised"). A run
//! cannot outlast a step, so it measures the step instead: between
//! operations the harness times a fixed reference task of its own (a
//! sort and a large copy, which slow down when the server's work does)
//! and every timed duration is divided by how much slower than nominal
//! the reference task ran around it. The task is the harness's, not the
//! program's: a change to the program moves the latency and leaves the
//! divisor alone.

use crate::stats::median;
use std::time::{Duration, Instant};

/// What one pass of the reference task takes on the box this was written
/// on when nothing disturbs it. It fixes the scale only: a normalised
/// latency is what the operation would have taken at this speed.
const NOMINAL: Duration = Duration::from_micros(2_900);
/// Keys sorted per pass: bound by the core, about four fifths of a pass.
const SORT_KEYS: usize = 150_000;
/// Bytes copied per pass: bound by the caches and memory, as the
/// server's page-cache reads and fresh allocations are. About one fifth
/// of a pass: of the mixes tried, four to one followed the server's own
/// slowdown most closely over all five workloads (README).
const COPY_BYTES: usize = 8 << 20;
/// A pass is taken when the last one is at least this old, so short
/// operations share one and the reference task stays under a tenth of
/// the timed phase.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Passes on each side of an instant whose median is the slowdown there:
/// one pass hit by a hiccup must not rescale the operation beside it.
const NEIGHBOURS: usize = 2;

/// The reference task and the slowdowns it has measured so far.
pub struct Speed {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    /// When each pass ended, ascending, and how many times slower than
    /// [`NOMINAL`] it ran.
    passes: Vec<(Instant, f64)>,
}

impl Speed {
    /// Allocate the task's buffers and fault them in with one pass that
    /// is not recorded.
    pub fn new() -> Speed {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let keys: Vec<u64> = (0..SORT_KEYS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let mut speed = Speed {
            sorted: keys.clone(),
            keys,
            src: vec![7; COPY_BYTES],
            dst: vec![0; COPY_BYTES],
            passes: Vec::new(),
        };
        speed.pass(); // faults the buffers in; not a measurement
        speed.passes.clear();
        speed
    }

    /// Run the reference task once and record how slow it was.
    pub fn pass(&mut self) -> f64 {
        // Untimed: bring the task's buffers back towards the caches,
        // which the last reply (up to 300 000 rows decoded) has just
        // emptied, so that less of what is timed is what the client
        // happened to do before. Some of it remains: the level of the
        // slowdown differs by workload (1.05 on `allen_mix`, 1.25 on
        // `join_stream`); what normalises a run is how it moves.
        self.sorted.copy_from_slice(&self.keys);
        self.dst.copy_from_slice(&self.src);
        std::hint::black_box((&mut self.sorted, &mut self.dst));

        let started = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        std::hint::black_box(&mut self.sorted);
        self.dst.copy_from_slice(&self.src);
        std::hint::black_box(&mut self.dst);
        let ended = Instant::now();
        let slowdown = ended.duration_since(started).as_secs_f64() / NOMINAL.as_secs_f64();
        self.passes.push((ended, slowdown));
        slowdown
    }

    /// Passes before the first operation of a timed phase.
    pub fn begin(&mut self) {
        for _ in 0..NEIGHBOURS {
            self.pass();
        }
    }

    /// Between two operations: a pass, unless the last one is recent.
    pub fn between(&mut self) {
        let due = self
            .passes
            .last()
            .map_or(true, |(at, _)| at.elapsed() >= SAMPLE_EVERY);
        if due {
            self.pass();
        }
    }

    /// Passes after the last operation of a timed phase.
    pub fn end(&mut self) {
        self.begin();
    }

    /// How many times slower than nominal the machine ran around `at`.
    pub fn slowdown_at(&self, at: Instant) -> f64 {
        slowdown_at(&self.passes, at)
    }

    /// Median slowdown over every pass: what the run as a whole saw.
    pub fn median_slowdown(&self) -> f64 {
        median(&self.passes.iter().map(|p| p.1).collect::<Vec<_>>())
    }

    /// Passes made.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }
}

/// Median of the [`NEIGHBOURS`] passes before `at` and the as many after
/// it (fewer at either end of the run); 1 when there is no pass at all.
fn slowdown_at(passes: &[(Instant, f64)], at: Instant) -> f64 {
    let after = passes.partition_point(|(ended, _)| *ended <= at);
    let from = after.saturating_sub(NEIGHBOURS);
    let to = (after + NEIGHBOURS).min(passes.len());
    match &passes[from..to] {
        [] => 1.0,
        near => median(&near.iter().map(|p| p.1).collect::<Vec<_>>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_of_the_passes_around_an_instant() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let passes: Vec<(Instant, f64)> = [1.0, 1.1, 5.0, 1.3, 1.4, 1.5]
            .iter()
            .enumerate()
            .map(|(i, &s)| (at(10 * i as u64), s))
            .collect();
        // Between the passes at 20 and 30 ms: 1.1, 5.0 | 1.3, 1.4. The
        // outlier does not carry.
        assert!((slowdown_at(&passes, at(25)) - 1.35).abs() < 1e-12);
        // Before every pass and after every pass: the nearest two.
        assert!((slowdown_at(&passes, t0 - Duration::from_millis(1)) - 1.05).abs() < 1e-12);
        assert!((slowdown_at(&passes, at(99)) - 1.45).abs() < 1e-12);
        assert_eq!(slowdown_at(&[], at(5)), 1.0);
    }

    #[test]
    fn passes_are_spaced_and_a_pass_does_the_same_work_each_time() {
        let mut speed = Speed::new();
        assert_eq!(speed.passes(), 0);
        speed.begin();
        assert_eq!(speed.passes(), NEIGHBOURS);
        speed.between(); // the last pass has just ended
        assert_eq!(speed.passes(), NEIGHBOURS);
        let first = speed.sorted.clone();
        speed.pass();
        assert_eq!(speed.sorted, first);
        assert!(speed.sorted.windows(2).all(|w| w[0] <= w[1]));
        assert!(speed.median_slowdown() > 0.0);
        assert!(speed.slowdown_at(Instant::now()) > 0.0);
    }
}
