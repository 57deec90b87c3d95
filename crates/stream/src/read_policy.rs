//! Read policies for two-input sweep operators.
//!
//! When both input buffers hold a tuple, a two-input stream processor must
//! decide *which stream to advance*. Correctness does not depend on the
//! choice (the garbage-collection rules are safe under any interleaving —
//! see the proof sketch in [`crate::contain_join`]), but workspace size
//! does. Paper §4.2.1 proposes a policy guided by the arrival rates λ:
//! "a tuple from an input stream which allows more state tuples to be
//! discarded will be read. To estimate the number of disposable state
//! tuples, 1/λ_x and 1/λ_y are used."

use tdb_core::TimePoint;

/// Which input a sweep operator should advance next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Advance the left (X) input.
    Left,
    /// Advance the right (Y) input.
    Right,
}

/// Strategy for choosing which input to advance when both buffers are full.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadPolicy {
    /// Strictly alternate between inputs — the naive baseline.
    Alternate,
    /// Advance the stream whose buffered tuple has the smaller sweep key —
    /// a merge-like global sweep. This minimizes read-ahead and, with both
    /// inputs sorted on the sweep key, keeps the off-sweep state empty.
    MinKey,
    /// The paper's policy: advance the stream expected to enable more
    /// garbage collection, estimated from the arrival rates.
    ///
    /// Advancing X moves the X sweep key forward by `1/λ_x` in expectation,
    /// allowing Y-state tuples behind the new key to be discarded (expected
    /// count `λ_y/λ_x`); symmetrically for advancing Y. The policy compares
    /// the two expectations, i.e. it advances the stream whose *opposite*
    /// state stands to shrink most.
    LambdaGuided {
        /// Arrival rate of the X stream.
        lambda_x: f64,
        /// Arrival rate of the Y stream.
        lambda_y: f64,
    },
}

/// Mutable state a policy needs across decisions.
#[derive(Debug, Clone, Default)]
pub struct PolicyState {
    last: Option<Advance>,
}

impl ReadPolicy {
    /// Decide which input to advance.
    ///
    /// * `x_key`, `y_key` — sweep keys of the buffered tuples;
    /// * `x_state`, `y_state` — current resident counts of the X and Y
    ///   state sets (used by the λ-guided estimate).
    pub fn decide(
        &self,
        state: &mut PolicyState,
        x_key: TimePoint,
        y_key: TimePoint,
        x_state: usize,
        y_state: usize,
    ) -> Advance {
        let choice = match *self {
            ReadPolicy::Alternate => match state.last {
                Some(Advance::Left) => Advance::Right,
                _ => Advance::Left,
            },
            ReadPolicy::MinKey => {
                if x_key <= y_key {
                    Advance::Left
                } else {
                    Advance::Right
                }
            }
            ReadPolicy::LambdaGuided { lambda_x, lambda_y } => {
                // Expected discards if we advance X: the X key moves ≈1/λ_x,
                // freeing Y-state tuples at density λ_y — but no more than
                // are resident. Symmetrically for advancing Y.
                let gain_advance_x = (lambda_y / lambda_x).min(y_state as f64);
                let gain_advance_y = (lambda_x / lambda_y).min(x_state as f64);
                if gain_advance_x >= gain_advance_y {
                    Advance::Left
                } else {
                    Advance::Right
                }
            }
        };
        state.last = Some(choice);
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternate_flips() {
        let p = ReadPolicy::Alternate;
        let mut st = PolicyState::default();
        let first = p.decide(&mut st, TimePoint(0), TimePoint(0), 0, 0);
        let second = p.decide(&mut st, TimePoint(0), TimePoint(0), 0, 0);
        assert_ne!(first, second);
    }

    #[test]
    fn min_key_follows_sweep() {
        let p = ReadPolicy::MinKey;
        let mut st = PolicyState::default();
        assert_eq!(
            p.decide(&mut st, TimePoint(0), TimePoint(5), 0, 0),
            Advance::Left
        );
        assert_eq!(
            p.decide(&mut st, TimePoint(5), TimePoint(0), 0, 0),
            Advance::Right
        );
    }

    #[test]
    fn lambda_guided_prefers_larger_expected_discards() {
        // X arrives 10× as fast as Y: advancing Y frees many X-state
        // tuples (λ_x/λ_y = 10), advancing X frees few (0.1).
        let p = ReadPolicy::LambdaGuided {
            lambda_x: 1.0,
            lambda_y: 0.1,
        };
        let mut st = PolicyState::default();
        assert_eq!(
            p.decide(&mut st, TimePoint(0), TimePoint(0), 50, 50),
            Advance::Right
        );
        // With no X state resident, the gain caps at zero: advance X.
        assert_eq!(
            p.decide(&mut st, TimePoint(0), TimePoint(0), 0, 50),
            Advance::Left
        );
    }
}
