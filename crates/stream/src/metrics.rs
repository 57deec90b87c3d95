//! Per-operator execution metrics.

use std::fmt;

/// Counters every stream operator maintains while running.
///
/// Together with [`crate::workspace::WorkspaceStats`] these quantify the
/// paper's §4.1 tradeoff: workspace size vs. sort order vs. passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Tuples read from the left (X) input.
    pub read_left: usize,
    /// Tuples read from the right (Y) input.
    pub read_right: usize,
    /// Predicate evaluations / tuple comparisons performed.
    pub comparisons: usize,
    /// Tuples emitted.
    pub emitted: usize,
    /// Complete passes over stored inputs (1 for single-pass stream
    /// operators; `n` for the inner relation of a nested-loop join).
    pub passes: usize,
}

impl OpMetrics {
    /// Total tuples read from both inputs.
    pub fn read_total(&self) -> usize {
        self.read_left + self.read_right
    }
}

impl fmt::Display for OpMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {}+{}, {} comparisons, {} emitted, {} passes",
            self.read_left, self.read_right, self.comparisons, self.emitted, self.passes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_display() {
        let m = OpMetrics {
            read_left: 10,
            read_right: 5,
            comparisons: 40,
            emitted: 3,
            passes: 1,
        };
        assert_eq!(m.read_total(), 15);
        let s = m.to_string();
        assert!(s.contains("read 10+5"));
        assert!(s.contains("3 emitted"));
    }
}
