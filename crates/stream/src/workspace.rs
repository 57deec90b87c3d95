//! Workspace statistics.
//!
//! Paper §4.1: "the implementation of a function as a stream processor may
//! require keeping some local state information ... the state represents a
//! summary of the history of a computation". For the join and semijoin
//! operators of §4.2 "the only form of state information we need consider is
//! subsets of the tuples previously read".
//!
//! [`WorkspaceStats`] instruments that subset: the high-water mark of
//! resident tuples, the number of garbage-collection discards, and the
//! time-averaged occupancy. Every workspace layout records into it (the
//! kernels' [`crate::gapless::GaplessWorkspace`], and the row layout of the
//! reference joins in `tdb-oracle`), and the experiments validating Tables
//! 1–3 read these numbers off the operators after a run.

use std::fmt;

/// Inclusive upper bounds of the fixed occupancy-histogram buckets every
/// workspace records into; residencies above the last bound land in the
/// implicit `+Inf` overflow bucket. Workspace size is *the* performance
/// driver of the paper's stream operators, so the distribution — not just
/// the peak — is worth keeping, and a fixed small array keeps the
/// recording cost to one array increment per insertion.
pub const OCCUPANCY_BOUNDS: [usize; 8] = [1, 2, 4, 8, 16, 64, 256, 1024];

/// Number of occupancy-histogram cells: one per bound plus overflow.
pub const OCCUPANCY_CELLS: usize = OCCUPANCY_BOUNDS.len() + 1;

/// The histogram cell a residency of `n` tuples falls into.
fn occupancy_bucket(n: usize) -> usize {
    OCCUPANCY_BOUNDS
        .iter()
        .position(|b| n <= *b)
        .unwrap_or(OCCUPANCY_BOUNDS.len())
}

/// Statistics of a workspace over an operator's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkspaceStats {
    /// Maximum number of state tuples ever resident.
    pub max_resident: usize,
    /// Tuples currently resident.
    pub resident: usize,
    /// Total tuples ever inserted.
    pub inserted: usize,
    /// Tuples discarded by garbage collection.
    pub discarded: usize,
    /// Sum of residency sampled at every insertion (for mean occupancy).
    occupancy_sum: u64,
    /// Number of samples contributing to `occupancy_sum`.
    samples: u64,
    /// Residency histogram, sampled at every insertion: one count per
    /// [`OCCUPANCY_BOUNDS`] bucket plus the `+Inf` overflow cell.
    occupancy: [u64; OCCUPANCY_CELLS],
}

impl WorkspaceStats {
    /// Mean number of resident tuples, sampled at insertions.
    pub fn mean_resident(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.samples as f64
        }
    }

    /// Synthetic stats for an operator whose workspace is a fixed
    /// materialized structure of `n` tuples (e.g. the inner relation of a
    /// nested-loop join) rather than an instrumented workspace.
    pub fn of_resident(n: usize) -> WorkspaceStats {
        let mut occupancy = [0u64; OCCUPANCY_CELLS];
        if n != 0 {
            occupancy[occupancy_bucket(n)] = 1;
        }
        WorkspaceStats {
            max_resident: n,
            resident: n,
            inserted: n,
            discarded: 0,
            occupancy_sum: n as u64,
            samples: u64::from(n != 0),
            occupancy,
        }
    }

    /// The occupancy histogram: insertion-sampled residency counts, one
    /// per [`OCCUPANCY_BOUNDS`] bucket plus the `+Inf` overflow cell.
    pub fn occupancy_histogram(&self) -> [u64; OCCUPANCY_CELLS] {
        self.occupancy
    }

    /// Account for one insertion that left `resident` tuples in the state.
    /// Shared by every workspace layout so the observed numbers are
    /// layout-independent by construction.
    pub fn record_insert(&mut self, resident: usize) {
        self.inserted += 1;
        self.resident = resident;
        self.max_resident = self.max_resident.max(resident);
        self.occupancy_sum += resident as u64;
        self.samples += 1;
        self.occupancy[occupancy_bucket(resident)] += 1;
    }

    /// Account for a garbage-collection pass that removed `removed` tuples,
    /// leaving `resident`.
    pub fn record_discard(&mut self, removed: usize, resident: usize) {
        self.discarded += removed;
        self.resident = resident;
    }

    /// Account for an extraction (match-removal, not GC) leaving `resident`.
    pub fn record_extract(&mut self, resident: usize) {
        self.resident = resident;
    }

    /// Element-wise sum of two occupancy histograms.
    fn merge_occupancy(self, other: WorkspaceStats) -> [u64; OCCUPANCY_CELLS] {
        let mut out = self.occupancy;
        for (cell, n) in out.iter_mut().zip(other.occupancy) {
            *cell += n;
        }
        out
    }

    /// Combine the stats of two state sets held *simultaneously* by one
    /// operator (e.g. the X and Y states of a two-sided sweep): peak
    /// residency is the **sum** of the individual peaks, matching the
    /// `max_workspace` accounting the operators already expose.
    pub fn combine_stacked(self, other: WorkspaceStats) -> WorkspaceStats {
        WorkspaceStats {
            max_resident: self.max_resident + other.max_resident,
            resident: self.resident + other.resident,
            inserted: self.inserted + other.inserted,
            discarded: self.discarded + other.discarded,
            occupancy_sum: self.occupancy_sum + other.occupancy_sum,
            samples: self.samples + other.samples,
            occupancy: self.merge_occupancy(other),
        }
    }

    /// Combine the stats of the *same* operator run over disjoint
    /// partitions in parallel: each worker holds its own workspace, so the
    /// aggregate peak is the **max** over workers while throughput counters
    /// (inserted, discarded, occupancy samples) sum.
    pub fn combine_parallel(self, other: WorkspaceStats) -> WorkspaceStats {
        WorkspaceStats {
            max_resident: self.max_resident.max(other.max_resident),
            resident: self.resident + other.resident,
            inserted: self.inserted + other.inserted,
            discarded: self.discarded + other.discarded,
            occupancy_sum: self.occupancy_sum + other.occupancy_sum,
            samples: self.samples + other.samples,
            occupancy: self.merge_occupancy(other),
        }
    }
}

impl fmt::Display for WorkspaceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max {} resident (mean {:.1}), {} inserted, {} gc-discarded",
            self.max_resident,
            self.mean_resident(),
            self.inserted,
            self.discarded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_resident_is_a_fixed_workspace() {
        let s = WorkspaceStats::of_resident(5);
        assert_eq!(s.max_resident, 5);
        assert_eq!(s.resident, 5);
        assert_eq!(s.mean_resident(), 5.0);
        assert_eq!(WorkspaceStats::of_resident(0).mean_resident(), 0.0);
    }
}
