//! The row-layout workspace of the reference joins.
//!
//! [`Workspace`] is a plain vector of state tuples recording into the same
//! [`WorkspaceStats`] hooks as the kernels' gapless columnar layout
//! ([`tdb_stream::GaplessWorkspace`]), so a reference join's observed
//! peak, discards and occupancy histogram are directly comparable with a
//! kernel's.

use tdb_stream::WorkspaceStats;

/// An instrumented bag of state tuples.
///
/// Stored as a vector: the paper's garbage-collection criteria are sweep
/// conditions evaluated against every resident tuple, which `retain`
/// expresses directly. State sizes are small by design (that is the point of
/// the paper), so linear scans are appropriate.
#[derive(Debug, Clone)]
pub struct Workspace<T> {
    items: Vec<T>,
    stats: WorkspaceStats,
}

impl<T> Default for Workspace<T> {
    fn default() -> Self {
        Workspace::new()
    }
}

impl<T> Workspace<T> {
    /// An empty workspace.
    pub fn new() -> Workspace<T> {
        Workspace {
            items: Vec::new(),
            stats: WorkspaceStats::default(),
        }
    }

    /// Insert a state tuple.
    pub fn insert(&mut self, item: T) {
        self.items.push(item);
        self.stats.record_insert(self.items.len());
    }

    /// Garbage-collect: keep only tuples satisfying `keep`.
    pub fn gc(&mut self, keep: impl FnMut(&T) -> bool) {
        let before = self.items.len();
        self.items.retain(keep);
        self.stats
            .record_discard(before - self.items.len(), self.items.len());
    }

    /// Remove and return tuples matching `take` (used by semijoins that
    /// emit a state tuple on its first match).
    pub fn extract(&mut self, mut take: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(self.items.len());
        for item in self.items.drain(..) {
            if take(&item) {
                taken.push(item);
            } else {
                kept.push(item);
            }
        }
        self.items = kept;
        // Extractions are matches, not GC discards.
        self.stats.record_extract(self.items.len());
        taken
    }

    /// Iterate over resident tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Number of resident tuples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the workspace empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }
}

impl<'a, T> IntoIterator for &'a Workspace<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{Temporal, TsTuple};
    use tdb_stream::{GaplessWorkspace, OCCUPANCY_BOUNDS, OCCUPANCY_CELLS};

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    #[test]
    fn gapless_layout_mirrors_row_stats() {
        // Drive the same insert/gc sequence through both layouts and
        // require bit-identical stats.
        let rows: Vec<TsTuple> = (0..10).map(|i| iv(i, i + 4)).collect();
        let mut row = Workspace::new();
        let mut col = GaplessWorkspace::new();
        for (i, t) in rows.iter().enumerate() {
            row.insert(t.clone());
            col.insert(t.clone());
            if i % 3 == 2 {
                let cut = t.ts().ticks();
                row.gc(|x: &TsTuple| x.te().ticks() >= cut);
                col.gc_te_ge(cut);
            }
        }
        assert_eq!(row.stats(), col.stats());
        assert_eq!(row.len(), col.len());
        // Residence order must match too.
        let row_order: Vec<i64> = row.iter().map(|t| t.ts().ticks()).collect();
        assert_eq!(row_order, col.ts_col());
    }

    #[test]
    fn tracks_high_water_mark() {
        let mut w = Workspace::new();
        for i in 0..5 {
            w.insert(i);
        }
        w.gc(|&i| i >= 3);
        assert_eq!(w.len(), 2);
        for i in 5..7 {
            w.insert(i);
        }
        let s = w.stats();
        assert_eq!(s.max_resident, 5);
        assert_eq!(s.inserted, 7);
        assert_eq!(s.discarded, 3);
        assert_eq!(s.resident, 4);
    }

    #[test]
    fn mean_occupancy() {
        let mut w = Workspace::new();
        w.insert(1); // occupancy 1
        w.insert(2); // occupancy 2
        w.insert(3); // occupancy 3
        assert!((w.stats().mean_resident() - 2.0).abs() < 1e-12);
        let empty: Workspace<i32> = Workspace::new();
        assert_eq!(empty.stats().mean_resident(), 0.0);
    }

    #[test]
    fn extract_removes_matches_without_counting_gc() {
        let mut w = Workspace::new();
        for i in 0..6 {
            w.insert(i);
        }
        let taken = w.extract(|&i| i % 2 == 0);
        assert_eq!(taken, vec![0, 2, 4]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.stats().discarded, 0);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn combine_stacked_sums_peaks() {
        let mut a = Workspace::new();
        let mut b = Workspace::new();
        for i in 0..4 {
            a.insert(i);
        }
        for i in 0..3 {
            b.insert(i);
        }
        let s = a.stats().combine_stacked(b.stats());
        assert_eq!(s.max_resident, 7);
        assert_eq!(s.inserted, 7);
        assert_eq!(s.resident, 7);
    }

    #[test]
    fn combine_parallel_takes_peak_max() {
        let mut a = Workspace::new();
        let mut b = Workspace::new();
        for i in 0..4 {
            a.insert(i);
        }
        for i in 0..3 {
            b.insert(i);
        }
        let s = a.stats().combine_parallel(b.stats());
        assert_eq!(s.max_resident, 4);
        assert_eq!(s.inserted, 7);
    }

    #[test]
    fn occupancy_histogram_buckets_by_residency() {
        let mut w = Workspace::new();
        for i in 0..5 {
            w.insert(i); // residencies 1, 2, 3, 4, 5
        }
        let h = w.stats().occupancy_histogram();
        // Buckets ≤1, ≤2, ≤4, ≤8: residency 1 → cell 0, 2 → cell 1,
        // 3 and 4 → cell 2, 5 → cell 3.
        assert_eq!(&h[..4], &[1, 1, 2, 1]);
        assert_eq!(h.iter().sum::<u64>(), 5);
        // Combining parallel partitions sums the histograms.
        let both = w.stats().combine_parallel(w.stats());
        assert_eq!(both.occupancy_histogram().iter().sum::<u64>(), 10);
        // of_resident records its single synthetic sample.
        let fixed = WorkspaceStats::of_resident(3000);
        assert_eq!(fixed.occupancy_histogram()[OCCUPANCY_BOUNDS.len()], 1);
        assert_eq!(
            WorkspaceStats::of_resident(0).occupancy_histogram(),
            [0; OCCUPANCY_CELLS]
        );
    }

    #[test]
    fn display() {
        let mut w = Workspace::new();
        w.insert(1);
        assert!(w.stats().to_string().contains("max 1 resident"));
    }
}
