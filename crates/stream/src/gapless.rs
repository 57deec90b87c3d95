//! The gapless columnar workspace of the sweep kernels.
//!
//! Piatov et al.'s "gapless hash map" observation: a sweep workspace is
//! scanned in full on every garbage-collection cutoff and every probe, so
//! what matters is that the scanned keys are *dense* — no tombstones, no
//! pointer chasing, no interleaved payload bytes. [`GaplessWorkspace`]
//! therefore stores the `ValidFrom`/`ValidTo` endpoints of the resident
//! state tuples as two parallel `i64` columns and keeps them gapless under
//! deletion by in-place compaction. GC cutoffs and containment/overlap
//! probes become branch-light loops over a few cache lines of integers;
//! payloads sit in a third parallel column and are only touched on a match.
//!
//! Compaction is **order-preserving** (a parallel-array `retain`, not a
//! swap-remove): the kernels then emit matches in the sequence the
//! paper's tuple-at-a-time algorithms do, at every batch size — output
//! sequences are comparable exactly, not just as multisets.
//!
//! The accounting is shared with [`crate::workspace::Workspace`], the row
//! layout the remaining pull operators use: both call the same
//! [`WorkspaceStats`] recording hooks, so `max_resident`, discard counts,
//! and occupancy histograms — the numbers `tdb-analyze` caps and `tdb-obs`
//! cross-checks — are layout-independent by construction.

use crate::workspace::WorkspaceStats;
use tdb_core::Temporal;

/// An instrumented state set stored as gapless parallel endpoint columns.
///
/// Semantically identical to [`crate::workspace::Workspace`]; the layout is
/// what changes. Predicates run over `(ts, te)` tick pairs instead of
/// `&T`, which is what lets the hot loops avoid touching payloads.
#[derive(Debug, Clone)]
pub struct GaplessWorkspace<T> {
    ts: Vec<i64>,
    te: Vec<i64>,
    payload: Vec<T>,
    stats: WorkspaceStats,
}

impl<T> Default for GaplessWorkspace<T> {
    fn default() -> Self {
        GaplessWorkspace::new()
    }
}

impl<T> GaplessWorkspace<T> {
    /// An empty workspace.
    pub fn new() -> GaplessWorkspace<T> {
        GaplessWorkspace {
            ts: Vec::new(),
            te: Vec::new(),
            payload: Vec::new(),
            stats: WorkspaceStats::default(),
        }
    }

    /// Insert a state tuple with pre-extracted endpoint ticks.
    #[inline]
    pub fn insert_raw(&mut self, ts: i64, te: i64, item: T) {
        self.ts.push(ts);
        self.te.push(te);
        self.payload.push(item);
        self.stats.record_insert(self.payload.len());
    }

    /// Garbage-collect: keep only tuples whose `(ts, te)` ticks satisfy
    /// `keep`. Order-preserving in-place compaction of all three columns.
    pub fn gc(&mut self, mut keep: impl FnMut(i64, i64) -> bool) {
        let n = self.payload.len();
        let mut w = 0;
        for r in 0..n {
            if keep(self.ts[r], self.te[r]) {
                if w != r {
                    self.ts.swap(w, r);
                    self.te.swap(w, r);
                    self.payload.swap(w, r);
                }
                w += 1;
            }
        }
        self.ts.truncate(w);
        self.te.truncate(w);
        self.payload.truncate(w);
        self.stats.record_discard(n - w, w);
    }

    /// GC keeping tuples with `te >= cut` — the Contain-join X-state rule.
    #[inline]
    pub fn gc_te_ge(&mut self, cut: i64) {
        self.gc(|_, te| te >= cut)
    }

    /// GC keeping tuples with `te > cut` — the Overlap-join state rule.
    #[inline]
    pub fn gc_te_gt(&mut self, cut: i64) {
        self.gc(|_, te| te > cut)
    }

    /// GC keeping tuples with `ts > cut` — the strict-overlap Y-state rule.
    #[inline]
    pub fn gc_ts_gt(&mut self, cut: i64) {
        self.gc(|ts, _| ts > cut)
    }

    /// Discard every resident tuple, counting them as GC discards (used
    /// when an input's exhaustion proves no future matches are possible).
    pub fn clear_discard(&mut self) {
        let n = self.payload.len();
        self.ts.clear();
        self.te.clear();
        self.payload.clear();
        self.stats.record_discard(n, 0);
    }

    /// Remove and return (in residence order) tuples whose ticks satisfy
    /// `take` — matches, not GC discards.
    pub fn extract(&mut self, mut take: impl FnMut(i64, i64) -> bool) -> Vec<T> {
        let n = self.payload.len();
        let mut taken = Vec::new();
        let mut kts = Vec::with_capacity(n);
        let mut kte = Vec::with_capacity(n);
        let mut kept = Vec::with_capacity(n);
        for (i, item) in std::mem::take(&mut self.payload).into_iter().enumerate() {
            if take(self.ts[i], self.te[i]) {
                taken.push(item);
            } else {
                kts.push(self.ts[i]);
                kte.push(self.te[i]);
                kept.push(item);
            }
        }
        self.ts = kts;
        self.te = kte;
        self.payload = kept;
        self.stats.record_extract(self.payload.len());
        taken
    }

    /// The resident `ValidFrom` column, in ticks.
    #[inline]
    pub fn ts_col(&self) -> &[i64] {
        &self.ts
    }

    /// The resident `ValidTo` column, in ticks.
    #[inline]
    pub fn te_col(&self) -> &[i64] {
        &self.te
    }

    /// Payload of resident tuple `i`.
    #[inline]
    pub fn payload(&self, i: usize) -> &T {
        &self.payload[i]
    }

    /// Number of resident tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Is the workspace empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Lifetime statistics — same accounting as the row layout.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }
}

impl<T: Temporal> GaplessWorkspace<T> {
    /// Insert a state tuple, extracting its endpoints.
    #[inline]
    pub fn insert(&mut self, item: T) {
        let (ts, te) = (item.ts().ticks(), item.te().ticks());
        self.insert_raw(ts, te, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use tdb_core::TsTuple;

    fn iv(s: i64, e: i64) -> TsTuple {
        TsTuple::interval(s, e).unwrap()
    }

    #[test]
    fn mirrors_row_workspace_stats() {
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
    fn gc_compacts_in_order() {
        let mut w = GaplessWorkspace::new();
        for i in 0..6 {
            w.insert(iv(i, i + 10));
        }
        w.gc(|ts, _| ts % 2 == 0);
        assert_eq!(w.ts_col(), &[0, 2, 4]);
        assert_eq!(w.stats().discarded, 3);
        assert_eq!(w.stats().resident, 3);
        w.clear_discard();
        assert_eq!(w.stats().discarded, 6);
        assert!(w.is_empty());
    }

    #[test]
    fn extract_preserves_order_and_skips_gc_count() {
        let mut w = GaplessWorkspace::new();
        for i in 0..6 {
            w.insert(iv(i, i + 10));
        }
        let taken = w.extract(|ts, _| ts >= 4);
        assert_eq!(taken, vec![iv(4, 14), iv(5, 15)]);
        assert_eq!(w.len(), 4);
        assert_eq!(w.ts_col(), &[0, 1, 2, 3]);
        assert_eq!(w.stats().discarded, 0);
    }
}
