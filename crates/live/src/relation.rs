//! One live relation: admission → watermark → staging → promotion.
//!
//! The admission path for a live relation chains the pieces the rest of
//! the workspace provides:
//!
//! 1. [`LiveRelation::admit`] takes one batch in one pass: every row is
//!    checked against the schema and the watermark (late arrivals are
//!    rejected with the paper's order-violation diagnostic) before any
//!    state changes, so a rejected batch leaves nothing logged, staged or
//!    counted; an accepted batch is logged and committed, then folded
//!    into the online λ/E[D] statistics and staged;
//! 2. [`LiveRelation::take_closed`] surrenders the watermark-closed prefix
//!    in the relation's sort order, ready for
//!    [`Catalog::append_rows`](tdb_storage::Catalog::append_rows) — the
//!    promotion that makes tuples visible to standing queries.
//!
//! No buffer sits between the two: a batch is bounded by the request
//! that carried it, and staging holds only the open suffix the watermark
//! has not closed yet.
//!
//! Throughout, a [`Progress`] handle publishes monotonic admitted /
//! promoted / emitted counters and the watermark-lag gauge so a live
//! run is observable mid-flight.

use crate::ewma::OnlineStats;
use crate::held::Horizon;
use tdb_core::{
    PeriodRow, Row, StreamOrder, TdbError, TdbResult, TemporalSchema, TemporalStats, TimePoint,
};
use tdb_storage::RelationMeta;
use tdb_stream::{Progress, Watermark};
use tdb_wal::{WalLog, WalRecord};

/// Live state of one relation.
pub struct LiveRelation {
    name: String,
    schema: TemporalSchema,
    order: StreamOrder,
    /// Watermark slack in ticks (kept for checkpoint records).
    slack: i64,
    watermark: Watermark,
    /// Admitted tuples the watermark has not closed yet, in arrival order
    /// since the last promotion.
    staged: Vec<PeriodRow>,
    stats: OnlineStats,
    progress: Progress,
    /// Write-ahead log, when the relation runs durably.
    wal: Option<WalLog>,
    /// Rows admitted past validation into staging.
    admitted: u64,
    /// Rows promoted into the catalog heap.
    promoted: u64,
    /// Non-empty promotion batches drained by `take_closed`.
    promotion_batches: u64,
    /// Largest single promotion batch.
    max_promotion_batch: u64,
    /// The watermark at the last promotion: every tuple promoted from
    /// here on has its sort key at or above it. `None` before the first
    /// promotion (and after recovery, until one runs).
    promotion_floor: Option<TimePoint>,
}

impl LiveRelation {
    /// Build the live state for `name`, arriving in `order` with `slack`
    /// ticks of admitted disorder.
    pub fn new(
        name: impl Into<String>,
        schema: TemporalSchema,
        order: StreamOrder,
        slack: i64,
    ) -> LiveRelation {
        LiveRelation {
            name: name.into(),
            schema,
            order,
            slack: slack.max(0),
            watermark: Watermark::for_order(&order, slack),
            staged: Vec::new(),
            stats: OnlineStats::new(order.primary.key),
            progress: Progress::new(),
            wal: None,
            admitted: 0,
            promoted: 0,
            promotion_batches: 0,
            max_promotion_batch: 0,
            promotion_floor: None,
        }
    }

    /// Rebuild live state from a replayed write-ahead log: restore the
    /// watermark from the checkpoint head, restage every logged append by
    /// re-observing it (deterministic, so the recovered frontier equals
    /// the pre-crash frontier exactly), then reconcile by count against
    /// `catalog`, what the manifest holds: its row count and heap file. The
    /// checkpoint's `promoted` rows were in the catalog when the log was
    /// compacted, and each promotion since took the watermark-closed rows
    /// — all below every later arrival — so the catalog's further rows are
    /// exactly the first ones of the restaged rows in sort order: those
    /// are dropped. The closed rows left staged are promotions the
    /// manifest does not hold yet; the caller re-applies them.
    ///
    /// A log whose checkpoint counts in another heap file than the
    /// manifest names was written before a load replaced the relation's
    /// rows. A load checkpoints first, so such a log holds only rows that
    /// were staged at the load: all of them stay staged, none counts as
    /// held. Returns the relation and how many restaged rows the catalog
    /// already held.
    pub(crate) fn recover(
        name: &str,
        order: StreamOrder,
        slack: i64,
        records: &[WalRecord],
        catalog: &RelationMeta,
    ) -> TdbResult<(LiveRelation, usize)> {
        let corrupt = |i: usize, detail: String| {
            TdbError::Corrupt(format!("wal replay for `{name}`, record #{i}: {detail}"))
        };
        let mut rel = LiveRelation::new(name, catalog.schema.clone(), order, slack);
        let mut checkpointed = 0;
        let mut heap = None;
        for (i, record) in records.iter().enumerate() {
            match record {
                WalRecord::Register { .. } => {
                    if i != 0 {
                        return Err(corrupt(i, "Register past the log head".into()));
                    }
                }
                WalRecord::Checkpoint {
                    promoted,
                    frontier,
                    sealed,
                } => {
                    rel.watermark =
                        Watermark::restore(order.primary.key, slack, *frontier, *sealed);
                    checkpointed = *promoted;
                }
                WalRecord::Heap { file } => heap = Some(file.as_str()),
                WalRecord::Append { row } => {
                    rel.schema.check_row(row)?;
                    let period = rel.schema.period_of(row)?;
                    let staged = PeriodRow::new(row.clone(), period);
                    rel.watermark
                        .observe(&staged)
                        .map_err(|e| corrupt(i, e.to_string()))?;
                    rel.stats.observe(&period);
                    rel.staged.push(staged);
                }
                // The frontier is reproduced by re-observing the appends;
                // the logged value is a cross-check we accept silently.
                // Promotions reconcile by count below, not by marker.
                WalRecord::Watermark { .. } | WalRecord::Promote { .. } => {}
                WalRecord::Seal => rel.watermark.seal(),
            }
        }
        let catalog_rows = catalog.rows as u64;
        // A log counting in a replaced heap holds none of the loaded rows.
        let reloaded = heap.is_some_and(|file| file != catalog.file);
        let baseline = if reloaded { catalog_rows } else { checkpointed };
        let held = catalog_rows
            .checked_sub(baseline)
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n <= rel.staged.len())
            .ok_or_else(|| {
                TdbError::Corrupt(format!(
                    "wal replay for `{name}`: the catalog holds {catalog_rows} rows, but the \
                     log's checkpoint holds {checkpointed} and it restages {} more",
                    rel.staged.len()
                ))
            })?;
        rel.order.sort(&mut rel.staged);
        rel.staged.drain(..held);
        rel.progress.add_gc_discarded(held as u64);
        rel.promoted = catalog_rows;
        rel.admitted = rel.promoted + rel.staged.len() as u64;
        rel.progress.add_admitted(rel.admitted);
        rel.watermark.publish_lag(&rel.progress);
        Ok((rel, held))
    }

    /// Attach a write-ahead log: from here on every admitted batch is
    /// logged and committed before it is staged and acknowledged.
    pub(crate) fn attach_wal(&mut self, log: WalLog) {
        self.wal = Some(log);
    }

    /// Is this relation running durably (write-ahead logged)?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Bytes this relation's log grew by since its last checkpoint, 0
    /// when not durable.
    pub(crate) fn log_growth(&self) -> u64 {
        self.wal.as_ref().map_or(0, WalLog::bytes_since_rewrite)
    }

    /// The head of this relation's log as of now: `Register`, then the
    /// `Checkpoint` counting `catalog`'s rows as promoted, then the `Heap`
    /// record naming its heap file. `catalog` must be what the manifest
    /// durably holds for this relation.
    pub(crate) fn log_head(&self, catalog: &RelationMeta) -> [WalRecord; 3] {
        [
            WalRecord::Register {
                order: self.order,
                slack: self.slack,
            },
            WalRecord::Checkpoint {
                promoted: catalog.rows as u64,
                frontier: self.watermark.current(),
                // Restoring a sealed watermark before re-observing appends
                // would reject them; when rows remain open the seal is
                // re-applied by the trailing record instead.
                sealed: self.watermark.is_sealed() && self.staged.is_empty(),
            },
            WalRecord::Heap {
                file: catalog.file.clone(),
            },
        ]
    }

    /// Checkpoint: atomically compact the log to its head (see
    /// [`LiveRelation::log_head`]) + the still-open staged suffix, in sort
    /// order. `catalog` is what the manifest durably holds for this
    /// relation, so call this only once the manifest is written. Replay
    /// cost after this is bounded by the open window, not the stream
    /// length.
    pub(crate) fn wal_checkpoint(&mut self, catalog: &RelationMeta) -> TdbResult<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        self.order.sort(&mut self.staged);
        let open = &self.staged;
        let sealed = self.watermark.is_sealed();
        let mut records = Vec::with_capacity(open.len() + 4);
        records.extend(self.log_head(catalog));
        for t in open {
            records.push(WalRecord::Append { row: t.row.clone() });
        }
        if sealed && !open.is_empty() {
            records.push(WalRecord::Seal);
        }
        self.wal
            .as_mut()
            .map_or(Ok(()), |wal| wal.rewrite(&records))
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The arrival sort order.
    pub fn order(&self) -> StreamOrder {
        self.order
    }

    /// The shared progress handle (admitted / promoted / emitted counters
    /// plus the watermark-lag gauge).
    pub fn progress(&self) -> &Progress {
        &self.progress
    }

    /// Current watermark frontier, `None` before any arrival.
    pub fn watermark(&self) -> Option<TimePoint> {
        self.watermark.current()
    }

    /// Has the stream been sealed?
    pub fn is_sealed(&self) -> bool {
        self.watermark.is_sealed()
    }

    /// Rows admitted into staging so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Rows promoted to the catalog so far.
    pub fn promoted(&self) -> u64 {
        self.promoted
    }

    /// Tuples staged but not yet final.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Non-empty promotion batches drained so far.
    pub fn promotion_batches(&self) -> u64 {
        self.promotion_batches
    }

    /// The largest single promotion batch drained so far.
    pub fn max_promotion_batch(&self) -> u64 {
        self.max_promotion_batch
    }

    /// What this relation may still promote: nothing once sealed and
    /// drained, otherwise tuples at or above the last promotion's
    /// watermark (staged tuples were left behind because they sit there,
    /// and later arrivals below it are rejected as late).
    pub(crate) fn horizon(&self) -> Horizon {
        if self.is_sealed() && self.staged.is_empty() {
            Horizon::Closed
        } else {
            Horizon::of(self.order, self.promotion_floor)
        }
    }

    /// Online statistics snapshot (the live-plan override), `None` until
    /// the first arrival.
    pub fn live_stats(&self) -> Option<TemporalStats> {
        (self.stats.count() > 0).then(|| self.stats.to_stats())
    }

    /// Admit one batch, all or nothing. Every row is validated against
    /// the schema and observed by a copy of the watermark first (late
    /// arrivals and arrivals after a seal error); the first failure
    /// returns with nothing logged, staged or counted. A batch that
    /// passes is logged (one `Append` per row, then the new frontier) and
    /// group-committed when durable — so callers may acknowledge it once
    /// this returns — and only then is the frontier installed, the rows
    /// folded into the online statistics and staged.
    pub fn admit(&mut self, rows: impl IntoIterator<Item = Row>) -> TdbResult<()> {
        let mut watermark = self.watermark.clone();
        let mut batch = Vec::new();
        for row in rows {
            self.schema.check_row(&row)?;
            let period = self.schema.period_of(&row)?;
            let staged = PeriodRow::new(row, period);
            watermark.observe(&staged)?;
            batch.push(staged);
        }
        if batch.is_empty() {
            return Ok(());
        }
        if let Some(wal) = &mut self.wal {
            // Log before stage: a row is never visible anywhere the log
            // does not already cover.
            for t in &batch {
                wal.append(&WalRecord::Append { row: t.row.clone() })?;
            }
            wal.append(&WalRecord::Watermark {
                frontier: watermark.current(),
            })?;
            wal.commit()?;
        }
        self.watermark = watermark;
        for t in &batch {
            self.stats.observe(&t.period);
        }
        let n = batch.len() as u64;
        self.staged.append(&mut batch);
        self.admitted += n;
        self.progress.add_admitted(n);
        self.watermark.publish_lag(&self.progress);
        Ok(())
    }

    /// Remove and return every staged tuple the watermark closes, sorted
    /// by the relation's order; the open ones stay staged.
    fn drain_closed(&mut self) -> Vec<PeriodRow> {
        self.order.sort(&mut self.staged);
        let wm = &self.watermark;
        let (closed, open) = std::mem::take(&mut self.staged)
            .into_iter()
            .partition(|t| wm.closes(t));
        self.staged = open;
        closed
    }

    /// Drain the watermark-closed prefix in sort order — the rows that are
    /// provably final and safe to promote into the catalog heap.
    pub fn take_closed(&mut self) -> Vec<Row> {
        let closed = self.drain_closed();
        self.promotion_floor = self.watermark.current();
        let n = closed.len() as u64;
        self.promoted += n;
        if n > 0 {
            self.promotion_batches += 1;
            self.max_promotion_batch = self.max_promotion_batch.max(n);
        }
        // Promotion is the ingest-side GC: staged state released because
        // the watermark proved no earlier arrival is possible.
        self.progress.add_gc_discarded(n);
        self.watermark.publish_lag(&self.progress);
        closed.into_iter().map(|t| t.row).collect()
    }

    /// Seal the stream: the watermark jumps to +∞, every staged tuple
    /// becomes final, and further arrivals error. Durable relations log
    /// and commit the seal so it survives a crash.
    pub fn seal(&mut self) -> TdbResult<()> {
        self.watermark.seal();
        if let Some(wal) = &mut self.wal {
            wal.append(&WalRecord::Seal)?;
            wal.commit()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{TdbError, Value};

    fn schema() -> TemporalSchema {
        TemporalSchema::time_sequence("Name", "Rank")
    }

    fn row(n: &str, s: i64, e: i64) -> Row {
        Row::new(vec![
            Value::str(n),
            Value::str("Assistant"),
            Value::Time(TimePoint(s)),
            Value::Time(TimePoint(e)),
        ])
    }

    fn rel(order: StreamOrder) -> LiveRelation {
        LiveRelation::new("Faculty", schema(), order, 0)
    }

    fn keys(rows: &[Row], at: usize) -> Vec<i64> {
        rows.iter()
            .map(|r| match r.get(at) {
                Value::Time(t) => t.ticks(),
                other => panic!("expected a time, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn admission_pipeline_promotes_only_closed_prefix() {
        let mut r = rel(StreamOrder::TS_ASC);
        r.admit([(0, 5), (2, 9), (4, 6)].map(|(s, e)| row("x", s, e)))
            .unwrap();
        assert_eq!(r.admitted(), 3);
        assert_eq!(r.watermark(), Some(TimePoint(4)));
        let closed = r.take_closed();
        // TS 0 and 2 are below the watermark 4; TS 4 may still gain peers.
        assert_eq!(closed.len(), 2);
        assert_eq!(r.staged_len(), 1);
        assert_eq!(r.promoted(), 2);
        r.seal().unwrap();
        assert_eq!(r.take_closed().len(), 1);
        assert_eq!(r.progress().snapshot().admitted, 3);
        assert_eq!(r.progress().snapshot().gc_discarded, 3);
    }

    #[test]
    fn late_arrival_is_rejected_at_pump() {
        let mut r = rel(StreamOrder::TS_ASC);
        r.admit([row("x", 10, 20)]).unwrap();
        assert!(matches!(
            r.admit([row("x", 3, 4)]),
            Err(TdbError::OrderViolation { .. })
        ));
    }

    #[test]
    fn a_rejected_batch_changes_nothing() {
        let mut r = rel(StreamOrder::TS_ASC);
        r.admit([row("a", 0, 10)]).unwrap();
        let err = r
            .admit([row("b", 5, 6), row("late", 3, 9), row("c", 7, 8)])
            .unwrap_err();
        assert!(matches!(err, TdbError::OrderViolation { .. }), "{err}");
        assert_eq!(r.admitted(), 1);
        assert_eq!(r.staged_len(), 1);
        assert_eq!(r.watermark(), Some(TimePoint(0)));
        assert_eq!(r.progress().snapshot().admitted, 1);
        assert_eq!(r.live_stats().unwrap().count, 1);
        // The rejected batch did not move the frontier: TS 3 is on time.
        r.admit([row("d", 3, 4)]).unwrap();
        r.seal().unwrap();
        assert_eq!(keys(&r.take_closed(), 2), [0, 3]);
    }

    #[test]
    fn closed_prefix_comes_out_sorted() {
        let mut r = LiveRelation::new("Faculty", schema(), StreamOrder::TS_ASC, 4);
        r.admit([(3, 9), (1, 4), (7, 8), (5, 6)].map(|(s, e)| row("x", s, e)))
            .unwrap();
        // Slack 4 puts the frontier at 3: only TS 1 is closed.
        assert_eq!(keys(&r.take_closed(), 2), [1]);
        assert_eq!(r.staged_len(), 3, "open tuples stay staged");
        r.seal().unwrap();
        assert_eq!(keys(&r.take_closed(), 2), [3, 5, 7]);
        assert_eq!(r.staged_len(), 0);
    }

    #[test]
    fn te_order_stages_on_te() {
        let mut r = rel(StreamOrder::TE_ASC);
        r.admit([row("x", 4, 5), row("y", 0, 9)]).unwrap();
        let out = r.take_closed();
        assert_eq!(keys(&out, 3), [5]);
        assert_eq!(r.staged_len(), 1);
    }

    #[test]
    fn live_stats_track_arrivals() {
        let mut r = rel(StreamOrder::TS_ASC);
        assert!(r.live_stats().is_none());
        for i in 0..20 {
            r.admit([row("x", i * 3, i * 3 + 6)]).unwrap();
        }
        let stats = r.live_stats().unwrap();
        assert_eq!(stats.count, 20);
        assert!((stats.lambda.unwrap() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.max_concurrency, 2);
    }
}
