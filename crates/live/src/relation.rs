//! One live relation: queue → watermark → staging → promotion.
//!
//! The admission path for a live relation chains the pieces the rest of
//! the workspace provides:
//!
//! 1. raw rows wait in a bounded [`IngestQueue`] (backpressure);
//! 2. [`LiveRelation::pump`] admits them — schema validation, watermark
//!    advance (late arrivals are rejected with the paper's order-violation
//!    diagnostic), online λ/E[D] statistics, then into a spill-backed
//!    [`StagedAppend`];
//! 3. [`LiveRelation::take_closed`] surrenders the watermark-closed prefix
//!    in the relation's sort order, ready for
//!    [`Catalog::append_rows`](tdb_storage::Catalog::append_rows) — the
//!    promotion that makes tuples visible to standing queries.
//!
//! Throughout, a [`Progress`] handle publishes monotonic admitted /
//! promoted / emitted counters and the watermark-lag gauge so a live
//! run is observable mid-flight.

use crate::ewma::OnlineStats;
use crate::held::Horizon;
use crate::queue::IngestQueue;
use std::path::Path;
use tdb_core::{
    PeriodRow, Row, StreamOrder, TdbError, TdbResult, TemporalSchema, TemporalStats, TimePoint,
};
use tdb_storage::{IoStats, StagedAppend};
use tdb_stream::{Progress, Watermark};
use tdb_wal::{WalLog, WalRecord};

/// Counters from replaying one relation's write-ahead log.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelationRecovery {
    /// Open-suffix rows restaged from the log.
    pub restaged: usize,
    /// Rows from `Promote` markers confirmed durable in the catalog and
    /// therefore dropped instead of restaged.
    pub rows_already_promoted: usize,
}

/// Live state of one relation.
pub struct LiveRelation {
    name: String,
    schema: TemporalSchema,
    order: StreamOrder,
    /// Watermark slack in ticks (kept for checkpoint records).
    slack: i64,
    watermark: Watermark,
    queue: IngestQueue,
    stage: StagedAppend,
    stats: OnlineStats,
    progress: Progress,
    /// Write-ahead log, when the relation runs durably.
    wal: Option<WalLog>,
    /// Rows the catalog durably holds for this relation (base rows plus
    /// confirmed promotions). Checkpoints persist it; replay reconciles
    /// `Promote` markers against the catalog's actual row count with it.
    durable_rows: u64,
    /// Times a producer hit a full queue and had to wait for a drain.
    stalls: u64,
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
    /// Build the live state for `name`, staging spills under `stage_dir`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        schema: TemporalSchema,
        order: StreamOrder,
        slack: i64,
        alpha: f64,
        queue_capacity: usize,
        stage_budget: usize,
        stage_dir: impl AsRef<Path>,
        io: IoStats,
    ) -> TdbResult<LiveRelation> {
        Ok(LiveRelation {
            name: name.into(),
            schema,
            order,
            slack: slack.max(0),
            watermark: Watermark::for_order(&order, slack),
            queue: IngestQueue::new(queue_capacity),
            stage: StagedAppend::new(stage_dir.as_ref(), order, stage_budget, io)?,
            stats: OnlineStats::new(order.primary.key, alpha),
            progress: Progress::new(),
            wal: None,
            durable_rows: 0,
            stalls: 0,
            admitted: 0,
            promoted: 0,
            promotion_batches: 0,
            max_promotion_batch: 0,
            promotion_floor: None,
        })
    }

    /// Rebuild live state from a replayed write-ahead log: restore the
    /// watermark from the checkpoint head, restage the open suffix by
    /// re-observing each logged append (deterministic, so the recovered
    /// frontier equals the pre-crash frontier exactly), and reconcile
    /// `Promote` markers against the catalog's durable row count so a
    /// promotion interrupted between its intent record and the heap
    /// append is neither lost nor applied twice.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recover(
        name: &str,
        schema: TemporalSchema,
        order: StreamOrder,
        slack: i64,
        alpha: f64,
        queue_capacity: usize,
        stage_budget: usize,
        stage_dir: impl AsRef<Path>,
        io: IoStats,
        records: &[WalRecord],
        catalog_rows: u64,
    ) -> TdbResult<(LiveRelation, RelationRecovery)> {
        let corrupt = |i: usize, detail: String| {
            TdbError::Corrupt(format!("wal replay for `{name}`, record #{i}: {detail}"))
        };
        let mut rel = LiveRelation::new(
            name,
            schema,
            order,
            slack,
            alpha,
            queue_capacity,
            stage_budget,
            stage_dir,
            io,
        )?;
        let mut recovery = RelationRecovery::default();
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
                    rel.durable_rows = *promoted;
                }
                WalRecord::Append { row } => {
                    rel.schema.check_row(row)?;
                    let period = rel.schema.period_of(row)?;
                    let staged = PeriodRow::new(row.clone(), period);
                    rel.watermark
                        .observe(&staged)
                        .map_err(|e| corrupt(i, e.to_string()))?;
                    rel.stats.observe(&period);
                    rel.stage.push(staged)?;
                    recovery.restaged += 1;
                }
                // The frontier is reproduced by re-observing the appends;
                // the logged value is a cross-check we accept silently.
                WalRecord::Watermark { .. } => {}
                WalRecord::Seal => rel.watermark.seal(),
                WalRecord::Promote { closed } => {
                    let wm = rel.watermark.clone();
                    let batch = rel.stage.take_closed(|t| wm.closes(t))?;
                    if batch.len() as u64 != *closed {
                        return Err(corrupt(
                            i,
                            format!(
                                "promote marker claims {closed} closed rows, replay closes {}",
                                batch.len()
                            ),
                        ));
                    }
                    if catalog_rows >= rel.durable_rows + closed {
                        // The heap append reached the catalog before the
                        // crash: dropping the batch avoids double-apply.
                        rel.durable_rows += closed;
                        recovery.rows_already_promoted += batch.len();
                        recovery.restaged -= batch.len();
                        rel.progress.add_gc_discarded(*closed);
                    } else {
                        // The append never happened: keep the rows staged
                        // so the next epoch re-promotes them.
                        for t in batch {
                            rel.stage.push(t)?;
                        }
                    }
                }
            }
        }
        // Registration always creates the catalog relation empty, so the
        // durable baseline is exactly the rows this relation promoted.
        rel.promoted = rel.durable_rows;
        rel.admitted = rel.promoted + rel.stage.len() as u64;
        rel.progress.add_admitted(rel.admitted);
        rel.watermark.publish_lag(&rel.progress);
        Ok((rel, recovery))
    }

    /// Attach a write-ahead log: from here on every admitted row is
    /// logged before it is staged and committed before it is
    /// acknowledged.
    pub(crate) fn attach_wal(&mut self, log: WalLog) {
        self.wal = Some(log);
    }

    /// Is this relation running durably (write-ahead logged)?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Record that the catalog durably holds `n` rows for this relation
    /// (the baseline at registration time).
    pub(crate) fn set_durable_rows(&mut self, n: u64) {
        self.durable_rows = n;
    }

    /// Log the intent to promote `n` closed rows and force it to disk
    /// (per the flush policy) *before* the catalog heap append, so replay
    /// can reconcile an interrupted promotion.
    pub(crate) fn wal_promote_intent(&mut self, n: usize) -> TdbResult<()> {
        if let Some(wal) = &mut self.wal {
            wal.append(&WalRecord::Promote { closed: n as u64 })?;
            wal.commit()?;
        }
        Ok(())
    }

    /// The catalog heap append for `n` promoted rows is durable; advance
    /// the reconciliation baseline.
    pub(crate) fn confirm_promotion(&mut self, n: u64) {
        self.durable_rows += n;
    }

    /// Checkpoint: atomically compact the log to `Register` +
    /// `Checkpoint` + the still-open staged suffix. Replay cost after
    /// this is bounded by the open window, not the stream length.
    pub(crate) fn wal_checkpoint(&mut self) -> TdbResult<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        // Fold spilled runs back into memory so the snapshot is complete;
        // the always-false predicate closes nothing.
        let folded = self.stage.take_closed(|_| false)?;
        debug_assert!(folded.is_empty(), "nothing can close under `false`");
        let open = self.stage.resident();
        let sealed = self.watermark.is_sealed();
        let mut records = Vec::with_capacity(open.len() + 3);
        records.push(WalRecord::Register {
            order: self.order,
            slack: self.slack,
        });
        records.push(WalRecord::Checkpoint {
            promoted: self.durable_rows,
            frontier: self.watermark.current(),
            // Restoring a sealed watermark before re-observing appends
            // would reject them; when rows remain open the seal is
            // re-applied by the trailing record instead.
            sealed: sealed && open.is_empty(),
        });
        for t in open {
            records.push(WalRecord::Append { row: t.row.clone() });
        }
        if sealed && !self.stage.resident().is_empty() {
            records.push(WalRecord::Seal);
        }
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        wal.rewrite(&records)
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

    /// Times a producer hit the full queue.
    pub fn stalls(&self) -> u64 {
        self.stalls
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
        self.stage.len()
    }

    /// Raw rows waiting in the ingest queue (admission backlog).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The ingest queue's bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
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
        if self.is_sealed() && self.stage.is_empty() {
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

    /// Offer one raw row to the ingest queue; a full queue hands it back
    /// (backpressure) and records a stall.
    pub fn offer(&mut self, row: Row) -> Result<(), Row> {
        self.queue.try_push(row).inspect_err(|_| {
            self.stalls += 1;
        })
    }

    /// Admit every queued row: validate against the schema, advance the
    /// watermark (late arrivals error), fold into the online statistics,
    /// log to the WAL (when durable), and stage. A trailing group commit
    /// makes the whole batch durable before `pump` returns, so callers
    /// may acknowledge everything admitted here.
    pub fn pump(&mut self) -> TdbResult<()> {
        let mut admitted_now = 0u64;
        while let Some(row) = self.queue.pop() {
            self.schema.check_row(&row)?;
            let period = self.schema.period_of(&row)?;
            let staged = PeriodRow::new(row, period);
            self.watermark.observe(&staged)?;
            if let Some(wal) = &mut self.wal {
                // Log before stage: a row is never visible anywhere the
                // log does not already cover.
                wal.append(&WalRecord::Append {
                    row: staged.row.clone(),
                })?;
            }
            self.stats.observe(&period);
            self.stage.push(staged)?;
            self.admitted += 1;
            admitted_now += 1;
            self.progress.add_admitted(1);
        }
        if admitted_now > 0 {
            if let Some(wal) = &mut self.wal {
                wal.append(&WalRecord::Watermark {
                    frontier: self.watermark.current(),
                })?;
                wal.commit()?;
            }
        }
        self.watermark.publish_lag(&self.progress);
        Ok(())
    }

    /// Drain the watermark-closed prefix in sort order — the rows that are
    /// provably final and safe to promote into the catalog heap.
    pub fn take_closed(&mut self) -> TdbResult<Vec<Row>> {
        let wm = &self.watermark;
        let closed = self.stage.take_closed(|t| wm.closes(t))?;
        self.promotion_floor = wm.current();
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
        Ok(closed.into_iter().map(|t| t.row).collect())
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

    fn rel(tag: &str, slack: i64) -> LiveRelation {
        let dir = std::env::temp_dir().join(format!("tdb-liverel-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LiveRelation::new(
            "Faculty",
            schema(),
            StreamOrder::TS_ASC,
            slack,
            0.5,
            4,
            64,
            dir,
            IoStats::new(),
        )
        .unwrap()
    }

    #[test]
    fn admission_pipeline_promotes_only_closed_prefix() {
        let mut r = rel("a", 0);
        for (s, e) in [(0, 5), (2, 9), (4, 6)] {
            r.offer(row("x", s, e)).unwrap();
        }
        r.pump().unwrap();
        assert_eq!(r.admitted(), 3);
        assert_eq!(r.watermark(), Some(TimePoint(4)));
        let closed = r.take_closed().unwrap();
        // TS 0 and 2 are below the watermark 4; TS 4 may still gain peers.
        assert_eq!(closed.len(), 2);
        assert_eq!(r.staged_len(), 1);
        assert_eq!(r.promoted(), 2);
        r.seal().unwrap();
        assert_eq!(r.take_closed().unwrap().len(), 1);
        assert_eq!(r.progress().snapshot().admitted, 3);
        assert_eq!(r.progress().snapshot().gc_discarded, 3);
    }

    #[test]
    fn late_arrival_is_rejected_at_pump() {
        let mut r = rel("b", 0);
        r.offer(row("x", 10, 20)).unwrap();
        r.pump().unwrap();
        r.offer(row("x", 3, 4)).unwrap();
        assert!(matches!(r.pump(), Err(TdbError::OrderViolation { .. })));
    }

    #[test]
    fn queue_backpressure_counts_stalls() {
        let mut r = rel("c", 0);
        for i in 0..4 {
            r.offer(row("x", i, i + 1)).unwrap();
        }
        let back = r.offer(row("x", 9, 10)).unwrap_err();
        assert_eq!(r.stalls(), 1);
        r.pump().unwrap();
        r.offer(back).unwrap();
        r.pump().unwrap();
        assert_eq!(r.admitted(), 5);
    }

    #[test]
    fn live_stats_track_arrivals() {
        let mut r = rel("d", 0);
        assert!(r.live_stats().is_none());
        for i in 0..20 {
            r.offer(row("x", i * 3, i * 3 + 6)).unwrap();
            r.pump().unwrap();
        }
        let stats = r.live_stats().unwrap();
        assert_eq!(stats.count, 20);
        assert!((stats.lambda.unwrap() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.max_concurrency, 2);
    }
}
