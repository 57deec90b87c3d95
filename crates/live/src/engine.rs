//! The live engine: relations, subscriptions, and the epoch loop.
//!
//! [`LiveEngine`] owns every live relation's admission state and every
//! standing query. One *epoch* ([`LiveEngine::advance`]) is:
//!
//! 1. promote each relation's watermark-closed prefix into the catalog
//!    heap (order-preserving append — [`Catalog::append_rows`] checks the
//!    claimed sort orders against the stored tail, in O(promoted rows)),
//!    and checkpoint once any write-ahead log has grown by more than
//!    [`CHECKPOINT_BYTES`] since its last checkpoint;
//! 2. snapshot online statistics as per-relation overrides, and each live
//!    relation's horizon (what it may still promote);
//! 3. re-verify every subscription under those statistics and collect
//!    the rows that became final: a held subscription folds in only the
//!    rows handed to it at step 1 (kept until an epoch succeeds, so a
//!    failed one loses nothing), a re-evaluated one re-runs over the
//!    enlarged catalog.
//!
//! The engine never holds a borrow of the catalog between calls: the
//! caller (a CLI session, a benchmark, a test) passes it in, keeping
//! ownership where it already lives.

use crate::held::Horizon;
use crate::relation::LiveRelation;
use crate::subscription::{Delta, EpochInput, Subscription};
use std::collections::BTreeMap;
use std::path::PathBuf;
use tdb_algebra::{LogicalPlan, PlannerConfig};
use tdb_analyze::{plan_verified_live, Analysis, AnalyzeConfig};
use tdb_core::{Row, StreamOrder, TdbError, TdbResult, TemporalSchema, TemporalStats, TimePoint};
use tdb_obs::Registry;
use tdb_storage::Catalog;
use tdb_wal::{replay, FlushPolicy, WalMetrics, WalRecord, WalStore, CHECKPOINT_BYTES};

/// Engine-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Watermark slack in ticks (admitted arrival disorder).
    pub slack: i64,
    /// Live-verifier configuration (always run in live mode).
    pub analyze: AnalyzeConfig,
    /// WAL flush policy (only used by [`LiveEngine::open_durable`]).
    pub flush: FlushPolicy,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            slack: 0,
            analyze: AnalyzeConfig::live(),
            flush: FlushPolicy::GroupCommit,
        }
    }
}

/// What [`LiveEngine::open_durable`] recovered from the log directory.
#[derive(Debug, Clone, Default)]
pub struct ReplaySummary {
    /// Relations rebuilt from a write-ahead log.
    pub relations: usize,
    /// WAL records replayed across all logs.
    pub records: usize,
    /// Bytes of valid log frames replayed.
    pub bytes: u64,
    /// Torn tails truncated back to the last good frame.
    pub torn_truncations: u64,
    /// Open-suffix rows restaged into live state.
    pub rows_restaged: usize,
    /// Logged rows the catalog manifest already held, so not restaged.
    pub rows_already_promoted: usize,
    /// Logged rows promoted before the crash that the manifest did not
    /// hold yet, appended to the catalog again.
    pub rows_repromoted: usize,
    /// Wall-clock replay time in microseconds.
    pub duration_us: u64,
}

/// The outcome of one epoch.
#[derive(Debug, Clone, Default)]
pub struct LiveReport {
    /// The epoch this report describes (see [`LiveEngine::epoch`]).
    pub epoch: u64,
    /// Rows promoted into catalog heaps this epoch, across relations.
    pub promoted: usize,
    /// Per-subscription result deltas (only non-empty ones).
    pub deltas: Vec<Delta>,
}

/// Live ingestion and continuous-query engine.
pub struct LiveEngine {
    config: LiveConfig,
    relations: BTreeMap<String, LiveRelation>,
    subscriptions: Vec<Subscription>,
    /// Write-ahead log store, when the engine runs durably.
    wal: Option<WalStore>,
    /// Epochs completed so far; each [`LiveEngine::advance`] finishes one.
    epoch: u64,
}

impl LiveEngine {
    /// An in-memory engine: live state is lost when it is dropped.
    pub fn new(config: LiveConfig) -> LiveEngine {
        LiveEngine {
            config,
            relations: BTreeMap::new(),
            subscriptions: Vec::new(),
            wal: None,
            epoch: 0,
        }
    }

    /// A durable engine: every registration and every admitted row is
    /// write-ahead logged under `wal_dir`, and any logs already there are
    /// replayed so the returned engine holds exactly the state that was
    /// acknowledged before the last shutdown or crash.
    ///
    /// Replay reconstructs each logged relation — watermark frontier,
    /// seal flag, staged open suffix, and online statistics over that
    /// suffix — reconciles it by count against the rows `catalog`'s
    /// manifest holds, and re-applies every promotion the manifest does
    /// not hold. Then it checkpoints, so the next open replays only the
    /// still-open window. Torn log tails (a crash mid-write) are truncated
    /// back to the last intact frame; only a CRC-valid frame that fails
    /// to decode is an error. From here on every sync `catalog` makes
    /// counts in `tdb_wal_fsyncs_total`.
    pub fn open_durable(
        wal_dir: impl Into<PathBuf>,
        config: LiveConfig,
        catalog: &mut Catalog,
        registry: &Registry,
    ) -> TdbResult<(LiveEngine, ReplaySummary)> {
        let start = std::time::Instant::now();
        let store = WalStore::open(wal_dir, config.flush, registry)?;
        let metrics = store.metrics().clone();
        catalog.observe_syncs(move |us| metrics.observe_fsync("catalog", us));
        let mut engine = LiveEngine::new(config);
        let mut summary = ReplaySummary::default();
        for name in store.existing_logs()? {
            let outcome = replay(&store.log_path(&name))?;
            if outcome.truncated_at.is_some() {
                store.metrics().torn_truncations.inc();
                summary.torn_truncations += 1;
            }
            if outcome.records.is_empty() {
                // A log that never got a durable Register record carries
                // no acknowledged state; drop it.
                let _ = std::fs::remove_file(store.log_path(&name));
                continue;
            }
            let Some(WalRecord::Register { order, slack }) = outcome.records.first() else {
                return Err(TdbError::Corrupt(format!(
                    "wal for `{name}` does not start with a Register record"
                )));
            };
            let meta = catalog.meta(&name).map_err(|_| {
                TdbError::Corrupt(format!(
                    "wal for `{name}` exists but the catalog does not know the relation"
                ))
            })?;
            let (mut rel, held) =
                LiveRelation::recover(&name, *order, *slack, &outcome.records, meta)?;
            let repromoted = promote(&mut rel, catalog)?;
            store
                .metrics()
                .replayed_records
                .add(outcome.records.len() as u64);
            summary.relations += 1;
            summary.records += outcome.records.len();
            summary.bytes += outcome.bytes;
            summary.rows_restaged += rel.staged_len();
            summary.rows_already_promoted += held;
            summary.rows_repromoted += repromoted.len();
            rel.attach_wal(store.open_log(&name)?);
            engine.relations.insert(name, rel);
        }
        engine.wal = Some(store);
        // The replayed prefix is now redundant, so the next open pays only
        // for the open window.
        engine.checkpoint(catalog)?;
        summary.duration_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(m) = engine.wal_metrics() {
            m.replay_bytes.set(summary.bytes as f64);
            m.replay_micros.set(summary.duration_us as f64);
        }
        Ok((engine, summary))
    }

    /// Is the engine write-ahead logging (opened via
    /// [`LiveEngine::open_durable`])?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The WAL metric handles, when running durably.
    pub fn wal_metrics(&self) -> Option<&WalMetrics> {
        self.wal.as_ref().map(WalStore::metrics)
    }

    /// Checkpoint now and return how many relation logs were rewritten
    /// (0 for a non-durable engine, which has none).
    ///
    /// The one checkpoint routine, run when a log has grown by more than
    /// [`CHECKPOINT_BYTES`] since its last checkpoint, at registration,
    /// around a load of a live relation, at open and on request. It
    /// is engine-wide because the manifest is shared. No log holds
    /// buffered frames between calls (admission and sealing commit), so
    /// every acknowledged row is in the logs already; then
    /// [`Catalog::persist`] syncs every heap appended to since the last
    /// manifest write and replaces the manifest, syncing its directory;
    /// only then is each log rewritten to `Register · Checkpoint · Heap ·
    /// open suffix`. A crash between the two finds the new manifest with
    /// the old logs, and replay's count reconciliation drops what the
    /// manifest holds.
    pub fn checkpoint(&mut self, catalog: &mut Catalog) -> TdbResult<usize> {
        if self.wal.is_none() {
            return Ok(0);
        }
        catalog.persist()?;
        for rel in self.relations.values_mut() {
            rel.wal_checkpoint(catalog.meta(rel.name())?)?;
        }
        Ok(self.relations.len())
    }

    /// Epochs completed so far. Every delta stamped with epoch `e` was
    /// finalized by the `e`-th [`LiveEngine::advance`] call.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The watermark frontier: the lowest watermark over unsealed live
    /// relations that have seen at least one arrival. Deltas are stamped
    /// with this frontier at finalization time. Once every relation is
    /// sealed there is no open stream left to hold the frontier back, so
    /// it collapses to the highest watermark any relation reached;
    /// `None` means no relation has observed an arrival at all.
    pub fn frontier(&self) -> Option<TimePoint> {
        self.relations
            .values()
            .filter(|r| !r.is_sealed())
            .filter_map(LiveRelation::watermark)
            .min()
            .or_else(|| {
                self.relations
                    .values()
                    .filter_map(LiveRelation::watermark)
                    .max()
            })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// Is `name` registered for live ingestion?
    pub fn is_live(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Live state of relation `name`, if registered.
    pub fn relation(&self, name: &str) -> Option<&LiveRelation> {
        self.relations.get(name)
    }

    /// All live relations, in name order.
    pub fn relations(&self) -> impl Iterator<Item = &LiveRelation> {
        self.relations.values()
    }

    /// Registered subscriptions.
    pub fn subscriptions(&self) -> &[Subscription] {
        &self.subscriptions
    }

    /// Register `name` for live ingestion with arrivals sorted in `order`.
    ///
    /// Creates the relation (empty, claiming `order`) if the catalog does
    /// not know it yet; an existing relation must already claim an order
    /// satisfying `order`, otherwise promotion could not keep the heap
    /// sorted and the registration is refused.
    pub fn register(
        &mut self,
        catalog: &mut Catalog,
        name: &str,
        schema: TemporalSchema,
        order: StreamOrder,
    ) -> TdbResult<()> {
        if self.relations.contains_key(name) {
            return Err(TdbError::Catalog(format!(
                "relation `{name}` is already live"
            )));
        }
        match catalog.meta(name) {
            Ok(meta) => {
                if !meta.known_orders.iter().any(|o| o.satisfies(&order)) {
                    return Err(TdbError::Catalog(format!(
                        "relation `{name}` does not claim sort order {order}, \
                         so live appends cannot keep its heap sorted"
                    )));
                }
                // The log's baseline below counts the rows the catalog
                // holds now; the manifest must hold them too.
                if self.wal.is_some() {
                    catalog.persist()?;
                }
            }
            Err(_) => catalog.create_relation(name, schema.clone(), &[], vec![order])?,
        }
        let mut rel = LiveRelation::new(name, schema, order, self.config.slack);
        // A held subscription read this relation as static, promoting
        // nothing; from here on it does, so re-evaluate instead.
        self.release_held(catalog, name)?;
        if let Some(store) = &self.wal {
            // Make the DDL event and the baseline — the rows the catalog
            // already holds, so replay never re-counts them — durable in
            // one commit, before the first row arrives.
            rel.attach_wal(store.create_log(name, &rel.log_head(catalog.meta(name)?))?);
        }
        self.relations.insert(name.to_string(), rel);
        self.checkpoint(catalog)?;
        Ok(())
    }

    /// Replace `name`'s rows with `rows` (see [`Catalog::create_relation`]).
    /// Held subscriptions over it switch to re-evaluation first. When
    /// `name` is live and durable, a checkpoint before the load leaves its
    /// log holding only rows still staged, and one after it re-bases the
    /// log on the loaded heap. A crash between the load's manifest rename
    /// and the second checkpoint finds a log counting in the replaced heap
    /// file: replay keeps every row it holds staged and counts none as
    /// promoted, which is the state the load left.
    pub fn load(
        &mut self,
        catalog: &mut Catalog,
        name: &str,
        schema: TemporalSchema,
        rows: &[Row],
        known_orders: Vec<StreamOrder>,
    ) -> TdbResult<()> {
        self.release_held(catalog, name)?;
        let live = self.is_live(name);
        if live {
            self.checkpoint(catalog)?;
        }
        catalog.create_relation(name, schema, rows, known_orders)?;
        if live {
            self.checkpoint(catalog)?;
        }
        Ok(())
    }

    /// Switch every held subscription that reads `name` to re-evaluation.
    /// Call before `name` changes other than by promotion — going live,
    /// or a reload that replaces its rows — while the catalog still holds
    /// what the subscriptions have seen.
    pub fn release_held(&mut self, catalog: &Catalog, name: &str) -> TdbResult<()> {
        for sub in &mut self.subscriptions {
            if sub.held_relations().contains(name) {
                sub.reevaluate_from_here(catalog)?;
            }
        }
        Ok(())
    }

    /// Register a standing query, planned under the subscriber's
    /// `planner` settings at registration and at every epoch. The plan
    /// must pass the live verifier under the current online statistics
    /// before a single tuple flows; the returned [`Delta`] carries the
    /// rows already final at registration time (the closed prefix
    /// ingested so far).
    pub fn subscribe(
        &mut self,
        catalog: &Catalog,
        label: impl Into<String>,
        logical: LogicalPlan,
        planner: PlannerConfig,
    ) -> TdbResult<(Analysis, Delta)> {
        let overrides = self.live_stats();
        // Verify up front so a rejected query never registers.
        let (physical, analysis) =
            plan_verified_live(&logical, planner, catalog, &overrides, &self.config.analyze)?;
        let id = self.subscriptions.len();
        let mut sub = Subscription::new(id, label, logical, physical, catalog, planner)?;
        // A held subscription starts from everything promoted so far.
        for name in sub.held_relations() {
            sub.hand(&name, &catalog.scan(&name)?);
        }
        let delta = sub.evaluate(&EpochInput {
            catalog,
            horizons: &self.horizons(),
            live_stats: &overrides,
            analyze: &self.config.analyze,
            epoch: self.epoch,
            watermark: self.frontier(),
        })?;
        self.subscriptions.push(sub);
        Ok((analysis, delta))
    }

    /// Cancel subscription `id`: it stops evaluating and emits no further
    /// deltas. Used when a remote consumer disconnects (or is dropped for
    /// falling behind) so orphaned standing queries do not keep burning
    /// epoch-loop work.
    pub fn cancel(&mut self, id: usize) -> TdbResult<()> {
        let sub = self
            .subscriptions
            .get_mut(id)
            .ok_or_else(|| TdbError::Catalog(format!("unknown subscription #{id}")))?;
        sub.cancel();
        Ok(())
    }

    /// Ingest a batch of raw rows into live relation `name`, then run one
    /// epoch. The batch is admitted whole or not at all
    /// ([`LiveRelation::admit`]): a rejected batch returns its error
    /// before the epoch, with nothing of it logged, staged or counted.
    pub fn ingest(
        &mut self,
        catalog: &mut Catalog,
        name: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> TdbResult<LiveReport> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| TdbError::Catalog(format!("relation `{name}` is not live")))?
            .admit(rows)?;
        self.advance(catalog)
    }

    /// Seal live relation `name` (end of stream: everything staged becomes
    /// final) and run one epoch.
    pub fn seal(&mut self, catalog: &mut Catalog, name: &str) -> TdbResult<LiveReport> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| TdbError::Catalog(format!("relation `{name}` is not live")))?
            .seal()?;
        self.advance(catalog)
    }

    /// Run one epoch: promote every relation's closed prefix, then
    /// re-verify every subscription and collect its new rows.
    pub fn advance(&mut self, catalog: &mut Catalog) -> TdbResult<LiveReport> {
        self.epoch += 1;
        let mut report = LiveReport {
            epoch: self.epoch,
            ..LiveReport::default()
        };
        for rel in self.relations.values_mut() {
            let closed = promote(rel, catalog)?;
            if !closed.is_empty() {
                report.promoted += closed.len();
                // Handed over at once: a later failure this epoch must
                // not lose rows the catalog already holds.
                for sub in self.subscriptions.iter_mut().filter(|s| !s.is_cancelled()) {
                    sub.hand(rel.name(), &closed);
                }
            }
        }
        if self
            .relations
            .values()
            .any(|r| r.log_growth() > CHECKPOINT_BYTES)
        {
            self.checkpoint(catalog)?;
        }
        if self.subscriptions.iter().all(Subscription::is_cancelled) {
            return Ok(report);
        }
        let epoch = EpochInput {
            catalog,
            horizons: &self.horizons(),
            live_stats: &self.live_stats(),
            analyze: &self.config.analyze,
            epoch: self.epoch,
            watermark: self.frontier(),
        };
        for sub in &mut self.subscriptions {
            if sub.is_cancelled() {
                continue;
            }
            let delta = sub.evaluate(&epoch)?;
            if !delta.rows.is_empty() {
                report.deltas.push(delta);
            }
        }
        Ok(report)
    }

    /// What each live relation may still promote.
    fn horizons(&self) -> BTreeMap<String, Horizon> {
        self.relations
            .iter()
            .map(|(name, rel)| (name.clone(), rel.horizon()))
            .collect()
    }

    /// Per-relation online statistics overrides for live planning: every
    /// live relation that has seen at least one arrival reports its EWMA
    /// estimates in place of the catalog's static statistics.
    pub fn live_stats(&self) -> BTreeMap<String, TemporalStats> {
        self.relations
            .iter()
            .filter_map(|(name, rel)| rel.live_stats().map(|s| (name.clone(), s)))
            .collect()
    }
}

/// Promote `rel`'s watermark-closed prefix: append it to the catalog
/// heap, with no sync and no manifest write — the log holds those rows
/// until the next checkpoint makes the heap durable. Returns the rows.
fn promote(rel: &mut LiveRelation, catalog: &mut Catalog) -> TdbResult<Vec<Row>> {
    let closed = rel.take_closed();
    if !closed.is_empty() {
        catalog.append_rows(rel.name(), &closed)?;
    }
    Ok(closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_algebra::{logical::FACULTY_ATTRS, Atom, CompOp};
    use tdb_core::{TemporalSchema, TimePoint, Value};
    use tdb_storage::IoStats;

    fn setup(tag: &str) -> (Catalog, LiveEngine) {
        let dir = std::env::temp_dir().join(format!("tdb-engine-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(dir.join("cat"), IoStats::new()).unwrap();
        let engine = LiveEngine::new(LiveConfig::default());
        (catalog, engine)
    }

    fn row(n: &str, s: i64, e: i64) -> Row {
        Row::new(vec![
            Value::str(n),
            Value::str("Assistant"),
            Value::Time(TimePoint(s)),
            Value::Time(TimePoint(e)),
        ])
    }

    fn contains_join() -> LogicalPlan {
        let f1 = LogicalPlan::scan("Faculty", "f1", &FACULTY_ATTRS);
        let f2 = LogicalPlan::scan("Faculty", "f2", &FACULTY_ATTRS);
        f1.join(
            f2,
            vec![
                Atom::cols("f1", "ValidFrom", CompOp::Lt, "f2", "ValidFrom"),
                Atom::cols("f2", "ValidTo", CompOp::Lt, "f1", "ValidTo"),
            ],
        )
    }

    #[test]
    fn register_creates_relation_and_rejects_double_registration() {
        let (mut cat, mut eng) = setup("reg");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        eng.register(&mut cat, "Faculty", schema.clone(), StreamOrder::TS_ASC)
            .unwrap();
        assert!(eng.is_live("Faculty"));
        assert!(cat.meta("Faculty").is_ok());
        let err = eng
            .register(&mut cat, "Faculty", schema, StreamOrder::TS_ASC)
            .unwrap_err();
        assert!(err.to_string().contains("already live"), "{err}");
    }

    #[test]
    fn ingest_promotes_closed_prefix_and_subscription_emits_final_deltas() {
        let (mut cat, mut eng) = setup("deltas");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        eng.register(&mut cat, "Faculty", schema, StreamOrder::TS_ASC)
            .unwrap();
        let (analysis, initial) = eng
            .subscribe(&cat, "contains", contains_join(), PlannerConfig::stream())
            .unwrap();
        assert!(
            analysis.render().contains("Table 1"),
            "{}",
            analysis.render()
        );
        assert!(initial.rows.is_empty());

        // f1 = [0, 100) contains f2 = [10, 20) and f2 = [30, 40).
        let r1 = eng
            .ingest(
                &mut cat,
                "Faculty",
                vec![row("long", 0, 100), row("a", 10, 20), row("b", 30, 40)],
            )
            .unwrap();
        // Watermark sits at TS 30: only [0,100) and [10,20) promoted, and
        // the (long, a) pair is already provably final.
        assert_eq!(r1.promoted, 2);
        let emitted_r1: usize = r1.deltas.iter().map(|d| d.rows.len()).sum();
        assert_eq!(emitted_r1, 1);

        let r2 = eng.seal(&mut cat, "Faculty").unwrap();
        assert_eq!(r2.promoted, 1);
        let emitted_r2: usize = r2.deltas.iter().map(|d| d.rows.len()).sum();
        assert_eq!(emitted_r2, 1, "(long, b) becomes final at seal");

        let sub = &eng.subscriptions()[0];
        assert_eq!(sub.emitted_count(), 2);
        let (peak, cap) = sub.workspace_watermark();
        assert!(
            peak <= cap,
            "live peak {peak} must stay under proven cap {cap}"
        );
        assert!(eng.relation("Faculty").unwrap().is_sealed());
    }

    #[test]
    fn live_stats_override_reaches_planning() {
        let (mut cat, mut eng) = setup("stats");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        eng.register(&mut cat, "Faculty", schema, StreamOrder::TS_ASC)
            .unwrap();
        eng.ingest(
            &mut cat,
            "Faculty",
            (0..32)
                .map(|i| row("x", i * 4, i * 4 + 10))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let stats = eng.live_stats();
        let faculty = stats.get("Faculty").unwrap();
        assert_eq!(faculty.count, 32);
        assert!((faculty.lambda.unwrap() - 0.25).abs() < 1e-9);
        // Catalog static stats only cover the promoted prefix; the live
        // override sees every arrival.
        assert!(cat.meta("Faculty").unwrap().stats.count < faculty.count);
    }

    #[test]
    fn deltas_carry_epoch_and_watermark_and_cancel_stops_evaluation() {
        let (mut cat, mut eng) = setup("epoch");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        eng.register(&mut cat, "Faculty", schema, StreamOrder::TS_ASC)
            .unwrap();
        let (_analysis, initial) = eng
            .subscribe(&cat, "contains", contains_join(), PlannerConfig::stream())
            .unwrap();
        assert_eq!(initial.epoch, 0);
        assert_eq!(initial.watermark, None);

        let r1 = eng
            .ingest(
                &mut cat,
                "Faculty",
                vec![row("long", 0, 100), row("a", 10, 20), row("b", 30, 40)],
            )
            .unwrap();
        assert_eq!(r1.epoch, 1);
        assert_eq!(eng.epoch(), 1);
        let d = &r1.deltas[0];
        assert_eq!(d.epoch, 1);
        // The frontier at finalization: the last arrival's TS.
        assert_eq!(d.watermark, Some(TimePoint(30)));

        let evals_before = eng.subscriptions()[0].evaluations();
        eng.cancel(0).unwrap();
        let r2 = eng.seal(&mut cat, "Faculty").unwrap();
        assert_eq!(r2.epoch, 2);
        assert!(r2.deltas.is_empty(), "cancelled subscription must not emit");
        assert_eq!(eng.subscriptions()[0].evaluations(), evals_before);
        assert!(eng.subscriptions()[0].is_cancelled());
        assert!(eng.cancel(7).is_err());
    }

    #[test]
    fn durable_engine_recovers_acknowledged_state_across_reopen() {
        let dir = std::env::temp_dir().join(format!("tdb-engine-{}-durable", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let (frontier, staged, promoted) = {
            let mut cat = Catalog::open_durable(dir.join("cat"), IoStats::new()).unwrap();
            let (mut eng, replayed) = LiveEngine::open_durable(
                dir.join("wal"),
                LiveConfig::default(),
                &mut cat,
                &Registry::new(),
            )
            .unwrap();
            assert_eq!(replayed.relations, 0, "fresh directory has no logs");
            eng.register(&mut cat, "Faculty", schema.clone(), StreamOrder::TS_ASC)
                .unwrap();
            assert!(eng.is_durable());
            assert!(eng.relation("Faculty").unwrap().is_durable());
            eng.ingest(
                &mut cat,
                "Faculty",
                vec![row("long", 0, 100), row("a", 10, 20), row("b", 30, 40)],
            )
            .unwrap();
            let rel = eng.relation("Faculty").unwrap();
            (rel.watermark(), rel.staged_len(), rel.promoted())
        };
        // Reopen from disk: no seal, so the open suffix must be restaged
        // and the frontier reproduced exactly.
        let mut cat = Catalog::open_durable(dir.join("cat"), IoStats::new()).unwrap();
        let (eng, replayed) = LiveEngine::open_durable(
            dir.join("wal"),
            LiveConfig::default(),
            &mut cat,
            &Registry::new(),
        )
        .unwrap();
        assert_eq!(replayed.relations, 1);
        assert_eq!(replayed.rows_restaged, staged);
        // No checkpoint ran after the promotion, so the manifest does not
        // name its heap pages: the reopen cut them and promoted again.
        assert_eq!(replayed.rows_already_promoted, 0);
        assert_eq!(replayed.rows_repromoted as u64, promoted);
        let rel = eng.relation("Faculty").unwrap();
        assert_eq!(rel.watermark(), frontier);
        assert_eq!(rel.staged_len(), staged);
        assert_eq!(cat.meta("Faculty").unwrap().rows as u64, promoted);
        assert!(!rel.is_sealed());
    }

    #[test]
    fn ingest_into_unknown_relation_errors() {
        let (mut cat, mut eng) = setup("unknown");
        let err = eng
            .ingest(&mut cat, "Nope", vec![row("x", 0, 1)])
            .unwrap_err();
        assert!(err.to_string().contains("not live"), "{err}");
    }
}
