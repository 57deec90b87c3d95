//! Standing queries over live relations.
//!
//! A subscription is a logical plan registered once and evaluated at
//! every epoch. Only watermark-closed tuples are ever promoted into the
//! catalog, so the catalog *is* the closed prefix, and because the
//! supported operators are monotone (more input rows never retract an
//! output row), every newly appearing result row is **final**: a
//! subscription emits a delta stream with no retractions. It does so in
//! one of two modes ([`SubscriptionMode`]):
//!
//! - **Held tuples.** A plan that is one stream join or semijoin over two
//!   scans is planned once, at registration, and keeps per side the
//!   tuples that can still match what the other side has yet to promote
//!   ([`crate::held`]). Each epoch folds in only the rows promoted since
//!   the last successful one, so its cost follows the delta and the held
//!   state, not the prefix; an epoch that fails keeps those rows for the
//!   next. Registration is the same step over the catalog's current rows.
//! - **Re-evaluated.** Every other plan is re-planned and re-run over the
//!   whole closed prefix, and emits the rows not yet emitted — tracked as
//!   a multiset keyed by the rows' storage encoding so duplicate result
//!   rows (legitimate under joins) are emitted the right number of times.
//!
//! Either way every epoch **re-verifies** the plan through the live
//! analyzer with the current online λ/E[D] estimates substituted for the
//! catalog's static statistics — the workspace-cap proof tracks the
//! traffic the stream actually carries, not the load-time snapshot — and
//! the kernels' observed workspace peaks are held against that cap.

use crate::held::{HeldJoin, Horizon};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tdb_algebra::{ExecOptions, LogicalPlan, PhysicalPlan, PlannerConfig};
use tdb_analyze::{plan_verified_live, verified_live, Analysis, AnalyzeConfig};
use tdb_core::{Row, TdbResult, TemporalStats, TimePoint};
use tdb_storage::{Catalog, Codec};
use tdb_stream::{OpConfig, Progress};

/// A batch of newly final result rows from one subscription.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The subscription that produced the rows.
    pub subscription: usize,
    /// The subscription's label (its query text, typically).
    pub label: String,
    /// The engine epoch at which these rows were finalized. Strictly
    /// increasing across [`LiveEngine::advance`](crate::LiveEngine::advance)
    /// calls, so remote consumers can correlate deltas with the engine's
    /// [`Progress`] counters instead of relying on emission order.
    pub epoch: u64,
    /// The watermark frontier (lowest unsealed-relation watermark) the
    /// rows were finalized at, `None` before any arrival.
    pub watermark: Option<TimePoint>,
    /// Newly final result rows. A re-evaluated subscription keeps plan
    /// output order; a held one emits the new left tuples' matches first.
    pub rows: Vec<Row>,
}

/// How a subscription computes its deltas (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionMode {
    /// Keeps its held tuples between epochs; each epoch costs its delta.
    Held,
    /// Re-plans and re-runs over the closed prefix every epoch.
    Reevaluated,
}

impl fmt::Display for SubscriptionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SubscriptionMode::Held => "held tuples",
            SubscriptionMode::Reevaluated => "re-evaluated",
        })
    }
}

enum Mode {
    /// The plan fixed at registration, its held tuples, and the rows
    /// promoted into the catalog that no successful epoch has folded in
    /// yet, by relation name.
    Held {
        physical: PhysicalPlan,
        join: Box<HeldJoin>,
        pending: BTreeMap<String, Vec<Row>>,
    },
    /// Multiset of already-emitted rows: storage encoding → count.
    Reevaluated { emitted: BTreeMap<Vec<u8>, usize> },
}

/// What one epoch hands every subscription.
pub(crate) struct EpochInput<'a> {
    pub catalog: &'a Catalog,
    /// What each live relation may still promote; a relation not listed
    /// is not live and promotes nothing.
    pub horizons: &'a BTreeMap<String, Horizon>,
    /// Online statistics overriding the catalog's, by relation name.
    pub live_stats: &'a BTreeMap<String, TemporalStats>,
    pub analyze: &'a AnalyzeConfig,
    pub epoch: u64,
    pub watermark: Option<TimePoint>,
}

/// One registered standing query.
pub struct Subscription {
    id: usize,
    label: String,
    logical: LogicalPlan,
    /// The subscriber's planner settings, which every re-evaluation plans
    /// under.
    planner: PlannerConfig,
    mode: Mode,
    /// Result rows emitted over the subscription's lifetime.
    emitted: u64,
    progress: Progress,
    /// Highest runtime stream-operator workspace seen across evaluations.
    peak_workspace: usize,
    /// Highest statically proven workspace cap across evaluations (the
    /// caps move with the live statistics).
    static_cap: usize,
    evaluations: u64,
    cancelled: bool,
}

impl Subscription {
    /// A subscription over `physical`, the verified plan of `logical`
    /// under `planner`: held when its shape allows, re-evaluated
    /// otherwise.
    pub(crate) fn new(
        id: usize,
        label: impl Into<String>,
        logical: LogicalPlan,
        physical: PhysicalPlan,
        catalog: &Catalog,
        planner: PlannerConfig,
    ) -> TdbResult<Subscription> {
        let cfg = OpConfig::new().with_batch_rows(planner.batch_rows);
        let mode = match HeldJoin::from_plan(&physical, catalog, cfg)? {
            Some(join) => Mode::Held {
                physical,
                join: Box::new(join),
                pending: BTreeMap::new(),
            },
            None => Mode::Reevaluated {
                emitted: BTreeMap::new(),
            },
        };
        Ok(Subscription {
            id,
            label: label.into(),
            logical,
            planner,
            mode,
            emitted: 0,
            progress: Progress::new(),
            peak_workspace: 0,
            static_cap: 0,
            evaluations: 0,
            cancelled: false,
        })
    }

    /// Subscription id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The label supplied at registration.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The logical plan being maintained.
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// How this subscription computes its deltas.
    pub fn mode(&self) -> SubscriptionMode {
        match self.mode {
            Mode::Held { .. } => SubscriptionMode::Held,
            Mode::Reevaluated { .. } => SubscriptionMode::Reevaluated,
        }
    }

    /// Tuples a held subscription keeps across both inputs, `None` for a
    /// re-evaluated one.
    pub fn held_tuples(&self) -> Option<usize> {
        match &self.mode {
            Mode::Held { join, .. } => Some(join.held()),
            Mode::Reevaluated { .. } => None,
        }
    }

    /// The relations a held subscription reads; nothing for a
    /// re-evaluated one, which reads the catalog itself.
    pub(crate) fn held_relations(&self) -> BTreeSet<String> {
        match &self.mode {
            Mode::Held { join, .. } => join.relations().map(str::to_string).collect(),
            Mode::Reevaluated { .. } => BTreeSet::new(),
        }
    }

    /// Result rows emitted over the subscription's lifetime.
    pub fn emitted_count(&self) -> usize {
        self.emitted as usize
    }

    /// Evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Has this subscription been cancelled (e.g. its remote consumer
    /// disconnected)? Cancelled subscriptions are skipped by the epoch
    /// loop and emit no further deltas.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    pub(crate) fn cancel(&mut self) {
        self.cancelled = true;
    }

    /// Progress handle (emitted counter).
    pub fn progress(&self) -> &Progress {
        &self.progress
    }

    /// Peak runtime workspace across evaluations, with the largest cap
    /// the live verifier proved for it. The paper's guarantee, live:
    /// `peak ≤ cap` at every epoch.
    pub fn workspace_watermark(&self) -> (usize, usize) {
        (self.peak_workspace, self.static_cap)
    }

    /// Hand a held subscription the rows just appended to `relation` in
    /// the catalog; the next successful epoch folds them in. A
    /// re-evaluated subscription reads the catalog itself and ignores
    /// them.
    pub(crate) fn hand(&mut self, relation: &str, rows: &[Row]) {
        if let Mode::Held { join, pending, .. } = &mut self.mode {
            if join.relations().any(|r| r == relation) {
                pending
                    .entry(relation.to_string())
                    .or_default()
                    .extend_from_slice(rows);
            }
        }
    }

    /// Switch a held subscription to re-evaluation, e.g. because a
    /// relation it read as static is about to receive promotions. Its
    /// deltas so far are the result over the current catalog less what
    /// its pending rows would still add; that difference seeds the
    /// emitted multiset, so the pending rows' results come out at the
    /// next epoch.
    pub(crate) fn reevaluate_from_here(&mut self, catalog: &Catalog) -> TdbResult<()> {
        let Mode::Held {
            physical,
            join,
            pending,
        } = &mut self.mode
        else {
            return Ok(());
        };
        let mut emitted = BTreeMap::new();
        for row in physical.execute(catalog, ExecOptions::new())?.rows {
            *emitted.entry(row.to_bytes().to_vec()).or_insert(0) += 1;
        }
        let mut owed = Vec::new();
        join.step(pending, |_| Horizon::Open, &mut owed)?;
        for row in owed {
            if let Some(n) = emitted.get_mut(&row.to_bytes().to_vec()) {
                *n -= 1;
            }
        }
        self.mode = Mode::Reevaluated { emitted };
        Ok(())
    }

    /// Re-verify, then return the rows that became final this epoch.
    pub(crate) fn evaluate(&mut self, e: &EpochInput<'_>) -> TdbResult<Delta> {
        let mut rows = Vec::new();
        let peak = match &mut self.mode {
            Mode::Held {
                physical,
                join,
                pending,
            } => {
                let analysis = verified_live(physical, e.catalog, e.live_stats, e.analyze)?;
                self.static_cap = self.static_cap.max(cap(&analysis));
                let horizon = |name: &str| e.horizons.get(name).copied().unwrap_or(Horizon::Closed);
                let peak = join.step(pending, horizon, &mut rows)?;
                pending.clear();
                peak
            }
            Mode::Reevaluated { emitted } => {
                let (physical, analysis) = plan_verified_live(
                    &self.logical,
                    self.planner,
                    e.catalog,
                    e.live_stats,
                    e.analyze,
                )?;
                self.static_cap = self.static_cap.max(cap(&analysis));
                let result = physical.execute(
                    e.catalog,
                    ExecOptions::new().with_batch_rows(self.planner.batch_rows),
                )?;
                let mut seen: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
                for row in result.rows {
                    let key = row.to_bytes().to_vec();
                    let count = seen.entry(key.clone()).or_insert(0);
                    *count += 1;
                    let already = emitted.get(&key).copied().unwrap_or(0);
                    if *count > already {
                        emitted.insert(key, *count);
                        rows.push(row);
                    }
                }
                result.stats.max_workspace
            }
        };
        self.peak_workspace = self.peak_workspace.max(peak);
        self.evaluations += 1;
        self.emitted += rows.len() as u64;
        self.progress.add_emitted(rows.len() as u64);
        Ok(Delta {
            subscription: self.id,
            label: self.label.clone(),
            epoch: e.epoch,
            watermark: e.watermark,
            rows,
        })
    }
}

/// The workspace cap the live verifier proved for a plan's operators.
fn cap(analysis: &Analysis) -> usize {
    analysis
        .lowered
        .ops
        .iter()
        .filter_map(|op| op.workspace_cap)
        .sum()
}
