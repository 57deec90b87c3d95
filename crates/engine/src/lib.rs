//! # tdb-engine — the transport-agnostic query engine
//!
//! The execution core behind every front end. [`Engine`] owns one shared
//! catalog and one live subsystem; callers hand it complete inputs (a
//! `\command` or a query text) together with their per-client
//! [`ClientState`] (planner config, explain/verify flags, row limit) and
//! receive a typed [`Response`] — rows, plan reports, analyzer verdicts,
//! live progress, errors as typed variants. Nothing in a [`Response`] is
//! pre-rendered for a terminal.
//!
//! Two renderers sit on top:
//!
//! * [`render`] — the shell text renderer (used by `tdb-cli`'s `Session`
//!   and by `tdb connect`);
//! * [`codec`] — [`Codec`](tdb::storage::Codec) impls giving every
//!   response a binary wire form (used by `tdb-net`'s framed protocol).
//!
//! The split exists so many concurrent clients can share one engine: the
//! engine is `Send`, per-client state lives with the transport, and
//! subscription deltas come back as data ([`DeltaFrame`]) that a server
//! can route to whichever connection owns the subscription.

pub mod codec;
pub mod render;
pub mod response;

pub use render::{render, render_delta, render_rows, render_stream_footer, render_stream_header};
pub use response::{
    AnalysisReport, ConnMetrics, DeltaFrame, ErrorCode, ErrorInfo, IngestReport,
    LiveRelationMetrics, LiveRelationStatus, LiveStatus, NetMetrics, OpSpan, OpVerdict,
    QueryReport, QueryStats, QueryTrace, QueryTrailer, Response, RowSet, SealReport, SloStatus,
    SlowFsyncInfo, StageLatency, StatsReport, SubscribeReport, SubscriptionStatus, SuperstarRow,
    TableInfo, WalReport,
};
pub use tdb_obs::{HealthState, Stage, StageSpan, StageTimers};

use tdb::prelude::*;
use tdb_obs::{
    spans_to_json, Counter, EventRing, Histogram, QueryIdGen, Registry, SloConfig, SloEngine,
    SloMetrics, SloReport, SlowQueryLog, OCCUPANCY_BOUNDS,
};

/// Per-client execution settings. Each transport session (shell, TCP
/// connection) owns one; the engine mutates it in place when the client
/// runs `\explain`, `\config`, or `\set`.
#[derive(Debug, Clone, Copy)]
pub struct ClientState {
    /// Echo logical and physical plans before running queries.
    pub explain: bool,
    /// Echo the static-analysis certificate before running queries.
    pub verify: bool,
    /// Planner strategy for this client's queries.
    pub config: PlannerConfig,
    /// Maximum rows delivered per query result.
    pub row_limit: usize,
    /// Attach the per-operator [`QueryTrace`] to query responses
    /// (`\trace on`). The engine records traces either way; this only
    /// controls whether they travel back to the client.
    pub trace: bool,
}

impl Default for ClientState {
    fn default() -> ClientState {
        ClientState {
            explain: false,
            verify: false,
            config: PlannerConfig::stream(),
            row_limit: 20,
            trace: false,
        }
    }
}

/// Where a query's reply goes when the transport takes rows as they are
/// produced ([`Engine::execute_into`]) instead of waiting for a finished
/// `Vec<Row>`: a [`RowSink`](tdb::stream::RowSink) that is also told what
/// is known before the first row exists.
///
/// The engine calls the sink from inside its own call, so a transport
/// that holds a lock around the engine must not block in it: a full
/// outbound queue is the sink's to absorb (park the encoded bytes, flush
/// them once the engine call has returned), never to wait on.
pub trait ReplySink: tdb::stream::RowSink {
    /// Called once per query, after planning and before the first push,
    /// with the part of the report that is already final: `query_id`,
    /// the plan and certificate echoes, `rows.columns`. Everything else
    /// is zeroed; the finished report is what `execute_into` returns.
    fn begin(&mut self, _header: QueryReport) {}

    /// Microseconds this sink has spent rendering (encoding) each chunk
    /// of the reply so far, in chunk order; empty for sinks that keep
    /// rows as they are. The engine turns these into `render` stage
    /// samples and spans, timed where the work now happens.
    fn render_us(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// [`Engine::execute`]'s sink: keep every delivered row.
impl ReplySink for tdb::stream::CollectSink {}

/// Default slow-query threshold: queries at or above 10ms are retained.
const SLOW_THRESHOLD_US: u64 = 10_000;

/// How many slow traces the log keeps.
const SLOW_LOG_CAP: usize = 8;

/// Default latency objective: queries at or under 10ms count as good
/// (retune with `\slo latency <us>`).
const DEFAULT_SLO_LATENCY_US: u64 = 10_000;

/// How many structured events the `\events` ring retains.
const EVENT_RING_CAP: usize = 256;

/// The engine's observability state: the metrics registry plus the
/// handles on the per-query hot path (registered once at open), the
/// slow-query log, and the most recent trace.
struct ObsState {
    registry: Registry,
    queries: Counter,
    rows_returned: Counter,
    cap_exceeded: Counter,
    query_us: Histogram,
    workspace_peak: Histogram,
    slow: SlowQueryLog,
    last: Option<QueryTrace>,
    /// When the query behind `last` started: the t=0 its spans (and the
    /// transport's late ones) are offset from.
    last_started: Option<std::time::Instant>,
    /// Per-stage latency histograms (`tdb_stage_duration_us{stage="…"}`).
    stage_timers: StageTimers,
    /// Mints one id per executed query (0 names "no query").
    ids: QueryIdGen,
    /// The monotone clock behind SLO windows and event timestamps.
    started: std::time::Instant,
    /// Queries slower than this count against the latency objective.
    latency_target_us: u64,
    slo_latency: SloEngine,
    slo_errors: SloEngine,
    latency_gauges: SloMetrics,
    errors_gauges: SloMetrics,
    events: EventRing,
    /// The folded verdict at the last evaluation, for transition events.
    last_health: HealthState,
}

impl ObsState {
    fn new() -> ObsState {
        let registry = Registry::new();
        let slo = SloConfig::default();
        ObsState {
            queries: registry.counter("tdb_queries_total", "Queries executed."),
            rows_returned: registry.counter(
                "tdb_rows_returned_total",
                "Result rows produced across all queries.",
            ),
            cap_exceeded: registry.counter(
                "tdb_cap_exceeded_total",
                "Operator spans whose observed workspace peak exceeded the \
                 statically proven cap (a verifier bug).",
            ),
            query_us: registry.histogram(
                "tdb_query_duration_us",
                "Query wall-clock time in microseconds.",
                &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            ),
            workspace_peak: registry.histogram(
                "tdb_workspace_peak",
                "Peak resident workspace tuples per operator span.",
                &OCCUPANCY_BOUNDS,
            ),
            slow: SlowQueryLog::new(SLOW_THRESHOLD_US, SLOW_LOG_CAP),
            last: None,
            last_started: None,
            stage_timers: StageTimers::register(&registry),
            ids: QueryIdGen::new(),
            started: std::time::Instant::now(),
            latency_target_us: DEFAULT_SLO_LATENCY_US,
            slo_latency: SloEngine::new(slo),
            slo_errors: SloEngine::new(slo),
            latency_gauges: SloMetrics::register(&registry, "latency"),
            errors_gauges: SloMetrics::register(&registry, "errors"),
            events: EventRing::new(EVENT_RING_CAP),
            last_health: HealthState::Ok,
            registry,
        }
    }

    /// Seconds since the engine opened — the SLO window clock.
    fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Microseconds since the engine opened — event timestamps.
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Evaluate both objectives as of now and publish the burn gauges.
    fn evaluate_slo(&self) -> (SloReport, SloReport) {
        let now = self.now_s();
        let latency = self.slo_latency.evaluate_at(now);
        let errors = self.slo_errors.evaluate_at(now);
        self.latency_gauges.publish(&latency);
        self.errors_gauges.publish(&errors);
        (latency, errors)
    }

    /// Re-evaluate health and push a transition event when it changed.
    fn note_health(&mut self) -> HealthState {
        let (latency, errors) = self.evaluate_slo();
        let health = latency.health.worst(errors.health);
        if health != self.last_health {
            let detail = format!(
                "{} -> {} (latency burn {:.1}/{:.1}, errors burn {:.1}/{:.1})",
                self.last_health.name(),
                health.name(),
                latency.fast_burn,
                latency.slow_burn,
                errors.fast_burn,
                errors.slow_burn,
            );
            self.events.push(self.now_us(), "health", 0, detail);
            self.last_health = health;
        }
        health
    }

    /// Fold one finished query's trace into every metric surface.
    fn record(&mut self, trace: QueryTrace) {
        self.queries.inc();
        self.rows_returned.add(trace.rows);
        self.query_us.observe(trace.elapsed_us);
        for span in &trace.spans {
            self.workspace_peak.observe(span.workspace_peak);
            if span.cap_exceeded() {
                self.cap_exceeded.inc();
                self.events.push(
                    self.now_us(),
                    "cap_exceeded",
                    trace.query_id,
                    format!(
                        "{}: observed workspace {} over the proven cap",
                        span.operator, span.workspace_peak
                    ),
                );
            }
        }
        let now_s = self.now_s();
        self.slo_latency
            .record_at(now_s, trace.elapsed_us <= self.latency_target_us);
        self.slo_errors.record_at(now_s, true);
        if self.slow.observe(&trace) {
            self.events.push(
                self.now_us(),
                "slow_query",
                trace.query_id,
                format!("{}µs: {}", trace.elapsed_us, trace.label),
            );
        }
        self.last = Some(trace);
        self.note_health();
    }

    /// Fold one failed query into the error objective. Errors carry no
    /// latency sample — the latency objective scores completed work.
    fn record_error(&mut self, message: &str) {
        let now_s = self.now_s();
        self.slo_errors.record_at(now_s, false);
        self.events
            .push(self.now_us(), "query_error", 0, message.to_string());
        self.note_health();
    }
}

/// The shared, transport-agnostic engine: one catalog, one live
/// subsystem, any number of clients.
pub struct Engine {
    catalog: Catalog,
    live: LiveEngine,
    obs: ObsState,
    /// What the write-ahead log replayed at open, for durable engines.
    replay: Option<ReplaySummary>,
}

impl Engine {
    /// Open an engine backed by a catalog directory. Live state (staged
    /// rows, watermarks, subscriptions) is held in memory only; use
    /// [`Engine::open_durable`] to keep acknowledged ingest across a
    /// restart.
    pub fn open(dir: impl AsRef<std::path::Path>) -> TdbResult<Engine> {
        Ok(Engine {
            catalog: Catalog::open(dir, IoStats::new())?,
            live: LiveEngine::new(LiveConfig::default()),
            obs: ObsState::new(),
            replay: None,
        })
    }

    /// Open a durable engine: the catalog persists its manifest with
    /// fsync-and-rename, every live relation write-ahead logs under
    /// `<dir>/wal`, and any logs left by a previous process (clean exit
    /// or crash) are replayed so acknowledged ingest survives. The flush
    /// policy defaults to group commit; override it with `flush`.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        flush: tdb::wal::FlushPolicy,
    ) -> TdbResult<Engine> {
        let dir = dir.as_ref();
        let mut catalog = Catalog::open_durable(dir, IoStats::new())?;
        let obs = ObsState::new();
        let config = LiveConfig {
            flush,
            ..LiveConfig::default()
        };
        let (live, replay) =
            LiveEngine::open_durable(dir.join("wal"), config, &mut catalog, &obs.registry)?;
        Ok(Engine {
            catalog,
            live,
            obs,
            replay: Some(replay),
        })
    }

    /// What replay recovered at open, for durable engines (`None` for
    /// [`Engine::open`]).
    pub fn replay_summary(&self) -> Option<&ReplaySummary> {
        self.replay.as_ref()
    }

    /// Is the engine write-ahead logging?
    pub fn is_durable(&self) -> bool {
        self.live.is_durable()
    }

    /// The engine's metrics registry. Serving layers register their own
    /// families here (e.g. `tdb-net`'s frame counters) so one Prometheus
    /// render covers the whole process.
    pub fn metrics_registry(&self) -> Registry {
        self.obs.registry.clone()
    }

    /// A cloneable handle onto the per-stage latency histograms, for
    /// serving layers that time `render` and `net_write` off the engine
    /// lock (the writer thread must not contend with executing queries).
    pub fn stage_timers(&self) -> StageTimers {
        self.obs.stage_timers.clone()
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The live subsystem.
    pub fn live(&self) -> &LiveEngine {
        &self.live
    }

    /// Cancel a standing query (its consumer disconnected or fell
    /// behind). Serving layers call this so orphaned subscriptions stop
    /// evaluating without stalling ingestion for everyone else.
    pub fn cancel_subscription(&mut self, id: usize) -> TdbResult<()> {
        self.live.cancel(id)
    }

    /// Execute one complete input — a `\command` or a query text (with or
    /// without the terminating `;`) — under `ctx`'s settings. Never
    /// fails: every error becomes [`Response::Error`]. The collecting
    /// wrapper over [`Engine::execute_into`]: a query's rows come back
    /// inside the report.
    pub fn execute(&mut self, ctx: &mut ClientState, input: &str) -> Response {
        let mut sink = tdb::stream::CollectSink::new();
        match self.execute_into(ctx, input, &mut sink) {
            Response::Query(mut q) => {
                q.rows.rows = sink.into_rows();
                Response::Query(q)
            }
            other => other,
        }
    }

    /// [`Engine::execute`] with the reply's rows pushed into `sink` as
    /// the plan produces them, at most `ctx.row_limit` of them. A query
    /// answers `Response::Query` with `rows.rows` empty (they went to the
    /// sink); every other input leaves the sink untouched. After an
    /// error the sink may already hold rows of a result that is not one.
    pub fn execute_into(
        &mut self,
        ctx: &mut ClientState,
        input: &str,
        sink: &mut dyn ReplySink,
    ) -> Response {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return Response::Info(String::new());
        }
        if trimmed.starts_with('\\') {
            return self.command(ctx, trimmed);
        }
        let text = trimmed.trim_end_matches(';');
        match self.run_query(ctx, text, sink) {
            Ok(r) => r,
            Err(e) => {
                self.obs.record_error(&e.to_string());
                Response::error(&e)
            }
        }
    }

    /// Replace `name`'s rows with a load ([`LiveEngine::load`]).
    fn load(
        &mut self,
        name: &str,
        schema: TemporalSchema,
        rows: &[Row],
        known_orders: Vec<StreamOrder>,
    ) -> TdbResult<()> {
        self.live
            .load(&mut self.catalog, name, schema, rows, known_orders)
    }

    fn command(&mut self, ctx: &mut ClientState, line: &str) -> Response {
        match self.command_inner(ctx, line) {
            Ok(r) => r,
            Err(e) => Response::error(&e),
        }
    }

    fn command_inner(&mut self, ctx: &mut ClientState, line: &str) -> TdbResult<Response> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["\\help"] => Ok(Response::Info(HELP.to_string())),
            ["\\quit" | "\\q"] => Ok(Response::Goodbye),
            ["\\tables"] => Ok(Response::Tables(self.tables()?)),
            ["\\explain", v @ ("on" | "off")] => {
                ctx.explain = *v == "on";
                if !ctx.explain {
                    ctx.verify = false;
                }
                Ok(Response::Info(format!("explain {v}\n")))
            }
            ["\\explain", "verify"] => {
                ctx.explain = true;
                ctx.verify = true;
                Ok(Response::Info(
                    "explain verify (plans + static-analysis certificate)\n".into(),
                ))
            }
            ["\\analyze", rest @ ..] if !rest.is_empty() => {
                let text = rest.join(" ");
                let text = text.trim_end_matches(';');
                self.analyze(ctx.config, text).map(Response::Analysis)
            }
            ["\\config", c] => {
                ctx.config = match *c {
                    "stream" => PlannerConfig::stream(),
                    "conventional" => PlannerConfig::conventional(),
                    "naive" => PlannerConfig::naive(),
                    other => {
                        return Ok(Response::Info(format!(
                            "unknown config `{other}` (stream|conventional|naive)\n"
                        )))
                    }
                };
                Ok(Response::Info(format!("planner config: {c}\n")))
            }
            ["\\set", "batch", n] => {
                let rows: usize = n
                    .parse()
                    .map_err(|_| TdbError::Config(format!("bad batch size `{n}`")))?;
                if rows == 0 || rows > MAX_BATCH_ROWS {
                    return Err(TdbError::Config(format!(
                        "batch size {rows} out of range (1..={MAX_BATCH_ROWS})"
                    )));
                }
                ctx.config = ctx.config.with_batch_rows(rows);
                Ok(Response::Info(format!(
                    "batch: {rows} rows per operator batch\n"
                )))
            }
            ["\\set", "limit", n] => {
                let limit: usize = n
                    .parse()
                    .map_err(|_| TdbError::Config(format!("bad row limit `{n}`")))?;
                ctx.row_limit = limit.max(1);
                Ok(Response::Info(format!("row limit: {}\n", ctx.row_limit)))
            }
            ["\\set", key, ..] => Err(TdbError::Config(format!(
                "unknown \\set key `{key}` (batch|limit)"
            ))),
            ["\\set"] => Err(TdbError::Config(
                "\\set needs a key and a value: \\set batch|limit <n>".into(),
            )),
            ["\\gen", "faculty", n, rest @ ..] => {
                let n: usize = n
                    .parse()
                    .map_err(|_| TdbError::Eval(format!("bad count `{n}`")))?;
                let seed: u64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(0);
                let faculty = FacultyGen {
                    n_faculty: n,
                    seed,
                    continuous_employment: true,
                    ..FacultyGen::default()
                }
                .generate();
                let rows: Vec<Row> = faculty.iter().map(|t| t.to_row()).collect();
                self.load(
                    "Faculty",
                    TemporalSchema::time_sequence("Name", "Rank"),
                    &rows,
                    vec![],
                )?;
                Ok(Response::Info(format!(
                    "Faculty loaded: {} members, {} tuples (seed {seed})\n",
                    n,
                    rows.len()
                )))
            }
            ["\\gen", "intervals", name, n, gap, dur, rest @ ..] => {
                let parse_f = |s: &str| {
                    s.parse::<f64>()
                        .map_err(|_| TdbError::Eval(format!("bad number `{s}`")))
                };
                let n: usize = n
                    .parse()
                    .map_err(|_| TdbError::Eval(format!("bad count `{n}`")))?;
                let seed: u64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(0);
                let (gap, dur) = (parse_f(gap)?, parse_f(dur)?);
                for (what, mean) in [("gap", gap), ("duration", dur)] {
                    if !(mean.is_finite() && mean >= 0.0) {
                        return Err(TdbError::Config(format!(
                            "mean {what} {mean} must be finite and non-negative"
                        )));
                    }
                }
                let gen = IntervalGen::poisson(n, gap, dur, seed);
                if gen.max_end() >= i64::MAX as f64 {
                    return Err(TdbError::Config(format!(
                        "{n} intervals at mean gap {gap} and duration {dur} could overflow \
                         the timeline"
                    )));
                }
                let tuples = gen.generate();
                let rows: Vec<Row> = tuples
                    .iter()
                    .map(|t| {
                        Row::new(vec![
                            t.surrogate.clone(),
                            t.value.clone(),
                            Value::Time(t.ts()),
                            Value::Time(t.te()),
                        ])
                    })
                    .collect();
                self.load(name, interval_schema()?, &rows, vec![StreamOrder::TS_ASC])?;
                Ok(Response::Info(format!(
                    "{name} loaded: {} tuples\n",
                    rows.len()
                )))
            }
            // The client reads the arrivals (a file or its stdin) and
            // sends them as an ingest frame: the engine opens no path a
            // client names.
            ["\\ingest", _rel, _source] => Ok(Response::Error(ErrorInfo::new(
                ErrorCode::Protocol,
                "\\ingest reads its file or stdin on the client side",
            ))),
            ["\\subscribe", rest @ ..] if !rest.is_empty() => {
                let text = rest.join(" ");
                let text = text.trim_end_matches(';').to_string();
                self.subscribe(ctx, &text).map(Response::Subscribed)
            }
            ["\\stats"] => Ok(Response::Stats(self.stats_report())),
            ["\\checkpoint"] => {
                if !self.live.is_durable() {
                    return Ok(Response::Info(
                        "engine is not durable (start with --data-dir)\n".into(),
                    ));
                }
                let n = self.live.checkpoint(&mut self.catalog)?;
                Ok(Response::Info(format!(
                    "checkpointed {n} relation log{}\n",
                    if n == 1 { "" } else { "s" }
                )))
            }
            ["\\trace", v @ ("on" | "off")] => {
                ctx.trace = *v == "on";
                Ok(Response::Info(format!("trace {v}\n")))
            }
            ["\\trace", "export"] => Ok(Response::Info(
                match (&self.obs.last, self.obs.last_started) {
                    (Some(t), Some(t0)) => {
                        // What the transport timed after the trace was
                        // built (socket writes) joins it here.
                        let mut stages = t.stages.clone();
                        stages.extend(self.obs.stage_timers.late_spans(t.query_id, t0));
                        spans_to_json(t.query_id, &t.label, t.pages_read, &stages) + "\n"
                    }
                    _ => "no trace recorded yet\n".to_string(),
                },
            )),
            ["\\slo"] => Ok(Response::Info(self.slo_info())),
            ["\\slo", "latency", us] => {
                let us: u64 = us
                    .parse()
                    .map_err(|_| TdbError::Config(format!("bad latency objective `{us}`")))?;
                self.obs.latency_target_us = us;
                Ok(Response::Info(format!("slo latency objective: {us}µs\n")))
            }
            ["\\slo", "target", r] => {
                let ratio: f64 = r
                    .parse()
                    .map_err(|_| TdbError::Config(format!("bad slo target `{r}`")))?;
                if !(ratio > 0.0 && ratio < 1.0) {
                    return Err(TdbError::Config(format!(
                        "slo target {ratio} out of range (0 < target < 1)"
                    )));
                }
                let c = self.reconfigure_slo(|c| c.target = ratio);
                Ok(Response::Info(format!(
                    "slo target: {:.4} (windows reset)\n",
                    c.target
                )))
            }
            ["\\slo", "windows", fast, slow] => {
                let parse = |s: &str| {
                    s.parse::<u64>()
                        .map_err(|_| TdbError::Config(format!("bad window seconds `{s}`")))
                };
                let (fast, slow) = (parse(fast)?, parse(slow)?);
                let c = self.reconfigure_slo(|c| {
                    c.fast_window_s = fast;
                    c.slow_window_s = slow;
                });
                Ok(Response::Info(format!(
                    "slo windows: fast {}s, slow {}s (windows reset)\n",
                    c.fast_window_s, c.slow_window_s
                )))
            }
            ["\\slo", "burn", fast, slow] => {
                let parse = |s: &str| {
                    s.parse::<f64>()
                        .map_err(|_| TdbError::Config(format!("bad burn threshold `{s}`")))
                };
                let (fast, slow) = (parse(fast)?, parse(slow)?);
                if fast <= 0.0 || slow <= 0.0 {
                    return Err(TdbError::Config("burn thresholds must be positive".into()));
                }
                let c = self.reconfigure_slo(|c| {
                    c.fast_burn = fast;
                    c.slow_burn = slow;
                });
                Ok(Response::Info(format!(
                    "slo burn thresholds: fast {:.1}, slow {:.1} (windows reset)\n",
                    c.fast_burn, c.slow_burn
                )))
            }
            ["\\slo", ..] => Err(TdbError::Config(
                "\\slo [latency <us> | target <ratio> | windows <fast_s> <slow_s> | \
                 burn <fast> <slow>]"
                    .into(),
            )),
            ["\\events"] => Ok(Response::Info(self.events_info())),
            ["\\slow", n] => {
                let us: u64 = n
                    .parse()
                    .map_err(|_| TdbError::Eval(format!("bad slow threshold `{n}`")))?;
                self.obs.slow.set_threshold_us(us);
                Ok(Response::Info(format!("slow-query threshold: {us}µs\n")))
            }
            ["\\live"] => Ok(Response::Live(self.live_status())),
            ["\\live", "close", rel] => self.live_close(rel).map(Response::Sealed),
            ["\\superstar"] => self.superstar().map(Response::Superstar),
            _ => Ok(Response::Info(format!(
                "unknown command `{line}` — try \\help\n"
            ))),
        }
    }

    fn tables(&self) -> TdbResult<Vec<TableInfo>> {
        let mut out = Vec::new();
        for name in self.catalog.relation_names() {
            let meta = self.catalog.meta(&name)?;
            out.push(TableInfo {
                name: name.clone(),
                rows: meta.rows as u64,
                schema: meta.schema.schema.to_string(),
                lambda: meta.stats.lambda,
                mean_duration: meta.stats.mean_duration,
                max_concurrency: meta.stats.max_concurrency as u64,
            });
        }
        Ok(out)
    }

    fn run_query(
        &mut self,
        ctx: &ClientState,
        text: &str,
        sink: &mut dyn ReplySink,
    ) -> TdbResult<Response> {
        let query_id = self.obs.ids.next_id();
        let q_start = std::time::Instant::now();
        let mut stages: Vec<StageSpan> = Vec::new();

        let t = std::time::Instant::now();
        let (logical, _query) = compile(text, &self.catalog)?;
        self.mark_stage(&mut stages, q_start, Stage::Parse, t);

        let t = std::time::Instant::now();
        let optimized = conventional_optimize(logical.clone());
        self.mark_stage(&mut stages, q_start, Stage::Plan, t);

        // Every plan passes the static verifier before it executes; the
        // planner never emits a rejected plan, so a failure here means the
        // plan tree was corrupted, not that the query is wrong.
        let t = std::time::Instant::now();
        let (physical, analysis) = plan_verified(&optimized, ctx.config, &self.catalog)?;
        self.mark_stage(&mut stages, q_start, Stage::Analyze, t);

        let columns: Vec<String> = physical
            .scope(&self.catalog)?
            .columns()
            .iter()
            .map(|c| {
                if c.var.is_empty() {
                    c.attr.clone()
                } else {
                    c.to_string()
                }
            })
            .collect();
        let mut report = QueryReport {
            query_id,
            logical: ctx.explain.then(|| logical.parse_tree()),
            optimized: ctx.explain.then(|| optimized.parse_tree()),
            physical: ctx.explain.then(|| physical.explain()),
            certificate: ctx.verify.then(|| analysis.render()),
            rows: RowSet {
                columns,
                ..RowSet::default()
            },
            ..QueryReport::default()
        };
        sink.begin(report.clone());

        let start = std::time::Instant::now();
        // The client's row limit is a sink, not a post-hoc truncate: once
        // it has its quota the producer stops, so `\set limit 3` over a
        // billion-pair join does a bounded amount of work.
        let mut limited = LimitSink::over(sink, ctx.row_limit);
        let result = physical.execute(
            &self.catalog,
            ExecOptions::new()
                .with_batch_rows(ctx.config.batch_rows)
                .with_sink(&mut limited),
        )?;
        let elapsed_us = start.elapsed().as_micros() as u64;
        self.mark_stage(&mut stages, q_start, Stage::Execute, start);
        // Children of the execute span: one per operator occurrence
        // (self-time from the executor's own clock) and one per reply
        // chunk a transport sink encoded while the plan ran.
        let exec_start_us = start.duration_since(q_start).as_micros() as u64;
        let operators = result
            .trace
            .iter()
            .map(|obs| (Stage::Operator, obs.elapsed_us, obs.operator.clone()));
        let chunks = limited
            .inner()
            .render_us()
            .into_iter()
            .enumerate()
            .map(|(i, us)| (Stage::Render, us, format!("chunk {i}")));
        for (stage, elapsed_us, detail) in operators.chain(chunks) {
            self.obs.stage_timers.observe(stage, elapsed_us);
            stages.push(StageSpan {
                stage,
                start_us: exec_start_us,
                elapsed_us,
                depth: 1,
                detail,
            });
        }

        let t = std::time::Instant::now();
        let sink_stats = tdb::stream::RowSink::finish(&mut limited);
        let delivered = limited.delivered();
        self.mark_stage(&mut stages, q_start, Stage::Sink, t);

        let trace = build_trace(
            query_id, text, elapsed_us, &result, &analysis, sink_stats, delivered, stages,
        );
        self.obs.record(trace.clone());
        self.obs.last_started = Some(q_start);

        // Rows the producer offered before the sink stopped it — exact
        // when the whole result was scanned, a lower bound after an early
        // stop (the true total is unknowable without doing the work the
        // limit exists to avoid).
        report.rows.total = sink_stats.rows;
        report.stats = QueryStats {
            rows_scanned: result.stats.rows_scanned as u64,
            pages_read: result.stats.pages_read,
            comparisons: result.stats.comparisons,
            max_workspace: result.stats.max_workspace as u64,
            sorts_performed: result.stats.sorts_performed as u64,
        };
        report.elapsed_us = elapsed_us;
        report.trace = ctx.trace.then_some(trace);
        Ok(Response::Query(report))
    }

    /// Close one top-level stage span begun at `begun`: feed the stage
    /// histogram and append the span record.
    fn mark_stage(
        &self,
        stages: &mut Vec<StageSpan>,
        q_start: std::time::Instant,
        stage: Stage,
        begun: std::time::Instant,
    ) {
        let elapsed_us = begun.elapsed().as_micros() as u64;
        self.obs.stage_timers.observe(stage, elapsed_us);
        stages.push(StageSpan::top(
            stage,
            begun.duration_since(q_start).as_micros() as u64,
            elapsed_us,
        ));
    }

    /// The `/healthz` verdict: the worse of the latency and error
    /// objectives, plus a small JSON body naming the burn rates so an
    /// operator can see *why* from the probe alone.
    pub fn health(&self) -> (HealthState, String) {
        let (latency, errors) = self.obs.evaluate_slo();
        let health = latency.health.worst(errors.health);
        let body = format!(
            concat!(
                "{{\"health\":\"{}\",\"objectives\":[",
                "{{\"name\":\"latency\",\"fast_burn\":{:.3},\"slow_burn\":{:.3}}},",
                "{{\"name\":\"errors\",\"fast_burn\":{:.3},\"slow_burn\":{:.3}}}]}}\n"
            ),
            health.name(),
            latency.fast_burn,
            latency.slow_burn,
            errors.fast_burn,
            errors.slow_burn,
        );
        (health, body)
    }

    /// Rebuild both objective engines under an edited config. This resets
    /// the evaluation windows — acceptable for an operator-driven
    /// reconfiguration, which implies the old thresholds were wrong.
    fn reconfigure_slo(&mut self, edit: impl Fn(&mut SloConfig)) -> SloConfig {
        let mut config = self.obs.slo_latency.config();
        edit(&mut config);
        self.obs.slo_latency = SloEngine::new(config);
        self.obs.slo_errors = SloEngine::new(config);
        self.obs.slo_latency.config()
    }

    /// The `\slo` status text: objectives, windows, thresholds, burn.
    fn slo_info(&self) -> String {
        let (latency, errors) = self.obs.evaluate_slo();
        let config = self.obs.slo_latency.config();
        let health = latency.health.worst(errors.health);
        let mut out = format!(
            "slo: target {:.4}, windows {}s/{}s, burn thresholds {:.1}/{:.1}, \
             latency objective {}µs\n",
            config.target,
            config.fast_window_s,
            config.slow_window_s,
            config.fast_burn,
            config.slow_burn,
            self.obs.latency_target_us,
        );
        for (name, r) in [("latency", &latency), ("errors", &errors)] {
            out.push_str(&format!(
                "  {:<8} {:<9} fast {:>4}/{:<6} burn {:>8.2}   slow {:>4}/{:<6} burn {:>8.2}\n",
                name,
                r.health.name(),
                r.fast_bad,
                r.fast_total,
                r.fast_burn,
                r.slow_bad,
                r.slow_total,
                r.slow_burn,
            ));
        }
        out.push_str(&format!("  health: {}\n", health.name()));
        out
    }

    /// The `\events` text: the bounded structured event ring, oldest
    /// first.
    fn events_info(&self) -> String {
        let ring = &self.obs.events;
        if ring.is_empty() {
            return "no events recorded\n".to_string();
        }
        let mut out = format!("events ({} shown, {} total):\n", ring.len(), ring.total());
        for e in ring.events() {
            let qid = if e.query_id != 0 {
                format!("q{} ", e.query_id)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  #{:<4} +{:>10.3}s  {:<12} {}{}\n",
                e.seq,
                e.at_us as f64 / 1_000_000.0,
                e.kind,
                qid,
                e.detail,
            ));
        }
        out
    }

    /// Per-stage latency summaries for `\stats`, skipping stages that
    /// have seen no samples.
    fn stage_latencies(&self) -> Vec<StageLatency> {
        Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let h = self.obs.stage_timers.histogram(stage);
                let count = h.count();
                if count == 0 {
                    return None;
                }
                Some(StageLatency {
                    stage: stage.name().to_string(),
                    count,
                    p50_us: h.quantile(0.5).unwrap_or(0),
                    p99_us: h.quantile(0.99).unwrap_or(0),
                })
            })
            .collect()
    }

    /// Both objectives' status rows plus the folded health verdict.
    fn slo_statuses(&self) -> (Vec<SloStatus>, HealthState) {
        let (latency, errors) = self.obs.evaluate_slo();
        let config = self.obs.slo_latency.config();
        let row = |name: &str, r: &SloReport| SloStatus {
            objective: name.to_string(),
            target: config.target,
            fast_window_s: config.fast_window_s,
            slow_window_s: config.slow_window_s,
            fast_burn: r.fast_burn,
            slow_burn: r.slow_burn,
            health: r.health.name().to_string(),
        };
        (
            vec![row("latency", &latency), row("errors", &errors)],
            latency.health.worst(errors.health),
        )
    }

    /// The observability snapshot behind `\stats` and the `Stats` wire
    /// request. `net` is `None` here; `tdb-net` merges its own counters
    /// in before answering.
    pub fn stats_report(&self) -> StatsReport {
        let (slo, health) = self.slo_statuses();
        StatsReport {
            queries: self.obs.queries.get(),
            rows_returned: self.obs.rows_returned.get(),
            cap_exceeded: self.obs.cap_exceeded.get() + self.live_cap_violations(),
            slow_threshold_us: self.obs.slow.threshold_us(),
            slow: self.obs.slow.worst().to_vec(),
            last: self.obs.last.clone(),
            live: self.live_metrics(),
            net: None,
            wal: self.wal_report(),
            stages: self.stage_latencies(),
            slo,
            health: health.name().to_string(),
        }
    }

    /// Durability counters for `\stats`, `None` for a non-durable engine.
    fn wal_report(&self) -> Option<WalReport> {
        let m = self.live.wal_metrics()?;
        let replay = self.replay.as_ref();
        Some(WalReport {
            flush_policy: self.live.config().flush.name().to_string(),
            appends: m.appends.get(),
            commits: m.commits.get(),
            fsyncs: m.fsyncs.get(),
            bytes_written: m.bytes_written.get(),
            checkpoints: m.checkpoints.get(),
            torn_truncations: m.torn_truncations.get(),
            replayed_records: replay.map_or(0, |r| r.records as u64),
            replay_bytes: replay.map_or(0, |r| r.bytes),
            replay_us: replay.map_or(0, |r| r.duration_us),
            slow_fsyncs: m
                .slow_fsyncs()
                .into_iter()
                .map(|f| SlowFsyncInfo {
                    relation: f.relation,
                    micros: f.micros,
                })
                .collect(),
        })
    }

    /// Subscriptions whose runtime workspace peak exceeded the cap the
    /// live verifier proved for them — the standing-query face of the
    /// `cap_exceeded` counter.
    fn live_cap_violations(&self) -> u64 {
        self.live
            .subscriptions()
            .iter()
            .filter(|sub| {
                let (peak, cap) = sub.workspace_watermark();
                cap > 0 && peak > cap
            })
            .count() as u64
    }

    fn live_metrics(&self) -> Vec<LiveRelationMetrics> {
        self.live
            .relations()
            .map(|rel| {
                let snap = rel.progress().snapshot();
                let static_stats = self.catalog.meta(rel.name()).ok().map(|m| m.stats.clone());
                let live_stats = rel.live_stats();
                LiveRelationMetrics {
                    relation: rel.name().to_string(),
                    staged: rel.staged_len() as u64,
                    watermark_lag: snap.watermark_lag,
                    promotion_batches: rel.promotion_batches(),
                    max_promotion_batch: rel.max_promotion_batch(),
                    lambda_static: static_stats.as_ref().and_then(|s| s.lambda),
                    lambda_live: live_stats.as_ref().and_then(|s| s.lambda),
                    duration_static: static_stats.map(|s| s.mean_duration),
                    duration_live: live_stats.map(|s| s.mean_duration),
                }
            })
            .collect()
    }

    /// Render every metric family as Prometheus text exposition 0.0.4,
    /// refreshing the live-subsystem gauges first (they are sampled on
    /// scrape rather than maintained on the ingest hot path).
    pub fn prometheus(&self) -> String {
        let reg = &self.obs.registry;
        for m in self.live_metrics() {
            let rel: &[(&str, &str)] = &[("relation", &m.relation)];
            reg.gauge_with(
                "tdb_live_staged",
                rel,
                "Rows staged but not yet watermark-final.",
            )
            .set(m.staged as f64);
            reg.gauge_with("tdb_live_watermark_lag", rel, "Watermark lag in ticks.")
                .set(m.watermark_lag as f64);
            reg.gauge_with(
                "tdb_live_promotion_batches",
                rel,
                "Non-empty promotion batches drained.",
            )
            .set(m.promotion_batches as f64);
            reg.gauge_with(
                "tdb_live_max_promotion_batch",
                rel,
                "Largest single promotion batch.",
            )
            .set(m.max_promotion_batch as f64);
            for (source, lambda, duration) in [
                ("static", m.lambda_static, m.duration_static),
                ("live", m.lambda_live, m.duration_live),
            ] {
                let labeled: &[(&str, &str)] = &[("relation", &m.relation), ("source", source)];
                if let Some(l) = lambda {
                    reg.gauge_with(
                        "tdb_lambda",
                        labeled,
                        "Arrival rate λ: plan-time catalog estimate vs live EWMA.",
                    )
                    .set(l);
                }
                if let Some(d) = duration {
                    reg.gauge_with(
                        "tdb_mean_duration",
                        labeled,
                        "Mean tuple duration E[D]: plan-time estimate vs live EWMA.",
                    )
                    .set(d);
                }
            }
        }
        reg.gauge(
            "tdb_live_cap_violations",
            "Standing queries whose runtime workspace peak currently exceeds \
             the live verifier's proven cap.",
        )
        .set(self.live_cap_violations() as f64);
        // Burn-rate gauges decay as events age out of their windows, so a
        // scrape re-evaluates them rather than reading the last query's.
        self.obs.evaluate_slo();
        reg.render()
    }

    /// Statically analyze a query without running it: compile, optimize,
    /// plan, and return the verifier's verdicts (or its diagnostics as an
    /// error). Shared by `\analyze` and the `tdb analyze` subcommand.
    pub fn analyze(&mut self, config: PlannerConfig, text: &str) -> TdbResult<AnalysisReport> {
        let (logical, _query) = compile(text, &self.catalog)?;
        let optimized = conventional_optimize(logical);
        let (physical, analysis) = plan_verified(&optimized, config, &self.catalog)?;
        Ok(analysis_report(&physical, &analysis))
    }

    /// Live-append pre-parsed arrival text into `rel`, auto-registering
    /// the relation for live ingestion on first use (interval schema for
    /// unknown relations; an existing relation is registered under its
    /// first known sort order). Every error becomes [`Response::Error`].
    pub fn ingest_text(&mut self, rel: &str, text: &str) -> Response {
        match parse_arrivals(text).and_then(|rows| self.ingest_rows(rel, rows)) {
            Ok(r) => r,
            Err(e) => Response::error(&e),
        }
    }

    /// Live-append already-built rows into `rel` (see
    /// [`Engine::ingest_text`]).
    pub fn ingest_rows(&mut self, rel: &str, rows: Vec<Row>) -> TdbResult<Response> {
        if !self.live.is_live(rel) {
            let (schema, order) = match self.catalog.meta(rel) {
                Ok(meta) => (
                    meta.schema.clone(),
                    meta.known_orders.first().copied().ok_or_else(|| {
                        TdbError::Catalog(format!(
                            "relation `{rel}` claims no sort order, so arrivals \
                             cannot be appended in order"
                        ))
                    })?,
                ),
                Err(_) => (interval_schema()?, StreamOrder::TS_ASC),
            };
            self.live.register(&mut self.catalog, rel, schema, order)?;
        }
        let offered = rows.len() as u64;
        let report = self.live.ingest(&mut self.catalog, rel, rows)?;
        let state = self
            .live
            .relation(rel)
            .ok_or_else(|| TdbError::Catalog(format!("live relation {rel} vanished mid-ingest")))?;
        Ok(Response::Ingest(IngestReport {
            relation: rel.to_string(),
            offered,
            promoted: report.promoted as u64,
            staged: state.staged_len() as u64,
            watermark: state.watermark(),
            deltas: report.deltas.into_iter().map(DeltaFrame::from).collect(),
        }))
    }

    fn subscribe(&mut self, ctx: &ClientState, text: &str) -> TdbResult<SubscribeReport> {
        let (logical, _query) = compile(text, &self.catalog)?;
        let optimized = conventional_optimize(logical);
        let (analysis, delta) = self
            .live
            .subscribe(&self.catalog, text, optimized, ctx.config)?;
        Ok(SubscribeReport {
            id: delta.subscription as u64,
            certificate: ctx.verify.then(|| analysis.render()),
            initial: DeltaFrame::from(delta),
        })
    }

    fn live_status(&self) -> LiveStatus {
        LiveStatus {
            relations: self
                .live
                .relations()
                .map(|rel| {
                    let snap = rel.progress().snapshot();
                    LiveRelationStatus {
                        name: rel.name().to_string(),
                        order: rel.order().to_string(),
                        sealed: rel.is_sealed(),
                        watermark: rel.watermark(),
                        admitted: rel.admitted(),
                        staged: rel.staged_len() as u64,
                        promoted: rel.promoted(),
                        watermark_lag: snap.watermark_lag,
                    }
                })
                .collect(),
            subscriptions: self
                .live
                .subscriptions()
                .iter()
                .map(|sub| {
                    let (peak, cap) = sub.workspace_watermark();
                    SubscriptionStatus {
                        id: sub.id() as u64,
                        label: sub.label().to_string(),
                        mode: sub.mode().to_string(),
                        evaluations: sub.evaluations(),
                        emitted: sub.emitted_count() as u64,
                        workspace_peak: peak as u64,
                        workspace_cap: cap as u64,
                        cancelled: sub.is_cancelled(),
                    }
                })
                .collect(),
        }
    }

    fn live_close(&mut self, rel: &str) -> TdbResult<SealReport> {
        let report = self.live.seal(&mut self.catalog, rel)?;
        Ok(SealReport {
            relation: rel.to_string(),
            promoted: report.promoted as u64,
            deltas: report.deltas.into_iter().map(DeltaFrame::from).collect(),
        })
    }

    fn superstar(&mut self) -> TdbResult<Vec<SuperstarRow>> {
        self.catalog
            .meta("Faculty")
            .map_err(|_| TdbError::Catalog("load Faculty first: \\gen faculty 200".into()))?;
        let mut out = Vec::new();
        for (label, logical) in superstar_plans(true) {
            if label.starts_with("unoptimized") {
                continue;
            }
            let config = if label.starts_with("conventional") {
                PlannerConfig::conventional()
            } else {
                PlannerConfig::stream()
            };
            let (physical, _analysis) = plan_verified(&logical, config, &self.catalog)?;
            let start = std::time::Instant::now();
            let result = physical.execute(&self.catalog, ExecOptions::default())?;
            let names: std::collections::BTreeSet<&str> = result
                .rows
                .iter()
                .filter_map(|r| r.get(0).as_str())
                .collect();
            out.push(SuperstarRow {
                label: label.to_string(),
                elapsed_us: start.elapsed().as_micros() as u64,
                comparisons: result.stats.comparisons,
                superstars: names.len() as u64,
            });
        }
        Ok(out)
    }
}

/// Pair the executor's per-operator observations with the analyzer's
/// per-operator predictions into one [`QueryTrace`].
///
/// The executor pushes observations bottom-up in execution order; the
/// lowering walks the same plan and registers one [`StreamOpSpec`] per
/// stream-operator occurrence with the same `kind` mapping. Each
/// observation consumes the first not-yet-matched spec of its kind, so
/// repeated operators pair positionally; instrumented non-temporal
/// operators (`kind: None`, e.g. the merge equi-join) have no spec and
/// carry no prediction.
#[allow(clippy::too_many_arguments)]
fn build_trace(
    query_id: u64,
    label: &str,
    elapsed_us: u64,
    result: &QueryOutput,
    analysis: &Analysis,
    sink: tdb::stream::SinkStats,
    delivered: usize,
    stages: Vec<StageSpan>,
) -> QueryTrace {
    let specs = &analysis.lowered.ops;
    let mut matched = vec![false; specs.len()];
    let spans = result
        .trace
        .iter()
        .map(|obs| {
            let predicted = obs.kind.and_then(|kind| {
                specs
                    .iter()
                    .zip(matched.iter_mut())
                    .find(|(spec, taken)| !**taken && spec.kind == kind)
                    .map(|(spec, taken)| {
                        *taken = true;
                        (spec.workspace_cap, spec.workspace_expectation)
                    })
            });
            let (cap, expectation) = predicted.unwrap_or((None, None));
            let ws = &obs.report.workspace;
            OpSpan {
                operator: obs.operator.clone(),
                rows_in: (obs.report.metrics.read_left + obs.report.metrics.read_right) as u64,
                rows_out: obs.report.metrics.emitted as u64,
                comparisons: obs.report.metrics.comparisons as u64,
                evicted: ws.discarded as u64,
                workspace_peak: ws.max_resident as u64,
                workspace_mean: ws.mean_resident(),
                occupancy: ws.occupancy_histogram().to_vec(),
                predicted_cap: cap.map(|c| c as u64),
                predicted_expectation: expectation,
            }
        })
        .collect();
    QueryTrace {
        query_id,
        label: label.to_string(),
        elapsed_us,
        rows: result.stats.output_rows as u64,
        pages_read: result.stats.pages_read,
        sink_rows: delivered as u64,
        sink_bytes: sink.bytes,
        spans,
        stages,
    }
}

fn analysis_report(physical: &PhysicalPlan, analysis: &Analysis) -> AnalysisReport {
    AnalysisReport {
        physical: physical.explain(),
        ops: analysis
            .lowered
            .ops
            .iter()
            .map(|op| OpVerdict {
                path: op.path.to_string(),
                operator: op.kind.to_string(),
                table_entry: op.kind.requirement().table_entry.to_string(),
                workspace_expectation: op.workspace_expectation,
                workspace_cap: op.workspace_cap.map(|c| c as u64),
            })
            .collect(),
        certificate: analysis.render(),
    }
}

/// The schema live-ingested interval relations use (also `\gen
/// intervals`): `Id: Str, Seq: Int, ValidFrom: Time, ValidTo: Time`.
pub fn interval_schema() -> TdbResult<TemporalSchema> {
    TemporalSchema::new(
        tdb::core::Schema::new(vec![
            tdb::core::Field::new("Id", tdb::core::FieldType::Str),
            tdb::core::Field::new("Seq", tdb::core::FieldType::Int),
            tdb::core::Field::new("ValidFrom", tdb::core::FieldType::Time),
            tdb::core::Field::new("ValidTo", tdb::core::FieldType::Time),
        ]),
        2,
        3,
    )
}

/// Parse ingest lines into interval-schema rows. Each non-empty line not
/// starting with `#` is `<ts> <te> [id [seq]]`; `id` defaults to
/// `r<line>` and `seq` to the line index.
pub fn parse_arrivals(text: &str) -> TdbResult<Vec<Row>> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let time = |s: &str| {
            s.parse::<i64>()
                .map(TimePoint)
                .map_err(|_| TdbError::Eval(format!("line {}: bad time `{s}`", i + 1)))
        };
        let (ts, te) = match fields.as_slice() {
            [ts, te, ..] => (time(ts)?, time(te)?),
            _ => {
                return Err(TdbError::Eval(format!(
                    "line {}: expected `<ts> <te> [id [seq]]`, got `{line}`",
                    i + 1
                )))
            }
        };
        let id = fields
            .get(2)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("r{}", i + 1));
        let seq: i64 = match fields.get(3) {
            Some(s) => s
                .parse()
                .map_err(|_| TdbError::Eval(format!("line {}: bad seq `{s}`", i + 1)))?,
            None => i as i64 + 1,
        };
        rows.push(Row::new(vec![
            Value::str(&id),
            Value::Int(seq),
            Value::Time(ts),
            Value::Time(te),
        ]));
    }
    Ok(rows)
}

/// Help text for the command surface (shared by every front end).
pub const HELP: &str = r#"commands:
  \gen faculty <n> [seed]                     load a generated Faculty relation
  \gen intervals <name> <n> <gap> <dur> [seed]  load a Poisson interval relation
  \tables                                     list relations and statistics
  \explain on|off|verify                      show plans (verify: + static analysis)
  \analyze <query>                            verify a query's plan without running it
  \config stream|conventional|naive           planner strategy
  \set batch <n>                              rows per columnar operator batch (1 or more)
  \set limit <n>                              rows delivered per query result
  \ingest <rel> <file|->                      live-append arrivals (`-` reads stdin to EOF);
                                              lines are `<ts> <te> [id [seq]]`
  \subscribe <query>                          register a standing query (live-verified);
                                              deltas print as rows become final
  \live                                       live status: watermarks, staging, subscriptions
  \live close <rel>                           seal a live stream (all staged rows final)
  \stats                                      observability: counters, slow queries, live + net + wal telemetry
  \checkpoint                                 sync heaps and manifest, compact every log to its open window
  \trace on|off                               attach per-operator traces (observed vs predicted workspace)
  \trace export                               last query's stage spans as JSON
  \slo                                        SLO status: burn rates, windows, health verdict
  \slo latency <us>                           latency objective in microseconds
  \slo target <ratio>                         required good ratio, e.g. 0.99 (resets windows)
  \slo windows <fast_s> <slow_s>              burn evaluation windows in seconds (resets windows)
  \slo burn <fast> <slow>                     burn-rate alert thresholds (resets windows)
  \events                                     recent structured events (slow queries, health flips)
  \slow <us>                                  slow-query log threshold in microseconds
  \superstar                                  compare the Superstar formulations
  \help   \quit
queries: modified Quel, terminated by `;`, e.g.
  range of f is Faculty retrieve (N=f.Name) where f.Rank = "Full";
serving: `tdb serve [dir] [addr]` starts a framed-TCP server over one shared
catalog; `tdb connect [addr]` opens this shell against it. `tdb serve
--data-dir <dir>` makes the catalog and live ingestion durable: acknowledged
rows survive crashes via a write-ahead log replayed at the next start.
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::Response;
    use tdb::storage::Codec as _;

    fn engine(tag: &str) -> (Engine, ClientState) {
        let dir = std::env::temp_dir().join(format!("tdb-engine-api-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Engine::open(dir).unwrap(), ClientState::default())
    }

    #[test]
    fn typed_query_response_truncates_at_row_limit() {
        let (mut e, mut ctx) = engine("q");
        ctx.row_limit = 3;
        assert!(matches!(
            e.execute(&mut ctx, "\\gen intervals T 50 3 10 1"),
            Response::Info(_)
        ));
        let resp = e.execute(&mut ctx, "range of t is T retrieve (A=t.ValidFrom);");
        let Response::Query(q) = resp else {
            panic!("expected query response, got {resp:?}");
        };
        assert_eq!(q.rows.rows.len(), 3);
        assert_eq!(q.rows.total, 50);
        assert_eq!(q.rows.columns, vec!["A".to_string()]);
        assert!(q.stats.rows_scanned > 0);
    }

    /// The default limit stops a cartesian product after the chunk that
    /// fills it instead of building all 90 000 pairs.
    #[test]
    fn default_limit_stops_a_product_after_one_chunk() {
        let (mut e, mut ctx) = engine("product");
        for gen in [
            "\\gen intervals X 300 3 10 1",
            "\\gen intervals Y 300 3 10 2",
        ] {
            assert!(matches!(e.execute(&mut ctx, gen), Response::Info(_)));
        }
        let resp = e.execute(
            &mut ctx,
            "range of a is X range of b is Y retrieve (P=a.Id, Q=b.Id);",
        );
        let Response::Query(q) = resp else {
            panic!("expected query response, got {resp:?}");
        };
        assert_eq!(q.rows.rows.len(), 20);
        let bound = 20 + ctx.config.batch_rows as u64;
        assert!(q.rows.total <= bound, "{} rows offered", q.rows.total);
    }

    #[test]
    fn explain_flags_populate_plan_reports() {
        let (mut e, mut ctx) = engine("explain");
        e.execute(&mut ctx, "\\gen faculty 20 1");
        e.execute(&mut ctx, "\\explain verify");
        assert!(ctx.explain && ctx.verify);
        let resp = e.execute(&mut ctx, "range of f is Faculty retrieve (N=f.Name);");
        let Response::Query(q) = resp else {
            panic!("expected query response, got {resp:?}");
        };
        assert!(q.physical.as_deref().unwrap().contains("SeqScan Faculty"));
        assert!(q.certificate.is_some());
        e.execute(&mut ctx, "\\explain off");
        assert!(!ctx.explain && !ctx.verify);
    }

    #[test]
    fn analyze_returns_typed_verdicts() {
        let (mut e, mut ctx) = engine("analyze");
        e.execute(&mut ctx, "\\gen faculty 30 5");
        let resp = e.execute(
            &mut ctx,
            "\\analyze range of f1 is Faculty range of f2 is Faculty \
             retrieve (N=f1.Name) where f1.ValidFrom < f2.ValidFrom \
             and f2.ValidTo < f1.ValidTo;",
        );
        let Response::Analysis(a) = resp else {
            panic!("expected analysis, got {resp:?}");
        };
        assert_eq!(a.ops.len(), 1);
        assert!(a.ops[0].operator.contains("ContainJoin"), "{:?}", a.ops[0]);
        assert!(a.ops[0].table_entry.contains("Table 1"), "{:?}", a.ops[0]);
        assert!(a.ops[0].workspace_cap.is_some());
        assert!(a.certificate.contains("λ·E[D]"));
    }

    #[test]
    fn errors_carry_taxonomy_codes() {
        let (mut e, mut ctx) = engine("err");
        let resp = e.execute(&mut ctx, "range of f is Nope retrieve (N=f.Name);");
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, ErrorCode::Catalog);
        let resp = e.execute(&mut ctx, "this is not quel;");
        let Response::Error(err) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(err.code, ErrorCode::Parse);
    }

    #[test]
    fn ingest_response_carries_epoch_stamped_deltas() {
        let (mut e, mut ctx) = engine("ingest");
        let sub = e.execute(
            &mut ctx,
            "\\subscribe range of a is S range of b is S retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;",
        );
        // S does not exist yet: subscription must fail cleanly.
        assert!(matches!(sub, Response::Error(_)));

        let resp = e.ingest_text("S", "0 100 long\n10 20 a\n30 40 b\n");
        let Response::Ingest(r) = resp else {
            panic!("expected ingest, got {resp:?}");
        };
        assert_eq!(r.offered, 3);
        assert_eq!(r.promoted, 2);
        assert_eq!(r.staged, 1);
        assert_eq!(r.watermark, Some(TimePoint(30)));

        let resp = e.execute(
            &mut ctx,
            "\\subscribe range of a is S range of b is S retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;",
        );
        let Response::Subscribed(s) = resp else {
            panic!("expected subscribed, got {resp:?}");
        };
        assert_eq!(s.id, 0);
        assert_eq!(s.initial.rows.len(), 1);

        let mut resp = e.ingest_text("S", "50 60 c\n");
        let routed = resp.take_deltas();
        assert_eq!(routed.len(), 1);
        assert!(routed[0].epoch >= 2);
        assert_eq!(routed[0].watermark, Some(TimePoint(50)));
        assert!(
            matches!(resp, Response::Ingest(ref r) if r.deltas.is_empty()),
            "take_deltas drains the response in place"
        );
    }

    #[test]
    fn live_status_names_each_subscriptions_mode() {
        let (mut e, mut ctx) = engine("modes");
        e.ingest_text("S", "0 100 long\n10 20 a\n30 40 b\n");
        let contain = "range of a is S range of b is S retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;";
        let short = "range of a is S retrieve (X=a.Id) where a.ValidTo < 45;";
        for query in [contain, short] {
            let resp = e.execute(&mut ctx, &format!("\\subscribe {query}"));
            assert!(matches!(resp, Response::Subscribed(_)), "{resp:?}");
        }
        e.ingest_text("S", "50 60 c\n");
        let resp = e.execute(&mut ctx, "\\live");
        let Response::Live(status) = &resp else {
            panic!("expected live status, got {resp:?}");
        };
        let modes: Vec<&str> = status
            .subscriptions
            .iter()
            .map(|s| s.mode.as_str())
            .collect();
        assert_eq!(modes, ["held tuples", "re-evaluated"]);
        let text = render::render(&resp, 10);
        assert!(text.contains("#0 `range of a is S"), "{text}");
        assert!(
            text.contains("(held tuples): 2 evaluations, 2 rows emitted"),
            "{text}"
        );
        assert!(
            text.contains("(re-evaluated): 2 evaluations, 2 rows emitted"),
            "{text}"
        );
    }

    #[test]
    fn a_rejected_ingest_batch_admits_nothing() {
        let (mut e, mut ctx) = engine("rejected");
        let counts = |e: &mut Engine, ctx: &mut ClientState| match e.execute(ctx, "\\live") {
            Response::Live(status) => (status.relations[0].admitted, status.relations[0].staged),
            other => panic!("expected live status, got {other:?}"),
        };
        // `late` is below the frontier `b` set: the whole batch is refused,
        // including `a` and `b` before it and `c` after it.
        let resp = e.ingest_text("S", "0 10 a\n5 6 b\n3 9 late\n7 8 c\n");
        let Response::Error(err) = resp else {
            panic!("expected an order violation, got {resp:?}");
        };
        assert_eq!(err.code, ErrorCode::OrderViolation);
        assert_eq!(counts(&mut e, &mut ctx), (0, 0));
        assert!(matches!(
            e.ingest_text("S", "20 21 d\n"),
            Response::Ingest(_)
        ));
        assert_eq!(counts(&mut e, &mut ctx), (1, 1));
        assert!(matches!(
            e.execute(&mut ctx, "\\live close S"),
            Response::Sealed(_)
        ));
        let resp = e.execute(&mut ctx, "range of s is S retrieve (N=s.Id);");
        let Response::Query(q) = resp else {
            panic!("expected query, got {resp:?}");
        };
        assert_eq!(q.rows.rows, [Row::new(vec![Value::str("d")])]);
    }

    #[test]
    fn a_subscription_plans_under_its_clients_settings() {
        let (mut e, mut ctx) = engine("subconfig");
        e.ingest_text("S", "0 100 long\n10 20 a\n30 40 b\n");
        let contain = "range of a is S range of b is S retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;";
        assert!(matches!(
            e.execute(&mut ctx, "\\config naive"),
            Response::Info(_)
        ));
        let resp = e.execute(&mut ctx, &format!("\\subscribe {contain}"));
        assert!(matches!(resp, Response::Subscribed(_)), "{resp:?}");
        let Response::Live(status) = e.execute(&mut ctx, "\\live") else {
            panic!("expected live status");
        };
        assert_eq!(status.subscriptions[0].mode, "re-evaluated");
    }

    #[test]
    fn reloading_a_held_input_switches_its_readers_to_reevaluation() {
        let (mut e, mut ctx) = engine("reload");
        let gen = |seed: u64| format!("\\gen intervals Y 30 3 4 {seed}");
        assert!(matches!(e.execute(&mut ctx, &gen(1)), Response::Info(_)));
        e.ingest_text("S", "0 1000 long\n");
        let contain = "\\subscribe range of a is S range of b is Y retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;";
        let Response::Subscribed(_) = e.execute(&mut ctx, contain) else {
            panic!("subscribe refused");
        };
        let modes = |e: &mut Engine, ctx: &mut ClientState| match e.execute(ctx, "\\live") {
            Response::Live(status) => status.subscriptions[0].mode.clone(),
            other => panic!("expected live status, got {other:?}"),
        };
        assert_eq!(modes(&mut e, &mut ctx), "held tuples");
        assert!(matches!(e.execute(&mut ctx, &gen(2)), Response::Info(_)));
        assert_eq!(modes(&mut e, &mut ctx), "re-evaluated");
        e.ingest_text("S", "2000 2001 next\n");
        assert_eq!(modes(&mut e, &mut ctx), "re-evaluated");
    }

    #[test]
    fn traces_pair_observed_workspace_with_predictions() {
        let (mut e, mut ctx) = engine("trace");
        e.execute(&mut ctx, "\\gen intervals T 200 3 10 7");
        let contain = "range of a is T range of b is T retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;";

        // Traces are recorded engine-side even before `\trace on` …
        let resp = e.execute(&mut ctx, contain);
        let Response::Query(q) = resp else {
            panic!("expected query, got {resp:?}");
        };
        assert!(q.trace.is_none());

        // … and attached to the response once the client opts in.
        e.execute(&mut ctx, "\\trace on");
        let resp = e.execute(&mut ctx, contain);
        let Response::Query(q) = resp else {
            panic!("expected query, got {resp:?}");
        };
        let trace = q.trace.expect("trace attached after \\trace on");
        assert_eq!(trace.rows, q.rows.total);
        let span = trace
            .spans
            .iter()
            .find(|s| s.operator.contains("ContainJoin"))
            .expect("contain-join span present");
        let cap = span.predicted_cap.expect("analyzer proved a cap");
        assert!(
            span.workspace_peak <= cap,
            "observed {} must stay under proven cap {cap}",
            span.workspace_peak
        );
        assert!(span.predicted_expectation.is_some());
        assert!(span.rows_in > 0 && span.comparisons > 0);
        assert!(
            span.occupancy.iter().sum::<u64>() > 0,
            "insertion-sampled occupancy histogram is populated"
        );

        // The stats surface saw both runs and no cap violations.
        let Response::Stats(s) = e.execute(&mut ctx, "\\stats") else {
            panic!("expected stats");
        };
        assert_eq!(s.queries, 2);
        assert_eq!(s.cap_exceeded, 0);
        assert!(s.last.is_some());
    }

    #[test]
    fn stage_spans_cover_the_query_lifecycle() {
        let (mut e, mut ctx) = engine("spans");
        e.execute(&mut ctx, "\\gen intervals T 100 3 10 2");
        e.execute(&mut ctx, "\\trace on");
        let contain = "range of a is T range of b is T retrieve (X=a.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;";
        let Response::Query(q) = e.execute(&mut ctx, contain) else {
            panic!("expected query");
        };
        assert_ne!(q.query_id, 0, "every query gets a minted id");
        let trace = q.trace.expect("trace attached");
        assert_eq!(trace.query_id, q.query_id, "trace and report share the id");
        for stage in [
            Stage::Parse,
            Stage::Plan,
            Stage::Analyze,
            Stage::Execute,
            Stage::Sink,
        ] {
            assert!(
                trace
                    .stages
                    .iter()
                    .any(|s| s.stage == stage && s.depth == 0),
                "missing top-level {} span in {:?}",
                stage.name(),
                trace.stages
            );
        }
        let op = trace
            .stages
            .iter()
            .find(|s| s.stage == Stage::Operator)
            .expect("per-operator child span");
        assert_eq!(op.depth, 1, "operator spans nest under execute");
        assert!(op.detail.contains("ContainJoin"), "{:?}", op.detail);

        // The same spans export as JSON, and the stats surface summarizes
        // the per-stage histograms.
        let Response::Info(json) = e.execute(&mut ctx, "\\trace export") else {
            panic!("expected info");
        };
        assert!(json.contains("\"stage\":\"execute\""), "{json}");
        assert!(
            json.contains(&format!("\"query_id\":{}", q.query_id)),
            "{json}"
        );
        let Response::Stats(s) = e.execute(&mut ctx, "\\stats") else {
            panic!("expected stats");
        };
        assert!(
            s.stages.iter().any(|l| l.stage == "execute" && l.count > 0),
            "{:?}",
            s.stages
        );
    }

    #[test]
    fn impossible_latency_objective_burns_to_critical() {
        let (mut e, mut ctx) = engine("slo");
        e.execute(&mut ctx, "\\gen faculty 20 9");
        // A 0µs objective makes every query bad; with no healthy history,
        // both windows burn at 1/budget = 100 ≫ the 14/6 thresholds.
        e.execute(&mut ctx, "\\slo latency 0");
        e.execute(&mut ctx, "range of f is Faculty retrieve (N=f.Name);");
        let Response::Stats(s) = e.execute(&mut ctx, "\\stats") else {
            panic!("expected stats");
        };
        assert_eq!(s.health, "critical", "{:?}", s.slo);
        let latency = s.slo.iter().find(|o| o.objective == "latency").unwrap();
        assert!(latency.fast_burn >= 14.0, "{latency:?}");
        assert_eq!(latency.health, "critical");
        let errors = s.slo.iter().find(|o| o.objective == "errors").unwrap();
        assert_eq!(errors.health, "ok", "queries succeeded: {errors:?}");

        // The health flip landed in the event ring, and /healthz agrees.
        let Response::Info(events) = e.execute(&mut ctx, "\\events") else {
            panic!("expected info");
        };
        assert!(events.contains("health"), "{events}");
        assert!(events.contains("ok -> critical"), "{events}");
        let (health, body) = e.health();
        assert_eq!(health, HealthState::Critical);
        assert!(body.contains("\"health\":\"critical\""), "{body}");

        // Errors feed their own objective: a failing query flips it too.
        e.execute(&mut ctx, "range of z is Nope retrieve (N=z.Name);");
        let Response::Stats(s) = e.execute(&mut ctx, "\\stats") else {
            panic!("expected stats");
        };
        let errors = s.slo.iter().find(|o| o.objective == "errors").unwrap();
        assert!(errors.fast_burn > 0.0, "{errors:?}");
    }

    #[test]
    fn slo_reconfiguration_validates_and_resets() {
        let (mut e, mut ctx) = engine("slo-cfg");
        assert!(matches!(
            e.execute(&mut ctx, "\\slo target 1.5"),
            Response::Error(_)
        ));
        assert!(matches!(
            e.execute(&mut ctx, "\\slo burn -1 2"),
            Response::Error(_)
        ));
        let Response::Info(msg) = e.execute(&mut ctx, "\\slo windows 5 60") else {
            panic!("expected info");
        };
        assert!(msg.contains("fast 5s, slow 60s"), "{msg}");
        let Response::Info(status) = e.execute(&mut ctx, "\\slo") else {
            panic!("expected info");
        };
        assert!(status.contains("windows 5s/60s"), "{status}");
        assert!(status.contains("health: ok"), "{status}");
    }

    #[test]
    fn slow_log_threshold_is_configurable() {
        let (mut e, mut ctx) = engine("slow");
        e.execute(&mut ctx, "\\gen faculty 20 3");
        // Threshold 0: every query is "slow" and lands in the log.
        e.execute(&mut ctx, "\\slow 0");
        e.execute(&mut ctx, "range of f is Faculty retrieve (N=f.Name);");
        let Response::Stats(s) = e.execute(&mut ctx, "\\stats") else {
            panic!("expected stats");
        };
        assert_eq!(s.slow_threshold_us, 0);
        assert_eq!(s.slow.len(), 1);
        assert!(s.slow[0].label.contains("Faculty"));
        let text = e.prometheus();
        assert!(text.contains("tdb_queries_total 1"), "{text}");
        assert!(text.contains("tdb_cap_exceeded_total 0"), "{text}");
        assert!(
            text.contains("# TYPE tdb_query_duration_us histogram"),
            "{text}"
        );
    }

    #[test]
    fn set_limit_mutates_client_state() {
        let (mut e, mut ctx) = engine("set");
        e.execute(&mut ctx, "\\set limit 5");
        assert_eq!(ctx.row_limit, 5);
        let resp = e.execute(&mut ctx, "\\set limit x");
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn hostile_interval_parameters_are_config_errors_not_panics() {
        let (mut e, mut ctx) = engine("genhostile");
        for (gap, dur) in [
            ("1e300", "1"),
            ("3", "1e300"),
            ("-5", "1"),
            ("3", "-5"),
            ("NaN", "1"),
            ("3", "NaN"),
            ("inf", "1"),
            ("3", "inf"),
        ] {
            let cmd = format!("\\gen intervals T 3 {gap} {dur} 1");
            let resp = e.execute(&mut ctx, &cmd);
            let Response::Error(err) = resp else {
                panic!("{cmd}: expected an error, got {resp:?}");
            };
            assert_eq!(err.code, ErrorCode::Config, "{cmd}: {}", err.message);
        }
        assert!(e.catalog().meta("T").is_err(), "nothing was generated");
        let resp = e.execute(&mut ctx, "\\gen intervals T 3 3 10 1");
        assert!(matches!(resp, Response::Info(_)), "{resp:?}");
    }

    #[test]
    fn set_batch_mutates_planner_config_within_range() {
        let (mut e, mut ctx) = engine("setbatch");
        assert_eq!(ctx.config.batch_rows, tdb::stream::DEFAULT_BATCH_ROWS);
        e.execute(&mut ctx, "\\set batch 64");
        assert_eq!(ctx.config.batch_rows, 64);
        e.execute(&mut ctx, "\\set batch 1");
        assert_eq!(ctx.config.batch_rows, 1);
        // A batch is at least one row: 0 is out of range, like any size
        // past the maximum.
        let over = tdb::stream::MAX_BATCH_ROWS + 1;
        for bad in [0, over] {
            let resp = e.execute(&mut ctx, &format!("\\set batch {bad}"));
            let Response::Error(err) = resp else {
                panic!("expected error, got {resp:?}");
            };
            assert_eq!(err.code, ErrorCode::Config);
            assert!(err.message.contains("1..="), "{}", err.message);
            assert_eq!(ctx.config.batch_rows, 1, "rejected value must not apply");
        }
    }

    #[test]
    fn bad_set_keys_and_ranges_are_typed_config_errors() {
        let (mut e, mut ctx) = engine("seterr");
        for input in ["\\set", "\\set warp 9", "\\set batch x", "\\set batch 0"] {
            let resp = e.execute(&mut ctx, input);
            let Response::Error(err) = resp else {
                panic!("expected error for `{input}`, got {resp:?}");
            };
            assert_eq!(err.code, ErrorCode::Config, "{input}: {}", err.message);
        }
        // Rejections leave the client state untouched.
        assert_eq!(ctx.config, PlannerConfig::stream());
    }

    /// A limit stops the stream plan's producer early, so its count is a
    /// lower bound; every plan's footer then says so in the same words,
    /// and with the limit lifted each prints the exact count.
    #[test]
    fn footer_counts_read_as_lower_bounds_after_a_limit() {
        let (mut e, mut ctx) = engine("footer");
        e.execute(&mut ctx, "\\gen faculty 300 4");
        let footer = |e: &mut Engine, ctx: &mut ClientState| {
            let resp = e.execute(ctx, tdb::quel::parser::SUPERSTAR);
            assert!(matches!(resp, Response::Query(_)), "{resp:?}");
            let text = crate::render(&resp, 20);
            let line = text.lines().find(|l| l.contains(" rows ")).unwrap();
            line.split(" in ").next().unwrap().to_string()
        };
        let mut exact = Vec::new();
        for config in ["stream", "conventional", "naive"] {
            e.execute(&mut ctx, &format!("\\config {config}"));
            ctx.row_limit = 20;
            let limited = footer(&mut e, &mut ctx);
            assert!(
                limited.starts_with("at least ")
                    && limited.ends_with(" rows (stopped at limit 20)"),
                "{config}: {limited}"
            );
            ctx.row_limit = usize::MAX;
            exact.push(footer(&mut e, &mut ctx));
        }
        assert!(exact[0].ends_with(" rows") && !exact[0].contains("at least"));
        assert_eq!(exact, vec![exact[0].clone(); 3]);
        let n: usize = exact[0].trim_end_matches(" rows").parse().unwrap();
        assert!(n > 20, "{n} superstars: the limit must cut the result");
    }

    /// `\set` takes no partition count: stream nodes run one way, and the
    /// key is refused like any unknown one.
    #[test]
    fn set_parallelism_is_refused_and_leaves_client_state_unchanged() {
        let (mut e, mut ctx) = engine("setpar");
        let before = format!("{ctx:?}");
        let resp = e.execute(&mut ctx, "\\set parallelism 4");
        let Response::Error(err) = resp else {
            panic!("expected an error, got {resp:?}");
        };
        assert_eq!(err.code, ErrorCode::Config, "{}", err.message);
        assert!(err.message.contains("batch|limit"), "{}", err.message);
        assert_eq!(format!("{ctx:?}"), before);
    }

    #[test]
    fn batch_setting_does_not_change_query_results() {
        let (mut e, mut ctx) = engine("batcheq");
        e.execute(&mut ctx, "\\gen intervals T 120 3 10 9");
        ctx.row_limit = 10_000;
        let contain = "range of a is T range of b is T retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;";
        e.execute(&mut ctx, "\\set batch 1");
        let Response::Query(row) = e.execute(&mut ctx, contain) else {
            panic!("expected query");
        };
        for rows in ["64", "1024"] {
            e.execute(&mut ctx, &format!("\\set batch {rows}"));
            let Response::Query(q) = e.execute(&mut ctx, contain) else {
                panic!("expected query");
            };
            assert_eq!(q.rows, row.rows, "batch {rows}");
            assert_eq!(
                q.stats.max_workspace, row.stats.max_workspace,
                "batch {rows}: workspace peaks must be batch-size-invariant"
            );
        }
    }

    #[test]
    fn durable_engine_checkpoints_and_reports_wal_stats() {
        let dir =
            std::env::temp_dir().join(format!("tdb-engine-api-{}-durable", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = ClientState::default();
        {
            let mut e = Engine::open_durable(&dir, tdb::wal::FlushPolicy::GroupCommit).unwrap();
            assert!(e.is_durable());
            assert_eq!(e.replay_summary().unwrap().relations, 0);
            let resp = e.ingest_text("S", "0 100 long\n10 20 a\n30 40 b\n");
            assert!(matches!(resp, Response::Ingest(_)), "{resp:?}");
            let Response::Stats(s) = e.execute(&mut ctx, "\\stats") else {
                panic!("expected stats");
            };
            let w = s.wal.expect("durable engine reports wal stats");
            assert_eq!(w.flush_policy, "group-commit");
            assert!(w.appends >= 3, "{w:?}");
            assert!(w.fsyncs > 0 && w.checkpoints > 0, "{w:?}");
            // The wal block survives the wire codec.
            let resp = Response::Stats(StatsReport {
                wal: Some(w),
                ..StatsReport::default()
            });
            let back = Response::from_bytes(&resp.to_bytes()).unwrap();
            assert_eq!(back, resp);
            let Response::Info(msg) = e.execute(&mut ctx, "\\checkpoint") else {
                panic!("expected info");
            };
            assert!(msg.contains("checkpointed 1 relation log"), "{msg}");
        }
        // Reopen: the staged suffix and watermark come back; a plain
        // (non-durable) engine reports no wal block and refuses \checkpoint.
        let mut e = Engine::open_durable(&dir, tdb::wal::FlushPolicy::GroupCommit).unwrap();
        let replay = e.replay_summary().unwrap();
        assert_eq!(replay.relations, 1);
        assert_eq!(replay.rows_restaged, 1, "open suffix [30,40) restaged");
        let rel = e.live().relation("S").unwrap();
        assert_eq!(rel.staged_len(), 1);
        assert_eq!(rel.watermark(), Some(TimePoint(30)));
        let resp = e.ingest_text("S", "50 60 c\n");
        assert!(matches!(resp, Response::Ingest(_)), "{resp:?}");
        // A self-join over the recovered catalog stays under its proven
        // workspace caps.
        let resp = e.execute(
            &mut ctx,
            "range of a is S range of b is S retrieve (P=a.Id, Q=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;",
        );
        assert!(matches!(resp, Response::Query(_)), "{resp:?}");
        assert_eq!(e.stats_report().cap_exceeded, 0);

        let (mut plain, mut ctx2) = engine("notdurable");
        let Response::Stats(s) = plain.execute(&mut ctx2, "\\stats") else {
            panic!("expected stats");
        };
        assert!(s.wal.is_none());
        let Response::Info(msg) = plain.execute(&mut ctx2, "\\checkpoint") else {
            panic!("expected info");
        };
        assert!(msg.contains("not durable"), "{msg}");
    }

    #[test]
    fn an_acknowledged_batch_costs_one_sync_and_a_checkpoint_a_fixed_set() {
        let dir = std::env::temp_dir().join(format!("tdb-engine-api-{}-syncs", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = ClientState::default();
        let mut e = Engine::open_durable(&dir, tdb::wal::FlushPolicy::GroupCommit).unwrap();
        let resp = e.ingest_text("S", "0 5 r0\n");
        assert!(matches!(resp, Response::Ingest(_)), "{resp:?}");
        let counts = |e: &mut Engine, ctx: &mut ClientState| {
            let Response::Stats(s) = e.execute(ctx, "\\stats") else {
                panic!("expected stats");
            };
            let w = s.wal.expect("durable engine reports wal stats");
            (w.fsyncs, w.checkpoints)
        };
        let (fsyncs, checkpoints) = counts(&mut e, &mut ctx);
        // Each batch promotes the one before it: its group commit is the
        // only sync, the heap append waits for the next checkpoint.
        for i in 1..=12 {
            let resp = e.ingest_text("S", &format!("{} {} r{i}\n", 10 * i, 10 * i + 5));
            let Response::Ingest(report) = resp else {
                panic!("expected ingest, got {resp:?}");
            };
            assert_eq!(report.promoted, 1, "batch {i}");
        }
        assert_eq!(counts(&mut e, &mut ctx), (fsyncs + 12, checkpoints));
        // A checkpoint syncs the heap appended to, the manifest and its
        // directory, then the rewritten log and its directory.
        let Response::Info(msg) = e.execute(&mut ctx, "\\checkpoint") else {
            panic!("expected info");
        };
        assert!(msg.contains("checkpointed 1 relation log"), "{msg}");
        assert_eq!(counts(&mut e, &mut ctx), (fsyncs + 17, checkpoints + 1));
        // With nothing appended since, no heap needs its sync.
        e.execute(&mut ctx, "\\checkpoint");
        assert_eq!(counts(&mut e, &mut ctx), (fsyncs + 21, checkpoints + 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reloaded_live_relation_reopens_with_the_loaded_rows() {
        let dir =
            std::env::temp_dir().join(format!("tdb-engine-api-{}-reload", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = ClientState::default();
        {
            let mut e = Engine::open_durable(&dir, tdb::wal::FlushPolicy::GroupCommit).unwrap();
            let resp = e.ingest_text("S", "0 10 a\n5 20 b\n30 40 c\n");
            assert!(matches!(resp, Response::Ingest(_)), "{resp:?}");
            let resp = e.execute(&mut ctx, "\\gen intervals S 5 3 8 1");
            assert!(matches!(resp, Response::Info(_)), "{resp:?}");
        }
        // The promotions of `a` and `b` were never checkpointed; the load
        // replaced them, and the log no longer counts them.
        let e = Engine::open_durable(&dir, tdb::wal::FlushPolicy::GroupCommit).unwrap();
        assert_eq!(e.catalog.meta("S").unwrap().rows, 5);
        assert_eq!(
            e.live().relation("S").unwrap().staged_len(),
            1,
            "`c` is open"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn responses_round_trip_through_the_storage_codec() {
        let (mut e, mut ctx) = engine("codec");
        e.execute(&mut ctx, "\\gen faculty 10 2");
        e.execute(&mut ctx, "\\trace on");
        for input in [
            "\\tables",
            "\\help",
            "range of f is Faculty retrieve (N=f.Name);",
            "\\live",
            "\\stats",
            "range of f is Nope retrieve (N=f.Name);",
            "\\set warp 9",
        ] {
            let resp = e.execute(&mut ctx, input);
            let bytes = resp.to_bytes();
            let back = Response::from_bytes(&bytes).unwrap();
            assert_eq!(back, resp, "round-trip failed for `{input}`");
        }
    }
}
