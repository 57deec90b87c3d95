//! The five workloads, driven through a served `tdb` child process.
//!
//! Every loop is closed: the next request is sent only after the reply
//! to the previous one is complete. Query workloads use one connection;
//! the live workload uses two (an ingester and a subscriber).

use crate::check::{self, Digest};
use crate::inputs::{self, IntervalPair, Iv};
use crate::server::{Connections, Server};
use crate::speed::Speed;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdb::prelude::*;
use tdb_engine::{Response, StatsReport};
use tdb_net::{Client, StreamEvent};

/// The `--seconds` the operation counts were sized for, and
/// `run_seconds` in `BENCHMARK.json`.
pub const REFERENCE_SECONDS: usize = 15;
/// Operations sent before the clock starts, on every fresh server.
pub const WARMUP_OPS: usize = 5;
/// The client-side row limit that lets a whole result cross the wire.
const LIMIT_LIFTED: usize = 100_000_000;
/// Rows `first_rows` asks for.
const FIRST_ROWS_LIMIT: usize = 20;
/// `Faculty` members stored for `allen_mix`.
const FACULTY_MEMBERS: usize = 3_200;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Contain-join, 40 000/side, every pair streamed to the client.
    JoinStream,
    /// The same join on 160 000/side, stopped after 20 rows.
    FirstRows,
    /// Five query kinds round-robin over cache-resident inputs.
    AllenMix,
    /// Durable ingestion alone, then a crash and recovery.
    IngestDurable,
    /// Durable ingestion beside a standing Contain-join subscription.
    LiveSubscribe,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 5] = [
        Workload::JoinStream,
        Workload::FirstRows,
        Workload::AllenMix,
        Workload::IngestDurable,
        Workload::LiveSubscribe,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinStream => "join_stream",
            Workload::FirstRows => "first_rows",
            Workload::AllenMix => "allen_mix",
            Workload::IngestDurable => "ingest_durable",
            Workload::LiveSubscribe => "live_subscribe",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the workload ingest (rather than query stored relations)?
    pub fn is_live(self) -> bool {
        matches!(self, Workload::IngestDurable | Workload::LiveSubscribe)
    }

    /// Stored tuples per relation of a query workload.
    fn rows_per_side(self) -> usize {
        match self {
            Workload::JoinStream => 40_000,
            Workload::FirstRows => 160_000,
            Workload::AllenMix => 5_000,
            Workload::IngestDurable | Workload::LiveSubscribe => 0,
        }
    }

    /// Timed operations of a run of [`REFERENCE_SECONDS`]. Operation
    /// counts are fixed per run length, never cut off by a clock: the
    /// live path is super-linear in what it has ingested, so a time
    /// budget would make the sample a function of the speed being
    /// measured. Sized on the seed commit so that the timed phase of
    /// every workload lasts about `--seconds`.
    fn reference_ops(self) -> usize {
        match self {
            Workload::JoinStream => 60,
            Workload::FirstRows => 120,
            Workload::AllenMix => 500,
            Workload::IngestDurable => 700,
            Workload::LiveSubscribe => 160,
        }
    }

    /// Timed operations of a run measuring for `seconds` (`quick`: a tenth).
    pub fn ops(self, seconds: u64, quick: bool) -> usize {
        let full = self.reference_ops() * seconds as usize / REFERENCE_SECONDS;
        (if quick { full / 10 } else { full }).max(4)
    }

    /// Operations of the in-process traced phase.
    pub fn trace_ops(self, seconds: u64, quick: bool) -> usize {
        match self {
            // Growth over the run is one of the live layers' metrics, so
            // they trace half the run, not a fixed handful.
            w if w.is_live() => self.ops(seconds, quick) / 2,
            _ if quick => 2,
            // Four rounds of the five kinds.
            Workload::AllenMix => 20,
            // A traced operation runs its query six times over.
            _ => 12,
        }
    }
}

/// What one run is asked to do.
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed operations.
    pub ops: usize,
    /// Operations of the in-process traced phase.
    pub trace_ops: usize,
    /// Set up once only (traced and quick runs, which do not report
    /// `setup_s`) instead of several times for a median.
    pub single_setup: bool,
    /// The served binary.
    pub tdb: PathBuf,
    /// A directory of this run's own for catalogs and logs.
    pub scratch: PathBuf,
}

/// What the served phase of a run observed, for both the end-to-end
/// metrics and the served share of the per-layer metrics.
#[derive(Default)]
pub struct Served {
    /// Operations sent in the timed phase.
    pub attempted: u64,
    /// Of those, the ones that errored, lost the connection or failed
    /// their output check.
    pub failed: u64,
    /// Output checks outside single operations that failed, in words.
    pub violations: Vec<String>,
    /// Send → complete reply, per successful operation.
    pub latency_ms: Vec<f64>,
    /// Send → first reply event, per successful operation.
    pub first_chunk_ms: Vec<f64>,
    /// Send of the ingest request whose epoch a pushed delta carries →
    /// receipt of that delta.
    pub delta_lag_ms: Vec<f64>,
    /// How many times slower than nominal the machine ran when each
    /// successful operation was sent (one per `latency_ms`).
    pub slowdown: Vec<f64>,
    /// The same for the request behind each `delta_lag_ms`.
    pub delta_slowdown: Vec<f64>,
    /// Which timed operation (counted from 0) caused each `delta_lag_ms`.
    pub delta_op: Vec<usize>,
    /// The same around each set-up (one per `setup_s`).
    pub setup_slowdown: Vec<f64>,
    /// Median slowdown over the run's reference passes, and their count.
    pub run_slowdown: (f64, usize),
    /// Result rows received, or arrivals acknowledged.
    pub rows: u64,
    /// Each set-up's duration.
    pub setup_s: Vec<f64>,
    /// The server's peak resident set at the end of the timed phase.
    pub peak_rss_mib: f64,
    /// `ReplyChunk` frames per successful query operation.
    pub chunks: Vec<f64>,
    /// Server-reported execute time per query (`Client::rtt_samples`).
    pub server_us: Vec<f64>,
    /// The server's `\stats` at the end of the timed phase.
    pub stats: StatsReport,
    /// Rows promoted into the catalog, summed over ingest replies.
    pub promoted_rows: u64,
    /// Largest `staged` any ingest reply reported.
    pub staged_peak: u64,
    /// Standing-query evaluations the server counted.
    pub evaluations: u64,
    /// Restart → first reply after the `SIGKILL`, in milliseconds.
    pub recovery_ms: f64,
    /// The restarted server's `\stats` (replay counters).
    pub recovered: StatsReport,
    /// Bytes of arrival text acknowledged.
    pub user_bytes: u64,
    /// The catalog directory the last set-up made (query workloads).
    pub catalog_dir: PathBuf,
}

impl Served {
    /// Seconds the client spent waiting for replies in the timed phase.
    pub fn busy_s(&self) -> f64 {
        self.latency_ms.iter().sum::<f64>() / 1000.0
    }

    /// The static `workspace_cap` is a proof: any observed peak over it
    /// is a wrong answer from the verifier, and fails the run.
    fn check_cap(&mut self) {
        if self.stats.cap_exceeded != 0 {
            self.violations.push(format!(
                "cap_exceeded = {}: an observed workspace peak passed its proven cap",
                self.stats.cap_exceeded
            ));
        }
    }

    /// Look up the machine's speed at each successful operation's send.
    fn note_speed(&mut self, speed: &Speed, sent: &[Instant]) {
        self.slowdown = sent.iter().map(|&at| speed.slowdown_at(at)).collect();
        self.run_slowdown = (speed.median_slowdown(), speed.passes());
    }

    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Set-ups a run makes at least, so that `setup_s` is a median.
const MIN_SETUPS: usize = 3;
/// Set-ups a run makes at most.
const MAX_SETUPS: usize = 15;
/// Cheap set-ups are repeated until they have taken this long together
/// (tear-down and reference passes not counted): a 40 ms set-up is mostly
/// process start-up jitter, and needs more than three samples for a
/// steady median.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Set up with `make` as often as the rules above say, timing each
/// set-up into `setup_s` (and the machine's speed on either side of it
/// into `setup_slowdown`) and dropping the previous one before the next
/// begins: two servers at once would share this machine's memory and
/// cores. Returns the last set-up.
fn repeat_setup<T>(
    spec: &RunSpec,
    speed: &mut Speed,
    out: &mut Served,
    mut make: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut last: Option<T> = None;
    loop {
        let rep = out.setup_s.len();
        let spent = Duration::from_secs_f64(out.setup_s.iter().sum());
        let enough = match spec.single_setup {
            true => rep >= 1,
            false => rep >= MAX_SETUPS || (rep >= MIN_SETUPS && spent >= SETUP_BUDGET),
        };
        if enough {
            return last.ok_or_else(|| "no set-up ran".to_string());
        }
        drop(last.take());
        let before = speed.pass();
        let started = Instant::now();
        last = Some(make(rep)?);
        out.setup_s.push(started.elapsed().as_secs_f64());
        out.setup_slowdown.push((before + speed.pass()) / 2.0);
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1000.0
}

fn fresh_dir(scratch: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = scratch.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn request(client: &mut Client, text: &str) -> Result<Response, String> {
    match client.request(text) {
        Ok(Response::Error(e)) => Err(format!("`{text}` answered {e:?}")),
        Ok(resp) => Ok(resp),
        Err(e) => Err(format!("`{text}` failed: {e}")),
    }
}

fn stats(client: &mut Client) -> Result<StatsReport, String> {
    match client.stats() {
        Ok(Response::Stats(report)) => Ok(report),
        other => Err(format!("stats request answered {other:?}")),
    }
}

// ── query workloads ─────────────────────────────────────────────────

/// What the result of one query kind must look like.
pub enum Expect {
    /// Exactly these rows, in any order.
    Exact(Digest),
    /// Exactly `rows` rows, each a `(P, Q)` pair satisfying the
    /// containment predicate (the prefix a limit keeps is the engine's
    /// choice, so only membership can be checked).
    ContainedPairs {
        /// Rows asked for.
        rows: usize,
        /// The containing relation.
        left: Vec<Iv>,
        /// The contained relation.
        right: Vec<Iv>,
    },
}

/// One distinct query of a workload.
pub struct QueryKind {
    /// Short name (`contains`, `superstar`, …).
    pub name: &'static str,
    /// The Quel text sent.
    pub text: String,
    /// Relations the query scans, once per range variable.
    pub relations: Vec<&'static str>,
}

/// The generated inputs of a query workload.
pub struct QueryInputs {
    /// `X` and `Y`.
    pub pair: IntervalPair,
    /// `Faculty` (`allen_mix` only).
    pub faculty: Vec<tdb::gen::FacultyTuple>,
}

impl QueryInputs {
    /// Generate the workload's relations from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> QueryInputs {
        QueryInputs {
            pair: IntervalPair::generate(workload.rows_per_side(), seed),
            faculty: match workload {
                Workload::AllenMix => inputs::faculty(FACULTY_MEMBERS, seed),
                _ => Vec::new(),
            },
        }
    }

    /// Write the relations into a fresh catalog at `dir`.
    pub fn store(&self, dir: &Path) -> Result<(), String> {
        let mut catalog = Catalog::open(dir, IoStats::new()).map_err(|e| e.to_string())?;
        inputs::store_intervals(&mut catalog, "X", &self.pair.x).map_err(|e| e.to_string())?;
        inputs::store_intervals(&mut catalog, "Y", &self.pair.y).map_err(|e| e.to_string())?;
        if !self.faculty.is_empty() {
            inputs::store_faculty(&mut catalog, &self.faculty).map_err(|e| e.to_string())?;
        }
        // Flush what was just written, as part of the set-up: left
        // dirty, these pages are written back by the kernel some thirty
        // seconds later, in the middle of a timed phase.
        for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_file() {
                std::fs::File::open(&path)
                    .and_then(|f| f.sync_all())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        Ok(())
    }
}

/// The row limit a query workload sets on its connection.
pub fn row_limit(workload: Workload) -> usize {
    match workload {
        Workload::FirstRows => FIRST_ROWS_LIMIT,
        _ => LIMIT_LIFTED,
    }
}

/// The distinct queries of a query workload, in round-robin order.
pub fn query_kinds(workload: Workload) -> Vec<QueryKind> {
    let contains = QueryKind {
        name: "contains",
        text: inputs::contains_query("X", "Y"),
        relations: vec!["X", "Y"],
    };
    match workload {
        Workload::AllenMix => vec![
            contains,
            QueryKind {
                name: "during",
                text: inputs::during_query("Y", "X"),
                relations: vec!["Y", "X"],
            },
            QueryKind {
                name: "overlap",
                text: inputs::overlap_query("X", "Y"),
                relations: vec!["X", "Y"],
            },
            QueryKind {
                name: "self_contains",
                text: inputs::contains_query("X", "X"),
                relations: vec!["X", "X"],
            },
            QueryKind {
                name: "superstar",
                text: inputs::SUPERSTAR_QUERY.to_string(),
                relations: vec!["Faculty", "Faculty", "Faculty"],
            },
        ],
        _ => vec![contains],
    }
}

/// The reference answer of each of [`query_kinds`], computed by the
/// harness from the generated intervals alone.
pub fn expectations(workload: Workload, inputs: &QueryInputs) -> Vec<Expect> {
    let x = inputs::intervals(&inputs.pair.x);
    let y = inputs::intervals(&inputs.pair.y);
    let s = |i: usize| format!("S{i}");
    let exact = |left: &[Iv], right: &[Iv], pred: fn(Iv, Iv) -> bool| {
        Expect::Exact(check::reference_join(left, right, pred, s, s))
    };
    match workload {
        Workload::FirstRows => vec![Expect::ContainedPairs {
            rows: FIRST_ROWS_LIMIT,
            left: x,
            right: y,
        }],
        Workload::AllenMix => vec![
            exact(&x, &y, check::contains),
            exact(&y, &x, |a, b| check::contains(b, a)),
            exact(&x, &y, check::overlap),
            exact(&x, &x, check::contains),
            Expect::Exact(check::reference_superstar(&inputs.faculty)),
        ],
        _ => vec![exact(&x, &y, check::contains)],
    }
}

impl Expect {
    /// Does a result made of `chunks` meet the expectation?
    pub fn met_by(&self, chunks: &[Vec<Row>]) -> bool {
        match self {
            Expect::Exact(want) => Digest::of_chunks(chunks) == *want,
            Expect::ContainedPairs { rows, left, right } => {
                chunks.iter().map(Vec::len).sum::<usize>() == *rows
                    && chunks
                        .iter()
                        .all(|c| check::all_pairs_satisfy(c, left, right, check::contains))
            }
        }
    }
}

/// One query sent and its reply consumed.
struct QueryOp {
    sent: Instant,
    latency_ms: f64,
    first_chunk_ms: f64,
    chunk_frames: u64,
    rows: Vec<Vec<Row>>,
}

/// Send `text`, stream the reply, stop the clock at the last chunk.
fn query_op(client: &mut Client, text: &str) -> Result<QueryOp, String> {
    let mut rows: Vec<Vec<Row>> = Vec::new();
    let mut first: Option<Instant> = None;
    let sent = Instant::now();
    let reply = client.request_with(text, |ev| {
        if let StreamEvent::Rows(chunk) = ev {
            first.get_or_insert_with(Instant::now);
            rows.push(chunk);
        }
    });
    let done = Instant::now();
    let chunk_frames = rows.len() as u64;
    match reply {
        Ok(Response::QueryStream(_)) => {}
        // A small result arrives whole, in the reply frame itself.
        Ok(Response::Query(report)) => rows.push(report.rows.rows),
        Ok(other) => return Err(format!("query answered {other:?}")),
        Err(e) => return Err(format!("query failed: {e}")),
    }
    Ok(QueryOp {
        sent,
        latency_ms: ms(sent, done),
        first_chunk_ms: ms(sent, first.unwrap_or(done)),
        chunk_frames,
        rows,
    })
}

/// One set-up of a query workload: generate, store, serve, warm up.
fn setup_query(
    spec: &RunSpec,
    kinds: &[QueryKind],
    rep: usize,
) -> Result<(Server, Client, QueryInputs, PathBuf), String> {
    let inputs = QueryInputs::generate(spec.workload, spec.seed);
    let dir = fresh_dir(&spec.scratch, &format!("catalog-{rep}"))?;
    inputs.store(&dir)?;
    let server = Server::spawn(&spec.tdb, &dir, false)?;
    let mut client = Connections::for_this_machine().connect(server.addr())?;
    request(
        &mut client,
        &format!("\\set limit {}", row_limit(spec.workload)),
    )?;
    for i in 0..WARMUP_OPS {
        query_op(&mut client, &kinds[i % kinds.len()].text)?;
    }
    Ok((server, client, inputs, dir))
}

/// Serve and drive a query workload.
pub fn serve_queries(spec: &RunSpec) -> Result<Served, String> {
    let kinds = query_kinds(spec.workload);
    let mut out = Served::default();
    let mut speed = Speed::new();
    let (server, mut client, inputs, dir) = repeat_setup(spec, &mut speed, &mut out, |rep| {
        setup_query(spec, &kinds, rep)
    })?;
    let expect = expectations(spec.workload, &inputs);

    let mut sent: Vec<Instant> = Vec::with_capacity(spec.ops);
    speed.begin();
    for i in 0..spec.ops {
        let k = i % kinds.len();
        out.attempted += 1;
        let op = query_op(&mut client, &kinds[k].text);
        speed.between();
        match op {
            Ok(op) if expect[k].met_by(&op.rows) => {
                sent.push(op.sent);
                out.latency_ms.push(op.latency_ms);
                out.first_chunk_ms.push(op.first_chunk_ms);
                out.chunks.push(op.chunk_frames as f64);
                out.rows += op.rows.iter().map(|c| c.len() as u64).sum::<u64>();
            }
            Ok(_) => {
                out.failed += 1;
                eprintln!(
                    "op {i} ({}): result differs from the reference",
                    kinds[k].name
                );
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("op {i} ({}): {e}", kinds[k].name);
            }
        }
    }
    speed.end();
    out.note_speed(&speed, &sent);
    out.server_us = client
        .rtt_samples()
        .iter()
        .map(|s| s.server_us as f64)
        .collect();
    out.stats = stats(&mut client)?;
    out.check_cap();
    out.peak_rss_mib = server.peak_rss_mib()?;
    client.close();
    server.stop();
    out.catalog_dir = dir;
    Ok(out)
}

// ── live workloads ──────────────────────────────────────────────────

/// The arrival frames of a live workload, alternating `X`, `Y`.
pub struct LiveInputs {
    /// `X` and `Y` as generated.
    pub pair: IntervalPair,
    /// `(relation, frame body)` in send order: warm-up, then timed.
    pub frames: Vec<(&'static str, String)>,
}

impl LiveInputs {
    /// Generate as many arrivals as `WARMUP_OPS + ops` frames hold.
    pub fn generate(ops: usize, seed: u64) -> LiveInputs {
        let total = WARMUP_OPS + ops;
        let per_side = total.div_ceil(2) * inputs::FRAME_LINES;
        let pair = IntervalPair::generate(per_side, seed);
        let xs = inputs::arrival_frames(&pair.x, 'x');
        let ys = inputs::arrival_frames(&pair.y, 'y');
        let frames = (0..total)
            .map(|i| {
                if i % 2 == 0 {
                    ("X", xs[i / 2].clone())
                } else {
                    ("Y", ys[i / 2].clone())
                }
            })
            .collect();
        LiveInputs { pair, frames }
    }

    /// The standing query of `live_subscribe`, and its batch twin.
    pub fn standing_query() -> String {
        inputs::contains_query("X", "Y")
    }

    /// Arrivals sent to `relation` by the first `frames` frames.
    fn sent_to(relation: &str, frames: usize) -> usize {
        let of_relation = match relation {
            "X" => frames.div_ceil(2),
            _ => frames / 2,
        };
        of_relation * inputs::FRAME_LINES
    }
}

/// Send one `Ingest` frame; the acknowledged report or why not.
fn ingest_op(
    client: &mut Client,
    relation: &str,
    lines: &str,
) -> Result<tdb_engine::IngestReport, String> {
    match client.ingest(relation, lines) {
        Ok(Response::Ingest(report)) if report.offered as usize == inputs::FRAME_LINES => {
            Ok(report)
        }
        Ok(other) => Err(format!("ingest answered {other:?}")),
        Err(e) => Err(format!("ingest failed: {e}")),
    }
}

/// When a pushed delta arrived, and the engine epoch that made it.
struct Arrival {
    at: Instant,
    epoch: u64,
}

/// The subscriber connection, drained on a thread of its own.
struct Subscriber {
    thread: Option<std::thread::JoinHandle<(Vec<Arrival>, Digest)>>,
    stop: Arc<AtomicBool>,
    delivered: Arc<AtomicU64>,
}

impl Subscriber {
    /// Record every pushed delta of `client` until told to stop or the
    /// server goes away.
    fn start(mut client: Client) -> Subscriber {
        let stop = Arc::new(AtomicBool::new(false));
        let delivered = Arc::new(AtomicU64::new(0));
        let (stop_flag, delivered_rows) = (Arc::clone(&stop), Arc::clone(&delivered));
        let thread = std::thread::spawn(move || {
            let mut arrivals = Vec::new();
            let mut digest = Digest::default();
            loop {
                match client.wait_push(Duration::from_millis(20)) {
                    Some(delta) => {
                        arrivals.push(Arrival {
                            at: Instant::now(),
                            epoch: delta.epoch,
                        });
                        digest.add_rows(&delta.rows);
                        delivered_rows.fetch_add(delta.rows.len() as u64, Ordering::SeqCst);
                    }
                    None if stop_flag.load(Ordering::SeqCst) || client.is_closed() => break,
                    None => {}
                }
            }
            client.close();
            (arrivals, digest)
        });
        Subscriber {
            thread: Some(thread),
            stop,
            delivered,
        }
    }

    /// Wait (at most ten seconds) until `rows` rows were delivered, then
    /// stop the thread and hand back what it saw.
    fn finish(mut self, rows: u64) -> Result<(Vec<Arrival>, Digest), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.delivered.load(Ordering::SeqCst) < rows && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("finish runs once")
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())
    }
}

impl Drop for Subscriber {
    /// A set-up that is not measured on still ends its thread.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One set-up of a live workload: a fresh durable server, the warm-up
/// frames acknowledged and, for `live_subscribe`, the standing query
/// registered after the first `X`/`Y` pair.
struct LiveSetup {
    server: Server,
    dir: PathBuf,
    ingester: Client,
    inputs: LiveInputs,
    subscriber: Option<Subscriber>,
    /// Rows the subscription had already finalized when it registered.
    initial: Digest,
}

fn setup_live(spec: &RunSpec, rep: usize) -> Result<LiveSetup, String> {
    let inputs = LiveInputs::generate(spec.ops, spec.seed);
    let dir = fresh_dir(&spec.scratch, &format!("data-{rep}"))?;
    let server = Server::spawn(&spec.tdb, &dir, true)?;
    let mut conns = Connections::for_this_machine();
    let mut ingester = conns.connect(server.addr())?;
    let mut subscriber = None;
    let mut initial = Digest::default();
    for (i, (relation, lines)) in inputs.frames[..WARMUP_OPS].iter().enumerate() {
        if i == 2 && spec.workload == Workload::LiveSubscribe {
            // Both relations exist once the first pair is in.
            let mut sub = conns.connect(server.addr())?;
            let text = format!("\\subscribe {}", LiveInputs::standing_query());
            let Response::Subscribed(report) = request(&mut sub, &text)? else {
                return Err("subscription was not registered".into());
            };
            initial.add_rows(&report.initial.rows);
            subscriber = Some(Subscriber::start(sub));
        }
        ingest_op(&mut ingester, relation, lines)?;
    }
    Ok(LiveSetup {
        server,
        dir,
        ingester,
        inputs,
        subscriber,
        initial,
    })
}

fn table_rows(client: &mut Client, relation: &str) -> Result<u64, String> {
    let Response::Tables(tables) = request(client, "\\tables")? else {
        return Err("\\tables did not answer with a table list".into());
    };
    tables
        .iter()
        .find(|t| t.name == relation)
        .map(|t| t.rows)
        .ok_or_else(|| format!("\\tables does not list {relation}"))
}

fn seal_both(client: &mut Client) -> Result<(), String> {
    for relation in ["X", "Y"] {
        let Response::Sealed(_) = request(client, &format!("\\live close {relation}"))? else {
            return Err(format!("\\live close {relation} did not seal"));
        };
    }
    Ok(())
}

/// Serve and drive a live workload.
pub fn serve_live(spec: &RunSpec) -> Result<(Served, LiveInputs), String> {
    let mut out = Served::default();
    let mut speed = Speed::new();
    let LiveSetup {
        server,
        dir,
        mut ingester,
        inputs,
        subscriber,
        initial,
    } = repeat_setup(spec, &mut speed, &mut out, |rep| setup_live(spec, rep))?;

    // The timed phase: one frame in flight at a time.
    let mut sends: Vec<Instant> = Vec::with_capacity(spec.ops);
    let mut acked: Vec<Instant> = Vec::with_capacity(spec.ops);
    let mut acked_frames = WARMUP_OPS;
    speed.begin();
    for (i, (relation, lines)) in inputs.frames[WARMUP_OPS..].iter().enumerate() {
        out.attempted += 1;
        let sent = Instant::now();
        sends.push(sent);
        let reply = ingest_op(&mut ingester, relation, lines);
        let latency = ms(sent, Instant::now());
        speed.between();
        match reply {
            Ok(report) => {
                acked.push(sent);
                out.latency_ms.push(latency);
                out.first_chunk_ms.push(latency);
                out.rows += report.offered;
                out.user_bytes += lines.len() as u64;
                out.promoted_rows += report.promoted;
                out.staged_peak = out.staged_peak.max(report.staged);
                acked_frames += 1;
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("op {i} ({relation}): {e}");
            }
        }
    }
    speed.end();
    out.note_speed(&speed, &acked);
    out.stats = stats(&mut ingester)?;
    out.peak_rss_mib = server.peak_rss_mib()?;
    if out.failed > 0 {
        // Which rows were acknowledged is no longer a simple prefix.
        return Ok((out, inputs));
    }

    match subscriber {
        None => {
            // Crash, recover, and account for every acknowledged row.
            drop(ingester);
            server.kill();
            let restarted = Instant::now();
            let server = Server::spawn(&spec.tdb, &dir, true)?;
            let mut client = Connections::for_this_machine().connect(server.addr())?;
            request(&mut client, "\\tables")?;
            out.recovery_ms = restarted.elapsed().as_secs_f64() * 1000.0;
            out.recovered = stats(&mut client)?;
            seal_both(&mut client)?;
            for relation in ["X", "Y"] {
                let (have, want) = (
                    table_rows(&mut client, relation)?,
                    LiveInputs::sent_to(relation, acked_frames) as u64,
                );
                if have != want {
                    out.violations.push(format!(
                        "{relation} holds {have} rows after the crash, {want} were acknowledged"
                    ));
                }
            }
            client.close();
            server.stop();
        }
        Some(subscriber) => {
            seal_both(&mut ingester)?;
            let Response::Live(status) = request(&mut ingester, "\\live")? else {
                return Err("\\live did not answer with live status".into());
            };
            let sub = status
                .subscriptions
                .first()
                .ok_or("the server lists no subscription")?;
            out.evaluations = sub.evaluations;
            let (arrivals, mut delivered) = subscriber.finish(sub.emitted - initial.rows)?;
            delivered.merge(initial);
            if delivered.rows != sub.emitted {
                out.violations.push(format!(
                    "subscriber received {} rows, the server emitted {}",
                    delivered.rows, sub.emitted
                ));
            }
            // The batch query over the sealed relations, and the harness's
            // own nested loop, must both equal what was pushed.
            request(&mut ingester, &format!("\\set limit {LIMIT_LIFTED}"))?;
            let batch = query_op(&mut ingester, &LiveInputs::standing_query())?;
            let batch_digest = Digest::of_chunks(&batch.rows);
            let sent = |side: &[TsTuple], relation: &str| {
                inputs::intervals(&side[..LiveInputs::sent_to(relation, acked_frames)])
            };
            let reference = check::reference_join(
                &sent(&inputs.pair.x, "X"),
                &sent(&inputs.pair.y, "Y"),
                check::contains,
                |i| inputs::arrival_id('x', i),
                |i| inputs::arrival_id('y', i),
            );
            if delivered != batch_digest {
                out.violations.push(format!(
                    "pushed deltas {delivered:?} differ from the batch query {batch_digest:?}"
                ));
            }
            if batch_digest != reference {
                out.violations.push(format!(
                    "batch query {batch_digest:?} differs from the reference {reference:?}"
                ));
            }
            // Every ingest runs one engine epoch and a delta carries the
            // epoch that made it, so with one ingester epoch `e` is the
            // `e`-th frame sent. (Arrival order would not do: a delta can
            // overtake, or trail, the ack of the request that caused it.)
            for arrival in &arrivals {
                let timed = (arrival.epoch as usize).checked_sub(WARMUP_OPS + 1);
                if let Some((op, &sent)) = timed.and_then(|i| Some((i, sends.get(i)?))) {
                    out.delta_lag_ms.push(ms(sent, arrival.at));
                    out.delta_slowdown.push(speed.slowdown_at(sent));
                    out.delta_op.push(op);
                }
            }
            ingester.close();
            server.stop();
        }
    }
    out.check_cap();
    Ok((out, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_engine::{ClientState, Engine};

    #[test]
    fn names_round_trip_and_counts_scale_with_seconds() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let full = w.ops(REFERENCE_SECONDS as u64, false);
            assert_eq!(full, w.reference_ops());
            assert_eq!(w.ops(2 * REFERENCE_SECONDS as u64, false), 2 * full);
            assert_eq!(w.ops(REFERENCE_SECONDS as u64, true), full / 10);
            assert!(w.ops(1, true) >= 4);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn live_frames_alternate_and_account_for_every_arrival() {
        let inputs = LiveInputs::generate(6, 3);
        assert_eq!(inputs.frames.len(), WARMUP_OPS + 6);
        let relations: Vec<&str> = inputs.frames.iter().map(|(r, _)| *r).collect();
        assert_eq!(&relations[..4], ["X", "Y", "X", "Y"]);
        assert!(inputs.frames[2].1.contains(" x200 200"));
        assert_eq!(LiveInputs::sent_to("X", 11), 6 * inputs::FRAME_LINES);
        assert_eq!(LiveInputs::sent_to("Y", 11), 5 * inputs::FRAME_LINES);
    }

    /// The harness's references and the engine must agree on every
    /// query kind, here on inputs small enough for a debug build.
    #[test]
    fn references_equal_the_engine_on_a_small_instance() {
        let dir = std::env::temp_dir().join(format!("tdb-benchmark-ref-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inputs = QueryInputs {
            pair: IntervalPair::generate(400, 5),
            faculty: inputs::faculty(80, 5),
        };
        inputs.store(&dir).unwrap();
        let mut engine = Engine::open(&dir).unwrap();
        let mut ctx = ClientState {
            row_limit: LIMIT_LIFTED,
            ..ClientState::default()
        };
        let kinds = query_kinds(Workload::AllenMix);
        let expect = expectations(Workload::AllenMix, &inputs);
        assert_eq!(kinds.len(), expect.len());
        for (kind, expect) in kinds.iter().zip(&expect) {
            let Response::Query(report) = engine.execute(&mut ctx, &kind.text) else {
                panic!("{} did not answer with rows", kind.name);
            };
            assert!(!report.rows.rows.is_empty(), "{} is empty", kind.name);
            assert!(
                expect.met_by(std::slice::from_ref(&report.rows.rows)),
                "{}: the engine's {} rows differ from the reference",
                kind.name,
                report.rows.rows.len()
            );
            // One row short must not pass.
            let short = report.rows.rows[1..].to_vec();
            assert!(
                !expect.met_by(&[short]),
                "{} accepts a short result",
                kind.name
            );
        }

        ctx.row_limit = FIRST_ROWS_LIMIT;
        let first = &expectations(Workload::FirstRows, &inputs)[0];
        let Response::Query(report) = engine.execute(&mut ctx, &kinds[0].text) else {
            panic!("limited query did not answer with rows");
        };
        assert!(first.met_by(&[report.rows.rows]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_ups_repeat_until_the_median_has_three_samples() {
        let spec = |single_setup| RunSpec {
            workload: Workload::AllenMix,
            seed: 0,
            ops: 0,
            trace_ops: 0,
            single_setup,
            tdb: PathBuf::new(),
            scratch: PathBuf::new(),
        };
        let mut speed = Speed::new();
        let mut out = Served::default();
        let last = repeat_setup(&spec(true), &mut speed, &mut out, Ok);
        assert_eq!((last, out.setup_s.len()), (Ok(0), 1));

        // Instant set-ups never use up the time budget: the cap ends them.
        let mut out = Served::default();
        let last = repeat_setup(&spec(false), &mut speed, &mut out, Ok);
        assert_eq!(last, Ok(MAX_SETUPS - 1));
        assert_eq!(out.setup_s.len(), MAX_SETUPS);
        // Every set-up has the machine's speed beside it.
        assert_eq!(out.setup_slowdown.len(), MAX_SETUPS);
        assert!(out.setup_slowdown.iter().all(|&s| s > 0.0));
    }
}
