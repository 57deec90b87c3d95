//! Sink-vs-materialized equivalence and chunked wire streaming.
//!
//! Three layers of guarantees around the push-based [`RowSink`] contract:
//!
//! 1. **Plan-level equivalence (proptest)** — for arbitrary generated
//!    two-variable temporal queries, executing through an external
//!    [`CollectSink`] must produce exactly the rows, counters, and
//!    workspace peaks of the materialized path, across batch sizes
//!    {1, 64, 1024} × parallelism {1, 4}; the count-only path
//!    ([`CountSink`], `wants_rows() == false`) must agree on
//!    cardinality; a [`LimitSink`] must retain exactly the prefix
//!    while stopping the producer early; and the [`WireSink`] — join
//!    matches encoded into reply frames straight from their source
//!    rows, other rows as they are pushed — must decode to the same
//!    rows in the same order with the same `SinkStats` and
//!    per-operator reports, whatever shape the matches take: a
//!    residual-predicate join, a self-join with no projection above it.
//!
//! 2. **Engine-level wire sink** — through `Engine::execute_into` a
//!    large join leaves as header, chunks cut at the 4 MiB `row_bytes`
//!    budget (`last` only on the final one) and trailer, the first
//!    chunk before the engine has returned; `\set limit` stops the
//!    producer however the rows leave, and where it cuts a batch of
//!    matches part-way the delivered rows, `sink_rows` and
//!    `sink_bytes` are those of the collected result's prefix.
//!
//! 3. **Wire streaming (integration)** — a result set larger than the
//!    64 MiB frame cap must cross `tdb-net` as a `QueryStream` header
//!    plus bounded `ReplyChunk` frames and reassemble losslessly. The
//!    same mechanism must be transparent to `Client::request`.

use proptest::prelude::*;
use tdb::prelude::*;
use tdb_engine::{ClientState, Engine, QueryReport, QueryTrailer, Response};
use tdb_net::wire::{Frame, FrameReader, ReadOutcome};
use tdb_net::{serve, Client, NetConfig, StreamEvent, WireSink, CHUNK_BYTES};

const ATTRS: [&str; 4] = ["Name", "Rank", "ValidFrom", "ValidTo"];

fn shared_catalog() -> &'static Catalog {
    use std::sync::OnceLock;
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let faculty = FacultyGen {
            n_faculty: 60,
            seed: 1234,
            continuous_employment: false,
            ..FacultyGen::default()
        }
        .generate();
        let dir = std::env::temp_dir().join(format!("tdb-sink-eq-{}", std::process::id()));
        tdb::faculty_catalog(dir, &faculty).unwrap()
    })
}

/// Atoms for each Allen operator, as the Quel front end desugars them.
fn temporal_atoms(which: u8) -> Vec<Atom> {
    use tdb::quel::ast::TemporalOp;
    use tdb::quel::translate::desugar_temporal;
    let op = match which % 10 {
        0 => TemporalOp::Overlap,
        1 => TemporalOp::Overlaps,
        2 => TemporalOp::During,
        3 => TemporalOp::Contains,
        4 => TemporalOp::Before,
        5 => TemporalOp::After,
        6 => TemporalOp::Meets,
        7 => TemporalOp::Starts,
        8 => TemporalOp::Finishes,
        _ => TemporalOp::Equal,
    };
    desugar_temporal("a", op, "b")
}

fn build_query(temporal: u8, name_eq: bool) -> LogicalPlan {
    let mut atoms = temporal_atoms(temporal);
    if name_eq {
        atoms.push(Atom::cols("a", "Name", CompOp::Eq, "b", "Name"));
    }
    LogicalPlan::scan("Faculty", "a", &ATTRS)
        .product(LogicalPlan::scan("Faculty", "b", &ATTRS))
        .select(atoms)
        .project(vec![
            (ColumnRef::new("a", "Name"), "A".into()),
            (ColumnRef::new("a", "ValidFrom"), "AF".into()),
            (ColumnRef::new("b", "Name"), "B".into()),
            (ColumnRef::new("b", "ValidFrom"), "BF".into()),
        ])
}

fn plan_for(logical: &LogicalPlan, batch_rows: usize, parallelism: usize) -> PhysicalPlan {
    let config = PlannerConfig {
        batch_rows,
        parallelism,
        ..PlannerConfig::stream()
    };
    let optimized = conventional_optimize(logical.clone());
    plan(&optimized, config).unwrap()
}

const BATCHES: [usize; 3] = [1, 64, 1024];
const PARALLELISM: [usize; 2] = [1, 4];

/// Decode the frames a [`WireSink`] emitted, through the reader a client
/// uses.
fn decode_frames(wire: &[bytes::BytesMut]) -> Vec<Frame> {
    let bytes: Vec<u8> = wire.iter().flat_map(|f| f.iter().copied()).collect();
    let mut reader = FrameReader::new();
    let mut src = &bytes[..];
    let mut frames = Vec::new();
    while let ReadOutcome::Frame(frame) = reader.read(&mut src).unwrap() {
        frames.push(frame);
    }
    frames
}

/// The rows a reply carries, whichever shape it took: one `Reply`, or
/// header + chunks + trailer. Checks the stream's own invariants on the
/// way (consecutive `seq`, `last` on the final chunk only, no empty
/// chunk, trailer last) and returns the rows per chunk.
fn reply_chunks(frames: &[Frame]) -> Vec<Vec<Row>> {
    match frames {
        [Frame::Reply { response, .. }] => match &**response {
            Response::Query(q) => vec![q.rows.rows.clone()],
            other => panic!("expected a query reply, got {other:?}"),
        },
        [Frame::Reply { response, .. }, chunks @ .., Frame::ReplyEnd { trailer, .. }] => {
            assert!(
                matches!(&**response, Response::QueryStream(q) if q.rows.rows.is_empty()),
                "a stream starts with its header"
            );
            assert!(trailer.error.is_none());
            assert!(!chunks.is_empty(), "a stream has at least one chunk");
            chunks
                .iter()
                .enumerate()
                .map(|(i, frame)| match frame {
                    Frame::ReplyChunk {
                        seq, last, rows, ..
                    } => {
                        assert_eq!(*seq as usize, i, "chunks are numbered in order");
                        assert_eq!(
                            *last,
                            i + 1 == chunks.len(),
                            "`last` marks the final chunk only"
                        );
                        assert!(!rows.is_empty(), "no chunk is empty");
                        rows.clone()
                    }
                    other => panic!("expected a chunk, got {other:?}"),
                })
                .collect()
        }
        other => panic!("not a reply: {other:?}"),
    }
}

/// Where the server's framing cuts `rows`: a chunk is full once its
/// `row_bytes` reach the budget.
fn reference_cut(rows: &[Row]) -> Vec<Vec<Row>> {
    let mut chunks = vec![Vec::new()];
    let mut budget = 0u64;
    for row in rows {
        if budget >= CHUNK_BYTES {
            chunks.push(Vec::new());
            budget = 0;
        }
        budget += tdb::stream::row_bytes(row);
        chunks.last_mut().unwrap().push(row.clone());
    }
    chunks
}

/// Per-operator observations without their wall-clock component.
fn untimed(trace: &[OpObservation]) -> Vec<OpObservation> {
    trace
        .iter()
        .cloned()
        .map(|mut o| {
            o.elapsed_us = 0;
            o
        })
        .collect()
}

/// Run `physical` into a plan-level [`WireSink`] and into a
/// [`CollectSink`]; the decoded reply, the sink statistics and the
/// executor's counters and per-operator reports must be the same.
fn assert_wire_matches_collect(physical: &PhysicalPlan, batch_rows: usize, label: &str) {
    let cat = shared_catalog();
    let opts = || ExecOptions::new().with_batch_rows(batch_rows);
    let mut collect = CollectSink::new();
    let want = physical
        .execute(cat, opts().with_sink(&mut collect))
        .unwrap();

    let mut wire = Vec::new();
    let mut sink = WireSink::new(|_, frame| wire.push(frame));
    let got = physical.execute(cat, opts().with_sink(&mut sink)).unwrap();
    assert_eq!(
        sink.finish(),
        collect.finish(),
        "SinkStats differ ({label})"
    );
    sink.complete(Response::Query(QueryReport::default()));

    let rows: Vec<Row> = reply_chunks(&decode_frames(&wire)).concat();
    assert_eq!(rows, collect.rows(), "rows or their order differ ({label})");
    assert_eq!(got.stats, want.stats, "executor counters differ ({label})");
    assert_eq!(
        untimed(&got.trace),
        untimed(&want.trace),
        "operator reports differ ({label})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The external-sink path is byte-identical to the materialized
    /// path: same rows in the same order, same comparison counts, same
    /// workspace peaks; the count-only path agrees on cardinality.
    #[test]
    fn sink_matches_materialized_across_batch_and_parallelism(
        temporal in 0u8..10,
        name_eq in any::<bool>(),
    ) {
        let q = build_query(temporal, name_eq);
        let cat = shared_catalog();
        for batch_rows in BATCHES {
            for parallelism in PARALLELISM {
                let physical = plan_for(&q, batch_rows, parallelism);
                let label = format!("batch={batch_rows} k={parallelism}");

                let mat = physical.execute(cat, ExecOptions::default()).unwrap();

                let mut collect = CollectSink::new();
                let out = physical
                    .execute(cat, ExecOptions::new().with_sink(&mut collect))
                    .unwrap();
                let stats = collect.finish();
                prop_assert!(out.rows.is_empty(), "external sink owns the rows ({label})");
                prop_assert_eq!(
                    collect.rows(), &mat.rows[..],
                    "sink rows differ from materialized ({})", &label
                );
                prop_assert_eq!(
                    stats.rows as usize, mat.rows.len(),
                    "SinkStats.rows miscounts ({})", &label
                );
                prop_assert_eq!(
                    stats.bytes,
                    mat.rows.iter().map(tdb::stream::row_bytes).sum::<u64>(),
                    "SinkStats.bytes miscounts ({})", &label
                );
                prop_assert!(!stats.truncated, "CollectSink never truncates ({label})");
                prop_assert_eq!(
                    out.stats.output_rows, mat.stats.output_rows,
                    "offered-row counters diverge ({})", &label
                );
                prop_assert_eq!(
                    out.stats.comparisons, mat.stats.comparisons,
                    "comparison counters diverge ({})", &label
                );
                prop_assert_eq!(
                    out.stats.max_workspace, mat.stats.max_workspace,
                    "workspace peaks diverge ({})", &label
                );

                let mut count = CountSink::new();
                physical
                    .execute(cat, ExecOptions::new().with_sink(&mut count))
                    .unwrap();
                prop_assert_eq!(
                    count.count() as usize, mat.rows.len(),
                    "count-only path disagrees on cardinality ({})", &label
                );

                assert_wire_matches_collect(&physical, batch_rows, &label);
            }
        }
    }
}

/// The wire sink ≡ `CollectSink` on a stream join that keeps a residual
/// predicate (the one case where the joined row is concatenated before
/// it is projected), serial and time-partitioned, at every batch size.
#[test]
fn wire_sink_matches_collect_on_a_residual_join() {
    let scan = |var: &str| PhysicalPlan::SeqScan {
        relation: "Faculty".into(),
        var: var.into(),
    };
    let join = PhysicalPlan::StreamTemporal {
        left: Box::new(scan("a")),
        right: Box::new(scan("b")),
        left_var: "a".into(),
        right_var: "b".into(),
        pattern: TemporalPattern::GeneralOverlap,
        residual: vec![Atom::cols("a", "Rank", CompOp::Ne, "b", "Rank")],
    };
    let project = |input: PhysicalPlan| PhysicalPlan::Project {
        input: Box::new(input),
        columns: vec![
            (ColumnRef::new("b", "Name"), "B".into()),
            (ColumnRef::new("a", "Rank"), "AR".into()),
            (ColumnRef::new("b", "Rank"), "BR".into()),
        ],
    };
    let serial = project(join.clone());
    let parallel = project(PhysicalPlan::Parallel {
        partitions: 4,
        child: Box::new(join.clone()),
    });
    let out = serial
        .execute(shared_catalog(), ExecOptions::default())
        .unwrap();
    assert!(
        out.rows.len() > 100,
        "population too small: {}",
        out.rows.len()
    );
    assert!(out.rows.iter().all(|r| r.get(1) != r.get(2)));
    for batch_rows in BATCHES {
        for (k, plan) in [(1, &serial), (4, &parallel), (1, &join)] {
            assert_wire_matches_collect(plan, batch_rows, &format!("batch={batch_rows} k={k}"));
        }
    }
}

/// The wire sink ≡ `CollectSink` on a self-join with no projection above
/// it: each Faculty string is reachable under a left and a right
/// ordinal, and every column of both sides goes out — serial and
/// time-partitioned, at every batch size.
#[test]
fn wire_sink_matches_collect_on_an_unprojected_self_join() {
    let scan = |var: &str| PhysicalPlan::SeqScan {
        relation: "Faculty".into(),
        var: var.into(),
    };
    let join = PhysicalPlan::StreamTemporal {
        left: Box::new(scan("a")),
        right: Box::new(scan("b")),
        left_var: "a".into(),
        right_var: "b".into(),
        pattern: TemporalPattern::GeneralOverlap,
        residual: vec![],
    };
    let parallel = PhysicalPlan::Parallel {
        partitions: 4,
        child: Box::new(join.clone()),
    };
    let out = join
        .execute(shared_catalog(), ExecOptions::default())
        .unwrap();
    assert!(out.rows.len() > 100 && out.rows[0].arity() == 2 * ATTRS.len());
    for batch_rows in BATCHES {
        for (k, plan) in [(1, &join), (4, &parallel)] {
            assert_wire_matches_collect(plan, batch_rows, &format!("batch={batch_rows} k={k}"));
        }
    }
}

/// A limiting sink retains exactly the first `limit` rows of the
/// materialized order and stops the producer before the full result is
/// offered (for results meaningfully larger than the limit).
#[test]
fn limit_sink_retains_prefix_and_stops_early() {
    let q = build_query(0, false); // Overlap self-join: thousands of rows.
    let cat = shared_catalog();
    for batch_rows in BATCHES {
        let physical = plan_for(&q, batch_rows, 1);
        let full = physical.execute(cat, ExecOptions::default()).unwrap();
        // > 1024 so even the largest batch size must stop before the
        // full result has been offered.
        assert!(
            full.rows.len() > 1024,
            "population too small to exercise the limit: {}",
            full.rows.len()
        );

        let limit = 5;
        let mut sink = LimitSink::new(limit);
        let out = physical
            .execute(cat, ExecOptions::new().with_sink(&mut sink))
            .unwrap();
        let stats = sink.finish();
        assert!(sink.full(), "limit sink should fill (batch={batch_rows})");
        assert_eq!(
            sink.into_rows(),
            full.rows[..limit].to_vec(),
            "retained rows are not the materialized prefix (batch={batch_rows})"
        );
        assert!(
            stats.rows >= limit as u64,
            "offered count below the limit (batch={batch_rows})"
        );
        assert!(
            out.stats.output_rows < full.rows.len(),
            "producer did not stop early: offered {} of {} (batch={batch_rows})",
            out.stats.output_rows,
            full.rows.len()
        );
    }
}

/// A Contain-join of two 40 000-row relations: ≈ 306 k rows of two ids,
/// over 7 MB of `row_bytes`.
const LARGE_JOIN: &str = "range of a is X range of b is Y retrieve (P=a.Id, Q=b.Id) \
     where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";

/// An engine over a fresh catalog holding [`LARGE_JOIN`]'s relations.
fn large_join_engine(tag: &str) -> (Engine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tdb-sink-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = Engine::open(&dir).unwrap();
    for gen in [
        "\\gen intervals X 40000 5 60 1",
        "\\gen intervals Y 40000 5 10 2",
    ] {
        let reply = engine.execute(&mut ClientState::default(), gen);
        assert!(matches!(reply, Response::Info(_)), "{reply:?}");
    }
    (engine, dir)
}

/// Through `Engine::execute_into` a large join leaves as header, chunks
/// and trailer — the chunks cut exactly where the 4 MiB `row_bytes`
/// budget says, the first of them before the engine has returned — and
/// carries the rows, totals, stats and trace `Engine::execute` collects.
/// Under `\set limit` the producer stops early whichever sink is below.
#[test]
fn engine_streams_a_large_join_through_the_wire_sink() {
    let (mut engine, dir) = large_join_engine("engine");
    let mut ctx = ClientState {
        row_limit: usize::MAX,
        trace: true,
        ..ClientState::default()
    };
    let Response::Query(want) = engine.execute(&mut ctx, LARGE_JOIN) else {
        panic!("collecting run failed");
    };
    let bytes: u64 = want.rows.rows.iter().map(tdb::stream::row_bytes).sum();
    assert!(
        bytes > 2 * CHUNK_BYTES,
        "result too small to cut twice: {bytes}"
    );

    // Each frame is tagged with whether the engine call had returned
    // when the sink emitted it.
    let returned = std::cell::Cell::new(false);
    let mut wire = Vec::new();
    let mut sink = WireSink::new(|_, frame| wire.push((returned.get(), frame)));
    let resp = engine.execute_into(&mut ctx, LARGE_JOIN, &mut sink);
    returned.set(true);
    let Response::Query(report) = resp.clone() else {
        panic!("streamed run failed: {resp:?}");
    };
    sink.complete(resp);

    assert!(report.rows.rows.is_empty(), "the rows went to the sink");
    assert_eq!(report.rows.total, want.rows.total);
    assert_eq!(report.stats, want.stats);
    let (during, frames): (Vec<bool>, Vec<_>) = wire.into_iter().map(|(r, f)| (!r, f)).unzip();
    let frames = decode_frames(&frames);
    let chunks = reply_chunks(&frames);
    assert_eq!(chunks, reference_cut(&want.rows.rows), "chunk cuts");
    assert!(chunks.len() >= 3);
    // Header and every chunk but the final one left while the plan was
    // still running; the final chunk (nothing proved it final until the
    // plan ended) and the trailer after.
    let n = frames.len();
    assert!(during[..n - 2].iter().all(|d| *d), "{during:?}");
    assert!(!during[n - 2] && !during[n - 1], "{during:?}");
    let Frame::Reply { query_id, response } = &frames[0] else {
        unreachable!("checked by reply_chunks");
    };
    let Response::QueryStream(header) = &**response else {
        unreachable!("checked by reply_chunks");
    };
    assert_eq!(*query_id, report.query_id);
    assert_eq!(header.rows.columns, want.rows.columns);
    assert_eq!((header.rows.total, header.elapsed_us), (0, 0), "left early");
    assert_eq!(
        frames[n - 1],
        Frame::ReplyEnd {
            query_id: report.query_id,
            trailer: Box::new(QueryTrailer::of(report.clone())),
        }
    );

    // The trace keeps its meaning: delivered rows and offered bytes at
    // the sink, one render span per chunk encoded inside it.
    let trace = report.trace.expect("trace on");
    assert_eq!(trace.sink_rows, want.rows.total);
    assert_eq!(trace.sink_bytes, bytes);
    let stage_count =
        |stage: tdb_engine::Stage| trace.stages.iter().filter(|s| s.stage == stage).count();
    assert_eq!(stage_count(tdb_engine::Stage::Render), chunks.len());
    assert_eq!(stage_count(tdb_engine::Stage::Sink), 1);
    assert_eq!(want.trace.expect("trace on").sink_bytes, bytes);

    // `\set limit`: five rows delivered in one plain reply, and the
    // producer stopped long before offering the whole result.
    ctx.row_limit = 5;
    let mut wire = Vec::new();
    let mut sink = WireSink::new(|_, frame| wire.push(frame));
    let resp = engine.execute_into(&mut ctx, LARGE_JOIN, &mut sink);
    let Response::Query(limited) = resp.clone() else {
        panic!("limited run failed: {resp:?}");
    };
    sink.complete(resp);
    assert_eq!(
        reply_chunks(&decode_frames(&wire)),
        vec![want.rows.rows[..5].to_vec()]
    );
    assert!(
        limited.rows.total >= 5 && limited.rows.total < want.rows.total / 10,
        "producer offered {} of {}",
        limited.rows.total,
        want.rows.total
    );
    assert_eq!(limited.trace.expect("trace on").sink_rows, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `\set limit` cuts a batch of join matches part-way, whether they are
/// built into rows (`Engine::execute`) or encoded from their source rows
/// (`WireSink`): both deliver the unlimited result's prefix — the wire's
/// chunks cut where the reference framing cuts it — offer the same rows,
/// and count as `sink_bytes` the `row_bytes` of the offered prefix;
/// across batch sizes {1, 64, 1024} × parallelism {1, 4}.
#[test]
fn limit_cuts_a_batch_of_matches_part_way() {
    // More than one chunk's worth of rows, and not a batch boundary.
    const LIMIT: usize = 200_001;
    let (mut engine, dir) = large_join_engine("limit");
    let mut cut_part_way = 0;
    for parallelism in PARALLELISM {
        let mut ctx = ClientState {
            row_limit: usize::MAX,
            trace: true,
            ..ClientState::default()
        };
        ctx.config.parallelism = parallelism;
        let Response::Query(full) = engine.execute(&mut ctx, LARGE_JOIN) else {
            panic!("unlimited run failed");
        };
        let prefix = &full.rows.rows[..LIMIT];
        ctx.row_limit = LIMIT;
        for batch_rows in BATCHES {
            let label = format!("batch={batch_rows} k={parallelism}");
            ctx.config.batch_rows = batch_rows;
            let Response::Query(collected) = engine.execute(&mut ctx, LARGE_JOIN) else {
                panic!("collecting run failed ({label})");
            };
            let mut wire = Vec::new();
            let mut sink = WireSink::new(|_, frame| wire.push(frame));
            let resp = engine.execute_into(&mut ctx, LARGE_JOIN, &mut sink);
            let Response::Query(streamed) = resp.clone() else {
                panic!("streamed run failed ({label}): {resp:?}");
            };
            sink.complete(resp);

            assert_eq!(collected.rows.rows, prefix, "{label}");
            let chunks = reply_chunks(&decode_frames(&wire));
            assert!(chunks.len() >= 2, "{label}");
            assert_eq!(chunks, reference_cut(prefix), "{label}");

            let offered = collected.rows.total;
            assert_eq!(streamed.rows.total, offered, "{label}");
            assert!(
                offered >= LIMIT as u64 && offered < full.rows.total,
                "{label}"
            );
            cut_part_way += usize::from(offered > LIMIT as u64);
            let bytes: u64 = full.rows.rows[..offered as usize]
                .iter()
                .map(tdb::stream::row_bytes)
                .sum();
            for trace in [collected.trace, streamed.trace] {
                let trace = trace.expect("trace on");
                assert_eq!(trace.sink_rows, LIMIT as u64, "{label}");
                assert_eq!(trace.sink_bytes, bytes, "{label}");
            }
        }
    }
    assert!(cut_part_way > 0, "no run stopped inside a batch");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One ingest line per row: `ts te id seq`, with an id long enough to
/// inflate the result past the wire's frame cap.
fn long_id_lines(start: usize, n: usize, id_len: usize) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(n * (id_len + 24));
    for i in start..start + n {
        let id = format!("{i:08}{}", "x".repeat(id_len - 8));
        writeln!(out, "{} {} {id} {i}", i as i64, i as i64 + 10).unwrap();
    }
    out
}

/// A > 64 MiB result set crosses the wire as a `QueryStream` header
/// plus many bounded `ReplyChunk` frames — impossible as a single
/// reply, which the 64 MiB frame cap would reject — and the streamed
/// chunks reassemble to exactly the rows the engine retained. A
/// smaller-but-still-chunked result reassembles transparently through
/// `Client::request`.
#[test]
fn oversized_result_streams_in_bounded_chunks() {
    const ID_LEN: usize = 4096;
    const ROWS: usize = 20_000;
    const FRAME_CAP: u64 = 64 << 20;

    let root = std::env::temp_dir().join(format!("tdb-sink-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Ingest in four frames, each well under the cap; then seal so the
    // whole relation is query-visible.
    for batch in 0..4 {
        let text = long_id_lines(batch * (ROWS / 4), ROWS / 4, ID_LEN);
        match client.ingest("Big", &text).unwrap() {
            Response::Ingest(_) => {}
            other => panic!("expected ingest report, got {other:?}"),
        }
    }
    match client.request("\\live close Big").unwrap() {
        Response::Sealed(_) => {}
        other => panic!("expected seal report, got {other:?}"),
    }

    // A result past the 4 MiB chunk threshold but below the row limit
    // round-trips transparently through `request` (reassembly).
    client.request("\\set limit 2500").unwrap();
    let reply = client
        .request("range of t is Big retrieve (X=t.Id);")
        .unwrap();
    let Response::Query(q) = reply else {
        panic!("expected reassembled query report");
    };
    assert_eq!(q.rows.rows.len(), 2500, "reassembled row count");
    assert!(
        q.rows.rows.iter().map(tdb::stream::row_bytes).sum::<u64>() > 4 << 20,
        "reassembly test result should exceed one chunk"
    );

    // The full result is bigger than any legal frame; stream it.
    client.request("\\set limit 100000").unwrap();
    let mut chunk_frames = 0u64;
    let mut streamed: Vec<Row> = Vec::new();
    let mut header_rows = usize::MAX;
    let outcome = client
        .request_with("range of t is Big retrieve (X=t.Id);", |ev| match ev {
            StreamEvent::Header(q) => header_rows = q.rows.rows.len(),
            StreamEvent::Rows(rows) => {
                chunk_frames += 1;
                streamed.extend(rows);
            }
        })
        .unwrap();
    match outcome {
        Response::QueryStream(q) => assert_eq!(q.rows.total, ROWS as u64, "offered total"),
        other => panic!("expected stream header outcome, got {other:?}"),
    }
    assert_eq!(header_rows, 0, "stream header must carry no rows");
    assert_eq!(streamed.len(), ROWS, "every retained row arrives");
    let bytes: u64 = streamed.iter().map(tdb::stream::row_bytes).sum();
    assert!(
        bytes > FRAME_CAP,
        "result too small to prove chunking: {bytes} bytes"
    );
    assert!(
        chunk_frames > 2,
        "a {bytes}-byte result should span many chunk frames, got {chunk_frames}"
    );
    // Rows come back in scan order with their ingested ids intact.
    for (i, row) in streamed.iter().enumerate() {
        let Some(tdb::core::Value::Str(id)) = row.values().first() else {
            panic!("row {i} has no id column");
        };
        assert!(
            id.starts_with(&format!("{i:08}")),
            "row {i} out of order or corrupted: id prefix {}",
            &id[..8.min(id.len())]
        );
    }

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
