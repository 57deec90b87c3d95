//! Chunked wire streaming through the engine and the server.
//!
//! The plan-level sink contract — collect, count, limit and wire sinks
//! giving one answer at every batch size — is checked
//! against the nested-loop oracle by `tests/oracle.rs`. Here:
//!
//! 1. **Engine-level wire sink** — through `Engine::execute_into` a
//!    large join leaves as header, chunks cut at the 4 MiB `row_bytes`
//!    budget (`last` only on the final one) and trailer, the first
//!    chunk before the engine has returned; `\set limit` stops the
//!    producer however the rows leave, and where it cuts a batch of
//!    matches part-way the delivered rows, `sink_rows` and
//!    `sink_bytes` are those of the collected result's prefix.
//!
//! 2. **Wire streaming (integration)** — a result set larger than the
//!    64 MiB frame cap must cross `tdb-net` as a `QueryStream` header
//!    plus bounded `ReplyChunk` frames and reassemble losslessly. The
//!    same mechanism must be transparent to `Client::request`.

#[path = "support/wire.rs"]
mod wire;

use tdb::prelude::*;
use tdb::stream::RowSink;
use tdb_engine::{ClientState, Engine, QueryReport, QueryTrailer, ReplySink, Response, RowSet};
use tdb_net::sink::FRAGMENT_BYTES;
use tdb_net::wire::Frame;
use tdb_net::{serve, Client, NetConfig, StreamEvent, WireSink, CHUNK_BYTES};
use wire::{decode_frames, fold_fragments, reply_chunks};

const BATCHES: [usize; 3] = [1, 64, 1024];

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
    // Every fragment, the header and every chunk but the final one left
    // while the plan was still running; the final chunk (nothing proved
    // it final until the plan ended) and the trailer after.
    let n = frames.len();
    assert!(during[..n - 2].iter().all(|d| *d), "{during:?}");
    assert!(!during[n - 2] && !during[n - 1], "{during:?}");
    let ahead = frames
        .iter()
        .filter(|f| matches!(f, Frame::ReplyRows { .. }))
        .count();
    assert!(ahead > 50, "rows went ahead in fragments: {ahead}");
    let frames = fold_fragments(&frames);
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
        frames[frames.len() - 1],
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

/// The header a `WireSink` is begun with: query `query_id`, one column.
fn header(query_id: u64) -> QueryReport {
    QueryReport {
        query_id,
        rows: RowSet {
            columns: vec!["P".into()],
            ..RowSet::default()
        },
        ..QueryReport::default()
    }
}

/// Row `i` of 1 036 `row_bytes`, its string its own (so it is encoded
/// inline, in about as many bytes).
fn kib_row(i: i64) -> Row {
    Row::new(vec![
        Value::str(format!("{i:08}{}", "x".repeat(1008))),
        Value::Int(i),
    ])
}

/// A streamed result sent ahead in fragments: no fragment carries rows
/// of two chunks, fragments and chunk frames carry the pushed rows in
/// order, and the chunks — `seq`, `last`, rows — are the budget's
/// cut, with the header leaving just before the first chunk frame.
#[test]
fn fragments_fold_into_the_chunks_the_budget_cuts() {
    let rows: Vec<Row> = (0..10_000).map(kib_row).collect();
    let cut = reference_cut(&rows);
    assert_eq!(cut.len(), 3);
    let mut wire = Vec::new();
    let mut sink = WireSink::new(|id, f| wire.push((id, f)));
    sink.begin(header(8));
    for batch in rows.chunks(7) {
        sink.push(&mut batch.to_vec()).unwrap();
    }
    let mut done = header(8);
    done.rows.total = rows.len() as u64;
    sink.complete(Response::Query(done.clone()));
    assert!(wire.iter().all(|(id, _)| *id == 8));
    let wire: Vec<bytes::BytesMut> = wire.into_iter().map(|(_, f)| f).collect();
    let frames = decode_frames(&wire);

    // Which chunk of the cut row `i` is in.
    let chunk_of = |row: &Row| {
        let Value::Int(i) = row.values()[1] else {
            unreachable!()
        };
        cut.iter()
            .scan(0, |end, c| {
                *end += c.len();
                Some(*end)
            })
            .position(|end| (i as usize) < end)
            .unwrap()
    };
    let mut seen: Vec<Row> = Vec::new();
    let mut fragments = 0;
    let mut header_at = None;
    for (at, (frame, bytes)) in frames.iter().zip(&wire).enumerate() {
        match frame {
            Frame::ReplyRows { query_id: 8, rows } => {
                fragments += 1;
                assert!(bytes.len() >= FRAGMENT_BYTES, "a fragment is full");
                let chunk = chunk_of(&rows[0]);
                assert!(
                    rows.iter().all(|r| chunk_of(r) == chunk),
                    "fragment {at} spans two chunks"
                );
                seen.extend(rows.iter().cloned());
            }
            Frame::ReplyChunk { rows, .. } => seen.extend(rows.iter().cloned()),
            Frame::Reply { response, .. } => {
                assert!(matches!(**response, Response::QueryStream(_)));
                header_at = Some(at);
            }
            Frame::ReplyEnd { .. } => assert_eq!(at + 1, frames.len()),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(seen, rows, "fragments and chunks carry the rows in order");
    assert!(fragments >= 10_000 * 1036 / FRAGMENT_BYTES - 3);
    let header_at = header_at.expect("a header");
    assert!(matches!(
        frames[header_at + 1],
        Frame::ReplyChunk { seq: 0, .. }
    ));
    assert!(frames[..header_at]
        .iter()
        .all(|f| matches!(f, Frame::ReplyRows { .. })));

    let chunk = |seq: u32, rows: Vec<Row>| Frame::ReplyChunk {
        query_id: 8,
        seq,
        last: seq == 2,
        rows,
    };
    let mut want = vec![Frame::Reply {
        query_id: 8,
        response: Box::new(Response::QueryStream(header(8))),
    }];
    want.extend(cut.into_iter().zip(0..).map(|(rows, seq)| chunk(seq, rows)));
    want.push(Frame::ReplyEnd {
        query_id: 8,
        trailer: Box::new(QueryTrailer::of(done)),
    });
    assert_eq!(fold_fragments(&frames), want);
}

/// `\set limit` cuts a batch of join matches part-way, whether they are
/// built into rows (`Engine::execute`) or encoded from their source rows
/// (`WireSink`): both deliver the unlimited result's prefix — the wire's
/// chunks cut where the reference framing cuts it — offer the same rows,
/// and count as `sink_bytes` the `row_bytes` of the offered prefix;
/// across batch sizes {1, 64, 1024}.
#[test]
fn limit_cuts_a_batch_of_matches_part_way() {
    // More than one chunk's worth of rows, and not a batch boundary.
    const LIMIT: usize = 200_001;
    let (mut engine, dir) = large_join_engine("limit");
    let mut cut_part_way = 0;
    let mut ctx = ClientState {
        row_limit: usize::MAX,
        trace: true,
        ..ClientState::default()
    };
    let Response::Query(full) = engine.execute(&mut ctx, LARGE_JOIN) else {
        panic!("unlimited run failed");
    };
    let prefix = &full.rows.rows[..LIMIT];
    ctx.row_limit = LIMIT;
    for batch_rows in BATCHES {
        let label = format!("batch={batch_rows}");
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
