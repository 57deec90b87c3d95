//! The traced run: the same generated inputs pushed, in this process,
//! through the public functions each layer exposes, with a span around
//! every call.
//!
//! The set of functions is deliberately narrow, the ones the ROADMAP
//! refactors keep: `compile`, `conventional_optimize`, `plan_verified`,
//! `Catalog::scan`, `Catalog::append_rows`, `PhysicalPlan::execute` with
//! the three sinks, `Engine::execute`, `Engine::ingest_rows`,
//! `parse_arrivals`, `Codec` on `Response`, `Frame::encode` /
//! `decode_payload`, and `WalLog::append` + `commit`. Costs of layers
//! that have no entry point of their own (sort, kernel, emit, the
//! standing query) are differences between two such calls.

use crate::stats::{decile_growth, median};
use crate::trace::Tracer;
use crate::workload::{query_kinds, row_limit, LiveInputs, RunSpec, Served, Workload, WARMUP_OPS};
use bytes::BytesMut;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use tdb::prelude::*;
use tdb::storage::Codec as _;
use tdb::wal::WalLog;
use tdb_engine::{parse_arrivals, ClientState, Engine, Response};
use tdb_net::wire::Frame;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Soft byte budget of one `ReplyChunk`, as in `tdb_net::server`.
const CHUNK_BYTES: u64 = 4 << 20;

fn err(e: TdbError) -> String {
    e.to_string()
}

/// The frames the server writes for `reply`: one `Reply`, or for a
/// result over [`CHUNK_BYTES`] a `QueryStream` header and `ReplyChunk`s
/// cut by the same byte budget. A copy of the private
/// `tdb_net::server::enqueue_reply`, kept honest by an output check: the
/// chunk count it yields must equal what the served client received.
fn reply_frames(reply: Response) -> Vec<Frame> {
    let query_id = match &reply {
        Response::Query(q) | Response::QueryStream(q) => q.query_id,
        _ => 0,
    };
    let single = |response: Response| Frame::Reply {
        query_id,
        response: Box::new(response),
    };
    let mut report = match reply {
        Response::Query(q)
            if q.rows.rows.iter().map(tdb::stream::row_bytes).sum::<u64>() > CHUNK_BYTES =>
        {
            q
        }
        other => return vec![single(other)],
    };
    let rows = std::mem::take(&mut report.rows.rows);
    let mut frames = vec![single(Response::QueryStream(report))];
    let mut chunk: Vec<Row> = Vec::new();
    let mut budget = 0u64;
    let mut it = rows.into_iter().peekable();
    while let Some(row) = it.next() {
        budget += tdb::stream::row_bytes(&row);
        chunk.push(row);
        let last = it.peek().is_none();
        if budget >= CHUNK_BYTES || last {
            frames.push(Frame::ReplyChunk {
                query_id,
                seq: frames.len() as u32 - 1,
                last,
                rows: std::mem::take(&mut chunk),
            });
            budget = 0;
        }
    }
    frames
}

/// Counts read at span boundaries, one entry per traced operation.
#[derive(Default)]
struct Counts {
    pages_read: Vec<f64>,
    bytes_read: Vec<f64>,
    comparisons: Vec<f64>,
    workspace_peak: Vec<f64>,
    rows_out: Vec<f64>,
    reply_bytes: Vec<f64>,
    chunk_frames: Vec<f64>,
}

/// Encode the reply as the wire would carry it and decode it back, each
/// step in its own span: the codec on the whole `Response`, then the
/// framing of the frames the server would cut it into.
fn wire_round_trip(tr: &mut Tracer, reply: Response, counts: &mut Counts) -> Result<(), String> {
    let encoded = tr.span("engine.encode", |_| {
        let mut buf = BytesMut::new();
        reply.encode(&mut buf);
        buf
    });
    counts.reply_bytes.push(encoded.len() as f64);
    tr.span("net.client_decode", |_| {
        Response::decode(&mut encoded.freeze()).map(black_box)
    })
    .map_err(err)?;
    let frames = reply_frames(reply);
    counts.chunk_frames.push(frames.len() as f64 - 1.0);
    let wire: Vec<BytesMut> = tr.span("net.frame_encode", |_| {
        frames
            .iter()
            .map(|f| {
                let mut buf = BytesMut::new();
                f.encode(&mut buf);
                buf
            })
            .collect()
    });
    drop(frames);
    tr.span("net.frame_decode", |_| {
        for buf in wire {
            let mut payload = buf.freeze();
            payload.split_to(4); // the length prefix
            black_box(Frame::decode_payload(payload)?);
        }
        Ok(())
    })
    .map_err(err)
}

/// Trace `ops` operations of a query workload against the catalog the
/// served phase used. Returns the tracer (for the trace file) and the
/// per-layer metrics.
pub fn trace_queries(spec: &RunSpec, served: &Served) -> Result<(Tracer, Layers), String> {
    let (workload, ops) = (spec.workload, spec.trace_ops);
    let kinds = query_kinds(workload);
    let mut engine = Engine::open(&served.catalog_dir).map_err(err)?;
    let mut ctx = ClientState {
        row_limit: row_limit(workload),
        ..ClientState::default()
    };
    let mut tr = Tracer::new();
    let mut counts = Counts::default();

    for op in 0..ops {
        let kind = &kinds[op % kinds.len()];
        tr.begin_op(op as u64);

        // The served path without the socket: engine, codec, framing.
        tr.span("replica", |tr| {
            let reply = tr.span("engine.execute", |_| engine.execute(&mut ctx, &kind.text));
            if let Response::Error(e) = &reply {
                return Err(format!("traced `{}` answered {e:?}", kind.name));
            }
            wire_round_trip(tr, reply, &mut counts)
        })?;

        // The stages of `Engine::execute`, called one by one.
        tr.span("stages", |tr| -> Result<(), String> {
            let catalog = engine.catalog();
            let (logical, _) = tr
                .span("quel.compile", |_| compile(&kind.text, catalog))
                .map_err(err)?;
            let optimized = tr.span("algebra.optimize", |_| conventional_optimize(logical));
            let (physical, _analysis) = tr
                .span("analyze.plan_verified", |_| {
                    plan_verified(&optimized, ctx.config, catalog)
                })
                .map_err(err)?;

            let io_before = catalog.io().snapshot();
            tr.span("storage.scan", |_| {
                for relation in &kind.relations {
                    black_box(catalog.scan(relation)?);
                }
                Ok(())
            })
            .map_err(err)?;
            let io = catalog.io().snapshot();
            counts
                .pages_read
                .push((io.pages_read - io_before.pages_read) as f64);
            counts
                .bytes_read
                .push((io.bytes_read - io_before.bytes_read) as f64);

            let run = |sink: &mut dyn RowSink| {
                let opts = ExecOptions::new().with_batch_rows(ctx.config.batch_rows);
                physical.execute(catalog, opts.with_sink(sink))
            };
            // As the engine runs it: into the connection's row limit.
            tr.span("execute.served", |_| {
                let mut sink = LimitSink::new(ctx.row_limit);
                run(&mut sink).map(|out| black_box((out, sink.into_rows())))
            })
            .map_err(err)?;
            // Scan and sort both inputs, then stop at the first row.
            tr.span("execute.limit1", |_| run(&mut LimitSink::new(1)))
                .map_err(err)?;
            // The whole kernel, no row materialized.
            let counted = tr
                .span("execute.count", |_| run(&mut CountSink::new()))
                .map_err(err)?;
            counts.comparisons.push(counted.stats.comparisons as f64);
            counts
                .workspace_peak
                .push(counted.stats.max_workspace as f64);
            counts.rows_out.push(counted.stats.output_rows as f64);
            // The whole kernel, every row materialized.
            tr.span("execute.collect", |_| {
                let mut sink = CollectSink::new();
                run(&mut sink).map(|out| black_box((out, sink.into_rows())))
            })
            .map_err(err)?;
            // Freeing a large result hands its pages back to the kernel,
            // and whatever allocates next pays to fault them in again
            // (+30 % on a `first_rows` execution). Let a scan nobody
            // measures pay, not the next operation's engine call.
            tr.span("settle", |_| {
                for relation in &kind.relations {
                    black_box(catalog.scan(relation)?);
                }
                Ok(())
            })
            .map_err(err)?;
            Ok(())
        })?;
    }

    let med = |name: &str| tr.median_us(name);
    let diff = |a: &str, b: &str| tr.median_diff_us(a, b);
    let mut m = Layers::new();
    m.insert("quel.compile_us", med("quel.compile"));
    m.insert("algebra.optimize_us", med("algebra.optimize"));
    m.insert("analyze.plan_verified_us", med("analyze.plan_verified"));
    m.insert("storage.scan_us", med("storage.scan"));
    m.insert("storage.pages_read", median(&counts.pages_read));
    m.insert("storage.bytes_read", median(&counts.bytes_read));
    m.insert("algebra.sort_us", diff("execute.limit1", "storage.scan"));
    m.insert("stream.kernel_us", diff("execute.count", "execute.limit1"));
    m.insert("stream.emit_us", diff("execute.collect", "execute.count"));
    m.insert("stream.comparisons", median(&counts.comparisons));
    m.insert("stream.workspace_peak", median(&counts.workspace_peak));
    m.insert("stream.rows_out", median(&counts.rows_out));
    m.insert(
        "stream.kernel_ns_per_comparison",
        m["stream.kernel_us"] * 1000.0 / m["stream.comparisons"].max(1.0),
    );
    m.insert("analyze.cap_exceeded", served.stats.cap_exceeded as f64);

    let stages = med("quel.compile")
        + med("algebra.optimize")
        + med("analyze.plan_verified")
        + med("execute.served");
    m.insert("engine.execute_us", med("engine.execute"));
    m.insert("engine.self_us", med("engine.execute") - stages);
    wire_and_remainders(&mut m, &tr, &counts, served, stages, ops);
    Ok((tr, m))
}

/// The metrics every workload shares: codec, framing, the served round
/// trip and what of it no span explains.
fn wire_and_remainders(
    m: &mut Layers,
    tr: &Tracer,
    counts: &Counts,
    served: &Served,
    engine_children_us: f64,
    ops: usize,
) {
    let med = |name: &str| tr.median_us(name);
    let (encode, decode) = (med("engine.encode"), med("net.client_decode"));
    // `Frame::encode`/`decode_payload` run the codec on what they carry;
    // framing is what they cost beyond it.
    let frame =
        (med("net.frame_encode") - encode).max(0.0) + (med("net.frame_decode") - decode).max(0.0);
    m.insert("engine.encode_us", encode);
    m.insert("engine.reply_bytes", median(&counts.reply_bytes));
    m.insert("net.client_decode_us", decode);
    m.insert("net.frame_us", frame);
    m.insert("net.chunks", median(&counts.chunk_frames));

    // The served round trip over the same operations the trace covers:
    // a live run's later operations cost more than its earlier ones.
    let covered = ops.min(served.latency_ms.len());
    let rtt = median(&served.latency_ms[..covered]) * 1000.0;
    let wire = encode + frame + decode;
    let transport = rtt - m["engine.execute_us"] - wire;
    m.insert("net.rtt_us", rtt);
    m.insert("net.server_us", median(&served.server_us));
    m.insert("net.transport_us", transport);
    m.insert(
        "trace.coverage_share",
        if rtt > 0.0 {
            (engine_children_us + wire) / rtt
        } else {
            0.0
        },
    );
    // Recording costs the spans of one operation times the price of a
    // span; set against the operation's traced duration.
    let spans_per_op = tr.spans().len() as f64 / ops.max(1) as f64;
    m.insert(
        "trace.overhead_share",
        spans_per_op * Tracer::span_cost_us() / med("replica").max(f64::MIN_POSITIVE),
    );
}

/// A fresh in-process durable engine at `dir`.
fn open_durable(dir: &Path) -> Result<Engine, String> {
    let _ = std::fs::remove_dir_all(dir);
    Engine::open_durable(dir, FlushPolicy::default()).map_err(err)
}

/// Trace `ops` frames of a live workload through in-process durable
/// engines: the one under test and, for `live_subscribe`, a twin with no
/// standing query, whose difference is the subscription's cost.
pub fn trace_live(
    spec: &RunSpec,
    inputs: &LiveInputs,
    served: &Served,
) -> Result<(Tracer, Layers), String> {
    let (scratch, ops) = (&spec.scratch, spec.trace_ops);
    let subscribed = spec.workload == Workload::LiveSubscribe;
    let mut main = open_durable(&scratch.join("trace-engine"))?;
    let mut twin = match subscribed {
        true => Some(open_durable(&scratch.join("trace-twin"))?),
        false => None,
    };

    // Shadows: the storage and log calls an ingest makes, callable on
    // their own. Each frame's rows are appended to a relation that has
    // grown as the run's has, and logged as the live layer logs them.
    let shadow_dir = scratch.join("trace-shadow");
    let _ = std::fs::remove_dir_all(&shadow_dir);
    let mut shadow = Catalog::open_durable(&shadow_dir, IoStats::new()).map_err(err)?;
    for relation in ["X", "Y"] {
        shadow
            .create_relation(
                relation,
                tdb_engine::interval_schema().map_err(err)?,
                &[],
                vec![StreamOrder::TS_ASC],
            )
            .map_err(err)?;
    }
    let mut log = WalLog::open(
        shadow_dir.join("shadow.wal"),
        "shadow",
        FlushPolicy::default(),
        WalMetrics::detached(),
    )
    .map_err(err)?;

    let mut tr = Tracer::new();
    // Warm-up frames go through the same calls, into a tracer nobody reads.
    let mut unrecorded = Tracer::new();
    let mut counts = Counts::default();

    let frames = &inputs.frames[..(WARMUP_OPS + ops).min(inputs.frames.len())];
    for (i, (relation, lines)) in frames.iter().enumerate() {
        if i == 2 && subscribed {
            // Both relations exist once the first pair is in.
            let text = format!("\\subscribe {}", LiveInputs::standing_query());
            let reply = main.execute(&mut ClientState::default(), &text);
            if !matches!(reply, Response::Subscribed(_)) {
                return Err(format!("traced subscription answered {reply:?}"));
            }
        }
        let recorded = i >= WARMUP_OPS;
        let tracer = if recorded { &mut tr } else { &mut unrecorded };
        tracer.begin_op(i as u64);

        // The served path without the socket: engine, codec, framing.
        tracer.span("replica", |tr| -> Result<(), String> {
            let rows = tr
                .span("engine.parse_arrivals", |_| parse_arrivals(lines))
                .map_err(err)?;
            let reply = tr
                .span("engine.ingest_rows", |_| main.ingest_rows(relation, rows))
                .map_err(err)?;
            wire_round_trip(tr, reply, &mut counts)
        })?;

        let rows = parse_arrivals(lines).map_err(err)?;
        if let Some(twin) = twin.as_mut() {
            tracer
                .span("twin.ingest_rows", |_| {
                    twin.ingest_rows(relation, rows.clone())
                })
                .map_err(err)?;
        }
        tracer
            .span("storage.append", |_| shadow.append_rows(relation, &rows))
            .map_err(err)?;
        tracer
            .span("wal.append_commit", |_| {
                for row in &rows {
                    log.append(&WalRecord::Append { row: row.clone() })?;
                }
                log.commit()
            })
            .map_err(err)?;
    }

    let med = |name: &str| tr.median_us(name);
    let mut m = Layers::new();
    m.insert("engine.parse_arrivals_us", med("engine.parse_arrivals"));
    m.insert("engine.ingest_rows_us", med("engine.ingest_rows"));
    m.insert("storage.append_us", med("storage.append"));
    m.insert(
        "storage.append_growth",
        decile_growth(&tr.per_op_us("storage.append")),
    );
    m.insert("live.ack_growth", decile_growth(&served.latency_ms));
    m.insert("live.promoted_rows", served.promoted_rows as f64);
    m.insert("live.staged_peak", served.staged_peak as f64);
    m.insert("wal.commit_us", med("wal.append_commit"));
    let wal = served.stats.wal.clone().unwrap_or_default();
    m.insert("wal.appends", wal.appends as f64);
    m.insert("wal.commits", wal.commits as f64);
    m.insert("wal.fsyncs", wal.fsyncs as f64);
    m.insert("wal.bytes_written", wal.bytes_written as f64);
    m.insert("wal.checkpoints", wal.checkpoints as f64);
    m.insert(
        "wal.bytes_per_user_byte",
        wal.bytes_written as f64 / served.user_bytes.max(1) as f64,
    );
    // With the standing query minus without it, frame by frame.
    let subscription = tr.median_diff_us("engine.ingest_rows", "twin.ingest_rows");
    m.insert("live.subscription_us", subscription);
    m.insert(
        "live.subscription_share",
        subscription / med("engine.ingest_rows").max(f64::MIN_POSITIVE),
    );
    m.insert("live.evaluations", served.evaluations as f64);
    m.insert("wal.recovery_ms", served.recovery_ms);
    let replayed = served.recovered.wal.clone().unwrap_or_default();
    m.insert("wal.replay_us", replayed.replay_us as f64);
    m.insert("wal.replay_bytes", replayed.replay_bytes as f64);
    m.insert("wal.replayed_records", replayed.replayed_records as f64);
    m.insert("analyze.cap_exceeded", served.stats.cap_exceeded as f64);

    // An ingest's engine call is `parse_arrivals` + `ingest_rows`; its
    // timed children are the parse, the shadowed append and log commit,
    // and the standing query.
    let execute = med("engine.parse_arrivals") + med("engine.ingest_rows");
    let children = med("engine.parse_arrivals")
        + med("storage.append")
        + med("wal.append_commit")
        + subscription;
    m.insert("engine.execute_us", execute);
    m.insert("engine.self_us", execute - children);
    wire_and_remainders(&mut m, &tr, &counts, served, children, ops);
    Ok((tr, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_engine::{QueryReport, QueryStats, RowSet};

    fn reply(rows: usize) -> Response {
        let row = Row::new(vec![Value::str("S12345"), Value::str("S67890")]);
        Response::Query(QueryReport {
            query_id: 7,
            logical: None,
            optimized: None,
            physical: None,
            certificate: None,
            rows: RowSet {
                columns: vec!["P".into(), "Q".into()],
                rows: vec![row; rows],
                total: rows as u64,
            },
            stats: QueryStats::default(),
            elapsed_us: 1,
            trace: None,
        })
    }

    #[test]
    fn small_replies_stay_whole_and_large_ones_are_cut_by_the_byte_budget() {
        assert!(matches!(
            reply_frames(reply(10)).as_slice(),
            [Frame::Reply { query_id: 7, .. }]
        ));

        // 28 bytes a row: 4 MiB hold 149 797 rows, so 320 000 make 3 chunks.
        let per_row =
            tdb::stream::row_bytes(&Row::new(vec![Value::str("S12345"), Value::str("S67890")]));
        let rows = 320_000usize;
        let per_chunk = CHUNK_BYTES.div_ceil(per_row) as usize;
        let frames = reply_frames(reply(rows));
        assert_eq!(frames.len() - 1, rows.div_ceil(per_chunk));
        let Frame::Reply { response, .. } = &frames[0] else {
            panic!("no header frame");
        };
        assert!(matches!(**response, Response::QueryStream(ref q) if q.rows.rows.is_empty()));
        let mut carried = 0;
        for (i, frame) in frames[1..].iter().enumerate() {
            let Frame::ReplyChunk {
                seq, last, rows, ..
            } = frame
            else {
                panic!("frame {i} is not a chunk");
            };
            assert_eq!(*seq as usize, i);
            assert_eq!(*last, i == frames.len() - 2);
            carried += rows.len();
        }
        assert_eq!(carried, rows);
    }
}
