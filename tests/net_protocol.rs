//! Wire-protocol and multi-client server tests for `tdb-net`.
//!
//! Three layers:
//!
//! 1. **Protocol round-trip (property)** — arbitrary typed [`Response`]
//!    values survive encode → frame → decode bit-exactly, including
//!    every enum variant, optional field, and embedded row list.
//! 2. **Multi-client equivalence (integration)** — two ingesting clients
//!    and two subscribing clients share one server. After every ingest,
//!    each subscriber's accumulated delta frames must equal, as a
//!    multiset, a batch re-execution of the same query over the
//!    watermark-closed prefix of all arrivals (the same invariant
//!    `tests/live_equivalence.rs` checks in-process), and the frames'
//!    epoch stamps must be monotone.
//! 3. **Slow-subscriber backpressure** — a subscriber that stops
//!    reading is disconnected (bounded push queue overflows) and its
//!    subscription cancelled, while ingestion continues unimpeded.
//! 4. **Observability** — a `Stats` frame returns the engine's typed
//!    [`StatsReport`] with the serving layer's network counters merged
//!    in, and `\trace on` attaches a per-operator [`QueryTrace`] (with
//!    analyzer-predicted workspace caps) to query replies.
//! 5. **Connection cleanup** — an orderly client disconnect cancels its
//!    subscriptions and reaps the connection's threads.
//! 6. **Streamed replies** — a large result leaves as header, chunks and
//!    trailer with the first chunk on the wire before the query has
//!    finished; a client that stops reading its own reply stalls nobody
//!    else (nothing under the engine lock waits for a socket); and
//!    truncated or corrupted chunk, delta and trailer frames, malformed
//!    row lists (unknown tags, dangling string references, impossible
//!    counts), or a frame of another protocol version, decode to a typed
//!    `Corrupt` error.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tdb::prelude::*;
use tdb::storage::Codec;
use tdb_engine::{
    AnalysisReport, ConnMetrics, DeltaFrame, ErrorCode, ErrorInfo, IngestReport,
    LiveRelationMetrics, LiveRelationStatus, LiveStatus, NetMetrics, OpSpan, OpVerdict,
    QueryReport, QueryStats, QueryTrace, QueryTrailer, Response, RowSet, SealReport, SloStatus,
    SlowFsyncInfo, Stage, StageLatency, StageSpan, StatsReport, SubscribeReport,
    SubscriptionStatus, SuperstarRow, TableInfo, WalReport,
};
use tdb_net::wire::{Frame, FrameReader, ReadOutcome, PROTOCOL_VERSION};
use tdb_net::{serve, Client, NetConfig, ServerHandle};

// ---------------------------------------------------------------------------
// 1. Protocol round-trip property
// ---------------------------------------------------------------------------

fn sample_rows(raw: &[(i64, i64)], tag: &str) -> Vec<Row> {
    raw.iter()
        .enumerate()
        .map(|(i, &(ts, dur))| {
            Row::new(vec![
                Value::str(format!("{tag}{i}")),
                Value::Int(i as i64),
                Value::Time(TimePoint(ts)),
                Value::Time(TimePoint(ts + dur)),
            ])
        })
        .collect()
}

fn delta_frame(raw: &[(i64, i64)], name: &str, n: u64, wm: bool) -> DeltaFrame {
    DeltaFrame {
        subscription: n % 5,
        label: name.to_string(),
        epoch: n,
        watermark: wm.then_some(TimePoint(n as i64)),
        rows: sample_rows(raw, "d"),
    }
}

fn sample_trace(n: u64, name: &str) -> QueryTrace {
    QueryTrace {
        query_id: n.wrapping_add(1),
        label: format!("query {name}"),
        elapsed_us: n,
        rows: n % 41,
        sink_rows: n % 23,
        sink_bytes: n.wrapping_mul(9),
        stages: vec![
            StageSpan::top(Stage::Parse, 0, n % 53),
            StageSpan {
                stage: Stage::Operator,
                start_us: n % 53,
                elapsed_us: n % 71,
                depth: 1,
                detail: format!("ContainJoin {name}"),
            },
        ],
        spans: vec![OpSpan {
            operator: format!("ContainJoin {name}"),
            partitions: n % 4 + 1,
            rows_in: n,
            rows_out: n / 2,
            comparisons: n.wrapping_mul(5),
            evicted: n % 31,
            workspace_peak: n % 37,
            workspace_mean: n as f64 / 13.0,
            occupancy: (0..9).map(|i| n.wrapping_add(i)).collect(),
            predicted_cap: Some(n % 37 + 1),
            predicted_expectation: Some(n as f64 / 17.0),
        }],
    }
}

/// Deterministically build one `Response` of each shape from fuzzed
/// primitives; `sel` picks the variant.
fn build_response(sel: u8, a: i64, n: u64, name: &str, raw: &[(i64, i64)], flag: bool) -> Response {
    match sel {
        0 => Response::Info(name.to_string()),
        1 => Response::Goodbye,
        2 => Response::Tables(vec![TableInfo {
            name: name.to_string(),
            rows: n,
            schema: format!("({name}: Str)"),
            lambda: flag.then_some(a as f64 / 7.0),
            mean_duration: n as f64 / 3.0,
            max_concurrency: n % 97,
        }]),
        3 => Response::Query(QueryReport {
            query_id: n.wrapping_add(1),
            logical: flag.then(|| format!("scan {name}")),
            optimized: flag.then(|| format!("opt {name}")),
            physical: (!flag).then(|| format!("phys {name}")),
            certificate: flag.then(|| "proof".to_string()),
            rows: RowSet {
                columns: vec!["Id".into(), name.to_string()],
                rows: sample_rows(raw, "q"),
                total: n,
            },
            stats: QueryStats {
                rows_scanned: n,
                comparisons: n.wrapping_mul(3),
                max_workspace: n % 1024,
                sorts_performed: n % 7,
            },
            elapsed_us: n,
            trace: flag.then(|| sample_trace(n, name)),
        }),
        4 => Response::Analysis(AnalysisReport {
            physical: format!("phys {name}"),
            ops: vec![OpVerdict {
                path: "0.1".into(),
                operator: format!("ContainJoin {name}"),
                table_entry: "Table 1 (b)".into(),
                workspace_expectation: flag.then_some(a as f64 / 11.0),
                workspace_cap: (!flag).then_some(n),
            }],
            certificate: "λ·E[D] bound".into(),
        }),
        5 => Response::Ingest(IngestReport {
            relation: name.to_string(),
            offered: n,
            promoted: n / 2,
            staged: n % 5,
            watermark: flag.then_some(TimePoint(a)),
            deltas: vec![delta_frame(raw, name, n, flag)],
        }),
        6 => Response::Subscribed(SubscribeReport {
            id: n,
            certificate: flag.then(|| "live proof".to_string()),
            initial: delta_frame(raw, name, n, !flag),
        }),
        7 => Response::Live(LiveStatus {
            relations: vec![LiveRelationStatus {
                name: name.to_string(),
                order: "ValidFrom ↑".into(),
                sealed: flag,
                watermark: (!flag).then_some(TimePoint(a)),
                admitted: n,
                staged: n % 11,
                promoted: n / 3,
                watermark_lag: n % 13,
                stalls: n % 17,
            }],
            subscriptions: vec![SubscriptionStatus {
                id: n % 3,
                label: name.to_string(),
                evaluations: n,
                emitted: n / 5,
                workspace_peak: n % 19,
                workspace_cap: n % 23 + 1,
                cancelled: flag,
            }],
        }),
        8 => Response::Sealed(SealReport {
            relation: name.to_string(),
            promoted: n,
            deltas: vec![delta_frame(raw, name, n, flag)],
        }),
        9 => Response::Superstar(vec![SuperstarRow {
            label: name.to_string(),
            elapsed_us: n,
            comparisons: n.wrapping_mul(7),
            superstars: n % 29,
        }]),
        10 => Response::Stats(StatsReport {
            queries: n,
            rows_returned: n.wrapping_mul(11),
            cap_exceeded: n % 3,
            slow_threshold_us: n % 10_000,
            slow: vec![sample_trace(n, name)],
            last: flag.then(|| sample_trace(n / 2, name)),
            live: vec![LiveRelationMetrics {
                relation: name.to_string(),
                queue_depth: n % 9,
                queue_capacity: n % 9 + 64,
                staged: n % 5,
                watermark_lag: n % 101,
                promotion_batches: n / 4,
                max_promotion_batch: n % 129,
                lambda_static: flag.then_some(a as f64 / 7.0),
                lambda_live: Some(a as f64 / 9.0),
                duration_static: (!flag).then_some(a as f64 / 3.0),
                duration_live: None,
            }],
            net: flag.then(|| NetMetrics {
                connections: n % 8,
                frames_in: n,
                bytes_in: n.wrapping_mul(100),
                frames_out: n / 2,
                bytes_out: n.wrapping_mul(90),
                push_queue_highwater: n % 65,
                slow_subscriber_disconnects: n % 2,
                conns: vec![ConnMetrics {
                    id: n % 7,
                    frames_in: n,
                    bytes_in: n.wrapping_mul(3),
                    frames_out: n / 3,
                    bytes_out: n.wrapping_mul(7),
                    push_highwater: n % 11,
                }],
            }),
            wal: (!flag).then(|| WalReport {
                flush_policy: "group-commit".to_string(),
                appends: n,
                commits: n / 2,
                fsyncs: n / 3,
                bytes_written: n.wrapping_mul(37),
                checkpoints: n % 17,
                torn_truncations: n % 2,
                replayed_records: n % 251,
                replay_bytes: n.wrapping_mul(13),
                replay_us: n % 1_000_000,
                slow_fsyncs: vec![SlowFsyncInfo {
                    relation: name.to_string(),
                    micros: n % 100_000 + 10_000,
                }],
            }),
            stages: vec![StageLatency {
                stage: "execute".to_string(),
                count: n % 1000,
                p50_us: n % 500,
                p99_us: n % 5000,
            }],
            slo: vec![SloStatus {
                objective: "latency".to_string(),
                target: 0.99,
                fast_window_s: n % 60 + 1,
                slow_window_s: n % 600 + 60,
                fast_burn: a as f64 / 7.0,
                slow_burn: a as f64 / 13.0,
                health: if flag { "ok" } else { "degraded" }.to_string(),
            }],
            health: if flag { "ok" } else { "critical" }.to_string(),
        }),
        11 => match build_response(3, a, n, name, raw, flag) {
            // A stream header is a query report whose rows travel as
            // separate chunk frames.
            Response::Query(mut q) => {
                q.rows.rows.clear();
                Response::QueryStream(q)
            }
            _ => unreachable!(),
        },
        _ => Response::Error(ErrorInfo::new(
            ErrorCode::from_u8((sel % 14) + 1).unwrap_or(ErrorCode::Protocol),
            name,
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn responses_round_trip_through_frames(
        sel in 0u8..13,
        a in -10_000i64..10_000,
        n in 0u64..1_000_000,
        chars in proptest::collection::vec(97u8..123, 0..12),
        raw in proptest::collection::vec((-50i64..50, 1i64..40), 0..5),
        parity in 0u8..2,
    ) {
        let name = String::from_utf8(chars).unwrap();
        let resp = build_response(sel, a, n, &name, &raw, parity == 1);

        // Codec level: encode/decode of the bare response.
        let back = Response::from_bytes(&resp.to_bytes()).unwrap();
        prop_assert_eq!(&back, &resp);

        // Frame level: a full Reply frame through the incremental reader,
        // with the correlation id intact.
        let mut wire = bytes::BytesMut::new();
        Frame::Reply { query_id: n, response: Box::new(resp.clone()) }.encode(&mut wire);
        let mut reader = FrameReader::new();
        let mut src = std::io::Cursor::new(wire.to_vec());
        match reader.read(&mut src).unwrap() {
            ReadOutcome::Frame(Frame::Reply { query_id, response }) => {
                prop_assert_eq!(query_id, n);
                prop_assert_eq!(*response, resp);
            }
            other => prop_assert!(false, "expected a reply frame, got {:?}", other),
        }

        // A streamed query's trailer carries the same report fields.
        if let Response::Query(q) = resp {
            let end = Frame::ReplyEnd { query_id: n, trailer: Box::new(QueryTrailer::of(q)) };
            let mut wire = bytes::BytesMut::new();
            end.encode(&mut wire);
            match FrameReader::new().read(&mut &wire[..]).unwrap() {
                ReadOutcome::Frame(back) => prop_assert_eq!(back, end),
                other => prop_assert!(false, "expected a trailer frame, got {:?}", other),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Multi-client equivalence
// ---------------------------------------------------------------------------

const SUB_QUERY: &str = "\\subscribe range of a is X range of b is Y \
     retrieve (P=a.Id, Q=b.Id) \
     where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";

fn interval_schema() -> TemporalSchema {
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
    .unwrap()
}

fn ts_of(row: &Row) -> i64 {
    match row.get(2) {
        Value::Time(t) => t.ticks(),
        other => panic!("ValidFrom must be a time, got {other:?}"),
    }
}

/// Watermark-closed prefix under slack 0 on (TS↑): everything strictly
/// below the maximum TS seen; sealing closes everything.
fn closed_prefix(arrived: &[Row], sealed: bool) -> Vec<Row> {
    if sealed {
        return arrived.to_vec();
    }
    let Some(max_ts) = arrived.iter().map(ts_of).max() else {
        return Vec::new();
    };
    arrived
        .iter()
        .filter(|r| ts_of(r) < max_ts)
        .cloned()
        .collect()
}

fn multiset(rows: &[Row]) -> BTreeMap<Vec<u8>, usize> {
    let mut out = BTreeMap::new();
    for row in rows {
        *out.entry(row.to_bytes().to_vec()).or_insert(0) += 1;
    }
    out
}

/// Batch-execute the subscription's query over a fresh catalog holding
/// exactly the closed prefixes, independently of the server.
fn batch_expected(
    dir: &std::path::Path,
    x_rows: &[Row],
    y_rows: &[Row],
) -> BTreeMap<Vec<u8>, usize> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cat = Catalog::open(dir, IoStats::new()).unwrap();
    let mut sx = x_rows.to_vec();
    sx.sort_by_key(ts_of);
    let mut sy = y_rows.to_vec();
    sy.sort_by_key(ts_of);
    cat.create_relation("X", interval_schema(), &sx, vec![StreamOrder::TS_ASC])
        .unwrap();
    cat.create_relation("Y", interval_schema(), &sy, vec![StreamOrder::TS_ASC])
        .unwrap();
    let text = SUB_QUERY.trim_start_matches("\\subscribe ");
    let (logical, _q) = compile(text, &cat).unwrap();
    let optimized = conventional_optimize(logical);
    let physical = plan(&optimized, PlannerConfig::stream()).unwrap();
    multiset(&physical.execute(&cat, ExecOptions::default()).unwrap().rows)
}

/// One subscriber's view: accumulated delta rows plus stamp checks.
struct SubView {
    client: Client,
    acc: BTreeMap<Vec<u8>, usize>,
    last_epoch: u64,
}

impl SubView {
    fn absorb(&mut self, delta: &DeltaFrame) {
        assert!(
            delta.epoch >= self.last_epoch,
            "delta epochs must be monotone: {} after {}",
            delta.epoch,
            self.last_epoch
        );
        self.last_epoch = delta.epoch;
        for (key, n) in multiset(&delta.rows) {
            *self.acc.entry(key).or_insert(0) += n;
        }
    }

    /// Wait until accumulated deltas equal `expected` (deltas already
    /// routed to this connection's queue before the ingester's reply, so
    /// convergence is deterministic).
    fn converge(&mut self, expected: &BTreeMap<Vec<u8>, usize>, ctx: &str) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while &self.acc != expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let delta = self
                .client
                .wait_push(remaining)
                .unwrap_or_else(|| panic!("{ctx}: timed out awaiting delta frames"));
            assert!(
                delta.watermark.is_some() || delta.rows.is_empty(),
                "{ctx}: a finalizing delta must carry the watermark it closed at"
            );
            self.absorb(&delta);
        }
    }
}

fn arrivals(lines: &[(i64, i64, &str)]) -> String {
    let mut out = String::new();
    for (i, (ts, te, id)) in lines.iter().enumerate() {
        writeln!(out, "{ts} {te} {id} {i}").unwrap();
    }
    out
}

#[test]
fn two_ingesters_two_subscribers_share_one_catalog() {
    let root = std::env::temp_dir().join(format!("tdb-net-multi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.addr();

    let mut ing_x = Client::connect(addr).unwrap();
    let mut ing_y = Client::connect(addr).unwrap();

    // Epoch 1+2: create both relations so the subscriptions can compile.
    let x_batches = [
        vec![(0i64, 100, "xlong"), (10, 20, "xa")],
        vec![(30, 90, "xb")],
        vec![(55, 70, "xc"), (60, 61, "xd")],
    ];
    let y_batches = [
        vec![(5i64, 15, "ya"), (20, 40, "yb")],
        vec![(35, 50, "yc")],
        vec![(65, 66, "yd")],
    ];
    let mut arrived_x: Vec<Row> = Vec::new();
    let mut arrived_y: Vec<Row> = Vec::new();
    let ingest =
        |client: &mut Client, rel: &str, batch: &[(i64, i64, &str)], arrived: &mut Vec<Row>| {
            let text = arrivals(batch);
            arrived.extend(tdb_engine::parse_arrivals(&text).unwrap());
            match client.ingest(rel, &text).unwrap() {
                Response::Ingest(r) => r,
                other => panic!("expected ingest report, got {other:?}"),
            }
        };
    let r = ingest(&mut ing_x, "X", &x_batches[0], &mut arrived_x);
    assert_eq!(r.offered, 2);
    ingest(&mut ing_y, "Y", &y_batches[0], &mut arrived_y);

    // Two subscribers on separate connections register the same query.
    let mut subs = Vec::new();
    for _ in 0..2 {
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request(SUB_QUERY).unwrap();
        let Response::Subscribed(s) = reply else {
            panic!("expected subscription, got {reply:?}");
        };
        let mut view = SubView {
            client,
            acc: BTreeMap::new(),
            last_epoch: 0,
        };
        view.absorb(&s.initial);
        subs.push(view);
    }

    // Interleave the remaining batches; after each ingest every
    // subscriber must converge to batch-over-closed-prefix.
    for i in 1..x_batches.len() {
        ingest(&mut ing_x, "X", &x_batches[i], &mut arrived_x);
        let expected = batch_expected(
            &root.join("batch"),
            &closed_prefix(&arrived_x, false),
            &closed_prefix(&arrived_y, false),
        );
        for (s, view) in subs.iter_mut().enumerate() {
            view.converge(&expected, &format!("sub{s} after X batch {i}"));
        }

        ingest(&mut ing_y, "Y", &y_batches[i], &mut arrived_y);
        let expected = batch_expected(
            &root.join("batch"),
            &closed_prefix(&arrived_x, false),
            &closed_prefix(&arrived_y, false),
        );
        for (s, view) in subs.iter_mut().enumerate() {
            view.converge(&expected, &format!("sub{s} after Y batch {i}"));
        }
    }

    // Seal both streams: every arrival becomes final and the deltas
    // must flush to both subscribers.
    for (client, rel) in [(&mut ing_x, "X"), (&mut ing_y, "Y")] {
        let reply = client.request(&format!("\\live close {rel}")).unwrap();
        assert!(matches!(reply, Response::Sealed(_)), "{reply:?}");
    }
    let expected = batch_expected(&root.join("batch"), &arrived_x, &arrived_y);
    assert!(!expected.is_empty(), "test data must produce join results");
    for (s, view) in subs.iter_mut().enumerate() {
        view.converge(&expected, &format!("sub{s} after seal"));
    }
    assert_eq!(
        subs[0].acc, subs[1].acc,
        "both subscribers observe identical delta streams"
    );

    // One shared catalog: a relation created by ing_x is visible to a
    // query from ing_y's connection.
    let reply = ing_y.request("\\tables").unwrap();
    let Response::Tables(tables) = reply else {
        panic!("expected tables, got {reply:?}");
    };
    let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
    assert!(names.contains(&"X") && names.contains(&"Y"), "{names:?}");

    for view in subs {
        view.client.close();
    }
    ing_x.close();
    ing_y.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 3. Slow-subscriber backpressure
// ---------------------------------------------------------------------------

/// Raw frame-level client that can *stop reading* — `Client`'s reader
/// thread would otherwise keep draining the socket and hide the
/// overflow.
fn raw_subscribe(addr: std::net::SocketAddr, query: &str) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    Frame::Input(query.to_string())
        .write_to(&mut stream)
        .unwrap();
    let mut reader = FrameReader::new();
    loop {
        match reader.read(&mut stream).unwrap() {
            ReadOutcome::Frame(Frame::Reply { response, .. })
                if matches!(*response, Response::Subscribed(_)) =>
            {
                return stream
            }
            ReadOutcome::Frame(other) => panic!("expected subscription reply, got {other:?}"),
            ReadOutcome::Idle => {}
            ReadOutcome::Eof => panic!("server closed during subscribe"),
        }
    }
}

#[test]
fn slow_subscriber_is_disconnected_without_stalling_ingestion() {
    let root = std::env::temp_dir().join(format!("tdb-net-slow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(
        root.join("srv"),
        "127.0.0.1:0",
        NetConfig {
            push_queue: 2,
            poll_ms: 10,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut ingester = Client::connect(addr).unwrap();
    // A long interval every later arrival nests inside, with a bulky
    // surrogate (bounded by the storage page capacity) so each pushed
    // delta row carries real payload.
    let big = "v".repeat(1024);
    let reply = ingester
        .ingest("X", &format!("0 100000000 {big}0 0\n"))
        .unwrap();
    assert!(matches!(reply, Response::Ingest(_)), "{reply:?}");

    // The slow consumer subscribes... and never reads again.
    let slow = raw_subscribe(
        addr,
        "\\subscribe range of a is X range of b is X \
         retrieve (P=a.Id, Q=b.Id) \
         where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
    );

    // Keep ingesting; each batch finalizes the previous one and pushes
    // fat join deltas at the slow consumer — ≈ 25 KiB each, since a delta
    // carries the long interval's id once and each new id once. Bounded
    // loop: the queue (2) plus both socket buffers must overflow long
    // before 300 epochs.
    let mut cancelled_at = None;
    for i in 0..300u64 {
        let base = 10 + i as i64 * 100;
        let mut lines = String::new();
        for j in 0..24i64 {
            writeln!(lines, "{} {} {big}r{i}x{j} {j}", base + j, base + j + 1).unwrap();
        }
        let reply = ingester.ingest("X", &lines).unwrap();
        assert!(
            matches!(reply, Response::Ingest(_)),
            "ingestion must keep working while the subscriber drowns: {reply:?}"
        );
        let status = ingester.request("\\live").unwrap();
        let Response::Live(live) = status else {
            panic!("expected live status, got {status:?}");
        };
        assert_eq!(live.subscriptions.len(), 1);
        if live.subscriptions[0].cancelled {
            cancelled_at = Some(i);
            break;
        }
    }
    let cancelled_at =
        cancelled_at.expect("slow subscriber was never disconnected within the bound");

    // Ingestion continues to work after the disconnect.
    let ts = 10_000_000i64;
    let reply = ingester
        .ingest("X", &format!("{ts} {} tail 3\n", ts + 1))
        .unwrap();
    assert!(matches!(reply, Response::Ingest(_)), "{reply:?}");

    // The slow consumer's socket was closed by the server.
    let mut s = slow;
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sink = vec![0u8; 65536];
    let eof_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        use std::io::Read as _;
        match s.read(&mut sink) {
            Ok(0) => break, // EOF: disconnected.
            Ok(_) => {}     // buffered frames drain first
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                break
            }
            Err(e) => panic!("unexpected socket error: {e}"),
        }
        assert!(
            Instant::now() < eof_deadline,
            "slow subscriber socket never closed (cancelled at epoch {cancelled_at})"
        );
    }

    ingester.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn shutdown_notifies_connected_clients() {
    let root = std::env::temp_dir().join(format!("tdb-net-down-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server: ServerHandle =
        serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.request("\\tables").unwrap();
    assert!(matches!(reply, Response::Tables(_)), "{reply:?}");

    server.shutdown();
    // The reader thread exits on the shutdown frame (or EOF).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.is_closed() {
        assert!(Instant::now() < deadline, "client never observed shutdown");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(client.request("\\tables").is_err());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 4. Observability over the wire
// ---------------------------------------------------------------------------

#[test]
fn stats_frame_merges_engine_and_network_counters() {
    let root = std::env::temp_dir().join(format!("tdb-net-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connect");
    let reply = client
        .ingest("X", "0 100 long 0\n10 20 a 1\n30 40 b 2\n")
        .expect("ingest");
    assert!(matches!(reply, Response::Ingest(_)), "{reply:?}");

    // Per-connection tracing is opt-in and travels with the reply.
    let reply = client.request("\\trace on").expect("trace on");
    assert!(!matches!(reply, Response::Error(_)), "{reply:?}");
    let reply = client
        .request(
            "range of a is X range of b is X retrieve (P=a.Id, Q=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
        )
        .expect("query");
    let Response::Query(q) = reply else {
        panic!("expected query report, got {reply:?}");
    };
    let trace = q
        .trace
        .expect("\\trace on must attach the query trace to replies");
    assert!(!trace.spans.is_empty(), "trace must carry operator spans");
    for span in &trace.spans {
        if let Some(cap) = span.predicted_cap {
            assert!(
                span.workspace_peak <= cap,
                "observed workspace {} exceeds the proven cap {cap} in {}",
                span.workspace_peak,
                span.operator
            );
        }
    }

    // The reply frame carried the server-minted query id, and the
    // client's RTT ring correlates its own clock with the server's.
    assert_ne!(q.query_id, 0, "queries travel with their id");
    assert_eq!(trace.query_id, q.query_id, "trace names the same query");
    assert!(
        trace.stages.iter().any(|s| s.stage == Stage::Execute),
        "stage spans attached: {:?}",
        trace.stages
    );
    let rtt = client.rtt_samples();
    let sample = rtt
        .iter()
        .find(|s| s.query_id == q.query_id)
        .expect("RTT ring holds a sample for the query");
    assert!(
        sample.rtt_us >= sample.server_us,
        "client round trip {}µs cannot undercut server execute {}µs",
        sample.rtt_us,
        sample.server_us
    );

    let reply = client.stats().expect("stats");
    let Response::Stats(stats) = reply else {
        panic!("expected stats report, got {reply:?}");
    };
    assert!(stats.queries >= 1, "{stats:?}");
    assert_eq!(stats.cap_exceeded, 0, "{stats:?}");
    assert!(
        stats.stages.iter().any(|s| s.stage == "execute"),
        "per-stage latency summaries present: {:?}",
        stats.stages
    );
    assert_eq!(stats.slo.len(), 2, "latency + errors objectives: {stats:?}");
    assert!(!stats.health.is_empty(), "{stats:?}");
    assert!(
        stats.live.iter().any(|l| l.relation == "X"),
        "live telemetry must cover the ingested relation: {stats:?}"
    );
    let net = stats
        .net
        .expect("the server must merge network counters into \\stats");
    assert_eq!(net.connections, 1, "{net:?}");
    assert_eq!(net.conns.len(), 1, "{net:?}");
    // Ingest + trace toggle + query + stats frames were all decoded
    // before this snapshot was taken; both replies were written first.
    assert!(net.frames_in >= 4, "{net:?}");
    assert!(net.bytes_in > 0 && net.bytes_out > 0, "{net:?}");
    assert!(net.frames_out >= 2, "{net:?}");

    client.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 5. Connection cleanup
// ---------------------------------------------------------------------------

/// Count this process's threads via procfs. Linux-only; other platforms
/// report 0 and the thread figures stay diagnostic.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status must be readable on linux")
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("status file lists a Threads: line")
        .split_whitespace()
        .nth(1)
        .expect("Threads: line carries a count")
        .parse()
        .expect("thread count parses as usize")
}

#[cfg(not(target_os = "linux"))]
fn threads() -> usize {
    0
}

#[test]
fn normal_close_cancels_subscriptions_and_reaps_threads() {
    let root = std::env::temp_dir().join(format!("tdb-net-leak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).expect("serve");
    let addr = server.addr();

    let mut ing = Client::connect(addr).expect("ingester connects");
    ing.ingest("X", "0 100 long 0\n10 20 a 1\n")
        .expect("seed ingest");

    let mut sub = Client::connect(addr).expect("subscriber connects");
    let reply = sub
        .request(
            "\\subscribe range of a is X range of b is X retrieve (P=a.Id, Q=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
        )
        .expect("subscribe");
    assert!(matches!(reply, Response::Subscribed(_)), "{reply:?}");

    let before = threads();
    sub.close(); // orderly Bye + socket shutdown
    std::thread::sleep(Duration::from_millis(500));

    // Drive a few epochs; a cleaned-up connection has its subscription
    // cancelled. Poll up to 5s.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut cancelled = false;
    while Instant::now() < deadline {
        ing.ingest("X", "30 40 b 2\n").expect("epoch ingest");
        let Response::Live(live) = ing.request("\\live").expect("live status") else {
            panic!("\\live must answer with a live status report");
        };
        if live.subscriptions[0].cancelled {
            cancelled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    let after = threads();
    eprintln!("threads before close: {before}, after: {after}, cancelled: {cancelled}");
    assert!(
        cancelled,
        "subscription of a disconnected client was never cancelled (threads {before} -> {after})"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 6. Streamed replies
// ---------------------------------------------------------------------------

/// Rows of the inner side of [`serve_large_join`].
const LARGE_INNER: usize = 10_000;

/// A server whose `Outer ⊇ Inner` Contain-join yields `outer × 10 000`
/// rows of two integers (24 bytes of `row_bytes` each, so 4 MiB chunks
/// of ≈ 175 k rows) from a small scan, so the reply's cost is in
/// producing and encoding output. Integers, not strings: a row list
/// writes a string once per chunk, however many pairs repeat it.
fn serve_large_join(
    tag: &str,
    outer: usize,
    config: NetConfig,
) -> (ServerHandle, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("tdb-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut lines = String::new();
    for i in 0..outer {
        writeln!(lines, "0 1000000 out{i} {i}").unwrap();
    }
    assert!(matches!(
        client.ingest("Outer", &lines),
        Ok(Response::Ingest(_))
    ));
    for part in (0..LARGE_INNER).step_by(2_000) {
        let mut lines = String::new();
        for i in part..part + 2_000 {
            writeln!(lines, "{} {} in{i} {i}", i + 1, i + 2).unwrap();
        }
        assert!(matches!(
            client.ingest("Inner", &lines),
            Ok(Response::Ingest(_))
        ));
    }
    for relation in ["Outer", "Inner"] {
        let sealed = client.request(&format!("\\live close {relation}"));
        assert!(matches!(sealed, Ok(Response::Sealed(_))), "{sealed:?}");
    }
    client.close();
    (server, root)
}

const LARGE_QUERY: &str = "range of a is Outer range of b is Inner retrieve (P=a.Seq, S=b.Seq) \
     where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";

/// A frame-level client: sends inputs, reads frames when asked to — and
/// only then, unlike `Client`, whose reader thread always drains.
struct RawClient {
    stream: std::net::TcpStream,
    reader: FrameReader,
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> RawClient {
        RawClient {
            stream: std::net::TcpStream::connect(addr).unwrap(),
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, input: &str) {
        Frame::Input(input.to_string())
            .write_to(&mut self.stream)
            .unwrap();
    }

    fn next(&mut self) -> Frame {
        loop {
            match self.reader.read(&mut self.stream).unwrap() {
                ReadOutcome::Frame(frame) => return frame,
                ReadOutcome::Idle => {}
                ReadOutcome::Eof => panic!("server closed the connection"),
            }
        }
    }

    /// Read the chunks and trailer that follow a stream header: the rows
    /// received, the trailer, and when the first chunk arrived. Panics on
    /// anything out of sequence.
    fn read_stream(&mut self) -> (usize, QueryTrailer, Instant) {
        let mut rows = 0;
        let mut expected = 0;
        let mut ended = false;
        let mut first_chunk_at = None;
        loop {
            match self.next() {
                Frame::ReplyChunk {
                    seq,
                    last,
                    rows: chunk,
                    ..
                } => {
                    first_chunk_at.get_or_insert_with(Instant::now);
                    assert!(!ended, "a chunk after the last one");
                    assert_eq!(seq, expected);
                    assert!(!chunk.is_empty());
                    expected += 1;
                    ended = last;
                    rows += chunk.len();
                }
                Frame::ReplyEnd { trailer, .. } => {
                    assert!(ended, "trailer before the last chunk");
                    return (rows, *trailer, first_chunk_at.expect("ended"));
                }
                other => panic!("unexpected frame inside a stream: {other:?}"),
            }
        }
    }
}

#[test]
fn first_chunk_arrives_before_the_query_has_finished() {
    const OUTER: usize = 100; // × 10 000 × 24 B ≈ 23 MiB: six chunks
    let (server, root) = serve_large_join("early", OUTER, NetConfig::default());
    let mut raw = RawClient::connect(server.addr());
    raw.send("\\set limit 10000000");
    assert!(matches!(raw.next(), Frame::Reply { .. }));

    let sent = Instant::now();
    raw.send(LARGE_QUERY);
    let Frame::Reply { query_id, response } = raw.next() else {
        panic!("a stream starts with its header");
    };
    let Response::QueryStream(header) = *response else {
        panic!("expected a stream header, got {response:?}");
    };
    assert_ne!(query_id, 0);
    assert_eq!(header.rows.columns, ["P", "S"]);
    assert_eq!(
        (header.rows.total, header.elapsed_us, header.stats),
        (0, 0, QueryStats::default()),
        "the header leaves before any of this is known"
    );
    let (rows, trailer, first_chunk_at) = raw.read_stream();
    let first_chunk_us = first_chunk_at.duration_since(sent).as_micros() as u64;
    assert_eq!(rows, OUTER * LARGE_INNER);
    assert_eq!(trailer.total as usize, OUTER * LARGE_INNER);
    assert!(trailer.error.is_none());
    // The server's own execute clock, stopped when the last row had been
    // produced, ran longer than it took the first chunk to get here
    // (request, parse and plan included): that chunk was on the wire
    // while the join was still running.
    assert!(
        first_chunk_us < trailer.elapsed_us,
        "first chunk after {first_chunk_us}µs, query finished in {}µs",
        trailer.elapsed_us
    );

    // Through `Client`: the header event precedes the rows, the returned
    // report is the header completed by the trailer, and the retained
    // trace shows where the time went, socket writes included.
    let mut client = Client::connect(server.addr()).unwrap();
    client.request("\\set limit 10000000").unwrap();
    let mut events = Vec::new();
    let outcome = client.request_with(LARGE_QUERY, |ev| {
        events.push(match ev {
            tdb_net::StreamEvent::Header(q) => (0, q.rows.total as usize),
            tdb_net::StreamEvent::Rows(rows) => (1, rows.len()),
        });
    });
    let Ok(Response::QueryStream(report)) = outcome else {
        panic!("expected the completed stream header, got {outcome:?}");
    };
    assert_eq!(events[0], (0, 0));
    assert!(events[1..].iter().all(|(kind, n)| *kind == 1 && *n > 0));
    assert_eq!(events.len() - 1, 6, "23 MiB in 4 MiB chunks");
    assert_eq!(report.rows.total as usize, OUTER * LARGE_INNER);
    assert!(report.elapsed_us > 0 && report.stats.rows_scanned > 0);
    let sample = client.rtt_samples().pop().expect("RTT sample");
    assert_eq!(
        (sample.query_id, sample.server_us),
        (report.query_id, report.elapsed_us)
    );
    let Ok(Response::Info(export)) = client.request("\\trace export") else {
        panic!("trace export failed");
    };
    for stage in ["execute", "operator", "sink", "render", "net_write"] {
        assert!(
            export.contains(&format!("\"stage\":\"{stage}\"")),
            "no {stage} span in {export}"
        );
    }

    client.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reader_that_stops_draining_its_reply_stalls_nobody_else() {
    const OUTER: usize = 200; // ≈ 40 MB on the wire: far past socket buffers + queue
    let config = NetConfig {
        push_queue: 2,
        ..NetConfig::default()
    };
    let (server, root) = serve_large_join("stall", OUTER, config);
    let mut stalled = RawClient::connect(server.addr());
    stalled.send("\\set limit 10000000");
    assert!(matches!(stalled.next(), Frame::Reply { .. }));
    // Ask for the big result and do not read a byte of it: the writer
    // blocks on the socket, the two-frame queue fills, and the rest of
    // the reply has to wait somewhere that is not the engine lock.
    stalled.send(LARGE_QUERY);

    let mut other = Client::connect(server.addr()).unwrap();
    let asked = Instant::now();
    let tables = other.request("\\tables");
    let waited = asked.elapsed();
    let Ok(Response::Tables(tables)) = tables else {
        panic!("second connection got {tables:?}");
    };
    assert_eq!(tables.len(), 2);
    assert!(
        waited < Duration::from_secs(3),
        "\\tables waited {waited:?} behind a connection that is not reading"
    );
    // Give the stalled reply time to hit every buffer's limit, then ask
    // again: still answered.
    std::thread::sleep(Duration::from_millis(300));
    let asked = Instant::now();
    assert!(matches!(other.request("\\tables"), Ok(Response::Tables(_))));
    assert!(asked.elapsed() < Duration::from_secs(3));

    // The stalled reader resumes: the whole reply is still there, in
    // order, parked frames included.
    assert!(
        matches!(stalled.next(), Frame::Reply { .. }),
        "stream header"
    );
    let (rows, trailer, _) = stalled.read_stream();
    assert_eq!(rows, OUTER * LARGE_INNER);
    assert_eq!(trailer.total as usize, OUTER * LARGE_INNER);

    other.close();
    drop(stalled);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Every strict prefix of a chunk or trailer frame, and every single
/// corrupted byte, decodes to a typed error or a valid frame — never a
/// panic — and a frame of another protocol version is refused.
#[test]
fn damaged_stream_frames_are_typed_corrupt_errors() {
    let report = match build_response(3, 7, 9, "t", &[(1, 5), (2, 9)], true) {
        Response::Query(q) => q,
        other => panic!("selector 3 builds a query report, got {other:?}"),
    };
    // Rows sharing their strings, so the lists carry references too.
    let rows = sample_rows(&[(1, 5), (2, 9), (-3, 4)], "chunk");
    let repeated: Vec<Row> = rows.iter().chain(&rows).cloned().collect();
    let frames = [
        Frame::ReplyChunk {
            query_id: 41,
            seq: 2,
            last: true,
            rows: repeated.clone(),
        },
        Frame::Push(DeltaFrame {
            rows: repeated,
            ..delta_frame(&[], "d", 3, true)
        }),
        Frame::ReplyEnd {
            query_id: 41,
            trailer: Box::new(QueryTrailer::of(report)),
        },
        Frame::ReplyEnd {
            query_id: 41,
            trailer: Box::new(QueryTrailer::failed(ErrorInfo::new(
                ErrorCode::Eval,
                "broke off",
            ))),
        },
    ];
    let decode = |payload: &[u8]| Frame::decode_payload(bytes::Bytes::copy_from_slice(payload));
    for frame in &frames {
        let mut wire = bytes::BytesMut::new();
        frame.encode(&mut wire);
        let payload = &wire[4..];
        assert_eq!(&decode(payload).unwrap(), frame);
        for cut in 0..payload.len() {
            match decode(&payload[..cut]) {
                Err(TdbError::Corrupt(_)) => {}
                other => panic!("prefix {cut}/{} decoded to {other:?}", payload.len()),
            }
        }
        for at in 0..payload.len() {
            let mut damaged = payload.to_vec();
            damaged[at] ^= 0xA5;
            match decode(&damaged) {
                Ok(_) | Err(TdbError::Corrupt(_)) => {}
                Err(other) => panic!("byte {at} corrupted: untyped error {other}"),
            }
        }
        // The same bytes under the previous protocol version.
        let mut older = payload.to_vec();
        assert_eq!(older[0], PROTOCOL_VERSION);
        older[0] = 3;
        match decode(&older) {
            Err(TdbError::Corrupt(msg)) => assert!(msg.contains("version 3"), "{msg}"),
            other => panic!("a version-3 frame decoded to {other:?}"),
        }
    }
}

/// A `ReplyChunk` payload (version, kind, header) whose row list is
/// `count` and then `rows` as given.
fn chunk_payload(count: u32, rows: &[u8]) -> Vec<u8> {
    let mut payload = vec![PROTOCOL_VERSION, 19];
    payload.extend_from_slice(&41u64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.push(1);
    payload.extend_from_slice(&count.to_le_bytes());
    payload.extend_from_slice(rows);
    payload
}

/// Hand-built row lists that break the format — an unknown value tag, a
/// string reference at or past its table's length (an empty table
/// included), counts and lengths far beyond the bytes present — decode
/// to a typed `Corrupt` error, never a panic or a huge allocation; the
/// well-formed control decodes, its reference resolved.
#[test]
fn malformed_row_lists_are_typed_corrupt_errors() {
    use tdb::storage::codec::{TAG_STR as STR, TAG_STR_REF as STR_REF};
    let decode = |payload: Vec<u8>| Frame::decode_payload(bytes::Bytes::from(payload));
    // One row of arity 2: "ab", then a reference to entry `r`.
    let pair_of = |r: u32| {
        let mut row = vec![2, 0, STR, 2, 0, 0, 0, b'a', b'b', STR_REF];
        row.extend_from_slice(&r.to_le_bytes());
        row
    };
    match decode(chunk_payload(1, &pair_of(0))) {
        Ok(Frame::ReplyChunk { rows, .. }) => {
            assert_eq!(rows, [Row::new(vec![Value::str("ab"), Value::str("ab")])]);
        }
        other => panic!("a well-formed list decoded to {other:?}"),
    }
    let mut reference_in_empty_list = vec![1, 0, STR_REF];
    reference_in_empty_list.extend_from_slice(&0u32.to_le_bytes());
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("unknown value tag", chunk_payload(1, &[1, 0, 9])),
        (
            "reference at the table length",
            chunk_payload(1, &pair_of(1)),
        ),
        (
            "reference far past the table",
            chunk_payload(1, &pair_of(u32::MAX)),
        ),
        (
            "reference in an empty list",
            chunk_payload(1, &reference_in_empty_list),
        ),
        ("huge row count", chunk_payload(u32::MAX, &pair_of(0))),
        ("huge arity", chunk_payload(1, &[0xff, 0xff, 0])),
        (
            "huge string length",
            chunk_payload(1, &[1, 0, STR, 0xff, 0xff, 0xff, 0xff]),
        ),
    ];
    for (what, payload) in cases {
        match decode(payload) {
            Err(TdbError::Corrupt(_)) => {}
            other => panic!("{what}: decoded to {other:?}"),
        }
    }
}
