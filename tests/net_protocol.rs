//! Wire-protocol and multi-client server tests for `tdb-net`.
//!
//! Seven layers:
//!
//! 1. **Protocol round-trip (property)** — arbitrary typed [`Response`]
//!    values survive encode → frame → decode bit-exactly, including
//!    every enum variant, optional field, and embedded row list; every
//!    strict prefix of a response, frame or WAL record is `Corrupt`, and
//!    a flipped byte is `Corrupt` or decodes to a value that re-encodes
//!    to exactly the damaged bytes.
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
//!    in, `\trace on` attaches a per-operator [`QueryTrace`] (with
//!    analyzer-predicted workspace caps) to query replies, and the served
//!    `/healthz` and `/metrics` endpoints report the burn-rate verdict
//!    and the cap counters.
//! 5. **Connection cleanup** — an orderly client disconnect cancels its
//!    subscriptions and reaps the connection's threads.
//! 6. **Streamed replies** — a large result leaves as header, chunks and
//!    trailer with the first chunk on the wire before the query has
//!    finished; a client that stops reading its own reply stalls nobody
//!    else (nothing under the engine lock waits for a socket); and
//!    truncated or corrupted chunk, delta and trailer frames, malformed
//!    row lists (unknown tags, dangling string references, impossible
//!    counts), a frame with bytes after its body, or a frame of another
//!    protocol version, decode to a typed `Corrupt` error.
//! 7. **Golden bytes** — one value of every frame kind, response type
//!    and WAL record variant encodes to committed hex, so a field moved
//!    in both halves of a codec (which every round trip survives) fails.

#[path = "support/live.rs"]
mod live;

use live::{batch_catalog, closed_prefix, multiset};
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
use tdb_net::wire::{Frame, FrameReader, ReadOutcome, RowsAhead, PROTOCOL_VERSION};
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
        pages_read: n % 29,
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
                pages_read: n / 3,
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
            }],
            subscriptions: vec![SubscriptionStatus {
                id: n % 3,
                label: name.to_string(),
                mode: if flag { "held tuples" } else { "re-evaluated" }.into(),
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

/// A frame's payload: its encoding without the length prefix.
fn payload_of(frame: &Frame) -> Vec<u8> {
    let mut wire = bytes::BytesMut::new();
    frame.encode(&mut wire);
    wire[4..].to_vec()
}

fn decode_frame(payload: &[u8]) -> TdbResult<Frame> {
    Frame::decode_payload(bytes::Bytes::copy_from_slice(payload))
}

/// What damage does to the encoding `bytes` of a value under a strict
/// decoder: every strict prefix is `Corrupt`, and each byte in turn
/// XORed with `mask` (nonzero) gives `Corrupt` or a value that
/// re-encodes to exactly the damaged bytes — no byte is read leniently.
fn assert_damage_is_caught<T: std::fmt::Debug>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> TdbResult<T>,
    encode: impl Fn(&T) -> Vec<u8>,
    mask: u8,
) {
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(TdbError::Corrupt(_)) => {}
            other => panic!("prefix {cut}/{} decoded to {other:?}", bytes.len()),
        }
    }
    let mut damaged = bytes.to_vec();
    for at in 0..bytes.len() {
        damaged[at] ^= mask;
        match decode(&damaged) {
            Err(TdbError::Corrupt(_)) => {}
            Ok(v) => assert_eq!(
                encode(&v),
                damaged,
                "byte {at} ^ {mask:#04x} decoded to {v:?}, which re-encodes differently"
            ),
            Err(other) => panic!("byte {at} ^ {mask:#04x}: untyped error {other}"),
        }
        damaged[at] ^= mask;
    }
}

/// Deterministically build one WAL record of each shape from fuzzed
/// primitives; `sel` picks the variant.
fn build_wal_record(sel: u8, a: i64, n: u64, name: &str, flag: bool) -> tdb::wal::WalRecord {
    use tdb::wal::WalRecord;
    let specs = [
        SortSpec::TS_ASC,
        SortSpec::TS_DESC,
        SortSpec::TE_ASC,
        SortSpec::TE_DESC,
    ];
    let spec = |i: u64| specs[(i % 4) as usize];
    match sel {
        0 => WalRecord::Register {
            order: StreamOrder {
                primary: spec(n),
                secondary: flag.then(|| spec(n / 4)),
            },
            slack: a,
        },
        1 => WalRecord::Append {
            row: Row::new(vec![
                Value::str(name),
                Value::Int(a),
                Value::Bool(flag),
                Value::Null,
                Value::Time(TimePoint(a)),
                Value::str(name),
            ]),
        },
        2 => WalRecord::Watermark {
            frontier: flag.then_some(TimePoint(a)),
        },
        3 => WalRecord::Seal,
        4 => WalRecord::Promote { closed: n },
        5 => WalRecord::Checkpoint {
            promoted: n,
            frontier: (!flag).then_some(TimePoint(a)),
            sealed: flag,
        },
        _ => WalRecord::Heap {
            file: name.to_string(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Every response type, in a bare encoding and in each frame that
    /// carries it: encode then decode gives the same value, and no
    /// truncation or flipped byte goes unnoticed.
    #[test]
    fn responses_round_trip_through_frames(
        sel in 0u8..13,
        a in -10_000i64..10_000,
        n in 0u64..1_000_000,
        chars in proptest::collection::vec(97u8..123, 0..12),
        raw in proptest::collection::vec((-50i64..50, 1i64..40), 0..5),
        parity in 0u8..2,
        mask in 1u8..=255,
    ) {
        let name = String::from_utf8(chars).unwrap();
        let resp = build_response(sel, a, n, &name, &raw, parity == 1);

        // Codec level: encode/decode of the bare response.
        let bytes = resp.to_bytes();
        let back = Response::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &resp);
        assert_damage_is_caught(&bytes, Response::from_bytes, |r| r.to_bytes().to_vec(), mask);

        // Frame level: a full Reply frame through the incremental reader,
        // with the correlation id intact.
        let mut wire = bytes::BytesMut::new();
        Frame::Reply { query_id: n, response: Box::new(resp.clone()) }.encode(&mut wire);
        // The frame speaks protocol version 9.
        prop_assert_eq!(wire[4], 9);
        let mut reader = FrameReader::new();
        let mut src = std::io::Cursor::new(wire.to_vec());
        match reader.read(&mut src).unwrap() {
            ReadOutcome::Frame(Frame::Reply { query_id, response }) => {
                prop_assert_eq!(query_id, n);
                prop_assert_eq!(*response, resp);
            }
            other => prop_assert!(false, "expected a reply frame, got {:?}", other),
        }

        let reply = Frame::Reply { query_id: n, response: Box::new(resp.clone()) };
        assert_damage_is_caught(&payload_of(&reply), decode_frame, payload_of, mask);

        // A streamed query's trailer carries the same report fields, and
        // its rows travel as a chunk.
        if let Response::Query(q) = resp {
            let rows = q.rows.rows.clone();
            let end = Frame::ReplyEnd { query_id: n, trailer: Box::new(QueryTrailer::of(q)) };
            let mut wire = bytes::BytesMut::new();
            end.encode(&mut wire);
            match FrameReader::new().read(&mut &wire[..]).unwrap() {
                ReadOutcome::Frame(back) => prop_assert_eq!(&back, &end),
                other => prop_assert!(false, "expected a trailer frame, got {:?}", other),
            }
            assert_damage_is_caught(&payload_of(&end), decode_frame, payload_of, mask);
            let chunk = Frame::ReplyChunk { query_id: n, seq: a as u32, last: parity == 1, rows: rows.clone() };
            prop_assert_eq!(decode_frame(&payload_of(&chunk)).unwrap(), chunk.clone());
            assert_damage_is_caught(&payload_of(&chunk), decode_frame, payload_of, mask);
            // Or they go ahead of it.
            let ahead = Frame::ReplyRows { query_id: n, rows };
            prop_assert_eq!(decode_frame(&payload_of(&ahead)).unwrap(), ahead.clone());
            assert_damage_is_caught(&payload_of(&ahead), decode_frame, payload_of, mask);
        }
    }

    /// Every WAL record variant: encode then decode gives the same
    /// record, and no truncation or flipped byte goes unnoticed, so a
    /// CRC-valid frame never replays a record its writer did not log.
    #[test]
    fn wal_records_round_trip_and_reject_damage(
        sel in 0u8..7,
        a in i64::MIN..i64::MAX,
        n in any::<u64>(),
        chars in proptest::collection::vec(97u8..123, 0..12),
        parity in 0u8..2,
        mask in 1u8..=255,
    ) {
        use tdb::wal::WalRecord;
        let name = String::from_utf8(chars).unwrap();
        let record = build_wal_record(sel, a, n, &name, parity == 1);
        let bytes = record.to_bytes();
        prop_assert_eq!(WalRecord::from_bytes(&bytes).unwrap(), record);
        assert_damage_is_caught(&bytes, WalRecord::from_bytes, |r| r.to_bytes().to_vec(), mask);
    }
}

// ---------------------------------------------------------------------------
// 2. Multi-client equivalence
// ---------------------------------------------------------------------------

const SUB_QUERY: &str = "\\subscribe range of a is X range of b is Y \
     retrieve (P=a.Id, Q=b.Id) \
     where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";

/// Batch-execute the subscription's query over a fresh catalog holding
/// exactly the closed prefixes, independently of the server.
fn batch_expected(
    dir: &std::path::Path,
    x_rows: &[Row],
    y_rows: &[Row],
) -> BTreeMap<Vec<u8>, usize> {
    let cat = batch_catalog(dir, x_rows, y_rows);
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

/// A remote `\ingest` that names a path is refused, like stdin: the
/// server opens no file a client names, so nothing of one can reach the
/// reply (a parse error would echo the file's first line).
#[test]
fn remote_ingest_of_a_path_reads_no_server_file() {
    let root = std::env::temp_dir().join(format!("tdb-net-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let secret = root.join("secret.txt");
    std::fs::write(&secret, "marker-7f3a not an arrival\n").unwrap();
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for source in [secret.display().to_string(), "-".to_string()] {
        let reply = client.request(&format!("\\ingest S {source}")).unwrap();
        let Response::Error(err) = &reply else {
            panic!("{source}: expected an error, got {reply:?}");
        };
        assert_eq!(err.code, ErrorCode::Protocol, "{source}: {}", err.message);
        assert!(!format!("{reply:?}").contains("marker-7f3a"), "{reply:?}");
    }
    let reply = client.request("\\tables").unwrap();
    let Response::Tables(tables) = &reply else {
        panic!("expected tables, got {reply:?}");
    };
    assert!(tables.iter().all(|t| t.name != "S"), "nothing was ingested");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 4. Observability over the wire
// ---------------------------------------------------------------------------

/// One plain HTTP/1.1 `GET`, read to the server's close.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn stats_frame_merges_engine_and_network_counters() {
    let root = std::env::temp_dir().join(format!("tdb-net-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.addr();
    let source = server.metrics_source();
    let health = source.clone();
    let metrics = tdb_obs::serve_metrics_with_health(
        "127.0.0.1:0",
        move || source.render(),
        move || health.health(),
    )
    .expect("metrics listener");

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

    // The served health surface: `/healthz` answers 200 while the
    // objectives hold and 503 once one burns in both windows (one bad
    // query of two burns the 1 % budget 50× over), and `/metrics`
    // exports the cap counters, the burn rates and the stage histograms.
    let healthy = http_get(metrics.addr(), "/healthz");
    assert!(healthy.starts_with("HTTP/1.1 200"), "{healthy}");
    let reply = client.request("\\slo latency 1").expect("slo");
    assert!(matches!(reply, Response::Info(_)), "{reply:?}");
    let reply = client
        .request("range of a is X retrieve (P=a.Id)")
        .expect("query");
    assert!(matches!(reply, Response::Query(_)), "{reply:?}");
    let sick = http_get(metrics.addr(), "/healthz");
    assert!(sick.starts_with("HTTP/1.1 503"), "{sick}");
    assert!(sick.contains("critical"), "{sick}");
    let page = http_get(metrics.addr(), "/metrics");
    for line in [
        "tdb_cap_exceeded_total 0",
        "tdb_live_cap_violations 0",
        "tdb_slo_burn_rate_fast",
        "tdb_stage_duration_us_count{stage=\"execute\"}",
    ] {
        assert!(page.contains(line), "`{line}` missing from\n{page}");
    }

    metrics.shutdown();
    client.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `\stats` typed into a remote shell travels as an `Input` frame; its
/// reply carries the network counters just as a `Stats` frame's does.
#[test]
fn typed_stats_input_carries_the_network_counters() {
    let root = std::env::temp_dir().join(format!("tdb-net-typed-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(root.join("srv"), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.request("\\stats").expect("stats");
    let Response::Stats(stats) = reply else {
        panic!("expected stats report, got {reply:?}");
    };
    let net = stats
        .net
        .expect("a typed \\stats must merge the network counters");
    assert_eq!(net.connections, 1, "{net:?}");
    assert!(net.frames_in >= 1 && net.bytes_in > 0, "{net:?}");
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
/// only then, unlike `Client`, whose reader thread always drains. Rows
/// sent ahead (`ReplyRows`) are folded into the chunk or query reply
/// that follows them, as `Client` does.
struct RawClient {
    stream: std::net::TcpStream,
    reader: FrameReader,
    ahead: RowsAhead,
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> RawClient {
        RawClient {
            stream: std::net::TcpStream::connect(addr).unwrap(),
            reader: FrameReader::new(),
            ahead: RowsAhead::default(),
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
                ReadOutcome::Frame(frame) => {
                    if let Some(frame) = self.ahead.fold(frame) {
                        return frame;
                    }
                }
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
    // One socket-write span per header, chunk and trailer: the writes of
    // the hundreds of fragments sent ahead are folded into their chunk's,
    // not logged one by one into the shared ring of late spans.
    let writes = export.matches("\"stage\":\"net_write\"").count();
    assert!(writes <= 6 + 2, "{writes} net_write spans for 6 chunks");

    client.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// What a client makes of rows sent ahead: a result past one fragment
/// but within the 4 MiB chunk budget is still one `Response::Query`
/// holding every row, with no `Rows` event; a 3-chunk result is exactly
/// 3 `Rows` events, cut by the `row_bytes` budget, whose trace keeps one
/// `net_write` span per frame that is not a fragment.
#[test]
fn rows_sent_ahead_reassemble_into_the_chunks_a_client_sees() {
    const OUTER: usize = 50; // × 10 000 × 24 B ≈ 11.4 MiB: three chunks
    let (server, root) = serve_large_join("ahead", OUTER, NetConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.request("\\set limit 10000000").unwrap();
    let mut events = 0;
    let mut chunks: Vec<Vec<Row>> = Vec::new();
    let outcome = client.request_with(LARGE_QUERY, |ev| {
        events += 1;
        if let tdb_net::StreamEvent::Rows(rows) = ev {
            chunks.push(rows);
        }
    });
    assert!(
        matches!(outcome, Ok(Response::QueryStream(_))),
        "{outcome:?}"
    );
    assert_eq!((events, chunks.len()), (4, 3), "a header and 3 chunks");
    let all = chunks.concat();
    assert_eq!(all.len(), OUTER * LARGE_INNER);
    let mut budget = 0u64;
    let mut want = vec![0];
    for row in &all {
        if budget >= tdb_net::CHUNK_BYTES {
            want.push(0);
            budget = 0;
        }
        budget += tdb::stream::row_bytes(row);
        *want.last_mut().unwrap() += 1;
    }
    let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
    assert_eq!(sizes, want, "chunks cut by the 4 MiB budget");
    let Ok(Response::Info(export)) = client.request("\\trace export") else {
        panic!("trace export failed");
    };
    let writes = export.matches("\"stage\":\"net_write\"").count();
    assert!(
        (1..=3 + 2).contains(&writes),
        "{writes} net_write spans for 3 chunks"
    );

    // ≈ 2.3 MiB of rows: past a fragment, within one chunk.
    let limit = 100_000;
    client.request(&format!("\\set limit {limit}")).unwrap();
    let mut events = 0;
    let outcome = client.request_with(LARGE_QUERY, |_| events += 1);
    let Ok(Response::Query(report)) = outcome else {
        panic!("expected one query reply, got {outcome:?}");
    };
    assert_eq!(events, 0, "a reply within the budget is not a stream");
    assert_eq!(report.rows.rows, all[..limit], "every row, in order");

    client.close();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A query that fails after rows went ahead but before its first chunk
/// was cut (a heap breaking its claimed TS↑ order, found after some
/// 29 000 matches) answers a typed error, and the rows sent ahead are
/// dropped, their write time logged as one `net_write` sample: the next
/// query on the connection — itself sent ahead in fragments — gets its
/// own rows and no others.
#[test]
fn an_error_after_rows_went_ahead_leaves_the_next_reply_clean() {
    let root = std::env::temp_dir().join(format!("tdb-net-ahead-error-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let interval = |id: String, ts: i64, te: i64| {
        Row::new(vec![
            Value::str(id),
            Value::Int(0),
            Value::Time(TimePoint(ts)),
            Value::Time(TimePoint(te)),
        ])
    };
    let x: Vec<Row> = (0..3_500)
        .map(|i| interval(format!("x{i}"), i, i + 100))
        .collect();
    let y: Vec<Row> = (0..3_500)
        .map(|j| interval(format!("y{j}"), j, j + 1))
        .collect();
    let z: Vec<Row> = (0..20_000)
        .map(|j| interval(format!("z{j:06}"), j, j + 1))
        .collect();
    {
        let mut cat = Catalog::open(&root, IoStats::new()).unwrap();
        for (name, rows) in [("X", &x), ("Y", &y), ("Z", &z)] {
            let ts = vec![StreamOrder::TS_ASC];
            cat.create_relation(name, tdb_engine::interval_schema().unwrap(), rows, ts)
                .unwrap();
        }
        // Row 300 of X's heap starts before its predecessor; the manifest
        // still claims TS↑.
        let mut broken = x.clone();
        broken[300] = interval("late".into(), 0, 50);
        let path = root.join(&cat.meta("X").unwrap().file);
        let mut heap = tdb::storage::HeapFile::create(path, IoStats::new()).unwrap();
        for row in &broken {
            heap.append(row).unwrap();
        }
        heap.flush().unwrap();
    }
    let query = "range of a is X range of b is Y retrieve (P=a.Id, Q=b.Id) \
                 where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";
    let server = serve(&root, "127.0.0.1:0", NetConfig::default()).unwrap();

    // On the wire: rows went ahead, then the error, under id 0.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = FrameReader::new();
    Frame::Input("\\set limit 10000000".into())
        .write_to(&mut raw)
        .unwrap();
    while !matches!(reader.read(&mut raw).unwrap(), ReadOutcome::Frame(_)) {}
    Frame::Input(query.into()).write_to(&mut raw).unwrap();
    let mut ahead = 0;
    let error = loop {
        match reader.read(&mut raw).unwrap() {
            ReadOutcome::Frame(Frame::ReplyRows { query_id, .. }) => {
                assert_ne!(query_id, 0);
                ahead += 1;
            }
            ReadOutcome::Frame(Frame::Reply { query_id, response }) => {
                assert_eq!(query_id, 0, "the error is not the query's reply");
                break response;
            }
            ReadOutcome::Frame(other) => panic!("unexpected {other:?}"),
            ReadOutcome::Idle => {}
            ReadOutcome::Eof => panic!("server closed the connection"),
        }
    };
    assert!(ahead >= 2, "{ahead} fragments went ahead of the error");
    assert!(matches!(*error, Response::Error(_)), "{error:?}");
    drop(raw);

    // The writes of the fragments are timed too: one `net_write` sample
    // for them, beside the `\set` reply's and the error's.
    // Each earlier stats reply adds its own sample once written.
    let mut client = Client::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut asked = 0;
    let raw_writes = loop {
        let Ok(Response::Stats(stats)) = client.stats() else {
            panic!("expected stats");
        };
        let stage = stats.stages.iter().find(|s| s.stage == "net_write");
        let writes = stage.map_or(0, |s| s.count).saturating_sub(asked);
        asked += 1;
        if writes >= 3 || Instant::now() > deadline {
            break writes;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(raw_writes, 3, "net_write samples of the first connection");

    client.request("\\set limit 10000000").unwrap();
    let mut events = 0;
    let reply = client.request_with(query, |_| events += 1);
    assert!(
        matches!(&reply, Ok(Response::Error(e)) if e.code == ErrorCode::OrderViolation),
        "{reply:?}"
    );
    assert_eq!(events, 0);

    let reply = client.request("range of z is Z retrieve (N=z.Id);");
    let Ok(Response::Query(report)) = reply else {
        panic!("expected Z's rows, got {reply:?}");
    };
    let want: Vec<Row> = z
        .iter()
        .map(|r| Row::new(vec![r.values()[0].clone()]))
        .collect();
    assert_eq!(report.rows.rows, want);

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

/// A reply holds at most half of its connection's outbound queue,
/// however slowly its client reads. A subscriber that stops reading a
/// ≈ 34 MiB reply, sent ahead in 64 KiB fragments, and then reads it
/// slowly still has room for the deltas that another connection's
/// ingests route to it meanwhile: it is not taken for a slow subscriber.
#[test]
fn a_subscriber_reading_a_large_reply_slowly_keeps_its_subscription() {
    const OUTER: usize = 150; // × 10 000 × 24 B ≈ 34 MiB: nine chunks
    let (server, root) = serve_large_join("busy-sub", OUTER, NetConfig::default());
    let mut ingester = Client::connect(server.addr()).unwrap();
    // A long interval every later arrival nests inside.
    let reply = ingester.ingest("L", "0 100000000 long 0\n");
    assert!(matches!(reply, Ok(Response::Ingest(_))), "{reply:?}");
    let mut raw = RawClient::connect(server.addr());
    raw.send(
        "\\subscribe range of a is L range of b is L retrieve (P=a.Id, Q=b.Id) \
         where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo",
    );
    let Frame::Reply { response, .. } = raw.next() else {
        panic!("expected the subscription's reply");
    };
    assert!(matches!(*response, Response::Subscribed(_)), "{response:?}");
    raw.send("\\set limit 10000000");
    assert!(matches!(raw.next(), Frame::Reply { .. }));

    raw.send(LARGE_QUERY);
    assert!(matches!(raw.next(), Frame::Reply { .. }), "stream header");
    let mut pushes = 0;
    let (stalled, resume) = std::sync::mpsc::channel();
    let (rows, trailer) = std::thread::scope(|s| {
        // Each batch finalizes the one before it: a delta for `raw`. The
        // first waits for the query to release the engine, so the first
        // half lands while `raw` reads nothing, its reply filling the
        // socket and the queue; the second half while it reads slowly.
        let ingests = s.spawn(|| {
            for i in 0..8i64 {
                if i == 4 {
                    stalled.send(()).unwrap();
                }
                let mut lines = String::new();
                for j in 0..4 {
                    let ts = 10 + i * 100 + j;
                    writeln!(lines, "{ts} {} r{i}x{j} {j}", ts + 1).unwrap();
                }
                let reply = ingester.ingest("L", &lines);
                assert!(matches!(reply, Ok(Response::Ingest(_))), "{reply:?}");
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        resume.recv().unwrap();
        let mut rows = 0;
        let trailer = loop {
            match raw.next() {
                Frame::ReplyChunk { rows: chunk, .. } => {
                    rows += chunk.len();
                    std::thread::sleep(Duration::from_millis(50));
                }
                Frame::ReplyEnd { trailer, .. } => break trailer,
                Frame::Push(_) => pushes += 1,
                other => panic!("unexpected frame inside a stream: {other:?}"),
            }
        };
        ingests.join().unwrap();
        (rows, trailer)
    });
    assert_eq!(rows, OUTER * LARGE_INNER);
    assert_eq!(trailer.total as usize, OUTER * LARGE_INNER);
    // Every delta was routed before this request: all of them come
    // ahead of its reply.
    raw.send("\\tables");
    loop {
        match raw.next() {
            Frame::Push(_) => pushes += 1,
            Frame::Reply { response, .. } => {
                assert!(matches!(*response, Response::Tables(_)), "{response:?}");
                break;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert!(pushes >= 4, "{pushes} deltas reached the subscriber");

    let Ok(Response::Live(live)) = ingester.request("\\live") else {
        panic!("expected live status");
    };
    assert!(!live.subscriptions[0].cancelled, "{live:?}");
    let Ok(Response::Stats(stats)) = ingester.stats() else {
        panic!("expected stats");
    };
    let net = stats.net.expect("network counters");
    assert_eq!(net.slow_subscriber_disconnects, 0, "{net:?}");
    assert!(
        net.push_queue_highwater <= (NetConfig::default().push_queue / 2 + 1 + pushes) as u64,
        "{net:?}"
    );

    ingester.close();
    drop(raw);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Every strict prefix of a request, reply, chunk, fragment or trailer
/// frame, and
/// the frame with one byte too many, is `Corrupt`; every single
/// corrupted byte decodes to a typed error or a valid frame — never a
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
        Frame::Input("range of f is Faculty retrieve (N=f.Name);".into()),
        Frame::Ingest {
            relation: "S".into(),
            lines: "1 5 a\n2 9 b\n".into(),
        },
        Frame::Reply {
            query_id: 41,
            response: Box::new(Response::Query(report.clone())),
        },
        Frame::ReplyChunk {
            query_id: 41,
            seq: 2,
            last: true,
            rows: repeated.clone(),
        },
        Frame::ReplyRows {
            query_id: 41,
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
        let mut longer = payload.to_vec();
        longer.push(0);
        match decode(&longer) {
            Err(TdbError::Corrupt(_)) => {}
            other => panic!("{frame:?} with a trailing byte decoded to {other:?}"),
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
        let previous = PROTOCOL_VERSION - 1;
        let mut older = payload.to_vec();
        assert_eq!(older[0], PROTOCOL_VERSION);
        older[0] = previous;
        match decode(&older) {
            Err(TdbError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("version {previous}")), "{msg}");
            }
            other => panic!("a version-{previous} frame decoded to {other:?}"),
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

// ---------------------------------------------------------------------------
// 7. Golden bytes
// ---------------------------------------------------------------------------

/// Rows whose strings repeat: `Smith` is one `Arc` in two rows, so its
/// row list writes it once and then a reference, where a plain
/// `Vec<Row>` encoding would write it twice.
fn golden_rows() -> Vec<Row> {
    let smith = Value::str("Smith");
    vec![
        Row::new(vec![smith.clone(), Value::Int(-2), Value::Bool(true)]),
        Row::new(vec![Value::Time(TimePoint(7)), Value::Null, smith]),
        Row::new(vec![Value::Bool(false)]),
    ]
}

fn golden_stats() -> QueryStats {
    QueryStats {
        rows_scanned: 1,
        pages_read: 2,
        comparisons: 3,
        max_workspace: 4,
        sorts_performed: 5,
    }
}

fn golden_trace() -> QueryTrace {
    QueryTrace {
        query_id: 1,
        label: "q".into(),
        elapsed_us: 2,
        rows: 3,
        pages_read: 4,
        sink_rows: 5,
        sink_bytes: 6,
        spans: vec![
            OpSpan {
                operator: "J".into(),
                rows_in: 7,
                rows_out: 8,
                comparisons: 9,
                evicted: 10,
                workspace_peak: 11,
                workspace_mean: 1.5,
                occupancy: vec![12, 13],
                predicted_cap: Some(14),
                predicted_expectation: None,
            },
            OpSpan {
                operator: "S".into(),
                workspace_mean: -0.25,
                predicted_expectation: Some(2.5),
                ..OpSpan::default()
            },
        ],
        stages: vec![
            StageSpan::top(Stage::Parse, 15, 16),
            StageSpan {
                stage: Stage::Operator,
                start_us: 17,
                elapsed_us: 18,
                depth: 1,
                detail: "J".into(),
            },
        ],
    }
}

fn golden_delta(watermark: Option<i64>) -> DeltaFrame {
    DeltaFrame {
        subscription: 3,
        label: "L".into(),
        epoch: 4,
        watermark: watermark.map(TimePoint),
        rows: golden_rows(),
    }
}

fn golden_report() -> QueryReport {
    QueryReport {
        query_id: 9,
        logical: Some("l".into()),
        optimized: Some("o".into()),
        physical: Some("p".into()),
        certificate: Some("c".into()),
        rows: RowSet {
            columns: vec!["A".into(), "B".into()],
            rows: golden_rows(),
            total: 3,
        },
        stats: golden_stats(),
        elapsed_us: 10,
        trace: Some(golden_trace()),
    }
}

fn golden_stats_report() -> StatsReport {
    StatsReport {
        queries: 1,
        rows_returned: 2,
        cap_exceeded: 3,
        slow_threshold_us: 4,
        slow: vec![golden_trace()],
        last: Some(golden_trace()),
        live: vec![LiveRelationMetrics {
            relation: "S".into(),
            staged: 5,
            watermark_lag: 6,
            promotion_batches: 7,
            max_promotion_batch: 8,
            lambda_static: Some(0.5),
            lambda_live: None,
            duration_static: None,
            duration_live: Some(4.0),
        }],
        net: Some(NetMetrics {
            connections: 9,
            frames_in: 10,
            bytes_in: 11,
            frames_out: 12,
            bytes_out: 13,
            push_queue_highwater: 14,
            slow_subscriber_disconnects: 15,
            conns: vec![ConnMetrics {
                id: 16,
                frames_in: 17,
                bytes_in: 18,
                frames_out: 19,
                bytes_out: 20,
                push_highwater: 21,
            }],
        }),
        wal: Some(WalReport {
            flush_policy: "g".into(),
            appends: 22,
            commits: 23,
            fsyncs: 24,
            bytes_written: 25,
            checkpoints: 26,
            torn_truncations: 27,
            replayed_records: 28,
            replay_bytes: 29,
            replay_us: 30,
            slow_fsyncs: vec![SlowFsyncInfo {
                relation: "S".into(),
                micros: 31,
            }],
        }),
        stages: vec![StageLatency {
            stage: "execute".into(),
            count: 32,
            p50_us: 33,
            p99_us: 34,
        }],
        slo: vec![SloStatus {
            objective: "latency".into(),
            target: 0.99,
            fast_window_s: 35,
            slow_window_s: 36,
            fast_burn: 0.125,
            slow_burn: 2.0,
            health: "ok".into(),
        }],
        health: "degraded".into(),
    }
}

/// One value of every frame kind and every response type, `Some` and
/// `None`, empty and non-empty vectors among them.
fn golden_frames() -> Vec<(&'static str, Frame)> {
    let reply = |response| Frame::Reply {
        query_id: 9,
        response: Box::new(response),
    };
    let mut header = golden_report();
    header.rows.rows.clear();
    vec![
        ("input", Frame::Input("\\tables".into())),
        (
            "ingest",
            Frame::Ingest {
                relation: "S".into(),
                lines: "1 2 a\n".into(),
            },
        ),
        ("stats", Frame::Stats),
        ("bye", Frame::Bye),
        ("shutdown", Frame::Shutdown),
        ("push", Frame::Push(golden_delta(Some(-6)))),
        (
            "reply_chunk",
            Frame::ReplyChunk {
                query_id: 9,
                seq: 2,
                last: true,
                rows: golden_rows(),
            },
        ),
        (
            "reply_rows",
            Frame::ReplyRows {
                query_id: 9,
                rows: golden_rows(),
            },
        ),
        (
            "reply_chunk_empty",
            Frame::ReplyChunk {
                query_id: 9,
                seq: 3,
                last: false,
                rows: Vec::new(),
            },
        ),
        (
            "reply_end",
            Frame::ReplyEnd {
                query_id: 9,
                trailer: Box::new(QueryTrailer::of(golden_report())),
            },
        ),
        (
            "reply_end_failed",
            Frame::ReplyEnd {
                query_id: 9,
                trailer: Box::new(QueryTrailer::failed(ErrorInfo::new(ErrorCode::Eval, "x"))),
            },
        ),
        ("info", reply(Response::Info("hi".into()))),
        ("goodbye", reply(Response::Goodbye)),
        (
            "tables",
            reply(Response::Tables(vec![
                TableInfo {
                    name: "F".into(),
                    rows: 1,
                    schema: "s".into(),
                    lambda: Some(0.5),
                    mean_duration: 2.0,
                    max_concurrency: 3,
                },
                TableInfo {
                    name: "G".into(),
                    rows: 4,
                    schema: String::new(),
                    lambda: None,
                    mean_duration: 0.0,
                    max_concurrency: 5,
                },
            ])),
        ),
        ("query", reply(Response::Query(golden_report()))),
        ("query_bare", reply(Response::Query(QueryReport::default()))),
        ("query_stream", reply(Response::QueryStream(header))),
        (
            "analysis",
            reply(Response::Analysis(AnalysisReport {
                physical: "p".into(),
                ops: vec![
                    OpVerdict {
                        path: "0".into(),
                        operator: "J".into(),
                        table_entry: "T".into(),
                        workspace_expectation: Some(1.5),
                        workspace_cap: None,
                    },
                    OpVerdict {
                        path: "0.1".into(),
                        operator: "S".into(),
                        table_entry: "U".into(),
                        workspace_expectation: None,
                        workspace_cap: Some(6),
                    },
                ],
                certificate: "c".into(),
            })),
        ),
        (
            "ingest_report",
            reply(Response::Ingest(IngestReport {
                relation: "S".into(),
                offered: 1,
                promoted: 2,
                staged: 3,
                watermark: Some(TimePoint(4)),
                deltas: vec![golden_delta(Some(5))],
            })),
        ),
        (
            "ingest_report_empty",
            reply(Response::Ingest(IngestReport {
                relation: "S".into(),
                offered: 0,
                promoted: 0,
                staged: 0,
                watermark: None,
                deltas: Vec::new(),
            })),
        ),
        (
            "subscribed",
            reply(Response::Subscribed(SubscribeReport {
                id: 7,
                certificate: Some("c".into()),
                initial: golden_delta(None),
            })),
        ),
        (
            "live",
            reply(Response::Live(LiveStatus {
                relations: vec![LiveRelationStatus {
                    name: "S".into(),
                    order: "o".into(),
                    sealed: true,
                    watermark: Some(TimePoint(1)),
                    admitted: 2,
                    staged: 3,
                    promoted: 4,
                    watermark_lag: 5,
                }],
                subscriptions: vec![SubscriptionStatus {
                    id: 6,
                    label: "L".into(),
                    mode: "held tuples".into(),
                    evaluations: 7,
                    emitted: 8,
                    workspace_peak: 9,
                    workspace_cap: 10,
                    cancelled: false,
                }],
            })),
        ),
        (
            "sealed",
            reply(Response::Sealed(SealReport {
                relation: "S".into(),
                promoted: 1,
                deltas: vec![golden_delta(None)],
            })),
        ),
        (
            "superstar",
            reply(Response::Superstar(vec![SuperstarRow {
                label: "s".into(),
                elapsed_us: 1,
                comparisons: 2,
                superstars: 3,
            }])),
        ),
        (
            "stats_report",
            reply(Response::Stats(golden_stats_report())),
        ),
        (
            "stats_report_empty",
            reply(Response::Stats(StatsReport::default())),
        ),
        (
            "error",
            reply(Response::Error(ErrorInfo::new(ErrorCode::WalCorrupt, "w"))),
        ),
    ]
}

/// One value of every WAL record variant, `Some` and `None` among them.
fn golden_wal_records() -> Vec<(&'static str, tdb::wal::WalRecord)> {
    use tdb::wal::WalRecord;
    vec![
        (
            "register",
            WalRecord::Register {
                order: StreamOrder::TS_ASC,
                slack: 3,
            },
        ),
        (
            "register_secondary",
            WalRecord::Register {
                order: StreamOrder::by_then(SortSpec::TE_DESC, SortSpec::TS_ASC),
                slack: -1,
            },
        ),
        (
            "append",
            WalRecord::Append {
                row: golden_rows().swap_remove(0),
            },
        ),
        ("watermark_none", WalRecord::Watermark { frontier: None }),
        (
            "watermark",
            WalRecord::Watermark {
                frontier: Some(TimePoint(-4)),
            },
        ),
        ("seal", WalRecord::Seal),
        ("promote", WalRecord::Promote { closed: 1234 }),
        (
            "checkpoint",
            WalRecord::Checkpoint {
                promoted: 99,
                frontier: Some(TimePoint(41)),
                sealed: true,
            },
        ),
        (
            "checkpoint_empty",
            WalRecord::Checkpoint {
                promoted: 0,
                frontier: None,
                sealed: false,
            },
        ),
        (
            "heap",
            WalRecord::Heap {
                file: "S.2.heap".into(),
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// Compare every `(name, bytes)` with its pinned hex (whitespace in the
/// pin ignored). On a mismatch, print every actual encoding in the
/// table's own layout before failing.
fn assert_golden(encoded: &[(&str, Vec<u8>)], pinned: &[(&str, &str)]) {
    let mut wrong = Vec::new();
    for (name, bytes) in encoded {
        let want = pinned
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.chars().filter(|c| !c.is_whitespace()).collect::<String>());
        if want.as_deref() != Some(hex(bytes).as_str()) {
            wrong.push(*name);
        }
    }
    if !wrong.is_empty() {
        for (name, bytes) in encoded {
            let h = hex(bytes);
            let lines: Vec<&str> = h
                .as_bytes()
                .chunks(64)
                .map(|c| std::str::from_utf8(c).unwrap())
                .collect();
            eprintln!(
                "    (\n        \"{name}\",\n        \"{}\",\n    ),",
                lines.join("\\\n         ")
            );
        }
        panic!("encodings differ from their pins: {wrong:?}");
    }
    assert_eq!(encoded.len(), pinned.len(), "a pin names no value");
}

/// The bytes of every frame kind, every response type and every WAL
/// record variant, pinned. Round-trip tests cannot see a field moved in
/// both halves of a codec at once; such a move breaks every older peer
/// and every log on disk, and changes these bytes.
#[test]
fn wire_and_wal_bytes_match_their_golden_pins() {
    let frames = golden_frames();
    let encoded: Vec<(&str, Vec<u8>)> = frames
        .iter()
        .map(|(name, frame)| {
            let mut wire = bytes::BytesMut::new();
            frame.encode(&mut wire);
            (*name, wire.to_vec())
        })
        .collect();
    for ((name, frame), (_, wire)) in frames.iter().zip(&encoded) {
        let back = Frame::decode_payload(bytes::Bytes::copy_from_slice(&wire[4..]));
        assert_eq!(back.as_ref().ok(), Some(frame), "{name}");
    }
    assert_golden(&encoded, GOLDEN_FRAMES);

    let records = golden_wal_records();
    let encoded: Vec<(&str, Vec<u8>)> = records
        .iter()
        .map(|(name, r)| (*name, r.to_bytes().to_vec()))
        .collect();
    for (name, r) in &records {
        let back = tdb::wal::WalRecord::from_bytes(&r.to_bytes());
        assert_eq!(back.as_ref().ok(), Some(r), "{name}");
    }
    assert_golden(&encoded, GOLDEN_WAL);
}

const GOLDEN_FRAMES: &[(&str, &str)] = &[
    ("input", "0d0000000901070000005c7461626c6573"),
    ("ingest", "11000000090201000000530600000031203220610a"),
    ("stats", "020000000904"),
    ("bye", "020000000903"),
    ("shutdown", "020000000912"),
    (
        "push",
        "5000000009110300000000000000010000004c040000000000000001faffffff\
         ffffffff0300000003000405000000536d69746802feffffffffffffff010103\
         0003070000000000000000050000000001000100",
    ),
    (
        "reply_chunk",
        "3f0000000913090000000000000002000000010300000003000405000000536d\
         69746802feffffffffffffff0101030003070000000000000000050000000001\
         000100",
    ),
    (
        "reply_rows",
        "3a000000091509000000000000000300000003000405000000536d69746802fe\
         ffffffffffffff0101030003070000000000000000050000000001000100",
    ),
    (
        "reply_chunk_empty",
        "1300000009130900000000000000030000000000000000",
    ),
    (
        "reply_end",
        "5d01000009140900000000000000030000000000000001000000000000000200\
         0000000000000300000000000000040000000000000005000000000000000a00\
         0000000000000101000000000000000100000071020000000000000003000000\
         0000000004000000000000000500000000000000060000000000000002000000\
         010000004a0700000000000000080000000000000009000000000000000a0000\
         00000000000b00000000000000000000000000f83f020000000c000000000000\
         000d00000000000000010e000000000000000001000000530000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         000000000000d0bf000000000001000000000000044002000000050000007061\
         7273650f0000000000000010000000000000000000000000000000080000006f\
         70657261746f721100000000000000120000000000000001000000010000004a\
         00",
    ),
    (
        "reply_end_failed",
        "4a00000009140900000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         00000000000000010a0100000078",
    ),
    ("info", "110000000910090000000000000000020000006869"),
    ("goodbye", "0b0000000910090000000000000001"),
    (
        "tables",
        "5c00000009100900000000000000020200000001000000460100000000000000\
         010000007301000000000000e03f000000000000004003000000000000000100\
         0000470400000000000000000000000000000000000000000500000000000000",
    ),
    (
        "query",
        "bb0100000910090000000000000003090000000000000001010000006c010100\
         00006f0101000000700101000000630200000001000000410100000042030000\
         0003000405000000536d69746802feffffffffffffff01010300030700000000\
         0000000005000000000100010003000000000000000100000000000000020000\
         00000000000300000000000000040000000000000005000000000000000a0000\
         0000000000010100000000000000010000007102000000000000000300000000\
         0000000400000000000000050000000000000006000000000000000200000001\
         0000004a0700000000000000080000000000000009000000000000000a000000\
         000000000b00000000000000000000000000f83f020000000c00000000000000\
         0d00000000000000010e00000000000000000100000053000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000d0bf00000000000100000000000004400200000005000000706172\
         73650f0000000000000010000000000000000000000000000000080000006f70\
         657261746f721100000000000000120000000000000001000000010000004a",
    ),
    (
        "query_bare",
        "5800000009100900000000000000030000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000",
    ),
    (
        "query_stream",
        "8f010000091009000000000000000c090000000000000001010000006c010100\
         00006f0101000000700101000000630200000001000000410100000042000000\
         0003000000000000000100000000000000020000000000000003000000000000\
         00040000000000000005000000000000000a0000000000000001010000000000\
         0000010000007102000000000000000300000000000000040000000000000005\
         00000000000000060000000000000002000000010000004a0700000000000000\
         080000000000000009000000000000000a000000000000000b00000000000000\
         000000000000f83f020000000c000000000000000d00000000000000010e0000\
         0000000000000100000053000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000d0bf0000000000\
         010000000000000440020000000500000070617273650f000000000000001000\
         0000000000000000000000000000080000006f70657261746f72110000000000\
         0000120000000000000001000000010000004a",
    ),
    (
        "analysis",
        "4d00000009100900000000000000040100000070020000000100000030010000\
         004a010000005401000000000000f83f0003000000302e310100000053010000\
         0055000106000000000000000100000063",
    ),
    (
        "ingest_report",
        "8300000009100900000000000000050100000053010000000000000002000000\
         0000000003000000000000000104000000000000000100000003000000000000\
         00010000004c0400000000000000010500000000000000030000000300040500\
         0000536d69746802feffffffffffffff01010300030700000000000000000500\
         00000001000100",
    ),
    (
        "ingest_report_empty",
        "2d00000009100900000000000000050100000053000000000000000000000000\
         0000000000000000000000000000000000",
    ),
    (
        "subscribed",
        "5f00000009100900000000000000060700000000000000010100000063030000\
         0000000000010000004c0400000000000000000300000003000405000000536d\
         69746802feffffffffffffff0101030003070000000000000000050000000001\
         000100",
    ),
    (
        "live",
        "840000000910090000000000000007010000000100000053010000006f010101\
         0000000000000002000000000000000300000000000000040000000000000005\
         00000000000000010000000600000000000000010000004c0b00000068656c64\
         207475706c65730700000000000000080000000000000009000000000000000a\
         0000000000000000",
    ),
    (
        "sealed",
        "6200000009100900000000000000080100000053010000000000000001000000\
         0300000000000000010000004c04000000000000000003000000030004050000\
         00536d69746802feffffffffffffff0101030003070000000000000000050000\
         000001000100",
    ),
    (
        "superstar",
        "2c00000009100900000000000000090100000001000000730100000000000000\
         02000000000000000300000000000000",
    ),
    (
        "stats_report",
        "db030000091009000000000000000b0100000000000000020000000000000003\
         0000000000000004000000000000000100000001000000000000000100000071\
         0200000000000000030000000000000004000000000000000500000000000000\
         060000000000000002000000010000004a070000000000000008000000000000\
         0009000000000000000a000000000000000b00000000000000000000000000f8\
         3f020000000c000000000000000d00000000000000010e000000000000000001\
         0000005300000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000d0bf000000000001000000000000\
         0440020000000500000070617273650f00000000000000100000000000000000\
         00000000000000080000006f70657261746f7211000000000000001200000000\
         00000001000000010000004a0101000000000000000100000071020000000000\
         0000030000000000000004000000000000000500000000000000060000000000\
         000002000000010000004a070000000000000008000000000000000900000000\
         0000000a000000000000000b00000000000000000000000000f83f020000000c\
         000000000000000d00000000000000010e000000000000000001000000530000\
         0000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000d0bf000000000001000000000000044002000000\
         0500000070617273650f00000000000000100000000000000000000000000000\
         00080000006f70657261746f7211000000000000001200000000000000010000\
         00010000004a0100000001000000530500000000000000060000000000000007\
         00000000000000080000000000000001000000000000e03f0000010000000000\
         0010400109000000000000000a000000000000000b000000000000000c000000\
         000000000d000000000000000e000000000000000f0000000000000001000000\
         1000000000000000110000000000000012000000000000001300000000000000\
         1400000000000000150000000000000001010000006716000000000000001700\
         000000000000180000000000000019000000000000001a000000000000001b00\
         0000000000001c000000000000001d000000000000001e000000000000000100\
         000001000000531f000000000000000100000007000000657865637574652000\
         0000000000002100000000000000220000000000000001000000070000006c61\
         74656e6379ae47e17a14aeef3f23000000000000002400000000000000000000\
         000000c03f0000000000000040020000006f6b080000006465677261646564",
    ),
    (
        "stats_report_empty",
        "42000000091009000000000000000b0000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         000000000000",
    ),
    ("error", "11000000091009000000000000000a100100000077"),
];

const GOLDEN_WAL: &[(&str, &str)] = &[
    ("register", "010000000300000000000000"),
    ("register_secondary", "010101010000ffffffffffffffff"),
    ("append", "0203000405000000536d69746802feffffffffffffff0101"),
    ("watermark_none", "0300"),
    ("watermark", "0301fcffffffffffffff"),
    ("seal", "04"),
    ("promote", "05d204000000000000"),
    ("checkpoint", "06630000000000000001290000000000000001"),
    ("checkpoint_empty", "0600000000000000000000"),
    ("heap", "0808000000532e322e68656170"),
];
