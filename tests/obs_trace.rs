//! Acceptance test for the observability subsystem (predicted vs
//! observed workspace telemetry).
//!
//! Two workloads mirror the benchmark suite:
//!
//! * **Query** — a Poisson interval relation driven through the
//!   contain-join. Every traced operator span must observe a workspace
//!   peak at or below the analyzer's proven cap, next to the paper's
//!   λ·E\[D\] expectation.
//! * **Live** — live ingestion with a standing contain-join
//!   subscription. The subscription's workspace watermark must stay
//!   under its plan-time cap, so the engine-wide `cap_exceeded`
//!   counter stays zero.
//!
//! An observed peak above a proven cap is a verifier soundness bug —
//! exactly the regression this test exists to catch.

use tdb_engine::{ClientState, Engine, Response};

fn engine(tag: &str) -> Engine {
    let dir = std::env::temp_dir().join(format!("tdb-obs-trace-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Engine::open(dir).expect("open engine on a fresh directory")
}

const CONTAIN: &str = "range of a is T range of b is T retrieve (P=a.Id, Q=b.Id) \
                       where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";

#[test]
fn observed_workspace_stays_within_proven_caps() {
    let mut e = engine("e15");
    let mut ctx = ClientState {
        trace: true,
        ..ClientState::default()
    };
    let resp = e.execute(&mut ctx, "\\gen intervals T 2000 3 10 7");
    assert!(!matches!(resp, Response::Error(_)), "{resp:?}");

    let resp = e.execute(&mut ctx, CONTAIN);
    let Response::Query(q) = resp else {
        panic!("expected a query report, got {resp:?}");
    };
    let trace = q.trace.expect("\\trace on attaches the trace");
    assert_eq!(
        trace.rows, q.rows.total,
        "trace row count mirrors the result"
    );
    let span = trace
        .spans
        .iter()
        .find(|s| s.operator.contains("ContainJoin"))
        .unwrap_or_else(|| panic!("no contain-join span in {:?}", trace.spans));
    let cap = span
        .predicted_cap
        .expect("the analyzer proves a workspace cap for the contain join");
    assert!(
        span.workspace_peak <= cap,
        "observed workspace peak {} exceeds the proven cap {cap} — verifier soundness bug",
        span.workspace_peak
    );
    let expectation = span
        .predicted_expectation
        .expect("plan-time statistics yield a λ·E[D] expectation");
    assert!(
        expectation.is_finite() && expectation > 0.0,
        "λ·E[D] must be a positive finite figure, got {expectation}"
    );
    assert!(!span.cap_exceeded());

    let report = e.stats_report();
    assert_eq!(report.queries, 1, "{report:?}");
    assert_eq!(
        report.cap_exceeded, 0,
        "no query may exceed a proven cap: {report:?}"
    );
    let last = report.last.expect("the last trace is retained");
    assert!(!last.spans.is_empty());
}

#[test]
fn live_subscription_workspace_stays_under_its_static_cap() {
    let mut e = engine("e16");
    let mut ctx = ClientState::default();

    // A deterministic Poisson-flavoured arrival stream: small forward
    // steps, mixed durations, sorted by start time as ingestion requires.
    let mut state = 99991u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as i64
    };
    let mut ts = 0i64;
    let mut batches = Vec::new();
    for b in 0..20 {
        let mut lines = String::new();
        for i in 0..25 {
            ts += rng() % 4;
            let dur = 1 + rng() % 12;
            lines.push_str(&format!("{ts} {} id{b}x{i} {i}\n", ts + dur));
        }
        batches.push(lines);
    }

    let resp = e.ingest_text("T", &batches[0]);
    assert!(matches!(resp, Response::Ingest(_)), "{resp:?}");
    let resp = e.execute(&mut ctx, &format!("\\subscribe {CONTAIN}"));
    assert!(matches!(resp, Response::Subscribed(_)), "{resp:?}");
    for lines in &batches[1..] {
        let resp = e.ingest_text("T", lines);
        assert!(matches!(resp, Response::Ingest(_)), "{resp:?}");
    }
    let resp = e.execute(&mut ctx, "\\live close T");
    assert!(matches!(resp, Response::Sealed(_)), "{resp:?}");

    let report = e.stats_report();
    assert_eq!(
        report.cap_exceeded, 0,
        "a standing query's workspace exceeded its static cap: {report:?}"
    );
    let live = report
        .live
        .iter()
        .find(|l| l.relation == "T")
        .expect("live telemetry covers the ingested relation");
    assert!(live.promotion_batches >= 1, "{live:?}");
    assert!(
        live.max_promotion_batch >= 1 && live.max_promotion_batch <= 500,
        "{live:?}"
    );
    assert_eq!(
        live.staged, 0,
        "the seal promotes every staged row: {live:?}"
    );
    assert!(
        live.lambda_live.is_some(),
        "500 arrivals must yield a live arrival-rate estimate: {live:?}"
    );

    // The scrape path reflects the same invariant.
    let page = e.prometheus();
    assert!(page.contains("tdb_cap_exceeded_total 0"), "{page}");
    assert!(page.contains("tdb_live_cap_violations 0"), "{page}");
}
