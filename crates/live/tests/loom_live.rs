//! Loom model of watermark-gated promotion (`LiveRelation` in
//! `tdb-live`): concurrent ingesters race a promoter through the engine
//! lock, exactly as `tdb-net` ingest clients race `route_deltas` /
//! `take_closed` cycles in production.
//!
//! The model drives the *real* admission pipeline — `admit` (schema
//! check, watermark advance, staging) → `take_closed` — under every
//! schedule the explorer can reach, and checks the properties the
//! catalog relies on:
//!
//! 1. **finality** — promotion batches are globally monotone in TS
//!    order across racing drains: once a row is promoted, no later
//!    drain (under any arrival order) produces an earlier row, so a
//!    standing query never sees a retroactive insert below a frontier
//!    it already consumed;
//! 2. **exactly-once accounting** — every offered row is either
//!    admitted or rejected as a watermark order violation (the error
//!    the ingesting client sees), admitted ∪ rejected = offered, and
//!    after seal the promoted rows are exactly the admitted ones, each
//!    once;
//! 3. **watermark monotonicity** — the frontier observed across lock
//!    acquisitions never regresses;
//! 4. **atomic batches** — a batch with a late row admits none of its
//!    rows, and leaves the frontier where it was.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p tdb-live --test
//! loom_live`.
#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;
use tdb_core::{Row, StreamOrder, TdbError, TemporalSchema, TimePoint, Value};
use tdb_live::LiveRelation;

fn row(ts: i64, te: i64) -> Row {
    Row::new(vec![
        Value::str("x"),
        Value::str("Assistant"),
        Value::Time(TimePoint(ts)),
        Value::Time(TimePoint(te)),
    ])
}

fn ts_of(row: &Row) -> i64 {
    match row.get(2) {
        Value::Time(t) => t.0,
        other => panic!("expected TS at column 2, got {other:?}"),
    }
}

fn relation() -> LiveRelation {
    LiveRelation::new(
        "Faculty",
        TemporalSchema::time_sequence("Name", "Rank"),
        StreamOrder::TS_ASC,
        0, // zero slack: racing arrival orders genuinely produce rejections
    )
}

/// Admit one batch under one lock hold (the shape of
/// `Engine::ingest_text` per request): `Ok(true)` when every row was
/// admitted, `Ok(false)` when an order violation refused them all. Any
/// other error, or a partial admission, fails the model.
fn admit(rel: &Arc<Mutex<LiveRelation>>, rows: &[(i64, i64)]) -> bool {
    let mut r = rel.lock().unwrap();
    let (before, staged) = (r.admitted(), r.staged_len());
    match r.admit(rows.iter().map(|&(ts, te)| row(ts, te))) {
        Ok(()) => {
            assert_eq!(r.admitted(), before + rows.len() as u64);
            true
        }
        Err(TdbError::OrderViolation { .. }) => {
            assert_eq!(r.admitted(), before, "a refused batch was counted");
            assert_eq!(r.staged_len(), staged, "a refused batch was staged");
            false
        }
        Err(e) => panic!("unexpected admission error: {e}"),
    }
}

/// One ingester: each row a batch of its own. Returns (admitted,
/// rejected) TS values.
fn ingest(rel: &Arc<Mutex<LiveRelation>>, rows: &[(i64, i64)]) -> (Vec<i64>, Vec<i64>) {
    let mut admitted = Vec::new();
    let mut rejected = Vec::new();
    for &(ts, te) in rows {
        if admit(rel, &[(ts, te)]) {
            admitted.push(ts);
        } else {
            rejected.push(ts);
        }
    }
    (admitted, rejected)
}

#[test]
fn watermark_gated_promotion_is_monotone_and_exact() {
    loom::model(|| {
        let rel = Arc::new(Mutex::new(relation()));

        let a_rows = [(0, 7), (4, 9)];
        let b_rows = [(2, 8), (6, 11)];
        let rel_a = Arc::clone(&rel);
        let ingester_a = thread::spawn(move || ingest(&rel_a, &a_rows));
        let rel_b = Arc::clone(&rel);
        let ingester_b = thread::spawn(move || ingest(&rel_b, &b_rows));

        // The promoter races the ingesters: each cycle drains whatever
        // the watermark has closed, recording the frontier it saw.
        let rel_p = Arc::clone(&rel);
        let promoter = thread::spawn(move || {
            let mut batches: Vec<Vec<i64>> = Vec::new();
            let mut frontiers: Vec<Option<i64>> = Vec::new();
            for _ in 0..2 {
                let mut r = rel_p.lock().unwrap();
                let batch = r.take_closed();
                frontiers.push(r.watermark().map(|t| t.0));
                batches.push(batch.iter().map(ts_of).collect());
            }
            (batches, frontiers)
        });

        let (adm_a, rej_a) = ingester_a.join().unwrap();
        let (adm_b, rej_b) = ingester_b.join().unwrap();
        let (mut batches, frontiers) = promoter.join().unwrap();

        // Watermark monotonicity across promoter lock acquisitions.
        for pair in frontiers.windows(2) {
            assert!(pair[0] <= pair[1], "watermark regressed: {frontiers:?}");
        }

        // Seal and drain the remainder: everything admitted is final now.
        {
            let mut r = rel.lock().unwrap();
            r.seal().unwrap();
            batches.push(r.take_closed().iter().map(ts_of).collect());
            assert_eq!(r.staged_len(), 0, "sealed drain left staged rows");
            assert_eq!(
                r.promoted(),
                batches.iter().map(Vec::len).sum::<usize>() as u64,
                "promotion counter disagrees with drained batches"
            );
        }

        // Finality: batches are globally monotone — no drain produces a
        // row below a frontier an earlier drain already consumed.
        let promoted: Vec<i64> = batches.concat();
        for pair in promoted.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "promotion not monotone across batches: {batches:?}"
            );
        }

        // Exactly-once accounting: admitted ∪ rejected = offered, and
        // the promoted rows are exactly the admitted ones.
        let mut offered: Vec<i64> = a_rows.iter().chain(&b_rows).map(|&(ts, _)| ts).collect();
        offered.sort_unstable();
        let mut fate: Vec<i64> = adm_a
            .iter()
            .chain(&adm_b)
            .chain(&rej_a)
            .chain(&rej_b)
            .copied()
            .collect();
        fate.sort_unstable();
        assert_eq!(fate, offered, "a row vanished or was double-counted");

        let mut admitted: Vec<i64> = adm_a.iter().chain(&adm_b).copied().collect();
        admitted.sort_unstable();
        let mut got = promoted;
        got.sort_unstable();
        assert_eq!(got, admitted, "promoted set != admitted set");
    });
    assert!(
        loom::last_iterations() > 10,
        "expected a real schedule space, explored only {}",
        loom::last_iterations()
    );
}

/// Sealing concurrent with a racing ingester: arrivals after the seal
/// are rejected with `Sealed`-class errors (surfaced to that client),
/// never silently admitted past a published frontier.
#[test]
fn seal_racing_ingester_never_admits_past_final_frontier() {
    loom::model(|| {
        let rel = Arc::new(Mutex::new(relation()));
        rel.lock().unwrap().admit([row(0, 5)]).unwrap();
        let rel_i = Arc::clone(&rel);
        let ingester = thread::spawn(move || {
            let mut r = rel_i.lock().unwrap();
            let before = r.admitted();
            match r.admit([row(3, 9)]) {
                Ok(()) => {
                    assert!(!r.is_sealed(), "admitted a row into a sealed stream");
                    assert_eq!(r.admitted(), before + 1);
                    true
                }
                Err(_) => false,
            }
        });
        let rel_s = Arc::clone(&rel);
        let sealer = thread::spawn(move || {
            let mut r = rel_s.lock().unwrap();
            r.seal().unwrap();
            r.take_closed().len()
        });
        let admitted = ingester.join().unwrap();
        let drained_at_seal = sealer.join().unwrap();
        let total = rel.lock().unwrap().take_closed().len() + drained_at_seal;
        // Exactly the pre-staged row plus the racing row iff admitted.
        assert_eq!(total, 1 + usize::from(admitted));
    });
}

/// A two-row batch whose second row is late, racing an on-time row and
/// a promoter: under every schedule the batch admits neither row, and
/// because it left the frontier where it was, the on-time row is
/// admitted even when the batch ran first (had the batch's first row got
/// in, its TS 4 would have made TS 2 late).
#[test]
fn a_batch_with_a_late_row_admits_neither_row() {
    loom::model(|| {
        let rel = Arc::new(Mutex::new(relation()));
        let rel_a = Arc::clone(&rel);
        let batch = thread::spawn(move || admit(&rel_a, &[(4, 9), (1, 3)]));
        let rel_b = Arc::clone(&rel);
        let single = thread::spawn(move || admit(&rel_b, &[(2, 8)]));
        let rel_p = Arc::clone(&rel);
        let promoter = thread::spawn(move || {
            let mut r = rel_p.lock().unwrap();
            r.take_closed().iter().map(ts_of).collect::<Vec<_>>()
        });
        assert!(!batch.join().unwrap(), "the late row was admitted");
        assert!(
            single.join().unwrap(),
            "the refused batch moved the frontier"
        );
        let mut promoted = promoter.join().unwrap();
        let mut r = rel.lock().unwrap();
        assert_eq!(r.watermark(), Some(TimePoint(2)));
        r.seal().unwrap();
        promoted.extend(r.take_closed().iter().map(ts_of));
        assert_eq!(promoted, [2], "only the on-time row is ever promoted");
        assert_eq!(r.admitted(), 1);
    });
}
