//! Loom model of the partitioned-parallel handoff (`parallel_join` /
//! `parallel_semijoin` in `tdb_stream::partition`): K workers each process
//! a fringe-replicated partition, dedup their outputs (owner-of-max for
//! joins, ordinal merge for semijoins), and hand results back to the
//! coordinator through shared state.
//!
//! The model re-creates that structure with loom's `thread`/`sync`
//! primitives around the *real* partitioning and dedup code
//! ([`PartitionSpec`], [`partition_with_fringe`], [`merge_tagged`]), so
//! the checked property is the one the production driver relies on: no
//! interleaving of worker completion can lose, duplicate, or reorder a
//! result past the dedup layer.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p tdb-stream --test
//! loom_partition`. Under the offline loom shim the schedule exploration
//! is approximate (see `crates/shim/loom`); with the real crate the same
//! test exhaustively checks all interleavings.
#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;
use tdb_core::{Temporal, TsTuple};
use tdb_stream::{merge_tagged, partition_with_fringe, PartitionSpec, Tagged};

fn iv(s: i64, e: i64) -> TsTuple {
    TsTuple::interval(s, e).unwrap()
}

/// Fixed tiny instance with fringe tuples crossing the partition boundary,
/// so both workers see replicated copies and the dedup layer has real work.
fn instance() -> (Vec<TsTuple>, Vec<TsTuple>, PartitionSpec) {
    let xs = vec![iv(0, 10), iv(2, 9), iv(6, 8)];
    let ys = vec![iv(1, 3), iv(4, 7), iv(6, 7)];
    let spec = PartitionSpec::covering(&xs, &ys, 2).unwrap();
    (xs, ys, spec)
}

/// Joins: each worker emits a matching pair only when it owns the
/// intersection start `max(x.TS, y.TS)` — the production dedup rule.
#[test]
fn owner_dedup_join_handoff_is_exactly_once() {
    loom::model(|| {
        let (xs, ys, spec) = instance();
        let oracle: Vec<(TsTuple, TsTuple)> = xs
            .iter()
            .flat_map(|x| ys.iter().map(move |y| (x.clone(), y.clone())))
            .filter(|(x, y)| x.period().contains(&y.period()))
            .collect();

        let xparts = partition_with_fringe(&xs, &spec);
        let yparts = partition_with_fringe(&ys, &spec);
        let results = Arc::new(Mutex::new(Vec::new()));
        let spec = Arc::new(spec);

        let handles: Vec<_> = xparts
            .into_iter()
            .zip(yparts)
            .enumerate()
            .map(|(i, (xp, yp))| {
                let results = Arc::clone(&results);
                let spec = Arc::clone(&spec);
                thread::spawn(move || {
                    // The worker's serial sweep, reduced to its match set.
                    let owned: Vec<(TsTuple, TsTuple)> = xp
                        .iter()
                        .flat_map(|x| yp.iter().map(move |y| (x.clone(), y.clone())))
                        .filter(|(x, y)| x.period().contains(&y.period()))
                        // Owner-of-max dedup, exactly as in `parallel_join`.
                        .filter(|(x, y)| spec.owner_of(x.ts().max_of(y.ts())) == i)
                        .collect();
                    results.lock().unwrap().extend(owned);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let mut got = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
        let key = |p: &(TsTuple, TsTuple)| {
            (
                p.0.ts().ticks(),
                p.0.te().ticks(),
                p.1.ts().ticks(),
                p.1.te().ticks(),
            )
        };
        got.sort_by_key(key);
        let mut want = oracle;
        want.sort_by_key(key);
        assert_eq!(got, want, "handoff lost or duplicated a pair");
    });
}

/// Semijoins: workers report witnessed ordinals per partition; the
/// coordinator's K-way ordinal merge dedups the fringe copies.
#[test]
fn ordinal_merge_semijoin_handoff_is_exactly_once() {
    loom::model(|| {
        let (xs, ys, spec) = instance();
        let oracle: Vec<TsTuple> = xs
            .iter()
            .filter(|x| ys.iter().any(|y| x.period().contains(&y.period())))
            .cloned()
            .collect();

        let tagged: Vec<Tagged<TsTuple>> = xs
            .into_iter()
            .enumerate()
            .map(|(ordinal, item)| Tagged { ordinal, item })
            .collect();
        let xparts = partition_with_fringe(&tagged, &spec);
        let yparts = partition_with_fringe(&ys, &spec);
        let k = spec.len();
        let parts = Arc::new(Mutex::new(vec![Vec::new(); k]));

        let handles: Vec<_> = xparts
            .into_iter()
            .zip(yparts)
            .enumerate()
            .map(|(i, (xp, yp))| {
                let parts = Arc::clone(&parts);
                thread::spawn(move || {
                    let kept: Vec<Tagged<TsTuple>> = xp
                        .into_iter()
                        .filter(|x| yp.iter().any(|y| x.period().contains(&y.period())))
                        .collect();
                    parts.lock().unwrap()[i] = kept;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let parts = Arc::try_unwrap(parts).unwrap().into_inner().unwrap();
        let mut got = Vec::new();
        merge_tagged(parts, 2, &mut |chunk| {
            got.extend(chunk);
            Ok(true)
        })
        .unwrap();
        assert_eq!(got, oracle, "ordinal merge lost a tuple or kept a dup");
    });
}
